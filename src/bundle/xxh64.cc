// XXH64 with seed 0, written from the published algorithm (Yann Collet's
// xxHash specification): four 64-bit accumulator lanes over 32-byte
// stripes, then the 8-, 4- and 1-byte tails, then the avalanche. Loads are
// little-endian, so a checksum means the same bytes on every host.

#include <cstddef>
#include <cstdint>

#include "base/endian.h"
#include "bundle/format.h"

namespace geopriv::bundle {

namespace {

constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

constexpr uint64_t Rotl(uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

constexpr uint64_t Round(uint64_t acc, uint64_t input) {
  acc += input * kPrime2;
  acc = Rotl(acc, 31);
  return acc * kPrime1;
}

constexpr uint64_t MergeRound(uint64_t acc, uint64_t lane) {
  acc ^= Round(0, lane);
  return acc * kPrime1 + kPrime4;
}

}  // namespace

uint64_t Xxh64(const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + size;
  uint64_t h;
  if (size >= 32) {
    uint64_t v1 = kPrime1 + kPrime2;
    uint64_t v2 = kPrime2;
    uint64_t v3 = 0;
    uint64_t v4 = 0 - kPrime1;
    const unsigned char* const last_stripe = end - 32;
    do {
      v1 = Round(v1, base::LoadLE64(p));
      v2 = Round(v2, base::LoadLE64(p + 8));
      v3 = Round(v3, base::LoadLE64(p + 16));
      v4 = Round(v4, base::LoadLE64(p + 24));
      p += 32;
    } while (p <= last_stripe);
    h = Rotl(v1, 1) + Rotl(v2, 7) + Rotl(v3, 12) + Rotl(v4, 18);
    h = MergeRound(h, v1);
    h = MergeRound(h, v2);
    h = MergeRound(h, v3);
    h = MergeRound(h, v4);
  } else {
    h = kPrime5;
  }
  h += static_cast<uint64_t>(size);

  for (; end - p >= 8; p += 8) {
    h ^= Round(0, base::LoadLE64(p));
    h = Rotl(h, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h ^= static_cast<uint64_t>(base::LoadLE32(p)) * kPrime1;
    h = Rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= static_cast<uint64_t>(*p) * kPrime5;
    h = Rotl(h, 11) * kPrime1;
  }

  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace geopriv::bundle
