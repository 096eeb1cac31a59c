// Little-endian encode/decode helpers for the on-disk region bundle
// (src/bundle/). The format documents a little-endian byte contract;
// these helpers make that contract explicit instead of relying on the
// host's native order. On little-endian hosts (every platform we build on
// today) the encode/decode compile down to plain loads/stores.

#ifndef GEOPRIV_BASE_ENDIAN_H_
#define GEOPRIV_BASE_ENDIAN_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

namespace geopriv::base {

inline constexpr bool kLittleEndianHost =
    std::endian::native == std::endian::little;

// The byte-order sentinel every bundle header carries right after its
// magic. Written little-endian; a reader on (or a file from) a big-endian
// machine sees the byte-swapped value and rejects the file instead of
// silently misparsing every field after it.
inline constexpr uint32_t kEndianSentinel = 0x01020304u;
inline constexpr uint32_t kEndianSentinelSwapped = 0x04030201u;

inline void StoreLE32(uint32_t v, unsigned char* out) {
  out[0] = static_cast<unsigned char>(v);
  out[1] = static_cast<unsigned char>(v >> 8);
  out[2] = static_cast<unsigned char>(v >> 16);
  out[3] = static_cast<unsigned char>(v >> 24);
}

inline void StoreLE64(uint64_t v, unsigned char* out) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<unsigned char>(v >> (8 * i));
  }
}

inline uint32_t LoadLE32(const unsigned char* in) {
  return static_cast<uint32_t>(in[0]) | (static_cast<uint32_t>(in[1]) << 8) |
         (static_cast<uint32_t>(in[2]) << 16) |
         (static_cast<uint32_t>(in[3]) << 24);
}

inline uint64_t LoadLE64(const unsigned char* in) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(in[i]) << (8 * i);
  }
  return v;
}

// Doubles travel as the little-endian bytes of their IEEE-754 bit
// pattern, so a round trip is bit-exact (NaN payloads included).
inline void StoreLEF64(double v, unsigned char* out) {
  StoreLE64(std::bit_cast<uint64_t>(v), out);
}

inline double LoadLEF64(const unsigned char* in) {
  return std::bit_cast<double>(LoadLE64(in));
}

// Append-style writers over a growable byte buffer (the serializers build
// the whole payload in memory, checksum it, then hand it to
// WriteFileAtomic in one shot).
inline void AppendLE32(std::string& out, uint32_t v) {
  unsigned char buf[4];
  StoreLE32(v, buf);
  out.append(reinterpret_cast<const char*>(buf), sizeof(buf));
}

inline void AppendLE64(std::string& out, uint64_t v) {
  unsigned char buf[8];
  StoreLE64(v, buf);
  out.append(reinterpret_cast<const char*>(buf), sizeof(buf));
}

inline void AppendLEF64(std::string& out, double v) {
  AppendLE64(out, std::bit_cast<uint64_t>(v));
}

}  // namespace geopriv::base

#endif  // GEOPRIV_BASE_ENDIAN_H_
