// On-disk layout of the region bundle (magic "GPB2", format version 3),
// the one on-disk format. A build-tier process solves a region's
// per-node LPs once and serializes the solved mechanisms (dense K, alias
// tables), the annotated prior, and the budget split into one sectioned
// file; a serving process mmaps it read-only and registers the region
// with zero LP solves and zero table copies (the mechanism matrices are
// spans into the mapping). The paper's offline client bundle (Section
// 3.1) is the same file without a kNodes section: region, index
// parameters, budget split, and prior, with every node LP solved lazily
// on first touch.
//
//   header (64 bytes)
//     magic "GPB2" | endian sentinel u32 (0x01020304) | version u32 (3) |
//     section_count u32 | file_size u64 | toc_offset u64 (= 64) |
//     header checksum u64 (XXH64 over the preceding 32 bytes) | zero pad
//   TOC at toc_offset: section_count entries, 32 bytes each
//     id u32 | reserved u32 (0) | offset u64 | size u64 |
//     checksum u64 (XXH64 over the section's bytes)
//   sections, each 64-byte aligned (zero-padded between)
//
// Readers accept exactly kVersion: a file of any other version is refused
// before its checksum is read and must be rebuilt with
// `geopriv_bundle build`.
//
// Sections (ids below; unknown ids are ignored by readers, so the format
// is forward-extensible):
//   kConfig   region geometry + parameters (fixed 112 bytes, see
//             ConfigImage)
//   kBudgets  u32 height | u32 pad | f64 per-level budgets[height]
//   kPrior    u32 granularity g | u32 pad | f64 masses[g*g]
//   kNodes    u64 count | count NodeDirEntry (32 bytes each) | per-node
//             blobs, each 64-byte aligned at its directory offset
//             (relative to the section start):
//               f64 level-eps | f64 objective | u64 n | u64 reserved |
//               f64 locations[2n] (x,y interleaved) | f64 prior[n] |
//               f64 k[n*n] | f64 alias_prob[n*n] | u64 alias_alias[n*n] |
//               f64 alias_normalized[n*n]
//             A node's locations must be, bit for bit, the centers of
//             its index cell's children in index order (the loader
//             checks): serving reports those centers, and audits measure
//             GeoInd on the stored ones.
//   id 5 is reserved; never reuse it.
//
// Every multi-byte field is little-endian. The zero-copy read path
// reinterprets mapped bytes as host arrays, so it additionally requires a
// little-endian LP64 host (checked at Open; other hosts get a clear
// kUnimplemented, never a misparse). All array starts are 8-byte aligned
// by construction (64-aligned sections, 8-multiple prefixes before every
// wide array).

#ifndef GEOPRIV_BUNDLE_FORMAT_H_
#define GEOPRIV_BUNDLE_FORMAT_H_

#include <cstddef>
#include <cstdint>

namespace geopriv::bundle {

inline constexpr char kMagic[4] = {'G', 'P', 'B', '2'};
inline constexpr uint32_t kVersion = 3;
inline constexpr size_t kHeaderBytes = 64;
inline constexpr size_t kTocEntryBytes = 32;
inline constexpr size_t kSectionAlign = 64;

// Section ids. Values are part of the format; never renumber or reuse
// (5 is reserved, see the layout above).
enum SectionId : uint32_t {
  kConfig = 1,
  kBudgets = 2,
  kPrior = 3,
  kNodes = 4,
};

// Decoded TOC entry.
struct SectionEntry {
  uint32_t id = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint64_t checksum = 0;
};

// Decoded kConfig section. Field order in the file: the ten f64s, then
// the four u32s, then node_count, then a reserved u64 (112 bytes total).
// The reserved u64 is written as 0 and ignored by readers.
struct ConfigImage {
  double min_lat = 0.0, min_lon = 0.0, max_lat = 0.0, max_lon = 0.0;
  double eps = 0.0;
  double rho = 0.0;
  // Planar km frame derived from the lat/lon box; stored so a loader can
  // cross-check its projection reproduces the build tier's domain bit for
  // bit (a mismatch means a different projection implementation and would
  // silently shift every reported point).
  double domain_min_x = 0.0, domain_min_y = 0.0;
  double domain_max_x = 0.0, domain_max_y = 0.0;
  uint32_t granularity = 0;
  uint32_t prior_granularity = 0;
  uint32_t metric = 0;  // geo::UtilityMetric enumerator value
  uint32_t height = 0;
  uint64_t node_count = 0;  // solved mechanisms in kNodes
};
inline constexpr size_t kConfigImageBytes = 112;

// Directory entry inside the kNodes section.
struct NodeDirEntry {
  int64_t node = 0;     // spatial::NodeIndex
  uint32_t level = 0;   // depth + 1 (budget index of the node's children)
  uint32_t n = 0;       // candidate count (children of the node)
  uint64_t offset = 0;  // blob start, relative to the section start
  uint64_t size = 0;    // blob bytes
};
inline constexpr size_t kNodeDirEntryBytes = 32;
inline constexpr size_t kNodeBlobHeaderBytes = 32;

// Blob bytes for a solved node with n candidates.
inline constexpr uint64_t NodeBlobBytes(uint64_t n) {
  return kNodeBlobHeaderBytes + 8 * (2 * n + n) + 4 * 8 * n * n;
}

// XXH64 with seed 0 (xxh64.cc), for the header and section checksums.
uint64_t Xxh64(const void* data, size_t size);

inline constexpr size_t AlignUp(size_t v, size_t align) {
  return (v + align - 1) / align * align;
}

}  // namespace geopriv::bundle

#endif  // GEOPRIV_BUNDLE_FORMAT_H_
