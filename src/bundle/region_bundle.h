// Serialization and zero-copy deserialization of region bundles (see
// format.h for the byte layout). BundleImageWriter assembles a complete
// file image (header + TOC + aligned, checksummed sections) in memory;
// RegionBundleView validates a mapped file and exposes typed spans into
// it. Neither knows how to *build* a region (builder.h) or turn a view
// into a serving mechanism (loader.h).

#ifndef GEOPRIV_BUNDLE_REGION_BUNDLE_H_
#define GEOPRIV_BUNDLE_REGION_BUNDLE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "base/status.h"
#include "bundle/format.h"
#include "bundle/mapped_file.h"

namespace geopriv::bundle {

// Accumulates sections and emits the final file image. Sections appear in
// the TOC (and the file) in AddSection order.
class BundleImageWriter {
 public:
  void AddSection(SectionId id, std::string bytes);
  // Header + TOC + sections, checksums filled in. The writer is spent
  // afterwards.
  std::string Finish();

 private:
  struct Pending {
    uint32_t id;
    std::string bytes;
  };
  std::vector<Pending> sections_;
};

// Validated, typed view over a mapped region bundle. Copyable; every copy
// shares the mapping. All spans returned point into the mapping and stay
// valid for as long as any copy of the view (or the backing() pointer
// handed to a mechanism) is alive.
class RegionBundleView {
 public:
  // Maps and validates `path`: magic, endian sentinel, version (exactly
  // kVersion), header checksum, file size, TOC bounds/alignment, every
  // section checksum (XXH64 over every byte of every section),
  // config decode (eps finite and positive), budgets (each finite and
  // positive, summing to eps), the node directory (n = granularity^2),
  // and cross-section size consistency. Requires a little-endian LP64
  // host — the zero-copy node tables are reinterpreted in place.
  static StatusOr<RegionBundleView> Open(const std::string& path);

  const ConfigImage& config() const { return config_; }
  const std::string& path() const { return backing_->path(); }
  uint64_t bytes_mapped() const { return backing_->size(); }
  std::shared_ptr<const MappedFile> backing() const { return backing_; }
  const std::vector<SectionEntry>& sections() const { return sections_; }

  // Per-level budgets (height entries) and prior masses (g^2 entries).
  std::span<const double> level_budgets() const { return budgets_; }
  std::span<const double> prior_masses() const { return prior_; }

  size_t node_count() const { return nodes_.size(); }
  const NodeDirEntry& node_entry(size_t i) const { return nodes_[i]; }

  // Typed spans into one node's solved tables. Fails when the blob
  // disagrees with its directory entry, when its level eps disagrees with
  // the stored level budget, or when an alias index points past n.
  struct NodeView {
    int64_t node = 0;
    int level = 0;
    int n = 0;
    double eps_level = 0.0;
    double objective = 0.0;
    std::span<const double> locations_xy;  // 2n, x/y interleaved
    std::span<const double> prior;         // n
    std::span<const double> k;             // n*n
    std::span<const double> alias_prob;    // n*n
    std::span<const size_t> alias_alias;   // n*n
    std::span<const double> alias_normalized;  // n*n
  };
  StatusOr<NodeView> node(size_t i) const;

 private:
  RegionBundleView() = default;

  Status Parse();
  const SectionEntry* FindSection(uint32_t id) const;
  Status ParseConfig();
  Status ParseBudgets();
  Status ParsePrior();
  Status ParseNodes();

  std::shared_ptr<const MappedFile> backing_;
  std::vector<SectionEntry> sections_;
  ConfigImage config_;
  std::span<const double> budgets_;
  std::span<const double> prior_;
  std::vector<NodeDirEntry> nodes_;
  const unsigned char* nodes_base_ = nullptr;  // kNodes section start
  uint64_t nodes_size_ = 0;
};

}  // namespace geopriv::bundle

#endif  // GEOPRIV_BUNDLE_REGION_BUNDLE_H_
