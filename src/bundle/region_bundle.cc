#include "bundle/region_bundle.h"

#include <cmath>
#include <cstring>

#include "base/endian.h"

namespace geopriv::bundle {

namespace {

uint32_t ReadU32(const unsigned char* p) { return base::LoadLE32(p); }
uint64_t ReadU64(const unsigned char* p) { return base::LoadLE64(p); }
double ReadF64(const unsigned char* p) {
  double v;
  const uint64_t bits = base::LoadLE64(p);
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Typed span over mapped bytes. On the (enforced) little-endian LP64 host
// the file bytes are the host representation; alignment holds because
// sections are 64-aligned and every wide array sits at an 8-multiple
// offset within its section.
template <typename T>
std::span<const T> TypedSpan(const unsigned char* p, size_t count) {
  return {reinterpret_cast<const T*>(p), count};
}

// Tolerance for stored budgets against the eps they split: budgets must
// sum to eps (sequential composition), and each node's eps to its level
// budget.
bool BudgetMatches(double got, double want) {
  return std::abs(got - want) <= 1e-6 * (1.0 + want);
}

}  // namespace

void BundleImageWriter::AddSection(SectionId id, std::string bytes) {
  sections_.push_back({static_cast<uint32_t>(id), std::move(bytes)});
}

std::string BundleImageWriter::Finish() {
  const size_t count = sections_.size();
  const size_t toc_offset = kHeaderBytes;
  size_t cursor = AlignUp(toc_offset + count * kTocEntryBytes, kSectionAlign);
  std::vector<uint64_t> offsets(count);
  for (size_t i = 0; i < count; ++i) {
    offsets[i] = cursor;
    cursor = AlignUp(cursor + sections_[i].bytes.size(), kSectionAlign);
  }
  // The file ends exactly where the last section ends (no trailing pad).
  const uint64_t file_size =
      count == 0 ? cursor
                 : offsets[count - 1] + sections_[count - 1].bytes.size();

  std::string image;
  image.reserve(file_size);
  image.append(kMagic, sizeof(kMagic));
  base::AppendLE32(image, base::kEndianSentinel);
  base::AppendLE32(image, kVersion);
  base::AppendLE32(image, static_cast<uint32_t>(count));
  base::AppendLE64(image, file_size);
  base::AppendLE64(image, toc_offset);
  base::AppendLE64(image, Xxh64(image.data(), image.size()));
  image.resize(kHeaderBytes, '\0');

  for (size_t i = 0; i < count; ++i) {
    base::AppendLE32(image, sections_[i].id);
    base::AppendLE32(image, 0);  // reserved
    base::AppendLE64(image, offsets[i]);
    base::AppendLE64(image, sections_[i].bytes.size());
    base::AppendLE64(
        image, Xxh64(sections_[i].bytes.data(), sections_[i].bytes.size()));
  }
  for (size_t i = 0; i < count; ++i) {
    image.resize(offsets[i], '\0');  // inter-section alignment pad
    image.append(sections_[i].bytes);
  }
  sections_.clear();
  return image;
}

StatusOr<RegionBundleView> RegionBundleView::Open(const std::string& path) {
  if (!base::kLittleEndianHost || sizeof(size_t) != 8) {
    return Status::Unimplemented(
        "region bundles are served zero-copy and require a little-endian "
        "LP64 host");
  }
  RegionBundleView view;
  GEOPRIV_ASSIGN_OR_RETURN(view.backing_, MappedFile::Open(path));
  GEOPRIV_RETURN_IF_ERROR(view.Parse());
  return view;
}

Status RegionBundleView::Parse() {
  const unsigned char* data = backing_->data();
  const size_t size = backing_->size();
  const std::string& path = backing_->path();
  if (size < kHeaderBytes) {
    return Status::InvalidArgument("'" + path +
                                   "' is too small to be a region bundle");
  }
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("'" + path + "' is not a region bundle");
  }
  const uint32_t sentinel = ReadU32(data + 4);
  if (sentinel != base::kEndianSentinel) {
    if (sentinel == base::kEndianSentinelSwapped) {
      return Status::InvalidArgument(
          "'" + path +
          "' is byte-swapped (written big-endian against the little-endian "
          "contract)");
    }
    return Status::InvalidArgument("'" + path +
                                   "' has a corrupt byte-order sentinel");
  }
  // Before the checksum: a version-2 file's checksums are FNV-1a, which
  // this build no longer computes, so it would read as corrupt.
  const uint32_t version = ReadU32(data + 8);
  if (version != kVersion) {
    return Status::InvalidArgument(
        "'" + path + "' is a region bundle of format version " +
        std::to_string(version) + "; this build reads only version " +
        std::to_string(kVersion) +
        ". Rebuild it from its spec with `geopriv_bundle build`.");
  }
  if (ReadU64(data + 32) != Xxh64(data, 32)) {
    return Status::InvalidArgument("'" + path +
                                   "' has a corrupt header (checksum)");
  }
  const uint32_t section_count = ReadU32(data + 12);
  const uint64_t file_size = ReadU64(data + 16);
  const uint64_t toc_offset = ReadU64(data + 24);
  if (file_size != size) {
    return Status::InvalidArgument(
        "'" + path + "' is truncated: header says " +
        std::to_string(file_size) + " bytes, file has " +
        std::to_string(size));
  }
  if (toc_offset != kHeaderBytes ||
      toc_offset + static_cast<uint64_t>(section_count) * kTocEntryBytes >
          size) {
    return Status::InvalidArgument("'" + path + "' has a corrupt TOC");
  }

  sections_.reserve(section_count);
  for (uint32_t i = 0; i < section_count; ++i) {
    const unsigned char* e = data + toc_offset + i * kTocEntryBytes;
    SectionEntry entry;
    entry.id = ReadU32(e);
    entry.offset = ReadU64(e + 8);
    entry.size = ReadU64(e + 16);
    entry.checksum = ReadU64(e + 24);
    if (entry.offset % kSectionAlign != 0 || entry.offset > size ||
        entry.size > size - entry.offset) {
      return Status::InvalidArgument(
          "'" + path + "' section " + std::to_string(entry.id) +
          " is out of bounds or misaligned");
    }
    if (Xxh64(data + entry.offset, entry.size) != entry.checksum) {
      return Status::InvalidArgument(
          "'" + path + "' section " + std::to_string(entry.id) +
          " is corrupt (checksum mismatch)");
    }
    sections_.push_back(entry);
  }

  GEOPRIV_RETURN_IF_ERROR(ParseConfig());
  GEOPRIV_RETURN_IF_ERROR(ParseBudgets());
  GEOPRIV_RETURN_IF_ERROR(ParsePrior());
  return ParseNodes();
}

const SectionEntry* RegionBundleView::FindSection(uint32_t id) const {
  for (const SectionEntry& entry : sections_) {
    if (entry.id == id) return &entry;
  }
  return nullptr;
}

Status RegionBundleView::ParseConfig() {
  const SectionEntry* entry = FindSection(kConfig);
  if (entry == nullptr || entry->size != kConfigImageBytes) {
    return Status::InvalidArgument("'" + backing_->path() +
                                   "' has no valid config section");
  }
  const unsigned char* p = backing_->data() + entry->offset;
  double* const f64s[] = {
      &config_.min_lat,      &config_.min_lon,      &config_.max_lat,
      &config_.max_lon,      &config_.eps,          &config_.rho,
      &config_.domain_min_x, &config_.domain_min_y, &config_.domain_max_x,
      &config_.domain_max_y,
  };
  for (double* f : f64s) {
    *f = ReadF64(p);
    p += 8;
  }
  config_.granularity = ReadU32(p);
  config_.prior_granularity = ReadU32(p + 4);
  config_.metric = ReadU32(p + 8);
  config_.height = ReadU32(p + 12);
  config_.node_count = ReadU64(p + 16);
  if (!std::isfinite(config_.eps) || !(config_.eps > 0.0)) {
    return Status::InvalidArgument("'" + backing_->path() +
                                   "' config eps is not a positive number");
  }
  if (config_.granularity < 2 || config_.granularity > 64 ||
      config_.height < 1 || config_.height > 20 ||
      config_.prior_granularity < 1 || config_.prior_granularity > 4096 ||
      config_.metric > 1) {
    return Status::InvalidArgument("'" + backing_->path() +
                                   "' config has out-of-range parameters");
  }
  return Status::OK();
}

Status RegionBundleView::ParseBudgets() {
  const SectionEntry* entry = FindSection(kBudgets);
  if (entry == nullptr ||
      entry->size != 8 + 8 * static_cast<uint64_t>(config_.height)) {
    return Status::InvalidArgument("'" + backing_->path() +
                                   "' has no valid budgets section");
  }
  const unsigned char* p = backing_->data() + entry->offset;
  if (ReadU32(p) != config_.height) {
    return Status::InvalidArgument(
        "'" + backing_->path() +
        "' budgets section disagrees with config height");
  }
  budgets_ = TypedSpan<double>(p + 8, config_.height);
  double total = 0.0;
  for (const double b : budgets_) {
    if (!std::isfinite(b) || !(b > 0.0)) {
      return Status::InvalidArgument(
          "'" + backing_->path() +
          "' has a level budget that is not a positive number");
    }
    total += b;
  }
  if (!BudgetMatches(total, config_.eps)) {
    return Status::InvalidArgument("'" + backing_->path() +
                                   "' level budgets do not sum to eps");
  }
  return Status::OK();
}

Status RegionBundleView::ParsePrior() {
  const SectionEntry* entry = FindSection(kPrior);
  const uint64_t g = config_.prior_granularity;
  if (entry == nullptr || entry->size != 8 + 8 * g * g) {
    return Status::InvalidArgument("'" + backing_->path() +
                                   "' has no valid prior section");
  }
  const unsigned char* p = backing_->data() + entry->offset;
  if (ReadU32(p) != g) {
    return Status::InvalidArgument(
        "'" + backing_->path() +
        "' prior section disagrees with config granularity");
  }
  prior_ = TypedSpan<double>(p + 8, g * g);
  return Status::OK();
}

Status RegionBundleView::ParseNodes() {
  const SectionEntry* entry = FindSection(kNodes);
  if (entry == nullptr) {
    if (config_.node_count != 0) {
      return Status::InvalidArgument(
          "'" + backing_->path() +
          "' config promises solved nodes but has no node section");
    }
    return Status::OK();
  }
  const unsigned char* p = backing_->data() + entry->offset;
  if (entry->size < 8 || ReadU64(p) != config_.node_count) {
    return Status::InvalidArgument(
        "'" + backing_->path() +
        "' node section disagrees with config node count");
  }
  const uint64_t count = config_.node_count;
  const uint64_t dir_end = 8 + count * kNodeDirEntryBytes;
  if (entry->size < dir_end) {
    return Status::InvalidArgument("'" + backing_->path() +
                                   "' node directory is truncated");
  }
  nodes_base_ = p;
  nodes_size_ = entry->size;
  const uint32_t fanout = config_.granularity * config_.granularity;
  nodes_.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    const unsigned char* e = p + 8 + i * kNodeDirEntryBytes;
    NodeDirEntry node;
    node.node = static_cast<int64_t>(ReadU64(e));
    node.level = ReadU32(e + 8);
    node.n = ReadU32(e + 12);
    node.offset = ReadU64(e + 16);
    node.size = ReadU64(e + 24);
    if (node.n != fanout || node.level < 1 || node.level > config_.height ||
        node.offset % 8 != 0 || node.offset > nodes_size_ ||
        node.size > nodes_size_ - node.offset ||
        node.size != NodeBlobBytes(node.n)) {
      return Status::InvalidArgument(
          "'" + backing_->path() + "' node directory entry " +
          std::to_string(i) + " is corrupt");
    }
    nodes_.push_back(node);
  }
  return Status::OK();
}

StatusOr<RegionBundleView::NodeView> RegionBundleView::node(size_t i) const {
  if (i >= nodes_.size()) {
    return Status::OutOfRange("node index out of range");
  }
  const NodeDirEntry& entry = nodes_[i];
  const unsigned char* p = nodes_base_ + entry.offset;
  NodeView view;
  view.node = entry.node;
  view.level = static_cast<int>(entry.level);
  view.n = static_cast<int>(entry.n);
  view.eps_level = ReadF64(p);
  view.objective = ReadF64(p + 8);
  if (ReadU64(p + 16) != entry.n) {
    return Status::InvalidArgument(
        "'" + backing_->path() + "' node blob " + std::to_string(i) +
        " disagrees with its directory entry");
  }
  const size_t n = entry.n;
  const size_t nn = n * n;
  const unsigned char* c = p + kNodeBlobHeaderBytes;
  view.locations_xy = TypedSpan<double>(c, 2 * n);
  c += 8 * 2 * n;
  view.prior = TypedSpan<double>(c, n);
  c += 8 * n;
  view.k = TypedSpan<double>(c, nn);
  c += 8 * nn;
  view.alias_prob = TypedSpan<double>(c, nn);
  c += 8 * nn;
  view.alias_alias = TypedSpan<size_t>(c, nn);
  c += 8 * nn;
  view.alias_normalized = TypedSpan<double>(c, nn);
  if (!BudgetMatches(view.eps_level, budgets_[entry.level - 1])) {
    return Status::InvalidArgument(
        "'" + backing_->path() + "' node blob " + std::to_string(i) +
        " was solved at an eps that is not its level budget");
  }
  for (const size_t alias : view.alias_alias) {
    if (alias >= n) {
      return Status::InvalidArgument(
          "'" + backing_->path() + "' node blob " + std::to_string(i) +
          " has an alias index out of range");
    }
  }
  return view;
}

}  // namespace geopriv::bundle
