#include "bundle/builder.h"

#include <cstring>
#include <deque>
#include <limits>
#include <utility>

#include "base/endian.h"
#include "base/atomic_file.h"
#include "base/stopwatch.h"
#include "bundle/format.h"
#include "bundle/region_bundle.h"
#include "core/msm.h"
#include "core/node_cache.h"
#include "rng/alias_sampler.h"
#include "spatial/hierarchical_partition.h"

namespace geopriv::bundle {

namespace {

// Bulk little-endian append. The builder (like the zero-copy reader) runs
// on a little-endian host only, where the in-memory representation is the
// wire representation.
void AppendF64Span(std::string& out, std::span<const double> v) {
  out.append(reinterpret_cast<const char*>(v.data()), v.size_bytes());
}
void AppendU64Span(std::string& out, std::span<const size_t> v) {
  out.append(reinterpret_cast<const char*>(v.data()), v.size_bytes());
}

std::string ConfigSection(const RegionSpec& spec, const geo::BBox& domain,
                          uint32_t height, uint64_t node_count) {
  std::string out;
  for (double f : {spec.min_lat, spec.min_lon, spec.max_lat, spec.max_lon,
                   spec.eps, spec.rho, domain.min_x, domain.min_y,
                   domain.max_x, domain.max_y}) {
    base::AppendLEF64(out, f);
  }
  base::AppendLE32(out, static_cast<uint32_t>(spec.granularity));
  base::AppendLE32(out, static_cast<uint32_t>(spec.prior_granularity));
  base::AppendLE32(out, static_cast<uint32_t>(spec.metric));
  base::AppendLE32(out, height);
  base::AppendLE64(out, node_count);
  base::AppendLE64(out, 0);  // reserved
  return out;
}

std::string BudgetsSection(const std::vector<double>& per_level) {
  std::string out;
  base::AppendLE32(out, static_cast<uint32_t>(per_level.size()));
  base::AppendLE32(out, 0);  // pad to 8
  AppendF64Span(out, per_level);
  return out;
}

std::string PriorSection(const prior::Prior& prior) {
  std::string out;
  const int g = prior.grid().granularity();
  base::AppendLE32(out, static_cast<uint32_t>(g));
  base::AppendLE32(out, 0);  // pad to 8
  for (int i = 0; i < g * g; ++i) base::AppendLEF64(out, prior.mass(i));
  return out;
}

// A warm node picked up by the BFS over the resident subtree.
struct WarmNode {
  spatial::NodeIndex node;
  int level;  // depth + 1
  core::NodeMechanismCache::MechanismPtr mech;
};

// Warm internal nodes in deterministic BFS order. Expansion only descends
// through warm nodes: PrewarmTopNodes keeps the warm set ancestor-closed,
// so nothing below a cold node can be warm.
std::vector<WarmNode> CollectWarmNodes(const core::MultiStepMechanism& msm) {
  std::vector<WarmNode> warm;
  auto& cache = const_cast<core::MultiStepMechanism&>(msm).cache();
  const spatial::HierarchicalPartition& index = msm.index();
  std::deque<std::pair<spatial::NodeIndex, int>> frontier;
  frontier.push_back({spatial::HierarchicalPartition::kRoot, 1});
  while (!frontier.empty()) {
    const auto [node, level] = frontier.front();
    frontier.pop_front();
    core::NodeMechanismCache::MechanismPtr mech = cache.TryGet(node);
    if (mech == nullptr) continue;
    warm.push_back({node, level, std::move(mech)});
    if (level >= msm.height()) continue;  // children are leaves
    for (const spatial::ChildInfo& child : index.Children(node)) {
      if (!index.IsLeaf(child.id)) {
        frontier.push_back({child.id, level + 1});
      }
    }
  }
  return warm;
}

std::string NodesSection(const std::vector<WarmNode>& warm) {
  std::string out;
  base::AppendLE64(out, warm.size());
  // Directory first; blob offsets are assigned 64-aligned after it.
  uint64_t cursor = AlignUp(8 + warm.size() * kNodeDirEntryBytes,
                            kSectionAlign);
  for (const WarmNode& w : warm) {
    const uint64_t n = static_cast<uint64_t>(w.mech->num_locations());
    base::AppendLE64(out, static_cast<uint64_t>(w.node));
    base::AppendLE32(out, static_cast<uint32_t>(w.level));
    base::AppendLE32(out, static_cast<uint32_t>(n));
    base::AppendLE64(out, cursor);
    base::AppendLE64(out, NodeBlobBytes(n));
    cursor = AlignUp(cursor + NodeBlobBytes(n), kSectionAlign);
  }
  for (const WarmNode& w : warm) {
    out.resize(AlignUp(out.size(), kSectionAlign), '\0');
    const auto& mech = *w.mech;
    const int n = mech.num_locations();
    base::AppendLEF64(out, mech.eps());
    base::AppendLEF64(out, mech.ExpectedLoss());
    base::AppendLE64(out, static_cast<uint64_t>(n));
    base::AppendLE64(out, 0);  // reserved
    for (int i = 0; i < n; ++i) {
      base::AppendLEF64(out, mech.location(i).x);
      base::AppendLEF64(out, mech.location(i).y);
    }
    for (int i = 0; i < n; ++i) base::AppendLEF64(out, mech.prior(i));
    AppendF64Span(out, mech.k_table());
    for (int x = 0; x < n; ++x) {
      AppendF64Span(out, mech.row_sampler(x).prob_table());
    }
    for (int x = 0; x < n; ++x) {
      AppendU64Span(out, mech.row_sampler(x).alias_table());
    }
    for (int x = 0; x < n; ++x) {
      AppendF64Span(out, mech.row_sampler(x).normalized_table());
    }
  }
  return out;
}

Status ValidateSpec(const RegionSpec& spec) {
  if (!(spec.max_lat > spec.min_lat) || !(spec.max_lon > spec.min_lon)) {
    return Status::InvalidArgument("region lat/lon box must have area");
  }
  if (!(spec.eps > 0.0)) {
    return Status::InvalidArgument("region eps must be positive");
  }
  return Status::OK();
}

}  // namespace

StatusOr<BuildBundleResult> WriteRegionBundle(
    const core::LocationSanitizer& sanitizer, const RegionSpec& spec,
    const std::string& path) {
  if (!base::kLittleEndianHost || sizeof(size_t) != 8) {
    return Status::Unimplemented(
        "region bundles require a little-endian LP64 host");
  }
  GEOPRIV_RETURN_IF_ERROR(ValidateSpec(spec));
  Stopwatch stopwatch;
  const core::MultiStepMechanism& msm = sanitizer.mechanism();

  const std::vector<WarmNode> warm = CollectWarmNodes(msm);

  BundleImageWriter writer;
  writer.AddSection(kConfig, ConfigSection(spec, sanitizer.domain_km(),
                                           static_cast<uint32_t>(msm.height()),
                                           warm.size()));
  writer.AddSection(kBudgets, BudgetsSection(msm.budget().per_level));
  writer.AddSection(kPrior, PriorSection(msm.prior()));
  if (!warm.empty()) {
    writer.AddSection(kNodes, NodesSection(warm));
  }
  const std::string image = writer.Finish();
  GEOPRIV_RETURN_IF_ERROR(base::WriteFileAtomic(path, image));

  const core::MsmStats stats = msm.stats();
  BuildBundleResult result;
  result.nodes = warm.size();
  result.bytes = image.size();
  result.build_seconds = stopwatch.ElapsedSeconds();
  result.lp_seconds = stats.lp_seconds;
  result.lp_solves = stats.lp_solves;
  return result;
}

StatusOr<BuildBundleResult> BuildRegionBundle(const RegionSpec& spec,
                                              const BuildBundleOptions& options,
                                              const std::string& path) {
  if (!base::kLittleEndianHost || sizeof(size_t) != 8) {
    return Status::Unimplemented(
        "region bundles require a little-endian LP64 host");
  }
  GEOPRIV_RETURN_IF_ERROR(ValidateSpec(spec));
  Stopwatch stopwatch;
  core::LocationSanitizer::Builder builder;
  builder.SetRegionLatLon(spec.min_lat, spec.min_lon, spec.max_lat,
                          spec.max_lon)
      .SetEpsilon(spec.eps)
      .SetGranularity(spec.granularity)
      .SetRho(spec.rho)
      .SetPriorGranularity(spec.prior_granularity)
      .SetUtilityMetric(spec.metric);
  if (!spec.checkins.empty()) builder.AddCheckinsLatLon(spec.checkins);
  if (options.lp_time_limit_seconds > 0.0) {
    builder.SetLpTimeLimitSeconds(options.lp_time_limit_seconds);
  }
  GEOPRIV_ASSIGN_OR_RETURN(core::LocationSanitizer sanitizer,
                           builder.Build());

  const int k = options.prewarm_nodes > 0 ? options.prewarm_nodes
                                          : std::numeric_limits<int>::max();
  GEOPRIV_RETURN_IF_ERROR(
      sanitizer.PrewarmTopNodes(k).status());

  GEOPRIV_ASSIGN_OR_RETURN(BuildBundleResult result,
                           WriteRegionBundle(sanitizer, spec, path));
  result.build_seconds = stopwatch.ElapsedSeconds();
  return result;
}

}  // namespace geopriv::bundle
