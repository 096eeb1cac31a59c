#include "bundle/loader.h"

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/stopwatch.h"
#include "core/msm.h"
#include "core/node_cache.h"
#include "geo/projection.h"
#include "mechanisms/optimal.h"
#include "prior/prior.h"
#include "spatial/hierarchical_grid.h"

namespace geopriv::bundle {

namespace {

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

}  // namespace

StatusOr<LoadedRegion> LoadRegion(const RegionBundleView& view,
                                  const RegionLoadOptions& options) {
  Stopwatch stopwatch;
  const ConfigImage& config = view.config();

  // Reconstruct the planar frame and cross-check it against the build
  // tier's: a bit-level domain mismatch means a different projection
  // implementation, which would silently shift every stored geometry.
  GEOPRIV_ASSIGN_OR_RETURN(
      const geo::EquirectangularProjection projection,
      geo::EquirectangularProjection::Create(config.min_lat, config.min_lon));
  const geo::Point ne = projection.Forward(config.max_lat, config.max_lon);
  const geo::BBox domain{0.0, 0.0, ne.x, ne.y};
  const geo::BBox stored{config.domain_min_x, config.domain_min_y,
                         config.domain_max_x, config.domain_max_y};
  if (!(domain == stored)) {
    return Status::FailedPrecondition(
        "'" + view.path() +
        "': this build's projection does not reproduce the bundle's "
        "planar domain; refusing to serve shifted geometry");
  }

  GEOPRIV_ASSIGN_OR_RETURN(
      prior::Prior prior,
      prior::Prior::FromMasses(
          domain, static_cast<int>(config.prior_granularity),
          std::vector<double>(view.prior_masses().begin(),
                              view.prior_masses().end())));
  GEOPRIV_ASSIGN_OR_RETURN(
      spatial::HierarchicalGrid grid,
      spatial::HierarchicalGrid::Create(
          domain, static_cast<int>(config.granularity),
          static_cast<int>(config.height)));
  auto index = std::make_shared<spatial::HierarchicalGrid>(std::move(grid));

  core::MsmOptions msm_options;
  // The stored per-level budgets are the allocation itself; kCustom
  // weights reproduce them (cold-node rebuilds then solve the same LPs
  // the build tier solved).
  msm_options.budget.policy = core::BudgetPolicy::kCustom;
  msm_options.budget.fixed_height = static_cast<int>(config.height);
  msm_options.budget.custom_weights.assign(view.level_budgets().begin(),
                                           view.level_budgets().end());
  msm_options.budget.rho = config.rho;
  msm_options.metric = static_cast<geo::UtilityMetric>(config.metric);
  msm_options.cache_byte_budget = options.cache_byte_budget;
  if (options.lp_time_limit_seconds > 0.0) {
    msm_options.opt.solver.time_limit_seconds =
        options.lp_time_limit_seconds;
  }
  GEOPRIV_ASSIGN_OR_RETURN(
      core::MultiStepMechanism msm,
      core::MultiStepMechanism::Create(
          config.eps, index,
          std::make_shared<prior::Prior>(std::move(prior)), msm_options));
  auto mechanism =
      std::make_unique<core::MultiStepMechanism>(std::move(msm));

  // Publish every solved mechanism as spans into the mapping. The backing
  // pin keeps the file mapped for as long as any mechanism (or a reader's
  // copy of one) is alive.
  const std::shared_ptr<const MappedFile> backing = view.backing();
  for (size_t i = 0; i < view.node_count(); ++i) {
    GEOPRIV_ASSIGN_OR_RETURN(const RegionBundleView::NodeView node,
                             view.node(i));
    // A mechanism published under the wrong node would be served with
    // another level's budget and another cell's candidates.
    if (node.node < 0 || node.node >= index->num_nodes() ||
        index->LevelOf(node.node) + 1 != node.level) {
      return Status::InvalidArgument(
          "'" + view.path() + "' stores node " + std::to_string(node.node) +
          " at the wrong index level");
    }
    // Serving reports the index's child centers, while audits measure
    // GeoInd on the stored locations: unless the two are the same points,
    // bit for bit, an audit can pass a matrix that is not private over
    // the cells it is served on.
    const std::vector<spatial::ChildInfo> children = index->Children(node.node);
    mechanisms::SolvedMechanismTables tables;
    tables.eps = node.eps_level;
    tables.metric = static_cast<geo::UtilityMetric>(config.metric);
    tables.objective = node.objective;
    tables.locations.reserve(node.n);
    for (int j = 0; j < node.n; ++j) {
      const geo::Point center = children[j].bounds.Center();
      if (!SameBits(node.locations_xy[2 * j], center.x) ||
          !SameBits(node.locations_xy[2 * j + 1], center.y)) {
        return Status::InvalidArgument(
            "'" + view.path() + "' node " + std::to_string(node.node) +
            " stores candidate locations that are not its cell's child "
            "centers");
      }
      tables.locations.push_back(center);
    }
    tables.prior.assign(node.prior.begin(), node.prior.end());
    tables.k = node.k;
    tables.alias_prob = node.alias_prob;
    tables.alias_alias = node.alias_alias;
    tables.alias_normalized = node.alias_normalized;
    GEOPRIV_ASSIGN_OR_RETURN(
        mechanisms::OptimalMechanism mech,
        mechanisms::OptimalMechanism::FromSolved(std::move(tables), backing));
    GEOPRIV_RETURN_IF_ERROR(mechanism->cache().Publish(
        node.node, std::make_shared<const mechanisms::OptimalMechanism>(
                       std::move(mech))));
  }

  // Rebuild the serving plan over the published set so first traffic
  // walks the lock-free path immediately.
  const uint64_t plan_nodes = mechanism->serving_plan_nodes();

  LoadedRegion loaded{
      core::LocationSanitizer::FromParts(
          projection, domain, std::move(mechanism), options.seed,
          static_cast<int>(config.granularity), config.eps),
      view.node_count(), plan_nodes, view.bytes_mapped(),
      stopwatch.ElapsedSeconds()};
  return loaded;
}

}  // namespace geopriv::bundle
