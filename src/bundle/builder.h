// Build tier of the build/serve split: constructs a region (prior, index,
// budget split), pre-solves its per-node LPs, and serializes
// everything — including the solved mechanisms — into a region
// bundle. A serving process then mmaps the file and registers the region
// in milliseconds with zero LP solves (loader.h), instead of re-paying
// minutes of solver time on every cold start.

#ifndef GEOPRIV_BUNDLE_BUILDER_H_
#define GEOPRIV_BUNDLE_BUILDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"
#include "core/location_sanitizer.h"
#include "geo/distance.h"

namespace geopriv::bundle {

// Region parameters, mirroring the service's RegionConfig (the bundle
// layer sits below the service and must not depend on it).
struct RegionSpec {
  // Study region as a lat/lon box (south-west / north-east corners).
  double min_lat = 0.0, min_lon = 0.0, max_lat = 0.0, max_lon = 0.0;
  double eps = 0.0;
  int granularity = 4;
  double rho = 0.8;
  int prior_granularity = 128;
  // Historical check-ins shaping the prior; empty = uniform.
  std::vector<core::LatLon> checkins;
  geo::UtilityMetric metric = geo::UtilityMetric::kEuclidean;
};

struct BuildBundleOptions {
  // Internal nodes to pre-solve, best-first by prior mass (ancestors
  // always included); <= 0 warms every internal node. Only warm nodes are
  // serialized — a node left cold is rebuilt deterministically by the
  // serving tier on first touch.
  int prewarm_nodes = 0;
  // Wall-clock cap per node LP solve (0 = unlimited).
  double lp_time_limit_seconds = 0.0;
};

struct BuildBundleResult {
  uint64_t nodes = 0;  // solved mechanisms serialized
  uint64_t bytes = 0;  // final file size
  double build_seconds = 0.0;  // total wall clock, solves included
  double lp_seconds = 0.0;     // solver share
  int64_t lp_solves = 0;
};

// Builds the region from scratch and writes the bundle to `path`
// (crash-atomically: temp file + fsync + rename).
StatusOr<BuildBundleResult> BuildRegionBundle(const RegionSpec& spec,
                                              const BuildBundleOptions& options,
                                              const std::string& path);

// Serializes an existing sanitizer's warm state (whatever its cache holds
// right now) to `path`. `spec` must be the configuration the sanitizer
// was built from — the lat/lon box and parameters go into the bundle's
// config section verbatim; the domain, budgets, and prior are taken from
// the sanitizer itself. A sanitizer that has solved nothing yields the
// paper's offline client bundle (Section 3.1): config, budgets, and prior
// with no node section, which LoadRegion serves by solving each node on
// first touch.
StatusOr<BuildBundleResult> WriteRegionBundle(
    const core::LocationSanitizer& sanitizer, const RegionSpec& spec,
    const std::string& path);

}  // namespace geopriv::bundle

#endif  // GEOPRIV_BUNDLE_BUILDER_H_
