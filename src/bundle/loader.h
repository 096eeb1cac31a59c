// Serve tier of the build/serve split: turns a mapped region bundle
// into a ready LocationSanitizer with zero LP solves. Every solved node
// mechanism is rehydrated as spans into the mapping (the dense K and the
// alias tables are never copied; the mapping is pinned by each mechanism)
// and published into the node cache, then the serving plan is rebuilt
// over the published set. A node the bundle does not carry is solved
// deterministically on first touch, exactly as a scratch-built region
// would — so a client bundle (no node section) loads as a region whose
// every node is cold.

#ifndef GEOPRIV_BUNDLE_LOADER_H_
#define GEOPRIV_BUNDLE_LOADER_H_

#include <cstdint>

#include "base/status.h"
#include "bundle/region_bundle.h"
#include "core/location_sanitizer.h"

namespace geopriv::bundle {

struct RegionLoadOptions {
  // Serving-side parameters — deployment configuration, not bundle
  // content (the same bundle can serve under any seed or cache budget).
  uint64_t seed = 0x5EED5EED5EEDull;
  size_t cache_byte_budget = 0;  // 0 = unbounded
  double lp_time_limit_seconds = 0.0;  // for cold-node rebuilds
};

struct LoadedRegion {
  core::LocationSanitizer sanitizer;
  uint64_t nodes_loaded = 0;  // mechanisms published from the bundle
  uint64_t plan_nodes = 0;    // serving-plan nodes warm after load
  uint64_t bytes_mapped = 0;
  double load_seconds = 0.0;  // map-to-serving wall clock (excludes Open)
};

// Rehydrates the region. The view's mapping stays pinned by the returned
// sanitizer's mechanisms for as long as any of them lives.
StatusOr<LoadedRegion> LoadRegion(const RegionBundleView& view,
                                  const RegionLoadOptions& options = {});

}  // namespace geopriv::bundle

#endif  // GEOPRIV_BUNDLE_LOADER_H_
