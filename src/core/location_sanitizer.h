// High-level facade: everything a location-based app needs to sanitize
// coordinates on-device with geo-indistinguishability.
//
//   auto sanitizer = LocationSanitizer::Builder()
//                        .SetRegionLatLon(30.1927, -97.8698,
//                                         30.3723, -97.6618)
//                        .SetEpsilon(0.5)
//                        .AddCheckinsLatLon(history)   // optional prior
//                        .Build();
//   auto [lat, lon] = sanitizer->SanitizeLatLon(30.27, -97.74);
//
// Internally: WGS84 -> planar km projection, a check-in prior (or uniform),
// a hierarchical grid index, budget allocation, and the multi-step
// mechanism. All state lives on the client; nothing is sent anywhere.

#ifndef GEOPRIV_CORE_LOCATION_SANITIZER_H_
#define GEOPRIV_CORE_LOCATION_SANITIZER_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "base/status.h"
#include "core/msm.h"
#include "geo/projection.h"
#include "rng/rng.h"

namespace geopriv::core {

struct LatLon {
  double lat = 0.0;
  double lon = 0.0;
};

class LocationSanitizer {
 public:
  class Builder {
   public:
    // Study region as a lat/lon box (south-west / north-east corners).
    Builder& SetRegionLatLon(double min_lat, double min_lon, double max_lat,
                             double max_lon);
    // Total privacy budget (required, > 0). Lower = stronger privacy.
    Builder& SetEpsilon(double eps);
    // Index fanout per axis (default 4) and budget target rho (default
    // 0.8).
    Builder& SetGranularity(int g);
    Builder& SetRho(double rho);
    // Resolution of the prior histogram (default 128).
    Builder& SetPriorGranularity(int g);
    // Historical check-ins that shape the prior; without them the prior is
    // uniform.
    Builder& AddCheckinsLatLon(const std::vector<LatLon>& checkins);
    Builder& SetSeed(uint64_t seed);
    Builder& SetUtilityMetric(geo::UtilityMetric metric);
    // Wall-clock cap per node LP solve (default: unlimited). With a cap
    // set, use the *OrStatus sanitize variants: a solve that exceeds it
    // fails with kDeadlineExceeded instead of completing.
    Builder& SetLpTimeLimitSeconds(double seconds);
    // Byte budget for the resident per-node OPT matrices; past it the
    // node cache evicts least-recently-used unpinned entries (in-use
    // mechanisms are never freed under a reader). 0 = unbounded.
    Builder& SetCacheByteBudget(size_t bytes);
    // Does nothing: each node LP solves on the thread that needs it, and
    // only PrewarmTopNodes takes a pool. Kept only for its one caller,
    // bench/suite/lifecycle.cc:208; it goes with the next change to the
    // benchmark.
    Builder& SetConstructionPool(ThreadPool* pool);

    StatusOr<LocationSanitizer> Build();

   private:
    double min_lat_ = 0.0, min_lon_ = 0.0, max_lat_ = 0.0, max_lon_ = 0.0;
    bool region_set_ = false;
    double eps_ = 0.0;
    int granularity_ = 4;
    double rho_ = 0.8;
    int prior_granularity_ = 128;
    std::vector<LatLon> checkins_;
    uint64_t seed_ = 0x5EED5EED5EEDull;
    geo::UtilityMetric metric_ = geo::UtilityMetric::kEuclidean;
    double lp_time_limit_seconds_ = 0.0;  // 0 = unlimited
    size_t cache_byte_budget_ = 0;        // 0 = unbounded
  };

  // Sanitizes one coordinate pair. Coordinates outside the configured
  // region are clamped to it first. Aborts on mechanism failure — which
  // cannot happen with the default (unlimited) solver options; callers
  // that configure LP limits must use the *OrStatus variants instead.
  LatLon SanitizeLatLon(double lat, double lon);

  // Planar-kilometre variant (the frame used by the experiment harness).
  geo::Point Sanitize(geo::Point actual);

  // Status-returning variants: solver limits (e.g. an LP time limit
  // configured for serving deadlines) surface as kDeadlineExceeded /
  // kResourceExhausted instead of aborting the process.
  StatusOr<geo::Point> SanitizeOrStatus(geo::Point actual);
  StatusOr<LatLon> SanitizeLatLonOrStatus(double lat, double lon);

  // External-Rng variants for concurrent callers: thread-safe as long as
  // each thread passes its own Rng (the mechanism's node cache is shared
  // and synchronized). The internal-Rng overloads above are not
  // thread-safe — they all draw from the builder-seeded member Rng.
  StatusOr<geo::Point> SanitizeOrStatus(geo::Point actual,
                                        rng::Rng& rng) const;
  StatusOr<LatLon> SanitizeLatLonOrStatus(double lat, double lon,
                                          rng::Rng& rng) const;
  // The same over a caller-held serving-plan pin, which the caller keeps
  // across calls from one thread (see MultiStepMechanism::PlanPin).
  StatusOr<LatLon> SanitizeLatLonOrStatus(
      double lat, double lon, rng::Rng& rng,
      MultiStepMechanism::PlanPin& pin) const;

  // Pre-solves the LPs of the `k` internal index nodes with the largest
  // prior mass (root-down), so first traffic hits a warm cache. Safe to
  // call concurrently with sanitize traffic. Returns the number of nodes
  // now resident. With a pool, independent frontier nodes (siblings,
  // cousins) build concurrently, ancestors always before descendants.
  StatusOr<int> PrewarmTopNodes(int k, ThreadPool* pool = nullptr) const {
    return msm_->PrewarmTopNodes(k, pool);
  }

  // Assembles a sanitizer from pre-built parts — the bundle loader's
  // entry point, which reconstructs projection/domain/mechanism from a
  // serialized region instead of running the Builder pipeline. The parts
  // must be mutually consistent (domain_km is the mechanism's index
  // bounds; granularity its index fanout); callers other than the loader
  // should use the Builder.
  static LocationSanitizer FromParts(geo::EquirectangularProjection projection,
                                     geo::BBox domain_km,
                                     std::unique_ptr<MultiStepMechanism> msm,
                                     uint64_t seed, int granularity,
                                     double eps) {
    return LocationSanitizer(projection, domain_km, std::move(msm), seed,
                             granularity, eps);
  }

  // The privacy budget split the cost model chose.
  const BudgetAllocation& budget() const { return msm_->budget(); }

  MultiStepMechanism& mechanism() { return *msm_; }
  const MultiStepMechanism& mechanism() const { return *msm_; }
  const geo::EquirectangularProjection& projection() const {
    return projection_;
  }
  // Study region in the planar km frame.
  const geo::BBox& domain_km() const { return domain_km_; }
  // Index fanout per axis; the effective leaf grid is granularity^height
  // cells per axis.
  int granularity() const { return granularity_; }
  double epsilon() const { return eps_; }

 private:
  LocationSanitizer(geo::EquirectangularProjection projection,
                    geo::BBox domain_km,
                    std::unique_ptr<MultiStepMechanism> msm, uint64_t seed,
                    int granularity, double eps)
      : projection_(projection),
        domain_km_(domain_km),
        msm_(std::move(msm)),
        rng_(seed),
        granularity_(granularity),
        eps_(eps) {}

  geo::EquirectangularProjection projection_;
  geo::BBox domain_km_;
  std::unique_ptr<MultiStepMechanism> msm_;
  rng::Rng rng_;
  int granularity_ = 4;
  double eps_ = 0.0;
};

}  // namespace geopriv::core

#endif  // GEOPRIV_CORE_LOCATION_SANITIZER_H_
