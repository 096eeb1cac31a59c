#include "core/location_sanitizer.h"

#include <algorithm>

#include "spatial/hierarchical_grid.h"

namespace geopriv::core {

LocationSanitizer::Builder& LocationSanitizer::Builder::SetRegionLatLon(
    double min_lat, double min_lon, double max_lat, double max_lon) {
  min_lat_ = min_lat;
  min_lon_ = min_lon;
  max_lat_ = max_lat;
  max_lon_ = max_lon;
  region_set_ = true;
  return *this;
}

LocationSanitizer::Builder& LocationSanitizer::Builder::SetEpsilon(
    double eps) {
  eps_ = eps;
  return *this;
}

LocationSanitizer::Builder& LocationSanitizer::Builder::SetGranularity(
    int g) {
  granularity_ = g;
  return *this;
}

LocationSanitizer::Builder& LocationSanitizer::Builder::SetRho(double rho) {
  rho_ = rho;
  return *this;
}

LocationSanitizer::Builder& LocationSanitizer::Builder::SetPriorGranularity(
    int g) {
  prior_granularity_ = g;
  return *this;
}

LocationSanitizer::Builder& LocationSanitizer::Builder::AddCheckinsLatLon(
    const std::vector<LatLon>& checkins) {
  checkins_.insert(checkins_.end(), checkins.begin(), checkins.end());
  return *this;
}

LocationSanitizer::Builder& LocationSanitizer::Builder::SetSeed(
    uint64_t seed) {
  seed_ = seed;
  return *this;
}

LocationSanitizer::Builder& LocationSanitizer::Builder::SetUtilityMetric(
    geo::UtilityMetric metric) {
  metric_ = metric;
  return *this;
}

LocationSanitizer::Builder& LocationSanitizer::Builder::SetLpTimeLimitSeconds(
    double seconds) {
  lp_time_limit_seconds_ = seconds;
  return *this;
}

LocationSanitizer::Builder& LocationSanitizer::Builder::SetCacheByteBudget(
    size_t bytes) {
  cache_byte_budget_ = bytes;
  return *this;
}

LocationSanitizer::Builder& LocationSanitizer::Builder::SetConstructionPool(
    ThreadPool* /*pool*/) {
  return *this;
}

StatusOr<LocationSanitizer> LocationSanitizer::Builder::Build() {
  if (!region_set_) {
    return Status::FailedPrecondition("SetRegionLatLon was not called");
  }
  if (!(max_lat_ > min_lat_) || !(max_lon_ > min_lon_)) {
    return Status::InvalidArgument("region corners are not ordered");
  }
  if (!(eps_ > 0.0)) {
    return Status::InvalidArgument("SetEpsilon with a positive budget first");
  }
  GEOPRIV_ASSIGN_OR_RETURN(
      geo::EquirectangularProjection projection,
      geo::EquirectangularProjection::Create(min_lat_, min_lon_));
  const geo::Point ne = projection.Forward(max_lat_, max_lon_);
  const geo::BBox domain{0.0, 0.0, ne.x, ne.y};

  std::vector<geo::Point> points;
  points.reserve(checkins_.size());
  for (const LatLon& c : checkins_) {
    points.push_back(projection.Forward(c.lat, c.lon));
  }
  std::shared_ptr<const prior::Prior> prior;
  if (points.empty()) {
    prior = std::make_shared<prior::Prior>(
        prior::Prior::Uniform(domain, prior_granularity_));
  } else {
    GEOPRIV_ASSIGN_OR_RETURN(
        prior::Prior built,
        prior::Prior::FromPoints(domain, prior_granularity_, points));
    prior = std::make_shared<prior::Prior>(std::move(built));
  }

  // Height cap: stop when leaf cells would shrink below ~40 m — finer
  // reporting than GPS accuracy buys nothing.
  constexpr double kMinCellKm = 0.04;
  int height = 1;
  double side = std::max(domain.Width(), domain.Height()) / granularity_;
  while (height < 10 && side / granularity_ > kMinCellKm) {
    side /= granularity_;
    ++height;
  }
  GEOPRIV_ASSIGN_OR_RETURN(
      spatial::HierarchicalGrid grid,
      spatial::HierarchicalGrid::Create(domain, granularity_, height));
  auto index =
      std::make_shared<spatial::HierarchicalGrid>(std::move(grid));

  MsmOptions options;
  options.budget.rho = rho_;
  options.metric = metric_;
  options.cache_byte_budget = cache_byte_budget_;
  if (lp_time_limit_seconds_ > 0.0) {
    options.opt.solver.time_limit_seconds = lp_time_limit_seconds_;
  }
  GEOPRIV_ASSIGN_OR_RETURN(
      MultiStepMechanism msm,
      MultiStepMechanism::Create(eps_, index, prior, options));
  return LocationSanitizer(
      projection, domain,
      std::make_unique<MultiStepMechanism>(std::move(msm)), seed_,
      granularity_, eps_);
}

geo::Point LocationSanitizer::Sanitize(geo::Point actual) {
  return msm_->Report(domain_km_.Clamp(actual), rng_);
}

LatLon LocationSanitizer::SanitizeLatLon(double lat, double lon) {
  const geo::Point reported = Sanitize(projection_.Forward(lat, lon));
  LatLon out;
  projection_.Inverse(reported, &out.lat, &out.lon);
  return out;
}

StatusOr<geo::Point> LocationSanitizer::SanitizeOrStatus(geo::Point actual) {
  return SanitizeOrStatus(actual, rng_);
}

StatusOr<LatLon> LocationSanitizer::SanitizeLatLonOrStatus(double lat,
                                                           double lon) {
  return SanitizeLatLonOrStatus(lat, lon, rng_);
}

StatusOr<geo::Point> LocationSanitizer::SanitizeOrStatus(
    geo::Point actual, rng::Rng& rng) const {
  return msm_->ReportOrStatus(domain_km_.Clamp(actual), rng);
}

StatusOr<LatLon> LocationSanitizer::SanitizeLatLonOrStatus(
    double lat, double lon, rng::Rng& rng) const {
  MultiStepMechanism::PlanPin pin;
  return SanitizeLatLonOrStatus(lat, lon, rng, pin);
}

StatusOr<LatLon> LocationSanitizer::SanitizeLatLonOrStatus(
    double lat, double lon, rng::Rng& rng,
    MultiStepMechanism::PlanPin& pin) const {
  GEOPRIV_ASSIGN_OR_RETURN(
      const geo::Point reported,
      msm_->ReportOrStatus(domain_km_.Clamp(projection_.Forward(lat, lon)),
                           rng, pin));
  LatLon out;
  projection_.Inverse(reported, &out.lat, &out.lon);
  return out;
}

}  // namespace geopriv::core
