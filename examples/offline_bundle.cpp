// Offline client bundle (paper Section 3.1): the service provider
// precomputes everything data-dependent — the prior from historical
// check-ins, the index parameters, the privacy-budget split — into a
// small region bundle that clients download once. The bundle carries no
// solved mechanisms: the client maps it, rebuilds the multi-step
// mechanism locally, solves each node's LP the first time a report walks
// through it, and sanitizes coordinates without ever contacting the
// server about its position.
//
//   ./offline_bundle [epsilon] [bundle_path]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bundle/builder.h"
#include "bundle/loader.h"
#include "bundle/region_bundle.h"
#include "demo_region.h"
#include "geo/distance.h"
#include "rng/rng.h"

int main(int argc, char** argv) {
  using namespace geopriv;  // NOLINT: example brevity
  bundle::RegionSpec spec = examples::DemoRegionSpec();
  if (argc > 1) spec.eps = std::atof(argv[1]);
  const std::string path = argc > 2 ? argv[2] : "/tmp/geopriv_client.gpb2";
  examples::AddDemoCheckins(spec);

  // --- Server side: build the region, solve nothing, publish. ---
  auto server = core::LocationSanitizer::Builder()
                    .SetRegionLatLon(spec.min_lat, spec.min_lon, spec.max_lat,
                                     spec.max_lon)
                    .SetEpsilon(spec.eps)
                    .SetGranularity(spec.granularity)
                    .SetRho(spec.rho)
                    .SetPriorGranularity(spec.prior_granularity)
                    .SetUtilityMetric(spec.metric)
                    .AddCheckinsLatLon(spec.checkins)
                    .Build();
  if (!server.ok()) {
    std::fprintf(stderr, "build: %s\n", server.status().ToString().c_str());
    return 1;
  }
  auto written = bundle::WriteRegionBundle(*server, spec, path);
  if (!written.ok()) {
    std::fprintf(stderr, "write: %s\n", written.status().ToString().c_str());
    return 1;
  }
  std::printf("server: published %s (%.1f KiB) — eps=%.2f, %d levels, "
              "%dx%d prior, %llu solved nodes\n",
              path.c_str(), written->bytes / 1024.0, spec.eps,
              server->budget().height(), spec.prior_granularity,
              spec.prior_granularity,
              static_cast<unsigned long long>(written->nodes));

  // --- Client side: map, verify, rebuild, sanitize. ---
  auto view = bundle::RegionBundleView::Open(path);
  if (!view.ok()) {
    std::fprintf(stderr, "open: %s\n", view.status().ToString().c_str());
    return 1;
  }
  auto client = bundle::LoadRegion(*view);
  if (!client.ok()) {
    std::fprintf(stderr, "load: %s\n", client.status().ToString().c_str());
    return 1;
  }
  std::printf("client: bundle verified (checksums ok), mechanism ready\n\n");
  const core::LocationSanitizer& sanitizer = client->sanitizer;
  const double lat = 0.5 * (spec.min_lat + spec.max_lat);
  const double lon = 0.5 * (spec.min_lon + spec.max_lon);
  const geo::Point actual = sanitizer.projection().Forward(lat, lon);
  rng::Rng rng(7);
  double mean_loss = 0.0;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    auto z = sanitizer.SanitizeLatLonOrStatus(lat, lon, rng);
    if (!z.ok()) {
      std::fprintf(stderr, "sanitize: %s\n", z.status().ToString().c_str());
      return 1;
    }
    mean_loss +=
        geo::Euclidean(actual, sanitizer.projection().Forward(z->lat, z->lon)) /
        n;
    if (i < 3) {
      std::printf("  report %d: (%.5f, %.5f)\n", i + 1, z->lat, z->lon);
    }
  }
  std::printf("\nmean reporting error over %d queries: %.3f km "
              "(per-level budgets:", n, mean_loss);
  for (double b : sanitizer.budget().per_level) std::printf(" %.3f", b);
  std::printf(")\nnode LPs solved on the client: %lld\n",
              static_cast<long long>(sanitizer.mechanism().stats().lp_solves));
  return 0;
}
