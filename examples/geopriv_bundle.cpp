// geopriv_bundle: command-line front end for region bundles — the
// build tier's packaging tool and the serve tier's pre-flight check.
//
//   geopriv_bundle build <path> [--eps E] [--granularity G] [--rho R]
//                         [--prior-granularity P] [--prewarm N]
//                         [--box minLat minLon maxLat maxLon]
//       Builds a region (synthetic check-in prior), pre-solves its node
//       LPs, and writes the bundle crash-atomically to <path>.
//
//   geopriv_bundle inspect <path>
//       Prints the header, TOC, config, and per-node directory.
//
//   geopriv_bundle verify <path> [--deep]
//       Re-maps the file and re-checks every section checksum; --deep
//       also rehydrates the region and serves a few requests through it.
//
// Exit status: 0 on success, 1 on any failure — so CI can gate on it.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "bundle/builder.h"
#include "bundle/format.h"
#include "bundle/loader.h"
#include "bundle/region_bundle.h"
#include "demo_region.h"
#include "rng/rng.h"

namespace {

using namespace geopriv;  // NOLINT: example brevity

int Usage() {
  std::fprintf(stderr,
               "usage: geopriv_bundle build <path> [--eps E] [--granularity G]"
               " [--rho R]\n"
               "                      [--prior-granularity P] [--prewarm N]\n"
               "                      [--box minLat minLon maxLat maxLon]\n"
               "       geopriv_bundle inspect <path>\n"
               "       geopriv_bundle verify <path> [--deep]\n");
  return 1;
}

const char* SectionName(uint32_t id) {
  switch (id) {
    case bundle::kConfig: return "config";
    case bundle::kBudgets: return "budgets";
    case bundle::kPrior: return "prior";
    case bundle::kNodes: return "nodes";
    default: return "unknown";
  }
}

int Build(const std::string& path, int argc, char** argv) {
  // The demo region (override with --box); shared with `geopriv_audit
  // live` so bundle and live audits compare like for like.
  bundle::RegionSpec spec = examples::DemoRegionSpec();
  bundle::BuildBundleOptions options;
  options.prewarm_nodes = 0;  // full prewarm by default

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](int k = 1) { return i + k < argc; };
    if (arg == "--eps" && next()) {
      spec.eps = std::atof(argv[++i]);
    } else if (arg == "--granularity" && next()) {
      spec.granularity = std::atoi(argv[++i]);
    } else if (arg == "--rho" && next()) {
      spec.rho = std::atof(argv[++i]);
    } else if (arg == "--prior-granularity" && next()) {
      spec.prior_granularity = std::atoi(argv[++i]);
    } else if (arg == "--prewarm" && next()) {
      options.prewarm_nodes = std::atoi(argv[++i]);
    } else if (arg == "--box" && next(4)) {
      spec.min_lat = std::atof(argv[++i]);
      spec.min_lon = std::atof(argv[++i]);
      spec.max_lat = std::atof(argv[++i]);
      spec.max_lon = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown build option: %s\n", arg.c_str());
      return Usage();
    }
  }

  // Synthetic history: Gaussian clusters inside the box shape the prior.
  examples::AddDemoCheckins(spec);

  auto result = bundle::BuildRegionBundle(spec, options, path);
  if (!result.ok()) {
    std::fprintf(stderr, "build: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("built %s: %llu nodes, %.1f KiB\n"
              "  %.2fs total (%.2fs in %lld LP solves)\n",
              path.c_str(), static_cast<unsigned long long>(result->nodes),
              result->bytes / 1024.0, result->build_seconds,
              result->lp_seconds, static_cast<long long>(result->lp_solves));
  return 0;
}

int Inspect(const std::string& path) {
  auto view = bundle::RegionBundleView::Open(path);
  if (!view.ok()) {
    std::fprintf(stderr, "open: %s\n", view.status().ToString().c_str());
    return 1;
  }
  const bundle::ConfigImage& config = view->config();
  std::printf("%s: v%u region bundle, %llu bytes mapped\n", path.c_str(),
              bundle::kVersion,
              static_cast<unsigned long long>(view->bytes_mapped()));
  std::printf("  region: [%.4f, %.4f] x [%.4f, %.4f], eps=%.3f, g=%u, "
              "rho=%.2f, prior %ux%u, height %u\n",
              config.min_lat, config.max_lat, config.min_lon, config.max_lon,
              config.eps, config.granularity, config.rho,
              config.prior_granularity, config.prior_granularity,
              config.height);
  std::printf("  sections:\n");
  for (const bundle::SectionEntry& s : view->sections()) {
    std::printf("    %-8s id=%u offset=%-8llu size=%-10llu checksum=%016llx\n",
                SectionName(s.id), s.id,
                static_cast<unsigned long long>(s.offset),
                static_cast<unsigned long long>(s.size),
                static_cast<unsigned long long>(s.checksum));
  }
  std::printf("  budgets:");
  for (const double b : view->level_budgets()) std::printf(" %.4f", b);
  std::printf("\n  nodes: %llu solved mechanisms\n",
              static_cast<unsigned long long>(view->node_count()));
  uint64_t table_bytes = 0;
  for (size_t i = 0; i < view->node_count(); ++i) {
    table_bytes += view->node_entry(i).size;
  }
  std::printf("  node tables: %.1f KiB (zero-copy at serve time)\n",
              table_bytes / 1024.0);
  return 0;
}

int Verify(const std::string& path, bool deep) {
  // Open maps the file and checks the header, TOC, every section
  // checksum, and the config and budget invariants.
  auto view = bundle::RegionBundleView::Open(path);
  if (!view.ok()) {
    std::fprintf(stderr, "verify: %s\n", view.status().ToString().c_str());
    return 1;
  }
  std::printf("%s: header, TOC, and %zu section checksums (XXH64) OK\n",
              path.c_str(), view->sections().size());
  if (!deep) return 0;

  // Deep check: rehydrate the full serving stack and draw reports.
  auto loaded = bundle::LoadRegion(view.value());
  if (!loaded.ok()) {
    std::fprintf(stderr, "load: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const bundle::ConfigImage& config = view->config();
  rng::Rng rng(1);
  for (int i = 0; i < 32; ++i) {
    const double lat = config.min_lat +
                       (config.max_lat - config.min_lat) * (i % 8) / 8.0;
    const double lon = config.min_lon +
                       (config.max_lon - config.min_lon) * (i % 5) / 5.0;
    auto out = loaded->sanitizer.SanitizeLatLonOrStatus(lat, lon, rng);
    if (!out.ok()) {
      std::fprintf(stderr, "serve: %s\n", out.status().ToString().c_str());
      return 1;
    }
  }
  std::printf("deep: %llu mechanisms rehydrated, %llu-node plan warm, "
              "32 reports served, %lld LP solves (load %.1f ms)\n",
              static_cast<unsigned long long>(loaded->nodes_loaded),
              static_cast<unsigned long long>(loaded->plan_nodes),
              static_cast<long long>(
                  loaded->sanitizer.mechanism().stats().lp_solves),
              loaded->load_seconds * 1e3);

  // GeoInd constraint check over every serialized mechanism: the bundle's
  // K tables are what the serving tier publishes verbatim, so a violation
  // here is a violation in production. Tolerance matches the LP solver's
  // constraint feasibility slack.
  constexpr double kSlackTolerance = 1e-6;
  double min_slack = 0.0;
  bool have_slack = false;
  int violations = 0;
  for (size_t i = 0; i < view->node_count(); ++i) {
    auto entry = view->node(i);
    if (!entry.ok()) {
      std::fprintf(stderr, "deep: node %zu: %s\n", i,
                   entry.status().ToString().c_str());
      return 1;
    }
    const audit::NodeAudit node = audit::AuditBundleNode(entry.value());
    if (node.invalid) {
      std::fprintf(stderr,
                   "deep: node %lld (level %d) has a malformed mechanism\n",
                   static_cast<long long>(node.node), node.level);
      return 1;
    }
    if (!have_slack || node.min_slack < min_slack) min_slack = node.min_slack;
    have_slack = true;
    if (node.max_violation > kSlackTolerance) {
      ++violations;
      std::fprintf(stderr,
                   "deep: GeoInd VIOLATION at node %lld (level %d, n=%d): "
                   "max excess %.3e over the e^(eps*d) bound\n",
                   static_cast<long long>(node.node), node.level, node.n,
                   node.max_violation);
    }
  }
  if (violations > 0) {
    std::fprintf(stderr, "deep: %d of %llu mechanisms violate GeoInd\n",
                 violations,
                 static_cast<unsigned long long>(view->node_count()));
    return 1;
  }
  std::printf("deep: GeoInd holds on all %llu mechanisms "
              "(min slack %.3e)\n",
              static_cast<unsigned long long>(view->node_count()), min_slack);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string command = argv[1];
  const std::string path = argv[2];
  if (command == "build") return Build(path, argc - 3, argv + 3);
  if (command == "inspect") return Inspect(path);
  if (command == "verify") {
    const bool deep = argc > 3 && std::strcmp(argv[3], "--deep") == 0;
    return Verify(path, deep);
  }
  return Usage();
}
