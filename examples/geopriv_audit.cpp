// geopriv_audit: command-line front end for the mechanism-audit engine —
// audits a published region (a region bundle or an equivalent live build)
// and prints its privacy/utility report.
//
//   geopriv_audit bundle <path> [options]
//       Maps the bundle, rehydrates the region, and audits it.
//
//   geopriv_audit live [options]
//       Builds the demo region from scratch (same recipe as
//       `geopriv_bundle build`, overridable with the same flags) and
//       audits the live build. CI diffs this against the bundle audit —
//       the two reports must be bit-identical.
//
// Options:
//   --eps E --granularity G --rho R --prior-granularity P
//   --box minLat minLon maxLat maxLon        (live build parameters)
//   --format json|prom|human                 (default json)
//   --resident-only      audit only cache-resident mechanisms
//   --max-nodes N        cap the audit walk at N nodes
//   --region-id ID       baseline key (default "demo")
//   --baseline FILE      compare against the stored baseline
//   --update-baseline    write/refresh the baseline entry instead
//   --threshold T        relative drift threshold (default 0.25)
//
// Exit status: 0 OK, 1 error, 2 drift past the threshold — so CI and
// cron jobs can gate on the privacy posture of a published artifact.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "audit/audit.h"
#include "audit/baseline.h"
#include "bundle/loader.h"
#include "bundle/region_bundle.h"
#include "core/location_sanitizer.h"
#include "demo_region.h"

namespace {

using namespace geopriv;  // NOLINT: example brevity

int Usage() {
  std::fprintf(
      stderr,
      "usage: geopriv_audit bundle <path> [options]\n"
      "       geopriv_audit live [options]\n"
      "options: [--eps E] [--granularity G] [--rho R]\n"
      "         [--prior-granularity P] [--box minLat minLon maxLat maxLon]\n"
      "         [--format json|prom|human] [--resident-only] [--max-nodes N]\n"
      "         [--region-id ID] [--baseline FILE] [--update-baseline]\n"
      "         [--threshold T]\n");
  return 1;
}

struct Args {
  bundle::RegionSpec spec = examples::DemoRegionSpec();
  std::string format = "json";
  bool resident_only = false;
  int max_nodes = 0;
  std::string region_id = "demo";
  std::string baseline_path;
  bool update_baseline = false;
  double threshold = 0.25;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](int k = 1) { return i + k < argc; };
    if (arg == "--eps" && next()) {
      args->spec.eps = std::atof(argv[++i]);
    } else if (arg == "--granularity" && next()) {
      args->spec.granularity = std::atoi(argv[++i]);
    } else if (arg == "--rho" && next()) {
      args->spec.rho = std::atof(argv[++i]);
    } else if (arg == "--prior-granularity" && next()) {
      args->spec.prior_granularity = std::atoi(argv[++i]);
    } else if (arg == "--box" && next(4)) {
      args->spec.min_lat = std::atof(argv[++i]);
      args->spec.min_lon = std::atof(argv[++i]);
      args->spec.max_lat = std::atof(argv[++i]);
      args->spec.max_lon = std::atof(argv[++i]);
    } else if (arg == "--format" && next()) {
      args->format = argv[++i];
    } else if (arg == "--resident-only") {
      args->resident_only = true;
    } else if (arg == "--max-nodes" && next()) {
      args->max_nodes = std::atoi(argv[++i]);
    } else if (arg == "--region-id" && next()) {
      args->region_id = argv[++i];
    } else if (arg == "--baseline" && next()) {
      args->baseline_path = argv[++i];
    } else if (arg == "--update-baseline") {
      args->update_baseline = true;
    } else if (arg == "--threshold" && next()) {
      args->threshold = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  if (args->format != "json" && args->format != "prom" &&
      args->format != "human") {
    std::fprintf(stderr, "unknown format: %s\n", args->format.c_str());
    return false;
  }
  return true;
}

void PrintHuman(const audit::RegionAuditReport& report) {
  std::printf("region audit: height %d, %llu nodes audited, %llu skipped, "
              "%llu cold skipped\n",
              report.height,
              static_cast<unsigned long long>(report.audited_nodes),
              static_cast<unsigned long long>(report.skipped_nodes),
              static_cast<unsigned long long>(report.cold_nodes_skipped));
  std::printf("  expected loss:      %.6f (euclidean), %.6f (squared)\n",
              report.expected_loss_euclidean, report.expected_loss_squared);
  std::printf("  optimal adversary:  %.6f expected inference error, "
              "%.4f bits posterior entropy\n",
              report.adversary_error, report.conditional_entropy_bits);
  std::printf("  worst-case loss:    %.6f\n", report.worst_case_loss);
  std::printf("  GeoInd slack:       min %.3e, max violation %.3e\n",
              report.min_slack, report.max_violation);
  for (const audit::LevelAudit& level : report.levels) {
    std::printf("  level %d: %llu nodes, EL_e %.6f, adv %.6f, "
                "H %.4f bits, slack %.3e\n",
                level.level, static_cast<unsigned long long>(level.nodes),
                level.expected_loss_euclidean, level.adversary_error,
                level.conditional_entropy_bits, level.min_slack);
  }
}

// 0 = no drift (or baseline freshly written), 1 = error, 2 = drift.
int HandleBaseline(const Args& args, const audit::RegionAuditReport& report) {
  audit::BaselineStore store;
  const Status loaded = store.Load(args.baseline_path);
  if (!loaded.ok() && !args.update_baseline) {
    std::fprintf(stderr, "baseline: %s\n", loaded.ToString().c_str());
    return 1;
  }
  const audit::BaselineEntry current = audit::EntryFromReport(report);
  if (args.update_baseline) {
    store.Update(args.region_id, current);
    if (const Status s = store.Save(args.baseline_path); !s.ok()) {
      std::fprintf(stderr, "baseline: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "baseline: wrote '%s' to %s\n",
                 args.region_id.c_str(), args.baseline_path.c_str());
    return 0;
  }
  const audit::BaselineEntry* base = store.Find(args.region_id);
  if (base == nullptr) {
    std::fprintf(stderr, "baseline: no entry '%s' in %s "
                 "(write one with --update-baseline)\n",
                 args.region_id.c_str(), args.baseline_path.c_str());
    return 1;
  }
  const audit::DriftResult drift =
      audit::CompareToBaseline(*base, current, args.threshold);
  std::fprintf(stderr,
               "baseline: loss drift %.4f%%, adversary drift %.4f%% "
               "(threshold %.2f%%) -> %s\n",
               drift.loss_rel * 100.0, drift.adversary_rel * 100.0,
               args.threshold * 100.0,
               drift.drifted ? "DRIFTED" : "ok");
  return drift.drifted ? 2 : 0;
}

int Run(const std::string& mode, const std::string& path, const Args& args) {
  audit::AuditOptions options;
  options.include_cold_nodes = !args.resident_only;
  options.max_nodes = args.max_nodes;

  audit::RegionAuditReport report;
  if (mode == "bundle") {
    auto view = bundle::RegionBundleView::Open(path);
    if (!view.ok()) {
      std::fprintf(stderr, "open: %s\n", view.status().ToString().c_str());
      return 1;
    }
    auto audited = audit::AuditBundle(view.value(), options);
    if (!audited.ok()) {
      std::fprintf(stderr, "audit: %s\n",
                   audited.status().ToString().c_str());
      return 1;
    }
    report = std::move(audited).value();
  } else {
    // Live build: the exact `geopriv_bundle build` recipe, minus the file.
    bundle::RegionSpec spec = args.spec;
    examples::AddDemoCheckins(spec);
    core::LocationSanitizer::Builder builder;
    builder.SetRegionLatLon(spec.min_lat, spec.min_lon, spec.max_lat,
                            spec.max_lon)
        .SetEpsilon(spec.eps)
        .SetGranularity(spec.granularity)
        .SetRho(spec.rho)
        .SetPriorGranularity(spec.prior_granularity)
        .SetUtilityMetric(spec.metric);
    builder.AddCheckinsLatLon(spec.checkins);
    auto sanitizer = builder.Build();
    if (!sanitizer.ok()) {
      std::fprintf(stderr, "build: %s\n",
                   sanitizer.status().ToString().c_str());
      return 1;
    }
    report = audit::AuditRegion(sanitizer.value(), options);
  }

  if (args.format == "json") {
    // Exactly the report plus a newline: CI `cmp`s two of these files to
    // assert the bundle and live audits are bit-identical.
    std::printf("%s\n", audit::ReportJson(report).c_str());
  } else if (args.format == "prom") {
    std::fputs(audit::ReportPrometheus(report).c_str(), stdout);
  } else {
    PrintHuman(report);
  }

  if (!args.baseline_path.empty()) return HandleBaseline(args, report);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  Args args;
  if (mode == "bundle") {
    if (argc < 3) return Usage();
    if (!ParseArgs(argc - 3, argv + 3, &args)) return Usage();
    return Run(mode, argv[2], args);
  }
  if (mode == "live") {
    if (!ParseArgs(argc - 2, argv + 2, &args)) return Usage();
    return Run(mode, "", args);
  }
  return Usage();
}
