// Figure 3 — utility/time trade-off of the flat optimal mechanism (OPT).
//
// Paper: OPT on a g x g grid over the Gowalla/Austin region, eps = 0.5.
// Utility loss falls from ~4.5 km (g=2) toward ~2 km (g=11) while solve
// time explodes (hours at g=11; g=12 did not finish in 24h with Gurobi).
// We reproduce the same curve with our own LP stack; the wall arrives at a
// smaller g (different solver, one core), but the shape — modest utility
// gains bought with super-cubically growing solve time — is the result.
//
// Flags: --dataset gowalla|yelp  --eps 0.5  --min-g 2  --max-g 7
//        --time-limit 120 (seconds per solve)  --requests 1000  --csv PATH

#include "bench/bench_util.h"

#include "base/stopwatch.h"
#include "mechanisms/optimal.h"
#include "rng/rng.h"
#include "spatial/grid.h"

int main(int argc, char** argv) {
  using namespace geopriv;  // NOLINT: binary brevity
  const bench::Flags flags(argc, argv);
  const double eps = flags.GetDouble("eps", 0.5);
  const int min_g = flags.GetInt("min-g", 2);
  const int max_g = flags.GetInt("max-g", 7);
  const double time_limit = flags.GetDouble("time-limit", 120.0);
  const int requests = flags.GetInt("requests", 1000);
  const std::string dataset_name = flags.GetString("dataset", "gowalla");

  const bench::Workload workload = bench::MakeWorkload(dataset_name);
  std::printf("Figure 3: OPT utility loss and solve time vs granularity\n");
  std::printf("dataset=%s eps=%.2f requests=%d time-limit=%.0fs\n\n",
              workload.dataset.name.c_str(), eps, requests, time_limit);

  eval::Table table({"g", "cells", "utility_loss_km", "solve_time_s",
                     "cg_rounds", "geoind_rows_active", "status"});
  for (int g = min_g; g <= max_g; ++g) {
    spatial::UniformGrid grid(workload.dataset.domain, g);
    mechanisms::OptimalMechanismOptions options;
    options.solver.time_limit_seconds = time_limit;
    const Stopwatch watch;
    auto opt = mechanisms::OptimalMechanism::Create(
        eps, grid.AllCenters(), workload.prior->OnGrid(grid),
        geo::UtilityMetric::kEuclidean, options);
    if (!opt.ok()) {
      table.AddRow({std::to_string(g), std::to_string(g * g), "-",
                    bench::FailedSolveTime(opt.status(),
                                           watch.ElapsedSeconds(), time_limit),
                    "-", "-", StatusCodeToString(opt.status().code())});
      continue;
    }
    // Utility over sampled requests (includes snap-to-cell error, as in the
    // paper's measurements).
    rng::Rng rng(2019);
    const auto reqs =
        eval::SampleRequests(workload.dataset.points, requests, rng);
    double loss = 0.0;
    for (const auto& x : reqs) {
      loss += geo::Euclidean(x, opt->Report(x, rng));
    }
    loss /= reqs.size();
    table.AddRow({std::to_string(g), std::to_string(g * g),
                  eval::Fmt(loss, 3), eval::Fmt(opt->stats().solve_seconds, 2),
                  std::to_string(opt->stats().rounds),
                  std::to_string(opt->stats().generated_columns), "optimal"});
  }
  bench::FinishTable(flags, table);
  std::printf(
      "\nPaper shape check: utility improves slowly with g while time grows "
      "super-cubically; past the wall the solve hits its time limit or the "
      "basis row cap — the paper's argument for MSM.\n");
  return 0;
}
