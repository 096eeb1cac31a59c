// Table 2 — MSM vs flat OPT at equal effective granularity (Gowalla,
// eps = 0.5).
//
// Paper rows: OPT granularity {4, 9, 16} vs two-level MSM of fanout
// {2, 3, 4}. OPT wins slightly on utility (it optimizes the whole grid at
// once) but its solve time explodes — 205.7 s at g=9 with Gurobi and
// >72 h at g=16 — while MSM stays at milliseconds per query. Our solver
// (one core, no presolve) solves g=9 in tens of seconds and refuses g=16
// at once, since its 65,536-row dual exceeds the basis row cap; the
// comparison of regimes is the result, not the absolute seconds.
//
// Flags: --dataset gowalla  --eps 0.5  --requests 200
//        --time-limit 120 (s, per OPT solve)  --csv PATH

#include "bench/bench_util.h"

#include "base/stopwatch.h"
#include "mechanisms/optimal.h"
#include "rng/rng.h"
#include "spatial/grid.h"

int main(int argc, char** argv) {
  using namespace geopriv;  // NOLINT: binary brevity
  const bench::Flags flags(argc, argv);
  const double eps = flags.GetDouble("eps", 0.5);
  const int requests = flags.GetInt("requests", 200);
  const double time_limit = flags.GetDouble("time-limit", 120.0);
  const bench::Workload workload =
      bench::MakeWorkload(flags.GetString("dataset", "gowalla"));

  std::printf("Table 2: MSM vs OPT at equal effective granularity "
              "(dataset=%s, eps=%.2f)\n\n",
              workload.dataset.name.c_str(), eps);
  eval::Table table({"granularity", "opt_loss_km", "msm_loss_km",
                     "opt_time_s", "opt_status", "msm_time_per_query_s"});
  for (int msm_g : {2, 3, 4}) {
    const int opt_g = msm_g * msm_g;  // two-level MSM -> g^2 effective

    // Flat OPT on the opt_g x opt_g grid.
    std::string opt_loss = "-";
    std::string opt_time;
    spatial::UniformGrid grid(workload.dataset.domain, opt_g);
    mechanisms::OptimalMechanismOptions options;
    options.solver.time_limit_seconds = time_limit;
    const Stopwatch opt_watch;
    auto opt = mechanisms::OptimalMechanism::Create(
        eps, grid.AllCenters(), workload.prior->OnGrid(grid),
        geo::UtilityMetric::kEuclidean, options);
    if (!opt.ok()) {
      opt_time = bench::FailedSolveTime(
          opt.status(), opt_watch.ElapsedSeconds(), time_limit);
    } else {
      rng::Rng rng(2019);
      const auto reqs =
          eval::SampleRequests(workload.dataset.points, requests, rng);
      double loss = 0.0;
      for (const auto& x : reqs) {
        loss += geo::Euclidean(x, opt->Report(x, rng));
      }
      opt_loss = eval::Fmt(loss / reqs.size(), 2);
      opt_time = eval::Fmt(opt->stats().solve_seconds, 3);
    }

    // Two-level MSM with fanout msm_g (the paper's Table 2 layout). The
    // node cache is cleared before every query so the per-query time
    // includes the LP work, as in the paper's measurements.
    auto msm_index = spatial::HierarchicalGrid::Create(
        workload.dataset.domain, msm_g, 2);
    GEOPRIV_CHECK_OK(msm_index.status());
    core::MsmOptions msm_options;
    msm_options.budget.fixed_height = 2;
    auto msm = core::MultiStepMechanism::Create(
        eps,
        std::make_shared<spatial::HierarchicalGrid>(
            std::move(msm_index).value()),
        workload.prior, msm_options);
    GEOPRIV_CHECK_OK(msm.status());
    rng::Rng rng(2019);
    const auto reqs =
        eval::SampleRequests(workload.dataset.points, requests, rng);
    double loss = 0.0;
    Stopwatch sw;
    for (const auto& x : reqs) {
      msm->cache().Clear();
      loss += geo::Euclidean(x, msm->Report(x, rng));
    }
    const double per_query = sw.ElapsedSeconds() / reqs.size();
    table.AddRow({std::to_string(opt_g), opt_loss,
                  eval::Fmt(loss / reqs.size(), 2), opt_time,
                  opt.ok() ? "optimal"
                           : StatusCodeToString(opt.status().code()),
                  eval::Fmt(per_query, 4)});
  }
  bench::FinishTable(flags, table);
  std::printf(
      "\nPaper shape check: OPT's utility edge is small; its solve time "
      "grows by orders of magnitude per row while MSM stays interactive "
      "(paper: 0.008-0.53 s/query).\n");
  return 0;
}
