// Parallel LP construction pipeline: serial-vs-parallel OPT Create() time
// (with a bit-identity check of the resulting matrix — the parallel
// pipeline must produce *exactly* the serial matrix), the pricing-vs-
// simplex wall-clock split, prewarm fan-out wall-clock at 1/2/4/8
// threads, and an honest record of the large-n attempt (n >= 400 exceeds
// the revised simplex's basis row cap, so it cannot be timed — the bench
// reports the failure instead of silently shrinking the instance). Only
// the pricing scan and the tables fan out; the simplex is serial, so the
// simplex share of a Create does not shrink with threads.
// Results go to stdout as a table and to --json (default BENCH_lp.json).
//
// Flags:
//   --g G           OPT candidate grid per axis; n = G*G (default 5)
//   --eps E         privacy budget (default 1.0)
//   --prewarm_g G   MSM fanout for the prewarm experiment (default 3)
//   --prewarm_k K   nodes to prewarm (default 10)
//   --large_g G     large-instance attempt per axis (default 20: n = 400)
//   --json PATH     output JSON path (default BENCH_lp.json)

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/check.h"
#include "base/stopwatch.h"
#include "base/thread_pool.h"
#include "bench/bench_util.h"
#include "mechanisms/optimal.h"
#include "spatial/grid.h"

namespace geopriv::bench {
namespace {

struct CreateResult {
  int threads = 1;
  double seconds = 0.0;
  mechanisms::OptSolveStats stats;
  bool bit_identical = true;  // vs the serial matrix
};

CreateResult TimeCreate(int g, double eps,
                        const std::vector<geo::Point>& centers,
                        const std::vector<double>& prior, int threads,
                        const mechanisms::OptimalMechanism* reference) {
  std::unique_ptr<ThreadPool> pool;
  mechanisms::OptimalMechanismOptions options;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads, 64);
    options.pricing_pool = pool.get();
    options.pricing_threads = threads;
  }
  CreateResult r;
  r.threads = threads;
  const Stopwatch watch;
  auto opt = mechanisms::OptimalMechanism::Create(
      eps, centers, prior, geo::UtilityMetric::kEuclidean, options);
  r.seconds = watch.ElapsedSeconds();
  GEOPRIV_CHECK_OK(opt.status());
  r.stats = opt->stats();
  if (reference != nullptr) {
    const int n = g * g;
    for (int x = 0; x < n && r.bit_identical; ++x) {
      for (int z = 0; z < n; ++z) {
        if (opt->K(x, z) != reference->K(x, z)) {
          r.bit_identical = false;
          break;
        }
      }
    }
  }
  if (pool != nullptr) pool->Shutdown();
  return r;
}

struct PrewarmResult {
  int threads = 1;
  int warmed = 0;
  double seconds = 0.0;
};

PrewarmResult TimePrewarm(const Workload& workload, double eps, int g,
                          int k, int threads) {
  // A fresh MSM per thread count: prewarm must always start cold.
  auto msm = MakeMsm(workload, eps, g, 0.8, geo::UtilityMetric::kEuclidean);
  GEOPRIV_CHECK(msm != nullptr);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads, 64);
  PrewarmResult r;
  r.threads = threads;
  const Stopwatch watch;
  auto warmed = msm->PrewarmTopNodes(k, pool.get());
  r.seconds = watch.ElapsedSeconds();
  GEOPRIV_CHECK_OK(warmed.status());
  r.warmed = warmed.value();
  if (pool != nullptr) pool->Shutdown();
  return r;
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int g = flags.GetInt("g", 5);
  const double eps = flags.GetDouble("eps", 1.0);
  const int prewarm_g = flags.GetInt("prewarm_g", 3);
  const int prewarm_k = flags.GetInt("prewarm_k", 10);
  const int large_g = flags.GetInt("large_g", 20);
  const std::string json_path = flags.GetString("json", "BENCH_lp.json");

  const Workload workload = MakeWorkload("gowalla");
  const spatial::UniformGrid grid(workload.dataset.domain, g);
  const auto centers = grid.AllCenters();
  const auto prior = workload.prior->OnGrid(grid);

  std::printf("OPT Create, n=%d, eps=%g (hardware_concurrency=%u)\n", g * g,
              eps, std::thread::hardware_concurrency());
  std::vector<CreateResult> creates;
  creates.push_back(TimeCreate(g, eps, centers, prior, 1, nullptr));
  // Re-build the serial mechanism once as the bit-identity reference.
  auto reference = mechanisms::OptimalMechanism::Create(
      eps, centers, prior, geo::UtilityMetric::kEuclidean, {});
  GEOPRIV_CHECK_OK(reference.status());
  for (int t : {2, 4, 8}) {
    creates.push_back(TimeCreate(g, eps, centers, prior, t, &*reference));
  }

  eval::Table table({"threads", "create s", "pricing s", "simplex s",
                     "violations", "speedup", "bit-identical"});
  const double serial_seconds = creates.front().seconds;
  for (const auto& r : creates) {
    table.AddRow({std::to_string(r.threads), eval::Fmt(r.seconds, 3),
                  eval::Fmt(r.stats.pricing_seconds, 3),
                  eval::Fmt(r.stats.simplex_seconds, 3),
                  std::to_string(r.stats.violations_found),
                  eval::Fmt(serial_seconds / r.seconds, 2),
                  r.bit_identical ? "yes" : "NO"});
    GEOPRIV_CHECK(r.bit_identical);
  }
  table.Print(std::cout);

  std::printf("\nPrewarm fan-out, msm g=%d, k=%d\n", prewarm_g, prewarm_k);
  std::vector<PrewarmResult> prewarms;
  for (int t : {1, 2, 4, 8}) {
    prewarms.push_back(
        TimePrewarm(workload, eps, prewarm_g, prewarm_k, t));
    std::printf("  threads=%d warmed=%d in %.3f s\n", t,
                prewarms.back().warmed, prewarms.back().seconds);
  }

  // Honest large-n record: n = large_g^2 needs an n^2-row dual basis
  // (160,000 rows at n = 400), far beyond SolverOptions::max_basis_rows —
  // the attempt is expected to fail and is reported as such rather than
  // being quietly downsized.
  const spatial::UniformGrid large(workload.dataset.domain, large_g);
  const Stopwatch large_watch;
  auto large_opt = mechanisms::OptimalMechanism::Create(
      eps, large.AllCenters(), workload.prior->OnGrid(large),
      geo::UtilityMetric::kEuclidean, {});
  const double large_seconds = large_watch.ElapsedSeconds();
  std::printf("\nLarge-n attempt, n=%d: %s (%.3f s)\n", large_g * large_g,
              large_opt.ok() ? "solved" : large_opt.status().ToString().c_str(),
              large_seconds);

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }
  const unsigned hc = std::thread::hardware_concurrency();
  unsigned max_threads = 0;
  for (const auto& r : creates)
    max_threads = std::max(max_threads, static_cast<unsigned>(r.threads));
  std::fprintf(f,
               "{\n  \"bench\": \"lp_parallel\",\n"
               "  \"n\": %d,\n  \"eps\": %g,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"multi_thread_scaling_valid\": %s,\n  \"create\": [\n",
               g * g, eps, hc, hc >= max_threads ? "true" : "false");
  for (size_t i = 0; i < creates.size(); ++i) {
    const auto& r = creates[i];
    std::fprintf(
        f,
        "    {\"threads\": %d, \"hardware_concurrency\": %u,"
        " \"scaling_valid\": %s, \"seconds\": %.4f,"
        " \"pricing_seconds\": %.4f, \"simplex_seconds\": %.4f,"
        " \"violations\": %lld, \"rounds\": %d,"
        " \"speedup_vs_serial\": %.3f, \"bit_identical\": %s}%s\n",
        r.threads, hc,
        hc >= static_cast<unsigned>(r.threads) ? "true" : "false",
        r.seconds, r.stats.pricing_seconds,
        r.stats.simplex_seconds, static_cast<long long>(
            r.stats.violations_found), r.stats.rounds,
        serial_seconds / r.seconds, r.bit_identical ? "true" : "false",
        i + 1 < creates.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"prewarm\": [\n");
  for (size_t i = 0; i < prewarms.size(); ++i) {
    const auto& r = prewarms[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"hardware_concurrency\": %u,"
                 " \"scaling_valid\": %s, \"k\": %d, \"warmed\": %d,"
                 " \"seconds\": %.4f}%s\n",
                 r.threads, hc,
                 hc >= static_cast<unsigned>(r.threads) ? "true" : "false",
                 prewarm_k, r.warmed, r.seconds,
                 i + 1 < prewarms.size() ? "," : "");
  }
  std::fprintf(
      f,
      "  ],\n  \"large_n\": {\"n\": %d, \"ok\": %s,"
      " \"seconds\": %.4f, \"status\": \"%s\"},\n"
      "  \"note\": \"speedups reflect this machine's core count; the "
      "large-n instance needs an n^2-row basis beyond "
      "max_basis_rows and is recorded as the failure it is\"\n}\n",
      large_g * large_g, large_opt.ok() ? "true" : "false", large_seconds,
      large_opt.ok() ? "solved" : large_opt.status().ToString().c_str());
  std::fclose(f);
  std::printf("\nJSON written to %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace geopriv::bench

int main(int argc, char** argv) { return geopriv::bench::Main(argc, argv); }
