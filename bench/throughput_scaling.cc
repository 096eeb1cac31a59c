// Service throughput scaling: QPS and tail latency of SanitizationService
// as a function of worker-pool size, with a cold node cache (every request
// wave pays LP solves) and a warm one (pure serving path). Results go to
// stdout as a table and to --json (default BENCH_service.json).
//
// Flags:
//   --threads "1,2,4,8"   comma-separated worker counts to sweep
//   --requests N          requests per measurement batch (default 2000)
//   --eps E               privacy budget (default 0.5)
//   --g G                 index fanout (default 3)
//   --json PATH           output JSON path (default BENCH_service.json)
//
// The sweep runs on one process; real speedups require real cores, so the
// JSON records hardware_concurrency alongside each data point.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/check.h"
#include "base/stopwatch.h"
#include "bench/bench_util.h"
#include "eval/table.h"
#include "service/sanitization_service.h"

namespace geopriv::bench {
namespace {

struct BatchMeasurement {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double wall_seconds = 0.0;
};

BatchMeasurement RunBatch(service::SanitizationService& service,
                          const std::vector<core::LatLon>& queries) {
  Stopwatch watch;
  const auto results = service.SanitizeBatch("austin", queries);
  BatchMeasurement m;
  m.wall_seconds = watch.ElapsedSeconds();
  std::vector<double> latencies;
  latencies.reserve(results.size());
  for (const auto& r : results) {
    GEOPRIV_CHECK_OK(r.status);
    latencies.push_back(r.latency_ms);
  }
  std::sort(latencies.begin(), latencies.end());
  m.qps = m.wall_seconds > 0 ? queries.size() / m.wall_seconds : 0.0;
  m.p50_ms = Percentile(latencies, 0.50);
  m.p99_ms = Percentile(latencies, 0.99);
  return m;
}

struct DataPoint {
  int threads = 0;
  BatchMeasurement cold, warm;
  // LP construction CPU-seconds paid during the cold batch (summed over
  // workers, so it can exceed cold wall time on multi-core runs). Cold
  // request latency bundles queueing + build + walk; this splits the
  // one-time build cost out so the cold/warm gap is attributable.
  double cold_lp_build_s = 0.0;
  int64_t lp_solves = 0;
  int64_t cache_hits = 0;
  size_t cache_size = 0;
  uint64_t singleflight_waits = 0;
};

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::vector<int> thread_counts =
      ParseThreadList(flags.GetString("threads", "1,2,4,8"));
  const int requests = flags.GetInt("requests", 2000);
  const double eps = flags.GetDouble("eps", 0.5);
  const int g = flags.GetInt("g", 3);
  const std::string json_path = flags.GetString("json", "BENCH_service.json");

  service::RegionConfig region;
  region.min_lat = kAustinMinLat;
  region.min_lon = kAustinMinLon;
  region.max_lat = kAustinMaxLat;
  region.max_lon = kAustinMaxLon;
  region.eps = eps;
  region.granularity = g;
  region.prior_granularity = 32;

  const auto queries = MakeQueries(requests);
  std::vector<DataPoint> points;
  for (int threads : thread_counts) {
    service::ServiceOptions options;
    options.num_workers = threads;
    options.queue_capacity = static_cast<size_t>(requests) + 16;
    options.seed = 20190326;
    auto service = service::SanitizationService::Create(options);
    GEOPRIV_CHECK_OK(service.status());
    GEOPRIV_CHECK_OK((*service)->RegisterRegion("austin", region));

    DataPoint point;
    point.threads = threads;
    point.cold = RunBatch(**service, queries);  // pays LP solves
    {
      const auto cold_info = (*service)->GetRegionInfo("austin");
      GEOPRIV_CHECK_OK(cold_info.status());
      point.cold_lp_build_s = cold_info->msm.lp_seconds;
    }
    point.warm = RunBatch(**service, queries);  // pure serving path
    const auto info = (*service)->GetRegionInfo("austin");
    GEOPRIV_CHECK_OK(info.status());
    point.lp_solves = info->msm.lp_solves;
    point.cache_hits = info->msm.cache_hits;
    point.cache_size = info->cache_size;
    point.singleflight_waits = info->singleflight_waits;
    points.push_back(point);
    std::printf("threads=%d done (cold %.0f qps, warm %.0f qps)\n", threads,
                point.cold.qps, point.warm.qps);
  }

  std::printf("\nService throughput scaling (requests=%d, eps=%g, g=%d)\n",
              requests, eps, g);
  eval::Table table({"threads", "cold QPS", "cold p99 ms", "LP build s",
                     "warm QPS", "warm p50 ms", "warm p99 ms", "LP solves",
                     "hit rate"});
  for (const auto& p : points) {
    const double lookups =
        static_cast<double>(p.cache_hits + p.lp_solves);
    const double hit_rate = lookups > 0 ? p.cache_hits / lookups : 0.0;
    table.AddRow({std::to_string(p.threads), eval::Fmt(p.cold.qps, 1),
                  eval::Fmt(p.cold.p99_ms, 3),
                  eval::Fmt(p.cold_lp_build_s, 4), eval::Fmt(p.warm.qps, 1),
                  eval::Fmt(p.warm.p50_ms, 3), eval::Fmt(p.warm.p99_ms, 3),
                  std::to_string(p.lp_solves), eval::Fmt(hit_rate, 3)});
  }
  table.Print(std::cout);
  const unsigned hc = std::thread::hardware_concurrency();
  int max_threads = 0;
  for (const auto& p : points) max_threads = std::max(max_threads, p.threads);
  const bool scaling_valid = hc >= static_cast<unsigned>(max_threads);
  if (!scaling_valid) {
    std::printf(
        "NOTE: hardware_concurrency=%u < max swept threads=%d — "
        "multi-thread QPS deltas measure queueing overhead, not parallel "
        "scaling.\n",
        hc, max_threads);
  }

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"throughput_scaling\",\n"
               "  \"requests\": %d,\n  \"eps\": %g,\n  \"granularity\": %d,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"multi_thread_scaling_valid\": %s,\n  \"points\": [\n",
               requests, eps, g, hc, scaling_valid ? "true" : "false");
  for (size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    const double lookups = static_cast<double>(p.cache_hits + p.lp_solves);
    std::fprintf(
        f,
        "    {\"threads\": %d, \"hardware_concurrency\": %u,"
        " \"scaling_valid\": %s,"
        " \"cold\": {\"qps\": %.2f, \"p50_ms\": %.4f, \"p99_ms\": %.4f,"
        " \"wall_s\": %.4f, \"lp_build_cpu_s\": %.4f},"
        " \"warm\": {\"qps\": %.2f, \"p50_ms\": %.4f, \"p99_ms\": %.4f,"
        " \"wall_s\": %.4f},"
        " \"lp_solves\": %lld, \"cache_hits\": %lld, \"cache_size\": %zu,"
        " \"singleflight_waits\": %llu, \"cache_hit_rate\": %.4f}%s\n",
        p.threads, hc,
        hc >= static_cast<unsigned>(p.threads) ? "true" : "false",
        p.cold.qps, p.cold.p50_ms, p.cold.p99_ms, p.cold.wall_seconds,
        p.cold_lp_build_s, p.warm.qps, p.warm.p50_ms, p.warm.p99_ms,
        p.warm.wall_seconds, static_cast<long long>(p.lp_solves),
        static_cast<long long>(p.cache_hits), p.cache_size,
        static_cast<unsigned long long>(p.singleflight_waits),
        lookups > 0 ? p.cache_hits / lookups : 0.0,
        i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nJSON written to %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace geopriv::bench

int main(int argc, char** argv) { return geopriv::bench::Main(argc, argv); }
