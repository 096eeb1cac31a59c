// Node-cache lifecycle: serving cost of the three cache regimes on one
// region — unbounded (the pre-budget behaviour), bounded (cost-aware LRU
// eviction at half the unbounded footprint), and prewarmed (top
// prior-mass nodes solved at registration, before first traffic). For
// each regime the bench reports cold/warm hit rate, p50/p99 latency,
// resident bytes, evictions, and LP solves. Results go to stdout as a
// table and to --json (default BENCH_cache.json).
//
// Flags:
//   --threads N           worker-pool size (default 4)
//   --requests N          requests per measurement batch (default 2000)
//   --eps E               privacy budget (default 0.5)
//   --g G                 index fanout (default 3: a two-step walk over
//                         10 internal nodes, so eviction has targets)
//   --budget_bytes B      bounded-regime budget; 0 = half the unbounded
//                         resident footprint, measured first (default 0)
//   --json PATH           output JSON path (default BENCH_cache.json)

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

struct RegimeResult {
  std::string name;
  BatchMeasurement cold, warm;
  double register_seconds = 0.0;  // includes prewarm solves, if any
  int prewarmed_nodes = 0;
  int64_t lp_solves = 0;
  double hit_rate = 0.0;
  size_t cache_size = 0;
  size_t bytes_resident = 0;
  size_t byte_budget = 0;
  uint64_t evictions = 0;
};

RegimeResult RunRegime(const std::string& name, int threads,
                       const service::RegionConfig& region,
                       const std::vector<core::LatLon>& queries) {
  service::ServiceOptions options;
  options.num_workers = threads;
  options.queue_capacity = queries.size() + 16;
  options.seed = 20190326;
  auto service = service::SanitizationService::Create(options);
  GEOPRIV_CHECK_OK(service.status());

  RegimeResult r;
  r.name = name;
  Stopwatch watch;
  GEOPRIV_CHECK_OK((*service)->RegisterRegion("austin", region));
  r.register_seconds = watch.ElapsedSeconds();
  r.cold = RunBatch(**service, queries);
  r.warm = RunBatch(**service, queries);
  const auto info = (*service)->GetRegionInfo("austin");
  GEOPRIV_CHECK_OK(info.status());
  r.prewarmed_nodes = info->prewarmed_nodes;
  r.lp_solves = info->msm.lp_solves;
  r.hit_rate = info->msm.cache_hit_rate;
  r.cache_size = info->cache_size;
  r.bytes_resident = static_cast<size_t>(info->msm.cache_bytes_resident);
  r.byte_budget = info->cache_byte_budget;
  r.evictions = static_cast<uint64_t>(info->msm.cache_evictions);
  std::printf(
      "%-10s cold %.0f qps / warm %.0f qps, hit rate %.3f, "
      "%zu B resident, %llu evictions\n",
      name.c_str(), r.cold.qps, r.warm.qps, r.hit_rate, r.bytes_resident,
      static_cast<unsigned long long>(r.evictions));
  return r;
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int threads = flags.GetInt("threads", 4);
  const int requests = flags.GetInt("requests", 2000);
  const double eps = flags.GetDouble("eps", 0.5);
  const int g = flags.GetInt("g", 3);
  size_t budget_bytes =
      static_cast<size_t>(flags.GetInt("budget_bytes", 0));
  const std::string json_path = flags.GetString("json", "BENCH_cache.json");

  service::RegionConfig region;
  region.min_lat = kAustinMinLat;
  region.min_lon = kAustinMinLon;
  region.max_lat = kAustinMaxLat;
  region.max_lon = kAustinMaxLon;
  region.eps = eps;
  region.granularity = g;
  region.prior_granularity = 32;

  const auto queries = MakeQueries(requests);
  std::vector<RegimeResult> regimes;

  // Unbounded first: its resident footprint calibrates the bounded
  // regime's default budget and the prewarm node count.
  regimes.push_back(RunRegime("unbounded", threads, region, queries));
  if (budget_bytes == 0) budget_bytes = regimes[0].bytes_resident / 2;

  service::RegionConfig bounded = region;
  bounded.cache_byte_budget = budget_bytes;
  regimes.push_back(RunRegime("bounded", threads, bounded, queries));

  service::RegionConfig prewarmed = region;
  prewarmed.prewarm_nodes = static_cast<int>(regimes[0].cache_size);
  regimes.push_back(RunRegime("prewarmed", threads, prewarmed, queries));

  std::printf("\nNode-cache lifecycle (threads=%d, requests=%d, eps=%g, "
              "g=%d, budget=%zu B)\n",
              threads, requests, eps, g, budget_bytes);
  eval::Table table({"regime", "cold p99 ms", "warm p50 ms", "warm p99 ms",
                     "hit rate", "LP solves", "resident B", "evictions"});
  for (const auto& r : regimes) {
    table.AddRow({r.name, eval::Fmt(r.cold.p99_ms, 3),
                  eval::Fmt(r.warm.p50_ms, 3), eval::Fmt(r.warm.p99_ms, 3),
                  eval::Fmt(r.hit_rate, 4), std::to_string(r.lp_solves),
                  std::to_string(r.bytes_resident),
                  std::to_string(r.evictions)});
  }
  table.Print(std::cout);

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"cache_lifecycle\",\n"
               "  \"threads\": %d,\n  \"requests\": %d,\n  \"eps\": %g,\n"
               "  \"granularity\": %d,\n  \"budget_bytes\": %zu,\n"
               "  \"hardware_concurrency\": %u,\n  \"regimes\": [\n",
               threads, requests, eps, g, budget_bytes,
               std::thread::hardware_concurrency());
  for (size_t i = 0; i < regimes.size(); ++i) {
    const auto& r = regimes[i];
    std::fprintf(
        f,
        "    {\"regime\": \"%s\","
        " \"register_s\": %.4f, \"prewarmed_nodes\": %d,"
        " \"cold\": {\"qps\": %.2f, \"p50_ms\": %.4f, \"p99_ms\": %.4f},"
        " \"warm\": {\"qps\": %.2f, \"p50_ms\": %.4f, \"p99_ms\": %.4f},"
        " \"lp_solves\": %lld, \"hit_rate\": %.4f, \"cache_size\": %zu,"
        " \"bytes_resident\": %zu, \"byte_budget\": %zu,"
        " \"evictions\": %llu}%s\n",
        r.name.c_str(), r.register_seconds, r.prewarmed_nodes, r.cold.qps,
        r.cold.p50_ms, r.cold.p99_ms, r.warm.qps, r.warm.p50_ms,
        r.warm.p99_ms, static_cast<long long>(r.lp_solves), r.hit_rate,
        r.cache_size, r.bytes_resident, r.byte_budget,
        static_cast<unsigned long long>(r.evictions),
        i + 1 < regimes.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nJSON written to %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace geopriv::bench

int main(int argc, char** argv) { return geopriv::bench::Main(argc, argv); }
