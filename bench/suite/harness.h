// Shared pieces of the benchmark of record (geopriv_bench): order
// statistics, the host-speed scaling, the open-loop arrival schedule, the
// metric tables that BENCHMARK.json declares, and the one-line result
// writer. Header-only so the harness and its self-test compile the exact
// same definitions.

#ifndef GEOPRIV_BENCH_SUITE_HARNESS_H_
#define GEOPRIV_BENCH_SUITE_HARNESS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "base/status.h"
#include "rng/rng.h"

namespace geopriv::bench::suite {

// Rounded-rank percentile of an ascending vector (q in [0, 1]); 0 when
// empty. The same estimator the older per-figure benches use.
inline double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t last = sorted.size() - 1;
  const size_t idx =
      static_cast<size_t>(q * static_cast<double>(last) + 0.5);
  return sorted[std::min(idx, last)];
}

// Middle value; the mean of the two middle values for an even count.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// Arithmetic mean; 0 when empty.
inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

struct Quartiles {
  double q1 = 0.0, median = 0.0, q3 = 0.0;
};

// Python's statistics.quantiles(v, n=4) (the default "exclusive" method),
// which is how spreads across runs are judged. Needs at least two values.
inline Quartiles QuartilesOf(std::vector<double> v) {
  Quartiles out;
  if (v.size() < 2) {
    if (!v.empty()) out.q1 = out.median = out.q3 = v[0];
    return out;
  }
  std::sort(v.begin(), v.end());
  const size_t ld = v.size();
  const size_t m = ld + 1;
  double cut[3];
  for (size_t i = 1; i <= 3; ++i) {
    const size_t j = std::clamp<size_t>(i * m / 4, 1, ld - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    cut[i - 1] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  }
  out.q1 = cut[0];
  out.median = cut[1];
  out.q3 = cut[2];
  return out;
}

// (q3 - q1) / median: the spread measure the bounds are judged against.
inline double IqrShare(const std::vector<double>& v) {
  const Quartiles q = QuartilesOf(v);
  return q.median != 0.0 ? (q.q3 - q.q1) / std::abs(q.median) : 0.0;
}

// The host-speed probe's time (ms) on the calibration VM in its fastest
// stretches; lifecycle.h, "Host speed".
inline constexpr double kReferenceProbeMs = 4.0;

// Turns an own time into time at reference speed: kReferenceProbeMs over
// the mean of the probes taken at the checkpoints around the interval.
// Rates divide by it. 1 when no probe ran.
inline double SpeedFactor(std::initializer_list<double> probe_ms) {
  double sum = 0.0;
  for (const double ms : probe_ms) sum += ms;
  return sum > 0.0
             ? kReferenceProbeMs * static_cast<double>(probe_ms.size()) / sum
             : 1.0;
}

// Send offsets (ns from the window start) of a Poisson process at
// `rate_per_s` over `seconds`: exponential gaps drawn from a seeded Rng,
// so one seed always yields the same schedule.
inline std::vector<uint64_t> PoissonSchedule(double rate_per_s,
                                             double seconds, uint64_t seed) {
  std::vector<uint64_t> out;
  if (!(rate_per_s > 0.0) || !(seconds > 0.0)) return out;
  out.reserve(static_cast<size_t>(rate_per_s * seconds * 1.05) + 16);
  rng::Rng rng(seed);
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.Uniform()) / rate_per_s;
    if (t >= seconds) break;
    out.push_back(static_cast<uint64_t>(t * 1e9));
  }
  return out;
}

struct MetricDef {
  const char* name;
  const char* unit;
  // Per-layer metrics only: the end-to-end metrics this one should move
  // ("none" when it is reported, not predictive) and the workloads on
  // which it should move them, comma-separated. BENCHMARK.json holds only
  // name, unit and direction; the self-test checks these against the
  // names it declares.
  const char* moves = "";
  const char* on = "";
};

// Printed by untraced runs (--trace 0). BENCHMARK.json declares the same
// names, units, directions and bounds; the self-test keeps them in sync.
inline constexpr MetricDef kEndToEndMetrics[] = {
    {"setup_s", "s"},      {"peak_qps", "req/s"},   {"utility_loss_km", "km"},
    {"build_s", "s"},      {"cold_start_ms", "ms"}, {"onboard_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Printed by traced runs (--trace 1). Names are <module>.<quantity>; each
// is measured from bench code around calls into that module's public
// functions (or read from the counters the module already exports).
inline constexpr MetricDef kPerLayerMetrics[] = {
    {"service.submit_us.p50", "us", "peak_qps", "serve_hot"},
    {"service.submit_us.p99", "us", "peak_qps", "serve_hot"},
    {"service.queue_wait_us.p50", "us", "none", "serve_hot,serve_churn"},
    {"service.queue_wait_us.p99", "us", "none", "serve_hot,serve_churn"},
    {"service.requests", "count", "none", "serve_tenants"},
    {"service.ok", "count", "none", "serve_tenants"},
    {"service.rejected", "count", "none", "serve_tenants"},
    {"service.failed", "count", "none", "serve_tenants"},
    {"service.fallbacks_deadline", "count", "utility_loss_km",
     "serve_tenants"},
    {"service.fallbacks_mechanism", "count", "utility_loss_km",
     "serve_tenants"},
    {"service.fallback_ratio", "fraction", "utility_loss_km",
     "serve_tenants"},
    {"service.error_ratio", "fraction", "none", "serve_tenants"},
    {"service.register_s.p50", "s", "onboard_s,setup_s",
     "serve_churn,serve_hot"},
    {"service.load_bundle_ms.p50", "ms", "cold_start_ms,setup_s",
     "build_and_load"},
    {"service.first_reply_ms.p50", "ms", "cold_start_ms",
     "build_and_load,serve_tenants"},
    {"service.scrape_ms.p99", "ms", "none", "serve_churn"},
    {"service.generator_late_ms.p99", "ms", "none",
     "serve_hot,serve_tenants,serve_churn"},
    {"service.generator_late_ms.max", "ms", "none",
     "serve_hot,serve_tenants,serve_churn"},
    {"service.peak_retries", "count", "peak_qps", "serve_hot"},
    {"core.walk_us.p50", "us", "peak_qps", "serve_hot"},
    {"core.walk_us.p99", "us", "peak_qps", "serve_hot"},
    {"core.plan_levels", "count", "utility_loss_km", "serve_tenants"},
    {"core.fallthrough_levels", "count", "utility_loss_km",
     "serve_tenants"},
    {"core.plan_level_ratio", "fraction", "utility_loss_km",
     "serve_tenants"},
    {"core.lp_solves_serving", "count", "utility_loss_km,peak_qps",
     "serve_tenants"},
    {"core.cache_hit_rate", "fraction", "utility_loss_km,peak_qps",
     "serve_tenants"},
    {"core.singleflight_waits", "count", "utility_loss_km", "serve_tenants"},
    {"core.builder_s", "s", "build_s,setup_s", "build_and_load"},
    {"core.prewarm_s", "s", "build_s,setup_s", "build_and_load"},
    {"lp.solves", "count", "build_s,onboard_s",
     "build_and_load,serve_churn"},
    {"lp.seconds", "s", "build_s,onboard_s", "build_and_load,serve_churn"},
    {"lp.pricing_s", "s", "build_s,onboard_s", "build_and_load,serve_churn"},
    {"lp.simplex_s", "s", "build_s,onboard_s", "build_and_load,serve_churn"},
    {"lp.refactor_s", "s", "build_s,onboard_s",
     "build_and_load,serve_churn"},
    {"lp.solve_ms.n9.p50", "ms", "build_s", "build_and_load"},
    {"lp.solve_ms.n9.p99", "ms", "build_s", "build_and_load"},
    {"lp.solve_ms.n16.p50", "ms", "build_s,onboard_s",
     "build_and_load,serve_churn"},
    {"lp.solve_ms.n16.p99", "ms", "build_s,onboard_s",
     "build_and_load,serve_churn"},
    {"lp.solve_ms.n25.p50", "ms", "build_s", "build_and_load"},
    {"lp.solve_ms.n25.p99", "ms", "build_s", "build_and_load"},
    {"lp.simplex_iterations", "count", "build_s", "build_and_load"},
    {"lp.refactorizations", "count", "build_s", "build_and_load"},
    {"lp.rounds", "count", "build_s", "build_and_load"},
    {"mechanisms.alias_draw_ns.p50", "ns", "peak_qps", "serve_hot"},
    {"mechanisms.fallback_us.p50", "us", "peak_qps", "serve_tenants"},
    {"bundle.write_ms", "ms", "build_s", "build_and_load"},
    {"bundle.open_ms.p50", "ms", "cold_start_ms", "build_and_load"},
    {"bundle.rehydrate_ms.p50", "ms", "cold_start_ms", "build_and_load"},
    {"bundle.bytes", "bytes", "peak_rss_mb,cold_start_ms", "build_and_load"},
    {"audit.region_ms.p50", "ms", "none", "build_and_load"},
    {"audit.passes", "count", "none", "serve_churn"},
    {"audit.seconds", "s", "none", "serve_churn"},
    {"obs.trace_overhead", "ratio", "none", "serve_hot"},
    {"obs.unattributed_us.p50", "us", "none", "serve_hot"},
};

// The last stdout line of a run: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}} with the metrics in table order
// and every value printed with all its digits. Fails when a declared
// metric has no value or a non-finite one, so a run can never print a
// partial result.
inline StatusOr<std::string> ResultLine(
    bool correct, uint64_t attempted, uint64_t failed,
    std::span<const MetricDef> defs,
    const std::map<std::string, double>& values) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                ", \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
  out += buf;
  bool first = true;
  for (const MetricDef& def : defs) {
    const auto it = values.find(def.name);
    if (it == values.end()) {
      return Status::Internal(std::string("metric not measured: ") +
                              def.name);
    }
    if (!std::isfinite(it->second)) {
      return Status::Internal(std::string("metric not finite: ") + def.name);
    }
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", def.name, it->second, def.unit);
    out += buf;
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace geopriv::bench::suite

#endif  // GEOPRIV_BENCH_SUITE_HARNESS_H_
