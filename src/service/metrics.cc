#include "service/metrics.h"

#include <algorithm>
#include <cmath>
#include <span>

namespace geopriv::service {

double LatencyHistogram::BucketBound(int i) {
  return kFirstBoundSeconds * static_cast<double>(1ull << i);
}

void LatencyHistogram::Record(double seconds) {
  if (!(seconds >= 0.0)) {
    seconds = 0.0;  // NaN or negative
  } else if (!std::isfinite(seconds)) {
    seconds = BucketBound(kNumBuckets - 1);  // +inf: clamp, don't poison
  }
  int bucket = 0;
  while (bucket < kNumBuckets - 1 && seconds > BucketBound(bucket)) {
    ++bucket;
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_seconds_.fetch_add(seconds, std::memory_order_relaxed);
}

void LatencyHistogram::AccumulateBuckets(BucketCounts& counts) const {
  for (int i = 0; i < kNumBuckets; ++i) {
    counts[static_cast<size_t>(i)] +=
        buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }
}

double LatencyHistogram::QuantileFromBuckets(const BucketCounts& counts,
                                             double q) {
  q = std::clamp(q, 0.0, 1.0);
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    const uint64_t c = counts[static_cast<size_t>(i)];
    if (c == 0) continue;
    const uint64_t next = seen + c;
    if (static_cast<double>(next) >= target) {
      // Linear interpolation inside the bucket's [lower, upper) span.
      const double lower = i == 0 ? 0.0 : BucketBound(i - 1);
      const double upper = BucketBound(i);
      const double within = (target - static_cast<double>(seen)) / c;
      return lower + within * (upper - lower);
    }
    seen = next;
  }
  return BucketBound(kNumBuckets - 1);
}

double LatencyHistogram::Quantile(double q) const {
  BucketCounts counts{};
  AccumulateBuckets(counts);
  return QuantileFromBuckets(counts, q);
}

Metrics::Metrics(int num_slots)
    : slots_(static_cast<size_t>(num_slots > 0 ? num_slots : 1)) {}

MetricsSnapshot Metrics::Snapshot() const {
  MetricsSnapshot s;
  LatencyHistogram::BucketCounts buckets{};
  double latency_sum_seconds = 0.0;
  for (const Slot& slot : slots_) {
    s.requests_total += slot.requests_total.load(std::memory_order_relaxed);
    s.requests_ok += slot.requests_ok.load(std::memory_order_relaxed);
    s.requests_rejected +=
        slot.requests_rejected.load(std::memory_order_relaxed);
    s.requests_failed += slot.requests_failed.load(std::memory_order_relaxed);
    s.fallbacks_total += slot.fallbacks_total.load(std::memory_order_relaxed);
    s.fallbacks_deadline +=
        slot.fallbacks_deadline.load(std::memory_order_relaxed);
    s.fallbacks_mechanism +=
        slot.fallbacks_mechanism.load(std::memory_order_relaxed);
    s.deadline_overruns +=
        slot.deadline_overruns.load(std::memory_order_relaxed);
    s.bundle_loads += slot.bundle_loads.load(std::memory_order_relaxed);
    s.bundle_load_seconds +=
        slot.bundle_load_seconds.load(std::memory_order_relaxed);
    s.bundle_verify_seconds +=
        slot.bundle_verify_seconds.load(std::memory_order_relaxed);
    s.bundle_bytes_mapped +=
        slot.bundle_bytes_mapped.load(std::memory_order_relaxed);
    s.plan_warm_at_startup +=
        slot.plan_warm_at_startup.load(std::memory_order_relaxed);
    s.audit_runs += slot.audit_runs.load(std::memory_order_relaxed);
    s.audit_nodes_audited +=
        slot.audit_nodes_audited.load(std::memory_order_relaxed);
    s.audit_skipped_nodes +=
        slot.audit_skipped_nodes.load(std::memory_order_relaxed);
    s.audit_drift_events +=
        slot.audit_drift_events.load(std::memory_order_relaxed);
    s.audit_tasks_rejected +=
        slot.audit_tasks_rejected.load(std::memory_order_relaxed);
    s.audit_baseline_errors +=
        slot.audit_baseline_errors.load(std::memory_order_relaxed);
    s.audit_seconds += slot.audit_seconds.load(std::memory_order_relaxed);
    s.latency_count += slot.latency.count();
    latency_sum_seconds += slot.latency.total_seconds();
    slot.latency.AccumulateBuckets(buckets);
  }
  s.latency_sum_seconds = latency_sum_seconds;
  // Per-bucket counts -> cumulative (Prometheus `le`) counts.
  uint64_t running = 0;
  for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    running += buckets[static_cast<size_t>(i)];
    s.latency_buckets[static_cast<size_t>(i)] = running;
  }
  s.latency_p50_ms = LatencyHistogram::QuantileFromBuckets(buckets, 0.50) * 1e3;
  s.latency_p90_ms = LatencyHistogram::QuantileFromBuckets(buckets, 0.90) * 1e3;
  s.latency_p99_ms = LatencyHistogram::QuantileFromBuckets(buckets, 0.99) * 1e3;
  s.latency_mean_ms =
      s.latency_count == 0
          ? 0.0
          : latency_sum_seconds / static_cast<double>(s.latency_count) * 1e3;
  return s;
}

std::vector<obs::Metric> ServiceMetrics(const MetricsSnapshot& s) {
  using enum obs::MetricKind;
  return {
      {"requests_total", kCounter, s.requests_total},
      {"requests_ok", kCounter, s.requests_ok},
      {"requests_rejected", kCounter, s.requests_rejected},
      {"requests_failed", kCounter, s.requests_failed},
      {"fallbacks_total", kCounter, s.fallbacks_total},
      {"fallbacks_deadline", kCounter, s.fallbacks_deadline},
      {"fallbacks_mechanism", kCounter, s.fallbacks_mechanism},
      {"deadline_overruns", kCounter, s.deadline_overruns},
      {"latency_count", kJsonOnly, s.latency_count},
      {"latency_p50_ms", kJsonOnly, s.latency_p50_ms},
      {"latency_p90_ms", kJsonOnly, s.latency_p90_ms},
      {"latency_p99_ms", kJsonOnly, s.latency_p99_ms},
      {"latency_mean_ms", kJsonOnly, s.latency_mean_ms},
      {"latency_sum_seconds", kJsonOnly, s.latency_sum_seconds},
      {"bundle_loads", kCounter, s.bundle_loads},
      {"bundle_load_seconds", kGauge, s.bundle_load_seconds},
      {"bundle_verify_seconds", kGauge, s.bundle_verify_seconds},
      {"bundle_bytes_mapped", kGauge, s.bundle_bytes_mapped},
      {"plan_warm_at_startup", kGauge, s.plan_warm_at_startup},
      {"audit_runs", kCounter, s.audit_runs},
      {"audit_nodes_audited", kCounter, s.audit_nodes_audited},
      {"audit_skipped_nodes", kCounter, s.audit_skipped_nodes},
      {"audit_drift_events", kCounter, s.audit_drift_events},
      {"audit_tasks_rejected", kCounter, s.audit_tasks_rejected},
      {"audit_baseline_errors", kCounter, s.audit_baseline_errors},
      {"audit_seconds", kGauge, s.audit_seconds},
  };
}

// Rows before the latency arrays / histogram (latency rows are JSON-only).
constexpr size_t kLatencyArraysAt = 14;

std::string Metrics::ToJson() const {
  const MetricsSnapshot s = Snapshot();
  const std::vector<obs::Metric> rows = ServiceMetrics(s);
  std::string json = "{";
  obs::AppendJson(json, std::span(rows).first(kLatencyArraysAt));
  // Bucket upper bounds (seconds; the last bucket is open-ended, its bound
  // here is nominal) and the matching cumulative counts, whose last entry
  // equals latency_count.
  json += ",\"latency_bucket_le_s\":[";
  for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    if (i > 0) json += ',';
    obs::Value(LatencyHistogram::BucketBound(i)).AppendTo(json, obs::kG9);
  }
  json += "],\"latency_buckets_cumulative\":[";
  for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    if (i > 0) json += ',';
    json += std::to_string(s.latency_buckets[static_cast<size_t>(i)]);
  }
  json += "]";
  obs::AppendJson(json, std::span(rows).subspan(kLatencyArraysAt));
  json += "}";
  return json;
}

std::string Metrics::ToPrometheus(const std::string& prefix) const {
  const MetricsSnapshot s = Snapshot();
  const std::vector<obs::Metric> rows = ServiceMetrics(s);
  std::string out;
  out.reserve(4096);
  obs::AppendPrometheus(out, prefix, std::span(rows).first(kLatencyArraysAt),
                        obs::kFixed9);
  const std::string hist = prefix + "request_latency_seconds";
  out += "# TYPE " + hist + " histogram\n";
  // The top bucket is the histogram's overflow bucket, so its exposition
  // bound is +Inf (not the nominal BucketBound of the last slot).
  for (int i = 0; i < LatencyHistogram::kNumBuckets - 1; ++i) {
    out += hist + "_bucket{le=\"";
    obs::Value(LatencyHistogram::BucketBound(i)).AppendTo(out, obs::kG9);
    out += "\"} " +
           std::to_string(s.latency_buckets[static_cast<size_t>(i)]) + "\n";
  }
  const std::string count = std::to_string(s.latency_count);
  out += hist + "_bucket{le=\"+Inf\"} " + count + "\n" + hist + "_sum ";
  obs::Value(s.latency_sum_seconds).AppendTo(out, obs::kFixed9);
  out += "\n" + hist + "_count " + count + "\n";
  obs::AppendPrometheus(out, prefix, std::span(rows).subspan(kLatencyArraysAt),
                        obs::kFixed9);
  return out;
}

}  // namespace geopriv::service
