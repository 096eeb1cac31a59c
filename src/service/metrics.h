// Lock-free metrics registry for the sanitization service: monotonically
// increasing atomic counters plus a fixed-bucket latency histogram with
// quantile extraction. Everything here may be hammered from every worker
// thread, so there are no locks — only relaxed atomics — and reads produce
// a consistent-enough snapshot for operational dashboards (counters may be
// a few events apart, which is the standard trade for contention-free
// recording).
//
// The registry is sharded: counters and histogram live in cache-line-
// padded per-slot copies, and recording threads write only their own slot
// (the service gives each worker its own slot and keeps slot 0 for
// submission-side events). Relaxed fetch_adds on distinct cache lines
// never contend, so recording scales with worker count; Snapshot() sums
// the slots at read time.

#ifndef GEOPRIV_SERVICE_METRICS_H_
#define GEOPRIV_SERVICE_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "base/sharded_counter.h"
#include "obs/exposition.h"

namespace geopriv::service {

// Geometric buckets (factor 2) from 1 us up; the last bucket catches
// everything beyond ~2 minutes. Quantiles interpolate within a bucket, so
// the resolution error is bounded by the bucket ratio.
class LatencyHistogram {
 public:
  static constexpr int kNumBuckets = 28;
  static constexpr double kFirstBoundSeconds = 1e-6;

  using BucketCounts = std::array<uint64_t, kNumBuckets>;

  // Corrupt samples are clamped, never dropped and never poisonous:
  // NaN/negative count as 0, +inf as the top bucket bound (so one bad
  // sample cannot make sum_seconds_ — and every later mean — non-finite).
  void Record(double seconds);

  // Quantile estimate in seconds, q in [0, 1]. Returns 0 with no samples.
  double Quantile(double q) const;

  // Adds this histogram's buckets into `counts` — how sharded registries
  // merge their per-slot histograms before extracting quantiles.
  void AccumulateBuckets(BucketCounts& counts) const;
  // The Quantile() estimator over caller-merged bucket counts.
  static double QuantileFromBuckets(const BucketCounts& counts, double q);

  uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double total_seconds() const {
    return sum_seconds_.load(std::memory_order_relaxed);
  }

  // Upper bound (seconds) of bucket i.
  static double BucketBound(int i);

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_seconds_{0.0};
};

// Plain-struct view of the registry at one instant.
struct MetricsSnapshot {
  uint64_t requests_total = 0;    // accepted into the service
  uint64_t requests_ok = 0;       // completed through the MSM path
  uint64_t requests_rejected = 0; // refused at admission (queue full)
  uint64_t requests_failed = 0;   // completed with a non-OK status
  uint64_t fallbacks_total = 0;       // degraded to planar Laplace
  uint64_t fallbacks_deadline = 0;    // ... because the deadline expired
  uint64_t fallbacks_mechanism = 0;   // ... because the MSM path failed
  // Served through the MSM path but finished past the deadline (the
  // budget was already spent, so the reply is still returned).
  uint64_t deadline_overruns = 0;
  uint64_t latency_count = 0;
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_mean_ms = 0.0;
  double latency_sum_seconds = 0.0;
  // Cumulative bucket counts (Prometheus `le` semantics):
  // latency_buckets[i] = samples <= LatencyHistogram::BucketBound(i). The
  // last bucket is open-ended, so latency_buckets.back() == latency_count.
  LatencyHistogram::BucketCounts latency_buckets{};
  // Cold-start accounting for regions registered from mmapped bundles
  // (see src/bundle/): load count, cumulative map-to-serving seconds, the
  // part of them spent in RegionBundleView::Open (map, checksum sweep,
  // structural checks), total bytes mapped, and serving-plan nodes warm
  // the moment each region went live.
  uint64_t bundle_loads = 0;
  double bundle_load_seconds = 0.0;
  double bundle_verify_seconds = 0.0;
  uint64_t bundle_bytes_mapped = 0;
  uint64_t plan_warm_at_startup = 0;
  // Background privacy/utility auditor (src/audit/): completed region
  // audits, nodes audited and guarded-out across them, drift detections,
  // audit tasks the pool refused (saturated), baseline persistence
  // failures, and cumulative audit wall clock.
  uint64_t audit_runs = 0;
  uint64_t audit_nodes_audited = 0;
  uint64_t audit_skipped_nodes = 0;
  uint64_t audit_drift_events = 0;
  uint64_t audit_tasks_rejected = 0;
  uint64_t audit_baseline_errors = 0;
  double audit_seconds = 0.0;
};

// The service scope's rows (see obs/exposition.h), walked by ToJson() and
// ToPrometheus(); the latency arrays (JSON) and histogram (Prometheus)
// follow "latency_sum_seconds".
std::vector<obs::Metric> ServiceMetrics(const MetricsSnapshot& s);

class Metrics {
 public:
  // `num_slots` padded slots (>= 1). Record* calls name the recording
  // slot; out-of-range slots are folded in with ThreadCounterSlot so a
  // caller that over- or under-provisions still records safely, just with
  // possible sharing.
  explicit Metrics(int num_slots = 1);

  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  void RecordAccepted(int slot = 0) { Inc(At(slot).requests_total); }
  void RecordRejected(int slot = 0) { Inc(At(slot).requests_rejected); }
  void RecordOk(int slot = 0) { Inc(At(slot).requests_ok); }
  void RecordFailed(int slot = 0) { Inc(At(slot).requests_failed); }
  void RecordDeadlineFallback(int slot = 0) {
    Slot& s = At(slot);
    Inc(s.fallbacks_total);
    Inc(s.fallbacks_deadline);
  }
  void RecordMechanismFallback(int slot = 0) {
    Slot& s = At(slot);
    Inc(s.fallbacks_total);
    Inc(s.fallbacks_mechanism);
  }
  void RecordDeadlineOverrun(int slot = 0) { Inc(At(slot).deadline_overruns); }
  void RecordLatency(double seconds, int slot = 0) {
    At(slot).latency.Record(seconds);
  }
  // One region registered from an mmapped bundle: `seconds` is the
  // map-to-serving wall clock, `verify_seconds` its Open share,
  // `bytes_mapped` the mapping size, `plan_nodes` the serving-plan nodes
  // warm at go-live. Registration happens on the control path, so slot 0
  // is the natural recorder.
  void RecordBundleLoad(double seconds, double verify_seconds,
                        uint64_t bytes_mapped, uint64_t plan_nodes,
                        int slot = 0) {
    Slot& s = At(slot);
    Inc(s.bundle_loads);
    s.bundle_load_seconds.fetch_add(seconds, std::memory_order_relaxed);
    s.bundle_verify_seconds.fetch_add(verify_seconds,
                                      std::memory_order_relaxed);
    s.bundle_bytes_mapped.fetch_add(bytes_mapped,
                                    std::memory_order_relaxed);
    s.plan_warm_at_startup.fetch_add(plan_nodes,
                                     std::memory_order_relaxed);
  }
  // One completed region audit pass: node counts from the report plus its
  // wall clock. Audits run on pool workers, so callers pass the worker's
  // slot when they have one.
  void RecordAuditRun(uint64_t nodes_audited, uint64_t nodes_skipped,
                      double seconds, int slot = 0) {
    Slot& s = At(slot);
    Inc(s.audit_runs);
    s.audit_nodes_audited.fetch_add(nodes_audited, std::memory_order_relaxed);
    s.audit_skipped_nodes.fetch_add(nodes_skipped, std::memory_order_relaxed);
    s.audit_seconds.fetch_add(seconds, std::memory_order_relaxed);
  }
  void RecordAuditDrift(int slot = 0) { Inc(At(slot).audit_drift_events); }
  void RecordAuditTaskRejected(int slot = 0) {
    Inc(At(slot).audit_tasks_rejected);
  }
  void RecordAuditBaselineError(int slot = 0) {
    Inc(At(slot).audit_baseline_errors);
  }

  MetricsSnapshot Snapshot() const;

  // The snapshot as a one-line JSON object (ServiceMetrics order).
  std::string ToJson() const;

  // The snapshot in the Prometheus text exposition format: the
  // ServiceMetrics families plus one cumulative histogram
  // (`<prefix>request_latency_seconds` with `le` buckets, _sum, _count).
  // `prefix` is prepended to every family name.
  std::string ToPrometheus(const std::string& prefix = "geopriv_") const;

  int num_slots() const { return static_cast<int>(slots_.size()); }

 private:
  struct alignas(kCounterSlotAlign) Slot {
    std::atomic<uint64_t> requests_total{0};
    std::atomic<uint64_t> requests_ok{0};
    std::atomic<uint64_t> requests_rejected{0};
    std::atomic<uint64_t> requests_failed{0};
    std::atomic<uint64_t> fallbacks_total{0};
    std::atomic<uint64_t> fallbacks_deadline{0};
    std::atomic<uint64_t> fallbacks_mechanism{0};
    std::atomic<uint64_t> deadline_overruns{0};
    std::atomic<uint64_t> bundle_loads{0};
    std::atomic<double> bundle_load_seconds{0.0};
    std::atomic<uint64_t> bundle_bytes_mapped{0};
    std::atomic<uint64_t> plan_warm_at_startup{0};
    std::atomic<uint64_t> audit_runs{0};
    std::atomic<uint64_t> audit_nodes_audited{0};
    std::atomic<uint64_t> audit_skipped_nodes{0};
    std::atomic<uint64_t> audit_drift_events{0};
    std::atomic<uint64_t> audit_tasks_rejected{0};
    std::atomic<uint64_t> audit_baseline_errors{0};
    std::atomic<double> audit_seconds{0.0};
    LatencyHistogram latency;
    // Control-path only; after the histogram so the fields every request
    // touches keep their offsets.
    std::atomic<double> bundle_verify_seconds{0.0};
  };

  static void Inc(std::atomic<uint64_t>& c) {
    c.fetch_add(1, std::memory_order_relaxed);
  }

  Slot& At(int slot) {
    if (slot < 0 || slot >= static_cast<int>(slots_.size())) {
      slot = ThreadCounterSlot(static_cast<int>(slots_.size()));
    }
    return slots_[static_cast<size_t>(slot)];
  }

  // vector, not array: slot count is a runtime choice (worker count + 1).
  // Constructed once, never resized — atomics stay put.
  std::vector<Slot> slots_;
};

}  // namespace geopriv::service

#endif  // GEOPRIV_SERVICE_METRICS_H_
