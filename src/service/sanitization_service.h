// SanitizationService: the concurrent serving engine over the library's
// mechanisms. One process-wide service owns
//
//  * a fixed-size worker pool (base/thread_pool.h) fed by a bounded MPMC
//    sequence ring — admission control rejects submissions when the queue
//    is full instead of building an unbounded backlog;
//  * a multi-tenant region registry: one mechanism stack (projection,
//    prior, hierarchical index, MSM with a shared singleflight node cache)
//    per study region, keyed by region id. The registry is epoch-published:
//    register/unregister copy the map and publish a new immutable snapshot
//    and its epoch under a writer-only mutex. Each worker pins the
//    snapshot it last served from, and the serving plan it last walked,
//    and reloads them only when a plain atomic load of the registry epoch,
//    or of the region's cache generation, shows a change: a warm request
//    takes no mutex and no shared refcount. A worker's pins may keep an
//    unregistered region, or an evicted matrix, alive until that worker's
//    next request, never longer, and a request submitted after
//    UnregisterRegion() returned never serves the region;
//  * split in-flight counts: submitters count admissions, each worker
//    counts its completions in a padded slot of its own, and Drain() sums
//    them, woken only while it waits;
//  * one deterministic RNG stream per worker (service seed ⊕ a per-worker
//    stream constant), so a run is reproducible per worker without any
//    cross-thread RNG locking;
//  * graceful degradation: when a request's deadline expires in the queue,
//    or the MSM path fails (e.g. an LP time limit), the worker falls back
//    to planar Laplace remapped onto the region's leaf grid, spending the
//    whole budget eps in one draw, and counts it in the metrics, never
//    silently. A deadline fallback, taken before any walk, is
//    eps-GeoInd by planar Laplace plus post-processing. A fallback after
//    the walk has drawn at some level spends eps again on top of what the
//    path spent, and neither it nor the composed walk is proven
//    eps-GeoInd (DESIGN.md §8, "Privacy argument");
//  * a service::Metrics registry (request/fallback counters + latency
//    histogram) dumped as JSON by MetricsJson().
//
// One way in: SubmitAsync() enqueues one request with a completion
// callback, and SubmitFuture() is the future-shaped wrapper over it.
// Neither blocks; a caller with many locations submits each one.

#ifndef GEOPRIV_SERVICE_SANITIZATION_SERVICE_H_
#define GEOPRIV_SERVICE_SANITIZATION_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "audit/audit.h"
#include "audit/baseline.h"
#include "base/sharded_counter.h"
#include "base/status.h"
#include "base/stopwatch.h"
#include "base/thread_pool.h"
#include "core/location_sanitizer.h"
#include "mechanisms/planar_laplace.h"
#include "obs/exposition.h"
#include "obs/trace.h"
#include "service/metrics.h"

namespace geopriv::service {

// One study region (tenant). Mirrors LocationSanitizer::Builder's knobs.
struct RegionConfig {
  // Lat/lon box: south-west / north-east corners. Required.
  double min_lat = 0.0, min_lon = 0.0, max_lat = 0.0, max_lon = 0.0;
  // Total privacy budget (required, > 0).
  double eps = 0.0;
  int granularity = 4;
  double rho = 0.8;
  int prior_granularity = 128;
  // Historical check-ins shaping the prior (uniform when empty).
  std::vector<core::LatLon> checkins;
  geo::UtilityMetric metric = geo::UtilityMetric::kEuclidean;
  // Wall-clock cap per node LP solve; a solve that exceeds it makes the
  // request degrade to the planar-Laplace fallback. 0 = unlimited.
  double lp_time_limit_seconds = 0.0;
  // Byte budget for the region's resident per-node OPT matrices; past it
  // the node cache evicts least-recently-used unpinned entries (a matrix
  // in use by a worker is pinned and never freed under it). 0 = unbounded.
  size_t cache_byte_budget = 0;
  // Pre-solve the LPs of this many top-prior-mass index nodes at
  // registration time, so first traffic hits a warm cache. Best-effort:
  // a prewarm solve failure (e.g. an LP time limit) degrades to lazy
  // solving instead of failing the registration. 0 = off.
  int prewarm_nodes = 0;
};

struct ServiceOptions {
  int num_workers = 4;
  size_t queue_capacity = 1024;
  // Base seed; worker w draws from the stream WorkerSeed(seed, w).
  uint64_t seed = 0x5EED5EED5EEDull;
  // Applied to requests that do not set their own deadline. 0 = none.
  double default_deadline_ms = 0.0;
  // Request tracing / flight recording. trace.sample_one_in == 0 (the
  // default) disables tracing entirely: no recorder is built and every
  // instrumentation site costs one thread-local load and a branch.
  obs::TraceOptions trace;
  // Background privacy/utility auditor (src/audit/). With a cadence > 0 a
  // dedicated low-priority scheduler thread wakes every cadence_seconds
  // and fans one audit task per registered region onto the worker pool via
  // TrySubmit — a saturated pool skips the region (counted in
  // audit_tasks_rejected) instead of starving request workers.
  struct AuditorOptions {
    // Seconds between audit passes; 0 (default) disables the thread.
    // AuditRegionNow() works either way.
    double cadence_seconds = 0.0;
    // Baseline persistence (crash-atomic). Empty = in-memory only: the
    // first audit of each region seeds its baseline for the process
    // lifetime.
    std::string baseline_path;
    // Solve cold nodes during audits. Off (default) audits only resident
    // mechanisms, so a background pass never pays LP work; on gives full
    // coverage (CLI / rollout gating).
    bool audit_cold_nodes = false;
  } auditor;
};

// Knobs of LoadRegionFromBundle — the serve-tier half of the build/serve
// split. Everything geometric (region box, eps, granularity, rho, prior,
// metric, per-level budgets, solved mechanisms) comes from the bundle
// itself; only serving-local policy lives here.
struct BundleRegionOptions {
  // Byte budget for the region's node cache. Mechanisms published from
  // the mapping count their owned bytes only (the matrices stay in the
  // file-backed mapping), so a budget here mainly bounds cold-node
  // rebuilds. 0 = unbounded.
  size_t cache_byte_budget = 0;
  // Wall-clock cap per cold-node LP solve (bundle misses only; bundled
  // nodes never solve). 0 = unlimited.
  double lp_time_limit_seconds = 0.0;
};

struct SanitizeRequest {
  std::string region_id;
  core::LatLon location;
  // Measured from submission; past it the request degrades to the
  // planar-Laplace fallback. 0 = use the service default.
  double deadline_ms = 0.0;
};

struct SanitizeResult {
  // Non-OK only when the request could not be served at all (unknown
  // region, refused at admission: queue full or service shut down).
  // Fallback replies are OK.
  Status status;
  core::LatLon reported;
  bool used_fallback = false;
  // Served through the MSM path but completed past the request's
  // deadline (the budget was already spent, so the reply is returned
  // anyway; also counted in Metrics::deadline_overruns).
  bool deadline_overrun = false;
  double latency_ms = 0.0;  // submission -> completion
  int worker_id = -1;
};

class SanitizationService {
 public:
  using Callback = std::function<void(const SanitizeResult&)>;

  static StatusOr<std::unique_ptr<SanitizationService>> Create(
      const ServiceOptions& options);

  // Drains in-flight requests and joins the workers.
  ~SanitizationService();

  SanitizationService(const SanitizationService&) = delete;
  SanitizationService& operator=(const SanitizationService&) = delete;

  // Builds the region's mechanism stack (prior, index, MSM, fallback).
  // Fails on invalid config or duplicate id. The id is reserved *before*
  // the (potentially expensive) build, so a duplicate — sequential or
  // concurrent — fails fast without paying the build; the reservation is
  // released if the build fails. Per-node LPs are solved lazily on first
  // traffic unless `config.prewarm_nodes` asks for warmup here.
  Status RegisterRegion(const std::string& region_id,
                        const RegionConfig& config);

  // Registers a region from a bundle (see src/bundle/): mmaps `path`,
  // publishes every stored mechanism into the node cache as zero-copy
  // views over the mapping, and goes live with a warm serving plan and
  // zero LP solves — the cold-start path of the build/serve split.
  // Same reservation/duplicate semantics as RegisterRegion; also records
  // Metrics::RecordBundleLoad, with Open's share (map, checksum sweep,
  // structural checks) as the verify time. The mapping stays pinned
  // while the region (or any in-flight request that resolved it) is
  // alive.
  Status LoadRegionFromBundle(const std::string& region_id,
                              const std::string& path,
                              const BundleRegionOptions& options = {});

  // Publishes a snapshot without the region. In-flight requests that
  // already resolved it keep their pinned Region and finish normally; new
  // lookups miss. NotFound for unknown ids; FailedPrecondition while a
  // concurrent RegisterRegion is still building the id.
  Status UnregisterRegion(const std::string& region_id);

  // Epoch of the current registry snapshot; increments on every
  // register/unregister publication. Lets dashboards correlate counter
  // movements with config changes.
  uint64_t snapshot_epoch() const;

  // Non-blocking: enqueues the request; `done` runs on a worker thread.
  // Returns kResourceExhausted when the queue is full (backpressure; a
  // retry may succeed) and kFailedPrecondition once Shutdown() has begun
  // (no retry will) — the callback is NOT invoked in either case.
  Status SubmitAsync(SanitizeRequest request, Callback done);

  // Future-shaped wrapper over SubmitAsync. An admission-rejected request
  // resolves the future immediately with the rejection status.
  std::future<SanitizeResult> SubmitFuture(SanitizeRequest request);

  // Blocks until every accepted request has completed.
  void Drain();

  // Graceful stop: closes the queue (later submissions are refused with
  // kFailedPrecondition), runs what is already queued, joins the workers.
  // Idempotent; also run by the destructor.
  void Shutdown();

  // One region's stats, the source of its RegionMetrics rows.
  struct RegionInfo {
    double eps = 0.0;
    int granularity = 0;
    int height = 0;
    int leaf_cells_per_axis = 0;
    core::MsmStats msm;
    size_t cache_size = 0;
    size_t cache_byte_budget = 0;
    uint64_t singleflight_waits = 0;
    // Nodes pre-solved at registration (0 when prewarm was off).
    int prewarmed_nodes = 0;
    // Bundle-loaded regions only (0 for Builder-registered regions):
    // bytes of the region's mmapped bundle and serving-plan nodes that
    // were warm the instant the region went live.
    uint64_t bundle_bytes_mapped = 0;
    uint64_t plan_warm_at_startup = 0;
    // Latest audit report (zero before the first audit), audits, drifts.
    audit::RegionAuditReport audit;
    uint64_t audit_runs = 0;
    uint64_t audit_drift_events = 0;
  };
  StatusOr<RegionInfo> GetRegionInfo(const std::string& region_id) const;

  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }

  // One JSON object: "service" (ServiceMetrics), "snapshot_epoch",
  // "trace" (obs::TraceMetrics) and "regions" (a RegionMetrics object per
  // id) — extended at the end only.
  std::string MetricsJson() const;

  // The same in the Prometheus text format, families prefixed
  // "geopriv_": Metrics::ToPrometheus(), the snapshot epoch, the trace
  // counters (tracing on) and the {region="<id>"}-labelled RegionMetrics
  // families.
  std::string MetricsText() const;

  // Post-mortem trace dumps ("[]" / empty traceEvents when tracing is
  // off). See obs::TraceRecorder for the formats.
  std::string FlightRecorderJson(size_t last_k = 256) const;
  std::string ChromeTraceJson(size_t max_events = 0) const;

  // The recorder itself, nullptr when options.trace.sample_one_in == 0.
  obs::TraceRecorder* trace_recorder() { return recorder_.get(); }
  const obs::TraceRecorder* trace_recorder() const { return recorder_.get(); }

  // Audits one region synchronously on the calling thread (same code the
  // background auditor runs, including drift detection and metrics).
  // NotFound for unknown ids. Deterministic given the region's resident
  // state — the CI smoke and the drift tests call this instead of waiting
  // out a cadence.
  Status AuditRegionNow(const std::string& region_id);

  // Completed background audit passes (each pass fans over all regions).
  uint64_t audit_passes() const {
    return audit_passes_.load(std::memory_order_relaxed);
  }

  // The deterministic seed of worker `worker_id`'s RNG stream.
  static uint64_t WorkerSeed(uint64_t seed, int worker_id);

  int num_workers() const { return pool_->num_threads(); }
  size_t queue_capacity() const { return pool_->queue_capacity(); }

 private:
  // Latest audit results of one region, epoch-published like the registry:
  // the auditor stores a fresh immutable report, metrics readers do one
  // atomic load. Shared by pointer so an audit racing an unregister
  // publishes into state the metrics path can no longer reach — harmless,
  // not a use-after-free.
  struct RegionAuditState {
    std::atomic<std::shared_ptr<const audit::RegionAuditReport>> latest{};
    std::atomic<uint64_t> runs{0};
    std::atomic<uint64_t> drift_events{0};
  };

  struct Region {
    core::LocationSanitizer sanitizer;
    // Full-eps planar Laplace remapped to the region's leaf grid: the
    // degradation path. Stateless after construction; shared by workers.
    mechanisms::PlanarLaplaceOnGrid fallback;
    int leaf_cells_per_axis = 0;
    int prewarmed_nodes = 0;
    // Set only by LoadRegionFromBundle; 0 for Builder-registered regions.
    uint64_t bundle_bytes_mapped = 0;
    uint64_t plan_warm_at_startup = 0;
    std::shared_ptr<RegionAuditState> audit =
        std::make_shared<RegionAuditState>();

    Region(core::LocationSanitizer s, mechanisms::PlanarLaplaceOnGrid f,
           int leaf)
        : sanitizer(std::move(s)), fallback(std::move(f)),
          leaf_cells_per_axis(leaf) {}
  };

  // Immutable once published. Workers hold one each (WorkerState), control
  // paths load it per call; a holder's copy stays valid across any number
  // of later publications (the regions it references are themselves
  // shared_ptrs).
  struct RegistrySnapshot {
    std::unordered_map<std::string, std::shared_ptr<Region>> regions;
    uint64_t epoch = 0;
  };

  explicit SanitizationService(const ServiceOptions& options);

  // The install step of RegisterRegion and LoadRegionFromBundle: reserves
  // the id, runs `build` outside the writer lock, releases the id and
  // publishes the built region (or releases it and returns the failure).
  Status InstallRegion(
      const std::string& region_id,
      const std::function<StatusOr<std::shared_ptr<Region>>()>& build);

  // Wraps a built sanitizer with its planar-Laplace fallback.
  static StatusOr<std::shared_ptr<Region>> NewRegion(
      core::LocationSanitizer sanitizer);

  // (id, RegionMetrics(GetRegionInfo(id))) per region of `snap`, by id.
  obs::LabelledMetrics RegionMetricRows(const RegistrySnapshot& snap) const;

  // The control paths' lookup (audits, GetRegionInfo): one atomic
  // shared_ptr load of the current snapshot, under libstdc++ a lock-bit
  // CAS and refcount traffic on a shared line. Requests resolve through
  // their worker's pinned snapshot instead (PinnedRegion).
  std::shared_ptr<Region> FindRegion(const std::string& region_id) const;

  // One worker's private state, padded so no two workers share a line.
  // `snapshot` is the registry snapshot the worker last served from and
  // `plan` the serving plan it last walked; `plan` always belongs to a
  // region of `snapshot` and is destroyed first. `completed` counts the
  // worker's finished tasks: its share of the split in-flight count.
  struct alignas(kCounterSlotAlign) WorkerState {
    std::shared_ptr<const RegistrySnapshot> snapshot;
    core::MultiStepMechanism::PlanPin plan;
    std::atomic<uint64_t> completed{0};
  };

  // The pins a request took off its worker. The request releases them
  // only after its reply and its completion count, so freeing the last
  // reference to an unregistered region never adds to a reply's latency.
  struct RetiredPins {
    std::shared_ptr<const RegistrySnapshot> snapshot;
    core::MultiStepMechanism::PlanPin plan;  // destroyed first
  };

  // `region_id` in the worker's pinned snapshot. When the registry epoch
  // moved, first moves both pins into `retired` and loads the current
  // snapshot. nullptr when the id is unknown. The region lives as long as
  // the pin.
  Region* PinnedRegion(WorkerState& worker, const std::string& region_id,
                       RetiredPins& retired) const;

  // Copy-publish `regions` as the next snapshot. Caller must hold
  // registry_writer_mu_.
  void PublishLocked(
      std::unordered_map<std::string, std::shared_ptr<Region>> regions);

  // Runs on a worker: serves one request end-to-end (registry lookup,
  // deadline check, MSM walk, fallback, per-worker metrics) and fires
  // `done`.
  void Process(const SanitizeRequest& request, const Stopwatch& watch,
               const Callback& done, int worker_id);

  // The two ends of the split in-flight count. Admit() runs before a task
  // is pushed, so no completion is ever counted before its admission;
  // Unadmit() takes a refused push back. Complete() is a worker's: it
  // bumps the worker's own slot and wakes a waiting Drain() once the
  // counts meet.
  void Admit() { admitted_.fetch_add(1, std::memory_order_relaxed); }
  void Unadmit();
  void Complete(int worker_id);
  // Completions summed over the workers equal admissions: every task
  // admitted before the call has run.
  bool Quiescent() const;
  void NotifyDrainers();

  // Background auditor (see ServiceOptions::AuditorOptions). The
  // scheduler thread sleeps on auditor_cv_ and fans per-region tasks onto
  // the pool; StopAuditor() (idempotent) runs before Drain()/Shutdown so
  // the pool outlives every audit task.
  void AuditorLoop();
  void StopAuditor();
  void RunAuditPass();
  void AuditOneRegion(const std::string& region_id,
                      const std::shared_ptr<Region>& region, int slot);

  // Metrics slot of worker-side events (slot 0 is the submission side).
  static int WorkerSlot(int worker_id) { return worker_id + 1; }

  ServiceOptions options_;
  Metrics metrics_;
  // Built iff options_.trace.sample_one_in > 0; never reassigned after
  // construction, so workers read it without synchronization.
  std::unique_ptr<obs::TraceRecorder> recorder_;

  // Writers only: serializes register/unregister and guards building_.
  // The serving path never touches it.
  std::mutex registry_writer_mu_;
  // Ids a RegisterRegion is currently building. Reserving here (instead
  // of planting a placeholder in the map) keeps half-built regions out of
  // every snapshot while still failing duplicate registrations fast.
  std::unordered_set<std::string> building_;
  std::atomic<std::shared_ptr<const RegistrySnapshot>> snapshot_;
  // snapshot_'s epoch, stored after each publication: what workers poll.
  // On a line of its own, so control-path loads of snapshot_ never
  // invalidate it.
  alignas(kCounterSlotAlign) std::atomic<uint64_t> registry_epoch_{0};

  std::vector<rng::Rng> worker_rngs_;  // one per worker, index = worker id
  std::vector<WorkerState> workers_;   // one per worker, index = worker id

  // Submitters' half of the in-flight count (Admit/Unadmit).
  alignas(kCounterSlotAlign) std::atomic<uint64_t> admitted_{0};
  // Drain() calls waiting on drain_cv_. Completions look here, a line
  // nobody writes outside a drain, and lock drain_mu_ only when it is
  // nonzero.
  alignas(kCounterSlotAlign) std::atomic<int> drainers_{0};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;

  // Auditor state. baseline_mu_ guards the store (audit tasks for
  // different regions may run concurrently on the pool); the cv/stop pair
  // wakes the scheduler thread for shutdown.
  std::mutex baseline_mu_;
  audit::BaselineStore baseline_;
  std::mutex auditor_mu_;
  std::condition_variable auditor_cv_;
  bool auditor_stop_ = false;
  std::atomic<uint64_t> audit_passes_{0};
  std::thread auditor_;

  // Last member: destroyed (joined) first, while the state above is alive.
  std::unique_ptr<ThreadPool> pool_;
};

// The region scope's rows (see obs/exposition.h): each region object of
// MetricsJson() and the {region="<id>"}-labelled geopriv_region_*
// families of MetricsText().
std::vector<obs::Metric> RegionMetrics(
    const SanitizationService::RegionInfo& r);

}  // namespace geopriv::service

#endif  // GEOPRIV_SERVICE_SANITIZATION_SERVICE_H_
