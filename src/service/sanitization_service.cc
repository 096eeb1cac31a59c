#include "service/sanitization_service.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <utility>

#include "base/check.h"
#include "bundle/loader.h"
#include "bundle/region_bundle.h"
#include "spatial/grid.h"

namespace geopriv::service {

namespace {

// Keeps the fallback grid's cell count bounded even for tall indexes
// (4096^2 cells ~= 17M, still O(1) memory since UniformGrid is implicit).
constexpr int kMaxFallbackCellsPerAxis = 4096;

// Relative move of expected Euclidean loss or adversary error vs. the
// stored audit baseline that counts as drift.
constexpr double kDriftRelativeThreshold = 0.25;

// The MSM's effective leaf resolution, capped so the fallback grid stays
// bounded: granularity^height cells per axis, at most
// kMaxFallbackCellsPerAxis. Every region's planar-Laplace fallback is
// sized with this, so it reports at the same resolution as the MSM path.
int EffectiveLeafCellsPerAxis(const core::LocationSanitizer& sanitizer) {
  int leaf = 1;
  for (int i = 0; i < sanitizer.budget().height(); ++i) {
    if (leaf > kMaxFallbackCellsPerAxis / sanitizer.granularity()) {
      return kMaxFallbackCellsPerAxis;
    }
    leaf *= sanitizer.granularity();
  }
  return leaf;
}

// Brackets one request's trace: Begin()s it, reconstructs the queue-wait
// span from the submission stopwatch (the span is [submission, pickup] on
// the steady clock — no extra timestamp has to travel through the queue),
// and installs the trace as the worker's thread-local active trace so the
// walk/cache/LP layers can attach spans. Finish() stamps the outcome
// flags, emits the request-level span, and hands the buffered spans to
// the recorder's retention decision. A null recorder makes every method a
// no-op, so call sites need no branching.
class RequestTracer {
 public:
  RequestTracer(obs::TraceRecorder* recorder, const Stopwatch& watch)
      : recorder_(recorder) {
    if (recorder_ == nullptr) return;
    recorder_->Begin(&trace_);
    // Only a head-sampled request pays for detail: the queue-wait span,
    // the thread-local install, and every walk/LP span downstream. A
    // request that lost the draw costs one relaxed id fetch_add and the
    // branch here — no clock reads — unless Finish() discovers it must be
    // force-retained, in which case a coarse record is synthesized then.
    if ((trace_.flags() & obs::kFlagSampled) != 0) {
      start_ticks_ = watch.StartTicks();  // submission instant, same clock
      trace_.Emit(obs::SpanKind::kQueueWait, start_ticks_, obs::NowTicks());
      scope_.emplace(&trace_);
    }
  }

  void Finish(const SanitizeResult& result) {
    if (recorder_ == nullptr) return;
    scope_.reset();  // uninstall before committing
    if (result.used_fallback) trace_.SetFlags(obs::kFlagDegraded);
    if (result.deadline_overrun) {
      trace_.SetFlags(obs::kFlagDeadlineOverrun);
    }
    // Process already measured the latency into the result; reusing it
    // keeps the unsampled fast path free of clock reads.
    const double latency_seconds = result.latency_ms * 1e-3;
    if ((trace_.flags() & obs::kFlagSampled) != 0) {
      trace_.Emit(obs::SpanKind::kRequest, start_ticks_, obs::NowTicks(),
                  /*node=*/-1, static_cast<int32_t>(result.status.code()));
      recorder_->End(trace_, latency_seconds);
    } else if (recorder_->WouldForce(trace_.flags(), latency_seconds)) {
      // Forced retention of an unsampled request: synthesize the coarse
      // record the flight recorder keeps for it — a fallback marker
      // (detail -1: the reason was not captured at the degrade site) and
      // the request envelope reconstructed from the measured latency.
      const uint64_t now = obs::NowTicks();
      const uint64_t start =
          now - std::min(now, obs::SecondsToTicks(latency_seconds));
      if (result.used_fallback) {
        trace_.Emit(obs::SpanKind::kFallback, now, now, /*node=*/-1,
                    /*detail=*/-1);
      }
      trace_.Emit(obs::SpanKind::kRequest, start, now,
                  /*node=*/-1, static_cast<int32_t>(result.status.code()));
      recorder_->End(trace_, latency_seconds);
    }
    // Neither sampled nor forced: no out-of-line call at all — End()
    // would only early-return.
    recorder_ = nullptr;
  }

 private:
  obs::TraceRecorder* recorder_;
  uint64_t start_ticks_ = 0;
  obs::RequestTrace trace_;
  std::optional<obs::ScopedTrace> scope_;
};

}  // namespace

uint64_t SanitizationService::WorkerSeed(uint64_t seed, int worker_id) {
  // seed ⊕ per-worker stream constant: the golden-gamma multiple spreads
  // adjacent worker ids across the seed space so the mt19937_64 streams
  // decorrelate.
  return seed ^
         (0x9E3779B97F4A7C15ull * (static_cast<uint64_t>(worker_id) + 1));
}

StatusOr<std::unique_ptr<SanitizationService>> SanitizationService::Create(
    const ServiceOptions& options) {
  if (options.num_workers < 1) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }
  if (options.queue_capacity < 1) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  if (options.default_deadline_ms < 0.0) {
    return Status::InvalidArgument("default_deadline_ms must be >= 0");
  }
  if (options.auditor.cadence_seconds < 0.0) {
    return Status::InvalidArgument("auditor.cadence_seconds must be >= 0");
  }
  return std::unique_ptr<SanitizationService>(
      new SanitizationService(options));
}

SanitizationService::SanitizationService(const ServiceOptions& options)
    : options_(options),
      // Slot 0 records submission-side events; worker w records into
      // slot w + 1 — no two threads share a counter cache line.
      metrics_(options.num_workers + 1) {
  auto empty = std::make_shared<const RegistrySnapshot>();
  snapshot_.store(empty, std::memory_order_release);
  if (options.trace.sample_one_in > 0) {
    recorder_ = std::make_unique<obs::TraceRecorder>(options.trace);
  }
  worker_rngs_.reserve(static_cast<size_t>(options.num_workers));
  for (int w = 0; w < options.num_workers; ++w) {
    worker_rngs_.emplace_back(WorkerSeed(options.seed, w));
  }
  workers_ = std::vector<WorkerState>(static_cast<size_t>(options.num_workers));
  for (WorkerState& worker : workers_) worker.snapshot = empty;
  pool_ = std::make_unique<ThreadPool>(options.num_workers,
                                       options.queue_capacity);
  if (!options.auditor.baseline_path.empty()) {
    // Best effort: a missing or unreadable baseline file just means the
    // first audit of each region seeds a fresh one.
    std::lock_guard<std::mutex> lock(baseline_mu_);
    (void)baseline_.Load(options.auditor.baseline_path);
  }
  if (options.auditor.cadence_seconds > 0.0) {
    auditor_ = std::thread([this] { AuditorLoop(); });
  }
}

SanitizationService::~SanitizationService() {
  StopAuditor();
  Drain();
  pool_->Shutdown();
}

Status SanitizationService::RegisterRegion(const std::string& region_id,
                                           const RegionConfig& config) {
  return InstallRegion(region_id, [&]() -> StatusOr<std::shared_ptr<Region>> {
    core::LocationSanitizer::Builder builder;
    builder.SetRegionLatLon(config.min_lat, config.min_lon, config.max_lat,
                            config.max_lon)
        .SetEpsilon(config.eps)
        .SetGranularity(config.granularity)
        .SetRho(config.rho)
        .SetPriorGranularity(config.prior_granularity)
        .SetUtilityMetric(config.metric)
        .SetSeed(options_.seed)
        .SetCacheByteBudget(config.cache_byte_budget);
    if (!config.checkins.empty()) builder.AddCheckinsLatLon(config.checkins);
    if (config.lp_time_limit_seconds > 0.0) {
      builder.SetLpTimeLimitSeconds(config.lp_time_limit_seconds);
    }
    GEOPRIV_ASSIGN_OR_RETURN(core::LocationSanitizer sanitizer,
                             builder.Build());
    GEOPRIV_ASSIGN_OR_RETURN(std::shared_ptr<Region> region,
                             NewRegion(std::move(sanitizer)));
    if (config.prewarm_nodes > 0) {
      // Best-effort: a failed prewarm solve (e.g. an LP time limit) means
      // lazy solving — and, if that keeps failing, the planar-Laplace
      // degradation path — not a failed registration.
      auto warmed = region->sanitizer.PrewarmTopNodes(config.prewarm_nodes,
                                                      pool_.get());
      region->prewarmed_nodes = warmed.ok() ? warmed.value() : 0;
    }
    return region;
  });
}

Status SanitizationService::LoadRegionFromBundle(
    const std::string& region_id, const std::string& path,
    const BundleRegionOptions& options) {
  return InstallRegion(region_id, [&]() -> StatusOr<std::shared_ptr<Region>> {
    // The recorded load time covers the whole cold start: open + verify +
    // rehydrate + plan rebuild. That is the number the build/serve split
    // exists to shrink, so it must not flatter itself by excluding the
    // checksum pass. Open's share is recorded beside it.
    const Stopwatch watch;
    GEOPRIV_ASSIGN_OR_RETURN(const bundle::RegionBundleView view,
                             bundle::RegionBundleView::Open(path));
    const double verify_seconds = watch.ElapsedSeconds();
    bundle::RegionLoadOptions load_options;
    load_options.seed = options_.seed;
    load_options.cache_byte_budget = options.cache_byte_budget;
    load_options.lp_time_limit_seconds = options.lp_time_limit_seconds;
    GEOPRIV_ASSIGN_OR_RETURN(bundle::LoadedRegion loaded,
                             bundle::LoadRegion(view, load_options));
    GEOPRIV_ASSIGN_OR_RETURN(std::shared_ptr<Region> region,
                             NewRegion(std::move(loaded.sanitizer)));
    // Bundle-published nodes are this path's prewarm: solved at build
    // time, warm before the first request.
    region->prewarmed_nodes = static_cast<int>(loaded.nodes_loaded);
    region->bundle_bytes_mapped = loaded.bytes_mapped;
    region->plan_warm_at_startup = loaded.plan_nodes;
    metrics_.RecordBundleLoad(watch.ElapsedSeconds(), verify_seconds,
                              loaded.bytes_mapped, loaded.plan_nodes);
    return region;
  });
}

StatusOr<std::shared_ptr<SanitizationService::Region>>
SanitizationService::NewRegion(core::LocationSanitizer sanitizer) {
  // Fallback: planar Laplace with the region's whole budget, remapped to
  // the MSM's effective leaf grid.
  const int leaf = EffectiveLeafCellsPerAxis(sanitizer);
  GEOPRIV_ASSIGN_OR_RETURN(
      mechanisms::PlanarLaplaceOnGrid fallback,
      mechanisms::PlanarLaplaceOnGrid::Create(
          sanitizer.epsilon(),
          spatial::UniformGrid(sanitizer.domain_km(), leaf)));
  return std::make_shared<Region>(std::move(sanitizer), std::move(fallback),
                                  leaf);
}

Status SanitizationService::InstallRegion(
    const std::string& region_id,
    const std::function<StatusOr<std::shared_ptr<Region>>()>& build) {
  if (region_id.empty()) {
    return Status::InvalidArgument("region id must be non-empty");
  }
  // Reserve the id before the build: a duplicate registration — including
  // a concurrent one — fails here without paying seconds of LP, prior or
  // bundle work, and two racing registrations of the same id build only
  // once. The reservation lives in building_, never in a snapshot, so
  // readers cannot observe a half-built region.
  {
    std::lock_guard<std::mutex> lock(registry_writer_mu_);
    const std::shared_ptr<const RegistrySnapshot> snap =
        snapshot_.load(std::memory_order_acquire);
    if (snap->regions.count(region_id) > 0 ||
        !building_.insert(region_id).second) {
      return Status::FailedPrecondition("region '" + region_id +
                                        "' is already registered");
    }
  }
  StatusOr<std::shared_ptr<Region>> region = build();

  // Copy-publish a snapshot containing the new region and drop the
  // reservation, which a failed build releases too. Readers flip to the
  // new snapshot on their next atomic load.
  std::lock_guard<std::mutex> lock(registry_writer_mu_);
  building_.erase(region_id);
  if (!region.ok()) return region.status();
  std::unordered_map<std::string, std::shared_ptr<Region>> regions =
      snapshot_.load(std::memory_order_acquire)->regions;
  regions.emplace(region_id, std::move(region).value());
  PublishLocked(std::move(regions));
  return Status::OK();
}

Status SanitizationService::UnregisterRegion(const std::string& region_id) {
  std::lock_guard<std::mutex> lock(registry_writer_mu_);
  if (building_.count(region_id) > 0) {
    return Status::FailedPrecondition("region '" + region_id +
                                      "' is still being built");
  }
  std::unordered_map<std::string, std::shared_ptr<Region>> regions =
      snapshot_.load(std::memory_order_acquire)->regions;
  if (regions.erase(region_id) == 0) {
    return Status::NotFound("unknown region '" + region_id + "'");
  }
  PublishLocked(std::move(regions));
  return Status::OK();
}

void SanitizationService::PublishLocked(
    std::unordered_map<std::string, std::shared_ptr<Region>> regions) {
  auto next = std::make_shared<RegistrySnapshot>();
  next->regions = std::move(regions);
  next->epoch = snapshot_.load(std::memory_order_acquire)->epoch + 1;
  const uint64_t epoch = next->epoch;
  snapshot_.store(std::shared_ptr<const RegistrySnapshot>(std::move(next)),
                  std::memory_order_release);
  // After the snapshot: a worker that sees the epoch loads a snapshot at
  // least this new.
  registry_epoch_.store(epoch, std::memory_order_release);
}

uint64_t SanitizationService::snapshot_epoch() const {
  return snapshot_.load(std::memory_order_acquire)->epoch;
}

std::shared_ptr<SanitizationService::Region> SanitizationService::FindRegion(
    const std::string& region_id) const {
  const std::shared_ptr<const RegistrySnapshot> snap =
      snapshot_.load(std::memory_order_acquire);
  auto it = snap->regions.find(region_id);
  return it == snap->regions.end() ? nullptr : it->second;
}

SanitizationService::Region* SanitizationService::PinnedRegion(
    WorkerState& worker, const std::string& region_id,
    RetiredPins& retired) const {
  if (registry_epoch_.load(std::memory_order_acquire) !=
      worker.snapshot->epoch) {
    retired.plan = std::exchange(worker.plan, {});
    retired.snapshot = std::exchange(
        worker.snapshot, snapshot_.load(std::memory_order_acquire));
  }
  auto it = worker.snapshot->regions.find(region_id);
  return it == worker.snapshot->regions.end() ? nullptr : it->second.get();
}

void SanitizationService::Unadmit() {
  admitted_.fetch_sub(1, std::memory_order_seq_cst);
  if (drainers_.load(std::memory_order_seq_cst) > 0) NotifyDrainers();
}

void SanitizationService::Complete(int worker_id) {
  // seq_cst on both sides of the drainers_ handshake (here and in
  // Drain()): either this load sees the drainer, or the drainer's sum
  // sees this completion. A single writer per slot, so the add never
  // contends.
  workers_[static_cast<size_t>(worker_id)].completed.fetch_add(
      1, std::memory_order_seq_cst);
  if (drainers_.load(std::memory_order_seq_cst) > 0 && Quiescent()) {
    NotifyDrainers();
  }
}

bool SanitizationService::Quiescent() const {
  // Completions first: each one counted follows its admission, so the
  // admissions read after them include it, and equality means no task
  // admitted before the call is still running.
  uint64_t completed = 0;
  for (const WorkerState& worker : workers_) {
    completed += worker.completed.load(std::memory_order_seq_cst);
  }
  return completed == admitted_.load(std::memory_order_seq_cst);
}

void SanitizationService::NotifyDrainers() {
  // Taking the lock orders this notify after a drainer's predicate check,
  // so it cannot slip between that check and the wait.
  { std::lock_guard<std::mutex> lock(drain_mu_); }
  drain_cv_.notify_all();
}

void SanitizationService::Process(const SanitizeRequest& request,
                                  const Stopwatch& watch,
                                  const Callback& done, int worker_id) {
  // Declared first, so released last: after the reply and Complete().
  RetiredPins retired;
  const int slot = WorkerSlot(worker_id);
  rng::Rng& rng = worker_rngs_[static_cast<size_t>(worker_id)];
  WorkerState& worker = workers_[static_cast<size_t>(worker_id)];
  SanitizeResult result;
  result.worker_id = worker_id;
  RequestTracer tracer(recorder_.get(), watch);

  Region* const region = PinnedRegion(worker, request.region_id, retired);
  const double deadline_ms = request.deadline_ms > 0.0
                                 ? request.deadline_ms
                                 : options_.default_deadline_ms;
  // Why the request degrades, and the kFallback span's detail: 0 = the
  // deadline was already gone at pickup, 1 = the MSM path failed
  // mid-walk. -1 = no fallback.
  int32_t fallback_reason = -1;
  if (region == nullptr) {
    result.status =
        Status::NotFound("unknown region '" + request.region_id + "'");
    metrics_.RecordFailed(slot);
    // Requests that skip the walk drop the plan pin, so a pin never keeps
    // an evicted matrix past its worker's next request.
    worker.plan.Reset();
  } else if (deadline_ms > 0.0 && watch.ElapsedMillis() >= deadline_ms) {
    // The deadline burned away in the queue: skip the MSM walk entirely.
    fallback_reason = 0;
    metrics_.RecordDeadlineFallback(slot);
    worker.plan.Reset();
  } else {
    auto sanitized = region->sanitizer.SanitizeLatLonOrStatus(
        request.location.lat, request.location.lon, rng, worker.plan);
    if (sanitized.ok()) {
      result.reported = sanitized.value();
      metrics_.RecordOk(slot);
      // Re-check after the walk: a request that blew its deadline
      // mid-walk must not be reported as an on-time success. The reply is
      // still served — the privacy budget was already spent — but the
      // overrun is visible to the caller and the dashboards.
      if (deadline_ms > 0.0 && watch.ElapsedMillis() >= deadline_ms) {
        result.deadline_overrun = true;
        metrics_.RecordDeadlineOverrun(slot);
      }
    } else {
      // Typically kDeadlineExceeded from a capped LP solve. Degrade —
      // never fail the request over a utility optimization.
      fallback_reason = 1;
      metrics_.RecordMechanismFallback(slot);
    }
  }
  if (fallback_reason >= 0) {
    obs::RequestTrace* const trace = obs::ActiveTrace();
    const uint64_t fb_start = trace != nullptr ? obs::NowTicks() : 0;
    const auto& projection = region->sanitizer.projection();
    const geo::Point actual = region->sanitizer.domain_km().Clamp(
        projection.Forward(request.location.lat, request.location.lon));
    const geo::Point reported = region->fallback.Report(actual, rng);
    projection.Inverse(reported, &result.reported.lat, &result.reported.lon);
    result.used_fallback = true;
    if (trace != nullptr) {
      trace->Emit(obs::SpanKind::kFallback, fb_start, obs::NowTicks(),
                  /*node=*/-1, fallback_reason);
    }
  }

  // One clock read: the caller's latency and the histogram's sample are
  // the same number.
  const double latency_seconds = watch.ElapsedSeconds();
  result.latency_ms = latency_seconds * 1e3;
  metrics_.RecordLatency(latency_seconds, slot);
  tracer.Finish(result);
  if (done) done(result);
  Complete(worker_id);
}

Status SanitizationService::SubmitAsync(SanitizeRequest request,
                                        Callback done) {
  Admit();
  const Stopwatch watch;
  const bool accepted = pool_->TrySubmit(
      [this, request = std::move(request), done = std::move(done),
       watch](int worker_id) { Process(request, watch, done, worker_id); });
  if (!accepted) {
    Unadmit();
    metrics_.RecordRejected();
    // Told apart only here, off the accepted path: a full queue invites a
    // retry, a stopped service must not.
    if (pool_->shut_down()) {
      return Status::FailedPrecondition("service is shut down");
    }
    return Status::ResourceExhausted("sanitization queue is full");
  }
  metrics_.RecordAccepted();
  return Status::OK();
}

std::future<SanitizeResult> SanitizationService::SubmitFuture(
    SanitizeRequest request) {
  auto promise = std::make_shared<std::promise<SanitizeResult>>();
  std::future<SanitizeResult> future = promise->get_future();
  const Status status =
      SubmitAsync(std::move(request), [promise](const SanitizeResult& r) {
        promise->set_value(r);
      });
  if (!status.ok()) {
    SanitizeResult rejected;
    rejected.status = status;
    promise->set_value(rejected);
  }
  return future;
}

void SanitizationService::Drain() {
  drainers_.fetch_add(1, std::memory_order_seq_cst);
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait(lock, [&] { return Quiescent(); });
  }
  drainers_.fetch_sub(1, std::memory_order_relaxed);
}

void SanitizationService::Shutdown() {
  // Stop the auditor first so no new audit tasks land on a closing pool,
  // then close the queue so new submissions are refused, then wait for
  // the already-accepted work.
  StopAuditor();
  pool_->Shutdown();
  Drain();
}

void SanitizationService::AuditorLoop() {
  const auto cadence =
      std::chrono::duration<double>(options_.auditor.cadence_seconds);
  std::unique_lock<std::mutex> lock(auditor_mu_);
  while (!auditor_stop_) {
    if (auditor_cv_.wait_for(lock, cadence, [&] { return auditor_stop_; })) {
      break;
    }
    // Fan the pass out without holding the cv mutex: StopAuditor() must
    // never wait behind a pass.
    lock.unlock();
    RunAuditPass();
    lock.lock();
  }
}

void SanitizationService::StopAuditor() {
  {
    std::lock_guard<std::mutex> lock(auditor_mu_);
    auditor_stop_ = true;
  }
  auditor_cv_.notify_all();
  if (auditor_.joinable()) auditor_.join();
}

void SanitizationService::RunAuditPass() {
  const std::shared_ptr<const RegistrySnapshot> snap =
      snapshot_.load(std::memory_order_acquire);
  for (const auto& [id, region] : snap->regions) {
    Admit();
    // The auditor is strictly lower priority than request traffic, so a
    // saturated queue skips the region (and counts the skip) instead of
    // displacing a request.
    const bool accepted =
        pool_->TrySubmit([this, id = id, region = region](int worker_id) {
          AuditOneRegion(id, region, WorkerSlot(worker_id));
          Complete(worker_id);
        });
    if (!accepted) {
      Unadmit();
      metrics_.RecordAuditTaskRejected();
    }
  }
  audit_passes_.fetch_add(1, std::memory_order_relaxed);
}

void SanitizationService::AuditOneRegion(
    const std::string& region_id, const std::shared_ptr<Region>& region,
    int slot) {
  const Stopwatch watch;
  obs::TraceRecorder* const rec = recorder_.get();
  obs::RequestTrace trace;
  uint64_t start_ticks = 0;
  if (rec != nullptr) {
    rec->Begin(&trace);
    start_ticks = obs::NowTicks();
  }

  audit::AuditOptions opts;
  opts.include_cold_nodes = options_.auditor.audit_cold_nodes;
  auto report = std::make_shared<const audit::RegionAuditReport>(
      audit::AuditRegion(region->sanitizer, opts));

  region->audit->latest.store(report, std::memory_order_release);
  region->audit->runs.fetch_add(1, std::memory_order_relaxed);
  metrics_.RecordAuditRun(report->audited_nodes, report->skipped_nodes,
                          watch.ElapsedSeconds(), slot);

  // Drift: compare against the stored baseline; the first audit of a
  // region seeds it (persisted when a baseline path is configured).
  const audit::BaselineEntry current = audit::EntryFromReport(*report);
  audit::DriftResult drift;
  {
    std::lock_guard<std::mutex> lock(baseline_mu_);
    const audit::BaselineEntry* base = baseline_.Find(region_id);
    if (base == nullptr) {
      baseline_.Update(region_id, current);
      if (!options_.auditor.baseline_path.empty() &&
          !baseline_.Save(options_.auditor.baseline_path).ok()) {
        metrics_.RecordAuditBaselineError(slot);
      }
    } else {
      drift =
          audit::CompareToBaseline(*base, current, kDriftRelativeThreshold);
    }
  }
  if (drift.drifted) {
    region->audit->drift_events.fetch_add(1, std::memory_order_relaxed);
    metrics_.RecordAuditDrift(slot);
  }

  if (rec != nullptr) {
    const uint64_t now = obs::NowTicks();
    if (drift.drifted) {
      trace.SetFlags(obs::kFlagAuditDrift);
      // Relative drift in ppm, clamped into the int32 detail — integral
      // only, per the span payload guardrail.
      const double rel = std::max(drift.loss_rel, drift.adversary_rel);
      trace.Emit(obs::SpanKind::kAuditDrift, now, now, /*node=*/-1,
                 static_cast<int32_t>(std::min(rel * 1e6, 2e9)));
    }
    trace.Emit(obs::SpanKind::kAuditRegion, start_ticks, now, /*node=*/-1,
               static_cast<int32_t>(std::min<uint64_t>(
                   report->audited_nodes,
                   std::numeric_limits<int32_t>::max())));
    // Latency 0.0: a slow audit must never masquerade as a tail-latency
    // request — retention comes from head sampling or the drift flag
    // (which WouldForce honors like degrades/overruns).
    if ((trace.flags() & obs::kFlagSampled) != 0 ||
        rec->WouldForce(trace.flags(), 0.0)) {
      rec->End(trace, 0.0);
    }
  }
}

Status SanitizationService::AuditRegionNow(const std::string& region_id) {
  const std::shared_ptr<Region> region = FindRegion(region_id);
  if (region == nullptr) {
    return Status::NotFound("unknown region '" + region_id + "'");
  }
  AuditOneRegion(region_id, region, /*slot=*/0);
  return Status::OK();
}

StatusOr<SanitizationService::RegionInfo> SanitizationService::GetRegionInfo(
    const std::string& region_id) const {
  const std::shared_ptr<Region> region = FindRegion(region_id);
  if (region == nullptr) {
    return Status::NotFound("unknown region '" + region_id + "'");
  }
  const core::MultiStepMechanism& msm = region->sanitizer.mechanism();
  RegionInfo info;
  info.eps = region->sanitizer.epsilon();
  info.granularity = region->sanitizer.granularity();
  info.height = region->sanitizer.budget().height();
  info.leaf_cells_per_axis = region->leaf_cells_per_axis;
  info.msm = msm.stats();
  info.cache_size = msm.cache_size();
  info.cache_byte_budget = msm.cache().byte_budget();
  info.singleflight_waits = msm.cache().singleflight_waits();
  info.prewarmed_nodes = region->prewarmed_nodes;
  info.bundle_bytes_mapped = region->bundle_bytes_mapped;
  info.plan_warm_at_startup = region->plan_warm_at_startup;
  const RegionAuditState& audit = *region->audit;
  if (const auto report = audit.latest.load(std::memory_order_acquire)) {
    info.audit = *report;
  }
  info.audit_runs = audit.runs.load(std::memory_order_relaxed);
  info.audit_drift_events = audit.drift_events.load(std::memory_order_relaxed);
  return info;
}

std::vector<obs::Metric> RegionMetrics(
    const SanitizationService::RegionInfo& r) {
  using enum obs::MetricKind;
  using enum obs::NumberFormat;
  const audit::RegionAuditReport& a = r.audit;
  std::vector<obs::Metric> rows = {
      {"eps", kJsonOnly, r.eps},
      {"height", kJsonOnly, r.height},
      {"leaf_cells_per_axis", kJsonOnly, r.leaf_cells_per_axis},
      {"lp_solves", kCounter, r.msm.lp_solves},
      {"lp_seconds", kCounter, r.msm.lp_seconds},
      {"lp_pricing_seconds", kJsonOnly, r.msm.lp_pricing_seconds},
      {"lp_simplex_seconds", kJsonOnly, r.msm.lp_simplex_seconds},
      {"lp_refactor_seconds", kCounter, r.msm.lp_refactor_seconds},
      {"lp_violations", kJsonOnly, r.msm.lp_violations_found},
      {"uniform_prior_fallbacks", kJsonOnly, r.msm.uniform_prior_fallbacks},
      {"cache_hits", kCounter, r.msm.cache_hits},
      {"cache_size", kGauge, r.cache_size},
      {"cache_bytes_resident", kGauge, r.msm.cache_bytes_resident},
      {"cache_byte_budget", kJsonOnly, r.cache_byte_budget},
      {"cache_evictions", kCounter, r.msm.cache_evictions},
      {"cache_hit_rate", kJsonOnly, r.msm.cache_hit_rate},
      {"prewarmed_nodes", kJsonOnly, r.prewarmed_nodes},
      {"singleflight_waits", kCounter, r.singleflight_waits},
      {"plan_builds", kCounter, r.msm.plan_builds},
      {"plan_levels", kJsonOnly, r.msm.plan_levels},
      {"fallthrough_levels", kJsonOnly, r.msm.fallthrough_levels},
      {"bundle_bytes_mapped", kGauge, r.bundle_bytes_mapped},
      {"plan_warm_at_startup", kGauge, r.plan_warm_at_startup},
      {"audit_runs", kCounter, r.audit_runs},
      {"audit_expected_loss_euclidean", kGauge, a.expected_loss_euclidean,
       kG9},
      {"audit_expected_loss_squared", kGauge, a.expected_loss_squared, kG9},
      {"audit_adversary_error", kGauge, a.adversary_error, kG9},
      {"audit_conditional_entropy_bits", kGauge, a.conditional_entropy_bits,
       kG9},
      {"audit_worst_case_loss", kGauge, a.worst_case_loss, kG9},
      {"audit_min_slack", kGauge, a.min_slack, kG9},
      {"audit_max_violation", kGauge, a.max_violation, kG9},
      {"audit_audited_nodes", kGauge, a.audited_nodes},
      {"audit_skipped_nodes", kGauge, a.skipped_nodes},
      {"audit_drift_events", kCounter, r.audit_drift_events},
  };
  // Region counters predate the _total convention and keep bare names.
  for (obs::Metric& row : rows) row.family = row.key;
  return rows;
}

obs::LabelledMetrics SanitizationService::RegionMetricRows(
    const RegistrySnapshot& snap) const {
  obs::LabelledMetrics regions;
  for (const auto& [id, region] : snap.regions) {
    // A region unregistered since `snap` was taken is simply left out.
    if (auto info = GetRegionInfo(id); info.ok()) {
      regions.emplace_back(id, RegionMetrics(*info));
    }
  }
  std::sort(regions.begin(), regions.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return regions;
}

std::string SanitizationService::MetricsJson() const {
  const std::shared_ptr<const RegistrySnapshot> snap =
      snapshot_.load(std::memory_order_acquire);
  std::string json = "{\"service\":" + metrics_.ToJson() +
                     ",\"snapshot_epoch\":" + std::to_string(snap->epoch) +
                     ",\"trace\":{";
  obs::AppendJson(json, obs::TraceMetrics(recorder_.get()));
  json += "},\"regions\":{";
  for (const auto& [id, rows] : RegionMetricRows(*snap)) {
    json += json.back() == '{' ? "\"" : ",\"";
    json += obs::JsonEscape(id) + "\":{";
    obs::AppendJson(json, rows);
    json += "}";
  }
  json += "}}";
  return json;
}

std::string SanitizationService::MetricsText() const {
  const std::shared_ptr<const RegistrySnapshot> snap =
      snapshot_.load(std::memory_order_acquire);
  std::string out = metrics_.ToPrometheus("geopriv_");
  out += "# TYPE geopriv_snapshot_epoch gauge\ngeopriv_snapshot_epoch " +
         std::to_string(snap->epoch) + "\n";
  if (recorder_ != nullptr) {
    obs::AppendPrometheus(out, "geopriv_trace_",
                          obs::TraceMetrics(recorder_.get()), obs::kG9);
  }
  const obs::LabelledMetrics regions = RegionMetricRows(*snap);
  if (!regions.empty()) {
    obs::AppendPrometheus(out, "geopriv_region_", RegionMetrics({}),
                          "region", regions, obs::kG9);
  }
  return out;
}

std::string SanitizationService::FlightRecorderJson(size_t last_k) const {
  return recorder_ != nullptr ? recorder_->FlightRecorderJson(last_k) : "[]";
}

std::string SanitizationService::ChromeTraceJson(size_t max_events) const {
  return recorder_ != nullptr ? recorder_->ChromeTraceJson(max_events)
                              : "{\"traceEvents\":[]}";
}

}  // namespace geopriv::service
