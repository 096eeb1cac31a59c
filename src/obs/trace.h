// Request tracing and flight recording for the sanitization pipeline.
//
// The serving path (admission -> queue -> GIHI walk -> per-node LP) is
// instrumented with *spans*: fixed-size POD events carrying steady-clock
// tick ranges plus integral payload (node index, level, status code).
// Recording is designed for the warm hot path:
//
//  * A request's spans accumulate in a stack-allocated RequestTrace (a
//    fixed array, no heap allocation anywhere on the hot path). The
//    instrumented layers reach it through a thread-local pointer installed
//    by ScopedTrace, so no API signature between the service and the
//    mechanism stack had to grow a context parameter.
//  * At request end the recorder decides retention: head-based sampling
//    (1-in-N per thread, decided at Begin()) OR forced retention for any
//    request that
//    degraded to planar Laplace, overran its deadline, or landed in the
//    tail latency bucket. Tail-interesting requests are therefore always
//    captured even when sampling is sparse — the classic flight-recorder
//    property. Only head-sampled requests pay for detail (per-level walk
//    spans, LP phases, clock reads); a request that lost the head draw
//    costs one relaxed id allocation and a few branches, and if it turns
//    out degraded/overrun/tail the service synthesizes a coarse record
//    (fallback marker + request envelope) at Finish time instead.
//  * Retained spans are committed into per-thread lock-free ring buffers
//    (relaxed fetch_add reservation, power-of-two capacity). Old events
//    are overwritten, never blocked on: the rings always hold the last ~K
//    interesting events for post-mortem dumping.
//
// Exporters: ChromeTraceJson() emits the Chrome trace-event format
// (chrome://tracing / Perfetto "traceEvents" array) for timeline
// inspection; FlightRecorderJson() emits a flat JSON array of the most
// recent spans for post-mortem grepping. Dumps are diagnostic reads over
// live rings: a writer racing the dump can tear an in-flight event, which
// is the accepted flight-recorder trade (dumps are normally taken after a
// degrade/overrun, not at peak write rate).
//
// PRIVACY GUARDRAIL: SpanEvent payloads are integral-only by construction
// — node indices, level numbers, status codes, flags. There is no
// floating-point field anywhere in the event, so a span cannot carry a raw
// or sanitized coordinate even by mistake. static_asserts below and
// tests/obs_test.cc enforce this shape.

#ifndef GEOPRIV_OBS_TRACE_H_
#define GEOPRIV_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "base/sharded_counter.h"
#include "obs/exposition.h"

namespace geopriv::obs {

// Steady-clock ticks in nanoseconds (monotonic, comparable across threads
// of one process).
inline uint64_t NowTicks() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline uint64_t SecondsToTicks(double seconds) {
  return seconds <= 0.0 ? 0 : static_cast<uint64_t>(seconds * 1e9);
}

// Span kinds, one per instrumented seam of the pipeline.
enum class SpanKind : uint16_t {
  kRequest = 0,         // whole request (service side)
  kQueueWait,           // submission -> worker pickup
  kWalk,                // the MSM tree walk, all levels
  kWalkLevelPlan,       // one level served from the pinned serving plan
  kWalkLevelCacheHit,   // one level served from the singleflight cache
  kWalkLevelColdBuild,  // one level that paid a cold LP build
  kLpPricing,           // LP phase: column-generation pricing scans
  kLpRefactor,          // LP phase: basis refactorizations
  kLpSimplex,           // LP phase: simplex pivoting
  kSingleflightWait,    // blocked on another thread's in-flight build
  kFallback,            // planar-Laplace degradation (sampling included)
  kAuditRegion,         // one background/on-demand region audit pass
  kAuditDrift,          // audit drift detected (detail = relative ppm)
  kNumKinds,
};

// Stable lower_snake_case name ("queue_wait", "walk_level_plan", ...).
const char* SpanKindName(SpanKind kind);

// Flags on the request-level span (and the committed trace).
inline constexpr uint16_t kFlagSampled = 1u << 0;   // head-sampling hit
inline constexpr uint16_t kFlagDegraded = 1u << 1;  // planar-Laplace path
inline constexpr uint16_t kFlagDeadlineOverrun = 1u << 2;
inline constexpr uint16_t kFlagTailLatency = 1u << 3;
// Audit drift past the configured threshold — force-retained like
// degrades/overruns, so the flight recorder always holds the evidence of
// a privacy/utility regression even under sparse sampling.
inline constexpr uint16_t kFlagAuditDrift = 1u << 4;

// One span. POD, fixed size, integral payload only (see the privacy
// guardrail in the file comment). Deliberately no default member
// initializers: every request stack-allocates a 96-element array of
// these, and default-initializing it must be free — RequestTrace::Emit()
// writes every field of a span before it becomes visible. Value-init
// (SpanEvent{}) still zeroes.
struct SpanEvent {
  uint64_t request_id;
  uint64_t start_ticks;
  uint64_t end_ticks;
  int64_t node;    // spatial node index, -1 when not applicable
  int32_t detail;  // level number / StatusCode / worker id / reason
  uint16_t kind;   // SpanKind
  uint16_t flags;
};
static_assert(std::is_trivially_copyable_v<SpanEvent> &&
                  std::is_standard_layout_v<SpanEvent>,
              "SpanEvent must stay a POD ring-buffer element");
// The privacy guardrail, enforced at compile time: every payload field is
// integral. No double/float member may ever be added — that is the type-
// level door a coordinate could leak through.
static_assert(std::is_integral_v<decltype(SpanEvent::request_id)> &&
                  std::is_integral_v<decltype(SpanEvent::start_ticks)> &&
                  std::is_integral_v<decltype(SpanEvent::end_ticks)> &&
                  std::is_integral_v<decltype(SpanEvent::node)> &&
                  std::is_integral_v<decltype(SpanEvent::detail)> &&
                  std::is_integral_v<decltype(SpanEvent::kind)> &&
                  std::is_integral_v<decltype(SpanEvent::flags)>,
              "SpanEvent payload must be integral-only: node ids, levels, "
              "status codes — never coordinates");
static_assert(sizeof(SpanEvent) == 40, "keep the ring element compact");

struct TraceOptions {
  // Head sampling: 0 disables tracing entirely (the service then installs
  // no thread-local trace and the instrumentation costs one branch);
  // 1 retains every request; N retains 1-in-N, plus every degraded /
  // overrun / tail request regardless of the head decision (those carry
  // a coarse synthesized record when they lost the head draw — detailed
  // spans are only buffered for head-sampled requests).
  uint32_t sample_one_in = 0;
  // Per-ring capacity in events; rounded up to a power of two.
  size_t ring_capacity = 8192;
  // Per-thread rings (threads beyond this hash onto shared rings).
  int num_rings = 16;
  // Requests at least this slow are force-retained. 0 = off.
  double tail_latency_ms = 0.0;
};

// Counters for dashboards and the overhead bench.
struct TraceStats {
  uint64_t requests_started = 0;
  uint64_t requests_retained = 0;  // committed to the rings
  uint64_t requests_forced = 0;    // retained despite losing the head draw
  uint64_t spans_committed = 0;
  uint64_t spans_dropped = 0;  // per-request buffer overflow
};

// Per-request span buffer. Stack-allocated by the worker serving the
// request; no heap, no locks. Spans past kMaxSpans are counted as dropped
// rather than grown — a fixed footprint is the point.
class RequestTrace {
 public:
  static constexpr int kMaxSpans = 96;

  void Emit(SpanKind kind, uint64_t start_ticks, uint64_t end_ticks,
            int64_t node = -1, int32_t detail = 0) {
    if (count_ >= kMaxSpans) {
      ++dropped_;
      return;
    }
    SpanEvent& e = spans_[static_cast<size_t>(count_++)];
    e.request_id = request_id_;
    e.start_ticks = start_ticks;
    e.end_ticks = end_ticks;
    e.node = node;
    e.detail = detail;
    e.kind = static_cast<uint16_t>(kind);
    e.flags = 0;
  }

  void SetFlags(uint16_t flags) { flags_ |= flags; }
  uint16_t flags() const { return flags_; }
  uint64_t request_id() const { return request_id_; }
  int span_count() const { return count_; }
  const SpanEvent& span(int i) const {
    return spans_[static_cast<size_t>(i)];
  }

 private:
  friend class TraceRecorder;
  uint64_t request_id_ = 0;
  uint16_t flags_ = 0;
  int count_ = 0;
  int dropped_ = 0;
  std::array<SpanEvent, kMaxSpans> spans_;
};

// Installs `trace` as the calling thread's active trace for its scope, so
// lower layers (MSM walk, node cache, LP build) can attach spans without
// any plumbed-through context argument. Nests correctly (restores the
// previous trace).
class ScopedTrace {
 public:
  explicit ScopedTrace(RequestTrace* trace);
  ~ScopedTrace();

  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  RequestTrace* prev_;
};

// The calling thread's active trace, nullptr when none. Instrumentation
// sites load this once and skip all work when tracing is off.
RequestTrace* ActiveTrace();

namespace internal {

// One thread's request counter for one recorder. Single-writer: only the
// owning thread stores (plain load+store, no lock-prefixed RMW on the
// per-request path); stats() readers only load. The block is owned by the
// recorder's registry and outlives the thread's use of it.
struct alignas(kCounterSlotAlign) TraceTlsCounters {
  std::atomic<uint64_t> started{0};
};

// Per-thread single-entry cache mapping the most recently used recorder
// (by its process-unique generation number, never by address — addresses
// get reused) to that thread's counter block. Generation 0 never matches.
struct TraceTlsEntry {
  uint64_t gen = 0;
  TraceTlsCounters* counters = nullptr;
};
inline thread_local TraceTlsEntry g_trace_tls;

}  // namespace internal

class TraceRecorder {
 public:
  explicit TraceRecorder(const TraceOptions& options);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Starts a request trace in place (the caller stack-allocates it; no
  // ~4 KB struct ever travels by value on the hot path): resets it and
  // takes the head-sampling decision (recorded in the trace's
  // kFlagSampled). Inline and deliberately free of lock-prefixed RMWs:
  // the per-thread request count is a single-writer atomic (plain
  // load+store), and the draw is the thread's Nth request winning iff
  // N % sample_one_in == 0 — 1-in-N per thread, so 1-in-N globally.
  // Request ids are allocated at End(), only for retained traces.
  void Begin(RequestTrace* trace) {
    internal::TraceTlsCounters* const counters =
        internal::g_trace_tls.gen == gen_ ? internal::g_trace_tls.counters
                                          : RegisterThread();
    const uint64_t count =
        counters->started.load(std::memory_order_relaxed) + 1;
    counters->started.store(count, std::memory_order_relaxed);
    trace->request_id_ = 0;  // assigned at End() when retained
    trace->flags_ = 0;
    trace->count_ = 0;
    trace->dropped_ = 0;
    // Power-of-two sample rates (the common case) take the mask path: a
    // 64-bit divide is ~20 cycles the per-request path should not pay.
    const uint32_t n = options_.sample_one_in;
    const bool sampled =
        n == 1 || (n > 1 && ((n & (n - 1)) == 0 ? (count & (n - 1)) == 0
                                                : count % n == 0));
    if (sampled) trace->flags_ |= kFlagSampled;
  }

  // Ends the request: retains its spans (commits them to the calling
  // thread's ring) when head-sampled or force-retained by flags/latency.
  // The caller must have set kFlagDegraded / kFlagDeadlineOverrun before
  // calling; kFlagTailLatency is derived here from `latency_seconds`.
  void End(RequestTrace& trace, double latency_seconds);

  // True when End() would retain a trace with these flags even after
  // losing the head draw (degraded / overrun flags, or tail latency).
  // Callers use it to decide whether synthesizing coarse spans for an
  // unsampled request is worth the clock reads.
  bool WouldForce(uint16_t flags, double latency_seconds) const {
    if ((flags & (kFlagDegraded | kFlagDeadlineOverrun | kFlagAuditDrift)) !=
        0) {
      return true;
    }
    return options_.tail_latency_ms > 0.0 &&
           latency_seconds * 1e3 >= options_.tail_latency_ms;
  }

  // The most recent committed events across all rings (up to `max_events`,
  // 0 = everything resident), ordered by start tick. Diagnostic read: may
  // tear events being written concurrently.
  std::vector<SpanEvent> Snapshot(size_t max_events = 0) const;

  // Chrome trace-event JSON ({"traceEvents":[...]}) over Snapshot().
  // Load it in chrome://tracing or Perfetto.
  std::string ChromeTraceJson(size_t max_events = 0) const;

  // Flat post-mortem dump of the last `last_k` spans: a JSON array whose
  // objects carry request/kind/ticks/node/detail/flags — and, by the
  // SpanEvent guardrail, never a coordinate.
  std::string FlightRecorderJson(size_t last_k = 256) const;

  TraceStats stats() const;
  const TraceOptions& options() const { return options_; }

 private:
  struct alignas(kCounterSlotAlign) Ring {
    std::atomic<uint64_t> reserved{0};  // events ever written
    std::vector<SpanEvent> events;      // capacity_, power of two
  };

  // Slow path of Begin(): allocates (or finds) this thread's counter
  // block in the registry and caches it in the thread-local entry.
  internal::TraceTlsCounters* RegisterThread();

  TraceOptions options_;
  const uint64_t gen_;   // process-unique recorder generation
  size_t capacity_ = 0;  // per ring, power of two
  std::vector<Ring> rings_;
  // Per-thread started counters, owned here so they outlive the threads
  // and stats() can sum them. Guarded by tls_mu_ (registration and
  // stats() only — never the per-request path).
  mutable std::mutex tls_mu_;
  std::vector<std::unique_ptr<internal::TraceTlsCounters>> tls_counters_;
  // Ids are allocated here only when a trace is retained (End()), so the
  // common unretained request never pays a lock-prefixed RMW. Starts at 1
  // so id 0 can mean "never retained".
  std::atomic<uint64_t> next_request_id_{1};
  std::atomic<uint64_t> requests_retained_{0};
  std::atomic<uint64_t> requests_forced_{0};
  std::atomic<uint64_t> spans_committed_{0};
  std::atomic<uint64_t> spans_dropped_{0};
};

// The trace scope's rows (see obs/exposition.h); a null recorder
// (tracing off) reports zeros with enabled = 0.
std::vector<Metric> TraceMetrics(const TraceRecorder* recorder);

}  // namespace geopriv::obs

#endif  // GEOPRIV_OBS_TRACE_H_
