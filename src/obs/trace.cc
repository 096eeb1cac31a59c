#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

namespace geopriv::obs {

namespace {

thread_local RequestTrace* g_active_trace = nullptr;

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

void AppendEventJson(std::string& out, const SpanEvent& e) {
  char buf[224];
  std::snprintf(
      buf, sizeof(buf),
      "{\"request\":%llu,\"kind\":\"%s\",\"start_us\":%.3f,"
      "\"dur_us\":%.3f,\"node\":%lld,\"detail\":%d,\"flags\":%u}",
      static_cast<unsigned long long>(e.request_id),
      SpanKindName(static_cast<SpanKind>(e.kind)), e.start_ticks / 1e3,
      (e.end_ticks - e.start_ticks) / 1e3, static_cast<long long>(e.node),
      e.detail, e.flags);
  out += buf;
}

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRequest:
      return "request";
    case SpanKind::kQueueWait:
      return "queue_wait";
    case SpanKind::kWalk:
      return "walk";
    case SpanKind::kWalkLevelPlan:
      return "walk_level_plan";
    case SpanKind::kWalkLevelCacheHit:
      return "walk_level_cache_hit";
    case SpanKind::kWalkLevelColdBuild:
      return "walk_level_cold_build";
    case SpanKind::kLpPricing:
      return "lp_pricing";
    case SpanKind::kLpRefactor:
      return "lp_refactor";
    case SpanKind::kLpSimplex:
      return "lp_simplex";
    case SpanKind::kSingleflightWait:
      return "singleflight_wait";
    case SpanKind::kFallback:
      return "fallback";
    case SpanKind::kAuditRegion:
      return "audit_region";
    case SpanKind::kAuditDrift:
      return "audit_drift";
    case SpanKind::kNumKinds:
      break;
  }
  return "unknown";
}

ScopedTrace::ScopedTrace(RequestTrace* trace) : prev_(g_active_trace) {
  g_active_trace = trace;
}

ScopedTrace::~ScopedTrace() { g_active_trace = prev_; }

RequestTrace* ActiveTrace() { return g_active_trace; }

namespace {
// Source of process-unique recorder generations; 0 is reserved as the
// thread-local cache's "never matches" value.
std::atomic<uint64_t> g_next_recorder_gen{1};
}  // namespace

TraceRecorder::TraceRecorder(const TraceOptions& options)
    : options_(options),
      gen_(g_next_recorder_gen.fetch_add(1, std::memory_order_relaxed)),
      capacity_(RoundUpPow2(std::max<size_t>(options.ring_capacity, 64))),
      rings_(static_cast<size_t>(std::max(options.num_rings, 1))) {
  for (Ring& ring : rings_) ring.events.resize(capacity_);
}

internal::TraceTlsCounters* TraceRecorder::RegisterThread() {
  std::lock_guard<std::mutex> lock(tls_mu_);
  tls_counters_.push_back(std::make_unique<internal::TraceTlsCounters>());
  internal::TraceTlsCounters* const counters = tls_counters_.back().get();
  internal::g_trace_tls = {gen_, counters};
  return counters;
}

void TraceRecorder::End(RequestTrace& trace, double latency_seconds) {
  if (options_.tail_latency_ms > 0.0 &&
      latency_seconds * 1e3 >= options_.tail_latency_ms) {
    trace.flags_ |= kFlagTailLatency;
  }
  const bool head = (trace.flags_ & kFlagSampled) != 0;
  const bool forced =
      (trace.flags_ & (kFlagDegraded | kFlagDeadlineOverrun |
                       kFlagTailLatency | kFlagAuditDrift)) != 0;
  if (!head && !forced) return;
  if (!head) requests_forced_.fetch_add(1, std::memory_order_relaxed);
  requests_retained_.fetch_add(1, std::memory_order_relaxed);
  if (trace.dropped_ > 0) {
    spans_dropped_.fetch_add(static_cast<uint64_t>(trace.dropped_),
                             std::memory_order_relaxed);
  }
  if (trace.count_ == 0) return;

  // The id is allocated only now, for retained traces — the common
  // unretained request never touches this shared counter. Stamp it and
  // the request-level flags onto every committed span, so a dump
  // filtered to one span kind still shows which request a span belongs
  // to and why it was retained.
  trace.request_id_ =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  for (int i = 0; i < trace.count_; ++i) {
    SpanEvent& e = trace.spans_[static_cast<size_t>(i)];
    e.request_id = trace.request_id_;
    e.flags = trace.flags_;
  }

  Ring& ring = rings_[static_cast<size_t>(
      ThreadCounterSlot(static_cast<int>(rings_.size())))];
  const uint64_t n = static_cast<uint64_t>(trace.count_);
  const uint64_t base = ring.reserved.fetch_add(n, std::memory_order_relaxed);
  const size_t mask = capacity_ - 1;
  for (uint64_t i = 0; i < n; ++i) {
    ring.events[static_cast<size_t>((base + i) & mask)] =
        trace.spans_[static_cast<size_t>(i)];
  }
  spans_committed_.fetch_add(n, std::memory_order_relaxed);
}

std::vector<SpanEvent> TraceRecorder::Snapshot(size_t max_events) const {
  std::vector<SpanEvent> out;
  for (const Ring& ring : rings_) {
    const uint64_t written = ring.reserved.load(std::memory_order_relaxed);
    const size_t resident =
        static_cast<size_t>(std::min<uint64_t>(written, capacity_));
    const size_t mask = capacity_ - 1;
    for (size_t i = 0; i < resident; ++i) {
      // Oldest-first within the ring: start where the writer would next
      // overwrite.
      const uint64_t idx = written >= capacity_ ? written + i : i;
      out.push_back(ring.events[static_cast<size_t>(idx & mask)]);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     return a.start_ticks < b.start_ticks;
                   });
  if (max_events > 0 && out.size() > max_events) {
    out.erase(out.begin(),
              out.end() - static_cast<ptrdiff_t>(max_events));
  }
  return out;
}

std::string TraceRecorder::ChromeTraceJson(size_t max_events) const {
  const std::vector<SpanEvent> events = Snapshot(max_events);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const SpanEvent& e : events) {
    char buf[256];
    // Complete ("X") events; ts/dur in microseconds as the format wants.
    // tid doubles as the request id so per-request spans line up on one
    // timeline row in the viewer.
    std::snprintf(
        buf, sizeof(buf),
        "{\"name\":\"%s\",\"cat\":\"geopriv\",\"ph\":\"X\","
        "\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%llu,"
        "\"args\":{\"request\":%llu,\"node\":%lld,\"detail\":%d,"
        "\"flags\":%u}}",
        SpanKindName(static_cast<SpanKind>(e.kind)), e.start_ticks / 1e3,
        (e.end_ticks - e.start_ticks) / 1e3,
        static_cast<unsigned long long>(e.request_id),
        static_cast<unsigned long long>(e.request_id),
        static_cast<long long>(e.node), e.detail, e.flags);
    if (!first) out += ",";
    first = false;
    out += buf;
  }
  out += "]}";
  return out;
}

std::string TraceRecorder::FlightRecorderJson(size_t last_k) const {
  const std::vector<SpanEvent> events =
      Snapshot(last_k == 0 ? 256 : last_k);
  std::string out = "[";
  bool first = true;
  for (const SpanEvent& e : events) {
    if (!first) out += ",";
    first = false;
    AppendEventJson(out, e);
  }
  out += "]";
  return out;
}

TraceStats TraceRecorder::stats() const {
  TraceStats s;
  {
    std::lock_guard<std::mutex> lock(tls_mu_);
    for (const auto& counters : tls_counters_) {
      s.requests_started +=
          counters->started.load(std::memory_order_relaxed);
    }
  }
  s.requests_retained = requests_retained_.load(std::memory_order_relaxed);
  s.requests_forced = requests_forced_.load(std::memory_order_relaxed);
  s.spans_committed = spans_committed_.load(std::memory_order_relaxed);
  s.spans_dropped = spans_dropped_.load(std::memory_order_relaxed);
  return s;
}

std::vector<Metric> TraceMetrics(const TraceRecorder* recorder) {
  const TraceStats t = recorder != nullptr ? recorder->stats() : TraceStats{};
  return {
      {"enabled", kJsonOnly, recorder != nullptr ? 1 : 0},
      {"sample_one_in", kJsonOnly,
       recorder != nullptr ? recorder->options().sample_one_in : 0u},
      {"requests_started", kCounter, t.requests_started},
      {"requests_retained", kCounter, t.requests_retained},
      {"requests_forced", kCounter, t.requests_forced},
      {"spans_committed", kCounter, t.spans_committed},
      {"spans_dropped", kCounter, t.spans_dropped},
  };
}

}  // namespace geopriv::obs
