#include "bench/suite/span_trace.h"

#include <algorithm>
#include <cstdio>

#include "base/atomic_file.h"

namespace geopriv::bench::suite {

namespace {

std::atomic<uint64_t> g_next_generation{1};

// The calling thread's buffer for one SpanTrace (keyed by generation, not
// address) and its innermost open Scope.
struct ThreadState {
  uint64_t generation = 0;
  int index = -1;
  uint64_t open_scope = 0;
};
thread_local ThreadState t_state;

}  // namespace

SpanTrace::SpanTrace()
    : buffers_(kMaxThreads),
      generation_(g_next_generation.fetch_add(1, std::memory_order_relaxed)) {
  for (Buffer& b : buffers_) b.spans.reserve(kSpansPerThread);
}

SpanTrace::Buffer* SpanTrace::Local() {
  if (t_state.generation != generation_) {
    t_state.generation = generation_;
    t_state.index = threads_.fetch_add(1, std::memory_order_relaxed);
  }
  return t_state.index < kMaxThreads
             ? &buffers_[static_cast<size_t>(t_state.index)]
             : nullptr;
}

uint64_t SpanTrace::NewId() {
  Buffer* b = Local();
  if (b == nullptr) return 0;
  return (static_cast<uint64_t>(t_state.index + 1) << 48) | ++b->next_id;
}

void SpanTrace::RecordWithId(uint64_t id, const char* name, uint64_t start_ns,
                             uint64_t end_ns, uint64_t parent,
                             uint64_t request) {
  Buffer* b = Local();
  if (b == nullptr || id == 0 || b->spans.size() >= kSpansPerThread) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  b->spans.push_back({name, start_ns, end_ns, id, parent, request});
}

uint64_t SpanTrace::Record(const char* name, uint64_t start_ns,
                           uint64_t end_ns, uint64_t parent,
                           uint64_t request) {
  const uint64_t id = NewId();
  RecordWithId(id, name, start_ns, end_ns, parent, request);
  return id;
}

SpanTrace::Scope::Scope(SpanTrace* trace, const char* name)
    : trace_(trace), name_(name) {
  if (trace_ == nullptr) return;
  id_ = trace_->NewId();
  parent_ = t_state.open_scope;
  t_state.open_scope = id_;
  start_ = obs::NowTicks();
}

SpanTrace::Scope::~Scope() {
  if (trace_ == nullptr) return;
  trace_->RecordWithId(id_, name_, start_, obs::NowTicks(), parent_);
  t_state.open_scope = parent_;
}

Status SpanTrace::WriteChromeTrace(
    const std::string& path, const std::string& service_trace_json) const {
  // Timestamps are steady-clock microseconds, the time base of
  // obs::TraceRecorder::ChromeTraceJson, so both sets of spans share one
  // timeline.
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
      "\"args\":{\"name\":\"SanitizationService (src/obs spans)\"}},\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"geopriv_bench (bench-side spans)\"}}";
  char buf[384];
  const int used = std::min(threads_.load(), kMaxThreads);
  for (int t = 0; t < used; ++t) {
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%d,\"args\":{\"name\":\"bench thread %d\"}}",
                  t + 1, t + 1);
    out += buf;
    for (const Span& s : buffers_[static_cast<size_t>(t)].spans) {
      std::snprintf(
          buf, sizeof(buf),
          ",\n{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":%.3f,"
          "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%llu,"
          "\"parent\":%llu,\"request\":%llu}}",
          s.name, static_cast<double>(s.start_ns) / 1e3,
          static_cast<double>(s.end_ns - s.start_ns) / 1e3, t + 1,
          static_cast<unsigned long long>(s.id),
          static_cast<unsigned long long>(s.parent),
          static_cast<unsigned long long>(s.request));
      out += buf;
    }
  }
  // Splice in the events of the service's own {"traceEvents":[...]}.
  const size_t open = service_trace_json.find('[');
  const size_t close = service_trace_json.rfind(']');
  if (open != std::string::npos && close != std::string::npos &&
      close > open + 1) {
    out += ",\n";
    out.append(service_trace_json, open + 1, close - open - 1);
  }
  out += "]}\n";
  return base::WriteFileAtomic(path, out);
}

}  // namespace geopriv::bench::suite
