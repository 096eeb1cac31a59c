// Bench-side spans for the traced run (--trace 1). Every span is recorded
// by benchmark code around a call into one module's public API — nothing
// inside src/ is instrumented for it. Spans land in per-thread buffers
// allocated up front (no allocation or lock while recording) and are
// written once, at exit, as Chrome trace-event JSON that chrome://tracing
// and Perfetto load.

#ifndef GEOPRIV_BENCH_SUITE_SPAN_TRACE_H_
#define GEOPRIV_BENCH_SUITE_SPAN_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "obs/trace.h"

namespace geopriv::bench::suite {

struct Span {
  const char* name;  // static string
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t id;
  uint64_t parent;   // 0 = root
  uint64_t request;  // 0 = not a request span
};

class SpanTrace {
 public:
  static constexpr int kMaxThreads = 8;
  static constexpr size_t kSpansPerThread = size_t{1} << 16;

  SpanTrace();
  SpanTrace(const SpanTrace&) = delete;
  SpanTrace& operator=(const SpanTrace&) = delete;

  // Records a finished span on the calling thread's buffer and returns its
  // id. A full buffer (or a ninth recording thread) drops the span and
  // counts it.
  uint64_t Record(const char* name, uint64_t start_ns, uint64_t end_ns,
                  uint64_t parent, uint64_t request = 0);

  // Reserves an id for a span whose children are recorded before it ends.
  uint64_t NewId();
  // Records a span under an id from NewId().
  void RecordWithId(uint64_t id, const char* name, uint64_t start_ns,
                    uint64_t end_ns, uint64_t parent, uint64_t request = 0);

  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  // Writes every recorded span as Chrome trace JSON, merged with
  // `service_trace_json` (obs::TraceRecorder::ChromeTraceJson output: the
  // service's own src/obs spans, shown as a second process).
  Status WriteChromeTrace(const std::string& path,
                          const std::string& service_trace_json) const;

  // RAII span on the calling thread; nests under the enclosing Scope. A
  // null trace makes it a no-op, so untraced runs share the call sites.
  class Scope {
   public:
    Scope(SpanTrace* trace, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    uint64_t id() const { return id_; }

   private:
    SpanTrace* trace_;
    const char* name_;
    uint64_t start_ = 0;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
  };

 private:
  struct Buffer {
    std::vector<Span> spans;  // capacity kSpansPerThread, never grows
    uint64_t next_id = 0;
  };
  Buffer* Local();

  std::vector<Buffer> buffers_;
  std::atomic<int> threads_{0};
  std::atomic<uint64_t> dropped_{0};
  const uint64_t generation_;
};

}  // namespace geopriv::bench::suite

#endif  // GEOPRIV_BENCH_SUITE_SPAN_TRACE_H_
