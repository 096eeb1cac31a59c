// Tests for src/obs/: ring-buffer retention, head sampling, forced
// flight-recorder retention, exporter shapes, and the privacy guardrail
// (span payloads can never carry a coordinate). The concurrency tests are
// named Trace* so the TSan CI job picks them up.

#include "obs/trace.h"

#include <algorithm>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "service/sanitization_service.h"

namespace geopriv::obs {
namespace {

// The compile-time half of the privacy guardrail, restated here so a test
// run documents it: every SpanEvent field is integral — there is no
// floating-point member a raw or sanitized coordinate could travel in.
static_assert(std::is_integral_v<decltype(SpanEvent::request_id)>);
static_assert(std::is_integral_v<decltype(SpanEvent::node)>);
static_assert(std::is_integral_v<decltype(SpanEvent::detail)>);
static_assert(std::is_trivially_copyable_v<SpanEvent>);

TraceOptions AlwaysSample() {
  TraceOptions options;
  options.sample_one_in = 1;
  options.num_rings = 1;
  return options;
}

TEST(TraceRecorderTest, HeadSamplingRetainsExactlyOneInN) {
  TraceOptions options = AlwaysSample();
  options.sample_one_in = 4;
  TraceRecorder recorder(options);
  for (int i = 0; i < 8; ++i) {
    RequestTrace trace;
    recorder.Begin(&trace);
    const uint64_t now = NowTicks();
    trace.Emit(SpanKind::kRequest, now, now + 10);
    recorder.End(trace, /*latency_seconds=*/1e-6);
  }
  const TraceStats stats = recorder.stats();
  EXPECT_EQ(stats.requests_started, 8u);
  EXPECT_EQ(stats.requests_retained, 2u);  // requests 4 and 8
  EXPECT_EQ(stats.requests_forced, 0u);
  EXPECT_EQ(stats.spans_committed, 2u);
}

TEST(TraceRecorderTest, DegradedRequestIsRetainedDespiteLosingTheHeadDraw) {
  TraceOptions options = AlwaysSample();
  options.sample_one_in = 1u << 30;  // head sampling effectively never hits
  TraceRecorder recorder(options);

  RequestTrace trace;
  recorder.Begin(&trace);
  const uint64_t now = NowTicks();
  trace.Emit(SpanKind::kFallback, now, now + 50);
  trace.SetFlags(kFlagDegraded);
  recorder.End(trace, 1e-6);

  // This request also loses the head draw — and carries no forcing flag,
  // so it vanishes.
  RequestTrace boring;
  recorder.Begin(&boring);
  boring.Emit(SpanKind::kRequest, now, now + 10);
  recorder.End(boring, 1e-6);

  const TraceStats stats = recorder.stats();
  EXPECT_EQ(stats.requests_retained, 1u);
  EXPECT_EQ(stats.requests_forced, 1u);
  const std::vector<SpanEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, static_cast<uint16_t>(SpanKind::kFallback));
  EXPECT_NE(events[0].flags & kFlagDegraded, 0);
}

TEST(TraceRecorderTest, TailLatencyForcesRetention) {
  TraceOptions options = AlwaysSample();
  options.sample_one_in = 1u << 30;
  options.tail_latency_ms = 5.0;
  TraceRecorder recorder(options);
  RequestTrace trace;
  recorder.Begin(&trace);
  const uint64_t now = NowTicks();
  trace.Emit(SpanKind::kRequest, now, now + 10);
  recorder.End(trace, /*latency_seconds=*/0.050);  // 50 ms >= 5 ms
  EXPECT_EQ(recorder.stats().requests_forced, 1u);
  const std::vector<SpanEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].flags & kFlagTailLatency, 0);
}

TEST(TraceRecorderTest, RingOverwritesOldestAndSnapshotsLastK) {
  TraceOptions options = AlwaysSample();
  options.ring_capacity = 64;  // the enforced minimum
  TraceRecorder recorder(options);
  for (int i = 0; i < 100; ++i) {
    RequestTrace trace;
    recorder.Begin(&trace);
    const uint64_t now = NowTicks();
    trace.Emit(SpanKind::kWalk, now, now + 1);
    trace.Emit(SpanKind::kRequest, now, now + 2);
    recorder.End(trace, 1e-6);
  }
  EXPECT_EQ(recorder.stats().spans_committed, 200u);

  // The ring holds only the last 64 events: the flight-recorder property.
  const std::vector<SpanEvent> resident = recorder.Snapshot();
  ASSERT_EQ(resident.size(), 64u);
  uint64_t min_id = UINT64_MAX;
  for (const SpanEvent& e : resident) min_id = std::min(min_id, e.request_id);
  EXPECT_GE(min_id, 100u - 64u / 2u);  // only recent requests survive

  const std::vector<SpanEvent> last = recorder.Snapshot(10);
  ASSERT_EQ(last.size(), 10u);
  EXPECT_TRUE(std::is_sorted(last.begin(), last.end(),
                             [](const SpanEvent& a, const SpanEvent& b) {
                               return a.start_ticks < b.start_ticks;
                             }));
}

TEST(TraceRecorderTest, PerRequestBufferOverflowCountsDroppedSpans) {
  TraceRecorder recorder(AlwaysSample());
  RequestTrace trace;
  recorder.Begin(&trace);
  const uint64_t now = NowTicks();
  for (int i = 0; i < RequestTrace::kMaxSpans + 5; ++i) {
    trace.Emit(SpanKind::kWalkLevelPlan, now, now + 1, /*node=*/i);
  }
  EXPECT_EQ(trace.span_count(), RequestTrace::kMaxSpans);
  recorder.End(trace, 1e-6);
  EXPECT_EQ(recorder.stats().spans_dropped, 5u);
  EXPECT_EQ(recorder.stats().spans_committed,
            static_cast<uint64_t>(RequestTrace::kMaxSpans));
}

TEST(TraceScopeTest, ScopedTraceInstallsAndRestoresNested) {
  EXPECT_EQ(ActiveTrace(), nullptr);
  RequestTrace outer, inner;
  {
    ScopedTrace outer_scope(&outer);
    EXPECT_EQ(ActiveTrace(), &outer);
    {
      ScopedTrace inner_scope(&inner);
      EXPECT_EQ(ActiveTrace(), &inner);
    }
    EXPECT_EQ(ActiveTrace(), &outer);
  }
  EXPECT_EQ(ActiveTrace(), nullptr);
}

TEST(TraceRecorderTest, ChromeTraceJsonHasCompleteEventShape) {
  TraceRecorder recorder(AlwaysSample());
  RequestTrace trace;
  recorder.Begin(&trace);
  const uint64_t now = NowTicks();
  trace.Emit(SpanKind::kLpPricing, now, now + 1000, /*node=*/7, /*detail=*/2);
  recorder.End(trace, 1e-6);
  const std::string json = recorder.ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"geopriv\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"lp_pricing\""), std::string::npos);
  EXPECT_NE(json.find("\"node\":7"), std::string::npos);
}

TEST(TraceRecorderTest, SpanKindNamesAreStable) {
  EXPECT_STREQ(SpanKindName(SpanKind::kQueueWait), "queue_wait");
  EXPECT_STREQ(SpanKindName(SpanKind::kWalkLevelColdBuild),
               "walk_level_cold_build");
  EXPECT_STREQ(SpanKindName(SpanKind::kSingleflightWait),
               "singleflight_wait");
  EXPECT_STREQ(SpanKindName(SpanKind::kFallback), "fallback");
}

// TSan target: concurrent Begin/Emit/End against one shared recorder. The
// volume stays below one ring's capacity so concurrent reservations never
// lap each other (dump-while-write tearing is exercised separately, not
// under TSan — it is a documented diagnostic-read trade).
TEST(TraceRecorderTest, ConcurrentBeginEndStress) {
  TraceOptions options;
  options.sample_one_in = 2;
  options.ring_capacity = 8192;
  options.num_rings = 8;
  TraceRecorder recorder(options);
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        RequestTrace trace;
        recorder.Begin(&trace);
        const uint64_t now = NowTicks();
        trace.Emit(SpanKind::kQueueWait, now, now + 1);
        trace.Emit(SpanKind::kWalk, now + 1, now + 2, /*node=*/t);
        trace.Emit(SpanKind::kRequest, now, now + 3);
        if (i % 17 == 0) trace.SetFlags(kFlagDegraded);
        recorder.End(trace, 1e-6);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const TraceStats stats = recorder.stats();
  EXPECT_EQ(stats.requests_started,
            static_cast<uint64_t>(kThreads * kRequestsPerThread));
  EXPECT_GE(stats.requests_retained, stats.requests_forced);
  EXPECT_EQ(stats.spans_committed, stats.requests_retained * 3);
  // Every committed span is intact (the joins order the reads after all
  // writes): a known kind and the request's flags stamped on.
  for (const SpanEvent& e : recorder.Snapshot()) {
    EXPECT_LT(e.kind, static_cast<uint16_t>(SpanKind::kNumKinds));
    EXPECT_NE(e.flags & (kFlagSampled | kFlagDegraded), 0);
  }
}

// ---------------------------------------------------------------------------
// End-to-end: the service pipeline with tracing on.

constexpr double kMinLat = 30.1927, kMinLon = -97.8698;
constexpr double kMaxLat = 30.3723, kMaxLon = -97.6618;

service::RegionConfig SmallRegion() {
  service::RegionConfig config;
  config.min_lat = kMinLat;
  config.min_lon = kMinLon;
  config.max_lat = kMaxLat;
  config.max_lon = kMaxLon;
  config.eps = 0.5;
  config.granularity = 3;
  config.prior_granularity = 32;
  return config;
}

TEST(SanitizationTraceTest, EndToEndSpansCoverThePipeline) {
  service::ServiceOptions options;
  options.num_workers = 2;
  options.trace.sample_one_in = 1;  // retain everything
  auto service = service::SanitizationService::Create(options);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->RegisterRegion("austin", SmallRegion()).ok());

  std::vector<std::future<service::SanitizeResult>> replies;
  for (int i = 0; i < 16; ++i) {
    replies.push_back((*service)->SubmitFuture(
        {"austin", {30.2672 + 0.0004 * (i % 5), -97.7431}, 0.0}));
  }
  for (auto& reply : replies) ASSERT_TRUE(reply.get().status.ok());

  const obs::TraceStats stats = (*service)->trace_recorder()->stats();
  EXPECT_EQ(stats.requests_started, 16u);
  EXPECT_EQ(stats.requests_retained, 16u);

  // The dump shows the whole pipeline: admission wait, the walk, at least
  // one per-level span, and the request envelope.
  const std::string dump = (*service)->FlightRecorderJson(512);
  EXPECT_NE(dump.find("\"kind\":\"queue_wait\""), std::string::npos);
  EXPECT_NE(dump.find("\"kind\":\"walk\""), std::string::npos);
  EXPECT_NE(dump.find("\"kind\":\"request\""), std::string::npos);
  const bool has_level_span =
      dump.find("walk_level_cold_build") != std::string::npos ||
      dump.find("walk_level_cache_hit") != std::string::npos ||
      dump.find("walk_level_plan") != std::string::npos;
  EXPECT_TRUE(has_level_span) << dump.substr(0, 2000);
  // Cold builds ran at least once, so the LP phase spans appear.
  EXPECT_NE(dump.find("\"kind\":\"lp_pricing\""), std::string::npos);

  // MetricsJson carries the recorder's counters.
  const std::string json = (*service)->MetricsJson();
  EXPECT_NE(json.find("\"trace\":{\"enabled\":1"), std::string::npos);
  EXPECT_NE(json.find("\"requests_retained\":16"), std::string::npos);
}

// The runtime half of the privacy guardrail: force a degraded request,
// dump the flight recorder, and assert no span carries a coordinate — no
// lat/lon/x/y keys, only node ids, levels, status codes, and tick times.
TEST(SanitizationTraceTest, ForcedDegradedDumpContainsNoCoordinates) {
  service::ServiceOptions options;
  options.num_workers = 1;
  options.trace.sample_one_in = 1u << 30;  // only forced retention
  auto service = service::SanitizationService::Create(options);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->RegisterRegion("austin", SmallRegion()).ok());

  service::SanitizeRequest request;
  request.region_id = "austin";
  request.location = {30.2672, -97.7431};
  request.deadline_ms = 1e-9;  // expires in the queue: guaranteed degrade
  auto future = (*service)->SubmitFuture(request);
  const service::SanitizeResult result = future.get();
  ASSERT_TRUE(result.status.ok());
  ASSERT_TRUE(result.used_fallback);

  const obs::TraceStats stats = (*service)->trace_recorder()->stats();
  EXPECT_EQ(stats.requests_forced, 1u);

  const std::string dump = (*service)->FlightRecorderJson();
  ASSERT_NE(dump.find("\"kind\":\"fallback\""), std::string::npos);
  // Fallback reason 0: the deadline was gone at pickup.
  EXPECT_NE(dump.find("\"kind\":\"fallback\",\"start_us\""), std::string::npos);
  for (const char* forbidden :
       {"lat", "lon", "coord", "\"x\"", "\"y\"", "point", "location"}) {
    EXPECT_EQ(dump.find(forbidden), std::string::npos)
        << "coordinate-ish key '" << forbidden << "' leaked into " << dump;
  }
  // Same guarantee for the Chrome export (its fixed vocabulary aside:
  // "dur"/"cat"/"args" contain no coordinate data).
  const std::string chrome = (*service)->ChromeTraceJson();
  for (const char* forbidden : {"lat", "lon", "coord", "location"}) {
    EXPECT_EQ(chrome.find(forbidden), std::string::npos);
  }
}

TEST(SanitizationTraceTest, TracingOffCostsNothingAndExportsEmpty) {
  service::ServiceOptions options;
  options.num_workers = 1;
  auto service = service::SanitizationService::Create(options);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ((*service)->trace_recorder(), nullptr);
  EXPECT_EQ((*service)->FlightRecorderJson(), "[]");
  EXPECT_EQ((*service)->ChromeTraceJson(), "{\"traceEvents\":[]}");
  const std::string json = (*service)->MetricsJson();
  EXPECT_NE(json.find("\"trace\":{\"enabled\":0"), std::string::npos);
}

}  // namespace
}  // namespace geopriv::obs
