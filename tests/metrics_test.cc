// Tests for the service metrics surface: the stable key schema (the
// ServiceMetrics / TraceMetrics / RegionMetrics tables are the one source
// of truth), the cumulative histogram export, the
// Prometheus text format, exact integer samples, the escapes, golden
// bytes of every exposition, and the QuantileFromBuckets estimator's
// monotonicity.

#include "service/metrics.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/audit.h"
#include "service/sanitization_service.h"

namespace geopriv::service {
namespace {

// The JSON keys of a scope's metric rows, in order.
std::vector<std::string> Keys(const std::vector<obs::Metric>& rows) {
  std::vector<std::string> keys;
  for (const obs::Metric& row : rows) keys.push_back(row.key);
  return keys;
}

// Asserts every key in `keys` appears in `json` as "key": at a strictly
// increasing position — presence and order in one pass.
void ExpectKeysInOrder(const std::string& json,
                       const std::vector<std::string>& keys,
                       size_t from = 0) {
  size_t pos = from;
  for (const std::string& key : keys) {
    const std::string quoted = "\"" + key + "\":";
    const size_t at = json.find(quoted, pos);
    ASSERT_NE(at, std::string::npos)
        << "key '" << key << "' missing (or out of order) in " << json;
    pos = at + quoted.size();
  }
}

TEST(MetricsSchemaTest, ToJsonEmitsExactlyTheDocumentedKeysInOrder) {
  Metrics metrics;
  metrics.RecordAccepted();
  metrics.RecordOk();
  metrics.RecordLatency(0.010);
  ExpectKeysInOrder(metrics.ToJson(), Keys(ServiceMetrics({})));
}

TEST(MetricsSchemaTest, RecordBundleLoadFlowsIntoSnapshotJsonAndText) {
  Metrics metrics(2);
  metrics.RecordBundleLoad(/*seconds=*/0.25, /*verify_seconds=*/0.0625,
                           /*bytes_mapped=*/1 << 20, /*plan_nodes=*/21);
  metrics.RecordBundleLoad(/*seconds=*/0.50, /*verify_seconds=*/0.125,
                           /*bytes_mapped=*/2 << 20, /*plan_nodes=*/21,
                           /*slot=*/1);

  const MetricsSnapshot s = metrics.Snapshot();
  EXPECT_EQ(s.bundle_loads, 2u);
  EXPECT_DOUBLE_EQ(s.bundle_load_seconds, 0.75);
  EXPECT_DOUBLE_EQ(s.bundle_verify_seconds, 0.1875);
  EXPECT_EQ(s.bundle_bytes_mapped, 3u << 20);
  EXPECT_EQ(s.plan_warm_at_startup, 42u);

  const std::string json = metrics.ToJson();
  ExpectKeysInOrder(json, Keys(ServiceMetrics({})));
  EXPECT_NE(json.find("\"bundle_loads\":2"), std::string::npos) << json;
  // The audit keys extended the schema past the bundle tail, so the
  // object continues after plan_warm_at_startup.
  EXPECT_NE(json.find("\"plan_warm_at_startup\":42,"), std::string::npos)
      << json;

  const std::string text = metrics.ToPrometheus("geopriv_");
  EXPECT_NE(text.find("# TYPE geopriv_bundle_loads_total counter\n"
                      "geopriv_bundle_loads_total 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE geopriv_bundle_verify_seconds gauge\n"
                      "geopriv_bundle_verify_seconds 0.187500000\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE geopriv_bundle_bytes_mapped gauge"),
            std::string::npos);
  EXPECT_NE(text.find("geopriv_plan_warm_at_startup 42\n"),
            std::string::npos);
}

TEST(MetricsSchemaTest, ToJsonBucketArraysAreCumulativeAndConsistent) {
  Metrics metrics;
  metrics.RecordLatency(0.5e-6);  // first bucket
  metrics.RecordLatency(0.001);
  metrics.RecordLatency(0.001);
  metrics.RecordLatency(1e9);  // clamped into the open-ended top bucket

  const MetricsSnapshot s = metrics.Snapshot();
  EXPECT_EQ(s.latency_count, 4u);
  // Cumulative: non-decreasing, first bucket counts the sub-microsecond
  // sample, the last equals the total count.
  EXPECT_EQ(s.latency_buckets.front(), 1u);
  for (size_t i = 1; i < s.latency_buckets.size(); ++i) {
    EXPECT_GE(s.latency_buckets[i], s.latency_buckets[i - 1]);
  }
  EXPECT_EQ(s.latency_buckets.back(), s.latency_count);

  // The JSON mirrors the snapshot: kNumBuckets bounds and counts, and the
  // final cumulative count equals latency_count.
  const std::string json = metrics.ToJson();
  const size_t bounds_at = json.find("\"latency_bucket_le_s\":[");
  const size_t counts_at = json.find("\"latency_buckets_cumulative\":[");
  ASSERT_NE(bounds_at, std::string::npos);
  ASSERT_NE(counts_at, std::string::npos);
  // (The bundle keys extended the schema past the arrays, so the array
  // is followed by more keys, not the closing brace.)
  EXPECT_NE(json.find(",4],", counts_at), std::string::npos) << json;
}

TEST(MetricsSchemaTest, ServiceMetricsJsonFollowsTheDocumentedSchema) {
  ServiceOptions options;
  options.num_workers = 1;
  auto service = SanitizationService::Create(options);
  ASSERT_TRUE(service.ok());

  RegionConfig config;
  config.min_lat = 30.19;
  config.min_lon = -97.87;
  config.max_lat = 30.37;
  config.max_lon = -97.66;
  config.eps = 0.5;
  config.granularity = 3;
  config.prior_granularity = 16;
  ASSERT_TRUE((*service)->RegisterRegion("austin", config).ok());

  const std::string json = (*service)->MetricsJson();
  ExpectKeysInOrder(json, {"service", "snapshot_epoch", "trace", "regions"});
  ExpectKeysInOrder(json, Keys(obs::TraceMetrics(nullptr)),
                    json.find("\"trace\":"));
  ExpectKeysInOrder(json, Keys(RegionMetrics({})),
                    json.find("\"regions\":"));
}

TEST(MetricsPrometheusTest, TextExpositionHasCountersAndHistogram) {
  Metrics metrics;
  for (int i = 0; i < 5; ++i) metrics.RecordAccepted();
  metrics.RecordOk();
  metrics.RecordDeadlineFallback();
  metrics.RecordLatency(0.001);
  metrics.RecordLatency(0.004);
  metrics.RecordLatency(2.0);

  const std::string text = metrics.ToPrometheus("geopriv_");
  EXPECT_NE(text.find("# TYPE geopriv_requests_total counter\n"
                      "geopriv_requests_total 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("geopriv_fallbacks_deadline_total 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE geopriv_request_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("geopriv_request_latency_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("geopriv_request_latency_seconds_count 3"),
            std::string::npos);
  EXPECT_NE(text.find("geopriv_request_latency_seconds_sum 2.005"),
            std::string::npos);

  // Bucket counts are cumulative: extract every le-bucket value and check
  // it never decreases, ending at the +Inf count.
  std::vector<unsigned long long> counts;
  size_t pos = 0;
  const std::string needle = "geopriv_request_latency_seconds_bucket{le=";
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    const size_t space = text.find("} ", pos);
    ASSERT_NE(space, std::string::npos);
    counts.push_back(std::stoull(text.substr(space + 2)));
    pos = space;
  }
  ASSERT_EQ(counts.size(),
            static_cast<size_t>(LatencyHistogram::kNumBuckets));
  for (size_t i = 1; i < counts.size(); ++i) {
    EXPECT_GE(counts[i], counts[i - 1]);
  }
  EXPECT_EQ(counts.back(), 3u);
}

TEST(MetricsPrometheusTest, ServiceTextCarriesRegionGaugesAndEpoch) {
  ServiceOptions options;
  options.num_workers = 1;
  options.trace.sample_one_in = 1;
  auto service = SanitizationService::Create(options);
  ASSERT_TRUE(service.ok());

  RegionConfig config;
  config.min_lat = 30.19;
  config.min_lon = -97.87;
  config.max_lat = 30.37;
  config.max_lon = -97.66;
  config.eps = 0.5;
  config.granularity = 3;
  config.prior_granularity = 16;
  ASSERT_TRUE((*service)->RegisterRegion("aus\"tin", config).ok());

  const std::string text = (*service)->MetricsText();
  EXPECT_NE(text.find("geopriv_snapshot_epoch 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE geopriv_trace_requests_started_total counter"),
            std::string::npos);
  // The hostile region id survives as an escaped label value.
  EXPECT_NE(text.find("geopriv_region_cache_size{region=\"aus\\\"tin\"}"),
            std::string::npos);
}

TEST(MetricsSchemaTest, AuditCountersFlowIntoBothExpositions) {
  Metrics metrics(2);
  metrics.RecordAuditRun(/*nodes_audited=*/10, /*nodes_skipped=*/2,
                         /*seconds=*/0.25);
  metrics.RecordAuditRun(/*nodes_audited=*/5, /*nodes_skipped=*/0,
                         /*seconds=*/0.50, /*slot=*/1);
  metrics.RecordAuditDrift();
  metrics.RecordAuditTaskRejected(/*slot=*/1);
  metrics.RecordAuditBaselineError();

  const MetricsSnapshot s = metrics.Snapshot();
  EXPECT_EQ(s.audit_runs, 2u);
  EXPECT_EQ(s.audit_nodes_audited, 15u);
  EXPECT_EQ(s.audit_skipped_nodes, 2u);
  EXPECT_EQ(s.audit_drift_events, 1u);
  EXPECT_EQ(s.audit_tasks_rejected, 1u);
  EXPECT_EQ(s.audit_baseline_errors, 1u);
  EXPECT_DOUBLE_EQ(s.audit_seconds, 0.75);

  const std::string json = metrics.ToJson();
  ExpectKeysInOrder(json, Keys(ServiceMetrics({})));
  EXPECT_NE(json.find("\"audit_runs\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"audit_drift_events\":1"), std::string::npos);

  const std::string text = metrics.ToPrometheus("geopriv_");
  EXPECT_NE(text.find("# TYPE geopriv_audit_runs_total counter\n"
                      "geopriv_audit_runs_total 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("geopriv_audit_nodes_audited_total 15\n"),
            std::string::npos);
  EXPECT_NE(text.find("geopriv_audit_drift_events_total 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE geopriv_audit_seconds gauge"),
            std::string::npos);
}

TEST(MetricsPrometheusTest, RegionIntegerSamplesPrintExactly) {
  // Past 1e9 a %.9g sample would round (1e+10); integer rows must keep
  // every digit, in both expositions.
  SanitizationService::RegionInfo info;
  info.msm.cache_hits = 10000000009;
  info.bundle_bytes_mapped = 1234567891;

  std::string text;
  obs::AppendPrometheus(text, "geopriv_region_", RegionMetrics({}), "region",
                        {{"r", RegionMetrics(info)}}, obs::kG9);
  EXPECT_NE(text.find("geopriv_region_cache_hits{region=\"r\"} "
                      "10000000009\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("geopriv_region_bundle_bytes_mapped{region=\"r\"} "
                      "1234567891\n"),
            std::string::npos)
      << text;

  std::string json = "{";
  obs::AppendJson(json, RegionMetrics(info));
  EXPECT_NE(json.find("\"cache_hits\":10000000009,"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"bundle_bytes_mapped\":1234567891,"),
            std::string::npos)
      << json;
}

TEST(JsonEscapeTest, EscapesEveryControlCharacterAndJsonSpecials) {
  // The named short escapes.
  EXPECT_EQ(obs::JsonEscape("\""), "\\\"");
  EXPECT_EQ(obs::JsonEscape("\\"), "\\\\");
  EXPECT_EQ(obs::JsonEscape("\b"), "\\b");
  EXPECT_EQ(obs::JsonEscape("\f"), "\\f");
  EXPECT_EQ(obs::JsonEscape("\n"), "\\n");
  EXPECT_EQ(obs::JsonEscape("\r"), "\\r");
  EXPECT_EQ(obs::JsonEscape("\t"), "\\t");
  // Every other control character becomes \u00XX — the whole range
  // 0x00..0x1F must come out escaped, nothing raw.
  for (int c = 0; c < 0x20; ++c) {
    const std::string escaped =
        obs::JsonEscape(std::string(1, static_cast<char>(c)));
    ASSERT_GE(escaped.size(), 2u) << "control char " << c << " left raw";
    EXPECT_EQ(escaped[0], '\\') << "control char " << c;
    if (c != '\b' && c != '\f' && c != '\n' && c != '\r' && c != '\t') {
      char expect[8];
      std::snprintf(expect, sizeof(expect), "\\u%04x", c);
      EXPECT_EQ(escaped, expect);
    }
  }
  // Printable ASCII and high bytes (UTF-8 continuation range) pass through.
  EXPECT_EQ(obs::JsonEscape("plain text 123"), "plain text 123");
  EXPECT_EQ(obs::JsonEscape("\xc3\xa9"), "\xc3\xa9");
  // DEL (0x7F) is not a JSON control character and passes through.
  EXPECT_EQ(obs::JsonEscape("\x7f"), "\x7f");
}

TEST(QuantileFromBucketsTest, MonotoneInQ) {
  LatencyHistogram::BucketCounts counts{};
  counts[2] = 10;
  counts[5] = 3;
  counts[11] = 40;
  counts[27] = 7;
  double prev = -1.0;
  for (int i = 0; i <= 100; ++i) {
    const double q = i / 100.0;
    const double v = LatencyHistogram::QuantileFromBuckets(counts, q);
    EXPECT_GE(v, prev) << "quantile regressed at q=" << q;
    prev = v;
  }
  // And clamping: out-of-range q behaves like the endpoints.
  EXPECT_EQ(LatencyHistogram::QuantileFromBuckets(counts, -3.0),
            LatencyHistogram::QuantileFromBuckets(counts, 0.0));
  EXPECT_EQ(LatencyHistogram::QuantileFromBuckets(counts, 42.0),
            LatencyHistogram::QuantileFromBuckets(counts, 1.0));
}

TEST(QuantileFromBucketsTest, EmptyBucketsYieldZeroForEveryQ) {
  const LatencyHistogram::BucketCounts counts{};
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(LatencyHistogram::QuantileFromBuckets(counts, q), 0.0);
  }
}

// Golden expositions: the full bytes of every writer on inputs that hold
// no timing and no LP output, so a changed key, family, number format or
// escape shows up as a diff against tests/golden/. After an intended
// schema change, rerun with GEOPRIV_UPDATE_GOLDEN=1 to rewrite the files.
void ExpectGolden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(GEOPRIV_GOLDEN_DIR) + "/" + name;
  if (std::getenv("GEOPRIV_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::binary) << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  const std::string expected{std::istreambuf_iterator<char>(in), {}};
  EXPECT_EQ(actual, expected) << "exposition drifted from " << path;
}

TEST(MetricsGoldenTest, ServiceCounters) {
  Metrics metrics(3);
  // A distinct count per counter, so two swapped rows change the bytes.
  const auto repeat = [](int n, const auto& record) {
    for (int i = 0; i < n; ++i) record(i % 3);
  };
  repeat(23, [&](int slot) { metrics.RecordAccepted(slot); });
  repeat(13, [&](int slot) { metrics.RecordOk(slot); });
  repeat(17, [&](int slot) { metrics.RecordRejected(slot); });
  repeat(1, [&](int slot) { metrics.RecordFailed(slot); });
  repeat(3, [&](int slot) { metrics.RecordDeadlineFallback(slot); });
  repeat(5, [&](int slot) { metrics.RecordMechanismFallback(slot); });
  repeat(4, [&](int slot) { metrics.RecordDeadlineOverrun(slot); });
  for (const double seconds : {0.5e-6, 0.001, 0.004, 0.25, 2.0, 150.0}) {
    metrics.RecordLatency(seconds, /*slot=*/1);
  }
  metrics.RecordBundleLoad(0.25, 0.0625, 1 << 20, 21, /*slot=*/0);
  metrics.RecordBundleLoad(0.5, 0.125, 3 << 20, 10, /*slot=*/2);
  repeat(9, [&](int slot) {
    metrics.RecordAuditRun(11, slot + 1, 0.125, slot);
  });
  repeat(14, [&](int slot) { metrics.RecordAuditDrift(slot); });
  repeat(15, [&](int slot) { metrics.RecordAuditTaskRejected(slot); });
  repeat(16, [&](int slot) { metrics.RecordAuditBaselineError(slot); });

  ExpectGolden("metrics.json", metrics.ToJson());
  ExpectGolden("metrics.prom", metrics.ToPrometheus("geopriv_"));
}

TEST(MetricsGoldenTest, AuditReport) {
  audit::RegionAuditReport report;
  report.height = 2;
  report.audited_nodes = 10;
  report.skipped_nodes = 1;
  report.cold_nodes_skipped = 3;
  report.expected_loss_euclidean = 0.1;
  report.expected_loss_squared = 1.0 / 3.0;
  report.adversary_error = 2.5e-3;
  report.conditional_entropy_bits = 3.25;
  report.worst_case_loss = 0.75;
  report.min_slack = 1e-12;
  report.max_violation = 0.0;
  for (int level = 1; level <= 2; ++level) {
    audit::LevelAudit l;
    l.level = level;
    l.nodes = level == 1 ? 1 : 9;
    l.weight = 1.0 - 0.001 * level;
    l.expected_loss_euclidean = 0.05 * level;
    l.expected_loss_squared = 0.01 / level;
    l.adversary_error = 1.0 / 7.0 + level;
    l.conditional_entropy_bits = 1.5 * level;
    l.worst_case_loss = 0.3 + level;
    l.min_slack = 2e-9 * level;
    l.max_violation = 1e-15 * level;
    report.levels.push_back(l);
  }
  ExpectGolden("audit_report.json", audit::ReportJson(report));
  ExpectGolden("audit_report.prom", audit::ReportPrometheus(report));
}

TEST(MetricsGoldenTest, TracedServiceWithTwoIdleRegions) {
  ServiceOptions options;
  options.num_workers = 1;
  options.trace.sample_one_in = 1;
  auto service = SanitizationService::Create(options);
  ASSERT_TRUE(service.ok());
  RegionConfig config;
  config.min_lat = 30.19;
  config.min_lon = -97.87;
  config.max_lat = 30.37;
  config.max_lon = -97.66;
  config.eps = 0.5;
  config.granularity = 3;
  config.prior_granularity = 16;
  ASSERT_TRUE((*service)->RegisterRegion("austin", config).ok());
  config.eps = 1.25;
  config.granularity = 2;
  config.cache_byte_budget = 4096;
  ASSERT_TRUE((*service)->RegisterRegion("a\"b\\c\nd", config).ok());

  ExpectGolden("service_traced.json", (*service)->MetricsJson());
  ExpectGolden("service_traced.prom", (*service)->MetricsText());
}

TEST(MetricsGoldenTest, DefaultServiceWithNoRegions) {
  auto service = SanitizationService::Create(ServiceOptions{});
  ASSERT_TRUE(service.ok());
  ExpectGolden("service_default.json", (*service)->MetricsJson());
  ExpectGolden("service_default.prom", (*service)->MetricsText());
}

TEST(QuantileFromBucketsTest, SingleBucketInterpolatesWithinBounds) {
  LatencyHistogram::BucketCounts counts{};
  counts[4] = 100;  // all mass in bucket 4: (BucketBound(3), BucketBound(4)]
  const double lower = LatencyHistogram::BucketBound(3);
  const double upper = LatencyHistogram::BucketBound(4);
  for (const double q : {0.01, 0.5, 0.99}) {
    const double v = LatencyHistogram::QuantileFromBuckets(counts, q);
    EXPECT_GE(v, lower);
    EXPECT_LE(v, upper);
  }
}

}  // namespace
}  // namespace geopriv::service
