// Tests for the mechanism-audit engine: closed-form kernel checks on
// tiny mechanisms, the optimality orderings the audit numbers must obey
// (OPT beats the exponential mechanism on expected loss; deterministic
// remaps cannot help the optimal adversary), the zero-mass-prior guard,
// bundle-vs-live bit identity, baseline round-trips and drift detection,
// the service's background auditor (including forced flight-recorder
// retention on drift), and the auditor racing register/unregister (the
// TSan concurrency target).

#include "audit/audit.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "audit/baseline.h"
#include "bundle/builder.h"
#include "bundle/region_bundle.h"
#include "core/location_sanitizer.h"
#include "geo/point.h"
#include "mechanisms/optimal.h"
#include "service/sanitization_service.h"

namespace geopriv::audit {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Same presence-and-order assertion the metrics schema tests use: every
// row's key appears in `json` as "key": at a strictly increasing position.
void ExpectKeysInOrder(const std::string& json,
                       const std::vector<obs::Metric>& rows,
                       size_t from = 0) {
  size_t pos = from;
  for (const obs::Metric& row : rows) {
    const std::string key = row.key;
    const std::string quoted = "\"" + key + "\":";
    const size_t at = json.find(quoted, pos);
    ASSERT_NE(at, std::string::npos)
        << "key '" << key << "' missing (or out of order) in " << json;
    pos = at + quoted.size();
  }
}

// Two cells one unit apart under the maximally uninformative (uniform)
// mechanism: every quantity has a closed form.
TEST(AuditKernelTest, UniformTwoCellMechanismClosedForm) {
  const std::vector<geo::Point> locations = {{0.0, 0.0}, {1.0, 0.0}};
  const std::vector<double> prior = {0.5, 0.5};
  const std::vector<double> k = {0.5, 0.5, 0.5, 0.5};
  const double eps = 2.0;
  const NodeAudit audit =
      AuditMechanism({eps, locations, prior, k});

  ASSERT_FALSE(audit.invalid);
  ASSERT_FALSE(audit.posterior_skipped);
  EXPECT_EQ(audit.n, 2);
  // Each row reports the far cell with probability 1/2.
  EXPECT_DOUBLE_EQ(audit.expected_loss_euclidean, 0.5);
  EXPECT_DOUBLE_EQ(audit.expected_loss_squared, 0.5);
  EXPECT_DOUBLE_EQ(audit.worst_case_loss, 0.5);
  // K reveals nothing, so the adversary is stuck with the prior-only
  // guess (error 1/2) and the posterior keeps the full bit of entropy.
  EXPECT_DOUBLE_EQ(audit.adversary_error, 0.5);
  EXPECT_NEAR(audit.conditional_entropy_bits, 1.0, 1e-12);
  // Slack of the uniform row pair: 0.5 - 0.5 e^{-eps} > 0, no violation.
  EXPECT_NEAR(audit.min_slack, 0.5 - 0.5 * std::exp(-eps), 1e-12);
  EXPECT_DOUBLE_EQ(audit.max_violation, 0.0);
}

TEST(AuditKernelTest, IdentityMatrixViolatesGeoIndAndLeaksEverything) {
  const std::vector<geo::Point> locations = {{0.0, 0.0}, {1.0, 0.0}};
  const std::vector<double> prior = {0.5, 0.5};
  const std::vector<double> k = {1.0, 0.0, 0.0, 1.0};
  const double eps = 1.0;
  const NodeAudit audit = AuditMechanism({eps, locations, prior, k});

  ASSERT_FALSE(audit.invalid);
  // Deterministic disclosure: zero loss, zero adversary error, zero
  // residual entropy...
  EXPECT_DOUBLE_EQ(audit.expected_loss_euclidean, 0.0);
  EXPECT_DOUBLE_EQ(audit.adversary_error, 0.0);
  EXPECT_DOUBLE_EQ(audit.conditional_entropy_bits, 0.0);
  // ...and a GeoInd violation of exactly e^{-eps}: K(x,z)/e^{eps d} -
  // K(x',z) = e^{-1} - 0 for the revealing column.
  EXPECT_NEAR(audit.max_violation, std::exp(-eps), 1e-12);
  EXPECT_NEAR(audit.min_slack, -std::exp(-eps), 1e-12);
  const SlackResult slack = GeoIndSlack({eps, locations, prior, k});
  EXPECT_DOUBLE_EQ(slack.max_violation, audit.max_violation);
  EXPECT_DOUBLE_EQ(slack.min_slack, audit.min_slack);
}

// A 2x2 unit grid with a skewed prior. The LP-optimal mechanism must
// (a) satisfy GeoInd with nonnegative slack (up to solver feasibility
// tolerance) and (b) beat the exponential-mechanism matrix — the
// planar-Laplace-style baseline — on expected loss, which is exactly
// the paper's reason for solving the LP at all.
TEST(AuditKernelTest, OptimalBeatsExponentialMechanismOnExpectedLoss) {
  const std::vector<geo::Point> locations = {
      {0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};
  const std::vector<double> prior = {0.4, 0.3, 0.2, 0.1};
  const double eps = 1.2;
  const int n = 4;

  auto opt = mechanisms::OptimalMechanism::Create(eps, locations, prior,
                                                  geo::UtilityMetric::kEuclidean);
  ASSERT_TRUE(opt.ok()) << opt.status().ToString();
  const NodeAudit opt_audit = AuditMechanism(
      {opt->eps(), opt->locations(), opt->prior_vector(), opt->k_table()});
  ASSERT_FALSE(opt_audit.invalid);
  // Valid mechanism: slack >= 0 up to the LP's feasibility tolerance.
  EXPECT_GT(opt_audit.min_slack, -1e-6);
  EXPECT_LT(opt_audit.max_violation, 1e-6);

  // Exponential mechanism over the same candidates: K(x,z) ~
  // e^{-(eps/2) d(x,z)}, row-normalized — GeoInd-valid by construction.
  std::vector<double> k_exp(static_cast<size_t>(n) * n, 0.0);
  for (int x = 0; x < n; ++x) {
    double row = 0.0;
    for (int z = 0; z < n; ++z) {
      const double dx = locations[x].x - locations[z].x;
      const double dy = locations[x].y - locations[z].y;
      k_exp[x * n + z] = std::exp(-0.5 * eps * std::hypot(dx, dy));
      row += k_exp[x * n + z];
    }
    for (int z = 0; z < n; ++z) k_exp[x * n + z] /= row;
  }
  const NodeAudit exp_audit = AuditMechanism(
      {eps, locations, opt->prior_vector(), k_exp});
  ASSERT_FALSE(exp_audit.invalid);
  EXPECT_GT(exp_audit.min_slack, -1e-12);

  EXPECT_LE(opt_audit.expected_loss_euclidean,
            exp_audit.expected_loss_euclidean + 1e-9)
      << "the LP optimum lost to the exponential-mechanism baseline";
}

// Data-processing inequality for Bayes risk: deterministically remapping
// outputs (here: merging all four columns into one) gives the adversary
// strictly less to work with, so the optimal inference error cannot
// decrease. (Remapping can only *raise* adversary error — the direction
// that matters when sanity-checking published matrices.)
TEST(AuditKernelTest, DeterministicRemapNeverHelpsTheAdversary) {
  const std::vector<geo::Point> locations = {
      {0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};
  const std::vector<double> prior = {0.4, 0.3, 0.2, 0.1};
  const double eps = 1.2;
  const int n = 4;
  auto opt = mechanisms::OptimalMechanism::Create(eps, locations, prior,
                                                  geo::UtilityMetric::kEuclidean);
  ASSERT_TRUE(opt.ok()) << opt.status().ToString();
  const NodeAudit before = AuditMechanism(
      {eps, locations, opt->prior_vector(), opt->k_table()});

  // Remap r(z) = column 0 for every z: K'(x,0) = 1.
  std::vector<double> k_merged(static_cast<size_t>(n) * n, 0.0);
  for (int x = 0; x < n; ++x) k_merged[x * n] = 1.0;
  const NodeAudit after = AuditMechanism(
      {eps, locations, opt->prior_vector(), k_merged});

  EXPECT_GE(after.adversary_error, before.adversary_error - 1e-12);
  EXPECT_GE(after.conditional_entropy_bits,
            before.conditional_entropy_bits - 1e-12);
}

TEST(AuditKernelTest, ZeroMassPriorIsGuardedNotPoisoned) {
  const std::vector<geo::Point> locations = {{0.0, 0.0}, {1.0, 0.0}};
  const std::vector<double> prior = {0.0, 0.0};
  const std::vector<double> k = {0.5, 0.5, 0.5, 0.5};
  const NodeAudit audit = AuditMechanism({1.0, locations, prior, k});

  ASSERT_FALSE(audit.invalid);
  EXPECT_TRUE(audit.posterior_skipped);
  // Losses fall back to the uniform prior (matching the builder's own
  // uniform fallback); posterior quantities are zeroed, never NaN.
  EXPECT_DOUBLE_EQ(audit.expected_loss_euclidean, 0.5);
  EXPECT_DOUBLE_EQ(audit.adversary_error, 0.0);
  EXPECT_DOUBLE_EQ(audit.conditional_entropy_bits, 0.0);
  EXPECT_TRUE(std::isfinite(audit.min_slack));
}

TEST(AuditKernelTest, MalformedViewsAreInvalidNotUB) {
  const std::vector<geo::Point> locations = {{0.0, 0.0}, {1.0, 0.0}};
  const std::vector<double> prior = {0.5, 0.5};
  std::vector<double> k = {0.5, 0.5, 0.5,
                           std::numeric_limits<double>::quiet_NaN()};
  EXPECT_TRUE(AuditMechanism({1.0, locations, prior, k}).invalid);
  // Mismatched K size.
  const std::vector<double> short_k = {1.0, 0.0};
  EXPECT_TRUE(AuditMechanism({1.0, locations, prior, short_k}).invalid);
  // Empty view.
  EXPECT_TRUE(AuditMechanism({1.0, {}, {}, {}}).invalid);
}

bundle::RegionSpec TestSpec() {
  bundle::RegionSpec spec;
  spec.min_lat = 30.19;
  spec.min_lon = -97.87;
  spec.max_lat = 30.37;
  spec.max_lon = -97.66;
  spec.eps = 1.0;
  spec.granularity = 3;
  spec.prior_granularity = 16;
  for (int i = 0; i < 200; ++i) {
    spec.checkins.push_back(
        {30.20 + 0.0008 * (i % 17), -97.85 + 0.0009 * (i % 13)});
  }
  return spec;
}

core::LocationSanitizer BuildLive(const bundle::RegionSpec& spec) {
  core::LocationSanitizer::Builder builder;
  builder.SetRegionLatLon(spec.min_lat, spec.min_lon, spec.max_lat,
                          spec.max_lon)
      .SetEpsilon(spec.eps)
      .SetGranularity(spec.granularity)
      .SetRho(spec.rho)
      .SetPriorGranularity(spec.prior_granularity)
      .SetUtilityMetric(spec.metric);
  if (!spec.checkins.empty()) builder.AddCheckinsLatLon(spec.checkins);
  auto sanitizer = builder.Build();
  EXPECT_TRUE(sanitizer.ok()) << sanitizer.status().ToString();
  return std::move(sanitizer).value();
}

TEST(AuditRegionTest, BundleAndLiveAuditsAreBitIdentical) {
  const bundle::RegionSpec spec = TestSpec();
  const std::string path = TempPath("audit_bit_identity.gpb2");
  auto built = bundle::BuildRegionBundle(spec, {}, path);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  auto view = bundle::RegionBundleView::Open(path);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  auto from_bundle = AuditBundle(view.value());
  ASSERT_TRUE(from_bundle.ok()) << from_bundle.status().ToString();

  const core::LocationSanitizer live = BuildLive(spec);
  const RegionAuditReport from_live = AuditRegion(live);

  ASSERT_GT(from_bundle->audited_nodes, 0u);
  // Byte-equal serializations: every double, in every level, identical.
  EXPECT_EQ(ReportJson(*from_bundle), ReportJson(from_live));
}

TEST(AuditRegionTest, ResidentOnlyAuditSkipsColdNodesWithoutSolving) {
  const core::LocationSanitizer live = BuildLive(TestSpec());
  const int64_t solves_before = live.mechanism().stats().lp_solves;

  AuditOptions options;
  options.include_cold_nodes = false;
  const RegionAuditReport report = AuditRegion(live, options);

  // Builder::Build() warms at most the root; everything else is cold and
  // must be counted, not solved.
  EXPECT_GT(report.cold_nodes_skipped + report.audited_nodes, 0u);
  EXPECT_EQ(live.mechanism().stats().lp_solves, solves_before)
      << "resident-only audit paid LP solves";
}

TEST(AuditRegionTest, MaxNodesBoundsTheWalk) {
  const core::LocationSanitizer live = BuildLive(TestSpec());
  AuditOptions options;
  options.max_nodes = 1;
  const RegionAuditReport report = AuditRegion(live, options);
  EXPECT_LE(report.audited_nodes + report.skipped_nodes +
                report.cold_nodes_skipped,
            1u);
}

TEST(AuditRegionTest, ReportJsonAndPrometheusFollowTheSchema) {
  const core::LocationSanitizer live = BuildLive(TestSpec());
  const RegionAuditReport report = AuditRegion(live);
  ASSERT_GT(report.audited_nodes, 0u);
  ASSERT_FALSE(report.levels.empty());

  const std::string json = ReportJson(report);
  ExpectKeysInOrder(json, AuditReportMetrics({}));
  ExpectKeysInOrder(json, AuditLevelMetrics({}),
                    json.find("\"levels\":["));
  // Valid mechanisms: slack >= 0 up to LP tolerance, at region scope.
  EXPECT_GT(report.min_slack, -1e-6);

  const std::string prom = ReportPrometheus(report);
  EXPECT_NE(prom.find("# TYPE geopriv_audit_expected_loss_euclidean gauge"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("geopriv_audit_level_adversary_error{level=\"1\"}"),
            std::string::npos)
      << prom;
}

TEST(AuditBaselineTest, StoreRoundTripsThroughDiskWithEscapedIds) {
  BaselineStore store;
  BaselineEntry entry;
  entry.expected_loss_euclidean = 1.0 / 3.0;
  entry.expected_loss_squared = 2.0 / 7.0;
  entry.adversary_error = 0.125;
  entry.conditional_entropy_bits = 3.25;
  entry.worst_case_loss = 9.5;
  entry.min_slack = -1.9580924491213348e-16;
  store.Update("plain", entry);
  store.Update("id with spaces\tand%tabs\n", entry);
  // Longer than a line buffer of a few hundred bytes, and sorted before
  // the other ids, so a truncated line would swallow the next one.
  const std::string long_id(600, 'a');
  store.Update(long_id, entry);

  const std::string path = TempPath("audit_baseline_roundtrip.txt");
  ASSERT_TRUE(store.Save(path).ok());

  BaselineStore loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  ASSERT_EQ(loaded.size(), 3u);
  ASSERT_NE(loaded.Find(long_id), nullptr);
  const BaselineEntry* got = loaded.Find("id with spaces\tand%tabs\n");
  ASSERT_NE(got, nullptr);
  // %.17g round-trips doubles exactly.
  EXPECT_EQ(got->expected_loss_euclidean, entry.expected_loss_euclidean);
  EXPECT_EQ(got->min_slack, entry.min_slack);
  // Unchanged store re-serializes byte-identically.
  EXPECT_EQ(loaded.Serialize(), store.Serialize());
}

TEST(AuditBaselineTest, ParseRejectsGarbage) {
  BaselineStore store;
  EXPECT_FALSE(store.ParseFrom("not a baseline\n").ok());
  EXPECT_FALSE(
      store.ParseFrom("geopriv-audit-baseline v1\nid 1 2 3\n").ok());
  EXPECT_TRUE(store.ParseFrom("geopriv-audit-baseline v1\n").ok());
}

TEST(AuditBaselineTest, DriftFiresOnPerturbationPastThreshold) {
  BaselineEntry base;
  base.expected_loss_euclidean = 2.0;
  base.adversary_error = 1.0;
  BaselineEntry current = base;
  current.expected_loss_euclidean = 2.1;  // +5%

  EXPECT_FALSE(CompareToBaseline(base, current, 0.10).drifted);
  EXPECT_TRUE(CompareToBaseline(base, current, 0.04).drifted);
  // Either gating metric alone trips it.
  current = base;
  current.adversary_error = 0.5;  // -50% protection
  const DriftResult drift = CompareToBaseline(base, current, 0.25);
  EXPECT_TRUE(drift.drifted);
  EXPECT_NEAR(drift.adversary_rel, 0.5, 1e-12);
  EXPECT_NEAR(drift.loss_rel, 0.0, 1e-12);
  // threshold <= 0 disables gating but still reports deltas.
  const DriftResult off = CompareToBaseline(base, current, 0.0);
  EXPECT_FALSE(off.drifted);
  EXPECT_NEAR(off.adversary_rel, 0.5, 1e-12);
}

service::RegionConfig TestRegionConfig() {
  service::RegionConfig config;
  config.min_lat = 30.19;
  config.min_lon = -97.87;
  config.max_lat = 30.37;
  config.max_lon = -97.66;
  config.eps = 0.5;
  config.granularity = 3;
  config.prior_granularity = 16;
  return config;
}

TEST(SanitizationServiceAuditTest, AuditRegionNowPublishesEverySurface) {
  service::ServiceOptions options;
  options.num_workers = 1;
  options.auditor.audit_cold_nodes = true;
  auto service = service::SanitizationService::Create(options);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->RegisterRegion("austin", TestRegionConfig()).ok());

  EXPECT_EQ((*service)->AuditRegionNow("nope").code(),
            StatusCode::kNotFound);
  ASSERT_TRUE((*service)->AuditRegionNow("austin").ok());

  const std::string json = (*service)->MetricsJson();
  ExpectKeysInOrder(json, service::RegionMetrics({}),
                    json.find("\"regions\":"));
  EXPECT_NE(json.find("\"audit_runs\":1"), std::string::npos) << json;

  const std::string text = (*service)->MetricsText();
  EXPECT_NE(text.find("geopriv_audit_runs_total 1"), std::string::npos);
  EXPECT_NE(text.find("geopriv_region_audit_runs{region=\"austin\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("# TYPE geopriv_region_audit_adversary_error gauge"),
      std::string::npos);
}

TEST(SanitizationServiceAuditTest, InvalidAuditorOptionsAreRejected) {
  service::ServiceOptions options;
  options.auditor.cadence_seconds = -1.0;
  EXPECT_FALSE(service::SanitizationService::Create(options).ok());
}

TEST(SanitizationServiceAuditTest, BackgroundAuditorRunsOnCadence) {
  service::ServiceOptions options;
  options.num_workers = 2;
  options.auditor.cadence_seconds = 0.02;
  options.auditor.audit_cold_nodes = true;
  auto service = service::SanitizationService::Create(options);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->RegisterRegion("austin", TestRegionConfig()).ok());

  // Wait for at least one pass to land (generously bounded).
  for (int i = 0; i < 500 && (*service)->audit_passes() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT((*service)->audit_passes(), 0u);
  (*service)->Drain();
  const std::string json = (*service)->MetricsJson();
  EXPECT_EQ(json.find("\"audit_runs\":0,"), std::string::npos) << json;
  (*service)->Shutdown();  // StopAuditor + pool shutdown, idempotent
}

TEST(SanitizationServiceAuditTest, DriftForcesFlightRecorderRetention) {
  // A bogus baseline far from reality guarantees the first audit drifts.
  const std::string baseline_path = TempPath("audit_drift_baseline.txt");
  std::FILE* f = std::fopen(baseline_path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("geopriv-audit-baseline v1\n"
             "austin 1000 1000 1000 1 1 0\n",
             f);
  std::fclose(f);

  service::ServiceOptions options;
  options.num_workers = 1;
  options.auditor.audit_cold_nodes = true;
  options.auditor.baseline_path = baseline_path;
  // Tracing on but head sampling effectively off: only the drift's
  // force-retention flag can land the trace in the flight recorder.
  options.trace.sample_one_in = 1u << 30;
  auto service = service::SanitizationService::Create(options);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->RegisterRegion("austin", TestRegionConfig()).ok());

  const obs::TraceStats before = (*service)->trace_recorder()->stats();
  ASSERT_TRUE((*service)->AuditRegionNow("austin").ok());

  const std::string json = (*service)->MetricsJson();
  EXPECT_NE(json.find("\"audit_drift_events\":1"), std::string::npos) << json;

  const obs::TraceStats after = (*service)->trace_recorder()->stats();
  EXPECT_GT(after.requests_forced, before.requests_forced)
      << "drift did not force flight-recorder retention";
  const std::string recorder = (*service)->FlightRecorderJson(16);
  EXPECT_NE(recorder.find("audit_drift"), std::string::npos) << recorder;
  EXPECT_NE(recorder.find("audit_region"), std::string::npos) << recorder;
}

// TSan target (matched by the CI concurrency regex): the background
// auditor sweeping the registry while regions register, unregister, and
// both metric expositions render concurrently.
TEST(SanitizationServiceAuditTest, AuditorRacesRegisterUnregisterCleanly) {
  service::ServiceOptions options;
  options.num_workers = 2;
  options.auditor.cadence_seconds = 0.001;
  options.auditor.audit_cold_nodes = true;
  auto service = service::SanitizationService::Create(options);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->RegisterRegion("stable", TestRegionConfig()).ok());

  std::atomic<bool> stop{false};
  std::thread churner([&] {
    int round = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string id = "churn-" + std::to_string(round++ % 3);
      (void)(*service)->RegisterRegion(id, TestRegionConfig());
      (void)(*service)->AuditRegionNow(id);
      (void)(*service)->UnregisterRegion(id);
    }
  });
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)(*service)->MetricsJson();
      (void)(*service)->MetricsText();
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true, std::memory_order_relaxed);
  churner.join();
  scraper.join();
  (*service)->Shutdown();
  SUCCEED();  // the assertion is TSan (and not crashing)
}

}  // namespace
}  // namespace geopriv::audit
