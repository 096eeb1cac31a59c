// Concurrency tests for src/service/: N threads x M queries through one
// shared SanitizationService. Run them under TSan via
//   cmake -B build-tsan -DGEOPRIV_SANITIZE=thread
// to assert data-race freedom (satellite of the service PR).

#include "service/sanitization_service.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/node_cache.h"
#include "mechanisms/optimal.h"

namespace geopriv::service {
namespace {

// The paper's Austin study region.
constexpr double kMinLat = 30.1927, kMinLon = -97.8698;
constexpr double kMaxLat = 30.3723, kMaxLon = -97.6618;

RegionConfig AustinConfig() {
  RegionConfig config;
  config.min_lat = kMinLat;
  config.min_lon = kMinLon;
  config.max_lat = kMaxLat;
  config.max_lon = kMaxLon;
  config.eps = 0.5;
  config.granularity = 3;
  config.prior_granularity = 32;
  return config;
}

std::unique_ptr<SanitizationService> MakeService(int workers,
                                                 size_t capacity = 1024,
                                                 uint64_t seed = 42) {
  ServiceOptions options;
  options.num_workers = workers;
  options.queue_capacity = capacity;
  options.seed = seed;
  auto service = SanitizationService::Create(options);
  GEOPRIV_CHECK_OK(service.status());
  return std::move(service).value();
}

std::vector<core::LatLon> DowntownQueries(int n) {
  std::vector<core::LatLon> queries;
  queries.reserve(n);
  for (int i = 0; i < n; ++i) {
    queries.push_back({30.2672 + 0.0004 * (i % 13) - 0.002,
                       -97.7431 - 0.0003 * (i % 11) + 0.0015});
  }
  return queries;
}

// Serves `locations` through the request path: one SubmitFuture per
// location, then waits for every reply. results[i] answers locations[i].
// The queue must hold them all (the tests' default 1024 does).
std::vector<SanitizeResult> SanitizeAll(
    SanitizationService& service, const std::string& region_id,
    const std::vector<core::LatLon>& locations) {
  std::vector<std::future<SanitizeResult>> futures;
  futures.reserve(locations.size());
  for (const core::LatLon& location : locations) {
    futures.push_back(service.SubmitFuture({region_id, location, 0.0}));
  }
  std::vector<SanitizeResult> results;
  results.reserve(futures.size());
  for (std::future<SanitizeResult>& future : futures) {
    results.push_back(future.get());
  }
  return results;
}

bool InRegion(const core::LatLon& p) {
  // The MSM reports cell centers inside the region; the projection
  // round-trip can wobble by far less than this slack.
  constexpr double kSlack = 1e-6;
  return p.lat >= kMinLat - kSlack && p.lat <= kMaxLat + kSlack &&
         p.lon >= kMinLon - kSlack && p.lon <= kMaxLon + kSlack;
}

TEST(SanitizationServiceTest, ConcurrentBatchCompletesAndStaysInRegion) {
  auto service = MakeService(4);
  ASSERT_TRUE(service->RegisterRegion("austin", AustinConfig()).ok());
  const auto queries = DowntownQueries(120);
  const auto results = SanitizeAll(*service, "austin", queries);
  ASSERT_EQ(results.size(), queries.size());
  for (const auto& r : results) {
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_FALSE(r.used_fallback);
    EXPECT_TRUE(InRegion(r.reported))
        << r.reported.lat << "," << r.reported.lon;
    EXPECT_GE(r.worker_id, 0);
    EXPECT_LT(r.worker_id, 4);
    EXPECT_GE(r.latency_ms, 0.0);
  }
  const MetricsSnapshot m = service->metrics().Snapshot();
  EXPECT_EQ(m.requests_total, queries.size());
  EXPECT_EQ(m.requests_ok, queries.size());
  EXPECT_EQ(m.fallbacks_total, 0u);
  EXPECT_EQ(m.latency_count, queries.size());
}

TEST(SanitizationServiceTest, SingleflightSolvesEachNodeOnce) {
  auto service = MakeService(4);
  ASSERT_TRUE(service->RegisterRegion("austin", AustinConfig()).ok());
  // Two cold waves: concurrent misses on the same nodes (the root above
  // all) must coalesce into exactly one LP solve per visited node.
  SanitizeAll(*service, "austin", DowntownQueries(80));
  SanitizeAll(*service, "austin", DowntownQueries(80));
  const auto info = service->GetRegionInfo("austin");
  ASSERT_TRUE(info.ok());
  EXPECT_GT(info->msm.lp_solves, 0);
  EXPECT_EQ(static_cast<size_t>(info->msm.lp_solves), info->cache_size)
      << "a node was solved more than once (singleflight broken)";
  // Revisited warm nodes are served from the cache or, once the serving
  // plan covers them, from its pinned mechanisms — never re-solved.
  EXPECT_GT(info->msm.cache_hits + info->msm.plan_levels, 0);
}

TEST(SanitizationServiceTest, WorkerStreamsAreDeterministic) {
  // Same seed + single worker => same processing order and RNG stream =>
  // bit-identical outputs across two independent service instances.
  const auto queries = DowntownQueries(40);
  std::vector<core::LatLon> first, second;
  for (std::vector<core::LatLon>* out : {&first, &second}) {
    auto service = MakeService(1, 1024, 20190326);
    ASSERT_TRUE(service->RegisterRegion("austin", AustinConfig()).ok());
    for (const auto& r : SanitizeAll(*service, "austin", queries)) {
      ASSERT_TRUE(r.status.ok());
      out->push_back(r.reported);
    }
  }
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_DOUBLE_EQ(first[i].lat, second[i].lat) << i;
    EXPECT_DOUBLE_EQ(first[i].lon, second[i].lon) << i;
  }
}

TEST(SanitizationServiceTest, WorkerSeedsAreDistinctPerWorker) {
  std::set<uint64_t> seeds;
  for (int w = 0; w < 16; ++w) {
    seeds.insert(SanitizationService::WorkerSeed(12345, w));
  }
  EXPECT_EQ(seeds.size(), 16u);
  EXPECT_EQ(SanitizationService::WorkerSeed(12345, 3),
            SanitizationService::WorkerSeed(12345, 3));
}

TEST(SanitizationServiceTest, LpTimeLimitDegradesToPlanarLaplace) {
  auto service = MakeService(2);
  RegionConfig config = AustinConfig();
  config.lp_time_limit_seconds = 1e-12;  // every node solve times out
  ASSERT_TRUE(service->RegisterRegion("austin", config).ok());
  const auto results = SanitizeAll(*service, "austin", DowntownQueries(20));
  for (const auto& r : results) {
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_TRUE(r.used_fallback);
    EXPECT_TRUE(InRegion(r.reported));
  }
  const MetricsSnapshot m = service->metrics().Snapshot();
  EXPECT_EQ(m.fallbacks_total, 20u);
  EXPECT_EQ(m.fallbacks_mechanism, 20u);
  EXPECT_EQ(m.fallbacks_deadline, 0u);
}

TEST(SanitizationServiceTest, ExpiredDeadlineDegradesWithoutMsmWork) {
  auto service = MakeService(1);
  ASSERT_TRUE(service->RegisterRegion("austin", AustinConfig()).ok());
  SanitizeRequest request;
  request.region_id = "austin";
  request.location = {30.2672, -97.7431};
  request.deadline_ms = 1e-6;  // expires before any worker can dequeue it
  auto future = service->SubmitFuture(request);
  const SanitizeResult r = future.get();
  EXPECT_TRUE(r.status.ok());
  EXPECT_TRUE(r.used_fallback);
  EXPECT_TRUE(InRegion(r.reported));
  const MetricsSnapshot m = service->metrics().Snapshot();
  EXPECT_EQ(m.fallbacks_deadline, 1u);
  const auto info = service->GetRegionInfo("austin");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->msm.lp_solves, 0) << "deadline fallback ran the MSM";
}

TEST(SanitizationServiceTest, BackpressureRejectsWhenQueueIsFull) {
  auto service = MakeService(1, /*capacity=*/1);
  ASSERT_TRUE(service->RegisterRegion("austin", AustinConfig()).ok());
  std::atomic<int> completed{0};
  int accepted = 0, rejected = 0;
  // Cold cache: the first request parks the worker in an LP solve, so a
  // burst must overflow the size-1 queue.
  for (int i = 0; i < 200; ++i) {
    const Status s = service->SubmitAsync(
        {"austin", {30.2672, -97.7431}, 0.0},
        [&completed](const SanitizeResult&) { ++completed; });
    if (s.ok()) {
      ++accepted;
    } else {
      EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  service->Drain();
  EXPECT_EQ(accepted + rejected, 200);
  EXPECT_GT(rejected, 0) << "queue of capacity 1 never filled";
  EXPECT_EQ(completed.load(), accepted);
  const MetricsSnapshot m = service->metrics().Snapshot();
  EXPECT_EQ(m.requests_total, static_cast<uint64_t>(accepted));
  EXPECT_EQ(m.requests_rejected, static_cast<uint64_t>(rejected));
}

// A cold node LP solves on the worker that walks into it and queues
// nothing of its own, so while one worker solves, the only slot of a
// capacity-1 queue stays free for the next request.
TEST(SanitizationServiceTest, ColdSolveLeavesTheQueueToRequests) {
  auto service = MakeService(1, /*capacity=*/1);
  RegionConfig config = AustinConfig();
  config.granularity = 5;  // the cold root LP has n = 25 candidates
  ASSERT_TRUE(service->RegisterRegion("austin", config).ok());
  std::atomic<bool> first_done{false};
  ASSERT_TRUE(service
                  ->SubmitAsync({"austin", {30.2672, -97.7431}, 0.0},
                                [&first_done](const SanitizeResult&) {
                                  first_done.store(true);
                                })
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_FALSE(first_done.load()) << "the cold solve finished in 5 ms";
  std::future<SanitizeResult> second =
      service->SubmitFuture({"austin", {30.2700, -97.7400}, 0.0});
  const SanitizeResult r = second.get();
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(InRegion(r.reported));
  service->Drain();
  EXPECT_TRUE(first_done.load());
  EXPECT_EQ(service->metrics().Snapshot().requests_rejected, 0u);
}

TEST(SanitizationServiceTest, UnknownRegionFailsTheRequestNotTheService) {
  auto service = MakeService(2);
  auto future = service->SubmitFuture({"nowhere", {1.0, 2.0}, 0.0});
  const SanitizeResult r = future.get();
  EXPECT_EQ(r.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(service->metrics().Snapshot().requests_failed, 1u);
}

TEST(SanitizationServiceTest, DuplicateRegionRegistrationFails) {
  auto service = MakeService(1);
  ASSERT_TRUE(service->RegisterRegion("austin", AustinConfig()).ok());
  EXPECT_FALSE(service->RegisterRegion("austin", AustinConfig()).ok());
}

TEST(SanitizationServiceTest, MultiTenantRegionsAreIndependent) {
  auto service = MakeService(4);
  ASSERT_TRUE(service->RegisterRegion("austin", AustinConfig()).ok());
  RegionConfig vegas = AustinConfig();
  vegas.min_lat = 36.0;
  vegas.min_lon = -115.35;
  vegas.max_lat = 36.32;
  vegas.max_lon = -115.05;
  ASSERT_TRUE(service->RegisterRegion("vegas", vegas).ok());

  std::vector<std::thread> clients;
  std::atomic<int> bad{0};
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      const std::string id = c == 0 ? "austin" : "vegas";
      const double lat = c == 0 ? 30.27 : 36.17;
      const double lon = c == 0 ? -97.74 : -115.14;
      for (const auto& r : SanitizeAll(
               *service, id, std::vector<core::LatLon>(30, {lat, lon}))) {
        if (!r.status.ok() || r.used_fallback) ++bad;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_TRUE(service->GetRegionInfo("austin").ok());
  EXPECT_TRUE(service->GetRegionInfo("vegas").ok());
}

TEST(SanitizationServiceTest, MetricsJsonContainsServiceAndRegions) {
  auto service = MakeService(2);
  ASSERT_TRUE(service->RegisterRegion("austin", AustinConfig()).ok());
  SanitizeAll(*service, "austin", DowntownQueries(10));
  const std::string json = service->MetricsJson();
  EXPECT_NE(json.find("\"service\""), std::string::npos);
  EXPECT_NE(json.find("\"requests_total\":10"), std::string::npos);
  EXPECT_NE(json.find("\"austin\""), std::string::npos);
  EXPECT_NE(json.find("\"lp_solves\""), std::string::npos);
  EXPECT_NE(json.find("\"snapshot_epoch\":1"), std::string::npos);
  EXPECT_NE(json.find("\"plan_builds\""), std::string::npos);
}

TEST(SanitizationServiceTest, UnregisterRegionFlipsTheSnapshot) {
  auto service = MakeService(2);
  EXPECT_EQ(service->snapshot_epoch(), 0u);
  ASSERT_TRUE(service->RegisterRegion("austin", AustinConfig()).ok());
  EXPECT_EQ(service->snapshot_epoch(), 1u);
  EXPECT_TRUE(service->GetRegionInfo("austin").ok());

  EXPECT_TRUE(service->UnregisterRegion("austin").ok());
  EXPECT_EQ(service->snapshot_epoch(), 2u);
  EXPECT_FALSE(service->GetRegionInfo("austin").ok());
  // Requests against the unregistered region fail cleanly, not fatally.
  const auto results = SanitizeAll(*service, "austin", DowntownQueries(3));
  for (const auto& r : results) {
    EXPECT_EQ(r.status.code(), StatusCode::kNotFound);
  }
  EXPECT_EQ(service->UnregisterRegion("austin").code(),
            StatusCode::kNotFound);
  // The id is reusable after unregistration.
  EXPECT_TRUE(service->RegisterRegion("austin", AustinConfig()).ok());
  EXPECT_EQ(service->snapshot_epoch(), 3u);
}

TEST(SanitizationServiceTest, SnapshotFlipUnderLoadServesEveryRequest) {
  // Hammers Report traffic concurrently with register/unregister churn:
  // the registry snapshot flips under load and every request must either
  // complete in-region or miss with NotFound — never crash, race, or
  // hang. Run under TSan to assert the lock-free lookup is race-free.
  auto service = MakeService(4);
  ASSERT_TRUE(service->RegisterRegion("austin", AustinConfig()).ok());
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> served{0}, missed{0};

  std::thread churn([&] {
    RegionConfig config = AustinConfig();
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(service->RegisterRegion("churn", config).ok());
      ASSERT_TRUE(service->UnregisterRegion("churn").ok());
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      const auto queries = DowntownQueries(40);
      // At least one full pass even if the churn finishes first (on a
      // single core it can run to completion before any client starts).
      bool first = true;
      while (first || !stop.load(std::memory_order_acquire)) {
        first = false;
        // Alternate between the stable and the churning region so some
        // lookups hit mid-flip.
        const std::string id = (t % 2 == 0) ? "austin" : "churn";
        for (const auto& q : queries) {
          SanitizeRequest request;
          request.region_id = id;
          request.location = q;
          auto result = service->SubmitFuture(std::move(request)).get();
          if (result.status.ok()) {
            EXPECT_TRUE(InRegion(result.reported));
            served.fetch_add(1, std::memory_order_relaxed);
          } else {
            EXPECT_EQ(result.status.code(), StatusCode::kNotFound);
            missed.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  churn.join();
  for (auto& c : clients) c.join();
  service->Drain();
  EXPECT_GT(served.load(), 0u);
  // Epoch advanced once per publication: initial register + 6 cycles x 2.
  EXPECT_EQ(service->snapshot_epoch(), 13u);
}

TEST(SanitizationServiceTest, MetricsJsonEscapesHostileRegionIds) {
  // A 400-char region id full of quotes and backslashes must come back
  // escaped and untruncated (the old fixed 320-byte snprintf buffer
  // chopped it and emitted invalid JSON).
  std::string hostile;
  while (hostile.size() < 400) hostile += R"(a"b\c)";
  hostile.resize(400);
  auto service = MakeService(1);
  ASSERT_TRUE(service->RegisterRegion(hostile, AustinConfig()).ok());
  const std::string json = service->MetricsJson();
  std::string escaped;
  for (char c : hostile) {
    if (c == '"' || c == '\\') escaped += '\\';
    escaped += c;
  }
  EXPECT_NE(json.find("\"" + escaped + "\":{"), std::string::npos)
      << "escaped id missing or truncated";
  EXPECT_EQ(json.find(hostile), std::string::npos)
      << "raw unescaped id leaked into the JSON";
  // Quotes must balance — a quick structural sanity check that the
  // document was not cut mid-string.
  int quotes = 0;
  for (size_t i = 0; i < json.size(); ++i) {
    if (json[i] == '"' && (i == 0 || json[i - 1] != '\\')) ++quotes;
  }
  EXPECT_EQ(quotes % 2, 0);
  EXPECT_EQ(json.back(), '}');
}

TEST(SanitizationServiceTest, FailedRegistrationReleasesTheReservedId) {
  auto service = MakeService(1);
  RegionConfig bad = AustinConfig();
  bad.eps = 0.0;  // invalid: the build fails after the id was reserved
  EXPECT_FALSE(service->RegisterRegion("austin", bad).ok());
  // The reservation must not leak: the same id registers cleanly now.
  EXPECT_TRUE(service->RegisterRegion("austin", AustinConfig()).ok());
  EXPECT_TRUE(service->GetRegionInfo("austin").ok());
}

TEST(SanitizationServiceTest, ConcurrentDuplicateRegistrationBuildsOnce) {
  auto service = MakeService(2);
  std::atomic<int> ok_count{0}, dup_count{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      const Status s = service->RegisterRegion("austin", AustinConfig());
      if (s.ok()) {
        ++ok_count;
      } else {
        EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition)
            << s.ToString();
        ++dup_count;
      }
    });
  }
  for (auto& t : threads) t.join();
  // The id is reserved before the expensive build, so exactly one racer
  // wins and the losers fail fast instead of building and then colliding.
  EXPECT_EQ(ok_count.load(), 1);
  EXPECT_EQ(dup_count.load(), 3);
  const auto results = SanitizeAll(*service, "austin", DowntownQueries(10));
  for (const auto& r : results) EXPECT_TRUE(r.status.ok());
}

TEST(SanitizationServiceTest, SubmitAfterShutdownIsRefusedByName) {
  // A stopped service is not a busy one: the refusal must not invite the
  // retry that kResourceExhausted does, or a client that backs off and
  // retries spins forever against it.
  auto service = MakeService(2);
  ASSERT_TRUE(service->RegisterRegion("austin", AustinConfig()).ok());
  service->Shutdown();
  std::atomic<bool> ran{false};
  const Status s = service->SubmitAsync(
      {"austin", {30.2672, -97.7431}, 0.0},
      [&ran](const SanitizeResult&) { ran.store(true); });
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  EXPECT_NE(s.message().find("shut down"), std::string::npos)
      << s.ToString();
  const SanitizeResult r =
      service->SubmitFuture({"austin", {30.2672, -97.7431}, 0.0}).get();
  EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(ran.load()) << "a refused request ran its callback";
  const MetricsSnapshot m = service->metrics().Snapshot();
  EXPECT_EQ(m.requests_rejected, 2u);
  EXPECT_EQ(m.requests_total, 0u);
}

TEST(SanitizationServiceTest, ShutdownMidStreamStopsARetryingProducer) {
  // A well-behaved client retries while the queue is full and stops once
  // the service says it is shut down. Shutdown lands while it streams:
  // the client must stop on its own, and every request the service
  // accepted must have been answered by the time Shutdown() returns.
  auto service = MakeService(1, /*capacity=*/64);
  ASSERT_TRUE(service->RegisterRegion("austin", AustinConfig()).ok());
  std::atomic<uint64_t> answered{0};
  uint64_t accepted = 0, full = 0;
  Status last;
  std::thread producer([&] {
    // Bounded, so a refusal that invites a retry fails the test instead
    // of spinning forever.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < give_up) {
      last = service->SubmitAsync(
          {"austin", {30.2672, -97.7431}, 0.0},
          [&answered](const SanitizeResult& r) {
            if (r.status.ok()) answered.fetch_add(1);
          });
      if (last.ok()) {
        ++accepted;
      } else if (last.code() == StatusCode::kResourceExhausted) {
        ++full;
        std::this_thread::yield();
      } else {
        break;
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  service->Shutdown();
  const uint64_t answered_at_shutdown = answered.load();
  producer.join();
  EXPECT_EQ(last.code(), StatusCode::kFailedPrecondition) << last.ToString();
  EXPECT_GT(accepted, 0u);
  EXPECT_EQ(answered_at_shutdown, accepted)
      << "Shutdown() returned before every accepted request was answered";
  const MetricsSnapshot m = service->metrics().Snapshot();
  EXPECT_EQ(m.requests_total, accepted);
  EXPECT_EQ(m.requests_rejected, full + 1);
}

TEST(SanitizationServiceTest, DrainReturnsAfterEveryZeroCrossing) {
  // The in-flight count is split (admissions on the submitting side,
  // completions per worker) and Drain() is woken only while it waits:
  // a lost wakeup at any of these zero crossings leaves Drain() asleep.
  auto service = MakeService(2);
  ASSERT_TRUE(service->RegisterRegion("austin", AustinConfig()).ok());
  std::atomic<int> completed{0};
  for (int round = 0; round < 20000; ++round) {
    ASSERT_TRUE(service
                    ->SubmitAsync({"austin", {30.2672, -97.7431}, 0.0},
                                  [&completed](const SanitizeResult&) {
                                    completed.fetch_add(1);
                                  })
                    .ok());
    auto drained =
        std::async(std::launch::async, [&service] { service->Drain(); });
    if (drained.wait_for(std::chrono::seconds(5)) !=
        std::future_status::ready) {
      ADD_FAILURE() << "Drain() still waiting after 5 s in round " << round;
      std::fflush(stdout);
      std::_Exit(1);  // the future's destructor would wait forever
    }
    ASSERT_EQ(completed.load(), round + 1) << "Drain() returned early";
  }
}

TEST(SanitizationServiceTest, WorkersNeverServeAnUnregisteredIncarnation) {
  // Workers pin the registry snapshot and the serving plan across
  // requests. Unregistering must reach both workers' next requests, and a
  // re-registration under the same id must never be answered from the old
  // incarnation's plan.
  auto service = MakeService(2);
  ASSERT_TRUE(service->RegisterRegion("austin", AustinConfig()).ok());
  const auto queries = DowntownQueries(64);
  std::set<int> workers_seen;
  for (int batch = 0; batch < 200 && workers_seen.size() < 2; ++batch) {
    for (const SanitizeResult& r : SanitizeAll(*service, "austin", queries)) {
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      EXPECT_TRUE(InRegion(r.reported));
      workers_seen.insert(r.worker_id);
    }
  }
  ASSERT_EQ(workers_seen.size(), 2u) << "one worker served every request";

  ASSERT_TRUE(service->UnregisterRegion("austin").ok());
  workers_seen.clear();
  for (int batch = 0; batch < 4; ++batch) {
    for (const SanitizeResult& r : SanitizeAll(*service, "austin", queries)) {
      EXPECT_EQ(r.status.code(), StatusCode::kNotFound) << r.worker_id;
      workers_seen.insert(r.worker_id);
    }
  }

  // The same id over a box 1,100 km west: a reply from the old
  // incarnation would land in Austin.
  RegionConfig vegas = AustinConfig();
  vegas.min_lat = 36.0;
  vegas.min_lon = -115.35;
  vegas.max_lat = 36.3;
  vegas.max_lon = -115.0;
  ASSERT_TRUE(service->RegisterRegion("austin", vegas).ok());
  std::vector<core::LatLon> in_vegas;
  for (int i = 0; i < 64; ++i) {
    in_vegas.push_back({36.1 + 0.001 * (i % 17), -115.2 + 0.001 * (i % 13)});
  }
  workers_seen.clear();
  for (int batch = 0; batch < 200 && workers_seen.size() < 2; ++batch) {
    // Austin queries too: they clamp into the new box.
    const std::vector<core::LatLon>* const lists[] = {&in_vegas, &queries};
    for (const std::vector<core::LatLon>* locations : lists) {
      for (const SanitizeResult& r :
           SanitizeAll(*service, "austin", *locations)) {
        ASSERT_TRUE(r.status.ok()) << r.status.ToString();
        EXPECT_TRUE(r.reported.lat >= vegas.min_lat - 1e-6 &&
                    r.reported.lat <= vegas.max_lat + 1e-6 &&
                    r.reported.lon >= vegas.min_lon - 1e-6 &&
                    r.reported.lon <= vegas.max_lon + 1e-6)
            << "worker " << r.worker_id << " replied " << r.reported.lat
            << "," << r.reported.lon << " from the old incarnation";
        workers_seen.insert(r.worker_id);
      }
    }
  }
  EXPECT_EQ(workers_seen.size(), 2u) << "one worker served every request";
}

TEST(SanitizationServiceTest, DeadlineOverrunMidWalkIsServedAndCounted) {
  // A deadline that survives the queue but expires inside the MSM walk:
  // the reply is still served (budget already spent), not degraded, and
  // the overrun is visible in the result and the metrics. Cold caches
  // make the walk slow (root LP with 36 candidates); the loop retries
  // with a fresh service in case scheduling noise burned the deadline in
  // the queue instead.
  bool observed = false;
  for (int attempt = 0; attempt < 10 && !observed; ++attempt) {
    auto service = MakeService(1);
    RegionConfig config = AustinConfig();
    config.granularity = 6;
    ASSERT_TRUE(service->RegisterRegion("austin", config).ok());
    SanitizeRequest request;
    request.region_id = "austin";
    request.location = {30.2672, -97.7431};
    request.deadline_ms = 2.0;
    const SanitizeResult r = service->SubmitFuture(request).get();
    ASSERT_TRUE(r.status.ok());
    if (r.used_fallback) continue;  // deadline died in the queue: retry
    ASSERT_TRUE(r.deadline_overrun)
        << "cold 36-candidate walk finished under 2ms?";
    EXPECT_GE(r.latency_ms, 2.0);
    EXPECT_EQ(service->metrics().Snapshot().deadline_overruns, 1u);
    observed = true;
  }
  EXPECT_TRUE(observed)
      << "never observed a mid-walk overrun in 10 attempts";
}

TEST(SanitizationServiceTest, PrewarmSolvesTopNodesBeforeTraffic) {
  auto service = MakeService(2);
  RegionConfig config = AustinConfig();
  config.prewarm_nodes = 3;
  ASSERT_TRUE(service->RegisterRegion("austin", config).ok());
  auto info = service->GetRegionInfo("austin");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->prewarmed_nodes, 3);
  EXPECT_EQ(info->msm.lp_solves, 3);
  EXPECT_EQ(info->cache_size, 3u);
  EXPECT_GT(info->msm.cache_bytes_resident, 0);
  // The root is warmed first (it has the largest mass by construction),
  // so the first query's level-1 step is guaranteed warm. With the
  // serving plan it is served from the pinned plan (zero cache traffic)
  // and shows up as a plan level; with the plan off it is a cache hit.
  SanitizeAll(*service, "austin", DowntownQueries(1));
  info = service->GetRegionInfo("austin");
  ASSERT_TRUE(info.ok());
  EXPECT_GT(info->msm.plan_levels + info->msm.cache_hits, 0);
}

TEST(SanitizationServiceTest, BoundedRegionCacheReportsEvictions) {
  auto service = MakeService(2);
  RegionConfig config = AustinConfig();
  config.cache_byte_budget = 8 * 1024;  // a couple of 9-candidate entries
  ASSERT_TRUE(service->RegisterRegion("austin", config).ok());
  SanitizeAll(*service, "austin", DowntownQueries(200));
  const auto info = service->GetRegionInfo("austin");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->cache_byte_budget, 8u * 1024u);
  // Walker pins can carry the cache over budget mid-traffic, but each
  // walker sweeps the cache back down when it releases them, so the
  // residue once every reply is in is at most one entry of slack.
  EXPECT_LE(info->msm.cache_bytes_resident,
            static_cast<int64_t>(info->cache_byte_budget) + 4096);
  const std::string json = service->MetricsJson();
  EXPECT_NE(json.find("\"cache_bytes_resident\""), std::string::npos);
  EXPECT_NE(json.find("\"cache_evictions\""), std::string::npos);
  EXPECT_NE(json.find("\"cache_hit_rate\""), std::string::npos);
}

TEST(MetricsTest, InfiniteLatencySampleDoesNotPoisonTheMean) {
  Metrics metrics;
  metrics.RecordLatency(std::numeric_limits<double>::infinity());
  metrics.RecordLatency(1e-3);
  const MetricsSnapshot s = metrics.Snapshot();
  EXPECT_EQ(s.latency_count, 2u);
  EXPECT_TRUE(std::isfinite(s.latency_mean_ms));
  EXPECT_TRUE(std::isfinite(s.latency_p99_ms));
  // The corrupt sample lands in the top bucket instead of vanishing.
  EXPECT_LE(s.latency_sum_seconds,
            LatencyHistogram::BucketBound(LatencyHistogram::kNumBuckets - 1) +
                1.0);
  // NaN and negative stay clamped to zero as before.
  metrics.RecordLatency(std::numeric_limits<double>::quiet_NaN());
  metrics.RecordLatency(-5.0);
  const MetricsSnapshot after = metrics.Snapshot();
  EXPECT_TRUE(std::isfinite(after.latency_sum_seconds));
  EXPECT_EQ(after.latency_count, 4u);
}

TEST(MetricsTest, ShardedSlotsAggregateAcrossRecorders) {
  Metrics metrics(4);
  // Same event stream spread across distinct slots must read back as one
  // aggregate, and quantiles must merge the per-slot histograms.
  for (int slot = 0; slot < 4; ++slot) {
    metrics.RecordAccepted(slot);
    metrics.RecordOk(slot);
    metrics.RecordLatency(1e-3 * (slot + 1), slot);
  }
  metrics.RecordDeadlineFallback(1);
  metrics.RecordMechanismFallback(2);
  metrics.RecordRejected(0);
  const MetricsSnapshot s = metrics.Snapshot();
  EXPECT_EQ(s.requests_total, 4u);
  EXPECT_EQ(s.requests_ok, 4u);
  EXPECT_EQ(s.requests_rejected, 1u);
  EXPECT_EQ(s.fallbacks_total, 2u);
  EXPECT_EQ(s.fallbacks_deadline, 1u);
  EXPECT_EQ(s.fallbacks_mechanism, 1u);
  EXPECT_EQ(s.latency_count, 4u);
  EXPECT_NEAR(s.latency_mean_ms, 2.5, 1.0);
  // A p99 over the merged buckets must sit near the largest sample, not
  // near whatever one slot saw.
  EXPECT_GT(s.latency_p99_ms, 1.0);
  // Out-of-range slots fold in instead of crashing or dropping events.
  metrics.RecordOk(99);
  metrics.RecordOk(-1);
  EXPECT_EQ(metrics.Snapshot().requests_ok, 6u);
}

// --- NodeMechanismCache: direct singleflight semantics ---

StatusOr<std::unique_ptr<mechanisms::OptimalMechanism>> TinyMechanism() {
  GEOPRIV_ASSIGN_OR_RETURN(
      mechanisms::OptimalMechanism mech,
      mechanisms::OptimalMechanism::Create(
          1.0, {{0.0, 0.0}, {1.0, 0.0}}, {0.5, 0.5},
          geo::UtilityMetric::kEuclidean));
  return std::make_unique<mechanisms::OptimalMechanism>(std::move(mech));
}

TEST(NodeMechanismCacheTest, ConcurrentMissesRunFactoryOnce) {
  core::NodeMechanismCache cache(4);
  std::atomic<int> factory_calls{0};
  std::atomic<const mechanisms::OptimalMechanism*> first_seen{nullptr};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      auto result = cache.GetOrCompute(7, [&] {
        ++factory_calls;
        // Widen the race window so every thread really does pile up on
        // the in-flight entry.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return TinyMechanism();
      });
      ASSERT_TRUE(result.ok());
      const mechanisms::OptimalMechanism* raw = result.value().get();
      const mechanisms::OptimalMechanism* expected = nullptr;
      if (!first_seen.compare_exchange_strong(expected, raw)) {
        if (expected != raw) ++mismatches;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(factory_calls.load(), 1);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(NodeMechanismCacheTest, FailedBuildPropagatesAndAllowsRetry) {
  core::NodeMechanismCache cache(2);
  auto failing = cache.GetOrCompute(3, [] {
    return StatusOr<std::unique_ptr<mechanisms::OptimalMechanism>>(
        Status::DeadlineExceeded("boom"));
  });
  EXPECT_EQ(failing.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(cache.size(), 0u);
  auto retry = cache.GetOrCompute(3, [] { return TinyMechanism(); });
  EXPECT_TRUE(retry.ok());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(NodeMechanismCacheTest, ClearNeverInvalidatesAHeldMechanism) {
  // The lifetime contract of the shared_ptr API: a caller's copy pins the
  // mechanism across Clear(), so using it afterwards is not a
  // use-after-free (ASan/TSan builds verify this for real).
  core::NodeMechanismCache cache(2);
  auto held = cache.GetOrCompute(1, [] { return TinyMechanism(); });
  ASSERT_TRUE(held.ok());
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes_resident(), 0u);
  rng::Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const int z = held.value()->ReportIndex(0, rng);
    EXPECT_GE(z, 0);
    EXPECT_LT(z, held.value()->num_locations());
  }
}

TEST(NodeMechanismCacheTest, ByteBudgetEvictsDownToBudgetPlusOneEntry) {
  // Calibrate the per-entry footprint with an unbounded probe cache.
  size_t entry_bytes = 0;
  {
    core::NodeMechanismCache probe(1);
    ASSERT_TRUE(probe.GetOrCompute(0, [] { return TinyMechanism(); }).ok());
    entry_bytes = probe.bytes_resident();
    ASSERT_GT(entry_bytes, 0u);
  }
  const size_t budget = 3 * entry_bytes;
  core::NodeMechanismCache cache(4, budget);
  for (spatial::NodeIndex node = 0; node < 12; ++node) {
    ASSERT_TRUE(cache.GetOrCompute(node, [] { return TinyMechanism(); }).ok());
    // Nothing is pinned between calls, so the resident total may only
    // overshoot by the entry that just landed.
    EXPECT_LE(cache.bytes_resident(), budget + entry_bytes) << node;
  }
  EXPECT_LE(cache.bytes_resident(), budget);
  EXPECT_GE(cache.evictions(), 8u);
  EXPECT_LE(cache.size(), 3u);
}

TEST(NodeMechanismCacheTest, EvictionPrefersTheLeastRecentlyUsedEntry) {
  size_t entry_bytes = 0;
  {
    core::NodeMechanismCache probe(1);
    ASSERT_TRUE(probe.GetOrCompute(0, [] { return TinyMechanism(); }).ok());
    entry_bytes = probe.bytes_resident();
  }
  core::NodeMechanismCache cache(4, 3 * entry_bytes);
  for (spatial::NodeIndex node = 1; node <= 3; ++node) {
    ASSERT_TRUE(cache.GetOrCompute(node, [] { return TinyMechanism(); }).ok());
  }
  // Touch node 1 so node 2 becomes the LRU, then overflow with node 4.
  bool hit = false;
  ASSERT_TRUE(cache.GetOrCompute(1, [] { return TinyMechanism(); }, &hit)
                  .ok());
  EXPECT_TRUE(hit);
  ASSERT_TRUE(cache.GetOrCompute(4, [] { return TinyMechanism(); }).ok());
  EXPECT_EQ(cache.evictions(), 1u);
  std::atomic<int> rebuilds{0};
  auto counting = [&] {
    ++rebuilds;
    return TinyMechanism();
  };
  ASSERT_TRUE(cache.GetOrCompute(1, counting, &hit).ok());  // survived
  EXPECT_TRUE(hit);
  ASSERT_TRUE(cache.GetOrCompute(2, counting, &hit).ok());  // was evicted
  EXPECT_FALSE(hit);
  EXPECT_EQ(rebuilds.load(), 1);
}

TEST(NodeMechanismCacheTest, PinnedEntriesAreSkippedByTheEvictor) {
  size_t entry_bytes = 0;
  {
    core::NodeMechanismCache probe(1);
    ASSERT_TRUE(probe.GetOrCompute(0, [] { return TinyMechanism(); }).ok());
    entry_bytes = probe.bytes_resident();
  }
  core::NodeMechanismCache cache(2, entry_bytes);  // budget: one entry
  std::vector<core::NodeMechanismCache::MechanismPtr> pins;
  for (spatial::NodeIndex node = 0; node < 4; ++node) {
    auto r = cache.GetOrCompute(node, [] { return TinyMechanism(); });
    ASSERT_TRUE(r.ok());
    pins.push_back(std::move(r).value());
  }
  // Every entry is pinned by a live reader: nothing may be evicted even
  // though the cache is far over budget.
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_GT(cache.bytes_resident(), cache.byte_budget());
  rng::Rng rng(3);
  for (const auto& mech : pins) {
    EXPECT_GE(mech->ReportIndex(0, rng), 0);
  }
  // Dropping the pins makes the backlog evictable on the next insert.
  pins.clear();
  ASSERT_TRUE(cache.GetOrCompute(99, [] { return TinyMechanism(); }).ok());
  EXPECT_GE(cache.evictions(), 3u);
  EXPECT_LE(cache.bytes_resident(), cache.byte_budget() + entry_bytes);
}

TEST(NodeMechanismCacheTest, ClearAndEvictionUnderConcurrentLookupsStress) {
  // Hammers the full lifecycle — misses, hits, eviction, Clear() — from
  // several threads while every returned mechanism is actually used. Under
  // -DGEOPRIV_SANITIZE=thread (or address) this is the proof that no raw
  // pointer escapes and nothing is freed under a reader.
  size_t entry_bytes = 0;
  {
    core::NodeMechanismCache probe(1);
    ASSERT_TRUE(probe.GetOrCompute(0, [] { return TinyMechanism(); }).ok());
    entry_bytes = probe.bytes_resident();
  }
  core::NodeMechanismCache cache(4, 4 * entry_bytes);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      rng::Rng rng(1000 + static_cast<uint64_t>(t));
      for (int i = 0; i < 400; ++i) {
        const spatial::NodeIndex node =
            static_cast<spatial::NodeIndex>(rng.UniformInt(16));
        auto r = cache.GetOrCompute(node, [] { return TinyMechanism(); });
        if (!r.ok()) {
          ++failures;
          continue;
        }
        // Use the mechanism *after* the lookup so a concurrent Clear()
        // or eviction overlaps the use window.
        if (r.value()->ReportIndex(0, rng) < 0) ++failures;
      }
    });
  }
  std::thread clearer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      cache.Clear();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (auto& t : readers) t.join();
  stop.store(true, std::memory_order_relaxed);
  clearer.join();
  EXPECT_EQ(failures.load(), 0);
  // Post-stress bookkeeping is consistent: one more Clear() must zero the
  // resident byte count exactly (no leaked or double-counted charges).
  cache.Clear();
  EXPECT_EQ(cache.bytes_resident(), 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(NodeMechanismCacheTest, MsmWalksSurviveConcurrentClearAndEviction) {
  // Service-shaped version of the stress: live MSM walks against a
  // bounded cache while another thread keeps dropping it.
  core::LocationSanitizer::Builder builder;
  auto sanitizer = builder
                       .SetRegionLatLon(kMinLat, kMinLon, kMaxLat, kMaxLon)
                       .SetEpsilon(0.5)
                       .SetGranularity(3)
                       .SetPriorGranularity(16)
                       .SetCacheByteBudget(32 * 1024)
                       .Build();
  ASSERT_TRUE(sanitizer.ok());
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> walkers;
  for (int t = 0; t < 3; ++t) {
    walkers.emplace_back([&, t] {
      rng::Rng rng(77 + static_cast<uint64_t>(t));
      for (int i = 0; i < 60; ++i) {
        auto z = sanitizer->SanitizeOrStatus({10.0 + 0.1 * (i % 7), 8.0},
                                             rng);
        if (!z.ok()) ++failures;
      }
    });
  }
  std::thread clearer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      sanitizer->mechanism().cache().Clear();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (auto& t : walkers) t.join();
  stop.store(true, std::memory_order_relaxed);
  clearer.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(NodeMechanismCacheTest, DistinctNodesDoNotCollide) {
  core::NodeMechanismCache cache(4);
  for (spatial::NodeIndex node = 0; node < 32; ++node) {
    bool hit = true;
    auto r = cache.GetOrCompute(node, [] { return TinyMechanism(); }, &hit);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(hit);
  }
  EXPECT_EQ(cache.size(), 32u);
  bool hit = false;
  ASSERT_TRUE(cache.GetOrCompute(5, [] { return TinyMechanism(); }, &hit)
                  .ok());
  EXPECT_TRUE(hit);
}

}  // namespace
}  // namespace geopriv::service
