// Tests of OPT's column-generation solve path and of the MSM prewarm
// that drives it:
//   * the pricing and simplex phases split the solve time,
//   * the deadline fires promptly *inside* a pricing scan (not only at
//     round boundaries),
//   * a solve is bit-reproducible, alone or beside concurrent solves on
//     other threads (run under TSan in CI), and with capped rounds,
//   * each row sampler draws its own row of K,
//   * an all-zero LP row fails the build instead of degrading to a
//     GeoInd-breaking identity row,
//   * congruent candidate sets seed the same columns in the same order,
//   * zero-mass node priors fall back (counted) to uniform,
//   * the prewarm's cross-node fan-out over a pool warms the serial count,
//     also when issued from a pool worker or over a full queue, and fails
//     as a whole when a node solve fails (run under TSan in CI).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/stopwatch.h"
#include "base/thread_pool.h"
#include "core/msm.h"
#include "geo/distance.h"
#include "mechanisms/optimal.h"
#include "prior/prior.h"
#include "rng/alias_sampler.h"
#include "rng/rng.h"
#include "spatial/grid.h"
#include "spatial/hierarchical_grid.h"

namespace geopriv::mechanisms {

// Drives FinalizeMatrix directly: an all-zero LP row is unreachable
// through Create() with a healthy solver, so its rejection needs a peer to
// be testable at all.
class OptimalMechanismTestPeer {
 public:
  static OptimalMechanism Make(double eps,
                               std::vector<geo::Point> locations,
                               std::vector<double> prior,
                               geo::UtilityMetric metric) {
    return OptimalMechanism(eps, std::move(locations), std::move(prior),
                            metric);
  }
  static Status Finalize(OptimalMechanism& mech, std::vector<double> raw) {
    return mech.FinalizeMatrix(std::move(raw));
  }
  static std::vector<int> SeedPairs(std::span<const geo::Point> locations) {
    return OptimalMechanism::SeedPairs(locations);
  }
};

}  // namespace geopriv::mechanisms

namespace geopriv {
namespace {

using geo::BBox;
using geo::Point;
using geo::UtilityMetric;

constexpr BBox kDomain{0.0, 0.0, 20.0, 20.0};

std::vector<double> SkewedPrior(int n) {
  std::vector<double> prior(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) prior[static_cast<size_t>(i)] = 1.0 / (1.0 + i);
  return prior;
}

mechanisms::OptimalMechanism BuildOpt(int g, double eps) {
  spatial::UniformGrid grid(kDomain, g);
  auto opt = mechanisms::OptimalMechanism::Create(
      eps, grid.AllCenters(), SkewedPrior(g * g),
      UtilityMetric::kEuclidean);
  EXPECT_TRUE(opt.ok()) << opt.status();
  return std::move(opt).value();
}

TEST(OptPricingTest, StatsSplitSolveTime) {
  const auto opt = BuildOpt(4, 1.0);
  const auto& stats = opt.stats();
  EXPECT_GT(stats.violations_found, 0);
  EXPECT_GE(stats.pricing_seconds, 0.0);
  EXPECT_GT(stats.simplex_seconds, 0.0);
  // The two phases partition the solve (up to setup/bookkeeping slack).
  EXPECT_LE(stats.pricing_seconds + stats.simplex_seconds,
            stats.solve_seconds + 1e-6);
}

// g = 7 (n = 49) takes > 60 s to solve outright on CI-class hardware, so
// any of these limits must abort the Create long before completion; the
// per-z-slice check inside the pricing scan (plus the simplex's own
// periodic check) is what makes the abort prompt rather than
// round-granular.
TEST(OptPricingTest, DeadlineFiresPromptlyInsidePricing) {
  for (double limit : {0.001, 0.01, 0.05}) {
    spatial::UniformGrid grid(kDomain, 7);
    mechanisms::OptimalMechanismOptions options;
    options.solver.time_limit_seconds = limit;
    const Stopwatch watch;
    auto opt = mechanisms::OptimalMechanism::Create(
        1.0, grid.AllCenters(), SkewedPrior(49),
        UtilityMetric::kEuclidean, options);
    EXPECT_FALSE(opt.ok()) << "limit=" << limit;
    EXPECT_EQ(opt.status().code(), StatusCode::kDeadlineExceeded)
        << opt.status();
    EXPECT_LT(watch.ElapsedSeconds(), 15.0) << "limit=" << limit;
  }
}

void ExpectBitIdentical(const mechanisms::OptimalMechanism& a,
                        const mechanisms::OptimalMechanism& b) {
  ASSERT_EQ(a.k_table().size(), b.k_table().size());
  for (size_t i = 0; i < a.k_table().size(); ++i) {
    ASSERT_EQ(a.k_table()[i], b.k_table()[i]) << "K entry " << i;
  }
  for (int x = 0; x < a.num_locations(); ++x) {
    const rng::AliasSampler& sa = a.row_sampler(x);
    const rng::AliasSampler& sb = b.row_sampler(x);
    ASSERT_TRUE(std::equal(sa.prob_table().begin(), sa.prob_table().end(),
                           sb.prob_table().begin(), sb.prob_table().end()))
        << "row " << x;
    ASSERT_TRUE(std::equal(sa.alias_table().begin(), sa.alias_table().end(),
                           sb.alias_table().begin(), sb.alias_table().end()))
        << "row " << x;
  }
}

// The pricing scan visits (z, x, x') in one fixed order, so a solve is a
// function of its inputs alone: two solves of one instance generate the
// same columns in the same rounds and return the same matrix and row
// samplers bit for bit. Bundles built twice are byte-identical because of
// this. g = 5 (n = 25, m = 625 dual rows) takes several pricing rounds.
TEST(OptPricingTest, RepeatedSolvesAreBitIdentical) {
  const auto first = BuildOpt(5, 1.2);
  const auto second = BuildOpt(5, 1.2);
  EXPECT_GT(first.stats().rounds, 1);
  EXPECT_EQ(second.stats().rounds, first.stats().rounds);
  EXPECT_EQ(second.stats().generated_columns,
            first.stats().generated_columns);
  EXPECT_EQ(second.stats().violations_found, first.stats().violations_found);
  EXPECT_EQ(second.stats().simplex_iterations,
            first.stats().simplex_iterations);
  ExpectBitIdentical(first, second);
}

// Prewarm drainers and service workers solve node LPs at the same time,
// each on its own thread. Concurrent solves share no mutable state, and
// each returns the serial matrix. (Run under TSan in CI.)
TEST(OptPricingTest, ConcurrentSolvesMatchTheSerialOne) {
  const auto serial = BuildOpt(4, 0.8);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      const auto concurrent = BuildOpt(4, 0.8);
      for (size_t e = 0; e < serial.k_table().size(); ++e) {
        if (concurrent.k_table()[e] != serial.k_table()[e]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Capping the columns per round changes the path, not the optimum: the
// capped solve enters the most violated constraints first, with ties
// broken by (x, x', z), takes more rounds, and stops at the uncapped
// expected loss with every GeoInd constraint met. Both stop at the first
// pricing pass that finds no residual above kViolationTolerance, so the
// losses agree only as far as that tolerance pins K (the bound that
// OptimalMechanismTest.ColumnGenerationMatchesFullSolves uses too). A
// uniform prior on a square grid makes many violation amounts tie
// exactly; the tie-break makes the capped solve reproducible all the
// same.
TEST(OptPricingTest, CappedRoundsReachTheSameOptimum) {
  spatial::UniformGrid grid(kDomain, 4);
  const std::vector<double> uniform(16, 1.0);
  auto uncapped = mechanisms::OptimalMechanism::Create(
      1.0, grid.AllCenters(), uniform, UtilityMetric::kEuclidean);
  mechanisms::OptimalMechanismOptions options;
  options.columns_per_round = 4;
  auto capped = mechanisms::OptimalMechanism::Create(
      1.0, grid.AllCenters(), uniform, UtilityMetric::kEuclidean, options);
  auto again = mechanisms::OptimalMechanism::Create(
      1.0, grid.AllCenters(), uniform, UtilityMetric::kEuclidean, options);
  ASSERT_TRUE(uncapped.ok()) << uncapped.status();
  ASSERT_TRUE(capped.ok()) << capped.status();
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_GT(capped->stats().rounds, uncapped->stats().rounds);
  EXPECT_NEAR(capped->ExpectedLoss(), uncapped->ExpectedLoss(),
              1e-5 * (1.0 + uncapped->ExpectedLoss()));
  EXPECT_LE(capped->MaxGeoIndViolation(), 1e-6);
  EXPECT_EQ(again->stats().rounds, capped->stats().rounds);
  ExpectBitIdentical(*capped, *again);
}

// Each row's alias table draws exactly that row of K. Outcome z comes up
// with probability (prob[z] + the sum of 1 - prob[j] over every j aliased
// to z) / n, which must be K(x)(z) over the row's sum.
TEST(OptPricingTest, RowSamplersDrawEachRowOfK) {
  const auto opt = BuildOpt(4, 1.0);
  const int n = opt.num_locations();
  for (int x = 0; x < n; ++x) {
    const rng::AliasSampler& sampler = opt.row_sampler(x);
    ASSERT_EQ(sampler.size(), static_cast<size_t>(n));
    std::vector<double> drawn(static_cast<size_t>(n), 0.0);
    for (size_t j = 0; j < sampler.size(); ++j) {
      const double p = sampler.prob_table()[j];
      drawn[j] += p / n;
      drawn[sampler.alias_table()[j]] += (1.0 - p) / n;
    }
    double row_sum = 0.0;
    for (int z = 0; z < n; ++z) row_sum += opt.K(x, z);
    for (int z = 0; z < n; ++z) {
      EXPECT_NEAR(drawn[static_cast<size_t>(z)], opt.K(x, z) / row_sum,
                  1e-12)
          << "x=" << x << " z=" << z;
    }
  }
}

TEST(OptStrictModeTest, StrictRejectsAllZeroRow) {
  const std::vector<Point> locs = {{0.0, 0.0}, {1.0, 0.0}};
  auto mech = mechanisms::OptimalMechanismTestPeer::Make(
      1.0, locs, {0.5, 0.5}, UtilityMetric::kEuclidean);
  // Row 1 is all-zero: a solver artifact that, rewritten to an identity
  // row, would deterministically reveal location 1.
  const Status status = mechanisms::OptimalMechanismTestPeer::Finalize(
      mech, {1.0, 0.0, 0.0, 0.0});
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status;
}

// The nodes of one level of a grid index have congruent children, but
// their centers are translated copies that round differently in the last
// bits. Seeding ranks neighbors on geometry alone, so every node seeds the
// same columns in the same order, and a level template fits them all.
TEST(OptimalMechanismSeedTest, TranslatedNodesSeedTheSameColumnsInOrder) {
  auto grid = spatial::HierarchicalGrid::Create(
      BBox{3.7, 11.3, 23.7, 31.3}, 4, 2);
  ASSERT_TRUE(grid.ok());
  std::vector<int> first;
  for (const spatial::ChildInfo& node :
       grid->Children(spatial::HierarchicalPartition::kRoot)) {
    std::vector<Point> centers;
    for (const spatial::ChildInfo& c : grid->Children(node.id)) {
      centers.push_back(c.bounds.Center());
    }
    const std::vector<int> seeds =
        mechanisms::OptimalMechanismTestPeer::SeedPairs(centers);
    ASSERT_EQ(seeds.size(), 16u * 4u);
    if (first.empty()) {
      first = seeds;
    } else {
      EXPECT_EQ(seeds, first) << "node " << node.id;
    }
  }
}

core::MultiStepMechanism MakeMsm(
    std::shared_ptr<const prior::Prior> prior, int g, int height,
    const core::MsmOptions& options = {}) {
  auto grid = spatial::HierarchicalGrid::Create(kDomain, g, height);
  EXPECT_TRUE(grid.ok());
  auto index =
      std::make_shared<spatial::HierarchicalGrid>(std::move(grid).value());
  auto msm = core::MultiStepMechanism::Create(1.0, index, prior, options);
  EXPECT_TRUE(msm.ok()) << msm.status();
  return std::move(msm).value();
}

TEST(MsmZeroMassPriorTest, EmptyQuadrantFallsBackToUniform) {
  // All prior mass in the north-east; the south-west quadrant's node
  // conditions on zero mass and must fall back to a uniform prior over
  // its children (counted) instead of degenerating.
  std::vector<double> masses(16, 0.0);
  for (int cy = 0; cy < 4; ++cy) {
    for (int cx = 0; cx < 4; ++cx) {
      if (cx >= 2 && cy >= 2) masses[static_cast<size_t>(cy * 4 + cx)] = 1.0;
    }
  }
  auto prior = std::make_shared<prior::Prior>(
      prior::Prior::FromMasses(kDomain, 4, std::move(masses)).value());
  const auto msm = MakeMsm(prior, 2, 2);
  // Warm every internal node: root + 4 quadrants.
  auto warmed = msm.PrewarmTopNodes(64);
  ASSERT_TRUE(warmed.ok()) << warmed.status();
  EXPECT_EQ(warmed.value(), 5);
  const core::MsmStats stats = msm.stats();
  // Three quadrants carry no mass.
  EXPECT_EQ(stats.uniform_prior_fallbacks, 3);
  // The fallback still produces working mechanisms: a query through the
  // empty quadrant samples fine.
  rng::Rng rng(3);
  for (int i = 0; i < 32; ++i) {
    auto reported = msm.ReportOrStatus({1.0, 1.0}, rng);
    ASSERT_TRUE(reported.ok()) << reported.status();
    EXPECT_TRUE(kDomain.Contains(reported.value()));
  }
}

TEST(PrewarmFanoutTest, ParallelWarmsSameCountAsSerial) {
  auto prior = std::make_shared<prior::Prior>(
      prior::Prior::Uniform(kDomain, 16));
  const auto serial_msm = MakeMsm(prior, 2, 3);
  const auto parallel_msm = MakeMsm(prior, 2, 3);
  ThreadPool pool(4, 64);
  // g=2, height=3: 1 root + 4 + 16 = 21 internal nodes.
  auto serial = serial_msm.PrewarmTopNodes(10);
  auto parallel = parallel_msm.PrewarmTopNodes(10, &pool);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_EQ(serial.value(), 10);
  EXPECT_EQ(parallel.value(), 10);
  EXPECT_EQ(parallel_msm.cache_size(), 10u);

  // Exhaustive warm: both modes visit every internal node.
  auto serial_all = serial_msm.PrewarmTopNodes(1000);
  auto parallel_all = parallel_msm.PrewarmTopNodes(1000, &pool);
  ASSERT_TRUE(serial_all.ok());
  ASSERT_TRUE(parallel_all.ok());
  EXPECT_EQ(serial_all.value(), 21);
  EXPECT_EQ(parallel_all.value(), 21);
  EXPECT_EQ(parallel_msm.cache_size(), serial_msm.cache_size());
  pool.Shutdown();

  // A shut-down pool degrades to the calling thread, never fails.
  const auto fresh = MakeMsm(prior, 2, 2);
  auto after_shutdown = fresh.PrewarmTopNodes(3, &pool);
  ASSERT_TRUE(after_shutdown.ok());
  EXPECT_EQ(after_shutdown.value(), 3);
}

// A prewarm issued from one of the pool's own workers finishes: it
// recruits helpers without blocking and drains on the issuing worker, so
// it never waits for a slot it occupies. A helper that starts after the
// frontier ran dry returns at once.
TEST(PrewarmFanoutTest, SafeFromAPoolWorker) {
  auto prior = std::make_shared<prior::Prior>(
      prior::Prior::Uniform(kDomain, 16));
  const auto msm = MakeMsm(prior, 2, 3);
  ThreadPool pool(2, 4);
  std::promise<StatusOr<int>> result;
  std::future<StatusOr<int>> warmed = result.get_future();
  ASSERT_TRUE(pool.TrySubmit([&msm, &pool, &result](int /*worker*/) {
    result.set_value(msm.PrewarmTopNodes(1000, &pool));
  }));
  ASSERT_EQ(warmed.wait_for(std::chrono::seconds(60)),
            std::future_status::ready);
  const StatusOr<int> count = warmed.get();
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(count.value(), 21);  // 1 root + 4 + 16
  EXPECT_EQ(msm.cache_size(), 21u);
  pool.Shutdown();
}

// A pool whose workers are busy and whose queue is full lends no helper;
// the calling thread warms the whole count alone and queues nothing.
TEST(PrewarmFanoutTest, FullQueueWarmsOnTheCaller) {
  auto prior = std::make_shared<prior::Prior>(
      prior::Prior::Uniform(kDomain, 16));
  const auto msm = MakeMsm(prior, 2, 3);
  ThreadPool pool(1, 1);
  std::promise<void> release;
  const std::shared_future<void> gate = release.get_future().share();
  std::atomic<bool> started{false};
  ASSERT_TRUE(pool.TrySubmit([&started, gate](int /*worker*/) {
    started.store(true);
    gate.wait();
  }));
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The worker is parked on the gate; this task fills the only slot.
  ASSERT_TRUE(pool.TrySubmit([gate](int /*worker*/) { gate.wait(); }));
  EXPECT_EQ(pool.queue_depth(), 1u);

  const auto warmed = msm.PrewarmTopNodes(10, &pool);
  EXPECT_TRUE(warmed.ok()) << warmed.status();
  if (warmed.ok()) {
    EXPECT_EQ(warmed.value(), 10);
  }
  EXPECT_EQ(msm.cache_size(), 10u);
  EXPECT_EQ(pool.queue_depth(), 1u);
  release.set_value();
  pool.Shutdown();
}

// A node solve that fails fails the prewarm, with a pool or without, and
// caches nothing. Every drainer the pool lent returns, so Shutdown joins.
TEST(PrewarmFanoutTest, FailedSolveFailsThePrewarm) {
  auto prior = std::make_shared<prior::Prior>(
      prior::Prior::Uniform(kDomain, 16));
  core::MsmOptions options;
  options.opt.solver.time_limit_seconds = 0.0;  // every solve times out
  const auto msm = MakeMsm(prior, 2, 3, options);
  ThreadPool pool(3, 64);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const auto warmed = msm.PrewarmTopNodes(10, p);
    ASSERT_FALSE(warmed.ok()) << (p != nullptr ? "pool" : "serial");
    EXPECT_EQ(warmed.status().code(), StatusCode::kDeadlineExceeded)
        << warmed.status();
  }
  EXPECT_EQ(msm.cache_size(), 0u);
  pool.Shutdown();
}

}  // namespace
}  // namespace geopriv
