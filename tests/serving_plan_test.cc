// Serving-plan tests for the MSM warm path: bit-identity between the
// pinned-plan walk and the legacy cache walk, zero cache traffic on fully
// warm walks, plan pins keyed on the mechanism's id rather than its
// address, generation-driven rebuilds across eviction/Clear, cold and
// warm reproducibility, the budget sweep that ends a fall-through walk,
// and TSan stress for plans invalidated mid-walk. Run under TSan via
//   cmake -B build-tsan -DGEOPRIV_SANITIZE=thread

#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/thread_pool.h"
#include "core/msm.h"
#include "prior/prior.h"
#include "rng/rng.h"
#include "spatial/hierarchical_grid.h"

namespace geopriv::core {
namespace {

using geo::BBox;
using geo::Point;

constexpr BBox kDomain{0.0, 0.0, 20.0, 20.0};

std::shared_ptr<spatial::HierarchicalGrid> MakeGrid(int g, int h) {
  auto grid = spatial::HierarchicalGrid::Create(kDomain, g, h);
  GEOPRIV_CHECK_OK(grid.status());
  return std::make_shared<spatial::HierarchicalGrid>(std::move(grid).value());
}

std::shared_ptr<prior::Prior> MakeSkewedPrior() {
  rng::Rng rng(1234);
  std::vector<Point> pts;
  for (int i = 0; i < 3000; ++i) {
    pts.push_back({std::clamp(rng.Gaussian(6.0, 1.2), 0.0, 20.0),
                   std::clamp(rng.Gaussian(7.0, 1.2), 0.0, 20.0)});
  }
  for (int i = 0; i < 600; ++i) {
    pts.push_back({rng.Uniform(0.0, 20.0), rng.Uniform(0.0, 20.0)});
  }
  auto p = prior::Prior::FromPoints(kDomain, 64, pts);
  GEOPRIV_CHECK_OK(p.status());
  return std::make_shared<prior::Prior>(std::move(p).value());
}

std::unique_ptr<MultiStepMechanism> MakeMsm(const MsmOptions& options,
                                            int g = 3, int h = 3) {
  auto msm =
      MultiStepMechanism::Create(0.5, MakeGrid(g, h), MakeSkewedPrior(),
                                 options);
  GEOPRIV_CHECK_OK(msm.status());
  return std::make_unique<MultiStepMechanism>(std::move(msm).value());
}

// Footprint F of the root's solved mechanism. Every node of a uniform grid
// has as many candidates as the root, so every node's footprint is F.
size_t RootFootprint() {
  auto root = MakeMsm({})->NodeMechanism(spatial::HierarchicalPartition::kRoot,
                                         1);
  GEOPRIV_CHECK_OK(root.status());
  return (*root)->MemoryFootprintBytes();
}

// Walk targets: in-domain points (deterministic snap) plus out-of-domain
// ones (exercising the UniformInt fallback on the same draw schedule).
std::vector<Point> WalkTargets(int n) {
  std::vector<Point> targets;
  targets.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (i % 7 == 6) {
      targets.push_back({-5.0 - i, 40.0 + i});  // outside the domain
    } else {
      targets.push_back({0.5 + 0.37 * (i % 50), 0.5 + 0.61 * (i % 31)});
    }
  }
  return targets;
}

TEST(ServingPlanTest, PlanWalkIsBitIdenticalToTheCacheWalk) {
  auto planned = MakeMsm({});
  // Plans pin at most half the byte budget, so a budget below twice the
  // root's footprint keeps this side's plan empty: every level of its
  // walks goes through the cache, re-solving what the budget evicted.
  MsmOptions cache_only;
  cache_only.cache_byte_budget = RootFootprint();
  auto legacy = MakeMsm(cache_only);

  // Warm everything so the planned walk stays inside the plan end-to-end.
  ASSERT_TRUE(planned->PrewarmTopNodes(1000).ok());
  ASSERT_TRUE(legacy->PrewarmTopNodes(1000).ok());
  ASSERT_GT(planned->serving_plan_nodes(), 0u);
  ASSERT_EQ(legacy->serving_plan_nodes(), 0u);

  rng::Rng rng_planned(99);
  rng::Rng rng_legacy(99);
  for (const Point& target : WalkTargets(400)) {
    auto a = planned->ReportOrStatus(target, rng_planned);
    auto b = legacy->ReportOrStatus(target, rng_legacy);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a.value(), b.value())
        << "plan and cache walks diverged at (" << target.x << ","
        << target.y << ")";
  }
  // The planned mechanism really used its plan, not the fall-through.
  const MsmStats stats = planned->stats();
  EXPECT_GT(stats.plan_levels, 0);
  EXPECT_EQ(stats.fallthrough_levels, 0);
  EXPECT_EQ(legacy->stats().plan_levels, 0);
}

TEST(ServingPlanTest, FullyWarmWalkTakesNoCacheLookups) {
  MsmOptions options;
  auto msm = MakeMsm(options);
  ASSERT_TRUE(msm->PrewarmTopNodes(1000).ok());
  // Force the rebuild now so the measurement below sees a settled plan.
  ASSERT_EQ(msm->serving_plan_nodes(), msm->cache_size());

  const uint64_t lookups_before = msm->cache().lookups();
  const int64_t solves_before = msm->stats().lp_solves;
  rng::Rng rng(7);
  for (const Point& target : WalkTargets(300)) {
    ASSERT_TRUE(msm->ReportOrStatus(target, rng).ok());
  }
  // The warm path touched neither the cache (no shard locks, no LRU
  // ticks) nor the solver: every level served from the pinned plan.
  EXPECT_EQ(msm->cache().lookups(), lookups_before);
  EXPECT_EQ(msm->stats().lp_solves, solves_before);
  EXPECT_EQ(msm->stats().fallthrough_levels, 0);
  // The walk descends the *budget* height (which may be shallower than the
  // index height when the allocator stops splitting eps).
  EXPECT_EQ(msm->stats().plan_levels,
            300 * static_cast<int64_t>(msm->height()));
}

// A PlanPin is keyed on its mechanism's never-reused id, not its address.
// A mechanism destroyed and rebuilt in place, over another box but with
// the same cache generation, must not be walked through the plan the pin
// still holds from its predecessor.
TEST(ServingPlanTest, PlanPinReloadsForAMechanismRebuiltAtTheSameAddress) {
  const auto emplace = [](std::optional<MultiStepMechanism>& slot, BBox box) {
    auto grid = spatial::HierarchicalGrid::Create(box, 3, 3);
    GEOPRIV_CHECK_OK(grid.status());
    rng::Rng rng(5);
    std::vector<Point> pts;
    for (int i = 0; i < 2000; ++i) {
      pts.push_back({rng.Uniform(box.min_x, box.max_x),
                     rng.Uniform(box.min_y, box.max_y)});
    }
    auto prior = prior::Prior::FromPoints(box, 64, pts);
    GEOPRIV_CHECK_OK(prior.status());
    auto msm = MultiStepMechanism::Create(
        0.5,
        std::make_shared<spatial::HierarchicalGrid>(std::move(grid).value()),
        std::make_shared<prior::Prior>(std::move(prior).value()), {});
    GEOPRIV_CHECK_OK(msm.status());
    slot.emplace(std::move(msm).value());
    GEOPRIV_CHECK_OK(slot->PrewarmTopNodes(1000).status());
  };

  std::optional<MultiStepMechanism> msm;
  emplace(msm, kDomain);
  const MultiStepMechanism* const first = &*msm;
  MultiStepMechanism::PlanPin pin;
  rng::Rng rng(7);
  auto before = msm->ReportOrStatus(kDomain.Center(), rng, pin);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(kDomain.Contains(*before));
  const uint64_t generation = msm->cache().generation();

  constexpr BBox kElsewhere{100.0, 100.0, 120.0, 120.0};
  msm.reset();
  emplace(msm, kElsewhere);
  // Everything an address-keyed pin would compare is unchanged.
  ASSERT_EQ(&*msm, first);
  ASSERT_EQ(msm->cache().generation(), generation);
  for (int i = 0; i < 50; ++i) {
    auto after = msm->ReportOrStatus(kElsewhere.Center(), rng, pin);
    ASSERT_TRUE(after.ok());
    EXPECT_TRUE(kElsewhere.Contains(*after))
        << "walked the replaced mechanism's plan: (" << after->x << ","
        << after->y << ")";
  }
}

TEST(ServingPlanTest, NodeCapFallsThroughBelowTheCappedSubtree) {
  // A 2F + 1 byte budget lends the plan F bytes: the root and no child.
  MsmOptions options;
  options.cache_byte_budget = 2 * RootFootprint() + 1;
  auto msm = MakeMsm(options);
  ASSERT_TRUE(
      msm->NodeMechanism(spatial::HierarchicalPartition::kRoot, 1).ok());
  ASSERT_EQ(msm->serving_plan_nodes(), 1u);
  rng::Rng rng(7);
  for (const Point& target : WalkTargets(50)) {
    ASSERT_TRUE(msm->ReportOrStatus(target, rng).ok());
  }
  const MsmStats stats = msm->stats();
  EXPECT_EQ(stats.plan_levels, 50);  // root level from the plan
  // Every remaining budget level comes from the cache walk.
  EXPECT_EQ(stats.fallthrough_levels,
            50 * static_cast<int64_t>(msm->height() - 1));

  // The node cap: all 21,845 internal nodes of a g = 2, height 8 grid
  // warm, and the plan stops at 4,096 of them — every node down to depth
  // 5 and part of depth 6 — so every walk falls through for its last
  // level at least, without solving anything.
  MsmOptions tall;
  tall.budget.fixed_height = 8;
  auto deep = MakeMsm(tall, 2, 8);
  ThreadPool pool(3, 64);
  auto warmed = deep->PrewarmTopNodes(1 << 15, &pool);
  pool.Shutdown();
  ASSERT_TRUE(warmed.ok()) << warmed.status();
  ASSERT_EQ(warmed.value(), 21845);
  ASSERT_EQ(deep->serving_plan_nodes(), 4096u);
  const int64_t solves = deep->stats().lp_solves;
  for (const Point& target : WalkTargets(50)) {
    ASSERT_TRUE(deep->ReportOrStatus(target, rng).ok());
  }
  const MsmStats deep_stats = deep->stats();
  EXPECT_EQ(deep_stats.plan_levels + deep_stats.fallthrough_levels, 50 * 8);
  EXPECT_GE(deep_stats.fallthrough_levels, 50);
  EXPECT_EQ(deep_stats.lp_solves, solves);
}

TEST(ServingPlanTest, GenerationMovesRebuildThePlan) {
  MsmOptions options;
  auto msm = MakeMsm(options);
  ASSERT_TRUE(msm->PrewarmTopNodes(1000).ok());
  const size_t full = msm->serving_plan_nodes();
  ASSERT_GT(full, 1u);
  const int64_t builds_after_warm = msm->stats().plan_builds;

  // A stable cache means a stable plan: no rebuild however often we look.
  rng::Rng rng(21);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(msm->ReportOrStatus({4.0, 5.0}, rng).ok());
  }
  EXPECT_EQ(msm->stats().plan_builds, builds_after_warm);

  // Clear() bumps the generation: the next access rebuilds against the
  // now-empty cache, and walks still serve (lazily re-solving).
  msm->cache().Clear();
  EXPECT_EQ(msm->serving_plan_nodes(), 0u);
  EXPECT_GT(msm->stats().plan_builds, builds_after_warm);
  ASSERT_TRUE(msm->ReportOrStatus({4.0, 5.0}, rng).ok());

  // Re-warm: the plan comes back.
  ASSERT_TRUE(msm->PrewarmTopNodes(1000).ok());
  EXPECT_EQ(msm->serving_plan_nodes(), full);
}

TEST(ServingPlanTest, BoundedCachePlanPinsAtMostHalfTheBudget) {
  MsmOptions options;
  auto probe = MakeMsm(options);
  ASSERT_TRUE(probe->PrewarmTopNodes(1000).ok());
  const size_t full_bytes = probe->cache().bytes_resident();
  ASSERT_GT(full_bytes, 0u);

  options.cache_byte_budget = full_bytes;  // everything fits
  auto msm = MakeMsm(options);
  ASSERT_TRUE(msm->PrewarmTopNodes(1000).ok());
  ASSERT_GT(msm->serving_plan_nodes(), 0u);
  // The plan stops pinning at budget/2 even though more nodes are warm,
  // so the evictor always has an unpinned pool to work with.
  EXPECT_LT(msm->serving_plan_nodes(), probe->serving_plan_nodes());
  rng::Rng rng(5);
  for (const Point& target : WalkTargets(60)) {
    ASSERT_TRUE(msm->ReportOrStatus(target, rng).ok());
  }
}

TEST(ServingPlanTest, ColdAndWarmPassesDrawTheSameReports) {
  MsmOptions options;
  auto msm = MakeMsm(options);
  const std::vector<Point> targets = WalkTargets(200);

  // The first pass solves nodes on first touch; the second is served from
  // the warm cache and its plan. Warmness must not change the draw
  // schedule, only where the matrices are read from.
  rng::Rng rng_cold(4242);
  std::vector<Point> cold;
  for (const Point& target : targets) {
    auto reported = msm->ReportOrStatus(target, rng_cold);
    ASSERT_TRUE(reported.ok());
    cold.push_back(reported.value());
  }
  const int64_t solves_after_cold = msm->stats().lp_solves;
  ASSERT_GT(solves_after_cold, 0);

  rng::Rng rng_warm(4242);
  for (size_t i = 0; i < targets.size(); ++i) {
    auto reported = msm->ReportOrStatus(targets[i], rng_warm);
    ASSERT_TRUE(reported.ok());
    EXPECT_EQ(reported.value(), cold[i]) << "diverged at item " << i;
  }
  EXPECT_EQ(msm->stats().lp_solves, solves_after_cold);
}

TEST(ServingPlanTest, FallThroughWalkSweepsABoundedCacheBackUnderBudget) {
  // Entries pinned while others are inserted are skipped by the evictor,
  // so a bounded cache can stay over budget once the pins go, with no
  // insert left to trigger eviction. The next walk that falls through to
  // the cache must sweep it back within budget. A one-node budget keeps
  // the plan empty (it pins at most half the budget), so every level
  // walks the cache.
  MsmOptions options;
  options.cache_byte_budget = RootFootprint();
  auto msm = MakeMsm(options);
  const spatial::NodeIndex root = spatial::HierarchicalPartition::kRoot;

  // Pin every internal node the budget levels reach, root-down.
  std::vector<NodeMechanismCache::MechanismPtr> pins;
  std::vector<std::pair<spatial::NodeIndex, int>> frontier = {{root, 1}};
  for (size_t i = 0; i < frontier.size(); ++i) {
    const auto [node, level] = frontier[i];
    auto mech = msm->NodeMechanism(node, level);
    ASSERT_TRUE(mech.ok());
    pins.push_back(std::move(mech).value());
    if (level == msm->height()) continue;
    for (const spatial::ChildInfo& child : msm->index().Children(node)) {
      if (!msm->index().IsLeaf(child.id)) {
        frontier.push_back({child.id, level + 1});
      }
    }
  }
  pins.clear();
  const size_t budget = msm->cache().byte_budget();
  ASSERT_GT(msm->cache().bytes_resident(), budget);
  const uint64_t evictions = msm->cache().evictions();

  // Every node is resident, so this walk only hits and no insert runs
  // the evictor; the walk's own sweep brings the cache back.
  rng::Rng rng(17);
  ASSERT_TRUE(msm->ReportOrStatus({6.0, 7.0}, rng).ok());
  EXPECT_GT(msm->stats().fallthrough_levels, 0);
  EXPECT_EQ(msm->stats().lp_solves, static_cast<int64_t>(frontier.size()));
  EXPECT_LE(msm->cache().bytes_resident(), budget);
  EXPECT_GT(msm->cache().evictions(), evictions);
}

TEST(ServingPlanTest, EvictionInvalidatingPlansMidWalkStress) {
  // Walkers hammer reports while one thread Clear()s the cache and a
  // bounded byte budget forces steady evictions — every generation bump
  // invalidates the plan some walker may be mid-walk on. Stale plans must
  // keep serving (pins), rebuilds must race cleanly, and TSan must stay
  // quiet.
  MsmOptions options;
  options.cache_byte_budget = 64 * 1024;
  auto msm = MakeMsm(options, 3, 3);
  ASSERT_TRUE(msm->PrewarmTopNodes(64).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> walked{0};
  std::vector<std::thread> walkers;
  for (int t = 0; t < 3; ++t) {
    walkers.emplace_back([&, t] {
      rng::Rng rng(1000 + t);
      const std::vector<Point> targets = WalkTargets(30);
      while (!stop.load(std::memory_order_acquire)) {
        for (const Point& target : targets) {
          ASSERT_TRUE(msm->ReportOrStatus(target, rng).ok());
          walked.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread clearer([&] {
    for (int i = 0; i < 8; ++i) {
      msm->cache().Clear();
      rng::Rng rng(9000 + i);
      // Re-warm a little so walkers oscillate between plan and
      // fall-through instead of settling into pure cold walks.
      for (const Point& target : WalkTargets(10)) {
        ASSERT_TRUE(msm->ReportOrStatus(target, rng).ok());
      }
    }
    stop.store(true, std::memory_order_release);
  });
  clearer.join();
  for (auto& w : walkers) w.join();
  EXPECT_GT(walked.load(), 0u);
  EXPECT_GT(msm->stats().plan_builds, 0);
}

}  // namespace
}  // namespace geopriv::core
