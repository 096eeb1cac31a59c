#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "base/thread_pool.h"
#include "core/budget.h"
#include "core/location_sanitizer.h"
#include "core/msm.h"
#include "geo/distance.h"
#include "mathx/lattice_sum.h"
#include "prior/prior.h"
#include "rng/rng.h"
#include "spatial/hierarchical_grid.h"
#include "spatial/kd_partition.h"
#include "spatial/quadtree.h"

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
  // Check-ins concentrated around a "downtown" plus sparse background.
  rng::Rng rng(1234);
  std::vector<Point> pts;
  for (int i = 0; i < 5000; ++i) {
    pts.push_back({std::clamp(rng.Gaussian(6.0, 1.2), 0.0, 20.0),
                   std::clamp(rng.Gaussian(7.0, 1.2), 0.0, 20.0)});
  }
  for (int i = 0; i < 1000; ++i) {
    pts.push_back({rng.Uniform(0.0, 20.0), rng.Uniform(0.0, 20.0)});
  }
  auto p = prior::Prior::FromPoints(kDomain, 64, pts);
  GEOPRIV_CHECK_OK(p.status());
  return std::make_shared<prior::Prior>(std::move(p).value());
}

TEST(BudgetTest, Validation) {
  auto grid = MakeGrid(2, 4);
  BudgetOptions opts;
  EXPECT_FALSE(AllocateBudget(0.0, *grid, opts).ok());
  opts.rho = 1.0;
  EXPECT_FALSE(AllocateBudget(0.5, *grid, opts).ok());
  opts.rho = 0.8;
  opts.fixed_height = 9;
  EXPECT_FALSE(AllocateBudget(0.5, *grid, opts).ok());
  opts.fixed_height = 0;
  opts.max_height = 0;
  EXPECT_FALSE(AllocateBudget(0.5, *grid, opts).ok());
}

TEST(BudgetTest, RhoMinimalSpendsExactlyEps) {
  auto grid = MakeGrid(2, 8);
  BudgetOptions opts;
  opts.rho = 0.8;
  for (double eps : {0.1, 0.3, 0.5, 0.9}) {
    auto alloc = AllocateBudget(eps, *grid, opts);
    ASSERT_TRUE(alloc.ok());
    EXPECT_NEAR(alloc->total(), eps, 1e-9) << "eps=" << eps;
    EXPECT_GE(alloc->height(), 1);
  }
}

TEST(BudgetTest, RhoMinimalSecuresUpperLevelsFirst) {
  // g=2 over 20 km with eps=0.5, rho=0.8: level 1 (10 km cells) needs much
  // less than level 2 (5 km cells); the allocation gives level 1 exactly
  // its requirement and level 2 the leftovers.
  auto grid = MakeGrid(2, 8);
  BudgetOptions opts;
  opts.rho = 0.8;
  auto alloc = AllocateBudget(0.5, *grid, opts);
  ASSERT_TRUE(alloc.ok());
  const double need1 = mathx::MinBudgetForSelfMapping(0.8, 10.0).value();
  ASSERT_GE(alloc->height(), 1);
  EXPECT_NEAR(alloc->per_level[0], need1, 1e-6);
  if (alloc->height() > 1) {
    EXPECT_NEAR(alloc->per_level[1], 0.5 - need1, 1e-6);
  }
}

TEST(BudgetTest, PerLevelRequirementScalesWithCellSide) {
  // eps_i * cell_side_i is level-independent, so the minimal requirement
  // grows by exactly g between consecutive levels.
  const double need1 = mathx::MinBudgetForSelfMapping(0.8, 20.0 / 3).value();
  const double need2 = mathx::MinBudgetForSelfMapping(0.8, 20.0 / 9).value();
  EXPECT_NEAR(need2, 3.0 * need1, 1e-6 * need2);
}

TEST(BudgetTest, SingleLevelWhenBudgetTooSmall) {
  // g=4: level 1 alone (5 km cells, rho=0.8) needs ~0.62 > 0.5, so the
  // whole budget lands on level 1.
  auto grid = MakeGrid(4, 4);
  BudgetOptions opts;
  opts.rho = 0.8;
  auto alloc = AllocateBudget(0.5, *grid, opts);
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ(alloc->height(), 1);
  EXPECT_NEAR(alloc->per_level[0], 0.5, 1e-12);
}

TEST(BudgetTest, LeftoverGoesToDeepestLevel) {
  // A huge budget with a shallow index: every level gets its requirement
  // and the remainder lands on the last level.
  auto grid = MakeGrid(2, 2);
  BudgetOptions opts;
  opts.rho = 0.8;
  auto alloc = AllocateBudget(50.0, *grid, opts);
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ(alloc->height(), 2);
  EXPECT_NEAR(alloc->total(), 50.0, 1e-9);
  EXPECT_GT(alloc->per_level[1], alloc->per_level[0]);
}

TEST(BudgetTest, FixedHeightAllocatesMinimumThenRemainder) {
  auto grid = MakeGrid(3, 4);
  BudgetOptions opts;
  opts.rho = 0.8;
  opts.fixed_height = 2;
  auto alloc = AllocateBudget(1.5, *grid, opts);
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ(alloc->height(), 2);
  const double need1 = mathx::MinBudgetForSelfMapping(0.8, 20.0 / 3).value();
  EXPECT_NEAR(alloc->per_level[0], need1, 1e-6);
  EXPECT_NEAR(alloc->per_level[1], 1.5 - need1, 1e-6);
}

TEST(BudgetTest, FixedHeightScalesProportionallyWhenStarved) {
  auto grid = MakeGrid(4, 4);
  BudgetOptions opts;
  opts.rho = 0.8;
  opts.fixed_height = 2;
  auto alloc = AllocateBudget(0.3, *grid, opts);  // << level-1 need alone
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ(alloc->height(), 2);
  EXPECT_NEAR(alloc->total(), 0.3, 1e-9);
  // Proportional to needs, which scale by g=4 across levels.
  EXPECT_NEAR(alloc->per_level[1] / alloc->per_level[0], 4.0, 1e-5);
}

TEST(BudgetTest, MaxHeightCapsTheAllocation) {
  auto grid = MakeGrid(2, 8);
  BudgetOptions opts;
  opts.rho = 0.8;
  opts.max_height = 2;
  // A large budget would normally reach many levels; the cap stops at 2
  // and sinks the leftovers into level 2.
  auto alloc = AllocateBudget(10.0, *grid, opts);
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ(alloc->height(), 2);
  EXPECT_NEAR(alloc->total(), 10.0, 1e-9);
}

TEST(BudgetTest, UniformAndGeometricAndCustom) {
  auto grid = MakeGrid(3, 3);
  BudgetOptions opts;
  opts.policy = BudgetPolicy::kUniform;
  auto uniform = AllocateBudget(0.9, *grid, opts);
  ASSERT_TRUE(uniform.ok());
  EXPECT_EQ(uniform->height(), 3);
  for (double e : uniform->per_level) EXPECT_NEAR(e, 0.3, 1e-12);

  opts.policy = BudgetPolicy::kGeometric;
  auto geom = AllocateBudget(0.9, *grid, opts);
  ASSERT_TRUE(geom.ok());
  EXPECT_NEAR(geom->total(), 0.9, 1e-9);
  EXPECT_NEAR(geom->per_level[1] / geom->per_level[0], 3.0, 1e-9);
  EXPECT_NEAR(geom->per_level[2] / geom->per_level[1], 3.0, 1e-9);

  opts.policy = BudgetPolicy::kCustom;
  opts.custom_weights = {1.0, 1.0};
  EXPECT_FALSE(AllocateBudget(0.9, *grid, opts).ok());  // wrong size
  opts.custom_weights = {2.0, 1.0, 1.0};
  auto custom = AllocateBudget(0.8, *grid, opts);
  ASSERT_TRUE(custom.ok());
  EXPECT_NEAR(custom->per_level[0], 0.4, 1e-12);
}

TEST(MsmTest, CreateValidation) {
  auto index = MakeGrid(3, 3);
  auto prior = MakeSkewedPrior();
  MsmOptions opts;
  EXPECT_FALSE(
      MultiStepMechanism::Create(0.0, index, prior, opts).ok());
  EXPECT_FALSE(
      MultiStepMechanism::Create(0.5, nullptr, prior, opts).ok());
  EXPECT_FALSE(
      MultiStepMechanism::Create(0.5, index, nullptr, opts).ok());
  EXPECT_TRUE(MultiStepMechanism::Create(0.5, index, prior, opts).ok());
}

TEST(MsmTest, ReportsAreCellCentersAtTheReachedLevel) {
  auto index = MakeGrid(3, 3);
  auto prior = MakeSkewedPrior();
  MsmOptions opts;
  auto msm = MultiStepMechanism::Create(0.5, index, prior, opts);
  ASSERT_TRUE(msm.ok());
  rng::Rng rng(7);
  const int h = msm->height();
  ASSERT_GE(h, 1);
  for (int i = 0; i < 50; ++i) {
    const Point z = msm->Report({6.3, 7.1}, rng);
    // z must be the center of the level-h node that contains it.
    const spatial::NodeIndex node = index->NodeAt(h, z);
    EXPECT_EQ(z, index->Bounds(node).Center());
  }
}

TEST(MsmTest, DeterministicGivenSeed) {
  auto index = MakeGrid(2, 4);
  auto prior = MakeSkewedPrior();
  MsmOptions opts;
  auto m1 = MultiStepMechanism::Create(0.5, index, prior, opts);
  auto m2 = MultiStepMechanism::Create(0.5, index, prior, opts);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  rng::Rng r1(99), r2(99);
  for (int i = 0; i < 20; ++i) {
    const Point x{1.0 + i, 19.0 - i * 0.5};
    EXPECT_EQ(m1->Report(x, r1), m2->Report(x, r2)) << i;
  }
}

TEST(MsmTest, CachingReusesNodeSolves) {
  auto index = MakeGrid(2, 3);
  auto prior = MakeSkewedPrior();
  MsmOptions opts;
  auto msm = MultiStepMechanism::Create(0.5, index, prior, opts);
  ASSERT_TRUE(msm.ok());
  rng::Rng rng(3);
  std::vector<Point> targets;
  for (int i = 0; i < 200; ++i) {
    targets.push_back({rng.Uniform(0, 20), rng.Uniform(0, 20)});
  }
  for (const Point& target : targets) {
    ASSERT_TRUE(msm->ReportOrStatus(target, rng).ok());
  }
  // At most 1 root + 4 level-1 nodes can ever be solved for h=2.
  EXPECT_LE(msm->stats().lp_solves, 5);
  // Every later walk reuses those solves: from the cache while the walk
  // falls through, from the serving plan once it covers the nodes.
  EXPECT_GT(msm->stats().cache_hits + msm->stats().plan_levels, 100);
}

TEST(MsmTest, HighBudgetReportsNearbyCell) {
  // Note: under Algorithm 2 a huge total budget does NOT make the upper
  // levels deterministic — each level is capped at its rho-minimal
  // requirement and the surplus sinks to the deepest level. A uniform
  // split exposes the intended "everything nearly exact" behavior.
  auto index = MakeGrid(3, 2);
  auto prior = MakeSkewedPrior();
  MsmOptions opts;
  opts.budget.policy = BudgetPolicy::kUniform;
  auto msm = MultiStepMechanism::Create(30.0, index, prior, opts);
  ASSERT_TRUE(msm.ok());
  EXPECT_EQ(msm->height(), 2);
  rng::Rng rng(5);
  const Point x{6.3, 7.1};
  for (int i = 0; i < 50; ++i) {
    const Point z = msm->Report(x, rng);
    // With eps_i = 15 the mechanism almost surely reports the enclosing
    // leaf cell (side 20/9 km, so the center is within ~1.6 km of x).
    EXPECT_LT(geo::Euclidean(x, z), 1.7);
  }
}

TEST(MsmTest, RhoMinimalLevelOneHopsAtRateRho) {
  // Empirical check of Algorithm 2's contract: the level-1 self-mapping
  // probability is close to rho even when the total budget is plentiful.
  auto index = MakeGrid(3, 2);
  auto prior = MakeSkewedPrior();
  MsmOptions opts;
  opts.budget.rho = 0.8;
  auto msm = MultiStepMechanism::Create(30.0, index, prior, opts);
  ASSERT_TRUE(msm.ok());
  auto root = msm->NodeMechanism(spatial::HierarchicalPartition::kRoot, 1);
  ASSERT_TRUE(root.ok());
  // Average the diagonal without the prior weighting: boundary cells push
  // it slightly above rho (the lattice model is conservative there).
  double diag = 0.0;
  for (int x = 0; x < (*root)->num_locations(); ++x) {
    diag += (*root)->K(x, x) / (*root)->num_locations();
  }
  EXPECT_GE(diag, 0.75);
  EXPECT_LE(diag, 0.95);
}

TEST(MsmTest, PerLevelMechanismsSatisfyGeoInd) {
  auto index = MakeGrid(3, 3);
  auto prior = MakeSkewedPrior();
  MsmOptions opts;
  auto msm = MultiStepMechanism::Create(0.9, index, prior, opts);
  ASSERT_TRUE(msm.ok());
  // Walk the most likely path from the root and audit each node mechanism.
  spatial::NodeIndex node = spatial::HierarchicalPartition::kRoot;
  for (int level = 1; level <= msm->height(); ++level) {
    if (index->IsLeaf(node)) break;
    auto mech = msm->NodeMechanism(node, level);
    ASSERT_TRUE(mech.ok());
    EXPECT_LE((*mech)->MaxGeoIndViolation(), 1e-6)
        << "node " << node << " level " << level;
    node = index->Children(node)[0].id;
  }
  EXPECT_NEAR(msm->budget().total(), 0.9, 1e-9);
}

// Empirical end-to-end audit of the composed guarantee: estimate
// Pr[z | x] / Pr[z | x'] by Monte Carlo for neighboring actual locations
// and check it against e^{eps d(x, x')} (with sampling slack).
TEST(MsmTest, EndToEndGeoIndHoldsEmpirically) {
  auto index = MakeGrid(2, 2);
  auto prior = MakeSkewedPrior();
  MsmOptions opts;
  const double eps = 0.5;
  auto msm = MultiStepMechanism::Create(eps, index, prior, opts);
  ASSERT_TRUE(msm.ok());
  rng::Rng rng(11);
  const Point x1{6.0, 6.0};
  const Point x2{9.0, 6.0};  // d = 3 km
  const int n = 300000;
  std::map<std::pair<double, double>, int> c1, c2;
  for (int i = 0; i < n; ++i) {
    const Point z1 = msm->Report(x1, rng);
    const Point z2 = msm->Report(x2, rng);
    ++c1[{z1.x, z1.y}];
    ++c2[{z2.x, z2.y}];
  }
  const double bound = std::exp(eps * geo::Euclidean(x1, x2));
  for (const auto& [z, count1] : c1) {
    const int count2 = c2.count(z) ? c2.at(z) : 0;
    // Only test cells with enough mass for a stable ratio estimate.
    if (count1 < 2000 || count2 < 2000) continue;
    const double ratio =
        static_cast<double>(count1) / static_cast<double>(count2);
    EXPECT_LE(ratio, bound * 1.15) << "z=(" << z.first << "," << z.second
                                   << ")";
    EXPECT_GE(ratio, 1.0 / (bound * 1.15));
  }
}

TEST(MsmTest, WorksOverKdPartition) {
  auto prior = MakeSkewedPrior();
  rng::Rng rng(21);
  std::vector<Point> pts;
  for (int i = 0; i < 3000; ++i) {
    pts.push_back({std::clamp(rng.Gaussian(6.0, 1.5), 0.0, 20.0),
                   std::clamp(rng.Gaussian(7.0, 1.5), 0.0, 20.0)});
  }
  auto kd = spatial::KdPartition::Create(kDomain, pts, 2, 4);
  ASSERT_TRUE(kd.ok());
  auto index =
      std::make_shared<spatial::KdPartition>(std::move(kd).value());
  MsmOptions opts;
  auto msm = MultiStepMechanism::Create(0.5, index, prior, opts);
  ASSERT_TRUE(msm.ok());
  rng::Rng qrng(22);
  for (int i = 0; i < 30; ++i) {
    const Point z = msm->Report({6.0, 7.0}, qrng);
    EXPECT_TRUE(kDomain.Contains(z));
  }
}

TEST(MsmTest, WorksOverQuadTreeWithEarlyLeaves) {
  auto prior = MakeSkewedPrior();
  rng::Rng rng(23);
  std::vector<Point> pts;
  for (int i = 0; i < 3000; ++i) {
    pts.push_back({rng.Uniform(0.0, 3.0), rng.Uniform(0.0, 3.0)});
  }
  auto qt = spatial::AdaptiveQuadTree::Create(kDomain, pts, 5, 100);
  ASSERT_TRUE(qt.ok());
  auto index =
      std::make_shared<spatial::AdaptiveQuadTree>(std::move(qt).value());
  MsmOptions opts;
  auto msm = MultiStepMechanism::Create(0.8, index, prior, opts);
  ASSERT_TRUE(msm.ok());
  rng::Rng qrng(24);
  // Queries in the sparse corner terminate at shallow leaves; must still
  // return valid points without aborting.
  for (int i = 0; i < 30; ++i) {
    const Point z = msm->Report({18.0, 18.0}, qrng);
    EXPECT_TRUE(kDomain.Contains(z));
  }
}

// Internal nodes the mechanism can solve, each with its budget level, in
// breadth-first order.
std::vector<std::pair<spatial::NodeIndex, int>> InternalNodes(
    const MultiStepMechanism& msm) {
  std::vector<std::pair<spatial::NodeIndex, int>> nodes;
  std::vector<std::pair<spatial::NodeIndex, int>> queue = {
      {spatial::HierarchicalPartition::kRoot, 1}};
  for (size_t i = 0; i < queue.size(); ++i) {
    const auto [node, level] = queue[i];
    if (level > msm.height() || msm.index().IsLeaf(node)) continue;
    nodes.push_back(queue[i]);
    for (const spatial::ChildInfo& c : msm.index().Children(node)) {
      queue.emplace_back(c.id, level + 1);
    }
  }
  return nodes;
}

// Every node below the root starts from its level's template, whichever
// thread builds it and whenever: prewarming with no pool, with one worker
// and with three gives bit-identical matrices.
TEST(MsmTest, TemplateKIsBitIdenticalAcrossPoolSizes) {
  auto index = MakeGrid(3, 3);
  auto prior = MakeSkewedPrior();
  const auto warm_all = [&](ThreadPool* pool) {
    auto msm = MultiStepMechanism::Create(2.0, index, prior, MsmOptions{});
    EXPECT_TRUE(msm.ok());
    EXPECT_EQ(msm->height(), 3);
    const auto nodes = InternalNodes(*msm);
    auto warmed = msm->PrewarmTopNodes(static_cast<int>(nodes.size()), pool);
    EXPECT_TRUE(warmed.ok()) << warmed.status();
    std::map<spatial::NodeIndex, std::vector<double>> k;
    for (const auto& [node, level] : nodes) {
      const auto mech = msm->cache().TryGet(node);
      EXPECT_NE(mech, nullptr) << "node " << node;
      if (mech == nullptr) continue;
      k[node].assign(mech->k_table().begin(), mech->k_table().end());
    }
    return k;
  };
  const auto serial = warm_all(nullptr);
  EXPECT_EQ(serial.size(), 1u + 9u + 81u);
  for (const int workers : {1, 3}) {
    ThreadPool pool(workers, 64);
    EXPECT_EQ(warm_all(&pool), serial) << workers << " workers";
  }
}

// Warms every node of `msm` and checks each against a cold Create of the
// same node: the expected losses agree to 1e-9 relative. Returns the dual
// pivots the nodes below the root took from their level templates.
int64_t ExpectNodesMatchColdCreate(const MultiStepMechanism& msm,
                                   const prior::Prior& prior) {
  const auto nodes = InternalNodes(msm);
  const auto warmed = msm.PrewarmTopNodes(static_cast<int>(nodes.size()));
  EXPECT_TRUE(warmed.ok()) << warmed.status();
  int64_t dual_pivots = 0;
  for (const auto& [node, level] : nodes) {
    const auto mech = msm.cache().TryGet(node);
    EXPECT_NE(mech, nullptr) << "node " << node;
    if (mech == nullptr) continue;
    std::vector<Point> centers;
    std::vector<BBox> boxes;
    for (const spatial::ChildInfo& c : msm.index().Children(node)) {
      centers.push_back(c.bounds.Center());
      boxes.push_back(c.bounds);
    }
    std::vector<double> node_prior = prior.CellMasses(boxes);
    double total = 0.0;
    for (double m : node_prior) total += m;
    if (!(total > 1e-15)) std::fill(node_prior.begin(), node_prior.end(), 1.0);
    const auto cold = mechanisms::OptimalMechanism::Create(
        msm.budget().per_level[level - 1], centers, node_prior,
        geo::UtilityMetric::kEuclidean);
    EXPECT_TRUE(cold.ok()) << cold.status();
    if (!cold.ok()) continue;
    EXPECT_EQ(cold->stats().dual_iterations, 0);
    EXPECT_NEAR(mech->ExpectedLoss(), cold->ExpectedLoss(),
                1e-9 * cold->ExpectedLoss())
        << "node " << node << " level " << level;
    if (level >= 2) dual_pivots += mech->stats().dual_iterations;
  }
  return dual_pivots;
}

// A template start reaches the same optimum as a cold Create of the same
// node.
TEST(MsmTest, TemplateSolvesMatchColdCreate) {
  auto prior = MakeSkewedPrior();
  auto msm = MultiStepMechanism::Create(2.0, MakeGrid(3, 3), prior,
                                        MsmOptions{});
  ASSERT_TRUE(msm.ok());
  ASSERT_EQ(msm->height(), 3);
  EXPECT_GT(ExpectNodesMatchColdCreate(*msm, *prior), 0)
      << "no node below the root used its template";
}

// On k-d and quadtree indexes, nodes whose children are not congruent to
// their level template's donor start cold or from a basis the solver
// checks; either way each node reaches the cold optimum.
TEST(MsmTest, TemplateSolvesMatchColdCreateOnKdAndQuadTree) {
  auto prior = MakeSkewedPrior();
  rng::Rng rng(21);
  std::vector<Point> pts;
  for (int i = 0; i < 3000; ++i) {
    pts.push_back({std::clamp(rng.Gaussian(6.0, 1.5), 0.0, 20.0),
                   std::clamp(rng.Gaussian(7.0, 1.5), 0.0, 20.0)});
  }
  auto kd = spatial::KdPartition::Create(kDomain, pts, 2, 4);
  ASSERT_TRUE(kd.ok());
  auto qt = spatial::AdaptiveQuadTree::Create(kDomain, pts, 5, 100);
  ASSERT_TRUE(qt.ok());
  const std::shared_ptr<const spatial::HierarchicalPartition> indexes[] = {
      std::make_shared<spatial::KdPartition>(std::move(kd).value()),
      std::make_shared<spatial::AdaptiveQuadTree>(std::move(qt).value())};
  for (const auto& index : indexes) {
    auto msm = MultiStepMechanism::Create(2.0, index, prior, MsmOptions{});
    ASSERT_TRUE(msm.ok());
    ASSERT_GE(msm->height(), 2);
    ExpectNodesMatchColdCreate(*msm, *prior);
  }
}

// Prewarm pushes a node's children when it claims the node, so drainers
// claim in the serial order: a pool warms exactly the serial set even
// when, as under this skewed prior, a grandchild of the heaviest child
// outranks the other children.
TEST(PrewarmFanoutTest, PoolWarmsTheSerialSet) {
  auto index = MakeGrid(3, 3);
  auto prior = MakeSkewedPrior();
  const auto warmed_set = [&](ThreadPool* pool) {
    auto msm = MultiStepMechanism::Create(2.0, index, prior, MsmOptions{});
    EXPECT_TRUE(msm.ok());
    EXPECT_EQ(msm->height(), 3);
    auto warmed = msm->PrewarmTopNodes(6, pool);
    EXPECT_TRUE(warmed.ok()) << warmed.status();
    if (warmed.ok()) {
      EXPECT_EQ(warmed.value(), 6);
    }
    std::vector<spatial::NodeIndex> set;
    for (const auto& [node, level] : InternalNodes(*msm)) {
      if (msm->cache().TryGet(node) != nullptr) set.push_back(node);
    }
    return set;
  };
  const std::vector<spatial::NodeIndex> serial = warmed_set(nullptr);
  ThreadPool pool(3, 64);
  for (int repeat = 0; repeat < 10; ++repeat) {
    EXPECT_EQ(warmed_set(&pool), serial) << "repeat " << repeat;
  }
}

TEST(MsmTest, SolverTimeLimitSurfacesAsStatus) {
  auto index = MakeGrid(5, 2);
  auto prior = MakeSkewedPrior();
  MsmOptions opts;
  opts.opt.solver.time_limit_seconds = 0.0;  // force an immediate deadline
  auto msm = MultiStepMechanism::Create(0.5, index, prior, opts);
  ASSERT_TRUE(msm.ok());  // construction is lazy; LPs solve per node
  rng::Rng rng(1);
  auto report = msm->ReportOrStatus({6.0, 7.0}, rng);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(LocationSanitizerTest, BuilderValidation) {
  LocationSanitizer::Builder builder;
  EXPECT_FALSE(builder.Build().ok());  // no region
  builder.SetRegionLatLon(30.1927, -97.8698, 30.3723, -97.6618);
  EXPECT_FALSE(builder.Build().ok());  // no epsilon
  builder.SetEpsilon(0.5);
  EXPECT_TRUE(builder.Build().ok());
}

TEST(LocationSanitizerTest, SanitizedCoordinatesStayInRegion) {
  auto sanitizer = LocationSanitizer::Builder()
                       .SetRegionLatLon(30.1927, -97.8698, 30.3723, -97.6618)
                       .SetEpsilon(0.5)
                       .SetSeed(42)
                       .Build();
  ASSERT_TRUE(sanitizer.ok());
  for (int i = 0; i < 20; ++i) {
    const LatLon out = sanitizer->SanitizeLatLon(30.27, -97.74);
    EXPECT_GE(out.lat, 30.19);
    EXPECT_LE(out.lat, 30.38);
    EXPECT_GE(out.lon, -97.88);
    EXPECT_LE(out.lon, -97.65);
  }
  EXPECT_NEAR(sanitizer->budget().total(), 0.5, 1e-9);
}

TEST(LocationSanitizerTest, ConfigurationKnobsAreHonored) {
  auto sanitizer = LocationSanitizer::Builder()
                       .SetRegionLatLon(30.1927, -97.8698, 30.3723, -97.6618)
                       .SetEpsilon(0.9)
                       .SetGranularity(3)
                       .SetRho(0.6)
                       .SetPriorGranularity(32)
                       .SetUtilityMetric(geo::UtilityMetric::kSquaredEuclidean)
                       .SetSeed(5)
                       .Build();
  ASSERT_TRUE(sanitizer.ok());
  EXPECT_NEAR(sanitizer->budget().total(), 0.9, 1e-9);
  // rho=0.6 at g=3 over ~20 km needs ~0.3 at level 1, so at least two
  // levels receive budget.
  EXPECT_GE(sanitizer->budget().height(), 2);
}

TEST(LocationSanitizerTest, HeightCapAndLeafFloorRegression) {
  // Regression for the Builder's height-cap loop: the chosen index height
  // must never exceed 10 levels, and (except for degenerate sub-40 m
  // regions) the effective leaf cell must never undercut the ~40 m floor
  // that matches GPS accuracy.
  struct Case {
    double max_lat, max_lon;  // SW corner fixed at (0, 0)
    int granularity;
  };
  const std::vector<Case> cases = {
      {0.18, 0.21, 4},   // city-sized (~20 km)
      {0.05, 0.05, 2},   // small town (~5 km)
      {18.0, 18.0, 2},   // continental (~2000 km): must hit the cap
      {18.0, 18.0, 4},
      {0.9, 0.9, 3},     // state-sized (~100 km)
  };
  for (const Case& c : cases) {
    auto sanitizer = LocationSanitizer::Builder()
                         .SetRegionLatLon(0.0, 0.0, c.max_lat, c.max_lon)
                         .SetEpsilon(0.5)
                         .SetGranularity(c.granularity)
                         .Build();
    ASSERT_TRUE(sanitizer.ok()) << c.max_lat << " g=" << c.granularity;
    // The index height is what the Builder's loop chose; the budget
    // allocation may use fewer levels but never more.
    const int height = sanitizer->mechanism().index().height();
    EXPECT_LE(height, 10) << c.max_lat << " g=" << c.granularity;
    EXPECT_GE(height, 1);
    EXPECT_LE(sanitizer->budget().height(), height);
    const geo::BBox& domain = sanitizer->domain_km();
    const double max_side = std::max(domain.Width(), domain.Height());
    double leaf_side = max_side;
    for (int i = 0; i < height; ++i) leaf_side /= c.granularity;
    EXPECT_GE(leaf_side, 0.04)
        << "leaf " << leaf_side << " km undercuts the 40 m floor ("
        << c.max_lat << " deg, g=" << c.granularity << ", h=" << height
        << ")";
  }
  // The continental case specifically must be stopped by the cap, not the
  // floor.
  auto continental = LocationSanitizer::Builder()
                         .SetRegionLatLon(0.0, 0.0, 18.0, 18.0)
                         .SetEpsilon(0.5)
                         .SetGranularity(2)
                         .Build();
  ASSERT_TRUE(continental.ok());
  EXPECT_EQ(continental->mechanism().index().height(), 10);
}

TEST(LocationSanitizerTest, SanitizeOrStatusMatchesAndSurfacesLpLimits) {
  // The OrStatus variants are the service's entry point: same output
  // distribution as Sanitize, but solver limits become Status instead of
  // aborting.
  auto ok_sanitizer =
      LocationSanitizer::Builder()
          .SetRegionLatLon(30.1927, -97.8698, 30.3723, -97.6618)
          .SetEpsilon(0.5)
          .SetSeed(11)
          .Build();
  ASSERT_TRUE(ok_sanitizer.ok());
  rng::Rng rng(99);
  auto out = ok_sanitizer->SanitizeLatLonOrStatus(30.27, -97.74, rng);
  ASSERT_TRUE(out.ok());
  EXPECT_GE(out->lat, 30.19);
  EXPECT_LE(out->lat, 30.38);

  auto limited =
      LocationSanitizer::Builder()
          .SetRegionLatLon(30.1927, -97.8698, 30.3723, -97.6618)
          .SetEpsilon(0.5)
          .SetLpTimeLimitSeconds(1e-12)
          .Build();
  ASSERT_TRUE(limited.ok());
  auto failed = limited->SanitizeOrStatus({5.0, 5.0});
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kDeadlineExceeded);
}

// SetConstructionPool does nothing: every node LP of a cold walk solves
// on the sanitizing thread, so a sanitizer handed a pool that is shut
// down straight after Build serves, and serves the same reports, bit for
// bit, as one built without a pool.
TEST(LocationSanitizerTest, ConstructionPoolIsANoOp) {
  const auto build = [](ThreadPool* pool) {
    LocationSanitizer::Builder builder;
    builder.SetRegionLatLon(30.1927, -97.8698, 30.3723, -97.6618)
        .SetEpsilon(0.5)
        .SetGranularity(4)
        .SetSeed(13);
    if (pool != nullptr) builder.SetConstructionPool(pool);
    auto sanitizer = builder.Build();
    EXPECT_TRUE(sanitizer.ok()) << sanitizer.status();
    return std::move(sanitizer).value();
  };
  ThreadPool pool(2, 4);
  LocationSanitizer with_pool = build(&pool);
  pool.Shutdown();
  LocationSanitizer without_pool = build(nullptr);
  for (int i = 0; i < 40; ++i) {
    const Point p{0.5 * (i % 9), 0.4 * (i % 13)};
    const auto a = with_pool.SanitizeOrStatus(p);
    const auto b = without_pool.SanitizeOrStatus(p);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_EQ(a->x, b->x) << i;
    EXPECT_EQ(a->y, b->y) << i;
  }
  EXPECT_GT(with_pool.mechanism().stats().lp_solves, 0);
  EXPECT_EQ(with_pool.mechanism().stats().lp_solves,
            without_pool.mechanism().stats().lp_solves);
}

TEST(LocationSanitizerTest, CheckinPriorChangesBehavior) {
  std::vector<LatLon> history;
  for (int i = 0; i < 500; ++i) {
    history.push_back({30.26 + 0.0001 * (i % 7), -97.74 + 0.0001 * (i % 5)});
  }
  auto with_prior =
      LocationSanitizer::Builder()
          .SetRegionLatLon(30.1927, -97.8698, 30.3723, -97.6618)
          .SetEpsilon(0.4)
          .AddCheckinsLatLon(history)
          .SetSeed(7)
          .Build();
  ASSERT_TRUE(with_prior.ok());
  // Reports should gravitate toward the check-in hotspot.
  double mean_lat = 0.0;
  const int n = 60;
  for (int i = 0; i < n; ++i) {
    mean_lat += with_prior->SanitizeLatLon(30.26, -97.74).lat / n;
  }
  EXPECT_NEAR(mean_lat, 30.26, 0.06);
}

}  // namespace
}  // namespace geopriv::core
