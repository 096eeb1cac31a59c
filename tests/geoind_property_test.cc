// Property tests of the central privacy invariant: every mechanism this
// library produces must satisfy eps-GeoInd. OPT matrices are audited
// exactly over all n^3 constraints across a parameter grid; the planar
// Laplace density ratio is checked analytically; MSM's composition is
// checked structurally (per-level budgets sum to eps and every per-node
// matrix passes its own audit, also when a pool prewarmed the nodes).

#include <algorithm>
#include <cmath>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/thread_pool.h"
#include "core/msm.h"
#include "geo/distance.h"
#include "mechanisms/exponential.h"
#include "mechanisms/optimal.h"
#include "prior/prior.h"
#include "rng/rng.h"
#include "spatial/grid.h"
#include "spatial/hierarchical_grid.h"

namespace geopriv {
namespace {

using geo::BBox;
using geo::Point;
using geo::UtilityMetric;

constexpr BBox kDomain{0.0, 0.0, 20.0, 20.0};

enum class PriorKind { kUniform, kSkewed, kSpiked };

std::vector<double> MakePrior(PriorKind kind, int n, rng::Rng& rng) {
  std::vector<double> prior(n, 1.0);
  switch (kind) {
    case PriorKind::kUniform:
      break;
    case PriorKind::kSkewed:
      for (int i = 0; i < n; ++i) prior[i] = 1.0 / (1.0 + i);
      break;
    case PriorKind::kSpiked:
      // Nearly all mass on one random cell, a sprinkle elsewhere.
      for (int i = 0; i < n; ++i) prior[i] = 1e-4;
      prior[rng.UniformInt(n)] = 1.0;
      break;
  }
  return prior;
}

class OptGeoIndSweep
    : public ::testing::TestWithParam<
          std::tuple<double, int, UtilityMetric, PriorKind>> {};

TEST_P(OptGeoIndSweep, MatrixSatisfiesAllConstraints) {
  const auto [eps, g, metric, prior_kind] = GetParam();
  rng::Rng rng(g * 100 + static_cast<int>(prior_kind));
  spatial::UniformGrid grid(kDomain, g);
  auto opt = mechanisms::OptimalMechanism::Create(
      eps, grid.AllCenters(), MakePrior(prior_kind, g * g, rng), metric);
  ASSERT_TRUE(opt.ok()) << opt.status();
  // Exact audit of every GeoInd constraint.
  EXPECT_LE(opt->MaxGeoIndViolation(), 1e-6);
  // Rows stochastic.
  for (int x = 0; x < g * g; ++x) {
    double sum = 0.0;
    for (int z = 0; z < g * g; ++z) sum += opt->K(x, z);
    EXPECT_NEAR(sum, 1.0, 1e-9) << "row " << x;
  }
  // Objective is a valid expectation: nonnegative and no larger than the
  // domain diameter (squared).
  const double diameter = geo::UtilityLoss(
      metric, {kDomain.min_x, kDomain.min_y}, {kDomain.max_x, kDomain.max_y});
  EXPECT_GE(opt->ExpectedLoss(), 0.0);
  EXPECT_LE(opt->ExpectedLoss(), diameter);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OptGeoIndSweep,
    ::testing::Combine(::testing::Values(0.1, 0.5, 1.5),
                       ::testing::Values(2, 3, 4),
                       ::testing::Values(UtilityMetric::kEuclidean,
                                         UtilityMetric::kSquaredEuclidean),
                       ::testing::Values(PriorKind::kUniform,
                                         PriorKind::kSkewed,
                                         PriorKind::kSpiked)));

TEST(PlanarLaplaceDensityTest, RatioBoundHoldsAnalytically) {
  // The PL density is (eps^2/2pi) e^{-eps d(x,z)}; for any x, x', z the
  // ratio is e^{eps (d(x',z) - d(x,z))} <= e^{eps d(x,x')} by the triangle
  // inequality. Verify on a grid of concrete triples.
  const double eps = 0.7;
  rng::Rng rng(5);
  for (int trial = 0; trial < 2000; ++trial) {
    const Point x{rng.Uniform(0, 20), rng.Uniform(0, 20)};
    const Point xp{rng.Uniform(0, 20), rng.Uniform(0, 20)};
    const Point z{rng.Uniform(0, 20), rng.Uniform(0, 20)};
    const double log_ratio =
        eps * (geo::Euclidean(xp, z) - geo::Euclidean(x, z));
    EXPECT_LE(log_ratio, eps * geo::Euclidean(x, xp) + 1e-12);
  }
}

class MsmCompositionSweep
    : public ::testing::TestWithParam<std::tuple<double, int, double>> {};

TEST_P(MsmCompositionSweep, BudgetsComposeAndNodesAudit) {
  const auto [eps, g, rho] = GetParam();
  rng::Rng rng(11);
  std::vector<Point> pts;
  for (int i = 0; i < 4000; ++i) {
    pts.push_back({std::clamp(rng.Gaussian(8.0, 2.0), 0.0, 20.0),
                   std::clamp(rng.Gaussian(11.0, 2.5), 0.0, 20.0)});
  }
  auto prior = std::make_shared<prior::Prior>(
      prior::Prior::FromPoints(kDomain, 32, pts).value());
  auto grid = spatial::HierarchicalGrid::Create(kDomain, g, 3);
  ASSERT_TRUE(grid.ok());
  auto index =
      std::make_shared<spatial::HierarchicalGrid>(std::move(grid).value());
  core::MsmOptions options;
  options.budget.rho = rho;
  auto msm = core::MultiStepMechanism::Create(eps, index, prior, options);
  ASSERT_TRUE(msm.ok());
  // Composition: per-level budgets are positive and sum to eps exactly.
  double total = 0.0;
  for (double b : msm->budget().per_level) {
    EXPECT_GT(b, 0.0);
    total += b;
  }
  EXPECT_NEAR(total, eps, 1e-9);
  // Per-node audit along a random root-to-leaf walk.
  spatial::NodeIndex node = spatial::HierarchicalPartition::kRoot;
  for (int level = 1; level <= msm->height(); ++level) {
    if (index->IsLeaf(node)) break;
    auto mech = msm->NodeMechanism(node, level);
    ASSERT_TRUE(mech.ok());
    EXPECT_LE((*mech)->MaxGeoIndViolation(), 1e-6)
        << "level " << level << " node " << node;
    const auto children = index->Children(node);
    node = children[rng.UniformInt(children.size())].id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, MsmCompositionSweep,
    ::testing::Combine(::testing::Values(0.2, 0.5, 1.0),
                       ::testing::Values(2, 3),
                       ::testing::Values(0.6, 0.8)));

// The invariant holds for every node matrix of a prewarm whose node
// solves ran concurrently on a pool's workers and the calling thread.
TEST(PoolPrewarmGeoIndTest, EveryNodeSatisfiesAllConstraints) {
  rng::Rng rng(29);
  std::vector<Point> pts;
  for (int i = 0; i < 4000; ++i) {
    pts.push_back({std::clamp(rng.Gaussian(8.0, 2.0), 0.0, 20.0),
                   std::clamp(rng.Gaussian(11.0, 2.5), 0.0, 20.0)});
  }
  auto prior = std::make_shared<prior::Prior>(
      prior::Prior::FromPoints(kDomain, 32, pts).value());
  auto grid = spatial::HierarchicalGrid::Create(kDomain, 3, 3);
  ASSERT_TRUE(grid.ok());
  auto index =
      std::make_shared<spatial::HierarchicalGrid>(std::move(grid).value());
  auto msm = core::MultiStepMechanism::Create(2.0, index, prior, {});
  ASSERT_TRUE(msm.ok());
  ASSERT_GE(msm->height(), 2);

  ThreadPool pool(3, 64);
  auto warmed = msm->PrewarmTopNodes(1000, &pool);
  pool.Shutdown();
  ASSERT_TRUE(warmed.ok()) << warmed.status();

  // Every internal node down to the budgeted height, root first.
  std::vector<std::pair<spatial::NodeIndex, int>> nodes = {
      {spatial::HierarchicalPartition::kRoot, 1}};
  for (size_t i = 0; i < nodes.size(); ++i) {
    const auto [node, level] = nodes[i];
    if (level >= msm->height()) continue;
    for (const spatial::ChildInfo& c : index->Children(node)) {
      if (!index->IsLeaf(c.id)) nodes.emplace_back(c.id, level + 1);
    }
  }
  EXPECT_EQ(warmed.value(), static_cast<int>(nodes.size()));
  for (const auto& [node, level] : nodes) {
    const auto mech = msm->cache().TryGet(node);
    ASSERT_NE(mech, nullptr) << "node " << node;
    EXPECT_EQ(mech->eps(), msm->budget().per_level[level - 1])
        << "node " << node;
    EXPECT_LE(mech->MaxGeoIndViolation(), 1e-6)
        << "level " << level << " node " << node;
    const int n = mech->num_locations();
    for (int x = 0; x < n; ++x) {
      double sum = 0.0;
      for (int z = 0; z < n; ++z) sum += mech->K(x, z);
      EXPECT_NEAR(sum, 1.0, 1e-9) << "node " << node << " row " << x;
    }
  }
}

TEST(ExponentialGeoIndTest, AuditAcrossBudgets) {
  for (double eps : {0.1, 0.5, 2.0}) {
    const int g = 4;
    spatial::UniformGrid grid(kDomain, g);
    const auto locs = grid.AllCenters();
    auto mech = mechanisms::DiscreteExponential::Create(eps, locs);
    ASSERT_TRUE(mech.ok());
    double worst = 0.0;
    for (int x = 0; x < g * g; ++x) {
      for (int xp = 0; xp < g * g; ++xp) {
        if (x == xp) continue;
        const double bound =
            std::exp(eps * geo::Euclidean(locs[x], locs[xp]));
        for (int z = 0; z < g * g; ++z) {
          worst = std::max(worst, mech->K(x, z) - bound * mech->K(xp, z));
        }
      }
    }
    EXPECT_LE(worst, 1e-9) << "eps=" << eps;
  }
}

}  // namespace
}  // namespace geopriv
