#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "geo/distance.h"
#include "mathx/lattice_sum.h"
#include "mechanisms/exponential.h"
#include "mechanisms/optimal.h"
#include "mechanisms/planar_laplace.h"
#include "mechanisms/remap.h"
#include "prior/prior.h"
#include "rng/rng.h"
#include "spatial/grid.h"

namespace geopriv::mechanisms {
namespace {

using geo::BBox;
using geo::Point;
using geo::UtilityMetric;

constexpr BBox kDomain{0.0, 0.0, 20.0, 20.0};

std::vector<Point> GridCenters(int g) {
  return spatial::UniformGrid(kDomain, g).AllCenters();
}

std::vector<double> UniformPrior(int n) {
  return std::vector<double>(n, 1.0 / n);
}

// A deterministic skewed prior: mass decays with the cell index.
std::vector<double> SkewedPrior(int n) {
  std::vector<double> prior(n);
  for (int i = 0; i < n; ++i) prior[i] = 1.0 / (1.0 + i);
  return prior;
}

TEST(PlanarLaplaceTest, CreateValidation) {
  EXPECT_FALSE(PlanarLaplace::Create(0.0).ok());
  EXPECT_FALSE(PlanarLaplace::Create(-1.0).ok());
  EXPECT_TRUE(PlanarLaplace::Create(0.5).ok());
}

TEST(PlanarLaplaceTest, MeanDisplacementIsTwoOverEps) {
  // The radial law is Gamma(2, 1/eps): E[r] = 2 / eps.
  for (double eps : {0.2, 0.5, 1.0}) {
    auto pl = PlanarLaplace::Create(eps);
    ASSERT_TRUE(pl.ok());
    rng::Rng rng(17);
    const Point x{10, 10};
    double sum = 0.0;
    const int n = 40000;
    for (int i = 0; i < n; ++i) {
      sum += geo::Euclidean(x, pl->Report(x, rng));
    }
    EXPECT_NEAR(sum / n, 2.0 / eps, 0.05 * (2.0 / eps)) << "eps=" << eps;
  }
}

TEST(PlanarLaplaceTest, AngleIsUniform) {
  auto pl = PlanarLaplace::Create(0.5);
  ASSERT_TRUE(pl.ok());
  rng::Rng rng(19);
  const Point x{0, 0};
  int quadrant[4] = {0, 0, 0, 0};
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    const Point z = pl->Report(x, rng);
    quadrant[(z.x >= 0 ? 1 : 0) + (z.y >= 0 ? 2 : 0)]++;
  }
  for (int q = 0; q < 4; ++q) {
    EXPECT_NEAR(quadrant[q], n / 4, 5 * std::sqrt(n / 4.0));
  }
}

TEST(PlanarLaplaceTest, RadialCdfMatchesAnalytic) {
  const double eps = 0.5;
  auto pl = PlanarLaplace::Create(eps);
  ASSERT_TRUE(pl.ok());
  rng::Rng rng(23);
  const Point x{0, 0};
  const int n = 60000;
  std::vector<double> radii(n);
  for (int i = 0; i < n; ++i) {
    radii[i] = geo::Euclidean(x, pl->Report(x, rng));
  }
  for (double r : {1.0, 3.0, 6.0, 12.0}) {
    int below = 0;
    for (double v : radii) {
      if (v <= r) ++below;
    }
    const double analytic = 1.0 - (1.0 + eps * r) * std::exp(-eps * r);
    EXPECT_NEAR(below / static_cast<double>(n), analytic, 0.01) << "r=" << r;
  }
}

TEST(PlanarLaplaceOnGridTest, OutputsAreCellCenters) {
  spatial::UniformGrid grid(kDomain, 4);
  auto pl = PlanarLaplaceOnGrid::Create(0.5, grid);
  ASSERT_TRUE(pl.ok());
  rng::Rng rng(29);
  for (int i = 0; i < 500; ++i) {
    const Point z = pl->Report({3.0, 17.0}, rng);
    const int cell = grid.CellOf(z);
    EXPECT_EQ(z, grid.CenterOf(cell));
  }
}

TEST(OptimalMechanismTest, CreateValidation) {
  const auto locs = GridCenters(2);
  EXPECT_FALSE(
      OptimalMechanism::Create(0.0, locs, UniformPrior(4),
                               UtilityMetric::kEuclidean)
          .ok());
  EXPECT_FALSE(OptimalMechanism::Create(0.5, {}, {},
                                        UtilityMetric::kEuclidean)
                   .ok());
  EXPECT_FALSE(OptimalMechanism::Create(0.5, locs, UniformPrior(3),
                                        UtilityMetric::kEuclidean)
                   .ok());
  EXPECT_FALSE(OptimalMechanism::Create(0.5, locs, {0, 0, 0, 0},
                                        UtilityMetric::kEuclidean)
                   .ok());
  EXPECT_FALSE(OptimalMechanism::Create(0.5, locs, {1, 1, -1, 1},
                                        UtilityMetric::kEuclidean)
                   .ok());
}

TEST(OptimalMechanismTest, SingleLocationIsIdentity) {
  auto opt = OptimalMechanism::Create(0.5, {{1, 1}}, {1.0},
                                      UtilityMetric::kEuclidean);
  ASSERT_TRUE(opt.ok());
  EXPECT_DOUBLE_EQ(opt->K(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(opt->ExpectedLoss(), 0.0);
}

TEST(OptimalMechanismTest, RowsAreStochasticAndGeoIndHolds) {
  for (int g : {2, 3, 4, 5}) {
    const auto locs = GridCenters(g);
    auto opt = OptimalMechanism::Create(0.5, locs, SkewedPrior(g * g),
                                        UtilityMetric::kEuclidean);
    ASSERT_TRUE(opt.ok()) << "g=" << g;
    for (int x = 0; x < g * g; ++x) {
      double sum = 0.0;
      for (int z = 0; z < g * g; ++z) {
        EXPECT_GE(opt->K(x, z), 0.0);
        sum += opt->K(x, z);
      }
      EXPECT_NEAR(sum, 1.0, 1e-9);
    }
    // The exact audit over all n^3 constraints.
    EXPECT_LE(opt->MaxGeoIndViolation(), 1e-6) << "g=" << g;
  }
}

TEST(OptimalMechanismTest, ColumnGenerationMatchesFullSolves) {
  // On instances small enough for the explicit n^3-row primal, all three
  // algorithms must reach the same optimum.
  for (int g : {2, 3}) {
    const auto locs = GridCenters(g);
    const auto prior = SkewedPrior(g * g);
    OptimalMechanismOptions cg;
    auto a = OptimalMechanism::Create(0.4, locs, prior,
                                      UtilityMetric::kEuclidean, cg);
    OptimalMechanismOptions full;
    full.algorithm = OptAlgorithm::kFullPrimalSimplex;
    auto b = OptimalMechanism::Create(0.4, locs, prior,
                                      UtilityMetric::kEuclidean, full);
    OptimalMechanismOptions ipm;
    ipm.algorithm = OptAlgorithm::kFullInteriorPoint;
    auto c = OptimalMechanism::Create(0.4, locs, prior,
                                      UtilityMetric::kEuclidean, ipm);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(c.ok());
    EXPECT_NEAR(a->ExpectedLoss(), b->ExpectedLoss(),
                1e-5 * (1.0 + b->ExpectedLoss()))
        << "g=" << g;
    EXPECT_NEAR(a->ExpectedLoss(), c->ExpectedLoss(),
                1e-3 * (1.0 + c->ExpectedLoss()))
        << "g=" << g;
  }
}

TEST(OptimalMechanismTest, FullSolveRejectsLargeInstances) {
  OptimalMechanismOptions full;
  full.algorithm = OptAlgorithm::kFullPrimalSimplex;
  auto opt = OptimalMechanism::Create(0.5, GridCenters(4), UniformPrior(16),
                                      UtilityMetric::kEuclidean, full);
  EXPECT_FALSE(opt.ok());
  EXPECT_EQ(opt.status().code(), StatusCode::kInvalidArgument);
}

TEST(OptimalMechanismTest, NeverWorseThanExponentialMechanism) {
  // The exponential mechanism's matrix is feasible for OPT's program, so
  // OPT's objective can only be lower.
  for (double eps : {0.2, 0.5, 1.0}) {
    const int g = 4;
    const auto locs = GridCenters(g);
    const auto prior = SkewedPrior(g * g);
    auto opt = OptimalMechanism::Create(eps, locs, prior,
                                        UtilityMetric::kEuclidean);
    ASSERT_TRUE(opt.ok());
    auto exp_mech = DiscreteExponential::Create(eps, locs);
    ASSERT_TRUE(exp_mech.ok());
    double norm = 0.0;
    for (double p : prior) norm += p;
    double exp_loss = 0.0;
    for (int x = 0; x < g * g; ++x) {
      for (int z = 0; z < g * g; ++z) {
        exp_loss += (prior[x] / norm) * exp_mech->K(x, z) *
                    geo::Euclidean(locs[x], locs[z]);
      }
    }
    EXPECT_LE(opt->ExpectedLoss(), exp_loss + 1e-7) << "eps=" << eps;
  }
}

TEST(OptimalMechanismTest, LossDecreasesWithEps) {
  const int g = 3;
  const auto locs = GridCenters(g);
  const auto prior = SkewedPrior(g * g);
  double prev = -1.0;
  for (double eps : {1.5, 0.8, 0.4, 0.2, 0.1}) {
    auto opt = OptimalMechanism::Create(eps, locs, prior,
                                        UtilityMetric::kEuclidean);
    ASSERT_TRUE(opt.ok());
    if (prev >= 0.0) {
      EXPECT_GE(opt->ExpectedLoss(), prev - 1e-9) << "eps=" << eps;
    }
    prev = opt->ExpectedLoss();
  }
}

TEST(OptimalMechanismTest, HighBudgetApproachesIdentity) {
  const int g = 3;
  auto opt = OptimalMechanism::Create(20.0, GridCenters(g),
                                      SkewedPrior(g * g),
                                      UtilityMetric::kEuclidean);
  ASSERT_TRUE(opt.ok());
  EXPECT_LT(opt->ExpectedLoss(), 0.05);
  EXPECT_GT(opt->AverageSelfMapping(), 0.95);
}

TEST(OptimalMechanismTest, SamplesFollowMatrixRow) {
  const int g = 3;
  auto opt = OptimalMechanism::Create(0.5, GridCenters(g),
                                      SkewedPrior(g * g),
                                      UtilityMetric::kEuclidean);
  ASSERT_TRUE(opt.ok());
  rng::Rng rng(31);
  const int x = 4;
  const int n = 200000;
  std::vector<int> counts(g * g, 0);
  for (int i = 0; i < n; ++i) ++counts[opt->ReportIndex(x, rng)];
  for (int z = 0; z < g * g; ++z) {
    const double expected = n * opt->K(x, z);
    EXPECT_NEAR(counts[z], expected, 5 * std::sqrt(expected + 1.0) + 5)
        << "z=" << z;
  }
}

TEST(OptimalMechanismTest, ReportSnapsToNearestCandidate) {
  const int g = 2;
  const auto locs = GridCenters(g);
  auto opt = OptimalMechanism::Create(5.0, locs, UniformPrior(4),
                                      UtilityMetric::kEuclidean);
  ASSERT_TRUE(opt.ok());
  // With a big budget the mechanism almost surely reports the own cell.
  rng::Rng rng(37);
  int own = 0;
  for (int i = 0; i < 200; ++i) {
    const Point z = opt->Report({1.0, 1.0}, rng);  // nearest center: (5,5)
    if (z == locs[0]) ++own;
  }
  EXPECT_GT(own, 150);
}

TEST(OptimalMechanismTest, SquaredMetricChangesObjective) {
  const int g = 3;
  const auto locs = GridCenters(g);
  const auto prior = SkewedPrior(g * g);
  auto d1 = OptimalMechanism::Create(0.5, locs, prior,
                                     UtilityMetric::kEuclidean);
  auto d2 = OptimalMechanism::Create(0.5, locs, prior,
                                     UtilityMetric::kSquaredEuclidean);
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  // Both must satisfy GeoInd; objectives are in different units.
  EXPECT_LE(d1->MaxGeoIndViolation(), 1e-6);
  EXPECT_LE(d2->MaxGeoIndViolation(), 1e-6);
  EXPECT_NE(d1->ExpectedLoss(), d2->ExpectedLoss());
}

// The node LPs MSM solves one level up: a g x g candidate grid over a
// 10 km square at eps = 1/km with fixed check-in-count priors. The
// explicit primal references stop at n = 14, so these optima are pinned
// to values recorded from an independent solver (a revised simplex that
// kept a dense explicit inverse); any correct solver reaches them to
// roundoff.
TEST(OptimalMechanismTest, ReachesReferenceOptimaAtNodeSizes) {
  const struct {
    int g;
    double loss;
  } kCases[] = {{3, 0.36679514513065092},
                {4, 0.75285163662861421},
                {5, 0.99391104399793639}};
  for (const auto& c : kCases) {
    const int n = c.g * c.g;
    std::vector<double> prior(n);
    for (int i = 0; i < n; ++i) prior[i] = 1.0 + (i * 37) % 11;
    const OptimalMechanismOptions options;
    auto opt = OptimalMechanism::Create(
        1.0, spatial::UniformGrid(BBox{0.0, 0.0, 10.0, 10.0}, c.g)
                 .AllCenters(),
        prior, UtilityMetric::kEuclidean, options);
    ASSERT_TRUE(opt.ok()) << "g=" << c.g << ": " << opt.status();
    EXPECT_NEAR(opt->ExpectedLoss(), c.loss, 1e-9 * c.loss) << "g=" << c.g;
    for (int x = 0; x < n; ++x) {
      double sum = 0.0;
      for (int z = 0; z < n; ++z) sum += opt->K(x, z);
      EXPECT_NEAR(sum, 1.0, 1e-12) << "g=" << c.g << " x=" << x;
    }
    EXPECT_LE(opt->MaxGeoIndViolation(), kViolationTolerance)
        << "g=" << c.g;
  }
}

// Figure-5 machinery: for the minimal budget produced by the cost model,
// the solved mechanism's self-mapping probability should be close to the
// requested rho (paper reports +-5% for g >= 3 with a uniform prior).
class SelfMappingAccuracyTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(SelfMappingAccuracyTest, PhiPredictsPrXGivenX) {
  const int g = std::get<0>(GetParam());
  const double rho = std::get<1>(GetParam());
  const double cell_side = 20.0 / g;
  auto eps = mathx::MinBudgetForSelfMapping(rho, cell_side);
  ASSERT_TRUE(eps.ok());
  auto opt = OptimalMechanism::Create(eps.value(), GridCenters(g),
                                      UniformPrior(g * g),
                                      UtilityMetric::kEuclidean);
  ASSERT_TRUE(opt.ok());
  // The lattice model ignores boundary effects, so compare against the
  // *interior* cells' self-mapping (the paper's +-5% claim, which excludes
  // g = 2 where every cell touches the boundary).
  double interior_avg = 0.0;
  int interior_count = 0;
  spatial::UniformGrid grid(kDomain, g);
  for (int x = 0; x < g * g; ++x) {
    const int r = grid.row_of(x);
    const int c = grid.col_of(x);
    if (r == 0 || c == 0 || r == g - 1 || c == g - 1) continue;
    interior_avg += opt->K(x, x);
    ++interior_count;
  }
  if (interior_count == 0) {
    // g = 2: all cells are boundary cells and the paper excludes this case
    // from its +-5% claim (Figure 5 shows the same deviation). The lattice
    // model assumes leakage to an infinite neighborhood, so the realized
    // self-mapping can only be higher than requested.
    EXPECT_GE(opt->AverageSelfMapping(), rho - 0.02);
    EXPECT_LE(opt->AverageSelfMapping(), 1.0 + 1e-9);
    return;
  }
  interior_avg /= interior_count;
  EXPECT_NEAR(interior_avg, rho, 0.05 * rho + 0.02)
      << "g=" << g << " rho=" << rho;
}

INSTANTIATE_TEST_SUITE_P(
    GridAndRho, SelfMappingAccuracyTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 5),
                       ::testing::Values(0.5, 0.7, 0.9)));

TEST(DiscreteExponentialTest, RowsStochasticAndGeoInd) {
  const int g = 4;
  const auto locs = GridCenters(g);
  auto mech = DiscreteExponential::Create(0.5, locs);
  ASSERT_TRUE(mech.ok());
  for (int x = 0; x < g * g; ++x) {
    double sum = 0.0;
    for (int z = 0; z < g * g; ++z) sum += mech->K(x, z);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
  // Exact GeoInd audit.
  double worst = 0.0;
  for (int x = 0; x < g * g; ++x) {
    for (int xp = 0; xp < g * g; ++xp) {
      if (x == xp) continue;
      const double bound = std::exp(0.5 * geo::Euclidean(locs[x], locs[xp]));
      for (int z = 0; z < g * g; ++z) {
        worst = std::max(worst, mech->K(x, z) - bound * mech->K(xp, z));
      }
    }
  }
  EXPECT_LE(worst, 1e-9);
}

TEST(RemapTest, BuildValidation) {
  EXPECT_FALSE(RemapTable::Build({}, {}, [](int, int) { return 1.0; },
                                 UtilityMetric::kEuclidean)
                   .ok());
  EXPECT_FALSE(RemapTable::Build({{0, 0}}, {1.0, 1.0},
                                 [](int, int) { return 1.0; },
                                 UtilityMetric::kEuclidean)
                   .ok());
}

TEST(RemapTest, ImprovesPlanarLaplaceUtilityUnderSkewedPrior) {
  const int g = 5;
  spatial::UniformGrid grid(kDomain, g);
  const auto locs = grid.AllCenters();
  // Concentrated prior: nearly all mass in one corner cell.
  std::vector<double> prior(g * g, 0.005);
  prior[0] = 1.0;
  const double eps = 0.3;
  auto table = RemapTable::Build(locs, prior, PlanarLaplaceKernel(locs, eps),
                                 UtilityMetric::kEuclidean);
  ASSERT_TRUE(table.ok());

  auto pl = PlanarLaplaceOnGrid::Create(eps, grid);
  ASSERT_TRUE(pl.ok());
  rng::Rng rng(41);
  // Draw actual locations from the prior itself.
  double plain = 0.0, remapped = 0.0;
  const int n = 20000;
  double prior_total = 0.0;
  for (double p : prior) prior_total += p;
  for (int i = 0; i < n; ++i) {
    double u = rng.Uniform() * prior_total;
    int x = 0;
    while (u > prior[x] && x < g * g - 1) {
      u -= prior[x];
      ++x;
    }
    const Point actual = locs[x];
    const int z = pl->ReportCell(actual, rng);
    plain += geo::Euclidean(actual, locs[z]);
    remapped += geo::Euclidean(actual, locs[table->Remap(z)]);
  }
  EXPECT_LT(remapped, plain);
}

TEST(RemappedPlanarLaplaceTest, CreateValidation) {
  spatial::UniformGrid grid(kDomain, 3);
  EXPECT_FALSE(RemappedPlanarLaplace::Create(0.5, grid, {1.0, 2.0},
                                             UtilityMetric::kEuclidean)
                   .ok());
  EXPECT_FALSE(RemappedPlanarLaplace::Create(0.0, grid, UniformPrior(9),
                                             UtilityMetric::kEuclidean)
                   .ok());
  EXPECT_TRUE(RemappedPlanarLaplace::Create(0.5, grid, UniformPrior(9),
                                            UtilityMetric::kEuclidean)
                  .ok());
}

TEST(RemappedPlanarLaplaceTest, NeverWorseThanPlainPlOnGrid) {
  const int g = 5;
  spatial::UniformGrid grid(kDomain, g);
  std::vector<double> prior(g * g, 0.002);
  prior[0] = 0.7;
  prior[6] = 0.3;
  const double eps = 0.25;
  auto remapped = RemappedPlanarLaplace::Create(eps, grid, prior,
                                                UtilityMetric::kEuclidean);
  ASSERT_TRUE(remapped.ok());
  auto plain = PlanarLaplaceOnGrid::Create(eps, grid);
  ASSERT_TRUE(plain.ok());
  rng::Rng r1(3), r2(3);
  double loss_remap = 0.0, loss_plain = 0.0;
  const int n = 20000;
  double ptotal = 0.0;
  for (double p : prior) ptotal += p;
  for (int i = 0; i < n; ++i) {
    double u = r1.Uniform() * ptotal;
    r2.Uniform();  // keep streams aligned
    int x = 0;
    while (x < g * g - 1 && u > prior[x]) {
      u -= prior[x];
      ++x;
    }
    const Point actual = grid.CenterOf(x);
    loss_remap += geo::Euclidean(actual, remapped->Report(actual, r1));
    loss_plain += geo::Euclidean(actual, plain->Report(actual, r2));
  }
  EXPECT_LT(loss_remap, loss_plain);
}

TEST(RemappedPlanarLaplaceTest, OutputsAreCellCenters) {
  spatial::UniformGrid grid(kDomain, 4);
  auto mech = RemappedPlanarLaplace::Create(0.5, grid, UniformPrior(16),
                                            UtilityMetric::kEuclidean);
  ASSERT_TRUE(mech.ok());
  rng::Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    const Point z = mech->Report({4.0, 16.0}, rng);
    EXPECT_EQ(z, grid.CenterOf(grid.CellOf(z)));
  }
}

TEST(RemapTest, UninformativeKernelKeepsReport) {
  const auto locs = GridCenters(2);
  auto table = RemapTable::Build(locs, UniformPrior(4),
                                 [](int, int) { return 0.0; },
                                 UtilityMetric::kEuclidean);
  ASSERT_TRUE(table.ok());
  for (int z = 0; z < 4; ++z) {
    EXPECT_EQ(table->Remap(z), z);
  }
}

}  // namespace
}  // namespace geopriv::mechanisms
