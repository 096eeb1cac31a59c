#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "lp/interior_point.h"
#include "lp/model.h"
#include "lp/revised_simplex.h"
#include "rng/rng.h"

namespace geopriv::lp {
namespace {

SolverOptions DefaultOptions() {
  SolverOptions o;
  o.time_limit_seconds = 30.0;
  return o;
}

// Verifies primal feasibility, dual sign conventions, complementary
// slackness, and strong duality for an optimal simplex solution of a
// minimization problem.
void VerifyKkt(const Model& model, const LpSolution& sol, double tol = 1e-6) {
  ASSERT_TRUE(sol.optimal());
  ASSERT_EQ(static_cast<int>(sol.x.size()), model.num_variables());
  ASSERT_EQ(static_cast<int>(sol.duals.size()), model.num_constraints());
  const double sense =
      model.sense() == ObjectiveSense::kMinimize ? 1.0 : -1.0;

  // Primal feasibility.
  for (int j = 0; j < model.num_variables(); ++j) {
    EXPECT_GE(sol.x[j], model.lower_bound(j) - tol);
    EXPECT_LE(sol.x[j], model.upper_bound(j) + tol);
  }
  std::vector<double> row_activity(model.num_constraints(), 0.0);
  for (int i = 0; i < model.num_constraints(); ++i) {
    for (const Coefficient& t : model.row(i)) {
      row_activity[i] += t.value * sol.x[t.var];
    }
    const double scale = 1.0 + std::abs(model.rhs(i));
    switch (model.constraint_sense(i)) {
      case ConstraintSense::kLessEqual:
        EXPECT_LE(row_activity[i], model.rhs(i) + tol * scale) << "row " << i;
        break;
      case ConstraintSense::kGreaterEqual:
        EXPECT_GE(row_activity[i], model.rhs(i) - tol * scale) << "row " << i;
        break;
      case ConstraintSense::kEqual:
        EXPECT_NEAR(row_activity[i], model.rhs(i), tol * scale) << "row "
                                                                << i;
        break;
    }
  }

  // Reduced costs and dual signs (for the minimization form).
  std::vector<double> reduced(model.num_variables());
  for (int j = 0; j < model.num_variables(); ++j) {
    reduced[j] = sense * model.objective_coefficient(j);
  }
  for (int i = 0; i < model.num_constraints(); ++i) {
    const double y = sense * sol.duals[i];
    switch (model.constraint_sense(i)) {
      case ConstraintSense::kLessEqual:
        EXPECT_LE(y, tol) << "row " << i;
        break;
      case ConstraintSense::kGreaterEqual:
        EXPECT_GE(y, -tol) << "row " << i;
        break;
      case ConstraintSense::kEqual:
        break;
    }
    // Complementary slackness: non-binding row -> zero dual.
    const double slack = model.rhs(i) - row_activity[i];
    if (std::abs(slack) > 1e-5 * (1.0 + std::abs(model.rhs(i)))) {
      EXPECT_NEAR(y, 0.0, tol) << "row " << i;
    }
    for (const Coefficient& t : model.row(i)) {
      reduced[t.var] -= y * t.value;
    }
  }
  double duality_rhs = 0.0;
  for (int i = 0; i < model.num_constraints(); ++i) {
    duality_rhs += sense * sol.duals[i] * model.rhs(i);
  }
  for (int j = 0; j < model.num_variables(); ++j) {
    const double lb = model.lower_bound(j);
    const double ub = model.upper_bound(j);
    const double at_lb = std::abs(sol.x[j] - lb);
    const double at_ub = std::abs(sol.x[j] - ub);
    if (at_lb > 1e-6 && at_ub > 1e-6) {
      EXPECT_NEAR(reduced[j], 0.0, 1e-5) << "var " << j;
    }
    if (reduced[j] > tol) {
      EXPECT_LT(at_lb, 1e-5) << "var " << j;
    }
    if (reduced[j] < -tol) {
      EXPECT_LT(at_ub, 1e-5) << "var " << j;
    }
    duality_rhs += reduced[j] * sol.x[j];
  }
  EXPECT_NEAR(sense * sol.objective, duality_rhs,
              1e-6 * (1.0 + std::abs(sol.objective)))
      << "strong duality";
}

TEST(SimplexTest, SolvesTextbookMaximization) {
  // max 3x + 2y s.t. x + y <= 4, x <= 2, y <= 3, x,y >= 0 -> (2,2), obj 10.
  Model m(ObjectiveSense::kMaximize);
  const int x = m.AddVariable(0, kInfinity, 3.0);
  const int y = m.AddVariable(0, kInfinity, 2.0);
  m.AddConstraint(ConstraintSense::kLessEqual, 4.0, {{x, 1.0}, {y, 1.0}});
  m.AddConstraint(ConstraintSense::kLessEqual, 2.0, {{x, 1.0}});
  m.AddConstraint(ConstraintSense::kLessEqual, 3.0, {{y, 1.0}});
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal()) << SolveStatusToString(sol.status);
  EXPECT_NEAR(sol.objective, 10.0, 1e-9);
  EXPECT_NEAR(sol.x[x], 2.0, 1e-9);
  EXPECT_NEAR(sol.x[y], 2.0, 1e-9);
  VerifyKkt(m, sol);
}

TEST(SimplexTest, SolvesEqualityConstrainedMin) {
  // min x + 2y s.t. x + y = 2, x,y >= 0 -> x=2, y=0, obj 2.
  Model m;
  const int x = m.AddVariable(0, kInfinity, 1.0);
  const int y = m.AddVariable(0, kInfinity, 2.0);
  m.AddConstraint(ConstraintSense::kEqual, 2.0, {{x, 1.0}, {y, 1.0}});
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 2.0, 1e-9);
  EXPECT_NEAR(sol.x[x], 2.0, 1e-9);
  VerifyKkt(m, sol);
}

TEST(SimplexTest, HandlesGreaterEqualRows) {
  // min 2x + 3y s.t. x + y >= 4, x - y >= -2, x,y >= 0.
  // Optimum at intersection x+y=4, x-y=-2 -> (1,3)? obj 2+9=11; but
  // y-heavy is costly: try (4,0): 8, feasible (4-0 >= -2). So obj 8.
  Model m;
  const int x = m.AddVariable(0, kInfinity, 2.0);
  const int y = m.AddVariable(0, kInfinity, 3.0);
  m.AddConstraint(ConstraintSense::kGreaterEqual, 4.0, {{x, 1.0}, {y, 1.0}});
  m.AddConstraint(ConstraintSense::kGreaterEqual, -2.0, {{x, 1.0}, {y, -1.0}});
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 8.0, 1e-8);
  VerifyKkt(m, sol);
}

TEST(SimplexTest, DetectsInfeasibility) {
  Model m;
  const int x = m.AddVariable(0, kInfinity, 1.0);
  m.AddConstraint(ConstraintSense::kLessEqual, -1.0, {{x, 1.0}});
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  EXPECT_EQ(sol.status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, DetectsInfeasibleEqualitySystem) {
  Model m;
  const int x = m.AddVariable(0, kInfinity, 0.0);
  const int y = m.AddVariable(0, kInfinity, 0.0);
  m.AddConstraint(ConstraintSense::kEqual, 1.0, {{x, 1.0}, {y, 1.0}});
  m.AddConstraint(ConstraintSense::kEqual, 3.0, {{x, 1.0}, {y, 1.0}});
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  EXPECT_EQ(sol.status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, DetectsUnboundedness) {
  // min -x s.t. x - y <= 1, x,y >= 0: push x,y together to infinity.
  Model m;
  const int x = m.AddVariable(0, kInfinity, -1.0);
  const int y = m.AddVariable(0, kInfinity, 0.0);
  m.AddConstraint(ConstraintSense::kLessEqual, 1.0, {{x, 1.0}, {y, -1.0}});
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  EXPECT_EQ(sol.status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, NoConstraintsOptimizesAtBounds) {
  Model m;
  const int x = m.AddVariable(-1.0, 2.0, 1.0);    // min -> lb
  const int y = m.AddVariable(-3.0, 5.0, -2.0);   // min -> ub
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal());
  EXPECT_DOUBLE_EQ(sol.x[x], -1.0);
  EXPECT_DOUBLE_EQ(sol.x[y], 5.0);
  EXPECT_DOUBLE_EQ(sol.objective, -11.0);
}

TEST(SimplexTest, NoConstraintsUnboundedFreeVariable) {
  Model m;
  m.AddVariable(-kInfinity, kInfinity, 1.0);
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  EXPECT_EQ(sol.status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, BoxBoundsAndBoundFlips) {
  // max x + y with 0 <= x <= 1, 0 <= y <= 2, x + y <= 2.5.
  Model m(ObjectiveSense::kMaximize);
  const int x = m.AddVariable(0.0, 1.0, 1.0);
  const int y = m.AddVariable(0.0, 2.0, 1.0);
  m.AddConstraint(ConstraintSense::kLessEqual, 2.5, {{x, 1.0}, {y, 1.0}});
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 2.5, 1e-9);
  VerifyKkt(m, sol);
}

TEST(SimplexTest, DevexTieEntersLowestIndex) {
  // max x0 + x1 with x0 + x1 <= 1, 0 <= x <= 1. Both columns price at the
  // same Devex score, so pricing must pick x0, which flips to its upper
  // bound and fills the row; x1 then enters degenerately at 0. Entering
  // x1 first would end at the other optimal vertex, (0, 1).
  Model m(ObjectiveSense::kMaximize);
  const int x0 = m.AddVariable(0.0, 1.0, 1.0);
  const int x1 = m.AddVariable(0.0, 1.0, 1.0);
  m.AddConstraint(ConstraintSense::kLessEqual, 1.0, {{x0, 1.0}, {x1, 1.0}});
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal());
  EXPECT_EQ(sol.x[x0], 1.0);
  EXPECT_EQ(sol.x[x1], 0.0);
}

TEST(SimplexTest, FreeVariables) {
  // min |structure| with free y: min x s.t. x + y = 3, y <= 1, x >= 0.
  // y free otherwise: best is y = 1, x = 2.
  Model m;
  const int x = m.AddVariable(0.0, kInfinity, 1.0);
  const int y = m.AddVariable(-kInfinity, kInfinity, 0.0);
  m.AddConstraint(ConstraintSense::kEqual, 3.0, {{x, 1.0}, {y, 1.0}});
  m.AddConstraint(ConstraintSense::kLessEqual, 1.0, {{y, 1.0}});
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 2.0, 1e-9);
  EXPECT_NEAR(sol.x[y], 1.0, 1e-9);
  VerifyKkt(m, sol);
}

TEST(SimplexTest, NegativeLowerBounds) {
  // min x + y with x in [-5, -1], y in [-2, 4], x + y >= -4.
  Model m;
  const int x = m.AddVariable(-5.0, -1.0, 1.0);
  const int y = m.AddVariable(-2.0, 4.0, 1.0);
  m.AddConstraint(ConstraintSense::kGreaterEqual, -4.0, {{x, 1.0}, {y, 1.0}});
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, -4.0, 1e-9);
  EXPECT_NEAR(sol.x[x] + sol.x[y], -4.0, 1e-9);
  VerifyKkt(m, sol);
}

TEST(SimplexTest, FixedVariablesRespected) {
  Model m;
  const int x = m.AddVariable(2.0, 2.0, 1.0);  // fixed
  const int y = m.AddVariable(0.0, kInfinity, 1.0);
  m.AddConstraint(ConstraintSense::kGreaterEqual, 5.0, {{x, 1.0}, {y, 1.0}});
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal());
  EXPECT_DOUBLE_EQ(sol.x[x], 2.0);
  EXPECT_NEAR(sol.x[y], 3.0, 1e-9);
}

TEST(SimplexTest, DegenerateTransportationProblem) {
  // Classic degenerate transport instance; checks anti-cycling.
  // 2 supplies (10, 10), 2 demands (10, 10), costs [[1, 2], [3, 1]].
  Model m;
  std::vector<std::vector<int>> v(2, std::vector<int>(2));
  const double cost[2][2] = {{1, 2}, {3, 1}};
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      v[i][j] = m.AddVariable(0, kInfinity, cost[i][j]);
    }
  }
  for (int i = 0; i < 2; ++i) {
    m.AddConstraint(ConstraintSense::kEqual, 10.0,
                    {{v[i][0], 1.0}, {v[i][1], 1.0}});
  }
  for (int j = 0; j < 2; ++j) {
    m.AddConstraint(ConstraintSense::kEqual, 10.0,
                    {{v[0][j], 1.0}, {v[1][j], 1.0}});
  }
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 20.0, 1e-8);
  VerifyKkt(m, sol);
}

TEST(SimplexTest, WarmStartAfterAddingColumn) {
  // Solve, then add an improving column and re-solve warm: the result must
  // match a cold solve of the extended model.
  Model m;
  const int x = m.AddVariable(0, kInfinity, 3.0);
  const int y = m.AddVariable(0, kInfinity, 4.0);
  m.AddConstraint(ConstraintSense::kGreaterEqual, 6.0, {{x, 1.0}, {y, 1.0}});
  m.AddConstraint(ConstraintSense::kGreaterEqual, 2.0, {{y, 1.0}});
  Basis basis;
  LpSolution first = RevisedSimplex::Solve(m, DefaultOptions(), nullptr,
                                           &basis);
  ASSERT_TRUE(first.optimal());
  EXPECT_NEAR(first.objective, 3.0 * 4.0 + 4.0 * 2.0, 1e-8);

  const int z = m.AddVariable(0, kInfinity, 1.0);  // cheap substitute
  m.AddCoefficient(0, z, 1.0);
  LpSolution warm = RevisedSimplex::Solve(m, DefaultOptions(), &basis);
  ASSERT_TRUE(warm.optimal());
  LpSolution cold = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(cold.optimal());
  EXPECT_NEAR(warm.objective, cold.objective, 1e-8);
  EXPECT_NEAR(warm.objective, 1.0 * 4.0 + 4.0 * 2.0, 1e-8);
}

TEST(InteriorPointTest, SolvesTextbookMaximization) {
  Model m(ObjectiveSense::kMaximize);
  const int x = m.AddVariable(0, kInfinity, 3.0);
  const int y = m.AddVariable(0, kInfinity, 2.0);
  m.AddConstraint(ConstraintSense::kLessEqual, 4.0, {{x, 1.0}, {y, 1.0}});
  m.AddConstraint(ConstraintSense::kLessEqual, 2.0, {{x, 1.0}});
  m.AddConstraint(ConstraintSense::kLessEqual, 3.0, {{y, 1.0}});
  const LpSolution sol = InteriorPoint::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal()) << SolveStatusToString(sol.status);
  EXPECT_NEAR(sol.objective, 10.0, 1e-5);
}

TEST(InteriorPointTest, HandlesEqualityAndBoxBounds) {
  Model m;
  const int x = m.AddVariable(0.0, 1.5, 1.0);
  const int y = m.AddVariable(0.0, kInfinity, 2.0);
  m.AddConstraint(ConstraintSense::kEqual, 2.0, {{x, 1.0}, {y, 1.0}});
  const LpSolution sol = InteriorPoint::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 1.5 + 2.0 * 0.5, 1e-5);
}

TEST(InteriorPointTest, HandlesFreeVariables) {
  Model m;
  const int x = m.AddVariable(0.0, kInfinity, 1.0);
  const int y = m.AddVariable(-kInfinity, kInfinity, 0.0);
  m.AddConstraint(ConstraintSense::kEqual, 3.0, {{x, 1.0}, {y, 1.0}});
  m.AddConstraint(ConstraintSense::kLessEqual, 1.0, {{y, 1.0}});
  const LpSolution sol = InteriorPoint::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 2.0, 1e-5);
}

// Property test: on random feasible bounded LPs, the simplex and the
// interior point must agree on the optimal objective, and the simplex
// solution must satisfy the KKT conditions.
class RandomLpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpTest, SimplexAgreesWithInteriorPoint) {
  rng::Rng rng(GetParam());
  const int n = 2 + static_cast<int>(rng.UniformInt(7));
  const int rows = 1 + static_cast<int>(rng.UniformInt(2 * n));
  Model m(rng.Uniform() < 0.5 ? ObjectiveSense::kMinimize
                              : ObjectiveSense::kMaximize);
  for (int j = 0; j < n; ++j) {
    m.AddVariable(0.0, rng.Uniform(0.5, 5.0), rng.Uniform(-3.0, 3.0));
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<Coefficient> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.Uniform() < 0.7) {
        terms.push_back({j, rng.Uniform(-2.0, 2.0)});
      }
    }
    if (terms.empty()) terms.push_back({0, 1.0});
    // rhs >= 0 keeps x = 0 feasible for <= rows; bounded boxes keep the
    // whole program bounded.
    m.AddConstraint(ConstraintSense::kLessEqual, rng.Uniform(0.5, 6.0),
                    std::move(terms));
  }
  const LpSolution simplex = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(simplex.optimal()) << SolveStatusToString(simplex.status);
  VerifyKkt(m, simplex);
  const LpSolution ipm = InteriorPoint::Solve(m, DefaultOptions());
  ASSERT_TRUE(ipm.optimal()) << SolveStatusToString(ipm.status);
  EXPECT_NEAR(simplex.objective, ipm.objective,
              1e-4 * (1.0 + std::abs(simplex.objective)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpTest, ::testing::Range(1, 41));

// Harder random instances: mixed <=, >=, = rows with feasibility guaranteed
// by construction (rhs derived from a known interior point x0).
class MixedSenseLpTest : public ::testing::TestWithParam<int> {};

TEST_P(MixedSenseLpTest, SimplexAgreesWithInteriorPointOnMixedRows) {
  rng::Rng rng(1000 + GetParam());
  const int n = 2 + static_cast<int>(rng.UniformInt(6));
  const int rows = 1 + static_cast<int>(rng.UniformInt(2 * n));
  Model m;
  std::vector<double> x0(n);
  for (int j = 0; j < n; ++j) {
    const double ub = rng.Uniform(1.0, 6.0);
    m.AddVariable(0.0, ub, rng.Uniform(-3.0, 3.0));
    x0[j] = rng.Uniform(0.2, 0.8) * ub;  // interior point
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<Coefficient> terms;
    double activity = 0.0;
    for (int j = 0; j < n; ++j) {
      if (rng.Uniform() < 0.7) {
        const double a = rng.Uniform(-2.0, 2.0);
        terms.push_back({j, a});
        activity += a * x0[j];
      }
    }
    if (terms.empty()) {
      terms.push_back({0, 1.0});
      activity = x0[0];
    }
    const double u = rng.Uniform();
    if (u < 0.4) {
      m.AddConstraint(ConstraintSense::kLessEqual,
                      activity + rng.Uniform(0.0, 2.0), std::move(terms));
    } else if (u < 0.8) {
      m.AddConstraint(ConstraintSense::kGreaterEqual,
                      activity - rng.Uniform(0.0, 2.0), std::move(terms));
    } else {
      m.AddConstraint(ConstraintSense::kEqual, activity, std::move(terms));
    }
  }
  const LpSolution simplex = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(simplex.optimal()) << SolveStatusToString(simplex.status);
  VerifyKkt(m, simplex);
  const LpSolution ipm = InteriorPoint::Solve(m, DefaultOptions());
  ASSERT_TRUE(ipm.optimal()) << SolveStatusToString(ipm.status);
  EXPECT_NEAR(simplex.objective, ipm.objective,
              1e-4 * (1.0 + std::abs(simplex.objective)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedSenseLpTest, ::testing::Range(1, 31));

// Nothing reduces a program before the simplex sees it, so fixed columns,
// singleton rows and rows the fixed columns already decide all reach the
// solver as they are; each shape below must come out right on its own.
TEST(SimplexTest, FixedColumnCountsInTheObjective) {
  // min 3x + y, x fixed at 2, x + y >= 5 -> y = 3, objective 6 + 3.
  Model m;
  const int x = m.AddVariable(2.0, 2.0, 3.0);
  const int y = m.AddVariable(0.0, kInfinity, 1.0);
  m.AddConstraint(ConstraintSense::kGreaterEqual, 5.0, {{x, 1.0}, {y, 1.0}});
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal()) << SolveStatusToString(sol.status);
  EXPECT_NEAR(sol.x[x], 2.0, 1e-12);
  EXPECT_NEAR(sol.x[y], 3.0, 1e-9);
  EXPECT_NEAR(sol.objective, 9.0, 1e-9);
  VerifyKkt(m, sol);
}

TEST(SimplexTest, SingletonRowsActAsBounds) {
  // min -x s.t. x <= 7, x >= 2: x = 7, and only the binding row prices.
  Model m;
  const int x = m.AddVariable(0.0, kInfinity, -1.0);
  m.AddConstraint(ConstraintSense::kLessEqual, 7.0, {{x, 1.0}});
  m.AddConstraint(ConstraintSense::kGreaterEqual, 2.0, {{x, 1.0}});
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal()) << SolveStatusToString(sol.status);
  EXPECT_NEAR(sol.x[x], 7.0, 1e-9);
  EXPECT_NEAR(sol.objective, -7.0, 1e-9);
  EXPECT_NEAR(sol.duals[0], -1.0, 1e-9);
  EXPECT_NEAR(sol.duals[1], 0.0, 1e-9);
  VerifyKkt(m, sol);
}

TEST(SimplexTest, NegativeSingletonRowBoundsAFreeColumnFromBelow) {
  // min x, x free, -2x <= 6 (that is, x >= -3) -> x = -3.
  Model m;
  const int x = m.AddVariable(-kInfinity, kInfinity, 1.0);
  m.AddConstraint(ConstraintSense::kLessEqual, 6.0, {{x, -2.0}});
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal()) << SolveStatusToString(sol.status);
  EXPECT_NEAR(sol.x[x], -3.0, 1e-9);
  EXPECT_NEAR(sol.objective, -3.0, 1e-9);
  VerifyKkt(m, sol);
}

TEST(SimplexTest, EqualitySingletonRowPinsItsColumn) {
  // min 5x + y s.t. 2x = 4, x + y >= 3 -> x = 2, y = 1, objective 11.
  Model m;
  const int x = m.AddVariable(0.0, kInfinity, 5.0);
  const int y = m.AddVariable(0.0, kInfinity, 1.0);
  m.AddConstraint(ConstraintSense::kEqual, 4.0, {{x, 2.0}});
  m.AddConstraint(ConstraintSense::kGreaterEqual, 3.0, {{x, 1.0}, {y, 1.0}});
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal()) << SolveStatusToString(sol.status);
  EXPECT_NEAR(sol.x[x], 2.0, 1e-9);
  EXPECT_NEAR(sol.x[y], 1.0, 1e-9);
  EXPECT_NEAR(sol.objective, 11.0, 1e-9);
  VerifyKkt(m, sol);
}

TEST(SimplexTest, SingletonRowBeyondTheColumnBoxIsInfeasible) {
  Model m;
  const int x = m.AddVariable(0.0, 5.0, 1.0);
  m.AddConstraint(ConstraintSense::kGreaterEqual, 9.0, {{x, 1.0}});
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  EXPECT_EQ(sol.status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, EqualityAFixedColumnBreaksIsInfeasible) {
  // x fixed at 1 leaves 2x = 2, never 5.
  Model m;
  const int x = m.AddVariable(1.0, 1.0, 0.0);
  m.AddConstraint(ConstraintSense::kEqual, 5.0, {{x, 2.0}});
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  EXPECT_EQ(sol.status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, RowsThatFixedColumnsSatisfyAreHarmless) {
  // x fixed at 3 meets x <= 10 whatever else happens; min -y over
  // y in [0, 1] with y <= 1 -> y = 1.
  Model m;
  const int x = m.AddVariable(3.0, 3.0, 0.0);
  const int y = m.AddVariable(0.0, 1.0, -1.0);
  m.AddConstraint(ConstraintSense::kLessEqual, 10.0, {{x, 1.0}});
  m.AddConstraint(ConstraintSense::kLessEqual, 1.0, {{y, 1.0}});
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal()) << SolveStatusToString(sol.status);
  EXPECT_NEAR(sol.x[x], 3.0, 1e-12);
  EXPECT_NEAR(sol.x[y], 1.0, 1e-9);
  EXPECT_NEAR(sol.objective, -1.0, 1e-9);
  VerifyKkt(m, sol);
}

TEST(SimplexTest, RepeatedRowTermsAreSummed) {
  // Model rows may name a column twice; the row means the sum, 3.5x <= 4.
  Model m(ObjectiveSense::kMaximize);
  const int x = m.AddVariable(0.0, kInfinity, 1.0);
  m.AddConstraint(ConstraintSense::kLessEqual, 4.0, {{x, 1.0}, {x, 2.5}});
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal()) << SolveStatusToString(sol.status);
  EXPECT_NEAR(sol.x[x], 4.0 / 3.5, 1e-9);
  VerifyKkt(m, sol);
}

TEST(SimplexTest, ColumnBoundedOnlyAbove) {
  // max 2x + y, x <= 3 with no lower bound, y in [0, 4], x + y <= 5:
  // x rests at its upper bound, y = 2, objective 8.
  Model m(ObjectiveSense::kMaximize);
  const int x = m.AddVariable(-kInfinity, 3.0, 2.0);
  const int y = m.AddVariable(0.0, 4.0, 1.0);
  m.AddConstraint(ConstraintSense::kLessEqual, 5.0, {{x, 1.0}, {y, 1.0}});
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal()) << SolveStatusToString(sol.status);
  EXPECT_NEAR(sol.x[x], 3.0, 1e-9);
  EXPECT_NEAR(sol.x[y], 2.0, 1e-9);
  EXPECT_NEAR(sol.objective, 8.0, 1e-9);
  VerifyKkt(m, sol);
  // Minimizing the same column instead runs it down without end.
  Model down;
  down.AddVariable(-kInfinity, 3.0, 1.0);
  EXPECT_EQ(RevisedSimplex::Solve(down, DefaultOptions()).status,
            SolveStatus::kUnbounded);
}

// `m` over its non-fixed columns, each fixed column's row activity moved
// into the rhs; `offset` gets the fixed columns' share of the objective.
Model SubstituteFixedColumns(const Model& m, double* offset) {
  Model reduced(m.sense());
  std::vector<int> index(m.num_variables(), -1);
  *offset = 0.0;
  for (int j = 0; j < m.num_variables(); ++j) {
    if (m.lower_bound(j) == m.upper_bound(j)) {
      *offset += m.objective_coefficient(j) * m.lower_bound(j);
    } else {
      index[j] = reduced.AddVariable(m.lower_bound(j), m.upper_bound(j),
                                     m.objective_coefficient(j));
    }
  }
  for (int i = 0; i < m.num_constraints(); ++i) {
    double rhs = m.rhs(i);
    std::vector<Coefficient> terms;
    for (const Coefficient& t : m.row(i)) {
      if (index[t.var] < 0) {
        rhs -= t.value * m.lower_bound(t.var);
      } else {
        terms.push_back({index[t.var], t.value});
      }
    }
    reduced.AddConstraint(m.constraint_sense(i), rhs, std::move(terms));
  }
  return reduced;
}

// Property test: on random programs where about a third of the columns are
// fixed, the simplex keeps every fixed column at its value, satisfies KKT,
// and matches the program with the fixed columns substituted out.
class FixedColumnLpTest : public ::testing::TestWithParam<int> {};

TEST_P(FixedColumnLpTest, SimplexMatchesTheSubstitutedProgram) {
  rng::Rng rng(500 + GetParam());
  const int n = 3 + static_cast<int>(rng.UniformInt(6));
  Model m(rng.Uniform() < 0.5 ? ObjectiveSense::kMinimize
                              : ObjectiveSense::kMaximize);
  for (int j = 0; j < n; ++j) {
    if (rng.Uniform() < 0.3) {
      const double v = rng.Uniform(-2.0, 2.0);
      m.AddVariable(v, v, rng.Uniform(-3.0, 3.0));
    } else {
      m.AddVariable(0.0, rng.Uniform(1.0, 5.0), rng.Uniform(-3.0, 3.0));
    }
  }
  const int rows = 1 + static_cast<int>(rng.UniformInt(2 * n));
  for (int i = 0; i < rows; ++i) {
    std::vector<Coefficient> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.Uniform() < 0.5) terms.push_back({j, rng.Uniform(-2.0, 2.0)});
    }
    if (terms.empty()) {
      terms.push_back({static_cast<int>(rng.UniformInt(n)), 1.0});
    }
    // A generous rhs keeps the program feasible despite the fixed columns.
    m.AddConstraint(ConstraintSense::kLessEqual, rng.Uniform(8.0, 20.0),
                    std::move(terms));
  }
  const LpSolution direct = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(direct.optimal()) << SolveStatusToString(direct.status);
  VerifyKkt(m, direct);
  for (int j = 0; j < n; ++j) {
    if (m.lower_bound(j) == m.upper_bound(j)) {
      EXPECT_NEAR(direct.x[j], m.lower_bound(j), 1e-9) << "var " << j;
    }
  }
  double offset = 0.0;
  const Model reduced = SubstituteFixedColumns(m, &offset);
  const LpSolution substituted = RevisedSimplex::Solve(reduced,
                                                       DefaultOptions());
  ASSERT_TRUE(substituted.optimal())
      << SolveStatusToString(substituted.status);
  VerifyKkt(reduced, substituted);
  EXPECT_NEAR(direct.objective, substituted.objective + offset,
              1e-6 * (1.0 + std::abs(direct.objective)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FixedColumnLpTest, ::testing::Range(1, 31));

// Property test over every unfixed bound kind at once: boxes (some below
// zero), lower-only, upper-only and free columns under mixed-sense rows
// built around a known feasible point. Each half-bounded column's cost
// pulls it toward its finite bound and free columns cost nothing, so the
// program is bounded; the simplex must satisfy KKT and match the interior
// point.
class BoundKindLpTest : public ::testing::TestWithParam<int> {};

TEST_P(BoundKindLpTest, SimplexAgreesWithInteriorPoint) {
  rng::Rng rng(2000 + GetParam());
  const int n = 3 + static_cast<int>(rng.UniformInt(6));
  const int rows = 1 + static_cast<int>(rng.UniformInt(2 * n));
  const bool minimize = rng.Uniform() < 0.5;
  // Costs are drawn for the minimization; a maximization negates them.
  const double sense = minimize ? 1.0 : -1.0;
  Model m(minimize ? ObjectiveSense::kMinimize : ObjectiveSense::kMaximize);
  std::vector<double> x0(n);
  for (int j = 0; j < n; ++j) {
    const double anchor = rng.Uniform(-3.0, 3.0);
    const double width = rng.Uniform(0.5, 4.0);
    switch (static_cast<int>(rng.UniformInt(4))) {
      case 0:  // box, possibly below zero
        m.AddVariable(anchor, anchor + width,
                      sense * rng.Uniform(-3.0, 3.0));
        x0[j] = anchor + rng.Uniform(0.2, 0.8) * width;
        break;
      case 1:  // lower bound only
        m.AddVariable(anchor, kInfinity, sense * rng.Uniform(0.0, 3.0));
        x0[j] = anchor + rng.Uniform(0.0, 2.0);
        break;
      case 2:  // upper bound only
        m.AddVariable(-kInfinity, anchor, sense * rng.Uniform(-3.0, 0.0));
        x0[j] = anchor - rng.Uniform(0.0, 2.0);
        break;
      default:  // free
        m.AddVariable(-kInfinity, kInfinity, 0.0);
        x0[j] = anchor;
        break;
    }
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<Coefficient> terms;
    double activity = 0.0;
    for (int j = 0; j < n; ++j) {
      if (rng.Uniform() < 0.6) {
        const double a = rng.Uniform(-2.0, 2.0);
        terms.push_back({j, a});
        activity += a * x0[j];
      }
    }
    if (terms.empty()) {
      terms.push_back({0, 1.0});
      activity = x0[0];
    }
    const double u = rng.Uniform();
    if (u < 0.4) {
      m.AddConstraint(ConstraintSense::kLessEqual,
                      activity + rng.Uniform(0.0, 2.0), std::move(terms));
    } else if (u < 0.8) {
      m.AddConstraint(ConstraintSense::kGreaterEqual,
                      activity - rng.Uniform(0.0, 2.0), std::move(terms));
    } else {
      m.AddConstraint(ConstraintSense::kEqual, activity, std::move(terms));
    }
  }
  const LpSolution simplex = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(simplex.optimal()) << SolveStatusToString(simplex.status);
  VerifyKkt(m, simplex);
  const LpSolution ipm = InteriorPoint::Solve(m, DefaultOptions());
  ASSERT_TRUE(ipm.optimal()) << SolveStatusToString(ipm.status);
  EXPECT_NEAR(simplex.objective, ipm.objective,
              1e-4 * (1.0 + std::abs(simplex.objective)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundKindLpTest, ::testing::Range(1, 21));

TEST(ModelTest, ValidateAcceptsWellFormed) {
  Model m;
  const int x = m.AddVariable(0, 1, 1.0);
  m.AddConstraint(ConstraintSense::kLessEqual, 1.0, {{x, 1.0}});
  EXPECT_TRUE(m.Validate().ok());
}

TEST(ModelTest, ValidateRejectsNonFiniteRhs) {
  Model m;
  const int x = m.AddVariable(0, 1, 1.0);
  m.AddConstraint(ConstraintSense::kLessEqual,
                  std::numeric_limits<double>::quiet_NaN(), {{x, 1.0}});
  EXPECT_FALSE(m.Validate().ok());
}

TEST(SimplexTest, OversizedInstanceReportsTooLarge) {
  // Instances beyond the basis row cap must fail fast instead of starting
  // a solve whose every pivot makes O(rows) dense passes.
  Model m;
  const int x = m.AddVariable(0.0, 1.0, 1.0);
  for (int i = 0; i < 100; ++i) {
    m.AddConstraint(ConstraintSense::kLessEqual, 1.0, {{x, 1.0}});
  }
  SolverOptions o;
  o.max_basis_rows = 50;
  const LpSolution sol = RevisedSimplex::Solve(m, o);
  EXPECT_EQ(sol.status, SolveStatus::kTooLarge);
}

// A solve long enough to cross many basis refactorizations (each one
// replaces a run of eta updates with a fresh LU), followed by a warm start
// after appending columns — the column-generation pattern. Both solutions
// must satisfy KKT and match the interior point, and the warm start must
// resume from the old optimum (the appended columns shift every slack
// index) rather than fall back to a cold start.
TEST(SimplexTest, WarmStartAfterManyRefactorizations) {
  rng::Rng rng(77);
  const int n = 90;
  const int rows = 140;
  Model m;
  std::vector<double> x0(n);
  for (int j = 0; j < n; ++j) {
    const double ub = rng.Uniform(1.0, 4.0);
    m.AddVariable(0.0, ub, rng.Uniform(-3.0, 1.0));
    x0[j] = rng.Uniform(0.2, 0.8) * ub;
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<Coefficient> terms;
    double activity = 0.0;
    for (int j = 0; j < n; ++j) {
      if (rng.Uniform() < 0.3) {
        const double a = rng.Uniform(-2.0, 2.0);
        terms.push_back({j, a});
        activity += a * x0[j];
      }
    }
    if (rng.Uniform() < 0.5) {
      m.AddConstraint(ConstraintSense::kLessEqual,
                      activity + rng.Uniform(0.0, 1.0), std::move(terms));
    } else {
      m.AddConstraint(ConstraintSense::kGreaterEqual,
                      activity - rng.Uniform(0.0, 1.0), std::move(terms));
    }
  }
  Basis basis;
  const LpSolution first =
      RevisedSimplex::Solve(m, DefaultOptions(), nullptr, &basis);
  ASSERT_TRUE(first.optimal()) << SolveStatusToString(first.status);
  EXPECT_GE(first.refactorizations, 8);
  VerifyKkt(m, first);
  const LpSolution first_ipm = InteriorPoint::Solve(m, DefaultOptions());
  ASSERT_TRUE(first_ipm.optimal());
  EXPECT_NEAR(first.objective, first_ipm.objective,
              1e-4 * (1.0 + std::abs(first.objective)));

  // Cheap new columns, each in a few existing rows.
  for (int k = 0; k < 30; ++k) {
    const int v = m.AddVariable(0.0, rng.Uniform(1.0, 3.0),
                                rng.Uniform(-4.0, -1.0));
    for (int i = 0; i < rows; ++i) {
      if (rng.Uniform() < 0.1) m.AddCoefficient(i, v, rng.Uniform(-2.0, 2.0));
    }
  }
  const LpSolution warm = RevisedSimplex::Solve(m, DefaultOptions(), &basis);
  ASSERT_TRUE(warm.optimal()) << SolveStatusToString(warm.status);
  VerifyKkt(m, warm);
  EXPECT_LT(warm.objective, first.objective);
  const LpSolution cold = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(cold.optimal());
  EXPECT_NEAR(warm.objective, cold.objective,
              1e-8 * (1.0 + std::abs(cold.objective)));
  EXPECT_LT(warm.iterations, cold.iterations / 2);
  const LpSolution ipm = InteriorPoint::Solve(m, DefaultOptions());
  ASSERT_TRUE(ipm.optimal()) << SolveStatusToString(ipm.status);
  EXPECT_NEAR(warm.objective, ipm.objective,
              1e-4 * (1.0 + std::abs(warm.objective)));
}

// The column-generation pattern of a level template: the same matrix and
// costs with another right-hand side. The old optimal basis is then dual
// feasible but not primal feasible, and the dual phase takes it to the
// new optimum in fewer pivots than a cold solve.
TEST(SimplexTest, WarmStartAfterRhsChangeRunsTheDualPhase) {
  rng::Rng rng(91);
  const int n = 60;
  const int rows = 90;
  std::vector<double> ub(n), cost(n);
  for (int j = 0; j < n; ++j) {
    ub[j] = rng.Uniform(1.0, 4.0);
    cost[j] = rng.Uniform(-3.0, 1.0);
  }
  std::vector<std::vector<Coefficient>> terms(rows);
  std::vector<bool> less(rows);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < n; ++j) {
      if (rng.Uniform() < 0.3) terms[i].push_back({j, rng.Uniform(-2.0, 2.0)});
    }
    less[i] = rng.Uniform() < 0.5;
  }
  // One model per interior point x0: each row holds at x0 with a margin.
  const auto build = [&](uint64_t seed) {
    rng::Rng point_rng(seed);
    Model m;
    std::vector<double> x0(n);
    for (int j = 0; j < n; ++j) {
      m.AddVariable(0.0, ub[j], cost[j]);
      x0[j] = point_rng.Uniform(0.1, 0.9) * ub[j];
    }
    for (int i = 0; i < rows; ++i) {
      double activity = 0.0;
      for (const Coefficient& t : terms[i]) activity += t.value * x0[t.var];
      const double margin = point_rng.Uniform(0.0, 1.0);
      m.AddConstraint(less[i] ? ConstraintSense::kLessEqual
                              : ConstraintSense::kGreaterEqual,
                      less[i] ? activity + margin : activity - margin,
                      terms[i]);
    }
    return m;
  };
  const Model first = build(1);
  Basis basis;
  ASSERT_TRUE(
      RevisedSimplex::Solve(first, DefaultOptions(), nullptr, &basis)
          .optimal());

  const Model second = build(2);
  const LpSolution warm = RevisedSimplex::Solve(second, DefaultOptions(),
                                                &basis);
  ASSERT_TRUE(warm.optimal()) << SolveStatusToString(warm.status);
  VerifyKkt(second, warm);
  EXPECT_GT(warm.dual_iterations, 0);
  const LpSolution cold = RevisedSimplex::Solve(second, DefaultOptions());
  ASSERT_TRUE(cold.optimal());
  EXPECT_EQ(cold.dual_iterations, 0);
  EXPECT_NEAR(warm.objective, cold.objective,
              1e-8 * (1.0 + std::abs(cold.objective)));
  EXPECT_LT(warm.iterations, cold.iterations);
}

// A warm basis whose values break their bounds and under which a column
// with a one-sided bound prices in is neither primal nor dual feasible:
// the solve starts cold, exactly as without the basis.
TEST(SimplexTest, WarmBasisNeitherPrimalNorDualFeasibleStartsCold) {
  const auto build = [](double sign, double rhs1) {
    Model m;
    const int x = m.AddVariable(0.0, kInfinity, sign);
    const int y = m.AddVariable(0.0, kInfinity, sign);
    m.AddConstraint(ConstraintSense::kLessEqual, 4.0, {{x, 1.0}, {y, 2.0}});
    m.AddConstraint(ConstraintSense::kLessEqual, rhs1, {{x, 3.0}, {y, 1.0}});
    return m;
  };
  // max x + y: the optimum (8/5, 6/5) has both structurals basic.
  Basis basis;
  const LpSolution first = RevisedSimplex::Solve(build(-1.0, 6.0),
                                                 DefaultOptions(), nullptr,
                                                 &basis);
  ASSERT_TRUE(first.optimal());
  EXPECT_NEAR(first.objective, -2.8, 1e-9);

  // min x + y with 3x + y <= 1: that basis puts x at -2/5, and both
  // slacks, at their lower bound of 0, price in.
  const Model second = build(1.0, 1.0);
  const LpSolution warm = RevisedSimplex::Solve(second, DefaultOptions(),
                                                &basis);
  ASSERT_TRUE(warm.optimal()) << SolveStatusToString(warm.status);
  VerifyKkt(second, warm);
  const LpSolution cold = RevisedSimplex::Solve(second, DefaultOptions());
  ASSERT_TRUE(cold.optimal());
  EXPECT_EQ(warm.dual_iterations, 0);
  EXPECT_EQ(warm.iterations, cold.iterations);
  EXPECT_EQ(warm.refactorizations, cold.refactorizations + 1)
      << "one refactorization of the refused basis";
  EXPECT_EQ(warm.objective, cold.objective);
  EXPECT_EQ(warm.x, cold.x);
}

TEST(SimplexTest, TimeLimitReported) {
  // A big random dense LP with a microscopic time budget must stop with
  // kTimeLimit rather than hanging.
  rng::Rng rng(5);
  Model m;
  const int n = 60;
  for (int j = 0; j < n; ++j) {
    m.AddVariable(0.0, 10.0, rng.Uniform(-1.0, 1.0));
  }
  for (int i = 0; i < 120; ++i) {
    std::vector<Coefficient> terms;
    for (int j = 0; j < n; ++j) terms.push_back({j, rng.Uniform(-1.0, 1.0)});
    m.AddConstraint(ConstraintSense::kLessEqual, rng.Uniform(1.0, 5.0),
                    std::move(terms));
  }
  SolverOptions o;
  o.time_limit_seconds = 0.0;
  const LpSolution sol = RevisedSimplex::Solve(m, o);
  EXPECT_EQ(sol.status, SolveStatus::kTimeLimit);
}

}  // namespace
}  // namespace geopriv::lp
