// Common result and option types shared by all LP solvers.

#ifndef GEOPRIV_LP_SOLUTION_H_
#define GEOPRIV_LP_SOLUTION_H_

#include <limits>
#include <string>
#include <vector>

namespace geopriv::lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kTimeLimit,
  kNumericalError,
  // The instance has more constraint rows than
  // SolverOptions::max_basis_rows allows.
  kTooLarge,
};

std::string SolveStatusToString(SolveStatus status);

struct SolverOptions {
  // Wall-clock budget; the solver returns kTimeLimit when exceeded.
  double time_limit_seconds = std::numeric_limits<double>::infinity();
  // Revised simplex: upper bound on the basis dimension (constraint
  // rows). The basis is factored sparsely, so memory grows with its
  // nonzeros, but every pivot still makes several O(m) dense passes and
  // the OPT dual has n^2 rows (160,000 at n = 400). Instances beyond the
  // cap return kTooLarge at once instead of running for hours.
  int max_basis_rows = 12000;
};

struct LpSolution {
  SolveStatus status = SolveStatus::kNumericalError;
  double objective = 0.0;
  // One value per model variable.
  std::vector<double> x;
  // One dual multiplier per model constraint (simplex only; empty for
  // interior point unless converged).
  std::vector<double> duals;
  int iterations = 0;
  // Of `iterations`, the pivots of the revised simplex's dual phase.
  int dual_iterations = 0;
  double solve_seconds = 0.0;
  // Basis refactorizations performed and their share of solve_seconds
  // (revised simplex only; interior point leaves them zero). Exposed so
  // the observability layer can split a solve into pricing / refactorize /
  // pivoting phases.
  int refactorizations = 0;
  double refactor_seconds = 0.0;

  bool optimal() const { return status == SolveStatus::kOptimal; }
};

}  // namespace geopriv::lp

#endif  // GEOPRIV_LP_SOLUTION_H_
