// Revised simplex with bounded variables: a primal phase, and a dual
// phase for warm bases.
//
// Solves Model (min/max c'x, sparse rows, box bounds) via the classical
// two-phase method: phase 1 minimizes the sum of artificial variables to
// find a feasible basis, phase 2 optimizes the true objective. Pricing is
// Devex (approximate steepest edge) over every column, in passes that
// vectorize, falling back to Bland's rule after a run of degenerate
// pivots.
//
// The dual phase starts from a warm basis that is dual feasible (no
// column prices in under the phase-2 costs) but not primal feasible,
// which is what an optimal basis becomes when only the right-hand side
// changes. Each dual pivot takes as leaving row the largest
// infeasibility^2 over its dual Devex weight, computes that row of
// B^{-1} A as the primal phase computes its pivot row, and picks the
// entering column by a Harris two-pass ratio test, written as branch-free
// passes over doubles so that they vectorize. Once every basic value is
// within its bounds, the primal phase confirms optimality on fresh reduced
// costs. A warm basis that is neither primal nor dual feasible starts
// cold, and a dual phase that runs past a few pivots per row, or finds no
// entering column, hands the solve to the cold retry.
//
// The basis is never inverted. It is held as a sparse LU factorization
// (left-looking, partial pivoting, columns ordered by nonzero count) and
// each pivot appends one product-form eta matrix; after a few dozen
// pivots the basis is factored afresh, which costs O(nnz) on the nearly
// triangular bases of the OPT dual. Reduced costs are updated from the
// pivot row, computed by a sparse BTRAN of e_r over a row-wise copy of
// the matrix, and recomputed from scratch at every refactorization. The
// solver is serial and deterministic: the same model and warm basis give
// bit-identical results.
//
// Warm starting: Solve() can resume from a Basis captured by a previous
// call. This matters for column generation (the optimal GeoInd mechanism):
// after appending variables to the model, the old basis is still feasible
// and the solver continues without a phase 1. A basis captured on a model
// with the same matrix and costs but another right-hand side (an MSM
// level template) resumes in the dual phase.

#ifndef GEOPRIV_LP_REVISED_SIMPLEX_H_
#define GEOPRIV_LP_REVISED_SIMPLEX_H_

#include <cstdint>
#include <vector>

#include "lp/model.h"
#include "lp/solution.h"

namespace geopriv::lp {

// Nonbasic/basic status of one variable (structural or slack).
enum class VarStatus : uint8_t {
  kAtLower = 0,
  kAtUpper = 1,
  kFree = 2,  // nonbasic free variable pinned at 0
  kBasic = 3,
};

// Snapshot of a simplex basis: `basic[i]` is the variable occupying row i
// (structural indices first, then slacks N..N+m-1); `status` has one entry
// per structural-plus-slack variable. N is the structural count when the
// basis was captured: a warm start after columns were appended to the
// model maps the slacks past the new columns.
struct Basis {
  std::vector<int> basic;
  std::vector<VarStatus> status;

  bool empty() const { return basic.empty(); }
};

class RevisedSimplex {
 public:
  // Solves `model`. If `warm` is non-null and non-empty, tries to start from
  // it: in the primal phase when its values are feasible, in the dual phase
  // when it is dual feasible, and cold otherwise or when it does not fit
  // the model. If `out_basis` is non-null, stores the final basis for later
  // warm starts.
  static LpSolution Solve(const Model& model, const SolverOptions& options,
                          const Basis* warm = nullptr,
                          Basis* out_basis = nullptr);
};

}  // namespace geopriv::lp

#endif  // GEOPRIV_LP_REVISED_SIMPLEX_H_
