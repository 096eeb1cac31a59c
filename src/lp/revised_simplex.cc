#include "lp/revised_simplex.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "base/stopwatch.h"

namespace geopriv::lp {

namespace {

constexpr double kPivotTol = 1e-9;
constexpr double kZeroTol = 1e-11;
// A nonbasic column prices in when its reduced cost beats this.
constexpr double kOptimalityTol = 1e-8;
// Pivots before a solve gives up with kIterationLimit.
constexpr int kMaxIterations = 1000000;
// A factorization pivot at or below this magnitude means the basis is
// numerically singular.
constexpr double kSingularTol = 1e-12;
// Eta entries at or below this magnitude are roundoff and are dropped.
constexpr double kDropTol = 1e-14;
// Consecutive degenerate pivots before switching to Bland's rule.
constexpr int kDegenerateLimit = 200;
// The dual phase drives basic values into their bounds to within this.
constexpr double kPrimalTol = 1e-9;
// Dual pivots per row before the dual phase gives up on a warm basis and
// the solve is retried cold. A cold solve of the OPT dual takes about two
// pivots per row.
constexpr int kDualPivotsPerRow = 5;
// Eta updates between refactorizations. A refactorization costs about as
// much as a few pivots (the basis is nearly triangular), while every eta
// lengthens each FTRAN and BTRAN, so short runs are cheapest. The cold
// retry after numerical trouble refactorizes more often still.
constexpr int kRefactorPivots = 32;
constexpr int kRetryRefactorPivots = 8;

// Initial nonbasic value for a variable given its bounds.
double InitialValue(double lb, double ub) {
  if (std::isfinite(lb)) return lb;
  if (std::isfinite(ub)) return ub;
  return 0.0;
}

VarStatus InitialStatus(double lb, double ub) {
  if (std::isfinite(lb)) return VarStatus::kAtLower;
  if (std::isfinite(ub)) return VarStatus::kAtUpper;
  return VarStatus::kFree;
}

// Internal solver state for one Solve() call.
//
// The constraint matrix (structural columns, then one slack per row, then
// phase-1 artificials) is held column-wise in flat CSC arrays, plus a
// row-wise copy for computing pivot rows. The basis B is held as a sparse
// LU factorization P B Q = L U of the basis at the last refactorization,
// times a product of eta matrices, one per pivot since then.
class Core {
 public:
  Core(const Model& model, const SolverOptions& options, int refactor_pivots)
      : model_(model),
        options_(options),
        m_(model.num_constraints()),
        refactor_pivots_(refactor_pivots) {}

  LpSolution Run(const Basis* warm, Basis* out_basis);

 private:
  enum class StepResult { kOptimal, kUnbounded, kContinue, kSingular };
  // How a warm basis can start: not at all, in the primal phase (its
  // values are within bounds) or in the dual phase (they are not, but no
  // column prices in).
  enum class WarmStart { kCold, kPrimal, kDual };

  void BuildColumns();
  void BuildRowCopy();
  void ColdStart();
  WarmStart TryWarmStart(const Basis& warm);

  // Factors the current basis and recomputes the basic values. Returns
  // false if the basis is numerically singular.
  bool Refactorize();
  bool Factor();
  int Reach(int col);
  void ComputeBasicValues();
  // Recomputes every reduced cost from fresh duals.
  void ComputeReducedCosts(const std::vector<double>& cost);
  // The phase-2 costs: the model's objective, as a minimization.
  std::vector<double> PhaseTwoCost() const;

  // Solves B x = v in place: v enters indexed by row and leaves indexed
  // by basis position.
  void Ftran(std::vector<double>& v);
  // Solves B' y = v in place: v enters indexed by basis position and
  // leaves indexed by row.
  void Btran(std::vector<double>& v);
  void AppendEta(int r, const std::vector<double>& w);
  // w_ = B^{-1} a_q, by basis position.
  void ComputeColumn(int q);
  // alpha_j += (B^{-T} e_r)' a_j for every column j: row r of B^{-1} A.
  void ComputePivotRow(int r);
  // Both solves produced the pivot element: w_r by FTRAN and alpha_q by
  // BTRAN. A mismatch means the factors have drifted.
  void CheckPivot(int q, double pivot);
  // Moves x_q by t and the basic variables by -t w_.
  void MoveAlongColumn(int q, double t);

  // Runs simplex pivots on `cost` until optimal, unbounded or a limit.
  SolveStatus Optimize(const std::vector<double>& cost);
  StepResult Iterate(bool bland, double* objective_delta);
  // Runs dual simplex pivots on `cost` from a dual feasible basis until
  // the basic values are within their bounds. kNumericalError covers
  // every way the warm basis can fail (the pivot cap, a singular pivot,
  // no entering column), and the caller retries cold.
  SolveStatus DualOptimize(const std::vector<double>& cost);
  StepResult DualIterate();
  // Harris two-pass ratio test on the pivot row held in alpha_, taken in
  // the direction `sign` (+1 when the leaving variable falls to its upper
  // bound, -1 to its lower): the entering column, or -1 if none.
  int DualRatioTest(double sign);
  // Direction the variable j would move in to improve the objective (+1
  // up, -1 down), or 0 if it is not eligible to enter.
  double Direction(int j) const;
  // Sets moves_, up_ and down_ for variable j from its status.
  void SetMoves(int j);
  // Applies the pivot row held in alpha_ to the reduced costs (d_j -=
  // theta alpha_j) and the Devex weights (raised to alpha_j^2
  // devex_scale), zeroing alpha_, then picks the Devex entering column.
  // The update and the scoring are branch-free sweeps over every column,
  // so that they vectorize; the update also touches basic and fixed
  // columns, whose values are never read.
  void UpdateAndPrice(double theta, double devex_scale);
  double Objective(const std::vector<double>& cost) const;
  void ResetDevex() { devex_.assign(NumVars(), 1.0); }

  int NumVars() const { return static_cast<int>(col_start_.size()) - 1; }

  const Model& model_;
  const SolverOptions& options_;
  const int m_;
  const int refactor_pivots_;
  // Set when a pivot's FTRAN and BTRAN disagree on the pivot element:
  // the factors have lost accuracy, so refactorize before the next pivot.
  bool inaccurate_ = false;
  int n_structural_ = 0;
  int n_slack_end_ = 0;  // structural + slack count (artificials follow)

  // Constraint matrix, column-wise and row-wise.
  std::vector<int> col_start_;
  std::vector<int> col_row_;
  std::vector<double> col_value_;
  std::vector<int> row_start_;
  std::vector<int> row_col_;
  std::vector<double> row_value_;
  std::vector<double> lb_;
  std::vector<double> ub_;
  std::vector<double> rhs_;

  std::vector<int> basis_;          // var index basic in each position
  std::vector<VarStatus> status_;   // per variable
  std::vector<double> x_;           // per variable
  int iterations_ = 0;
  int dual_iterations_ = 0;
  int refactorizations_ = 0;
  double refactor_seconds_ = 0.0;
  Stopwatch stopwatch_;

  // LU factors in pivot order: step k pivoted on row lu_row_[k] of the
  // basis column at position lu_col_[k]. L is unit lower triangular and U
  // upper triangular, both stored by column without the diagonal, with
  // row indices in pivot order.
  std::vector<int> lu_row_;
  std::vector<int> lu_col_;
  std::vector<int> l_start_;
  std::vector<int> l_index_;
  std::vector<double> l_value_;
  std::vector<int> u_start_;
  std::vector<int> u_index_;
  std::vector<double> u_value_;
  std::vector<double> u_diag_;
  // Eta file: pivot e replaced basis position eta_row_[e] by a column
  // whose FTRAN had eta_pivot_[e] there and the listed entries elsewhere.
  std::vector<int> eta_row_;
  std::vector<double> eta_pivot_;
  std::vector<int> eta_start_;
  std::vector<int> eta_index_;
  std::vector<double> eta_value_;

  // Factorization scratch: row -> pivot step (-1 while unpivoted), the
  // depth-first search of Reach, and a dense column accumulator.
  std::vector<int> pinv_;
  std::vector<int> reach_;
  std::vector<int> stack_;
  std::vector<int> resume_;
  std::vector<int> row_mark_;
  int row_stamp_ = 0;
  std::vector<double> work_;

  // Reduced cost per nonbasic variable, kept current by the pivot-row
  // update and recomputed at each refactorization.
  std::vector<double> d_;
  // Per variable: bit 0 set if it may increase (nonbasic at its lower
  // bound, or free), bit 1 if it may decrease (at its upper bound, or
  // free); 0 for basic and fixed variables.
  std::vector<uint8_t> moves_;
  // The two bits of moves_ as 1.0 or 0.0, for the dual ratio test: its
  // passes vectorize over doubles, not over the byte array.
  std::vector<double> up_;
  std::vector<double> down_;
  // The entering variable under Devex (largest d_j^2 / weight_j, ties to
  // the lowest index) as of the last UpdateAndPrice; -1 when no variable
  // is eligible.
  int devex_enter_ = -1;
  // Pricing scratch: each column's Devex score as its bit pattern.
  std::vector<uint64_t> score_;
  // Devex reference weights (Forrest-Goldfarb), one per variable. Reset
  // to 1 at the start and on runaway growth; grown multiplicatively on
  // pivots. Pricing picks the eligible column maximizing d_j^2 / weight_j,
  // which approximates steepest-edge at negligible cost and cuts the
  // iteration count several fold on degenerate instances versus Dantzig
  // pricing.
  std::vector<double> devex_;
  // Dual Devex reference weights, one per basis position: the dual phase
  // picks the leaving row maximizing infeasibility^2 / weight.
  std::vector<double> dual_devex_;

  // Per-pivot scratch: the entering column w = B^{-1} a_q, the pivot row
  // rho = B^{-T} e_r of the inverse, and alpha_j = rho' a_j per column
  // (all zero between pivots).
  std::vector<double> w_;
  std::vector<double> rho_;
  std::vector<double> alpha_;
};

void Core::BuildColumns() {
  const int n = model_.num_variables();
  n_structural_ = n;
  n_slack_end_ = n + m_;
  lb_.resize(n + m_);
  ub_.resize(n + m_);
  rhs_.resize(m_);
  col_start_.assign(n + m_ + 1, 0);
  for (int i = 0; i < m_; ++i) {
    for (const Coefficient& t : model_.row(i)) ++col_start_[t.var + 1];
    ++col_start_[n + i + 1];
  }
  for (int j = 0; j < n + m_; ++j) col_start_[j + 1] += col_start_[j];
  col_row_.resize(col_start_.back());
  col_value_.resize(col_start_.back());
  std::vector<int> next(col_start_.begin(), col_start_.end() - 1);
  for (int i = 0; i < m_; ++i) {
    for (const Coefficient& t : model_.row(i)) {
      const int p = next[t.var]++;
      col_row_[p] = i;
      col_value_[p] = t.value;
    }
    const int p = next[n + i]++;
    col_row_[p] = i;
    col_value_[p] = 1.0;
  }
  for (int j = 0; j < n; ++j) {
    lb_[j] = model_.lower_bound(j);
    ub_[j] = model_.upper_bound(j);
  }
  for (int i = 0; i < m_; ++i) {
    rhs_[i] = model_.rhs(i);
    const int slack = n + i;
    switch (model_.constraint_sense(i)) {
      case ConstraintSense::kLessEqual:
        lb_[slack] = 0.0;
        ub_[slack] = kInfinity;
        break;
      case ConstraintSense::kEqual:
        lb_[slack] = 0.0;
        ub_[slack] = 0.0;
        break;
      case ConstraintSense::kGreaterEqual:
        lb_[slack] = -kInfinity;
        ub_[slack] = 0.0;
        break;
    }
  }
}

// Row-wise copy of every column, artificials included; built once the
// starting basis has fixed the column set.
void Core::BuildRowCopy() {
  row_start_.assign(m_ + 1, 0);
  for (int row : col_row_) ++row_start_[row + 1];
  for (int i = 0; i < m_; ++i) row_start_[i + 1] += row_start_[i];
  row_col_.resize(row_start_.back());
  row_value_.resize(row_start_.back());
  std::vector<int> next(row_start_.begin(), row_start_.end() - 1);
  for (int j = 0; j < NumVars(); ++j) {
    for (int p = col_start_[j]; p < col_start_[j + 1]; ++p) {
      const int q = next[col_row_[p]]++;
      row_col_[q] = j;
      row_value_[q] = col_value_[p];
    }
  }
}

void Core::ColdStart() {
  const int n = n_structural_;
  status_.assign(NumVars(), VarStatus::kAtLower);
  x_.assign(NumVars(), 0.0);
  for (int j = 0; j < n; ++j) {
    status_[j] = InitialStatus(lb_[j], ub_[j]);
    x_[j] = InitialValue(lb_[j], ub_[j]);
  }
  // Residual per row given nonbasic structural values.
  std::vector<double> residual(rhs_);
  for (int j = 0; j < n; ++j) {
    if (x_[j] == 0.0) continue;
    for (int p = col_start_[j]; p < col_start_[j + 1]; ++p) {
      residual[col_row_[p]] -= col_value_[p] * x_[j];
    }
  }
  basis_.assign(m_, -1);
  for (int i = 0; i < m_; ++i) {
    const int slack = n + i;
    const double r = residual[i];
    if (r >= lb_[slack] - kZeroTol && r <= ub_[slack] + kZeroTol) {
      // Slack basis is feasible for this row.
      basis_[i] = slack;
      status_[slack] = VarStatus::kBasic;
      x_[slack] = r;
    } else {
      // Park the slack at its nearest bound and cover the remainder with an
      // artificial variable.
      const double v = std::clamp(r, lb_[slack], ub_[slack]);
      status_[slack] = (v == lb_[slack] && std::isfinite(lb_[slack]))
                           ? VarStatus::kAtLower
                           : VarStatus::kAtUpper;
      x_[slack] = v;
      const double rem = r - v;
      col_row_.push_back(i);
      col_value_.push_back(rem >= 0.0 ? 1.0 : -1.0);
      col_start_.push_back(static_cast<int>(col_row_.size()));
      lb_.push_back(0.0);
      ub_.push_back(kInfinity);
      status_.push_back(VarStatus::kBasic);
      x_.push_back(std::abs(rem));
      basis_[i] = NumVars() - 1;
    }
  }
  // A diagonal basis of +-1 entries cannot be singular.
  Refactorize();
}

Core::WarmStart Core::TryWarmStart(const Basis& warm) {
  // The basis may predate structural columns appended to the model since:
  // its indices run over its own old_n structurals, then the m slacks.
  const int old_n = static_cast<int>(warm.status.size()) - m_;
  if (static_cast<int>(warm.basic.size()) != m_ || old_n < 0 ||
      old_n > n_structural_) {
    return WarmStart::kCold;
  }
  const int shift = n_structural_ - old_n;
  std::vector<bool> used(n_slack_end_, false);
  basis_.resize(m_);
  for (int i = 0; i < m_; ++i) {
    int j = warm.basic[i];
    if (j < 0 || j >= old_n + m_) return WarmStart::kCold;
    if (j >= old_n) j += shift;
    if (used[j]) return WarmStart::kCold;
    used[j] = true;
    basis_[i] = j;
  }
  status_.assign(NumVars(), VarStatus::kAtLower);
  x_.assign(NumVars(), 0.0);
  for (int j = 0; j < NumVars(); ++j) {
    VarStatus s = j < old_n           ? warm.status[j]
                  : j < n_structural_ ? InitialStatus(lb_[j], ub_[j])
                                      : warm.status[j - shift];
    if (s == VarStatus::kBasic && !used[j]) {
      s = InitialStatus(lb_[j], ub_[j]);  // status disagrees with the basis
    }
    switch (s) {
      case VarStatus::kBasic:
        x_[j] = 0.0;  // filled in by ComputeBasicValues
        break;
      case VarStatus::kAtLower:
        if (!std::isfinite(lb_[j])) s = InitialStatus(lb_[j], ub_[j]);
        x_[j] = InitialValue(lb_[j], ub_[j]);
        break;
      case VarStatus::kAtUpper:
        if (!std::isfinite(ub_[j])) s = InitialStatus(lb_[j], ub_[j]);
        x_[j] = std::isfinite(ub_[j]) ? ub_[j] : InitialValue(lb_[j], ub_[j]);
        break;
      case VarStatus::kFree:
        x_[j] = 0.0;
        break;
    }
    status_[j] = s;
  }
  for (int i = 0; i < m_; ++i) status_[basis_[i]] = VarStatus::kBasic;
  if (!Refactorize()) return WarmStart::kCold;
  const auto primal_feasible = [&] {
    for (int i = 0; i < m_; ++i) {
      const int j = basis_[i];
      if (x_[j] < lb_[j] - 1e-7 || x_[j] > ub_[j] + 1e-7) return false;
    }
    return true;
  };
  if (primal_feasible()) return WarmStart::kPrimal;
  // Values out of bounds (the right-hand side moved): the dual phase can
  // start if no column prices in under the phase-2 costs. A boxed column
  // that does is moved to its other bound, where it does not.
  ComputeReducedCosts(PhaseTwoCost());
  bool flipped = false;
  for (int j = 0; j < NumVars(); ++j) {
    if (Direction(j) == 0.0) continue;
    if (!std::isfinite(lb_[j]) || !std::isfinite(ub_[j])) {
      return WarmStart::kCold;  // neither primal nor dual feasible
    }
    const bool to_upper = status_[j] == VarStatus::kAtLower;
    status_[j] = to_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
    x_[j] = to_upper ? ub_[j] : lb_[j];
    flipped = true;
  }
  if (flipped) ComputeBasicValues();
  return WarmStart::kDual;
}

bool Core::Refactorize() {
  const Stopwatch refactor_watch;
  ++refactorizations_;
  inaccurate_ = false;
  const bool ok = Factor();
  if (ok) ComputeBasicValues();
  refactor_seconds_ += refactor_watch.ElapsedSeconds();
  return ok;
}

// Left-looking sparse LU with partial pivoting (Gilbert-Peierls): basis
// columns are taken in order of increasing nonzero count, so the slack and
// two-entry columns that dominate the bases this library produces pivot
// first and leave little room for fill. Step k solves L x = a for the
// k-th column over the rows Reach() finds, puts the entries in pivoted
// rows into U and divides the rest, minus the largest one (the pivot),
// into L.
bool Core::Factor() {
  eta_row_.clear();
  eta_pivot_.clear();
  eta_start_.assign(1, 0);
  eta_index_.clear();
  eta_value_.clear();

  // Basis positions by column count (a stable counting sort).
  const auto count = [&](int k) {
    return col_start_[basis_[k] + 1] - col_start_[basis_[k]];
  };
  int max_count = 0;
  for (int k = 0; k < m_; ++k) max_count = std::max(max_count, count(k));
  std::vector<int> next(max_count + 2, 0);
  for (int k = 0; k < m_; ++k) ++next[count(k) + 1];
  for (int c = 0; c <= max_count; ++c) next[c + 1] += next[c];
  lu_col_.resize(m_);
  for (int k = 0; k < m_; ++k) lu_col_[next[count(k)]++] = k;

  lu_row_.resize(m_);
  pinv_.assign(m_, -1);
  reach_.resize(m_);
  stack_.resize(m_);
  resume_.resize(m_);
  row_mark_.assign(m_, 0);
  row_stamp_ = 0;
  work_.assign(m_, 0.0);
  l_start_.assign(1, 0);
  l_index_.clear();
  l_value_.clear();
  u_start_.assign(1, 0);
  u_index_.clear();
  u_value_.clear();
  u_diag_.resize(m_);
  double* x = work_.data();
  for (int k = 0; k < m_; ++k) {
    const int j = basis_[lu_col_[k]];
    const int top = Reach(j);
    for (int p = col_start_[j]; p < col_start_[j + 1]; ++p) {
      x[col_row_[p]] += col_value_[p];
    }
    for (int t = top; t < m_; ++t) {
      const int i = reach_[t];
      const int step = pinv_[i];
      if (step < 0 || x[i] == 0.0) continue;
      const double xi = x[i];
      for (int p = l_start_[step]; p < l_start_[step + 1]; ++p) {
        x[l_index_[p]] -= l_value_[p] * xi;
      }
    }
    int pivot_row = -1;
    double best = kSingularTol;
    for (int t = top; t < m_; ++t) {
      const int i = reach_[t];
      if (pinv_[i] >= 0) {
        if (x[i] != 0.0) {
          u_index_.push_back(pinv_[i]);
          u_value_.push_back(x[i]);
        }
      } else if (std::abs(x[i]) > best) {
        best = std::abs(x[i]);
        pivot_row = i;
      }
    }
    if (pivot_row < 0) {
      for (int t = top; t < m_; ++t) x[reach_[t]] = 0.0;
      return false;
    }
    const double pivot = x[pivot_row];
    pinv_[pivot_row] = k;
    lu_row_[k] = pivot_row;
    u_diag_[k] = pivot;
    for (int t = top; t < m_; ++t) {
      const int i = reach_[t];
      if (pinv_[i] < 0 && x[i] != 0.0) {
        l_index_.push_back(i);
        l_value_.push_back(x[i] / pivot);
      }
      x[i] = 0.0;
    }
    l_start_.push_back(static_cast<int>(l_index_.size()));
    u_start_.push_back(static_cast<int>(u_index_.size()));
  }
  // L was built with row indices; FTRAN and BTRAN work in pivot order.
  for (int& i : l_index_) i = pinv_[i];
  return true;
}

// Symbolic step of factorization step k: writes to reach_[top..m-1], in
// topological order, every row that L^{-1} a_col can make nonzero — the
// rows of column `col` and everything reachable from them through the
// columns of L built so far. Returns top.
int Core::Reach(int col) {
  int top = m_;
  ++row_stamp_;
  for (int p = col_start_[col]; p < col_start_[col + 1]; ++p) {
    if (row_mark_[col_row_[p]] == row_stamp_) continue;
    int head = 0;
    stack_[0] = col_row_[p];
    while (head >= 0) {
      const int i = stack_[head];
      const int step = pinv_[i];
      if (row_mark_[i] != row_stamp_) {
        row_mark_[i] = row_stamp_;
        resume_[head] = step < 0 ? 0 : l_start_[step];
      }
      const int end = step < 0 ? 0 : l_start_[step + 1];
      bool done = true;
      for (int q = resume_[head]; q < end; ++q) {
        const int child = l_index_[q];
        if (row_mark_[child] == row_stamp_) continue;
        resume_[head] = q + 1;
        stack_[++head] = child;
        done = false;
        break;
      }
      if (done) {
        --head;
        reach_[--top] = i;
      }
    }
  }
  return top;
}

void Core::Ftran(std::vector<double>& v) {
  double* x = work_.data();
  for (int k = 0; k < m_; ++k) x[k] = v[lu_row_[k]];
  for (int k = 0; k < m_; ++k) {
    const double xk = x[k];
    if (xk == 0.0) continue;
    for (int p = l_start_[k]; p < l_start_[k + 1]; ++p) {
      x[l_index_[p]] -= l_value_[p] * xk;
    }
  }
  for (int k = m_ - 1; k >= 0; --k) {
    if (x[k] == 0.0) continue;
    const double xk = x[k] / u_diag_[k];
    x[k] = xk;
    for (int p = u_start_[k]; p < u_start_[k + 1]; ++p) {
      x[u_index_[p]] -= u_value_[p] * xk;
    }
  }
  for (int k = 0; k < m_; ++k) v[lu_col_[k]] = x[k];
  // Each eta E = I + (w - e_r) e_r' contributes its inverse:
  // x_r /= w_r, then x_i -= w_i x_r elsewhere.
  for (size_t e = 0; e < eta_row_.size(); ++e) {
    const int r = eta_row_[e];
    if (v[r] == 0.0) continue;
    const double xr = v[r] / eta_pivot_[e];
    v[r] = xr;
    for (int p = eta_start_[e]; p < eta_start_[e + 1]; ++p) {
      v[eta_index_[p]] -= eta_value_[p] * xr;
    }
  }
}

void Core::Btran(std::vector<double>& v) {
  for (size_t e = eta_row_.size(); e-- > 0;) {
    // The eta dot products are the long ones; four partial sums break the
    // floating-point add chain.
    double s[4] = {v[eta_row_[e]], 0.0, 0.0, 0.0};
    int p = eta_start_[e];
    const int end = eta_start_[e + 1];
    for (; p + 4 <= end; p += 4) {
      for (int u = 0; u < 4; ++u) {
        s[u] -= eta_value_[p + u] * v[eta_index_[p + u]];
      }
    }
    for (; p < end; ++p) s[0] -= eta_value_[p] * v[eta_index_[p]];
    v[eta_row_[e]] = ((s[0] + s[1]) + (s[2] + s[3])) / eta_pivot_[e];
  }
  double* y = work_.data();
  for (int k = 0; k < m_; ++k) y[k] = v[lu_col_[k]];
  for (int k = 0; k < m_; ++k) {
    double s = y[k];
    for (int p = u_start_[k]; p < u_start_[k + 1]; ++p) {
      s -= u_value_[p] * y[u_index_[p]];
    }
    y[k] = s / u_diag_[k];
  }
  for (int k = m_ - 1; k >= 0; --k) {
    double s = y[k];
    for (int p = l_start_[k]; p < l_start_[k + 1]; ++p) {
      s -= l_value_[p] * y[l_index_[p]];
    }
    y[k] = s;
  }
  for (int k = 0; k < m_; ++k) v[lu_row_[k]] = y[k];
}

void Core::AppendEta(int r, const std::vector<double>& w) {
  eta_row_.push_back(r);
  eta_pivot_.push_back(w[r]);
  for (int i = 0; i < m_; ++i) {
    if (i != r && std::abs(w[i]) > kDropTol) {
      eta_index_.push_back(i);
      eta_value_.push_back(w[i]);
    }
  }
  eta_start_.push_back(static_cast<int>(eta_index_.size()));
}

void Core::ComputeBasicValues() {
  std::vector<double> r(rhs_);
  for (int j = 0; j < NumVars(); ++j) {
    if (status_[j] == VarStatus::kBasic || x_[j] == 0.0) continue;
    for (int p = col_start_[j]; p < col_start_[j + 1]; ++p) {
      r[col_row_[p]] -= col_value_[p] * x_[j];
    }
  }
  Ftran(r);
  for (int i = 0; i < m_; ++i) x_[basis_[i]] = r[i];
}

void Core::ComputeReducedCosts(const std::vector<double>& cost) {
  std::vector<double> pi(m_);
  for (int i = 0; i < m_; ++i) pi[i] = cost[basis_[i]];
  Btran(pi);
  d_.resize(NumVars());
  moves_.resize(NumVars());
  up_.resize(NumVars());
  down_.resize(NumVars());
  for (int j = 0; j < NumVars(); ++j) {
    SetMoves(j);
    double dj = 0.0;
    if (status_[j] != VarStatus::kBasic) {
      dj = cost[j];
      for (int p = col_start_[j]; p < col_start_[j + 1]; ++p) {
        dj -= pi[col_row_[p]] * col_value_[p];
      }
    }
    d_[j] = dj;
  }
}

std::vector<double> Core::PhaseTwoCost() const {
  const double sgn = model_.sense() == ObjectiveSense::kMinimize ? 1.0 : -1.0;
  std::vector<double> cost(NumVars(), 0.0);
  for (int j = 0; j < n_structural_; ++j) {
    cost[j] = sgn * model_.objective_coefficient(j);
  }
  return cost;
}

double Core::Direction(int j) const {
  if ((moves_[j] & 1) && d_[j] < -kOptimalityTol) return 1.0;
  if ((moves_[j] & 2) && d_[j] > kOptimalityTol) return -1.0;
  return 0.0;
}

void Core::SetMoves(int j) {
  const VarStatus s = status_[j];
  if (s == VarStatus::kBasic || lb_[j] == ub_[j]) {
    moves_[j] = 0;  // a fixed variable can never improve
  } else {
    moves_[j] = s == VarStatus::kAtLower ? 1 : s == VarStatus::kAtUpper ? 2 : 3;
  }
  up_[j] = (moves_[j] & 1) ? 1.0 : 0.0;
  down_[j] = (moves_[j] & 2) ? 1.0 : 0.0;
}

void Core::UpdateAndPrice(double theta, double devex_scale) {
  const int n = NumVars();
  double* d = d_.data();
  double* devex = devex_.data();
  double* alpha = alpha_.data();
  for (int j = 0; j < n; ++j) {
    const double a = alpha[j];
    alpha[j] = 0.0;
    d[j] -= theta * a;
    devex[j] = std::max(devex[j], a * a * devex_scale);
  }
  // Devex-weighted score d_j^2 / weight_j, which favors directions with a
  // small projected norm, or 0 for a column that is not eligible. Scores
  // are non-negative, and non-negative doubles order like their bit
  // patterns, so an integer max and a scan for its first holder pick the
  // lowest-index column of the largest score. A NaN score would order
  // above every number: it is stored as 0 and never enters.
  uint64_t* score = score_.data();
  for (int j = 0; j < n; ++j) {
    const double s = d[j] * d[j] / devex[j];
    score[j] = std::bit_cast<uint64_t>(
        (Direction(j) != 0.0 && s > 0.0) ? s : 0.0);
  }
  uint64_t best = 0;
  for (int j = 0; j < n; ++j) best = std::max(best, score[j]);
  devex_enter_ =
      best == 0 ? -1 : static_cast<int>(std::find(score, score + n, best) -
                                        score);
}

void Core::ComputeColumn(int q) {
  w_.assign(m_, 0.0);
  for (int p = col_start_[q]; p < col_start_[q + 1]; ++p) {
    w_[col_row_[p]] += col_value_[p];
  }
  Ftran(w_);
}

void Core::ComputePivotRow(int r) {
  rho_.assign(m_, 0.0);
  rho_[r] = 1.0;
  Btran(rho_);
  for (int i = 0; i < m_; ++i) {
    const double ri = rho_[i];
    if (ri == 0.0) continue;
    for (int p = row_start_[i]; p < row_start_[i + 1]; ++p) {
      alpha_[row_col_[p]] += ri * row_value_[p];
    }
  }
}

void Core::CheckPivot(int q, double pivot) {
  inaccurate_ = std::abs(alpha_[q] - pivot) > 1e-9 * (1.0 + std::abs(pivot));
}

void Core::MoveAlongColumn(int q, double t) {
  for (int i = 0; i < m_; ++i) {
    if (w_[i] != 0.0) x_[basis_[i]] -= t * w_[i];
  }
  x_[q] += t;
}

double Core::Objective(const std::vector<double>& cost) const {
  double obj = 0.0;
  for (int j = 0; j < NumVars(); ++j) obj += cost[j] * x_[j];
  return obj;
}

Core::StepResult Core::Iterate(bool bland, double* objective_delta) {
  int enter = devex_enter_;
  if (bland) {
    // Bland's rule: the lowest-index eligible column.
    enter = -1;
    for (int j = 0; j < NumVars() && enter < 0; ++j) {
      if (Direction(j) != 0.0) enter = j;
    }
  }
  if (enter < 0) return StepResult::kOptimal;
  const double enter_dir = Direction(enter);

  ComputeColumn(enter);

  // --- Ratio test. ---
  // Entering moves by t >= 0 in direction enter_dir; basic i changes by
  // -enter_dir * t * w_i.
  double t_best = kInfinity;
  int leave_row = -1;
  double leave_bound = 0.0;
  VarStatus leave_status = VarStatus::kAtLower;
  double best_pivot_mag = 0.0;
  for (int i = 0; i < m_; ++i) {
    const double dw = enter_dir * w_[i];
    if (std::abs(dw) <= kPivotTol) continue;
    const int bj = basis_[i];
    double bound;
    VarStatus new_status;
    if (dw > 0.0) {  // basic value decreases toward its lower bound
      bound = lb_[bj];
      new_status = VarStatus::kAtLower;
      if (!std::isfinite(bound)) continue;
    } else {  // increases toward its upper bound
      bound = ub_[bj];
      new_status = VarStatus::kAtUpper;
      if (!std::isfinite(bound)) continue;
    }
    double t = (x_[bj] - bound) / dw;
    if (t < 0.0) t = 0.0;  // tiny infeasibility from roundoff
    const bool better =
        t < t_best - 1e-10 ||
        (t < t_best + 1e-10 &&
         (bland ? bj < (leave_row >= 0 ? basis_[leave_row] : NumVars())
                : std::abs(w_[i]) > best_pivot_mag));
    if (better) {
      t_best = t;
      leave_row = i;
      leave_bound = bound;
      leave_status = new_status;
      best_pivot_mag = std::abs(w_[i]);
    }
  }
  const double d_enter = d_[enter];
  // Bound flip of the entering variable itself.
  const double own_range = ub_[enter] - lb_[enter];
  if (std::isfinite(own_range) && own_range <= t_best) {
    // Flip: entering moves to its opposite bound; no basis change.
    const double t = own_range;
    MoveAlongColumn(enter, enter_dir * t);
    status_[enter] = status_[enter] == VarStatus::kAtLower
                         ? VarStatus::kAtUpper
                         : VarStatus::kAtLower;
    SetMoves(enter);
    UpdateAndPrice(0.0, 0.0);
    *objective_delta = d_enter * enter_dir * t;
    return StepResult::kContinue;
  }
  if (leave_row < 0) return StepResult::kUnbounded;
  const double pivot = w_[leave_row];
  if (std::abs(pivot) < kPivotTol) return StepResult::kSingular;

  ComputePivotRow(leave_row);
  CheckPivot(enter, pivot);

  // --- Basis change and primal values. ---
  MoveAlongColumn(enter, enter_dir * t_best);
  const int leaving = basis_[leave_row];
  x_[leaving] = leave_bound;
  status_[leaving] = leave_status;
  basis_[leave_row] = enter;
  status_[enter] = VarStatus::kBasic;
  SetMoves(leaving);
  SetMoves(enter);
  *objective_delta = d_enter * enter_dir * t_best;

  // --- Reduced costs and Devex weights along the pivot row. ---
  // d_j -= theta alpha_j zeroes d_enter and takes the leaving variable
  // (alpha 1) to -theta; that one, with its weight, is set directly.
  const double theta = d_enter / pivot;
  const double gamma_q = std::max(devex_[enter], 1.0);
  const double inv_p2 = 1.0 / (pivot * pivot);
  d_[leaving] = -theta;
  alpha_[leaving] = 0.0;
  devex_[leaving] = std::max(gamma_q * inv_p2, 1.0);
  if (devex_[leaving] > 1e12) {
    // Runaway weight growth: restart the reference framework.
    ResetDevex();
    UpdateAndPrice(theta, 0.0);
  } else {
    UpdateAndPrice(theta, gamma_q * inv_p2);
  }

  AppendEta(leave_row, w_);
  return StepResult::kContinue;
}

SolveStatus Core::Optimize(const std::vector<double>& cost) {
  ComputeReducedCosts(cost);
  UpdateAndPrice(0.0, 0.0);
  int degenerate = 0;
  bool bland = false;
  while (true) {
    if (iterations_ >= kMaxIterations) {
      return SolveStatus::kIterationLimit;
    }
    if ((iterations_ & 63) == 0 &&
        stopwatch_.ElapsedSeconds() > options_.time_limit_seconds) {
      return SolveStatus::kTimeLimit;
    }
    if (inaccurate_ ||
        static_cast<int>(eta_row_.size()) >= refactor_pivots_) {
      if (!Refactorize()) return SolveStatus::kNumericalError;
      ComputeReducedCosts(cost);
      UpdateAndPrice(0.0, 0.0);
    }
    double objective_delta = 0.0;
    const StepResult sr = Iterate(bland, &objective_delta);
    ++iterations_;
    switch (sr) {
      case StepResult::kOptimal:
        // The updated reduced costs say optimal. Confirm it on fresh ones
        // from a new factorization, which also cleans the final values.
        if (!Refactorize()) return SolveStatus::kNumericalError;
        ComputeReducedCosts(cost);
        UpdateAndPrice(0.0, 0.0);
        if (devex_enter_ < 0) return SolveStatus::kOptimal;
        break;
      case StepResult::kUnbounded:
        return SolveStatus::kUnbounded;
      case StepResult::kSingular:
        return SolveStatus::kNumericalError;
      case StepResult::kContinue:
        // Track objective stalls for anti-cycling.
        degenerate = objective_delta >= -1e-12 ? degenerate + 1 : 0;
        if (degenerate > kDegenerateLimit) bland = true;
        break;
    }
  }
}

SolveStatus Core::DualOptimize(const std::vector<double>& cost) {
  ComputeReducedCosts(cost);
  dual_devex_.assign(m_, 1.0);
  const int cap = iterations_ + kDualPivotsPerRow * m_;
  while (true) {
    if (iterations_ >= kMaxIterations) {
      return SolveStatus::kIterationLimit;
    }
    if ((iterations_ & 63) == 0 &&
        stopwatch_.ElapsedSeconds() > options_.time_limit_seconds) {
      return SolveStatus::kTimeLimit;
    }
    if (iterations_ >= cap) return SolveStatus::kNumericalError;
    if (inaccurate_ ||
        static_cast<int>(eta_row_.size()) >= refactor_pivots_) {
      if (!Refactorize()) return SolveStatus::kNumericalError;
      ComputeReducedCosts(cost);
    }
    switch (DualIterate()) {
      case StepResult::kOptimal:
        // The updated values are within bounds. Confirm it on fresh ones.
        if (eta_row_.empty()) return SolveStatus::kOptimal;
        if (!Refactorize()) return SolveStatus::kNumericalError;
        ComputeReducedCosts(cost);
        break;
      case StepResult::kUnbounded:
      case StepResult::kSingular:
        return SolveStatus::kNumericalError;
      case StepResult::kContinue:
        ++iterations_;
        ++dual_iterations_;
        break;
    }
  }
}

Core::StepResult Core::DualIterate() {
  // --- Leaving row: the largest infeasibility^2 over its dual Devex
  // weight, ties to the lowest row. ---
  int leave_row = -1;
  double best = 0.0;
  for (int i = 0; i < m_; ++i) {
    const int j = basis_[i];
    const double infeasibility = std::max(lb_[j] - x_[j], x_[j] - ub_[j]);
    if (infeasibility <= kPrimalTol) continue;
    const double score = infeasibility * infeasibility / dual_devex_[i];
    if (score > best) {
      best = score;
      leave_row = i;
    }
  }
  if (leave_row < 0) return StepResult::kOptimal;
  const int leaving = basis_[leave_row];
  const bool to_lower = x_[leaving] < lb_[leaving];
  const double leave_bound = to_lower ? lb_[leaving] : ub_[leaving];

  ComputePivotRow(leave_row);
  const double sign = to_lower ? -1.0 : 1.0;
  const int enter = DualRatioTest(sign);
  // No column can enter: the dual is unbounded, so the LP is infeasible.
  // The cold retry's phase 1 reports that with its own tolerances.
  if (enter < 0) return StepResult::kUnbounded;

  ComputeColumn(enter);
  const double pivot = w_[leave_row];
  if (std::abs(pivot) < kPivotTol) return StepResult::kSingular;
  CheckPivot(enter, pivot);

  // --- Primal values: the leaving variable lands on its bound. ---
  MoveAlongColumn(enter, (x_[leaving] - leave_bound) / pivot);
  x_[leaving] = leave_bound;

  // --- Reduced costs: d_j -= theta_d alpha_j zeroes d_enter, and the
  // leaving variable (alpha 1) gets -theta_d, of the sign its bound needs.
  // A Harris step may pick a column whose reduced cost is a hair on the
  // wrong side of zero; the step is then 0, not backwards. ---
  const double step =
      std::max(sign * d_[enter] / alpha_[enter], 0.0);  // >= 0 by sign
  const double theta_d = sign * step;
  double* d = d_.data();
  double* alpha = alpha_.data();
  for (int j = 0; j < NumVars(); ++j) {
    d[j] -= theta_d * alpha[j];
    alpha[j] = 0.0;
  }
  d_[enter] = 0.0;
  d_[leaving] = -theta_d;

  // --- Dual Devex weights (Forrest-Goldfarb, by rows). ---
  const double weight_r = dual_devex_[leave_row];
  for (int i = 0; i < m_; ++i) {
    const double ratio = w_[i] / pivot;
    dual_devex_[i] = std::max(dual_devex_[i], ratio * ratio * weight_r);
  }
  dual_devex_[leave_row] = std::max(weight_r / (pivot * pivot), 1.0);
  if (dual_devex_[leave_row] > 1e12) dual_devex_.assign(m_, 1.0);

  // --- Basis change. ---
  basis_[leave_row] = enter;
  status_[enter] = VarStatus::kBasic;
  status_[leaving] = to_lower ? VarStatus::kAtLower : VarStatus::kAtUpper;
  SetMoves(leaving);
  SetMoves(enter);
  AppendEta(leave_row, w_);
  return StepResult::kContinue;
}

int Core::DualRatioTest(double sign) {
  // Column j may enter if moving it off its bound in its allowed direction
  // pushes the leaving variable toward the bound it violates: a_j = sign *
  // alpha_j positive for a column that may increase, negative for one that
  // may decrease. Its reduced cost then reaches zero after a dual step of
  // |d_j| / |a_j|. Both passes are branch-free over doubles.
  const int n = NumVars();
  const double* d = d_.data();
  const double* alpha = alpha_.data();
  const double* up = up_.data();
  const double* down = down_.data();
  uint64_t* key = score_.data();
  // Pass 1: the largest step that keeps every reduced cost within the
  // tolerance of its sign. Ratios are non-negative, so they order like
  // their bit patterns.
  for (int j = 0; j < n; ++j) {
    const double a = sign * alpha[j];
    const double ok =
        a > kPivotTol ? up[j] : (a < -kPivotTol ? down[j] : 0.0);
    const double slack = std::max((a > 0.0 ? d[j] : -d[j]) + kOptimalityTol,
                                  0.0);
    key[j] = std::bit_cast<uint64_t>(ok != 0.0 ? slack / std::abs(a)
                                               : kInfinity);
  }
  uint64_t min_key = std::bit_cast<uint64_t>(kInfinity);
  for (int j = 0; j < n; ++j) min_key = std::min(min_key, key[j]);
  if (min_key == std::bit_cast<uint64_t>(kInfinity)) return -1;
  const double bound = std::bit_cast<double>(min_key);
  // Pass 2: among the columns whose own step is within that bound, the
  // largest |a_j|, for the most stable pivot; ties to the lowest index.
  for (int j = 0; j < n; ++j) {
    const double a = sign * alpha[j];
    const double ok =
        a > kPivotTol ? up[j] : (a < -kPivotTol ? down[j] : 0.0);
    const double mag = std::abs(a);
    const double ratio_num = a > 0.0 ? d[j] : -d[j];
    key[j] = std::bit_cast<uint64_t>(
        (ok != 0.0 && ratio_num <= bound * mag) ? mag : 0.0);
  }
  uint64_t max_key = 0;
  for (int j = 0; j < n; ++j) max_key = std::max(max_key, key[j]);
  if (max_key == 0) return -1;
  return static_cast<int>(std::find(key, key + n, max_key) - key);
}

LpSolution Core::Run(const Basis* warm, Basis* out_basis) {
  LpSolution result;
  const int n = model_.num_variables();

  if (m_ > options_.max_basis_rows) {
    result.status = SolveStatus::kTooLarge;
    return result;
  }

  BuildColumns();

  // Trivial case: no constraints — each variable sits at its best bound.
  if (m_ == 0) {
    result.x.assign(n, 0.0);
    const double sgn =
        model_.sense() == ObjectiveSense::kMinimize ? 1.0 : -1.0;
    for (int j = 0; j < n; ++j) {
      const double c = sgn * model_.objective_coefficient(j);
      double v;
      if (c > 0.0) {
        v = lb_[j];
      } else if (c < 0.0) {
        v = ub_[j];
      } else {
        v = InitialValue(lb_[j], ub_[j]);
      }
      if (!std::isfinite(v)) {
        result.status = SolveStatus::kUnbounded;
        return result;
      }
      result.x[j] = v;
      result.objective += model_.objective_coefficient(j) * v;
    }
    result.status = SolveStatus::kOptimal;
    return result;
  }

  const WarmStart start = warm != nullptr && !warm->empty()
                              ? TryWarmStart(*warm)
                              : WarmStart::kCold;
  if (start == WarmStart::kCold) ColdStart();
  BuildRowCopy();
  alpha_.assign(NumVars(), 0.0);
  score_.resize(NumVars());
  ResetDevex();

  const auto finish = [&](SolveStatus status) -> LpSolution& {
    result.status = status;
    result.iterations = iterations_;
    result.dual_iterations = dual_iterations_;
    result.solve_seconds = stopwatch_.ElapsedSeconds();
    result.refactorizations = refactorizations_;
    result.refactor_seconds = refactor_seconds_;
    return result;
  };

  // Phase 1 (only when artificials exist): minimize their sum.
  if (NumVars() > n_slack_end_) {
    std::vector<double> cost1(NumVars(), 0.0);
    for (int j = n_slack_end_; j < NumVars(); ++j) cost1[j] = 1.0;
    SolveStatus status = Optimize(cost1);
    // The phase 1 objective is bounded below by zero, so an unbounded ray
    // is numerical trouble.
    if (status == SolveStatus::kUnbounded) {
      status = SolveStatus::kNumericalError;
    }
    if (status != SolveStatus::kOptimal) return finish(status);
    if (Objective(cost1) > 1e-6) return finish(SolveStatus::kInfeasible);
    // Freeze artificials at zero so they never re-enter.
    for (int j = n_slack_end_; j < NumVars(); ++j) {
      lb_[j] = 0.0;
      ub_[j] = 0.0;
      if (status_[j] != VarStatus::kBasic) {
        status_[j] = VarStatus::kAtLower;
        x_[j] = 0.0;
      }
    }
  }

  // Phase 2: true objective (internally always minimize). A dual feasible
  // warm basis first runs the dual phase to a feasible one; the primal
  // phase then confirms optimality on fresh reduced costs.
  const std::vector<double> cost2 = PhaseTwoCost();
  if (start == WarmStart::kDual) {
    const SolveStatus status = DualOptimize(cost2);
    if (status != SolveStatus::kOptimal) return finish(status);
  }
  finish(Optimize(cost2));
  result.x.assign(x_.begin(), x_.begin() + n);
  result.objective = 0.0;
  for (int j = 0; j < n; ++j) {
    result.objective += model_.objective_coefficient(j) * x_[j];
  }
  if (result.status == SolveStatus::kOptimal) {
    // Duals with respect to the model's own objective coefficients.
    result.duals.assign(m_, 0.0);
    for (int i = 0; i < m_; ++i) {
      if (basis_[i] < n) {
        result.duals[i] = model_.objective_coefficient(basis_[i]);
      }
    }
    Btran(result.duals);
    if (out_basis != nullptr) {
      out_basis->basic = basis_;
      out_basis->status.assign(status_.begin(),
                               status_.begin() + n_slack_end_);
    }
  }
  return result;
}

}  // namespace

LpSolution RevisedSimplex::Solve(const Model& model,
                                 const SolverOptions& options,
                                 const Basis* warm, Basis* out_basis) {
  LpSolution first;
  {
    Core core(model, options, kRefactorPivots);
    first = core.Run(warm, out_basis);
    if (first.status != SolveStatus::kNumericalError) return first;
  }
  // Numerical trouble (e.g. a drifted basis turned singular) or a warm
  // basis the dual phase could not take to a feasible one: retry once from
  // a cold start with more frequent refactorization. The result counts the
  // work of both attempts.
  SolverOptions retry_options = options;
  retry_options.time_limit_seconds -= first.solve_seconds;
  Core core(model, retry_options, kRetryRefactorPivots);
  LpSolution result = core.Run(nullptr, out_basis);
  result.iterations += first.iterations;
  result.dual_iterations += first.dual_iterations;
  result.solve_seconds += first.solve_seconds;
  result.refactorizations += first.refactorizations;
  result.refactor_seconds += first.refactor_seconds;
  return result;
}

}  // namespace geopriv::lp
