#include "lp/interior_point.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "base/stopwatch.h"

namespace geopriv::lp {

namespace {

// Convergence: mean complementarity below kOptimalityTol and both residuals
// below kFeasibilityTol, relative to the right-hand side's magnitude.
constexpr double kOptimalityTol = 1e-8;
constexpr double kFeasibilityTol = 1e-8;
// Iterations before a solve gives up with kIterationLimit.
constexpr int kMaxIterations = 200;

// Standard-form program: min c'x s.t. Ax = b, x >= 0, derived from a Model
// by shifting/negating/splitting variables and adding slacks. `recover`
// describes how to map standard-form values back to model variables.
struct StandardForm {
  int num_rows = 0;
  int num_cols = 0;
  std::vector<double> c;
  std::vector<double> b;
  // Sparse columns of A.
  std::vector<std::vector<std::pair<int, double>>> cols;
  // For model variable j: x_model = shift + sign * x_std[pos] (+ optionally
  // -x_std[neg_pos] when split).
  struct VarMap {
    double shift = 0.0;
    double sign = 1.0;
    int pos = -1;
    int neg_pos = -1;  // second half of a split free variable
  };
  std::vector<VarMap> var_map;
  double objective_shift = 0.0;
};

StandardForm BuildStandardForm(const Model& model) {
  StandardForm sf;
  const int n = model.num_variables();
  const int m = model.num_constraints();
  const double sgn =
      model.sense() == ObjectiveSense::kMinimize ? 1.0 : -1.0;
  sf.num_rows = m;
  sf.b.assign(m, 0.0);
  for (int i = 0; i < m; ++i) sf.b[i] = model.rhs(i);
  sf.var_map.resize(n);

  auto add_col = [&sf](double cost) {
    sf.c.push_back(cost);
    sf.cols.emplace_back();
    return static_cast<int>(sf.cols.size()) - 1;
  };

  // Map model variables into nonnegative standard-form columns.
  std::vector<int> extra_ub_row;  // deferred [lb,ub] box rows
  for (int j = 0; j < n; ++j) {
    const double lb = model.lower_bound(j);
    const double ub = model.upper_bound(j);
    const double cj = sgn * model.objective_coefficient(j);
    StandardForm::VarMap& vm = sf.var_map[j];
    if (std::isfinite(lb)) {
      // x = lb + x', x' >= 0 (a finite ub adds a box row below).
      vm.shift = lb;
      vm.sign = 1.0;
      vm.pos = add_col(cj);
      sf.objective_shift += cj * lb;
    } else if (std::isfinite(ub)) {
      // x = ub - x', x' >= 0.
      vm.shift = ub;
      vm.sign = -1.0;
      vm.pos = add_col(-cj);
      sf.objective_shift += cj * ub;
    } else {
      // Free: x = x+ - x-.
      vm.pos = add_col(cj);
      vm.neg_pos = add_col(-cj);
    }
  }
  // Substitute variables into rows.
  for (int i = 0; i < m; ++i) {
    for (const Coefficient& t : model.row(i)) {
      const StandardForm::VarMap& vm = sf.var_map[t.var];
      sf.b[i] -= t.value * vm.shift;
      sf.cols[vm.pos].push_back({i, t.value * vm.sign});
      if (vm.neg_pos >= 0) sf.cols[vm.neg_pos].push_back({i, -t.value});
    }
    // Row slacks.
    switch (model.constraint_sense(i)) {
      case ConstraintSense::kLessEqual:
        sf.cols[add_col(0.0)].push_back({i, 1.0});
        break;
      case ConstraintSense::kGreaterEqual:
        sf.cols[add_col(0.0)].push_back({i, -1.0});
        break;
      case ConstraintSense::kEqual:
        break;
    }
  }
  // Box rows for double-bounded variables: x' + s = ub - lb.
  for (int j = 0; j < n; ++j) {
    const double lb = model.lower_bound(j);
    const double ub = model.upper_bound(j);
    if (std::isfinite(lb) && std::isfinite(ub) && ub > lb) {
      const int row = sf.num_rows++;
      sf.b.push_back(ub - lb);
      sf.cols[sf.var_map[j].pos].push_back({row, 1.0});
      sf.cols[add_col(0.0)].push_back({row, 1.0});
    } else if (std::isfinite(lb) && std::isfinite(ub) && ub == lb) {
      // Fixed variable: x' = 0 enforced by a degenerate box row.
      const int row = sf.num_rows++;
      sf.b.push_back(0.0);
      sf.cols[sf.var_map[j].pos].push_back({row, 1.0});
      sf.cols[add_col(0.0)].push_back({row, 1.0});
    }
  }
  sf.num_cols = static_cast<int>(sf.cols.size());
  return sf;
}

// Dense Cholesky factorization (in place, lower triangle). Returns false on
// a non-positive pivot.
bool Cholesky(std::vector<double>& a, int n) {
  for (int k = 0; k < n; ++k) {
    double d = a[static_cast<size_t>(k) * n + k];
    for (int j = 0; j < k; ++j) {
      const double v = a[static_cast<size_t>(k) * n + j];
      d -= v * v;
    }
    if (d < 1e-30) return false;
    const double dk = std::sqrt(d);
    a[static_cast<size_t>(k) * n + k] = dk;
    for (int i = k + 1; i < n; ++i) {
      double v = a[static_cast<size_t>(i) * n + k];
      const double* ri = &a[static_cast<size_t>(i) * n];
      const double* rk = &a[static_cast<size_t>(k) * n];
      for (int j = 0; j < k; ++j) v -= ri[j] * rk[j];
      a[static_cast<size_t>(i) * n + k] = v / dk;
    }
  }
  return true;
}

void CholeskySolve(const std::vector<double>& l, int n,
                   std::vector<double>& rhs) {
  for (int i = 0; i < n; ++i) {
    double v = rhs[i];
    const double* row = &l[static_cast<size_t>(i) * n];
    for (int j = 0; j < i; ++j) v -= row[j] * rhs[j];
    rhs[i] = v / row[i];
  }
  for (int i = n - 1; i >= 0; --i) {
    double v = rhs[i];
    for (int j = i + 1; j < n; ++j) {
      v -= l[static_cast<size_t>(j) * n + i] * rhs[j];
    }
    rhs[i] = v / l[static_cast<size_t>(i) * n + i];
  }
}

}  // namespace

LpSolution InteriorPoint::Solve(const Model& model,
                                const SolverOptions& options) {
  LpSolution result;
  Stopwatch stopwatch;
  const StandardForm sf = BuildStandardForm(model);
  const int m = sf.num_rows;
  const int n = sf.num_cols;
  if (n == 0 || m == 0) {
    // Degenerate instances are handled exactly by the simplex path; the
    // interior point requires a nonempty interior.
    result.status = SolveStatus::kNumericalError;
    return result;
  }

  std::vector<double> x(n, 1.0), s(n, 1.0), y(m, 0.0);
  // Scale the start to the data magnitude for faster convergence.
  double scale = 1.0;
  for (int i = 0; i < m; ++i) scale = std::max(scale, std::abs(sf.b[i]));
  for (double& v : x) v = scale;
  for (double& v : s) v = scale;

  std::vector<double> rb(m), rc(n), dx(n), ds(n), dy(m);
  std::vector<double> dx_aff(n), ds_aff(n), dy_aff(m);
  std::vector<double> normal(static_cast<size_t>(m) * m);
  std::vector<double> rhs(m), tmp_col(n);

  auto mat_vec = [&](const std::vector<double>& v, std::vector<double>& out) {
    std::fill(out.begin(), out.end(), 0.0);
    for (int j = 0; j < n; ++j) {
      if (v[j] == 0.0) continue;
      for (const auto& [row, val] : sf.cols[j]) out[row] += val * v[j];
    }
  };
  auto mat_t_vec = [&](const std::vector<double>& v,
                       std::vector<double>& out) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (const auto& [row, val] : sf.cols[j]) acc += val * v[row];
      out[j] = acc;
    }
  };

  // Solves the Newton system for a given complementarity right-hand side
  // rxs (the desired value of X ds + S dx):
  //   A dx = -rb,  A'dy + ds = -rc,  S dx + X ds = rxs.
  auto newton = [&](const std::vector<double>& rxs, std::vector<double>& odx,
                    std::vector<double>& ody,
                    std::vector<double>& ods) -> bool {
    // From A dx = -rb, A'dy + ds = -rc, S dx + X ds = rxs:
    //   dx = rxs/s + D rc + D A' dy  with D = x/s, so the normal equations
    //   are (A D A') dy = -rb - A (D rc + rxs/s)... careful with signs:
    //   A dx = A(rxs/s) + A D rc + (A D A') dy = -rb
    //   => (A D A') dy = -rb - A (rxs/s) - A D rc.
    std::fill(normal.begin(), normal.end(), 0.0);
    for (int j = 0; j < n; ++j) {
      const double d = x[j] / s[j];
      const auto& col = sf.cols[j];
      for (size_t a = 0; a < col.size(); ++a) {
        const double va = d * col[a].second;
        for (size_t bcol = 0; bcol < col.size(); ++bcol) {
          normal[static_cast<size_t>(col[a].first) * m + col[bcol].first] +=
              va * col[bcol].second;
        }
      }
    }
    // Tiny diagonal regularization for numerical safety.
    for (int i = 0; i < m; ++i) {
      normal[static_cast<size_t>(i) * m + i] += 1e-12;
    }
    for (int j = 0; j < n; ++j) {
      tmp_col[j] = (x[j] / s[j]) * (-rc[j]) - rxs[j] / s[j];
    }
    mat_vec(tmp_col, rhs);
    for (int i = 0; i < m; ++i) rhs[i] = -rb[i] + rhs[i];
    if (!Cholesky(normal, m)) return false;
    CholeskySolve(normal, m, rhs);
    ody = rhs;
    mat_t_vec(ody, ods);
    for (int j = 0; j < n; ++j) {
      ods[j] = -rc[j] - ods[j];
      odx[j] = (rxs[j] - x[j] * ods[j]) / s[j];
    }
    return true;
  };

  for (int iter = 0; iter < kMaxIterations; ++iter) {
    if (stopwatch.ElapsedSeconds() > options.time_limit_seconds) {
      result.status = SolveStatus::kTimeLimit;
      result.iterations = iter;
      result.solve_seconds = stopwatch.ElapsedSeconds();
      return result;
    }
    // Residuals.
    mat_vec(x, rb);
    for (int i = 0; i < m; ++i) rb[i] -= sf.b[i];
    mat_t_vec(y, rc);
    for (int j = 0; j < n; ++j) rc[j] = rc[j] + s[j] - sf.c[j];
    double mu = 0.0;
    for (int j = 0; j < n; ++j) mu += x[j] * s[j];
    mu /= n;
    double rb_norm = 0.0, rc_norm = 0.0;
    for (double v : rb) rb_norm = std::max(rb_norm, std::abs(v));
    for (double v : rc) rc_norm = std::max(rc_norm, std::abs(v));
    const double feas_scale = 1.0 + scale;
    if (mu < kOptimalityTol && rb_norm < kFeasibilityTol * feas_scale &&
        rc_norm < kFeasibilityTol * feas_scale) {
      result.status = SolveStatus::kOptimal;
      result.iterations = iter;
      break;
    }
    // Divergence heuristics: iterates exploding indicates an infeasible or
    // unbounded instance.
    double x_norm = 0.0;
    for (double v : x) x_norm = std::max(x_norm, v);
    if (x_norm > 1e14 || mu > 1e18) {
      result.status = rb_norm > kFeasibilityTol * feas_scale
                          ? SolveStatus::kInfeasible
                          : SolveStatus::kUnbounded;
      result.iterations = iter;
      result.solve_seconds = stopwatch.ElapsedSeconds();
      return result;
    }

    // Predictor (affine) direction.
    std::vector<double> rxs(n);
    for (int j = 0; j < n; ++j) rxs[j] = -x[j] * s[j];
    if (!newton(rxs, dx_aff, dy_aff, ds_aff)) {
      result.status = SolveStatus::kNumericalError;
      result.iterations = iter;
      result.solve_seconds = stopwatch.ElapsedSeconds();
      return result;
    }
    auto max_step = [&](const std::vector<double>& v,
                        const std::vector<double>& dv) {
      double a = 1.0;
      for (int j = 0; j < n; ++j) {
        if (dv[j] < 0.0) a = std::min(a, -v[j] / dv[j]);
      }
      return a;
    };
    const double ap_aff = max_step(x, dx_aff);
    const double ad_aff = max_step(s, ds_aff);
    double mu_aff = 0.0;
    for (int j = 0; j < n; ++j) {
      mu_aff += (x[j] + ap_aff * dx_aff[j]) * (s[j] + ad_aff * ds_aff[j]);
    }
    mu_aff /= n;
    const double sigma = std::pow(mu_aff / mu, 3.0);

    // Corrector.
    for (int j = 0; j < n; ++j) {
      rxs[j] = -x[j] * s[j] - dx_aff[j] * ds_aff[j] + sigma * mu;
    }
    if (!newton(rxs, dx, dy, ds)) {
      result.status = SolveStatus::kNumericalError;
      result.iterations = iter;
      result.solve_seconds = stopwatch.ElapsedSeconds();
      return result;
    }
    const double ap = std::min(1.0, 0.99995 * max_step(x, dx));
    const double ad = std::min(1.0, 0.99995 * max_step(s, ds));
    for (int j = 0; j < n; ++j) {
      x[j] += ap * dx[j];
      s[j] += ad * ds[j];
    }
    for (int i = 0; i < m; ++i) y[i] += ad * dy[i];
    result.iterations = iter + 1;
  }
  if (result.status != SolveStatus::kOptimal) {
    result.status = result.iterations >= kMaxIterations
                        ? SolveStatus::kIterationLimit
                        : result.status;
  }

  // Recover model-space solution.
  const int nv = model.num_variables();
  result.x.assign(nv, 0.0);
  for (int j = 0; j < nv; ++j) {
    const StandardForm::VarMap& vm = sf.var_map[j];
    double v = vm.shift + vm.sign * x[vm.pos];
    if (vm.neg_pos >= 0) v -= x[vm.neg_pos];
    result.x[j] = v;
  }
  result.objective = 0.0;
  for (int j = 0; j < nv; ++j) {
    result.objective += model.objective_coefficient(j) * result.x[j];
  }
  result.solve_seconds = stopwatch.ElapsedSeconds();
  return result;
}

}  // namespace geopriv::lp
