#include "mechanisms/optimal.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "base/check.h"
#include "base/stopwatch.h"
#include "lp/interior_point.h"
#include "lp/model.h"
#include "lp/revised_simplex.h"

namespace geopriv::mechanisms {

namespace {

// Maximum candidate count for the explicit n^3-row primal formulations.
constexpr int kMaxFullSolveLocations = 14;

// Column-generation rounds before giving up with kResourceExhausted.
constexpr int kMaxRounds = 1000;

// Nearest neighbors per location whose GeoInd constraints seed the dual
// before the first solve. Each seeded column widens every pivot's pricing
// scan, update sweep and pivot-row scatter, while one left out may cost a
// warm-started generation round of a few dozen pivots. DESIGN.md §6 has
// the measured trade-off.
constexpr int kSeedNearestNeighbors = 4;
// Seeding ranks neighbors by their distance rounded to this grid, in the
// coordinates' unit (km). Translated copies of one candidate set compute
// their distances from centers that round differently in the last bits;
// on the grid those distances are equal, and ties go to the lower index.
constexpr double kSeedDistanceGrid = 1e-6;

Status MapSolverFailure(lp::SolveStatus status) {
  switch (status) {
    case lp::SolveStatus::kTimeLimit:
      return Status::DeadlineExceeded("LP solver hit its time limit");
    case lp::SolveStatus::kIterationLimit:
      return Status::ResourceExhausted("LP solver hit its iteration limit");
    case lp::SolveStatus::kTooLarge:
      return Status::ResourceExhausted(
          "instance exceeds the solver's basis row cap (max_basis_rows)");
    default:
      return Status::Internal("LP solver failed: " +
                              lp::SolveStatusToString(status));
  }
}

}  // namespace

StatusOr<OptimalMechanism> OptimalMechanism::Create(
    double eps, std::vector<geo::Point> locations, std::vector<double> prior,
    geo::UtilityMetric metric, const OptimalMechanismOptions& options,
    const OptTemplate* start, OptTemplate* first_round) {
  if (!(eps > 0.0)) {
    return Status::InvalidArgument("eps must be positive");
  }
  if (locations.empty()) {
    return Status::InvalidArgument("need at least one candidate location");
  }
  if (prior.size() != locations.size()) {
    return Status::InvalidArgument("prior size must match locations");
  }
  double total = 0.0;
  for (double p : prior) {
    if (!(p >= 0.0) || !std::isfinite(p)) {
      return Status::InvalidArgument("prior masses must be finite and >= 0");
    }
    total += p;
  }
  if (!(total > 0.0)) {
    return Status::InvalidArgument("prior must have positive total mass");
  }
  for (double& p : prior) p /= total;

  OptimalMechanism mech(eps, std::move(locations), std::move(prior), metric);
  const int n = mech.num_locations();
  mech.row_samplers_.resize(n);
  if (n == 1) {
    mech.k_owned_ = {1.0};
    mech.k_ = mech.k_owned_;
    mech.stats_.objective = 0.0;
    mech.BuildRowSamplers();
    return mech;
  }
  Status solve_status;
  switch (options.algorithm) {
    case OptAlgorithm::kColumnGeneration:
      solve_status = mech.SolveColumnGeneration(options, start, first_round);
      break;
    case OptAlgorithm::kFullPrimalSimplex:
    case OptAlgorithm::kFullInteriorPoint:
      solve_status = mech.SolveFullPrimal(options);
      break;
  }
  GEOPRIV_RETURN_IF_ERROR(solve_status);
  mech.BuildRowSamplers();
  return mech;
}

StatusOr<OptimalMechanism> OptimalMechanism::FromSolved(
    SolvedMechanismTables tables, std::shared_ptr<const void> backing) {
  if (!(tables.eps > 0.0)) {
    return Status::InvalidArgument("solved tables: eps must be positive");
  }
  if (tables.locations.empty()) {
    return Status::InvalidArgument("solved tables: no candidate locations");
  }
  const size_t n = tables.locations.size();
  const size_t nn = n * n;
  if (tables.prior.size() != n) {
    return Status::InvalidArgument("solved tables: prior size mismatch");
  }
  if (tables.k.size() != nn || tables.alias_prob.size() != nn ||
      tables.alias_alias.size() != nn ||
      tables.alias_normalized.size() != nn) {
    return Status::InvalidArgument(
        "solved tables: matrix/alias table sizes do not match n^2");
  }
  OptimalMechanism mech(tables.eps, std::move(tables.locations),
                        std::move(tables.prior), tables.metric);
  mech.k_ = tables.k;
  mech.backing_ = std::move(backing);
  mech.stats_.objective = tables.objective;
  mech.row_samplers_.resize(n);
  for (size_t x = 0; x < n; ++x) {
    mech.row_samplers_[x] = rng::AliasSampler::FromTables(
        tables.alias_prob.subspan(x * n, n),
        tables.alias_alias.subspan(x * n, n),
        tables.alias_normalized.subspan(x * n, n));
  }
  return mech;
}

void OptimalMechanism::CopyFrom(const OptimalMechanism& other) {
  eps_ = other.eps_;
  locations_ = other.locations_;
  prior_ = other.prior_;
  metric_ = other.metric_;
  k_owned_ = other.k_owned_;
  k_ = k_owned_.empty() ? other.k_ : std::span<const double>(k_owned_);
  row_samplers_ = other.row_samplers_;
  backing_ = other.backing_;
  stats_ = other.stats_;
}

void OptimalMechanism::MoveFrom(OptimalMechanism&& other) noexcept {
  eps_ = other.eps_;
  locations_ = std::move(other.locations_);
  prior_ = std::move(other.prior_);
  metric_ = other.metric_;
  k_owned_ = std::move(other.k_owned_);
  k_ = k_owned_.empty() ? other.k_ : std::span<const double>(k_owned_);
  row_samplers_ = std::move(other.row_samplers_);
  backing_ = std::move(other.backing_);
  stats_ = other.stats_;
}

void OptimalMechanism::BuildRowSamplers() {
  const int n = num_locations();
  for (int x = 0; x < n; ++x) {
    std::vector<double> row(k_.begin() + static_cast<size_t>(x) * n,
                            k_.begin() + static_cast<size_t>(x + 1) * n);
    auto sampler = rng::AliasSampler::Create(row);
    GEOPRIV_CHECK_MSG(sampler.ok(), "row sampler construction failed");
    row_samplers_[x] = std::move(sampler).value();
  }
}

std::vector<int> OptimalMechanism::SeedPairs(
    std::span<const geo::Point> locations) {
  const int n = static_cast<int>(locations.size());
  const int k = std::min(kSeedNearestNeighbors, n - 1);
  std::vector<int> seeds;
  seeds.reserve(static_cast<size_t>(n) * k);
  std::vector<std::pair<int64_t, int>> order;  // (rounded distance, index)
  for (int x = 0; x < n; ++x) {
    order.clear();
    for (int xp = 0; xp < n; ++xp) {
      if (xp == x) continue;
      const double d = geo::Euclidean(locations[x], locations[xp]);
      order.emplace_back(std::llround(d / kSeedDistanceGrid), xp);
    }
    std::partial_sort(order.begin(), order.begin() + k, order.end());
    for (int i = 0; i < k; ++i) seeds.push_back(x * n + order[i].second);
  }
  return seeds;
}

Status OptimalMechanism::SolveColumnGeneration(
    const OptimalMechanismOptions& options, const OptTemplate* start,
    OptTemplate* first_round) {
  Stopwatch stopwatch;
  const int n = num_locations();
  const size_t nn = static_cast<size_t>(n) * n;

  // Precomputed tables: cost c[x*n+z] = Pi_x * d_Q(x,z) and the GeoInd
  // bound expd[x*n+x'] = e^{eps d(x,x')}.
  std::vector<double> cost(nn), expd(nn);
  for (int x = 0; x < n; ++x) {
    for (int z = 0; z < n; ++z) {
      cost[static_cast<size_t>(x) * n + z] =
          prior_[x] * geo::UtilityLoss(metric_, locations_[x], locations_[z]);
      expd[static_cast<size_t>(x) * n + z] =
          std::exp(eps_ * geo::Euclidean(locations_[x], locations_[z]));
    }
  }

  // Dual model: maximize sum_x y_x subject to, for every matrix entry
  // (x,z), y_x + (generated w terms) <= c_{xz}. Every lazily generated dual
  // variable w_{x,x',z} <= 0 corresponds to one primal GeoInd constraint.
  lp::Model dual(lp::ObjectiveSense::kMaximize);
  std::vector<int> y(n);
  for (int x = 0; x < n; ++x) {
    y[x] = dual.AddVariable(-lp::kInfinity, lp::kInfinity, 1.0);
  }
  for (int x = 0; x < n; ++x) {
    for (int z = 0; z < n; ++z) {
      dual.AddConstraint(lp::ConstraintSense::kLessEqual,
                         cost[static_cast<size_t>(x) * n + z],
                         {{y[x], 1.0}});
    }
  }
  auto row_of = [n](int x, int z) { return x * n + z; };

  std::unordered_set<int64_t> generated;
  // Seed the dual with the constraints between each location and its
  // nearest neighbors: they carry the tightest bounds and form the bulk of
  // the active set at every eps, so starting with them collapses most of
  // the generation rounds into the first solve. Exactness is unaffected:
  // generation still runs to a clean pricing pass.
  const std::vector<int> seeds = SeedPairs(locations_);
  for (const int pair : seeds) {
    const int x = pair / n;
    const int xp = pair % n;
    const double bound = expd[static_cast<size_t>(x) * n + xp];
    for (int z = 0; z < n; ++z) {
      const int w = dual.AddVariable(-lp::kInfinity, 0.0, 0.0);
      dual.AddCoefficient(row_of(x, z), w, 1.0 / bound);
      dual.AddCoefficient(row_of(xp, z), w, -1.0);
      generated.insert((static_cast<int64_t>(x) * n + xp) * n + z);
      ++stats_.generated_columns;
    }
  }
  const int per_round = options.columns_per_round > 0
                            ? options.columns_per_round
                            : std::numeric_limits<int>::max();

  struct Violation {
    double amount;
    int x, xp, z;
  };
  // The first round starts from the template when it was solved on this
  // same restricted dual; later rounds warm-start from the round before.
  lp::Basis basis;
  if (start != nullptr && start->n_ == n && start->eps_ == eps_ &&
      start->seeds_ == seeds) {
    basis = start->basis_;
  }
  lp::LpSolution sol;
  lp::SolverOptions solver_options = options.solver;
  const double time_limit = options.solver.time_limit_seconds;
  for (int round = 0; round < kMaxRounds; ++round) {
    ++stats_.rounds;
    if (std::isfinite(time_limit)) {
      solver_options.time_limit_seconds =
          time_limit - stopwatch.ElapsedSeconds();
      if (solver_options.time_limit_seconds <= 0.0) {
        return Status::DeadlineExceeded("column generation hit time limit");
      }
    }
    sol = lp::RevisedSimplex::Solve(dual, solver_options,
                                    basis.empty() ? nullptr : &basis, &basis);
    if (!sol.optimal()) return MapSolverFailure(sol.status);
    if (round == 0 && first_round != nullptr) {
      first_round->n_ = n;
      first_round->eps_ = eps_;
      first_round->seeds_ = seeds;
      first_round->basis_ = basis;
    }
    stats_.simplex_iterations += sol.iterations;
    stats_.dual_iterations += sol.dual_iterations;
    stats_.simplex_seconds += sol.solve_seconds;
    stats_.refactorizations += sol.refactorizations;
    stats_.refactor_seconds += sol.refactor_seconds;

    // The duals of the restricted dual are the optimal primal K of the
    // restricted primal. Price all not-yet-generated GeoInd constraints in
    // (z, x, xp) order, which fixes the sequence of generated columns.
    Stopwatch pricing_watch;
    const std::vector<double>& k = sol.duals;
    std::vector<Violation> violations;
    for (int z = 0; z < n; ++z) {
      // Deadline check per z slice: a multi-second scan must not blow past
      // the budget just because the simplex happened to finish under it.
      if (std::isfinite(time_limit) &&
          stopwatch.ElapsedSeconds() > time_limit) {
        return Status::DeadlineExceeded(
            "column generation hit time limit during pricing");
      }
      for (int x = 0; x < n; ++x) {
        const double kxz = k[row_of(x, z)];
        for (int xp = 0; xp < n; ++xp) {
          if (xp == x) continue;
          // Row-scaled residual (constraint divided by its largest
          // coefficient e^{eps d}); see MaxGeoIndViolation for why.
          const double v =
              kxz / expd[static_cast<size_t>(x) * n + xp] - k[row_of(xp, z)];
          if (v > kViolationTolerance) {
            const int64_t key = (static_cast<int64_t>(x) * n + xp) * n + z;
            if (generated.contains(key)) continue;
            violations.push_back({v, x, xp, z});
          }
        }
      }
    }
    stats_.pricing_seconds += pricing_watch.ElapsedSeconds();
    stats_.violations_found += static_cast<int64_t>(violations.size());
    if (violations.empty()) {
      // All n^3 constraints hold: k is feasible and (by LP duality)
      // optimal for the complete program.
      GEOPRIV_RETURN_IF_ERROR(FinalizeMatrix(k));
      stats_.solve_seconds = stopwatch.ElapsedSeconds();
      stats_.objective = 0.0;
      for (size_t i = 0; i < nn; ++i) stats_.objective += cost[i] * k_[i];
      return Status::OK();
    }
    const int take =
        std::min<int>(per_round, static_cast<int>(violations.size()));
    if (take < static_cast<int>(violations.size())) {
      // Stable (x, xp, z) tie-break: amounts can tie exactly (symmetric
      // instances), and partial_sort alone does not fix their order.
      std::partial_sort(violations.begin(), violations.begin() + take,
                        violations.end(),
                        [](const Violation& a, const Violation& b) {
                          if (a.amount != b.amount) return a.amount > b.amount;
                          return std::tie(a.x, a.xp, a.z) <
                                 std::tie(b.x, b.xp, b.z);
                        });
    }
    for (int i = 0; i < take; ++i) {
      const Violation& v = violations[i];
      // Scale each generated column so its largest coefficient is 1
      // (e^{eps d} can reach ~1e6 for far pairs, which would otherwise
      // degrade the basis conditioning). Scaling a dual column leaves the
      // row duals — the primal K we extract — untouched.
      const double bound = expd[static_cast<size_t>(v.x) * n + v.xp];
      const int w = dual.AddVariable(-lp::kInfinity, 0.0, 0.0);
      dual.AddCoefficient(row_of(v.x, v.z), w, 1.0 / bound);
      dual.AddCoefficient(row_of(v.xp, v.z), w, -1.0);
      generated.insert((static_cast<int64_t>(v.x) * n + v.xp) * n + v.z);
      ++stats_.generated_columns;
    }
  }
  return Status::ResourceExhausted("column generation exceeded max rounds");
}

Status OptimalMechanism::SolveFullPrimal(
    const OptimalMechanismOptions& options) {
  Stopwatch stopwatch;
  const int n = num_locations();
  if (n > kMaxFullSolveLocations) {
    return Status::InvalidArgument(
        "explicit primal formulations are limited to " +
        std::to_string(kMaxFullSolveLocations) +
        " locations (n^3 constraint rows); use column generation");
  }
  lp::Model primal(lp::ObjectiveSense::kMinimize);
  std::vector<int> kvar(static_cast<size_t>(n) * n);
  for (int x = 0; x < n; ++x) {
    for (int z = 0; z < n; ++z) {
      kvar[static_cast<size_t>(x) * n + z] = primal.AddVariable(
          0.0, 1.0,
          prior_[x] *
              geo::UtilityLoss(metric_, locations_[x], locations_[z]));
    }
  }
  for (int x = 0; x < n; ++x) {
    std::vector<lp::Coefficient> row;
    row.reserve(n);
    for (int z = 0; z < n; ++z) {
      row.push_back({kvar[static_cast<size_t>(x) * n + z], 1.0});
    }
    primal.AddConstraint(lp::ConstraintSense::kEqual, 1.0, std::move(row));
  }
  for (int x = 0; x < n; ++x) {
    for (int xp = 0; xp < n; ++xp) {
      if (xp == x) continue;
      const double bound =
          std::exp(eps_ * geo::Euclidean(locations_[x], locations_[xp]));
      for (int z = 0; z < n; ++z) {
        primal.AddConstraint(
            lp::ConstraintSense::kLessEqual, 0.0,
            {{kvar[static_cast<size_t>(x) * n + z], 1.0},
             {kvar[static_cast<size_t>(xp) * n + z], -bound}});
      }
    }
  }
  const lp::LpSolution sol =
      options.algorithm == OptAlgorithm::kFullPrimalSimplex
          ? lp::RevisedSimplex::Solve(primal, options.solver)
          : lp::InteriorPoint::Solve(primal, options.solver);
  if (!sol.optimal()) return MapSolverFailure(sol.status);
  stats_.rounds = 1;
  stats_.simplex_iterations = sol.iterations;
  stats_.simplex_seconds = sol.solve_seconds;
  stats_.refactorizations = sol.refactorizations;
  stats_.refactor_seconds = sol.refactor_seconds;
  GEOPRIV_RETURN_IF_ERROR(FinalizeMatrix(sol.x));
  stats_.solve_seconds = stopwatch.ElapsedSeconds();
  stats_.objective = 0.0;
  for (int x = 0; x < n; ++x) {
    for (int z = 0; z < n; ++z) {
      stats_.objective +=
          prior_[x] * K(x, z) *
          geo::UtilityLoss(metric_, locations_[x], locations_[z]);
    }
  }
  return Status::OK();
}

Status OptimalMechanism::FinalizeMatrix(std::vector<double> raw) {
  const int n = num_locations();
  raw.resize(static_cast<size_t>(n) * n, 0.0);
  int zero_rows = 0;
  for (int x = 0; x < n; ++x) {
    double sum = 0.0;
    for (int z = 0; z < n; ++z) {
      double& v = raw[static_cast<size_t>(x) * n + z];
      if (v < 0.0) v = 0.0;  // roundoff from the LP
      sum += v;
    }
    if (sum <= 0.0) {
      // Should not happen for a feasible LP. No row may stand in for it:
      // an identity row is a valid distribution but reports the true
      // location with certainty, which breaks geo-indistinguishability.
      ++zero_rows;
      continue;
    }
    for (int z = 0; z < n; ++z) {
      raw[static_cast<size_t>(x) * n + z] /= sum;
    }
  }
  if (zero_rows > 0) {
    return Status::Internal("LP solution has " + std::to_string(zero_rows) +
                            " all-zero row(s); refusing to serve them");
  }
  k_owned_ = std::move(raw);
  k_ = k_owned_;
  return Status::OK();
}

geo::Point OptimalMechanism::Report(geo::Point actual, rng::Rng& rng) {
  return locations_[ReportIndex(IndexOf(actual), rng)];
}

int OptimalMechanism::ReportIndex(int x, rng::Rng& rng) const {
  GEOPRIV_CHECK_MSG(x >= 0 && x < num_locations(), "index out of range");
  return static_cast<int>(row_samplers_[x]->Sample(rng));
}

int OptimalMechanism::IndexOf(geo::Point p) const {
  int best = 0;
  double best_d = geo::SquaredEuclidean(p, locations_[0]);
  for (int i = 1; i < num_locations(); ++i) {
    const double d = geo::SquaredEuclidean(p, locations_[i]);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

size_t OptimalMechanism::MemoryFootprintBytes() const {
  size_t bytes = k_owned_.capacity() * sizeof(double) +
                 locations_.capacity() * sizeof(geo::Point) +
                 prior_.capacity() * sizeof(double) +
                 row_samplers_.capacity() * sizeof(row_samplers_[0]);
  for (const auto& sampler : row_samplers_) {
    if (sampler.has_value()) bytes += sampler->MemoryFootprintBytes();
  }
  return bytes;
}

double OptimalMechanism::AverageSelfMapping() const {
  double avg = 0.0;
  for (int x = 0; x < num_locations(); ++x) {
    avg += prior_[x] * K(x, x);
  }
  return avg;
}

double OptimalMechanism::MaxGeoIndViolation() const {
  const int n = num_locations();
  double worst = 0.0;
  for (int x = 0; x < n; ++x) {
    for (int xp = 0; xp < n; ++xp) {
      if (xp == x) continue;
      const double bound =
          std::exp(eps_ * geo::Euclidean(locations_[x], locations_[xp]));
      for (int z = 0; z < n; ++z) {
        worst = std::max(worst, K(x, z) / bound - K(xp, z));
      }
    }
  }
  return worst;
}

}  // namespace geopriv::mechanisms
