#include "audit/audit.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <map>

#include "bundle/loader.h"
#include "core/msm.h"
#include "geo/distance.h"
#include "spatial/hierarchical_partition.h"

namespace geopriv::audit {
namespace {

bool AllFinite(std::span<const double> values) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

// Pairwise Euclidean distances, row-major n x n. Computed once per node:
// every audit quantity reads distances through this table, so live and
// bundle audits see the same doubles in the same order.
std::vector<double> DistanceTable(std::span<const geo::Point> locations) {
  const size_t n = locations.size();
  std::vector<double> d(n * n);
  for (size_t x = 0; x < n; ++x) {
    for (size_t z = 0; z < n; ++z) {
      d[x * n + z] = geo::Euclidean(locations[x], locations[z]);
    }
  }
  return d;
}

// Row-scaled GeoInd residual over all ordered pairs, the same measure as
// OptimalMechanism::MaxGeoIndViolation:
//   v = max over (x, x', z), x != x' of K(x,z) / e^{eps d(x,x')} - K(x',z).
// min_slack = -v (>= 0 iff feasible); max_violation = max(0, v). With a
// single candidate the constraint set is empty and both are 0.
SlackResult SlackFromTables(int n, double eps, std::span<const double> k,
                            const std::vector<double>& dist) {
  SlackResult out;
  if (n < 2) return out;
  double v = -std::numeric_limits<double>::infinity();
  for (int x = 0; x < n; ++x) {
    for (int xp = 0; xp < n; ++xp) {
      if (xp == x) continue;
      const double bound = std::exp(eps * dist[static_cast<size_t>(x) * n + xp]);
      const double* row_x = k.data() + static_cast<size_t>(x) * n;
      const double* row_xp = k.data() + static_cast<size_t>(xp) * n;
      for (int z = 0; z < n; ++z) {
        const double r = row_x[z] / bound - row_xp[z];
        if (r > v) v = r;
      }
    }
  }
  out.min_slack = -v;
  out.max_violation = std::max(0.0, v);
  return out;
}

bool ValidateView(const MechanismView& view, int* n_out) {
  const int n = static_cast<int>(view.locations.size());
  *n_out = n;
  if (n <= 0 || !std::isfinite(view.eps) || view.eps < 0.0) return false;
  if (view.prior.size() != static_cast<size_t>(n)) return false;
  if (view.k.size() != static_cast<size_t>(n) * static_cast<size_t>(n)) {
    return false;
  }
  for (const geo::Point& p : view.locations) {
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) return false;
  }
  return AllFinite(view.prior) && AllFinite(view.k);
}

}  // namespace

NodeAudit AuditMechanism(const MechanismView& view) {
  NodeAudit out;
  if (!ValidateView(view, &out.n)) {
    out.invalid = true;
    return out;
  }
  const int n = out.n;
  const std::vector<double> dist = DistanceTable(view.locations);

  // Prior weights. Mechanism priors are normalized, but defend anyway:
  // zero/negative total mass falls back to uniform weights for the loss
  // quantities (matching the mechanism builder's own uniform fallback)
  // and marks the posterior quantities skipped — the guarded path that
  // keeps 0/0 posteriors from leaking NaNs into gauges.
  double prior_sum = 0.0;
  bool negative_mass = false;
  for (int x = 0; x < n; ++x) {
    if (view.prior[x] < 0.0) negative_mass = true;
    prior_sum += view.prior[x];
  }
  std::vector<double> w(static_cast<size_t>(n));
  if (negative_mass || !(prior_sum > 0.0)) {
    out.posterior_skipped = true;
    std::fill(w.begin(), w.end(), 1.0 / n);
  } else {
    for (int x = 0; x < n; ++x) w[x] = view.prior[x] / prior_sum;
  }

  // Expected losses (both metrics) and the worst-served cell's Euclidean
  // loss, from the same row scan.
  for (int x = 0; x < n; ++x) {
    const double* row = view.k.data() + static_cast<size_t>(x) * n;
    const double* drow = dist.data() + static_cast<size_t>(x) * n;
    double row_e = 0.0;
    double row_s = 0.0;
    for (int z = 0; z < n; ++z) {
      row_e += row[z] * drow[z];
      row_s += row[z] * (drow[z] * drow[z]);
    }
    out.expected_loss_euclidean += w[x] * row_e;
    out.expected_loss_squared += w[x] * row_s;
    if (row_e > out.worst_case_loss) out.worst_case_loss = row_e;
  }

  // Posterior quantities over the joint j(x,z) = w_x K(x,z). The optimal
  // Bayesian-remap adversary observes z and guesses the candidate
  // minimizing posterior expected distance; summing the per-z minima of
  // the *joint*-weighted distances avoids ever dividing by p(z):
  //   AdvErr = sum_z min_xh sum_x j(x,z) d(x,xh).
  // Conditional entropy in bits uses the same joint columns:
  //   H(X|Z) = sum_z sum_x j(x,z) log2(p(z)/j(x,z)).
  // Columns with p(z) <= 0 (outputs the mechanism never emits) contribute
  // nothing to either.
  if (!out.posterior_skipped) {
    std::vector<double> col(static_cast<size_t>(n));
    for (int z = 0; z < n; ++z) {
      double pz = 0.0;
      for (int x = 0; x < n; ++x) {
        col[x] = w[x] * view.k[static_cast<size_t>(x) * n + z];
        pz += col[x];
      }
      if (!(pz > 0.0)) continue;
      double best = std::numeric_limits<double>::infinity();
      for (int xh = 0; xh < n; ++xh) {
        double guess = 0.0;
        for (int x = 0; x < n; ++x) {
          guess += col[x] * dist[static_cast<size_t>(x) * n + xh];
        }
        if (guess < best) best = guess;
      }
      out.adversary_error += best;
      for (int x = 0; x < n; ++x) {
        if (col[x] > 0.0) {
          out.conditional_entropy_bits += col[x] * std::log2(pz / col[x]);
        }
      }
    }
  }

  const SlackResult slack = SlackFromTables(n, view.eps, view.k, dist);
  out.min_slack = slack.min_slack;
  out.max_violation = slack.max_violation;
  return out;
}

SlackResult GeoIndSlack(const MechanismView& view) {
  int n = 0;
  if (!ValidateView(view, &n)) return SlackResult{};
  return SlackFromTables(n, view.eps, view.k, DistanceTable(view.locations));
}

NodeAudit AuditBundleNode(const bundle::RegionBundleView::NodeView& view) {
  std::vector<geo::Point> locations(static_cast<size_t>(view.n));
  if (view.locations_xy.size() == 2 * locations.size()) {
    for (size_t i = 0; i < locations.size(); ++i) {
      locations[i] = geo::Point{view.locations_xy[2 * i],
                                view.locations_xy[2 * i + 1]};
    }
  }
  NodeAudit out = AuditMechanism(
      MechanismView{view.eps_level, locations, view.prior, view.k});
  out.node = view.node;
  out.level = view.level;
  return out;
}

RegionAuditReport AuditRegion(const core::LocationSanitizer& sanitizer,
                              const AuditOptions& options) {
  RegionAuditReport report;
  const core::MultiStepMechanism& msm = sanitizer.mechanism();
  const spatial::HierarchicalPartition& index = msm.index();
  report.height = msm.height();

  struct Item {
    spatial::NodeIndex node;
    int level;
    double weight;
  };
  std::deque<Item> queue;
  if (!index.IsLeaf(spatial::HierarchicalPartition::kRoot)) {
    queue.push_back({spatial::HierarchicalPartition::kRoot, 1, 1.0});
  }

  struct LevelAcc {
    uint64_t nodes = 0;
    double weight = 0.0;       // reach mass of audited nodes
    double weight_post = 0.0;  // reach mass of posterior-valid nodes
    double el_e = 0.0, el_s = 0.0;  // weighted sums
    double adv = 0.0, ent = 0.0;    // weighted sums, posterior-valid only
    double worst = 0.0;
    double min_slack = std::numeric_limits<double>::infinity();
    double max_violation = 0.0;
  };
  std::map<int, LevelAcc> levels;

  uint64_t visited = 0;
  while (!queue.empty()) {
    if (options.max_nodes > 0 &&
        visited >= static_cast<uint64_t>(options.max_nodes)) {
      break;
    }
    const Item item = queue.front();
    queue.pop_front();
    ++visited;

    core::NodeMechanismCache::MechanismPtr mech;
    if (options.include_cold_nodes) {
      auto built = msm.NodeMechanism(item.node, item.level);
      if (!built.ok()) {
        ++report.cold_nodes_skipped;
        continue;
      }
      mech = std::move(built).value();
    } else {
      // Resident-only probe: never builds, never touches LRU recency —
      // a background audit pass cannot evict or warm serving state.
      mech = msm.cache().TryGet(item.node);
      if (mech == nullptr) {
        ++report.cold_nodes_skipped;
        continue;
      }
    }

    const NodeAudit audit = AuditMechanism(MechanismView{
        mech->eps(), mech->locations(), mech->prior_vector(),
        mech->k_table()});
    if (audit.invalid) {
      ++report.skipped_nodes;
      continue;  // unusable matrix: nothing to descend by
    }
    ++report.audited_nodes;
    if (audit.posterior_skipped) ++report.skipped_nodes;

    LevelAcc& acc = levels[item.level];
    ++acc.nodes;
    acc.weight += item.weight;
    acc.el_e += item.weight * audit.expected_loss_euclidean;
    acc.el_s += item.weight * audit.expected_loss_squared;
    if (!audit.posterior_skipped) {
      acc.weight_post += item.weight;
      acc.adv += item.weight * audit.adversary_error;
      acc.ent += item.weight * audit.conditional_entropy_bits;
    }
    acc.worst = std::max(acc.worst, audit.worst_case_loss);
    acc.min_slack = std::min(acc.min_slack, audit.min_slack);
    acc.max_violation = std::max(acc.max_violation, audit.max_violation);

    // Descend. Child i's reach weight is the parent's weight times the
    // conditional prior mass of child i — mechanism candidate order is
    // exactly Children() order, and the prior vectors are bit-identical
    // between live builds and rehydrated bundles, which is what makes the
    // whole report bit-identical across the two paths.
    // The budget allocates `height` mechanism levels; the spatial index
    // can be deeper (serving falls through extra levels), so the walk is
    // bounded by the budget, not the partition.
    if (item.level >= report.height) continue;
    const std::vector<spatial::ChildInfo> children = index.Children(item.node);
    if (static_cast<int>(children.size()) == audit.n) {
      for (size_t i = 0; i < children.size(); ++i) {
        if (index.IsLeaf(children[i].id)) continue;
        queue.push_back({children[i].id, item.level + 1,
                         item.weight * mech->prior(static_cast<int>(i))});
      }
    }
  }

  // Fold levels (std::map iterates ascending). Region expected losses sum
  // the per-level means — the walk pays every level's loss on the way
  // down; the deepest level determines the reported point, so the
  // posterior/worst-case scalars come from it.
  report.min_slack = std::numeric_limits<double>::infinity();
  const LevelAcc* deepest_posterior = nullptr;
  for (const auto& [level, acc] : levels) {
    LevelAudit out;
    out.level = level;
    out.nodes = acc.nodes;
    out.weight = acc.weight;
    out.expected_loss_euclidean = acc.weight > 0.0 ? acc.el_e / acc.weight : 0.0;
    out.expected_loss_squared = acc.weight > 0.0 ? acc.el_s / acc.weight : 0.0;
    out.adversary_error =
        acc.weight_post > 0.0 ? acc.adv / acc.weight_post : 0.0;
    out.conditional_entropy_bits =
        acc.weight_post > 0.0 ? acc.ent / acc.weight_post : 0.0;
    out.worst_case_loss = acc.worst;
    out.min_slack =
        std::isfinite(acc.min_slack) ? acc.min_slack : 0.0;
    out.max_violation = acc.max_violation;

    report.expected_loss_euclidean += out.expected_loss_euclidean;
    report.expected_loss_squared += out.expected_loss_squared;
    report.worst_case_loss = out.worst_case_loss;  // deepest wins
    report.min_slack = std::min(report.min_slack, out.min_slack);
    report.max_violation = std::max(report.max_violation, out.max_violation);
    if (acc.weight_post > 0.0) deepest_posterior = &acc;

    report.levels.push_back(out);
  }
  if (deepest_posterior != nullptr) {
    report.adversary_error =
        deepest_posterior->adv / deepest_posterior->weight_post;
    report.conditional_entropy_bits =
        deepest_posterior->ent / deepest_posterior->weight_post;
  }
  if (!std::isfinite(report.min_slack)) report.min_slack = 0.0;
  return report;
}

StatusOr<RegionAuditReport> AuditBundle(const bundle::RegionBundleView& view,
                                        const AuditOptions& options) {
  GEOPRIV_ASSIGN_OR_RETURN(bundle::LoadedRegion region,
                           bundle::LoadRegion(view));
  return AuditRegion(region.sanitizer, options);
}

std::vector<obs::Metric> AuditReportMetrics(const RegionAuditReport& r) {
  using enum obs::MetricKind;
  using enum obs::NumberFormat;
  return {
      {"height", kGauge, r.height},
      {"audited_nodes", kGauge, r.audited_nodes},
      {"skipped_nodes", kGauge, r.skipped_nodes},
      {"cold_nodes_skipped", kGauge, r.cold_nodes_skipped},
      {"expected_loss_euclidean", kGauge, r.expected_loss_euclidean, kG17},
      {"expected_loss_squared", kGauge, r.expected_loss_squared, kG17},
      {"adversary_error", kGauge, r.adversary_error, kG17},
      {"conditional_entropy_bits", kGauge, r.conditional_entropy_bits, kG17},
      {"worst_case_loss", kGauge, r.worst_case_loss, kG17},
      {"min_slack", kGauge, r.min_slack, kG17},
      {"max_violation", kGauge, r.max_violation, kG17},
  };
}

std::vector<obs::Metric> AuditLevelMetrics(const LevelAudit& l) {
  using enum obs::MetricKind;
  using enum obs::NumberFormat;
  return {
      {"level", kJsonOnly, l.level},
      {"nodes", kGauge, l.nodes},
      {"weight", kGauge, l.weight, kG17},
      {"expected_loss_euclidean", kGauge, l.expected_loss_euclidean, kG17},
      {"expected_loss_squared", kGauge, l.expected_loss_squared, kG17},
      {"adversary_error", kGauge, l.adversary_error, kG17},
      {"conditional_entropy_bits", kGauge, l.conditional_entropy_bits, kG17},
      {"worst_case_loss", kGauge, l.worst_case_loss, kG17},
      {"min_slack", kGauge, l.min_slack, kG17},
      {"max_violation", kGauge, l.max_violation, kG17},
  };
}

std::string ReportJson(const RegionAuditReport& report) {
  std::string json = "{";
  obs::AppendJson(json, AuditReportMetrics(report));
  json += ",\"levels\":[";
  for (size_t i = 0; i < report.levels.size(); ++i) {
    json += i == 0 ? "{" : ",{";
    obs::AppendJson(json, AuditLevelMetrics(report.levels[i]));
    json += '}';
  }
  json += "]}";
  return json;
}

std::string ReportPrometheus(const RegionAuditReport& report,
                             const std::string& prefix) {
  std::string text;
  obs::AppendPrometheus(text, prefix, AuditReportMetrics(report), obs::kG17);
  obs::LabelledMetrics levels;
  for (const LevelAudit& level : report.levels) {
    levels.emplace_back(std::to_string(level.level), AuditLevelMetrics(level));
  }
  obs::AppendPrometheus(text, prefix + "level_", AuditLevelMetrics({}),
                        "level", levels, obs::kG17);
  return text;
}

}  // namespace geopriv::audit
