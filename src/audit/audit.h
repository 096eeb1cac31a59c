// Mechanism-audit engine: quantifies what a published region actually
// delivers — utility *and* protection — from the mechanism matrices
// themselves, independent of how they were produced (live LP solve or
// GPB2 bundle rehydration).
//
// Per node mechanism (prior pi, row-stochastic K over n candidate
// locations, level budget eps) the kernel computes:
//
//  * expected quality loss  EL_d = sum_x pi_x sum_z K(x,z) d(x,z), for
//    d = Euclidean and d = squared Euclidean (Bordenabe et al.'s
//    expected-loss objective — the quantity our LPs minimize);
//  * per-cell worst-case loss  max_x sum_z K(x,z) d_E(x,z) — the
//    Euclidean loss of the worst-served cell, not the average one;
//  * the optimal Bayesian-remap adversary's expected inference error
//    (Oya et al.: the meaningful protection measure, not eps alone)
//        AdvErr = sum_z min_{xh} sum_x pi_x K(x,z) d_E(x,xh),
//    i.e. the adversary observes z, knows pi and K, and guesses the
//    xh minimizing posterior expected distance;
//  * the conditional entropy H(X|Z) of the posterior, in bits — the
//    information-theoretic companion to AdvErr;
//  * GeoInd constraint slack over all n^2(n-1) row pairs, row-scaled
//    like mechanisms::OptimalMechanism::MaxGeoIndViolation:
//        v = max over (x,x',z) of K(x,z)/e^{eps d_E(x,x')} - K(x',z),
//    reported as min_slack = -v (>= 0 iff every e^{eps d} bound holds)
//    and max_violation = max(0, v).
//
// Region audits walk the hierarchical index breadth-first and weight
// node audits by *reach probability*: the root has weight 1 and child i
// of a node with weight w gets w * prior_i from the node mechanism's own
// prior vector. Those vectors are bit-identical between a live-built
// region and its rehydrated bundle (the serializer stores the normalized
// vector verbatim and FromSolved trusts it), which makes a bundle audit
// and the equivalent live audit produce bit-identical reports — the
// property the audit-smoke CI job pins.
//
// All accumulation is serial and in fixed BFS order for the same reason:
// determinism is a feature here, not an optimization target.

#ifndef GEOPRIV_AUDIT_AUDIT_H_
#define GEOPRIV_AUDIT_AUDIT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "base/status.h"
#include "bundle/region_bundle.h"
#include "core/location_sanitizer.h"
#include "geo/point.h"
#include "obs/exposition.h"

namespace geopriv::audit {

// One published mechanism, as flat views. `prior` must be normalized
// (mechanism prior vectors are); `k` is n x n row-major.
struct MechanismView {
  double eps = 0.0;
  std::span<const geo::Point> locations;
  std::span<const double> prior;
  std::span<const double> k;
};

// The kernel's output for one node. When the prior carries no usable
// mass (zero/non-finite sum), the posterior quantities (adversary error,
// conditional entropy) are zeroed and `posterior_skipped` is set — the
// guarded path that keeps NaNs out of gauges; the loss quantities are
// still computed under the uniform prior, matching the mechanism
// builder's own uniform fallback. A non-finite K or malformed spans set
// `invalid` and nothing is computed.
struct NodeAudit {
  int64_t node = -1;
  int level = 0;
  int n = 0;
  bool invalid = false;
  bool posterior_skipped = false;
  double expected_loss_euclidean = 0.0;
  double expected_loss_squared = 0.0;
  double worst_case_loss = 0.0;
  double adversary_error = 0.0;
  double conditional_entropy_bits = 0.0;
  double min_slack = 0.0;
  double max_violation = 0.0;
};

// Audits one mechanism. Pure, deterministic, O(n^3).
NodeAudit AuditMechanism(const MechanismView& view);

// The GeoInd slack portion alone (same row-scaled measure), for callers
// that only verify feasibility (geopriv_bundle verify --deep).
struct SlackResult {
  double min_slack = 0.0;
  double max_violation = 0.0;
};
SlackResult GeoIndSlack(const MechanismView& view);

// Kernel over one bundle node view (rehydration-free: reads the mmapped
// tables directly). node/level are filled from the view.
NodeAudit AuditBundleNode(const bundle::RegionBundleView::NodeView& view);

struct AuditOptions {
  // Solve cold (non-resident) node LPs during the walk. CLI / rollout
  // audits want full coverage; the background auditor leaves this off so
  // an audit pass never pays LP work or evicts serving state.
  bool include_cold_nodes = true;
  // Nodes visited per audit at most (audited + skipped); 0 = unlimited.
  int max_nodes = 0;
};

// Reach-weighted aggregates of one index level.
struct LevelAudit {
  int level = 0;
  uint64_t nodes = 0;          // audited nodes at this level
  double weight = 0.0;         // reach probability audited at this level
  double expected_loss_euclidean = 0.0;  // reach-weighted means
  double expected_loss_squared = 0.0;
  double adversary_error = 0.0;          // over posterior-valid nodes
  double conditional_entropy_bits = 0.0;
  double worst_case_loss = 0.0;  // max over nodes
  double min_slack = 0.0;        // min over nodes
  double max_violation = 0.0;    // max over nodes
};

struct RegionAuditReport {
  int height = 0;
  uint64_t audited_nodes = 0;
  // Nodes whose posterior metrics were guarded out (zero-mass prior) or
  // that were invalid outright — the audit_skipped_nodes metric.
  uint64_t skipped_nodes = 0;
  // Nodes encountered but not resident (resident-only mode) or whose
  // cold solve failed. Their subtrees are not descended into (the reach
  // weights below them are unknown), so coverage is audited_nodes.
  uint64_t cold_nodes_skipped = 0;
  // Region scalars. The expected losses are the sum over levels of the
  // level means — the walk-sum of per-step losses, an upper bound on the
  // end-to-end loss by the triangle inequality (and exactly the paper's
  // per-level loss decomposition). Adversary error / conditional entropy
  // / worst-case loss come from the deepest audited level (the level that
  // determines the reported location); slack is min/max over every
  // audited node at every level.
  double expected_loss_euclidean = 0.0;
  double expected_loss_squared = 0.0;
  double adversary_error = 0.0;
  double conditional_entropy_bits = 0.0;
  double worst_case_loss = 0.0;
  double min_slack = 0.0;
  double max_violation = 0.0;
  std::vector<LevelAudit> levels;  // ascending level order
};

// Audits a live region: BFS over the internal nodes of the sanitizer's
// index, reach-probability weights from the mechanism prior vectors.
// Never fails hard — unavailable nodes are counted, not thrown.
RegionAuditReport AuditRegion(const core::LocationSanitizer& sanitizer,
                              const AuditOptions& options = {});

// Audits a bundle by rehydrating it (bundle::LoadRegion) and running
// AuditRegion on the result — one shared audit path, so the numbers are
// bit-identical to auditing the equivalent live-built region.
StatusOr<RegionAuditReport> AuditBundle(const bundle::RegionBundleView& view,
                                        const AuditOptions& options = {});

// The audit scopes' rows (see obs/exposition.h): the report's members
// before "levels" (which stays last), and one "levels" element / one
// {level="L"} sample of each `level_` family. Doubles print %.17g in both
// expositions, so equal reports serialize to equal bytes.
std::vector<obs::Metric> AuditReportMetrics(const RegionAuditReport& r);
std::vector<obs::Metric> AuditLevelMetrics(const LevelAudit& l);

// One-line JSON object: the AuditReportMetrics members, then "levels"
// (AuditLevelMetrics objects) — the CLI's bit-identity contract.
std::string ReportJson(const RegionAuditReport& report);

// Prometheus text exposition of the region scalars plus per-level
// samples labelled {level="L"}. Family names carry `prefix`.
std::string ReportPrometheus(const RegionAuditReport& report,
                             const std::string& prefix = "geopriv_audit_");

}  // namespace geopriv::audit

#endif  // GEOPRIV_AUDIT_AUDIT_H_
