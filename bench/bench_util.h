// Shared helpers for the figure/table reproduction binaries: a minimal
// --flag parser, dataset construction, and the standard experiment stack
// (prior + hierarchical index + MSM / PL baselines); and for the service
// benches: the Austin study box, its query stream, a percentile, and a
// --threads list parser.
//
// Every figure/table binary accepts:
//   --dataset gowalla|yelp|both    which synthetic preset(s) to use
//   --requests N                   sanitization requests per data point
//   --csv PATH                     also write the table as CSV
// plus experiment-specific flags documented in each binary's header.

#ifndef GEOPRIV_BENCH_BENCH_UTIL_H_
#define GEOPRIV_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/check.h"
#include "core/location_sanitizer.h"
#include "core/msm.h"
#include "data/synthetic.h"
#include "eval/evaluation.h"
#include "eval/table.h"
#include "mechanisms/planar_laplace.h"
#include "prior/prior.h"
#include "spatial/hierarchical_grid.h"

namespace geopriv::bench {

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) == 0) key = key.substr(2);
      values_[key] = argv[i + 1];
    }
  }

  double GetDouble(const std::string& key, double def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : std::atof(it->second.c_str());
  }
  int GetInt(const std::string& key, int def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : std::atoi(it->second.c_str());
  }
  std::string GetString(const std::string& key,
                        const std::string& def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }

 private:
  std::map<std::string, std::string> values_;
};

// One dataset plus its derived prior, ready for experiments.
struct Workload {
  data::Dataset dataset;
  std::shared_ptr<prior::Prior> prior;
};

inline Workload MakeWorkload(const std::string& name,
                             int prior_granularity = 128) {
  auto dataset = name == "yelp" ? data::YelpLasVegasLike()
                                : data::GowallaAustinLike();
  GEOPRIV_CHECK_OK(dataset.status());
  auto prior = prior::Prior::FromPoints(dataset->domain, prior_granularity,
                                        dataset->points);
  GEOPRIV_CHECK_OK(prior.status());
  return {std::move(dataset).value(),
          std::make_shared<prior::Prior>(std::move(prior).value())};
}

inline std::vector<std::string> DatasetList(const Flags& flags) {
  const std::string which = flags.GetString("dataset", "both");
  if (which == "both") return {"gowalla", "yelp"};
  return {which};
}

// Builds an MSM over a hierarchical grid of fanout g, height capped so leaf
// cells stay above ~80 m. Returns null on construction failure (printed).
inline std::unique_ptr<core::MultiStepMechanism> MakeMsm(
    const Workload& workload, double eps, int g, double rho,
    geo::UtilityMetric metric, int fixed_height = 0) {
  int height = 1;
  double side = workload.dataset.domain.Width() / g;
  while (height < 8 && side / g > 0.08) {
    side /= g;
    ++height;
  }
  if (fixed_height > 0) height = fixed_height;
  auto grid = spatial::HierarchicalGrid::Create(workload.dataset.domain, g,
                                                height);
  GEOPRIV_CHECK_OK(grid.status());
  auto index =
      std::make_shared<spatial::HierarchicalGrid>(std::move(grid).value());
  core::MsmOptions options;
  options.budget.rho = rho;
  options.budget.fixed_height = fixed_height;
  options.metric = metric;
  auto msm = core::MultiStepMechanism::Create(eps, index, workload.prior,
                                              options);
  if (!msm.ok()) {
    std::fprintf(stderr, "MSM(eps=%.2f, g=%d): %s\n", eps, g,
                 msm.status().ToString().c_str());
    return nullptr;
  }
  return std::make_unique<core::MultiStepMechanism>(std::move(msm).value());
}

// PL with remapping onto the grid matching MSM's effective leaf
// granularity (the paper's PL+grid baseline).
inline std::unique_ptr<mechanisms::PlanarLaplaceOnGrid> MakePlOnGrid(
    const Workload& workload, double eps, int effective_granularity) {
  auto pl = mechanisms::PlanarLaplaceOnGrid::Create(
      eps,
      spatial::UniformGrid(workload.dataset.domain, effective_granularity));
  GEOPRIV_CHECK_OK(pl.status());
  return std::make_unique<mechanisms::PlanarLaplaceOnGrid>(
      std::move(pl).value());
}

// Effective leaf granularity g^h that an MSM of fanout g reaches.
inline int EffectiveGranularity(int g, int height) {
  int eff = 1;
  for (int i = 0; i < height; ++i) eff *= g;
  return eff;
}

// The paper's Austin study region as a lat/lon box (matches
// data::GowallaAustinLike()).
inline constexpr double kAustinMinLat = 30.1927, kAustinMinLon = -97.8698;
inline constexpr double kAustinMaxLat = 30.3723, kAustinMaxLon = -97.6618;

// Deterministic query stream covering the whole Austin box (not just one
// hotspot) so the index walk touches many nodes.
inline std::vector<core::LatLon> MakeQueries(int n) {
  std::vector<core::LatLon> queries;
  queries.reserve(n);
  for (int i = 0; i < n; ++i) {
    const double u = (i % 97) / 96.0;
    const double v = (i % 83) / 82.0;
    queries.push_back({kAustinMinLat + u * (kAustinMaxLat - kAustinMinLat),
                       kAustinMinLon + v * (kAustinMaxLon - kAustinMinLon)});
  }
  return queries;
}

// Rounded-rank percentile of an ascending vector (q in [0, 1]); 0 when
// empty.
inline double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t idx = static_cast<size_t>(q * (sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

// "1,2,4,8" -> {1, 2, 4, 8}; aborts on an empty list.
inline std::vector<int> ParseThreadList(const std::string& spec) {
  std::vector<int> out;
  std::string token;
  for (char c : spec + ",") {
    if (c == ',') {
      if (!token.empty()) out.push_back(std::atoi(token.c_str()));
      token.clear();
    } else {
      token.push_back(c);
    }
  }
  GEOPRIV_CHECK_MSG(!out.empty(), "empty --threads list");
  return out;
}

// The solve-time cell of a flat-OPT row whose Create failed: "> limit"
// only when the solver ran out of time, otherwise the measured time it
// took to fail (a row cap, for one, fails at once).
inline std::string FailedSolveTime(const Status& status, double seconds,
                                   double time_limit) {
  return status.code() == StatusCode::kDeadlineExceeded
             ? "> " + eval::Fmt(time_limit, 0)
             : eval::Fmt(seconds, 2);
}

inline void FinishTable(const Flags& flags, eval::Table& table) {
  table.Print(std::cout);
  const std::string csv = flags.GetString("csv", "");
  if (!csv.empty()) {
    GEOPRIV_CHECK_OK(table.WriteCsv(csv));
    std::printf("\nCSV written to %s\n", csv.c_str());
  }
}

}  // namespace geopriv::bench

#endif  // GEOPRIV_BENCH_BENCH_UTIL_H_
