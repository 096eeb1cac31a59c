// Self-test of the benchmark harness: order statistics on known vectors,
// the host-speed scaling, the Poisson arrival schedule, and the result
// line against the metric names BENCHMARK.json declares.
//
//   geopriv_bench_selftest path/to/BENCHMARK.json
//
// Exits 0 when every check passes; prints each failure to stderr.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/suite/harness.h"

namespace geopriv::bench::suite {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::abs(a - b) <= 1e-12; }

void TestOrderStatistics() {
  const std::vector<double> sorted = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  Expect(Near(Percentile(sorted, 0.0), 1), "p0 is the minimum");
  Expect(Near(Percentile(sorted, 1.0), 10), "p100 is the maximum");
  Expect(Near(Percentile(sorted, 0.5), 6), "p50 rounds index 4.5 up");
  Expect(Near(Percentile(sorted, 0.99), 10), "p99 of ten values");
  Expect(Percentile({}, 0.5) == 0.0, "empty percentile is 0");
  Expect(Near(Median({3, 1, 2}), 2), "odd median");
  Expect(Near(Median({4, 1, 3, 2}), 2.5), "even median averages");
  Expect(Near(Mean({1, 2, 6}), 3) && Mean({}) == 0.0, "mean");
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const Quartiles q = QuartilesOf({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  Expect(Near(q.q1, 2.75) && Near(q.median, 5.5) && Near(q.q3, 8.25),
         "quartiles match Python's exclusive method");
  // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
  const Quartiles q4 = QuartilesOf({1, 2, 4, 8});
  Expect(Near(q4.q1, 1.25) && Near(q4.median, 3.0) && Near(q4.q3, 7.0),
         "quartiles of four values");
  Expect(Near(IqrShare({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5 / 5.5),
         "IQR share of 1..10");
  Expect(IqrShare({4, 4, 4, 4}) == 0.0, "constant values have no spread");
}

void TestSpeedFactor() {
  const double ref = kReferenceProbeMs;
  Expect(Near(SpeedFactor({ref, ref}), 1.0), "reference speed scales by 1");
  Expect(Near(SpeedFactor({2 * ref}), 0.5),
         "a probe twice as slow halves the time");
  Expect(Near(SpeedFactor({ref, 3 * ref}), 0.5), "probes are averaged");
  Expect(SpeedFactor({}) == 1.0, "no probe leaves the time alone");
}

void TestPoissonSchedule() {
  constexpr double kRate = 100000.0, kSeconds = 10.0;
  const std::vector<uint64_t> a = PoissonSchedule(kRate, kSeconds, 7);
  const std::vector<uint64_t> b = PoissonSchedule(kRate, kSeconds, 7);
  const std::vector<uint64_t> c = PoissonSchedule(kRate, kSeconds, 8);
  Expect(a == b, "same seed gives the same schedule");
  Expect(a != c, "another seed gives another schedule");
  const double rate = static_cast<double>(a.size()) / kSeconds;
  Expect(std::abs(rate / kRate - 1.0) < 0.01, "mean rate within 1%");
  bool ordered = true;
  for (size_t i = 1; i < a.size(); ++i) ordered = ordered && a[i - 1] <= a[i];
  Expect(ordered, "send times never decrease");
  Expect(!a.empty() && a.back() < static_cast<uint64_t>(kSeconds * 1e9),
         "every send falls inside the window");
  Expect(PoissonSchedule(0.0, kSeconds, 7).empty(), "zero rate sends nothing");
}

// The `field` string values inside the array that follows `"key"` in
// `json`, in order.
std::vector<std::string> Declared(const std::string& json,
                                  const std::string& key,
                                  const std::string& field) {
  std::vector<std::string> values;
  const size_t at = json.find("\"" + key + "\"");
  if (at == std::string::npos) return values;
  const size_t open = json.find('[', at);
  const size_t close = json.find(']', open);
  if (open == std::string::npos || close == std::string::npos) return values;
  const std::string array = json.substr(open, close - open);
  const std::string tag = "\"" + field + "\"";
  for (size_t p = array.find(tag); p != std::string::npos;
       p = array.find(tag, p + tag.size())) {
    const size_t q1 = array.find('"', array.find(':', p) + 1);
    const size_t q2 = array.find('"', q1 + 1);
    values.push_back(array.substr(q1 + 1, q2 - q1 - 1));
  }
  return values;
}

std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream in(list);
  for (std::string item; std::getline(in, item, ',');) out.push_back(item);
  return out;
}

// The metric names of a rendered result line, in order.
std::vector<std::string> EmittedNames(const std::string& line) {
  std::vector<std::string> names;
  const size_t metrics = line.find("\"metrics\": {");
  for (size_t p = line.find("\": {\"value\"", metrics); p != std::string::npos;
       p = line.find("\": {\"value\"", p + 1)) {
    const size_t q = line.rfind('"', p - 1);
    names.push_back(line.substr(q + 1, p - q - 1));
  }
  return names;
}

void TestResultLine(const std::string& benchmark_json_path) {
  std::ifstream in(benchmark_json_path);
  Expect(in.good(), "BENCHMARK.json is readable");
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string declared = buf.str();

  const struct {
    const char* key;
    std::span<const MetricDef> defs;
  } kTables[] = {{"end_to_end", kEndToEndMetrics},
                 {"per_layer", kPerLayerMetrics}};
  for (const auto& table : kTables) {
    std::map<std::string, double> values;
    std::vector<std::string> names, units;
    for (const MetricDef& def : table.defs) {
      values[def.name] = 1.25;
      names.push_back(def.name);
      units.push_back(def.unit);
    }
    Expect(std::set<std::string>(names.begin(), names.end()).size() ==
               names.size(),
           std::string(table.key) + " names are unique");
    const auto line = ResultLine(true, 3, 0, table.defs, values);
    Expect(line.ok(), std::string(table.key) + " renders");
    if (!line.ok()) continue;
    Expect(line->rfind("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                       "\"metrics\": {",
                       0) == 0,
           "result line starts with the fixed keys");
    Expect(EmittedNames(*line) == names,
           std::string(table.key) + " emits every metric once, in order");
    Expect(Declared(declared, table.key, "name") == names,
           std::string(table.key) +
               " names match BENCHMARK.json exactly, in order");
    Expect(Declared(declared, table.key, "unit") == units,
           std::string(table.key) + " units match BENCHMARK.json");
    values.erase(names.back());
    Expect(!ResultLine(true, 3, 0, table.defs, values).ok(),
           "a missing metric refuses to render");
    values[names.back()] = std::nan("");
    Expect(!ResultLine(true, 3, 0, table.defs, values).ok(),
           "a non-finite metric refuses to render");
  }

  // Every per-layer metric names the end-to-end metrics it should move
  // (or "none") and the workloads it should move them on.
  const std::vector<std::string> end_to_end =
      Declared(declared, "end_to_end", "name");
  const std::vector<std::string> workloads =
      Declared(declared, "workloads", "name");
  const auto declared_in = [](const std::vector<std::string>& list,
                              const std::string& item) {
    return std::find(list.begin(), list.end(), item) != list.end();
  };
  for (const MetricDef& def : kPerLayerMetrics) {
    const std::vector<std::string> moves = SplitCommas(def.moves);
    const std::vector<std::string> on = SplitCommas(def.on);
    bool ok = !moves.empty() && !on.empty();
    for (const std::string& m : moves) {
      ok = ok && ((m == "none" && moves.size() == 1) ||
                  declared_in(end_to_end, m));
    }
    for (const std::string& w : on) ok = ok && declared_in(workloads, w);
    Expect(ok, std::string(def.name) +
                   " maps to declared end-to-end metrics and workloads");
  }
}

}  // namespace
}  // namespace geopriv::bench::suite

int main(int argc, char** argv) {
  using namespace geopriv::bench::suite;  // NOLINT: test entry point
  if (argc != 2) {
    std::fprintf(stderr, "usage: geopriv_bench_selftest BENCHMARK.json\n");
    return 2;
  }
  TestOrderStatistics();
  TestSpeedFactor();
  TestPoissonSchedule();
  TestResultLine(argv[1]);
  if (g_failures == 0) std::printf("bench harness self-test: ok\n");
  return g_failures == 0 ? 0 : 1;
}
