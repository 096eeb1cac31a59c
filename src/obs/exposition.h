// One definition per metric: each scope (service, trace, region, audit
// report, audit level) has one table function returning its rows
// over a source value, and both the JSON and the Prometheus text
// exposition are generated from them. Row order is the JSON key order and
// the family order — the scope's schema: append, never rename or reorder.
// Integers print exactly; doubles use the row's format in JSON and the
// scope's in Prometheus. A family is the key, plus "_total" for a counter
// whose key lacks it, unless `family` is set.

#ifndef GEOPRIV_OBS_EXPOSITION_H_
#define GEOPRIV_OBS_EXPOSITION_H_

#include <concepts>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace geopriv::obs {

// How a double prints: %.6f, %.9f, %.9g or %.17g.
enum NumberFormat : uint8_t { kFixed6, kFixed9, kG9, kG17 };

enum MetricKind : uint8_t { kJsonOnly, kCounter, kGauge };

// One sample: an integer, kept as its exact digits, or a double.
class Value {
 public:
  Value(double v) : real_(v) {}  // NOLINT: implicit by design
  template <std::integral I>
  Value(I v) : digits_(std::to_string(v)) {}  // NOLINT: implicit by design

  void AppendTo(std::string& out, NumberFormat format) const;

 private:
  std::string digits_;  // empty for a double
  double real_ = 0.0;
};

struct Metric {
  const char* key;
  MetricKind kind;
  Value value;
  NumberFormat format = kFixed6;  // JSON rendering of a double
  const char* family = nullptr;   // Prometheus family, after the prefix
};

// (label value, rows) per source of a labelled scope.
using LabelledMetrics =
    std::vector<std::pair<std::string, std::vector<Metric>>>;

// Appends `"key":value` per row, comma-separated; the first member of an
// object (`out` ends in '{') gets no leading comma.
void AppendJson(std::string& out, std::span<const Metric> rows);

// Appends each counter/gauge row as a family: `# TYPE` line, one sample.
void AppendPrometheus(std::string& out, std::string_view prefix,
                      std::span<const Metric> rows, NumberFormat format);

// Labelled: per counter/gauge of `families` (the table over any source),
// one `# TYPE` line and one {label="<value>"} sample per source.
void AppendPrometheus(std::string& out, std::string_view prefix,
                      std::span<const Metric> families,
                      std::string_view label, const LabelledMetrics& sources,
                      NumberFormat format);

// Escapes `s` for a JSON string: quote, backslash, control characters.
std::string JsonEscape(std::string_view s);

// Escapes a Prometheus label value: backslash, double quote, newline.
std::string PromLabelEscape(std::string_view s);

}  // namespace geopriv::obs

#endif  // GEOPRIV_OBS_EXPOSITION_H_
