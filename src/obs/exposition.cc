#include "obs/exposition.h"

#include <cstdio>

namespace geopriv::obs {

void Value::AppendTo(std::string& out, NumberFormat format) const {
  if (!digits_.empty()) {
    out += digits_;
    return;
  }
  static constexpr const char* kFormats[] = {"%.6f", "%.9f", "%.9g", "%.17g"};
  char buf[512];  // %.6f of the largest double needs ~320
  out.append(buf, static_cast<size_t>(std::snprintf(
                      buf, sizeof(buf), kFormats[format], real_)));
}

void AppendJson(std::string& out, std::span<const Metric> rows) {
  for (const Metric& row : rows) {
    if (!out.empty() && out.back() != '{') out += ',';
    out += '"' + std::string(row.key) + "\":";
    row.value.AppendTo(out, row.format);
  }
}

void AppendPrometheus(std::string& out, std::string_view prefix,
                      std::span<const Metric> families,
                      std::string_view label, const LabelledMetrics& sources,
                      NumberFormat format) {
  for (size_t i = 0; i < families.size(); ++i) {
    const Metric& f = families[i];
    if (f.kind == kJsonOnly) continue;
    std::string name = std::string(prefix) + (f.family ? f.family : f.key);
    if (!f.family && f.kind == kCounter && !name.ends_with("_total")) {
      name += "_total";
    }
    out += "# TYPE " + name + (f.kind == kCounter ? " counter" : " gauge");
    for (const auto& [label_value, rows] : sources) {
      out += '\n' + name;
      if (!label.empty()) {
        out += '{' + std::string(label) + "=\"" +
               PromLabelEscape(label_value) + "\"}";
      }
      out += ' ';
      rows[i].value.AppendTo(out, format);
    }
    out += '\n';
  }
}

void AppendPrometheus(std::string& out, std::string_view prefix,
                      std::span<const Metric> rows, NumberFormat format) {
  AppendPrometheus(out, prefix, rows, "", {{"", {rows.begin(), rows.end()}}},
                   format);
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string PromLabelEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace geopriv::obs
