#include "audit/baseline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "base/atomic_file.h"

namespace geopriv::audit {
namespace {

constexpr char kHeader[] = "geopriv-audit-baseline v1";

// Percent-escapes the characters that would break the whitespace-
// delimited line format (plus '%' itself so unescaping is unambiguous).
std::string EscapeId(const std::string& id) {
  std::string out;
  out.reserve(id.size());
  for (char c : id) {
    switch (c) {
      case '%':
        out += "%25";
        break;
      case ' ':
        out += "%20";
        break;
      case '\n':
        out += "%0A";
        break;
      case '\t':
        out += "%09";
        break;
      default:
        out += c;
    }
  }
  return out;
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

StatusOr<std::string> UnescapeId(const std::string& escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '%') {
      out += escaped[i];
      continue;
    }
    if (i + 2 >= escaped.size()) {
      return Status::InvalidArgument("truncated escape in baseline id");
    }
    const int hi = HexValue(escaped[i + 1]);
    const int lo = HexValue(escaped[i + 2]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("bad escape in baseline id");
    }
    out += static_cast<char>(hi * 16 + lo);
    i += 2;
  }
  return out;
}

}  // namespace

BaselineEntry EntryFromReport(const RegionAuditReport& report) {
  BaselineEntry entry;
  entry.expected_loss_euclidean = report.expected_loss_euclidean;
  entry.expected_loss_squared = report.expected_loss_squared;
  entry.adversary_error = report.adversary_error;
  entry.conditional_entropy_bits = report.conditional_entropy_bits;
  entry.worst_case_loss = report.worst_case_loss;
  entry.min_slack = report.min_slack;
  return entry;
}

DriftResult CompareToBaseline(const BaselineEntry& baseline,
                              const BaselineEntry& current, double threshold) {
  const auto rel = [](double base, double cur) {
    return std::abs(cur - base) / std::max(std::abs(base), 1e-12);
  };
  DriftResult out;
  out.loss_rel =
      rel(baseline.expected_loss_euclidean, current.expected_loss_euclidean);
  out.adversary_rel = rel(baseline.adversary_error, current.adversary_error);
  out.drifted = threshold > 0.0 &&
                (out.loss_rel > threshold || out.adversary_rel > threshold);
  return out;
}

Status BaselineStore::Load(const std::string& path) {
  GEOPRIV_ASSIGN_OR_RETURN(const std::string text,
                           base::ReadFileToString(path));
  return ParseFrom(text);
}

Status BaselineStore::Save(const std::string& path) const {
  return base::WriteFileAtomic(path, Serialize());
}

Status BaselineStore::ParseFrom(const std::string& text) {
  std::istringstream in(text);
  std::string header;
  if (!std::getline(in, header) || header != kHeader) {
    return Status::InvalidArgument("not a geopriv audit baseline (v1)");
  }
  std::map<std::string, BaselineEntry> entries;
  std::string line;
  int lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string escaped;
    BaselineEntry entry;
    if (!(fields >> escaped >> entry.expected_loss_euclidean >>
          entry.expected_loss_squared >> entry.adversary_error >>
          entry.conditional_entropy_bits >> entry.worst_case_loss >>
          entry.min_slack)) {
      return Status::InvalidArgument("malformed baseline line " +
                                     std::to_string(lineno));
    }
    GEOPRIV_ASSIGN_OR_RETURN(std::string id, UnescapeId(escaped));
    entries[std::move(id)] = entry;
  }
  entries_ = std::move(entries);
  return Status::OK();
}

std::string BaselineStore::Serialize() const {
  std::string out = kHeader;
  out += '\n';
  for (const auto& [id, entry] : entries_) {
    out += EscapeId(id);
    for (double v : {entry.expected_loss_euclidean, entry.expected_loss_squared,
                     entry.adversary_error, entry.conditional_entropy_bits,
                     entry.worst_case_loss, entry.min_slack}) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " %.17g", v);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

const BaselineEntry* BaselineStore::Find(const std::string& region_id) const {
  const auto it = entries_.find(region_id);
  return it == entries_.end() ? nullptr : &it->second;
}

void BaselineStore::Update(const std::string& region_id,
                           const BaselineEntry& entry) {
  entries_[region_id] = entry;
}

}  // namespace geopriv::audit
