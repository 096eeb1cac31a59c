#include "data/dataset.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "geo/projection.h"

namespace geopriv::data {

namespace {

// Rejects non-finite values ("nan", "inf", overflowing "1e999") too.
bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0' && std::isfinite(*out);
}

bool ParseInt64(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtoll(s.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

bool ValidLatLon(double lat, double lon) {
  return lat >= -90.0 && lat <= 90.0 && lon >= -180.0 && lon <= 180.0;
}

std::vector<std::string> Split(const std::string& line, char sep) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream in(line);
  while (std::getline(in, field, sep)) fields.push_back(field);
  return fields;
}

}  // namespace

StatusOr<std::vector<CheckinRecord>> LoadGowallaCheckins(
    const std::string& path, const LatLonBounds* bounds, int64_t* skipped) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open " + path);
  }
  std::vector<CheckinRecord> records;
  int64_t bad = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> f = Split(line, '\t');
    CheckinRecord rec;
    // Fields: user, ISO time (ignored), lat, lon, location id (ignored).
    if (f.size() < 4 || !ParseInt64(f[0], &rec.user_id) ||
        !ParseDouble(f[2], &rec.lat) || !ParseDouble(f[3], &rec.lon) ||
        !ValidLatLon(rec.lat, rec.lon)) {
      ++bad;
      continue;
    }
    if (bounds != nullptr && !bounds->Contains(rec.lat, rec.lon)) continue;
    records.push_back(rec);
  }
  if (skipped != nullptr) *skipped = bad;
  return records;
}

StatusOr<std::vector<CheckinRecord>> LoadCsvCheckins(
    const std::string& path, const LatLonBounds* bounds, int64_t* skipped) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open " + path);
  }
  std::vector<CheckinRecord> records;
  int64_t bad = 0;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> f = Split(line, ',');
    CheckinRecord rec;
    const bool ok = f.size() >= 3 && ParseInt64(f[0], &rec.user_id) &&
                    ParseDouble(f[1], &rec.lat) && ParseDouble(f[2], &rec.lon);
    if (!ok) {
      // Tolerate one header line.
      if (!first) ++bad;
      first = false;
      continue;
    }
    first = false;
    if (!ValidLatLon(rec.lat, rec.lon)) {
      ++bad;
      continue;
    }
    if (bounds != nullptr && !bounds->Contains(rec.lat, rec.lon)) continue;
    records.push_back(rec);
  }
  if (skipped != nullptr) *skipped = bad;
  return records;
}

int64_t Dataset::num_unique_users() const {
  std::vector<int64_t> sorted = users;
  std::sort(sorted.begin(), sorted.end());
  return std::unique(sorted.begin(), sorted.end()) - sorted.begin();
}

StatusOr<Dataset> ProjectRecords(const std::string& name,
                                 const LatLonBounds& bounds,
                                 const std::vector<CheckinRecord>& records) {
  GEOPRIV_ASSIGN_OR_RETURN(
      geo::EquirectangularProjection projection,
      geo::EquirectangularProjection::Create(bounds.min_lat, bounds.min_lon));
  Dataset dataset;
  dataset.name = name;
  const geo::Point ne = projection.Forward(bounds.max_lat, bounds.max_lon);
  dataset.domain = {0.0, 0.0, ne.x, ne.y};
  dataset.points.reserve(records.size());
  dataset.users.reserve(records.size());
  for (const CheckinRecord& rec : records) {
    if (!bounds.Contains(rec.lat, rec.lon)) continue;
    dataset.points.push_back(projection.Forward(rec.lat, rec.lon));
    dataset.users.push_back(rec.user_id);
  }
  if (dataset.points.empty()) {
    return Status::InvalidArgument("no records inside the region");
  }
  return dataset;
}

}  // namespace geopriv::data
