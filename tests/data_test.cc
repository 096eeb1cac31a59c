#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <set>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/synthetic.h"
#include "prior/prior.h"

namespace geopriv::data {
namespace {

// ctest runs each test in its own process, and every process starts
// counter_ at 0, so the pid keeps concurrent tests off each other's files.
class TempFile {
 public:
  explicit TempFile(const std::string& contents) {
    path_ = ::testing::TempDir() + "/geopriv_data_test_" +
            std::to_string(static_cast<long long>(::getpid())) + "_" +
            std::to_string(counter_++) + ".txt";
    std::ofstream out(path_);
    out << contents;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  static int counter_;
  std::string path_;
};

int TempFile::counter_ = 0;

TEST(GowallaLoaderTest, ParsesSnapFormat) {
  TempFile file(
      "196514\t2010-07-24T13:45:06Z\t30.2359091167\t-97.7951395833\t22847\n"
      "196514\t2010-07-24T13:44:58Z\t30.2691029532\t-97.7493953705\t420315\n"
      "9\t2010-07-24T13:40:00Z\t53.3648119\t-2.2723465833\t11\n");
  auto records = LoadGowallaCheckins(file.path());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0].user_id, 196514);
  EXPECT_NEAR((*records)[0].lat, 30.2359091167, 1e-12);
  EXPECT_NEAR((*records)[1].lon, -97.7493953705, 1e-12);
}

TEST(GowallaLoaderTest, FiltersByBoundsAndSkipsMalformed) {
  TempFile file(
      "1\t2010-07-24T13:45:06Z\t30.25\t-97.75\t1\n"
      "garbage line without tabs\n"
      "2\tnot-a-time\tnot-a-lat\t-97.75\t2\n"
      "3\t2010-07-24T13:45:06Z\t53.36\t-2.27\t3\n");
  int64_t skipped = 0;
  auto records =
      LoadGowallaCheckins(file.path(), &kGowallaAustinBounds, &skipped);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u);   // Manchester dropped by bounds
  EXPECT_EQ(skipped, 2);            // two malformed lines
}

// Hostile numbers are malformed, not records: strtod accepts every one of
// these coordinates, and none of them is a place on Earth.
TEST(GowallaLoaderTest, RejectsNonFiniteAndOutOfRangeCoordinates) {
  TempFile file(
      "1\t2010-07-24T13:45:06Z\tnan\t-97.75\t1\n"
      "2\t2010-07-24T13:45:06Z\t30.25\tinf\t2\n"
      "3\t2010-07-24T13:45:06Z\t1e999\t-97.75\t3\n"
      "4\t2010-07-24T13:45:06Z\t512\t-97.75\t4\n"
      "5\t2010-07-24T13:45:06Z\t30.25\t-180.5\t5\n"
      "6\t2010-07-24T13:45:06Z\t-90\t180\t6\n");
  int64_t skipped = 0;
  auto records = LoadGowallaCheckins(file.path(), nullptr, &skipped);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);  // the pole is on the map
  EXPECT_EQ((*records)[0].user_id, 6);
  EXPECT_EQ(skipped, 5);
}

TEST(GowallaLoaderTest, MissingFileIsIoError) {
  auto records = LoadGowallaCheckins("/nonexistent/gowalla.txt");
  EXPECT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), StatusCode::kIoError);
}

TEST(CsvLoaderTest, AppliesBoundsFilterAndCountsSkips) {
  TempFile file(
      "user_id,lat,lon\n"
      "1,36.1,-115.2\n"
      "2,53.4,-2.2\n"
      "oops,not,numeric\n");
  int64_t skipped = 0;
  auto records = LoadCsvCheckins(file.path(), &kYelpLasVegasBounds, &skipped);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u);
  EXPECT_EQ(skipped, 1);  // the non-numeric body line (header is free)
}

TEST(CsvLoaderTest, RejectsNonFiniteAndOutOfRangeCoordinates) {
  TempFile file(
      "user_id,lat,lon\n"
      "1,nan,-115.2\n"
      "2,36.1,-inf\n"
      "3,36.1,1e999\n"
      "4,-512,-115.2\n"
      "5,36.1,-115.2\n");
  int64_t skipped = 0;
  auto records = LoadCsvCheckins(file.path(), nullptr, &skipped);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].user_id, 5);
  EXPECT_EQ(skipped, 4);
}

TEST(GowallaLoaderTest, ToleratesExtraTrailingFields) {
  TempFile file("7\t2010-01-01T00:00:00Z\t30.25\t-97.75\t99\textra\tmore\n");
  auto records = LoadGowallaCheckins(file.path());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].user_id, 7);
}

TEST(CsvLoaderTest, ParsesWithHeader) {
  TempFile file(
      "user_id,lat,lon\n"
      "42,36.1,-115.2\n"
      "43,36.11,-115.21\n");
  auto records = LoadCsvCheckins(file.path());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].user_id, 42);
}

TEST(ProjectRecordsTest, ProducesAnchoredPlanarDomain) {
  std::vector<CheckinRecord> records = {
      {1, 30.1927, -97.8698}, {2, 30.3723, -97.6618}, {3, 30.28, -97.76}};
  auto dataset = ProjectRecords("austin", kGowallaAustinBounds, records);
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset->points.size(), 3u);
  // South-west corner maps to the origin; region is ~20x20 km.
  EXPECT_NEAR(dataset->points[0].x, 0.0, 1e-9);
  EXPECT_NEAR(dataset->points[0].y, 0.0, 1e-9);
  EXPECT_NEAR(dataset->domain.Width(), 20.0, 0.5);
  EXPECT_NEAR(dataset->domain.Height(), 20.0, 0.5);
  EXPECT_EQ(dataset->num_unique_users(), 3);
  for (const auto& p : dataset->points) {
    EXPECT_TRUE(dataset->domain.Contains(p));
  }
}

TEST(ProjectRecordsTest, RejectsEmptyRegion) {
  std::vector<CheckinRecord> records = {{1, 53.36, -2.27}};
  EXPECT_FALSE(ProjectRecords("x", kGowallaAustinBounds, records).ok());
}

TEST(SyntheticTest, ConfigValidation) {
  SyntheticCityConfig config;
  config.num_checkins = 0;
  EXPECT_FALSE(GenerateSyntheticCity(config).ok());
  config = SyntheticCityConfig();
  config.hotspot_fraction = 1.5;
  EXPECT_FALSE(GenerateSyntheticCity(config).ok());
}

TEST(SyntheticTest, PresetsMatchPaperRecordCounts) {
  auto austin = GowallaAustinLike();
  ASSERT_TRUE(austin.ok());
  EXPECT_EQ(austin->points.size(), 265571u);
  EXPECT_EQ(austin->num_unique_users(), 12155);
  EXPECT_NEAR(austin->domain.Width(), 20.0, 1e-9);

  auto vegas = YelpLasVegasLike();
  ASSERT_TRUE(vegas.ok());
  EXPECT_EQ(vegas->points.size(), 81201u);
  EXPECT_EQ(vegas->num_unique_users(), 7581);
}

TEST(SyntheticTest, DeterministicGivenSeed) {
  SyntheticCityConfig config;
  config.num_checkins = 1000;
  config.num_users = 50;
  auto a = GenerateSyntheticCity(config);
  auto b = GenerateSyntheticCity(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t i = 0; i < a->points.size(); ++i) {
    EXPECT_EQ(a->points[i], b->points[i]);
    EXPECT_EQ(a->users[i], b->users[i]);
  }
  config.seed = 77;
  auto c = GenerateSyntheticCity(config);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->points[0], c->points[0]);
}

TEST(SyntheticTest, AllPointsInsideDomain) {
  SyntheticCityConfig config;
  config.num_checkins = 20000;
  auto d = GenerateSyntheticCity(config);
  ASSERT_TRUE(d.ok());
  for (const auto& p : d->points) {
    EXPECT_TRUE(config.domain.Contains(p));
  }
}

TEST(SyntheticTest, CheckinsAreSpatiallySkewed) {
  // The generated prior must be heavy-tailed like real check-in data: a
  // small share of grid cells should carry the majority of the mass.
  auto d = GowallaAustinLike();
  ASSERT_TRUE(d.ok());
  auto prior = prior::Prior::FromPoints(d->domain, 32, d->points);
  ASSERT_TRUE(prior.ok());
  std::vector<double> masses;
  for (int c = 0; c < 32 * 32; ++c) masses.push_back(prior->mass(c));
  std::sort(masses.rbegin(), masses.rend());
  double top5 = 0.0;
  for (int i = 0; i < 51; ++i) top5 += masses[i];  // top ~5% of cells
  EXPECT_GT(top5, 0.5) << "top 5% of cells should hold >50% of check-ins";
}

TEST(SyntheticTest, UserActivityIsHeavyTailed) {
  auto d = YelpLasVegasLike();
  ASSERT_TRUE(d.ok());
  std::map<int64_t, int> activity;
  for (int64_t u : d->users) ++activity[u];
  std::vector<int> counts;
  counts.reserve(activity.size());
  for (const auto& [u, c] : activity) counts.push_back(c);
  std::sort(counts.rbegin(), counts.rend());
  // The most active user checks in far more than the median user.
  EXPECT_GT(counts.front(), 20 * counts[counts.size() / 2]);
}

}  // namespace
}  // namespace geopriv::data
