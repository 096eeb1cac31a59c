// Tests for the consistent-hash ShardRouter: determinism across
// instances, full shard coverage, bounded remapping under ring growth,
// the request counters, and the routing-table JSON shape.

#include "service/shard_router.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace geopriv::service {
namespace {

std::vector<std::string> RegionIds(int count) {
  std::vector<std::string> ids;
  ids.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    ids.push_back("region-" + std::to_string(i * 7919));
  }
  return ids;
}

TEST(ShardRouterTest, PlacementIsDeterministicAcrossInstances) {
  // Two routers with the same parameters — in this process or any other —
  // must agree on every placement; that is the whole contract.
  const ShardRouter a(8, 64);
  const ShardRouter b(8, 64);
  for (const std::string& id : RegionIds(500)) {
    EXPECT_EQ(a.ShardFor(id), b.ShardFor(id)) << id;
  }
}

TEST(ShardRouterTest, EveryShardIsInRangeAndReachable) {
  const ShardRouter router(8, 64);
  std::set<int> seen;
  for (const std::string& id : RegionIds(2000)) {
    const int shard = router.ShardFor(id);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 8);
    seen.insert(shard);
  }
  // 2000 ids over 8 shards with 64 vnodes each: every shard owns some.
  EXPECT_EQ(seen.size(), 8u);
}

TEST(ShardRouterTest, GrowingTheRingMovesOnlyAFractionOfRegions) {
  // Consistent hashing's point: going from N to N+1 shards should move
  // roughly 1/(N+1) of the keys, not reshuffle everything. Allow a loose
  // 3x margin over the ideal to keep the test robust to vnode variance.
  const ShardRouter before(8, 64);
  const ShardRouter after(9, 64);
  const auto ids = RegionIds(4000);
  int moved = 0;
  for (const std::string& id : ids) {
    if (before.ShardFor(id) != after.ShardFor(id)) ++moved;
  }
  EXPECT_GT(moved, 0);  // some movement is expected...
  EXPECT_LT(moved, static_cast<int>(ids.size()) / 3)
      << "ring growth reshuffled " << moved << "/" << ids.size();
}

TEST(ShardRouterTest, DegenerateParametersAreClamped) {
  const ShardRouter router(0, 0);  // clamped to 1 shard, 1 vnode
  EXPECT_EQ(router.num_shards(), 1);
  EXPECT_EQ(router.ShardFor("anything"), 0);
}

TEST(ShardRouterTest, CountersTrackRecordedRequests) {
  ShardRouter router(4, 16);
  const int shard = router.ShardFor("hot-region");
  for (int i = 0; i < 5; ++i) router.RecordRequest(shard);
  EXPECT_EQ(router.Snapshot().requests[static_cast<size_t>(shard)], 5u);
  // Out-of-range records are ignored, not UB.
  router.RecordRequest(-1);
  router.RecordRequest(99);
  EXPECT_EQ(router.Snapshot().requests_total, 5u);

  const std::string json = router.RoutingTableJson();
  EXPECT_NE(json.find("\"num_shards\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"vnodes_per_shard\":16"), std::string::npos) << json;
  EXPECT_NE(json.find("\"requests\":["), std::string::npos) << json;
  // Exactly four comma-separated counts.
  const size_t open = json.find('[');
  const size_t close = json.find(']');
  ASSERT_NE(open, std::string::npos);
  ASSERT_NE(close, std::string::npos);
  const std::string counts = json.substr(open + 1, close - open - 1);
  EXPECT_EQ(std::count(counts.begin(), counts.end(), ','), 3);
}

TEST(ShardRouterTest, TotalsAndImbalanceTrackTheCounters) {
  ShardRouter router(4, 16);
  EXPECT_EQ(router.Snapshot().requests_total, 0u);
  EXPECT_DOUBLE_EQ(router.Snapshot().imbalance_ratio, 0.0);  // no traffic yet

  // Perfectly even traffic: ratio exactly 1.
  for (int s = 0; s < 4; ++s) {
    for (int i = 0; i < 10; ++i) router.RecordRequest(s);
  }
  EXPECT_EQ(router.Snapshot().requests_total, 40u);
  EXPECT_DOUBLE_EQ(router.Snapshot().imbalance_ratio, 1.0);

  // Pile everything extra onto one shard: max/mean grows accordingly.
  for (int i = 0; i < 40; ++i) router.RecordRequest(2);
  EXPECT_EQ(router.Snapshot().requests_total, 80u);
  EXPECT_DOUBLE_EQ(router.Snapshot().imbalance_ratio, 50.0 * 4 / 80.0);

  const std::string json = router.RoutingTableJson();
  // Key presence and order = the documented schema.
  size_t pos = 0;
  for (const obs::Metric& row : ShardMetrics({})) {
    const std::string quoted = std::string("\"") + row.key + "\":";
    const size_t at = json.find(quoted, pos);
    ASSERT_NE(at, std::string::npos) << row.key << " missing in " << json;
    pos = at + quoted.size();
  }
  EXPECT_NE(json.find("\"requests_total\":80"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shard_imbalance_ratio\":2.5"), std::string::npos)
      << json;
}

}  // namespace
}  // namespace geopriv::service
