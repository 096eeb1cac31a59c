#include "service/shard_router.h"

#include <algorithm>
#include <cstdio>
#include <span>

namespace geopriv::service {

namespace {

// FNV-1a over bytes, finished with a splitmix64-style mixer. std::hash
// is implementation-defined, which would make placement differ across
// standard libraries; the router's whole point is that every process
// computes the same ring. Raw FNV-1a alone is not enough: its avalanche
// on short, similar strings ("shard-0:1" vs "shard-0:2") is weak, which
// clusters ring points into long same-shard arcs and skews placement
// badly. The finalizer spreads those near-collisions across the full
// 64-bit ring.
uint64_t Mix64(uint64_t h) {
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 31;
  return h;
}

uint64_t RingHash(std::string_view bytes) {
  uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return Mix64(h);
}

}  // namespace

ShardRouter::ShardRouter(int num_shards, int vnodes_per_shard)
    : num_shards_(std::max(1, num_shards)),
      vnodes_per_shard_(std::max(1, vnodes_per_shard)),
      counters_(static_cast<size_t>(num_shards_)) {
  ring_.reserve(static_cast<size_t>(num_shards_) *
                static_cast<size_t>(vnodes_per_shard_));
  char label[48];
  for (int s = 0; s < num_shards_; ++s) {
    for (int v = 0; v < vnodes_per_shard_; ++v) {
      std::snprintf(label, sizeof(label), "shard-%d:%d", s, v);
      ring_.push_back({RingHash(label), s});
    }
  }
  // Sort by hash; break the (astronomically unlikely) hash ties by shard
  // id so the ring order — and therefore placement — is fully determined.
  std::sort(ring_.begin(), ring_.end(),
            [](const VirtualNode& a, const VirtualNode& b) {
              return a.hash != b.hash ? a.hash < b.hash : a.shard < b.shard;
            });
}

int ShardRouter::ShardFor(std::string_view region_id) const {
  const uint64_t h = RingHash(region_id);
  // First ring point at or after h, wrapping to the start past the end —
  // the standard consistent-hash successor lookup.
  auto it = std::lower_bound(ring_.begin(), ring_.end(), h,
                             [](const VirtualNode& node, uint64_t key) {
                               return node.hash < key;
                             });
  if (it == ring_.end()) it = ring_.begin();
  return it->shard;
}

ShardSnapshot ShardRouter::Snapshot() const {
  ShardSnapshot snap;
  snap.vnodes_per_shard = vnodes_per_shard_;
  uint64_t max_shard = 0;
  for (const ShardCounters& counter : counters_) {
    snap.requests.push_back(counter.requests.load(std::memory_order_relaxed));
    snap.requests_total += snap.requests.back();
    max_shard = std::max(max_shard, snap.requests.back());
  }
  if (snap.requests_total > 0) {
    snap.imbalance_ratio = static_cast<double>(max_shard) * num_shards_ /
                           static_cast<double>(snap.requests_total);
  }
  return snap;
}

std::vector<obs::Metric> ShardMetrics(const ShardSnapshot& s) {
  using enum obs::MetricKind;
  using enum obs::NumberFormat;
  return {
      {"num_shards", kGauge, s.requests.size(), kFixed6, "shard_count"},
      {"vnodes_per_shard", kJsonOnly, s.vnodes_per_shard},
      {"requests_total", kCounter, s.requests_total, kFixed6,
       "shard_requests_cumulative_total"},
      {"shard_imbalance_ratio", kGauge, s.imbalance_ratio},
  };
}

// Rows before the per-shard requests array / labelled family.
constexpr size_t kRequestsAt = 2;

std::string ShardRouter::RoutingTableJson() const {
  const ShardSnapshot snap = Snapshot();
  const std::vector<obs::Metric> rows = ShardMetrics(snap);
  std::string json = "{";
  obs::AppendJson(json, std::span(rows).first(kRequestsAt));
  json += ",\"requests\":[";
  for (size_t s = 0; s < snap.requests.size(); ++s) {
    if (s > 0) json += ',';
    json += std::to_string(snap.requests[s]);
  }
  json += "]";
  obs::AppendJson(json, std::span(rows).subspan(kRequestsAt));
  json += "}";
  return json;
}

std::string ShardRouter::RoutingTablePrometheus() const {
  const ShardSnapshot snap = Snapshot();
  const std::vector<obs::Metric> rows = ShardMetrics(snap);
  std::string text;
  obs::AppendPrometheus(text, "geopriv_", std::span(rows).first(kRequestsAt),
                        obs::kFixed6);
  text += "# TYPE geopriv_shard_requests counter\n";
  for (size_t s = 0; s < snap.requests.size(); ++s) {
    text += "geopriv_shard_requests{shard=\"" + std::to_string(s) + "\"} " +
            std::to_string(snap.requests[s]) + "\n";
  }
  obs::AppendPrometheus(text, "geopriv_",
                        std::span(rows).subspan(kRequestsAt), obs::kFixed6);
  return text;
}

}  // namespace geopriv::service
