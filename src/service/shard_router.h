// ShardRouter: deterministic consistent-hash routing of region ids onto a
// fixed set of virtual serving shards.
//
// The build/serve split (src/bundle/) makes regions cheap to load anywhere
// — a serving process mmaps a bundle and is warm in milliseconds — so a
// fleet can spread regions across processes instead of packing every
// region into one. The router is the placement function: it hashes each
// region id onto a ring of `vnodes_per_shard` points per shard and routes
// to the owner of the first ring point at or after the id's hash. The
// ring is built from the shard count alone (FNV-1a of "shard-<s>:<v>"),
// so every process that constructs a ShardRouter with the same
// (num_shards, vnodes_per_shard) computes the same placement — no
// coordination service, no routing-table distribution.
//
// Consistent hashing keeps the map stable under resizing: growing from N
// to N+1 shards moves only ~1/(N+1) of the regions, so a fleet can scale
// out without re-mapping (and thus re-loading) every region's bundle.
// Virtual nodes smooth the per-shard load imbalance to O(1/sqrt(vnodes)).
//
// Per-shard request counters are cache-line padded and relaxed — the
// recording path is one hash + binary search + one fetch_add, safe to
// call from every worker concurrently. RoutingTableJson() exposes the
// table and counters for dashboards.

#ifndef GEOPRIV_SERVICE_SHARD_ROUTER_H_
#define GEOPRIV_SERVICE_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/sharded_counter.h"
#include "obs/exposition.h"

namespace geopriv::service {

// One pass over the router's counters, so the per-shard array, its total
// and the imbalance ratio agree even under concurrent recording.
struct ShardSnapshot {
  int vnodes_per_shard = 0;
  std::vector<uint64_t> requests;  // one count per shard
  uint64_t requests_total = 0;
  // Max per-shard count / (total / num_shards); 0 with no requests yet.
  double imbalance_ratio = 0.0;
};

// The shard scope's rows (see obs/exposition.h), walked by
// RoutingTableJson() and RoutingTablePrometheus(); the per-shard requests
// (a JSON array, a {shard="s"}-labelled family) follow "vnodes_per_shard".
std::vector<obs::Metric> ShardMetrics(const ShardSnapshot& s);

class ShardRouter {
 public:
  // `num_shards` >= 1; `vnodes_per_shard` >= 1 (64 is a good default:
  // ~12% relative load spread at 8 shards). Deterministic: same
  // arguments, same ring, in every process.
  explicit ShardRouter(int num_shards, int vnodes_per_shard = 64);

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  // The shard owning `region_id`, in [0, num_shards()). Pure function of
  // (ring, region_id); never records anything.
  int ShardFor(std::string_view region_id) const;

  // Counts one request against `shard` (as returned by ShardFor).
  // Relaxed, contention-free across workers; out-of-range shards are
  // ignored rather than UB.
  void RecordRequest(int shard) {
    if (shard < 0 || shard >= num_shards_) return;
    counters_[static_cast<size_t>(shard)].requests.fetch_add(
        1, std::memory_order_relaxed);
  }

  ShardSnapshot Snapshot() const;

  int num_shards() const { return num_shards_; }
  int vnodes_per_shard() const { return vnodes_per_shard_; }

  // The routing table's shape plus the live per-shard request counts,
  // cumulative total, and imbalance ratio (ShardMetrics order).
  std::string RoutingTableJson() const;

  // The same in the Prometheus text format: the geopriv_shard_* families
  // of SanitizationService::MetricsText().
  std::string RoutingTablePrometheus() const;

 private:
  // One ring point: a shard replicated at position `hash`.
  struct VirtualNode {
    uint64_t hash;
    int shard;
  };

  struct alignas(kCounterSlotAlign) ShardCounters {
    std::atomic<uint64_t> requests{0};
  };

  int num_shards_;
  int vnodes_per_shard_;
  // Sorted by hash; lookup is a binary search with wraparound.
  std::vector<VirtualNode> ring_;
  // vector, not array: shard count is a runtime choice. Constructed once,
  // never resized — the atomics stay put.
  std::vector<ShardCounters> counters_;
};

}  // namespace geopriv::service

#endif  // GEOPRIV_SERVICE_SHARD_ROUTER_H_
