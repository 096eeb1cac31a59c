// Sharded, thread-safe cache of solved per-node optimal mechanisms with
// singleflight semantics: when several threads miss on the same node
// concurrently, exactly one runs the LP factory while the others block on
// the entry and reuse its result. This is what lets one MultiStepMechanism
// be shared across a worker pool — the per-node LP is still paid once per
// visited node, never once per thread.
//
// Sharding bounds contention: the node id is hashed onto one of
// `num_shards` independently locked maps, and the hot read path (cache
// hit) takes only that shard's shared lock plus one acquire load.
//
// Lifetime model: GetOrCompute hands out
// std::shared_ptr<const OptimalMechanism>. A caller's copy *pins* the
// mechanism — Clear() and eviction drop the cache's reference but can
// never free a matrix under a reader. Entries whose mechanism (or whose
// in-flight build record) is still referenced elsewhere are skipped by
// the evictor.
//
// Bounded mode: with a nonzero byte budget each completed entry is
// charged its matrix footprint (≈ n²·8 bytes for the dense K plus the
// per-row alias tables; see OptimalMechanism::MemoryFootprintBytes).
// Whenever the resident total exceeds the budget, the least-recently-used
// unpinned entry — across all shards — is evicted until the total fits
// or only pinned/in-flight entries remain. Recency is a relaxed global
// tick stamped on every hit, so the hit path stays lock-free beyond the
// shard's shared lock. `bytes_resident` tracks what the cache holds; a
// pinned mechanism a reader keeps alive past eviction is the reader's to
// account.

#ifndef GEOPRIV_CORE_NODE_CACHE_H_
#define GEOPRIV_CORE_NODE_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "mechanisms/optimal.h"
#include "spatial/hierarchical_partition.h"

namespace geopriv::core {

class NodeMechanismCache {
 public:
  // What GetOrCompute hands out: a pinned, shareable view of the solved
  // mechanism. Safe to use after Clear()/eviction for as long as the
  // caller holds it.
  using MechanismPtr = std::shared_ptr<const mechanisms::OptimalMechanism>;

  using Factory = std::function<
      StatusOr<std::unique_ptr<mechanisms::OptimalMechanism>>()>;

  // `byte_budget` == 0 means unbounded (no eviction).
  explicit NodeMechanismCache(int num_shards = 16, size_t byte_budget = 0);

  NodeMechanismCache(const NodeMechanismCache&) = delete;
  NodeMechanismCache& operator=(const NodeMechanismCache&) = delete;

  // Returns the cached mechanism for `node`, running `factory` (under
  // singleflight) to build it on a miss. `*cache_hit` (optional) is set to
  // whether the value was already present. On factory failure every
  // waiter receives the same error and the entry is dropped, so a later
  // call retries. The returned pointer stays valid for as long as the
  // caller holds it, whatever Clear()/eviction do meanwhile.
  StatusOr<MechanismPtr> GetOrCompute(spatial::NodeIndex node,
                                      const Factory& factory,
                                      bool* cache_hit = nullptr);

  // Inserts an already-built mechanism (e.g. rehydrated from a bundle)
  // as a ready entry, charging its footprint against the byte budget.
  // Fails with kAlreadyExists-style FailedPrecondition when the node is
  // present (ready or in flight) — bundle loads happen before serving
  // starts, so a collision means the caller loaded twice.
  Status Publish(spatial::NodeIndex node, MechanismPtr mech);

  // Non-building probe: the pinned mechanism when `node` is resident and
  // successfully built, nullptr otherwise (absent, in flight, or failed).
  // Does not count as a lookup and does not touch LRU recency — serving-
  // plan builders use it to pin what is already warm without skewing the
  // hit rate or protecting cold entries, and the resident-only audit walk
  // probes through a const cache for the same reason.
  MechanismPtr TryGet(spatial::NodeIndex node) const;

  // Monotonic counter bumped on every map mutation that can change what a
  // serving plan would pin: a successful publish, an eviction, a Clear().
  // Plans record the value they were built against and rebuild on
  // mismatch (see MultiStepMechanism's serving plan).
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  // Number of completed (successfully built) entries.
  size_t size() const;

  // Number of times a thread blocked on another thread's in-flight build
  // (diagnostics for the singleflight tests).
  uint64_t singleflight_waits() const {
    return singleflight_waits_.load(std::memory_order_relaxed);
  }

  // Bytes currently charged to completed entries (0 when everything has
  // been evicted/cleared; excludes mechanisms pinned only by readers).
  size_t bytes_resident() const {
    return bytes_resident_.load(std::memory_order_relaxed);
  }
  size_t byte_budget() const { return byte_budget_; }

  // Entries evicted by the byte-budget policy (Clear() is not counted).
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  // Total GetOrCompute calls (TryGet probes excluded). The serving-plan
  // tests assert this stays flat across fully warm walks.
  uint64_t lookups() const {
    return lookups_.load(std::memory_order_relaxed);
  }

  // GetOrCompute calls answered from a ready entry.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }

  // Fraction of GetOrCompute calls answered from a ready entry.
  double hit_rate() const {
    const uint64_t lookups = lookups_.load(std::memory_order_relaxed);
    return lookups == 0
               ? 0.0
               : static_cast<double>(
                     hits_.load(std::memory_order_relaxed)) /
                     static_cast<double>(lookups);
  }

  void Clear();

  // Evicts LRU entries until bytes_resident() <= byte_budget() or nothing
  // evictable remains. No-op when unbounded or already within budget. The
  // insert path runs this after charging a new entry; MSM walks that fell
  // through to the cache run it once their pins are released, since
  // entries pinned at insert time were skipped by the evictor and would
  // otherwise stay resident over budget until the next insert.
  void EvictToBudget();

 private:
  struct Entry {
    std::mutex mu;
    std::condition_variable cv;
    // Published with release order once `status`/`mech` are final; the
    // lock-free hit path reads it with acquire.
    std::atomic<bool> ready{false};
    Status status;
    MechanismPtr mech;
    // Footprint charged against the byte budget. Written once (under the
    // shard's unique lock) when the build is published; 0 = not charged.
    size_t bytes = 0;
    // Global LRU tick of the last hit (relaxed; approximate order is
    // enough for eviction).
    std::atomic<uint64_t> last_used{0};
  };

  struct Shard {
    mutable std::shared_mutex mu;
    std::unordered_map<spatial::NodeIndex, std::shared_ptr<Entry>> map;
  };

  Shard& ShardFor(spatial::NodeIndex node) {
    const size_t h = std::hash<spatial::NodeIndex>{}(node);
    return shards_[h % shards_.size()];
  }
  const Shard& ShardFor(spatial::NodeIndex node) const {
    const size_t h = std::hash<spatial::NodeIndex>{}(node);
    return shards_[h % shards_.size()];
  }

  uint64_t NextTick() { return tick_.fetch_add(1, std::memory_order_relaxed); }

  void BumpGeneration() {
    generation_.fetch_add(1, std::memory_order_release);
  }

  // True when the entry is a completed success nobody else references:
  // the map holds the only Entry handle and the cache holds the only
  // mechanism handle. Callers must hold the entry's shard lock (shared is
  // enough — use counts are atomic and a false positive is re-validated
  // under the unique lock before the erase).
  static bool Evictable(const std::shared_ptr<Entry>& entry);

  // One eviction attempt; false when no shard has an evictable entry.
  bool TryEvictOne();

  std::vector<Shard> shards_;
  const size_t byte_budget_;
  std::atomic<uint64_t> generation_{0};
  std::atomic<uint64_t> tick_{1};
  std::atomic<size_t> bytes_resident_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> lookups_{0};
  std::atomic<uint64_t> singleflight_waits_{0};
};

}  // namespace geopriv::core

#endif  // GEOPRIV_CORE_NODE_CACHE_H_
