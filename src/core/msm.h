// Multi-Step Mechanism (MSM) — the paper's primary contribution
// (Algorithm 1). Starting from the index root, each level i:
//   1. builds the candidate set from the children of the node selected at
//      level i-1,
//   2. snaps the user's actual location to its enclosing child (or a
//      uniformly random child if the actual location fell outside the
//      node — lines 9-10 of Algorithm 1),
//   3. runs the optimal mechanism OPT with the level budget eps_i and the
//      prior conditioned on the node, and
//   4. samples the next node from the resulting distribution.
// The leaf-level output's center is reported. The level budgets sum to
// eps, but nothing proves the composed walk eps-GeoInd: each node's K
// meets its eps_i constraints only between its children's centers, and
// only up to a row-scaled residual (kViolationTolerance) that does not
// bound the likelihood ratio. Measured end to end over leaf centers, the
// walk's worst ratio reached 2.78 eps (eps 0.5, fanout 3).
//
// Solved per-node LPs are cached in a sharded, thread-safe
// NodeMechanismCache with singleflight semantics: repeated queries that
// walk through the same node reuse its transition matrix, so the LP cost
// is paid once per visited node rather than once per query — even when
// many threads share one mechanism (see the micro/throughput benches for
// the effect).
//
// Thread safety: ReportOrStatus and Report are safe to call concurrently
// as long as each thread draws from its own Rng; stats are sharded
// per-thread atomics.
//
// Warm serving path: the mechanism maintains a ServingPlan — a flattened,
// contiguous SoA image of the resident hot subtree (per-level child
// bounds/centers/ids plus one shared_ptr-pinned mechanism per plan node).
// A walk over the plan takes zero mutexes and bounces zero refcounts per
// level. The plan itself is pinned either per walk, through the
// std::atomic<std::shared_ptr> that publishes it (under libstdc++ that
// load is a lock-bit CAS, a refcount increment, an unlock and a
// decrement at the end: four read-modify-writes on lines every walker
// shares), or across walks by a caller-held PlanPin, which costs one
// plain atomic load of the cache generation while the plan is current.
// Nodes outside the plan fall through to the singleflight cache exactly as
// before, and the plan is rebuilt (by at most one walker at a time, while
// the others keep using the previous — still valid — plan) whenever the
// cache's generation counter moves: publish, eviction, or Clear().
// Plan and legacy walks are bit-identical: same candidate scan order, same
// RNG draw sequence, same solved matrices.
//
// Level templates: every node of one level below the root has congruent
// children and the same budget eps_i, so the first rounds of their LPs
// differ only in the right-hand side. Each such level gets one template,
// the optimal first-round basis of the level's first node under a uniform
// prior, built once on first need; every node solve of the level starts
// from it with the dual simplex (see OptTemplate). A node's K is then a
// function of its own inputs alone, whatever the thread count or the
// order in which nodes are solved. The root level has one node and no
// template; nodes whose children are not congruent to the template's (on
// k-d and quadtree indexes) fail its signature check and start cold.

#ifndef GEOPRIV_CORE_MSM_H_
#define GEOPRIV_CORE_MSM_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/sharded_counter.h"
#include "base/status.h"
#include "core/budget.h"
#include "core/node_cache.h"
#include "geo/distance.h"
#include "mechanisms/mechanism.h"
#include "mechanisms/optimal.h"
#include "prior/prior.h"
#include "spatial/hierarchical_partition.h"

namespace geopriv {
class ThreadPool;
}

namespace geopriv::core {

struct MsmOptions {
  BudgetOptions budget;
  mechanisms::OptimalMechanismOptions opt;
  geo::UtilityMetric metric = geo::UtilityMetric::kEuclidean;
  // Byte budget for the node cache's resident OPT matrices; past it the
  // cache evicts least-recently-used unpinned entries. 0 = unbounded.
  size_t cache_byte_budget = 0;
};

// Snapshot of the mechanism's counters (see MultiStepMechanism::stats()).
// lp_solves counts node solves; the LP clocks and lp_violations_found also
// include the solves that build the level templates.
struct MsmStats {
  int64_t lp_solves = 0;
  double lp_seconds = 0.0;
  int64_t cache_hits = 0;
  int64_t cache_evictions = 0;
  int64_t cache_bytes_resident = 0;
  double cache_hit_rate = 0.0;
  // Aggregated from the per-node OptSolveStats: wall-clock split of
  // lp_seconds between pricing scans and simplex pivoting, and the total
  // violated GeoInd constraints the pricing rounds surfaced.
  double lp_pricing_seconds = 0.0;
  double lp_simplex_seconds = 0.0;
  // Basis-refactorization share of lp_simplex_seconds (the third LP phase
  // the obs layer reports: pricing / refactorize / pivoting).
  double lp_refactor_seconds = 0.0;
  int64_t lp_violations_found = 0;
  // Nodes whose conditional prior carried no mass and fell back to the
  // uniform prior over their children.
  int64_t uniform_prior_fallbacks = 0;
  // Serving-plan counters: full rebuilds, levels walked inside the pinned
  // plan (lock-free), and levels that fell through to the singleflight
  // cache (cold subtree or stale plan).
  int64_t plan_builds = 0;
  int64_t plan_levels = 0;
  int64_t fallthrough_levels = 0;
};

class MultiStepMechanism final : public mechanisms::Mechanism {
  struct ServingPlan;

 public:
  // A caller-held pin of one mechanism's serving plan, for a caller that
  // walks many times from one thread: each service worker keeps one. The
  // walk over a pin reloads the plan only when the pin holds another
  // mechanism's plan, or none, or the cache generation moved since the
  // plan was built. The pin is keyed on the mechanism's id, which no
  // other mechanism ever takes, never on an address a later mechanism
  // may reuse. A pin keeps its plan's matrices alive, evicted or not,
  // until it is refreshed or Reset(). Not thread-safe: one pin per thread.
  class PlanPin {
   public:
    void Reset() {
      plan_.reset();
      owner_ = 0;
    }

   private:
    friend class MultiStepMechanism;
    std::shared_ptr<const ServingPlan> plan_;
    uint64_t owner_ = 0;  // id_ of the mechanism whose plan this is
  };

  // `index` and `prior` must outlive the mechanism. The budget allocation
  // is computed at construction time (it is data-independent).
  static StatusOr<MultiStepMechanism> Create(
      double eps, std::shared_ptr<const spatial::HierarchicalPartition> index,
      std::shared_ptr<const prior::Prior> prior, const MsmOptions& options);

  // Status-returning variant (LP time limits surface here). Thread-safe;
  // `rng` must be private to the calling thread. Walks over `pin`'s plan,
  // refreshing the pin first if it is stale (see PlanPin); without a pin,
  // over a fresh one, so every walk loads the current plan. The draws do
  // not depend on the pin.
  StatusOr<geo::Point> ReportOrStatus(geo::Point actual, rng::Rng& rng,
                                      PlanPin& pin) const;
  StatusOr<geo::Point> ReportOrStatus(geo::Point actual, rng::Rng& rng) const;

  // Mechanism interface; aborts on solver failure (which cannot happen with
  // the default unlimited solver options).
  geo::Point Report(geo::Point actual, rng::Rng& rng) override;
  std::string name() const override { return "MSM"; }

  const BudgetAllocation& budget() const { return budget_; }
  int height() const { return budget_.height(); }
  const spatial::HierarchicalPartition& index() const { return *index_; }
  double eps() const { return eps_; }
  const prior::Prior& prior() const { return *prior_; }
  const MsmOptions& options() const { return options_; }

  // Consistent snapshot of the atomic counters.
  MsmStats stats() const;

  // Node count of the current serving plan, rebuilding it first if the
  // cache generation moved (0 when nothing is warm).
  size_t serving_plan_nodes() const;
  size_t cache_size() const { return cache_->size(); }
  const NodeMechanismCache& cache() const { return *cache_; }
  NodeMechanismCache& cache() { return *cache_; }

  // Per-node mechanism for audits/tests (built and cached on demand).
  // `level` is the node's depth + 1, i.e. the budget index of its children.
  // The returned pointer pins the mechanism: it stays valid however long
  // the caller holds it, across cache Clear()/eviction. `cache_hit`
  // (optional) reports whether the mechanism was already resident — the
  // walk instrumentation uses it to tag levels cache-hit vs cold-build.
  StatusOr<NodeMechanismCache::MechanismPtr> NodeMechanism(
      spatial::NodeIndex node, int level, bool* cache_hit = nullptr) const;

  // Pre-solves the LPs of (up to) the `k` internal nodes with the largest
  // prior mass, walking the index root-down so a warmed node's ancestors
  // are warmed too. Goes through the cache's singleflight path, so it is
  // safe to run concurrently with live traffic (e.g. from a background
  // warmer). Returns the number of nodes now resident (hits included).
  //
  // With a pool, claimed nodes build concurrently: helper threads are
  // recruited non-blockingly from `pool` and the calling thread
  // participates, so a busy or shut-down pool just lowers the effective
  // parallelism. A node's children enter the frontier when the node is
  // claimed, under the same lock hold, so the claim sequence, and with it
  // the set of nodes warmed, equals the serial walk's at any thread count;
  // a child may build while its parent still solves. Any failed solve
  // fails the prewarm.
  StatusOr<int> PrewarmTopNodes(int k, ThreadPool* pool = nullptr) const;

 private:
  // Atomic counterpart of MsmStats, sharded into cache-line-padded
  // per-thread slots so concurrent walkers never contend on a counter's
  // cache line; stats() sums the slots. Heap-allocated so the mechanism
  // stays movable (callers move the Create() result into smart pointers).
  struct AtomicStats {
    struct alignas(kCounterSlotAlign) Slot {
      std::atomic<int64_t> lp_solves{0};
      std::atomic<double> lp_seconds{0.0};
      std::atomic<double> lp_pricing_seconds{0.0};
      std::atomic<double> lp_simplex_seconds{0.0};
      std::atomic<double> lp_refactor_seconds{0.0};
      std::atomic<int64_t> lp_violations_found{0};
      std::atomic<int64_t> uniform_prior_fallbacks{0};
      std::atomic<int64_t> plan_builds{0};
      std::atomic<int64_t> plan_levels{0};
      std::atomic<int64_t> fallthrough_levels{0};
    };
    static constexpr int kSlots = 16;
    std::array<Slot, kSlots> slots;
    Slot& Local() { return slots[ThreadCounterSlot(kSlots)]; }
  };

  // Shards of the node cache (contention bound under concurrency).
  static constexpr int kCacheShards = 16;

  // Per-level templates, slot level - 1 (slot 0, the root's, stays
  // empty). A build in flight is shared by everyone who needs the level
  // meanwhile, as the node cache shares a node's; a failed build is
  // dropped, so the next need retries. Heap-allocated for movability.
  struct TemplateState {
    struct Build {
      bool done = false;
      Status status;
      std::shared_ptr<const mechanisms::OptTemplate> result;
    };
    explicit TemplateState(int levels) : ready(levels), inflight(levels) {}
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::shared_ptr<const mechanisms::OptTemplate>> ready;
    std::vector<std::shared_ptr<Build>> inflight;
  };

  // Flattened SoA image of the warm subtree. Plan node p's children live
  // in the flat child arrays at [child_begin[p], child_begin[p] +
  // child_count[p]), in the exact order Children() returns them, so the
  // candidate scan visits the same cells the legacy walk would. Each plan
  // node pins its solved mechanism for the plan's lifetime; child_plan[s]
  // is the child's own plan-node id, or -1 when a walk through that child
  // must fall through to the cache path (cold or capped-out subtree).
  // Immutable once published; a stale plan (generation behind the cache)
  // stays correct — the pins keep its matrices alive and rebuilt LPs are
  // deterministic — it just may miss newly warm nodes.
  struct ServingPlan {
    uint64_t generation = 0;
    // Per plan node.
    std::vector<int32_t> child_begin;
    std::vector<int32_t> child_count;
    std::vector<NodeMechanismCache::MechanismPtr> mech;
    // Per child slot (closed-interval bounds, matching BBox::Contains).
    std::vector<double> min_x, min_y, max_x, max_y;
    std::vector<double> center_x, center_y;
    std::vector<int32_t> child_plan;
    std::vector<spatial::NodeIndex> child_id;
    std::vector<uint8_t> child_is_leaf;
    size_t pinned_bytes = 0;
    bool empty() const { return mech.empty(); }
  };

  // Plan publication state; heap-allocated for movability. `plan` is the
  // epoch-published current plan (readers: one atomic shared_ptr load, or
  // a PlanPin); `building` elects a single rebuilder while everyone else
  // keeps serving from the stale-but-valid plan.
  struct PlanState {
    std::atomic<std::shared_ptr<const ServingPlan>> plan{nullptr};
    std::atomic<bool> building{false};
  };

  MultiStepMechanism(
      double eps, std::shared_ptr<const spatial::HierarchicalPartition> index,
      std::shared_ptr<const prior::Prior> prior, MsmOptions options,
      BudgetAllocation budget)
      : eps_(eps),
        index_(std::move(index)),
        prior_(std::move(prior)),
        options_(std::move(options)),
        budget_(std::move(budget)),
        id_(NextId()),
        cache_(std::make_unique<NodeMechanismCache>(
            kCacheShards, options_.cache_byte_budget)),
        stats_(std::make_unique<AtomicStats>()),
        plan_state_(std::make_unique<PlanState>()),
        templates_(std::make_unique<TemplateState>(budget_.height())) {}

  // Solves the LP for `node` (no cache involvement), from its level's
  // template below the root.
  StatusOr<std::unique_ptr<mechanisms::OptimalMechanism>> BuildNodeMechanism(
      spatial::NodeIndex node, int level) const;

  // The template of `level` (>= 2), built on first need; see
  // TemplateState. nullptr when the level has no internal node.
  StatusOr<std::shared_ptr<const mechanisms::OptTemplate>> LevelTemplate(
      int level) const;
  // Solves the first node of `level` in child order under a uniform prior
  // and keeps its first-round basis.
  StatusOr<std::shared_ptr<const mechanisms::OptTemplate>>
  BuildLevelTemplate(int level) const;

  // Adds one solve's LP clocks to the stats (and to lp_solves when it is a
  // node's own solve, not a template's) and, under an active trace, lays
  // its pricing / refactorize / pivoting phases end to end from `start`.
  void RecordLp(const mechanisms::OptSolveStats& os, uint64_t start,
                spatial::NodeIndex node, int level, bool node_solve) const;

  // The current plan, rebuilt first (by this caller, if it wins the
  // single-rebuilder election) when the cache generation moved. nullptr
  // while another caller builds the first plan.
  std::shared_ptr<const ServingPlan> CurrentPlan() const;
  // BFS over the warm subtree, pinning via the cache's non-building probe.
  std::shared_ptr<const ServingPlan> BuildPlan(uint64_t generation) const;

  // One root-to-leaf walk: pinned-plan phase first, cache fall-through for
  // whatever the plan does not cover. `plan` may be nullptr. A walk that
  // fell through ends with a sweep of a bounded cache: its pins are gone
  // by then, and entries they kept from the evictor may have left the
  // cache over budget with no later insert to trigger eviction.
  StatusOr<geo::Point> WalkOne(const ServingPlan* plan, geo::Point actual,
                               rng::Rng& rng) const;

  // A process-wide counter's next value, from 1: a PlanPin's key.
  static uint64_t NextId();

  double eps_;
  std::shared_ptr<const spatial::HierarchicalPartition> index_;
  std::shared_ptr<const prior::Prior> prior_;
  MsmOptions options_;
  BudgetAllocation budget_;
  uint64_t id_;
  std::unique_ptr<NodeMechanismCache> cache_;
  std::unique_ptr<AtomicStats> stats_;
  std::unique_ptr<PlanState> plan_state_;
  std::unique_ptr<TemplateState> templates_;
};

}  // namespace geopriv::core

#endif  // GEOPRIV_CORE_MSM_H_
