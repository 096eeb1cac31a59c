#include "core/msm.h"

#include <algorithm>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <optional>
#include <queue>
#include <utility>

#include "base/check.h"
#include "base/thread_pool.h"
#include "obs/trace.h"

namespace geopriv::core {

namespace {

// Upper bound on nodes a serving plan may pin. Bounds both the rebuild
// cost and the bytes the plan holds unevictable; with a byte budget the
// plan additionally stops at half the budget so an evictable pool remains.
constexpr size_t kMaxPlanNodes = 4096;

}  // namespace

StatusOr<MultiStepMechanism> MultiStepMechanism::Create(
    double eps, std::shared_ptr<const spatial::HierarchicalPartition> index,
    std::shared_ptr<const prior::Prior> prior, const MsmOptions& options) {
  if (!(eps > 0.0)) {
    return Status::InvalidArgument("eps must be positive");
  }
  if (index == nullptr || prior == nullptr) {
    return Status::InvalidArgument("index and prior must be non-null");
  }
  GEOPRIV_ASSIGN_OR_RETURN(BudgetAllocation budget,
                           AllocateBudget(eps, *index, options.budget));
  return MultiStepMechanism(eps, std::move(index), std::move(prior), options,
                            std::move(budget));
}

MsmStats MultiStepMechanism::stats() const {
  MsmStats snapshot;
  for (const AtomicStats::Slot& slot : stats_->slots) {
    snapshot.lp_solves += slot.lp_solves.load(std::memory_order_relaxed);
    snapshot.lp_seconds += slot.lp_seconds.load(std::memory_order_relaxed);
    snapshot.lp_pricing_seconds +=
        slot.lp_pricing_seconds.load(std::memory_order_relaxed);
    snapshot.lp_simplex_seconds +=
        slot.lp_simplex_seconds.load(std::memory_order_relaxed);
    snapshot.lp_refactor_seconds +=
        slot.lp_refactor_seconds.load(std::memory_order_relaxed);
    snapshot.lp_violations_found +=
        slot.lp_violations_found.load(std::memory_order_relaxed);
    snapshot.uniform_prior_fallbacks +=
        slot.uniform_prior_fallbacks.load(std::memory_order_relaxed);
    snapshot.plan_builds += slot.plan_builds.load(std::memory_order_relaxed);
    snapshot.plan_levels += slot.plan_levels.load(std::memory_order_relaxed);
    snapshot.fallthrough_levels +=
        slot.fallthrough_levels.load(std::memory_order_relaxed);
  }
  snapshot.cache_hits = static_cast<int64_t>(cache_->hits());
  snapshot.cache_evictions = static_cast<int64_t>(cache_->evictions());
  snapshot.cache_bytes_resident =
      static_cast<int64_t>(cache_->bytes_resident());
  snapshot.cache_hit_rate = cache_->hit_rate();
  return snapshot;
}

StatusOr<std::unique_ptr<mechanisms::OptimalMechanism>>
MultiStepMechanism::BuildNodeMechanism(spatial::NodeIndex node,
                                       int level) const {
  GEOPRIV_CHECK_MSG(level >= 1 && level <= budget_.height(),
                    "level outside allocation");
  std::shared_ptr<const mechanisms::OptTemplate> level_template;
  if (level >= 2) {
    GEOPRIV_ASSIGN_OR_RETURN(level_template, LevelTemplate(level));
  }
  const std::vector<spatial::ChildInfo> children = index_->Children(node);
  std::vector<geo::Point> centers;
  std::vector<geo::BBox> boxes;
  centers.reserve(children.size());
  boxes.reserve(children.size());
  for (const spatial::ChildInfo& c : children) {
    centers.push_back(c.bounds.Center());
    boxes.push_back(c.bounds);
  }
  std::vector<double> node_prior = prior_->CellMasses(boxes);
  double total = 0.0;
  for (double m : node_prior) total += m;
  if (!(total > 1e-15)) {
    // Degenerate node: the conditional prior carries no mass (e.g. an
    // index quadrant the training data never visited). Fall back to the
    // zero-knowledge uniform prior over the children — and count it, so
    // operators can see how often the mechanism runs blind.
    std::fill(node_prior.begin(), node_prior.end(),
              1.0 / static_cast<double>(node_prior.size()));
    stats_->Local().uniform_prior_fallbacks.fetch_add(
        1, std::memory_order_relaxed);
  }
  const uint64_t build_start =
      obs::ActiveTrace() != nullptr ? obs::NowTicks() : 0;
  GEOPRIV_ASSIGN_OR_RETURN(
      mechanisms::OptimalMechanism mech,
      mechanisms::OptimalMechanism::Create(
          budget_.per_level[level - 1], std::move(centers), node_prior,
          options_.metric, options_.opt, level_template.get()));
  RecordLp(mech.stats(), build_start, node, level, /*node_solve=*/true);
  return std::make_unique<mechanisms::OptimalMechanism>(std::move(mech));
}

void MultiStepMechanism::RecordLp(const mechanisms::OptSolveStats& os,
                                  uint64_t start, spatial::NodeIndex node,
                                  int level, bool node_solve) const {
  if (obs::RequestTrace* const trace = obs::ActiveTrace()) {
    // LP phase spans, laid end-to-end inside the build window and sized by
    // the solver's own phase clocks (pricing / refactorize / pivoting; the
    // refactorizations run inside simplex_seconds, so pivoting gets the
    // remainder). Payload: node index and budget level only.
    const uint64_t build_end = obs::NowTicks();
    uint64_t t = start;
    const auto phase = [&](obs::SpanKind kind, double seconds) {
      const uint64_t end = std::min(
          t + obs::SecondsToTicks(std::max(seconds, 0.0)), build_end);
      trace->Emit(kind, t, end, static_cast<int64_t>(node), level);
      t = end;
    };
    phase(obs::SpanKind::kLpPricing, os.pricing_seconds);
    phase(obs::SpanKind::kLpRefactor, os.refactor_seconds);
    phase(obs::SpanKind::kLpSimplex,
          os.simplex_seconds - os.refactor_seconds);
  }
  AtomicStats::Slot& slot = stats_->Local();
  if (node_solve) slot.lp_solves.fetch_add(1, std::memory_order_relaxed);
  slot.lp_seconds.fetch_add(os.solve_seconds, std::memory_order_relaxed);
  slot.lp_pricing_seconds.fetch_add(os.pricing_seconds,
                                    std::memory_order_relaxed);
  slot.lp_simplex_seconds.fetch_add(os.simplex_seconds,
                                    std::memory_order_relaxed);
  slot.lp_refactor_seconds.fetch_add(os.refactor_seconds,
                                     std::memory_order_relaxed);
  slot.lp_violations_found.fetch_add(os.violations_found,
                                     std::memory_order_relaxed);
}

StatusOr<std::shared_ptr<const mechanisms::OptTemplate>>
MultiStepMechanism::LevelTemplate(int level) const {
  TemplateState& ts = *templates_;
  const size_t slot = static_cast<size_t>(level - 1);
  std::unique_lock<std::mutex> lock(ts.mu);
  if (ts.ready[slot] != nullptr) return ts.ready[slot];
  if (const std::shared_ptr<TemplateState::Build> build = ts.inflight[slot]) {
    ts.cv.wait(lock, [&] { return build->done; });
    if (!build->status.ok()) return build->status;
    return build->result;
  }
  const auto build = std::make_shared<TemplateState::Build>();
  ts.inflight[slot] = build;
  lock.unlock();
  StatusOr<std::shared_ptr<const mechanisms::OptTemplate>> built =
      BuildLevelTemplate(level);
  lock.lock();
  ts.inflight[slot] = nullptr;
  build->done = true;
  if (built.ok()) {
    build->result = ts.ready[slot] = *built;
  } else {
    build->status = built.status();
  }
  ts.cv.notify_all();
  return built;
}

StatusOr<std::shared_ptr<const mechanisms::OptTemplate>>
MultiStepMechanism::BuildLevelTemplate(int level) const {
  // The donor: the first internal node of depth level - 1 in child order,
  // found depth-first.
  std::vector<std::pair<spatial::NodeIndex, int>> stack = {
      {spatial::HierarchicalPartition::kRoot, 1}};
  std::optional<spatial::NodeIndex> donor;
  while (!stack.empty() && !donor.has_value()) {
    const auto [node, node_level] = stack.back();
    stack.pop_back();
    if (index_->IsLeaf(node)) continue;
    if (node_level == level) {
      donor = node;
      continue;
    }
    const std::vector<spatial::ChildInfo> children = index_->Children(node);
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.emplace_back(it->id, node_level + 1);
    }
  }
  if (!donor.has_value()) {
    return std::shared_ptr<const mechanisms::OptTemplate>();
  }
  std::vector<geo::Point> centers;
  for (const spatial::ChildInfo& c : index_->Children(*donor)) {
    centers.push_back(c.bounds.Center());
  }
  std::vector<double> uniform(centers.size(), 1.0);
  const uint64_t build_start =
      obs::ActiveTrace() != nullptr ? obs::NowTicks() : 0;
  auto level_template = std::make_shared<mechanisms::OptTemplate>();
  GEOPRIV_ASSIGN_OR_RETURN(
      const mechanisms::OptimalMechanism mech,
      mechanisms::OptimalMechanism::Create(
          budget_.per_level[level - 1], std::move(centers),
          std::move(uniform), options_.metric, options_.opt, nullptr,
          level_template.get()));
  RecordLp(mech.stats(), build_start, *donor, level, /*node_solve=*/false);
  return std::shared_ptr<const mechanisms::OptTemplate>(
      std::move(level_template));
}

StatusOr<NodeMechanismCache::MechanismPtr>
MultiStepMechanism::NodeMechanism(spatial::NodeIndex node, int level,
                                  bool* cache_hit) const {
  return cache_->GetOrCompute(
      node, [&] { return BuildNodeMechanism(node, level); }, cache_hit);
}

StatusOr<int> MultiStepMechanism::PrewarmTopNodes(int k,
                                                  ThreadPool* pool) const {
  if (k <= 0) return 0;
  // Best-first walk by unconditional prior mass. Expanding only claimed
  // nodes guarantees every warmed node's ancestors are claimed first (a
  // node's mass never exceeds its parent's), matching what a query
  // through that node will touch. Each drainer claims the current best
  // candidate and pushes its children in the same lock hold, so claims
  // follow the serial order whatever the thread count, then builds it
  // outside the lock (through the cache's singleflight path).
  struct Candidate {
    double mass;
    spatial::NodeIndex node;
    int level;
    bool operator<(const Candidate& other) const {
      return mass < other.mass;
    }
  };
  struct Shared {
    std::mutex mu;
    std::condition_variable cv;
    std::priority_queue<Candidate> frontier;
    int claimed = 0;   // candidates handed to a drainer (claimed <= k)
    int warmed = 0;    // builds that completed successfully
    int inflight = 0;  // builds currently running
    bool failed = false;
    Status error = Status::OK();
  };
  auto shared = std::make_shared<Shared>();
  if (!index_->IsLeaf(spatial::HierarchicalPartition::kRoot)) {
    shared->frontier.push({1.0, spatial::HierarchicalPartition::kRoot, 1});
  }
  const auto drain = [this, k, shared] {
    std::unique_lock<std::mutex> lock(shared->mu);
    for (;;) {
      shared->cv.wait(lock, [&] {
        return shared->failed || shared->claimed >= k ||
               !shared->frontier.empty() || shared->inflight == 0;
      });
      if (shared->failed || shared->claimed >= k ||
          (shared->frontier.empty() && shared->inflight == 0)) {
        return;
      }
      if (shared->frontier.empty()) continue;  // spurious predicate pass
      const Candidate top = shared->frontier.top();
      shared->frontier.pop();
      ++shared->claimed;
      ++shared->inflight;
      if (top.level + 1 <= budget_.height()) {
        for (const spatial::ChildInfo& child : index_->Children(top.node)) {
          if (index_->IsLeaf(child.id)) continue;
          shared->frontier.push(
              {prior_->MassIn(child.bounds), child.id, top.level + 1});
        }
      }
      shared->cv.notify_all();
      lock.unlock();

      const auto result = NodeMechanism(top.node, top.level);

      lock.lock();
      --shared->inflight;
      if (!result.ok()) {
        if (!shared->failed) {
          shared->failed = true;
          shared->error = result.status();
        }
      } else {
        ++shared->warmed;
      }
      shared->cv.notify_all();
    }
  };
  // Recruit helpers non-blockingly; a busy or shut-down pool just lowers
  // the effective parallelism (the calling thread always participates).
  if (pool != nullptr) {
    const int helpers = std::min(pool->num_threads(), std::max(0, k - 1));
    for (int h = 0; h < helpers; ++h) {
      if (!pool->TrySubmit([drain](int /*worker*/) { drain(); })) break;
    }
  }
  drain();
  std::unique_lock<std::mutex> lock(shared->mu);
  shared->cv.wait(lock, [&] { return shared->inflight == 0; });
  if (shared->failed) return shared->error;
  return shared->warmed;
}

std::shared_ptr<const MultiStepMechanism::ServingPlan>
MultiStepMechanism::BuildPlan(uint64_t generation) const {
  auto plan = std::make_shared<ServingPlan>();
  plan->generation = generation;
  stats_->Local().plan_builds.fetch_add(1, std::memory_order_relaxed);

  // Pins make entries unevictable, so a bounded cache only lends the plan
  // half its budget — the evictor always keeps a working pool.
  const size_t byte_cap = options_.cache_byte_budget > 0
                              ? options_.cache_byte_budget / 2
                              : std::numeric_limits<size_t>::max();

  const spatial::NodeIndex root = spatial::HierarchicalPartition::kRoot;
  if (budget_.height() < 1 || index_->IsLeaf(root)) {
    return plan;
  }
  NodeMechanismCache::MechanismPtr root_mech = cache_->TryGet(root);
  if (root_mech == nullptr || root_mech->MemoryFootprintBytes() > byte_cap) {
    return plan;
  }
  plan->pinned_bytes = root_mech->MemoryFootprintBytes();
  plan->mech.push_back(std::move(root_mech));
  plan->child_begin.push_back(0);
  plan->child_count.push_back(0);

  // BFS: a node is admitted (mechanism pinned, plan id assigned) before it
  // is expanded, so parents always precede children and child_plan links
  // only ever point at finished plan nodes.
  struct Item {
    spatial::NodeIndex node;
    int level;  // budget level of choosing among this node's children
    int32_t plan_id;
  };
  std::vector<Item> queue;
  queue.push_back({root, 1, 0});
  for (size_t qi = 0; qi < queue.size(); ++qi) {
    const Item item = queue[qi];
    const std::vector<spatial::ChildInfo> children =
        index_->Children(item.node);
    plan->child_begin[item.plan_id] =
        static_cast<int32_t>(plan->child_id.size());
    plan->child_count[item.plan_id] = static_cast<int32_t>(children.size());
    for (const spatial::ChildInfo& c : children) {
      plan->min_x.push_back(c.bounds.min_x);
      plan->min_y.push_back(c.bounds.min_y);
      plan->max_x.push_back(c.bounds.max_x);
      plan->max_y.push_back(c.bounds.max_y);
      const geo::Point center = c.bounds.Center();
      plan->center_x.push_back(center.x);
      plan->center_y.push_back(center.y);
      plan->child_id.push_back(c.id);
      const bool leaf = index_->IsLeaf(c.id);
      plan->child_is_leaf.push_back(leaf ? 1 : 0);
      int32_t child_plan = -1;
      if (!leaf && item.level + 1 <= budget_.height() &&
          plan->mech.size() < kMaxPlanNodes) {
        NodeMechanismCache::MechanismPtr m = cache_->TryGet(c.id);
        if (m != nullptr) {
          const size_t bytes = m->MemoryFootprintBytes();
          if (plan->pinned_bytes + bytes <= byte_cap) {
            child_plan = static_cast<int32_t>(plan->mech.size());
            plan->pinned_bytes += bytes;
            plan->mech.push_back(std::move(m));
            plan->child_begin.push_back(0);
            plan->child_count.push_back(0);
            queue.push_back({c.id, item.level + 1, child_plan});
          }
        }
      }
      plan->child_plan.push_back(child_plan);
    }
  }
  return plan;
}

std::shared_ptr<const MultiStepMechanism::ServingPlan>
MultiStepMechanism::CurrentPlan() const {
  std::shared_ptr<const ServingPlan> plan =
      plan_state_->plan.load(std::memory_order_acquire);
  const uint64_t gen = cache_->generation();
  if (plan != nullptr && plan->generation == gen) return plan;
  bool expected = false;
  if (!plan_state_->building.compare_exchange_strong(
          expected, true, std::memory_order_acq_rel)) {
    // A rebuild is in flight. The stale plan (or none, on a cold start)
    // is still safe: its pins keep every matrix it references alive.
    return plan;
  }
  std::shared_ptr<const ServingPlan> rebuilt = BuildPlan(gen);
  plan_state_->plan.store(rebuilt, std::memory_order_release);
  plan_state_->building.store(false, std::memory_order_release);
  return rebuilt;
}

size_t MultiStepMechanism::serving_plan_nodes() const {
  const std::shared_ptr<const ServingPlan> plan = CurrentPlan();
  return plan == nullptr ? 0 : plan->mech.size();
}

StatusOr<geo::Point> MultiStepMechanism::WalkOne(const ServingPlan* plan,
                                                 geo::Point actual,
                                                 rng::Rng& rng) const {
  spatial::NodeIndex node = spatial::HierarchicalPartition::kRoot;
  geo::Point reported = index_->Bounds(node).Center();
  int level = 1;

  // Tracing: one thread-local load up front; when no trace is active the
  // per-level instrumentation below is a dead branch.
  obs::RequestTrace* const trace = obs::ActiveTrace();
  const uint64_t walk_start = trace != nullptr ? obs::NowTicks() : 0;
  uint64_t level_start = walk_start;

  // Phase 1: pinned-plan walk. No locks, no cache probes, no per-level
  // refcount traffic — the caller's plan pointer pins everything. The
  // caller paid for that pin once: an atomic shared_ptr load per walk
  // (four shared read-modify-writes under libstdc++), or a PlanPin across
  // walks. The candidate scan, the uniform fallback, and ReportIndex
  // consume `rng` exactly as the cache path below does, so the two phases
  // compose into a walk bit-identical to the pre-plan implementation.
  if (plan != nullptr && !plan->empty()) {
    int64_t plan_levels = 0;
    bool done = false;
    int32_t p = 0;
    for (;;) {
      const int32_t begin = plan->child_begin[p];
      const int32_t count = plan->child_count[p];
      // Snap the actual location to its enclosing child; random if
      // outside the current node (Algorithm 1, lines 9-10).
      int x = -1;
      for (int32_t c = 0; c < count; ++c) {
        const int32_t s = begin + c;
        if (actual.x >= plan->min_x[s] && actual.x <= plan->max_x[s] &&
            actual.y >= plan->min_y[s] && actual.y <= plan->max_y[s]) {
          x = static_cast<int>(c);
          break;
        }
      }
      if (x < 0) {
        x = static_cast<int>(rng.UniformInt(static_cast<size_t>(count)));
      }
      const int z = plan->mech[p]->ReportIndex(x, rng);
      const int32_t s = begin + z;
      reported = {plan->center_x[s], plan->center_y[s]};
      const spatial::NodeIndex expanded = node;
      node = plan->child_id[s];
      if (trace != nullptr) {
        const uint64_t now = obs::NowTicks();
        trace->Emit(obs::SpanKind::kWalkLevelPlan, level_start, now,
                    static_cast<int64_t>(expanded), level);
        level_start = now;
      }
      ++level;
      ++plan_levels;
      if (level > budget_.height() || plan->child_is_leaf[s] != 0) {
        done = true;
        break;
      }
      const int32_t next = plan->child_plan[s];
      if (next < 0) break;  // cold subtree: resume on the cache path
      p = next;
    }
    stats_->Local().plan_levels.fetch_add(plan_levels,
                                          std::memory_order_relaxed);
    if (done) {
      if (trace != nullptr) {
        trace->Emit(obs::SpanKind::kWalk, walk_start, obs::NowTicks(),
                    static_cast<int64_t>(node), level);
      }
      return reported;
    }
  }

  // Phase 2: singleflight-cache walk for whatever the plan didn't cover
  // (everything, when no plan is available).
  int64_t fallthrough_levels = 0;
  for (; level <= budget_.height(); ++level) {
    if (index_->IsLeaf(node)) break;  // adaptive indexes may bottom out
    const spatial::NodeIndex at = node;
    const std::vector<spatial::ChildInfo> children = index_->Children(node);
    bool cache_hit = false;
    GEOPRIV_ASSIGN_OR_RETURN(const NodeMechanismCache::MechanismPtr mech,
                             NodeMechanism(node, level, &cache_hit));
    if (trace != nullptr) {
      const uint64_t now = obs::NowTicks();
      const obs::SpanKind kind = cache_hit
                                     ? obs::SpanKind::kWalkLevelCacheHit
                                     : obs::SpanKind::kWalkLevelColdBuild;
      trace->Emit(kind, level_start, now, static_cast<int64_t>(at), level);
      level_start = now;
    }
    // Snap the actual location to its enclosing child; random if outside
    // the current node (Algorithm 1, lines 9-10).
    int x = -1;
    for (size_t c = 0; c < children.size(); ++c) {
      if (children[c].bounds.Contains(actual)) {
        x = static_cast<int>(c);
        break;
      }
    }
    if (x < 0) {
      x = static_cast<int>(rng.UniformInt(children.size()));
    }
    const int z = mech->ReportIndex(x, rng);
    node = children[z].id;
    reported = children[z].bounds.Center();
    ++fallthrough_levels;
  }
  if (fallthrough_levels > 0) {
    stats_->Local().fallthrough_levels.fetch_add(fallthrough_levels,
                                                 std::memory_order_relaxed);
    cache_->EvictToBudget();
  }
  if (trace != nullptr) {
    trace->Emit(obs::SpanKind::kWalk, walk_start, obs::NowTicks(),
                static_cast<int64_t>(node), level);
  }
  return reported;
}

StatusOr<geo::Point> MultiStepMechanism::ReportOrStatus(
    geo::Point actual, rng::Rng& rng) const {
  PlanPin pin;
  return ReportOrStatus(actual, rng, pin);
}

StatusOr<geo::Point> MultiStepMechanism::ReportOrStatus(geo::Point actual,
                                                        rng::Rng& rng,
                                                        PlanPin& pin) const {
  if (pin.owner_ != id_ || pin.plan_ == nullptr ||
      pin.plan_->generation != cache_->generation()) {
    pin.plan_ = CurrentPlan();
    pin.owner_ = id_;
  }
  return WalkOne(pin.plan_.get(), actual, rng);
}

uint64_t MultiStepMechanism::NextId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

geo::Point MultiStepMechanism::Report(geo::Point actual, rng::Rng& rng) {
  auto result = ReportOrStatus(actual, rng);
  GEOPRIV_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  return result.value();
}

}  // namespace geopriv::core
