#include "bench/suite/lifecycle.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <climits>
#include <cstdio>
#include <cstring>
#include <utility>

#include "audit/audit.h"
#include "bench/suite/harness.h"
#include "bundle/loader.h"
#include "bundle/region_bundle.h"
#include "geo/distance.h"
#include "geo/projection.h"
#include "mechanisms/planar_laplace.h"
#include "obs/trace.h"
#include "rng/rng.h"
#include "spatial/grid.h"

namespace geopriv::bench::suite {

namespace {

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

double MsSince(uint64_t start_ns) {
  return static_cast<double>(obs::NowTicks() - start_ns) / 1e6;
}

// Request spans of the traced open loop use ids from their own range, so
// the generator can parent its SubmitAsync span under a request span the
// worker records later.
constexpr uint64_t kRequestSpanBit = uint64_t{1} << 63;
constexpr size_t kTracedRequestEvery = 16;
constexpr size_t kTracedPeakSubmitEvery = 256;
constexpr uint64_t kRejectBackoffNs = 20'000;

}  // namespace

std::vector<core::LatLon> CityCheckins(const data::SyntheticCityConfig& preset,
                                       const Box& box, int64_t n,
                                       uint64_t city_seed) {
  auto projection =
      geo::EquirectangularProjection::Create(box.min_lat, box.min_lon);
  GEOPRIV_CHECK_OK(projection.status());
  const geo::Point ne = projection->Forward(box.max_lat, box.max_lon);
  data::SyntheticCityConfig config = preset;
  config.domain = geo::BBox{0.0, 0.0, ne.x, ne.y};
  config.num_checkins = n;
  config.num_users = std::min<int64_t>(config.num_users, n);
  config.seed = city_seed;
  auto dataset = data::GenerateSyntheticCity(config);
  GEOPRIV_CHECK_OK(dataset.status());
  std::vector<core::LatLon> out(dataset->points.size());
  for (size_t i = 0; i < out.size(); ++i) {
    projection->Inverse(dataset->points[i], &out[i].lat, &out[i].lon);
  }
  return out;
}

// ---- Host time ------------------------------------------------------------

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  // cpuN user nice system idle iowait irq softirq steal ...
  char line[512];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    // Per-CPU lines only: "cpu " (every CPU summed) has a space after it.
    if (std::strncmp(line, "cpu", 3) != 0 ||
        !std::isdigit(static_cast<unsigned char>(line[3]))) {
      continue;
    }
    unsigned cpu = 0;
    unsigned long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0,
                       irq = 0, softirq = 0, steal = 0;
    if (std::sscanf(line, "cpu%u %llu %llu %llu %llu %llu %llu %llu %llu",
                    &cpu, &user, &nice, &system, &idle, &iowait, &irq,
                    &softirq, &steal) != 9 ||
        cpu >= 4096) {
      continue;
    }
    if (cpu >= t.busy.size()) {
      t.busy.resize(cpu + 1);
      t.steal.resize(cpu + 1);
    }
    t.busy[cpu] = user + nice + system + irq + softirq;
    t.steal[cpu] = steal;
  }
  std::fclose(f);
  return t;
}

HostClock::HostClock(std::vector<int> cpus)
    : start_ns_(obs::NowTicks()),
      start_cpu_(ReadCpuTimes()),
      cpus_(std::move(cpus)) {}

Interval HostClock::Elapsed() const {
  const uint64_t now = obs::NowTicks();
  const CpuTimes cpu = ReadCpuTimes();
  double busy = 0.0, steal = 0.0;
  const size_t n = std::min(cpu.busy.size(), start_cpu_.busy.size());
  for (size_t c = 0; c < n; ++c) {
    if (!cpus_.empty() &&
        std::find(cpus_.begin(), cpus_.end(), static_cast<int>(c)) ==
            cpus_.end()) {
      continue;
    }
    busy += static_cast<double>(cpu.busy[c] - start_cpu_.busy[c]);
    steal += static_cast<double>(cpu.steal[c] - start_cpu_.steal[c]);
  }
  Interval out;
  out.wall_s = static_cast<double>(now - start_ns_) / 1e9;
  out.steal_share = busy + steal > 0.0 ? steal / (busy + steal) : 0.0;
  return out;
}

std::vector<double> OwnSeconds(const std::vector<Interval>& intervals) {
  std::vector<double> out;
  for (const Interval& i : intervals) out.push_back(i.own_s());
  return out;
}

std::vector<double> WallSeconds(const std::vector<Interval>& intervals) {
  std::vector<double> out;
  for (const Interval& i : intervals) out.push_back(i.wall_s);
  return out;
}

// ---- Host speed -----------------------------------------------------------

namespace {

// Keeps the probe loop's result observable, so it cannot be dropped.
volatile uint64_t g_probe_sink = 0;

double ThreadCpuMs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

}  // namespace

double ProbeHostMs() {
  // xorshift64: a chain of dependent shifts and xors that stays in
  // registers, so its time follows the core's clock and nothing else. The
  // seed is read at run time (any nonzero value works), so the compiler
  // cannot fold the chain.
  constexpr int kSteps = 2'000'000;
  std::vector<double> ms;
  uint64_t x = obs::NowTicks() | 1;
  for (int r = 0; r < kProbeRepeats; ++r) {
    const double start = ThreadCpuMs();
    for (int i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    ms.push_back(ThreadCpuMs() - start);
  }
  g_probe_sink = x;
  return Median(ms);
}

// ---- Build tier -----------------------------------------------------------

BuildResult BuildBundles(const std::vector<RegionInput>& regions,
                         const std::string& dir, SpanTrace* trace) {
  BuildResult out;
  SpanTrace::Scope phase(trace, "build");
  const std::vector<int> before = ProcessThreadIds();
  ThreadPool pool(3, 4096);
  out.threads = PinNewThreads(before, 1);
  const HostClock clock;
  for (const RegionInput& region : regions) {
    SpanTrace::Scope span(trace, "build_region");
    const bundle::RegionSpec& spec = region.spec;
    uint64_t t = obs::NowTicks();
    StatusOr<core::LocationSanitizer> sanitizer = [&] {
      SpanTrace::Scope s(trace, "Builder::Build");
      return core::LocationSanitizer::Builder()
          .SetRegionLatLon(spec.min_lat, spec.min_lon, spec.max_lat,
                           spec.max_lon)
          .SetEpsilon(spec.eps)
          .SetGranularity(spec.granularity)
          .SetRho(spec.rho)
          .SetPriorGranularity(spec.prior_granularity)
          .SetUtilityMetric(spec.metric)
          .AddCheckinsLatLon(spec.checkins)
          .SetConstructionPool(&pool)
          .Build();
    }();
    out.builder_s += MsSince(t) / 1e3;
    if (!sanitizer.ok()) {
      std::fprintf(stderr, "build %s: %s\n", region.id.c_str(),
                   sanitizer.status().ToString().c_str());
      ++out.failures;
      out.paths.emplace_back();
      continue;
    }
    t = obs::NowTicks();
    {
      SpanTrace::Scope s(trace, "PrewarmTopNodes");
      const int k = region.fully_prewarmed() ? INT_MAX : region.prewarm_nodes;
      if (!sanitizer->PrewarmTopNodes(k, &pool).ok()) ++out.failures;
    }
    out.prewarm_s += MsSince(t) / 1e3;
    const std::string path = dir + "/" + region.id + ".gpb";
    t = obs::NowTicks();
    StatusOr<bundle::BuildBundleResult> written = [&] {
      SpanTrace::Scope s(trace, "WriteRegionBundle");
      return bundle::WriteRegionBundle(*sanitizer, spec, path);
    }();
    out.write_ms += MsSince(t);
    if (written.ok()) {
      out.bytes += written->bytes;
    } else {
      std::fprintf(stderr, "write %s: %s\n", region.id.c_str(),
                   written.status().ToString().c_str());
      ++out.failures;
    }
    const core::MsmStats s = sanitizer->mechanism().stats();
    out.lp.lp_solves += s.lp_solves;
    out.lp.lp_seconds += s.lp_seconds;
    out.lp.lp_pricing_seconds += s.lp_pricing_seconds;
    out.lp.lp_simplex_seconds += s.lp_simplex_seconds;
    out.lp.lp_refactor_seconds += s.lp_refactor_seconds;
    out.paths.push_back(written.ok() ? path : std::string());
  }
  out.time = clock.Elapsed();
  return out;
}

// ---- Cold start -----------------------------------------------------------

namespace {

int64_t LpSolves(const service::SanitizationService& service,
                 const std::string& id) {
  auto info = service.GetRegionInfo(id);
  return info.ok() ? info->msm.lp_solves : 0;
}

}  // namespace

ColdStartResult ColdStartBundles(const std::vector<RegionInput>& regions,
                                 const std::vector<std::string>& paths,
                                 uint64_t seed, bool layer_probes,
                                 SpanTrace* trace) {
  ColdStartResult out;
  SpanTrace::Scope phase(trace, "cold_start");
  // Load + first reply of each bundle, one per round. A round visits every
  // bundle once, so a host stall of a few ms lands on one repeat of
  // several bundles, which their medians ignore, rather than on several
  // repeats of one bundle, which would move its median.
  std::vector<std::vector<double>> cold_ms(regions.size());
  for (int rep = 0; rep < kColdStartRepeats; ++rep) {
    for (size_t r = 0; r < regions.size(); ++r) {
      const RegionInput& region = regions[r];
      ++out.attempts;
      service::ServiceOptions options;
      options.num_workers = 1;
      options.seed = seed + static_cast<uint64_t>(rep);
      auto svc = StartService(options, &out.threads);
      uint64_t t = obs::NowTicks();
      Status loaded;
      {
        SpanTrace::Scope s(trace, "LoadRegionFromBundle");
        loaded = svc->LoadRegionFromBundle(region.id, paths[r]);
      }
      const double load_ms = MsSince(t);
      if (!loaded.ok()) {
        std::fprintf(stderr, "cold start %s: %s\n", region.id.c_str(),
                     loaded.ToString().c_str());
        ++out.failures;
        continue;
      }
      out.load_ms.push_back(load_ms);
      const int64_t solves_loaded = LpSolves(*svc, region.id);
      out.solves_at_load += solves_loaded;

      t = obs::NowTicks();
      service::SanitizeResult reply;
      {
        SpanTrace::Scope s(trace, "first_reply");
        reply = svc->SubmitFuture({region.id, region.queries[0], 0.0}).get();
      }
      const double reply_ms = MsSince(t);
      out.first_reply_ms.push_back(reply_ms);
      cold_ms[r].push_back(load_ms + reply_ms);
      if (!reply.status.ok()) ++out.failures;
      if (!region.box().Contains(reply.reported)) ++out.replies_out_of_box;
      if (region.fully_prewarmed()) {
        out.solves_before_first_reply +=
            LpSolves(*svc, region.id) - solves_loaded;
      }
    }
  }
  for (const std::vector<double>& ms : cold_ms) {
    out.sum_of_medians_ms += Median(ms);
  }

  if (!layer_probes) return out;
  for (size_t r = 0; r < regions.size(); ++r) {
    for (int rep = 0; rep < kColdStartRepeats; ++rep) {
      uint64_t t = obs::NowTicks();
      auto view = bundle::RegionBundleView::Open(paths[r]);
      out.open_ms.push_back(MsSince(t));
      if (!view.ok()) {
        ++out.failures;
        continue;
      }
      t = obs::NowTicks();
      auto loaded = bundle::LoadRegion(*view);
      out.rehydrate_ms.push_back(MsSince(t));
      if (!loaded.ok()) ++out.failures;
    }
  }
  return out;
}

// ---- Serving --------------------------------------------------------------

std::unique_ptr<service::SanitizationService> StartService(
    const service::ServiceOptions& options, int* threads) {
  const std::vector<int> before = ProcessThreadIds();
  auto svc = service::SanitizationService::Create(options);
  GEOPRIV_CHECK_OK(svc.status());
  *threads = std::max(*threads, PinNewThreads(before, 1));
  return std::move(svc).value();
}

RegionCounters SumRegionCounters(const service::SanitizationService& service,
                                 const std::vector<RegionInput>& regions) {
  RegionCounters c;
  for (const RegionInput& region : regions) {
    auto info = service.GetRegionInfo(region.id);
    if (!info.ok()) continue;
    c.plan_levels += info->msm.plan_levels;
    c.fallthrough_levels += info->msm.fallthrough_levels;
    c.lp_solves += info->msm.lp_solves;
    c.cache_hits += info->msm.cache_hits;
    c.singleflight_waits += info->singleflight_waits;
  }
  return c;
}

namespace {

// Written by the completion callback on a worker, read by the generator
// after Drain() (which orders it after every callback).
struct Outcome {
  uint64_t done_ns = 0;
  core::LatLon reported;
  bool completed = false;
  bool ok = false;
  bool fallback = false;
};

// What every callback of one open loop shares (captured by pointer, so
// the callback stays two pointers wide).
struct LoopShared {
  Outcome* outcomes = nullptr;
  const uint64_t* arrivals_ns = nullptr;
  uint64_t start_ns = 0;
  SpanTrace* trace = nullptr;
  uint64_t loop_span = 0;
};

}  // namespace

OpenLoopResult RunOpenLoop(service::SanitizationService& service,
                           const std::vector<RegionInput>& regions,
                           const std::vector<uint64_t>& arrivals_ns,
                           const std::vector<Target>& targets,
                           double deadline_ms, SpanTrace* trace) {
  OpenLoopResult out;
  const size_t n = arrivals_ns.size();
  std::vector<Outcome> outcomes(n);
  out.late_ms.resize(n);
  out.own_late_ms.resize(n);
  out.submit_us.resize(n);

  SpanTrace::Scope phase(trace, "open_loop");
  LoopShared shared;
  shared.outcomes = outcomes.data();
  shared.arrivals_ns = arrivals_ns.data();
  shared.trace = trace;
  shared.loop_span = phase.id();
  // A short lead so request 0 is not already late when the loop starts.
  shared.start_ns = obs::NowTicks() + 2'000'000;

  uint64_t previous_end = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t due = shared.start_ns + arrivals_ns[i];
    uint64_t now = obs::NowTicks();
    while (now < due) {
      CpuRelax();
      now = obs::NowTicks();
    }
    const Target& target = targets[i];
    const RegionInput& region = regions[target.region];
    Outcome* slot = &outcomes[i];
    const LoopShared* sh = &shared;
    const Status submitted = service.SubmitAsync(
        {region.id, region.queries[target.query], deadline_ms},
        [slot, sh](const service::SanitizeResult& r) {
          slot->done_ns = obs::NowTicks();
          slot->reported = r.reported;
          slot->ok = r.status.ok();
          slot->fallback = r.used_fallback;
          slot->completed = true;
          const size_t idx = static_cast<size_t>(slot - sh->outcomes);
          if (sh->trace != nullptr && idx % kTracedRequestEvery == 0) {
            sh->trace->RecordWithId(kRequestSpanBit | (idx + 1), "request",
                                    sh->start_ns + sh->arrivals_ns[idx],
                                    slot->done_ns, sh->loop_span, idx + 1);
          }
        });
    const uint64_t after = obs::NowTicks();
    out.late_ms[i] = static_cast<double>(now - due) / 1e6;
    out.own_late_ms[i] =
        static_cast<double>(now - std::max(due, previous_end)) / 1e6;
    previous_end = after;
    out.submit_us[i] = static_cast<double>(after - now) / 1e3;
    if (!submitted.ok()) ++out.rejected;
    if (trace != nullptr && i % kTracedRequestEvery == 0) {
      trace->Record("SubmitAsync", now, after, kRequestSpanBit | (i + 1),
                    i + 1);
    }
  }
  service.Drain();

  out.attempted = n;
  out.sojourn_ms.reserve(n);
  double loss_sum = 0.0;
  uint64_t loss_count = 0;
  for (size_t i = 0; i < n; ++i) {
    const Outcome& o = outcomes[i];
    if (!o.completed) continue;
    if (!o.ok) {
      ++out.failed;
      continue;
    }
    const Target& target = targets[i];
    const RegionInput& region = regions[target.region];
    const core::LatLon& truth = region.queries[target.query];
    out.sojourn_ms.push_back(
        static_cast<double>(o.done_ns - shared.start_ns - arrivals_ns[i]) /
        1e6);
    if (o.fallback) ++out.fallbacks;
    if (!region.box().Contains(o.reported)) ++out.out_of_box;
    loss_sum += geo::HaversineKm(truth.lat, truth.lon, o.reported.lat,
                                 o.reported.lon);
    ++loss_count;
  }
  out.utility_loss_km =
      loss_count > 0 ? loss_sum / static_cast<double>(loss_count) : 0.0;
  return out;
}

namespace {

struct PeakShared {
  struct alignas(64) Counter {
    std::atomic<uint64_t> value{0};
  };
  std::array<Counter, 4> done;  // per worker id
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> out_of_box{0};
};

}  // namespace

PeakResult RunPeak(service::SanitizationService& service,
                   const std::vector<RegionInput>& regions,
                   const std::vector<Target>& targets, double seconds,
                   double deadline_ms, SpanTrace* trace) {
  PeakResult out;
  SpanTrace::Scope phase(trace, "peak");
  PeakShared shared;
  std::vector<Box> boxes;
  for (const RegionInput& region : regions) boxes.push_back(region.box());

  // The generator (this thread, pinned) sets the pace at saturation: the
  // workers drain the queue faster than one thread can fill it.
  const HostClock clock({sched_getcpu()});
  const uint64_t start = obs::NowTicks();
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  size_t i = 0;
  for (uint64_t now = start; now < end; now = obs::NowTicks()) {
    const Target& target = targets[i % targets.size()];
    const RegionInput& region = regions[target.region];
    const Box* box = &boxes[target.region];
    PeakShared* sh = &shared;
    const Status submitted = service.SubmitAsync(
        {region.id, region.queries[target.query], deadline_ms},
        [sh, box](const service::SanitizeResult& r) {
          if (!r.status.ok()) {
            sh->failed.fetch_add(1, std::memory_order_relaxed);
          } else if (!box->Contains(r.reported)) {
            sh->out_of_box.fetch_add(1, std::memory_order_relaxed);
          }
          sh->done[static_cast<size_t>(r.worker_id) % 4].value.fetch_add(
              1, std::memory_order_relaxed);
        });
    if (!submitted.ok()) {
      ++out.retries;
      const uint64_t resume = obs::NowTicks() + kRejectBackoffNs;
      while (obs::NowTicks() < resume) CpuRelax();
      continue;
    }
    if (trace != nullptr && i % kTracedPeakSubmitEvery == 0) {
      trace->Record("SubmitAsync", now, obs::NowTicks(), phase.id());
    }
    ++i;
  }
  for (const auto& c : shared.done) {
    out.completed += c.value.load(std::memory_order_relaxed);
  }
  out.window = clock.Elapsed();
  service.Drain();
  out.failed = shared.failed.load();
  out.out_of_box = shared.out_of_box.load();
  return out;
}

PeakResult& PeakResult::operator+=(const PeakResult& other) {
  const double wall_s = window.wall_s + other.window.wall_s;
  const double own_s = window.own_s() + other.window.own_s();
  window.wall_s = wall_s;
  window.steal_share = wall_s > 0.0 ? 1.0 - own_s / wall_s : 0.0;
  completed += other.completed;
  retries += other.retries;
  failed += other.failed;
  out_of_box += other.out_of_box;
  return *this;
}

// ---- Output check -----------------------------------------------------------

AuditResult AuditBundles(const std::vector<std::string>& paths,
                         SpanTrace* trace) {
  AuditResult out;
  SpanTrace::Scope phase(trace, "audit");
  audit::AuditOptions options;
  options.include_cold_nodes = false;
  for (const std::string& path : paths) {
    const uint64_t t = obs::NowTicks();
    auto view = bundle::RegionBundleView::Open(path);
    auto report = view.ok()
                      ? audit::AuditBundle(*view, options)
                      : StatusOr<audit::RegionAuditReport>(view.status());
    out.ms.push_back(MsSince(t));
    if (!report.ok() || report->audited_nodes == 0) {
      out.ok = false;
      continue;
    }
    out.max_violation = std::max(out.max_violation, report->max_violation);
  }
  return out;
}

// ---- Control path ---------------------------------------------------------

std::optional<Interval> RegisterOnce(service::SanitizationService& service,
                                     const std::string& id,
                                     const service::RegionConfig& config,
                                     SpanTrace* trace) {
  SpanTrace::Scope span(trace, "RegisterRegion");
  const HostClock clock;
  const Status st = service.RegisterRegion(id, config);
  const Interval time = clock.Elapsed();
  if (!st.ok()) {
    std::fprintf(stderr, "register %s: %s\n", id.c_str(),
                 st.ToString().c_str());
    return std::nullopt;
  }
  return time;
}

double ScrapeOnce(const service::SanitizationService& service,
                  SpanTrace* trace) {
  SpanTrace::Scope span(trace, "scrape");
  const uint64_t t = obs::NowTicks();
  const size_t bytes = service.MetricsText().size() +
                       service.MetricsJson().size();
  const double ms = MsSince(t);
  return bytes > 0 ? ms : -1.0;
}

ChurnControl::ChurnControl(service::SanitizationService& service,
                           service::RegionConfig scratch,
                           std::vector<std::string> audited,
                           SpanTrace* trace)
    : service_(service),
      scratch_(std::move(scratch)),
      audited_(std::move(audited)),
      trace_(trace),
      thread_([this] { Loop(); }) {}

ChurnControl::~ChurnControl() { Stop(); }

void ChurnControl::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void ChurnControl::Loop() {
  using std::chrono::milliseconds;
  PinCallingThread(3);
  const auto start = std::chrono::steady_clock::now();
  auto next_onboard = start + milliseconds(500);
  auto next_tick = start + milliseconds(1000);
  std::vector<std::string> live;
  for (int k = 0;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (cv_.wait_until(lock, std::min(next_onboard, next_tick),
                         [this] { return stop_; })) {
        return;
      }
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= next_onboard) {
      const std::string id = "scratch-" + std::to_string(k++);
      ++attempts_;
      const std::optional<Interval> time =
          RegisterOnce(service_, id, scratch_, trace_);
      if (time.has_value()) {
        registers_.push_back(*time);
        live.push_back(id);
      } else {
        ++failures_;
      }
      if (live.size() > 4) {
        ++attempts_;
        if (!service_.UnregisterRegion(live.front()).ok()) ++failures_;
        live.erase(live.begin());
      }
      next_onboard += milliseconds(3000);
    }
    if (now >= next_tick) {
      ++attempts_;
      const double ms = ScrapeOnce(service_, trace_);
      if (ms >= 0.0) {
        scrape_ms_.push_back(ms);
      } else {
        ++failures_;
      }
      SpanTrace::Scope span(trace_, "AuditRegionNow");
      const auto audit = [this](const std::string& id) {
        ++attempts_;
        if (!service_.AuditRegionNow(id).ok()) ++failures_;
      };
      for (const std::string& id : audited_) audit(id);
      for (const std::string& id : live) audit(id);
      max_threads_ = std::max(max_threads_, ThreadsInProcess());
      next_tick += milliseconds(1000);
    }
  }
}

// ---- Single-thread layer probes -------------------------------------------

std::vector<double> ProbeWalkUs(const std::vector<RegionInput>& regions,
                                const std::vector<std::string>& paths,
                                size_t max_regions, uint64_t seed,
                                SpanTrace* trace) {
  constexpr size_t kWarm = 2000, kTimed = 20000;
  SpanTrace::Scope phase(trace, "probe.walk");
  std::vector<double> us;
  for (size_t r = 0; r < std::min(max_regions, regions.size()); ++r) {
    auto view = bundle::RegionBundleView::Open(paths[r]);
    if (!view.ok()) continue;
    bundle::RegionLoadOptions options;
    options.seed = seed;
    auto loaded = bundle::LoadRegion(*view, options);
    if (!loaded.ok()) continue;
    const std::vector<core::LatLon>& queries = regions[r].queries;
    rng::Rng rng(seed);
    for (size_t i = 0; i < kWarm; ++i) {
      const core::LatLon& q = queries[i % queries.size()];
      (void)loaded->sanitizer.SanitizeLatLonOrStatus(q.lat, q.lon, rng);
    }
    for (size_t i = 0; i < kTimed; ++i) {
      const core::LatLon& q = queries[i % queries.size()];
      const uint64_t t = obs::NowTicks();
      (void)loaded->sanitizer.SanitizeLatLonOrStatus(q.lat, q.lon, rng);
      us.push_back(static_cast<double>(obs::NowTicks() - t) / 1e3);
    }
  }
  return us;
}

LpProbe ProbeLpSolves(const std::vector<core::LatLon>& checkins,
                      const Box& box, SpanTrace* trace) {
  SpanTrace::Scope phase(trace, "probe.lp_solve");
  LpProbe out;
  auto projection =
      geo::EquirectangularProjection::Create(box.min_lat, box.min_lon);
  GEOPRIV_CHECK_OK(projection.status());
  std::vector<geo::Point> points;
  points.reserve(checkins.size());
  for (const core::LatLon& c : checkins) {
    points.push_back(projection->Forward(c.lat, c.lon));
  }
  // Node k of fanout g: a g x g candidate grid over the 10 km square at
  // offset k km along the diagonal, with the check-in counts of its cells
  // (plus one) as prior — the shape of an MSM node LP one level up.
  constexpr double kSideKm = 10.0, kEpsPerKm = 1.0;
  constexpr int kFanout[3] = {3, 4, 5};
  constexpr int kNodes[3] = {16, 8, 3};
  for (int s = 0; s < 3; ++s) {
    const int g = kFanout[s];
    for (int k = 0; k < kNodes[s]; ++k) {
      const double origin = static_cast<double>(k % 10);
      const spatial::UniformGrid grid(
          geo::BBox{origin, origin, origin + kSideKm, origin + kSideKm}, g);
      std::vector<geo::Point> locations;
      for (int c = 0; c < grid.num_cells(); ++c) {
        locations.push_back(grid.CenterOf(c));
      }
      std::vector<double> prior(static_cast<size_t>(grid.num_cells()), 1.0);
      for (const geo::Point& p : points) {
        if (grid.domain().Contains(p)) {
          prior[static_cast<size_t>(grid.CellOf(p))] += 1.0;
        }
      }
      const uint64_t t = obs::NowTicks();
      auto m = [&] {
        SpanTrace::Scope span(trace, "OptimalMechanism::Create");
        return mechanisms::OptimalMechanism::Create(
            kEpsPerKm, std::move(locations), std::move(prior),
            geo::UtilityMetric::kEuclidean);
      }();
      out.solve_ms[s].push_back(MsSince(t));
      if (!m.ok()) {
        ++out.failures;
        continue;
      }
      out.simplex_iterations += m->stats().simplex_iterations;
      out.refactorizations += m->stats().refactorizations;
      out.rounds += m->stats().rounds;
      if (g == 4 && out.n16_sample == nullptr) {
        out.n16_sample = std::make_shared<const mechanisms::OptimalMechanism>(
            std::move(m).value());
      }
    }
  }
  return out;
}

std::vector<double> ProbeAliasDrawNs(const mechanisms::OptimalMechanism& m,
                                     uint64_t seed) {
  constexpr int kBatches = 200, kDraws = 4096;
  rng::Rng rng(seed);
  std::vector<double> ns;
  int sink = 0;
  for (int b = 0; b < kBatches; ++b) {
    const uint64_t t = obs::NowTicks();
    for (int d = 0; d < kDraws; ++d) {
      sink += m.ReportIndex(d % m.num_locations(), rng);
    }
    ns.push_back(static_cast<double>(obs::NowTicks() - t) / kDraws);
  }
  // Keeps the draws observable so the loop cannot be dropped.
  if (sink == -1) std::fprintf(stderr, "\n");
  return ns;
}

std::vector<double> ProbeFallbackUs(const Box& box, double eps,
                                    uint64_t seed) {
  constexpr int kBatches = 200, kCalls = 256;
  auto projection =
      geo::EquirectangularProjection::Create(box.min_lat, box.min_lon);
  GEOPRIV_CHECK_OK(projection.status());
  const geo::Point ne = projection->Forward(box.max_lat, box.max_lon);
  const geo::BBox domain{0.0, 0.0, ne.x, ne.y};
  auto pl = mechanisms::PlanarLaplaceOnGrid::Create(
      eps, spatial::UniformGrid(domain, 64));
  GEOPRIV_CHECK_OK(pl.status());
  rng::Rng rng(seed);
  std::vector<double> us;
  double sink = 0.0;
  for (int b = 0; b < kBatches; ++b) {
    const uint64_t t = obs::NowTicks();
    for (int c = 0; c < kCalls; ++c) {
      const geo::Point actual{domain.Width() * ((c % 16) + 0.5) / 16.0,
                              domain.Height() * ((c / 16) + 0.5) / 16.0};
      sink += pl->Report(actual, rng).x;
    }
    us.push_back(static_cast<double>(obs::NowTicks() - t) / 1e3 / kCalls);
  }
  if (sink < 0.0) std::fprintf(stderr, "\n");
  return us;
}

// ---- Thread placement -----------------------------------------------------

std::vector<int> ProcessThreadIds() {
  std::vector<int> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (const dirent* entry = readdir(dir)) {
    const int tid = std::atoi(entry->d_name);
    if (tid > 0) tids.push_back(tid);
  }
  closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

namespace {

void PinThread(int tid, int cpu) {
  const int cpus = std::max(1, CpuCount());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<size_t>(cpu % cpus), &set);
  // Best effort: a CPU outside this process's cpuset just stays unpinned.
  (void)sched_setaffinity(tid, sizeof(set), &set);
}

}  // namespace

int PinNewThreads(const std::vector<int>& before, int first_cpu) {
  int cpu = first_cpu;
  const std::vector<int> now = ProcessThreadIds();
  for (const int tid : now) {
    if (!std::binary_search(before.begin(), before.end(), tid)) {
      PinThread(tid, cpu++);
    }
  }
  return static_cast<int>(now.size());
}

void PinCallingThread(int cpu) {
  PinThread(static_cast<int>(syscall(SYS_gettid)), cpu);
}

// ---- Process facts --------------------------------------------------------

int CpuCount() {
  // Read once, before any pinning narrows the calling thread's mask.
  static const int count = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
    return CPU_COUNT(&set);
  }();
  return count;
}

int ThreadsInProcess() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  int threads = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "Threads: %d", &threads) == 1) break;
  }
  std::fclose(f);
  return threads;
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace geopriv::bench::suite
