// geopriv_bench — the benchmark of record. One process runs one workload:
//
//   geopriv_bench --workload NAME --seed N --seconds S --trace 0|1
//                 --scratch DIR [--trace-file PATH]
//
// Every workload walks the whole region lifecycle (lifecycle.h): make its
// inputs, build its bundles, cold-start them, onboard a scratch region,
// then, for S seconds, saturate the service for S/6, serve an open loop
// for 2S/3 and saturate it for another S/6. Everything before that window
// is the run's set-up (setup_s). The workloads differ in which of those
// steps carries the weight:
//
//   serve_hot       one fully solved Austin region, 50k req/s: the pure
//                   request path (queue, registry, pinned plan, alias draw)
//   serve_tenants   24 partly solved tenant regions, Zipf(1.1) traffic at
//                   20k req/s with a 50 ms deadline: cold nodes are solved
//                   on the serving path (fall-through, singleflight, LP,
//                   deadline fallback)
//   build_and_load  a 6-region catalogue (n = 16, 25 and 9 node LPs), then
//                   20k req/s over it: LP solving, bundle write/open and
//                   rehydration dominate
//   serve_churn     serve_hot's region and rate while a control thread
//                   onboards regions onto the serving workers, scrapes both
//                   expositions and audits every second
//
// Inputs come from --seed: query streams, arrival schedules, tenant picks
// and service RNG streams vary with it. The regions themselves (synthetic
// cities, budgets, fanouts) are fixed, because LP cost depends strongly on
// the prior and a region set that changed with the seed would swamp every
// build-time comparison.
//
// Timing metrics are at reference speed: second-scale times are own times
// (lifecycle.h, "Host time"), wall time less the share the hypervisor gave
// to other guests, and every timing metric is scaled by a host-speed probe
// taken between the phases (lifecycle.h, "Host speed").
//
// Output: one detail line (checks, honesty fields, sample counts, the
// open loop's sojourn percentiles, the timing metrics as wall and own
// time, steal shares and probe times),
// then, as the last stdout line, {"correct", "attempted", "failed",
// "metrics"} with every end-to-end metric (--trace 0) or every per-layer
// metric (--trace 1). Exit status 0 only when every check passed; a run
// whose outputs are wrong or whose measurement is not valid exits 1.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/suite/harness.h"
#include "bench/suite/lifecycle.h"
#include "bench/suite/span_trace.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "obs/trace.h"
#include "rng/zipf.h"

namespace geopriv::bench::suite {
namespace {

// Idle onboardings (every workload but serve_churn), before and after the
// serving window. The host's speed wanders over seconds: in one check,
// the median registration time before the window and the one ~15 s later
// correlated at only 0.22 across runs, so timing both and averaging
// steadies onboard_s more than timing more in one place.
constexpr int kOnboardsBefore = 4, kOnboardsAfter = 3;
// Deep enough that no open-loop request meets admission control: an
// onboarding or cold-LP stall of ~0.3 s at 50k req/s queues ~15k
// requests, which must show up as sojourn, not as rejections. The
// saturation phase still fills it and retries.
constexpr size_t kServingQueueCapacity = 65536;
// Traced runs: per-ring span capacity, and a generous count of src/obs
// spans one sampled request commits (queue wait, walk, up to 3 levels,
// request envelope).
constexpr size_t kTraceRingCapacity = size_t{1} << 19;
constexpr double kTraceEventsPerRequest = 8.0;
// An audit slack above this is a GeoInd violation, not rounding.
constexpr double kMaxAuditViolation = 1e-6;
// The generator must run at least this close to its schedule, relative
// to the p99 it measures, or the percentile describes the generator.
constexpr double kMaxLateShareOfP99 = 0.10;

// Which regions a workload builds and serves. Requests pick among them:
// the one Austin region, Zipf(1.1)-popular tenants, or the catalogue
// uniformly.
enum class RegionSet { kAustin, kTenants, kCatalogue };

struct WorkloadDef {
  const char* name;
  RegionSet regions;
  double rate;         // open-loop requests per second
  double deadline_ms;  // per request; 0 = none
  bool churn;  // onboarding under traffic (else idle, around the window)
};

constexpr WorkloadDef kWorkloads[] = {
    {"serve_hot", RegionSet::kAustin, 50000.0, 0.0, false},
    {"serve_tenants", RegionSet::kTenants, 20000.0, 50.0, false},
    {"build_and_load", RegionSet::kCatalogue, 20000.0, 0.0, false},
    {"serve_churn", RegionSet::kAustin, 50000.0, 0.0, true},
};

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

Box ToBox(const data::LatLonBounds& b) {
  return {b.min_lat, b.min_lon, b.max_lat, b.max_lon};
}

// A region whose training check-ins and query stream come from one
// synthetic city: the first `train` check-ins shape the prior, the next
// `query` are the requests' true locations.
RegionInput MakeRegion(std::string id, const data::SyntheticCityConfig& preset,
                       const Box& box, uint64_t city_seed, int64_t train,
                       int64_t query, double eps, int g, int prior,
                       int prewarm_nodes) {
  std::vector<core::LatLon> all =
      CityCheckins(preset, box, train + query, city_seed);
  RegionInput r;
  r.id = std::move(id);
  r.spec.min_lat = box.min_lat;
  r.spec.min_lon = box.min_lon;
  r.spec.max_lat = box.max_lat;
  r.spec.max_lon = box.max_lon;
  r.spec.eps = eps;
  r.spec.granularity = g;
  r.spec.prior_granularity = prior;
  r.queries.assign(all.begin() + train, all.end());
  all.resize(static_cast<size_t>(train));
  r.spec.checkins = std::move(all);
  r.prewarm_nodes = prewarm_nodes;
  return r;
}

struct Inputs {
  std::vector<RegionInput> regions;
  service::RegionConfig onboard;  // the scratch region RegisterRegion builds
  std::vector<uint64_t> arrivals_ns;
  std::vector<Target> targets;  // one per arrival; the peak phase cycles
};

Inputs MakeInputs(const WorkloadDef& def, uint64_t seed, double open_s) {
  const data::SyntheticCityConfig gowalla = data::GowallaAustinLikeConfig();
  const data::SyntheticCityConfig yelp = data::YelpLasVegasLikeConfig();
  const Box austin = ToBox(data::kGowallaAustinBounds);
  const Box vegas = ToBox(data::kYelpLasVegasBounds);

  Inputs in;
  switch (def.regions) {
    case RegionSet::kAustin:
      in.regions.push_back(MakeRegion("austin", gowalla, austin, gowalla.seed,
                                      100000, 100000, 4.0, 4, 64, 0));
      break;
    case RegionSet::kTenants:
      // 24 distinct cities on a 1-degree lattice, each box Austin-sized;
      // 16 of each region's 17 internal nodes are solved at build.
      for (int k = 0; k < 24; ++k) {
        const double lat = 25.0 + (k / 6), lon = -120.0 + (k % 6);
        const Box box{lat, lon, lat + 0.18, lon + 0.21};
        char id[16];
        std::snprintf(id, sizeof(id), "tenant-%02d", k);
        in.regions.push_back(MakeRegion(
            id, k % 2 == 0 ? gowalla : yelp, box,
            7000 + static_cast<uint64_t>(k), 20000, 20000, 2.0, 4, 64, 16));
      }
      break;
    case RegionSet::kCatalogue: {
      struct Config {
        const char* suffix;
        double eps;
        int g, prior;
      };
      constexpr Config kConfigs[] = {
          {"e4g4", 4.0, 4, 64}, {"e1g5", 1.0, 5, 125}, {"e3g3", 3.0, 3, 81}};
      for (const Config& c : kConfigs) {
        in.regions.push_back(MakeRegion(std::string("austin-") + c.suffix,
                                        gowalla, austin, gowalla.seed, 100000,
                                        50000, c.eps, c.g, c.prior, 0));
        in.regions.push_back(MakeRegion(std::string("vegas-") + c.suffix,
                                        yelp, vegas, yelp.seed, 100000, 50000,
                                        c.eps, c.g, c.prior, 0));
      }
      break;
    }
  }

  // Every workload onboards the same scratch region: eps 2, fanout 4,
  // every node solved at registration.
  in.onboard.min_lat = austin.min_lat;
  in.onboard.min_lon = austin.min_lon;
  in.onboard.max_lat = austin.max_lat;
  in.onboard.max_lon = austin.max_lon;
  in.onboard.eps = 2.0;
  in.onboard.granularity = 4;
  in.onboard.prior_granularity = 64;
  in.onboard.prewarm_nodes = 1 << 20;
  in.onboard.checkins = CityCheckins(gowalla, austin, 100000, gowalla.seed);

  in.arrivals_ns = PoissonSchedule(def.rate, open_s, Mix(seed));
  rng::Rng rng(Mix(seed ^ 0x7A26E75ull));
  auto zipf = rng::ZipfSampler::Create(in.regions.size(), 1.1);
  GEOPRIV_CHECK_OK(zipf.status());
  in.targets.resize(in.arrivals_ns.size());
  for (Target& t : in.targets) {
    size_t region = 0;
    if (def.regions == RegionSet::kCatalogue) {
      region = static_cast<size_t>(rng.UniformInt(in.regions.size()));
    } else if (def.regions == RegionSet::kTenants) {
      region = zipf->Sample(rng);
    }
    t.region = static_cast<uint32_t>(region);
    t.query = static_cast<uint32_t>(
        rng.UniformInt(in.regions[region].queries.size()));
  }
  return in;
}

double SortedPercentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return Percentile(v, q);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ProbeHostMs() at the checkpoints between phases: after the inputs, the
// build, the cold starts and the onboardings, after the serving window,
// and after the late onboardings.
struct HostProbes {
  double start = 0.0, built = 0.0, cold = 0.0, onboarded = 0.0, served = 0.0,
         end = 0.0;
};

// Everything one run measured, phase by phase.
struct Record {
  Interval setup;  // process start -> start of the serving window
  BuildResult build;
  ColdStartResult cold;
  std::vector<Interval> registers;  // measured onboardings, in order
  size_t registers_before = 0;      // how many ran before the window
  std::vector<double> onboard_ref_s;  // registers at reference speed
  HostProbes host;
  std::vector<double> scrape_ms;
  OpenLoopResult open;
  Interval open_window;
  PeakResult peak;
  RegionCounters before, after;  // around the serving window
  // Service counters at the start of the window, just before and just
  // after the open loop, and at the end of the window.
  service::MetricsSnapshot snap_before, snap_open_start, snap_open,
      snap_after;
  std::vector<double> queue_wait_us;  // traced runs
  AuditResult audit;
  double peak_rss_mb = 0.0;  // ru_maxrss once every phase has run
  uint64_t attempted = 0, failed = 0;
  int threads_used = 0;

  uint64_t accepted() const {
    return snap_open.requests_total - snap_open_start.requests_total;
  }
  double fallback_ratio() const {
    return Ratio(static_cast<double>(snap_open.fallbacks_total -
                                     snap_open_start.fallbacks_total),
                 static_cast<double>(accepted()));
  }
};

// Timing metrics are at reference speed (lifecycle.h, "Host speed"), each
// scaled by the probes of the checkpoints around its phase.
std::map<std::string, double> EndToEndMetrics(const Record& r) {
  const HostProbes& h = r.host;
  return {
      {"setup_s", r.setup.own_s() *
                      SpeedFactor({h.start, h.built, h.cold, h.onboarded})},
      {"peak_qps", r.peak.own_qps() / SpeedFactor({h.onboarded, h.served})},
      {"utility_loss_km", r.open.utility_loss_km},
      {"build_s", r.build.time.own_s() * SpeedFactor({h.start, h.built})},
      {"cold_start_ms",
       r.cold.sum_of_medians_ms * SpeedFactor({h.built, h.cold})},
      {"onboard_s", Mean(r.onboard_ref_s)},
      {"peak_rss_mb", r.peak_rss_mb},
  };
}

// The single-thread probes of a traced run, taken after the timed window.
struct Probes {
  std::vector<double> walk_us, alias_ns, fallback_us;
  LpProbe lp;
  double untraced_p50_ms = 0.0;
};

Probes RunProbes(const Inputs& in, const Record& r,
                 service::ServiceOptions options, double deadline_ms,
                 uint64_t seed, SpanTrace* trace) {
  Probes p;
  p.walk_us = ProbeWalkUs(in.regions, r.build.paths, 3, seed, trace);
  // The LP and fallback probes run on the onboarding region, the same on
  // every workload, so their inputs (and the LP counts) repeat exactly.
  const Box austin{in.onboard.min_lat, in.onboard.min_lon,
                   in.onboard.max_lat, in.onboard.max_lon};
  p.lp = ProbeLpSolves(in.onboard.checkins, austin, trace);
  if (p.lp.n16_sample != nullptr) {
    p.alias_ns = ProbeAliasDrawNs(*p.lp.n16_sample, seed);
  }
  p.fallback_us = ProbeFallbackUs(austin, in.onboard.eps, seed);

  // Tracing overhead: the first half of the same schedule on a fresh,
  // untraced service.
  SpanTrace::Scope span(trace, "untraced_reference");
  options.trace = obs::TraceOptions{};
  int threads = 0;
  auto ref = StartService(options, &threads);
  for (size_t i = 0; i < in.regions.size(); ++i) {
    (void)ref->LoadRegionFromBundle(in.regions[i].id, r.build.paths[i]);
  }
  const auto mid = in.arrivals_ns.begin() +
                   static_cast<ptrdiff_t>(in.arrivals_ns.size() / 2);
  const std::vector<uint64_t> half(in.arrivals_ns.begin(), mid);
  const OpenLoopResult open =
      RunOpenLoop(*ref, in.regions, half, in.targets, deadline_ms, nullptr);
  p.untraced_p50_ms = SortedPercentile(open.sojourn_ms, 0.50);
  return p;
}

std::map<std::string, double> PerLayerMetrics(const Record& r,
                                              const Probes& p) {
  const auto count = [](auto after, auto before) {
    return static_cast<double>(after - before);
  };
  const double serve_p50_us = SortedPercentile(r.open.sojourn_ms, 0.50) * 1e3;
  const double submit_p50 = SortedPercentile(r.open.submit_us, 0.50);
  const double queue_p50 = SortedPercentile(r.queue_wait_us, 0.50);
  const double walk_p50 = SortedPercentile(p.walk_us, 0.50);
  const double plan = count(r.after.plan_levels, r.before.plan_levels);
  const double fallthrough =
      count(r.after.fallthrough_levels, r.before.fallthrough_levels);
  const double hits = count(r.after.cache_hits, r.before.cache_hits);
  const double solves = count(r.after.lp_solves, r.before.lp_solves);
  const service::MetricsSnapshot& s0 = r.snap_open_start;
  const service::MetricsSnapshot& s1 = r.snap_open;
  const service::MetricsSnapshot& s2 = r.snap_after;

  std::map<std::string, double> m = {
      {"service.submit_us.p50", submit_p50},
      {"service.submit_us.p99", SortedPercentile(r.open.submit_us, 0.99)},
      {"service.queue_wait_us.p50", queue_p50},
      {"service.queue_wait_us.p99", SortedPercentile(r.queue_wait_us, 0.99)},
      {"service.requests", static_cast<double>(r.accepted())},
      {"service.ok", count(s1.requests_ok, s0.requests_ok)},
      {"service.rejected", count(s1.requests_rejected, s0.requests_rejected)},
      {"service.failed", count(s1.requests_failed, s0.requests_failed)},
      {"service.fallbacks_deadline",
       count(s1.fallbacks_deadline, s0.fallbacks_deadline)},
      {"service.fallbacks_mechanism",
       count(s1.fallbacks_mechanism, s0.fallbacks_mechanism)},
      {"service.fallback_ratio", r.fallback_ratio()},
      {"service.error_ratio", Ratio(static_cast<double>(r.failed),
                                    static_cast<double>(r.attempted))},
      {"service.register_s.p50", Median(OwnSeconds(r.registers))},
      {"service.load_bundle_ms.p50", Median(r.cold.load_ms)},
      {"service.first_reply_ms.p50", Median(r.cold.first_reply_ms)},
      {"service.scrape_ms.p99", SortedPercentile(r.scrape_ms, 0.99)},
      {"service.generator_late_ms.p99", SortedPercentile(r.open.late_ms, 0.99)},
      {"service.generator_late_ms.max", SortedPercentile(r.open.late_ms, 1.0)},
      {"service.peak_retries", static_cast<double>(r.peak.retries)},
      {"core.walk_us.p50", walk_p50},
      {"core.walk_us.p99", SortedPercentile(p.walk_us, 0.99)},
      {"core.plan_levels", plan},
      {"core.fallthrough_levels", fallthrough},
      {"core.plan_level_ratio", Ratio(plan, plan + fallthrough)},
      {"core.lp_solves_serving", solves},
      // A window that never consulted the node cache missed nothing.
      {"core.cache_hit_rate", hits + solves > 0 ? hits / (hits + solves) : 1.0},
      {"core.singleflight_waits",
       count(r.after.singleflight_waits, r.before.singleflight_waits)},
      {"core.builder_s", r.build.builder_s},
      {"core.prewarm_s", r.build.prewarm_s},
      {"lp.solves", static_cast<double>(r.build.lp.lp_solves)},
      {"lp.seconds", r.build.lp.lp_seconds},
      {"lp.pricing_s", r.build.lp.lp_pricing_seconds},
      {"lp.simplex_s", r.build.lp.lp_simplex_seconds},
      {"lp.refactor_s", r.build.lp.lp_refactor_seconds},
      {"lp.simplex_iterations", static_cast<double>(p.lp.simplex_iterations)},
      {"lp.refactorizations", static_cast<double>(p.lp.refactorizations)},
      {"lp.rounds", static_cast<double>(p.lp.rounds)},
      {"mechanisms.alias_draw_ns.p50", Median(p.alias_ns)},
      {"mechanisms.fallback_us.p50", Median(p.fallback_us)},
      {"bundle.write_ms", r.build.write_ms},
      {"bundle.open_ms.p50", Median(r.cold.open_ms)},
      {"bundle.rehydrate_ms.p50", Median(r.cold.rehydrate_ms)},
      {"bundle.bytes", static_cast<double>(r.build.bytes)},
      {"audit.region_ms.p50", Median(r.audit.ms)},
      {"audit.passes", count(s2.audit_runs, r.snap_before.audit_runs)},
      {"audit.seconds", s2.audit_seconds - r.snap_before.audit_seconds},
      {"obs.trace_overhead", Ratio(serve_p50_us, p.untraced_p50_ms * 1e3)},
      {"obs.unattributed_us.p50",
       serve_p50_us - submit_p50 - queue_p50 - walk_p50},
  };
  const char* const kSizes[3] = {"n9", "n16", "n25"};
  for (int s = 0; s < 3; ++s) {
    const std::string base = std::string("lp.solve_ms.") + kSizes[s];
    m[base + ".p50"] = SortedPercentile(p.lp.solve_ms[s], 0.50);
    m[base + ".p99"] = SortedPercentile(p.lp.solve_ms[s], 0.99);
  }
  return m;
}

// Appends `"key": value` pairs to a one-line JSON object.
class JsonLine {
 public:
  JsonLine& Num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return Raw(key, buf);
  }
  JsonLine& Bool(const char* key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonLine& Str(const char* key, const std::string& v) {
    return Raw(key, "\"" + v + "\"");
  }
  JsonLine& Raw(const char* key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + std::string("\"") + key +
             "\": " + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct Args {
  uint64_t process_start = 0;  // obs::NowTicks() on entering main()
  CpuTimes process_start_cpu;
  std::string scratch, trace_file;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

int Run(const Args& args, const WorkloadDef& def) {
  const int nproc = CpuCount();  // before pinning narrows this thread
  PinCallingThread(0);
  std::unique_ptr<SpanTrace> trace_owner =
      args.trace ? std::make_unique<SpanTrace>() : nullptr;
  SpanTrace* const trace = trace_owner.get();
  const double open_s = args.seconds * 2.0 / 3.0;
  const double peak_s = args.seconds / 3.0;
  const uint64_t service_seed = Mix(args.seed ^ 0x5E2F1CEull);
  Record r;
  r.threads_used = ThreadsInProcess();

  // Wall time and peak RSS at the end of each phase, for the detail line
  // (time and memory budgeting).
  JsonLine phase_s, phase_rss_mb;
  uint64_t phase_start = obs::NowTicks();
  const auto end_phase = [&](const char* name) {
    const uint64_t now = obs::NowTicks();
    phase_s.Num(name, static_cast<double>(now - phase_start) / 1e9);
    phase_rss_mb.Num(name, PeakRssMb());
    phase_start = now;
  };

  // ---- Inputs: synthetic cities, query streams, the arrival schedule.
  Inputs in;
  {
    SpanTrace::Scope span(trace, "inputs");
    in = MakeInputs(def, args.seed, open_s);
  }
  end_phase("inputs");
  r.host.start = ProbeHostMs();

  // ---- Build tier.
  r.build = BuildBundles(in.regions, args.scratch, trace);
  r.attempted += in.regions.size();
  r.failed += r.build.failures;
  r.threads_used = std::max(r.threads_used, r.build.threads);
  if (r.build.failures > 0) {
    std::fprintf(stderr, "bundle build failed; no result\n");
    return 1;
  }
  end_phase("build");
  r.host.built = ProbeHostMs();

  // ---- Cold starts, each on a fresh service.
  r.cold = ColdStartBundles(in.regions, r.build.paths, service_seed,
                            trace != nullptr, trace);
  r.attempted += r.cold.attempts;
  r.failed += r.cold.failures;
  r.threads_used = std::max(r.threads_used, r.cold.threads);
  end_phase("cold_start");
  r.host.cold = ProbeHostMs();

  // ---- The serving service: 2 workers, every bundle loaded.
  service::ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = kServingQueueCapacity;
  options.seed = service_seed;
  options.default_deadline_ms = def.deadline_ms;
  uint32_t trace_one_in = 0;
  if (trace != nullptr) {
    // The rings must hold the whole open loop, or the queue-wait sample
    // is just its last fraction of a second (inside an onboarding stall,
    // on serve_churn). Head sampling keeps ~kTraceEventsPerRequest events
    // per sampled request within two rings of kTraceRingCapacity.
    const double events = static_cast<double>(in.arrivals_ns.size()) *
                          kTraceEventsPerRequest;
    trace_one_in = std::max<uint32_t>(
        1, static_cast<uint32_t>(std::ceil(
               events / (2.0 * static_cast<double>(kTraceRingCapacity)))));
    options.trace.sample_one_in = trace_one_in;
    options.trace.ring_capacity = kTraceRingCapacity;
    options.trace.num_rings = 2;
  }
  std::unique_ptr<service::SanitizationService> svc =
      StartService(options, &r.threads_used);
  std::vector<std::string> served_ids;
  for (size_t i = 0; i < in.regions.size(); ++i) {
    ++r.attempted;
    if (svc->LoadRegionFromBundle(in.regions[i].id, r.build.paths[i]).ok()) {
      served_ids.push_back(in.regions[i].id);
    } else {
      ++r.failed;
    }
  }

  // ---- Onboarding: `count` registrations of the scratch region, each
  // unregistered again; the first `unmeasured` are not timed. A fresh
  // process's first registration is slower than the rest (allocator and
  // page warm-up), so it is never timed. Churn onboards under traffic, the
  // other workloads idle, here and after the window.
  const auto onboard = [&](const char* prefix, int count, int unmeasured) {
    for (int k = 0; k < count; ++k) {
      const std::string id = prefix + std::to_string(k);
      r.attempted += 2;
      const std::optional<Interval> time =
          RegisterOnce(*svc, id, in.onboard, trace);
      if (!time.has_value()) ++r.failed;
      if (time.has_value() && k >= unmeasured) r.registers.push_back(*time);
      if (!svc->UnregisterRegion(id).ok()) ++r.failed;
    }
  };
  onboard("onboard-", 1 + (def.churn ? 0 : kOnboardsBefore), 1);
  r.registers_before = r.registers.size();
  end_phase("onboard");
  r.host.onboarded = ProbeHostMs();

  // ---- The timed serving window: saturation, the open loop, saturation
  // again. Like the onboardings, the two saturation halves ~2S/3 apart
  // average the host's wandering speed.
  r.before = SumRegionCounters(*svc, in.regions);
  r.snap_before = svc->metrics().Snapshot();
  std::unique_ptr<ChurnControl> churn;
  if (def.churn) {
    churn = std::make_unique<ChurnControl>(*svc, in.onboard, served_ids,
                                           trace);
  }
  r.setup = HostClock(args.process_start, args.process_start_cpu).Elapsed();
  r.peak = RunPeak(*svc, in.regions, in.targets, peak_s / 2.0,
                   def.deadline_ms, trace);
  // Service counters and queue-wait spans describe the open loop; the
  // saturation halves would flood both.
  r.snap_open_start = svc->metrics().Snapshot();
  const uint64_t open_start_ticks = obs::NowTicks();
  const HostClock open_clock;
  r.open = RunOpenLoop(*svc, in.regions, in.arrivals_ns, in.targets,
                       def.deadline_ms, trace);
  r.open_window = open_clock.Elapsed();
  r.threads_used = std::max(r.threads_used, ThreadsInProcess());
  r.snap_open = svc->metrics().Snapshot();
  std::string service_trace_json;
  if (trace != nullptr) {
    for (const obs::SpanEvent& e : svc->trace_recorder()->Snapshot()) {
      if (e.kind == static_cast<uint16_t>(obs::SpanKind::kQueueWait) &&
          e.start_ticks >= open_start_ticks) {
        r.queue_wait_us.push_back(
            static_cast<double>(e.end_ticks - e.start_ticks) / 1e3);
      }
    }
    // The trace file keeps the most recent service spans only.
    service_trace_json = svc->trace_recorder()->ChromeTraceJson(20000);
  }
  r.peak += RunPeak(*svc, in.regions, in.targets, peak_s / 2.0,
                    def.deadline_ms, trace);
  if (churn != nullptr) {
    churn->Stop();
    r.registers = churn->registers();
    r.scrape_ms = churn->scrape_ms();
    r.attempted += churn->attempts();
    r.failed += churn->failures();
    r.threads_used = std::max(r.threads_used, churn->max_threads());
  }
  r.host.served = ProbeHostMs();
  r.after = SumRegionCounters(*svc, in.regions);
  r.snap_after = svc->metrics().Snapshot();
  r.attempted += r.open.attempted + r.peak.completed;
  r.failed += r.open.rejected + r.open.failed + r.peak.failed;
  if (trace != nullptr && r.scrape_ms.empty()) {
    for (int k = 0; k < 20; ++k) r.scrape_ms.push_back(ScrapeOnce(*svc, trace));
  }
  if (!def.churn) onboard("late-onboard-", kOnboardsAfter, 0);
  svc.reset();  // joins the workers: no callback runs past this point
  end_phase("serve");
  r.host.end = ProbeHostMs();
  // Each onboarding at the speed of the checkpoints around it: before the
  // window, in it (serve_churn), or after it.
  const HostProbes& h = r.host;
  for (size_t k = 0; k < r.registers.size(); ++k) {
    const double factor =
        def.churn                   ? SpeedFactor({h.onboarded, h.served})
        : k < r.registers_before    ? SpeedFactor({h.cold, h.onboarded})
                                    : SpeedFactor({h.served, h.end});
    r.onboard_ref_s.push_back(r.registers[k].own_s() * factor);
  }

  // ---- Output checks.
  r.audit = AuditBundles(r.build.paths, trace);
  r.attempted += r.build.paths.size();
  if (!r.audit.ok) ++r.failed;
  end_phase("audit");
  r.peak_rss_mb = PeakRssMb();

  const uint64_t out_of_box =
      r.open.out_of_box + r.peak.out_of_box + r.cold.replies_out_of_box;
  const bool fully_prewarmed = std::all_of(
      in.regions.begin(), in.regions.end(),
      [](const RegionInput& region) { return region.fully_prewarmed(); });
  const int64_t fallthrough =
      r.after.fallthrough_levels - r.before.fallthrough_levels;
  const uint64_t fallbacks =
      r.snap_after.fallbacks_total - r.snap_before.fallbacks_total;
  const bool warm_ok =
      !fully_prewarmed || def.deadline_ms > 0.0 ||
      (fallthrough == 0 && fallbacks == 0);
  const bool cold_ok =
      r.cold.solves_at_load == 0 && r.cold.solves_before_first_reply == 0;
  const bool audits_ok =
      r.audit.ok && r.audit.max_violation <= kMaxAuditViolation;
  const double serve_p99_ms = SortedPercentile(r.open.sojourn_ms, 0.99);
  const double own_late_p99_ms = SortedPercentile(r.open.own_late_ms, 0.99);
  const bool threads_ok = nproc > 0 && r.threads_used <= nproc;
  const bool generator_ok =
      own_late_p99_ms <= kMaxLateShareOfP99 * serve_p99_ms;
  const bool correct = out_of_box == 0 && warm_ok && cold_ok && audits_ok &&
                       threads_ok && generator_ok &&
                       !r.open.sojourn_ms.empty();

  std::map<std::string, double> metrics;
  if (trace == nullptr) {
    metrics = EndToEndMetrics(r);
  } else {
    const Probes probes = RunProbes(in, r, options, def.deadline_ms,
                                    service_seed, trace);
    r.attempted += probes.lp.solve_ms[0].size() + probes.lp.solve_ms[1].size() +
                   probes.lp.solve_ms[2].size();
    r.failed += probes.lp.failures;
    metrics = PerLayerMetrics(r, probes);
    end_phase("probes");
    if (!args.trace_file.empty()) {
      const Status written =
          trace->WriteChromeTrace(args.trace_file, service_trace_json);
      if (!written.ok()) {
        std::fprintf(stderr, "trace: %s\n", written.ToString().c_str());
      }
    }
  }

  JsonLine checks;
  checks.Bool("points_in_box", out_of_box == 0)
      .Bool("warm_path", warm_ok)
      .Bool("cold_start_no_lp", cold_ok)
      .Bool("audits", audits_ok)
      .Num("audit_max_violation", r.audit.max_violation);
  JsonLine honesty;
  honesty.Num("nproc", nproc)
      .Num("threads_used", r.threads_used)
      .Bool("threads_ok", threads_ok)
      .Num("generator_late_ms_p99", SortedPercentile(r.open.late_ms, 0.99))
      .Num("generator_late_ms_max", SortedPercentile(r.open.late_ms, 1.0))
      .Num("generator_own_late_ms_p99", own_late_p99_ms)
      .Num("generator_late_limit_ms", kMaxLateShareOfP99 * serve_p99_ms)
      .Bool("generator_ok", generator_ok);
  JsonLine samples;
  samples.Num("serve_sojourn", static_cast<double>(r.open.sojourn_ms.size()))
      .Num("peak_completed", static_cast<double>(r.peak.completed))
      .Num("bundles", static_cast<double>(r.build.paths.size()))
      .Num("cold_starts_per_bundle", kColdStartRepeats)
      .Num("onboard", static_cast<double>(r.registers.size()))
      .Num("queue_wait", static_cast<double>(r.queue_wait_us.size()))
      .Num("obs_sample_one_in", trace_one_in)
      .Num("spans_dropped",
           trace != nullptr ? static_cast<double>(trace->dropped()) : 0.0);
  // The timing metrics as wall time and as own time, before scaling to
  // reference speed; how much of each interval the host took; the probes.
  JsonLine wall, own, steal, probes;
  wall.Num("setup_s", r.setup.wall_s)
      .Num("build_s", r.build.time.wall_s)
      .Num("cold_start_ms", r.cold.sum_of_medians_ms)
      .Num("onboard_s", Mean(WallSeconds(r.registers)))
      .Num("peak_qps", r.peak.wall_qps());
  own.Num("setup_s", r.setup.own_s())
      .Num("build_s", r.build.time.own_s())
      .Num("onboard_s", Mean(OwnSeconds(r.registers)))
      .Num("peak_qps", r.peak.own_qps());
  probes.Num("start", h.start)
      .Num("built", h.built)
      .Num("cold", h.cold)
      .Num("onboarded", h.onboarded)
      .Num("served", h.served)
      .Num("end", h.end);
  steal.Num("setup", r.setup.steal_share)
      .Num("build", r.build.time.steal_share)
      .Num("onboard", Median([&] {
             std::vector<double> v;
             for (const Interval& i : r.registers) v.push_back(i.steal_share);
             return v;
           }()))
      .Num("open_loop", r.open_window.steal_share)
      .Num("peak", r.peak.window.steal_share);
  JsonLine detail;
  detail.Str("workload", def.name)
      .Num("seed", static_cast<double>(args.seed))
      .Num("seconds", args.seconds)
      .Bool("trace", args.trace)
      .Bool("valid", correct)
      .Raw("checks", checks.str())
      .Raw("honesty", honesty.str())
      .Raw("samples", samples.str())
      .Raw("phase_s", phase_s.str())
      .Raw("phase_peak_rss_mb", phase_rss_mb.str())
      .Raw("wall", wall.str())
      .Raw("own", own.str())
      .Raw("steal_share", steal.str())
      .Raw("host_probe_ms", probes.str())
      .Num("onboard_s_within_run_spread", IqrShare(OwnSeconds(r.registers)))
      .Num("serve_p50_ms", SortedPercentile(r.open.sojourn_ms, 0.50))
      .Num("serve_p95_ms", SortedPercentile(r.open.sojourn_ms, 0.95))
      .Num("serve_p99_ms", serve_p99_ms)
      .Num("fallback_ratio", r.fallback_ratio())
      .Num("error_ratio", Ratio(static_cast<double>(r.failed),
                                static_cast<double>(r.attempted)))
      .Num("serving_lp_solves",
           static_cast<double>(r.after.lp_solves - r.before.lp_solves));
  std::printf("%s\n", detail.str().c_str());

  const auto result = ResultLine(
      correct, r.attempted, r.failed,
      trace != nullptr ? std::span<const MetricDef>(kPerLayerMetrics)
                       : std::span<const MetricDef>(kEndToEndMetrics),
      metrics);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", result->c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace geopriv::bench::suite

int main(int argc, char** argv) {
  using namespace geopriv::bench::suite;  // NOLINT: one entry point
  // run.py validates the values; this binary is not meant to be run alone.
  Args args;
  args.process_start = geopriv::obs::NowTicks();
  args.process_start_cpu = ReadCpuTimes();
  const geopriv::bench::Flags flags(argc, argv);
  args.scratch = flags.GetString("scratch", "");
  args.trace_file = flags.GetString("trace-file", "");
  args.seed = std::strtoull(flags.GetString("seed", "0").c_str(), nullptr, 10);
  args.seconds = flags.GetDouble("seconds", 0.0);
  args.trace = flags.GetInt("trace", 0) == 1;
  const std::string workload = flags.GetString("workload", "");
  if (args.scratch.empty() || args.seconds < 1.0) {
    std::fprintf(stderr,
                 "usage: geopriv_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --scratch DIR [--trace-file PATH]\n");
    return 2;
  }
  for (const WorkloadDef& def : kWorkloads) {
    if (workload == def.name) return Run(args, def);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
  return 2;
}
