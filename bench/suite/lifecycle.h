// The phases every workload of geopriv_bench runs, in order: build the
// region bundles, cold-start each bundle on fresh services, onboard a
// scratch region with RegisterRegion, then serve: an open-loop window
// between two halves of a saturation (peak) window. Workloads differ in
// their regions, rates and control traffic (main.cc); the phases and their
// measurements are shared here so every end-to-end metric means the same
// thing on every workload.
//
// Threads: the build tier uses a 3-thread pool plus the caller; a cold
// start uses a 1-worker service; the serving service has 2 workers, the
// caller is the request generator, and serve_churn adds one control
// thread — never more than 4 threads alive at once.

#ifndef GEOPRIV_BENCH_SUITE_LIFECYCLE_H_
#define GEOPRIV_BENCH_SUITE_LIFECYCLE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/suite/span_trace.h"
#include "bundle/builder.h"
#include "core/location_sanitizer.h"
#include "data/synthetic.h"
#include "mechanisms/optimal.h"
#include "service/sanitization_service.h"

namespace geopriv::bench::suite {

// Lat/lon box of one region (south-west / north-east corners).
struct Box {
  double min_lat = 0.0, min_lon = 0.0, max_lat = 0.0, max_lon = 0.0;
  bool Contains(const core::LatLon& p) const {
    return p.lat >= min_lat && p.lat <= max_lat && p.lon >= min_lon &&
           p.lon <= max_lon;
  }
};

// One region a workload builds into a bundle and serves.
struct RegionInput {
  std::string id;
  bundle::RegionSpec spec;  // box, eps, fanout, prior, training check-ins
  int prewarm_nodes = 0;    // internal nodes solved at build; <= 0 = all
  std::vector<core::LatLon> queries;  // disjoint from spec.checkins

  Box box() const {
    return {spec.min_lat, spec.min_lon, spec.max_lat, spec.max_lon};
  }
  bool fully_prewarmed() const { return prewarm_nodes <= 0; }
};

// One request: which region, and which of its queries.
struct Target {
  uint32_t region = 0;
  uint32_t query = 0;
};

// Synthetic check-ins of `preset`'s city model inside `box`: `n` points
// from generator seed `city_seed`, projected to lat/lon.
std::vector<core::LatLon> CityCheckins(const data::SyntheticCityConfig& preset,
                                       const Box& box, int64_t n,
                                       uint64_t city_seed);

// ---- Host time ------------------------------------------------------------
//
// The benchmark runs on a VM whose hypervisor also runs other guests on
// the same physical CPUs. Time a vCPU was ready to run but did not is
// "steal" in /proc/stat. On the calibration host steal came in bursts of
// tens of seconds to minutes that took 15-60% of the CPU time the
// benchmark wanted and stretched its wall times by as much, while the CPU
// time its threads were given stayed within a few percent. So every
// second-scale interval reports its wall time and its own time: the wall
// time times the share of the CPU time wanted in the interval (busy +
// steal) that the host did not take, on the CPUs that set its pace.

// Busy and stolen clock ticks of each CPU, from /proc/stat.
struct CpuTimes {
  std::vector<uint64_t> busy, steal;
};
CpuTimes ReadCpuTimes();  // empty when /proc/stat cannot be read

struct Interval {
  double wall_s = 0.0;
  double steal_share = 0.0;  // steal / (busy + steal) over the interval
  double own_s() const { return wall_s * (1.0 - steal_share); }
};

// Measures from its construction (or from a given start) to Elapsed().
// The steal share sums the CPUs in `cpus`, or every CPU when it is empty:
// one CPU when a single pinned thread sets the pace, all of them for work
// spread over the pool.
class HostClock {
 public:
  explicit HostClock(std::vector<int> cpus = {});
  HostClock(uint64_t start_ns, CpuTimes start_cpu)
      : start_ns_(start_ns), start_cpu_(std::move(start_cpu)) {}
  Interval Elapsed() const;

 private:
  uint64_t start_ns_;
  CpuTimes start_cpu_;
  std::vector<int> cpus_;
};

std::vector<double> OwnSeconds(const std::vector<Interval>& intervals);
std::vector<double> WallSeconds(const std::vector<Interval>& intervals);

// ---- Host speed -----------------------------------------------------------
//
// Steal is not the only way the host slows the benchmark: with no steal at
// all, the same code ran up to 30% slower for minutes at a time on the
// calibration host, in every phase at once, and a fixed integer loop
// slowed with it (the vCPUs' clock follows the host's load). So the run
// times that loop at checkpoints between its phases, on the calling
// thread's CPU time (which excludes steal), and every timing metric is
// scaled to the speed at which the loop takes kReferenceProbeMs
// (SpeedFactor in harness.h). The loop is the benchmark's own code, and
// the checkpoints fall where no program thread is busy, so the code under
// test cannot move it.

// Median thread CPU time, in ms, of kProbeRepeats runs of the loop.
double ProbeHostMs();
inline constexpr int kProbeRepeats = 7;

// ---- Build tier -----------------------------------------------------------

struct BuildResult {
  Interval time;            // the whole region set
  double builder_s = 0.0;   // LocationSanitizer::Builder::Build, summed
  double prewarm_s = 0.0;   // PrewarmTopNodes, summed
  double write_ms = 0.0;    // WriteRegionBundle, summed
  uint64_t bytes = 0;       // bundle bytes written
  core::MsmStats lp;        // LP counters summed over the built regions
  uint64_t failures = 0;
  std::vector<std::string> paths;  // one bundle per region, in order
  int threads = 0;  // threads alive while the pool was
};

// Builder::Build -> PrewarmTopNodes(prewarm, pool) -> WriteRegionBundle
// for every region, on a 3-thread pool plus the caller.
BuildResult BuildBundles(const std::vector<RegionInput>& regions,
                         const std::string& dir, SpanTrace* trace);

// ---- Cold start -----------------------------------------------------------

struct ColdStartResult {
  // Per bundle, the median of LoadRegionFromBundle + first reply over
  // kColdStartRepeats fresh services; summed over the bundles.
  double sum_of_medians_ms = 0.0;
  std::vector<double> load_ms;     // every LoadRegionFromBundle
  std::vector<double> first_reply_ms;
  std::vector<double> open_ms, rehydrate_ms;  // traced runs only
  uint64_t attempts = 0, failures = 0;
  // LP solves made by LoadRegionFromBundle, and (fully prewarmed bundles
  // only, where none may happen) by the first reply after it.
  int64_t solves_at_load = 0, solves_before_first_reply = 0;
  uint64_t replies_out_of_box = 0;
  int threads = 0;  // most threads alive during a cold start
};

// Each bundle kColdStartRepeats times, in rounds that visit every bundle
// once: fresh 1-worker service, LoadRegionFromBundle, then one reply. With
// `layer_probes`, also times RegionBundleView::Open and bundle::LoadRegion
// directly.
ColdStartResult ColdStartBundles(const std::vector<RegionInput>& regions,
                                 const std::vector<std::string>& paths,
                                 uint64_t seed, bool layer_probes,
                                 SpanTrace* trace);
inline constexpr int kColdStartRepeats = 27;

// ---- Serving --------------------------------------------------------------

// Creates a service and pins its new threads to CPUs 1, 2, ...; raises
// *threads to the process's thread count once they exist.
std::unique_ptr<service::SanitizationService> StartService(
    const service::ServiceOptions& options, int* threads);

// Counters the serving window moved, summed over the served regions.
struct RegionCounters {
  int64_t plan_levels = 0, fallthrough_levels = 0;
  int64_t lp_solves = 0, cache_hits = 0;
  uint64_t singleflight_waits = 0;
};
RegionCounters SumRegionCounters(const service::SanitizationService& service,
                                 const std::vector<RegionInput>& regions);

struct OpenLoopResult {
  std::vector<double> sojourn_ms;  // scheduled send -> callback, completed
  // Generator lateness per request: send start - due time. own_late_ms
  // leaves out the time spent blocked in the previous SubmitAsync (the
  // service's admission cost, which the sojourn already charges), so it
  // is the delay the generator itself added.
  std::vector<double> late_ms, own_late_ms;
  std::vector<double> submit_us;   // SubmitAsync call time, every request
  uint64_t attempted = 0, rejected = 0, failed = 0, fallbacks = 0;
  uint64_t out_of_box = 0;
  double utility_loss_km = 0.0;  // mean over completed requests
};

// Open loop: request i is due at window start + arrivals_ns[i] and goes to
// targets[i]; the generator (the caller) spins until it is due, whatever
// happened to earlier requests. Sojourn counts from the due time.
OpenLoopResult RunOpenLoop(service::SanitizationService& service,
                           const std::vector<RegionInput>& regions,
                           const std::vector<uint64_t>& arrivals_ns,
                           const std::vector<Target>& targets,
                           double deadline_ms, SpanTrace* trace);

struct PeakResult {
  Interval window;
  uint64_t completed = 0, retries = 0, failed = 0, out_of_box = 0;
  // Completed by the end of the window per second of its wall time, and
  // per second of its own time.
  double wall_qps() const { return Rate(window.wall_s); }
  double own_qps() const { return Rate(window.own_s()); }
  // Joins a second window: counts and times add up, so the rates are
  // those of both windows together.
  PeakResult& operator+=(const PeakResult& other);

 private:
  double Rate(double s) const {
    return s > 0.0 ? static_cast<double>(completed) / s : 0.0;
  }
};

// Saturation: the caller submits as fast as admission accepts, cycling
// through `targets`, for `seconds`; a rejection is counted and retried
// after a short back-off, so the retries do not contend for the locks the
// workers need while the full queue keeps them busy.
PeakResult RunPeak(service::SanitizationService& service,
                   const std::vector<RegionInput>& regions,
                   const std::vector<Target>& targets, double seconds,
                   double deadline_ms, SpanTrace* trace);

// ---- Output check -----------------------------------------------------------

struct AuditResult {
  double max_violation = 0.0;  // worst GeoInd slack over every bundle
  bool ok = true;              // every bundle opened and audited a node
  std::vector<double> ms;      // per bundle: Open + AuditBundle
};

// AuditBundle over what each bundle carries (cold nodes are not solved).
AuditResult AuditBundles(const std::vector<std::string>& paths,
                         SpanTrace* trace);

// ---- Control path ---------------------------------------------------------

// Times one RegisterRegion; nullopt when it failed.
std::optional<Interval> RegisterOnce(service::SanitizationService& service,
                                     const std::string& id,
                                     const service::RegionConfig& config,
                                     SpanTrace* trace);

// Times MetricsText() + MetricsJson(), in ms.
double ScrapeOnce(const service::SanitizationService& service,
                  SpanTrace* trace);

// serve_churn's control thread: every 3 s it onboards a scratch region
// and unregisters the oldest once more than 4 are live; every 1 s it
// scrapes both expositions and audits every live region (AuditRegionNow,
// the code the background auditor runs).
class ChurnControl {
 public:
  ChurnControl(service::SanitizationService& service,
               service::RegionConfig scratch,
               std::vector<std::string> audited, SpanTrace* trace);
  ~ChurnControl();
  ChurnControl(const ChurnControl&) = delete;
  ChurnControl& operator=(const ChurnControl&) = delete;

  // Stops and joins the thread; idempotent. Results are valid after it.
  void Stop();

  const std::vector<Interval>& registers() const { return registers_; }
  const std::vector<double>& scrape_ms() const { return scrape_ms_; }
  uint64_t attempts() const { return attempts_; }
  uint64_t failures() const { return failures_; }
  int max_threads() const { return max_threads_; }

 private:
  void Loop();

  service::SanitizationService& service_;
  const service::RegionConfig scratch_;
  const std::vector<std::string> audited_;
  SpanTrace* const trace_;
  std::vector<Interval> registers_;
  std::vector<double> scrape_ms_;
  uint64_t attempts_ = 0, failures_ = 0;
  int max_threads_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // last: started after everything it reads
};

// ---- Single-thread layer probes (traced runs, after the timed window) ----

// Per-call SanitizeLatLonOrStatus time (us) on up to `max_regions` of the
// workload's bundles, each rehydrated privately and walked once untimed.
std::vector<double> ProbeWalkUs(const std::vector<RegionInput>& regions,
                                const std::vector<std::string>& paths,
                                size_t max_regions, uint64_t seed,
                                SpanTrace* trace);

struct LpProbe {
  std::vector<double> solve_ms[3];  // n = 9, 16, 25
  int64_t simplex_iterations = 0, refactorizations = 0, rounds = 0;
  uint64_t failures = 0;
  std::shared_ptr<const mechanisms::OptimalMechanism> n16_sample;
};

// Re-solves a fixed sample of node LPs (3x3, 4x4 and 5x5 candidate grids
// over sub-squares of `box`, priors from `checkins`) with
// OptimalMechanism::Create. Inputs do not depend on the run seed, so the
// solver counts repeat exactly.
LpProbe ProbeLpSolves(const std::vector<core::LatLon>& checkins,
                      const Box& box, SpanTrace* trace);

// ns per OptimalMechanism::ReportIndex draw, one value per batch.
std::vector<double> ProbeAliasDrawNs(const mechanisms::OptimalMechanism& m,
                                     uint64_t seed);
// us per PlanarLaplaceOnGrid::Report call over `box`, one value per batch.
std::vector<double> ProbeFallbackUs(const Box& box, double eps,
                                    uint64_t seed);

// ---- Thread placement -----------------------------------------------------
//
// Every thread gets a CPU of its own: the caller (request generator, build
// caller) CPU 0, pool and service threads CPUs 1, 2, ... in creation
// order, the churn control thread CPU 3, so no worker is ever woken onto
// the generator's spinning vCPU. On the 4-vCPU VM this was calibrated on,
// the scheduler was seen leaving CPU-bound threads created after an idle
// second stacked on one vCPU for up to a second.

std::vector<int> ProcessThreadIds();  // tids in /proc/self/task
// Pins each thread of this process that is not in `before` to its own
// CPU, starting at `first_cpu` (modulo the CPU count). Returns the number
// of threads the process has now.
int PinNewThreads(const std::vector<int>& before, int first_cpu);
void PinCallingThread(int cpu);

// ---- Process facts --------------------------------------------------------

int CpuCount();  // CPUs the process could use at its first call (nproc)
int ThreadsInProcess();  // "Threads:" of /proc/self/status (0 if unknown)
double PeakRssMb();  // ru_maxrss

}  // namespace geopriv::bench::suite

#endif  // GEOPRIV_BENCH_SUITE_LIFECYCLE_H_
