// perfbench — one end-to-end benchmark of the AdaVP engines, with a
// per-layer split from a separate traced run.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// A run sets the workload up three times (the median is `setup_s`), then
// repeats passes over the workload's units — one engine entry call each —
// until S seconds have gone by. With --trace 0 it reports the end-to-end
// metrics of BENCHMARK.json; with --trace 1 it alternates untraced and
// traced passes and reports the per-layer metrics. Every run checks its
// outputs: each deterministic unit's core::digest_run must repeat exactly,
// eval_ondemand must match the digests of replay_precached run once over
// the same inputs, and every frame must get a result. The last line of stdout
// is one JSON object; README.md documents every metric.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <ctime>
#include <iomanip>
#include <iostream>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "../../tests/run_result_digest.h"
#include "alloc_counter.h"
#include "harness.h"
#include "layers.h"
#include "obs/telemetry.h"
#include "util/args.h"
#include "util/thread_id.h"
#include "util/thread_pool.h"

namespace {

using namespace adavp;
using perfbench::LayerSplit;
using perfbench::UnitOutput;
using perfbench::Workload;

constexpr int kSetupReps = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

template <typename T>
bool parse_number(const std::string& text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

std::optional<Options> parse_options(int argc, char** argv) {
  const util::Args args(argc, argv);
  Options o;
  o.workload = args.get("workload", "");
  const std::vector<std::string>& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    std::cerr << "--workload must be one of:";
    for (const std::string& n : names) std::cerr << " " << n;
    std::cerr << "\n";
    return std::nullopt;
  }
  int seconds = 0;
  const std::string trace = args.get("trace", "0");
  if (!parse_number(args.get("seed", ""), o.seed) ||
      !parse_number(args.get("seconds", ""), seconds) || seconds < 1 ||
      seconds > 600 || (trace != "0" && trace != "1")) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 (S in 1..600)\n";
    return std::nullopt;
  }
  o.seconds = seconds;
  o.trace = trace == "1";
  return o;
}

/// Restricts the calling thread, and every thread started after it, to the
/// first CPU it may run on.
bool pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  return false;
}

double wall_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double median(std::vector<double> values) {
  return perfbench::percentile(std::move(values), 0.5);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// digest_run over every run of a unit, in order.
std::uint64_t unit_digest(const UnitOutput& out) {
  core::Digest d;
  for (const core::RunResult& run : out.dataset.runs) {
    d.pod<std::uint64_t>(core::digest_run(run));
  }
  return d.value();
}

/// The digest with the frame-store counters zeroed: the one quantity that
/// legitimately differs between rendering on demand and replaying a
/// precache (renders vs precache hits). Everything the engines computed is
/// still in it.
std::uint64_t content_digest(const UnitOutput& out) {
  core::Digest d;
  for (core::RunResult run : out.dataset.runs) {
    run.frame_store = {};
    d.pod<std::uint64_t>(core::digest_run(run));
  }
  return d.value();
}

struct UnitRecord {
  std::vector<double> wall_ms;  ///< untraced reps
  std::vector<double> cpu_ms;
  std::vector<double> traced_wall_ms;
  std::optional<std::uint64_t> digest;
  std::uint64_t content = 0;
  int frames = 0;
  double schedule_ms = 0.0;
};

/// Everything the untraced passes accumulate.
struct Totals {
  int passes = 0;
  std::uint64_t attempted = 0;  ///< every pass, traced ones too
  std::uint64_t failed = 0;
  std::uint64_t startup = 0;
  double frames = 0.0;  ///< frames of the untraced passes
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  perfbench::AllocCount allocs;
  std::uint64_t pool_regions = 0;
  std::uint64_t pool_chunks = 0;
  // modelled
  std::vector<double> accuracies;  ///< one per processed video
  std::vector<double> staleness_ms;
  double energy_wh = 0.0;
  // per-layer counters read from RunResult / FleetResult / RealtimeStats
  std::uint64_t renders = 0;
  std::uint64_t pool_reuses = 0;
  std::uint64_t pool_allocs = 0;
  std::uint64_t switches = 0;
  double fleet_batches = 0.0;
  double fleet_requests = 0.0;
  double fleet_busy_ms = 0.0;
  double fleet_makespan_ms = 0.0;
  double fleet_queue_wait_max_ms = 0.0;
  double fleet_results = 0.0;
  double fleet_deadline_misses = 0.0;
  double rt_captured = 0.0;
  double rt_cancellations = 0.0;
  double rt_dropped = 0.0;
  double rt_coast_frames = 0.0;
  double rt_watchdog_timeouts = 0.0;
};

struct FrameCounts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t startup = 0;  ///< frames before their run's first result
};

/// Counts one unit's frames and appends the staleness of every result to
/// `staleness` when non-null. A frame fails when its run failed, when it is
/// missing (a rejected fleet stream), or when it has no result after its
/// run's first result; frames before the first result are the pipeline's
/// start-up latency, not failures.
FrameCounts count_frames(const UnitOutput& out, std::vector<double>* staleness) {
  FrameCounts c;
  std::uint64_t present = 0;
  for (const core::RunResult& run : out.dataset.runs) {
    present += run.frames.size();
    if (run.status.failed()) {
      c.failed += run.frames.size();
      continue;
    }
    bool started = false;
    for (const core::FrameResult& f : run.frames) {
      if (f.source != core::ResultSource::kNone) {
        started = true;
        if (staleness != nullptr && (out.staleness_on_every_frame ||
                                     f.source == core::ResultSource::kDetector)) {
          staleness->push_back(f.staleness_ms);
        }
      } else if (started) {
        ++c.failed;
      } else {
        ++c.startup;
      }
    }
  }
  c.attempted = static_cast<std::uint64_t>(out.frames);
  if (present < c.attempted) c.failed += c.attempted - present;
  return c;
}

void count_layers(const UnitOutput& out, Totals& t) {
  for (const core::RunResult& run : out.dataset.runs) {
    t.energy_wh += run.energy.total_wh();
    t.renders += run.frame_store.renders;
    t.pool_reuses += run.frame_store.pool_reuses;
    t.pool_allocs += run.frame_store.pool_allocs;
    t.switches += static_cast<std::uint64_t>(std::max(0, run.setting_switches));
  }
  t.fleet_batches += static_cast<double>(out.gpu.batches);
  t.fleet_requests += static_cast<double>(out.gpu.requests);
  t.fleet_busy_ms += out.gpu.busy_ms;
  t.fleet_makespan_ms += out.fleet_makespan_ms;
  t.fleet_queue_wait_max_ms =
      std::max(t.fleet_queue_wait_max_ms, out.fleet_queue_wait_max_ms);
  t.fleet_results += out.fleet_results;
  t.fleet_deadline_misses += out.fleet_deadline_misses;
  t.rt_captured += out.realtime.frames_captured;
  t.rt_cancellations += out.realtime.tracking_tasks_cancelled;
  t.rt_dropped += out.realtime.frames_dropped;
  t.rt_coast_frames += out.realtime.coast_frames;
  t.rt_watchdog_timeouts += out.realtime.watchdog_timeouts;
}

util::ThreadPool::Stats pool_stats() {
  const util::ThreadPool* pool = util::ThreadPool::shared_if_started();
  return pool != nullptr ? pool->stats() : util::ThreadPool::Stats{};
}

std::uint64_t counter_suffix_sum(const obs::MetricsSnapshot& snap,
                                 const std::string& suffix) {
  std::uint64_t sum = 0;
  for (const auto& c : snap.counters) {
    if (c.name.size() >= suffix.size() &&
        c.name.compare(c.name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      sum += c.value;
    }
  }
  return sum;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string kind;  ///< host-wall, host-CPU, host, modelled, trace, count
};

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "  " << std::left << std::setw(36) << m.name << std::right
              << std::setw(16) << std::setprecision(6) << m.value << " "
              << std::left << std::setw(7) << m.unit << " [" << m.kind << "]"
              << std::right << "\n";
  }
}

std::string result_json(bool correct, const Totals& t,
                        const std::vector<Metric>& metrics) {
  std::ostringstream json;
  json << std::setprecision(17) << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << t.attempted << ", \"failed\": " << t.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    json << (i > 0 ? ", " : "") << "\"" << metrics[i].name
         << "\": {\"value\": " << v << ", \"unit\": \"" << metrics[i].unit
         << "\"}";
  }
  json << "}}";
  return json.str();
}

int run(const Options& opt) {
  std::cout << "perfbench workload=" << opt.workload << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << (opt.trace ? 1 : 0)
            << "\n";
  if (perfbench::runs_on_one_cpu(opt.workload) && !pin_to_one_cpu()) {
    std::cerr << "perfbench: cannot pin " << opt.workload << " to one CPU\n";
    return 1;
  }
  std::vector<std::string> problems;

  // --- set-up, timed kSetupReps times ------------------------------------
  std::vector<double> setup_s;
  Workload workload;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    workload = {};
    const double t0 = wall_ms();
    workload = perfbench::make_workload(opt.workload, opt.seed);
    setup_s.push_back((wall_ms() - t0) / 1000.0);
  }
  std::cout << "setup: " << kSetupReps << " set-ups, median "
            << median(setup_s) << " s\n";

  // --- timed passes -------------------------------------------------------
  const std::uint32_t caller_tid = util::compact_thread_id();
  std::vector<UnitRecord> records(workload.units.size());
  Totals totals;
  LayerSplit split;
  std::uint64_t pyramid_reused = 0;
  std::uint64_t pyramid_rebuilt = 0;
  const double start = wall_ms();
  for (int pass = 0;; ++pass) {
    const bool traced = opt.trace && pass % 2 == 1;
    if (wall_ms() - start >= opt.seconds * 1000.0 &&
        (!opt.trace || split.passes() > 0)) {
      break;
    }
    obs::MetricsSnapshot before;
    if (traced) {
      obs::tracer().clear();
      before = obs::Telemetry::instance().snapshot();
      obs::Telemetry::set_enabled(true);
    }
    const double pass_start = wall_ms();
    for (std::size_t i = 0; i < workload.units.size(); ++i) {
      UnitRecord& rec = records[i];
      const perfbench::AllocCount a0 = perfbench::allocations();
      const util::ThreadPool::Stats p0 = pool_stats();
      const double c0 = cpu_ms();
      const double t0 = wall_ms();
      UnitOutput out;
      {
        obs::ScopedSpan span("bench.engine", "bench");
        out = workload.units[i].run();
      }
      const double wall = wall_ms() - t0;
      const double cpu = cpu_ms() - c0;
      const util::ThreadPool::Stats p1 = pool_stats();
      const perfbench::AllocCount a1 = perfbench::allocations();

      const std::uint64_t digest = unit_digest(out);
      if (workload.deterministic && rec.digest.has_value() &&
          *rec.digest != digest) {
        problems.push_back(workload.units[i].name +
                           ": digest changed between repetitions");
      }
      if (!rec.digest.has_value()) rec.content = content_digest(out);
      rec.digest = digest;
      rec.frames = out.frames;
      rec.schedule_ms = out.schedule_ms;

      std::vector<double> accuracies;
      {
        obs::ScopedSpan span("bench.score", "bench");
        accuracies = core::dataset_video_accuracies(out.dataset, out.scenes);
      }
      const FrameCounts fc =
          count_frames(out, traced ? nullptr : &totals.staleness_ms);
      totals.attempted += fc.attempted;
      totals.failed += fc.failed;
      totals.startup += fc.startup;
      if (traced) {
        rec.traced_wall_ms.push_back(wall);
        continue;
      }
      totals.frames += static_cast<double>(fc.attempted);
      rec.wall_ms.push_back(wall);
      rec.cpu_ms.push_back(cpu);
      totals.wall_ms += wall;
      totals.cpu_ms += cpu;
      totals.allocs.calls += a1.calls - a0.calls;
      totals.allocs.bytes += a1.bytes - a0.bytes;
      totals.pool_regions += p1.parallel_regions - p0.parallel_regions;
      totals.pool_chunks += p1.chunks_executed - p0.chunks_executed;
      totals.accuracies.insert(totals.accuracies.end(), accuracies.begin(),
                               accuracies.end());
      count_layers(out, totals);
    }
    const double pass_wall = wall_ms() - pass_start;
    if (traced) {
      obs::Telemetry::set_enabled(false);
      split.add_pass(obs::tracer().flush(), caller_tid, pass_wall);
      const obs::MetricsSnapshot delta =
          obs::Telemetry::instance().snapshot().since(before);
      pyramid_reused += counter_suffix_sum(delta, "tracker.pyramid_reused");
      pyramid_rebuilt += counter_suffix_sum(delta, "tracker.pyramid_rebuilt");
    } else {
      ++totals.passes;
    }
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);  // before the cross-check's extra inputs

  // --- output checks ------------------------------------------------------
  const std::string other = perfbench::cross_check_workload(opt.workload);
  if (!other.empty()) {
    Workload counterpart = perfbench::make_workload(other, opt.seed);
    for (std::size_t i = 0; i < counterpart.units.size(); ++i) {
      if (content_digest(counterpart.units[i].run()) != records.at(i).content) {
        problems.push_back(workload.units[i].name + ": " + opt.workload +
                           " and " + other + " digests differ");
      }
    }
  }
  if (totals.failed > 0) {
    problems.push_back(std::to_string(totals.failed) + " of " +
                       std::to_string(totals.attempted) + " frames failed");
  }
  const bool correct = problems.empty();

  // --- report -------------------------------------------------------------
  double frames = 0.0;
  double wall_med = 0.0;
  double cpu_med = 0.0;
  double traced_med = 0.0;
  double schedule = 0.0;
  std::cout << "units (" << totals.passes << " untraced passes";
  if (opt.trace) std::cout << ", " << split.passes() << " traced";
  std::cout << "):\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const UnitRecord& rec = records[i];
    frames += rec.frames;
    wall_med += median(rec.wall_ms);
    cpu_med += median(rec.cpu_ms);
    traced_med += median(rec.traced_wall_ms);
    schedule += rec.schedule_ms;
    std::cout << "  " << std::left << std::setw(44) << workload.units[i].name
              << std::right << " wall " << std::setw(9) << std::fixed
              << std::setprecision(1) << median(rec.wall_ms) << " ms  cpu "
              << std::setw(9) << median(rec.cpu_ms) << " ms  digest "
              << std::hex << rec.digest.value_or(0) << std::dec
              << std::defaultfloat << "\n";
  }
  const double per_pass = totals.passes > 0 ? 1.0 / totals.passes : 0.0;
  const double frames_total = totals.frames;
  std::cout << "check: " << (correct ? "ok" : "FAILED") << " (digests "
            << (workload.deterministic ? "repeat" : "n/a: wall-clock engine")
            << (other.empty() ? "" : ", cross-path digests against " + other)
            << ", failed frames " << totals.failed << "/" << totals.attempted
            << ", start-up frames " << totals.startup << ")\n";
  for (const std::string& p : problems) std::cout << "  problem: " << p << "\n";

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"setup_s", median(setup_s), "s", "host-wall"},
        {"frames_per_s", ratio(frames, wall_med / 1000.0), "1/s", "host-wall"},
        {"cpu_ms_per_frame", ratio(cpu_med, frames), "ms", "host-CPU"},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB",
         "host"},
        {"accuracy",
         ratio(std::accumulate(totals.accuracies.begin(),
                               totals.accuracies.end(), 0.0),
               static_cast<double>(totals.accuracies.size())),
         "ratio", "modelled"},
        {"staleness_ms_p50", perfbench::percentile(totals.staleness_ms, 0.5),
         "ms", "modelled"},
        {"staleness_ms_p99", perfbench::percentile(totals.staleness_ms, 0.99),
         "ms", "modelled"},
        {"energy_mj_per_frame", ratio(totals.energy_wh * 3.6e6, frames_total),
         "mJ", "modelled"},
        {"overrun", ratio(wall_med, schedule), "ratio", "host-wall"},
    };
    std::cout << "end-to-end (staleness over " << totals.staleness_ms.size()
              << " results; failed_frac "
              << ratio(static_cast<double>(totals.failed), frames_total)
              << "):\n";
  } else {
    const double tp = split.passes() > 0 ? 1.0 / split.passes() : 0.0;
    const bool fleet = totals.fleet_requests > 0.0;
    const bool realtime = totals.rt_captured > 0.0;
    metrics = {
        {"video.render.calls", split.calls("video", "render_frame") * tp, "count", "trace"},
        {"video.render.self_ms", split.self_ms("video", "render_frame") * tp, "ms", "trace"},
        {"video.render.p50_ms", split.percentile_ms("video", "render_frame", 0.5), "ms", "trace"},
        {"video.render.p99_ms", split.percentile_ms("video", "render_frame", 0.99), "ms", "trace"},
        {"video.frame_store.renders_per_frame",
         ratio(static_cast<double>(totals.renders), frames_total), "ratio", "count"},
        {"video.frame_store.pool_reuse_frac",
         ratio(static_cast<double>(totals.pool_reuses),
               static_cast<double>(totals.pool_reuses + totals.pool_allocs)),
         "ratio", "count"},
        {"vision.pyramid.calls", split.calls("vision", "pyramid_build") * tp, "count", "trace"},
        {"vision.pyramid.self_ms", split.self_ms("vision", "pyramid_build") * tp, "ms", "trace"},
        {"vision.pyramid.p99_ms", split.percentile_ms("vision", "pyramid_build", 0.99), "ms", "trace"},
        {"vision.lk.calls", split.calls("vision", "lk_flow") * tp, "count", "trace"},
        {"vision.lk.self_ms", split.self_ms("vision", "lk_flow") * tp, "ms", "trace"},
        {"vision.lk.p99_ms", split.percentile_ms("vision", "lk_flow", 0.99), "ms", "trace"},
        {"track.set_reference.calls", split.calls("tracker", "set_reference") * tp, "count", "trace"},
        {"track.set_reference.self_ms", split.self_ms("tracker", "set_reference") * tp, "ms", "trace"},
        {"track.track_to.calls", split.calls("tracker", "track_to") * tp, "count", "trace"},
        {"track.track_to.self_ms", split.self_ms("tracker", "track_to") * tp, "ms", "trace"},
        {"track.pyramid_reuse_frac",
         ratio(static_cast<double>(pyramid_reused),
               static_cast<double>(pyramid_reused + pyramid_rebuilt)),
         "ratio", "trace"},
        {"detect.infer.calls", split.calls("detector", "model_infer") * tp, "count", "trace"},
        {"detect.infer.self_ms",
         (split.self_ms("detector", "model_infer") + split.self_ms("detector", "detect")) * tp, "ms", "trace"},
        {"adapt.switches", static_cast<double>(totals.switches) * per_pass, "count", "count"},
        {"core.graph.activations_per_frame",
         ratio(split.calls("graph") * tp, frames), "ratio", "trace"},
        {"core.graph.self_ms", split.self_ms("graph") * tp, "ms", "trace"},
        {"core.engine.self_ms", split.self_ms("pipeline") * tp, "ms", "trace"},
        {"core.fleet.cpu_util", fleet ? ratio(totals.cpu_ms, totals.wall_ms) : 0.0,
         "cores", "host-CPU"},
        {"core.fleet.batches", totals.fleet_batches * per_pass, "count", "modelled"},
        {"core.fleet.mean_batch", ratio(totals.fleet_requests, totals.fleet_batches),
         "count", "modelled"},
        {"core.fleet.gpu_busy_frac", ratio(totals.fleet_busy_ms, totals.fleet_makespan_ms),
         "ratio", "modelled"},
        {"core.fleet.queue_wait_ms_max", totals.fleet_queue_wait_max_ms, "ms", "modelled"},
        {"core.fleet.deadline_miss_frac",
         ratio(totals.fleet_deadline_misses, totals.fleet_results), "ratio",
         "modelled"},
        {"core.realtime.cpu_util", realtime ? ratio(totals.cpu_ms, totals.wall_ms) : 0.0,
         "cores", "host-CPU"},
        {"core.realtime.wait_frame_ms", split.total_ms("detector", "wait_frame") * tp, "ms", "trace"},
        {"core.realtime.wait_detection_ms", split.total_ms("tracker", "wait_detection") * tp, "ms",
         "trace"},
        {"core.realtime.cancellations", totals.rt_cancellations * per_pass, "count", "count"},
        {"core.realtime.frames_dropped", totals.rt_dropped * per_pass, "count", "count"},
        {"core.realtime.capture_p99_ms", split.percentile_ms("camera", "capture", 0.99), "ms", "trace"},
        {"core.supervisor.coast_frames", totals.rt_coast_frames * per_pass, "count", "count"},
        {"core.supervisor.watchdog_timeouts", totals.rt_watchdog_timeouts * per_pass,
         "count", "count"},
        {"metrics.score.self_ms", split.self_ms("bench", "bench.score") * tp, "ms", "trace"},
        {"util.heap_allocs_per_frame",
         ratio(static_cast<double>(totals.allocs.calls), frames_total), "count", "count"},
        {"util.heap_bytes_per_frame",
         ratio(static_cast<double>(totals.allocs.bytes), frames_total), "B", "count"},
        {"util.pool.chunks_per_region",
         ratio(static_cast<double>(totals.pool_chunks),
               static_cast<double>(totals.pool_regions)),
         "ratio", "count"},
        {"obs.tracing_overhead_ratio", ratio(traced_med, wall_med), "ratio", "host-wall"},
        {"core.residual_frac", split.residual_frac(), "ratio", "trace"},
    };
    std::cout << "spans per traced pass (self ms / calls):\n";
    for (const auto& [key, t] : split.spans()) {
      std::cout << "  " << std::left << std::setw(32)
                << key.first + "/" + key.second << std::right
                << std::setw(12) << std::fixed << std::setprecision(2)
                << t.self_ms * tp << " ms " << std::setw(10)
                << std::setprecision(0) << static_cast<double>(t.calls) * tp
                << std::defaultfloat << "\n";
    }
    std::cout << "per-layer:\n";
  }
  print_metrics(metrics);
  std::cout << result_json(correct, totals, metrics) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> options = parse_options(argc, argv);
  if (!options.has_value()) return 2;
  try {
    return run(*options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
