// Fleet consolidation benchmark (DESIGN.md §13, docs/PERFORMANCE.md).
//
// Sweeps the stream count N through one shared-GPU fleet and compares each
// fleet against the obvious alternative: running the same N streams one at
// a time on the same GPU. All numbers are in *pipeline (virtual) time* —
// the simulated schedule the engines actually produce — so the comparison
// measures the architecture (GPU idle-time consolidation + batching), not
// this host's core count. A cadenced detect-and-coast stream keeps the GPU
// idle for most of each cadence; the fleet packs other streams' detections
// into those holes, so N streams finish in roughly one stream's duration
// instead of N of them.
//
//   ./bench_fleet [--frames=300] [--cadence=500] [--deadline=1000]
//                 [--smoke] [--out=BENCH_FLEET.json]
//   ./bench_fleet --chaos-smoke [--out=BENCH_FLEET.chaos.json]
//
// Writes BENCH_FLEET.json: one sweep row per N (aggregate fps, per-stream
// result-latency p50/p99, deadline-miss rate, admission decisions, GPU
// batching stats) plus a top-level "gate" object consumed by
// scripts/bench_gate.py:
//   fleet_fps_speedup  = sequential pipeline time / fleet makespan at N=8
//                        (must be >= 4: consolidation, the tentpole claim)
//   p99_latency_ratio  = worst fleet per-stream p99 / that stream's solo
//                        p99 at N=8 (must be <= 2: sharing must not wreck
//                        any single stream's latency)
//
// --chaos-smoke instead runs one supervised 6-stream fleet under the chaos
// fault mix from tests/test_fleet_chaos.cpp (gpu: hangs + a stream: crash)
// against the same fleet all-healthy, and writes BENCH_FLEET.chaos.json:
//   chaos_recovery_fps_ratio = crashed stream's served-frame rate under
//                              chaos / all-healthy (must be >= 0.5: the
//                              supervisor recovers most of the stream's
//                              throughput, it does not just shed it)
//   time_to_readmit_ms       = re-admission grant - first quarantine

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/fleet.h"
#include "detect/model_setting.h"
#include "util/args.h"
#include "util/fault_plan.h"
#include "util/table.h"
#include "video/scene.h"

namespace {

using namespace adavp;

struct SweepRow {
  int streams = 0;
  core::FleetResult fleet;
  double sequential_ms = 0.0;   ///< Σ solo pipeline timelines
  double sequential_fps = 0.0;  ///< Σ frames / sequential_ms
  double speedup = 0.0;         ///< sequential_ms / fleet makespan
  double worst_p99_ms = 0.0;
  double worst_p99_ratio = 0.0;  ///< max_i fleet p99_i / solo p99_i
  double mean_p50_ms = 0.0;
  double miss_rate = 0.0;  ///< deadline misses / results, fleet-wide
};

std::vector<core::FleetStreamOptions> make_streams(int n, int frames,
                                                   double cadence_ms,
                                                   double deadline_ms,
                                                   bool smoke) {
  std::vector<core::FleetStreamOptions> streams(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& s = streams[static_cast<std::size_t>(i)];
    s.scene.name = "bench_fleet";
    s.scene.width = smoke ? 128 : 192;
    s.scene.height = smoke ? 96 : 108;
    s.scene.frame_count = frames;
    s.scene.initial_objects = 3;
    s.scene.seed = static_cast<std::uint64_t>(4100 + i);
    s.engine.seed = static_cast<std::uint64_t>(6200 + i);
    s.setting = detect::ModelSetting::kYolov3Tiny_320;
    s.cadence_ms = cadence_ms;
    s.deadline_ms = deadline_ms;
  }
  return streams;
}

SweepRow run_sweep_point(int n, int frames, double cadence_ms,
                         double deadline_ms, bool smoke,
                         const std::vector<double>& solo_p99,
                         double solo_timeline_ms) {
  SweepRow row;
  row.streams = n;
  const std::vector<core::FleetStreamOptions> streams =
      make_streams(n, frames, cadence_ms, deadline_ms, smoke);
  row.fleet = core::run_fleet(streams);

  // Sequential baseline: the same N single-stream runs back to back. Each
  // stream's solo timeline is independent of its neighbors, so reuse the
  // per-stream solo measurements instead of re-running N of them per point.
  std::uint64_t total_frames = 0;
  double p50_sum = 0.0;
  std::uint64_t misses = 0;
  std::uint64_t results = 0;
  int measured = 0;
  for (const core::FleetStreamResult& s : row.fleet.streams) {
    if (s.admission == core::AdmissionDecision::kRejected) continue;
    row.sequential_ms += solo_timeline_ms;
    total_frames += s.run.frames.size();
    row.worst_p99_ms = std::max(row.worst_p99_ms, s.latency_p99_ms);
    const double solo =
        solo_p99[static_cast<std::size_t>(s.stream_id) % solo_p99.size()];
    if (solo > 0.0) {
      row.worst_p99_ratio =
          std::max(row.worst_p99_ratio, s.latency_p99_ms / solo);
    }
    p50_sum += s.latency_p50_ms;
    ++measured;
    for (const core::FrameResult& f : s.run.frames) {
      if (f.source == core::ResultSource::kNone) continue;
      ++results;
      if (f.staleness_ms > deadline_ms) ++misses;
    }
  }
  if (measured > 0) row.mean_p50_ms = p50_sum / measured;
  if (results > 0) {
    row.miss_rate = static_cast<double>(misses) / static_cast<double>(results);
  }
  if (row.sequential_ms > 0.0) {
    row.sequential_fps =
        static_cast<double>(total_frames) * 1000.0 / row.sequential_ms;
  }
  if (row.fleet.makespan_ms > 0.0) {
    row.speedup = row.sequential_ms / row.fleet.makespan_ms;
  }
  return row;
}

void emit_row_json(std::ofstream& json, const SweepRow& r) {
  json << "{\"streams\":" << r.streams << ",\"admitted\":" << r.fleet.admitted
       << ",\"degraded\":" << r.fleet.degraded
       << ",\"rejected\":" << r.fleet.rejected
       << ",\"makespan_ms\":" << r.fleet.makespan_ms
       << ",\"aggregate_fps\":" << r.fleet.aggregate_fps
       << ",\"sequential_ms\":" << r.sequential_ms
       << ",\"sequential_fps\":" << r.sequential_fps
       << ",\"speedup\":" << r.speedup << ",\"mean_p50_ms\":" << r.mean_p50_ms
       << ",\"worst_p99_ms\":" << r.worst_p99_ms
       << ",\"worst_p99_ratio\":" << r.worst_p99_ratio
       << ",\"deadline_miss_rate\":" << r.miss_rate << ",\"gpu\":{\"requests\":"
       << r.fleet.gpu.requests << ",\"batches\":" << r.fleet.gpu.batches
       << ",\"max_batch\":" << r.fleet.gpu.max_batch_seen
       << ",\"busy_ms\":" << r.fleet.gpu.busy_ms
       << ",\"amortization_saved_ms\":" << r.fleet.gpu.amortization_saved_ms
       << "}}";
}

// --- chaos smoke: fleet supervision under fault injection ----------------

/// Served-frame rate of one stream: results delivered per second of its
/// pipeline timeline (frames the stream never served — kNone — don't count,
/// which is exactly what a broken recovery would leave behind).
double served_fps(const core::FleetStreamResult& s) {
  if (s.run.timeline_ms <= 0.0) return 0.0;
  std::uint64_t served = 0;
  for (const core::FrameResult& f : s.run.frames) {
    if (f.source != core::ResultSource::kNone) ++served;
  }
  return static_cast<double>(served) * 1000.0 / s.run.timeline_ms;
}

int run_chaos_smoke(const std::string& out_path) {
  // The chaos soak's TDMA fleet (tests/test_fleet_chaos.cpp): 6 tiny-model
  // streams on a 600 ms cadence in 100 ms stagger slots, gpu: hangs on the
  // shared GPU and a deterministic mid-run crash on stream 2.
  constexpr int kStreams = 6;
  constexpr int kFrames = 300;
  constexpr int kCrashed = 2;
  constexpr double kInterval = 1000.0 / 30.0;
  const auto crash =
      util::FaultPlan::parse("stream: crash at=60; wedge at=130 ms=20", 0xC0A5);
  const auto gpu = util::FaultPlan::parse("gpu: hang p=0.015", 0xBEE5);
  if (!crash.has_value() || !gpu.has_value()) {
    std::cerr << "chaos fault plan failed to parse\n";
    return 1;
  }

  auto make_fleet = [&](const util::FaultPlan* stream_plan) {
    std::vector<core::FleetStreamOptions> streams(kStreams);
    for (int i = 0; i < kStreams; ++i) {
      auto& s = streams[static_cast<std::size_t>(i)];
      s.scene.name = "bench_fleet_chaos";
      s.scene.width = 128;
      s.scene.height = 96;
      s.scene.frame_count = kFrames;
      s.scene.initial_objects = 3;
      s.scene.seed = static_cast<std::uint64_t>(400 + i);
      s.engine.seed = static_cast<std::uint64_t>(9100 + i);
      s.setting = detect::ModelSetting::kYolov3Tiny_320;
      s.cadence_ms = 18.0 * kInterval;
      s.deadline_ms = 900.0;
    }
    if (stream_plan != nullptr) {
      streams[kCrashed].engine.fault_plan = stream_plan;
    }
    return streams;
  };
  core::FleetOptions options;
  options.gpu.max_batch = 4;
  options.stagger_ms = 3.0 * kInterval;
  options.supervisor.enabled = true;

  core::FleetOptions chaos_options = options;
  chaos_options.fault_plan = &*gpu;
  const core::FleetResult healthy = core::run_fleet(make_fleet(nullptr), options);
  const core::FleetResult chaos =
      core::run_fleet(make_fleet(&*crash), chaos_options);

  const core::FleetStreamResult& crashed =
      chaos.streams[static_cast<std::size_t>(kCrashed)];
  const core::StreamSupervisionStats& sv = crashed.supervision;
  const double healthy_fps =
      served_fps(healthy.streams[static_cast<std::size_t>(kCrashed)]);
  const double recovery_ratio =
      healthy_fps > 0.0 ? served_fps(crashed) / healthy_fps : 0.0;
  const double time_to_readmit =
      (sv.readmitted_at_ms >= 0.0 && sv.first_quarantined_at_ms >= 0.0)
          ? sv.readmitted_at_ms - sv.first_quarantined_at_ms
          : -1.0;

  std::cout << "==== bench_fleet --chaos-smoke ====\n"
            << "fleet status: " << chaos.status.to_string() << "\n"
            << "crashed stream: " << sv.crashes << " crashes, " << sv.restarts
            << " restarts, " << sv.probes << " probes, backoff "
            << util::fmt(sv.backoff_total_ms, 0) << " ms\n"
            << "gpu watchdog: " << chaos.gpu.hangs << " hangs, "
            << chaos.gpu.retries << " retries, "
            << util::fmt(chaos.gpu.recovery_ms, 0) << " ms recovery\n"
            << "gate: chaos_recovery_fps_ratio = "
            << util::fmt(recovery_ratio, 3)
            << " (want >= 0.5), time_to_readmit_ms = "
            << util::fmt(time_to_readmit, 0) << "\n";
  if (chaos.status.failed()) {
    std::cerr << "chaos fleet did not survive: " << chaos.status.to_string()
              << "\n";
    return 1;
  }

  std::ofstream json(out_path);
  json << "{\"bench\":\"fleet_chaos\",\"smoke\":true,\"chaos\":true,"
       << "\"scene\":{\"width\":128,"
       << "\"height\":96,\"frames\":" << kFrames
       << "},\"fleet\":{\"streams\":" << kStreams
       << ",\"quarantined\":" << chaos.quarantined
       << ",\"readmitted\":" << chaos.readmitted
       << ",\"aggregate_fps\":" << chaos.aggregate_fps
       << ",\"makespan_ms\":" << chaos.makespan_ms
       << "},\"supervision\":{\"crashes\":" << sv.crashes
       << ",\"restarts\":" << sv.restarts << ",\"probes\":" << sv.probes
       << ",\"backoff_total_ms\":" << sv.backoff_total_ms
       << ",\"stream_faults\":" << sv.stream_faults
       << "},\"gpu\":{\"hangs\":" << chaos.gpu.hangs
       << ",\"retries\":" << chaos.gpu.retries
       << ",\"failed_dispatches\":" << chaos.gpu.failed_dispatches
       << ",\"recovery_ms\":" << chaos.gpu.recovery_ms
       << "},\"gate\":{\"chaos_recovery_fps_ratio\":" << recovery_ratio
       << ",\"time_to_readmit_ms\":" << time_to_readmit << "}}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  if (args.has("chaos-smoke")) {
    return run_chaos_smoke(args.get("out", "BENCH_FLEET.chaos.json"));
  }
  const bool smoke = args.has("smoke");
  const int frames = args.get_int("frames", smoke ? 90 : 300);
  const double cadence_ms = args.get_double("cadence", 500.0);
  const double deadline_ms = args.get_double("deadline", 1000.0);
  const std::string out_path = args.get("out", "BENCH_FLEET.json");

  std::cout << "==== bench_fleet ====\n"
            << "per-stream: " << detect::setting_name(
                   detect::ModelSetting::kYolov3Tiny_320)
            << " @ cadence " << cadence_ms << " ms, deadline " << deadline_ms
            << " ms, " << frames
            << " frames; all latencies in pipeline (virtual) time\n\n";

  // Solo reference: every stream alone on the GPU. Per-stream p99 varies
  // only with the stream's seeds, so measure each seed once and reuse it
  // for both the sequential baseline and the p99 ratio.
  constexpr int kMaxStreams = 8;
  std::vector<double> solo_p99;
  double solo_timeline_ms = 0.0;
  for (int i = 0; i < kMaxStreams; ++i) {
    const core::FleetResult solo = core::run_fleet(
        {make_streams(i + 1, frames, cadence_ms, deadline_ms, smoke).back()});
    solo_p99.push_back(solo.streams[0].latency_p99_ms);
    solo_timeline_ms += solo.streams[0].run.timeline_ms;
  }
  solo_timeline_ms /= kMaxStreams;

  std::vector<SweepRow> rows;
  for (int n : {1, 2, 4, 8}) {
    rows.push_back(run_sweep_point(n, frames, cadence_ms, deadline_ms, smoke,
                                   solo_p99, solo_timeline_ms));
  }

  util::Table table({"streams", "admit/degr/rej", "makespan ms",
                     "aggregate fps", "speedup", "p50 ms", "worst p99 ms",
                     "p99 ratio", "miss rate", "max batch"});
  for (const SweepRow& r : rows) {
    table.add_row({std::to_string(r.streams),
                   std::to_string(r.fleet.admitted) + "/" +
                       std::to_string(r.fleet.degraded) + "/" +
                       std::to_string(r.fleet.rejected),
                   util::fmt(r.fleet.makespan_ms, 0),
                   util::fmt(r.fleet.aggregate_fps, 1), util::fmt(r.speedup, 2),
                   util::fmt(r.mean_p50_ms, 0), util::fmt(r.worst_p99_ms, 0),
                   util::fmt(r.worst_p99_ratio, 2), util::fmt(r.miss_rate, 3),
                   std::to_string(r.fleet.gpu.max_batch_seen)});
  }
  table.print();

  const SweepRow& gate_row = rows.back();
  std::cout << "\nN=" << gate_row.streams
            << " gate: fleet_fps_speedup = " << util::fmt(gate_row.speedup, 2)
            << "x (want >= 4), p99_latency_ratio = "
            << util::fmt(gate_row.worst_p99_ratio, 2) << " (want <= 2)\n";

  std::ofstream json(out_path);
  json << "{\"bench\":\"fleet\",\"smoke\":" << (smoke ? "true" : "false")
       << ",\"scene\":{\"width\":" << (smoke ? 128 : 192)
       << ",\"height\":" << (smoke ? 96 : 108) << ",\"frames\":" << frames
       << "},\"stream\":{\"setting\":\""
       << detect::setting_name(detect::ModelSetting::kYolov3Tiny_320)
       << "\",\"cadence_ms\":" << cadence_ms
       << ",\"deadline_ms\":" << deadline_ms << "},\"sweep\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i != 0) json << ",";
    emit_row_json(json, rows[i]);
  }
  json << "],\"gate\":{\"fleet_fps_speedup\":" << gate_row.speedup
       << ",\"p99_latency_ratio\":" << gate_row.worst_p99_ratio << "}}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
