// Types shared by the perfbench binary's main loop (main.cpp), its workloads
// (workloads.cpp) and the per-layer split of traced runs (layers.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/fleet.h"
#include "core/realtime_pipeline.h"
#include "video/scene.h"

namespace perfbench {

/// What one unit of work — one call into an engine entry point — produced.
struct UnitOutput {
  /// One run per processed video (`dataset.runs[i]` processed `scenes[i]`);
  /// the shape core::dataset_video_accuracies scores.
  adavp::core::DatasetRun dataset;
  std::vector<adavp::video::SceneConfig> scenes;
  /// Frames the unit was asked to process (the benchmark's operations).
  int frames = 0;
  /// Wall time a live camera needs to deliver those frames: the `overrun`
  /// denominator (streams that run side by side share one schedule).
  double schedule_ms = 0.0;
  /// False for run_realtime, which stamps a staleness on detector results
  /// only (tracked and reused frames carry 0): its staleness sample is then
  /// the detector frames.
  bool staleness_on_every_frame = true;
  /// run_fleet only (zero otherwise).
  adavp::core::FleetGpuStats gpu;
  double fleet_makespan_ms = 0.0;
  double fleet_queue_wait_max_ms = 0.0;
  /// Frames with a result, and those whose staleness passed the stream's
  /// deadline (from each stream's deadline_miss_rate).
  double fleet_results = 0.0;
  double fleet_deadline_misses = 0.0;
  /// run_realtime only (zero otherwise).
  adavp::core::RealtimeStats realtime;
};

/// One engine entry call with fixed inputs.
struct Unit {
  std::string name;
  std::function<UnitOutput()> run;
};

/// A workload after set-up: its units, run in order once per pass. `state`
/// owns what the units reference (videos, adapter, stream options).
struct Workload {
  std::vector<Unit> units;
  /// Virtual-time engines reproduce every run bit for bit, so each unit's
  /// digest must repeat; the realtime pipeline runs on the wall clock.
  bool deterministic = true;
  std::shared_ptr<void> state;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// True for workloads that run with the whole process on one CPU (set
/// before any thread starts; see workloads.cpp for why).
bool runs_on_one_cpu(const std::string& name);

/// Builds a workload's inputs from `seed`: videos, trajectories, precache,
/// adapter, and a warm-up call. This is the set-up `setup_s` times.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// The workload that runs the same units over the same inputs through the
/// other frame path (replay_precached for eval_ondemand), for the
/// cross-path digest check; empty when the workload makes no such check.
std::string cross_check_workload(const std::string& name);

}  // namespace perfbench
