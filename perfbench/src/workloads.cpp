// The four perfbench workloads. The videos are fixed (the held-out test set
// at kTestSetSeed and fixed fleet scenes); the run's --seed drives every
// engine seed — detector-simulator noise, latency draws, adapter paths — so
// the same seed always yields the same inputs. README.md says why each
// workload exists and why the videos do not follow the seed.

#include <algorithm>
#include <span>
#include <stdexcept>

#include "core/training.h"
#include "harness.h"
#include "obs/slo.h"
#include "video/profiles.h"

namespace perfbench {
namespace {

using namespace adavp;

constexpr int kWidth = 384;
constexpr int kHeight = 216;
/// Frames of the warm-up call every set-up ends with (starts the shared
/// kernel thread pool and faults in the code paths the units take).
constexpr int kWarmupFrames = 30;

// --- eval_ondemand / replay_precached ------------------------------------

/// The held-out test set's seed (the figure benches' default). Scene
/// content moves accuracy far more than engine seeds do, so the videos stay
/// fixed and only the engine seeds follow --seed.
constexpr std::uint64_t kTestSetSeed = 2020;

/// All 14 test scenarios, short: more videos average accuracy better than
/// longer ones at the same frame count.
constexpr int kEvalVideos[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13};
constexpr int kEvalFrames = 100;

/// Fig. 6's method families: both graph engines that touch pixels (AdaVP),
/// the legacy sequential loop (MARLIN), and the two detector-only graphs.
const core::MethodSpec kEvalMethods[] = {
    {core::MethodKind::kAdaVP, detect::ModelSetting::kYolov3_512},
    {core::MethodKind::kMarlin, detect::ModelSetting::kYolov3_512},
    {core::MethodKind::kDetectOnly, detect::ModelSetting::kYolov3_512},
    {core::MethodKind::kContinuous, detect::ModelSetting::kYolov3_320},
};

// --- fleet4 ---------------------------------------------------------------

/// bench_fleet's street scene at 384x216. YOLOv3-512 at a 1000 ms cadence
/// rather than bench_fleet's tiny-320 at 500 ms: tiny-320 scores almost no
/// frame at F1 >= 0.7 on these scenes, which leaves `accuracy` at 0.
constexpr int kFleetStreams = 4;
constexpr int kFleetFrames = 300;
constexpr double kFleetCadenceMs = 1000.0;
constexpr detect::ModelSetting kFleetSetting = detect::ModelSetting::kYolov3_512;

// --- realtime_2x -----------------------------------------------------------

/// Kept below this host class's capacity (see README.md): at 2x a 4-core
/// AVX2 host keeps the camera's schedule, so accuracy measures the design
/// rather than how far the host fell behind.
constexpr double kRealtimeScale = 2.0;
constexpr int kRealtimeVideos[] = {2, 9};
constexpr int kRealtimeFrames = 300;
/// The SLO's per-result deadline: the top of the paper's 200-470 ms
/// "inevitable" pipeline latency.
constexpr double kRealtimeSloDeadlineMs = 500.0;

/// The fleet streams' EDF deadline (bench_fleet's default), which
/// `core.fleet.deadline_miss_frac` counts against.
constexpr double kFleetDeadlineMs = 1000.0;

std::uint64_t engine_seed(std::uint64_t seed, std::size_t unit) {
  return 0xADA5EEDULL ^ (seed * 0x9E3779B97F4A7C15ULL) ^ (unit * 0x9E37ULL);
}

std::vector<video::SceneConfig> pick_test_videos(std::span<const int> indices,
                                                 int frames) {
  const std::vector<video::SceneConfig> test_set =
      video::make_test_set(kTestSetSeed, frames);
  std::vector<video::SceneConfig> picked;
  for (const int index : indices) {
    video::SceneConfig scene = test_set.at(static_cast<std::size_t>(index));
    scene.width = kWidth;
    scene.height = kHeight;
    picked.push_back(std::move(scene));
  }
  return picked;
}

video::SceneConfig warmup_scene(video::SceneConfig scene) {
  scene.frame_count = kWarmupFrames;
  return scene;
}

/// One Fig. 6 run with the vision kernels on the calling thread. Pooled
/// kernels make single-stream wall time hostage to whether the host runs
/// all four vCPUs at once: on a shared host their wall spread across runs
/// reached 0.77 while CPU time held within 0.05. Every thread count gives
/// bit-identical output; kernel parallelism is measured on fleet4.
core::RunResult run_eval_method(const core::MethodSpec& spec,
                                const video::SyntheticVideo& video,
                                const adapt::ModelAdapter& adapter,
                                std::uint64_t seed) {
  track::TrackerParams tracker;
  tracker.kernels.num_threads = 1;
  switch (spec.kind) {
    case core::MethodKind::kAdaVP: {
      core::MpdtOptions options;
      options.setting = spec.setting;
      options.adapter = &adapter;
      options.seed = seed;
      options.tracker = tracker;
      return core::run_mpdt(video, options);
    }
    case core::MethodKind::kMarlin: {
      core::MarlinOptions options;
      options.setting = spec.setting;
      options.seed = seed;
      options.tracker = tracker;
      return core::run_marlin(video, options);
    }
    default:  // the detector-only engines never track
      return core::run_method(spec, video, &adapter, seed);
  }
}

struct EvalState {
  std::vector<video::SceneConfig> scenes;
  std::vector<std::unique_ptr<video::SyntheticVideo>> videos;
  adapt::ModelAdapter adapter = core::pretrained_adapter();
};

Workload make_eval(std::uint64_t seed, bool precached) {
  auto state = std::make_shared<EvalState>();
  state->scenes = pick_test_videos(kEvalVideos, kEvalFrames);
  for (const video::SceneConfig& scene : state->scenes) {
    state->videos.push_back(std::make_unique<video::SyntheticVideo>(scene));
    if (precached) state->videos.back()->precache();
  }
  {
    const video::SyntheticVideo clip(warmup_scene(state->scenes.front()));
    run_eval_method(kEvalMethods[0], clip, state->adapter, seed);
  }

  Workload workload;
  for (std::size_t v = 0; v < state->videos.size(); ++v) {
    for (const core::MethodSpec& spec : kEvalMethods) {
      const std::uint64_t unit_seed = engine_seed(seed, workload.units.size());
      EvalState* s = state.get();
      workload.units.push_back(
          {core::method_name(spec) + "/" + state->scenes[v].name,
           [s, v, spec, unit_seed] {
             const video::SyntheticVideo& video = *s->videos[v];
             UnitOutput out;
             out.dataset.spec = spec;
             out.dataset.runs.push_back(
                 run_eval_method(spec, video, s->adapter, unit_seed));
             out.scenes.push_back(s->scenes[v]);
             out.frames = video.frame_count();
             out.schedule_ms = video.frame_count() * video.frame_interval_ms();
             return out;
           }});
    }
  }
  workload.state = std::move(state);
  return workload;
}

struct FleetState {
  std::vector<core::FleetStreamOptions> streams;
  core::FleetOptions options;
};

std::vector<core::FleetStreamOptions> fleet_streams(std::uint64_t seed,
                                                    int frames) {
  std::vector<core::FleetStreamOptions> streams(kFleetStreams);
  for (int i = 0; i < kFleetStreams; ++i) {
    core::FleetStreamOptions& s = streams[static_cast<std::size_t>(i)];
    s.scene.name = "fleet" + std::to_string(i);
    s.scene.width = kWidth;
    s.scene.height = kHeight;
    s.scene.frame_count = frames;
    s.scene.initial_objects = 3;
    s.scene.seed = static_cast<std::uint64_t>(16 + i);
    s.engine.seed = engine_seed(seed, static_cast<std::size_t>(i));
    s.setting = kFleetSetting;
    s.cadence_ms = kFleetCadenceMs;
    s.deadline_ms = kFleetDeadlineMs;
  }
  return streams;
}

Workload make_fleet(std::uint64_t seed) {
  auto state = std::make_shared<FleetState>();
  state->streams = fleet_streams(seed, kFleetFrames);
  state->options.supervisor.enabled = true;
  core::run_fleet(fleet_streams(seed, kWarmupFrames), state->options);

  Workload workload;
  FleetState* s = state.get();
  workload.units.push_back({"run_fleet", [s] {
    core::FleetResult fleet = core::run_fleet(s->streams, s->options);
    UnitOutput out;
    for (std::size_t i = 0; i < fleet.streams.size(); ++i) {
      core::FleetStreamResult& stream = fleet.streams[i];
      out.dataset.runs.push_back(std::move(stream.run));
      out.scenes.push_back(s->streams[i].scene);
      out.frames += s->streams[i].scene.frame_count;
      out.fleet_queue_wait_max_ms = std::max(out.fleet_queue_wait_max_ms,
                                             stream.queue.queue_wait_max_ms);
      const auto results = static_cast<double>(std::count_if(
          out.dataset.runs.back().frames.begin(),
          out.dataset.runs.back().frames.end(), [](const core::FrameResult& f) {
            return f.source != core::ResultSource::kNone;
          }));
      out.fleet_results += results;
      out.fleet_deadline_misses += stream.deadline_miss_rate * results;
    }
    const video::SceneConfig& scene = s->streams.front().scene;
    out.schedule_ms = scene.frame_count * 1000.0 / scene.fps;
    out.gpu = fleet.gpu;
    out.fleet_makespan_ms = fleet.makespan_ms;
    return out;
  }});
  workload.state = std::move(state);
  return workload;
}

struct RealtimeState {
  std::vector<video::SceneConfig> scenes;
  std::vector<std::unique_ptr<video::SyntheticVideo>> videos;
  adapt::ModelAdapter adapter = core::pretrained_adapter();
  obs::SloSpec slo;
};

core::RealtimeOptions realtime_options(const RealtimeState& s,
                                       std::uint64_t seed) {
  core::RealtimeOptions options;
  options.adapter = &s.adapter;
  options.time_scale = kRealtimeScale;
  options.seed = seed;
  options.supervisor.enabled = true;
  options.slo = &s.slo;
  return options;
}

Workload make_realtime(std::uint64_t seed) {
  auto state = std::make_shared<RealtimeState>();
  state->slo.deadline_ms = kRealtimeSloDeadlineMs;
  state->scenes = pick_test_videos(kRealtimeVideos, kRealtimeFrames);
  for (const video::SceneConfig& scene : state->scenes) {
    state->videos.push_back(std::make_unique<video::SyntheticVideo>(scene));
  }
  {
    const video::SyntheticVideo clip(warmup_scene(state->scenes.front()));
    core::run_realtime(clip, realtime_options(*state, seed));
  }

  Workload workload;
  workload.deterministic = false;
  for (std::size_t v = 0; v < state->videos.size(); ++v) {
    RealtimeState* s = state.get();
    // Each repetition draws the next engine seed: accuracy differs by seed
    // more than by schedule, so a run averages over as many seeds as it
    // makes calls.
    workload.units.push_back({"run_realtime/" + state->scenes[v].name,
                              [s, v, seed, rep = std::size_t{0}]() mutable {
      const core::RealtimeOptions options = realtime_options(
          *s, engine_seed(seed, v + s->videos.size() * rep++));
      const video::SyntheticVideo& video = *s->videos[v];
      core::RealtimeResult result = core::run_realtime(video, options);
      UnitOutput out;
      out.dataset.spec = {core::MethodKind::kAdaVP, options.setting};
      out.dataset.runs.push_back(std::move(result.run));
      out.scenes.push_back(s->scenes[v]);
      out.frames = video.frame_count();
      out.schedule_ms = video.frame_count() * video.frame_interval_ms() /
                        options.time_scale;
      out.staleness_on_every_frame = false;
      out.realtime = result.stats;
      return out;
    }});
  }
  workload.state = std::move(state);
  return workload;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "eval_ondemand", "replay_precached", "fleet4", "realtime_2x"};
  return names;
}

bool runs_on_one_cpu(const std::string& name) {
  // fleet4's stream threads advance in lockstep on the shared GPU, so its
  // wall time follows how many vCPUs a shared host grants at the moment:
  // over one ten-seed series its frames_per_s flipped between ~600 and
  // ~300 (spread 0.53) while CPU time held within 0.06. On one CPU the
  // threads still share the pool, frame path and GPU queue, and wall time
  // tracks CPU time.
  return name == "fleet4";
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "eval_ondemand") return make_eval(seed, /*precached=*/false);
  if (name == "replay_precached") return make_eval(seed, /*precached=*/true);
  if (name == "fleet4") return make_fleet(seed);
  if (name == "realtime_2x") return make_realtime(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

std::string cross_check_workload(const std::string& name) {
  // One direction catches a divergence of either frame path, and this one
  // is cheap: the precached counterpart renders in parallel and replays
  // fast, where the on-demand one would add a full rendering pass.
  return name == "eval_ondemand" ? "replay_precached" : "";
}

}  // namespace perfbench
