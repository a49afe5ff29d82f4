// End-to-end pipeline benchmark for the zero-copy frame store.
//
// Runs the MPDT engine and the realtime three-thread pipeline twice each:
// once with the store forced into its degenerate mode ({window = 0,
// pool_buffers = 0} — the pre-store cost model: frames re-render per
// consumer and every render heap-allocates) and once with the default
// render-once shared store. Outputs are bit-identical between the two
// modes (tests/test_frame_store.cpp pins that), so any delta is pure
// frame-path cost. A third section streams frames through a bare
// FrameStore to measure the steady-state cost of one `get` and confirm
// the warm pool performs zero heap allocations per frame.
//
//   ./bench_pipeline [--frames=240] [--time-scale=40] [--smoke]
//                    [--out=BENCH_PIPELINE.json]
//
// Writes BENCH_PIPELINE.json: per-frame render counts (the "before" mode
// shows the old double/triple render, "after" must be <= 1.0), heap
// allocations observed by a global operator-new counter, and realtime
// throughput. `--smoke` shrinks everything for CI wiring checks.
//
// `heap_allocs_per_frame` is a steady-state rate measured the same way at
// every scale (see steady_allocs_per_frame), so smoke and full reports can
// be compared; `heap_allocs` stays the whole run's total.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <string>

#include "core/baselines.h"
#include "core/mpdt_pipeline.h"
#include "core/realtime_pipeline.h"
#include "util/args.h"
#include "util/table.h"
#include "video/frame_store.h"
#include "video/scene.h"

// ------------------------------------------------ allocation observatory ---
// Global operator new/delete overrides local to this binary: every heap
// allocation on any thread bumps the counter, so a run's delta is the real
// allocation traffic of the pipeline (pixels, vectors, everything).

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace adavp;

struct AllocDelta {
  std::uint64_t count;
  std::uint64_t bytes;
};

class AllocScope {
 public:
  AllocScope()
      : count_(g_alloc_count.load()), bytes_(g_alloc_bytes.load()) {}
  AllocDelta delta() const {
    return {g_alloc_count.load() - count_, g_alloc_bytes.load() - bytes_};
  }

 private:
  std::uint64_t count_;
  std::uint64_t bytes_;
};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

video::SceneConfig bench_scene(int frames) {
  video::SceneConfig cfg;
  cfg.name = "bench_pipeline";
  cfg.width = 256;
  cfg.height = 144;
  cfg.frame_count = frames;
  cfg.seed = 77;
  cfg.initial_objects = 4;
  cfg.speed_mean = 1.2;
  return cfg;
}

video::FrameStoreOptions degenerate_store() {
  video::FrameStoreOptions opt;
  opt.window = 0;        // no retention: re-render per consumer, like the
  opt.pool_buffers = 0;  // pre-store pipeline; no buffer recycling either
  return opt;
}

struct RunRow {
  std::string pipeline;
  std::string mode;
  double wall_ms = 0.0;
  double fps = 0.0;  ///< frames / wall second (realtime only; 0 for mpdt)
  int frames = 0;
  /// Frames the engine worked on: every frame for MPDT; detected plus
  /// tracked frames for realtime, whose pacing decides how many of the
  /// captured frames it gets to.
  int processed_frames = 0;
  video::FrameStoreStats store;
  AllocDelta allocs{0, 0};
  double steady_allocs_per_frame = 0.0;  ///< see steady_allocs_per_frame()

  double renders_per_frame() const {
    return frames > 0 ? static_cast<double>(store.renders) / frames : 0.0;
  }
};

RunRow run_mpdt_once(const video::SceneConfig& cfg, const std::string& mode,
                     const video::FrameStoreOptions& store_opt) {
  video::SyntheticVideo video(cfg);
  core::MpdtOptions options;
  options.frame_store = store_opt;
  RunRow row;
  row.pipeline = "mpdt";
  row.mode = mode;
  row.frames = cfg.frame_count;
  row.processed_frames = cfg.frame_count;
  const AllocScope allocs;
  const double t0 = now_ms();
  const core::RunResult run = core::run_mpdt(video, options);
  row.wall_ms = now_ms() - t0;
  row.allocs = allocs.delta();
  row.store = run.frame_store;
  return row;
}

RunRow run_realtime_once(const video::SceneConfig& cfg, const std::string& mode,
                         const video::FrameStoreOptions& store_opt,
                         double time_scale) {
  video::SyntheticVideo video(cfg);
  core::RealtimeOptions options;
  options.time_scale = time_scale;
  options.frame_store = store_opt;
  RunRow row;
  row.pipeline = "realtime";
  row.mode = mode;
  const AllocScope allocs;
  const double t0 = now_ms();
  const core::RealtimeResult result = core::run_realtime(video, options);
  row.wall_ms = now_ms() - t0;
  row.allocs = allocs.delta();
  row.store = result.run.frame_store;
  row.frames = result.stats.frames_captured;
  row.processed_frames =
      result.stats.frames_detected + result.stats.frames_tracked;
  row.fps = row.wall_ms > 0.0 ? row.frames / (row.wall_ms / 1000.0) : 0.0;
  return row;
}

/// Heap allocations per processed frame once a run is under way, measured
/// on the same frames at every scale. `reps` pairs of runs cover the first
/// kSteadyTo and the first kSteadyFrom frames of `cfg`'s scene; the rate is
/// the longer runs' extra allocations per extra processed frame. Set-up
/// (engine graph, detector tables, threads' first scratch blocks) cancels
/// out. The window is fixed rather than scaled with --frames because the
/// scene's object population drifts over the video: with set-up excluded,
/// MPDT still allocates about 40 times per frame over frames 24..48 and 29
/// over frames 120..240. MPDT is deterministic and needs one pair;
/// realtime's schedule varies with the host, so its pairs are summed.
constexpr int kSteadyFrom = 48;
constexpr int kSteadyTo = 240;

template <typename RunFn>
double steady_allocs_per_frame(const video::SceneConfig& cfg, RunFn run,
                               int reps) {
  video::SceneConfig shorter = cfg;
  shorter.frame_count = kSteadyFrom;
  video::SceneConfig longer = cfg;
  longer.frame_count = kSteadyTo;
  double extra_allocs = 0.0;
  int extra_frames = 0;
  for (int r = 0; r < reps; ++r) {
    const RunRow a = run(shorter);
    const RunRow b = run(longer);
    extra_allocs += static_cast<double>(b.allocs.count) -
                    static_cast<double>(a.allocs.count);
    extra_frames += b.processed_frames - a.processed_frames;
  }
  return extra_frames > 0 ? extra_allocs / extra_frames : 0.0;
}

/// Streams the whole video through a bare store with a sliding trim, the
/// way the pipelines consume it, and samples the allocation counter after
/// the pool has warmed: steady-state frames must allocate nothing.
struct SteadyState {
  int frames = 0;
  double ns_per_get = 0.0;
  std::uint64_t warmup_allocs = 0;
  std::uint64_t steady_allocs = 0;  ///< second half of the stream
  double steady_allocs_per_frame = 0.0;
};

SteadyState run_store_steady_state(const video::SceneConfig& cfg) {
  video::SyntheticVideo video(cfg);
  video::FrameStoreOptions opt;
  opt.window = 8;
  opt.pool_buffers = 16;
  video::FrameStore store(video, opt);
  SteadyState out;
  out.frames = cfg.frame_count;
  const int half = cfg.frame_count / 2;
  const AllocScope warm;
  const double t0 = now_ms();
  AllocDelta at_half{0, 0};
  for (int f = 0; f < cfg.frame_count; ++f) {
    store.trim_below(f - opt.window);
    const video::FrameRef ref = store.get(f);
    if (!ref.valid()) std::abort();
    if (f + 1 == half) at_half = warm.delta();
  }
  const double total_ms = now_ms() - t0;
  const AllocDelta total = warm.delta();
  out.ns_per_get = cfg.frame_count > 0
                       ? total_ms * 1e6 / cfg.frame_count
                       : 0.0;
  out.warmup_allocs = at_half.count;
  out.steady_allocs = total.count - at_half.count;
  const int steady_frames = cfg.frame_count - half;
  out.steady_allocs_per_frame =
      steady_frames > 0 ? static_cast<double>(out.steady_allocs) / steady_frames
                        : 0.0;
  return out;
}

void emit_row_json(std::ofstream& json, const RunRow& r) {
  json << "{\"mode\":\"" << r.mode << "\",\"frames\":" << r.frames
       << ",\"wall_ms\":" << r.wall_ms << ",\"fps\":" << r.fps
       << ",\"renders\":" << r.store.renders
       << ",\"re_renders\":" << r.store.re_renders
       << ",\"renders_per_frame\":" << r.renders_per_frame()
       << ",\"store_hits\":" << r.store.hits
       << ",\"pool_reuses\":" << r.store.pool_reuses
       << ",\"pool_allocs\":" << r.store.pool_allocs
       << ",\"heap_allocs\":" << r.allocs.count
       << ",\"heap_allocs_per_frame\":" << r.steady_allocs_per_frame
       << ",\"heap_bytes\":" << r.allocs.bytes << "}";
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const bool smoke = args.has("smoke");
  const int frames = args.get_int("frames", smoke ? 48 : 240);
  const double time_scale = args.get_double("time-scale", smoke ? 60.0 : 40.0);
  const std::string out_path = args.get("out", "BENCH_PIPELINE.json");

  const video::SceneConfig cfg = bench_scene(frames);
  std::cout << "==== bench_pipeline ====\n"
            << "scene " << cfg.width << "x" << cfg.height << ", " << frames
            << " frames; modes: before = {window=0, pool=0} (pre-store cost"
               " model), after = default render-once store\n\n";

  // Warm-up outside all measurements: thread-pool startup, detector tables.
  (void)run_mpdt_once(bench_scene(std::min(frames, 24)), "warmup",
                      video::FrameStoreOptions{});

  const auto mpdt = [](const std::string& mode,
                       const video::FrameStoreOptions& store_opt) {
    return [=](const video::SceneConfig& c) {
      return run_mpdt_once(c, mode, store_opt);
    };
  };
  const auto realtime = [time_scale](const std::string& mode,
                                     const video::FrameStoreOptions& store_opt) {
    return [=](const video::SceneConfig& c) {
      return run_realtime_once(c, mode, store_opt, time_scale);
    };
  };
  RunRow mpdt_before = run_mpdt_once(cfg, "before", degenerate_store());
  RunRow mpdt_after = run_mpdt_once(cfg, "after", video::FrameStoreOptions{});
  RunRow rt_before =
      run_realtime_once(cfg, "before", degenerate_store(), time_scale);
  RunRow rt_after = run_realtime_once(cfg, "after", video::FrameStoreOptions{},
                                      time_scale);
  mpdt_before.steady_allocs_per_frame =
      steady_allocs_per_frame(cfg, mpdt("before", degenerate_store()), 1);
  mpdt_after.steady_allocs_per_frame = steady_allocs_per_frame(
      cfg, mpdt("after", video::FrameStoreOptions{}), 1);
  rt_before.steady_allocs_per_frame =
      steady_allocs_per_frame(cfg, realtime("before", degenerate_store()), 10);
  rt_after.steady_allocs_per_frame = steady_allocs_per_frame(
      cfg, realtime("after", video::FrameStoreOptions{}), 10);
  const SteadyState steady = run_store_steady_state(cfg);

  util::Table table({"pipeline", "mode", "wall ms", "fps", "renders/frame",
                     "heap allocs", "steady allocs/frame"});
  for (const RunRow* r :
       {&mpdt_before, &mpdt_after, &rt_before, &rt_after}) {
    table.add_row({r->pipeline, r->mode, util::fmt(r->wall_ms, 1),
                   util::fmt(r->fps, 1), util::fmt(r->renders_per_frame(), 2),
                   std::to_string(r->allocs.count),
                   util::fmt(r->steady_allocs_per_frame, 1)});
  }
  table.print();
  std::cout << "\nstore steady state: " << util::fmt(steady.ns_per_get / 1e6, 3)
            << " ms/get, " << steady.warmup_allocs << " warm-up allocs, "
            << steady.steady_allocs << " steady-state allocs ("
            << util::fmt(steady.steady_allocs_per_frame, 3)
            << " per frame; must be 0 with a warm pool)\n";

  const double fps_speedup =
      rt_before.fps > 0.0 ? rt_after.fps / rt_before.fps : 0.0;
  std::cout << "realtime renders/frame " << util::fmt(rt_before.renders_per_frame(), 2)
            << " -> " << util::fmt(rt_after.renders_per_frame(), 2)
            << ", fps speedup " << util::fmt(fps_speedup, 2) << "x\n";

  std::ofstream json(out_path);
  json << "{\"bench\":\"pipeline\",\"smoke\":" << (smoke ? "true" : "false")
       << ",\"scene\":{\"width\":" << cfg.width << ",\"height\":" << cfg.height
       << ",\"frames\":" << frames << "},\"time_scale\":" << time_scale
       << ",\"mpdt\":[";
  emit_row_json(json, mpdt_before);
  json << ",";
  emit_row_json(json, mpdt_after);
  json << "],\"realtime\":[";
  emit_row_json(json, rt_before);
  json << ",";
  emit_row_json(json, rt_after);
  json << "],\"realtime_fps_speedup\":" << fps_speedup
       << ",\"store_steady_state\":{\"frames\":" << steady.frames
       << ",\"ms_per_get\":" << steady.ns_per_get / 1e6
       << ",\"warmup_heap_allocs\":" << steady.warmup_allocs
       << ",\"steady_heap_allocs\":" << steady.steady_allocs
       << ",\"steady_heap_allocs_per_frame\":" << steady.steady_allocs_per_frame
       << "}}\n";
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
