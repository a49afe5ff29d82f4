// AR assistant (the paper's second §I application): a handheld camera pans
// across a scene and the app must keep labels glued to objects at 30 FPS —
// continuously, on-device, without offloading.
//
//   $ ./ar_assistant [--seconds 8] [--time-scale 20]
//
// Unlike the other examples this one drives the *real multithreaded*
// pipeline (camera thread + detector thread + tracker thread with a locked
// frame buffer, §IV-B/§V), not the virtual-time engine, and reports the
// live behaviour: per-thread counts, cancelled tracking tasks, label
// stability.

#include <iostream>

#include "core/realtime_pipeline.h"
#include "core/scoring.h"
#include "core/training.h"
#include "metrics/accuracy.h"
#include "util/args.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace adavp;
  const util::Args args(argc, argv);
  const int seconds = args.get_int("seconds", 8);
  const double time_scale = args.get_double("time-scale", 8.0);

  // A handheld scene: moderate object motion plus camera shake/pan.
  video::SceneConfig scene;
  scene.name = "ar_walkabout";
  scene.frame_count = seconds * 30;
  scene.seed = 31;
  scene.speed_mean = 1.1;
  scene.camera_pan = 1.3;
  scene.initial_objects = 4;
  scene.classes = {video::ObjectClass::kPerson, video::ObjectClass::kDog,
                   video::ObjectClass::kBicycle, video::ObjectClass::kCar};
  video::SyntheticVideo video(scene);
  // Rasterize on demand through the shared FrameStore: the camera thread
  // renders each frame exactly once and every consumer shares the pixels
  // by reference (the stats table below proves it stayed render-once).

  const adapt::ModelAdapter adapter = core::pretrained_adapter();
  core::RealtimeOptions options;
  options.adapter = &adapter;
  options.setting = detect::ModelSetting::kYolov3_512;
  options.time_scale = time_scale;

  std::cout << "Running the three-thread pipeline on " << seconds
            << " s of video at " << time_scale << "x speed...\n\n";
  const core::RealtimeResult result = run_realtime(video, options);

  const auto f1 = score_run(result.run, video, 0.5);
  // Label stability: how often the number of on-screen labels changes
  // between consecutive frames (jittery AR overlays are unusable).
  int label_jumps = 0;
  for (std::size_t i = 1; i < result.run.frames.size(); ++i) {
    const auto a = result.run.frames[i - 1].boxes.size();
    const auto b = result.run.frames[i].boxes.size();
    if (a != b) ++label_jumps;
  }

  util::Table table({"AR-assistant metric", "value"});
  table.add_row({"frames captured (camera thread)",
                 std::to_string(result.stats.frames_captured)});
  table.add_row({"frames detected (GPU thread)",
                 std::to_string(result.stats.frames_detected)});
  table.add_row({"frames tracked (CPU thread)",
                 std::to_string(result.stats.frames_tracked)});
  table.add_row({"tracking tasks cancelled by detector fetch",
                 std::to_string(result.stats.tracking_tasks_cancelled)});
  table.add_row({"frames rasterized (shared frame store)",
                 std::to_string(result.run.frame_store.renders)});
  table.add_row({"frames dropped by the frame buffer",
                 std::to_string(result.stats.frames_dropped)});
  table.add_row({"frame-store shared hits",
                 std::to_string(result.run.frame_store.hits)});
  table.add_row({"pixel-buffer pool reuses",
                 std::to_string(result.run.frame_store.pool_reuses)});
  table.add_row({"model-setting switches",
                 std::to_string(result.run.setting_switches)});
  table.add_row({"mean F1", util::fmt(util::mean(f1), 3)});
  table.add_row({"accuracy (F1 >= 0.7)",
                 util::fmt(metrics::video_accuracy(f1, 0.7), 3)});
  table.add_row({"label-count changes between frames",
                 std::to_string(label_jumps)});
  table.print();

  std::cout << "\nEvery frame got a result from detector, tracker, or reuse;"
               " the display never waits for the DNN (the paper's real-time"
               " requirement).\n";
  return 0;
}
