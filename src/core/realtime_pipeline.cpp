#include "core/realtime_pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "core/clock.h"
#include "core/engine_runtime.h"
#include "detect/latency_model.h"
#include "energy/energy_meter.h"
#include "energy/power_model.h"
#include "obs/telemetry.h"
#include "util/closable_queue.h"
#include "video/camera.h"
#include "video/frame_buffer.h"

namespace adavp::core {

namespace {

/// Sleeps whatever is left of a modeled latency after the real compute
/// that already happened. The modeled TX2 latencies are meant to SUBSUME
/// the actual CPU work this reproduction performs (LK, rasterizing), so
/// pacing must not pay for it twice — otherwise high time scales starve
/// the tracker of its schedule share.
class PacedSection {
 public:
  PacedSection(double modeled_ms, double time_scale)
      : deadline_(std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double, std::milli>(modeled_ms /
                                                                time_scale))) {}
  ~PacedSection() { std::this_thread::sleep_until(deadline_); }

 private:
  std::chrono::steady_clock::time_point deadline_;
};

/// Instrument handles resolved once per run, so the per-frame hot paths
/// never touch the registry map. All null when telemetry is disabled —
/// call sites reduce to one pointer test.
struct RealtimeInstruments {
  obs::Counter* detector_cycles = nullptr;
  obs::Counter* tracker_frames = nullptr;
  obs::Counter* tracker_batches = nullptr;
  obs::Counter* tracker_cancelled = nullptr;
  obs::Counter* adapter_switches = nullptr;
  obs::Counter* watchdog_timeouts = nullptr;
  obs::Counter* coast_frames = nullptr;
  obs::Gauge* degrade_level = nullptr;
  obs::Gauge* buffer_depth = nullptr;
  obs::FixedHistogram* detect_occupancy_ms = nullptr;  ///< modeled GPU busy
  obs::FixedHistogram* batch_frames = nullptr;  ///< catch-up batch sizes
  /// Per-window result telemetry (fps via rates, latency quantiles per
  /// second of pipeline time) — the windowed complement of the counters.
  obs::TimeSeries* results_ts = nullptr;
  obs::TimeSeries* coast_ts = nullptr;

  static RealtimeInstruments resolve() {
    RealtimeInstruments ins;
    if (!obs::Telemetry::enabled()) return ins;
    obs::MetricsRegistry& reg = obs::metrics();
    ins.detector_cycles = &reg.counter("detector", "cycles");
    ins.tracker_frames = &reg.counter("tracker", "frames");
    ins.tracker_batches = &reg.counter("tracker", "batches");
    ins.tracker_cancelled = &reg.counter("tracker", "cancellations");
    ins.adapter_switches = &reg.counter("adapter", "switches");
    ins.watchdog_timeouts = &reg.counter("watchdog", "timeouts");
    ins.coast_frames = &reg.counter("coast", "frames");
    ins.degrade_level = &reg.gauge("degrade", "level");
    ins.buffer_depth = &reg.gauge("buffer", "depth");
    ins.detect_occupancy_ms =
        &reg.latency_histogram("detector", "occupancy_ms");
    ins.batch_frames = &reg.histogram(
        "tracker", "batch_frames", {1, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64});
    obs::TimeSeries::Options ts_opts;
    ts_opts.edges = obs::FixedHistogram::default_latency_edges_ms();
    ins.results_ts = &obs::time_series().series("realtime", "result_latency_ms",
                                                ts_opts);
    ins.coast_ts = &obs::time_series().series("realtime", "coast_frames", {});
    return ins;
  }
};

/// A finished detection handed from the detector thread to the tracker
/// thread: reference detections for `ref_index`, frames up to `track_upto`
/// to propagate across.
struct DetectionEvent {
  int ref_index = 0;
  int track_upto = 0;
  detect::ModelSetting setting = detect::ModelSetting::kYolov3_512;
  std::vector<detect::Detection> detections;
  /// The already-rendered reference frame, carried along so the tracker
  /// re-arms from the same pixels the camera produced instead of paying a
  /// second rasterization (the pre-store pipeline rendered every reference
  /// frame twice).
  video::FrameRef ref_frame;
  /// True when the detections are coasted (decayed last-good boxes, not a
  /// fresh inference) — the supervisor's tracker-only fallback.
  bool coast = false;
};

}  // namespace

RealtimeResult run_realtime(const video::SyntheticVideo& video,
                            const RealtimeOptions& options) {
  RealtimeResult result;
  const int frame_count = video.frame_count();
  if (frame_count == 0) return result;
  const double scale = options.time_scale;

  // Telemetry: resolve instruments once and remember the registry state so
  // the result carries this run's deltas only. (Runs are not re-entrant
  // with respect to the global registry; concurrent runs would sum.)
  const bool telemetry_on = obs::Telemetry::enabled();
  obs::MetricsSnapshot metrics_before;
  if (telemetry_on) metrics_before = obs::Telemetry::instance().snapshot();
  const RealtimeInstruments ins = RealtimeInstruments::resolve();
  obs::ScopedSpan run_span("run_realtime", "pipeline", frame_count, "frames");

  // One EngineContext on the scaled wall clock holds the run's shared
  // components: store, fault-wrapped detector and tracker, selector,
  // latency model and SLO tracker. Each thread owns the parts it touches:
  // the detector thread the detector and the cycle records, the tracker
  // thread the tracker, selector, latency model and meter.
  EngineContext ctx(video,
                    {.seed = options.seed,
                     .tracker = options.tracker,
                     .frame_store = options.frame_store,
                     .fault_plan = options.fault_plan,
                     .latency_salt = 0x77777ULL,
                     .slo = options.slo},
                    std::make_unique<WallClock>(scale));
  video::FrameBuffer buffer;
  video::CameraSource camera(ctx.store(), buffer, scale);
  if (options.fault_plan != nullptr) {
    camera.set_faults(options.fault_plan->channel("camera"));
  }
  util::ClosableQueue<DetectionEvent> events;
  RealtimeStats& stats = result.stats;

  std::atomic<int> fetch_generation{0};
  std::atomic<double> latest_velocity{0.0};
  std::atomic<bool> have_velocity{false};
  std::atomic<int> coast_frames{0};

  // Both workers show results and may fail: one lock guards the run's
  // frames and status and the (single-owner) SLO tracker, one short
  // critical section per displayed result, off the vision hot path. SLO
  // windows run on pipeline (scaled-wall) time.
  std::mutex run_mutex;
  auto show = [&](FrameResult fr, double latency_ms, bool coasted) {
    const double t_ms = ctx.clock->now_ms();
    {
      std::lock_guard<std::mutex> lock(run_mutex);
      ctx.run.frames[static_cast<std::size_t>(fr.frame_index)] = std::move(fr);
      if (obs::SloTracker* slo = ctx.slo_tracker()) {
        slo->on_result(t_ms, latency_ms, coasted);
      }
    }
    if (ins.results_ts != nullptr) ins.results_ts->record(t_ms, latency_ms);
    if (coasted && ins.coast_ts != nullptr) ins.coast_ts->count(t_ms);
  };

  // The tracker thread bills ctx.meter through the catch-up batch; the
  // detector thread owns this one, merged after the join.
  energy::EnergyMeter detector_meter;

  // Error propagation: a worker thread that throws must not tear the
  // process down (std::terminate) or leave its peers blocked. The first
  // failure wins; it closes every wait point so all three threads unwind.
  std::atomic<bool> abort{false};
  auto on_worker_failure = [&](std::string message) {
    {
      std::lock_guard<std::mutex> lock(run_mutex);
      ctx.fail(std::move(message));
    }
    abort.store(true);
    camera.request_stop();
    buffer.close();   // wakes a detector blocked in wait_newer
    events.close();   // wakes a tracker blocked in pop
  };

  const SupervisorOptions& sup = options.supervisor;
  auto watchdog_deadline_ms = [&](detect::ModelSetting setting) {
    return std::max(sup.deadline_floor_ms,
                    sup.deadline_factor *
                        detect::LatencyModel::mean_latency_ms(setting));
  };

  // ---- Detector thread: always fetch the newest frame; the previous
  // detection is delivered to the tracker the moment the next fetch
  // happens, so both sides of the cycle run concurrently. When supervised,
  // a cycle that overruns its watchdog deadline is cancelled and the
  // pipeline coasts on decayed last-good detections while the degradation
  // ladder steps toward cheaper settings (608→512→416→320→tracker-only).
  std::thread detector_thread([&] {
    obs::name_thread("detector");
    detect::ModelSetting setting = options.setting;
    adapt::ModelAdapter const* adapter = options.adapter;
    DegradationLadder ladder(sup.ladder);
    std::optional<DetectionEvent> pending;
    int last_detected = -1;
    int active_frame = -1;  ///< frame in flight, for failure annotation
    // Last successful detection, kept for coasting. While the detector is
    // degraded, these boxes are re-issued through the runtime's
    // decay_detections (score * decay^age; faded objects drop out).
    std::vector<detect::Detection> last_good;
    int last_good_frame = -1;
    auto ladder_changed = [&](bool stepped) {
      if (!stepped) return;
      if (ins.degrade_level != nullptr) {
        ins.degrade_level->set(static_cast<double>(ladder.level()));
      }
      obs::trace_instant("degrade_step", "supervisor", ladder.level(),
                         "level");
    };

    try {
      if (sup.enabled && ins.degrade_level != nullptr) {
        ins.degrade_level->set(0.0);
      }
      while (!abort.load()) {
        std::optional<video::FrameRef> frame;
        {
          obs::ScopedSpan wait_span("wait_frame", "detector");
          frame = buffer.wait_newer(last_detected);
        }
        if (!frame.has_value() || abort.load()) break;
        active_frame = frame->index;
        if (ins.buffer_depth != nullptr) {
          ins.buffer_depth->set(static_cast<double>(buffer.size()));
        }

        // Fetching a new frame cancels the tracker's in-flight batch
        // (§IV-B) and releases the previous detection for tracking up to
        // this frame.
        fetch_generation.fetch_add(1);
        if (pending.has_value()) {
          pending->track_upto = frame->index - 1;
          events.push(std::move(*pending));
          pending.reset();
        }

        if (adapter != nullptr && have_velocity.load()) {
          const detect::ModelSetting next =
              adapter->next_setting(latest_velocity.load(), setting);
          if (next != setting) {
            ++ctx.run.setting_switches;
            if (ins.adapter_switches != nullptr) ins.adapter_switches->add();
            obs::trace_instant("setting_switch", "adapter",
                               detect::input_size(next), "to_size");
            setting = next;
          }
        }

        // Supervisor: cap the adapter's choice at the ladder level; at the
        // tracker-only floor, coast except for bounded-backoff recovery
        // probes at the cheapest setting.
        bool coast_cycle = false;
        detect::ModelSetting effective = setting;
        if (sup.enabled) {
          if (ladder.tracker_only()) {
            if (ladder.should_probe()) {
              effective = detect::ModelSetting::kYolov3_320;
            } else {
              coast_cycle = true;
            }
          } else {
            effective = ladder.apply(setting);
          }
        }

        if (!coast_cycle) {
          detect::DetectionResult det;
          {
            obs::ScopedSpan detect_span("detect", "detector", frame->index);
            det = ctx.detect(frame->index, effective);
          }
          const double deadline_ms = watchdog_deadline_ms(effective);
          if (sup.enabled && det.latency_ms > deadline_ms) {
            // Watchdog: the modeled inference blew its budget. The GPU was
            // occupied until the deadline, where the cycle is cancelled —
            // the result is discarded and this cycle coasts instead.
            {
              obs::ScopedSpan cancel_span("watchdog_cancel", "supervisor",
                                          frame->index);
              ctx.clock->occupy(deadline_ms);
            }
            detector_meter.add_gpu_busy(
                energy::PowerModel::gpu_detect_w(effective, false),
                deadline_ms);
            ++stats.watchdog_timeouts;
            if (ins.watchdog_timeouts != nullptr) ins.watchdog_timeouts->add();
            ladder_changed(ladder.on_overrun());
            coast_cycle = true;
          } else {
            ctx.clock->occupy(det.latency_ms);  // the GPU is busy this long
            detector_meter.add_gpu_busy(
                energy::PowerModel::gpu_detect_w(effective, false),
                det.latency_ms);
            if (ins.detector_cycles != nullptr) {
              ins.detector_cycles->add();
              ins.detect_occupancy_ms->record(det.latency_ms);
            }
            if (sup.enabled) ladder_changed(ladder.on_success());

            FrameResult fr;
            fr.frame_index = frame->index;
            fr.source = ResultSource::kDetector;
            fr.setting = effective;
            fr.staleness_ms = det.latency_ms;
            fr.boxes = to_labeled_boxes(det);
            show(std::move(fr), det.latency_ms, /*coasted=*/false);
            ctx.run.cycles.push_back({frame->index, effective, 0.0, 0.0, 0, 0,
                                      latest_velocity.load()});

            pending = DetectionEvent{frame->index, frame->index, effective,
                                     det.detections, *frame};
            last_good = det.detections;
            last_good_frame = frame->index;
            ++stats.frames_detected;
          }
        }

        if (coast_cycle) {
          ++stats.coast_cycles;
          // Coasting is bookkeeping (re-issue decayed boxes), not
          // inference: the GPU is off and the CPU draws its coast power
          // for the frame interval — that differential is the measurable
          // payoff of degrading (docs/ROBUSTNESS.md).
          detector_meter.add_cpu_busy(energy::PowerModel::cpu_coast_w(),
                                      ctx.interval_ms);
          std::vector<detect::Detection> coasted =
              (last_good_frame < 0)
                  ? std::vector<detect::Detection>{}
                  : decay_detections(last_good,
                                     frame->index - last_good_frame,
                                     kCoastDecay, kCoastScoreFloor);
          FrameResult fr;
          fr.frame_index = frame->index;
          fr.source = ResultSource::kTracker;
          fr.setting = setting;
          fr.staleness_ms = (last_good_frame >= 0)
                                ? (frame->index - last_good_frame) *
                                      ctx.interval_ms
                                : 0.0;
          fr.boxes.reserve(coasted.size());
          for (const auto& d : coasted) fr.boxes.push_back({d.box, d.cls});
          const double coast_staleness_ms = fr.staleness_ms;
          show(std::move(fr), coast_staleness_ms, /*coasted=*/true);
          coast_frames.fetch_add(1);
          if (ins.coast_frames != nullptr) ins.coast_frames->add();
          DetectionEvent ev{frame->index, frame->index, setting,
                            std::move(coasted), *frame};
          ev.coast = true;
          pending = std::move(ev);
        }

        last_detected = frame->index;
      }
      // Stream over: let the tracker finish the tail of the video.
      if (pending.has_value() && !abort.load()) {
        pending->track_upto = frame_count - 1;
        events.push(std::move(*pending));
      }
    } catch (const std::exception& e) {
      on_worker_failure(annotate_failure("detector", active_frame,
                                         std::string("detector thread: ") +
                                             e.what()));
    } catch (...) {
      on_worker_failure(annotate_failure("detector", active_frame,
                                         "detector thread: unknown exception"));
    }
    events.close();
    stats.degrade_steps_down = ladder.steps_down();
    stats.degrade_steps_up = ladder.steps_up();
    stats.max_degrade_level = ladder.max_level_seen();
  });

  // ---- Tracker thread: the shared catch-up batch (real feature
  // extraction + LK on rendered frames), paced by the modeled CPU
  // latencies and cancelled when the detector fetches its next frame.
  std::thread tracker_thread([&] {
    obs::name_thread("tracker");
    int active_frame = -1;  ///< frame in flight, for failure annotation
    auto cancel = [&] {
      ++stats.tracking_tasks_cancelled;
      if (ins.tracker_cancelled != nullptr) ins.tracker_cancelled->add();
    };
    try {
      while (!abort.load()) {
        std::optional<DetectionEvent> event;
        {
          obs::ScopedSpan wait_span("wait_detection", "tracker");
          event = events.pop();
        }
        if (!event.has_value() || abort.load()) break;
        active_frame = event->ref_index;
        const int my_generation = fetch_generation.load();
        obs::ScopedSpan batch_span("catchup_batch", "tracker",
                                   event->ref_index, "ref_frame");
        if (ins.tracker_batches != nullptr) ins.tracker_batches->add();

        const int frames_between = event->track_upto - event->ref_index;
        CatchupBatch batch(ctx, event->ref_index, frames_between,
                           SelectionPolicy::kAdaptiveFraction);
        {
          obs::ScopedSpan extract_span("extract_features", "tracker",
                                       event->ref_index);
          PacedSection pace(batch.extract_ms(), scale);
          // The camera already rasterized this frame; re-arm from the
          // shared pixels instead of rendering a second copy.
          batch.arm(event->ref_frame, event->detections);
        }
        if (ins.batch_frames != nullptr && frames_between > 0) {
          ins.batch_frames->record(frames_between);
        }

        int tracked = 0;
        while (!batch.done() && !abort.load()) {
          if (fetch_generation.load() != my_generation) {
            cancel();
            break;
          }
          const CatchupBatch::Step step = batch.next();
          active_frame = step.frame_index;
          {
            obs::ScopedSpan step_span("track_frame", "tracker",
                                      step.frame_index);
            PacedSection pace(step.cost_ms, scale);
            batch.track(step, ctx.store().get(step.frame_index));
          }
          if (fetch_generation.load() != my_generation) {
            // Task finished after the detector moved on: per §IV-B the
            // result is not displayed (it would move the display
            // backwards).
            cancel();
            break;
          }
          FrameResult fr;
          fr.frame_index = step.frame_index;
          fr.source = ResultSource::kTracker;
          fr.setting = event->setting;
          fr.boxes = ctx.tracker().current_boxes();
          show(std::move(fr), step.cost_ms, event->coast);
          ++stats.frames_tracked;
          if (ins.tracker_frames != nullptr) ins.tracker_frames->add();
          if (event->coast) {
            coast_frames.fetch_add(1);
            if (ins.coast_frames != nullptr) ins.coast_frames->add();
          }
          ++tracked;
        }
        const EngineContext::Catchup summary = batch.finish(tracked);
        if (summary.velocity_steps > 0) {
          latest_velocity.store(summary.mean_velocity);
          have_velocity.store(true);
        }
      }
    } catch (const std::exception& e) {
      on_worker_failure(annotate_failure("tracker", active_frame,
                                         std::string("tracker thread: ") +
                                             e.what()));
    } catch (...) {
      on_worker_failure(annotate_failure("tracker", active_frame,
                                         "tracker thread: unknown exception"));
    }
  });

  camera.start();
  detector_thread.join();
  tracker_thread.join();
  camera.stop();

  const std::string camera_error = camera.error();
  if (!camera_error.empty()) {
    ctx.fail(annotate_failure("camera", -1, "camera thread: " + camera_error));
  }

  stats.frames_captured = camera.frames_captured();
  stats.frames_dropped = static_cast<int>(buffer.dropped());
  stats.coast_frames = coast_frames.load();
  RunResult& run = ctx.run;
  run.faults_injected = ctx.faults_injected() + camera.faults_injected();

  // A run that absorbed faults but still completed is degraded, not ok.
  if (!run.status.failed() &&
      (stats.watchdog_timeouts > 0 || run.faults_injected > 0 ||
       stats.coast_frames > 0)) {
    run.status = Status::degraded(
        std::to_string(stats.watchdog_timeouts) + " watchdog timeouts, " +
        std::to_string(run.faults_injected) + " faults injected, " +
        std::to_string(stats.coast_frames) +
        " coasted frames, max ladder level " +
        std::to_string(stats.max_degrade_level));
  }

  // Energy: the detector's meter folds into the tracker's, integrated over
  // the video timeline (Table III's rails, docs/EXPERIMENTS.md) rather than
  // finish()'s max(video, clock): a run that overran its wall-clock
  // schedule is not billed the overrun as extra idle energy.
  run.timeline_ms = ctx.duration_ms;
  ctx.meter.merge(detector_meter);
  run.energy = ctx.meter.finish(run.timeline_ms);
  ctx.publish();
  if (telemetry_on) {
    result.metrics =
        obs::Telemetry::instance().snapshot().since(metrics_before);
  }
  result.run = std::move(run);
  return result;
}

}  // namespace adavp::core
