#include "core/engine_runtime.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "energy/power_model.h"
#include "obs/telemetry.h"
#include "track/descriptor_tracker.h"
#include "video/frame_glitch.h"

namespace adavp::core {

namespace {

std::unique_ptr<track::TrackerInterface> make_tracker(
    const EngineOptions& options) {
  if (options.backend == TrackerBackend::kDescriptor) {
    return std::make_unique<track::DescriptorTracker>();
  }
  return std::make_unique<track::ObjectTracker>(options.tracker);
}

util::FaultChannel plan_channel(const util::FaultPlan* plan,
                                std::string_view name) {
  return plan != nullptr ? plan->channel(name) : util::FaultChannel();
}

}  // namespace

EngineContext::EngineContext(const video::SyntheticVideo& video,
                             EngineOptions options,
                             std::unique_ptr<Clock> clock)
    : video(video),
      frame_count(video.frame_count()),
      last(video.frame_count() - 1),
      interval_ms(video.frame_interval_ms()),
      duration_ms(static_cast<double>(frame_count) * interval_ms),
      clock(clock != nullptr ? std::move(clock)
                             : std::make_unique<VirtualClock>()),
      detector(options.seed, plan_channel(options.fault_plan, "detector")),
      latency(options.seed ^ options.latency_salt),
      options_(std::move(options)),
      camera_faults_(plan_channel(options_.fault_plan, "camera")),
      tracker_owner_(make_tracker(options_)),
      faulty_tracker_(*tracker_owner_,
                      plan_channel(options_.fault_plan, "tracker")) {
  run.frames.resize(static_cast<std::size_t>(frame_count));
  for (int i = 0; i < frame_count; ++i) {
    run.frames[static_cast<std::size_t>(i)].frame_index = i;
  }
  if (options_.slo != nullptr) slo_tracker_.emplace(*options_.slo);
}

video::FrameStore& EngineContext::store() {
  if (!store_.has_value()) store_.emplace(video, options_.frame_store);
  return *store_;
}

video::FrameRef EngineContext::frame(int index) {
  video::FrameRef ref = store().get(index);
  if (camera_faults_.empty()) return ref;
  // A frame may be fetched more than once (reference re-arm, catch-up);
  // the glitch is deterministic so every fetch sees the same pixels, but
  // the fault is billed only on the first.
  const bool first_fetch = counted_glitches_.insert(index).second;
  for (const util::FaultDecision& decision : camera_faults_.decide(index)) {
    if (decision.kind != util::FaultKind::kBlack &&
        decision.kind != util::FaultKind::kCorrupt) {
      continue;
    }
    ref = video::apply_glitch(ref, decision);
    if (first_fetch) {
      ++camera_faults_injected_;
      if (obs::Telemetry::enabled()) {
        obs::metrics()
            .counter("fault", "injected." + std::string(util::fault_kind_name(
                                  decision.kind)))
            .add();
      }
      // fault_kind_name returns string literals, so .data() is terminated.
      obs::flight_instant(util::fault_kind_name(decision.kind).data(), "fault",
                          index);
    }
  }
  return ref;
}

double EngineContext::capture_time_ms(int index) {
  double t = video.timestamp_ms(index);
  if (camera_faults_.empty()) return t;
  for (const util::FaultDecision& decision : camera_faults_.decide(index)) {
    if (decision.kind != util::FaultKind::kHiccup) continue;
    t += decision.magnitude;
    if (counted_delays_.insert(index).second) {
      ++camera_faults_injected_;
      if (obs::Telemetry::enabled()) {
        obs::metrics().counter("fault", "injected.hiccup").add();
      }
      obs::flight_instant("hiccup", "fault", index);
    }
  }
  return t;
}

int EngineContext::newest_captured(double t) {
  int newest = std::min(last, static_cast<int>(std::floor(t / interval_ms)));
  if (!camera_faults_.empty()) {
    while (newest > 0 && capture_time_ms(newest) > t) --newest;
  }
  return newest;
}

detect::DetectionResult EngineContext::detect(int frame_index,
                                              detect::ModelSetting setting) {
  return detector.detect(video, frame_index, setting);
}

detect::DetectionResult EngineContext::detect_on_gpu(
    int frame_index, detect::ModelSetting setting, bool continuous) {
  detect::DetectionResult det = detect(frame_index, setting);
  meter.add_gpu_busy(energy::PowerModel::gpu_detect_w(setting, continuous),
                     det.latency_ms);
  return det;
}

void EngineContext::record_detection(int index,
                                     const detect::DetectionResult& det,
                                     detect::ModelSetting setting,
                                     double completed_ms) {
  FrameResult& result = run.frames[static_cast<std::size_t>(index)];
  result.source = ResultSource::kDetector;
  result.boxes = to_labeled_boxes(det);
  result.setting = setting;
  result.staleness_ms = completed_ms - capture_time_ms(index);
  if (slo_tracker_.has_value()) {
    slo_tracker_->on_result(completed_ms, result.staleness_ms,
                            /*coasted=*/false);
  }
}

EngineContext::Catchup EngineContext::track_catchup(
    int ref_index, const std::vector<detect::Detection>& ref_detections,
    int next_index, double cycle_start, double cycle_end,
    detect::ModelSetting result_setting, SelectionPolicy policy) {
  // All frame pixels come from the shared store (camera glitches applied):
  // one render per frame per run, shared by reference.
  CatchupBatch batch(*this, ref_index, next_index - 1 - ref_index, policy);
  batch.arm(frame(ref_index), ref_detections);
  double cpu_clock = cycle_start + batch.extract_ms();
  int tracked = 0;
  while (!batch.done()) {
    // The latency draw happens before the budget check — the step was
    // *scheduled*, then cancelled — so the RNG stream stays aligned with
    // the pre-runtime engines (and across thread-count settings).
    const CatchupBatch::Step step = batch.next();
    if (cpu_clock + step.cost_ms > cycle_end) {
      // Detector fetched its next frame: remaining tracking tasks are
      // cancelled (§IV-B) and those frames fall back to reuse.
      break;
    }
    batch.track(step, frame(step.frame_index));
    cpu_clock += step.cost_ms;

    FrameResult& result =
        run.frames[static_cast<std::size_t>(step.frame_index)];
    result.source = ResultSource::kTracker;
    result.boxes = tracker().current_boxes();
    result.setting = result_setting;
    result.staleness_ms = cpu_clock - capture_time_ms(step.frame_index);
    if (slo_tracker_.has_value()) {
      slo_tracker_->on_result(cpu_clock, result.staleness_ms,
                              /*coasted=*/false);
    }
    ++tracked;
  }
  Catchup out = batch.finish(tracked);
  out.cpu_end_ms = cpu_clock;
  return out;
}

CatchupBatch::CatchupBatch(EngineContext& ctx, int ref_index,
                           int frames_between, SelectionPolicy policy)
    : ctx_(ctx), ref_index_(ref_index), frames_between_(frames_between) {
  ctx_.store().trim_below(ref_index);  // frames behind the reference are done
  extract_ms_ = ctx_.latency.feature_extraction_ms();
  switch (policy) {
    case SelectionPolicy::kAdaptiveFraction:
      offsets_ = ctx_.selector.select(frames_between);
      break;
    case SelectionPolicy::kTrackAll:
      for (int k = 1; k <= frames_between; ++k) offsets_.push_back(k);
      break;
    case SelectionPolicy::kNewestOnly:
      if (frames_between > 0) offsets_.push_back(frames_between);
      break;
  }
  ctx_.velocity.reset();
}

void CatchupBatch::arm(const video::FrameRef& ref,
                       const std::vector<detect::Detection>& detections) {
  ctx_.tracker().set_reference_at(ref.image(), detections, ref_index_);
  ctx_.meter.add_cpu_busy(energy::PowerModel::cpu_track_w(), extract_ms_);
}

CatchupBatch::Step CatchupBatch::next() {
  const int offset = offsets_[next_++];
  track::FaultyTracker& tracker = ctx_.tracker();
  const double cost_ms =
      ctx_.latency.tracking_ms(tracker.object_count(),
                               tracker.live_feature_count()) +
      ctx_.latency.overlay_ms();
  return {offset, ref_index_ + offset, cost_ms};
}

void CatchupBatch::track(const Step& step, const video::FrameRef& frame) {
  ctx_.meter.add_cpu_busy(energy::PowerModel::cpu_track_w(), step.cost_ms);
  ctx_.velocity.add_step(ctx_.tracker().track_frame(
      frame.image(), step.offset - prev_offset_, step.frame_index));
  prev_offset_ = step.offset;
}

EngineContext::Catchup CatchupBatch::finish(int tracked) {
  if (frames_between_ > 0) {
    ctx_.selector.update(std::max(tracked, 1), frames_between_);
  }
  EngineContext::Catchup out;
  out.frames_between = frames_between_;
  out.tracked = tracked;
  out.mean_velocity = ctx_.velocity.mean_velocity();
  out.velocity_steps = ctx_.velocity.step_count();
  return out;
}

void EngineContext::fail(std::string message) {
  if (!run.status.failed()) {
    run.status = Status::worker_failure(std::move(message));
  }
}

std::uint64_t EngineContext::faults_injected() const {
  return detector.faults_injected() + faulty_tracker_.faults_injected() +
         camera_faults_injected_;
}

void EngineContext::finish() {
  run.timeline_ms = std::max(duration_ms, clock->now_ms());
  run.latency_multiplier =
      duration_ms > 0.0 ? run.timeline_ms / duration_ms : 1.0;
  run.energy = meter.finish(run.timeline_ms);
  run.faults_injected = faults_injected();
  if (!run.status.failed() && run.faults_injected > 0) {
    run.status = Status::degraded(std::to_string(run.faults_injected) +
                                  " faults injected");
  }
  publish();
}

void EngineContext::publish() {
  fill_reused_frames(run.frames);
  if (store_.has_value()) run.frame_store = store_->stats();
  if (slo_tracker_.has_value()) {
    run.slo = slo_tracker_->finish(std::max(duration_ms, clock->now_ms()));
  }
  if (obs::Telemetry::enabled()) {
    obs::MetricsRegistry& reg = obs::metrics();
    reg.gauge("energy", "gpu_wh").set(run.energy.gpu_wh);
    reg.gauge("energy", "cpu_wh").set(run.energy.cpu_wh);
    reg.gauge("energy", "soc_wh").set(run.energy.soc_wh);
    reg.gauge("energy", "ddr_wh").set(run.energy.ddr_wh);
    reg.gauge("energy", "total_wh").set(run.energy.total_wh());
  }
  if (!run.status.ok()) {
    obs::Telemetry::instance().maybe_flight_dump(
        status_code_name(run.status.code()));
  }
}

std::vector<metrics::LabeledBox> to_labeled_boxes(
    const detect::DetectionResult& det) {
  std::vector<metrics::LabeledBox> boxes;
  boxes.reserve(det.detections.size());
  for (const auto& d : det.detections) boxes.push_back({d.box, d.cls});
  return boxes;
}

void fill_reused_frames(std::vector<FrameResult>& frames) {
  int last_filled = -1;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (frames[i].source != ResultSource::kNone) {
      last_filled = static_cast<int>(i);
      continue;
    }
    if (last_filled >= 0) {
      const FrameResult& prev = frames[static_cast<std::size_t>(last_filled)];
      frames[i].source = ResultSource::kReused;
      frames[i].boxes = prev.boxes;
      frames[i].setting = prev.setting;
      frames[i].staleness_ms = prev.staleness_ms;
    }
  }
}

std::vector<detect::Detection> decay_detections(
    const std::vector<detect::Detection>& last_good, int age, double decay,
    double score_floor) {
  std::vector<detect::Detection> out;
  const double factor = std::pow(decay, std::max(1, age));
  out.reserve(last_good.size());
  for (const detect::Detection& d : last_good) {
    const float score = d.score * static_cast<float>(factor);
    if (score < score_floor) continue;
    detect::Detection copy = d;
    copy.score = score;
    out.push_back(copy);
  }
  return out;
}

}  // namespace adavp::core
