#pragma once

#include <chrono>
#include <thread>

namespace adavp::core {

/// The time source of an engine run — the axis that splits the engine
/// family in two. Virtual-time engines (run_mpdt, the baselines,
/// run_offload) *compute* the schedule: occupying the pipeline is an
/// addition, so runs are deterministic and bit-identical across machines.
/// The wall-clock engine (run_realtime) *lives* the schedule: occupying
/// the pipeline really sleeps, scaled by the run's time factor. The
/// engines share everything else through EngineContext; no shared code
/// asks which clock it runs on.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Current pipeline time, in (virtual) milliseconds since run start.
  virtual double now_ms() const = 0;

  /// Occupies the pipeline for `duration_ms` of modeled work.
  virtual void occupy(double duration_ms) = 0;

  /// Jumps the pipeline clock to `t_ms` (waiting for a capture). Virtual
  /// time only moves forward through the engines, but the clock itself
  /// does not enforce it — schedules own their arithmetic.
  virtual void set(double t_ms) = 0;
};

/// Deterministic simulated time: a double that only arithmetic touches.
class VirtualClock final : public Clock {
 public:
  double now_ms() const override { return t_; }
  void occupy(double duration_ms) override { t_ += duration_ms; }
  void set(double t_ms) override { t_ = t_ms; }

 private:
  double t_ = 0.0;
};

/// Real elapsed time, sped up by `time_scale` (tests run 10-40x so a
/// multi-second video finishes quickly; all modeled latencies are scaled
/// identically, so the schedule is shape-preserving).
class WallClock final : public Clock {
 public:
  explicit WallClock(double time_scale = 1.0)
      : scale_(time_scale), start_(std::chrono::steady_clock::now()) {}

  double now_ms() const override {
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start_;
    return elapsed.count() * scale_;
  }

  void occupy(double duration_ms) override {
    if (duration_ms <= 0.0) return;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(duration_ms / scale_));
  }

  void set(double) override {}  // wall time cannot be assigned

 private:
  double scale_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace adavp::core
