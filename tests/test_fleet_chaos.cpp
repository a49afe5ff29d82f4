// Fleet chaos soak (ISSUE.md satellite 3, labels "concurrency;soak;chaos"):
// a supervised fleet under combined gpu: and stream: fault channels must
// (a) never deadlock (the run completing proves it), (b) finish kDegraded —
// never kWorkerFailure — with the crashed stream quarantined, backed off,
// and re-admitted within the run, (c) replay bit-identically, and (d) leave
// every healthy stream digest-identical to an all-healthy fleet.
//
// The digest-isolation claim leans on two structural properties:
//   * the recovery lane — FleetGpu bills hang/retry time to the victim's
//     completion but advances gpu_free by the un-faulted service only, so
//     the shared schedule is fault-independent; and
//   * slot quantization — the supervisor resumes a disturbed stream on its
//     own cadence lattice (quantize_up), so its requests never drift into a
//     neighbor's batch window.
// The fleet here is laid out as TDMA to make the isolation provable: with
// cadence = 18 frame intervals and stagger = 3 intervals, each stream owns
// a distinct phase class mod the cadence and the ~55 ms tiny-model service
// never reaches the next slot 100 ms away, so every dispatch is solo.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/fleet.h"
#include "obs/telemetry.h"
#include "run_result_digest.h"
#include "util/fault_plan.h"

namespace adavp::core {
namespace {

constexpr int kStreams = 6;
constexpr int kFrames = 300;
constexpr int kCrashed = 2;  ///< the stream carrying the stream: crash rule
constexpr double kInterval = 1000.0 / 30.0;  ///< capture interval at 30 fps

std::vector<FleetStreamOptions> chaos_fleet(const util::FaultPlan* crash) {
  std::vector<FleetStreamOptions> streams(kStreams);
  for (int i = 0; i < kStreams; ++i) {
    auto& s = streams[static_cast<std::size_t>(i)];
    s.scene.width = 128;
    s.scene.height = 96;
    s.scene.frame_count = kFrames;
    s.scene.initial_objects = 3;
    s.scene.max_objects = 4;
    s.scene.seed = static_cast<std::uint64_t>(400 + i);
    s.engine.seed = static_cast<std::uint64_t>(9100 + i);
    s.setting = detect::ModelSetting::kYolov3Tiny_320;
    s.cadence_ms = 18.0 * kInterval;  // 600 ms: detections on the lattice
    s.deadline_ms = 900.0;
  }
  if (crash != nullptr) {
    streams[kCrashed].engine.fault_plan = crash;
  }
  return streams;
}

FleetOptions chaos_options(const util::FaultPlan* gpu_plan, bool supervised) {
  FleetOptions options;
  options.gpu.max_batch = 4;
  options.stagger_ms = 3.0 * kInterval;  // 100 ms slots: TDMA, solo batches
  options.supervisor.enabled = supervised;
  options.fault_plan = gpu_plan;
  return options;
}

util::FaultPlan crash_plan() {
  // One deterministic mid-run crash (frame 60, ~2 s in), plus a wedge so
  // the stream: channel's non-fatal kind is exercised too.
  const auto plan =
      util::FaultPlan::parse("stream: crash at=60; wedge at=130 ms=20", 0xC0A5);
  EXPECT_TRUE(plan.has_value());
  return plan.value_or(util::FaultPlan{});
}

util::FaultPlan gpu_plan() {
  // ~1.5% of dispatches hang once (the watchdog cancels and the retry
  // lands). This seed fires exactly twice across the run's ~100
  // dispatches — enough to prove the arc while leaving most of the fleet
  // untouched for the digest-isolation half of the test.
  const auto plan = util::FaultPlan::parse("gpu: hang p=0.015", 0xBEE5);
  EXPECT_TRUE(plan.has_value());
  return plan.value_or(util::FaultPlan{});
}

bool is_victim(const FleetStreamResult& s) {
  const StreamSupervisionStats& sv = s.supervision;
  return sv.crashes > 0 || sv.stream_faults > 0 || sv.gpu_retries > 0 ||
         sv.gpu_failures > 0 || s.run.faults_injected > 0;
}

TEST(FleetChaos, SupervisedFleetSurvivesGpuAndStreamFaultsDeterministically) {
  const util::FaultPlan crash = crash_plan();
  const util::FaultPlan gpu = gpu_plan();

  const FleetResult chaos =
      run_fleet(chaos_fleet(&crash), chaos_options(&gpu, true));
  const FleetResult repeat =
      run_fleet(chaos_fleet(&crash), chaos_options(&gpu, true));
  const FleetResult healthy =
      run_fleet(chaos_fleet(nullptr), chaos_options(nullptr, true));
  const FleetResult unsupervised =
      run_fleet(chaos_fleet(nullptr), chaos_options(nullptr, false));

  ASSERT_EQ(chaos.streams.size(), static_cast<std::size_t>(kStreams));

  // (b) the fleet finished degraded, not dead: the crash was contained.
  EXPECT_EQ(chaos.status.code(), StatusCode::kDegraded)
      << chaos.status.to_string();
  EXPECT_FALSE(chaos.status.failed());

  // The gpu: channel actually fired and the watchdog retried.
  EXPECT_GE(chaos.gpu.hangs, 1u);
  EXPECT_GE(chaos.gpu.retries, 1u);
  EXPECT_EQ(chaos.gpu.failed_dispatches, 0u);  // hang != wedge: retries land
  EXPECT_GT(chaos.gpu.recovery_ms, 0.0);

  // The crashed stream went through the full supervision arc within the
  // run: quarantine -> backoff -> probe -> re-admission -> completion.
  const FleetStreamResult& crashed =
      chaos.streams[static_cast<std::size_t>(kCrashed)];
  const StreamSupervisionStats& sv = crashed.supervision;
  EXPECT_GE(sv.crashes, 1);
  EXPECT_GE(sv.restarts, 1);
  EXPECT_GE(sv.quarantines, 1);
  EXPECT_GE(sv.probes, 1);
  EXPECT_GE(sv.stream_faults, 2);  // the crash and the wedge both counted
  EXPECT_GT(sv.backoff_total_ms, 0.0);
  EXPECT_GE(sv.first_quarantined_at_ms, 0.0);
  EXPECT_GT(sv.readmitted_at_ms, sv.first_quarantined_at_ms);
  EXPECT_FALSE(sv.gave_up);
  EXPECT_EQ(crashed.run.status.code(), StatusCode::kDegraded)
      << crashed.run.status.to_string();
  EXPECT_EQ(crashed.run.frames.size(), static_cast<std::size_t>(kFrames));
  EXPECT_GE(chaos.quarantined, 1);
  EXPECT_GE(chaos.readmitted, 1);

  int healthy_streams = 0;
  for (int i = 0; i < kStreams; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const FleetStreamResult& s = chaos.streams[idx];
    // (a)+(c): every stream finished every frame, bit-identically across
    // repeats — faults, recoveries, and backoff jitter included.
    ASSERT_EQ(s.run.frames.size(), static_cast<std::size_t>(kFrames))
        << s.name;
    EXPECT_EQ(digest_run(s.run), digest_run(repeat.streams[idx].run))
        << s.name;
    EXPECT_EQ(s.supervision.crashes, repeat.streams[idx].supervision.crashes)
        << s.name;
    EXPECT_EQ(s.supervision.gpu_retries,
              repeat.streams[idx].supervision.gpu_retries)
        << s.name;
    // A supervised all-healthy fleet is byte-identical to the unsupervised
    // fleet: supervision must be free when nothing goes wrong.
    EXPECT_EQ(digest_run(healthy.streams[idx].run),
              digest_run(unsupervised.streams[idx].run))
        << s.name;
    if (is_victim(s)) continue;
    ++healthy_streams;
    // (d) a healthy stream cannot tell its neighbors crashed or hung:
    // recovery-lane billing plus slot quantization keep its entire
    // observable run identical to the all-healthy fleet.
    EXPECT_TRUE(s.run.status.ok()) << s.run.status.to_string();
    EXPECT_EQ(digest_run(s.run), digest_run(healthy.streams[idx].run))
        << s.name;
  }
  EXPECT_TRUE(is_victim(crashed));
  EXPECT_GE(healthy_streams, 2);
}

// Per-stream golden digests of the two fleets that run the supervisor's
// two coast paths: the crashed stream's first post-restart cycle coasts on
// its checkpointed boxes, and a dispatch that exhausts its retry budget is
// served as a forced coast from the reference.
constexpr std::uint64_t kGoldenCrashFleet[kStreams] = {
    0x6543E79DE6AFD4E1ULL, 0xCFB972B4EC01F7E4ULL, 0x363A0815DA8D612AULL,
    0x04B588FDF9E64932ULL, 0xABDA06672CD0FDDCULL, 0x5B796D692886DCE8ULL};
constexpr std::uint64_t kGoldenWedgeFleet[kStreams] = {
    0xD4FD95E61752E129ULL, 0xD2614FC7BD27C15EULL, 0xBE1ECFD551BE16F6ULL,
    0x04B588FDF9E64932ULL, 0xCDBCDB047DA04EEAULL, 0x42125E936C35B8B6ULL};

void expect_stream_goldens(const FleetResult& fleet,
                           const std::uint64_t (&golden)[kStreams]) {
  ASSERT_EQ(fleet.streams.size(), static_cast<std::size_t>(kStreams));
  for (int i = 0; i < kStreams; ++i) {
    const RunResult& run = fleet.streams[static_cast<std::size_t>(i)].run;
    EXPECT_EQ(digest_run(run), golden[i])
        << "stream " << i << " digest 0x" << std::hex << digest_run(run);
  }
}

TEST(FleetChaos, CoastFirstRestartMatchesGoldenDigests) {
  const util::FaultPlan crash = crash_plan();
  const FleetResult fleet =
      run_fleet(chaos_fleet(&crash), chaos_options(nullptr, true));
  ASSERT_FALSE(fleet.status.failed()) << fleet.status.to_string();
  for (int i = 0; i < kStreams; ++i) {
    EXPECT_EQ(fleet.streams[static_cast<std::size_t>(i)].coast_cycles,
              i == kCrashed ? 1 : 0)
        << "stream " << i;
  }
  expect_stream_goldens(fleet, kGoldenCrashFleet);
}

TEST(FleetChaos, RetryExhaustedCoastMatchesGoldenDigests) {
  const auto wedge = util::FaultPlan::parse("gpu: wedge p=0.03", 0xBEE5);
  ASSERT_TRUE(wedge.has_value());
  const FleetResult fleet =
      run_fleet(chaos_fleet(nullptr), chaos_options(&*wedge, true));
  ASSERT_FALSE(fleet.status.failed()) << fleet.status.to_string();
  int forced = 0;
  for (const FleetStreamResult& s : fleet.streams) {
    if (s.supervision.gpu_failures > 0) ++forced;
    EXPECT_EQ(s.coast_cycles, 0);  // forced coasts are not counted
  }
  EXPECT_EQ(fleet.gpu.failed_dispatches, 5u);
  EXPECT_EQ(forced, 5);
  expect_stream_goldens(fleet, kGoldenWedgeFleet);
}

TEST(FleetChaos, SupervisionTelemetryRecordsTheRecoveryArc) {
  obs::Telemetry::set_enabled(true);
  obs::Telemetry::instance().reset();
  const util::FaultPlan crash = crash_plan();
  const util::FaultPlan gpu = gpu_plan();
  const FleetResult chaos =
      run_fleet(chaos_fleet(&crash), chaos_options(&gpu, true));
  const obs::MetricsSnapshot snap = obs::Telemetry::instance().snapshot();
  // Fleet-level supervisor series: one backoff sample per contained crash.
  const std::uint64_t backoffs =
      obs::time_series()
          .series("supervisor", "backoff_ms",
                  {1000.0, 64, obs::FixedHistogram::default_latency_edges_ms()})
          .total_count();
  obs::Telemetry::set_enabled(false);

  ASSERT_FALSE(chaos.status.failed());
  // Per-stream supervision counters land under the stream's label...
  const std::string prefix = "fleet.stream" + std::to_string(kCrashed) + ".";
  EXPECT_GE(snap.counter(prefix + "stream.quarantined"), 1u);
  EXPECT_GE(snap.counter(prefix + "stream.restarts"), 1u);
  EXPECT_GE(snap.counter(prefix + "stream.readmissions"), 1u);
  EXPECT_GE(snap.counter(prefix + "stream.faults_injected"), 2u);
  // ...the shared-GPU watchdog counters under the unprefixed fleet key.
  EXPECT_GE(snap.counter("fleet.gpu.hangs"), 1u);
  EXPECT_GE(snap.counter("fleet.gpu.retries"), 1u);
  EXPECT_GE(backoffs, static_cast<std::uint64_t>(
                          chaos.streams[kCrashed].supervision.crashes));
}

TEST(FleetChaos, RejectedStreamJoinsMidRunWhenCapacityFrees) {
  // Two YOLOv3-608 streams at 600 ms cadence want 0.83 duty each against a
  // ~1.38 budget: static admission (degradation disabled) seats the first
  // and rejects the second. Under supervision the rejected stream parks on
  // re-admission probes; when the short first stream ends and returns its
  // duty to the ledger, a probe is granted and the stream joins mid-run.
  std::vector<FleetStreamOptions> streams(2);
  for (int i = 0; i < 2; ++i) {
    auto& s = streams[static_cast<std::size_t>(i)];
    s.scene.width = 128;
    s.scene.height = 96;
    s.scene.initial_objects = 3;
    s.scene.max_objects = 4;
    s.scene.seed = static_cast<std::uint64_t>(500 + i);
    s.engine.seed = static_cast<std::uint64_t>(7300 + i);
    s.setting = detect::ModelSetting::kYolov3_608;
    s.cadence_ms = 600.0;
    s.deadline_ms = 1200.0;
  }
  streams[0].scene.frame_count = 60;   // ends ~2 s in, freeing its duty
  streams[1].scene.frame_count = 150;  // 5 s: plenty left after joining

  FleetOptions options;
  options.gpu.max_batch = 4;
  options.admission.allow_degrade = false;
  options.supervisor.enabled = true;
  const FleetResult fleet = run_fleet(streams, options);
  const FleetResult repeat = run_fleet(streams, options);

  EXPECT_EQ(fleet.admitted, 1);
  EXPECT_EQ(fleet.rejected, 1);
  EXPECT_EQ(fleet.readmitted, 1);
  const FleetStreamResult& late = fleet.streams[1];
  EXPECT_EQ(late.admission, AdmissionDecision::kRejected);
  EXPECT_GE(late.supervision.probes, 1);
  EXPECT_GT(late.supervision.readmitted_at_ms, 0.0);
  EXPECT_FALSE(late.supervision.gave_up);
  EXPECT_TRUE(late.run.status.ok()) << late.run.status.to_string();
  ASSERT_EQ(late.run.frames.size(), 150u);
  // It joined mid-video: the tail has live results, the missed head stays
  // unserved (kNone) — late admission is not time travel.
  EXPECT_NE(late.run.frames.back().source, ResultSource::kNone);
  EXPECT_EQ(late.run.frames.front().source, ResultSource::kNone);
  EXPECT_GT(fleet.gpu.probes, 0u);
  EXPECT_GE(fleet.gpu.probe_grants, 1u);
  for (std::size_t i = 0; i < fleet.streams.size(); ++i) {
    EXPECT_EQ(digest_run(fleet.streams[i].run),
              digest_run(repeat.streams[i].run));
  }
}

}  // namespace
}  // namespace adavp::core
