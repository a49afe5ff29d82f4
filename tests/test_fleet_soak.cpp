// Deterministic fleet soak (ISSUE.md satellite 4, labels "concurrency;soak"):
// a fleet with seeded faults on a subset of streams must (a) never deadlock,
// (b) produce a result for every frame of every admitted stream, (c) be
// bit-identical across repeats, and (d) leave the healthy streams' digests
// unperturbed by their faulty neighbors.
//
// Digest isolation only holds for GPU-time-neutral fault kinds — detector
// drop/garbage alter *detections*, camera black/corrupt alter *pixels*, but
// none of them alter latency draws, so the shared FleetGpu's virtual-time
// schedule (and therefore every healthy stream's timing) is identical to an
// all-healthy run. Stall/latency/hiccup faults would perturb the shared
// schedule and are deliberately excluded here.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/fleet.h"
#include "run_result_digest.h"
#include "util/fault_plan.h"

namespace adavp::core {
namespace {

constexpr int kStreams = 6;
constexpr int kFaulty[] = {1, 4};

util::FaultPlan neutral_plan(int which) {
  // GPU-time-neutral by construction: no stall/latency/hiccup rules.
  const char* spec =
      which == 0 ? "detector: drop p=0.1; garbage p=0.05 n=3"
                 : "camera: black every=30; corrupt p=0.08 amp=50";
  const auto plan = util::FaultPlan::parse(spec, 0xFEED + which);
  EXPECT_TRUE(plan.has_value()) << spec;
  return plan.value_or(util::FaultPlan{});
}

std::vector<FleetStreamOptions> soak_fleet(const util::FaultPlan* plans) {
  std::vector<FleetStreamOptions> streams(kStreams);
  for (int i = 0; i < kStreams; ++i) {
    auto& s = streams[static_cast<std::size_t>(i)];
    s.scene.width = 128;
    s.scene.height = 96;
    s.scene.frame_count = 120;
    s.scene.initial_objects = 3;
    s.scene.max_objects = 4;
    s.scene.seed = static_cast<std::uint64_t>(700 + i);
    s.engine.seed = static_cast<std::uint64_t>(8800 + i);
    s.setting = detect::ModelSetting::kYolov3Tiny_320;
    s.cadence_ms = 400.0;
    s.deadline_ms = 900.0;
    // self_degrade stays false fleet-wide: a stream that changes its GPU
    // request pattern in response to faults would (legitimately) perturb
    // the shared schedule and void the digest-isolation claim below.
  }
  if (plans != nullptr) {
    streams[kFaulty[0]].engine.fault_plan = &plans[0];
    streams[kFaulty[1]].engine.fault_plan = &plans[1];
  }
  return streams;
}

bool is_faulty(int id) { return id == kFaulty[0] || id == kFaulty[1]; }

TEST(FleetSoak, FaultedFleetCompletesDeterministicallyWithDigestIsolation) {
  const util::FaultPlan plans[2] = {neutral_plan(0), neutral_plan(1)};
  FleetOptions options;
  options.gpu.max_batch = 4;

  const FleetResult healthy = run_fleet(soak_fleet(nullptr), options);
  const FleetResult faulted = run_fleet(soak_fleet(plans), options);
  const FleetResult repeat = run_fleet(soak_fleet(plans), options);

  ASSERT_EQ(faulted.streams.size(), static_cast<std::size_t>(kStreams));
  ASSERT_EQ(faulted.admitted + faulted.degraded, kStreams);

  for (int i = 0; i < kStreams; ++i) {
    const FleetStreamResult& s = faulted.streams[static_cast<std::size_t>(i)];
    // (a)+(b): the run finished (joining run_fleet proves no deadlock) and
    // every frame carries a result.
    ASSERT_EQ(s.run.frames.size(), 120u) << s.name;
    for (const FrameResult& f : s.run.frames) {
      EXPECT_NE(f.source, ResultSource::kNone) << s.name;
    }
    // (c): bit-identical across repeats, faults included.
    EXPECT_EQ(digest_run(s.run),
              digest_run(repeat.streams[static_cast<std::size_t>(i)].run))
        << s.name;
    if (is_faulty(i)) {
      EXPECT_FALSE(s.run.status.ok()) << s.name;
      EXPECT_GT(s.run.faults_injected, 0u) << s.name;
    } else {
      // (d): a healthy stream cannot tell its neighbors were faulted —
      // its entire observable run matches the all-healthy fleet.
      EXPECT_TRUE(s.run.status.ok()) << s.run.status.to_string();
      EXPECT_EQ(s.run.faults_injected, 0u) << s.name;
      EXPECT_EQ(digest_run(s.run),
                digest_run(healthy.streams[static_cast<std::size_t>(i)].run))
          << s.name;
    }
  }
  EXPECT_FALSE(faulted.status.ok());
  EXPECT_FALSE(faulted.status.failed());  // degraded, not dead
}

TEST(FleetSoak, DeterministicWithBatchingDisabled) {
  const util::FaultPlan plans[2] = {neutral_plan(0), neutral_plan(1)};
  FleetOptions options;
  options.gpu.max_batch = 1;  // batch of one is bit-identical to solo grants
  const FleetResult a = run_fleet(soak_fleet(plans), options);
  const FleetResult b = run_fleet(soak_fleet(plans), options);
  ASSERT_EQ(a.streams.size(), b.streams.size());
  for (std::size_t i = 0; i < a.streams.size(); ++i) {
    EXPECT_EQ(digest_run(a.streams[i].run), digest_run(b.streams[i].run));
  }
  EXPECT_EQ(a.gpu.batches, a.gpu.requests);  // max_batch=1 => no coalescing
}

}  // namespace
}  // namespace adavp::core
