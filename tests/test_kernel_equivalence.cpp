// Parallel-vs-serial equivalence of the vision kernel engine.
//
// Every kernel on the tracking hot path is row- or point-parallel with no
// cross-chunk reductions, so `num_threads = 1` and `num_threads = 4` must
// produce bit-identical images, flow vectors, and tracker boxes. These
// tests pin that invariant (and the fused downsample2 against a literal
// transcription of the historical smooth3-then-decimate formulation) so a
// future kernel change that breaks reproducibility fails loudly.

#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "detect/detection.h"
#include "track/tracker.h"
#include "util/rng.h"
#include "video/scene.h"
#include "vision/good_features.h"
#include "vision/image_ops.h"
#include "vision/optical_flow.h"
#include "vision/pyramid.h"
#include "vision/simd/dispatch.h"
#include "vision/simd/kernels_ref.h"

namespace adavp::vision {
namespace {

KernelConfig serial() { return {.num_threads = 1}; }
KernelConfig parallel4() {
  // Force splitting even on the small test images: four threads, tiny
  // grains, so chunk boundaries land in the middle of rows/points.
  KernelConfig cfg;
  cfg.num_threads = 4;
  cfg.min_rows_per_task = 4;
  cfg.min_points_per_task = 1;
  return cfg;
}

ImageU8 test_frame(int w, int h, std::uint32_t seed) {
  ImageU8 img(w, h);
  std::uint32_t s = seed;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      s = s * 1664525u + 1013904223u;
      img.at(x, y) = static_cast<std::uint8_t>(
          (x * 5 + y * 3 + static_cast<int>((s >> 24) & 63)) % 256);
    }
  }
  return img;
}

template <typename T>
void expect_identical(const Image<T>& a, const Image<T>& b) {
  ASSERT_EQ(a.width(), b.width());
  ASSERT_EQ(a.height(), b.height());
  // operator== on the pixel vectors is an exact byte comparison.
  EXPECT_TRUE(a.pixels() == b.pixels());
}

TEST(KernelEquivalence, RowParallelKernelsAreBitExact) {
  // Odd dimensions on one of the images exercise the clamped border taps.
  for (const auto& frame : {test_frame(128, 96, 1), test_frame(131, 77, 2)}) {
    const ImageF32 fs = to_float(frame, serial());
    const ImageF32 fp = to_float(frame, parallel4());
    expect_identical(fs, fp);

    expect_identical(smooth3(fs, serial()), smooth3(fs, parallel4()));
    expect_identical(smooth5(fs, serial()), smooth5(fs, parallel4()));
    expect_identical(downsample2(fs, serial()), downsample2(fs, parallel4()));

    ImageF32 gxs, gys, gxp, gyp;
    sobel(fs, gxs, gys, serial());
    sobel(fs, gxp, gyp, parallel4());
    expect_identical(gxs, gxp);
    expect_identical(gys, gyp);

    expect_identical(min_eigenvalue_map(fs, 3, serial()),
                     min_eigenvalue_map(fs, 3, parallel4()));
  }
}

/// Literal transcription of the pre-engine downsample2 (full smooth3 pass,
/// then 2x2 mean) — the reference the fused kernel must match bit for bit.
ImageF32 reference_downsample2(const ImageF32& img) {
  if (img.width() < 2 || img.height() < 2) return img;
  const ImageF32 smoothed = smooth3(img, KernelConfig{.num_threads = 1});
  const int w = (img.width() + 1) / 2;
  const int h = (img.height() + 1) / 2;
  ImageF32 out(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const int sx = 2 * x;
      const int sy = 2 * y;
      const float sum = smoothed.at_clamped(sx, sy) +
                        smoothed.at_clamped(sx + 1, sy) +
                        smoothed.at_clamped(sx, sy + 1) +
                        smoothed.at_clamped(sx + 1, sy + 1);
      out.at(x, y) = sum / 4.0f;
    }
  }
  return out;
}

TEST(KernelEquivalence, FusedDownsampleMatchesUnfusedReference) {
  const std::pair<int, int> sizes[] = {{128, 96}, {131, 77}, {33, 34}, {2, 2}};
  for (const auto& [w, h] : sizes) {
    const ImageF32 img = to_float(test_frame(w, h, 7u));
    expect_identical(reference_downsample2(img), downsample2(img, serial()));
    expect_identical(reference_downsample2(img), downsample2(img, parallel4()));
  }
}

TEST(KernelEquivalence, PyramidAndFlowAreBitExactAcrossThreadCounts) {
  const ImageU8 a = test_frame(160, 120, 11);
  ImageU8 b = test_frame(160, 120, 11);
  // Shift a patch so the flow has something to chase.
  for (int y = 20; y < 60; ++y) {
    for (int x = 20; x < 60; ++x) {
      b.at(x + 3, y + 2) = a.at(x, y);
    }
  }
  const ImagePyramid pas(a, 3, 16, serial());
  const ImagePyramid pap(a, 3, 16, parallel4());
  ASSERT_EQ(pas.levels(), pap.levels());
  for (int l = 0; l < pas.levels(); ++l) {
    expect_identical(pas.level(l), pap.level(l));
  }

  const ImagePyramid pbs(b, 3, 16, serial());
  std::vector<geometry::Point2f> pts;
  for (int i = 0; i < 30; ++i) {
    pts.push_back({6.0f + static_cast<float>(i % 6) * 28.0f,
                   8.0f + static_cast<float>(i / 6) * 22.0f});
  }
  pts.push_back({0.5f, 0.5f});       // border window: clamped path
  pts.push_back({158.5f, 118.5f});   // border window: clamped path

  std::vector<geometry::Point2f> out_s, out_p;
  std::vector<FlowStatus> st_s, st_p;
  calc_optical_flow_pyr_lk(pas, pbs, pts, out_s, st_s, {}, serial());
  calc_optical_flow_pyr_lk(pas, pbs, pts, out_p, st_p, {}, parallel4());
  ASSERT_EQ(out_s.size(), out_p.size());
  for (std::size_t i = 0; i < out_s.size(); ++i) {
    EXPECT_EQ(out_s[i].x, out_p[i].x) << "point " << i;
    EXPECT_EQ(out_s[i].y, out_p[i].y) << "point " << i;
    EXPECT_EQ(st_s[i].tracked, st_p[i].tracked) << "point " << i;
    EXPECT_EQ(st_s[i].error, st_p[i].error) << "point " << i;
  }
}

TEST(KernelEquivalence, TrackerOutputsAreIdenticalSerialVsParallel) {
  video::SceneConfig cfg;
  cfg.width = 256;
  cfg.height = 160;
  cfg.frame_count = 24;
  cfg.seed = 3;
  cfg.initial_objects = 3;
  cfg.max_objects = 4;
  cfg.speed_mean = 1.2;
  cfg.speed_jitter = 0.05;
  const video::SyntheticVideo video(cfg);

  auto run = [&](const KernelConfig& kernels) {
    track::TrackerParams params;
    params.kernels = kernels;
    track::ObjectTracker tracker(params);
    std::vector<detect::Detection> dets;
    for (const auto& gt : video.ground_truth(0)) {
      dets.push_back({gt.box, gt.cls, 1.0f});
    }
    tracker.set_reference(video.render(0), dets);
    std::vector<metrics::LabeledBox> boxes;
    for (int f = 1; f < cfg.frame_count; ++f) {
      tracker.track_to(video.render(f), 1);
      for (const auto& lb : tracker.current_boxes()) boxes.push_back(lb);
    }
    return boxes;
  };

  const auto serial_boxes = run(serial());
  const auto parallel_boxes = run(parallel4());
  ASSERT_EQ(serial_boxes.size(), parallel_boxes.size());
  for (std::size_t i = 0; i < serial_boxes.size(); ++i) {
    EXPECT_EQ(serial_boxes[i].box.left, parallel_boxes[i].box.left);
    EXPECT_EQ(serial_boxes[i].box.top, parallel_boxes[i].box.top);
    EXPECT_EQ(serial_boxes[i].box.width, parallel_boxes[i].box.width);
    EXPECT_EQ(serial_boxes[i].box.height, parallel_boxes[i].box.height);
    EXPECT_EQ(serial_boxes[i].cls, parallel_boxes[i].cls);
  }
}

// ------------------------------------------------------- ISA matrix ----
//
// The SIMD tiers (DESIGN.md §14) promise bit-exactness with the scalar
// reference, per ISA, per thread count, including every border/tail case:
// odd widths, images narrower than one vector, windows straddling the
// interior/clamped split. Tiers the host CPU (or the build) lacks are
// skipped with a logged notice rather than failed, so the same test binary
// is meaningful on any x86 or non-x86 machine.

KernelConfig with_isa(KernelConfig base, simd::Isa isa) {
  base.isa = isa;
  return base;
}

/// True when forcing `isa` actually runs that tier (the dispatcher clamps
/// unsupported requests down, which would make the comparison vacuous).
bool tier_available(simd::Isa isa) {
  return simd::ops_for_isa(isa).isa == isa;
}

const simd::Isa kSimdTiers[] = {simd::Isa::kSse2, simd::Isa::kAvx2};

TEST(KernelIsaMatrix, RowKernelsMatchScalarBitForBit) {
  // Widths chosen to hit: multiple full vectors + tail (131), exactly the
  // SSE2 width (4), below every vector width (3), and a single column (1).
  const std::pair<int, int> sizes[] = {
      {128, 96}, {131, 77}, {33, 34}, {9, 31}, {4, 6}, {3, 3}, {1, 5}};
  for (const simd::Isa isa : kSimdTiers) {
    if (!tier_available(isa)) {
      std::cout << "[ NOTICE  ] tier " << simd::isa_name(isa)
                << " unavailable on this host/build; skipping\n";
      continue;
    }
    for (const KernelConfig& threads : {serial(), parallel4()}) {
      const KernelConfig ref = with_isa(serial(), simd::Isa::kScalar);
      const KernelConfig tier = with_isa(threads, isa);
      for (const auto& [w, h] : sizes) {
        SCOPED_TRACE(std::string(simd::isa_name(isa)) + " " +
                     std::to_string(threads.num_threads) + "t " +
                     std::to_string(w) + "x" + std::to_string(h));
        const ImageF32 img = to_float(test_frame(w, h, 5u));
        expect_identical(smooth3(img, ref), smooth3(img, tier));
        expect_identical(smooth5(img, ref), smooth5(img, tier));
        expect_identical(downsample2(img, ref), downsample2(img, tier));

        ImageF32 gxs, gys, gxv, gyv;
        sobel(img, gxs, gys, ref);
        sobel(img, gxv, gyv, tier);
        expect_identical(gxs, gxv);
        expect_identical(gys, gyv);

        expect_identical(min_eigenvalue_map(img, 3, ref),
                         min_eigenvalue_map(img, 3, tier));
      }
    }
  }
}

TEST(KernelIsaMatrix, OpticalFlowMatchesScalarBitForBit) {
  const ImageU8 a = test_frame(160, 120, 31);
  ImageU8 b = test_frame(160, 120, 31);
  for (int y = 30; y < 70; ++y) {
    for (int x = 30; x < 70; ++x) {
      b.at(x + 2, y + 3) = a.at(x, y);
    }
  }
  // Interior grid plus window positions that straddle or cross the image
  // border — those sample replicate-border tiles, the rest read the level
  // in place; both go through each tier's samplers. (The scalar tier
  // shares the tiles, so test_vision_flow's clamped oracle pins them.)
  std::vector<geometry::Point2f> pts;
  for (int i = 0; i < 24; ++i) {
    pts.push_back({12.0f + static_cast<float>(i % 6) * 26.0f,
                   14.0f + static_cast<float>(i / 6) * 24.0f});
  }
  pts.push_back({1.0f, 1.0f});
  pts.push_back({158.0f, 2.0f});
  pts.push_back({9.5f, 110.7f});   // near the interior/clamped boundary
  pts.push_back({159.0f, 119.0f});

  // Default radius 7 (unrolled fast path) and 4 (generic-radius path).
  LucasKanadeParams params_list[2];
  params_list[1].window_radius = 4;

  const KernelConfig ref = with_isa(serial(), simd::Isa::kScalar);
  const ImagePyramid pa(a, 3, 16, ref);
  const ImagePyramid pb(b, 3, 16, ref);
  for (const simd::Isa isa : kSimdTiers) {
    if (!tier_available(isa)) {
      std::cout << "[ NOTICE  ] tier " << simd::isa_name(isa)
                << " unavailable on this host/build; skipping\n";
      continue;
    }
    for (const KernelConfig& threads : {serial(), parallel4()}) {
      for (const LucasKanadeParams& params : params_list) {
        SCOPED_TRACE(std::string(simd::isa_name(isa)) + " " +
                     std::to_string(threads.num_threads) + "t r=" +
                     std::to_string(params.window_radius));
        std::vector<geometry::Point2f> out_s, out_v;
        std::vector<FlowStatus> st_s, st_v;
        calc_optical_flow_pyr_lk(pa, pb, pts, out_s, st_s, params, ref);
        calc_optical_flow_pyr_lk(pa, pb, pts, out_v, st_v, params,
                                 with_isa(threads, isa));
        ASSERT_EQ(out_s.size(), out_v.size());
        for (std::size_t i = 0; i < out_s.size(); ++i) {
          EXPECT_EQ(out_s[i].x, out_v[i].x) << "point " << i;
          EXPECT_EQ(out_s[i].y, out_v[i].y) << "point " << i;
          EXPECT_EQ(st_s[i].tracked, st_v[i].tracked) << "point " << i;
          EXPECT_EQ(st_s[i].error, st_v[i].error) << "point " << i;
        }
      }
    }
  }
}

TEST(KernelIsaMatrix, SensorNoiseRowMatchesReferenceOnEveryTier) {
  // Widths around the 8-lane step (every tail length, and rows narrower
  // than one step) plus a 384-wide perfbench row with tails on either side.
  std::vector<int> widths;
  for (int w = 1; w <= 17; ++w) widths.push_back(w);
  for (int w = 383; w <= 385; ++w) widths.push_back(w);
  util::Rng rng(0x5E7503);
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kSse2, simd::Isa::kAvx2}) {
    if (isa > simd::detected_isa()) {
      std::cout << "[ NOTICE  ] tier " << simd::isa_name(isa)
                << " unavailable on this host/build; skipping\n";
      continue;
    }
    // Every tier up to the detected one is compiled in and must be the
    // one that runs, or the comparison below would be vacuous.
    const simd::SimdOps& ops = simd::ops_for_isa(isa);
    ASSERT_EQ(ops.isa, isa);
    for (int trial = 0; trial < 40; ++trial) {
      const std::uint64_t seed = rng.next_u64();
      const auto y = static_cast<std::int64_t>(rng.uniform_int(0, 1 << 20));
      const float gain = trial == 0   ? 0.0f
                         : trial == 1 ? 200.0f
                                      : static_cast<float>(rng.uniform(0.0, 200.0));
      for (const int w : widths) {
        std::vector<std::uint8_t> row(static_cast<std::size_t>(w));
        for (std::uint8_t& p : row) {
          p = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        }
        std::vector<std::uint8_t> want = row;
        simd::ref::sensor_noise_row(want.data(), w, seed, y, gain);
        ops.sensor_noise_row(row.data(), w, seed, y, gain);
        ASSERT_EQ(row, want) << simd::isa_name(isa) << " width " << w
                             << " y " << y << " gain " << gain << " seed "
                             << seed;
      }
    }
  }
}

TEST(KernelIsaMatrix, EnvOverrideForcesTierAndAutoRestores) {
  ASSERT_EQ(setenv("ADAVP_FORCE_ISA", "scalar", 1), 0);
  simd::refresh_env_for_testing();
  EXPECT_EQ(simd::resolve_isa(KernelConfig{}), simd::Isa::kScalar);
  // An explicit config.isa outranks the environment.
  EXPECT_EQ(simd::resolve_isa(with_isa(KernelConfig{}, simd::detected_isa())),
            simd::detected_isa());
  ASSERT_EQ(unsetenv("ADAVP_FORCE_ISA"), 0);
  simd::refresh_env_for_testing();
  EXPECT_EQ(simd::resolve_isa(KernelConfig{}), simd::detected_isa());
}

TEST(KernelIsaMatrix, ForcedTiersClampToHostSupport) {
  // Requesting more than the host/build supports must degrade, not fault.
  const simd::Isa detected = simd::detected_isa();
  EXPECT_LE(simd::resolve_isa(with_isa(KernelConfig{}, simd::Isa::kAvx2)),
            detected);
  EXPECT_LE(simd::ops_for_isa(simd::Isa::kAvx2).isa, detected);
  // The scalar tier always exists and is always honored.
  EXPECT_EQ(simd::resolve_isa(with_isa(KernelConfig{}, simd::Isa::kScalar)),
            simd::Isa::kScalar);
  EXPECT_EQ(simd::ops_for_isa(simd::Isa::kScalar).isa, simd::Isa::kScalar);
}

TEST(KernelEquivalence, TrackerRepeatedReferenceFrameGivesTheSameBox) {
  const ImageU8 frame = test_frame(160, 120, 21);
  track::TrackerParams params;
  track::ObjectTracker tracker(params);
  std::vector<detect::Detection> dets;
  detect::Detection d;
  d.box = {30.0f, 30.0f, 40.0f, 40.0f};
  dets.push_back(d);
  tracker.set_reference(frame, dets);
  const auto first = tracker.current_boxes();
  // Same frame again: the reference is rebuilt from the same pixels, so the
  // boxes are unchanged.
  tracker.set_reference(frame, dets);
  EXPECT_TRUE(tracker.has_reference());
  const auto boxes = tracker.current_boxes();
  ASSERT_EQ(boxes.size(), 1u);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(boxes[0].box, first[0].box);
  EXPECT_EQ(boxes[0].cls, first[0].cls);
}

}  // namespace
}  // namespace adavp::vision
