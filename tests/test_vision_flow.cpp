#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "obs/telemetry.h"
#include "util/rng.h"
#include "vision/image_ops.h"
#include "vision/optical_flow.h"
#include "vision/simd/dispatch.h"

namespace adavp::vision {
namespace {

/// Smooth random texture so Lucas-Kanade has gradients everywhere.
ImageF32 smooth_texture(int w, int h, std::uint64_t seed) {
  util::Rng rng(seed);
  ImageF32 img(w, h);
  for (auto& px : img.pixels()) {
    px = static_cast<float>(rng.uniform(0.0, 255.0));
  }
  // Heavy smoothing turns white noise into trackable blobs.
  return smooth5(smooth5(smooth5(img)));
}

/// Shifts an image by (dx, dy) with bilinear resampling.
ImageU8 shift_image(const ImageF32& src, float dx, float dy) {
  ImageF32 out(src.width(), src.height());
  for (int y = 0; y < src.height(); ++y) {
    for (int x = 0; x < src.width(); ++x) {
      out.at(x, y) = sample_bilinear(src, static_cast<float>(x) - dx,
                                     static_cast<float>(y) - dy);
    }
  }
  return to_u8(out);
}

std::vector<geometry::Point2f> grid_points(int w, int h, int margin, int step) {
  std::vector<geometry::Point2f> pts;
  for (int y = margin; y < h - margin; y += step) {
    for (int x = margin; x < w - margin; x += step) {
      pts.push_back({static_cast<float>(x), static_cast<float>(y)});
    }
  }
  return pts;
}

TEST(OpticalFlow, ZeroMotionStaysPut) {
  const ImageF32 tex = smooth_texture(64, 64, 5);
  const ImageU8 frame = to_u8(tex);
  const ImagePyramid pyr(frame, 3);
  const auto pts = grid_points(64, 64, 16, 12);
  std::vector<geometry::Point2f> out;
  std::vector<FlowStatus> status;
  calc_optical_flow_pyr_lk(pyr, pyr, pts, out, status);
  ASSERT_EQ(out.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_TRUE(status[i].tracked);
    EXPECT_NEAR((out[i] - pts[i]).norm(), 0.0f, 0.05f);
  }
}

TEST(OpticalFlow, EmptyInputsHandled) {
  std::vector<geometry::Point2f> out;
  std::vector<FlowStatus> status;
  calc_optical_flow_pyr_lk(ImagePyramid{}, ImagePyramid{}, {{1.0f, 1.0f}}, out,
                           status);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(status[0].tracked);
}

TEST(OpticalFlow, TexturelessWindowRejected) {
  const ImageU8 flat(64, 64, 128);
  const ImagePyramid pyr(flat, 3);
  std::vector<geometry::Point2f> out;
  std::vector<FlowStatus> status;
  calc_optical_flow_pyr_lk(pyr, pyr, {{32.0f, 32.0f}}, out, status);
  EXPECT_FALSE(status[0].tracked);
}

TEST(OpticalFlow, LargeMotionNeedsPyramid) {
  const ImageF32 tex = smooth_texture(96, 96, 17);
  const ImageU8 a = to_u8(tex);
  const ImageU8 b = shift_image(tex, 11.0f, -7.0f);
  const auto pts = grid_points(96, 96, 24, 16);

  // Single-level LK fails for an 11-pixel shift (window radius 7) ...
  {
    const ImagePyramid pa(a, 1);
    const ImagePyramid pb(b, 1);
    std::vector<geometry::Point2f> out;
    std::vector<FlowStatus> status;
    calc_optical_flow_pyr_lk(pa, pb, pts, out, status);
    int recovered = 0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const geometry::Point2f d = out[i] - pts[i];
      if (status[i].tracked && std::abs(d.x - 11.0f) < 1.0f &&
          std::abs(d.y + 7.0f) < 1.0f) {
        ++recovered;
      }
    }
    EXPECT_LT(recovered, static_cast<int>(pts.size()) / 2);
  }
  // ... but the 4-level pyramid recovers it.
  {
    const ImagePyramid pa(a, 4);
    const ImagePyramid pb(b, 4);
    std::vector<geometry::Point2f> out;
    std::vector<FlowStatus> status;
    calc_optical_flow_pyr_lk(pa, pb, pts, out, status);
    int recovered = 0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const geometry::Point2f d = out[i] - pts[i];
      if (status[i].tracked && std::abs(d.x - 11.0f) < 1.0f &&
          std::abs(d.y + 7.0f) < 1.0f) {
        ++recovered;
      }
    }
    EXPECT_GT(recovered, static_cast<int>(pts.size()) * 3 / 4);
  }
}

// Property sweep: pyramidal LK recovers translations over a grid of
// sub-pixel and multi-pixel shifts.
class FlowShiftTest
    : public ::testing::TestWithParam<std::tuple<float, float>> {};

TEST_P(FlowShiftTest, RecoversTranslation) {
  const auto [dx, dy] = GetParam();
  const ImageF32 tex = smooth_texture(80, 80, 23);
  const ImageU8 a = to_u8(tex);
  const ImageU8 b = shift_image(tex, dx, dy);
  const ImagePyramid pa(a, 3);
  const ImagePyramid pb(b, 3);
  const auto pts = grid_points(80, 80, 20, 13);

  std::vector<geometry::Point2f> out;
  std::vector<FlowStatus> status;
  calc_optical_flow_pyr_lk(pa, pb, pts, out, status);

  int tracked = 0;
  double err = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (!status[i].tracked) continue;
    const geometry::Point2f d = out[i] - pts[i];
    err += std::hypot(d.x - dx, d.y - dy);
    ++tracked;
  }
  ASSERT_GT(tracked, static_cast<int>(pts.size()) * 2 / 3);
  // Accuracy degrades gracefully with shift magnitude (coarse pyramid
  // levels contribute quantization error on big displacements).
  const double tolerance = 0.25 + 0.04 * std::hypot(dx, dy);
  EXPECT_LT(err / tracked, tolerance) << "dx=" << dx << " dy=" << dy;
}

INSTANTIATE_TEST_SUITE_P(
    ShiftGrid, FlowShiftTest,
    ::testing::Values(std::make_tuple(0.5f, 0.0f), std::make_tuple(0.0f, 0.5f),
                      std::make_tuple(0.25f, -0.75f), std::make_tuple(1.5f, 1.0f),
                      std::make_tuple(-2.0f, 3.0f), std::make_tuple(4.0f, -4.0f),
                      std::make_tuple(6.5f, 2.5f), std::make_tuple(-8.0f, -5.0f)));


// ---- Clamped per-pixel oracle ---------------------------------------------
//
// A verbatim copy of pyramidal LK as it sampled border windows before the
// tiled SIMD border path: every tap goes through the clamped, out-of-line
// `sample_bilinear` (replicate border via `at_clamped`), with the same
// structure-tensor and Newton reductions in the same raster order. Interior
// windows sampled this way give the same floats as the unchecked samplers,
// so the oracle covers every window. `test_kernel_equivalence` compares the
// SIMD tiers against the scalar tier, which shares the border path with
// them; this oracle is independent of that path, so a tiling bug shows up
// here even when every tier agrees with every other.

void oracle_gradient(const ImageF32& img, float x, float y, float& dx,
                     float& dy) {
  dx = (sample_bilinear(img, x + 1.0f, y) - sample_bilinear(img, x - 1.0f, y)) * 0.5f;
  dy = (sample_bilinear(img, x, y + 1.0f) - sample_bilinear(img, x, y - 1.0f)) * 0.5f;
}

void oracle_track_point(const ImagePyramid& prev, const ImagePyramid& next,
                        const LucasKanadeParams& params,
                        const geometry::Point2f& p0,
                        geometry::Point2f& out_point, FlowStatus& out_status) {
  const int levels = std::min(prev.levels(), next.levels());
  const int r = params.window_radius;
  const float window_count = static_cast<float>((2 * r + 1) * (2 * r + 1));
  const std::size_t window_pixels = static_cast<std::size_t>((2 * r + 1)) *
                                    static_cast<std::size_t>(2 * r + 1);
  std::vector<float> ivals(window_pixels);
  std::vector<float> ixs(window_pixels);
  std::vector<float> iys(window_pixels);

  geometry::Point2f g{0.0f, 0.0f};
  bool ok = true;
  float residual = 0.0f;

  for (int level = levels - 1; level >= 0; --level) {
    const ImageF32& I = prev.level(level);
    const ImageF32& J = next.level(level);
    const float scale = 1.0f / static_cast<float>(1 << level);
    const geometry::Point2f p{p0.x * scale, p0.y * scale};

    float gxx = 0.0f;
    float gxy = 0.0f;
    float gyy = 0.0f;
    std::size_t idx = 0;
    for (int wy = -r; wy <= r; ++wy) {
      for (int wx = -r; wx <= r; ++wx, ++idx) {
        const float sx = p.x + static_cast<float>(wx);
        const float sy = p.y + static_cast<float>(wy);
        float ix = 0.0f;
        float iy = 0.0f;
        oracle_gradient(I, sx, sy, ix, iy);
        ivals[idx] = sample_bilinear(I, sx, sy);
        ixs[idx] = ix;
        iys[idx] = iy;
        gxx += ix * ix;
        gxy += ix * iy;
        gyy += iy * iy;
      }
    }
    const float tr = 0.5f * (gxx + gyy);
    const float det = gxx * gyy - gxy * gxy;
    const float min_eig =
        (tr - std::sqrt(std::max(0.0f, tr * tr - det))) / window_count;
    if (min_eig < params.min_eigen_threshold || det <= 0.0f) {
      ok = false;
      break;
    }

    geometry::Point2f nu{0.0f, 0.0f};
    for (int iter = 0; iter < params.max_iterations; ++iter) {
      float bx = 0.0f;
      float by = 0.0f;
      residual = 0.0f;
      idx = 0;
      for (int wy = -r; wy <= r; ++wy) {
        for (int wx = -r; wx <= r; ++wx, ++idx) {
          const float jx = p.x + g.x + nu.x + static_cast<float>(wx);
          const float jy = p.y + g.y + nu.y + static_cast<float>(wy);
          const float diff = ivals[idx] - sample_bilinear(J, jx, jy);
          bx += diff * ixs[idx];
          by += diff * iys[idx];
          residual += std::abs(diff);
        }
      }
      const float vx = (gyy * bx - gxy * by) / det;
      const float vy = (gxx * by - gxy * bx) / det;
      nu += {vx, vy};
      if (std::sqrt(vx * vx + vy * vy) < params.epsilon) break;
    }

    if (level > 0) {
      g = (g + nu) * 2.0f;
    } else {
      g += nu;
    }
  }

  geometry::Point2f result = p0 + g;
  const ImageF32& base = next.level(0);
  const bool inside = result.x >= 0.0f && result.y >= 0.0f &&
                      result.x < static_cast<float>(base.width()) &&
                      result.y < static_cast<float>(base.height());
  out_point = result;
  out_status.tracked = ok && inside;
  out_status.error = residual / window_count;
}

std::uint32_t float_bits(float v) {
  std::uint32_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Seeded points 0-40 px inside and outside every edge of every pyramid
/// level (distances in that level's pixels, returned in full-resolution
/// coordinates), with the along-edge coordinate spread past both corners.
std::vector<geometry::Point2f> edge_points(const ImagePyramid& pyr,
                                           std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<geometry::Point2f> pts;
  for (int level = 0; level < pyr.levels(); ++level) {
    const float scale = static_cast<float>(1 << level);
    const float w = static_cast<float>(pyr.level(level).width());
    const float h = static_cast<float>(pyr.level(level).height());
    for (int edge = 0; edge < 4; ++edge) {
      for (int k = 0; k < 10; ++k) {
        const float d = static_cast<float>(rng.uniform(-40.0, 40.0));
        const bool vertical = edge < 2;  // left/right edges
        const float along = static_cast<float>(
            rng.uniform(-8.0, (vertical ? h : w) + 8.0));
        float x = 0.0f;
        float y = 0.0f;
        switch (edge) {
          case 0: x = d; y = along; break;                  // left
          case 1: x = w - 1.0f - d; y = along; break;       // right
          case 2: x = along; y = d; break;                  // top
          default: x = along; y = h - 1.0f - d; break;      // bottom
        }
        pts.push_back({x * scale, y * scale});
      }
    }
  }
  return pts;
}

constexpr simd::Isa kTiers[] = {simd::Isa::kScalar, simd::Isa::kSse2,
                                simd::Isa::kAvx2};

/// Runs calc_optical_flow_pyr_lk on every available tier x {1, 4} threads
/// and expects the bits of `want` / `want_st`. Returns the number of
/// points compared.
std::size_t expect_oracle_bits(const ImagePyramid& pa, const ImagePyramid& pb,
                               const std::vector<geometry::Point2f>& pts,
                               const LucasKanadeParams& params,
                               const std::vector<geometry::Point2f>& want,
                               const std::vector<FlowStatus>& want_st,
                               const std::string& label) {
  std::size_t compared = 0;
  for (const simd::Isa isa : kTiers) {
    if (simd::ops_for_isa(isa).isa != isa) {
      std::cout << "[ NOTICE  ] tier " << simd::isa_name(isa)
                << " unavailable on this host/build; skipping\n";
      continue;
    }
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(label + " r=" + std::to_string(params.window_radius) + " " +
                   simd::isa_name(isa) + " " + std::to_string(threads) + "t");
      KernelConfig cfg;
      cfg.num_threads = threads;
      cfg.min_points_per_task = 1;
      cfg.isa = isa;
      std::vector<geometry::Point2f> got;
      std::vector<FlowStatus> got_st;
      calc_optical_flow_pyr_lk(pa, pb, pts, got, got_st, params, cfg);
      EXPECT_EQ(got.size(), pts.size());
      if (got.size() != pts.size()) return compared;
      for (std::size_t i = 0; i < pts.size(); ++i) {
        EXPECT_EQ(float_bits(got[i].x), float_bits(want[i].x))
            << "point " << i << " (" << pts[i].x << "," << pts[i].y << ")";
        EXPECT_EQ(float_bits(got[i].y), float_bits(want[i].y))
            << "point " << i << " (" << pts[i].x << "," << pts[i].y << ")";
        EXPECT_EQ(got_st[i].tracked, want_st[i].tracked) << "point " << i;
        EXPECT_EQ(float_bits(got_st[i].error), float_bits(want_st[i].error))
            << "point " << i;
      }
      compared += pts.size();
    }
  }
  return compared;
}

TEST(OpticalFlowOracle, BorderWindowsMatchClampedPerPixelLk) {
  const std::pair<int, int> sizes[] = {{97, 61}, {131, 83}};
  const std::pair<float, float> shifts[] = {{2.3f, -1.7f}, {-6.6f, 4.2f}};
  const int radii[] = {3, 5, 7, 4};  // 4 takes the generic-radius path
  std::size_t compared = 0;
  std::size_t tracked = 0;
  std::uint64_t seed = 101;
  for (const auto& [w, h] : sizes) {
    const ImageF32 tex = smooth_texture(w, h, static_cast<std::uint64_t>(w));
    const ImageU8 a = to_u8(tex);
    for (const auto& [dx, dy] : shifts) {
      const ImageU8 b = shift_image(tex, dx, dy);
      const ImagePyramid pa(a, 4, 8);
      const ImagePyramid pb(b, 4, 8);
      const std::vector<geometry::Point2f> pts = edge_points(pa, ++seed);
      for (const int radius : radii) {
        LucasKanadeParams params;
        params.window_radius = radius;
        std::vector<geometry::Point2f> want(pts.size());
        std::vector<FlowStatus> want_st(pts.size());
        for (std::size_t i = 0; i < pts.size(); ++i) {
          oracle_track_point(pa, pb, params, pts[i], want[i], want_st[i]);
          tracked += want_st[i].tracked ? 1 : 0;
        }
        compared += expect_oracle_bits(
            pa, pb, pts, params, want, want_st,
            std::to_string(w) + "x" + std::to_string(h) + " shift " +
                std::to_string(dx) + "," + std::to_string(dy));
      }
    }
  }
  // Not vacuous: every configuration ran, and a fair share of the border
  // points were actually tracked (not rejected before the Newton loop).
  EXPECT_GT(compared, 0u);
  EXPECT_GT(tracked, 200u);
}

/// `v` with its lowest mantissa bit set: the finest fractional bit its
/// binade allows, so v + k stays exact only while v + k keeps that binade.
float odd_low_bit(float v) {
  std::uint32_t b = float_bits(v);
  b |= 1u;
  float out = 0.0f;
  std::memcpy(&out, &b, sizeof(out));
  return out;
}

/// Full-resolution points whose level-`level` coordinates straddle the
/// binade edges 16/64/128/256 (the window's +-(r+1) offsets then cross
/// the edge, so some sums round: the sampled path) or sit well inside one
/// (exact sums: the grid path), all with odd low mantissa bits; plus
/// integer, sub-1 and negative coordinates. Every level of `pyr` gets its
/// own set, scaled by 2^level so the level coordinate keeps its bits.
std::vector<geometry::Point2f> exactness_points(const ImagePyramid& pyr,
                                                std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<geometry::Point2f> pts;
  for (int level = 0; level < pyr.levels(); ++level) {
    const float scale = static_cast<float>(1 << level);
    const float w = static_cast<float>(pyr.level(level).width());
    const float h = static_cast<float>(pyr.level(level).height());
    std::vector<float> xs;
    std::vector<float> ys;
    for (const float edge : {16.0f, 64.0f, 128.0f, 256.0f}) {
      for (const float d : {-7.5f, -3.0f, -0.4f, 0.3f, 2.0f, 6.9f}) {
        const float jitter = static_cast<float>(rng.uniform(0.0, 0.1));
        if (edge + d + 12.0f < w) xs.push_back(odd_low_bit(edge + d + jitter));
        if (edge + d + 12.0f < h) ys.push_back(odd_low_bit(edge + d + jitter));
      }
      // Inside the binade below the edge, far from both of its ends.
      if (edge * 0.75f + 12.0f < w) xs.push_back(odd_low_bit(edge * 0.75f + 0.37f));
      if (edge * 0.75f + 12.0f < h) ys.push_back(odd_low_bit(edge * 0.75f + 0.37f));
    }
    // Negative ones of magnitude 2-16 keep v + (r+1) exact while
    // v - (r+1) rounds.
    for (const float v : {0.3f, 0.75f, -0.6f, -2.6f, -3.7f, -5.3f, -6.9f,
                          -12.7f, -14.2f, 5.0f, 11.0f}) {
      xs.push_back(odd_low_bit(v));
      ys.push_back(odd_low_bit(v));
    }
    xs.push_back(std::floor(w / 2));  // integers: always the grid path
    ys.push_back(std::floor(h / 2));
    for (std::size_t i = 0; i < xs.size(); ++i) {
      // Pair each x with two ys: one from the list, one plain interior.
      const float y = ys[i % ys.size()];
      pts.push_back({xs[i] * scale, y * scale});
      pts.push_back({xs[i] * scale, std::floor(h / 3) * scale});
      pts.push_back({std::floor(w / 3) * scale, y * scale});
    }
  }
  return pts;
}

TEST(OpticalFlowOracle, GridAndSampledWindowsMatchPerTapLk) {
  const int w = 331;
  const int h = 283;
  const ImageF32 tex = smooth_texture(w, h, 77);
  const ImagePyramid pa(to_u8(tex), 4, 8);
  const ImagePyramid pb(shift_image(tex, 1.37f, -2.61f), 4, 8);
  ASSERT_EQ(pa.levels(), 4);
  const std::vector<geometry::Point2f> pts = exactness_points(pa, 5);
  std::vector<geometry::Point2f> integer_pts;
  for (int i = 0; i < 40; ++i) {
    integer_pts.push_back({static_cast<float>(10 + (i * 37) % (w - 20)),
                           static_cast<float>(10 + (i * 53) % (h - 20))});
  }

  const bool telemetry_was_on = obs::Telemetry::enabled();
  obs::Telemetry::set_enabled(true);
  const auto window_counts = [](const obs::MetricsSnapshot& before) {
    const obs::MetricsSnapshot d =
        obs::Telemetry::instance().snapshot().since(before);
    return std::make_pair(d.counter("lk.grid_windows"),
                          d.counter("lk.sampled_windows"));
  };
  std::size_t compared = 0;
  std::size_t tracked = 0;
  for (const int radius : {3, 5, 7, 4}) {  // 3: 7-wide rows, masked AVX2 path
    LucasKanadeParams params;
    params.window_radius = radius;
    std::vector<geometry::Point2f> want(pts.size());
    std::vector<FlowStatus> want_st(pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      oracle_track_point(pa, pb, params, pts[i], want[i], want_st[i]);
      tracked += want_st[i].tracked ? 1 : 0;
    }
    const obs::MetricsSnapshot before = obs::Telemetry::instance().snapshot();
    compared += expect_oracle_bits(pa, pb, pts, params, want, want_st,
                                   "exactness points");
    const auto [grid, sampled] = window_counts(before);
    // Both structure-tensor paths ran on this point set.
    EXPECT_GT(grid, 0u) << "r=" << radius;
    EXPECT_GT(sampled, 0u) << "r=" << radius;

    // Integer points take the grid path at every level.
    std::vector<geometry::Point2f> want_int(integer_pts.size());
    std::vector<FlowStatus> want_int_st(integer_pts.size());
    for (std::size_t i = 0; i < integer_pts.size(); ++i) {
      oracle_track_point(pa, pb, params, integer_pts[i], want_int[i],
                         want_int_st[i]);
    }
    const obs::MetricsSnapshot before_int = obs::Telemetry::instance().snapshot();
    compared += expect_oracle_bits(pa, pb, integer_pts, params, want_int,
                                   want_int_st, "integer points");
    const auto [grid_int, sampled_int] = window_counts(before_int);
    EXPECT_GT(grid_int, 0u) << "r=" << radius;
    EXPECT_EQ(sampled_int, 0u) << "r=" << radius;
  }
  obs::Telemetry::set_enabled(telemetry_was_on);
  EXPECT_GT(compared, 0u);
  EXPECT_GT(tracked, pts.size());  // over 4 radii: a fair share tracked
}

TEST(OpticalFlow, NonFiniteAndHugePointsEndUntracked) {
  const ImageF32 tex = smooth_texture(80, 80, 31);
  const ImagePyramid pa(to_u8(tex), 3);
  const ImagePyramid pb(shift_image(tex, 1.5f, -1.0f), 3);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // 3e6 is 7.5e5 px at the coarsest level: inside the ±2^20 range, so it
  // samples a tile far outside the frame (flat, hence rejected); the rest
  // are refused before any sampling.
  const geometry::Point2f bad[] = {{nan, 40.0f},    {40.0f, nan},
                                   {inf, 40.0f},    {40.0f, -inf},
                                   {1e30f, 1e30f},  {-1e30f, 40.0f},
                                   {40.0f, 3e6f},   {nan, inf}};
  const geometry::Point2f good{40.0f, 40.0f};
  std::vector<geometry::Point2f> pts;
  for (const geometry::Point2f& p : bad) {
    pts.push_back(good);  // a healthy neighbour in every chunk
    pts.push_back(p);
  }
  std::vector<geometry::Point2f> good_out;
  std::vector<FlowStatus> good_st;
  calc_optical_flow_pyr_lk(pa, pb, {good}, good_out, good_st);
  ASSERT_TRUE(good_st[0].tracked);

  const auto same = [](float a, float b) {
    return (std::isnan(a) && std::isnan(b)) || float_bits(a) == float_bits(b);
  };
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kSse2, simd::Isa::kAvx2}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(simd::isa_name(isa)) + " " +
                   std::to_string(threads) + "t");
      KernelConfig cfg;
      cfg.num_threads = threads;
      cfg.isa = isa;
      std::vector<geometry::Point2f> out;
      std::vector<FlowStatus> status;
      calc_optical_flow_pyr_lk(pa, pb, pts, out, status, {}, cfg);
      ASSERT_EQ(out.size(), pts.size());
      for (std::size_t i = 0; i < pts.size(); i += 2) {
        EXPECT_TRUE(status[i].tracked);
        EXPECT_EQ(float_bits(out[i].x), float_bits(good_out[0].x));
        EXPECT_EQ(float_bits(out[i].y), float_bits(good_out[0].y));
        // Rejected at the first level: the estimate is the input point.
        EXPECT_FALSE(status[i + 1].tracked) << "point " << i + 1;
        EXPECT_TRUE(same(out[i + 1].x, pts[i + 1].x)) << "point " << i + 1;
        EXPECT_TRUE(same(out[i + 1].y, pts[i + 1].y)) << "point " << i + 1;
      }
    }
  }
}

}  // namespace
}  // namespace adavp::vision
