#include "vision/optical_flow.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>

#include "obs/telemetry.h"
#include "util/scratch_arena.h"
#include "vision/simd/dispatch.h"
#include "vision/simd/kernels_ref.h"

namespace adavp::vision {

namespace {

struct GradientWindow {
  // Spatial gradient (structure tensor) accumulated over the window.
  float gxx = 0.0f;
  float gxy = 0.0f;
  float gyy = 0.0f;
};

/// Per-thread workspace of one LK chunk, carved from the thread's
/// ScratchArena and 32-byte aligned for the AVX2 samplers. The window
/// arrays hold (2r+1)^2 floats; `grid` holds the (2r+3)^2 taps a grid
/// window samples once; `tile` holds the (2r+7)^2 replicate-border copy a
/// border window samples from.
struct LkScratch {
  float* ivals;
  float* ixs;
  float* iys;
  float* jvals;
  float* grid;
  float* tile;
};

/// Structure-tensor windows of one chunk by sampling path, summed in the
/// chunk and published once per call.
struct LkWindowCounts {
  std::uint64_t grid = 0;
  std::uint64_t sampled = 0;
};

/// True when a + b is exact in float (TwoSum: the rounding error of the
/// sum, computed error-free, is zero). Needs contraction off, as every
/// vision TU builds.
inline bool sum_is_exact(float a, float b) {
  const float s = a + b;
  const float bb = s - a;
  return (a - (s - bb)) + (b - bb) == 0.0f;
}

/// True when v + k is exact for every integer k in [-n, n]. Checking the
/// two extremes is enough for |v| <= 2^20 (every coordinate LK samples at)
/// and small n: an integer v keeps every v + k an integer below 2^24, and
/// a v whose lowest set bit has weight 2^q < 1 has v + k exact iff
/// |v + k| < 2^(24+q), an interval that holds everything between two of
/// its members.
inline bool offsets_exact(float v, int n) {
  const float k = static_cast<float>(n);
  return sum_is_exact(v, k) && sum_is_exact(v, -k);
}

/// Largest |coordinate| (level pixels) LK samples at. Far beyond any real
/// frame, small enough that every float coordinate and tile origin
/// converts to int exactly; a NaN, infinite or larger estimate ends the
/// point untracked instead of reaching an int conversion.
constexpr float kMaxCoordinate = 1048576.0f;  // 2^20

/// False for NaN, ±inf and anything beyond ±kMaxCoordinate.
inline bool in_coordinate_range(float x, float y) {
  return std::abs(x) <= kMaxCoordinate && std::abs(y) <= kMaxCoordinate;
}

/// True when every bilinear tap within `margin` of (x, y) is strictly
/// interior. Conservative by one extra pixel so float rounding in the
/// callers' coordinate arithmetic can never escape the unchecked window.
inline bool window_interior(float x, float y, float margin, int w, int h) {
  return x - margin >= 0.0f && y - margin >= 0.0f &&
         x + margin <= static_cast<float>(w - 2) &&
         y + margin <= static_cast<float>(h - 2);
}

/// The block a window's taps read from, in the samplers' terms: `pix`
/// with row stride `stride` holds pixel (ox, oy) first.
struct TapSource {
  const float* pix;
  int stride;
  int ox;
  int oy;
};

/// Where the taps within `margin` px of (x, y) read from. An interior
/// window reads the level in place. A border window reads an n x n tile
/// (n = 2 * margin + 3) centered on floor(x, y) and filled with the
/// level's replicate-border pixels, tile[j * n + i] =
/// img.at_clamped(ox + i, oy + j) — exactly the pixels the clamped
/// `sample_bilinear` would read. Its extent covers the taps' bilinear
/// footprints plus one pixel of float-rounding slack per side (the
/// samplers add the window offsets in float). Returns false, reading
/// nothing, when (x, y) is outside `in_coordinate_range`.
bool tap_source(const ImageF32& img, float x, float y, int margin, float* tile,
                TapSource& src) {
  const int w = img.width();
  const int h = img.height();
  const float* pix = img.pixels().data();
  if (window_interior(x, y, static_cast<float>(margin), w, h)) {
    src = {pix, w, 0, 0};
    return true;
  }
  if (!in_coordinate_range(x, y)) return false;
  const int reach = margin + 1;
  const int n = 2 * reach + 1;
  const int ox = simd::ref::floor_to_int(x) - reach;
  const int oy = simd::ref::floor_to_int(y) - reach;
  // Tile columns [0, lo) lie left of the image, [hi, n) right of it.
  const int lo = std::clamp(-ox, 0, n);
  const int hi = std::clamp(w - ox, lo, n);
  for (int j = 0; j < n; ++j) {
    const float* row =
        pix + static_cast<std::size_t>(std::clamp(oy + j, 0, h - 1)) * w;
    float* dst = tile + static_cast<std::size_t>(j) * n;
    std::fill(dst, dst + lo, row[0]);
    if (hi > lo) std::copy(row + ox + lo, row + ox + hi, dst + lo);
    std::fill(dst + hi, dst + n, row[w - 1]);
  }
  src = {tile, n, ox, oy};
  return true;
}

/// Tracks one point through the pyramid. `kRadius >= 0` is the
/// compile-time fixed-radius fast path (fully unrolled window loops for
/// the default radius); `kRadius == -1` reads the radius from `params`.
///
/// Every window samples through `ops` (value + gradient arrays filled one
/// lane per pixel, or the shared tap grid when `offsets_exact` allows),
/// reading the level in place or a replicate-border tile (`tap_source`),
/// so all windows give the floats of the clamped per-pixel
/// `sample_bilinear`. The gxx/gxy/gyy and bx/by/residual
/// reductions below always run scalar in raster order, so the accumulated
/// sums are bit-identical across every ISA tier (DESIGN.md §14).
template <int kRadius>
void track_point(const ImagePyramid& prev, const ImagePyramid& next, int levels,
                 const LucasKanadeParams& params, const simd::SimdOps& ops,
                 const geometry::Point2f& p0, const LkScratch& s,
                 LkWindowCounts& counts, geometry::Point2f& out_point,
                 FlowStatus& out_status) {
  const int r = kRadius >= 0 ? kRadius : params.window_radius;
  const float window_count = static_cast<float>((2 * r + 1) * (2 * r + 1));
  const std::size_t window_pixels = static_cast<std::size_t>((2 * r + 1)) *
                                    static_cast<std::size_t>(2 * r + 1);

  geometry::Point2f g{0.0f, 0.0f};  // flow guess carried across levels
  bool ok = true;
  float residual = 0.0f;

  for (int level = levels - 1; level >= 0; --level) {
    const ImageF32& I = prev.level(level);
    const ImageF32& J = next.level(level);
    const float scale = 1.0f / static_cast<float>(1 << level);
    const geometry::Point2f p{p0.x * scale, p0.y * scale};

    // Structure tensor of the previous image around p, plus per-pixel
    // gradients cached for the iterative update.
    TapSource src{};
    if (!tap_source(I, p.x, p.y, r + 2, s.tile, src)) {
      ok = false;
      break;
    }
    if (offsets_exact(p.x, r + 1) && offsets_exact(p.y, r + 1)) {
      // Every p + k is exact, so the gradient taps p + k ± 1 are grid
      // taps too: sample the (2r+3)^2 grid once and take values and
      // central differences from it (same coordinates, same floats).
      const int n = 2 * r + 3;
      ops.lk_sample_patch(src.pix, src.stride, src.ox, src.oy, p.x, p.y, r + 1,
                          s.grid);
      std::size_t idx = 0;
      for (int j = 1; j < n - 1; ++j) {
        const float* up = s.grid + static_cast<std::size_t>(j - 1) * n;
        const float* row = up + n;
        const float* down = row + n;
        for (int i = 1; i < n - 1; ++i, ++idx) {
          s.ivals[idx] = row[i];
          s.ixs[idx] = (row[i + 1] - row[i - 1]) * 0.5f;
          s.iys[idx] = (down[i] - up[i]) * 0.5f;
        }
      }
      ++counts.grid;
    } else {
      ops.lk_sample_window(src.pix, src.stride, src.ox, src.oy, p.x, p.y, r,
                           s.ivals, s.ixs, s.iys);
      ++counts.sampled;
    }
    GradientWindow gw;
    for (std::size_t idx = 0; idx < window_pixels; ++idx) {
      const float ix = s.ixs[idx];
      const float iy = s.iys[idx];
      gw.gxx += ix * ix;
      gw.gxy += ix * iy;
      gw.gyy += iy * iy;
    }
    const float tr = 0.5f * (gw.gxx + gw.gyy);
    const float det = gw.gxx * gw.gyy - gw.gxy * gw.gxy;
    const float min_eig =
        (tr - std::sqrt(std::max(0.0f, tr * tr - det))) / window_count;
    if (min_eig < params.min_eigen_threshold || det <= 0.0f) {
      ok = false;
      break;
    }

    // Iterative Newton refinement of the flow at this level.
    geometry::Point2f nu{0.0f, 0.0f};
    for (int iter = 0; iter < params.max_iterations; ++iter) {
      const float base_x = p.x + g.x + nu.x;
      const float base_y = p.y + g.y + nu.y;
      if (!tap_source(J, base_x, base_y, r + 1, s.tile, src)) {
        ok = false;
        break;
      }
      ops.lk_sample_patch(src.pix, src.stride, src.ox, src.oy, base_x, base_y,
                          r, s.jvals);
      float bx = 0.0f;
      float by = 0.0f;
      residual = 0.0f;
      for (std::size_t idx = 0; idx < window_pixels; ++idx) {
        const float diff = s.ivals[idx] - s.jvals[idx];
        bx += diff * s.ixs[idx];
        by += diff * s.iys[idx];
        residual += std::abs(diff);
      }
      const float vx = (gw.gyy * bx - gw.gxy * by) / det;
      const float vy = (gw.gxx * by - gw.gxy * bx) / det;
      nu += {vx, vy};
      if (std::sqrt(vx * vx + vy * vy) < params.epsilon) break;
    }
    // A diverged last update is dropped with the rest of this level, so the
    // point keeps its last finite estimate.
    if (!ok || !in_coordinate_range(p.x + g.x + nu.x, p.y + g.y + nu.y)) {
      ok = false;
      break;
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

using TrackPointFn = void (*)(const ImagePyramid&, const ImagePyramid&, int,
                              const LucasKanadeParams&, const simd::SimdOps&,
                              const geometry::Point2f&, const LkScratch&,
                              LkWindowCounts&, geometry::Point2f&, FlowStatus&);

TrackPointFn select_track_fn(int radius) {
  switch (radius) {
    case 3:
      return &track_point<3>;
    case 5:
      return &track_point<5>;
    case 7:  // the default window — fully unrolled fast path
      return &track_point<7>;
    default:
      return &track_point<-1>;
  }
}

}  // namespace

void calc_optical_flow_pyr_lk(const ImagePyramid& prev, const ImagePyramid& next,
                              const std::vector<geometry::Point2f>& points,
                              std::vector<geometry::Point2f>& out_points,
                              std::vector<FlowStatus>& out_status,
                              const LucasKanadeParams& params,
                              const KernelConfig& kernels) {
  out_points.assign(points.size(), {});
  out_status.assign(points.size(), {});
  if (prev.empty() || next.empty()) return;

  obs::ScopedSpan span("lk_flow", "vision",
                       static_cast<std::int64_t>(points.size()), "points");
  const int levels = std::min(prev.levels(), next.levels());
  const std::size_t window_count = static_cast<std::size_t>(
      (2 * params.window_radius + 1) * (2 * params.window_radius + 1));
  const std::size_t grid_count = static_cast<std::size_t>(
      (2 * params.window_radius + 3) * (2 * params.window_radius + 3));
  const std::size_t tile_count = static_cast<std::size_t>(
      (2 * params.window_radius + 7) * (2 * params.window_radius + 7));
  const TrackPointFn track = select_track_fn(params.window_radius);
  const simd::SimdOps& ops = simd::ops_for(kernels);
  std::atomic<std::uint64_t> grid_windows{0};
  std::atomic<std::uint64_t> sampled_windows{0};

  parallel_points(static_cast<int>(points.size()), kernels, [&](int i0, int i1) {
    // Per-thread window caches, tap grid and border tile, reused across
    // every point and level in the chunk — the hot loop never touches the
    // heap.
    util::ScratchArena& arena = util::ScratchArena::thread_local_arena();
    util::ScratchArena::Scope scope(arena);
    const LkScratch scratch{arena.alloc_aligned<float>(window_count, 32),
                            arena.alloc_aligned<float>(window_count, 32),
                            arena.alloc_aligned<float>(window_count, 32),
                            arena.alloc_aligned<float>(window_count, 32),
                            arena.alloc_aligned<float>(grid_count, 32),
                            arena.alloc_aligned<float>(tile_count, 32)};
    LkWindowCounts counts;
    for (int i = i0; i < i1; ++i) {
      track(prev, next, levels, params, ops, points[static_cast<std::size_t>(i)],
            scratch, counts, out_points[static_cast<std::size_t>(i)],
            out_status[static_cast<std::size_t>(i)]);
    }
    grid_windows.fetch_add(counts.grid, std::memory_order_relaxed);
    sampled_windows.fetch_add(counts.sampled, std::memory_order_relaxed);
  });
  if (obs::Telemetry::enabled()) {
    obs::MetricsRegistry& reg = obs::metrics();
    reg.counter("lk", "grid_windows").add(grid_windows.load());
    reg.counter("lk", "sampled_windows").add(sampled_windows.load());
  }
  publish_pool_metrics();
}

}  // namespace adavp::vision
