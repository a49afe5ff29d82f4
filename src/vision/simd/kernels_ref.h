#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "util/rng.h"

namespace adavp::vision::simd::ref {

// The scalar reference loops, verbatim from the historical kernels. They
// are the ground truth every SIMD tier must match bit for bit: the scalar
// dispatch table points straight at them, and the SSE2/AVX2 kernels run
// them for borders and sub-vector tails. Header-inline so each per-ISA
// translation unit inlines its own copy — FP semantics are unchanged by
// the ISA -m flags because none of these loops carries a reorderable
// reduction across elements and every TU builds with contraction off.

inline void filter_row(const float* src, float* dst, int x0, int x1,
                       const float* kernel, int radius, float norm) {
  for (int x = x0; x < x1; ++x) {
    float acc = 0.0f;
    for (int k = -radius; k <= radius; ++k) {
      acc += kernel[k + radius] * src[x + k];
    }
    dst[x] = acc / norm;
  }
}

inline void filter_col(const float* center, std::ptrdiff_t stride, float* dst,
                       int w, const float* kernel, int radius, float norm) {
  for (int x = 0; x < w; ++x) {
    float acc = 0.0f;
    for (int k = -radius; k <= radius; ++k) {
      acc += kernel[k + radius] * center[k * stride + x];
    }
    dst[x] = acc / norm;
  }
}

inline void sobel_row(const float* rm, const float* rc, const float* rp,
                      float* gx, float* gy, int w) {
  for (int x = 1; x < w - 1; ++x) {
    const float tl = rm[x - 1];
    const float tc = rm[x];
    const float tr = rm[x + 1];
    const float ml = rc[x - 1];
    const float mr = rc[x + 1];
    const float bl = rp[x - 1];
    const float bc = rp[x];
    const float br = rp[x + 1];
    gx[x] = ((tr + 2.0f * mr + br) - (tl + 2.0f * ml + bl)) / 8.0f;
    gy[x] = ((bl + 2.0f * bc + br) - (tl + 2.0f * tc + tr)) / 8.0f;
  }
}

inline void downsample_row(const float* ta, const float* tb, const float* tc,
                           const float* b0, const float* b1, const float* b2,
                           float* dst, int x_end) {
  for (int x = 0; x < x_end; ++x) {
    const int sx = 2 * x;
    const int sxp = sx + 1;
    const float s00 = (ta[sx] + 2.0f * tb[sx] + tc[sx]) / 4.0f;
    const float s10 = (ta[sxp] + 2.0f * tb[sxp] + tc[sxp]) / 4.0f;
    const float s01 = (b0[sx] + 2.0f * b1[sx] + b2[sx]) / 4.0f;
    const float s11 = (b0[sxp] + 2.0f * b1[sxp] + b2[sxp]) / 4.0f;
    dst[x] = (s00 + s10 + s01 + s11) / 4.0f;
  }
}

/// Smaller eigenvalue of [[sxx, sxy], [sxy, syy]], exactly as the
/// historical min_eigenvalue_map computed it.
inline float min_eig_from_tensor(float sxx, float sxy, float syy) {
  const float tr = 0.5f * (sxx + syy);
  const float det = sxx * syy - sxy * sxy;
  const float disc = std::sqrt(std::max(0.0f, tr * tr - det));
  return tr - disc;
}

inline void min_eig_row(const float* gxp, const float* gyp, int w, int y,
                        int radius, float* dst, int x0, int x1) {
  for (int x = x0; x < x1; ++x) {
    float sxx = 0.0f;
    float sxy = 0.0f;
    float syy = 0.0f;
    for (int dy = -radius; dy <= radius; ++dy) {
      const std::size_t row = static_cast<std::size_t>(y + dy) * w;
      for (int dx = -radius; dx <= radius; ++dx) {
        const float ix = gxp[row + x + dx];
        const float iy = gyp[row + x + dx];
        sxx += ix * ix;
        sxy += ix * iy;
        syy += iy * iy;
      }
    }
    dst[static_cast<std::size_t>(y) * w + x] = min_eig_from_tensor(sxx, sxy, syy);
  }
}

/// floor(v) as an int, by integer truncation and one correction: exact
/// for |v| < 2^31 (the LK callers keep coordinates within ±2^20) and with
/// no libm call.
inline int floor_to_int(float v) {
  const int t = static_cast<int>(v);
  return t - (static_cast<float>(t) > v ? 1 : 0);
}

/// Bilinear sample of the absolute position (x, y) from `pix`, a row-major
/// block of row stride `w` whose first pixel is (ox, oy): the whole image
/// with origin (0, 0), or a replicate-border tile of it. No clamping — the
/// block must hold columns floor(x)-ox .. floor(x)-ox+1 and the matching
/// rows. fx/fy come from the absolute floor and the operand order matches
/// `sample_bilinear`, so the floats are identical whenever the block holds
/// the pixels `sample_bilinear` would have read.
inline float bilinear_unchecked(const float* pix, int w, int ox, int oy,
                                float x, float y) {
  const int x0 = floor_to_int(x);
  const int y0 = floor_to_int(y);
  const float fx = x - static_cast<float>(x0);
  const float fy = y - static_cast<float>(y0);
  const float* p = pix + static_cast<std::ptrdiff_t>(y0 - oy) * w + (x0 - ox);
  const float p00 = p[0];
  const float p10 = p[1];
  const float p01 = p[w];
  const float p11 = p[w + 1];
  const float top = p00 + fx * (p10 - p00);
  const float bot = p01 + fx * (p11 - p01);
  return top + fy * (bot - top);
}

inline void gradient_unchecked(const float* pix, int w, int ox, int oy, float x,
                               float y, float& dx, float& dy) {
  dx = (bilinear_unchecked(pix, w, ox, oy, x + 1.0f, y) -
        bilinear_unchecked(pix, w, ox, oy, x - 1.0f, y)) * 0.5f;
  dy = (bilinear_unchecked(pix, w, ox, oy, x, y + 1.0f) -
        bilinear_unchecked(pix, w, ox, oy, x, y - 1.0f)) * 0.5f;
}

inline void lk_sample_window(const float* pix, int w, int ox, int oy, float px,
                             float py, int r, float* ivals, float* ixs,
                             float* iys) {
  std::size_t idx = 0;
  for (int wy = -r; wy <= r; ++wy) {
    for (int wx = -r; wx <= r; ++wx, ++idx) {
      const float sx = px + static_cast<float>(wx);
      const float sy = py + static_cast<float>(wy);
      float ix = 0.0f;
      float iy = 0.0f;
      gradient_unchecked(pix, w, ox, oy, sx, sy, ix, iy);
      ivals[idx] = bilinear_unchecked(pix, w, ox, oy, sx, sy);
      ixs[idx] = ix;
      iys[idx] = iy;
    }
  }
}

inline void lk_sample_patch(const float* pix, int w, int ox, int oy,
                            float base_x, float base_y, int r, float* jvals) {
  std::size_t idx = 0;
  for (int wy = -r; wy <= r; ++wy) {
    for (int wx = -r; wx <= r; ++wx, ++idx) {
      const float jx = base_x + static_cast<float>(wx);
      const float jy = base_y + static_cast<float>(wy);
      jvals[idx] = bilinear_unchecked(pix, w, ox, oy, jx, jy);
    }
  }
}

/// Sensor noise over columns [x0, x1) of row `y`: the renderer's
/// historical per-pixel loop, with gain = 3.4f * sigma hoisted.
inline void sensor_noise_span(std::uint8_t* row, int x0, int x1,
                              std::uint64_t noise_seed, std::int64_t y,
                              float gain) {
  for (int x = x0; x < x1; ++x) {
    const float u = util::hash3_unit(noise_seed, x, y) - 0.5f;
    row[x] = static_cast<std::uint8_t>(
        std::clamp(static_cast<float>(row[x]) + gain * u, 0.0f, 255.0f));
  }
}

inline void sensor_noise_row(std::uint8_t* row, int width,
                             std::uint64_t noise_seed, std::int64_t y,
                             float gain) {
  sensor_noise_span(row, 0, width, noise_seed, y, gain);
}

}  // namespace adavp::vision::simd::ref
