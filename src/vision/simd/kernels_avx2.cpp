// AVX2 tier: 8-wide vectorization of the interior kernels, one lane per
// output element, plus gathered bilinear sampling for the two LK hot
// loops. Per-lane operation order mirrors the scalar reference exactly
// (kernels_ref.h), and all loop-carried reductions (LK's gxx/bx/residual
// accumulations) stay with the scalar caller, so every result is
// bit-identical to the reference — see DESIGN.md §14 for the
// lane-reduction rules. A window row that is not a multiple of 8 wide ends
// with a full group shifted left to end at its last tap (it rewrites the
// overlapped taps with the same bits); rows narrower than 8 use masked
// gathers and masked stores, whose off lanes never touch memory.
//
// Built with -mavx2 -ffp-contract=off (never -mfma): contraction would
// fuse the mul/add chains into FMAs and change the low bits. On targets
// without AVX2 support this file compiles to the nullptr stub.

#include "vision/simd/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include "vision/simd/kernels_ref.h"

namespace adavp::vision::simd {
namespace {

inline __m256 smooth_combine(const float* a, const float* b, const float* c,
                             int i, __m256 two, __m256 four) {
  const __m256 av = _mm256_loadu_ps(a + i);
  const __m256 bv = _mm256_loadu_ps(b + i);
  const __m256 cv = _mm256_loadu_ps(c + i);
  return _mm256_div_ps(
      _mm256_add_ps(_mm256_add_ps(av, _mm256_mul_ps(two, bv)), cv), four);
}

void filter_row_avx2(const float* src, float* dst, int x0, int x1,
                     const float* kernel, int radius, float norm) {
  const __m256 vnorm = _mm256_set1_ps(norm);
  int x = x0;
  for (; x + 8 <= x1; x += 8) {
    __m256 acc = _mm256_setzero_ps();
    for (int k = -radius; k <= radius; ++k) {
      const __m256 kv = _mm256_set1_ps(kernel[k + radius]);
      acc = _mm256_add_ps(acc, _mm256_mul_ps(kv, _mm256_loadu_ps(src + x + k)));
    }
    _mm256_storeu_ps(dst + x, _mm256_div_ps(acc, vnorm));
  }
  ref::filter_row(src, dst, x, x1, kernel, radius, norm);
}

void filter_col_avx2(const float* center, std::ptrdiff_t stride, float* dst,
                     int w, const float* kernel, int radius, float norm) {
  const __m256 vnorm = _mm256_set1_ps(norm);
  int x = 0;
  for (; x + 8 <= w; x += 8) {
    __m256 acc = _mm256_setzero_ps();
    for (int k = -radius; k <= radius; ++k) {
      const __m256 kv = _mm256_set1_ps(kernel[k + radius]);
      acc = _mm256_add_ps(
          acc, _mm256_mul_ps(kv, _mm256_loadu_ps(center + k * stride + x)));
    }
    _mm256_storeu_ps(dst + x, _mm256_div_ps(acc, vnorm));
  }
  ref::filter_col(center + x, stride, dst + x, w - x, kernel, radius, norm);
}

void sobel_row_avx2(const float* rm, const float* rc, const float* rp,
                    float* gx, float* gy, int w) {
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 eight = _mm256_set1_ps(8.0f);
  int x = 1;
  for (; x + 8 <= w - 1; x += 8) {
    const __m256 tl = _mm256_loadu_ps(rm + x - 1);
    const __m256 tc = _mm256_loadu_ps(rm + x);
    const __m256 tr = _mm256_loadu_ps(rm + x + 1);
    const __m256 ml = _mm256_loadu_ps(rc + x - 1);
    const __m256 mr = _mm256_loadu_ps(rc + x + 1);
    const __m256 bl = _mm256_loadu_ps(rp + x - 1);
    const __m256 bc = _mm256_loadu_ps(rp + x);
    const __m256 br = _mm256_loadu_ps(rp + x + 1);
    const __m256 gxp = _mm256_add_ps(_mm256_add_ps(tr, _mm256_mul_ps(two, mr)), br);
    const __m256 gxn = _mm256_add_ps(_mm256_add_ps(tl, _mm256_mul_ps(two, ml)), bl);
    const __m256 gyp = _mm256_add_ps(_mm256_add_ps(bl, _mm256_mul_ps(two, bc)), br);
    const __m256 gyn = _mm256_add_ps(_mm256_add_ps(tl, _mm256_mul_ps(two, tc)), tr);
    _mm256_storeu_ps(gx + x, _mm256_div_ps(_mm256_sub_ps(gxp, gxn), eight));
    _mm256_storeu_ps(gy + x, _mm256_div_ps(_mm256_sub_ps(gyp, gyn), eight));
  }
  if (x < w - 1) {
    ref::sobel_row(rm + x - 1, rc + x - 1, rp + x - 1, gx + x - 1, gy + x - 1,
                   w - x + 1);
  }
}

void downsample_row_avx2(const float* ta, const float* tb, const float* tc,
                         const float* b0, const float* b1, const float* b2,
                         float* dst, int x_end) {
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 four = _mm256_set1_ps(4.0f);
  // After shuffle_ps(lo, hi, 0x88/0xDD) the even/odd source columns sit in
  // 128-bit-lane-interleaved order; this permute restores ascending order.
  const __m256i fix = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
  int x = 0;
  for (; x + 8 <= x_end; x += 8) {
    const int sx = 2 * x;
    const __m256 t_lo = smooth_combine(ta, tb, tc, sx, two, four);
    const __m256 t_hi = smooth_combine(ta, tb, tc, sx + 8, two, four);
    const __m256 u_lo = smooth_combine(b0, b1, b2, sx, two, four);
    const __m256 u_hi = smooth_combine(b0, b1, b2, sx + 8, two, four);
    const __m256 s00 = _mm256_permutevar8x32_ps(
        _mm256_shuffle_ps(t_lo, t_hi, _MM_SHUFFLE(2, 0, 2, 0)), fix);
    const __m256 s10 = _mm256_permutevar8x32_ps(
        _mm256_shuffle_ps(t_lo, t_hi, _MM_SHUFFLE(3, 1, 3, 1)), fix);
    const __m256 s01 = _mm256_permutevar8x32_ps(
        _mm256_shuffle_ps(u_lo, u_hi, _MM_SHUFFLE(2, 0, 2, 0)), fix);
    const __m256 s11 = _mm256_permutevar8x32_ps(
        _mm256_shuffle_ps(u_lo, u_hi, _MM_SHUFFLE(3, 1, 3, 1)), fix);
    const __m256 sum =
        _mm256_add_ps(_mm256_add_ps(_mm256_add_ps(s00, s10), s01), s11);
    _mm256_storeu_ps(dst + x, _mm256_div_ps(sum, four));
  }
  ref::downsample_row(ta + 2 * x, tb + 2 * x, tc + 2 * x, b0 + 2 * x,
                      b1 + 2 * x, b2 + 2 * x, dst + x, x_end - x);
}

void min_eig_row_avx2(const float* gxp, const float* gyp, int w, int y,
                      int radius, float* dst, int x0, int x1) {
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 zero = _mm256_setzero_ps();
  float* drow = dst + static_cast<std::size_t>(y) * w;
  int x = x0;
  for (; x + 8 <= x1; x += 8) {
    __m256 sxx = zero;
    __m256 sxy = zero;
    __m256 syy = zero;
    for (int dy = -radius; dy <= radius; ++dy) {
      const std::size_t row = static_cast<std::size_t>(y + dy) * w;
      for (int dx = -radius; dx <= radius; ++dx) {
        const __m256 ix = _mm256_loadu_ps(gxp + row + x + dx);
        const __m256 iy = _mm256_loadu_ps(gyp + row + x + dx);
        sxx = _mm256_add_ps(sxx, _mm256_mul_ps(ix, ix));
        sxy = _mm256_add_ps(sxy, _mm256_mul_ps(ix, iy));
        syy = _mm256_add_ps(syy, _mm256_mul_ps(iy, iy));
      }
    }
    const __m256 tr = _mm256_mul_ps(half, _mm256_add_ps(sxx, syy));
    const __m256 det =
        _mm256_sub_ps(_mm256_mul_ps(sxx, syy), _mm256_mul_ps(sxy, sxy));
    // max(s, 0) with s first returns +0 for NaN or negative s, matching
    // std::max(0.0f, s); sqrtps is correctly rounded like std::sqrt.
    const __m256 disc = _mm256_sqrt_ps(
        _mm256_max_ps(_mm256_sub_ps(_mm256_mul_ps(tr, tr), det), zero));
    _mm256_storeu_ps(drow + x, _mm256_sub_ps(tr, disc));
  }
  ref::min_eig_row(gxp, gyp, w, y, radius, dst, x, x1);
}

// ---- LK sampling ---------------------------------------------------------

/// Lane indices 0..7. Function-local so no AVX2 instruction ever runs in a
/// static initializer on hosts whose CPU lacks AVX2 (the whole TU is built
/// with -mavx2; only the dispatcher may decide to call into it).
inline __m256i lane_index() {
  return _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
}

/// Shared tail of the bilinear sample: per-lane lerp in the exact operand
/// order of ref::bilinear_unchecked, so identical corner values + identical
/// fx/fy give identical bits no matter how the corners were fetched.
inline __m256 bilerp8(__m256 p00, __m256 p10, __m256 p01, __m256 p11,
                      __m256 fx, float fy) {
  const __m256 top = _mm256_add_ps(p00, _mm256_mul_ps(fx, _mm256_sub_ps(p10, p00)));
  const __m256 bot = _mm256_add_ps(p01, _mm256_mul_ps(fx, _mm256_sub_ps(p11, p01)));
  return _mm256_add_ps(
      top, _mm256_mul_ps(_mm256_set1_ps(fy), _mm256_sub_ps(bot, top)));
}

/// Bilinear sample of up to 8 absolute x-positions sharing one y, read
/// from the block `pix` (row stride `w`, first pixel (ox, oy)). Mirrors
/// ref::bilinear_unchecked per lane: the integer part is the floor (so
/// negative tile coordinates work), fx subtracts the converted integer
/// exactly as the reference does, and the lerp operand order is
/// identical. `mask` lanes that are off never gather (no memory access).
inline __m256 bilinear8(const float* pix, int w, int ox, int oy, __m256 xv,
                        float y, __m256 mask) {
  const __m256i x0i = _mm256_cvtps_epi32(_mm256_floor_ps(xv));
  const int y0 = ref::floor_to_int(y);
  const __m256 fx = _mm256_sub_ps(xv, _mm256_cvtepi32_ps(x0i));
  const float fy = y - static_cast<float>(y0);
  const __m256i base =
      _mm256_add_epi32(x0i, _mm256_set1_epi32((y0 - oy) * w - ox));
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i vw = _mm256_set1_epi32(w);
  const __m256 zero = _mm256_setzero_ps();
  const __m256 p00 = _mm256_mask_i32gather_ps(zero, pix, base, mask, 4);
  const __m256 p10 = _mm256_mask_i32gather_ps(
      zero, pix, _mm256_add_epi32(base, one), mask, 4);
  const __m256i basew = _mm256_add_epi32(base, vw);
  const __m256 p01 = _mm256_mask_i32gather_ps(zero, pix, basew, mask, 4);
  const __m256 p11 = _mm256_mask_i32gather_ps(
      zero, pix, _mm256_add_epi32(basew, one), mask, 4);
  return bilerp8(p00, p10, p01, p11, fx, fy);
}

/// Full-group (8 live lanes) bilinear sample. The lanes' x coordinates are
/// px plus eight consecutive integers, so after the floor the fetch
/// columns are *usually* x0, x0+1, ..., x0+7 — four unaligned loads
/// instead of four (slow) gathers. "Usually" because float rounding of
/// px + k near an integer boundary can make adjacent lanes floor
/// non-consecutively; the cmpeq check catches that and falls back to the
/// gather path, keeping the fetched addresses — and therefore the bits —
/// exactly what the scalar reference touches. fx/fy come from the same
/// per-lane arithmetic on either path.
inline __m256 bilinear8_full(const float* pix, int w, int ox, int oy,
                             __m256 xv, float y) {
  const __m256i x0i = _mm256_cvtps_epi32(_mm256_floor_ps(xv));
  const __m256i lane = lane_index();
  const int first = _mm_cvtsi128_si32(_mm256_castsi256_si128(x0i));
  const __m256i consec =
      _mm256_cmpeq_epi32(x0i, _mm256_add_epi32(_mm256_set1_epi32(first), lane));
  if (_mm256_movemask_ps(_mm256_castsi256_ps(consec)) != 0xFF) {
    return bilinear8(pix, w, ox, oy, xv, y,
                     _mm256_castsi256_ps(_mm256_set1_epi32(-1)));
  }
  const int y0 = ref::floor_to_int(y);
  const __m256 fx = _mm256_sub_ps(xv, _mm256_cvtepi32_ps(x0i));
  const float fy = y - static_cast<float>(y0);
  const float* base =
      pix + static_cast<std::ptrdiff_t>(y0 - oy) * w + (first - ox);
  const __m256 p00 = _mm256_loadu_ps(base);
  const __m256 p10 = _mm256_loadu_ps(base + 1);
  const __m256 p01 = _mm256_loadu_ps(base + w);
  const __m256 p11 = _mm256_loadu_ps(base + w + 1);
  return bilerp8(p00, p10, p01, p11, fx, fy);
}

/// Lane x offsets of the 8-tap groups covering a (2r+1)-wide window row,
/// in the order the samplers visit them: -r, -r+8, ... and, when the row
/// is not a multiple of 8 wide, a last group shifted left to end at +r.
/// A shifted group re-samples taps the previous group already wrote, at
/// the same per-tap coordinates, so it stores the same bits over them.
/// Rows narrower than 8 (r <= 3) take one masked group instead.
inline int next_group(int wx, int r) { return wx + 8 <= r - 7 ? wx + 8 : r - 7; }

/// sx per lane = px + (float)(wx + lane), the same int->float cast and
/// single add as the scalar loop.
inline __m256 lane_coords(float px, int wx) {
  return _mm256_add_ps(
      _mm256_set1_ps(px),
      _mm256_cvtepi32_ps(_mm256_add_epi32(_mm256_set1_epi32(wx), lane_index())));
}

void lk_sample_window_avx2(const float* pix, int w, int ox, int oy, float px,
                           float py, int r, float* ivals, float* ixs,
                           float* iys) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const int n = 2 * r + 1;
  for (int wy = -r; wy <= r; ++wy) {
    const float sy = py + static_cast<float>(wy);
    const std::size_t row = static_cast<std::size_t>(wy + r) * n;
    if (n < 8) {
      const __m256i maski =
          _mm256_cmpgt_epi32(_mm256_set1_epi32(n), lane_index());
      const __m256 mask = _mm256_castsi256_ps(maski);
      const __m256 xv = lane_coords(px, -r);
      const __m256 v = bilinear8(pix, w, ox, oy, xv, sy, mask);
      const __m256 ix = _mm256_mul_ps(
          _mm256_sub_ps(
              bilinear8(pix, w, ox, oy, _mm256_add_ps(xv, one), sy, mask),
              bilinear8(pix, w, ox, oy, _mm256_sub_ps(xv, one), sy, mask)),
          half);
      const __m256 iy = _mm256_mul_ps(
          _mm256_sub_ps(bilinear8(pix, w, ox, oy, xv, sy + 1.0f, mask),
                        bilinear8(pix, w, ox, oy, xv, sy - 1.0f, mask)),
          half);
      _mm256_maskstore_ps(ivals + row, maski, v);
      _mm256_maskstore_ps(ixs + row, maski, ix);
      _mm256_maskstore_ps(iys + row, maski, iy);
      continue;
    }
    for (int wx = -r;; wx = next_group(wx, r)) {
      const __m256 xv = lane_coords(px, wx);
      const __m256 v = bilinear8_full(pix, w, ox, oy, xv, sy);
      const __m256 ix = _mm256_mul_ps(
          _mm256_sub_ps(
              bilinear8_full(pix, w, ox, oy, _mm256_add_ps(xv, one), sy),
              bilinear8_full(pix, w, ox, oy, _mm256_sub_ps(xv, one), sy)),
          half);
      const __m256 iy = _mm256_mul_ps(
          _mm256_sub_ps(bilinear8_full(pix, w, ox, oy, xv, sy + 1.0f),
                        bilinear8_full(pix, w, ox, oy, xv, sy - 1.0f)),
          half);
      const std::size_t idx = row + static_cast<std::size_t>(wx + r);
      _mm256_storeu_ps(ivals + idx, v);
      _mm256_storeu_ps(ixs + idx, ix);
      _mm256_storeu_ps(iys + idx, iy);
      if (wx == r - 7) break;
    }
  }
}

void lk_sample_patch_avx2(const float* pix, int w, int ox, int oy,
                          float base_x, float base_y, int r, float* jvals) {
  const int n = 2 * r + 1;
  for (int wy = -r; wy <= r; ++wy) {
    const float jy = base_y + static_cast<float>(wy);
    const std::size_t row = static_cast<std::size_t>(wy + r) * n;
    if (n < 8) {
      const __m256i maski =
          _mm256_cmpgt_epi32(_mm256_set1_epi32(n), lane_index());
      const __m256 v = bilinear8(pix, w, ox, oy, lane_coords(base_x, -r), jy,
                                 _mm256_castsi256_ps(maski));
      _mm256_maskstore_ps(jvals + row, maski, v);
      continue;
    }
    for (int wx = -r;; wx = next_group(wx, r)) {
      _mm256_storeu_ps(jvals + row + static_cast<std::size_t>(wx + r),
                       bilinear8_full(pix, w, ox, oy, lane_coords(base_x, wx), jy));
      if (wx == r - 7) break;
    }
  }
}

}  // namespace

const SimdOps* avx2_ops() {
  static const SimdOps ops = {
      Isa::kAvx2,          filter_row_avx2,  filter_col_avx2,
      sobel_row_avx2,      downsample_row_avx2, min_eig_row_avx2,
      lk_sample_window_avx2, lk_sample_patch_avx2,
  };
  return &ops;
}

}  // namespace adavp::vision::simd

#else  // !defined(__AVX2__)

namespace adavp::vision::simd {
const SimdOps* avx2_ops() { return nullptr; }
}  // namespace adavp::vision::simd

#endif
