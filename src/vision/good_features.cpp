#include "vision/good_features.h"

#include <algorithm>
#include <cmath>

#include "util/scratch_arena.h"
#include "vision/image_ops.h"
#include "vision/simd/dispatch.h"
#include "vision/simd/kernels_ref.h"

namespace adavp::vision {

namespace {

/// Gradient planes in a row-major block of row stride `stride` whose first
/// element is image pixel (ox, oy): the full image (origin 0, 0) or the
/// bounding rectangle of a span region. Element (x, y) sits at index
/// (y - oy) * stride + (x - ox).
struct GradientBlock {
  const float* gx;
  const float* gy;
  int stride;
  int ox;
  int oy;

  std::ptrdiff_t index(int x, int y) const {
    return static_cast<std::ptrdiff_t>(y - oy) * stride + (x - ox);
  }
};

/// Clamped (border) Shi-Tomasi score for one pixel of a w x h image — the
/// reference loop for every position whose block window touches an image
/// edge.
float min_eig_clamped(const GradientBlock& g, int w, int h, int x, int y,
                      int radius) {
  float sxx = 0.0f;
  float sxy = 0.0f;
  float syy = 0.0f;
  for (int dy = -radius; dy <= radius; ++dy) {
    const int cy = std::clamp(y + dy, 0, h - 1);
    for (int dx = -radius; dx <= radius; ++dx) {
      const std::ptrdiff_t i = g.index(std::clamp(x + dx, 0, w - 1), cy);
      const float ix = g.gx[i];
      const float iy = g.gy[i];
      sxx += ix * ix;
      sxy += ix * iy;
      syy += iy * iy;
    }
  }
  return simd::ref::min_eig_from_tensor(sxx, sxy, syy);
}

/// Shi-Tomasi scores of row y, columns [x0, x1), of a w x h image into
/// `dst` (laid out like `g`). Windows that never clamp run the dispatched
/// `min_eig_row`, the rest the clamped loop; the split depends only on the
/// image position, so a span gives the floats of the full map.
void score_span(const GradientBlock& g, float* dst, int w, int h, int radius,
                int y, int x0, int x1, const simd::SimdOps& ops) {
  const std::ptrdiff_t row = g.index(0, y);
  const auto clamped = [&](int xa, int xb) {
    for (int x = xa; x < xb; ++x) {
      dst[row + x] = min_eig_clamped(g, w, h, x, y, radius);
    }
  };
  if (y < radius || y >= h - radius) {
    clamped(x0, x1);
    return;
  }
  const int interior_begin = std::min(radius, w);
  const int interior_end = std::max(interior_begin, w - radius);
  const int lo = std::clamp(interior_begin, x0, x1);
  const int hi = std::clamp(interior_end, lo, x1);
  clamped(x0, lo);
  if (hi > lo) {
    ops.min_eig_row(g.gx, g.gy, g.stride, y - g.oy, radius, dst, lo - g.ox,
                    hi - g.ox);
  }
  clamped(hi, x1);
}

/// First span of `spans` (sorted by y) on row y or later.
const RowSpan* first_span_from(const RowSpan* spans, std::size_t n, int y) {
  return std::lower_bound(
      spans, spans + n, y,
      [](const RowSpan& s, int row) { return s.y < row; });
}

/// Writes `in` (n spans, sorted by (y, x0), disjoint) dilated by `d` px
/// along both axes — a (2d+1)^2 square — and clipped to the w x h image
/// into `out`, again sorted and disjoint. `out` must hold n * (2d + 1)
/// spans and `tmp` n. Returns the count written.
std::size_t dilate_spans(const RowSpan* in, std::size_t n, int d, int w, int h,
                         RowSpan* out, RowSpan* tmp) {
  if (n == 0) return 0;
  std::size_t count = 0;
  std::size_t first = 0;  // first input span with in.y >= y - d
  const int y_end = std::min(h, in[n - 1].y + d + 1);
  for (int y = std::max(0, in[0].y - d); y < y_end; ++y) {
    while (first < n && in[first].y < y - d) ++first;
    std::size_t k = 0;
    for (std::size_t i = first; i < n && in[i].y <= y + d; ++i) {
      tmp[k++] = {y, std::max(in[i].x0 - d, 0), std::min(in[i].x1 + d, w)};
    }
    std::sort(tmp, tmp + k,
              [](const RowSpan& a, const RowSpan& b) { return a.x0 < b.x0; });
    const std::size_t row_first = count;
    for (std::size_t i = 0; i < k; ++i) {
      if (count > row_first && tmp[i].x0 <= out[count - 1].x1) {
        out[count - 1].x1 = std::max(out[count - 1].x1, tmp[i].x1);
      } else {
        out[count++] = tmp[i];
      }
    }
  }
  return count;
}

/// Spans of the non-zero pixels of `mask`, within a w x h image.
std::vector<RowSpan> mask_spans(const ImageU8& mask, int w, int h) {
  std::vector<RowSpan> spans;
  const int mw = std::min(w, mask.width());
  for (int y = 0; y < std::min(h, mask.height()); ++y) {
    int x = 0;
    while (x < mw) {
      while (x < mw && mask.at(x, y) == 0) ++x;
      const int x0 = x;
      while (x < mw && mask.at(x, y) != 0) ++x;
      if (x > x0) spans.push_back({y, x0, x});
    }
  }
  return spans;
}

/// Pixel rectangle [x0, x1) x [y0, y1) that `boxes_mask` fills for one box.
struct PixelRect {
  int x0;
  int y0;
  int x1;
  int y1;
};

/// False when the (shrunk, clamped) box covers no pixel.
bool box_pixels(const geometry::Size& size, geometry::BoundingBox box,
                float shrink, PixelRect& rect) {
  if (shrink > 0.0f) {
    box = {box.left + shrink, box.top + shrink, box.width - 2.0f * shrink,
           box.height - 2.0f * shrink};
  }
  box = geometry::clamp_to(box, size);
  if (box.empty()) return false;
  rect.x0 = std::max(static_cast<int>(std::ceil(box.left)), 0);
  rect.y0 = std::max(static_cast<int>(std::ceil(box.top)), 0);
  rect.x1 = std::min(static_cast<int>(std::floor(box.right())), size.width);
  rect.y1 = std::min(static_cast<int>(std::floor(box.bottom())), size.height);
  return rect.x0 < rect.x1 && rect.y0 < rect.y1;
}

}  // namespace

ImageF32 min_eigenvalue_map(const ImageF32& img, int block_size,
                            const KernelConfig& config) {
  const int w = img.width();
  const int h = img.height();
  ImageF32 gx;
  ImageF32 gy;
  sobel(img, gx, gy, config);

  const int radius = std::max(1, block_size / 2);
  ImageF32 out(w, h, 0.0f);
  const GradientBlock g{gx.pixels().data(), gy.pixels().data(), w, 0, 0};
  float* dst = out.pixels().data();
  const simd::SimdOps& ops = simd::ops_for(config);
  parallel_rows(h, config, [&](int y0, int y1) {
    for (int y = y0; y < y1; ++y) score_span(g, dst, w, h, radius, y, 0, w, ops);
  });
  return out;
}

std::vector<geometry::Point2f> good_features_to_track(
    const ImageU8& img, const GoodFeaturesParams& params, const ImageU8* mask) {
  if (img.empty() || params.max_corners <= 0) return {};
  std::vector<RowSpan> spans;
  if (mask != nullptr) {
    spans = mask_spans(*mask, img.width(), img.height());
  } else {
    spans.reserve(static_cast<std::size_t>(img.height()));
    for (int y = 0; y < img.height(); ++y) spans.push_back({y, 0, img.width()});
  }
  return good_features_to_track(to_float(img, params.kernels), params, spans);
}

std::vector<geometry::Point2f> good_features_to_track(
    const ImageF32& img, const GoodFeaturesParams& params,
    const std::vector<RowSpan>& spans) {
  std::vector<geometry::Point2f> corners;
  if (img.empty() || params.max_corners <= 0 || spans.empty()) return corners;
  const int w = img.width();
  const int h = img.height();
  const int radius = std::max(1, params.block_size / 2);
  const RowSpan* mask = spans.data();
  const std::size_t n_mask = spans.size();
  const simd::SimdOps& ops = simd::ops_for(params.kernels);
  const float quality = static_cast<float>(params.quality_level);

  util::ScratchArena& arena = util::ScratchArena::thread_local_arena();
  util::ScratchArena::Scope scope(arena);

  // Scores are needed on the mask plus the one-pixel ring the 3x3
  // local-maximum test reads; gradients on that region plus the
  // structure-tensor radius.
  RowSpan* tmp = arena.alloc<RowSpan>(n_mask);
  RowSpan* score_spans = arena.alloc<RowSpan>(n_mask * 3);
  const std::size_t n_score =
      dilate_spans(mask, n_mask, 1, w, h, score_spans, tmp);
  const int reach = 1 + radius;
  RowSpan* grad_spans =
      arena.alloc<RowSpan>(n_mask * static_cast<std::size_t>(2 * reach + 1));
  const std::size_t n_grad =
      dilate_spans(mask, n_mask, reach, w, h, grad_spans, tmp);

  // Local maxima of the mask's candidate pixels, in raster order, so the
  // unstable sort below sees the full-map sequence and breaks score ties
  // the same way. The quality threshold needs the best score of the whole
  // mask, so it is applied at the end; a score below `quality` times the
  // best seen so far can never pass it and is dropped early.
  struct Candidate {
    float score;
    int x;
    int y;
  };
  std::vector<Candidate> candidates;
  float best = 0.0f;

  // Bands of kBandRows mask rows bound the scratch to a few rows of the
  // region's width however large the boxes are. A band recomputes the
  // score ring rows and gradient rows it shares with its neighbours.
  constexpr int kBandRows = 32;
  for (int ya = mask[0].y; ya <= mask[n_mask - 1].y; ya += kBandRows) {
    const int yb = ya + kBandRows;
    const RowSpan* m0 = first_span_from(mask, n_mask, ya);
    const RowSpan* m1 = first_span_from(mask, n_mask, yb);
    if (m0 == m1) continue;
    const RowSpan* s0 = first_span_from(score_spans, n_score, ya - 1);
    const RowSpan* s1 = first_span_from(score_spans, n_score, yb + 1);
    const RowSpan* g0 = first_span_from(grad_spans, n_grad, ya - 1 - radius);
    const RowSpan* g1 = first_span_from(grad_spans, n_grad, yb + 1 + radius);

    // The band's gradients and scores share one layout: the bounding
    // rectangle of its gradient spans plus one spare column on the left
    // (sobel_span addresses its SIMD row kernel from the column before
    // the first output).
    int x_lo = w;
    int x_hi = 0;
    for (const RowSpan* g = g0; g != g1; ++g) {
      x_lo = std::min(x_lo, g->x0);
      x_hi = std::max(x_hi, g->x1);
    }
    const int ox = x_lo - 1;
    const int oy = g0->y;
    const int stride = x_hi - ox;
    const std::size_t area = static_cast<std::size_t>(stride) *
                             static_cast<std::size_t>((g1 - 1)->y + 1 - oy);
    util::ScratchArena::Scope band_scope(arena);
    float* gx = arena.alloc_aligned<float>(area, 32);
    float* gy = arena.alloc_aligned<float>(area, 32);
    float* scores = arena.alloc_aligned<float>(area, 32);
    const GradientBlock g{gx, gy, stride, ox, oy};
    for (const RowSpan* sp = g0; sp != g1; ++sp) {
      const std::ptrdiff_t at = g.index(sp->x0, sp->y);
      sobel_span(img, sp->y, sp->x0, sp->x1, gx + at, gy + at, ops);
    }
    for (const RowSpan* sp = s0; sp != s1; ++sp) {
      score_span(g, scores, w, h, radius, sp->y, sp->x0, sp->x1, ops);
    }

    for (const RowSpan* sp = m0; sp != m1; ++sp) {
      const std::ptrdiff_t row = g.index(0, sp->y);
      for (int x = sp->x0; x < sp->x1; ++x) best = std::max(best, scores[row + x]);
    }
    const float drop_below = quality >= 0.0f ? quality * best : 0.0f;
    for (const RowSpan* sp = m0; sp != m1; ++sp) {
      if (sp->y < 1 || sp->y >= h - 1) continue;
      const std::ptrdiff_t row = g.index(0, sp->y);
      for (int x = std::max(sp->x0, 1); x < std::min(sp->x1, w - 1); ++x) {
        const float v = scores[row + x];
        if (quality >= 0.0f && v < drop_below) continue;
        bool is_max = true;
        for (int dy = -1; dy <= 1 && is_max; ++dy) {
          for (int dx = -1; dx <= 1; ++dx) {
            if (dx == 0 && dy == 0) continue;
            if (scores[row + dy * static_cast<std::ptrdiff_t>(stride) + x + dx] > v) {
              is_max = false;
              break;
            }
          }
        }
        if (is_max) candidates.push_back({v, x, sp->y});
      }
    }
  }
  if (best <= 0.0f) return corners;
  const float threshold = quality * best;
  candidates.erase(std::remove_if(candidates.begin(), candidates.end(),
                                  [threshold](const Candidate& c) {
                                    return c.score < threshold;
                                  }),
                   candidates.end());
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) { return a.score > b.score; });

  // Greedy min-distance suppression, strongest first.
  corners.reserve(std::min(static_cast<std::size_t>(params.max_corners),
                           candidates.size()));
  const float min_dist2 =
      static_cast<float>(params.min_distance * params.min_distance);
  for (const Candidate& c : candidates) {
    if (static_cast<int>(corners.size()) >= params.max_corners) break;
    bool ok = true;
    const geometry::Point2f p(static_cast<float>(c.x), static_cast<float>(c.y));
    for (const auto& kept : corners) {
      const geometry::Point2f d = kept - p;
      if (d.x * d.x + d.y * d.y < min_dist2) {
        ok = false;
        break;
      }
    }
    if (ok) corners.push_back(p);
  }
  return corners;
}

void boxes_spans(const geometry::Size& size,
                 const std::vector<geometry::BoundingBox>& boxes, float shrink,
                 std::vector<RowSpan>& out) {
  out.clear();
  util::ScratchArena& arena = util::ScratchArena::thread_local_arena();
  util::ScratchArena::Scope scope(arena);
  PixelRect* rects = arena.alloc<PixelRect>(boxes.size());
  std::size_t n = 0;
  int y_begin = size.height;
  int y_end = 0;
  for (const auto& box : boxes) {
    if (!box_pixels(size, box, shrink, rects[n])) continue;
    y_begin = std::min(y_begin, rects[n].y0);
    y_end = std::max(y_end, rects[n].y1);
    ++n;
  }
  // Sorted by left edge, each row's covering rectangles merge left to
  // right into disjoint spans.
  std::sort(rects, rects + n,
            [](const PixelRect& a, const PixelRect& b) { return a.x0 < b.x0; });
  for (int y = y_begin; y < y_end; ++y) {
    const std::size_t row_first = out.size();
    for (std::size_t i = 0; i < n; ++i) {
      const PixelRect& r = rects[i];
      if (y < r.y0 || y >= r.y1) continue;
      if (out.size() > row_first && r.x0 <= out.back().x1) {
        out.back().x1 = std::max(out.back().x1, r.x1);
      } else {
        out.push_back({y, r.x0, r.x1});
      }
    }
  }
}

ImageU8 boxes_mask(const geometry::Size& size,
                   const std::vector<geometry::BoundingBox>& boxes,
                   float shrink) {
  ImageU8 mask(size.width, size.height, 0);
  std::vector<RowSpan> spans;
  boxes_spans(size, boxes, shrink, spans);
  for (const RowSpan& s : spans) {
    std::fill(&mask.at(s.x0, s.y), &mask.at(s.x0, s.y) + (s.x1 - s.x0), 255);
  }
  return mask;
}

}  // namespace adavp::vision
