#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "util/rng.h"
#include "vision/good_features.h"
#include "vision/image_ops.h"
#include "vision/simd/dispatch.h"

namespace adavp::vision {
namespace {

/// A bright square on dark background: its 4 corners are ideal Shi-Tomasi
/// features.
ImageU8 square_image(int size, int left, int top, int side) {
  ImageU8 img(size, size, 20);
  for (int y = top; y < top + side; ++y) {
    for (int x = left; x < left + side; ++x) img.at(x, y) = 220;
  }
  return img;
}

bool near_any_corner(const geometry::Point2f& p, int left, int top, int side,
                     float tol) {
  const float xs[] = {static_cast<float>(left), static_cast<float>(left + side)};
  const float ys[] = {static_cast<float>(top), static_cast<float>(top + side)};
  for (float cx : xs) {
    for (float cy : ys) {
      if (std::abs(p.x - cx) <= tol && std::abs(p.y - cy) <= tol) return true;
    }
  }
  return false;
}

TEST(MinEigenvalue, FlatImageIsZero) {
  const ImageF32 img(16, 16, 50.0f);
  const ImageF32 scores = min_eigenvalue_map(img, 3);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) EXPECT_NEAR(scores.at(x, y), 0.0f, 1e-4f);
  }
}

TEST(MinEigenvalue, EdgeScoresLowCornerScoresHigh) {
  // A vertical step edge has strong Ix but no Iy: min eigenvalue ~ 0.
  ImageF32 edge(16, 16, 0.0f);
  for (int y = 0; y < 16; ++y) {
    for (int x = 8; x < 16; ++x) edge.at(x, y) = 100.0f;
  }
  const ImageF32 edge_scores = min_eigenvalue_map(edge, 3);
  EXPECT_NEAR(edge_scores.at(8, 8), 0.0f, 1e-2f);

  // A corner (quarter-plane) has both gradients: min eigenvalue >> 0.
  ImageF32 corner(16, 16, 0.0f);
  for (int y = 8; y < 16; ++y) {
    for (int x = 8; x < 16; ++x) corner.at(x, y) = 100.0f;
  }
  const ImageF32 corner_scores = min_eigenvalue_map(corner, 3);
  EXPECT_GT(corner_scores.at(8, 8), 10.0f);
}

TEST(GoodFeatures, FindsSquareCorners) {
  const ImageU8 img = square_image(40, 10, 12, 16);
  GoodFeaturesParams params;
  params.max_corners = 8;
  params.quality_level = 0.2;
  params.min_distance = 4.0;
  const auto corners = good_features_to_track(img, params);
  ASSERT_GE(corners.size(), 4u);
  int near_corners = 0;
  for (const auto& c : corners) {
    if (near_any_corner(c, 10, 12, 16, 2.5f)) ++near_corners;
  }
  EXPECT_GE(near_corners, 4);
}

TEST(GoodFeatures, RespectsMaxCorners) {
  util::Rng rng(3);
  ImageU8 img(64, 64);
  for (auto& px : img.pixels()) {
    px = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  GoodFeaturesParams params;
  params.max_corners = 10;
  params.quality_level = 0.01;
  const auto corners = good_features_to_track(img, params);
  EXPECT_LE(corners.size(), 10u);
  EXPECT_GT(corners.size(), 0u);
}

TEST(GoodFeatures, MinDistanceEnforced) {
  util::Rng rng(4);
  ImageU8 img(64, 64);
  for (auto& px : img.pixels()) {
    px = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  GoodFeaturesParams params;
  params.max_corners = 50;
  params.min_distance = 8.0;
  const auto corners = good_features_to_track(img, params);
  for (std::size_t i = 0; i < corners.size(); ++i) {
    for (std::size_t j = i + 1; j < corners.size(); ++j) {
      EXPECT_GE((corners[i] - corners[j]).norm(), 8.0f);
    }
  }
}

TEST(GoodFeatures, MaskRestrictsDetection) {
  // Two squares; mask covers only the left one.
  ImageU8 img = square_image(64, 8, 8, 12);
  for (int y = 40; y < 52; ++y) {
    for (int x = 40; x < 52; ++x) img.at(x, y) = 220;
  }
  const ImageU8 mask = boxes_mask({64, 64}, {{4, 4, 22, 22}});
  GoodFeaturesParams params;
  params.max_corners = 20;
  params.quality_level = 0.1;
  const auto corners = good_features_to_track(img, params, &mask);
  ASSERT_FALSE(corners.empty());
  for (const auto& c : corners) {
    EXPECT_LT(c.x, 30.0f);
    EXPECT_LT(c.y, 30.0f);
  }
}

TEST(GoodFeatures, EmptyImageOrZeroBudget) {
  EXPECT_TRUE(good_features_to_track(ImageU8{}, {}).empty());
  GoodFeaturesParams params;
  params.max_corners = 0;
  EXPECT_TRUE(good_features_to_track(square_image(32, 8, 8, 10), params).empty());
}

TEST(GoodFeatures, FlatImageHasNoFeatures) {
  const ImageU8 img(32, 32, 128);
  EXPECT_TRUE(good_features_to_track(img, {}).empty());
}

// ---- Full-map oracle --------------------------------------------------------
//
// A verbatim copy of good_features_to_track as it scored the whole frame:
// convert, Sobel and Shi-Tomasi at every pixel, then the `best` scan, the
// 3x3 local-maximum test and the greedy spacing over the mask. The score map
// here is the per-pixel replicate-border formula everywhere (no interior
// split, no SIMD tier), which gives the same floats as the library's
// interior kernels, so the oracle is independent of how the library limits
// or splits its work.

ImageF32 oracle_scores(const ImageU8& img, int block_size) {
  const int w = img.width();
  const int h = img.height();
  ImageF32 f(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) f.at(x, y) = static_cast<float>(img.at(x, y));
  }
  ImageF32 gx(w, h);
  ImageF32 gy(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const float tl = f.at_clamped(x - 1, y - 1);
      const float tc = f.at_clamped(x, y - 1);
      const float tr = f.at_clamped(x + 1, y - 1);
      const float ml = f.at_clamped(x - 1, y);
      const float mr = f.at_clamped(x + 1, y);
      const float bl = f.at_clamped(x - 1, y + 1);
      const float bc = f.at_clamped(x, y + 1);
      const float br = f.at_clamped(x + 1, y + 1);
      gx.at(x, y) = ((tr + 2.0f * mr + br) - (tl + 2.0f * ml + bl)) / 8.0f;
      gy.at(x, y) = ((bl + 2.0f * bc + br) - (tl + 2.0f * tc + tr)) / 8.0f;
    }
  }
  const int radius = std::max(1, block_size / 2);
  ImageF32 scores(w, h, 0.0f);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      float sxx = 0.0f;
      float sxy = 0.0f;
      float syy = 0.0f;
      for (int dy = -radius; dy <= radius; ++dy) {
        for (int dx = -radius; dx <= radius; ++dx) {
          const float ix = gx.at_clamped(x + dx, y + dy);
          const float iy = gy.at_clamped(x + dx, y + dy);
          sxx += ix * ix;
          sxy += ix * iy;
          syy += iy * iy;
        }
      }
      const float tr = 0.5f * (sxx + syy);
      const float det = sxx * syy - sxy * sxy;
      const float disc = std::sqrt(std::max(0.0f, tr * tr - det));
      scores.at(x, y) = tr - disc;
    }
  }
  return scores;
}

std::vector<geometry::Point2f> oracle_good_features(
    const ImageU8& img, const GoodFeaturesParams& params, const ImageU8* mask) {
  std::vector<geometry::Point2f> corners;
  if (img.empty() || params.max_corners <= 0) return corners;

  const ImageF32 scores = oracle_scores(img, params.block_size);

  float best = 0.0f;
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      if (mask != nullptr && mask->at(x, y) == 0) continue;
      best = std::max(best, scores.at(x, y));
    }
  }
  if (best <= 0.0f) return corners;
  const float threshold = static_cast<float>(params.quality_level) * best;

  struct Candidate {
    float score;
    int x;
    int y;
  };
  std::vector<Candidate> candidates;
  for (int y = 1; y < img.height() - 1; ++y) {
    for (int x = 1; x < img.width() - 1; ++x) {
      if (mask != nullptr && mask->at(x, y) == 0) continue;
      const float s = scores.at(x, y);
      if (s < threshold) continue;
      bool is_max = true;
      for (int dy = -1; dy <= 1 && is_max; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          if (dx == 0 && dy == 0) continue;
          if (scores.at_clamped(x + dx, y + dy) > s) {
            is_max = false;
            break;
          }
        }
      }
      if (is_max) candidates.push_back({s, x, y});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) { return a.score > b.score; });

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

/// A verbatim copy of boxes_mask as it rasterized boxes pixel by pixel.
ImageU8 oracle_boxes_mask(const geometry::Size& size,
                          const std::vector<geometry::BoundingBox>& boxes,
                          float shrink) {
  ImageU8 mask(size.width, size.height, 0);
  for (const auto& raw : boxes) {
    geometry::BoundingBox box = raw;
    if (shrink > 0.0f) {
      box = {box.left + shrink, box.top + shrink,
             box.width - 2.0f * shrink, box.height - 2.0f * shrink};
    }
    box = geometry::clamp_to(box, size);
    if (box.empty()) continue;
    const int x0 = static_cast<int>(std::ceil(box.left));
    const int y0 = static_cast<int>(std::ceil(box.top));
    const int x1 = static_cast<int>(std::floor(box.right()));
    const int y1 = static_cast<int>(std::floor(box.bottom()));
    for (int y = y0; y < y1; ++y) {
      for (int x = x0; x < x1; ++x) {
        if (mask.in_bounds(x, y)) mask.at(x, y) = 255;
      }
    }
  }
  return mask;
}

std::uint32_t float_bits(float v) {
  std::uint32_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Seeded test frames: smoothed noise with bright squares (strong,
/// distinct corners), and a periodic tiling whose repeated corners tie in
/// score, so the candidate order before the unstable sort matters.
std::vector<ImageU8> oracle_frames(int w, int h, std::uint64_t seed) {
  util::Rng rng(seed);
  ImageF32 noise(w, h);
  for (auto& px : noise.pixels()) {
    px = static_cast<float>(rng.uniform(0.0, 255.0));
  }
  ImageU8 textured = to_u8(smooth5(noise));
  for (int k = 0; k < 6; ++k) {
    const int side = rng.uniform_int(4, 14);
    const int left = rng.uniform_int(-4, w - 2);
    const int top = rng.uniform_int(-4, h - 2);
    const std::uint8_t value = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    for (int y = std::max(top, 0); y < std::min(top + side, h); ++y) {
      for (int x = std::max(left, 0); x < std::min(left + side, w); ++x) {
        textured.at(x, y) = value;
      }
    }
  }
  ImageU8 tiled(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      tiled.at(x, y) = ((x / 6) + (y / 5)) % 2 == 0 ? 40 : 200;
    }
  }
  return {textured, tiled};
}

struct BoxSet {
  std::string name;
  std::vector<geometry::BoundingBox> boxes;
  float shrink = 0.0f;
  bool null_mask = false;
};

std::vector<BoxSet> oracle_box_sets(int w, int h, std::uint64_t seed) {
  const float fw = static_cast<float>(w);
  const float fh = static_cast<float>(h);
  std::vector<BoxSet> sets = {
      {"edge-touching",
       {{0, 0, 20, 15}, {fw - 18, fh - 12, 18, 12}, {0, fh / 2, 10, fh / 2},
        {fw - 1, 0, 1, fh}},
       0.0f},
      {"one-pixel", {{10, 10, 1, 1}, {fw - 1, 0, 1, 1}, {0, fh - 1, 1, 1}}, 0.0f},
      {"overlapping", {{10, 8, 30, 25}, {25, 20, 30, 25}, {30, 10, 8, 40}}, 2.0f},
      {"partly-off-frame",
       {{-12, -7, 30, 20}, {fw - 10, fh - 9, 40, 30}, {-5, 20, fw + 10, 10}},
       2.0f},
      {"shrunk-to-empty", {{20, 20, 3, 3}, {40.5f, 12.25f, 4.5f, 4}}, 2.0f},
      {"no-boxes", {}, 0.0f},
      {"null-mask", {}, 0.0f, true},
      {"whole-frame", {{-5, -5, fw + 10, fh + 10}}, 0.0f},
      {"exact-frame", {{0, 0, fw, fh}}, 2.0f},
  };
  util::Rng rng(seed);
  for (int set = 0; set < 3; ++set) {
    BoxSet random{"random" + std::to_string(set), {}, set == 0 ? 0.0f : 1.5f};
    for (int k = 0; k < 2 + 3 * set; ++k) {
      random.boxes.push_back({static_cast<float>(rng.uniform(-10.0, fw)),
                              static_cast<float>(rng.uniform(-10.0, fh)),
                              static_cast<float>(rng.uniform(1.0, fw / 2)),
                              static_cast<float>(rng.uniform(1.0, fh / 2))});
    }
    sets.push_back(random);
  }
  return sets;
}

TEST(GoodFeatures, MaskedSpansMatchFullMapOracle) {
  const std::pair<int, int> sizes[] = {{97, 61}, {131, 83}, {384, 216}};
  GoodFeaturesParams tracker_like;  // ObjectTracker's settings
  tracker_like.max_corners = 80;
  tracker_like.quality_level = 0.03;
  tracker_like.min_distance = 5.0;
  GoodFeaturesParams wide_block;
  wide_block.max_corners = 25;
  wide_block.block_size = 5;
  GoodFeaturesParams dense;  // many candidates, no spacing: order decides
  dense.max_corners = 600;
  dense.quality_level = 0.001;
  dense.min_distance = 0.0;
  const GoodFeaturesParams param_sets[] = {tracker_like, wide_block, dense};
  const simd::Isa tiers[] = {simd::Isa::kScalar, simd::Isa::kSse2,
                             simd::Isa::kAvx2};
  std::size_t compared = 0;
  std::size_t corners_seen = 0;
  std::uint64_t seed = 7;
  for (const auto& [w, h] : sizes) {
    for (const ImageU8& frame : oracle_frames(w, h, ++seed)) {
      for (const BoxSet& set : oracle_box_sets(w, h, ++seed)) {
        const ImageU8 mask = boxes_mask({w, h}, set.boxes, set.shrink);
        ASSERT_EQ(mask.pixels(),
                  oracle_boxes_mask({w, h}, set.boxes, set.shrink).pixels())
            << set.name;
        const ImageU8* mask_ptr = set.null_mask ? nullptr : &mask;
        // The tracker's path: spans straight from the boxes, scored on the
        // float frame (a pyramid's level 0).
        std::vector<RowSpan> spans;
        boxes_spans({w, h}, set.boxes, set.shrink, spans);
        const ImageF32 level0 = to_float(frame);
        for (std::size_t pi = 0; pi < std::size(param_sets); ++pi) {
          const GoodFeaturesParams& base = param_sets[pi];
          const std::vector<geometry::Point2f> want =
              oracle_good_features(frame, base, mask_ptr);
          corners_seen += want.size();
          for (const simd::Isa isa : tiers) {
            if (simd::ops_for_isa(isa).isa != isa) {
              std::cout << "[ NOTICE  ] tier " << simd::isa_name(isa)
                        << " unavailable on this host/build; skipping\n";
              continue;
            }
            for (const int threads : {1, 4}) {
              SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h) + " " +
                           set.name + " params " + std::to_string(pi) + " " +
                           simd::isa_name(isa) + " " + std::to_string(threads) +
                           "t");
              GoodFeaturesParams params = base;
              params.kernels.num_threads = threads;
              params.kernels.min_rows_per_task = 8;
              params.kernels.isa = isa;
              const std::vector<geometry::Point2f> got =
                  good_features_to_track(frame, params, mask_ptr);
              ASSERT_EQ(got.size(), want.size());
              for (std::size_t i = 0; i < want.size(); ++i) {
                ASSERT_EQ(float_bits(got[i].x), float_bits(want[i].x))
                    << "corner " << i;
                ASSERT_EQ(float_bits(got[i].y), float_bits(want[i].y))
                    << "corner " << i;
              }
              ++compared;
              if (set.null_mask) continue;
              const std::vector<geometry::Point2f> from_spans =
                  good_features_to_track(level0, params, spans);
              ASSERT_EQ(from_spans.size(), want.size());
              for (std::size_t i = 0; i < want.size(); ++i) {
                ASSERT_EQ(float_bits(from_spans[i].x), float_bits(want[i].x))
                    << "span corner " << i;
                ASSERT_EQ(float_bits(from_spans[i].y), float_bits(want[i].y))
                    << "span corner " << i;
              }
              ++compared;
            }
          }
        }
      }
    }
  }
  // Not vacuous: every configuration ran and found corners to compare.
  EXPECT_GT(compared, 0u);
  EXPECT_GT(corners_seen, 1000u);
}

TEST(BoxesMask, MarksInteriorOnly) {
  const ImageU8 mask = boxes_mask({20, 20}, {{5, 5, 6, 6}});
  EXPECT_EQ(mask.at(7, 7), 255);
  EXPECT_EQ(mask.at(4, 4), 0);
  EXPECT_EQ(mask.at(12, 7), 0);
}

TEST(BoxesMask, ShrinkInsetsBox) {
  const ImageU8 mask = boxes_mask({20, 20}, {{5, 5, 8, 8}}, 2.0f);
  EXPECT_EQ(mask.at(9, 9), 255);   // deep interior
  EXPECT_EQ(mask.at(5, 5), 0);     // original border now outside
  EXPECT_EQ(mask.at(6, 6), 0);     // within shrink margin
}

TEST(BoxesMask, ClampsToImage) {
  const ImageU8 mask = boxes_mask({10, 10}, {{-5, -5, 10, 10}});
  EXPECT_EQ(mask.at(0, 0), 255);
  EXPECT_EQ(mask.at(6, 6), 0);
}

TEST(BoxesMask, MultipleBoxesUnion) {
  const ImageU8 mask = boxes_mask({30, 30}, {{2, 2, 5, 5}, {20, 20, 5, 5}});
  EXPECT_EQ(mask.at(4, 4), 255);
  EXPECT_EQ(mask.at(22, 22), 255);
  EXPECT_EQ(mask.at(12, 12), 0);
}

}  // namespace
}  // namespace adavp::vision
