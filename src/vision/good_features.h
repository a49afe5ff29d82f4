#pragma once

#include <optional>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"
#include "vision/image.h"
#include "vision/kernel_config.h"

namespace adavp::vision {

/// Parameters for the Shi-Tomasi "good features to track" detector
/// (mirrors OpenCV's goodFeaturesToTrack knobs used by the paper).
struct GoodFeaturesParams {
  int max_corners = 100;        ///< keep at most this many corners
  double quality_level = 0.01;  ///< accept score >= quality * best score
  double min_distance = 7.0;    ///< minimum spacing between kept corners
  int block_size = 3;           ///< structure-tensor window radius-ish (3 => 3x3)
  KernelConfig kernels;         ///< ISA tier of the score kernels; threads
                                ///< split only full-frame passes (see below)
};

/// Shi-Tomasi corner response: the smaller eigenvalue of the 2x2 structure
/// tensor accumulated over a block around each pixel. Exposed for tests and
/// for reuse by the feature extractor.
ImageF32 min_eigenvalue_map(const ImageF32& img, int block_size,
                            const KernelConfig& config = {});

/// One run of candidate pixels: row `y`, columns [x0, x1).
struct RowSpan {
  int y = 0;
  int x0 = 0;
  int x1 = 0;
};

/// Detects good features to track in `img`.
///
/// When `mask` is provided, only pixels with mask != 0 are candidates —
/// the paper masks to the interior of detected bounding boxes so that
/// features (and compute) stay on the tracked objects. Returned corners
/// are sorted by decreasing corner response and spaced at least
/// `min_distance` apart (greedy non-maximum suppression).
std::vector<geometry::Point2f> good_features_to_track(
    const ImageU8& img, const GoodFeaturesParams& params,
    const ImageU8* mask = nullptr);

/// The same detector on a float image (level 0 of a pyramid holds exactly
/// `to_float` of the frame) whose candidate pixels are `spans`: inside the
/// image, sorted by (y, x0) and disjoint, as `boxes_spans` writes them.
///
/// Sobel, scores, the best-score scan and the 3x3 local-maximum test run
/// only on the spans plus the pixels their windows reach (a one-pixel
/// ring for the maximum test, the block radius beyond that for the
/// structure tensor). They run on the calling thread in bands of 32 rows
/// whose scratch is carved from the thread's ScratchArena, so the scratch
/// stays a few rows of the region's width however large the boxes are.
/// Each pixel keeps the full-map formula and the same interior/clamped
/// split by image position, and candidates are collected in raster order,
/// so the corner list is bit-identical to scoring the whole frame.
std::vector<geometry::Point2f> good_features_to_track(
    const ImageF32& img, const GoodFeaturesParams& params,
    const std::vector<RowSpan>& spans);

/// Replaces `out` with the spans of `boxes_mask(size, boxes, shrink)`,
/// without building the mask.
void boxes_spans(const geometry::Size& size,
                 const std::vector<geometry::BoundingBox>& boxes, float shrink,
                 std::vector<RowSpan>& out);

/// Builds a mask image that is non-zero exactly inside the given boxes
/// (clamped to the image bounds). `shrink` optionally insets each box by a
/// margin so features stay away from object borders.
ImageU8 boxes_mask(const geometry::Size& size,
                   const std::vector<geometry::BoundingBox>& boxes,
                   float shrink = 0.0f);

}  // namespace adavp::vision
