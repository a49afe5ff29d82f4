#pragma once

#include <vector>

#include "geometry/point.h"
#include "vision/kernel_config.h"
#include "vision/pyramid.h"

namespace adavp::vision {

/// Parameters of the pyramidal Lucas-Kanade tracker (mirrors OpenCV's
/// calcOpticalFlowPyrLK knobs used by the paper).
struct LucasKanadeParams {
  int window_radius = 7;        ///< integration window is (2r+1)^2 pixels
  int max_iterations = 20;      ///< Newton iterations per pyramid level
  float epsilon = 0.03f;        ///< stop when the update norm drops below this
  float min_eigen_threshold = 1e-4f;  ///< reject ill-conditioned windows
};

/// Per-point tracking outcome.
struct FlowStatus {
  bool tracked = false;   ///< true when the point was followed successfully
  float error = 0.0f;     ///< mean absolute residual over the window
};

/// Tracks `points` (given in full-resolution coordinates of `prev`) into
/// the `next` image using iterative pyramidal Lucas-Kanade.
///
/// Writes one output position and one status per input point. Samples
/// are bilinear with a replicate border, so windows may overlap or leave
/// the frame. A point is flagged `tracked == false` when its
/// spatial-gradient matrix is ill-conditioned (textureless window), when
/// its final position lies outside `next`, or when an estimate is NaN,
/// infinite or beyond ±2^20 px; its output position is then the last
/// finite estimate reached before the failure (a non-finite input point
/// comes back unchanged).
///
/// Every window, interior or border, samples through the dispatched SIMD
/// tier: border windows read a small replicate-border tile copied from the
/// level, so results are bit-identical to per-tap clamped sampling on
/// every tier. A structure-tensor window whose offsets p ± (r+1) are exact
/// float sums on both axes samples its (2r+3)^2 tap grid once and takes
/// values and central differences from it; those are the same
/// coordinates, so the same floats (counters `lk.grid_windows` /
/// `lk.sampled_windows`, published once per call). Points are independent, so the work is split across the
/// shared kernel pool per `kernels`; every thread count (including the
/// serial `num_threads == 1` path) produces bit-identical results.
/// Per-thread window caches and tiles come from the thread's ScratchArena
/// — the level loop performs no heap allocation.
void calc_optical_flow_pyr_lk(const ImagePyramid& prev, const ImagePyramid& next,
                              const std::vector<geometry::Point2f>& points,
                              std::vector<geometry::Point2f>& out_points,
                              std::vector<FlowStatus>& out_status,
                              const LucasKanadeParams& params = {},
                              const KernelConfig& kernels = {});

}  // namespace adavp::vision
