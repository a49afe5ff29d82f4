// Microbenchmark of the vision kernel engine along both of its speed axes:
//
//  * ISA sweep — every compiled SIMD tier (scalar / sse2 / avx2, DESIGN.md
//    §14) at one thread, speedup vs the scalar reference. This is the
//    data-level-parallelism trajectory the simd/ subtree is accountable
//    for; scripts/bench_gate.py enforces the AVX2 floors from the emitted
//    `gate` block (avx2 >= 1.5x scalar on pyramid build and LK). On a host
//    without AVX2 the block names both guards under `skipped`. Three rows
//    are report-only: `lk_flow_border` (the LK call on points next to the
//    frame edges, where windows sample replicate-border tiles),
//    `lk_flow_subpixel` (the LK call on non-integer points, as a tracker
//    passes them after its first step) and `good_features_masked` (the
//    tracker's corner search: boxes covering about 6% of the frame, scored
//    on their spans only).
//  * Thread sweep — 1/2/4/N threads at the auto-dispatched ISA, speedup vs
//    the serial path (the historical sweep).
//
// Writes BENCH_KERNELS.json so successive PRs have a perf trajectory to
// compare against.
//
//   ./bench_kernels [--width=1280] [--height=720] [--points=240]
//                   [--reps=9] [--smoke] [--out=BENCH_KERNELS.json]
//
// `--smoke` cuts the thread sweep to 3 reps for CI; it keeps the full frame
// and point count, because the gated ratios depend on the workload (LK's
// AVX2 speedup read about 1.6 at 640x360 with 120 points, against about 2
// at 1280x720 with 240), so a smaller smoke frame would gate a different
// number than the full run reports. The ISA sweep interleaves the tiers rep
// by rep, so a burst of host noise lands on every tier alike instead of on
// whichever tier was being timed, and it takes the best of at least
// kMinIsaReps reps at either scale. Thread-sweep speedups depend on the
// host: on a single-core runner every thread count degenerates to the
// serial path.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "util/args.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "vision/good_features.h"
#include "vision/image_ops.h"
#include "vision/optical_flow.h"
#include "vision/pyramid.h"
#include "vision/simd/dispatch.h"

namespace {

using namespace adavp;

vision::ImageU8 make_frame(int w, int h, std::uint32_t seed) {
  vision::ImageU8 img(w, h);
  std::uint32_t s = seed;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      s = s * 1664525u + 1013904223u;
      img.at(x, y) = static_cast<std::uint8_t>(
          (x * 3 + y * 5 + static_cast<int>((s >> 24) & 63)) % 256);
    }
  }
  return img;
}

/// Floor on the ISA sweep's reps (see the header comment).
constexpr int kMinIsaReps = 15;

double elapsed_ns(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

/// Best-of-`reps` wall time of each of `fns`, in nanoseconds. Rep i times
/// every fn once before rep i + 1 starts, so the candidates share the
/// host's noise.
std::vector<double> time_interleaved_ns(
    int reps, const std::vector<std::function<void()>>& fns) {
  for (const auto& fn : fns) fn();  // warm-up: pool startup, arena growth
  std::vector<double> best(fns.size(), 1e30);
  for (int i = 0; i < reps; ++i) {
    for (std::size_t k = 0; k < fns.size(); ++k) {
      best[k] = std::min(best[k], elapsed_ns(fns[k]));
    }
  }
  return best;
}

/// Best-of-`reps` wall time of `fn`, in nanoseconds.
double time_ns(int reps, const std::function<void()>& fn) {
  return time_interleaved_ns(reps, {fn})[0];
}

struct Row {
  std::string kernel;
  std::string isa;  ///< "auto" rows come from the thread sweep
  int threads;
  double ns;
  double speedup;  ///< vs scalar (ISA sweep) or vs serial (thread sweep)
};

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const bool smoke = args.has("smoke");
  const int width = args.get_int("width", 1280);
  const int height = args.get_int("height", 720);
  const int n_points = args.get_int("points", 240);
  const int reps = args.get_int("reps", smoke ? 3 : 9);
  const std::string out_path =
      args.get("out", smoke ? "BENCH_KERNELS.smoke.json" : "BENCH_KERNELS.json");

  const int hw = util::ThreadPool::default_concurrency();
  std::vector<int> thread_counts = {1, 2, 4};
  if (hw != 1 && hw != 2 && hw != 4) thread_counts.push_back(hw);

  // The ISA sweep covers every tier this binary + CPU can actually run
  // (ops_for_isa clamps, so asking for an absent tier would silently
  // re-measure a lower one — filter those out instead).
  std::vector<vision::simd::Isa> tiers;
  for (const vision::simd::Isa isa :
       {vision::simd::Isa::kScalar, vision::simd::Isa::kSse2,
        vision::simd::Isa::kAvx2}) {
    if (vision::simd::ops_for_isa(isa).isa == isa) tiers.push_back(isa);
  }
  const bool has_avx2 =
      vision::simd::ops_for_isa(vision::simd::Isa::kAvx2).isa ==
      vision::simd::Isa::kAvx2;

  std::cout << "==== bench_kernels ====\n"
            << "frame " << width << "x" << height << ", " << n_points
            << " LK points, best of " << reps << " reps (ISA sweep: "
            << std::max(reps, kMinIsaReps) << ", interleaved), hardware threads: "
            << hw << (smoke ? ", smoke" : "") << "\n"
            << "dispatched isa: "
            << vision::simd::isa_name(vision::simd::detected_isa())
            << " (tiers:";
  for (const vision::simd::Isa isa : tiers) {
    std::cout << " " << vision::simd::isa_name(isa);
  }
  std::cout << ")\n\n";

  const vision::ImageU8 frame_a = make_frame(width, height, 1);
  vision::ImageU8 frame_b = make_frame(width, height, 1);
  // Shift a block so LK has real motion to converge on.
  for (int y = height / 4; y < height / 2; ++y) {
    for (int x = width / 4; x < width / 2; ++x) {
      frame_b.at(x + 3, y + 2) = frame_a.at(x, y);
    }
  }
  const vision::ImageF32 frame_f = vision::to_float(frame_a);

  std::vector<geometry::Point2f> points;
  for (int i = 0; i < n_points; ++i) {
    points.push_back({16.0f + static_cast<float>((i * 37) % (width - 32)),
                      16.0f + static_cast<float>((i * 61) % (height - 32))});
  }

  std::vector<Row> rows;

  using KernelOp = std::function<void(const vision::KernelConfig&)>;
  struct Kernel {
    std::string name;
    KernelOp op;
  };
  std::vector<Kernel> kernels;
  kernels.push_back({"pyramid_build", [&](const vision::KernelConfig& cfg) {
                       vision::ImagePyramid pyr(frame_a, 3, 16, cfg);
                       if (pyr.levels() == 0) std::abort();
                     }});
  kernels.push_back({"smooth3", [&](const vision::KernelConfig& cfg) {
                       volatile float sink = vision::smooth3(frame_f, cfg).at(1, 1);
                       (void)sink;
                     }});
  kernels.push_back({"smooth5", [&](const vision::KernelConfig& cfg) {
                       volatile float sink = vision::smooth5(frame_f, cfg).at(1, 1);
                       (void)sink;
                     }});
  kernels.push_back({"sobel", [&](const vision::KernelConfig& cfg) {
                       vision::ImageF32 gx, gy;
                       vision::sobel(frame_f, gx, gy, cfg);
                     }});
  kernels.push_back({"downsample2", [&](const vision::KernelConfig& cfg) {
                       volatile float sink =
                           vision::downsample2(frame_f, cfg).at(1, 1);
                       (void)sink;
                     }});
  kernels.push_back({"good_features", [&](const vision::KernelConfig& cfg) {
                       vision::GoodFeaturesParams gf;
                       gf.kernels = cfg;
                       volatile std::size_t sink =
                           vision::good_features_to_track(frame_a, gf).size();
                       (void)sink;
                     }});
  // Report-only: the tracker's corner search — a box mask over about 6% of
  // the frame, with ObjectTracker's settings, scored on the float frame
  // (a pyramid's level 0) through the box spans.
  std::vector<geometry::BoundingBox> boxes;
  for (int i = 0; i < 8; ++i) {
    const float bw = static_cast<float>(width) * (0.06f + 0.01f * static_cast<float>(i % 3));
    const float bh = static_cast<float>(height) * (0.08f + 0.01f * static_cast<float>(i % 4));
    boxes.push_back({static_cast<float>(width) * (0.05f + 0.11f * static_cast<float>(i)),
                     static_cast<float>(height) * (0.1f + 0.09f * static_cast<float>(i % 5)),
                     bw, bh});
  }
  std::vector<vision::RowSpan> box_spans;
  vision::boxes_spans({width, height}, boxes, 2.0f, box_spans);
  kernels.push_back({"good_features_masked", [&](const vision::KernelConfig& cfg) {
                       vision::GoodFeaturesParams gf;
                       gf.max_corners = 80;
                       gf.quality_level = 0.03;
                       gf.min_distance = 5.0;
                       gf.kernels = cfg;
                       volatile std::size_t sink =
                           vision::good_features_to_track(frame_f, gf, box_spans)
                               .size();
                       (void)sink;
                     }});
  // LK is benchmarked on prebuilt pyramids: the pyramid cost is its own
  // row above, and this isolates the point-parallel flow loop.
  const vision::ImagePyramid pa(frame_a, 3);
  const vision::ImagePyramid pb(frame_b, 3);
  kernels.push_back({"lk_flow", [&](const vision::KernelConfig& cfg) {
                       std::vector<geometry::Point2f> out;
                       std::vector<vision::FlowStatus> status;
                       vision::calc_optical_flow_pyr_lk(pa, pb, points, out,
                                                        status, {}, cfg);
                     }});

  // Report-only: the same call on points within r + 2 px of an edge (the
  // default radius 7), so every window at every level samples through a
  // replicate-border tile. No gate reads this row.
  std::vector<geometry::Point2f> border_points;
  for (int i = 0; i < n_points; ++i) {
    const float d = 0.5f + static_cast<float>(i % 9);  // px from the edge
    const float along_x = 16.0f + static_cast<float>((i * 37) % (width - 32));
    const float along_y = 16.0f + static_cast<float>((i * 61) % (height - 32));
    const float right = static_cast<float>(width - 1) - d;
    const float bottom = static_cast<float>(height - 1) - d;
    const geometry::Point2f on_edge[4] = {
        {d, along_y}, {right, along_y}, {along_x, d}, {along_x, bottom}};
    border_points.push_back(on_edge[i % 4]);
  }
  kernels.push_back({"lk_flow_border", [&](const vision::KernelConfig& cfg) {
                       std::vector<geometry::Point2f> out;
                       std::vector<vision::FlowStatus> status;
                       vision::calc_optical_flow_pyr_lk(pa, pb, border_points,
                                                        out, status, {}, cfg);
                     }});

  // Report-only: the lk_flow call on the same points moved by a
  // non-integer offset with full-precision fractional bits.
  std::vector<geometry::Point2f> subpixel_points;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const float fx = 0.1f + 0.8f * static_cast<float>((i * 7919) % 1000) / 1000.0f;
    const float fy = 0.1f + 0.8f * static_cast<float>((i * 104729) % 1000) / 1000.0f;
    subpixel_points.push_back({points[i].x + fx / 3.0f, points[i].y + fy / 3.0f});
  }
  kernels.push_back({"lk_flow_subpixel", [&](const vision::KernelConfig& cfg) {
                       std::vector<geometry::Point2f> out;
                       std::vector<vision::FlowStatus> status;
                       vision::calc_optical_flow_pyr_lk(pa, pb, subpixel_points,
                                                        out, status, {}, cfg);
                     }});

  // ---- ISA sweep: every tier, one thread, speedup vs scalar -------------
  double scalar_pyramid_ns = 0.0;
  double scalar_lk_ns = 0.0;
  double avx2_pyramid_ns = 0.0;
  double avx2_lk_ns = 0.0;
  for (const Kernel& k : kernels) {
    std::vector<std::function<void()>> per_tier;
    for (const vision::simd::Isa isa : tiers) {
      vision::KernelConfig cfg;
      cfg.num_threads = 1;
      cfg.isa = isa;
      per_tier.push_back([&k, cfg] { k.op(cfg); });
    }
    const std::vector<double> tier_ns = time_interleaved_ns(std::max(reps, kMinIsaReps), per_tier);
    double scalar_ns = 0.0;
    for (std::size_t t = 0; t < tiers.size(); ++t) {
      const vision::simd::Isa isa = tiers[t];
      const double ns = tier_ns[t];
      if (isa == vision::simd::Isa::kScalar) scalar_ns = ns;
      rows.push_back({k.name, vision::simd::isa_name(isa), 1, ns,
                      scalar_ns > 0.0 ? scalar_ns / ns : 1.0});
      if (k.name == "pyramid_build") {
        if (isa == vision::simd::Isa::kScalar) scalar_pyramid_ns = ns;
        if (isa == vision::simd::Isa::kAvx2) avx2_pyramid_ns = ns;
      }
      if (k.name == "lk_flow") {
        if (isa == vision::simd::Isa::kScalar) scalar_lk_ns = ns;
        if (isa == vision::simd::Isa::kAvx2) avx2_lk_ns = ns;
      }
    }
  }

  // ---- Thread sweep: auto ISA, speedup vs serial ------------------------
  for (const Kernel& k : kernels) {
    double serial_ns = 0.0;
    for (int threads : thread_counts) {
      vision::KernelConfig cfg;
      cfg.num_threads = threads;
      const double ns = time_ns(reps, [&] { k.op(cfg); });
      if (threads == 1) serial_ns = ns;
      rows.push_back({k.name, "auto", threads, ns,
                      serial_ns > 0.0 ? serial_ns / ns : 1.0});
    }
  }

  util::Table table({"kernel", "isa", "threads", "ms/op", "speedup"});
  for (const Row& r : rows) {
    table.add_row({r.kernel, r.isa, std::to_string(r.threads),
                   util::fmt(r.ns / 1e6, 3), util::fmt(r.speedup, 2)});
  }
  table.print();

  std::ofstream json(out_path);
  json << "{\"bench\":\"kernels\",\"smoke\":" << (smoke ? "true" : "false")
       << ",\"frame\":{\"width\":" << width << ",\"height\":" << height
       << "},\"points\":" << n_points << ",\"hardware_threads\":" << hw
       << ",\"detected_isa\":\""
       << vision::simd::isa_name(vision::simd::detected_isa())
       << "\",\"results\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) json << ",";
    json << "{\"kernel\":\"" << rows[i].kernel << "\",\"isa\":\"" << rows[i].isa
         << "\",\"threads\":" << rows[i].threads << ",\"ns_per_op\":" << rows[i].ns
         << ",\"speedup\":" << rows[i].speedup << "}";
  }
  json << "]";
  if (has_avx2 && avx2_pyramid_ns > 0.0 && avx2_lk_ns > 0.0) {
    // Scale-invariant ratios the regression gate enforces.
    json << ",\"gate\":{\"avx2_pyramid_speedup\":"
         << scalar_pyramid_ns / avx2_pyramid_ns
         << ",\"avx2_lk_speedup\":" << scalar_lk_ns / avx2_lk_ns << "}";
    std::cout << "\ngate: avx2_pyramid_speedup="
              << util::fmt(scalar_pyramid_ns / avx2_pyramid_ns, 2)
              << " avx2_lk_speedup=" << util::fmt(scalar_lk_ns / avx2_lk_ns, 2)
              << "\n";
  } else {
    // The gate owes both guards on every host; say why they cannot run.
    json << ",\"gate\":{\"skipped\":{\"avx2_pyramid_speedup\":\"no AVX2\","
         << "\"avx2_lk_speedup\":\"no AVX2\"}}";
    std::cout << "\ngate: skipped (no AVX2)\n";
  }
  json << "}\n";
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
