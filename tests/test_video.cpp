#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>
#include <thread>

#include "run_result_digest.h"
#include "util/rng.h"
#include "video/camera.h"
#include "video/frame_buffer.h"
#include "video/frame_store.h"
#include "video/object_class.h"
#include "video/profiles.h"
#include "video/scene.h"
#include "vision/image_ops.h"

namespace adavp::video {
namespace {

SceneConfig small_config(std::uint64_t seed = 5, int frames = 40) {
  SceneConfig cfg;
  cfg.width = 160;
  cfg.height = 120;
  cfg.frame_count = frames;
  cfg.seed = seed;
  cfg.initial_objects = 3;
  return cfg;
}

// --------------------------------------------------------- ObjectClass ---

TEST(ObjectClassTest, NamesAreDistinct) {
  std::set<std::string_view> names;
  for (int i = 0; i < kNumObjectClasses; ++i) {
    names.insert(class_name(static_cast<ObjectClass>(i)));
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kNumObjectClasses));
}

TEST(ObjectClassTest, ConfusablePairsAreSymmetricForVehicles) {
  EXPECT_EQ(confusable_class(ObjectClass::kCar), ObjectClass::kTruck);
  EXPECT_EQ(confusable_class(ObjectClass::kTruck), ObjectClass::kCar);
  // A person has no confusable peer.
  EXPECT_EQ(confusable_class(ObjectClass::kPerson), ObjectClass::kPerson);
}

// ------------------------------------------------------- SyntheticVideo --

TEST(SyntheticVideoTest, DeterministicRendering) {
  const SceneConfig cfg = small_config();
  SyntheticVideo a(cfg);
  SyntheticVideo b(cfg);
  for (int f : {0, 10, 39}) {
    EXPECT_EQ(a.render(f).pixels(), b.render(f).pixels()) << "frame " << f;
    ASSERT_EQ(a.ground_truth(f).size(), b.ground_truth(f).size());
  }
}

TEST(SyntheticVideoTest, DifferentSeedsDiffer) {
  SceneConfig cfg = small_config(1);
  SyntheticVideo a(cfg);
  cfg.seed = 2;
  SyntheticVideo b(cfg);
  EXPECT_NE(a.render(5).pixels(), b.render(5).pixels());
}

TEST(SyntheticVideoTest, GroundTruthBoxesInsideFrame) {
  SyntheticVideo video(small_config(7, 60));
  for (int f = 0; f < video.frame_count(); ++f) {
    for (const auto& gt : video.ground_truth(f)) {
      EXPECT_GE(gt.box.left, 0.0f);
      EXPECT_GE(gt.box.top, 0.0f);
      EXPECT_LE(gt.box.right(), 160.0f + 1e-3f);
      EXPECT_LE(gt.box.bottom(), 120.0f + 1e-3f);
      EXPECT_FALSE(gt.box.empty());
    }
  }
}

TEST(SyntheticVideoTest, SceneNeverEmpty) {
  SceneConfig cfg = small_config(11, 120);
  cfg.initial_objects = 1;
  cfg.max_objects = 2;
  cfg.speed_mean = 3.0;  // objects exit quickly, respawn must kick in
  SyntheticVideo video(cfg);
  int empty_frames = 0;
  for (int f = 0; f < video.frame_count(); ++f) {
    if (video.ground_truth(f).empty()) ++empty_frames;
  }
  // Brief gaps are allowed while a respawned object enters the viewport,
  // but the scene must repopulate.
  EXPECT_LT(empty_frames, video.frame_count() / 2);
}

TEST(SyntheticVideoTest, ObjectsActuallyMove) {
  SceneConfig cfg = small_config(13, 30);
  cfg.speed_mean = 2.0;
  SyntheticVideo video(cfg);
  const auto& first = video.ground_truth(0);
  const auto& later = video.ground_truth(20);
  ASSERT_FALSE(first.empty());
  // Find a persistent object and check it moved.
  for (const auto& a : first) {
    for (const auto& b : later) {
      if (a.object_id == b.object_id) {
        EXPECT_GT((b.box.center() - a.box.center()).norm(), 1.0f);
        return;
      }
    }
  }
  GTEST_SKIP() << "no persistent object across 20 frames";
}

TEST(SyntheticVideoTest, FasterConfigHasHigherTrueSpeed) {
  SceneConfig slow = small_config(17, 60);
  slow.speed_mean = 0.3;
  slow.camera_pan = 0.0;
  SceneConfig fast = small_config(17, 60);
  fast.speed_mean = 2.5;
  fast.camera_pan = 1.5;
  EXPECT_GT(SyntheticVideo(fast).mean_true_speed(),
            SyntheticVideo(slow).mean_true_speed() * 2.0);
}

TEST(SyntheticVideoTest, ConsecutiveFramesAreSimilarButNotIdentical) {
  SyntheticVideo video(small_config(19, 10));
  const auto f0 = video.render(0);
  const auto f1 = video.render(1);
  const double diff = vision::mean_abs_diff(f0, f1);
  EXPECT_GT(diff, 0.01);   // something moved
  EXPECT_LT(diff, 30.0);   // temporal coherence (paper's premise for LK)
}

TEST(SyntheticVideoTest, CameraPanShiftsBackground) {
  SceneConfig cfg = small_config(23, 10);
  cfg.camera_pan = 3.0;
  cfg.initial_objects = 0;
  cfg.max_objects = 0;
  cfg.spawn_per_second = 0.0;
  cfg.noise_sigma = 0.0;
  SyntheticVideo video(cfg);
  const auto f0 = video.render(0);
  const auto f1 = video.render(1);
  // Background at frame 1, column x should equal frame 0 at column x+pan.
  // (Spot-check away from any respawn-inserted object.)
  int matches = 0;
  int checks = 0;
  for (int y = 10; y < 110; y += 13) {
    for (int x = 10; x < 140; x += 17) {
      ++checks;
      if (std::abs(static_cast<int>(f1.at(x, y)) -
                   static_cast<int>(f0.at_clamped(x + 3, y))) <= 2) {
        ++matches;
      }
    }
  }
  EXPECT_GT(matches, checks * 7 / 10);
}

TEST(SyntheticVideoTest, ParallelPrecacheBitIdenticalToSerial) {
  const SceneConfig cfg = small_config(37, 24);
  SyntheticVideo serial(cfg);
  serial.precache(/*num_threads=*/1);
  SyntheticVideo parallel(cfg);
  parallel.precache(/*num_threads=*/0);  // all hardware threads
  ASSERT_TRUE(serial.is_precached());
  ASSERT_TRUE(parallel.is_precached());
  for (int f = 0; f < cfg.frame_count; ++f) {
    ASSERT_NE(serial.cached_frame(f), nullptr);
    ASSERT_NE(parallel.cached_frame(f), nullptr);
    EXPECT_EQ(serial.cached_frame(f)->pixels(),
              parallel.cached_frame(f)->pixels())
        << "frame " << f;
  }
}

TEST(SyntheticVideoTest, RowParallelRenderBitIdenticalToSerial) {
  SyntheticVideo video(small_config(41, 4));
  for (int f = 0; f < 4; ++f) {
    vision::ImageU8 serial;
    video.render_into(f, serial, /*num_threads=*/1);
    vision::ImageU8 threaded;
    video.render_into(f, threaded, /*num_threads=*/4);
    EXPECT_EQ(serial.pixels(), threaded.pixels()) << "frame " << f;
    EXPECT_EQ(serial.pixels(), video.render(f).pixels()) << "frame " << f;
  }
}

// ------------------------------------------------ pixel golden digests ---
// The engine goldens see pixels only indirectly, through tracking. These
// pin the raster bytes themselves: FNV-1a 64 over each frame's pixels,
// folded in frame order into one digest per scene.

std::uint64_t frame_digest(const vision::ImageU8& img) {
  core::Digest d;
  d.pod<std::int32_t>(img.width());
  d.pod<std::int32_t>(img.height());
  d.bytes(img.pixels().data(), img.pixels().size());
  return d.value();
}

std::uint64_t video_digest(const SyntheticVideo& video) {
  core::Digest d;
  for (int f = 0; f < video.frame_count(); ++f) {
    d.pod<std::uint64_t>(frame_digest(video.render(f)));
  }
  return d.value();
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llX",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Large objects under a fractional leftward pan: most of them hang over
/// one or more frame edges (negative left/top) in every frame.
SceneConfig edge_straddling_pan_scene() {
  SceneConfig cfg;
  cfg.width = 160;
  cfg.height = 120;
  cfg.frame_count = 30;
  cfg.seed = 0x5EED;
  cfg.camera_pan = -2.37;
  cfg.min_obj_size = 90.0;
  cfg.max_obj_size = 150.0;
  cfg.initial_objects = 6;
  cfg.max_objects = 8;
  cfg.speed_mean = 2.5;
  cfg.noise_sigma = 2.5;
  return cfg;
}

/// An odd 97x53 frame with small objects and no sensor noise.
SceneConfig odd_size_noiseless_scene() {
  SceneConfig cfg;
  cfg.width = 97;
  cfg.height = 53;
  cfg.frame_count = 20;
  cfg.seed = 97053;
  cfg.camera_pan = 0.61;
  cfg.min_obj_size = 7.0;
  cfg.max_obj_size = 30.0;
  cfg.initial_objects = 4;
  cfg.noise_sigma = 0.0;
  return cfg;
}

TEST(SyntheticVideoTest, EdgeStraddlingSceneCoversAllFourEdges) {
  // Keeps the golden below from silently losing the clipped-object paths.
  const SyntheticVideo video(edge_straddling_pan_scene());
  const float w = static_cast<float>(video.config().width);
  const float h = static_cast<float>(video.config().height);
  bool left = false, top = false, right = false, bottom = false;
  for (int f = 0; f < video.frame_count(); ++f) {
    for (const auto& obj : video.objects(f)) {
      const bool on_screen = obj.left < w && obj.top < h &&
                             obj.left + obj.width > 0.0f &&
                             obj.top + obj.height > 0.0f;
      if (!on_screen) continue;
      left |= obj.left < 0.0f;
      top |= obj.top < 0.0f;
      right |= obj.left + obj.width > w;
      bottom |= obj.top + obj.height > h;
    }
  }
  EXPECT_TRUE(left && top && right && bottom)
      << left << top << right << bottom;
}

TEST(SyntheticVideoTest, PixelDigestsMatchGolden) {
  struct Case {
    std::string name;
    SceneConfig config;
    std::uint64_t golden;
  };
  const std::vector<SceneConfig> test_set = make_test_set(2020, 12);
  SceneConfig noisy = odd_size_noiseless_scene();
  noisy.name = "odd_97x53_noisy";
  noisy.noise_sigma = 4.0;
  const std::vector<Case> cases = {
      {"test0_surveillance_highway", test_set[0], 0x27BF2A888BCEA775ULL},
      {"test6_carmount_highway", test_set[6], 0xA8E151D32765C359ULL},
      {"test7_carmount_downtown", test_set[7], 0x4F44C8F1A29598F1ULL},
      {"test11_mobile_racetrack", test_set[11], 0x1D9D205395B46AB3ULL},
      {"edge_straddling_pan", edge_straddling_pan_scene(), 0xF3F9C600C661F996ULL},
      {"odd_97x53_noiseless", odd_size_noiseless_scene(), 0x0E4479211A75722EULL},
      {"odd_97x53_noisy", noisy, 0x230B15396C9FAF25ULL},
  };
  for (const Case& c : cases) {
    const SyntheticVideo video(c.config);
    EXPECT_EQ(hex(video_digest(video)), hex(c.golden)) << c.name;
  }
}

// ----------------------------------------------------- renderer oracle ---
// A verbatim copy of the original per-pixel rasterizer: two value-noise
// octaves, each hashing its four lattice corners at every pixel. It is
// slow and obviously right; the production renderer must match it byte
// for byte.
namespace oracle {

std::uint64_t hash3(std::uint64_t seed, std::int64_t a, std::int64_t b) {
  std::uint64_t x = seed ^ (static_cast<std::uint64_t>(a) * 0x9E3779B97F4A7C15ULL) ^
                    (static_cast<std::uint64_t>(b) * 0xC2B2AE3D27D4EB4FULL);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

float hash_unit(std::uint64_t seed, std::int64_t a, std::int64_t b) {
  return static_cast<float>((hash3(seed, a, b) >> 11) * 0x1.0p-53);
}

float smoothstep(float t) { return t * t * (3.0f - 2.0f * t); }

float value_noise(float x, float y, std::uint64_t seed, float cell) {
  const float gx = x / cell;
  const float gy = y / cell;
  const auto ix = static_cast<std::int64_t>(std::floor(gx));
  const auto iy = static_cast<std::int64_t>(std::floor(gy));
  const float fx = smoothstep(gx - static_cast<float>(ix));
  const float fy = smoothstep(gy - static_cast<float>(iy));
  const float v00 = hash_unit(seed, ix, iy);
  const float v10 = hash_unit(seed, ix + 1, iy);
  const float v01 = hash_unit(seed, ix, iy + 1);
  const float v11 = hash_unit(seed, ix + 1, iy + 1);
  const float top = v00 + fx * (v10 - v00);
  const float bot = v01 + fx * (v11 - v01);
  return top + fy * (bot - top);
}

float texture(float x, float y, std::uint64_t seed) {
  const float coarse = value_noise(x, y, seed, 9.0f) - 0.5f;
  const float fine = value_noise(x, y, seed ^ 0xABCDEF1234567890ULL, 3.5f) - 0.5f;
  return coarse * 0.7f + fine * 0.5f;
}

vision::ImageU8 render(const SyntheticVideo& video, int index) {
  const SceneConfig& config = video.config();
  vision::ImageU8 img(config.width, config.height);
  const auto pan = static_cast<float>(video.pan_offset(index));
  const std::uint64_t background_seed = hash3(config.seed, 0x6261636B, 0);

  for (int y = 0; y < config.height; ++y) {
    for (int x = 0; x < config.width; ++x) {
      const float wx = static_cast<float>(x) + pan;
      const float wy = static_cast<float>(y);
      const float v = 120.0f + 45.0f * texture(wx, wy, background_seed);
      img.at(x, y) = static_cast<std::uint8_t>(std::clamp(v, 0.0f, 255.0f));
    }
  }

  for (const auto& obj : video.objects(index)) {
    const geometry::BoundingBox box{obj.left, obj.top, obj.width, obj.height};
    const geometry::BoundingBox visible = geometry::clamp_to(box, img.size());
    if (visible.empty()) continue;
    const int x0 = static_cast<int>(std::floor(visible.left));
    const int y0 = static_cast<int>(std::floor(visible.top));
    const int x1 = static_cast<int>(std::ceil(visible.right()));
    const int y1 = static_cast<int>(std::ceil(visible.bottom()));
    const float base = 90.0f + 110.0f * hash_unit(obj.texture_seed, 17, 23);
    const auto contrast = static_cast<float>(config.texture_contrast);
    for (int y = y0; y < y1 && y < img.height(); ++y) {
      for (int x = x0; x < x1 && x < img.width(); ++x) {
        if (x < 0 || y < 0) continue;
        const float lx = static_cast<float>(x) - obj.left;
        const float ly = static_cast<float>(y) - obj.top;
        if (lx < 0.0f || ly < 0.0f || lx >= obj.width || ly >= obj.height) continue;
        float v = base + contrast * texture(lx, ly, obj.texture_seed);
        const float edge = std::min(std::min(lx, ly),
                                    std::min(obj.width - lx, obj.height - ly));
        if (edge < 2.0f) v -= 45.0f * (2.0f - edge) / 2.0f;
        img.at(x, y) = static_cast<std::uint8_t>(std::clamp(v, 0.0f, 255.0f));
      }
    }
  }

  if (config.noise_sigma > 0.0) {
    const std::uint64_t noise_seed = hash3(config.seed, 0x6E6F6973, index);
    const auto sigma = static_cast<float>(config.noise_sigma);
    for (int y = 0; y < config.height; ++y) {
      for (int x = 0; x < config.width; ++x) {
        const float u = hash_unit(noise_seed, x, y) - 0.5f;
        const float v = static_cast<float>(img.at(x, y)) + 3.4f * sigma * u;
        img.at(x, y) = static_cast<std::uint8_t>(std::clamp(v, 0.0f, 255.0f));
      }
    }
  }
  return img;
}

}  // namespace oracle

/// A random scene: tiny to mid-size frames, pans of either sign with
/// fractional parts, object sides from a few pixels to wider than the
/// frame.
SceneConfig random_scene(util::Rng& rng) {
  SceneConfig cfg;
  cfg.seed = rng.next_u64();
  cfg.width = rng.chance(0.3) ? rng.uniform_int(1, 15) : rng.uniform_int(16, 200);
  cfg.height = rng.chance(0.3) ? rng.uniform_int(1, 15) : rng.uniform_int(16, 150);
  cfg.frame_count = 5;
  cfg.camera_pan = rng.chance(0.2) ? 0.0 : rng.uniform(-4.5, 4.5);
  cfg.min_obj_size = rng.uniform(2.0, 40.0);
  cfg.max_obj_size = cfg.min_obj_size + rng.uniform(0.0, 160.0);
  cfg.initial_objects = rng.uniform_int(0, 6);
  cfg.max_objects = std::max(cfg.initial_objects, rng.uniform_int(0, 8));
  cfg.speed_mean = rng.uniform(0.2, 4.0);
  cfg.texture_contrast = rng.uniform(10.0, 140.0);
  cfg.noise_sigma = rng.chance(0.3) ? 0.0 : rng.uniform(0.2, 6.0);
  return cfg;
}

TEST(SyntheticVideoTest, RendererMatchesPerPixelOracle) {
  util::Rng rng(0x0AC1E);
  for (int trial = 0; trial < 48; ++trial) {
    const SceneConfig cfg = random_scene(rng);
    const SyntheticVideo video(cfg);
    for (int f = 0; f < cfg.frame_count; ++f) {
      const vision::ImageU8 want = oracle::render(video, f);
      ASSERT_EQ(video.render(f).pixels(), want.pixels())
          << "trial " << trial << " frame " << f << " (" << cfg.width << "x"
          << cfg.height << ", pan " << cfg.camera_pan << ")";
      vision::ImageU8 threaded;
      video.render_into(f, threaded, /*num_threads=*/4);
      ASSERT_EQ(threaded.pixels(), want.pixels())
          << "trial " << trial << " frame " << f << " (" << cfg.width << "x"
          << cfg.height << ", pan " << cfg.camera_pan << ", 4 threads)";
    }
  }
}

TEST(SyntheticVideoTest, TimestampsFollowFps) {
  SyntheticVideo video(small_config());
  EXPECT_DOUBLE_EQ(video.timestamp_ms(0), 0.0);
  EXPECT_NEAR(video.timestamp_ms(30), 1000.0, 1e-9);
  EXPECT_NEAR(video.frame_interval_ms(), 1000.0 / 30.0, 1e-12);
}

// ------------------------------------------------------------ Profiles ---

TEST(Profiles, LibraryHasFourteenScenarios) {
  EXPECT_EQ(scenario_library().size(), 14u);
}

TEST(Profiles, TrainingAndTestSetsAreDisjointSeeds) {
  const auto train = make_training_set(1, 60);
  const auto test = make_test_set(1, 60);
  EXPECT_EQ(train.size(), 28u);
  EXPECT_EQ(test.size(), 14u);
  std::set<std::uint64_t> seeds;
  for (const auto& cfg : train) seeds.insert(cfg.seed);
  for (const auto& cfg : test) {
    EXPECT_EQ(seeds.count(cfg.seed), 0u) << cfg.name;
  }
}

TEST(Profiles, ScenariosSpanSlowAndFastContent) {
  double min_speed = 1e9;
  double max_speed = 0.0;
  for (const auto& s : scenario_library()) {
    const double apparent = s.speed_mean + s.camera_pan;
    min_speed = std::min(min_speed, apparent);
    max_speed = std::max(max_speed, apparent);
  }
  EXPECT_LT(min_speed, 0.5);  // meeting-room-like
  EXPECT_GT(max_speed, 3.0);  // racetrack / car-mounted
}

TEST(Profiles, MakeSceneAppliesScale) {
  const auto& scenario = scenario_library()[0];
  const SceneConfig base = make_scene(scenario, 1, 100, 1.0);
  const SceneConfig scaled = make_scene(scenario, 1, 100, 2.0);
  EXPECT_NEAR(scaled.speed_mean, base.speed_mean * 2.0, 1e-12);
  EXPECT_NEAR(scaled.camera_pan, base.camera_pan * 2.0, 1e-12);
  EXPECT_EQ(scaled.frame_count, 100);
}

// --------------------------------------------------------- FrameBuffer ---

FrameRef make_frame(int index) {
  FrameRef f;
  f.index = index;
  f.timestamp_ms = index * 33.3;
  f.image_ptr = std::make_shared<const vision::ImageU8>(4, 4);
  return f;
}

TEST(FrameBufferTest, NewestReturnsLatest) {
  FrameBuffer buffer;
  buffer.push(make_frame(0));
  buffer.push(make_frame(1));
  buffer.push(make_frame(2));
  const auto newest = buffer.wait_newest();
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->index, 2);
  EXPECT_EQ(buffer.size(), 3u);  // non-destructive
}

TEST(FrameBufferTest, DrainRemovesPrefix) {
  FrameBuffer buffer;
  for (int i = 0; i < 5; ++i) buffer.push(make_frame(i));
  const auto drained = buffer.drain_up_to(2);
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained[0].index, 0);
  EXPECT_EQ(drained[2].index, 2);
  EXPECT_EQ(buffer.size(), 2u);
}

TEST(FrameBufferTest, CapacityDropsOldest) {
  FrameBuffer buffer(3);
  for (int i = 0; i < 5; ++i) buffer.push(make_frame(i));
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_EQ(buffer.dropped(), 2u);
  const auto drained = buffer.drain_up_to(100);
  EXPECT_EQ(drained.front().index, 2);
}

TEST(FrameBufferTest, CloseWakesWaiters) {
  FrameBuffer buffer;
  std::thread waiter([&] {
    const auto frame = buffer.wait_newest();
    EXPECT_FALSE(frame.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  buffer.close();
  waiter.join();
  EXPECT_TRUE(buffer.closed());
}

TEST(FrameBufferTest, WaitNewerBlocksUntilNewerFrame) {
  FrameBuffer buffer;
  buffer.push(make_frame(0));
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    buffer.push(make_frame(1));
  });
  const auto frame = buffer.wait_newer(0);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->index, 1);
  producer.join();
}

TEST(FrameBufferTest, WaitNewerReturnsNulloptWhenClosedStale) {
  FrameBuffer buffer;
  buffer.push(make_frame(3));
  buffer.close();
  EXPECT_FALSE(buffer.wait_newer(3).has_value());
  EXPECT_TRUE(buffer.wait_newer(2).has_value());
}

// -------------------------------------------------------- CameraSource ---

TEST(CameraSourceTest, PushesAllFramesAndCloses) {
  SceneConfig cfg = small_config(29, 12);
  SyntheticVideo video(cfg);
  FrameStore store(video);
  FrameBuffer buffer(64);
  CameraSource camera(store, buffer, /*time_scale=*/100.0);
  camera.start();
  while (!buffer.closed()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  camera.stop();
  EXPECT_EQ(camera.frames_captured(), 12);
  EXPECT_TRUE(buffer.closed());
  const auto frames = buffer.drain_up_to(1000);
  EXPECT_EQ(frames.size(), 12u);
  EXPECT_EQ(frames.back().index, 11);
}

// ------------------------------------------- FrameBuffer shutdown path ---
// A mid-run stop must wake every blocked consumer and never hang — the
// supervisor's abort path closes the buffer from another thread while the
// detector is parked in wait_newer.

TEST(FrameBufferShutdownTest, CloseWakesABlockedWaiter) {
  FrameBuffer buffer;
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    EXPECT_FALSE(buffer.wait_newest().has_value());
    // Once closed-and-empty, later waits return immediately too.
    EXPECT_FALSE(buffer.wait_newer(100).has_value());
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load());  // genuinely parked, not spinning through
  buffer.close();
  waiter.join();
  EXPECT_TRUE(woke.load());
}

TEST(FrameBufferShutdownTest, PushAfterCloseIsSilentlyDropped) {
  SyntheticVideo video(small_config(33, 4));
  FrameStore store(video);
  FrameBuffer buffer(8);
  buffer.push(store.get(0));
  buffer.push(store.get(1));
  buffer.close();
  buffer.push(store.get(2));  // producer racing the shutdown
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.dropped(), 0u);  // a shutdown race is not an overflow
  // What was queued before the close still drains.
  EXPECT_EQ(buffer.drain_up_to(10).size(), 2u);
}

TEST(FrameBufferShutdownTest, CloseDuringProductionUnblocksConsumer) {
  SyntheticVideo video(small_config(35, 60));
  FrameStore store(video);
  FrameBuffer buffer(64);
  std::thread consumer([&] {
    int last = -1;
    while (true) {
      const auto frame = buffer.wait_newer(last);
      if (!frame.has_value()) break;
      last = frame->index;
    }
    EXPECT_FALSE(buffer.wait_newer(last).has_value());
  });
  for (int i = 0; i < 30; ++i) buffer.push(store.get(i));
  buffer.close();
  consumer.join();  // hangs here if a wakeup was lost
  EXPECT_TRUE(buffer.closed());
}

TEST(CameraSourceTest, StopInterruptsEarly) {
  SceneConfig cfg = small_config(31, 3000);
  SyntheticVideo video(cfg);
  FrameStore store(video);
  FrameBuffer buffer(16);
  CameraSource camera(store, buffer, /*time_scale=*/1.0);  // 100 s of video
  camera.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  camera.stop();
  EXPECT_LT(camera.frames_captured(), 3000);
  EXPECT_TRUE(buffer.closed());
}

// Regression for the fleet-era multi-consumer audit: wait_newer waiters
// have *per-waiter* predicates (each waits for its own after_index), so
// push must broadcast. Under the old notify_one, a push of frame 1 could
// wake only the waiter parked on after_index=100 — which re-sleeps — while
// the waiter the push actually satisfied (after_index=0) slept forever.
TEST(FrameBufferShutdownTest, MultipleWaitersWithDistinctPredicatesAllWake) {
  for (int iteration = 0; iteration < 20; ++iteration) {
    FrameBuffer buffer;
    std::atomic<bool> satisfied_woke{false};
    // Parked first so a FIFO condition variable would hand it the wakeup:
    // a waiter whose predicate (index > 100) the push does NOT satisfy.
    std::thread stale_waiter([&] {
      const auto frame = buffer.wait_newer(100);
      EXPECT_FALSE(frame.has_value());  // only close() releases it
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    // Parked second: the waiter the push satisfies.
    std::thread fresh_waiter([&] {
      const auto frame = buffer.wait_newer(0);
      ASSERT_TRUE(frame.has_value());
      EXPECT_EQ(frame->index, 1);
      satisfied_woke.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    buffer.push(make_frame(1));
    // The satisfied waiter must wake from the push alone — before close()
    // broadcasts — or the bug is back.
    for (int spins = 0; spins < 2000 && !satisfied_woke.load(); ++spins) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(satisfied_woke.load()) << "iteration " << iteration;
    buffer.close();
    stale_waiter.join();
    fresh_waiter.join();
  }
}

}  // namespace
}  // namespace adavp::video
