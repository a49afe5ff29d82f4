#include "video/scene.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/rng.h"
#include "util/scratch_arena.h"
#include "util/thread_pool.h"
#include "vision/kernel_config.h"
#include "vision/simd/dispatch.h"

namespace adavp::video {

namespace {

float smoothstep(float t) { return t * t * (3.0f - 2.0f * t); }

/// One octave of smooth value noise in [0,1], evaluated over a strip of
/// pixel columns one row at a time.
///
/// Value noise at (x, y) bilinearly blends the hashed values of the four
/// lattice corners around (x / cell, y / cell). Within a strip the lattice
/// column and x-blend weight of every pixel column are fixed, so they are
/// computed once; within a lattice row every column's x-blend of the top
/// and bottom corners is fixed too, so `set_row` recomputes those only
/// when the lattice row changes, and a pixel costs one lerp. Every value
/// comes from the same float operations in the same order as the direct
/// per-pixel formula (`gx - ix`, smoothstep, `v00 + fx * (v10 - v00)`,
/// `top + fy * (bot - top)`), so the output is bit-identical to it —
/// provided the compiler does not contract mul/add pairs into FMAs (see
/// ADAVP_NATIVE in the top-level CMakeLists.txt).
///
/// All storage comes from `arena` and is valid until its enclosing Scope
/// ends.
class NoiseOctave {
 public:
  /// `xs[i]` is the noise-space x of strip column i, i in [0, n), n >= 1.
  NoiseOctave(util::ScratchArena& arena, std::uint64_t seed, float cell,
              const float* xs, int n)
      : seed_(seed), cell_(cell), n_(n) {
    const auto count = static_cast<std::size_t>(n);
    col_ = arena.alloc<std::int32_t>(count);
    fx_ = arena.alloc<float>(count);
    top_ = arena.alloc<float>(count);
    bot_ = arena.alloc<float>(count);
    // Pass 1 finds the strip's lattice column range, pass 2 stores each
    // column's offset into it and its x-weight.
    ix_lo_ = std::numeric_limits<std::int64_t>::max();
    std::int64_t ix_hi = std::numeric_limits<std::int64_t>::min();
    for (int i = 0; i < n; ++i) {
      const auto ix = static_cast<std::int64_t>(std::floor(xs[i] / cell_));
      ix_lo_ = std::min(ix_lo_, ix);
      ix_hi = std::max(ix_hi, ix);
    }
    for (int i = 0; i < n; ++i) {
      const float gx = xs[i] / cell_;
      const auto ix = static_cast<std::int64_t>(std::floor(gx));
      col_[i] = static_cast<std::int32_t>(ix - ix_lo_);
      fx_[i] = smoothstep(gx - static_cast<float>(ix));
    }
    // Lattice corners ix_lo .. ix_hi + 1 of one lattice row.
    lattice_size_ = static_cast<int>(ix_hi - ix_lo_ + 2);
    lattice_ = arena.alloc<float>(static_cast<std::size_t>(lattice_size_));
  }

  /// Moves to noise-space row `y`. Rows may come in any order; ascending
  /// rows (the rasterizer's order) reuse the previous lattice row.
  void set_row(float y) {
    const float gy = y / cell_;
    const auto iy = static_cast<std::int64_t>(std::floor(gy));
    fy_ = smoothstep(gy - static_cast<float>(iy));
    if (has_row_ && iy == iy_) return;
    if (has_row_ && iy == iy_ + 1) {
      std::swap(top_, bot_);
    } else {
      blend_lattice_row(iy, top_);
    }
    blend_lattice_row(iy + 1, bot_);
    iy_ = iy;
    has_row_ = true;
  }

  /// The current row's y-blend inputs, copied out so that the caller's
  /// pixel loop reads locals rather than members it might alias.
  struct Row {
    const float* top;
    const float* bot;
    float fy;
    /// Noise at strip column `i`.
    float at(int i) const { return top[i] + fy * (bot[i] - top[i]); }
  };
  Row row() const { return {top_, bot_, fy_}; }

 private:
  /// out[i] = x-blend of lattice row `iy` at strip column i.
  void blend_lattice_row(std::int64_t iy, float* out) {
    for (int k = 0; k < lattice_size_; ++k) {
      lattice_[k] = util::hash3_unit(seed_, ix_lo_ + k, iy);
    }
    for (int i = 0; i < n_; ++i) {
      const float v0 = lattice_[col_[i]];
      const float v1 = lattice_[col_[i] + 1];
      out[i] = v0 + fx_[i] * (v1 - v0);
    }
  }

  std::uint64_t seed_;
  float cell_;
  int n_;
  std::int32_t* col_ = nullptr;  ///< lattice column - ix_lo_, per strip column
  float* fx_ = nullptr;          ///< smoothstep x-weight, per strip column
  float* top_ = nullptr;         ///< x-blend of lattice row iy_
  float* bot_ = nullptr;         ///< x-blend of lattice row iy_ + 1
  float* lattice_ = nullptr;     ///< hash values of one lattice row
  int lattice_size_ = 0;
  std::int64_t ix_lo_ = 0;
  std::int64_t iy_ = 0;
  bool has_row_ = false;
  float fy_ = 0.0f;
};

/// Two-octave texture centred on 0 with unit-ish amplitude, over a strip.
class Texture {
 public:
  Texture(util::ScratchArena& arena, std::uint64_t seed, const float* xs, int n)
      : coarse_(arena, seed, 9.0f, xs, n),
        fine_(arena, seed ^ 0xABCDEF1234567890ULL, 3.5f, xs, n),
        n_(n) {}

  /// out[i] = texture at (xs[i], y), i in [0, n).
  void row(float y, float* out) {
    coarse_.set_row(y);
    fine_.set_row(y);
    const NoiseOctave::Row c = coarse_.row();
    const NoiseOctave::Row f = fine_.row();
    for (int i = 0; i < n_; ++i) {
      const float coarse = c.at(i) - 0.5f;
      const float fine = f.at(i) - 0.5f;
      out[i] = coarse * 0.7f + fine * 0.5f;
    }
  }

 private:
  NoiseOctave coarse_;
  NoiseOctave fine_;
  int n_;
};

std::uint8_t to_pixel(float v) {
  return static_cast<std::uint8_t>(std::clamp(v, 0.0f, 255.0f));
}

}  // namespace

SyntheticVideo::SyntheticVideo(const SceneConfig& config) : config_(config) {
  background_seed_ = util::hash3(config_.seed, 0x6261636B, 0);  // "back"
  precompute_trajectories();
}

void SyntheticVideo::precompute_trajectories() {
  struct LiveObject {
    int object_id;
    ObjectClass cls;
    float x;  // world-coordinate left
    float y;  // top
    float w;
    float h;
    float vx;
    float vy;
    std::uint64_t texture_seed;
  };

  util::Rng rng(config_.seed);
  std::vector<LiveObject> live;
  int next_id = 0;

  const auto fw = static_cast<float>(config_.width);
  const auto fh = static_cast<float>(config_.height);

  auto random_class = [&]() {
    if (config_.classes.empty()) return ObjectClass::kCar;
    return config_.classes[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(config_.classes.size()) - 1))];
  };

  auto random_speed = [&]() {
    const double lo = std::max(0.15, 0.5 * config_.speed_mean);
    const double hi = 1.5 * config_.speed_mean + 0.1;
    return rng.uniform(lo, hi);
  };

  auto make_object = [&](bool initial, double pan_x) {
    LiveObject obj{};
    obj.object_id = next_id++;
    obj.cls = random_class();
    obj.w = static_cast<float>(rng.uniform(config_.min_obj_size, config_.max_obj_size));
    obj.h = static_cast<float>(obj.w * rng.uniform(0.6, 1.1));
    obj.texture_seed = util::hash3(config_.seed, 0x6F626A, obj.object_id);
    const double speed = random_speed();
    if (initial) {
      obj.x = static_cast<float>(pan_x + rng.uniform(0.05, 0.75) * fw);
      obj.y = static_cast<float>(rng.uniform(0.05, 0.75) * fh);
      const double angle = rng.uniform(0.0, 2.0 * 3.14159265358979);
      obj.vx = static_cast<float>(speed * std::cos(angle));
      obj.vy = static_cast<float>(speed * std::sin(angle));
    } else {
      // Enter from the left or right edge, heading inward with a small
      // vertical component.
      const bool from_left = rng.chance(0.5);
      obj.y = static_cast<float>(rng.uniform(0.05, 0.7) * fh);
      const double vy = speed * rng.uniform(-0.3, 0.3);
      if (from_left) {
        obj.x = static_cast<float>(pan_x - obj.w + 2.0f);
        obj.vx = static_cast<float>(speed);
      } else {
        obj.x = static_cast<float>(pan_x + fw - 2.0f);
        obj.vx = static_cast<float>(-speed);
      }
      obj.vy = static_cast<float>(vy);
    }
    return obj;
  };

  double pan = 0.0;
  for (int i = 0; i < config_.initial_objects; ++i) {
    live.push_back(make_object(/*initial=*/true, pan));
  }

  // Per-episode global speed multiplier (see SceneConfig).
  const int episode_frames = std::max(
      1, static_cast<int>(config_.episode_seconds * config_.fps));
  util::Rng episode_rng = rng.fork(0xEB150DE5ULL);
  double episode_multiplier = 1.0;

  frames_.resize(static_cast<std::size_t>(config_.frame_count));
  truth_.resize(static_cast<std::size_t>(config_.frame_count));
  pan_offset_.resize(static_cast<std::size_t>(config_.frame_count));

  double speed_accum = 0.0;
  std::size_t speed_samples = 0;

  for (int f = 0; f < config_.frame_count; ++f) {
    if (f % episode_frames == 0) {
      episode_multiplier = episode_rng.uniform(config_.episode_speed_min,
                                               config_.episode_speed_max);
    }
    pan_offset_[static_cast<std::size_t>(f)] = pan;

    // Record snapshots (screen coordinates) and ground truth.
    auto& snaps = frames_[static_cast<std::size_t>(f)];
    auto& gt = truth_[static_cast<std::size_t>(f)];
    for (const LiveObject& obj : live) {
      ObjectSnapshot s{};
      s.object_id = obj.object_id;
      s.cls = obj.cls;
      s.left = static_cast<float>(obj.x - pan);
      s.top = obj.y;
      s.width = obj.w;
      s.height = obj.h;
      s.texture_seed = obj.texture_seed;
      snaps.push_back(s);

      const geometry::BoundingBox raw{s.left, s.top, s.width, s.height};
      const geometry::BoundingBox clamped =
          geometry::clamp_to(raw, {config_.width, config_.height});
      // Only objects with a meaningful visible part are ground truth.
      if (!clamped.empty() && clamped.area() >= 0.25f * raw.area()) {
        gt.push_back({s.object_id, s.cls, clamped});
      }
    }

    // Advance world state to the next frame.
    const auto em = static_cast<float>(episode_multiplier);
    for (LiveObject& obj : live) {
      obj.x += obj.vx * em;
      obj.y += obj.vy * em;
      obj.vx += static_cast<float>(rng.gaussian(0.0, config_.speed_jitter));
      obj.vy += static_cast<float>(rng.gaussian(0.0, config_.speed_jitter * 0.6));
      // Keep speed within a sane band around the configured mean.
      const float speed = std::sqrt(obj.vx * obj.vx + obj.vy * obj.vy);
      const auto max_speed = static_cast<float>(2.0 * config_.speed_mean + 0.5);
      if (speed > max_speed && speed > 0.0f) {
        obj.vx *= max_speed / speed;
        obj.vy *= max_speed / speed;
      }
      // Bounce softly off top/bottom so objects linger in view.
      if (obj.y < -obj.h * 0.5f) obj.vy = std::abs(obj.vy);
      if (obj.y + obj.h * 0.5f > fh) obj.vy = -std::abs(obj.vy);
      speed_accum += (std::sqrt(obj.vx * obj.vx + obj.vy * obj.vy) +
                      std::abs(config_.camera_pan)) *
                     episode_multiplier;
      ++speed_samples;
    }
    pan += config_.camera_pan * episode_multiplier;

    // Despawn objects fully outside the (panned) viewport by a margin.
    const float margin = 8.0f;
    std::erase_if(live, [&](const LiveObject& obj) {
      const float sl = static_cast<float>(obj.x - pan);
      return sl + obj.w < -margin || sl > fw + margin ||
             obj.y + obj.h < -margin || obj.y > fh + margin;
    });

    // Spawn new objects entering the scene.
    if (static_cast<int>(live.size()) < config_.max_objects &&
        rng.chance(config_.spawn_per_second / config_.fps)) {
      live.push_back(make_object(/*initial=*/false, pan));
    }
    // Never let the scene go empty: respawn immediately.
    if (live.empty()) {
      live.push_back(make_object(/*initial=*/true, pan));
    }
  }

  mean_true_speed_ =
      speed_samples > 0 ? speed_accum / static_cast<double>(speed_samples) : 0.0;
}

void SyntheticVideo::rasterize_object_rows(vision::ImageU8& img,
                                           const ObjectSnapshot& obj,
                                           int row_begin, int row_end) const {
  const geometry::BoundingBox box{obj.left, obj.top, obj.width, obj.height};
  const geometry::BoundingBox visible = geometry::clamp_to(box, img.size());
  if (visible.empty()) return;
  // Texture is sampled in object-local coordinates so it moves rigidly
  // (sub-pixel) with the object. Local x grows monotonically with x, so the
  // columns inside the object form one contiguous strip.
  int x0 = std::max(static_cast<int>(std::floor(visible.left)), 0);
  int x1 = std::min(static_cast<int>(std::ceil(visible.right())), img.width());
  const auto local_x = [&](int x) { return static_cast<float>(x) - obj.left; };
  while (x0 < x1 && local_x(x0) < 0.0f) ++x0;
  while (x1 > x0 && local_x(x1 - 1) >= obj.width) --x1;
  const int y0 = std::max(
      {static_cast<int>(std::floor(visible.top)), row_begin, 0});
  const int y1 = std::min(
      {static_cast<int>(std::ceil(visible.bottom())), row_end, img.height()});
  if (x0 >= x1 || y0 >= y1) return;

  util::ScratchArena& arena = util::ScratchArena::thread_local_arena();
  const util::ScratchArena::Scope scope(arena);
  const int n = x1 - x0;
  float* lx = arena.alloc<float>(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) lx[i] = local_x(x0 + i);
  Texture texture(arena, obj.texture_seed, lx, n);
  float* t = arena.alloc<float>(static_cast<std::size_t>(n));

  // Base tone per object so objects stand out from each other and from the
  // background.
  const float base =
      90.0f + 110.0f * util::hash3_unit(obj.texture_seed, 17, 23);
  const auto contrast = static_cast<float>(config_.texture_contrast);

  for (int y = y0; y < y1; ++y) {
    const float ly = static_cast<float>(y) - obj.top;
    if (ly < 0.0f || ly >= obj.height) continue;
    texture.row(ly, t);
    std::uint8_t* out = &img.at(x0, y);
    for (int i = 0; i < n; ++i) {
      float v = base + contrast * t[i];
      // Darken a thin border so the object silhouette has strong edges.
      const float edge = std::min(std::min(lx[i], ly),
                                  std::min(obj.width - lx[i], obj.height - ly));
      if (edge < 2.0f) v -= 45.0f * (2.0f - edge) / 2.0f;
      out[i] = to_pixel(v);
    }
  }
}

vision::ImageU8 SyntheticVideo::render(int index) const {
  if (!cache_.empty()) return cache_.at(static_cast<std::size_t>(index));
  return rasterize(index);
}

void SyntheticVideo::render_into(int index, vision::ImageU8& out,
                                 int num_threads) const {
  if (!cache_.empty()) {
    out = cache_.at(static_cast<std::size_t>(index));
    return;
  }
  out.reset(config_.width, config_.height);
  if (num_threads == 1) {
    rasterize_rows(index, out, 0, config_.height);
    return;
  }
  // Row-parallel: every pass is a pure function of (x, y), so slicing the
  // row range is bit-identical to the serial loop. Grain keeps tiny frames
  // from paying enqueue costs.
  util::ThreadPool::shared().parallel_for(
      0, config_.height, /*grain=*/32, num_threads,
      [&](std::int64_t row_begin, std::int64_t row_end) {
        rasterize_rows(index, out, static_cast<int>(row_begin),
                       static_cast<int>(row_end));
      });
}

void SyntheticVideo::precache(int num_threads) {
  if (!cache_.empty()) return;
  std::vector<vision::ImageU8> cache(static_cast<std::size_t>(config_.frame_count));
  // Frame-parallel: frames are independent lookups into the precomputed
  // trajectories, so any schedule produces bit-identical caches (pinned by
  // SyntheticVideoTest.ParallelPrecacheIsBitIdentical).
  util::ThreadPool::shared().parallel_for(
      0, config_.frame_count, /*grain=*/1, num_threads,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t f = begin; f < end; ++f) {
          cache[static_cast<std::size_t>(f)] = rasterize(static_cast<int>(f));
        }
      });
  cache_ = std::move(cache);
}

vision::ImageU8 SyntheticVideo::rasterize(int index) const {
  vision::ImageU8 img(config_.width, config_.height);
  rasterize_rows(index, img, 0, config_.height);
  return img;
}

void SyntheticVideo::rasterize_rows(int index, vision::ImageU8& img,
                                    int row_begin, int row_end) const {
  const int width = config_.width;
  if (width <= 0 || row_begin >= row_end) return;
  const auto& snaps = frames_.at(static_cast<std::size_t>(index));
  const auto pan = static_cast<float>(pan_offset_.at(static_cast<std::size_t>(index)));

  // Background: world-anchored noise that scrolls with the camera pan.
  {
    util::ScratchArena& arena = util::ScratchArena::thread_local_arena();
    const util::ScratchArena::Scope scope(arena);
    float* wx = arena.alloc<float>(static_cast<std::size_t>(width));
    for (int x = 0; x < width; ++x) wx[x] = static_cast<float>(x) + pan;
    Texture texture(arena, background_seed_, wx, width);
    float* t = arena.alloc<float>(static_cast<std::size_t>(width));
    for (int y = row_begin; y < row_end; ++y) {
      texture.row(static_cast<float>(y), t);
      std::uint8_t* out = &img.at(0, y);
      for (int x = 0; x < width; ++x) out[x] = to_pixel(120.0f + 45.0f * t[x]);
    }
  }
  for (const auto& obj : snaps) {
    rasterize_object_rows(img, obj, row_begin, row_end);
  }

  // Deterministic per-frame sensor noise, on the dispatched ISA tier
  // (every tier is bit-identical to the scalar reference).
  if (config_.noise_sigma > 0.0) {
    const std::uint64_t noise_seed =
        util::hash3(config_.seed, 0x6E6F6973, index);
    const float gain = 3.4f * static_cast<float>(config_.noise_sigma);
    const auto noise_row =
        vision::simd::ops_for(vision::KernelConfig{}).sensor_noise_row;
    for (int y = row_begin; y < row_end; ++y) {
      noise_row(&img.at(0, y), width, noise_seed, y, gain);
    }
  }
}

const std::vector<GroundTruthObject>& SyntheticVideo::ground_truth(int index) const {
  return truth_.at(static_cast<std::size_t>(index));
}

}  // namespace adavp::video
