#pragma once

#include <cstdint>
#include <limits>

namespace adavp::util {

/// SplitMix64's output finaliser: a bijective mix of all 64 bits. Shared
/// by `Rng`'s seeding, the fault plan's event hashes, the supervisor's
/// backoff jitter and the renderer's coordinate hash (`hash3`).
inline std::uint64_t splitmix64_finalize(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Multipliers of `hash3`'s two coordinates.
inline constexpr std::uint64_t kHash3MulA = 0x9E3779B97F4A7C15ULL;
inline constexpr std::uint64_t kHash3MulB = 0xC2B2AE3D27D4EB4FULL;

/// Stateless hash of a seed and two integer coordinates: the renderer's
/// value-noise lattice and per-pixel sensor noise.
inline std::uint64_t hash3(std::uint64_t seed, std::int64_t a, std::int64_t b) {
  return splitmix64_finalize(seed ^
                             (static_cast<std::uint64_t>(a) * kHash3MulA) ^
                             (static_cast<std::uint64_t>(b) * kHash3MulB));
}

/// `hash3` mapped to a float in [0, 1]: its top 53 bits as a double in
/// [0, 1), rounded to float (which may round up to 1.0f).
inline float hash3_unit(std::uint64_t seed, std::int64_t a, std::int64_t b) {
  return static_cast<float>((hash3(seed, a, b) >> 11) * 0x1.0p-53);
}

/// Deterministic pseudo-random number generator.
///
/// Implements xoshiro256** seeded via SplitMix64. All randomness in the
/// library flows through this type so that every experiment is exactly
/// reproducible from a single 64-bit seed. The generator is cheap to copy;
/// forked streams (see `fork`) are statistically independent, which lets
/// each synthetic object / detector call own its own stream without
/// cross-coupling.
class Rng {
 public:
  /// Constructs a generator from a 64-bit seed. Two generators built from
  /// the same seed produce identical sequences on every platform.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  /// Re-initializes the state from `seed` (SplitMix64 expansion).
  void reseed(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int uniform_int(int lo, int hi);

  /// Standard normal variate (Box-Muller, cached spare).
  double gaussian();

  /// Normal variate with the given mean and standard deviation.
  double gaussian(double mean, double stddev);

  /// Bernoulli trial with success probability `p` (clamped to [0,1]).
  bool chance(double p);

  /// Derives an independent child stream. The child is seeded from this
  /// generator's output mixed with `salt`, so forking with distinct salts
  /// yields distinct reproducible streams.
  Rng fork(std::uint64_t salt);

 private:
  std::uint64_t state_[4]{};
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace adavp::util
