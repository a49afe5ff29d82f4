#include "util/rng.h"

#include <cmath>

namespace adavp::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  return splitmix64_finalize(x);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
  has_spare_ = false;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

int Rng::uniform_int(int lo, int hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<int>(next_u64() % span);
}

double Rng::gaussian() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double m = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * m;
  has_spare_ = true;
  return u * m;
}

double Rng::gaussian(double mean, double stddev) {
  return mean + stddev * gaussian();
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

Rng Rng::fork(std::uint64_t salt) {
  return Rng(next_u64() ^ (salt * 0xD1B54A32D192ED03ULL + 0x8BB84B93962EACC9ULL));
}

}  // namespace adavp::util
