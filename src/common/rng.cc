#include "common/rng.h"

#include <cmath>

#include "common/check.h"

namespace d2stgnn {
namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t RotL(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) word = SplitMix64(sm);
}

uint64_t Rng::NextUint64() {
  // xoshiro256**.
  const uint64_t result = RotL(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = RotL(state_[3], 45);
  return result;
}

float Rng::Uniform() {
  // Use the top 24 bits for a uniform float in [0, 1).
  return static_cast<float>(NextUint64() >> 40) * (1.0f / 16777216.0f);
}

float Rng::Uniform(float lo, float hi) { return lo + (hi - lo) * Uniform(); }

float Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  float u1 = Uniform();
  while (u1 <= 1e-12f) u1 = Uniform();
  const float u2 = Uniform();
  const float radius = std::sqrt(-2.0f * std::log(u1));
  const float angle = 2.0f * static_cast<float>(M_PI) * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

float Rng::Normal(float mean, float stddev) { return mean + stddev * Normal(); }

int64_t Rng::UniformInt(int64_t n) {
  D2_CHECK_GT(n, 0);
  return static_cast<int64_t>(NextUint64() % static_cast<uint64_t>(n));
}

std::vector<float> Rng::UniformVector(int64_t count, float lo, float hi) {
  D2_CHECK_GE(count, 0);
  std::vector<float> values(static_cast<size_t>(count));
  for (auto& v : values) v = Uniform(lo, hi);
  return values;
}

std::vector<float> Rng::NormalVector(int64_t count, float mean, float stddev) {
  D2_CHECK_GE(count, 0);
  std::vector<float> values(static_cast<size_t>(count));
  for (auto& v : values) v = Normal(mean, stddev);
  return values;
}

std::vector<int64_t> Rng::Permutation(int64_t n) {
  D2_CHECK_GE(n, 0);
  std::vector<int64_t> perm(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = i;
  for (int64_t i = n - 1; i > 0; --i) {
    const int64_t j = UniformInt(i + 1);
    std::swap(perm[static_cast<size_t>(i)], perm[static_cast<size_t>(j)]);
  }
  return perm;
}

RngState Rng::GetState() const {
  RngState state;
  for (int i = 0; i < 4; ++i) state.words[i] = state_[i];
  state.has_cached_normal = has_cached_normal_;
  state.cached_normal = cached_normal_;
  return state;
}

void Rng::SetState(const RngState& state) {
  for (int i = 0; i < 4; ++i) state_[i] = state.words[i];
  has_cached_normal_ = state.has_cached_normal;
  cached_normal_ = state.cached_normal;
}

}  // namespace d2stgnn
