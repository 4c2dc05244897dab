#ifndef D2STGNN_COMMON_RNG_H_
#define D2STGNN_COMMON_RNG_H_

#include <cstdint>
#include <vector>

namespace d2stgnn {

/// Complete serializable state of an Rng. Capturing and restoring it
/// reproduces the stream exactly — required for bitwise-identical resume of
/// a checkpointed training run.
struct RngState {
  uint64_t words[4] = {0, 0, 0, 0};
  bool has_cached_normal = false;
  float cached_normal = 0.0f;
};

/// Deterministic random number generator used everywhere in the project so
/// that experiments are reproducible from a single seed. Wraps a
/// SplitMix64-seeded xoshiro256** core.
class Rng {
 public:
  /// Creates a generator from `seed`. The same seed always yields the same
  /// stream on every platform.
  explicit Rng(uint64_t seed = 42);

  /// Returns the next raw 64-bit value.
  uint64_t NextUint64();

  /// Returns a float uniformly distributed in [0, 1).
  float Uniform();

  /// Returns a float uniformly distributed in [lo, hi).
  float Uniform(float lo, float hi);

  /// Returns a standard-normal float (Box–Muller; values are cached in
  /// pairs).
  float Normal();

  /// Returns a normal float with the given mean and standard deviation.
  float Normal(float mean, float stddev);

  /// Returns an integer uniformly distributed in [0, n). Requires n > 0.
  int64_t UniformInt(int64_t n);

  /// Returns `count` uniform floats in [lo, hi).
  std::vector<float> UniformVector(int64_t count, float lo, float hi);

  /// Returns `count` normal floats with the given mean and stddev.
  std::vector<float> NormalVector(int64_t count, float mean, float stddev);

  /// Returns a random permutation of {0, ..., n-1} (Fisher–Yates).
  std::vector<int64_t> Permutation(int64_t n);

  /// Snapshot of the full generator state (checkpointing).
  RngState GetState() const;

  /// Restores a state captured with GetState; the stream continues exactly
  /// where the snapshot was taken.
  void SetState(const RngState& state);

 private:
  uint64_t state_[4];
  bool has_cached_normal_ = false;
  float cached_normal_ = 0.0f;
};

}  // namespace d2stgnn

#endif  // D2STGNN_COMMON_RNG_H_
