#include "nn/init.h"

#include <cmath>

#include "common/check.h"

namespace d2stgnn::nn {
namespace {

void FanInOut(const Shape& shape, float* fan_in, float* fan_out) {
  D2_CHECK_GE(shape.size(), 1u);
  if (shape.size() == 1) {
    *fan_in = static_cast<float>(shape[0]);
    *fan_out = static_cast<float>(shape[0]);
    return;
  }
  float leading = 1.0f;
  for (size_t d = 0; d + 1 < shape.size(); ++d) {
    leading *= static_cast<float>(shape[d]);
  }
  *fan_in = leading;
  *fan_out = static_cast<float>(shape.back());
}

}  // namespace

Tensor XavierUniform(const Shape& shape, Rng& rng, float gain) {
  float fan_in, fan_out;
  FanInOut(shape, &fan_in, &fan_out);
  const float bound = gain * std::sqrt(6.0f / (fan_in + fan_out));
  return Tensor::Rand(shape, rng, -bound, bound);
}

Tensor XavierNormal(const Shape& shape, Rng& rng, float gain) {
  float fan_in, fan_out;
  FanInOut(shape, &fan_in, &fan_out);
  const float stddev = gain * std::sqrt(2.0f / (fan_in + fan_out));
  return Tensor::Randn(shape, rng, 0.0f, stddev);
}

}  // namespace d2stgnn::nn
