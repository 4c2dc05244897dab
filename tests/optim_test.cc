#include "optim/adam.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tensor/ops.h"

namespace d2stgnn::optim {
namespace {

// Minimizes f(w) = (w - target)^2 with the given optimizer; returns |w -
// target| after `steps`.
template <typename Opt>
float MinimizeQuadratic(Opt& optimizer, Tensor& w, float target,
                        int64_t steps) {
  for (int64_t i = 0; i < steps; ++i) {
    Tensor diff = Sub(w, Tensor::Scalar(target));
    Tensor loss = Sum(Mul(diff, diff));
    optimizer.ZeroGrad();
    loss.Backward();
    optimizer.Step();
  }
  return std::fabs(w.At(0) - target);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Tensor w = Tensor::Zeros({1}).SetRequiresGrad(true);
  Adam adam({w}, 0.2f);
  EXPECT_LT(MinimizeQuadratic(adam, w, -2.0f, 100), 1e-2f);
}

TEST(AdamTest, FirstStepSizeIsLearningRate) {
  // With bias correction, the first Adam update has magnitude ~lr
  // regardless of gradient scale.
  Tensor w = Tensor::Zeros({1}).SetRequiresGrad(true);
  Adam adam({w}, 0.1f);
  Tensor loss = Sum(MulScalar(w, 1000.0f));
  adam.ZeroGrad();
  loss.Backward();
  adam.Step();
  EXPECT_NEAR(w.At(0), -0.1f, 1e-4f);
}

TEST(AdamTest, SkipsParamsWithoutGrad) {
  Tensor used = Tensor::Zeros({1}).SetRequiresGrad(true);
  Tensor unused = Tensor::Full({1}, 7.0f).SetRequiresGrad(true);
  Adam adam({used, unused}, 0.1f);
  Tensor loss = Sum(Mul(used, used));
  adam.ZeroGrad();
  loss.Backward();
  adam.Step();
  EXPECT_FLOAT_EQ(unused.At(0), 7.0f);
}

TEST(ClipGradNorm, ScalesDownLargeGradients) {
  Tensor w = Tensor::Zeros({2}).SetRequiresGrad(true);
  Tensor loss = Sum(MulScalar(w, 30.0f));  // grad = [30, 30]
  loss.Backward();
  const float norm = ClipGradNorm({w}, 1.0f);
  EXPECT_NEAR(norm, 30.0f * std::sqrt(2.0f), 1e-3f);
  double clipped = 0.0;
  for (float g : w.GradData()) clipped += static_cast<double>(g) * g;
  EXPECT_NEAR(std::sqrt(clipped), 1.0, 1e-4);
}

TEST(ClipGradNorm, LeavesSmallGradientsAlone) {
  Tensor w = Tensor::Zeros({2}).SetRequiresGrad(true);
  Sum(MulScalar(w, 0.1f)).Backward();
  ClipGradNorm({w}, 1.0f);
  EXPECT_NEAR(w.GradData()[0], 0.1f, 1e-6f);
}

}  // namespace
}  // namespace d2stgnn::optim
