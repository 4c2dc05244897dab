#include "tensor/tensor.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/grad_check.h"
#include "tensor/ops.h"

namespace d2stgnn {
namespace {

TEST(TensorBasics, ShapeAndFill) {
  Tensor t({2, 3}, 1.5f);
  EXPECT_EQ(t.dim(), 2);
  EXPECT_EQ(t.size(0), 2);
  EXPECT_EQ(t.size(-1), 3);
  EXPECT_EQ(t.numel(), 6);
  for (float v : t.Data()) EXPECT_FLOAT_EQ(v, 1.5f);
}

TEST(TensorBasics, FromData) {
  Tensor t({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_FLOAT_EQ(t.At({0, 0}), 1.0f);
  EXPECT_FLOAT_EQ(t.At({0, 1}), 2.0f);
  EXPECT_FLOAT_EQ(t.At({1, 0}), 3.0f);
  EXPECT_FLOAT_EQ(t.At({1, 1}), 4.0f);
}

TEST(TensorBasics, Eye) {
  Tensor eye = Tensor::Eye(3);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_FLOAT_EQ(eye.At({i, j}), i == j ? 1.0f : 0.0f);
    }
  }
}

TEST(TensorBasics, ScalarItem) {
  EXPECT_FLOAT_EQ(Tensor::Scalar(3.5f).Item(), 3.5f);
}

TEST(TensorBasics, DetachSharesNothing) {
  Tensor a = Tensor::Ones({2});
  a.SetRequiresGrad(true);
  Tensor b = a.Detach();
  EXPECT_FALSE(b.RequiresGrad());
  b.Data()[0] = 9.0f;
  EXPECT_FLOAT_EQ(a.At(0), 1.0f);
}

TEST(ElementwiseOps, AddSameShape) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {10, 20, 30, 40});
  Tensor c = Add(a, b);
  EXPECT_FLOAT_EQ(c.At(0), 11.0f);
  EXPECT_FLOAT_EQ(c.At(3), 44.0f);
}

TEST(ElementwiseOps, BroadcastBiasAdd) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor bias({3}, {10, 20, 30});
  Tensor c = Add(a, bias);
  EXPECT_FLOAT_EQ(c.At({0, 0}), 11.0f);
  EXPECT_FLOAT_EQ(c.At({1, 2}), 36.0f);
}

TEST(ElementwiseOps, BroadcastLeadingDim) {
  Tensor a({2, 1, 2}, {1, 2, 3, 4});
  Tensor b({3, 1}, {10, 20, 30});
  Tensor c = Mul(a, b);  // -> [2, 3, 2]
  EXPECT_EQ(c.shape(), (Shape{2, 3, 2}));
  EXPECT_FLOAT_EQ(c.At({0, 0, 0}), 10.0f);
  EXPECT_FLOAT_EQ(c.At({1, 2, 1}), 120.0f);
}

TEST(ElementwiseOps, ScalarOperators) {
  Tensor a({2}, {1.0f, -2.0f});
  EXPECT_FLOAT_EQ((a + 1.0f).At(0), 2.0f);
  EXPECT_FLOAT_EQ((a * 3.0f).At(1), -6.0f);
  EXPECT_FLOAT_EQ((1.0f - a).At(1), 3.0f);
  EXPECT_FLOAT_EQ((a / 2.0f).At(1), -1.0f);
}

TEST(ElementwiseOps, UnaryValues) {
  Tensor a({3}, {-1.0f, 0.0f, 2.0f});
  EXPECT_FLOAT_EQ(Relu(a).At(0), 0.0f);
  EXPECT_FLOAT_EQ(Relu(a).At(2), 2.0f);
  EXPECT_NEAR(Sigmoid(a).At(1), 0.5f, 1e-6f);
  EXPECT_NEAR(Tanh(a).At(2), std::tanh(2.0f), 1e-6f);
  EXPECT_FLOAT_EQ(Abs(a).At(0), 1.0f);
}

TEST(MatMulOp, TwoByTwo) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {5, 6, 7, 8});
  Tensor c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.At({0, 0}), 19.0f);
  EXPECT_FLOAT_EQ(c.At({0, 1}), 22.0f);
  EXPECT_FLOAT_EQ(c.At({1, 0}), 43.0f);
  EXPECT_FLOAT_EQ(c.At({1, 1}), 50.0f);
}

TEST(MatMulOp, BatchedBroadcastLhs) {
  // [N, M] x [B, M, d]: the static-support pattern of the diffusion model.
  Tensor p({1, 2, 2}, {1, 0, 0, 2});
  Tensor x({3, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(p, x);
  EXPECT_EQ(c.shape(), (Shape{3, 2, 2}));
  EXPECT_FLOAT_EQ(c.At({0, 0, 0}), 1.0f);
  EXPECT_FLOAT_EQ(c.At({0, 1, 0}), 6.0f);
  EXPECT_FLOAT_EQ(c.At({2, 1, 1}), 24.0f);
}

TEST(MatMulOp, NdTimes2d) {
  Tensor x({2, 3, 4}, std::vector<float>(24, 1.0f));
  Tensor w({4, 5}, std::vector<float>(20, 0.5f));
  Tensor y = MatMul(x, w);
  EXPECT_EQ(y.shape(), (Shape{2, 3, 5}));
  for (float v : y.Data()) EXPECT_FLOAT_EQ(v, 2.0f);
}

TEST(Reductions, SumAndMean) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(Sum(a).Item(), 21.0f);
  EXPECT_FLOAT_EQ(Mean(a).Item(), 3.5f);
  Tensor s0 = Sum(a, 0, false);
  EXPECT_EQ(s0.shape(), (Shape{3}));
  EXPECT_FLOAT_EQ(s0.At(0), 5.0f);
  Tensor s1 = Sum(a, 1, true);
  EXPECT_EQ(s1.shape(), (Shape{2, 1}));
  EXPECT_FLOAT_EQ(s1.At(1), 15.0f);
  EXPECT_FLOAT_EQ(Mean(a, 1, false).At(0), 2.0f);
}

TEST(Reductions, SoftmaxRowsSumToOne) {
  Rng rng(3);
  Tensor a = Tensor::Randn({4, 7}, rng);
  Tensor s = Softmax(a, -1);
  for (int64_t i = 0; i < 4; ++i) {
    float row = 0.0f;
    for (int64_t j = 0; j < 7; ++j) row += s.At({i, j});
    EXPECT_NEAR(row, 1.0f, 1e-5f);
  }
}

TEST(Reductions, SoftmaxStableWithLargeLogits) {
  Tensor a({1, 2}, {1000.0f, 1001.0f});
  Tensor s = Softmax(a, -1);
  EXPECT_NEAR(s.At(0) + s.At(1), 1.0f, 1e-5f);
  EXPECT_GT(s.At(1), s.At(0));
}

TEST(ShapeOps, ReshapeInfer) {
  Tensor a({2, 6}, std::vector<float>(12, 1.0f));
  Tensor b = Reshape(a, {3, -1});
  EXPECT_EQ(b.shape(), (Shape{3, 4}));
}

TEST(ShapeOps, PermuteRoundTrip) {
  Tensor a({2, 3, 4}, [] {
    std::vector<float> v(24);
    for (size_t i = 0; i < 24; ++i) v[i] = static_cast<float>(i);
    return v;
  }());
  Tensor p = Permute(a, {2, 0, 1});
  EXPECT_EQ(p.shape(), (Shape{4, 2, 3}));
  EXPECT_FLOAT_EQ(p.At({1, 0, 2}), a.At({0, 2, 1}));
  Tensor back = Permute(p, {1, 2, 0});
  for (int64_t i = 0; i < 24; ++i) EXPECT_FLOAT_EQ(back.At(i), a.At(i));
}

TEST(ShapeOps, TransposeMatrix) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = Transpose(a, 0, 1);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(t.At({2, 1}), 6.0f);
}

TEST(ShapeOps, ConcatAndSlice) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 3}, {5, 6, 7, 8, 9, 10});
  Tensor c = Concat({a, b}, 1);
  EXPECT_EQ(c.shape(), (Shape{2, 5}));
  EXPECT_FLOAT_EQ(c.At({0, 2}), 5.0f);
  EXPECT_FLOAT_EQ(c.At({1, 4}), 10.0f);
  Tensor s = Slice(c, 1, 2, 5);
  EXPECT_EQ(s.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(s.At({1, 0}), 8.0f);
}

TEST(ShapeOps, StackAndSelect) {
  Tensor a({2}, {1, 2});
  Tensor b({2}, {3, 4});
  Tensor s = Stack({a, b}, 0);
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  Tensor row = Select(s, 0, 1);
  EXPECT_EQ(row.shape(), (Shape{2}));
  EXPECT_FLOAT_EQ(row.At(0), 3.0f);
}

TEST(ShapeOps, PadFrontAddsZeros) {
  Tensor a({1, 2, 1}, {1, 2});
  Tensor p = PadFront(a, 1, 2);
  EXPECT_EQ(p.shape(), (Shape{1, 4, 1}));
  EXPECT_FLOAT_EQ(p.At({0, 0, 0}), 0.0f);
  EXPECT_FLOAT_EQ(p.At({0, 3, 0}), 2.0f);
}

TEST(ShapeOps, BroadcastToExpands) {
  Tensor a({1, 3}, {1, 2, 3});
  Tensor b = BroadcastTo(a, {2, 3});
  EXPECT_FLOAT_EQ(b.At({1, 2}), 3.0f);
}

TEST(IndexOps, EmbeddingLookup) {
  Tensor table({3, 2}, {0, 1, 10, 11, 20, 21});
  Tensor out = EmbeddingLookup(table, {2, 0, 2}, {3});
  EXPECT_EQ(out.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(out.At({0, 1}), 21.0f);
  EXPECT_FLOAT_EQ(out.At({1, 0}), 0.0f);
}

// ---------------------------------------------------------------------------
// Autograd.

TEST(Autograd, SimpleChain) {
  Tensor x = Tensor::Full({1}, 2.0f);
  x.SetRequiresGrad(true);
  Tensor y = Sum(Mul(x, x));  // y = x^2
  y.Backward();
  EXPECT_NEAR(x.Grad().At(0), 4.0f, 1e-5f);
}

TEST(Autograd, GradAccumulatesOverUses) {
  Tensor x = Tensor::Full({1}, 3.0f);
  x.SetRequiresGrad(true);
  Tensor y = Sum(Add(x, x));  // y = 2x
  y.Backward();
  EXPECT_NEAR(x.Grad().At(0), 2.0f, 1e-5f);
}

TEST(Autograd, NoGradGuardSuppressesTape) {
  Tensor x = Tensor::Ones({2});
  x.SetRequiresGrad(true);
  NoGradGuard guard;
  Tensor y = Mul(x, x);
  EXPECT_EQ(y.impl()->grad_fn, nullptr);
}

TEST(Autograd, BroadcastAddReducesGrad) {
  Tensor a = Tensor::Ones({2, 3});
  Tensor b = Tensor::Ones({3});
  a.SetRequiresGrad(true);
  b.SetRequiresGrad(true);
  Sum(Add(a, b)).Backward();
  EXPECT_EQ(b.Grad().shape(), (Shape{3}));
  for (int64_t i = 0; i < 3; ++i) EXPECT_NEAR(b.Grad().At(i), 2.0f, 1e-5f);
}

class GradCheckTest : public ::testing::Test {
 protected:
  Rng rng_{11};
};

TEST_F(GradCheckTest, MatMul) {
  Tensor a = Tensor::Randn({3, 4}, rng_).SetRequiresGrad(true);
  Tensor b = Tensor::Randn({4, 2}, rng_).SetRequiresGrad(true);
  auto loss = [&] { return Sum(Mul(MatMul(a, b), MatMul(a, b))); };
  auto result = CheckGradients(loss, {a, b}, rng_);
  EXPECT_TRUE(result.ok) << result.max_relative_error;
}

TEST_F(GradCheckTest, BatchedMatMulBroadcast) {
  Tensor p = Tensor::Randn({2, 3}, rng_).SetRequiresGrad(true);
  Tensor x = Tensor::Randn({4, 3, 2}, rng_).SetRequiresGrad(true);
  auto loss = [&] { return Sum(Abs(MatMul(p, x))); };
  auto result = CheckGradients(loss, {p, x}, rng_);
  EXPECT_TRUE(result.ok) << result.max_relative_error;
}

TEST_F(GradCheckTest, SoftmaxMul) {
  Tensor a = Tensor::Randn({3, 5}, rng_).SetRequiresGrad(true);
  Tensor w = Tensor::Randn({3, 5}, rng_).SetRequiresGrad(true);
  auto loss = [&] { return Sum(Mul(Softmax(a, -1), w)); };
  auto result = CheckGradients(loss, {a, w}, rng_);
  EXPECT_TRUE(result.ok) << result.max_relative_error;
}

TEST_F(GradCheckTest, MulAndAbs) {
  Tensor a = Tensor::Rand({4}, rng_, 0.5f, 2.0f).SetRequiresGrad(true);
  Tensor b = Tensor::Rand({4}, rng_, 0.5f, 2.0f).SetRequiresGrad(true);
  // Every product is negative: clear of Abs's kink at 0.
  auto loss = [&] { return Sum(Abs(Mul(MulScalar(a, -1.0f), b))); };
  auto result = CheckGradients(loss, {a, b}, rng_, 1e-3f);
  EXPECT_TRUE(result.ok) << result.max_relative_error;
}

TEST_F(GradCheckTest, SigmoidTanh) {
  Tensor a = Tensor::Randn({6}, rng_).SetRequiresGrad(true);
  auto loss = [&] { return Sum(Tanh(Mul(Sigmoid(a), Tanh(a)))); };
  auto result = CheckGradients(loss, {a}, rng_);
  EXPECT_TRUE(result.ok) << result.max_relative_error;
}

TEST_F(GradCheckTest, ConcatSlicePermute) {
  Tensor a = Tensor::Randn({2, 3}, rng_).SetRequiresGrad(true);
  Tensor b = Tensor::Randn({2, 2}, rng_).SetRequiresGrad(true);
  auto loss = [&] {
    Tensor c = Concat({a, b}, 1);               // [2, 5]
    Tensor p = Permute(c, {1, 0});              // [5, 2]
    return Sum(Mul(Slice(p, 0, 1, 4), Slice(p, 0, 1, 4)));
  };
  auto result = CheckGradients(loss, {a, b}, rng_);
  EXPECT_TRUE(result.ok) << result.max_relative_error;
}

TEST_F(GradCheckTest, SumDimMeanReduce) {
  Tensor a = Tensor::Randn({3, 4}, rng_).SetRequiresGrad(true);
  auto loss = [&] { return Sum(Mul(Mean(a, 1, true), Sum(a, 0, false))); };
  auto result = CheckGradients(loss, {a}, rng_);
  EXPECT_TRUE(result.ok) << result.max_relative_error;
}

TEST_F(GradCheckTest, EmbeddingScatter) {
  Tensor table = Tensor::Randn({5, 3}, rng_).SetRequiresGrad(true);
  auto loss = [&] {
    Tensor rows = EmbeddingLookup(table, {1, 1, 4}, {3});
    return Sum(Mul(rows, rows));
  };
  auto result = CheckGradients(loss, {table}, rng_);
  EXPECT_TRUE(result.ok) << result.max_relative_error;
}

TEST_F(GradCheckTest, BroadcastToReduce) {
  Tensor a = Tensor::Randn({1, 4}, rng_).SetRequiresGrad(true);
  auto loss = [&] { return Sum(Abs(BroadcastTo(a, {3, 4}))); };
  auto result = CheckGradients(loss, {a}, rng_);
  EXPECT_TRUE(result.ok) << result.max_relative_error;
}

// ---------------------------------------------------------------------------
// Gradient adoption: the first write to a gradient adopts the delta (moves
// an owned buffer, copies a borrowed one); later writes add into it.

TEST(TensorGradAdoption, BorrowedDeltaIsCopiedAndOutputGradKept) {
  Tensor p = Tensor::Full({2, 3}, 1.0f).SetRequiresGrad(true);
  Tensor q = Tensor::Full({2, 3}, 2.0f).SetRequiresGrad(true);
  Tensor w({2, 3}, {1.0f, -2.0f, 3.0f, -4.0f, 5.0f, -6.0f});
  // Add's backward hands its output gradient to both inputs as is.
  Tensor out = Add(p, q);
  Sum(Mul(out, w)).Backward();
  EXPECT_EQ(out.GradData(), w.Data());
  EXPECT_EQ(p.GradData(), w.Data());
  EXPECT_EQ(q.GradData(), w.Data());
  EXPECT_NE(p.GradData().data(), out.GradData().data());
  EXPECT_NE(q.GradData().data(), out.GradData().data());
  EXPECT_NE(p.GradData().data(), q.GradData().data());
}

TEST(TensorGradAdoption, LeafWithThreeConsumersGetsTheirExactSum) {
  Tensor x = Tensor::Full({3, 3}, 0.5f).SetRequiresGrad(true);
  Tensor four = MulScalar(Tensor::Eye(3), 4.0f);
  // Consumers add 1 (borrowed, through Reshape), 2 (owned, MulScalar) and
  // 4 (accumulated in place by MatMul) to every element.
  Tensor loss = Add(Add(Sum(Reshape(x, {9})), Sum(MulScalar(x, 2.0f))),
                    Sum(MatMul(x, four)));
  loss.Backward();
  for (float g : x.GradData()) EXPECT_EQ(g, 7.0f);
}

TEST(TensorGradAdoption, SameTensorOnBothSides) {
  Tensor x({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  x.SetRequiresGrad(true);
  Sum(Add(x, x)).Backward();
  for (float g : x.GradData()) EXPECT_EQ(g, 2.0f);

  // d/dx sum(x x) = 1 x^T + x^T 1: element (r, c) is row c's sum plus
  // column r's sum.
  x.ZeroGrad();
  Sum(MatMul(x, x)).Backward();
  const std::vector<float> want = {3.0f + 4.0f, 7.0f + 4.0f, 3.0f + 6.0f,
                                   7.0f + 6.0f};
  EXPECT_EQ(x.GradData(), want);
}

TEST(TensorGradAdoption, SecondBackwardAddsOntoAdoptedBuffer) {
  Tensor x({3}, {1.0f, -2.0f, 0.5f});
  x.SetRequiresGrad(true);
  Tensor loss = Sum(x);  // adopts an owned buffer of ones
  loss.Backward();
  loss.Backward();
  for (float g : x.GradData()) EXPECT_EQ(g, 2.0f);

  // Through a pass-through node the interior gradient accumulates too (the
  // root is re-seeded, every other gradient is not): 1, then 1 + 2.
  Tensor y({3}, {1.0f, -2.0f, 0.5f});
  y.SetRequiresGrad(true);
  Tensor chained = Sum(Reshape(y, {3, 1}));
  chained.Backward();
  chained.Backward();
  for (float g : y.GradData()) EXPECT_EQ(g, 3.0f);
}

// A graph in which the parameters have several consumers and the
// pass-through backwards (Permute, Slice, Concat, SumDim, Reshape,
// BroadcastTo, broadcast Add/Sub) all run.
Tensor AdoptionLoss(const Tensor& x, const Tensor& w, const Tensor& bias) {
  const Tensor h = Add(MatMul(x, w), bias);  // [2, 3, 4]
  const Tensor p = Permute(h, {0, 2, 1});    // [2, 4, 3]
  const Tensor c = Concat({Slice(p, 1, 0, 2), Tanh(p)}, 1);  // [2, 6, 3]
  const Tensor s = Sum(c, 1, /*keepdim=*/false);             // [2, 3]
  const Tensor r = Reshape(MatMul(h, w), {2, 12});
  const Tensor bb = Reshape(BroadcastTo(bias, {2, 3, 4}), {2, 12});
  return Add(Sum(Mul(s, s)), Sum(Mul(Sub(r, bb), r)));
}

TEST(TensorGradAdoption, ZeroGradThenNewStepMatchesFreshModelBitwise) {
  Rng rng(5);
  const Tensor x = Tensor::Randn({2, 3, 4}, rng);
  const Tensor w0 = Tensor::Randn({4, 4}, rng);
  const Tensor b0 = Tensor::Randn({4}, rng);

  Tensor w = w0.Clone().SetRequiresGrad(true);
  Tensor b = b0.Clone().SetRequiresGrad(true);
  AdoptionLoss(x, w, b).Backward();
  w.ZeroGrad();
  b.ZeroGrad();
  AdoptionLoss(x, w, b).Backward();

  Tensor fresh_w = w0.Clone().SetRequiresGrad(true);
  Tensor fresh_b = b0.Clone().SetRequiresGrad(true);
  AdoptionLoss(x, fresh_w, fresh_b).Backward();

  ASSERT_EQ(w.GradData().size(), fresh_w.GradData().size());
  ASSERT_EQ(b.GradData().size(), fresh_b.GradData().size());
  EXPECT_EQ(0, std::memcmp(w.GradData().data(), fresh_w.GradData().data(),
                           w.GradData().size() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(b.GradData().data(), fresh_b.GradData().data(),
                           b.GradData().size() * sizeof(float)));
}

TEST(TensorGradAdoption, FirstTouchKeepsNegativeZero) {
  Tensor x = Tensor::Ones({2}).SetRequiresGrad(true);
  Sum(MulScalar(x, -0.0f)).Backward();
  for (float g : x.GradData()) EXPECT_TRUE(std::signbit(g)) << g;
}

}  // namespace
}  // namespace d2stgnn
