#include "nn/linear.h"

#include <cmath>

#include <gtest/gtest.h>

#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/gru_cell.h"
#include "nn/init.h"
#include "nn/lstm_cell.h"
#include "nn/positional_encoding.h"
#include "tensor/grad_check.h"
#include "tensor/ops.h"

namespace d2stgnn::nn {
namespace {

TEST(LinearLayer, ShapeAndBias) {
  Rng rng(1);
  Linear layer(4, 3, rng);
  Tensor x = Tensor::Ones({2, 4});
  Tensor y = layer.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 3}));
  EXPECT_EQ(layer.Parameters().size(), 2u);  // weight + bias
  Linear no_bias(4, 3, rng, /*bias=*/false);
  EXPECT_EQ(no_bias.Parameters().size(), 1u);
}

TEST(LinearLayer, AppliesToLastDimOfAnyRank) {
  Rng rng(1);
  Linear layer(5, 2, rng);
  Tensor x = Tensor::Randn({3, 4, 6, 5}, rng);
  EXPECT_EQ(layer.Forward(x).shape(), (Shape{3, 4, 6, 2}));
}

TEST(LinearLayer, GradCheck) {
  Rng rng(2);
  Linear layer(3, 2, rng);
  Tensor x = Tensor::Randn({4, 3}, rng).SetRequiresGrad(true);
  std::vector<Tensor> params = layer.Parameters();
  params.push_back(x);
  auto loss = [&] { return Sum(Mul(layer.Forward(x), layer.Forward(x))); };
  auto result = CheckGradients(loss, params, rng);
  EXPECT_TRUE(result.ok) << result.max_relative_error;
}

TEST(GruCellTest, StateShapePreserved) {
  Rng rng(4);
  GruCell cell(5, 7, rng);
  Tensor x = Tensor::Randn({3, 5}, rng);
  Tensor h = Tensor::Zeros({3, 7});
  Tensor h2 = cell.Forward(x, h);
  EXPECT_EQ(h2.shape(), (Shape{3, 7}));
}

TEST(GruCellTest, ZeroUpdateGateKeepsState) {
  // With all weights zero, z = sigmoid(0) = 0.5 and candidate = tanh(0) = 0,
  // so the new state is 0.5 * h.
  Rng rng(4);
  GruCell cell(2, 2, rng);
  for (Tensor& p : cell.Parameters()) {
    std::fill(p.Data().begin(), p.Data().end(), 0.0f);
  }
  Tensor x = Tensor::Ones({1, 2});
  Tensor h = Tensor::Full({1, 2}, 0.8f);
  Tensor h2 = cell.Forward(x, h);
  EXPECT_NEAR(h2.At(0), 0.4f, 1e-5f);
}

TEST(GruCellTest, GradFlowsThroughTime) {
  Rng rng(5);
  GruCell cell(3, 3, rng);
  Tensor x = Tensor::Randn({2, 3}, rng).SetRequiresGrad(true);
  auto loss = [&] {
    Tensor h = Tensor::Zeros({2, 3});
    for (int t = 0; t < 4; ++t) h = cell.Forward(x, h);
    return Sum(Mul(h, h));
  };
  std::vector<Tensor> params = {x, cell.Parameters()[0]};
  auto result = CheckGradients(loss, params, rng, 1e-2f, 3e-2f);
  EXPECT_TRUE(result.ok) << result.max_relative_error;
}

TEST(LstmCellTest, StateShapesAndForgetBias) {
  Rng rng(6);
  LstmCell cell(4, 6, rng);
  LstmCell::State s{Tensor::Zeros({2, 6}), Tensor::Zeros({2, 6})};
  auto s2 = cell.Forward(Tensor::Randn({2, 4}, rng), s);
  EXPECT_EQ(s2.h.shape(), (Shape{2, 6}));
  EXPECT_EQ(s2.c.shape(), (Shape{2, 6}));
  // Forget bias initialized to 1.
  bool found = false;
  for (auto& [name, p] : cell.NamedParameters()) {
    if (name == "b_f") {
      found = true;
      for (float v : p.Data()) EXPECT_FLOAT_EQ(v, 1.0f);
    }
  }
  EXPECT_TRUE(found);
}

TEST(AttentionLayer, OutputShapeMatchesInput) {
  Rng rng(7);
  MultiHeadSelfAttention attention(8, 2, rng);
  Tensor x = Tensor::Randn({3, 5, 8}, rng);
  EXPECT_EQ(attention.Forward(x).shape(), (Shape{3, 5, 8}));
}

TEST(AttentionLayer, PermutationEquivariantOverTime) {
  // Without positional encoding, self-attention commutes with permutations
  // of the time axis — exactly why the paper adds Eq. 12.
  Rng rng(8);
  MultiHeadSelfAttention attention(4, 2, rng);
  Tensor x = Tensor::Randn({1, 3, 4}, rng);
  NoGradGuard no_grad;
  Tensor y = attention.Forward(x);
  // Reverse time: steps {2, 1, 0}.
  Tensor x_rev = Concat({Slice(x, 1, 2, 3), Slice(x, 1, 1, 2),
                         Slice(x, 1, 0, 1)}, 1);
  Tensor y_rev = attention.Forward(x_rev);
  for (int64_t d = 0; d < 4; ++d) {
    EXPECT_NEAR(y.At({0, 0, d}), y_rev.At({0, 2, d}), 1e-4f);
  }
}

TEST(AttentionLayer, GradCheck) {
  Rng rng(9);
  MultiHeadSelfAttention attention(4, 2, rng);
  Tensor x = Tensor::Randn({2, 3, 4}, rng).SetRequiresGrad(true);
  std::vector<Tensor> params = attention.Parameters();
  params.push_back(x);
  auto loss = [&] { return Sum(Abs(attention.Forward(x))); };
  auto result = CheckGradients(loss, params, rng, 1e-2f, 3e-2f, 8);
  EXPECT_TRUE(result.ok) << result.max_relative_error;
}

TEST(EmbeddingLayer, LookupAndGrad) {
  Rng rng(10);
  Embedding embedding(6, 3, rng);
  Tensor rows = embedding.Forward({1, 4, 1}, {3});
  EXPECT_EQ(rows.shape(), (Shape{3, 3}));
  for (int64_t d = 0; d < 3; ++d) {
    EXPECT_FLOAT_EQ(rows.At({0, d}), rows.At({2, d}));
  }
  Sum(rows).Backward();
  // Row 1 used twice -> grad 2; row 0 unused -> grad 0.
  EXPECT_FLOAT_EQ(embedding.table().Grad().At({1, 0}), 2.0f);
  EXPECT_FLOAT_EQ(embedding.table().Grad().At({0, 0}), 0.0f);
}

TEST(PositionalEncodingTest, MatchesEq12) {
  PositionalEncoding pe(10, 4);
  const Tensor& table = pe.table();
  // e_{t,0} = sin(t), e_{t,1} = cos(t), e_{t,2} = sin(t/10000^{2/4}).
  EXPECT_NEAR(table.At({3, 0}), std::sin(3.0), 1e-5);
  EXPECT_NEAR(table.At({3, 1}), std::cos(3.0), 1e-5);
  EXPECT_NEAR(table.At({3, 2}), std::sin(3.0 / std::pow(10000.0, 0.5)), 1e-5);
}

TEST(PositionalEncodingTest, AddsToSequence) {
  PositionalEncoding pe(10, 4);
  Tensor x = Tensor::Zeros({2, 5, 4});
  Tensor y = pe.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 5, 4}));
  EXPECT_NEAR(y.At({1, 2, 0}), std::sin(2.0), 1e-5);
}

// Two Linear children under one parent: the smallest module tree.
class TwoLayer : public Module {
 public:
  explicit TwoLayer(Rng& rng)
      : Module("two_layer"), first_(3, 3, rng), second_(3, 3, rng) {
    RegisterChild(&first_);
    RegisterChild(&second_);
  }
  Tensor Forward(const Tensor& x) const {
    return second_.Forward(Relu(first_.Forward(x)));
  }

 private:
  Linear first_;
  Linear second_;
};

TEST(ModuleTree, ParameterAggregationAndZeroGrad) {
  Rng rng(11);
  TwoLayer net(rng);
  EXPECT_EQ(net.Parameters().size(), 4u);  // 2 layers x (W, b)
  Tensor x = Tensor::Ones({1, 3});
  Sum(net.Forward(x)).Backward();
  bool any_grad = false;
  for (const Tensor& p : net.Parameters()) {
    if (!p.GradData().empty()) any_grad = true;
  }
  EXPECT_TRUE(any_grad);
  net.ZeroGrad();
  for (const Tensor& p : net.Parameters()) {
    EXPECT_TRUE(p.GradData().empty());
  }
}

TEST(InitTest, XavierBoundsRespected) {
  Rng rng(12);
  Tensor w = XavierUniform({100, 100}, rng);
  const float bound = std::sqrt(6.0f / 200.0f);
  for (float v : w.Data()) {
    EXPECT_GE(v, -bound);
    EXPECT_LE(v, bound);
  }
}

TEST(InitTest, XavierNormalVarianceApproximatelyCorrect) {
  Rng rng(13);
  Tensor w = XavierNormal({200, 200}, rng);
  double sum_sq = 0.0;
  for (float v : w.Data()) sum_sq += static_cast<double>(v) * v;
  const double variance = sum_sq / static_cast<double>(w.numel());
  EXPECT_NEAR(variance, 2.0 / 400.0, 1e-3);
}

}  // namespace
}  // namespace d2stgnn::nn
