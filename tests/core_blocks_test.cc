#include "core/decoupled_layer.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "core/dynamic_graph.h"
#include "core/estimation_gate.h"
#include "graph/localized_transition.h"
#include "graph/sensor_graph.h"
#include "graph/transition.h"
#include "tensor/grad_check.h"
#include "tensor/ops.h"

namespace d2stgnn::core {
namespace {

constexpr int64_t kBatch = 2;
constexpr int64_t kSteps = 6;
constexpr int64_t kNodes = 5;
constexpr int64_t kDim = 8;
constexpr int64_t kEmbed = 4;

// The first k_s powers of `p` with self-loops masked, as D2Stgnn hands them
// to its layers.
std::vector<Tensor> MaskedPowers(const Tensor& p, int64_t k_s) {
  std::vector<Tensor> masked;
  for (const Tensor& power : graph::TransitionPowers(p, k_s)) {
    masked.push_back(graph::MaskSelfLoops(power));
  }
  return masked;
}

// Eq. 4's localized transitions of the same powers, [.., N, k_t*N].
std::vector<Tensor> LocalizedPowers(const Tensor& p, int64_t k_s,
                                    int64_t k_t) {
  std::vector<Tensor> localized;
  for (const Tensor& power : graph::TransitionPowers(p, k_s)) {
    localized.push_back(graph::LocalizedTransition(power, k_t));
  }
  return localized;
}

struct Fixture {
  Rng rng{17};
  Tensor x = Tensor::Randn({kBatch, kSteps, kNodes, kDim}, rng);
  Tensor t_day = Tensor::Randn({kBatch, kSteps, kEmbed}, rng);
  Tensor t_week = Tensor::Randn({kBatch, kSteps, kEmbed}, rng);
  Tensor e_u = Tensor::Randn({kNodes, kEmbed}, rng);
  Tensor e_d = Tensor::Randn({kNodes, kEmbed}, rng);
  Tensor p;
  std::vector<std::vector<Tensor>> supports;

  Fixture() {
    graph::SensorNetworkOptions options;
    options.num_nodes = kNodes;
    options.neighbors = 2;
    const auto net = graph::BuildRandomSensorNetwork(options, rng);
    p = graph::ForwardTransition(net.adjacency);
    for (int support = 0; support < 2; ++support) {
      supports.push_back(MaskedPowers(p, 2));
    }
  }
};

TEST(EstimationGateTest, OutputInGateRangeOfInput) {
  Fixture f;
  EstimationGate gate(kEmbed, kDim, f.rng);
  NoGradGuard no_grad;
  const Tensor gated =
      gate.Forward(f.t_day, f.t_week, f.e_u, f.e_d, f.x);
  ASSERT_EQ(gated.shape(), f.x.shape());
  // Gate in (0, 1): |gated| <= |x| elementwise and sign preserved.
  for (int64_t i = 0; i < f.x.numel(); ++i) {
    EXPECT_LE(std::fabs(gated.At(i)), std::fabs(f.x.At(i)) + 1e-6f);
    if (std::fabs(f.x.At(i)) > 1e-6f) {
      EXPECT_GE(gated.At(i) * f.x.At(i), 0.0f);
    }
  }
}

TEST(EstimationGateTest, GateSharedAcrossChannels) {
  // Lambda is [.., 1]: the ratio gated/x must be identical for every
  // channel of the same (b, t, i).
  Fixture f;
  EstimationGate gate(kEmbed, kDim, f.rng);
  NoGradGuard no_grad;
  const Tensor gated =
      gate.Forward(f.t_day, f.t_week, f.e_u, f.e_d, f.x);
  const float ratio0 = gated.At({0, 0, 0, 0}) / f.x.At({0, 0, 0, 0});
  for (int64_t c = 1; c < kDim; ++c) {
    const float ratio = gated.At({0, 0, 0, c}) / f.x.At({0, 0, 0, c});
    EXPECT_NEAR(ratio, ratio0, 1e-4f);
  }
}

TEST(EstimationGateTest, GradientsReachEmbeddings) {
  Fixture f;
  f.e_u.SetRequiresGrad(true);
  EstimationGate gate(kEmbed, kDim, f.rng);
  Sum(gate.Forward(f.t_day, f.t_week, f.e_u, f.e_d, f.x)).Backward();
  double mass = 0.0;
  for (float g : f.e_u.GradData()) mass += std::fabs(g);
  EXPECT_GT(mass, 0.0);
}

TEST(DiffusionBlockTest, OutputShapes) {
  Fixture f;
  DiffusionBlock block(kDim, /*k_s=*/2, /*k_t=*/2, /*num_supports=*/2,
                       /*forecast_horizon=*/4, /*autoregressive=*/true,
                       f.rng);
  const BlockOutput out = block.Forward(f.x, f.supports);
  EXPECT_EQ(out.hidden_sequence.shape(),
            (Shape{kBatch, kSteps, kNodes, kDim}));
  EXPECT_EQ(out.hidden_forecast.shape(), (Shape{kBatch, 4, kNodes, kDim}));
  EXPECT_EQ(out.backcast.shape(), (Shape{kBatch, kSteps, kNodes, kDim}));
}

TEST(DiffusionBlockTest, SelfSignalDoesNotDiffuse) {
  // The localized transition masks self-loops (Eq. 4): perturbing node j's
  // input must not change H_t at node j through the *spatial* path when the
  // graph has no j->j two-hop cycle... Instead verify the direct property:
  // with an identity transition matrix, the localized conv output is zero
  // (everything is masked).
  Fixture f;
  DiffusionBlock block(kDim, 1, 1, 1, 2, true, f.rng);
  std::vector<std::vector<Tensor>> identity_support = {
      {graph::MaskSelfLoops(Tensor::Eye(kNodes))}};
  NoGradGuard no_grad;
  const BlockOutput out = block.Forward(f.x, identity_support);
  for (float v : out.hidden_sequence.Data()) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(DiffusionBlockTest, DirectForecastVariantShapes) {
  Fixture f;
  DiffusionBlock block(kDim, 2, 2, 2, 4, /*autoregressive=*/false, f.rng);
  const BlockOutput out = block.Forward(f.x, f.supports);
  EXPECT_EQ(out.hidden_forecast.shape(), (Shape{kBatch, 4, kNodes, kDim}));
}

TEST(DiffusionBlockTest, AcceptsBatchedDynamicSupports) {
  Fixture f;
  DiffusionBlock block(kDim, 2, 2, 1, 4, true, f.rng);
  Tensor dynamic = BroadcastTo(Unsqueeze(f.p, 0), {kBatch, kNodes, kNodes});
  const BlockOutput out = block.Forward(f.x, {MaskedPowers(dynamic, 2)});
  EXPECT_EQ(out.hidden_sequence.shape(),
            (Shape{kBatch, kSteps, kNodes, kDim}));
}

// How a per-step reference forms each step's spatial product.
enum class ConvForm {
  // M_{s,k} · sum_j sigma(X_{t-kt+1+j} W): the block's own summation order.
  kMaskedPower,
  // Eq. 4 as written: the [N, k_t*N] localized matrix against X^lc_t, the
  // k_t transformed frames stacked on the node axis.
  kLocalized,
};

// The diffusion block's forward with the convolution run step by step, one
// MatMul pair per (step, support, order), from `block`'s own parameters.
// `supports` holds masked powers. With kMaskedPower it is the bitwise
// reference for the whole-window form; with kLocalized it is Eq. 4 verbatim,
// equal up to summation order.
BlockOutput PerStepDiffusionReference(
    const DiffusionBlock& block, int64_t k_s, int64_t num_supports,
    int64_t horizon, bool autoregressive, const Tensor& x,
    const std::vector<std::vector<Tensor>>& supports, ConvForm form) {
  const std::vector<Tensor> params = block.Parameters();
  const int64_t k_t = block.k_t();
  const int64_t batch = x.size(0);
  const int64_t steps = x.size(1);
  const int64_t nodes = x.size(2);
  const int64_t dim = x.size(3);
  // Parameters: W_conv[s*k_s + k], then (weight, bias) of frame_fc[0..kt),
  // forecast_fc1, forecast_fc2, backcast_fc1, backcast_fc2.
  const size_t linear0 = static_cast<size_t>(num_supports * k_s);
  const auto linear = [&](size_t index, const Tensor& in) {
    const size_t w = linear0 + 2 * index;
    return Add(MatMul(in, params[w]), params[w + 1]);
  };
  const size_t fc1 = static_cast<size_t>(k_t);

  std::vector<Tensor> transformed;
  const Tensor padded = PadFront(x, 1, k_t - 1);
  for (int64_t j = 0; j < k_t; ++j) {
    transformed.push_back(Relu(linear(static_cast<size_t>(j), padded)));
  }
  std::vector<Tensor> hidden_steps;
  for (int64_t t = 0; t < steps; ++t) {
    std::vector<Tensor> rows;
    for (int64_t j2 = 0; j2 < k_t; ++j2) {
      rows.push_back(Reshape(
          Slice(transformed[static_cast<size_t>(k_t - 1 - j2)], 1, t + j2,
                t + j2 + 1),
          {batch, nodes, dim}));
    }
    Tensor features;
    if (form == ConvForm::kLocalized) {
      features = Concat(rows, 1);  // X^lc_t, [B, k_t*N, d]
    } else {
      for (const Tensor& row : rows) {
        features = features.defined() ? Add(features, row) : row;
      }
    }
    Tensor h_t;
    for (size_t s = 0; s < supports.size(); ++s) {
      for (int64_t k = 0; k < k_s; ++k) {
        Tensor p = supports[s][static_cast<size_t>(k)];
        if (form == ConvForm::kLocalized) {
          p = graph::LocalizedTransition(p, k_t);
        }
        if (p.dim() == 2) p = Unsqueeze(p, 0);
        const Tensor conv = MatMul(
            MatMul(p, features),
            params[s * static_cast<size_t>(k_s) + static_cast<size_t>(k)]);
        h_t = h_t.defined() ? Add(h_t, conv) : conv;
      }
    }
    hidden_steps.push_back(h_t);
  }
  BlockOutput out;
  out.hidden_sequence = Stack(hidden_steps, 1);
  if (autoregressive) {
    std::vector<Tensor> window;
    for (int64_t j = std::max<int64_t>(0, steps - k_t); j < steps; ++j) {
      window.push_back(hidden_steps[static_cast<size_t>(j)]);
    }
    while (static_cast<int64_t>(window.size()) < k_t) {
      window.insert(window.begin(), Tensor::Zeros({batch, nodes, dim}));
    }
    std::vector<Tensor> future;
    for (int64_t f = 0; f < horizon; ++f) {
      const Tensor next =
          linear(fc1 + 1, Relu(linear(fc1, Concat(window, -1))));
      future.push_back(next);
      window.erase(window.begin());
      window.push_back(next);
    }
    out.hidden_forecast = Stack(future, 1);
  } else {
    Tensor flat =
        linear(fc1 + 1, Relu(linear(fc1, hidden_steps.back())));
    flat = Reshape(flat, {batch, nodes, horizon, dim});
    out.hidden_forecast = Permute(flat, {0, 2, 1, 3});
  }
  out.backcast =
      linear(fc1 + 3, Relu(linear(fc1 + 2, out.hidden_sequence)));
  return out;
}

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(std::memcmp(a.Data().data(), b.Data().data(),
                        a.Data().size() * sizeof(float)),
            0);
}

void ExpectNear(const Tensor& a, const Tensor& b, float tolerance) {
  ASSERT_EQ(a.shape(), b.shape());
  float worst = 0.0f;
  for (int64_t i = 0; i < a.numel(); ++i) {
    worst = std::max(worst, std::fabs(a.At(i) - b.At(i)));
  }
  EXPECT_LE(worst, tolerance);
}

// Per-sample transitions for the batched cases: row-stochastic [B, N, N].
Tensor RandomDynamicTransition(Rng& rng) {
  return Softmax(Tensor::Randn({kBatch, kNodes, kNodes}, rng), -1);
}

// Forward and backward supports of `p` as masked powers: the model's form.
std::vector<std::vector<Tensor>> BothDirections(const Tensor& p,
                                                int64_t k_s) {
  const bool batched = p.dim() == 3;
  return {MaskedPowers(p, k_s),
          MaskedPowers(batched ? Transpose(p, 1, 2) : Transpose(p, 0, 1),
                       k_s)};
}

TEST(DiffusionBlockTest, WholeWindowMatchesPerStepLoopBitwise) {
  constexpr int64_t kOrders = 2;
  constexpr int64_t kHorizon = 3;
  Fixture f;
  Rng rng(29);
  const Tensor dynamic = RandomDynamicTransition(rng);
  const Tensor x_short = Slice(f.x, 1, 0, 2);  // shorter than k_t = 3
  NoGradGuard no_grad;
  for (const bool batched : {false, true}) {
    const auto supports = BothDirections(batched ? dynamic : f.p, kOrders);
    for (const int64_t k_t : {1, 2, 3}) {
      for (const bool autoregressive : {true, false}) {
        DiffusionBlock block(kDim, kOrders, k_t, /*num_supports=*/2,
                             kHorizon, autoregressive, rng);
        for (const Tensor& x : {f.x, x_short}) {
          SCOPED_TRACE(testing::Message()
                       << "batched=" << batched << " k_t=" << k_t
                       << " autoregressive=" << autoregressive
                       << " steps=" << x.size(1));
          const BlockOutput got = block.Forward(x, supports);
          const BlockOutput want = PerStepDiffusionReference(
              block, kOrders, 2, kHorizon, autoregressive, x, supports,
              ConvForm::kMaskedPower);
          ExpectBitwiseEqual(got.hidden_sequence, want.hidden_sequence);
          ExpectBitwiseEqual(got.hidden_forecast, want.hidden_forecast);
          ExpectBitwiseEqual(got.backcast, want.backcast);
        }
      }
    }
  }
}

TEST(DiffusionBlockTest, MatchesLiteralEq4PerStepLoopWithinTolerance) {
  // The block sums the k_t frames before one [N, N] product; Eq. 4 as
  // written reduces over all k_t*N stacked rows. Same math, other order.
  constexpr int64_t kOrders = 2;
  constexpr int64_t kHorizon = 3;
  Fixture f;
  Rng rng(31);
  const Tensor dynamic = RandomDynamicTransition(rng);
  const Tensor x_short = Slice(f.x, 1, 0, 2);
  NoGradGuard no_grad;
  for (const bool batched : {false, true}) {
    const auto supports = BothDirections(batched ? dynamic : f.p, kOrders);
    for (const int64_t k_t : {1, 2, 3}) {
      for (const bool autoregressive : {true, false}) {
        DiffusionBlock block(kDim, kOrders, k_t, /*num_supports=*/2,
                             kHorizon, autoregressive, rng);
        for (const Tensor& x : {f.x, x_short}) {
          SCOPED_TRACE(testing::Message()
                       << "batched=" << batched << " k_t=" << k_t
                       << " autoregressive=" << autoregressive
                       << " steps=" << x.size(1));
          const BlockOutput got = block.Forward(x, supports);
          const BlockOutput want = PerStepDiffusionReference(
              block, kOrders, 2, kHorizon, autoregressive, x, supports,
              ConvForm::kLocalized);
          ExpectNear(got.hidden_sequence, want.hidden_sequence, 1e-5f);
          ExpectNear(got.hidden_forecast, want.hidden_forecast, 1e-5f);
          ExpectNear(got.backcast, want.backcast, 1e-5f);
        }
      }
    }
  }
}

TEST(DiffusionBlockTest, LocalizedAndMaskedPowerSupportsAreBitwiseEqual) {
  // Eq. 4's [.., N, k_t*N] form is read through its first block, which is
  // the masked power itself.
  constexpr int64_t kOrders = 2;
  Fixture f;
  Rng rng(37);
  const Tensor dynamic = RandomDynamicTransition(rng);
  NoGradGuard no_grad;
  for (const bool batched : {false, true}) {
    const Tensor p = batched ? dynamic : f.p;
    for (const int64_t k_t : {1, 2, 3}) {
      SCOPED_TRACE(testing::Message() << "batched=" << batched
                                      << " k_t=" << k_t);
      DiffusionBlock block(kDim, kOrders, k_t, /*num_supports=*/1,
                           /*forecast_horizon=*/3, /*autoregressive=*/true,
                           rng);
      const BlockOutput masked = block.Forward(f.x, {MaskedPowers(p, kOrders)});
      const BlockOutput localized =
          block.Forward(f.x, {LocalizedPowers(p, kOrders, k_t)});
      ExpectBitwiseEqual(masked.hidden_sequence, localized.hidden_sequence);
      ExpectBitwiseEqual(masked.hidden_forecast, localized.hidden_forecast);
      ExpectBitwiseEqual(masked.backcast, localized.backcast);
    }
  }
}

TEST(DiffusionBlockDeathTest, RejectsSupportOfAnotherWidth) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Fixture f;
  DiffusionBlock block(kDim, /*k_s=*/1, /*k_t=*/3, /*num_supports=*/1,
                       /*forecast_horizon=*/2, /*autoregressive=*/true,
                       f.rng);
  // Neither N nor k_t*N wide: Eq. 4 built for k_t = 2.
  const Tensor wrong = graph::LocalizedTransition(f.p, 2);
  EXPECT_DEATH(block.Forward(f.x, {{wrong}}), "has width 10, want 5");
}

TEST(InherentBlockTest, OutputShapesAllVariants) {
  Fixture f;
  for (const bool use_gru : {true, false}) {
    for (const bool use_msa : {true, false}) {
      for (const bool ar : {true, false}) {
        InherentBlock block(kDim, 2, 4, kSteps, use_gru, use_msa, ar, f.rng);
        const BlockOutput out = block.Forward(f.x);
        EXPECT_EQ(out.hidden_sequence.shape(),
                  (Shape{kBatch, kSteps, kNodes, kDim}));
        EXPECT_EQ(out.hidden_forecast.shape(),
                  (Shape{kBatch, 4, kNodes, kDim}));
        EXPECT_EQ(out.backcast.shape(),
                  (Shape{kBatch, kSteps, kNodes, kDim}));
      }
    }
  }
}

TEST(InherentBlockTest, NodesAreIndependent) {
  // The inherent model must treat every node independently (Sec. 5.2):
  // changing node 3's input must not change node 0's hidden state.
  Fixture f;
  InherentBlock block(kDim, 2, 4, kSteps, true, true, true, f.rng);
  NoGradGuard no_grad;
  const BlockOutput base = block.Forward(f.x);
  Tensor perturbed = f.x.Clone();
  for (int64_t t = 0; t < kSteps; ++t) {
    for (int64_t c = 0; c < kDim; ++c) {
      const std::vector<int64_t> strides = RowMajorStrides(perturbed.shape());
      perturbed.Data()[static_cast<size_t>(
          0 * strides[0] + t * strides[1] + 3 * strides[2] + c)] += 5.0f;
    }
  }
  const BlockOutput out = block.Forward(perturbed);
  for (int64_t t = 0; t < kSteps; ++t) {
    for (int64_t c = 0; c < kDim; ++c) {
      EXPECT_NEAR(out.hidden_sequence.At({0, t, 0, c}),
                  base.hidden_sequence.At({0, t, 0, c}), 1e-5f);
    }
  }
}

TEST(DynamicGraphTest, ShapesAndStaticSupportMask) {
  Fixture f;
  DynamicGraphLearner learner(kSteps, kDim, kEmbed, f.rng);
  const Tensor day = Tensor::Randn({kBatch, kEmbed}, f.rng);
  const Tensor week = Tensor::Randn({kBatch, kEmbed}, f.rng);
  NoGradGuard no_grad;
  const auto [pf, pb] =
      learner.Forward(f.x, day, week, f.e_u, f.e_d, f.p,
                      graph::BackwardTransition(f.p));
  EXPECT_EQ(pf.shape(), (Shape{kBatch, kNodes, kNodes}));
  EXPECT_EQ(pb.shape(), (Shape{kBatch, kNodes, kNodes}));
  // Eq. 14 masks the static transition: zero static entries stay zero.
  for (int64_t b = 0; b < kBatch; ++b) {
    for (int64_t i = 0; i < kNodes; ++i) {
      for (int64_t j = 0; j < kNodes; ++j) {
        if (f.p.At({i, j}) == 0.0f) {
          EXPECT_FLOAT_EQ(pf.At({b, i, j}), 0.0f);
        } else {
          EXPECT_LE(pf.At({b, i, j}), f.p.At({i, j}) + 1e-6f);
        }
      }
    }
  }
}

TEST(DynamicGraphTest, DependsOnInputWindow) {
  Fixture f;
  DynamicGraphLearner learner(kSteps, kDim, kEmbed, f.rng);
  const Tensor day = Tensor::Randn({kBatch, kEmbed}, f.rng);
  const Tensor week = Tensor::Randn({kBatch, kEmbed}, f.rng);
  NoGradGuard no_grad;
  const Tensor pb_static = graph::BackwardTransition(f.p);
  const auto [pf1, pb1] =
      learner.Forward(f.x, day, week, f.e_u, f.e_d, f.p, pb_static);
  const Tensor other = Tensor::Randn({kBatch, kSteps, kNodes, kDim}, f.rng);
  const auto [pf2, pb2] =
      learner.Forward(other, day, week, f.e_u, f.e_d, f.p, pb_static);
  double diff = 0.0;
  for (int64_t i = 0; i < pf1.numel(); ++i) {
    diff += std::fabs(pf1.At(i) - pf2.At(i));
  }
  EXPECT_GT(diff, 1e-3) << "dynamic graph ignored the traffic features";
}

TEST(DecoupledLayerTest, ResidualDecompositionSubtractsBackcasts) {
  // With residual links the layer output is x - backcast_dif - backcast_inh
  // (Eqs. 1-2). Verify by recomputing from the block outputs.
  Fixture f;
  DecoupledLayerConfig config;
  config.hidden_dim = kDim;
  config.embed_dim = kEmbed;
  config.k_s = 2;
  config.k_t = 2;
  config.num_heads = 2;
  config.input_len = kSteps;
  config.horizon = 4;
  config.num_supports = 2;
  DecoupledLayer layer(config, f.rng);
  NoGradGuard no_grad;
  const LayerOutput out =
      layer.Forward(f.x, f.t_day, f.t_week, f.e_u, f.e_d, f.supports);
  EXPECT_EQ(out.next_input.shape(), f.x.shape());
  EXPECT_EQ(out.forecast_dif.shape(), (Shape{kBatch, 4, kNodes, kDim}));
  EXPECT_EQ(out.forecast_inh.shape(), (Shape{kBatch, 4, kNodes, kDim}));
}

TEST(DecoupledLayerTest, CoupledVariantIgnoresGateAndResiduals) {
  Fixture f;
  DecoupledLayerConfig config;
  config.hidden_dim = kDim;
  config.embed_dim = kEmbed;
  config.k_s = 2;
  config.k_t = 2;
  config.num_heads = 2;
  config.input_len = kSteps;
  config.horizon = 4;
  config.num_supports = 2;
  config.use_decouple = false;
  DecoupledLayer layer(config, f.rng);
  NoGradGuard no_grad;
  const LayerOutput out =
      layer.Forward(f.x, f.t_day, f.t_week, f.e_u, f.e_d, f.supports);
  EXPECT_EQ(out.next_input.shape(), f.x.shape());
}

TEST(DecoupledLayerTest, SwitchVariantRuns) {
  Fixture f;
  DecoupledLayerConfig config;
  config.hidden_dim = kDim;
  config.embed_dim = kEmbed;
  config.k_s = 2;
  config.k_t = 2;
  config.num_heads = 2;
  config.input_len = kSteps;
  config.horizon = 4;
  config.num_supports = 2;
  config.inherent_first = true;
  DecoupledLayer layer(config, f.rng);
  NoGradGuard no_grad;
  const LayerOutput out =
      layer.Forward(f.x, f.t_day, f.t_week, f.e_u, f.e_d, f.supports);
  EXPECT_EQ(out.next_input.shape(), f.x.shape());
}

TEST(DiffusionBlockTest, GradCheckThroughConvolution) {
  // End-to-end finite-difference check through the localized convolution,
  // with a static masked power, a batched masked power that requires grad
  // (the dynamic-graph path: its gradient sums all T steps of each sample
  // in one MatMul backward) and a batched Eq. 4 support built from a leaf
  // that requires grad (read through its first block).
  Rng rng(23);
  Tensor x = Tensor::Randn({2, 3, 4, 4}, rng).SetRequiresGrad(true);
  graph::SensorNetworkOptions options;
  options.num_nodes = 4;
  options.neighbors = 2;
  const auto net = graph::BuildRandomSensorNetwork(options, rng);
  const Tensor p = graph::ForwardTransition(net.adjacency);
  Tensor dynamic =
      graph::MaskSelfLoops(Softmax(Tensor::Randn({2, 4, 4}, rng), -1));
  dynamic.SetRequiresGrad(true);
  Tensor localized_leaf = Softmax(Tensor::Randn({2, 4, 4}, rng), -1);
  localized_leaf.SetRequiresGrad(true);
  DiffusionBlock block(4, 1, 2, 3, 2, true, rng);
  auto loss = [&] {
    const std::vector<std::vector<Tensor>> supports = {
        {graph::MaskSelfLoops(p)},
        {dynamic},
        {graph::LocalizedTransition(localized_leaf, 2)}};
    const BlockOutput out = block.Forward(x, supports);
    return Add(Sum(Abs(out.hidden_forecast)), Sum(Abs(out.backcast)));
  };
  auto result = CheckGradients(loss, {x}, rng, 1e-2f, 3e-2f, 12);
  EXPECT_TRUE(result.ok) << result.max_relative_error;
  // A support entry feeds every step's convolution, so a 1e-2 nudge moves
  // enough activations across ReLU/Abs kinks to swamp the central
  // difference; 1e-3 stays on one linear piece.
  result = CheckGradients(loss, {dynamic}, rng, 1e-3f, 3e-2f, 16);
  EXPECT_TRUE(result.ok) << result.max_relative_error;
  result = CheckGradients(loss, {localized_leaf}, rng, 1e-3f, 3e-2f, 16);
  EXPECT_TRUE(result.ok) << result.max_relative_error;
}

}  // namespace
}  // namespace d2stgnn::core
