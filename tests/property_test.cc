// Parameterized property tests: invariants swept over shapes and model
// configurations.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/d2stgnn.h"
#include "data/presets.h"
#include "data/synthetic_traffic.h"
#include "graph/localized_transition.h"
#include "graph/transition.h"
#include "metrics/metrics.h"
#include "tensor/grad_check.h"
#include "tensor/kernels.h"
#include "tensor/kernels/backend.h"
#include "tensor/kernels/registry.h"
#include "tensor/ops.h"

namespace d2stgnn {
namespace {

// ---------------------------------------------------------------------------
// Broadcasting: for any compatible shape pair, gradients of elementwise ops
// must match finite differences and reduce to the input shapes.

using ShapePair = std::tuple<Shape, Shape>;

class BroadcastProperty : public ::testing::TestWithParam<ShapePair> {};

TEST_P(BroadcastProperty, AddSubMulGradChecks) {
  const auto& [shape_a, shape_b] = GetParam();
  Rng rng(7);
  Tensor a = Tensor::Rand(shape_a, rng, 0.5f, 2.0f).SetRequiresGrad(true);
  Tensor b = Tensor::Rand(shape_b, rng, 0.5f, 2.0f).SetRequiresGrad(true);

  auto check = [&](auto op, const char* name) {
    a.ZeroGrad();
    b.ZeroGrad();
    auto loss = [&] { return Sum(op(a, b)); };
    const auto result = CheckGradients(loss, {a, b}, rng, 1e-3f);
    EXPECT_TRUE(result.ok) << name << " rel err " << result.max_relative_error;
  };
  check([](const Tensor& x, const Tensor& y) { return Add(x, y); }, "Add");
  check([](const Tensor& x, const Tensor& y) { return Sub(x, y); }, "Sub");
  check([](const Tensor& x, const Tensor& y) { return Mul(x, y); }, "Mul");
}

TEST_P(BroadcastProperty, ForwardMatchesScalarSemantics) {
  const auto& [shape_a, shape_b] = GetParam();
  Rng rng(8);
  Tensor a = Tensor::Rand(shape_a, rng, -2.0f, 2.0f);
  Tensor b = Tensor::Rand(shape_b, rng, -2.0f, 2.0f);
  Tensor sum = Add(a, b);
  const Shape out = BroadcastShapes(shape_a, shape_b);
  ASSERT_EQ(sum.shape(), out);
  // Spot-check via explicit BroadcastTo.
  Tensor ea = BroadcastTo(a, out);
  Tensor eb = BroadcastTo(b, out);
  for (int64_t i = 0; i < sum.numel(); ++i) {
    EXPECT_NEAR(sum.At(i), ea.At(i) + eb.At(i), 1e-6f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastProperty,
    ::testing::Values(ShapePair{{3, 4}, {3, 4}}, ShapePair{{3, 4}, {4}},
                      ShapePair{{2, 1, 3}, {4, 1}}, ShapePair{{5}, {2, 5}},
                      ShapePair{{2, 3, 1, 2}, {3, 2, 2}},
                      ShapePair{{1}, {2, 2}}));

// ---------------------------------------------------------------------------
// MatMul: associativity with identity, shape algebra, and gradients across
// batching patterns.

using MatMulShapes = std::tuple<Shape, Shape>;

class MatMulProperty : public ::testing::TestWithParam<MatMulShapes> {};

TEST_P(MatMulProperty, IdentityAndGrad) {
  const auto& [shape_a, shape_b] = GetParam();
  Rng rng(9);
  Tensor a = Tensor::Randn(shape_a, rng).SetRequiresGrad(true);
  Tensor b = Tensor::Randn(shape_b, rng).SetRequiresGrad(true);
  Tensor c = MatMul(a, b);
  // Multiplying by the identity on the right leaves the result unchanged.
  const int64_t n = c.size(-1);
  Tensor c_eye = MatMul(c, Tensor::Eye(n));
  for (int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c.At(i), c_eye.At(i), 1e-4f);
  }
  auto loss = [&] { return Sum(Abs(MatMul(a, b))); };
  const auto result = CheckGradients(loss, {a, b}, rng, 1e-2f, 3e-2f, 8);
  EXPECT_TRUE(result.ok) << result.max_relative_error;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulProperty,
    ::testing::Values(MatMulShapes{{3, 4}, {4, 2}},
                      MatMulShapes{{2, 3, 4}, {4, 5}},
                      MatMulShapes{{2, 3, 4}, {2, 4, 5}},
                      MatMulShapes{{3, 4}, {2, 4, 5}},
                      MatMulShapes{{2, 1, 3, 4}, {5, 4, 2}}));

// ---------------------------------------------------------------------------
// MatMul gradients against a double-precision reference, for every batching
// pattern the kernels tell apart (flattened shared weight, A broadcast over
// B's batch, both batched, both broadcast), on every backend at 1 and 4
// threads. The bound is MatMulRelTol of the reduction length, relative to
// the sum of the absolute product terms.

struct MatMulPattern {
  const char* name;
  Shape a_lead;   // A = a_lead + [k]; a_lead ends with m
  Shape b_batch;  // B = b_batch + [k, n]
};

void PrintTo(const MatMulPattern& p, std::ostream* os) { *os << p.name; }

// Flat index of the operand matrix that output batch `i` reads, under
// numpy broadcasting of `batch` against `out_batch`.
int64_t SourceMatrix(const Shape& batch, const Shape& out_batch, int64_t i) {
  const size_t skip = out_batch.size() - batch.size();
  int64_t src = 0;
  int64_t stride = 1;
  for (size_t d = out_batch.size(); d-- > 0;) {
    const int64_t idx = i % out_batch[d];
    i /= out_batch[d];
    if (d < skip) continue;
    const int64_t size = batch[d - skip];
    if (size != 1) src += idx * stride;
    stride *= size;
  }
  return src;
}

class MatMulGradReference : public ::testing::TestWithParam<MatMulPattern> {
 protected:
  void SetUp() override { threads_ = GetNumThreads(); }
  void TearDown() override { SetNumThreads(threads_); }

 private:
  int threads_ = 1;
};

TEST_P(MatMulGradReference, MatchesDoubleReference) {
  const MatMulPattern& p = GetParam();
  const int64_t m = p.a_lead.back();
  const Shape a_batch(p.a_lead.begin(), p.a_lead.end() - 1);
  const Shape out_batch = BroadcastShapes(a_batch, p.b_batch);
  const int64_t batches = NumElements(out_batch);
  const int64_t a_matrices = NumElements(a_batch);
  const int64_t b_matrices = NumElements(p.b_batch);
  const int64_t sizes[] = {1, 7, 8, 9, 17};
  for (const int64_t k : sizes) {
    for (const int64_t n : sizes) {
      Shape a_shape = p.a_lead;
      a_shape.push_back(k);
      Shape b_shape = p.b_batch;
      b_shape.push_back(k);
      b_shape.push_back(n);
      Shape out_shape = out_batch;
      out_shape.push_back(m);
      out_shape.push_back(n);
      Rng rng(static_cast<uint64_t>(100 * k + n));
      const Tensor a0 = Tensor::Randn(a_shape, rng);
      const Tensor b0 = Tensor::Randn(b_shape, rng);
      const Tensor w = Tensor::Randn(out_shape, rng);
      const std::vector<float>& av = a0.Data();
      const std::vector<float>& bv = b0.Data();
      const std::vector<float>& wv = w.Data();

      // dA = sum_i W_i B_i^T, dB = sum_i A_i^T W_i, plus the sums of
      // absolute terms the error bound scales with.
      std::vector<double> ga(av.size(), 0.0), ga_abs(av.size(), 0.0);
      std::vector<double> gb(bv.size(), 0.0), gb_abs(bv.size(), 0.0);
      for (int64_t i = 0; i < batches; ++i) {
        const int64_t ao = SourceMatrix(a_batch, out_batch, i) * m * k;
        const int64_t bo = SourceMatrix(p.b_batch, out_batch, i) * k * n;
        const int64_t wo = i * m * n;
        for (int64_t r = 0; r < m; ++r) {
          for (int64_t c = 0; c < k; ++c) {
            for (int64_t j = 0; j < n; ++j) {
              const double wa = static_cast<double>(wv[wo + r * n + j]);
              const double term_a = wa * bv[bo + c * n + j];
              const double term_b = wa * av[ao + r * k + c];
              ga[ao + r * k + c] += term_a;
              ga_abs[ao + r * k + c] += std::fabs(term_a);
              gb[bo + c * n + j] += term_b;
              gb_abs[bo + c * n + j] += std::fabs(term_b);
            }
          }
        }
      }
      const float tol_a = kernels::MatMulRelTol(batches / a_matrices * n);
      const float tol_b = kernels::MatMulRelTol(batches / b_matrices * m);

      for (const std::string& backend : kernels::AvailableBackendNames()) {
        kernels::ScopedBackendOverride pin(backend);
        for (const int threads : {1, 4}) {
          SetNumThreads(threads);
          Tensor a = Tensor(a_shape, av).SetRequiresGrad(true);
          Tensor b = Tensor(b_shape, bv).SetRequiresGrad(true);
          Sum(Mul(MatMul(a, b), w)).Backward();
          const std::vector<float>& got_a = a.GradData();
          const std::vector<float>& got_b = b.GradData();
          ASSERT_EQ(got_a.size(), ga.size());
          ASSERT_EQ(got_b.size(), gb.size());
          for (size_t e = 0; e < ga.size(); ++e) {
            ASSERT_LE(std::fabs(got_a[e] - ga[e]), tol_a * ga_abs[e])
                << p.name << " dA k=" << k << " n=" << n << " " << backend
                << " threads=" << threads << " e=" << e;
          }
          for (size_t e = 0; e < gb.size(); ++e) {
            ASSERT_LE(std::fabs(got_b[e] - gb[e]), tol_b * gb_abs[e])
                << p.name << " dB k=" << k << " n=" << n << " " << backend
                << " threads=" << threads << " e=" << e;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, MatMulGradReference,
    ::testing::Values(MatMulPattern{"SharedWeightRank3", {4, 3}, {}},
                      MatMulPattern{"SharedWeightRank4", {2, 3, 5}, {}},
                      MatMulPattern{"LeftBroadcast", {3}, {5}},
                      MatMulPattern{"LeftUnitBatch", {1, 3}, {5}},
                      MatMulPattern{"BothBatched", {4, 3}, {4}},
                      MatMulPattern{"BothBroadcast", {2, 1, 3}, {5}}),
    [](const ::testing::TestParamInfo<MatMulPattern>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Softmax along every axis: rows sum to 1, entries positive, gradient sums
// to zero along the softmax axis (softmax is shift-invariant).

class SoftmaxProperty : public ::testing::TestWithParam<int64_t> {};

TEST_P(SoftmaxProperty, SimplexAndShiftInvariance) {
  const int64_t dim = GetParam();
  Rng rng(10);
  Tensor a = Tensor::Randn({3, 4, 5}, rng);
  Tensor s = Softmax(a, dim);
  Tensor sums = Sum(s, dim, false);
  for (int64_t i = 0; i < sums.numel(); ++i) {
    EXPECT_NEAR(sums.At(i), 1.0f, 1e-5f);
  }
  for (float v : s.Data()) EXPECT_GT(v, 0.0f);
  // softmax(a + c) == softmax(a).
  Tensor shifted = Softmax(AddScalar(a, 5.0f), dim);
  for (int64_t i = 0; i < s.numel(); ++i) {
    EXPECT_NEAR(s.At(i), shifted.At(i), 1e-5f);
  }
}

INSTANTIATE_TEST_SUITE_P(Axes, SoftmaxProperty, ::testing::Values(0, 1, 2, -1));

// ---------------------------------------------------------------------------
// Localized transitions (Eq. 4) for every (k_s, k_t) of Figure 7's sweep:
// diagonal blocks masked, non-negative, and shaped [N, k_t * N].

using KernelSizes = std::tuple<int64_t, int64_t>;

class LocalizedProperty : public ::testing::TestWithParam<KernelSizes> {};

TEST_P(LocalizedProperty, MaskAndShape) {
  const auto& [k_s, k_t] = GetParam();
  Rng rng(11);
  graph::SensorNetworkOptions options;
  options.num_nodes = 7;
  options.neighbors = 3;
  const auto net = graph::BuildRandomSensorNetwork(options, rng);
  const Tensor p = graph::ForwardTransition(net.adjacency);
  const auto powers = graph::TransitionPowers(p, k_s);
  ASSERT_EQ(static_cast<int64_t>(powers.size()), k_s);
  for (const Tensor& power : powers) {
    const Tensor local = graph::LocalizedTransition(power, k_t);
    ASSERT_EQ(local.shape(), (Shape{7, k_t * 7}));
    for (int64_t i = 0; i < 7; ++i) {
      for (int64_t block = 0; block < k_t; ++block) {
        EXPECT_FLOAT_EQ(local.At({i, block * 7 + i}), 0.0f);
      }
    }
    for (float v : local.Data()) EXPECT_GE(v, 0.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, LocalizedProperty,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(1, 2, 3, 5)));

// ---------------------------------------------------------------------------
// D2STGNN across architecture hyper-parameters (the Figure 7 grid): forward
// shape, finite loss, gradient mass.

using ModelParams = std::tuple<int64_t, int64_t, int64_t>;  // k_s, k_t, L

class D2StgnnProperty : public ::testing::TestWithParam<ModelParams> {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticTrafficOptions options;
    options.network.num_nodes = 6;
    options.num_steps = 600;
    options.seed = 12;
    traffic_ = new data::SyntheticTraffic(
        data::GenerateSyntheticTraffic(options));
    scaler_ = new data::StandardScaler();
    scaler_->Fit(traffic_->dataset.values, 400, true);
    loader_ = new data::WindowDataLoader(
        &traffic_->dataset, scaler_,
        data::MakeChronologicalSplits(600, 12, 12, 0.7f, 0.1f).train, 12, 12,
        3);
  }
  static void TearDownTestSuite() {
    delete loader_;
    delete scaler_;
    delete traffic_;
    loader_ = nullptr;
    scaler_ = nullptr;
    traffic_ = nullptr;
  }
  static data::SyntheticTraffic* traffic_;
  static data::StandardScaler* scaler_;
  static data::WindowDataLoader* loader_;
};

data::SyntheticTraffic* D2StgnnProperty::traffic_ = nullptr;
data::StandardScaler* D2StgnnProperty::scaler_ = nullptr;
data::WindowDataLoader* D2StgnnProperty::loader_ = nullptr;

TEST_P(D2StgnnProperty, ForwardBackwardAcrossConfigs) {
  const auto& [k_s, k_t, layers] = GetParam();
  core::D2StgnnConfig config;
  config.num_nodes = 6;
  config.hidden_dim = 8;
  config.embed_dim = 4;
  config.num_heads = 2;
  config.k_s = k_s;
  config.k_t = k_t;
  config.num_layers = layers;
  Rng rng(13);
  core::D2Stgnn model(config, traffic_->dataset.network.adjacency, rng);
  const data::Batch batch = loader_->GetBatch(0);
  Tensor loss = metrics::MaskedMaeLoss(
      scaler_->InverseTransform(model.Forward(batch)), batch.y);
  ASSERT_TRUE(std::isfinite(loss.Item()));
  model.ZeroGrad();
  loss.Backward();
  double mass = 0.0;
  for (const Tensor& p : model.Parameters()) {
    for (float g : p.GradData()) mass += std::fabs(g);
  }
  EXPECT_GT(mass, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Grid, D2StgnnProperty,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(1, 3),
                                            ::testing::Values(1, 2)));

// ---------------------------------------------------------------------------
// Synthetic presets: generated datasets respect their family's reading
// conventions at any scale.

class PresetProperty : public ::testing::TestWithParam<int> {};

TEST_P(PresetProperty, ReadingsMatchFamily) {
  const auto presets = data::AllPresets(0.02f);
  const auto& preset = presets[static_cast<size_t>(GetParam())];
  const auto traffic = data::GenerateSyntheticTraffic(preset.options);
  EXPECT_EQ(traffic.dataset.name, preset.name);
  EXPECT_GT(traffic.dataset.num_nodes(), 0);
  for (float v : traffic.dataset.values.Data()) {
    EXPECT_GE(v, 0.0f);
    if (preset.options.flow) {
      EXPECT_FLOAT_EQ(v, std::round(v));
    } else {
      EXPECT_LE(v, data::kFreeFlowSpeed + 2.0f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFour, PresetProperty, ::testing::Range(0, 4));

// ---------------------------------------------------------------------------
// Strided walks: GatherStrided and EwiseBinaryBroadcast run a coalesced row
// walk. Its output must equal a per-element odometer (ForEachBroadcastPair)
// bit for bit, on every backend and at 1 and 4 threads, for inputs that
// hold NaN, +-Inf and -0. Large cases exceed kEwiseGrain with odd sizes, so
// ParallelFor chunk boundaries fall inside rows.

std::vector<float> MixedSpecials(int64_t n, Rng& rng) {
  const float specials[] = {std::nanf(""), INFINITY, -INFINITY, -0.0f, 0.0f};
  std::vector<float> v = rng.UniformVector(n, -3.0f, 3.0f);
  for (float& x : v) {
    if (rng.Uniform() < 0.1f) x = specials[rng.UniformInt(5)];
  }
  return v;
}

float ApplyReference(kernels::BinaryKind kind, float x, float y) {
  switch (kind) {
    case kernels::BinaryKind::kAdd:
      return x + y;
    case kernels::BinaryKind::kSub:
      return x - y;
    case kernels::BinaryKind::kMul:
      return x * y;
  }
  return 0.0f;
}

std::vector<const kernels::KernelBackend*> AllBackends() {
  std::vector<const kernels::KernelBackend*> backends = {
      &kernels::ScalarBackend()};
  if (kernels::Avx2BackendOrNull() != nullptr) {
    backends.push_back(kernels::Avx2BackendOrNull());
  }
  return backends;
}

::testing::AssertionResult BitwiseEqual(const std::vector<float>& want,
                                        const std::vector<float>& got) {
  if (want.size() != got.size()) {
    return ::testing::AssertionFailure() << "size " << got.size() << " vs "
                                         << want.size();
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::memcmp(&want[i], &got[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "first difference at flat index " << i << ": " << got[i]
             << " vs " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

class StridedWalkProperty : public ::testing::Test {
 protected:
  void SetUp() override { threads_ = GetNumThreads(); }
  void TearDown() override { SetNumThreads(threads_); }

  // a (shape_a) kind b (shape_b) for every kind and backend at 1 and 4
  // threads, against the odometer.
  void CheckBinary(const Shape& shape_a, const Shape& shape_b) {
    const Shape out = BroadcastShapes(shape_a, shape_b);
    const std::vector<int64_t> as = kernels::BroadcastStrides(shape_a, out);
    const std::vector<int64_t> bs = kernels::BroadcastStrides(shape_b, out);
    const std::vector<float> a = MixedSpecials(NumElements(shape_a), rng_);
    const std::vector<float> b = MixedSpecials(NumElements(shape_b), rng_);
    const size_t n = static_cast<size_t>(NumElements(out));
    for (const kernels::BinaryKind kind :
         {kernels::BinaryKind::kAdd, kernels::BinaryKind::kSub,
          kernels::BinaryKind::kMul}) {
      std::vector<float> want(n);
      kernels::ForEachBroadcastPair(
          out, as, bs, [&](int64_t i, int64_t ao, int64_t bo) {
            want[static_cast<size_t>(i)] = ApplyReference(
                kind, a[static_cast<size_t>(ao)], b[static_cast<size_t>(bo)]);
          });
      for (const kernels::KernelBackend* backend : AllBackends()) {
        for (const int threads : {1, 4}) {
          SetNumThreads(threads);
          std::vector<float> got(n, 12345.0f);
          kernels::EwiseBinaryBroadcast(*backend, kind, out, as, bs, a.data(),
                                        b.data(), got.data());
          EXPECT_TRUE(BitwiseEqual(want, got))
              << ShapeToString(shape_a) << " op" << static_cast<int>(kind)
              << " " << ShapeToString(shape_b) << " on " << backend->name
              << " at " << threads << " threads";
        }
      }
    }
  }

  // out[flat] = src[strided offset] at 1 and 4 threads, against the
  // odometer.
  void CheckGather(const Shape& out, const std::vector<int64_t>& strides,
                   const std::vector<float>& src) {
    const size_t n = static_cast<size_t>(NumElements(out));
    std::vector<float> want(n);
    kernels::ForEachBroadcastPair(
        out, strides, std::vector<int64_t>(out.size(), 0),
        [&](int64_t i, int64_t so, int64_t) {
          want[static_cast<size_t>(i)] = src[static_cast<size_t>(so)];
        });
    for (const int threads : {1, 4}) {
      SetNumThreads(threads);
      std::vector<float> got(n, 12345.0f);
      kernels::GatherStrided(out, strides, src.data(), got.data());
      EXPECT_TRUE(BitwiseEqual(want, got))
          << "gather to " << ShapeToString(out) << " at " << threads
          << " threads";
    }
  }

  // A random shape of `rank` dims, about a third of them unit, grown until
  // it holds at least `min_elements` (unit dims stay unit).
  Shape RandomShape(int64_t rank, int64_t min_elements) {
    Shape shape(static_cast<size_t>(rank));
    for (int64_t& d : shape) {
      d = rng_.Uniform() < 0.35f ? 1 : 2 + rng_.UniformInt(6);
    }
    if (rank == 0) return shape;
    std::vector<size_t> growable;
    for (size_t d = 0; d < shape.size(); ++d) {
      if (shape[d] != 1) growable.push_back(d);
    }
    if (growable.empty()) return shape;
    while (NumElements(shape) < min_elements) {
      ++shape[growable[static_cast<size_t>(
          rng_.UniformInt(static_cast<int64_t>(growable.size())))]];
    }
    return shape;
  }

  // `out` with each dim independently set to 1 (p = 0.4) and, at random,
  // some leading dims dropped: an operand that broadcasts to `out`.
  Shape BroadcastOperand(const Shape& out) {
    Shape shape = out;
    for (int64_t& d : shape) {
      if (rng_.Uniform() < 0.4f) d = 1;
    }
    const int64_t drop =
        rng_.UniformInt(static_cast<int64_t>(shape.size()) + 1);
    shape.erase(shape.begin(), shape.begin() + drop);
    return shape;
  }

  Rng rng_{2024};
  int threads_ = 1;
};

TEST_F(StridedWalkProperty, RandomBroadcastsMatchElementWalk) {
  const int64_t large = 2 * kernels::kEwiseGrain + 37;
  for (int trial = 0; trial < 60; ++trial) {
    const int64_t rank = trial % 7;
    const Shape out = RandomShape(rank, trial % 3 == 0 ? large : 1);
    // Two-sided: both operands broadcast.
    CheckBinary(BroadcastOperand(out), BroadcastOperand(out));
    // One-sided: one operand has the full output shape.
    const Shape partial = BroadcastOperand(out);
    if (trial % 2 == 0) {
      CheckBinary(out, partial);
    } else {
      CheckBinary(partial, out);
    }
    // BroadcastTo: a gather with zero strides on the broadcast dims.
    const Shape src_shape = BroadcastOperand(out);
    CheckGather(out, kernels::BroadcastStrides(src_shape, out),
                MixedSpecials(NumElements(src_shape), rng_));
  }
}

TEST_F(StridedWalkProperty, FixedBroadcastsMatchElementWalk) {
  const std::vector<ShapePair> pairs = {
      {{16, 12, 12, 16}, {16, 12, 12, 1}},  // estimation-gate broadcast
      {{16, 12, 12, 1}, {16, 12, 12, 16}},
      {{16, 12, 12, 16}, {16}},  // bias pattern (kAdd: backend bias_add)
      {{16, 12, 12, 16}, {12, 1, 16}},
      {{4, 1, 6, 1}, {1, 5, 1, 7}},
      {{9, 1, 1, 2000}, {1, 3, 5, 1}},
      {{}, {3, 4}},
      {{3, 4}, {}},
      {{1}, {1}},
      {{1, 1, 1}, {1}},
      {{2, 1, 3}, {1}},
  };
  for (const auto& [a, b] : pairs) CheckBinary(a, b);
}

TEST_F(StridedWalkProperty, EveryRankFourPermutationMatchesElementWalk) {
  for (const Shape& in : {Shape{16, 12, 12, 16}, Shape{5, 1, 7, 9},
                          Shape{3, 2, 1, 4000}}) {
    const std::vector<float> src = MixedSpecials(NumElements(in), rng_);
    const std::vector<int64_t> in_strides = RowMajorStrides(in);
    std::vector<int64_t> perm = {0, 1, 2, 3};
    do {
      Shape out(4);
      std::vector<int64_t> strides(4);
      for (size_t d = 0; d < 4; ++d) {
        out[d] = in[static_cast<size_t>(perm[d])];
        strides[d] = in_strides[static_cast<size_t>(perm[d])];
      }
      CheckGather(out, strides, src);
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
}

}  // namespace
}  // namespace d2stgnn
