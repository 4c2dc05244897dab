// Asserts the execution-layer determinism contract: every kernel produces
// bitwise-identical forward AND backward results at 1 and N threads, because
// chunk boundaries and accumulation order depend only on the problem shape,
// never on the thread count. Also grad-checks the refactored kernels while
// running multi-threaded.

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/d2stgnn.h"
#include "data/synthetic_traffic.h"
#include "metrics/metrics.h"
#include "tensor/grad_check.h"
#include "tensor/ops.h"

namespace d2stgnn {
namespace {

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override { SetNumThreads(1); }
};

// Forward data plus the gradients of every leaf, captured after Backward.
struct RunResult {
  std::vector<float> out;
  std::vector<std::vector<float>> grads;
};

void ExpectBitwiseEqual(const std::vector<float>& a,
                        const std::vector<float>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    uint32_t bits_a = 0, bits_b = 0;
    std::memcpy(&bits_a, &a[i], sizeof(bits_a));
    std::memcpy(&bits_b, &b[i], sizeof(bits_b));
    ASSERT_EQ(bits_a, bits_b)
        << what << " differs at flat index " << i << ": " << a[i] << " vs "
        << b[i];
  }
}

// Builds fresh leaves from a fixed seed, runs `op` forward + backward, and
// returns the bits. Calling this at different thread counts must give
// identical results.
RunResult RunOp(
    int threads, const std::vector<Shape>& leaf_shapes,
    const std::function<Tensor(const std::vector<Tensor>&)>& op) {
  SetNumThreads(threads);
  Rng rng(1234);
  std::vector<Tensor> leaves;
  for (const Shape& shape : leaf_shapes) {
    leaves.push_back(Tensor::Randn(shape, rng).SetRequiresGrad(true));
  }
  Tensor out = op(leaves);
  // Weight the output so reduction gradients are non-uniform.
  Tensor weights = Tensor::Randn(out.shape(), rng);
  Sum(Mul(out, weights)).Backward();
  RunResult result;
  result.out = out.Data();
  for (const Tensor& leaf : leaves) result.grads.push_back(leaf.GradData());
  return result;
}

void ExpectOpParity(
    const char* name, const std::vector<Shape>& leaf_shapes,
    const std::function<Tensor(const std::vector<Tensor>&)>& op) {
  const RunResult at1 = RunOp(1, leaf_shapes, op);
  for (int threads : {2, 4}) {
    const RunResult atn = RunOp(threads, leaf_shapes, op);
    ExpectBitwiseEqual(at1.out, atn.out, name);
    ASSERT_EQ(at1.grads.size(), atn.grads.size());
    for (size_t i = 0; i < at1.grads.size(); ++i) {
      ExpectBitwiseEqual(at1.grads[i], atn.grads[i], name);
    }
  }
}

TEST_F(ParallelDeterminismTest, MatMulForwardBackwardParity) {
  ExpectOpParity("MatMul2D", {{33, 47}, {47, 29}},
                 [](const std::vector<Tensor>& t) {
                   return MatMul(t[0], t[1]);
                 });
  // Broadcast-batched: [5, 17, 19] x [19, 13] and [17, 19] x [5, 19, 13].
  ExpectOpParity("MatMulBatchedLeft", {{5, 17, 19}, {19, 13}},
                 [](const std::vector<Tensor>& t) {
                   return MatMul(t[0], t[1]);
                 });
  ExpectOpParity("MatMulBatchedRight", {{17, 19}, {5, 19, 13}},
                 [](const std::vector<Tensor>& t) {
                   return MatMul(t[0], t[1]);
                 });
  // Shapes whose gradients split over several row blocks: a shared weight
  // under 600 flattened rows, dA accumulated over 6 batches, and both
  // operands broadcast.
  ExpectOpParity("MatMulFlattenedRows", {{3, 5, 40, 19}, {19, 13}},
                 [](const std::vector<Tensor>& t) {
                   return MatMul(t[0], t[1]);
                 });
  ExpectOpParity("MatMulSharedLeft", {{70, 19}, {6, 19, 13}},
                 [](const std::vector<Tensor>& t) {
                   return MatMul(t[0], t[1]);
                 });
  ExpectOpParity("MatMulBothBroadcast", {{2, 1, 40, 4}, {5, 4, 2}},
                 [](const std::vector<Tensor>& t) {
                   return MatMul(t[0], t[1]);
                 });
}

TEST_F(ParallelDeterminismTest, SoftmaxForwardBackwardParity) {
  ExpectOpParity("Softmax", {{7, 33, 65}},
                 [](const std::vector<Tensor>& t) {
                   return Softmax(t[0], -1);
                 });
}

TEST_F(ParallelDeterminismTest, SumForwardBackwardParity) {
  ExpectOpParity("SumAll", {{123, 457}},
                 [](const std::vector<Tensor>& t) {
                   return Sum(t[0]);
                 });
  ExpectOpParity("SumDim", {{9, 1000, 3}},
                 [](const std::vector<Tensor>& t) {
                   return Sum(t[0], 1, /*keepdim=*/false);
                 });
}

TEST_F(ParallelDeterminismTest, ElementwiseForwardBackwardParity) {
  ExpectOpParity("SigmoidTanhAdd", {{13, 1, 65}, {1, 31, 65}},
                 [](const std::vector<Tensor>& t) {
                   return Mul(Sigmoid(t[0]), Tanh(Add(t[0], t[1])));
                 });
}

// End-to-end: the full model's loss and every parameter gradient must be
// bit-identical at 1 and 4 threads (eval mode, so Dropout does not consume
// rng state).
TEST_F(ParallelDeterminismTest, FullModelForwardBackwardParity) {
  data::SyntheticTrafficOptions options;
  options.network.num_nodes = 8;
  options.network.neighbors = 3;
  options.num_steps = 256;
  options.seed = 9;
  const data::SyntheticTraffic traffic =
      data::GenerateSyntheticTraffic(options);
  data::StandardScaler scaler;
  scaler.Fit(traffic.dataset.values, 180, /*mask_zeros=*/true);
  const auto splits = data::MakeChronologicalSplits(256, 12, 12, 0.7f, 0.1f);
  data::WindowDataLoader loader(&traffic.dataset, &scaler, splits.train, 12,
                                12, 4);
  const data::Batch batch = loader.GetBatch(0);

  core::D2StgnnConfig config;
  config.num_nodes = 8;
  config.hidden_dim = 8;
  config.embed_dim = 4;
  config.num_layers = 2;
  config.num_heads = 2;
  config.k_s = 2;
  config.k_t = 2;
  Rng rng(7);
  core::D2Stgnn model(config, traffic.dataset.network.adjacency, rng);
  model.SetTraining(false);

  auto run = [&](int threads) {
    SetNumThreads(threads);
    model.ZeroGrad();
    Tensor loss = metrics::MaskedMaeLoss(
        scaler.InverseTransform(model.Forward(batch)), batch.y);
    loss.Backward();
    RunResult result;
    result.out = loss.Data();
    for (const Tensor& p : model.Parameters()) {
      result.grads.push_back(p.GradData());
    }
    return result;
  };

  const RunResult at1 = run(1);
  const RunResult at4 = run(4);
  ExpectBitwiseEqual(at1.out, at4.out, "model loss");
  ASSERT_EQ(at1.grads.size(), at4.grads.size());
  for (size_t i = 0; i < at1.grads.size(); ++i) {
    ExpectBitwiseEqual(at1.grads[i], at4.grads[i], "model grad");
  }
}

// Batch assembly routed through ParallelFor must match serial GetBatch.
TEST_F(ParallelDeterminismTest, AssembleAllBatchesMatchesSerial) {
  data::SyntheticTrafficOptions options;
  options.network.num_nodes = 6;
  options.num_steps = 300;
  options.seed = 3;
  const data::SyntheticTraffic traffic =
      data::GenerateSyntheticTraffic(options);
  data::StandardScaler scaler;
  scaler.Fit(traffic.dataset.values, 210, /*mask_zeros=*/true);
  const auto splits = data::MakeChronologicalSplits(300, 12, 12, 0.7f, 0.1f);
  data::WindowDataLoader loader(&traffic.dataset, &scaler, splits.train, 12,
                                12, 8);

  SetNumThreads(4);
  const std::vector<data::Batch> parallel = loader.AssembleAllBatches();
  ASSERT_EQ(static_cast<int64_t>(parallel.size()), loader.NumBatches());
  for (int64_t b = 0; b < loader.NumBatches(); ++b) {
    const data::Batch serial = loader.GetBatch(b);
    ExpectBitwiseEqual(serial.x.Data(), parallel[static_cast<size_t>(b)].x.Data(),
                       "batch x");
    ExpectBitwiseEqual(serial.y.Data(), parallel[static_cast<size_t>(b)].y.Data(),
                       "batch y");
  }
}

// The refactored kernels must still agree with finite differences while the
// pool is active.
TEST_F(ParallelDeterminismTest, GradCheckWithActivePool) {
  SetNumThreads(4);
  Rng rng(5);
  Tensor a = Tensor::Randn({6, 7}, rng).SetRequiresGrad(true);
  Tensor b = Tensor::Randn({7, 5}, rng).SetRequiresGrad(true);
  Tensor c = Tensor::Randn({6, 5}, rng).SetRequiresGrad(true);
  auto loss = [&]() {
    return Sum(Mul(Softmax(MatMul(a, b), -1), Sigmoid(c)));
  };
  const auto result = CheckGradients(loss, {a, b, c}, rng, 1e-2f, 3e-2f, 12);
  EXPECT_TRUE(result.ok) << "rel err " << result.max_relative_error;
}

}  // namespace
}  // namespace d2stgnn
