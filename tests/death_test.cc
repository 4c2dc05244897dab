// Death tests: the library's no-exceptions error handling (D2_CHECK) must
// abort with a diagnostic on contract violations instead of corrupting
// state.

#include <unistd.h>

#include <csignal>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "data/sliding_window.h"
#include "nn/linear.h"
#include "tensor/buffer_arena.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "train/checkpoint.h"

namespace d2stgnn {
namespace {

using DeathTest = ::testing::Test;

TEST(DeathTest, CheckMacroPrintsMessageAndAborts) {
  EXPECT_DEATH({ D2_CHECK(false) << "extra context 42"; },
               "Check failed: false.*extra context 42");
  EXPECT_DEATH({ D2_CHECK_EQ(1, 2); }, "1 == 2 \\(1 vs. 2\\)");
}

TEST(DeathTest, BroadcastMismatchAborts) {
  Tensor a({2, 3});
  Tensor b({2, 4});
  EXPECT_DEATH(Add(a, b), "incompatible shapes");
}

TEST(DeathTest, MatMulInnerDimMismatchAborts) {
  Tensor a({2, 3});
  Tensor b({4, 2});
  EXPECT_DEATH(MatMul(a, b), "inner dimensions mismatch");
}

TEST(DeathTest, BackwardOnNonScalarAborts) {
  Tensor a = Tensor::Ones({2}).SetRequiresGrad(true);
  Tensor y = Mul(a, a);
  EXPECT_DEATH(y.Backward(), "scalar");
}

TEST(DeathTest, ReshapeElementCountMismatchAborts) {
  Tensor a({2, 3});
  EXPECT_DEATH(Reshape(a, {4, 2}), "Reshape");
}

TEST(DeathTest, SliceOutOfRangeAborts) {
  Tensor a({2, 3});
  EXPECT_DEATH(Slice(a, 1, 0, 9), "");
}

TEST(DeathTest, EmbeddingIndexOutOfRangeAborts) {
  Tensor table({3, 2});
  EXPECT_DEATH(EmbeddingLookup(table, {5}, {1}), "out of range");
}

TEST(DeathTest, LinearWrongInputWidthAborts) {
  Rng rng(1);
  nn::Linear layer(4, 2, rng);
  EXPECT_DEATH(layer.Forward(Tensor::Ones({2, 5})), "Linear expects");
}

TEST(DeathTest, ItemOnMultiElementAborts) {
  Tensor a({3});
  EXPECT_DEATH(a.Item(), "single-element");
}

// Crash safety: SIGKILL the process mid-checkpoint-write and assert the
// previously committed checkpoint is still fully loadable (the atomic
// temp+rename protocol never exposes a torn file under the final name).
TEST(DeathTest, StridedWalkBeyondMaxRankAborts) {
  // Reversing [2, 2, ..., 2] leaves no two dimensions to merge.
  const Shape shape(kernels::kMaxWalkRank + 1, 2);
  const Tensor a(shape);
  std::vector<int64_t> identity(shape.size());
  std::vector<int64_t> reversed(shape.size());
  for (size_t d = 0; d < shape.size(); ++d) {
    identity[d] = static_cast<int64_t>(d);
    reversed[d] = static_cast<int64_t>(shape.size() - 1 - d);
  }
  // The same rank coalesces to one dimension when the order is kept.
  EXPECT_EQ(Permute(a, identity).numel(), a.numel());
  EXPECT_DEATH(Permute(a, reversed), "strided walk over .* keeps more than");
}

TEST(DeathTest, BackwardUnderArenaGuardAborts) {
  Tensor w = Tensor::Ones({2, 2}).SetRequiresGrad(true);
  const Tensor loss = Sum(MatMul(w, w));
  EXPECT_DEATH(
      {
        ArenaGuard guard(std::make_shared<BufferArena>());
        loss.Backward();
      },
      "gradient written under an ArenaGuard");
}

TEST(DeathTest, SigkillMidCheckpointWriteKeepsPreviousLoadable) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path =
      ::testing::TempDir() + "/death_midwrite.d2ck";
  ::unlink(path.c_str());
  EXPECT_EXIT(
      {
        Rng rng(3);
        nn::Linear layer(4, 2, rng);
        std::vector<Tensor> params = layer.Parameters();
        for (Tensor& p : params) {
          for (float& x : p.Data()) x = 1.25f;
        }
        if (!train::SaveCheckpoint(layer, path)) ::_exit(1);
        for (Tensor& p : params) {
          for (float& x : p.Data()) x = 2.5f;
        }
        fault::FaultScript script;
        script.kind = fault::FaultKind::kCrash;
        script.trigger_offset = 24;
        fault::ArmFaultPoint("checkpoint.write", script);
        train::SaveCheckpoint(layer, path);  // SIGKILLs itself mid-write
        ::_exit(0);                          // never reached
      },
      ::testing::KilledBySignal(SIGKILL), "");
  Rng rng(9);
  nn::Linear loaded(4, 2, rng);
  ASSERT_TRUE(train::LoadCheckpoint(&loaded, path));
  for (const Tensor& p : loaded.Parameters()) {
    for (float x : p.Data()) EXPECT_EQ(x, 1.25f);
  }
}

}  // namespace
}  // namespace d2stgnn
