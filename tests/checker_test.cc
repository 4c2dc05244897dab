// Numerics sentinel tests: with checking enabled, a NaN/Inf produced
// anywhere in the graph is reported with the offending op, phase, and tape
// provenance — in abort mode before the poison propagates, in warn mode as
// a recorded diagnostic. The default (off) path must not alter behavior.

#include "tensor/checker.h"

#include <cmath>
#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "data/synthetic_traffic.h"
#include "nn/linear.h"
#include "tensor/ops.h"
#include "train/trainer.h"

namespace d2stgnn {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

// Every test restores the default mode: the sentinel is process state.
class CheckerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetNumThreads(1);
    ResetNumericsViolations();
  }
  void TearDown() override {
    SetCheckMode(CheckMode::kOff);
    ResetNumericsViolations();
  }
};

TEST_F(CheckerTest, OffModeLetsNonFiniteValuesThrough) {
  SetCheckMode(CheckMode::kOff);
  const Tensor y = MulScalar(Tensor({2}, {kInf, 2.0f}), 0.0f);  // inf * 0
  EXPECT_TRUE(std::isnan(y.At(0)));
  EXPECT_EQ(NumericsViolationCount(), 0);
}

TEST_F(CheckerTest, AbortModeDiesNamingOpAndForwardPhase) {
  SetCheckMode(CheckMode::kAbort);
  Tensor x({2}, {kInf, 2.0f});
  EXPECT_DEATH(MulScalar(x, 0.0f),
               "numerics sentinel: nan.*\\[phase=forward\\] "
               "\\[op=MulScalar\\]");
}

TEST_F(CheckerTest, AbortModeDiesNamingOpAndBackwardPhase) {
  SetCheckMode(CheckMode::kAbort);
  // Forward 0 * c * c = 0 is finite, but x's gradient c * c overflows to
  // inf — only the backward pass can catch it.
  Tensor x = Tensor({1}, {0.0f}).SetRequiresGrad(true);
  const Tensor c({1}, {3e38f});
  Tensor loss = Sum(Mul(Mul(x, c), c));
  EXPECT_DEATH(loss.Backward(),
               "numerics sentinel: inf.*\\[phase=backward\\] "
               "\\[op=Mul\\]");
}

TEST_F(CheckerTest, WarnModeRecordsDiagnosticAndContinues) {
  SetCheckMode(CheckMode::kWarn);
  const Tensor y = MulScalar(Tensor({2}, {kInf, 2.0f}), 0.0f);
  EXPECT_TRUE(std::isnan(y.At(0)));  // execution continued
  EXPECT_GE(NumericsViolationCount(), 1);
  const std::string diagnostic = LastNumericsDiagnostic();
  EXPECT_NE(diagnostic.find("[op=MulScalar]"), std::string::npos)
      << diagnostic;
  EXPECT_NE(diagnostic.find("[phase=forward]"), std::string::npos)
      << diagnostic;
  EXPECT_NE(diagnostic.find("shape [2]"), std::string::npos) << diagnostic;
}

TEST_F(CheckerTest, DiagnosticIncludesTapeProvenanceChain) {
  SetCheckMode(CheckMode::kWarn);
  Tensor x = Tensor({2}, {1.0f, 2.0f}).SetRequiresGrad(true);
  // The finite zeros of MulScalar turn into NaN in the Mul by inf.
  const Tensor y = Mul(MulScalar(x, 0.0f), Tensor({2}, {kInf, kInf}));
  EXPECT_TRUE(std::isnan(y.At(0)));
  const std::string diagnostic = LastNumericsDiagnostic();
  EXPECT_NE(diagnostic.find("tape: Mul <- MulScalar"), std::string::npos)
      << diagnostic;
}

TEST_F(CheckerTest, ScopedContextAppearsInDiagnostic) {
  SetCheckMode(CheckMode::kWarn);
  {
    ScopedCheckContext context("unit-test step 17");
    MulScalar(Tensor({1}, {kInf}), 0.0f);
  }
  EXPECT_NE(LastNumericsDiagnostic().find("context: unit-test step 17"),
            std::string::npos);
  // Popped contexts no longer annotate new diagnostics.
  MulScalar(Tensor({1}, {kInf}), 0.0f);
  EXPECT_EQ(LastNumericsDiagnostic().find("unit-test step 17"),
            std::string::npos);
}

TEST_F(CheckerTest, TapeProvenanceOfLeafIsLeaf) {
  Tensor x = Tensor::Ones({2});
  EXPECT_EQ(TapeProvenance(x), "(leaf)");
}

// --- Trainer integration: a poisoned parameter must abort the training
// step with a diagnostic naming the op, the phase, and the step. ---

class PoisonedModel : public train::ForecastingModel {
 public:
  PoisonedModel(int64_t num_nodes, int64_t horizon, Rng& rng)
      : ForecastingModel("poisoned"),
        num_nodes_(num_nodes),
        horizon_(horizon),
        proj_(data::kInputFeatures, horizon, rng) {
    RegisterChild(&proj_);
    // Inject the NaN a real bug would produce (bad init, lr blow-up). The
    // copied handle shares storage with the layer's weight.
    Tensor weight = proj_.weight();
    weight.Data()[0] = std::nanf("");
  }

  Tensor Forward(const data::Batch& batch) override {
    const int64_t b = batch.batch_size;
    const Tensor last = Reshape(
        Slice(batch.x, 1, batch.input_len - 1, batch.input_len),
        {b, num_nodes_, data::kInputFeatures});
    Tensor out = Permute(proj_.Forward(last), {0, 2, 1});
    return Reshape(out, {b, horizon_, num_nodes_, 1});
  }

  int64_t horizon() const override { return horizon_; }

 private:
  int64_t num_nodes_;
  int64_t horizon_;
  nn::Linear proj_;
};

TEST_F(CheckerTest, TrainingStepWithInjectedNanAbortsWithDiagnostic) {
  SetCheckMode(CheckMode::kAbort);
  data::SyntheticTrafficOptions options;
  options.network.num_nodes = 6;
  options.num_steps = 120;
  options.seed = 5;
  data::SyntheticTraffic traffic = data::GenerateSyntheticTraffic(options);
  data::StandardScaler scaler;
  scaler.Fit(traffic.dataset.values, 90, true);
  const auto splits = data::MakeChronologicalSplits(120, 12, 12, 0.7f, 0.1f);
  data::WindowDataLoader loader(&traffic.dataset, &scaler, splits.train, 12,
                                12, 8);

  Rng rng(3);
  PoisonedModel model(6, 12, rng);
  train::TrainerOptions trainer_options;
  trainer_options.epochs = 1;
  trainer_options.verbose = false;
  train::Trainer trainer(&model, &scaler, trainer_options);
  EXPECT_DEATH(
      trainer.Fit(&loader, nullptr),
      "numerics sentinel: nan.*\\[phase=forward\\].*context: training step: "
      "epoch 0 batch 0");
}

}  // namespace
}  // namespace d2stgnn
