#include "train/trainer.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/d2stgnn.h"
#include "data/synthetic_traffic.h"
#include "nn/linear.h"
#include "train/evaluator.h"

namespace d2stgnn {
namespace {

// A deliberately simple model so trainer tests are fast: linear readout of
// the last frame, repeated across the horizon.
class TinyModel : public train::ForecastingModel {
 public:
  TinyModel(int64_t num_nodes, int64_t horizon, Rng& rng)
      : ForecastingModel("tiny"),
        num_nodes_(num_nodes),
        horizon_(horizon),
        proj_(data::kInputFeatures, horizon, rng) {
    RegisterChild(&proj_);
  }

  Tensor Forward(const data::Batch& batch) override {
    const int64_t b = batch.batch_size;
    const Tensor last = Reshape(
        Slice(batch.x, 1, batch.input_len - 1, batch.input_len),
        {b, num_nodes_, data::kInputFeatures});
    Tensor out = proj_.Forward(last);    // [B, N, horizon]
    out = Permute(out, {0, 2, 1});
    return Reshape(out, {b, horizon_, num_nodes_, 1});
  }

  int64_t horizon() const override { return horizon_; }

 private:
  int64_t num_nodes_;
  int64_t horizon_;
  nn::Linear proj_;
};

class TrainerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SyntheticTrafficOptions options;
    options.network.num_nodes = 6;
    options.num_steps = 900;
    options.seed = 31;
    traffic_ = data::GenerateSyntheticTraffic(options);
    scaler_.Fit(traffic_.dataset.values, 600, true);
    splits_ = data::MakeChronologicalSplits(900, 12, 12, 0.7f, 0.1f);
    train_loader_ = std::make_unique<data::WindowDataLoader>(
        &traffic_.dataset, &scaler_, splits_.train, 12, 12, 32);
    val_loader_ = std::make_unique<data::WindowDataLoader>(
        &traffic_.dataset, &scaler_, splits_.val, 12, 12, 32);
  }

  data::SyntheticTraffic traffic_;
  data::StandardScaler scaler_;
  data::SplitWindows splits_;
  std::unique_ptr<data::WindowDataLoader> train_loader_;
  std::unique_ptr<data::WindowDataLoader> val_loader_;
};

TEST_F(TrainerTest, LossDecreasesOverEpochs) {
  Rng rng(1);
  TinyModel model(6, 12, rng);
  train::TrainerOptions options;
  options.epochs = 8;
  options.curriculum_learning = false;
  train::Trainer trainer(&model, &scaler_, options);
  const train::FitResult result =
      trainer.Fit(train_loader_.get(), val_loader_.get());
  ASSERT_GE(result.history.size(), 2u);
  EXPECT_LT(result.history.back().train_loss,
            result.history.front().train_loss);
  EXPECT_GT(result.mean_epoch_seconds, 0.0);
}

TEST_F(TrainerTest, EarlyStoppingRestoresBestParams) {
  Rng rng(2);
  TinyModel model(6, 12, rng);
  train::TrainerOptions options;
  options.epochs = 60;
  options.patience = 3;
  // A large step size converges in a handful of epochs and then stalls, so
  // early stopping must trigger long before the epoch cap.
  options.learning_rate = 0.05f;
  train::Trainer trainer(&model, &scaler_, options);
  const train::FitResult result =
      trainer.Fit(train_loader_.get(), val_loader_.get());
  // Stopped early and the restored parameters reproduce the best
  // validation MAE.
  EXPECT_LT(static_cast<int64_t>(result.history.size()), 60);
  const auto val = trainer.Evaluate(val_loader_.get());
  EXPECT_NEAR(val.mae, result.best_val_mae, 1e-6);
}

TEST_F(TrainerTest, CurriculumSupervisesPrefixFirst) {
  // With curriculum on, the first epoch's train loss is computed on a
  // horizon prefix, which (for an untrained model) is not larger than the
  // full-horizon loss of the same model — weak but deterministic signal
  // that the slicing is active: just check training still converges and
  // runs with curriculum enabled.
  Rng rng(3);
  TinyModel model(6, 12, rng);
  train::TrainerOptions options;
  options.epochs = 6;
  options.curriculum_learning = true;
  train::Trainer trainer(&model, &scaler_, options);
  const train::FitResult result =
      trainer.Fit(train_loader_.get(), val_loader_.get());
  EXPECT_LT(result.history.back().validation.mae,
            result.history.front().validation.mae * 1.5);
}

TEST_F(TrainerTest, EvaluateIsDeterministicAndNoGrad) {
  Rng rng(4);
  TinyModel model(6, 12, rng);
  train::TrainerOptions options;
  train::Trainer trainer(&model, &scaler_, options);
  const auto a = trainer.Evaluate(val_loader_.get());
  const auto b = trainer.Evaluate(val_loader_.get());
  EXPECT_DOUBLE_EQ(a.mae, b.mae);
  for (const Tensor& p : model.Parameters()) {
    EXPECT_TRUE(p.GradData().empty());
  }
}

TEST_F(TrainerTest, EvaluateReportsMetricsOfConcatenatedBatches) {
  // Near-zero truths (0 < |y| <= 1e-2) count in MAE but not in MAPE. With
  // them only in the second batch's windows the two batches differ in their
  // MAPE-to-MAE entry ratios, and the pass must still report the metrics of
  // all entries at once.
  data::TimeSeriesDataset dataset = traffic_.dataset;
  std::vector<float> values = dataset.values.Data();
  const int64_t nodes = dataset.num_nodes();
  for (int64_t t = 100; t < 130; ++t) {
    for (int64_t n = 0; n < 3; ++n) {
      values[static_cast<size_t>(t * nodes + n)] = 0.005f;
    }
  }
  dataset.values = Tensor(dataset.values.shape(), std::move(values));
  data::WindowDataLoader loader(&dataset, &scaler_, {0, 1, 100, 101}, 12, 12,
                                /*batch_size=*/2);
  const std::vector<data::Batch> batches = loader.AssembleAllBatches();
  ASSERT_EQ(batches.size(), 2u);

  Rng rng(8);
  TinyModel model(6, 12, rng);
  train::Trainer trainer(&model, &scaler_, train::TrainerOptions{});
  const Tensor predictions =
      train::CollectPredictions(&model, &scaler_, &loader);
  std::vector<metrics::MetricAccumulator> per_batch(batches.size());
  for (size_t b = 0; b < batches.size(); ++b) {
    const int64_t first = 2 * static_cast<int64_t>(b);
    const Tensor y = batches[b].y;
    per_batch[b].Add(Slice(predictions, 0, first, first + 2).Data().data(),
                     y.Data().data(), y.numel(), 0.0f);
  }
  ASSERT_EQ(per_batch[0].ape_count, per_batch[0].count);
  ASSERT_LT(per_batch[1].ape_count, per_batch[1].count);

  const metrics::MetricSet want = metrics::ComputeMetrics(
      predictions, Concat({batches[0].y, batches[1].y}, 0));
  const metrics::MetricSet got = trainer.Evaluate(&loader);
  EXPECT_EQ(got.count, want.count);
  EXPECT_DOUBLE_EQ(got.mae, want.mae);
  EXPECT_DOUBLE_EQ(got.rmse, want.rmse);
  EXPECT_DOUBLE_EQ(got.mape, want.mape);
}

TEST_F(TrainerTest, EvaluateHorizonsOrdersDegradation) {
  // After training, later horizons cannot be (much) easier than earlier
  // ones on this data; mostly this asserts the per-horizon slicing indexes
  // the right steps. Train briefly and check all three horizons report.
  Rng rng(5);
  TinyModel model(6, 12, rng);
  train::TrainerOptions options;
  options.epochs = 5;
  train::Trainer trainer(&model, &scaler_, options);
  trainer.Fit(train_loader_.get(), val_loader_.get());
  const auto horizons =
      train::EvaluateHorizons(&model, &scaler_, val_loader_.get());
  ASSERT_EQ(horizons.size(), 3u);
  EXPECT_EQ(horizons[0].horizon, 3);
  EXPECT_EQ(horizons[2].horizon, 12);
  for (const auto& h : horizons) {
    EXPECT_GT(h.metrics.count, 0);
    EXPECT_TRUE(std::isfinite(h.metrics.mae));
  }
}

TEST_F(TrainerTest, CollectPredictionsShape) {
  Rng rng(6);
  TinyModel model(6, 12, rng);
  const Tensor preds = train::CollectPredictions(
      &model, &scaler_, val_loader_.get());
  EXPECT_EQ(preds.size(0), val_loader_->num_samples());
  EXPECT_EQ(preds.shape()[1], 12);
  EXPECT_EQ(preds.shape()[2], 6);
}

TEST_F(TrainerTest, D2StgnnIntegrationImprovesOverInit) {
  // Integration: the real model + trainer on real loaders, a few epochs.
  core::D2StgnnConfig config;
  config.num_nodes = 6;
  config.hidden_dim = 8;
  config.embed_dim = 4;
  config.num_layers = 1;
  config.num_heads = 2;
  Rng rng(7);
  core::D2Stgnn model(config, traffic_.dataset.network.adjacency, rng);
  train::TrainerOptions options;
  options.epochs = 3;
  train::Trainer trainer(&model, &scaler_, options);
  const auto before = trainer.Evaluate(val_loader_.get());
  trainer.Fit(train_loader_.get(), val_loader_.get());
  const auto after = trainer.Evaluate(val_loader_.get());
  EXPECT_LT(after.mae, before.mae);
}

}  // namespace
}  // namespace d2stgnn
