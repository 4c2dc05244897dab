#include "baselines/registry.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "baselines/historical_average.h"
#include "baselines/linear_svr.h"
#include "baselines/var.h"
#include "data/synthetic_traffic.h"
#include "metrics/metrics.h"
#include "optim/adam.h"
#include "tensor/ops.h"
#include "train/evaluator.h"

namespace d2stgnn {
namespace {

class BaselineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SyntheticTrafficOptions options;
    options.network.num_nodes = 8;
    options.network.neighbors = 3;
    options.num_steps = 1200;
    options.seed = 21;
    traffic_ = data::GenerateSyntheticTraffic(options);
    train_steps_ = 1200 * 7 / 10;
    scaler_.Fit(traffic_.dataset.values, train_steps_, true);
    splits_ = data::MakeChronologicalSplits(1200, 12, 12, 0.7f, 0.1f);
    loader_ = std::make_unique<data::WindowDataLoader>(
        &traffic_.dataset, &scaler_, splits_.train, 12, 12, 4);
  }

  data::SyntheticTraffic traffic_;
  int64_t train_steps_ = 0;
  data::StandardScaler scaler_;
  data::SplitWindows splits_;
  std::unique_ptr<data::WindowDataLoader> loader_;
};

TEST_F(BaselineTest, HistoricalAverageBeatsNothingButIsFinite) {
  baselines::HistoricalAverage ha;
  ha.Fit(traffic_.dataset, train_steps_);
  Tensor pred = ha.Predict(traffic_.dataset, splits_.test, 12, 12);
  EXPECT_EQ(pred.size(0), static_cast<int64_t>(splits_.test.size()));
  EXPECT_EQ(pred.shape()[1], 12);
  for (float v : pred.Data()) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0f);
  }
}

TEST_F(BaselineTest, HistoricalAveragePredictsWeeklyPattern) {
  // HA should do much better than predicting the global mean because the
  // synthetic data has strong daily peaks.
  baselines::HistoricalAverage ha;
  ha.Fit(traffic_.dataset, train_steps_);
  Tensor pred = ha.Predict(traffic_.dataset, splits_.test, 12, 12);

  // Collect matching truths.
  const int64_t n = traffic_.dataset.num_nodes();
  std::vector<float> truth(pred.Data().size());
  for (size_t w = 0; w < splits_.test.size(); ++w) {
    for (int64_t h = 0; h < 12; ++h) {
      const int64_t t = splits_.test[w] + 12 + h;
      for (int64_t i = 0; i < n; ++i) {
        truth[(w * 12 + static_cast<size_t>(h)) * n + static_cast<size_t>(i)] =
            traffic_.dataset.values.At(t * n + i);
      }
    }
  }
  Tensor truth_t(pred.shape(), std::move(truth));
  auto m = metrics::ComputeMetrics(pred, truth_t);

  // Constant global-mean prediction.
  double mean = 0.0;
  for (float v : truth_t.Data()) mean += v;
  mean /= static_cast<double>(truth_t.numel());
  Tensor constant = Tensor::Full(pred.shape(), static_cast<float>(mean));
  auto m_const = metrics::ComputeMetrics(constant, truth_t);
  EXPECT_LT(m.mae, m_const.mae);
}

TEST(RidgeSolver, SolvesKnownSystem) {
  // X^T X = [[2, 0], [0, 2]], X^T Y = [[4], [6]] -> W = [[2], [3]]
  // (ridge=0).
  std::vector<float> xtx = {2, 0, 0, 2};
  std::vector<float> xty = {4, 6};
  auto w = baselines::SolveRidgeNormalEquations(xtx, xty, 2, 1, 0.0f);
  EXPECT_NEAR(w[0], 2.0f, 1e-5f);
  EXPECT_NEAR(w[1], 3.0f, 1e-5f);
}

TEST(RidgeSolver, RidgeShrinksSolution) {
  std::vector<float> xtx = {1, 0, 0, 1};
  std::vector<float> xty = {1, 1};
  auto w0 = baselines::SolveRidgeNormalEquations(xtx, xty, 2, 1, 0.0f);
  auto w1 = baselines::SolveRidgeNormalEquations(xtx, xty, 2, 1, 1.0f);
  EXPECT_GT(w0[0], w1[0]);
}

TEST_F(BaselineTest, VarFitsAndPredicts) {
  baselines::Var var(3);
  var.Fit(traffic_.dataset, train_steps_);
  Tensor pred = var.Predict(traffic_.dataset, splits_.test, 12, 12);
  EXPECT_EQ(pred.shape(),
            (Shape{static_cast<int64_t>(splits_.test.size()), 12, 8, 1}));
  for (float v : pred.Data()) EXPECT_TRUE(std::isfinite(v));
}

TEST_F(BaselineTest, VarShortHorizonBeatsHa) {
  // On smooth synthetic data, VAR's one-step-ahead forecasts should beat
  // the weekly average at horizon 1 (this mirrors the paper's Table 3
  // ordering HA << VAR at short horizons).
  baselines::Var var(3);
  var.Fit(traffic_.dataset, train_steps_);
  baselines::HistoricalAverage ha;
  ha.Fit(traffic_.dataset, train_steps_);
  Tensor pv = var.Predict(traffic_.dataset, splits_.test, 12, 12);
  Tensor ph = ha.Predict(traffic_.dataset, splits_.test, 12, 12);

  const int64_t n = traffic_.dataset.num_nodes();
  std::vector<float> truth(pv.Data().size());
  for (size_t w = 0; w < splits_.test.size(); ++w) {
    for (int64_t h = 0; h < 12; ++h) {
      const int64_t t = splits_.test[w] + 12 + h;
      for (int64_t i = 0; i < n; ++i) {
        truth[(w * 12 + static_cast<size_t>(h)) * n + static_cast<size_t>(i)] =
            traffic_.dataset.values.At(t * n + i);
      }
    }
  }
  Tensor truth_t(pv.shape(), std::move(truth));
  auto mv = train::EvaluatePredictionHorizons(pv, truth_t, {1});
  auto mh = train::EvaluatePredictionHorizons(ph, truth_t, {1});
  EXPECT_LT(mv[0].metrics.mae, mh[0].metrics.mae);
}

TEST_F(BaselineTest, LinearSvrFitsAndPredicts) {
  baselines::LinearSvr svr;
  svr.Fit(traffic_.dataset, train_steps_, 12, 12);
  Tensor pred = svr.Predict(traffic_.dataset, splits_.test, 12, 12);
  EXPECT_EQ(pred.size(1), 12);
  for (float v : pred.Data()) EXPECT_TRUE(std::isfinite(v));
}

TEST_F(BaselineTest, EveryDeepModelForwardShapeAndBackward) {
  baselines::ModelConfig config;
  config.num_nodes = 8;
  config.hidden_dim = 8;
  config.embed_dim = 4;
  const data::Batch batch = loader_->GetBatch(0);

  std::vector<std::string> names = baselines::DeepModelNames();
  names.push_back("DGCRN-static");
  names.push_back("D2STGNN-static");
  names.push_back("D2STGNN-coupled");
  for (const std::string& name : names) {
    Rng rng(33);
    auto model = baselines::MakeModel(
        name, config, traffic_.dataset.network.adjacency, rng);
    Tensor pred = model->Forward(batch);
    EXPECT_EQ(pred.shape(), (Shape{4, 12, 8, 1})) << name;
    Tensor loss = metrics::MaskedMaeLoss(
        scaler_.InverseTransform(pred), batch.y);
    ASSERT_TRUE(std::isfinite(loss.Item())) << name;
    model->ZeroGrad();
    loss.Backward();
    double grad_mass = 0.0;
    for (const Tensor& p : model->Parameters()) {
      for (float g : p.GradData()) grad_mass += std::fabs(g);
    }
    EXPECT_GT(grad_mass, 0.0) << name;
    EXPECT_GT(model->ParameterCount(), 0) << name;
  }
}

// DGCRN-static is the DCRNN backbone: built from the same seed, the two
// draw the same weights and run the same DCGRU roll-out.
TEST_F(BaselineTest, StaticDgcrnForecastsBitwiseLikeDcrnn) {
  baselines::ModelConfig config;
  config.num_nodes = 8;
  config.hidden_dim = 8;
  const data::Batch batch = loader_->GetBatch(0);
  std::vector<std::vector<float>> forecasts;
  for (const char* name : {"DCRNN", "DGCRN-static"}) {
    Rng rng(77);
    auto model = baselines::MakeModel(
        name, config, traffic_.dataset.network.adjacency, rng);
    NoGradGuard no_grad;
    forecasts.push_back(model->Forward(batch).Data());
  }
  ASSERT_EQ(forecasts[0].size(), forecasts[1].size());
  EXPECT_EQ(std::memcmp(forecasts[0].data(), forecasts[1].data(),
                        forecasts[0].size() * sizeof(float)),
            0);
}

TEST_F(BaselineTest, DeepModelsLearnOnOneBatch) {
  // Every deep model should be able to overfit a single batch noticeably.
  baselines::ModelConfig config;
  config.num_nodes = 8;
  config.hidden_dim = 8;
  config.embed_dim = 4;
  const data::Batch batch = loader_->GetBatch(0);
  for (const std::string& name : baselines::DeepModelNames()) {
    Rng rng(55);
    auto model = baselines::MakeModel(
        name, config, traffic_.dataset.network.adjacency, rng);
    optim::Adam adam(model->Parameters(), 5e-3f);
    float first = 0.0f, last = 0.0f;
    for (int step = 0; step < 20; ++step) {
      Tensor pred = scaler_.InverseTransform(model->Forward(batch));
      Tensor loss = metrics::MaskedMaeLoss(pred, batch.y);
      if (step == 0) first = loss.Item();
      last = loss.Item();
      adam.ZeroGrad();
      loss.Backward();
      optim::ClipGradNorm(adam.params(), 5.0f);
      adam.Step();
    }
    EXPECT_LT(last, first) << name << " first=" << first << " last=" << last;
  }
}

}  // namespace
}  // namespace d2stgnn
