#include "metrics/metrics.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/grad_check.h"
#include "tensor/ops.h"

namespace d2stgnn::metrics {
namespace {

TEST(Metrics, ExactValuesOnKnownData) {
  Tensor pred({4}, {1.0f, 2.0f, 3.0f, 4.0f});
  Tensor truth({4}, {1.0f, 4.0f, 1.0f, 8.0f});
  const MetricSet m = ComputeMetrics(pred, truth, /*null_value=*/-1.0f);
  // errors: 0, -2, 2, -4
  EXPECT_NEAR(m.mae, 2.0, 1e-6);
  EXPECT_NEAR(m.rmse, std::sqrt((0.0 + 4.0 + 4.0 + 16.0) / 4.0), 1e-6);
  EXPECT_NEAR(m.mape, (0.0 + 0.5 + 2.0 + 0.5) / 4.0, 1e-6);
  EXPECT_EQ(m.count, 4);
}

TEST(Metrics, MasksNullValues) {
  Tensor pred({3}, {10.0f, 100.0f, 10.0f});
  Tensor truth({3}, {12.0f, 0.0f, 8.0f});  // middle entry is a failure
  const MetricSet m = ComputeMetrics(pred, truth, 0.0f);
  EXPECT_EQ(m.count, 2);
  EXPECT_NEAR(m.mae, 2.0, 1e-6);
}

TEST(Metrics, PerfectPredictionIsZero) {
  Rng rng(1);
  Tensor truth = Tensor::Rand({20}, rng, 1.0f, 10.0f);
  const MetricSet m = ComputeMetrics(truth, truth);
  EXPECT_DOUBLE_EQ(m.mae, 0.0);
  EXPECT_DOUBLE_EQ(m.rmse, 0.0);
  EXPECT_DOUBLE_EQ(m.mape, 0.0);
}

TEST(Metrics, RmseAtLeastMae) {
  Rng rng(2);
  Tensor pred = Tensor::Rand({50}, rng, 1.0f, 5.0f);
  Tensor truth = Tensor::Rand({50}, rng, 1.0f, 5.0f);
  const MetricSet m = ComputeMetrics(pred, truth);
  EXPECT_GE(m.rmse, m.mae);
}

TEST(MaskedMaeLossTest, MatchesMetricOnCleanData) {
  Rng rng(3);
  Tensor pred = Tensor::Rand({10}, rng, 1.0f, 5.0f);
  Tensor truth = Tensor::Rand({10}, rng, 1.0f, 5.0f);
  const float loss = MaskedMaeLoss(pred, truth).Item();
  EXPECT_NEAR(loss, ComputeMetrics(pred, truth).mae, 1e-5);
}

TEST(MaskedMaeLossTest, IgnoresMaskedEntries) {
  Tensor pred({2}, {5.0f, 1000.0f});
  Tensor truth({2}, {4.0f, 0.0f});
  EXPECT_NEAR(MaskedMaeLoss(pred, truth).Item(), 1.0f, 1e-6f);
}

TEST(MaskedMaeLossTest, AllMaskedGivesZeroLossAndGrad) {
  Tensor pred = Tensor::Ones({3}).SetRequiresGrad(true);
  Tensor truth = Tensor::Zeros({3});
  Tensor loss = MaskedMaeLoss(pred, truth);
  EXPECT_FLOAT_EQ(loss.Item(), 0.0f);
  loss.Backward();
  for (float g : pred.GradData()) EXPECT_FLOAT_EQ(g, 0.0f);
}

TEST(MaskedMaeLossTest, GradientIsSignOverCount) {
  Tensor pred({2}, {5.0f, 1.0f});
  pred.SetRequiresGrad(true);
  Tensor truth({2}, {3.0f, 2.0f});
  MaskedMaeLoss(pred, truth, -1.0f).Backward();
  EXPECT_NEAR(pred.Grad().At(0), 0.5f, 1e-6f);   // over-prediction
  EXPECT_NEAR(pred.Grad().At(1), -0.5f, 1e-6f);  // under-prediction
}

TEST(MaskedMaeLossTest, GradCheck) {
  Rng rng(4);
  Tensor pred = Tensor::Rand({8}, rng, 1.0f, 3.0f).SetRequiresGrad(true);
  Tensor truth = Tensor::Rand({8}, rng, 4.0f, 6.0f);  // keep |err| > eps
  auto loss = [&] { return MaskedMaeLoss(pred, truth); };
  auto result = CheckGradients(loss, {pred}, rng, 1e-3f);
  EXPECT_TRUE(result.ok) << result.max_relative_error;
}

TEST(PercentileTest, InterpolatesBetweenRanks) {
  // Type-7 (linear) interpolation over {1..4}: rank = pct/100 * (n-1).
  const std::vector<double> samples = {4.0, 1.0, 3.0, 2.0};  // unsorted input
  EXPECT_DOUBLE_EQ(Percentile(samples, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(samples, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(samples, 75.0), 3.25);
  EXPECT_DOUBLE_EQ(Percentile(samples, 100.0), 4.0);
}

TEST(PercentileTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 99.0), 7.0);
}

TEST(SummarizeLatenciesTest, MatchesPercentileAndMoments) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(static_cast<double>(i));
  const LatencyStats stats = SummarizeLatencies(samples);
  EXPECT_EQ(stats.count, 100);
  EXPECT_DOUBLE_EQ(stats.p50, Percentile(samples, 50.0));
  EXPECT_DOUBLE_EQ(stats.p95, Percentile(samples, 95.0));
  EXPECT_DOUBLE_EQ(stats.p99, Percentile(samples, 99.0));
  EXPECT_DOUBLE_EQ(stats.mean, 50.5);
  EXPECT_DOUBLE_EQ(stats.max, 100.0);
  EXPECT_LE(stats.p50, stats.p95);
  EXPECT_LE(stats.p95, stats.p99);
}

TEST(SummarizeLatenciesTest, EmptyIsAllZero) {
  const LatencyStats stats = SummarizeLatencies({});
  EXPECT_EQ(stats.count, 0);
  EXPECT_DOUBLE_EQ(stats.p50, 0.0);
  EXPECT_DOUBLE_EQ(stats.p99, 0.0);
  EXPECT_DOUBLE_EQ(stats.mean, 0.0);
  EXPECT_DOUBLE_EQ(stats.max, 0.0);
}

}  // namespace
}  // namespace d2stgnn::metrics
