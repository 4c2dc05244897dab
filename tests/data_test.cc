#include "data/synthetic_traffic.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/presets.h"
#include "data/scaler.h"
#include "data/sliding_window.h"

namespace d2stgnn {
namespace {

data::SyntheticTrafficOptions SmallOptions() {
  data::SyntheticTrafficOptions options;
  options.network.num_nodes = 10;
  options.network.neighbors = 3;
  options.num_steps = 2 * 288;
  options.seed = 5;
  return options;
}

TEST(SyntheticTraffic, DeterministicInSeed) {
  const auto a = data::GenerateSyntheticTraffic(SmallOptions());
  const auto b = data::GenerateSyntheticTraffic(SmallOptions());
  ASSERT_EQ(a.dataset.values.numel(), b.dataset.values.numel());
  for (int64_t i = 0; i < a.dataset.values.numel(); ++i) {
    EXPECT_FLOAT_EQ(a.dataset.values.At(i), b.dataset.values.At(i));
  }
}

TEST(SyntheticTraffic, DifferentSeedsDiffer) {
  auto options = SmallOptions();
  const auto a = data::GenerateSyntheticTraffic(options);
  options.seed = 6;
  const auto b = data::GenerateSyntheticTraffic(options);
  int64_t differing = 0;
  for (int64_t i = 0; i < a.dataset.values.numel(); ++i) {
    if (a.dataset.values.At(i) != b.dataset.values.At(i)) ++differing;
  }
  EXPECT_GT(differing, a.dataset.values.numel() / 2);
}

TEST(SyntheticTraffic, SpeedBoundedAndFlowIntegral) {
  auto options = SmallOptions();
  options.flow = false;
  const auto speed = data::GenerateSyntheticTraffic(options);
  for (float v : speed.dataset.values.Data()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, data::kFreeFlowSpeed + 2.0f);
  }
  options.flow = true;
  const auto flow = data::GenerateSyntheticTraffic(options);
  for (float v : flow.dataset.values.Data()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_FLOAT_EQ(v, std::round(v));
  }
}

TEST(SyntheticTraffic, TotalIsSuperpositionOfComponents) {
  // The generator's premise (paper Fig. 2): each series is inherent +
  // diffusion. Verify the latent components exist and the diffusion share
  // matches diffusion_strength roughly.
  const auto traffic = data::GenerateSyntheticTraffic(SmallOptions());
  double inh_sum = 0.0, dif_sum = 0.0;
  for (int64_t i = 0; i < traffic.inherent.numel(); ++i) {
    inh_sum += traffic.inherent.At(i);
    dif_sum += traffic.diffusion.At(i);
  }
  EXPECT_GT(inh_sum, 0.0);
  EXPECT_GT(dif_sum, 0.0);
  EXPECT_LT(dif_sum, inh_sum);  // gamma < 0.5 keeps diffusion the minority
}

TEST(SyntheticTraffic, DiffusionShareIsDynamicOverDay) {
  // Fig. 2(c): the diffusion intensity must vary with time of day.
  auto options = SmallOptions();
  options.num_steps = 6 * 288;
  const auto traffic = data::GenerateSyntheticTraffic(options);
  const int64_t n = traffic.dataset.num_nodes();
  auto share_at = [&](int64_t tod_lo, int64_t tod_hi) {
    double dif = 0.0, tot = 0.0;
    for (int64_t t = 0; t < traffic.dataset.num_steps(); ++t) {
      const int64_t tod = traffic.dataset.TimeOfDay(t);
      if (tod < tod_lo || tod >= tod_hi) continue;
      for (int64_t i = 0; i < n; ++i) {
        dif += traffic.diffusion.At(t * n + i);
        tot += traffic.diffusion.At(t * n + i) +
               traffic.inherent.At(t * n + i);
      }
    }
    return dif / tot;
  };
  const double rush = share_at(7 * 12, 9 * 12);    // 07:00-09:00
  const double night = share_at(1 * 12, 4 * 12);   // 01:00-04:00
  EXPECT_GT(rush, night * 1.2)
      << "rush " << rush << " vs night " << night;
}

TEST(SyntheticTraffic, WeekendsAreLighter) {
  auto options = SmallOptions();
  options.num_steps = 14 * 288;
  options.flow = true;
  options.failure_prob = 0.0f;
  const auto traffic = data::GenerateSyntheticTraffic(options);
  double weekday = 0.0, weekend = 0.0;
  int64_t weekday_n = 0, weekend_n = 0;
  const int64_t n = traffic.dataset.num_nodes();
  for (int64_t t = 0; t < traffic.dataset.num_steps(); ++t) {
    const bool is_weekend = traffic.dataset.DayOfWeek(t) >= 5;
    for (int64_t i = 0; i < n; ++i) {
      if (is_weekend) {
        weekend += traffic.dataset.values.At(t * n + i);
        ++weekend_n;
      } else {
        weekday += traffic.dataset.values.At(t * n + i);
        ++weekday_n;
      }
    }
  }
  EXPECT_GT(weekday / weekday_n, weekend / weekend_n);
}

TEST(SyntheticTraffic, SpeedDatasetsContainFailureZeros) {
  auto options = SmallOptions();
  options.num_steps = 10 * 288;
  options.failure_prob = 2e-3f;
  const auto traffic = data::GenerateSyntheticTraffic(options);
  int64_t zeros = 0;
  for (float v : traffic.dataset.values.Data()) {
    if (v == 0.0f) ++zeros;
  }
  EXPECT_GT(zeros, 0);
}

TEST(Presets, FullScaleMatchesTable2) {
  EXPECT_EQ(data::MetrLaOptions(1.0f).network.num_nodes, 207);
  EXPECT_EQ(data::MetrLaOptions(1.0f).num_steps, 34272);
  EXPECT_EQ(data::PemsBayOptions(1.0f).network.num_nodes, 325);
  EXPECT_EQ(data::PemsBayOptions(1.0f).num_steps, 52116);
  EXPECT_EQ(data::Pems04Options(1.0f).network.num_nodes, 307);
  EXPECT_EQ(data::Pems04Options(1.0f).num_steps, 16992);
  EXPECT_EQ(data::Pems08Options(1.0f).network.num_nodes, 170);
  EXPECT_EQ(data::Pems08Options(1.0f).num_steps, 17856);
  EXPECT_FALSE(data::MetrLaOptions(1.0f).flow);
  EXPECT_TRUE(data::Pems04Options(1.0f).flow);
}

TEST(Presets, ScaleShrinksButFloors) {
  const auto tiny = data::MetrLaOptions(0.01f);
  EXPECT_GE(tiny.network.num_nodes, 12);
  EXPECT_GE(tiny.num_steps, 16 * 288);
}

TEST(Scaler, NormalizesTrainRange) {
  Tensor values({4, 2}, {1, 2, 3, 4, 100, 100, 100, 100});
  data::StandardScaler scaler;
  scaler.Fit(values, /*train_steps=*/2, /*mask_zeros=*/false);
  EXPECT_NEAR(scaler.mean(), 2.5f, 1e-5f);
  const Tensor z = scaler.Transform(values);
  const Tensor back = scaler.InverseTransform(z);
  for (int64_t i = 0; i < values.numel(); ++i) {
    EXPECT_NEAR(back.At(i), values.At(i), 1e-3f);
  }
}

TEST(Scaler, MaskZerosExcludesFailures) {
  Tensor values({2, 2}, {10, 0, 10, 0});
  data::StandardScaler masked;
  masked.Fit(values, 2, /*mask_zeros=*/true);
  EXPECT_NEAR(masked.mean(), 10.0f, 1e-5f);
  data::StandardScaler unmasked;
  unmasked.Fit(values, 2, /*mask_zeros=*/false);
  EXPECT_NEAR(unmasked.mean(), 5.0f, 1e-5f);
}

TEST(SlidingWindow, SplitsAreChronologicalAndDisjoint) {
  const auto splits = data::MakeChronologicalSplits(1000, 12, 12, 0.7f, 0.1f);
  EXPECT_FALSE(splits.train.empty());
  EXPECT_FALSE(splits.val.empty());
  EXPECT_FALSE(splits.test.empty());
  // Train windows never read past the train boundary.
  EXPECT_LE(splits.train.back() + 24, 700);
  EXPECT_GE(splits.val.front(), 700);
  EXPECT_GE(splits.test.front(), 800);
  EXPECT_LE(splits.test.back() + 24, 1000);
}

class LoaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    traffic_ = data::GenerateSyntheticTraffic(SmallOptions());
    scaler_.Fit(traffic_.dataset.values, 400, true);
  }
  data::SyntheticTraffic traffic_;
  data::StandardScaler scaler_;
};

TEST_F(LoaderTest, BatchShapesAndChannels) {
  data::WindowDataLoader loader(&traffic_.dataset, &scaler_, {0, 5, 10, 15, 20},
                                12, 12, 2);
  EXPECT_EQ(loader.NumBatches(), 3);
  const data::Batch batch = loader.GetBatch(0);
  EXPECT_EQ(batch.x.shape(), (Shape{2, 12, 10, data::kInputFeatures}));
  EXPECT_EQ(batch.y.shape(), (Shape{2, 12, 10, 1}));
  EXPECT_EQ(batch.time_of_day.size(), 24u);
  // Final (ragged) batch.
  const data::Batch last = loader.GetBatch(2);
  EXPECT_EQ(last.x.size(0), 1);
}

TEST_F(LoaderTest, ChannelsCarryNormalizedValueAndTime) {
  data::WindowDataLoader loader(&traffic_.dataset, &scaler_, {37}, 12, 12, 1);
  const data::Batch batch = loader.GetBatch(0);
  const int64_t n = traffic_.dataset.num_nodes();
  for (int64_t t = 0; t < 12; ++t) {
    const float raw = traffic_.dataset.values.At((37 + t) * n + 3);
    const float expected = (raw - scaler_.mean()) / scaler_.std_dev();
    EXPECT_NEAR(batch.x.At({0, t, 3, 0}), expected, 1e-4f);
    EXPECT_NEAR(batch.x.At({0, t, 3, 1}),
                static_cast<float>(traffic_.dataset.TimeOfDay(37 + t)) /
                    static_cast<float>(traffic_.dataset.steps_per_day),
                1e-5f);
  }
  // Targets are raw values.
  EXPECT_FLOAT_EQ(batch.y.At({0, 0, 3, 0}),
                  traffic_.dataset.values.At((37 + 12) * n + 3));
}

TEST_F(LoaderTest, ShuffleKeepsSampleSet) {
  std::vector<int64_t> starts = {0, 3, 6, 9, 12, 15};
  data::WindowDataLoader loader(&traffic_.dataset, &scaler_, starts, 12, 12,
                                6);
  Rng rng(1);
  loader.Shuffle(rng);
  const data::Batch batch = loader.GetBatch(0);
  EXPECT_EQ(batch.batch_size, 6);
  EXPECT_EQ(loader.num_samples(), 6);
}

}  // namespace
}  // namespace d2stgnn
