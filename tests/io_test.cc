// Tests of the persistence layer: CSV dataset round-trips and model
// checkpointing.

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "core/d2stgnn.h"
#include "data/csv_loader.h"
#include "data/synthetic_traffic.h"
#include "train/checkpoint.h"

namespace d2stgnn {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

data::SyntheticTraffic MakeTraffic() {
  data::SyntheticTrafficOptions options;
  options.network.num_nodes = 6;
  options.num_steps = 300;
  options.seed = 61;
  return data::GenerateSyntheticTraffic(options);
}

TEST(CsvLoader, RoundTripPreservesDataset) {
  const auto traffic = MakeTraffic();
  const std::string readings = TempPath("readings.csv");
  const std::string distances = TempPath("distances.csv");
  ASSERT_TRUE(data::SaveCsvDataset(traffic.dataset, readings, distances));

  data::CsvDatasetOptions options;
  options.name = "roundtrip";
  data::TimeSeriesDataset loaded;
  ASSERT_TRUE(data::LoadCsvDataset(readings, distances, options, &loaded));
  EXPECT_EQ(loaded.num_steps(), traffic.dataset.num_steps());
  EXPECT_EQ(loaded.num_nodes(), traffic.dataset.num_nodes());
  for (int64_t i = 0; i < loaded.values.numel(); ++i) {
    EXPECT_NEAR(loaded.values.At(i), traffic.dataset.values.At(i), 1e-3f);
  }
  // Adjacency rebuilt from distances is structurally the same graph.
  int64_t mismatches = 0;
  for (int64_t i = 0; i < loaded.values.size(1); ++i) {
    for (int64_t j = 0; j < loaded.values.size(1); ++j) {
      const bool a = loaded.network.adjacency.At({i, j}) > 0.0f;
      const bool b = traffic.dataset.network.adjacency.At({i, j}) > 0.0f;
      if (a != b) ++mismatches;
    }
  }
  // The connectivity repair in BuildRandomSensorNetwork can add a couple of
  // sub-threshold edges the kernel reconstruction drops.
  EXPECT_LE(mismatches, 2);
}

TEST(CsvLoader, SkipsHeaderRows) {
  const std::string readings = TempPath("with_header.csv");
  const std::string distances = TempPath("with_header_dist.csv");
  {
    std::ofstream r(readings);
    r << "s0,s1\n1.0,2.0\n3.0,4.0\n5.0,6.0\n";
    std::ofstream d(distances);
    d << "from,to,distance\n0,1,1.0\n1,0,10.0\n";
  }
  data::TimeSeriesDataset loaded;
  ASSERT_TRUE(data::LoadCsvDataset(readings, distances,
                                    data::CsvDatasetOptions(), &loaded));
  EXPECT_EQ(loaded.num_steps(), 3);
  EXPECT_EQ(loaded.num_nodes(), 2);
  EXPECT_FLOAT_EQ(loaded.values.At({1, 1}), 4.0f);
  // Finite distances {0, 0, 1, 10} give sigma^2 ~ 17.7: the nearer edge
  // weighs exp(-1 / 17.7) ~ 0.95 and clears the 0.1 kernel threshold; the
  // farther one weighs exp(-100 / 17.7) ~ 0.004 and is dropped.
  EXPECT_GT(loaded.network.adjacency.At({0, 1}), 0.9f);
  EXPECT_EQ(loaded.network.adjacency.At({1, 0}), 0.0f);
}

TEST(CsvLoader, RejectsRaggedRows) {
  const std::string readings = TempPath("ragged.csv");
  const std::string distances = TempPath("ragged_dist.csv");
  {
    std::ofstream r(readings);
    r << "1.0,2.0\n3.0\n";
    std::ofstream d(distances);
    d << "0,1,1.0\n";
  }
  data::TimeSeriesDataset loaded;
  EXPECT_FALSE(data::LoadCsvDataset(readings, distances,
                                    data::CsvDatasetOptions(), &loaded));
}

TEST(CsvLoader, RejectsNonFiniteReadings) {
  const std::string readings = TempPath("nonfinite.csv");
  const std::string distances = TempPath("nonfinite_dist.csv");
  {
    std::ofstream r(readings);
    r << "1.0,2.0\n3.0,nan\n";
    std::ofstream d(distances);
    d << "0,1,1.0\n";
  }
  data::TimeSeriesDataset loaded;
  EXPECT_FALSE(data::LoadCsvDataset(readings, distances,
                                    data::CsvDatasetOptions(), &loaded));
  // inf is rejected the same way.
  {
    std::ofstream r(readings);
    r << "1.0,2.0\ninf,4.0\n";
  }
  EXPECT_FALSE(data::LoadCsvDataset(readings, distances,
                                    data::CsvDatasetOptions(), &loaded));
}

TEST(CsvLoader, RejectsNonFiniteOrNegativeDistance) {
  const std::string readings = TempPath("baddist.csv");
  const std::string distances = TempPath("baddist_dist.csv");
  {
    std::ofstream r(readings);
    r << "1.0,2.0\n3.0,4.0\n";
    std::ofstream d(distances);
    d << "0,1,inf\n";
  }
  data::TimeSeriesDataset loaded;
  EXPECT_FALSE(data::LoadCsvDataset(readings, distances,
                                    data::CsvDatasetOptions(), &loaded));
  {
    std::ofstream d(distances);
    d << "0,1,-2.0\n";
  }
  EXPECT_FALSE(data::LoadCsvDataset(readings, distances,
                                    data::CsvDatasetOptions(), &loaded));
}

TEST(CsvLoader, RejectsWrongDistanceColumnCount) {
  const std::string readings = TempPath("cols.csv");
  const std::string distances = TempPath("cols_dist.csv");
  {
    std::ofstream r(readings);
    r << "1.0,2.0\n3.0,4.0\n";
    std::ofstream d(distances);
    d << "0,1\n";
  }
  data::TimeSeriesDataset loaded;
  EXPECT_FALSE(data::LoadCsvDataset(readings, distances,
                                    data::CsvDatasetOptions(), &loaded));
}

TEST(CsvLoader, RejectsMissingFile) {
  data::TimeSeriesDataset loaded;
  EXPECT_FALSE(data::LoadCsvDataset("/nonexistent/readings.csv",
                                    "/nonexistent/dist.csv",
                                    data::CsvDatasetOptions(), &loaded));
}

TEST(CsvLoader, RejectsOutOfRangeSensorIndex) {
  const std::string readings = TempPath("oor.csv");
  const std::string distances = TempPath("oor_dist.csv");
  {
    std::ofstream r(readings);
    r << "1.0,2.0\n3.0,4.0\n";
    std::ofstream d(distances);
    d << "0,9,1.0\n";
  }
  data::TimeSeriesDataset loaded;
  EXPECT_FALSE(data::LoadCsvDataset(readings, distances,
                                    data::CsvDatasetOptions(), &loaded));
}

class CheckpointTest : public ::testing::Test {
 protected:
  core::D2StgnnConfig Config() {
    core::D2StgnnConfig config;
    config.num_nodes = 6;
    config.hidden_dim = 8;
    config.embed_dim = 4;
    config.num_layers = 1;
    config.num_heads = 2;
    return config;
  }
};

TEST_F(CheckpointTest, SaveLoadRoundTrip) {
  const auto traffic = MakeTraffic();
  Rng rng_a(1);
  core::D2Stgnn model_a(Config(), traffic.dataset.network.adjacency, rng_a);
  const std::string path = TempPath("model.ckpt");
  ASSERT_TRUE(train::SaveCheckpoint(model_a, path));

  // A differently initialized model converges to A's weights after load.
  Rng rng_b(999);
  core::D2Stgnn model_b(Config(), traffic.dataset.network.adjacency, rng_b);
  ASSERT_TRUE(train::LoadCheckpoint(&model_b, path));

  const auto params_a = model_a.Parameters();
  const auto params_b = model_b.Parameters();
  ASSERT_EQ(params_a.size(), params_b.size());
  for (size_t i = 0; i < params_a.size(); ++i) {
    ASSERT_EQ(params_a[i].Data().size(), params_b[i].Data().size());
    for (size_t j = 0; j < params_a[i].Data().size(); ++j) {
      EXPECT_FLOAT_EQ(params_a[i].Data()[j], params_b[i].Data()[j]);
    }
  }
}

TEST_F(CheckpointTest, LoadedModelPredictsIdentically) {
  const auto traffic = MakeTraffic();
  data::StandardScaler scaler;
  scaler.Fit(traffic.dataset.values, 200, true);
  const auto splits = data::MakeChronologicalSplits(300, 12, 12, 0.7f, 0.1f);
  data::WindowDataLoader loader(&traffic.dataset, &scaler, splits.test, 12,
                                12, 4);
  const data::Batch batch = loader.GetBatch(0);

  Rng rng_a(1);
  core::D2Stgnn model_a(Config(), traffic.dataset.network.adjacency, rng_a);
  const std::string path = TempPath("model2.ckpt");
  ASSERT_TRUE(train::SaveCheckpoint(model_a, path));
  Rng rng_b(2);
  core::D2Stgnn model_b(Config(), traffic.dataset.network.adjacency, rng_b);
  ASSERT_TRUE(train::LoadCheckpoint(&model_b, path));

  NoGradGuard no_grad;
  model_a.SetTraining(false);
  model_b.SetTraining(false);
  const Tensor pred_a = model_a.Forward(batch);
  const Tensor pred_b = model_b.Forward(batch);
  for (int64_t i = 0; i < pred_a.numel(); ++i) {
    EXPECT_FLOAT_EQ(pred_a.At(i), pred_b.At(i));
  }
}

TEST_F(CheckpointTest, RejectsArchitectureMismatch) {
  const auto traffic = MakeTraffic();
  Rng rng(1);
  core::D2Stgnn model(Config(), traffic.dataset.network.adjacency, rng);
  const std::string path = TempPath("model3.ckpt");
  ASSERT_TRUE(train::SaveCheckpoint(model, path));

  auto other_config = Config();
  other_config.hidden_dim = 12;  // different widths
  Rng rng2(2);
  core::D2Stgnn other(other_config, traffic.dataset.network.adjacency, rng2);
  EXPECT_FALSE(train::LoadCheckpoint(&other, path));
}

TEST_F(CheckpointTest, RejectsCorruptFile) {
  const std::string path = TempPath("garbage.ckpt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a checkpoint";
  }
  const auto traffic = MakeTraffic();
  Rng rng(1);
  core::D2Stgnn model(Config(), traffic.dataset.network.adjacency, rng);
  EXPECT_FALSE(train::LoadCheckpoint(&model, path));
}

}  // namespace
}  // namespace d2stgnn
