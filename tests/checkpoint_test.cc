// Tests of fault-tolerant training: full-state checkpoints, bitwise
// interrupted-then-resumed runs (cooperative stop and SIGKILL crash, at 1
// and 4 threads), retention, and v1 back-compat.

#include "train/checkpoint.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstring>
#include <fstream>
#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "data/sliding_window.h"
#include "data/synthetic_traffic.h"
#include "nn/linear.h"
#include "train/trainer.h"

namespace d2stgnn {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Creates (or empties) a per-test checkpoint directory, so stale files from
// a previous run can never satisfy LatestCheckpoint.
std::string MakeCleanDir(const std::string& name) {
  const std::string dir = TempPath(name);
  ::mkdir(dir.c_str(), 0755);
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* entry = ::readdir(d)) {
      if (entry->d_name[0] == '.') continue;
      ::unlink((dir + "/" + entry->d_name).c_str());
    }
    ::closedir(d);
  }
  return dir;
}

int64_t CountFilesWithPrefix(const std::string& dir,
                             const std::string& prefix) {
  int64_t count = 0;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* entry = ::readdir(d)) {
      if (std::strncmp(entry->d_name, prefix.c_str(), prefix.size()) == 0) {
        ++count;
      }
    }
    ::closedir(d);
  }
  return count;
}

// Same tiny model as train_test.cc: linear readout of the last frame, so
// full training runs finish in milliseconds.
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
    Tensor out = proj_.Forward(last);
    out = Permute(out, {0, 2, 1});
    return Reshape(out, {b, horizon_, num_nodes_, 1});
  }

  int64_t horizon() const override { return horizon_; }

 private:
  int64_t num_nodes_;
  int64_t horizon_;
  nn::Linear proj_;
};

class CheckpointResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    original_threads_ = GetNumThreads();
    data::SyntheticTrafficOptions options;
    options.network.num_nodes = 6;
    options.num_steps = 600;
    options.seed = 31;
    traffic_ = data::GenerateSyntheticTraffic(options);
    scaler_.Fit(traffic_.dataset.values, 400, true);
    splits_ = data::MakeChronologicalSplits(600, 12, 12, 0.7f, 0.1f);
    train_loader_ = std::make_unique<data::WindowDataLoader>(
        &traffic_.dataset, &scaler_, splits_.train, 12, 12, 32);
    val_loader_ = std::make_unique<data::WindowDataLoader>(
        &traffic_.dataset, &scaler_, splits_.val, 12, 12, 32);
  }

  void TearDown() override {
    fault::DisarmAllFaultPoints();
    train::ClearStopRequest();
    SetNumThreads(original_threads_);
  }

  // Options every run in a comparison must share: the curriculum step is
  // pinned (the auto value depends on options.epochs, which differs between
  // an interrupted part-run and the reference) and early stopping is off.
  train::TrainerOptions BaseOptions() const {
    train::TrainerOptions options;
    options.epochs = 6;
    options.curriculum_step = 5;
    options.patience = 0;
    return options;
  }

  train::FitResult RunTraining(const train::TrainerOptions& options,
                               std::vector<std::vector<float>>* final_params) {
    // Fresh loaders per run: Shuffle permutes the loader's window order in
    // place, and a resumed process starts from pristine loaders too.
    data::WindowDataLoader train_loader(&traffic_.dataset, &scaler_,
                                        splits_.train, 12, 12, 32);
    data::WindowDataLoader val_loader(&traffic_.dataset, &scaler_,
                                      splits_.val, 12, 12, 32);
    Rng rng(5);
    TinyModel model(6, 12, rng);
    train::Trainer trainer(&model, &scaler_, options);
    const train::FitResult result = trainer.Fit(&train_loader, &val_loader);
    if (final_params != nullptr) {
      final_params->clear();
      for (const Tensor& p : model.Parameters()) {
        final_params->push_back(p.Data());
      }
    }
    return result;
  }

  // The bitwise-identity assertion shared by every resume test: exact float
  // equality of all parameters and of the per-epoch history (train loss and
  // validation metrics; seconds are wall-clock and excluded).
  void ExpectBitwiseEqual(const std::vector<std::vector<float>>& a,
                          const std::vector<std::vector<float>>& b,
                          const std::vector<train::EpochStats>& ha,
                          const std::vector<train::EpochStats>& hb) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].size(), b[i].size());
      for (size_t j = 0; j < a[i].size(); ++j) {
        ASSERT_EQ(a[i][j], b[i][j]) << "param " << i << " element " << j;
      }
    }
    ASSERT_EQ(ha.size(), hb.size());
    for (size_t e = 0; e < ha.size(); ++e) {
      EXPECT_EQ(ha[e].train_loss, hb[e].train_loss) << "epoch " << e;
      EXPECT_EQ(ha[e].validation.mae, hb[e].validation.mae) << "epoch " << e;
      EXPECT_EQ(ha[e].validation.rmse, hb[e].validation.rmse);
      EXPECT_EQ(ha[e].validation.mape, hb[e].validation.mape);
    }
  }

  // Trains 3 epochs with checkpointing, then resumes the newest checkpoint
  // to the full 6 in a second Trainer, and demands bitwise identity with an
  // uninterrupted 6-epoch run.
  void RunEpochBoundaryResume(int threads, const std::string& dir_name) {
    SetNumThreads(threads);
    const std::string dir = MakeCleanDir(dir_name);

    std::vector<std::vector<float>> reference_params;
    const train::FitResult reference =
        RunTraining(BaseOptions(), &reference_params);
    ASSERT_EQ(reference.stop_reason, train::StopReason::kCompleted);

    train::TrainerOptions part1 = BaseOptions();
    part1.epochs = 3;
    part1.checkpoint_dir = dir;
    RunTraining(part1, nullptr);
    const std::string latest = train::LatestCheckpoint(dir);
    ASSERT_FALSE(latest.empty());

    train::TrainerOptions part2 = BaseOptions();
    part2.resume_from = latest;
    std::vector<std::vector<float>> resumed_params;
    const train::FitResult resumed = RunTraining(part2, &resumed_params);
    ASSERT_EQ(resumed.stop_reason, train::StopReason::kCompleted);
    EXPECT_EQ(resumed.start_epoch, 3);
    ExpectBitwiseEqual(reference_params, resumed_params, reference.history,
                       resumed.history);
  }

  data::SyntheticTraffic traffic_;
  data::StandardScaler scaler_;
  data::SplitWindows splits_;
  std::unique_ptr<data::WindowDataLoader> train_loader_;
  std::unique_ptr<data::WindowDataLoader> val_loader_;
  int original_threads_ = 0;
};

TEST_F(CheckpointResumeTest, EpochBoundaryResumeIsBitwiseSingleThread) {
  RunEpochBoundaryResume(1, "resume_1t");
}

TEST_F(CheckpointResumeTest, EpochBoundaryResumeIsBitwiseFourThreads) {
  RunEpochBoundaryResume(4, "resume_4t");
}

TEST_F(CheckpointResumeTest, MidEpochInterruptResumeIsBitwise) {
  const std::string dir = MakeCleanDir("resume_interrupt");
  std::vector<std::vector<float>> reference_params;
  const train::FitResult reference =
      RunTraining(BaseOptions(), &reference_params);

  // A spinner keeps the stop flag raised, so Fit honors it right after the
  // first completed batch — a mid-epoch interrupt with a partial loss sum.
  train::TrainerOptions part1 = BaseOptions();
  part1.checkpoint_dir = dir;
  std::atomic<bool> done{false};
  std::thread spinner([&done] {
    while (!done.load()) train::RequestStop();
  });
  const train::FitResult interrupted = RunTraining(part1, nullptr);
  done.store(true);
  spinner.join();
  train::ClearStopRequest();
  ASSERT_EQ(interrupted.stop_reason, train::StopReason::kInterrupted);
  ASSERT_FALSE(interrupted.interrupt_checkpoint.empty());

  train::TrainerOptions part2 = BaseOptions();
  part2.resume_from = interrupted.interrupt_checkpoint;
  std::vector<std::vector<float>> resumed_params;
  const train::FitResult resumed = RunTraining(part2, &resumed_params);
  ASSERT_EQ(resumed.stop_reason, train::StopReason::kCompleted);
  ExpectBitwiseEqual(reference_params, resumed_params, reference.history,
                     resumed.history);
}

TEST_F(CheckpointResumeTest, FullStateRoundTrip) {
  const std::string dir = MakeCleanDir("roundtrip_state");
  train::TrainerOptions options = BaseOptions();
  options.epochs = 2;
  options.checkpoint_dir = dir;
  RunTraining(options, nullptr);

  const std::string latest = train::LatestCheckpoint(dir);
  ASSERT_FALSE(latest.empty());
  Rng rng(99);  // different init; overwritten by the load
  TinyModel model(6, 12, rng);
  train::TrainingCheckpoint state;
  ASSERT_TRUE(train::LoadTrainingCheckpoint(&model, &state, latest));
  EXPECT_EQ(state.optimizer.type, "adam");
  EXPECT_GT(state.optimizer.step_count, 0);
  ASSERT_EQ(state.optimizer.slots.size(), 2u);
  EXPECT_EQ(state.optimizer.slots[0].first, "m");
  EXPECT_EQ(state.optimizer.slots[1].first, "v");
  EXPECT_EQ(state.progress.next_epoch, 2);
  EXPECT_EQ(state.progress.next_batch, 0);
  EXPECT_GT(state.progress.updates, 0);
  EXPECT_EQ(state.progress.curriculum_step, 5);
  ASSERT_EQ(state.progress.history.size(), 2u);
  EXPECT_GT(state.progress.history[0].train_loss, 0.0);
  EXPECT_FALSE(state.best_params.empty());

  // The same file also serves a model-only load.
  Rng rng2(100);
  TinyModel model2(6, 12, rng2);
  EXPECT_TRUE(train::LoadCheckpoint(&model2, latest));
}

TEST_F(CheckpointResumeTest, ResumeRejectsModelOnlyCheckpoint) {
  Rng rng(1);
  TinyModel model(6, 12, rng);
  const std::string path = TempPath("model_only.d2ck");
  ASSERT_TRUE(train::SaveCheckpoint(model, path));
  train::TrainingCheckpoint state;
  EXPECT_FALSE(train::LoadTrainingCheckpoint(&model, &state, path));

  train::TrainerOptions options = BaseOptions();
  options.resume_from = path;
  const train::FitResult result = RunTraining(options, nullptr);
  EXPECT_EQ(result.stop_reason, train::StopReason::kResumeFailed);
  EXPECT_TRUE(result.history.empty());
}

TEST_F(CheckpointResumeTest, RetentionKeepsLastNPlusBest) {
  const std::string dir = MakeCleanDir("retention");
  train::TrainerOptions options = BaseOptions();
  options.checkpoint_dir = dir;
  RunTraining(options, nullptr);
  // Six epochs, one checkpoint each; the trainer keeps the newest 3.
  EXPECT_EQ(CountFilesWithPrefix(dir, "ckpt-"), 3);
  EXPECT_EQ(CountFilesWithPrefix(dir, "best.d2ck"), 1);
  // The survivors are the newest ones.
  const std::string latest = train::LatestCheckpoint(dir);
  Rng rng(1);
  TinyModel model(6, 12, rng);
  train::TrainingCheckpoint state;
  ASSERT_TRUE(train::LoadTrainingCheckpoint(&model, &state, latest));
  EXPECT_EQ(state.progress.next_epoch, 6);
}

TEST_F(CheckpointResumeTest, V1CheckpointStillLoads) {
  // Hand-rolled v1 file: magic + u64 count + per-param {u64 name_len, name,
  // u64 numel, floats} — the format every pre-v2 file on disk has.
  Rng rng(4);
  nn::Linear layer(3, 2, rng);
  std::vector<uint8_t> bytes;
  const auto append_u64 = [&bytes](uint64_t v) {
    const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
    bytes.insert(bytes.end(), p, p + sizeof(v));
  };
  const char magic[8] = {'D', '2', 'C', 'K', 'P', 'T', '0', '1'};
  bytes.insert(bytes.end(), magic, magic + sizeof(magic));
  const auto params = layer.NamedParameters();
  append_u64(params.size());
  for (const auto& [name, tensor] : params) {
    append_u64(name.size());
    bytes.insert(bytes.end(), name.begin(), name.end());
    append_u64(tensor.Data().size());
    const uint8_t* p =
        reinterpret_cast<const uint8_t*>(tensor.Data().data());
    bytes.insert(bytes.end(), p, p + tensor.Data().size() * sizeof(float));
  }
  const std::string path = TempPath("legacy_v1.ckpt");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  Rng rng2(77);
  nn::Linear loaded(3, 2, rng2);
  ASSERT_TRUE(train::LoadCheckpoint(&loaded, path));
  const auto a = layer.Parameters();
  const auto b = loaded.Parameters();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < a[i].Data().size(); ++j) {
      EXPECT_EQ(a[i].Data()[j], b[i].Data()[j]);
    }
  }
  // A v1 file can never seed a resume (no training state).
  train::TrainingCheckpoint state;
  EXPECT_FALSE(train::LoadTrainingCheckpoint(&loaded, &state, path));
}

// SIGKILL mid-epoch (the real crash, not a cooperative stop): the child is
// killed between two batches of epoch 1; the parent resumes from the last
// epoch-boundary checkpoint and must match the uninterrupted run bitwise.
using CheckpointResumeDeathTest = CheckpointResumeTest;

TEST_F(CheckpointResumeDeathTest, SigkillMidEpochThenResumeIsBitwise) {
  // The process-wide thread pool does not survive fork; re-exec the child.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dir = MakeCleanDir("sigkill_resume");
  const int64_t num_batches = train_loader_->NumBatches();
  ASSERT_GT(num_batches, 1);

  std::vector<std::vector<float>> reference_params;
  const train::FitResult reference =
      RunTraining(BaseOptions(), &reference_params);

  // Crash at the start of the middle batch of epoch 1: epoch 0 completed,
  // so exactly one periodic checkpoint exists.
  EXPECT_EXIT(
      {
        fault::ArmFaultPoint(
            "trainer.batch",
            {fault::FaultKind::kCrash, num_batches + num_batches / 2});
        train::TrainerOptions options = BaseOptions();
        options.checkpoint_dir = dir;
        RunTraining(options, nullptr);
      },
      ::testing::KilledBySignal(SIGKILL), "");

  const std::string latest = train::LatestCheckpoint(dir);
  ASSERT_FALSE(latest.empty());
  train::TrainerOptions resume = BaseOptions();
  resume.resume_from = latest;
  std::vector<std::vector<float>> resumed_params;
  const train::FitResult resumed = RunTraining(resume, &resumed_params);
  ASSERT_EQ(resumed.stop_reason, train::StopReason::kCompleted);
  EXPECT_EQ(resumed.start_epoch, 1);
  ExpectBitwiseEqual(reference_params, resumed_params, reference.history,
                     resumed.history);
}

}  // namespace
}  // namespace d2stgnn
