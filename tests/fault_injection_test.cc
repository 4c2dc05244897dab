// Tests of the durable-I/O layer and the fault-injection harness: CRC32,
// atomic writes, scripted short writes / ENOSPC / crash-at-offset against
// checkpoint saves, bit-flip rejection, and NaN-gradient divergence
// recovery in the trainer.

#include "common/fault_injection.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <fstream>
#include <memory>

#include <gtest/gtest.h>

#include "common/io/atomic_file.h"
#include "common/io/crc32.h"
#include "data/sliding_window.h"
#include "data/synthetic_traffic.h"
#include "nn/linear.h"
#include "optim/adam.h"
#include "train/checkpoint.h"
#include "train/trainer.h"

namespace d2stgnn {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

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

// Files in `dir` whose name contains `needle`; returns the first match's
// size via `size_out` (-1 when none).
int64_t CountFilesContaining(const std::string& dir, const std::string& needle,
                             int64_t* size_out = nullptr) {
  int64_t count = 0;
  if (size_out != nullptr) *size_out = -1;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* entry = ::readdir(d)) {
      if (std::strstr(entry->d_name, needle.c_str()) != nullptr) {
        if (count == 0 && size_out != nullptr) {
          struct stat st {};
          if (::stat((dir + "/" + entry->d_name).c_str(), &st) == 0) {
            *size_out = static_cast<int64_t>(st.st_size);
          }
        }
        ++count;
      }
    }
    ::closedir(d);
  }
  return count;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::DisarmAllFaultPoints();
    io::ClearIoHooks();
  }
};

TEST_F(FaultInjectionTest, Crc32MatchesKnownVector) {
  // The canonical IEEE 802.3 check value for "123456789".
  EXPECT_EQ(io::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(io::Crc32("", 0), 0x00000000u);
}

TEST_F(FaultInjectionTest, Crc32AccumulatorMatchesOneShot) {
  const char data[] = "decoupled spatial-temporal";
  io::Crc32Accumulator acc;
  acc.Update(data, 9);
  acc.Update(data + 9, sizeof(data) - 1 - 9);
  EXPECT_EQ(acc.value(), io::Crc32(data, sizeof(data) - 1));
}

TEST_F(FaultInjectionTest, AtomicWriterCommitsDurably) {
  const std::string dir = MakeCleanDir("atomic_commit");
  const std::string path = dir + "/file.bin";
  const std::string payload = "hello, durable world";
  {
    io::AtomicFileWriter writer(path, "test");
    ASSERT_TRUE(writer.Write(payload.data(),
                             static_cast<int64_t>(payload.size())));
    ASSERT_TRUE(writer.Commit());
  }
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(io::ReadFileBytes(path, &bytes));
  ASSERT_EQ(bytes.size(), payload.size());
  EXPECT_EQ(std::memcmp(bytes.data(), payload.data(), payload.size()), 0);
  EXPECT_EQ(CountFilesContaining(dir, ".tmp."), 0);  // no temp left behind
}

TEST_F(FaultInjectionTest, AbandonLeavesNoFile) {
  const std::string dir = MakeCleanDir("atomic_abandon");
  const std::string path = dir + "/file.bin";
  {
    io::AtomicFileWriter writer(path, "test");
    writer.Write("xxxx", 4);
    writer.Abandon();
  }
  struct stat st {};
  EXPECT_NE(::stat(path.c_str(), &st), 0);
  EXPECT_EQ(CountFilesContaining(dir, ".tmp."), 0);
}

TEST_F(FaultInjectionTest, IoHooksCanFailWrites) {
  const std::string dir = MakeCleanDir("hooks_fail");
  const std::string path = dir + "/file.bin";
  io::IoHooks hooks;
  hooks.on_write = [](const std::string&, int64_t offset,
                      int64_t size) -> io::WriteDecision {
    io::WriteDecision decision;
    if (offset >= 8) {
      decision.fail = true;
      decision.error_code = EIO;
    } else {
      decision.allowed = size;
    }
    return decision;
  };
  io::SetIoHooks(hooks);
  io::AtomicFileWriter writer(path, "test");
  ASSERT_TRUE(writer.Write("12345678", 8));
  EXPECT_FALSE(writer.Write("failing!", 8));
  EXPECT_FALSE(writer.ok());
  EXPECT_FALSE(writer.Commit());  // sticky error
  io::ClearIoHooks();
  struct stat st {};
  EXPECT_NE(::stat(path.c_str(), &st), 0);  // never committed
}

// A checkpoint save that can fail: the scenario fixture writes a good
// checkpoint first and asserts every injected failure leaves it loadable.
class CheckpointFaultTest : public FaultInjectionTest {
 protected:
  void SetUp() override {
    // Per-test directory: ctest runs these cases as concurrent processes.
    dir_ = MakeCleanDir(
        std::string("ckpt_faults_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    path_ = dir_ + "/model.d2ck";
    Rng rng(3);
    model_ = std::make_unique<nn::Linear>(4, 2, rng);
    std::vector<Tensor> params = model_->Parameters();
    for (Tensor& p : params) {
      for (float& x : p.Data()) x = 1.25f;
    }
    ASSERT_TRUE(train::SaveCheckpoint(*model_, path_));
    // The doomed second save would persist different values.
    for (Tensor& p : params) {
      for (float& x : p.Data()) x = 2.5f;
    }
  }

  // The previous (1.25-valued) checkpoint must still load after a failed
  // or crashed save.
  void ExpectPreviousCheckpointIntact() {
    Rng rng(9);
    nn::Linear loaded(4, 2, rng);
    ASSERT_TRUE(train::LoadCheckpoint(&loaded, path_));
    for (const Tensor& p : loaded.Parameters()) {
      for (float x : p.Data()) EXPECT_EQ(x, 1.25f);
    }
  }

  std::string dir_;
  std::string path_;
  std::unique_ptr<nn::Linear> model_;
};

TEST_F(CheckpointFaultTest, ShortWriteFailsSaveAndKeepsPrevious) {
  fault::FaultScript script;
  script.kind = fault::FaultKind::kShortWrite;
  script.trigger_offset = 16;
  fault::ArmFaultPoint("checkpoint.write", script);
  EXPECT_FALSE(train::SaveCheckpoint(*model_, path_));
  EXPECT_EQ(fault::FaultFireCount(), 1);
  ExpectPreviousCheckpointIntact();
  EXPECT_EQ(CountFilesContaining(dir_, ".tmp."), 0);
}

TEST_F(CheckpointFaultTest, EnospcFailsSaveAndKeepsPrevious) {
  fault::FaultScript script;
  script.kind = fault::FaultKind::kErrno;
  script.error_code = ENOSPC;
  fault::ArmFaultPoint("checkpoint.write", script);
  EXPECT_FALSE(train::SaveCheckpoint(*model_, path_));
  ExpectPreviousCheckpointIntact();
  EXPECT_EQ(CountFilesContaining(dir_, ".tmp."), 0);
}

TEST_F(CheckpointFaultTest, FsyncFailureFailsCommitAndKeepsPrevious) {
  fault::FaultScript script;
  script.kind = fault::FaultKind::kErrno;
  script.error_code = EIO;
  fault::ArmFaultPoint("checkpoint.fsync", script);
  EXPECT_FALSE(train::SaveCheckpoint(*model_, path_));
  ExpectPreviousCheckpointIntact();
  EXPECT_EQ(CountFilesContaining(dir_, ".tmp."), 0);
}

TEST_F(CheckpointFaultTest, RenameFailureFailsCommitAndKeepsPrevious) {
  fault::FaultScript script;
  script.kind = fault::FaultKind::kErrno;
  script.error_code = EIO;
  fault::ArmFaultPoint("checkpoint.rename", script);
  EXPECT_FALSE(train::SaveCheckpoint(*model_, path_));
  ExpectPreviousCheckpointIntact();
  EXPECT_EQ(CountFilesContaining(dir_, ".tmp."), 0);
}

TEST_F(CheckpointFaultTest, BitFlipsAreRejectedEverywhere) {
  // Re-save so the file holds the 2.5 values, then corrupt single bytes at
  // several structurally different offsets: header, mid-file, last byte.
  ASSERT_TRUE(train::SaveCheckpoint(*model_, path_));
  std::vector<uint8_t> good;
  ASSERT_TRUE(io::ReadFileBytes(path_, &good));
  for (const size_t offset :
       {size_t{3}, size_t{20}, good.size() / 2, good.size() - 1}) {
    std::vector<uint8_t> bad = good;
    bad[offset] ^= 0x10;
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bad.data()),
                static_cast<std::streamsize>(bad.size()));
    }
    Rng rng(11);
    nn::Linear loaded(4, 2, rng);
    const std::vector<float> before = loaded.Parameters()[0].Data();
    EXPECT_FALSE(train::LoadCheckpoint(&loaded, path_))
        << "bit flip at offset " << offset << " was not detected";
    // Transactional: the rejected load never touched the model.
    EXPECT_EQ(loaded.Parameters()[0].Data(), before);
  }
}

using CheckpointFaultDeathTest = CheckpointFaultTest;

TEST_F(CheckpointFaultDeathTest, CrashAtOffsetLeavesExactPrefixAndOldFile) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        fault::FaultScript script;
        script.kind = fault::FaultKind::kCrash;
        script.trigger_offset = 32;
        fault::ArmFaultPoint("checkpoint.write", script);
        train::SaveCheckpoint(*model_, path_);  // SIGKILLs itself
        ::_exit(0);                             // never reached
      },
      ::testing::KilledBySignal(SIGKILL), "");
  // The old checkpoint is untouched, and the torn temp file holds exactly
  // the 32 bytes written before the crash (byte-exact crash-at-offset).
  ExpectPreviousCheckpointIntact();
  int64_t temp_size = -1;
  ASSERT_EQ(CountFilesContaining(dir_, ".tmp.", &temp_size), 1);
  EXPECT_EQ(temp_size, 32);
  // A fresh save simply replaces the stale temp file path-space.
  fault::DisarmAllFaultPoints();
  EXPECT_TRUE(train::SaveCheckpoint(*model_, path_));
}

// NaN gradients injected into real training steps must trigger the
// trainer's rollback policy, not a crash or a poisoned parameter update.
class DivergenceRecoveryTest : public FaultInjectionTest {
 protected:
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

  void SetUp() override {
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

  train::FitResult RunWithOptions(const train::TrainerOptions& options) {
    Rng rng(5);
    TinyModel model(6, 12, rng);
    train::Trainer trainer(&model, &scaler_, options);
    return trainer.Fit(train_loader_.get(), val_loader_.get());
  }

  data::SyntheticTraffic traffic_;
  data::StandardScaler scaler_;
  data::SplitWindows splits_;
  std::unique_ptr<data::WindowDataLoader> train_loader_;
  std::unique_ptr<data::WindowDataLoader> val_loader_;
};

TEST_F(DivergenceRecoveryTest, InjectedNanGradientRollsBackAndRecovers) {
  fault::FaultScript script;
  script.kind = fault::FaultKind::kErrno;  // event point: just fire once
  script.trigger_offset = 3;               // 4th batch of epoch 0
  fault::ArmFaultPoint("trainer.nan_grad", script);

  train::TrainerOptions options;
  options.epochs = 4;
  options.curriculum_step = 5;
  options.patience = 0;
  const train::FitResult result = RunWithOptions(options);
  EXPECT_EQ(result.stop_reason, train::StopReason::kCompleted);
  EXPECT_EQ(result.divergence_rollbacks, 1);
  ASSERT_EQ(result.history.size(), 4u);
  // The recovered run still produced finite losses throughout.
  for (const train::EpochStats& stats : result.history) {
    EXPECT_TRUE(std::isfinite(stats.train_loss));
  }
}

TEST_F(DivergenceRecoveryTest, PersistentNanGradientExhaustsRetries) {
  fault::FaultScript script;
  script.kind = fault::FaultKind::kErrno;
  script.repeat = true;  // every batch blows up
  fault::ArmFaultPoint("trainer.nan_grad", script);

  train::TrainerOptions options;
  options.epochs = 4;
  options.curriculum_step = 5;
  options.patience = 0;
  const train::FitResult result = RunWithOptions(options);
  EXPECT_EQ(result.stop_reason, train::StopReason::kDiverged);
  EXPECT_EQ(result.divergence_rollbacks, 3);  // the trainer's retry budget
}

}  // namespace
}  // namespace d2stgnn
