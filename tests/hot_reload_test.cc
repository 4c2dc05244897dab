// Tests of transactional checkpoint hot-reload: a new checkpoint in the
// watched directory is staged into a shadow session (load + warm-up + plan
// verification) and atomically swapped into the BatchingServer; any staging
// failure — corrupt file, injected fault — keeps the old session serving
// and heals on a later poll.

#include "infer/hot_reload.h"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "infer/batching_server.h"
#include "data/sliding_window.h"
#include "data/synthetic_traffic.h"
#include "nn/linear.h"
#include "train/checkpoint.h"
#include "train/forecasting_model.h"

namespace d2stgnn {
namespace {

// Same tiny model as infer_server_test.cc: linear readout of the last
// frame, batch-independent, so bitwise comparisons across servers hold.
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

constexpr int64_t kNodes = 6;
constexpr int64_t kInputLen = 12;
constexpr int64_t kHorizon = 12;

class HotReloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SyntheticTrafficOptions options;
    options.network.num_nodes = kNodes;
    options.num_steps = 600;
    options.seed = 31;
    traffic_ = data::GenerateSyntheticTraffic(options);
    scaler_.Fit(traffic_.dataset.values, 400, true);

    watch_dir_ = ::testing::TempDir() + "/hot_reload_" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name();
    std::filesystem::remove_all(watch_dir_);
    std::filesystem::create_directories(watch_dir_);
  }

  void TearDown() override {
    fault::DisarmAllFaultPoints();
    std::filesystem::remove_all(watch_dir_);
  }

  infer::SessionOptions Options() const {
    infer::SessionOptions options;
    options.num_nodes = kNodes;
    options.input_len = kInputLen;
    options.steps_per_day = traffic_.dataset.steps_per_day;
    return options;
  }

  infer::ForecastRequest MakeRequest(int64_t start) const {
    infer::ForecastRequest request;
    const std::vector<float>& values = traffic_.dataset.values.Data();
    request.window.assign(values.data() + start * kNodes,
                          values.data() + (start + kInputLen) * kNodes);
    request.time_of_day = traffic_.dataset.TimeOfDay(start);
    request.day_of_week = traffic_.dataset.DayOfWeek(start);
    return request;
  }

  std::unique_ptr<TinyModel> NewTinyModel(uint64_t seed) const {
    Rng rng(seed);
    return std::make_unique<TinyModel>(kNodes, kHorizon, rng);
  }

  /// What a seed-`seed` model answers for MakeRequest(start), eagerly.
  std::vector<float> Reference(uint64_t seed, int64_t start) const {
    auto session =
        infer::InferenceSession::Wrap(NewTinyModel(seed), scaler_, Options());
    EXPECT_NE(session, nullptr);
    const infer::Forecast f = session->PredictOne(MakeRequest(start));
    EXPECT_TRUE(f.ok) << f.error;
    return f.values;
  }

  /// Writes the weights of a seed-`seed` model as checkpoint step `step`.
  std::string WriteCheckpoint(uint64_t seed, int64_t step) const {
    const std::string path = train::CheckpointPathForStep(watch_dir_, step);
    EXPECT_TRUE(train::SaveCheckpoint(*NewTinyModel(seed), path));
    return path;
  }

  /// A server around a seed-5 session plus a reloader watching watch_dir_.
  struct Serving {
    std::shared_ptr<infer::InferenceSession> session;
    std::unique_ptr<infer::BatchingServer> server;
    std::unique_ptr<infer::CheckpointReloader> reloader;
  };

  Serving MakeServing(const infer::HotReloadOptions& reload_options) {
    Serving s;
    s.session =
        infer::InferenceSession::Wrap(NewTinyModel(5), scaler_, Options());
    EXPECT_NE(s.session, nullptr);
    infer::BatchingOptions options;
    options.max_batch_size = 4;
    options.max_wait_us = 500;
    s.server = std::make_unique<infer::BatchingServer>(s.session, options);
    s.reloader = std::make_unique<infer::CheckpointReloader>(
        s.server.get(), [this] { return NewTinyModel(99); }, scaler_,
        Options(), reload_options);
    return s;
  }

  data::SyntheticTraffic traffic_;
  data::StandardScaler scaler_;
  std::string watch_dir_;
};

TEST_F(HotReloadTest, EmptyDirectoryIsNoChange) {
  infer::HotReloadOptions reload_options;
  reload_options.directory = watch_dir_;
  Serving s = MakeServing(reload_options);

  const infer::ReloadStatus status = s.reloader->PollOnce();
  EXPECT_EQ(status.outcome, infer::ReloadOutcome::kNoChange);
  const infer::ReloadStats stats = s.reloader->stats();
  EXPECT_EQ(stats.attempts, 0);
  EXPECT_EQ(s.server->stats().session_swaps, 0);
}

TEST_F(HotReloadTest, NewCheckpointSwapsInBitwise) {
  infer::HotReloadOptions reload_options;
  reload_options.directory = watch_dir_;
  Serving s = MakeServing(reload_options);

  // Served by the boot session first.
  const std::vector<float> old_values = Reference(5, 3);
  infer::Forecast before = s.server->Submit(MakeRequest(3)).get();
  ASSERT_TRUE(before.ok) << before.error;
  EXPECT_EQ(before.values, old_values);

  // Drop in a checkpoint carrying seed-11 weights (the factory's own seed
  // 99 must not matter: the load overwrites every parameter).
  const std::string checkpoint = WriteCheckpoint(11, 1);
  const infer::ReloadStatus status = s.reloader->PollOnce();
  EXPECT_EQ(status.outcome, infer::ReloadOutcome::kSwapped);
  EXPECT_EQ(status.checkpoint, checkpoint);

  const std::vector<float> new_values = Reference(11, 3);
  ASSERT_NE(new_values, old_values);
  infer::Forecast after = s.server->Submit(MakeRequest(3)).get();
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(after.values, new_values);  // bitwise: same load path as training

  const infer::ReloadStats stats = s.reloader->stats();
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_EQ(stats.swaps, 1);
  EXPECT_EQ(stats.active_checkpoint, checkpoint);
  EXPECT_EQ(s.server->stats().session_swaps, 1);

  // Same checkpoint next poll: nothing to do.
  EXPECT_EQ(s.reloader->PollOnce().outcome, infer::ReloadOutcome::kNoChange);
}

// A host that keeps whatever session the reloader swaps in, so the staged
// session itself can be inspected.
class RecordingHost : public infer::SessionHost {
 public:
  explicit RecordingHost(int64_t max_batch) : max_batch_(max_batch) {}
  void SwapSession(std::shared_ptr<infer::InferenceSession> next) override {
    swapped_ = std::move(next);
  }
  int64_t max_batch_size() const override { return max_batch_; }
  const std::shared_ptr<infer::InferenceSession>& swapped() const {
    return swapped_;
  }

 private:
  int64_t max_batch_;
  std::shared_ptr<infer::InferenceSession> swapped_;
};

// Staging warms the shadow session at every ladder size — the powers of two
// below the host's max batch, then the max — so a swapped-in session never
// pads a formed batch further than the next ladder size.
TEST_F(HotReloadTest, StagedSessionHoldsAPlanAtEveryLadderSize) {
  WriteCheckpoint(11, 1);
  for (const auto& [max_batch, ladder] :
       {std::pair<int64_t, std::vector<int64_t>>{8, {1, 2, 4, 8}},
        std::pair<int64_t, std::vector<int64_t>>{6, {1, 2, 4, 6}}}) {
    RecordingHost host(max_batch);
    infer::HotReloadOptions reload_options;
    reload_options.directory = watch_dir_;
    infer::CheckpointReloader reloader(
        &host, [this] { return NewTinyModel(99); }, scaler_, Options(),
        reload_options);
    ASSERT_EQ(reloader.PollOnce().outcome, infer::ReloadOutcome::kSwapped);
    ASSERT_NE(host.swapped(), nullptr);
    EXPECT_EQ(host.swapped()->planned_batch_sizes(), ladder)
        << "max batch " << max_batch;
  }
}

TEST_F(HotReloadTest, CorruptCheckpointIsRejectedAndOldSessionServes) {
  infer::HotReloadOptions reload_options;
  reload_options.directory = watch_dir_;
  Serving s = MakeServing(reload_options);
  const std::vector<float> old_values = Reference(5, 3);

  // A plausible-looking but garbage checkpoint file.
  const std::string bad = train::CheckpointPathForStep(watch_dir_, 1);
  std::ofstream out(bad, std::ios::binary);
  out << "D2CKPT02 but not really";
  out.close();

  const infer::ReloadStatus status = s.reloader->PollOnce();
  EXPECT_EQ(status.outcome, infer::ReloadOutcome::kRejected);
  EXPECT_THAT(status.error, ::testing::HasSubstr("checkpoint load failed"));

  // The old session still serves, bitwise unchanged.
  infer::Forecast f = s.server->Submit(MakeRequest(3)).get();
  ASSERT_TRUE(f.ok) << f.error;
  EXPECT_EQ(f.values, old_values);
  EXPECT_EQ(s.server->stats().session_swaps, 0);

  // A good checkpoint with a *newer* step supersedes the bad one.
  WriteCheckpoint(11, 2);
  EXPECT_EQ(s.reloader->PollOnce().outcome, infer::ReloadOutcome::kSwapped);
  const infer::ReloadStats stats = s.reloader->stats();
  EXPECT_EQ(stats.attempts, 2);
  EXPECT_EQ(stats.rejects, 1);
  EXPECT_EQ(stats.swaps, 1);
}

TEST_F(HotReloadTest, InjectedReloadFaultHealsOnNextPoll) {
  fault::FaultScript script;
  script.kind = fault::FaultKind::kErrno;
  fault::ArmFaultPoint("infer.hot_reload", script);

  infer::HotReloadOptions reload_options;
  reload_options.directory = watch_dir_;
  Serving s = MakeServing(reload_options);

  WriteCheckpoint(11, 1);
  const infer::ReloadStatus faulted = s.reloader->PollOnce();
  EXPECT_EQ(faulted.outcome, infer::ReloadOutcome::kRejected);
  EXPECT_THAT(faulted.error, ::testing::HasSubstr("injected"));
  EXPECT_EQ(s.server->stats().session_swaps, 0);

  // The script was one-shot; the *same* checkpoint is retried and lands.
  const infer::ReloadStatus healed = s.reloader->PollOnce();
  EXPECT_EQ(healed.outcome, infer::ReloadOutcome::kSwapped);
  EXPECT_EQ(s.server->stats().session_swaps, 1);
  EXPECT_EQ(s.reloader->stats().rejects, 1);
}

TEST_F(HotReloadTest, WatcherThreadSwapsUnderLiveTraffic) {
  infer::HotReloadOptions reload_options;
  reload_options.directory = watch_dir_;
  reload_options.poll_interval_ms = 5;
  Serving s = MakeServing(reload_options);
  s.reloader->Start();

  const std::vector<float> new_values = Reference(11, 3);

  // Keep traffic flowing while the checkpoint appears and the watcher
  // stages + swaps it; every in-flight forecast must still resolve ok.
  std::atomic<bool> stop{false};
  std::thread client([&] {
    while (!stop.load()) {
      infer::Forecast f = s.server->Submit(MakeRequest(3)).get();
      ASSERT_TRUE(f.ok) << f.error;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  WriteCheckpoint(11, 1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (s.reloader->stats().swaps == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  client.join();
  s.reloader->Stop();

  ASSERT_EQ(s.reloader->stats().swaps, 1) << "watcher never swapped";
  infer::Forecast after = s.server->Submit(MakeRequest(3)).get();
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(after.values, new_values);
}

}  // namespace
}  // namespace d2stgnn
