// Tests of the forward-only inference engine: request validation, feature
// parity with the training data loader, train -> checkpoint -> serve bitwise
// parity at 1 and 4 threads, zero steady-state allocations after warm-up,
// and checkpoint-load fault handling (no partial sessions).

#include "infer/session.h"

#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "core/d2stgnn.h"
#include "data/sliding_window.h"
#include "data/synthetic_traffic.h"
#include "infer/session_host.h"
#include "nn/linear.h"
#include "train/checkpoint.h"
#include "train/trainer.h"

namespace d2stgnn {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Same tiny model as train_test.cc / checkpoint_test.cc: linear readout of
// the last frame, so trained parity fixtures build in milliseconds.
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

class InferSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    original_threads_ = GetNumThreads();
    data::SyntheticTrafficOptions options;
    options.network.num_nodes = kNodes;
    options.num_steps = 600;
    options.seed = 31;
    traffic_ = data::GenerateSyntheticTraffic(options);
    scaler_.Fit(traffic_.dataset.values, 400, true);
    splits_ = data::MakeChronologicalSplits(600, kInputLen, kHorizon, 0.7f,
                                            0.1f);
  }

  void TearDown() override {
    fault::DisarmAllFaultPoints();
    SetNumThreads(original_threads_);
  }

  infer::SessionOptions Options() const {
    infer::SessionOptions options;
    options.num_nodes = kNodes;
    options.input_len = kInputLen;
    options.steps_per_day = traffic_.dataset.steps_per_day;
    return options;
  }

  // The serving-side view of the window starting at dataset step `start`:
  // raw readings plus the wall-clock position of the first step.
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

  // Trains a TinyModel for two epochs and checkpoints it. Returns the
  // checkpoint path; `trained` (optional) receives the in-process model.
  std::string TrainAndCheckpoint(const std::string& name,
                                 std::unique_ptr<TinyModel>* trained) {
    data::WindowDataLoader train_loader(&traffic_.dataset, &scaler_,
                                        splits_.train, kInputLen, kHorizon,
                                        32);
    data::WindowDataLoader val_loader(&traffic_.dataset, &scaler_,
                                      splits_.val, kInputLen, kHorizon, 32);
    auto model = NewTinyModel(5);
    train::TrainerOptions options;
    options.epochs = 2;
    options.patience = 0;
    train::Trainer trainer(model.get(), &scaler_, options);
    trainer.Fit(&train_loader, &val_loader);
    const std::string path = TempPath(name);
    EXPECT_TRUE(train::SaveCheckpoint(*model, path));
    if (trained != nullptr) *trained = std::move(model);
    return path;
  }

  data::SyntheticTraffic traffic_;
  data::StandardScaler scaler_;
  data::SplitWindows splits_;
  int original_threads_ = 0;
};

TEST_F(InferSessionTest, WrapRejectsNullModelAndBadOptions) {
  EXPECT_EQ(infer::InferenceSession::Wrap(nullptr, scaler_, Options()),
            nullptr);
  infer::SessionOptions bad = Options();
  bad.num_nodes = 0;
  EXPECT_EQ(infer::InferenceSession::Wrap(NewTinyModel(1), scaler_, bad),
            nullptr);
}

TEST_F(InferSessionTest, ValidateRequestCatchesMalformedInput) {
  auto session =
      infer::InferenceSession::Wrap(NewTinyModel(1), scaler_, Options());
  ASSERT_NE(session, nullptr);

  EXPECT_EQ(session->ValidateRequest(MakeRequest(0)), "");

  infer::ForecastRequest short_window = MakeRequest(0);
  short_window.window.pop_back();
  EXPECT_NE(session->ValidateRequest(short_window), "");

  infer::ForecastRequest bad_tod = MakeRequest(0);
  bad_tod.time_of_day = traffic_.dataset.steps_per_day;
  EXPECT_NE(session->ValidateRequest(bad_tod), "");

  infer::ForecastRequest bad_dow = MakeRequest(0);
  bad_dow.day_of_week = 7;
  EXPECT_NE(session->ValidateRequest(bad_dow), "");
}

TEST_F(InferSessionTest, PredictRequestsKeepsOrderAcrossInvalidEntries) {
  auto session =
      infer::InferenceSession::Wrap(NewTinyModel(1), scaler_, Options());
  ASSERT_NE(session, nullptr);

  infer::ForecastRequest bad = MakeRequest(0);
  bad.window.clear();
  const std::vector<infer::Forecast> results = session->PredictRequests(
      {MakeRequest(0), bad, MakeRequest(3)});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_FALSE(results[1].ok);
  EXPECT_NE(results[1].error.find("bad request"), std::string::npos);
  EXPECT_TRUE(results[2].ok);
  EXPECT_EQ(static_cast<int64_t>(results[0].values.size()),
            kHorizon * kNodes);

  // The valid entries match a clean all-valid run bitwise.
  const std::vector<infer::Forecast> clean =
      session->PredictRequests({MakeRequest(0), MakeRequest(3)});
  EXPECT_EQ(results[0].values, clean[0].values);
  EXPECT_EQ(results[2].values, clean[1].values);
}

// The request path must assemble bit-for-bit the features the training
// loader assembles for the same windows — z-scored readings, time-of-day
// and day-of-week channels, and the embedding index vectors.
TEST_F(InferSessionTest, AssembledBatchMatchesLoaderBitwise) {
  auto session =
      infer::InferenceSession::Wrap(NewTinyModel(1), scaler_, Options());
  ASSERT_NE(session, nullptr);

  data::WindowDataLoader loader(&traffic_.dataset, &scaler_, splits_.test,
                                kInputLen, kHorizon, 8);
  const data::Batch loader_batch = loader.GetBatch(0);

  std::vector<infer::ForecastRequest> requests;
  for (int64_t i = 0; i < loader_batch.batch_size; ++i) {
    requests.push_back(MakeRequest(splits_.test[static_cast<size_t>(i)]));
  }
  const data::Batch assembled = session->AssembleBatch(requests);

  ASSERT_EQ(assembled.x.shape(), loader_batch.x.shape());
  EXPECT_EQ(assembled.x.Data(), loader_batch.x.Data());
  EXPECT_EQ(assembled.time_of_day, loader_batch.time_of_day);
  EXPECT_EQ(assembled.day_of_week, loader_batch.day_of_week);
}

class InferSessionParityTest : public InferSessionTest,
                               public ::testing::WithParamInterface<int> {};

// The serving contract: train -> checkpoint -> load into a fresh session,
// and the session's forecasts are bitwise identical to the training stack's
// eval-mode forward, regardless of thread count.
TEST_P(InferSessionParityTest, CheckpointRoundTripMatchesTrainingStack) {
  SetNumThreads(GetParam());
  std::unique_ptr<TinyModel> trained;
  const std::string path = TrainAndCheckpoint(
      "parity_" + std::to_string(GetParam()) + ".d2ck", &trained);

  data::WindowDataLoader loader(&traffic_.dataset, &scaler_, splits_.test,
                                kInputLen, kHorizon, 8);
  const data::Batch batch = loader.GetBatch(0);
  trained->SetTraining(false);
  Tensor reference;
  {
    NoGradGuard no_grad;
    reference = scaler_.InverseTransform(trained->Forward(batch));
  }

  // Different init seed: every weight must come from the checkpoint.
  auto session = infer::InferenceSession::Load(NewTinyModel(99), path,
                                               scaler_, Options());
  ASSERT_NE(session, nullptr);

  // Batch path (the evaluator's shape of call).
  const Tensor via_batch = session->Predict(batch);
  ASSERT_EQ(via_batch.shape(), reference.shape());
  EXPECT_EQ(via_batch.Data(), reference.Data());

  // Request path (the server's shape of call).
  std::vector<infer::ForecastRequest> requests;
  for (int64_t i = 0; i < batch.batch_size; ++i) {
    requests.push_back(MakeRequest(splits_.test[static_cast<size_t>(i)]));
  }
  const std::vector<infer::Forecast> forecasts =
      session->PredictRequests(requests);
  const float* ref = reference.Data().data();
  for (size_t i = 0; i < forecasts.size(); ++i) {
    ASSERT_TRUE(forecasts[i].ok) << forecasts[i].error;
    ASSERT_EQ(static_cast<int64_t>(forecasts[i].values.size()),
              kHorizon * kNodes);
    for (size_t j = 0; j < forecasts[i].values.size(); ++j) {
      ASSERT_EQ(forecasts[i].values[j], ref[i * kHorizon * kNodes + j])
          << "request " << i << " element " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, InferSessionParityTest,
                         ::testing::Values(1, 4));

// The tentpole allocation contract, on the paper's real model: after
// warm-up at a batch size, further forwards at that size acquire every
// tensor buffer from the pool — fresh allocations and arena-bypassing
// constructions both stay flat while pool hits grow.
TEST_F(InferSessionTest, NoNewTensorBuffersAfterWarmup) {
  core::D2StgnnConfig config;
  config.num_nodes = kNodes;
  config.input_len = kInputLen;
  config.output_len = 3;
  config.hidden_dim = 8;
  config.embed_dim = 4;
  config.num_layers = 1;
  config.num_heads = 2;
  config.steps_per_day = traffic_.dataset.steps_per_day;
  Rng rng(7);
  auto model = std::make_unique<core::D2Stgnn>(
      config, traffic_.dataset.network.adjacency, rng);
  auto session =
      infer::InferenceSession::Wrap(std::move(model), scaler_, Options());
  ASSERT_NE(session, nullptr);

  session->Warmup(/*batch_size=*/4, /*runs=*/2);
  const BufferArenaStats before = session->arena_stats();
  EXPECT_GT(before.fresh_allocations, 0);

  std::vector<infer::ForecastRequest> requests;
  for (int64_t i = 0; i < 4; ++i) {
    requests.push_back(MakeRequest(splits_.test[static_cast<size_t>(i)]));
  }
  for (int iter = 0; iter < 3; ++iter) {
    const std::vector<infer::Forecast> forecasts =
        session->PredictRequests(requests);
    for (const infer::Forecast& f : forecasts) ASSERT_TRUE(f.ok) << f.error;
  }

  const BufferArenaStats after = session->arena_stats();
  EXPECT_EQ(after.fresh_allocations, before.fresh_allocations)
      << "steady-state forward allocated a new tensor buffer";
  EXPECT_EQ(after.external_adopts, before.external_adopts)
      << "steady-state forward built a tensor bypassing the arena";
  EXPECT_GT(after.pool_hits, before.pool_hits);
}

// The same contract with plans disabled: the EAGER forward path itself must
// be allocation-free after warm-up — every op routes its result and scratch
// buffers through BufferArena::AcquireBuffer, so steady-state eager serving
// (the fallback path for unplanned shapes) performs no fresh allocations.
TEST_F(InferSessionTest, EagerForwardIsAllocationFreeAfterWarmup) {
  core::D2StgnnConfig config;
  config.num_nodes = kNodes;
  config.input_len = kInputLen;
  config.output_len = 3;
  config.hidden_dim = 8;
  config.embed_dim = 4;
  config.num_layers = 1;
  config.num_heads = 2;
  config.steps_per_day = traffic_.dataset.steps_per_day;
  Rng rng(7);
  auto model = std::make_unique<core::D2Stgnn>(
      config, traffic_.dataset.network.adjacency, rng);
  infer::SessionOptions options = Options();
  options.use_plans = false;
  auto session =
      infer::InferenceSession::Wrap(std::move(model), scaler_, options);
  ASSERT_NE(session, nullptr);

  session->Warmup(/*batch_size=*/4, /*runs=*/2);
  const BufferArenaStats before = session->arena_stats();
  EXPECT_GT(before.fresh_allocations, 0);

  std::vector<infer::ForecastRequest> requests;
  for (int64_t i = 0; i < 4; ++i) {
    requests.push_back(MakeRequest(splits_.test[static_cast<size_t>(i)]));
  }
  for (int iter = 0; iter < 3; ++iter) {
    const std::vector<infer::Forecast> forecasts =
        session->PredictRequests(requests);
    for (const infer::Forecast& f : forecasts) ASSERT_TRUE(f.ok) << f.error;
  }
  EXPECT_EQ(session->session_stats().plan_replays, 0);
  EXPECT_EQ(session->session_stats().eager_forwards, 5);  // 2 warmup + 3

  const BufferArenaStats after = session->arena_stats();
  EXPECT_EQ(after.fresh_allocations, before.fresh_allocations)
      << "steady-state eager forward allocated a new tensor buffer";
  EXPECT_EQ(after.external_adopts, before.external_adopts)
      << "steady-state eager forward built a tensor bypassing the arena";
  EXPECT_GT(after.pool_hits, before.pool_hits);
}

// Plan capture runs outside the session arena: after warming the serving
// ladder, the arena pools only the assembled input windows of the warm-up
// forwards, and no capture intermediate is parked there.
TEST_F(InferSessionTest, LadderWarmupParksOnlyAssembledInputs) {
  core::D2StgnnConfig config;
  config.num_nodes = kNodes;
  config.input_len = kInputLen;
  config.output_len = 3;
  config.hidden_dim = 8;
  config.embed_dim = 4;
  config.num_layers = 1;
  config.num_heads = 2;
  config.steps_per_day = traffic_.dataset.steps_per_day;
  Rng rng(7);
  auto model = std::make_unique<core::D2Stgnn>(
      config, traffic_.dataset.network.adjacency, rng);
  auto session =
      infer::InferenceSession::Wrap(std::move(model), scaler_, Options());
  ASSERT_NE(session, nullptr);

  const std::vector<int64_t> ladder = infer::WarmupBatchSizes(8);
  int64_t input_floats = 0;
  for (const int64_t size : ladder) {
    session->Warmup(size);
    const std::vector<infer::ForecastRequest> requests(
        static_cast<size_t>(size), MakeRequest(0));
    input_floats += session->AssembleBatch(requests).x.numel();
  }
  EXPECT_EQ(session->planned_batch_sizes(), ladder);
  const BufferArenaStats stats = session->arena_stats();
  EXPECT_GT(stats.pooled_floats, 0);
  EXPECT_LE(stats.pooled_floats, input_floats)
      << "a capture intermediate was parked in the session arena";
}

// The arena is an optimization, never a semantics change: pooled and
// unpooled sessions around the same weights forecast identically.
TEST_F(InferSessionTest, ArenaDoesNotChangeForecasts) {
  const std::string path = TrainAndCheckpoint("arena_ab.d2ck", nullptr);

  auto pooled = infer::InferenceSession::Load(NewTinyModel(1), path, scaler_,
                                              Options());
  infer::SessionOptions no_arena = Options();
  no_arena.use_arena = false;
  auto plain = infer::InferenceSession::Load(NewTinyModel(2), path, scaler_,
                                             no_arena);
  ASSERT_NE(pooled, nullptr);
  ASSERT_NE(plain, nullptr);

  const std::vector<infer::ForecastRequest> requests = {MakeRequest(0),
                                                        MakeRequest(7)};
  pooled->Warmup(2);
  const std::vector<infer::Forecast> a = pooled->PredictRequests(requests);
  const std::vector<infer::Forecast> b = plain->PredictRequests(requests);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].ok && b[i].ok);
    EXPECT_EQ(a[i].values, b[i].values);
  }
  const BufferArenaStats off = plain->arena_stats();
  EXPECT_EQ(off.fresh_allocations, 0);
  EXPECT_EQ(off.pool_hits, 0);
}

TEST_F(InferSessionTest, CorruptCheckpointProducesNoSession) {
  const std::string path = TrainAndCheckpoint("corrupt_src.d2ck", nullptr);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 64u);

  // Truncated file.
  const std::string truncated = TempPath("truncated.d2ck");
  {
    std::ofstream out(truncated, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_EQ(infer::InferenceSession::Load(NewTinyModel(1), truncated,
                                          scaler_, Options()),
            nullptr);

  // Flipped payload byte (caught by the checksum).
  const std::string corrupt = TempPath("flipped.d2ck");
  bytes[bytes.size() / 2] ^= 0x5a;
  {
    std::ofstream out(corrupt, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_EQ(infer::InferenceSession::Load(NewTinyModel(2), corrupt, scaler_,
                                          Options()),
            nullptr);

  EXPECT_EQ(infer::InferenceSession::Load(NewTinyModel(3),
                                          TempPath("missing.d2ck"), scaler_,
                                          Options()),
            nullptr);
}

TEST_F(InferSessionTest, InjectedLoadFaultProducesNoSession) {
  const std::string path = TrainAndCheckpoint("fault_load.d2ck", nullptr);

  fault::ArmFaultPoint("infer.checkpoint_load",
                       {fault::FaultKind::kErrno, /*trigger_offset=*/0});
  EXPECT_EQ(infer::InferenceSession::Load(NewTinyModel(1), path, scaler_,
                                          Options()),
            nullptr);
  EXPECT_GE(fault::FaultFireCount(), 1);

  // The script disarmed itself after firing; the same load now succeeds.
  auto session = infer::InferenceSession::Load(NewTinyModel(2), path,
                                               scaler_, Options());
  ASSERT_NE(session, nullptr);
  EXPECT_TRUE(session->PredictOne(MakeRequest(0)).ok);
}

// Satellite coverage: the full fallback-accounting trajectory across a
// verifier rejection. A rejected capture leaves the size eager; re-warming
// repairs the cache; every SessionStats counter moves exactly once per
// event, so operators can read the sequence off a stats dump.
TEST_F(InferSessionTest, FallbackAccountingAcrossVerifyRejectEagerRepair) {
  infer::SessionOptions options = Options();
  options.use_plans = true;
  options.verify_plans = true;
  auto session =
      infer::InferenceSession::Wrap(NewTinyModel(5), scaler_, options);
  ASSERT_NE(session, nullptr);

  // 1. Warm-up under an injected verifier rejection: the capture runs, the
  // verifier fires, the plan is refused, the warm-up forward runs eagerly.
  fault::ArmFaultPoint("infer.plan_verify",
                       {fault::FaultKind::kErrno, /*trigger_offset=*/0});
  session->Warmup(2);
  infer::SessionStats stats = session->session_stats();
  EXPECT_EQ(stats.plans_built, 0);
  EXPECT_EQ(stats.plans_verified, 1);
  EXPECT_EQ(stats.plan_verifier_errors, 1);
  EXPECT_EQ(stats.plan_replays, 0);
  EXPECT_EQ(stats.eager_forwards, 1);  // the warm-up run fell back
  EXPECT_TRUE(session->planned_batch_sizes().empty());
  EXPECT_TRUE(session->verifier_reports().empty())
      << "a rejected plan must not leave a report behind";

  // 2. Traffic at the rejected size keeps falling back to eager — served
  // correctly, just without a plan.
  const std::vector<infer::ForecastRequest> requests(2, MakeRequest(0));
  std::vector<infer::Forecast> forecasts = session->PredictRequests(requests);
  for (const infer::Forecast& f : forecasts) EXPECT_TRUE(f.ok) << f.error;
  stats = session->session_stats();
  EXPECT_EQ(stats.eager_forwards, 2);
  EXPECT_EQ(stats.plan_replays, 0);

  // 3. Re-warming repairs the cache: the one-shot fault is spent, the
  // fresh capture verifies clean, and the second warm-up forward replays it
  // (the capture's own forward is the first).
  session->Warmup(2, /*runs=*/2);
  stats = session->session_stats();
  EXPECT_EQ(stats.plans_built, 1);
  EXPECT_EQ(stats.plans_verified, 2);
  EXPECT_EQ(stats.plan_verifier_errors, 1);  // history, not current state
  EXPECT_EQ(stats.plan_replays, 1);
  EXPECT_EQ(stats.eager_forwards, 2);  // eager traffic stopped
  EXPECT_EQ(session->planned_batch_sizes(), std::vector<int64_t>{2});
  EXPECT_EQ(session->verifier_reports().count(2), 1u);

  // 4. Post-repair traffic replays; nothing else moves.
  forecasts = session->PredictRequests(requests);
  for (const infer::Forecast& f : forecasts) EXPECT_TRUE(f.ok) << f.error;
  stats = session->session_stats();
  EXPECT_EQ(stats.plan_replays, 2);
  EXPECT_EQ(stats.eager_forwards, 2);
  EXPECT_EQ(stats.plan_invalidations, 0);
}

}  // namespace
}  // namespace d2stgnn
