// Tests of the multi-model fleet: the FleetArbiter's quota and
// weighted-fair dispatch policy (pure, clockless), the ModelFleet registry,
// and the FleetServer end to end — per-model bitwise routing, typed quota
// rejections under contention, SLO-class shedding at the worst tier, two
// models hot-reloading concurrently under traffic, stats consistency under
// racing submitters, and the chaos drill (open-loop traffic past two SLO
// classes with every serving fault point armed and a mid-run hot reload) —
// the TSan targets of scripts/ci.sh.

#include "infer/fleet/fleet.h"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "data/sliding_window.h"
#include "data/synthetic_traffic.h"
#include "experiment/load_generator.h"
#include "infer/batching_server.h"
#include "infer/fleet/fleet_server.h"
#include "infer/retry.h"
#include "nn/linear.h"
#include "train/checkpoint.h"
#include "train/forecasting_model.h"

namespace d2stgnn {
namespace {

using ::testing::AnyOf;

// ---------------------------------------------------------------------------
// FleetArbiter: the pure arbitration policy.

TEST(FleetArbiterTest, QuotaIsWeightedShareAndArmsAtWatermark) {
  infer::FleetArbiter arbiter(/*shared_capacity=*/64,
                              /*arbitration_watermark=*/0.5);
  arbiter.AddLane("gold", /*priority=*/0, /*weight=*/4.0);
  arbiter.AddLane("silver", /*priority=*/1, /*weight=*/2.0);
  arbiter.AddLane("bronze", /*priority=*/2, /*weight=*/1.0);

  EXPECT_FALSE(arbiter.QuotaArmed(31));
  EXPECT_TRUE(arbiter.QuotaArmed(32));  // watermark * capacity
  EXPECT_TRUE(arbiter.QuotaArmed(64));

  EXPECT_EQ(arbiter.Quota("gold"), 64 * 4 / 7);
  EXPECT_EQ(arbiter.Quota("silver"), 64 * 2 / 7);
  EXPECT_EQ(arbiter.Quota("bronze"), 64 * 1 / 7);
  EXPECT_EQ(arbiter.Quota("unknown"), 0);
}

TEST(FleetArbiterTest, UnboundedCapacityDisablesQuotas) {
  infer::FleetArbiter arbiter(/*shared_capacity=*/0, 0.5);
  arbiter.AddLane("a", 0, 1.0);
  EXPECT_FALSE(arbiter.QuotaArmed(1 << 20));
  EXPECT_GT(arbiter.Quota("a"), int64_t{1} << 60);
  // A tiny share still admits at least one request.
  infer::FleetArbiter small(/*shared_capacity=*/4, 0.5);
  small.AddLane("sliver", 0, /*weight=*/1.0);
  small.AddLane("bulk", 0, /*weight=*/99.0);  // sliver's share: 0.01
  EXPECT_EQ(small.Quota("sliver"), 1);
}

TEST(FleetArbiterTest, PickPrefersStrictPriorityThenWeightedFairness) {
  infer::FleetArbiter arbiter(64, 0.5);
  arbiter.AddLane("gold", 0, 4.0);
  arbiter.AddLane("x", 1, 2.0);
  arbiter.AddLane("y", 1, 1.0);

  // Strict priority: gold wins whenever it is ready.
  EXPECT_EQ(arbiter.Pick({"y", "x", "gold"}), "gold");
  EXPECT_EQ(arbiter.Pick({}), "");

  // Among equal priorities, dispatches split by weight: x (weight 2) gets
  // twice the batches of y (weight 1). Deterministic — count 30 rounds.
  std::map<std::string, int> dispatched;
  for (int i = 0; i < 30; ++i) {
    const std::string pick = arbiter.Pick({"x", "y"});
    ASSERT_THAT(pick, AnyOf("x", "y"));
    arbiter.Account(pick, /*batch_size=*/4);
    ++dispatched[pick];
  }
  EXPECT_EQ(dispatched["x"], 20);
  EXPECT_EQ(dispatched["y"], 10);
}

TEST(FleetArbiterTest, IdleLaneReentersAtFloorWithoutMonopolizing) {
  infer::FleetArbiter arbiter(64, 0.5);
  arbiter.AddLane("p", 0, 1.0);
  arbiter.AddLane("q", 0, 1.0);

  // q dispatches alone for a while; p is idle and accrues no credit.
  for (int i = 0; i < 5; ++i) arbiter.Account("q", 8);

  // When p wakes it is served next (it re-enters at the floor, below q's
  // virtual time) but it cannot cash in the idle time as banked credit:
  // from then on the two lanes near-alternate (p stays one ahead only via
  // the deterministic smaller-id tie-break, 6:4 over ten rounds).
  EXPECT_EQ(arbiter.Pick({"p", "q"}), "p");
  std::map<std::string, int> dispatched;
  for (int i = 0; i < 10; ++i) {
    const std::string pick = arbiter.Pick({"p", "q"});
    arbiter.Account(pick, 8);
    ++dispatched[pick];
  }
  EXPECT_EQ(dispatched["p"], 6);
  EXPECT_EQ(dispatched["q"], 4);
}

TEST(FleetSloClassTest, BuiltinsResolveByName) {
  EXPECT_EQ(infer::BuiltinSloClasses().size(), 3u);
  infer::SloClass slo;
  ASSERT_TRUE(infer::ResolveSloClass("gold", &slo));
  EXPECT_EQ(slo.priority, 0);
  EXPECT_EQ(slo.target_p99_ms, 50);
  EXPECT_EQ(slo.weight, 4.0);
  ASSERT_TRUE(infer::ResolveSloClass("bronze", &slo));
  EXPECT_EQ(slo.priority, 2);
  EXPECT_FALSE(infer::ResolveSloClass("platinum", &slo));
}

// ---------------------------------------------------------------------------
// FleetServer end to end, over the tiny batch-independent model of
// infer_server_test.cc (linear readout of the last frame, so bitwise
// comparisons across servers hold).

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

class FleetServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SyntheticTrafficOptions options;
    options.network.num_nodes = kNodes;
    options.num_steps = 600;
    options.seed = 31;
    traffic_ = data::GenerateSyntheticTraffic(options);
    scaler_.Fit(traffic_.dataset.values, 400, true);

    watch_dir_ = ::testing::TempDir() + "/fleet_" +
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

  std::shared_ptr<infer::InferenceSession> NewSession(uint64_t seed) const {
    std::shared_ptr<infer::InferenceSession> session(
        infer::InferenceSession::Wrap(NewTinyModel(seed), scaler_, Options())
            .release());
    EXPECT_NE(session, nullptr);
    return session;
  }

  /// What a seed-`seed` model answers for MakeRequest(start), standalone.
  std::vector<float> Reference(uint64_t seed, int64_t start) const {
    auto session =
        infer::InferenceSession::Wrap(NewTinyModel(seed), scaler_, Options());
    EXPECT_NE(session, nullptr);
    const infer::Forecast f = session->PredictOne(MakeRequest(start));
    EXPECT_TRUE(f.ok) << f.error;
    return f.values;
  }

  /// Registers `id` with the given seed and a custom SLO (no target p99,
  /// so flush timers are exactly max_wait_us).
  void AddModel(infer::ModelFleet* fleet, const std::string& id,
                uint64_t seed, int64_t priority, double weight,
                int64_t max_wait_us = 500, int64_t max_batch_size = 4) {
    infer::FleetModelOptions options;
    options.model_id = id;
    options.slo.name = "custom-" + id;
    options.slo.priority = priority;
    options.slo.weight = weight;
    options.max_batch_size = max_batch_size;
    options.max_wait_us = max_wait_us;
    std::string error;
    ASSERT_TRUE(fleet->AddModel(NewSession(seed), options, &error)) << error;
  }

  data::SyntheticTraffic traffic_;
  data::StandardScaler scaler_;
  std::string watch_dir_;
};

TEST_F(FleetServerTest, RegistryValidatesModels) {
  infer::ModelFleet fleet;
  std::string error;
  EXPECT_FALSE(fleet.AddModel(nullptr, infer::FleetModelOptions{}, &error));
  EXPECT_NE(error.find("null session"), std::string::npos);

  infer::FleetModelOptions options;
  options.model_id = "";
  EXPECT_FALSE(fleet.AddModel(NewSession(5), options, &error));
  EXPECT_NE(error.find("empty model_id"), std::string::npos);

  options.model_id = "a";
  options.max_batch_size = 0;
  EXPECT_FALSE(fleet.AddModel(NewSession(5), options, &error));
  EXPECT_NE(error.find("max_batch_size"), std::string::npos);

  options.max_batch_size = 4;
  ASSERT_TRUE(fleet.AddModel(NewSession(5), options, &error)) << error;
  EXPECT_FALSE(fleet.AddModel(NewSession(7), options, &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos);

  EXPECT_EQ(fleet.size(), 1u);
  EXPECT_EQ(fleet.model_ids(), std::vector<std::string>{"a"});
  EXPECT_NE(fleet.session("a"), nullptr);
  EXPECT_EQ(fleet.session("nope"), nullptr);
  ASSERT_NE(fleet.model_options("a"), nullptr);
  EXPECT_EQ(fleet.model_options("a")->max_batch_size, 4);

  // Reloaders: unknown ids and double-attachment are refused.
  EXPECT_FALSE(fleet.AttachReloader(
      "nope", nullptr, [this] { return NewTinyModel(1); }, scaler_, Options(),
      infer::HotReloadOptions{}, &error));
}

TEST_F(FleetServerTest, RoutesEachModelToItsOwnWeightsBitwise) {
  infer::ModelFleet fleet;
  AddModel(&fleet, "city-a", /*seed=*/5, /*priority=*/0, /*weight=*/4.0);
  AddModel(&fleet, "city-b", /*seed=*/11, /*priority=*/2, /*weight=*/1.0);
  infer::FleetServer server(&fleet, infer::FleetOptions{});

  const std::vector<float> ref_a = Reference(5, 3);
  const std::vector<float> ref_b = Reference(11, 3);
  ASSERT_NE(ref_a, ref_b);

  infer::Forecast a = server.Submit("city-a", MakeRequest(3)).get();
  infer::Forecast b = server.Submit("city-b", MakeRequest(3)).get();
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(a.values, ref_a);  // bitwise: arbitration never changes math
  EXPECT_EQ(b.values, ref_b);

  // Unknown ids are typed rejections, counted fleet-wide.
  infer::Forecast unknown = server.Submit("city-z", MakeRequest(3)).get();
  EXPECT_FALSE(unknown.ok);
  EXPECT_EQ(unknown.reason, infer::RejectReason::kBadRequest);
  const infer::FleetStats stats = server.stats();
  EXPECT_EQ(stats.rejected_unknown_model, 1);
  EXPECT_EQ(stats.models.at("city-a").completed, 1);
  EXPECT_EQ(stats.models.at("city-b").completed, 1);

  server.Shutdown();
  infer::Forecast late = server.Submit("city-a", MakeRequest(3)).get();
  EXPECT_FALSE(late.ok);
  EXPECT_EQ(late.reason, infer::RejectReason::kShuttingDown);
}

TEST_F(FleetServerTest, QuotaRejectsOverSubscribedTenantTyped) {
  infer::ModelFleet fleet;
  // Long coalescing windows and roomy batches keep every submission queued
  // (no full-batch flush) while we probe the quota path.
  AddModel(&fleet, "gold", 5, 0, 4.0, /*max_wait_us=*/200000,
           /*max_batch_size=*/8);
  AddModel(&fleet, "bronze", 11, 2, 1.0, /*max_wait_us=*/200000,
           /*max_batch_size=*/8);
  infer::FleetOptions options;
  options.max_queue_depth = 8;  // quotas arm at 4; bronze's share is 1
  infer::FleetServer server(&fleet, options);

  // Fill the shared queue past the arbitration watermark with gold traffic
  // (gold's quota is 8*4/5 = 6, so these are all admitted).
  std::vector<std::future<infer::Forecast>> pending;
  for (int i = 0; i < 4; ++i) {
    pending.push_back(server.Submit("gold", MakeRequest(i)));
  }

  // Bronze may use its own share (one slot)...
  pending.push_back(server.Submit("bronze", MakeRequest(0)));
  // ...but the next bronze request is over quota: a typed, retryable
  // rejection with a backoff hint, not a starved gold tenant.
  infer::Forecast over = server.Submit("bronze", MakeRequest(1)).get();
  EXPECT_FALSE(over.ok);
  EXPECT_EQ(over.reason, infer::RejectReason::kQuotaExceeded);
  EXPECT_TRUE(infer::IsRetryableReject(over.reason));
  EXPECT_GT(over.retry_after_us, 0);

  server.Shutdown(/*drain=*/true);  // everything queued still completes
  for (std::future<infer::Forecast>& f : pending) {
    const infer::Forecast forecast = f.get();
    EXPECT_TRUE(forecast.ok) << forecast.error;
  }
  const infer::FleetStats stats = server.stats();
  EXPECT_EQ(stats.models.at("bronze").rejected_quota, 1);
  EXPECT_EQ(stats.models.at("gold").rejected_quota, 0);
  EXPECT_EQ(stats.completed, 5);
}

TEST_F(FleetServerTest, SheddingTierRefusesOnlyWorstSloClass) {
  infer::ModelFleet fleet;
  AddModel(&fleet, "gold", 5, 0, 4.0);
  AddModel(&fleet, "bronze", 11, 2, 1.0);
  infer::FleetOptions options;
  options.max_queue_depth = 64;
  infer::FleetServer server(&fleet, options);

  // Force the harshest tier through the scripted chaos seam. The test makes
  // fewer than OverloadGovernor::kRecoverTicks calm observations, so the
  // forced tier holds to the end.
  fault::FaultScript script;
  script.kind = fault::FaultKind::kErrno;
  fault::ArmFaultPoint("server.degrade", script);

  // The first submission consumes the fault (tier -> kShedding) but is
  // gold, the best class: admitted. Bronze — the single worst class — is
  // refused while gold keeps serving.
  infer::Forecast gold = server.Submit("gold", MakeRequest(0)).get();
  ASSERT_TRUE(gold.ok) << gold.error;
  infer::Forecast bronze = server.Submit("bronze", MakeRequest(0)).get();
  EXPECT_FALSE(bronze.ok);
  EXPECT_EQ(bronze.reason, infer::RejectReason::kShedLowPriority);
  infer::Forecast gold2 = server.Submit("gold", MakeRequest(1)).get();
  EXPECT_TRUE(gold2.ok) << gold2.error;

  const infer::FleetStats stats = server.stats();
  EXPECT_EQ(stats.tier, infer::OverloadTier::kShedding);
  EXPECT_EQ(stats.models.at("bronze").rejected_low_priority, 1);
  EXPECT_EQ(stats.models.at("gold").rejected, 0);
}

TEST_F(FleetServerTest, TwoModelsHotReloadConcurrentlyUnderTraffic) {
  infer::ModelFleet fleet;
  AddModel(&fleet, "a", 5, 0, 4.0);
  AddModel(&fleet, "b", 7, 1, 2.0);
  AddModel(&fleet, "c", 9, 2, 1.0);  // no reloader: must never swap
  infer::FleetServer server(&fleet, infer::FleetOptions{});

  const std::string dir_a = watch_dir_ + "/a";
  const std::string dir_b = watch_dir_ + "/b";
  std::filesystem::create_directories(dir_a);
  std::filesystem::create_directories(dir_b);
  infer::HotReloadOptions reload_a;
  reload_a.directory = dir_a;
  reload_a.poll_interval_ms = 10;
  infer::HotReloadOptions reload_b = reload_a;
  reload_b.directory = dir_b;
  std::string error;
  ASSERT_TRUE(fleet.AttachReloader("a", server.host("a"),
                                   [this] { return NewTinyModel(99); },
                                   scaler_, Options(), reload_a, &error))
      << error;
  ASSERT_TRUE(fleet.AttachReloader("b", server.host("b"),
                                   [this] { return NewTinyModel(99); },
                                   scaler_, Options(), reload_b, &error))
      << error;
  fleet.StartReloaders();

  // Traffic hammers all three lanes while both checkpoints stage and swap.
  std::atomic<bool> stop{false};
  std::vector<std::thread> traffic;
  for (const std::string id : {"a", "b", "c"}) {
    traffic.emplace_back([&, id] {
      int64_t start = 0;
      while (!stop.load()) {
        infer::Forecast f =
            server.Submit(id, MakeRequest(start++ % 16)).get();
        ASSERT_TRUE(f.ok) << id << ": " << f.error;
      }
    });
  }

  ASSERT_TRUE(train::SaveCheckpoint(
      *NewTinyModel(21), train::CheckpointPathForStep(dir_a, 1)));
  ASSERT_TRUE(train::SaveCheckpoint(
      *NewTinyModel(22), train::CheckpointPathForStep(dir_b, 1)));

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(60);
  while ((fleet.reloader("a")->stats().swaps == 0 ||
          fleet.reloader("b")->stats().swaps == 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (std::thread& t : traffic) t.join();
  fleet.StopReloaders();
  ASSERT_EQ(fleet.reloader("a")->stats().swaps, 1);
  ASSERT_EQ(fleet.reloader("b")->stats().swaps, 1);

  // Post-swap, each lane serves its own staged weights bitwise; the lane
  // without a reloader still serves its boot weights.
  infer::Forecast a = server.Submit("a", MakeRequest(3)).get();
  infer::Forecast b = server.Submit("b", MakeRequest(3)).get();
  infer::Forecast c = server.Submit("c", MakeRequest(3)).get();
  ASSERT_TRUE(a.ok && b.ok && c.ok);
  EXPECT_EQ(a.values, Reference(21, 3));
  EXPECT_EQ(b.values, Reference(22, 3));
  EXPECT_EQ(c.values, Reference(9, 3));

  const infer::FleetStats stats = server.stats();
  EXPECT_EQ(stats.models.at("a").session_swaps, 1);
  EXPECT_EQ(stats.models.at("b").session_swaps, 1);
  EXPECT_EQ(stats.models.at("c").session_swaps, 0);
  EXPECT_EQ(stats.session_swaps, 2);
}

TEST_F(FleetServerTest, StatsStayConsistentUnderRacingSubmitters) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  // Races kThreads submitters through `submit(thread, i)`; every future
  // must be served.
  const auto race = [](const std::function<std::future<infer::Forecast>(
                           int, int)>& submit) {
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          infer::Forecast f = submit(t, i).get();
          ASSERT_TRUE(f.ok) << f.error;
        }
      });
    }
    for (std::thread& t : submitters) t.join();
  };
  // Every accepted request is accounted exactly once (served, cancelled,
  // expired, or still queued), every reject under exactly one reason, and
  // every batch flush under exactly one cause.
  const auto expect_consistent = [](const infer::FleetModelStats& model,
                                    const std::string& id) {
    EXPECT_EQ(model.submitted, model.completed + model.cancelled +
                                   model.expired_deadlines + model.queue_depth)
        << id;
    EXPECT_EQ(model.rejected,
              model.rejected_bad_request + model.rejected_queue_full +
                  model.rejected_rate_limited + model.rejected_overloaded +
                  model.rejected_low_priority + model.rejected_quota +
                  model.rejected_shutdown)
        << id;
    EXPECT_EQ(model.batches, model.full_flushes + model.timeout_flushes +
                                 model.shutdown_flushes)
        << id;
    EXPECT_EQ(model.queue_depth, 0) << id;
  };

  infer::ModelFleet fleet;
  AddModel(&fleet, "a", 5, 0, 4.0);
  AddModel(&fleet, "b", 11, 2, 1.0);
  infer::FleetServer server(&fleet, infer::FleetOptions{});
  race([&](int t, int i) {
    return server.Submit((t + i) % 2 == 0 ? "a" : "b", MakeRequest(i % 16));
  });
  server.Shutdown(/*drain=*/true);

  const infer::FleetStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kThreads * kPerThread);
  EXPECT_EQ(stats.completed, kThreads * kPerThread);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.cancelled, 0);
  int64_t batches = 0;
  for (const auto& [id, model] : stats.models) {
    expect_consistent(model, id);
    batches += model.batches;
  }
  EXPECT_EQ(stats.batches, batches);
  EXPECT_EQ(stats.models.at("a").submitted + stats.models.at("b").submitted,
            kThreads * kPerThread);

  // The same race against the single-model front door (a one-lane fleet).
  infer::BatchingOptions options;
  options.max_batch_size = 4;
  options.max_wait_us = 500;
  infer::BatchingServer single(NewSession(5), options);
  race([&](int, int i) { return single.Submit(MakeRequest(i % 16)); });
  single.Shutdown(/*drain=*/true);
  const infer::BatchingServerStats lane = single.stats();
  EXPECT_EQ(lane.completed, kThreads * kPerThread);
  expect_consistent(lane, "batching server");
}

TEST_F(FleetServerTest, SubmitWithRetryRidesOutQuotaRejection) {
  infer::ModelFleet fleet;
  AddModel(&fleet, "gold", 5, 0, 4.0, /*max_wait_us=*/20000,
           /*max_batch_size=*/8);
  AddModel(&fleet, "bronze", 11, 2, 1.0, /*max_wait_us=*/20000,
           /*max_batch_size=*/8);
  infer::FleetOptions options;
  options.max_queue_depth = 8;
  infer::FleetServer server(&fleet, options);

  // Hold the queue over the watermark, over-subscribe bronze, then let the
  // retry loop win once the window flushes and the queue drains.
  std::vector<std::future<infer::Forecast>> pending;
  for (int i = 0; i < 4; ++i) {
    pending.push_back(server.Submit("gold", MakeRequest(i)));
  }
  pending.push_back(server.Submit("bronze", MakeRequest(0)));

  infer::RetryPolicy policy;
  policy.max_attempts = 50;
  policy.initial_backoff_us = 2000;
  policy.jitter_seed = 7;
  const infer::RetryResult result =
      infer::SubmitWithRetry(&server, "bronze", MakeRequest(1), policy);
  EXPECT_TRUE(result.forecast.ok) << result.forecast.error;
  EXPECT_EQ(result.forecast.values, Reference(11, 1));
  for (std::future<infer::Forecast>& f : pending) {
    EXPECT_TRUE(f.get().ok);
  }
  server.Shutdown();
}

// The chaos drill: a gold and a bronze tenant behind one FleetServer take
// open-loop traffic (bronze at three times gold's rate) where every request
// carries a deadline and every fourth is low priority, while all four
// serving fault points fire and gold hot-reloads mid-run through a staging
// fault it must heal from. Whatever the schedule, every future resolves
// exactly once, work completes, and the math never changes: gold serves
// the staged twin bitwise, bronze its boot weights with no swap. A hang
// (a stuck dispatcher, a lost promise, a reloader that cannot join) is
// caught by the ctest TIMEOUT on this binary (tests/CMakeLists.txt).
TEST_F(FleetServerTest, ChaosDrillResolvesEveryFutureOnceAndKeepsLanesBitwise) {
  infer::ModelFleet fleet;
  AddModel(&fleet, "gold", 5, /*priority=*/0, /*weight=*/4.0);
  AddModel(&fleet, "bronze", 11, /*priority=*/2, /*weight=*/1.0);
  const std::vector<std::string> lanes = {"gold", "bronze"};
  infer::FleetOptions options;
  options.max_queue_depth = 16;
  infer::FleetServer server(&fleet, options);

  infer::HotReloadOptions reload;
  reload.directory = watch_dir_ + "/gold";
  reload.poll_interval_ms = 10;
  std::filesystem::create_directories(reload.directory);
  std::string error;
  ASSERT_TRUE(fleet.AttachReloader("gold", server.host("gold"),
                                   [this] { return NewTinyModel(5); },
                                   scaler_, Options(), reload, &error))
      << error;
  fleet.StartReloaders();

  // One-shot kErrno scripts: "point", then how many calls pass first.
  const std::pair<const char*, int64_t> faults[] = {
      {"server.admit", 2},
      {"server.deadline", 2},
      {"server.degrade", 10},
      {"infer.hot_reload", 0}};
  for (const auto& [point, offset] : faults) {
    fault::FaultScript script;
    script.kind = fault::FaultKind::kErrno;
    script.trigger_offset = offset;
    fault::ArmFaultPoint(point, script);
  }
  const int64_t armed = static_cast<int64_t>(std::size(faults));

  std::atomic<int64_t> submitted{0};
  bool dropped = false;
  experiment::OpenLoopOptions load;
  load.lane_rps = {100.0, 300.0};
  load.producers_per_lane = 2;
  load.seconds = 0.6;
  load.windows = 3;
  load.on_tick = [&](double elapsed_s) {
    if (dropped || elapsed_s < 0.2) return;
    ASSERT_TRUE(train::SaveCheckpoint(
        *NewTinyModel(21), train::CheckpointPathForStep(reload.directory, 1)));
    dropped = true;
  };
  const experiment::LoadResult result =
      experiment::LoadGenerator([&](const experiment::LoadRequest& r) {
        submitted.fetch_add(1);
        infer::ForecastRequest request = MakeRequest(r.seq % 16);
        request.deadline_us = 20000;
        if (r.seq % 4 == 3) request.priority = infer::RequestPriority::kLow;
        return server.Submit(lanes[static_cast<size_t>(r.lane)],
                             std::move(request));
      }).OpenLoop(load);
  ASSERT_TRUE(dropped);

  // Every send was harvested once (one sample per submit, no (lane, seq)
  // twice), and every window completed work.
  EXPECT_EQ(static_cast<int64_t>(result.samples.size()), submitted.load());
  std::set<std::pair<int64_t, int64_t>> seen;
  std::vector<int64_t> completed(static_cast<size_t>(load.windows), 0);
  for (const experiment::LoadSample& sample : result.samples) {
    EXPECT_TRUE(seen.emplace(sample.lane, sample.seq).second)
        << "lane " << sample.lane << " seq " << sample.seq;
    if (sample.ok) ++completed[static_cast<size_t>(sample.window)];
  }
  for (size_t w = 0; w < completed.size(); ++w) {
    EXPECT_GT(completed[w], 0) << "window " << w;
  }

  // The reload retries through its staging fault; it must land before the
  // probes.
  const infer::CheckpointReloader& reloader = *fleet.reloader("gold");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (reloader.stats().swaps == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(reloader.stats().swaps, 1);

  // Generous retries ride out the shedding tier's hysteretic recovery.
  infer::RetryPolicy policy;
  policy.max_attempts = 64;
  policy.initial_backoff_us = 2000;
  policy.max_backoff_us = 50000;
  policy.jitter_seed = 7;
  const infer::RetryResult gold =
      infer::SubmitWithRetry(&server, "gold", MakeRequest(3), policy);
  const infer::RetryResult bronze =
      infer::SubmitWithRetry(&server, "bronze", MakeRequest(3), policy);
  fleet.StopReloaders();
  server.Shutdown();
  EXPECT_GE(fault::FaultFireCount(), armed);

  ASSERT_TRUE(gold.forecast.ok) << gold.forecast.error;
  ASSERT_TRUE(bronze.forecast.ok) << bronze.forecast.error;
  EXPECT_EQ(gold.forecast.values, Reference(21, 3));
  EXPECT_EQ(bronze.forecast.values, Reference(11, 3));
  const infer::FleetStats stats = server.stats();
  EXPECT_EQ(stats.models.at("gold").session_swaps, 1);
  EXPECT_EQ(stats.models.at("bronze").session_swaps, 0);
}

}  // namespace
}  // namespace d2stgnn
