// Tests of the micro-batching request server: concurrent submitters (the
// TSan target), coalescing policy (full flush vs max-wait flush), slow
// consumers, bounded-queue backpressure, and graceful shutdown semantics
// (drain resolves everything, cancel resolves everything as cancelled).

#include "infer/batching_server.h"

#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "data/sliding_window.h"
#include "infer/retry.h"
#include "data/synthetic_traffic.h"
#include "nn/linear.h"
#include "train/forecasting_model.h"

namespace d2stgnn {
namespace {

// Linear readout of the last frame (same as train_test.cc). Its forward is
// elementwise per sample, so a request's forecast is bitwise independent of
// which batch the dispatcher put it in — the property the equality
// assertions below lean on.
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

class InferServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SyntheticTrafficOptions options;
    options.network.num_nodes = kNodes;
    options.num_steps = 600;
    options.seed = 31;
    traffic_ = data::GenerateSyntheticTraffic(options);
    scaler_.Fit(traffic_.dataset.values, 400, true);

    infer::SessionOptions session_options;
    session_options.num_nodes = kNodes;
    session_options.input_len = kInputLen;
    session_options.steps_per_day = traffic_.dataset.steps_per_day;
    Rng rng(5);
    session_ = infer::InferenceSession::Wrap(
        std::make_unique<TinyModel>(kNodes, kHorizon, rng), scaler_,
        session_options);
    ASSERT_NE(session_, nullptr);
  }

  void TearDown() override { fault::DisarmAllFaultPoints(); }

  infer::ForecastRequest MakeRequest(int64_t start) const {
    infer::ForecastRequest request;
    const std::vector<float>& values = traffic_.dataset.values.Data();
    request.window.assign(values.data() + start * kNodes,
                          values.data() + (start + kInputLen) * kNodes);
    request.time_of_day = traffic_.dataset.TimeOfDay(start);
    request.day_of_week = traffic_.dataset.DayOfWeek(start);
    return request;
  }

  data::SyntheticTraffic traffic_;
  data::StandardScaler scaler_;
  std::unique_ptr<infer::InferenceSession> session_;
};

// The TSan target: 8 producers hammer Submit while the dispatcher batches.
// Every future resolves with the forecast the session gives the same
// request on its own.
TEST_F(InferServerTest, EightConcurrentSubmittersGetCorrectForecasts) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20;
  constexpr int kStarts = 50;

  // Per-start references, computed serially before the server exists.
  std::vector<std::vector<float>> reference(kStarts);
  for (int s = 0; s < kStarts; ++s) {
    const infer::Forecast f = session_->PredictOne(MakeRequest(s));
    ASSERT_TRUE(f.ok) << f.error;
    reference[static_cast<size_t>(s)] = f.values;
  }

  infer::BatchingOptions options;
  options.max_batch_size = 8;
  options.max_wait_us = 500;
  options.max_queue_depth = 0;  // unbounded: nothing may be shed here
  infer::BatchingServer server(session_.get(), options);

  std::vector<std::vector<std::future<infer::Forecast>>> futures(kThreads);
  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int start = (t * kPerThread + i) % kStarts;
        futures[static_cast<size_t>(t)].push_back(
            server.Submit(MakeRequest(start)));
      }
    });
  }
  for (std::thread& p : producers) p.join();

  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      infer::Forecast f = futures[static_cast<size_t>(t)]
                              [static_cast<size_t>(i)].get();
      ASSERT_TRUE(f.ok) << f.error;
      const int start = (t * kPerThread + i) % kStarts;
      EXPECT_EQ(f.values, reference[static_cast<size_t>(start)])
          << "thread " << t << " request " << i;
    }
  }

  server.Shutdown();
  const infer::BatchingServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kThreads * kPerThread);
  EXPECT_EQ(stats.completed, kThreads * kPerThread);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.cancelled, 0);
  EXPECT_GT(stats.batches, 0);
}

TEST_F(InferServerTest, IdenticalRequestsInOneBatchForecastIdentically) {
  infer::BatchingOptions options;
  options.max_batch_size = 8;
  options.max_wait_us = 1'000'000;  // only a full batch flushes
  infer::BatchingServer server(session_.get(), options);

  std::vector<std::future<infer::Forecast>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(server.Submit(MakeRequest(3)));
  infer::Forecast first = futures[0].get();
  ASSERT_TRUE(first.ok) << first.error;
  for (size_t i = 1; i < futures.size(); ++i) {
    const infer::Forecast f = futures[i].get();
    ASSERT_TRUE(f.ok);
    EXPECT_EQ(f.values, first.values) << "slot " << i;
  }
  EXPECT_EQ(server.stats().full_flushes, 1);
}

// Sparse traffic must never stall: with a batch that cannot fill, the
// max-wait timer flushes whatever is queued.
TEST_F(InferServerTest, MaxWaitFlushesSparseTraffic) {
  infer::BatchingOptions options;
  options.max_batch_size = 64;
  options.max_wait_us = 2000;
  infer::BatchingServer server(session_.get(), options);

  for (int i = 0; i < 3; ++i) {
    std::future<infer::Forecast> future = server.Submit(MakeRequest(i));
    ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << "max-wait flush never fired";
    EXPECT_TRUE(future.get().ok);
  }

  const infer::BatchingServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 3);
  EXPECT_GE(stats.timeout_flushes, 1);
  EXPECT_EQ(stats.full_flushes, 0);
}

// Fault point "infer.slow_consumer": a dispatcher stalled in the model does
// not wedge the queue — requests arriving during the stall are served by
// the following flushes.
TEST_F(InferServerTest, SlowConsumerStillServesEveryRequest) {
  fault::FaultScript script;
  script.kind = fault::FaultKind::kErrno;  // event-shaped: just fire
  script.repeat = true;
  fault::ArmFaultPoint("infer.slow_consumer", script);

  infer::BatchingOptions options;
  options.max_batch_size = 4;
  options.max_wait_us = 1000;
  options.warmup = false;
  infer::BatchingServer server(session_.get(), options);

  std::vector<std::future<infer::Forecast>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(server.Submit(MakeRequest(i)));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::future<infer::Forecast>& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    EXPECT_TRUE(f.get().ok);
  }
  const infer::BatchingServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 8);
  EXPECT_GE(stats.timeout_flushes, 1);
}

TEST_F(InferServerTest, DrainShutdownResolvesEveryQueuedFuture) {
  infer::BatchingOptions options;
  options.max_batch_size = 64;
  options.max_wait_us = 60'000'000;  // the timer must not beat Shutdown
  infer::BatchingServer server(session_.get(), options);

  std::vector<std::future<infer::Forecast>> futures;
  for (int i = 0; i < 10; ++i) futures.push_back(server.Submit(MakeRequest(i)));
  server.Shutdown(/*drain=*/true);

  for (std::future<infer::Forecast>& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "Shutdown returned with an unresolved future";
    EXPECT_TRUE(f.get().ok);
  }
  const infer::BatchingServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 10);
  EXPECT_EQ(stats.cancelled, 0);
  EXPECT_GE(stats.shutdown_flushes, 1);
}

TEST_F(InferServerTest, CancelShutdownResolvesEveryQueuedFutureAsCancelled) {
  infer::BatchingOptions options;
  options.max_batch_size = 64;
  options.max_wait_us = 60'000'000;
  infer::BatchingServer server(session_.get(), options);

  std::vector<std::future<infer::Forecast>> futures;
  for (int i = 0; i < 5; ++i) futures.push_back(server.Submit(MakeRequest(i)));
  server.Shutdown(/*drain=*/false);

  for (std::future<infer::Forecast>& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const infer::Forecast forecast = f.get();
    EXPECT_FALSE(forecast.ok);
    EXPECT_EQ(forecast.error, "cancelled");
  }
  const infer::BatchingServerStats stats = server.stats();
  EXPECT_EQ(stats.cancelled, 5);
  EXPECT_EQ(stats.completed, 0);
}

TEST_F(InferServerTest, SubmitAfterShutdownIsRejected) {
  infer::BatchingOptions options;
  infer::BatchingServer server(session_.get(), options);
  server.Shutdown();

  std::future<infer::Forecast> future = server.Submit(MakeRequest(0));
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const infer::Forecast forecast = future.get();
  EXPECT_FALSE(forecast.ok);
  EXPECT_EQ(forecast.error, "shutting down");
  EXPECT_EQ(server.stats().rejected, 1);
}

TEST_F(InferServerTest, MalformedRequestRejectedBeforeQueueing) {
  infer::BatchingOptions options;
  infer::BatchingServer server(session_.get(), options);

  infer::ForecastRequest bad = MakeRequest(0);
  bad.window.resize(3);
  std::future<infer::Forecast> future = server.Submit(std::move(bad));
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const infer::Forecast forecast = future.get();
  EXPECT_FALSE(forecast.ok);
  EXPECT_NE(forecast.error.find("bad request"), std::string::npos);
  EXPECT_EQ(server.stats().rejected, 1);
  EXPECT_EQ(server.stats().submitted, 0);
}

// Backpressure: with the dispatcher artificially slowed, a bounded queue
// sheds load with "queue full" instead of buffering without limit — and
// every request it did accept still completes.
TEST_F(InferServerTest, BoundedQueueShedsLoadUnderPressure) {
  fault::FaultScript script;
  script.kind = fault::FaultKind::kErrno;
  script.repeat = true;
  fault::ArmFaultPoint("infer.slow_consumer", script);

  infer::BatchingOptions options;
  options.max_batch_size = 1;
  options.max_wait_us = 0;
  options.max_queue_depth = 2;
  options.warmup = false;
  infer::BatchingServer server(session_.get(), options);

  std::vector<std::future<infer::Forecast>> futures;
  for (int i = 0; i < 12; ++i) futures.push_back(server.Submit(MakeRequest(i)));

  int64_t ok_count = 0;
  int64_t shed = 0;
  for (std::future<infer::Forecast>& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    const infer::Forecast forecast = f.get();
    if (forecast.ok) {
      ++ok_count;
    } else {
      // Satellite: the rejection is typed and carries its context — queue
      // depth/capacity and the active batch size — plus a retry hint.
      EXPECT_EQ(forecast.reason, infer::RejectReason::kQueueFull);
      EXPECT_THAT(forecast.error, ::testing::HasSubstr("queue full"));
      EXPECT_THAT(forecast.error, ::testing::HasSubstr("depth 2/2"));
      EXPECT_THAT(forecast.error, ::testing::HasSubstr("active batch"));
      EXPECT_GT(forecast.retry_after_us, 0);
      EXPECT_TRUE(infer::IsRetryableReject(forecast.reason));
      ++shed;
    }
  }
  EXPECT_GE(shed, 1) << "a 20ms/request consumer never filled a depth-2 queue";
  EXPECT_EQ(ok_count + shed, 12);

  server.Shutdown();
  const infer::BatchingServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, ok_count);
  EXPECT_EQ(stats.rejected, shed);
  EXPECT_EQ(stats.rejected_queue_full, shed);  // per-reason shed counter
  EXPECT_EQ(stats.completed, ok_count);
  EXPECT_LE(stats.max_queue_depth_seen, 2);
}

// The plan-replay TSan target: the server's warmup captures execution plans
// (sizes 1 and max_batch_size), so 8 concurrent submitters are served from
// plan replays — which must match a plans-off twin session bitwise.
TEST_F(InferServerTest, EightConcurrentSubmittersAreServedFromPlans) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 12;
  constexpr int kStarts = 24;

  // Eager references from a twin session around identically-seeded weights.
  infer::SessionOptions eager_options;
  eager_options.num_nodes = kNodes;
  eager_options.input_len = kInputLen;
  eager_options.steps_per_day = traffic_.dataset.steps_per_day;
  eager_options.use_plans = false;
  Rng rng(5);  // same seed as the fixture session's model
  auto eager = infer::InferenceSession::Wrap(
      std::make_unique<TinyModel>(kNodes, kHorizon, rng), scaler_,
      eager_options);
  ASSERT_NE(eager, nullptr);
  std::vector<std::vector<float>> reference(kStarts);
  for (int s = 0; s < kStarts; ++s) {
    const infer::Forecast f = eager->PredictOne(MakeRequest(s));
    ASSERT_TRUE(f.ok) << f.error;
    reference[static_cast<size_t>(s)] = f.values;
  }

  infer::BatchingOptions options;
  options.max_batch_size = 8;
  options.max_wait_us = 500;
  options.max_queue_depth = 0;
  infer::BatchingServer server(session_.get(), options);
  ASSERT_EQ(session_->planned_batch_sizes(),
            (std::vector<int64_t>{1, 2, 4, 8}));
  const int64_t replays_before = session_->session_stats().plan_replays;

  std::vector<std::vector<std::future<infer::Forecast>>> futures(kThreads);
  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int start = (t * kPerThread + i) % kStarts;
        futures[static_cast<size_t>(t)].push_back(
            server.Submit(MakeRequest(start)));
      }
    });
  }
  for (std::thread& p : producers) p.join();

  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      infer::Forecast f = futures[static_cast<size_t>(t)]
                              [static_cast<size_t>(i)].get();
      ASSERT_TRUE(f.ok) << f.error;
      const int start = (t * kPerThread + i) % kStarts;
      EXPECT_EQ(f.values, reference[static_cast<size_t>(start)])
          << "thread " << t << " request " << i;
    }
  }
  server.Shutdown();

  // Coalesced batches pad up to the nearest ladder plan (1, 2, 4 or 8), so
  // the bulk of the traffic must have been replays.
  EXPECT_GT(session_->session_stats().plan_replays, replays_before);
  EXPECT_EQ(session_->session_stats().plan_invalidations, 0);
}

// A request still queued past its deadline budget is dropped before
// dispatch — it resolves as kDeadlineExceeded and never pads a batch.
TEST_F(InferServerTest, ExpiredDeadlineIsDroppedBeforeDispatch) {
  fault::FaultScript script;
  script.kind = fault::FaultKind::kErrno;
  script.repeat = true;
  fault::ArmFaultPoint("infer.slow_consumer", script);  // 20ms per batch

  infer::BatchingOptions options;
  options.max_batch_size = 1;
  options.max_wait_us = 0;
  options.max_queue_depth = 0;
  options.warmup = false;
  infer::BatchingServer server(session_.get(), options);

  // The first request occupies the (slowed) dispatcher; the second carries
  // a 1ms budget and expires in the queue behind it.
  std::future<infer::Forecast> head = server.Submit(MakeRequest(0));
  infer::ForecastRequest doomed = MakeRequest(1);
  doomed.deadline_us = 1000;
  std::future<infer::Forecast> expired = server.Submit(std::move(doomed));

  const infer::Forecast head_forecast = head.get();
  EXPECT_TRUE(head_forecast.ok) << head_forecast.error;
  const infer::Forecast expired_forecast = expired.get();
  EXPECT_FALSE(expired_forecast.ok);
  EXPECT_EQ(expired_forecast.reason, infer::RejectReason::kDeadlineExceeded);
  EXPECT_FALSE(infer::IsRetryableReject(expired_forecast.reason));

  server.Shutdown();
  const infer::BatchingServerStats stats = server.stats();
  EXPECT_EQ(stats.expired_deadlines, 1);
  EXPECT_EQ(stats.submitted, 2);   // both were *accepted*...
  EXPECT_EQ(stats.completed, 1);   // ...but only one was served
  EXPECT_EQ(stats.rejected, 0);    // expiry is not a rejection
}

// The "server.deadline" chaos seam treats a request's budget as already
// spent at admission, simulating a deadline storm without waiting.
TEST_F(InferServerTest, InjectedDeadlineFaultExpiresTheRequest) {
  fault::FaultScript script;
  script.kind = fault::FaultKind::kErrno;
  fault::ArmFaultPoint("server.deadline", script);

  infer::BatchingOptions options;
  options.max_batch_size = 4;
  options.max_wait_us = 2000;
  options.warmup = false;
  infer::BatchingServer server(session_.get(), options);

  infer::ForecastRequest request = MakeRequest(0);
  request.deadline_us = 60'000'000;  // a minute — only the fault can expire it
  const infer::Forecast forecast = server.Submit(std::move(request)).get();
  EXPECT_FALSE(forecast.ok);
  EXPECT_EQ(forecast.reason, infer::RejectReason::kDeadlineExceeded);

  // The fault was one-shot: the same request now survives its budget.
  infer::ForecastRequest healthy = MakeRequest(0);
  healthy.deadline_us = 60'000'000;
  const infer::Forecast served = server.Submit(std::move(healthy)).get();
  EXPECT_TRUE(served.ok) << served.error;
  server.Shutdown();
  EXPECT_EQ(server.stats().expired_deadlines, 1);
}

// Token bucket: a bucket's worth of admits (max(rate_rps, 1)) pass
// immediately, the next is rate limited with a refill-shaped retry hint.
// The bucket is the lane's FleetModelOptions::admission gate, set directly
// on a FleetServer lane and through BatchingServer, which forwards its
// rate limit to its one lane.
TEST_F(InferServerTest, TokenBucketRateLimitsBeyondBurst) {
  // A bucket of 2 tokens refilled one per 500 ms, far slower than the
  // four submissions below run.
  constexpr double kRateRps = 2.0;
  const auto expect_two_limited =
      [&](const std::function<std::future<infer::Forecast>(int)>& submit) {
        std::vector<std::future<infer::Forecast>> futures;
        for (int i = 0; i < 4; ++i) futures.push_back(submit(i));
        int64_t limited = 0;
        for (std::future<infer::Forecast>& f : futures) {
          const infer::Forecast forecast = f.get();
          if (forecast.ok) continue;
          EXPECT_EQ(forecast.reason, infer::RejectReason::kRateLimited);
          EXPECT_GT(forecast.retry_after_us, 0);
          EXPECT_NE(forecast.error.find("rate limited (2 rps"),
                    std::string::npos)
              << forecast.error;
          ++limited;
        }
        // The burst of 2 passed, the rest hit an empty bucket.
        EXPECT_EQ(limited, 2);
      };

  infer::ModelFleet fleet;
  infer::FleetModelOptions lane;
  lane.model_id = "tenant";
  lane.max_batch_size = 8;
  lane.max_wait_us = 500;
  lane.warmup = false;
  lane.admission.rate_rps = kRateRps;
  std::string error;
  ASSERT_TRUE(fleet.AddModel(std::shared_ptr<infer::InferenceSession>(
                                 session_.get(), [](infer::InferenceSession*) {}),
                             lane, &error))
      << error;
  infer::FleetServer fleet_server(&fleet, infer::FleetOptions{});
  expect_two_limited(
      [&](int i) { return fleet_server.Submit("tenant", MakeRequest(i)); });
  fleet_server.Shutdown();
  const infer::FleetModelStats lane_stats =
      fleet_server.stats().models.at("tenant");
  EXPECT_EQ(lane_stats.rejected_rate_limited, 2);
  EXPECT_EQ(lane_stats.rejected, 2);

  infer::BatchingOptions options;
  options.max_batch_size = 8;
  options.max_wait_us = 500;
  options.warmup = false;
  options.admission.rate_rps = kRateRps;
  infer::BatchingServer server(session_.get(), options);
  expect_two_limited([&](int i) { return server.Submit(MakeRequest(i)); });
  server.Shutdown();
  const infer::BatchingServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected_rate_limited, 2);
  EXPECT_EQ(stats.rejected, 2);
}

// The "server.degrade" seam forces tier kShedding, which refuses
// low-priority work at admission while high-priority traffic still serves.
TEST_F(InferServerTest, SheddingTierRefusesLowPriorityOnly) {
  fault::FaultScript script;
  script.kind = fault::FaultKind::kErrno;
  fault::ArmFaultPoint("server.degrade", script);

  infer::BatchingOptions options;
  options.max_batch_size = 4;
  options.max_wait_us = 500;
  options.warmup = false;
  infer::BatchingServer server(session_.get(), options);

  infer::ForecastRequest low = MakeRequest(0);
  low.priority = infer::RequestPriority::kLow;
  const infer::Forecast shed = server.Submit(std::move(low)).get();
  EXPECT_FALSE(shed.ok);
  EXPECT_EQ(shed.reason, infer::RejectReason::kShedLowPriority);
  EXPECT_GT(shed.retry_after_us, 0);
  EXPECT_TRUE(infer::IsRetryableReject(shed.reason));

  // Recovery is hysteretic, so the tier is still kShedding here — but a
  // high-priority request passes the gate regardless.
  const infer::Forecast served = server.Submit(MakeRequest(0)).get();
  EXPECT_TRUE(served.ok) << served.error;

  server.Shutdown();
  const infer::BatchingServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected_low_priority, 1);
  EXPECT_GE(stats.degrade_transitions, 1);
}

// The "server.admit" seam injects an admission-path failure: the caller
// sees a typed, retryable kOverloaded — never a crash or a hung future.
TEST_F(InferServerTest, InjectedAdmitFaultIsTypedAndTransient) {
  fault::FaultScript script;
  script.kind = fault::FaultKind::kErrno;
  fault::ArmFaultPoint("server.admit", script);

  infer::BatchingOptions options;
  options.max_batch_size = 4;
  options.max_wait_us = 500;
  options.warmup = false;
  infer::BatchingServer server(session_.get(), options);

  const infer::Forecast faulted = server.Submit(MakeRequest(0)).get();
  EXPECT_FALSE(faulted.ok);
  EXPECT_EQ(faulted.reason, infer::RejectReason::kOverloaded);
  EXPECT_TRUE(infer::IsRetryableReject(faulted.reason));
  EXPECT_THAT(faulted.error, ::testing::HasSubstr("admission fault"));

  const infer::Forecast served = server.Submit(MakeRequest(0)).get();
  EXPECT_TRUE(served.ok) << served.error;
  server.Shutdown();
  EXPECT_EQ(server.stats().rejected_overloaded, 1);
}

// Client-side backoff: a one-shot admission fault costs one retry, then
// the request is served. (BackoffDelayUs itself is pinned in
// overload_test.cc.)
TEST_F(InferServerTest, SubmitWithRetrySurvivesTransientReject) {
  fault::FaultScript script;
  script.kind = fault::FaultKind::kErrno;
  fault::ArmFaultPoint("server.admit", script);

  infer::BatchingOptions options;
  options.max_batch_size = 4;
  options.max_wait_us = 500;
  options.warmup = false;
  infer::BatchingServer server(session_.get(), options);

  infer::RetryPolicy policy;
  policy.initial_backoff_us = 100;  // keep the test fast
  policy.jitter_seed = 7;
  const infer::RetryResult result =
      infer::SubmitWithRetry(&server, MakeRequest(0), policy);
  EXPECT_TRUE(result.forecast.ok) << result.forecast.error;
  EXPECT_EQ(result.attempts, 2);
  EXPECT_GT(result.backoff_us, 0);

  // A bad request is permanent: one attempt, no backoff.
  infer::ForecastRequest malformed = MakeRequest(0);
  malformed.window.pop_back();
  const infer::RetryResult rejected =
      infer::SubmitWithRetry(&server, malformed, policy);
  EXPECT_FALSE(rejected.forecast.ok);
  EXPECT_EQ(rejected.forecast.reason, infer::RejectReason::kBadRequest);
  EXPECT_EQ(rejected.attempts, 1);
  EXPECT_EQ(rejected.backoff_us, 0);
  server.Shutdown();
}

// The drain race regression (TSan target): Shutdown(drain) lands while
// producers are still submitting and the dispatcher is mid-coalesce on the
// flush timer. Every future must resolve — served or typed kShuttingDown —
// and the counters must reconcile exactly. No deadlock, no leaked future.
TEST_F(InferServerTest, DrainUnderLoadWithConcurrentSubmitters) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;

  infer::BatchingOptions options;
  options.max_batch_size = 4;
  options.max_wait_us = 2000;  // long enough that drain interrupts a wait
  options.max_queue_depth = 0;
  options.warmup = false;
  infer::BatchingServer server(session_.get(), options);

  std::vector<std::vector<std::future<infer::Forecast>>> futures(kThreads);
  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        futures[static_cast<size_t>(t)].push_back(
            server.Submit(MakeRequest((t * kPerThread + i) % 40)));
      }
    });
  }
  // Drain while the producers race: some submissions land before the
  // shutdown flag, some after.
  server.Shutdown(/*drain=*/true);
  for (std::thread& p : producers) p.join();

  int64_t served = 0;
  int64_t refused = 0;
  for (auto& per_thread : futures) {
    for (std::future<infer::Forecast>& f : per_thread) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
                std::future_status::ready)
          << "a future leaked through the drain";
      const infer::Forecast forecast = f.get();
      if (forecast.ok) {
        ++served;
      } else {
        EXPECT_EQ(forecast.reason, infer::RejectReason::kShuttingDown);
        ++refused;
      }
    }
  }
  EXPECT_EQ(served + refused, kThreads * kPerThread);

  const infer::BatchingServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, served);  // drain served everything accepted
  EXPECT_EQ(stats.completed, served);
  EXPECT_EQ(stats.rejected_shutdown, refused);
  EXPECT_EQ(stats.cancelled, 0);
}

// SwapSession mid-load: requests dispatched after the swap are served by
// the new weights, bitwise equal to the new session running alone.
TEST_F(InferServerTest, SwapSessionServesNewWeightsBitwise) {
  infer::SessionOptions session_options;
  session_options.num_nodes = kNodes;
  session_options.input_len = kInputLen;
  session_options.steps_per_day = traffic_.dataset.steps_per_day;

  // References from a twin of the *next* session (different seed => weights
  // genuinely differ from the fixture session's).
  Rng twin_rng(11);
  auto twin = infer::InferenceSession::Wrap(
      std::make_unique<TinyModel>(kNodes, kHorizon, twin_rng), scaler_,
      session_options);
  ASSERT_NE(twin, nullptr);
  const infer::Forecast reference = twin->PredictOne(MakeRequest(3));
  ASSERT_TRUE(reference.ok) << reference.error;
  const infer::Forecast old_reference = session_->PredictOne(MakeRequest(3));
  ASSERT_TRUE(old_reference.ok) << old_reference.error;
  ASSERT_NE(reference.values, old_reference.values)
      << "seeds 5 and 11 produced identical weights; the swap is untestable";

  Rng rng(5);
  std::shared_ptr<infer::InferenceSession> first =
      infer::InferenceSession::Wrap(
          std::make_unique<TinyModel>(kNodes, kHorizon, rng), scaler_,
          session_options);
  ASSERT_NE(first, nullptr);
  infer::BatchingOptions options;
  options.max_batch_size = 4;
  options.max_wait_us = 500;
  infer::BatchingServer server(first, options);

  const infer::Forecast before = server.Submit(MakeRequest(3)).get();
  ASSERT_TRUE(before.ok) << before.error;
  EXPECT_EQ(before.values, old_reference.values);

  Rng next_rng(11);
  std::shared_ptr<infer::InferenceSession> next =
      infer::InferenceSession::Wrap(
          std::make_unique<TinyModel>(kNodes, kHorizon, next_rng), scaler_,
          session_options);
  ASSERT_NE(next, nullptr);
  server.SwapSession(next);

  const infer::Forecast after = server.Submit(MakeRequest(3)).get();
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(after.values, reference.values);  // bitwise, not approximately

  server.Shutdown();
  EXPECT_EQ(server.stats().session_swaps, 1);
  EXPECT_EQ(server.session().get(), next.get());
}

}  // namespace
}  // namespace d2stgnn
