// Tests of the load generator against fake servers: a submit callback that
// resolves at once (or rejects) isolates the generator's own contract —
// how many requests it sends, that each is harvested exactly once, and how
// it stamps latency and lag.

#include "experiment/load_generator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace d2stgnn {
namespace {

using experiment::LoadGenerator;
using experiment::LoadRequest;
using experiment::LoadResult;
using experiment::LoadSample;
using experiment::OpenLoopOptions;

std::future<infer::Forecast> Resolved(infer::RejectReason reason) {
  std::promise<infer::Forecast> promise;
  infer::Forecast forecast;
  forecast.ok = reason == infer::RejectReason::kNone;
  forecast.reason = reason;
  promise.set_value(forecast);
  return promise.get_future();
}

// The seqs of each lane, sorted: every sent request shows up exactly once
// when they read 0, 1, ..., n - 1.
std::vector<std::vector<int64_t>> SeqsByLane(const LoadResult& result,
                                             size_t lanes) {
  std::vector<std::vector<int64_t>> seqs(lanes);
  for (const LoadSample& sample : result.samples) {
    seqs.at(static_cast<size_t>(sample.lane)).push_back(sample.seq);
  }
  for (std::vector<int64_t>& lane : seqs) std::sort(lane.begin(), lane.end());
  return seqs;
}

std::vector<int64_t> Iota(size_t n) {
  std::vector<int64_t> out(n);
  std::iota(out.begin(), out.end(), 0);
  return out;
}

TEST(LoadGeneratorTest, OpenLoopSendsEachLanesRateAndHarvestsEveryFuture) {
  std::atomic<int64_t> submitted{0};
  LoadGenerator generator([&](const LoadRequest&) {
    submitted.fetch_add(1);
    return Resolved(infer::RejectReason::kNone);
  });
  OpenLoopOptions options;
  options.lane_rps = {200.0, 90.0, 35.0};
  options.producers_per_lane = 2;
  options.seconds = 0.4;
  options.windows = 4;
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<double> ticks;
  options.on_tick = [&](double elapsed_s) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ticks.push_back(elapsed_s);
  };
  const LoadResult result = generator.OpenLoop(options);

  // on_tick ran on the calling thread while sends were due.
  ASSERT_GE(ticks.size(), 2u);
  EXPECT_LT(ticks.front(), ticks.back());
  EXPECT_LT(ticks.back(), options.seconds);

  // One sample per Submit, and per lane each seq exactly once.
  ASSERT_EQ(static_cast<int64_t>(result.samples.size()), submitted.load());
  const auto seqs = SeqsByLane(result, options.lane_rps.size());
  for (size_t lane = 0; lane < seqs.size(); ++lane) {
    EXPECT_EQ(seqs[lane], Iota(seqs[lane].size())) << "lane " << lane;
    const double expected = options.lane_rps[lane] * options.seconds;
    EXPECT_LE(std::abs(static_cast<double>(seqs[lane].size()) - expected),
              1.0)
        << "lane " << lane << " sent " << seqs[lane].size();
  }
  for (const LoadSample& sample : result.samples) {
    EXPECT_TRUE(sample.ok);
    EXPECT_GE(sample.window, 0);
    EXPECT_LT(sample.window, options.windows);
    EXPECT_GE(sample.lag_ms, 0.0);
  }
  EXPECT_EQ(result.OkLatenciesMs(2).size(), seqs[2].size());
}

TEST(LoadGeneratorTest, RejectKeepsItsReasonAndCountsAsNotOk) {
  LoadGenerator generator([](const LoadRequest& request) {
    return Resolved(request.seq % 3 == 2 ? infer::RejectReason::kQueueFull
                                         : infer::RejectReason::kNone);
  });
  OpenLoopOptions options;
  options.lane_rps = {150.0};
  options.seconds = 0.2;
  const LoadResult result = generator.OpenLoop(options);

  ASSERT_EQ(SeqsByLane(result, 1)[0], Iota(result.samples.size()));
  size_t rejected = 0;
  for (const LoadSample& sample : result.samples) {
    EXPECT_EQ(sample.window, 0);  // one window covers the whole run
    const bool reject = sample.seq % 3 == 2;
    EXPECT_EQ(sample.ok, !reject);
    EXPECT_EQ(sample.reason, reject ? infer::RejectReason::kQueueFull
                                    : infer::RejectReason::kNone);
    rejected += reject ? 1 : 0;
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(result.OkLatenciesMs().size(), result.samples.size() - rejected);
}

// A producer that falls behind (Submit blocks for two send periods) must
// not hide it: lag grows, and latency, stamped from the scheduled send,
// always includes the lag.
TEST(LoadGeneratorTest, LatencyRunsFromTheScheduledSendTime) {
  LoadGenerator generator([](const LoadRequest&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return Resolved(infer::RejectReason::kNone);
  });
  OpenLoopOptions options;
  options.lane_rps = {100.0};  // a send due every 10 ms
  options.seconds = 0.1;
  const LoadResult result = generator.OpenLoop(options);

  ASSERT_EQ(result.samples.size(), 10u);
  for (const LoadSample& sample : result.samples) {
    EXPECT_GE(sample.latency_ms, sample.lag_ms + 19.0) << sample.seq;
  }
  EXPECT_GT(result.samples.back().lag_ms, 50.0);
}

}  // namespace
}  // namespace d2stgnn
