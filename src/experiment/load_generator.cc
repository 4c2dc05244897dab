#include "experiment/load_generator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

namespace d2stgnn::experiment {

namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

Clock::time_point At(Clock::time_point start, double offset_s) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(offset_s));
}

struct InFlight {
  LoadSample sample;  ///< lane, seq, window and lag filled at send
  Clock::time_point scheduled;
  std::future<infer::Forecast> future;
};

// One producer's hand-off to its paired harvester.
struct Channel {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> pending;
  bool done = false;
  std::vector<LoadSample> samples;  ///< the harvester's, until it is joined
};

// Resolves the channel's futures in submission order until the producer is
// done and nothing is pending.
void Harvest(Channel* channel) {
  for (;;) {
    InFlight in;
    {
      std::unique_lock<std::mutex> lock(channel->mu);
      channel->cv.wait(lock, [channel] {
        return channel->done || !channel->pending.empty();
      });
      if (channel->pending.empty()) return;
      in = std::move(channel->pending.front());
      channel->pending.pop_front();
    }
    const infer::Forecast forecast = in.future.get();
    in.sample.ok = forecast.ok;
    in.sample.reason = forecast.reason;
    in.sample.latency_ms = MsBetween(in.scheduled, Clock::now());
    channel->samples.push_back(in.sample);
  }
}

}  // namespace

std::vector<double> LoadResult::OkLatenciesMs(int64_t lane) const {
  std::vector<double> latencies;
  for (const LoadSample& sample : samples) {
    if (sample.ok && (lane < 0 || sample.lane == lane)) {
      latencies.push_back(sample.latency_ms);
    }
  }
  return latencies;
}

LoadResult LoadGenerator::OpenLoop(const OpenLoopOptions& options) const {
  const int64_t lanes = static_cast<int64_t>(options.lane_rps.size());
  const int64_t producers = std::max<int64_t>(1, options.producers_per_lane);
  const int64_t windows = std::max<int64_t>(1, options.windows);
  const double window_s = options.seconds / static_cast<double>(windows);
  std::vector<std::atomic<int64_t>> next_seq(static_cast<size_t>(lanes));
  std::vector<std::unique_ptr<Channel>> channels;
  std::vector<std::thread> threads;

  const Clock::time_point start = Clock::now();
  for (int64_t lane = 0; lane < lanes; ++lane) {
    const double rate = options.lane_rps[static_cast<size_t>(lane)];
    if (rate <= 0.0) continue;
    for (int64_t p = 0; p < producers; ++p) {
      // Producer p of a lane sends at (p + k * producers + lane / lanes) /
      // rate: together the lane's producers cover an even grid of 1/rate
      // steps, and the lanes are offset from one another within a step.
      const double period_s = static_cast<double>(producers) / rate;
      const double first_s =
          (static_cast<double>(p) +
           static_cast<double>(lane) / static_cast<double>(lanes)) /
          rate;
      channels.push_back(std::make_unique<Channel>());
      Channel* channel = channels.back().get();
      threads.emplace_back([&, this, lane, channel, period_s, first_s] {
        for (int64_t k = 0;; ++k) {
          const double at_s = first_s + static_cast<double>(k) * period_s;
          if (at_s >= options.seconds) break;
          InFlight in;
          in.scheduled = At(start, at_s);
          std::this_thread::sleep_until(in.scheduled);
          in.sample.lane = lane;
          in.sample.seq = next_seq[static_cast<size_t>(lane)].fetch_add(1);
          in.sample.window = std::min<int64_t>(
              windows - 1, static_cast<int64_t>(at_s / window_s));
          in.sample.lag_ms = MsBetween(in.scheduled, Clock::now());
          in.future = submit_(LoadRequest{lane, in.sample.seq});
          {
            std::lock_guard<std::mutex> lock(channel->mu);
            channel->pending.push_back(std::move(in));
          }
          channel->cv.notify_one();
        }
        {
          std::lock_guard<std::mutex> lock(channel->mu);
          channel->done = true;
        }
        channel->cv.notify_one();
      });
      threads.emplace_back([channel] { Harvest(channel); });
    }
  }

  if (options.on_tick) {
    const Clock::time_point end = At(start, options.seconds);
    for (Clock::time_point now = Clock::now(); now < end;
         now = Clock::now()) {
      options.on_tick(MsBetween(start, now) / 1000.0);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  for (std::thread& thread : threads) thread.join();

  LoadResult result;
  result.elapsed_s = MsBetween(start, Clock::now()) / 1000.0;
  for (const std::unique_ptr<Channel>& channel : channels) {
    result.samples.insert(result.samples.end(), channel->samples.begin(),
                          channel->samples.end());
  }
  return result;
}

}  // namespace d2stgnn::experiment
