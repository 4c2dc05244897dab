#ifndef D2STGNN_EXPERIMENT_LOAD_GENERATOR_H_
#define D2STGNN_EXPERIMENT_LOAD_GENERATOR_H_

#include <cstdint>
#include <functional>
#include <future>
#include <utility>
#include <vector>

#include "infer/overload.h"
#include "infer/session.h"

// The open-loop load protocol of the serving example and the fleet chaos
// test (DESIGN.md §9): each lane (a tenant, or the one queue of a single-model
// server) gets a fixed send schedule, kept whether or not earlier requests
// have finished — that is what makes shedding observable. Each producer
// thread hands its futures to a paired harvester that resolves and stamps
// them. Latency runs from the *scheduled* send time, so a producer that
// falls behind cannot hide it; its lateness is also reported as lag.

namespace d2stgnn::experiment {

/// What the submit callback is asked to send. `seq` is dense per lane, in
/// send order.
struct LoadRequest {
  int64_t lane = 0;
  int64_t seq = 0;
};

/// One resolved request.
struct LoadSample {
  int64_t lane = 0;
  int64_t seq = 0;
  int64_t window = 0;  ///< trajectory window of the scheduled send time
  bool ok = false;
  infer::RejectReason reason = infer::RejectReason::kNone;
  double latency_ms = 0.0;  ///< scheduled send -> resolved
  double lag_ms = 0.0;      ///< actual send - scheduled send
};

struct LoadResult {
  /// Every request sent, each harvested exactly once; grouped by lane, in
  /// send order within a producer.
  std::vector<LoadSample> samples;
  double elapsed_s = 0.0;  ///< start -> last request resolved

  /// Latencies of the ok samples of `lane` (-1: every lane).
  std::vector<double> OkLatenciesMs(int64_t lane = -1) const;
};

struct OpenLoopOptions {
  std::vector<double> lane_rps;    ///< offered rate of each lane
  int64_t producers_per_lane = 1;  ///< threads splitting a lane's rate
  double seconds = 1.0;            ///< sends are scheduled in [0, seconds)
  int64_t windows = 1;             ///< equal trajectory windows of the run
  /// Called about every 10 ms on the calling thread while sends are due,
  /// with the seconds since the start (mid-run events, tier polling).
  std::function<void(double elapsed_s)> on_tick;
};

class LoadGenerator {
 public:
  /// `submit` sends one request and returns its future. It is called
  /// concurrently from every producer thread.
  using SubmitFn =
      std::function<std::future<infer::Forecast>(const LoadRequest&)>;

  explicit LoadGenerator(SubmitFn submit) : submit_(std::move(submit)) {}

  /// Sends each lane's schedule and returns once every future resolved.
  LoadResult OpenLoop(const OpenLoopOptions& options) const;

 private:
  SubmitFn submit_;
};

}  // namespace d2stgnn::experiment

#endif  // D2STGNN_EXPERIMENT_LOAD_GENERATOR_H_
