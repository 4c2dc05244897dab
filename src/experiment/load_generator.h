#ifndef D2STGNN_EXPERIMENT_LOAD_GENERATOR_H_
#define D2STGNN_EXPERIMENT_LOAD_GENERATOR_H_

#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "infer/overload.h"
#include "infer/session.h"

// The one load protocol behind the serving numbers (DESIGN.md §9).
//
// Open loop: each lane (a tenant, or the one queue of a single-model
// server) gets a fixed send schedule, kept whether or not earlier requests
// have finished — that is what makes shedding observable. Each producer
// thread hands its futures to a paired harvester that resolves and stamps
// them. Latency runs from the *scheduled* send time, so a producer that
// falls behind cannot hide it; its lateness is also reported as lag.
//
// Closed loop: N producers each submit, wait, and submit again.

namespace d2stgnn::experiment {

/// What the submit callback is asked to send. `seq` is dense per lane, in
/// send order (closed loop: producer * requests_per_producer + i).
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
  double lag_ms = 0.0;      ///< actual send - scheduled send (closed: 0)
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

  /// `producers` threads each send `requests_per_producer` requests on
  /// lane 0, one at a time.
  LoadResult ClosedLoop(int64_t producers,
                        int64_t requests_per_producer) const;

 private:
  SubmitFn submit_;
};

/// The saturated serving rate of a session (back-to-back forwards of one
/// full batch, after warm-up): overload scenarios scale their offered load
/// by it, so the same spec saturates any host (or sanitizer).
struct Saturation {
  double rps = 0.0;       ///< requests per second at `batch_size`
  double batch_us = 0.0;  ///< mean latency of one batch forward

  /// `deadline_ms` when positive, else five batch latencies (>= 5 ms).
  int64_t DeadlineUs(int64_t deadline_ms) const;
};

/// Measures `session` at `batch_size` over windows drawn from `ring`.
/// False (with `*error`) when a forward fails.
bool CalibrateSaturation(infer::InferenceSession* session,
                         const std::vector<infer::ForecastRequest>& ring,
                         int64_t batch_size, Saturation* out,
                         std::string* error);

}  // namespace d2stgnn::experiment

#endif  // D2STGNN_EXPERIMENT_LOAD_GENERATOR_H_
