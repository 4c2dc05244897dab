#ifndef D2STGNN_INFER_RETRY_H_
#define D2STGNN_INFER_RETRY_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/clock.h"
#include "common/rng.h"
#include "infer/batching_server.h"
#include "infer/fleet/fleet_server.h"

// Client-side retry with jittered exponential backoff (DESIGN.md §13).
//
// The serving core's typed rejections (FleetServer, and BatchingServer, its
// one-model front door) split into two classes: permanent
// (kBadRequest, kDeadlineExceeded, kShuttingDown — retrying cannot help)
// and transient (IsRetryableReject — the server asked the client to back
// off). SubmitWithRetry handles the second class the way a well-behaved
// client should: wait max(server retry_after_us hint, exponential backoff),
// jittered so a shed burst of clients does not resynchronize into the next
// burst, then resubmit.

namespace d2stgnn::infer {

/// Backoff schedule. Defaults give 1ms, 2ms, 4ms between four attempts.
struct RetryPolicy {
  int64_t max_attempts = 4;         ///< total tries, including the first
  int64_t initial_backoff_us = 1000;
  double backoff_multiplier = 2.0;
  int64_t max_backoff_us = 250000;  ///< cap on the exponential term
  /// Uniform jitter fraction in [0, 1): each delay is scaled by a factor in
  /// [1 - jitter, 1 + jitter). 0 disables jitter.
  double jitter = 0.2;
  uint64_t jitter_seed = 0;         ///< deterministic jitter stream
  /// Injected time source for the inter-attempt sleeps (null: RealClock()).
  /// Tests pass a FakeClock so backoff "waits" complete instantly.
  Clock* clock = nullptr;
};

/// The delay before retry number `attempt` (1-based: attempt 1 follows the
/// first rejection). Takes the max of the exponential schedule and the
/// server's retry_after_us hint, then applies jitter from `rng` (may be
/// null: no jitter). Exposed separately so tests can pin the schedule.
int64_t BackoffDelayUs(const RetryPolicy& policy, int64_t attempt,
                       int64_t server_hint_us, Rng* rng);

/// What SubmitWithRetry did.
struct RetryResult {
  Forecast forecast;      ///< the final answer (served, or the last reject)
  int64_t attempts = 0;   ///< submissions made (>= 1)
  int64_t backoff_us = 0; ///< total time slept between attempts
};

/// Submits `request`, retrying transient rejections per `policy` (sleeping
/// between attempts). Permanent rejections and served forecasts return
/// immediately. Blocks the calling thread.
RetryResult SubmitWithRetry(BatchingServer* server,
                            const ForecastRequest& request,
                            const RetryPolicy& policy = RetryPolicy());

/// The fleet flavor: submits to `model_id` on a FleetServer, with the same
/// transient-vs-permanent split (quota rejections are transient).
RetryResult SubmitWithRetry(FleetServer* server, const std::string& model_id,
                            const ForecastRequest& request,
                            const RetryPolicy& policy = RetryPolicy());

/// The retry loop itself, decoupled from any server type: `submit` performs
/// one attempt and returns the settled Forecast. Both SubmitWithRetry
/// overloads are thin wrappers over this.
RetryResult RetryWithBackoff(const std::function<Forecast()>& submit,
                             const RetryPolicy& policy = RetryPolicy());

}  // namespace d2stgnn::infer

#endif  // D2STGNN_INFER_RETRY_H_
