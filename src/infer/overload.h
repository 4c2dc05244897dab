#ifndef D2STGNN_INFER_OVERLOAD_H_
#define D2STGNN_INFER_OVERLOAD_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "common/clock.h"

// Overload protection for the serving stack (DESIGN.md §13).
//
// A forecast delivered after its window is worthless, so a saturated server
// must shed early and cheaply rather than queue unboundedly and answer
// late. Two small, externally-synchronized policy classes implement that
// (the serving core, FleetServer, calls both under its queue mutex):
//
//   * AdmissionController — the gate in front of the bounded queue. Rejects
//     with a *typed* reason (so clients can tell "back off and retry" from
//     "give up") and a retry_after_us hint: the hard queue bound and a
//     token-bucket rate limit. It also keeps an EWMA of the per-request
//     service time, which shapes the drain-time retry hints.
//
//   * OverloadGovernor — graceful-degradation tiers driven by queue
//     pressure. Escalation is immediate (one hot observation bumps the
//     tier); recovery is hysteretic (the queue must stay below a low
//     watermark for kRecoverTicks consecutive observations, and tiers
//     step down one at a time), so a server hovering at a threshold does
//     not flap between policies. What each tier *does* — shrink the batch
//     timer, cap batches to planned sizes, shed low-priority work — lives
//     in the FleetServer; the governor only decides the tier.
//
// The fault point "server.degrade" forces the governor to kShedding, so
// chaos runs can script the worst tier without real pressure.

namespace d2stgnn::infer {

/// Why a request was not served. Carried by Forecast::reason so callers can
/// branch without parsing error strings.
enum class RejectReason {
  kNone = 0,          ///< served (Forecast::ok)
  kBadRequest,        ///< malformed; retrying the same payload cannot help
  kQueueFull,         ///< bounded queue at capacity
  kRateLimited,       ///< token bucket empty
  kOverloaded,        ///< admission-path failure (the "server.admit" fault)
  kShedLowPriority,   ///< degrade tier kShedding refused low-priority work
  kQuotaExceeded,     ///< model over its fair share of a contended fleet
                      ///< queue (infer/fleet); other tenants stay healthy
  kDeadlineExceeded,  ///< expired in the queue; never dispatched
  kShuttingDown,      ///< submitted after Shutdown
  kCancelled,         ///< queued at a non-drain Shutdown
};

/// Stable lowercase name ("queue_full", "rate_limited", ...).
const char* RejectReasonName(RejectReason reason);

/// True for rejections worth retrying after a backoff (kQueueFull,
/// kRateLimited, kOverloaded, kShedLowPriority, kQuotaExceeded). Deadline
/// misses are not retryable: the window the client asked about has aged
/// past its budget.
bool IsRetryableReject(RejectReason reason);

/// Two-level priority for load shedding: under sustained overload (tier
/// kShedding) low-priority requests are refused at admission so the
/// capacity that remains serves the high-priority stream.
enum class RequestPriority { kHigh = 0, kLow = 1 };

/// Admission-gate knobs. A default-constructed controller only enforces
/// the queue bound.
struct AdmissionOptions {
  /// Token-bucket refill rate in requests/second (<= 0: no rate limit).
  /// The bucket holds max(rate_rps, 1) tokens.
  double rate_rps = 0.0;
};

/// The outcome of one admission check.
struct AdmissionDecision {
  bool admitted = true;
  RejectReason reason = RejectReason::kNone;
  /// How long the client should wait before retrying (a hint: estimated
  /// queue drain or token refill time). 0 when admitted.
  int64_t retry_after_us = 0;
};

/// The gate in front of the bounded queue. Externally synchronized: the
/// server calls Admit / RecordBatch under its own mutex.
class AdmissionController {
 public:
  /// `clock` is the injectable time source for token-bucket refill (null:
  /// the process RealClock()). Tests pass a FakeClock and advance it
  /// instead of threading `now` parameters through every call.
  explicit AdmissionController(const AdmissionOptions& options,
                               Clock* clock = nullptr);

  /// Decides one submission given the current queue depth and the hard
  /// capacity (`queue_capacity` <= 0 means unbounded).
  AdmissionDecision Admit(int64_t queue_depth, int64_t queue_capacity);

  /// Feeds one dispatched batch into the EWMA service-time estimate
  /// (alpha 0.2).
  void RecordBatch(int64_t batch_latency_us, int64_t batch_size);

  /// Smoothed per-request service time (microseconds; 0 before any batch).
  double ewma_request_us() const { return ewma_request_us_; }

 private:
  AdmissionOptions options_;
  Clock* clock_;
  double tokens_ = 0.0;
  SteadyTime last_refill_{};
  bool bucket_primed_ = false;
  double ewma_request_us_ = 0.0;
};

/// Graceful-degradation tiers, mildest to harshest. Ordered: comparisons
/// like `tier >= kCapped` select "this tier or worse".
enum class OverloadTier {
  kNormal = 0,    ///< full batching window, full batch sizes
  kDegraded = 1,  ///< shrink max_wait_us: flush sooner, cut queueing delay
  kCapped = 2,    ///< also cap batches to the largest *planned* size, so
                  ///< every dispatch replays a captured plan (no eager
                  ///< fallback burning extra CPU mid-overload)
  kShedding = 3,  ///< also refuse low-priority work at admission
};

/// Stable lowercase name ("normal", "degraded", "capped", "shedding").
const char* OverloadTierName(OverloadTier tier);

/// Decides the degradation tier from queue pressure. Externally
/// synchronized (called under the server mutex on every Submit and flush).
class OverloadGovernor {
 public:
  // Watermarks are fractions of the queue capacity.
  static constexpr double kDegradeWatermark = 0.50;  ///< => >= kDegraded
  static constexpr double kCapWatermark = 0.75;      ///< => >= kCapped
  static constexpr double kShedWatermark = 0.90;     ///< => kShedding
  /// Hysteresis: recovery requires depth at or below this fraction...
  static constexpr double kRecoverWatermark = 0.25;
  /// ...for this many consecutive observations, and steps down one tier at
  /// a time.
  static constexpr int64_t kRecoverTicks = 8;

  /// Feeds one queue observation and returns the (possibly changed) tier.
  /// With an unbounded queue (capacity <= 0) pressure is undefined and the
  /// tier stays kNormal unless the "server.degrade" fault point forces it.
  OverloadTier Observe(int64_t queue_depth, int64_t queue_capacity);

  OverloadTier tier() const { return tier_; }

  /// Tier changes (either direction) since construction.
  int64_t transitions() const { return transitions_; }

 private:
  void SetTier(OverloadTier next);

  OverloadTier tier_ = OverloadTier::kNormal;
  int64_t calm_ticks_ = 0;
  int64_t transitions_ = 0;
};

}  // namespace d2stgnn::infer

#endif  // D2STGNN_INFER_OVERLOAD_H_
