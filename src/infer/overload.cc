#include "infer/overload.h"

#include <algorithm>

#include "common/fault_injection.h"

namespace d2stgnn::infer {

namespace {

// EWMA smoothing factor: the weight of the newest batch.
constexpr double kEwmaAlpha = 0.2;

}  // namespace

const char* RejectReasonName(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone: return "none";
    case RejectReason::kBadRequest: return "bad_request";
    case RejectReason::kQueueFull: return "queue_full";
    case RejectReason::kRateLimited: return "rate_limited";
    case RejectReason::kOverloaded: return "overloaded";
    case RejectReason::kShedLowPriority: return "shed_low_priority";
    case RejectReason::kQuotaExceeded: return "quota_exceeded";
    case RejectReason::kDeadlineExceeded: return "deadline_exceeded";
    case RejectReason::kShuttingDown: return "shutting_down";
    case RejectReason::kCancelled: return "cancelled";
  }
  return "unknown";
}

bool IsRetryableReject(RejectReason reason) {
  switch (reason) {
    case RejectReason::kQueueFull:
    case RejectReason::kRateLimited:
    case RejectReason::kOverloaded:
    case RejectReason::kShedLowPriority:
    case RejectReason::kQuotaExceeded:
      return true;
    default:
      return false;
  }
}

AdmissionController::AdmissionController(const AdmissionOptions& options,
                                         Clock* clock)
    : options_(options),
      clock_(ClockOrReal(clock)),
      // A bucket starts full: bursts up to its capacity pass.
      tokens_(std::max(options.rate_rps, 1.0)) {}

AdmissionDecision AdmissionController::Admit(int64_t queue_depth,
                                             int64_t queue_capacity) {
  AdmissionDecision decision;

  // 1. Hard queue bound. The retry hint is the estimated time for the
  // dispatcher to work off the current queue; before any batch has been
  // observed it assumes a millisecond per request, so it is never zero.
  if (queue_capacity > 0 && queue_depth >= queue_capacity) {
    const double per_request_us =
        ewma_request_us_ > 0.0 ? ewma_request_us_ : 1000.0;
    decision.admitted = false;
    decision.reason = RejectReason::kQueueFull;
    decision.retry_after_us = static_cast<int64_t>(
        per_request_us * static_cast<double>(std::max<int64_t>(queue_depth, 1)));
    return decision;
  }

  // 2. Token bucket. Refill from elapsed wall time, then spend one token
  // per admitted request.
  if (options_.rate_rps > 0.0) {
    const SteadyTime now = clock_->Now();
    if (!bucket_primed_) {
      bucket_primed_ = true;
      last_refill_ = now;
    }
    const double elapsed_s =
        std::chrono::duration<double>(now - last_refill_).count();
    if (elapsed_s > 0.0) {
      tokens_ = std::min(std::max(options_.rate_rps, 1.0),
                         tokens_ + elapsed_s * options_.rate_rps);
      last_refill_ = now;
    }
    if (tokens_ < 1.0) {
      decision.admitted = false;
      decision.reason = RejectReason::kRateLimited;
      decision.retry_after_us = static_cast<int64_t>(
          (1.0 - tokens_) / options_.rate_rps * 1e6) + 1;
      return decision;
    }
    tokens_ -= 1.0;
  }

  return decision;
}

void AdmissionController::RecordBatch(int64_t batch_latency_us,
                                      int64_t batch_size) {
  if (batch_size <= 0 || batch_latency_us < 0) return;
  const double per_request =
      static_cast<double>(batch_latency_us) / static_cast<double>(batch_size);
  if (ewma_request_us_ <= 0.0) {
    ewma_request_us_ = per_request;  // seed with the first observation
  } else {
    ewma_request_us_ =
        kEwmaAlpha * per_request + (1.0 - kEwmaAlpha) * ewma_request_us_;
  }
}

const char* OverloadTierName(OverloadTier tier) {
  switch (tier) {
    case OverloadTier::kNormal: return "normal";
    case OverloadTier::kDegraded: return "degraded";
    case OverloadTier::kCapped: return "capped";
    case OverloadTier::kShedding: return "shedding";
  }
  return "unknown";
}

void OverloadGovernor::SetTier(OverloadTier next) {
  if (next == tier_) return;
  tier_ = next;
  ++transitions_;
  calm_ticks_ = 0;
}

OverloadTier OverloadGovernor::Observe(int64_t queue_depth,
                                       int64_t queue_capacity) {
  // Chaos seam: a scripted fault forces the harshest tier, so degrade-path
  // behavior is testable without building real queue pressure.
  if (fault::ConsumeFault("server.degrade")) {
    SetTier(OverloadTier::kShedding);
    return tier_;
  }
  if (queue_capacity <= 0) return tier_;  // unbounded: pressure undefined

  const double fraction = static_cast<double>(queue_depth) /
                          static_cast<double>(queue_capacity);
  OverloadTier target = OverloadTier::kNormal;
  if (fraction >= kShedWatermark) {
    target = OverloadTier::kShedding;
  } else if (fraction >= kCapWatermark) {
    target = OverloadTier::kCapped;
  } else if (fraction >= kDegradeWatermark) {
    target = OverloadTier::kDegraded;
  }

  if (target > tier_) {
    SetTier(target);  // escalation is immediate
  } else if (tier_ > OverloadTier::kNormal) {
    // Recovery is hysteretic: kRecoverTicks consecutive calm
    // observations step the tier down by one.
    if (fraction <= kRecoverWatermark) {
      if (++calm_ticks_ >= kRecoverTicks) {
        SetTier(static_cast<OverloadTier>(static_cast<int>(tier_) - 1));
      }
    } else {
      calm_ticks_ = 0;
    }
  }
  return tier_;
}

}  // namespace d2stgnn::infer
