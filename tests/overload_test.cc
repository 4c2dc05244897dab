// Unit tests of the serving overload policies: the admission controller
// (queue bound, token bucket on an injected FakeClock with no sleeps,
// service-time EWMA), the degradation governor's immediate-escalate /
// hysteretic-recover state machine, and the client backoff schedule.

#include "infer/overload.h"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "infer/retry.h"

namespace d2stgnn {
namespace {

using infer::AdmissionController;
using infer::AdmissionDecision;
using infer::AdmissionOptions;
using infer::OverloadGovernor;
using infer::OverloadTier;
using infer::RejectReason;

TEST(RejectReasonTest, NamesAreStableAndRetryabilityIsTyped) {
  EXPECT_STREQ(infer::RejectReasonName(RejectReason::kQueueFull),
               "queue_full");
  EXPECT_STREQ(infer::RejectReasonName(RejectReason::kRateLimited),
               "rate_limited");
  EXPECT_STREQ(infer::RejectReasonName(RejectReason::kShedLowPriority),
               "shed_low_priority");
  EXPECT_STREQ(infer::RejectReasonName(RejectReason::kDeadlineExceeded),
               "deadline_exceeded");

  EXPECT_TRUE(infer::IsRetryableReject(RejectReason::kQueueFull));
  EXPECT_TRUE(infer::IsRetryableReject(RejectReason::kRateLimited));
  EXPECT_TRUE(infer::IsRetryableReject(RejectReason::kOverloaded));
  EXPECT_TRUE(infer::IsRetryableReject(RejectReason::kShedLowPriority));
  EXPECT_FALSE(infer::IsRetryableReject(RejectReason::kBadRequest));
  EXPECT_FALSE(infer::IsRetryableReject(RejectReason::kDeadlineExceeded));
  EXPECT_FALSE(infer::IsRetryableReject(RejectReason::kShuttingDown));
  EXPECT_FALSE(infer::IsRetryableReject(RejectReason::kNone));
}

TEST(AdmissionControllerTest, QueueBoundRejectsWithDrainShapedHint) {
  AdmissionController admission{AdmissionOptions{}};

  EXPECT_TRUE(admission.Admit(/*depth=*/3, /*capacity=*/4).admitted);

  AdmissionDecision full = admission.Admit(/*depth=*/4, /*capacity=*/4);
  EXPECT_FALSE(full.admitted);
  EXPECT_EQ(full.reason, RejectReason::kQueueFull);
  // No batch observed yet: the hint falls back to 1ms per queued request.
  EXPECT_EQ(full.retry_after_us, 4000);

  // Once batches are observed, the hint tracks the EWMA drain estimate.
  admission.RecordBatch(/*batch_latency_us=*/800, /*batch_size=*/4);  // 200/rq
  full = admission.Admit(/*depth=*/4, /*capacity=*/4);
  EXPECT_EQ(full.retry_after_us, 800);

  // Unbounded capacity never trips the bound.
  EXPECT_TRUE(admission.Admit(/*depth=*/1 << 20, /*capacity=*/0).admitted);
}

TEST(AdmissionControllerTest, TokenBucketRefillsFromInjectedClock) {
  AdmissionOptions options;
  options.rate_rps = 2.0;  // one token per 500ms; the bucket holds 2
  FakeClock clock;
  AdmissionController admission{options, &clock};

  // The bucket starts full: the burst passes, the next is limited.
  EXPECT_TRUE(admission.Admit(0, 0).admitted);
  EXPECT_TRUE(admission.Admit(0, 0).admitted);
  AdmissionDecision limited = admission.Admit(0, 0);
  EXPECT_FALSE(limited.admitted);
  EXPECT_EQ(limited.reason, RejectReason::kRateLimited);
  // An empty bucket refills a whole token in 500ms; the hint says so.
  EXPECT_GT(limited.retry_after_us, 490'000);
  EXPECT_LE(limited.retry_after_us, 510'000);

  // 500ms later (by the injected clock) one token is back.
  clock.Advance(std::chrono::milliseconds(500));
  EXPECT_TRUE(admission.Admit(0, 0).admitted);
  EXPECT_FALSE(admission.Admit(0, 0).admitted);

  // A long idle period refills only up to the burst cap, not beyond.
  clock.Advance(std::chrono::seconds(60));
  EXPECT_TRUE(admission.Admit(0, 0).admitted);
  EXPECT_TRUE(admission.Admit(0, 0).admitted);
  EXPECT_FALSE(admission.Admit(0, 0).admitted);
}

// The EWMA of per-request service time (alpha 0.2) shapes the retry hints;
// it never refuses work by itself.
TEST(AdmissionControllerTest, EwmaTracksPerRequestServiceTime) {
  AdmissionController admission{AdmissionOptions{}};
  EXPECT_DOUBLE_EQ(admission.ewma_request_us(), 0.0);

  // The first batch seeds the estimate.
  admission.RecordBatch(/*batch_latency_us=*/3200, /*batch_size=*/4);  // 800
  EXPECT_DOUBLE_EQ(admission.ewma_request_us(), 800.0);

  // 0.2 * 3000 + 0.8 * 800 = 1240: a slow batch raises the estimate, and
  // admission stays open.
  admission.RecordBatch(/*batch_latency_us=*/12000, /*batch_size=*/4);
  EXPECT_DOUBLE_EQ(admission.ewma_request_us(), 1240.0);
  EXPECT_TRUE(admission.Admit(0, 0).admitted);

  // Fast batches pull it back down.
  admission.RecordBatch(/*batch_latency_us=*/400, /*batch_size=*/4);  // 1012
  EXPECT_DOUBLE_EQ(admission.ewma_request_us(), 1012.0);
  admission.RecordBatch(/*batch_latency_us=*/400, /*batch_size=*/4);  // 829.6
  EXPECT_DOUBLE_EQ(admission.ewma_request_us(), 829.6);

  // Empty or negative observations are ignored.
  admission.RecordBatch(/*batch_latency_us=*/400, /*batch_size=*/0);
  admission.RecordBatch(/*batch_latency_us=*/-1, /*batch_size=*/4);
  EXPECT_DOUBLE_EQ(admission.ewma_request_us(), 829.6);
}

// Queue depths, out of a capacity of 100, at the governor's watermarks.
int64_t DepthAt(double watermark) { return std::llround(watermark * 100.0); }

TEST(OverloadGovernorTest, EscalatesImmediatelyPerWatermark) {
  const int64_t degrade = DepthAt(OverloadGovernor::kDegradeWatermark);
  const int64_t cap = DepthAt(OverloadGovernor::kCapWatermark);
  const int64_t shed = DepthAt(OverloadGovernor::kShedWatermark);
  ASSERT_LT(degrade, cap);
  ASSERT_LT(cap, shed);
  ASSERT_LT(shed, 100);

  OverloadGovernor governor;
  EXPECT_EQ(governor.tier(), OverloadTier::kNormal);
  EXPECT_EQ(governor.Observe(degrade - 1, 100), OverloadTier::kNormal);
  EXPECT_EQ(governor.Observe(degrade, 100), OverloadTier::kDegraded);
  EXPECT_EQ(governor.Observe(cap - 1, 100), OverloadTier::kDegraded);
  EXPECT_EQ(governor.Observe(cap, 100), OverloadTier::kCapped);
  EXPECT_EQ(governor.Observe(shed - 1, 100), OverloadTier::kCapped);
  EXPECT_EQ(governor.Observe(shed, 100), OverloadTier::kShedding);
  EXPECT_EQ(governor.transitions(), 3);

  // One hot observation can skip tiers entirely.
  OverloadGovernor fresh;
  EXPECT_EQ(fresh.Observe(shed + 1, 100), OverloadTier::kShedding);
  EXPECT_EQ(fresh.transitions(), 1);
}

TEST(OverloadGovernorTest, RecoveryIsHystereticOneTierAtATime) {
  const int64_t ticks = OverloadGovernor::kRecoverTicks;
  const int64_t calm = DepthAt(OverloadGovernor::kRecoverWatermark);
  // Above the recover watermark, below the degrade one.
  const int64_t warm = DepthAt(OverloadGovernor::kDegradeWatermark) - 1;
  ASSERT_LT(calm, warm);

  OverloadGovernor governor;
  ASSERT_EQ(governor.Observe(100, 100), OverloadTier::kShedding);

  // Mid-pressure observations (above the recover watermark) do not
  // recover, no matter how many arrive.
  for (int64_t i = 0; i < 10 * ticks; ++i) {
    EXPECT_EQ(governor.Observe(warm, 100), OverloadTier::kShedding);
  }
  // Calm observations at or below the recover watermark step down one tier
  // per kRecoverTicks run — never straight to kNormal.
  for (int64_t i = 1; i < ticks; ++i) {
    EXPECT_EQ(governor.Observe(calm, 100), OverloadTier::kShedding)
        << "calm " << i;
  }
  EXPECT_EQ(governor.Observe(calm, 100), OverloadTier::kCapped);
  // A warm blip resets the calm streak.
  for (int64_t i = 1; i < ticks; ++i) {
    EXPECT_EQ(governor.Observe(calm, 100), OverloadTier::kCapped);
  }
  EXPECT_EQ(governor.Observe(warm, 100), OverloadTier::kCapped);  // reset
  for (int64_t i = 1; i < ticks; ++i) {
    EXPECT_EQ(governor.Observe(calm, 100), OverloadTier::kCapped);
  }
  EXPECT_EQ(governor.Observe(calm, 100), OverloadTier::kDegraded);
  for (int64_t i = 1; i < ticks; ++i) {
    EXPECT_EQ(governor.Observe(calm, 100), OverloadTier::kDegraded);
  }
  EXPECT_EQ(governor.Observe(calm, 100), OverloadTier::kNormal);
  EXPECT_EQ(governor.transitions(), 4);
}

TEST(OverloadGovernorTest, InjectedDegradeFaultForcesShedding) {
  fault::FaultScript script;
  script.kind = fault::FaultKind::kErrno;
  fault::ArmFaultPoint("server.degrade", script);

  OverloadGovernor governor;
  // Even an unbounded queue (capacity 0, pressure undefined) degrades when
  // the chaos seam fires.
  EXPECT_EQ(governor.Observe(0, 0), OverloadTier::kShedding);
  EXPECT_EQ(governor.transitions(), 1);
  fault::DisarmAllFaultPoints();

  // Without the fault, unbounded pressure keeps whatever tier it had.
  EXPECT_EQ(governor.Observe(0, 0), OverloadTier::kShedding);
}

TEST(BackoffDelayTest, ExponentialCappedHintedAndJittered) {
  infer::RetryPolicy policy;
  policy.initial_backoff_us = 1000;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_us = 3000;
  policy.jitter = 0.0;

  // No jitter: the schedule is exact. 1ms, 2ms, then capped at 3ms.
  EXPECT_EQ(infer::BackoffDelayUs(policy, 1, 0, nullptr), 1000);
  EXPECT_EQ(infer::BackoffDelayUs(policy, 2, 0, nullptr), 2000);
  EXPECT_EQ(infer::BackoffDelayUs(policy, 3, 0, nullptr), 3000);
  EXPECT_EQ(infer::BackoffDelayUs(policy, 9, 0, nullptr), 3000);

  // A larger server hint dominates the exponential term.
  EXPECT_EQ(infer::BackoffDelayUs(policy, 1, 50'000, nullptr), 50'000);
  // A smaller one does not shrink it.
  EXPECT_EQ(infer::BackoffDelayUs(policy, 3, 10, nullptr), 3000);

  // Jitter stays inside +/- the configured fraction and is deterministic
  // for a given stream.
  policy.jitter = 0.25;
  Rng rng(123);
  for (int i = 0; i < 100; ++i) {
    const int64_t delay = infer::BackoffDelayUs(policy, 2, 0, &rng);
    EXPECT_GE(delay, 1500);
    EXPECT_LE(delay, 2500);
  }
  Rng replay_a(7);
  Rng replay_b(7);
  EXPECT_EQ(infer::BackoffDelayUs(policy, 2, 0, &replay_a),
            infer::BackoffDelayUs(policy, 2, 0, &replay_b));
}

}  // namespace
}  // namespace d2stgnn
