#ifndef D2STGNN_INFER_FLEET_FLEET_SERVER_H_
#define D2STGNN_INFER_FLEET_FLEET_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "infer/fleet/fleet.h"
#include "infer/overload.h"
#include "infer/session.h"
#include "infer/session_host.h"

// The serving core: one dispatcher, one or many models (DESIGN.md §9,
// §13, §14).
//
// The FleetServer routes ForecastRequests by model id into per-model
// micro-batch queues and dispatches them from a single thread, so dispatch
// order is a real scheduling decision instead of an accident of N
// independent servers racing for CPU. A batch never mixes models — plans
// are shape- and weight-specialized — so each dispatch picks one model and
// coalesces only that model's queue. Single-model serving is the one-lane
// case: BatchingServer (infer/batching_server.h) is a front door that
// registers one model and forwards here, so there is exactly one
// dispatcher, one deadline sweep and one set of reject counters.
//
// Admission, every rejection typed with a retry hint:
//
//   shutdown → validation (kBadRequest) → shared OverloadGovernor tier
//   (kShedding refuses low-priority requests and the lowest-priority SLO
//   class) → shared AdmissionController (hard bound on the *total* queue)
//   → FleetArbiter quota (kQuotaExceeded once the shared queue is
//   contended and this model is over its weighted share) → per-model
//   AdmissionController (tenant token bucket) → deadline stamp → enqueue.
//
// Dispatch: expired deadlines are swept across all lanes first; a lane is
// "ready" when its batch is full or its oldest request has aged past the
// (SLO-tightened, tier-shrunk) flush timer; the FleetArbiter picks among
// ready lanes by strict SLO priority, then weighted-fair virtual time.
// Degrade tiers act per lane: kDegraded divides the flush timer by 4,
// kCapped halves it again and caps batches at the largest planned size.
//
// Hot reload: host(model_id) exposes a per-model SessionHost, so one
// CheckpointReloader per model stages and swaps into exactly one lane;
// in-flight batches pin the session they started with.
//
// Chaos fault points: "server.admit" (a typed, retryable admission
// failure), "server.deadline" (a request's budget counts as spent) and
// "infer.slow_consumer" (a 20 ms stall after dequeuing a batch).

namespace d2stgnn::infer {

/// Fleet-wide serving knobs (per-model knobs live in FleetModelOptions).
struct FleetOptions {
  /// Hard bound on the *sum* of all per-model queues (<= 0: unbounded,
  /// which also disables degrade tiers and quotas).
  int64_t max_queue_depth = 4096;
  /// Injected time source (null: RealClock()).
  Clock* clock = nullptr;
};

/// Per-model traffic counters (a consistent snapshot). The one per-lane
/// stats type: BatchingServerStats is an alias of it.
struct FleetModelStats {
  int64_t submitted = 0;        ///< accepted into the queue
  int64_t rejected = 0;         ///< refused at Submit (sum of rejected_*)
  int64_t completed = 0;        ///< resolved with a session result
  int64_t cancelled = 0;        ///< resolved kCancelled at shutdown
  int64_t batches = 0;          ///< dispatched forwards
  int64_t full_flushes = 0;     ///< batches flushed at the batch cap
  int64_t timeout_flushes = 0;  ///< batches flushed by the max-wait timer
  int64_t shutdown_flushes = 0; ///< batches flushed while draining
  int64_t max_queue_depth_seen = 0;

  // Typed shed accounting (DESIGN.md §13). `rejected` is their sum.
  int64_t rejected_bad_request = 0;
  int64_t rejected_queue_full = 0;
  int64_t rejected_rate_limited = 0;
  int64_t rejected_overloaded = 0;    ///< injected "server.admit" faults
  int64_t rejected_low_priority = 0;  ///< kShedding tier refusals
  int64_t rejected_quota = 0;         ///< kQuotaExceeded (fleet arbitration)
  int64_t rejected_shutdown = 0;
  /// Accepted requests dropped in the queue when their deadline passed
  /// (never dispatched; not part of `rejected`).
  int64_t expired_deadlines = 0;

  int64_t session_swaps = 0;      ///< successful SwapSession calls
  int64_t queue_depth = 0;        ///< at snapshot time
  double ewma_request_us = 0.0;   ///< smoothed per-request service time

  // Copied from the fleet snapshot: the tier is shared by every lane.
  OverloadTier tier = OverloadTier::kNormal;  ///< current degrade tier
  int64_t degrade_transitions = 0;            ///< tier changes so far
};

/// Fleet-wide snapshot. The totals are sums over `models` (computed at
/// snapshot time, so they cannot drift from the per-model counters);
/// tier / transitions / unknown-model rejects are fleet-level.
struct FleetStats {
  int64_t submitted = 0;
  int64_t rejected = 0;
  int64_t completed = 0;
  int64_t cancelled = 0;
  int64_t batches = 0;
  int64_t expired_deadlines = 0;
  int64_t session_swaps = 0;

  int64_t rejected_unknown_model = 0;  ///< routed to no lane
  int64_t max_total_queue_depth_seen = 0;
  OverloadTier tier = OverloadTier::kNormal;
  int64_t degrade_transitions = 0;
  double ewma_request_us = 0.0;  ///< shared admission EWMA

  std::map<std::string, FleetModelStats> models;
};

/// One dispatcher thread serving every model registered in a ModelFleet.
class FleetServer {
 public:
  /// Snapshots `fleet`'s membership (register every model first) and
  /// starts the dispatcher. The fleet must outlive the server; live
  /// sessions are kept in sync with the fleet registry across swaps.
  FleetServer(ModelFleet* fleet, const FleetOptions& options);

  /// Graceful drain-and-join (Shutdown(true)).
  ~FleetServer();

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  /// Enqueues one request for `model_id`. The future always becomes
  /// ready: with a prediction, or with ok=false and a typed RejectReason.
  std::future<Forecast> Submit(const std::string& model_id,
                               ForecastRequest request);

  /// Atomically replaces `model_id`'s session (hot reload). Only this
  /// model's lane is touched; when its options request warmup, `next` is
  /// warmed before the swap (already-planned sizes are not re-warmed).
  void SwapSession(const std::string& model_id,
                   std::shared_ptr<InferenceSession> next);

  /// The model's live session (nullptr for unknown ids).
  std::shared_ptr<InferenceSession> session(const std::string& model_id) const;

  /// The per-model SessionHost a CheckpointReloader targets. Stable for
  /// the server's lifetime; nullptr for unknown ids.
  SessionHost* host(const std::string& model_id);

  /// Stops accepting requests and joins the dispatcher. drain=true serves
  /// every queued request (all lanes); drain=false cancels them.
  /// Idempotent; the first call's drain mode wins.
  void Shutdown(bool drain = true);

  /// Total requests queued across all models.
  int64_t QueueDepth() const;

  FleetStats stats() const;

 private:
  struct Pending {
    ForecastRequest request;
    std::promise<Forecast> promise;
    SteadyTime enqueued;
    SteadyTime deadline;
    bool has_deadline = false;
  };

  /// Adapts one lane to the SessionHost interface for CheckpointReloader.
  class LaneHost : public SessionHost {
   public:
    LaneHost() = default;
    void Bind(FleetServer* server, std::string model_id, int64_t batch_size) {
      server_ = server;
      model_id_ = std::move(model_id);
      max_batch_size_ = batch_size;
    }
    void SwapSession(std::shared_ptr<InferenceSession> next) override {
      server_->SwapSession(model_id_, std::move(next));
    }
    int64_t max_batch_size() const override { return max_batch_size_; }

   private:
    FleetServer* server_ = nullptr;
    std::string model_id_;
    int64_t max_batch_size_ = 0;
  };

  struct Lane {
    FleetModelOptions options;
    int64_t base_wait_us = 0;  ///< max_wait_us after the SLO p99 cap
    std::shared_ptr<InferenceSession> session;
    int64_t plan_cap = 0;
    std::deque<Pending> queue;
    std::unique_ptr<AdmissionController> admission;
    FleetModelStats stats;
    LaneHost host;
  };

  void DispatcherLoop();
  int64_t TotalDepthLocked() const;
  int64_t EffectiveWaitUs(const Lane& lane, OverloadTier tier) const;
  int64_t EffectiveBatchCap(const Lane& lane, OverloadTier tier) const;
  /// Warms `session` at WarmupBatchSizes(lane max), skipping sizes that
  /// already have a plan, and returns the largest planned size.
  int64_t WarmLane(const Lane& lane, InferenceSession* session) const;
  /// Collects expired entries across all lanes (attributing per-lane
  /// stats). Requires mu_; the caller resolves the result unlocked.
  std::deque<Pending> TakeExpiredLocked(SteadyTime now);
  void CountRejectLocked(Lane* lane, RejectReason reason);

  FleetOptions options_;
  ModelFleet* fleet_;
  Clock* clock_;
  /// The lowest-ranked SLO priority in the fleet: at tier kShedding these
  /// models' requests are refused alongside low-priority requests — but
  /// only when the fleet actually has more than one priority class
  /// (shedding *every* model would be worse than the overload).
  int64_t worst_slo_priority_ = 0;
  bool slo_shed_enabled_ = false;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, std::unique_ptr<Lane>> lanes_;  ///< guarded by mu_
  std::vector<std::string> ids_;  ///< registration order (immutable)
  FleetArbiter arbiter_;          ///< guarded by mu_
  bool shutdown_ = false;
  bool drain_ = true;
  int64_t max_total_depth_seen_ = 0;
  int64_t rejected_unknown_model_ = 0;
  AdmissionController shared_admission_;  ///< guarded by mu_
  OverloadGovernor governor_;             ///< guarded by mu_
  OverloadTier tier_ = OverloadTier::kNormal;
  int64_t degrade_transitions_ = 0;

  std::thread dispatcher_;
};

}  // namespace d2stgnn::infer

#endif  // D2STGNN_INFER_FLEET_FLEET_SERVER_H_
