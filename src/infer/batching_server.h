#ifndef D2STGNN_INFER_BATCHING_SERVER_H_
#define D2STGNN_INFER_BATCHING_SERVER_H_

#include <cstdint>
#include <future>
#include <memory>

#include "infer/fleet/fleet.h"
#include "infer/fleet/fleet_server.h"
#include "infer/overload.h"
#include "infer/session.h"
#include "infer/session_host.h"

// Single-model micro-batching server (DESIGN.md §9, §13).
//
// Concurrent producers Submit() single-window requests and get futures; a
// dispatcher thread coalesces queued requests into batches and runs them
// through one InferenceSession forward. It flushes as soon as
// max_batch_size requests wait (full flush), or once the oldest request has
// waited max_wait_us (timeout flush), so sparse traffic never stalls.
//
// A BatchingServer is a one-lane FleetServer (infer/fleet/fleet_server.h):
// it registers its session as the only model of a private ModelFleet and
// forwards every call. Admission (bounded queue, token bucket),
// deadlines, degrade tiers, hot swaps, shutdown and the stats are the
// fleet's, so there is one dispatcher to reason about. Every future
// resolves: with a prediction, or with ok=false and a typed RejectReason
// whose error text carries its context (e.g. "queue full (depth 2/2,
// active batch 1)"). Shutdown is graceful: drain serves everything
// accepted, cancel resolves it as kCancelled, and Submit afterwards
// resolves immediately as kShuttingDown.

namespace d2stgnn::infer {

/// Coalescing, backpressure, and overload knobs.
struct BatchingOptions {
  /// Largest batch one forward serves (also the warm-up size).
  int64_t max_batch_size = 8;
  /// Longest a queued request may wait for its batch to fill before a
  /// partial batch is flushed (shrunk under degradation tiers).
  int64_t max_wait_us = 2000;
  /// Submit rejects once this many requests are queued (<= 0: unbounded;
  /// this also disables the queue-pressure degrade tiers).
  int64_t max_queue_depth = 4096;
  /// Run session warm-up forwards at WarmupBatchSizes(max_batch_size) — the
  /// powers of two below it, then the max — on construction (and on every
  /// SwapSession), so the first real requests already hit captured plans
  /// and the buffer pool.
  bool warmup = true;
  /// The lane's token bucket (FleetModelOptions::admission).
  AdmissionOptions admission;
};

/// Counters describing server traffic: the one lane's FleetModelStats.
using BatchingServerStats = FleetModelStats;

/// The front door for serving one (swappable) InferenceSession. Implements
/// SessionHost so a CheckpointReloader can target it directly.
class BatchingServer : public SessionHost {
 public:
  /// Borrows `session` (must outlive the server) and starts the dispatcher.
  BatchingServer(InferenceSession* session, const BatchingOptions& options);

  /// Shares ownership of `session` — required when SwapSession will retire
  /// it mid-flight.
  BatchingServer(std::shared_ptr<InferenceSession> session,
                 const BatchingOptions& options);

  /// Graceful drain-and-join (the FleetServer's destructor).
  ~BatchingServer() override = default;

  BatchingServer(const BatchingServer&) = delete;
  BatchingServer& operator=(const BatchingServer&) = delete;

  /// Enqueues one request. The future always becomes ready (see above).
  std::future<Forecast> Submit(ForecastRequest request);

  /// Atomically replaces the served session (checkpoint hot-reload). The
  /// in-flight batch finishes on the old session; when options().warmup is
  /// set, `next` is warmed before the swap (sizes it already has plans for
  /// are not warmed twice).
  void SwapSession(std::shared_ptr<InferenceSession> next) override;

  /// The currently served session (callers may briefly outlive a swap).
  std::shared_ptr<InferenceSession> session() const;

  /// Stops accepting requests and joins the dispatcher. drain=true serves
  /// everything already queued; drain=false resolves it as kCancelled.
  /// Idempotent; the first call's drain mode wins.
  void Shutdown(bool drain = true);

  /// Requests currently queued (waiting for a batch).
  int64_t QueueDepth() const;

  BatchingServerStats stats() const;
  const BatchingOptions& options() const { return options_; }
  int64_t max_batch_size() const override { return options_.max_batch_size; }

 private:
  BatchingOptions options_;
  ModelFleet fleet_;     ///< the one registered model
  FleetServer server_;   ///< declared after fleet_: it snapshots the fleet
};

}  // namespace d2stgnn::infer

#endif  // D2STGNN_INFER_BATCHING_SERVER_H_
