#ifndef D2STGNN_INFER_HOT_RELOAD_H_
#define D2STGNN_INFER_HOT_RELOAD_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/clock.h"
#include "data/scaler.h"
#include "infer/session.h"
#include "infer/session_host.h"
#include "train/forecasting_model.h"

// Transactional checkpoint hot-reload (DESIGN.md §13).
//
// A CheckpointReloader watches a directory of ckpt-*.d2ck files (what the
// Trainer writes) and, when a newer one appears, stages it into a *shadow*
// session: a fresh model instance, a transactional checkpoint load, warm-up
// forwards, plan capture and static verification — all while live traffic
// keeps running on the old session. Only a shadow that survives every gate
// is swapped in (SessionHost::SwapSession — one lane of the serving core:
// a BatchingServer or one model of a FleetServer); any failure keeps the old
// session serving and is reported as a typed ReloadStatus, never an
// exception into the serving path. In-flight batches finish on the weights
// they started with.
//
// The fault point "infer.hot_reload" fails the staging step (as a scripted
// corrupt/unreadable checkpoint would); because PollOnce retries the same
// checkpoint on the next poll, a transient injected fault heals on its own.

namespace d2stgnn::infer {

/// Builds a fresh (architecture-matching, uninitialized) model for each
/// staged checkpoint.
using ModelFactory =
    std::function<std::unique_ptr<train::ForecastingModel>()>;

/// Staging always warms the shadow session at WarmupBatchSizes(the host's
/// max_batch_size()) — every power of two below it, then the max — and,
/// when it uses plans, requires each of those sizes to have a captured,
/// verifier-clean plan before the swap.
struct HotReloadOptions {
  std::string directory;          ///< watched checkpoint directory
  /// Watcher thread poll period. Configurable end to end: the fleet spec's
  /// [fleet] reload_poll_ms and serve_forecasts --reload-poll-ms land here.
  int64_t poll_interval_ms = 200;
  /// Injected time source for staging-duration accounting (null:
  /// RealClock()).
  Clock* clock = nullptr;
};

enum class ReloadOutcome {
  kNoChange = 0,  ///< no new checkpoint in the directory
  kSwapped,       ///< shadow session passed every gate and is now serving
  kRejected,      ///< staging failed; the old session keeps serving
};

/// The result of one poll.
struct ReloadStatus {
  ReloadOutcome outcome = ReloadOutcome::kNoChange;
  std::string checkpoint;  ///< the checkpoint examined ("" for kNoChange)
  std::string error;       ///< why a kRejected poll failed
};

/// Cumulative reloader counters (a consistent snapshot).
struct ReloadStats {
  int64_t attempts = 0;  ///< polls that found a new checkpoint
  int64_t swaps = 0;     ///< successful swaps
  int64_t rejects = 0;   ///< staging failures (old session kept)
  /// How long the most recent staging attempt spent off the serving path
  /// (load + warmup + verification), by the injected clock.
  int64_t last_staging_us = 0;
  std::string active_checkpoint;  ///< last successfully swapped-in path
  std::string last_error;         ///< from the most recent reject
};

/// Watches a checkpoint directory and hot-swaps the host's session.
/// One reloader per SessionHost; the host must outlive it.
class CheckpointReloader {
 public:
  /// `session_options` must describe the same stream geometry the host's
  /// current session was built with (the swap does not re-negotiate shapes).
  CheckpointReloader(SessionHost* host, ModelFactory factory,
                     const data::StandardScaler& scaler,
                     const SessionOptions& session_options,
                     const HotReloadOptions& options);
  ~CheckpointReloader();  ///< Stop()

  CheckpointReloader(const CheckpointReloader&) = delete;
  CheckpointReloader& operator=(const CheckpointReloader&) = delete;

  /// One synchronous watch step: check the directory, stage + verify + swap
  /// if a new checkpoint appeared. Callable directly (tests, manual
  /// drivers) or via the Start() thread — but not concurrently with itself.
  ReloadStatus PollOnce();

  /// Starts the background watcher thread (idempotent).
  void Start();

  /// Stops and joins the watcher thread (idempotent).
  void Stop();

  ReloadStats stats() const;

 private:
  ReloadStatus StageAndSwap(const std::string& checkpoint);

  SessionHost* host_;
  ModelFactory factory_;
  data::StandardScaler scaler_;
  SessionOptions session_options_;
  HotReloadOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool running_ = false;
  ReloadStats stats_;
  std::string active_;  ///< checkpoint currently serving (or staged-at-boot)
  std::thread watcher_;
};

}  // namespace d2stgnn::infer

#endif  // D2STGNN_INFER_HOT_RELOAD_H_
