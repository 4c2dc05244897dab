#ifndef D2STGNN_TRAIN_TRAINER_H_
#define D2STGNN_TRAIN_TRAINER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/scaler.h"
#include "data/sliding_window.h"
#include "metrics/metrics.h"
#include "train/forecasting_model.h"

namespace d2stgnn::train {

/// Knobs of the shared training loop (paper Sec. 5.4/6.1 defaults). The
/// rest of the recipe is fixed: masked MAE with 0 as the missing value,
/// gradients clipped to global norm 5, and Adam at its standard betas.
struct TrainerOptions {
  int64_t epochs = 20;
  float learning_rate = 1e-3f;  ///< Adam, as in the paper
  /// Curriculum learning (Sec. 5.4): supervise only the first `horizon`
  /// steps, adding one step every `curriculum_step` optimizer updates.
  /// 0 = auto: the full horizon is reached after ~40% of all updates.
  bool curriculum_learning = true;
  int64_t curriculum_step = 0;
  /// Early stopping patience in epochs (0 disables); the best-validation
  /// parameters are restored at the end.
  int64_t patience = 6;
  /// Seed for epoch shuffling.
  uint64_t seed = 7;
  /// Log a line per epoch.
  bool verbose = false;

  // --- fault tolerance (see DESIGN.md §8) ---
  /// Directory for periodic full-state checkpoints ("" disables
  /// checkpointing). Created by the caller; files inside are managed by
  /// the trainer: it writes them and keeps the newest 3 periodic
  /// checkpoints plus the best-validation one.
  std::string checkpoint_dir;
  /// Epochs between periodic checkpoints when `checkpoint_dir` is set.
  int64_t checkpoint_every = 1;
  /// Path of a full-state checkpoint to resume from ("" = fresh run).
  /// The resumed run reproduces the uninterrupted run bitwise (same
  /// options, data, and thread count — see the determinism contract in
  /// common/thread_pool.h).
  std::string resume_from;
  /// Install cooperative SIGINT/SIGTERM handlers for the duration of Fit:
  /// on the first signal the current batch finishes, a mid-epoch
  /// checkpoint is written (when `checkpoint_dir` is set), and Fit
  /// returns a clean FitResult with StopReason::kInterrupted.
  bool handle_signals = false;
  // Divergence recovery is always on: when a non-finite loss or gradient
  // norm shows up, Fit rolls back to the state at the start of the epoch,
  // halves the learning rate, and retries the epoch, at most 3 times
  // across the whole run before it gives up with StopReason::kDiverged.
};

/// Per-epoch training record.
struct EpochStats {
  double train_loss = 0.0;         ///< mean masked MAE over batches
  metrics::MetricSet validation;   ///< on the validation split
  double seconds = 0.0;            ///< wall-clock time of the epoch
};

/// Why Trainer::Fit returned.
enum class StopReason {
  kCompleted = 0,  ///< ran every epoch
  kEarlyStopped,   ///< validation patience exhausted
  kInterrupted,    ///< cooperative SIGINT/SIGTERM (or RequestStop)
  kDiverged,       ///< non-finite loss survived every recovery retry
  kResumeFailed,   ///< `resume_from` could not be loaded; nothing ran
};

/// Human-readable name of a StopReason ("completed", "interrupted", ...).
const char* StopReasonName(StopReason reason);

/// Result of Trainer::Fit. After a resume, `history` covers the whole run
/// (restored epochs plus the ones executed now) and `start_epoch` marks
/// where this invocation picked up.
struct FitResult {
  std::vector<EpochStats> history;
  int64_t best_epoch = -1;
  double best_val_mae = 0.0;
  double mean_epoch_seconds = 0.0;  ///< training time only (Figure 6)
  StopReason stop_reason = StopReason::kCompleted;
  int64_t start_epoch = 0;
  /// Divergence-recovery rollbacks performed during this invocation.
  int64_t divergence_rollbacks = 0;
  /// Checkpoint written on interruption ("" unless kInterrupted with a
  /// checkpoint_dir) — pass it back as `resume_from` to continue.
  std::string interrupt_checkpoint;
};

/// Requests a cooperative stop of any in-flight Fit (async-signal-safe;
/// this is what the SIGINT/SIGTERM handlers call). The trainer finishes
/// the current batch, checkpoints, and returns kInterrupted.
void RequestStop();

/// True once a stop has been requested and not yet consumed by Fit.
bool StopRequested();

/// Clears the stop flag (Fit does this on entry and after honoring one).
void ClearStopRequest();

/// Trains a ForecastingModel with Adam + masked MAE + curriculum learning +
/// early stopping — the paper's recipe, shared across D²STGNN and all deep
/// baselines for fairness.
class Trainer {
 public:
  /// Borrows all pointers; they must outlive the call to Fit.
  Trainer(ForecastingModel* model, const data::StandardScaler* scaler,
          const TrainerOptions& options);

  /// Runs the training loop. `val` may be null (no validation / early
  /// stopping).
  FitResult Fit(data::WindowDataLoader* train_loader,
                data::WindowDataLoader* val_loader);

  /// Evaluates masked metrics of `model` on a loader (whole horizon).
  metrics::MetricSet Evaluate(data::WindowDataLoader* loader) const;

 private:
  ForecastingModel* model_;
  const data::StandardScaler* scaler_;
  TrainerOptions options_;
};

}  // namespace d2stgnn::train

#endif  // D2STGNN_TRAIN_TRAINER_H_
