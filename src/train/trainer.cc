#include "train/trainer.h"

#include <csignal>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <string>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "optim/adam.h"
#include "tensor/buffer_arena.h"
#include "tensor/checker.h"
#include "tensor/ops.h"
#include "tensor/tape_analyzer.h"
#include "train/checkpoint.h"

namespace d2stgnn::train {
namespace {

// The fixed parts of the recipe (see TrainerOptions).
constexpr float kNullValue = 0.0f;        // missing readings, masked
constexpr float kClipNorm = 5.0f;         // global gradient-norm bound
constexpr int64_t kKeepCheckpoints = 3;   // periodic files kept
constexpr int64_t kMaxDivergenceRetries = 3;
constexpr float kLrDecayOnDivergence = 0.5f;

// Snapshot / restore of parameter data for early stopping and divergence
// rollback.
std::vector<std::vector<float>> SnapshotParams(const nn::Module& model) {
  std::vector<std::vector<float>> snapshot;
  for (const Tensor& p : model.Parameters()) snapshot.push_back(p.Data());
  return snapshot;
}

void RestoreParams(nn::Module& model,
                   const std::vector<std::vector<float>>& snapshot) {
  std::vector<Tensor> params = model.Parameters();
  D2_CHECK_EQ(params.size(), snapshot.size());
  for (size_t i = 0; i < params.size(); ++i) {
    D2_CHECK_EQ(params[i].Data().size(), snapshot[i].size());
    params[i].Data() = snapshot[i];
  }
}

// Fault-injection support: overwrite one gradient value with NaN, as a
// numerical blow-up would (tests arm the "trainer.nan_grad" point).
void PoisonFirstGradient(const std::vector<Tensor>& params) {
  for (const Tensor& p : params) {
    auto& grad = p.impl()->grad;
    if (!grad.empty()) {
      grad[0] = std::numeric_limits<float>::quiet_NaN();
      return;
    }
  }
}

// Cooperative-stop flag. Signal handlers may only touch lock-free atomics,
// which std::atomic<int> is on every target platform.
std::atomic<int> g_stop_requested{0};

void OnStopSignal(int /*signum*/) {
  g_stop_requested.store(1, std::memory_order_relaxed);
}

// Installs SIGINT/SIGTERM handlers for the lifetime of one Fit call and
// restores whatever was there before.
class ScopedStopSignalHandlers {
 public:
  ScopedStopSignalHandlers() {
    struct sigaction action {};
    action.sa_handler = OnStopSignal;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGINT, &action, &old_int_);
    ::sigaction(SIGTERM, &action, &old_term_);
  }
  ~ScopedStopSignalHandlers() {
    ::sigaction(SIGINT, &old_int_, nullptr);
    ::sigaction(SIGTERM, &old_term_, nullptr);
  }
  ScopedStopSignalHandlers(const ScopedStopSignalHandlers&) = delete;
  ScopedStopSignalHandlers& operator=(const ScopedStopSignalHandlers&) =
      delete;

 private:
  struct sigaction old_int_ {};
  struct sigaction old_term_ {};
};

// Outcome of one attempt at an epoch.
enum class EpochOutcome { kOk, kRetry, kDiverged, kInterrupted };

}  // namespace

void RequestStop() { g_stop_requested.store(1, std::memory_order_relaxed); }

bool StopRequested() {
  return g_stop_requested.load(std::memory_order_relaxed) != 0;
}

void ClearStopRequest() {
  g_stop_requested.store(0, std::memory_order_relaxed);
}

const char* StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kCompleted:
      return "completed";
    case StopReason::kEarlyStopped:
      return "early-stopped";
    case StopReason::kInterrupted:
      return "interrupted";
    case StopReason::kDiverged:
      return "diverged";
    case StopReason::kResumeFailed:
      return "resume-failed";
  }
  return "unknown";
}

Trainer::Trainer(ForecastingModel* model, const data::StandardScaler* scaler,
                 const TrainerOptions& options)
    : model_(model), scaler_(scaler), options_(options) {
  D2_CHECK(model != nullptr);
  D2_CHECK(scaler != nullptr);
  D2_CHECK_GT(options.epochs, 0);
}

FitResult Trainer::Fit(data::WindowDataLoader* train_loader,
                       data::WindowDataLoader* val_loader) {
  D2_CHECK(train_loader != nullptr);
  ClearStopRequest();
  std::optional<ScopedStopSignalHandlers> signal_guard;
  if (options_.handle_signals) signal_guard.emplace();

  optim::Adam optimizer(model_->Parameters(), options_.learning_rate);
  Rng shuffle_rng(options_.seed);

  FitResult result;
  std::vector<std::vector<float>> best_params;
  int64_t epochs_without_improvement = 0;
  int64_t updates = 0;
  int64_t start_epoch = 0;
  int64_t resume_batch = 0;
  double resume_loss_sum = 0.0;
  const int64_t horizon = model_->horizon();
  int64_t curriculum_step = options_.curriculum_step;
  if (curriculum_step <= 0) {
    // Auto: reach the full horizon after ~40% of all updates so the late
    // horizons still receive most of the training signal.
    const int64_t total_updates =
        options_.epochs * train_loader->NumBatches();
    curriculum_step = std::max<int64_t>(1, total_updates * 2 / (5 * horizon));
  }

  // Resume: restore the full training state saved by a previous run. With
  // the same options, data, and thread count the continued run is bitwise
  // identical to one that was never interrupted.
  if (!options_.resume_from.empty()) {
    TrainingCheckpoint ckpt;
    if (!LoadTrainingCheckpoint(model_, &ckpt, options_.resume_from) ||
        !optimizer.ImportState(ckpt.optimizer)) {
      D2_LOG(ERROR) << "cannot resume training from " << options_.resume_from;
      result.stop_reason = StopReason::kResumeFailed;
      return result;
    }
    shuffle_rng.SetState(ckpt.shuffle_rng);
    updates = ckpt.progress.updates;
    if (ckpt.progress.curriculum_step > 0) {
      curriculum_step = ckpt.progress.curriculum_step;
    }
    start_epoch = ckpt.progress.next_epoch;
    resume_batch = ckpt.progress.next_batch;
    resume_loss_sum = ckpt.progress.partial_loss_sum;
    result.history = ckpt.progress.history;
    result.best_epoch = ckpt.progress.best_epoch;
    result.best_val_mae = ckpt.progress.best_val_mae;
    epochs_without_improvement = ckpt.progress.epochs_without_improvement;
    best_params = std::move(ckpt.best_params);
    if (options_.verbose) {
      D2_LOG(INFO) << model_->name() << ": resumed from "
                   << options_.resume_from << " at epoch " << start_epoch
                   << " batch " << resume_batch << " (" << updates
                   << " updates)";
    }
  }
  result.start_epoch = start_epoch;

  // Correctness instrumentation: with the numerics sentinel on, every op
  // output and gradient buffer is scanned (see tensor/checker.h) and the
  // diagnostic of a failing step names the epoch/batch via the context
  // stack. Debug builds additionally validate the autograd tape after each
  // step.
  const bool check_numerics = CheckNumericsEnabled();
  if (check_numerics && options_.verbose) {
    D2_LOG(INFO) << "numerics sentinel active (D2STGNN_CHECK_NUMERICS)";
  }
#ifndef NDEBUG
  TapeWatchdog tape_watchdog;
#endif

  // Assembles the progress record for a checkpoint at (next_epoch,
  // next_batch).
  const auto make_progress = [&](int64_t next_epoch, int64_t next_batch,
                                 double partial_loss_sum) {
    TrainerProgress progress;
    progress.next_epoch = next_epoch;
    progress.next_batch = next_batch;
    progress.updates = updates;
    progress.curriculum_step = curriculum_step;
    progress.partial_loss_sum = partial_loss_sum;
    progress.best_epoch = result.best_epoch;
    progress.best_val_mae = result.best_val_mae;
    progress.epochs_without_improvement = epochs_without_improvement;
    progress.history = result.history;
    return progress;
  };
  const auto save_checkpoint = [&](const std::string& path,
                                   const RngState& rng_state,
                                   TrainerProgress progress) {
    TrainingCheckpoint ckpt;
    ckpt.optimizer = optimizer.ExportState();
    ckpt.progress = std::move(progress);
    ckpt.shuffle_rng = rng_state;
    ckpt.best_params = best_params;
    return SaveTrainingCheckpoint(*model_, ckpt, path);
  };

  int64_t divergence_retries_left = kMaxDivergenceRetries;

  for (int64_t epoch = start_epoch; epoch < options_.epochs; ++epoch) {
    const int64_t first_batch = epoch == start_epoch ? resume_batch : 0;
    const double initial_loss_sum =
        epoch == start_epoch ? resume_loss_sum : 0.0;

    double loss_sum = 0.0;
    int64_t num_batches = 0;
    double epoch_seconds = 0.0;
    EpochOutcome outcome;
    do {
      outcome = EpochOutcome::kOk;
      // Rollback point for divergence recovery: the complete state at the
      // start of this epoch attempt. Restoring it and re-running (with a
      // smaller LR) reproduces the same shuffle and batch order.
      const RngState pre_shuffle = shuffle_rng.GetState();
      const std::vector<std::vector<float>> rollback_params =
          SnapshotParams(*model_);
      const optim::OptimizerState rollback_optimizer =
          optimizer.ExportState();
      const int64_t rollback_updates = updates;

      model_->SetTraining(true);
      train_loader->Shuffle(shuffle_rng);
      Stopwatch epoch_timer;
      loss_sum = initial_loss_sum;
      // Batch assembly is embarrassingly parallel; the optimizer steps
      // below stay sequential (each update depends on the previous
      // parameters).
      const std::vector<data::Batch> batches =
          train_loader->AssembleAllBatches();
      num_batches = static_cast<int64_t>(batches.size());
      for (int64_t b = first_batch; b < num_batches; ++b) {
        // Scripted crash point for crash-safety tests (no-op when the
        // fault registry is empty).
        fault::ConsumeFault("trainer.batch");
        const data::Batch& batch = batches[static_cast<size_t>(b)];
        std::optional<ScopedCheckContext> check_context;
        if (check_numerics) {
          check_context.emplace("training step: epoch " +
                                std::to_string(epoch) + " batch " +
                                std::to_string(b) + " of " + model_->name());
        }
        Tensor prediction =
            scaler_->InverseTransform(model_->Forward(batch));

        // Curriculum learning: supervise a prefix of the horizon that
        // grows with the number of updates (Sec. 5.4).
        int64_t supervised = horizon;
        if (options_.curriculum_learning) {
          supervised =
              std::min<int64_t>(horizon, 1 + updates / curriculum_step);
        }
        Tensor target = batch.y;
        if (supervised < horizon) {
          prediction = Slice(prediction, 1, 0, supervised);
          target = Slice(target, 1, 0, supervised);
        }

        Tensor loss =
            metrics::MaskedMaeLoss(prediction, target, kNullValue);
        optimizer.ZeroGrad();
        loss.Backward();
        if (fault::AnyFaultArmed() &&
            fault::ConsumeFault("trainer.nan_grad")) {
          PoisonFirstGradient(optimizer.params());
        }

        // Divergence detection before the parameters are touched: a
        // non-finite loss or gradient norm never reaches Step().
        const bool grads_finite = std::isfinite(
            optim::ClipGradNorm(optimizer.params(), kClipNorm));
        const float loss_value = loss.Item();
        if (!std::isfinite(loss_value) || !grads_finite) {
          if (divergence_retries_left > 0) {
            --divergence_retries_left;
            ++result.divergence_rollbacks;
            RestoreParams(*model_, rollback_params);
            optimizer.ImportState(rollback_optimizer);
            optimizer.set_learning_rate(optimizer.learning_rate() *
                                        kLrDecayOnDivergence);
            shuffle_rng.SetState(pre_shuffle);
            updates = rollback_updates;
            D2_LOG(WARNING)
                << model_->name() << ": non-finite "
                << (std::isfinite(loss_value) ? "gradient" : "loss")
                << " at epoch " << epoch << " batch " << b
                << " — rolled back to the start of the epoch, lr now "
                << optimizer.learning_rate() << " ("
                << divergence_retries_left << " retries left)";
            outcome = EpochOutcome::kRetry;
          } else {
            D2_LOG(ERROR) << model_->name() << ": non-finite loss at epoch "
                          << epoch << " batch " << b
                          << " and no divergence retries left — giving up";
            outcome = EpochOutcome::kDiverged;
          }
          break;
        }

        optimizer.Step();
        ++updates;
        loss_sum += loss_value;
#ifndef NDEBUG
        const TapeReport tape_report = tape_watchdog.EndStep(loss);
        for (const TapeIssue& issue : tape_report.issues) {
          D2_LOG(WARNING) << "tape analyzer [" << issue.kind << "] at epoch "
                          << epoch << " batch " << b << ": " << issue.detail;
        }
#endif

        // Cooperative shutdown: the batch above completed normally; save a
        // mid-epoch checkpoint and return a clean result.
        if (StopRequested()) {
          ClearStopRequest();
          if (!options_.checkpoint_dir.empty()) {
            const std::string path =
                CheckpointPathForStep(options_.checkpoint_dir, updates);
            if (save_checkpoint(path, pre_shuffle,
                                make_progress(epoch, b + 1, loss_sum))) {
              result.interrupt_checkpoint = path;
              PruneCheckpoints(options_.checkpoint_dir, kKeepCheckpoints);
            }
          }
          if (options_.verbose || options_.handle_signals) {
            D2_LOG(INFO) << model_->name()
                         << ": stop requested — interrupted at epoch "
                         << epoch << " after batch " << b
                         << (result.interrupt_checkpoint.empty()
                                 ? " (no checkpoint dir configured)"
                                 : ", checkpoint written to " +
                                       result.interrupt_checkpoint);
          }
          outcome = EpochOutcome::kInterrupted;
          break;
        }
      }
      epoch_seconds = epoch_timer.ElapsedSeconds();
    } while (outcome == EpochOutcome::kRetry);

    if (outcome == EpochOutcome::kDiverged) {
      result.stop_reason = StopReason::kDiverged;
      break;
    }
    if (outcome == EpochOutcome::kInterrupted) {
      result.stop_reason = StopReason::kInterrupted;
      break;
    }

    EpochStats stats;
    stats.seconds = epoch_seconds;
    stats.train_loss =
        num_batches > 0 ? loss_sum / static_cast<double>(num_batches) : 0.0;
    if (val_loader != nullptr) stats.validation = Evaluate(val_loader);
    result.history.push_back(stats);

    if (options_.verbose) {
      D2_LOG(INFO) << model_->name() << " epoch " << epoch << ": train_mae="
                   << stats.train_loss
                   << " val_mae=" << stats.validation.mae << " ("
                   << stats.seconds << "s)";
    }

    bool improved = false;
    bool early_stop = false;
    if (val_loader != nullptr) {
      improved = result.best_epoch < 0 ||
                 stats.validation.mae < result.best_val_mae;
      if (improved) {
        result.best_epoch = epoch;
        result.best_val_mae = stats.validation.mae;
        best_params = SnapshotParams(*model_);
        epochs_without_improvement = 0;
      } else {
        ++epochs_without_improvement;
        if (options_.patience > 0 &&
            epochs_without_improvement >= options_.patience) {
          if (options_.verbose) {
            D2_LOG(INFO) << "early stopping at epoch " << epoch;
          }
          early_stop = true;
        }
      }
    }

    // Periodic full-state checkpoint (plus on the final epoch and at an
    // early stop, so the newest file always holds the terminal state).
    if (!options_.checkpoint_dir.empty()) {
      const bool cadence_due =
          options_.checkpoint_every <= 1 ||
          (epoch + 1) % options_.checkpoint_every == 0;
      const bool last_epoch = epoch + 1 >= options_.epochs;
      if (cadence_due || last_epoch || early_stop) {
        const std::string path =
            CheckpointPathForStep(options_.checkpoint_dir, updates);
        if (save_checkpoint(path, shuffle_rng.GetState(),
                            make_progress(epoch + 1, 0, 0.0))) {
          PruneCheckpoints(options_.checkpoint_dir, kKeepCheckpoints);
        }
      }
      if (improved) {
        save_checkpoint(BestCheckpointPath(options_.checkpoint_dir),
                        shuffle_rng.GetState(),
                        make_progress(epoch + 1, 0, 0.0));
      }
    }

    if (early_stop) {
      result.stop_reason = StopReason::kEarlyStopped;
      break;
    }
  }

  // Restore the best-validation parameters, except on interruption — there
  // the current parameters match the interrupt checkpoint, which is what a
  // subsequent resume continues from.
  if (result.stop_reason != StopReason::kInterrupted && !best_params.empty()) {
    RestoreParams(*model_, best_params);
  }
  double total_seconds = 0.0;
  for (const EpochStats& stats : result.history) {
    total_seconds += stats.seconds;
  }
  result.mean_epoch_seconds =
      result.history.empty()
          ? 0.0
          : total_seconds / static_cast<double>(result.history.size());
  return result;
}

metrics::MetricSet Trainer::Evaluate(data::WindowDataLoader* loader) const {
  D2_CHECK(loader != nullptr);
  model_->SetTraining(false);
  // Validation runs in inference mode: no tape, buffers pooled across
  // batches within this pass.
  InferenceModeGuard inference_mode;
  // Sum the raw statistics across batches, so the result is the metrics of
  // the concatenated batches.
  metrics::MetricAccumulator acc;
  const std::vector<data::Batch> batches = loader->AssembleAllBatches();
  for (const data::Batch& batch : batches) {
    const Tensor prediction =
        scaler_->InverseTransform(model_->Forward(batch));
    D2_CHECK(prediction.shape() == batch.y.shape());
    acc.Add(prediction.Data().data(), batch.y.Data().data(),
            batch.y.numel(), kNullValue);
  }
  model_->SetTraining(true);
  return acc.Finish();
}

}  // namespace d2stgnn::train
