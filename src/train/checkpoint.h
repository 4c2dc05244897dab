#ifndef D2STGNN_TRAIN_CHECKPOINT_H_
#define D2STGNN_TRAIN_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/module.h"
#include "optim/adam.h"
#include "train/trainer.h"

// Checkpoint v2: crash-safe, integrity-checked persistence of *full*
// training state, so a run killed at any point resumes bitwise-identically
// from its last checkpoint.
//
// Format (little-endian, the project's only target):
//
//   magic "D2CKPT02"
//   u64 section_count
//   per section: u64 name_len, name bytes, u64 payload_len,
//                u32 crc32(payload), payload bytes
//
// Sections: "params" (always), and for full training checkpoints
// "optimizer", "trainer", "rng", "best_params". Unknown sections are
// skipped (their CRC is still verified), so the format is forward-
// extensible. Files are written atomically (temp + fsync + rename; see
// common/io/atomic_file.h): a crash mid-save leaves the previous
// checkpoint intact, never a torn file.
//
// Loading is transactional: every section is parsed and validated into
// staging buffers first, and the module / out-structs are only touched
// after the whole file (CRCs, names, sizes) checks out. A false return
// therefore guarantees the model is exactly as it was before the call —
// this also holds for v1 ("D2CKPT01") files, whose model-only payload is
// still readable.

namespace d2stgnn::train {

/// Trainer-loop position and early-stopping bookkeeping. `next_epoch` /
/// `next_batch` name the first step the resumed run executes; a non-zero
/// `next_batch` marks a mid-epoch checkpoint (cooperative interrupt), whose
/// `rng` state is the one captured *before* the interrupted epoch's shuffle
/// so the resumed run reproduces the same batch order.
struct TrainerProgress {
  int64_t next_epoch = 0;
  int64_t next_batch = 0;
  int64_t updates = 0;         ///< optimizer updates so far (curriculum)
  int64_t curriculum_step = 0; ///< resolved curriculum step length
  double partial_loss_sum = 0.0;  ///< loss accumulated before a mid-epoch save
  int64_t best_epoch = -1;
  double best_val_mae = 0.0;
  int64_t epochs_without_improvement = 0;
  std::vector<EpochStats> history;  ///< per-epoch records so far
};

/// Everything beyond the model parameters that a bitwise resume needs.
struct TrainingCheckpoint {
  optim::OptimizerState optimizer;
  TrainerProgress progress;
  RngState shuffle_rng;
  /// Best-validation parameter snapshot (early stopping); empty = none yet.
  std::vector<std::vector<float>> best_params;
};

/// Writes a model-only v2 checkpoint (the "export weights" use case).
/// Returns false (after logging) on I/O failure; the previous file at
/// `path`, if any, is left intact.
bool SaveCheckpoint(const nn::Module& module, const std::string& path);

/// Restores parameters from a v1 or v2 checkpoint into `module`.
/// Transactional: on any failure (I/O, corruption, architecture mismatch)
/// the module is untouched and false is returned after logging.
bool LoadCheckpoint(nn::Module* module, const std::string& path);

/// Writes a full training checkpoint: model parameters plus `state`.
bool SaveTrainingCheckpoint(const nn::Module& module,
                            const TrainingCheckpoint& state,
                            const std::string& path);

/// Loads a checkpoint written by SaveTrainingCheckpoint. `state` receives
/// the training sections; if the file is model-only (or v1), `state` is
/// reset to defaults and false is returned. Transactional like
/// LoadCheckpoint.
bool LoadTrainingCheckpoint(nn::Module* module, TrainingCheckpoint* state,
                            const std::string& path);

/// Path of the checkpoint for optimizer-update count `step` inside `dir`
/// ("<dir>/ckpt-000000042.d2ck" — zero-padded so lexicographic order is
/// step order; steps are monotonic across epoch-boundary and mid-epoch
/// saves, so LatestCheckpoint always names the newest state).
std::string CheckpointPathForStep(const std::string& dir, int64_t step);

/// Path of the best-validation checkpoint inside `dir`.
std::string BestCheckpointPath(const std::string& dir);

/// Newest epoch checkpoint in `dir` ("" when none). In-flight temp files
/// and the best-checkpoint copy are ignored.
std::string LatestCheckpoint(const std::string& dir);

/// Retention policy: deletes epoch checkpoints in `dir`, keeping the
/// newest `keep_last` (plus the best-checkpoint file, which is never
/// removed). keep_last <= 0 keeps everything.
void PruneCheckpoints(const std::string& dir, int64_t keep_last);

}  // namespace d2stgnn::train

#endif  // D2STGNN_TRAIN_CHECKPOINT_H_
