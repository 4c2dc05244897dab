#ifndef D2STGNN_DATA_SLIDING_WINDOW_H_
#define D2STGNN_DATA_SLIDING_WINDOW_H_

#include <vector>

#include "common/rng.h"
#include "data/dataset.h"
#include "data/scaler.h"
#include "tensor/tensor.h"

namespace d2stgnn::data {

/// Window start offsets for the three chronological splits. A sample
/// starting at s consumes inputs [s, s+Th) and targets [s+Th, s+Th+Tf).
struct SplitWindows {
  std::vector<int64_t> train;
  std::vector<int64_t> val;
  std::vector<int64_t> test;
};

/// Generates sliding-window samples and splits them chronologically
/// [train | val | test] with the given fractions (the paper uses 0.7/0.1/0.2
/// for the speed datasets and 0.6/0.2/0.2 for the flow datasets, Sec.
/// 6.2.1). Windows never straddle a split boundary.
SplitWindows MakeChronologicalSplits(int64_t num_steps, int64_t input_len,
                                     int64_t output_len, float train_frac,
                                     float val_frac);

/// Number of input feature channels produced by WindowDataLoader (z-scored
/// reading + time-of-day + day-of-week).
inline constexpr int64_t kInputFeatures = 3;

/// Encodes one input window into the model's input layout. `readings` is
/// `input_len` x `num_nodes` raw readings, row-major by step, whose first
/// step falls in time-of-day slot `time_of_day` of weekday `day_of_week`;
/// later steps advance the slot, wrapping across midnight into the next
/// weekday. Writes [input_len, num_nodes, kInputFeatures] features to `x`
/// (z-scored reading, time-of-day fraction, day-of-week fraction) and the
/// `input_len` slot and weekday indices to `tod` and `dow`.
void EncodeWindow(const float* readings, int64_t input_len, int64_t num_nodes,
                  int64_t time_of_day, int64_t day_of_week,
                  int64_t steps_per_day, const StandardScaler& scaler,
                  float* x, int64_t* tod, int64_t* dow);

/// One minibatch of supervised samples.
struct Batch {
  /// Inputs, [B, Th, N, 3]: channel 0 is the z-scored reading, channel 1
  /// the time-of-day fraction, channel 2 the day-of-week fraction (the
  /// auxiliary features the official D²STGNN/Graph WaveNet pipelines feed).
  Tensor x;
  /// Raw (original-unit) targets, [B, Tf, N, 1].
  Tensor y;
  /// Time-of-day slot per (b, t) of the input window, row-major [B * Th].
  std::vector<int64_t> time_of_day;
  /// Day-of-week per (b, t) of the input window, row-major [B * Th].
  std::vector<int64_t> day_of_week;
  int64_t batch_size = 0;
  int64_t input_len = 0;

  int64_t num_nodes() const { return x.size(2); }
};

/// Materializes minibatches of sliding-window samples from a dataset.
/// Inputs are normalized with `scaler`; targets stay in original units
/// (models emit normalized predictions and the trainer inverse-transforms
/// before the masked-MAE loss, the DCRNN convention).
class WindowDataLoader {
 public:
  /// `starts` are window start offsets (from SplitWindows). The loader
  /// borrows `dataset` and `scaler`, which must outlive it.
  WindowDataLoader(const TimeSeriesDataset* dataset,
                   const StandardScaler* scaler, std::vector<int64_t> starts,
                   int64_t input_len, int64_t output_len, int64_t batch_size);

  /// Number of (possibly ragged) batches per epoch.
  int64_t NumBatches() const;

  /// Builds batch `index` (0-based). The final batch may be smaller.
  Batch GetBatch(int64_t index) const;

  /// Assembles every batch of the current sample order, in parallel over
  /// the shared thread pool. Batch contents are identical to calling
  /// GetBatch(0..NumBatches()-1) sequentially.
  std::vector<Batch> AssembleAllBatches() const;

  /// Reshuffles the sample order (call between epochs during training).
  /// Path-independent: the order after the call is the drawn permutation
  /// applied to the *construction-time* order, so it depends only on the
  /// rng state — never on earlier shuffles. A training run resumed from a
  /// checkpointed rng state therefore reproduces the same batch order on a
  /// freshly constructed loader (the bitwise-resume contract).
  void Shuffle(Rng& rng);

  int64_t num_samples() const {
    return static_cast<int64_t>(starts_.size());
  }

 private:
  const TimeSeriesDataset* dataset_;
  const StandardScaler* scaler_;
  std::vector<int64_t> starts_;
  std::vector<int64_t> canonical_starts_;  ///< construction-time order
  int64_t input_len_;
  int64_t output_len_;
  int64_t batch_size_;
};

}  // namespace d2stgnn::data

#endif  // D2STGNN_DATA_SLIDING_WINDOW_H_
