#include "data/sliding_window.h"

#include <algorithm>

#include "common/check.h"
#include "common/thread_pool.h"
#include "tensor/ops.h"

namespace d2stgnn::data {

SplitWindows MakeChronologicalSplits(int64_t num_steps, int64_t input_len,
                                     int64_t output_len, float train_frac,
                                     float val_frac) {
  D2_CHECK_GT(input_len, 0);
  D2_CHECK_GT(output_len, 0);
  D2_CHECK_GT(train_frac, 0.0f);
  D2_CHECK_GE(val_frac, 0.0f);
  D2_CHECK_LT(train_frac + val_frac, 1.0f);
  const int64_t window = input_len + output_len;
  D2_CHECK_GE(num_steps, 3 * window) << "dataset too short to split";

  const int64_t train_end = static_cast<int64_t>(
      static_cast<float>(num_steps) * train_frac);
  const int64_t val_end = static_cast<int64_t>(
      static_cast<float>(num_steps) * (train_frac + val_frac));

  SplitWindows splits;
  for (int64_t s = 0; s + window <= train_end; ++s) splits.train.push_back(s);
  for (int64_t s = train_end; s + window <= val_end; ++s) {
    splits.val.push_back(s);
  }
  for (int64_t s = val_end; s + window <= num_steps; ++s) {
    splits.test.push_back(s);
  }
  D2_CHECK(!splits.train.empty());
  D2_CHECK(!splits.test.empty());
  return splits;
}

void EncodeWindow(const float* readings, int64_t input_len, int64_t num_nodes,
                  int64_t time_of_day, int64_t day_of_week,
                  int64_t steps_per_day, const StandardScaler& scaler,
                  float* x, int64_t* tod, int64_t* dow) {
  const float mean = scaler.mean();
  const float inv_std = 1.0f / scaler.std_dev();
  const float inv_day = 1.0f / static_cast<float>(steps_per_day);
  for (int64_t t = 0; t < input_len; ++t) {
    const int64_t slot = time_of_day + t;
    const int64_t step_tod = slot % steps_per_day;
    const int64_t step_dow = (day_of_week + slot / steps_per_day) % 7;
    const float* src = readings + t * num_nodes;
    float* dst = x + t * num_nodes * kInputFeatures;
    for (int64_t node = 0; node < num_nodes; ++node) {
      dst[node * 3] = (src[node] - mean) * inv_std;
      dst[node * 3 + 1] = static_cast<float>(step_tod) * inv_day;
      dst[node * 3 + 2] = static_cast<float>(step_dow) / 7.0f;
    }
    tod[t] = step_tod;
    dow[t] = step_dow;
  }
}

WindowDataLoader::WindowDataLoader(const TimeSeriesDataset* dataset,
                                   const StandardScaler* scaler,
                                   std::vector<int64_t> starts,
                                   int64_t input_len, int64_t output_len,
                                   int64_t batch_size)
    : dataset_(dataset),
      scaler_(scaler),
      starts_(std::move(starts)),
      input_len_(input_len),
      output_len_(output_len),
      batch_size_(batch_size) {
  D2_CHECK(dataset != nullptr);
  D2_CHECK(scaler != nullptr);
  D2_CHECK(!starts_.empty());
  D2_CHECK_GT(batch_size, 0);
  for (int64_t s : starts_) {
    D2_CHECK_GE(s, 0);
    D2_CHECK_LE(s + input_len_ + output_len_, dataset_->num_steps());
  }
}

int64_t WindowDataLoader::NumBatches() const {
  return (num_samples() + batch_size_ - 1) / batch_size_;
}

Batch WindowDataLoader::GetBatch(int64_t index) const {
  D2_CHECK_GE(index, 0);
  D2_CHECK_LT(index, NumBatches());
  const int64_t begin = index * batch_size_;
  const int64_t end = std::min<int64_t>(begin + batch_size_, num_samples());
  const int64_t b = end - begin;
  const int64_t n = dataset_->num_nodes();

  Batch batch;
  batch.batch_size = b;
  batch.input_len = input_len_;

  std::vector<float> x(static_cast<size_t>(b * input_len_ * n * 3));
  std::vector<float> y(static_cast<size_t>(b * output_len_ * n));
  batch.time_of_day.resize(static_cast<size_t>(b * input_len_));
  batch.day_of_week.resize(static_cast<size_t>(b * input_len_));

  const std::vector<float>& values = dataset_->values.Data();
  for (int64_t i = 0; i < b; ++i) {
    const int64_t start = starts_[static_cast<size_t>(begin + i)];
    EncodeWindow(values.data() + start * n, input_len_, n,
                 dataset_->TimeOfDay(start), dataset_->DayOfWeek(start),
                 dataset_->steps_per_day, *scaler_,
                 x.data() + i * input_len_ * n * kInputFeatures,
                 batch.time_of_day.data() + i * input_len_,
                 batch.day_of_week.data() + i * input_len_);
    for (int64_t t = 0; t < output_len_; ++t) {
      const float* src = values.data() + (start + input_len_ + t) * n;
      std::copy(src, src + n, y.data() + (i * output_len_ + t) * n);
    }
  }

  batch.x = Tensor({b, input_len_, n, 3}, std::move(x));
  batch.y = Tensor({b, output_len_, n, 1}, std::move(y));
  return batch;
}

std::vector<Batch> WindowDataLoader::AssembleAllBatches() const {
  std::vector<Batch> batches(static_cast<size_t>(NumBatches()));
  // GetBatch is a pure function of (loader state, index), so batches can be
  // built concurrently; each slot is written by exactly one chunk.
  ParallelFor(0, NumBatches(), 1, [&](int64_t lo, int64_t hi) {
    for (int64_t b = lo; b < hi; ++b) {
      batches[static_cast<size_t>(b)] = GetBatch(b);
    }
  });
  return batches;
}

void WindowDataLoader::Shuffle(Rng& rng) {
  // Permute the canonical (construction-time) order, not the current one:
  // composing permutations would make the order depend on the shuffle
  // history, which a resumed training run does not have.
  if (canonical_starts_.empty()) canonical_starts_ = starts_;
  const std::vector<int64_t> perm = rng.Permutation(num_samples());
  std::vector<int64_t> shuffled(canonical_starts_.size());
  for (size_t i = 0; i < canonical_starts_.size(); ++i) {
    shuffled[i] = canonical_starts_[static_cast<size_t>(perm[i])];
  }
  starts_ = std::move(shuffled);
}

}  // namespace d2stgnn::data
