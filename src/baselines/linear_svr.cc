#include "baselines/linear_svr.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace d2stgnn::baselines {
namespace {

constexpr float kEpsilon = 0.1f;  // insensitivity tube (z-scored units)
constexpr float kL2 = 1e-4f;      // regularization strength
constexpr float kLearningRate = 0.05f;
constexpr int64_t kEpochs = 5;
constexpr int64_t kMaxSamples = 20000;  // subsample cap per epoch
constexpr uint64_t kSeed = 17;

}  // namespace

void LinearSvr::Fit(const data::TimeSeriesDataset& dataset,
                    int64_t train_steps, int64_t input_len,
                    int64_t output_len) {
  D2_CHECK_GT(train_steps, input_len + output_len);
  input_len_ = input_len;
  output_len_ = output_len;
  const int64_t n = dataset.num_nodes();
  const std::vector<float>& values = dataset.values.Data();

  // Z-score statistics over the training range.
  double sum = 0.0, sum_sq = 0.0;
  const int64_t limit = train_steps * n;
  for (int64_t i = 0; i < limit; ++i) {
    sum += values[static_cast<size_t>(i)];
    sum_sq += static_cast<double>(values[static_cast<size_t>(i)]) *
              values[static_cast<size_t>(i)];
  }
  const double mean = sum / static_cast<double>(limit);
  mean_ = static_cast<float>(mean);
  std_ = static_cast<float>(std::sqrt(
      std::max(1e-12, sum_sq / static_cast<double>(limit) - mean * mean)));

  const int64_t feat = input_len + 1;
  weights_.assign(static_cast<size_t>(output_len * feat), 0.0f);
  Rng rng(kSeed);
  const int64_t num_windows = train_steps - input_len - output_len + 1;
  const int64_t samples_per_epoch =
      std::min<int64_t>(kMaxSamples, num_windows * n);

  std::vector<float> x(static_cast<size_t>(feat));
  for (int64_t epoch = 0; epoch < kEpochs; ++epoch) {
    const float lr = kLearningRate /
                     (1.0f + 0.5f * static_cast<float>(epoch));
    for (int64_t s = 0; s < samples_per_epoch; ++s) {
      const int64_t w = rng.UniformInt(num_windows);
      const int64_t node = rng.UniformInt(n);
      for (int64_t t = 0; t < input_len; ++t) {
        x[static_cast<size_t>(t)] =
            (values[static_cast<size_t>((w + t) * n + node)] - mean_) / std_;
      }
      x[static_cast<size_t>(input_len)] = 1.0f;  // bias feature
      for (int64_t h = 0; h < output_len; ++h) {
        const float target =
            (values[static_cast<size_t>((w + input_len + h) * n + node)] -
             mean_) /
            std_;
        float* wt = weights_.data() + h * feat;
        double pred = 0.0;
        for (int64_t f = 0; f < feat; ++f) pred += wt[f] * x[static_cast<size_t>(f)];
        const float err = static_cast<float>(pred) - target;
        // Subgradient of the epsilon-insensitive loss + L2.
        float sign = 0.0f;
        if (err > kEpsilon) sign = 1.0f;
        if (err < -kEpsilon) sign = -1.0f;
        for (int64_t f = 0; f < feat; ++f) {
          wt[f] -= lr * (sign * x[static_cast<size_t>(f)] +
                         kL2 * wt[f]);
        }
      }
    }
  }
}

Tensor LinearSvr::Predict(const data::TimeSeriesDataset& dataset,
                          const std::vector<int64_t>& window_starts,
                          int64_t input_len, int64_t output_len) const {
  D2_CHECK_EQ(input_len, input_len_);
  D2_CHECK_EQ(output_len, output_len_);
  const int64_t n = dataset.num_nodes();
  const int64_t s = static_cast<int64_t>(window_starts.size());
  const int64_t feat = input_len + 1;
  const std::vector<float>& values = dataset.values.Data();

  std::vector<float> out(static_cast<size_t>(s * output_len * n));
  std::vector<float> x(static_cast<size_t>(feat));
  for (int64_t w = 0; w < s; ++w) {
    const int64_t start = window_starts[static_cast<size_t>(w)];
    for (int64_t node = 0; node < n; ++node) {
      for (int64_t t = 0; t < input_len; ++t) {
        x[static_cast<size_t>(t)] =
            (values[static_cast<size_t>((start + t) * n + node)] - mean_) /
            std_;
      }
      x[static_cast<size_t>(input_len)] = 1.0f;
      for (int64_t h = 0; h < output_len; ++h) {
        const float* wt = weights_.data() + h * feat;
        double pred = 0.0;
        for (int64_t f = 0; f < feat; ++f) pred += wt[f] * x[static_cast<size_t>(f)];
        out[static_cast<size_t>((w * output_len + h) * n + node)] =
            static_cast<float>(pred) * std_ + mean_;
      }
    }
  }
  return Tensor({s, output_len, n, 1}, std::move(out));
}

}  // namespace d2stgnn::baselines
