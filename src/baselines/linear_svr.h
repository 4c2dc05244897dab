#ifndef D2STGNN_BASELINES_LINEAR_SVR_H_
#define D2STGNN_BASELINES_LINEAR_SVR_H_

#include <vector>

#include "common/rng.h"
#include "data/dataset.h"
#include "tensor/tensor.h"

namespace d2stgnn::baselines {

/// Linear Support Vector Regression baseline (paper Sec. 6.1): one linear
/// model per forecasting horizon mapping a node's last `input_len` readings
/// to its future reading, shared across nodes, trained with the
/// ε-insensitive hinge loss plus L2 regularization by stochastic subgradient
/// descent (Pegasos-style). Purely temporal and linear — no spatial
/// information — which is why it trails the graph models.
class LinearSvr {
 public:
  /// Trains on sliding windows starting in [0, train_steps - Th - Tf].
  void Fit(const data::TimeSeriesDataset& dataset, int64_t train_steps,
           int64_t input_len, int64_t output_len);

  /// Predicts each window: [num_starts, output_len, N, 1], original units.
  Tensor Predict(const data::TimeSeriesDataset& dataset,
                 const std::vector<int64_t>& window_starts, int64_t input_len,
                 int64_t output_len) const;

 private:
  int64_t input_len_ = 0;
  int64_t output_len_ = 0;
  float mean_ = 0.0f;
  float std_ = 1.0f;
  /// Weights [output_len x (input_len + 1)] (last column = bias).
  std::vector<float> weights_;
};

}  // namespace d2stgnn::baselines

#endif  // D2STGNN_BASELINES_LINEAR_SVR_H_
