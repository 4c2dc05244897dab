#ifndef D2STGNN_METRICS_METRICS_H_
#define D2STGNN_METRICS_METRICS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace d2stgnn::metrics {

/// MAE / RMSE / MAPE for one prediction-vs-truth comparison (paper Eq. 17).
struct MetricSet {
  double mae = 0.0;
  double rmse = 0.0;
  double mape = 0.0;  ///< fraction, not percent
  int64_t count = 0;  ///< number of unmasked entries
};

/// Sufficient statistics of the masked metrics. Entries added over several
/// calls give the metrics of all of them at once, so a multi-batch pass
/// reports exactly the metrics of its concatenated batches.
struct MetricAccumulator {
  double abs_sum = 0.0;
  double sq_sum = 0.0;
  double ape_sum = 0.0;
  int64_t count = 0;      ///< unmasked entries
  int64_t ape_count = 0;  ///< unmasked entries with |truth| > 1e-2

  /// Adds `n` prediction/truth pairs, skipping truths equal to `null_value`.
  void Add(const float* prediction, const float* truth, int64_t n,
           float null_value);
  MetricSet Finish() const;
};

/// Computes masked MAE/RMSE/MAPE between same-shape tensors. Entries whose
/// ground truth equals `null_value` (sensor failures, standard METR-LA
/// convention) are excluded from every metric; MAPE additionally skips
/// near-zero truths to avoid division blow-ups. Pure data computation (no
/// autograd).
MetricSet ComputeMetrics(const Tensor& prediction, const Tensor& truth,
                         float null_value = 0.0f);

/// Differentiable masked mean-absolute-error loss (paper Eq. 16). The mask
/// (truth != null_value) is treated as a constant.
Tensor MaskedMaeLoss(const Tensor& prediction, const Tensor& truth,
                     float null_value = 0.0f);

/// The `pct`-th percentile (0..100) of `samples` with linear interpolation
/// between order statistics (the "linear"/type-7 estimator NumPy defaults
/// to). 0 for an empty sample vector. Does not require sorted input.
double Percentile(const std::vector<double>& samples, double pct);

/// Latency summary of a sample vector — the serving-side numbers (p50 the
/// typical request, p95/p99 the tail SLO figures).
struct LatencyStats {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
  double max = 0.0;
  int64_t count = 0;
};

/// Computes LatencyStats over `samples` (any unit; callers pass ms). All
/// zeros for an empty vector.
LatencyStats SummarizeLatencies(const std::vector<double>& samples);

}  // namespace d2stgnn::metrics

#endif  // D2STGNN_METRICS_METRICS_H_
