#include "metrics/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "tensor/ops.h"

namespace d2stgnn::metrics {

void MetricAccumulator::Add(const float* prediction, const float* truth,
                            int64_t n, float null_value) {
  for (int64_t i = 0; i < n; ++i) {
    if (truth[i] == null_value) continue;
    const double err = static_cast<double>(prediction[i]) - truth[i];
    abs_sum += std::fabs(err);
    sq_sum += err * err;
    ++count;
    if (std::fabs(truth[i]) > 1e-2f) {
      ape_sum += std::fabs(err) / std::fabs(truth[i]);
      ++ape_count;
    }
  }
}

MetricSet MetricAccumulator::Finish() const {
  MetricSet m;
  m.count = count;
  if (count > 0) {
    m.mae = abs_sum / static_cast<double>(count);
    m.rmse = std::sqrt(sq_sum / static_cast<double>(count));
  }
  if (ape_count > 0) m.mape = ape_sum / static_cast<double>(ape_count);
  return m;
}

MetricSet ComputeMetrics(const Tensor& prediction, const Tensor& truth,
                         float null_value) {
  D2_CHECK(prediction.defined());
  D2_CHECK(truth.defined());
  D2_CHECK(prediction.shape() == truth.shape())
      << "metric shapes differ: " << ShapeToString(prediction.shape())
      << " vs " << ShapeToString(truth.shape());
  MetricAccumulator acc;
  acc.Add(prediction.Data().data(), truth.Data().data(), truth.numel(),
          null_value);
  return acc.Finish();
}

double Percentile(const std::vector<double>& samples, double pct) {
  if (samples.empty()) return 0.0;
  D2_CHECK_GE(pct, 0.0);
  D2_CHECK_LE(pct, 100.0);
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const double rank =
      pct / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

LatencyStats SummarizeLatencies(const std::vector<double>& samples) {
  LatencyStats stats;
  if (samples.empty()) return stats;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  // Interpolate on the already-sorted copy rather than calling Percentile
  // three times (each would re-sort).
  const auto at = [&sorted](double pct) {
    const double rank =
        pct / 100.0 * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  };
  stats.p50 = at(50.0);
  stats.p95 = at(95.0);
  stats.p99 = at(99.0);
  stats.max = sorted.back();
  double sum = 0.0;
  for (double s : sorted) sum += s;
  stats.mean = sum / static_cast<double>(sorted.size());
  stats.count = static_cast<int64_t>(sorted.size());
  return stats;
}

Tensor MaskedMaeLoss(const Tensor& prediction, const Tensor& truth,
                     float null_value) {
  D2_CHECK(prediction.shape() == truth.shape());
  // Constant 0/1 mask over valid entries.
  std::vector<float> mask_data(truth.Data().size());
  double valid = 0.0;
  const std::vector<float>& t = truth.Data();
  for (size_t i = 0; i < t.size(); ++i) {
    mask_data[i] = (t[i] == null_value) ? 0.0f : 1.0f;
    valid += mask_data[i];
  }
  if (valid == 0.0) return Sum(MulScalar(prediction, 0.0f));
  Tensor mask(truth.shape(), std::move(mask_data));
  Tensor abs_err = Abs(Sub(prediction, truth));
  return MulScalar(Sum(Mul(abs_err, mask)), 1.0f / static_cast<float>(valid));
}

}  // namespace d2stgnn::metrics
