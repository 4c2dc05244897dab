#include "train/evaluator.h"

#include <chrono>

#include "common/check.h"
#include "tensor/buffer_arena.h"
#include "tensor/ops.h"

namespace d2stgnn::train {
namespace {

// Adds one [B, Tf, N, ...] prediction/truth pair into per-horizon
// accumulators.
void AccumulateHorizons(const Tensor& prediction, const Tensor& truth,
                        const std::vector<int64_t>& horizons,
                        float null_value,
                        std::vector<metrics::MetricAccumulator>* accs) {
  D2_CHECK(prediction.shape() == truth.shape());
  D2_CHECK_GE(prediction.dim(), 3);
  const int64_t batch = prediction.size(0);
  const int64_t steps = prediction.size(1);
  const int64_t inner = prediction.numel() / (batch * steps);
  const float* p = prediction.Data().data();
  const float* t = truth.Data().data();
  for (size_t h = 0; h < horizons.size(); ++h) {
    const int64_t step = horizons[h] - 1;  // 1-based horizon
    D2_CHECK_GE(step, 0);
    D2_CHECK_LT(step, steps);
    for (int64_t b = 0; b < batch; ++b) {
      const int64_t offset = (b * steps + step) * inner;
      (*accs)[h].Add(p + offset, t + offset, inner, null_value);
    }
  }
}

}  // namespace

std::vector<HorizonMetrics> EvaluateHorizons(
    ForecastingModel* model, const data::StandardScaler* scaler,
    data::WindowDataLoader* loader, const std::vector<int64_t>& horizons,
    float null_value, EvaluationTiming* timing) {
  D2_CHECK(model != nullptr);
  D2_CHECK(loader != nullptr);
  using clock = std::chrono::steady_clock;
  const auto pass_start = clock::now();
  model->SetTraining(false);
  // Inference mode: no tape, and after the first batch every forward reuses
  // the first batch's buffers instead of allocating.
  InferenceModeGuard inference_mode;
  std::vector<metrics::MetricAccumulator> accs(horizons.size());
  std::vector<double> forward_ms;
  // Batch assembly runs on the pool; Forward stays sequential (models are
  // not required to be reentrant) but its kernels parallelize internally.
  const std::vector<data::Batch> batches = loader->AssembleAllBatches();
  forward_ms.reserve(batches.size());
  for (const data::Batch& batch : batches) {
    const auto start = clock::now();
    const Tensor prediction = scaler->InverseTransform(model->Forward(batch));
    forward_ms.push_back(
        std::chrono::duration<double, std::milli>(clock::now() - start)
            .count());
    AccumulateHorizons(prediction, batch.y, horizons, null_value, &accs);
  }
  model->SetTraining(true);
  if (timing != nullptr) {
    timing->forward_ms = metrics::SummarizeLatencies(forward_ms);
    timing->total_seconds =
        std::chrono::duration<double>(clock::now() - pass_start).count();
    timing->batches = static_cast<int64_t>(batches.size());
  }
  std::vector<HorizonMetrics> out(horizons.size());
  for (size_t h = 0; h < horizons.size(); ++h) {
    out[h].horizon = horizons[h];
    out[h].metrics = accs[h].Finish();
  }
  return out;
}

std::vector<HorizonMetrics> EvaluatePredictionHorizons(
    const Tensor& prediction, const Tensor& truth,
    const std::vector<int64_t>& horizons, float null_value) {
  std::vector<metrics::MetricAccumulator> accs(horizons.size());
  AccumulateHorizons(prediction, truth, horizons, null_value, &accs);
  std::vector<HorizonMetrics> out(horizons.size());
  for (size_t h = 0; h < horizons.size(); ++h) {
    out[h].horizon = horizons[h];
    out[h].metrics = accs[h].Finish();
  }
  return out;
}

Tensor CollectPredictions(ForecastingModel* model,
                          const data::StandardScaler* scaler,
                          data::WindowDataLoader* loader) {
  D2_CHECK(model != nullptr);
  D2_CHECK(loader != nullptr);
  model->SetTraining(false);
  NoGradGuard no_grad;
  // No arena here: the chunks all survive until the final Concat, so pooling
  // would only grow the pool without ever reusing a buffer.
  std::vector<Tensor> chunks;
  const std::vector<data::Batch> batches = loader->AssembleAllBatches();
  for (const data::Batch& batch : batches) {
    chunks.push_back(scaler->InverseTransform(model->Forward(batch)));
  }
  model->SetTraining(true);
  return Concat(chunks, 0);
}

}  // namespace d2stgnn::train
