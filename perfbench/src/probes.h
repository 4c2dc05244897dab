#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench.h"
#include "city.h"
#include "data/sliding_window.h"
#include "infer/session.h"

// Per-layer probes of the traced run. Each one calls a layer's public
// functions directly, on the workload's own model shapes, inputs and batch
// sizes, and records a span per timed call. They cover the layers that the
// workload only reaches inside a monolithic call (the server dispatcher,
// Trainer::Fit).

namespace perfbench {

/// Runs `fn` twice to warm up, then repeatedly until `budget_ms` is spent
/// (at least 5 and at most 2000 calls), each call inside a `span` span.
/// Returns the median call time, ms.
double TimeMedianMs(const char* span, double budget_ms, Tracer* tracer,
                    const std::function<void()>& fn);

/// kernels.* (matmul / softmax / elementwise add at the model's shapes) and
/// pool.parallel_for_us.
void ProbeKernels(const d2stgnn::core::D2StgnnConfig& config, int64_t batch,
                  Tracer* tracer, Report* report);

/// core.*: eager no-grad forwards of each paper component and of the whole
/// model at `batch` windows.
void ProbeCore(const d2stgnn::core::D2StgnnConfig& config,
               const d2stgnn::Tensor& adjacency,
               d2stgnn::train::ForecastingModel* model,
               const d2stgnn::data::Batch& batch, Tracer* tracer,
               Report* report);

/// exec.*: capture, verify and replay (serial and level-parallel) of the
/// model's forward at `batch`'s size.
void ProbeExec(d2stgnn::train::ForecastingModel* model,
               const d2stgnn::data::StandardScaler& scaler,
               const d2stgnn::data::Batch& batch, Tracer* tracer,
               Report* report);

/// session.assemble_us / session.predict_ms at batch 1 and 8, and
/// arena.fresh_allocs_after_warmup, on a warmed session.
void ProbeSession(d2stgnn::infer::InferenceSession* session,
                  const std::vector<d2stgnn::infer::ForecastRequest>& requests,
                  Tracer* tracer, Report* report);

/// train.forward_ms, autograd.backward_ms, optim.step_ms, data.get_batch_ms:
/// `steps` training steps (masked MAE + Adam) on `loader`'s batches; the
/// first two are warm-up.
void ProbeTrainStep(d2stgnn::train::ForecastingModel* model,
                    const d2stgnn::data::StandardScaler& scaler,
                    const d2stgnn::data::WindowDataLoader& loader,
                    int64_t steps, Tracer* tracer, Report* report);

/// session.plan_hit_frac and session.pad_waste_frac from the session and
/// lane counters of one serving phase (deltas), for a session planned at
/// batch sizes 1 and `max_batch`.
struct ServingCounters {
  d2stgnn::infer::SessionStats session;
  int64_t completed = 0;
  int64_t full_flushes = 0;
};
void ReportPlanUse(const ServingCounters& before, const ServingCounters& after,
                   int64_t max_batch, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
