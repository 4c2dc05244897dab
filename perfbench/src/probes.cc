#include "probes.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/diffusion_block.h"
#include "core/dynamic_graph.h"
#include "core/estimation_gate.h"
#include "core/inherent_block.h"
#include "exec/graph_capture.h"
#include "exec/plan_executor.h"
#include "exec/plan_verifier.h"
#include "graph/localized_transition.h"
#include "graph/transition.h"
#include "metrics/metrics.h"
#include "optim/adam.h"
#include "tensor/buffer_arena.h"
#include "tensor/kernels.h"
#include "tensor/kernels/registry.h"
#include "tensor/ops.h"

namespace perfbench {

namespace d2 = d2stgnn;
using d2::Tensor;

double TimeMedianMs(const char* span, double budget_ms, Tracer* tracer,
                    const std::function<void()>& fn) {
  fn();
  fn();
  std::vector<double> times;
  const Clock::time_point start = Clock::now();
  while (times.size() < 2000 &&
         (times.size() < 5 || MsSince(start) < budget_ms)) {
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Scope s(tracer, span, -1);
      fn();
    }
    times.push_back(MsSince(t0));
  }
  return Median(std::move(times));
}

void ProbeKernels(const d2::core::D2StgnnConfig& c, int64_t batch,
                  Tracer* tracer, Report* report) {
  const d2::kernels::KernelBackend& backend = d2::kernels::ActiveBackend();
  d2::Rng rng(11);
  // The hidden projections: [B*T*N, d] x [d, d].
  const int64_t m = batch * c.input_len * c.num_nodes;
  const int64_t k = c.hidden_dim;
  const int64_t n = c.hidden_dim;
  const Tensor a = Tensor::Randn({m, k}, rng);
  const Tensor b = Tensor::Randn({k, n}, rng);
  std::vector<float> out(static_cast<size_t>(m * n));
  const double matmul_ms =
      TimeMedianMs("kernels.matmul", 150.0, tracer, [&] {
        d2::kernels::BatchedMatMul(backend, a.Data().data(), b.Data().data(),
                                   out.data(), {0}, {0}, m, k, n);
      });
  report->Set("kernels.matmul_gflops",
              2.0 * static_cast<double>(m * k * n) / (matmul_ms * 1e6),
              "GFLOP/s");

  // Attention scores of the inherent block: softmax over T keys for every
  // (batch, node, head, query).
  const int64_t rows = batch * c.num_nodes * c.num_heads * c.input_len;
  const Tensor scores = Tensor::Randn({rows, c.input_len}, rng);
  std::vector<float> probs(static_cast<size_t>(scores.numel()));
  const double softmax_ms =
      TimeMedianMs("kernels.softmax", 150.0, tracer, [&] {
        d2::kernels::SoftmaxKernel(backend, scores.Data().data(), probs.data(),
                                   rows, c.input_len, 1);
      });
  report->Set("kernels.softmax_gbps",
              2.0 * 4.0 * static_cast<double>(scores.numel()) /
                  (softmax_ms * 1e6),
              "GB/s");

  // Residual adds on the hidden sequence [B, T, N, d].
  const int64_t hidden = batch * c.input_len * c.num_nodes * c.hidden_dim;
  const Tensor x = Tensor::Randn({hidden}, rng);
  const Tensor y = Tensor::Randn({hidden}, rng);
  std::vector<float> sum(static_cast<size_t>(hidden));
  const double add_ms = TimeMedianMs("kernels.ewise_add", 150.0, tracer, [&] {
    d2::kernels::EwiseBinary(backend, d2::kernels::BinaryKind::kAdd, x.Data().data(),
                             y.Data().data(), sum.data(), hidden);
  });
  report->Set("kernels.ewise_add_gbps",
              3.0 * 4.0 * static_cast<double>(hidden) / (add_ms * 1e6),
              "GB/s");

  // One ParallelFor dispatch that splits into as many chunks as the pool
  // has threads, with trivial bodies: the pool's fork/join cost.
  std::atomic<int64_t> sink{0};
  const int64_t chunks = std::max(2, d2::GetNumThreads());
  const double pool_ms = TimeMedianMs("pool.parallel_for", 100.0, tracer, [&] {
    d2::ParallelFor(0, chunks, 1, [&](int64_t lo, int64_t hi) {
      sink.fetch_add(hi - lo, std::memory_order_relaxed);
    });
  });
  report->Set("pool.parallel_for_us", pool_ms * 1000.0, "us");
}

void ProbeCore(const d2::core::D2StgnnConfig& c, const Tensor& adjacency,
               d2::train::ForecastingModel* model, const d2::data::Batch& batch,
               Tracer* tracer, Report* report) {
  d2::InferenceModeGuard inference;
  d2::Rng rng(13);
  const int64_t b = batch.batch_size;
  const int64_t t = c.input_len;
  const int64_t nn = c.num_nodes;
  const int64_t d = c.hidden_dim;
  const int64_t de = c.embed_dim;
  const Tensor x = Tensor::Randn({b, t, nn, d}, rng);
  const Tensor t_day = Tensor::Randn({b, t, de}, rng);
  const Tensor t_week = Tensor::Randn({b, t, de}, rng);
  const Tensor day_last = Tensor::Randn({b, de}, rng);
  const Tensor week_last = Tensor::Randn({b, de}, rng);
  const Tensor e_u = Tensor::Randn({nn, de}, rng);
  const Tensor e_d = Tensor::Randn({nn, de}, rng);
  const Tensor p_f = d2::graph::ForwardTransition(adjacency);
  const Tensor p_b = d2::graph::BackwardTransition(adjacency);

  d2::core::DynamicGraphLearner learner(t, d, de, rng);
  std::pair<Tensor, Tensor> dynamic;
  report->Set("core.dynamic_graph_ms",
              TimeMedianMs("core.dynamic_graph", 200.0, tracer, [&] {
                dynamic = learner.Forward(x, day_last, week_last, e_u, e_d,
                                          p_f, p_b);
              }),
              "ms");
  // Supports as the model builds them: the two dynamic transitions plus a
  // static stand-in for the adaptive one, each localized to k_s powers.
  std::vector<std::vector<Tensor>> supports;
  for (const Tensor& p : {dynamic.first, dynamic.second, p_f}) {
    std::vector<Tensor> localized;
    for (const Tensor& power : d2::graph::TransitionPowers(p, c.k_s)) {
      localized.push_back(d2::graph::LocalizedTransition(power, c.k_t));
    }
    supports.push_back(std::move(localized));
  }
  d2::core::DiffusionBlock diffusion(d, c.k_s, c.k_t, 3, c.output_len,
                                     /*autoregressive=*/true, rng);
  report->Set("core.diffusion_ms",
              TimeMedianMs("core.diffusion", 200.0, tracer,
                           [&] { (void)diffusion.Forward(x, supports); }),
              "ms");
  d2::core::InherentBlock inherent(d, c.num_heads, c.output_len, t,
                                   /*use_gru=*/true, /*use_msa=*/true,
                                   /*autoregressive=*/true, rng);
  report->Set("core.inherent_ms",
              TimeMedianMs("core.inherent", 200.0, tracer,
                           [&] { (void)inherent.Forward(x); }),
              "ms");
  d2::core::EstimationGate gate(de, d, rng);
  report->Set("core.gate_ms",
              TimeMedianMs("core.gate", 100.0, tracer, [&] {
                (void)gate.Forward(t_day, t_week, e_u, e_d, x);
              }),
              "ms");
  report->Set("core.d2stgnn_ms",
              TimeMedianMs("core.d2stgnn", 300.0, tracer,
                           [&] { (void)model->Forward(batch); }),
              "ms");
}

void ProbeExec(d2::train::ForecastingModel* model,
               const d2::data::StandardScaler& scaler,
               const d2::data::Batch& batch, Tracer* tracer, Report* report) {
  std::shared_ptr<const d2::exec::ExecutionPlan> plan;
  std::vector<double> capture_ms;
  for (int i = 0; i < 3; ++i) {
    d2::InferenceModeGuard inference;
    const Clock::time_point t0 = Clock::now();
    Tracer::Scope span(tracer, "exec.capture", -1);
    d2::exec::GraphCapture capture;
    capture.BindInput("x", batch.x);
    capture.BindIndexInput("tod", batch.time_of_day);
    capture.BindIndexInput("dow", batch.day_of_week);
    const Tensor out = scaler.InverseTransform(model->Forward(batch));
    plan = capture.Finish(out);
    capture_ms.push_back(MsSince(t0));
  }
  report->Check(plan != nullptr, "probe: plan capture succeeds");
  if (plan == nullptr) return;
  report->Set("exec.capture_ms", Median(capture_ms), "ms", 3);
  bool verified = true;
  report->Set("exec.verify_ms",
              TimeMedianMs("exec.verify", 200.0, tracer, [&] {
                verified = d2::exec::VerifyPlan(*plan).ok() && verified;
              }),
              "ms");
  report->Check(verified, "probe: captured plan verifies clean");
  report->Set("exec.plan_steps", static_cast<double>(plan->steps().size()),
              "count");
  report->Set("exec.plan_levels", static_cast<double>(plan->levels().size()),
              "count");
  report->Set("exec.slab_mb",
              static_cast<double>(plan->slab_floats()) * 4.0 / (1024.0 * 1024.0),
              "MB");

  d2::exec::PlanExecutor executor(plan);
  const std::vector<d2::exec::InputBinding> inputs = {
      {batch.x.Data().data(), batch.x.numel()}};
  const std::vector<const std::vector<int64_t>*> index_inputs = {
      &batch.time_of_day, &batch.day_of_week};
  bool replayed = true;
  const auto replay = [&](d2::exec::ReplayMode mode) {
    replayed = executor.Run(inputs, index_inputs, mode) ==
                   d2::exec::ReplayStatus::kOk &&
               replayed;
  };
  const std::string b = std::to_string(batch.batch_size);
  report->Set("exec.replay_ms.b" + b + ".level_parallel",
              TimeMedianMs("exec.replay.level_parallel", 300.0, tracer,
                           [&] { replay(d2::exec::ReplayMode::kLevelParallel); }),
              "ms");
  report->Set("exec.replay_ms.b" + b + ".serial",
              TimeMedianMs("exec.replay.serial", 300.0, tracer,
                           [&] { replay(d2::exec::ReplayMode::kSerial); }),
              "ms");
  report->Check(replayed, "probe: plan replays return kOk");
}

void ProbeSession(d2::infer::InferenceSession* session,
                  const std::vector<d2::infer::ForecastRequest>& requests,
                  Tracer* tracer, Report* report) {
  for (const int64_t size : {int64_t{1}, int64_t{8}}) {
    std::vector<d2::infer::ForecastRequest> batch;
    for (int64_t i = 0; i < size; ++i) {
      batch.push_back(requests[static_cast<size_t>(i) % requests.size()]);
    }
    const std::string b = std::to_string(size);
    report->Set("session.assemble_us.b" + b,
                1000.0 * TimeMedianMs("infer.session.assemble", 100.0, tracer,
                                      [&] {
                                        (void)session->AssembleBatch(batch);
                                      }),
                "us");
    report->Set("session.predict_ms.b" + b,
                TimeMedianMs("infer.session.predict", 200.0, tracer,
                             [&] { (void)session->PredictRequests(batch); }),
                "ms");
  }
  // Every batch size a server forms (1..8), after warm-up at 1 and 8: no
  // new tensor buffers may be allocated.
  const int64_t before = session->arena_stats().fresh_allocations;
  for (int64_t size = 1; size <= 8; ++size) {
    std::vector<d2::infer::ForecastRequest> batch(
        requests.begin(), requests.begin() + std::min<int64_t>(
                                                 size, static_cast<int64_t>(
                                                           requests.size())));
    (void)session->PredictRequests(batch);
  }
  report->Set("arena.fresh_allocs_after_warmup",
              static_cast<double>(session->arena_stats().fresh_allocations -
                                  before),
              "count");
}

void ProbeTrainStep(d2::train::ForecastingModel* model,
                    const d2::data::StandardScaler& scaler,
                    const d2::data::WindowDataLoader& loader, int64_t steps,
                    Tracer* tracer, Report* report) {
  d2::optim::Adam adam(model->Parameters(), 1e-3f);
  model->SetTraining(true);
  std::vector<double> get_ms, fwd_ms, bwd_ms, step_ms;
  for (int64_t i = 0; i < steps; ++i) {
    Clock::time_point t0 = Clock::now();
    d2::data::Batch batch;
    {
      Tracer::Scope s(tracer, "data.get_batch", -1);
      batch = loader.GetBatch(i % loader.NumBatches());
    }
    get_ms.push_back(MsSince(t0));
    t0 = Clock::now();
    Tensor loss;
    {
      Tracer::Scope s(tracer, "train.forward", -1);
      loss = d2::metrics::MaskedMaeLoss(
          scaler.InverseTransform(model->Forward(batch)), batch.y, 0.0f);
    }
    fwd_ms.push_back(MsSince(t0));
    t0 = Clock::now();
    {
      Tracer::Scope s(tracer, "autograd.backward", -1);
      adam.ZeroGrad();
      loss.Backward();
    }
    bwd_ms.push_back(MsSince(t0));
    t0 = Clock::now();
    {
      Tracer::Scope s(tracer, "optim.step", -1);
      adam.Step();
    }
    step_ms.push_back(MsSince(t0));
  }
  // The first two steps pay one-off allocation costs.
  const auto steady = [](std::vector<double> v) {
    if (v.size() > 4) v.erase(v.begin(), v.begin() + 2);
    return Median(std::move(v));
  };
  const int64_t n = std::max<int64_t>(0, steps - 2);
  report->Set("data.get_batch_ms", steady(get_ms), "ms", n);
  report->Set("train.forward_ms", steady(fwd_ms), "ms", n);
  report->Set("autograd.backward_ms", steady(bwd_ms), "ms", n);
  report->Set("optim.step_ms", steady(step_ms), "ms", n);
}

void ReportPlanUse(const ServingCounters& before, const ServingCounters& after,
                   int64_t max_batch, Report* report) {
  const int64_t replays =
      after.session.plan_replays - before.session.plan_replays;
  const int64_t padded =
      after.session.padded_replays - before.session.padded_replays;
  const int64_t eager =
      after.session.eager_forwards - before.session.eager_forwards;
  report->Set("session.plan_hit_frac",
              replays + eager > 0
                  ? static_cast<double>(replays) /
                        static_cast<double>(replays + eager)
                  : 0.0,
              "frac", replays + eager);
  // Plans exist at sizes 1 and max_batch, so an unpadded replay is either a
  // full flush (max_batch rows) or a single request; every other batch was
  // padded up to max_batch. Rows computed minus rows requested is waste.
  const int64_t full = std::min(replays - padded,
                                after.full_flushes - before.full_flushes);
  const int64_t singles = std::max<int64_t>(0, replays - padded - full);
  const int64_t computed = singles + max_batch * (full + padded);
  const int64_t requested = after.completed - before.completed;
  const double waste =
      computed > 0 && eager == 0
          ? std::clamp(static_cast<double>(computed - requested) /
                           static_cast<double>(computed),
                       0.0, 1.0)
          : 0.0;
  report->Set("session.pad_waste_frac", waste, "frac", computed);
}

}  // namespace perfbench
