// google-benchmark microbenchmarks of the kernels that dominate D2STGNN
// training: batched matmul, softmax, the localized transition construction,
// one decoupled-layer forward, and a full forward+backward step.
//
// The main() additionally sweeps the hot tensor kernels across every kernel
// backend this host can run (scalar reference vs AVX2 — the A/B the
// dispatch layer exists for) at 1/2/4 execution threads, and writes
// machine-readable per-op throughput through the experiment MetricsSink to
// the canonical repo-root BENCH_kernels.json (override the directory with
// D2STGNN_BENCH_OUT_DIR), so successive changes have a perf trajectory to
// compare against. Every matmul record also reports its fraction of this
// core's FMA peak, measured by a register-resident FMA loop (summary
// `fma_peak_gflops`), and every data-movement record (unit "bytes", the
// strided permute and broadcast walks) its `gb_per_s`.

#include <benchmark/benchmark.h>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/d2stgnn.h"
#include "data/synthetic_traffic.h"
#include "experiment/metrics_sink.h"
#include "graph/localized_transition.h"
#include "graph/transition.h"
#include "metrics/metrics.h"
#include "tensor/kernels/registry.h"
#include "tensor/ops.h"

namespace d2stgnn {
namespace {

void BM_MatMul2D(benchmark::State& state) {
  const int64_t n = state.range(0);
  SetNumThreads(static_cast<int>(state.range(1)));
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  state.SetLabel("threads=" + std::to_string(state.range(1)));
}
BENCHMARK(BM_MatMul2D)
    ->Args({32, 1})
    ->Args({64, 1})
    ->Args({128, 1})
    ->Args({128, 2})
    ->Args({128, 4});

void BM_BatchedMatMulBroadcast(benchmark::State& state) {
  const int64_t batch = state.range(0);
  SetNumThreads(static_cast<int>(state.range(1)));
  Rng rng(1);
  Tensor p = Tensor::Randn({20, 60}, rng);     // [N, kt*N]
  Tensor x = Tensor::Randn({batch, 60, 16}, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(p, x));
  }
  state.SetLabel("threads=" + std::to_string(state.range(1)));
}
BENCHMARK(BM_BatchedMatMulBroadcast)->Args({8, 1})->Args({32, 1})->Args({32, 4});

void BM_Softmax(benchmark::State& state) {
  SetNumThreads(static_cast<int>(state.range(0)));
  Rng rng(1);
  Tensor a = Tensor::Randn({64, 12, 12}, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Softmax(a, -1));
  }
  state.SetLabel("threads=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_Softmax)->Arg(1)->Arg(4);

void BM_LocalizedTransition(benchmark::State& state) {
  const int64_t n = state.range(0);
  SetNumThreads(1);
  Rng rng(1);
  Tensor p = Softmax(Tensor::Randn({n, n}, rng), -1);
  NoGradGuard no_grad;
  for (auto _ : state) {
    for (const Tensor& power : graph::TransitionPowers(p, 2)) {
      benchmark::DoNotOptimize(graph::LocalizedTransition(power, 3));
    }
  }
}
BENCHMARK(BM_LocalizedTransition)->Arg(20)->Arg(50);

// One full D2STGNN training step (forward + masked MAE + backward) at bench
// scale: the end-to-end cost every epoch is made of.
void BM_D2StgnnTrainStep(benchmark::State& state) {
  SetNumThreads(static_cast<int>(state.range(0)));
  data::SyntheticTrafficOptions options;
  options.network.num_nodes = 12;
  options.num_steps = 600;
  options.seed = 4;
  const data::SyntheticTraffic traffic = data::GenerateSyntheticTraffic(options);
  data::StandardScaler scaler;
  scaler.Fit(traffic.dataset.values, 400, true);
  const auto splits = data::MakeChronologicalSplits(600, 12, 12, 0.7f, 0.1f);
  data::WindowDataLoader loader(&traffic.dataset, &scaler, splits.train, 12,
                                12, 8);
  const data::Batch batch = loader.GetBatch(0);

  core::D2StgnnConfig config;
  config.num_nodes = 12;
  config.hidden_dim = 16;
  config.embed_dim = 8;
  Rng rng(2);
  core::D2Stgnn model(config, traffic.dataset.network.adjacency, rng);
  for (auto _ : state) {
    Tensor loss = metrics::MaskedMaeLoss(
        scaler.InverseTransform(model.Forward(batch)), batch.y);
    model.ZeroGrad();
    loss.Backward();
    benchmark::DoNotOptimize(loss.Item());
  }
  state.SetLabel("threads=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_D2StgnnTrainStep)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// Inference-only forward pass (NoGrad) for deployment-style latency.
void BM_D2StgnnInference(benchmark::State& state) {
  SetNumThreads(1);
  data::SyntheticTrafficOptions options;
  options.network.num_nodes = 12;
  options.num_steps = 600;
  options.seed = 4;
  const data::SyntheticTraffic traffic = data::GenerateSyntheticTraffic(options);
  data::StandardScaler scaler;
  scaler.Fit(traffic.dataset.values, 400, true);
  const auto splits = data::MakeChronologicalSplits(600, 12, 12, 0.7f, 0.1f);
  data::WindowDataLoader loader(&traffic.dataset, &scaler, splits.test, 12,
                                12, 8);
  const data::Batch batch = loader.GetBatch(0);

  core::D2StgnnConfig config;
  config.num_nodes = 12;
  config.hidden_dim = 16;
  config.embed_dim = 8;
  Rng rng(2);
  core::D2Stgnn model(config, traffic.dataset.network.adjacency, rng);
  model.SetTraining(false);
  NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Forward(batch));
  }
}
BENCHMARK(BM_D2StgnnInference)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// BENCH_kernels.json: hand-timed per-op throughput, backend x 1/2/4 threads.

struct JsonRecord {
  std::string op;
  std::string workload;
  std::string backend;
  int threads = 1;
  double seconds_per_iter = 0.0;
  double items_per_second = 0.0;  // op-specific unit, see `unit`
  std::string unit;
  double speedup_vs_1t = 1.0;
  /// This backend vs the scalar reference at the same thread count.
  double speedup_vs_scalar = 1.0;
};

// Times fn() with an adaptive iteration count (>= ~200 ms of work).
double TimeSecondsPerIter(const std::function<void()>& fn) {
  fn();  // warm-up (also spins up pool workers)
  int64_t iters = 1;
  for (;;) {
    Stopwatch timer;
    for (int64_t i = 0; i < iters; ++i) fn();
    const double elapsed = timer.ElapsedSeconds();
    if (elapsed >= 0.2 || iters > (1 << 20)) {
      return elapsed / static_cast<double>(iters);
    }
    iters *= 4;
  }
}

// One op measured across every runnable backend and thread count; `items`
// scales items_per_second. AvailableBackendNames() lists "scalar" first, so
// the scalar reference times are always on hand when the vector backends'
// speedup_vs_scalar is computed.
void SweepOp(const std::string& op, const std::string& workload, double items,
             const std::string& unit, const std::function<void()>& fn,
             std::vector<JsonRecord>* records) {
  std::map<int, double> scalar_seconds;  // threads -> scalar s/iter
  for (const std::string& backend : kernels::AvailableBackendNames()) {
    kernels::ScopedBackendOverride scoped(backend);
    double base_seconds = 0.0;
    for (int threads : {1, 2, 4}) {
      SetNumThreads(threads);
      JsonRecord r;
      r.op = op;
      r.workload = workload;
      r.backend = backend;
      r.threads = threads;
      r.seconds_per_iter = TimeSecondsPerIter(fn);
      r.items_per_second = items / r.seconds_per_iter;
      r.unit = unit;
      if (threads == 1) base_seconds = r.seconds_per_iter;
      r.speedup_vs_1t =
          r.seconds_per_iter > 0.0 ? base_seconds / r.seconds_per_iter : 1.0;
      if (backend == "scalar") scalar_seconds[threads] = r.seconds_per_iter;
      const auto scalar = scalar_seconds.find(threads);
      r.speedup_vs_scalar =
          scalar != scalar_seconds.end() && r.seconds_per_iter > 0.0
              ? scalar->second / r.seconds_per_iter
              : 1.0;
      std::printf("kernels.json: %-16s %-22s backend=%-7s threads=%d  "
                  "%.3e s/iter  %.2fx vs 1t  %.2fx vs scalar\n",
                  op.c_str(), workload.c_str(), backend.c_str(), threads,
                  r.seconds_per_iter, r.speedup_vs_1t, r.speedup_vs_scalar);
      records->push_back(r);
    }
  }
}

// Forward-only sweeps: no tape, as in serving.
void SweepForwardOps(Rng& rng, std::vector<JsonRecord>* records) {
  NoGradGuard no_grad;
  // One projection at each workload width: the [rows, d] x [d, d] products
  // every D2STGNN component spends most of its time in (d = 16 for Table 3,
  // d = 32 for the paper-width serving model).
  struct Projection {
    const char* workload;
    int64_t rows;
    int64_t d;
  };
  for (const Projection& p : {Projection{"[2688,16]x[16,16]", 2688, 16},
                              Projection{"[3072,32]x[32,32]", 3072, 32}}) {
    Tensor a = Tensor::Randn({p.rows, p.d}, rng);
    Tensor b = Tensor::Randn({p.d, p.d}, rng);
    const double flops = 2.0 * static_cast<double>(p.rows * p.d * p.d);
    SweepOp("matmul", p.workload, flops, "flops",
            [&] { benchmark::DoNotOptimize(MatMul(a, b)); }, records);
  }
  {
    // Batched MatMul: the Table 3 / Fig. 6 hot path.
    const int64_t batch = 16, m = 96, k = 96, n = 96;
    Tensor a = Tensor::Randn({batch, m, k}, rng);
    Tensor b = Tensor::Randn({batch, k, n}, rng);
    const double flops = 2.0 * static_cast<double>(batch * m * k * n);
    SweepOp("batched_matmul", "16x[96,96]x[96,96]", flops, "flops",
            [&] { benchmark::DoNotOptimize(MatMul(a, b)); }, records);
  }
  {
    // Serving-sized batch 4: the scalar-vs-SIMD acceptance workload (the
    // avx2 backend must clear 2x scalar here — see WriteKernelJson).
    const int64_t batch = 4, m = 96, k = 96, n = 96;
    Tensor a = Tensor::Randn({batch, m, k}, rng);
    Tensor b = Tensor::Randn({batch, k, n}, rng);
    const double flops = 2.0 * static_cast<double>(batch * m * k * n);
    SweepOp("batched_matmul", "4x[96,96]x[96,96]", flops, "flops",
            [&] { benchmark::DoNotOptimize(MatMul(a, b)); }, records);
  }
  {
    Tensor a = Tensor::Randn({256, 64, 64}, rng);
    SweepOp("softmax", "[256,64,64] dim=-1",
            static_cast<double>(a.numel()), "elements",
            [&] { benchmark::DoNotOptimize(Softmax(a, -1)); }, records);
  }
  {
    Tensor a = Tensor::Randn({1 << 22}, rng);
    SweepOp("sum", "[4194304]", static_cast<double>(a.numel()), "elements",
            [&] { benchmark::DoNotOptimize(Sum(a)); }, records);
  }
  {
    Tensor a = Tensor::Randn({1 << 22}, rng);
    Tensor b = Tensor::Randn({1 << 22}, rng);
    SweepOp("ewise_add", "[4194304]", static_cast<double>(a.numel()),
            "elements", [&] { benchmark::DoNotOptimize(Add(a, b)); },
            records);
  }
  // The strided walk at the Table-3 activation shape [B, T, N, d], counted
  // in bytes read and written: a permute that keeps the last dimension
  // (contiguous rows of d), one that swaps it (a stride-N gather), and the
  // estimation gate's [..., N, d] x [..., N, 1] broadcast.
  const Shape act = {16, 12, 12, 16};
  const double act_bytes = 4.0 * static_cast<double>(NumElements(act));
  {
    Tensor a = Tensor::Randn(act, rng);
    for (const std::vector<int64_t>& perm :
         {std::vector<int64_t>{0, 2, 1, 3}, std::vector<int64_t>{0, 1, 3, 2}}) {
      const std::string workload = "[16,12,12,16] perm (" +
                                   std::to_string(perm[0]) + "," +
                                   std::to_string(perm[1]) + "," +
                                   std::to_string(perm[2]) + "," +
                                   std::to_string(perm[3]) + ")";
      SweepOp("permute", workload, 2.0 * act_bytes, "bytes",
              [&] { benchmark::DoNotOptimize(Permute(a, perm)); }, records);
    }
  }
  {
    Tensor a = Tensor::Randn(act, rng);
    Tensor gate = Tensor::Randn({16, 12, 12, 1}, rng);
    SweepOp("broadcast_mul", "[16,12,12,16]x[16,12,12,1]",
            2.0 * act_bytes + act_bytes / 16.0, "bytes",
            [&] { benchmark::DoNotOptimize(Mul(a, gate)); }, records);
  }
}

// MatMul forward + backward (grad enabled) on the Table-3 training shapes:
// a Linear's shared weight under [B, N, T, d] activations (the flattened
// product) and the diffusion block's per-batch [T, k_t*d] x [k_t*d, d].
// Counts the forward and both gradient products.
void SweepMatMulFwdBwd(Rng& rng, std::vector<JsonRecord>* records) {
  struct FwdBwdCase {
    const char* workload;
    Shape a;
    Shape b;
  };
  const FwdBwdCase cases[] = {
      {"[16,14,12,16]x[16,16]", {16, 14, 12, 16}, {16, 16}},
      {"[16,12,36]x[16,36,16]", {16, 12, 36}, {16, 36, 16}},
  };
  for (const FwdBwdCase& c : cases) {
    Tensor a = Tensor::Randn(c.a, rng).SetRequiresGrad(true);
    Tensor b = Tensor::Randn(c.b, rng).SetRequiresGrad(true);
    const Tensor probe = MatMul(a, b);
    const double flops = 3.0 * 2.0 * static_cast<double>(probe.numel()) *
                         static_cast<double>(a.size(-1));
    SweepOp("matmul_fwd_bwd", c.workload, flops, "flops",
            [&] {
              a.ZeroGrad();
              b.ZeroGrad();
              Sum(MatMul(a, b)).Backward();
            },
            records);
  }
}

#if defined(__x86_64__) || defined(__i386__)
// kChains independent FMA chains over registers only: no loads or stores in
// the loop, and enough chains in flight to cover the FMA latency on both
// ports. Returns GFLOP/s of one thread.
__attribute__((target("avx2,fma"))) double FmaLoopGflops(float seed,
                                                         int64_t iters) {
  constexpr int kChains = 10;
  __m256 acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm256_set1_ps(seed * (c + 1));
  const __m256 x = _mm256_set1_ps(1.0f - seed * 1e-6f);
  const __m256 y = _mm256_set1_ps(seed * 1e-3f);
  Stopwatch timer;
  for (int64_t i = 0; i < iters; ++i) {
    for (int c = 0; c < kChains; ++c) acc[c] = _mm256_fmadd_ps(acc[c], x, y);
  }
  const double seconds = timer.ElapsedSeconds();
  __m256 total = acc[0];
  for (int c = 1; c < kChains; ++c) total = _mm256_add_ps(total, acc[c]);
  benchmark::DoNotOptimize(total);
  const double flops = 2.0 * 8.0 * kChains * static_cast<double>(iters);
  return flops / seconds * 1e-9;
}
#endif

// This core's single-precision FMA peak in GFLOP/s: the best of many short
// register-resident runs, so a stretch of time the host gives to other
// work does not set it. 0 when the host cannot run AVX2+FMA.
double MeasureFmaPeakGflops() {
#if defined(__x86_64__) || defined(__i386__)
  if (kernels::Avx2BackendOrNull() == nullptr) return 0.0;
  // A value the compiler cannot fold. It must stay 1: a denormal seed
  // makes every FMA take a microcode assist.
  volatile float seed_source = 1.0f;
  const float seed = seed_source;
  double best = 0.0;
  for (int run = 0; run < 50; ++run) {
    best = std::max(best, FmaLoopGflops(seed, int64_t{1} << 21));
  }
  return best;
#else
  return 0.0;
#endif
}

std::vector<JsonRecord> CollectKernelRecords() {
  std::vector<JsonRecord> records;
  Rng rng(1);
  SweepForwardOps(rng, &records);
  SweepMatMulFwdBwd(rng, &records);
  SetNumThreads(1);
  return records;
}

// Routes the sweep through the unified sink: same schema-versioned envelope
// as every run_experiment result.
int WriteKernelJson(const std::string& path,
                    const std::vector<JsonRecord>& records) {
  namespace exp = d2stgnn::experiment;
  exp::MetricsSink sink("kernels", "kernels");
  const double peak_gflops = MeasureFmaPeakGflops();
  sink.SetSummary("fma_peak_gflops", json::Value::Number(peak_gflops));
  std::printf("fma peak: %.1f GFLOP/s per thread\n", peak_gflops);
  for (const JsonRecord& r : records) {
    json::Value record = json::Value::Object();
    record.Set("op", json::Value::Str(r.op));
    record.Set("workload", json::Value::Str(r.workload));
    record.Set("backend", json::Value::Str(r.backend));
    record.Set("threads", json::Value::Int(r.threads));
    record.Set("seconds_per_iter", json::Value::Number(r.seconds_per_iter));
    record.Set("items_per_second", json::Value::Number(r.items_per_second));
    record.Set("unit", json::Value::Str(r.unit));
    record.Set("speedup_vs_1t", json::Value::Number(r.speedup_vs_1t));
    record.Set("speedup_vs_scalar", json::Value::Number(r.speedup_vs_scalar));
    if (r.unit == "bytes") {
      record.Set("gb_per_s", json::Value::Number(r.items_per_second * 1e-9));
    }
    if (r.unit == "flops") {
      // Of `threads` cores at the measured peak; 0 when it was not measured.
      const double ceiling = peak_gflops * 1e9 * r.threads;
      record.Set("peak_fraction",
                 json::Value::Number(
                     ceiling > 0.0 ? r.items_per_second / ceiling : 0.0));
    }
    sink.AddRecord(std::move(record));
  }
  // Headline A/B: avx2 vs scalar on the serving-sized batch-4 matmul at one
  // thread (the refactor's acceptance bar is >= 2x). Only present when the
  // host runs both backends.
  for (const JsonRecord& r : records) {
    if (r.backend == "avx2" && r.op == "batched_matmul" &&
        r.workload == "4x[96,96]x[96,96]" && r.threads == 1) {
      sink.SetSummary("avx2_batch4_matmul_speedup_vs_scalar",
                      json::Value::Number(r.speedup_vs_scalar));
      std::printf("acceptance: avx2 batched_matmul 4x[96,96]x[96,96] is "
                  "%.2fx scalar at 1 thread (target >= 2x)\n",
                  r.speedup_vs_scalar);
    }
  }
  std::string error;
  if (!sink.WriteJson(path, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace d2stgnn

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const char* out_dir = std::getenv("D2STGNN_BENCH_OUT_DIR");
  const std::string dir = out_dir != nullptr ? out_dir : D2STGNN_REPO_ROOT;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  const auto records = d2stgnn::CollectKernelRecords();
  return d2stgnn::WriteKernelJson(dir + "/BENCH_kernels.json", records);
}
