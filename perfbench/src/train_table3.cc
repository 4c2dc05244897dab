// train_table3: Trainer::Fit on D²STGNN with the Table-3 protocol widths
// (experiment::BenchEnv defaults: d=16, embed 8, batch 16, Adam + masked
// MAE + curriculum) on the METR-LA preset. Each round trains a freshly
// initialized model for a fixed number of optimizer steps with early
// stopping off, then runs the one validation pass Fit ends its epoch with.
// The autograd tape, backward kernels, Adam and the window loader do all
// the work; the server, session and plans do none.

#include <cmath>
#include <cstring>
#include <memory>

#include "baselines/registry.h"
#include "common/thread_pool.h"
#include "experiment/protocol.h"
#include "serving.h"
#include "train/checkpoint.h"
#include "train/trainer.h"
#include "workloads.h"

namespace perfbench {

namespace d2 = d2stgnn;

namespace {

/// Wraps the trained model so the benchmark sees every Forward the trainer
/// makes: the interval between two consecutive training-mode forwards is one
/// optimizer step (forward, loss, backward, Adam; Fit assembles every batch
/// before the first step), and the first eval-mode forward marks the end of
/// training.
class TimedModel : public d2::train::ForecastingModel {
 public:
  TimedModel(std::unique_ptr<d2::train::ForecastingModel> inner,
             Tracer* tracer)
      : ForecastingModel("timed"), inner_(std::move(inner)), tracer_(tracer) {
    RegisterChild(inner_.get());
  }

  d2::Tensor Forward(const d2::data::Batch& batch) override {
    if (training()) {
      train_forwards_.push_back(Clock::now());
    } else if (eval_start_ == Clock::time_point{}) {
      eval_start_ = Clock::now();
    }
    Tracer::Scope span(tracer_,
                       training() ? "core.d2stgnn.train_forward"
                                  : "core.d2stgnn.eval_forward",
                       -1);
    return inner_->Forward(batch);
  }
  int64_t horizon() const override { return inner_->horizon(); }

  d2::train::ForecastingModel* inner() { return inner_.get(); }
  int64_t train_forwards() const {
    return static_cast<int64_t>(train_forwards_.size());
  }
  /// Durations, ms, of the steps that end at the next training forward.
  /// The last step of the epoch ends in Fit's validation set-up instead,
  /// so it is left out.
  std::vector<double> StepMs() const {
    std::vector<double> out;
    for (size_t i = 0; i + 1 < train_forwards_.size(); ++i) {
      out.push_back(MsBetween(train_forwards_[i], train_forwards_[i + 1]));
    }
    return out;
  }
  /// Seconds from `fit_start` (entry into Fit: batch assembly, shuffle,
  /// parameter snapshot, then every step) to the first eval forward.
  double TrainSeconds(Clock::time_point fit_start) const {
    return MsBetween(fit_start, eval_start_) / 1000.0;
  }

 private:
  std::unique_ptr<d2::train::ForecastingModel> inner_;
  Tracer* tracer_;
  std::vector<Clock::time_point> train_forwards_;
  Clock::time_point eval_start_{};
};

struct Round {
  double windows_per_s = 0.0;
  double val_mae = 0.0;
  int64_t steps = 0;
  int64_t rollbacks = 0;
  bool completed = false;
  std::vector<double> step_ms;
};

}  // namespace

void RunTrainTable3(RunContext* ctx) {
  const Config& cfg = ctx->config;
  Report& report = ctx->report;
  d2::SetNumThreads(static_cast<int>(cfg.Int("pool_threads")));
  const d2::experiment::BenchEnv env;  // protocol defaults, no env overrides
  const int64_t steps = cfg.Int("steps");
  const int64_t batch = env.batch_size;

  // The city spec carries the protocol widths so serving probes can rebuild
  // the same architecture (baselines::MakeModel's D²STGNN config).
  json::Value city_spec = cfg.Section("city");
  city_spec.Set("scale", json::Value::Number(env.scale));
  city_spec.Set("hidden", json::Value::Int(env.hidden_dim));
  city_spec.Set("embed", json::Value::Int(env.embed_dim));
  city_spec.Set("layers", json::Value::Int(2));
  city_spec.Set("heads", json::Value::Int(4));
  city_spec.Set("weights_seed", json::Value::Int(static_cast<int64_t>(env.seed)));

  std::unique_ptr<City> city;
  d2::data::SplitWindows splits;
  std::unique_ptr<d2::data::WindowDataLoader> train_loader;
  std::unique_ptr<d2::data::WindowDataLoader> val_loader;
  d2::baselines::ModelConfig model_config;
  std::vector<double> setup_s;
  for (int64_t rep = 0; rep < cfg.Int("setup_repeats"); ++rep) {
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Scope span(&ctx->tracer, "data.generate", -1);
      city = MakeCity("metr-la", city_spec, ctx->seed);
    }
    const int64_t n_steps = city->traffic.dataset.num_steps();
    splits = d2::data::MakeChronologicalSplits(n_steps, 12, 12, 0.7f, 0.1f);
    splits.train = SampleWindows(splits.train, steps * batch, ctx->seed);
    splits.val = SampleWindows(splits.val, cfg.Int("val_windows"),
                               ctx->seed + 1);
    train_loader = std::make_unique<d2::data::WindowDataLoader>(
        &city->traffic.dataset, &city->scaler, splits.train, 12, 12, batch);
    val_loader = std::make_unique<d2::data::WindowDataLoader>(
        &city->traffic.dataset, &city->scaler, splits.val, 12, 12, batch);
    model_config.num_nodes = city->nodes();
    model_config.hidden_dim = env.hidden_dim;
    model_config.embed_dim = env.embed_dim;
    model_config.steps_per_day = city->config.steps_per_day;
    {
      Tracer::Scope span(&ctx->tracer, "core.build_model", -1);
      d2::Rng rng(env.seed);
      (void)d2::baselines::MakeModel("D2STGNN", model_config,
                                     city->traffic.dataset.network.adjacency,
                                     rng);
    }
    setup_s.push_back(MsSince(t0) / 1000.0);
  }
  report.Set("setup_s", Median(setup_s), "s",
             static_cast<int64_t>(setup_s.size()));
  report.Check(train_loader->NumBatches() == steps,
               "train split holds exactly " + std::to_string(steps) +
                   " batches of " + std::to_string(batch));

  d2::train::TrainerOptions options;
  options.epochs = 1;
  options.patience = 0;  // early stopping off
  options.seed = env.seed;

  // Rounds of identical work (fresh model, same seed) until the time is up;
  // the traced run spends half its time untraced, half traced.
  std::vector<std::vector<Round>> passes;
  std::unique_ptr<TimedModel> last;
  for (int pass = 0; pass < (ctx->trace ? 2 : 1); ++pass) {
    ctx->tracer.set_enabled(ctx->trace && pass == 1);
    const double budget_s = ctx->trace ? ctx->seconds / 2.0 : ctx->seconds;
    std::vector<Round> rounds;
    const Clock::time_point start = Clock::now();
    while (rounds.size() < 2 ||
           (MsSince(start) / 1000.0 < budget_s && rounds.size() < 50)) {
      d2::Rng rng(env.seed);
      auto model = std::make_unique<TimedModel>(
          d2::baselines::MakeModel("D2STGNN", model_config,
                                   city->traffic.dataset.network.adjacency,
                                   rng),
          &ctx->tracer);
      d2::train::Trainer trainer(model.get(), &city->scaler, options);
      d2::train::FitResult fit;
      const Clock::time_point fit_start = Clock::now();
      {
        Tracer::Scope span(&ctx->tracer, "train.fit", -1);
        fit = trainer.Fit(train_loader.get(), val_loader.get());
      }
      Round r;
      r.steps = model->train_forwards();
      r.windows_per_s = static_cast<double>(r.steps * batch) /
                        std::max(1e-9, model->TrainSeconds(fit_start));
      r.val_mae = fit.history.empty() ? NAN : fit.history.back().validation.mae;
      r.rollbacks = fit.divergence_rollbacks;
      r.completed = fit.stop_reason == d2::train::StopReason::kCompleted;
      r.step_ms = model->StepMs();
      rounds.push_back(std::move(r));
      last = std::move(model);
    }
    passes.push_back(std::move(rounds));
  }
  const std::vector<Round>& rounds = passes.back();

  std::vector<double> windows_per_s;
  std::vector<double> step_ms;
  int64_t total_steps = 0;
  int64_t rollbacks = 0;
  bool deterministic = true;
  bool completed = true;
  const double val_mae = passes.front().front().val_mae;
  for (const auto& pass : passes) {
    for (const Round& r : pass) {
      total_steps += r.steps;
      rollbacks += r.rollbacks;
      completed = completed && r.completed && r.steps == steps;
      deterministic = deterministic &&
                      std::memcmp(&r.val_mae, &val_mae, sizeof(double)) == 0;
    }
  }
  for (const Round& r : rounds) {
    windows_per_s.push_back(r.windows_per_s);
    // The first step of a round pays the model's one-off allocations; the
    // step latencies describe the steady state (goodput still counts it).
    if (!r.step_ms.empty()) {
      step_ms.insert(step_ms.end(), r.step_ms.begin() + 1, r.step_ms.end());
    }
  }
  const double reference = cfg.Num("reference_val_mae");
  const double tolerance = cfg.Num("val_mae_tolerance");
  report.Check(completed, "every round ran all " + std::to_string(steps) +
                              " steps and completed");
  report.Check(std::isfinite(val_mae), "val_mae is finite");
  report.Check(std::fabs(val_mae - reference) <= tolerance * reference,
               "val_mae " + std::to_string(val_mae) + " within " +
                   std::to_string(tolerance * 100.0) +
                   "% of the reference " + std::to_string(reference));
  report.Check(deterministic,
               "every round reached the same val_mae bit for bit");
  report.CountOps(total_steps, rollbacks);

  report.Set("p50_ms", Percentile(step_ms, 0.5), "ms",
             static_cast<int64_t>(step_ms.size()));
  report.Set("p99_ms", Percentile(step_ms, 0.99), "ms",
             static_cast<int64_t>(step_ms.size()));
  report.Set("goodput_per_s", Median(windows_per_s), "1/s",
             static_cast<int64_t>(windows_per_s.size()));
  report.Set("forecast_mae", val_mae, "mph", val_loader->num_samples());

  // Publishing the trained model: save it, then Load + Warmup + swap into a
  // holder, as a serving process would pick it up.
  const std::string ckpt = ctx->out_dir + "/trained.d2ck";
  std::vector<double> save_ms;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t0 = Clock::now();
    Tracer::Scope span(&ctx->tracer, "checkpoint.save", -1);
    report.Check(d2::train::SaveCheckpoint(*last->inner(), ckpt),
                 "trained checkpoint saved");
    save_ms.push_back(MsSince(t0));
  }
  std::shared_ptr<d2::infer::InferenceSession> published;
  std::vector<ReloadTiming> reloads;
  for (int64_t i = 0; i < cfg.Int("reloads"); ++i) {
    reloads.push_back(TimedReload(
        *city, ckpt, 8,
        [&](std::shared_ptr<d2::infer::InferenceSession> next) {
          std::atomic_store(&published, std::move(next));
        },
        &ctx->tracer));
  }
  std::vector<double> reload_ms;
  for (const ReloadTiming& r : reloads) reload_ms.push_back(r.total_ms());
  report.Set("reload_ms", Median(reload_ms), "ms",
             static_cast<int64_t>(reloads.size()));
  // The published session forecasts what the trainer's model forecasts.
  {
    d2::InferenceModeGuard inference;
    last->SetTraining(false);
    const d2::data::Batch b = val_loader->GetBatch(0);
    const d2::Tensor direct =
        city->scaler.InverseTransform(last->inner()->Forward(b));
    const d2::Tensor served = published->Predict(b);
    report.Check(direct.Data() == served.Data(),
                 "published session forecasts equal the trained model's");
  }
  report.Set("peak_rss_mb", PeakRssMb(), "MB");

  if (ctx->trace) {
    std::vector<double> untraced;
    for (const Round& r : passes.front()) untraced.push_back(r.windows_per_s);
    report.Set("trace.overhead_frac",
               Median(untraced) / Median(windows_per_s) - 1.0, "frac");
    ReportReloads(reloads, save_ms, &report);
    const d2::data::Batch batch16 = train_loader->GetBatch(0);
    ProbeKernels(city->config, batch, &ctx->tracer, &report);
    ProbeCore(city->config, city->traffic.dataset.network.adjacency,
              last->inner(), batch16, &ctx->tracer, &report);
    const d2::data::Batch batch8 = published->AssembleBatch(
        {city->requests.begin(), city->requests.begin() + 8});
    ProbeExec(last->inner(), city->scaler, batch8, &ctx->tracer, &report);
    ProbeSession(published.get(), city->requests, &ctx->tracer, &report);
    d2::Rng rng(env.seed);
    auto fresh = d2::baselines::MakeModel(
        "D2STGNN", model_config, city->traffic.dataset.network.adjacency, rng);
    ProbeTrainStep(fresh.get(), city->scaler, *train_loader, 12, &ctx->tracer,
                   &report);
    ServingProbe(ctx, *city, ckpt);
  }
}

}  // namespace perfbench
