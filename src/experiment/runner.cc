#include "experiment/runner.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <thread>
#include <utility>

#include "baselines/historical_average.h"
#include "baselines/linear_svr.h"
#include "baselines/var.h"
#include "common/thread_pool.h"
#include "core/d2stgnn.h"
#include "data/synthetic_traffic.h"
#include "experiment/load_generator.h"
#include "experiment/metrics_sink.h"
#include "experiment/protocol.h"
#include "experiment/registry.h"
#include "experiment/regression_gate.h"
#include "graph/sensor_graph.h"
#include "common/fault_injection.h"
#include "infer/batching_server.h"
#include "infer/fleet/fleet.h"
#include "infer/fleet/fleet_server.h"
#include "infer/hot_reload.h"
#include "infer/retry.h"
#include "infer/session.h"
#include "tensor/kernels/registry.h"
#include "train/checkpoint.h"
#include "metrics/metrics.h"
#include "train/evaluator.h"

namespace d2stgnn::experiment {
namespace {

// ---------------------------------------------------------------------------
// Spec -> typed configurations. Every key a kind understands is consumed
// here (or in the Resolve* calls), so Spec::Validate() afterwards reports
// exactly the keys nobody understands.

struct TrainingConfig {
  std::vector<std::string> datasets;
  std::vector<std::string> models;
  float scale = 0.06f;
  std::string scenario = "standard";
  BenchEnv env;
};

TrainingConfig ParseTrainingConfig(const Spec& spec) {
  TrainingConfig config;
  config.datasets = spec.GetList("data", "datasets");
  config.scale = static_cast<float>(spec.GetDouble("data", "scale", 0.06));
  config.models = spec.GetList("models", "names");
  config.scenario = spec.GetString("trainer", "scenario", "standard");
  BenchEnv& env = config.env;
  env.scale = config.scale;
  env.epochs = spec.GetInt("trainer", "epochs", env.epochs);
  env.batch_size = spec.GetInt("trainer", "batch_size", env.batch_size);
  env.hidden_dim = spec.GetInt("trainer", "hidden_dim", env.hidden_dim);
  env.embed_dim = spec.GetInt("trainer", "embed_dim", env.embed_dim);
  env.train_samples =
      spec.GetInt("trainer", "train_samples", env.train_samples);
  env.eval_samples = spec.GetInt("trainer", "eval_samples", env.eval_samples);
  env.seed = static_cast<uint64_t>(
      spec.GetInt("trainer", "seed", static_cast<int64_t>(env.seed)));
  env.threads = GetNumThreads();
  return config;
}

struct ServingConfig {
  // [model] — the served D2STGNN.
  int64_t num_nodes = 4;
  int64_t input_len = 12;
  int64_t output_len = 12;
  int64_t hidden_dim = 8;
  int64_t embed_dim = 4;
  int64_t num_layers = 1;
  int64_t num_heads = 2;
  uint64_t model_seed = 3;
  // [workload] — the request stream.
  int64_t num_steps = 600;
  uint64_t workload_seed = 17;
  int64_t ring_size = 64;
  // [serving] — what to sweep.
  std::vector<std::string> scenarios;
  std::vector<int64_t> threads;
  std::vector<int64_t> batch_sizes;
  /// Kernel backends to sweep ("auto" = whatever startup selection picked).
  /// Sessions are rebuilt per backend so plans are captured and replayed
  /// under the backend being measured.
  std::vector<std::string> backends;
  int64_t iters = 40;
  int64_t server_requests = 80;
  int64_t producers = 4;
  int64_t parity_iters = 200;
  int64_t max_batch_size = 8;
  int64_t max_wait_us = 500;
  int64_t max_queue_depth = 64;
  // [overload] — the open-loop past-saturation scenario.
  double overload_factor = 2.0;   ///< offered load as a multiple of saturation
  int64_t overload_windows = 4;   ///< trajectory resolution
  int64_t window_ms = 250;
  int64_t deadline_ms = 0;        ///< 0: auto (5x the measured batch latency)
  int64_t low_priority_every = 4; ///< every Nth request is shed class kLow
  bool hot_swap = true;           ///< stage + swap a checkpoint mid-run
  // [fleet] — the multi-model mixed-tenant scenario (DESIGN.md §14).
  std::vector<std::string> fleet_models;  ///< "id:slo" tenants, in order
  std::string fleet_hot_model;      ///< past-saturation tenant ("" : last)
  double fleet_hot_factor = 2.0;    ///< hot tenant's offered load, x saturation
  double fleet_healthy_factor = 0.25;  ///< every other tenant's offered load
  int64_t fleet_windows = 4;        ///< trajectory resolution
  int64_t fleet_window_ms = 250;
  int64_t fleet_deadline_ms = 0;    ///< 0: auto (5x the measured batch latency)
  std::string fleet_reload_model;   ///< mid-run hot-reload tenant ("" : first)
  int64_t fleet_reload_poll_ms = 25;  ///< CheckpointReloader poll period
  bool fleet_hot_swap = true;       ///< hot-reload one tenant mid-run
  // [chaos] — "point@offset" scripts armed for the run (kErrno, one-shot).
  std::vector<std::string> chaos_faults;
};

ServingConfig ParseServingConfig(const Spec& spec) {
  ServingConfig c;
  c.num_nodes = spec.GetInt("model", "num_nodes", c.num_nodes);
  c.input_len = spec.GetInt("model", "input_len", c.input_len);
  c.output_len = spec.GetInt("model", "output_len", c.output_len);
  c.hidden_dim = spec.GetInt("model", "hidden_dim", c.hidden_dim);
  c.embed_dim = spec.GetInt("model", "embed_dim", c.embed_dim);
  c.num_layers = spec.GetInt("model", "num_layers", c.num_layers);
  c.num_heads = spec.GetInt("model", "num_heads", c.num_heads);
  c.model_seed = static_cast<uint64_t>(
      spec.GetInt("model", "seed", static_cast<int64_t>(c.model_seed)));
  c.num_steps = spec.GetInt("workload", "num_steps", c.num_steps);
  c.workload_seed = static_cast<uint64_t>(spec.GetInt(
      "workload", "seed", static_cast<int64_t>(c.workload_seed)));
  c.ring_size = spec.GetInt("workload", "requests", c.ring_size);
  c.scenarios = spec.GetList("serving", "scenarios");
  c.threads = spec.GetIntList("serving", "threads");
  c.batch_sizes = spec.GetIntList("serving", "batch_sizes");
  c.backends = spec.GetList("serving", "backends");
  if (c.threads.empty()) c.threads = {1, 2, 4};
  if (c.batch_sizes.empty()) c.batch_sizes = {1, 4, 8};
  if (c.backends.empty()) c.backends = {"auto"};
  c.iters = spec.GetInt("serving", "iters", c.iters);
  c.server_requests =
      spec.GetInt("serving", "server_requests", c.server_requests);
  c.producers = spec.GetInt("serving", "producers", c.producers);
  c.parity_iters = spec.GetInt("serving", "parity_iters", c.parity_iters);
  c.max_batch_size =
      spec.GetInt("serving", "max_batch_size", c.max_batch_size);
  c.max_wait_us = spec.GetInt("serving", "max_wait_us", c.max_wait_us);
  c.max_queue_depth =
      spec.GetInt("serving", "max_queue_depth", c.max_queue_depth);
  c.overload_factor = spec.GetDouble("overload", "factor", c.overload_factor);
  c.overload_windows =
      spec.GetInt("overload", "windows", c.overload_windows);
  c.window_ms = spec.GetInt("overload", "window_ms", c.window_ms);
  c.deadline_ms = spec.GetInt("overload", "deadline_ms", c.deadline_ms);
  c.low_priority_every =
      spec.GetInt("overload", "low_priority_every", c.low_priority_every);
  c.hot_swap = spec.GetInt("overload", "hot_swap", c.hot_swap ? 1 : 0) != 0;
  c.fleet_models = spec.GetList("fleet", "models");
  if (c.fleet_models.empty()) {
    c.fleet_models = {"metr-la:gold", "pems-bay:silver", "city-syn:bronze"};
  }
  c.fleet_hot_model = spec.GetString("fleet", "hot_model", c.fleet_hot_model);
  c.fleet_hot_factor =
      spec.GetDouble("fleet", "hot_factor", c.fleet_hot_factor);
  c.fleet_healthy_factor =
      spec.GetDouble("fleet", "healthy_factor", c.fleet_healthy_factor);
  c.fleet_windows = spec.GetInt("fleet", "windows", c.fleet_windows);
  c.fleet_window_ms = spec.GetInt("fleet", "window_ms", c.fleet_window_ms);
  c.fleet_deadline_ms =
      spec.GetInt("fleet", "deadline_ms", c.fleet_deadline_ms);
  c.fleet_reload_model =
      spec.GetString("fleet", "reload_model", c.fleet_reload_model);
  c.fleet_reload_poll_ms =
      spec.GetInt("fleet", "reload_poll_ms", c.fleet_reload_poll_ms);
  c.fleet_hot_swap =
      spec.GetInt("fleet", "hot_swap", c.fleet_hot_swap ? 1 : 0) != 0;
  c.chaos_faults = spec.GetList("chaos", "faults");
  return c;
}

// One tenant of an open-loop drill: a model id and its resolved SLO class,
// the seed its weights are drawn from (the hot-reload twin is seed + 1),
// and its offered load as a multiple of the measured saturation rate.
struct FleetTenant : infer::TenantSpec {
  uint64_t seed = 0;
  double factor = 0.0;
};

/// One open-loop drill: the tenants one FleetServer hosts, the load each
/// lane is offered, and the tenant hot-reloaded mid-run. The overload
/// scenario is its one-tenant case, the fleet scenario the N-tenant one.
struct DrillConfig {
  std::string scenario;  ///< "overload" or "fleet": record and summary name
  std::vector<FleetTenant> tenants;
  std::string hot_id;     ///< the past-saturation tenant
  std::string reload_id;  ///< hot-reloaded mid-run ("": no reload)
  int64_t windows = 0;    ///< trajectory resolution
  int64_t window_ms = 0;
  int64_t deadline_ms = 0;  ///< 0: auto (5x the measured batch latency)
  int64_t reload_poll_ms = 0;
  int64_t producers_per_lane = 1;
  int64_t low_priority_every = 0;  ///< every Nth request is kLow (0: none)
};

/// The overload scenario's drill: one tenant with the served model's
/// weights, offered [overload] factor x saturation by [serving] producers.
DrillConfig OverloadDrill(const ServingConfig& c) {
  DrillConfig d;
  d.scenario = "overload";
  FleetTenant tenant;
  tenant.id = "model";
  tenant.seed = c.model_seed;
  tenant.factor = c.overload_factor;
  d.tenants = {tenant};
  d.hot_id = tenant.id;
  if (c.hot_swap) d.reload_id = tenant.id;
  d.windows = c.overload_windows;
  d.window_ms = c.window_ms;
  d.deadline_ms = c.deadline_ms;
  d.reload_poll_ms = std::max<int64_t>(10, c.window_ms / 10);
  d.producers_per_lane = std::max<int64_t>(1, c.producers);
  d.low_priority_every = c.low_priority_every;
  return d;
}

/// The fleet scenario's drill, from the [fleet] models list ("id" or
/// "id:slo" entries; SLO names are the built-in gold/silver/bronze tiers):
/// one producer per lane and no low-priority marking. Runs at expansion
/// time too, so --dry-run refuses a bad tenant list.
bool FleetDrill(const ServingConfig& c, DrillConfig* d, std::string* error) {
  std::vector<infer::TenantSpec> specs;
  if (!infer::ParseTenants(c.fleet_models, &specs, error)) {
    *error = "[fleet] models: " + *error;
    return false;
  }
  d->scenario = "fleet";
  d->hot_id = c.fleet_hot_model.empty() ? specs.back().id : c.fleet_hot_model;
  if (c.fleet_hot_swap) {
    d->reload_id = c.fleet_reload_model.empty() ? specs.front().id
                                                : c.fleet_reload_model;
  }
  bool hot_found = false;
  bool reload_found = d->reload_id.empty();
  for (size_t i = 0; i < specs.size(); ++i) {
    const bool hot = specs[i].id == d->hot_id;
    hot_found = hot_found || hot;
    reload_found = reload_found || specs[i].id == d->reload_id;
    // Distinct weights per tenant, spaced so one tenant's hot-reload twin
    // (seed + 1) can never collide with another tenant's seed.
    d->tenants.push_back({specs[i],
                          c.model_seed + 16 * (static_cast<uint64_t>(i) + 1),
                          hot ? c.fleet_hot_factor : c.fleet_healthy_factor});
  }
  if (!hot_found) {
    *error = "[fleet] hot_model '" + d->hot_id + "' is not in the models list";
    return false;
  }
  if (!reload_found) {
    *error = "[fleet] reload_model '" + d->reload_id +
             "' is not in the models list";
    return false;
  }
  d->windows = c.fleet_windows;
  d->window_ms = c.fleet_window_ms;
  d->deadline_ms = c.fleet_deadline_ms;
  d->reload_poll_ms = std::max<int64_t>(5, c.fleet_reload_poll_ms);
  return true;
}

struct DatasetConfig {
  std::vector<std::string> datasets;
  float scale = 0.06f;
};

DatasetConfig ParseDatasetConfig(const Spec& spec) {
  DatasetConfig config;
  config.datasets = spec.GetList("data", "datasets");
  config.scale = static_cast<float>(spec.GetDouble("data", "scale", 0.06));
  return config;
}

// ---------------------------------------------------------------------------
// Matrix expansion (shared by --dry-run, tests, and the run itself).

bool ExpandTraining(const Spec& spec, const TrainingConfig& config,
                    std::vector<std::string>* cells, std::string* error) {
  if (config.datasets.empty()) {
    *error = "[data] datasets lists no datasets";
    return false;
  }
  if (config.models.empty()) {
    *error = "[models] names lists no models";
    return false;
  }
  train::TrainerOptions probe;
  if (!ApplyTrainerScenario(config.scenario, &probe, error)) return false;
  for (const std::string& dataset : config.datasets) {
    data::DatasetPreset preset;
    if (!ResolveDataset(dataset, config.scale, spec, &preset, error)) {
      return false;
    }
    for (const std::string& model : config.models) {
      ModelEntry entry;
      if (!ResolveModel(model, &entry, error)) return false;
      cells->push_back("dataset=" + dataset + " model=" + model);
    }
  }
  return true;
}

// Resolves [serving] backends into concrete, deduplicated registry names
// ("auto avx2" on an avx2 host collapses to one entry, so records are never
// duplicated by spelling the same backend two ways).
bool ResolveServingBackends(const ServingConfig& config,
                            std::vector<std::string>* resolved,
                            std::string* error) {
  for (const std::string& name : config.backends) {
    std::string backend;
    if (!ResolveBackend(name, &backend, error)) return false;
    if (std::find(resolved->begin(), resolved->end(), backend) ==
        resolved->end()) {
      resolved->push_back(backend);
    }
  }
  return true;
}

bool ExpandServing(const ServingConfig& config,
                   std::vector<std::string>* cells, std::string* error) {
  if (config.scenarios.empty()) {
    *error = "[serving] scenarios lists no scenarios";
    return false;
  }
  // Every request window must lie inside the generated series.
  const int64_t max_requests = config.num_steps - config.input_len + 1;
  if (config.ring_size < 1 || config.ring_size > max_requests) {
    *error = "[workload] requests = " + std::to_string(config.ring_size) +
             " must be in [1, " + std::to_string(max_requests) +
             "] (num_steps - input_len + 1)";
    return false;
  }
  for (const auto& [key, value] :
       {std::pair{"[overload] windows", config.overload_windows},
        {"[overload] window_ms", config.window_ms},
        {"[fleet] windows", config.fleet_windows},
        {"[fleet] window_ms", config.fleet_window_ms}}) {
    if (value < 1) {
      *error = std::string(key) + " = " + std::to_string(value) +
               " must be >= 1";
      return false;
    }
  }
  std::vector<std::string> backends;
  if (!ResolveServingBackends(config, &backends, error)) return false;
  // A single backend keeps the historical cell text; only a real sweep
  // prefixes cells with the backend axis.
  for (const std::string& backend : backends) {
    const std::string prefix =
        backends.size() > 1 ? "backend=" + backend + " " : "";
    for (const std::string& scenario : config.scenarios) {
      if (!ResolveServingScenario(scenario, error)) return false;
      for (const int64_t threads : config.threads) {
        if (scenario == "session-eager" || scenario == "session-plan") {
          for (const int64_t batch : config.batch_sizes) {
            cells->push_back(prefix + "scenario=" + scenario +
                             " threads=" + std::to_string(threads) +
                             " batch_size=" + std::to_string(batch));
          }
        } else if (scenario == "fleet") {
          DrillConfig drill;
          if (!FleetDrill(config, &drill, error)) return false;
          cells->push_back(prefix + "scenario=fleet threads=" +
                           std::to_string(threads) +
                           " models=" + std::to_string(drill.tenants.size()));
        } else {
          cells->push_back(prefix + "scenario=" + scenario +
                           " threads=" + std::to_string(threads));
        }
      }
    }
  }
  return true;
}

bool ExpandDataset(const Spec& spec, const DatasetConfig& config,
                   std::vector<std::string>* cells, std::string* error) {
  if (config.datasets.empty()) {
    *error = "[data] datasets lists no datasets";
    return false;
  }
  for (const std::string& dataset : config.datasets) {
    data::DatasetPreset preset;
    if (!ResolveDataset(dataset, config.scale, spec, &preset, error)) {
      return false;
    }
    cells->push_back("dataset=" + dataset);
  }
  return true;
}

// ---------------------------------------------------------------------------
// kind = training

json::Value HorizonRecord(const std::string& dataset,
                          const std::string& model,
                          const std::vector<train::HorizonMetrics>& horizons) {
  json::Value record = json::Value::Object();
  record.Set("dataset", json::Value::Str(dataset));
  record.Set("model", json::Value::Str(model));
  for (const train::HorizonMetrics& h : horizons) {
    // Built with += (not operator+ chaining): GCC 12's -Wrestrict trips a
    // false positive on `"h" + std::to_string(...)` under -Werror.
    std::string prefix = "h";
    prefix += std::to_string(h.horizon);
    prefix += '_';
    record.Set(prefix + "mae", json::Value::Number(h.metrics.mae));
    record.Set(prefix + "rmse", json::Value::Number(h.metrics.rmse));
    record.Set(prefix + "mape", json::Value::Number(h.metrics.mape));
  }
  return record;
}

bool RunTraining(const Spec& spec, const TrainingConfig& config,
                 MetricsSink* sink, std::string* error) {
  int64_t cell = 0;
  const int64_t total = static_cast<int64_t>(config.datasets.size()) *
                        static_cast<int64_t>(config.models.size());
  std::string best_model;
  double best_h12_mae = 0.0;
  for (const std::string& dataset_name : config.datasets) {
    data::DatasetPreset preset;
    if (!ResolveDataset(dataset_name, config.scale, spec, &preset, error)) {
      return false;
    }
    const PreparedDataset prepared = PrepareDataset(preset, config.env);
    const Tensor test_truth =
        GatherTargets(prepared.dataset(), prepared.splits.test, 12, 12);

    for (const std::string& model_name : config.models) {
      ModelEntry entry;
      if (!ResolveModel(model_name, &entry, error)) return false;
      std::printf("[%lld/%lld] dataset=%s model=%s\n",
                  static_cast<long long>(++cell),
                  static_cast<long long>(total), dataset_name.c_str(),
                  model_name.c_str());
      std::fflush(stdout);

      json::Value record;
      if (entry.family == "statistical") {
        Tensor prediction;
        if (entry.name == "HA") {
          baselines::HistoricalAverage ha;
          ha.Fit(prepared.dataset(), prepared.train_steps);
          prediction =
              ha.Predict(prepared.dataset(), prepared.splits.test, 12, 12);
        } else if (entry.name == "VAR") {
          baselines::Var var(3);
          var.Fit(prepared.dataset(), prepared.train_steps);
          prediction =
              var.Predict(prepared.dataset(), prepared.splits.test, 12, 12);
        } else {  // SVR
          baselines::LinearSvr svr;
          svr.Fit(prepared.dataset(), prepared.train_steps, 12, 12);
          prediction =
              svr.Predict(prepared.dataset(), prepared.splits.test, 12, 12);
        }
        const auto horizons =
            train::EvaluatePredictionHorizons(prediction, test_truth);
        record = HorizonRecord(dataset_name, model_name, horizons);
        record.Set("params", json::Value::Int(0));
        record.Set("epoch_seconds", json::Value::Number(0.0));
        if (best_model.empty()) {
          best_model = model_name;
          best_h12_mae = horizons.back().metrics.mae;
        }
      } else {
        baselines::ModelConfig model_config;
        model_config.num_nodes = prepared.dataset().num_nodes();
        model_config.hidden_dim = config.env.hidden_dim;
        model_config.embed_dim = config.env.embed_dim;
        model_config.steps_per_day = prepared.dataset().steps_per_day;
        Rng rng(config.env.seed);
        auto model =
            BuildModel(entry, model_config,
                       prepared.dataset().network.adjacency, rng, error);
        if (model == nullptr) return false;
        const std::string scenario = config.scenario;
        const TrainedModelResult result = TrainAndEvaluateModel(
            model.get(), prepared, config.env,
            [&](train::TrainerOptions* options) {
              std::string scenario_error;
              ApplyTrainerScenario(scenario, options, &scenario_error);
              if (entry.disable_curriculum) {
                options->curriculum_learning = false;
              }
            });
        record = HorizonRecord(dataset_name, model_name, result.horizons);
        record.Set("params", json::Value::Int(result.parameter_count));
        record.Set("epoch_seconds",
                   json::Value::Number(result.mean_epoch_seconds));
        const double h12 = result.horizons.back().metrics.mae;
        if (best_model.empty() || h12 < best_h12_mae) {
          best_model = model_name;
          best_h12_mae = h12;
        }
      }
      sink->AddRecord(std::move(record));
    }
  }
  sink->SetSummary("datasets",
                   json::Value::Int(static_cast<int64_t>(
                       config.datasets.size())));
  sink->SetSummary("models", json::Value::Int(static_cast<int64_t>(
                                 config.models.size())));
  sink->SetSummary("best_model", json::Value::Str(best_model));
  sink->SetSummary("best_h12_mae", json::Value::Number(best_h12_mae));
  return true;
}

// ---------------------------------------------------------------------------
// kind = serving (the bench_inference protocol behind scenario names)

struct ServingWorkload {
  data::SyntheticTraffic traffic;
  data::StandardScaler scaler;
  std::vector<infer::ForecastRequest> ring;
};

ServingWorkload BuildServingWorkload(const ServingConfig& config) {
  ServingWorkload w;
  data::SyntheticTrafficOptions options;
  options.network.num_nodes = config.num_nodes;
  options.network.neighbors = 2;
  options.num_steps = config.num_steps;
  options.seed = config.workload_seed;
  w.traffic = data::GenerateSyntheticTraffic(options);
  w.scaler.Fit(w.traffic.dataset.values, config.num_steps * 2 / 3, true);
  const std::vector<float>& values = w.traffic.dataset.values.Data();
  for (int64_t start = 0; start < config.ring_size; ++start) {
    infer::ForecastRequest request;
    request.window.assign(
        values.data() + start * config.num_nodes,
        values.data() + (start + config.input_len) * config.num_nodes);
    request.time_of_day = w.traffic.dataset.TimeOfDay(start);
    request.day_of_week = w.traffic.dataset.DayOfWeek(start);
    w.ring.push_back(std::move(request));
  }
  return w;
}

/// A fresh served model with weights drawn from `seed` (the hot-reload
/// factory rebuilds this architecture for every staged checkpoint).
std::unique_ptr<train::ForecastingModel> BuildServingModel(
    const ServingWorkload& w, const ServingConfig& config, uint64_t seed) {
  core::D2StgnnConfig model_config;
  model_config.num_nodes = config.num_nodes;
  model_config.input_len = config.input_len;
  model_config.output_len = config.output_len;
  model_config.hidden_dim = config.hidden_dim;
  model_config.embed_dim = config.embed_dim;
  model_config.num_layers = config.num_layers;
  model_config.num_heads = config.num_heads;
  model_config.steps_per_day = w.traffic.dataset.steps_per_day;
  Rng rng(seed);
  return std::make_unique<core::D2Stgnn>(
      model_config, w.traffic.dataset.network.adjacency, rng);
}

infer::SessionOptions ServingSessionOptions(const ServingWorkload& w,
                                            const ServingConfig& config,
                                            bool use_plans) {
  infer::SessionOptions session_options;
  session_options.num_nodes = config.num_nodes;
  session_options.input_len = config.input_len;
  session_options.steps_per_day = w.traffic.dataset.steps_per_day;
  session_options.use_plans = use_plans;
  return session_options;
}

std::unique_ptr<infer::InferenceSession> BuildServingSession(
    const ServingWorkload& w, const ServingConfig& config, uint64_t seed,
    bool use_plans) {
  return infer::InferenceSession::Wrap(
      BuildServingModel(w, config, seed), w.scaler,
      ServingSessionOptions(w, config, use_plans));
}

json::Value ServingRecord(const std::string& scenario,
                          const std::string& mode, int64_t threads,
                          int64_t batch_size, int64_t requests,
                          const metrics::LatencyStats& latency_ms,
                          double throughput_rps) {
  json::Value record = json::Value::Object();
  record.Set("scenario", json::Value::Str(scenario));
  record.Set("mode", json::Value::Str(mode));
  // The backend the sweep currently runs under (RunServing activates each
  // swept backend before building sessions), so rows of a multi-backend
  // sweep stay attributable.
  record.Set("backend", json::Value::Str(kernels::ActiveBackend().name));
  record.Set("threads", json::Value::Int(threads));
  record.Set("batch_size", json::Value::Int(batch_size));
  record.Set("requests", json::Value::Int(requests));
  record.Set("p50_ms", json::Value::Number(latency_ms.p50));
  record.Set("p95_ms", json::Value::Number(latency_ms.p95));
  record.Set("p99_ms", json::Value::Number(latency_ms.p99));
  record.Set("mean_ms", json::Value::Number(latency_ms.mean));
  record.Set("max_ms", json::Value::Number(latency_ms.max));
  record.Set("throughput_rps", json::Value::Number(throughput_rps));
  return record;
}

/// Direct PredictRequests calls at a fixed batch size.
bool SweepSession(infer::InferenceSession* session, const ServingConfig& c,
                  const ServingWorkload& w, const std::string& scenario,
                  int64_t threads, int64_t batch_size, MetricsSink* sink,
                  std::string* error) {
  SetNumThreads(static_cast<int>(threads));
  std::vector<infer::ForecastRequest> batch;
  for (int64_t i = 0; i < batch_size; ++i) {
    batch.push_back(w.ring[static_cast<size_t>(i) % w.ring.size()]);
  }
  session->Warmup(batch_size, /*runs=*/2);

  using clock = std::chrono::steady_clock;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(static_cast<size_t>(c.iters));
  const auto sweep_start = clock::now();
  for (int64_t i = 0; i < c.iters; ++i) {
    const auto start = clock::now();
    for (const infer::Forecast& f : session->PredictRequests(batch)) {
      if (!f.ok) {
        *error = "serving forward failed: " + f.error;
        return false;
      }
    }
    latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(clock::now() - start)
            .count());
  }
  const double elapsed =
      std::chrono::duration<double>(clock::now() - sweep_start).count();
  const int64_t requests = c.iters * batch_size;
  sink->AddRecord(ServingRecord(
      scenario, scenario, threads, batch_size, requests,
      metrics::SummarizeLatencies(latencies_ms),
      elapsed > 0.0 ? static_cast<double>(requests) / elapsed : 0.0));
  return true;
}

/// Closed-loop producers against the single-model serving core.
bool SweepServer(infer::InferenceSession* session, const ServingConfig& c,
                 const ServingWorkload& w, int64_t threads, MetricsSink* sink,
                 std::string* error) {
  SetNumThreads(static_cast<int>(threads));
  infer::BatchingOptions options;
  options.max_batch_size = c.max_batch_size;
  options.max_wait_us = c.max_wait_us;
  infer::BatchingServer server(session, options);
  const LoadResult load =
      LoadGenerator([&](const LoadRequest& r) {
        return server.Submit(w.ring[static_cast<size_t>(r.seq) % w.ring.size()]);
      }).ClosedLoop(c.producers, c.server_requests);
  server.Shutdown();
  for (const LoadSample& sample : load.samples) {
    if (!sample.ok) {
      *error = std::string("server request failed: ") +
               infer::RejectReasonName(sample.reason);
      return false;
    }
  }

  const std::vector<double> latencies = load.OkLatenciesMs();
  sink->AddRecord(ServingRecord(
      "server", "server", threads, c.max_batch_size,
      static_cast<int64_t>(latencies.size()),
      metrics::SummarizeLatencies(latencies),
      load.elapsed_s > 0.0
          ? static_cast<double>(latencies.size()) / load.elapsed_s
          : 0.0));
  return true;
}

/// Plan replay vs eager dispatch on single requests, with the bitwise
/// parity check of DESIGN.md §10.
bool SweepParity(infer::InferenceSession* plan_session,
                 infer::InferenceSession* eager_session,
                 const ServingConfig& c, const ServingWorkload& w,
                 int64_t threads, MetricsSink* sink, double* eager_p50,
                 double* plan_p50, std::string* error) {
  SetNumThreads(static_cast<int>(threads));
  plan_session->Warmup(/*batch_size=*/1, /*runs=*/2);

  for (const infer::ForecastRequest& request : w.ring) {
    const infer::Forecast plan = plan_session->PredictOne(request);
    const infer::Forecast eager = eager_session->PredictOne(request);
    if (!plan.ok || !eager.ok || plan.values != eager.values) {
      *error = "plan and eager forecasts diverge at " +
               std::to_string(threads) + " threads";
      return false;
    }
  }
  if (plan_session->session_stats().plan_replays == 0) {
    *error = "plan session never replayed a plan";
    return false;
  }

  const auto time_one = [&](infer::InferenceSession* session,
                            const std::string& mode,
                            double* p50) -> bool {
    using clock = std::chrono::steady_clock;
    std::vector<double> latencies_ms;
    latencies_ms.reserve(static_cast<size_t>(c.parity_iters));
    const auto sweep_start = clock::now();
    for (int64_t i = 0; i < c.parity_iters; ++i) {
      const auto start = clock::now();
      const infer::Forecast f = session->PredictOne(
          w.ring[static_cast<size_t>(i) % w.ring.size()]);
      if (!f.ok) {
        *error = mode + " forward failed: " + f.error;
        return false;
      }
      latencies_ms.push_back(
          std::chrono::duration<double, std::milli>(clock::now() - start)
              .count());
    }
    const double elapsed =
        std::chrono::duration<double>(clock::now() - sweep_start).count();
    const metrics::LatencyStats stats =
        metrics::SummarizeLatencies(latencies_ms);
    *p50 = stats.p50;
    sink->AddRecord(ServingRecord(
        "parity", mode, threads, 1, c.parity_iters, stats,
        elapsed > 0.0 ? static_cast<double>(c.parity_iters) / elapsed : 0.0));
    return true;
  };
  return time_one(eager_session, "eager", eager_p50) &&
         time_one(plan_session, "plan", plan_p50);
}

/// Arms the [chaos] "point@offset" scripts (kErrno, one-shot) for a
/// serving run; returns how many were armed.
int64_t ArmChaosFaults(const std::vector<std::string>& entries) {
  int64_t armed = 0;
  for (const std::string& entry : entries) {
    fault::FaultScript script;
    script.kind = fault::FaultKind::kErrno;
    std::string point = entry;
    const size_t at = entry.find('@');
    if (at != std::string::npos) {
      point = entry.substr(0, at);
      script.trigger_offset = std::strtoll(entry.c_str() + at + 1, nullptr, 10);
    }
    fault::ArmFaultPoint(point, script);
    ++armed;
  }
  return armed;
}

/// Outcome counts of one trajectory window of an open-loop run.
struct WindowAgg {
  int64_t offered = 0, completed = 0, shed = 0, expired = 0;
  std::vector<double> latencies_ms;  ///< of the completed requests
};

/// Buckets the samples of `lane` by window.
std::vector<WindowAgg> AggregateWindows(const LoadResult& load,
                                        int64_t windows, int64_t lane) {
  std::vector<WindowAgg> aggs(static_cast<size_t>(windows));
  for (const LoadSample& sample : load.samples) {
    if (sample.lane != lane) continue;
    WindowAgg& agg = aggs[static_cast<size_t>(sample.window)];
    ++agg.offered;
    if (sample.ok) {
      ++agg.completed;
      agg.latencies_ms.push_back(sample.latency_ms);
    } else if (sample.reason == infer::RejectReason::kDeadlineExceeded) {
      ++agg.expired;
    } else {
      ++agg.shed;
    }
  }
  return aggs;
}

/// One window's trajectory record: latency, throughput, and shed /
/// deadline-miss rates.
json::Value WindowRecord(const std::string& scenario, int64_t threads,
                         int64_t batch_size, int64_t window,
                         const WindowAgg& agg, double window_s) {
  const double denom = static_cast<double>(std::max<int64_t>(agg.offered, 1));
  json::Value record = ServingRecord(
      scenario, scenario, threads, batch_size, agg.offered,
      metrics::SummarizeLatencies(agg.latencies_ms),
      static_cast<double>(agg.completed) / std::max(window_s, 1e-9));
  record.Set("window", json::Value::Int(window));
  record.Set("completed", json::Value::Int(agg.completed));
  record.Set("shed", json::Value::Int(agg.shed));
  record.Set("expired", json::Value::Int(agg.expired));
  record.Set("shed_rate",
             json::Value::Number(static_cast<double>(agg.shed) / denom));
  record.Set("deadline_miss_rate",
             json::Value::Number(static_cast<double>(agg.expired) / denom));
  return record;
}

/// What a standalone plan session over seed-`seed` weights forecasts for the
/// first ring window: the bitwise reference a served lane must reproduce.
bool StandaloneForecast(const ServingWorkload& w, const ServingConfig& c,
                        uint64_t seed, std::vector<float>* values,
                        std::string* error) {
  const auto session = BuildServingSession(w, c, seed, /*use_plans=*/true);
  const infer::Forecast forecast =
      session != nullptr ? session->PredictOne(w.ring[0]) : infer::Forecast{};
  if (!forecast.ok) {
    *error = "standalone forward of seed " + std::to_string(seed) +
             " failed: " + forecast.error;
    return false;
  }
  *values = forecast.values;
  return true;
}

/// A mid-run checkpoint hot swap of one lane: a CheckpointReloader
/// watching a private directory, the twin weights (seed + 1) saved into it
/// while traffic runs, and the forecast of the first ring window they must
/// serve bitwise once swapped in. The reloader is stopped and the directory
/// removed on destruction. An unstarted drill drops nothing.
struct HotSwapDrill {
  std::unique_ptr<train::ForecastingModel> twin;
  std::vector<float> reference;
  std::filesystem::path dir;
  std::unique_ptr<infer::CheckpointReloader> reloader;
  bool dropped = false;

  HotSwapDrill() = default;
  HotSwapDrill(const HotSwapDrill&) = delete;
  HotSwapDrill& operator=(const HotSwapDrill&) = delete;
  ~HotSwapDrill() {
    reloader.reset();
    std::error_code ec;
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  }

  /// Builds the twin of the seed-`seed` lane, its standalone forecast and a
  /// fresh watch directory named after `tag` and `threads`, then starts a
  /// reloader polling it every `poll_ms` that swaps into `host`.
  bool Start(const ServingWorkload& w, const ServingConfig& c, uint64_t seed,
             const std::string& tag, int64_t threads, int64_t poll_ms,
             infer::SessionHost* host, std::string* error) {
    if (!StandaloneForecast(w, c, seed + 1, &reference, error)) return false;
    twin = BuildServingModel(w, c, seed + 1);
    dir = std::filesystem::temp_directory_path() /
          ("d2stgnn_" + tag + "_" + std::to_string(::getpid()) + "_t" +
           std::to_string(threads));
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    infer::HotReloadOptions options;
    options.directory = dir.string();
    options.poll_interval_ms = poll_ms;
    reloader = std::make_unique<infer::CheckpointReloader>(
        host, [&w, &c, seed] { return BuildServingModel(w, c, seed); },
        w.scaler, ServingSessionOptions(w, c, /*use_plans=*/true), options);
    reloader->Start();
    return true;
  }

  /// Saves the twin as the step-1 checkpoint, once.
  void Drop() {
    if (twin == nullptr || dropped) return;
    train::SaveCheckpoint(*twin, train::CheckpointPathForStep(dir.string(), 1));
    dropped = true;
  }
};

/// Waits up to a minute for `reloader`'s first swap (it retries through
/// injected staging faults) and returns its swap count.
int64_t AwaitFirstSwap(const infer::CheckpointReloader& reloader) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (reloader.stats().swaps == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return reloader.stats().swaps;
}

/// Runs an open-loop drill (DESIGN.md §13, §14): one FleetServer hosts
/// every tenant, each with its own weights, plan cache, and SLO class.
/// Each lane's offered load is a multiple of the *measured* serving rate
/// (self-calibrating, so the same spec saturates under a sanitizer too),
/// regardless of completions; every request carries a deadline, the
/// scripted chaos faults fire mid-run, and one tenant's checkpoint hot-swap
/// lands while the hot tenant sheds. Emits one record per (tenant, window)
/// — the shed-rate / deadline-miss / p99 / throughput trajectory — plus
/// run-level summaries. The run fails when nothing completed, when the
/// configured swap never landed, when a tenant does not serve bitwise what
/// a standalone session over its weights (the reloaded one: the staged
/// twin's) serves, or when the reload swapped any other lane.
bool RunDrill(const DrillConfig& d, const ServingConfig& c,
              const ServingWorkload& w, int64_t threads, MetricsSink* sink,
              std::string* error) {
  SetNumThreads(static_cast<int>(threads));
  const std::string& scenario = d.scenario;

  // Register every tenant, and record the bitwise reference each lane must
  // reproduce: the same weights served by a standalone single-model
  // session. The fleet may arbitrate *when* a model runs, never *what* it
  // computes.
  infer::ModelFleet fleet;
  std::map<std::string, std::vector<float>> reference;
  uint64_t reload_seed = 0;
  for (const FleetTenant& tenant : d.tenants) {
    if (!StandaloneForecast(w, c, tenant.seed, &reference[tenant.id],
                            error)) {
      return false;
    }
    if (tenant.id == d.reload_id) reload_seed = tenant.seed;
    infer::FleetModelOptions model_options;
    model_options.model_id = tenant.id;
    model_options.slo = tenant.slo;
    model_options.max_batch_size = c.max_batch_size;
    model_options.max_wait_us = c.max_wait_us;
    if (!fleet.AddModel(BuildServingSession(w, c, tenant.seed, true),
                        model_options, error)) {
      return false;
    }
  }

  // Calibrate the saturated serving rate once — every tenant shares the
  // architecture, so one measurement sizes all the offered loads.
  Saturation saturation;
  if (!CalibrateSaturation(fleet.session(d.tenants.front().id).get(), w.ring,
                           c.max_batch_size, &saturation, error)) {
    return false;
  }
  const int64_t deadline_us = saturation.DeadlineUs(d.deadline_ms);

  const int64_t faults_armed = ArmChaosFaults(c.chaos_faults);

  infer::FleetOptions fleet_options;
  fleet_options.max_queue_depth = c.max_queue_depth;
  infer::FleetServer server(&fleet, fleet_options);

  // Hot-reload plumbing for the reloaded tenant: twin weights (seed + 1)
  // land in a private watch directory one window into the run.
  const bool hot_swap = !d.reload_id.empty();
  HotSwapDrill drill;
  if (hot_swap && !drill.Start(w, c, reload_seed, scenario, threads,
                               d.reload_poll_ms, server.host(d.reload_id),
                               error)) {
    return false;
  }

  // One open-loop lane per tenant at saturation * tenant.factor (that is
  // what makes per-tenant shedding observable), split across
  // producers_per_lane threads. Every request carries the deadline, every
  // Nth is low priority. Mid-run: the twin checkpoint drops one window in,
  // and the worst tier is tracked.
  infer::OverloadTier max_tier = infer::OverloadTier::kNormal;
  OpenLoopOptions load_options;
  double offered_rps = 0.0;
  for (const FleetTenant& tenant : d.tenants) {
    load_options.lane_rps.push_back(
        std::max(1.0, saturation.rps * tenant.factor));
    offered_rps += load_options.lane_rps.back();
  }
  load_options.producers_per_lane = d.producers_per_lane;
  load_options.seconds = static_cast<double>(d.windows * d.window_ms) / 1000.0;
  load_options.windows = d.windows;
  load_options.on_tick = [&](double elapsed_s) {
    if (elapsed_s * 1000.0 >= static_cast<double>(d.window_ms)) drill.Drop();
    max_tier = std::max(max_tier, server.stats().tier);
  };
  const int64_t every = d.low_priority_every;
  const LoadResult load =
      LoadGenerator([&](const LoadRequest& r) {
        infer::ForecastRequest request =
            w.ring[static_cast<size_t>(r.seq) % w.ring.size()];
        request.deadline_us = deadline_us;
        if (every > 0 && r.seq % every == every - 1) {
          request.priority = infer::RequestPriority::kLow;
        }
        return server.Submit(d.tenants[static_cast<size_t>(r.lane)].id,
                             std::move(request));
      }).OpenLoop(load_options);
  drill.Drop();
  max_tier = std::max(max_tier, server.stats().tier);

  // The reload must land before the probes.
  const int64_t hot_swaps = hot_swap ? AwaitFirstSwap(*drill.reloader) : 0;

  // Bitwise probes, after the backlog drains: every tenant must serve
  // exactly what its standalone session serves — the reloaded tenant, what
  // the staged twin serves. Generous retries ride out tier recovery.
  int64_t bitwise_models = 0;
  int64_t post_swap_bitwise = hot_swap ? 0 : -1;
  for (const FleetTenant& tenant : d.tenants) {
    infer::RetryPolicy policy;
    policy.max_attempts = 64;
    policy.initial_backoff_us = 2000;
    policy.max_backoff_us = 50000;
    policy.jitter_seed = c.workload_seed;
    const infer::RetryResult probe =
        infer::SubmitWithRetry(&server, tenant.id, w.ring[0], policy);
    const bool reloaded = tenant.id == d.reload_id;
    const std::vector<float>& expected =
        reloaded && hot_swaps > 0 ? drill.reference : reference[tenant.id];
    const bool bitwise = probe.forecast.ok && probe.forecast.values == expected;
    if (bitwise) ++bitwise_models;
    if (reloaded) post_swap_bitwise = bitwise && hot_swaps > 0 ? 1 : 0;
  }

  if (drill.reloader != nullptr) drill.reloader->Stop();
  server.Shutdown();
  const infer::FleetStats fleet_stats = server.stats();
  const int64_t faults_fired = fault::FaultFireCount();
  fault::DisarmAllFaultPoints();

  // Per-(tenant, window) trajectory records, plus the run totals and, with
  // more than one tenant, the isolation aggregates: "high" covers the
  // healthy best-priority tenants, "hot" the past-saturation one.
  const double window_s = static_cast<double>(d.window_ms) / 1000.0;
  int64_t offered = 0, completed = 0, shed = 0, expired = 0;
  int64_t high_offered = 0, high_shed = 0, high_expired = 0;
  int64_t hot_offered = 0, hot_shed = 0;
  double max_p99_ms = 0.0, high_p99_ms = 0.0;
  int64_t best_priority = d.tenants.front().slo.priority;
  for (const FleetTenant& tenant : d.tenants) {
    best_priority = std::min(best_priority, tenant.slo.priority);
  }
  for (size_t t = 0; t < d.tenants.size(); ++t) {
    const FleetTenant& tenant = d.tenants[t];
    const bool is_hot = tenant.id == d.hot_id;
    const bool is_high = !is_hot && tenant.slo.priority == best_priority;
    const std::vector<WindowAgg> aggs =
        AggregateWindows(load, d.windows, static_cast<int64_t>(t));
    for (int64_t i = 0; i < d.windows; ++i) {
      const WindowAgg& agg = aggs[static_cast<size_t>(i)];
      offered += agg.offered;
      completed += agg.completed;
      shed += agg.shed;
      expired += agg.expired;
      max_p99_ms = std::max(max_p99_ms,
                            metrics::SummarizeLatencies(agg.latencies_ms).p99);
      if (is_high) {
        high_offered += agg.offered;
        high_shed += agg.shed;
        high_expired += agg.expired;
      }
      if (is_hot) {
        hot_offered += agg.offered;
        hot_shed += agg.shed;
      }
      json::Value record =
          WindowRecord(scenario, threads, c.max_batch_size, i, agg, window_s);
      record.Set("model", json::Value::Str(tenant.id));
      record.Set("slo", json::Value::Str(tenant.slo.name));
      record.Set("priority", json::Value::Int(tenant.slo.priority));
      sink->AddRecord(std::move(record));
    }
    if (is_high) {
      high_p99_ms = std::max(
          high_p99_ms,
          metrics::SummarizeLatencies(load.OkLatenciesMs(
                                          static_cast<int64_t>(t)))
              .p99);
    }
  }

  // The reload must touch exactly one lane: every other model's
  // session_swaps stays zero.
  int64_t session_swaps = 0;
  int64_t others_session_swaps = 0;
  int64_t rejected_quota = 0;
  for (const auto& [id, model_stats] : fleet_stats.models) {
    rejected_quota += model_stats.rejected_quota;
    session_swaps += model_stats.session_swaps;
    if (id != d.reload_id) others_session_swaps += model_stats.session_swaps;
  }
  const auto rate = [](int64_t part, int64_t whole) {
    return json::Value::Number(
        static_cast<double>(part) /
        static_cast<double>(std::max<int64_t>(whole, 1)));
  };
  sink->SetSummary("saturation_rps", json::Value::Number(saturation.rps));
  sink->SetSummary("offered_rps", json::Value::Number(offered_rps));
  sink->SetSummary(scenario + "_models",
                   json::Value::Int(static_cast<int64_t>(d.tenants.size())));
  sink->SetSummary(scenario + "_completed", json::Value::Int(completed));
  sink->SetSummary(scenario + "_shed_rate", rate(shed, offered));
  sink->SetSummary(scenario + "_deadline_miss_rate", rate(expired, offered));
  sink->SetSummary(scenario + "_max_p99_ms", json::Value::Number(max_p99_ms));
  if (d.tenants.size() > 1) {
    sink->SetSummary(scenario + "_high_shed_rate",
                     rate(high_shed, high_offered));
    sink->SetSummary(scenario + "_high_deadline_miss_rate",
                     rate(high_expired, high_offered));
    sink->SetSummary(scenario + "_high_p99_ms",
                     json::Value::Number(high_p99_ms));
    sink->SetSummary(scenario + "_hot_shed_rate", rate(hot_shed, hot_offered));
  }
  sink->SetSummary("rejected_quota", json::Value::Int(rejected_quota));
  sink->SetSummary("bitwise_models", json::Value::Int(bitwise_models));
  sink->SetSummary("session_swaps", json::Value::Int(session_swaps));
  sink->SetSummary("others_session_swaps",
                   json::Value::Int(others_session_swaps));
  sink->SetSummary("hot_swaps", json::Value::Int(hot_swaps));
  sink->SetSummary("post_swap_bitwise", json::Value::Int(post_swap_bitwise));
  sink->SetSummary("faults_armed", json::Value::Int(faults_armed));
  sink->SetSummary("faults_fired", json::Value::Int(faults_fired));
  sink->SetSummary("max_tier",
                   json::Value::Str(infer::OverloadTierName(max_tier)));
  sink->SetSummary("degrade_transitions",
                   json::Value::Int(fleet_stats.degrade_transitions));

  if (completed == 0) {
    *error = scenario + " run completed zero requests";
  } else if (hot_swap && hot_swaps == 0) {
    *error = scenario + " run never hot-swapped the staged checkpoint";
  } else if (hot_swap && post_swap_bitwise != 1) {
    *error = scenario +
             " run's post-swap forecast is not bitwise the staged twin";
  } else if (bitwise_models != static_cast<int64_t>(d.tenants.size())) {
    *error = scenario + " forecasts diverge from the standalone sessions (" +
             std::to_string(bitwise_models) + "/" +
             std::to_string(d.tenants.size()) + " bitwise)";
  } else if (others_session_swaps != 0) {
    *error = "hot reload perturbed other models' sessions (" +
             std::to_string(others_session_swaps) + " unexpected swaps)";
  } else {
    return true;
  }
  return false;
}

bool RunServing(const ServingConfig& config, MetricsSink* sink,
                std::string* error) {
  std::vector<std::string> backends;
  if (!ResolveServingBackends(config, &backends, error)) return false;
  const ServingWorkload w = BuildServingWorkload(config);

  double eager_p50 = 0.0;
  double plan_p50 = 0.0;
  bool parity_ran = false;
  bool ok = true;
  // The backend axis is the outermost loop: sessions (and hence captured
  // plans) are rebuilt per backend so every number is measured under the
  // backend it is labeled with. The prior backend is restored on exit.
  const std::string original_backend = kernels::ActiveBackend().name;
  for (const std::string& backend : backends) {
    if (!kernels::SetActiveBackend(backend, error)) {
      ok = false;
      break;
    }
    if (backends.size() > 1) {
      std::printf("serving backend: %s\n", backend.c_str());
      std::fflush(stdout);
    }
    auto plan_session =
        BuildServingSession(w, config, config.model_seed, /*use_plans=*/true);
    if (plan_session == nullptr) {
      *error = "failed to build the plan-serving inference session";
      ok = false;
      break;
    }
    std::unique_ptr<infer::InferenceSession> eager_session;

    for (const std::string& scenario : config.scenarios) {
      if (!ResolveServingScenario(scenario, error)) {
        ok = false;
        break;
      }
      std::printf("serving scenario: %s\n", scenario.c_str());
      std::fflush(stdout);
      if (scenario == "session-eager" || scenario == "session-plan") {
        if (scenario == "session-eager" && eager_session == nullptr) {
          eager_session = BuildServingSession(w, config, config.model_seed,
                                              /*use_plans=*/false);
          if (eager_session == nullptr) {
            *error = "failed to build the eager inference session";
            ok = false;
            break;
          }
        }
        infer::InferenceSession* session = scenario == "session-plan"
                                               ? plan_session.get()
                                               : eager_session.get();
        for (const int64_t threads : config.threads) {
          for (const int64_t batch : config.batch_sizes) {
            if (!SweepSession(session, config, w, scenario, threads, batch,
                              sink, error)) {
              ok = false;
              break;
            }
          }
          if (!ok) break;
        }
      } else if (scenario != "parity") {  // the serving-core scenarios
        const auto sweep = [&](int64_t threads) {
          if (scenario == "server") {
            return SweepServer(plan_session.get(), config, w, threads, sink,
                               error);
          }
          if (scenario == "overload") {
            return RunDrill(OverloadDrill(config), config, w, threads, sink,
                            error);
          }
          DrillConfig drill;
          return FleetDrill(config, &drill, error) &&
                 RunDrill(drill, config, w, threads, sink, error);
        };
        for (const int64_t threads : config.threads) {
          ok = sweep(threads);
          if (!ok) break;
        }
      } else {
        if (eager_session == nullptr) {
          eager_session = BuildServingSession(w, config, config.model_seed,
                                              /*use_plans=*/false);
          if (eager_session == nullptr) {
            *error = "failed to build the eager inference session";
            ok = false;
            break;
          }
        }
        for (const int64_t threads : config.threads) {
          if (!SweepParity(plan_session.get(), eager_session.get(), config, w,
                           threads, sink, &eager_p50, &plan_p50, error)) {
            ok = false;
            break;
          }
          parity_ran = true;
        }
      }
      if (!ok) break;
    }
    if (!ok) break;
  }
  kernels::SetActiveBackend(original_backend);
  SetNumThreads(1);
  if (!ok) return false;

  if (parity_ran) {
    // The headline numbers come from the last (largest) thread count.
    sink->SetSummary("eager_p50_ms", json::Value::Number(eager_p50));
    sink->SetSummary("plan_p50_ms", json::Value::Number(plan_p50));
    sink->SetSummary(
        "plan_speedup",
        json::Value::Number(plan_p50 > 0.0 ? eager_p50 / plan_p50 : 0.0));
    sink->SetSummary("bitwise_identical", json::Value::Int(1));
  }
  return true;
}

// ---------------------------------------------------------------------------
// kind = dataset (Table 2)

struct PaperDatasetRow {
  const char* type;
  const char* name;
  int64_t nodes, edges, steps;
};

constexpr PaperDatasetRow kPaperRows[] = {
    {"Speed", "METR-LA", 207, 1722, 34272},
    {"Speed", "PEMS-BAY", 325, 2694, 52116},
    {"Flow", "PEMS04", 307, 680, 16992},
    {"Flow", "PEMS08", 170, 548, 17856},
};

bool RunDataset(const Spec& spec, const DatasetConfig& config,
                MetricsSink* sink, std::string* error) {
  for (const std::string& name : config.datasets) {
    data::DatasetPreset preset;
    if (!ResolveDataset(name, config.scale, spec, &preset, error)) {
      return false;
    }
    const data::SyntheticTraffic traffic =
        data::GenerateSyntheticTraffic(preset.options);
    const auto& dataset = traffic.dataset;
    json::Value record = json::Value::Object();
    record.Set("dataset", json::Value::Str(name));
    record.Set("nodes", json::Value::Int(dataset.num_nodes()));
    record.Set("edges", json::Value::Int(
                            graph::CountEdges(dataset.network.adjacency)));
    record.Set("steps", json::Value::Int(dataset.num_steps()));
    for (const PaperDatasetRow& row : kPaperRows) {
      if (name == row.name) {
        record.Set("type", json::Value::Str(row.type));
        record.Set("paper_nodes", json::Value::Int(row.nodes));
        record.Set("paper_edges", json::Value::Int(row.edges));
        record.Set("paper_steps", json::Value::Int(row.steps));
      }
    }
    sink->AddRecord(std::move(record));
  }
  sink->SetSummary("datasets", json::Value::Int(static_cast<int64_t>(
                                   config.datasets.size())));
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------

bool ExpandMatrix(const Spec& spec, std::vector<std::string>* cells,
                  std::string* error) {
  cells->clear();
  const std::string kind = spec.GetString("experiment", "kind", "");
  if (kind == "training") {
    return ExpandTraining(spec, ParseTrainingConfig(spec), cells, error);
  }
  if (kind == "serving") {
    return ExpandServing(ParseServingConfig(spec), cells, error);
  }
  if (kind == "dataset") {
    return ExpandDataset(spec, ParseDatasetConfig(spec), cells, error);
  }
  *error = "[experiment] kind must be training, serving, or dataset, got '" +
           kind + "'";
  return false;
}

RunResult RunSpec(const Spec& spec, const RunOptions& options) {
  RunResult result;
  result.experiment = spec.GetString("experiment", "name", "");
  result.kind = spec.GetString("experiment", "kind", "");
  if (result.experiment.empty()) {
    result.error = "[experiment] name is required";
    return result;
  }

  // Consume the [output] keys up front so Validate() sees them as known.
  const std::string out_file = spec.GetString(
      "output", "file", "BENCH_" + result.experiment + ".json");
  std::string baseline_path = spec.GetString("output", "baseline", "");
  if (!options.baseline_path.empty()) baseline_path = options.baseline_path;
  if (baseline_path == "none") baseline_path.clear();

  std::vector<std::string> cells;
  if (!ExpandMatrix(spec, &cells, &result.error)) return result;
  result.cells = static_cast<int64_t>(cells.size());

  // Every key the kind understands has been consumed; anything left is a
  // typo the run must refuse (satellite: unknown keys rejected with line
  // numbers).
  const std::string validation = spec.Validate();
  if (!validation.empty()) {
    result.error = "spec validation failed:\n" + validation;
    return result;
  }

  if (options.dry_run) {
    result.ok = true;
    std::string listing;
    for (const std::string& cell : cells) listing += "  " + cell + "\n";
    result.table = "matrix (" + std::to_string(cells.size()) + " cells):\n" +
                   listing;
    return result;
  }

  MetricsSink sink(result.experiment, result.kind);
  bool ran = false;
  if (result.kind == "training") {
    ran = RunTraining(spec, ParseTrainingConfig(spec), &sink, &result.error);
  } else if (result.kind == "serving") {
    ran = RunServing(ParseServingConfig(spec), &sink, &result.error);
  } else {
    ran = RunDataset(spec, ParseDatasetConfig(spec), &sink, &result.error);
  }
  if (!ran) return result;

  result.table = sink.RenderTable();
  const std::string dir = options.out_dir.empty() ? "." : options.out_dir;
  result.json_path = dir + "/" + out_file;
  if (!sink.WriteJson(result.json_path, &result.error)) return result;

  if (!baseline_path.empty()) {
    json::Value baseline;
    if (!json::Value::ParseFile(baseline_path, &baseline, &result.error)) {
      return result;
    }
    GateReport report;
    if (!CheckAgainstBaseline(sink.ToJson(), baseline, &report,
                              &result.error)) {
      result.error = baseline_path + ": " + result.error;
      return result;
    }
    result.gate_report = report.ToString();
    if (!report.ok) {
      result.gate_violation = true;
      result.error = result.gate_report;
      return result;
    }
  }
  result.ok = true;
  return result;
}

}  // namespace d2stgnn::experiment
