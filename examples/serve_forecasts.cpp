// Serving a trained model with the inference engine: InferenceSessions
// wrapping D2STGNN behind the micro-batching serving core (FleetServer),
// driven by the open-loop LoadGenerator — producers submit on a fixed
// schedule whether or not earlier requests have finished, like real traffic
// does — then a per-model report: p50/p99 latency from each request's
// scheduled send, the generator's lag, typed rejects, and plan counters.
//
// The generator runs once per serving mode, each against a fresh session
// around identically-initialized weights (one tenant, "model"):
//   eager — every forward runs the normal op dispatch path
//   plan  — warmed-up batch shapes replay captured execution plans
//           (DESIGN.md §10); the report adds the plan-cache counters
//
//   ./build/examples/serve_forecasts [rate_rps] [seconds] [producers]
//       [--mode=eager|plan|both] [--qps=N] [--deadline-ms=N]
//       [--reload-dir=DIR] [--reload-poll-ms=N]
//       [--fleet] [--models=id:slo,...]
//
// Defaults: 200 req/s for 2 seconds from 2 producers per model,
// --mode=both.
//
// Overload-resilience knobs (DESIGN.md §13):
//   --qps=N         named override of the positional rate — push it past
//                   what one core serves and watch the admission controller
//                   shed with typed, retryable rejections
//   --deadline-ms=N per-request deadline; requests that would go stale in
//                   the queue are dropped before they waste a batch slot
//   --reload-dir=D  watch D for checkpoints and hot-swap them in under
//                   live traffic; the demo drops a differently-seeded twin
//                   checkpoint into D halfway through each run, so the
//                   post-swap forecasts visibly change mid-load
//   --reload-poll-ms=N  checkpoint watcher poll period (default 50)
//
// Fleet mode (DESIGN.md §14) — one process, many city models:
//   --fleet         serve every tenant in --models from the same core:
//                   per-model weights, plan caches, and SLO classes behind
//                   one shared queue, with weighted-fair arbitration once
//                   the queue is contended; the rate is split evenly
//                   across tenants. With --reload-dir, a twin checkpoint
//                   is hot-reloaded into the *first* tenant mid-run — the
//                   other lanes must not swap.
//   --models=...    comma-separated "id" or "id:slo" tenants (SLO classes:
//                   gold, silver, bronze); default
//                   "metr-la:gold,pems-bay:silver,city-syn:bronze"
//
//   ./build/examples/serve_forecasts --fleet
//       --models=metr-la:gold,pems-bay:silver,city-syn:bronze
//       --qps=600 --reload-dir=/tmp/fleet-demo

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "core/d2stgnn.h"
#include "data/sliding_window.h"
#include "data/synthetic_traffic.h"
#include "experiment/load_generator.h"
#include "infer/fleet/fleet.h"
#include "infer/fleet/fleet_server.h"
#include "infer/hot_reload.h"
#include "infer/session.h"
#include "metrics/metrics.h"
#include "tensor/kernels/registry.h"
#include "train/checkpoint.h"

using namespace d2stgnn;

namespace {

constexpr int64_t kNodes = 20;
constexpr int64_t kInputLen = 12;

core::D2StgnnConfig ModelConfig(const data::SyntheticTraffic& traffic) {
  core::D2StgnnConfig config;
  config.num_nodes = kNodes;
  config.input_len = kInputLen;
  config.output_len = 12;
  config.hidden_dim = 16;
  config.embed_dim = 8;
  config.steps_per_day = traffic.dataset.steps_per_day;
  return config;
}

std::unique_ptr<core::D2Stgnn> BuildModel(
    const data::SyntheticTraffic& traffic, uint64_t seed) {
  Rng rng(seed);
  return std::make_unique<core::D2Stgnn>(
      ModelConfig(traffic), traffic.dataset.network.adjacency, rng);
}

infer::SessionOptions MakeSessionOptions(
    const data::SyntheticTraffic& traffic, bool use_plans) {
  infer::SessionOptions session_options;
  session_options.num_nodes = kNodes;
  session_options.input_len = kInputLen;
  session_options.steps_per_day = traffic.dataset.steps_per_day;
  session_options.use_plans = use_plans;
  return session_options;
}

// Overload-resilience knobs threaded from main into each load run.
struct LoadConfig {
  int64_t deadline_us = 0;   // 0 = no deadline
  std::string reload_dir;    // empty = no hot-reload watcher
  int64_t reload_poll_ms = 50;
  bool use_plans = false;
  const data::SyntheticTraffic* traffic = nullptr;
  const data::StandardScaler* scaler = nullptr;
};

// Serves every preset from one FleetServer under the open-loop load and
// prints a per-model report; the single-model modes are the one-tenant
// case. With --reload-dir, a differently-seeded twin checkpoint is dropped
// halfway through and hot-reloaded into the *first* tenant's lane — every
// other lane must ride out the swap untouched. Returns the first tenant's
// session (for the closing forecast), or null on setup failure.
std::shared_ptr<infer::InferenceSession> RunServe(
    const char* label, const std::vector<infer::TenantSpec>& presets,
    const std::vector<infer::ForecastRequest>& ring, double rate_rps,
    double seconds, int producers, const LoadConfig& load) {
  const data::SyntheticTraffic& traffic = *load.traffic;
  infer::ModelFleet fleet;
  for (size_t i = 0; i < presets.size(); ++i) {
    // Distinct weights per tenant, none of them the reload twin's (seed 7).
    auto session = infer::InferenceSession::Wrap(
        BuildModel(traffic, 3 + 16 * static_cast<uint64_t>(i)), *load.scaler,
        MakeSessionOptions(traffic, load.use_plans));
    if (session == nullptr) return nullptr;
    infer::FleetModelOptions model_options;
    model_options.model_id = presets[i].id;
    model_options.slo = presets[i].slo;
    model_options.max_batch_size = 8;
    model_options.max_wait_us = 1000;
    std::string error;
    if (!fleet.AddModel(std::shared_ptr<infer::InferenceSession>(
                            session.release()),
                        model_options, &error)) {
      std::fprintf(stderr, "fleet setup failed: %s\n", error.c_str());
      return nullptr;
    }
  }
  infer::FleetOptions fleet_options;
  fleet_options.max_queue_depth = 1024;
  infer::FleetServer server(&fleet, fleet_options);

  const std::string& reload_id = presets.front().id;
  std::string watch_dir;
  if (!load.reload_dir.empty()) {
    // Per-run subdirectory so --mode=both does not replay the eager run's
    // checkpoint into the plan run at t=0.
    watch_dir = load.reload_dir + "/" + label;
    std::filesystem::create_directories(watch_dir);
    infer::HotReloadOptions reload_options;
    reload_options.directory = watch_dir;
    reload_options.poll_interval_ms = load.reload_poll_ms;
    std::string error;
    if (!fleet.AttachReloader(reload_id, server.host(reload_id),
                              [&traffic] { return BuildModel(traffic, 3); },
                              *load.scaler,
                              MakeSessionOptions(traffic, load.use_plans),
                              reload_options, &error)) {
      std::fprintf(stderr, "reloader setup failed: %s\n", error.c_str());
      return nullptr;
    }
    fleet.StartReloaders();
  }

  std::printf("\n[%s] open-loop load: %.0f req/s split across %zu model%s "
              "for %.1f s, %d producer%s per model\n",
              label, rate_rps, presets.size(), presets.size() == 1 ? "" : "s",
              seconds, producers, producers == 1 ? "" : "s");
  experiment::OpenLoopOptions options;
  options.lane_rps.assign(presets.size(),
                          rate_rps / static_cast<double>(presets.size()));
  options.producers_per_lane = producers;
  options.seconds = seconds;
  bool dropped = false;
  const auto drop_twin = [&] {
    if (watch_dir.empty() || dropped) return;
    dropped = true;
    const std::string path = train::CheckpointPathForStep(watch_dir, 1);
    if (!train::SaveCheckpoint(*BuildModel(traffic, 7), path)) {
      std::fprintf(stderr, "checkpoint drop failed: %s\n", path.c_str());
    }
  };
  options.on_tick = [&](double elapsed_s) {
    if (elapsed_s >= seconds / 2.0) drop_twin();
  };
  const experiment::LoadResult result =
      experiment::LoadGenerator([&](const experiment::LoadRequest& r) {
        infer::ForecastRequest request =
            ring[static_cast<size_t>(r.seq) % ring.size()];
        request.deadline_us = load.deadline_us;
        return server.Submit(presets[static_cast<size_t>(r.lane)].id,
                             std::move(request));
      }).OpenLoop(options);
  drop_twin();
  fleet.StopReloaders();  // stop the watcher before the server drains
  server.Shutdown();

  // Latency runs from each request's scheduled send; the generator's own
  // lateness is reported apart as lag.
  std::vector<double> lag_ms;
  for (const experiment::LoadSample& sample : result.samples) {
    lag_ms.push_back(sample.lag_ms);
  }
  const infer::FleetStats stats = server.stats();
  std::printf("[%s] %lld served / %lld offered in %.2f s (tier %s, "
              "generator lag p99 %.3f ms)\n",
              label, static_cast<long long>(stats.completed),
              static_cast<long long>(result.samples.size()), result.elapsed_s,
              infer::OverloadTierName(stats.tier),
              metrics::SummarizeLatencies(lag_ms).p99);
  std::printf("  %-12s %-8s %8s %8s %8s %8s %8s %26s %8s %5s\n", "model",
              "slo", "served", "p50 ms", "p99 ms", "shed", "expired",
              "rejects q/rate/over/low/quota", "batch", "swaps");
  for (size_t m = 0; m < presets.size(); ++m) {
    const infer::FleetModelStats& ms = stats.models.at(presets[m].id);
    const metrics::LatencyStats lat = metrics::SummarizeLatencies(
        result.OkLatenciesMs(static_cast<int64_t>(m)));
    char rejects[64];
    std::snprintf(rejects, sizeof(rejects), "%lld/%lld/%lld/%lld/%lld",
                  static_cast<long long>(ms.rejected_queue_full),
                  static_cast<long long>(ms.rejected_rate_limited),
                  static_cast<long long>(ms.rejected_overloaded),
                  static_cast<long long>(ms.rejected_low_priority),
                  static_cast<long long>(ms.rejected_quota));
    std::printf("  %-12s %-8s %8lld %8.3f %8.3f %8lld %8lld %26s %8.2f %5lld\n",
                presets[m].id.c_str(), presets[m].slo.name.c_str(),
                static_cast<long long>(ms.completed), lat.p50, lat.p99,
                static_cast<long long>(ms.rejected),
                static_cast<long long>(ms.expired_deadlines), rejects,
                ms.batches > 0 ? static_cast<double>(ms.completed) /
                                     static_cast<double>(ms.batches)
                               : 0.0,
                static_cast<long long>(ms.session_swaps));
    const infer::SessionStats plans =
        fleet.session(presets[m].id)->session_stats();
    if (plans.plans_built > 0) {
      std::printf("  %-12s plans: %lld built, %lld replays (%lld padded), "
                  "%lld eager fallbacks\n",
                  "", static_cast<long long>(plans.plans_built),
                  static_cast<long long>(plans.plan_replays),
                  static_cast<long long>(plans.padded_replays),
                  static_cast<long long>(plans.eager_forwards));
    }
  }
  if (!watch_dir.empty()) {
    std::printf("[%s] hot-reload: %lld swap%s on '%s' from %s\n", label,
                static_cast<long long>(stats.session_swaps),
                stats.session_swaps == 1 ? "" : "s", reload_id.c_str(),
                watch_dir.c_str());
  }
  return fleet.session(reload_id);
}

}  // namespace

int main(int argc, char** argv) {
  double rate_rps = 200.0;
  double seconds = 2.0;
  int64_t producer_count = 2;
  std::string mode = "both";
  double qps = 0.0;
  double deadline_ms = 0.0;
  std::string reload_dir;
  int64_t reload_poll_ms = 50;
  bool fleet_mode = false;
  std::string models = "metr-la:gold,pems-bay:silver,city-syn:bronze";
  std::string backend;
  FlagParser flags("serve_forecasts",
                   "open-loop serving demo against the serving core");
  flags.AddPositionalDouble("rate_rps", &rate_rps,
                            "aggregate request rate (default 200)");
  flags.AddPositionalDouble("seconds", &seconds,
                            "run duration per mode (default 2)");
  flags.AddPositionalInt("producers", &producer_count,
                         "concurrent request producers per model (default 2)");
  flags.AddChoice("mode", &mode, {"eager", "plan", "both"},
                  "which dispatch mode(s) to serve");
  flags.AddDouble("qps", &qps,
                  "named override of rate_rps (0 = use the positional)");
  flags.AddDouble("deadline-ms", &deadline_ms,
                  "per-request deadline in ms (0 = none); stale requests "
                  "are dropped before dispatch");
  flags.AddString("reload-dir", &reload_dir,
                  "watch this directory for checkpoints and hot-swap them "
                  "in under load (a twin checkpoint is dropped mid-run)");
  flags.AddInt("reload-poll-ms", &reload_poll_ms,
               "checkpoint watcher poll period in ms (default 50)");
  flags.AddBool("fleet", &fleet_mode,
                "serve every --models tenant from one FleetServer "
                "(per-model SLO classes, shared-capacity arbitration)");
  flags.AddString("models", &models,
                  "fleet tenants as comma-separated id[:slo] entries "
                  "(SLO classes: gold, silver, bronze)");
  flags.AddString("backend", &backend,
                  "kernel backend to serve under (scalar, avx2; default: "
                  "runtime detection, D2STGNN_FORCE_BACKEND honored)");
  if (!flags.Parse(argc, argv)) {
    if (flags.help_requested()) {
      std::fputs(flags.Usage().c_str(), stdout);
      return 0;
    }
    std::fprintf(stderr, "%s: %s\n%s", argv[0], flags.error().c_str(),
                 flags.Usage().c_str());
    return 1;
  }
  const int producers = static_cast<int>(producer_count);
  const bool run_eager = mode == "eager" || mode == "both";
  const bool run_plan = mode == "plan" || mode == "both";
  if (qps > 0.0) rate_rps = qps;
  if (rate_rps <= 0.0 || seconds <= 0.0 || producers <= 0) {
    std::fprintf(stderr, "%s: rate_rps, seconds, and producers must be > 0\n",
                 argv[0]);
    return 1;
  }
  if (deadline_ms < 0.0) {
    std::fprintf(stderr, "%s: --deadline-ms must be >= 0\n", argv[0]);
    return 1;
  }
  if (reload_poll_ms <= 0) {
    std::fprintf(stderr, "%s: --reload-poll-ms must be > 0\n", argv[0]);
    return 1;
  }
  if (!backend.empty()) {
    std::string error;
    if (!kernels::SetActiveBackend(backend, &error)) {
      std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
      return 1;
    }
  }
  std::printf("kernel backend: %s (detected: %s)\n",
              kernels::ActiveBackend().name, kernels::DetectedBackendName());

  // A road network to serve forecasts for.
  data::SyntheticTrafficOptions traffic_options;
  traffic_options.network.num_nodes = kNodes;
  traffic_options.num_steps = 600;
  traffic_options.seed = 11;
  const data::SyntheticTraffic traffic =
      data::GenerateSyntheticTraffic(traffic_options);
  data::StandardScaler scaler;
  scaler.Fit(traffic.dataset.values, 400, true);

  // A ring of real sensor windows to request forecasts for.
  std::vector<infer::ForecastRequest> ring;
  const std::vector<float>& values = traffic.dataset.values.Data();
  for (int64_t start = 0; start < 64; ++start) {
    infer::ForecastRequest request;
    request.window.assign(values.data() + start * kNodes,
                          values.data() + (start + kInputLen) * kNodes);
    request.time_of_day = traffic.dataset.TimeOfDay(start);
    request.day_of_week = traffic.dataset.DayOfWeek(start);
    ring.push_back(std::move(request));
  }

  LoadConfig load;
  load.deadline_us = static_cast<int64_t>(deadline_ms * 1000.0);
  load.reload_dir = reload_dir;
  load.reload_poll_ms = reload_poll_ms;
  load.traffic = &traffic;
  load.scaler = &scaler;

  // Single-model modes serve one tenant; fleet mode serves --models.
  std::vector<infer::TenantSpec> presets = {{"model", infer::SloClass{}}};
  std::vector<std::pair<const char*, bool>> runs;  // label, use_plans
  if (fleet_mode) {
    std::vector<std::string> entries;
    std::istringstream in(models);
    for (std::string entry; std::getline(in, entry, ',');) {
      entry.erase(0, entry.find_first_not_of(" \t"));  // "a:gold, b:silver"
      entry.erase(entry.find_last_not_of(" \t") + 1);
      if (!entry.empty()) entries.push_back(entry);
    }
    std::string error;
    if (!infer::ParseTenants(entries, &presets, &error)) {
      std::fprintf(stderr, "%s: --models: %s\n", argv[0], error.c_str());
      return 1;
    }
    runs = {{"fleet", true}};
  } else {
    if (run_eager) runs.emplace_back("eager", false);
    // Warm-up captures plans at sizes 1 and 8 when the server starts, so
    // the plan run replays captured plans from its first request.
    if (run_plan) runs.emplace_back("plan", true);
  }
  std::shared_ptr<infer::InferenceSession> last_session;
  for (const auto& [label, use_plans] : runs) {
    load.use_plans = use_plans;
    last_session =
        RunServe(label, presets, ring, rate_rps, seconds, producers, load);
    if (last_session == nullptr) return 1;
  }

  // One forecast, end to end, for show: the model's 12-step speed forecast
  // for sensor 0.
  const infer::Forecast sample = last_session->PredictOne(ring[0]);
  if (sample.ok) {
    std::printf("\nsensor 0 forecast (mph):");
    for (int64_t t = 0; t < sample.horizon; ++t) {
      std::printf(" %.1f", sample.values[static_cast<size_t>(
                               t * sample.num_nodes)]);
    }
    std::printf("\n");
  }
  return 0;
}
