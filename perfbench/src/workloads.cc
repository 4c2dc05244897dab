#include "workloads.h"

#include <memory>

#include "infer/fleet/fleet.h"
#include "serving.h"

namespace perfbench {

namespace d2 = d2stgnn;

void ReportReloads(const std::vector<ReloadTiming>& reloads,
                   const std::vector<double>& save_ms, Report* report) {
  std::vector<double> load;
  std::vector<double> warm;
  std::vector<double> swap;
  for (const ReloadTiming& r : reloads) {
    load.push_back(r.load_ms);
    warm.push_back(r.warm_ms);
    swap.push_back(r.swap_us);
  }
  const auto n = static_cast<int64_t>(reloads.size());
  report->Set("checkpoint.save_ms", Median(save_ms), "ms",
              static_cast<int64_t>(save_ms.size()));
  report->Set("reload.load_ms", Median(load), "ms", n);
  report->Set("reload.warm_ms", Median(warm), "ms", n);
  report->Set("reload.swap_us", Median(swap), "us", n);
}

void ServingProbe(RunContext* ctx, const City& city, const std::string& ckpt) {
  const Config& cfg = ctx->config;
  Report& report = ctx->report;
  const double seconds = cfg.Num("probe_seconds");
  const int64_t items = static_cast<int64_t>(city.requests.size());
  const auto keep = [](const Arrival&) { return false; };

  {  // one BatchingServer
    d2::infer::BatchingOptions options;
    options.max_batch_size = 8;
    d2::infer::BatchingServer server(LoadSession(city, ckpt, &ctx->tracer),
                                     options);
    const auto schedule = PoissonSchedule(
        {{"probe", seconds, {cfg.Num("probe_server_rps")}}}, items, ctx->seed);
    const auto counters = [&] {
      const d2::infer::BatchingServerStats s = server.stats();
      ServingCounters c;
      c.session = server.session()->session_stats();
      c.completed = s.completed;
      c.full_flushes = s.full_flushes;
      return c;
    };
    const d2::infer::BatchingServerStats before = server.stats();
    const ServingCounters plan_before = counters();
    const LoadResult load = RunOpenLoop(
        schedule, 1,
        [&](const Arrival& a) {
          return server.Submit(city.requests[static_cast<size_t>(a.item)]);
        },
        keep, &ctx->tracer);
    const d2::infer::BatchingServerStats after = server.stats();
    CheckResolved(load, "server probe", &report);
    CheckStats(after, server.QueueDepth(), after.submitted + after.rejected,
               "server probe", &report);
    ReportLoadgen(load, &report);
    ReportServer(load, CountersOf(before), CountersOf(after), &report);
    ReportPlanUse(plan_before, counters(), options.max_batch_size, &report);
    server.Shutdown(true);
  }

  // Three tenants serving the same model, one per SLO class.
  const Checkpoints c{ckpt, ckpt};
  std::unique_ptr<d2::infer::ModelFleet> fleet;
  std::unique_ptr<d2::infer::FleetServer> server;
  StartFleet(ctx, {&city, &city, &city}, {&c, &c, &c}, {8, 8, 8}, 256,
             {0, 0, 0}, &fleet, &server);
  std::vector<double> rps;
  const json::Value& rates = cfg.Section("probe_fleet_rps");
  for (size_t i = 0; i < rates.size(); ++i) rps.push_back(rates.at(i).AsDouble());
  const auto schedule =
      PoissonSchedule({{"probe", seconds, rps}}, items, ctx->seed);
  const std::vector<std::string> ids = {"gold", "silver", "bronze"};
  const d2::infer::FleetStats before = server->stats();
  const LoadResult load = RunOpenLoop(
      schedule, 3,
      [&](const Arrival& a) {
        return server->Submit(ids[static_cast<size_t>(a.lane)],
                              city.requests[static_cast<size_t>(a.item)]);
      },
      keep, &ctx->tracer);
  const d2::infer::FleetStats after = server->stats();
  CheckResolved(load, "fleet probe", &report);
  CheckStats(after, server->QueueDepth(),
             after.submitted + after.rejected + after.rejected_unknown_model,
             "fleet probe", &report);
  ReportFleet(load, before, after, ids, &report);
  server->Shutdown(true);
}

}  // namespace perfbench
