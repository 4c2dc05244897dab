// fleet_reload: one FleetServer with three tenants (gold, silver, bronze)
// under an open-loop mix, nominal then overload, while the silver tenant's
// weights are hot-reloaded every few seconds. Silver is the paper-width
// D²STGNN, so kernels do most of the work here; a silver batch cannot be
// preempted, so it blocks the gold lane and the arbitration shows; and each
// reload (checkpoint load, plan capture and verification) writes beside the
// serving reads.

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "common/thread_pool.h"
#include "infer/fleet/fleet.h"
#include "serving.h"
#include "workloads.h"

namespace perfbench {

namespace d2 = d2stgnn;

namespace {

const std::vector<std::string> kLanes = {"gold", "silver", "bronze"};

struct FleetSetup {
  std::vector<std::unique_ptr<City>> cities;
  std::vector<Checkpoints> ckpts;
  std::unique_ptr<d2::infer::ModelFleet> fleet;
  std::unique_ptr<d2::infer::FleetServer> server;
  std::vector<double> save_ms;
};

std::vector<double> Numbers(const json::Value& array) {
  std::vector<double> out;
  for (size_t i = 0; i < array.size(); ++i) out.push_back(array.at(i).AsDouble());
  return out;
}

}  // namespace

void StartFleet(RunContext* ctx, const std::vector<const City*>& cities,
                const std::vector<const Checkpoints*>& ckpts,
                const std::vector<int64_t>& max_batch, int64_t max_queue_depth,
                const std::vector<double>& admission_rps,
                std::unique_ptr<d2::infer::ModelFleet>* fleet,
                std::unique_ptr<d2::infer::FleetServer>* server) {
  *fleet = std::make_unique<d2::infer::ModelFleet>();
  for (size_t i = 0; i < cities.size(); ++i) {
    d2::infer::FleetModelOptions options;
    options.model_id = kLanes[i];
    d2::infer::ResolveSloClass(kLanes[i], &options.slo);
    options.max_batch_size = max_batch[i];
    options.admission.rate_rps = admission_rps[i];
    std::string error;
    if (!(*fleet)->AddModel(LoadSession(*cities[i], ckpts[i]->a, &ctx->tracer),
                            options, &error)) {
      std::fprintf(stderr, "perfbench: fleet lane %s: %s\n", kLanes[i].c_str(),
                   error.c_str());
      std::exit(2);
    }
  }
  d2::infer::FleetOptions options;
  options.max_queue_depth = max_queue_depth;
  Tracer::Scope span(&ctx->tracer, "infer.fleet.start", -1);
  *server = std::make_unique<d2::infer::FleetServer>(fleet->get(), options);
}

void RunFleetReload(RunContext* ctx) {
  const Config& cfg = ctx->config;
  Report& report = ctx->report;
  d2::SetNumThreads(static_cast<int>(cfg.Int("pool_threads")));
  const int64_t max_batch = cfg.Int("max_batch");
  const int64_t silver_max_batch = cfg.Int("silver_max_batch");

  std::vector<double> setup_s;
  FleetSetup s;
  for (int64_t rep = 0; rep < cfg.Int("setup_repeats"); ++rep) {
    s = FleetSetup{};
    const Clock::time_point t0 = Clock::now();
    for (const std::string& lane : kLanes) {
      {
        Tracer::Scope span(&ctx->tracer, "data.generate", -1);
        s.cities.push_back(
            MakeCity(lane, cfg.Section("cities").Get(lane), ctx->seed));
      }
      const Clock::time_point t1 = Clock::now();
      s.ckpts.push_back(WriteCheckpoints(*s.cities.back(), ctx->out_dir,
                                         &ctx->tracer));
      s.save_ms.push_back(MsSince(t1) / 2.0);
    }
    StartFleet(ctx, {s.cities[0].get(), s.cities[1].get(), s.cities[2].get()},
               {&s.ckpts[0], &s.ckpts[1], &s.ckpts[2]},
               {max_batch, silver_max_batch, max_batch},
               cfg.Int("max_queue_depth"), Numbers(cfg.Section("admission_rps")),
               &s.fleet, &s.server);
    setup_s.push_back(MsSince(t0) / 1000.0);
  }
  report.Set("setup_s", Median(setup_s), "s",
             static_cast<int64_t>(setup_s.size()));

  const std::vector<double> deadline_ms = Numbers(cfg.Section("deadline_ms"));
  const int64_t check_every = cfg.Int("check_every");
  const auto submit = [&](const Arrival& a) {
    const City& city = *s.cities[static_cast<size_t>(a.lane)];
    d2::infer::ForecastRequest r = city.requests[static_cast<size_t>(a.item)];
    r.deadline_us = static_cast<int64_t>(
        deadline_ms[static_cast<size_t>(a.lane)] * 1000.0);
    return s.server->Submit(kLanes[static_cast<size_t>(a.lane)], std::move(r));
  };
  const auto keep = [&](const Arrival& a) { return a.id % check_every == 0; };

  const double span_s = ctx->trace ? ctx->seconds / 2.0 : ctx->seconds;
  const std::vector<PhaseSpec> phases = CyclePhases(
      span_s, cfg.Int("cycles"),
      Numbers(cfg.Section("nominal_rps")), Numbers(cfg.Section("overload_rps")));
  // Every city holds the same number of request windows.
  const std::vector<Arrival> schedule = PoissonSchedule(
      phases, static_cast<int64_t>(s.cities[0]->requests.size()), ctx->seed);

  struct Pass {
    LoadResult load;
    d2::infer::FleetStats before;
    d2::infer::FleetStats after;
    ServingCounters gold_before;
    ServingCounters gold_after;
  };
  const auto gold_counters = [&] {
    const d2::infer::FleetStats st = s.server->stats();
    const d2::infer::FleetModelStats& g = st.models.at("gold");
    ServingCounters c;
    c.session = s.server->session("gold")->session_stats();
    c.completed = g.completed;
    c.full_flushes = g.full_flushes;
    return c;
  };

  std::vector<ReloadTiming> reloads;
  std::vector<Pass> passes;
  for (int pass = 0; pass < (ctx->trace ? 2 : 1); ++pass) {
    ctx->tracer.set_enabled(ctx->trace && pass == 1);
    Pass p;
    p.before = s.server->stats();
    p.gold_before = gold_counters();

    // The reloader calls Load + Warmup + SwapSession itself, on a fixed
    // cadence, so no poll interval quantizes the reload time. It reloads
    // during the overload phases only: under the full mix every reload
    // meets the same contention, and the nominal phases stay a clean
    // latency baseline.
    std::mutex mu;
    std::condition_variable cv;
    bool stop = false;
    double overload_start_s = 0.0;
    for (const PhaseSpec& phase : phases) {
      if (phase.name != "overload") overload_start_s += phase.seconds;
    }
    std::thread reloader([&] {
      // Reloads run at the lowest CPU priority, as background work beside
      // serving: at normal priority each one stalled the dispatcher for
      // 50-80 ms when the two shared a CPU, and those few stalls, not the
      // serving path, set gold's p99.
      setpriority(PRIO_PROCESS, static_cast<id_t>(gettid()), 19);
      const auto every = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(cfg.Num("reload_every_s")));
      Clock::time_point next =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(overload_start_s)) +
          every / 2;
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(mu);
          if (cv.wait_until(lock, next, [&] { return stop; })) return;
        }
        reloads.push_back(TimedReload(
            *s.cities[1], reloads.size() % 2 == 0 ? s.ckpts[1].b : s.ckpts[1].a,
            silver_max_batch,
            [&](std::shared_ptr<d2::infer::InferenceSession> next_session) {
              s.server->SwapSession("silver", std::move(next_session));
            },
            &ctx->tracer));
        next += every;
      }
    });
    {
      Tracer::Scope span(&ctx->tracer, "loadgen.run", -1);
      p.load = RunOpenLoop(schedule, 3, submit, keep, &ctx->tracer);
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    cv.notify_all();
    reloader.join();
    p.after = s.server->stats();
    p.gold_after = gold_counters();
    passes.push_back(std::move(p));
  }
  const Pass& main = passes.back();

  for (size_t i = 0; i < passes.size(); ++i) {
    const std::string what = "pass " + std::to_string(i);
    CheckResolved(passes[i].load, what, &report);
    CheckStats(passes[i].after, s.server->QueueDepth(),
               passes[i].after.submitted + passes[i].after.rejected +
                   passes[i].after.rejected_unknown_model,
               what, &report);
    report.Check(passes[i].after.submitted - passes[i].before.submitted +
                         passes[i].after.rejected - passes[i].before.rejected ==
                     passes[i].load.sent,
                 what + ": fleet counted every request sent");
    CheckLoadValidity(passes[i].load, cfg.Num("max_lag_p99_ms"), ctx->nproc,
                      &report);
  }
  report.Check(!reloads.empty(), "silver was hot-reloaded (" +
                                     std::to_string(reloads.size()) + " times)");

  // Bitwise checks per tenant; silver may have served either weight set.
  std::vector<std::unique_ptr<d2::infer::InferenceSession>> refs;
  std::vector<double> bronze_mae;
  int64_t checked = 0;
  int64_t mismatched = 0;
  for (int lane = 0; lane < 3; ++lane) {
    const City& city = *s.cities[static_cast<size_t>(lane)];
    std::vector<d2::infer::InferenceSession*> references;
    refs.push_back(ReferenceSession(city, s.ckpts[static_cast<size_t>(lane)].a));
    references.push_back(refs.back().get());
    if (lane == 1) {
      refs.push_back(ReferenceSession(city, s.ckpts[1].b));
      references.push_back(refs.back().get());
    }
    BitwiseResult lane_result;
    lane_result.matched_per_reference.assign(references.size(), 0);
    for (const Pass& p : passes) {
      const BitwiseResult bw = CheckServedForecasts(
          p.load, schedule, lane, city, references,
          lane == 2 ? &bronze_mae : nullptr);
      lane_result.checked += bw.checked;
      lane_result.mismatched += bw.mismatched;
      for (size_t r = 0; r < references.size(); ++r) {
        lane_result.matched_per_reference[r] += bw.matched_per_reference[r];
      }
    }
    report.Check(lane_result.checked > 0 && lane_result.mismatched == 0,
                 kLanes[static_cast<size_t>(lane)] +
                     ": sampled served forecasts bitwise equal a direct "
                     "PredictRequests (" + std::to_string(lane_result.checked) +
                     " checked, " + std::to_string(lane_result.mismatched) +
                     " mismatched)");
    if (lane == 1 && reloads.size() >= 2) {
      report.Check(lane_result.matched_per_reference[0] > 0 &&
                       lane_result.matched_per_reference[1] > 0,
                   "silver: both reloaded weight sets were served");
    }
    checked += lane_result.checked;
    mismatched += lane_result.mismatched;
  }

  const CycleSummary nominal_cycles =
      SummarizeCycles(main.load, phases, "nominal", -1, deadline_ms);
  const CycleSummary overload_cycles =
      SummarizeCycles(main.load, phases, "overload", -1, deadline_ms);
  const CycleSummary gold =
      SummarizeCycles(main.load, phases, "overload", 0, deadline_ms);
  const PhaseLatency& nominal = nominal_cycles.total;
  if (!ctx->trace) {
    report.Check(nominal.ok >= 1000,
                 "nominal phases hold >= 1000 resolved ok requests (" +
                     std::to_string(nominal.ok) + ")");
  }
  // The fleet's headline latency is the gold tenant's while bronze
  // overdrives the fleet (gold_p99_ms): gold stays within its share, so its
  // latency is set by the arbitration and the silver forwards it waits
  // behind. The all-tenant nominal percentiles ride on a few rare stalls per
  // run on a shared host, so they are reported for reading but not gated.
  report.Set("p50_ms", gold.total.p50_ms, "ms", gold.total.ok);
  report.Set("p99_ms", gold.total.p99_ms, "ms", gold.total.ok);
  report.Set("nominal_p50_ms", nominal.p50_ms, "ms", nominal.ok);
  report.Set("nominal_p99_ms", nominal.p99_ms, "ms", nominal.ok);
  report.Set("goodput_per_s", overload_cycles.goodput_per_s, "1/s",
             overload_cycles.total.sent);
  report.Set("forecast_mae", Median(bronze_mae), "mph",
             static_cast<int64_t>(bronze_mae.size()));
  std::vector<double> reload_ms;
  for (const ReloadTiming& r : reloads) reload_ms.push_back(r.total_ms());
  report.Set("reload_ms", Median(reload_ms), "ms",
             static_cast<int64_t>(reloads.size()));
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  report.CountOps(nominal.sent + checked, (nominal.sent - nominal.ok) + mismatched);
  report.Note("nominal_failures", FailureReasons(main.load, phases, "nominal"));
  json::Value lanes = json::Value::Object();
  for (int lane = 0; lane < 3; ++lane) {
    for (const char* phase : {"nominal", "overload"}) {
      const CycleSummary c =
          SummarizeCycles(main.load, phases, phase, lane, deadline_ms);
      json::Value v = json::Value::Object();
      v.Set("sent", json::Value::Int(c.total.sent));
      v.Set("ok", json::Value::Int(c.total.ok));
      v.Set("p50_ms", json::Value::Number(c.total.p50_ms));
      v.Set("p99_ms", json::Value::Number(c.total.p99_ms));
      lanes.Set(kLanes[static_cast<size_t>(lane)] + "." + phase, std::move(v));
    }
  }
  const d2::infer::FleetStats st = s.server->stats();
  for (const std::string& id : kLanes) {
    const d2::infer::FleetModelStats& m = st.models.at(id);
    json::Value v = json::Value::Object();
    v.Set("batches", json::Value::Int(m.batches));
    v.Set("completed", json::Value::Int(m.completed));
    lanes.Set(id + ".server", std::move(v));
  }
  report.Note("lanes", std::move(lanes));

  s.server->Shutdown(true);
  refs.clear();

  if (ctx->trace) {
    const CycleSummary untraced = SummarizeCycles(
        passes.front().load, phases, "nominal", -1, deadline_ms);
    report.Set("trace.overhead_frac",
               nominal.p50_ms / untraced.total.p50_ms - 1.0, "frac");
    ReportLoadgen(main.load, &report);
    ReportServer(main.load, CountersOf(main.before), CountersOf(main.after),
                 &report);
    ReportFleet(main.load, main.before, main.after, kLanes, &report);
    ReportPlanUse(main.gold_before, main.gold_after, max_batch, &report);
    ReportReloads(reloads, s.save_ms, &report);

    // Layer probes at the silver tenant's shapes.
    const City& silver = *s.cities[1];
    const std::shared_ptr<d2::infer::InferenceSession> silver_session =
        LoadSession(silver, s.ckpts[1].a, &ctx->tracer);
    auto model = BuildModel(silver, silver.weights_seed);
    const d2::data::Batch batch8 = silver_session->AssembleBatch(
        {silver.requests.begin(), silver.requests.begin() + max_batch});
    ProbeKernels(silver.config, max_batch, &ctx->tracer, &report);
    ProbeCore(silver.config, silver.traffic.dataset.network.adjacency,
              model.get(), batch8, &ctx->tracer, &report);
    ProbeExec(model.get(), silver.scaler, batch8, &ctx->tracer, &report);
    silver_session->Warmup(1);
    silver_session->Warmup(max_batch);
    ProbeSession(silver_session.get(), silver.requests, &ctx->tracer, &report);
    const d2::data::SplitWindows splits = d2::data::MakeChronologicalSplits(
        silver.traffic.dataset.num_steps(), 12, 12, 0.7f, 0.1f);
    d2::data::WindowDataLoader loader(&silver.traffic.dataset, &silver.scaler,
                                      splits.train, 12, 12, max_batch);
    ProbeTrainStep(model.get(), silver.scaler, loader,
                   cfg.Int("probe_train_steps"), &ctx->tracer, &report);
  }
}

}  // namespace perfbench
