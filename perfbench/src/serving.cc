#include "serving.h"

#include <sched.h>

#include <algorithm>
#include <cstring>
#include <map>

#include "train/checkpoint.h"

namespace perfbench {

namespace d2 = d2stgnn;
using d2::infer::InferenceSession;

Checkpoints WriteCheckpoints(const City& city, const std::string& dir,
                             Tracer* tracer) {
  Checkpoints c;
  c.a = dir + "/" + city.name + "-a.d2ck";
  c.b = dir + "/" + city.name + "-b.d2ck";
  for (const auto& [path, seed] :
       {std::pair{c.a, city.weights_seed}, std::pair{c.b, city.weights_seed + 1}}) {
    std::unique_ptr<d2::train::ForecastingModel> model;
    {
      Tracer::Scope s(tracer, "core.build_model", -1);
      model = BuildModel(city, seed);
    }
    Tracer::Scope s(tracer, "checkpoint.save", -1);
    if (!d2::train::SaveCheckpoint(*model, path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      std::exit(2);
    }
  }
  return c;
}

std::shared_ptr<InferenceSession> LoadSession(const City& city,
                                              const std::string& path,
                                              Tracer* tracer) {
  Tracer::Scope s(tracer, "infer.session.load", -1);
  return std::shared_ptr<InferenceSession>(
      InferenceSession::Load(BuildModel(city, 0), path, city.scaler,
                             SessionOptionsFor(city)));
}

std::unique_ptr<InferenceSession> ReferenceSession(const City& city,
                                                  const std::string& path) {
  d2::infer::SessionOptions options = SessionOptionsFor(city);
  options.use_plans = false;
  options.use_arena = false;
  return InferenceSession::Load(BuildModel(city, 0), path, city.scaler,
                                options);
}

ReloadTiming TimedReload(
    const City& city, const std::string& path, int64_t max_batch,
    const std::function<void(std::shared_ptr<InferenceSession>)>& swap,
    Tracer* tracer) {
  Tracer::Scope span(tracer, "reload", -1);
  ReloadTiming t;
  Clock::time_point t0 = Clock::now();
  std::shared_ptr<InferenceSession> next = LoadSession(city, path, tracer);
  t.load_ms = MsSince(t0);
  if (next == nullptr) {
    std::fprintf(stderr, "perfbench: reload of %s failed\n", path.c_str());
    std::exit(2);
  }
  t0 = Clock::now();
  {
    Tracer::Scope s(tracer, "infer.session.warmup", -1);
    next->Warmup(1);
    if (max_batch > 1) next->Warmup(max_batch);
  }
  t.warm_ms = MsSince(t0);
  t0 = Clock::now();
  {
    Tracer::Scope s(tracer, "infer.server.swap", -1);
    swap(std::move(next));
  }
  t.swap_us = MsSince(t0) * 1000.0;
  return t;
}

std::vector<PhaseSpec> CyclePhases(double seconds, int64_t cycles,
                                   const std::vector<double>& nominal_rps,
                                   const std::vector<double>& overload_rps) {
  // Nominal requests finish within tens of milliseconds; half a second
  // drains them even after a scheduler stall.
  const double drain_s = 0.5;
  const double each = (seconds - drain_s) / static_cast<double>(2 * cycles);
  std::vector<PhaseSpec> phases;
  for (int64_t c = 0; c < cycles; ++c) {
    phases.push_back({"nominal", each, nominal_rps});
  }
  phases.push_back(
      {"drain", drain_s, std::vector<double>(nominal_rps.size(), 0.0)});
  for (int64_t c = 0; c < cycles; ++c) {
    phases.push_back({"overload", each, overload_rps});
  }
  return phases;
}

CycleSummary SummarizeCycles(const LoadResult& load,
                             const std::vector<PhaseSpec>& phases,
                             const std::string& name, int lane,
                             const std::vector<double>& lane_deadline_ms) {
  CycleSummary out;
  std::vector<double> latency;
  std::vector<int64_t> in_deadline(phases.size(), 0);
  for (const Outcome& o : load.outcomes) {
    if (phases[static_cast<size_t>(o.phase)].name != name ||
        (lane >= 0 && o.lane != lane)) {
      continue;
    }
    ++out.total.sent;
    if (!o.ok) continue;
    ++out.total.ok;
    latency.push_back(o.latency_ms);
    if (o.latency_ms <= lane_deadline_ms[static_cast<size_t>(o.lane)]) {
      ++out.total.ok_in_deadline;
      ++in_deadline[static_cast<size_t>(o.phase)];
    }
  }
  std::vector<double> goodput;
  for (size_t i = 0; i < phases.size(); ++i) {
    if (phases[i].name != name) continue;
    goodput.push_back(static_cast<double>(in_deadline[i]) / phases[i].seconds);
    ++out.phases;
  }
  out.total.p50_ms = Percentile(latency, 0.5);
  out.total.p99_ms = Percentile(std::move(latency), 0.99);
  out.goodput_per_s = Median(goodput);
  return out;
}

json::Value FailureReasons(const LoadResult& load,
                           const std::vector<PhaseSpec>& phases,
                           const std::string& name) {
  std::map<std::string, int64_t> counts;
  for (const Outcome& o : load.outcomes) {
    if (o.ok || phases[static_cast<size_t>(o.phase)].name != name) continue;
    ++counts["lane" + std::to_string(o.lane) + "." +
             d2::infer::RejectReasonName(o.reason)];
  }
  json::Value out = json::Value::Object();
  for (const auto& [reason, n] : counts) out.Set(reason, json::Value::Int(n));
  return out;
}

BitwiseResult CheckServedForecasts(
    const LoadResult& load, const std::vector<Arrival>& schedule, int lane,
    const City& city, const std::vector<InferenceSession*>& references,
    std::vector<double>* mae) {
  BitwiseResult r;
  r.matched_per_reference.assign(references.size(), 0);
  for (const Outcome& o : load.outcomes) {
    if (o.lane != lane || !o.ok || o.values.empty()) continue;
    const Arrival& a = schedule[static_cast<size_t>(o.id)];
    d2::infer::ForecastRequest request =
        city.requests[static_cast<size_t>(a.item)];
    ++r.checked;
    bool matched = false;
    for (size_t i = 0; i < references.size() && !matched; ++i) {
      const d2::infer::Forecast direct =
          references[i]->PredictRequests({request}).front();
      if (direct.ok && direct.values.size() == o.values.size() &&
          std::memcmp(direct.values.data(), o.values.data(),
                      o.values.size() * sizeof(float)) == 0) {
        matched = true;
        ++r.matched_per_reference[i];
      }
    }
    if (!matched) ++r.mismatched;
    if (mae != nullptr) mae->push_back(ForecastMae(city, a.item, o.values));
  }
  return r;
}

void CheckResolved(const LoadResult& load, const std::string& what,
                   Report* report) {
  int64_t harvested = 0;
  for (const Outcome& o : load.outcomes) harvested += o.harvested ? 1 : 0;
  report->Check(load.unresolved == 0 && load.resolved == load.sent &&
                    harvested == load.sent,
                what + ": every future resolved exactly once (" +
                    std::to_string(load.resolved) + " of " +
                    std::to_string(load.sent) + ", " +
                    std::to_string(load.unresolved) + " pending)");
}

namespace {

template <typename Stats>
int64_t RejectSum(const Stats& s) {
  return s.rejected_bad_request + s.rejected_queue_full +
         s.rejected_rate_limited + s.rejected_overloaded +
         s.rejected_low_priority + s.rejected_shutdown;
}

}  // namespace

void CheckStats(const d2::infer::BatchingServerStats& s, int64_t queue_depth,
                int64_t sent, const std::string& what, Report* report) {
  report->Check(s.submitted == s.completed + s.cancelled +
                                   s.expired_deadlines + queue_depth,
                what + ": submitted = completed + cancelled + expired + queued");
  report->Check(RejectSum(s) == s.rejected,
                what + ": per-reason rejects sum to rejected");
  report->Check(s.submitted + s.rejected == sent,
                what + ": every Submit was accepted or rejected");
}

void CheckStats(const d2::infer::FleetStats& s, int64_t queue_depth,
                int64_t sent, const std::string& what, Report* report) {
  int64_t depth = 0;
  bool lanes_ok = true;
  int64_t lane_submitted = 0;
  int64_t lane_rejected = 0;
  for (const auto& [id, m] : s.models) {
    depth += m.queue_depth;
    lanes_ok = lanes_ok &&
               m.submitted == m.completed + m.cancelled + m.expired_deadlines +
                                  m.queue_depth &&
               RejectSum(m) + m.rejected_quota == m.rejected;
    lane_submitted += m.submitted;
    lane_rejected += m.rejected;
  }
  report->Check(lanes_ok,
                what + ": per lane, submitted = completed + cancelled + "
                       "expired + queued and per-reason rejects sum to "
                       "rejected");
  report->Check(s.submitted == lane_submitted && s.rejected == lane_rejected &&
                    s.submitted == s.completed + s.cancelled +
                                       s.expired_deadlines + queue_depth &&
                    depth == queue_depth,
                what + ": fleet totals match the lane sums");
  report->Check(s.submitted + s.rejected + s.rejected_unknown_model == sent,
                what + ": every Submit was accepted or rejected");
}

int64_t AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

void CheckLoadValidity(const LoadResult& load, double max_lag_p99_ms,
                       int64_t nproc, Report* report) {
  std::vector<double> lag;
  lag.reserve(load.outcomes.size());
  for (const Outcome& o : load.outcomes) lag.push_back(o.lag_ms);
  const double lag_p99 = Percentile(std::move(lag), 0.99);
  if (lag_p99 > max_lag_p99_ms) {
    report->Invalidate("load generator ran late: lag p99 " +
                       std::to_string(lag_p99) + " ms > bound " +
                       std::to_string(max_lag_p99_ms) + " ms");
  }
  if (load.max_threads > nproc) {
    report->Invalidate("thread budget exceeded: " +
                       std::to_string(load.max_threads) +
                       " threads alive > nproc " + std::to_string(nproc));
  }
}

void ReportLoadgen(const LoadResult& load, Report* report) {
  std::vector<double> lag;
  for (const Outcome& o : load.outcomes) lag.push_back(o.lag_ms);
  report->Set("loadgen.lag_p99_ms", Percentile(std::move(lag), 0.99), "ms",
              load.sent);
  report->Set("loadgen.sent", static_cast<double>(load.sent), "count");
  report->Set("loadgen.resolved", static_cast<double>(load.resolved), "count");
}

ServerCounters CountersOf(const d2::infer::BatchingServerStats& s) {
  ServerCounters c;
  c.submitted = s.submitted;
  c.rejected = s.rejected;
  c.completed = s.completed;
  c.expired = s.expired_deadlines;
  c.batches = s.batches;
  c.timeout_flushes = s.timeout_flushes;
  c.max_queue_depth = s.max_queue_depth_seen;
  return c;
}

ServerCounters CountersOf(const d2::infer::FleetStats& s) {
  ServerCounters c;
  c.submitted = s.submitted;
  c.rejected = s.rejected;
  c.completed = s.completed;
  c.expired = s.expired_deadlines;
  c.batches = s.batches;
  for (const auto& [id, m] : s.models) c.timeout_flushes += m.timeout_flushes;
  c.max_queue_depth = s.max_total_queue_depth_seen;
  return c;
}

void ReportServer(const LoadResult& load, const ServerCounters& before,
                  const ServerCounters& after, Report* report) {
  std::vector<double> submit_us;
  std::vector<double> sojourn;
  for (const Outcome& o : load.outcomes) {
    submit_us.push_back(o.submit_us);
    if (o.ok) sojourn.push_back(o.sojourn_ms);
  }
  const double sent = std::max<double>(1.0, static_cast<double>(load.sent));
  const int64_t batches = after.batches - before.batches;
  report->Set("server.submit_us_p50", Percentile(std::move(submit_us), 0.5),
              "us", load.sent);
  report->Set("server.sojourn_ms_p50", Percentile(sojourn, 0.5), "ms",
              static_cast<int64_t>(sojourn.size()));
  report->Set("server.batch_mean",
              batches > 0 ? static_cast<double>(after.completed -
                                                before.completed) /
                                static_cast<double>(batches)
                          : 0.0,
              "count", batches);
  report->Set("server.timeout_flush_frac",
              batches > 0 ? static_cast<double>(after.timeout_flushes -
                                                before.timeout_flushes) /
                                static_cast<double>(batches)
                          : 0.0,
              "frac", batches);
  report->Set("server.rejected_frac",
              static_cast<double>(after.rejected - before.rejected) / sent,
              "frac", load.sent);
  report->Set("server.expired_frac",
              static_cast<double>(after.expired - before.expired) / sent,
              "frac", load.sent);
  report->Set("server.queue_depth_max",
              static_cast<double>(after.max_queue_depth), "count");
}

void ReportFleet(const LoadResult& load, const d2::infer::FleetStats& before,
                 const d2::infer::FleetStats& after,
                 const std::vector<std::string>& lane_ids, Report* report) {
  // Lane order is gold, silver, bronze.
  std::vector<double> gold;
  for (const Outcome& o : load.outcomes) {
    if (o.lane == 0 && o.ok) gold.push_back(o.sojourn_ms);
  }
  report->Set("fleet.gold.sojourn_p99_ms", Percentile(gold, 0.99), "ms",
              static_cast<int64_t>(gold.size()));
  const auto lane = [](const d2::infer::FleetStats& s, const std::string& id) {
    const auto it = s.models.find(id);
    return it == s.models.end() ? d2::infer::FleetModelStats{} : it->second;
  };
  const auto silver_a = lane(before, lane_ids[1]);
  const auto silver_b = lane(after, lane_ids[1]);
  const int64_t silver_batches = silver_b.batches - silver_a.batches;
  report->Set("fleet.silver.batch_mean",
              silver_batches > 0
                  ? static_cast<double>(silver_b.completed - silver_a.completed) /
                        static_cast<double>(silver_batches)
                  : 0.0,
              "count", silver_batches);
  int64_t quota = 0;
  int64_t shed = 0;
  for (const std::string& id : lane_ids) {
    const auto a = lane(before, id);
    const auto b = lane(after, id);
    quota += b.rejected_quota - a.rejected_quota;
    shed += (b.rejected - a.rejected) + (b.expired_deadlines - a.expired_deadlines);
  }
  report->Set("fleet.quota_reject_frac",
              static_cast<double>(quota) /
                  std::max<double>(1.0, static_cast<double>(load.sent)),
              "frac", load.sent);
  const auto bronze_a = lane(before, lane_ids[2]);
  const auto bronze_b = lane(after, lane_ids[2]);
  const int64_t bronze_shed = (bronze_b.rejected - bronze_a.rejected) +
                              (bronze_b.expired_deadlines -
                               bronze_a.expired_deadlines);
  report->Set("fleet.bronze_shed_share",
              shed > 0 ? static_cast<double>(bronze_shed) /
                             static_cast<double>(shed)
                       : 0.0,
              "frac", shed);
}

}  // namespace perfbench
