#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "city.h"
#include "infer/batching_server.h"
#include "infer/fleet/fleet_server.h"
#include "loadgen.h"
#include "probes.h"

// Serving pieces shared by the serving workloads and the serving probes of
// the other workloads: checkpointed models, timed reloads, the latency
// metrics of a phase, and the correctness checks on served traffic.

namespace perfbench {

/// Weights of one served model on disk: the live checkpoint (`a`) and the
/// one a hot reload swaps in (`b`, different weights).
struct Checkpoints {
  std::string a;
  std::string b;
};

/// Saves weights `seed` and `seed + 1` of `city`'s model under `dir`.
Checkpoints WriteCheckpoints(const City& city, const std::string& dir,
                             Tracer* tracer);

/// InferenceSession::Load of `path` into a fresh model of `city`'s shape.
std::shared_ptr<d2stgnn::infer::InferenceSession> LoadSession(
    const City& city, const std::string& path, Tracer* tracer);

/// The same checkpoint in a plain eager session (no plans, no buffer pool):
/// the independent path served forecasts are compared against.
std::unique_ptr<d2stgnn::infer::InferenceSession> ReferenceSession(
    const City& city, const std::string& path);

/// One hot reload: Load + Warmup(1, max_batch) + swap, each part timed.
struct ReloadTiming {
  double load_ms = 0.0;
  double warm_ms = 0.0;
  double swap_us = 0.0;
  double total_ms() const { return load_ms + warm_ms + swap_us / 1000.0; }
};
ReloadTiming TimedReload(
    const City& city, const std::string& path, int64_t max_batch,
    const std::function<void(std::shared_ptr<d2stgnn::infer::InferenceSession>)>&
        swap,
    Tracer* tracer);

/// Requests of some phases (optionally one lane): counts, and latency
/// percentiles of the ok ones from the scheduled send.
struct PhaseLatency {
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t ok_in_deadline = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// `cycles` nominal phases, an idle "drain" phase, then `cycles` overload
/// phases, splitting what the drain leaves of `seconds` evenly. Nominal comes
/// first so that no overload backlog leaks into it, and the drain lets the
/// last nominal requests finish before overload traffic can starve them;
/// several phases of each let a metric be the median over phases.
std::vector<PhaseSpec> CyclePhases(double seconds, int64_t cycles,
                                   const std::vector<double>& nominal_rps,
                                   const std::vector<double>& overload_rps);

/// The phases called `name`: counts and percentiles over all their
/// requests (so a p99 has enough samples beyond it), goodput the median over
/// the phases of each one's ok-within-deadline rate.
struct CycleSummary {
  PhaseLatency total;
  double goodput_per_s = 0.0;   ///< median ok-within-deadline rate
  int64_t phases = 0;
};
CycleSummary SummarizeCycles(const LoadResult& load,
                             const std::vector<PhaseSpec>& phases,
                             const std::string& name, int lane,
                             const std::vector<double>& lane_deadline_ms);

/// Non-ok requests of the phases called `name`, counted by lane and reason.
json::Value FailureReasons(const LoadResult& load,
                           const std::vector<PhaseSpec>& phases,
                           const std::string& name);

/// Sampled served forecasts must equal, bitwise, a direct PredictRequests
/// of the same request on `reference` sessions (any one of them, when the
/// lane was hot-reloaded between weight sets). Returns mismatches; adds the
/// forecast MAE of every checked response to `mae`.
struct BitwiseResult {
  int64_t checked = 0;
  int64_t mismatched = 0;
  std::vector<int64_t> matched_per_reference;
};
BitwiseResult CheckServedForecasts(
    const LoadResult& load, const std::vector<Arrival>& schedule, int lane,
    const City& city,
    const std::vector<d2stgnn::infer::InferenceSession*>& references,
    std::vector<double>* mae);

/// Every request sent was harvested exactly once, none left pending.
void CheckResolved(const LoadResult& load, const std::string& what,
                   Report* report);

/// submitted = completed + cancelled + expired + queued, and the per-reason
/// rejects sum to `rejected`, for a BatchingServer and for every fleet lane
/// (and the fleet totals).
void CheckStats(const d2stgnn::infer::BatchingServerStats& s,
                int64_t queue_depth, int64_t sent, const std::string& what,
                Report* report);
void CheckStats(const d2stgnn::infer::FleetStats& s, int64_t queue_depth,
                int64_t sent, const std::string& what, Report* report);

/// Generator lag and thread budget validity of one open-loop run.
void CheckLoadValidity(const LoadResult& load, double max_lag_p99_ms,
                       int64_t nproc, Report* report);

/// loadgen.* per-layer metrics of a run.
void ReportLoadgen(const LoadResult& load, Report* report);

/// server.* per-layer metrics from counter deltas and the run's outcomes.
struct ServerCounters {
  int64_t submitted = 0;
  int64_t rejected = 0;
  int64_t completed = 0;
  int64_t expired = 0;
  int64_t batches = 0;
  int64_t timeout_flushes = 0;
  int64_t max_queue_depth = 0;
};
ServerCounters CountersOf(const d2stgnn::infer::BatchingServerStats& s);
ServerCounters CountersOf(const d2stgnn::infer::FleetStats& s);
void ReportServer(const LoadResult& load, const ServerCounters& before,
                  const ServerCounters& after, Report* report);

/// fleet.* per-layer metrics: a three-lane (gold, silver, bronze) fleet run.
void ReportFleet(const LoadResult& load,
                 const d2stgnn::infer::FleetStats& before,
                 const d2stgnn::infer::FleetStats& after,
                 const std::vector<std::string>& lane_ids, Report* report);

/// Number of CPUs this process may run on.
int64_t AvailableCpus();

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
