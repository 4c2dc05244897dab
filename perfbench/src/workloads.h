#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "city.h"
#include "infer/fleet/fleet.h"
#include "serving.h"

namespace perfbench {

/// Everything one run of one workload shares.
struct RunContext {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;  ///< scratch space inside the checkout
  Config config;
  Report report;
  Tracer tracer{false};
  int64_t nproc = 1;
};

void RunFleetReload(RunContext* ctx);
void RunTrainTable3(RunContext* ctx);

/// Serving probe for a workload that has no BatchingServer / FleetServer
/// of its own: serves `city`'s requests from checkpoint `ckpt` through a
/// BatchingServer ("probe_server_rps") and through a three-lane fleet of the
/// same model ("probe_fleet_rps"), each for "probe_seconds", and reports
/// the loadgen.*, server.*, session.plan_* and fleet.* metrics.
void ServingProbe(RunContext* ctx, const City& city, const std::string& ckpt);

/// Registers one fleet lane per city — gold, silver, bronze in that order —
/// each serving its checkpoint `a`, and starts the FleetServer. Lane i
/// batches up to `max_batch[i]` requests and admits at most
/// `admission_rps[i]` requests/s (token bucket; 0: no rate limit).
void StartFleet(RunContext* ctx, const std::vector<const City*>& cities,
                const std::vector<const Checkpoints*>& ckpts,
                const std::vector<int64_t>& max_batch, int64_t max_queue_depth,
                const std::vector<double>& admission_rps,
                std::unique_ptr<d2stgnn::infer::ModelFleet>* fleet,
                std::unique_ptr<d2stgnn::infer::FleetServer>* server);

/// checkpoint.save_ms and reload.* per-layer metrics.
void ReportReloads(const std::vector<ReloadTiming>& reloads,
                   const std::vector<double>& save_ms, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
