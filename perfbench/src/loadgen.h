#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <vector>

#include "bench.h"
#include "infer/session.h"

// The one open-loop load generator every serving measurement uses.
//
// Arrivals are a Poisson process per lane (a lane is a tenant, or the single
// queue of a one-model server) with fixed rates per phase, drawn up front
// from the workload seed, so the offered load never depends on how fast the
// code under test is. The calling thread is the generator: it sleeps until
// each arrival's scheduled time and submits. One harvester thread resolves
// the futures and stamps them. Latency runs from the *scheduled* send time,
// so a stall also charges the requests that queued behind it.

namespace perfbench {

struct PhaseSpec {
  std::string name;
  double seconds = 0.0;
  std::vector<double> lane_rps;  ///< offered rate per lane
};

struct Arrival {
  double at_s = 0.0;  ///< offset from the start of the run
  int lane = 0;
  int phase = 0;
  int64_t id = 0;     ///< dense, in schedule order
  int64_t item = 0;   ///< which input window to send (uniform draw)
};

std::vector<Arrival> PoissonSchedule(const std::vector<PhaseSpec>& phases,
                                     int64_t items_per_lane, uint64_t seed);

struct Outcome {
  int64_t id = -1;
  int lane = 0;
  int phase = 0;
  bool harvested = false;
  bool ok = false;
  d2stgnn::infer::RejectReason reason = d2stgnn::infer::RejectReason::kNone;
  double latency_ms = 0.0;  ///< scheduled send -> resolved
  double sojourn_ms = 0.0;  ///< actual send -> resolved
  double lag_ms = 0.0;      ///< actual send - scheduled send
  double submit_us = 0.0;   ///< time spent inside the Submit call
  std::vector<float> values;  ///< kept only for sampled requests
};

struct LoadResult {
  std::vector<Outcome> outcomes;  ///< indexed by Arrival::id
  int64_t sent = 0;
  int64_t resolved = 0;
  int64_t unresolved = 0;   ///< futures still pending at the give-up time
  int64_t max_threads = 0;  ///< most threads seen alive while sending
};

using SubmitFn = std::function<std::future<d2stgnn::infer::Forecast>(
    const Arrival& arrival)>;

/// Sends `schedule` through `submit` and harvests every future. Forecast
/// values are kept for arrivals where `keep_values` is true. `tracer`
/// receives a "server.submit" span per request and a "loadgen.sojourn"
/// interval per resolved request.
LoadResult RunOpenLoop(const std::vector<Arrival>& schedule, int num_lanes,
                       const SubmitFn& submit,
                       const std::function<bool(const Arrival&)>& keep_values,
                       Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
