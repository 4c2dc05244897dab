#ifndef PERFBENCH_CITY_H_
#define PERFBENCH_CITY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/d2stgnn.h"
#include "data/scaler.h"
#include "data/synthetic_traffic.h"
#include "infer/session.h"

// A "city": one generated traffic dataset, the D²STGNN architecture served
// or trained on it, and the request windows (with ground truth) a workload
// sends. The city itself — its sensor graph and readings, generated from
// the preset's own seed — and the model widths and weight seeds are part of
// the workload definition; the workload seed picks which windows are sent
// (and, in the load generator, when).

namespace perfbench {

struct City {
  std::string name;
  d2stgnn::data::SyntheticTraffic traffic;
  d2stgnn::data::StandardScaler scaler;
  d2stgnn::core::D2StgnnConfig config;
  int64_t train_steps = 0;
  uint64_t weights_seed = 0;
  /// Windows from the held-out tail of the series, with their targets.
  std::vector<d2stgnn::infer::ForecastRequest> requests;
  std::vector<std::vector<float>> truth;  ///< [request][t * nodes + node]

  int64_t nodes() const { return config.num_nodes; }
};

/// Builds a city from a workloads.json city object:
///   {"preset": "METR-LA"|"PEMS08"|"synthetic", "scale": s, "nodes": n,
///    "steps": t, "hidden": d, "embed": e, "layers": l, "heads": h,
///    "weights_seed": w, "requests": r}
/// ("scale" applies to presets, "nodes"/"steps" to "synthetic").
std::unique_ptr<City> MakeCity(const std::string& name,
                               const d2stgnn::json::Value& spec,
                               uint64_t workload_seed);

/// A D²STGNN for `city` with weights drawn from `seed`.
std::unique_ptr<d2stgnn::train::ForecastingModel> BuildModel(
    const City& city, uint64_t seed);

d2stgnn::infer::SessionOptions SessionOptionsFor(const City& city);

/// `count` of `starts`, drawn without replacement by `seed`, in order.
std::vector<int64_t> SampleWindows(const std::vector<int64_t>& starts,
                                   int64_t count, uint64_t seed);

/// Mean absolute error of `forecast` against request `item`'s targets.
double ForecastMae(const City& city, int64_t item,
                   const std::vector<float>& forecast);

}  // namespace perfbench

#endif  // PERFBENCH_CITY_H_
