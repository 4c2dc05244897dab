#include "city.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>

#include "common/rng.h"
#include "data/presets.h"

namespace perfbench {

namespace dd = d2stgnn::data;

std::unique_ptr<City> MakeCity(const std::string& name,
                               const d2stgnn::json::Value& spec,
                               uint64_t workload_seed) {
  auto city = std::make_unique<City>();
  city->name = name;
  const std::string preset = spec.Get("preset").AsString();
  dd::SyntheticTrafficOptions options;
  if (preset == "METR-LA") {
    options = dd::MetrLaOptions(static_cast<float>(spec.Get("scale").AsDouble()));
  } else if (preset == "PEMS08") {
    options = dd::Pems08Options(static_cast<float>(spec.Get("scale").AsDouble()));
  } else if (preset == "synthetic") {
    options.network.num_nodes = spec.Get("nodes").AsInt();
    options.network.neighbors = 2;
    options.num_steps = spec.Get("steps").AsInt();
  } else {
    std::fprintf(stderr, "perfbench: city '%s' has unknown preset '%s'\n",
                 name.c_str(), preset.c_str());
    std::exit(2);
  }
  city->traffic = dd::GenerateSyntheticTraffic(options);
  const dd::TimeSeriesDataset& ds = city->traffic.dataset;
  const int64_t steps = ds.num_steps();
  const int64_t nodes = ds.num_nodes();
  city->train_steps = steps * 7 / 10;
  city->scaler.Fit(ds.values, city->train_steps, /*mask_zeros=*/true);

  d2stgnn::core::D2StgnnConfig& c = city->config;
  c.num_nodes = nodes;
  c.input_len = 12;
  c.output_len = 12;
  c.hidden_dim = spec.Get("hidden").AsInt();
  c.embed_dim = spec.Get("embed").AsInt();
  c.num_layers = spec.Get("layers").AsInt();
  c.num_heads = spec.Get("heads").AsInt();
  c.steps_per_day = ds.steps_per_day;
  city->weights_seed = static_cast<uint64_t>(spec.Get("weights_seed").AsInt());

  // Request windows: drawn by the workload seed from the held-out tail.
  const int64_t count = spec.Get("requests").AsInt();
  const int64_t first = city->train_steps;
  const int64_t last = steps - c.input_len - c.output_len;
  const std::vector<float>& values = ds.values.Data();
  std::mt19937_64 engine(workload_seed * 7919ULL + options.seed);
  for (int64_t i = 0; i < count; ++i) {
    const int64_t start =
        first + static_cast<int64_t>(engine() % static_cast<uint64_t>(last - first));
    d2stgnn::infer::ForecastRequest r;
    r.window.assign(values.begin() + start * nodes,
                    values.begin() + (start + c.input_len) * nodes);
    r.time_of_day = ds.TimeOfDay(start);
    r.day_of_week = ds.DayOfWeek(start);
    city->requests.push_back(std::move(r));
    city->truth.emplace_back(
        values.begin() + (start + c.input_len) * nodes,
        values.begin() + (start + c.input_len + c.output_len) * nodes);
  }
  return city;
}

std::unique_ptr<d2stgnn::train::ForecastingModel> BuildModel(
    const City& city, uint64_t seed) {
  d2stgnn::Rng rng(seed);
  return std::make_unique<d2stgnn::core::D2Stgnn>(
      city.config, city.traffic.dataset.network.adjacency, rng);
}

d2stgnn::infer::SessionOptions SessionOptionsFor(const City& city) {
  d2stgnn::infer::SessionOptions o;
  o.num_nodes = city.nodes();
  o.input_len = city.config.input_len;
  o.steps_per_day = city.config.steps_per_day;
  return o;
}

double ForecastMae(const City& city, int64_t item,
                   const std::vector<float>& forecast) {
  const std::vector<float>& truth = city.truth[static_cast<size_t>(item)];
  double sum = 0.0;
  int64_t n = 0;
  for (size_t i = 0; i < truth.size() && i < forecast.size(); ++i) {
    if (truth[i] == 0.0f) continue;  // masked, as in the paper's metrics
    sum += std::fabs(static_cast<double>(forecast[i]) - truth[i]);
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

std::vector<int64_t> SampleWindows(const std::vector<int64_t>& starts,
                                   int64_t count, uint64_t seed) {
  std::vector<int64_t> pool = starts;
  std::mt19937_64 engine(seed);
  const int64_t n = std::min<int64_t>(count, static_cast<int64_t>(pool.size()));
  // Partial Fisher-Yates with the draws done by hand (portable across
  // standard libraries), then chronological order.
  for (int64_t i = 0; i < n; ++i) {
    const int64_t j =
        i + static_cast<int64_t>(engine() % static_cast<uint64_t>(
                                                static_cast<int64_t>(pool.size()) - i));
    std::swap(pool[static_cast<size_t>(i)], pool[static_cast<size_t>(j)]);
  }
  pool.resize(static_cast<size_t>(n));
  std::sort(pool.begin(), pool.end());
  return pool;
}

}  // namespace perfbench
