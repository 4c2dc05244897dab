#include "data/synthetic_traffic.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"

namespace d2stgnn::data {
namespace {

// Maximum propagation lag in steps (lag grows with road distance).
constexpr int64_t kMaxLag = 3;
// Length of a sensor-failure burst, in steps.
constexpr int64_t kFailureLen = 8;
// Peak flow scale (vehicles per 5 minutes) for flow datasets.
constexpr float kFlowScale = 320.0f;
// Relative day-to-day jitter of each node's peak amplitudes. Without it
// traffic would be perfectly climatological and Historical Average would
// be unbeatable; real traffic is not (paper Table 3: HA is the worst
// baseline).
constexpr float kDailyJitter = 0.30f;
// Per-(node, step) probability that a congestion incident begins. An
// incident adds kIncidentBoost to local demand for kIncidentLen steps
// (~90 minutes) plus a random extra of up to as many, and diffuses to
// neighbours: structure that is predictable from recent history but
// invisible to climatology.
constexpr float kIncidentProb = 4e-4f;
constexpr int64_t kIncidentLen = 18;
constexpr float kIncidentBoost = 1.2f;

// Gaussian bump centered at `center` (in day fraction) with width `width`.
float DayBump(float day_fraction, float center, float width) {
  float delta = day_fraction - center;
  // Wrap around midnight.
  if (delta > 0.5f) delta -= 1.0f;
  if (delta < -0.5f) delta += 1.0f;
  return std::exp(-(delta * delta) / (2.0f * width * width));
}

}  // namespace

SyntheticTraffic GenerateSyntheticTraffic(
    const SyntheticTrafficOptions& options) {
  D2_CHECK_GT(options.num_steps, 0);
  D2_CHECK_GT(options.steps_per_day, 0);
  D2_CHECK_GE(options.diffusion_strength, 0.0f);
  D2_CHECK_LT(options.diffusion_strength, 1.0f);

  Rng rng(options.seed);
  SyntheticTraffic result;
  TimeSeriesDataset& ds = result.dataset;
  ds.name = options.name;
  ds.steps_per_day = options.steps_per_day;
  ds.start_day_of_week = options.start_day_of_week;
  ds.is_flow = options.flow;
  ds.network = graph::BuildRandomSensorNetwork(options.network, rng);

  const int64_t n = ds.network.num_nodes;
  const int64_t steps = options.num_steps;

  // Per-node inherent profile parameters. Roughly half the nodes lean
  // "residential" (strong AM peak outbound), the rest "business" (strong PM
  // peak), with random phases so nodes are distinguishable (Fig. 8 shows
  // clearly different per-node patterns).
  std::vector<float> am_amp(static_cast<size_t>(n)), pm_amp(static_cast<size_t>(n));
  std::vector<float> am_center(static_cast<size_t>(n)), pm_center(static_cast<size_t>(n));
  std::vector<float> base_level(static_cast<size_t>(n)), capacity(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const bool residential = rng.Uniform() < 0.5f;
    am_amp[static_cast<size_t>(i)] =
        residential ? rng.Uniform(0.6f, 1.0f) : rng.Uniform(0.2f, 0.5f);
    pm_amp[static_cast<size_t>(i)] =
        residential ? rng.Uniform(0.2f, 0.5f) : rng.Uniform(0.6f, 1.0f);
    am_center[static_cast<size_t>(i)] = 8.0f / 24.0f + rng.Normal(0.0f, 0.01f);
    pm_center[static_cast<size_t>(i)] = 17.5f / 24.0f + rng.Normal(0.0f, 0.01f);
    base_level[static_cast<size_t>(i)] = rng.Uniform(0.10f, 0.25f);
    capacity[static_cast<size_t>(i)] = rng.Uniform(0.75f, 1.0f);
  }

  // Row-normalized off-diagonal adjacency drives the diffusion; lag grows
  // with road distance.
  std::vector<float> weight(static_cast<size_t>(n * n), 0.0f);
  std::vector<int64_t> lag(static_cast<size_t>(n * n), 1);
  {
    const std::vector<float>& adj = ds.network.adjacency.Data();
    const std::vector<float>& dist = ds.network.road_distance.Data();
    float max_dist = 0.0f;
    for (int64_t e = 0; e < n * n; ++e) {
      const float d = dist[static_cast<size_t>(e)];
      if (std::isfinite(d)) max_dist = std::max(max_dist, d);
    }
    for (int64_t i = 0; i < n; ++i) {
      float row_sum = 0.0f;
      for (int64_t j = 0; j < n; ++j) {
        if (i != j) row_sum += adj[static_cast<size_t>(i * n + j)];
      }
      if (row_sum <= 0.0f) continue;
      for (int64_t j = 0; j < n; ++j) {
        if (i == j) continue;
        const size_t e = static_cast<size_t>(i * n + j);
        weight[e] = adj[e] / row_sum;
        if (weight[e] > 0.0f && max_dist > 0.0f) {
          const float frac = dist[e] / max_dist;
          lag[e] = 1 + static_cast<int64_t>(
                           frac * static_cast<float>(kMaxLag - 1) +
                           0.5f);
          lag[e] = std::min(lag[e], kMaxLag);
        }
      }
    }
  }

  // Latent signals. `total` is the congestion/demand level in [0, ~1.3].
  std::vector<float> inherent(static_cast<size_t>(steps * n), 0.0f);
  std::vector<float> diffusion(static_cast<size_t>(steps * n), 0.0f);
  std::vector<float> total(static_cast<size_t>(steps * n), 0.0f);
  std::vector<float> ar_state(static_cast<size_t>(n), 0.0f);

  const float gamma = options.diffusion_strength;
  // Day-to-day amplitude jitter per node (resampled every morning) and
  // active congestion incidents.
  std::vector<float> day_factor(static_cast<size_t>(n), 1.0f);
  std::vector<int64_t> incident_until(static_cast<size_t>(n), -1);
  for (int64_t t = 0; t < steps; ++t) {
    if (t % options.steps_per_day == 0) {
      for (auto& f : day_factor) {
        f = std::max(0.3f, 1.0f + rng.Normal(0.0f, kDailyJitter));
      }
    }
    const float day_fraction = static_cast<float>(t % options.steps_per_day) /
                               static_cast<float>(options.steps_per_day);
    const int64_t dow =
        (options.start_day_of_week + t / options.steps_per_day) % 7;
    const bool weekend = dow >= 5;
    const float weekday_factor = weekend ? 0.55f : 1.0f;
    // Diffusion intensity is itself time-of-day dependent: commuting hours
    // move traffic between districts far more than off-peak hours, which is
    // exactly the dynamic spatial dependency of Fig. 2(c).
    const float intensity = 0.35f + 0.65f * (DayBump(day_fraction, 8.0f / 24.0f, 0.07f) +
                                             DayBump(day_fraction, 17.5f / 24.0f, 0.08f));

    for (int64_t i = 0; i < n; ++i) {
      const size_t ui = static_cast<size_t>(i);
      // Inherent: daily profile (with day-to-day amplitude jitter) + slow
      // AR(1) wander + occasional congestion incidents.
      ar_state[ui] = 0.99f * ar_state[ui] + rng.Normal(0.0f, 0.02f);
      if (incident_until[ui] < t &&
          rng.Uniform() < kIncidentProb) {
        incident_until[ui] = t + kIncidentLen + rng.UniformInt(kIncidentLen);
      }
      const float incident =
          incident_until[ui] >= t ? kIncidentBoost : 0.0f;
      float inh = base_level[ui] +
                  weekday_factor * day_factor[ui] *
                      (am_amp[ui] * DayBump(day_fraction, am_center[ui], 0.055f) +
                       pm_amp[ui] * DayBump(day_fraction, pm_center[ui], 0.065f)) +
                  ar_state[ui] + incident;
      inh = std::max(0.0f, inh);

      // Diffusion: lagged, intensity-modulated inflow from neighbours.
      float dif = 0.0f;
      for (int64_t j = 0; j < n; ++j) {
        const size_t e = static_cast<size_t>(i * n + j);
        if (weight[e] == 0.0f) continue;
        const int64_t src_t = t - lag[e];
        if (src_t < 0) continue;
        dif += weight[e] * total[static_cast<size_t>(src_t * n + j)];
      }
      dif *= gamma * intensity;

      const size_t cell = static_cast<size_t>(t * n + i);
      inherent[cell] = inh;
      diffusion[cell] = dif;
      total[cell] = (1.0f - gamma) * inh + dif;
    }
  }

  // Observe: map latent demand to speed or flow readings.
  std::vector<float> values(static_cast<size_t>(steps * n));
  std::vector<int64_t> failure_until(static_cast<size_t>(n), -1);
  for (int64_t t = 0; t < steps; ++t) {
    for (int64_t i = 0; i < n; ++i) {
      const size_t ui = static_cast<size_t>(i);
      const size_t cell = static_cast<size_t>(t * n + i);
      const float demand = total[cell];
      float reading;
      if (options.flow) {
        float f = kFlowScale * capacity[ui] * demand;
        f += rng.Normal(0.0f, options.noise_std * kFlowScale * 0.5f);
        reading = std::max(0.0f, std::round(f));
      } else {
        // Speed falls as demand approaches capacity (smooth saturating map).
        const float congestion =
            std::min(1.0f, demand / (1.1f * capacity[ui]));
        float v = kFreeFlowSpeed *
                  (1.0f - 0.72f * congestion * congestion);
        v += rng.Normal(0.0f, options.noise_std * kFreeFlowSpeed);
        reading = std::clamp(v, 0.0f, kFreeFlowSpeed + 2.0f);
        // Sensor-failure bursts read exactly zero.
        if (failure_until[ui] >= t) {
          reading = 0.0f;
        } else if (rng.Uniform() < options.failure_prob) {
          failure_until[ui] = t + kFailureLen;
          reading = 0.0f;
        }
      }
      values[cell] = reading;
    }
  }

  ds.values = Tensor({steps, n}, std::move(values));
  result.inherent = Tensor({steps, n}, std::move(inherent));
  result.diffusion = Tensor({steps, n}, std::move(diffusion));
  return result;
}

}  // namespace d2stgnn::data
