#ifndef D2STGNN_DATA_SYNTHETIC_TRAFFIC_H_
#define D2STGNN_DATA_SYNTHETIC_TRAFFIC_H_

#include <cstdint>
#include <string>

#include "data/dataset.h"
#include "graph/sensor_graph.h"

namespace d2stgnn::data {

/// Free-flow speed of speed datasets (mph); readings never exceed it by
/// more than 2 mph.
inline constexpr float kFreeFlowSpeed = 68.0f;

/// Parameters of the synthetic traffic generator. The generator implements
/// the paper's generative premise (Fig. 2): every sensor's series is the
/// superposition of
///
///  * an INHERENT signal — node-specific daily demand profiles (AM/PM peak
///    mixtures with per-node amplitudes and phases), a weekday/weekend
///    factor, and slow AR(1) noise; independent of other sensors; and
///  * a DIFFUSION signal — traffic propagated from upstream neighbours with
///    a distance-dependent lag and a time-of-day-modulated intensity, so
///    the effective spatial dependency is DYNAMIC (Fig. 2(c)).
///
/// Speed datasets map congestion to mph in [0, 70] and inject occasional
/// sensor-failure bursts of zeros (visible in METR-LA, Fig. 8); flow
/// datasets produce integer vehicle counts up to a few hundred (Table 2's
/// characterization). Day-to-day amplitude jitter and congestion incidents
/// keep the traffic from being purely climatological, so Historical
/// Average trails the learned models as in Table 3; their sizes are fixed
/// in the generator.
struct SyntheticTrafficOptions {
  std::string name = "synthetic";
  int64_t num_steps = 3456;  ///< 12 days of 5-minute slots
  int64_t steps_per_day = 288;
  int64_t start_day_of_week = 3;  ///< METR-LA starts on a Thursday
  bool flow = false;              ///< false => speed dataset
  uint64_t seed = 1;
  graph::SensorNetworkOptions network;

  /// Share of the total signal contributed by diffusion (0 disables it).
  float diffusion_strength = 0.45f;
  /// Std-dev of fast measurement noise, relative to signal scale.
  float noise_std = 0.04f;
  /// Per-(node, step) probability that a sensor-failure burst begins
  /// (speed datasets only; flow detectors in the PEMS archives are
  /// pre-cleaned).
  float failure_prob = 5e-4f;
};

/// Result of the generator: the dataset plus the latent component series
/// (useful for tests asserting the decomposition premise).
struct SyntheticTraffic {
  TimeSeriesDataset dataset;
  /// Latent inherent demand, [num_steps, num_nodes] in [0, ~1].
  Tensor inherent;
  /// Latent diffusion demand, [num_steps, num_nodes].
  Tensor diffusion;
};

/// Generates a synthetic traffic dataset. Deterministic in options.seed.
SyntheticTraffic GenerateSyntheticTraffic(const SyntheticTrafficOptions& options);

}  // namespace d2stgnn::data

#endif  // D2STGNN_DATA_SYNTHETIC_TRAFFIC_H_
