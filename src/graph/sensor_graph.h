#ifndef D2STGNN_GRAPH_SENSOR_GRAPH_H_
#define D2STGNN_GRAPH_SENSOR_GRAPH_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace d2stgnn::graph {

/// A road network of traffic sensors (paper Definition 2): node positions,
/// pairwise road distances, and the weighted adjacency matrix A built with
/// the thresholded Gaussian kernel of DCRNN (paper Sec. 6.1).
struct SensorNetwork {
  int64_t num_nodes = 0;
  bool directed = false;
  std::vector<float> x;  ///< sensor coordinates (arbitrary units)
  std::vector<float> y;
  Tensor road_distance;  ///< [N, N]; +inf where unreachable
  Tensor adjacency;      ///< [N, N] weighted adjacency in [0, 1]
};

/// Parameters for BuildRandomSensorNetwork.
struct SensorNetworkOptions {
  int64_t num_nodes = 32;
  /// Each sensor connects to its `neighbors` nearest sensors.
  int64_t neighbors = 4;
  /// If true, forward/backward road distances differ (one-way detours),
  /// yielding a directed graph like METR-LA's.
  bool directed = true;
};

/// Builds a random geometric sensor network: sensors scattered in the unit
/// square along a few synthetic highway corridors, k-nearest-neighbour road
/// connectivity with road distance = Euclidean distance * U(1, 1.4) (roads
/// are longer than straight lines), and a thresholded-Gaussian adjacency at
/// DCRNN's threshold 0.1. Deterministic in `rng`.
SensorNetwork BuildRandomSensorNetwork(const SensorNetworkOptions& options,
                                       Rng& rng);

/// DCRNN's adjacency construction: A_ij = exp(-d_ij^2 / sigma^2) where sigma
/// is the standard deviation of finite distances; entries below `threshold`
/// (and unreachable pairs) become 0. Diagonal is 1.
Tensor ThresholdedGaussianAdjacency(const Tensor& road_distance,
                                    float threshold);

/// Number of nonzero off-diagonal entries of `adjacency`.
int64_t CountEdges(const Tensor& adjacency);

}  // namespace d2stgnn::graph

#endif  // D2STGNN_GRAPH_SENSOR_GRAPH_H_
