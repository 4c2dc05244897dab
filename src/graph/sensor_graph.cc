#include "graph/sensor_graph.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"

namespace d2stgnn::graph {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
// Road distance = Euclidean distance * U(1, 1 + kDetour).
constexpr float kDetour = 0.4f;
// Gaussian-kernel weights below this are dropped (DCRNN uses 0.1).
constexpr float kKernelThreshold = 0.1f;

}  // namespace

SensorNetwork BuildRandomSensorNetwork(const SensorNetworkOptions& options,
                                       Rng& rng) {
  const int64_t n = options.num_nodes;
  D2_CHECK_GT(n, 1);
  D2_CHECK_GT(options.neighbors, 0);
  D2_CHECK_LT(options.neighbors, n);

  SensorNetwork net;
  net.num_nodes = n;
  net.directed = options.directed;
  net.x.resize(static_cast<size_t>(n));
  net.y.resize(static_cast<size_t>(n));

  // Scatter sensors along a few noisy corridors so the layout resembles a
  // highway network rather than uniform dust.
  const int64_t corridors = std::max<int64_t>(2, n / 16);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t c = i % corridors;
    const float along = rng.Uniform();
    const float base = (static_cast<float>(c) + 0.5f) /
                       static_cast<float>(corridors);
    // Corridors alternate horizontal/vertical orientation.
    if (c % 2 == 0) {
      net.x[static_cast<size_t>(i)] = along;
      net.y[static_cast<size_t>(i)] = base + rng.Normal(0.0f, 0.04f);
    } else {
      net.x[static_cast<size_t>(i)] = base + rng.Normal(0.0f, 0.04f);
      net.y[static_cast<size_t>(i)] = along;
    }
  }

  // k-nearest-neighbour connectivity with detoured road distances.
  std::vector<float> dist(static_cast<size_t>(n * n), kInf);
  for (int64_t i = 0; i < n; ++i) dist[static_cast<size_t>(i * n + i)] = 0.0f;

  std::vector<int64_t> order(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    std::iota(order.begin(), order.end(), 0);
    const float xi = net.x[static_cast<size_t>(i)];
    const float yi = net.y[static_cast<size_t>(i)];
    std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
      const float da = std::hypot(net.x[static_cast<size_t>(a)] - xi,
                                  net.y[static_cast<size_t>(a)] - yi);
      const float db = std::hypot(net.x[static_cast<size_t>(b)] - xi,
                                  net.y[static_cast<size_t>(b)] - yi);
      return da < db;
    });
    // order[0] == i itself.
    for (int64_t k = 1; k <= options.neighbors; ++k) {
      const int64_t j = order[static_cast<size_t>(k)];
      const float euclid = std::hypot(net.x[static_cast<size_t>(j)] - xi,
                                      net.y[static_cast<size_t>(j)] - yi);
      const float road_ij = euclid * (1.0f + rng.Uniform(0.0f, kDetour));
      float road_ji = road_ij;
      if (options.directed) {
        road_ji = euclid * (1.0f + rng.Uniform(0.0f, kDetour));
      }
      auto& dij = dist[static_cast<size_t>(i * n + j)];
      auto& dji = dist[static_cast<size_t>(j * n + i)];
      dij = std::min(dij, road_ij);
      dji = std::min(dji, road_ji);
    }
  }

  net.road_distance = Tensor({n, n}, std::move(dist));
  net.adjacency =
      ThresholdedGaussianAdjacency(net.road_distance, kKernelThreshold);

  // The kernel threshold can isolate sensors on long corridor segments;
  // keep each node's nearest outgoing road so every sensor participates in
  // the diffusion (real deployments prune such detectors instead, Table 2's
  // "remove redundant detectors" note).
  {
    std::vector<float>& adj = net.adjacency.Data();
    const std::vector<float>& d = net.road_distance.Data();
    for (int64_t i = 0; i < n; ++i) {
      bool has_edge = false;
      for (int64_t j = 0; j < n && !has_edge; ++j) {
        if (i != j && adj[static_cast<size_t>(i * n + j)] > 0.0f) {
          has_edge = true;
        }
      }
      if (has_edge) continue;
      int64_t nearest = -1;
      for (int64_t j = 0; j < n; ++j) {
        if (i == j || !std::isfinite(d[static_cast<size_t>(i * n + j)])) {
          continue;
        }
        if (nearest < 0 || d[static_cast<size_t>(i * n + j)] <
                               d[static_cast<size_t>(i * n + nearest)]) {
          nearest = j;
        }
      }
      if (nearest >= 0) {
        adj[static_cast<size_t>(i * n + nearest)] = kKernelThreshold;
        adj[static_cast<size_t>(nearest * n + i)] =
            std::max(adj[static_cast<size_t>(nearest * n + i)],
                     kKernelThreshold);
      }
    }
  }
  return net;
}

Tensor ThresholdedGaussianAdjacency(const Tensor& road_distance,
                                    float threshold) {
  D2_CHECK_EQ(road_distance.dim(), 2);
  const int64_t n = road_distance.size(0);
  D2_CHECK_EQ(road_distance.size(1), n);

  // Standard deviation of finite distances (the DCRNN recipe).
  const std::vector<float>& d = road_distance.Data();
  double sum = 0.0;
  double sum_sq = 0.0;
  int64_t count = 0;
  for (float v : d) {
    if (std::isfinite(v)) {
      sum += v;
      sum_sq += static_cast<double>(v) * v;
      ++count;
    }
  }
  D2_CHECK_GT(count, 0);
  const double mean = sum / static_cast<double>(count);
  const double variance =
      std::max(1e-12, sum_sq / static_cast<double>(count) - mean * mean);
  const float sigma_sq = static_cast<float>(variance);

  std::vector<float> adj(d.size(), 0.0f);
  for (size_t i = 0; i < d.size(); ++i) {
    if (!std::isfinite(d[i])) continue;
    const float w = std::exp(-(d[i] * d[i]) / sigma_sq);
    if (w >= threshold) adj[i] = w;
  }
  return Tensor({n, n}, std::move(adj));
}

int64_t CountEdges(const Tensor& adjacency) {
  D2_CHECK_EQ(adjacency.dim(), 2);
  const int64_t n = adjacency.size(0);
  int64_t edges = 0;
  const std::vector<float>& a = adjacency.Data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      if (i != j && a[static_cast<size_t>(i * n + j)] != 0.0f) ++edges;
    }
  }
  return edges;
}

}  // namespace d2stgnn::graph
