#include "graph/transition.h"

#include "common/check.h"
#include "tensor/ops.h"

namespace d2stgnn::graph {
namespace {

// Row-normalizes a non-negative square matrix, leaving all-zero rows zero.
// Plain data path (adjacency matrices are constants).
Tensor RowNormalize(const Tensor& m) {
  D2_CHECK_EQ(m.dim(), 2);
  const int64_t n = m.size(0);
  D2_CHECK_EQ(m.size(1), n);
  const std::vector<float>& a = m.Data();
  std::vector<float> out(a.size());
  for (int64_t i = 0; i < n; ++i) {
    float row_sum = 0.0f;
    for (int64_t j = 0; j < n; ++j) row_sum += a[static_cast<size_t>(i * n + j)];
    const float inv = row_sum > 0.0f ? 1.0f / row_sum : 0.0f;
    for (int64_t j = 0; j < n; ++j) {
      out[static_cast<size_t>(i * n + j)] =
          a[static_cast<size_t>(i * n + j)] * inv;
    }
  }
  return Tensor({n, n}, std::move(out));
}

}  // namespace

Tensor ForwardTransition(const Tensor& adjacency) {
  return RowNormalize(adjacency);
}

Tensor BackwardTransition(const Tensor& adjacency) {
  NoGradGuard no_grad;  // adjacency is a constant
  return RowNormalize(Transpose(adjacency, 0, 1));
}

std::vector<Tensor> TransitionPowers(const Tensor& p, int64_t k_max) {
  D2_CHECK_GE(k_max, 1);
  std::vector<Tensor> powers;
  powers.reserve(static_cast<size_t>(k_max));
  powers.push_back(p);
  for (int64_t k = 2; k <= k_max; ++k) {
    powers.push_back(MatMul(powers.back(), p));
  }
  return powers;
}

}  // namespace d2stgnn::graph
