#ifndef D2STGNN_GRAPH_TRANSITION_H_
#define D2STGNN_GRAPH_TRANSITION_H_

#include <vector>

#include "tensor/tensor.h"

namespace d2stgnn::graph {

/// Forward transition matrix P_f = A / rowsum(A) (paper Sec. 5.1). Rows with
/// zero sum stay zero.
Tensor ForwardTransition(const Tensor& adjacency);

/// Backward transition matrix P_b = A^T / rowsum(A^T).
Tensor BackwardTransition(const Tensor& adjacency);

/// Returns {P^1, ..., P^k_max}. Differentiable (used for the self-adaptive
/// transition matrix P_apt whose entries carry gradients).
std::vector<Tensor> TransitionPowers(const Tensor& p, int64_t k_max);

}  // namespace d2stgnn::graph

#endif  // D2STGNN_GRAPH_TRANSITION_H_
