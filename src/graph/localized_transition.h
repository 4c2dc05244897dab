#ifndef D2STGNN_GRAPH_LOCALIZED_TRANSITION_H_
#define D2STGNN_GRAPH_LOCALIZED_TRANSITION_H_

#include "tensor/tensor.h"

namespace d2stgnn::graph {

/// Builds the spatial-temporal localized transition matrix of the paper's
/// Eq. 4:
///
///   (P^local)^k = [P^k ⊙ (1 - I_N)] ‖ ... ‖ [P^k ⊙ (1 - I_N)]   (k_t blocks)
///
/// The diagonal is masked because a node's own history belongs to the
/// inherent model, not the diffusion model. `p_k` may be a static [N, N]
/// matrix or a batched [B, N, N] dynamic matrix (Eq. 14); the result is
/// [..., N, k_t * N]. Differentiable. The model itself passes the repeated
/// block, MaskSelfLoops(p_k), and convolves it with the summed frames; this
/// form stays as Eq. 4's reference.
Tensor LocalizedTransition(const Tensor& p_k, int64_t k_t);

/// Masks the diagonal of the trailing [N, N] block: p ⊙ (1 - I_N).
/// Differentiable; accepts [N, N] or [B, N, N].
Tensor MaskSelfLoops(const Tensor& p);

}  // namespace d2stgnn::graph

#endif  // D2STGNN_GRAPH_LOCALIZED_TRANSITION_H_
