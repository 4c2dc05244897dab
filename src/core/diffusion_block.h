#ifndef D2STGNN_CORE_DIFFUSION_BLOCK_H_
#define D2STGNN_CORE_DIFFUSION_BLOCK_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace d2stgnn::core {

/// Output of a diffusion or inherent block: the full hidden-state sequence,
/// the auto-regressive forecast of future hidden states, and the backcast
/// reconstruction of the block's input (paper Sec. 4.1).
struct BlockOutput {
  /// H over the input window, [B, T, N, d].
  Tensor hidden_sequence;
  /// Forecast hidden states [H_{T+1}, ..., H_{T+Tf}], [B, Tf, N, d].
  Tensor hidden_forecast;
  /// Backcast of the input signal, [B, T, N, d].
  Tensor backcast;
};

/// The diffusion model: a spatial-temporal localized convolutional layer
/// (paper Sec. 5.1, Eqs. 4–9). Every time step t's localized feature matrix
/// X^lc_t stacks the last k_t frames — each frame passed through its own
/// non-linear transform W_{k'} (Eq. 5) — and is convolved with the k_s
/// powers of every localized transition matrix, each (support, order) pair
/// owning its output weight (Eq. 8). Eq. 4's k_t blocks are one masked
/// power repeated, so the block convolves that [N, N] power with the sum of
/// the k_t transformed frames: one MatMul pair per (support, order) over
/// the whole window, each reducing over N rather than k_t·N.
class DiffusionBlock : public nn::Module {
 public:
  /// `num_supports` is the number of transition matrices (2 static/dynamic
  /// road-network directions + optionally the self-adaptive one).
  /// `autoregressive` selects the forecast branch of Sec. 5.1 (rolling
  /// prediction of future hidden states) versus the `w/o ar` ablation
  /// (direct multi-step regression from H_T).
  DiffusionBlock(int64_t hidden_dim, int64_t k_s, int64_t k_t,
                 int64_t num_supports, int64_t forecast_horizon,
                 bool autoregressive, Rng& rng);

  /// Runs the localized convolution.
  /// `x`: [B, T, N, d] diffusion-signal input;
  /// `localized_supports[s][k-1]`: the k-order masked power
  /// P_s^k ⊙ (1 - I_N) of support s, [N, N] (static) or [B, N, N]
  /// (dynamic). Eq. 4's localized form, [N, k_t*N] or [B, N, k_t*N], is
  /// accepted too and read through its first block; any other width fails
  /// a check. The number of supports may be less than `num_supports` (e.g.
  /// w/o apt) — extra weights simply stay unused.
  BlockOutput Forward(
      const Tensor& x,
      const std::vector<std::vector<Tensor>>& localized_supports) const;

  int64_t k_t() const { return k_t_; }

 private:
  int64_t hidden_dim_;
  int64_t k_s_;
  int64_t k_t_;
  int64_t horizon_;
  bool autoregressive_;
  /// Frame transforms of Eq. 5; frame_fc_[j] applies to the frame j steps
  /// before the target step.
  std::vector<std::unique_ptr<nn::Linear>> frame_fc_;
  /// Output weights of Eq. 8, indexed [support * k_s + (k-1)].
  std::vector<Tensor> conv_weight_;
  // Forecast branch.
  std::unique_ptr<nn::Linear> forecast_fc1_;  // k_t*d -> d (AR) or d -> d
  std::unique_ptr<nn::Linear> forecast_fc2_;  // d -> d or d -> Tf*d
  // Backcast branch ("non-linear fully connected network", Sec. 4.1).
  std::unique_ptr<nn::Linear> backcast_fc1_;
  std::unique_ptr<nn::Linear> backcast_fc2_;
};

}  // namespace d2stgnn::core

#endif  // D2STGNN_CORE_DIFFUSION_BLOCK_H_
