#ifndef D2STGNN_CORE_DECOUPLED_LAYER_H_
#define D2STGNN_CORE_DECOUPLED_LAYER_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/diffusion_block.h"
#include "core/estimation_gate.h"
#include "core/inherent_block.h"
#include "nn/module.h"

namespace d2stgnn::core {

/// Configuration of one decoupled spatial-temporal layer. The boolean
/// switches correspond one-to-one to the paper's Table 5 ablations.
struct DecoupledLayerConfig {
  int64_t hidden_dim = 32;
  int64_t embed_dim = 12;
  int64_t k_s = 2;
  int64_t k_t = 3;
  int64_t num_heads = 4;
  int64_t input_len = 12;
  int64_t horizon = 12;
  int64_t num_supports = 3;
  bool inherent_first = false;  ///< `switch` ablation
  bool use_gate = true;         ///< `w/o gate`
  bool use_residual = true;     ///< `w/o res`
  bool use_decouple = true;     ///< `w/o decouple` (coupled D²STGNN‡)
  bool use_gru = true;          ///< `w/o gru`
  bool use_msa = true;          ///< `w/o msa`
  bool autoregressive = true;   ///< `w/o ar`
};

/// What a layer hands back to the model.
struct LayerOutput {
  /// X^{l+1}, the residual signal feeding the next layer, [B, T, N, d].
  Tensor next_input;
  /// Forecast hidden states of the diffusion block, [B, Tf, N, d].
  Tensor forecast_dif;
  /// Forecast hidden states of the inherent block, [B, Tf, N, d].
  Tensor forecast_inh;
};

/// One decoupled spatial-temporal layer (paper Fig. 3): estimation gate →
/// diffusion block → residual link (Eq. 1) → inherent block → residual link
/// (Eq. 2). The `switch` variant swaps block order (Sec. 6.5); the coupled
/// variant (`w/o decouple`) chains the blocks directly, like conventional
/// STGNNs.
class DecoupledLayer : public nn::Module {
 public:
  DecoupledLayer(const DecoupledLayerConfig& config, Rng& rng);

  /// Runs the layer.
  /// `x`: [B, T, N, d] layer input; `t_day`/`t_week`: [B, T, de] time-slot
  /// embeddings; `e_u`/`e_d`: [N, de] node embeddings;
  /// `localized_supports[s][k-1]`: masked transition powers shared by every
  /// layer of the model (Eq. 4's localized form is accepted too; see
  /// `DiffusionBlock::Forward`).
  LayerOutput Forward(
      const Tensor& x, const Tensor& t_day, const Tensor& t_week,
      const Tensor& e_u, const Tensor& e_d,
      const std::vector<std::vector<Tensor>>& localized_supports) const;

 private:
  DecoupledLayerConfig config_;
  std::unique_ptr<EstimationGate> gate_;
  DiffusionBlock diffusion_;
  InherentBlock inherent_;
};

}  // namespace d2stgnn::core

#endif  // D2STGNN_CORE_DECOUPLED_LAYER_H_
