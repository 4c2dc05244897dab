#ifndef D2STGNN_BASELINES_DCRNN_H_
#define D2STGNN_BASELINES_DCRNN_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "train/forecasting_model.h"

namespace d2stgnn::baselines {

/// Diffusion convolution over a set of transition-matrix powers:
///   y = [x ‖ P_1 x ‖ ... ‖ P_M x] W + b
/// where each P_m is [N, N] (static) or [B, N, N] (dynamic) and x is
/// [B, N, in_dim]. The identity term is always included. Used by DCRNN's
/// DCGRU cell and by DGCRN.
class DiffusionConv : public nn::Module {
 public:
  /// `num_matrices` is the number of transition matrices (excluding the
  /// implicit identity) the layer is sized for.
  DiffusionConv(int64_t in_dim, int64_t out_dim, int64_t num_matrices,
                Rng& rng);

  Tensor Forward(const Tensor& x, const std::vector<Tensor>& supports) const;

 private:
  int64_t num_matrices_;
  nn::Linear proj_;
};

/// Diffusion Convolutional GRU cell (DCRNN, Li et al. 2018): a GRU whose
/// fully connected layers are replaced with diffusion convolutions.
class DcgruCell : public nn::Module {
 public:
  DcgruCell(int64_t in_dim, int64_t hidden_dim, int64_t num_matrices,
            Rng& rng);

  /// x: [B, N, in_dim], h: [B, N, hidden]; returns the next hidden state.
  Tensor Forward(const Tensor& x, const Tensor& h,
                 const std::vector<Tensor>& supports) const;

  int64_t hidden_dim() const { return hidden_dim_; }

 private:
  int64_t hidden_dim_;
  DiffusionConv gates_;      // -> 2*hidden (reset ‖ update)
  DiffusionConv candidate_;  // -> hidden
};

/// The DCGRU encoder-decoder roll-out of DCRNN and DGCRN: `encoder` reads
/// the input window of `batch` frame by frame from a zero state, then
/// `decoder` runs `output_len` steps autoregressively on its own
/// predictions, each projected by `out_proj` (GO symbol = zeros, as in the
/// official code's inference mode). Both cells diffuse over `supports`.
/// Returns [B, output_len, N, 1].
Tensor RollOutDcgru(const data::Batch& batch, const DcgruCell& encoder,
                    const DcgruCell& decoder, const nn::Linear& out_proj,
                    const std::vector<Tensor>& supports, int64_t output_len);

/// DCRNN baseline: sequence-to-sequence DCGRU encoder-decoder modelling
/// traffic as a diffusion process on the road graph (paper Sec. 6.1). The
/// decoder runs autoregressively on its own predictions (scheduled sampling
/// is omitted; see DESIGN.md).
class Dcrnn : public train::ForecastingModel {
 public:
  /// `max_diffusion_step` is K (powers of each direction's transition).
  Dcrnn(int64_t num_nodes, int64_t hidden_dim, int64_t output_len,
        const Tensor& adjacency, int64_t max_diffusion_step, Rng& rng);

  Tensor Forward(const data::Batch& batch) override;

  int64_t horizon() const override { return output_len_; }

 private:
  int64_t num_nodes_;
  int64_t output_len_;
  std::vector<Tensor> supports_;  // static powers of P_f and P_b
  DcgruCell encoder_;
  DcgruCell decoder_;
  nn::Linear out_proj_;
};

}  // namespace d2stgnn::baselines

#endif  // D2STGNN_BASELINES_DCRNN_H_
