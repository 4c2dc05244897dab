#include "core/diffusion_block.h"

#include "common/check.h"
#include "nn/init.h"
#include "tensor/ops.h"

namespace d2stgnn::core {

DiffusionBlock::DiffusionBlock(int64_t hidden_dim, int64_t k_s, int64_t k_t,
                               int64_t num_supports, int64_t forecast_horizon,
                               bool autoregressive, Rng& rng)
    : Module("diffusion_block"),
      hidden_dim_(hidden_dim),
      k_s_(k_s),
      k_t_(k_t),
      horizon_(forecast_horizon),
      autoregressive_(autoregressive) {
  D2_CHECK_GE(k_s, 1);
  D2_CHECK_GE(k_t, 1);
  D2_CHECK_GE(num_supports, 1);
  for (int64_t j = 0; j < k_t; ++j) {
    frame_fc_.push_back(
        std::make_unique<nn::Linear>(hidden_dim, hidden_dim, rng));
    RegisterChild(frame_fc_.back().get());
  }
  for (int64_t s = 0; s < num_supports; ++s) {
    for (int64_t k = 0; k < k_s; ++k) {
      conv_weight_.push_back(RegisterParameter(
          "W_conv", nn::XavierUniform({hidden_dim, hidden_dim}, rng)));
    }
  }
  if (autoregressive_) {
    forecast_fc1_ =
        std::make_unique<nn::Linear>(k_t * hidden_dim, hidden_dim, rng);
    forecast_fc2_ = std::make_unique<nn::Linear>(hidden_dim, hidden_dim, rng);
  } else {
    forecast_fc1_ = std::make_unique<nn::Linear>(hidden_dim, hidden_dim, rng);
    forecast_fc2_ = std::make_unique<nn::Linear>(
        hidden_dim, forecast_horizon * hidden_dim, rng);
  }
  RegisterChild(forecast_fc1_.get());
  RegisterChild(forecast_fc2_.get());
  backcast_fc1_ = std::make_unique<nn::Linear>(hidden_dim, hidden_dim, rng);
  backcast_fc2_ = std::make_unique<nn::Linear>(hidden_dim, hidden_dim, rng);
  RegisterChild(backcast_fc1_.get());
  RegisterChild(backcast_fc2_.get());
}

BlockOutput DiffusionBlock::Forward(
    const Tensor& x,
    const std::vector<std::vector<Tensor>>& localized_supports) const {
  D2_CHECK_EQ(x.dim(), 4);
  const int64_t batch = x.size(0);
  const int64_t steps = x.size(1);
  const int64_t nodes = x.size(2);
  D2_CHECK_EQ(x.size(3), hidden_dim_);
  D2_CHECK_LE(localized_supports.size(),
              conv_weight_.size() / static_cast<size_t>(k_s_));

  // Every k_t block of Eq. 4's localized transition is the same masked
  // power M = P^k ⊙ (1 - I_N), so P^lc X^lc = M · S with S_t the sum of the
  // k_t transformed frames sigma(X_{t-kt+1+j2} W_{kt-1-j2}) (Eq. 5). S is
  // built once for the whole window, [B, T, N, d]: the sequence is
  // zero-padded in front so every step owns a full k_t window, and frame j2
  // of every step is one Slice of the padded sequence (padded index t + j2),
  // transformed only on the T frames it keeps and added in ascending j2.
  const Tensor padded = PadFront(x, 1, k_t_ - 1);  // [B, T+kt-1, N, d]
  Tensor summed;
  for (int64_t j2 = 0; j2 < k_t_; ++j2) {
    const nn::Linear& frame_fc =
        *frame_fc_[static_cast<size_t>(k_t_ - 1 - j2)];
    const Tensor frame =
        Relu(frame_fc.Forward(Slice(padded, 1, j2, j2 + steps)));
    summed = summed.defined() ? Add(summed, frame) : frame;
  }

  // Eqs. 6 & 8 over the whole window: H = sum_s sum_k M_{s,k} S W_{s,k}.
  // A [N, N] support broadcasts over batch and steps, a batched [B, N, N]
  // one over steps.
  Tensor hidden;  // [B, T, N, d]
  for (size_t s = 0; s < localized_supports.size(); ++s) {
    D2_CHECK_EQ(static_cast<int64_t>(localized_supports[s].size()), k_s_);
    for (int64_t k = 0; k < k_s_; ++k) {
      Tensor p = localized_supports[s][static_cast<size_t>(k)];
      const int64_t width = p.size(-1);
      D2_CHECK(width == nodes || width == k_t_ * nodes)
          << "support " << s << " order " << k + 1 << " has width " << width
          << ", want " << nodes << " (masked power) or " << k_t_ * nodes
          << " (Eq. 4)";
      if (width != nodes) p = Slice(p, -1, 0, nodes);
      if (p.dim() == 3) p = Unsqueeze(p, 1);
      const Tensor conv = MatMul(
          MatMul(p, summed),
          conv_weight_[s * static_cast<size_t>(k_s_) + static_cast<size_t>(k)]);
      hidden = hidden.defined() ? Add(hidden, conv) : conv;
    }
  }

  BlockOutput out;
  out.hidden_sequence = hidden;

  // Forecast branch (Sec. 5.1): roll an MLP over the last k_t hidden states
  // to produce H_{T+1..T+Tf} auto-regressively; the w/o-ar ablation
  // regresses all future hidden states from H_T at once.
  if (autoregressive_) {
    std::vector<Tensor> window;
    for (int64_t j = std::max<int64_t>(0, steps - k_t_); j < steps; ++j) {
      window.push_back(Select(hidden, 1, j));
    }
    while (static_cast<int64_t>(window.size()) < k_t_) {
      window.insert(window.begin(),
                    Tensor::Zeros({batch, nodes, hidden_dim_}));
    }
    std::vector<Tensor> future;
    future.reserve(static_cast<size_t>(horizon_));
    for (int64_t f = 0; f < horizon_; ++f) {
      const Tensor context = Concat(window, -1);  // [B, N, kt*d]
      const Tensor next = forecast_fc2_->Forward(
          Relu(forecast_fc1_->Forward(context)));
      future.push_back(next);
      window.erase(window.begin());
      window.push_back(next);
    }
    out.hidden_forecast = Stack(future, 1);  // [B, Tf, N, d]
  } else {
    const Tensor last = Select(hidden, 1, steps - 1);  // [B, N, d]
    Tensor flat =
        forecast_fc2_->Forward(Relu(forecast_fc1_->Forward(last)));
    flat = Reshape(flat, {batch, nodes, horizon_, hidden_dim_});
    out.hidden_forecast = Permute(flat, {0, 2, 1, 3});
  }

  // Backcast branch (Eq. 1's sigma(H W_b), realized as a two-layer
  // non-linear fully connected network).
  out.backcast = backcast_fc2_->Forward(Relu(backcast_fc1_->Forward(hidden)));
  return out;
}

}  // namespace d2stgnn::core
