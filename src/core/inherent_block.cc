#include "core/inherent_block.h"

#include <vector>

#include "common/check.h"
#include "tensor/ops.h"

namespace d2stgnn::core {

InherentBlock::InherentBlock(int64_t hidden_dim, int64_t num_heads,
                             int64_t forecast_horizon, int64_t max_len,
                             bool use_gru, bool use_msa, bool autoregressive,
                             Rng& rng)
    : Module("inherent_block"),
      hidden_dim_(hidden_dim),
      horizon_(forecast_horizon),
      use_gru_(use_gru),
      use_msa_(use_msa),
      autoregressive_(autoregressive),
      positional_(max_len + forecast_horizon, hidden_dim) {
  if (use_gru_) {
    gru_ = std::make_unique<nn::GruCell>(hidden_dim, hidden_dim, rng);
    RegisterChild(gru_.get());
  } else {
    input_fc_ = std::make_unique<nn::Linear>(hidden_dim, hidden_dim, rng);
    RegisterChild(input_fc_.get());
  }
  if (use_msa_) {
    attention_ =
        std::make_unique<nn::MultiHeadSelfAttention>(hidden_dim, num_heads, rng);
    RegisterChild(attention_.get());
  }
  if (autoregressive_) {
    roll_fc_ = std::make_unique<nn::Linear>(hidden_dim, hidden_dim, rng);
    RegisterChild(roll_fc_.get());
  } else {
    forecast_fc1_ = std::make_unique<nn::Linear>(hidden_dim, hidden_dim, rng);
    forecast_fc2_ = std::make_unique<nn::Linear>(
        hidden_dim, forecast_horizon * hidden_dim, rng);
    RegisterChild(forecast_fc1_.get());
    RegisterChild(forecast_fc2_.get());
  }
  backcast_fc1_ = std::make_unique<nn::Linear>(hidden_dim, hidden_dim, rng);
  backcast_fc2_ = std::make_unique<nn::Linear>(hidden_dim, hidden_dim, rng);
  RegisterChild(backcast_fc1_.get());
  RegisterChild(backcast_fc2_.get());
}

BlockOutput InherentBlock::Forward(const Tensor& x) const {
  D2_CHECK_EQ(x.dim(), 4);
  const int64_t batch = x.size(0);
  const int64_t steps = x.size(1);
  const int64_t nodes = x.size(2);
  D2_CHECK_EQ(x.size(3), hidden_dim_);

  // Short-term dependencies: GRU over time, every node independent (Eq. 10).
  // The w/o-gru ablation is a plain projection of the whole window.
  Tensor recurrent;  // [B, T, N, d]
  Tensor state;      // the GRU's last state, [B, N, d]
  if (use_gru_) {
    state = Tensor::Zeros({batch, nodes, hidden_dim_});
    std::vector<Tensor> gru_states;
    gru_states.reserve(static_cast<size_t>(steps));
    for (int64_t t = 0; t < steps; ++t) {
      state = gru_->Forward(Select(x, 1, t), state);
      gru_states.push_back(state);
    }
    recurrent = Stack(gru_states, 1);
  } else {
    recurrent = Relu(input_fc_->Forward(x));
  }

  // Long-term dependencies: positional encoding (Eq. 12) + multi-head
  // self-attention over the time axis per node (Eq. 11).
  Tensor hidden;
  if (use_msa_) {
    Tensor per_node = Permute(recurrent, {0, 2, 1, 3});     // [B, N, T, d]
    per_node = Reshape(per_node, {batch * nodes, steps, hidden_dim_});
    per_node = positional_.Forward(per_node);
    per_node = attention_->Forward(per_node);               // [B*N, T, d]
    per_node = Reshape(per_node, {batch, nodes, steps, hidden_dim_});
    hidden = Permute(per_node, {0, 2, 1, 3});               // [B, T, N, d]
  } else {
    hidden = recurrent;
  }

  BlockOutput out;
  out.hidden_sequence = hidden;

  // Forecast branch: simple sliding auto-regression (Sec. 5.2) — keep
  // stepping the recurrence, feeding back a projection of the last hidden
  // state (there is no ground truth for the hidden inherent series, so no
  // decoder).
  if (autoregressive_) {
    std::vector<Tensor> future;
    future.reserve(static_cast<size_t>(horizon_));
    Tensor roll_state =
        use_gru_ ? state : Select(recurrent, 1, steps - 1);  // [B, N, d]
    for (int64_t f = 0; f < horizon_; ++f) {
      const Tensor next_input = Relu(roll_fc_->Forward(roll_state));
      if (use_gru_) {
        roll_state = gru_->Forward(next_input, roll_state);
      } else {
        roll_state = Relu(input_fc_->Forward(next_input));
      }
      future.push_back(roll_state);
    }
    out.hidden_forecast = Stack(future, 1);  // [B, Tf, N, d]
  } else {
    const Tensor last = Select(hidden, 1, steps - 1);
    Tensor flat = forecast_fc2_->Forward(Relu(forecast_fc1_->Forward(last)));
    flat = Reshape(flat, {batch, nodes, horizon_, hidden_dim_});
    out.hidden_forecast = Permute(flat, {0, 2, 1, 3});
  }

  // Backcast branch (Eq. 2).
  out.backcast = backcast_fc2_->Forward(Relu(backcast_fc1_->Forward(hidden)));
  return out;
}

}  // namespace d2stgnn::core
