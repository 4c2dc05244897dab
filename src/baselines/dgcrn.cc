#include "baselines/dgcrn.h"

#include <cmath>

#include "common/check.h"
#include "graph/transition.h"
#include "tensor/ops.h"

namespace d2stgnn::baselines {

Dgcrn::Dgcrn(int64_t num_nodes, int64_t hidden_dim, int64_t input_len,
             int64_t output_len, const Tensor& adjacency,
             int64_t max_diffusion_step, bool dynamic, Rng& rng)
    : ForecastingModel(dynamic ? "dgcrn" : "dgcrn_static"),
      num_nodes_(num_nodes),
      output_len_(output_len),
      max_diffusion_step_(max_diffusion_step),
      dynamic_(dynamic),
      encoder_(data::kInputFeatures, hidden_dim, 2 * max_diffusion_step, rng),
      decoder_(1, hidden_dim, 2 * max_diffusion_step, rng),
      out_proj_(hidden_dim, 1, rng) {
  RegisterChild(&encoder_);
  RegisterChild(&decoder_);
  RegisterChild(&out_proj_);
  {
    NoGradGuard no_grad;
    p_forward_ = graph::ForwardTransition(adjacency);
    p_backward_ = graph::BackwardTransition(adjacency);
    for (const Tensor& p : {p_forward_, p_backward_}) {
      for (const Tensor& power :
           graph::TransitionPowers(p, max_diffusion_step)) {
        static_supports_.push_back(power);
      }
    }
  }
  if (dynamic_) {
    hyper_fc_ = std::make_unique<nn::Linear>(
        input_len * data::kInputFeatures, hidden_dim, rng);
    hyper_q_ = std::make_unique<nn::Linear>(hidden_dim, hidden_dim, rng);
    hyper_k_ = std::make_unique<nn::Linear>(hidden_dim, hidden_dim, rng);
    RegisterChild(hyper_fc_.get());
    RegisterChild(hyper_q_.get());
    RegisterChild(hyper_k_.get());
  }
}

Tensor Dgcrn::Forward(const data::Batch& batch) {
  const int64_t b = batch.batch_size;
  const int64_t steps = batch.input_len;
  D2_CHECK_EQ(batch.num_nodes(), num_nodes_);

  std::vector<Tensor> supports;
  if (dynamic_) {
    // Hyper-network: per-node features of the window -> attention mask ->
    // dynamic transitions (then their powers).
    const Tensor per_node = Reshape(Permute(batch.x, {0, 2, 1, 3}),
                                    {b, num_nodes_, steps * data::kInputFeatures});
    const Tensor feat = Relu(hyper_fc_->Forward(per_node));   // [B, N, h]
    const Tensor q = hyper_q_->Forward(feat);
    const Tensor k = hyper_k_->Forward(feat);
    const float scale =
        1.0f / std::sqrt(static_cast<float>(q.size(-1)));
    const Tensor mask =
        Softmax(MulScalar(MatMul(q, Transpose(k, -1, -2)), scale), -1);
    for (const Tensor& p : {p_forward_, p_backward_}) {
      const Tensor dyn = Mul(Unsqueeze(p, 0), mask);  // [B, N, N]
      for (const Tensor& power :
           graph::TransitionPowers(dyn, max_diffusion_step_)) {
        supports.push_back(power);
      }
    }
  } else {
    supports = static_supports_;
  }
  return RollOutDcgru(batch, encoder_, decoder_, out_proj_, supports,
                      output_len_);
}

}  // namespace d2stgnn::baselines
