#include "baselines/dcrnn.h"

#include "common/check.h"
#include "graph/transition.h"
#include "tensor/ops.h"

namespace d2stgnn::baselines {

DiffusionConv::DiffusionConv(int64_t in_dim, int64_t out_dim,
                             int64_t num_matrices, Rng& rng)
    : Module("diffusion_conv"),
      num_matrices_(num_matrices),
      proj_((num_matrices + 1) * in_dim, out_dim, rng) {
  RegisterChild(&proj_);
}

Tensor DiffusionConv::Forward(const Tensor& x,
                              const std::vector<Tensor>& supports) const {
  D2_CHECK_EQ(static_cast<int64_t>(supports.size()), num_matrices_);
  std::vector<Tensor> terms;
  terms.reserve(supports.size() + 1);
  terms.push_back(x);  // identity term
  for (const Tensor& p : supports) {
    terms.push_back(MatMul(p, x));  // [N,N] or [B,N,N] both broadcast
  }
  return proj_.Forward(Concat(terms, -1));
}

DcgruCell::DcgruCell(int64_t in_dim, int64_t hidden_dim, int64_t num_matrices,
                     Rng& rng)
    : Module("dcgru_cell"),
      hidden_dim_(hidden_dim),
      gates_(in_dim + hidden_dim, 2 * hidden_dim, num_matrices, rng),
      candidate_(in_dim + hidden_dim, hidden_dim, num_matrices, rng) {
  RegisterChild(&gates_);
  RegisterChild(&candidate_);
}

Tensor DcgruCell::Forward(const Tensor& x, const Tensor& h,
                          const std::vector<Tensor>& supports) const {
  const Tensor xh = Concat({x, h}, -1);
  const Tensor ru = Sigmoid(gates_.Forward(xh, supports));
  const Tensor r = Slice(ru, -1, 0, hidden_dim_);
  const Tensor u = Slice(ru, -1, hidden_dim_, 2 * hidden_dim_);
  const Tensor c =
      Tanh(candidate_.Forward(Concat({x, Mul(r, h)}, -1), supports));
  return Add(Mul(u, h), Mul(Sub(Tensor::Scalar(1.0f), u), c));
}

Tensor RollOutDcgru(const data::Batch& batch, const DcgruCell& encoder,
                    const DcgruCell& decoder, const nn::Linear& out_proj,
                    const std::vector<Tensor>& supports, int64_t output_len) {
  const int64_t b = batch.batch_size;
  const int64_t nodes = batch.num_nodes();
  Tensor h = Tensor::Zeros({b, nodes, encoder.hidden_dim()});
  for (int64_t t = 0; t < batch.input_len; ++t) {
    const Tensor frame = Reshape(Slice(batch.x, 1, t, t + 1),
                                 {b, nodes, data::kInputFeatures});
    h = encoder.Forward(frame, h, supports);
  }

  Tensor prev = Tensor::Zeros({b, nodes, 1});
  std::vector<Tensor> outputs;
  outputs.reserve(static_cast<size_t>(output_len));
  for (int64_t f = 0; f < output_len; ++f) {
    h = decoder.Forward(prev, h, supports);
    prev = out_proj.Forward(h);  // [B, N, 1]
    outputs.push_back(prev);
  }
  return Stack(outputs, 1);  // [B, Tf, N, 1]
}

Dcrnn::Dcrnn(int64_t num_nodes, int64_t hidden_dim, int64_t output_len,
             const Tensor& adjacency, int64_t max_diffusion_step, Rng& rng)
    : ForecastingModel("dcrnn"),
      num_nodes_(num_nodes),
      output_len_(output_len),
      encoder_(data::kInputFeatures, hidden_dim, 2 * max_diffusion_step, rng),
      decoder_(1, hidden_dim, 2 * max_diffusion_step, rng),
      out_proj_(hidden_dim, 1, rng) {
  RegisterChild(&encoder_);
  RegisterChild(&decoder_);
  RegisterChild(&out_proj_);
  NoGradGuard no_grad;
  for (const Tensor& p : {graph::ForwardTransition(adjacency),
                          graph::BackwardTransition(adjacency)}) {
    for (const Tensor& power : graph::TransitionPowers(p, max_diffusion_step)) {
      supports_.push_back(power);
    }
  }
}

Tensor Dcrnn::Forward(const data::Batch& batch) {
  D2_CHECK_EQ(batch.num_nodes(), num_nodes_);
  return RollOutDcgru(batch, encoder_, decoder_, out_proj_, supports_,
                      output_len_);
}

}  // namespace d2stgnn::baselines
