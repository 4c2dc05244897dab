#include "baselines/graph_wavenet.h"

#include "common/check.h"
#include "graph/transition.h"
#include "nn/init.h"
#include "tensor/ops.h"

namespace d2stgnn::baselines {
namespace {

// Diffusion steps K: powers 1..K of every support.
constexpr int64_t kDiffusionSteps = 2;

}  // namespace

GraphWaveNet::GraphWaveNet(int64_t num_nodes, int64_t output_len,
                           const Tensor& adjacency, const Options& options,
                           Rng& rng)
    : ForecastingModel("graph_wavenet"),
      num_nodes_(num_nodes),
      output_len_(output_len),
      input_proj_(data::kInputFeatures, options.hidden_dim, rng),
      out_fc1_(options.skip_dim, options.skip_dim, rng),
      out_fc2_(options.skip_dim, output_len, rng) {
  RegisterChild(&input_proj_);
  RegisterChild(&out_fc1_);
  RegisterChild(&out_fc2_);

  {
    NoGradGuard no_grad;
    for (const Tensor& p : {graph::ForwardTransition(adjacency),
                            graph::BackwardTransition(adjacency)}) {
      for (const Tensor& power :
           graph::TransitionPowers(p, kDiffusionSteps)) {
        static_supports_.push_back(power);
      }
    }
  }
  e1_ = RegisterParameter("E1",
                          nn::XavierNormal({num_nodes, options.embed_dim}, rng));
  e2_ = RegisterParameter("E2",
                          nn::XavierNormal({num_nodes, options.embed_dim}, rng));

  const int64_t h = options.hidden_dim;
  int64_t dilation = 1;
  for (int64_t l = 0; l < options.num_layers; ++l) {
    Layer layer;
    layer.dilation = dilation;
    dilation *= 2;
    layer.filter_now = std::make_unique<nn::Linear>(h, h, rng);
    layer.filter_past = std::make_unique<nn::Linear>(h, h, rng);
    layer.gate_now = std::make_unique<nn::Linear>(h, h, rng);
    layer.gate_past = std::make_unique<nn::Linear>(h, h, rng);
    RegisterChild(layer.filter_now.get());
    RegisterChild(layer.filter_past.get());
    RegisterChild(layer.gate_now.get());
    RegisterChild(layer.gate_past.get());
    // One weight per support power (static + adaptive powers), plus the
    // identity, mixed by gcn_out.
    const int64_t num_supports =
        static_cast<int64_t>(static_supports_.size()) + kDiffusionSteps;
    for (int64_t s = 0; s < num_supports; ++s) {
      layer.gcn_weights.push_back(
          RegisterParameter("W_gcn", nn::XavierUniform({h, h}, rng)));
    }
    layer.gcn_out = std::make_unique<nn::Linear>(h, h, rng);
    layer.skip = std::make_unique<nn::Linear>(h, options.skip_dim, rng);
    RegisterChild(layer.gcn_out.get());
    RegisterChild(layer.skip.get());
    layers_.push_back(std::move(layer));
  }
}

Tensor GraphWaveNet::AdaptiveAdjacency() const {
  // softmax(relu(E1 E2^T)), Graph WaveNet Eq. for \tilde{A}_apt.
  return Softmax(Relu(MatMul(e1_, Transpose(e2_, 0, 1))), -1);
}

Tensor GraphWaveNet::Forward(const data::Batch& batch) {
  const int64_t b = batch.batch_size;
  const int64_t steps = batch.input_len;
  D2_CHECK_EQ(batch.num_nodes(), num_nodes_);

  // All supports for this forward pass.
  std::vector<Tensor> supports = static_supports_;
  for (const Tensor& power :
       graph::TransitionPowers(AdaptiveAdjacency(), kDiffusionSteps)) {
    supports.push_back(power);
  }

  Tensor x = input_proj_.Forward(batch.x);  // [B, T, N, h]
  Tensor skip_sum;
  for (const Layer& layer : layers_) {
    // Gated dilated causal convolution (kernel 2): combine each frame with
    // the frame `dilation` steps earlier (zero-padded at the front).
    const Tensor past =
        Slice(PadFront(x, 1, layer.dilation), 1, 0, steps);
    const Tensor filter = Tanh(Add(layer.filter_now->Forward(x),
                                   layer.filter_past->Forward(past)));
    const Tensor gate = Sigmoid(
        Add(layer.gate_now->Forward(x), layer.gate_past->Forward(past)));
    const Tensor gated = Mul(filter, gate);  // [B, T, N, h]

    // Graph convolution: sum_k P_k gated W_k, then a 1x1 mix.
    Tensor conv;
    for (size_t s = 0; s < supports.size(); ++s) {
      const Tensor term =
          MatMul(MatMul(supports[s], gated), layer.gcn_weights[s]);
      conv = conv.defined() ? Add(conv, term) : term;
    }
    conv = layer.gcn_out->Forward(Add(conv, gated));

    // Skip from the gated activation's last frame; residual into next layer.
    const Tensor skip = layer.skip->Forward(
        Reshape(Slice(gated, 1, steps - 1, steps), {b, num_nodes_, -1}));
    skip_sum = skip_sum.defined() ? Add(skip_sum, skip) : skip;
    x = Add(x, conv);
  }

  // Output head: [B, N, skip] -> [B, N, Tf] -> [B, Tf, N, 1].
  Tensor out = out_fc2_.Forward(Relu(out_fc1_.Forward(Relu(skip_sum))));
  out = Permute(out, {0, 2, 1});  // [B, Tf, N]
  return Reshape(out, {b, output_len_, num_nodes_, 1});
}

}  // namespace d2stgnn::baselines
