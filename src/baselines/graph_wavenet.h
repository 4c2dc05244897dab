#ifndef D2STGNN_BASELINES_GRAPH_WAVENET_H_
#define D2STGNN_BASELINES_GRAPH_WAVENET_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "train/forecasting_model.h"

namespace d2stgnn::baselines {

/// Graph WaveNet baseline (Wu et al. 2019; paper Sec. 6.1): stacked gated
/// dilated causal convolutions interleaved with graph convolutions over the
/// double-transition supports plus a self-adaptive adjacency matrix learned
/// from node embeddings (each with diffusion powers 1 and 2), with residual
/// and skip connections and a direct multi-step output head.
class GraphWaveNet : public train::ForecastingModel {
 public:
  struct Options {
    int64_t hidden_dim = 16;       ///< residual channels
    int64_t skip_dim = 32;         ///< skip channels
    int64_t embed_dim = 8;         ///< adaptive adjacency embedding
    int64_t num_layers = 3;        ///< dilations 1, 2, 4, ...
  };

  GraphWaveNet(int64_t num_nodes, int64_t output_len, const Tensor& adjacency,
               const Options& options, Rng& rng);

  Tensor Forward(const data::Batch& batch) override;

  int64_t horizon() const override { return output_len_; }

  /// The learned self-adaptive adjacency softmax(relu(E1 E2^T)) (exposed
  /// for inspection and tests).
  Tensor AdaptiveAdjacency() const;

 private:
  struct Layer {
    std::unique_ptr<nn::Linear> filter_now;    // tanh branch, current frame
    std::unique_ptr<nn::Linear> filter_past;   // tanh branch, dilated frame
    std::unique_ptr<nn::Linear> gate_now;      // sigmoid branch
    std::unique_ptr<nn::Linear> gate_past;
    std::vector<Tensor> gcn_weights;           // per support power
    std::unique_ptr<nn::Linear> gcn_out;       // after support sum
    std::unique_ptr<nn::Linear> skip;
    int64_t dilation = 1;
  };


  int64_t num_nodes_;
  int64_t output_len_;
  std::vector<Tensor> static_supports_;  // powers of P_f, P_b
  Tensor e1_, e2_;                       // adaptive embeddings
  nn::Linear input_proj_;
  std::vector<Layer> layers_;
  nn::Linear out_fc1_;
  nn::Linear out_fc2_;
};

}  // namespace d2stgnn::baselines

#endif  // D2STGNN_BASELINES_GRAPH_WAVENET_H_
