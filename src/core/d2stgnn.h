#ifndef D2STGNN_CORE_D2STGNN_H_
#define D2STGNN_CORE_D2STGNN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/decoupled_layer.h"
#include "core/dynamic_graph.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "train/forecasting_model.h"

namespace d2stgnn::core {

/// Full configuration of D²STGNN. Defaults follow the paper's Sec. 6.1
/// (hidden d = 32, embeddings 12, k_s = 2, k_t = 3); the boolean switches
/// expose every variant of Tables 4 and 5.
struct D2StgnnConfig {
  int64_t num_nodes = 0;       ///< required
  int64_t input_len = 12;      ///< T_h
  int64_t output_len = 12;     ///< T_f
  int64_t hidden_dim = 32;     ///< d
  int64_t embed_dim = 12;      ///< node/time embedding size
  int64_t num_layers = 2;      ///< L
  int64_t k_s = 2;             ///< spatial kernel size
  int64_t k_t = 3;             ///< temporal kernel size
  int64_t num_heads = 4;       ///< attention heads in the inherent model
  int64_t steps_per_day = 288; ///< N_D for the T^D embedding

  bool inherent_first = false;   ///< `switch`
  bool use_gate = true;          ///< `w/o gate`
  bool use_residual = true;      ///< `w/o res`
  bool use_decouple = true;      ///< `w/o decouple` → D²STGNN‡
  bool use_dynamic_graph = true; ///< `w/o dg` → D²STGNN†
  bool use_adaptive = true;      ///< `w/o apt`
  bool use_gru = true;           ///< `w/o gru`
  bool use_msa = true;           ///< `w/o msa`
  bool autoregressive = true;    ///< `w/o ar`
};

/// Decoupled Dynamic Spatial-Temporal Graph Neural Network (the paper's
/// model, Sec. 5 / Algorithm 1). Owns the node and time-slot embeddings
/// shared by the estimation gates, the self-adaptive transition matrix
/// (Eq. 7), and the dynamic graph learner (Eqs. 13–14); stacks L decoupled
/// spatial-temporal layers whose forecast hidden states are summed (Eq. 15)
/// and regressed by a two-layer MLP.
class D2Stgnn : public train::ForecastingModel {
 public:
  /// `adjacency` is the [N, N] road-network adjacency (Table 2 /
  /// Definition 2) from which the static transitions P_f and P_b derive.
  D2Stgnn(const D2StgnnConfig& config, const Tensor& adjacency, Rng& rng);

  /// Predicts [B, Tf, N, 1] normalized traffic signals.
  Tensor Forward(const data::Batch& batch) override;

  int64_t horizon() const override { return config_.output_len; }

  const D2StgnnConfig& config() const { return config_; }

  /// The self-adaptive transition matrix P_apt (Eq. 7) for inspection;
  /// undefined when use_adaptive is false.
  Tensor AdaptiveTransition() const;

 private:
  D2StgnnConfig config_;
  Tensor p_forward_;   // static P_f, [N, N]
  Tensor p_backward_;  // static P_b, [N, N]
  /// Precomputed masked powers of the static transitions (used when the
  /// dynamic graph is disabled), indexed [support][k-1].
  std::vector<std::vector<Tensor>> static_masked_powers_;

  nn::Linear input_proj_;
  nn::Embedding node_source_;  // E^u
  nn::Embedding node_target_;  // E^d
  nn::Embedding time_of_day_;  // T^D
  nn::Embedding day_of_week_;  // T^W
  std::unique_ptr<DynamicGraphLearner> dynamic_graph_;
  std::vector<std::unique_ptr<DecoupledLayer>> layers_;
  nn::Linear out_fc1_;
  nn::Linear out_fc2_;
};

/// Convenience factories for the paper's named variants.
/// D²STGNN† — pre-defined static graph instead of the dynamic one (Table 4).
D2StgnnConfig MakeStaticGraphConfig(D2StgnnConfig config);
/// D²STGNN‡ — additionally removes the decoupling framework (Table 4).
D2StgnnConfig MakeCoupledConfig(D2StgnnConfig config);

}  // namespace d2stgnn::core

#endif  // D2STGNN_CORE_D2STGNN_H_
