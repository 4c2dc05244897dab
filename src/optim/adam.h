#ifndef D2STGNN_OPTIM_ADAM_H_
#define D2STGNN_OPTIM_ADAM_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace d2stgnn::optim {

/// Serializable optimizer state, the checkpoint's "optimizer" section.
/// `slots` holds the per-parameter state vectors (Adam's first and second
/// moments "m" and "v"), one inner vector per parameter, each sized like
/// the parameter it tracks.
struct OptimizerState {
  std::string type;  ///< "adam"
  int64_t step_count = 0;
  float learning_rate = 0.0f;
  std::vector<std::pair<std::string, std::vector<std::vector<float>>>> slots;
};

/// Adam optimizer (Kingma & Ba 2015) with bias correction over a fixed
/// parameter list, at the paper's settings (Sec. 6.1): beta1 0.9, beta2
/// 0.999, epsilon 1e-8, no weight decay.
class Adam {
 public:
  Adam(std::vector<Tensor> params, float learning_rate = 1e-3f);
  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  /// Applies one update using the parameters' accumulated gradients.
  void Step();

  /// Clears every parameter's gradient.
  void ZeroGrad();

  /// Captures learning rate, step count, and both moment buffers.
  OptimizerState ExportState() const;

  /// Restores a state exported from an Adam over the same parameters.
  /// Returns false (after logging) on a type mismatch or a slot whose
  /// shape does not match the parameters; on failure the optimizer is
  /// unchanged.
  bool ImportState(const OptimizerState& state);

  float learning_rate() const { return learning_rate_; }
  void set_learning_rate(float lr) { learning_rate_ = lr; }

  /// The optimized parameters.
  const std::vector<Tensor>& params() const { return params_; }

 private:
  /// True when `slot` has one vector per parameter with matching sizes;
  /// logs and returns false otherwise.
  bool SlotMatchesParams(const std::string& name,
                         const std::vector<std::vector<float>>& slot) const;

  std::vector<Tensor> params_;
  float learning_rate_;
  int64_t step_count_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

/// Scales all gradients so their global L2 norm is at most `max_norm`.
/// Returns the norm before clipping (non-finite when any gradient is).
float ClipGradNorm(const std::vector<Tensor>& params, float max_norm);

}  // namespace d2stgnn::optim

#endif  // D2STGNN_OPTIM_ADAM_H_
