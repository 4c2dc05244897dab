#ifndef D2STGNN_OPTIM_OPTIMIZER_H_
#define D2STGNN_OPTIM_OPTIMIZER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace d2stgnn::optim {

/// Serializable optimizer state, generic across optimizers so checkpoint
/// code does not depend on concrete types. `slots` holds the per-parameter
/// state vectors (e.g. Adam's first/second moments), one inner vector per
/// parameter, each sized like the parameter it tracks.
struct OptimizerState {
  std::string type;  ///< optimizer kind, e.g. "adam"
  int64_t step_count = 0;
  float learning_rate = 0.0f;
  std::vector<std::pair<std::string, std::vector<std::vector<float>>>> slots;
};

/// Base class for gradient-descent optimizers over a fixed parameter list.
class Optimizer {
 public:
  Optimizer(std::vector<Tensor> params, float learning_rate);
  virtual ~Optimizer() = default;
  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Applies one update using the parameters' accumulated gradients.
  virtual void Step() = 0;

  /// Full serializable state (for checkpointing). The base implementation
  /// captures the type and learning rate; subclasses append their slots.
  virtual OptimizerState ExportState() const = 0;

  /// Restores state captured by ExportState on an optimizer over the same
  /// parameter list. Returns false (after logging) on a type mismatch or a
  /// slot whose shape does not match the parameters; on failure the
  /// optimizer is unchanged.
  virtual bool ImportState(const OptimizerState& state) = 0;

  /// Clears every parameter's gradient.
  void ZeroGrad();

  float learning_rate() const { return learning_rate_; }
  void set_learning_rate(float lr) { learning_rate_ = lr; }

  /// The optimized parameters.
  const std::vector<Tensor>& params() const { return params_; }

 protected:
  /// True when `slot` has one vector per parameter with matching sizes;
  /// logs and returns false otherwise (ImportState validation helper).
  bool SlotMatchesParams(const std::string& name,
                         const std::vector<std::vector<float>>& slot) const;

  std::vector<Tensor> params_;
  float learning_rate_;
};

/// Scales all gradients so their global L2 norm is at most `max_norm`.
/// Returns the norm before clipping.
float ClipGradNorm(const std::vector<Tensor>& params, float max_norm);

}  // namespace d2stgnn::optim

#endif  // D2STGNN_OPTIM_OPTIMIZER_H_
