#ifndef D2STGNN_NN_MODULE_H_
#define D2STGNN_NN_MODULE_H_

#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace d2stgnn::nn {

/// Base class for neural-network building blocks.
///
/// A Module owns learnable parameters (registered in the constructor via
/// RegisterParameter) and may contain child modules (registered via
/// RegisterChild; children are plain members of the subclass, the registry
/// only borrows pointers). Parameters() flattens the tree so optimizers can
/// iterate every learnable tensor.
///
/// Modules are neither copyable nor movable: registered child pointers refer
/// to member objects, so the address of a module must be stable.
class Module {
 public:
  virtual ~Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Debug name given at construction.
  const std::string& name() const { return name_; }

  /// All parameters of this module and its descendants.
  std::vector<Tensor> Parameters() const;

  /// Parameters paired with hierarchical names ("gru/W_z").
  std::vector<std::pair<std::string, Tensor>> NamedParameters() const;

  /// Total number of learnable scalars.
  int64_t ParameterCount() const;

  /// Clears the gradients of every parameter in the tree.
  void ZeroGrad();

  /// Switches training mode for the whole tree.
  void SetTraining(bool training);

  /// True while in training mode (the default).
  bool training() const { return training_; }

 protected:
  explicit Module(std::string name) : name_(std::move(name)) {}

  /// Registers a learnable tensor; marks it requires-grad and returns it.
  Tensor RegisterParameter(const std::string& name, Tensor tensor);

  /// Registers a child module (non-owning; `child` must outlive this).
  void RegisterChild(Module* child);

 private:
  std::string name_;
  std::vector<std::pair<std::string, Tensor>> parameters_;
  std::vector<Module*> children_;
  bool training_ = true;
};

}  // namespace d2stgnn::nn

#endif  // D2STGNN_NN_MODULE_H_
