#ifndef D2STGNN_TENSOR_AUTOGRAD_H_
#define D2STGNN_TENSOR_AUTOGRAD_H_

#include <functional>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace d2stgnn {

/// Builds the result tensor of an op and, when tape recording is enabled and
/// any input requires grad, attaches a GradFn node holding `backward`.
///
/// `backward` receives the output tensor (whose grad buffer is populated)
/// and must AccumulateGrad into each input that requires grad (or, for a
/// kernel that accumulates in place, write through GradAccumulator). It runs
/// under a NoGradGuard, so it may freely use the public ops.
Tensor MakeOpResult(const std::string& name, const Shape& shape,
                    std::vector<float> data, std::vector<Tensor> inputs,
                    std::function<void(const Tensor&)> backward);

/// True if gradients can flow to any of `inputs`.
bool AnyRequiresGrad(const std::vector<Tensor>& inputs);

}  // namespace d2stgnn

#endif  // D2STGNN_TENSOR_AUTOGRAD_H_
