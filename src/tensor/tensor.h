#ifndef D2STGNN_TENSOR_TENSOR_H_
#define D2STGNN_TENSOR_TENSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"

namespace d2stgnn {

/// Dimension sizes of a tensor, outermost first. Row-major layout.
using Shape = std::vector<int64_t>;

/// Returns the number of elements implied by `shape` (1 for a scalar shape).
int64_t NumElements(const Shape& shape);

/// Renders a shape as "[2, 3, 4]".
std::string ShapeToString(const Shape& shape);

/// Returns row-major strides for `shape`.
std::vector<int64_t> RowMajorStrides(const Shape& shape);

class BufferArena;  // tensor/buffer_arena.h

namespace internal {
struct TensorImpl;
struct GradFn;
}  // namespace internal

/// A dense float32 tensor with reverse-mode automatic differentiation.
///
/// Tensor is a cheap, value-semantic handle (shared_ptr to its
/// implementation): copies alias the same storage and autograd node. Ops in
/// tensor/ops.h build a dynamic tape; calling Backward() on a scalar result
/// accumulates gradients into every reachable tensor that requires them.
///
/// Example:
///   Tensor w = Tensor::Randn({3, 3}, rng).SetRequiresGrad(true);
///   Tensor loss = Sum(MatMul(x, w));
///   loss.Backward();
///   // w.GradData() now holds dLoss/dw.
class Tensor {
 public:
  /// Creates a null tensor (no storage). defined() is false.
  Tensor();

  /// Creates a zero-filled tensor of the given shape.
  explicit Tensor(const Shape& shape);

  /// Creates a tensor of the given shape filled with `value`.
  Tensor(const Shape& shape, float value);

  /// Creates a tensor from explicit data (size must match shape).
  Tensor(const Shape& shape, std::vector<float> data);

  /// Factory: zero-filled tensor.
  static Tensor Zeros(const Shape& shape);

  /// Factory: one-filled tensor.
  static Tensor Ones(const Shape& shape);

  /// Factory: filled with `value`.
  static Tensor Full(const Shape& shape, float value);

  /// Factory: scalar (0-dimensional) tensor.
  static Tensor Scalar(float value);

  /// Factory: i.i.d. standard-normal entries drawn from `rng`.
  static Tensor Randn(const Shape& shape, Rng& rng, float mean = 0.0f,
                      float stddev = 1.0f);

  /// Factory: i.i.d. uniform entries in [lo, hi) drawn from `rng`.
  static Tensor Rand(const Shape& shape, Rng& rng, float lo = 0.0f,
                     float hi = 1.0f);

  /// Factory: identity matrix of size n x n.
  static Tensor Eye(int64_t n);

  /// True if this handle points at storage.
  bool defined() const { return impl_ != nullptr; }

  /// The tensor's shape. Requires defined().
  const Shape& shape() const;

  /// Number of dimensions.
  int64_t dim() const;

  /// Size of dimension `d`; negative d counts from the end.
  int64_t size(int64_t d) const;

  /// Total number of elements.
  int64_t numel() const;

  /// Mutable flat storage (row-major). Mutating data of a tensor that is
  /// already part of a tape invalidates gradients; do it only on leaves.
  std::vector<float>& Data();

  /// Immutable flat storage (row-major).
  const std::vector<float>& Data() const;

  /// Element access by flat index.
  float At(int64_t flat_index) const;

  /// Element access by multi-dimensional index.
  float At(const std::vector<int64_t>& index) const;

  /// Value of a scalar (1-element) tensor.
  float Item() const;

  /// Marks (or unmarks) this tensor as a gradient leaf. Returns *this for
  /// chaining.
  Tensor& SetRequiresGrad(bool requires_grad);

  /// True if gradients should flow to this tensor (leaf flag or interior
  /// node of a tape).
  bool RequiresGrad() const;

  /// The accumulated gradient, as a tensor of the same shape. Zeros if
  /// Backward has not reached this tensor. Requires defined().
  Tensor Grad() const;

  /// Immutable view of the gradient buffer (empty if never touched).
  const std::vector<float>& GradData() const;

  /// Clears the accumulated gradient of this tensor. (Const because a
  /// Tensor is a shared handle; the underlying buffer is mutable state.)
  void ZeroGrad() const;

  /// Returns a tensor sharing this tensor's storage but detached from the
  /// autograd tape (no grad_fn, requires_grad false).
  Tensor Detach() const;

  /// Returns a deep copy of the data (detached leaf).
  Tensor Clone() const;

  /// Runs reverse-mode differentiation from this scalar tensor, accumulating
  /// into the .Grad() of every reachable tensor that requires grad.
  void Backward() const;

  /// Human-readable summary ("Tensor[2, 3] = {...}" truncated).
  std::string ToString() const;

  /// Internal: implementation pointer (stable identity for autograd).
  const std::shared_ptr<internal::TensorImpl>& impl() const { return impl_; }

  /// Internal: wraps an implementation pointer.
  static Tensor FromImpl(std::shared_ptr<internal::TensorImpl> impl);

 private:
  std::shared_ptr<internal::TensorImpl> impl_;
};

namespace internal {

/// One node of the autograd tape: the op that produced a tensor, the inputs
/// it captured, and the function that maps the output gradient to input
/// gradients.
struct GradFn {
  GradFn();
  ~GradFn();
  GradFn(const GradFn&) = delete;
  GradFn& operator=(const GradFn&) = delete;

  /// Op name for debugging ("MatMul", "Add", ...).
  std::string name;
  /// The op's inputs (kept alive for the backward pass).
  std::vector<Tensor> inputs;
  /// Accumulates gradients into `inputs` given the produced tensor (whose
  /// grad buffer holds dLoss/dOutput when called).
  std::function<void(const Tensor& output)> backward;
};

/// Number of GradFn nodes currently alive in the process. The tape analyzer
/// uses this to spot nodes that leak past the end of a training step.
int64_t LiveGradFnCount();

/// Storage + autograd metadata behind a Tensor handle.
struct TensorImpl {
  TensorImpl() = default;
  /// Returns `data` to `arena` when the tensor was created under an
  /// ArenaGuard (see tensor/buffer_arena.h).
  ~TensorImpl();
  TensorImpl(const TensorImpl&) = delete;
  TensorImpl& operator=(const TensorImpl&) = delete;

  Shape shape;
  std::vector<float> data;
  std::vector<float> grad;  // empty until first accumulation
  bool requires_grad = false;
  std::shared_ptr<GradFn> grad_fn;  // null for leaves
  /// The pool `data` is recycled into on destruction (null = plain heap
  /// buffer). Keeps the arena alive as long as any of its tensors is.
  std::shared_ptr<BufferArena> arena;
  /// Times Backward() was invoked with this tensor as the root. A second
  /// run re-accumulates every gradient (usually a bug); the tape analyzer
  /// flags it.
  int32_t backward_runs = 0;
};

}  // namespace internal

/// While alive on a thread, ops do not record autograd tape nodes (used
/// inside backward implementations and inference paths).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

  /// True if tape recording is currently disabled on this thread.
  static bool Active();

 private:
  bool previous_;
};

/// Gradient accumulation, used by op backward implementations. The first
/// write to `target`'s gradient adopts the delta: an owned buffer (an
/// rvalue) is moved in, a borrowed one is copied. Later writes add the delta
/// elementwise. The delta must have one element per element of `target`.
///
/// Backward never runs under an ArenaGuard (only inference runs under one,
/// and it records no tape), so an arena buffer can never become a gradient;
/// the first write to a gradient checks this.
void AccumulateGrad(const Tensor& target, std::vector<float>&& delta);
void AccumulateGrad(const Tensor& target, const std::vector<float>& delta);

/// The gradient buffer of `target` for kernels that accumulate into it in
/// place (MatMul's backward): zero-filled on first touch, under the same
/// no-arena check as AccumulateGrad.
float* GradAccumulator(const Tensor& target);

}  // namespace d2stgnn

#endif  // D2STGNN_TENSOR_TENSOR_H_
