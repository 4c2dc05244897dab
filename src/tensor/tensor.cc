#include "tensor/tensor.h"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <unordered_set>

#include "common/check.h"
#include "common/logging.h"
#include "tensor/buffer_arena.h"
#include "tensor/checker.h"

namespace d2stgnn {

namespace internal {
namespace {
std::atomic<int64_t> g_live_gradfn{0};
}  // namespace

GradFn::GradFn() { g_live_gradfn.fetch_add(1, std::memory_order_relaxed); }

GradFn::~GradFn() { g_live_gradfn.fetch_sub(1, std::memory_order_relaxed); }

int64_t LiveGradFnCount() {
  return g_live_gradfn.load(std::memory_order_relaxed);
}

TensorImpl::~TensorImpl() {
  if (arena != nullptr) arena->Release(std::move(data));
}

}  // namespace internal

int64_t NumElements(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    D2_CHECK_GE(d, 0) << "negative dimension in " << ShapeToString(shape);
    n *= d;
  }
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

std::vector<int64_t> RowMajorStrides(const Shape& shape) {
  std::vector<int64_t> strides(shape.size());
  int64_t stride = 1;
  for (int64_t i = static_cast<int64_t>(shape.size()) - 1; i >= 0; --i) {
    strides[static_cast<size_t>(i)] = stride;
    stride *= shape[static_cast<size_t>(i)];
  }
  return strides;
}

Tensor::Tensor() = default;

Tensor::Tensor(const Shape& shape) : Tensor(shape, 0.0f) {}

Tensor::Tensor(const Shape& shape, float value) {
  impl_ = std::make_shared<internal::TensorImpl>();
  impl_->shape = shape;
  const int64_t n = NumElements(shape);
  const std::shared_ptr<BufferArena>& arena = ArenaGuard::Active();
  if (arena != nullptr) {
    impl_->data = arena->Acquire(n);  // zero-filled
    arena->NoteAdopt(impl_->data.data());
    if (value != 0.0f) {
      std::fill(impl_->data.begin(), impl_->data.end(), value);
    }
    impl_->arena = arena;
  } else {
    impl_->data.assign(static_cast<size_t>(n), value);
  }
}

Tensor::Tensor(const Shape& shape, std::vector<float> data) {
  D2_CHECK_EQ(NumElements(shape), static_cast<int64_t>(data.size()))
      << "data size does not match shape " << ShapeToString(shape);
  impl_ = std::make_shared<internal::TensorImpl>();
  impl_->shape = shape;
  const std::shared_ptr<BufferArena>& arena = ArenaGuard::Active();
  if (arena != nullptr) {
    arena->NoteAdopt(data.data());
    impl_->arena = arena;
  }
  impl_->data = std::move(data);
}

Tensor Tensor::Zeros(const Shape& shape) { return Tensor(shape, 0.0f); }

Tensor Tensor::Ones(const Shape& shape) { return Tensor(shape, 1.0f); }

Tensor Tensor::Full(const Shape& shape, float value) {
  return Tensor(shape, value);
}

Tensor Tensor::Scalar(float value) { return Tensor(Shape{}, value); }

Tensor Tensor::Randn(const Shape& shape, Rng& rng, float mean, float stddev) {
  return Tensor(shape, rng.NormalVector(NumElements(shape), mean, stddev));
}

Tensor Tensor::Rand(const Shape& shape, Rng& rng, float lo, float hi) {
  return Tensor(shape, rng.UniformVector(NumElements(shape), lo, hi));
}

Tensor Tensor::Eye(int64_t n) {
  Tensor t({n, n}, 0.0f);
  for (int64_t i = 0; i < n; ++i) t.Data()[static_cast<size_t>(i * n + i)] = 1.0f;
  return t;
}

const Shape& Tensor::shape() const {
  D2_CHECK(defined());
  return impl_->shape;
}

int64_t Tensor::dim() const { return static_cast<int64_t>(shape().size()); }

int64_t Tensor::size(int64_t d) const {
  const int64_t rank = dim();
  if (d < 0) d += rank;
  D2_CHECK_GE(d, 0);
  D2_CHECK_LT(d, rank);
  return shape()[static_cast<size_t>(d)];
}

int64_t Tensor::numel() const {
  D2_CHECK(defined());
  return static_cast<int64_t>(impl_->data.size());
}

std::vector<float>& Tensor::Data() {
  D2_CHECK(defined());
  return impl_->data;
}

const std::vector<float>& Tensor::Data() const {
  D2_CHECK(defined());
  return impl_->data;
}

float Tensor::At(int64_t flat_index) const {
  D2_CHECK(defined());
  D2_CHECK_GE(flat_index, 0);
  D2_CHECK_LT(flat_index, numel());
  return impl_->data[static_cast<size_t>(flat_index)];
}

float Tensor::At(const std::vector<int64_t>& index) const {
  D2_CHECK(defined());
  D2_CHECK_EQ(static_cast<int64_t>(index.size()), dim());
  const std::vector<int64_t> strides = RowMajorStrides(impl_->shape);
  int64_t flat = 0;
  for (size_t i = 0; i < index.size(); ++i) {
    D2_CHECK_GE(index[i], 0);
    D2_CHECK_LT(index[i], impl_->shape[i]);
    flat += index[i] * strides[i];
  }
  return impl_->data[static_cast<size_t>(flat)];
}

float Tensor::Item() const {
  D2_CHECK(defined());
  D2_CHECK_EQ(numel(), 1) << "Item() requires a single-element tensor, got "
                          << ShapeToString(shape());
  return impl_->data[0];
}

Tensor& Tensor::SetRequiresGrad(bool requires_grad) {
  D2_CHECK(defined());
  impl_->requires_grad = requires_grad;
  return *this;
}

bool Tensor::RequiresGrad() const {
  D2_CHECK(defined());
  return impl_->requires_grad || impl_->grad_fn != nullptr;
}

Tensor Tensor::Grad() const {
  D2_CHECK(defined());
  if (impl_->grad.empty()) return Tensor::Zeros(impl_->shape);
  return Tensor(impl_->shape, impl_->grad);
}

const std::vector<float>& Tensor::GradData() const {
  D2_CHECK(defined());
  return impl_->grad;
}

void Tensor::ZeroGrad() const {
  D2_CHECK(defined());
  impl_->grad.clear();
}

Tensor Tensor::Detach() const {
  D2_CHECK(defined());
  auto impl = std::make_shared<internal::TensorImpl>();
  impl->shape = impl_->shape;
  const std::shared_ptr<BufferArena>& arena = ArenaGuard::Active();
  if (arena != nullptr) {
    impl->data = arena->Acquire(static_cast<int64_t>(impl_->data.size()));
    arena->NoteAdopt(impl->data.data());
    std::copy(impl_->data.begin(), impl_->data.end(), impl->data.begin());
    impl->arena = arena;
  } else {
    impl->data = impl_->data;  // copy; safe and simple at this project's sizes
  }
  return FromImpl(std::move(impl));
}

Tensor Tensor::Clone() const { return Detach(); }

namespace {

// Depth-first post-order over the autograd graph (iterative to support deep
// tapes, e.g., long GRU roll-outs).
void TopologicalOrder(const std::shared_ptr<internal::TensorImpl>& root,
                      std::vector<std::shared_ptr<internal::TensorImpl>>* order) {
  std::unordered_set<internal::TensorImpl*> visited;
  struct Frame {
    std::shared_ptr<internal::TensorImpl> node;
    size_t next_child = 0;
  };
  std::vector<Frame> stack;
  if (root->grad_fn == nullptr) return;
  visited.insert(root.get());
  stack.push_back({root});
  while (!stack.empty()) {
    Frame& frame = stack.back();
    internal::GradFn* fn = frame.node->grad_fn.get();
    const size_t num_children = fn != nullptr ? fn->inputs.size() : 0;
    if (frame.next_child < num_children) {
      const auto& child = fn->inputs[frame.next_child++].impl();
      if (child != nullptr && child->grad_fn != nullptr &&
          visited.insert(child.get()).second) {
        stack.push_back({child});
      }
    } else {
      order->push_back(frame.node);
      stack.pop_back();
    }
  }
}

}  // namespace

void Tensor::Backward() const {
  D2_CHECK(defined());
  D2_CHECK_EQ(numel(), 1) << "Backward() requires a scalar loss";
  if (++impl_->backward_runs > 1 && CheckNumericsEnabled()) {
    D2_LOG(WARNING) << "Backward() called " << impl_->backward_runs
                    << " times on the same tape root; gradients accumulate "
                       "once per run";
  }
  // Seed dLoss/dLoss = 1.
  impl_->grad.assign(impl_->data.size(), 0.0f);
  impl_->grad[0] = 1.0f;

  std::vector<std::shared_ptr<internal::TensorImpl>> order;
  TopologicalOrder(impl_, &order);
  // Post-order lists children before parents; walk parents first.
  const bool check_numerics = CheckNumericsEnabled();
  NoGradGuard no_grad;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::shared_ptr<internal::TensorImpl>& node = *it;
    if (node->grad.empty()) {
      // No gradient flowed to this interior node (e.g., unused output).
      continue;
    }
    node->grad_fn->backward(Tensor::FromImpl(node));
    if (check_numerics) CheckBackwardInputs(*node->grad_fn);
  }
}

std::string Tensor::ToString() const {
  if (!defined()) return "Tensor(undefined)";
  std::ostringstream os;
  os << "Tensor" << ShapeToString(impl_->shape) << " = {";
  const int64_t limit = std::min<int64_t>(numel(), 8);
  for (int64_t i = 0; i < limit; ++i) {
    if (i > 0) os << ", ";
    os << impl_->data[static_cast<size_t>(i)];
  }
  if (numel() > limit) os << ", ...";
  os << "}";
  return os.str();
}

Tensor Tensor::FromImpl(std::shared_ptr<internal::TensorImpl> impl) {
  Tensor t;
  t.impl_ = std::move(impl);
  return t;
}

namespace {
thread_local bool g_no_grad_active = false;
}  // namespace

NoGradGuard::NoGradGuard() : previous_(g_no_grad_active) {
  g_no_grad_active = true;
}

NoGradGuard::~NoGradGuard() { g_no_grad_active = previous_; }

bool NoGradGuard::Active() { return g_no_grad_active; }

namespace {

// The gradient `target` accumulates a delta of `delta_size` elements into.
// Before the first write it checks that no arena is active on the thread.
std::vector<float>& GradFor(const Tensor& target, size_t delta_size) {
  D2_CHECK(target.defined());
  internal::TensorImpl& impl = *target.impl();
  D2_CHECK_EQ(delta_size, impl.data.size())
      << "grad of " << delta_size << " elements does not match tensor shape "
      << ShapeToString(impl.shape);
  if (impl.grad.empty()) {
    D2_CHECK(ArenaGuard::Active() == nullptr)
        << "gradient written under an ArenaGuard: Backward() must not run in "
           "an inference scope";
  }
  return impl.grad;
}

void AddInto(std::vector<float>& grad, const std::vector<float>& delta) {
  float* dst = grad.data();
  const float* src = delta.data();
  for (size_t i = 0; i < grad.size(); ++i) dst[i] += src[i];
}

}  // namespace

void AccumulateGrad(const Tensor& target, std::vector<float>&& delta) {
  std::vector<float>& grad = GradFor(target, delta.size());
  if (grad.empty()) {
    grad = std::move(delta);
  } else {
    AddInto(grad, delta);
  }
}

void AccumulateGrad(const Tensor& target, const std::vector<float>& delta) {
  std::vector<float>& grad = GradFor(target, delta.size());
  if (grad.empty()) {
    grad = delta;
  } else {
    AddInto(grad, delta);
  }
}

float* GradAccumulator(const Tensor& target) {
  const size_t n = static_cast<size_t>(target.numel());
  std::vector<float>& grad = GradFor(target, n);
  if (grad.empty()) grad.assign(n, 0.0f);
  return grad.data();
}

}  // namespace d2stgnn
