#include "tensor/ops.h"

#include <algorithm>
#include <array>
#include <memory>
#include <utility>

#include "common/check.h"
#include "exec/graph_capture.h"
#include "tensor/autograd.h"
#include "tensor/buffer_arena.h"
#include "tensor/kernels.h"
#include "tensor/kernels/registry.h"

// ops.cc is the dispatch layer of the tensor engine: it validates shapes,
// wires autograd tape nodes, and routes every compute loop to the kernel
// layer in tensor/kernels.h (which parallelizes over the shared thread pool
// and hands serial chunks to the active KernelBackend).
//
// Each op states its forward once, as a shape-specialized closure over
// exec::StepIo that holds every static attribute the op resolved (strides,
// matmul offsets, reduce extents). Dispatch() runs that closure on the eager
// buffers and, when an exec::GraphCapture is active on the thread, records
// the same closure as the plan step, so eager and replayed forwards run the
// same code (DESIGN.md §10). Capture is a single thread-local pointer test
// on the off path.
//
// Each closure binds the backend active at dispatch time, so a plan always
// replays on the backend it was captured under (the executor separately
// rejects cross-backend replay — ReplayStatus::kBackendMismatch).

namespace d2stgnn {
namespace {

// Runs one op: acquires the output buffer, runs the forward closure `run` on
// the eager buffers (StepIo::inputs in `inputs` order, StepIo::indices =
// `indices`), wraps the result with `backward`, and records `run` as the
// plan step when capture is active. `zero_output` marks kernels that
// accumulate into their output: AcquireBuffer zero-fills the eager buffer
// and the executor clears the plan slot.
template <typename Run>
Tensor Dispatch(const char* name, const Shape& shape,
                std::vector<Tensor> inputs, Run run,
                std::function<void(const Tensor&)> backward,
                bool zero_output = false,
                const std::vector<int64_t>* indices = nullptr) {
  std::vector<float> out = internal::AcquireBuffer(NumElements(shape));
  // Fixed-arity ops keep their input pointers on the stack; only a Concat
  // of more than two tensors spills to the heap.
  std::array<const float*, 2> stack_ptrs{};
  std::vector<const float*> heap_ptrs;
  const float** ptrs = stack_ptrs.data();
  if (inputs.size() > stack_ptrs.size()) {
    heap_ptrs.resize(inputs.size());
    ptrs = heap_ptrs.data();
  }
  for (size_t i = 0; i < inputs.size(); ++i) ptrs[i] = inputs[i].Data().data();
  run(exec::StepIo{ptrs, out.data(), indices});

  const bool capture = exec::internal::CaptureActive();
  std::vector<Tensor> recorded_inputs;
  if (capture) recorded_inputs = inputs;
  Tensor result = MakeOpResult(name, shape, std::move(out), std::move(inputs),
                               std::move(backward));
  if (capture) {
    exec::internal::RecordStep(name, recorded_inputs, result,
                               std::move(run), zero_output, indices);
  }
  return result;
}

// Elementwise binary op with broadcasting. `kind` selects the backend-table
// forward; `backward` receives (output, a, b) and must accumulate into a
// and b.
Tensor BinaryOp(const char* name, kernels::BinaryKind kind, const Tensor& a,
                const Tensor& b,
                std::function<void(const Tensor&, const Tensor&,
                                   const Tensor&)> backward) {
  D2_CHECK(a.defined());
  D2_CHECK(b.defined());
  const kernels::KernelBackend* backend = &kernels::ActiveBackend();
  const Shape out_shape = BroadcastShapes(a.shape(), b.shape());
  auto grad = [a, b, backward](const Tensor& output) {
    backward(output, a, b);
  };
  if (a.shape() == b.shape()) {
    const int64_t n = NumElements(out_shape);
    return Dispatch(
        name, out_shape, {a, b},
        [backend, kind, n](const exec::StepIo& io) {
          kernels::EwiseBinary(*backend, kind, io.inputs[0], io.inputs[1],
                               io.output, n);
        },
        std::move(grad));
  }
  return Dispatch(
      name, out_shape, {a, b},
      [backend, kind, out_shape,
       as = kernels::BroadcastStrides(a.shape(), out_shape),
       bs = kernels::BroadcastStrides(b.shape(), out_shape)](
          const exec::StepIo& io) {
        kernels::EwiseBinaryBroadcast(*backend, kind, out_shape, as, bs,
                                      io.inputs[0], io.inputs[1], io.output);
      },
      std::move(grad));
}

// Elementwise unary op. `kind`/`params` select the backend-table forward;
// `dfn(x, y, g)` returns dLoss/dx given input value x, output value y, and
// output gradient g.
template <typename Dfn>
Tensor UnaryOp(const char* name, kernels::UnaryKind kind,
               kernels::UnaryParams params, const Tensor& a, Dfn dfn) {
  D2_CHECK(a.defined());
  const kernels::KernelBackend* backend = &kernels::ActiveBackend();
  const int64_t n = a.numel();
  return Dispatch(
      name, a.shape(), {a},
      [backend, kind, params, n](const exec::StepIo& io) {
        kernels::EwiseUnary(*backend, kind, params, io.inputs[0], io.output,
                            n);
      },
      [a, dfn](const Tensor& output) {
        if (!a.RequiresGrad()) return;
        const std::vector<float>& g = output.GradData();
        const std::vector<float>& x = a.Data();
        const std::vector<float>& y = output.Data();
        std::vector<float> ga =
            internal::AcquireBuffer(static_cast<int64_t>(g.size()));
        kernels::EwiseUnaryGrad(x.data(), y.data(), g.data(), ga.data(),
                                static_cast<int64_t>(g.size()), dfn);
        AccumulateGrad(a, std::move(ga));
      });
}

int64_t NormalizeDim(int64_t dim, int64_t rank) {
  if (dim < 0) dim += rank;
  D2_CHECK_GE(dim, 0);
  D2_CHECK_LT(dim, rank);
  return dim;
}

// Splits a shape around dimension `dim` into (outer, size, inner) extents.
void SplitAtDim(const Shape& shape, int64_t dim, int64_t* outer, int64_t* size,
                int64_t* inner) {
  *outer = 1;
  *inner = 1;
  for (int64_t d = 0; d < dim; ++d) *outer *= shape[static_cast<size_t>(d)];
  *size = shape[static_cast<size_t>(dim)];
  for (size_t d = static_cast<size_t>(dim) + 1; d < shape.size(); ++d) {
    *inner *= shape[d];
  }
}

// The gradient `g` of an output of shape `from`, summed over the dimensions
// along which a tensor of shape `to` broadcast to it, into a fresh buffer.
// Runs the ReduceSumDim sequence of ReduceToShape's Sum ops (extra leading
// dimensions one at a time, then each kept unit dimension in order), so the
// sums are bitwise those of the op form. `from` must differ from `to`.
std::vector<float> SumGradToShape(const float* g, Shape from,
                                  const Shape& to) {
  const kernels::KernelBackend& backend = kernels::ActiveBackend();
  std::vector<float> sum;
  auto reduce = [&](int64_t dim) {
    int64_t outer, size, inner;
    SplitAtDim(from, dim, &outer, &size, &inner);
    std::vector<float> next = internal::AcquireBuffer(outer * inner);
    kernels::ReduceSumDim(backend, g, next.data(), outer, size, inner);
    sum = std::move(next);
    g = sum.data();
  };
  D2_CHECK_GE(from.size(), to.size());
  while (from.size() > to.size()) {
    reduce(0);
    from.erase(from.begin());
  }
  for (size_t d = 0; d < to.size(); ++d) {
    if (to[d] == 1 && from[d] != 1) {
      reduce(static_cast<int64_t>(d));
      from[d] = 1;
    } else {
      D2_CHECK_EQ(to[d], from[d]) << "cannot reduce a gradient to "
                                  << ShapeToString(to);
    }
  }
  return sum;
}

// Hands the gradient `g` of an output of shape `from` to `x`: as is when x
// has that shape (copied on first touch when borrowed, moved when owned),
// else summed down to x's shape into a buffer x adopts.
template <typename Grad>
void AccumulateUnbroadcast(const Tensor& x, Grad&& g, const Shape& from) {
  if (x.shape() == from) {
    AccumulateGrad(x, std::forward<Grad>(g));
  } else {
    AccumulateGrad(x, SumGradToShape(g.data(), from, x.shape()));
  }
}

// kind(a, b) over buffers of shapes `as` and `bs` into `out`, of their
// broadcast shape `shape`: the kernel BinaryOp's forward runs for those
// shapes, so the bits match the op form.
void BinaryKernel(kernels::BinaryKind kind, const float* a, const Shape& as,
                  const float* b, const Shape& bs, const Shape& shape,
                  float* out) {
  const kernels::KernelBackend& backend = kernels::ActiveBackend();
  if (as == bs) {
    kernels::EwiseBinary(backend, kind, a, b, out, NumElements(shape));
  } else {
    kernels::EwiseBinaryBroadcast(backend, kind, shape,
                                  kernels::BroadcastStrides(as, shape),
                                  kernels::BroadcastStrides(bs, shape), a, b,
                                  out);
  }
}

// g * x for the gradient `g` of an output of shape `out` and an operand x
// that broadcasts to it: the kernels the op form Mul(g, x) runs, so the bits
// match it.
std::vector<float> MulGrad(const std::vector<float>& g, const Shape& out,
                           const Tensor& x) {
  std::vector<float> r = internal::AcquireBuffer(NumElements(out));
  BinaryKernel(kernels::BinaryKind::kMul, g.data(), out, x.Data().data(),
               x.shape(), out, r.data());
  return r;
}

}  // namespace

Shape BroadcastShapes(const Shape& a, const Shape& b) {
  const size_t rank = std::max(a.size(), b.size());
  const Shape aa = kernels::AlignShape(a, rank);
  const Shape bb = kernels::AlignShape(b, rank);
  Shape out(rank);
  for (size_t d = 0; d < rank; ++d) {
    if (aa[d] == bb[d]) {
      out[d] = aa[d];
    } else if (aa[d] == 1) {
      out[d] = bb[d];
    } else if (bb[d] == 1) {
      out[d] = aa[d];
    } else {
      D2_CHECK(false) << "incompatible shapes for broadcast: "
                      << ShapeToString(a) << " vs " << ShapeToString(b);
    }
  }
  return out;
}

Tensor ReduceToShape(const Tensor& t, const Shape& target) {
  D2_CHECK(t.defined());
  if (t.shape() == target) return t;
  Tensor r = t;
  const int64_t extra = r.dim() - static_cast<int64_t>(target.size());
  D2_CHECK_GE(extra, 0) << "cannot reduce " << ShapeToString(t.shape())
                        << " to larger-rank " << ShapeToString(target);
  for (int64_t i = 0; i < extra; ++i) r = Sum(r, 0, /*keepdim=*/false);
  for (size_t d = 0; d < target.size(); ++d) {
    if (target[d] == 1 && r.size(static_cast<int64_t>(d)) != 1) {
      r = Sum(r, static_cast<int64_t>(d), /*keepdim=*/true);
    } else {
      D2_CHECK_EQ(target[d], r.size(static_cast<int64_t>(d)))
          << "cannot reduce " << ShapeToString(t.shape()) << " to "
          << ShapeToString(target);
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Binary ops.

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "Add", kernels::BinaryKind::kAdd, a, b,
      [](const Tensor& out, const Tensor& a, const Tensor& b) {
        const std::vector<float>& g = out.GradData();
        if (a.RequiresGrad()) AccumulateUnbroadcast(a, g, out.shape());
        if (b.RequiresGrad()) AccumulateUnbroadcast(b, g, out.shape());
      });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "Sub", kernels::BinaryKind::kSub, a, b,
      [](const Tensor& out, const Tensor& a, const Tensor& b) {
        const std::vector<float>& g = out.GradData();
        if (a.RequiresGrad()) AccumulateUnbroadcast(a, g, out.shape());
        if (b.RequiresGrad()) {
          // -g as MulScalar(g, -1) computes it.
          const int64_t n = static_cast<int64_t>(g.size());
          std::vector<float> neg = internal::AcquireBuffer(n);
          kernels::EwiseUnary(kernels::ActiveBackend(),
                              kernels::UnaryKind::kMulScalar, {-1.0f},
                              g.data(), neg.data(), n);
          AccumulateUnbroadcast(b, std::move(neg), out.shape());
        }
      });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "Mul", kernels::BinaryKind::kMul, a, b,
      [](const Tensor& out, const Tensor& a, const Tensor& b) {
        const std::vector<float>& g = out.GradData();
        const Shape& shape = out.shape();
        if (a.RequiresGrad()) {
          AccumulateUnbroadcast(a, MulGrad(g, shape, b), shape);
        }
        if (b.RequiresGrad()) {
          AccumulateUnbroadcast(b, MulGrad(g, shape, a), shape);
        }
      });
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp("AddScalar", kernels::UnaryKind::kAddScalar, {s}, a,
                 [](float, float, float g) { return g; });
}

Tensor MulScalar(const Tensor& a, float s) {
  return UnaryOp("MulScalar", kernels::UnaryKind::kMulScalar, {s}, a,
                 [s](float, float, float g) { return g * s; });
}

Tensor operator+(const Tensor& a, const Tensor& b) { return Add(a, b); }
Tensor operator-(const Tensor& a, const Tensor& b) { return Sub(a, b); }
Tensor operator*(const Tensor& a, const Tensor& b) { return Mul(a, b); }
Tensor operator+(const Tensor& a, float s) { return AddScalar(a, s); }
Tensor operator-(const Tensor& a, float s) { return AddScalar(a, -s); }
Tensor operator*(const Tensor& a, float s) { return MulScalar(a, s); }
Tensor operator/(const Tensor& a, float s) { return MulScalar(a, 1.0f / s); }
Tensor operator+(float s, const Tensor& a) { return AddScalar(a, s); }
Tensor operator-(float s, const Tensor& a) {
  return AddScalar(MulScalar(a, -1.0f), s);
}
Tensor operator*(float s, const Tensor& a) { return MulScalar(a, s); }

// ---------------------------------------------------------------------------
// Unary ops.

Tensor Relu(const Tensor& a) {
  return UnaryOp(
      "Relu", kernels::UnaryKind::kRelu, {}, a,
      [](float x, float, float g) { return x > 0.0f ? g : 0.0f; });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(
      "Sigmoid", kernels::UnaryKind::kSigmoid, {}, a,
      [](float, float y, float g) { return g * y * (1.0f - y); });
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(
      "Tanh", kernels::UnaryKind::kTanh, {}, a,
      [](float, float y, float g) { return g * (1.0f - y * y); });
}

Tensor Abs(const Tensor& a) {
  return UnaryOp("Abs", kernels::UnaryKind::kAbs, {}, a,
                 [](float x, float, float g) {
                   return x > 0.0f ? g : (x < 0.0f ? -g : 0.0f);
                 });
}

// ---------------------------------------------------------------------------
// MatMul. One kernels::MatMulLayout (the batch offset table) is shared by
// the forward closure and the backward. A B shared by every batch of a
// dense A (every Linear, GRU gate, attention projection) flattens into one
// [batches*m, k] x [k, n] product; each row runs the same arithmetic as in
// the per-batch product, so forward and plan replay are bitwise unchanged.
// The backward calls no op: BatchedMatMulGradA/B add dA = G B^T and
// dB = A^T G straight into each operand's gradient buffer (zero-filled on
// its first touch, GradAccumulator), batches that share an operand matrix
// accumulating in ascending order. An operand with other consumers folds
// the products into the sum already there. For the flattened layout dB is
// one A^T G reduction over all batches*m rows. No backend skips zero
// entries of A, so 0 * Inf and 0 * NaN reach the output as NaN on every
// backend.

Tensor MatMul(const Tensor& a, const Tensor& b) {
  D2_CHECK(a.defined());
  D2_CHECK(b.defined());
  D2_CHECK_GE(a.dim(), 2) << "MatMul lhs must have rank >= 2";
  D2_CHECK_GE(b.dim(), 2) << "MatMul rhs must have rank >= 2";
  const int64_t m = a.size(-2);
  const int64_t k = a.size(-1);
  const int64_t k2 = b.size(-2);
  const int64_t n = b.size(-1);
  D2_CHECK_EQ(k, k2) << "MatMul inner dimensions mismatch: "
                     << ShapeToString(a.shape()) << " x "
                     << ShapeToString(b.shape());

  const Shape a_batch(a.shape().begin(), a.shape().end() - 2);
  const Shape b_batch(b.shape().begin(), b.shape().end() - 2);
  const Shape out_batch = BroadcastShapes(a_batch, b_batch);
  Shape out_shape = out_batch;
  out_shape.push_back(m);
  out_shape.push_back(n);

  // Resolve broadcast batch indexing up front so the kernels see a flat
  // list of matrix offsets they can parallelize over.
  kernels::MatMulLayout resolved;
  const int64_t batches = NumElements(out_batch);
  if (NumElements(b_batch) == 1 && NumElements(a_batch) == batches) {
    // One B shared by every batch of a dense A (every Linear): a single
    // [batches*m, k] x [k, n] product. Rows run the same arithmetic as the
    // per-batch products, so the forward is bitwise unchanged.
    resolved = {batches * m, k, n, 1, 1, {0, 0}};
  } else {
    resolved = {m, k, n, NumElements(a_batch), NumElements(b_batch),
                std::vector<int64_t>(static_cast<size_t>(2 * batches))};
    int64_t* a_offsets = resolved.offsets.data();
    int64_t* b_offsets = a_offsets + batches;
    kernels::ForEachBroadcastPair(
        out_batch, kernels::BroadcastStrides(a_batch, out_batch),
        kernels::BroadcastStrides(b_batch, out_batch),
        [&](int64_t batch, int64_t ao, int64_t bo) {
          a_offsets[batch] = ao * m * k;
          b_offsets[batch] = bo * k * n;
        });
  }
  auto layout =
      std::make_shared<const kernels::MatMulLayout>(std::move(resolved));
  const kernels::KernelBackend* backend = &kernels::ActiveBackend();
  // BatchedMatMul accumulates into its output (zero_output).
  return Dispatch(
      "MatMul", out_shape, {a, b},
      [backend, layout](const exec::StepIo& io) {
        kernels::BatchedMatMul(*backend, *layout, io.inputs[0], io.inputs[1],
                               io.output);
      },
      [a, b, layout](const Tensor& output) {
        const kernels::KernelBackend& grad_backend = kernels::ActiveBackend();
        const float* g = output.GradData().data();
        if (a.RequiresGrad()) {
          kernels::BatchedMatMulGradA(grad_backend, *layout, g,
                                      b.Data().data(), GradAccumulator(a));
        }
        if (b.RequiresGrad()) {
          kernels::BatchedMatMulGradB(grad_backend, *layout, a.Data().data(),
                                      g, GradAccumulator(b));
        }
      },
      /*zero_output=*/true);
}

// ---------------------------------------------------------------------------
// Reductions.

Tensor Sum(const Tensor& a) {
  D2_CHECK(a.defined());
  const kernels::KernelBackend* backend = &kernels::ActiveBackend();
  const int64_t n = a.numel();
  return Dispatch(
      "Sum", Shape{}, {a},
      [backend, n](const exec::StepIo& io) {
        io.output[0] = static_cast<float>(
            kernels::ReduceSumAll(*backend, io.inputs[0], n));
      },
      [a](const Tensor& output) {
        if (!a.RequiresGrad()) return;
        const float g = output.GradData()[0];
        AccumulateGrad(a,
                       std::vector<float>(static_cast<size_t>(a.numel()), g));
      });
}

Tensor Mean(const Tensor& a) {
  D2_CHECK(a.defined());
  D2_CHECK_GT(a.numel(), 0);
  return MulScalar(Sum(a), 1.0f / static_cast<float>(a.numel()));
}

Tensor Sum(const Tensor& a, int64_t dim, bool keepdim) {
  D2_CHECK(a.defined());
  dim = NormalizeDim(dim, a.dim());
  int64_t outer, size, inner;
  SplitAtDim(a.shape(), dim, &outer, &size, &inner);

  Shape out_shape = a.shape();
  if (keepdim) {
    out_shape[static_cast<size_t>(dim)] = 1;
  } else {
    out_shape.erase(out_shape.begin() + dim);
  }

  const kernels::KernelBackend* backend = &kernels::ActiveBackend();
  const Shape in_shape = a.shape();
  // The gradient broadcasts back along `dim`: a gather from the kept shape.
  Shape kept_shape = in_shape;
  kept_shape[static_cast<size_t>(dim)] = 1;
  return Dispatch(
      "SumDim", out_shape, {a},
      [backend, outer, size, inner](const exec::StepIo& io) {
        kernels::ReduceSumDim(*backend, io.inputs[0], io.output, outer, size,
                              inner);
      },
      [a, in_shape,
       strides = kernels::BroadcastStrides(kept_shape, in_shape)](
          const Tensor& output) {
        if (!a.RequiresGrad()) return;
        std::vector<float> grad = internal::AcquireBuffer(a.numel());
        kernels::GatherStrided(in_shape, strides, output.GradData().data(),
                               grad.data());
        AccumulateGrad(a, std::move(grad));
      });
}

Tensor Mean(const Tensor& a, int64_t dim, bool keepdim) {
  const int64_t d = NormalizeDim(dim, a.dim());
  const int64_t size = a.size(d);
  D2_CHECK_GT(size, 0);
  return MulScalar(Sum(a, d, keepdim), 1.0f / static_cast<float>(size));
}

Tensor Softmax(const Tensor& a, int64_t dim) {
  D2_CHECK(a.defined());
  const int64_t d = NormalizeDim(dim, a.dim());
  int64_t outer, size, inner;
  SplitAtDim(a.shape(), d, &outer, &size, &inner);
  D2_CHECK_GT(size, 0);

  const kernels::KernelBackend* backend = &kernels::ActiveBackend();
  return Dispatch(
      "Softmax", a.shape(), {a},
      [backend, outer, size, inner](const exec::StepIo& io) {
        kernels::SoftmaxKernel(*backend, io.inputs[0], io.output, outer, size,
                               inner);
      },
      [a, d, outer, size, inner](const Tensor& output) {
        if (!a.RequiresGrad()) return;
        // dx = y * (g - sum(g * y, dim)), with the kernels of the op form
        // Mul(y, Sub(g, Sum(Mul(g, y), dim, keepdim))).
        const kernels::KernelBackend& backend = kernels::ActiveBackend();
        const Shape& shape = a.shape();
        const int64_t n = NumElements(shape);
        const float* g = output.GradData().data();
        const float* y = output.Data().data();
        std::vector<float> dx = internal::AcquireBuffer(n);
        kernels::EwiseBinary(backend, kernels::BinaryKind::kMul, g, y,
                             dx.data(), n);
        Shape kept = shape;
        kept[static_cast<size_t>(d)] = 1;
        std::vector<float> dot = internal::AcquireBuffer(outer * inner);
        kernels::ReduceSumDim(backend, dx.data(), dot.data(), outer, size,
                              inner);
        BinaryKernel(kernels::BinaryKind::kSub, g, shape, dot.data(), kept,
                     shape, dx.data());
        kernels::EwiseBinary(backend, kernels::BinaryKind::kMul, y, dx.data(),
                             dx.data(), n);
        AccumulateGrad(a, std::move(dx));
      });
}

// ---------------------------------------------------------------------------
// Shape ops.

Tensor Reshape(const Tensor& a, const Shape& shape) {
  D2_CHECK(a.defined());
  Shape resolved = shape;
  int64_t known = 1;
  int64_t infer_at = -1;
  for (size_t d = 0; d < resolved.size(); ++d) {
    if (resolved[d] == -1) {
      D2_CHECK_EQ(infer_at, -1) << "at most one -1 in Reshape";
      infer_at = static_cast<int64_t>(d);
    } else {
      known *= resolved[d];
    }
  }
  if (infer_at >= 0) {
    D2_CHECK_GT(known, 0);
    D2_CHECK_EQ(a.numel() % known, 0)
        << "cannot infer dimension for " << ShapeToString(shape);
    resolved[static_cast<size_t>(infer_at)] = a.numel() / known;
  }
  D2_CHECK_EQ(NumElements(resolved), a.numel())
      << "Reshape to " << ShapeToString(shape) << " from "
      << ShapeToString(a.shape());

  const int64_t n = a.numel();
  return Dispatch(
      "Reshape", resolved, {a},
      [n](const exec::StepIo& io) {
        std::copy(io.inputs[0], io.inputs[0] + n, io.output);
      },
      [a](const Tensor& output) {
        if (!a.RequiresGrad()) return;
        AccumulateGrad(a, output.GradData());
      });
}

Tensor Permute(const Tensor& a, const std::vector<int64_t>& perm) {
  D2_CHECK(a.defined());
  const int64_t rank = a.dim();
  D2_CHECK_EQ(static_cast<int64_t>(perm.size()), rank);
  std::vector<bool> seen(static_cast<size_t>(rank), false);
  Shape out_shape(static_cast<size_t>(rank));
  for (size_t d = 0; d < perm.size(); ++d) {
    const int64_t p = NormalizeDim(perm[d], rank);
    D2_CHECK(!seen[static_cast<size_t>(p)]) << "duplicate axis in Permute";
    seen[static_cast<size_t>(p)] = true;
    out_shape[d] = a.size(p);
  }

  const std::vector<int64_t> in_strides = RowMajorStrides(a.shape());
  std::vector<int64_t> gather_strides(perm.size());
  for (size_t d = 0; d < perm.size(); ++d) {
    gather_strides[d] =
        in_strides[static_cast<size_t>(NormalizeDim(perm[d], rank))];
  }

  std::vector<int64_t> normalized(perm.size());
  for (size_t d = 0; d < perm.size(); ++d) {
    normalized[d] = NormalizeDim(perm[d], rank);
  }
  return Dispatch(
      "Permute", out_shape, {a},
      [out_shape, gather_strides = std::move(gather_strides)](
          const exec::StepIo& io) {
        kernels::GatherStrided(out_shape, gather_strides, io.inputs[0],
                               io.output);
      },
      [a, normalized](const Tensor& output) {
        if (!a.RequiresGrad()) return;
        // The inverse permutation as a gather from the output's layout.
        const std::vector<int64_t> out_strides =
            RowMajorStrides(output.shape());
        std::vector<int64_t> strides(normalized.size());
        for (size_t d = 0; d < normalized.size(); ++d) {
          strides[static_cast<size_t>(normalized[d])] = out_strides[d];
        }
        std::vector<float> grad = internal::AcquireBuffer(a.numel());
        kernels::GatherStrided(a.shape(), strides, output.GradData().data(),
                               grad.data());
        AccumulateGrad(a, std::move(grad));
      });
}

Tensor Transpose(const Tensor& a, int64_t d0, int64_t d1) {
  const int64_t rank = a.dim();
  d0 = NormalizeDim(d0, rank);
  d1 = NormalizeDim(d1, rank);
  std::vector<int64_t> perm(static_cast<size_t>(rank));
  for (int64_t d = 0; d < rank; ++d) perm[static_cast<size_t>(d)] = d;
  std::swap(perm[static_cast<size_t>(d0)], perm[static_cast<size_t>(d1)]);
  return Permute(a, perm);
}

Tensor Unsqueeze(const Tensor& a, int64_t dim) {
  const int64_t rank = a.dim();
  if (dim < 0) dim += rank + 1;
  D2_CHECK_GE(dim, 0);
  D2_CHECK_LE(dim, rank);
  Shape shape = a.shape();
  shape.insert(shape.begin() + dim, 1);
  return Reshape(a, shape);
}

Tensor Squeeze(const Tensor& a, int64_t dim) {
  const int64_t d = NormalizeDim(dim, a.dim());
  D2_CHECK_EQ(a.size(d), 1) << "Squeeze of non-unit dimension";
  Shape shape = a.shape();
  shape.erase(shape.begin() + d);
  return Reshape(a, shape);
}

Tensor BroadcastTo(const Tensor& a, const Shape& shape) {
  D2_CHECK(a.defined());
  if (a.shape() == shape) return a;
  return Dispatch(
      "BroadcastTo", shape, {a},
      [shape, as = kernels::BroadcastStrides(a.shape(), shape)](
          const exec::StepIo& io) {
        kernels::GatherStrided(shape, as, io.inputs[0], io.output);
      },
      [a](const Tensor& output) {
        if (!a.RequiresGrad()) return;
        AccumulateUnbroadcast(a, output.GradData(), output.shape());
      });
}

Tensor Concat(const std::vector<Tensor>& tensors, int64_t dim) {
  D2_CHECK(!tensors.empty());
  const int64_t rank = tensors[0].dim();
  const int64_t d = NormalizeDim(dim, rank);
  Shape out_shape = tensors[0].shape();
  int64_t total = 0;
  for (const Tensor& t : tensors) {
    D2_CHECK(t.defined());
    D2_CHECK_EQ(t.dim(), rank);
    for (int64_t dd = 0; dd < rank; ++dd) {
      if (dd != d) {
        D2_CHECK_EQ(t.size(dd), out_shape[static_cast<size_t>(dd)])
            << "Concat shape mismatch on dim " << dd;
      }
    }
    total += t.size(d);
  }
  out_shape[static_cast<size_t>(d)] = total;

  int64_t outer, unused_size, inner;
  SplitAtDim(out_shape, d, &outer, &unused_size, &inner);
  (void)unused_size;

  std::vector<int64_t> sizes;
  sizes.reserve(tensors.size());
  for (const Tensor& t : tensors) sizes.push_back(t.size(d));
  return Dispatch(
      "Concat", out_shape, tensors,
      [outer, total, inner, sizes = std::move(sizes)](const exec::StepIo& io) {
        int64_t offset = 0;  // running offset along dim d
        for (size_t t = 0; t < sizes.size(); ++t) {
          const int64_t size = sizes[t];
          for (int64_t o = 0; o < outer; ++o) {
            const float* src = io.inputs[t] + o * size * inner;
            float* dst = io.output + (o * total + offset) * inner;
            std::copy(src, src + size * inner, dst);
          }
          offset += size;
        }
      },
      [inputs = tensors, outer, total, inner, d](const Tensor& output) {
        const float* g = output.GradData().data();
        int64_t offset = 0;
        for (const Tensor& t : inputs) {
          const int64_t size = t.size(d);
          if (t.RequiresGrad()) {
            std::vector<float> grad = internal::AcquireBuffer(t.numel());
            for (int64_t o = 0; o < outer; ++o) {
              const float* src = g + (o * total + offset) * inner;
              std::copy(src, src + size * inner,
                        grad.data() + o * size * inner);
            }
            AccumulateGrad(t, std::move(grad));
          }
          offset += size;
        }
      });
}

Tensor Stack(const std::vector<Tensor>& tensors, int64_t dim) {
  D2_CHECK(!tensors.empty());
  std::vector<Tensor> expanded;
  expanded.reserve(tensors.size());
  for (const Tensor& t : tensors) expanded.push_back(Unsqueeze(t, dim));
  return Concat(expanded, dim);
}

Tensor Slice(const Tensor& a, int64_t dim, int64_t start, int64_t end) {
  D2_CHECK(a.defined());
  const int64_t d = NormalizeDim(dim, a.dim());
  const int64_t size = a.size(d);
  if (start < 0) start += size;
  if (end < 0) end += size;
  D2_CHECK_GE(start, 0);
  D2_CHECK_LE(end, size);
  D2_CHECK_LT(start, end) << "empty Slice [" << start << ", " << end << ")";

  int64_t outer, in_size, inner;
  SplitAtDim(a.shape(), d, &outer, &in_size, &inner);
  const int64_t out_size = end - start;
  Shape out_shape = a.shape();
  out_shape[static_cast<size_t>(d)] = out_size;

  const Shape in_shape = a.shape();
  return Dispatch(
      "Slice", out_shape, {a},
      [outer, in_size, out_size, inner, start](const exec::StepIo& io) {
        for (int64_t o = 0; o < outer; ++o) {
          const float* src = io.inputs[0] + (o * in_size + start) * inner;
          float* dst = io.output + o * out_size * inner;
          std::copy(src, src + out_size * inner, dst);
        }
      },
      [a, d, start, out_size, in_shape](const Tensor& output) {
        if (!a.RequiresGrad()) return;
        int64_t outer, in_size, inner;
        SplitAtDim(in_shape, d, &outer, &in_size, &inner);
        // AcquireBuffer zero-fills the positions outside the slice.
        std::vector<float> grad =
            internal::AcquireBuffer(NumElements(in_shape));
        const std::vector<float>& g = output.GradData();
        for (int64_t o = 0; o < outer; ++o) {
          const float* src = g.data() + o * out_size * inner;
          float* dst = grad.data() + (o * in_size + start) * inner;
          std::copy(src, src + out_size * inner, dst);
        }
        AccumulateGrad(a, std::move(grad));
      });
}

Tensor Select(const Tensor& a, int64_t dim, int64_t index) {
  const int64_t d = NormalizeDim(dim, a.dim());
  if (index < 0) index += a.size(d);
  return Squeeze(Slice(a, d, index, index + 1), d);
}

Tensor PadFront(const Tensor& a, int64_t dim, int64_t count) {
  D2_CHECK(a.defined());
  D2_CHECK_GE(count, 0);
  if (count == 0) return a;
  const int64_t d = NormalizeDim(dim, a.dim());
  Shape pad_shape = a.shape();
  pad_shape[static_cast<size_t>(d)] = count;
  return Concat({Tensor::Zeros(pad_shape), a}, d);
}

// ---------------------------------------------------------------------------
// Indexing.

Tensor EmbeddingLookup(const Tensor& weight,
                       const std::vector<int64_t>& indices,
                       const Shape& index_shape) {
  D2_CHECK(weight.defined());
  D2_CHECK_EQ(weight.dim(), 2) << "embedding table must be [count, width]";
  D2_CHECK_EQ(static_cast<int64_t>(indices.size()), NumElements(index_shape));
  const int64_t vocab = weight.size(0);
  const int64_t width = weight.size(1);

  Shape out_shape = index_shape;
  out_shape.push_back(width);
  // The closure reads StepIo::indices: `indices` here, and on replay the
  // per-request vector when the caller bound `indices` (time-of-day /
  // day-of-week features), else a snapshot taken at capture. Bounds checks
  // stay because replayed indices are request data.
  return Dispatch(
      "EmbeddingLookup", out_shape, {weight},
      [vocab, width](const exec::StepIo& io) {
        const std::vector<int64_t>& idx = *io.indices;
        for (size_t i = 0; i < idx.size(); ++i) {
          const int64_t row = idx[i];
          D2_CHECK_GE(row, 0);
          D2_CHECK_LT(row, vocab) << "embedding index out of range";
          std::copy(io.inputs[0] + row * width,
                    io.inputs[0] + (row + 1) * width,
                    io.output + static_cast<int64_t>(i) * width);
        }
      },
      [weight, indices, vocab, width](const Tensor& output) {
        if (!weight.RequiresGrad()) return;
        std::vector<float> grad = internal::AcquireBuffer(vocab * width);
        const std::vector<float>& g = output.GradData();
        for (size_t i = 0; i < indices.size(); ++i) {
          const int64_t row = indices[i];
          for (int64_t c = 0; c < width; ++c) {
            grad[static_cast<size_t>(row * width + c)] +=
                g[i * static_cast<size_t>(width) + static_cast<size_t>(c)];
          }
        }
        AccumulateGrad(weight, std::move(grad));
      },
      /*zero_output=*/false, &indices);
}

}  // namespace d2stgnn
