#ifndef D2STGNN_TENSOR_OPS_H_
#define D2STGNN_TENSOR_OPS_H_

#include <vector>

#include "tensor/tensor.h"

// Differentiable tensor operations. All functions return new tensors and,
// unless a NoGradGuard is active, record autograd tape nodes so that
// Tensor::Backward() on a downstream scalar propagates gradients here.
//
// Binary elementwise ops follow NumPy broadcasting rules.

namespace d2stgnn {

// ---------------------------------------------------------------------------
// Broadcasting helpers.

/// Returns the broadcast of two shapes (NumPy rules). Aborts if incompatible.
Shape BroadcastShapes(const Shape& a, const Shape& b);

/// Sums `t` over its broadcast dimensions so that the result has exactly
/// `target` shape. Used to reduce output gradients back to input shapes.
Tensor ReduceToShape(const Tensor& t, const Shape& target);

// ---------------------------------------------------------------------------
// Elementwise binary ops (with broadcasting).

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);

/// a + s and a * s applied elementwise with a scalar.
Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);

Tensor operator+(const Tensor& a, const Tensor& b);
Tensor operator-(const Tensor& a, const Tensor& b);
Tensor operator*(const Tensor& a, const Tensor& b);
Tensor operator+(const Tensor& a, float s);
Tensor operator-(const Tensor& a, float s);
Tensor operator*(const Tensor& a, float s);
Tensor operator/(const Tensor& a, float s);
Tensor operator+(float s, const Tensor& a);
Tensor operator-(float s, const Tensor& a);
Tensor operator*(float s, const Tensor& a);

// ---------------------------------------------------------------------------
// Elementwise unary ops.

Tensor Relu(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Abs(const Tensor& a);

// ---------------------------------------------------------------------------
// Linear algebra.

/// Batched matrix multiplication. `a` is [..., m, k], `b` is [..., k, n];
/// leading (batch) dimensions broadcast. Rank-2 inputs multiply as plain
/// matrices.
Tensor MatMul(const Tensor& a, const Tensor& b);

// ---------------------------------------------------------------------------
// Reductions.

/// Sum of all elements (scalar result).
Tensor Sum(const Tensor& a);

/// Mean of all elements (scalar result).
Tensor Mean(const Tensor& a);

/// Sum over dimension `dim` (negative counts from the end).
Tensor Sum(const Tensor& a, int64_t dim, bool keepdim);

/// Mean over dimension `dim`.
Tensor Mean(const Tensor& a, int64_t dim, bool keepdim);

/// Numerically stable softmax along `dim`.
Tensor Softmax(const Tensor& a, int64_t dim);

// ---------------------------------------------------------------------------
// Shape manipulation.

/// Reshapes to `shape`; one entry may be -1 (inferred). Element count must
/// be preserved.
Tensor Reshape(const Tensor& a, const Shape& shape);

/// Reorders dimensions: out dim i = in dim perm[i]. Materializes a copy.
Tensor Permute(const Tensor& a, const std::vector<int64_t>& perm);

/// Swaps two dimensions (negative indices allowed).
Tensor Transpose(const Tensor& a, int64_t d0, int64_t d1);

/// Inserts a size-1 dimension at `dim`.
Tensor Unsqueeze(const Tensor& a, int64_t dim);

/// Removes a size-1 dimension at `dim`.
Tensor Squeeze(const Tensor& a, int64_t dim);

/// Broadcasts to `shape` (must be broadcast-compatible).
Tensor BroadcastTo(const Tensor& a, const Shape& shape);

/// Concatenates along `dim`. All other dimensions must match.
Tensor Concat(const std::vector<Tensor>& tensors, int64_t dim);

/// Stacks along a new dimension at `dim`.
Tensor Stack(const std::vector<Tensor>& tensors, int64_t dim);

/// Returns the half-open slice [start, end) of dimension `dim`.
Tensor Slice(const Tensor& a, int64_t dim, int64_t start, int64_t end);

/// Slice + squeeze: drops dimension `dim`, keeping `index`.
Tensor Select(const Tensor& a, int64_t dim, int64_t index);

/// Prepends `count` zero frames along `dim`.
Tensor PadFront(const Tensor& a, int64_t dim, int64_t count);

// ---------------------------------------------------------------------------
// Indexing.

/// Gathers rows of `weight` ([num_embeddings, d]) by `indices` and returns a
/// tensor of shape index_shape + [d]. Gradients scatter-add into `weight`.
Tensor EmbeddingLookup(const Tensor& weight,
                       const std::vector<int64_t>& indices,
                       const Shape& index_shape);

}  // namespace d2stgnn

#endif  // D2STGNN_TENSOR_OPS_H_
