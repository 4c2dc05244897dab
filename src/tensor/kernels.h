#ifndef D2STGNN_TENSOR_KERNELS_H_
#define D2STGNN_TENSOR_KERNELS_H_

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "tensor/kernels/backend.h"
#include "tensor/tensor.h"

// Dispatch façade of the tensor engine's compute kernels. ops.cc does shape
// checking, autograd-tape wiring, and routes every compute loop through
// here; the float loops themselves live in a KernelBackend
// (tensor/kernels/backend_*.cc) selected at startup — see
// tensor/kernels/registry.h.
//
// Every entry point partitions work with ParallelFor using chunk boundaries
// that depend only on the problem size, then hands each chunk to a SERIAL
// backend range kernel, and combines partials in index order — so for any
// one backend, results are bitwise-identical at 1 and N threads. Callers
// pass the backend explicitly: eager dispatch uses ActiveBackend(), capture
// closures bind the backend pointer they were recorded under.

namespace d2stgnn::kernels {

/// Minimum elementwise work per ParallelFor chunk; below this the dispatch
/// overhead dominates and the loop runs as a single chunk.
inline constexpr int64_t kEwiseGrain = 1 << 14;

/// Fixed accumulation block for full reductions (chunk boundaries of the
/// deterministic partial-sum tree).
inline constexpr int64_t kReduceBlock = 1 << 12;

// ---------------------------------------------------------------------------
// Broadcast iteration machinery (shared by elementwise dispatch in ops.cc).

/// Prepends 1s so that `shape` has `rank` dimensions.
Shape AlignShape(const Shape& shape, size_t rank);

/// Strides of `shape` aligned to `out` rank, with 0 stride on broadcast
/// dimensions. Aborts if the shapes are not broadcast-compatible.
std::vector<int64_t> BroadcastStrides(const Shape& shape, const Shape& out);

/// Most dimensions a strided walk (EwiseBinaryBroadcast, GatherStrided)
/// keeps after coalescing: its index array has this fixed size. Unit
/// dimensions and dimensions that merge do not count.
inline constexpr size_t kMaxWalkRank = 8;

/// Calls visit(out_flat, a_offset, b_offset) once per element of `out`, in
/// flat order, where the offsets follow the (possibly zero) broadcast
/// strides `as` / `bs`. Serial. A per-element odometer: the elementwise
/// kernels run the coalesced row walk instead, so this is for callers that
/// need one visit per index, such as MatMul resolving each batch's matrix
/// offsets.
template <typename Visitor>
void ForEachBroadcastPair(const Shape& out, const std::vector<int64_t>& as,
                          const std::vector<int64_t>& bs, Visitor visit) {
  const int64_t n = NumElements(out);
  const size_t rank = out.size();
  std::vector<int64_t> idx(rank, 0);
  int64_t a_off = 0;
  int64_t b_off = 0;
  for (int64_t i = 0; i < n; ++i) {
    visit(i, a_off, b_off);
    for (size_t d = rank; d-- > 0;) {
      ++idx[d];
      a_off += as[d];
      b_off += bs[d];
      if (idx[d] < out[d]) break;
      a_off -= as[d] * out[d];
      b_off -= bs[d] * out[d];
      idx[d] = 0;
    }
  }
}

// ---------------------------------------------------------------------------
// Elementwise kernels (backend-dispatched forward, template gradient).

/// out[i] = kind(a[i]) for i in [0, n).
void EwiseUnary(const KernelBackend& backend, UnaryKind kind,
                UnaryParams params, const float* a, float* out, int64_t n);

/// out[i] = dfn(x[i], y[i], g[i]) — the gradient loop of a unary op. Stays a
/// template (training-only; gradients are not backend-dispatched).
template <typename Dfn>
void EwiseUnaryGrad(const float* x, const float* y, const float* g,
                    float* out, int64_t n, Dfn dfn) {
  ParallelFor(0, n, kEwiseGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) out[i] = dfn(x[i], y[i], g[i]);
  });
}

/// out[i] = kind(a[i], b[i]) for same-shape contiguous operands.
void EwiseBinary(const KernelBackend& backend, BinaryKind kind,
                 const float* a, const float* b, float* out, int64_t n);

/// Broadcasting binary kernel: out[flat] = kind(a[a_off], b[b_off]) with the
/// strided offsets of BroadcastStrides. The matrix-plus-row-vector pattern
/// (dense a, b strided [0, ..., 0, 1]) routes to the backend's bias_add;
/// other patterns run the coalesced strided walk: unit dimensions dropped,
/// dimensions the output and both operands traverse contiguously merged,
/// and the innermost one run as a loop specialised for operand strides
/// (1, 1), (1, 0) and (0, 1). Exactly-rounded single operations, identical
/// across backends and to a per-element walk. Aborts when more than
/// kMaxWalkRank dimensions remain after coalescing.
void EwiseBinaryBroadcast(const KernelBackend& backend, BinaryKind kind,
                          const Shape& out_shape,
                          const std::vector<int64_t>& as,
                          const std::vector<int64_t>& bs, const float* a,
                          const float* b, float* out);

/// Strided gather: out[flat] = a[src_off] (Permute / BroadcastTo bodies).
/// Pure data movement — shared across backends. Runs the coalesced walk of
/// EwiseBinaryBroadcast; its innermost loop is a copy at source stride 1
/// and a fill at stride 0.
void GatherStrided(const Shape& out_shape, const std::vector<int64_t>& strides,
                   const float* a, float* out);

// ---------------------------------------------------------------------------
// MatMul.

/// Batch layout of a broadcast batched matmul, shared by its forward and
/// backward kernels. Output matrix i ([m, n], at element offset i*m*n) is
/// A[a_offsets()[i]] x B[b_offsets()[i]], where A holds `a_matrices` dense
/// [m, k] matrices and B holds `b_matrices` dense [k, n] ones. An operand
/// that broadcasts over the batch repeats its offset.
struct MatMulLayout {
  int64_t m = 0;
  int64_t k = 0;
  int64_t n = 0;
  int64_t a_matrices = 0;
  int64_t b_matrices = 0;
  /// The A offsets of every batch, then the B offsets (one allocation).
  std::vector<int64_t> offsets;

  int64_t batches() const { return static_cast<int64_t>(offsets.size() / 2); }
  const int64_t* a_offsets() const { return offsets.data(); }
  const int64_t* b_offsets() const { return offsets.data() + batches(); }
};

/// Batched matmul over `batch` independent [m,k]x[k,n] products. Offsets
/// are element offsets of each batch's A / B matrix (shared matrices repeat
/// their offset — the broadcast case). `out` must be zero-filled.
/// Parallelized over batch x row blocks; each task runs the backend's
/// serial matmul_row_range.
void BatchedMatMul(const KernelBackend& backend, const float* a,
                   const float* b, float* out,
                   const std::vector<int64_t>& a_offsets,
                   const std::vector<int64_t>& b_offsets, int64_t m, int64_t k,
                   int64_t n);

/// The same product over a MatMulLayout.
void BatchedMatMul(const KernelBackend& backend, const MatMulLayout& layout,
                   const float* a, const float* b, float* out);

/// Gradient of BatchedMatMul w.r.t. A: grad_a[a_offsets()[i]] += G_i x
/// B[b_offsets()[i]]^T, where G_i is output matrix i of the gradient `g`.
/// `grad_a` is laid out like A. Parallel over (A matrix, row block); each
/// task adds the batches that map onto its matrix in ascending batch order,
/// so results are bitwise identical at 1 and N threads. B^T is a scratch
/// copy made here (pure data movement), never an op.
void BatchedMatMulGradA(const KernelBackend& backend,
                        const MatMulLayout& layout, const float* g,
                        const float* b, float* grad_a);

/// Gradient of BatchedMatMul w.r.t. B: grad_b[b_offsets()[i]] +=
/// A[a_offsets()[i]]^T x G_i, partitioned like BatchedMatMulGradA over
/// (B matrix, row block). A^T is read in place (the backend's
/// matmul_tn_row_range). A B shared by every batch of a dense A (the
/// flattened layout ops.cc builds) is one A^T x G reduction over all rows.
void BatchedMatMulGradB(const KernelBackend& backend,
                        const MatMulLayout& layout, const float* a,
                        const float* g, float* grad_b);

// ---------------------------------------------------------------------------
// Reductions.

/// Sum of all n elements via a deterministic two-level tree: double partial
/// per kReduceBlock block, blocks combined in index order.
double ReduceSumAll(const KernelBackend& backend, const float* a, int64_t n);

/// out[o, i] = sum_s a[o, s, i] over the middle extent. Parallel over the
/// outer extent; per-slice accumulation runs in ascending s.
void ReduceSumDim(const KernelBackend& backend, const float* a, float* out,
                  int64_t outer, int64_t size, int64_t inner);

// ---------------------------------------------------------------------------
// Softmax.

/// Numerically stable softmax over the middle extent of [outer, size,
/// inner]. Parallel over the outer extent.
void SoftmaxKernel(const KernelBackend& backend, const float* a, float* out,
                   int64_t outer, int64_t size, int64_t inner);

}  // namespace d2stgnn::kernels

#endif  // D2STGNN_TENSOR_KERNELS_H_
