#ifndef D2STGNN_TENSOR_KERNELS_BACKEND_H_
#define D2STGNN_TENSOR_KERNELS_BACKEND_H_

#include <cstdint>

// The pluggable kernel-backend contract (DESIGN.md §15).
//
// A KernelBackend is a table of SERIAL range kernels: each entry computes one
// chunk of one op with no internal threading. The dispatch layer
// (tensor/kernels.h) owns all ParallelFor partitioning, with chunk boundaries
// that depend only on the problem size — so for any single backend, results
// are bitwise-identical at 1 and N threads by construction.
//
// The `scalar` backend is the reference: bit-for-bit the pre-backend-layer
// loops. Vector backends (avx2) may differ from scalar per element by at most
// the declared tolerance below; ops marked 0-ulp are exactly-rounded
// instruction sequences and must match scalar bitwise.

namespace d2stgnn::kernels {

/// Elementwise unary ops routed through the backend table. The scalar of
/// AddScalar and MulScalar travels in UnaryParams so the closure crossing the
/// table stays a plain function pointer.
enum class UnaryKind : int {
  kAddScalar,  // x + p0
  kMulScalar,  // x * p0
  kRelu,       // x > 0 ? x : 0
  kSigmoid,    // 1 / (1 + exp(-x)), tail-stable
  kTanh,       // tanh(x)
  kAbs,        // |x|
};

enum class BinaryKind : int {
  kAdd,  // x + y
  kSub,  // x - y
  kMul,  // x * y
};

struct UnaryParams {
  float p0 = 0.0f;
};

/// Serial range kernels of one backend. All pointers are non-null (a backend
/// that cannot vectorize an entry delegates to the scalar implementation).
struct KernelBackend {
  /// Stable identity: "scalar" or "avx2". Captured plans record it and replay
  /// only under the same backend; a session drops its plan cache when the
  /// active backend's name differs from its plans'.
  const char* name;

  /// out[i] = kind(a[i]) for i in [begin, end).
  void (*ewise_unary)(UnaryKind kind, UnaryParams params, const float* a,
                      float* out, int64_t begin, int64_t end);

  /// out[i] = kind(a[i], b[i]) for i in [begin, end).
  void (*ewise_binary)(BinaryKind kind, const float* a, const float* b,
                       float* out, int64_t begin, int64_t end);

  /// out[r, j] = a[r, j] + bias[j] for rows [row_begin, row_end) of a dense
  /// row-major [rows, n] matrix — the broadcast-add fast path.
  void (*bias_add)(const float* a, const float* bias, float* out,
                   int64_t row_begin, int64_t row_end, int64_t n);

  /// out[m, n] += A[m, k] * B[k, n] for rows [row_begin, row_end), dense
  /// row-major. The serial unit BatchedMatMul parallelizes over.
  void (*matmul_row_range)(const float* a, const float* b, float* out,
                           int64_t row_begin, int64_t row_end, int64_t k,
                           int64_t n);

  /// out[m, n] += A^T[m, k] * B[k, n] for rows [row_begin, row_end), where
  /// A^T's element (i, kk) is a[kk * lda + i]: the product with the
  /// transpose of a row-major A of row length lda, read in place. Same
  /// per-element accumulation order (and tolerance) as matmul_row_range; the
  /// weight-gradient products use it instead of a transposed copy of A.
  void (*matmul_tn_row_range)(const float* a, int64_t lda, const float* b,
                              float* out, int64_t row_begin, int64_t row_end,
                              int64_t k, int64_t n);

  /// Sum of a[begin, end) accumulated in double. One kReduceBlock block of
  /// the deterministic partial-sum tree.
  double (*reduce_sum_range)(const float* a, int64_t begin, int64_t end);

  /// out[i] = sum_s a[s, i] over one [size, inner] slice, s ascending.
  void (*reduce_sum_dim_slice)(const float* a, float* out, int64_t size,
                               int64_t inner);

  /// Numerically stable softmax over the s extent of one [size, inner]
  /// slice.
  void (*softmax_slice)(const float* a, float* out, int64_t size,
                        int64_t inner);
};

// ---------------------------------------------------------------------------
// Declared parity tolerances of vector backends vs the scalar reference.
// The kernel_backend_test parity suite enforces these bounds; widening one
// is an interface change, not a test tweak.

/// Max units-in-last-place divergence per element for a unary op. 0 means
/// bitwise parity (the op is an exactly-rounded instruction sequence).
inline constexpr int UnaryMaxUlp(UnaryKind kind) {
  switch (kind) {
    case UnaryKind::kSigmoid:
    case UnaryKind::kTanh:
      return 8;  // polynomial vector-math approximations
    default:
      return 0;
  }
}

/// Binary elementwise ops are single exactly-rounded instructions.
inline constexpr int BinaryMaxUlp(BinaryKind) { return 0; }

/// MatMul uses FMA (one rounding where scalar has two); error compounds over
/// the k accumulations, so the bound is relative and scales with k. It
/// covers matmul_row_range and matmul_tn_row_range alike.
inline constexpr float MatMulRelTol(int64_t k) {
  return 1e-6f * static_cast<float>(k > 16 ? k : 16);
}

/// Full-sum reduction: vector backends accumulate a block in 4 double lanes
/// (different association than scalar's single running double).
inline constexpr double ReduceSumRelTol() { return 1e-12; }

/// Per-element softmax bound: the exp approximation plus the denominator's
/// lane-parallel accumulation.
inline constexpr int SoftmaxMaxUlp() { return 16; }

/// ReduceSumDim keeps scalar's per-element accumulation order in every
/// backend — bitwise parity.
inline constexpr int ReduceSumDimMaxUlp() { return 0; }

}  // namespace d2stgnn::kernels

#endif  // D2STGNN_TENSOR_KERNELS_BACKEND_H_
