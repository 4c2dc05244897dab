#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/kernels/backend.h"
#include "tensor/kernels/registry.h"

// The scalar reference backend: bit-for-bit the loops the tensor engine
// shipped before the backend layer existed. Every other backend is measured
// against this one (see the tolerance table in backend.h), so these bodies
// must not change float semantics — same operations, same order.

namespace d2stgnn::kernels {
namespace {

// K-tile of the blocked matmul: keeps the active B panel (~tile * n floats)
// cache-resident. Tiles advance in ascending k, so per-output accumulation
// order — and therefore the float result — matches the untiled loop.
constexpr int64_t kMatMulKTile = 256;

template <typename Fn>
void RunUnary(const float* a, float* out, int64_t begin, int64_t end, Fn fn) {
  for (int64_t i = begin; i < end; ++i) out[i] = fn(a[i]);
}

void ScalarEwiseUnary(UnaryKind kind, UnaryParams params, const float* a,
                      float* out, int64_t begin, int64_t end) {
  const float p0 = params.p0;
  switch (kind) {
    case UnaryKind::kAddScalar:
      return RunUnary(a, out, begin, end, [p0](float x) { return x + p0; });
    case UnaryKind::kMulScalar:
      return RunUnary(a, out, begin, end, [p0](float x) { return x * p0; });
    case UnaryKind::kRelu:
      return RunUnary(a, out, begin, end,
                      [](float x) { return x > 0.0f ? x : 0.0f; });
    case UnaryKind::kSigmoid:
      return RunUnary(a, out, begin, end, [](float x) {
        // Stable in both tails.
        if (x >= 0.0f) return 1.0f / (1.0f + std::exp(-x));
        const float e = std::exp(x);
        return e / (1.0f + e);
      });
    case UnaryKind::kTanh:
      return RunUnary(a, out, begin, end,
                      [](float x) { return std::tanh(x); });
    case UnaryKind::kAbs:
      return RunUnary(a, out, begin, end,
                      [](float x) { return std::fabs(x); });
  }
}

void ScalarEwiseBinary(BinaryKind kind, const float* a, const float* b,
                       float* out, int64_t begin, int64_t end) {
  switch (kind) {
    case BinaryKind::kAdd:
      for (int64_t i = begin; i < end; ++i) out[i] = a[i] + b[i];
      return;
    case BinaryKind::kSub:
      for (int64_t i = begin; i < end; ++i) out[i] = a[i] - b[i];
      return;
    case BinaryKind::kMul:
      for (int64_t i = begin; i < end; ++i) out[i] = a[i] * b[i];
      return;
  }
}

void ScalarBiasAdd(const float* a, const float* bias, float* out,
                   int64_t row_begin, int64_t row_end, int64_t n) {
  for (int64_t r = row_begin; r < row_end; ++r) {
    const float* src = a + r * n;
    float* dst = out + r * n;
    for (int64_t j = 0; j < n; ++j) dst[j] = src[j] + bias[j];
  }
}

// A's element (i, kk) is a[i * row_stride + kk * col_stride]: (k, 1) for
// matmul_row_range, (1, lda) for the transposed read of matmul_tn_row_range.
// No zero-skip on A: 0 * Inf and 0 * NaN must reach the output as NaN, as
// in every other backend. Dropping it kept finite results bitwise: from a
// +0 start the accumulator never holds -0, and x + (+/-0) == x otherwise.
void MatMulStrided(const float* a, int64_t row_stride, int64_t col_stride,
                   const float* b, float* out, int64_t row_begin,
                   int64_t row_end, int64_t k, int64_t n) {
  for (int64_t k0 = 0; k0 < k; k0 += kMatMulKTile) {
    const int64_t k1 = std::min(k, k0 + kMatMulKTile);
    for (int64_t i = row_begin; i < row_end; ++i) {
      float* out_row = out + i * n;
      const float* a_row = a + i * row_stride;
      for (int64_t kk = k0; kk < k1; ++kk) {
        const float av = a_row[kk * col_stride];
        const float* b_row = b + kk * n;
        for (int64_t j = 0; j < n; ++j) out_row[j] += av * b_row[j];
      }
    }
  }
}

void ScalarMatMulRowRange(const float* a, const float* b, float* out,
                          int64_t row_begin, int64_t row_end, int64_t k,
                          int64_t n) {
  MatMulStrided(a, k, 1, b, out, row_begin, row_end, k, n);
}

void ScalarMatMulTnRowRange(const float* a, int64_t lda, const float* b,
                            float* out, int64_t row_begin, int64_t row_end,
                            int64_t k, int64_t n) {
  MatMulStrided(a, 1, lda, b, out, row_begin, row_end, k, n);
}

double ScalarReduceSumRange(const float* a, int64_t begin, int64_t end) {
  double acc = 0.0;
  for (int64_t i = begin; i < end; ++i) acc += a[i];
  return acc;
}

void ScalarReduceSumDimSlice(const float* a, float* out, int64_t size,
                             int64_t inner) {
  std::fill(out, out + inner, 0.0f);
  for (int64_t s = 0; s < size; ++s) {
    const float* src = a + s * inner;
    for (int64_t i = 0; i < inner; ++i) out[i] += src[i];
  }
}

void ScalarSoftmaxSlice(const float* a, float* out, int64_t size,
                        int64_t inner) {
  for (int64_t i = 0; i < inner; ++i) {
    float max_v = -std::numeric_limits<float>::infinity();
    for (int64_t s = 0; s < size; ++s) {
      max_v = std::max(max_v, a[s * inner + i]);
    }
    float denom = 0.0f;
    for (int64_t s = 0; s < size; ++s) {
      const float e = std::exp(a[s * inner + i] - max_v);
      out[s * inner + i] = e;
      denom += e;
    }
    const float inv = 1.0f / denom;
    for (int64_t s = 0; s < size; ++s) out[s * inner + i] *= inv;
  }
}

constexpr KernelBackend kScalarBackend = {
    /*name=*/"scalar",
    /*ewise_unary=*/&ScalarEwiseUnary,
    /*ewise_binary=*/&ScalarEwiseBinary,
    /*bias_add=*/&ScalarBiasAdd,
    /*matmul_row_range=*/&ScalarMatMulRowRange,
    /*matmul_tn_row_range=*/&ScalarMatMulTnRowRange,
    /*reduce_sum_range=*/&ScalarReduceSumRange,
    /*reduce_sum_dim_slice=*/&ScalarReduceSumDimSlice,
    /*softmax_slice=*/&ScalarSoftmaxSlice,
};

}  // namespace

const KernelBackend& ScalarBackend() { return kScalarBackend; }

}  // namespace d2stgnn::kernels
