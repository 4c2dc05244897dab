#include "tensor/kernels/backend.h"
#include "tensor/kernels/registry.h"

// AVX2+FMA backend. This translation unit is compiled with -mavx2 -mfma (see
// src/CMakeLists.txt); nothing here executes unless cpuid reported both
// features at runtime (Avx2BackendOrNull gates registration), so the vector
// instructions can never SIGILL a weaker machine.
//
// Accuracy contract (enforced by kernel_backend_test against the tolerance
// table in backend.h):
//  - add/sub/mul/abs/relu/add-scalar/mul-scalar, bias_add and
//    reduce_sum_dim are exactly-rounded instruction sequences in scalar
//    per-element order — bitwise identical to the scalar backend.
//  - sigmoid/tanh (and softmax's exp) use Cephes-style polynomial vector
//    math with a declared max-ulp bound. Remainder lanes use masked
//    loads/stores of the same vector formula — never a scalar-libm
//    fallback — so per-element results are independent of where a chunk
//    boundary falls.
//  - matmul uses FMA accumulation (one rounding where scalar has two) and
//    reduce_sum uses four double lanes; both carry relative tolerances.
// Inputs are assumed finite; NaN/Inf propagation in the polynomial paths is
// unspecified (the denormal tail of exp flushes to zero).

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <limits>

#include "common/align.h"

namespace d2stgnn::kernels {
namespace {

constexpr int64_t kLanes = common::kVectorLaneFloats;
static_assert(kLanes == 8, "AVX2 backend assumes 256-bit float registers");

// Same K-tile as the scalar backend so the cache behavior (and the tile
// boundaries of the accumulation order) line up.
constexpr int64_t kMatMulKTile = 256;

/// All-ones in the first `rem` (1..7) lanes — the remainder mask.
inline __m256i TailMask(int64_t rem) {
  const __m256i idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(rem)), idx);
}

// ---------------------------------------------------------------------------
// Vector math (Cephes-derived single-precision kernels).

/// exp(x) with Cody-Waite range reduction and a degree-5 polynomial.
/// Underflow (x < -87.34) flushes to exactly 0; overflow saturates near
/// FLT_MAX via the input clamp.
inline __m256 ExpPs(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 hi = _mm256_set1_ps(88.3762626647950f);
  const __m256 lo = _mm256_set1_ps(-87.3365478515625f);
  const __m256 underflow = _mm256_cmp_ps(x, lo, _CMP_LT_OQ);
  x = _mm256_max_ps(_mm256_min_ps(x, hi), lo);

  __m256 fx = _mm256_fmadd_ps(x, _mm256_set1_ps(1.44269504088896341f),
                              _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693359375f), x);
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.12194440e-4f), x);

  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, _mm256_mul_ps(x, x), x);
  y = _mm256_add_ps(y, one);

  __m256i n = _mm256_cvttps_epi32(fx);
  n = _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23);
  y = _mm256_mul_ps(y, _mm256_castsi256_ps(n));
  return _mm256_andnot_ps(underflow, y);
}

/// tanh(x): odd polynomial below |x| = 0.625, 1 - 2/(exp(2|x|)+1) above —
/// the small-|x| polynomial avoids the cancellation the exp identity has
/// near zero.
inline __m256 TanhPs(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 sign_bit = _mm256_set1_ps(-0.0f);
  const __m256 sign = _mm256_and_ps(x, sign_bit);
  const __m256 ax = _mm256_andnot_ps(sign_bit, x);

  const __m256 e = ExpPs(_mm256_mul_ps(ax, _mm256_set1_ps(2.0f)));
  const __m256 large = _mm256_sub_ps(
      one, _mm256_div_ps(_mm256_set1_ps(2.0f), _mm256_add_ps(e, one)));

  const __m256 z = _mm256_mul_ps(ax, ax);
  __m256 p = _mm256_set1_ps(-5.70498872745e-3f);
  p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(2.06390887954e-2f));
  p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(-5.37397155531e-2f));
  p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(1.33314422036e-1f));
  p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(-3.33332819422e-1f));
  const __m256 small = _mm256_fmadd_ps(_mm256_mul_ps(ax, z), p, ax);

  const __m256 use_small =
      _mm256_cmp_ps(ax, _mm256_set1_ps(0.625f), _CMP_LT_OQ);
  return _mm256_or_ps(_mm256_blendv_ps(large, small, use_small), sign);
}

/// Tail-stable sigmoid: exp(-|x|) never overflows, and the x < 0 branch
/// e/(1+e) avoids the 1 - s cancellation.
inline __m256 SigmoidPs(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 sign_bit = _mm256_set1_ps(-0.0f);
  const __m256 ax = _mm256_andnot_ps(sign_bit, x);
  const __m256 e = ExpPs(_mm256_or_ps(ax, sign_bit));  // exp(-|x|)
  const __m256 denom = _mm256_add_ps(one, e);
  const __m256 pos = _mm256_div_ps(one, denom);
  const __m256 neg = _mm256_div_ps(e, denom);
  const __m256 nonneg =
      _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_GE_OQ);
  return _mm256_blendv_ps(neg, pos, nonneg);
}

// ---------------------------------------------------------------------------
// Range-kernel scaffolding.

/// Runs a vector functor over [begin, end) with a masked remainder.
template <typename VFn>
void RunUnaryV(const float* a, float* out, int64_t begin, int64_t end,
               VFn fn) {
  int64_t i = begin;
  for (; i + kLanes <= end; i += kLanes) {
    _mm256_storeu_ps(out + i, fn(_mm256_loadu_ps(a + i)));
  }
  if (i < end) {
    const __m256i mask = TailMask(end - i);
    _mm256_maskstore_ps(out + i, mask, fn(_mm256_maskload_ps(a + i, mask)));
  }
}

template <typename VFn>
void RunBinaryV(const float* a, const float* b, float* out, int64_t begin,
                int64_t end, VFn fn) {
  int64_t i = begin;
  for (; i + kLanes <= end; i += kLanes) {
    _mm256_storeu_ps(
        out + i, fn(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  if (i < end) {
    const __m256i mask = TailMask(end - i);
    _mm256_maskstore_ps(out + i, mask,
                        fn(_mm256_maskload_ps(a + i, mask),
                           _mm256_maskload_ps(b + i, mask)));
  }
}

// ---------------------------------------------------------------------------
// Backend entry points.

void Avx2EwiseUnary(UnaryKind kind, UnaryParams params, const float* a,
                    float* out, int64_t begin, int64_t end) {
  switch (kind) {
    case UnaryKind::kAddScalar: {
      const __m256 s = _mm256_set1_ps(params.p0);
      return RunUnaryV(a, out, begin, end,
                       [s](__m256 x) { return _mm256_add_ps(x, s); });
    }
    case UnaryKind::kMulScalar: {
      const __m256 s = _mm256_set1_ps(params.p0);
      return RunUnaryV(a, out, begin, end,
                       [s](__m256 x) { return _mm256_mul_ps(x, s); });
    }
    case UnaryKind::kRelu: {
      const __m256 zero = _mm256_setzero_ps();
      return RunUnaryV(a, out, begin, end, [zero](__m256 x) {
        return _mm256_max_ps(x, zero);
      });
    }
    case UnaryKind::kSigmoid:
      return RunUnaryV(a, out, begin, end,
                       [](__m256 x) { return SigmoidPs(x); });
    case UnaryKind::kTanh:
      return RunUnaryV(a, out, begin, end,
                       [](__m256 x) { return TanhPs(x); });
    case UnaryKind::kAbs: {
      const __m256 sign_bit = _mm256_set1_ps(-0.0f);
      return RunUnaryV(a, out, begin, end, [sign_bit](__m256 x) {
        return _mm256_andnot_ps(sign_bit, x);
      });
    }
  }
}

void Avx2EwiseBinary(BinaryKind kind, const float* a, const float* b,
                     float* out, int64_t begin, int64_t end) {
  switch (kind) {
    case BinaryKind::kAdd:
      return RunBinaryV(a, b, out, begin, end, [](__m256 x, __m256 y) {
        return _mm256_add_ps(x, y);
      });
    case BinaryKind::kSub:
      return RunBinaryV(a, b, out, begin, end, [](__m256 x, __m256 y) {
        return _mm256_sub_ps(x, y);
      });
    case BinaryKind::kMul:
      return RunBinaryV(a, b, out, begin, end, [](__m256 x, __m256 y) {
        return _mm256_mul_ps(x, y);
      });
  }
}

void Avx2BiasAdd(const float* a, const float* bias, float* out,
                 int64_t row_begin, int64_t row_end, int64_t n) {
  for (int64_t r = row_begin; r < row_end; ++r) {
    RunBinaryV(a + r * n, bias, out + r * n, 0, n, [](__m256 x, __m256 y) {
      return _mm256_add_ps(x, y);
    });
  }
}

// The matmul below accumulates into `out` one k-tile [k0, k1) at a time. A's
// element (i, kk) is a[i * row_stride + kk * col_stride]: (k, 1) for
// matmul_row_range, (1, lda) for the transposed read of matmul_tn_row_range.
// Every output element is one chain: load it, FMA over kk ascending, store
// it. That holds in both loops, so which rows go through the four-row block
// and which through the one-row loop changes no result bit.

// One output row: 16-column strips, 8-column strips, then a masked tail.
inline void MatMulRow(const float* a_row, int64_t col_stride, const float* b,
                      float* out_row, int64_t k0, int64_t k1, int64_t n) {
  int64_t j = 0;
  for (; j + 2 * kLanes <= n; j += 2 * kLanes) {
    __m256 acc0 = _mm256_loadu_ps(out_row + j);
    __m256 acc1 = _mm256_loadu_ps(out_row + j + kLanes);
    for (int64_t kk = k0; kk < k1; ++kk) {
      const __m256 av = _mm256_broadcast_ss(a_row + kk * col_stride);
      const float* b_row = b + kk * n + j;
      acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b_row), acc0);
      acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b_row + kLanes), acc1);
    }
    _mm256_storeu_ps(out_row + j, acc0);
    _mm256_storeu_ps(out_row + j + kLanes, acc1);
  }
  for (; j + kLanes <= n; j += kLanes) {
    __m256 acc = _mm256_loadu_ps(out_row + j);
    for (int64_t kk = k0; kk < k1; ++kk) {
      acc = _mm256_fmadd_ps(_mm256_broadcast_ss(a_row + kk * col_stride),
                            _mm256_loadu_ps(b + kk * n + j), acc);
    }
    _mm256_storeu_ps(out_row + j, acc);
  }
  if (j < n) {
    const __m256i mask = TailMask(n - j);
    __m256 acc = _mm256_maskload_ps(out_row + j, mask);
    for (int64_t kk = k0; kk < k1; ++kk) {
      acc = _mm256_fmadd_ps(_mm256_broadcast_ss(a_row + kk * col_stride),
                            _mm256_maskload_ps(b + kk * n + j, mask), acc);
    }
    _mm256_maskstore_ps(out_row + j, mask, acc);
  }
}

// Four output rows at once. A 16-column strip keeps 8 accumulators in
// registers and each B vector it loads feeds all four rows, so eight FMA
// chains are in flight instead of two. The columns past the last strip go
// 8 lanes at a time, the last vector masked.
inline void MatMulRows4(const float* a_row, int64_t row_stride,
                        int64_t col_stride, const float* b, float* out_row,
                        int64_t k0, int64_t k1, int64_t n) {
  float* o0 = out_row;
  float* o1 = o0 + n;
  float* o2 = o1 + n;
  float* o3 = o2 + n;
  int64_t j = 0;
  for (; j + 2 * kLanes <= n; j += 2 * kLanes) {
    __m256 c00 = _mm256_loadu_ps(o0 + j);
    __m256 c01 = _mm256_loadu_ps(o0 + j + kLanes);
    __m256 c10 = _mm256_loadu_ps(o1 + j);
    __m256 c11 = _mm256_loadu_ps(o1 + j + kLanes);
    __m256 c20 = _mm256_loadu_ps(o2 + j);
    __m256 c21 = _mm256_loadu_ps(o2 + j + kLanes);
    __m256 c30 = _mm256_loadu_ps(o3 + j);
    __m256 c31 = _mm256_loadu_ps(o3 + j + kLanes);
    for (int64_t kk = k0; kk < k1; ++kk) {
      const float* b_row = b + kk * n + j;
      const __m256 b0 = _mm256_loadu_ps(b_row);
      const __m256 b1 = _mm256_loadu_ps(b_row + kLanes);
      const float* ak = a_row + kk * col_stride;
      __m256 av = _mm256_broadcast_ss(ak);
      c00 = _mm256_fmadd_ps(av, b0, c00);
      c01 = _mm256_fmadd_ps(av, b1, c01);
      av = _mm256_broadcast_ss(ak + row_stride);
      c10 = _mm256_fmadd_ps(av, b0, c10);
      c11 = _mm256_fmadd_ps(av, b1, c11);
      av = _mm256_broadcast_ss(ak + 2 * row_stride);
      c20 = _mm256_fmadd_ps(av, b0, c20);
      c21 = _mm256_fmadd_ps(av, b1, c21);
      av = _mm256_broadcast_ss(ak + 3 * row_stride);
      c30 = _mm256_fmadd_ps(av, b0, c30);
      c31 = _mm256_fmadd_ps(av, b1, c31);
    }
    _mm256_storeu_ps(o0 + j, c00);
    _mm256_storeu_ps(o0 + j + kLanes, c01);
    _mm256_storeu_ps(o1 + j, c10);
    _mm256_storeu_ps(o1 + j + kLanes, c11);
    _mm256_storeu_ps(o2 + j, c20);
    _mm256_storeu_ps(o2 + j + kLanes, c21);
    _mm256_storeu_ps(o3 + j, c30);
    _mm256_storeu_ps(o3 + j + kLanes, c31);
  }
  for (; j < n; j += kLanes) {
    const __m256i mask = TailMask(n - j);
    __m256 c0 = _mm256_maskload_ps(o0 + j, mask);
    __m256 c1 = _mm256_maskload_ps(o1 + j, mask);
    __m256 c2 = _mm256_maskload_ps(o2 + j, mask);
    __m256 c3 = _mm256_maskload_ps(o3 + j, mask);
    for (int64_t kk = k0; kk < k1; ++kk) {
      const __m256 bv = _mm256_maskload_ps(b + kk * n + j, mask);
      const float* ak = a_row + kk * col_stride;
      c0 = _mm256_fmadd_ps(_mm256_broadcast_ss(ak), bv, c0);
      c1 = _mm256_fmadd_ps(_mm256_broadcast_ss(ak + row_stride), bv, c1);
      c2 = _mm256_fmadd_ps(_mm256_broadcast_ss(ak + 2 * row_stride), bv, c2);
      c3 = _mm256_fmadd_ps(_mm256_broadcast_ss(ak + 3 * row_stride), bv, c3);
    }
    _mm256_maskstore_ps(o0 + j, mask, c0);
    _mm256_maskstore_ps(o1 + j, mask, c1);
    _mm256_maskstore_ps(o2 + j, mask, c2);
    _mm256_maskstore_ps(o3 + j, mask, c3);
  }
}

// out rows [row_begin, row_end) += A x B. Per k-tile, rows go four at a time
// through MatMulRows4 and the last (row_end - row_begin) % 4 one at a time
// through MatMulRow. Per output element the accumulation walks kk ascending,
// tile by tile, as the scalar reference does, except that mul+add fuses
// into FMA.
void MatMulStrided(const float* a, int64_t row_stride, int64_t col_stride,
                   const float* b, float* out, int64_t row_begin,
                   int64_t row_end, int64_t k, int64_t n) {
  for (int64_t k0 = 0; k0 < k; k0 += kMatMulKTile) {
    const int64_t k1 = std::min(k, k0 + kMatMulKTile);
    int64_t i = row_begin;
    for (; i + 4 <= row_end; i += 4) {
      MatMulRows4(a + i * row_stride, row_stride, col_stride, b, out + i * n,
                  k0, k1, n);
    }
    for (; i < row_end; ++i) {
      MatMulRow(a + i * row_stride, col_stride, b, out + i * n, k0, k1, n);
    }
  }
}

void Avx2MatMulRowRange(const float* a, const float* b, float* out,
                        int64_t row_begin, int64_t row_end, int64_t k,
                        int64_t n) {
  MatMulStrided(a, k, 1, b, out, row_begin, row_end, k, n);
}

void Avx2MatMulTnRowRange(const float* a, int64_t lda, const float* b,
                          float* out, int64_t row_begin, int64_t row_end,
                          int64_t k, int64_t n) {
  MatMulStrided(a, 1, lda, b, out, row_begin, row_end, k, n);
}

double Avx2ReduceSumRange(const float* a, int64_t begin, int64_t end) {
  __m256d acc = _mm256_setzero_pd();
  int64_t i = begin;
  for (; i + kLanes <= end; i += kLanes) {
    const __m256 v = _mm256_loadu_ps(a + i);
    acc = _mm256_add_pd(acc, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
    acc = _mm256_add_pd(acc, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  // Fixed association — the horizontal order is part of the result.
  double total = ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
  for (; i < end; ++i) total += static_cast<double>(a[i]);
  return total;
}

void Avx2ReduceSumDimSlice(const float* a, float* out, int64_t size,
                           int64_t inner) {
  // Accumulates each i-chunk in a register across s ascending — per element
  // the identical add sequence to scalar, so this path is bitwise parity.
  int64_t i = 0;
  for (; i + kLanes <= inner; i += kLanes) {
    __m256 acc = _mm256_setzero_ps();
    for (int64_t s = 0; s < size; ++s) {
      acc = _mm256_add_ps(acc, _mm256_loadu_ps(a + s * inner + i));
    }
    _mm256_storeu_ps(out + i, acc);
  }
  if (i < inner) {
    const __m256i mask = TailMask(inner - i);
    __m256 acc = _mm256_setzero_ps();
    for (int64_t s = 0; s < size; ++s) {
      acc = _mm256_add_ps(acc, _mm256_maskload_ps(a + s * inner + i, mask));
    }
    _mm256_maskstore_ps(out + i, mask, acc);
  }
}

void Avx2SoftmaxSlice(const float* a, float* out, int64_t size,
                      int64_t inner) {
  if (inner == 1) {
    // Contiguous over s: vector max (exact in any order), vector exp with a
    // lane-parallel denominator (covered by the softmax tolerance).
    __m256 vmax = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
    int64_t s = 0;
    for (; s + kLanes <= size; s += kLanes) {
      vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(a + s));
    }
    alignas(32) float max_lanes[8];
    _mm256_store_ps(max_lanes, vmax);
    float max_v = max_lanes[0];
    for (int lane = 1; lane < 8; ++lane) {
      max_v = std::max(max_v, max_lanes[lane]);
    }
    for (; s < size; ++s) max_v = std::max(max_v, a[s]);

    const __m256 vm = _mm256_set1_ps(max_v);
    __m256 vsum = _mm256_setzero_ps();
    s = 0;
    for (; s + kLanes <= size; s += kLanes) {
      const __m256 e = ExpPs(_mm256_sub_ps(_mm256_loadu_ps(a + s), vm));
      _mm256_storeu_ps(out + s, e);
      vsum = _mm256_add_ps(vsum, e);
    }
    if (s < size) {
      const __m256i mask = TailMask(size - s);
      const __m256 e =
          ExpPs(_mm256_sub_ps(_mm256_maskload_ps(a + s, mask), vm));
      _mm256_maskstore_ps(out + s, mask, e);
      vsum = _mm256_add_ps(vsum,
                           _mm256_and_ps(e, _mm256_castsi256_ps(mask)));
    }
    alignas(32) float sum_lanes[8];
    _mm256_store_ps(sum_lanes, vsum);
    float denom = ((sum_lanes[0] + sum_lanes[1]) +
                   (sum_lanes[2] + sum_lanes[3])) +
                  ((sum_lanes[4] + sum_lanes[5]) +
                   (sum_lanes[6] + sum_lanes[7]));
    const __m256 vinv = _mm256_set1_ps(1.0f / denom);
    s = 0;
    for (; s + kLanes <= size; s += kLanes) {
      _mm256_storeu_ps(out + s,
                       _mm256_mul_ps(_mm256_loadu_ps(out + s), vinv));
    }
    if (s < size) {
      const __m256i mask = TailMask(size - s);
      _mm256_maskstore_ps(
          out + s, mask,
          _mm256_mul_ps(_mm256_maskload_ps(out + s, mask), vinv));
    }
    return;
  }

  // inner > 1: vectorize across i — each lane runs the scalar algorithm
  // (s-ascending denominator), so only the exp approximation differs.
  const __m256 one = _mm256_set1_ps(1.0f);
  int64_t i = 0;
  for (; i + kLanes <= inner; i += kLanes) {
    __m256 vmax = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
    for (int64_t s = 0; s < size; ++s) {
      vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(a + s * inner + i));
    }
    __m256 vdenom = _mm256_setzero_ps();
    for (int64_t s = 0; s < size; ++s) {
      const __m256 e =
          ExpPs(_mm256_sub_ps(_mm256_loadu_ps(a + s * inner + i), vmax));
      _mm256_storeu_ps(out + s * inner + i, e);
      vdenom = _mm256_add_ps(vdenom, e);
    }
    const __m256 vinv = _mm256_div_ps(one, vdenom);
    for (int64_t s = 0; s < size; ++s) {
      _mm256_storeu_ps(
          out + s * inner + i,
          _mm256_mul_ps(_mm256_loadu_ps(out + s * inner + i), vinv));
    }
  }
  if (i < inner) {
    const __m256i mask = TailMask(inner - i);
    __m256 vmax = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
    for (int64_t s = 0; s < size; ++s) {
      const __m256 v = _mm256_maskload_ps(a + s * inner + i, mask);
      vmax = _mm256_max_ps(vmax, _mm256_blendv_ps(vmax, v,
                                                  _mm256_castsi256_ps(mask)));
    }
    __m256 vdenom = _mm256_setzero_ps();
    for (int64_t s = 0; s < size; ++s) {
      const __m256 e = ExpPs(
          _mm256_sub_ps(_mm256_maskload_ps(a + s * inner + i, mask), vmax));
      _mm256_maskstore_ps(out + s * inner + i, mask, e);
      vdenom = _mm256_add_ps(vdenom, e);
    }
    const __m256 vinv = _mm256_div_ps(one, vdenom);
    for (int64_t s = 0; s < size; ++s) {
      _mm256_maskstore_ps(
          out + s * inner + i, mask,
          _mm256_mul_ps(_mm256_maskload_ps(out + s * inner + i, mask),
                        vinv));
    }
  }
}

constexpr KernelBackend kAvx2Backend = {
    /*name=*/"avx2",
    /*ewise_unary=*/&Avx2EwiseUnary,
    /*ewise_binary=*/&Avx2EwiseBinary,
    /*bias_add=*/&Avx2BiasAdd,
    /*matmul_row_range=*/&Avx2MatMulRowRange,
    /*matmul_tn_row_range=*/&Avx2MatMulTnRowRange,
    /*reduce_sum_range=*/&Avx2ReduceSumRange,
    /*reduce_sum_dim_slice=*/&Avx2ReduceSumDimSlice,
    /*softmax_slice=*/&Avx2SoftmaxSlice,
};

}  // namespace

const KernelBackend* Avx2BackendOrNull() {
  // Registration is runtime-gated on cpuid: the table pointer only escapes
  // when the machine can execute every instruction in this TU.
  static const KernelBackend* const backend = [] {
    const CpuFeatures& cpu = DetectCpuFeatures();
    return cpu.avx2 && cpu.fma
               ? &kAvx2Backend
               : static_cast<const KernelBackend*>(nullptr);
  }();
  return backend;
}

}  // namespace d2stgnn::kernels

#else  // !(__AVX2__ && __FMA__): non-x86 or a toolchain without AVX2.

namespace d2stgnn::kernels {

const KernelBackend* Avx2BackendOrNull() { return nullptr; }

}  // namespace d2stgnn::kernels

#endif
