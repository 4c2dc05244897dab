#include "tensor/kernels.h"

#include <algorithm>
#include <array>
#include <functional>

#include "common/check.h"

// The parallel half of the kernel layer: partitions every op into chunks
// whose boundaries depend only on the problem size and hands each chunk to a
// serial backend range kernel. Backend choice never changes the chunking, so
// per-backend determinism (1 vs N threads) holds for every backend.

namespace d2stgnn::kernels {
namespace {

// Row block each MatMul task owns: big enough to amortize dispatch, small
// enough to spread a single large matrix over the pool.
constexpr int64_t kMatMulRowBlock = 32;

// Outer-loop grain so each chunk carries ~kEwiseGrain elements of work.
// Depends only on the slice size, never the thread count (determinism).
int64_t OuterGrain(int64_t elems_per_slice) {
  return std::max<int64_t>(1, kEwiseGrain / std::max<int64_t>(1,
                                                              elems_per_slice));
}

// A strided walk over a row-major output and up to two strided operands,
// coalesced: unit dimensions are dropped, and a dimension merges into the
// one inside it when the output and both operands step across the inner
// one contiguously (outer stride = inner stride x inner size, which also
// merges runs of stride-0 dimensions). Dimension rank - 1 is the innermost,
// the row each chunk runs as one loop.
struct CoalescedWalk {
  size_t rank = 0;
  std::array<int64_t, kMaxWalkRank> size{};
  std::array<int64_t, kMaxWalkRank> as{};
  std::array<int64_t, kMaxWalkRank> bs{};
};

CoalescedWalk Coalesce(const Shape& out, const std::vector<int64_t>& as,
                       const std::vector<int64_t>& bs) {
  // Built innermost first, then reversed.
  CoalescedWalk w;
  for (size_t d = out.size(); d-- > 0;) {
    if (out[d] == 1) continue;
    if (w.rank > 0) {
      const size_t in = w.rank - 1;
      if (as[d] == w.as[in] * w.size[in] && bs[d] == w.bs[in] * w.size[in]) {
        w.size[in] *= out[d];
        continue;
      }
    }
    D2_CHECK_LT(w.rank, kMaxWalkRank)
        << "strided walk over " << ShapeToString(out) << " keeps more than "
        << kMaxWalkRank << " dimensions after coalescing";
    w.size[w.rank] = out[d];
    w.as[w.rank] = as[d];
    w.bs[w.rank] = bs[d];
    ++w.rank;
  }
  if (w.rank == 0) {  // a scalar or all-unit output: one row of one element
    w.size[0] = 1;
    w.rank = 1;
  }
  std::reverse(w.size.begin(), w.size.begin() + w.rank);
  std::reverse(w.as.begin(), w.as.begin() + w.rank);
  std::reverse(w.bs.begin(), w.bs.begin() + w.rank);
  return w;
}

// Calls row(out_flat, a_off, b_off, len) for each maximal piece of an
// innermost row inside flat output indices [lo, hi): the piece covers
// out[out_flat, out_flat + len), with operand j at offset + j * inner
// stride. The outer dimensions advance once per row.
template <typename Row>
void WalkRows(const CoalescedWalk& w, int64_t lo, int64_t hi, Row row) {
  const size_t inner = w.rank - 1;
  std::array<int64_t, kMaxWalkRank> idx{};
  int64_t a_off = 0;
  int64_t b_off = 0;
  int64_t rem = lo;
  for (size_t d = w.rank; d-- > 0;) {
    idx[d] = rem % w.size[d];
    rem /= w.size[d];
    a_off += idx[d] * w.as[d];
    b_off += idx[d] * w.bs[d];
  }
  for (int64_t i = lo;;) {
    const int64_t len = std::min(w.size[inner] - idx[inner], hi - i);
    row(i, a_off, b_off, len);
    i += len;
    if (i >= hi) return;
    // The row ended inside the range: rewind it and step the outer odometer.
    a_off -= idx[inner] * w.as[inner];
    b_off -= idx[inner] * w.bs[inner];
    idx[inner] = 0;
    for (size_t d = inner; d-- > 0;) {
      ++idx[d];
      a_off += w.as[d];
      b_off += w.bs[d];
      if (idx[d] < w.size[d]) break;
      a_off -= w.as[d] * w.size[d];
      b_off -= w.bs[d] * w.size[d];
      idx[d] = 0;
    }
  }
}

// One row of a broadcast binary op: out[j] = op(a[j * sa], b[j * sb]).
template <typename Op>
void BinaryRow(Op op, const float* a, int64_t sa, const float* b, int64_t sb,
               float* out, int64_t len) {
  if (sa == 1 && sb == 1) {
    for (int64_t j = 0; j < len; ++j) out[j] = op(a[j], b[j]);
  } else if (sa == 1 && sb == 0) {
    const float y = *b;
    for (int64_t j = 0; j < len; ++j) out[j] = op(a[j], y);
  } else if (sa == 0 && sb == 1) {
    const float x = *a;
    for (int64_t j = 0; j < len; ++j) out[j] = op(x, b[j]);
  } else {
    for (int64_t j = 0; j < len; ++j) out[j] = op(a[j * sa], b[j * sb]);
  }
}

template <typename Op>
void BroadcastWalk(Op op, const CoalescedWalk& w, const float* a,
                   const float* b, float* out, int64_t n) {
  const int64_t sa = w.as[w.rank - 1];
  const int64_t sb = w.bs[w.rank - 1];
  ParallelFor(0, n, kEwiseGrain, [&](int64_t lo, int64_t hi) {
    WalkRows(w, lo, hi, [&](int64_t i, int64_t ao, int64_t bo, int64_t len) {
      BinaryRow(op, a + ao, sa, b + bo, sb, out + i, len);
    });
  });
}

// Matrix-plus-row-vector broadcast: a dense over the full output, b strided
// [0, ..., 0, 1]. Routed to the backend bias_add entry.
bool IsBiasAddPattern(const Shape& out_shape, const std::vector<int64_t>& as,
                      const std::vector<int64_t>& bs) {
  if (out_shape.size() < 2 || out_shape.back() < 1) return false;
  if (bs.back() != 1) return false;
  for (size_t d = 0; d + 1 < bs.size(); ++d) {
    if (bs[d] != 0) return false;
  }
  return as == RowMajorStrides(out_shape);
}

}  // namespace

Shape AlignShape(const Shape& shape, size_t rank) {
  D2_CHECK_LE(shape.size(), rank);
  Shape aligned(rank, 1);
  std::copy(shape.begin(), shape.end(),
            aligned.begin() + static_cast<int64_t>(rank - shape.size()));
  return aligned;
}

std::vector<int64_t> BroadcastStrides(const Shape& shape, const Shape& out) {
  const Shape aligned = AlignShape(shape, out.size());
  const std::vector<int64_t> strides = RowMajorStrides(aligned);
  std::vector<int64_t> result(out.size());
  for (size_t d = 0; d < out.size(); ++d) {
    if (aligned[d] == 1 && out[d] != 1) {
      result[d] = 0;
    } else {
      D2_CHECK_EQ(aligned[d], out[d])
          << "cannot broadcast " << ShapeToString(shape) << " to "
          << ShapeToString(out);
      result[d] = strides[d];
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Elementwise.

void EwiseUnary(const KernelBackend& backend, UnaryKind kind,
                UnaryParams params, const float* a, float* out, int64_t n) {
  ParallelFor(0, n, kEwiseGrain, [&](int64_t lo, int64_t hi) {
    backend.ewise_unary(kind, params, a, out, lo, hi);
  });
}

void EwiseBinary(const KernelBackend& backend, BinaryKind kind,
                 const float* a, const float* b, float* out, int64_t n) {
  ParallelFor(0, n, kEwiseGrain, [&](int64_t lo, int64_t hi) {
    backend.ewise_binary(kind, a, b, out, lo, hi);
  });
}

void EwiseBinaryBroadcast(const KernelBackend& backend, BinaryKind kind,
                          const Shape& out_shape,
                          const std::vector<int64_t>& as,
                          const std::vector<int64_t>& bs, const float* a,
                          const float* b, float* out) {
  if (kind == BinaryKind::kAdd && IsBiasAddPattern(out_shape, as, bs)) {
    const int64_t n = out_shape.back();
    const int64_t rows = NumElements(out_shape) / n;
    ParallelFor(0, rows, OuterGrain(n), [&](int64_t lo, int64_t hi) {
      backend.bias_add(a, b, out, lo, hi, n);
    });
    return;
  }
  const int64_t n = NumElements(out_shape);
  if (n == 0) return;
  const CoalescedWalk w = Coalesce(out_shape, as, bs);
  switch (kind) {
    case BinaryKind::kAdd:
      BroadcastWalk(std::plus<float>(), w, a, b, out, n);
      return;
    case BinaryKind::kSub:
      BroadcastWalk(std::minus<float>(), w, a, b, out, n);
      return;
    case BinaryKind::kMul:
      BroadcastWalk(std::multiplies<float>(), w, a, b, out, n);
      return;
  }
}

void GatherStrided(const Shape& out_shape, const std::vector<int64_t>& strides,
                   const float* a, float* out) {
  const int64_t n = NumElements(out_shape);
  if (n == 0) return;
  const CoalescedWalk w =
      Coalesce(out_shape, strides, std::vector<int64_t>(out_shape.size(), 0));
  const int64_t s = w.as[w.rank - 1];
  ParallelFor(0, n, kEwiseGrain, [&](int64_t lo, int64_t hi) {
    WalkRows(w, lo, hi, [&](int64_t i, int64_t src, int64_t, int64_t len) {
      float* dst = out + i;
      if (s == 1) {
        std::copy(a + src, a + src + len, dst);
      } else if (s == 0) {
        std::fill(dst, dst + len, a[src]);
      } else {
        for (int64_t j = 0; j < len; ++j) dst[j] = a[src + j * s];
      }
    });
  });
}

// ---------------------------------------------------------------------------
// MatMul.

namespace {

void MatMulBatches(const KernelBackend& backend, const float* a,
                   const float* b, float* out, const int64_t* a_offsets,
                   const int64_t* b_offsets, int64_t batch, int64_t m,
                   int64_t k, int64_t n) {
  const int64_t row_blocks = (m + kMatMulRowBlock - 1) / kMatMulRowBlock;
  const int64_t out_matrix = m * n;
  // Each task owns the output rows of one (batch, row-block) pair — every
  // output element is written by exactly one task, in a fixed order.
  ParallelFor(0, batch * row_blocks, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t task = lo; task < hi; ++task) {
      const int64_t bi = task / row_blocks;
      const int64_t r0 = (task % row_blocks) * kMatMulRowBlock;
      const int64_t r1 = std::min(m, r0 + kMatMulRowBlock);
      backend.matmul_row_range(a + a_offsets[bi], b + b_offsets[bi],
                               out + bi * out_matrix, r0, r1, k, n);
    }
  });
}

// One operand of AccumulateProducts: batch i reads the matrix at
// data + offsets[i], or at data + i * stride when offsets is null.
struct BatchOperand {
  const float* data;
  const int64_t* offsets;
  int64_t stride;
  const float* Matrix(int64_t i) const {
    return data + (offsets != nullptr ? offsets[i] : i * stride);
  }
};

// dest[dest_offsets[i]] += L_i x rhs_i ([rows, red] x [red, cols]) for
// every batch i, where `dest` holds `dest_matrices` [rows, cols] matrices.
// L_i is the lhs matrix itself, or with `lhs_transposed` the transpose of
// the row-major [red, rows] lhs matrix, read in place. Each task owns one
// (destination matrix, kMatMulRowBlock rows), the partition MatMulBatches
// uses, and adds the batches that map onto it in ascending batch order, so
// every destination element is one accumulation chain whatever the thread
// count.
void AccumulateProducts(const KernelBackend& backend, BatchOperand lhs,
                        bool lhs_transposed, BatchOperand rhs, float* dest,
                        const int64_t* dest_offsets, int64_t dest_matrices,
                        int64_t batches, int64_t rows, int64_t red,
                        int64_t cols) {
  if (dest_matrices == 0 || rows == 0 || cols == 0) return;
  const int64_t dest_matrix = rows * cols;
  // Stable counting sort of the batches by destination matrix: batches
  // order[first[d]..first[d+1]) land on matrix d, ascending.
  std::vector<int64_t> first(static_cast<size_t>(dest_matrices + 1), 0);
  for (int64_t i = 0; i < batches; ++i) {
    ++first[static_cast<size_t>(dest_offsets[i] / dest_matrix + 1)];
  }
  for (size_t d = 1; d < first.size(); ++d) first[d] += first[d - 1];
  std::vector<int64_t> order(static_cast<size_t>(batches));
  std::vector<int64_t> next(first.begin(), first.end() - 1);
  for (int64_t i = 0; i < batches; ++i) {
    order[static_cast<size_t>(next[static_cast<size_t>(
        dest_offsets[i] / dest_matrix)]++)] = i;
  }
  const int64_t row_blocks = (rows + kMatMulRowBlock - 1) / kMatMulRowBlock;
  ParallelFor(0, dest_matrices * row_blocks, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t task = lo; task < hi; ++task) {
      const size_t d = static_cast<size_t>(task / row_blocks);
      const int64_t r0 = (task % row_blocks) * kMatMulRowBlock;
      const int64_t r1 = std::min(rows, r0 + kMatMulRowBlock);
      float* out = dest + static_cast<int64_t>(d) * dest_matrix;
      for (int64_t j = first[d]; j < first[d + 1]; ++j) {
        const int64_t i = order[static_cast<size_t>(j)];
        if (lhs_transposed) {
          backend.matmul_tn_row_range(lhs.Matrix(i), rows, rhs.Matrix(i),
                                      out, r0, r1, red, cols);
        } else {
          backend.matmul_row_range(lhs.Matrix(i), rhs.Matrix(i), out, r0, r1,
                                   red, cols);
        }
      }
    }
  });
}

// Copies each of `count` dense [rows, cols] matrices to [cols, rows] — the
// B^T operand of the input-gradient product (weights: small). It keeps each
// matrix's element offset, so the layout's offsets index the copy
// unchanged.
std::vector<float> TransposedMatrices(const float* src, int64_t count,
                                      int64_t rows, int64_t cols) {
  const int64_t matrix = rows * cols;
  std::vector<float> dst(static_cast<size_t>(count * matrix));
  ParallelFor(0, count, OuterGrain(matrix), [&](int64_t lo, int64_t hi) {
    for (int64_t mi = lo; mi < hi; ++mi) {
      const float* s = src + mi * matrix;
      float* t = dst.data() + mi * matrix;
      for (int64_t r = 0; r < rows; ++r) {
        for (int64_t c = 0; c < cols; ++c) t[c * rows + r] = s[r * cols + c];
      }
    }
  });
  return dst;
}

}  // namespace

void BatchedMatMul(const KernelBackend& backend, const float* a,
                   const float* b, float* out,
                   const std::vector<int64_t>& a_offsets,
                   const std::vector<int64_t>& b_offsets, int64_t m, int64_t k,
                   int64_t n) {
  D2_CHECK_EQ(a_offsets.size(), b_offsets.size());
  MatMulBatches(backend, a, b, out, a_offsets.data(), b_offsets.data(),
                static_cast<int64_t>(a_offsets.size()), m, k, n);
}

void BatchedMatMul(const KernelBackend& backend, const MatMulLayout& layout,
                   const float* a, const float* b, float* out) {
  MatMulBatches(backend, a, b, out, layout.a_offsets(), layout.b_offsets(),
                layout.batches(), layout.m, layout.k, layout.n);
}

void BatchedMatMulGradA(const KernelBackend& backend,
                        const MatMulLayout& layout, const float* g,
                        const float* b, float* grad_a) {
  const int64_t m = layout.m;
  const int64_t k = layout.k;
  const int64_t n = layout.n;
  const std::vector<float> bt =
      TransposedMatrices(b, layout.b_matrices, k, n);
  AccumulateProducts(backend, {g, nullptr, m * n}, /*lhs_transposed=*/false,
                     {bt.data(), layout.b_offsets(), 0}, grad_a,
                     layout.a_offsets(), layout.a_matrices, layout.batches(),
                     m, n, k);
}

void BatchedMatMulGradB(const KernelBackend& backend,
                        const MatMulLayout& layout, const float* a,
                        const float* g, float* grad_b) {
  const int64_t m = layout.m;
  AccumulateProducts(backend, {a, layout.a_offsets(), 0},
                     /*lhs_transposed=*/true, {g, nullptr, m * layout.n},
                     grad_b, layout.b_offsets(), layout.b_matrices,
                     layout.batches(), layout.k, m, layout.n);
}

// ---------------------------------------------------------------------------
// Reductions.

double ReduceSumAll(const KernelBackend& backend, const float* a, int64_t n) {
  if (n == 0) return 0.0;
  const int64_t blocks = (n + kReduceBlock - 1) / kReduceBlock;
  std::vector<double> partials(static_cast<size_t>(blocks), 0.0);
  ParallelFor(0, blocks, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t blk = lo; blk < hi; ++blk) {
      const int64_t i0 = blk * kReduceBlock;
      const int64_t i1 = std::min(n, i0 + kReduceBlock);
      partials[static_cast<size_t>(blk)] = backend.reduce_sum_range(a, i0, i1);
    }
  });
  double total = 0.0;
  for (double p : partials) total += p;
  return total;
}

void ReduceSumDim(const KernelBackend& backend, const float* a, float* out,
                  int64_t outer, int64_t size, int64_t inner) {
  ParallelFor(0, outer, OuterGrain(size * inner), [&](int64_t lo, int64_t hi) {
    for (int64_t o = lo; o < hi; ++o) {
      backend.reduce_sum_dim_slice(a + o * size * inner, out + o * inner,
                                   size, inner);
    }
  });
}

// ---------------------------------------------------------------------------
// Softmax.

void SoftmaxKernel(const KernelBackend& backend, const float* a, float* out,
                   int64_t outer, int64_t size, int64_t inner) {
  ParallelFor(0, outer, OuterGrain(size * inner), [&](int64_t lo, int64_t hi) {
    for (int64_t o = lo; o < hi; ++o) {
      backend.softmax_slice(a + o * size * inner, out + o * size * inner,
                            size, inner);
    }
  });
}

}  // namespace d2stgnn::kernels
