#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "simd/simd_math.h"

namespace tsfm {

namespace {

// Row-major strides for `shape`.
std::vector<int64_t> RowMajorStrides(const Shape& shape) {
  std::vector<int64_t> s(shape.size(), 1);
  for (int64_t i = static_cast<int64_t>(shape.size()) - 2; i >= 0; --i) {
    s[static_cast<size_t>(i)] = s[static_cast<size_t>(i + 1)] *
                                shape[static_cast<size_t>(i + 1)];
  }
  return s;
}

// Strides for reading tensor `t` (which may itself be a strided view) as if
// broadcast to `out_shape`: the view's actual strides on matching dims, 0 on
// broadcast dims. `t.shape()` is right-aligned against `out_shape`. Lets
// strided kernels consume views without materializing them.
std::vector<int64_t> BroadcastViewStrides(const Tensor& t,
                                          const Shape& out_shape) {
  const Shape& shape = t.shape();
  std::vector<int64_t> out(out_shape.size(), 0);
  const int64_t offset = static_cast<int64_t>(out_shape.size()) -
                         static_cast<int64_t>(shape.size());
  for (size_t i = 0; i < shape.size(); ++i) {
    const size_t oi = static_cast<size_t>(offset) + i;
    if (shape[i] == out_shape[oi]) {
      out[oi] = t.strides()[i];
    } else {
      TSFM_CHECK_EQ(shape[i], 1)
          << "broadcast mismatch " << ShapeToString(shape) << " vs "
          << ShapeToString(out_shape);
      out[oi] = 0;
    }
  }
  return out;
}

// Work counters, one atomic add per *op call* (never per element): FLOPs
// through the matmul kernel and bytes moved by elementwise/unary kernels.
// Together they turn a trace or metrics snapshot into a roofline estimate —
// spans give the seconds, these give the work done in them.
struct OpMetrics {
  obs::Counter* matmul_calls;
  obs::Counter* matmul_flops;
  obs::Counter* elementwise_calls;
  obs::Counter* elementwise_bytes;
  obs::Counter* reduce_calls;
};

OpMetrics& Metrics() {
  auto& r = obs::Registry::Instance();
  static OpMetrics m{r.GetCounter("tensor.matmul_calls"),
                     r.GetCounter("tensor.matmul_flops"),
                     r.GetCounter("tensor.elementwise_calls"),
                     r.GetCounter("tensor.elementwise_bytes"),
                     r.GetCounter("tensor.reduce_calls")};
  return m;
}

// Elementwise kernels dispatch through ParallelFor with this grain, so
// tensors smaller than one chunk run inline with zero scheduling cost.
constexpr int64_t kElementwiseGrain = 1 << 14;
// Reductions use a larger grain: chunk boundaries are part of the
// determinism contract, so the value must not depend on the thread count.
constexpr int64_t kReduceGrain = 1 << 16;

// Strides for reading `shape` as if broadcast to `out_shape` (0 stride on
// broadcast dims). `shape` is right-aligned against `out_shape`. Used by
// MatMul for its synthetic batch shapes, which are always dense.
std::vector<int64_t> BroadcastStrides(const Shape& shape,
                                      const Shape& out_shape) {
  const std::vector<int64_t> in_strides = RowMajorStrides(shape);
  std::vector<int64_t> out(out_shape.size(), 0);
  const int64_t offset =
      static_cast<int64_t>(out_shape.size()) - static_cast<int64_t>(shape.size());
  for (size_t i = 0; i < shape.size(); ++i) {
    const size_t oi = static_cast<size_t>(offset) + i;
    if (shape[i] == out_shape[oi]) {
      out[oi] = in_strides[i];
    } else {
      TSFM_CHECK_EQ(shape[i], 1)
          << "broadcast mismatch " << ShapeToString(shape) << " vs "
          << ShapeToString(out_shape);
      out[oi] = 0;
    }
  }
  return out;
}

template <typename F>
Tensor BinaryOp(const Tensor& a, const Tensor& b, F f) {
  OpMetrics& m = Metrics();
  m.elementwise_calls->Add(1);
  if (a.shape() == b.shape() && a.is_contiguous() && b.is_contiguous()) {
    m.elementwise_bytes->Add(
        static_cast<uint64_t>(3 * a.numel() * sizeof(float)));
    Tensor out = Tensor::Empty(a.shape());
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.mutable_data();
    runtime::ParallelFor(0, a.numel(), kElementwiseGrain,
                         [&](int64_t lo, int64_t hi) {
                           for (int64_t i = lo; i < hi; ++i) {
                             po[i] = f(pa[i], pb[i]);
                           }
                         });
    return out;
  }
  // Strided/broadcast path: reads go through each input's actual strides, so
  // views (slices, transposes) are consumed in place with no materialize.
  const Shape out_shape = BroadcastShapes(a.shape(), b.shape());
  m.elementwise_bytes->Add(static_cast<uint64_t>(
      (a.numel() + b.numel() + NumElements(out_shape)) * sizeof(float)));
  Tensor out = Tensor::Empty(out_shape);
  const auto sa = BroadcastViewStrides(a, out_shape);
  const auto sb = BroadcastViewStrides(b, out_shape);
  const auto so = RowMajorStrides(out_shape);
  const int64_t nd = static_cast<int64_t>(out_shape.size());
  const float* pa = a.base();
  const float* pb = b.base();
  float* po = out.mutable_data();

  // Row fast path: when the last axis is dense (unit or broadcast stride) on
  // both inputs — bias adds, per-row statistics, affine gains all land here —
  // the odometer runs once per ROW instead of once per element, and the
  // dense inner loops vectorize. Results are pointwise identical to the
  // generic path; only the index arithmetic changes.
  const int64_t row_len = out_shape.empty() ? 0 : out_shape[nd - 1];
  const bool a_dense = nd > 0 && (sa[nd - 1] == 1 || sa[nd - 1] == 0);
  const bool b_dense = nd > 0 && (sb[nd - 1] == 1 || sb[nd - 1] == 0);
  if (row_len >= 8 && a_dense && b_dense) {
    const int64_t rows = out.numel() / row_len;
    const bool a_unit = sa[nd - 1] == 1;
    const bool b_unit = sb[nd - 1] == 1;
    const int64_t grain =
        std::max<int64_t>(1, kElementwiseGrain / row_len);
    runtime::ParallelFor(0, rows, grain, [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        int64_t ia = 0, ib = 0, rem = r;
        for (int64_t d = 0; d + 1 < nd; ++d) {
          const int64_t outer = so[d] / row_len;
          const int64_t idx = rem / outer;
          rem -= idx * outer;
          ia += idx * sa[d];
          ib += idx * sb[d];
        }
        const float* ra = pa + ia;
        const float* rb = pb + ib;
        float* ro = po + r * row_len;
        if (a_unit && b_unit) {
          for (int64_t i = 0; i < row_len; ++i) ro[i] = f(ra[i], rb[i]);
        } else if (a_unit) {
          const float y = rb[0];
          for (int64_t i = 0; i < row_len; ++i) ro[i] = f(ra[i], y);
        } else if (b_unit) {
          const float x = ra[0];
          for (int64_t i = 0; i < row_len; ++i) ro[i] = f(x, rb[i]);
        } else {
          const float v = f(ra[0], rb[0]);
          for (int64_t i = 0; i < row_len; ++i) ro[i] = v;
        }
      }
    });
    return out;
  }

  runtime::ParallelFor(
      0, out.numel(), kElementwiseGrain, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          int64_t ia = 0, ib = 0, rem = i;
          for (int64_t d = 0; d < nd; ++d) {
            const int64_t idx = rem / so[d];
            rem -= idx * so[d];
            ia += idx * sa[d];
            ib += idx * sb[d];
          }
          po[i] = f(pa[ia], pb[ib]);
        }
      });
  return out;
}

template <typename F>
Tensor UnaryOp(const Tensor& t, F f) {
  OpMetrics& m = Metrics();
  m.elementwise_calls->Add(1);
  m.elementwise_bytes->Add(
      static_cast<uint64_t>(2 * t.numel() * sizeof(float)));
  Tensor out = Tensor::Empty(t.shape());
  float* po = out.mutable_data();
  if (t.is_contiguous()) {
    const float* p = t.data();
    runtime::ParallelFor(0, t.numel(), kElementwiseGrain,
                         [&](int64_t lo, int64_t hi) {
                           for (int64_t i = lo; i < hi; ++i) po[i] = f(p[i]);
                         });
    return out;
  }
  // Strided view input: gather through the view's strides.
  const float* p = t.base();
  const auto& st = t.strides();
  const auto so = RowMajorStrides(t.shape());
  const int64_t nd = t.ndim();
  runtime::ParallelFor(
      0, t.numel(), kElementwiseGrain, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          int64_t src = 0, rem = i;
          for (int64_t d = 0; d < nd; ++d) {
            const int64_t idx = rem / so[static_cast<size_t>(d)];
            rem -= idx * so[static_cast<size_t>(d)];
            src += idx * st[static_cast<size_t>(d)];
          }
          po[i] = f(p[src]);
        }
      });
  return out;
}

// Transcendental unary: vectorized row kernel on the contiguous fast path,
// the kernel's scalar reference on the strided gather path. Each row kernel
// is bit-identical to its scalar reference applied element-wise, at any
// split point (simd/simd_math.h), so contiguity, chunk boundaries, and
// thread count cannot change output bits.
using RowKernel = void (*)(const float*, float*, int64_t);
using ScalarKernel = float (*)(float);
Tensor UnaryRowOp(const Tensor& t, RowKernel row, ScalarKernel scal) {
  if (!t.is_contiguous()) return UnaryOp(t, scal);
  OpMetrics& m = Metrics();
  m.elementwise_calls->Add(1);
  m.elementwise_bytes->Add(
      static_cast<uint64_t>(2 * t.numel() * sizeof(float)));
  Tensor out = Tensor::Empty(t.shape());
  float* po = out.mutable_data();
  const float* p = t.data();
  runtime::ParallelFor(0, t.numel(), kElementwiseGrain,
                       [&](int64_t lo, int64_t hi) {
                         row(p + lo, po + lo, hi - lo);
                       });
  return out;
}

// Collapses a shape into (outer, axis_len, inner) around `axis`.
void SplitAroundAxis(const Shape& shape, int64_t axis, int64_t* outer,
                     int64_t* len, int64_t* inner) {
  const int64_t nd = static_cast<int64_t>(shape.size());
  TSFM_CHECK_GE(axis, 0);
  TSFM_CHECK_LT(axis, nd);
  *outer = 1;
  *inner = 1;
  for (int64_t i = 0; i < axis; ++i) *outer *= shape[i];
  *len = shape[axis];
  for (int64_t i = axis + 1; i < nd; ++i) *inner *= shape[i];
}

int64_t NormalizeAxis(int64_t axis, int64_t ndim) {
  if (axis < 0) axis += ndim;
  TSFM_CHECK_GE(axis, 0);
  TSFM_CHECK_LT(axis, ndim);
  return axis;
}

Shape ReducedShape(const Shape& shape, int64_t axis, bool keepdim) {
  Shape out = shape;
  if (keepdim) {
    out[static_cast<size_t>(axis)] = 1;
  } else {
    out.erase(out.begin() + axis);
  }
  return out;
}

}  // namespace

bool ShapesBroadcastable(const Shape& a, const Shape& b) {
  const size_t n = std::max(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const int64_t da = i < a.size() ? a[a.size() - 1 - i] : 1;
    const int64_t db = i < b.size() ? b[b.size() - 1 - i] : 1;
    if (da != db && da != 1 && db != 1) return false;
  }
  return true;
}

Shape BroadcastShapes(const Shape& a, const Shape& b) {
  TSFM_CHECK(ShapesBroadcastable(a, b))
      << ShapeToString(a) << " vs " << ShapeToString(b);
  const size_t n = std::max(a.size(), b.size());
  Shape out(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t da = i < a.size() ? a[a.size() - 1 - i] : 1;
    const int64_t db = i < b.size() ? b[b.size() - 1 - i] : 1;
    out[n - 1 - i] = std::max(da, db);
  }
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](float x, float y) { return x + y; });
}
Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](float x, float y) { return x - y; });
}
Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](float x, float y) { return x * y; });
}
Tensor Div(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](float x, float y) { return x / y; });
}
Tensor Maximum(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](float x, float y) { return std::max(x, y); });
}

Tensor ReduceToShape(const Tensor& t, const Shape& target) {
  if (t.shape() == target) return t;
  TSFM_CHECK(ShapesBroadcastable(t.shape(), target));
  // Sum along all axes where target (right-aligned) is 1 or missing.
  Tensor cur = t;
  // First, sum away leading extra dims.
  while (cur.ndim() > static_cast<int64_t>(target.size())) {
    cur = Sum(cur, 0, /*keepdim=*/false);
  }
  for (int64_t d = 0; d < cur.ndim(); ++d) {
    if (target[static_cast<size_t>(d)] == 1 && cur.dim(d) != 1) {
      cur = Sum(cur, d, /*keepdim=*/true);
    }
  }
  TSFM_CHECK(cur.shape() == target)
      << "cannot reduce " << ShapeToString(t.shape()) << " to "
      << ShapeToString(target);
  return cur;
}

Tensor Neg(const Tensor& t) {
  return UnaryOp(t, [](float x) { return -x; });
}
Tensor Exp(const Tensor& t) {
  return UnaryRowOp(t, simd::ExpRow, simd::ExpS);
}
Tensor Log(const Tensor& t) {
  return UnaryOp(t, [](float x) { return std::log(x); });
}
Tensor Sqrt(const Tensor& t) {
  return UnaryOp(t, [](float x) { return std::sqrt(x); });
}
Tensor Tanh(const Tensor& t) {
  return UnaryRowOp(t, simd::TanhRow, simd::TanhS);
}
Tensor Sigmoid(const Tensor& t) {
  return UnaryRowOp(t, simd::SigmoidRow, simd::SigmoidS);
}
Tensor Relu(const Tensor& t) {
  return UnaryOp(t, [](float x) { return x > 0.0f ? x : 0.0f; });
}
Tensor Gelu(const Tensor& t) {
  return UnaryRowOp(t, simd::GeluRow, simd::GeluS);
}
Tensor Abs(const Tensor& t) {
  return UnaryOp(t, [](float x) { return std::fabs(x); });
}
Tensor Square(const Tensor& t) {
  return UnaryOp(t, [](float x) { return x * x; });
}
Tensor Scale(const Tensor& t, float s) {
  return UnaryOp(t, [s](float x) { return x * s; });
}
Tensor AddScalar(const Tensor& t, float s) {
  return UnaryOp(t, [s](float x) { return x + s; });
}
Tensor Pow(const Tensor& t, float p) {
  return UnaryOp(t, [p](float x) { return std::pow(x, p); });
}

namespace {

// Register-blocked GEMM tile: kMr C rows are accumulated against kNr C
// columns in a local array small enough to live in vector registers, so a
// B row segment is loaded once per kMr rows instead of once per row, and
// kMr independent accumulation chains hide FMA latency. The column width
// tracks the widest vector unit the build targets (2 vector registers per
// row). Every output element still accumulates its k products in
// ascending-k order, so the result is independent of the tiling and of the
// thread count.
#if defined(__AVX512F__)
constexpr int kNr = 32;
#elif defined(__AVX__)
constexpr int kNr = 16;
#else
constexpr int kNr = 8;
#endif
constexpr int kMr = 6;
// Rows per parallel task (a multiple of kMr so parallel splits and the
// serial path tile rows identically).
constexpr int64_t kRowsPerBlock = 60;

// C[r0:r1, :] = A[r0:r1, :] * B for one (m, k) x (k, n) problem. Tiling is
// anchored at r0, so callers must pass r0 aligned to the same row-block
// grid regardless of how the row range is split.
void MatMulRowRange(const float* pa, const float* pb, float* po, int64_t r0,
                    int64_t r1, int64_t k, int64_t n) {
  for (int64_t i0 = r0; i0 < r1; i0 += kMr) {
    const int64_t mr = std::min<int64_t>(kMr, r1 - i0);
    for (int64_t j0 = 0; j0 < n; j0 += kNr) {
      const int64_t nr = std::min<int64_t>(kNr, n - j0);
      float acc[kMr * kNr] = {0.0f};
      if (mr == kMr && nr == kNr) {
        // Full tile: fixed trip counts, fully unrolled and vectorized.
        for (int64_t kk = 0; kk < k; ++kk) {
          const float* brow = pb + kk * n + j0;
          for (int ii = 0; ii < kMr; ++ii) {
            const float av = pa[(i0 + ii) * k + kk];
            for (int jj = 0; jj < kNr; ++jj) {
              acc[ii * kNr + jj] += av * brow[jj];
            }
          }
        }
      } else {
        // Edge tile (m % kMr, n % kNr remainders).
        for (int64_t kk = 0; kk < k; ++kk) {
          const float* brow = pb + kk * n + j0;
          for (int64_t ii = 0; ii < mr; ++ii) {
            const float av = pa[(i0 + ii) * k + kk];
            for (int64_t jj = 0; jj < nr; ++jj) {
              acc[ii * kNr + jj] += av * brow[jj];
            }
          }
        }
      }
      for (int64_t ii = 0; ii < mr; ++ii) {
        float* crow = po + (i0 + ii) * n + j0;
        for (int64_t jj = 0; jj < nr; ++jj) crow[jj] = acc[ii * kNr + jj];
      }
    }
  }
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  TSFM_TRACE_SPAN("tensor.matmul");
  TSFM_CHECK_GE(a.ndim(), 2);
  TSFM_CHECK_GE(b.ndim(), 2);
  const int64_t m = a.dim(-2);
  const int64_t k = a.dim(-1);
  const int64_t k2 = b.dim(-2);
  const int64_t n = b.dim(-1);
  TSFM_CHECK_EQ(k, k2) << "matmul inner dims " << ShapeToString(a.shape())
                       << " x " << ShapeToString(b.shape());

  Shape a_batch(a.shape().begin(), a.shape().end() - 2);
  Shape b_batch(b.shape().begin(), b.shape().end() - 2);
  const Shape batch = BroadcastShapes(a_batch, b_batch);
  const int64_t nbatch = NumElements(batch);
  Shape out_shape = batch;
  out_shape.push_back(m);
  out_shape.push_back(n);
  Tensor out = Tensor::Empty(out_shape);

  // The register-blocked kernel needs dense row-major operands; strided
  // views (e.g. TransposeLast2 results) are packed once into pooled scratch
  // that is released as soon as the product is computed.
  const Tensor a_dense = a.Contiguous();
  const Tensor b_dense = b.Contiguous();

  OpMetrics& om = Metrics();
  om.matmul_calls->Add(1);
  om.matmul_flops->Add(static_cast<uint64_t>(2 * nbatch * m * k * n));

  // A 2-D `b` is one (k, n) matrix shared by every batch entry, so a's
  // leading dims fold into rows: one (nbatch·m, k) x (k, n) product on full
  // register tiles (every Linear, every backward grad x Wᵀ) instead of a
  // kMr tile plus an edge tile per batch entry. Each element still sums its
  // k products in ascending order, and full and edge tiles round alike, so
  // the fold changes no bits.
  const bool fold = b.ndim() == 2;
  const int64_t mats = fold ? 1 : nbatch;
  const int64_t rows = fold ? nbatch * m : m;
  const auto sa = BroadcastStrides(a_batch, batch);
  const auto sb = BroadcastStrides(b_batch, batch);
  const auto sbatch = RowMajorStrides(batch);
  const int64_t nd = fold ? 0 : static_cast<int64_t>(batch.size());

  const float* pa0 = a_dense.data();
  const float* pb0 = b_dense.data();
  float* po0 = out.mutable_data();

  // One task per (batch, row-block); the grain keeps chunks above ~1 MFLOP
  // so small matmuls stay inline. Tasks write disjoint C row ranges, and the
  // kernel's per-element accumulation order is fixed, so the result is
  // bit-identical for every thread count.
  const int64_t row_blocks = (rows + kRowsPerBlock - 1) / kRowsPerBlock;
  const int64_t total_blocks = mats * row_blocks;
  const int64_t block_flops =
      2 * std::min(rows, kRowsPerBlock) * std::max<int64_t>(k, 1) *
      std::max<int64_t>(n, 1);
  const int64_t grain =
      std::max<int64_t>(1, (1 << 20) / std::max<int64_t>(block_flops, 1));
  runtime::ParallelFor(
      0, total_blocks, grain, [&](int64_t lo, int64_t hi) {
        for (int64_t task = lo; task < hi; ++task) {
          const int64_t batch_idx = task / row_blocks;
          const int64_t block = task % row_blocks;
          int64_t ia = 0, ib = 0, rem = batch_idx;
          for (int64_t d = 0; d < nd; ++d) {
            const int64_t idx = rem / sbatch[d];
            rem -= idx * sbatch[d];
            ia += idx * sa[d];
            ib += idx * sb[d];
          }
          const float* pa = pa0 + ia * rows * k;
          const float* pb = pb0 + ib * k * n;
          float* po = po0 + batch_idx * rows * n;
          const int64_t r0 = block * kRowsPerBlock;
          const int64_t r1 = std::min(rows, r0 + kRowsPerBlock);
          MatMulRowRange(pa, pb, po, r0, r1, k, n);
        }
      });
  return out;
}

Tensor TransposeLast2(const Tensor& t) {
  std::vector<int64_t> perm(t.ndim());
  for (int64_t i = 0; i < t.ndim(); ++i) perm[static_cast<size_t>(i)] = i;
  TSFM_CHECK_GE(t.ndim(), 2);
  std::swap(perm[perm.size() - 1], perm[perm.size() - 2]);
  return t.PermuteAxes(perm);
}

Tensor Permute(const Tensor& t, const std::vector<int64_t>& perm) {
  return t.PermuteAxes(perm);
}

Tensor Slice(const Tensor& t, int64_t axis, int64_t start, int64_t end) {
  axis = NormalizeAxis(axis, t.ndim());
  TSFM_CHECK_LE(start, end);
  return t.Narrow(axis, start, end - start);
}

Tensor Concat(const std::vector<Tensor>& parts, int64_t axis) {
  TSFM_CHECK(!parts.empty());
  const int64_t nd = parts[0].ndim();
  axis = NormalizeAxis(axis, nd);
  int64_t total = 0;
  for (const Tensor& p : parts) {
    TSFM_CHECK_EQ(p.ndim(), nd);
    for (int64_t d = 0; d < nd; ++d) {
      if (d != axis) {
        TSFM_CHECK_EQ(p.dim(d), parts[0].dim(d));
      }
    }
    total += p.dim(axis);
  }
  Shape out_shape = parts[0].shape();
  out_shape[static_cast<size_t>(axis)] = total;
  Tensor out = Tensor::Empty(out_shape);
  int64_t outer, alen, inner;
  SplitAroundAxis(out_shape, axis, &outer, &alen, &inner);
  float* po = out.mutable_data();
  int64_t offset = 0;
  for (const Tensor& p : parts) {
    const Tensor pd = p.Contiguous();
    const int64_t plen = pd.dim(axis);
    const float* pi = pd.data();
    for (int64_t o = 0; o < outer; ++o) {
      std::copy(pi + o * plen * inner, pi + (o + 1) * plen * inner,
                po + (o * alen + offset) * inner);
    }
    offset += plen;
  }
  TSFM_CHECK_EQ(offset, alen);
  return out;
}

Tensor TakeRows(const Tensor& t, const std::vector<int64_t>& rows) {
  TSFM_CHECK_GE(t.ndim(), 1);
  const Tensor td = t.Contiguous();
  const int64_t n0 = td.dim(0);
  const int64_t inner = td.numel() / std::max<int64_t>(n0, 1);
  Shape out_shape = td.shape();
  out_shape[0] = static_cast<int64_t>(rows.size());
  Tensor out = Tensor::Empty(out_shape);
  const float* pi = td.data();
  float* po = out.mutable_data();
  for (size_t r = 0; r < rows.size(); ++r) {
    const int64_t src = rows[r];
    TSFM_CHECK_GE(src, 0);
    TSFM_CHECK_LT(src, n0);
    std::copy(pi + src * inner, pi + (src + 1) * inner,
              po + static_cast<int64_t>(r) * inner);
  }
  return out;
}

float SumAll(const Tensor& t) {
  // Double accumulation: the reductions feed statistics (mean/variance)
  // where float32 accumulation loses precision for large tensors. Chunked
  // partials combine in index order, so the value is thread-count
  // independent (chunk boundaries depend only on numel).
  TSFM_TRACE_SPAN("tensor.sum_all");
  Metrics().reduce_calls->Add(1);
  const Tensor td = t.Contiguous();
  const float* p = td.data();
  const double sum = runtime::ParallelReduce(
      0, t.numel(), kReduceGrain, 0.0,
      [p](int64_t lo, int64_t hi) {
        double s = 0.0;
        for (int64_t i = lo; i < hi; ++i) s += p[i];
        return s;
      },
      [](double acc, double part) { return acc + part; });
  return static_cast<float>(sum);
}

float MeanAll(const Tensor& t) {
  TSFM_CHECK_GT(t.numel(), 0);
  return SumAll(t) / static_cast<float>(t.numel());
}

float MaxAll(const Tensor& t) {
  TSFM_CHECK_GT(t.numel(), 0);
  const Tensor td = t.Contiguous();
  const float* p = td.data();
  return *std::max_element(p, p + td.numel());
}

float MinAll(const Tensor& t) {
  TSFM_CHECK_GT(t.numel(), 0);
  const Tensor td = t.Contiguous();
  const float* p = td.data();
  return *std::min_element(p, p + td.numel());
}

Tensor Sum(const Tensor& t, int64_t axis, bool keepdim) {
  TSFM_TRACE_SPAN("tensor.sum");
  Metrics().reduce_calls->Add(1);
  axis = NormalizeAxis(axis, t.ndim());
  Tensor out = Tensor::Empty(ReducedShape(t.shape(), axis, keepdim));
  const Tensor td = t.Contiguous();
  int64_t outer, len, inner;
  SplitAroundAxis(td.shape(), axis, &outer, &len, &inner);
  const float* pi = td.data();
  float* po = out.mutable_data();
  std::fill(po, po + out.numel(), 0.0f);
  // Parallel over `outer` only: each output element keeps its serial
  // ascending-l accumulation order, so results are bit-identical to the
  // single-threaded loop.
  const int64_t grain =
      std::max<int64_t>(1, kElementwiseGrain / std::max<int64_t>(1, len * inner));
  if (inner == 1) {
    // Last-axis reduction (layer-norm statistics): keep the accumulator in
    // a register instead of re-loading po[o] every step. Same ascending-l
    // addition order as the generic loop, so the float result is
    // bit-identical.
    runtime::ParallelFor(0, outer, grain, [&](int64_t lo, int64_t hi) {
      for (int64_t o = lo; o < hi; ++o) {
        const float* src = pi + o * len;
        float acc = 0.0f;
        for (int64_t l = 0; l < len; ++l) acc += src[l];
        po[o] = acc;
      }
    });
    return out;
  }
  runtime::ParallelFor(0, outer, grain, [&](int64_t lo, int64_t hi) {
    for (int64_t o = lo; o < hi; ++o) {
      for (int64_t l = 0; l < len; ++l) {
        const float* src = pi + (o * len + l) * inner;
        float* dst = po + o * inner;
        for (int64_t i = 0; i < inner; ++i) dst[i] += src[i];
      }
    }
  });
  return out;
}

Tensor Mean(const Tensor& t, int64_t axis, bool keepdim) {
  axis = NormalizeAxis(axis, t.ndim());
  const float inv = 1.0f / static_cast<float>(t.dim(axis));
  return Scale(Sum(t, axis, keepdim), inv);
}

Tensor Variance(const Tensor& t, int64_t axis, bool keepdim) {
  axis = NormalizeAxis(axis, t.ndim());
  Tensor mu = Mean(t, axis, /*keepdim=*/true);
  Tensor centered = Sub(t, mu);
  Tensor var = Mean(Square(centered), axis, keepdim);
  return var;
}

Tensor MaxAlong(const Tensor& t, int64_t axis, bool keepdim) {
  axis = NormalizeAxis(axis, t.ndim());
  const Tensor td = t.Contiguous();
  int64_t outer, len, inner;
  SplitAroundAxis(td.shape(), axis, &outer, &len, &inner);
  TSFM_CHECK_GT(len, 0);
  Tensor out = Tensor::Empty(ReducedShape(td.shape(), axis, keepdim));
  const float* pi = td.data();
  float* po = out.mutable_data();
  const int64_t grain =
      std::max<int64_t>(1, kElementwiseGrain / std::max<int64_t>(1, len * inner));
  runtime::ParallelFor(0, outer, grain, [&](int64_t lo, int64_t hi) {
    for (int64_t o = lo; o < hi; ++o) {
      for (int64_t i = 0; i < inner; ++i) {
        float best = pi[(o * len) * inner + i];
        for (int64_t l = 1; l < len; ++l) {
          best = std::max(best, pi[(o * len + l) * inner + i]);
        }
        po[o * inner + i] = best;
      }
    }
  });
  return out;
}

std::vector<int64_t> ArgMaxLast(const Tensor& t) {
  TSFM_CHECK_GE(t.ndim(), 1);
  const Tensor td = t.Contiguous();
  const int64_t len = td.dim(-1);
  const int64_t outer = td.numel() / len;
  std::vector<int64_t> out(static_cast<size_t>(outer));
  const float* p = td.data();
  for (int64_t o = 0; o < outer; ++o) {
    const float* row = p + o * len;
    out[static_cast<size_t>(o)] =
        std::max_element(row, row + len) - row;
  }
  return out;
}

Tensor Softmax(const Tensor& t) {
  TSFM_TRACE_SPAN("tensor.softmax");
  TSFM_CHECK_GE(t.ndim(), 1);
  Tensor out = Tensor::Empty(t.shape());
  const Tensor td = t.Contiguous();
  const int64_t len = td.dim(-1);
  const int64_t outer = td.numel() / len;
  const float* pi = td.data();
  float* po = out.mutable_data();
  const int64_t grain =
      std::max<int64_t>(1, kElementwiseGrain / std::max<int64_t>(1, len));
  runtime::ParallelFor(0, outer, grain, [&](int64_t lo, int64_t hi) {
    for (int64_t o = lo; o < hi; ++o) {
      simd::SoftmaxRow(pi + o * len, po + o * len, len);
    }
  });
  return out;
}

Tensor LogSoftmax(const Tensor& t) {
  TSFM_TRACE_SPAN("tensor.log_softmax");
  TSFM_CHECK_GE(t.ndim(), 1);
  const Tensor td = t.Contiguous();
  const int64_t len = td.dim(-1);
  const int64_t outer = td.numel() / len;
  Tensor out = Tensor::Empty(td.shape());
  const float* pi = td.data();
  float* po = out.mutable_data();
  const int64_t grain =
      std::max<int64_t>(1, kElementwiseGrain / std::max<int64_t>(1, len));
  runtime::ParallelFor(0, outer, grain, [&](int64_t lo, int64_t hi) {
    for (int64_t o = lo; o < hi; ++o) {
      simd::LogSoftmaxRow(pi + o * len, po + o * len, len);
    }
  });
  return out;
}

float Norm(const Tensor& t) {
  TSFM_TRACE_SPAN("tensor.norm");
  Metrics().reduce_calls->Add(1);
  const Tensor td = t.Contiguous();
  const float* p = td.data();
  const double s = runtime::ParallelReduce(
      0, t.numel(), kReduceGrain, 0.0,
      [p](int64_t lo, int64_t hi) {
        double part = 0.0;
        for (int64_t i = lo; i < hi; ++i) {
          part += static_cast<double>(p[i]) * p[i];
        }
        return part;
      },
      [](double acc, double part) { return acc + part; });
  return static_cast<float>(std::sqrt(s));
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  TSFM_CHECK(a.shape() == b.shape());
  const Tensor ad = a.Contiguous();
  const Tensor bd = b.Contiguous();
  const float* pa = ad.data();
  const float* pb = bd.data();
  return runtime::ParallelReduce(
      0, a.numel(), kReduceGrain, 0.0f,
      [pa, pb](int64_t lo, int64_t hi) {
        float m = 0.0f;
        for (int64_t i = lo; i < hi; ++i) {
          m = std::max(m, std::fabs(pa[i] - pb[i]));
        }
        return m;
      },
      [](float acc, float part) { return std::max(acc, part); });
}

bool AllClose(const Tensor& a, const Tensor& b, float atol) {
  if (a.shape() != b.shape()) return false;
  return MaxAbsDiff(a, b) <= atol;
}

}  // namespace tsfm
