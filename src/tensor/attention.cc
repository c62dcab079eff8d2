#include "tensor/attention.h"

#include <algorithm>
#include <cmath>

#if defined(__AVX512F__) || (defined(__AVX2__) && defined(__FMA__))
#include <immintrin.h>
#endif

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "simd/simd_math.h"

// This file builds with -ffp-contract=off (tensor/CMakeLists.txt). Each
// multiply-add that the composed ops ran through MatMul's kernel, whose
// `acc += a * b` the compiler contracts into one FMA wherever the target
// has one, is an explicit fused multiply-add here (a vector intrinsic or
// std::fma); every other product and sum (the scale, the mask, the
// softmax-backward sum) must round on its own, as it did in its own op, and
// the flag keeps the compiler from fusing them.

namespace tsfm {

namespace {

// Output columns per register tile, and most rows per tile (as many
// accumulators as the vector registers hold with room to spare). The
// packed operands pad their rows to a multiple of kLanes with zeros, so
// every tile runs at full width; only the valid columns are stored.
constexpr int64_t kLanes = 16;
#if defined(__AVX512F__)
constexpr int kRows = 8;
#else
constexpr int kRows = 4;
#endif

int64_t PadLanes(int64_t n) { return (n + kLanes - 1) / kLanes * kLanes; }

// kLanes accumulators of one output row. Lane l of Fma(a, b) computes
// std::fma(a, b[l], acc[l]); the vector forms are the same single-rounding
// operation, written with intrinsics so the tile stays in registers. A
// target without FMA rounds the product and the sum apart, as MatMul's
// kernel does there.
class Lanes {
 public:
#if defined(__AVX512F__)
  void Fma(float a, const float* b) {
    v_ = _mm512_fmadd_ps(_mm512_set1_ps(a), _mm512_loadu_ps(b), v_);
  }
  void Store(float* out) const { _mm512_storeu_ps(out, v_); }

 private:
  __m512 v_ = _mm512_setzero_ps();
#elif defined(__AVX2__) && defined(__FMA__)
  void Fma(float a, const float* b) {
    const __m256 av = _mm256_set1_ps(a);
    lo_ = _mm256_fmadd_ps(av, _mm256_loadu_ps(b), lo_);
    hi_ = _mm256_fmadd_ps(av, _mm256_loadu_ps(b + 8), hi_);
  }
  void Store(float* out) const {
    _mm256_storeu_ps(out, lo_);
    _mm256_storeu_ps(out + 8, hi_);
  }

 private:
  __m256 lo_ = _mm256_setzero_ps();
  __m256 hi_ = _mm256_setzero_ps();
#else
  void Fma(float a, const float* b) {
    for (int64_t l = 0; l < kLanes; ++l) {
#if defined(__FMA__) || defined(__ARM_FEATURE_FMA)
      x_[l] = std::fma(a, b[l], x_[l]);
#else
      x_[l] = x_[l] + a * b[l];
#endif
    }
  }
  void Store(float* out) const { std::copy_n(x_, kLanes, out); }

 private:
  float x_[kLanes] = {};
#endif
};

// c[r·ldc + j] = Σ_t a[r·ars + t·ats] · b[t·ldb + j] for r < R, j < n. Each
// sum is an ascending FMA chain over t starting from +0, the order in which
// MatMul's kernel accumulates. `b` rows hold PadLanes(n) readable floats.
template <int R>
void TileProduct(const float* a, int64_t ars, int64_t ats, const float* b,
                 int64_t ldb, int64_t t_len, int64_t n, float* c,
                 int64_t ldc) {
  for (int64_t j0 = 0; j0 < n; j0 += kLanes) {
    Lanes acc[R];
    for (int64_t t = 0; t < t_len; ++t) {
      const float* brow = b + t * ldb + j0;
      for (int r = 0; r < R; ++r) acc[r].Fma(a[r * ars + t * ats], brow);
    }
    const int64_t w = std::min(kLanes, n - j0);
    for (int r = 0; r < R; ++r) {
      if (w == kLanes) {
        acc[r].Store(c + r * ldc + j0);
      } else {
        float full[kLanes];
        acc[r].Store(full);
        std::copy_n(full, w, c + r * ldc + j0);
      }
    }
  }
}

// TileProduct over `rows` rows: tiles of kRows, then one tile of the rest.
template <int R>
void TailProduct(int64_t rows, const float* a, int64_t ars, int64_t ats,
                 const float* b, int64_t ldb, int64_t t_len, int64_t n,
                 float* c, int64_t ldc) {
  if constexpr (R > 0) {
    if (rows == R) {
      TileProduct<R>(a, ars, ats, b, ldb, t_len, n, c, ldc);
    } else {
      TailProduct<R - 1>(rows, a, ars, ats, b, ldb, t_len, n, c, ldc);
    }
  }
}

void Product(const float* a, int64_t ars, int64_t ats, int64_t rows,
             const float* b, int64_t ldb, int64_t t_len, int64_t n, float* c,
             int64_t ldc) {
  int64_t r = 0;
  for (; r + kRows <= rows; r += kRows) {
    TileProduct<kRows>(a + r * ars, ars, ats, b, ldb, t_len, n, c + r * ldc,
                       ldc);
  }
  TailProduct<kRows - 1>(rows - r, a + r * ars, ars, ats, b, ldb, t_len, n,
                         c + r * ldc, ldc);
}

// Shape of one call: n series of s positions, e = heads · dh columns.
struct Geometry {
  int64_t n, s, e, heads, dh;

  Geometry(const Tensor& q, const Tensor& k, const Tensor& v,
           int64_t num_heads) {
    TSFM_CHECK_EQ(q.ndim(), 3) << "attention expects (N, S, E)";
    TSFM_CHECK(k.shape() == q.shape() && v.shape() == q.shape())
        << "attention q/k/v shapes " << ShapeToString(q.shape()) << ", "
        << ShapeToString(k.shape()) << ", " << ShapeToString(v.shape());
    TSFM_CHECK_GT(num_heads, 0);
    n = q.dim(0);
    s = q.dim(1);
    e = q.dim(2);
    heads = num_heads;
    TSFM_CHECK_EQ(e % heads, 0) << "E must be divisible by num_heads";
    dh = e / heads;
  }

  Shape ProbsShape() const { return {n, heads, s, s}; }
  // Offset of task i·heads + h (series i, position 0, head h) in an
  // (N, S, E) tensor.
  int64_t HeadOffset(int64_t task) const {
    return (task / heads) * s * e + (task % heads) * dh;
  }
  // FLOPs of one (S, S, Dh) product of one head.
  int64_t ProductFlops() const { return 2 * s * s * dh; }
  float Scale() const { return 1.0f / std::sqrt(static_cast<float>(dh)); }
};

// (series, head) tasks per ParallelFor chunk: about 1 MFLOP per chunk, the
// grain MatMul uses, so small calls stay inline.
int64_t TaskGrain(int64_t flops_per_task) {
  return std::max<int64_t>(1,
                           (1 << 20) / std::max<int64_t>(flops_per_task, 1));
}

void CheckMask(const Tensor* mask, const Geometry& g) {
  if (mask == nullptr) return;
  TSFM_CHECK(mask->shape() == g.ProbsShape() && mask->is_contiguous())
      << "attention mask " << ShapeToString(mask->shape());
}

obs::Counter* MatmulFlops() {
  static obs::Counter* const c =
      obs::Registry::Instance().GetCounter("tensor.matmul_flops");
  return c;
}

// Scratch of one ParallelFor chunk. It is zeroed once, and each head then
// writes only the valid entries of its packed operands, so their pads stay
// zero for every head of the chunk.
Tensor ChunkScratch(int64_t floats) { return Tensor(Shape{floats}); }

// The (S, Dh) rows of one head as a TileProduct `b` operand: read in place
// when Dh fills whole tiles, else copied into `buf` (S, PadLanes(Dh)).
const float* HeadRows(const float* src, const Geometry& g, float* buf,
                      int64_t* ldb) {
  if (g.dh % kLanes == 0) {
    *ldb = g.e;
    return src;
  }
  *ldb = PadLanes(g.dh);
  for (int64_t i = 0; i < g.s; ++i) {
    std::copy_n(src + i * g.e, g.dh, buf + i * *ldb);
  }
  return buf;
}

// The head's (Dh, S) transpose into `buf` (Dh, PadLanes(S)).
void PackTransposed(const float* src, const Geometry& g, float* buf) {
  const int64_t ldb = PadLanes(g.s);
  for (int64_t i = 0; i < g.s; ++i) {
    for (int64_t d = 0; d < g.dh; ++d) buf[d * ldb + i] = src[i * g.e + d];
  }
}

// One (series, head) of the forward. q/k/v/out point at the head's first
// column of position 0 (row stride g.e); mask and probs at its (S, S) block
// or null.
void ForwardHead(const float* q, const float* k, const float* v,
                 const float* mask, float* probs, float* out,
                 const Geometry& g, float scale, float* scratch) {
  const int64_t s = g.s, dh = g.dh, e = g.e;
  const int64_t sp = PadLanes(s);
  float* kt = scratch;                       // (Dh, Sp): Kᵀ
  float* v_buf = kt + dh * sp;               // (S, PadLanes(Dh)): V, copied
  float* scores = v_buf + s * PadLanes(dh);  // (kRows, Sp)
  float* p_rows = scores + kRows * sp;       // (kRows, S) when probs is null
  float* pd_rows = p_rows + kRows * s;       // (kRows, S): probs × mask
  PackTransposed(k, g, kt);
  int64_t ldv = 0;
  const float* vr = HeadRows(v, g, v_buf, &ldv);
  for (int64_t i0 = 0; i0 < s; i0 += kRows) {
    const int64_t rows = std::min<int64_t>(kRows, s - i0);
    // All Sp columns: whole-tile stores, and Kᵀ's zero pad makes the pad
    // lanes 0, which nothing reads.
    Product(q + i0 * e, e, 1, rows, kt, sp, dh, sp, scores, sp);
    float* p = probs != nullptr ? probs + i0 * s : p_rows;
    for (int64_t r = 0; r < rows; ++r) {
      float* row = scores + r * sp;
      for (int64_t j = 0; j < s; ++j) row[j] = row[j] * scale;
      simd::SoftmaxRow(row, p + r * s, s);
    }
    const float* a = p;
    if (mask != nullptr) {
      const float* m = mask + i0 * s;
      for (int64_t x = 0; x < rows * s; ++x) pd_rows[x] = p[x] * m[x];
      a = pd_rows;
    }
    Product(a, s, 1, rows, vr, ldv, s, dh, out + i0 * e, e);
  }
}

int64_t ForwardScratch(const Geometry& g) {
  const int64_t sp = PadLanes(g.s);
  return g.dh * sp + g.s * PadLanes(g.dh) + kRows * sp + 2 * kRows * g.s;
}

// One (series, head) of the backward; pointers as in ForwardHead, with
// dq/dk/dv null when not wanted.
void BackwardHead(const float* grad, const float* q, const float* k,
                  const float* v, const float* probs, const float* mask,
                  float* dq, float* dk, float* dv, const Geometry& g,
                  float scale, float* scratch) {
  const int64_t s = g.s, dh = g.dh, e = g.e;
  const int64_t sp = PadLanes(s);
  float* vt = scratch;                     // (Dh, Sp): Vᵀ
  float* row_buf = vt + dh * sp;           // (S, PadLanes(Dh))
  float* ds = row_buf + s * PadLanes(dh);  // (S, Sp), as scores above
  float* pd = ds + s * sp;                 // (S, S)
  int64_t ldb = 0;
  if (dq != nullptr || dk != nullptr) {
    // dP = dC·Vᵀ, then row by row the mask product, the softmax backward
    // y·(g − Σ rounded g·y) and the scale.
    PackTransposed(v, g, vt);
    Product(grad, e, 1, s, vt, sp, dh, sp, ds, sp);
    for (int64_t i = 0; i < s; ++i) {
      float* row = ds + i * sp;
      const float* y = probs + i * s;
      if (mask != nullptr) {
        const float* m = mask + i * s;
        for (int64_t j = 0; j < s; ++j) row[j] = row[j] * m[j];
      }
      float sum = 0.0f;
      for (int64_t j = 0; j < s; ++j) sum += row[j] * y[j];
      for (int64_t j = 0; j < s; ++j) {
        row[j] = (y[j] * (row[j] - sum)) * scale;
      }
    }
    if (dq != nullptr) {  // dQ = dS·K
      const float* kr = HeadRows(k, g, row_buf, &ldb);
      Product(ds, sp, 1, s, kr, ldb, s, dh, dq, e);
    }
    if (dk != nullptr) {  // dK = dSᵀ·Q
      const float* qr = HeadRows(q, g, row_buf, &ldb);
      Product(ds, 1, sp, s, qr, ldb, s, dh, dk, e);
    }
  }
  if (dv != nullptr) {  // dV = (P × mask)ᵀ·dC
    const float* a = probs;
    if (mask != nullptr) {
      for (int64_t x = 0; x < s * s; ++x) pd[x] = probs[x] * mask[x];
      a = pd;
    }
    const float* gr = HeadRows(grad, g, row_buf, &ldb);
    Product(a, 1, s, s, gr, ldb, s, dh, dv, e);
  }
}

int64_t BackwardScratch(const Geometry& g) {
  const int64_t sp = PadLanes(g.s);
  return g.dh * sp + g.s * PadLanes(g.dh) + g.s * sp + g.s * g.s;
}

}  // namespace

Tensor Attention(const Tensor& q, const Tensor& k, const Tensor& v,
                 int64_t num_heads, const Tensor* mask, Tensor* probs) {
  TSFM_TRACE_SPAN("tensor.attention");
  const Geometry g(q, k, v, num_heads);
  CheckMask(mask, g);
  const Tensor qd = q.Contiguous(), kd = k.Contiguous(), vd = v.Contiguous();
  Tensor out = Tensor::Empty(q.shape());
  if (probs != nullptr) *probs = Tensor::Empty(g.ProbsShape());
  const int64_t tasks = g.n * g.heads;
  MatmulFlops()->Add(static_cast<uint64_t>(2 * tasks * g.ProductFlops()));

  const float scale = g.Scale();
  const float* pq = qd.data();
  const float* pk = kd.data();
  const float* pv = vd.data();
  const float* pm = mask != nullptr ? mask->data() : nullptr;
  float* pp = probs != nullptr ? probs->mutable_data() : nullptr;
  float* po = out.mutable_data();
  const int64_t ss = g.s * g.s;
  runtime::ParallelFor(
      0, tasks, TaskGrain(2 * g.ProductFlops()), [&](int64_t lo, int64_t hi) {
        Tensor scratch = ChunkScratch(ForwardScratch(g));
        for (int64_t task = lo; task < hi; ++task) {
          const int64_t off = g.HeadOffset(task);
          ForwardHead(pq + off, pk + off, pv + off,
                      pm != nullptr ? pm + task * ss : nullptr,
                      pp != nullptr ? pp + task * ss : nullptr, po + off, g,
                      scale, scratch.mutable_data());
        }
      });
  return out;
}

void AttentionBackward(const Tensor& grad, const Tensor& q, const Tensor& k,
                       const Tensor& v, const Tensor& probs,
                       const Tensor* mask, int64_t num_heads, Tensor* dq,
                       Tensor* dk, Tensor* dv) {
  TSFM_TRACE_SPAN("tensor.attention_backward");
  const Geometry g(q, k, v, num_heads);
  CheckMask(mask, g);
  TSFM_CHECK(grad.shape() == q.shape());
  TSFM_CHECK(probs.shape() == g.ProbsShape() && probs.is_contiguous());
  const Tensor gd = grad.Contiguous();
  const Tensor qd = q.Contiguous(), kd = k.Contiguous(), vd = v.Contiguous();
  const int64_t tasks = g.n * g.heads;
  // Products per head: dP feeds dQ and dK; dQ, dK and dV one each.
  const int64_t products = (dq != nullptr || dk != nullptr ? 1 : 0) +
                           (dq != nullptr ? 1 : 0) + (dk != nullptr ? 1 : 0) +
                           (dv != nullptr ? 1 : 0);
  if (products == 0) return;
  MatmulFlops()->Add(
      static_cast<uint64_t>(products * tasks * g.ProductFlops()));
  for (Tensor* d : {dq, dk, dv}) {
    if (d != nullptr) *d = Tensor::Empty(q.shape());
  }

  const float scale = g.Scale();
  const float* pg = gd.data();
  const float* pq = qd.data();
  const float* pk = kd.data();
  const float* pv = vd.data();
  const float* pp = probs.data();
  const float* pm = mask != nullptr ? mask->data() : nullptr;
  float* pdq = dq != nullptr ? dq->mutable_data() : nullptr;
  float* pdk = dk != nullptr ? dk->mutable_data() : nullptr;
  float* pdv = dv != nullptr ? dv->mutable_data() : nullptr;
  const int64_t ss = g.s * g.s;
  runtime::ParallelFor(
      0, tasks, TaskGrain(products * g.ProductFlops()),
      [&](int64_t lo, int64_t hi) {
        Tensor scratch = ChunkScratch(BackwardScratch(g));
        for (int64_t task = lo; task < hi; ++task) {
          const int64_t off = g.HeadOffset(task);
          BackwardHead(pg + off, pq + off, pk + off, pv + off, pp + task * ss,
                       pm != nullptr ? pm + task * ss : nullptr,
                       pdq != nullptr ? pdq + off : nullptr,
                       pdk != nullptr ? pdk + off : nullptr,
                       pdv != nullptr ? pdv + off : nullptr, g, scale,
                       scratch.mutable_data());
        }
      });
}

}  // namespace tsfm
