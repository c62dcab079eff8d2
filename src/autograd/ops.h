#ifndef TSFM_AUTOGRAD_OPS_H_
#define TSFM_AUTOGRAD_OPS_H_

#include <cstdint>
#include <vector>

#include "autograd/variable.h"
#include "common/rng.h"

namespace tsfm::ag {

/// Non-differentiable constant wrapping `t`.
Var Constant(const Tensor& t);

// ---------------------------------------------------------------------------
// Arithmetic (NumPy broadcasting; gradients are reduced back to input shapes).
// ---------------------------------------------------------------------------

Var Add(const Var& a, const Var& b);
Var Sub(const Var& a, const Var& b);
Var Mul(const Var& a, const Var& b);
Var Div(const Var& a, const Var& b);
Var Neg(const Var& a);
Var Scale(const Var& a, float s);
Var AddScalar(const Var& a, float s);

// ---------------------------------------------------------------------------
// Elementwise nonlinearities.
// ---------------------------------------------------------------------------

Var Exp(const Var& a);
Var Log(const Var& a);
Var Sqrt(const Var& a);
Var Square(const Var& a);
Var Tanh(const Var& a);
Var Sigmoid(const Var& a);
Var Relu(const Var& a);
Var Gelu(const Var& a);

// ---------------------------------------------------------------------------
// Linear algebra / layout.
// ---------------------------------------------------------------------------

/// Batched matmul with batch-dimension broadcasting, like tsfm::MatMul.
Var MatMul(const Var& a, const Var& b);
Var TransposeLast2(const Var& a);
Var Permute(const Var& a, const std::vector<int64_t>& perm);
Var Reshape(const Var& a, Shape new_shape);
Var SliceOp(const Var& a, int64_t axis, int64_t start, int64_t end);
Var ConcatOp(const std::vector<Var>& parts, int64_t axis);

// ---------------------------------------------------------------------------
// Reductions & normalization.
// ---------------------------------------------------------------------------

Var SumAll(const Var& a);
Var MeanAll(const Var& a);
Var SumAxis(const Var& a, int64_t axis, bool keepdim);
Var MeanAxis(const Var& a, int64_t axis, bool keepdim);
/// Softmax over the last axis.
Var Softmax(const Var& a);
/// Log-softmax over the last axis.
Var LogSoftmax(const Var& a);
/// Layer normalization over the last axis with affine parameters
/// `gamma`, `beta` of shape (last_dim). Composed from differentiable
/// primitives.
Var LayerNorm(const Var& x, const Var& gamma, const Var& beta,
              float epsilon = 1e-5f);

/// Inverted dropout: scales kept activations by 1/(1-p). Identity when
/// `training` is false or p == 0.
Var Dropout(const Var& a, float p, bool training, Rng* rng);

/// Multi-head scaled dot-product attention over the (N, S, E) Q, K and V
/// projections, as one tape node (tsfm::Attention / AttentionBackward).
/// Returns the (N, S, E) context. When `training` and `dropout` > 0 it
/// draws an (N, H, S, S) inverted-dropout mask for the probabilities from
/// `rng`, exactly as Dropout would on them. Output and gradients have the
/// bits of Reshape/Permute into heads, MatMul(q, kᵀ), Scale(1/sqrt(Dh)),
/// Softmax, Dropout, MatMul(·, v) and merging the heads back.
Var Attention(const Var& q, const Var& k, const Var& v, int64_t num_heads,
              float dropout, bool training, Rng* rng);

// ---------------------------------------------------------------------------
// Losses (fused forward+backward for numerical stability).
// ---------------------------------------------------------------------------

/// Mean cross-entropy of logits (N, C) against integer labels (size N).
Var CrossEntropy(const Var& logits, const std::vector<int64_t>& labels);

/// Mean squared error between `pred` and constant `target` (same shape).
Var MseLoss(const Var& pred, const Tensor& target);

/// MSE restricted to positions where `mask` != 0 (same shape as pred);
/// normalized by the number of masked positions. Used by MOMENT's
/// masked-patch-reconstruction pretraining objective.
Var MaskedMseLoss(const Var& pred, const Tensor& target, const Tensor& mask);

/// InfoNCE contrastive loss: `anchors` and `positives` are (N, E) batches of
/// embeddings; positives[i] is the positive for anchors[i], all other rows are
/// negatives. Embeddings are L2-normalized internally; `temperature` scales
/// the logits. Used by the ViT model's MoCo-style pretraining.
Var InfoNceLoss(const Var& anchors, const Var& positives, float temperature);

/// L2-normalizes rows (last axis).
Var L2NormalizeRows(const Var& a, float epsilon = 1e-12f);

}  // namespace tsfm::ag

#endif  // TSFM_AUTOGRAD_OPS_H_
