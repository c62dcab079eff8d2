#ifndef TSFM_TENSOR_ATTENTION_H_
#define TSFM_TENSOR_ATTENTION_H_

#include <cstdint>

#include "tensor/tensor.h"

namespace tsfm {

/// Multi-head scaled dot-product attention over the (N, S, E) outputs of the
/// Q, K and V projections, E = num_heads * Dh, head h owning columns
/// [h*Dh, (h+1)*Dh). Returns the (N, S, E) context, heads side by side.
///
/// Per (series, head) it computes softmax(Q Kᵀ · 1/sqrt(Dh)), multiplies
/// it elementwise by `mask` (an (N, H, S, S) dropout mask) when one is
/// given, and multiplies the result by V. The arithmetic is exactly that of
/// the composed ops MatMul(q, kᵀ) → Scale → Softmax → Mul(mask) →
/// MatMul(·, v) on (N, H, S, Dh) head views: every product is an ascending
/// fused multiply-add chain from zero, as in MatMul's kernel, so the
/// output bits are the same, for any thread count.
///
/// When `probs` is non-null it receives the (N, H, S, S) softmax output
/// (before the mask), which AttentionBackward needs; otherwise no
/// (N, H, S, S) tensor is allocated. Records a `tensor.attention` span and
/// adds its products' FLOPs to `tensor.matmul_flops`.
Tensor Attention(const Tensor& q, const Tensor& k, const Tensor& v,
                 int64_t num_heads, const Tensor* mask, Tensor* probs);

/// Gradients of Attention's output with respect to q, k and v, given the
/// (N, S, E) gradient of the context and the `probs` and `mask` of the
/// forward. Repeats the composed ops' backward step for step (dP = dC·Vᵀ,
/// dV = Pᵀ·dC, the mask product, the softmax backward, the scale,
/// dQ = dS·K, dK = dSᵀ·Q), so each gradient has the bits the composed
/// backward gives it. A null output pointer skips that gradient and every
/// product only it needs.
void AttentionBackward(const Tensor& grad, const Tensor& q, const Tensor& k,
                       const Tensor& v, const Tensor& probs,
                       const Tensor* mask, int64_t num_heads, Tensor* dq,
                       Tensor* dk, Tensor* dv);

}  // namespace tsfm

#endif  // TSFM_TENSOR_ATTENTION_H_
