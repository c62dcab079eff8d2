#ifndef TSFM_TENSOR_OPS_H_
#define TSFM_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace tsfm {

/// NumPy-style broadcast of two shapes. Aborts (TSFM_CHECK) on incompatible
/// shapes; use `ShapesBroadcastable` to test first when handling user input.
Shape BroadcastShapes(const Shape& a, const Shape& b);

/// True if `a` and `b` are broadcast-compatible.
bool ShapesBroadcastable(const Shape& a, const Shape& b);

// ---------------------------------------------------------------------------
// Elementwise binary ops (NumPy broadcasting).
// ---------------------------------------------------------------------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);
/// max(a, b) elementwise with broadcasting.
Tensor Maximum(const Tensor& a, const Tensor& b);

/// Sums `t` down to `target` shape by reducing over broadcast dimensions.
/// This is the adjoint of broadcasting and is used by autograd.
Tensor ReduceToShape(const Tensor& t, const Shape& target);

// ---------------------------------------------------------------------------
// Elementwise unary ops.
// ---------------------------------------------------------------------------

Tensor Neg(const Tensor& t);
Tensor Exp(const Tensor& t);
Tensor Log(const Tensor& t);
Tensor Sqrt(const Tensor& t);
Tensor Tanh(const Tensor& t);
Tensor Sigmoid(const Tensor& t);
Tensor Relu(const Tensor& t);
/// Gaussian Error Linear Unit (tanh approximation, as used by transformers).
Tensor Gelu(const Tensor& t);
Tensor Abs(const Tensor& t);
Tensor Square(const Tensor& t);
/// t * s.
Tensor Scale(const Tensor& t, float s);
/// t + s.
Tensor AddScalar(const Tensor& t, float s);
/// Raises each element to the power `p`.
Tensor Pow(const Tensor& t, float p);

// ---------------------------------------------------------------------------
// Linear algebra / layout.
// ---------------------------------------------------------------------------

/// Batched matrix multiplication. Both inputs must have ndim >= 2; batch
/// dimensions are broadcast. (..., m, k) x (..., k, n) -> (..., m, n).
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Swaps the last two dimensions. Zero-copy: returns a strided view that
/// aliases the input's storage.
Tensor TransposeLast2(const Tensor& t);

/// General permutation of dimensions; `perm` must be a permutation of
/// [0, ndim). Zero-copy view (aliases the input's storage).
Tensor Permute(const Tensor& t, const std::vector<int64_t>& perm);

/// Extracts `[start, end)` along `axis`. Zero-copy view (aliases the input's
/// storage); call `.Contiguous()` on the result if dense memory is needed.
Tensor Slice(const Tensor& t, int64_t axis, int64_t start, int64_t end);

/// Concatenates tensors along `axis`; all other dimensions must match.
Tensor Concat(const std::vector<Tensor>& parts, int64_t axis);

/// Gathers rows of a 2-D (or higher; first axis) tensor by index.
Tensor TakeRows(const Tensor& t, const std::vector<int64_t>& rows);

// ---------------------------------------------------------------------------
// Reductions.
// ---------------------------------------------------------------------------

float SumAll(const Tensor& t);
float MeanAll(const Tensor& t);
float MaxAll(const Tensor& t);
float MinAll(const Tensor& t);

/// Sum over `axis`; `keepdim` retains the reduced dimension with size 1.
Tensor Sum(const Tensor& t, int64_t axis, bool keepdim = false);
Tensor Mean(const Tensor& t, int64_t axis, bool keepdim = false);
/// Population variance (divide by n) over `axis`.
Tensor Variance(const Tensor& t, int64_t axis, bool keepdim = false);
Tensor MaxAlong(const Tensor& t, int64_t axis, bool keepdim = false);

/// Index of the max element along the last axis; output drops that axis.
std::vector<int64_t> ArgMaxLast(const Tensor& t);

// ---------------------------------------------------------------------------
// Neural-net primitives (used by autograd backward passes too).
// ---------------------------------------------------------------------------

/// Softmax over the last axis (numerically stabilized).
Tensor Softmax(const Tensor& t);
/// Log-softmax over the last axis.
Tensor LogSoftmax(const Tensor& t);

/// Frobenius / L2 norm of all elements.
float Norm(const Tensor& t);

/// Max absolute elementwise difference; shapes must match.
float MaxAbsDiff(const Tensor& a, const Tensor& b);

/// True if all elements of `a` and `b` are within `atol`.
bool AllClose(const Tensor& a, const Tensor& b, float atol = 1e-5f);

}  // namespace tsfm

#endif  // TSFM_TENSOR_OPS_H_
