#ifndef TSFM_AUTOGRAD_VARIABLE_H_
#define TSFM_AUTOGRAD_VARIABLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace tsfm::ag {

class Var;

namespace internal {

/// A node in the reverse-mode autodiff tape. Owns the forward value, the
/// accumulated gradient, and a closure that pushes this node's gradient into
/// its inputs. Users interact only through `Var`.
struct Node {
  Tensor value;
  Tensor grad;          // allocated lazily; same shape as `value`
  bool has_grad = false;
  bool requires_grad = false;
  /// String literal naming the op: diagnostics and the backward trace span.
  const char* op_name = "leaf";
  std::vector<std::shared_ptr<Node>> inputs;
  /// Accumulates `grad` into the inputs' `grad` buffers.
  std::function<void(Node*)> backward_fn;

  /// Adds `g` into this node's gradient accumulator.
  void AccumulateGrad(const Tensor& g);
};

}  // namespace internal

/// Differentiable variable: a shared handle to a tape node. Copying a `Var`
/// aliases the same node. Building expressions from `Var`s records the tape;
/// `Backward()` on a scalar result fills `grad()` on every reachable leaf
/// with `requires_grad() == true`.
class Var {
 public:
  /// Empty (null) variable; most operations on it are invalid.
  Var() = default;

  /// Leaf variable wrapping `value`.
  explicit Var(Tensor value, bool requires_grad = false);

  /// Internal: wraps an existing node.
  explicit Var(std::shared_ptr<internal::Node> node) : node_(std::move(node)) {}

  bool defined() const { return node_ != nullptr; }

  const Tensor& value() const;
  /// Gradient accumulated by the last `Backward()`; zeros if none.
  Tensor grad() const;
  bool requires_grad() const;
  /// Turns gradient tracking of a leaf on or off (e.g. freezing a
  /// pretrained encoder's weights). Interior nodes cannot be changed.
  /// Not synchronized: while a flag changes, only the changing thread may
  /// build a tape over this leaf; no-grad forwards never read it.
  void set_requires_grad(bool requires_grad);
  const Shape& shape() const { return value().shape(); }
  int64_t dim(int64_t d) const { return value().dim(d); }
  int64_t ndim() const { return value().ndim(); }

  /// Clears the accumulated gradient (used between optimizer steps).
  void ZeroGrad();

  /// Replaces the stored value in-place (optimizer update); the tape history
  /// of this node is irrelevant for leaves. The lvalue overload clones; the
  /// rvalue overload adopts the buffer without a copy, so the caller must
  /// hand over exclusively-owned storage (e.g. a fresh Clone it mutated).
  void SetValue(const Tensor& v);
  void SetValue(Tensor&& v);

  /// Returns a non-differentiable leaf with the same value.
  Var Detach() const;

  /// Runs reverse-mode accumulation from this variable, which must hold a
  /// scalar (numel() == 1). Seeds with d(self)/d(self) = 1. With tracing
  /// on, records an `autograd.backward` span holding one span per backward
  /// closure, named by its op.
  void Backward();

  std::shared_ptr<internal::Node> node() const { return node_; }

 private:
  std::shared_ptr<internal::Node> node_;
};

namespace internal {

/// Creates an interior tape node. `backward_fn` must route `node->grad` into
/// `inputs`. If grad mode is disabled, or no input requires grad, the node
/// is constant-folded (no tape edge retained). Under no-grad it reads no
/// input's `requires_grad`. `op_name` must be a string literal.
Var MakeNode(Tensor value, std::vector<Var> inputs,
             std::function<void(Node*)> backward_fn, const char* op_name);

}  // namespace internal

/// True unless a NoGradGuard is active on this thread.
bool GradEnabled();

/// RAII guard disabling tape recording — inference inside the guard builds
/// no graph (PyTorch's torch.no_grad()). Used by the embed-once fast path.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

}  // namespace tsfm::ag

#endif  // TSFM_AUTOGRAD_VARIABLE_H_
