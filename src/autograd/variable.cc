#include "autograd/variable.h"

#include <unordered_set>

#include "common/check.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "tensor/ops.h"

namespace tsfm::ag {

namespace {
thread_local bool g_grad_enabled = true;
}  // namespace

bool GradEnabled() { return g_grad_enabled; }

NoGradGuard::NoGradGuard() : previous_(g_grad_enabled) {
  g_grad_enabled = false;
}

NoGradGuard::~NoGradGuard() { g_grad_enabled = previous_; }

namespace internal {

void Node::AccumulateGrad(const Tensor& g) {
  TSFM_CHECK(g.shape() == value.shape())
      << "gradient shape " << ShapeToString(g.shape()) << " vs value "
      << ShapeToString(value.shape()) << " in op " << op_name;
  if (!has_grad) {
    // Clone (not alias): `g` is typically an op output another node may also
    // accumulate, and it packs view gradients so `grad` is always dense.
    grad = g.Clone();
    has_grad = true;
  } else {
    // In-place accumulation into the pooled grad buffer — no `grad + g`
    // reallocation. Each index is written by exactly one chunk, so the
    // parallel loop is bit-deterministic.
    const Tensor gd = g.Contiguous();
    float* pg = grad.mutable_data();
    const float* ps = gd.data();
    runtime::ParallelFor(0, grad.numel(), int64_t{1} << 14,
                         [pg, ps](int64_t lo, int64_t hi) {
                           for (int64_t i = lo; i < hi; ++i) pg[i] += ps[i];
                         });
  }
}

Var MakeNode(Tensor value, std::vector<Var> inputs,
             std::function<void(Node*)> backward_fn, const char* op_name) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->op_name = op_name;
  // Grad mode first: a no-grad forward must not read the inputs' flags,
  // which a joint fit on another thread may be flipping on shared weights.
  const bool grad_enabled = GradEnabled();
  bool any_grad = false;
  for (const Var& v : inputs) {
    TSFM_CHECK(v.defined()) << "undefined input to " << op_name;
    if (grad_enabled && v.requires_grad()) any_grad = true;
  }
  if (any_grad) {
    node->requires_grad = true;
    node->backward_fn = std::move(backward_fn);
    node->inputs.reserve(inputs.size());
    for (const Var& v : inputs) node->inputs.push_back(v.node());
  }
  return Var(std::move(node));
}

}  // namespace internal

Var::Var(Tensor value, bool requires_grad) {
  node_ = std::make_shared<internal::Node>();
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

const Tensor& Var::value() const {
  TSFM_CHECK(defined());
  return node_->value;
}

Tensor Var::grad() const {
  TSFM_CHECK(defined());
  if (!node_->has_grad) return Tensor::Zeros(node_->value.shape());
  return node_->grad;
}

bool Var::requires_grad() const {
  TSFM_CHECK(defined());
  return node_->requires_grad;
}

void Var::set_requires_grad(bool requires_grad) {
  TSFM_CHECK(defined());
  TSFM_CHECK(node_->inputs.empty() && !node_->backward_fn)
      << "set_requires_grad on interior node " << node_->op_name;
  node_->requires_grad = requires_grad;
}

void Var::ZeroGrad() {
  TSFM_CHECK(defined());
  node_->has_grad = false;
  node_->grad = Tensor();
}

void Var::SetValue(const Tensor& v) {
  TSFM_CHECK(defined());
  TSFM_CHECK(v.shape() == node_->value.shape());
  node_->value = v.Clone();
}

void Var::SetValue(Tensor&& v) {
  TSFM_CHECK(defined());
  TSFM_CHECK(v.shape() == node_->value.shape());
  node_->value = std::move(v).Contiguous();
}

Var Var::Detach() const {
  TSFM_CHECK(defined());
  return Var(node_->value, /*requires_grad=*/false);
}

void Var::Backward() {
  TSFM_CHECK(defined());
  TSFM_CHECK_EQ(node_->value.numel(), 1)
      << "Backward() requires a scalar output";
  TSFM_TRACE_SPAN("autograd.backward");
  // Topological order via iterative post-order DFS.
  std::vector<internal::Node*> order;
  std::unordered_set<internal::Node*> visited;
  std::vector<std::pair<internal::Node*, size_t>> stack;
  stack.emplace_back(node_.get(), 0);
  visited.insert(node_.get());
  while (!stack.empty()) {
    auto& [n, idx] = stack.back();
    if (idx < n->inputs.size()) {
      internal::Node* child = n->inputs[idx].get();
      ++idx;
      if (child->requires_grad && !visited.count(child)) {
        visited.insert(child);
        stack.emplace_back(child, 0);
      }
    } else {
      order.push_back(n);
      stack.pop_back();
    }
  }
  // Seed and propagate in reverse topological order.
  node_->AccumulateGrad(Tensor::Full(node_->value.shape(), 1.0f));
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    internal::Node* n = *it;
    if (n->backward_fn && n->has_grad) {
      obs::TraceSpan span(n->op_name);
      n->backward_fn(n);
    }
  }
}

}  // namespace tsfm::ag
