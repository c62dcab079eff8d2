#include "autograd/ops.h"

#include <cmath>
#include <utility>

#include "common/check.h"
#include "runtime/thread_pool.h"
#include "tensor/attention.h"
#include "tensor/ops.h"

namespace tsfm::ag {

namespace {

using internal::MakeNode;
using internal::Node;

int64_t NormalizeAxis(int64_t axis, int64_t ndim) {
  if (axis < 0) axis += ndim;
  TSFM_CHECK_GE(axis, 0);
  TSFM_CHECK_LT(axis, ndim);
  return axis;
}

// Broadcasts `g` (shape with 1 at reduced axes, right-aligned) up to `shape`.
Tensor BroadcastTo(const Tensor& g, const Shape& shape) {
  if (g.shape() == shape) return g;
  return tsfm::Add(g, Tensor::Zeros(shape));
}

// Scatters `g` (the gradient of a slice) back into a zero tensor of
// `orig_shape` at offset `start` along `axis`.
Tensor ScatterSlice(const Tensor& g, const Shape& orig_shape, int64_t axis,
                    int64_t start) {
  Tensor out = Tensor::Zeros(orig_shape);
  int64_t outer = 1, inner = 1;
  const int64_t len = orig_shape[static_cast<size_t>(axis)];
  for (int64_t i = 0; i < axis; ++i) outer *= orig_shape[static_cast<size_t>(i)];
  for (size_t i = static_cast<size_t>(axis) + 1; i < orig_shape.size(); ++i) {
    inner *= orig_shape[i];
  }
  const int64_t slice_len = g.dim(axis);
  // `g` is often a view (e.g. Concat backward slices the upstream grad).
  const Tensor gd = g.Contiguous();
  const float* pg = gd.data();
  float* po = out.mutable_data();
  for (int64_t o = 0; o < outer; ++o) {
    std::copy(pg + o * slice_len * inner, pg + (o + 1) * slice_len * inner,
              po + (o * len + start) * inner);
  }
  return out;
}

// For single-input closures, whose input is the one that takes a gradient.
// A closure with several inputs checks each input's flag before it computes
// that input's gradient, so a frozen or constant input costs nothing.
void AccumulateIfNeeded(const std::shared_ptr<Node>& input, const Tensor& g) {
  if (input->requires_grad) input->AccumulateGrad(g);
}

// Inverted-dropout multipliers for a tensor of `shape`: 0 with probability
// p, else 1/(1 − p), drawn from `rng` in row-major order.
Tensor DropoutMask(const Shape& shape, float p, Rng* rng) {
  TSFM_CHECK_LT(p, 1.0f);
  TSFM_CHECK(rng != nullptr);
  Tensor mask = Tensor::Empty(shape);
  float* pm = mask.mutable_data();
  const float keep_scale = 1.0f / (1.0f - p);
  for (int64_t i = 0; i < mask.numel(); ++i) {
    pm[i] = rng->Uniform() < p ? 0.0f : keep_scale;
  }
  return mask;
}

}  // namespace

Var Constant(const Tensor& t) { return Var(t, /*requires_grad=*/false); }

Var Add(const Var& a, const Var& b) {
  Tensor out = tsfm::Add(a.value(), b.value());
  return MakeNode(
      std::move(out), {a, b},
      [](Node* n) {
        for (const auto& in : n->inputs) {
          if (in->requires_grad) {
            in->AccumulateGrad(ReduceToShape(n->grad, in->value.shape()));
          }
        }
      },
      "Add");
}

Var Sub(const Var& a, const Var& b) {
  Tensor out = tsfm::Sub(a.value(), b.value());
  return MakeNode(
      std::move(out), {a, b},
      [](Node* n) {
        const auto& a = n->inputs[0];
        const auto& b = n->inputs[1];
        if (a->requires_grad) {
          a->AccumulateGrad(ReduceToShape(n->grad, a->value.shape()));
        }
        if (b->requires_grad) {
          b->AccumulateGrad(
              ReduceToShape(tsfm::Neg(n->grad), b->value.shape()));
        }
      },
      "Sub");
}

Var Mul(const Var& a, const Var& b) {
  Tensor out = tsfm::Mul(a.value(), b.value());
  return MakeNode(
      std::move(out), {a, b},
      [](Node* n) {
        const auto& a = n->inputs[0];
        const auto& b = n->inputs[1];
        if (a->requires_grad) {
          a->AccumulateGrad(
              ReduceToShape(tsfm::Mul(n->grad, b->value), a->value.shape()));
        }
        if (b->requires_grad) {
          b->AccumulateGrad(
              ReduceToShape(tsfm::Mul(n->grad, a->value), b->value.shape()));
        }
      },
      "Mul");
}

Var Div(const Var& a, const Var& b) {
  Tensor out = tsfm::Div(a.value(), b.value());
  return MakeNode(
      std::move(out), {a, b},
      [](Node* n) {
        const Tensor& av = n->inputs[0]->value;
        const Tensor& bv = n->inputs[1]->value;
        if (n->inputs[0]->requires_grad) {
          n->inputs[0]->AccumulateGrad(
              ReduceToShape(tsfm::Div(n->grad, bv), av.shape()));
        }
        if (n->inputs[1]->requires_grad) {
          // d/db (a/b) = -a / b^2
          Tensor gb = tsfm::Neg(
              tsfm::Div(tsfm::Mul(n->grad, av), tsfm::Mul(bv, bv)));
          n->inputs[1]->AccumulateGrad(ReduceToShape(gb, bv.shape()));
        }
      },
      "Div");
}

Var Neg(const Var& a) {
  return MakeNode(
      tsfm::Neg(a.value()), {a},
      [](Node* n) { AccumulateIfNeeded(n->inputs[0], tsfm::Neg(n->grad)); },
      "Neg");
}

Var Scale(const Var& a, float s) {
  return MakeNode(
      tsfm::Scale(a.value(), s), {a},
      [s](Node* n) {
        AccumulateIfNeeded(n->inputs[0], tsfm::Scale(n->grad, s));
      },
      "Scale");
}

Var AddScalar(const Var& a, float s) {
  return MakeNode(
      tsfm::AddScalar(a.value(), s), {a},
      [](Node* n) { AccumulateIfNeeded(n->inputs[0], n->grad); }, "AddScalar");
}

Var Exp(const Var& a) {
  Tensor y = tsfm::Exp(a.value());
  Tensor y_copy = y;
  return MakeNode(
      std::move(y), {a},
      [y_copy](Node* n) {
        AccumulateIfNeeded(n->inputs[0], tsfm::Mul(n->grad, y_copy));
      },
      "Exp");
}

Var Log(const Var& a) {
  return MakeNode(
      tsfm::Log(a.value()), {a},
      [](Node* n) {
        AccumulateIfNeeded(n->inputs[0],
                           tsfm::Div(n->grad, n->inputs[0]->value));
      },
      "Log");
}

Var Sqrt(const Var& a) {
  Tensor y = tsfm::Sqrt(a.value());
  Tensor y_copy = y;
  return MakeNode(
      std::move(y), {a},
      [y_copy](Node* n) {
        // d sqrt(x)/dx = 1 / (2 sqrt(x))
        Tensor g = tsfm::Div(tsfm::Scale(n->grad, 0.5f),
                             tsfm::AddScalar(y_copy, 1e-12f));
        AccumulateIfNeeded(n->inputs[0], g);
      },
      "Sqrt");
}

Var Square(const Var& a) {
  return MakeNode(
      tsfm::Square(a.value()), {a},
      [](Node* n) {
        AccumulateIfNeeded(
            n->inputs[0],
            tsfm::Mul(tsfm::Scale(n->grad, 2.0f), n->inputs[0]->value));
      },
      "Square");
}

Var Tanh(const Var& a) {
  Tensor y = tsfm::Tanh(a.value());
  Tensor y_copy = y;
  return MakeNode(
      std::move(y), {a},
      [y_copy](Node* n) {
        Tensor one_minus_y2 =
            tsfm::Sub(Tensor::Ones(y_copy.shape()), tsfm::Square(y_copy));
        AccumulateIfNeeded(n->inputs[0], tsfm::Mul(n->grad, one_minus_y2));
      },
      "Tanh");
}

Var Sigmoid(const Var& a) {
  Tensor y = tsfm::Sigmoid(a.value());
  Tensor y_copy = y;
  return MakeNode(
      std::move(y), {a},
      [y_copy](Node* n) {
        Tensor d =
            tsfm::Mul(y_copy, tsfm::Sub(Tensor::Ones(y_copy.shape()), y_copy));
        AccumulateIfNeeded(n->inputs[0], tsfm::Mul(n->grad, d));
      },
      "Sigmoid");
}

Var Relu(const Var& a) {
  return MakeNode(
      tsfm::Relu(a.value()), {a},
      [](Node* n) {
        const Tensor x = n->inputs[0]->value.Contiguous();
        Tensor g = Tensor::Empty(x.shape());
        const float* px = x.data();
        const float* pg = n->grad.data();
        float* po = g.mutable_data();
        runtime::ParallelFor(0, x.numel(), int64_t{1} << 14,
                             [&](int64_t lo, int64_t hi) {
                               for (int64_t i = lo; i < hi; ++i) {
                                 po[i] = px[i] > 0.0f ? pg[i] : 0.0f;
                               }
                             });
        AccumulateIfNeeded(n->inputs[0], g);
      },
      "Relu");
}

Var Gelu(const Var& a) {
  return MakeNode(
      tsfm::Gelu(a.value()), {a},
      [](Node* n) {
        constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
        constexpr float kA = 0.044715f;
        // The forward saturates at |x| >= 8 (simd::GeluS); its derivative
        // there is exactly 1 or 0. Unguarded, x^3 overflows and
        // 0.5 * x * (1 - t^2) becomes inf * 0 = NaN.
        constexpr float kSat = 8.0f;
        const Tensor x = n->inputs[0]->value.Contiguous();
        Tensor g = Tensor::Empty(x.shape());
        const float* px = x.data();
        const float* pg = n->grad.data();
        float* po = g.mutable_data();
        runtime::ParallelFor(
            0, x.numel(), int64_t{1} << 14, [&](int64_t lo, int64_t hi) {
              for (int64_t i = lo; i < hi; ++i) {
                const float xi = px[i];
                float d;
                if (xi >= kSat) {
                  d = 1.0f;
                } else if (xi <= -kSat) {
                  d = 0.0f;
                } else {
                  const float u = kC * (xi + kA * xi * xi * xi);
                  const float t = std::tanh(u);
                  const float du = kC * (1.0f + 3.0f * kA * xi * xi);
                  d = 0.5f * (1.0f + t) + 0.5f * xi * (1.0f - t * t) * du;
                }
                po[i] = pg[i] * d;
              }
            });
        AccumulateIfNeeded(n->inputs[0], g);
      },
      "Gelu");
}

Var MatMul(const Var& a, const Var& b) {
  Tensor out = tsfm::MatMul(a.value(), b.value());
  return MakeNode(
      std::move(out), {a, b},
      [](Node* n) {
        const Tensor& av = n->inputs[0]->value;
        const Tensor& bv = n->inputs[1]->value;
        if (n->inputs[0]->requires_grad) {
          Tensor ga = tsfm::MatMul(n->grad, tsfm::TransposeLast2(bv));
          n->inputs[0]->AccumulateGrad(ReduceToShape(ga, av.shape()));
        }
        if (n->inputs[1]->requires_grad) {
          Tensor gb = tsfm::MatMul(tsfm::TransposeLast2(av), n->grad);
          n->inputs[1]->AccumulateGrad(ReduceToShape(gb, bv.shape()));
        }
      },
      "MatMul");
}

Var TransposeLast2(const Var& a) {
  return MakeNode(
      tsfm::TransposeLast2(a.value()), {a},
      [](Node* n) {
        AccumulateIfNeeded(n->inputs[0], tsfm::TransposeLast2(n->grad));
      },
      "TransposeLast2");
}

Var Permute(const Var& a, const std::vector<int64_t>& perm) {
  std::vector<int64_t> inverse(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    inverse[static_cast<size_t>(perm[i])] = static_cast<int64_t>(i);
  }
  return MakeNode(
      tsfm::Permute(a.value(), perm), {a},
      [inverse](Node* n) {
        AccumulateIfNeeded(n->inputs[0], tsfm::Permute(n->grad, inverse));
      },
      "Permute");
}

Var Reshape(const Var& a, Shape new_shape) {
  Shape orig = a.shape();
  return MakeNode(
      a.value().Reshape(std::move(new_shape)), {a},
      [orig](Node* n) {
        AccumulateIfNeeded(n->inputs[0], n->grad.Reshape(orig));
      },
      "Reshape");
}

Var SliceOp(const Var& a, int64_t axis, int64_t start, int64_t end) {
  axis = NormalizeAxis(axis, a.ndim());
  Shape orig = a.shape();
  return MakeNode(
      tsfm::Slice(a.value(), axis, start, end), {a},
      [orig, axis, start](Node* n) {
        AccumulateIfNeeded(n->inputs[0],
                           ScatterSlice(n->grad, orig, axis, start));
      },
      "Slice");
}

Var ConcatOp(const std::vector<Var>& parts, int64_t axis) {
  TSFM_CHECK(!parts.empty());
  axis = NormalizeAxis(axis, parts[0].ndim());
  std::vector<Tensor> values;
  values.reserve(parts.size());
  std::vector<int64_t> lens;
  for (const Var& p : parts) {
    values.push_back(p.value());
    lens.push_back(p.dim(axis));
  }
  return MakeNode(
      tsfm::Concat(values, axis), parts,
      [axis, lens](Node* n) {
        int64_t offset = 0;
        for (size_t i = 0; i < lens.size(); ++i) {
          if (n->inputs[i]->requires_grad) {
            n->inputs[i]->AccumulateGrad(
                tsfm::Slice(n->grad, axis, offset, offset + lens[i]));
          }
          offset += lens[i];
        }
      },
      "Concat");
}

Var SumAll(const Var& a) {
  Tensor out = Tensor::Scalar(tsfm::SumAll(a.value()));
  return MakeNode(
      std::move(out), {a},
      [](Node* n) {
        const float g = n->grad[0];
        AccumulateIfNeeded(n->inputs[0],
                           Tensor::Full(n->inputs[0]->value.shape(), g));
      },
      "SumAll");
}

Var MeanAll(const Var& a) {
  const float inv = 1.0f / static_cast<float>(a.value().numel());
  return Scale(SumAll(a), inv);
}

Var SumAxis(const Var& a, int64_t axis, bool keepdim) {
  axis = NormalizeAxis(axis, a.ndim());
  Shape orig = a.shape();
  return MakeNode(
      tsfm::Sum(a.value(), axis, keepdim), {a},
      [orig, axis, keepdim](Node* n) {
        Tensor g = n->grad;
        if (!keepdim) {
          Shape kd = orig;
          kd[static_cast<size_t>(axis)] = 1;
          g = g.Reshape(kd);
        }
        AccumulateIfNeeded(n->inputs[0], BroadcastTo(g, orig));
      },
      "SumAxis");
}

Var MeanAxis(const Var& a, int64_t axis, bool keepdim) {
  axis = NormalizeAxis(axis, a.ndim());
  const float inv = 1.0f / static_cast<float>(a.dim(axis));
  return Scale(SumAxis(a, axis, keepdim), inv);
}

Var Softmax(const Var& a) {
  Tensor y = tsfm::Softmax(a.value());
  Tensor y_copy = y;
  return MakeNode(
      std::move(y), {a},
      [y_copy](Node* n) {
        // dx = y * (g - sum(g * y, last, keepdim))
        Tensor gy = tsfm::Mul(n->grad, y_copy);
        Tensor s = tsfm::Sum(gy, -1, /*keepdim=*/true);
        Tensor dx = tsfm::Mul(y_copy, tsfm::Sub(n->grad, s));
        AccumulateIfNeeded(n->inputs[0], dx);
      },
      "Softmax");
}

Var LogSoftmax(const Var& a) {
  Tensor y = tsfm::LogSoftmax(a.value());
  Tensor y_copy = y;
  return MakeNode(
      std::move(y), {a},
      [y_copy](Node* n) {
        // dx = g - softmax(x) * sum(g, last, keepdim)
        Tensor p = tsfm::Exp(y_copy);
        Tensor s = tsfm::Sum(n->grad, -1, /*keepdim=*/true);
        Tensor dx = tsfm::Sub(n->grad, tsfm::Mul(p, s));
        AccumulateIfNeeded(n->inputs[0], dx);
      },
      "LogSoftmax");
}

Var LayerNorm(const Var& x, const Var& gamma, const Var& beta, float epsilon) {
  Var mu = MeanAxis(x, -1, /*keepdim=*/true);
  Var xc = Sub(x, mu);
  Var var = MeanAxis(Square(xc), -1, /*keepdim=*/true);
  Var inv_std = Div(Constant(Tensor::Ones(var.shape())),
                    Sqrt(AddScalar(var, epsilon)));
  Var xhat = Mul(xc, inv_std);
  return Add(Mul(xhat, gamma), beta);
}

Var Dropout(const Var& a, float p, bool training, Rng* rng) {
  if (!training || p <= 0.0f) return a;
  return Mul(a, Constant(DropoutMask(a.shape(), p, rng)));
}

Var Attention(const Var& q, const Var& k, const Var& v, int64_t num_heads,
              float dropout, bool training, Rng* rng) {
  TSFM_CHECK_EQ(q.ndim(), 3) << "Attention expects (N, S, E)";
  const bool masked = training && dropout > 0.0f;
  Tensor mask;
  if (masked) {
    const int64_t s = q.dim(1);
    mask = DropoutMask(Shape{q.dim(0), num_heads, s, s}, dropout, rng);
  }
  // Grad mode first, as in MakeNode: a no-grad forward reads no flag. Only
  // a tape keeps the (N, H, S, S) probabilities.
  const bool tape = GradEnabled() && (q.requires_grad() ||
                                      k.requires_grad() || v.requires_grad());
  Tensor probs;
  Tensor out = tsfm::Attention(q.value(), k.value(), v.value(), num_heads,
                               masked ? &mask : nullptr,
                               tape ? &probs : nullptr);
  return MakeNode(
      std::move(out), {q, k, v},
      [probs, mask, masked, num_heads](Node* n) {
        const auto& in = n->inputs;
        Tensor grads[3];
        tsfm::AttentionBackward(
            n->grad, in[0]->value, in[1]->value, in[2]->value, probs,
            masked ? &mask : nullptr, num_heads,
            in[0]->requires_grad ? &grads[0] : nullptr,
            in[1]->requires_grad ? &grads[1] : nullptr,
            in[2]->requires_grad ? &grads[2] : nullptr);
        for (size_t i = 0; i < 3; ++i) {
          if (in[i]->requires_grad) in[i]->AccumulateGrad(grads[i]);
        }
      },
      "Attention");
}

Var CrossEntropy(const Var& logits, const std::vector<int64_t>& labels) {
  TSFM_CHECK_EQ(logits.ndim(), 2);
  const int64_t n = logits.dim(0);
  const int64_t c = logits.dim(1);
  TSFM_CHECK_EQ(static_cast<int64_t>(labels.size()), n);
  Tensor log_probs = tsfm::LogSoftmax(logits.value());
  double loss = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t y = labels[static_cast<size_t>(i)];
    TSFM_CHECK_GE(y, 0);
    TSFM_CHECK_LT(y, c);
    loss -= log_probs.at({i, y});
  }
  Tensor out = Tensor::Scalar(static_cast<float>(loss / n));
  Tensor probs = tsfm::Exp(log_probs);
  return MakeNode(
      std::move(out), {logits},
      [labels, probs, n, c](Node* node) {
        // d loss / d logits = (softmax - onehot) / N, scaled by upstream g.
        const float g = node->grad[0] / static_cast<float>(n);
        Tensor dx = probs.Clone();
        float* p = dx.mutable_data();
        for (int64_t i = 0; i < n; ++i) {
          p[i * c + labels[static_cast<size_t>(i)]] -= 1.0f;
        }
        AccumulateIfNeeded(node->inputs[0], tsfm::Scale(dx, g));
      },
      "CrossEntropy");
}

Var MseLoss(const Var& pred, const Tensor& target) {
  TSFM_CHECK(pred.shape() == target.shape());
  Tensor diff = tsfm::Sub(pred.value(), target);
  const float loss = tsfm::MeanAll(tsfm::Square(diff));
  const float inv_n = 1.0f / static_cast<float>(diff.numel());
  return MakeNode(
      Tensor::Scalar(loss), {pred},
      [diff, inv_n](Node* n) {
        const float g = n->grad[0];
        AccumulateIfNeeded(n->inputs[0],
                           tsfm::Scale(diff, 2.0f * inv_n * g));
      },
      "MseLoss");
}

Var MaskedMseLoss(const Var& pred, const Tensor& target, const Tensor& mask) {
  TSFM_CHECK(pred.shape() == target.shape());
  TSFM_CHECK(pred.shape() == mask.shape());
  Tensor diff = tsfm::Mul(tsfm::Sub(pred.value(), target), mask);
  float num_masked = tsfm::SumAll(tsfm::Abs(mask));
  if (num_masked < 1.0f) num_masked = 1.0f;
  const float loss = tsfm::SumAll(tsfm::Square(diff)) / num_masked;
  const float inv = 1.0f / num_masked;
  return MakeNode(
      Tensor::Scalar(loss), {pred},
      [diff, inv](Node* n) {
        const float g = n->grad[0];
        AccumulateIfNeeded(n->inputs[0], tsfm::Scale(diff, 2.0f * inv * g));
      },
      "MaskedMseLoss");
}

Var L2NormalizeRows(const Var& a, float epsilon) {
  Var sq = SumAxis(Square(a), -1, /*keepdim=*/true);
  Var norm = Sqrt(AddScalar(sq, epsilon));
  return Div(a, norm);
}

Var InfoNceLoss(const Var& anchors, const Var& positives, float temperature) {
  TSFM_CHECK_EQ(anchors.ndim(), 2);
  TSFM_CHECK(anchors.shape() == positives.shape());
  TSFM_CHECK_GT(temperature, 0.0f);
  const int64_t n = anchors.dim(0);
  Var na = L2NormalizeRows(anchors);
  Var np = L2NormalizeRows(positives);
  Var logits = Scale(MatMul(na, TransposeLast2(np)), 1.0f / temperature);
  std::vector<int64_t> labels(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) labels[static_cast<size_t>(i)] = i;
  return CrossEntropy(logits, labels);
}

}  // namespace tsfm::ag
