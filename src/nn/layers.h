#ifndef TSFM_NN_LAYERS_H_
#define TSFM_NN_LAYERS_H_

#include <cstdint>
#include <memory>

#include "autograd/ops.h"
#include "nn/module.h"

namespace tsfm::nn {

/// Fully connected layer: y = x W + b, applied over the last axis.
/// Input (..., in_features) -> output (..., out_features).
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng* rng,
         bool use_bias = true);

  ag::Var Forward(const ag::Var& x) const;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }
  const ag::Var& weight() const { return weight_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  ag::Var weight_;  // (in, out)
  ag::Var bias_;    // (out) or undefined
};

/// Layer normalization over the last axis with learned affine transform.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int64_t dim, float epsilon = 1e-5f);

  ag::Var Forward(const ag::Var& x) const;

 private:
  ag::Var gamma_;
  ag::Var beta_;
  float epsilon_;
};

/// Inverted dropout with probability `p`.
class Dropout : public Module {
 public:
  explicit Dropout(float p) : p_(p) {}

  ag::Var Forward(const ag::Var& x, const ForwardContext& ctx) const {
    return ag::Dropout(x, p_, ctx.training, ctx.rng);
  }

 private:
  float p_;
};

/// Activation kinds supported by FeedForward.
enum class Activation { kGelu, kRelu };

/// Transformer position-wise feed-forward: Linear -> act -> Linear.
class FeedForward : public Module {
 public:
  FeedForward(int64_t d_model, int64_t d_hidden, float dropout, Rng* rng,
              Activation activation = Activation::kGelu);

  ag::Var Forward(const ag::Var& x, const ForwardContext& ctx) const;

 private:
  std::shared_ptr<Linear> fc1_;
  std::shared_ptr<Linear> fc2_;
  std::shared_ptr<Dropout> dropout_;
  Activation activation_;
};

/// Multi-head scaled-dot-product self-attention over (B, S, E) inputs: the
/// Q, K, V projections, one ag::Attention node with dropout on the
/// attention probabilities, and the output projection.
class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(int64_t d_model, int64_t num_heads, float dropout,
                         Rng* rng);

  ag::Var Forward(const ag::Var& x, const ForwardContext& ctx) const;

  int64_t num_heads() const { return num_heads_; }

 private:
  int64_t d_model_;
  int64_t num_heads_;
  float attn_dropout_;
  std::shared_ptr<Linear> wq_;
  std::shared_ptr<Linear> wk_;
  std::shared_ptr<Linear> wv_;
  std::shared_ptr<Linear> wo_;
};

/// Pre-norm transformer encoder layer:
///   x += Dropout(Attn(LN(x)));  x += Dropout(FF(LN(x))).
class TransformerEncoderLayer : public Module {
 public:
  TransformerEncoderLayer(int64_t d_model, int64_t num_heads, int64_t d_hidden,
                          float dropout, Rng* rng);

  ag::Var Forward(const ag::Var& x, const ForwardContext& ctx) const;

 private:
  std::shared_ptr<LayerNorm> norm1_;
  std::shared_ptr<LayerNorm> norm2_;
  std::shared_ptr<MultiHeadSelfAttention> attn_;
  std::shared_ptr<FeedForward> ff_;
  std::shared_ptr<Dropout> dropout_;
};

/// Stack of encoder layers with a final layer norm.
class TransformerEncoder : public Module {
 public:
  TransformerEncoder(int64_t num_layers, int64_t d_model, int64_t num_heads,
                     int64_t d_hidden, float dropout, Rng* rng);

  ag::Var Forward(const ag::Var& x, const ForwardContext& ctx) const;

  int64_t d_model() const { return d_model_; }

 private:
  int64_t d_model_;
  std::vector<std::shared_ptr<TransformerEncoderLayer>> layers_;
  std::shared_ptr<LayerNorm> final_norm_;
};

/// Fixed sinusoidal positional encoding added to (B, S, E) token sequences.
/// Not a learned parameter; supports sequences up to `max_len`.
class PositionalEncoding {
 public:
  PositionalEncoding(int64_t max_len, int64_t d_model);

  /// Adds positions [0, S) to `x` of shape (B, S, E); S <= max_len.
  ag::Var Forward(const ag::Var& x) const;

 private:
  Tensor table_;  // (max_len, d_model)
};

}  // namespace tsfm::nn

#endif  // TSFM_NN_LAYERS_H_
