#include "nn/layers.h"

#include <cmath>

#include "common/check.h"
#include "tensor/ops.h"

namespace tsfm::nn {

Linear::Linear(int64_t in_features, int64_t out_features, Rng* rng,
               bool use_bias)
    : in_features_(in_features), out_features_(out_features) {
  TSFM_CHECK_GT(in_features, 0);
  TSFM_CHECK_GT(out_features, 0);
  weight_ = RegisterParameter("weight",
                              GlorotUniform(in_features, out_features, rng));
  if (use_bias) {
    bias_ = RegisterParameter("bias", Tensor::Zeros(Shape{out_features}));
  }
}

ag::Var Linear::Forward(const ag::Var& x) const {
  TSFM_CHECK_EQ(x.dim(-1), in_features_);
  ag::Var y;
  if (x.ndim() == 1) {
    ag::Var x2 = ag::Reshape(x, Shape{1, in_features_});
    y = ag::Reshape(ag::MatMul(x2, weight_), Shape{out_features_});
  } else {
    y = ag::MatMul(x, weight_);
  }
  if (bias_.defined()) y = ag::Add(y, bias_);
  return y;
}

LayerNorm::LayerNorm(int64_t dim, float epsilon) : epsilon_(epsilon) {
  TSFM_CHECK_GT(dim, 0);
  gamma_ = RegisterParameter("gamma", Tensor::Ones(Shape{dim}));
  beta_ = RegisterParameter("beta", Tensor::Zeros(Shape{dim}));
}

ag::Var LayerNorm::Forward(const ag::Var& x) const {
  return ag::LayerNorm(x, gamma_, beta_, epsilon_);
}

FeedForward::FeedForward(int64_t d_model, int64_t d_hidden, float dropout,
                         Rng* rng, Activation activation)
    : activation_(activation) {
  fc1_ = std::make_shared<Linear>(d_model, d_hidden, rng);
  fc2_ = std::make_shared<Linear>(d_hidden, d_model, rng);
  dropout_ = std::make_shared<Dropout>(dropout);
  RegisterModule("fc1", fc1_);
  RegisterModule("fc2", fc2_);
  RegisterModule("dropout", dropout_);
}

ag::Var FeedForward::Forward(const ag::Var& x,
                             const ForwardContext& ctx) const {
  ag::Var h = fc1_->Forward(x);
  h = activation_ == Activation::kGelu ? ag::Gelu(h) : ag::Relu(h);
  h = dropout_->Forward(h, ctx);
  return fc2_->Forward(h);
}

MultiHeadSelfAttention::MultiHeadSelfAttention(int64_t d_model,
                                               int64_t num_heads,
                                               float dropout, Rng* rng)
    : d_model_(d_model), num_heads_(num_heads), attn_dropout_(dropout) {
  TSFM_CHECK_EQ(d_model % num_heads, 0)
      << "d_model must be divisible by num_heads";
  wq_ = std::make_shared<Linear>(d_model, d_model, rng);
  wk_ = std::make_shared<Linear>(d_model, d_model, rng);
  wv_ = std::make_shared<Linear>(d_model, d_model, rng);
  wo_ = std::make_shared<Linear>(d_model, d_model, rng);
  RegisterModule("wq", wq_);
  RegisterModule("wk", wk_);
  RegisterModule("wv", wv_);
  RegisterModule("wo", wo_);
}

ag::Var MultiHeadSelfAttention::Forward(const ag::Var& x,
                                        const ForwardContext& ctx) const {
  TSFM_CHECK_EQ(x.ndim(), 3);
  TSFM_CHECK_EQ(x.dim(2), d_model_);
  const ag::Var q = wq_->Forward(x);
  const ag::Var k = wk_->Forward(x);
  const ag::Var v = wv_->Forward(x);
  return wo_->Forward(ag::Attention(q, k, v, num_heads_, attn_dropout_,
                                    ctx.training, ctx.rng));
}

TransformerEncoderLayer::TransformerEncoderLayer(int64_t d_model,
                                                 int64_t num_heads,
                                                 int64_t d_hidden,
                                                 float dropout, Rng* rng) {
  norm1_ = std::make_shared<LayerNorm>(d_model);
  norm2_ = std::make_shared<LayerNorm>(d_model);
  attn_ =
      std::make_shared<MultiHeadSelfAttention>(d_model, num_heads, dropout, rng);
  ff_ = std::make_shared<FeedForward>(d_model, d_hidden, dropout, rng);
  dropout_ = std::make_shared<Dropout>(dropout);
  RegisterModule("norm1", norm1_);
  RegisterModule("norm2", norm2_);
  RegisterModule("attn", attn_);
  RegisterModule("ff", ff_);
  RegisterModule("dropout", dropout_);
}

ag::Var TransformerEncoderLayer::Forward(const ag::Var& x,
                                         const ForwardContext& ctx) const {
  ag::Var h = ag::Add(
      x, dropout_->Forward(attn_->Forward(norm1_->Forward(x), ctx), ctx));
  h = ag::Add(h,
              dropout_->Forward(ff_->Forward(norm2_->Forward(h), ctx), ctx));
  return h;
}

TransformerEncoder::TransformerEncoder(int64_t num_layers, int64_t d_model,
                                       int64_t num_heads, int64_t d_hidden,
                                       float dropout, Rng* rng)
    : d_model_(d_model) {
  TSFM_CHECK_GT(num_layers, 0);
  for (int64_t i = 0; i < num_layers; ++i) {
    auto layer = std::make_shared<TransformerEncoderLayer>(
        d_model, num_heads, d_hidden, dropout, rng);
    RegisterModule("layer" + std::to_string(i), layer);
    layers_.push_back(std::move(layer));
  }
  final_norm_ = std::make_shared<LayerNorm>(d_model);
  RegisterModule("final_norm", final_norm_);
}

ag::Var TransformerEncoder::Forward(const ag::Var& x,
                                    const ForwardContext& ctx) const {
  ag::Var h = x;
  for (const auto& layer : layers_) h = layer->Forward(h, ctx);
  return final_norm_->Forward(h);
}

PositionalEncoding::PositionalEncoding(int64_t max_len, int64_t d_model)
    : table_(Shape{max_len, d_model}) {
  for (int64_t pos = 0; pos < max_len; ++pos) {
    for (int64_t i = 0; i < d_model; ++i) {
      const double angle =
          pos / std::pow(10000.0, 2.0 * (i / 2) / static_cast<double>(d_model));
      table_.at({pos, i}) = static_cast<float>(i % 2 == 0 ? std::sin(angle)
                                                          : std::cos(angle));
    }
  }
}

ag::Var PositionalEncoding::Forward(const ag::Var& x) const {
  TSFM_CHECK_EQ(x.ndim(), 3);
  const int64_t s = x.dim(1);
  TSFM_CHECK_LE(s, table_.dim(0)) << "sequence longer than max_len";
  TSFM_CHECK_EQ(x.dim(2), table_.dim(1));
  Tensor pos = Slice(table_, 0, 0, s);  // (S, E) broadcasts over batch
  return ag::Add(x, ag::Constant(pos));
}

}  // namespace tsfm::nn
