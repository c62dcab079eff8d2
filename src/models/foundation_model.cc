#include "models/foundation_model.h"

#include "common/check.h"

namespace tsfm::models {

ag::Var FoundationModel::EncodeChannels(const ag::Var& x,
                                        const nn::ForwardContext& ctx) const {
  TSFM_CHECK_EQ(x.ndim(), 3) << "EncodeChannels expects (B, T, D)";
  const int64_t b = x.dim(0);
  const int64_t t = x.dim(1);
  const int64_t d = x.dim(2);
  // (B, T, D) -> (B, D, T) -> (B*D, T): one univariate series per channel.
  ag::Var per_channel =
      ag::Reshape(ag::Permute(x, {0, 2, 1}), Shape{b * d, t});
  ag::Var tokens = EncodeSeries(per_channel, ctx);  // (B*D, P, E)
  ag::Var pooled = ag::MeanAxis(tokens, 1, /*keepdim=*/false);  // (B*D, E)
  ag::Var grouped = ag::Reshape(pooled, Shape{b, d, config_.d_model});
  return ag::MeanAxis(grouped, 1, /*keepdim=*/false);  // (B, E)
}

FoundationModelConfig MomentSmallConfig() {
  FoundationModelConfig c;
  c.name = "MOMENT";
  c.d_model = 64;
  c.num_layers = 2;
  c.num_heads = 4;
  c.d_hidden = 128;
  c.patch_len = 8;
  c.patch_stride = 8;
  c.dropout = 0.1f;
  return c;
}

FoundationModelConfig VitSmallConfig() {
  FoundationModelConfig c;
  c.name = "ViT";
  c.d_model = 48;
  c.num_layers = 2;
  c.num_heads = 4;
  c.d_hidden = 96;
  c.patch_len = 8;
  c.patch_stride = 4;
  c.dropout = 0.1f;
  return c;
}

FoundationModelConfig MomentTestConfig() {
  FoundationModelConfig c = MomentSmallConfig();
  c.d_model = 16;
  c.num_heads = 2;
  c.d_hidden = 32;
  c.num_layers = 1;
  c.dropout = 0.0f;
  return c;
}

FoundationModelConfig VitTestConfig() {
  FoundationModelConfig c = VitSmallConfig();
  c.d_model = 16;
  c.num_heads = 2;
  c.d_hidden = 32;
  c.num_layers = 1;
  c.dropout = 0.0f;
  return c;
}

}  // namespace tsfm::models
