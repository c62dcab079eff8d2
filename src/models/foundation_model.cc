#include "models/foundation_model.h"

#include <algorithm>

#include "common/check.h"
#include "runtime/thread_pool.h"
#include "tensor/ops.h"

namespace tsfm::models {

namespace {

// Series per task of the no-grad forward. Series are independent, so any
// chunk size gives the same bits. Measured on the none-wide benchmark
// (4 vCPU, 2 threads): 16 fitted about 7% slower than 32, and 64 was no
// faster but held more memory.
constexpr int64_t kSeriesPerChunk = 32;

}  // namespace

ag::Var FoundationModel::EncodeChannels(const ag::Var& x,
                                        const nn::ForwardContext& ctx) const {
  TSFM_CHECK_EQ(x.ndim(), 3) << "EncodeChannels expects (B, T, D)";
  const int64_t b = x.dim(0);
  const int64_t t = x.dim(1);
  const int64_t d = x.dim(2);
  const int64_t e = config_.d_model;
  // (B, T, D) -> (B, D, T) -> (B*D, T): one univariate series per channel.
  ag::Var per_channel =
      ag::Reshape(ag::Permute(x, {0, 2, 1}), Shape{b * d, t});
  ag::Var pooled;  // (B*D, E)
  if (!ag::GradEnabled() && !ctx.training) {
    // No tape to span the batch: encode fixed chunks of series in one
    // fan-out, so the working set is a chunk per thread rather than all
    // B*D series. Ops nested in a task run inline on its thread.
    const Tensor series = per_channel.value();
    Tensor out = Tensor::Empty(Shape{b * d, e});
    float* po = out.mutable_data();
    runtime::ParallelFor(0, b * d, kSeriesPerChunk, [&](int64_t lo,
                                                       int64_t hi) {
      ag::NoGradGuard guard;  // grad mode is per thread
      ag::Var tokens =
          EncodeSeries(ag::Constant(Slice(series, 0, lo, hi)), ctx);
      const Tensor chunk =
          ag::MeanAxis(tokens, 1, /*keepdim=*/false).value();
      std::copy(chunk.data(), chunk.data() + chunk.numel(), po + lo * e);
    });
    pooled = ag::Constant(out);
  } else {
    ag::Var tokens = EncodeSeries(per_channel, ctx);  // (B*D, P, E)
    pooled = ag::MeanAxis(tokens, 1, /*keepdim=*/false);
  }
  ag::Var grouped = ag::Reshape(pooled, Shape{b, d, e});
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
