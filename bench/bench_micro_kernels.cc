// Micro-benchmarks of the tensor and linear-algebra kernels everything else
// is built on: matmul, softmax, layer-norm math, eigendecomposition and
// truncated SVD. Run with --benchmark_filter=... to narrow.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "autograd/ops.h"
#include "common/rng.h"
#include "data/uea_like.h"
#include "finetune/classifier.h"
#include "linalg/linalg.h"
#include "memory/buffer_pool.h"
#include "models/head.h"
#include "models/moment.h"
#include "obs/metrics.h"
#include "obs/rolling.h"
#include "optim/optim.h"
#include "pipeline/session.h"
#include "runtime/thread_pool.h"
#include "tensor/ops.h"

namespace tsfm {
namespace {

void BM_MatMulSquare(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::RandN({n, n}, &rng);
  Tensor b = Tensor::RandN({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMulSquare)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_MatMulBatched(benchmark::State& state) {
  const int64_t batch = state.range(0);
  Rng rng(2);
  Tensor a = Tensor::RandN({batch, 32, 64}, &rng);
  Tensor b = Tensor::RandN({batch, 64, 32}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
}
BENCHMARK(BM_MatMulBatched)->Arg(4)->Arg(16)->Arg(64);

void BM_Softmax(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Rng rng(3);
  Tensor t = Tensor::RandN({rows, 128}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Softmax(t));
  }
}
BENCHMARK(BM_Softmax)->Arg(64)->Arg(1024);

// The vectorized softmax and GELU row kernels over a 256x256 tensor. Both
// are watched by bench_compare.py.
void BM_SoftmaxRow(benchmark::State& state) {
  Rng rng(31);
  Tensor t = Tensor::RandN({256, 256}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Softmax(t));
  }
  state.SetItemsProcessed(state.iterations() * t.numel());
}
BENCHMARK(BM_SoftmaxRow);

void BM_GeluRow(benchmark::State& state) {
  Rng rng(32);
  Tensor t = Tensor::RandN({256, 256}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Gelu(t));
  }
  state.SetItemsProcessed(state.iterations() * t.numel());
}
BENCHMARK(BM_GeluRow);

// The frozen encoder forward at bench scale (MomentSmallConfig, d_model 64 /
// d_hidden 128). Reports a `peak_bytes` counter: the BufferPool high-water
// delta of one forward, measured after a warm-up forward and outside the
// timed loop.
void BM_EncoderForwardFp32(benchmark::State& state) {
  Rng rng(3);
  models::MomentModel model(models::MomentSmallConfig(), &rng);
  Tensor x = Tensor::RandN({4, 64, 8}, &rng);
  const nn::ForwardContext ctx{false, nullptr};
  ag::NoGradGuard guard;
  const auto fwd = [&] {
    ag::Var emb = model.EncodeChannels(ag::Constant(x), ctx);
    benchmark::DoNotOptimize(emb.value().data());
  };
  auto& pool = memory::BufferPool::Instance();
  fwd();  // warm pool freelists
  const uint64_t before = pool.Snapshot().live_bytes;
  pool.ResetPeak();
  fwd();
  state.counters["peak_bytes"] =
      static_cast<double>(pool.Snapshot().peak_live_bytes - before);
  for (auto _ : state) fwd();
}
BENCHMARK(BM_EncoderForwardFp32);

// One joint-loop step of the frozen encoder at lcomb-narrow's shape: 32
// samples of D' = 5 adapted channels, i.e. 160 series of T = 51 (6
// patches), forward in training mode (dropout on) and backward to the
// encoder's input, which is what the adapter's gradient needs. The
// encoder's weights take no gradient, as in the joint loop.
void BM_EncoderTrainStep(benchmark::State& state) {
  Rng rng(10);
  models::MomentModel model(models::MomentSmallConfig(), &rng);
  for (ag::Var& p : model.Parameters()) p.set_requires_grad(false);
  const Tensor x = Tensor::RandN({32, 51, 5}, &rng);
  Rng dropout_rng(11);
  const nn::ForwardContext ctx{/*training=*/true, &dropout_rng};
  for (auto _ : state) {
    ag::Var in(x, /*requires_grad=*/true);
    ag::MeanAll(model.EncodeChannels(in, ctx)).Backward();
    benchmark::DoNotOptimize(in.grad().data());
  }
}
BENCHMARK(BM_EncoderTrainStep);

void BM_BroadcastAdd(benchmark::State& state) {
  Rng rng(4);
  Tensor a = Tensor::RandN({64, 128, 64}, &rng);
  Tensor bias = Tensor::RandN({64}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Add(a, bias));
  }
}
BENCHMARK(BM_BroadcastAdd);

void BM_JacobiEigen(benchmark::State& state) {
  const int64_t d = state.range(0);
  Rng rng(5);
  Tensor b = Tensor::RandN({d, d}, &rng);
  Tensor a = MatMul(TransposeLast2(b), b);
  for (auto _ : state) {
    auto r = SymmetricEigen(a);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_JacobiEigen)->Arg(16)->Arg(64)->Arg(128);

void BM_TopKEigenSubspace(benchmark::State& state) {
  const int64_t d = state.range(0);
  Rng rng(6);
  Tensor b = Tensor::RandN({d, 16}, &rng);
  Tensor a = MatMul(b, TransposeLast2(b));
  for (auto _ : state) {
    auto r = TopKEigen(a, 5);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_TopKEigenSubspace)->Arg(256)->Arg(512)->Arg(1024);

void BM_TruncatedSvd(benchmark::State& state) {
  const int64_t d = state.range(0);
  Rng rng(7);
  Tensor x = Tensor::RandN({512, d}, &rng);
  for (auto _ : state) {
    auto r = TruncatedSvd(x, 5);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_TruncatedSvd)->Arg(32)->Arg(128)->Arg(256);

void BM_AutogradBackwardMlp(benchmark::State& state) {
  // Forward+backward through a 2-layer MLP expression: measures tape
  // overhead relative to raw kernels.
  Rng rng(8);
  Tensor x = Tensor::RandN({32, 64}, &rng);
  Tensor w1 = Tensor::RandN({64, 128}, &rng, 0.1f);
  Tensor w2 = Tensor::RandN({128, 10}, &rng, 0.1f);
  std::vector<int64_t> labels(32);
  for (int64_t i = 0; i < 32; ++i) labels[static_cast<size_t>(i)] = i % 10;
  for (auto _ : state) {
    ag::Var vw1(w1, true), vw2(w2, true);
    ag::Var h = ag::Gelu(ag::MatMul(ag::Constant(x), vw1));
    ag::Var logits = ag::MatMul(h, vw2);
    ag::Var loss = ag::CrossEntropy(logits, labels);
    loss.Backward();
    benchmark::DoNotOptimize(vw1.grad());
  }
}
BENCHMARK(BM_AutogradBackwardMlp);

// Allocation pressure of the fine-tune inner loop: one head-training step
// (batch selection + forward + backward + AdamW) per iteration, the hot loop
// of the embed-once path. Arg 1 runs with the BufferPool enabled, Arg 0 with
// it disabled — the in-process equivalent of TSFM_DISABLE_POOL=1 — so one
// JSON report shows exactly what pooling saves. Counters:
//   acquires_per_iter     tensor-buffer requests per step
//   heap_allocs_per_iter  requests that reached new[] per step
//   peak_pool_bytes       allocator high-water mark over the timed run
void BM_FineTuneInnerLoopAlloc(benchmark::State& state) {
  memory::BufferPool& pool = memory::BufferPool::Instance();
  const bool ambient_enabled = pool.enabled();
  const bool pool_on = state.range(0) != 0;
  pool.SetEnabledForTesting(pool_on);
  pool.Trim();  // both configurations start from empty freelists

  Rng rng(9);
  const int64_t n = 256, e = 64, classes = 6, bs = 32;
  Tensor embeddings = Tensor::RandN({n, e}, &rng);
  std::vector<int64_t> labels(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    labels[static_cast<size_t>(i)] = i % classes;
  }
  models::ClassificationHead head(e, classes, &rng);
  optim::AdamW opt(head.Parameters(), 5e-2f, 0.9f, 0.999f, 1e-8f, 1e-4f);

  std::vector<int64_t> idx(static_cast<size_t>(bs));
  int64_t step = 0;
  auto run_step = [&] {
    const int64_t start = (step++ * bs) % n;
    std::vector<int64_t> yb(static_cast<size_t>(bs));
    for (int64_t i = 0; i < bs; ++i) {
      idx[static_cast<size_t>(i)] = start + i;
      yb[static_cast<size_t>(i)] = labels[static_cast<size_t>(start + i)];
    }
    Tensor xb = TakeRows(embeddings, idx);
    ag::Var logits = head.Forward(ag::Constant(xb));
    ag::Var loss = ag::CrossEntropy(logits, yb);
    loss.Backward();
    opt.Step();
    opt.ZeroGrad();
    head.ZeroGrad();
    benchmark::DoNotOptimize(loss.value()[0]);
  };
  run_step();  // warm-up: pooled steady state, not cold-cache misses

  pool.ResetPeak();
  const memory::PoolStats s0 = pool.Snapshot();
  for (auto _ : state) {
    run_step();
  }
  const memory::PoolStats s1 = pool.Snapshot();

  const double iters = static_cast<double>(state.iterations());
  state.counters["pool_enabled"] = pool_on ? 1 : 0;
  state.counters["acquires_per_iter"] =
      static_cast<double>(s1.acquires - s0.acquires) / iters;
  state.counters["heap_allocs_per_iter"] =
      static_cast<double>(s1.heap_allocs - s0.heap_allocs) / iters;
  state.counters["peak_pool_bytes"] =
      static_cast<double>(s1.peak_live_bytes);

  pool.SetEnabledForTesting(ambient_enabled);
}
BENCHMARK(BM_FineTuneInnerLoopAlloc)->Arg(1)->Arg(0);

// End-to-end serving latency through a fitted InferenceSession: normalize +
// adapter transform + frozen-encoder forward + head, on a test-scale ViT so
// the gate tracks the whole predict path, not one kernel. The fixture fits
// once per process and is shared across the single/batch variants.
struct PredictFixture {
  data::DatasetPair pair;
  finetune::TsfmClassifier classifier;
  std::shared_ptr<const pipeline::InferenceSession> session;
  Tensor one;      // (1, T, D)
  Tensor batch32;  // (32, T, D)
};

const PredictFixture& SharedPredictFixture() {
  static const PredictFixture* fixture = [] {
    data::UeaDatasetSpec spec{"bench_pred", "bp", 64, 40, 8, 32, 2, 3};
    auto pair = data::GenerateUeaLike(spec, 11, data::GeneratorCaps{});
    finetune::ClassifierConfig config;
    config.model_kind = models::ModelKind::kVit;
    config.model_config = models::VitTestConfig();
    config.pretrain.corpus_size = 48;
    config.pretrain.series_length = 32;
    config.pretrain.epochs = 1;
    config.finetune.head_epochs = 8;
    config.adapter_options.out_channels = 3;
    auto clf = finetune::TsfmClassifier::Create(config);
    if (!clf.ok()) {
      std::fprintf(stderr, "predict fixture: %s\n",
                   clf.status().ToString().c_str());
      std::abort();
    }
    if (auto s = clf->Fit(pair.train, &pair.test); !s.ok()) {
      std::fprintf(stderr, "predict fixture: %s\n", s.ToString().c_str());
      std::abort();
    }
    auto* f = new PredictFixture{std::move(pair), std::move(*clf), nullptr,
                                 Tensor(), Tensor()};
    f->session = f->classifier.session();
    f->one = Slice(f->pair.test.x, 0, 0, 1).Contiguous();
    f->batch32 = Slice(f->pair.test.x, 0, 0, 32).Contiguous();
    return f;
  }();
  return *fixture;
}

void BM_PredictSingle(benchmark::State& state) {
  const PredictFixture& f = SharedPredictFixture();
  for (auto _ : state) {
    auto label = f.session->Predict(f.one);
    benchmark::DoNotOptimize(label.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredictSingle);

void BM_PredictBatch32(benchmark::State& state) {
  const PredictFixture& f = SharedPredictFixture();
  for (auto _ : state) {
    auto labels = f.session->PredictBatch(f.batch32);
    benchmark::DoNotOptimize(labels.ok());
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_PredictBatch32);

// Cost of one live metrics scrape (Registry::RenderPrometheus) against a
// registry populated the way a busy server populates it: rolling serve
// instruments with labeled per-op histograms plus a spread of plain
// counters. This is the cost an operator pays per scrape interval; it must
// stay milliseconds-flat so a 1 s --follow loop is effectively free.
void BM_ServeMetricsScrape(benchmark::State& state) {
  auto& registry = obs::Registry::Instance();
  static const bool populated = [&registry] {
    Rng rng(5);
    auto* latency = registry.GetRollingHistogram(obs::LabeledName(
        "bench.scrape.latency", {{"model", "default"}, {"op", "classify"}}));
    auto* embed = registry.GetRollingHistogram(obs::LabeledName(
        "bench.scrape.latency", {{"model", "default"}, {"op", "embed"}}));
    auto* requests = registry.GetRollingCounter("bench.scrape.requests");
    for (int i = 0; i < 10000; ++i) {
      latency->Observe(0.001 + 0.0001 * (i % 50));
      embed->Observe(0.002 + 0.0001 * (i % 30));
      requests->Add(1);
    }
    for (int i = 0; i < 32; ++i) {
      registry.GetCounter("bench.scrape.counter_" + std::to_string(i))
          ->Add(static_cast<uint64_t>(i));
    }
    return true;
  }();
  benchmark::DoNotOptimize(populated);
  for (auto _ : state) {
    std::string text = registry.RenderPrometheus();
    benchmark::DoNotOptimize(text.data());
    state.counters["bytes"] = static_cast<double>(text.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeMetricsScrape);

// Parallel speedup of the 512^3 matmul across pool sizes. Registered last
// (and restoring the ambient thread count per run) so the pool-size sweep
// never bleeds into the single-configuration benchmarks above.
void BM_MatMulSquareThreads(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  const int ambient = runtime::NumThreads();
  runtime::SetNumThreads(threads);
  Rng rng(1);
  Tensor a = Tensor::RandN({n, n}, &rng);
  Tensor b = Tensor::RandN({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.counters["threads"] = threads;
  runtime::SetNumThreads(ambient);
}
BENCHMARK(BM_MatMulSquareThreads)
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4})
    ->Args({512, 8});

}  // namespace
}  // namespace tsfm

BENCHMARK_MAIN();
