#!/bin/bash
# Runs every table/figure bench plus the micro-benchmarks, teeing a combined
# transcript. TSFM_BENCH_FAST=1 uses the CI-scale grid (2 seeds, capped data).
set -u
export TSFM_BENCH_FAST=${TSFM_BENCH_FAST:-1}
export TSFM_BENCH_OUT=${TSFM_BENCH_OUT:-bench_results}
mkdir -p "$TSFM_BENCH_OUT"
BINS="bench_table3_datasets bench_table2_adapters bench_table1_full_ft \
      bench_table4_5_pca_sensitivity bench_fig1_runtime bench_fig2_patch_pca \
      bench_fig3_lcomb_topk bench_fig4_ranks bench_fig5_pvalues \
      bench_fig6_full_vs_adapter bench_ablation_dprime"
for b in $BINS; do
  echo "================================================================"
  echo "== $b"
  echo "================================================================"
  ./build/bench/$b 2>/dev/null
done
for b in bench_micro_kernels bench_micro_adapters bench_micro_encoder; do
  echo "================================================================"
  echo "== $b"
  echo "================================================================"
  ./build/bench/$b --benchmark_min_time=0.05 \
    --benchmark_out="$TSFM_BENCH_OUT/BENCH_${b#bench_}.json" \
    --benchmark_out_format=json 2>/dev/null
done

# TSFM_BENCH_BASELINE=1 additionally refreshes the committed perf baseline
# that the CI bench-regression job compares PRs against. Commit the updated
# bench_results/BENCH_baseline.json alongside any intentional perf change.
if [ "${TSFM_BENCH_BASELINE:-0}" = "1" ]; then
  echo "================================================================"
  echo "== refreshing $TSFM_BENCH_OUT/BENCH_baseline.json"
  echo "================================================================"
  # TSFM_NUM_THREADS is pinned to match the CI bench-regression job so the
  # baseline and the gated candidate run measure the same configuration.
  TSFM_NUM_THREADS=2 ./build/bench/bench_micro_kernels \
    --benchmark_filter='BM_MatMulSquare|BM_FineTuneInnerLoopAlloc|BM_Predict|BM_SoftmaxRow|BM_GeluRow|BM_EncoderForward' \
    --benchmark_min_time=0.1 \
    --benchmark_out="$TSFM_BENCH_OUT/BENCH_baseline.json" \
    --benchmark_out_format=json 2>/dev/null
fi
