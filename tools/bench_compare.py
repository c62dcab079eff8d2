#!/usr/bin/env python3
"""Compare two Google Benchmark JSON files and fail on perf regressions.

Used by the CI `bench-regression` job: the baseline is the committed
`bench_results/BENCH_baseline.json` from the PR's base ref, the candidate is
the JSON the job just produced. Three kinds of gates:

  * real_time on watched benchmarks must not regress more than
    --max-regression (fractional, default 0.15);
  * the pooled-allocator benchmark (BM_FineTuneInnerLoopAlloc/1) must keep
    heap_allocs_per_iter at 0 — the BufferPool's whole point;
  * candidate-internal paired gates (PAIRED_GATES below): e.g.
    BM_ServeObsOnP99 must stay within 1.05x BM_ServeBaseP99 plus 5 ms.
    Unlike the baseline-relative gates, a missing pair member FAILS — each
    pair is an acceptance criterion, not an optional benchmark. Paired gates
    only fire when at least one member is present in the candidate, so runs
    filtered to other benchmarks are unaffected.

Benchmarks present in only one file are reported but never fail the gate, so
adding or renaming a benchmark does not require touching the baseline in the
same PR. Exit status: 0 = OK, 1 = regression, 2 = bad input.

Example:
  python3 tools/bench_compare.py bench_results/BENCH_baseline.json \
      bench_results/BENCH_micro_kernels.json --max-regression 0.15
"""

import argparse
import json
import sys

# Benchmarks whose real_time regressions gate the PR. Prefix match on the
# benchmark name (covers every Arg variant).
WATCHED_PREFIXES = (
    "BM_MatMulSquare/",
    "BM_FineTuneInnerLoopAlloc/",
    "BM_PredictSingle",
    "BM_PredictBatch32",
    "BM_ServeMetricsScrape",
    # Produced by tools/tsfm_loadgen.cc (serve-smoke job), not gbench:
    # p99 latency and mean ns/request of the dynamically-batched server.
    "BM_ServeP99",
    "BM_ServeThroughput",
    # The vectorized softmax/gelu row kernels and the bench-scale encoder
    # forward.
    "BM_SoftmaxRow/",
    "BM_GeluRow/",
    "BM_EncoderForwardFp32",
)

# name -> (counter, max allowed value) hard invariants on the candidate run.
COUNTER_LIMITS = {
    "BM_FineTuneInnerLoopAlloc/1": ("heap_allocs_per_iter", 0.0),
}

# (fast, slow, max_time_ratio, abs_slack_ns): candidate-internal invariants.
# fast.real_time must be <= max_time_ratio * slow.real_time + abs_slack_ns.
# Checked whenever either member appears in the candidate run; a
# half-present pair fails.
# The serve obs pair gates the observability tax: an unsaturated loadgen
# wave against a server with tracing + access log + SLO evaluation on must
# keep p99 within 5% of an identically-shaped plain wave (BM_ServeBaseP99,
# not the saturated BM_ServeP99 wave, whose tail is queueing-dominated).
# The absolute slack (5 ms) absorbs the extreme-order-statistic noise of a
# few-hundred-request p99 on shared runners; a systematic tax (e.g. a
# blocking flush on the response path) still lands far outside it.
PAIRED_GATES = (
    ("BM_ServeObsOnP99", "BM_ServeBaseP99", 1.05, 5_000_000.0),
)


def load_benchmarks(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    out = {}
    for bench in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev of repetitions).
        if bench.get("run_type") == "aggregate":
            continue
        out[bench["name"]] = bench
    if not out:
        print(f"bench_compare: no benchmarks in {path}", file=sys.stderr)
        sys.exit(2)
    return out


def is_watched(name):
    return any(name.startswith(p) or name == p.rstrip("/")
               for p in WATCHED_PREFIXES)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline benchmark JSON")
    parser.add_argument("candidate", help="candidate benchmark JSON")
    parser.add_argument("--max-regression", type=float, default=0.15,
                        help="max allowed fractional real_time increase on "
                             "watched benchmarks (default 0.15)")
    parser.add_argument("--all", action="store_true",
                        help="gate every common benchmark, not just the "
                             "watched list")
    args = parser.parse_args()

    base = load_benchmarks(args.baseline)
    cand = load_benchmarks(args.candidate)

    failures = []
    rows = []
    for name in sorted(set(base) | set(cand)):
        if name not in cand:
            rows.append((name, "only in baseline", ""))
            continue
        if name not in base:
            rows.append((name, "only in candidate", ""))
            continue
        b, c = base[name], cand[name]
        bt, ct = b.get("real_time"), c.get("real_time")
        if not bt or not ct:
            continue
        ratio = ct / bt
        gated = args.all or is_watched(name)
        verdict = "ok"
        if gated and ratio > 1.0 + args.max_regression:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: real_time {bt:.1f} -> {ct:.1f} "
                f"{b.get('time_unit', 'ns')} ({(ratio - 1.0) * 100:+.1f}%, "
                f"limit {args.max_regression * 100:.0f}%)")
        rows.append((name, f"{(ratio - 1.0) * 100:+6.1f}%",
                     verdict if gated else "untracked"))

    for fast, slow, max_ratio, abs_slack in PAIRED_GATES:
        if fast not in cand and slow not in cand:
            continue  # pair not exercised by this run
        if fast not in cand or slow not in cand:
            failures.append(
                f"paired gate {fast} vs {slow}: only "
                f"{'fast' if fast in cand else 'slow'} member present")
            continue
        ft, st = cand[fast].get("real_time"), cand[slow].get("real_time")
        if not ft or not st:
            failures.append(f"paired gate {fast} vs {slow}: missing real_time")
            continue
        ratio = ft / st
        if ft > st * max_ratio + abs_slack:
            failures.append(
                f"{fast}: real_time {ft:.1f} is {ratio:.2f}x of {slow} "
                f"({st:.1f}); required <= {max_ratio:.2f}x"
                + (f" + {abs_slack:g} ns slack" if abs_slack else ""))
        else:
            rows.append((fast, f"{ratio:.2f}x of {slow.split('_')[-1]}", "ok"))

    for name, (counter, limit) in COUNTER_LIMITS.items():
        if name not in cand:
            rows.append((name, "missing", "counter not checked"))
            continue
        value = cand[name].get(counter)
        if value is None:
            failures.append(f"{name}: counter {counter} missing")
        elif value > limit:
            failures.append(
                f"{name}: {counter} = {value} (limit {limit:g})")
        else:
            rows.append((name, f"{counter}={value:g}", "ok"))

    width = max(len(r[0]) for r in rows) if rows else 0
    for name, delta, verdict in rows:
        print(f"{name:<{width}}  {delta:>10}  {verdict}")

    if failures:
        print("\nbench_compare: FAILED", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nbench_compare: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
