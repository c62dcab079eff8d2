#!/usr/bin/env python3
"""Benchmark of the fit -> save -> serve path a user runs.

One run of one workload, from the root of a checkout:

    python3 perfbench/run.py --workload pca-wide --seed 1 --seconds 20 --trace 0

builds the program and the benchmark worker from source (into .bench_build),
makes the untimed inputs once per checkout (the workload's generated data and
the pretrained frozen checkpoint), fits, saves the bundle and serves it with
`tsfm serve` under open-loop and closed-loop load, fitting again between
serving rounds. --seed picks the request schedules and samples. The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics; --trace 1 makes a separate traced
run that reports the per-layer metrics. The run record (seed, source digest,
nproc, thread count, CPU model, host noise, each serve phase's p99 with its
sample count) is the stdout line before it.

    python3 perfbench/run.py --workload pca-wide --steady 5

runs the workload five times on consecutive seeds and prints each end-to-end
metric's median, quartiles and spread next to its bound in BENCHMARK.json.

    python3 perfbench/run.py --selftest

runs the benchmark's own tests. See perfbench/README.md.
"""

import argparse
import csv
import functools
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"
WORKER = BUILD / "perfbench_worker"
TSFM = BUILD / "tsfm" / "tools" / "tsfm"

# Every process runs the program's defaults at this pool size.
THREADS = 2
CONNS = min(4, os.cpu_count() or 1)
BUILD_LIMIT_S = 800
RUN_LIMIT_S = 165

# Open-loop rates are fixed per workload at about 1/10 and 1/3 of the
# saturated rate measured when the benchmark was defined (4 vCPU Xeon,
# TSFM_NUM_THREADS=2), so that later commits are measured at the same load.
# pca-wide's fit takes half as long as the others', so it fits twice between
# rounds: every workload's run then lasts about as long.
WORKLOADS = {
    "pca-wide": dict(dataset="InsectWingbeat", train_cap=1000, test_cap=1000,
                     length_cap=0, adapter="PCA", light_rps=78, mid_rps=260,
                     fits_per_round=2),
    "none-wide": dict(dataset="InsectWingbeat", train_cap=120, test_cap=80,
                      length_cap=64, adapter="none", light_rps=6, mid_rps=20,
                      fits_per_round=1),
    "lcomb-narrow": dict(dataset="NATOPS", train_cap=120, test_cap=80,
                         length_cap=64, adapter="lcomb", light_rps=108,
                         mid_rps=360, fits_per_round=1),
}

# Every run fits the workload's one dataset, like a user refitting their own
# training set; --seed picks the request schedules and samples. (With the
# seed choosing the data, none-wide's test accuracy ranged 0.10-0.50 over
# eight seeds: 80 test samples of a near-chance baseline.)
DATA_SEED = 0

# Set-up and fit are repeated inside a run and reported as medians. Serving
# runs in rounds of light, mid and saturated phases (splitting --seconds
# 40/30/30); one fit runs before the first round and the workload's
# fits_per_round, with a few set-up cold starts, between each two rounds
# while the server idles. Fits and phases so take turns over the whole run,
# and a slow spell of the host lands on a few samples of every metric
# instead of on all of one.
ROUNDS = 5
CREATES_PER_ROUND = 2
SERVE_COLD_STARTS = 5
WARM_S = 1.0
REWARM_S = 0.25
HOST_PROBE_S = 1.0
TRACED_LIGHT_S = 4.0
TRACED_BATCHER_S = 2.0
# The traced fit's layer rows must cover its wall time to within this share.
ROWS_TOLERANCE = 0.10

END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "fit_test_accuracy": "fraction",
    "fit_peak_rss_mb": "MB",
    "serve_light_p50_ms": "ms",
    "serve_mid_p50_ms": "ms",
    "serve_sat_rps": "req/s",
    "serve_cpu_ms_per_req": "ms",
    "serve_peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

PER_LAYER = {
    "core.adapter_fit_s": "s",
    "linalg.eigen_calls": "count",
    "linalg.qr_calls": "count",
    "core.adapter_transform_s": "s",
    "core.adapter_transform_us": "us",
    "models.embed_s": "s",
    "tensor.matmul_gflop": "GFLOP",
    "models.embed_gflops": "GFLOP/s",
    "models.encoder_us": "us",
    "models.head_us": "us",
    "autograd.joint_forward_s": "s",
    "autograd.joint_backward_s": "s",
    "optim.step_s": "s",
    "pipeline.normalize_s": "s",
    "pipeline.head_fit_s": "s",
    "pipeline.eval_s": "s",
    "pipeline.normalize_us": "us",
    "pipeline.session_predict_us": "us",
    "pipeline.session_predict_batch4_us": "us",
    "memory.pool_peak_live_mb": "MB",
    "memory.pool_heap_allocs": "count",
    "memory.pool_hit_ratio": "fraction",
    "runtime.parallel_for_calls": "count",
    "runtime.parallel_for_inline_frac": "fraction",
    "runtime.fanout_per_req": "count",
    "serve.ctx_switches_per_req": "count",
    "io.checkpoint_load_s": "s",
    "io.bundle_save_s": "s",
    "io.bundle_load_s": "s",
    "serve.request_bytes": "bytes",
    "serve.protocol_decode_us": "us",
    "serve.protocol_encode_us": "us",
    "serve.batcher_queue_us": "us",
    "serve.batch_requests": "count",
    "trace.fit_s": "s",
    "trace.unaccounted_frac": "fraction",
    "trace.overhead_frac": "fraction",
    "loadgen.late_p99_ms": "ms",
    "host.sleep_late_p99_ms": "ms",
}

# ---------------------------------------------------------------------------
# Statistics.

def percentile(values, q):
    """q-th percentile (0..100), linear between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def spread(values):
    """(q1, median, q3, (q3 - q1) / median), quartiles as statistics.quantiles
    gives them; the benchmark's steadiness measure."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, (q3 - q1) / med


def phase_stats(records, phase):
    """Latency from due time over one phase's answered requests."""
    rs = [r for r in records if r["phase"] == phase]
    answered = [r for r in rs if r["done_ns"] >= 0]
    lat_ms = [(r["done_ns"] - r["due_ns"]) * 1e-6 for r in answered]
    late_ms = [(r["send_ns"] - r["due_ns"]) * 1e-6 for r in rs if r["send_ns"] >= 0]
    ok = sum(r["outcome"] == "ok" for r in rs)
    # Times restart at 0 in each round; a round lasts until its last answer.
    ends = {}
    for r in answered:
        ends[r["round"]] = max(ends.get(r["round"], 0), r["done_ns"])
    end_s = sum(ends.values()) * 1e-9
    return {
        "sent": len(rs),
        "ok": ok,
        "p50_ms": percentile(lat_ms, 50) if lat_ms else None,
        "p99_ms": percentile(lat_ms, 99) if lat_ms else None,
        "late_p99_ms": percentile(late_ms, 99) if late_ms else None,
        "ok_per_s": ok / end_s if end_s > 0 else 0.0,
    }


def ok_counts(records):
    """(requests sent, requests answered with the offline label)."""
    return len(records), sum(r["outcome"] == "ok" for r in records)


def read_records(path):
    out = []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            for k in ("round", "due_ns", "send_ns", "done_ns", "sample", "conn"):
                row[k] = int(row[k])
            out.append(row)
    return out


# ---------------------------------------------------------------------------
# Processes.

class RunFailed(Exception):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("TSFM_")}
    env["TSFM_NUM_THREADS"] = str(THREADS)
    return env


def end_group(proc):
    """Kills every process left in proc's process group, reaps proc, and
    waits until the group is empty (a server orphaned by a killed worker is
    reaped by init)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    try:
        for _ in range(1000):
            os.killpg(proc.pid, 0)
            time.sleep(0.005)
    except ProcessLookupError:
        pass


def run_child(cmd, deadline, stdout=subprocess.PIPE):
    """Runs cmd in its own process group; if it times out or fails, the whole
    group, servers it started included, is killed and waited for."""
    proc = subprocess.Popen([str(c) for c in cmd], stdout=stdout, stderr=sys.stderr,
                            env=child_env(), cwd=ROOT, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        end_group(proc)
        raise RunFailed(f"timed out: {cmd[0]} {cmd[1]}")
    except BaseException:
        end_group(proc)
        raise
    if proc.returncode != 0:
        end_group(proc)
        raise RunFailed(f"exit {proc.returncode}: {' '.join(map(str, cmd[:2]))}")
    return out


def worker_cmd(mode, **kw):
    cmd = [WORKER, mode]
    for k, v in kw.items():
        cmd += ["--" + k.replace("_", "-"), v]
    return cmd


def worker(mode, deadline, **kw):
    out = run_child(worker_cmd(mode, **kw), deadline)
    return json.loads(out.strip().splitlines()[-1])


def serve_session(cmd, deadline, between):
    """Runs the serve worker cmd; each time it reports a finished round (its
    server idling), runs between() and then lets it go on. Returns the
    worker's result. On a timeout or any failure the worker's group, its
    `tsfm serve` included, is killed and waited for."""
    proc = subprocess.Popen([str(c) for c in cmd], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=sys.stderr, env=child_env(),
                            cwd=ROOT, start_new_session=True, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), end_group, [proc])
    timer.start()
    last = None
    try:
        for line in proc.stdout:
            last = json.loads(line)
            if "round" in last:
                between()
                proc.stdin.write("go\n")
                proc.stdin.flush()
        proc.wait()
    except BaseException:
        end_group(proc)
        raise
    finally:
        timer.cancel()
        timer.join()
        proc.stdin.close()
        proc.stdout.close()
    if proc.returncode != 0 or last is None or "round" in last:
        end_group(proc)
        raise RunFailed(f"exit {proc.returncode}: {' '.join(map(str, cmd[:2]))}")
    return last


def build(deadline):
    if not (BUILD / "Makefile").exists():
        run_child(["cmake", "-B", BUILD, "-S", BENCH_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                  deadline, stdout=sys.stderr)
    run_child(["cmake", "--build", BUILD, "--target", "tsfm", "perfbench_worker",
               "-j", str(os.cpu_count() or 1)], deadline, stdout=sys.stderr)


# ---------------------------------------------------------------------------
# Runs.

def prepare(w, seed, deadline):
    """Host probe, then the untimed inputs, made once per checkout and
    source: the frozen checkpoint and the workload's generated data. Returns
    the run's work directory, the worker arguments naming the inputs, and the
    host probe."""
    work = WORK / f"{w}-s{seed}"
    work.mkdir(parents=True, exist_ok=True)
    probe = worker("host-probe", deadline, seconds=HOST_PROBE_S, period_us=2000)
    inputs = WORK / "inputs" / source_digest()
    inputs.mkdir(parents=True, exist_ok=True)
    spec = WORKLOADS[w]
    args = dict(adapter=spec["adapter"], seed=seed, checkpoint=inputs / "moment.ckpt",
                data=inputs / f"{w}.data")
    if not args["checkpoint"].exists():
        worker("pretrain", deadline, **args)
    if not args["data"].exists():
        worker("data", deadline, **args, dataset=spec["dataset"], train_cap=spec["train_cap"],
               test_cap=spec["test_cap"], length_cap=spec["length_cap"], data_seed=DATA_SEED)
    host = {"sleep_late_p99_ms": percentile(probe["late_ms"], 99),
            "sleep_samples": len(probe["late_ms"])}
    return work, args, host


def fit_and_save(args, work, deadline):
    return worker("fit", deadline, **args, fit=1, bundle=work / "bundle",
                  labels=work / "labels.txt")


def serve_args(w, args, work, classes):
    return dict(**args, tsfm=TSFM, bundle=work / "bundle", labels=work / "labels.txt",
                classes=int(classes), conns=CONNS, records=work / "records.csv",
                light_rps=WORKLOADS[w]["light_rps"], mid_rps=WORKLOADS[w]["mid_rps"])


def untraced(w, seed, seconds, deadline):
    work, args, host = prepare(w, seed, deadline)
    fits = [fit_and_save(args, work, deadline)]
    creates = []

    def between_rounds():
        fits.extend(worker("fit", deadline, **args, fit=1)
                    for _ in range(WORKLOADS[w]["fits_per_round"]))
        creates.extend(worker("fit", deadline, **args, fit=0)
                       for _ in range(CREATES_PER_ROUND))

    cmd = worker_cmd("serve", **serve_args(w, args, work, fits[0]["classes"]),
                     cold=SERVE_COLD_STARTS, warm_s=WARM_S, rewarm_s=REWARM_S,
                     rounds=ROUNDS, light_s=0.4 * seconds / ROUNDS,
                     mid_s=0.3 * seconds / ROUNDS, sat_s=0.3 * seconds / ROUNDS)
    sv = serve_session(cmd, deadline, between_rounds)
    records = read_records(work / "records.csv")
    phases = {p: phase_stats(records, p) for p in ("light", "mid", "sat")}
    sent, ok = ok_counts(records)
    accuracies = {f["test_accuracy"] for f in fits}
    metrics = {
        "setup_s": statistics.median(f["load_create_s"] for f in fits + creates)
                   + statistics.median(sv["cold_start_s"]),
        "fit_s": statistics.median(f["fit_s"] for f in fits),
        "fit_test_accuracy": fits[0]["test_accuracy"],
        "fit_peak_rss_mb": statistics.median(f["vmhwm_kb"] for f in fits) / 1024.0,
        "serve_light_p50_ms": phases["light"]["p50_ms"],
        "serve_mid_p50_ms": phases["mid"]["p50_ms"],
        "serve_sat_rps": phases["sat"]["ok_per_s"],
        "serve_cpu_ms_per_req": sv["sat_cpu_s"] * 1e3 / max(1, phases["sat"]["ok"]),
        "serve_peak_rss_mb": sv["server_vmhwm_kb"] / 1024.0,
        "ok_frac": ok / sent,
    }
    # The fit is deterministic: every fit must reach the same accuracy.
    correct = ok == sent and len(accuracies) == 1
    diag = {
        "host": host,
        "phases": {p: {"p99_ms": s["p99_ms"], "samples": s["sent"],
                       "late_p99_ms": s["late_p99_ms"]} for p, s in phases.items()},
        "loadgen_late_p99_ms": max(phases["light"]["late_p99_ms"],
                                   phases["mid"]["late_p99_ms"]),
        "fit_s_all": [f["fit_s"] for f in fits],
    }
    return correct, sent, sent - ok, metrics, diag


def traced(w, seed, seconds, deadline):
    del seconds  # the traced run has a fixed shape
    work, args, host = prepare(w, seed, deadline)
    fit = fit_and_save(args, work, deadline)
    tf = worker("trace-fit", deadline, **args, bundle=work / "traced-bundle",
                spans=work / "fit-spans.json")
    ts = worker("trace-serve", deadline, **args, bundle=work / "bundle",
                labels=work / "labels.txt", spans=work / "serve-spans.json", conns=CONNS,
                mid_rps=WORKLOADS[w]["mid_rps"], batcher_s=TRACED_BATCHER_S)
    sv = worker("serve", deadline, **serve_args(w, args, work, fit["classes"]),
                cold=1, warm_s=0.5, rounds=1, light_s=TRACED_LIGHT_S, mid_s=0, sat_s=0)
    records = read_records(work / "records.csv")
    sent, ok = ok_counts(records)
    light = phase_stats(records, "light")
    unaccounted = 1.0 - tf["rows_s"] / tf["traced_fit_s"]
    metrics = {name: tf[name] for name in PER_LAYER if name in tf}
    metrics.update({name: ts[name] for name in PER_LAYER if name in ts})
    metrics.update({
        "runtime.fanout_per_req": sv["light_tasks_per_req"],
        "serve.ctx_switches_per_req": sv["light_ctx_switches_per_req"],
        "trace.fit_s": tf["traced_fit_s"],
        "trace.unaccounted_frac": unaccounted,
        "trace.overhead_frac": tf["traced_fit_s"] / fit["fit_s"] - 1.0,
        "loadgen.late_p99_ms": light["late_p99_ms"],
        "host.sleep_late_p99_ms": host["sleep_late_p99_ms"],
    })
    correct = (tf["test_accuracy"] == fit["test_accuracy"] and ts["labels_match"] == "yes"
               and abs(unaccounted) <= ROWS_TOLERANCE and ok == sent)
    diag = {"host": host, "untraced_fit_s": fit["fit_s"],
            "untraced_test_accuracy": fit["test_accuracy"],
            "traced_test_accuracy": tf["test_accuracy"],
            "batcher_requests": ts["batcher_requests"],
            "light_batches": sv["light_batches"]}
    return correct, sent, sent - ok, metrics, diag


@functools.lru_cache(maxsize=None)
def source_digest():
    """Content digest of the program's sources: the checkout is not a git
    repository, so this identifies the commit measured."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for d in ("src", "tools"):
        files += sorted(p for p in (ROOT / d).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_ticks():
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields[:8])


def run_once(args):
    # The first run in a checkout builds; the run's own limit starts after.
    build(time.monotonic() + BUILD_LIMIT_S)
    deadline = time.monotonic() + RUN_LIMIT_S
    fn = traced if args.trace else untraced
    steal0, total0 = cpu_ticks()
    correct, attempted, failed, values, diag = fn(args.workload, args.seed, args.seconds,
                                                  deadline)
    steal1, total1 = cpu_ticks()
    # Time the hypervisor gave the VM's vCPUs to others while the run
    # measured: a run on a contended host shows here.
    diag["host"]["steal_frac"] = (steal1 - steal0) / max(1, total1 - total0)
    units = PER_LAYER if args.trace else END_TO_END
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "source_digest": source_digest(),
              "nproc": os.cpu_count(), "tsfm_num_threads": THREADS, "conns": CONNS,
              "cpu_model": cpu_model(), **diag}
    print(json.dumps({"record": record}))
    print(result_line(correct, attempted, failed, values, units))
    return 0 if correct else 1


def result_line(correct, attempted, failed, values, units):
    """The run's last stdout line: every metric of `units` with its value."""
    return json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}})


# ---------------------------------------------------------------------------
# Steadiness summary.

def steady(args):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for i in range(args.steady):
        seed = args.seed + i
        started = time.monotonic()
        out = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                              "--workload", args.workload, "--seed", str(seed),
                              "--seconds", str(args.seconds), "--trace", "0"],
                             stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or len(lines) < 2 or not json.loads(lines[-1]).get("correct"):
            print(f"seed {seed}: run failed", file=sys.stderr)
            return 1
        host = json.loads(lines[-2])["record"]["host"]
        runs.append({k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()})
        print(f"seed {seed}: {time.monotonic() - started:.1f} s, steal "
              f"{host['steal_frac']:.3f}, sleep late p99 {host['sleep_late_p99_ms']:.2f} ms: "
              + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()), file=sys.stderr)
    print(f"{'metric':22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    ok = True
    for name in END_TO_END:
        q1, med, q3, s = spread([r[name] for r in runs])
        bound = bounds.get(name)
        flag = "" if name == "setup_s" or bound is None or s <= bound / 3 else "  > bound/3"
        ok = ok and (flag == "" or s <= bound)
        print(f"{name:22} {med:12.6g} {q1:12.6g} {q3:12.6g} {s:8.4f} {bound:6}{flag}")
    return 0 if ok else 1


def selftest():
    import unittest
    suite = unittest.defaultTestLoader.discover(str(BENCH_DIR), pattern="test_*.py")
    if not unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful():
        return 1
    deadline = time.monotonic() + BUILD_LIMIT_S
    build(deadline)
    run_child(["cmake", "--build", BUILD, "--target", "perfbench_loadgen_test"], deadline,
              stdout=sys.stderr)
    run_child([BUILD / "perfbench_loadgen_test"], deadline, stdout=sys.stderr)
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, default=0,
                   help="run the workload this many times and summarize")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    # A terminated run unwinds like a failed one: the processes it started
    # are killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            p.error("--workload is required")
        if args.steady:
            return steady(args)
        return run_once(args)
    except (RunFailed, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
