#!/usr/bin/env python3
"""Validate run-report manifests written by obs::WriteRunReport.

Used by the CI `bench-regression` job after its `tsfm classify --report`
smoke run, and handy locally after any run with TSFM_RUN_REPORT set. The
report is hand-rendered JSON (schema_version 3, see src/obs/run_report.cc),
so this script is the contract test: every section present, every field of
the right type, and the cross-field invariants that make a report usable
(headroom consistent with the verdict, epoch indices contiguous per phase).

Exit status: 0 = every report valid, 1 = at least one invalid, 2 = bad
input (missing path, unreadable file, not JSON).

Example:
  python3 tools/check_report.py reports/run_report_0.json
  python3 tools/check_report.py reports/          # validate every report in a dir
"""

import argparse
import glob
import json
import os
import sys

NUMBER = (int, float)

RUN_FIELDS = {
    "command": str,
    "model": str,
    "adapter": str,
    "strategy": str,
    "dprime": NUMBER,
}

EPOCH_FIELDS = {
    "epoch": NUMBER,
    "phase": str,
    "loss": NUMBER,
    "accuracy": NUMBER,
    "seconds": NUMBER,
    "pool_live_bytes": NUMBER,
}

STAGE_FIELDS = {
    "stage": str,
    "seconds": NUMBER,
}

STAGE_NAMES = {"normalize", "adapt", "embed", "head"}

MEMORY_FIELDS = {
    "baseline_bytes": NUMBER,
    "peak_bytes": NUMBER,
    "acquires": NUMBER,
    "pool_hits": NUMBER,
    "heap_allocs": NUMBER,
}

RESULT_FIELDS = {
    "train_accuracy": NUMBER,
    "test_accuracy": NUMBER,
    "final_loss": NUMBER,
    "adapter_fit_seconds": NUMBER,
    "train_seconds": NUMBER,
    "total_seconds": NUMBER,
}

ESTIMATE_FIELDS = {
    "model": str,
    "regime": str,
    "channels": NUMBER,
    "verdict": str,
}

BUDGET_FIELDS = {
    "verdict": str,
    "mem_budget_bytes": NUMBER,
    "time_budget_seconds": NUMBER,
    "mem_used_bytes": NUMBER,
    "time_used_seconds": NUMBER,
    "mem_headroom_pct": NUMBER,
    "time_headroom_pct": NUMBER,
}

BUDGET_VERDICTS = {"fits", "exceeds_memory", "exceeds_time"}
ESTIMATE_VERDICTS = {"OK", "COM", "TO"}


def check_fields(obj, fields, where, errors):
    if not isinstance(obj, dict):
        errors.append(f"{where}: expected an object, got {type(obj).__name__}")
        return
    for key, typ in fields.items():
        if key not in obj:
            errors.append(f"{where}: missing key '{key}'")
        elif not isinstance(obj[key], typ):
            errors.append(
                f"{where}.{key}: expected {typ}, got {type(obj[key]).__name__}"
            )


def validate(report, errors):
    if report.get("schema_version") != 3:
        errors.append(
            f"schema_version: expected 3, got {report.get('schema_version')!r}"
        )
    for section in (
        "run",
        "options",
        "epochs",
        "stages",
        "measured_memory",
        "result",
        "budget",
    ):
        if section not in report:
            errors.append(f"missing section '{section}'")
    if "estimate" not in report:
        errors.append("missing section 'estimate' (may be null, not absent)")
    if errors:
        return

    check_fields(report["run"], RUN_FIELDS, "run", errors)
    if not isinstance(report["options"], dict):
        errors.append("options: expected an object")

    epochs = report["epochs"]
    if not isinstance(epochs, list):
        errors.append("epochs: expected a list")
    else:
        last_by_phase = {}
        for i, epoch in enumerate(epochs):
            check_fields(epoch, EPOCH_FIELDS, f"epochs[{i}]", errors)
            if not isinstance(epoch, dict):
                continue
            phase = epoch.get("phase")
            if phase not in ("head", "joint"):
                errors.append(f"epochs[{i}].phase: unknown phase {phase!r}")
            acc = epoch.get("accuracy")
            if isinstance(acc, NUMBER) and not 0.0 <= acc <= 1.0:
                errors.append(f"epochs[{i}].accuracy: {acc} outside [0, 1]")
            # Epoch indices count up contiguously from 0 within each phase.
            expect = last_by_phase.get(phase, -1) + 1
            if isinstance(epoch.get("epoch"), NUMBER):
                if epoch["epoch"] != expect:
                    errors.append(
                        f"epochs[{i}]: phase '{phase}' index {epoch['epoch']}"
                        f", expected {expect}"
                    )
                last_by_phase[phase] = epoch["epoch"]

    stages = report["stages"]
    if not isinstance(stages, list):
        errors.append("stages: expected a list")
    else:
        seen = set()
        for i, stage in enumerate(stages):
            check_fields(stage, STAGE_FIELDS, f"stages[{i}]", errors)
            if not isinstance(stage, dict):
                continue
            name = stage.get("stage")
            if name not in STAGE_NAMES:
                errors.append(f"stages[{i}].stage: unknown stage {name!r}")
            if name in seen:
                errors.append(f"stages[{i}].stage: duplicate stage {name!r}")
            seen.add(name)
            seconds = stage.get("seconds")
            if isinstance(seconds, NUMBER) and seconds < 0:
                errors.append(f"stages[{i}].seconds: negative ({seconds})")

    check_fields(report["measured_memory"], MEMORY_FIELDS, "measured_memory",
                 errors)
    mem = report["measured_memory"]
    if isinstance(mem, dict) and all(
        isinstance(mem.get(k), NUMBER) for k in ("acquires", "pool_hits")
    ):
        if mem["pool_hits"] > mem["acquires"]:
            errors.append("measured_memory: pool_hits > acquires")

    check_fields(report["result"], RESULT_FIELDS, "result", errors)
    result = report["result"]
    if isinstance(result, dict):
        for key in ("train_accuracy", "test_accuracy"):
            v = result.get(key)
            if isinstance(v, NUMBER) and not 0.0 <= v <= 1.0:
                errors.append(f"result.{key}: {v} outside [0, 1]")

    estimate = report["estimate"]
    if estimate is not None:
        check_fields(estimate, ESTIMATE_FIELDS, "estimate", errors)
        if isinstance(estimate, dict):
            verdict = estimate.get("verdict")
            if verdict not in ESTIMATE_VERDICTS:
                errors.append(f"estimate.verdict: unknown verdict {verdict!r}")

    budget = report["budget"]
    check_fields(budget, BUDGET_FIELDS, "budget", errors)
    if isinstance(budget, dict):
        verdict = budget.get("verdict")
        if verdict not in BUDGET_VERDICTS:
            errors.append(f"budget.verdict: unknown verdict {verdict!r}")
        # A "fits" verdict cannot coexist with negative headroom, and an
        # exceeded axis must show negative headroom on that axis.
        mem_hr = budget.get("mem_headroom_pct")
        time_hr = budget.get("time_headroom_pct")
        if isinstance(mem_hr, NUMBER) and isinstance(time_hr, NUMBER):
            if verdict == "fits" and (mem_hr < 0 or time_hr < 0):
                errors.append("budget: verdict 'fits' with negative headroom")
            if verdict == "exceeds_memory" and mem_hr >= 0:
                errors.append(
                    "budget: verdict 'exceeds_memory' with non-negative "
                    "memory headroom"
                )
            if verdict == "exceeds_time" and time_hr >= 0:
                errors.append(
                    "budget: verdict 'exceeds_time' with non-negative "
                    "time headroom"
                )


def expand(paths):
    out = []
    for path in paths:
        if os.path.isdir(path):
            found = sorted(glob.glob(os.path.join(path, "run_report_*.json")))
            if not found:
                print(f"error: no run_report_*.json in {path}",
                      file=sys.stderr)
                sys.exit(2)
            out.extend(found)
        else:
            out.append(path)
    return out


def main():
    parser = argparse.ArgumentParser(
        description="Validate run-report JSON manifests (schema_version 3)."
    )
    parser.add_argument("paths", nargs="+",
                        help="report files or directories of them")
    args = parser.parse_args()

    failed = False
    for path in expand(args.paths):
        try:
            with open(path, encoding="utf-8") as f:
                report = json.load(f)
        except OSError as e:
            print(f"error: cannot read {path}: {e}", file=sys.stderr)
            sys.exit(2)
        except json.JSONDecodeError as e:
            print(f"error: {path} is not valid JSON: {e}", file=sys.stderr)
            sys.exit(2)
        errors = []
        validate(report, errors)
        if errors:
            failed = True
            print(f"INVALID {path}")
            for err in errors:
                print(f"  {err}")
        else:
            epochs = len(report.get("epochs", []))
            verdict = report.get("budget", {}).get("verdict", "?")
            print(f"OK      {path} ({epochs} epochs, budget: {verdict})")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
