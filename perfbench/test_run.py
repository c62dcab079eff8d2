"""Tests of the benchmark's own logic: statistics, request accounting, and
the output's metric names and units against BENCHMARK.json.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import sys
import time
import unittest
from pathlib import Path

import run


def rec(phase, due_ms, send_ms, done_ms, outcome="ok", rnd=0):
    ns = lambda ms: -1 if ms is None else int(ms * 1e6)
    return {"phase": phase, "round": rnd, "due_ns": ns(due_ms), "send_ns": ns(send_ms),
            "done_ns": ns(done_ms), "sample": 0, "conn": 0, "outcome": outcome}


class PercentileTest(unittest.TestCase):
    def test_known_samples(self):
        self.assertEqual(run.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(run.percentile([4, 1, 3, 2], 0), 1)
        self.assertEqual(run.percentile([4, 1, 3, 2], 100), 4)
        self.assertAlmostEqual(run.percentile(range(1, 101), 99), 99.01)
        self.assertEqual(run.percentile([7], 99), 7)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)

    def test_spread_uses_statistics_quartiles(self):
        values = list(range(1, 11))
        q1, med, q3, s = run.spread(values)
        self.assertEqual((q1, q3), tuple(statistics.quantiles(values, n=4)[::2]))
        self.assertEqual((q1, med, q3), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(s, 1.0)
        self.assertEqual(run.spread([3.0] * 10)[3], 0.0)


class AccountingTest(unittest.TestCase):
    def test_latency_is_timed_from_due(self):
        # The second request was due at 10 ms but sent at 50 ms behind a
        # stall; its 2 ms on the wire must not hide the 42 ms it waited.
        records = [rec("light", 0, 0, 50), rec("light", 10, 50, 52)]
        stats = run.phase_stats(records, "light")
        self.assertAlmostEqual(stats["p50_ms"], 46.0)
        self.assertAlmostEqual(stats["p99_ms"], 49.92)
        self.assertAlmostEqual(stats["late_p99_ms"], 39.6)

    def test_busy_errors_timeouts_and_mismatches_are_failures(self):
        records = [rec("mid", 0, 0, 1), rec("mid", 1, 1, 2, "busy"),
                   rec("mid", 2, 2, 3, "error"), rec("mid", 3, 3, 4, "mismatch"),
                   rec("mid", 4, None, None, "timeout"), rec("mid", 5, 5, 6)]
        self.assertEqual(run.ok_counts(records), (6, 2))
        stats = run.phase_stats(records, "mid")
        self.assertEqual((stats["sent"], stats["ok"]), (6, 2))

    def test_saturated_rate_counts_only_ok_answers(self):
        records = [rec("sat", i, i, i + 1) for i in range(99)]
        records.append(rec("sat", 99, 99, 100, "mismatch"))
        self.assertAlmostEqual(run.phase_stats(records, "sat")["ok_per_s"], 990.0)

    def test_saturated_rate_adds_up_rounds(self):
        # Two rounds of 100 ms each, times restarting at 0 in each round.
        records = [rec("sat", i, i, i + 1, rnd=r) for r in (0, 1) for i in range(100)]
        self.assertAlmostEqual(run.phase_stats(records, "sat")["ok_per_s"], 1000.0)


# Stands in for the serve worker: starts a "server" in its process group,
# writes its pid to argv[1], and hands control back after rounds 1 and 2
# (or, given "hang", never answers).
FAKE_SERVE_WORKER = """
import json, subprocess, sys, time
server = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
open(sys.argv[1], "w").write(str(server.pid))
if sys.argv[2:] == ["hang"]:
    time.sleep(60)
for r in (1, 2):
    print(json.dumps({"round": r}), flush=True)
    if sys.stdin.readline() != "go\\n":
        sys.exit(1)
server.kill()
server.wait()
print(json.dumps({"done": 1}))
"""


class ServeSessionTest(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(exist_ok=True)
        self.pid_file = run.WORK / f"selftest-server-{os.getpid()}.pid"
        self.cmd = [sys.executable, "-c", FAKE_SERVE_WORKER, self.pid_file]

    def tearDown(self):
        self.pid_file.unlink(missing_ok=True)

    def assert_server_gone(self):
        stat = Path(f"/proc/{self.pid_file.read_text()}/stat")
        if stat.exists():  # a killed orphan may wait a moment for init to reap it
            self.assertEqual(stat.read_text().rsplit(")", 1)[1].split()[0], "Z")

    def test_runs_between_at_each_round(self):
        calls = []
        out = run.serve_session(self.cmd, time.monotonic() + 30, lambda: calls.append(1))
        self.assertEqual(out, {"done": 1})
        self.assertEqual(len(calls), 2)

    def test_failure_between_rounds_stops_worker_and_server(self):
        def fail():
            raise run.RunFailed("fit failed")
        with self.assertRaises(run.RunFailed):
            run.serve_session(self.cmd, time.monotonic() + 30, fail)
        self.assert_server_gone()

    def test_deadline_stops_worker_and_server(self):
        started = time.monotonic()
        with self.assertRaises(run.RunFailed):
            run.serve_session(self.cmd + ["hang"], started + 1, lambda: None)
        self.assertLess(time.monotonic() - started, 30)
        self.assert_server_gone()


class OutputMatchesBenchmarkJsonTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_end_to_end_names_and_units(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.bench["end_to_end"]},
                         run.END_TO_END)

    def test_per_layer_names_and_units(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.bench["per_layer"]},
                         run.PER_LAYER)

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(run.WORKLOADS))

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)

    def test_result_line(self):
        values = {name: 1.5 for name in run.END_TO_END}
        line = json.loads(run.result_line(True, 10, 0, values, run.END_TO_END))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(line["metrics"]["fit_s"], {"value": 1.5, "unit": "s"})
        self.assertEqual(set(line["metrics"]), set(run.END_TO_END))


if __name__ == "__main__":
    unittest.main()
