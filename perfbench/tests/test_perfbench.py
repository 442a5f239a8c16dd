#!/usr/bin/env python3
"""Tests of the benchmark itself: BENCHMARK.json against its contract, the
workload -> layer -> metric map, seed plumbing and the step checks.

    python3 perfbench/tests/test_perfbench.py

The tests that run the benchmark program build it first (perfbench/run.py's build,
into .bench_build/perfbench), which takes about a minute the first time.
"""

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
LAYERS = {"scenario/spec", "scenario/sharded", "sim", "phy", "mac", "runner",
          "capture", "detect", "monitor", "perfbench"}

# The workload -> layer -> metric map of README.md: each per-layer metric's
# layer, the end-to-end metric it should move (None: an exact outcome
# count or ratio that a change to speed must leave as it is), and the
# workloads it is read on.
LAYER_MAP = {
    "spec.parse_ms": ("scenario/spec", "setup_s", ["city_roaming"]),
    "spec.plan_ms": ("scenario/spec", "setup_s", ["city_roaming"]),
    "spec.build_ms": ("scenario/spec", "setup_s", ["city_roaming"]),
    "sharded.build_ms": ("scenario/sharded", "setup_s", ["sharded_backhaul"]),
    "sharded.epochs": ("scenario/sharded", "sim_s_per_wall_s", ["sharded_backhaul"]),
    "sharded.cross_deliveries": ("scenario/sharded", "sim_s_per_wall_s", ["sharded_backhaul"]),
    "sharded.us_per_epoch": ("scenario/sharded", "sim_s_per_wall_s", ["sharded_backhaul"]),
    "sharded.threaded_over_inline": ("scenario/sharded", "sim_s_per_wall_s", ["sharded_backhaul"]),
    "sim.events": ("sim", "sim_s_per_wall_s", ["paper_campaign", "city_roaming"]),
    "sim.ns_per_event": ("sim", "sim_s_per_wall_s", ["paper_campaign", "city_roaming"]),
    "sim.pool_slots": ("sim", "peak_rss_mb", ["city_roaming"]),
    "sim.tombstones": ("sim", "peak_rss_mb", ["city_roaming"]),
    "sim.packet_arena_slots": ("sim", "peak_rss_mb", ["city_roaming"]),
    "phy.link_table_rebuilds": ("phy", "sim_s_per_wall_s", ["city_roaming"]),
    "phy.rebuild_us": ("phy", "sim_s_per_wall_s", ["city_roaming"]),
    "phy.receivers_per_tx": ("phy", "sim_s_per_wall_s", ["city_roaming"]),
    "phy.fer_ns": ("phy", "sim_s_per_wall_s", ["paper_campaign"]),
    "mac.frames_tx": ("mac", "sim_s_per_wall_s", ["city_roaming", "paper_campaign"]),
    "mac.retry_ratio": ("mac", None, ["city_roaming", "paper_campaign"]),
    "mac.drop_ratio": ("mac", None, ["city_roaming", "paper_campaign"]),
    "runner.busy_ratio": ("runner", "sim_s_per_wall_s", ["paper_campaign"]),
    "capture.read_mb_per_s": ("capture", "sim_s_per_wall_s", ["monitor_replay"]),
    "capture.write_mb_per_s": ("capture", "sim_s_per_wall_s", ["paper_campaign"]),
    "detect.replay_ms": ("detect", "sim_s_per_wall_s", ["monitor_replay"]),
    "monitor.frames": ("monitor", "sim_s_per_wall_s", ["monitor_replay"]),
    "monitor.windows": ("monitor", None, ["monitor_replay"]),
    "monitor.alerts": ("monitor", None, ["monitor_replay"]),
    "monitor.threaded_over_inline": ("monitor", "sim_s_per_wall_s", ["monitor_replay"]),
    "trace.overhead": ("perfbench", "sim_s_per_wall_s", [
        "city_roaming", "sharded_backhaul", "paper_campaign", "monitor_replay"]),
}


def load():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


class BenchmarkJson(unittest.TestCase):
    def test_top_level_keys(self):
        b = load()
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertEqual(b["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(b["paths"], ["perfbench"])
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)

    def test_names_units_and_bounds(self):
        b = load()
        names = []
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "a name is used twice")

    def test_setup_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in load()["end_to_end"]}
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e.values()))

    def test_layer_map_covers_every_per_layer_metric(self):
        b = load()
        workloads = {w["name"] for w in b["workloads"]}
        e2e = {m["name"] for m in b["end_to_end"]}
        self.assertEqual(set(LAYER_MAP), {m["name"] for m in b["per_layer"]})
        for name, (layer, moves, on) in LAYER_MAP.items():
            self.assertIn(layer, LAYERS, name)
            self.assertTrue(name.startswith(layer.split("/")[-1] + ".")
                            or name.startswith("trace."), name)
            self.assertTrue(moves is None or moves in e2e, name)
            self.assertTrue(set(on) <= workloads and on, name)
        # Every layer ROADMAP names is measured on at least one workload.
        self.assertEqual({layer for layer, _, _ in LAYER_MAP.values()}, LAYERS)


class Arguments(unittest.TestCase):
    def test_all_four_arguments_are_required(self):
        names = [w["name"] for w in load()["workloads"]]
        ok = ["--workload", names[0], "--seed", "3", "--seconds", "1", "--trace", "0"]
        args = run.parse_args(ok, names)
        self.assertEqual((args.workload, args.seed, args.seconds, args.trace),
                         (names[0], 3, 1.0, 0))
        rejected = [ok[:i] + ok[i + 2:] for i in range(0, len(ok), 2)]
        for key, value in (("--trace", "2"), ("--workload", "nope"), ("--seconds", "0")):
            argv = list(ok)
            argv[argv.index(key) + 1] = value
            rejected.append(argv)
        for argv in rejected:
            with self.assertRaises(SystemExit), contextlib.redirect_stderr(io.StringIO()):
                run.parse_args(argv, names)


class Program(unittest.TestCase):
    """Runs the built benchmark program directly, on short budgets."""

    @classmethod
    def setUpClass(cls):
        run.build()
        cls.tmp = Path(tempfile.mkdtemp(prefix="perfbench_test_"))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def drive(self, workload, seed, record, trace=0):
        work = self.tmp / f"{workload}-{seed}-{trace}"
        work.mkdir(exist_ok=True)
        out = subprocess.run(
            [str(run.BINARY), "--workload", workload, "--seed", str(seed),
             "--seconds", "0.2", "--trace", str(trace), "--work-dir", str(work),
             "--record", str(self.tmp / record)],
            stdout=subprocess.PIPE, text=True, check=True, timeout=170)
        context, result = [json.loads(l) for l in out.stdout.splitlines()[-2:]]
        return context["context"], result

    def test_sharded_steps_match_the_one_shard_inline_reference(self):
        # Every step's digest is compared with ShardedSim(spec, 1, false);
        # a clean traced run means the 2-shard world reproduced it both
        # inline and on the ThreadPool workers.
        context, result = self.drive("sharded_backhaul", 5, "sharded5.txt", trace=1)
        self.assertTrue(result["correct"], context)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 3)

    def test_same_seed_same_digests_other_seed_other_digests(self):
        self.drive("sharded_backhaul", 7, "a.txt")
        self.drive("sharded_backhaul", 7, "b.txt")
        self.drive("sharded_backhaul", 8, "c.txt")
        a, b, c = (
            (self.tmp / n).read_text().split()[0] for n in ("a.txt", "b.txt", "c.txt"))
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)

    def test_rate_and_p50_rest_on_the_same_fastest_run(self):
        # A sharded step is one world run and its own throughput unit, so
        # both metrics are the run's fastest repeat of the same 1.2
        # simulated seconds.
        context, result = self.drive("sharded_backhaul", 6, "sharded6.txt")
        self.assertTrue(result["correct"], context)
        m = result["metrics"]
        self.assertAlmostEqual(m["sim_s_per_wall_s"] * m["step_ms.p50"] * 1e-3, 1.2, places=6)
        self.assertEqual(context["tail_over"], "all steps")
        self.assertGreaterEqual(m["step_ms.tail"], m["step_ms.p50"])

    def test_a_wrong_record_fails_every_step(self):
        (self.tmp / "bogus.txt").write_text("0123456789abcdef\n" * 8)
        context, result = self.drive("sharded_backhaul", 5, "bogus.txt")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("recorded", context["first_failure"])

    def test_tail_percentile_rests_on_ten_samples(self):
        context, result = self.drive("monitor_replay", 2, "monitor2.txt")
        self.assertTrue(result["correct"], context)
        n, p = context["tail_of_steps"], context["tail_percentile"]
        if p > 0:
            self.assertGreaterEqual(n * (100 - p), 1000)
            self.assertTrue(p == 99 or n * (100 - p - 1) < 1000)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in load()["end_to_end"]})

    def test_traced_run_reports_every_per_layer_metric(self):
        context, result = self.drive("paper_campaign", 3, "campaign3.txt", trace=1)
        self.assertTrue(result["correct"], context)
        metrics = run.check_metrics(result["metrics"], load()["per_layer"])
        for name in ("monitor.alerts", "sharded.epochs", "phy.link_table_rebuilds"):
            self.assertGreater(metrics[name]["value"], 0, name)
        spans = json.loads((self.tmp / "paper_campaign-3-1" / "trace.json").read_text())
        self.assertTrue(any(s["name"] == "runner.job" for s in spans["spans"]))
        self.assertEqual(set(spans["probes"]),
                         {"city_roaming", "sharded_backhaul", "monitor_replay"})


class Standalone(unittest.TestCase):
    def test_fails_without_the_simulator_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(ROOT / "BENCHMARK.json", d)
            shutil.copytree(PERFBENCH, Path(d) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                ["python3", "perfbench/run.py", "--workload", "monitor_replay",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=d, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, timeout=170)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
