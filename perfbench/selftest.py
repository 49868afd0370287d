"""Self-test of the benchmark (about a minute):

    python3 perfbench/selftest.py

Runs every workload at a tiny size and checks that each metric is
printed with its unit, that the correctness gate counts a deliberately
wrong expectation as a failed op, that runs are whole rounds, that the
host-speed scale uses the probes near an op, that ``BENCHMARK.json``
matches ``spec.py``, and that the benchmark refuses to run without the
package.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import unittest

import hostspeed
import run
import spec

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402

TINY = 0.15      # lattice sides and point batches scaled down
SECONDS = 0.5
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def tiny_run(name, traced=False, wl=None):
    return run.run_workload(name, 3, SECONDS, traced, scale=TINY, wl=wl)


class WrongTarget(workloads.VerifyGrid):
    """Expects R one unit off the factor's true curvature."""

    def _spec(self, kind, rng, index):
        op = super()._spec(kind, rng, index)
        op["expect_R"] += 1.0
        return op


class WrongExitCode(workloads.Cli):
    """Expects exit code 1 where the CLI should exit 0."""

    def _spec(self, slot, rng, index):
        op = super()._spec(slot, rng, index)
        if op["expect"] == 0:
            op["expect"] = 1
        return op


class Manifest(unittest.TestCase):
    def test_committed_manifest_matches_spec(self):
        self.assertEqual((run.ROOT / "BENCHMARK.json").read_text(), spec.manifest_text())

    def test_manifest_limits(self):
        m = spec.manifest()
        self.assertTrue(2 <= len(m["workloads"]) <= 8)
        names = [w["name"] for w in m["workloads"]] + [
            x["name"] for x in m["end_to_end"] + m["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for w in m["workloads"]:
            self.assertLessEqual(len(w["why"]), 200, w["name"])
        for x in m["end_to_end"] + m["per_layer"]:
            self.assertRegex(x["unit"], UNIT)
        bounds = {x["name"]: x["bound"] for x in m["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(len(spec.manifest_text()), 64 * 1024)


class Metrics(unittest.TestCase):
    def test_every_workload_prints_every_end_to_end_metric(self):
        for name, _ in spec.WORKLOADS:
            with self.subTest(workload=name):
                result, lines, _ = tiny_run(name)
                self.assertEqual(set(result["metrics"]), set(spec.END_TO_END_UNITS))
                for key, unit in spec.END_TO_END_UNITS.items():
                    self.assertEqual(result["metrics"][key]["unit"], unit)
                    self.assertGreater(result["metrics"][key]["value"], 0)
                    self.assertTrue(any(line.strip().startswith(f"{key} = ")
                                        and f" {unit}" in line for line in lines))
                wl = workloads.make(name, 3, TINY)
                self.assertEqual(result["attempted"] % len(wl.kinds), 0)   # whole rounds
                expected_failures = 0
                if name == "cli":   # the exp(-1000*x^2) check still crashes
                    expected_failures = sum(
                        op["args"] == workloads.KNOWN_DEFECT
                        for op in map(workloads.Cli(3, TINY).spec,
                                      range(result["attempted"])))
                self.assertEqual(result["failed"], expected_failures)
                self.assertTrue(result["correct"])

    def test_traced_run_prints_every_per_layer_metric(self):
        result, lines, details = tiny_run("liouville_points", traced=True)
        self.assertEqual(set(result["metrics"]), set(spec.PER_LAYER_UNITS))
        for key, unit in spec.PER_LAYER_UNITS.items():
            self.assertEqual(result["metrics"][key]["unit"], unit)
            self.assertTrue(any(line.strip().startswith(f"{key} = ") for line in lines))
        self.assertEqual(result["metrics"]["cli.exit_code_mismatches"]["value"], 1)
        self.assertTrue(details["spans"])


class CorrectnessGate(unittest.TestCase):
    def test_wrong_target_curvature_counts_as_failed(self):
        result, _, details = tiny_run("verify_grid", wl=WrongTarget(3, TINY))
        self.assertEqual(result["failed"], result["attempted"])
        self.assertFalse(result["correct"])
        self.assertTrue(any("max|R -" in p for p in details["problems"]))

    def test_wrong_exit_code_counts_as_failed(self):
        result, _, _ = tiny_run("cli", wl=WrongExitCode(3, TINY))
        self.assertGreater(result["failed"], result["attempted"] // 2)
        self.assertFalse(result["correct"])


class HostSpeed(unittest.TestCase):
    def test_scale_is_nominal_over_median_of_nearby_probes(self):
        clock = hostspeed.HostClock()
        clock.samples = [(0.0, 0.2), (0.5, 0.3), (1.0, 0.24), (9.0, 0.06), (9.5, 0.06)]
        self.assertAlmostEqual(clock.scale(0.4, 0.6), hostspeed.NOMINAL_S / 0.24)
        # too few probes within the window: the three nearest are used
        self.assertAlmostEqual(clock.scale(5.0, 5.1), hostspeed.NOMINAL_S / 0.06)


class BareDirectory(unittest.TestCase):
    def test_refuses_to_run_without_the_package(self):
        bare = workloads.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
