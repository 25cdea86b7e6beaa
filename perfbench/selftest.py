"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py            # about four minutes

Checks that a wrong answer from the library is caught on every
workload, that traced counts repeat exactly for a seed, that the seed
changes the generated inputs, that BENCHMARK.json lists exactly the
metrics the benchmark prints, and that the benchmark refuses to run
without the curvext source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

import compare
import hostclock
import program
import run
import workloads

RUN_PY = os.path.join(program.ROOT, "perfbench", "run.py")


def _one_pass(workload, seed=1, patch=None):
    cx = program.load_program()            # a fresh import drops old patches
    prepare, run_pass = workloads.WORKLOADS[workload]
    ctx = prepare(cx, seed, os.path.join(run.OUT_DIR, "selftest-work"))
    if patch is not None:
        patch(cx)
    return run_pass(cx, ctx, run._NoMark, time.perf_counter)


def _run(workload, seed, trace, cwd=program.ROOT):
    return subprocess.run(
        [sys.executable, RUN_PY if cwd == program.ROOT else "perfbench/run.py",
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


class WrongAnswers(unittest.TestCase):
    """Break one layer of the library and expect failed ops."""

    def test_rr_cold(self):
        def patch(cx):
            h0 = cx.riemann_roch.h0
            calls = []

            def off_by_one(curve, D):
                calls.append(1)
                return h0(curve, D) + (len(calls) % 3 == 0)
            cx.riemann_roch.h0 = off_by_one
        self.assertEqual(_one_pass("rr-cold").failed, 0)
        self.assertGreater(_one_pass("rr-cold", patch=patch).failed, 0)

    def test_class_sweep(self):
        def patch(cx):
            cls = cx.extensions.ExtensionDatum
            det_payload = cls.det_payload

            def wrong_det(self, coords):
                return 0 if coords[-1] == 1 else det_payload(self, coords)
            cls.det_payload = wrong_det
        self.assertGreater(_one_pass("class-sweep", patch=patch).failed, 0)

    def test_point_enum(self):
        def patch(cx):
            enum = cx.curves.enumerate_closed_points
            cx.curves.enumerate_closed_points = lambda c, d: enum(c, d)[:-1]
        self.assertGreater(_one_pass("point-enum", patch=patch).failed, 0)

    def test_cli_mix(self):
        def patch(cx):
            delta0 = cx.bounds.theorem1_delta0
            cx.bounds.theorem1_delta0 = lambda n, g, m: delta0(n, g, m) + 1
        self.assertEqual(_one_pass("cli-mix").failed, 0)
        self.assertGreater(_one_pass("cli-mix", patch=patch).failed, 0)


class TracedCountsRepeat(unittest.TestCase):
    def test_counts_repeat_for_a_seed(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                a, b = (_run(workload, 3, 1) for _ in range(2))
                self.assertEqual(a.returncode, 0, a.stderr)
                self.assertEqual(b.returncode, 0, b.stderr)
                ma = json.loads(a.stdout.splitlines()[-1])["metrics"]
                mb = json.loads(b.stdout.splitlines()[-1])["metrics"]
                counts = {k for k, v in ma.items() if v["unit"] == "count"}
                self.assertTrue(any(ma[k]["value"] for k in counts))
                for k in counts:
                    self.assertEqual(ma[k]["value"], mb[k]["value"], k)


class Seeds(unittest.TestCase):
    def test_seed_changes_inputs(self):
        cx = program.load_program()
        work = os.path.join(run.OUT_DIR, "selftest-work")
        rr = [workloads.rr_prepare(cx, s, work)["curves"] for s in (1, 1, 2)]
        self.assertEqual(rr[0], rr[1])
        self.assertNotEqual(rr[0], rr[2])
        cli = [[e["argv"] for e in workloads.cli_prepare(cx, s, work)["sequence"]]
               for s in (1, 1, 2)]
        self.assertEqual(cli[0], cli[1])
        self.assertNotEqual(cli[0], cli[2])


class EnumerationSteps(unittest.TestCase):
    """point-enum's steps cover the whole call, with or without marks."""

    SPEC = workloads.ENUM_CURVES[2][1]

    def _steps(self, cx):
        ticks = iter(range(10 ** 6))
        return workloads._enumerate_in_steps(cx, self.SPEC, 3,
                                             lambda: float(next(ticks)))

    def test_steps_cover_the_call(self):
        cx = program.load_program()
        draw = cx.curves.iter_monic_irreducible
        pts, shares, idle = self._steps(cx)
        self.assertIs(cx.curves.iter_monic_irreducible, draw)
        self.assertEqual(len(shares), len(pts))
        marks = 2 + sum(1 for _ in draw(cx.curves.curve_from_json(self.SPEC).field, 3))
        self.assertAlmostEqual(sum(shares) + sum(idle.values()), marks)
        self.assertGreater(len(set(shares)), 1)

    def test_whole_call_without_marks(self):
        cx = program.load_program()
        pts = cx.curves.enumerate_closed_points(
            cx.curves.curve_from_json(self.SPEC), 3)
        cx.curves.enumerate_closed_points = lambda curve, d: pts
        _, shares, idle = self._steps(cx)
        self.assertEqual(idle, {})
        self.assertAlmostEqual(sum(shares), 1.0)
        self.assertEqual(len(set(shares)), 1)


class HostClockScaling(unittest.TestCase):
    """The clock scales wall time by the host's speed and leaves the
    calibrations out of the time line."""

    def test_scales_by_speed_between_readings(self):
        speeds = iter([2.0, 4.0])
        real = hostclock.host_speed
        hostclock.host_speed = lambda: next(speeds)
        try:
            clock = hostclock.HostClock()
            t0, w0 = clock(), time.perf_counter()
            time.sleep(hostclock.CALIBRATE_EVERY / 2)
            t1, w1 = clock(), time.perf_counter()
            time.sleep(hostclock.CALIBRATE_EVERY)
            w2 = time.perf_counter()
            t2 = clock()            # calibrates: speed 2 -> 4, mean 3
        finally:
            hostclock.host_speed = real
        self.assertAlmostEqual((t1 - t0) / (w1 - w0), 2.0, delta=0.2)
        self.assertAlmostEqual((t2 - t1) / (w2 - w1), 3.0, delta=0.3)
        self.assertEqual(clock.speed, 4.0)

    def test_speed_is_near_one_reference_unit(self):
        # the kernel's nominal time is of the order of its real time
        self.assertTrue(0.1 < hostclock.host_speed() < 10)


class Verdicts(unittest.TestCase):
    """compare.verdict on synthetic runs that separate cleanly or not."""

    BASE = [100.0, 104.0, 96.0, 101.0, 99.0, 103.0, 97.0, 102.0, 98.0, 100.0]

    def _verdict(self, base, head, bound=0.25):
        return compare.verdict(base, head, "higher", bound,
                               list(zip(base, head)))

    def test_clean_gain_is_better(self):
        self.assertEqual(self._verdict(self.BASE, [v * 1.3 for v in self.BASE]),
                         "better")

    def test_uniform_gain_over_a_noisy_parent_is_better(self):
        base = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 65.0, 135.0]
        self.assertEqual(self._verdict(base, [200.0 + i for i in range(10)]),
                         "better")

    def test_overlap_with_a_noisy_parent_is_unresolved(self):
        base = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 65.0, 135.0]
        self.assertEqual(self._verdict(base, list(reversed(base))),
                         "unresolved")

    def test_loss_beyond_the_bound_is_worse(self):
        self.assertEqual(self._verdict(self.BASE, [v * 0.7 for v in self.BASE]),
                         "worse")

    def test_same_runs_are_unchanged(self):
        self.assertEqual(self._verdict(self.BASE, list(reversed(self.BASE))),
                         "unchanged")


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_the_printed_metrics(self):
        with open(os.path.join(program.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))

    def test_refuses_without_the_source(self):
        os.makedirs(run.OUT_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as bare:
            shutil.copy(os.path.join(program.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(program.ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = _run("rr-cold", 1, 0, cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(os.path.join(run.OUT_DIR, "selftest-work"),
                      ignore_errors=True)
