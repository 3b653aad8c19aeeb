"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The last two tests start the benchmark in subprocesses and take about a
minute together.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import unittest
from fractions import Fraction
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import cli_mix  # noqa: E402
import exact_ring  # noqa: E402
import genus0_sweeps  # noqa: E402
import harness  # noqa: E402
import references  # noqa: E402
import run  # noqa: E402
import vortex_solves  # noqa: E402

MODULES = (exact_ring, genus0_sweeps, vortex_solves, cli_mix)

END_TO_END_NAMES = ("ops_per_s", "latency_p50_s", "latency_tail_s", "setup_s", "peak_rss_mb")
PER_LAYER_NAMES = (
    "kahler_class.symplectic_volume_s",
    "symring.multiply_s", "symring.multiply_calls", "symring.raw_products",
    "symring.parse_class_s", "symring.integrate_s", "symring.pd_sigma0_s", "symring.pairing_s",
    "tensor_oracle.pullback_s", "tensor_oracle.oracle_integrate_s", "tensor_oracle.terms",
    "genus0.curve_degree_s", "genus0.plucker_coords", "genus0.sweep_t_degree",
    "genus0.embed_pair_s", "genus0.plucker_s", "genus0.reconstruct_s",
    "genus0.smallest_working_delta_s",
    "taubes_solver.solve_256_s", "taubes_solver.solve_512_s", "taubes_solver.solve_768_s",
    "taubes_solver.solve_1024_s", "taubes_solver.newton_iters",
    "taubes_solver.cell_updates_per_s", "taubes_solver.nonconverged",
    "taubes_solver.bradlow_sweep_s",
    "cli.interpreter_s", "cli.import_s", "cli.startup_share", "cli.request_s",
    "cli.ring_s", "cli.kahler_s", "cli.embed_s", "cli.stability_s", "cli.strata_s",
    "cli.genus0_s", "cli.vortex_s", "cli.verify_s",
) + tuple("acceptance.c%02d_s" % i for i in range(1, 11)) + (
    "trace.overhead_share", "trace.spans")


class _Setup:
    """Each workload's context, created once and removed at the end."""

    def __init__(self):
        self.contexts = {m: m.setup(ROOT, harness.NullTracer()) for m in MODULES}

    def close(self):
        for m, ctx in self.contexts.items():
            m.cleanup(ctx)


def setUpModule():
    global SETUP
    SETUP = _Setup()


def tearDownModule():
    SETUP.close()


class InputsAreSeeded(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for m in MODULES:
            ctx = SETUP.contexts[m]
            for index in (0, 1):
                a = [(op.kind, op.inputs) for op in m.make_pass(ctx, 7, index)]
                b = [(op.kind, op.inputs) for op in m.make_pass(ctx, 7, index)]
                self.assertEqual(a, b, m.NAME)

    def test_other_seed_other_inputs_same_composition(self):
        for m in MODULES:
            ctx = SETUP.contexts[m]
            a = m.make_pass(ctx, 7, 0)
            b = m.make_pass(ctx, 8, 0)
            self.assertNotEqual([op.inputs for op in a], [op.inputs for op in b], m.NAME)
            self.assertEqual(sorted(op.kind for op in a), sorted(op.kind for op in b), m.NAME)


class WrongExpectationsCountAsFailures(unittest.TestCase):
    """A reference that disagrees with the program must show up as a failed,
    wrong op; the error is injected into the benchmark's reference here, not
    into the package."""

    def _run(self, ops):
        records = [harness.run_op(op, harness.NullTracer()) for op in ops]
        return harness.summarize(records, 50)

    def test_wrong_volume(self):
        ops = [op for op in exact_ring.make_pass(None, 3, 0)
               if op.kind == "volume" and op.inputs[:2] == (6, 3)]
        self.assertEqual(self._run(ops)["failed"], 0)
        wrong = lambda c_eta, c_sigma, d, g: Fraction(-1)  # noqa: E731
        with mock.patch.object(references, "macdonald_volume", wrong):
            summary = self._run(ops)
        self.assertEqual((summary["failed"], summary["wrong"], summary["completed"]), (1, 1, 0))

    def test_wrong_expression_oracle_and_curve_degree(self):
        ring_ops = [op for op in exact_ring.make_pass(None, 3, 0)
                    if op.kind in ("expression", "oracle") and op.inputs[:2] == (2, 1)]
        sweep_ops = [op for op in genus0_sweeps.make_pass(None, 3, 0)
                     if op.kind == "sweep" and op.inputs[1:3] == (2, 3)]
        self.assertEqual(self._run(ring_ops + sweep_ops)["failed"], 0)
        with mock.patch.object(references, "pairing_value", lambda *a: Fraction(10 ** 9)), \
                mock.patch.object(references, "even_product_integral", lambda *a: Fraction(-7)), \
                mock.patch.object(references, "curve_degree", lambda *a: -1):
            summary = self._run(ring_ops + sweep_ops)
        self.assertEqual(summary["wrong"], len(ring_ops) + len(sweep_ops))

    def test_wrong_flux_tolerance(self):
        ops = [op for op in vortex_solves.make_pass(None, 3, 0) if op.kind == "solve_256"][:2]
        self.assertEqual(self._run(ops)["failed"], 0)
        with mock.patch.object(references, "FLUX_ATOL", -1.0):
            self.assertEqual(self._run(ops)["wrong"], 2)

    def test_wrong_exit_code(self):
        ctx = SETUP.contexts[cli_mix]
        op = cli_mix._request_op(ctx, "strata", ["strata", "--d", "2", "--r", "1"], 2)
        summary = self._run([op])
        self.assertEqual((summary["failed"], summary["fail_ratio"]), (1, 1.0))


class Statistics(unittest.TestCase):
    def test_nearest_rank(self):
        values = [float(i) for i in range(1, 101)]
        self.assertEqual(harness.nearest_rank(values, 90), (90.0, 10))
        self.assertEqual(harness.nearest_rank(values, 50), (50.0, 50))

    def test_self_time(self):
        tr = harness.Tracer()
        with tr.op("x"):
            with tr.span("child"):
                pass
        op, child = tr.spans
        own = tr.self_times()
        self.assertAlmostEqual(own[0], (op.end - op.start) - (child.end - child.start))
        self.assertEqual(child.parent, 0)
        self.assertEqual(op.op_id, child.op_id)

    def test_startup_share_is_a_share(self):
        # the import span lies inside the request span of the same process
        tr = harness.Tracer()
        for _ in range(3):
            with tr.op("probe.startup"):
                with tr.span("cli.interpreter"):
                    pass
                with tr.span("cli.small_request"):
                    with tr.span("cli.interpreter_import"):
                        time.sleep(0.001)
        values = run.layer_values(tr, {})
        self.assertGreater(values["cli.startup_share"], 0)
        self.assertLessEqual(values["cli.startup_share"], 1)

    def test_gauge_scales_by_the_kernel_times_near_each_op(self):
        gauge = harness.Gauge(lambda: None, reference_s=0.01)
        # kernel 0.02 s (half speed) around t = 10, 0.01 s around t = 20
        gauge.samples = [(9.9, 0.02), (10.2, 0.02), (19.9, 0.01), (20.2, 0.01)]
        slow = harness.OpRecord("x", 0.0, harness.OK, "", start=10.0, end=10.1, raw_s=0.1)
        fast = harness.OpRecord("x", 0.0, harness.OK, "", start=20.0, end=20.1, raw_s=0.1)
        gauge.scale([slow, fast])
        self.assertAlmostEqual(slow.latency_s, 0.05)
        self.assertAlmostEqual(fast.latency_s, 0.1)
        # an op longer than the window draws on samples as far away as its duration
        long_op = harness.OpRecord("x", 0.0, harness.OK, "", start=11.0, end=19.0, raw_s=8.0)
        gauge.scale([long_op])
        self.assertAlmostEqual(long_op.latency_s, 8.0 * 0.01 / 0.015)

    def test_samples_inside_an_op_are_taken_off_its_latency(self):
        gauge = harness.Gauge(lambda: time.sleep(0.02), reference_s=0.02)
        op = harness.Op("x", None, lambda tr: gauge.sample(), lambda r: harness.Verdict(harness.OK))
        gauge.sample()                              # before the op: not taken off
        rec = harness.run_op(op, harness.NullTracer(), gauge)
        self.assertLess(rec.raw_s, 0.01)
        self.assertEqual(gauge.busy_between(rec.start, rec.end), gauge.samples[-1][1])

    def test_summary_keeps_wall_times(self):
        records = [harness.OpRecord("x", 2.0 * i, harness.OK, "", raw_s=float(i))
                   for i in range(1, 22)]
        summary = harness.summarize(records, 50)
        self.assertEqual(summary["latency_p50_s"], 22.0)
        self.assertEqual(summary["unscaled"]["latency_p50_s"], 11.0)
        self.assertAlmostEqual(summary["ops_per_s"] * 2, summary["unscaled"]["ops_per_s"])

    def test_tail_percentiles_leave_ten_ops(self):
        # a run makes one pass or more; tails are read per pass
        for m in MODULES:
            n = len(m.make_pass(SETUP.contexts[m], 1, 0))
            _, beyond = harness.nearest_rank(list(range(n)), m.TAIL_PCT)
            self.assertGreaterEqual(beyond, 10, m.NAME)


class BenchmarkJson(unittest.TestCase):
    def test_names_match_the_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END.items()))
        self.assertEqual([m["name"] for m in spec["per_layer"]], run.per_layer_names())
        self.assertEqual([m["unit"] for m in spec["per_layer"]],
                         [run.unit_of(m) for m in run.per_layer_names()])
        self.assertEqual(set(END_TO_END_NAMES), set(run.END_TO_END))
        self.assertEqual(set(PER_LAYER_NAMES), set(run.per_layer_names()))


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


class Output(unittest.TestCase):
    def test_every_metric_is_printed(self):
        for trace, names in (("0", END_TO_END_NAMES), ("1", PER_LAYER_NAMES)):
            proc = _bench("--workload", "vortex-solves", "--seed", "1", "--seconds", "0",
                          "--trace", trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertEqual(set(result["metrics"]), set(names))
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 2)   # the 768^2 and 1024^2 stalls

    def test_refuses_without_the_package(self):
        empty = ROOT / ".perfbench" / ("empty-%d" % os.getpid())
        try:
            shutil.copytree(HERE, empty / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", empty)
            proc = _bench("--workload", "exact-ring", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=empty)
        finally:
            shutil.rmtree(empty, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
