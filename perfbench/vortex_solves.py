"""vortex-solves: Newton/CG solves of the Taubes equation and Bradlow sweeps,
all at the library default tolerance (VortexProblem.tol = 1e-10).

One pass holds
  * 45 solves on 256^2 grids and 15 on 512^2, d = 1, 2, 3 vortices at seeded
    positions (pairwise at least 1 apart) on a square torus of area
    4*pi*(d+1), e^2 = tau = 1;
  * one solve on 768^2 and one on 1024^2 of the two-vortex reproduction
    layout of the acceptance suite (zeros at (L/4, L/3) and (0.7L, 0.62L),
    area 12*pi).  At the default tolerance these stall in the line search
    (the residual floor of the 5-point Laplacian lies above 1e-10), so both
    count as failed ops until the solver's stopping rule is fixed.  Their
    layout does not vary with the seed: when a stall happens depends on
    round-off, and a seeded layout would make each run's failure time, and
    so its throughput, depend on the seed;
  * two Bradlow sweeps (d = 1 and d = 2, seeded positions, 256^2) over
    areas 4*pi*d * (1.05, 1.5, 2, 3), the first just above the dissolving
    threshold.
Converged solves are checked for |flux - d| <= 1e-6 and the Bradlow
identity to 1e-6 relative to tau*Vol (the acceptance tolerances); sweeps
for the identity on every row and sup|phi|^2 increasing with the area.
"""

from __future__ import annotations

import random
import time
from math import pi, sqrt

import references as ref
from harness import ARRAY_KERNEL_S, OK, WRONG, Op, NullTracer, Verdict, array_kernel, expect_equal

from vortexmoduli import taubes_solver as ts

NAME = "vortex-solves"
TAIL_PCT = 84          # 64 ops per pass: 10 lie beyond p84
RSS = "self"
GAUGE = (array_kernel, ARRAY_KERNEL_S)
LAYER_METRICS = (
    "taubes_solver.solve_256_s", "taubes_solver.solve_512_s",
    "taubes_solver.solve_768_s", "taubes_solver.solve_1024_s",
    "taubes_solver.newton_iters", "taubes_solver.cell_updates_per_s",
    "taubes_solver.nonconverged", "taubes_solver.bradlow_sweep_s",
)

SWEEP_FACTORS = (1.05, 1.5, 2.0, 3.0)


def setup(root, tracer):
    # the first solve in a process pays lazy set-up (scipy.sparse.linalg,
    # FFT plans, memory); users of a long-lived process pay it once
    _solve_op(_seeded_problem(random.Random(0), 1, 256)).call(NullTracer())
    return None


def make_pass(ctx, seed: int, index: int) -> list:
    rng = random.Random("%s/%d/%d" % (NAME, seed, index))
    ops = [_solve_op(_seeded_problem(rng, 1 + i % 3, 256)) for i in range(45)]
    ops += [_solve_op(_seeded_problem(rng, 1 + i % 3, 512)) for i in range(15)]
    ops += [_solve_op(_reproduction_problem(n)) for n in (768, 1024)]
    ops += [_sweep_op(_seeded_problem(rng, d, 256, area_factor=1.0), d) for d in (1, 2)]
    rng.shuffle(ops)
    return ops


def probe(ctx, seed: int) -> list:
    rng = random.Random("%s/probe/%d" % (NAME, seed))
    return [_solve_op(_seeded_problem(rng, 2, 256)), _solve_op(_seeded_problem(rng, 2, 512)),
            _solve_op(_reproduction_problem(768)), _solve_op(_reproduction_problem(1024)),
            _sweep_op(_seeded_problem(rng, 1, 256, area_factor=1.0), 1)]


def cleanup(ctx) -> None:
    pass


# ---------------------------------------------------------------------------
# inputs


def _torus(d: int, n: int, area_factor=None) -> ts.TorusSpec:
    vol = 4 * pi * (d + 1) if area_factor is None else 4 * pi * d * area_factor
    side = sqrt(vol)
    return ts.TorusSpec(side, side, n, n)


def _seeded_problem(rng, d: int, n: int, area_factor=None) -> ts.VortexProblem:
    torus = _torus(d, n, area_factor)
    side = torus.L1
    zeros: list = []
    while len(zeros) < d:
        x, y = rng.uniform(0, side), rng.uniform(0, side)
        if all(min(abs(x - a), side - abs(x - a)) ** 2 + min(abs(y - b), side - abs(y - b)) ** 2
               >= 1.0 for (a, b, _) in zeros):
            zeros.append((x, y, 1))
    return ts.VortexProblem(torus, tuple(zeros), e2=1.0, tau=1.0)


def _reproduction_problem(n: int) -> ts.VortexProblem:
    torus = _torus(2, n)
    side = torus.L1
    zeros = ((side / 4, side / 3, 1), (0.7 * side, 0.62 * side, 1))
    return ts.VortexProblem(torus, zeros, e2=1.0, tau=1.0)


def _inputs(prob: ts.VortexProblem) -> tuple:
    return (prob.torus.N1, prob.torus.L1, prob.zeros)


# ---------------------------------------------------------------------------
# ops


def _solve_op(prob: ts.VortexProblem) -> Op:
    n = prob.torus.N1

    def call(tr):
        t0 = time.perf_counter()
        try:
            with tr.span("taubes_solver.solve_%d" % n):
                state = ts.solve(prob)
        except ts.NonConvergenceError as exc:
            tr.count("taubes_solver.nonconverged")
            tr.count("taubes_solver.newton_iters", exc.iterations)
            raise
        tr.count("taubes_solver.newton_iters", state.iterations)
        tr.count("taubes_solver.converged_cell_updates", n * n * state.iterations)
        tr.count("taubes_solver.converged_solve_s", time.perf_counter() - t0)
        return state

    def check(state):
        if not state.residual_norm <= prob.tol:
            return Verdict(WRONG, "returned residual %.3g above tol" % state.residual_norm)
        verdict = _check_identities(state.higgs_l2, prob.torus.vol, prob.d,
                                    "solve %d^2 d=%d" % (n, prob.d))
        if verdict.status != OK:
            return verdict
        return _within(abs(state.flux - prob.d), ref.FLUX_ATOL,
                       "flux of solve %d^2 d=%d" % (n, prob.d))

    return Op("solve_%d" % n, _inputs(prob), call, check)


def _sweep_op(template: ts.VortexProblem, d: int) -> Op:
    vols = [4 * pi * d * f for f in SWEEP_FACTORS]

    def call(tr):
        with tr.span("taubes_solver.bradlow_sweep"):
            return ts.bradlow_sweep(template, vols)

    def check(rows):
        verdict = expect_equal(len(rows), len(vols), "sweep rows")
        for row in rows:
            if verdict.status != OK:
                return verdict
            verdict = _check_identities(row.higgs_l2, row.vol, d,
                                        "sweep d=%d vol=%.4g" % (d, row.vol))
        if verdict.status != OK:
            return verdict
        sups = [row.sup_phi2 for row in rows]
        return expect_equal(sups == sorted(set(sups)), True,
                            "sup|phi|^2 increasing with area %s" % sups)

    return Op("sweep", ("sweep", _inputs(template), tuple(vols)), call, check)


def _check_identities(higgs_l2: float, vol: float, d: int, what: str) -> Verdict:
    return _within(ref.bradlow_error(higgs_l2, 1.0, 1.0, vol, d), ref.BRADLOW_RTOL,
                   "Bradlow identity of " + what)


def _within(err: float, tol: float, what: str) -> Verdict:
    if err <= tol:
        return Verdict(OK)
    return Verdict(WRONG, "%s: error %.3g above %.0e" % (what, err, tol))
