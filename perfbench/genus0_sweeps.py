"""genus0-sweeps: symbolic Plucker sweeps and embedding round trips.

One pass holds
  * 80 sweep ops: genus0.curve_degree for both families on every (d, delta)
    with d in 2..6 and delta in d+1..12, the d1 family at a seeded base
    point p in {-3, -2, 2, 3}; checked against d*(delta-d+1) and (d-1)*(delta-d+1);
  * ROUND_TRIPS round-trip ops: embed_pair -> plucker -> reconstruct ->
    smallest_working_delta on a seeded random binary form, degrees cycling
    through 1..7, twist delta = degree + 2; checked against
    pair.canonical(), the number of maximal minors and max(degree, 1).
The seed picks p, the forms and the op order.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import references as ref
from harness import FRACTION_KERNEL_S, OK, Op, NullTracer, expect_equal, fraction_kernel

from vortexmoduli import genus0

NAME = "genus0-sweeps"
TAIL_PCT = 98          # 780 ops per pass: 15 lie beyond p98
RSS = "self"
GAUGE = (fraction_kernel, FRACTION_KERNEL_S)
LAYER_METRICS = (
    "genus0.curve_degree_s", "genus0.plucker_coords", "genus0.sweep_t_degree",
    "genus0.embed_pair_s", "genus0.plucker_s", "genus0.reconstruct_s",
    "genus0.smallest_working_delta_s",
)

SWEEP_GRID = tuple((fam, d, delta) for d in range(2, 7) for delta in range(d + 1, 13)
                   for fam in ("d0", "d1"))
ROUND_TRIPS = 700


def setup(root, tracer):
    rng = random.Random(0)
    for op in (_sweep_op("d1", 2, 4, Fraction(2)), _round_trip_op(_random_form(rng, 2))):
        op.call(NullTracer())
    return None


def make_pass(ctx, seed: int, index: int) -> list:
    rng = random.Random("%s/%d/%d" % (NAME, seed, index))
    ops = [_sweep_op(fam, d, delta, _base_point(rng)) for (fam, d, delta) in SWEEP_GRID]
    ops.extend(_round_trip_op(_random_form(rng, 1 + i % 7)) for i in range(ROUND_TRIPS))
    rng.shuffle(ops)
    return ops


def probe(ctx, seed: int) -> list:
    rng = random.Random("%s/probe/%d" % (NAME, seed))
    return [_sweep_op("d0", 4, 9, _base_point(rng)), _sweep_op("d1", 4, 9, _base_point(rng)),
            _round_trip_op(_random_form(rng, 4))]


def cleanup(ctx) -> None:
    pass


def _base_point(rng) -> Fraction:
    # small integers: the size of p moves the cost of a d1 sweep by up to 15%
    return Fraction(rng.choice((-3, -2, 2, 3)))


def _random_form(rng, degree: int) -> tuple:
    while True:
        coeffs = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                       for _ in range(degree + 1))
        if any(coeffs):
            return coeffs


def _sweep_op(family: str, d: int, delta: int, p: Fraction) -> Op:
    def call(tr):
        with tr.span("genus0.curve_degree"):
            degree = genus0.curve_degree(family, d, delta, p)
        tr.count("genus0.plucker_coords", comb(delta + 1, delta - d + 1))
        tr.count("genus0.sweep_t_degree", degree)
        return degree

    def check(degree):
        return expect_equal(degree, ref.curve_degree(family, d, delta),
                            "curve_degree(%s, d=%d, delta=%d, p=%s)" % (family, d, delta, p))

    return Op("sweep", (family, d, delta, p), call, check)


def _round_trip_op(coeffs: tuple) -> Op:
    degree = len(coeffs) - 1
    delta = degree + 2
    pair = genus0.BinaryFormPair.from_section([genus0.BinaryForm(degree, coeffs)])

    def call(tr):
        with tr.span("genus0.embed_pair"):
            basis = genus0.embed_pair(pair, delta)
        with tr.span("genus0.plucker"):
            coords = genus0.plucker(basis)
        with tr.span("genus0.reconstruct"):
            rec = genus0.reconstruct(basis, 1, delta)
        with tr.span("genus0.smallest_working_delta"):
            smallest = genus0.smallest_working_delta(pair)
        return coords, rec, smallest

    def check(result):
        coords, rec, smallest = result
        verdict = expect_equal(rec, pair.canonical(), "reconstruct of %s" % (coeffs,))
        if verdict.status != OK:
            return verdict
        verdict = expect_equal((len(coords), any(coords)),
                               (comb(delta + 1, delta + 1 - degree), True),
                               "Plucker coordinates (count, nonzero)")
        if verdict.status != OK:
            return verdict
        return expect_equal(smallest, ref.smallest_delta(degree), "smallest_working_delta")

    return Op("round_trip", coeffs, call, check)
