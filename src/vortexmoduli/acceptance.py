"""The acceptance suite: every release-blocking check, runnable both from
pytest (tests/test_acceptance.py) and from the command line (verify).

Checks 1-8 are exact arithmetic; 9 and 10 solve the vortex equation on a
256^2 grid and carry the stated float tolerances.  Only 9 and 10 need the
solver, and with it numpy: the full ``run_all`` loads it before the first
criterion, and ``run_all(fast=True)`` runs without it.  A check fails by
raising: an assertion, or any other exception, which its detail names.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import pi, sqrt

from . import genus0, kahler_class, moduli_numerics, strata, symring
from . import tensor_oracle as oracle

__all__ = ["CriterionResult", "CRITERIA", "run_criterion", "run_all"]


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return "%s [%2d] %s: %s [%.3f s]" % (status, self.index, self.name,
                                             self.detail, self.seconds)


def check_pairing_table() -> str:
    count = 0
    for d in range(2, 6):
        for g in range(1, 4):
            params = symring.RingParams(d, g)
            e, s = symring.eta(params), symring.sigma(params)
            pd = symring.pd_sigma0(params)
            for j in (0, 1):
                assert symring.pairing(e, j) == d - j, (d, g, j)
                assert symring.pairing(s, j) == (d - j) ** 2 * g, (d, g, j)
            assert symring.integrate(symring.multiply(e, pd)) == d
            assert symring.integrate(symring.multiply(s, pd)) == d * d * g
            count += 1
    return "duality pairings exact on %d (d, g) pairs" % count


def _random_relation_instance(rng: random.Random):
    d = rng.randint(1, 5)
    g = rng.randint(0, 3)
    labels = [rng.randint(0, 3) for _ in range(g)]  # 0: skip, 1: I1, 2: I2, 3: J
    i1 = tuple(j + 1 for j, lab in enumerate(labels) if lab == 1)
    i2 = tuple(j + 1 for j, lab in enumerate(labels) if lab == 2)
    jj = tuple(j + 1 for j, lab in enumerate(labels) if lab == 3)
    r_min = max(0, d - len(i1) - len(i2) - 2 * len(jj) + 1)
    r = rng.randint(r_min, d + 1)
    return d, g, r, i1, i2, jj


def _relation_lhs(params, r, i1, i2, jj):
    cls = symring.eta(params) ** r
    for i in i1:
        cls = symring.multiply(cls, symring.xi(params, i))
    for i in i2:
        cls = symring.multiply(cls, symring.xi(params, i + params.g))
    for j in jj:
        cls = symring.multiply(
            cls, symring.eta(params) - symring.sigma_j(params, j))
    return cls


def check_ring_identities() -> str:
    for d in range(1, 6):
        for g in range(0, 4):
            params = symring.RingParams(d, g)
            e, s = symring.eta(params), symring.sigma(params)
            ed = e ** d
            # eta^(d-1) * sigma_j = eta^d and the summed form with weight g
            for j in range(1, g + 1):
                lhs = symring.multiply(e ** (d - 1), symring.sigma_j(params, j))
                assert lhs == ed, ("sigma_j identity", d, g, j)
            assert symring.multiply(e ** (d - 1), s) == ed.scale(g)
            if d >= 2:
                # pair product identity and the sigma^2 contraction
                for i in range(1, g + 1):
                    for j in range(1, g + 1):
                        if i == j:
                            continue
                        si = symring.sigma_j(params, i)
                        sj = symring.sigma_j(params, j)
                        lhs = symring.multiply(symring.multiply(e ** (d - 2), si), sj)
                        rhs = symring.multiply(e ** (d - 1), si + sj) - ed
                        assert lhs == rhs, ("pair identity", d, g, i, j)
                lhs = symring.multiply(e ** (d - 2), symring.multiply(s, s))
                assert lhs == ed.scale(g * (g - 1)), ("sigma^2", d, g)
    rng = random.Random(20240801)
    for _ in range(200):
        d, g, r, i1, i2, jj = _random_relation_instance(rng)
        params = symring.RingParams(d, g)
        assert _relation_lhs(params, r, i1, i2, jj).is_zero(), \
            ("relation instance", d, g, r, i1, i2, jj)
    return "named identities (d <= 5, g <= 3) and 200 seeded relation instances vanish"


def _monomials_of_bounded_degree(d, g):
    for k in range(0, min(2 * g, 2 * d) + 1):
        for s in itertools.combinations(range(1, 2 * g + 1), k):
            for h in range(0, (2 * d - k) // 2 + 1):
                yield h, s


def _ring_route(params, h, s) -> Fraction:
    cls = symring.eta(params) ** h
    for j in s:
        cls = symring.multiply(cls, symring.xi(params, j))
    return symring.integrate(cls)


def check_oracle_equivalence() -> str:
    checked = 0
    for d in range(1, 5):
        for g in range(0, 4):
            params = symring.RingParams(d, g)
            for h, s in _monomials_of_bounded_degree(d, g):
                tensor = oracle.monomial_tensor(params, h, s)
                assert _ring_route(params, h, s) == oracle.oracle_integrate(tensor), \
                    (d, g, h, s)
                checked += 1
    return "%d enumerated monomials (d <= 4, g <= 3) agree" % checked


def check_theorem_coefficients() -> str:
    count = 0
    for d in range(2, 7):
        for g in range(1, 4):
            for elldelta in range(d + g - 1, 13):
                degs = kahler_class.curve_degrees(d, g, elldelta)
                cls = kahler_class.fs_coefficients(d, g, degs)
                assert cls.c_eta == elldelta - d - g + 1, (d, g, elldelta)
                assert cls.c_sigma == 1, (d, g, elldelta)
                count += 1
    return "Fubini-Study coefficients equal (ell*delta-d-g+1, 1) on %d grid points" % count


def check_genus0_degrees() -> str:
    count = 0
    for d in range(1, 5):
        for delta in range(d + 1, d + 5):
            assert genus0.curve_degree("d0", d, delta) == d * (delta - d + 1), \
                ("d0", d, delta)
            count += 1
            if d >= 2:
                assert genus0.curve_degree("d1", d, delta) == \
                    (d - 1) * (delta - d + 1), ("d1", d, delta)
                count += 1
    return "swept curve degrees match the closed form on %d cases" % count


def _random_form(rng: random.Random, degree: int) -> genus0.BinaryForm:
    while True:
        coeffs = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                       for _ in range(degree + 1))
        if any(coeffs):
            return genus0.BinaryForm(degree, coeffs)


def check_reconstruction() -> str:
    rng = random.Random(97531)
    for _ in range(100):
        d = rng.randint(1, 6)
        form = _random_form(rng, d)
        pair = genus0.BinaryFormPair.from_section([form])
        basis = genus0.embed_pair(pair, d + 2)
        rec = genus0.reconstruct(basis, 1, d + 2)
        assert rec == pair.canonical(), form
    points = [(0, 1), (1, 0), (1, 1), (2, 1), (3, 1), (-1, 1)]
    seen_total = 0
    for d in range(1, 5):
        seen = {}
        for combo in itertools.combinations_with_replacement(range(6), d):
            mults = [combo.count(i) for i in range(6)]
            form = genus0.divisor_form(points, mults)
            basis = genus0.embed_pair(genus0.BinaryFormPair.from_section([form]), d + 2)
            key = genus0.plucker(basis)
            assert key not in seen, (combo, seen.get(key))
            seen[key] = combo
        seen_total += len(seen)
    return "100 seeded round-trips exact; %d divisor images pairwise distinct" % seen_total


def check_dimensions() -> str:
    for n in range(1, 5):
        for d in range(0, 9):
            for g in range(0, 4):
                md = moduli_numerics.moduli_dim(n, n, d, g)
                sd = strata.stratum_dim(strata.Partition((1,) * d), n)
                assert md == sd == n * d, (n, d, g)
    checked = 0
    for n in range(1, 4):
        for r in range(1, n + 1):
            for d in range(0, 7):
                for g in range(0, 4):
                    for ell in (1, 2):
                        for delta in range(1, 7):
                            try:
                                p = moduli_numerics.EmbeddingParams(n, r, d, g, ell, delta)
                                gr = moduli_numerics.grassmann_params(p)
                            except moduli_numerics.ParameterError:
                                continue
                            assert gr.subspace_dim == moduli_numerics.rr_dim(p), p
                            checked += 1
    return "dimension formulas agree (n <= 4, d <= 8, g <= 3); %d Grassmannian checks" % checked


def check_quantization() -> str:
    for d in range(1, 5):
        for (e2, vol) in ((1.0, 4 * pi * (d + 1)), (2.5, 17.0)):
            tau_c = 4 * pi * d / (e2 * vol)
            phys = moduli_numerics.PhysicalParams(e2, tau_c, vol)
            rep = kahler_class.quantization(phys)
            assert rep.is_integer and round(rep.q) == d, (d, e2, vol)
            phys_up = moduli_numerics.PhysicalParams(e2, 4 * pi * (d + 1) / (e2 * vol), vol)
            rep_up = kahler_class.quantization(phys_up)
            assert rep_up.is_integer and round(rep_up.q) == d + 1, (d, e2, vol)
    for d in range(2, 5):
        for g in range(1, 4):
            vol = 4 * pi * (d + 2)
            phys = moduli_numerics.PhysicalParams(1.0, 4 * pi * d / vol, vol)
            rep = kahler_class.representability(phys, d, g)
            assert rep.consistent and rep.elldelta_theorem == d + g - 1, (d, g)
            assert rep.elldelta_ratio == d + g - 1, (d, g)
            phys = moduli_numerics.PhysicalParams(1.0, 4 * pi * (d + 1) / vol, vol)
            rep = kahler_class.representability(phys, d, g)
            assert not rep.consistent, (d, g)
            assert rep.elldelta_theorem == d + g and rep.elldelta_ratio == d + g + 1, (d, g)
            phys = moduli_numerics.PhysicalParams(1.0, 4 * pi * (d + 0.5) / vol, vol)
            rep = kahler_class.representability(phys, d, g)
            assert rep.elldelta_theorem is None and not rep.consistent, (d, g)
    return "q lands on d and d+1 at the two reference couplings; consistency iff q = d"


def _pde_case(vol: float, d: int):
    """The solve at 256^2 on the square torus of area ``vol``: one vortex at
    the centre for d = 1, the two-vortex layout for d = 2."""
    from . import taubes_solver

    side = sqrt(vol)
    torus = taubes_solver.TorusSpec(side, side, 256, 256)
    if d == 1:
        zeros = ((side / 2, side / 2, 1),)
    else:
        zeros = ((side / 4, side / 3, 1), (0.7 * side, 0.62 * side, 1))
    prob = taubes_solver.VortexProblem(torus, zeros, e2=1.0, tau=1.0, tol=1e-10)
    return prob, taubes_solver.solve(prob)


def check_pde_integral_identity() -> str:
    details = []
    for d in (1, 2):
        prob, state = _pde_case(4 * pi * (d + 1), d)
        vol = prob.torus.vol
        rel = abs(state.higgs_l2 - (vol - 4 * pi * d)) / vol
        flux_err = abs(state.flux - d)
        assert rel <= 1e-6, (d, rel)
        assert flux_err <= 1e-6, (d, flux_err)
        details.append("d=%d: identity %.2e, flux %.2e" % (d, rel, flux_err))
    return "; ".join(details)


def check_dissolving_limit() -> str:
    sups = []
    worst = 0.0
    for factor in (1.05, 1.5, 2.0):
        vol = 4 * pi * factor
        state = _pde_case(vol, 1)[1]
        target = vol - 4 * pi
        rel = abs(state.higgs_l2 - target) / target
        worst = max(worst, rel)
        assert rel <= 1e-5, (factor, rel)
        sups.append(state.sup_phi2)
    assert sups[0] < sups[1] < sups[2], sups
    return "higgs matches Vol - 4*pi (worst %.2e); sup|phi|^2 increasing %s" % \
        (worst, ["%.4f" % s for s in sups])


CRITERIA = [
    (1, "pairing table", check_pairing_table, True),
    (2, "ring identities", check_ring_identities, True),
    (3, "oracle equivalence", check_oracle_equivalence, True),
    (4, "theorem coefficients", check_theorem_coefficients, True),
    (5, "genus-zero degrees", check_genus0_degrees, True),
    (6, "reconstruction", check_reconstruction, True),
    (7, "dimensions", check_dimensions, True),
    (8, "quantization", check_quantization, True),
    (9, "pde integral identity", check_pde_integral_identity, False),
    (10, "dissolving limit", check_dissolving_limit, False),
]


def run_criterion(index: int) -> CriterionResult:
    for (i, name, fn, _exact) in CRITERIA:
        if i == index:
            start = time.perf_counter()
            try:
                passed, detail = True, fn()
            except AssertionError as exc:
                passed, detail = False, "assertion failed: %s" % (exc,)
            except Exception as exc:
                passed, detail = False, "raised %s: %s" % (type(exc).__name__, exc)
            return CriterionResult(i, name, passed, detail, time.perf_counter() - start)
    raise ValueError("no criterion %d" % index)


def run_all(fast: bool = False) -> list:
    if not fast:
        # load numpy and the solver here, not inside criterion 9's timing
        from . import taubes_solver  # noqa: F401
    results = []
    for (i, _name, _fn, exact) in CRITERIA:
        if fast and not exact:
            continue
        results.append(run_criterion(i))
    return results
