import tracemalloc
from dataclasses import replace
from math import pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vortexmoduli import taubes_solver
from vortexmoduli.moduli_numerics import ParameterError
from vortexmoduli.taubes_solver import (
    CG_MAX_ITER,
    NonConvergenceError,
    StabilityError,
    TorusSpec,
    VortexProblem,
    _fourier_symbol,
    _laplacian,
    _pcg,
    _periodic_gaussian,
    _source_grid,
    _subtract_prolonged,
    bradlow_sweep,
    parse_config,
    solve,
    write_field,
)


def square_problem(d, vol_factor, grid=64, zeros=None, **kw):
    vol = 4 * pi * vol_factor
    side = sqrt(vol)
    torus = TorusSpec(side, side, grid, grid)
    if zeros is None:
        zeros = ((side / 2, side / 2, d),) if d else ()
    return VortexProblem(torus, zeros, e2=kw.pop("e2", 1.0),
                         tau=kw.pop("tau", 1.0), **kw)


def _acceptance_layout(grid):
    """The acceptance suite's two-vortex layout on a torus of area 12*pi."""
    side = sqrt(12 * pi)
    torus = TorusSpec(side, side, grid, grid)
    return VortexProblem(torus, ((side / 4, side / 3, 1), (0.7 * side, 0.62 * side, 1)),
                         e2=1.0, tau=1.0)


def test_vacuum():
    state = solve(square_problem(0, 2.0))
    assert state.iterations == 0
    assert state.flux == 0.0
    assert np.all(state.u == 0.0)
    assert state.higgs_l2 == pytest.approx(8 * pi)


def test_single_vortex_identities():
    prob = square_problem(1, 2.0)
    state = solve(prob)
    vol = prob.torus.vol
    assert state.residual_norm <= prob.tol
    assert abs(state.higgs_l2 - (vol - 4 * pi)) / vol <= 1e-9
    assert abs(state.flux - 1.0) <= 1e-9
    assert state.sup_phi2 < 1.0
    assert state.u.max() < 0.0


def test_double_zero_matches_two_simple_zeros():
    side = sqrt(12 * pi)
    torus = TorusSpec(side, side, 64, 64)
    double = VortexProblem(torus, ((side / 2, side / 2, 2),), e2=1.0, tau=1.0)
    two = VortexProblem(torus, ((side / 4, side / 4, 1), (3 * side / 4, 3 * side / 4, 1)),
                        e2=1.0, tau=1.0)
    s1, s2 = solve(double), solve(two)
    assert s1.flux == pytest.approx(2.0, abs=1e-9)
    assert s2.flux == pytest.approx(2.0, abs=1e-9)
    assert s1.higgs_l2 == pytest.approx(s2.higgs_l2, abs=1e-8)


def test_translation_invariance():
    # lattice-commensurate shifts leave every reported scalar unchanged
    prob = square_problem(1, 1.8)
    h1, h2 = prob.torus.spacing
    (zx, zy, m), = prob.zeros
    shifted = VortexProblem(prob.torus, ((zx + 7 * h1, zy - 5 * h2, m),),
                            e2=1.0, tau=1.0)
    a, b = solve(prob), solve(shifted)
    assert abs(a.flux - b.flux) <= 1e-10
    assert abs(a.higgs_l2 - b.higgs_l2) / a.higgs_l2 <= 1e-10
    assert abs(a.sup_phi2 - b.sup_phi2) <= 1e-10


def test_stability_refusal():
    with pytest.raises(StabilityError) as err:
        solve(square_problem(1, 0.9))
    assert err.value.critical_tau > 1.0
    with pytest.raises(StabilityError):
        solve(square_problem(1, 1.0))  # exactly critical


def test_solver_shares_the_stability_predicate():
    # a margin inside stability_check's relative slack is unstable for the
    # solver and the sweep too, not only for the stability command
    prob = square_problem(1, 2.0, grid=32, tau=0.5 * (1 + 1e-13))
    assert 0.0 < prob.tau * prob.e2 * prob.torus.vol - 4 * pi
    assert not prob.stability().stable
    with pytest.raises(StabilityError):
        solve(prob)
    template = square_problem(1, 2.0, grid=32)
    with pytest.raises(StabilityError):
        bradlow_sweep(template, [4 * pi * (1 + 1e-13)])


# every name the package exports, by the module that defines it
_PACKAGE_EXPORTS = {
    "symring": ("RingParams", "CohomologyClass", "eta", "xi", "sigma", "sigma_j",
                "multiply", "integrate", "pd_sigma0", "pairing", "parse_class"),
    "tensor_oracle": ("TensorClass", "pullback", "oracle_multiply", "oracle_integrate"),
    "moduli_numerics": ("EmbeddingParams", "PhysicalParams", "ParameterError",
                        "StabilityError", "NonConvergenceError", "rr_dim",
                        "grassmann_params", "moduli_dim", "stability_check"),
    "kahler_class": ("KahlerClass2", "CurveDegrees", "l2_class", "curve_degrees",
                     "fs_coefficients", "quantization", "representability",
                     "symplectic_volume"),
    "genus0": ("BinaryForm", "BinaryFormPair", "SubspaceBasis", "embed_pair", "plucker",
               "reconstruct", "curve_degree"),
    "strata": ("Partition", "partitions", "stratum_dim", "stratification_report"),
    "taubes_solver": ("TorusSpec", "VortexProblem", "TorusVortexState", "solve",
                      "bradlow_sweep"),
}


def test_solver_names_resolve_lazily():
    import importlib

    import vortexmoduli
    from vortexmoduli import moduli_numerics, taubes_solver

    for module, names in _PACKAGE_EXPORTS.items():
        defining = importlib.import_module("vortexmoduli." + module)
        for name in names:
            assert getattr(vortexmoduli, name) is getattr(defining, name), name
            assert name in dir(vortexmoduli)
    for name in ("StabilityError", "NonConvergenceError"):
        assert getattr(taubes_solver, name) is getattr(moduli_numerics, name)
        assert name in taubes_solver.__all__
    from vortexmoduli import solve as imported
    assert imported is solve
    with pytest.raises(AttributeError):
        vortexmoduli.no_such_name


def test_star_import_gives_the_exact_layers():
    # the 49 names the package gave before its names resolved lazily: each
    # exact module and its exports, and none of the solver's, so a star
    # import loads no numpy
    namespace = {}
    exec("from vortexmoduli import *", namespace)
    del namespace["__builtins__"]
    exact = {m: names for m, names in _PACKAGE_EXPORTS.items() if m != "taubes_solver"}
    want = set(exact).union(*exact.values())
    assert len(want) == 49
    assert set(namespace) == want
    import vortexmoduli
    assert want | set(_PACKAGE_EXPORTS["taubes_solver"]) <= set(dir(vortexmoduli))


def test_max_iter_enforced():
    with pytest.raises(NonConvergenceError) as err:
        solve(square_problem(1, 2.0, max_iter=1, tol=1e-14))
    assert err.value.reason == "max_iter"


def test_grid_convergence_of_fields():
    # with the bump width tied to the spacing, field-level quantities
    # converge first order: successive sup|phi|^2 differences shrink >= 2x
    sups = []
    for grid in (32, 64, 128, 256):
        state = solve(square_problem(1, 2.0, grid=grid))
        sups.append(state.sup_phi2)
    d1 = abs(sups[1] - sups[0])
    d2 = abs(sups[2] - sups[1])
    d3 = abs(sups[3] - sups[2])
    assert d2 <= d1 / 2.0
    assert d3 <= d2 / 2.0


def test_max_principle_monitor():
    # max(u) stays below zero and decreases in magnitude of violation as the
    # regularization narrows (finer grid, default width = 3 spacings)
    coarse = solve(square_problem(1, 2.0, grid=32))
    fine = solve(square_problem(1, 2.0, grid=128))
    assert coarse.u.max() < 1e-6
    assert fine.u.max() < 1e-6


def test_bradlow_sweep():
    template = square_problem(1, 1.5, grid=64)
    vols = [4 * pi * f for f in (1.2, 1.6, 2.4)]
    rows = bradlow_sweep(template, vols)
    assert [r.vol for r in rows] == pytest.approx(vols)
    for row in rows:
        assert abs(row.higgs_l2 - (row.vol - 4 * pi)) / row.vol <= 1e-9
        assert row.margin == pytest.approx(row.vol - 4 * pi)
    sups = [r.sup_phi2 for r in rows]
    assert sups[0] < sups[1] < sups[2]
    # doubling the margin doubles higgs_l2 exactly (e2 = tau = 1)
    rows2 = bradlow_sweep(template, [4 * pi * 1.5, 4 * pi * 2.0])
    m = [r.higgs_l2 for r in rows2]
    assert m[1] == pytest.approx(2 * m[0], rel=1e-9)
    with pytest.raises(StabilityError):
        bradlow_sweep(template, [4 * pi * 0.99])


def test_problem_validation():
    torus = TorusSpec(6.0, 6.0, 64, 64)
    with pytest.raises(ParameterError):
        TorusSpec(0.0, 6.0, 64, 64)
    with pytest.raises(ParameterError):
        TorusSpec(6.0, 6.0, 16, 64)
    with pytest.raises(ParameterError, match="L1"):
        TorusSpec(float("inf"), 6.0, 64, 64)
    with pytest.raises(ParameterError, match="L2"):
        TorusSpec(6.0, float("nan"), 64, 64)
    with pytest.raises(ParameterError, match="L1 must be finite"):
        TorusSpec(10 ** 400, 6.0, 64, 64)
    with pytest.raises(ParameterError):
        VortexProblem(torus, ((1.0, 1.0, 0),), e2=1.0, tau=1.0)
    with pytest.raises(ParameterError):
        VortexProblem(torus, (), e2=-1.0, tau=1.0)
    # tol and max_iter are keyword-only, so the slot after tau takes no
    # value: a caller that passed a width there must not set tol
    for extra in ((0.5,), (None, 1e-8)):
        with pytest.raises(TypeError):
            VortexProblem(torus, (), 1.0, 1.0, *extra)


@pytest.mark.parametrize("field", ["e2", "tau", "tol", "zero"])
def test_problem_rejects_non_finite(field):
    torus = TorusSpec(6.0, 6.0, 64, 64)
    kw = {"e2": 1.0, "tau": 1.0}
    zeros = ((1.0, 1.0, 1),)
    if field == "zero":
        zeros = ((1.0, float("nan"), 1),)
    else:
        kw[field] = float("nan") if field != "tau" else float("inf")
    with pytest.raises(ParameterError, match="finite"):
        VortexProblem(torus, zeros, **kw)


@pytest.mark.parametrize("field, make", [
    ("N1", lambda torus: TorusSpec(6.0, 6.0, float("nan"), 64)),
    ("N1", lambda torus: TorusSpec(6.0, 6.0, float("inf"), 64)),
    ("N2", lambda torus: TorusSpec(6.0, 6.0, 64, 64.5)),
    ("multiplicity", lambda torus: VortexProblem(torus, ((1.0, 1.0, 1.7),), e2=1.0, tau=1.0)),
    ("multiplicity", lambda torus: VortexProblem(torus, ((1.0, 1.0, float("inf")),),
                                                 e2=1.0, tau=1.0)),
    ("multiplicity", lambda torus: VortexProblem(torus, ((1.0, 1.0, float("nan")),),
                                                 e2=1.0, tau=1.0)),
    ("max_iter", lambda torus: VortexProblem(torus, ((1.0, 1.0, 1),), e2=1.0, tau=1.0,
                                             max_iter=float("nan"))),
], ids=["N1-nan", "N1-inf", "N2-64.5", "multiplicity-1.7", "multiplicity-inf",
        "multiplicity-nan", "max_iter-nan"])
def test_integer_fields_reject_non_integers(field, make):
    # a float grid size failed later with a TypeError, a fractional
    # multiplicity was truncated (changing d) and a nan max_iter switched
    # the Newton cap off; each is refused up front, naming the field
    with pytest.raises(ParameterError, match="%s must be an integer" % field):
        make(TorusSpec(6.0, 6.0, 64, 64))


def test_parse_config_rejects_non_finite():
    values = {"L1": "6", "L2": "6", "N1": "64", "N2": "64", "e2": "1", "tau": "1"}
    base = "".join("%s = %s\n" % kv for kv in values.items())
    with pytest.raises(ParameterError, match="line 7"):
        parse_config(base + "zero = nan 1 1\n")
    # each value replaces the key's line, so no repeated key raises first
    for key, value in (("tol", "nan"), ("e2", "inf"), ("L1", "inf")):
        text = "".join("%s = %s\n" % kv for kv in {**values, key: value}.items())
        with pytest.raises(ParameterError, match="%s must be finite" % key):
            parse_config(text)


def test_parse_config_and_defaults():
    text = """
    # a one-vortex problem
    L1 = 5.013256549262001
    L2 = 5.013256549262001
    N1 = 64
    N2 = 64
    e2 = 1.0
    tau = 1.0
    zero = 2.5 2.5 1
    zero = 1.0 1.0
    """
    prob = parse_config(text)
    assert prob.d == 2
    assert prob.zeros[1] == (1.0, 1.0, 1)
    assert prob.tol == 1e-10 and prob.max_iter == 50
    with pytest.raises(ParameterError):
        parse_config("L1 = 5\n")
    with pytest.raises(ParameterError):
        parse_config("nonsense line\n")


def test_write_field_format(tmp_path):
    prob = square_problem(1, 2.0, grid=32)
    state = solve(prob)
    path = tmp_path / "field.dat"
    write_field(path, state, prob)
    with open(path, "rb") as fh:
        header = fh.readline().split()
        payload = fh.read()
    assert [int(header[0]), int(header[1])] == [32, 32]
    assert float(header[2]) == prob.torus.L1
    assert int(header[4]) == 1
    grid = np.frombuffer(payload, dtype="<f8").reshape(32, 32)
    np.testing.assert_allclose(grid, state.u)


def _roll_laplacian(v, h1, h2):
    """The five-point periodic Laplacian in its np.roll form: the reference
    for the solver's slice form."""
    return ((np.roll(v, 1, axis=0) + np.roll(v, -1, axis=0) - 2.0 * v) / (h1 * h1)
            + (np.roll(v, 1, axis=1) + np.roll(v, -1, axis=1) - 2.0 * v) / (h2 * h2))


@pytest.mark.parametrize("shape", [(32, 32), (33, 47), (64, 48), (256, 256)])
def test_laplacian_matches_roll_form(shape):
    # the slice form into supplied buffers runs the roll form's operations
    # in the same order, so the two agree to the bit
    rng = np.random.default_rng(sum(shape))
    u = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
    h1, h2 = 7.0 / shape[0], 6.0 / shape[1]
    out, work, twice = (np.full(shape, np.nan) for _ in range(3))
    got = _laplacian(u, h1, h2, out, work, twice)
    assert got is out
    assert np.array_equal(got, _roll_laplacian(u, h1, h2))


def _cg_operators(seed, shape=(64, 64), decades=0.5):
    """The solver's linearized operator -Lap + W, as a stencil, and its
    Fourier preconditioner (-Lap + s)^-1 on a 7 x 6 torus, for a seeded
    positive weight W spread over 10^-decades..10^decades and s = mean(W),
    with W - s and a seeded right-hand side."""
    torus = TorusSpec(7.0, 6.0, *shape)
    h1, h2 = torus.spacing
    rng = np.random.default_rng(seed)
    weight = 10.0 ** rng.uniform(-decades, decades, shape)
    shift = float(weight.mean())
    lam1, lam2 = _fourier_symbol(torus)
    denom = (lam1 + lam2) + shift

    def apply_a(v):
        return -_roll_laplacian(v, h1, h2) + weight * v

    def apply_m(v):
        return np.fft.irfft2(np.fft.rfft2(v) / denom, s=v.shape)

    return apply_a, apply_m, weight - shift, rng.standard_normal(shape)


def test_preconditioner_output_gives_the_operator():
    # A z = r + (W - s) z for z = (-Lap + s)^-1 r: the identity that lets
    # _pcg skip the stencil, on a non-square grid of a non-square torus
    apply_a, apply_m, dweight, r = _cg_operators(seed=5, shape=(64, 48), decades=2.0)
    z = apply_m(r)
    want = apply_a(z)
    got = r + dweight * z
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("rtol,atol,decades,capped", [
    (1e-3, 0.0, 0.5, False),
    (1e-8, 0.0, 0.5, False),
    (1e-12, 0.0, 0.5, False),
    # an absolute floor above rtol*||b|| ends the run
    (1e-12, 1e-6, 0.5, False),
    # a weight over twelve decades with a tolerance below round-off runs
    # to the iteration cap
    (1e-300, 0.0, 6.0, True),
], ids=["1e-3", "1e-8", "1e-12", "atol-1e-6", "iteration-cap"])
def test_pcg_matches_reference_cg(rtol, atol, decades, capped):
    # the in-module recurrence, which takes A p from the preconditioner's
    # output, against scipy.sparse.linalg.cg applying the stencil: the same
    # iteration count and the same solution up to round-off
    from scipy.sparse import linalg
    apply_a, apply_m, dweight, b = _cg_operators(seed=11, decades=decades)
    shape, size = b.shape, b.size
    op = linalg.LinearOperator((size, size), dtype=float,
                               matvec=lambda v: apply_a(v.reshape(shape)).ravel())
    pre = linalg.LinearOperator((size, size), dtype=float,
                                matvec=lambda v: apply_m(v.reshape(shape)).ravel())
    reference_steps = []
    want, info = linalg.cg(op, b.ravel(), rtol=rtol, atol=atol, M=pre,
                           maxiter=CG_MAX_ITER,
                           callback=lambda xk: reference_steps.append(1))
    assert info == (CG_MAX_ITER if capped else 0)
    calls = []

    def precondition(v, out):
        calls.append(1)
        out[...] = apply_m(v)

    # the workspace starts as garbage, as the solver's does
    got, p, q, z = (np.full(shape, np.nan) for _ in range(4))
    steps = _pcg(dweight, precondition, b.copy(), rtol, atol, got, p, q, z)
    assert got.shape == shape and np.isfinite(got).all()
    assert steps == len(calls) == len(reference_steps)
    assert np.linalg.norm(got.ravel() - want) <= 1e-12 * np.linalg.norm(want)
    if not capped:
        assert np.linalg.norm(b - apply_a(got)) <= max(rtol * np.linalg.norm(b), atol)


def test_solve_holds_one_workspace():
    # a converged 256^2 solve allocates its grids once: the traced peak is
    # the workspace the module docstring documents, plus at most half a
    # grid for numpy's own buffers
    prob = _acceptance_layout(256)
    solve(prob)  # FFT plans and numpy's lazy set-up
    grid = 256 * 256 * 8
    half = 256 * (256 // 2 + 1) * 8
    # u, res, x, p, q, z, spare and the source; the complex coefficients;
    # the reciprocal denominator
    workspace = 8 * grid + 2 * half + half
    tracemalloc.start()
    try:
        state = solve(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.residual_norm <= prob.tol
    assert peak <= workspace + grid / 2


def test_cg_iterations_per_newton_step():
    # the acceptance two-vortex layout at 256^2: the CG step counts of each
    # finest-grid Newton step under the Eisenstat-Walker forcing terms, and
    # the Newton and CG steps of each grid from 64^2 up
    prob = _acceptance_layout(256)
    state = solve(prob)
    assert state.iterations == 2
    assert state.cg_iterations == (3, 6)
    assert state.levels == ((64, 64, 3, 10), (128, 128, 1, 3), (256, 256, 2, 9))
    assert solve(square_problem(0, 2.0)).cg_iterations == ()
    with pytest.raises(NonConvergenceError) as err:
        solve(replace(prob, max_iter=1))
    assert err.value.iterations == 1
    assert err.value.cg_iterations == (4,)
    # the failure carries every grid's counts, the finest grid's last
    assert err.value.levels[-1] == (256, 256, 1, sum(err.value.cg_iterations))
    assert err.value.levels == ((64, 64, 1, 3), (128, 128, 1, 4), (256, 256, 1, 4))


def test_cg_stops_once_newton_cannot_use_more_accuracy():
    # the forcing term follows the residual's drop, and a linear residual
    # below tol/2 is below tol in the max norm Newton tests, so the last
    # Newton step needs only a few CG steps to reach tol
    prob = _acceptance_layout(256)
    state = solve(prob)
    assert state.residual_norm <= prob.tol
    assert sum(state.cg_iterations) <= 9
    assert state.cg_iterations[-1] <= 6


def _near_bradlow(eps, grid):
    """Two zeros on an L1 x 1.3*L1 torus whose area is (1 + eps) times the
    dissolving threshold 8*pi."""
    area = 8 * pi * (1 + eps)
    L1 = sqrt(area / 1.3)
    L2 = 1.3 * L1
    torus = TorusSpec(L1, L2, grid, grid)
    return VortexProblem(torus, ((0.25 * L1, 0.3 * L2, 1), (0.7 * L1, 0.62 * L2, 1)),
                         e2=1.0, tau=1.0)


def _count_residual_norms(monkeypatch) -> list:
    """Count the solver's residual evaluations: one for the initial guess
    and one per line-search trial, on every grid."""
    calls = [0]
    residual_norm = taubes_solver._Level.residual_norm

    def counted(level, v):
        calls[0] += 1
        return residual_norm(level, v)

    monkeypatch.setattr(taubes_solver._Level, "residual_norm", counted)
    return calls


@pytest.mark.parametrize("make,steps,cg,calls", [
    (lambda: replace(_acceptance_layout(256), tol=1e-12), 2, (3, 6, 3), 10),
    (lambda: _near_bradlow(0.05, 512), 5, (2, 4, 1, 2, 1, 1), 17),
], ids=["acceptance-256-tol-1e-12", "near-bradlow-512"])
def test_stall_ends_at_the_round_off_floor(make, steps, cg, calls, monkeypatch):
    # tol lies below the residual float64 can represent on these grids: the
    # first full Newton step that fails to lower the residual ends the
    # solve, with no halving of the step
    prob = make()
    counted = _count_residual_norms(monkeypatch)
    with pytest.raises(NonConvergenceError, match="round-off floor") as err:
        solve(prob)
    assert err.value.reason == "round_off_floor"
    assert err.value.residual > prob.tol
    assert err.value.iterations == steps
    assert err.value.cg_iterations == cg
    assert counted[0] == calls


def test_line_search_stall_without_the_floor(monkeypatch):
    # with no floor the same request halves its step down to 2^-10 in vain
    monkeypatch.setattr(taubes_solver, "ROUND_OFF_FLOOR_FACTOR", 0.0)
    counted = _count_residual_norms(monkeypatch)
    with pytest.raises(NonConvergenceError, match="line search stalled") as err:
        solve(replace(_acceptance_layout(256), tol=1e-12))
    assert err.value.reason == "line_search"
    assert err.value.iterations == 3
    assert err.value.cg_iterations == (3, 6, 3, 3)
    assert counted[0] == 22


def test_damping_still_works_above_the_floor(monkeypatch):
    # four zeros of total degree 17 on a thin torus, one level from u_lin:
    # the second full step raises the residual from 0.64, far above the
    # round-off floor, and one halving rescues it
    torus = TorusSpec(48.402, 5.754, 64, 32)
    zeros = ((24.748, 2.822, 4), (7.517, 0.375, 7), (45.636, 5.285, 5), (16.261, 4.058, 1))
    prob = VortexProblem(torus, zeros, e2=1.0, tau=1.0, tol=1e-8)
    counted = _count_residual_norms(monkeypatch)
    state = solve(prob)
    assert state.residual_norm <= prob.tol
    assert state.iterations == 8
    assert state.cg_iterations == (7, 10, 12, 14, 14, 14, 15, 14)
    # the initial guess, eight accepted trials and one rejected full step
    assert counted[0] == 10
    assert state.sup_phi2 == 0.9819204416520715


def _double_zero_384x256():
    """A double zero on a 384 x 256 grid of an 18 x 12 torus."""
    torus = TorusSpec(18.0, 12.0, 384, 256)
    return VortexProblem(torus, ((5.3, 7.1, 2),), e2=1.0, tau=1.0)


@pytest.mark.parametrize("make", [lambda: _acceptance_layout(256), _double_zero_384x256],
                         ids=["acceptance-256", "double-zero-384x256"])
def test_half_grid_start_leaves_the_finest_grid_two_steps(make, monkeypatch):
    # Newton's step count does not depend on the mesh, so the half grid's
    # solution leaves the finest grid only the last, quadratic steps; the
    # answer is the single-level solve's up to the stop's tolerance
    prob = make()
    state = solve(prob)
    assert state.residual_norm <= prob.tol
    assert state.iterations <= 2
    assert len(state.levels) >= 2
    assert state.levels[-1][:3] == (prob.torus.N1, prob.torus.N2, state.iterations)
    monkeypatch.setattr(taubes_solver, "COARSE_MIN_N", 10 ** 9)
    single = solve(prob)
    assert single.levels == ((prob.torus.N1, prob.torus.N2, single.iterations,
                              sum(single.cg_iterations)),)
    assert single.iterations > 2
    assert np.abs(state.u - single.u).max() <= 1e-9
    assert abs(state.flux - prob.d) <= 1e-9


def test_half_grid_start_converges_within_two_steps():
    # max_iter bounds the Newton steps of every grid; two are enough
    prob = replace(_acceptance_layout(256), max_iter=2)
    state = solve(prob)
    assert state.residual_norm <= prob.tol
    assert state.iterations <= 2


def test_odd_grid_runs_on_one_level():
    torus = TorusSpec(7.0, 6.0, 33, 47)
    state = solve(VortexProblem(torus, ((2.0, 3.0, 1),), e2=1.0, tau=1.0))
    assert state.levels == ((33, 47, state.iterations, sum(state.cg_iterations)),)


@pytest.mark.parametrize("coarse", [(64, 64), (49, 33), (32, 50), (49, 32)])
def test_prolongation_is_exact_for_resolved_modes(coarse):
    # zero-padding the spectrum interpolates any trigonometric polynomial
    # below the coarse Nyquist frequency exactly, on even and odd coarse
    # sizes, and drops the coarse Nyquist modes of an even side
    n1, n2 = coarse
    fine = TorusSpec(7.0, 6.0, 2 * n1, 2 * n2)

    def field(torus):
        x = np.arange(torus.N1)[:, None] / torus.N1
        y = np.arange(torus.N2)[None, :] / torus.N2
        return (0.3 + np.cos(2 * pi * (3 * x - 5 * y)) + np.sin(2 * pi * 7 * x)
                - 0.5 * np.cos(2 * pi * ((n1 - 1) // 2 * x + (n2 - 1) // 2 * y)))

    coarse_torus = TorusSpec(7.0, 6.0, n1, n2)
    i, j = np.arange(n1)[:, None], np.arange(n2)[None, :]
    nyquist = (n1 % 2 == 0) * (-1.0) ** i + (n2 % 2 == 0) * (-1.0) ** j
    spectrum = np.fft.rfft2(4.0 * (field(coarse_torus) + nyquist))
    coeffs = np.zeros((fine.N1, fine.N2 // 2 + 1), dtype=complex)
    _subtract_prolonged(coeffs, spectrum, coarse_torus)
    got = -np.fft.irfft2(coeffs, s=(fine.N1, fine.N2))
    assert np.abs(got - field(fine)).max() <= 1e-12


def _loop_source(prob, torus):
    """The source summed one bump at a time, the reference for the
    contraction in _source_grid."""
    h1, h2 = torus.spacing
    width = taubes_solver.SOURCE_WIDTH_SPACINGS * max(prob.torus.spacing)
    out = np.zeros((torus.N1, torus.N2))
    for (zx, zy, m) in prob.zeros:
        gx = _periodic_gaussian(torus.N1, h1, torus.L1, zx, width)
        gy = _periodic_gaussian(torus.N2, h2, torus.L2, zy, width)
        gx *= 4.0 * pi * m / (gx.sum() * gy.sum() * (h1 * h2))
        out += np.multiply.outer(gx, gy)
    return out


@pytest.mark.parametrize("seed", range(40))
def test_source_grid_matches_the_loop_over_zeros(seed):
    # the one contraction over the stacked 1-D Gaussians gives the
    # per-bump sum to the bit, for up to 8 zeros, clustered or spread, on
    # odd and non-square grids, on the finest grid and a coarser one; a
    # vacuum gives zeros; the discrete integral is 4*pi*d
    rng = np.random.default_rng(seed)
    L1, L2 = rng.uniform(3.0, 30.0, 2)
    N1, N2 = (int(n) for n in rng.integers(32, 200, 2))
    k = seed % 9
    if seed % 3 == 0:
        centre = rng.uniform(0.0, 1.0, 2) * (L1, L2)
        points = centre + rng.normal(0.0, 0.3, (k, 2))
    else:
        points = rng.uniform(0.0, 1.0, (k, 2)) * (L1, L2)
    zeros = tuple((x, y, int(m)) for (x, y), m in zip(points, rng.integers(1, 4, k)))
    prob = VortexProblem(TorusSpec(L1, L2, N1, N2), zeros, e2=1.0, tau=1.0)
    for torus in (prob.torus, TorusSpec(L1, L2, max(32, N1 // 2), max(32, N2 // 2))):
        out = np.full((torus.N1, torus.N2), np.nan)
        got = _source_grid(prob, torus, out)
        assert got is out
        assert np.array_equal(got, _loop_source(prob, torus))
        h1, h2 = torus.spacing
        assert abs(got.sum() * h1 * h2 - 4 * pi * prob.d) <= 1e-9 * max(1, prob.d)


@st.composite
def _config_files(draw):
    """A valid problem file, its lines in random order with optional keys
    and trailing comments, plus the VortexProblem it describes."""
    L1, L2 = draw(st.floats(4.0, 20.0)), draw(st.floats(4.0, 20.0))
    N1, N2 = draw(st.integers(32, 128)), draw(st.integers(32, 128))
    torus = TorusSpec(L1, L2, N1, N2)
    values = {"L1": L1, "L2": L2, "N1": N1, "N2": N2,
              "e2": draw(st.floats(1e-3, 1e3)), "tau": draw(st.floats(1e-3, 1e3))}
    kw = {}
    if draw(st.booleans()):
        kw["tol"] = values["tol"] = draw(st.floats(1e-14, 1e-2))
    if draw(st.booleans()):
        kw["max_iter"] = values["max_iter"] = draw(st.integers(1, 200))
    lines = [("%s = %r" % kv, None) for kv in values.items()]
    for _ in range(draw(st.integers(0, 3))):
        x, y = draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0))
        m = draw(st.one_of(st.none(), st.integers(1, 3)))
        text = "zero = %r %r" % (x, y) + ("" if m is None else " %d" % m)
        lines.append((text, (x, y, 1 if m is None else m)))
    lines = draw(st.permutations(lines))
    text = "# generated\n" + "".join(
        line + draw(st.sampled_from(["", "  # note", "   "])) + "\n" for line, _ in lines)
    zeros = tuple(zero for _, zero in lines if zero is not None)
    return text, VortexProblem(torus, zeros, e2=values["e2"], tau=values["tau"], **kw)


@settings(max_examples=60, deadline=None)
@given(_config_files())
def test_parse_config_round_trips_valid_files(data):
    text, want = data
    assert parse_config(text) == want
