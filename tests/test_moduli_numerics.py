from math import pi

import pytest

from vortexmoduli.genus0 import (BinaryForm, BinaryFormPair, divisor_form, embed_pair,
                                 reconstruct)
from vortexmoduli.kahler_class import curve_degrees
from vortexmoduli.moduli_numerics import (
    EmbeddingParams,
    ParameterError,
    PhysicalParams,
    grassmann_params,
    moduli_dim,
    require_int,
    rr_dim,
    stability_check,
)
from vortexmoduli.strata import Partition
from vortexmoduli.symring import RingParams, eta, xi

NAN = float("nan")


def test_rr_dim_values():
    assert rr_dim(EmbeddingParams(1, 1, 2, 2, 1, 5)) == 2
    assert rr_dim(EmbeddingParams(1, 1, 0, 0, 1, 1)) == 2  # delta=1 on the line
    assert rr_dim(EmbeddingParams(2, 2, 3, 1, 1, 4)) == 5
    # the constants-only case: trivial bundle wants ell*delta = 0, which the
    # parameter type excludes; check the formula directly at the boundary
    assert 1 * 1 * 1 - 0 + 1 * (1 - 1) == 1


def test_embedding_params_validation():
    with pytest.raises(ParameterError):
        EmbeddingParams(1, 2, 0, 0, 1, 1)  # n < r
    with pytest.raises(ParameterError):
        EmbeddingParams(1, 1, -1, 0, 1, 1)
    with pytest.raises(ParameterError):
        EmbeddingParams(1, 1, 2, 2, 1, 2)  # ell*delta below d/r + g - 1
    with pytest.raises(ParameterError):
        EmbeddingParams(1, 1, 0, 0, 0, 1)


def test_grassmann_params_examples():
    gr = grassmann_params(EmbeddingParams(1, 1, 2, 2, 1, 5))
    assert (gr.total_dim, gr.subspace_dim, gr.gr_dim, gr.plucker_ambient_dim) \
        == (4, 2, 4, 5)
    gr = grassmann_params(EmbeddingParams(1, 1, 0, 0, 1, 1))
    assert (gr.total_dim, gr.subspace_dim, gr.gr_dim, gr.plucker_ambient_dim) \
        == (2, 2, 0, 0)
    gr = grassmann_params(EmbeddingParams(2, 2, 3, 0, 1, 2))
    assert (gr.total_dim, gr.subspace_dim, gr.gr_dim) == (6, 3, 9)


def test_grassmann_params_requires_exact_section_count():
    with pytest.raises(ParameterError):
        grassmann_params(EmbeddingParams(1, 1, 0, 2, 1, 2))  # elldelta = 2g-2


def test_grassmann_degrades_gracefully():
    # zero-dimensional subspace: point Grassmannian, point Plucker target
    gr = grassmann_params(EmbeddingParams(1, 1, 3, 0, 1, 2))
    assert gr.subspace_dim == 0
    assert gr.gr_dim == 0 and gr.plucker_ambient_dim == 0


def test_moduli_dim():
    assert moduli_dim(2, 2, 3, 0) == 6
    assert moduli_dim(2, 2, 3, 3) == 6
    assert moduli_dim(1, 1, 7, 2) == 7
    assert moduli_dim(3, 2, 5, 2) == 13
    with pytest.raises(ParameterError):
        moduli_dim(3, 2, 2, 2)  # n > r and d <= r(g-1)
    with pytest.raises(ParameterError):
        moduli_dim(1, 2, 5, 0)


def test_stability_examples():
    phys = PhysicalParams(1.0, 1.0, 4 * pi * 3)
    rep = stability_check(phys, 2)
    assert rep.stable
    assert rep.critical_tau == pytest.approx(2.0 / 3.0)
    # exactly critical tau is not stable
    crit = PhysicalParams(1.0, rep.critical_tau, 4 * pi * 3)
    assert not stability_check(crit, 2).stable
    # d = 0 with positive tau is always stable
    assert stability_check(PhysicalParams(1.0, 0.5, 1.0), 0).stable


def test_stability_rank_enters_as_slope_bound():
    # r*tau*e2*Vol > 4*pi*d: at d = 2, Vol = 6*pi, e2 = tau = 1 a rank-1
    # bundle dissolves while a rank-2 one is stable
    phys = PhysicalParams(1.0, 1.0, 6 * pi)
    one, two = stability_check(phys, 2, 1), stability_check(phys, 2, 2)
    assert not one.stable
    assert one.margin == pytest.approx(-2 * pi)
    assert one.critical_tau == pytest.approx(4.0 / 3.0)
    assert two.stable
    assert two.margin == pytest.approx(4 * pi)
    assert two.critical_tau == pytest.approx(2.0 / 3.0)
    # the factor r = 1 is exact, so the default keeps every bit
    odd = PhysicalParams(0.7, 1.3, 17.1)
    assert stability_check(odd, 3, 1) == stability_check(odd, 3)
    assert stability_check(odd, 3).margin == 1.3 * 0.7 * 17.1 - 4.0 * pi * 3
    assert stability_check(odd, 3).critical_tau == 4.0 * pi * 3 / (0.7 * 17.1)


def test_stability_monotonicity():
    vol = 10.0
    margins = [stability_check(PhysicalParams(1.0, tau, vol), 1).margin
               for tau in (0.5, 1.0, 2.0, 4.0)]
    assert margins == sorted(margins)
    by_d = [stability_check(PhysicalParams(1.0, 5.0, vol), d).margin
            for d in range(0, 4)]
    assert by_d == sorted(by_d, reverse=True)


def test_physical_params_validation():
    with pytest.raises(ParameterError):
        PhysicalParams(0.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        PhysicalParams(1.0, 1.0, -2.0)
    for field in ("e2", "tau", "vol"):
        # an int beyond float range used to escape as OverflowError
        for bad in (float("nan"), float("inf"), 10 ** 400):
            values = {"e2": 1.0, "tau": 1.0, "vol": 1.0, field: bad}
            with pytest.raises(ParameterError, match=field):
                PhysicalParams(**values)


def test_require_int_messages():
    assert require_int("k", 3) == 3
    assert require_int("k", 3, 3) == 3
    with pytest.raises(ParameterError) as err:
        require_int("k", 2.0, 0)
    assert str(err.value) == "k must be an integer, got 2.0"
    with pytest.raises(ParameterError) as err:
        require_int("k", 0, 1)
    assert str(err.value) == "k must be >= 1, got 0"


@pytest.mark.parametrize("field, make", [
    ("d", lambda: RingParams(NAN, 1)),
    ("d", lambda: EmbeddingParams(n=2, r=1, d=3.5, g=2, ell=1, delta=8)),
    ("part", lambda: Partition((NAN,))),
    ("part", lambda: Partition((1.5,))),
    ("d", lambda: moduli_dim(2, 2, NAN, 0)),
    ("g", lambda: curve_degrees(2, NAN, 3)),
    ("d", lambda: stability_check(PhysicalParams(1.0, 1.0, 30.0), NAN)),
    ("degree", lambda: BinaryForm(2.0, (1, 2, 3))),
    ("multiplicity", lambda: divisor_form([(1, 2)], [1.5])),
    ("delta", lambda: reconstruct(embed_pair(BinaryFormPair.from_section(
        [BinaryForm(1, (1, 2))]), 2), 1, 2.0)),
    ("xi index", lambda: xi(RingParams(2, 2), 1.5)),
    ("exponent", lambda: eta(RingParams(2, 2)) ** 2.0),
], ids=["RingParams-d-nan", "EmbeddingParams-d-3.5", "Partition-nan", "Partition-1.5",
        "moduli_dim-d-nan", "curve_degrees-g-nan", "stability_check-d-nan",
        "BinaryForm-degree-2.0", "divisor_form-1.5",
        "reconstruct-delta-2.0", "xi-1.5", "pow-2.0"])
def test_exact_layers_reject_non_integers(field, make):
    # each was accepted and gave a nan or fractional count, or (divisor_form,
    # reconstruct, xi, the power) failed with a bare TypeError; each is
    # refused up front, naming the field
    with pytest.raises(ParameterError, match="^%s must be an integer" % field):
        make()
