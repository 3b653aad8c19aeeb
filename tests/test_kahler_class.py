import random
from fractions import Fraction
from math import comb, factorial, pi

import pytest

from vortexmoduli import symring
from vortexmoduli.kahler_class import (
    CurveDegrees,
    KahlerClass2,
    curve_degrees,
    fs_coefficients,
    l2_class,
    quantization,
    representability,
    symplectic_volume,
)
from vortexmoduli.moduli_numerics import ParameterError, PhysicalParams


def test_l2_class_values():
    # tau at the critical value kills the eta coefficient
    d, e2, vol = 2, 1.0, 4 * pi * 3
    tau_c = 4 * pi * d / (e2 * vol)
    cls = l2_class(PhysicalParams(e2, tau_c, vol), d)
    assert cls.c_eta == pytest.approx(0.0, abs=1e-12)
    assert cls.c_sigma == pytest.approx(2 * pi ** 2)
    # engineered unit coefficients
    e2 = 2 * pi ** 2
    tau = (4 * pi ** 2 * d / e2 + 1) / (pi * vol)
    cls = l2_class(PhysicalParams(e2, tau, vol), d)
    assert cls.c_eta == pytest.approx(1.0)
    assert cls.c_sigma == pytest.approx(1.0)
    # d=0, tau=0 keeps only the sigma part
    cls = l2_class(PhysicalParams(4.0, 0.0, 1.0), 0)
    assert cls.c_eta == 0.0
    assert cls.c_sigma == pytest.approx(pi ** 2 / 2)


def test_l2_eta_sign_flips_at_critical_tau():
    d, e2, vol = 3, 2.0, 30.0
    tau_c = 4 * pi * d / (e2 * vol)
    for tau, sign in ((0.5 * tau_c, -1), (tau_c, 0), (2 * tau_c, 1)):
        c_eta = l2_class(PhysicalParams(e2, tau, vol), d).c_eta
        if sign == 0:
            assert c_eta == pytest.approx(0.0, abs=1e-12)
        else:
            assert c_eta * sign > 0


def test_curve_degrees_values():
    assert curve_degrees(2, 2, 5) == CurveDegrees(12, 4)
    # g = 1 collapses the genus correction
    for d in (2, 3, 4):
        degs = curve_degrees(d, 1, 7)
        assert degs.d0 == d * 7
        assert degs.d1 == (d - 1) * 6
    assert curve_degrees(2, 0, 2).d0 == 2
    with pytest.raises(ParameterError):
        curve_degrees(1, 2, 5)
    with pytest.raises(ParameterError):
        curve_degrees(2, 2, 0)


def test_fs_coefficients_closed_form():
    cls = fs_coefficients(2, 2, curve_degrees(2, 2, 5))
    assert (cls.c_eta, cls.c_sigma) == (Fraction(2), Fraction(1))
    for d in range(2, 7):
        for g in range(1, 4):
            for elldelta in range(d + g - 1, 13):
                cls = fs_coefficients(d, g, curve_degrees(d, g, elldelta))
                assert (cls.c_eta, cls.c_sigma) == (elldelta - d - g + 1, 1)


def test_fs_coefficients_matches_explicit_formula():
    # the closed-form solution of the 2x2 system, checked separately
    for (d, g, d0, d1) in [(2, 1, 9, 4), (3, 2, 17, 6), (4, 3, 30, 11)]:
        cls = fs_coefficients(d, g, CurveDegrees(d0, d1))
        assert cls.c_eta == Fraction(d * d * d1 - (d - 1) ** 2 * d0, d * (d - 1))
        assert cls.c_sigma == Fraction((d - 1) * d0 - d * d1, d * (d - 1) * g)


def test_fs_coefficients_degenerate_sigma():
    # d1 = d0*(d-1)/d makes the sigma coefficient vanish; accepted, not an error
    cls = fs_coefficients(3, 2, CurveDegrees(21, 14))
    assert cls.c_sigma == 0
    assert cls.c_eta == 7


def test_fs_pairing_matrix_agrees_with_ring():
    for d in range(2, 6):
        for g in range(1, 4):
            params = symring.RingParams(d, g)
            e, s = symring.eta(params), symring.sigma(params)
            for j in (0, 1):
                assert symring.pairing(e, j) == d - j
                assert symring.pairing(s, j) == (d - j) ** 2 * g


def test_quantization():
    d, e2, vol = 3, 1.0, 4 * pi * 4
    rep = quantization(PhysicalParams(e2, 4 * pi * d / (e2 * vol), vol))
    assert rep.is_integer and round(rep.q) == d
    rep = quantization(PhysicalParams(e2, 4 * pi * (d + 1) / (e2 * vol), vol))
    assert rep.is_integer and round(rep.q) == d + 1
    rep = quantization(PhysicalParams(e2, 0.0, vol))
    assert rep.is_integer and rep.q == 0.0
    rep = quantization(PhysicalParams(e2, 4 * pi * (d + 0.37) / (e2 * vol), vol))
    assert not rep.is_integer


def test_quantization_beyond_float_precision():
    # past 2^50 the rounding error of q can reach 1/2, so no q there is
    # flagged integral, though every double that large is an integer
    vol = 4 * pi
    below = 2.0 ** 50 - 1
    assert quantization(PhysicalParams(1.0, below, vol)).q == below
    assert quantization(PhysicalParams(1.0, below, vol)).is_integer
    for q in (2.0 ** 50, 1e16, 2.0 ** 53, 4.6e306):
        rep = quantization(PhysicalParams(1.0, q, vol))
        assert rep.q == q and not rep.is_integer
        # the L2 class of q = 4.6e306 overflows, and it is not needed
        rep = representability(PhysicalParams(1.0, q, vol), 2, 2)
        assert rep.elldelta_theorem is None and rep.elldelta_ratio is None
        assert not rep.consistent


def test_quantization_rejects_overflowing_q():
    # q ~ 4.5e306, but tau*e^2 overflows before the division by 4*pi
    phys = PhysicalParams(1e200, 1e200, 5.65e-93)
    with pytest.raises(ParameterError, match="q = tau"):
        quantization(phys)
    with pytest.raises(ParameterError, match="q = tau"):
        representability(phys, 2, 2)


def test_representability_reports():
    d, g, vol = 2, 2, 4 * pi * 5
    at = lambda q: PhysicalParams(1.0, 4 * pi * q / vol, vol)
    rep = representability(at(d), d, g)
    assert rep.consistent
    assert rep.elldelta_theorem == rep.elldelta_ratio == d + g - 1
    rep = representability(at(d + 1), d, g)
    assert not rep.consistent
    assert rep.elldelta_theorem == d + g
    assert rep.elldelta_ratio == d + g + 1
    rep = representability(at(d + 0.25), d, g)
    assert rep.elldelta_theorem is None and rep.elldelta_ratio is None
    assert not rep.consistent
    rep = representability(at(0), d, g)
    assert not rep.consistent
    assert rep.elldelta_theorem == g - 1
    assert rep.elldelta_ratio == -2 * d + d + g - 1
    with pytest.raises(ParameterError):
        representability(at(d), 1, g)
    with pytest.raises(ParameterError):
        representability(at(d), d, 0)


def test_representability_ratio_is_read_off_the_classes():
    # whatever l2_class says, the reported ratio is the twist whose
    # Fubini-Study class is proportional to it
    rng = random.Random(20)
    for _ in range(300):
        d, g = rng.randint(2, 6), rng.randint(1, 4)
        e2, vol = rng.choice((0.3, 1.0, 2.5, 7.1)), rng.uniform(5.0, 500.0)
        q = d + rng.randint(1, 10 ** rng.randint(1, 6))   # stable: q > d
        phys = PhysicalParams(e2, 4 * pi * q / (e2 * vol), vol)
        rep = representability(phys, d, g)
        assert rep.consistent == (rep.elldelta_theorem == rep.elldelta_ratio)
        fs = fs_coefficients(d, g, curve_degrees(d, g, int(rep.elldelta_ratio)))
        l2 = l2_class(phys, d)
        assert float(fs.c_eta) * l2.c_sigma == pytest.approx(
            float(fs.c_sigma) * l2.c_eta, rel=1e-9), (d, g, e2, vol, q)


def test_symplectic_volume_examples():
    assert symplectic_volume(KahlerClass2(Fraction(1), Fraction(0)), 3, 2) \
        == Fraction(1, 6)
    assert symplectic_volume(KahlerClass2(Fraction(0), Fraction(1)), 2, 2) == 1
    assert symplectic_volume(KahlerClass2(Fraction(1), Fraction(1)), 2, 1) \
        == Fraction(3, 2)


def test_symplectic_volume_homogeneous():
    base = KahlerClass2(Fraction(2), Fraction(3))
    scaled = KahlerClass2(Fraction(2) * 5, Fraction(3) * 5)
    for (d, g) in [(2, 1), (3, 2), (4, 3)]:
        assert symplectic_volume(scaled, d, g) == \
            5 ** d * symplectic_volume(base, d, g)


def _closed_form_volume(cls: KahlerClass2, d: int, g: int):
    # Macdonald: int eta^(d-k) sigma^k = g!/(g-k)!, so the volume has a closed form
    return sum(comb(d, k) * Fraction(factorial(g), factorial(g - k))
               * cls.c_eta ** (d - k) * cls.c_sigma ** k
               for k in range(min(d, g) + 1)) / factorial(d)


def test_symplectic_volume_beyond_oracle_reach():
    d, g = 14, 8
    cls = KahlerClass2(Fraction(3, 2), Fraction(-5, 7))
    assert symplectic_volume(cls, d, g) == _closed_form_volume(cls, d, g)


def test_symplectic_volume_matches_closed_form_on_grid():
    exact = KahlerClass2(Fraction(7, 3), Fraction(-5, 4))
    floats = KahlerClass2(2.75, 0.625)
    for d in range(1, 14):
        for g in range(0, 9):
            assert symplectic_volume(exact, d, g) == _closed_form_volume(exact, d, g), (d, g)
            vol = symplectic_volume(floats, d, g)
            assert type(vol) is float
            assert vol == pytest.approx(_closed_form_volume(floats, d, g), rel=1e-12), (d, g)


def test_symplectic_volume_float_path():
    vol = symplectic_volume(KahlerClass2(1.0, 1.0), 2, 1)
    assert vol == pytest.approx(1.5)


def test_symplectic_volume_type_follows_coefficients():
    # exact coefficients give an exact volume, and one float coefficient a float
    for c_eta, c_sigma, kind in ((Fraction(0), Fraction(1), Fraction), (1, 1, Fraction),
                                 (Fraction(1, 2), 1.5, float), (0.0, Fraction(1), float)):
        assert type(symplectic_volume(KahlerClass2(c_eta, c_sigma), 3, 2)) is kind
