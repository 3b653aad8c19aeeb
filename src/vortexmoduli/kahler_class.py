"""Kahler classes on the symmetric power: the L2 class of the vortex metric,
Fubini-Study pullback coefficients recovered from curve degrees, the
quantization condition, and symplectic volumes.

Cohomological coefficients are exact rationals, the physical inputs (e^2, tau,
Vol) floats.  Only ``l2_class`` writes the L2 class down: ``representability``
reads both ell*delta values off it, ``quantization`` and ``fs_coefficients``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, isfinite, pi
from typing import Optional, Union

from .moduli_numerics import ParameterError, PhysicalParams, require_int
from .symring import RingParams, eta, integrate, multiply, sigma, unit

__all__ = [
    "KahlerClass2",
    "CurveDegrees",
    "l2_class",
    "curve_degrees",
    "fs_coefficients",
    "quantization",
    "QuantizationReport",
    "representability",
    "RepresentabilityReport",
    "symplectic_volume",
]

Q_INTEGER_ATOL = 1e-9
# q = tau*e^2*Vol/(4*pi) is three roundings of a product of floats and pi's
# own rounding, so its relative error is below 4 * 2^-53 = 2^-51; below
# 2^50 its absolute error stays under 1/2, and only there can q be known
# to be an integer
Q_INTEGER_LIMIT = 2.0 ** 50

Scalar = Union[Fraction, float, int]


@dataclass(frozen=True)
class KahlerClass2:
    """A degree-2 class c_eta * eta + c_sigma * sigma."""

    c_eta: Scalar
    c_sigma: Scalar


@dataclass(frozen=True)
class CurveDegrees:
    """Projective degrees of the images of the two test curves."""

    d0: int
    d1: int

    def __post_init__(self):
        require_int("d0", self.d0, 0)
        require_int("d1", self.d1, 0)


def l2_class(phys: PhysicalParams, d: int) -> KahlerClass2:
    """Kahler class of the L2 metric on the vortex moduli space:

        (pi*tau*Vol - 4*pi^2*d/e^2) * eta + (2*pi^2/e^2) * sigma
    """
    require_int("d", d, 0)
    c_eta = pi * phys.tau * phys.vol - 4.0 * pi ** 2 * d / phys.e2
    c_sigma = 2.0 * pi ** 2 / phys.e2
    return KahlerClass2(c_eta, c_sigma)


def curve_degrees(d: int, g: int, elldelta: int) -> CurveDegrees:
    """d_j = (d-j) * (ell*delta + (d-j-1)*(g-1) - j) for j = 0, 1."""
    require_int("d", d, 2)
    require_int("g", g, 0)
    require_int("elldelta", elldelta, 1)
    vals = [(d - j) * (elldelta + (d - j - 1) * (g - 1) - j) for j in (0, 1)]
    return CurveDegrees(vals[0], vals[1])


def fs_coefficients(d: int, g: int, degrees: CurveDegrees) -> KahlerClass2:
    """Recover the Fubini-Study pullback class from the two curve degrees.

    Solves the 2x2 pairing system <C_eta*eta + C_sigma*sigma, Sigma_j> = d_j
    with the pairing values <eta, Sigma_j> = d-j and <sigma, Sigma_j> =
    (d-j)^2 * g, exactly over the rationals; det = -d*(d-1)*g is never 0.
    """
    require_int("d", d, 2)
    require_int("g", g, 1)   # at genus 0 the two generators collapse
    a00, a01 = Fraction(d), Fraction(d * d * g)
    a10, a11 = Fraction(d - 1), Fraction((d - 1) * (d - 1) * g)
    det = a00 * a11 - a01 * a10
    b0, b1 = Fraction(degrees.d0), Fraction(degrees.d1)
    c_eta = (b0 * a11 - a01 * b1) / det
    c_sigma = (a00 * b1 - b0 * a10) / det
    return KahlerClass2(c_eta, c_sigma)


@dataclass(frozen=True)
class QuantizationReport:
    q: float
    is_integer: bool


def quantization(phys: PhysicalParams) -> QuantizationReport:
    """q = tau * e^2 * Vol / (4*pi), flagged integral within 1e-9 when
    |q| < 2^50 and never beyond, where its rounding error can reach 1/2.
    A q beyond float range raises ParameterError."""
    q = phys.tau * phys.e2 * phys.vol / (4.0 * pi)
    if not isfinite(q):
        raise ParameterError("q = tau*e^2*Vol/(4*pi) overflows (tau=%r, e2=%r, Vol=%r)"
                             % (phys.tau, phys.e2, phys.vol))
    return QuantizationReport(
        q, abs(q) < Q_INTEGER_LIMIT and abs(q - round(q)) <= Q_INTEGER_ATOL)


@dataclass(frozen=True)
class RepresentabilityReport:
    q: float
    elldelta_theorem: Optional[int]
    elldelta_ratio: Optional[Fraction]
    consistent: bool


def representability(phys: PhysicalParams, d: int, g: int) -> RepresentabilityReport:
    """Compare the two candidate values of ell*delta that would make the
    Fubini-Study pullback class proportional to the L2 class.

    The representability statement requires integral q and gives
    ell*delta = q + g - 1.  The other is the twist at which ``fs_coefficients``
    is proportional to ``l2_class``: the Fubini-Study class moves by (1, 0)
    per unit of ell*delta, so its value at d + g fixes that twist.  The map
    (e^2, tau) -> (1, tau*e^2) keeps q and scales the L2 class by e^2, so
    the class is read there, where no coefficient overflows.  The two agree
    exactly when q = d; no choice is made between them.
    """
    require_int("d", d, 2)
    require_int("g", g, 1)   # at genus 0 the two generators collapse
    rep = quantization(phys)
    if not rep.is_integer:
        return RepresentabilityReport(rep.q, None, None, False)
    theorem = round(rep.q) + g - 1
    l2 = l2_class(PhysicalParams(1.0, phys.tau * phys.e2, phys.vol), d)
    fs = fs_coefficients(d, g, curve_degrees(d, g, d + g))
    ratio = Fraction(d + g + round(fs.c_sigma * l2.c_eta / l2.c_sigma - fs.c_eta))
    return RepresentabilityReport(rep.q, theorem, ratio, theorem == ratio)


def symplectic_volume(cls: KahlerClass2, d: int, g: int) -> Scalar:
    """Volume integral of (c_eta*eta + c_sigma*sigma)^d / d!.

    Both generators are even, so the binomial expansion applies; each mixed
    integral comes out of the exact ring model, never from a closed form.
    The powers eta^(d-k) and sigma^k are built once each, by one multiply
    per step in k.
    """
    params = RingParams(d, g)
    e, s = eta(params), sigma(params)
    k_max = min(d, g)
    eta_powers = [e ** (d - k_max)]  # eta^(d - k) is eta_powers[k_max - k]
    for _ in range(k_max):
        eta_powers.append(multiply(eta_powers[-1], e))
    sigma_power = unit(params)
    total = 0  # the k = 0 term, weight 1, sets the type: Fraction or float
    for k in range(0, k_max + 1):
        if k:
            sigma_power = multiply(sigma_power, s)
        weight = integrate(multiply(eta_powers[k_max - k], sigma_power))
        if not weight:
            continue
        term = comb(d, k) * weight * cls.c_eta ** (d - k) * cls.c_sigma ** k
        total = total + term
    return total / factorial(d)
