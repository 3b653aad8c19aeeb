"""Reference values that do not go through the code being timed.

Each function here is closed-form arithmetic on plain Python numbers; none
imports vortexmoduli.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, pi


def macdonald_integral(d: int, g: int, k: int) -> int:
    """int eta^(d-k) sigma^k over Sym^d of a genus-g surface = g!/(g-k)!.

    I. G. Macdonald, Symmetric products of an algebraic curve, Topology 1
    (1962).
    """
    if k > g or k > d:
        return 0
    return factorial(g) // factorial(g - k)


def macdonald_volume(c_eta: Fraction, c_sigma: Fraction, d: int, g: int) -> Fraction:
    """Volume of c_eta*eta + c_sigma*sigma: the d-th power integrated, / d!."""
    total = sum(comb(d, k) * macdonald_integral(d, g, k)
                * c_eta ** (d - k) * c_sigma ** k
                for k in range(min(d, g) + 1))
    return Fraction(total) / factorial(d)


def even_product_integral(a: dict, b: dict, d: int) -> Fraction:
    """Integral of a*b for classes that are polynomials in eta and sigma_j.

    A class maps (eta_power, frozenset of sigma indices) to a coefficient.
    The sigma_j commute and square to zero, and every top-degree monomial
    eta^(d-p) * sigma_J with |J| = p integrates to 1 (Macdonald's
    presentation; summing over J gives g!/(g-p)! for sigma^p).
    """
    total = Fraction(0)
    for (h1, j1), c1 in a.items():
        for (h2, j2), c2 in b.items():
            if j1 & j2:
                continue
            if h1 + h2 + len(j1) + len(j2) == d:
                total += c1 * c2
    return total


def pairing_value(c_eta: Fraction, c_sigma_weight: Fraction, d: int, curve: int) -> Fraction:
    """<c_eta*eta + (sigma part), Sigma_curve> from the pairing table:
    <eta, Sigma_j> = d - j and <sigma_i, Sigma_j> = (d - j)^2 for each i;
    ``c_sigma_weight`` is the sum of the sigma_i coefficients."""
    return c_eta * (d - curve) + c_sigma_weight * (d - curve) ** 2


def curve_degree(family: str, d: int, delta: int) -> int:
    """Projective degree of the swept genus-0 curve."""
    if family == "d0":
        return d * (delta - d + 1)
    return (d - 1) * (delta - d + 1)


def smallest_delta(d: int) -> int:
    """Least twist embedding a rank-one pair of degree d."""
    return max(d, 1)


FLUX_ATOL = 1e-6        # acceptance criterion 9
BRADLOW_RTOL = 1e-6     # acceptance criterion 9


def bradlow_error(higgs_l2: float, tau: float, e2: float, vol: float, d: int) -> float:
    """Relative error of int |phi|^2 = tau*Vol - 4*pi*d/e^2 (Bradlow, CMP 135,
    1990), relative to tau*Vol as in the acceptance suite."""
    return abs(higgs_l2 - (tau * vol - 4.0 * pi * d / e2)) / (tau * vol)
