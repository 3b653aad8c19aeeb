"""Brute-force ground truth for the symmetric-power ring: the d-fold graded
tensor power of H*(Sigma).

A factor of H*(Sigma) has basis {1, alpha_1, ..., alpha_2g, beta} with
alpha_i alpha_j = 0 unless j = i +- g, alpha_i alpha_{i+g} = -alpha_{i+g}
alpha_i = beta, and beta annihilating everything of positive degree.  A
tensor class is a rational combination of d-tuples of these basis elements;
products pick up Koszul signs when odd factors move past each other.

The symmetrization map sends eta to sum_i beta_i and xi_j to sum_k
alpha_{j,k}; integration extracts the beta x ... x beta coefficient and
divides by d!, so that the image of eta^d integrates to 1.

This module is the oracle that symring is checked against, so it shares
no ring code with it (only the integer check of moduli_numerics) and uses
no ring relation: a product is brute force over every pair of d-tuples.
Only what does not change along the inner loop is taken out of it: the
product of every pair of factor basis elements, once per genus; the parity
of the odd factors after each slot, once per tuple of the left factor; and
the odd slots, once per tuple of the right one.  The generators have
coefficient 1, so their products keep integer coefficients; a Fraction
appears only where a class is scaled by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial
from typing import Iterable, Mapping

from .moduli_numerics import require_int
from .symring import CohomologyClass, RingParams

__all__ = [
    "TensorClass",
    "unit_tensor",
    "generator_eta",
    "generator_xi",
    "monomial_tensor",
    "pullback",
    "oracle_multiply",
    "oracle_integrate",
]

# factor basis encoding: 0 is the unit, 1..2g are the alpha_j, 2g+1 is beta


def _factor_degree(e: int, g: int) -> int:
    if e == 0:
        return 0
    if e == 2 * g + 1:
        return 2
    return 1


def _factor_mul(e1: int, e2: int, g: int):
    """Product of two factor basis elements: (coeff, element) or None."""
    if e1 == 0:
        return 1, e2
    if e2 == 0:
        return 1, e1
    beta = 2 * g + 1
    if e1 == beta or e2 == beta:
        return None
    if e2 == e1 + g:
        return 1, beta
    if e1 == e2 + g:
        return -1, beta
    return None


@cache
def _slot_table(g: int) -> tuple:
    """``_slot_table(g)[e1][e2]`` is ``_factor_mul(e1, e2, g)``."""
    return tuple(tuple(_factor_mul(e1, e2, g) for e2 in range(2 * g + 2))
                 for e1 in range(2 * g + 2))


def _accumulate(out: dict, key: tuple[int, ...], c) -> None:
    """Add c to out[key], dropping the entry when the sum is zero."""
    acc = out.get(key, 0) + c
    if acc:
        out[key] = acc
    else:
        out.pop(key, None)


@dataclass(frozen=True)
class TensorClass:
    """Rational combination of d-tuples of factor basis elements; each
    coefficient is an int or a Fraction."""

    params: RingParams
    terms: Mapping[tuple[int, ...], int | Fraction]

    def __add__(self, other: "TensorClass") -> "TensorClass":
        self._check(other)
        out = dict(self.terms)
        for t, c in other.terms.items():
            _accumulate(out, t, c)
        return TensorClass(self.params, out)

    def scale(self, const) -> "TensorClass":
        c = Fraction(const)
        if not c:
            return TensorClass(self.params, {})
        return TensorClass(self.params, {t: c * v for t, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, TensorClass)
                and self.params == other.params
                and dict(self.terms) == dict(other.terms))

    def __hash__(self):
        return hash((self.params, frozenset(self.terms.items())))

    def _check(self, other: "TensorClass"):
        if self.params != other.params:
            raise ValueError("mismatched ring parameters")


def unit_tensor(params: RingParams) -> TensorClass:
    return TensorClass(params, {(0,) * params.d: 1})


def _in_each_slot(params: RingParams, e: int) -> TensorClass:
    """The sum of the d-tuples holding factor e in one slot, the unit elsewhere."""
    blank = (0,) * params.d
    return TensorClass(params, {blank[:i] + (e,) + blank[i + 1:]: 1 for i in range(params.d)})


def generator_eta(params: RingParams) -> TensorClass:
    """Image of eta: one beta in each slot in turn."""
    return _in_each_slot(params, 2 * params.g + 1)


def generator_xi(params: RingParams, j: int) -> TensorClass:
    """Image of xi_j: one alpha_j in each slot in turn."""
    require_int("xi index", j)
    if not 1 <= j <= 2 * params.g:
        raise ValueError("xi index %d out of range 1..%d" % (j, 2 * params.g))
    return _in_each_slot(params, j)


def _odd_after(s: tuple[int, ...], g: int) -> int:
    """Bit i set when an odd number of odd factors of s lie beyond slot i."""
    mask, parity = 0, 0
    for i in range(len(s) - 1, -1, -1):
        mask |= parity << i
        parity ^= _factor_degree(s[i], g) & 1
    return mask


def _odd_flags(t: tuple[int, ...], g: int) -> int:
    """Bit i set when the factor of t in slot i is odd."""
    return sum((_factor_degree(e, g) & 1) << i for i, e in enumerate(t))


def _tuple_mul(s: tuple[int, ...], t: tuple[int, ...], table: tuple):
    """Slotwise product of basis tuples, without the Koszul sign, or None;
    ``table`` is ``_slot_table(g)``."""
    coeff = 1
    out = []
    for e1, e2 in zip(s, t):
        prod = table[e1][e2]
        if prod is None:
            return None
        c, e = prod
        coeff *= c
        out.append(e)
    return coeff, tuple(out)


def oracle_multiply(a: TensorClass, b: TensorClass) -> TensorClass:
    """Brute force over pairs of d-tuples.  Moving t_i into slot i passes the
    odd factors of s beyond slot i, so each odd t_i against an odd number of
    them flips the sign; both masks are taken once per tuple."""
    a._check(b)
    g = a.params.g
    table = _slot_table(g)
    right = [(t, ct, _odd_flags(t, g)) for t, ct in b.terms.items()]
    out: dict[tuple[int, ...], int | Fraction] = {}
    for s, cs in a.terms.items():
        after = _odd_after(s, g)
        for t, ct, odd in right:
            prod = _tuple_mul(s, t, table)
            if prod is None:
                continue
            sign, tup = prod
            if (after & odd).bit_count() & 1:
                sign = -sign
            _accumulate(out, tup, sign * cs * ct)
    return TensorClass(a.params, out)


def monomial_tensor(params: RingParams, eta_power: int,
                    xi_indices: Iterable[int]) -> TensorClass:
    """Image of eta^h xi_{i1} xi_{i2} ...: the unit tensor times the image
    of each factor in turn, in the order given.  No ring relation is used,
    so a repeated index gives zero and swapping two indices flips the sign.
    """
    term = unit_tensor(params)
    eta_t = generator_eta(params)
    for _ in range(eta_power):
        term = oracle_multiply(term, eta_t)
    for j in xi_indices:
        term = oracle_multiply(term, generator_xi(params, j))
    return term


def pullback(a: CohomologyClass) -> TensorClass:
    """Ring homomorphism determined by eta -> sum beta_i, xi_j -> sum alpha_{j,k}."""
    total = TensorClass(a.params, {})
    for (eta_power, xi_indices), coeff in a.terms.items():
        total = total + monomial_tensor(a.params, eta_power, xi_indices).scale(coeff)
    return total


def oracle_integrate(a: TensorClass) -> Fraction:
    """Coefficient of beta x ... x beta divided by d!."""
    d, g = a.params.d, a.params.g
    top = (2 * g + 1,) * d
    return Fraction(a.terms.get(top, 0), factorial(d))
