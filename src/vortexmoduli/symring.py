"""Exact model of the rational cohomology ring of the d-th symmetric power
of a closed genus-g surface.

The ring is generated by a degree-2 class ``eta`` and degree-1 classes
``xi_1, ..., xi_2g`` which supercommute by parity.  The derived classes

    sigma_j = xi_j * xi_{j+g}   (1 <= j <= g),      sigma = sum_j sigma_j

span, together with eta, the (1,1) integral lattice where Kahler classes
live.  Beyond supercommutativity, the ideal of relations is generated by the
instances

    eta^r * prod_{i in I1} xi_i * prod_{i in I2} xi_{i+g}
          * prod_{j in J} (eta - sigma_j)  =  0

for disjoint I1, I2, J in {1..g} and r >= d - |I1| - |I2| - 2|J| + 1.

Normal form eliminates every monomial carrying a complete xi-pair (or too
many factors overall) in favour of higher eta-powers, so a basis of the
quotient is the set of monomials eta^h * xi_S with h + |S| <= d.  In top
degree 2d only eta^d survives, which is the fundamental class; integration
just reads off its coefficient.

The relations form an ideal, so the integral of a product is a linear
functional on the raw product: it needs no normal form.  Only a raw monomial
eta^h * xi_P * xi_{P+g} with h + |P| = d reaches eta^d (Q = F = {} and k = 0
in the formula below), with weight (-1)^(|P|(|P|-1)/2); every other raw
monomial integrates to 0.  Volumes and the Sigma_0 pairing are read this way.

The reduction is one closed formula (Macdonald, "Symmetric products of an
algebraic curve", Topology 1, 1962).  A monomial eta^h * xi_F * sigma_P with
complete pairs P and lone factors F has, with k = d - h - |F| - |P|, the
normal form sum_{Q in P, |Q| <= k} (-1)^(k-|Q|) C(|P|-1-|Q|, k-|Q|)
eta^(h+|P|-|Q|) xi_F sigma_Q; it vanishes when k < 0.  Each monomial is
expanded directly, as a key (h, mask) with bit i of the mask standing for
xi_i and an integer coefficient over one common denominator.  A class stores
that reduced key map, and ``terms`` is the ``(h, xi_indices) -> Fraction``
view, built when read.  Products and powers carry key maps from factor to
factor, normalized after each, and build one class per result.  Parsing
multiplies each term's factors raw, sums the terms and normalizes once: the
relations form an ideal, so the normal form of a sum of raw products is the
sum of their normal forms.  After each factor it drops the raw monomials
above degree 2d, which lie in the ideal, so a written-out nilpotent product
stays as small as the ring's own degrees.
A raw product xi_s * xi_t swaps each a in s past each b in t with a > b.
Bit a of K_t, the XOR of -b over the bits b of t, is the parity of the
b <= a, so the sign is (-1)^|s & K_t|: one mask per right-hand key.

Each term xi_F sigma_Q is stored as the sorted xi_{F u Q u Q+g}, so it
carries the Koszul sign of xi_F against xi_Q xi_{Q+g}: one swap for every
lone factor a and every b in Q u Q+g with a > b.  For a pair j in Q the
lone factors above j and those above j + g together have the parity of the
ones strictly between j and j + g, since none sits at j or j + g.  So the
sign is (-1)^|Q n N|, with N the pairs whose span (j, j+g) holds an odd
number of lone factors, found once per monomial.  With Q = P it gives
xi_S = (-1)^|N| xi_F xi_P xi_{P+g} = (-1)^(|N| + |P|(|P|-1)/2) xi_F sigma_P.

All coefficients are exact rationals; there is no floating point in this
module.  Values are immutable after construction and every operation is a
pure function.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import comb, gcd, lcm
from typing import Mapping

from .moduli_numerics import require_int

__all__ = [
    "RingParams",
    "CohomologyClass",
    "zero",
    "unit",
    "eta",
    "xi",
    "sigma_j",
    "sigma",
    "multiply",
    "integrate",
    "pd_sigma0",
    "pairing",
    "eta_sigma_integrals",
    "parse_class",
]


@dataclass(frozen=True)
class RingParams:
    """Degree d of the symmetric power (the vortex number) and the genus g."""

    d: int
    g: int

    def __post_init__(self):
        require_int("d", self.d, 1)
        require_int("g", self.g, 0)


def _raw_mul_terms(t1: dict, t2: dict) -> dict:
    """Bilinear product of key maps, no relation reduction (odd square = 0);
    the sign is taken from one mask per key of t2 (see the module docstring)."""
    right = []
    for (h2, s2), c2 in t2.items():
        below, t = 0, s2
        while t:
            b = t & -t
            below ^= -b
            t ^= b
        right.append((h2, s2, below, c2))
    out: dict[tuple[int, int], int] = {}
    for (h1, s1), c1 in t1.items():
        for h2, s2, below, c2 in right:
            if s1 & s2:
                continue
            key = (h1 + h2, s1 | s2)
            c = c1 * c2
            out[key] = out.get(key, 0) + (-c if (s1 & below).bit_count() & 1 else c)
    return out


def _normalize_terms(params: RingParams, terms: dict) -> dict:
    """Reduce a (eta_power, xi_mask) -> int key map (the denominator is left
    alone) to normal form by Macdonald's closed formula.

    Write a monomial as +/- eta^h * xi_F * sigma_P, with P its complete
    pairs (bits j of s & (s >> g)) and F its lone factors, and let
    k = d - h - |F| - |P|.  If h + |S| <= d it is already normal and is added
    as it is; if k < 0 (every monomial above degree 2d among them) a
    pair-free relation instance annihilates it.  Otherwise 0 <= k < |P|, and

        eta^h * xi_F * sigma_P  =  sum over Q in P with |Q| <= k of
            (-1)^(k-|Q|) * C(|P|-1-|Q|, k-|Q|) * eta^(h+|P|-|Q|) * xi_F * sigma_Q.

    The instance (r = h, I1 u I2 = F, J = P) rewrites sigma_P as
    sum_{R < P} (-1)^(|P|+|R|+1) * eta^(|P|-|R|) * sigma_R, every term with
    the same k, so induction on |P| gives the binomial.  Q runs over the
    submasks of P; entries that sum to zero stay until the class drops them.
    The sign of each Q is taken per pair (see the module docstring).
    """
    d, g = params.d, params.g
    result: dict[tuple[int, int], int] = {}
    for (h, s), c in terms.items():
        if not c:
            continue
        if h + s.bit_count() <= d:
            result[(h, s)] = result.get((h, s), 0) + c
            continue
        pairs = s & (s >> g)
        free = s & ~(pairs | pairs << g)
        n = pairs.bit_count()
        k = d - h - free.bit_count() - n
        if k < 0:
            continue
        # above: bit x set when an odd number of lone factors lie above x;
        # neg: the pairs j whose span (j, j+g) holds an odd number of them
        above, f = 0, free
        while f:
            b = f & -f
            above ^= b - 1
            f ^= b
        neg = pairs & (above ^ (above >> g))
        # xi_S = eps * xi_F * sigma_P; xi_F * sigma_Q = (-1)^(q(q-1)/2) * xi_F * xi_Q * xi_{Q+g}
        if (neg.bit_count() + n * (n - 1) // 2) & 1:
            c = -c
        coeffs = [c * (-1) ** (k - q + q * (q - 1) // 2) * comb(n - 1 - q, k - q)
                  for q in range(k + 1)]
        sub = pairs
        while True:
            q = sub.bit_count()
            if q <= k:
                key = (h + n - q, free | sub | sub << g)
                v = -coeffs[q] if (sub & neg).bit_count() & 1 else coeffs[q]
                result[key] = result.get(key, 0) + v
            if not sub:
                break
            sub = (sub - 1) & pairs
    return result


def _top(params: RingParams, keys: dict) -> int:
    """The eta^d coefficient that ``_normalize_terms`` would give an unreduced
    key map: the sum of (-1)^(|P|(|P|-1)/2) * c over its pair-closed monomials
    eta^h * xi_P * xi_{P+g} with h + |P| = d (see the module docstring)."""
    d, g = params.d, params.g
    total = 0
    for (h, s), c in keys.items():
        pairs = s & (s >> g)
        if s != pairs | pairs << g:
            continue
        n = pairs.bit_count()
        if h + n == d:
            total += -c if n & 2 else c
    return total


def _mul_keys(params: RingParams, t1: dict, t2: dict) -> dict:
    """Normal form of the product of two key maps, zero entries dropped."""
    out = _normalize_terms(params, _raw_mul_terms(t1, t2))
    return {key: c for key, c in out.items() if c}


def _power_keys(params: RingParams, keys: dict, k: int) -> dict:
    """The k-th power of a key map, normalized after each factor; the loop
    stops at the first zero, so a nilpotent map takes at most 2d + 1 steps."""
    out = {(0, 0): 1}
    for _ in range(k):
        out = _mul_keys(params, out, keys)
        if not out:
            break
    return out


@dataclass(frozen=True)
class CohomologyClass:
    """A rational cohomology class in normal form: ``keys`` maps (eta_power,
    xi_mask) to nonzero integers over ``den`` > 0, with their gcd divided
    out, so equal classes have equal fields.  Arithmetic returns new classes.
    """

    params: RingParams
    keys: Mapping[tuple[int, int], int]
    den: int = 1

    def __post_init__(self):
        div = gcd(self.den, *self.keys.values())
        object.__setattr__(self, "keys", {k: c // div for k, c in self.keys.items() if c})
        object.__setattr__(self, "den", self.den // div)

    @property
    def terms(self) -> dict[tuple[int, tuple[int, ...]], Fraction]:
        """The class as a new ``(eta_power, xi_indices) -> Fraction`` map."""
        return {(h, tuple(i for i in range(1, mask.bit_length()) if mask >> i & 1)):
                Fraction(c, self.den) for (h, mask), c in self.keys.items()}

    def __add__(self, other: "CohomologyClass") -> "CohomologyClass":
        self._check(other)
        den = lcm(self.den, other.den)
        out = {k: c * (den // self.den) for k, c in self.keys.items()}
        for k, c in other.keys.items():
            out[k] = out.get(k, 0) + c * (den // other.den)
        return CohomologyClass(self.params, out, den)

    def __sub__(self, other: "CohomologyClass") -> "CohomologyClass":
        return self + other.scale(-1)

    def __pow__(self, k: int) -> "CohomologyClass":
        require_int("exponent", k, 0)
        keys = _power_keys(self.params, self.keys, k)
        # a zero power keeps den 1: den ** k could be huge for a nilpotent class
        return CohomologyClass(self.params, keys, self.den ** k if keys else 1)

    def __hash__(self):  # the generated hash cannot hash the keys dict
        return hash((self.params, frozenset(self.keys.items()), self.den))

    def scale(self, const) -> "CohomologyClass":
        c = Fraction(const)
        return CohomologyClass(self.params, {k: c.numerator * v for k, v in self.keys.items()},
                               self.den * c.denominator)

    def is_zero(self) -> bool:
        return not self.keys

    def degrees(self) -> set[int]:
        return {2 * h + s.bit_count() for h, s in self.keys}

    def is_homogeneous(self, degree: int) -> bool:
        return self.degrees() <= {degree}

    def _check(self, other: "CohomologyClass"):
        if self.params != other.params:
            raise ValueError("mismatched ring parameters: %r vs %r"
                             % (self.params, other.params))

    def __str__(self) -> str:
        return format_class(self)

    __repr__ = __str__


def zero(params: RingParams) -> CohomologyClass:
    return CohomologyClass(params, {})


def unit(params: RingParams) -> CohomologyClass:
    return CohomologyClass(params, {(0, 0): 1})


def _index(name: str, j: int, top: int) -> int:
    require_int(name, j)
    if not 1 <= j <= top:
        raise ValueError("%s %d out of range 1..%d" % (name, j, top))
    return j


def _sigma_keys(g: int) -> dict:
    return {(0, 1 << j | 1 << (j + g)): 1 for j in range(1, g + 1)}


def eta(params: RingParams) -> CohomologyClass:
    return CohomologyClass(params, _normalize_terms(params, {(1, 0): 1}))


def xi(params: RingParams, j: int) -> CohomologyClass:
    keys = {(0, 1 << _index("xi index", j, 2 * params.g)): 1}
    return CohomologyClass(params, _normalize_terms(params, keys))


def sigma_j(params: RingParams, j: int) -> CohomologyClass:
    j = _index("sigma index", j, params.g)
    keys = {(0, 1 << j | 1 << (j + params.g)): 1}
    return CohomologyClass(params, _normalize_terms(params, keys))


def sigma(params: RingParams) -> CohomologyClass:
    return CohomologyClass(params, _normalize_terms(params, _sigma_keys(params.g)))


def multiply(a: CohomologyClass, b: CohomologyClass) -> CohomologyClass:
    """Graded-commutative product, brought to normal form."""
    a._check(b)
    return CohomologyClass(a.params, _normalize_terms(a.params, _raw_mul_terms(a.keys, b.keys)),
                           a.den * b.den)


def integrate(a: CohomologyClass) -> Fraction:
    """Evaluate against the fundamental class.

    Returns the normal-form coefficient of eta^d; in particular classes of
    degree other than 2d integrate to zero.
    """
    return Fraction(a.keys.get((a.params.d, 0), 0), a.den)


def _pd_sigma0_keys(params: RingParams) -> dict:
    d, g = params.d, params.g
    keys = {(d - 2, 1 << j | 1 << (j + g)): -d * (d - 1) for j in range(1, g + 1)}
    keys[(d - 1, 0)] = d * (d + (g - 1) * (d - 1))
    return keys


def pd_sigma0(params: RingParams) -> CohomologyClass:
    """Poincare dual of the diagonal curve {d*x} inside the symmetric power:

        d*(d + (g-1)(d-1)) * eta^(d-1)  -  d*(d-1) * eta^(d-2) * sigma
    """
    if params.d <= 1:
        raise ValueError("pd_sigma0 requires d > 1")
    return CohomologyClass(params, _normalize_terms(params, _pd_sigma0_keys(params)))


def pairing(a: CohomologyClass, curve: int) -> Fraction:
    """Duality pairing of a degree-2 class against the curve class Sigma_j.

    ``curve`` is 0 for the diagonal curve {d*x} and 1 for {p + (d-1)*x}.
    The Sigma_0 pairing is the integral of the product with the Poincare
    dual, ``integrate(multiply(a, pd_sigma0(a.params)))``, read by the
    top-degree functional off the raw product with the dual's unreduced keys
    (see the module docstring).  Sigma_1 pulls back
    along x -> p + (d-1)x, under which eta -> (d-1)*beta and
    xi_i -> (d-1)*alpha_i.
    """
    if curve not in (0, 1):
        raise ValueError("curve must be 0 or 1")
    if a.is_zero():
        return Fraction(0)
    if not a.is_homogeneous(2):
        raise ValueError("pairing is defined for degree-2 classes only")
    d, g = a.params.d, a.params.g
    if curve == 0:
        if d == 1:
            return integrate(a)
        return Fraction(_top(a.params, _raw_mul_terms(a.keys, _pd_sigma0_keys(a.params))),
                        a.den)
    total = 0
    for (h, s), c in a.keys.items():
        if h:
            total += c * (d - 1)
        elif s & (s >> g):
            total += c * (d - 1) ** 2
    return Fraction(total, a.den)


def eta_sigma_integrals(params: RingParams) -> list[Fraction]:
    """The integrals of eta^(d-k) * sigma^k for k = 0..min(d, g).

    Each is read by the top-degree functional off the raw power sigma^k,
    which has C(g, k) keys (none past k = g).
    """
    d = params.d
    sigma_keys = _sigma_keys(params.g)
    power = {(0, 0): 1}
    out = []
    for k in range(min(d, params.g) + 1):
        if k:
            power = _raw_mul_terms(power, sigma_keys)
        out.append(Fraction(_top(params, {(d - k, s): c for (_, s), c in power.items()})))
    return out


# ---------------------------------------------------------------------------
# canonical text form: "c*eta^a*xi[i,j,...] + ..."

_FRACTION_RE = re.compile(r"^(\d+)(?:/(\d+))?$")
_EXPONENT_RE = re.compile(r"^\d+$")
_XI_RE = re.compile(r"^xi\[([0-9,\s]+)\]$")
_SIGMA_J_RE = re.compile(r"^sigma\[(\d+)\]$")


def _format_monomial(h: int, xs: tuple[int, ...]) -> str:
    factors = []
    if h == 1:
        factors.append("eta")
    elif h > 1:
        factors.append("eta^%d" % h)
    if xs:
        factors.append("xi[%s]" % ",".join(str(i) for i in xs))
    return "*".join(factors)


def format_class(a: CohomologyClass) -> str:
    if a.is_zero():
        return "0"
    parts = []
    # by degree, then eta-power, then xi indices
    for (h, xs), c in sorted(a.terms.items(), key=lambda t: (2 * t[0][0] + len(t[0][1]), t[0])):
        mono = _format_monomial(h, xs)
        coeff = str(abs(c))
        body = coeff if not mono else ("%s*%s" % (coeff, mono) if abs(c) != 1 else mono)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def _parse_factor(tok: str, params: RingParams) -> dict:
    """Unreduced key map of one factor: the indices of ``xi[...]`` are
    multiplied raw, and only an explicit power is normalized, after each
    step, so that a nilpotent power stops at its first zero."""
    tok = tok.strip()
    base, caret, exp = tok.partition("^")
    power = 1
    if caret:
        if not _EXPONENT_RE.match(exp):
            raise ValueError("bad exponent in %r" % tok)
        power = int(exp)
    base = base.strip()
    if base == "eta":
        keys = {(1, 0): 1}
    elif base == "sigma":
        keys = _sigma_keys(params.g)
    elif m := _XI_RE.match(base):
        keys = reduce(_raw_mul_terms, ({(0, 1 << _index("xi index", int(idx), 2 * params.g)): 1}
                                       for idx in m.group(1).split(",")))
    elif m := _SIGMA_J_RE.match(base):
        j = _index("sigma index", int(m.group(1)), params.g)
        keys = {(0, 1 << j | 1 << (j + params.g)): 1}
    else:
        raise ValueError("cannot parse factor %r" % tok)
    return keys if power == 1 else _power_keys(params, keys, power)


def parse_class(text: str, params: RingParams) -> CohomologyClass:
    """Parse the canonical text form (also accepts sigma / sigma[j] factors).
    Each term's factors are multiplied raw, without the monomials above
    degree 2d, and its coefficient kept as two integers; the terms are summed
    over the lcm of their denominators and normalized once, which the ideal
    of relations allows."""
    text = text.strip()
    if not text:
        raise ValueError("empty class expression")
    if text == "0":
        return zero(params)
    # split into terms of at most one sign each at top level (no parentheses
    # in the grammar); a sign with no term after it is in none of them
    compact = text.replace(" ", "")
    terms = re.findall(r"[+-]?[^+-]+", compact)
    if "".join(terms) != compact:
        raise ValueError("dangling sign in %r" % text)
    parsed, top = [], 2 * params.d
    for term in terms:
        num, den, keys = -1 if term[0] == "-" else 1, 1, {(0, 0): 1}
        for tok in term.lstrip("+-").split("*"):
            if m := _FRACTION_RE.match(tok):
                num, den = num * int(m[1]), den * int(m[2] or 1)
                if not den:  # as Fraction(tok) words it
                    raise ZeroDivisionError("Fraction(%d, 0)" % int(m[1]))
            else:
                # monomials above degree 2d lie in the ideal
                keys = {k: c for k, c in _raw_mul_terms(keys, _parse_factor(tok, params)).items()
                        if 2 * k[0] + k[1].bit_count() <= top}
        parsed.append((num, den, keys))
    den = lcm(*(q for _, q, _ in parsed))
    total: dict[tuple[int, int], int] = {}
    for num, q, keys in parsed:
        for key, c in keys.items():
            total[key] = total.get(key, 0) + num * (den // q) * c
    return CohomologyClass(params, _normalize_terms(params, total), den)
