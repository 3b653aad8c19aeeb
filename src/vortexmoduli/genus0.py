"""Concrete realization of the Grassmannian embedding of vortex moduli on
the projective line, with exact rational arithmetic throughout.

A moduli point is an n-tuple pair: a split bundle E = O(d_1) + ... + O(d_r)
together with a matrix of binary forms realizing the section map O^n -> E.
Twisting the dual inclusion by O(delta) embeds the section space of the
twisted dual as a subspace of n copies of the degree-delta forms: the image
of the multiplication map psi -> psi * M by the forms of degree e = delta -
d_i.  That map is built once, in ``_shifts``: multiplying by x^(e-k) y^k
shifts coefficients k places right.  It gives the embedding's rows, the
sweep matrices' rows, and the reconstruction read-off.  Plucker coordinates
are the maximal minors of any basis matrix, built by a forward expansion
down its rows.  The inverse direction reads the section (rank one) off the
last row of the reduced echelon basis, which is y^e times it, the map's last
shift.  Sweeps measure the degrees of the two standard curves inside the
symmetric power: each is a map P^1 -> P^N whose coordinates are binary forms
in a parameter (t:s), and its degree is their common degree.  The rows of a
sweep matrix shift the section, so its two contiguous column blocks that
start at the section's first and last nonzero coefficients a and b are
triangular, with minors a^(e+1) and b^(e+1).  ``curve_degree`` reads the
degree off them and proves the base locus empty by exponents alone: a is a
pure power of s and b a pure power of t, so the two minors share no factor;
``plucker_sweep`` expands every minor and is the reference route.

Everything here is pure and exact: Fractions for numbers, one binary form
type for every polynomial, one minor routine, no floating point.  A float
given as input must be finite, or ParameterError says so.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod
from typing import Optional, Sequence

from .moduli_numerics import ParameterError, require_finite, require_int

__all__ = [
    "BinaryForm",
    "BinaryFormPair",
    "SubspaceBasis",
    "DeltaTooSmallError",
    "RankDeficientError",
    "ReconstructionError",
    "embed_pair",
    "plucker",
    "reconstruct",
    "curve_degree",
    "plucker_sweep",
    "t_degree",
    "smallest_working_delta",
    "divisor_form",
]

class DeltaTooSmallError(ValueError):
    """The twist is below the effective threshold for this pair."""


class RankDeficientError(ValueError):
    """The section matrix does not have generic rank r."""


class ReconstructionError(ValueError):
    """The subspace does not arise from a valid pair."""


def _rational(name: str, value) -> Fraction:
    """``value`` as a Fraction; a non-finite float raises ParameterError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        require_finite(name, value)
    return Fraction(value)


# ---------------------------------------------------------------------------
# binary forms: homogeneous in (x, y); coefficients[i] multiplies x^(deg-i) y^i


@dataclass(frozen=True)
class BinaryForm:
    degree: int
    coefficients: tuple

    def __post_init__(self):
        require_int("degree", self.degree, 0)
        if len(self.coefficients) != self.degree + 1:
            raise ParameterError("need degree+1 coefficients")
        object.__setattr__(self, "coefficients", tuple(
            c if isinstance(c, Fraction) else _rational("coefficient", c)
            for c in self.coefficients))

    @staticmethod
    def zero(degree: int) -> "BinaryForm":
        return BinaryForm(degree, (Fraction(0),) * (degree + 1))

    def __bool__(self) -> bool:
        return any(self.coefficients)

    def __add__(self, other: "BinaryForm") -> "BinaryForm":
        if self.degree != other.degree:
            raise ParameterError("cannot add forms of different degree")
        if not other:
            return self
        return BinaryForm(self.degree, tuple(a + b for a, b in
                                             zip(self.coefficients, other.coefficients)))

    def __sub__(self, other: "BinaryForm") -> "BinaryForm":
        return self + (-1) * other

    def __neg__(self) -> "BinaryForm":
        return (-1) * self

    def __mul__(self, other):
        if isinstance(other, BinaryForm):
            deg = self.degree + other.degree
            out = [Fraction(0)] * (deg + 1)
            nonzero = [(j, b) for j, b in enumerate(other.coefficients) if b]
            for i, a in enumerate(self.coefficients):
                if not a:
                    continue
                for j, b in nonzero:
                    out[i + j] += a * b
            return BinaryForm(deg, tuple(out))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, const) -> "BinaryForm":
        c = _rational("scalar", const)
        return BinaryForm(self.degree, tuple(c * a for a in self.coefficients))

    def y_valuation(self) -> int:
        """Multiplicity of y as a factor (degree+1 for the zero form)."""
        for i, c in enumerate(self.coefficients):
            if c:
                return i
        return self.degree + 1

    def __str__(self) -> str:
        if not self:
            return "0"
        parts = []
        for i, c in enumerate(self.coefficients):
            if not c:
                continue
            xs = "x^%d" % (self.degree - i) if self.degree - i > 1 else \
                ("x" if self.degree - i == 1 else "")
            ys = "y^%d" % i if i > 1 else ("y" if i == 1 else "")
            mono = "*".join(p for p in (xs, ys) if p)
            if not mono:
                parts.append(str(c))
            elif abs(c) != 1:
                parts.append("%s*%s" % (c, mono))
            else:
                parts.append("-" + mono if c < 0 else mono)
        return " + ".join(parts)


def divisor_form(points: Sequence[tuple], multiplicities: Sequence[int]) -> BinaryForm:
    """Form vanishing at [a:b] with the given multiplicities: prod (b*x - a*y)^m."""
    out = BinaryForm(0, (Fraction(1),))
    for (a, b), m in zip(points, multiplicities):
        lin = BinaryForm(1, (_rational("point", b), -_rational("point", a)))
        if not lin:
            raise ParameterError("(0:0) is not a point of the projective line")
        for _ in range(require_int("multiplicity", m, 0)):
            out = out * lin
    return out


# ---------------------------------------------------------------------------
# pairs and subspaces


@dataclass(frozen=True)
class BinaryFormPair:
    """Matrix of forms realizing the section map O^n -> O(d_1)+...+O(d_r).

    Row i holds n forms of common degree d_i, so the matrix fixes n, r and
    d = sum(d_i).  ``from_section`` builds the rank-one case, a single row.
    """

    fs_matrix: tuple

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.fs_matrix)
        object.__setattr__(self, "fs_matrix", rows)
        if not rows or any(len(row) != len(rows[0]) for row in rows) \
                or len(rows[0]) < len(rows):
            raise ParameterError("fs_matrix must be a nonempty r x n matrix with n >= r")
        if any(len({f.degree for f in row}) != 1 for row in rows):
            raise ParameterError("entries of a row must share a degree")

    @staticmethod
    def from_section(forms: Sequence[BinaryForm]) -> "BinaryFormPair":
        return BinaryFormPair((tuple(forms),))

    @property
    def n(self) -> int:
        return len(self.fs_matrix[0])

    @property
    def r(self) -> int:
        return len(self.fs_matrix)

    @property
    def d(self) -> int:
        return sum(self.row_degrees())

    def row_degrees(self) -> tuple:
        return tuple(row[0].degree for row in self.fs_matrix)

    def has_full_rank(self) -> bool:
        """Rank r over the function field: some maximal minor is nonzero."""
        return any(_maximal_minors(self.fs_matrix))

    def canonical(self) -> "BinaryFormPair":
        """Representative with the first nonzero coefficient scaled to 1."""
        lead = next((c for row in self.fs_matrix for f in row
                     for c in f.coefficients if c), None)
        return self if lead is None else BinaryFormPair(
            tuple(tuple(f.scale(1 / lead) for f in row) for row in self.fs_matrix))


@dataclass(frozen=True)
class SubspaceBasis:
    """Subspace of n copies of the degree-delta forms, held as its reduced
    echelon basis: any two bases of one subspace give equal objects."""

    basis: tuple
    n: int
    delta: int

    def __post_init__(self):
        rows = tuple(tuple(c if isinstance(c, Fraction) else _rational("basis entry", c)
                           for c in row) for row in self.basis)
        if any(len(row) != self.ambient_dim for row in rows):
            raise ParameterError("basis vectors must have ambient length")
        reduced = tuple(_rref(rows))
        if len(reduced) != len(rows):
            raise ParameterError("basis vectors must be linearly independent")
        object.__setattr__(self, "basis", reduced)

    @property
    def ambient_dim(self) -> int:
        return self.n * (self.delta + 1)


def _rref(rows) -> list:
    """Reduced row echelon form over the rationals; zero rows dropped."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivot_row = 0
    for col in range(ncols):
        sel = next((i for i in range(pivot_row, len(mat)) if mat[i][col]), None)
        if sel is None:
            continue
        mat[pivot_row], mat[sel] = mat[sel], mat[pivot_row]
        inv = 1 / mat[pivot_row][col]
        mat[pivot_row] = [c * inv for c in mat[pivot_row]]
        for i in range(len(mat)):
            if i != pivot_row and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return [tuple(r) for r in mat[:pivot_row] if any(r)]


def _maximal_minors(rows) -> list:
    """All k x k minors of a k x N matrix, columns in lexicographic order.

    ``level`` maps a column bitmask to the minor of the rows so far on those
    columns; row i extends it by a column c outside the mask with sign
    (-1)^(mask bits above c).  Entries need +, * and negation; a vanishing
    minor is 0 times one entry per row, so zero forms carry the minor's degree.
    """
    level = {1 << c: entry for c, entry in enumerate(rows[0]) if entry}
    for row in rows[1:]:
        entries = [(c, entry, -entry) for c, entry in enumerate(row) if entry]
        extended = {}
        for mask, minor in level.items():
            for c, entry, negated in entries:
                bit = 1 << c
                if mask & bit:
                    continue
                term = (negated if (mask >> c).bit_count() & 1 else entry) * minor
                key = mask | bit
                extended[key] = extended[key] + term if key in extended else term
        level = extended
    zero = prod((row[0] for row in rows), start=0)
    return [level.get(sum(1 << c for c in cols), zero)
            for cols in itertools.combinations(range(len(rows[0])), len(rows))]


# ---------------------------------------------------------------------------
# the multiplication map, the embedding, its Plucker coordinates, and
# reconstruction


def _shifts(coefficients: Sequence, e: int, zero) -> list:
    """Multiplication by the degree-e forms: row k is ``coefficients`` times
    x^(e-k) y^k, that is shifted k places right and padded with ``zero``."""
    coefficients = list(coefficients)
    return [[zero] * k + coefficients + [zero] * (e - k) for k in range(e + 1)]


def embed_pair(pair: BinaryFormPair, delta: int) -> SubspaceBasis:
    """Subspace of n-tuples of degree-delta forms cut out by the pair.

    The subspace is the image of the multiplication map sending a tuple of
    forms psi_i of degree delta - d_i to the row vector psi * fs_matrix; that
    map is injective (see ``smallest_working_delta``): dimension r*(delta+1) - d.
    """
    require_int("delta", delta, 1)
    if delta < smallest_working_delta(pair):
        raise DeltaTooSmallError("delta too small for this pair")
    zero = Fraction(0)
    vectors = []
    for row in pair.fs_matrix:
        e = delta - row[0].degree
        for parts in zip(*(_shifts(f.coefficients, e, zero) for f in row)):
            vectors.append(tuple(c for part in parts for c in part))
    return SubspaceBasis(tuple(vectors), pair.n, delta)


def plucker(basis: SubspaceBasis) -> tuple:
    """Plucker coordinates: all maximal minors of the basis matrix.

    Any basis gives them up to one overall scale, its determinant against
    another.  The reduced echelon basis already gives them normalized: the
    minor on its pivot columns is 1, and every lexicographically earlier
    minor vanishes, so the first nonzero coordinate is 1.
    """
    if not basis.basis:
        raise ParameterError("Plucker coordinates need a nonempty basis")
    return tuple(_maximal_minors(basis.basis))


def reconstruct(basis: SubspaceBasis, n: int, delta: int) -> BinaryFormPair:
    """Recover the pair whose image under ``embed_pair`` is the subspace.

    Rank one only.  The subspace of a section s of degree d is {psi * s :
    deg psi = e = delta - d}; its one vector (up to scale) whose leading entry
    lies furthest right is y^e * s, the last row of the reduced echelon basis
    and the last row of ``_shifts`` on s, so s is that row with the first e
    coefficients of each component dropped.
    The result is canonically scaled and verified by re-embedding.  Higher
    rank (a larger subspace) raises ReconstructionError.
    """
    if require_int("n", n) != basis.n or require_int("delta", delta) != basis.delta:
        raise ParameterError("n/delta inconsistent with the basis")
    k = len(basis.basis)
    if k == 0:
        raise ReconstructionError("empty basis")
    d = (delta + 1) - k
    if d < 0:
        raise ReconstructionError("subspace too large for a rank-1 pair")
    e, last = delta - d, basis.basis[-1]
    starts = range(0, n * (delta + 1), delta + 1)
    if any(any(last[j:j + e]) for j in starts):
        raise ReconstructionError("basis not saturating to a rank-1 subsheaf")
    pair = BinaryFormPair.from_section(
        [BinaryForm(d, last[j + e:j + delta + 1]) for j in starts]).canonical()
    if embed_pair(pair, delta) != basis:
        raise ReconstructionError("basis not saturating to a rank-1 subsheaf")
    return pair


def smallest_working_delta(pair: BinaryFormPair) -> int:
    """Least twist at which the embedding has the expected dimension.

    That is max(1, d_1, ..., d_r): below it some psi_i has negative degree,
    and from it on psi -> psi * fs_matrix is injective, as rows independent
    over the function field satisfy no polynomial relation.  Dependent rows
    raise RankDeficientError: no twist fixes such a pair.
    """
    if not pair.has_full_rank():
        raise RankDeficientError("pair violates the generic rank invariant")
    return max(1, *pair.row_degrees())


# ---------------------------------------------------------------------------
# sweeps: the standard curves as binary forms in (t:s)


def _power_coefficients(d: int) -> list:
    """Coefficients of (s*x - t*y)^d, descending in x, as forms in (t:s):
    the i-th is (-1)^i C(d, i) t^i s^(d-i), the unit shifted d - i places."""
    units = _shifts((1,), d, 0)
    return [BinaryForm(d, units[d - i]).scale((-1) ** i * comb(d, i)) for i in range(d + 1)]


def _sweep_section(family: str, d: int, p: Fraction) -> list:
    """Descending-x coefficients of the swept section, as forms in (t:s).

    d0 family: (s*x - t*y)^d.  d1 family: (x - p*y) * (s*x - t*y)^(d-1).
    """
    if family == "d0":
        if d < 1:
            raise ParameterError("d0 family needs d >= 1")
        return _power_coefficients(d)
    if family == "d1":
        if d < 2:
            raise ParameterError("d1 family needs d >= 2")
        x_inner, y_inner = _shifts(_power_coefficients(d - 1), 1, BinaryForm.zero(d - 1))
        return [a + b.scale(-p) for a, b in zip(x_inner, y_inner)]
    raise ParameterError("family must be 'd0' or 'd1'")


def _sweep(family: str, d: int, delta: int, p) -> tuple:
    """The swept section and the curve degree at e = delta - d, once the
    base locus is proved empty; ParameterError if that proof fails.

    Row k of the sweep matrix is the section shifted k columns right, so the
    (e+1)-column blocks starting at its first and last nonzero coefficients
    a and b are upper and lower triangular, with minors a^(e+1) and b^(e+1):
    the lexicographically first and last nonzero coordinates.  Every
    coordinate has degree (e+1) * deg a.  The gcd of all coordinates divides
    gcd(a^(e+1), b^(e+1)).  For both families a is a power of s and b a
    constant times a power of t, so that gcd is a constant: the proof reads
    where the nonzero coefficients of a and b sit and divides nothing.  A
    section of any other shape is refused, not trusted.
    """
    require_int("d", d)
    require_int("delta", delta)
    if delta < d:
        raise DeltaTooSmallError("delta too small for this pair")
    section, e = _sweep_section(family, d, _rational("p", p)), delta - d
    ends = [c for c in section if c]
    if not ends:
        raise ParameterError("degenerate sweep: all coordinates vanish")
    a, b = ends[0], ends[-1]
    if a.y_valuation() != a.degree or any(b.coefficients[1:]):
        raise ParameterError("cannot prove the sweep's base locus empty")
    return section, (e + 1) * a.degree


def plucker_sweep(family: str, d: int, delta: int, p=Fraction(2)) -> tuple:
    """Plucker coordinates of the swept curve P^1 -> P^N as binary forms in
    (t:s): every maximal minor of the sweep matrix, in lexicographic order.
    Every coordinate, zero or not, has the curve degree.

    This is the reference route, expanding all C(delta+1, e+1) minors;
    ``curve_degree`` needs only the two triangular blocks.  Both prove the
    base locus empty the same way, by the exponents of those blocks' minors
    (see ``_sweep``), and raise ParameterError if they cannot.
    """
    section, _ = _sweep(family, d, delta, p)
    return tuple(_maximal_minors(_shifts(section, delta - d, BinaryForm.zero(section[0].degree))))


def t_degree(coord: BinaryForm) -> Optional[int]:
    """Degree of a swept coordinate in the affine parameter t (s = 1);
    None for a vanishing coordinate."""
    return coord.degree - coord.y_valuation() if coord else None


def curve_degree(family: str, d: int, delta: int, p=Fraction(2)) -> int:
    """Degree of the swept curve: the common degree (e+1) * deg of its
    Plucker coordinates, e = delta - d, read off the two triangular block
    minors, a pure power of s and a pure power of t, whose exponents prove
    the base locus empty (see ``_sweep``).
    Equal to the degree of every coordinate of ``plucker_sweep``, without
    expanding the C(delta+1, e+1) minors."""
    return _sweep(family, d, delta, p)[1]
