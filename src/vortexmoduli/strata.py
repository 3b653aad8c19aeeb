"""Stratification of the local (n = r) vortex moduli space by partitions of
the vortex number d.

A moduli point maps to an effective divisor; over a divisor with a distinct
support points and multiplicities m_1 >= ... >= m_a the fiber is swept out
by a tower of Hecke-modification data: one hyperplane in C^r per support
point plus m - 1 further hyperplane choices per multiplicity-m point, each
step a projective bundle of relative dimension r - 1.  The stratum over the
configurations of that type therefore carries a + d*(r-1) parameters.  For
multiplicities above one the tower only surjects onto the fiber, so the
reported number is labelled a parameter dimension, not a fiber dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .moduli_numerics import ParameterError, require_int

__all__ = [
    "Partition",
    "partitions",
    "stratum_dim",
    "stratification_report",
]


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts; empty exactly for d = 0."""

    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        for p in self.parts:
            require_int("part", p, 1)
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ParameterError("parts must be weakly decreasing")

    @property
    def total(self) -> int:
        return sum(self.parts)

    @property
    def num_parts(self) -> int:
        return len(self.parts)


def _descending(n: int, cap: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _descending(n - first, first):
            yield (first,) + rest


def partitions(d: int) -> list[Partition]:
    """All partitions of d in reverse-lexicographic order ([d] first)."""
    require_int("d", d, 0)
    return [Partition(p) for p in _descending(d, d if d else 1)]


def stratum_dim(p: Partition, r: int) -> int:
    """Parameter dimension of the stratum: a + d*(r-1).

    a positions of distinct support points plus the tower over them.  Equals
    d*r exactly on the all-ones partition, which indexes the dense stratum.
    """
    require_int("r", r, 1)
    return p.num_parts + p.total * (r - 1)


def stratification_report(d: int, r: int) -> list[dict]:
    """One row per partition: tower shape, dimension, codimension in d*r."""
    rows = []
    for p in partitions(d):
        dim = stratum_dim(p, r)
        rows.append({
            "partition": list(p.parts),
            "num_parts": p.num_parts,
            "tower": [[r - 1] * m for m in p.parts],
            "dim": dim,
            "codim": d * r - dim,
        })
    return rows
