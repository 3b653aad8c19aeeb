"""Closed-form dimension and parameter bookkeeping for the vortex moduli
spaces: Riemann-Roch counts, Grassmannian and Plucker ambient dimensions,
the moduli dimension formula, and the stability inequality.

All counting functions are exact integer arithmetic; only the physical
stability data (coupling, tau, area) uses floats.  Every integer parameter
of the exact layers and the solver goes through ``require_int``, which
refuses a non-integer (2.0, nan and inf included) or a value below the
parameter's bound with a ParameterError naming it.

The solver's exceptions live here beside ParameterError, so code that only
catches them (the CLI) need not import the solver and numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isfinite, pi
from operator import index
from typing import Optional

__all__ = [
    "ParameterError",
    "StabilityError",
    "NonConvergenceError",
    "require_finite",
    "require_int",
    "EmbeddingParams",
    "PhysicalParams",
    "GrassmannData",
    "rr_dim",
    "grassmann_params",
    "moduli_dim",
    "StabilityReport",
    "stability_check",
]

# floats enter only through tau; the stability inequality is strict, so a
# tau computed to sit exactly at the critical value must not count as stable
CRITICAL_TAU_RTOL = 1e-12


class ParameterError(ValueError):
    """Raised when parameters leave the range where a formula is asserted."""


class StabilityError(ValueError):
    """The requested parameters sit at or below the dissolving threshold."""

    def __init__(self, message: str, critical_tau: float):
        super().__init__(message)
        self.critical_tau = critical_tau


class NonConvergenceError(RuntimeError):
    """A solve stopped without reaching its residual tolerance.

    ``reason`` says why: "max_iter" (the Newton cap), "round_off_floor" (a
    full step failed to lower a residual already at the round-off floor)
    or "line_search" (every damped step above the floor failed).
    ``cg_iterations`` holds the CG steps of each Newton step attempted on
    the finest grid, a step whose line search stopped the solve included,
    and ``levels`` one (N1, N2, Newton steps, CG steps) entry per grid the
    solve ran on, from the coarsest to the finest."""

    def __init__(self, message: str, reason: str, residual: float, iterations: int,
                 cg_iterations: tuple, levels: tuple):
        super().__init__(message)
        self.reason = reason
        self.residual = residual
        self.iterations = iterations
        self.cg_iterations = cg_iterations
        self.levels = levels


def require_finite(name: str, value: float) -> float:
    """Return ``value``; raise ParameterError when it is nan, infinite, or
    a number (such as an int) too large to convert to a float."""
    try:
        finite = isfinite(value)
    except OverflowError:
        raise ParameterError("%s must be finite, got a number beyond float range"
                             % name) from None
    if not finite:
        raise ParameterError("%s must be finite, got %r" % (name, value))
    return value


def require_int(name: str, value, low: Optional[int] = None) -> int:
    """``value`` as an int; raise ParameterError when it is not an integer
    (a float such as 2.0, nan or inf included) or is below ``low``."""
    try:
        value = index(value)
    except TypeError:
        raise ParameterError("%s must be an integer, got %r" % (name, value)) from None
    if low is not None and value < low:
        raise ParameterError("%s must be >= %d, got %d" % (name, low, value))
    return value


@dataclass(frozen=True)
class EmbeddingParams:
    """Numerical type (n, r, d, g) plus the twist data (ell, delta).

    ``ell`` is the degree of the auxiliary ample line bundle and ``delta``
    the twisting power.  No effective lower bound for delta is known in
    general, so delta is caller input; the constructor only enforces the
    necessary inequality ell*delta >= d/r + g - 1.
    """

    n: int
    r: int
    d: int
    g: int
    ell: int
    delta: int

    def __post_init__(self):
        for name, low in (("r", 1), ("d", 0), ("g", 0), ("ell", 1), ("delta", 1),
                          ("n", self.r)):
            require_int(name, getattr(self, name), low)
        if self.r * self.ell * self.delta < self.d + self.r * (self.g - 1):
            raise ParameterError(
                "ell*delta = %d is below the required bound d/r + g - 1"
                % (self.ell * self.delta))

    @property
    def elldelta(self) -> int:
        return self.ell * self.delta


@dataclass(frozen=True)
class PhysicalParams:
    """Coupling e^2, symmetry-breaking scale tau, and total area."""

    e2: float
    tau: float
    vol: float

    def __post_init__(self):
        for name in ("e2", "tau", "vol"):
            require_finite(name, getattr(self, name))
        if self.e2 <= 0:
            raise ParameterError("e2 must be positive")
        if self.vol <= 0:
            raise ParameterError("vol must be positive")


def rr_dim(p: EmbeddingParams) -> int:
    """dim H^0 of the twisted dual bundle: r*ell*delta - d + r*(1-g)."""
    return p.r * p.elldelta - p.d + p.r * (1 - p.g)


@dataclass(frozen=True)
class GrassmannData:
    total_dim: int
    subspace_dim: int
    gr_dim: int
    plucker_ambient_dim: int


def grassmann_params(p: EmbeddingParams) -> GrassmannData:
    """Dimensions of the ambient Grassmannian and its Plucker target.

    The section space of the twisted bundle has dimension n*(ell*delta+1-g),
    which is only exact above the canonical degree; hence the precondition
    ell*delta > 2g - 2.
    """
    if p.elldelta <= 2 * p.g - 2:
        raise ParameterError("need ell*delta > 2g-2 for an exact section count")
    total = p.n * (p.elldelta + 1 - p.g)
    sub = rr_dim(p)   # >= 0 by EmbeddingParams' bound
    gr = sub * (total - sub)
    ambient = comb(total, sub) - 1
    return GrassmannData(total, sub, gr, ambient)


def moduli_dim(n: int, r: int, d: int, g: int) -> int:
    """Moduli dimension n*d + r*(r-n)*(g-1).

    Asserted when d > r*(g-1), or unconditionally in the local case n = r.
    """
    for name, value in (("r", r), ("d", d), ("g", g)):
        require_int(name, value)
    require_int("n", n, r)
    if not (d > r * (g - 1) or n == r):
        raise ParameterError(
            "dimension formula not asserted for n > r with d <= r*(g-1)")
    return n * d + r * (r - n) * (g - 1)


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    margin: float
    critical_tau: float


def stability_check(phys: PhysicalParams, d: int, r: int = 1) -> StabilityReport:
    """Strict stability inequality r * tau * e^2 * Vol > 4*pi*d.

    For rank r the second vortex equation sets the curvature of the
    rank-r bundle to F = -i*B*vol with B = (e^2/2)(tau*1_r - phi phi^*),
    and degree d means (1/2pi) int tr B = d.  Taking the trace gives

        int |phi|^2 = r*tau*Vol - 4*pi*d/e^2,

    and |phi|^2 >= 0 with phi not identically zero needs the right side
    positive: the slope bound tau*e^2*Vol > 4*pi*d/r (Bradlow, Comm. Math.
    Phys. 135, 1990).  At r = 1 this is the abelian Bradlow identity.

    ``margin`` is r*tau*e^2*Vol - 4*pi*d and ``critical_tau`` =
    4*pi*d/(r*e^2*Vol) is where the inequality saturates and vortices
    dissolve.  A tau within relative tolerance of the critical value
    reports unstable.
    """
    require_int("r", r, 1)
    require_int("d", d, 0)
    lhs = r * phys.tau * phys.e2 * phys.vol
    margin = lhs - 4.0 * pi * d
    critical = 4.0 * pi * d / (r * phys.e2 * phys.vol)
    stable = margin > CRITICAL_TAU_RTOL * max(abs(lhs), 4.0 * pi * d)
    return StabilityReport(stable, margin, critical)
