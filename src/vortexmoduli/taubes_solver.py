"""Newton solver for the abelian vortex equations on a flat torus, in the
gauge-invariant scalar reduction.

The first vortex equation says the Higgs field is holomorphic for the
connection, which determines the gauge potential from the phase and
log-modulus of phi up to gauge; taking the curvature of that potential
removes the gauge freedom, and the second equation (curvature balanced
against the moment map -(i/2)(|phi|^2 - tau)) then closes on the single
gauge-invariant unknown u = log(|phi|^2 / tau).  Each zero of phi of
multiplicity m contributes a point source of weight 4*pi*m, leaving the
standard semilinear equation

    Lap(u) = e^2 * tau * (e^u - 1) + 4*pi * sum_i m_i * delta_{z_i},

whose solutions exist exactly when the stability margin
tau*e^2*Vol - 4*pi*d is positive.  The sign of the curvature is the one
orientation choice; it is pinned by flux positivity below and changes no
reported scalar.  Integrating the equation gives the two identities the
solver is tested against,

    int |phi|^2 = tau*Vol - 4*pi*d/e^2,        (Bradlow identity)
    flux := (e^2/4pi) int (tau - |phi|^2) = d,  (flux quantization)

with the orientation fixed so that a degree-d bundle carries positive flux.

Discretization: second-order five-point Laplacian on a uniform periodic
grid.  Each delta source is replaced by a periodic Gaussian bump whose
*discrete* integral is normalized to exactly 4*pi*m_i, so both identities
hold at the discrete level up to the Newton residual.  Linearized steps are
solved by preconditioned conjugate gradients (the in-module recurrence
``_pcg``, run on the 2-D grids) for the positive-definite operator
A = -Lap + W with W = e^2*tau*e^u, with the constant-coefficient inverse
z = (-Lap + s)^-1 r, s = mean(W), applied in Fourier space as the
preconditioner.  Its symbol is the exact eigenvalue of the same periodic
five-point Laplacian, so -Lap z = r - s*z and

    A z = r + (W - s) z:

each CG step gets A z from the preconditioner's output with elementwise
operations, and no CG step applies the stencil.

CG solves each Newton system only as accurately as the step can use
(inexact Newton).  It stops once ||r||_2 < max(eta_k*||b||_2, tol/2),
where b is the Newton residual F(u_k) and eta_k the forcing term of
Eisenstat and Walker's choice 2 (SIAM J. Sci. Comput. 17, 1996): eta_0 =
1e-3, and later

    eta_k = max(1e-12, min(1e-3, 0.9 * (||F(u_k)|| / ||F(u_k-1)||)^2))

in the max norm Newton tests, so the linear solve tightens as fast as
Newton converges.  The floor tol/2 is Kelley's safeguard (Iterative
Methods for Linear and Nonlinear Equations, SIAM 1995): since ||r||_inf
<= ||r||_2, a linear residual below tol/2 already meets the max-norm stop
up to the step's quadratic remainder, and more CG steps would buy
accuracy that Newton discards.  Newton itself still returns only once the
true nonlinear residual is at most tol.  Damping is residual
backtracking with factor 1/2 down to steps of 2^-10.

Workspace: a solve allocates its arrays once, and every Newton step, CG
step and line-search trial runs in them.  They come to ten grids: the
source, seven grids u, res, x, p, q, z and spare, the complex rfft2
coefficients (one grid), and the Fourier symbol and the reciprocal of
the preconditioner's denominator (half a grid each).  x is the Newton
step; res holds the residual, which CG then consumes as its r; spare
holds W - s during CG and the trial field u + alpha*x in the line search,
and an accepted trial swaps spare and u.  p, q and z are CG's and, between CG runs, the
Laplacian's and the residual's scratch.  FFTs write into the coefficient
array and the output grid, and the Laplacian is built from slices.  Each
in-place sequence runs the operations of the plain numpy expression it
computes, in the same order, so its result is bit-identical to that
expression's.

A solve owns its workspace, and no array outlives it but the returned u;
independent problems can run concurrently.  All reductions are plain
numpy sums over fixed-shape arrays, so repeated runs on identical inputs
are deterministic.

``StabilityError`` and ``NonConvergenceError`` are defined in
``moduli_numerics`` and re-exported here, so code that only catches them
need not import this module, and with it numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import pi, sqrt
from typing import Optional, Sequence

import numpy as np

from .moduli_numerics import (NonConvergenceError, ParameterError, PhysicalParams,
                              StabilityError, StabilityReport, require_finite,
                              stability_check)

__all__ = [
    "TorusSpec",
    "VortexProblem",
    "TorusVortexState",
    "StabilityError",
    "NonConvergenceError",
    "solve",
    "bradlow_sweep",
    "SweepRow",
    "parse_config",
    "write_field",
]

MIN_NEWTON_STEP = 2.0 ** -10
CG_MAX_ITER = 2000


@dataclass(frozen=True)
class TorusSpec:
    """Flat torus of periods (L1, L2) with an N1 x N2 sample grid."""

    L1: float
    L2: float
    N1: int
    N2: int

    def __post_init__(self):
        require_finite("L1", self.L1)
        require_finite("L2", self.L2)
        if self.L1 <= 0 or self.L2 <= 0:
            raise ParameterError("periods must be positive")
        if self.N1 < 32 or self.N2 < 32:
            raise ParameterError("grid sizes must be >= 32")

    @property
    def vol(self) -> float:
        return self.L1 * self.L2

    @property
    def spacing(self) -> tuple:
        return self.L1 / self.N1, self.L2 / self.N2


@dataclass(frozen=True)
class VortexProblem:
    """Zeros are (x, y, multiplicity) triples; reg_width defaults to three
    grid spacings when not given."""

    torus: TorusSpec
    zeros: tuple
    e2: float
    tau: float
    reg_width: Optional[float] = None
    tol: float = 1e-10
    max_iter: int = 50

    def __post_init__(self):
        zs = tuple((float(x), float(y), int(m)) for (x, y, m) in self.zeros)
        object.__setattr__(self, "zeros", zs)
        for (x, y, _) in zs:
            require_finite("zero coordinate", x)
            require_finite("zero coordinate", y)
        for name in ("e2", "tau", "tol"):
            require_finite(name, getattr(self, name))
        if self.reg_width is not None:
            require_finite("reg_width", self.reg_width)
        if self.e2 <= 0 or self.tau <= 0:
            raise ParameterError("e2 and tau must be positive")
        if any(m < 1 for (_, _, m) in zs):
            raise ParameterError("multiplicities must be positive integers")
        if self.tol <= 0 or self.max_iter < 1:
            raise ParameterError("tol must be positive and max_iter >= 1")
        h1, h2 = self.torus.spacing
        width = self.resolved_reg_width()
        if width < 2.0 * max(h1, h2) * (1.0 - 1e-12):
            raise ParameterError("reg_width must be at least two grid spacings")

    @property
    def d(self) -> int:
        return sum(m for (_, _, m) in self.zeros)

    def resolved_reg_width(self) -> float:
        if self.reg_width is not None:
            return float(self.reg_width)
        h1, h2 = self.torus.spacing
        return 3.0 * max(h1, h2)

    def stability(self) -> StabilityReport:
        """The shared stability predicate, ``moduli_numerics.stability_check``."""
        return stability_check(PhysicalParams(self.e2, self.tau, self.torus.vol), self.d)


@dataclass(frozen=True)
class TorusVortexState:
    """Converged scalar field with the derived gauge-invariant scalars;
    ``cg_iterations`` holds the CG steps of each Newton step, in order."""

    u: np.ndarray
    residual_norm: float
    iterations: int
    flux: float
    higgs_l2: float
    sup_phi2: float
    max_u: float
    cg_iterations: tuple = ()

    def __post_init__(self):
        self.u.setflags(write=False)


def _laplacian(u: np.ndarray, h1: float, h2: float, out: np.ndarray, work: np.ndarray,
               twice: np.ndarray) -> np.ndarray:
    """Five-point periodic Laplacian of u, written into ``out``; ``work``
    and ``twice`` are scratch.  All four are C-contiguous, the last three
    have u's shape, and none is u.  Neighbour sums are taken from slices,
    and the operations run in the order of (roll(u, 1, 0) + roll(u, -1, 0)
    - 2u) / h1^2 + (roll(u, 1, 1) + roll(u, -1, 1) - 2u) / h2^2, so the
    result is bit-identical to that form.  The column-neighbour sum runs
    on the flattened grids, where a strided 2-D sum would make numpy
    allocate iterator buffers; the sums it forms across a row boundary
    land in the first and last columns, which the wrap-around sums then
    overwrite."""
    np.multiply(u, 2.0, out=twice)
    np.add(u[:-2], u[2:], out=out[1:-1])
    np.add(u[-1], u[1], out=out[0])
    np.add(u[-2], u[0], out=out[-1])
    out -= twice
    out /= h1 * h1
    flat_u, flat_work = u.reshape(-1), work.reshape(-1)
    np.add(flat_u[:-2], flat_u[2:], out=flat_work[1:-1])
    np.add(u[:, -1], u[:, 1], out=work[:, 0])
    np.add(u[:, -2], u[:, 0], out=work[:, -1])
    work -= twice
    work /= h2 * h2
    out += work
    return out


def _fourier_symbol(torus: TorusSpec) -> np.ndarray:
    """Eigenvalues of -Lap on the grid, laid out for rfft2."""
    h1, h2 = torus.spacing
    k1 = np.arange(torus.N1)
    k2 = np.arange(torus.N2 // 2 + 1)
    lam1 = (2.0 - 2.0 * np.cos(2.0 * np.pi * k1 / torus.N1)) / (h1 * h1)
    lam2 = (2.0 - 2.0 * np.cos(2.0 * np.pi * k2 / torus.N2)) / (h2 * h2)
    return lam1[:, None] + lam2[None, :]


def _source_grid(prob: VortexProblem) -> np.ndarray:
    """Sum of Gaussian bumps, each normalized to discrete integral 4*pi*m."""
    torus = prob.torus
    h1, h2 = torus.spacing
    x = np.arange(torus.N1) * h1
    y = np.arange(torus.N2) * h2
    width = prob.resolved_reg_width()
    cell = h1 * h2
    total = np.zeros((torus.N1, torus.N2))
    bump = np.empty_like(total)
    for (zx, zy, m) in prob.zeros:
        dx = np.mod(x - zx + 0.5 * torus.L1, torus.L1) - 0.5 * torus.L1
        dy = np.mod(y - zy + 0.5 * torus.L2, torus.L2) - 0.5 * torus.L2
        np.add(dx[:, None] ** 2, dy[None, :] ** 2, out=bump)
        np.negative(bump, out=bump)
        bump /= 2.0 * width * width
        np.exp(bump, out=bump)
        mass = bump.sum() * cell
        bump *= 4.0 * pi * m / mass
        total += bump
    return total


def _pcg(dweight: np.ndarray, precondition, r: np.ndarray, rtol: float, atol: float,
         x: np.ndarray, p: np.ndarray, q: np.ndarray, z: np.ndarray) -> int:
    """Preconditioned conjugate gradients for A x = b from x = 0, where
    A = -Lap + W and ``precondition(r, z)`` writes (-Lap + s)^-1 r into z,
    exactly in the stencil's eigenbasis.  Returns the number of CG steps.

    Workspace: six grids the caller owns, and the loop allocates none.
    ``dweight`` is W - s (the solver's spare grid) and is only read.  r
    holds b on entry and is the residual from then on (the solver's res).
    x receives the solution; x, p and q are zeroed on entry, so they may
    hold anything.  z holds the preconditioner's output, which becomes
    A z = r + dweight*z once p = z + beta*p has used it, so q = A p
    follows by q = A z + beta*q with no stencil (beta = 0 on the first
    step); z then holds alpha*p and alpha*q for the updates of x and r.
    In exact arithmetic the iterates are those of CG with q = A p computed
    directly.

    Stops when ||r|| < max(rtol*||b||, atol), tested before each step, or
    after CG_MAX_ITER steps; that is scipy's ``cg`` stop.  b must be
    nonzero, as a Newton residual above tol is.  Dot products are np.dot on
    flattened views, so the iterates do not depend on the grid shape.
    """
    x.fill(0.0)
    p.fill(0.0)
    q.fill(0.0)
    threshold = max(rtol * float(np.linalg.norm(r)), atol)
    rho_prev = None
    steps = 0
    for _ in range(CG_MAX_ITER):
        if np.linalg.norm(r) < threshold:
            break
        precondition(r, z)
        rho = np.dot(r.ravel(), z.ravel())
        beta = 0.0 if rho_prev is None else rho / rho_prev
        p *= beta
        p += z
        z *= dweight
        z += r
        q *= beta
        q += z
        alpha = rho / np.dot(p.ravel(), q.ravel())
        np.multiply(p, alpha, out=z)
        x += z
        np.multiply(q, alpha, out=z)
        r -= z
        rho_prev = rho
        steps += 1
    return steps


def solve(prob: VortexProblem) -> TorusVortexState:
    """Damped Newton iteration on the discretized scalar vortex equation."""
    rep = prob.stability()
    if not rep.stable:
        raise StabilityError(
            "stability violated: tau*e2*Vol - 4*pi*d = %.6g is not above its "
            "round-off slack (critical tau = %.12g)" % (rep.margin, rep.critical_tau),
            rep.critical_tau)
    torus = prob.torus
    h1, h2 = torus.spacing
    cell = h1 * h2
    e2tau = prob.e2 * prob.tau
    source = _source_grid(prob)
    symbol = _fourier_symbol(torus)
    # the workspace, described in the module docstring
    u, res, x, p, q, z, spare = (np.empty_like(source) for _ in range(7))
    coeffs = np.empty(symbol.shape, dtype=complex)
    real, imag = coeffs.real, coeffs.imag
    recip = np.empty_like(symbol)

    def set_shift(shift: float) -> None:
        # recip = 1 / (symbol + shift)
        np.add(symbol, shift, out=recip)
        np.divide(1.0, recip, out=recip)

    def precondition(rhs: np.ndarray, out: np.ndarray) -> None:
        # out = irfft2(rfft2(rhs) / (symbol + shift)), by the steps numpy's
        # irfft2 runs; numpy divides a complex by a real c as the real and
        # imaginary parts times 1/c, so multiplying the two parts in place
        # by recip gives its quotient to the bit, with no complex copy of
        # the denominator
        np.fft.rfft2(rhs, out=coeffs)
        np.multiply(real, recip, out=real)
        np.multiply(imag, recip, out=imag)
        np.fft.ifft(coeffs, axis=0, out=coeffs)
        np.fft.irfft(coeffs, n=torus.N2, axis=1, out=out)

    def residual_norm(v: np.ndarray) -> float:
        # res = Lap(v) - e2*tau*(e^v - 1) - source, with p, q and z as
        # scratch; ufuncs with out=, as `res -= z` would make res local here
        _laplacian(v, h1, h2, res, p, q)
        np.exp(v, out=z)
        np.subtract(z, 1.0, out=z)
        np.multiply(z, e2tau, out=z)
        np.subtract(res, z, out=res)
        np.subtract(res, source, out=res)
        np.abs(res, out=z)
        return float(z.max())

    # initial guess: constant-coefficient linearization  (Lap - e2*tau) u = S
    set_shift(e2tau)
    precondition(source, u)
    np.negative(u, out=u)
    rnorm = residual_norm(u)
    rtol = 1e-3  # the first forcing term
    iterations = 0
    cg_iterations = []

    while rnorm > prob.tol:
        if iterations >= prob.max_iter:
            raise NonConvergenceError(
                "no convergence within %d Newton iterations (residual %.3g)"
                % (prob.max_iter, rnorm), rnorm, iterations, tuple(cg_iterations))
        # the linearized weight W = e2*tau*e^u, held in spare as W - mean(W)
        np.exp(u, out=spare)
        spare *= e2tau
        shift = float(spare.mean())
        spare -= shift
        set_shift(shift)
        # CG overwrites res; the line search needs only rnorm
        steps = _pcg(spare, precondition, res, rtol, 0.5 * prob.tol, x, p, q, z)
        cg_iterations.append(steps)

        alpha = 1.0
        while True:
            # the trial field u + alpha*x, in spare
            np.multiply(x, alpha, out=spare)
            spare += u
            trial_norm = residual_norm(spare)
            if trial_norm < rnorm:
                # the next forcing term, by Eisenstat-Walker choice 2
                rtol = max(1e-12, min(1e-3, 0.9 * (trial_norm / rnorm) ** 2))
                u, spare, rnorm = spare, u, trial_norm
                break
            alpha *= 0.5
            if alpha < MIN_NEWTON_STEP:
                raise NonConvergenceError(
                    "line search stalled at residual %.3g" % rnorm,
                    rnorm, iterations, tuple(cg_iterations))
        iterations += 1

    phi2 = np.exp(u, out=z)
    phi2 *= prob.tau
    higgs_l2 = float(phi2.sum() * cell)
    flux = float(prob.e2 / (4.0 * pi) * (np.subtract(prob.tau, phi2, out=p).sum() * cell))
    return TorusVortexState(
        u=u,
        residual_norm=rnorm,
        iterations=iterations,
        flux=flux,
        higgs_l2=higgs_l2,
        sup_phi2=float(phi2.max()),
        max_u=float(u.max()),
        cg_iterations=tuple(cg_iterations),
    )


@dataclass(frozen=True)
class SweepRow:
    vol: float
    margin: float
    sup_phi2: float
    higgs_l2: float


def bradlow_sweep(template: VortexProblem, vol_list: Sequence[float]) -> list:
    """Re-solve the template across areas, keeping shape and zero positions
    fixed in fractional coordinates.  Refuses up front if any requested area
    sits at or below the dissolving threshold."""
    base = template.torus
    rows = []
    problems = []
    for vol in vol_list:
        scale = sqrt(vol / base.vol)
        torus = TorusSpec(base.L1 * scale, base.L2 * scale, base.N1, base.N2)
        zeros = tuple((x * scale, y * scale, m) for (x, y, m) in template.zeros)
        reg = None if template.reg_width is None else template.reg_width * scale
        prob = replace(template, torus=torus, zeros=zeros, reg_width=reg)
        rep = prob.stability()
        if not rep.stable:
            raise StabilityError(
                "volume %.6g is at or below the dissolving threshold" % vol,
                rep.critical_tau)
        problems.append((prob, rep))
    for prob, rep in problems:
        state = solve(prob)
        rows.append(SweepRow(prob.torus.vol, rep.margin, state.sup_phi2, state.higgs_l2))
    return rows


# ---------------------------------------------------------------------------
# problem files and field dumps


_CONFIG_KEYS = ("L1", "L2", "N1", "N2", "e2", "tau", "tol", "reg_width", "max_iter")


def parse_config(text: str) -> VortexProblem:
    """Key-value problem description.

    Recognized keys: L1, L2, N1, N2, e2, tau, tol, reg_width, max_iter, and
    repeatable ``zero = x y [multiplicity]`` lines.  '#' starts a comment.
    An unknown or repeated key, or a nan or infinite float value, raises
    ParameterError.
    """
    values = {}
    zeros = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError("line %d: expected key = value" % lineno)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key == "zero":
            parts = val.split()
            if len(parts) == 2:
                parts.append("1")
            if len(parts) != 3:
                raise ParameterError("line %d: zero takes x y [m]" % lineno)
            where = "line %d: zero coordinate" % lineno
            zeros.append((require_finite(where, float(parts[0])),
                          require_finite(where, float(parts[1])), int(parts[2])))
        elif key not in _CONFIG_KEYS:
            raise ParameterError("line %d: unknown key %r" % (lineno, key))
        elif key in values:
            raise ParameterError("line %d: repeated key %r" % (lineno, key))
        else:
            values[key] = val
    missing = {"L1", "L2", "N1", "N2", "e2", "tau"} - set(values)
    if missing:
        raise ParameterError("missing keys: %s" % ", ".join(sorted(missing)))

    def number(key: str) -> float:
        return require_finite(key, float(values[key]))

    torus = TorusSpec(number("L1"), number("L2"), int(values["N1"]), int(values["N2"]))
    e2, tau = number("e2"), number("tau")
    optional = {key: number(key) for key in ("reg_width", "tol") if key in values}
    if "max_iter" in values:
        optional["max_iter"] = int(values["max_iter"])
    return VortexProblem(torus, tuple(zeros), e2, tau, **optional)


def write_field(path, state: TorusVortexState, prob: VortexProblem) -> None:
    """Dump u as row-major little-endian float64 after one text header line
    holding N1, N2, the two periods, and d."""
    torus = prob.torus
    header = "%d %d %r %r %d\n" % (torus.N1, torus.N2, torus.L1, torus.L2, prob.d)
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(state.u, dtype="<f8").tobytes())
