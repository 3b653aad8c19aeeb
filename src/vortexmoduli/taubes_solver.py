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
hold at the discrete level up to the Newton residual.  The bump's width is
SOURCE_WIDTH_SPACINGS = 3 spacings of the finest grid, on every level.
Linearized steps are solved by preconditioned conjugate gradients (the
in-module recurrence ``_pcg``, run on the 2-D grids) for the
positive-definite operator A = -Lap + W with W = e^2*tau*e^u, with the
constant-coefficient inverse z = (-Lap + s)^-1 r, s = mean(W), applied in
Fourier space as the preconditioner.  Its symbol is the exact eigenvalue of the same periodic
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
backtracking with factor 1/2 down to steps of 2^-10, except at the
round-off floor.  Rounding u to float64 moves the five-point Laplacian by
up to 2*eps*||u||_inf*(1/h1^2 + 1/h2^2), so once the residual is at most
twice that, ROUND_OFF_FLOOR_FACTOR = 4 times eps*||u||_inf*(1/h1^2 +
1/h2^2), no damped step can lower it by more than noise (Kelley, ch. 8).
When a full step fails to lower a residual at that floor, Newton stops at
once.  The floor is computed only after a failed full step, so a solve
that never backtracks runs no operation for it.  On the finest grid each
stop short of tol raises ``NonConvergenceError``, whose ``reason`` names
it: "round_off_floor", "line_search" (halving failed above the floor) or
"max_iter" (the Newton cap).

Initial guess (nested iteration; Kelley, ch. 8): u_lin, the solution of
the constant-coefficient linearization (Lap - e^2*tau) u_lin = S, plus
the nonlinear correction of the half grid prolonged,

    u_0 = u_lin + P(u_c - u_lin,c).

When N1 and N2 are both even and the half grid has at least COARSE_MIN_N
= 64 points per side, the solve first runs the same problem (the same
zeros and Gaussian width) on the N1/2 x N2/2 grid, itself started the
same way, to residual max(COARSE_TOL, tol) with COARSE_TOL = 1e-3.  A coarse level never raises: at the Newton cap, the round-off
floor or a stalled line search it hands over the iterate it reached.  P is spectral prolongation:
the coarse rfft2 spectrum is zero-padded, its Nyquist modes dropped.
Newton's step count does not depend on the mesh (Allgower, Boehmer,
Potra and Rheinboldt, SIAM J. Numer. Anal. 23, 1986), so this guess
leaves the fine grid only the last, quadratic steps: 2 instead of 5 on
the acceptance layout from 128^2 to 512^2.  The correction is prolonged,
not u: u has log dips at the cores that the coarse grid cannot resolve,
so on that layout a prolonged u starts with a residual of 17 at 256^2
and 67 at 512^2, against about 9e-2 for u_lin, while u - u_lin is
smooth.  A grid with an odd side or a side below 128 points runs on one
level, from u_lin.  ``max_iter`` caps the Newton steps of every level.

Workspace: a solve allocates its arrays once, and every Newton step, CG
step and line-search trial runs in them.  They come to nine and a half
grids: the source, seven grids u, res, x, p, q, z and spare, the complex
rfft2 coefficients (one grid), and the reciprocal of the preconditioner's
denominator (half a grid).  The Fourier symbol is kept as its two 1-D
factors, from which each shift rebuilds the reciprocal in place.  x is the
Newton step; res holds the residual, which CG then consumes as its r;
spare holds W - s during CG and the trial field u + alpha*x in the line
search, and an accepted trial swaps spare and u.  p, q and z are CG's and,
between CG runs, the Laplacian's and the residual's scratch.  FFTs write
into the coefficient array and the output grid, and the Laplacian is built
from slices.  Each in-place sequence runs the operations of the plain
numpy expression it computes, in the same order, so its result is
bit-identical to that expression's.  Each level's set-up (the symbol's
factors, the source and the prolongation) and the reciprocal's rebuild at
each shift write only their output; for their strided or broadcast sums
numpy may allocate an iterator buffer of a few hundred kilobytes, whatever
the grid size.

The finest level's arrays are allocated first, before any coarse work, so
a grid too large to allocate fails at once.  The coarse levels live
inside them: the half grid's eight grids are the quarters of x and p,
and its two spectral arrays lie in q, a grid that stays idle until the
fine Newton starts.  Each coarser level is carved the same way out of
the one above it, so the multilevel solve needs no memory beyond the
finest level's nine and a half grids.

A solve owns its workspace, and no array outlives it but the returned u;
independent problems can run concurrently.  All reductions are plain
numpy sums over fixed-shape arrays, so repeated runs on identical inputs
are deterministic.

``StabilityError`` and ``NonConvergenceError`` are defined in
``moduli_numerics`` and re-exported here, so code that only catches them
need not import this module, and with it numpy.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, replace
from math import pi, sqrt
from typing import Optional, Sequence

import numpy as np

from .moduli_numerics import (NonConvergenceError, ParameterError, PhysicalParams,
                              StabilityError, StabilityReport, require_finite,
                              require_int, stability_check)

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
# the round-off floor of the residual in units of eps*||u||_inf*(1/h1^2 +
# 1/h2^2): twice the five-point Laplacian's rounding bound (see the module
# docstring)
ROUND_OFF_FLOOR_FACTOR = 4.0
CG_MAX_ITER = 2000
# nested iteration: the smallest half grid a solve starts from, and the
# residual that half grid is solved to (see the module docstring)
COARSE_MIN_N = 64
COARSE_TOL = 1e-3
# the Gaussian source width, in spacings of the finest grid
SOURCE_WIDTH_SPACINGS = 3.0


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
        require_int("N1", self.N1, 32)
        require_int("N2", self.N2, 32)
        if self.L1 <= 0 or self.L2 <= 0:
            raise ParameterError("periods must be positive")

    @property
    def vol(self) -> float:
        return self.L1 * self.L2

    @property
    def spacing(self) -> tuple:
        return self.L1 / self.N1, self.L2 / self.N2


@dataclass(frozen=True)
class VortexProblem:
    """Zeros are (x, y, multiplicity) triples."""

    torus: TorusSpec
    zeros: tuple
    e2: float
    tau: float
    _: KW_ONLY
    tol: float = 1e-10
    max_iter: int = 50

    def __post_init__(self):
        zs = tuple((float(x), float(y), require_int("multiplicity", m, 1))
                   for (x, y, m) in self.zeros)
        object.__setattr__(self, "zeros", zs)
        for (x, y, _) in zs:
            require_finite("zero coordinate", x)
            require_finite("zero coordinate", y)
        for name in ("e2", "tau", "tol"):
            require_finite(name, getattr(self, name))
        require_int("max_iter", self.max_iter, 1)
        if self.e2 <= 0 or self.tau <= 0:
            raise ParameterError("e2 and tau must be positive")
        if self.tol <= 0:
            raise ParameterError("tol must be positive")

    @property
    def d(self) -> int:
        return sum(m for (_, _, m) in self.zeros)

    def stability(self) -> StabilityReport:
        """The shared stability predicate, ``moduli_numerics.stability_check``."""
        return stability_check(PhysicalParams(self.e2, self.tau, self.torus.vol), self.d)


@dataclass(frozen=True)
class TorusVortexState:
    """Converged scalar field with the derived gauge-invariant scalars.

    ``iterations`` counts the Newton steps on the finest grid, and
    ``cg_iterations`` holds the CG steps of each of them, in order.
    ``levels`` holds one (N1, N2, Newton steps, CG steps) entry per grid
    the solve ran on, from the coarsest to the finest."""

    u: np.ndarray
    residual_norm: float
    iterations: int
    flux: float
    higgs_l2: float
    sup_phi2: float
    cg_iterations: tuple
    levels: tuple

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


def _fourier_symbol(torus: TorusSpec) -> tuple:
    """Eigenvalues of -Lap on the grid, laid out for rfft2, as two 1-D
    factors: the eigenvalue of mode (k1, k2) is lam1[k1, 0] + lam2[k2]."""
    h1, h2 = torus.spacing
    k1 = np.arange(torus.N1)
    k2 = np.arange(torus.N2 // 2 + 1)
    lam1 = (2.0 - 2.0 * np.cos(2.0 * np.pi * k1 / torus.N1)) / (h1 * h1)
    lam2 = (2.0 - 2.0 * np.cos(2.0 * np.pi * k2 / torus.N2)) / (h2 * h2)
    return lam1[:, None], lam2


def _periodic_gaussian(n: int, h: float, period: float, centre: float,
                       width: float) -> np.ndarray:
    """exp(-dx^2 / (2 width^2)) at the n grid points of one periodic axis,
    dx the signed distance to ``centre`` on the circle."""
    dx = np.mod(np.arange(n) * h - centre + 0.5 * period, period) - 0.5 * period
    return np.exp(-(dx * dx) / (2.0 * width * width))


def _source_grid(prob: VortexProblem, torus: TorusSpec, out: np.ndarray) -> np.ndarray:
    """Sum of Gaussian bumps on ``torus``'s grid, each of prob's width and
    normalized to discrete integral 4*pi*m, written into ``out``.  A bump is
    the outer product of two 1-D Gaussians, so its discrete integral is the
    product of their sums, and the sum of the bumps is one contraction of
    the stacked factors (zeros for a vacuum)."""
    h1, h2 = torus.spacing
    width = SOURCE_WIDTH_SPACINGS * max(prob.torus.spacing)
    gxs, gys = [], []
    for (zx, zy, m) in prob.zeros:
        gx = _periodic_gaussian(torus.N1, h1, torus.L1, zx, width)
        gy = _periodic_gaussian(torus.N2, h2, torus.L2, zy, width)
        gx *= 4.0 * pi * m / (gx.sum() * gy.sum() * (h1 * h2))
        gxs.append(gx)
        gys.append(gy)
    return np.einsum("ki,kj->ij", np.reshape(gxs, (-1, torus.N1)),
                     np.reshape(gys, (-1, torus.N2)), out=out)


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


class _Level:
    """One grid of a solve, with the workspace it runs in and the operators
    that run there.

    ``grids`` holds eight grids of the level's shape: the source, u, res, x,
    p, q, z and spare.  ``spectra`` holds the complex rfft2 coefficients and
    the reciprocal of the preconditioner's denominator.  The Fourier symbol
    is kept as its two 1-D factors, lam1 (a column) and lam2.  ``solve``
    allocates the finest level's arrays; ``coarser`` carves the next
    level's out of grids of this one that stay idle until this level's
    Newton starts."""

    def __init__(self, prob: VortexProblem, torus: TorusSpec, grids: list,
                 spectra: tuple):
        self.prob = prob
        self.torus = torus
        self.grids = grids
        self.source, _, self.res, _, self.p, self.q, self.z, _ = grids
        self.coeffs, self.recip = spectra
        self.real, self.imag = self.coeffs.real, self.coeffs.imag
        self.lam1, self.lam2 = _fourier_symbol(torus)

    def coarser(self) -> Optional["_Level"]:
        """The half grid's level, or None when a side is odd or the half
        grid is below COARSE_MIN_N.  Its eight grids are the quarters of x
        and p, and its complex coefficients and reciprocal lie in q."""
        N1, N2 = self.torus.N1, self.torus.N2
        if N1 % 2 or N2 % 2 or min(N1, N2) < 2 * COARSE_MIN_N:
            return None
        n1, n2 = N1 // 2, N2 // 2
        x, p = self.grids[3], self.grids[4]
        grids = list(x.reshape(4, n1, n2)) + list(p.reshape(4, n1, n2))
        shape = (n1, n2 // 2 + 1)
        size = shape[0] * shape[1]
        flat = self.q.reshape(-1)
        spectra = (flat[:2 * size].view(complex).reshape(shape),
                   flat[2 * size:3 * size].reshape(shape))
        torus = TorusSpec(self.torus.L1, self.torus.L2, n1, n2)
        return _Level(self.prob, torus, grids, spectra)

    def set_shift(self, shift: float) -> None:
        # recip = 1 / ((lam1 + lam2) + shift)
        np.add(self.lam1, self.lam2, out=self.recip)
        self.recip += shift
        np.divide(1.0, self.recip, out=self.recip)

    def transform(self, rhs: np.ndarray) -> None:
        # coeffs = rfft2(rhs) / ((lam1 + lam2) + shift); numpy divides a
        # complex by a real c as the real and imaginary parts times 1/c, so
        # multiplying the two parts in place by recip gives its quotient to
        # the bit, with no complex copy of the denominator
        np.fft.rfft2(rhs, out=self.coeffs)
        np.multiply(self.real, self.recip, out=self.real)
        np.multiply(self.imag, self.recip, out=self.imag)

    def synthesize(self, out: np.ndarray) -> None:
        # out = irfft2(coeffs), by the steps numpy's irfft2 runs
        np.fft.ifft(self.coeffs, axis=0, out=self.coeffs)
        np.fft.irfft(self.coeffs, n=self.torus.N2, axis=1, out=out)

    def precondition(self, rhs: np.ndarray, out: np.ndarray) -> None:
        # out = (-Lap + shift)^-1 rhs
        self.transform(rhs)
        self.synthesize(out)

    def residual_norm(self, v: np.ndarray) -> float:
        # res = Lap(v) - e2*tau*(e^v - 1) - source, with p, q and z as
        # scratch
        res, z = self.res, self.z
        h1, h2 = self.torus.spacing
        _laplacian(v, h1, h2, res, self.p, self.q)
        np.exp(v, out=z)
        np.subtract(z, 1.0, out=z)
        np.multiply(z, self.prob.e2 * self.prob.tau, out=z)
        np.subtract(res, z, out=res)
        np.subtract(res, self.source, out=res)
        np.abs(res, out=z)
        return float(z.max())

    def correction(self, tol: float, levels: list) -> None:
        """Solve to ``tol`` without raising, and leave in coeffs 4*rfft2(u -
        u_lin) for the iterate u reached: the nonlinear correction's
        spectrum, scaled for the irfft2 of the grid twice as fine."""
        u = self.newton(tol, levels)[0]
        z = self.z
        self.set_shift(self.prob.e2 * self.prob.tau)
        self.precondition(self.source, z)
        z += u
        z *= 4.0
        np.fft.rfft2(z, out=self.coeffs)

    def newton(self, tol: float, levels: list) -> tuple:
        """Damped inexact Newton from the initial guess, to residual ``tol``;
        appends (N1, N2, Newton steps, CG steps) to ``levels``.  Returns u,
        its residual, the Newton steps, the CG steps of each, and why
        Newton stopped short as a (reason, message) pair, None once the
        residual is at most tol."""
        prob, torus = self.prob, self.torus
        e2tau = prob.e2 * prob.tau
        _, u, res, x, p, q, z, spare = self.grids
        _source_grid(prob, torus, self.source)
        # initial guess: the constant-coefficient linearization u_lin,
        # (Lap - e2*tau) u_lin = S, plus the half grid's correction
        # prolonged; coeffs holds -rfft2(u_lin) until synthesize
        self.set_shift(e2tau)
        self.transform(self.source)
        coarse = self.coarser()
        if coarse is not None:
            coarse.correction(max(COARSE_TOL, tol), levels)
            _subtract_prolonged(self.coeffs, coarse.coeffs, coarse.torus)
        self.synthesize(u)
        np.negative(u, out=u)
        rnorm = self.residual_norm(u)
        rtol = 1e-3  # the first forcing term
        iterations = 0
        cg_iterations = []
        failure = None

        while rnorm > tol:
            if iterations >= prob.max_iter:
                failure = ("max_iter", "no convergence within %d Newton iterations "
                           "(residual %.3g)" % (prob.max_iter, rnorm))
                break
            # the linearized weight W = e2*tau*e^u, held in spare as W - mean(W)
            np.exp(u, out=spare)
            spare *= e2tau
            shift = float(spare.mean())
            spare -= shift
            self.set_shift(shift)
            # CG overwrites res; the line search needs only rnorm
            steps = _pcg(spare, self.precondition, res, rtol, 0.5 * tol, x, p, q, z)
            cg_iterations.append(steps)

            alpha = 1.0
            while alpha >= MIN_NEWTON_STEP:
                # the trial field u + alpha*x, in spare
                np.multiply(x, alpha, out=spare)
                spare += u
                trial_norm = self.residual_norm(spare)
                if trial_norm < rnorm:
                    break
                if alpha == 1.0:
                    # computed only here, so a solve that never backtracks
                    # runs no extra operation
                    h1, h2 = torus.spacing
                    floor = (ROUND_OFF_FLOOR_FACTOR * np.finfo(float).eps
                             * max(u.max(), -u.min()) * (1.0 / (h1 * h1) + 1.0 / (h2 * h2)))
                    if rnorm <= floor:
                        failure = ("round_off_floor", "residual %.3g is at the round-off "
                                   "floor %.3g, above tol %.3g" % (rnorm, floor, tol))
                        break
                alpha *= 0.5
            else:
                failure = ("line_search", "line search stalled at residual %.3g" % rnorm)
            if failure is not None:
                break
            # the next forcing term, by Eisenstat-Walker choice 2
            rtol = max(1e-12, min(1e-3, 0.9 * (trial_norm / rnorm) ** 2))
            u, spare, rnorm = spare, u, trial_norm
            iterations += 1

        levels.append((torus.N1, torus.N2, iterations, sum(cg_iterations)))
        return u, rnorm, iterations, tuple(cg_iterations), failure


def _subtract_prolonged(coeffs: np.ndarray, coarse: np.ndarray, torus: TorusSpec) -> None:
    """Subtract from the rfft2 coefficients ``coeffs`` the coarse grid's
    ``coarse`` (of ``torus``), zero-padded: every mode below the coarse
    Nyquist frequency on both axes lands on the same wave number, and the
    coarse Nyquist modes are dropped."""
    n1, N1 = torus.N1, coeffs.shape[0]
    rows, negative, cols = (n1 + 1) // 2, (n1 - 1) // 2, (torus.N2 + 1) // 2
    coeffs[:rows, :cols] -= coarse[:rows, :cols]
    coeffs[N1 - negative:, :cols] -= coarse[n1 - negative:, :cols]


def solve(prob: VortexProblem) -> TorusVortexState:
    """Damped Newton iteration on the discretized scalar vortex equation,
    started from the half grid's solution where the grid allows."""
    rep = prob.stability()
    if not rep.stable:
        raise StabilityError(
            "stability violated: tau*e2*Vol - 4*pi*d = %.6g is not above its "
            "round-off slack (critical tau = %.12g)" % (rep.margin, rep.critical_tau),
            rep.critical_tau)
    torus = prob.torus
    h1, h2 = torus.spacing
    cell = h1 * h2
    # the finest level's workspace, described in the module docstring; it
    # is allocated before any coarse work, which runs inside it
    grids = [np.empty((torus.N1, torus.N2)) for _ in range(8)]
    shape = (torus.N1, torus.N2 // 2 + 1)
    spectra = (np.empty(shape, dtype=complex), np.empty(shape))
    levels = []
    u, rnorm, iterations, cg_iterations, failure = \
        _Level(prob, torus, grids, spectra).newton(prob.tol, levels)
    if failure is not None:
        reason, message = failure
        raise NonConvergenceError(message, reason, rnorm, iterations, cg_iterations,
                                  tuple(levels))

    phi2 = np.exp(u, out=grids[6])
    phi2 *= prob.tau
    higgs_l2 = float(phi2.sum() * cell)
    flux = float(prob.e2 / (4.0 * pi) * (np.subtract(prob.tau, phi2, out=grids[4]).sum() * cell))
    return TorusVortexState(
        u=u,
        residual_norm=rnorm,
        iterations=iterations,
        flux=flux,
        higgs_l2=higgs_l2,
        sup_phi2=float(phi2.max()),
        cg_iterations=cg_iterations,
        levels=tuple(levels),
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
        prob = replace(template, torus=torus, zeros=zeros)
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


_CONFIG_KEYS = ("L1", "L2", "N1", "N2", "e2", "tau", "tol", "max_iter")


def parse_config(text: str) -> VortexProblem:
    """Key-value problem description.

    Recognized keys: L1, L2, N1, N2, e2, tau, tol, max_iter, and
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

    torus = TorusSpec(float(values["L1"]), float(values["L2"]), int(values["N1"]),
                      int(values["N2"]))
    e2, tau = float(values["e2"]), float(values["tau"])
    optional = {"tol": float(values["tol"])} if "tol" in values else {}
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
