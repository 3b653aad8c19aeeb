"""Command-line entry point.

One subcommand per module.  Every subcommand prints exactly one strict-JSON
line on stdout, with sorted keys and no nan or infinity; diagnostics go to
stderr.  Exit codes: 0 success, 1 a failed ``verify`` (a criterion that
raises is a failed one), 2 validation error or a ``vortex`` grid too large
to allocate (``MemoryError``), 3 numerical non-convergence.  Exact
rationals are serialized as strings "p/q" so nothing is lost on the wire;
identical inputs to the exact-arithmetic subcommands produce byte-identical
output.

Each subcommand imports the modules it runs, and a request loads no
other: ``embed`` and ``stability`` run on ``moduli_numerics`` alone,
``ring`` loads ``tensor_oracle`` only with ``--oracle``, and only
``vortex`` and the full ``verify`` import the solver, and with it numpy.
The solver's exceptions, ``StabilityError`` (exit 2, with
``critical_tau``) and ``NonConvergenceError`` (exit 3, with ``reason``),
are defined in ``moduli_numerics``, which ``main`` imports to catch them.
Only ``verify`` imports the acceptance suite.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import moduli_numerics
from .moduli_numerics import NonConvergenceError, ParameterError, StabilityError

CONFIG_DIR_ENV = "VORTEXMODULI_CONFIG_DIR"


def _fraction_text(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError("Object of type %s is not JSON serializable" % type(value).__name__)


def _emit(payload: dict) -> None:
    """Print the payload as one JSON line, each Fraction as its string; a
    nan or infinity raises ValueError before any output, since it has no
    strict-JSON form."""
    print(json.dumps(payload, sort_keys=True, allow_nan=False, default=_fraction_text))


# ---------------------------------------------------------------------------
# subcommands


def cmd_ring(args) -> dict:
    from . import symring

    params = symring.RingParams(args.d, args.g)
    cls = symring.parse_class(args.expression, params)
    if args.oracle:
        from . import tensor_oracle as oracle

        integral = oracle.oracle_integrate(oracle.pullback(cls))
    else:
        integral = symring.integrate(cls)
    return {
        "normal_form": symring.format_class(cls),
        "integral": integral,
    }


def cmd_kahler(args) -> dict:
    from . import kahler_class

    degs = kahler_class.curve_degrees(args.d, args.g, args.elldelta)
    cls = kahler_class.fs_coefficients(args.d, args.g, degs)
    out = {
        "C_eta": cls.c_eta,
        "C_sigma": cls.c_sigma,
        "d0": degs.d0,
        "d1": degs.d1,
        "volume": kahler_class.symplectic_volume(cls, args.d, args.g),
    }
    if args.e2 is not None or args.tau is not None or args.vol is not None:
        if None in (args.e2, args.tau, args.vol):
            raise ParameterError("--e2, --tau and --vol must be given together")
        phys = moduli_numerics.PhysicalParams(args.e2, args.tau, args.vol)
        rep = kahler_class.representability(phys, args.d, args.g)
        out.update({
            "q": rep.q,
            "elldelta_theorem": rep.elldelta_theorem,
            "elldelta_ratio": rep.elldelta_ratio,
            "consistent": rep.consistent,
        })
    return out


def cmd_embed(args) -> dict:
    p = moduli_numerics.EmbeddingParams(args.n, args.r, args.d, args.g,
                                        args.ell, args.delta)
    gr = moduli_numerics.grassmann_params(p)
    out = {
        "rr_dim": moduli_numerics.rr_dim(p),
        "total_dim": gr.total_dim,
        "subspace_dim": gr.subspace_dim,
        "gr_dim": gr.gr_dim,
        "plucker_ambient_dim": gr.plucker_ambient_dim,
    }
    try:
        out["moduli_dim"] = moduli_numerics.moduli_dim(args.n, args.r, args.d, args.g)
    except ParameterError:
        out["moduli_dim"] = None
    return out


def cmd_stability(args) -> dict:
    phys = moduli_numerics.PhysicalParams(args.e2, args.tau, args.vol)
    rep = moduli_numerics.stability_check(phys, args.d, args.r)
    return {"stable": rep.stable, "margin": rep.margin,
            "critical_tau": rep.critical_tau}


def cmd_strata(args) -> dict:
    from . import strata

    rows = strata.stratification_report(args.d, args.r)
    return {"d": args.d, "r": args.r, "strata": rows}


def cmd_genus0(args) -> dict:
    from . import genus0

    if args.s is not None and args.family:
        raise ParameterError("give either --s or --family, not both")
    if args.family:
        if args.d is None:
            raise ParameterError("--family needs --d")
        delta = args.delta if args.delta is not None else args.d + 2
        coords = genus0.plucker_sweep(args.family, args.d, delta)
        return {
            "family": args.family,
            "d": args.d,
            "delta": delta,
            "curve_degree": genus0.curve_degree(args.family, args.d, delta),
            "coordinate_t_degrees": [genus0.t_degree(m) for m in coords],
        }
    if not args.s:
        raise ParameterError("give either --s or --family")
    coeffs = [Fraction(tok) for tok in args.s.replace(" ", "").split(",")]
    form = genus0.BinaryForm(len(coeffs) - 1, tuple(coeffs))
    if not form:
        raise ParameterError("the zero form does not define a pair")
    pair = genus0.BinaryFormPair.from_section([form])
    delta = args.delta if args.delta is not None else pair.d + 2
    basis = genus0.embed_pair(pair, delta)
    coords = genus0.plucker(basis)
    rec = genus0.reconstruct(basis, 1, delta)
    return {
        "d": pair.d,
        "delta": delta,
        "subspace_dim": len(basis.basis),
        "basis": basis.basis,
        "plucker": coords,
        "reconstructed": str(rec.fs_matrix[0][0]),
        "smallest_delta": genus0.smallest_working_delta(pair),
    }


def cmd_vortex(args) -> dict:
    from . import taubes_solver

    path = args.config
    if not os.path.exists(path) and not os.path.isabs(path):
        base = os.environ.get(CONFIG_DIR_ENV)
        if base and os.path.exists(os.path.join(base, path)):
            path = os.path.join(base, path)
    with open(path, "r", encoding="utf-8") as fh:
        prob = taubes_solver.parse_config(fh.read())
    state = taubes_solver.solve(prob)
    if args.dump_u:
        taubes_solver.write_field(args.dump_u, state, prob)
    return {
        "residual": state.residual_norm,
        "iterations": state.iterations,
        "flux": state.flux,
        "higgs_l2": state.higgs_l2,
        "sup_phi2": state.sup_phi2,
    }


def cmd_verify(args) -> dict:
    from . import acceptance

    results = acceptance.run_all(fast=args.fast)
    for res in results:
        print(res.line(), file=sys.stderr)
    return {
        "passed": all(r.passed for r in results),
        "criteria": [{"index": r.index, "name": r.name, "passed": r.passed,
                      "detail": r.detail} for r in results],
    }


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexmoduli",
        description="vortex moduli spaces: exact cohomology, embeddings, "
                    "strata, and the vortex equation on a torus")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ring", help="normal form and integral of a ring expression")
    p.add_argument("expression", help="e.g. '2*eta^2 + 1/3*eta*xi[1,3]'")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--oracle", action="store_true",
                   help="integrate through the tensor-power oracle")
    p.set_defaults(func=cmd_ring)

    p = sub.add_parser("kahler", help="curve degrees, Fubini-Study coefficients, volumes")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--elldelta", type=int, required=True)
    p.add_argument("--e2", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--vol", type=float)
    p.set_defaults(func=cmd_kahler)

    p = sub.add_parser("embed", help="Grassmannian embedding dimensions")
    for flag in ("--n", "--r", "--d", "--g", "--ell", "--delta"):
        p.add_argument(flag, type=int, required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("stability", help="stability margin and critical tau")
    p.add_argument("--e2", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--vol", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, default=1)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("strata", help="partition strata of the local moduli space")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("genus0", help="embedding and sweeps on the projective line")
    p.add_argument("--s", help="comma-separated form coefficients, leading x power first")
    p.add_argument("--family", choices=("d0", "d1"))
    p.add_argument("--d", type=int)
    p.add_argument("--delta", type=int)
    p.set_defaults(func=cmd_genus0)

    p = sub.add_parser("vortex", help="solve the vortex equation on a torus")
    p.add_argument("--config", required=True, help="key-value problem file")
    p.add_argument("--dump-u", help="write the scalar field grid to this path")
    p.set_defaults(func=cmd_vortex)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--fast", action="store_true",
                   help="exact-arithmetic checks only (skip the PDE runs)")
    p.set_defaults(func=cmd_verify)
    return parser


# options whose value may start with '-' although it is no plain negative
# number in argparse's sense: a form such as "-1,2,-3", or a float in
# exponent notation such as "-1e-05"
_DASH_VALUE_OPTIONS = {
    "genus0": ("--s",),
    "kahler": ("--e2", "--tau", "--vol"),
    "stability": ("--e2", "--tau", "--vol"),
}


def _dash_argument_guard(argv: list) -> list:
    """argparse reads an argument that starts with '-' as an option unless
    it contains a space or looks like a plain negative number, and
    parse_class, ``genus0 --s`` and float() all ignore surrounding
    whitespace.  So one space goes in front of every single-dash argument
    other than -h after the ``ring`` subcommand (ring's other options are
    all long), and in front of one that follows an option of
    ``_DASH_VALUE_OPTIONS``.  That keeps an expression such as "-5/2*eta"
    positional, a form such as "-1,2,-3" the value of ``--s``, and
    ``--tau -1e-05`` the same as ``--tau=-1e-05``."""
    command = next((i for i, a in enumerate(argv) if not a.startswith("-")), None)
    if command is None:
        return argv
    ring = argv[command] == "ring"
    takes_dash = _DASH_VALUE_OPTIONS.get(argv[command], ())
    if not ring and not takes_dash:
        return argv
    return argv[:command + 1] + [
        " " + a if a.startswith("-") and not a.startswith("--") and a != "-h"
        and (ring or before in takes_dash) else a
        for before, a in zip(argv[command:], argv[command + 1:])]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_dash_argument_guard(
        sys.argv[1:] if argv is None else list(argv)))
    try:
        payload = args.func(args)
        _emit(payload)
    except NonConvergenceError as exc:
        print(json.dumps({"error": str(exc), "reason": exc.reason}), file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, OSError, MemoryError) as exc:
        detail = {"error": str(exc)}
        if isinstance(exc, StabilityError):
            detail["critical_tau"] = exc.critical_tau
        print(json.dumps(detail), file=sys.stderr)
        return 2
    if args.command == "verify" and not payload["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
