"""cli-mix: a seeded sequence of `vortexmoduli` requests, one cold process each.

One pass holds 30 requests, run one after another: twice each of ring (with
and without --oracle), kahler (with and without physics), embed, stability,
strata, genus0 --s, genus0 --family, vortex on a 64^2 and a 128^2 config
with --dump-u, verify --fast, a full verify, a documented validation error
that must exit 2, and a request with a non-finite input (NaN or infinity)
that must also exit 2.  The non-finite requests exit 0 (or 1) on the current
code, so each pass starts with two failed ops until input validation is
fixed.

A request passes when its exit code is the documented one, stdout is valid
JSON (NaN and Infinity rejected) or empty on an error, and stdout, exit code
and any --dump-u file are byte-identical to the same argv run in-process
through vortexmoduli.cli.main.  The in-process run is the check, so it is
not timed; each request's latency is the wall time of its process.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from math import pi
from pathlib import Path

from harness import OK, FAILED, WRONG, Op, NullTracer, Verdict
import exact_ring

from vortexmoduli import acceptance, cli
from vortexmoduli import moduli_numerics as mn

NAME = "cli-mix"
TAIL_PCT = 66          # 30 requests per pass: 10 lie beyond p66
RSS = "children"
GAUGE = None         # no kernel tracks process start-up: wall times stay unscaled
SUBCOMMANDS = ("ring", "kahler", "embed", "stability", "strata", "genus0", "vortex", "verify")
LAYER_METRICS = (
    ("cli.interpreter_s", "cli.import_s", "cli.startup_share", "cli.request_s")
    + tuple("cli.%s_s" % c for c in SUBCOMMANDS)
    + tuple("acceptance.c%02d_s" % i for i in range(1, 11))
)
REQUEST_TIMEOUT_S = 150
SMALL_REQUEST = ["strata", "--d", "3", "--r", "2"]   # the base of cli.startup_share
# `python -m vortexmoduli.cli ARGS`, except that it writes a line to stderr once
# the CLI is imported
_REPORT_IMPORT = ("import sys; import vortexmoduli.cli as cli; "
                  "sys.stderr.write('imported\\n'); sys.stderr.flush(); "
                  "sys.exit(cli.main(sys.argv[1:]))")


@dataclass
class Context:
    root: Path
    tmp: Path
    tracer: object
    env: dict
    reference_cache: dict = field(default_factory=dict)


def setup(root, tracer) -> Context:
    tmp = root / ".perfbench" / ("cli-mix-%d" % os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop(cli.CONFIG_DIR_ENV, None)
    ctx = Context(root, tmp, tracer, env)
    _in_process(ctx, ["strata", "--d", "2", "--r", "1"], NullTracer())
    return ctx


def cleanup(ctx: Context) -> None:
    shutil.rmtree(ctx.tmp, ignore_errors=True)


def make_pass(ctx: Context, seed: int, index: int) -> list:
    rng = random.Random("%s/%d/%d" % (NAME, seed, index))
    ops = []
    for half in (0, 1):
        ops += [_request_op(ctx, label, argv, code)
                for (label, argv, code) in _requests(ctx, rng, "%d-%d-%d" % (seed, index, half))]
    rng.shuffle(ops)
    return ops


def _requests(ctx, rng, tag: str) -> list:
    """One of each request kind: (label, argv, documented exit code)."""
    return [
        ("ring", _ring_argv(rng), 0),
        ("ring_oracle", _ring_argv(rng) + ["--oracle"], 0),
        ("kahler", _kahler_argv(rng, physics=False), 0),
        ("kahler_physics", _kahler_argv(rng, physics=True), 0),
        ("embed", _embed_argv(rng), 0),
        ("stability", _stability_argv(rng), 0),
        ("strata", ["strata", "--d", str(rng.randint(1, 6)), "--r", str(rng.randint(1, 3))], 0),
        ("genus0_s", _genus0_s_argv(rng), 0),
        ("genus0_family", _genus0_family_argv(rng), 0),
        ("vortex_64", _vortex_argv(ctx, rng, 64, "%s-64" % tag), 0),
        ("vortex_128", _vortex_argv(ctx, rng, 128, "%s-128" % tag), 0),
        ("verify_fast", ["verify", "--fast"], 0),
        ("verify", ["verify"], 0),
        ("validation_error", _validation_argv(ctx, rng, tag), 2),
        ("non_finite", _non_finite_argv(ctx, rng, tag), 2),
    ]


def probe(ctx: Context, seed: int) -> list:
    """Three cold starts, each paired with a small request; each subcommand
    in-process once; and every acceptance criterion."""
    rng = random.Random("%s/probe/%d" % (NAME, seed))
    ops = [_startup_op(ctx) for _ in range(3)]
    argvs = [_ring_argv(rng), _kahler_argv(rng, True), _embed_argv(rng), _stability_argv(rng),
             ["strata", "--d", "4", "--r", "2"], _genus0_s_argv(rng),
             _vortex_argv(ctx, rng, 64, "probe"), ["verify", "--fast"]]
    ops += [_in_process_op(ctx, argv) for argv in argvs]
    ops += [_criterion_op(i) for i in range(1, 11)]
    return ops


# ---------------------------------------------------------------------------
# request generation


def _fmt(x: float) -> str:
    return repr(float(x))


def _ring_argv(rng) -> list:
    d, g = rng.randint(2, 4), rng.randint(1, 3)
    even = rng.random() < 0.5
    degree = 2 * rng.randint(1, d) if even else rng.randint(1, 2 * d)
    terms = exact_ring.class_terms(rng, degree, g, even)
    terms[0] = (abs(terms[0][0]), terms[0][1])   # a leading '-' would read as a flag
    return ["ring", exact_ring.format_terms(terms).replace(" ", ""),
            "--d", str(d), "--g", str(g)]


def _kahler_argv(rng, physics: bool) -> list:
    d, g = rng.randint(2, 5), rng.randint(1, 4)
    argv = ["kahler", "--d", str(d), "--g", str(g),
            "--elldelta", str(rng.randint(d + g - 1, 12))]
    if physics:
        e2 = rng.choice((1.0, 2.5))
        vol = 4 * pi * (d + rng.randint(1, 3))
        q = rng.choice((d, d + 1))
        argv += ["--e2", _fmt(e2), "--tau", _fmt(4 * pi * q / (e2 * vol)), "--vol", _fmt(vol)]
    return argv


def _embed_argv(rng) -> list:
    while True:
        n = rng.randint(1, 3)
        vals = (n, rng.randint(1, n), rng.randint(0, 6), rng.randint(0, 3),
                rng.randint(1, 2), rng.randint(1, 6))
        try:
            mn.grassmann_params(mn.EmbeddingParams(*vals))
        except mn.ParameterError:
            continue
        flags = ("--n", "--r", "--d", "--g", "--ell", "--delta")
        return ["embed"] + [x for pair in zip(flags, map(str, vals)) for x in pair]


def _stability_argv(rng) -> list:
    d = rng.randint(1, 4)
    return ["stability", "--e2", _fmt(rng.choice((0.5, 1.0, 2.0))),
            "--tau", _fmt(rng.uniform(0.2, 2.0)), "--vol", _fmt(4 * pi * rng.randint(1, 8)),
            "--d", str(d)]


def _genus0_s_argv(rng) -> list:
    coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 5))]
    coeffs[0] = coeffs[0] or 1
    return ["genus0", "--s=" + ",".join(map(str, coeffs))]   # may start with '-' 


def _genus0_family_argv(rng) -> list:
    d = rng.randint(2, 3)
    return ["genus0", "--family", rng.choice(("d0", "d1")), "--d", str(d),
            "--delta", str(rng.randint(d + 1, d + 3))]


def _write_config(ctx, name: str, n: int, side: float, e2: str, tau: str, zeros) -> Path:
    path = ctx.tmp / ("%s.cfg" % name)
    lines = ["L1 = %r" % side, "L2 = %r" % side, "N1 = %d" % n, "N2 = %d" % n,
             "e2 = %s" % e2, "tau = %s" % tau]
    lines += ["zero = %r %r" % (x, y) for (x, y) in zeros]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _vortex_argv(ctx, rng, n: int, name: str) -> list:
    d = rng.randint(1, 2)
    side = (4 * pi * (d + 1)) ** 0.5
    zeros = [(side * (0.2 + 0.5 * k) + rng.uniform(-0.5, 0.5), rng.uniform(0, side))
             for k in range(d)]
    path = _write_config(ctx, name, n, side, "1.0", "1.0", zeros)
    return ["vortex", "--config", str(path), "--dump-u", str(ctx.tmp / ("%s.u" % name))]


def _validation_argv(ctx, rng, tag: str) -> list:
    """Documented validation errors (exit 2) on finite inputs."""
    choices = [
        ["ring", "eta^x", "--d", "2", "--g", "1"],
        ["ring", "xi[9]", "--d", "2", "--g", "1"],
        ["genus0"],
        ["genus0", "--family", "d1", "--d", "1"],
        ["embed", "--n", "1", "--r", "2", "--d", "2", "--g", "1", "--ell", "1", "--delta", "3"],
        ["stability", "--e2", "1", "--tau", "1", "--vol", "30", "--d", "2", "--r", "0"],
        ["strata", "--d", "2"],
        ["vortex", "--config", str(ctx.tmp / ("missing-%s.cfg" % tag))],
    ]
    return rng.choice(choices)


def _non_finite_argv(ctx, rng, tag: str) -> list:
    """Non-finite physical inputs, which the CLI documents as validation
    errors (exit 2)."""
    bad = rng.choice(("nan", "inf"))
    which = rng.randrange(4)
    if which == 0:
        return ["stability", "--e2", bad if bad == "nan" else "1.0",
                "--tau", "inf" if bad == "inf" else "1.0", "--vol", "30.0", "--d", "2"]
    if which == 1:
        return ["stability", "--e2", "1.0", "--tau", bad, "--vol", "30.0", "--d", "2"]
    if which == 2:
        return ["kahler", "--d", "3", "--g", "2", "--elldelta", "7",
                "--e2", "1.0", "--tau", "1.0", "--vol", "inf"]
    name = "nonfinite-%s" % tag
    side = (8 * pi) ** 0.5
    e2, tau = ("nan", "1.0") if bad == "nan" else ("1.0", "inf")
    path = _write_config(ctx, name, 64, side, e2, tau, [(side / 2, side / 2)])
    return ["vortex", "--config", str(path), "--dump-u", str(ctx.tmp / ("%s.u" % name))]


# ---------------------------------------------------------------------------
# ops


def _run_request(ctx, argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "vortexmoduli.cli", *argv],
                          cwd=ctx.root, env=ctx.env, capture_output=True,
                          timeout=REQUEST_TIMEOUT_S, check=False)


def _swap_dump(argv, suffix: str) -> list:
    out = list(argv)
    if "--dump-u" in out:
        i = out.index("--dump-u") + 1
        out[i] = out[i] + suffix
    return out


def _in_process(ctx, argv, tracer) -> tuple:
    """(exit code, stdout bytes) of cli.main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with tracer.span("cli." + argv[0]), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue().encode("utf-8")


def _reference(ctx, argv) -> tuple:
    key = tuple(argv)
    if "--dump-u" in argv:
        return _in_process(ctx, _swap_dump(argv, ".ref"), ctx.tracer)
    if key not in ctx.reference_cache:
        ctx.reference_cache[key] = _in_process(ctx, argv, ctx.tracer)
    return ctx.reference_cache[key]


def _strict_json(text: bytes):
    def reject(token):
        raise ValueError("non-finite number %s" % token)
    return json.loads(text, parse_constant=reject)


def _request_op(ctx, label: str, argv, expected_code: int) -> Op:
    def call(tr):
        return _run_request(ctx, argv)

    def check(proc):
        where = " ".join(argv[:2])
        if proc.returncode != expected_code:
            return Verdict(FAILED, "%s: exit %d, documented %d; stderr %r" % (
                where, proc.returncode, expected_code, proc.stderr[-200:]))
        if proc.stdout:
            try:
                _strict_json(proc.stdout)
            except ValueError as exc:
                return Verdict(WRONG, "%s: stdout is not valid JSON (%s)" % (where, exc))
        elif expected_code == 0:
            return Verdict(WRONG, "%s: empty stdout" % where)
        code, stdout = _reference(ctx, argv)
        if (code, stdout) != (proc.returncode, proc.stdout):
            return Verdict(WRONG, "%s: differs from the in-process run (exit %r)" % (where, code))
        if "--dump-u" in argv and expected_code == 0:
            dump = argv[argv.index("--dump-u") + 1]
            if Path(dump).read_bytes() != Path(dump + ".ref").read_bytes():
                return Verdict(WRONG, "%s: --dump-u file differs from in-process" % where)
        return Verdict(OK)

    return Op("request." + label, (tuple(argv), expected_code), call, check)


def _startup_op(ctx) -> Op:
    """A bare interpreter, then a small request whose process reports when it
    has imported the CLI: the start-up share of that request is the time to
    the report over the time to exit, both in one process."""
    def call(tr):
        with tr.span("cli.interpreter"):
            subprocess.run([sys.executable, "-c", "pass"], cwd=ctx.root, env=ctx.env,
                           check=True, timeout=REQUEST_TIMEOUT_S)
        with tr.span("cli.small_request"):
            with tr.span("cli.interpreter_import"):
                proc = subprocess.Popen(
                    [sys.executable, "-c", _REPORT_IMPORT, *SMALL_REQUEST], cwd=ctx.root,
                    env=ctx.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                proc.stderr.readline()
            try:
                stdout, _ = proc.communicate(timeout=REQUEST_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        return proc.returncode, stdout

    def check(result):
        code, stdout = result
        if code != 0:
            return Verdict(FAILED, "%s: exit %d" % (" ".join(SMALL_REQUEST), code))
        if (code, stdout) != _reference(ctx, SMALL_REQUEST):
            return Verdict(WRONG, "%s: differs from the in-process run (exit %r)" % (
                " ".join(SMALL_REQUEST), code))
        return Verdict(OK)

    return Op("probe.startup", (), call, check)


def _in_process_op(ctx, argv) -> Op:
    def call(tr):
        return _in_process(ctx, argv, tr)

    def check(result):
        code, stdout = result
        if code != 0:
            return Verdict(FAILED, "%s exited %r in-process" % (argv[0], code))
        try:
            _strict_json(stdout)
        except ValueError as exc:
            return Verdict(WRONG, "%s: stdout is not valid JSON (%s)" % (argv[0], exc))
        return Verdict(OK)

    return Op("probe.in_process", tuple(argv), call, check)


def _criterion_op(index: int) -> Op:
    def call(tr):
        with tr.span("acceptance.c%02d" % index):
            return acceptance.run_criterion(index)

    def check(res):
        return Verdict(OK) if res.passed else Verdict(WRONG, res.line())

    return Op("probe.acceptance", index, call, check)
