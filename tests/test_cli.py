import json
import os
import subprocess
import sys
from math import pi, sqrt

import pytest

from vortexmoduli import kahler_class
from vortexmoduli.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ring_subcommand(capsys):
    code, out, _ = run_cli(capsys, "ring", "eta^1*eta^1", "--d", "2", "--g", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"integral": "1", "normal_form": "eta^2"}


def test_ring_oracle_agrees(capsys):
    expr = "2*eta^2 - 1/3*sigma*eta"
    code, out, _ = run_cli(capsys, "ring", expr, "--d", "2", "--g", "2")
    code2, out2, _ = run_cli(capsys, "ring", expr, "--d", "2", "--g", "2", "--oracle")
    assert code == code2 == 0
    assert json.loads(out)["integral"] == json.loads(out2)["integral"]


@pytest.mark.parametrize("expr,d,g,normal_form", [
    ("-5/2*eta", "2", "1", "-5/2*eta"),
    ("-eta^2+sigma", "2", "2", "xi[1,3] + xi[2,4] - eta^2"),
])
def test_ring_accepts_leading_minus(capsys, expr, d, g, normal_form):
    # the expression before the options, as documented, reads the same as
    # the "--"-separated form
    code, out, err = run_cli(capsys, "ring", expr, "--d", d, "--g", g)
    code2, out2, _ = run_cli(capsys, "ring", "--d", d, "--g", g, "--", expr)
    assert (code, err) == (0, "")
    assert code2 == 0
    assert out == out2
    assert json.loads(out)["normal_form"] == normal_form


@pytest.mark.parametrize("form", ["-1,2,-3", "-1/2,0,1", "-1"])
def test_genus0_accepts_leading_minus(capsys, form):
    # "--s X" reads the same as "--s=X" when X starts with a minus sign
    code, out, err = run_cli(capsys, "genus0", "--s", form, "--delta", "4")
    code2, out2, _ = run_cli(capsys, "genus0", "--s=" + form, "--delta", "4")
    assert (code, err) == (0, "")
    assert code2 == 0
    assert out == out2


@pytest.mark.parametrize("argv,option,value,want", [
    (("kahler", "--d", "2", "--g", "2", "--elldelta", "5", "--e2", "1", "--vol", "30"),
     "--tau", "-1e-05", 0),
    (("kahler", "--d", "2", "--g", "2", "--elldelta", "5", "--tau", "1", "--vol", "30"),
     "--e2", "-2.5E+3", 2),
    (("stability", "--e2", "1", "--vol", "30", "--d", "1"), "--tau", "-1e-05", 0),
    (("stability", "--e2", "1", "--tau", "1", "--d", "1"), "--vol", "-3e1", 2),
], ids=["kahler-tau", "kahler-e2", "stability-tau", "stability-vol"])
def test_float_options_accept_negative_exponent_notation(capsys, argv, option, value, want):
    # "--tau -1e-05" reads the same as "--tau=-1e-05", although argparse
    # takes only plain negative numbers such as -0.5 as option values
    code, out, err = run_cli(capsys, *argv, option, value)
    assert (code, out, err) == run_cli(capsys, *argv, option + "=" + value)
    assert code == want
    if want:
        assert "positive" in json.loads(err)["error"]
    else:
        assert json.loads(out)


def _fresh_python(code, *args):
    """Run ``code`` in a new interpreter, which has loaded nothing the test
    process has; pytest itself may have imported numpy."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_import_does_not_load_scipy():
    out = _fresh_python(
        "import sys, vortexmoduli.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))").stdout
    assert out == "[]\n"


@pytest.mark.parametrize("module", [
    "vortexmoduli", "vortexmoduli.cli",
    # the solver's exceptions are defined in moduli_numerics, which needs no numpy
    pytest.param("vortexmoduli; vortexmoduli.StabilityError, vortexmoduli.NonConvergenceError",
                 id="solver-exceptions"),
])
def test_import_does_not_load_numpy(module):
    proc = _fresh_python("import sys, %s; print('numpy' in sys.modules)" % module)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_only_verify_loads_the_acceptance_suite():
    probe = ("import sys, vortexmoduli.cli as cli\n"
             "seen = ['vortexmoduli.acceptance' in sys.modules]\n"
             "cli.main(['strata', '--d', '3', '--r', '2'])\n"
             "seen.append('vortexmoduli.acceptance' in sys.modules)\n"
             "cli.main(['verify', '--fast'])\n"
             "seen.append('vortexmoduli.acceptance' in sys.modules)\n"
             "print(seen)")
    proc = _fresh_python(probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[False, False, True]"


def test_byte_identical_output(capsys):
    args = ("kahler", "--d", "3", "--g", "2", "--elldelta", "7")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


GOLDEN_GENUS0 = [
    (("genus0", "--family", "d0", "--d", "2", "--delta", "3"),
     '{"coordinate_t_degrees": [0, 1, 2, 2, 3, 4], "curve_degree": 4, "d": 2, '
     '"delta": 3, "family": "d0"}\n'),
    (("genus0", "--family", "d1", "--d", "3", "--delta", "5"),
     '{"coordinate_t_degrees": [0, 1, 2, 2, 2, 3, 3, 4, 4, 4, 3, 4, 4, 5, 5, 5, '
     '6, 6, 6, 6], "curve_degree": 6, "d": 3, "delta": 5, "family": "d1"}\n'),
    (("genus0", "--s", "1,0,-1"),
     '{"basis": [["1", "0", "0", "0", "-1"], ["0", "1", "0", "-1", "0"], '
     '["0", "0", "1", "0", "-1"]], "d": 2, "delta": 4, "plucker": ["1", "0", '
     '"-1", "1", "0", "1", "0", "-1", "0", "-1"], "reconstructed": "x^2 + -y^2", '
     '"smallest_delta": 2, "subspace_dim": 3}\n'),
    # forms divisible by a power of y, of x, and by both
    (("genus0", "--s", "0,0,1"),
     '{"basis": [["0", "0", "1", "0", "0"], ["0", "0", "0", "1", "0"], '
     '["0", "0", "0", "0", "1"]], "d": 2, "delta": 4, "plucker": ["0", "0", '
     '"0", "0", "0", "0", "0", "0", "0", "1"], "reconstructed": "y^2", '
     '"smallest_delta": 2, "subspace_dim": 3}\n'),
    (("genus0", "--s", "1,0,0"),
     '{"basis": [["1", "0", "0", "0", "0"], ["0", "1", "0", "0", "0"], '
     '["0", "0", "1", "0", "0"]], "d": 2, "delta": 4, "plucker": ["1", "0", '
     '"0", "0", "0", "0", "0", "0", "0", "0"], "reconstructed": "x^2", '
     '"smallest_delta": 2, "subspace_dim": 3}\n'),
    (("genus0", "--s", "0,1,-1,0"),
     '{"basis": [["0", "1", "0", "0", "-1", "0"], ["0", "0", "1", "0", "-1", "0"], '
     '["0", "0", "0", "1", "-1", "0"]], "d": 3, "delta": 5, "plucker": ["0", "0", '
     '"0", "0", "0", "0", "0", "0", "0", "0", "1", "-1", "0", "1", "0", "0", "-1", '
     '"0", "0", "0"], "reconstructed": "x^2*y + -x*y^2", "smallest_delta": 3, '
     '"subspace_dim": 3}\n'),
    # a constant form prints as its coefficient
    (("genus0", "--s", "1"),
     '{"basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], "d": 0, '
     '"delta": 2, "plucker": ["1"], "reconstructed": "1", "smallest_delta": 1, '
     '"subspace_dim": 3}\n'),
    (("genus0", "--family", "d1", "--d", "4", "--delta", "7"),
     '{"coordinate_t_degrees": [0, 1, 2, 3, 3, 2, 3, 4, 4, 4, 5, 5, 6, 6, 6, 3, 4, '
     '5, 5, 5, 6, 6, 7, 7, 7, 6, 7, 7, 8, 8, 8, 9, 9, 9, 9, 4, 5, 6, 6, 6, 7, 7, 8, '
     '8, 8, 7, 8, 8, 9, 9, 9, 10, 10, 10, 10, 8, 9, 9, 10, 10, 10, 11, 11, 11, 11, '
     '12, 12, 12, 12, 12], "curve_degree": 12, "d": 4, "delta": 7, "family": "d1"}\n'),
]


@pytest.mark.parametrize("argv,expected", GOLDEN_GENUS0,
                         ids=["d0-2-3", "d1-3-5", "s-1,0,-1", "s-0,0,1", "s-1,0,0",
                              "s-0,1,-1,0", "s-1", "d1-4-7"])
def test_genus0_golden_output(capsys, argv, expected):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected


# normal forms that keep lone xi factors next to complete pairs, with
# fractional coefficients, at g = 4..6, and one large-genus volume
GOLDEN_RING = [
    (("ring", "1/2*eta*xi[1,5,2] - 3/4*sigma*xi[3]", "--d", "5", "--g", "4"),
     '{"integral": "0", "normal_form": "3/4*xi[1,3,5] + 3/4*xi[2,3,6]'
     ' - 3/4*xi[3,4,8] - 1/2*eta*xi[1,2,5]"}\n'),
    (("ring", "1/2*sigma^3*xi[4] - 2/3*eta*xi[1,5,2,6,8]", "--d", "5", "--g", "4"),
     '{"integral": "0", "normal_form": "-3*eta^2*xi[1,4,5]'
     ' - 2/3*eta^2*xi[1,5,8] - 3*eta^2*xi[2,4,6] - 2/3*eta^2*xi[2,6,8]'
     ' - 3*eta^2*xi[3,4,7] - 6*eta^3*xi[4] + 2/3*eta^3*xi[8]"}\n'),
    (("ring", "1/6*xi[1,5,2,6,3,7,4] - 3/2*eta^2*sigma^2*xi[3]", "--d", "6", "--g", "4"),
     '{"integral": "0", "normal_form": "-1/6*eta*xi[1,2,4,5,6]'
     ' - 1/6*eta*xi[1,3,4,5,7] - 1/6*eta*xi[2,3,4,6,7] + 1/6*eta^2*xi[1,4,5]'
     ' + 1/6*eta^2*xi[2,4,6] + 1/6*eta^2*xi[3,4,7] + 1/6*eta^3*xi[4]'
     ' + 6*eta^3*xi[1,3,5] + 6*eta^3*xi[2,3,6] - 6*eta^3*xi[3,4,8]'
     ' + 9*eta^4*xi[3]"}\n'),
    (("ring", "3/7*eta*sigma^3*xi[5] + 5/4*sigma^2*xi[1,6]", "--d", "6", "--g", "5"),
     '{"integral": "0", "normal_form": "-5/2*xi[1,2,3,6,7,8]'
     ' - 5/2*xi[1,2,4,6,7,9] - 5/2*xi[1,2,5,6,7,10] - 5/2*xi[1,3,4,6,8,9]'
     ' - 5/2*xi[1,3,5,6,8,10] - 5/2*xi[1,4,5,6,9,10] - 54/7*eta^3*xi[1,5,6]'
     ' - 54/7*eta^3*xi[2,5,7] - 54/7*eta^3*xi[3,5,8] - 54/7*eta^3*xi[4,5,9]'
     ' - 144/7*eta^4*xi[5]"}\n'),
    (("ring", "5/8*eta*sigma^3*xi[2,9] - 7/3*sigma*xi[1,6,3]", "--d", "7", "--g", "5"),
     '{"integral": "0", "normal_form": "7/3*xi[1,2,3,6,7] - 7/3*xi[1,3,4,6,9]'
     ' - 7/3*xi[1,3,5,6,10] - 15/4*eta^3*xi[1,2,6,9] + 15/4*eta^3*xi[2,3,8,9]'
     ' - 15/4*eta^3*xi[2,5,9,10] - 15/2*eta^4*xi[2,9]"}\n'),
    (("ring", "-2/5*sigma^4*xi[6,7] + 1/3*eta^2*sigma^2*xi[12]", "--d", "7", "--g", "6"),
     '{"integral": "0", "normal_form": "-2/3*eta^2*xi[1,2,7,8,12]'
     ' - 2/3*eta^2*xi[1,3,7,9,12] - 2/3*eta^2*xi[1,4,7,10,12]'
     ' - 2/3*eta^2*xi[1,5,7,11,12] - 2/3*eta^2*xi[2,3,8,9,12]'
     ' - 2/3*eta^2*xi[2,4,8,10,12] - 2/3*eta^2*xi[2,5,8,11,12]'
     ' - 2/3*eta^2*xi[3,4,9,10,12] - 2/3*eta^2*xi[3,5,9,11,12]'
     ' - 2/3*eta^2*xi[4,5,10,11,12] - 48/5*eta^3*xi[2,6,7,8]'
     ' - 48/5*eta^3*xi[3,6,7,9] - 48/5*eta^3*xi[4,6,7,10]'
     ' - 48/5*eta^3*xi[5,6,7,11] + 144/5*eta^4*xi[6,7]"}\n'),
    (("ring", "-3/4*sigma^4*xi[1] + 2/9*eta^3*sigma*xi[1,7,8]", "--d", "7", "--g", "6"),
     '{"integral": "0", "normal_form": "54*eta^2*xi[1,2,3,8,9]'
     ' + 54*eta^2*xi[1,2,4,8,10] + 54*eta^2*xi[1,2,5,8,11]'
     ' + 54*eta^2*xi[1,2,6,8,12] + 54*eta^2*xi[1,3,4,9,10]'
     ' + 54*eta^2*xi[1,3,5,9,11] + 54*eta^2*xi[1,3,6,9,12]'
     ' + 54*eta^2*xi[1,4,5,10,11] + 54*eta^2*xi[1,4,6,10,12]'
     ' + 54*eta^2*xi[1,5,6,11,12] + 144*eta^3*xi[1,2,8] + 144*eta^3*xi[1,3,9]'
     ' + 144*eta^3*xi[1,4,10] + 144*eta^3*xi[1,5,11] + 144*eta^3*xi[1,6,12]'
     ' - 270*eta^4*xi[1] + 8/9*eta^4*xi[1,7,8] - 2/9*eta^4*xi[3,8,9]'
     ' - 2/9*eta^4*xi[4,8,10] - 2/9*eta^4*xi[5,8,11] - 2/9*eta^4*xi[6,8,12]'
     ' - 8/9*eta^5*xi[8]"}\n'),
    (("kahler", "--d", "9", "--g", "6", "--elldelta", "20"),
     '{"C_eta": "6", "C_sigma": "1", "d0": 540, "d1": 432, "volume": "26172/7"}\n'),
]


@pytest.mark.parametrize("argv,expected", GOLDEN_RING,
                         ids=["ring-%d" % i for i in range(7)] + ["kahler-9-6-20"])
def test_ring_golden_output(capsys, argv, expected):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected


def test_ring_huge_power_of_nilpotent_class(capsys):
    # eta^3 = 0 at d = 2, so the power stops after a few products
    code, out, _ = run_cli(capsys, "ring", "eta^1000000000", "--d", "2", "--g", "1")
    assert code == 0
    assert json.loads(out) == {"integral": "0", "normal_form": "0"}


def test_kahler_subcommand(capsys):
    code, out, _ = run_cli(capsys, "kahler", "--d", "2", "--g", "2",
                           "--elldelta", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["C_eta"] == "2"
    assert payload["C_sigma"] == "1"
    assert payload["d0"] == 12 and payload["d1"] == 4


def test_kahler_with_physics(capsys):
    vol = 4 * pi * 3
    code, out, _ = run_cli(capsys, "kahler", "--d", "2", "--g", "2",
                           "--elldelta", "3",
                           "--e2", "1.0", "--tau", str(8 * pi / vol),
                           "--vol", str(vol))
    assert code == 0
    payload = json.loads(out)
    assert payload["consistent"] is True
    assert payload["elldelta_theorem"] == 3
    assert payload["elldelta_ratio"] == "3"


def test_kahler_claims_no_integer_past_float_precision(capsys):
    # at q = 1e16 the rounding error of q exceeds 1, so no ell*delta follows
    code, out, _ = run_cli(capsys, "kahler", "--d", "2", "--g", "2", "--elldelta", "5",
                           "--e2", "1", "--tau", "1e16", "--vol", repr(4 * pi))
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == 1e16
    assert payload["elldelta_theorem"] is None and payload["elldelta_ratio"] is None


def test_embed_and_stability(capsys):
    code, out, _ = run_cli(capsys, "embed", "--n", "1", "--r", "1", "--d", "2",
                           "--g", "2", "--ell", "1", "--delta", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["subspace_dim"] == payload["rr_dim"] == 2
    assert payload["plucker_ambient_dim"] == 5
    code, out, _ = run_cli(capsys, "stability", "--e2", "1", "--tau", "1",
                           "--vol", str(4 * pi * 3), "--d", "2")
    assert code == 0
    assert json.loads(out)["stable"] is True


def test_stability_rank(capsys):
    argv = ("stability", "--e2", "1", "--tau", "1", "--vol", str(6 * pi), "--d", "2")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv, "--r", "2")
    one, two = json.loads(out1), json.loads(out2)
    assert not one["stable"] and two["stable"]
    assert one["critical_tau"] == pytest.approx(4.0 / 3.0)
    assert two["critical_tau"] == pytest.approx(2.0 / 3.0)
    assert two["margin"] == pytest.approx(4 * pi)


def test_strata_subcommand(capsys):
    code, out, _ = run_cli(capsys, "strata", "--d", "2", "--r", "2")
    assert code == 0
    rows = json.loads(out)["strata"]
    assert [r["dim"] for r in rows] == [3, 4]


def test_genus0_subcommand(capsys):
    code, out, _ = run_cli(capsys, "genus0", "--family", "d0", "--d", "2",
                           "--delta", "3")
    assert code == 0
    assert json.loads(out)["curve_degree"] == 4
    # delta defaults to d + 2
    code, out, _ = run_cli(capsys, "genus0", "--family", "d1", "--d", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["delta"] == 5 and payload["curve_degree"] == 6
    code, out, _ = run_cli(capsys, "genus0", "--s", "1,0,-1")
    assert code == 0
    payload = json.loads(out)
    assert payload["subspace_dim"] == 3
    assert payload["smallest_delta"] == 2
    code, _, _ = run_cli(capsys, "genus0", "--family", "d0")
    assert code == 2  # missing --d
    code, _, _ = run_cli(capsys, "genus0")
    assert code == 2  # neither mode selected


def test_genus0_refuses_both_modes(capsys):
    # --s used to be ignored beside --family, printing the sweep alone
    code, out, err = run_cli(capsys, "genus0", "--s", "0,0,1", "--family", "d0",
                             "--d", "2")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "give either --s or --family, not both"}


def test_genus0_working_twist_above_64(capsys):
    # x^65 - y^65: the least working twist is its degree, however large
    s = ",".join(["1"] + ["0"] * 64 + ["-1"])
    code, out, err = run_cli(capsys, "genus0", "--s", s)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["smallest_delta"] == 65
    assert payload["reconstructed"] == "x^65 + -y^65"


def test_validation_exit_code(capsys):
    code, _, err = run_cli(capsys, "embed", "--n", "1", "--r", "1", "--d", "9",
                           "--g", "2", "--ell", "1", "--delta", "2")
    assert code == 2
    assert "error" in json.loads(err)
    code, _, _ = run_cli(capsys, "ring", "bogus", "--d", "2", "--g", "1")
    assert code == 2


@pytest.mark.parametrize("expr", ["eta+", "eta--eta", "eta^2 - ", "-"])
def test_ring_dangling_sign_exits_2(capsys, expr):
    # a sign with no term after it is an error, not a term silently dropped
    code, out, err = run_cli(capsys, "ring", expr, "--d", "2", "--g", "2")
    assert (code, out) == (2, "")
    assert "dangling sign" in json.loads(err)["error"]


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["strata", "--bogus", "1"])
    assert err.value.code == 2


@pytest.mark.parametrize("flag", ["--text", "--json"])
@pytest.mark.parametrize("argv", [
    ("strata", "--d", "2", "--r", "2"),
    ("ring", "eta^2", "--d", "2", "--g", "1"),
], ids=["strata", "ring"])
def test_output_format_flags_are_rejected(capsys, flag, argv):
    # stdout is JSON whatever the options, so there is no format to choose,
    # on either side of the subcommand
    for full in ((flag,) + argv, argv + (flag,)):
        with pytest.raises(SystemExit) as err:
            main(list(full))
        assert err.value.code == 2
        assert capsys.readouterr().out == ""


def test_vortex_subcommand(tmp_path, capsys):
    side = sqrt(4 * pi * 2)
    cfg = tmp_path / "prob.cfg"
    cfg.write_text(
        "L1 = %r\nL2 = %r\nN1 = 64\nN2 = 64\ne2 = 1.0\ntau = 1.0\n"
        "tol = 1e-10\nzero = %r %r 1\n" % (side, side, side / 2, side / 2))
    dump = tmp_path / "u.grid"
    code, out, _ = run_cli(capsys, "vortex", "--config", str(cfg),
                           "--dump-u", str(dump))
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"residual", "iterations", "flux", "higgs_l2", "sup_phi2"}
    assert payload["flux"] == pytest.approx(1.0, abs=1e-8)
    assert dump.exists()


def test_vortex_stability_exit(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("L1 = 2\nL2 = 2\nN1 = 32\nN2 = 32\ne2 = 1\ntau = 1\n"
                   "zero = 1 1 1\n")
    code, _, err = run_cli(capsys, "vortex", "--config", str(cfg))
    assert code == 2
    assert json.loads(err)["critical_tau"] == pytest.approx(pi)


def test_vortex_config_dir_env(tmp_path, capsys, monkeypatch):
    side = sqrt(4 * pi * 2)
    cfg = tmp_path / "prob.cfg"
    cfg.write_text(
        "L1 = %r\nL2 = %r\nN1 = 64\nN2 = 64\ne2 = 1.0\ntau = 1.0\n"
        "zero = %r %r 1\n" % (side, side, side / 2, side / 2))
    monkeypatch.setenv("VORTEXMODULI_CONFIG_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path / "..")
    code, out, _ = run_cli(capsys, "vortex", "--config", "prob.cfg")
    assert code == 0
    assert json.loads(out)["iterations"] >= 1


def _vortex_config(tmp_path, **overrides):
    side = sqrt(4 * pi * 2)
    values = {"L1": repr(side), "L2": repr(side), "N1": "64", "N2": "64",
              "e2": "1.0", "tau": "1.0"}
    values.update(overrides)
    cfg = tmp_path / "prob.cfg"
    cfg.write_text("".join("%s = %s\n" % kv for kv in values.items())
                   + "zero = %r %r 1\n" % (side / 2, side / 2))
    return str(cfg)


# the last stdout line of the probe says whether the request loaded numpy
_NUMPY_PROBE = ("import sys\n"
                "from vortexmoduli.cli import main\n"
                "code = main(sys.argv[1:])\n"
                "print('numpy' in sys.modules)\n"
                "sys.exit(code)\n")


def _reject_constant(name):
    raise ValueError("%s is not JSON" % name)


@pytest.mark.parametrize("argv", [
    ("ring", "2*eta^2 - 1/3*sigma*eta", "--d", "2", "--g", "2"),
    ("kahler", "--d", "3", "--g", "2", "--elldelta", "7"),
    ("kahler", "--d", "2", "--g", "2", "--elldelta", "3",
     "--e2", "1.0", "--tau", repr(2 / 3), "--vol", repr(12 * pi)),
    ("embed", "--n", "1", "--r", "1", "--d", "2", "--g", "2", "--ell", "1",
     "--delta", "5"),
    ("stability", "--e2", "1", "--tau", "1", "--vol", "30", "--d", "2"),
    ("strata", "--d", "3", "--r", "2"),
    ("genus0", "--s", "1,0,-1"),
    ("genus0", "--family", "d1", "--d", "3", "--delta", "5"),
    ("vortex",),
    ("verify", "--fast"),
], ids=["ring", "kahler", "kahler-physics", "embed", "stability", "strata",
        "genus0-s", "genus0-family", "vortex", "verify-fast"])
def test_stdout_is_one_strict_json_line(tmp_path, capsys, argv):
    if argv == ("vortex",):
        argv += ("--config", _vortex_config(tmp_path))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.count("\n") == 1 and out.endswith("\n")
    assert isinstance(json.loads(out, parse_constant=_reject_constant), dict)


@pytest.mark.parametrize("argv,loads_numpy", [
    (("ring", "2*eta^2 - 1/3*sigma*eta", "--d", "2", "--g", "2"), False),
    (("kahler", "--d", "2", "--g", "2", "--elldelta", "3",
      "--e2", "1.0", "--tau", repr(2 / 3), "--vol", repr(12 * pi)), False),
    (("embed", "--n", "1", "--r", "1", "--d", "2", "--g", "2", "--ell", "1",
      "--delta", "5"), False),
    (("stability", "--e2", "1", "--tau", "1", "--vol", "30", "--d", "2"), False),
    (("strata", "--d", "3", "--r", "2"), False),
    (("genus0", "--s", "1,0,-1"), False),
    (("genus0", "--family", "d1", "--d", "3", "--delta", "5"), False),
    (("verify", "--fast"), False),
    (("vortex",), True),
    (("verify",), True),
], ids=["ring", "kahler-physics", "embed", "stability", "strata", "genus0-s",
        "genus0-family", "verify-fast", "vortex", "verify"])
def test_only_the_solver_loads_numpy(tmp_path, argv, loads_numpy):
    if argv == ("vortex",):
        argv += ("--config", _vortex_config(tmp_path))
    proc = _fresh_python(_NUMPY_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(loads_numpy)


# the last stdout line of the probe names the package modules the request loaded
_MODULES_PROBE = ("import sys\n"
                  "from vortexmoduli.cli import main\n"
                  "code = main(sys.argv[1:])\n"
                  "print(' '.join(sorted(m.split('.', 1)[1] for m in sys.modules\n"
                  "                      if m.startswith('vortexmoduli.'))))\n"
                  "sys.exit(code)\n")


@pytest.mark.parametrize("argv,modules", [
    (("strata", "--d", "3", "--r", "2"), "cli moduli_numerics strata"),
    (("embed", "--n", "1", "--r", "1", "--d", "2", "--g", "2", "--ell", "1",
      "--delta", "5"), "cli moduli_numerics"),
    (("stability", "--e2", "1", "--tau", "1", "--vol", "30", "--d", "2"),
     "cli moduli_numerics"),
    (("ring", "2*eta^2 - 1/3*sigma*eta", "--d", "2", "--g", "2"),
     "cli moduli_numerics symring"),
    (("ring", "2*eta^2 - 1/3*sigma*eta", "--d", "2", "--g", "2", "--oracle"),
     "cli moduli_numerics symring tensor_oracle"),
    (("kahler", "--d", "3", "--g", "2", "--elldelta", "7"),
     "cli kahler_class moduli_numerics symring"),
    (("genus0", "--s", "1,0,-1"), "cli genus0 moduli_numerics"),
    (("genus0", "--family", "d1", "--d", "3", "--delta", "5"), "cli genus0 moduli_numerics"),
    (("vortex",), "cli moduli_numerics taubes_solver"),
    (("verify", "--fast"),
     "acceptance cli genus0 kahler_class moduli_numerics strata symring tensor_oracle"),
], ids=["strata", "embed", "stability", "ring", "ring-oracle", "kahler", "genus0-s",
        "genus0-family", "vortex", "verify-fast"])
def test_each_subcommand_loads_only_its_modules(tmp_path, argv, modules):
    if argv == ("vortex",):
        argv += ("--config", _vortex_config(tmp_path))
    proc = _fresh_python(_MODULES_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == modules


def test_bare_import_loads_no_module():
    # each exact module loads when first named on the package, and is the
    # package attribute of that name from then on; in this order, none is
    # loaded as another's dependency first
    probe = ("import sys, vortexmoduli\n"
             "seen = [m for m in sys.modules if m.startswith('vortexmoduli.')]\n"
             "for name in sys.argv[1:]:\n"
             "    seen.append('vortexmoduli.' + name in sys.modules)\n"
             "    seen.append(getattr(vortexmoduli, name) is sys.modules['vortexmoduli.' + name])\n"
             "print(seen)\n")
    names = ("moduli_numerics", "strata", "genus0", "symring", "kahler_class",
             "tensor_oracle")
    proc = _fresh_python(probe, *names)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "%s\n" % ([False, True] * len(names))


def test_vortex_non_convergence_exits_3(tmp_path, capsys):
    config = _vortex_config(tmp_path, tol="1e-14", max_iter="1")
    code, out, err = run_cli(capsys, "vortex", "--config", config)
    assert (code, out) == (3, "")
    assert set(json.loads(err)) == {"error", "reason"}
    assert json.loads(err)["reason"] == "max_iter"


def test_vortex_round_off_floor_exits_3(tmp_path, capsys):
    # tol = 1e-14 lies below the residual float64 can represent on a 64^2
    # grid: the solve stops at the round-off floor and says so on stderr
    config = _vortex_config(tmp_path, tol="1e-14")
    code, out, err = run_cli(capsys, "vortex", "--config", config)
    assert (code, out) == (3, "")
    assert err.count("\n") == 1
    detail = json.loads(err, parse_constant=_reject_constant)
    assert detail["reason"] == "round_off_floor"
    assert "round-off floor" in detail["error"]


def test_vortex_unallocatable_grid_exits_2(tmp_path, capsys):
    # a 4194304^2 float64 grid is 128 TiB: the kernel refuses the
    # allocation at once, before any of it is touched
    config = _vortex_config(tmp_path, N1="4194304", N2="4194304")
    code, out, err = run_cli(capsys, "vortex", "--config", config)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert set(json.loads(err)) == {"error"}


def test_verify_loads_the_solver_before_timing_criterion_9():
    # criterion 9's time is its solves: numpy and the solver are loaded
    # before the criteria run, and only by the full verify
    probe = ("import sys\n"
             "from vortexmoduli import acceptance, cli\n"
             "seen = []\n"
             "def wrap(fn):\n"
             "    def timed():\n"
             "        seen.append('vortexmoduli.taubes_solver' in sys.modules)\n"
             "        return fn()\n"
             "    return timed\n"
             "acceptance.CRITERIA = [(i, name, wrap(fn) if i == 9 else fn, exact)\n"
             "                       for (i, name, fn, exact) in acceptance.CRITERIA]\n"
             "cli.main(['verify', '--fast'])\n"
             "seen.append('numpy' in sys.modules)\n"
             "code = cli.main(['verify'])\n"
             "print(seen)\n"
             "sys.exit(code)\n")
    proc = _fresh_python(probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[False, True]"


def test_verify_reports_time_per_criterion(capsys):
    # stderr lines carry each criterion's wall time; stdout carries none
    code, out, err = run_cli(capsys, "verify", "--fast")
    assert code == 0
    criteria = json.loads(out)["criteria"]
    lines = err.splitlines()
    assert len(lines) == len(criteria) == 8
    for line, crit in zip(lines, criteria):
        assert set(crit) == {"index", "name", "passed", "detail"}
        head = "PASS [%2d] %s: %s [" % (crit["index"], crit["name"], crit["detail"])
        assert line.startswith(head) and line.endswith(" s]"), line
        assert float(line[len(head):-len(" s]")]) >= 0.0


def test_verify_reports_a_raising_criterion_as_failed(monkeypatch, capsys):
    # an exception other than an assertion fails its criterion, names its
    # type in the detail, and the other criteria still run and pass
    def boom(*args):
        raise ValueError("boom")

    monkeypatch.setattr(kahler_class, "representability", boom)
    code, out, err = run_cli(capsys, "verify", "--fast")
    assert code == 1
    criteria = json.loads(out, parse_constant=_reject_constant)["criteria"]
    assert len(criteria) == len(err.splitlines()) == 8
    failed = [(c["index"], c["detail"]) for c in criteria if not c["passed"]]
    assert failed == [(8, "raised ValueError: boom")]


@pytest.mark.parametrize("argv", [
    ("stability", "--e2", "nan", "--tau", "1", "--vol", "30", "--d", "2"),
    ("kahler", "--d", "3", "--g", "2", "--elldelta", "7",
     "--e2", "1.0", "--tau", "1.0", "--vol", "inf"),
    ("vortex", {"e2": "nan"}),
    ("vortex", {"tau": "inf"}),
    ("vortex", {"tol": "nan"}),
], ids=["stability-e2-nan", "kahler-vol-inf", "vortex-e2-nan", "vortex-tau-inf",
        "vortex-tol-nan"])
def test_non_finite_inputs_exit_2(tmp_path, capsys, argv):
    if argv[0] == "vortex":
        argv = ("vortex", "--config", _vortex_config(tmp_path, **argv[1]))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "finite" in json.loads(err)["error"]


@pytest.mark.parametrize("argv", [
    # finite inputs whose margin overflows to inf: no strict-JSON form
    ("stability", "--e2", "1e300", "--tau", "1e300", "--vol", "1", "--d", "1"),
    # arithmetic errors raised while computing the result
    ("ring", "1/0*eta", "--d", "2", "--g", "1"),
    ("genus0", "--s", "1/0,1"),
    ("stability", "--e2", "1e-200", "--tau", "1", "--vol", "1e-200", "--d", "1"),
    ("kahler", "--d", "2", "--g", "1", "--elldelta", "3",
     "--e2", "1e200", "--tau", "1e200", "--vol", "1e200"),
], ids=["stability-margin-overflow", "ring-zero-denominator", "genus0-zero-denominator",
        "stability-underflow", "kahler-overflow"])
def test_non_finite_result_is_not_printed(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


_GOOD_CONFIG = "L1 = 6\nL2 = 6\nN1 = 32\nN2 = 32\ne2 = 1\ntau = 1\nzero = 3 3 1\n"


@pytest.mark.parametrize("text", [
    _GOOD_CONFIG.replace("tau = 1\n", ""),
    _GOOD_CONFIG + "max_iter 20\n",
    _GOOD_CONFIG + "zero = 1 1 1 1\n",
    _GOOD_CONFIG.replace("e2 = 1", "e2 = one"),
    _GOOD_CONFIG.replace("N1 = 32", "N1 = 32.5"),
    _GOOD_CONFIG + "zero = 1 y\n",
], ids=["missing-key", "no-equals", "zero-four-fields", "non-numeric-float",
        "non-integer-grid", "non-numeric-zero"])
def test_malformed_config_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, "vortex", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


@pytest.mark.parametrize("extra,message", [
    ("toll = 1e-3\n", "line 8: unknown key 'toll'"),
    ("N1 = 64\n", "line 8: repeated key 'N1'"),
    # the source width is fixed at three spacings, no longer a key
    ("reg_width = 0.1\n", "line 8: unknown key 'reg_width'"),
], ids=["unknown-key", "repeated-key", "reg-width"])
def test_config_rejects_unknown_and_repeated_keys(tmp_path, capsys, extra, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_GOOD_CONFIG + extra)
    code, out, err = run_cli(capsys, "vortex", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == message


@pytest.mark.parametrize("case,expected_code", [
    ("env-only", 0), ("cwd-wins", 0), ("absolute-ignores-env", 2), ("missing", 2)])
def test_vortex_config_dir_lookup(tmp_path, capsys, monkeypatch, case, expected_code):
    # a copy of the config that is read exits 2 when it lacks tau
    env_dir, cwd = tmp_path / "env", tmp_path / "cwd"
    env_dir.mkdir()
    cwd.mkdir()
    monkeypatch.setenv("VORTEXMODULI_CONFIG_DIR", str(env_dir))
    monkeypatch.chdir(cwd)
    config = "prob.cfg"
    if case == "env-only":
        (env_dir / config).write_text(_GOOD_CONFIG)
    elif case == "cwd-wins":
        (env_dir / config).write_text(_GOOD_CONFIG.replace("tau = 1\n", ""))
        (cwd / config).write_text(_GOOD_CONFIG)
    elif case == "absolute-ignores-env":
        (env_dir / config).write_text(_GOOD_CONFIG)
        config = str(tmp_path / "elsewhere" / config)
    code, out, err = run_cli(capsys, "vortex", "--config", config)
    assert code == expected_code
    if expected_code == 0:
        assert json.loads(out)["iterations"] >= 1
    else:
        assert out == "" and "error" in json.loads(err)
