"""Release gate: one test per acceptance criterion, each printing its
pass/fail line.  The same checks back the ``verify`` CLI subcommand."""

from math import pi

import pytest

from vortexmoduli import acceptance, kahler_class

_IDS = ["%02d-%s" % (i, name.replace(" ", "-"))
        for (i, name, _fn, _exact) in acceptance.CRITERIA]


@pytest.mark.parametrize("index", [i for (i, _n, _f, _e) in acceptance.CRITERIA],
                         ids=_IDS)
def test_criterion(index):
    result = acceptance.run_criterion(index)
    print(result.line())
    assert result.passed, result.detail


def test_quantization_failure_names_its_case(monkeypatch):
    # with c_sigma = 4*pi^2/e^2 the two twists agree at q = d + 1 as well,
    # so the first (d, g) that asserts they differ fails, and is named
    l2_class = kahler_class.l2_class

    def mutated(phys, d):
        return kahler_class.KahlerClass2(l2_class(phys, d).c_eta, 4.0 * pi ** 2 / phys.e2)

    monkeypatch.setattr(kahler_class, "l2_class", mutated)
    result = acceptance.run_criterion(8)
    assert (result.passed, result.detail) == (False, "assertion failed: (2, 1)")
