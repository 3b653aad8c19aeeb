import itertools
import random
from fractions import Fraction

import pytest

from vortexmoduli import genus0
from vortexmoduli.genus0 import (
    BinaryForm,
    BinaryFormPair,
    DeltaTooSmallError,
    RankDeficientError,
    ReconstructionError,
    SubspaceBasis,
    _maximal_minors,
    _rref,
    curve_degree,
    divisor_form,
    embed_pair,
    plucker,
    plucker_sweep,
    reconstruct,
    smallest_working_delta,
    t_degree,
)
from vortexmoduli.moduli_numerics import ParameterError

F = Fraction


def form(*coeffs):
    return BinaryForm(len(coeffs) - 1, tuple(F(c) for c in coeffs))


def test_form_arithmetic():
    x, y = form(1, 0), form(0, 1)
    assert x * y == form(0, 1, 0)
    assert (x + y).coefficients == (F(1), F(1))
    assert str(form(1, -1)) == "x + -y"
    with pytest.raises(ParameterError):
        form(1, 0) + form(1, 0, 0)
    with pytest.raises(ParameterError):
        BinaryForm(2, (1, 0))


def test_constant_forms_print_their_coefficient():
    # a degree-0 form prints as its coefficient alone, not as "c*1"
    assert str(form(1)) == "1"
    assert str(form(-1)) == "-1"
    assert str(form(F(-3, 2))) == "-3/2"
    assert str(form(0)) == "0"
    assert str(form(F(-3, 2), 0, 1)) == "-3/2*x^2 + y^2"


def test_divisor_form():
    f = divisor_form([(0, 1), (1, 1)], [2, 1])   # x^2 * (x - y)
    assert f == form(1, 0) * form(1, 0) * form(1, -1)


def test_divisor_form_refuses_a_negative_multiplicity():
    # a negative multiplicity used to count as 0, giving the constant form 1
    with pytest.raises(ParameterError, match="^multiplicity must be >= 0, got -1"):
        divisor_form([(1, 2)], [-1])


def test_embed_examples():
    # s = x*y, delta = 3: basis {x^2 y, x y^2}
    basis = embed_pair(BinaryFormPair.from_section([form(0, 1, 0)]), 3)
    assert basis.basis == ((F(0), F(1), F(0), F(0)), (F(0), F(0), F(1), F(0)))
    # s = x^d at delta = d: one-dimensional
    basis = embed_pair(BinaryFormPair.from_section([form(1, 0, 0, 0)]), 3)
    assert len(basis.basis) == 1
    # constants with n=2, d=0: dimension delta + 1
    pair = BinaryFormPair.from_section([form(1), form(2)])
    assert len(embed_pair(pair, 3).basis) == 4


@pytest.mark.parametrize("d", range(1, 5))
@pytest.mark.parametrize("extra", range(0, 4))
def test_embed_dimension_formula(d, extra):
    rng = random.Random(1000 * d + extra)
    coeffs = [F(rng.randint(-5, 5)) for _ in range(d + 1)]
    if not any(coeffs):
        coeffs[0] = F(1)
    delta = d + extra
    basis = embed_pair(BinaryFormPair.from_section([BinaryForm(d, tuple(coeffs))]), delta)
    assert len(basis.basis) == delta + 1 - d
    assert basis.ambient_dim == delta + 1


def test_embed_errors():
    with pytest.raises(DeltaTooSmallError):
        embed_pair(BinaryFormPair.from_section([form(1, 0, 0)]), 1)
    rows = ((form(1, 0), form(0, 1)), (form(2, 0), form(0, 2)))
    with pytest.raises(RankDeficientError):
        embed_pair(BinaryFormPair(rows), 3)
    # x^5 + y^5 at delta 3: the expected dimension r*(delta+1) - d is -1,
    # and the cause is the same, a row degree above delta
    with pytest.raises(DeltaTooSmallError, match="delta too small"):
        embed_pair(BinaryFormPair.from_section([form(1, 0, 0, 0, 0, 1)]), 3)


def test_constructors_reject_inconsistent_data():
    x, y = form(1, 0), form(0, 1)
    for rows in (((x, y), (x,)),           # ragged
                 ((x,), (y,)),             # n < r
                 ((x, form(1, 0, 0)),),    # mixed degrees in a row
                 ()):                      # empty
        with pytest.raises(ParameterError):
            BinaryFormPair(rows)
    with pytest.raises(ParameterError):    # row length 2, ambient length 3
        SubspaceBasis(((F(1), F(0)),), 1, 2)
    with pytest.raises(ParameterError):    # dependent rows
        SubspaceBasis(((F(1), F(2), F(0)), (F(2), F(4), F(0))), 1, 2)


def test_embed_rank_two():
    rows = ((form(1, 0), BinaryForm.zero(1)), (BinaryForm.zero(1), form(0, 1)))
    pair = BinaryFormPair(rows)
    assert (pair.n, pair.r, pair.d) == (2, 2, 2) and pair.has_full_rank()
    basis = embed_pair(pair, 2)
    assert len(basis.basis) == 2 * 3 - 2
    # unbalanced splitting needs a larger twist
    rows = ((form(1), form(1)), (form(1, 0, 0), form(0, 0, 1)))
    unb = BinaryFormPair(rows)
    with pytest.raises(DeltaTooSmallError):
        embed_pair(unb, 1)
    assert len(embed_pair(unb, 2).basis) == 4


def _monomial(e, k):
    """x^(e-k) y^k: the multiplication map's reference is the product by it."""
    return BinaryForm(e, tuple(F(int(i == k)) for i in range(e + 1)))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_multiplication_map_matches_form_products(r):
    # embed_pair's rows are x^(e-k) y^k * f for each row of forms f of
    # degree delta - e, k = 0..e: shifting f's coefficients k places right
    # must give exactly the coefficients of that product
    rng = random.Random(2900 + r)
    checked = zero_entries = 0
    while checked < 25:
        n = r + rng.randint(0, 2)
        rows = tuple(tuple(
            BinaryForm.zero(deg) if rng.random() < 0.3 else
            BinaryForm(deg, tuple(F(rng.randint(-4, 4), rng.randint(1, 3))
                                  for _ in range(deg + 1)))
            for _ in range(n)) for deg in [rng.randint(0, 3) for _ in range(r)])
        pair = BinaryFormPair(rows)
        if not pair.has_full_rank():
            continue
        delta = smallest_working_delta(pair) + rng.randint(0, 2)
        vectors = []
        for row in rows:
            e = delta - row[0].degree
            shifted = [genus0._shifts(f.coefficients, e, F(0)) for f in row]
            for k in range(e + 1):
                products = [_monomial(e, k) * f for f in row]
                assert [rows_k[k] for rows_k in shifted] == \
                    [list(g.coefficients) for g in products]
                vectors.append(tuple(c for g in products for c in g.coefficients))
        basis = embed_pair(pair, delta)
        assert basis == SubspaceBasis(tuple(vectors), n, delta)
        assert len(basis.basis) == r * (delta + 1) - pair.d
        checked += 1
        zero_entries += sum(not f for row in rows for f in row)
    assert zero_entries


@pytest.mark.parametrize("family", ["d0", "d1"])
def test_sweep_sections_match_form_products(family):
    # the section's coefficients are forms in (t:s); at a point (t0:s0) they
    # evaluate to the coefficients of (s0*x - t0*y)^d, or of
    # (x - p*y) * (s0*x - t0*y)^(d-1) for d1
    rng = random.Random(29)
    for d in range(2, 7):
        p = F(rng.randint(-3, 3), rng.randint(1, 3))
        t0, s0 = F(rng.randint(-5, 5)), F(rng.randint(1, 5))
        expected = form(1, -p) if family == "d1" else form(1)
        for _ in range(d - expected.degree):
            expected = expected * form(s0, -t0)
        values = tuple(sum(c * t0 ** (f.degree - j) * s0 ** j
                           for j, c in enumerate(f.coefficients))
                       for f in genus0._sweep_section(family, d, p))
        assert values == expected.coefficients


def test_plucker_basis_independence():
    pair = BinaryFormPair.from_section([form(1, 2, 1)])
    basis = embed_pair(pair, 4)
    raw = plucker(basis)
    # mix the basis rows by an invertible rational matrix
    r0, r1, r2 = basis.basis
    mixed = (
        tuple(2 * a + b for a, b in zip(r0, r1)),
        tuple(a - b for a, b in zip(r1, r2)),
        tuple(F(1, 3) * a for a in r2),
    )
    mixed_basis = SubspaceBasis(mixed, basis.n, basis.delta)
    # a subspace is its reduced echelon basis, whichever basis it was given by
    assert mixed_basis == basis
    assert plucker(mixed_basis) == raw
    assert next(c for c in raw if c) == 1
    assert reconstruct(mixed_basis, 1, 4) == pair.canonical()


def test_plucker_of_a_subspace_is_normalized():
    # the echelon basis puts a 1 at the first nonzero coordinate
    rng = random.Random(77)
    checked = 0
    for _ in range(300):
        n, delta = rng.randint(1, 3), rng.randint(1, 3)
        width = n * (delta + 1)
        rows = [[F(rng.choice((0, 0, 1, -1, 2)), rng.randint(1, 3)) for _ in range(width)]
                for _ in range(rng.randint(1, min(4, width)))]
        if len(_rref(rows)) != len(rows):
            continue
        coords = plucker(SubspaceBasis(tuple(map(tuple, rows)), n, delta))
        assert next(c for c in coords if c) == 1
        checked += 1
    assert checked >= 200


def test_plucker_single_vector():
    basis = embed_pair(BinaryFormPair.from_section([form(1, 0)]), 1)
    assert plucker(basis) == (F(1), F(0))


def test_reconstruct_round_trip_examples():
    s = form(1, 0) * form(1, 0) * form(0, 1) * form(1, -1)  # x^2 y (x - y)
    pair = BinaryFormPair.from_section([s])
    rec = reconstruct(embed_pair(pair, 6), 1, 6)
    assert rec == pair.canonical()
    mono = BinaryFormPair.from_section([form(1, 0, 0, 0)])
    assert reconstruct(embed_pair(mono, 3), 1, 3) == mono.canonical()
    # y^d and x^a y^b put the last echelon row at extreme valuations
    for s in (form(0, 0, 0, 5), form(0, 1, 0, 0), form(0, 0, -2, 0, 0)):
        pair = BinaryFormPair.from_section([s])
        for delta in range(s.degree, s.degree + 3):
            assert reconstruct(embed_pair(pair, delta), 1, delta) == pair.canonical()


def test_reconstruct_multi_component():
    sections = [form(1, 0) * form(1, -2), form(0, 1) * form(1, 1)]
    pair = BinaryFormPair.from_section(sections)
    basis = embed_pair(pair, 5)
    rec = reconstruct(basis, 2, 5)
    assert rec == pair.canonical()
    # with a zero component
    pair = BinaryFormPair.from_section([form(1, 2, 1), BinaryForm.zero(2)])
    rec = reconstruct(embed_pair(pair, 4), 2, 4)
    assert rec == pair.canonical()
    # a zero first component, y^d and x^a y^b components
    for sections in ([BinaryForm.zero(2), form(1, -1, 3)],
                     [BinaryForm.zero(3), BinaryForm.zero(3), form(0, 0, 0, 1)],
                     [form(0, 0, 1), form(0, 1, 0)],
                     [form(0, 0, 0, 2), form(0, 1, 0, 0), form(1, 0, 0, 0)]):
        pair = BinaryFormPair.from_section(sections)
        for delta in range(pair.d, pair.d + 3):
            assert reconstruct(embed_pair(pair, delta), pair.n, delta) == pair.canonical()


def test_reconstruct_random_round_trips():
    rng = random.Random(4242)
    for _ in range(40):
        d = rng.randint(1, 6)
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d + 1)]
        if not any(coeffs):
            coeffs[d // 2] = F(1)
        pair = BinaryFormPair.from_section([BinaryForm(d, tuple(coeffs))])
        rec = reconstruct(embed_pair(pair, d + 2), 1, d + 2)
        assert rec == pair.canonical()


def test_reconstruct_random_subspaces():
    # every subspace either fails to reconstruct or reconstructs to a pair
    # whose embedding reproduces it; echelon bases of sparse random vectors,
    # of valid embeddings with one entry changed, and raw bases all occur
    rng = random.Random(909)
    outcomes = {"valid": 0, "invalid": 0}
    for trial in range(400):
        n, delta = rng.randint(1, 3), rng.randint(1, 4)
        width = n * (delta + 1)
        k = rng.randint(1, min(delta + 2, width))
        if trial % 3 == 0:
            d = rng.randint(0, delta)
            pair = BinaryFormPair.from_section(
                [_random_form(rng, d) for _ in range(n)])
            if not any(pair.fs_matrix[0]):
                continue
            rows = [list(r) for r in embed_pair(pair, delta).basis]
            if rng.random() < 0.5:
                rows[rng.randrange(len(rows))][rng.randrange(width)] += 1
        else:
            rows = [[F(rng.choice((0, 0, 0, 1, -1, 2))) for _ in range(width)]
                    for _ in range(k)]
        if trial % 3 != 2:
            rows = _rref(rows)
        if not rows or len(_rref(rows)) != len(rows):
            continue
        basis = SubspaceBasis(tuple(map(tuple, rows)), n, delta)
        try:
            pair = reconstruct(basis, n, delta)
        except ReconstructionError:
            outcomes["invalid"] += 1
            continue
        assert embed_pair(pair, delta) == basis
        outcomes["valid"] += 1
    assert outcomes["valid"] >= 40 and outcomes["invalid"] >= 100


def test_reconstruct_rejects_bad_subspace():
    # a subspace that is not of the form h * s: {x^2, y^2} inside delta = 2
    bad = SubspaceBasis(((F(1), F(0), F(0)), (F(0), F(0), F(1))), 1, 2)
    with pytest.raises(ReconstructionError):
        reconstruct(bad, 1, 2)


def test_reconstruct_higher_rank_unimplemented():
    rows = ((form(1, 0), BinaryForm.zero(1)), (BinaryForm.zero(1), form(0, 1)))
    basis = embed_pair(BinaryFormPair(rows), 2)
    with pytest.raises(ReconstructionError):
        reconstruct(basis, 2, 2)


def test_smallest_working_delta():
    pair = BinaryFormPair.from_section([form(1, 0, 0, 0, 0)])
    assert smallest_working_delta(pair) == 4
    # x^65 - y^65: no search bound caps the answer
    pair = BinaryFormPair.from_section([form(1, *[0] * 64, -1)])
    assert smallest_working_delta(pair) == 65


def _smallest_working_delta_by_search(pair):
    """The definition: the least delta >= 1 at which embed_pair does not
    raise DeltaTooSmallError."""
    for delta in range(1, 65):
        try:
            embed_pair(pair, delta)
            return delta
        except DeltaTooSmallError:
            continue
    raise AssertionError("no working delta up to 64")


def _random_form(rng, degree):
    return BinaryForm(degree, tuple(F(rng.choice((0, 0, 0, 1, -1, 2, -3)),
                                      rng.randint(1, 2)) for _ in range(degree + 1)))


def _random_pair(rng):
    """r <= n <= 3 with independent row degrees <= 4; some pairs with r > 1
    get a row that is a polynomial multiple of another row."""
    n = rng.randint(1, 3)
    r = rng.randint(1, n)
    degrees = [rng.randint(0, 4) for _ in range(r)]
    rows = [[_random_form(rng, dg) for _ in range(n)] for dg in degrees]
    if r > 1 and rng.random() < 0.35:
        i, j = rng.sample(range(r), 2)
        h = _random_form(rng, rng.randint(0, 4 - degrees[j]))
        rows[i] = [h * f for f in rows[j]]
        degrees[i] = rows[i][0].degree
    return BinaryFormPair(rows)


def test_smallest_working_delta_matches_search():
    rng = random.Random(20260818)
    deficient = 0
    for _ in range(320):
        pair = _random_pair(rng)
        if not pair.has_full_rank():
            deficient += 1
            with pytest.raises(RankDeficientError):
                _smallest_working_delta_by_search(pair)
            with pytest.raises(RankDeficientError):
                smallest_working_delta(pair)
        else:
            expected = _smallest_working_delta_by_search(pair)
            assert smallest_working_delta(pair) == expected
            top = max(pair.row_degrees())
            for delta in range(max(top, 1), top + 3):
                assert len(embed_pair(pair, delta).basis) == pair.r * (delta + 1) - pair.d
    assert 40 <= deficient <= 280


def _leibniz_det(m):
    terms = []
    k = len(m)
    for perm in itertools.permutations(range(k)):
        term = m[0][perm[0]]
        for i in range(1, k):
            term = term * m[i][perm[i]]
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(k), 2))
        terms.append(-term if inversions % 2 else term)
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _assert_minors_match_leibniz(rows):
    minors = _maximal_minors(rows)
    cols = list(itertools.combinations(range(len(rows[0])), len(rows)))
    assert len(minors) == len(cols)
    for minor, cs in zip(minors, cols):
        assert minor == _leibniz_det([[row[c] for c in cs] for row in rows])
    return minors


def test_maximal_minors_match_leibniz_on_fractions():
    rng = random.Random(31)
    for _ in range(150):
        k = rng.randint(1, 4)
        ncols = rng.randint(k, 7)
        rows = [[F(rng.choice((0, 0, 1, -2, 3)), rng.randint(1, 3))
                 for _ in range(ncols)] for _ in range(k)]
        for c in range(ncols):
            if rng.random() < 0.15:   # a zero column
                for row in rows:
                    row[c] = F(0)
        _assert_minors_match_leibniz(rows)


def test_maximal_minors_match_leibniz_on_forms():
    # unequal row degrees and zero entries; every minor, vanishing or not,
    # has degree equal to the sum of the row degrees
    rng = random.Random(32)
    for _ in range(60):
        k = rng.randint(1, 3)
        ncols = rng.randint(k, 5)
        degrees = [rng.randint(0, 3) for _ in range(k)]
        rows = [[_random_form(rng, dg) if rng.random() < 0.6 else BinaryForm.zero(dg)
                 for _ in range(ncols)] for dg in degrees]
        minors = _assert_minors_match_leibniz(rows)
        assert {m.degree for m in minors} == {sum(degrees)}


def test_curve_degree_values():
    assert curve_degree("d0", 1, 2) == 2
    assert curve_degree("d0", 2, 3) == 4
    assert curve_degree("d1", 2, 3) == 2
    for d in range(1, 5):
        for delta in range(d + 1, d + 5):
            assert curve_degree("d0", d, delta) == d * (delta - d + 1)
            if d >= 2:
                assert curve_degree("d1", d, delta) == (d - 1) * (delta - d + 1)


def test_curve_degree_validation():
    with pytest.raises(ParameterError):
        curve_degree("d2", 2, 4)
    with pytest.raises(ParameterError):
        curve_degree("d1", 1, 4)
    with pytest.raises(DeltaTooSmallError):
        curve_degree("d0", 3, 2)
    # the twist is checked before the family and its degree
    with pytest.raises(DeltaTooSmallError):
        curve_degree("d2", 3, 2)
    with pytest.raises(DeltaTooSmallError):
        curve_degree("d1", 1, 0)


_SWEEP_CASES = [(family, d, delta, p)
                for family in ("d0", "d1")
                for d in range(1 if family == "d0" else 2, 5)
                for delta in range(d, 9)
                for p in (F(0), F(2), F(-3), F(1, 2))]


@pytest.mark.parametrize("family,d,delta,p", _SWEEP_CASES,
                         ids=["%s-%d-%d-p%s" % case for case in _SWEEP_CASES])
def test_sweep_coordinates_have_no_common_factor(family, d, delta, p):
    coords = plucker_sweep(family, d, delta, p)
    nonzero = [c for c in coords if c]
    # coefficient i of a coordinate multiplies t^(deg-i) s^i: the first
    # nonzero coordinate is a pure power of s and the last a pure power of
    # t, so no form of positive degree divides both
    assert not any(nonzero[0].coefficients[:-1])
    assert not any(nonzero[-1].coefficients[1:])
    # they are the minors of the triangular blocks at the section's first
    # and last nonzero coefficients a and b: a^(e+1) and b^(e+1), up to sign
    ends = [c for c in genus0._sweep_section(family, d, p) if c]
    first, last = form(1), form(1)
    for _ in range(delta - d + 1):
        first, last = first * ends[0], last * ends[-1]
    assert first in (nonzero[0], -nonzero[0])
    assert last in (nonzero[-1], -nonzero[-1])
    # curve_degree reads the common degree of every coordinate off them
    assert {c.degree for c in coords} == {curve_degree(family, d, delta, p)}


def test_sweep_with_a_base_locus_raises(monkeypatch):
    # a common factor (t - s) in every section coefficient is a base point
    # at t = s, which the sweep must report, not return coordinates with it
    section = genus0._sweep_section
    t_minus_s = form(1, -1)
    monkeypatch.setattr(genus0, "_sweep_section", lambda family, d, p: [
        c * t_minus_s for c in section(family, d, p)])
    for family, d, delta in (("d0", 1, 1), ("d0", 2, 4), ("d1", 3, 5)):
        with pytest.raises(ParameterError, match="base locus"):
            plucker_sweep(family, d, delta)
        with pytest.raises(ParameterError, match="base locus"):
            curve_degree(family, d, delta)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_floats_raise_parameter_error(bad):
    calls = [
        lambda: BinaryForm(1, (bad, 0)),
        lambda: form(1, 0) * bad,
        lambda: divisor_form([(bad, 1)], [1]),
        lambda: divisor_form([(0, bad)], [1]),
        lambda: SubspaceBasis(((bad, 0, 0, 0),), 2, 1),
        lambda: curve_degree("d1", 3, 5, bad),
        lambda: plucker_sweep("d1", 3, 5, bad),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match="must be finite"):
            call()
    # finite floats are still read exactly
    assert BinaryForm(1, (0.5, 2.0)) == form(F(1, 2), 2)
    assert curve_degree("d1", 3, 5, 0.5) == curve_degree("d1", 3, 5, F(1, 2))


def test_sweep_coordinates_share_one_degree_even_when_vanishing():
    # at p = 0 the d1 section ends in a zero coefficient and several
    # coordinates vanish; they still carry the curve degree
    coords = plucker_sweep("d1", 3, 5, 0)
    assert any(not c for c in coords)
    assert {c.degree for c in coords} == {curve_degree("d1", 3, 5, 0)} == {6}
    assert [t_degree(c) for c in coords] == [
        0, 1, 2, None, 2, 3, None, 4, None, None,
        3, 4, None, 5, None, None, 6, None, None, None]
    for d in range(2, 5):
        for delta in range(d + 1, 10):
            coords = plucker_sweep("d1", d, delta, 0)
            assert {c.degree for c in coords} == {curve_degree("d1", d, delta, 0)}


def test_sweep_form_arithmetic():
    # polynomials in the sweep parameter are binary forms in (t:s)
    t, s = form(1, 0), form(0, 1)
    p = (t * t - s * s) * (t - 2 * s)
    assert p.degree == 3
    assert not p - p
    assert 2 * t == t + t
