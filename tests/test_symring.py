import itertools
import random
import re
from fractions import Fraction
from math import comb, factorial, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

import vortexmoduli.symring as symring
from vortexmoduli.symring import (
    CohomologyClass,
    RingParams,
    _mul_keys,
    _normalize_terms,
    _raw_mul_terms,
    _top,
    eta,
    format_class,
    integrate,
    multiply,
    pairing,
    parse_class,
    pd_sigma0,
    sigma,
    sigma_j,
    unit,
    xi,
    zero,
)


def _koszul(s: int, t: int) -> int:
    """Sign of xi_s * xi_t against the sorted product, for disjoint masks:
    one odd-odd swap per a in s, b in t with a > b."""
    swaps = 0
    while t:
        b = t & -t
        swaps += (s & -b).bit_count()
        t ^= b
    return -1 if swaps & 1 else 1


def test_params_validation():
    with pytest.raises(ValueError):
        RingParams(0, 1)
    with pytest.raises(ValueError):
        RingParams(2, -1)


def test_generators_basic():
    assert sigma(RingParams(2, 1)).terms == {(0, (1, 2)): Fraction(1)}
    assert sigma(RingParams(2, 0)).is_zero()
    assert sigma_j(RingParams(3, 2), 2).terms == {(0, (2, 4)): Fraction(1)}
    with pytest.raises(ValueError):
        xi(RingParams(2, 1), 3)
    with pytest.raises(ValueError):
        sigma_j(RingParams(2, 1), 2)
    with pytest.raises(ValueError):
        xi(RingParams(2, 0), 1)


@pytest.mark.parametrize("params,j", [
    (RingParams(2, 0), 1),
    (RingParams(2, 2), 0),
    (RingParams(2, 2), 5),
])
def test_xi_rejects_index_out_of_range(params, j):
    with pytest.raises(ValueError, match="out of range"):
        xi(params, j)


def test_power_stops_once_zero(monkeypatch):
    calls = []

    def counting(params, t1, t2):
        calls.append(None)
        return _mul_keys(params, t1, t2)

    monkeypatch.setattr(symring, "_mul_keys", counting)
    p = RingParams(2, 1)
    assert (eta(p) ** 50).is_zero()
    assert len(calls) <= p.d + 2


def test_odd_square_vanishes():
    p = RingParams(3, 2)
    assert multiply(xi(p, 1), xi(p, 1)).is_zero()


def test_mismatched_params_rejected():
    with pytest.raises(ValueError):
        multiply(eta(RingParams(2, 1)), eta(RingParams(2, 2)))


def test_eta_sigma_identity():
    # eta^(d-1) * sigma = g * eta^d at d=3, g=2
    p = RingParams(3, 2)
    assert multiply(eta(p) ** 2, sigma(p)) == (eta(p) ** 3).scale(2)


def test_sigma_pair_product_identity():
    # eta^(d-2) sigma_i sigma_j = eta^(d-1)(sigma_i + sigma_j) - eta^d at d=4
    p = RingParams(4, 2)
    lhs = multiply(multiply(eta(p) ** 2, sigma_j(p, 1)), sigma_j(p, 2))
    rhs = multiply(eta(p) ** 3, sigma_j(p, 1) + sigma_j(p, 2)) - eta(p) ** 4
    assert lhs == rhs


def test_top_power_truncates():
    p = RingParams(2, 1)
    assert (eta(p) ** 3).is_zero()


def test_sigma_j_eta_relation():
    p = RingParams(2, 1)
    assert (multiply(eta(p), sigma_j(p, 1)) - eta(p) ** 2).is_zero()


def test_sigma_squared_contraction():
    # eta^(d-2) sigma^2 = g(g-1) eta^d at d=3, g=3
    p = RingParams(3, 3)
    lhs = multiply(eta(p), multiply(sigma(p), sigma(p)))
    assert lhs == (eta(p) ** 3).scale(6)


def test_integrate_values():
    assert integrate(eta(RingParams(3, 3)) ** 3) == 1
    p22 = RingParams(2, 2)
    assert integrate(multiply(sigma(p22), sigma(p22))) == 2
    p33 = RingParams(3, 3)
    assert integrate(sigma(p33) ** 3) == 6
    # off-degree classes integrate to zero
    assert integrate(eta(p22)) == 0
    assert integrate(zero(p22)) == 0


@pytest.mark.parametrize("d", range(1, 5))
@pytest.mark.parametrize("g", range(0, 4))
def test_mixed_integrals_closed_form(d, g):
    # int eta^(d-k) sigma^k = k! * C(g, k); cross-checked against the tensor
    # oracle in test_tensor_oracle
    from math import comb, factorial
    p = RingParams(d, g)
    for k in range(0, min(d, g) + 1):
        val = integrate(multiply(eta(p) ** (d - k), sigma(p) ** k))
        assert val == factorial(k) * comb(g, k)


def test_pd_sigma0_formula_and_pairings():
    p = RingParams(3, 2)
    assert integrate(multiply(eta(p), pd_sigma0(p))) == 3
    assert integrate(multiply(sigma(p), pd_sigma0(p))) == 18
    # d=2, g=0 evaluates to 2*eta
    p20 = RingParams(2, 0)
    assert pd_sigma0(p20) == eta(p20).scale(2)
    with pytest.raises(ValueError):
        pd_sigma0(RingParams(1, 1))


def test_pairing_values():
    assert pairing(eta(RingParams(4, 1)), 1) == 3
    assert pairing(sigma(RingParams(2, 3)), 0) == 12
    assert pairing(zero(RingParams(2, 2)), 0) == 0
    # d=1 degenerate cases: Sigma_1 is a point, Sigma_0 the whole space
    p11 = RingParams(1, 1)
    assert pairing(eta(p11), 1) == 0
    assert pairing(eta(p11), 0) == 1
    with pytest.raises(ValueError):
        pairing(eta(RingParams(2, 1)) ** 2, 0)
    with pytest.raises(ValueError):
        pairing(eta(RingParams(2, 1)), 2)


def test_pairing_non_conjugate_pair_vanishes_on_sigma1():
    # xi_i * xi_k only meets the second curve through conjugate index pairs
    p = RingParams(3, 2)
    cls = multiply(xi(p, 1), xi(p, 2))
    assert pairing(cls, 1) == 0
    conj = multiply(xi(p, 1), xi(p, 3))
    assert pairing(conj, 1) == (3 - 1) ** 2
    mixed = eta(p).scale(Fraction(1, 2)) + conj.scale(3)
    assert pairing(mixed, 1) == Fraction(1, 2) * 2 + 3 * 4


def test_integrate_product_symmetry():
    # pairing through the product is graded-symmetric
    p = RingParams(3, 2)
    pairs = [
        (eta(p), multiply(eta(p), sigma(p))),
        (sigma(p), multiply(eta(p), eta(p))),
        (xi(p, 1), multiply(multiply(eta(p) ** 2, xi(p, 3)), unit(p))),
    ]
    for a, b in pairs:
        deg_a = next(iter(a.degrees()), 0)
        deg_b = next(iter(b.degrees()), 0)
        sign = -1 if (deg_a * deg_b) % 2 else 1
        assert integrate(multiply(a, b)) == sign * integrate(multiply(b, a))


def _all_relation_instances(d, g):
    bins = itertools.product(range(4), repeat=g)
    for labels in bins:
        i1 = tuple(j + 1 for j, lab in enumerate(labels) if lab == 1)
        i2 = tuple(j + 1 for j, lab in enumerate(labels) if lab == 2)
        jj = tuple(j + 1 for j, lab in enumerate(labels) if lab == 3)
        r_min = max(0, d - len(i1) - len(i2) - 2 * len(jj) + 1)
        for r in range(r_min, d + 2):
            yield r, i1, i2, jj


@pytest.mark.parametrize("d", range(1, 6))
@pytest.mark.parametrize("g", range(0, 4))
def test_all_relation_instances_vanish(d, g):
    p = RingParams(d, g)
    for r, i1, i2, jj in _all_relation_instances(d, g):
        cls = eta(p) ** r
        for i in i1:
            cls = multiply(cls, xi(p, i))
        for i in i2:
            cls = multiply(cls, xi(p, i + g))
        for j in jj:
            cls = multiply(cls, eta(p) - sigma_j(p, j))
        assert cls.is_zero(), (d, g, r, i1, i2, jj)


# Macdonald's presentation of the cohomology ring of Sym^d(Sigma) gives
# int eta^(d-k) sigma^k = g!/(g-k)! (I. G. Macdonald, Symmetric products of an
# algebraic curve, Topology 1, 1962); these sizes are beyond the tensor
# oracle's reach.
@pytest.mark.parametrize("d, g", [(7, 10), (10, 7), (13, 5), (14, 8), (16, 3), (16, 8)])
def test_mixed_integrals_macdonald(d, g):
    p = RingParams(d, g)
    s, sigma_power = sigma(p), unit(p)
    for k in range(0, min(d, g) + 1):
        if k:
            sigma_power = multiply(sigma_power, s)
        val = integrate(multiply(eta(p) ** (d - k), sigma_power))
        assert val == factorial(g) // factorial(g - k), (d, g, k)


def test_classes_are_stored_in_normal_form():
    # classes are stored in normal form and immutable, so there is nothing
    # left to reduce; normalizing its key map again gives the same class
    p = RingParams(4, 3)
    cls = multiply(sigma(p) + xi(p, 2), eta(p) ** 2 - xi(p, 5)).scale(Fraction(-3, 4))
    assert CohomologyClass(p, _normalize_terms(p, cls.keys), cls.den) == cls


def test_normal_form_basis_shape():
    # surviving monomials satisfy eta_power + #xi <= d
    p = RingParams(3, 2)
    cls = (eta(p) + sigma(p) + xi(p, 1)) ** 2
    for h, xs in cls.terms:
        assert h + len(xs) <= 3


# -- property tests ----------------------------------------------------------

_params_st = st.builds(RingParams, st.integers(1, 4), st.integers(0, 3))


def _monomials(params):
    return st.tuples(
        st.integers(0, params.d),
        st.lists(st.integers(1, 2 * params.g) if params.g else st.nothing(),
                 unique=True, max_size=min(2 * params.g, 4)).map(
                     lambda ix: tuple(sorted(ix))),
    )


def _class_from(params, monos):
    cls = zero(params)
    for (h, s), coeff in monos:
        term = eta(params) ** h
        for j in s:
            term = multiply(term, xi(params, j))
        cls = cls + term.scale(coeff)
    return cls


@st.composite
def _ring_classes(draw):
    params = draw(_params_st)
    monos = draw(st.lists(
        st.tuples(_monomials(params), st.fractions(max_denominator=6)),
        min_size=1, max_size=3))
    return params, _class_from(params, monos)


@st.composite
def _two_monomials(draw):
    params = draw(_params_st)
    m1 = draw(_monomials(params))
    m2 = draw(_monomials(params))
    return params, m1, m2


@settings(max_examples=60, deadline=None)
@given(_two_monomials())
def test_graded_commutativity(data):
    params, (h1, s1), (h2, s2) = data
    a = _class_from(params, [((h1, s1), Fraction(1))])
    b = _class_from(params, [((h2, s2), Fraction(1))])
    deg_a, deg_b = 2 * h1 + len(s1), 2 * h2 + len(s2)
    sign = -1 if (deg_a * deg_b) % 2 else 1
    assert multiply(a, b) == multiply(b, a).scale(sign)


@settings(max_examples=60, deadline=None)
@given(_ring_classes())
def test_normal_form_idempotent(data):
    params, cls = data
    assert CohomologyClass(params, _normalize_terms(params, cls.keys), cls.den) == cls
    # the stored form is canonical: the same class reached through other
    # denominators compares and hashes equal
    other = cls.scale(Fraction(5, 3)) + unit(params).scale(Fraction(1, 6))
    for got, want in [(cls.scale(Fraction(2, 4)), cls.scale(Fraction(1, 2))),
                      (cls.scale(3).scale(Fraction(1, 6)), cls.scale(Fraction(1, 2))),
                      ((cls + other) - other, cls),
                      (cls.scale(0), zero(params))]:
        assert got == want
        assert hash(got) == hash(want)
    assert all(type(c) is Fraction for c in cls.terms.values())
    assert type(integrate(cls)) is Fraction


@settings(max_examples=40, deadline=None)
@given(_ring_classes())
def test_integrate_linear(data):
    params, cls = data
    assert integrate(cls.scale(3) - cls) == 2 * integrate(cls)


def _closed_form(params: RingParams, terms: dict) -> dict:
    """Normal form of an (eta_power, xi_indices) -> Fraction map of raw
    monomials by _normalize_terms, read back as the class's terms."""
    den = lcm(*(c.denominator for c in terms.values()))
    keys = {(h, sum(1 << i for i in xs)): c.numerator * (den // c.denominator)
            for (h, xs), c in terms.items()}
    return CohomologyClass(params, _normalize_terms(params, keys), den).terms


def _worklist_normalize_terms(params: RingParams, terms: dict) -> dict:
    """Reference: the worklist reduction that the closed formula replaced.

    Worklist reduction: monomials of cohomological degree above 2d drop out;
    monomials with h + |A| + |B| + |P| > d are annihilated outright by a
    pair-free relation instance; monomials still carrying a complete pair are
    rewritten through the instance (r = h, I1 = A, I2 = B, J = P), which
    trades one pair for a higher eta-power.  Terminates because every rewrite
    strictly decreases the pair count.
    """
    d, g = params.d, params.g
    result: dict = {}
    work = [(m, Fraction(c)) for m, c in terms.items()]
    while work:
        m, c = work.pop()
        h, xs = m
        if not c:
            continue
        if 2 * h + len(xs) > 2 * d:
            continue
        lows = {i for i in xs if i <= g}
        highs = {i - g for i in xs if i > g}
        pairs = tuple(sorted(lows & highs))
        lows, highs = tuple(sorted(lows - highs)), tuple(sorted(highs - lows))
        if h + len(lows) + len(highs) + len(pairs) > d:
            continue
        if h + len(xs) <= d:
            acc = result.get(m, Fraction(0)) + c
            if acc:
                result[m] = acc
            else:
                result.pop(m, None)
            continue
        # Build the relation instance whose sigma-complete term is +/- m.
        free = tuple(sorted(lows + tuple(b + g for b in highs)))
        rel = {(h, sum(1 << i for i in free)): 1}
        for j in pairs:
            rel = _raw_mul_terms(rel, {(1, 0): 1, (0, 1 << j | 1 << (j + g)): -1})
        rel = CohomologyClass(params, rel).terms
        rho = rel.pop(m)
        scale = -c / rho
        for mm, cc in rel.items():
            work.append((mm, scale * cc))
    return result


_fractions_st = st.fractions(min_value=-6, max_value=6, max_denominator=7)


@st.composite
def _term_maps(draw):
    """A term map at d <= 5, g <= 3 holding, besides random monomials, one
    with a complete xi-pair and a lone xi factor, one lone xi factor, one of
    degree above 2d, and a non-integer coefficient."""
    params = RingParams(draw(st.integers(1, 5)), draw(st.integers(1, 3)))
    d, g = params.d, params.g
    indices = st.integers(1, 2 * g)

    def xi_set(*forced):
        return tuple(sorted({draw(indices) for _ in range(draw(st.integers(0, 2 * g)))}
                            | set(forced)))

    monos = [(draw(st.integers(0, d + 1)), xi_set())
             for _ in range(draw(st.integers(0, 6)))]
    j, lone = draw(st.integers(1, g)), draw(indices)
    monos.append((draw(st.integers(0, d)), xi_set(j, j + g, lone)))
    monos.append((draw(st.integers(0, d)), (lone,)))
    monos.append((d + 1, xi_set()))
    terms = {m: draw(_fractions_st) for m in monos}
    terms[monos[0]] = Fraction(2 * draw(st.integers(-4, 4)) + 1, 2 * draw(st.integers(1, 3)))
    return params, terms


@settings(max_examples=60, deadline=None)
@given(_term_maps())
@example((RingParams(3, 2), {  # xi_2 sits between the pair (1, 3): a Koszul sign
    (1, (1, 2, 3)): Fraction(2, 3), (0, (1, 3)): Fraction(-1, 2),
    (4, ()): Fraction(1), (2, (2,)): Fraction(5)}))
def test_normal_form_matches_worklist_reference(data):
    params, terms = data
    got = _closed_form(params, terms)
    want = _worklist_normalize_terms(params, terms)
    assert got == want
    assert all(type(c) is Fraction for c in got.values())


def test_normal_form_matches_worklist_reference_with_many_pairs():
    # single monomials with up to six complete pairs, beyond the g <= 3 above
    rng = random.Random(20100)
    expanded = 0
    for _ in range(400):
        params = RingParams(rng.randint(4, 10), rng.randint(3, 6))
        d, g = params.d, params.g
        js = rng.sample(range(1, g + 1), g)
        n = rng.randint(1, min(6, g, d))
        pairs, rest = js[:n], js[n:]
        lone = rest[:rng.randint(0, min(len(rest), d - n))]
        free = [j + g * rng.randint(0, 1) for j in lone]
        s = tuple(sorted(pairs + [j + g for j in pairs] + free))
        top = d - len(free) - n  # the largest eta-power with k >= 0
        h = rng.randint(max(0, top - n), top + 1)
        c = Fraction(2 * rng.randint(-5, 4) + 1, 2 * rng.randint(1, 4))
        terms = {(h, s): c}
        want = _worklist_normalize_terms(params, terms)
        assert _closed_form(params, terms) == want, (params, terms)
        expanded += h + len(s) > d and bool(want)
    assert expanded >= 150


def _per_subset_normalize(params: RingParams, terms: dict) -> dict:
    """Reference: Macdonald's closed formula with the Koszul sign of xi_F
    against xi_Q * xi_{Q+g} computed for every subset Q on its own."""
    d, g = params.d, params.g
    result: dict = {}
    for (h, s), c in terms.items():
        if not c:
            continue
        if h + s.bit_count() <= d:
            result[(h, s)] = result.get((h, s), 0) + c
            continue
        pairs = s & (s >> g)
        free = s & ~(pairs | pairs << g)
        n = pairs.bit_count()
        k = d - h - free.bit_count() - n
        if k < 0:
            continue
        c *= _koszul(free, pairs | pairs << g) * (-1) ** (n * (n - 1) // 2)
        sub = pairs
        while True:
            q = sub.bit_count()
            if q <= k:
                t = sub | sub << g
                key = (h + n - q, free | t)
                coeff = c * (-1) ** (k - q + q * (q - 1) // 2) * comb(n - 1 - q, k - q)
                result[key] = result.get(key, 0) + _koszul(free, t) * coeff
            if not sub:
                break
            sub = (sub - 1) & pairs
    return result


def test_normalize_terms_per_pair_sign():
    # pairs 1 and 4 (xi_1 xi_6, xi_4 xi_9) and lone factors 3 and 5: the
    # span (1, 6) holds both lone factors, (4, 9) only xi_5, so only pair 4
    # carries a sign; counting "some lone factor in the span" instead of
    # "an odd number" signs pair 1 as well and flips (2, 568) and (3, 40)
    params = RingParams(6, 5)
    terms = {(1, 0b1001111010): 1}
    want = {(2, 568): -1, (2, 106): 1, (3, 40): -1}
    assert _per_subset_normalize(params, terms) == want
    assert _normalize_terms(params, terms) == want

    rng = random.Random(1962)
    for _ in range(300):
        params = RingParams(rng.randint(2, 10), rng.randint(2, 6))
        d, g = params.d, params.g
        terms = {}
        for _ in range(rng.randint(1, 4)):
            s = sum(1 << i for i in rng.sample(range(1, 2 * g + 1), rng.randint(2, 2 * g)))
            terms[(rng.randint(0, d), s)] = rng.randint(-9, 9)
        assert _normalize_terms(params, terms) == _per_subset_normalize(params, terms), \
            (params, terms)


@st.composite
def _normal_classes(draw):
    # any class the constructors produce is in normal form; a leading
    # coefficient that is negative or not an integer exercises the sign
    # and fraction spelling of format_class
    params = draw(st.builds(RingParams, st.integers(1, 5), st.integers(0, 3)))
    monos = draw(st.lists(
        st.tuples(_monomials(params),
                  st.fractions(min_value=-20, max_value=20, max_denominator=12)),
        min_size=1, max_size=4))
    return params, _class_from(params, monos)


@settings(max_examples=80, deadline=None)
@given(_normal_classes())
@example((RingParams(2, 1), (eta(RingParams(2, 1)) ** 2).scale(Fraction(-5, 2))))
@example((RingParams(3, 2), unit(RingParams(3, 2)).scale(Fraction(-1))))
def test_parse_format_round_trip(data):
    params, cls = data
    assert parse_class(format_class(cls), params) == cls


def test_serialization_round_trip():
    p = RingParams(3, 2)
    cls = pd_sigma0(p) - eta(p).scale(Fraction(5, 3))
    assert parse_class(str(cls), p) == cls
    assert parse_class("0", p).is_zero()
    assert str(zero(p)) == "0"
    assert parse_class("2*eta^2 - sigma", p) == \
        (eta(p) ** 2).scale(2) - sigma(p)
    with pytest.raises(ValueError):
        parse_class("eta^-1", p)
    with pytest.raises(ValueError):
        parse_class("blah", p)


@pytest.mark.parametrize("text,error,message", [
    ("eta^", ValueError, "bad exponent in 'eta^'"),
    ("eta^²", ValueError, "bad exponent in 'eta^²'"),
    ("2*", ValueError, "cannot parse factor ''"),
    ("1/2/3*eta", ValueError, "cannot parse factor '1/2/3'"),
    ("xi[]", ValueError, "cannot parse factor 'xi[]'"),
    ("eta*\t3", ValueError, "cannot parse factor '3'"),
    ("sigma[0]", ValueError, "sigma index 0 out of range 1..2"),
    ("xi[5]", ValueError, "xi index 5 out of range 1..4"),
    ("xi[1,1,5]", ValueError, "xi index 5 out of range 1..4"),
    ("1/0*xi[5]", ZeroDivisionError, "Fraction(1, 0)"),
    ("xi[5]*1/0", ValueError, "xi index 5 out of range 1..4"),
    ("+ -eta", ValueError, "dangling sign in '+ -eta'"),
    ("1/0*eta", ZeroDivisionError, "Fraction(1, 0)"),
    ("eta + 007/0*eta", ZeroDivisionError, "Fraction(7, 0)"),
])
def test_parse_class_refuses_with_message(text, error, message):
    # the first bad token, read left to right, names the failure
    with pytest.raises(error) as exc:
        parse_class(text, RingParams(2, 2))
    assert type(exc.value) is error and str(exc.value) == message


_P22 = RingParams(2, 2)


@pytest.mark.parametrize("text,want", [
    ("eta\t*sigma", multiply(eta(_P22), sigma(_P22))),
    ("eta^0", unit(_P22)),
    ("0*eta", zero(_P22)),
    ("-0", zero(_P22)),
    ("xi[1,1]", zero(_P22)),
    ("xi[3,1]", multiply(xi(_P22, 3), xi(_P22, 1))),
    ("3", unit(_P22).scale(3)),
    ("3\n*eta", eta(_P22).scale(3)),
    ("1/2*eta - 2/4*eta + 0/5", zero(_P22)),
])
def test_parse_class_accepts_edge_cases(text, want):
    got = parse_class(text, _P22)
    assert (got.keys, got.den) == (want.keys, want.den)


@pytest.mark.parametrize("params,text", [
    (RingParams(3, 2), "1/2*eta*xi[1,3] - 3/4*sigma*sigma[2]"),
    (RingParams(5, 4), "1/2*sigma^3*xi[4] - 2/3*eta*xi[1,5,2,6,8]"),
    (RingParams(2, 2), "eta^2*xi[1]^2 + 5*sigma^1 - xi[2,4]^0*eta"),
    (RingParams(7, 6), "-3/4*sigma^4*xi[1] + 2/9*eta^3*sigma*xi[1,7,8]"),
])
def test_parse_class_normalizes_once(monkeypatch, params, text):
    # the relations form an ideal, so a parse multiplies its factors raw and
    # reduces the summed terms once; only the steps of an explicit power
    # are normalized, each once
    calls = []

    def counting(p, terms):
        calls.append(None)
        return _normalize_terms(p, terms)

    monkeypatch.setattr(symring, "_normalize_terms", counting)
    parse_class(text, params)
    steps = sum(int(k) for k in re.findall(r"\^(\d+)", text))
    # a power-free parse makes exactly one call
    assert 1 <= len(calls) <= steps + 1


def test_written_out_nilpotent_product_stays_within_ring_degrees(monkeypatch):
    # at d = 1, sigma * sigma lies above the top degree 2, so sixteen written
    # factors are zero; a parse that kept raw monomials above degree 2d would
    # build C(32, k) keys at the k-th factor instead
    p = RingParams(1, 32)
    sizes = []

    def counting(t1, t2):
        out = _raw_mul_terms(t1, t2)
        sizes.append(len(out))
        assert len(out) <= comb(32, 2), "raw map grew past the ring's degrees"
        return out

    monkeypatch.setattr(symring, "_raw_mul_terms", counting)
    assert parse_class("*".join(["sigma"] * 16), p).is_zero()
    assert len(sizes) == 16


# -- key-map products against the class-by-class route ----------------------


def _random_expression(rng: random.Random, params: RingParams, parity):
    """Text of a random class and the same class built as the left-to-right
    ``multiply`` chain of its generators, one term at a time.  ``parity`` 0 or
    1 gives every term that degree parity; None leaves each term's to chance."""
    g = params.g
    texts, total = [], zero(params)
    for _ in range(rng.randint(1, 4)):
        factors, cls, odd = [], unit(params), 0
        for _ in range(rng.randint(0, 3)):
            kind = rng.choice(["eta", "sigma"] + (["xi", "sigma_j"] if g else []))
            if kind == "eta":
                text, base, n_xi = "eta", eta(params), 0
            elif kind == "sigma":
                text, base, n_xi = "sigma", sigma(params), 0
            elif kind == "sigma_j":
                j = rng.randint(1, g)
                text, base, n_xi = "sigma[%d]" % j, sigma_j(params, j), 0
            else:
                idx = [rng.randint(1, 2 * g) for _ in range(rng.randint(1, 3))]
                text, base, n_xi = "xi[%s]" % ",".join(map(str, idx)), unit(params), len(idx)
                for i in idx:
                    base = multiply(base, xi(params, i))
            power = rng.randint(0, params.d + 1) if rng.random() < 0.3 else 1
            for _ in range(power):
                cls = multiply(cls, base)
            odd ^= n_xi * power & 1
            factors.append(text if power == 1 else "%s^%d" % (text, power))
        if parity is not None and odd != parity:
            j = rng.randint(1, 2 * g)
            cls = multiply(cls, xi(params, j))
            factors.append("xi[%d]" % j)
        coeff = Fraction(rng.randint(0, 9), rng.randint(1, 4))
        factors.insert(rng.randint(0, len(factors)), str(coeff))
        sign = rng.choice("+-")
        texts.append(sign + "*".join(factors))
        total = total + cls.scale(coeff if sign == "+" else -coeff)
    return "".join(texts), total


def _random_expressions(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        params = RingParams(rng.randint(1, 7), rng.randint(0, 4))
        parity = rng.choice([0, 1, None] if params.g else [0, None])
        yield params, _random_expression(rng, params, parity)


def test_parse_class_matches_multiply_chain():
    # even, odd and inhomogeneous classes at d 1..7, g 0..4; a class's fields
    # are canonical, so equal classes have equal keys and denominators
    nonzero = 0
    for params, (text, want) in _random_expressions(1962, 400):
        got = parse_class(text, params)
        assert (got.keys, got.den) == (want.keys, want.den), (params, text)
        nonzero += not got.is_zero()
    assert nonzero >= 200


def test_power_matches_repeated_multiply():
    for params, (text, _) in _random_expressions(2010, 150):
        cls = parse_class(text, params)
        want = unit(params)
        for k in range(params.d + 3):
            got = cls ** k
            assert (got.keys, got.den) == (want.keys, want.den), (params, text, k)
            want = multiply(want, cls)


def _pairwise_raw_mul(t1: dict, t2: dict) -> dict:
    """Reference: the raw product with a _koszul sign per pair of keys."""
    out: dict = {}
    for (h1, s1), c1 in t1.items():
        for (h2, s2), c2 in t2.items():
            if s1 & s2:
                continue
            key = (h1 + h2, s1 | s2)
            out[key] = out.get(key, 0) + _koszul(s1, s2) * c1 * c2
    return out


def test_raw_product_signs_match_pairwise_koszul():
    rng = random.Random(87)
    for _ in range(500):
        bits = rng.sample(range(1, 17), rng.randint(0, 16))
        cut = rng.randint(0, len(bits))
        s1, s2 = sum(1 << b for b in bits[:cut]), sum(1 << b for b in bits[cut:])
        assert _raw_mul_terms({(0, s1): 1}, {(1, s2): 1}) == {(1, s1 | s2): _koszul(s1, s2)}
    for _ in range(200):
        t1, t2 = ({(rng.randint(0, 3), rng.getrandbits(12) << 1): rng.randint(-9, 9)
                   for _ in range(rng.randint(1, 5))} for _ in range(2))
        assert _raw_mul_terms(t1, t2) == _pairwise_raw_mul(t1, t2), (t1, t2)


@pytest.mark.parametrize("text", ["sigma^1000000000", "xi[1]^1000000000",
                                  "-1/3*eta*xi[1,2]^1000000000"])
def test_huge_power_of_nilpotent_factor_is_zero_at_once(monkeypatch, text):
    # the power loop stops at the first zero, within 2d + 1 steps; a loop
    # that runs on fails at the first product past the bound
    p = RingParams(3, 2)
    calls = []

    def counting(params, t1, t2):
        calls.append(None)
        assert len(calls) <= 2 * p.d + 4, "the power loop did not stop at zero"
        return _mul_keys(params, t1, t2)

    monkeypatch.setattr(symring, "_mul_keys", counting)
    assert parse_class(text, p).is_zero()


# -- integrals read off raw products ----------------------------------------


def _random_normal_class(rng: random.Random, params: RingParams) -> CohomologyClass:
    """Normal form of 1-4 random monomials of any degree and parity."""
    bits = range(1, 2 * params.g + 1)
    keys = {}
    for _ in range(rng.randint(1, 4)):
        mask = sum(1 << b for b in rng.sample(bits, rng.randint(0, len(bits))))
        keys[(rng.randint(0, params.d), mask)] = rng.randint(-9, 9)
    return CohomologyClass(params, _normalize_terms(params, keys))


def test_top_functional_matches_integral_of_normal_form():
    # raw products of two or three random classes hold odd, inhomogeneous
    # and above-2d monomials; the relations form an ideal, so the eta^d
    # coefficient of the normal form is a functional on the raw product
    rng = random.Random(1962)
    nonzero = 0
    for d in range(1, 9):
        for g in range(0, 6):
            p = RingParams(d, g)
            for _ in range(12):
                raw = _random_normal_class(rng, p).keys
                for _ in range(rng.randint(1, 2)):
                    raw = _raw_mul_terms(raw, _random_normal_class(rng, p).keys)
                want = integrate(CohomologyClass(p, _normalize_terms(p, raw)))
                assert _top(p, raw) == want, (p, raw)
                nonzero += want != 0
    assert nonzero >= 80


def _random_degree2_class(rng: random.Random, params: RingParams) -> CohomologyClass:
    """A seeded rational combination of eta and the products xi_i * xi_j."""
    g = params.g
    cls = eta(params).scale(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    for _ in range(rng.randint(0, 4) if g else 0):
        if rng.random() < 0.5:
            term = sigma_j(params, rng.randint(1, g))
        else:
            i, j = rng.sample(range(1, 2 * g + 1), 2)
            term = multiply(xi(params, i), xi(params, j))
        cls = cls + term.scale(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    return cls


def test_pairing_sigma0_matches_product_with_poincare_dual():
    rng = random.Random(1999)
    for d in range(2, 9):
        for g in range(0, 6):
            p = RingParams(d, g)
            pd = pd_sigma0(p)
            for _ in range(6):
                c = _random_degree2_class(rng, p)
                assert pairing(c, 0) == integrate(multiply(c, pd)), (p, c)
