import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vortexmoduli import symring as sr
from vortexmoduli import tensor_oracle as to
from vortexmoduli.moduli_numerics import ParameterError
from vortexmoduli.symring import RingParams


def permute_factors(a: to.TensorClass, perm: tuple[int, ...]) -> to.TensorClass:
    """Apply a permutation of the tensor slots with Koszul bookkeeping.

    ``perm[i]`` is the slot the i-th factor moves to.  The sign is the parity
    of the permutation restricted to odd-degree entries.
    """
    d, g = a.params.d, a.params.g
    if sorted(perm) != list(range(d)):
        raise ValueError("not a permutation of 0..%d" % (d - 1))
    out: dict = {}
    for t, c in a.terms.items():
        new = [0] * d
        for i, e in enumerate(t):
            new[perm[i]] = e
        # inversions among odd entries: pairs i<j whose images swap order
        sign = 1
        odd_slots = [i for i, e in enumerate(t) if to._factor_degree(e, g) % 2]
        for ai in range(len(odd_slots)):
            for bi in range(ai + 1, len(odd_slots)):
                if perm[odd_slots[ai]] > perm[odd_slots[bi]]:
                    sign = -sign
        to._accumulate(out, tuple(new), sign * c)
    return to.TensorClass(a.params, out)


def test_pullback_eta_d2():
    p = RingParams(2, 1)
    t = to.pullback(sr.eta(p))
    beta = 2 * p.g + 1
    assert dict(t.terms) == {(beta, 0): Fraction(1), (0, beta): Fraction(1)}


def test_pullback_eta_power_kills_diagonal():
    p = RingParams(2, 1)
    t = to.pullback(sr.eta(p) ** 2)
    beta = 2 * p.g + 1
    assert dict(t.terms) == {(beta, beta): Fraction(2)}


def test_pullback_sigma_d1():
    p = RingParams(1, 1)
    t = to.pullback(sr.sigma(p))
    assert dict(t.terms) == {(3,): Fraction(1)}
    assert to.oracle_integrate(t) == 1


def test_odd_square_and_anticommute():
    p = RingParams(2, 1)
    a11 = to.TensorClass(p, {(1, 0): Fraction(1)})
    a22 = to.TensorClass(p, {(0, 2): Fraction(1)})
    assert to.oracle_multiply(a11, a11).is_zero()
    ab = to.oracle_multiply(a11, a22)
    ba = to.oracle_multiply(a22, a11)
    assert ab == ba.scale(-1) and not ab.is_zero()


def test_alpha_pair_gives_beta():
    p = RingParams(1, 1)
    a1 = to.TensorClass(p, {(1,): Fraction(1)})
    a2 = to.TensorClass(p, {(2,): Fraction(1)})
    assert dict(to.oracle_multiply(a1, a2).terms) == {(3,): Fraction(1)}
    assert dict(to.oracle_multiply(a2, a1).terms) == {(3,): Fraction(-1)}


def test_oracle_integrals():
    assert to.oracle_integrate(to.pullback(sr.eta(RingParams(3, 1)) ** 3)) == 1
    p22 = RingParams(2, 2)
    assert to.oracle_integrate(
        to.pullback(sr.multiply(sr.eta(p22), sr.sigma(p22)))) == 2
    p43 = RingParams(4, 3)
    cls = sr.multiply(sr.eta(p43) ** 2, sr.sigma(p43) ** 2)
    assert to.oracle_integrate(to.pullback(cls)) == 6


def test_integrate_requires_full_top_tuple():
    p = RingParams(2, 1)
    assert to.oracle_integrate(to.pullback(sr.eta(p))) == 0


def _draw_class(draw, params):
    cls = sr.zero(params)
    n_terms = draw(st.integers(1, 2))
    for _ in range(n_terms):
        h = draw(st.integers(0, params.d))
        term = sr.eta(params) ** h
        if params.g:
            idx = draw(st.lists(st.integers(1, 2 * params.g), unique=True, max_size=3))
            for j in sorted(idx):
                term = sr.multiply(term, sr.xi(params, j))
        coeff = draw(st.fractions(max_denominator=4))
        cls = cls + term.scale(coeff)
    return cls


@st.composite
def _class_pairs(draw):
    params = RingParams(draw(st.integers(1, 3)), draw(st.integers(0, 2)))
    return params, _draw_class(draw, params), _draw_class(draw, params)


@settings(max_examples=40, deadline=None)
@given(_class_pairs())
def test_pullback_is_ring_homomorphism(data):
    _params, a, b = data
    lhs = to.pullback(sr.multiply(a, b))
    rhs = to.oracle_multiply(to.pullback(a), to.pullback(b))
    assert lhs == rhs


def test_pullback_keeps_the_xi_order():
    # an integral sees only eta^d, so it cannot tell xi_1 xi_3 from
    # xi_3 xi_1 = -xi_1 xi_3; the tensor itself can
    p = RingParams(2, 2)
    want = to.oracle_multiply(to.generator_xi(p, 1), to.generator_xi(p, 3))
    assert dict(want.terms) == {(5, 0): 1, (0, 5): 1, (1, 3): 1, (3, 1): -1}
    assert to.pullback(sr.multiply(sr.xi(p, 1), sr.xi(p, 3))) == want


@pytest.mark.parametrize("j", [1.5, 2.0, float("nan")])
def test_generator_xi_refuses_a_non_integer_index(j):
    # as symring.xi does: a float index would land in the slot keys
    with pytest.raises(ParameterError, match="xi index must be an integer"):
        to.generator_xi(RingParams(2, 2), j)


@pytest.mark.parametrize("j", [0, 5])
def test_generator_xi_refuses_an_index_out_of_range(j):
    with pytest.raises(ValueError, match="out of range"):
        to.generator_xi(RingParams(2, 2), j)


def test_generator_products_keep_integer_coefficients():
    p = RingParams(3, 2)
    t = to.monomial_tensor(p, 1, (1, 4))
    assert t.terms and all(type(c) is int for c in t.terms.values())
    assert all(type(c) is Fraction for c in t.scale(Fraction(1, 2)).terms.values())


@pytest.mark.parametrize("g", range(5))
def test_slot_table_is_the_factor_product(g):
    table = to._slot_table(g)
    assert len(table) == 2 * g + 2
    for e1 in range(2 * g + 2):
        assert len(table[e1]) == 2 * g + 2
        for e2 in range(2 * g + 2):
            assert table[e1][e2] == to._factor_mul(e1, e2, g), (e1, e2)


@pytest.mark.parametrize("d,g", [(2, 1), (3, 2)])
def test_symmetric_group_invariance(d, g):
    params = RingParams(d, g)
    classes = [sr.eta(params), sr.sigma(params)]
    if g >= 1:
        classes.append(sr.xi(params, 1))
        classes.append(sr.multiply(sr.eta(params), sr.xi(params, 2 * g)))
    for cls in classes:
        t = to.pullback(cls)
        for perm in itertools.permutations(range(d)):
            assert permute_factors(t, perm) == t, (cls, perm)


def test_ring_agrees_with_oracle_beyond_small_grid():
    # exhaustive over all top-half monomials at d=5, g=3: cheap insurance
    # that the normal form does not degrade past the small parameter grid
    params = RingParams(5, 3)
    for k in range(0, 7):
        for s in itertools.combinations(range(1, 7), k):
            for h in range(0, (10 - k) // 2 + 1):
                cls = sr.eta(params) ** h
                for j in s:
                    cls = sr.multiply(cls, sr.xi(params, j))
                t = to.monomial_tensor(params, h, s)
                assert sr.integrate(cls) == to.oracle_integrate(t), (h, s)


def test_monomial_tensor_outside_normal_form():
    # pullback only passes normal-form monomials; the route itself uses no
    # ring relation, so squares vanish and the factor order sets the sign
    p = RingParams(2, 1)
    assert to.monomial_tensor(p, 0, (1, 1)).is_zero()
    assert to.monomial_tensor(p, 1, (2, 2)).is_zero()
    assert to.monomial_tensor(p, 3, ()).is_zero()
    assert to.oracle_integrate(to.monomial_tensor(p, 1, (1, 2))) == 1
    assert to.oracle_integrate(to.monomial_tensor(p, 1, (2, 1))) == -1
    assert to.monomial_tensor(p, 0, ()) == to.unit_tensor(p)


def test_permute_factors_signs():
    # swapping two odd slots flips the sign of a pure alpha x alpha term
    p = RingParams(2, 1)
    t = to.TensorClass(p, {(1, 2): Fraction(1)})
    swapped = permute_factors(t, (1, 0))
    assert dict(swapped.terms) == {(2, 1): Fraction(-1)}
    with pytest.raises(ValueError):
        permute_factors(t, (0, 0))


def _pairwise_multiply(a, b):
    """Reference: the oracle product with the Koszul sign recomputed from
    the degrees of both tuples for every pair."""
    g = a.params.g
    out = {}
    for s, cs in a.terms.items():
        for t, ct in b.terms.items():
            d = len(s)
            suffix = [0] * (d + 1)
            for i in range(d - 1, -1, -1):
                suffix[i] = suffix[i + 1] + to._factor_degree(s[i], g)
            coeff, tup = 1, []
            for i in range(d):
                if to._factor_degree(t[i], g) % 2 and suffix[i + 1] % 2:
                    coeff = -coeff
                prod = to._factor_mul(s[i], t[i], g)
                if prod is None:
                    break
                coeff *= prod[0]
                tup.append(prod[1])
            else:
                key = tuple(tup)
                out[key] = out.get(key, 0) + coeff * cs * ct
    return {k: c for k, c in out.items() if c}


def test_oracle_multiply_matches_pairwise_signs():
    # sparse seeded tensors: each slot is the unit, an alpha or beta, so
    # odd and even factors mix and many pairs survive the slot products
    rng = random.Random(2010)
    for _ in range(300):
        params = RingParams(rng.randint(1, 4), rng.randint(1, 3))
        d, beta = params.d, 2 * params.g + 1

        def tensor():
            terms = {}
            for _ in range(rng.randint(1, 6)):
                t = tuple(rng.choice((0, 0, beta, rng.randint(1, beta - 1))) for _ in range(d))
                terms[t] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            return to.TensorClass(params, {t: c for t, c in terms.items() if c})

        a, b = tensor(), tensor()
        for x, y in ((a, b), (b, a), (a, a)):
            assert dict(to.oracle_multiply(x, y).terms) == _pairwise_multiply(x, y), (x, y)
