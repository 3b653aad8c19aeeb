"""exact-ring: symplectic volumes, ring expressions and the tensor oracle.

One pass holds
  * 35 volume ops: kahler_class.symplectic_volume on every (d, g) with
    d in 6..12 and g in 3..7, with seeded rational (c_eta, c_sigma); checked
    against Macdonald's closed form;
  * 60 expression ops: parse_class + multiply + integrate, plus pd_sigma0
    and pairing, three per (d, g) with d in 2..6 and g in 1..4.  Two are on
    classes polynomial in eta and sigma_j, checked against the closed-form
    integral of Macdonald's presentation; one has lone xi factors (where the
    Koszul signs matter), checked against tensor_oracle built from the
    generators, never from symring.  pd_sigma0 is checked through the oracle
    and pairing against the pairing table;
  * 12 oracle ops: pullback + oracle_multiply + oracle_integrate on the
    first even pair of each (d, g) with d <= 4; checked against the
    closed-form integral of Macdonald's presentation.
The seed picks coefficients, expressions and the op order; the sizes are the
same in every pass, so every pass costs the same.
"""

from __future__ import annotations

import random
from fractions import Fraction

import references as ref
from harness import FRACTION_KERNEL_S, OK, Op, NullTracer, expect_equal, fraction_kernel

from vortexmoduli import kahler_class, symring
from vortexmoduli import tensor_oracle as oracle

NAME = "exact-ring"
TAIL_PCT = 90          # 107 ops per pass: 10 lie beyond p90
RSS = "self"
GAUGE = (fraction_kernel, FRACTION_KERNEL_S)
LAYER_METRICS = (
    "kahler_class.symplectic_volume_s",
    "symring.multiply_s", "symring.multiply_calls", "symring.raw_products",
    "symring.parse_class_s", "symring.integrate_s", "symring.pd_sigma0_s",
    "symring.pairing_s",
    "tensor_oracle.pullback_s", "tensor_oracle.oracle_integrate_s",
    "tensor_oracle.terms",
)

VOLUME_GRID = tuple((d, g) for d in range(6, 13) for g in range(3, 8))
EXPRESSION_GRID = tuple((d, g) for d in range(2, 7) for g in range(1, 5))
# The dense oracle product costs up to seconds at d = 6; oracle ops stay small.
ORACLE_MAX_D = 4


def setup(root, tracer):
    _volume_op(Fraction(1), Fraction(1), 3, 2).call(NullTracer())
    for op in _expression_ops(random.Random(0), 2, 1):
        op.call(NullTracer())
    return None


def make_pass(ctx, seed: int, index: int) -> list:
    rng = random.Random("%s/%d/%d" % (NAME, seed, index))
    ops = [_volume_op(_rational(rng, positive=True), _rational(rng, positive=True), d, g)
           for (d, g) in VOLUME_GRID]
    for (d, g) in EXPRESSION_GRID:
        ops.extend(_expression_ops(rng, d, g))
    rng.shuffle(ops)
    return ops


def probe(ctx, seed: int) -> list:
    rng = random.Random("%s/probe/%d" % (NAME, seed))
    return [_volume_op(_rational(rng, True), _rational(rng, True), 9, 5)] + \
        _expression_ops(rng, 4, 3)


def cleanup(ctx) -> None:
    pass


# ---------------------------------------------------------------------------
# inputs


def _rational(rng: random.Random, positive: bool = False) -> Fraction:
    num = rng.randint(1, 12)
    if not positive and rng.random() < 0.5:
        num = -num
    return Fraction(num, rng.randint(1, 7))


def _even_factors(rng, half_degree: int, g: int) -> list:
    """eta^h times sigma / sigma[j] factors, of degree 2*half_degree."""
    n_sigma = rng.randint(0, min(half_degree, g))
    factors = []
    for _ in range(n_sigma):
        factors.append(("sigma", rng.randint(1, g)) if rng.random() < 0.6 else ("sigma", 0))
    if half_degree > n_sigma:
        factors.insert(rng.randint(0, len(factors)), ("eta", half_degree - n_sigma))
    return factors


def _odd_factors(rng, degree: int, g: int) -> list:
    """eta^h times a product of distinct xi's in seeded order."""
    n_xi = rng.choice([k for k in range(0, min(degree, 2 * g) + 1) if (degree - k) % 2 == 0])
    factors = []
    if degree > n_xi:
        factors.append(("eta", (degree - n_xi) // 2))
    if n_xi:
        factors.append(("xi", tuple(rng.sample(range(1, 2 * g + 1), n_xi))))
    rng.shuffle(factors)
    return factors


def class_terms(rng, degree: int, g: int, even: bool) -> list:
    """1-3 terms (coefficient, factors) of a homogeneous class."""
    make = _even_factors if even else _odd_factors
    arg = degree // 2 if even else degree
    return [(_rational(rng), make(rng, arg, g)) for _ in range(rng.randint(1, 3))]


def _format_factor(factor) -> str:
    kind, val = factor
    if kind == "eta":
        return "eta" if val == 1 else "eta^%d" % val
    if kind == "sigma":
        return "sigma" if val == 0 else "sigma[%d]" % val
    return "xi[%s]" % ",".join(str(i) for i in val)


def format_terms(terms) -> str:
    parts = []
    for coeff, factors in terms:
        body = "*".join(["%d/%d" % (abs(coeff.numerator), coeff.denominator)]
                        + [_format_factor(f) for f in factors])
        sign = "-" if coeff < 0 else ("+" if parts else "")
        parts.append(sign + body)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# independent references


def _even_reference(terms, g: int) -> dict:
    """Expand into {(eta_power, frozenset of sigma indices): coefficient}."""
    total: dict = {}
    for coeff, factors in terms:
        cls = {(0, frozenset()): coeff}
        for kind, val in factors:
            if kind == "eta":
                step = {(val, frozenset()): Fraction(1)}
            else:
                js = range(1, g + 1) if val == 0 else (val,)
                step = {(0, frozenset((j,))): Fraction(1) for j in js}
            out: dict = {}
            for (h1, j1), c1 in cls.items():
                for (h2, j2), c2 in step.items():
                    if j1 & j2:
                        continue
                    key = (h1 + h2, j1 | j2)
                    out[key] = out.get(key, 0) + c1 * c2
            cls = out
        for key, c in cls.items():
            total[key] = total.get(key, 0) + c
    return total


def _oracle_class(terms, params) -> oracle.TensorClass:
    """Tensor image of the expression, from the oracle's generators only."""
    g = params.g
    xi_t = {j: oracle.generator_xi(params, j) for j in range(1, 2 * g + 1)}
    sig = {j: oracle.oracle_multiply(xi_t[j], xi_t[j + g]) for j in range(1, g + 1)}
    total = oracle.TensorClass(params, {})
    for coeff, factors in terms:
        t = oracle.unit_tensor(params)
        for kind, val in factors:
            if kind == "eta":
                for _ in range(val):
                    t = oracle.oracle_multiply(t, oracle.generator_eta(params))
            elif kind == "xi":
                for j in val:
                    t = oracle.oracle_multiply(t, xi_t[j])
            elif val == 0:
                s = oracle.TensorClass(params, {})
                for j in range(1, g + 1):
                    s = s + sig[j]
                t = oracle.oracle_multiply(t, s)
            else:
                t = oracle.oracle_multiply(t, sig[val])
        total = total + t.scale(coeff)
    return total


# ---------------------------------------------------------------------------
# ops


def _volume_op(c_eta: Fraction, c_sigma: Fraction, d: int, g: int) -> Op:
    def call(tr):
        cls = kahler_class.KahlerClass2(c_eta, c_sigma)
        with tr.span("kahler_class.symplectic_volume"):
            return kahler_class.symplectic_volume(cls, d, g)

    def check(vol):
        return expect_equal(vol, ref.macdonald_volume(c_eta, c_sigma, d, g),
                            "volume(d=%d, g=%d)" % (d, g))

    return Op("volume", (d, g, c_eta, c_sigma), call, check)


def _expression_ops(rng, d: int, g: int) -> list:
    """Two even expression ops, one odd one, and (for d <= ORACLE_MAX_D) an
    oracle op on the first even pair.  Each product a*b lands in top degree
    2d."""
    params = symring.RingParams(d, g)
    ops, first_even = [], None
    for even in (True, True, False):
        deg_a = 2 * rng.randint(1, d - 1) if even else rng.randint(1, 2 * d - 1)
        a = class_terms(rng, deg_a, g, even)
        b = class_terms(rng, 2 * d - deg_a, g, even)
        c = [(_rational(rng), [("eta", 1)]), (_rational(rng), [("sigma", 0)]),
             (_rational(rng), [("sigma", rng.randint(1, g))])]
        ops.append(_expression_op(params, a, b, c, even))
        first_even = first_even or (a, b)
    if d <= ORACLE_MAX_D:
        ops.append(_oracle_op(params, *first_even))
    return ops


def _oracle_top_integral(a: oracle.TensorClass, b: oracle.TensorClass) -> Fraction:
    """oracle_integrate(a*b), pairing each tuple of a with the one tuple of b
    that completes it to beta x ... x beta, so the cost is linear in |a|.
    Factor encoding as in tensor_oracle: 0 unit, 1..2g alpha, 2g+1 beta."""
    params = a.params
    g, beta = params.g, 2 * params.g + 1

    def dual(e: int) -> int:
        if e in (0, beta):
            return beta - e
        return e + g if e <= g else e - g

    total = Fraction(0)
    for s, cs in a.terms.items():
        t = tuple(dual(e) for e in s)
        if t in b.terms:
            total += oracle.oracle_integrate(oracle.oracle_multiply(
                oracle.TensorClass(params, {s: cs}),
                oracle.TensorClass(params, {t: b.terms[t]})))
    return total


def _expression_op(params, a_terms, b_terms, c_terms, even: bool) -> Op:
    text_a, text_b, text_c = (format_terms(t) for t in (a_terms, b_terms, c_terms))
    d, g = params.d, params.g

    def call(tr):
        with tr.span("symring.parse_class"):
            a = symring.parse_class(text_a, params)
        with tr.span("symring.parse_class"):
            b = symring.parse_class(text_b, params)
        with tr.span("symring.multiply"):
            prod = symring.multiply(a, b)
        tr.count("symring.multiply_calls")
        tr.count("symring.raw_products", len(a.terms) * len(b.terms))
        with tr.span("symring.integrate"):
            value = symring.integrate(prod)
        with tr.span("symring.parse_class"):
            c = symring.parse_class(text_c, params)
        with tr.span("symring.pd_sigma0"):
            pd = symring.pd_sigma0(params)
        with tr.span("symring.pairing"):
            w0 = symring.pairing(c, 0)
        with tr.span("symring.pairing"):
            w1 = symring.pairing(c, 1)
        return value, pd, (w0, w1)

    def check(result):
        value, pd, pairings = result
        if even:
            want = ref.even_product_integral(_even_reference(a_terms, g),
                                             _even_reference(b_terms, g), d)
        else:
            want = _oracle_top_integral(_oracle_class(a_terms, params),
                                        _oracle_class(b_terms, params))
        verdict = expect_equal(value, want, "integral of (%s)*(%s) at d=%d, g=%d"
                               % (text_a, text_b, d, g))
        if verdict.status != OK:
            return verdict
        pd_eta = oracle.oracle_integrate(oracle.oracle_multiply(
            oracle.pullback(pd), oracle.generator_eta(params)))
        verdict = expect_equal(pd_eta, d, "<eta, PD(Sigma_0)> at d=%d, g=%d" % (d, g))
        if verdict.status != OK:
            return verdict
        c_eta, c_sig, c_sig_j = (t[0] for t in c_terms)
        want_pairs = tuple(ref.pairing_value(c_eta, c_sig * g + c_sig_j, d, j)
                           for j in (0, 1))
        return expect_equal(pairings, want_pairs, "pairings of %r" % text_c)

    return Op("expression", (d, g, text_a, text_b, text_c), call, check)


def _oracle_op(params, a_terms, b_terms) -> Op:
    text_a, text_b = format_terms(a_terms), format_terms(b_terms)
    a = symring.parse_class(text_a, params)
    b = symring.parse_class(text_b, params)
    g = params.g

    def call(tr):
        with tr.span("tensor_oracle.pullback"):
            ta = oracle.pullback(a)
        with tr.span("tensor_oracle.pullback"):
            tb = oracle.pullback(b)
        tr.count("tensor_oracle.terms", len(ta.terms) + len(tb.terms))
        with tr.span("tensor_oracle.oracle_multiply"):
            tp = oracle.oracle_multiply(ta, tb)
        with tr.span("tensor_oracle.oracle_integrate"):
            return oracle.oracle_integrate(tp)

    def check(value):
        want = ref.even_product_integral(_even_reference(a_terms, g),
                                         _even_reference(b_terms, g), params.d)
        return expect_equal(value, want, "oracle integral of (%s)*(%s)" % (text_a, text_b))

    return Op("oracle", (params.d, g, text_a, text_b), call, check)
