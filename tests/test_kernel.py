import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ
from sympy.polys.orderings import grevlex
from sympy.polys.polyerrors import ExactQuotientFailed
from sympy.polys.rings import PolyRing

from rop import kernel
from rop.engine import build_relations
from rop.kernel import DegenerateExpressionError
from rop.problem import ProblemSyntaxError, parse_problem

import pointwise
from conftest import canonical, evaluate, packed, random_poly, random_rational
from pointwise import (PoleError, as_fraction, eval_rational, probably_nonzero,
                       random_point)

u_s, u_z, u_y, u_x, u_t = sp.symbols("u_s u_z u_y u_x u_t")
u_zt, u_yz, u_xz = sp.symbols("u_zt u_yz u_xz")
alpha, lam = sp.symbols("alpha lam")


class TestNormalize:
    def test_commutativity(self):
        assert canonical(u_s * u_z - u_z * u_s) == 0

    def test_cancellation(self):
        assert canonical((u_y / u_s) * u_s) == u_y

    def test_gcd_reduction(self):
        bare = (u_x * u_yz - u_y * u_xz) / u_x**2
        padded = (u_x * (u_x * u_yz - u_y * u_xz)) / u_x**3
        assert canonical(bare) == canonical(padded)

    def test_monic_denominator(self):
        n, d = as_fraction(u_y / (2 * u_x))
        assert d == u_x
        assert n == u_y / 2
        # the program's form keeps the content out of the denominator
        assert canonical(u_y / (2 * u_x)) == sp.Rational(1, 2) * u_y / u_x
        n, d = as_fraction(u_y / (2 * u_x + 4 * u_y))
        assert d == u_x + 2 * u_y
        assert canonical(u_y / (2 * u_x + 4 * u_y)) == sp.Rational(1, 2) * u_y / (u_x + 2 * u_y)

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateExpressionError):
            canonical(u_x / (u_y * u_x - u_x * u_y))
        hidden_zero = (u_x + u_y)**2 - u_x**2 - 2 * u_x * u_y - u_y**2
        with pytest.raises(DegenerateExpressionError):
            canonical(1 / hidden_zero)

    @pytest.mark.parametrize("e", [sp.Float(0.5) * u_x, sp.sqrt(u_x) + 1,
                                   sp.sin(u_x) / u_y, u_x**sp.Rational(1, 3),
                                   u_x**u_y, sp.I * u_x])
    def test_non_rational_input_rejected(self, e):
        # the parser, the one way into a Form, admits only rational input
        text = ("problem p\nvars x y z\nequation u_xy = 0\nlax D_x - lam*D_y\n"
                f"lax D_y - lam*D_z\ntwist f1_0 = {sp.sstr(e).replace('**', '^')}\n")
        with pytest.raises(ProblemSyntaxError) as exc:
            parse_problem(text)
        assert exc.value.line == 6


def partial_diff(e, s: sp.Symbol) -> sp.Expr:
    """The partial derivative as linearize takes it: Form.derive with the
    partial derivative of the polynomial ring, which every key ignores."""
    ring = kernel.FormRing({t.name for t in sp.sympify(e).free_symbols | {s}})
    i = ring.index[s.name]
    return evaluate(e, ring).derive(lambda p: p.diff(i), lambda _key: None).as_expr()


class TestPartialDiff:
    def test_product_of_distinct_symbols(self):
        assert partial_diff(u_s * u_zt, u_zt) == u_s

    def test_quotient_rule(self):
        assert partial_diff(u_y / u_x, u_x) == canonical(-u_y / u_x**2)

    def test_spectral_parameter_coefficient(self):
        # c = 1 + alpha - lam*alpha
        assert partial_diff(1 + alpha - lam * alpha, lam) == -alpha

    def test_commutes(self, rng):
        syms = [u_x, u_y, u_z]
        for _ in range(20):
            e = random_rational(rng, syms)
            a, b = rng.sample(syms, 2)
            assert partial_diff(partial_diff(e, a), b) == \
                partial_diff(partial_diff(e, b), a)


class TestEmbed:
    def test_embed_keeps_the_value(self):
        small = kernel.FormRing({"u_x", "u_y", "alpha"})
        big = kernel.FormRing({"u_x", "u_y", "u_z", "alpha"})
        e = (u_y**2 - alpha * u_x) / (u_x + alpha * u_y) / u_x
        assert big.embed(evaluate(e, small)) == evaluate(e, big)

    def test_extra_generators_follow_the_base_and_keep_its_numerators(self):
        # c sorts between alpha and u_x, yet as an extra generator it
        # comes after the base ones, so every monomial of small is the
        # same in big
        small = kernel.FormRing({"u_x", "u_y", "alpha"})
        big = kernel.FormRing({"u_x", "u_y", "alpha"}, ["c", "u_x", "beta"])
        assert big.symbols == ("alpha", "u_x", "u_y", "beta", "c")
        form = evaluate((u_y**2 - alpha * u_x) / (u_x + alpha * u_y) / u_x, small)
        got = big.embed(form)
        assert all(got.terms[k] is p for k, p in form.terms.items())
        assert got == evaluate((u_y**2 - alpha * u_x) / (u_x + alpha * u_y) / u_x, big)

    def test_extra_generator_prints_by_name(self):
        # c has a higher index than u_x here; the printer sorts by name
        ring = kernel.FormRing(["u_x"], ["c"])
        assert kernel.fmt(ring.symbol("c") * ring.symbol("u_x")) == "c*u_x"

    @pytest.mark.parametrize("e", [u_y * u_x, u_x / (u_y + 1)])
    def test_missing_generator_rejected(self, e):
        small = kernel.FormRing({"u_x", "u_y"})
        big = kernel.FormRing({"u_x", "u_z"})
        with pytest.raises(ValueError, match="u_y"):
            big.embed(evaluate(e, small))


class TestTruthAndHash:
    def test_a_form_is_true_iff_nonzero(self):
        ring = kernel.FormRing({"u_x", "alpha"})
        assert not ring.zero and not evaluate(u_x - u_x, ring)
        assert all([evaluate(u_x, ring), ring.constant(-1), evaluate(1 / u_x, ring),
                    ring.symbol("U")])

    def test_equal_forms_hash_alike(self):
        ring = kernel.FormRing({"u_x", "alpha"})
        a = evaluate((u_x**2 - alpha**2) / (u_x + alpha), ring)
        b = evaluate(u_x - alpha, ring)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, evaluate(u_x, ring), ring.symbol("U")}) == 3
        # a Form equal to a rational hashes as that rational
        for c in (0, 3, Fraction(-1, 2)):
            assert ring.constant(c) == c and hash(ring.constant(c)) == hash(c)


class TestSubstitute:
    def test_degenerate_after_substitution(self):
        with pytest.raises(DegenerateExpressionError):
            canonical((1 / u_x).xreplace({u_x: sp.S.Zero}))


class TestEvalRational:
    def test_direct(self):
        assert eval_rational(u_y / u_x, {u_y: 3, u_x: 2}) == sp.Rational(3, 2)

    def test_zero_everywhere(self):
        assert eval_rational(sp.S.Zero, {}) == 0

    def test_pole(self):
        with pytest.raises(PoleError):
            eval_rational(1 / u_x, {u_x: 0})

    def test_unbound_symbol(self):
        with pytest.raises(ValueError):
            eval_rational(u_x + u_y, {u_x: 1})

    def test_no_false_zero_verdicts(self, rng):
        # canonical-nonzero expressions must be flagged nonzero by the
        # 8-point random-evaluation probe; the canonical form is the ground truth
        syms = [u_x, u_y, u_z]
        for _ in range(200):
            e = random_rational(rng, syms)
            if canonical(e) == 0:
                continue
            assert probably_nonzero(e, random.Random(rng.randint(0, 10**9)))


@st.composite
def rationals(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    return random_rational(rng, [u_x, u_y, u_z])


@settings(max_examples=60, deadline=None)
@given(rationals())
def test_normalize_idempotent(e):
    assert canonical(canonical(e)) == canonical(e)


@settings(max_examples=60, deadline=None)
@given(rationals(), rationals(), rationals())
def test_ring_laws_up_to_canonical_form(a, b, c):
    assert canonical(a * (b + c)) == canonical(a * b + a * c)
    assert canonical((a + b) * c) == canonical(a * c + b * c)


@settings(max_examples=40, deadline=None)
@given(rationals())
def test_zero_iff_zero_at_all_points(e):
    rng = random.Random(7)
    if canonical(e) == 0:
        for _ in range(5):
            try:
                v = eval_rational(e, random_point(e.free_symbols, rng))
            except PoleError:
                continue
            assert v == 0
    else:
        assert probably_nonzero(e, rng, points=16)


def reference_pair(e):
    """The canonical pair computed on the expression tree: together,
    cancel, expand, and division by the grevlex leading coefficient of
    the denominator (a Poly over all of its symbols)."""
    n, d = sp.cancel(sp.together(sp.sympify(e))).as_numer_denom()
    n, d = sp.expand(n), sp.expand(d)
    if n == 0:
        return sp.S.Zero, sp.S.One
    if d.is_Number:
        lc = d
    else:
        lc = sp.Poly(d, *kernel.symbol_order(d.free_symbols)).LC(order="grevlex")
    return sp.expand(n / lc), sp.expand(d / lc)


JETS_AND_PARAMS = [u_x, u_xz, u_yz, u_zt, alpha, lam]


@st.composite
def sums_of_fractions(draw):
    """Sums of fractions whose denominators are signed monomials
    (powers of jets, as in the rewrite rules) or polynomials with
    several terms and either sign of leading coefficient."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    e = sp.S.Zero
    for _ in range(rng.randint(1, 3)):
        num = random_poly(rng, JETS_AND_PARAMS, terms=3, degree=2)
        if rng.random() < 0.5:
            den = rng.choice([-3, -1, 1, 2]) * rng.choice(JETS_AND_PARAMS[:4])**rng.randint(1, 3)
        else:
            den = random_poly(rng, JETS_AND_PARAMS, terms=2, degree=2)
            if den.is_Number:
                den += rng.choice(JETS_AND_PARAMS)
        e += num / den**rng.randint(1, 2)
    return e


@settings(max_examples=80, deadline=None)
@given(sums_of_fractions())
def test_canonical_pair_matches_reference(e):
    assert as_fraction(e) == reference_pair(e)
    assert sp.srepr(canonical(e)) == sp.srepr(pointwise.normalize(e))


U, Ut_x = sp.symbols("U Ut_x")
LOCALISING = [u_x, u_s, u_y - u_z, alpha + 1]
MET_LATER = lam * u_x + u_y


def _fraction(rng, factors, keys=()):
    """A sum of one or two fractions over products of the given factors,
    with numerators over the jets, alpha, lam and the keys (at most
    linearly).  Kept small: the oracle's gcd on larger ones takes seconds."""
    e = sp.S.Zero
    for _ in range(rng.randint(1, 2)):
        num = random_poly(rng, [u_x, u_y, u_z, alpha, lam], terms=2, degree=2)
        if keys:
            num += random_poly(rng, [u_x, alpha], terms=1, degree=1) * rng.choice(keys)
        den = sp.Mul(*[rng.choice(factors)**rng.randint(1, 2)
                       for _ in range(rng.randint(0, 2))])
        e += num / (rng.choice([1, -2, 3]) * den)
    return e


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32))
def test_form_matches_normalize(seed):
    # a fresh ring per example, so lam*u_x + u_y is first met when the
    # second fraction is converted, after the first one's factors
    rng = random.Random(seed)
    ring = kernel.FormRing(["u_x", "u_s", "u_y", "u_z", "alpha", "lam"])
    a = _fraction(rng, LOCALISING, keys=(U, Ut_x))
    b = _fraction(rng, LOCALISING + [MET_LATER])
    fa, fb = evaluate(a, ring), evaluate(b, ring)
    oracle = pointwise.normalize
    assert sp.srepr(fa.as_expr()) == sp.srepr(oracle(a))
    assert sp.srepr((fa * fb).as_expr()) == sp.srepr(oracle(a * b))
    assert sp.srepr((fa - fb).as_expr()) == sp.srepr(oracle(a - b))
    if fb != 0:
        assert sp.srepr((fa * fb.inverse()).as_expr()) == sp.srepr(oracle(a / b))
    assert (fa - fa) == 0 and fa == evaluate(oracle(a), ring)


def test_inverse_registers_the_factors_on_their_generators():
    # generators the polynomial does not use sit between those it does,
    # so a factor mapped back by position lands on the wrong ones
    beta, u_xy = sp.symbols("beta u_xy")
    ring = kernel.FormRing(["alpha", "beta", "u_x", "u_xy", "u_y", "u_yz", "u_z"])
    e = (alpha - 1) * (u_x + u_y) * u_z**2
    inverse = evaluate(e, ring).inverse()
    want = dict(sp.factor_list(e)[1])
    assert {ring.scalar(ring.factors[fid]).as_expr(): k
            for fid, k in inverse.den.items()} == want
    assert len(ring.factors) == len(want)
    assert inverse.terms == {kernel.ONE: ring.one}


def test_inverse_of_a_constant_over_a_denominator(monkeypatch):
    # a rational numerator has no factor to find: the registry is not searched
    ring = kernel.FormRing(["u_x", "u_y"])
    e = evaluate(3 / (2 * (u_x + u_y) * u_y), ring)
    factors = list(ring.factors)
    monkeypatch.setattr(ring, "_factor", lambda p: pytest.fail(f"factored {p}"))
    assert e.inverse() == evaluate(2 * (u_x + u_y) * u_y / 3, ring)
    assert e.inverse().den == {} and ring.factors == factors


# -- monomials against sympy's ----------------------------------------------


def _sparse(rng, n, terms):
    """terms random monomials over n generators, each with at most four
    of them, of exponent 1-3, as {exponent tuple: coefficient}."""
    out = {}
    for _ in range(terms):
        e = [0] * n
        for i in rng.sample(range(n), min(n, rng.randint(0, 4))):
            e[i] = rng.randint(1, 3)
        out[tuple(e)] = rng.choice([-3, -1, 1, 2, Fraction(1, 2)])
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_monomials_match_sympy(seed):
    # rings of 1 to 240 generators: leading monomials, products and exact
    # quotients of sparse polynomials, against sympy's sparse ring in grevlex
    rng = random.Random(seed)
    n = rng.randint(1, 240)
    ring = PolyRing(sp.symbols(f"x0:{n}"), QQ, grevlex)
    a, b = _sparse(rng, n, rng.randint(1, 6)), _sparse(rng, n, rng.randint(1, 6))
    ka, kb = (kernel.Poly({packed(m): c for m, c in d.items()}) for d in (a, b))
    sa, sb = (ring.from_dict(dict(d)) for d in (a, b))

    def ours(p):
        return kernel.Poly({packed(m): Fraction(int(c.numerator), int(c.denominator))
                            for m, c in p.items()})

    assert ka.LM == packed(sa.LM) and kb.LM == packed(sb.LM)
    assert ka * kb == ours(sa * sb)
    sb = sb.quo_ground(sb.LC)
    kb = ours(sb)
    assert (ka * kb).exquo(kb) == ours((sa * sb).exquo(sb)) == ka
    try:
        want = ours(sa.exquo(sb))
    except ExactQuotientFailed:
        want = None
    assert ka.exquo(kb) == want


def test_monomial_limits():
    ring = kernel.FormRing(["u_x", "u_y"])
    x, y = ring.gen(0), ring.gen(1)
    assert (x**32767).LM == 32767 * kernel.monomial(0)
    with pytest.raises(kernel.ExponentOverflowError):
        x**32768
    with pytest.raises(kernel.ExponentOverflowError):  # a product of two sums
        (x**20000 + y) * (x**20000 + ring.one)
    with pytest.raises(kernel.ExponentOverflowError):  # a total degree
        (x * y)**16384
    assert issubclass(kernel.ExponentOverflowError, ValueError)
    with pytest.raises(kernel.ExponentOverflowError):  # a shift past a field
        kernel._shift(x, 0, 70000)
    assert (x**2).exquo(x * y) is None


def test_monomial_limits_hold_in_any_number_of_generators():
    ring = kernel.FormRing(f"x{i:04}" for i in range(3000))
    x, y = ring.gen(2998), ring.gen(2999)
    with pytest.raises(kernel.ExponentOverflowError):
        (x**20000 + y) * (x**20000 + ring.one)
    with pytest.raises(kernel.ExponentOverflowError):
        kernel._shift(y**2, 2999, 32766)
    assert (x**3 * y).exquo(x * y) == x**2
    assert (x * y**2).exquo(x**2) is None and (y**2).exquo(x) is None
    assert (y * ring.gen(0)).exquo(x) is None


# -- the printer against sympy's ------------------------------------------

PRINT_NAMES = ["alpha", "lam", "u_x", "u_y", "u_z"]
PRINT_KEYS = ["U", "Ut_x"]
PRINT_DENOMINATORS = ["u_x", "u_y**2", "u_x + u_y", "u_y - 2*u_z", "alpha*lam - alpha - 1",
                      "3*u_x - alpha*u_z", "lam + 1", "u_x**2 + u_z"]


def _sstr(form) -> str:
    return sp.sstr(form.as_expr()).replace("**", "^")


def _random_printed_form(rng, ring):
    """A sum of one to four terms, each a rational times a monomial in
    the generators, some times a key, over zero to two factors from
    PRINT_DENOMINATORS; the leading coefficients take either sign."""
    sym = {n: ring.symbol(n) for n in PRINT_NAMES + PRINT_KEYS}
    num = ring.zero
    for _ in range(rng.randint(1, 4)):
        term = ring.constant(kernel.Fraction(rng.choice([-3, -2, -1, 1, 2, 5]),
                                             rng.choice([1, 1, 2, 3])))
        for _ in range(rng.randint(0, 3)):
            term = term * sym[rng.choice(PRINT_NAMES)]
        if rng.random() < 0.3:
            term = term * sym[rng.choice(PRINT_KEYS)]
        num = num + term
    for _ in range(rng.randint(0, 2)):
        num = num * evaluate(rng.choice(PRINT_DENOMINATORS), ring).inverse()
    return num


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, len(PRINT_NAMES) - 1))
def test_printer_matches_sympy(seed, k):
    # the first k names as extra generators, indexed after the others:
    # the printer orders by name, not by index
    rng = random.Random(seed)
    ring = kernel.FormRing(PRINT_NAMES[k:], PRINT_NAMES[:k])
    form = _random_printed_form(rng, ring)
    assert kernel.fmt(form) == _sstr(form)


@pytest.mark.parametrize("text", [
    "1 - u_x", "2 - lam", "u_y/(2*u_x)", "3*u_y/(2*(u_x + u_y))",
    "(u_y/2 + u_z)/(u_x^2*u_y)", "(-u_y - u_z)/(u_x + u_y)", "0", "-1/2",
    "u_x^(-2)", "1/u_x", "-1/u_x^2", "1/(2*u_x)", "1/(u_x + u_y)", "1 - u_x^2",
    "-u_x*u_y + 1", "-u_x - 1", "U*u_x/(u_x + u_y)"])
def test_printer_shapes(text):
    # sympy's two-term Add special case (a positive constant before one
    # negative factor), a lone power, and both kinds of denominator
    e = sp.sympify(text.replace("^", "**"))
    form = evaluate(e, kernel.FormRing(s.name for s in e.free_symbols if s.name != "U"))
    assert kernel.fmt(form) == text == _sstr(form)


def test_renamed_keys_sort_by_their_new_names(dfkn2):
    # as rop hierarchy prints a level: psi_1 sorts after alpha and before
    # u_x, where Ut sorted first
    relset = build_relations(dfkn2.lax, dfkn2.twist, "forward")
    for e in relset.relations:
        names = {k: k.replace("Ut", "psi_1", 1).replace("U", "psi_0", 1)
                 for k in e.terms if k is not kernel.ONE}
        want = e.as_expr().xreplace({sp.Symbol(k): sp.Symbol(v) for k, v in names.items()})
        assert kernel.fmt(e.renamed(names)) == sp.sstr(want).replace("**", "^")


# -- factoring against sympy's factor_list ------------------------------------

FACTOR_NAMES = ["alpha", "lam", "u_x", "u_y", "u_z"]


def _degree_one_factor(rng):
    """a*x + b, x a random generator and a, b small polynomials in others."""
    x = rng.choice(FACTOR_NAMES)
    others = [sp.Symbol(n) for n in FACTOR_NAMES if n != x]
    a = random_poly(rng, others, terms=2, degree=1)
    while a == 0:
        a = random_poly(rng, others, terms=2, degree=1)
    return sp.expand(a * sp.Symbol(x) + random_poly(rng, others, terms=2, degree=2))


def _factor_like_sympy(e):
    """(program, sympy) for the polynomial e, each as (unit, [(factor,
    multiplicity), ...]) with the factors monic (grevlex): the program's
    in the order they are registered, sympy's in its own."""
    used = sorted((s.name for s in e.free_symbols))
    ring = kernel.FormRing(FACTOR_NAMES)
    c, exps = ring._factor(evaluate(e, ring).terms[kernel.ONE])
    got = (c, [(ring.factors[fid], k) for fid, k in exps.items()])
    own = PolyRing(used, QQ, grevlex)
    unit, factors = own.from_expr(e).factor_list()
    want = []
    units = [kernel.monomial(ring.index[s]) for s in used]
    for g, k in factors:
        unit *= g.LC**k
        want.append((kernel.Poly({sum(e * u for e, u in zip(m, units)):
                                  Fraction(int(c.numerator), int(c.denominator))
                                  for m, c in g.quo_ground(g.LC).items()}), k))
    return got, (unit, want)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32))
def test_factoring_matches_factor_list(seed):
    rng = random.Random(seed)
    e = rng.choice([1, -2, sp.Rational(3, 2)])
    for _ in range(rng.randint(1, 3)):
        e *= _degree_one_factor(rng)**rng.randint(1, 2)
    if rng.random() < 0.5:
        e *= sp.Symbol(rng.choice(FACTOR_NAMES))**rng.randint(1, 2)
    e = sp.expand(e)
    assume(not e.is_number)
    got, want = _factor_like_sympy(e)
    assert got[0] == want[0] and Counter(got[1]) == Counter(want[1])


@pytest.mark.parametrize("text,fallback", [
    ("lam*(u_y - u_z)*(alpha*lam - alpha - 1)", 0),  # dfkn3's Lax polynomial
    ("u_x**2 + u_y**2", 1), ("u_x**2 - u_y**2", 1),
    # degree 1 in u_z, whose coefficient has no generator of degree 1
    ("(u_x**2 + u_y**2)*u_z + 1", 1), ("(u_x**2 - u_y**2)*(u_z + 1)", 1),
    ("(u_x + u_y)*(u_x - lam*u_y)", 0)])
def test_factoring_falls_back_only_without_a_degree_one_generator(
        text, fallback, monkeypatch):
    calls = []
    sympy_factors = kernel._sympy_factors
    monkeypatch.setattr(kernel, "_sympy_factors",
                        lambda p: calls.append(p) or sympy_factors(p))
    got, want = _factor_like_sympy(sp.expand(sp.sympify(text)))
    assert got[0] == want[0] and Counter(got[1]) == Counter(want[1])
    assert len(calls) == fallback


# -- substitution against sympy -----------------------------------------------


def _random_element(rng, ring, degree, terms):
    """A random element of sympy's ring: terms monomials of total degree
    at most degree, with coefficients from -2, -1, 1, 2 and 1/2 and,
    over QQ(alpha), alpha, alpha + 1 and 1/alpha."""
    pool = [-2, -1, 1, 2, sp.Rational(1, 2)]
    if ring.domain != QQ:
        pool += [alpha, alpha + 1, 1 / alpha]
    out = ring.zero
    for _ in range(terms):
        m = ring.one
        for _ in range(rng.randint(0, degree)):
            m *= rng.choice(ring.gens)
        out += ring.domain.from_sympy(sp.sympify(rng.choice(pool))) * m
    return out


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_substitution_matches_compose(seed):
    # the values are affine, as the solver's are, or of degree 2
    rng = random.Random(seed)
    n, over_alpha = rng.randint(1, 4), rng.random() < 0.5
    ring = PolyRing(sp.symbols(f"c0:{n}"), QQ.frac_field(alpha) if over_alpha else QQ)
    ours = kernel.FormRing([f"c{i}" for i in range(n)] + ["alpha"] * over_alpha)
    p = _random_element(rng, ring, 3, rng.randint(0, 5))
    replaced = rng.sample(range(n), rng.randint(1, n))
    values = {i: _random_element(rng, ring, rng.choice([1, 1, 2]), rng.randint(0, 3))
              for i in replaced}
    want = p.compose([(ring.gens[i], v) for i, v in values.items()])
    forms = {ours.index[f"c{i}"]: evaluate(v.as_expr(), ours) for i, v in values.items()}
    substitute = ours.substitution(forms, forms.__getitem__)
    assert substitute(evaluate(p.as_expr(), ours)) == evaluate(want.as_expr(), ours)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_substitution_into_denominators_matches_cancel(seed):
    # a factor of the denominator that holds a substituted generator is
    # substituted and inverted again
    rng = random.Random(seed)
    ring = kernel.FormRing(["u_x", "u_y", "u_z"])
    e = random_rational(rng, [u_x, u_y, u_z]) / random_rational(rng, [u_x, u_y])
    values = {u_x: random_rational(rng, [u_x, u_y, u_z]), u_y: random_poly(rng, [u_x, u_z])}
    want = sp.cancel(e.xreplace(values))
    assume(not want.has(sp.zoo, sp.nan) and sp.denom(sp.together(e)).xreplace(values) != 0)
    forms = {ring.index[s.name]: evaluate(v, ring) for s, v in values.items()}
    try:
        got = ring.substitution(forms, forms.__getitem__)(evaluate(e, ring))
    except DegenerateExpressionError:
        assume(False)  # a factor vanishes where the expanded denominator does not
    assert got == evaluate(want, ring)


def test_substitution_names_a_vanishing_denominator_factor():
    ring = kernel.FormRing(["u_x", "u_y", "u_z"])
    e = evaluate(u_z / ((u_x - u_y) * u_z + 1), ring)
    substitute = ring.substitution([ring.index["u_x"]], lambda _i: evaluate(u_y - 1 / u_z, ring))
    with pytest.raises(DegenerateExpressionError,
                       match=r"^the denominator factor u_x\*u_z - u_y\*u_z \+ 1 vanishes$"):
        substitute(e)
