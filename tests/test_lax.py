import importlib.util
import random

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from rop.jets import JetSpace
from rop.lax import (LAMBDA, DegeneratePairError, FirstOrderOperator, LaxPair,
                     NotLambdaLinearError, check_lax, commutator, equation_system,
                     split_lambda, split_lax_operator)
from rop.linearize import linearize
from rop.problem import parse_problem

import pointwise
from conftest import (PROBLEM_DIR, evaluate, jet_symbols, random_poly, random_rational,
                      to_form)
from pointwise import equal, normalize, reference_total_derivative

LAM = sp.Symbol(LAMBDA)


@pytest.fixture()
def ex2_space():
    return JetSpace(["y", "z", "t", "x"])


def _make(space, free, dirs):
    """FirstOrderOperator.make of expressions converted with to_form."""
    return FirstOrderOperator.make(to_form(free, space),
                                   {v: to_form(c, space) for v, c in dirs.items()})


def _pair(op1, op2):
    """The Lax pair of two operators, split and checked as the parser does."""
    return LaxPair.from_splits(*(split_lax_operator(op) for op in (op1, op2)))


def _apply(op, e):
    """op applied to the Form e."""
    return op.free * e + op.directional_apply(e)


def _dfkn2_ops(s):
    j = jet_symbols(s)
    op1 = _make(s, 0, {"t": 1, "z": -LAM, "x": -j("u", "t") / j("u", "x")})
    op2 = _make(s, 0, {"y": 1, "x": -LAM - j("u", "y") / j("u", "x")})
    return op1, op2


class TestFirstOrderOperator:
    def test_make_drops_zero_coefficients(self, space):
        op = _make(space, 0, {"x": 1, "y": 0})
        assert op.directions == ("x",)
        assert op.dir_coeff("y") == 0

    def test_apply_product(self, space):
        j = jet_symbols(space)
        op = _make(space, j("u"), {"x": j("u", "y")})
        e = to_form(j("u", "z"), space)
        assert normalize(_apply(op, e)
                         - j("u") * j("u", "z")
                         - j("u", "y") * j("u", "xz")) == 0

    def test_apply_to_unknown(self, space):
        op = _make(space, 2, {"x": 3})
        j = jet_symbols(space)
        assert normalize(op.apply_to_unknown("U")
                         - 2 * j("U") - 3 * j("U", "x")) == 0

    def test_linearity_of_algebra(self, space, rng):
        j = jet_symbols(space)
        syms = [j("u"), j("u", "x")]
        a = _make(space, random_rational(rng, syms), {"x": random_rational(rng, syms)})
        b = _make(space, random_rational(rng, syms),
                  {"x": random_rational(rng, syms), "y": random_rational(rng, syms)})
        e = to_form(j("u", "z") / j("u"), space)
        lhs = _apply(a + b, e)
        rhs = normalize(_apply(a, e) + _apply(b, e))
        assert normalize(lhs - rhs) == 0
        assert normalize(_apply(a - b, e) - _apply(a, e) + _apply(b, e)) == 0


class TestCommutator:
    def test_coordinate_fields_commute(self, space):
        p = _make(space, 0, {"x": 1})
        q = _make(space, 0, {"y": 1})
        assert commutator(p, q).is_zero()

    def test_against_direct_application(self, space, rng):
        # [p, q](e) computed operator-wise matches p(q(e)) - q(p(e))
        j = jet_symbols(space)
        syms = [j("u"), j("u", "x"), j("u", "y")]

        def small():
            return random_rational(rng, syms, terms=2, degree=1)

        for _ in range(3):
            p = _make(space, 0, {"x": small(), "y": small()})
            q = _make(space, 0, {"y": small(), "z": small()})
            e = to_form(small(), space)
            lhs = _apply(commutator(p, q), e)
            rhs = (p.directional_apply(q.directional_apply(e))
                   - q.directional_apply(p.directional_apply(e)))
            assert normalize(lhs - rhs) == 0

    def test_antisymmetry(self, space):
        j = jet_symbols(space)
        p = _make(space, j("u"), {"x": j("u", "y")})
        q = _make(space, 0, {"x": 1, "z": j("u")})
        c1 = commutator(p, q)
        c2 = commutator(q, p)
        assert (c1 + c2).is_zero()


class TestSplitLambda:
    def test_second_example_split(self, ex2_space):
        s = ex2_space
        j = jet_symbols(s)
        op1, op2 = _dfkn2_ops(s)
        x1, x0 = split_lambda(op2)
        # op2 = D_y - lam D_x - (u_y/u_x) D_x = X0 - lam X1  =>  X1 = D_x,
        # X0 = D_y - (u_y/u_x) D_x
        assert equal(x1.dir_coeff("x"), 1)
        assert x1.dir_coeff("y") == 0
        assert equal(x0.dir_coeff("y"), 1)
        assert equal(x0.dir_coeff("x"), -j("u", "y") / j("u", "x"))
        # lam X1 - X0 is -op2
        recon = x1.scaled(to_form(LAM, s)) - x0
        assert normalize(recon.dir_coeff("x") + op2.dir_coeff("x")) == 0
        assert normalize(recon.dir_coeff("y") + op2.dir_coeff("y")) == 0

    def test_lambda_quadratic_rejected(self, space):
        op = _make(space, 0, {"x": LAM**2})
        with pytest.raises(NotLambdaLinearError):
            split_lambda(op)

    def test_lambda_in_denominator_rejected(self, space):
        op = _make(space, 0, {"x": 1 / (LAM + 1)})
        with pytest.raises(NotLambdaLinearError):
            split_lambda(op)


class TestLaxPair:
    def test_from_operators_round_trip(self, ex2_space):
        op1, op2 = _dfkn2_ops(ex2_space)
        pair = _pair(op1, op2)
        for i, op in enumerate((op1, op2)):
            recon = pair.full_operator(i)
            for v in set(op.directions) | set(recon.directions):
                assert normalize(recon.dir_coeff(v) - op.dir_coeff(v)) == 0

    def test_no_lambda_part_rejected(self, space):
        op1 = _make(space, 0, {"x": 1})
        op2 = _make(space, 0, {"y": 1, "x": LAM})
        with pytest.raises(NotLambdaLinearError):
            _pair(op1, op2)

    def test_proportional_directions_rejected(self, space):
        op1 = _make(space, 0, {"x": LAM, "y": 1})
        op2 = _make(space, 0, {"x": 2 * LAM, "y": 1})
        with pytest.raises(DegeneratePairError):
            _pair(op1, op2)

    def test_capital_jets_in_coefficients_rejected(self, space):
        op1 = _make(space, 0, {"x": LAM, "y": jet_symbols(space)("U")})
        op2 = _make(space, 0, {"y": LAM, "z": 1})
        with pytest.raises(ValueError):
            _pair(op1, op2)


class TestCheckLax:
    def test_examples_pass(self, eq5, dfkn2, dfkn3, pavlov):
        for prob in (eq5, dfkn2, dfkn3, pavlov):
            report = check_lax(prob.lax, to_form(prob.F, prob.space))
            assert report.passed, (prob.name, report.residuals)
            assert all(r == 0 for r in report.residuals)

    def test_multipliers_vanish_on_examples(self, dfkn2):
        report = check_lax(dfkn2.lax, to_form(dfkn2.F, dfkn2.space))
        assert report.multipliers == (0, 0)

    def test_perturbed_pair_fails(self, dfkn2):
        s = dfkn2.space
        j = jet_symbols(s)
        op1 = _make(s, 0, {"t": 1, "z": -LAM, "x": -j("u", "t") / j("u", "y")})
        op2 = _make(s, 0, {"y": 1, "x": -LAM - j("u", "y") / j("u", "x")})
        bad = _pair(op1, op2)
        report = check_lax(bad, to_form(dfkn2.F, s))
        assert not report.passed
        assert report.residuals

    def test_wrong_equation_fails(self, dfkn2, eq5):
        s = dfkn2.space
        j = jet_symbols(s)
        other_F = j("u", "x") * j("u", "yz") - j("u", "y") * j("u", "xz")
        report = check_lax(dfkn2.lax, to_form(other_F, s))
        assert not report.passed


# -- the operator algebra on expressions, the reference ------------------
#
# The algebra as it was before the operators were Forms: an operator is
# (free, {direction: coefficient}) with every coefficient normalized by
# the gcd canonicaliser of pointwise.py, total derivatives go through
# sp.diff, the lambda split through a Poly in lam, and the linearisation
# through sp.diff by each jet.


def reference_make(free, dirs):
    dirs = {v: pointwise.normalize(c) for v, c in dirs.items()}
    return pointwise.normalize(free), {v: c for v, c in sorted(dirs.items()) if c != 0}


def reference_directional_apply(op, e, space):
    return pointwise.normalize(sum((c * reference_total_derivative(e, v, space)
                                    for v, c in op[1].items()), sp.S.Zero))


def reference_commutator(p, q, space):
    dirs = {}
    for v in set(p[1]) | set(q[1]):
        dirs[v] = (reference_directional_apply(p, q[1].get(v, 0), space)
                   - reference_directional_apply(q, p[1].get(v, 0), space))
    free = (reference_directional_apply(p, q[0], space)
            - reference_directional_apply(q, p[0], space))
    return reference_make(free, dirs)


def reference_split_lambda(op):
    """(X1, X0) with op = X0 - lam*X1."""
    x1, x0 = {}, {}
    for v, c in list(op[1].items()) + [(None, op[0])]:
        c = pointwise.normalize(c)
        if c.as_numer_denom()[1].has(LAM):
            raise NotLambdaLinearError(c)
        p = sp.Poly(c, LAM)
        if p.degree() > 1:
            raise NotLambdaLinearError(c)
        x1[v], x0[v] = -p.nth(1), p.nth(0)
    return tuple(reference_make(x.pop(None), x) for x in (x1, x0))


def reference_linearize(F, space):
    F = sp.sympify(F)
    coeffs = []
    for s in sorted(F.free_symbols, key=str):
        jv = space.jet_var(s.name)
        if jv is not None:
            c = pointwise.normalize(sp.diff(F, s))
            if c != 0:
                coeffs.append((jv.index, c))
    return sorted(coeffs, key=lambda pair: (len(pair[0]), pair[0]))


def reference_check_lax(x1, x0, F, space):
    """The commutator-closure check on reference operators, reducing
    through the program's rewrite system as the expression-based check
    did; returns the fields of a LaxReport."""
    sys = equation_system(to_form(F, space))

    def reduce(e):
        return sys.reduce(evaluate(e, sys.ring)).as_expr()

    ops = [reference_make(LAM * x1[i][0] - x0[i][0],
                          {v: LAM * x1[i][1].get(v, 0) - x0[i][1].get(v, 0)
                           for v in set(x1[i][1]) | set(x0[i][1])}) for i in (0, 1)]
    (op1, op2), comm = ops, reference_commutator(*ops, space)
    d1, d2, dc = op1[1], op2[1], comm[1]
    dirs = sorted(set(dc) | set(d1) | set(d2))
    pivot = None
    for i, v in enumerate(dirs):
        for w in dirs[i + 1:]:
            det = reduce(d1.get(v, 0) * d2.get(w, 0) - d1.get(w, 0) * d2.get(v, 0))
            if det != 0:
                pivot = (v, w, det)
                break
        if pivot:
            break
    if pivot is None:
        return False, [], None, sys.assumptions, \
            "no pair of independent directional coefficients"
    v, w, det = pivot
    cv, cw = reduce(dc.get(v, 0)), reduce(dc.get(w, 0))
    a = pointwise.normalize((cv * d2.get(w, 0) - cw * d2.get(v, 0)) / det)
    b = pointwise.normalize((d1.get(v, 0) * cw - d1.get(w, 0) * cv) / det)
    residuals = [reduce(dc.get(d, 0) - a * d1.get(d, 0) - b * d2.get(d, 0))
                 for d in dirs if d not in (v, w)]
    residuals.append(reduce(comm[0] - a * op1[0] - b * op2[0]))
    residuals = [r for r in residuals if r != 0]
    return not residuals, residuals, (a, b), sys.assumptions, \
        f"pivot directions {v}, {w}"


def _srepr(op):
    """An operator's coefficients as srepr strings, Form or reference."""
    if isinstance(op, FirstOrderOperator):
        return sp.srepr(op.free.as_expr()), [(v, sp.srepr(c.as_expr())) for v, c in op.dirs]
    return sp.srepr(op[0]), [(v, sp.srepr(c)) for v, c in op[1].items()]


ALGEBRA_SPACE = JetSpace(["x", "y", "z"], params=["alpha"])
_u = jet_symbols(ALGEBRA_SPACE)
LOCALISING = [_u("u", "x"), _u("u", "y") - _u("u", "z"), sp.Symbol("alpha") + 1]
NUMERATOR_SYMBOLS = [_u("u"), _u("u", "x"), _u("u", "y"), _u("u", "xz"), sp.Symbol("alpha")]


def _coefficient(rng, lam_linear=True):
    """A small rational coefficient over products of the localising
    factors; lambda-linear unless lam_linear is False."""
    num = random_poly(rng, NUMERATOR_SYMBOLS, terms=2, degree=1)
    if lam_linear and rng.random() < 0.5:
        num += LAM * random_poly(rng, NUMERATOR_SYMBOLS, terms=1, degree=1)
    den = sp.Mul(*rng.sample(LOCALISING, rng.randint(0, 2)))
    return num / (rng.choice([1, -2, 3]) * den)


def _random_operator(rng):
    dirs = {v: _coefficient(rng) for v in rng.sample(["x", "y", "z"], 2)}
    return _coefficient(rng), dirs


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32))
def test_operator_algebra_matches_reference(seed):
    rng = random.Random(seed)
    s = ALGEBRA_SPACE
    p_expr, q_expr = _random_operator(rng), _random_operator(rng)
    p, q = _make(s, *p_expr), _make(s, *q_expr)
    rp, rq = reference_make(*p_expr), reference_make(*q_expr)
    assert _srepr(p) == _srepr(rp) and _srepr(q) == _srepr(rq)
    assert _srepr(commutator(p, q)) == _srepr(reference_commutator(rp, rq, s))
    for op, ref in ((p, rp), (q, rq)):
        assert [_srepr(x) for x in split_lambda(op)] == \
            [_srepr(x) for x in reference_split_lambda(ref)]
    F = _coefficient(rng, False) * _u("u", "yz") + _coefficient(rng, False)
    got = [(idx, sp.srepr(c.as_expr())) for idx, c in linearize(to_form(F, s)).coeffs]
    assert got == [(idx, sp.srepr(c)) for idx, c in reference_linearize(F, s)]


def _bench_inputs():
    """The benchmark's input generator, bench/inputs.py."""
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", PROBLEM_DIR.parent / "bench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _corpus_and_doubled_lax():
    """Each corpus problem, and each copy of one with one jet-dependent
    Lax term doubled: every input the benchmark's reject workload can
    make of that kind."""
    inputs = _bench_inputs()
    cases = []
    for name in inputs.PROBLEMS:
        text = (PROBLEM_DIR / f"{name}.rop").read_text()
        cases.append(pytest.param(name, text, id=name))
        for li, ti in inputs.lax_candidates(text):
            cases.append(pytest.param(name, inputs.doubled_lax(text, li, ti),
                                      id=f"{name}-doubled-lax{li}-term{ti}"))
    return cases


@pytest.mark.parametrize("name,text", _corpus_and_doubled_lax())
def test_check_lax_matches_reference(name, text):
    prob = parse_problem(text)
    report = check_lax(prob.lax, to_form(prob.F, prob.space))

    def reference(op):
        return op.free.as_expr(), {v: c.as_expr() for v, c in op.dirs}

    passed, residuals, multipliers, assumptions, note = reference_check_lax(
        [reference(op) for op in prob.lax.x1], [reference(op) for op in prob.lax.x0],
        prob.F, prob.space)
    assert report.passed == passed
    assert [sp.srepr(r.as_expr()) for r in report.residuals] == \
        [sp.srepr(r) for r in residuals]
    assert sp.srepr(tuple(m.as_expr() for m in report.multipliers)) == sp.srepr(multipliers)
    assert report.assumptions == assumptions and report.note == note
    assert passed == (text == (PROBLEM_DIR / f"{name}.rop").read_text())
