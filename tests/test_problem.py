import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rop.engine import ansatz_twist, default_ansatz, verify
from rop.jets import JetSpace, OrderOverflowError
from rop.kernel import DegenerateExpressionError, FormRing, fmt
from rop.problem import (ProblemSyntaxError, _ExprParser, _tokenize, parse_basis,
                         parse_problem)

from conftest import jet_symbols, jets_in
from pointwise import equal, normalize, reference_total_derivative

MINIMAL = """\
problem demo
vars x y z
equation u_x*u_yz - u_y*u_xz = 0
lax D_y - lam*D_x
lax D_z - lam*D_y
"""


class TestParsing:
    def test_minimal(self):
        prob = parse_problem(MINIMAL)
        assert prob.name == "demo"
        assert prob.space.variables == ("x", "y", "z")
        j = jet_symbols(prob.space)
        assert normalize(prob.F - j("u", "x") * j("u", "yz")
                         + j("u", "y") * j("u", "xz")) == 0
        assert prob.twist is None

    def test_examples_parse(self, eq5, dfkn2, dfkn3):
        assert eq5.name == "eq5"
        assert eq5.orientation == "swapped"
        assert dfkn2.orientation == "forward"
        assert dfkn3.space.params and str(dfkn3.space.params[0]) == "alpha"

    def test_one_jet_space_per_configuration(self, dfkn2):
        # the problem's space is its ring's, and that of every ring built
        # on it, with ansatz constants or without
        rep = verify(dfkn2.F, dfkn2.lax, dfkn2.twist, "forward")
        assert dfkn2.space is dfkn2.F.ring.space is rep.relations.relations[0].ring.space
        twist, _ = ansatz_twist(default_ansatz(dfkn2.F, dfkn2.lax))
        ring = verify(dfkn2.F, dfkn2.lax, twist, "forward").relations.relations[0].ring
        assert ring is not dfkn2.F.ring and ring.space is dfkn2.space

    def test_total_derivative_expansion(self, dfkn2):
        # equation was given via D_z(u_y/u_x) - D_x(u_t/u_x), cleared of
        # the u_x^2 denominator
        s = dfkn2.space
        j = jet_symbols(s)
        expected = (j("u", "x") * j("u", "yz") - j("u", "y") * j("u", ("z", "x"))
                    - j("u", "x") * j("u", ("t", "x")) + j("u", "t") * j("u", "xx"))
        assert normalize(dfkn2.F - expected) == 0 or \
            normalize(dfkn2.F + expected) == 0

    def test_let_substitution(self, dfkn3):
        # twist slots were written via lets; all four resolved to
        # u-jet expressions with the parameter
        alpha = sp.Symbol(dfkn3.space.params[0])
        for slot, e in dfkn3.twist.f.items():
            assert not sp.sympify(e).free_symbols - set(
                jets_in(dfkn3.space, e)) - {alpha}

    def test_jet_indices_sorted_on_parse(self):
        prob = parse_problem(MINIMAL.replace("u_yz", "u_zy"))
        assert normalize(prob.F - parse_problem(MINIMAL).F) == 0

    def test_lambda_in_lax_only(self):
        bad = MINIMAL.replace("equation u_x*u_yz", "equation lam*u_x*u_yz")
        with pytest.raises(ProblemSyntaxError, match="free of lam") as exc:
            parse_problem(bad)
        assert exc.value.line == 3

    def test_twist_defaults_to_zero_slots(self):
        text = MINIMAL + "twist f1_1 = -u_xy/u_x\n"
        prob = parse_problem(text)
        assert prob.twist.f[(1, 0)] == 0
        j = jet_symbols(prob.space)
        assert equal(prob.twist.f[(1, 1)], -j("u", "xy") / j("u", "x"))

    def test_max_order_override(self):
        prob = parse_problem(MINIMAL, max_order=3)
        assert prob.space.max_order == 3

    def test_basis_uses_the_problems_lets_and_params(self, dfkn3):
        j = jet_symbols(dfkn3.space)
        alpha = sp.Symbol(dfkn3.space.params[0])
        basis = parse_basis("# a basis file\nansatz f2_1 = m, alpha*u_xx/u_x\n", dfkn3)
        assert list(basis) == [(2, 1)]
        m, second = basis[(2, 1)]
        assert equal(m, (j("u", "y") - j("u", "z")) / j("u", "x"))
        assert equal(second, alpha * j("u", "xx") / j("u", "x"))


def _declaring(lines: str) -> str:
    """MINIMAL with the given lines right after its vars line."""
    return MINIMAL.replace("vars x y z\n", f"vars x y z\n{lines}\n")


class TestErrors:
    def test_missing_equation(self):
        text = "problem p\nvars x y z\nlax D_y - lam*D_x\nlax D_z - lam*D_y\n"
        with pytest.raises(ProblemSyntaxError, match="equation"):
            parse_problem(text)

    def test_one_lax_line(self):
        text = MINIMAL.replace("lax D_z - lam*D_y\n", "")
        with pytest.raises(ProblemSyntaxError, match="lax"):
            parse_problem(text)

    def test_bare_d_outside_lax(self):
        bad = MINIMAL.replace("equation u_x*u_yz - u_y*u_xz = 0",
                              "equation D_x*u_yz = 0")
        with pytest.raises(ProblemSyntaxError, match="lax lines"):
            parse_problem(bad)

    def test_unknown_symbol_with_location(self):
        bad = MINIMAL.replace("u_y*u_xz", "q*u_xz")
        with pytest.raises(ProblemSyntaxError) as exc:
            parse_problem(bad)
        assert exc.value.line == 3

    def test_second_order_lax_rejected(self):
        bad = MINIMAL.replace("lax D_y - lam*D_x", "lax D_y*D_x - lam*D_x")
        with pytest.raises(ProblemSyntaxError, match="first order"):
            parse_problem(bad)

    def test_first_order_equation_rejected(self):
        bad = MINIMAL.replace("equation u_x*u_yz - u_y*u_xz = 0",
                              "equation u_x - u_y = 0")
        with pytest.raises(ProblemSyntaxError, match="second-order"):
            parse_problem(bad)

    @pytest.mark.parametrize("line,text,message", [
        (2, MINIMAL.replace("vars x y z", "vars 6 y z"), "single letters"),
        (4, MINIMAL.replace("lax D_y - lam*D_x", "lax D_y - lam^2*D_x"),
         "spectral-parameter degree 2"),
        (5, MINIMAL.replace("lax D_z - lam*D_y", "lax 2*D_y - 2*lam*D_x"), "proportional"),
        (6, MINIMAL + "twist f1_0 = U_x\n", "f1_0 depends on U_x"),
        (3, _declaring("param lam"), "param 'lam' is already the spectral parameter"),
        (3, _declaring("param x"), "param 'x' is already a variable"),
        (3, _declaring("param u_x"), "param 'u_x' is already a jet name"),
        (3, _declaring("param U"), "param 'U' is already a jet name"),
        (3, _declaring("param Ut_xy"), "param 'Ut_xy' is already a jet name"),
        (4, _declaring("param a\nparam b a"), "param 'a' is already a param"),
        (3, _declaring("let lam = 2"), "let 'lam' is already the spectral parameter"),
        (3, _declaring("let x = u_y"), "let 'x' is already a variable"),
        (4, _declaring("param a\nlet a = 2"), "let 'a' is already a param"),
        (3, MINIMAL.replace("u_x*u_yz -", "u_x*u_yz + lam*u_xx -"), "free of lam"),
        (4, _declaring("let m = lam*u_xx").replace("u_x*u_yz -", "u_x*u_yz + m -"),
         "free of lam"),
        (3, MINIMAL.replace("u_x*u_yz -", "u_x*u_yz + U -"), "free of lam, U and Ut")],
        ids=["vars", "lam-squared", "proportional-lax", "twist", "param-lam",
             "param-variable", "param-jet", "param-seed", "param-image-jet",
             "param-repeated", "let-lam", "let-variable", "let-param", "equation-lam",
             "equation-lam-from-let", "equation-seed"])
    def test_error_names_its_line(self, line, text, message):
        # errors raised beyond the expression parser: JetSpace, names
        # already taken, the equation's symbols, the lambda split, the
        # pair and the twist check
        with pytest.raises(ProblemSyntaxError, match=message) as exc:
            parse_problem(text)
        assert exc.value.line == line

    def test_bad_twist_slot(self):
        with pytest.raises(ProblemSyntaxError, match="slot"):
            parse_problem(MINIMAL + "twist f3_0 = u_xx/u_x\n")

    def test_bad_orientation(self):
        with pytest.raises(ProblemSyntaxError, match="orientation"):
            parse_problem(MINIMAL + "orientation backward\n")

    @pytest.mark.parametrize("value", ["two", "0", "-1", "3.5"])
    def test_bad_maxorder(self, value):
        with pytest.raises(ProblemSyntaxError, match="maxorder") as exc:
            parse_problem(MINIMAL + f"maxorder {value}\n")
        assert exc.value.line == 6

    @pytest.mark.parametrize("value", [0, -1])
    def test_max_order_argument_below_one(self, value):
        # 0 used to fall back silently to the file's bound
        with pytest.raises(ValueError, match="max_order"):
            parse_problem(MINIMAL, max_order=value)

    def test_vars_required_before_expressions(self):
        text = "problem p\nequation u_xx = 0\nvars x y z\n"
        with pytest.raises(ProblemSyntaxError, match="vars"):
            parse_problem(text)

    def test_low_dimension_warning(self):
        text = ("problem p\nvars x y\nequation u_xy - u_xx = 0\n"
                "lax D_y - lam*D_x\nlax D_x - lam*D_y + u_x\n")
        prob = parse_problem(text)
        assert any("three or more" in w for w in prob.warnings)


def test_fmt_uses_caret():
    ring = FormRing(["u_x"])
    x = ring.symbol("u_x")
    assert fmt(x * x * ring.constant(3).inverse()) == "u_x^2/3"


# -- the parser against sympy's reading of the same text --------------------

_ATOMS = st.one_of(st.integers(0, 9).map(str),
                   st.sampled_from(["u", "u_x", "u_y", "u_xy", "u_yy", "a"]))


def _compound(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(" ".join),
        st.tuples(inner, st.integers(-2, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        inner.map(lambda e: f"({e})"),
        inner.map(lambda e: f"-{e}"),
        inner.map(lambda e: f"D_x({e})"))


@settings(max_examples=80, deadline=None)
@given(st.recursive(_ATOMS, _compound, max_leaves=6))
def test_parser_matches_sympy_reading(text):
    # ^ read as **, D_x as the reference total derivative, canonicalised
    # by the gcd canonicaliser, which shares no code with the kernel;
    # inputs whose denominator vanishes (or that leave the order bound)
    # are skipped
    space = JetSpace(["x", "y"], max_order=6, params=["a"])
    names = {n: sp.Symbol(n) for n in ("u", "u_x", "u_y", "u_xy", "u_yy", "a")}
    names["D_x"] = lambda e: reference_total_derivative(e, "x", space)
    try:
        want = normalize(sp.sympify(text.replace("^", "**"), locals=names))
        got = _ExprParser(_tokenize(text, 1), space, {}, 1).parse()
    except (DegenerateExpressionError, OrderOverflowError):
        assume(False)
    assert sp.srepr(got.as_expr()) == sp.srepr(want), (text, got, want)
