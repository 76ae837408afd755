import pytest
import sympy as sp

from rop.jets import jet_ring, total_derivative
from rop.linearize import (LinearDifferentialOperator, WrongUnknownError,
                           linearize)

from conftest import jet_symbols, random_rational, to_form
from pointwise import equal, first_variation_defect, normalize


class TestLinearize:
    def test_second_example_coefficients(self, dfkn2):
        s = dfkn2.space
        j = jet_symbols(s)
        op = linearize(to_form(dfkn2.F, s))
        coeffs = dict(op.coeffs)
        # indexes are canonically sorted in variable-declaration order
        assert equal(coeffs[("y", "z")], j("u", "x"))
        assert equal(coeffs[("z", "x")], -j("u", "y"))
        assert equal(coeffs[("t", "x")], -j("u", "x"))
        assert equal(coeffs[("x", "x")], j("u", "t"))
        assert equal(coeffs[("x",)], j("u", "yz") - j("u", "tx"))
        assert equal(coeffs[("y",)], -j("u", "xz"))
        assert equal(coeffs[("t",)], j("u", "xx"))
        assert () not in coeffs
        assert max(len(idx) for idx, _ in op.coeffs) == 2

    def test_applied_to_symmetry_seed(self, dfkn2):
        s = dfkn2.space
        j = jet_symbols(s)
        applied = linearize(to_form(dfkn2.F, s)).apply_to("U")
        expected = (j("u", "x") * j("U", "yz") - j("u", "y") * j("U", "xz")
                    - j("u", "x") * j("U", "tx") + j("u", "t") * j("U", "xx")
                    + (j("u", "yz") - j("u", "tx")) * j("U", "x")
                    - j("u", "xz") * j("U", "y") + j("u", "xx") * j("U", "t"))
        assert normalize(applied - expected) == 0

    def test_linear_equation_reproduces_itself(self, space):
        # for F linear in the u-jets, applying the linearization to u
        # returns F itself
        j = jet_symbols(space)
        F = 3 * j("u", "xy") - 5 * j("u", "z") + j("u", "xx")
        assert normalize(linearize(to_form(F, space)).apply_to("u") - F) == 0

    def test_explicit_variables_are_parameters(self, space):
        x = sp.Symbol("x")
        op = linearize(to_form(x * jet_symbols(space)("u", "y"), space))
        assert equal(dict(op.coeffs)[("y",)], x)

    def test_zeroth_order_coefficient(self, space):
        j = jet_symbols(space)
        op = linearize(to_form(j("u") ** 2, space))
        assert equal(dict(op.coeffs)[()], 2 * j("u"))
        assert max(len(idx) for idx, _ in op.coeffs) == 0

    def test_rejects_capital_jets(self, space):
        with pytest.raises(WrongUnknownError):
            j = jet_symbols(space)
            linearize(to_form(j("U", "x") * j("u"), space))

    def test_operator_is_linear(self, space, rng):
        j = jet_symbols(space)
        op = linearize(to_form(j("u", "x") * j("u", "yz"), space))
        a = sp.Rational(rng.randint(1, 9), rng.randint(1, 9))
        lhs = op.apply_to("U") * a + op.apply_to("Ut")
        # coefficient-wise: a*U_alpha + Ut_alpha term by term
        direct = sum(c * (a * j("U", idx) + j("Ut", idx))
                     for idx, c in op.coeffs)
        assert normalize(lhs - direct) == 0


class TestFirstVariation:
    def test_examples(self, eq5, dfkn2, dfkn3):
        for prob in (eq5, dfkn2, dfkn3):
            assert first_variation_defect(prob.F, prob.space) == 0

    def test_random_rational_F(self, space, rng):
        j = jet_symbols(space)
        syms = [j("u"), j("u", "x"), j("u", "xy"), j("u", "zz")]
        for _ in range(15):
            F = random_rational(rng, syms)
            assert first_variation_defect(F, space) == 0

    def test_derivative_of_F_linearizes_to_derivative(self, dfkn2):
        # D_x(ell_F(U)) equals ell_{D_x F}(U) modulo no relations, both
        # being the eps-coefficient of D_x F under the same perturbation
        s = dfkn2.space
        dF = total_derivative(to_form(dfkn2.F, s), "x").as_expr()
        assert first_variation_defect(dF, s) == 0


def test_empty_operator(space):
    op = LinearDifferentialOperator((), jet_ring(space))
    assert max((len(idx) for idx, _ in op.coeffs), default=0) == 0
    assert op.apply_to("U") == 0
