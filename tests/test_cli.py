import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
import sympy as sp

from rop import engine
from rop.cli import main
from rop.lax import DegeneratePairError
from rop.problem import parse_problem

from conftest import jet_symbols
from pointwise import equal

PROBLEM_DIR = Path(__file__).resolve().parent.parent / "problems"
DFKN2 = str(PROBLEM_DIR / "dfkn2.rop")
EQ5 = str(PROBLEM_DIR / "eq5.rop")
PAVLOV = str(PROBLEM_DIR / "pavlov.rop")
HEAVENLY2 = str(PROBLEM_DIR / "heavenly2.rop")

DEGENERATE = """problem degenerate
vars t y x
equation u_tt - u_yy = 0
lax lam*D_t - u_x*D_t + u_t*D_x
lax lam*D_y - u_x*D_y + u_y*D_x
"""


def _with_twist(tmp_path, path, **slots):
    """A copy of a problem file with the given twist lines replaced."""
    text = Path(path).read_text()
    for slot, value in slots.items():
        text = re.sub(rf"^twist {slot} = .*$", f"twist {slot} = {value}", text,
                      flags=re.M)
    p = tmp_path / Path(path).name
    p.write_text(text)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestVerify:
    def test_pass_human(self, capsys):
        code, out, _ = run(capsys, "verify", DFKN2)
        assert code == 0
        assert "verdict: PASS" in out
        assert "[forward] PASS" in out
        assert "compatibility residual: 0" in out

    def test_pass_json(self, capsys):
        code, out, _ = run(capsys, "verify", EQ5, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "PASS"
        assert all(r == "0" for r in doc["residuals"])
        assert doc["results"][0]["orientation"] == "swapped"
        assert any("u_s" in a for a in doc["assumptions"])

    def test_orientation_flag_can_fail(self, capsys, tmp_path):
        # the eq5 twist only works in the swapped orientation
        code, out, _ = run(capsys, "verify", EQ5, "--orientation", "forward")
        assert code == 1
        assert "verdict: FAIL" in out

    def test_wrong_twist_fails(self, capsys, tmp_path):
        text = Path(DFKN2).read_text().replace("twist f1_1 = -u_xz/u_x",
                                               "twist f1_1 = u_xz/u_x")
        p = tmp_path / "bad.rop"
        p.write_text(text)
        code, out, _ = run(capsys, "verify", str(p))
        assert code == 1
        assert "verdict: FAIL" in out
        assert "nonzero residuals:" in out

    def test_no_twist_is_an_error(self, capsys, tmp_path):
        text = "\n".join(line for line in Path(DFKN2).read_text().splitlines()
                         if not line.startswith(("twist", "orientation")))
        p = tmp_path / "untwisted.rop"
        p.write_text(text)
        for command in ("verify", "hierarchy"):
            code, _, err = run(capsys, command, str(p))
            assert code == 2
            assert "twist" in err


class TestOtherCommands:
    def test_lax_check(self, capsys):
        code, out, _ = run(capsys, "lax-check", DFKN2)
        assert code == 0
        assert "verdict: PASS" in out
        assert "multipliers" in out

    def test_lax_check_of_a_pair_that_closes_without_the_equation(self, capsys, tmp_path):
        # the two fields commute up to their span for every u: the pair
        # encodes no equation, so it is no Lax pair of u_tt = u_yy
        p = tmp_path / "degenerate.rop"
        p.write_text(DEGENERATE)
        code, out, _ = run(capsys, "lax-check", str(p))
        assert code == 1
        assert "verdict: FAIL" in out and "note: pivot directions t, x; the pair closes" in out
        code, out, _ = run(capsys, "lax-check", str(p), "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "FAIL" and doc["residuals"] == []
        assert doc["notes"].endswith("closes without F = 0, so it does not encode the equation")

    def test_linearize_json(self, capsys):
        code, out, _ = run(capsys, "linearize", DFKN2, "--json")
        assert code == 0
        doc = json.loads(out)
        idx = {"".join(t["index"]) for t in doc["linearization"]}
        assert "yz" in idx and "xx" in idx
        assert "U_yz" in doc["applied_to_seed"]

    def test_solve_json_with_basis(self, capsys, tmp_path, dfkn2):
        # the paper's terms and one distractor per slot
        p = tmp_path / "basis.rop"
        p.write_text("ansatz f1_0 = u_xy/u_x\n"
                     "ansatz f1_1 = u_xz/u_x, u_xy/u_x  # paper's term first\n"
                     "ansatz f2_0 = u_xt/u_x\n"
                     "ansatz f2_1 = u_xx/u_x, u_xt/u_x\n")
        code, out, _ = run(capsys, "solve", DFKN2, "--basis", str(p), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "PASS"
        [sol] = doc["solutions"]
        assert sol["reverified"] is True
        j = jet_symbols(dfkn2.space)
        twist = {k: sp.sympify(v.replace("^", "**")) for k, v in sol["twist"].items()}
        assert equal(twist["f1_1"], -j("u", "xz") / j("u", "x"))
        assert equal(twist["f2_1"], -j("u", "xx") / j("u", "x"))
        assert any(re.fullmatch(r"orientation forward: \d+ determining equations, "
                                r"6 unknowns, 1 branch\(es\), 1 reverified", w)
                   for w in doc["warnings"])

    def test_solve_names_a_free_constant(self, capsys, tmp_path, dfkn2):
        # one term twice in f1_1: only the sum of its two constants is fixed
        p = tmp_path / "basis.rop"
        p.write_text("ansatz f1_1 = u_xz/u_x, u_xz/u_x\n")
        code, out, _ = run(capsys, "solve", DFKN2, "--basis", str(p), "--json")
        assert code == 0
        [sol] = json.loads(out)["solutions"]
        assert sol["reverified"] is True
        assert sol["free_constants"] == ["c11_1"]
        for (i, s), f in dfkn2.twist.f.items():  # the paper's twist
            assert equal(sp.sympify(sol["twist"][f"f{i}_{s}"].replace("^", "**")),
                         f.as_expr())

    def test_solve_verifies_a_family_with_its_free_constant(self, capsys, tmp_path):
        # the second term is F/u_x, zero on the equation: its constant is
        # free, stays in the twist, and the family is verified as one
        p = tmp_path / "basis.rop"
        p.write_text("ansatz f1_1 = u_xz/u_x, "
                     "(u_tx*u_x - u_t*u_xx - u_x*u_yz + u_y*u_xz)/u_x\n")
        code, out, _ = run(capsys, "solve", DFKN2, "--basis", str(p), "--json")
        assert code == 0
        [sol] = json.loads(out)["solutions"]
        assert sol["reverified"] is True
        assert sol["free_constants"] == ["c11_1"]
        assert sol["twist"]["f1_1"] == ("(-c11_1*u_t*u_xx + c11_1*u_tx*u_x - c11_1*u_x*u_yz"
                                        " + c11_1*u_y*u_zx - u_zx)/u_x")

    def test_solve_with_a_zero_basis_term(self, capsys, tmp_path, dfkn2):
        # c11_1 multiplies u_xx - u_xx, so it is in no equation: it is
        # still an unknown of the solver, and free
        p = tmp_path / "basis.rop"
        p.write_text("ansatz f1_1 = u_xz/u_x, u_xx - u_xx, u_xy/u_x\n")
        code, out, _ = run(capsys, "solve", DFKN2, "--basis", str(p), "--json")
        assert code == 0
        doc = json.loads(out)
        [sol] = doc["solutions"]
        assert sol["reverified"] is True
        assert sol["free_constants"] == ["c11_1"]
        for (i, s), f in dfkn2.twist.f.items():  # the paper's twist
            assert equal(sp.sympify(sol["twist"][f"f{i}_{s}"].replace("^", "**")),
                         f.as_expr())
        assert any(re.fullmatch(r"orientation forward: \d+ determining equations, "
                                r"33 unknowns, 1 branch\(es\), 1 reverified", w)
                   for w in doc["warnings"])

    def test_hierarchy(self, capsys, dfkn2):
        code, out, _ = run(capsys, "hierarchy", DFKN2, "--k", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "PASS" and doc["orientation"] == "forward"
        assert len(doc["relations"]) == 4
        j = jet_symbols(dfkn2.space)
        for level, rel in ((0, doc["relations"][0]), (1, doc["relations"][3])):
            assert rel.endswith(" = 0") and "Ut" not in rel
            e = sp.sympify(rel[:-len(" = 0")].replace("^", "**"))
            # the twist terms f1_1 = -u_xz/u_x and f2_1 = -u_xx/u_x
            twist = -j("u", "xz") if level == 0 else -j("u", "xx")
            assert equal(e.diff(sp.Symbol(f"psi_{level + 1}")), twist / j("u", "x"))

    def test_hierarchy_builds_the_relations_once(self, capsys, monkeypatch):
        calls = []
        build = engine.build_relations
        monkeypatch.setattr(engine, "build_relations",
                            lambda *a: calls.append(a) or build(*a))
        code, _, _ = run(capsys, "hierarchy", DFKN2, "--k", "2", "--json")
        assert code == 0 and len(calls) == 1

    def test_hierarchy_chains_the_swapped_relations(self, capsys):
        code, out, _ = run(capsys, "hierarchy", EQ5, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["orientation"] == "swapped"
        # swapped: X0 acts on the image, and eq5's X0 has D_y and D_s
        assert "psi_1_y" in doc["relations"][0] and "psi_1_t" not in doc["relations"][0]

    def test_hierarchy_of_a_failing_twist(self, capsys, tmp_path):
        zero = _with_twist(tmp_path, DFKN2, f1_1="0", f2_1="0")
        code, out, _ = run(capsys, "hierarchy", zero, "--k", "2", "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "FAIL" and doc["relations"] == []
        code, out, _ = run(capsys, "hierarchy", zero, "--k", "2")
        assert code == 1 and "psi" not in out


class TestPavlov:
    """The Pavlov equation, whose Lax coefficients have no denominators;
    lax-check and verify pass in test_lax and test_engine."""

    @pytest.mark.parametrize("slots", [
        {"f1_0": "0", "f2_0": "0"}, {"f1_0": "u_xx"}])
    def test_wrong_twist_fails(self, capsys, tmp_path, slots):
        code, out, _ = run(capsys, "verify", _with_twist(tmp_path, PAVLOV, **slots))
        assert code == 1 and "verdict: FAIL" in out

    def test_solve_recovers_the_twist(self, capsys):
        code, out, _ = run(capsys, "solve", PAVLOV, "--json")
        assert code == 0
        doc = json.loads(out)
        assert [s["twist"] for s in doc["solutions"]] == [
            {"f1_0": "-u_xx", "f1_1": "0", "f2_0": "-u_yx", "f2_1": "0"}]
        assert not any("fallback" in w for w in doc["warnings"])


class TestHeavenly2:
    """Plebanski's second heavenly equation, whose twist is zero in both
    orientations."""

    def test_lax_check(self, capsys):
        code, out, _ = run(capsys, "lax-check", HEAVENLY2, "--json")
        assert code == 0 and json.loads(out)["verdict"] == "PASS"

    def test_verify_passes_in_both_orientations(self, capsys):
        code, out, _ = run(capsys, "verify", HEAVENLY2, "--json")
        assert code == 0
        assert [(r["orientation"], r["verdict"]) for r in json.loads(out)["results"]] == [
            ("forward", "PASS"), ("swapped", "PASS")]

    def test_solve_recovers_the_zero_twist(self, capsys):
        code, out, _ = run(capsys, "solve", HEAVENLY2, "--json")
        assert code == 0
        zero = {"f1_0": "0", "f1_1": "0", "f2_0": "0", "f2_1": "0"}
        assert [(s["orientation"], s["twist"]) for s in json.loads(out)["solutions"]] == [
            ("forward", zero), ("swapped", zero)]

    def test_wrong_twist_fails(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", _with_twist(tmp_path, HEAVENLY2, f1_0="u_xx"),
                           "--json")
        assert code == 1
        assert [r["verdict"] for r in json.loads(out)["results"]] == ["FAIL", "FAIL"]


HEAVENLY1 = """\
problem heavenly1
vars p q x y
equation u_xp*u_yq - u_xq*u_yp - 1 = 0
lax D_p - lam*u_yp*D_x + lam*u_xp*D_y
lax D_q - lam*u_yq*D_x + lam*u_xq*D_y
twist f1_0 = 0
"""
SAME_LEAD = "both relations solve for the same leading Ut-jet Ut_x"


class TestDegenerateOrientation:
    """Plebanski's first heavenly equation: forward, both relations solve
    for Ut_x; swapped, the zero twist passes."""

    @pytest.fixture()
    def path(self, tmp_path):
        p = tmp_path / "heavenly1.rop"
        p.write_text(HEAVENLY1)
        return str(p)

    def test_verify_reports_the_orientation(self, capsys, path):
        code, out, _ = run(capsys, "verify", path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "PASS" and doc["residuals"] == ["0", "0"]
        assert doc["results"][0] == {"orientation": "forward", "verdict": "ERROR",
                                     "error": SAME_LEAD}
        assert doc["results"][1]["verdict"] == "PASS"
        code, out, _ = run(capsys, "verify", path)
        assert code == 0 and f"[forward] ERROR\n    error: {SAME_LEAD}" in out

    def test_solve_warns_for_the_orientation(self, capsys, path):
        code, out, _ = run(capsys, "solve", path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert [s["orientation"] for s in doc["solutions"]] == ["swapped"]
        assert f"orientation forward: {SAME_LEAD}" in doc["warnings"]

    def test_hierarchy_chains_the_other_orientation(self, capsys, path):
        code, out, _ = run(capsys, "hierarchy", path, "--json")
        assert code == 0 and json.loads(out)["orientation"] == "swapped"

    def test_engine_solve_keeps_the_error_of_the_orientation(self):
        prob = parse_problem(HEAVENLY1)
        basis = engine.default_ansatz(prob.F, prob.lax)
        results = engine.solve(prob.F, prob.lax, basis, ["forward", "swapped"], 64)
        assert isinstance(results["forward"], DegeneratePairError)
        assert str(results["forward"]) == SAME_LEAD
        _ds, [(_sol, _fs, rep)], partial = results["swapped"]
        assert rep.passed and partial is None
        with pytest.raises(DegeneratePairError, match=SAME_LEAD):
            engine.solve(prob.F, prob.lax, basis, ["forward"], 64)

    @pytest.mark.parametrize("command", ["verify", "solve"])
    def test_every_orientation_degenerate_is_an_error(self, capsys, path, command):
        code, out, _ = run(capsys, command, path, "--orientation", "forward", "--json")
        assert code == 2 and json.loads(out) == {"command": command, "verdict": "ERROR",
                                                 "error": SAME_LEAD}


class TestErrorsAndLimits:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "no-such-file.rop")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("command", ["verify", "hierarchy"])
    def test_problem_without_a_twist(self, capsys, tmp_path, command):
        p = tmp_path / "degenerate.rop"
        p.write_text(DEGENERATE)
        code, out, _ = run(capsys, command, str(p), "--json")
        assert code == 2 and "no twist block" in json.loads(out)["error"]

    def test_syntax_error(self, capsys, tmp_path):
        p = tmp_path / "broken.rop"
        p.write_text("problem broken\nvars x y z\nequation u_xx @ = 0\n"
                     "lax D_y - lam*D_x\nlax D_z - lam*D_y\n")
        code, _, err = run(capsys, "verify", str(p))
        assert code == 2
        assert "line 3" in err

    @pytest.mark.parametrize("text,message", [
        ("ansatz f1_1 = u_xz/u_x\n\nansatz f2_1 = u_xx/u_q\n", "unknown symbol 'u_q'"),
        ("# basis\nansatz f1_1 = u_xz/u_x\nvars y z t x\n", "only ansatz lines")])
    def test_basis_syntax_error(self, capsys, tmp_path, text, message):
        p = tmp_path / "basis.rop"
        p.write_text(text)
        code, out, _ = run(capsys, "solve", DFKN2, "--basis", str(p), "--json")
        assert code == 2
        doc = json.loads(out)
        assert doc["verdict"] == "ERROR"
        assert message in doc["error"] and "(line 3" in doc["error"]

    @pytest.mark.parametrize("term,message", [
        ("U_x", "f1_0 depends on U_x"),
        ("lam*u_xy/u_x", "f1_0 depends on the spectral parameter")])
    def test_basis_term_outside_the_u_jets(self, capsys, tmp_path, term, message):
        p = tmp_path / "basis.rop"
        p.write_text(f"ansatz f1_0 = {term}\n")
        code, out, _ = run(capsys, "solve", DFKN2, "--basis", str(p), "--json")
        assert code == 2
        doc = json.loads(out)
        assert doc["verdict"] == "ERROR"
        assert doc["error"] == message

    @pytest.mark.parametrize("denominator", [
        "u_x - u_x", "(u_x+u_y)^2 - u_x^2 - 2*u_x*u_y - u_y^2"])
    def test_degenerate_twist(self, capsys, tmp_path, denominator):
        text = Path(DFKN2).read_text().replace(
            "twist f1_0 = 0", f"twist f1_0 = 1/({denominator})")
        p = tmp_path / "degenerate.rop"
        p.write_text(text)
        code, out, _ = run(capsys, "verify", str(p), "--json")
        assert code == 2
        doc = json.loads(out)
        assert doc["verdict"] == "ERROR"
        line = text.splitlines().index(f"twist f1_0 = 1/({denominator})") + 1
        assert f"line {line}" in doc["error"]

    @pytest.mark.parametrize("command", ["verify", "hierarchy"])
    def test_denominator_vanishing_on_the_equation(self, capsys, tmp_path, command):
        # the twist parses, but its denominator is -F: it reduces to zero
        # on the equation, so the relations have no normal form; the error
        # names the factor as it is printed
        text = Path(DFKN2).read_text().replace(
            "twist f1_0 = 0", "twist f1_0 = 1/(u_tx*u_x - u_t*u_xx - u_x*u_yz + u_y*u_xz)")
        p = tmp_path / "vanishing.rop"
        p.write_text(text)
        code, out, _ = run(capsys, command, str(p), "--json")
        assert code == 2
        doc = json.loads(out)
        assert doc["verdict"] == "ERROR"
        assert doc["error"] == ("the denominator factor -u_t*u_xx + u_tx*u_x"
                                " - u_x*u_yz + u_y*u_zx vanishes on the equation")

    def test_parameter_named_like_an_ansatz_constant(self, capsys, tmp_path):
        # dfkn3 with alpha renamed c10_0, the name of the default ansatz's
        # first constant: a parameter is no unknown, so solve refuses the
        # constant, and verify does not depend on the name
        p = tmp_path / "dfkn3.rop"
        p.write_text((PROBLEM_DIR / "dfkn3.rop").read_text().replace("alpha", "c10_0"))
        code, out, _ = run(capsys, "verify", str(p), "--json")
        assert code == 0 and json.loads(out)["verdict"] == "PASS"
        code, out, _ = run(capsys, "solve", str(p), "--json")
        doc = json.loads(out)
        assert code == 2 and doc["verdict"] == "ERROR"
        assert doc["error"] == "the ansatz constant c10_0 is a symbol of the problem; rename it"

    def test_order_overflow_names_remedy(self, capsys):
        code, _, err = run(capsys, "verify", DFKN2, "--max-order", "2")
        assert code == 2
        assert "exceeds bound 2" in err
        assert "'maxorder' line or --max-order" in err

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_max_order_below_one_rejected(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify", DFKN2, "--max-order", value])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["lax-check", DFKN2, "--branch-bound", "3"],
        ["linearize", DFKN2, "--orientation", "forward"],
        ["hierarchy", DFKN2, "--basis", "auto"],
        ["verify", DFKN2, "--branch-bound", "3"],
        ["solve", DFKN2, "--branch-bound", "-4"],
        ["hierarchy", DFKN2, "--k", "0"]])
    def test_option_of_another_subcommand_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_timeout_env(self, capsys, monkeypatch):
        # a solver that outlasts the alarm, however fast the real one is
        monkeypatch.setattr(engine, "solve_determining", lambda *a, **k: time.sleep(30))
        monkeypatch.setenv("ROP_TIMEOUT_SECS", "1")
        code, _, err = run(capsys, "solve", EQ5)
        assert code == 2
        assert "exceeded" in err

    def test_timeout_env_covers_parsing(self, capsys, monkeypatch, tmp_path):
        # the equation expands a power of 320 of a sum, which takes seconds
        # to parse before it cancels to dfkn2's equation
        big = "(u_x + u_y + u_z)^320"
        path = tmp_path / "slow.rop"
        path.write_text(re.sub(r"^equation .*$", f"equation u_tx - u_yy + {big} - {big} = 0",
                               Path(DFKN2).read_text(), flags=re.M))
        monkeypatch.setenv("ROP_TIMEOUT_SECS", "1")
        code, out, _ = run(capsys, "lax-check", str(path), "--json")
        assert code == 2
        assert "ROP_TIMEOUT_SECS" in json.loads(out)["error"]

    @pytest.mark.parametrize("term", ["u_x^40000", "u_x^-70000", "(u_x^-30000)^3",
                                      "u_x*(2 - 1)^999999999"])
    @pytest.mark.parametrize("command", ["verify", "lax-check"])
    def test_exponent_beyond_the_monomial_is_an_error(self, capsys, monkeypatch, tmp_path,
                                                       command, term):
        # a monomial holds exponents and total degrees up to 2**15 - 1; a
        # denominator's multiplicity is unbounded until it is multiplied out,
        # and an exponent beyond that is refused as it is read, so a power
        # of a constant takes no product per unit (a hang would time out)
        monkeypatch.setenv("ROP_TIMEOUT_SECS", "10")
        path = tmp_path / "overflow.rop"
        path.write_text(re.sub(r"^equation .*$", f"equation u_tx - u_yy + {term} = 0",
                               Path(DFKN2).read_text(), flags=re.M))
        code, out, _ = run(capsys, command, str(path), "--json")
        assert code == 2
        doc = json.loads(out)
        assert doc["verdict"] == "ERROR"
        assert doc["error"] == "an exponent or a total degree exceeds 32767 (line 6)"

    @pytest.mark.parametrize("value", ["abc", "1.5", "-3", "99999999999"])
    def test_bad_timeout_env_is_an_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("ROP_TIMEOUT_SECS", value)
        code, out, _ = run(capsys, "verify", DFKN2, "--json")
        assert code == 2
        doc = json.loads(out)
        assert doc["verdict"] == "ERROR"
        assert "ROP_TIMEOUT_SECS" in doc["error"]

    def test_bad_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate", DFKN2])


def test_console_script_entry_point(tmp_path):
    # stdout is a block-buffered pipe, so output not flushed at exit is lost
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, "-m", "rop.cli", "verify", DFKN2,
                           "--json"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "PASS"
    # a FAIL prints the longest document
    zero = tmp_path / "zero.rop"
    zero.write_text(re.sub(r"^(twist f\d_\d) = .*$", r"\1 = 0",
                           Path(DFKN2).read_text(), flags=re.M))
    proc = subprocess.run([sys.executable, "-m", "rop.cli", "verify", str(zero),
                           "--json"], capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "FAIL"
    assert all(r != "0" for r in doc["residuals"])


def test_readme_library_example_runs():
    # README's python block, run from the repository root as printed
    root = PROBLEM_DIR.parent
    [code] = re.findall(r"^```python\n(.*?)^```$", (root / "README.md").read_text(),
                        flags=re.M | re.S)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("enabled", [True, False])
def test_import_leaves_the_collector_as_found(enabled):
    # a fresh interpreter each time: the import is cached in-process
    code = ("import gc\n" + ("" if enabled else "gc.disable()\n")
            + "import rop\nprint(gc.isenabled())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout == f"{enabled}\n"


# No command imports sympy on the shipped problems: only a polynomial
# with no generator of degree 1 is factored with it.  Each run is a fresh
# interpreter, since an import is cached.
WITHOUT_SYMPY = ("import sys\nfrom rop import cli\ncode = cli.main(sys.argv[1:])\n"
                 "sys.exit(3 if 'sympy' in sys.modules else code)")


def _passes_without_sympy(*argv):
    proc = subprocess.run([sys.executable, "-c", WITHOUT_SYMPY, *argv, "--json"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "PASS"


@pytest.mark.parametrize("command", [["lax-check"], ["verify"], ["linearize"],
                                     ["hierarchy", "--k", "2"],
                                     ["solve", "--orientation", "both"]],
                         ids=["lax-check", "verify", "linearize", "hierarchy", "solve"])
@pytest.mark.parametrize("problem", sorted(p.stem for p in PROBLEM_DIR.glob("*.rop")))
def test_command_runs_without_sympy(problem, command):
    _passes_without_sympy(command[0], str(PROBLEM_DIR / f"{problem}.rop"), *command[1:])


# The paper's twists as basis terms u_pq/u_x per slot, and the number of
# terms per slot of a reduced ansatz.
PAPER_TERMS = {"dfkn2": ({"f1_1": ["u_xz"], "f2_1": ["u_xx"]}, 4),
               "dfkn3": ({"f1_0": ["u_xy", "u_xz"], "f1_1": ["u_xy", "u_xz"],
                          "f2_0": ["u_xz", "u_tx"], "f2_1": ["u_xz", "u_tx"]}, 2)}


def _reduced_ansatz(name, seed):
    """The problem without its twist, with per slot the paper's terms and
    distractors u_pq/u_x from the default basis, the same ones for every
    seed, each with a seeded sign."""
    text = (PROBLEM_DIR / f"{name}.rop").read_text()
    paper, size = PAPER_TERMS[name]
    variables = re.search(r"^vars (.*)$", text, flags=re.M).group(1).split()
    pool = [f"u_{''.join(sorted(p + q))}" for i, p in enumerate(variables)
            for q in variables[i:]]
    rng = random.Random(seed)
    lines = [line for line in text.splitlines() if line.split(" ", 1)[0] != "twist"]
    for k, slot in enumerate(("f1_0", "f1_1", "f2_0", "f2_1")):
        terms = paper.get(slot, [])
        rest = [j for j in pool if j not in terms]
        chosen = set(terms) | set((rest[3 * k:] + rest[:3 * k])[:size - len(terms)])
        lines.append(f"ansatz {slot} = " + ", ".join(
            f"({rng.choice(('1', '-1'))})*{j}/u_x" for j in pool if j in chosen))
    return "\n".join(lines) + "\n"


def test_engine_solve_verifies_every_solution():
    prob = parse_problem(_reduced_ansatz("dfkn2", 1))
    results = engine.solve(prob.F, prob.lax, prob.ansatz, ["forward", "swapped"], 64)
    solutions = [sol for _ds, sols, _partial in results.values() for sol in sols]
    assert solutions
    for sol, fs, rep in solutions:
        assert isinstance(rep, engine.VerifyReport) and rep.passed


def test_two_derivations_give_equal_equations():
    # dfkn3's coefficients are Forms in alpha: both systems share one ring
    prob = parse_problem(_reduced_ansatz("dfkn3", 1))
    a, c = (engine.derive_determining_system(prob.F, prob.lax, prob.ansatz, "forward")
            for _ in range(2))
    assert a.equations and a.equations == c.equations
    assert a.ring is c.ring
    assert set().union(*(e.free_symbols for e in a.equations)) - set(a.unknowns) == {"alpha"}


@pytest.mark.parametrize("name", sorted(PAPER_TERMS))
def test_solve_on_a_reduced_ansatz_runs_without_sympy(tmp_path, name):
    path = tmp_path / f"{name}-ansatz.rop"
    path.write_text(_reduced_ansatz(name, 1))
    _passes_without_sympy("solve", str(path))


def test_failing_verify_runs_without_sympy(tmp_path):
    wrong = tmp_path / "heavenly2-wrong.rop"
    wrong.write_text(Path(HEAVENLY2).read_text().replace("twist f1_0 = 0\n",
                                                         "twist f1_0 = u_xx\n"))
    assert wrong.read_text() != Path(HEAVENLY2).read_text()
    proc = subprocess.run([sys.executable, "-c", WITHOUT_SYMPY, "verify", str(wrong),
                           "--json"], capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "FAIL"
