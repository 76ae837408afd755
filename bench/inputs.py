"""Seeded benchmark inputs, written as .rop problem files.

Every input is derived from a shipped problem file and the workload
seed; the same seed always gives byte-identical files.  The make-up of
each workload is described in README.md.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

PROBLEMS = ("dfkn2", "eq5", "dfkn3")
SLOTS = ("f1_0", "f1_1", "f2_0", "f2_1")

# Factors for the perturbed twist slot: -1 negates, the others scale.
FACTORS = ("-1", "2", "-2", "3", "1/2")

# The paper's twists (known answers for the solve workload), written
# over the basis terms u_pq/u_x with the coefficient of each term.
PAPER_TWIST = {
    "dfkn2": {
        "f1_0": {},
        "f1_1": {"u_xz": "-1"},
        "f2_0": {},
        "f2_1": {"u_xx": "-1"},
    },
    "dfkn3": {
        "f1_0": {"u_xy": "alpha", "u_xz": "-(alpha + 1)"},
        "f1_1": {"u_xy": "alpha", "u_xz": "-(alpha + 1)"},
        "f2_0": {"u_xz": "alpha", "u_tx": "-(alpha + 1)"},
        "f2_1": {"u_xz": "alpha", "u_tx": "-(alpha + 1)"},
    },
}

# Basis terms per slot in the solve workload's reduced ansatz (the
# paper's terms, then fixed distractors from the default basis), and the
# seeded signs of the terms.  Larger factors make the solve slower by
# their size, so a seeded factor would add to the run-to-run spread.
SOLVE_TERMS = {"dfkn2": 4, "dfkn3": 2}
SCALES = ("1", "-1")

_JET = re.compile(r"\bu_[a-z]+\b")
_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def expected_twist(name: str) -> dict:
    """Slot -> paper twist as an expression string."""
    out = {}
    for slot in SLOTS:
        terms = PAPER_TWIST[name][slot]
        out[slot] = " + ".join(f"({c})*{j}/u_x" for j, c in terms.items()) or "0"
    return out


def _directives(text: str, head: str) -> list[str]:
    return [line for line in text.splitlines()
            if line.split("#", 1)[0].split(" ", 1)[0] == head]


def _without_twist(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.split(" ", 1)[0] != "twist"]


def _with_twist(text: str, twist: dict) -> str:
    lines = _without_twist(text) + [f"twist {slot} = {twist[slot]}" for slot in SLOTS]
    return "\n".join(lines) + "\n"


def _twist_of(text: str) -> dict:
    twist = {slot: "0" for slot in SLOTS}
    for line in _directives(text, "twist"):
        slot, _, expr = line[len("twist "):].partition("=")
        twist[slot.strip()] = expr.split("#", 1)[0].strip()
    return twist


def _top_level_terms(expr: str) -> list[str]:
    """Split an expression at the + and - signs outside parentheses;
    each term keeps its sign."""
    terms, depth, start = [], 0, 0
    for i, ch in enumerate(expr):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0:
            before = expr[:i].rstrip()
            if before and before[-1] not in "*/^(":  # not a unary sign
                terms.append(expr[start:i])
                start = i
    terms.append(expr[start:])
    return terms


def _jet_lets(text: str) -> set[str]:
    """Names of the let shorthands that depend on jets of u."""
    out: set[str] = set()
    for line in _directives(text, "let"):
        ident, _, src = line[len("let "):].partition("=")
        names = set(_NAME.findall(src))
        if _JET.search(src) or names & out:
            out.add(ident.strip())
    return out


def lax_candidates(text: str) -> list[tuple[int, int]]:
    """(lax line, term) positions of the jet-dependent Lax terms."""
    jet_lets = _jet_lets(text)
    out = []
    for li, line in enumerate(_directives(text, "lax")):
        for ti, term in enumerate(_top_level_terms(line[len("lax "):])):
            if _JET.search(term) or set(_NAME.findall(term)) & jet_lets:
                out.append((li, ti))
    return out


def doubled_lax(text: str, line_index: int, term_index: int) -> str:
    """The problem with one jet-dependent Lax coefficient doubled."""
    old = _directives(text, "lax")[line_index]
    terms = [t.strip() for t in _top_level_terms(old[len("lax "):])]
    term = terms[term_index]
    sign = term[0] if term[0] in "+-" else ""
    terms[term_index] = f"{sign} 2*({term[len(sign):].strip()})".strip()
    new = "lax " + " ".join(terms)
    return text.replace(old, new, 1)


def reject_inputs(root: Path, rng: random.Random) -> list[tuple[str, str, str]]:
    """Per shipped problem: the zero twist, the shipped twist with one
    seeded nonzero slot negated or scaled, and the shipped twist with one
    seeded jet-dependent Lax coefficient doubled.  Returns (problem,
    kind, problem-file text) triples."""
    out = []
    for name in PROBLEMS:
        text = (root / "problems" / f"{name}.rop").read_text()
        twist = _twist_of(text)
        zero = _with_twist(text, {slot: "0" for slot in SLOTS})
        nonzero = [slot for slot in SLOTS if twist[slot] != "0"]
        slot, factor = rng.choice(nonzero), rng.choice(FACTORS)
        scaled = _with_twist(text, {**twist, slot: f"({factor})*({twist[slot]})"})
        doubled = doubled_lax(text, *rng.choice(lax_candidates(text)))
        out += [(name, "zero-twist", zero), (name, "scaled-twist", scaled),
                (name, "doubled-lax", doubled)]
    return out


def solve_input(name: str, text: str, rng: random.Random) -> str:
    """The problem with its twist removed and a reduced ansatz.  Per slot
    the basis is the paper's terms plus a fixed set of distractors
    u_pq/u_x from the default basis, each term with a seeded sign, so
    that every seed poses a determining system of the same shape."""
    variables = _directives(text, "vars")[0].split()[1:]
    pool = [f"u_{''.join(sorted(p + q))}" for i, p in enumerate(variables)
            for q in variables[i:]]
    lines = _without_twist(text)
    for k, slot in enumerate(SLOTS):
        paper = list(PAPER_TWIST[name][slot])
        rest = [j for j in pool if j not in paper]
        rest = rest[3 * k:] + rest[:3 * k]  # a different rotation per slot
        chosen = set(paper) | set(rest[:SOLVE_TERMS[name] - len(paper)])
        lines.append(f"ansatz {slot} = " + ", ".join(
            f"({rng.choice(SCALES)})*{j}/u_x" for j in pool if j in chosen))
    return "\n".join(lines) + "\n"
