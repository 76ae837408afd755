"""Line-oriented problem files.

Grammar (one directive per line, ``#`` starts a comment):

    problem <name>
    vars <v> <v> ...            single letters; order fixes the ranking
    maxorder <n>                optional jet-order bound (default 4)
    param <p> ...
    let <id> = <expr>           shorthand, substituted at parse time
    equation <expr> = 0         D_x(...) applications are expanded
    lax <expr with D_x and lam> exactly two lines
    assume <expr> != 0
    twist f1_0 = <expr>         four optional lines (f1_0 f1_1 f2_0 f2_1)
    orientation forward|swapped|both
    ansatz f1_0 = <expr>, <expr>, ...

Expressions use ``+ - * / ^ ( )``, jet variables ``u_xy`` (indices sorted
internally), ``U`` and ``Ut`` for the seed symmetry and its image, ``lam``
for the spectral parameter, and ``D_x(...)`` for total-derivative
application.  The equation is stored cleared of denominators; each
denominator factor is recorded as a nonzero assumption.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass, field

import sympy as sp

from . import kernel
from .engine import SLOTS, TwistRelations, check_twist_function
from .jets import JetRing, JetSpace, jet_ring
from .kernel import Expr, normalize
from .lax import (LAMBDA, FirstOrderOperator, LaxPair, expr_derivative,
                  split_lax_operator)

_TOKEN = re.compile(r"\s*(\*\*|!=|[A-Za-z][A-Za-z0-9_]*|\d+|[-+*/^(),=])")


class ProblemSyntaxError(ValueError):
    def __init__(self, msg, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(msg + loc)
        self.line = line
        self.col = col


@contextmanager
def _at_line(line_no: int):
    """A ValueError or a degenerate expression raised inside becomes a
    ProblemSyntaxError naming line_no."""
    try:
        yield
    except ProblemSyntaxError:
        raise
    except (ValueError, kernel.DegenerateExpressionError) as exc:
        raise ProblemSyntaxError(str(exc), line_no) from exc


@dataclass
class Problem:
    name: str
    space: JetSpace
    F: Expr
    lax: LaxPair
    assumptions: tuple
    lets: dict  # the let shorthands, for parsing a basis file
    twist: TwistRelations | None = None
    orientation: str | None = None
    ansatz: dict | None = None
    warnings: list = field(default_factory=list)


def fmt(e) -> str:
    return sp.sstr(sp.sympify(e)).replace("**", "^")


def _tokenize(text: str, line_no: int):
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ProblemSyntaxError(f"bad character {text[pos]!r}", line_no, pos + 1)
        tokens.append((m.group(1), pos + 1))
        pos = m.end()
    return tokens


class _ExprParser:
    def __init__(self, tokens, space: JetSpace, lets, line_no, allow_bare_d=False):
        self.tokens = tokens
        self.i = 0
        self.space = space
        self.lets = lets
        self.line = line_no
        self.allow_bare_d = allow_bare_d

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self):
        if self.i >= len(self.tokens):
            raise ProblemSyntaxError("unexpected end of expression", self.line)
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, want):
        tok, col = self.next()
        if tok != want:
            raise ProblemSyntaxError(f"expected {want!r}, got {tok!r}", self.line, col)

    def parse(self) -> Expr:
        e = self.expr()
        if self.i != len(self.tokens):
            tok, col = self.tokens[self.i]
            raise ProblemSyntaxError(f"unexpected {tok!r}", self.line, col)
        return e

    def expr(self):
        e = self.term()
        while self.peek() in ("+", "-"):
            op, _ = self.next()
            rhs = self.term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self):
        e = self.unary()
        while self.peek() in ("*", "/"):
            op, _ = self.next()
            rhs = self.unary()
            e = e * rhs if op == "*" else e / rhs
        return e

    def unary(self):
        if self.peek() in ("+", "-"):
            op, _ = self.next()
            e = self.unary()
            return e if op == "+" else -e
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() in ("^", "**"):
            self.next()
            exp = self.unary()
            if not sp.sympify(exp).is_Integer:
                raise ProblemSyntaxError("exponent must be an integer", self.line)
            return base ** exp
        return base

    def atom(self):
        tok, col = self.next()
        if tok == "(":
            e = self.expr()
            self.expect(")")
            return e
        if tok.isdigit():
            return sp.Integer(tok)
        if re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", tok):
            return self.name(tok, col)
        raise ProblemSyntaxError(f"unexpected {tok!r}", self.line, col)

    def name(self, tok, col):
        if tok.startswith("D_"):
            v = tok[2:]
            if v not in self.space.var_syms:
                raise ProblemSyntaxError(f"unknown direction in {tok!r}", self.line, col)
            if self.peek() == "(":
                self.next()
                inner = self.expr()
                self.expect(")")
                return expr_derivative(inner, v, self.space)
            if not self.allow_bare_d:
                raise ProblemSyntaxError(
                    f"bare {tok} is only allowed in lax lines", self.line, col)
            return sp.Symbol(f"_D_{v}")
        if tok in self.lets:
            return self.lets[tok]
        if tok == "lam":
            return LAMBDA
        for p in self.space.params:
            if p.name == tok:
                return p
        jv_sym = self._jet_name(tok)
        if jv_sym is not None:
            return jv_sym
        if tok in self.space.var_syms:
            return self.space.var_syms[tok]
        if len(tok) == 1 and tok.isalpha():
            raise ProblemSyntaxError(
                f"unknown symbol {tok!r} (not a declared variable)", self.line, col)
        raise ProblemSyntaxError(f"unknown symbol {tok!r}", self.line, col)

    def _jet_name(self, tok):
        head, sep, tail = tok.partition("_")
        if head not in ("u", "U", "Ut"):
            return None
        if not sep:
            return self.space.jet(head)
        if not tail or any(v not in self.space.var_syms for v in tail):
            return None
        return self.space.jet(head, tuple(tail))


_SLOT_RE = re.compile(r"f([12])_([01])")


def parse_problem(text: str, max_order: int | None = None) -> Problem:
    """Parse a problem file into a fully resolved Problem.  A max_order
    given here overrides the file's 'maxorder' line; it must be >= 1."""
    if max_order is not None and max_order < 1:
        raise ValueError(f"max_order must be at least 1, got {max_order}")
    name = None
    variables = None
    params: list[str] = []
    lets: dict[str, Expr] = {}
    space: JetSpace | None = None
    F = None
    lax_lines: list[tuple[int, Expr]] = []
    assumptions: list[Expr] = []
    twist_f: dict = {}
    orientation = None
    ansatz: dict = {}
    declared_max_order = 4
    warnings: list[str] = []

    lines = text.splitlines()
    for line_no, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()

        def parser(src, allow_bare_d=False):
            if space is None:
                raise ProblemSyntaxError("vars must be declared first", line_no)
            return _ExprParser(_tokenize(src, line_no), space, lets, line_no,
                               allow_bare_d)

        with _at_line(line_no):
            if head == "problem":
                name = rest
            elif head == "vars":
                variables = rest.split()
                for v in variables:
                    if len(v) != 1:
                        raise ProblemSyntaxError(
                            f"multi-letter variable name {v!r}", line_no)
                space = JetSpace(variables, declared_max_order if max_order is None
                                 else max_order, params)
            elif head == "maxorder":
                if not re.fullmatch(r"[0-9]+", rest) or int(rest) < 1:
                    raise ProblemSyntaxError(
                        f"maxorder must be an integer >= 1, got {rest!r}", line_no)
                declared_max_order = int(rest)
                if space is not None and max_order is None:
                    space = JetSpace(space.variables, declared_max_order, params)
            elif head == "param":
                params.extend(rest.split())
                if space is not None:
                    space = JetSpace(space.variables, space.max_order, params)
            elif head == "let":
                ident, _, src = rest.partition("=")
                ident = ident.strip()
                if not re.fullmatch(r"[A-Za-z][A-Za-z0-9]*", ident):
                    raise ProblemSyntaxError(f"bad let name {ident!r}", line_no)
                lets[ident] = normalize(parser(src).parse())
            elif head == "equation":
                src, _, zero = rest.rpartition("=")
                if zero.strip() != "0" or not src:
                    raise ProblemSyntaxError("equation line must end in '= 0'", line_no)
                e = normalize(parser(src).parse())
                num, den = e.as_numer_denom()
                F = sp.expand(num)
                for factor, _m in sp.factor_list(den)[1]:
                    fa = normalize(factor)
                    if fa not in assumptions:
                        assumptions.append(fa)
            elif head == "lax":
                lax_lines.append((line_no, sp.expand(parser(rest, allow_bare_d=True).parse())))
            elif head == "assume":
                src, _, tail = rest.partition("!=")
                if tail.strip() != "0":
                    raise ProblemSyntaxError("assume line must end in '!= 0'", line_no)
                fa = normalize(parser(src).parse())
                if fa not in assumptions:
                    assumptions.append(fa)
            elif head == "twist":
                slot_src, _, src = rest.partition("=")
                m = _SLOT_RE.fullmatch(slot_src.strip())
                if not m:
                    raise ProblemSyntaxError(f"bad twist slot {slot_src.strip()!r}", line_no)
                slot = (int(m.group(1)), int(m.group(2)))
                twist_f[slot] = normalize(parser(src).parse())
                check_twist_function(slot, twist_f[slot], space)
            elif head == "orientation":
                if rest not in ("forward", "swapped", "both"):
                    raise ProblemSyntaxError(f"bad orientation {rest!r}", line_no)
                orientation = rest
            elif head == "ansatz":
                slot, terms = _ansatz_line(rest, parser, line_no)
                ansatz[slot] = terms
            else:
                raise ProblemSyntaxError(f"unknown directive {head!r}", line_no)

    if name is None:
        raise ProblemSyntaxError("missing 'problem' line")
    if space is None:
        raise ProblemSyntaxError("missing 'vars' line")
    if F is None:
        raise ProblemSyntaxError("missing 'equation' line")
    if len(lax_lines) != 2:
        raise ProblemSyntaxError(f"expected exactly 2 lax lines, got {len(lax_lines)}")

    if len(space.variables) < 3:
        warnings.append(
            f"only {len(space.variables)} independent variables; the method "
            "targets three or more")
    if not any(space.jet_var(s) is not None and space.jet_var(s).order >= 2
               for s in F.free_symbols):
        raise ProblemSyntaxError("equation has no second-order jet of u")

    ring = jet_ring(space)
    splits = []
    for line_no, e in lax_lines:
        with _at_line(line_no):
            splits.append(split_lax_operator(_to_operator(e, ring, line_no), space))
    with _at_line(lax_lines[1][0]):  # the second line is proportional to the first
        pair = LaxPair.from_splits(*splits)

    twist = None
    if twist_f:
        full = {slot: twist_f.get(slot, sp.S.Zero) for slot in SLOTS}
        twist = TwistRelations(full, orientation if orientation in ("forward", "swapped")
                               else "forward")

    return Problem(name, space, normalize(F), pair, tuple(assumptions), lets,
                   twist, orientation, ansatz or None, warnings)


def _ansatz_line(rest: str, parser, line_no: int) -> tuple:
    """The slot and the terms, each read by parser, of an ansatz line."""
    slot_src, _, src = rest.partition("=")
    m = _SLOT_RE.fullmatch(slot_src.strip())
    if not m:
        raise ProblemSyntaxError(f"bad ansatz slot {slot_src.strip()!r}", line_no)
    terms = [normalize(parser(part).parse()) for part in src.split(",") if part.strip()]
    return (int(m.group(1)), int(m.group(2))), terms


def parse_basis(text: str, problem: Problem) -> dict:
    """Slot -> terms of the ansatz lines of a basis file, read with the
    problem's variables, parameters and lets; blank and comment lines
    aside, any other directive is an error."""
    ansatz = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        head, _, rest = raw.split("#", 1)[0].strip().partition(" ")
        if not head:
            continue
        if head != "ansatz":
            raise ProblemSyntaxError(f"a basis file holds only ansatz lines, got {head!r}",
                                     line_no)

        def parser(src):
            return _ExprParser(_tokenize(src, line_no), problem.space, problem.lets, line_no)

        with _at_line(line_no):
            slot, terms = _ansatz_line(rest, parser, line_no)
        ansatz[slot] = terms
    return ansatz


def _to_operator(e: Expr, ring: JetRing, line_no: int) -> FirstOrderOperator:
    """The operator of a lax line, its coefficients Forms of ring."""
    d_syms = sorted((s for s in e.free_symbols if s.name.startswith("_D_")),
                    key=str)
    if not d_syms:
        raise ProblemSyntaxError("lax line contains no D_<var> term", line_no)
    try:
        poly = sp.Poly(e, *d_syms)
    except sp.PolynomialError as exc:
        raise ProblemSyntaxError(f"lax operator is not linear in D terms: {exc}",
                                 line_no)
    if poly.total_degree() > 1:
        raise ProblemSyntaxError("lax operator must be first order", line_no)
    dirs = {}
    free = ring.zero
    for monom, coeff in poly.terms():
        if sum(monom) == 0:
            free = ring.from_expr(coeff)
        else:
            dirs[d_syms[monom.index(1)].name[3:]] = ring.from_expr(coeff)
    return FirstOrderOperator.make(free, dirs)
