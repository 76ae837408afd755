"""Line-oriented problem files.

Grammar (one directive per line, ``#`` starts a comment):

    problem <name>
    vars <v> <v> ...            single letters; order fixes the ranking
    maxorder <n>                optional jet-order bound (default 4)
    param <p> ...
    let <id> = <expr>           shorthand for the expressions after it
    equation <expr> = 0         free of lam, U and Ut
    lax <expr with D_x and lam> exactly two lines
    twist f1_0 = <expr>         four optional lines (f1_0 f1_1 f2_0 f2_1)
    orientation forward|swapped|both
    ansatz f1_0 = <expr>, <expr>, ...

Expressions use integers, ``+ - * / ( )``, ``^`` with an integer
exponent, jet variables ``u_xy`` (indices sorted internally), ``U`` and
``Ut`` for the seed symmetry and its image, ``lam`` for the spectral
parameter, and ``D_x(...)`` for total-derivative application.  A param
or let may not take a name that is ``lam``, a jet or declared before.

After the declarations, each expression is evaluated as it is read, to a
Form of the space's JetRing: ``D_x`` is ``jets.total_derivative``, ``/``
is ``Form.inverse``, and in a lax line a bare ``D_x`` is a direction of
a FirstOrderOperator.  The equation is kept as its numerator.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from typing import NamedTuple

from . import kernel
from .engine import SLOTS, TwistRelations, check_twist_function
from .jets import UNKNOWNS, JetSpace, jet_ring, total_derivative
from .kernel import ONE, Form, Poly
from .lax import LAMBDA, FirstOrderOperator, LaxPair, split_lax_operator

_TOKEN = re.compile(r"\s*(\*\*|[A-Za-z][A-Za-z0-9_]*|\d+|[-+*/^(),=])")


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


class Problem(NamedTuple):
    name: str
    space: JetSpace
    F: Form  # the equation's numerator, with integer coefficients
    lax: LaxPair
    lets: dict  # the let shorthands, for parsing a basis file
    twist: TwistRelations | None
    orientation: str | None
    ansatz: dict | None
    warnings: list


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
    """One expression, evaluated while it is read to a Form of the
    space's JetRing or, where a bare D_x is allowed (a lax line), to a
    FirstOrderOperator."""

    def __init__(self, tokens, space: JetSpace, lets, line_no, allow_bare_d=False):
        self.tokens = tokens
        self.i = 0
        self.space = space
        self.ring = jet_ring(space)
        self.names = {LAMBDA, *space.params, *space.variables}  # distinct (_declare)
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

    def parse(self):
        e = self.expr()
        if self.i != len(self.tokens):
            tok, col = self.tokens[self.i]
            raise ProblemSyntaxError(f"unexpected {tok!r}", self.line, col)
        return e

    def not_first_order(self):
        raise ProblemSyntaxError(
            "a lax operator must be first order and linear in its D terms", self.line)

    def binary(self, op, a, b):
        """a op b for Forms and, in a lax line, operators."""
        a_op, b_op = (isinstance(e, FirstOrderOperator) for e in (a, b))
        if op in "+-":
            if a_op or b_op:
                a, b = (e if isinstance(e, FirstOrderOperator)
                        else FirstOrderOperator.make(e, {}) for e in (a, b))
            return a + b if op == "+" else a - b
        if op == "/":
            if b_op:
                self.not_first_order()
            b = b.inverse()
        if a_op and b_op:
            self.not_first_order()
        return a.scaled(b) if a_op else b.scaled(a) if b_op else a * b

    def expr(self):
        e = self.term()
        while self.peek() in ("+", "-"):
            op, _ = self.next()
            e = self.binary(op, e, self.term())
        return e

    def term(self):
        e = self.unary()
        while self.peek() in ("*", "/"):
            op, _ = self.next()
            e = self.binary(op, e, self.unary())
        return e

    def unary(self):
        if self.peek() in ("+", "-"):
            op, _ = self.next()
            e = self.unary()
            return e if op == "+" else -e
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() not in ("^", "**"):
            return base
        self.next()
        k = _integer(self.unary())
        if k is None:
            raise ProblemSyntaxError("exponent must be an integer", self.line)
        if abs(k) > kernel.LIMIT:  # each unit of k is one product below
            raise kernel._overflow()
        if isinstance(base, FirstOrderOperator):
            self.not_first_order()
        if k < 0:
            base, k = base.inverse(), -k
        out = self.ring.constant(1)
        for _ in range(k):
            out = out * base
        return out

    def atom(self):
        tok, col = self.next()
        if tok == "(":
            e = self.expr()
            self.expect(")")
            return e
        if tok.isdigit():
            return self.ring.constant(int(tok))
        if re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", tok):
            return self.name(tok, col)
        raise ProblemSyntaxError(f"unexpected {tok!r}", self.line, col)

    def name(self, tok, col):
        if tok.startswith("D_"):
            v = tok[2:]
            if v not in self.space.variables:
                raise ProblemSyntaxError(f"unknown direction in {tok!r}", self.line, col)
            if self.peek() == "(":
                self.next()
                inner = self.expr()
                self.expect(")")
                if isinstance(inner, FirstOrderOperator):
                    self.not_first_order()
                return total_derivative(inner, v)
            if not self.allow_bare_d:
                raise ProblemSyntaxError(
                    f"bare {tok} is only allowed in lax lines", self.line, col)
            return FirstOrderOperator.make(self.ring.zero, {v: self.ring.constant(1)})
        if tok in self.lets:
            return self.lets[tok]
        sym = tok if tok in self.names else self.space.jet_named(tok)
        if sym is not None:
            return self.ring.symbol(sym)
        if len(tok) == 1 and tok.isalpha():
            raise ProblemSyntaxError(
                f"unknown symbol {tok!r} (not a declared variable)", self.line, col)
        raise ProblemSyntaxError(f"unknown symbol {tok!r}", self.line, col)


def _integer(e) -> int | None:
    """The value of a Form that is an integer constant, else None."""
    if not isinstance(e, Form) or e.den or not e.is_scalar():
        return None
    p = e.terms.get(ONE)
    if p is None:
        return 0
    if len(p) != 1:
        return None
    (m, c), = p.items()
    return int(c) if not m and c.denominator == 1 else None


_SLOT_RE = re.compile(r"f([12])_([01])")


def _declare(name: str, kind: str, taken: dict, line_no: int) -> None:
    """Record a declared name in taken (name -> what it is); a jet name
    (u, U or Ut, alone or before '_') and a name taken before are errors."""
    meaning = "a jet name" if name.partition("_")[0] in UNKNOWNS else taken.get(name)
    if meaning:
        raise ProblemSyntaxError(f"{kind} {name!r} is already {meaning}", line_no)
    taken[name] = f"a {kind}"


def parse_problem(text: str, max_order: int | None = None) -> Problem:
    """Parse a problem file into a fully resolved Problem.  A max_order
    given here overrides the file's 'maxorder' line; it must be >= 1."""
    if max_order is not None and max_order < 1:
        raise ValueError(f"max_order must be at least 1, got {max_order}")
    name = None
    variables = None
    params: list[str] = []
    taken = {"lam": "the spectral parameter"}
    orientation = None
    declared_max_order = 4
    expressions = []  # (line number, directive, rest) of the expression lines

    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        with _at_line(line_no):
            if head == "problem":
                name = rest
            elif head == "vars":
                for v in rest.split():
                    _declare(v, "variable", taken, line_no)
                variables = JetSpace(rest.split()).variables  # checks the names
            elif head == "maxorder":
                if not re.fullmatch(r"[0-9]+", rest) or int(rest) < 1:
                    raise ProblemSyntaxError(
                        f"maxorder must be an integer >= 1, got {rest!r}", line_no)
                declared_max_order = int(rest)
            elif head == "param":
                for p in rest.split():
                    _declare(p, "param", taken, line_no)
                    params.append(p)
            elif head == "orientation":
                if rest not in ("forward", "swapped", "both"):
                    raise ProblemSyntaxError(f"bad orientation {rest!r}", line_no)
                orientation = rest
            elif head in ("let", "equation", "lax", "twist", "ansatz"):
                if variables is None:
                    raise ProblemSyntaxError("vars must be declared first", line_no)
                expressions.append((line_no, head, rest))
            else:
                raise ProblemSyntaxError(f"unknown directive {head!r}", line_no)

    if name is None:
        raise ProblemSyntaxError("missing 'problem' line")
    if variables is None:
        raise ProblemSyntaxError("missing 'vars' line")
    ring = jet_ring(JetSpace(variables,
                             declared_max_order if max_order is None else max_order, params))
    space = ring.space
    lets: dict[str, Form] = {}
    F = None
    splits = []  # (line number, (X1, X0)) of the lax lines
    twist_f: dict = {}
    ansatz: dict = {}

    for line_no, head, rest in expressions:

        def parser(src, allow_bare_d=False):
            return _ExprParser(_tokenize(src, line_no), space, lets, line_no,
                               allow_bare_d)

        with _at_line(line_no):
            if head == "let":
                ident, _, src = rest.partition("=")
                ident = ident.strip()
                if not re.fullmatch(r"[A-Za-z][A-Za-z0-9]*", ident):
                    raise ProblemSyntaxError(f"bad let name {ident!r}", line_no)
                _declare(ident, "let", taken, line_no)
                lets[ident] = parser(src).parse()
            elif head == "equation":
                src, _, zero = rest.rpartition("=")
                if zero.strip() != "0" or not src:
                    raise ProblemSyntaxError("equation line must end in '= 0'", line_no)
                e = parser(src).parse()
                if not e.is_scalar() or LAMBDA in e.free_symbols:
                    raise ProblemSyntaxError("the equation must be free of lam, U and Ut",
                                             line_no)
                F = ring.scalar(e.terms.get(ONE, Poly()).clear_denoms()[1])
            elif head == "lax":
                op = parser(rest, allow_bare_d=True).parse()
                if not isinstance(op, FirstOrderOperator) or not op.dirs:
                    raise ProblemSyntaxError("lax line contains no D_<var> term", line_no)
                splits.append((line_no, split_lax_operator(op)))
            elif head == "twist":
                slot_src, _, src = rest.partition("=")
                m = _SLOT_RE.fullmatch(slot_src.strip())
                if not m:
                    raise ProblemSyntaxError(f"bad twist slot {slot_src.strip()!r}", line_no)
                slot = (int(m.group(1)), int(m.group(2)))
                twist_f[slot] = parser(src).parse()
                check_twist_function(slot, twist_f[slot])
            else:
                slot, terms = _ansatz_line(rest, parser, line_no)
                ansatz[slot] = terms

    if F is None:
        raise ProblemSyntaxError("missing 'equation' line")
    if len(splits) != 2:
        raise ProblemSyntaxError(f"expected exactly 2 lax lines, got {len(splits)}")

    warnings = []
    if len(space.variables) < 3:
        warnings.append(
            f"only {len(space.variables)} independent variables; the method "
            "targets three or more")
    if not any(space.jet_var(s) is not None and space.jet_var(s).order >= 2
               for s in F.free_symbols):
        raise ProblemSyntaxError("equation has no second-order jet of u")

    with _at_line(splits[1][0]):  # the second line is proportional to the first
        pair = LaxPair.from_splits(splits[0][1], splits[1][1])

    twist = (TwistRelations({slot: twist_f.get(slot, ring.zero) for slot in SLOTS})
             if twist_f else None)

    return Problem(name, space, F, pair, lets, twist, orientation, ansatz or None,
                   warnings)


def _ansatz_line(rest: str, parser, line_no: int) -> tuple:
    """The slot and the terms, each read by parser, of an ansatz line."""
    slot_src, _, src = rest.partition("=")
    m = _SLOT_RE.fullmatch(slot_src.strip())
    if not m:
        raise ProblemSyntaxError(f"bad ansatz slot {slot_src.strip()!r}", line_no)
    terms = [parser(part).parse() for part in src.split(",") if part.strip()]
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
