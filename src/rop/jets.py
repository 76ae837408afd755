"""Jet coordinates, total derivatives, rankings, and rewrite systems.

Three unknowns live on the jet space: the equation unknown ``u``, a seed
symmetry ``U`` and its image ``Ut`` (printed as the twisted symmetry).
Jet variables, like every symbol of rop, are plain names (``str``):
``u_xy``, ``U_t``, ``Ut_zz``, with multi-indices kept sorted in the
ranking's order, so ``u_xy`` and ``u_yx`` name one jet.

Everything from the Lax operators and the relations on is carried as
``kernel.Form``, the one canonical form, over a JetRing: the polynomial
ring of the independent variables, the ``u``-jets up to the order bound,
the ansatz constants, ``lam`` and the parameters.  ``U``/``Ut`` jets stay
out of the ring; every relation is linear in them, so they are the keys
of a Form.  The total derivative is a derivation of the ring (each
``u``-jet to its shifted jet, ``D_x x = 1``) plus the shift of each key.
The functions here take and return Forms only; the parser builds them.
A Form's jet space, with its ranking and order bound, is its ring's
(``JetRing.space``), so no function past the parser takes a space.

A RewriteSystem holds solved relations (equation, linearized equation,
recursion relations) oriented by a well-founded ranking, and reduces
Forms to normal form, generating prolongations of the rules on demand:
a ``U``/``Ut`` rule replaces a key, a ``u`` rule is substituted into the
numerators and into the factors of the denominator.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from itertools import combinations_with_replacement, compress
from typing import Iterable, Sequence

from .kernel import ONE, DegenerateExpressionError, Form, FormRing, Poly, symbol_order

UNKNOWNS = ("u", "U", "Ut")
LAMBDA = "lam"


class OrderOverflowError(ValueError):
    """A jet beyond the registry's maximum order was demanded."""


class NonlinearLeadingError(ValueError):
    """Relation is nonlinear in the jet it should be solved for."""


class NoLeadingJetError(ValueError):
    """No solvable leading jet with nonzero coefficient remains."""


@dataclass(frozen=True)
class JetVar:
    unknown: str
    index: tuple[str, ...]

    @property
    def order(self) -> int:
        return len(self.index)


class JetSpace:
    """Registry of independent variables, parameters, and jet names.

    The declaration order of the independent variables doubles as the
    ranking: earlier variables rank higher.  The unknown precedence is
    fixed to Ut > U > u.
    """

    def __init__(self, variables: Sequence[str], max_order: int = 4,
                 params: Sequence[str] = ()):
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate independent variables")
        for v in variables:
            if len(v) != 1 or not v.isalpha():
                raise ValueError(f"independent variables are single letters, got {v!r}")
            if v in UNKNOWNS:
                raise ValueError(f"variable name {v!r} collides with an unknown")
        self.variables = tuple(variables)
        self.max_order = int(max_order)
        self._pos = {v: i for i, v in enumerate(self.variables)}
        self.params = tuple(params)
        self._by_name: dict[str, JetVar] = {}

    # -- jet names -----------------------------------------------------

    def jet(self, unknown: str, index: Iterable[str] = ()) -> str:
        if unknown not in UNKNOWNS:
            raise ValueError(f"unknown function {unknown!r}")
        for v in index:
            if v not in self._pos:
                raise ValueError(f"{v!r} is not an independent variable")
        idx = tuple(sorted(index, key=self._pos.__getitem__))
        if len(idx) > self.max_order:
            raise OrderOverflowError(
                f"jet of order {len(idx)} exceeds bound {self.max_order}; "
                "raise the bound with a 'maxorder' line or --max-order")
        name = unknown if not idx else f"{unknown}_{''.join(idx)}"
        self._by_name[name] = JetVar(unknown, idx)
        return name

    def jet_var(self, name: str) -> JetVar | None:
        """JetVar behind a name, or None for non-jet names and for a
        name with its indices out of ranking order (u_yx is not a jet's)."""
        if name not in self._by_name:
            self.jet_named(name)  # registers the jet the name denotes
        return self._by_name.get(name)

    def jet_named(self, name: str) -> str | None:
        """The jet a name such as u_yx denotes, its indices in any order;
        None if the name is not a jet's."""
        head, sep, tail = name.partition("_")
        if head not in UNKNOWNS or (sep and not tail) or any(v not in self._pos for v in tail):
            return None
        return self.jet(head, tuple(tail))

    # -- ranking -------------------------------------------------------

    def rank_of(self, name: str) -> tuple:
        """Key comparable with > ; larger key means higher-ranked jet."""
        jv = self.jet_var(name)
        if jv is None:
            raise ValueError(f"{name} is not a jet variable")
        lex = tuple(sorted((len(self.variables) - self._pos[v] for v in jv.index),
                           reverse=True))
        return (UNKNOWNS.index(jv.unknown), jv.order, lex)


_TOP = -2  # D_x of a u-jet of the top order would overflow the bound


class JetRing(FormRing):
    """The carrier's ring on a jet space: the independent variables, the
    u-jets up to the order bound, lam, the parameters and the given
    symbols (the ansatz constants).  U/Ut jets are the keys."""

    def __init__(self, space: JetSpace, symbols: Sequence[str] = ()):
        self.space = space
        u_jets = [space.jet("u", idx) for k in range(space.max_order + 1)
                  for idx in combinations_with_replacement(space.variables, k)]
        super().__init__([*space.variables, *u_jets, LAMBDA,
                          *space.params, *symbols])
        self.u_jets = frozenset(self.index[s] for s in u_jets)
        self._target_lists: dict[str, list] = {}

    def _targets(self, x: str) -> list:
        """Per generator, the generator D_x maps it to: an index, -1 for
        x itself (D_x x = 1), None when D_x kills it, _TOP for a u-jet of
        the top order."""
        t = self._target_lists.get(x)
        if t is None:
            space = self.space
            t = [None] * len(self.symbols)
            t[self.index[x]] = -1
            for i in self.u_jets:
                jv = space.jet_var(self.symbols[i])
                t[i] = (self.index[space.jet("u", jv.index + (x,))]
                        if jv.order < space.max_order else _TOP)
            self._target_lists[x] = t
        return t

    def dpoly(self, p, x: str):
        """D_x of a polynomial of the ring."""
        t = self._targets(x)
        out: dict = {}
        for m, c in p.items():
            for i in compress(self._range, m):
                j = t[i]
                if j is None:
                    continue
                if j == _TOP:
                    jv = self.space.jet_var(self.symbols[i])
                    self.space.jet("u", jv.index + (x,))  # raises OrderOverflowError
                e = m[i]
                shifted = list(m)
                shifted[i] = e - 1
                if j >= 0:
                    shifted[j] += 1
                k = tuple(shifted)
                v = out.get(k)
                out[k] = c * e if v is None else v + c * e
        return Poly({k: v for k, v in out.items() if v})


_live_rings: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@functools.lru_cache(maxsize=16)
def _jet_ring(*key) -> JetRing:
    ring = _live_rings.get(key)
    if ring is None:  # key: variables, max_order, params, extra symbols
        space = _jet_ring(*key[:3], ()).space if key[3] else JetSpace(*key[:3])
        ring = _live_rings[key] = JetRing(space, key[3])
    return ring


def jet_ring(space: JetSpace, symbols: Iterable[str] = ()) -> JetRing:
    """The JetRing of a space with the given extra generators.  The 16
    rings asked for last are kept; any other is found again for as long
    as it is alive (a Form refers to it), so that the Forms a parsed
    problem holds and those made later on an equal space share one
    ring.  A ring with extra generators is built on the space of the
    ring without them, so every ring of one configuration has one
    JetSpace."""
    return _jet_ring(space.variables, space.max_order, space.params,
                     tuple(symbol_order(set(symbols))))


def total_derivative(form: Form, x: str) -> Form:
    """Total derivative D_x of a Form of a JetRing: explicit
    x-dependence plus the chain rule over every jet variable present."""
    ring = form.ring
    space = ring.space

    def dkey(key):
        jv = space.jet_var(key)
        return space.jet(jv.unknown, jv.index + (x,))

    return form.derive(lambda p: ring.dpoly(p, x), dkey)


def _multiset_leq(small: tuple[str, ...], big: tuple[str, ...]) -> bool:
    rest = list(big)
    for v in small:
        if v in rest:
            rest.remove(v)
        else:
            return False
    return True


def _multiset_diff(big: tuple[str, ...], small: tuple[str, ...]) -> tuple[str, ...]:
    rest = list(big)
    for v in small:
        rest.remove(v)
    return tuple(rest)


@dataclass(frozen=True)
class RewriteRule:
    """Solved relation lhs -> rhs with every jet in rhs strictly below
    lhs.  lead is the coefficient of lhs in the relation it was solved
    from, a polynomial Form: the rule holds where lead is nonzero."""
    lhs: str
    rhs: Form
    lead: Form

    def validate(self) -> None:
        space = self.rhs.ring.space
        top = space.rank_of(self.lhs)
        for s in self.rhs.free_symbols:
            if space.jet_var(s) is not None and not space.rank_of(s) < top:
                raise ValueError(
                    f"rule {self.lhs} -> ... contains jet {s} not below its lhs")


def solve_for_leading(rel: Form, unknown: str) -> RewriteRule:
    """Solve a relation (== 0) for its ranking-greatest jet of ``unknown``
    in the ranking of its ring's space.

    The rule's lead is that jet's coefficient, a polynomial Form;
    inverting it registers its irreducible factors in the ring, where a
    RewriteSystem reads them back as its assumptions.
    """
    ring = rel.ring
    space = ring.space
    if unknown == "u":
        present = set()
        for p in rel.terms.values():
            for m in p:
                present.update(compress(range(len(m)), m))
        jets = [ring.symbols[i] for i in present & ring.u_jets]
    else:
        jets = [k for k in rel.terms
                if k is not ONE and space.jet_var(k).unknown == unknown]
    if not jets:
        raise NoLeadingJetError(f"relation has no {unknown}-jets: {rel}")
    v = max(jets, key=space.rank_of)
    if unknown == "u":
        parts = ring.split(rel, ring.index[v])
        if parts is None:
            raise NonlinearLeadingError(f"relation is nonlinear in its leading jet {v}")
        a, b = parts
    else:
        a = ring.scalar(rel.terms[v])
        b = Form(ring, {k: p for k, p in rel.terms.items() if k != v}, {})
    return RewriteRule(v, -b * a.inverse(), a)


class RewriteSystem:
    """Solved rules plus on-demand prolongations; reduction to normal form.

    Every replacement is strictly decreasing under the ranking, and the
    highest-ranked applicable rule is chosen for each reducible jet.
    Normal forms of reducible jets are memoized per system.  All rules
    are Forms of the first rule's JetRing, and ``space``, whose ranking
    orients them, is that ring's.

    ``assumptions`` are what the rules hold under: the distinct
    irreducible factors of their leads as polynomial Forms, in rule
    order, as the ring's registry divides them out of each lead.
    """

    def __init__(self, rules: Iterable[RewriteRule]):
        rules = list(rules)
        self.ring = rules[0].rhs.ring
        self.space = space = self.ring.space
        self.rules: dict[str, RewriteRule] = {}
        for r in rules:
            if r.rhs.ring is not self.ring or r.lead.ring is not self.ring:
                raise ValueError(f"rule for {r.lhs} is in another ring")
            if r.lhs in self.rules:
                raise ValueError(f"duplicate rule for {r.lhs}")
            r.validate()
            self.rules[r.lhs] = r
        lhss = list(self.rules)
        for i, a in enumerate(lhss):
            for b in lhss[i + 1:]:
                ja, jb = space.jet_var(a), space.jet_var(b)
                if ja.unknown == jb.unknown and (
                        _multiset_leq(ja.index, jb.index)
                        or _multiset_leq(jb.index, ja.index)):
                    raise ValueError(
                        f"rule lhs {a} and {b} are derivatives of one another")
        factors: dict[int, None] = {}
        for r in self.rules.values():
            factors.update(dict.fromkeys(r.lead.inverse().den))
        self.assumptions = tuple(self.ring.scalar(self.ring.factors[fid]) for fid in factors)
        self._nf: dict[str, Form] = {}
        self._match: dict[str, RewriteRule | None] = {}
        reducible = [i for i in self.ring.u_jets
                     if self.matching_rule(self.ring.symbols[i]) is not None]
        self._substitution = self.ring.substitution(
            reducible, lambda i: self.normal_form(self.ring.symbols[i]))

    def matching_rule(self, sym: str) -> RewriteRule | None:
        if sym in self._match:
            return self._match[sym]
        jv = self.space.jet_var(sym)
        best = None
        if jv is not None:
            for lhs, rule in self.rules.items():
                jl = self.space.jet_var(lhs)
                if jl.unknown == jv.unknown and _multiset_leq(jl.index, jv.index):
                    if best is None or self.space.rank_of(lhs) > self.space.rank_of(best.lhs):
                        best = rule
        self._match[sym] = best
        return best

    def normal_form(self, sym: str) -> Form:
        cached = self._nf.get(sym)
        if cached is not None:
            return cached
        rule = self.matching_rule(sym)
        ring = self.ring
        if rule is None:
            nf = ring.symbol(sym)
        else:
            jv = self.space.jet_var(sym)
            jl = self.space.jet_var(rule.lhs)
            e = self.reduce(rule.rhs)
            for x in _multiset_diff(jv.index, jl.index):
                e = self.reduce(total_derivative(e, x))
            nf = e
        self._nf[sym] = nf
        return nf

    def reduce(self, e: Form) -> Form:
        """Normal form modulo the rules and their prolongations: u-jets
        are substituted, then reducible keys replaced."""
        if e.ring is not self.ring:
            raise ValueError("Form of another ring")
        e = self._substitute(e)
        reducible = [k for k in e.terms
                     if k is not ONE and self.matching_rule(k) is not None]
        if not reducible:
            return e
        ring = self.ring
        rest = Form(ring, {k: p for k, p in e.terms.items() if k not in reducible}, {})
        parts = [(Form(ring, {ONE: ring.one}, e.den), rest)]
        parts += [(Form(ring, {ONE: e.terms[k]}, e.den), self.normal_form(k))
                  for k in reducible]
        return ring.combine(parts)

    def _substitute(self, e: Form) -> Form:
        """Every reducible u-jet replaced by its normal form by the ring's
        substitution, whose error on a denominator factor that reduces to
        zero says that it vanishes on the equation."""
        try:
            return self._substitution(e)
        except DegenerateExpressionError as exc:
            if exc.__cause__ is not None:  # raised by a nested reduction
                raise
            raise DegenerateExpressionError(f"{exc} on the equation") from exc
