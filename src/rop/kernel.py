"""Exact rational arithmetic and its one canonical form.

Rational functions over QQ are carried as ``Form``s; floating point
never enters.  A Form is linear over symbols kept outside its ring (the
``U``/``Ut`` jets, in ``rop.jets``): a sparse map from such a symbol, or
1, to a numerator ``PolyElement`` of ``FormRing.poly`` (QQ, grevlex in
``symbol_order``), all over one denominator.  The denominator is an
exponent map over the ring's registry of localising factors: irreducible
polynomials with grevlex leading coefficient 1, registered as they are
met (the factors of every denominator and of every inverted Form, such
as the leading coefficients that ``rop.jets`` rules are solved with).
So no gcd is ever taken: the canonical form is trial division by the
factors of the denominator, and zero is the empty map.  A new
denominator is split by the registered factors first; what is left is a
product of generators if it is a monomial, and is otherwise factored
once with ``PolyElement.factor_list`` in the polynomial ring of the
generators it uses.

Forms are built only with Form arithmetic (``FormRing.symbol``,
``FormRing.constant``, sums, products, ``Form.inverse``), as the parser
reads a problem file; ``FormRing.embed`` moves a Form into a ring with
more generators, such as the ansatz constants, and ``FormRing.lift``
moves one polynomial.  ``Form.as_expr`` gives the canonical expression,
for printed reports only.
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, Iterable

import sympy as sp
from sympy.core.sorting import default_sort_key
from sympy.polys.domains import QQ
from sympy.polys.orderings import grevlex
from sympy.polys.rings import PolyElement, PolyRing

Expr = sp.Expr

ONE = sp.S.One


class DegenerateExpressionError(ZeroDivisionError):
    """Denominator vanishes identically after simplification."""


class NotLinearError(ValueError):
    """A Form would hold a product of, or divide by, symbols outside
    its ring."""


def symbol_order(symbols: Iterable[sp.Symbol]) -> list[sp.Symbol]:
    """The single global symbol order used for canonicalization."""
    return sorted(symbols, key=default_sort_key)


# -- the carrier -------------------------------------------------------


def _shift(p: PolyElement, i: int, k: int) -> PolyElement:
    """p times the i-th generator to the power k (k may be negative when
    every monomial allows it)."""
    return p.new([(m[:i] + (m[i] + k,) + m[i + 1:], c) for m, c in p.items()])


class FormRing:
    """The polynomial ring of a family of Forms and its registry of
    localising factors.

    Symbols not in the ring are the keys a Form is linear over.  The
    registry only grows; a factor's id is its position in it.
    """

    def __init__(self, symbols: Iterable[sp.Symbol]):
        self.poly = PolyRing(symbol_order(set(symbols)), QQ, grevlex)
        self.symbols = self.poly.symbols
        self.index = {s: i for i, s in enumerate(self.symbols)}
        self._range = range(self.poly.ngens)
        self.factors: list[PolyElement] = []
        self._gen_of: list[int | None] = []  # generator index of a one-generator factor
        self._support: list[tuple[int, ...]] = []
        self._ids: dict[PolyElement, int] = {}
        self.zero = Form(self, {}, {})

    # -- conversion ----------------------------------------------------

    def symbol(self, s: sp.Symbol) -> "Form":
        """The Form of one symbol: a generator of the ring, or else a key."""
        i = self.index.get(s)
        if i is None:
            return Form(self, {s: self.poly.one}, {})
        return Form(self, {ONE: self.poly.gens[i]}, {})

    def lift(self, p: PolyElement) -> PolyElement:
        """p, a polynomial over QQ of another ring, as a polynomial of
        this ring; ValueError names a generator of p that this ring
        lacks."""
        where = [self.index.get(s) for s in p.ring.symbols]
        out = {}
        for m, c in p.items():
            big = [0] * self.poly.ngens
            for j in compress(range(len(m)), m):
                if where[j] is None:
                    raise ValueError(f"{p.ring.symbols[j]} is not a generator of the ring")
                big[where[j]] = m[j]
            out[tuple(big)] = c
        return self.poly.dtype(out)

    def embed(self, form: "Form") -> "Form":
        """form as a Form of this ring, whose generators include those
        form uses: every numerator and every factor of its denominator
        lifted.  A factor irreducible in the smaller ring stays
        irreducible here and keeps its leading coefficient (grevlex
        restricts to the common generators), so it is registered as it
        is."""
        src = form.ring
        if src is self:
            return form
        den = {self.factor_id(self.lift(src.factors[fid])): k for fid, k in form.den.items()}
        return Form(self, {k: self.lift(p) for k, p in form.terms.items()}, den)

    def constant(self, c) -> "Form":
        c = QQ(c.p, c.q) if isinstance(c, sp.Rational) else QQ(c)
        return Form(self, {ONE: self.poly.ground_new(c)}, {}) if c else self.zero

    def scalar(self, p: PolyElement) -> "Form":
        """The Form of a polynomial of the ring."""
        return Form(self, {ONE: p}, {}) if p else self.zero

    def den_poly(self, den: dict) -> PolyElement:
        """The expanded product of a denominator's factors."""
        return self._scale(self.poly.one, den)

    # -- factors -------------------------------------------------------

    def factor_id(self, f: PolyElement) -> int:
        """Id of the registered factor associate to the irreducible f,
        registering it if it is new."""
        f = f.quo_ground(f.LC)
        fid = self._ids.get(f)
        if fid is None:
            fid = len(self.factors)
            self.factors.append(f)
            self._ids[f] = fid
            lm = f.LM
            self._gen_of.append(lm.index(1) if len(f) == 1 and sum(lm) == 1 else None)
            self._support.append(tuple(i for i in self._range
                                       if any(m[i] for m in f)))
        return fid

    def _exquo(self, p: PolyElement, fid: int) -> PolyElement | None:
        """p / factors[fid] if it divides p, else None; a factor that is
        one generator is handled by the callers."""
        f = self.factors[fid]
        if not all(p.degree(j) >= f.degree(j) for j in self._support[fid]):
            return None
        q, rem = p.div(f)
        return None if rem else q

    def _factor(self, p: PolyElement) -> tuple:
        """(c, exps) with p = c * prod(factors[f]**exps[f]); p nonzero.
        Registered factors are divided out first; the rest is factored
        in the ring of the generators it uses and its factors registered."""
        exps: dict[int, int] = {}
        for fid in range(len(self.factors)):
            k, (p,) = self._cancel((p,), fid, None)
            if k:
                exps[fid] = k
        if p.is_ground:
            return p.LC, exps
        own = PolyRing([s for s, d in zip(self.symbols, p.degrees()) if d > 0], QQ, grevlex)
        c, factors = p.set_ring(own).factor_list()
        for g, mult in factors:
            g = self.lift(g)
            c *= g.LC**mult
            fid = self.factor_id(g)
            exps[fid] = exps.get(fid, 0) + mult
        return c, exps

    def _cancel(self, polys: tuple, fid: int, limit: int | None) -> tuple:
        """(k, quotients): f = factors[fid] divided k times out of every
        polynomial, k the largest number of times (at most limit) that f
        divides each of them."""
        g = self._gen_of[fid]
        if g is not None:  # divisibility by a generator is an exponent check
            k = min(min(m[g] for m in p) for p in polys)
            if limit is not None:
                k = min(k, limit)
            return k, (tuple(_shift(p, g, -k) for p in polys) if k else polys)
        k = 0
        while limit is None or k < limit:
            quotients = []
            for p in polys:
                q = self._exquo(p, fid)
                if q is None:
                    return k, polys
                quotients.append(q)
            polys, k = tuple(quotients), k + 1
        return k, polys

    def _scale(self, p: PolyElement, exps: dict) -> PolyElement:
        """p times prod(factors[f]**exps[f])."""
        for fid, k in exps.items():
            if k:
                g = self._gen_of[fid]
                p = _shift(p, g, k) if g is not None else p * self.factors[fid]**k
        return p

    # -- canonical forms ----------------------------------------------

    def _reduced(self, terms: dict, den: dict) -> "Form":
        """The canonical Form of sum(terms[k] * k) / den: zero entries
        dropped, then every factor of den divided out of all numerators
        as often as it divides each of them."""
        terms = {k: p for k, p in terms.items() if p}
        if not terms:
            return self.zero
        keys, polys = tuple(terms), tuple(terms.values())
        out = {}
        for fid, e in den.items():
            k, polys = self._cancel(polys, fid, e)
            if e > k:
                out[fid] = e - k
        return Form(self, dict(zip(keys, polys)), out)

    def combine(self, parts: list) -> "Form":
        """The canonical Form of sum(s * f for s, f in parts), each s a
        scalar Form and each f a Form; one common denominator and one
        trial division for the whole sum."""
        parts = [(s, f) for s, f in parts if s.terms and f.terms]
        if not parts:
            return self.zero
        dens = [_add_exps(s.den, f.den) for s, f in parts]
        common: dict[int, int] = {}
        for d in dens:
            for fid, k in d.items():
                if k > common.get(fid, 0):
                    common[fid] = k
        terms: dict = {}
        for (s, f), d in zip(parts, dens):
            factor = self._scale(s.terms[ONE], {fid: common[fid] - d.get(fid, 0)
                                                for fid in common})
            for key, p in f.terms.items():
                q = p if factor.is_one else factor * p
                terms[key] = terms[key] + q if key in terms else q
        return self._reduced(terms, common)


def _add_exps(a: dict, b: dict) -> dict:
    if not b:
        return a
    out = dict(a)
    for fid, k in b.items():
        out[fid] = out.get(fid, 0) + k
    return out


class Form:
    """A canonical rational function linear over the symbols outside its
    ring: sum(terms[k] * k) / prod(factors[f]**den[f]), with k a symbol
    outside the ring or 1.  Immutable; build Forms with FormRing."""

    __slots__ = ("ring", "terms", "den")
    __hash__ = None

    def __init__(self, ring: FormRing, terms: dict, den: dict):
        self.ring = ring
        self.terms = terms
        self.den = den

    # -- queries -------------------------------------------------------

    def is_scalar(self) -> bool:
        return all(k is ONE for k in self.terms)

    @property
    def free_symbols(self) -> set:
        ring = self.ring
        present = set()
        for p in self.terms.values():
            for m in p:
                present.update(compress(ring._range, m))
        for fid in self.den:
            present.update(ring._support[fid])
        return {ring.symbols[i] for i in present} | {k for k in self.terms if k is not ONE}

    def __eq__(self, other):
        if isinstance(other, Form):
            return (self.ring is other.ring and self.den == other.den
                    and self.terms == other.terms)
        if other == 0:
            return not self.terms
        return self.as_expr() == other

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Form):
            if other.ring is not self.ring:
                raise ValueError("Forms of different rings")
            return other
        if isinstance(other, int) or isinstance(other, sp.Rational):
            return self.ring.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        one = self.ring.constant(1)
        return self.ring.combine([(one, self), (one, other)])

    def __neg__(self):
        return Form(self.ring, {k: -p for k, p in self.terms.items()}, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_scalar():
            return self.ring.combine([(self, other)])
        if other.is_scalar():
            return self.ring.combine([(other, self)])
        raise NotLinearError("product of two Forms with keys")

    __rmul__ = __mul__

    def inverse(self) -> "Form":
        """1/self for a nonzero scalar Form; its numerator is factored
        into the registry."""
        if not self.terms:
            raise DegenerateExpressionError("division by zero")
        if not self.is_scalar():
            raise NotLinearError("division by a Form with keys")
        c, exps = self.ring._factor(self.terms[ONE])
        num = self.ring.den_poly(self.den).quo_ground(c)
        return Form(self.ring, {ONE: num}, exps)

    def derive(self, d: Callable[[PolyElement], PolyElement],
               dkey: Callable[[sp.Symbol], sp.Symbol | None]) -> "Form":
        """Image under the derivation that is d on the ring and maps a
        key k to the key dkey(k) (None for the constant 1).  Quotient
        rule over the factors of the denominator that d does not kill."""
        ring = self.ring
        dfs = {}
        for fid in self.den:
            df = d(ring.factors[fid])
            if df:
                dfs[fid] = df
        rad = {fid: 1 for fid in dfs}
        terms: dict = {}

        def put(key, p):
            if p:
                terms[key] = terms[key] + p if key in terms else p

        for key, p in self.terms.items():
            n = ring._scale(d(p), rad)
            for fid, df in dfs.items():
                others = {g: 1 for g in dfs if g != fid}
                n = n - ring._scale(p * df, others).mul_ground(self.den[fid])
            put(key, n)
            k2 = dkey(key) if key is not ONE else None
            if k2 is not None:
                put(k2, ring._scale(p, rad))
        return ring._reduced(terms, _add_exps(self.den, rad))

    # -- boundary ------------------------------------------------------

    def as_expr(self) -> sp.Expr:
        """The canonical expression: the expanded numerator over the
        expanded product of the denominator's factors."""
        if not self.terms:
            return sp.S.Zero
        syms = self.ring.symbols
        to_sympy = QQ.to_sympy
        args = []
        for key, p in self.terms.items():
            for m, c in p.items():
                t = [to_sympy(c)]
                t.extend(sp.Pow(syms[i], m[i]) for i in compress(self.ring._range, m))
                if key is not ONE:
                    t.append(key)
                args.append(sp.Mul(*t))
        num = sp.Add(*args)
        if not self.den:
            return num
        return num / self.ring.den_poly(self.den).as_expr()

    def _sympy_(self):
        """sympify(form) is form.as_expr()."""
        return self.as_expr()

    def as_numer_denom(self) -> tuple[sp.Expr, sp.Expr]:
        """Numerator and denominator of as_expr(), as sympy gives them."""
        return self.as_expr().as_numer_denom()

    def __repr__(self):
        return f"Form({self.as_expr()})"
