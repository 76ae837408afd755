"""Exact rational arithmetic, its one canonical form, and its printer.

Rational functions over QQ are carried as ``Form``s; floating point
never enters, and nothing here needs sympy.  Symbols are plain names
(``str``).  A polynomial is a ``Poly``: a sparse map from an exponent
tuple (one entry per generator of its ``FormRing``, in ``symbol_order``)
to a nonzero ``int`` or ``fractions.Fraction``; its leading term is the
grevlex one.

A Form is linear over symbols kept outside its ring (the ``U``/``Ut``
jets, in ``rop.jets``): a sparse map from such a symbol, or ``ONE``, to
a numerator Poly, all over one denominator.  The denominator is an
exponent map over the ring's registry of localising factors: irreducible
polynomials with grevlex leading coefficient 1, registered as they are
met (the factors of every denominator and of every inverted Form, such
as the leading coefficients that ``rop.jets`` rules are solved with).
So no gcd is ever taken: the canonical form is trial division by the
factors of the denominator, and zero is the empty map.  A new
denominator is split by the registered factors first; then its monomial
content is taken out, and a polynomial of degree 1 in some generator is
split by the factors of its leading coefficient in that generator (see
``_irreducible_factors``).  Only a polynomial of degree 2 or more in
every generator is factored with sympy.

Forms are built only with Form arithmetic (``FormRing.symbol``,
``FormRing.constant``, sums, products, ``Form.inverse``), as the parser
reads a problem file; ``FormRing.embed`` moves a Form into a ring with
more generators, such as the ansatz constants, and ``FormRing.lift``
moves one polynomial.  ``FormRing.split`` and ``FormRing.substitution``
are the two operations that rewriting and solving share: a Form as
a*x + b in one generator x, and the values of some generators put into
a Form.  A Form is true when it is nonzero and hashes by its canonical
form.  ``fmt`` prints a Form as sympy's ``sstr`` prints its canonical
expression; ``Form.as_expr`` builds that expression with sympy, for
callers that want one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from typing import Callable, Iterable


class _One:
    """The key of a Form's part that is not multiplied by a symbol."""

    __slots__ = ()

    def __repr__(self):
        return "ONE"


ONE = _One()


class DegenerateExpressionError(ZeroDivisionError):
    """Denominator vanishes identically after simplification."""


class NotLinearError(ValueError):
    """A Form would hold a product of, or divide by, symbols outside
    its ring."""


def symbol_order(symbols: Iterable) -> list:
    """The single global symbol order used for canonicalization: by name."""
    return sorted(symbols, key=str)


def _grevlex(m: tuple) -> tuple:
    """Sort key of a monomial in the graded reverse lexicographic order."""
    return (sum(m), tuple([-e for e in reversed(m)]))


def _rational(c):
    """c (an int, a Fraction or any exact rational with numerator and
    denominator) as an int or a Fraction."""
    n, d = int(c.numerator), int(c.denominator)
    return n if d == 1 else Fraction(n, d)


def _quo(a, b):
    """a / b, an int when it is one."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _rational(Fraction(a) / b)


# -- the polynomial ----------------------------------------------------


class Poly(dict):
    """A polynomial: exponent tuple -> nonzero rational coefficient.
    Treated as immutable once built; every operation returns a new
    Poly."""

    __slots__ = ()

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __neg__(self):
        return Poly({m: -c for m, c in self.items()})

    def __add__(self, other):
        out = Poly(self)
        get = out.get
        for m, c in other.items():
            v = get(m)
            if v is None:
                out[m] = c
            else:
                v += c
                if v:
                    out[m] = v
                else:
                    del out[m]
        return out

    def __sub__(self, other):
        out = Poly(self)
        get = out.get
        for m, c in other.items():
            v = get(m)
            if v is None:
                out[m] = -c
            else:
                v -= c
                if v:
                    out[m] = v
                else:
                    del out[m]
        return out

    def __mul__(self, other):
        if len(other) < len(self):
            self, other = other, self
        if len(self) == 1:
            (ma, ca), = self.items()
            return Poly({tuple([a + b for a, b in zip(ma, mb)]): ca * cb
                         for mb, cb in other.items()})
        out = Poly()
        get = out.get
        for ma, ca in self.items():
            for mb, cb in other.items():
                m = tuple([a + b for a, b in zip(ma, mb)])
                out[m] = get(m, 0) + ca * cb
        for m in [m for m, c in out.items() if not c]:
            del out[m]
        return out

    def __pow__(self, k: int):
        out = None
        base = self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def mul_ground(self, c):
        return Poly({m: v * c for m, v in self.items()}) if c else Poly()

    def quo_ground(self, c):
        if c == 1:
            return self
        return Poly({m: _quo(v, c) for m, v in self.items()})

    @property
    def LM(self) -> tuple:
        return max(self, key=_grevlex)

    @property
    def LC(self):
        return self[self.LM]

    def is_ground(self) -> bool:
        return not self or (len(self) == 1 and not any(next(iter(self))))

    def is_one(self) -> bool:
        return len(self) == 1 and next(iter(self.values())) == 1 and not any(next(iter(self)))

    def degree(self, i: int) -> int:
        return max((m[i] for m in self), default=0)

    def degrees(self) -> tuple:
        return tuple(map(max, zip(*self))) if self else ()

    def diff(self, i: int) -> "Poly":
        """The partial derivative by the i-th generator."""
        out = Poly()
        for m, c in self.items():
            e = m[i]
            if e:
                out[m[:i] + (e - 1,) + m[i + 1:]] = c * e
        return out

    def clear_denoms(self) -> tuple:
        """(d, d * self), d the lcm of the coefficients' denominators."""
        d = math.lcm(*(c.denominator for c in self.values()))
        return d, self.mul_ground(d) if d != 1 else self

    def exquo(self, f: "Poly") -> "Poly | None":
        """self / f if f divides self, else None; f is monic (grevlex)."""
        p = Poly(self)
        q = Poly()
        lm = f.LM
        rest = [(m, c) for m, c in f.items() if m != lm]
        while p:
            m = max(p, key=_grevlex)
            e = tuple([a - b for a, b in zip(m, lm)])
            if min(e) < 0:
                return None
            c = p.pop(m)
            q[e] = c
            get = p.get
            for mf, cf in rest:
                k = tuple([a + b for a, b in zip(e, mf)])
                v = get(k, 0) - c * cf
                if v:
                    p[k] = v
                else:
                    del p[k]
        return q


def _shift(p: Poly, i: int, k: int) -> Poly:
    """p times the i-th generator to the power k (k may be negative when
    every monomial allows it)."""
    return Poly({m[:i] + (m[i] + k,) + m[i + 1:]: c for m, c in p.items()})


# -- factoring ---------------------------------------------------------


def _monic(p: Poly) -> Poly:
    return p.quo_ground(p.LC)


def _irreducible_factors(p: Poly) -> list:
    """(monic irreducible factor, multiplicity) pairs of p; none for a constant.

    The monomial content is taken out first.  A polynomial of degree 1
    in some generator x, p = a*x + b, is split by the factors of a: each
    one that divides p (so also b) is divided out as often as it does.
    What is left is irreducible, since any factor free of x that divides
    it divides both of its coefficients.  Only a polynomial of degree 2
    or more in every generator goes to sympy's ``factor_list``."""
    out = []
    n = len(next(iter(p)))
    for i, k in enumerate(map(min, zip(*p))):
        if k:
            out.append((Poly({tuple(int(j == i) for j in range(n)): 1}), k))
            p = _shift(p, i, -k)
    if p.is_ground():
        return out
    degrees = p.degrees()
    if 1 not in degrees:
        return out + _sympy_factors(p)
    x = degrees.index(1)
    a = Poly({m[:x] + (0,) + m[x + 1:]: c for m, c in p.items() if m[x]})
    if not a.is_ground():
        for g, _k in _irreducible_factors(a):
            k = 0
            while (q := p.exquo(g)) is not None:
                p, k = q, k + 1
            if k:
                out.append((g, k))
    out.append((_monic(p), 1))
    return out


def _sympy_factors(p: Poly) -> list:
    """The factors of p by sympy's ``factor_list``, made monic."""
    from sympy import Symbol
    from sympy.polys.domains import QQ
    from sympy.polys.orderings import grevlex
    from sympy.polys.rings import PolyRing

    used = [i for i, d in enumerate(p.degrees()) if d]
    n = len(next(iter(p)))
    ring = PolyRing([Symbol(f"_x{i}") for i in used], QQ, grevlex)
    q = ring.dtype({tuple(m[i] for i in used): QQ(c.numerator, c.denominator)
                    for m, c in p.items()})
    out = []
    for g, k in q.factor_list()[1]:
        big = Poly()
        for m, c in g.items():
            e = [0] * n
            for i, d in zip(used, m):
                e[i] = d
            big[tuple(e)] = _rational(c)
        out.append((_monic(big), k))
    return out


# -- the carrier -------------------------------------------------------


class FormRing:
    """The polynomial ring of a family of Forms and its registry of
    localising factors.

    Symbols not in the ring are the keys a Form is linear over.  The
    registry only grows; a factor's id is its position in it.
    """

    def __init__(self, symbols: Iterable[str]):
        self.symbols = tuple(symbol_order(set(symbols)))
        self.ngens = len(self.symbols)
        self.index = {s: i for i, s in enumerate(self.symbols)}
        self._range = range(self.ngens)
        self.zero_monom = (0,) * self.ngens
        self.one = Poly({self.zero_monom: 1})
        self.factors: list[Poly] = []
        self._gen_of: list[int | None] = []  # generator index of a one-generator factor
        self._support: list[tuple[int, ...]] = []
        self._ids: dict[Poly, int] = {}
        self.zero = Form(self, {}, {})

    # -- conversion ----------------------------------------------------

    def gen(self, i: int) -> Poly:
        """The i-th generator as a polynomial."""
        return Poly({self.zero_monom[:i] + (1,) + self.zero_monom[i + 1:]: 1})

    def symbol(self, s: str) -> "Form":
        """The Form of one symbol: a generator of the ring, or else a key."""
        i = self.index.get(s)
        if i is None:
            return Form(self, {s: self.one}, {})
        return Form(self, {ONE: self.gen(i)}, {})

    def lift(self, p, symbols: Iterable) -> Poly:
        """p, a Poly over QQ in the generators named by symbols (those
        of another ring), as a polynomial of this ring; ValueError names
        a generator of p that this ring lacks."""
        symbols = tuple(symbols)
        where = [self.index.get(s) for s in symbols]
        out = Poly()
        for m, c in p.items():
            big = [0] * self.ngens
            for j in compress(range(len(m)), m):
                if where[j] is None:
                    raise ValueError(f"{symbols[j]} is not a generator of the ring")
                big[where[j]] = m[j]
            out[tuple(big)] = _rational(c)
        return out

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
        den = {self.factor_id(self.lift(src.factors[fid], src.symbols)): k
               for fid, k in form.den.items()}
        return Form(self, {k: self.lift(p, src.symbols) for k, p in form.terms.items()}, den)

    def constant(self, c) -> "Form":
        """The Form of an exact rational: an int, a Fraction or any
        number with an integer numerator and denominator."""
        c = _rational(c)
        return Form(self, {ONE: Poly({self.zero_monom: c})}, {}) if c else self.zero

    def scalar(self, p: Poly) -> "Form":
        """The Form of a polynomial of the ring."""
        return Form(self, {ONE: p}, {}) if p else self.zero

    def den_poly(self, den: dict) -> Poly:
        """The expanded product of a denominator's factors."""
        return self._scale(self.one, den)

    # -- substitution --------------------------------------------------

    def split(self, form: "Form", i: int) -> tuple | None:
        """(a, b), Forms free of the i-th generator x with form equal to
        (a*x + b)/den, den the denominator of form; None when form has
        degree 2 or more in x."""
        a, b = {}, {}
        for key, p in form.terms.items():
            for m, c in p.items():
                if m[i] > 1:
                    return None
                if m[i]:
                    a.setdefault(key, {})[m[:i] + (0,) + m[i + 1:]] = c
                else:
                    b.setdefault(key, {})[m] = c
        return (Form(self, {k: Poly(t) for k, t in a.items()}, {}),
                Form(self, {k: Poly(t) for k, t in b.items()}, {}))

    def substitution(self, gens: Iterable[int],
                     value: Callable[[int], "Form"]) -> Callable[["Form"], "Form"]:
        """The map that puts value(i), a scalar Form, for each generator i
        of gens into a Form, all at once and over one common denominator.
        value must give one Form per generator for as long as the map is
        used: the products of values it forms are kept across calls.  A
        factor of the denominator that holds one of gens is substituted
        and inverted, which factors it anew; one that becomes zero raises
        DegenerateExpressionError naming it."""
        gens = frozenset(gens)
        products: dict = {}  # ((i, k), ...) -> the product of value(i)**k

        def substitute(e: Form) -> Form:
            held = [fid for fid in e.den if gens.intersection(self._support[fid])]
            if held:
                inverse = self.constant(1)
                for fid in held:
                    factor = self.scalar(self.factors[fid])
                    g = substitute(factor)
                    if not g.terms:
                        raise DegenerateExpressionError(
                            f"the denominator factor {fmt(factor)} vanishes")
                    g = g.inverse()
                    for _ in range(e.den[fid]):
                        inverse = inverse * g
                e = Form(self, e.terms, {fid: k for fid, k in e.den.items() if fid not in held})
            present = set()
            for p in e.terms.values():
                for m in p:
                    present.update(compress(self._range, m))
            present &= gens
            if present:
                idx = sorted(present)
                values = {i: value(i) for i in idx}
                # group the monomials by key and by their exponents of the
                # substituted generators, which the group's part leaves out
                groups: dict = {}
                for key, p in e.terms.items():
                    for m, c in p.items():
                        hit = tuple([(i, m[i]) for i in idx if m[i]])
                        if hit:
                            base = list(m)
                            for i, _k in hit:
                                base[i] = 0
                            m = tuple(base)
                        groups.setdefault((key, hit), {})[m] = c
                parts = []
                for (key, hit), base in groups.items():
                    prod = products.get(hit)
                    if prod is None:
                        factors = [values[i] for i, k in hit for _ in range(k)]
                        factors = factors or [self.constant(1)]
                        prod = products[hit] = math.prod(factors[1:], start=factors[0])
                    if prod.terms:
                        parts.append((Form(self, {ONE: Poly(base)}, e.den),
                                      Form(self, {key: prod.terms[ONE]}, prod.den)))
                e = self.combine(parts)
            return self.combine([(inverse, e)]) if held else e

        return substitute

    # -- factors -------------------------------------------------------

    def factor_id(self, f: Poly) -> int:
        """Id of the registered factor associate to the irreducible f,
        registering it if it is new."""
        f = _monic(f)
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

    def _exquo(self, p: Poly, fid: int) -> Poly | None:
        """p / factors[fid] if it divides p, else None; a factor that is
        one generator is handled by the callers."""
        f = self.factors[fid]
        if not all(p.degree(j) >= f.degree(j) for j in self._support[fid]):
            return None
        return p.exquo(f)

    def _factor(self, p: Poly) -> tuple:
        """(c, exps) with p = c * prod(factors[f]**exps[f]); p nonzero.
        Registered factors are divided out first; the irreducible factors
        of the rest are registered in the order ``_irreducible_factors``
        finds them."""
        exps: dict[int, int] = {}
        for fid in range(len(self.factors)):
            k, (p,) = self._cancel((p,), fid, None)
            if k:
                exps[fid] = k
        for g, mult in _irreducible_factors(p):
            fid = self.factor_id(g)
            exps[fid] = exps.get(fid, 0) + mult
        return p.LC, exps

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

    def _scale(self, p: Poly, exps: dict) -> Poly:
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
            one = factor.is_one()
            for key, p in f.terms.items():
                q = p if one else factor * p
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
    outside the ring or ONE.  Immutable; build Forms with FormRing.  A
    Form is true when it is nonzero, and it hashes by its canonical
    form; one equal to a rational number hashes as that number."""

    __slots__ = ("ring", "terms", "den")

    def __init__(self, ring: FormRing, terms: dict, den: dict):
        self.ring = ring
        self.terms = terms
        self.den = den

    # -- queries -------------------------------------------------------

    def is_scalar(self) -> bool:
        return all(k is ONE for k in self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        if not self.terms:
            return hash(0)
        p = self.terms.get(ONE)
        if not self.den and len(self.terms) == 1 and p is not None and p.is_ground():
            return hash(p.LC)
        return hash((frozenset(self.terms.items()), frozenset(self.den.items())))

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
        if isinstance(other, (int, Fraction)):
            return self == self.ring.constant(other)
        return NotImplemented

    def renamed(self, names: dict) -> "Form":
        """The Form with each key k replaced by names.get(k, k)."""
        return Form(self.ring, {names.get(k, k): p for k, p in self.terms.items()}, self.den)

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Form):
            if other.ring is not self.ring:
                raise ValueError("Forms of different rings")
            return other
        if isinstance(other, (int, Fraction)):
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

    __radd__ = __add__

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

    def derive(self, d: Callable[[Poly], Poly],
               dkey: Callable[[str], str | None]) -> "Form":
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

    def as_expr(self):
        """The canonical expression, built with sympy: the expanded
        numerator over the expanded product of the denominator's
        factors."""
        import sympy as sp

        syms = [sp.Symbol(s) for s in self.ring.symbols]

        def expr(terms):
            args = []
            for key, p in terms.items():
                for m, c in p.items():
                    t = [sp.Rational(c.numerator, c.denominator)]
                    t.extend(sp.Pow(syms[i], m[i]) for i in compress(self.ring._range, m))
                    if key is not ONE:
                        t.append(sp.Symbol(key))
                    args.append(sp.Mul(*t))
            return sp.Add(*args)

        num = expr(self.terms)
        if not self.den:
            return num
        return num / expr({ONE: self.ring.den_poly(self.den)})

    def _sympy_(self):
        """sympify(form) is form.as_expr()."""
        return self.as_expr()

    def as_numer_denom(self) -> tuple:
        """Numerator and denominator of as_expr(), as sympy gives them."""
        return self.as_expr().as_numer_denom()

    def __repr__(self):
        return f"Form({fmt(self)})"


# -- printing ----------------------------------------------------------
#
# A printed Form is what sympy's ``sstr`` prints for ``as_expr()``, with
# ``^`` for ``**``.  A term is (coefficient, [(name, exponent), ...]) with
# the names sorted.  A sum lists its terms by the lex order of their
# exponents over the sorted names, largest first, except that a positive
# constant goes before a single negative factor (``1 - u_x``).  A
# quotient prints the numerator's integer, the numerator's factors, then
# after ``/`` the coefficient's denominator and the denominator's factors,
# or its sum in parentheses.


def _power(name: str, e: int) -> str:
    return name if e == 1 else f"{name}^{e}"


def _product(c, factors: list) -> tuple:
    """(sign, the printed factors above the line, the integer below it)
    of c times the factors."""
    sign = "-" if c < 0 else ""
    c = abs(c)
    above = [str(c.numerator)] if c.numerator != 1 else []
    return sign, above + [_power(n, e) for n, e in factors], c.denominator


def _term(c, factors: list) -> str:
    if not factors:
        return str(c)
    sign, above, q = _product(c, factors)
    return sign + "*".join(above) + (f"/{q}" if q != 1 else "")


def _sorted_terms(ring: FormRing, terms: dict) -> list:
    """The terms of sum(terms[k] * k) in printed order."""
    out = []
    names = set()
    for key, p in terms.items():
        for m, c in p.items():
            factors = [(ring.symbols[i], m[i]) for i in compress(ring._range, m)]
            if key is not ONE:
                factors.append((key, 1))
                factors.sort()
            names.update(n for n, _e in factors)
            out.append((c, factors))
    if len(out) == 1:
        return out
    where = {n: i for i, n in enumerate(sorted(names))}

    def lex(term):
        exps = [0] * len(where)
        for n, e in term[1]:
            exps[where[n]] = e
        return exps

    out.sort(key=lex, reverse=True)
    if len(out) == 2:
        (c0, f0), (c1, f1) = out
        if not f1 and c1 > 0 and c0 < 0 and len(f0) == 1:
            out.reverse()
    return out


def _sum(terms: list) -> str:
    """One term, or a sum of terms in printed order."""
    out = _term(*terms[0])
    for t in terms[1:]:
        s = _term(*t)
        out += f" - {s[1:]}" if s.startswith("-") else f" + {s}"
    return out


def fmt(form: Form) -> str:
    """The canonical expression of a Form, printed as sympy's ``sstr``
    prints ``form.as_expr()`` but with ``^`` for powers."""
    if not form.terms:
        return "0"
    ring = form.ring
    num = _sorted_terms(ring, form.terms)
    if not form.den:
        return _sum(num)
    den = _sorted_terms(ring, {ONE: ring.den_poly(form.den)})
    monomial = len(den) == 1
    if monomial:
        below = [_power(n, e) for n, e in den[0][1]]
    else:
        below = [f"({_sum(den)})"]
    if len(num) > 1:
        above = [f"({_sum(num)})"]
        sign = ""
    else:
        c, factors = num[0]
        if c == 1 and not factors and monomial and len(below) == 1 and den[0][1][0][1] > 1:
            return "%s^(-%d)" % den[0][1][0]  # a lone power: sympy's Pow printer
        sign, above, q = _product(c, factors)
        if q != 1:
            below.insert(0, str(q))
    text = sign + ("*".join(above) or "1")
    return text + (f"/{below[0]}" if len(below) == 1 else f"/({'*'.join(below)})")
