"""Exact rational arithmetic, its one canonical form, and its printer.

Rational functions over QQ are carried as ``Form``s; floating point
never enters, and nothing here needs sympy.  Symbols are plain names
(``str``).  A polynomial is a ``Poly``: a sparse map from a monomial to
a nonzero ``int`` or ``fractions.Fraction``; its leading term is the
grevlex one.

A monomial is one ``int`` of fields of ``W`` bits: its total degree in
bits [0, W), and the exponent of generator i of its ``FormRing`` in
bits [W*(i+1), W*(i+2)).  A ring lays out its base generators by name,
then its extra ones (such as the ansatz constants), also by name
(``symbol_order``).  So a ring whose base is another ring's generators
extends it: each monomial of the smaller ring is the same ``int`` in
the larger one.  A product of monomials is their sum; and since the
last generator holds the highest bits, grevlex compares (degree,
-monomial).  An exponent or a total degree is at most 2**(W-1) - 1, so
the top bit of each field is a guard, and a sum of two fields never
carries into the next one.  No exponent exceeds the total degree, so
the guard of the degree field is the one a product or a shift tests:
one that sets it raises ExponentOverflowError, a ValueError; a shift by
more than the limit is refused before the sum, and a derivative raises
no degree, so it needs no check.  A quotient of monomials tests the
guards of all fields, one of which a borrow sets.  The number of
generators is not bounded.  Exponents are read one by one
(``exponents``) only where order or a single exponent matters: the
printer, the factoring, ``FormRing.split``, the chain rule and the
coefficients of ``rop.engine``.  Which generators occur is the OR of
the monomials (``Poly.support``).

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
reads a problem file; ``FormRing.embed`` moves a Form into a ring that
extends its own, such as the ring with the ansatz constants, and keeps
its numerators as they are.  ``FormRing.split`` and
``FormRing.substitution`` are the two operations that rewriting and solving share: a Form as
a*x + b in one generator x, and the values of some generators put into
a Form.  A Form is true when it is nonzero and hashes by its canonical
form.  ``fmt`` prints a Form as sympy's ``sstr`` prints its canonical
expression; ``Form.as_expr`` builds that expression with sympy, for
callers that want one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Callable, Iterable

W = 16  # bits per field of a monomial
MASK = (1 << W) - 1
LIMIT = (1 << W - 1) - 1  # the largest exponent or total degree


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


class ExponentOverflowError(ValueError):
    """An exponent or a total degree beyond 2**(W-1) - 1, the largest a
    monomial holds."""


def symbol_order(symbols: Iterable) -> list:
    """Symbols by name: the order of a ring's base generators, and then
    that of its extra ones."""
    return sorted(symbols, key=str)


# -- monomials ---------------------------------------------------------


def monomial(i: int) -> int:
    """The monomial of the i-th generator."""
    return (1 << W * (i + 1)) + 1


def exponents(m: int) -> list:
    """(i, exponent) of each generator i that the monomial m holds, by
    index; of an OR of monomials, the generators any of them holds."""
    out = []
    m >>= W
    i = 0
    while m:
        j = ((m & -m).bit_length() - 1) // W
        m >>= W * j
        i += j
        out.append((i, m & MASK))
        m >>= W
        i += 1
    return out


def field_mask(gens: Iterable[int]) -> int:
    """The mask of the fields of the given generators."""
    return sum(MASK << W * (i + 1) for i in set(gens))


def degree_in(m: int, mask: int) -> int:
    """The total degree of the monomial m in the generators whose fields
    mask covers: the sum of those fields, which is their value modulo
    MASK, because 2**W is 1 modulo MASK and the sum is below MASK."""
    return (m & mask) % MASK


def _grevlex(m: int) -> tuple:
    """Sort key of a monomial in the graded reverse lexicographic order:
    of two of one degree, the one with the smaller exponent of the last
    generator where they differ is the larger."""
    return (m & MASK, -m)


def _overflow() -> ExponentOverflowError:
    return ExponentOverflowError(f"an exponent or a total degree exceeds {LIMIT}")


def _guarded(p: "Poly") -> "Poly":
    """p, unless a monomial of it sets the guard bit of its degree field
    (a total degree above LIMIT)."""
    if p.support() & (LIMIT + 1):
        raise _overflow()
    return p


def _guards(n: int) -> int:
    """The top bit of each of the lowest n fields."""
    return ((1 << W * n) - 1) // MASK << (W - 1)


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
    """A polynomial: monomial -> nonzero rational coefficient.

    A monomial is one ``int``: the total degree in bits [0, W) and the
    exponent of generator i in bits [W*(i+1), W*(i+2)), with W = 16.
    An exponent or a total degree is at most LIMIT = 2**(W-1) - 1: a
    product or shift that sets the top bit of the degree field raises
    ExponentOverflowError.  Any number of generators.  Treated as
    immutable once built; every operation returns a new Poly."""

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
            return _guarded(Poly({ma + mb: ca * cb for mb, cb in other.items()}))
        out = Poly()
        get = out.get
        for ma, ca in self.items():
            for mb, cb in other.items():
                m = ma + mb
                out[m] = get(m, 0) + ca * cb
        for m in [m for m, c in out.items() if not c]:
            del out[m]
        return _guarded(out)

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
    def LM(self) -> int:
        return max(self, key=_grevlex)

    @property
    def LC(self):
        return self[self.LM]

    def is_ground(self) -> bool:
        return not self or (len(self) == 1 and 0 in self)

    def is_one(self) -> bool:
        return len(self) == 1 and self.get(0) == 1

    def support(self) -> int:
        """The OR of the monomials: the fields of the generators that
        occur are nonzero."""
        return reduce(or_, self, 0)

    def degree(self, i: int) -> int:
        s = W * (i + 1)
        return max(((m >> s) & MASK for m in self), default=0)

    def diff(self, i: int) -> "Poly":
        """The partial derivative by the i-th generator."""
        s, u = W * (i + 1), monomial(i)
        out = Poly()
        for m, c in self.items():
            e = (m >> s) & MASK
            if e:
                out[m - u] = c * e
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
        guards = _guards(lm.bit_length() // W + 1)
        rest = [(m, c) for m, c in f.items() if m != lm]
        while p:
            m = max(p, key=_grevlex)
            e = m - lm
            if e < 0 or e & guards:  # a field of lm above m's borrowed
                return None
            c = p.pop(m)
            q[e] = c
            get = p.get
            for mf, cf in rest:
                k = e + mf
                v = get(k, 0) - c * cf
                if v:
                    p[k] = v
                else:
                    del p[k]
        return q


def _shift(p: Poly, i: int, k: int) -> Poly:
    """p times the i-th generator to the power k (k may be negative when
    every monomial allows it).  A k above LIMIT is refused before the
    sum, which could carry past a field's guard bit."""
    if k > LIMIT:
        raise _overflow()
    d = k * monomial(i)
    out = Poly({m + d: c for m, c in p.items()})
    return _guarded(out) if k > 0 else out


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
    for i, _e in exponents(next(iter(p))):
        s = W * (i + 1)
        k = min((m >> s) & MASK for m in p)
        if k:
            out.append((Poly({monomial(i): 1}), k))
            p = _shift(p, i, -k)
    if p.is_ground():
        return out
    x = next((i for i, _e in exponents(p.support()) if p.degree(i) == 1), None)
    if x is None:
        return out + _sympy_factors(p)
    s, u = W * (x + 1), monomial(x)
    a = Poly({m - u: c for m, c in p.items() if (m >> s) & MASK})
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

    used = [i for i, _e in exponents(p.support())]
    ring = PolyRing([Symbol(f"_x{i}") for i in used], QQ, grevlex)
    q = ring.dtype({tuple((m >> W * (i + 1)) & MASK for i in used):
                    QQ(c.numerator, c.denominator) for m, c in p.items()})
    units = [monomial(i) for i in used]
    return [(_monic(Poly({sum(d * u for d, u in zip(m, units)): _rational(c)
                          for m, c in g.items()})), k)
            for g, k in q.factor_list()[1]]


# -- the carrier -------------------------------------------------------


class FormRing:
    """The polynomial ring of a family of Forms and its registry of
    localising factors.

    The generators are the base symbols by name, then the extra ones
    that are not among them, by name; so the ring extends the ring of
    its base symbols.  Symbols not in the ring are the keys a Form is
    linear over.  The registry only grows; a factor's id is its position
    in it.
    """

    def __init__(self, symbols: Iterable[str], extra: Iterable[str] = ()):
        base = symbol_order(set(symbols))
        self.symbols = tuple(base + symbol_order(set(extra).difference(base)))
        self.ngens = len(self.symbols)
        self.index = {s: i for i, s in enumerate(self.symbols)}
        self.one = Poly({0: 1})
        self.factors: list[Poly] = []
        self._gen_of: list[int | None] = []  # generator index of a one-generator factor
        self._support: list[int] = []  # the support() of each factor
        self._ids: dict[Poly, int] = {}
        self.zero = Form(self, {}, {})

    # -- conversion ----------------------------------------------------

    def gen(self, i: int) -> Poly:
        """The i-th generator as a polynomial."""
        return Poly({monomial(i): 1})

    def symbol(self, s: str) -> "Form":
        """The Form of one symbol: a generator of the ring, or else a key."""
        i = self.index.get(s)
        if i is None:
            return Form(self, {s: self.one}, {})
        return Form(self, {ONE: self.gen(i)}, {})

    def embed(self, form: "Form") -> "Form":
        """form as a Form of this ring, which extends form's ring: its
        symbols start with those of form's ring, so every monomial is the
        same here and the numerators are kept as they are.  A factor of
        the denominator, irreducible in the smaller ring, stays
        irreducible here and keeps its leading coefficient (grevlex
        restricts to the leading generators), so it is registered as it
        is.  ValueError names the first generator of form's ring that is
        out of place here."""
        src = form.ring
        if src is self:
            return form
        if self.symbols[:src.ngens] != src.symbols:
            s = next(s for i, s in enumerate(src.symbols) if self.symbols[i:i + 1] != (s,))
            raise ValueError(f"{s} is out of place: the ring does not extend the Form's")
        return Form(self, form.terms, {self.factor_id(src.factors[fid]): k
                                       for fid, k in form.den.items()})

    def constant(self, c) -> "Form":
        """The Form of an exact rational: an int, a Fraction or any
        number with an integer numerator and denominator."""
        c = _rational(c)
        return Form(self, {ONE: Poly({0: c})}, {}) if c else self.zero

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
        s, u = W * (i + 1), monomial(i)
        for key, p in form.terms.items():
            for m, c in p.items():
                e = (m >> s) & MASK
                if e > 1:
                    return None
                if e:
                    a.setdefault(key, {})[m - u] = c
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
        gens = field_mask(gens)
        products: dict = {}  # h, a monomial of gens -> the product of values it names

        def substitute(e: Form) -> Form:
            held = [fid for fid in e.den if self._support[fid] & gens]
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
            if e.numerator_support() & gens:
                # group the monomials by key and by h, their fields of the
                # substituted generators, which the group's part leaves out
                # with its degree h % MASK (as in degree_in)
                groups: dict = {}
                for key, p in e.terms.items():
                    for m, c in p.items():
                        h = m & gens
                        if h:
                            m -= h + h % MASK
                        groups.setdefault((key, h), {})[m] = c
                parts = []
                for (key, h), base in groups.items():
                    prod = products.get(h)
                    if prod is None:
                        factors = [value(i) for i, k in exponents(h) for _ in range(k)]
                        factors = factors or [self.constant(1)]
                        prod = products[h] = math.prod(factors[1:], start=factors[0])
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
            self._gen_of.append(exponents(lm)[0][0] if len(f) == 1 and lm & MASK == 1
                                else None)
            self._support.append(f.support())
        return fid

    def _exquo(self, p: Poly, fid: int) -> Poly | None:
        """p / factors[fid] if it divides p, else None; a factor that is
        one generator is handled by the callers."""
        f = self.factors[fid]
        if not all(p.degree(j) >= f.degree(j) for j, _e in exponents(self._support[fid])):
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
            s = W * (g + 1)
            k = min(min((m >> s) & MASK for m in p) for p in polys)
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
        present = self.numerator_support()
        for fid in self.den:
            present |= ring._support[fid]
        return ({ring.symbols[i] for i, _e in exponents(present)}
                | {k for k in self.terms if k is not ONE})

    def numerator_support(self) -> int:
        """The OR of the monomials of the numerators (see Poly.support)."""
        return reduce(or_, map(Poly.support, self.terms.values()), 0)

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
        p = self.terms[ONE]
        if p.is_ground():  # a rational: no factor to find
            return Form(self.ring, {ONE: self.ring.den_poly(self.den).quo_ground(p[0])}, {})
        c, exps = self.ring._factor(p)
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
                    t.extend(sp.Pow(syms[i], e) for i, e in exponents(m))
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
            factors = [(ring.symbols[i], e) for i, e in exponents(m)]
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
