"""Pluggable scalar arithmetic: exact rationals, Gaussian rationals,
multivariate polynomials, and complex floats.

Every algebraic routine in this package is generic over the scalars the
caller supplies.  Only ring operations are ever needed: addition, negation,
multiplication, integer multiples, and exact division by a nonzero integer.
Nothing here inverts a general ring element.  Python ints act as the
universal zero/one, so ``0`` and ``1`` literals seed every accumulator.

A ``GaussianRational`` is one triple of ints (a, b, d), the value
(a + bi)/d in lowest terms, so its arithmetic builds no ``Fraction``.
The same encoding serves whole matrices: ``gaussian_ints`` writes exact
entries as two int lists over one common denominator, and
``gaussian_scalar`` turns an int pair and a denominator back into the
canonical scalar, so matrix kernels can multiply exact entries as plain
ints and reduce only their results.  A ``Poly`` with int and Fraction
coefficients is held the same way: int numerators over one denominator,
taken from ``gaussian_ints``, the one function that turns exact values
into ints over a common denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add

from .errors import HolodetError

FLOAT_REL_TOL = 1e-9
FLOAT_ABS_TOL = 1e-12


class Symbols:
    """Ordered, immutable table of polynomial indeterminates."""

    __slots__ = ("names", "_index")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate symbol names in {names!r}")
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise HolodetError(f"unknown symbol '{name}'") from None

    def extended(self, extra):
        """This table followed by the names of extra it lacks, each once."""
        new = dict.fromkeys(n for n in extra if n not in self._index)
        return Symbols(self.names + tuple(new))

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __contains__(self, name):
        return name in self._index

    def __eq__(self, other):
        return isinstance(other, Symbols) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"Symbols({self.names!r})"


class GaussianRational:
    """Exact complex number (a + bi)/d, held as three ints a, b, d.

    The triple is kept canonical: d > 0 and gcd(a, b, d) = 1, so zero is
    (0, 0, 1) and equal values have equal triples.  ``re`` and ``im`` give
    the parts as Fractions.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        re, im = Fraction(re), Fraction(im)
        # Both parts are in lowest terms, so over the lcm of their
        # denominators no prime divides a, b and d at once.
        d = lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    def __add__(self, other):
        o = _parts(other)
        return NotImplemented if o is None else _add(self, *o)

    __radd__ = __add__

    def __sub__(self, other):
        o = _parts(other)
        return NotImplemented if o is None else _add(self, -o[0], -o[1], o[2])

    def __rsub__(self, other):
        o = _parts(other)
        return NotImplemented if o is None else _add(-self, *o)

    def __neg__(self):
        return _reduced(-self.a, -self.b, self.d)

    def __mul__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        return _reduced(
            self.a * a - self.b * b, self.a * b + self.b * a, self.d * d
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        # (a + bi)/d divided by (c + ei)/f is (a + bi)(c - ei) f / (d (c^2 + e^2))
        c, e, f = o
        norm = c * c + e * e
        if norm == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return _reduced(
            (self.a * c + self.b * e) * f, (self.b * c - self.a * e) * f, self.d * norm
        )

    def __rtruediv__(self, other):
        o = _parts(other)
        return NotImplemented if o is None else _reduced(*o) / self

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return _power(self, k) if k else _reduced(1, 0, 1)

    def conjugate(self):
        return _reduced(self.a, -self.b, self.d)

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return (self.a, self.b, self.d) == o

    def __hash__(self):
        # Equal to the hash of the equal int or Fraction, as == requires.
        if self.b == 0:
            return hash(Fraction(self.a, self.d))
        return hash((self.a, self.b, self.d))

    def __complex__(self):
        # int / int is correctly rounded, as Fraction.__float__ is.
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return scalar_str(self)


def _reduced(a, b, d):
    """The GaussianRational (a + bi)/d, for ints with d > 0, in lowest terms."""
    g = gcd(a, b, d)
    out = object.__new__(GaussianRational)
    if g == 1:
        out.a, out.b, out.d = a, b, d
    else:
        out.a, out.b, out.d = a // g, b // g, d // g
    return out


def _parts(x):
    """The canonical triple (a, b, d) of a GaussianRational, int or Fraction
    x = (a + bi)/d; None for any other type."""
    if isinstance(x, GaussianRational):
        return x.a, x.b, x.d
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    return None


# bool is an int; a subclass of these types takes the generic path
EXACT_TYPES = frozenset((int, bool, Fraction, GaussianRational))
_RATIONAL_TYPES = frozenset((int, bool, Fraction))
_INT_TYPES = frozenset((int,))


def _power(base, k):
    """base ** k for an int k >= 1 by square-and-multiply, squaring base
    only while bits of k remain."""
    out = None
    while True:
        if k & 1:
            out = base if out is None else out * base
        k >>= 1
        if not k:
            return out
        base = base * base


def gaussian_ints(entries):
    """Exact entries as one Gaussian-integer matrix over one denominator:
    (d, re, im, kind) with entry t equal to (re[t] + im[t] i)/d, d > 0 the
    lcm of the entry denominators, im None when every entry is real, and
    kind 0, 1 or 2 as the widest entry type is int, Fraction or
    GaussianRational (a sum of products of exact scalars has the widest
    type among them).  None when an entry's type is not int, Fraction or
    GaussianRational."""
    types = set(map(type, entries))
    if not types <= EXACT_TYPES:
        return None
    if types <= _INT_TYPES:
        # each int is its own numerator over 1
        return 1, list(entries), None, 0
    if GaussianRational not in types:
        d = lcm(*(x.denominator for x in entries))
        re = [x.numerator * (d // x.denominator) for x in entries]
        return d, re, None, 1 if Fraction in types else 0
    parts = list(map(_parts, entries))
    d = lcm(*(xd for _, _, xd in parts))
    re = [a * (d // xd) for a, _, xd in parts]
    im = [b * (d // xd) for _, b, xd in parts]
    return d, re, (im if any(im) else None), 2


def gaussian_scalar(a, b, d, kind):
    """The canonical scalar (a + bi)/d of gaussian_ints' kind, for ints
    with d > 0: a GaussianRational for kind 2, else a Fraction for kind 1
    (b is 0), else the int a (b is 0 and d is 1)."""
    if kind == 2:
        return _reduced(a, b, d)
    if kind == 1:
        return Fraction(a, d)
    return a


def _add(x, a, b, d):
    """x + (a + bi)/d; equal denominators skip the cross products."""
    if d == x.d:
        return _reduced(x.a + a, x.b + b, d)
    g = gcd(x.d, d)
    s, t = d // g, x.d // g
    return _reduced(x.a * s + a * t, x.b * s + b * t, x.d * s)


class Poly:
    """Multivariate polynomial: map from exponent tuples to coefficients.

    Exponent tuples are dense over the symbol table; coefficients may be
    ints, Fractions, GaussianRationals, or complex floats.  No zero
    coefficient is ever stored.

    A Poly holds one coefficient dict, ``_num`` over ``_den``.  When every
    coefficient is an int or a Fraction, ``_num`` holds int numerators over
    one denominator ``_den`` > 0, kept canonical like a GaussianRational:
    gcd(_den, every numerator) = 1.  Otherwise ``_num`` holds the
    coefficients as they are and ``_den`` is None.  A sum runs one loop,
    ``_add_terms``, and a product of two Polys one, ``_mul_terms``: on the
    numerators when both sides are rational, on ``terms`` otherwise; an int
    or Fraction scalar scales a rational Poly's numerators.  ``terms`` reads
    rational coefficients as ints when _den is 1, else as Fractions.

    Values are immutable.  ``terms`` may be shared, not copied (``p + 0``
    may return p itself), so it must not be mutated.
    """

    __slots__ = ("syms", "_num", "_den")

    def __init__(self, syms, terms=None):
        self.syms = syms
        clean = {}
        if terms:
            width = len(syms)
            for exps, c in terms.items():
                if len(exps) != width:
                    raise ValueError(
                        f"exponent tuple {exps!r} does not match {width} symbols"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps!r}")
                if c:
                    clean[exps] = c
        self._num, self._den = _int_form(clean)

    @classmethod
    def const(cls, syms, value):
        if not value:
            return cls(syms)
        return cls(syms, {(0,) * len(syms): value})

    @classmethod
    def variable(cls, syms, name):
        exps = [0] * len(syms)
        exps[syms.index(name)] = 1
        return cls(syms, {tuple(exps): 1})

    @property
    def terms(self):
        """Map from exponent tuple to nonzero coefficient; not to be mutated."""
        d = self._den
        if d is None or d == 1:
            return self._num
        return {e: Fraction(n, d) for e, n in self._num.items()}

    @property
    def is_zero(self):
        return not self._num

    def __bool__(self):
        return bool(self._num)

    def constant_value(self):
        """Value of a polynomial with no surviving indeterminates."""
        zero = (0,) * len(self.syms)
        if any(e != zero for e in self._num):
            raise HolodetError("polynomial is not constant")
        return self.terms.get(zero, 0)

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.syms is not self.syms and other.syms != self.syms:
                raise HolodetError(
                    "polynomials over different symbol tables; lift them first"
                )
            return other
        if isinstance(other, (int, Fraction, GaussianRational, float, complex)):
            return Poly.const(self.syms, other)
        return None

    def __add__(self, other):
        if self._den is not None and type(other) in _RATIONAL_TYPES:
            if not other:
                return self
            onum, od = {(0,) * len(self.syms): other.numerator}, other.denominator
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            if self._den is None or o._den is None:
                return _poly(self.syms, *_int_form(_add_terms(dict(self.terms), o.terms)))
            if not self._num:
                return o
            if not o._num:
                return self
            onum, od = o._num, o._den
        d = self._den
        if d == od:
            num = dict(self._num)
        else:
            g = gcd(d, od)
            s, t = od // g, d // g
            num = {e: c * s for e, c in self._num.items()}
            onum = {e: c * t for e, c in onum.items()}
            d *= s
        return _rational_poly(self.syms, _add_terms(num, onum), d)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (Poly, int, Fraction, GaussianRational, float, complex)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return _poly(self.syms, {e: -c for e, c in self._num.items()}, self._den)

    def __mul__(self, other):
        d = self._den
        if d is not None and type(other) in _RATIONAL_TYPES:
            # a scalar keeps every exponent tuple where it is
            if other == 1:
                return self
            n = other.numerator
            num = {e: c * n for e, c in self._num.items()} if n else {}
            return _rational_poly(self.syms, num, d * other.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if d is None or o._den is None:
            return _poly(self.syms, *_int_form(_mul_terms(self.terms, o.terms)))
        return _rational_poly(self.syms, _mul_terms(self._num, o._num), d * o._den)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return _power(self, k) if k else Poly.const(self.syms, 1)

    def __eq__(self, other):
        if isinstance(other, Poly):
            if other.syms is not self.syms and other.syms != self.syms:
                return False
        elif self._den is not None and type(other) in _RATIONAL_TYPES:
            n = other.numerator
            if not n:
                return not self._num
            zero = (0,) * len(self.syms)
            return self._den == other.denominator and self._num == {zero: n}
        elif isinstance(other, (int, Fraction, GaussianRational, float, complex)):
            other = Poly.const(self.syms, other)
        else:
            return NotImplemented
        if self._den and other._den:
            return self._den == other._den and self._num == other._num
        return self.terms == other.terms

    __hash__ = None

    def divide_int(self, k):
        if self._den is None:
            # a float quotient may underflow to zero, which is not stored
            res = {e: q for e, c in self._num.items() if (q := int_div(c, k))}
            return _poly(self.syms, *_int_form(res))
        return _rational_poly(self.syms, self._num, self._den * k)

    def occurring(self):
        """Names of symbols appearing with a positive exponent."""
        seen = set()
        for exps in self._num:
            for i, e in enumerate(exps):
                if e:
                    seen.add(self.syms.names[i])
        return seen

    def eval(self, assignment):
        missing = self.occurring() - set(assignment)
        if missing:
            raise HolodetError(f"no value for symbol '{sorted(missing)[0]}'")
        total = 0
        for exps, c in sorted(self.terms.items()):
            term = c
            for i, e in enumerate(exps):
                if e:
                    term = term * assignment[self.syms.names[i]] ** e
            total = total + term
        return total

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]))

    def __str__(self):
        return scalar_str(self)

    def __repr__(self):
        return f"Poly({self.syms.names!r}, {self.terms!r})"


def _add_terms(res, o):
    """Add the coefficient dict o into res and return res: res's keys in
    order, then o's new ones, with every zero sum dropped."""
    get = res.get
    for e, c in o.items():
        c = get(e, 0) + c
        if c:
            res[e] = c
        else:
            res.pop(e, None)
    return res


def _mul_terms(s, o):
    """The coefficient dict s * o, its keys in the order the products of
    s's and o's terms first reach them, with every zero sum dropped."""
    res = {}
    get = res.get
    items = o.items()
    for e1, c1 in s.items():
        for e2, c2 in items:
            e = tuple(map(add, e1, e2))
            c = get(e, 0) + c1 * c2
            if c:
                res[e] = c
            else:
                res.pop(e, None)
    return res


def _int_form(terms):
    """(numerators, denominator) of a coefficient dict: int numerators over
    the lcm of the denominators when every coefficient is an int or a
    Fraction, else the coefficients as they are over None."""
    if not set(map(type, terms.values())) <= _RATIONAL_TYPES:
        return terms, None
    # each Fraction is in lowest terms, so over the lcm of their
    # denominators the numerators share no prime with it
    d, re, _, _ = gaussian_ints(terms.values())
    return dict(zip(terms, re)), d


def _poly(syms, num, den):
    out = object.__new__(Poly)
    out.syms, out._num, out._den = syms, num, den
    return out


def _rational_poly(syms, num, den):
    """The Poly with int numerators num (none zero) over den > 0, reduced to
    lowest terms; the zero Poly has den 1."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
    return _poly(syms, num, den)


def lift(value, syms):
    """Embed a scalar (or a polynomial over a sub-table) into Poly over syms."""
    if isinstance(value, Poly):
        if value.syms == syms:
            return value
        mapping = [syms.index(n) for n in value.syms.names]
        terms = {}
        for exps, c in value.terms.items():
            new = [0] * len(syms)
            for src, dst in enumerate(mapping):
                new[dst] = exps[src]
            terms[tuple(new)] = c
        return Poly(syms, terms)
    return Poly.const(syms, value)


def poly_eval(p, assignment):
    """Substitute values for every symbol occurring in p."""
    if not isinstance(p, Poly):
        return p
    return p.eval(assignment)


def int_div(s, k):
    """Exact division of a scalar by a positive integer."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"int_div needs a positive integer, got {k!r}")
    if isinstance(s, int):
        return Fraction(s, k)
    if isinstance(s, Fraction):
        return s / k
    if isinstance(s, GaussianRational):
        return _reduced(s.a, s.b, s.d * k)
    if isinstance(s, Poly):
        return s.divide_int(k)
    if isinstance(s, (float, complex)):
        return s / k
    raise TypeError(f"unsupported scalar {type(s).__name__}")


def z_power(zs, exponents):
    """prod_a zs_a^exponents_a, leaving out the zero exponents."""
    acc = 1
    for z, e in zip(zs, exponents):
        if e:
            acc = acc * z ** e
    return acc


def is_exact(s):
    if isinstance(s, (int, Fraction, GaussianRational)):
        return True
    if isinstance(s, Poly):
        return s._den is not None or all(is_exact(c) for c in s._num.values())
    return False


def to_complex(s):
    if isinstance(s, (int, float, complex)):
        return complex(s)
    if isinstance(s, Fraction):
        return complex(float(s))
    if isinstance(s, GaussianRational):
        return complex(s)
    if isinstance(s, Poly):
        return complex(to_complex(s.constant_value()))
    raise TypeError(f"cannot embed {type(s).__name__} into complex")


def scalars_close(a, b, rel=FLOAT_REL_TOL, abs_=FLOAT_ABS_TOL):
    if is_exact(a) and is_exact(b) and not isinstance(a, Poly) and not isinstance(b, Poly):
        return a == b
    za, zb = to_complex(a), to_complex(b)
    return abs(za - zb) <= max(abs_, rel * max(abs(za), abs(zb)))


def _sign_split(c):
    """(is_negative, magnitude) for display purposes."""
    if isinstance(c, (int, Fraction)):
        return (c < 0, -c if c < 0 else c)
    if isinstance(c, GaussianRational):
        neg = (c.a, c.b) < (0, 0)
        return (neg, -c if neg else c)
    if isinstance(c, complex):
        neg = (c.real, c.imag) < (0.0, 0.0)
        return (neg, -c if neg else c)
    if isinstance(c, float):
        return (c < 0, -c if c < 0 else c)
    return (False, c)


def scalar_str(s):
    """Canonical display form: "3/4", "1/2+1/3i", sorted monomials."""
    if isinstance(s, (int, Fraction)):
        return str(s)
    if isinstance(s, GaussianRational):
        if s.b == 0:
            return str(s.re)
        if s.a == 0:
            return f"{s.im}i"
        sign = "+" if s.b > 0 else "-"
        return f"{s.re}{sign}{abs(s.im)}i"
    if isinstance(s, complex):
        if s.imag == 0:
            return repr(s.real)
        sign = "+" if s.imag >= 0 else "-"
        return f"{s.real!r}{sign}{abs(s.imag)!r}i"
    if isinstance(s, float):
        return repr(s)
    if isinstance(s, Poly):
        if s.is_zero:
            return "0"
        parts = []
        for exps, c in s.sorted_terms():
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(s.syms.names, exps)
                if e
            )
            neg, mag = _sign_split(c)
            mag_s = scalar_str(mag)
            if any(ch in mag_s[1:] for ch in "+-"):
                mag_s = f"({mag_s})"
            if mono:
                body = mono if mag == 1 else f"{mag_s}*{mono}"
            else:
                body = mag_s
            parts.append(("-" if neg else "+", body))
        sign0, body0 = parts[0]
        text = ("-" if sign0 == "-" else "") + body0
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text
    raise TypeError(f"cannot format {type(s).__name__}")
