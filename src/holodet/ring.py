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
coefficients is held the same way: int numerators over one denominator.
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
_EXACT_TYPES = frozenset((int, bool, Fraction, GaussianRational))
_RATIONAL_TYPES = frozenset((int, bool, Fraction))


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
    if not types <= _EXACT_TYPES:
        return None
    kind = 2 if GaussianRational in types else 1 if Fraction in types else 0
    parts = list(map(_parts, entries))
    d = lcm(*(xd for _, _, xd in parts))
    re = [a * (d // xd) for a, _, xd in parts]
    im = [b * (d // xd) for _, b, xd in parts]
    return d, re, (im if any(im) else None), kind


def gaussian_parts(x):
    """(a, b, d, kind) of an exact scalar x = (a + bi)/d in lowest terms,
    kind as gaussian_ints gives it; None when x's type is not int,
    Fraction or GaussianRational."""
    if type(x) not in _EXACT_TYPES:
        return None
    a, b, d = _parts(x)
    return a, b, d, 2 if type(x) is GaussianRational else 1 if type(x) is Fraction else 0


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

    When every coefficient is an int or a Fraction, a Poly also holds them
    as integer numerators keyed by exponent tuple over one denominator
    d > 0, kept canonical like a GaussianRational: gcd(d, every numerator)
    = 1.  Sums and products of two such Polys, or of one and an int or
    Fraction scalar, run on those ints, in the dense loops' key order; the
    result's ``terms`` is built on first read and cached, ints when d is 1
    and Fractions otherwise.  A Poly with a GaussianRational, float or
    complex coefficient holds only ``terms``, and any sum or product with
    it takes the dense loops.

    Values are immutable.  ``terms`` is shared, not copied (``p + 0`` may
    return p itself), so it must not be mutated.
    """

    __slots__ = ("syms", "_num", "_den", "_terms")

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
                if not (c == 0):
                    clean[exps] = c
        self._terms = clean
        self._num, self._den = _int_form(clean)

    @classmethod
    def const(cls, syms, value):
        if value == 0:
            return cls(syms)
        return cls(syms, {(0,) * len(syms): value})

    @classmethod
    def variable(cls, syms, name):
        exps = [0] * len(syms)
        exps[syms.index(name)] = 1
        return cls(syms, {tuple(exps): 1})

    @property
    def terms(self):
        """Map from exponent tuple to nonzero coefficient; shared, not copied."""
        t = self._terms
        if t is None:
            d = self._den
            t = self._num if d == 1 else {e: Fraction(n, d) for e, n in self._num.items()}
            self._terms = t
        return t

    @property
    def is_zero(self):
        return not (self._terms if self._num is None else self._num)

    def constant_value(self):
        """Value of a polynomial with no surviving indeterminates."""
        zero = (0,) * len(self.syms)
        if any(e != zero for e in self.terms):
            raise HolodetError("polynomial is not constant")
        return self.terms.get(zero, 0)

    def _same_table(self, other):
        if other.syms is not self.syms and other.syms != self.syms:
            raise HolodetError(
                "polynomials over different symbol tables; lift them first"
            )

    def _coerce(self, other):
        if isinstance(other, Poly):
            self._same_table(other)
            return other
        if isinstance(other, (int, Fraction, GaussianRational, float, complex)):
            return Poly.const(self.syms, other)
        return None

    def __add__(self, other):
        t = type(other)
        if t in _RATIONAL_TYPES:
            if not other:
                return self
            if self._num is not None:
                zero = (0,) * len(self.syms)
                return self._add_ints({zero: other.numerator}, other.denominator)
        elif t is Poly and self._num is not None and other._num is not None:
            self._same_table(other)
            if not self._num:
                return other
            return self._add_ints(other._num, other._den) if other._num else self
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        res = dict(self.terms)
        for e, c in o.terms.items():
            s = res.get(e, 0) + c
            if s == 0:
                res.pop(e, None)
            else:
                res[e] = s
        return _poly(self.syms, *_int_form(res), res)

    __radd__ = __add__

    def _add_ints(self, num, den):
        """self + num/den in integer form, its keys in the dense loop's order."""
        d = self._den
        if d == den:
            res = dict(self._num)
        else:
            g = gcd(d, den)
            s, t = den // g, d // g
            res = {e: c * s for e, c in self._num.items()}
            num = {e: c * t for e, c in num.items()}
            d *= s
        get = res.get
        for e, c in num.items():
            c += get(e, 0)
            if c:
                res[e] = c
            else:
                del res[e]
        return _rational_poly(self.syms, res, d)

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
        if self._num is None:
            return _poly(self.syms, None, None, {e: -c for e, c in self._terms.items()})
        return _poly(self.syms, {e: -c for e, c in self._num.items()}, self._den, None)

    def __mul__(self, other):
        if self._num is not None:
            t = type(other)
            if t in _RATIONAL_TYPES:
                # a scalar keeps every exponent tuple where it is
                if other == 1:
                    return self
                n = other.numerator
                num = {e: c * n for e, c in self._num.items()} if n else {}
                return _rational_poly(self.syms, num, self._den * other.denominator)
            if t is Poly and other._num is not None:
                self._same_table(other)
                res = {}
                get = res.get
                terms2 = other._num.items()
                for e1, c1 in self._num.items():
                    for e2, c2 in terms2:
                        e = tuple(map(add, e1, e2))
                        c = get(e, 0) + c1 * c2
                        if c:
                            res[e] = c
                        else:
                            del res[e]
                return _rational_poly(self.syms, res, self._den * other._den)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        res = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = res.get(e, 0) + c1 * c2
                if s == 0:
                    res.pop(e, None)
                else:
                    res[e] = s
        return _poly(self.syms, *_int_form(res), res)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return _power(self, k) if k else Poly.const(self.syms, 1)

    def __eq__(self, other):
        if isinstance(other, Poly):
            if self.syms != other.syms:
                return False
            if self._num is not None and other._num is not None:
                return self._den == other._den and self._num == other._num
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)) and self._num is not None:
            n = other.numerator
            if not n:
                return not self._num
            zero = (0,) * len(self.syms)
            return self._den == other.denominator and self._num == {zero: n}
        if isinstance(other, (int, Fraction, GaussianRational, float, complex)):
            return self.terms == Poly.const(self.syms, other).terms
        return NotImplemented

    __hash__ = None

    def divide_int(self, k):
        if self._num is None:
            res = {e: int_div(c, k) for e, c in self._terms.items()}
            return _poly(self.syms, *_int_form(res), res)
        return _rational_poly(self.syms, self._num, self._den * k)

    def occurring(self):
        """Names of symbols appearing with a positive exponent."""
        seen = set()
        for exps in self.terms:
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


def _int_form(terms):
    """(numerators, denominator) of nonzero int and Fraction coefficients;
    (None, None) when some coefficient is of another type."""
    types = set(map(type, terms.values()))
    if types <= {int}:
        return terms, 1
    if not types <= _RATIONAL_TYPES:
        return None, None
    # each Fraction is in lowest terms, so over the lcm of their
    # denominators the numerators share no prime with it
    d = lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (d // c.denominator) for e, c in terms.items()}, d


def _poly(syms, num, den, terms):
    out = object.__new__(Poly)
    out.syms, out._num, out._den, out._terms = syms, num, den, terms
    return out


def _rational_poly(syms, num, den):
    """The Poly with int numerators num (none zero) over den > 0, reduced to
    lowest terms; the zero Poly has den 1."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
    return _poly(syms, num, den, None)


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
        return s._num is not None or all(is_exact(c) for c in s.terms.values())
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
