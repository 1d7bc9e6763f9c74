import math
import random
from fractions import Fraction

import pytest

from holodet.cli import _t_coefficients
from holodet.errors import HolodetError
from holodet.ring import (
    EXP_LIMIT,
    GaussianRational,
    Poly,
    Symbols,
    _sign_split,
    int_div,
    lift,
    poly_eval,
    scalar_str,
    scalars_close,
)


def test_poly_eval_monomial():
    syms = Symbols(("x1", "x2"))
    p = Poly.variable(syms, "x1") * Poly.variable(syms, "x2")
    assert poly_eval(p, {"x1": 3, "x2": 5}) == 15


def test_poly_eval_empty():
    syms = Symbols(("x1",))
    assert poly_eval(Poly(syms), {"x1": 99}) == 0
    assert poly_eval(Poly(syms), {}) == 0


def test_poly_eval_two_cycle_determinant():
    # det [[x1, -x1 u], [-x2 v, x2]] = x1 x2 (1 - u v); at u = v = 1 it is 0
    syms = Symbols(("x1", "x2", "u", "v"))
    x1, x2, u, v = (Poly.variable(syms, n) for n in syms.names)
    p = x1 * x2 - x1 * x2 * u * v
    assert poly_eval(p, {"x1": 2, "x2": 3, "u": 1, "v": 1}) == 0
    assert poly_eval(p, {"x1": 2, "x2": 3, "u": 0, "v": 7}) == 6


def test_poly_eval_missing_symbol():
    syms = Symbols(("x1", "x2"))
    p = Poly.variable(syms, "x2")
    with pytest.raises(HolodetError, match="x2"):
        poly_eval(p, {"x1": 1})


def test_int_div_examples():
    assert int_div(Fraction(6), 3) == 2
    assert int_div(GaussianRational(1, 1), 2) == GaussianRational(
        Fraction(1, 2), Fraction(1, 2)
    )
    syms = Symbols(("x1",))
    assert int_div(2 * Poly.variable(syms, "x1"), 2) == Poly.variable(syms, "x1")


@pytest.mark.parametrize("c", [5e-324, 5e-324j])
def test_poly_divide_int_drops_underflowed_quotients(c):
    syms = Symbols(("x",))
    q = int_div(Poly(syms, {(1,): c}), 2)
    assert q.terms == {} and not q and str(q) == "0"
    assert q == Poly(syms)


def test_int_div_rejects_bad_k():
    with pytest.raises(ValueError):
        int_div(Fraction(1), 0)


def _random_scalar(rng, syms=None):
    kind = rng.randrange(3 if syms is None else 4)
    if kind == 0:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    if kind == 1:
        return rng.randint(-5, 5)
    if kind == 2:
        return GaussianRational(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        )
    terms = {}
    for _ in range(rng.randint(0, 3)):
        exps = tuple(rng.randint(0, 2) for _ in syms.names)
        terms[exps] = Fraction(rng.randint(-3, 3))
    return Poly(syms, terms)


def test_ring_axioms_random_triples():
    rng = random.Random(7)
    syms = Symbols(("a", "b"))
    for _ in range(200):
        x = _random_scalar(rng, syms)
        y = _random_scalar(rng, syms)
        z = _random_scalar(rng, syms)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x
        assert x + y == y + x


def test_poly_eval_is_multiplicative():
    rng = random.Random(11)
    syms = Symbols(("a", "b", "c"))
    for _ in range(60):
        p = _random_scalar(rng, syms)
        q = _random_scalar(rng, syms)
        if not isinstance(p, Poly):
            p = Poly.const(syms, p)
        if not isinstance(q, Poly):
            q = Poly.const(syms, q)
        sigma = {
            name: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            for name in syms.names
        }
        assert poly_eval(p * q, sigma) == poly_eval(p, sigma) * poly_eval(q, sigma)


def test_int_div_inverts_integer_multiples():
    rng = random.Random(13)
    syms = Symbols(("a",))
    for _ in range(100):
        s = _random_scalar(rng, syms)
        k = rng.randint(1, 9)
        assert int_div(k * s, k) == s


def test_gaussian_rational_division_roundtrip():
    rng = random.Random(17)
    for _ in range(50):
        a = GaussianRational(
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
        )
        b = GaussianRational(
            Fraction(rng.randint(1, 5), rng.randint(1, 3)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
        )
        assert (a * b) / b == a


class _FracPair:
    """Reference Gaussian rational: a pair of Fractions, with no canonical
    form of its own beyond Fraction's."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(x):
        return x if isinstance(x, _FracPair) else _FracPair(x)

    def __add__(self, o):
        o = _FracPair.of(o)
        return _FracPair(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        o = _FracPair.of(o)
        return _FracPair(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return _FracPair(-self.re, -self.im)

    def __mul__(self, o):
        o = _FracPair.of(o)
        return _FracPair(self.re * o.re - self.im * o.im,
                         self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        o = _FracPair.of(o)
        n = o.re * o.re + o.im * o.im
        return _FracPair((self.re * o.re + self.im * o.im) / n,
                         (self.im * o.re - self.re * o.im) / n)

    def conjugate(self):
        return _FracPair(self.re, -self.im)

    def __eq__(self, o):
        o = _FracPair.of(o)
        return (self.re, self.im) == (o.re, o.im)

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def text(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        return f"{self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}i"


def _draw_fraction(rng):
    den = rng.choice((1, 1, 2, 3, 4, 6, 12, 35))
    return Fraction(rng.randint(-12, 12) * rng.choice((1, 1, 5, 7)), den)


def _draw_operand(rng):
    """(operand, reference): a GaussianRational, an int or a Fraction."""
    kind = rng.randrange(4)
    if kind == 0:
        n = rng.randint(-6, 6)
        return n, _FracPair(n)
    if kind == 1:
        f = _draw_fraction(rng)
        return f, _FracPair(f)
    return _draw_gaussian(rng)


def _draw_gaussian(rng):
    re, im = _draw_fraction(rng), rng.choice((0, _draw_fraction(rng)))
    return GaussianRational(re, im), _FracPair(re, im)


def _assert_matches(got, ref):
    assert isinstance(got, GaussianRational)
    assert got.d > 0 and math.gcd(got.a, got.b, got.d) == 1
    assert bool(got) is not ref.is_zero()
    if ref.is_zero():
        assert (got.a, got.b, got.d) == (0, 0, 1)
    assert (got.re, got.im) == (ref.re, ref.im)
    assert complex(got) == complex(float(ref.re), float(ref.im))
    assert repr(got) == f"GaussianRational({ref.re!r}, {ref.im!r})"
    assert scalar_str(got) == ref.text()


def test_gaussian_rational_matches_fraction_pair():
    rng = random.Random(23)
    for _ in range(400):
        x, rx = _draw_gaussian(rng)
        y, ry = _draw_operand(rng)
        _assert_matches(x, rx)
        for got, want in (
            (x + y, rx + ry), (y + x, ry + rx),
            (x - y, rx - ry), (y - x, ry - rx),
            (x * y, rx * ry), (y * x, ry * rx),
            (-x, -rx), (x.conjugate(), rx.conjugate()),
        ):
            _assert_matches(got, want)
        k = rng.randint(0, 4)
        want = _FracPair(1)
        for _ in range(k):
            want = want * rx
        _assert_matches(x ** k, want)
        m = rng.randint(1, 12)
        _assert_matches(int_div(x, m), rx / m)
        if not ry.is_zero():
            _assert_matches(x / y, rx / ry)
        if not rx.is_zero():
            _assert_matches(y / x, ry / rx)
        equal = rx == ry
        assert (x == y) is equal and (y == x) is equal
        assert (x != y) is not equal and (y != x) is not equal
        if equal:
            assert hash(x) == hash(y)


def test_gaussian_rational_hash_agrees_with_int_and_fraction():
    assert len({GaussianRational(1), 1, Fraction(1)}) == 1
    assert len({GaussianRational(Fraction(-3, 4)), Fraction(-6, 8)}) == 1
    assert hash(GaussianRational(0)) == hash(0)
    assert GaussianRational(1, 1) not in {1, Fraction(1)}


def test_gaussian_rational_division_by_zero():
    x = GaussianRational(Fraction(1, 2), 3)
    for zero in (0, Fraction(0), GaussianRational(0), x - x):
        with pytest.raises(ZeroDivisionError):
            x / zero
    with pytest.raises(ZeroDivisionError):
        1 / GaussianRational(0)


def test_lift_and_symbol_extension():
    small = Symbols(("x",))
    big = small.extended(("y",))
    p = Poly.variable(small, "x") * 3
    lifted = lift(p, big)
    assert lifted == 3 * Poly.variable(big, "x")
    assert lift(Fraction(1, 2), big) == Poly.const(big, Fraction(1, 2))


def test_scalar_str_canonical_forms():
    assert scalar_str(Fraction(3, 4)) == "3/4"
    assert scalar_str(GaussianRational(Fraction(1, 2), Fraction(1, 3))) == "1/2+1/3i"
    assert scalar_str(GaussianRational(Fraction(1, 2), Fraction(-1, 3))) == "1/2-1/3i"
    syms = Symbols(("x1", "x2", "u", "v"))
    x1, x2, u, v = (Poly.variable(syms, n) for n in syms.names)
    assert scalar_str(x1 * x2 - x1 * x2 * u * v) == "x1*x2 - x1*x2*u*v"
    assert scalar_str(Poly(syms)) == "0"


def test_scalars_close_tolerances():
    assert scalars_close(1.0 + 0j, 1.0 + 1e-13j)
    assert not scalars_close(1.0 + 0j, 1.001 + 0j)
    assert scalars_close(Fraction(1, 3), Fraction(1, 3))


def _counting_products(monkeypatch, cls):
    calls = []
    mul = cls.__mul__

    def counted(self, other):
        calls.append(other is self)
        return mul(self, other)

    monkeypatch.setattr(cls, "__mul__", counted)
    return calls


@pytest.mark.parametrize("kind", ("poly", "gaussian"))
def test_power_squares_only_while_bits_remain(monkeypatch, kind):
    syms = Symbols(("x", "y"))
    if kind == "poly":
        x, y = Poly.variable(syms, "x"), Poly.variable(syms, "y")
        base, one = x * Fraction(1, 2) - 3 * y + Fraction(2, 3), Poly.const(syms, 1)
    else:
        base, one = GaussianRational(Fraction(1, 2), Fraction(-2, 3)), GaussianRational(1)
    want = [one]
    for _ in range(9):
        want.append(want[-1] * base)
    calls = _counting_products(monkeypatch, type(base))
    assert base ** 1 == base and calls == []
    assert base ** 4 == want[4] and calls == [True, True]
    for k, w in enumerate(want):
        del calls[:]
        assert base ** k == w
        # one square per bit below the top one, one product per further set bit
        assert calls.count(True) == max(k.bit_length() - 1, 0)
        assert len(calls) - calls.count(True) == max(bin(k).count("1") - 1, 0)


# --- Poly against the dense loops ------------------------------------------

def _dense_add(s, o):
    res = dict(s)
    for e, c in o.items():
        v = res.get(e, 0) + c
        if v == 0:
            res.pop(e, None)
        else:
            res[e] = v
    return res


def _dense_mul(s, o):
    res = {}
    for e1, c1 in s.items():
        for e2, c2 in o.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            v = res.get(e, 0) + c1 * c2
            if v == 0:
                res.pop(e, None)
            else:
                res[e] = v
    return res


def _dense_neg(s):
    return {e: -c for e, c in s.items()}


def _const_terms(width, c):
    return {} if c == 0 else {(0,) * width: c}


def _draw_coefficient(rng, kind):
    if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
        return rng.choice((-1, 1)) * rng.randint(1, 12)
    if kind in ("fraction", "mixed"):
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.choice((1, 2, 3, 4, 6, 35)))
    if kind == "gaussian":
        if rng.random() < 0.3:
            return rng.randint(-4, 4)
        return GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                                Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    if kind == "float":
        return rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 3.0)
    return complex(rng.choice((-0.0, rng.uniform(-2, 2))), rng.uniform(-2, 2))


_KINDS = ("int", "fraction", "mixed", "gaussian", "float", "complex")


def _draw_poly(rng, syms, kind):
    width = len(syms)
    terms = {}
    for _ in range(rng.randint(0, 4)):
        terms[tuple(rng.randint(0, 2) for _ in range(width))] = _draw_coefficient(rng, kind)
    return Poly(syms, terms)


def _draw_kind(rng, other=None):
    """A coefficient kind, weighted to the rational ones; never Gaussian next
    to float or complex, which do not add."""
    kinds = _KINDS[:3] * 3
    if other != "gaussian":
        kinds += ("float", "complex")
    if other not in ("float", "complex"):
        kinds += ("gaussian",)
    return rng.choice(kinds)


def _draw_scalar(rng, other):
    kind = rng.choice(("zero", "one", _draw_kind(rng, other)))
    if kind == "zero":
        return rng.choice((0, Fraction(0)))
    if kind == "one":
        return rng.choice((1, Fraction(1)))
    return _draw_coefficient(rng, kind)


def _rational(terms):
    return all(type(c) in (int, Fraction) for c in terms.values())


def _assert_poly_matches(got, want):
    assert isinstance(got, Poly)
    assert bool(got) == bool(want)
    if _rational(want):
        # key order and values, held as int numerators over the lcm of the
        # denominators
        assert list(got.terms.items()) == list(want.items())
        assert all(type(c) in (int, Fraction) for c in got.terms.values())
        den = math.lcm(*(Fraction(c).denominator for c in want.values()))
        assert type(got._den) is int and got._den == den
        assert all(type(n) is int for n in got._num.values())
        assert got._den == 1 or math.gcd(got._den, *got._num.values()) == 1
        assert got.is_zero == (not want) and (got == 0) == (not want)
    else:
        # the dense loops' dict, float bits and Gaussian types included; an
        # int coefficient may read as a Fraction with denominator 1, or back
        assert got._den is None and _typed(got.terms) == _typed(want)


def _typed(terms):
    return repr([(e, Fraction(c) if type(c) is int else c) for e, c in terms.items()])


def _dense_str(names, terms):
    """scalar_str of the Poly with these exponent-tuple terms: monomials by
    degree, then by exponents, each as [coefficient*]name^e*..."""
    parts = []
    for exps, c in sorted(terms.items(), key=lambda item: (sum(item[0]), item[0])):
        mono = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)
        neg, mag = _sign_split(c)
        text = scalar_str(mag)
        if any(ch in text[1:] for ch in "+-"):
            text = f"({text})"
        body = text if not mono else mono if mag == 1 else f"{text}*{mono}"
        parts.append(("- " if neg else "+ ") + body)
    if not parts:
        return "0"
    first = parts[0]
    return " ".join([first[2:] if first[0] == "+" else "-" + first[2:]] + parts[1:])


def _lifted_terms(terms, names, table):
    where = [table.index(n) for n in names]
    out = {}
    for exps, c in terms.items():
        new = [0] * len(table)
        for i, e in zip(where, exps):
            new[i] = e
        out[tuple(new)] = c
    return out


def test_poly_matches_dense_reference():
    rng = random.Random(29)
    for width in range(4):
        syms = Symbols(("a", "b", "c")[:width])
        for _ in range(250):
            kind = _draw_kind(rng)
            x = _draw_poly(rng, syms, kind)
            y = _draw_poly(rng, syms, _draw_kind(rng, kind))
            if rng.random() < 0.2:
                # cancellation to zero, or a scaled copy; an int 0 scale
                # gives the int 0, drawn here as the zero Poly
                y = -x if rng.random() < 0.5 else x * _draw_scalar(rng, kind)
                if type(y) is int:
                    y = Poly(syms)
            xt, yt = x.terms, y.terms
            for got, want in (
                (x + y, _dense_add(xt, yt)), (x - y, _dense_add(xt, _dense_neg(yt))),
                (x * y, _dense_mul(xt, yt)), (-x, _dense_neg(xt)),
                (x - x, {}), (x + Poly(syms), dict(xt)), (x * Poly(syms), {}),
            ):
                _assert_poly_matches(got, want)
            assert (x == y) is (xt == yt) and (y == x) is (xt == yt)
            c = _draw_scalar(rng, kind)
            ct = _const_terms(width, c)
            assert (x == c) is (xt == ct) and (c == x) is (xt == ct)
            for got, want in (
                (x + c, _dense_add(xt, ct)), (c + x, _dense_add(xt, ct)),
                (x - c, _dense_add(xt, _dense_neg(ct))), (c - x, _dense_add(ct, _dense_neg(xt))),
            ):
                _assert_poly_matches(got, want)
            for got in (x * c, c * x):
                if type(c) is int and not c:
                    assert type(got) is int and got == 0
                else:
                    _assert_poly_matches(got, _dense_mul(xt, ct))
            k = rng.randint(1, 9)
            want = {e: q for e, c in xt.items() if (q := int_div(c, k))}
            _assert_poly_matches(x.divide_int(k), want)
            _assert_poly_matches(int_div(x, k), want)
            if not any(isinstance(c, (float, complex)) for c in xt.values()):
                want = _const_terms(width, 1)
                for j in range(4):
                    assert (x ** j).terms == want
                    want = _dense_mul(want, xt)
            # the boundary: printing, lifting onto an extended and a
            # reordered table, and splitting out one symbol's powers
            assert scalar_str(x) == _dense_str(syms.names, xt)
            for table in (syms.extended(("d",)), Symbols(syms.names[::-1] + ("d",))):
                got = lift(x, table)
                assert got.syms == table
                _assert_poly_matches(got, _lifted_terms(xt, syms.names, table))
            if width:
                i, n = rng.randrange(width), rng.randint(0, 3)
                for j, got in enumerate(_t_coefficients(x, syms.names[i], n)):
                    want = {e[:i] + e[i + 1:]: c for e, c in xt.items() if e[i] == j}
                    if width > 1:
                        _assert_poly_matches(got, want)
                    else:
                        assert _typed({(): got} if got else {}) == _typed(want)


@pytest.mark.parametrize("c", [Fraction(3, 2), GaussianRational(1, -2), 0.5, 1.5 - 2j])
def test_an_int_zero_is_the_zero_of_every_poly_product(c):
    # an exact int 0 times a Poly, on either side, is the int 0, and a Poly
    # plus it is the Poly itself, for rational, Gaussian, float and complex
    # coefficients alike; any other zero scalar still gives a zero Poly
    syms = Symbols(("x", "y"))
    x, y = (Poly.variable(syms, n) for n in syms.names)
    p = c * x * y + 2 * x
    assert p and (p._den is None) is (type(c) is not Fraction)
    for got in (p * 0, 0 * p):
        assert type(got) is int and got == 0
    assert p + 0 is p and 0 + p is p
    for zero in (Fraction(0), 0.0, False):
        for got in (p * zero, zero * p):
            assert type(got) is Poly and got.is_zero


def test_poly_exponent_fields_do_not_carry():
    # each symbol's exponent has a field of its own in a monomial key; the
    # largest exponent a field holds reads back exactly beside its
    # neighbours' exponents, and no product may carry past it
    syms = Symbols(("x", "y", "z"))
    x, y = Poly.variable(syms, "x"), Poly.variable(syms, "y")
    top = EXP_LIMIT - 1
    assert (Poly(syms, {(1, 0, 1): 1}) ** top).terms == {(top, 0, top): 1}
    assert (Poly(syms, {(0, 1, 1): -1}) ** top).terms == {(0, top, top): -1}
    assert x ** top == Poly(syms, {(top, 0, 0): 1})
    high = Poly(syms, {(top, 5, 0): Fraction(1, 2), (0, 7, top): 2})
    assert high.terms == {(top, 5, 0): Fraction(1, 2), (0, 7, top): 2}
    assert str(high) == f"1/2*x^{top}*y^5 + 2*y^7*z^{top}"
    assert high.occurring() == {"x", "y", "z"}
    for reach in (lambda: x ** EXP_LIMIT, lambda: (x ** top) * x,
                  lambda: x * (x ** top), lambda: (x ** top) * y,
                  lambda: high * high, lambda: (1.5 * x) ** EXP_LIMIT):
        with pytest.raises(HolodetError, match="exponents may reach"):
            reach()
    with pytest.raises(ValueError, match="not below"):
        Poly(syms, {(EXP_LIMIT, 0, 0): 1})
