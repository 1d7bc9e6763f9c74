import itertools
import math
import random
from fractions import Fraction
from operator import add, mul

import pytest

from _helpers import gauss_rat, random_exact_instance, random_quiver, random_symbolic_instance
from holodet import linalg
from holodet.blockdet import det_block_perm, det_perm_traces, det_trace_formal
from holodet.errors import HolodetError, MethodRefusal
from holodet.euler import det_euler_finite
from holodet.laplacian import build_laplacian, charpoly_laplacian, det_laplacian_cycles
from holodet.linalg import (
    BlockMatrix,
    GaussianMatrix,
    Matrix,
    charpoly_oracle,
    block_walk_traces,
    det_oracle,
    product_traces,
)
from holodet.quiver import Representation
from holodet.ring import GaussianRational, Poly, Symbols, gaussian_scalar, scalars_close, to_complex
from holodet.vectorfields import det_vector_fields
from holodet.walks import CyclicWalk


def test_det_identity_and_permutation():
    assert det_oracle(Matrix.identity(3)) == 1
    assert det_oracle(Matrix.from_rows([[0, 1], [1, 0]])) == -1


def test_det_rejects_non_square():
    with pytest.raises(HolodetError):
        det_oracle(Matrix.zeros(2, 3))


def test_det_symbolic_two_cycle():
    syms = Symbols(("x1", "x2", "u", "v"))
    x1, x2, u, v = (Poly.variable(syms, n) for n in syms.names)
    m = Matrix.from_rows([[x1, -(x1 * u)], [-(x2 * v), x2]])
    assert det_oracle(m) == x1 * x2 - x1 * x2 * u * v


def test_det_poly_cap():
    syms = Symbols(("x",))
    x = Poly.variable(syms, "x")
    big = Matrix.from_rows(
        [[x if i == j else 0 for j in range(9)] for i in range(9)]
    )
    with pytest.raises(MethodRefusal):
        det_oracle(big)


def test_det_exact_matches_float_embedding():
    rng = random.Random(23)
    for _ in range(100):
        m = Matrix(6, 6, [gauss_rat(rng) for _ in range(36)])
        exact = det_oracle(m)
        approx = det_oracle(m.to_complex())
        assert scalars_close(exact, approx)


def test_det_bareiss_singular():
    m = Matrix.from_rows(
        [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    )
    assert det_oracle(m) == 0


def test_charpoly_trivial_cases():
    assert charpoly_oracle(Matrix.zeros(2, 2)) == [0, 0, 1]
    assert charpoly_oracle(Matrix.identity(2)) == [1, 2, 1]
    assert charpoly_oracle(Matrix.from_rows([[2, 0], [0, 3]])) == [6, 5, 1]


def test_charpoly_constant_term_is_det():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = Matrix(n, n, [gauss_rat(rng) for _ in range(n * n)])
        coeffs = charpoly_oracle(m)
        assert coeffs[0] == det_oracle(m)
        assert coeffs[n] == 1


def test_charpoly_keeps_each_step_product(monkeypatch):
    # each step's A M_k, formed for its trace, starts the next step: n + 1
    # products, and the same floats, signed zeros included, as forming it
    # twice
    rng = random.Random(31)
    n = 5
    m = Matrix(n, n, [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n * n)])
    a = -m
    ident = Matrix.identity(n)
    want = [0] * n + [1]
    mk = Matrix.zeros(n, n)
    for k in range(1, n + 1):
        mk = a * mk + ident.scale(want[n - k + 1])
        want[n - k] = -((a * mk).trace()) / k
    calls = []
    mul = Matrix.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counted)
    got = charpoly_oracle(m)
    assert len(calls) == n + 1
    assert list(map(repr, got)) == list(map(repr, want))


def test_walk_trace_zero_block():
    m = Matrix.from_rows([[3, 0], [5, 7]])
    bm = BlockMatrix(m, (1, 1))
    assert block_walk_traces(bm)((0, 1)) == 0


def test_walk_trace_scalar_blocks():
    m = Matrix.from_rows([[0, 4], [9, 0]])
    bm = BlockMatrix(m, (1, 1))
    assert block_walk_traces(bm)((0, 1)) == 36


def test_walk_trace_rotation_invariance():
    rng = random.Random(31)
    for _ in range(40):
        part = tuple(rng.randint(1, 2) for _ in range(3))
        n = sum(part)
        bm = BlockMatrix(Matrix(n, n, [gauss_rat(rng) for _ in range(n * n)]), part)
        length = rng.randint(2, 6)
        seq = [rng.randrange(3)]
        while len(seq) < length:
            nxt = rng.randrange(3)
            if nxt != seq[-1] and not (len(seq) == length - 1 and nxt == seq[0]):
                seq.append(nxt)
        seq = tuple(seq)
        trace = block_walk_traces(bm)
        for r in range(len(seq)):
            rotated = seq[r:] + seq[:r]
            assert trace(rotated) == trace(seq)
        assert trace(CyclicWalk(seq).seq) == trace(seq)


def _left_to_right_trace(mats, seq):
    prod = mats[seq[0]]
    for key in seq[1:]:
        prod = prod * mats[key]
    return prod.trace()


def test_product_traces_equal_full_products_exactly():
    # chained shapes 1 -> 2 -> 3 -> 2 -> 1 and back, so most factors are
    # rectangular; the sequences share prefixes of every length
    rng = random.Random(41)
    shapes = {"a": (1, 2), "b": (2, 3), "c": (3, 2), "d": (2, 1), "e": (2, 2),
              "f": (1, 1), "g": (2, 1)}
    seqs = [("f",), ("a", "d"), ("a", "e", "d"), ("a", "b", "c", "d"),
            ("a", "b", "c", "e", "d"), ("a", "b", "c", "e", "e", "d"),
            ("a", "b", "c", "g"), ("e",), ("e", "e")]
    for entry in (lambda: gauss_rat(rng),
                  lambda: complex(rng.gauss(0, 1), rng.gauss(0, 1)),
                  lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4))):
        mats = {k: Matrix(r, c, [entry() for _ in range(r * c)])
                for k, (r, c) in shapes.items()}
        trace = product_traces(mats)
        for seq in seqs:
            assert trace(seq) == _left_to_right_trace(mats, seq)
            assert type(trace(seq)) is type(_left_to_right_trace(mats, seq))


def test_product_traces_share_prefix_products(monkeypatch):
    # each proper prefix is multiplied once and each sequence closed once,
    # over exact factors (GaussianMatrix) and float ones (Matrix) alike
    seqs = [((0, 1, 2, 3), ["__mul__", "__mul__", "close"]),
            ((0, 1, 2, 4), ["close"]),
            ((0, 1, 5), ["close"]),
            ((0, 1, 5), []),
            ((0, 1, 2, 3, 4), ["__mul__", "close"])]
    for entry, kind in ((int, GaussianMatrix), (float, Matrix)):
        mats = {k: Matrix(2, 2, [entry(x) for x in (k, 1, 0, k)]) for k in range(6)}
        wants = [_left_to_right_trace(mats, seq) for seq, _ in seqs]
        calls = []
        with monkeypatch.context() as patch:
            for name in ("__mul__", "close"):
                def counted(self, other, name=name, real=getattr(kind, name)):
                    calls.append(name)
                    return real(self, other)
                patch.setattr(kind, name, counted)
            trace = product_traces(mats)
            for (seq, products), want in zip(seqs, wants):
                calls.clear()
                assert trace(seq) == want
                assert calls == products, (entry, seq)


def test_product_traces_refuse_a_product_without_trace():
    mats = {"a": Matrix(1, 2, [1, 2]), "b": Matrix(2, 2, [1, 0, 0, 1])}
    trace = product_traces(mats)
    with pytest.raises(ValueError):
        trace(("a", "b"))
    with pytest.raises(ValueError):
        trace(("b", "b", "a"))


# the loops that small shapes' generated kernels replace, kept as the reference

def _loop_product(a, b):
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = 0
            for t in range(a.cols):
                acc = acc + a.data[i * a.cols + t] * b.data[t * b.cols + j]
            out.append(acc)
    return out


def _loop_close(a, b):
    got = 0
    for i in range(a.rows):
        acc = 0
        for t in range(a.cols):
            acc = acc + a.data[i * a.cols + t] * b.data[t * a.rows + i]
        got = got + acc
    return got


def _loop_int_product(rows, cols):
    return [[sum(map(mul, row, col)) for col in cols] for row in rows]


def _loop_int_close(rows, cols, re=0, im=0):
    n = len(rows)
    flat = list(itertools.chain.from_iterable(rows))
    return (sum(map(mul, flat, itertools.chain.from_iterable(cols[:n])), re),
            sum(map(mul, flat, itertools.chain.from_iterable(cols[n:])), im))


def _loop_int_sum(a, b):
    return [list(map(add, r, s)) for r, s in zip(a, b)]


def _loop_det_lu(a):
    n = len(a)
    det = 1.0 + 0.0j
    for k in range(n):
        piv, pmax = k, abs(a[k][k])
        for i in range(k + 1, n):
            if abs(a[i][k]) > pmax:
                piv, pmax = i, abs(a[i][k])
        if pmax == 0.0:
            return 0.0 + 0.0j
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        inv = 1.0 / a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] * inv
            if f != 0:
                for j in range(k + 1, n):
                    a[i][j] -= f * a[k][j]
    return det


def _bits(values):
    """Each value's type and value, a float or complex by the bits of its
    parts, so that 0.0 and -0.0 differ."""
    def bits(x):
        if isinstance(x, complex):
            return complex, x.real.hex(), x.imag.hex()
        if isinstance(x, float):
            return float, x.hex()
        return type(x), x
    return [bits(x) for x in values]


_XY = Symbols(("x", "y"))


def _kernel_entries(rng):
    """Random scalars of each type a Matrix product meets: complex floats
    (a third of them signed zeros, the rest of mixed magnitude, so a
    reordered sum rounds differently), ints, Fractions, GaussianRationals,
    and Polys among int 0s, whose products with a Poly are the int 0."""
    x, y = (Poly.variable(_XY, name) for name in _XY.names)
    zeros = (0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), complex(-0.0, 0.0))
    return {
        "complex": lambda: rng.choice(zeros) if rng.random() < 0.35 else complex(
            rng.gauss(0, 1), rng.gauss(0, 1)) * 10.0 ** rng.randint(-9, 9),
        "int": lambda: rng.randint(-9, 9),
        "fraction": lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        "gaussian": lambda: gauss_rat(rng),
        "poly": lambda: rng.choice((0, 0, x, y, x * y - 3, 2 * x + Fraction(1, 2))),
    }


def test_matrix_kernels_match_the_loops_bit_for_bit(monkeypatch):
    # every kernel shape of Matrix.__mul__ and Matrix.close, empty ones too
    monkeypatch.setattr(linalg, "_KERNELS", {})
    rng = random.Random(3131)
    dims = range(linalg.SMALL + 1)
    types = set()
    for family, entry in _kernel_entries(rng).items():
        for n, k, m in itertools.product(dims, repeat=3):
            for _ in range(3):
                a = Matrix(n, k, [entry() for _ in range(n * k)])
                b = Matrix(k, m, [entry() for _ in range(k * m)])
                got = a * b
                assert (got.rows, got.cols) == (n, m)
                assert _bits(got.data) == _bits(_loop_product(a, b)), (family, n, k, m)
                back = Matrix(m, k, [entry() for _ in range(m * k)])
                assert _bits([b.close(back)]) == _bits([_loop_close(b, back)]), family
                if k:
                    types.update((family, type(x)) for x in got.data)
    # a Poly entry made of int 0 products only stays the int 0
    assert {("poly", int), ("poly", Poly), ("complex", complex)} <= types
    assert len(linalg._KERNELS) == len(dims) ** 3 + len(dims) ** 2


def test_int_kernels_match_the_loops(monkeypatch):
    # every kernel shape of int_product, int_close and int_sum: up to SMALL
    # rows, and twice that for the row length and the column count, as in
    # the complex [A | B] forms, whose close takes n columns when real, 2n
    # when complex
    monkeypatch.setattr(linalg, "_KERNELS", {})
    rng = random.Random(3132)
    small = linalg.SMALL

    def ints(count, length):
        return [[rng.randint(-10 ** 12, 10 ** 12) for _ in range(length)] for _ in range(count)]

    for n in range(1, small + 1):
        for k in range(1, 2 * small + 1):
            rows = ints(n, k)
            for m in range(1, 2 * small + 1):
                cols = ints(m, k)
                assert linalg.int_product(rows, cols) == _loop_int_product(rows, cols)
            for cols in (ints(n, k), ints(2 * n, k)):
                assert linalg.int_close(rows, cols) == _loop_int_close(rows, cols)
                assert linalg.int_close(rows, cols, 5, -7) == _loop_int_close(rows, cols, 5, -7)
            other = ints(n, k)
            assert linalg.int_sum(rows, other) == _loop_int_sum(rows, other)
    assert len(linalg._KERNELS) == small * 2 * small * (2 * small + 2 + 1)
    # real and complex forms, as exact_form makes them, chain through them
    for a_shape, b_shape in (((2, 3), (3, 2)), ((3, 1), (1, 3)), ((1, 2), (2, 1))):
        for family in ("real", "mixed"):
            a, b = (Matrix(r, c, [_exact_entry(rng, family) for _ in range(r * c)])
                    for r, c in (a_shape, b_shape))
            fa, fb = linalg.exact_form(a), linalg.exact_form(b)
            cols = fb.cols[fa.complex]
            assert (fa * fb).rows == _loop_int_product(fa.rows, cols)
            assert fa.close(fb) == _loop_int_close(fa.rows, cols)


# parts of the LU's entries: signed zeros, a subnormal, magnitudes whose
# abs overflows when paired, inf and nan
_LU_PARTS = (0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 5e-324, 1e-300, 1e300, 1.5e308,
             math.inf, -math.inf, math.nan)


def _lu_outcome(det, rows):
    """det's value by its bits, or the exception it raises, on a copy."""
    try:
        return _bits([det([list(row) for row in rows])])
    except ArithmeticError as exc:
        return type(exc), str(exc)


def test_written_out_lu_matches_the_loop_bit_for_bit():
    # orders 1 and 2 are written out: the loop's bits or its exception on
    # zero and tied pivots, and every pairing of the special parts
    specials = [complex(x, y) for x in _LU_PARTS for y in _LU_PARTS]
    for z in specials:
        assert _lu_outcome(linalg._det_lu_rows, [[z]]) == _lu_outcome(_loop_det_lu, [[z]])
    rng = random.Random(3133)

    def entry():
        if rng.random() < 0.5:
            return rng.choice(specials)
        return complex(rng.uniform(-2, 2), rng.choice((0.0, -0.0, rng.uniform(-2, 2))))

    seen = set()
    for case in range(30000):
        n = 1 + case % 2
        rows = [[entry() for _ in range(n)] for _ in range(n)]
        if n == 2 and case % 3 == 0:
            # |a10| = |a00|: the strict test keeps the first row
            rows[1][0] = rng.choice((1, -1, 1j, -1j)) * rows[0][0]
        want = _lu_outcome(_loop_det_lu, rows)
        assert _lu_outcome(linalg._det_lu_rows, rows) == want, rows
        seen.add(want[0] if isinstance(want[0], type) else "value")
    assert {"value", OverflowError} <= seen
    # larger orders keep the loop
    rows = [[entry() for _ in range(3)] for _ in range(3)]
    assert _lu_outcome(linalg._det_lu_rows, rows) == _lu_outcome(_loop_det_lu, rows)


def test_a_shape_past_the_bound_takes_the_loop(monkeypatch):
    # one past SMALL in any dimension: no kernel is built, and the loop's
    # value is the one a kernel for that shape gives
    monkeypatch.setattr(linalg, "_KERNELS", {})
    rng = random.Random(3133)
    entry = _kernel_entries(rng)["complex"]
    s = linalg.SMALL
    for n, k, m in ((s + 1, s, s), (s, s + 1, s), (s, s, s + 1)):
        a = Matrix(n, k, [entry() for _ in range(n * k)])
        b = Matrix(k, m, [entry() for _ in range(k * m)])
        got = a * b
        assert not linalg._KERNELS
        product = linalg._kernel(linalg._matrix_product, (n, k, m))
        assert _bits(got.data) == _bits(product(a.data, b.data)) == _bits(_loop_product(a, b))
        linalg._KERNELS.clear()
    for n, k in ((s + 1, s), (s, s + 1)):
        a = Matrix(n, k, [entry() for _ in range(n * k)])
        back = Matrix(k, n, [entry() for _ in range(k * n)])
        got = a.close(back)
        assert not linalg._KERNELS
        close = linalg._kernel(linalg._matrix_close, (n, k))
        assert _bits([got]) == _bits([close(a.data, back.data)]) == _bits([_loop_close(a, back)])
        linalg._KERNELS.clear()

    def ints(count, length):
        return [[rng.randint(-10 ** 12, 10 ** 12) for _ in range(length)] for _ in range(count)]

    for n, k, m in ((s + 1, 2 * s, 2 * s), (s, 2 * s + 1, 2 * s), (s, 2 * s, 2 * s + 1)):
        rows, cols = ints(n, k), ints(m, k)
        got = linalg.int_product(rows, cols), linalg.int_close(rows, cols, 3, 4)
        assert not linalg._KERNELS
        assert got == (linalg._kernel(linalg._int_product, (n, k, m))(rows, cols),
                       linalg._kernel(linalg._int_close, (n, k, m))(rows, cols, 3, 4))
        linalg._KERNELS.clear()
    for n, k in ((s + 1, 2 * s), (s, 2 * s + 1)):
        rows, other = ints(n, k), ints(n, k)
        got = linalg.int_sum(rows, other)
        assert not linalg._KERNELS
        assert got == linalg._kernel(linalg._int_sum, (n, k))(rows, other)
        linalg._KERNELS.clear()


def _exact_entry(rng, family):
    """A random exact scalar: an int, a Fraction or a GaussianRational for
    "mixed", the same with no imaginary parts for "real", an int for "int"."""
    if family == "int":
        return rng.randint(-4, 4)
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-4, 4)
    if kind == 1:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 6))
    re = Fraction(rng.randint(-4, 4), rng.randint(1, 6))
    im = 0 if family == "real" else Fraction(rng.randint(-3, 3), rng.randint(1, 6))
    return GaussianRational(re, im)


def _closed_sequences(rng, shapes, count):
    """count closed key sequences over factors of the given shapes, each
    one a walk from the rows of its first factor back to them; most extend
    a prefix of an earlier one."""
    by_rows = {}
    for key, (r, _) in shapes.items():
        by_rows.setdefault(r, []).append(key)
    seqs = []
    while len(seqs) < count:
        if seqs and rng.random() < 0.7:
            base = rng.choice(seqs)
            seq = list(base[:rng.randint(1, len(base))])
        else:
            seq = [rng.choice(sorted(shapes))]
        while len(seq) < 7 and (shapes[seq[-1]][1] != shapes[seq[0]][0]
                                or rng.random() < 0.6):
            seq.append(rng.choice(by_rows[shapes[seq[-1]][1]]))
        if shapes[seq[-1]][1] == shapes[seq[0]][0]:
            seqs.append(tuple(seq))
    return seqs


@pytest.mark.parametrize("family", ["mixed", "real", "int"])
def test_product_traces_exact_chains_match_left_to_right(family):
    # rectangular factors of every shape up to 3x3, two per shape, one of
    # them zero; sequences chain them and share prefixes
    rng = random.Random(f"exact-traces:{family}")
    for _ in range(6):
        shapes = {(r, c, j): (r, c) for r in (1, 2, 3) for c in (1, 2, 3) for j in (0, 1)}
        mats = {key: Matrix(r, c, [_exact_entry(rng, family) for _ in range(r * c)])
                for key, (r, c) in shapes.items()}
        mats[(2, 3, 1)] = Matrix(2, 3, [0] * 6)
        trace, pairs = product_traces(mats), product_traces(mats, pairs=True)
        for seq in _closed_sequences(rng, shapes, 60):
            want = _left_to_right_trace(mats, seq)
            got = trace(seq)
            assert got == want, seq
            assert type(got) is type(want), seq
            if len(seq) > 1:
                # the Gaussian integer over the product of the denominators
                re, im, d, kind = pairs(seq)
                assert d == math.prod(linalg.exact_form(mats[key]).d for key in seq)
                assert gaussian_scalar(re, im, d, kind) == want, seq


def test_product_traces_mixed_exact_and_complex_stay_bit_identical():
    rng = random.Random(43)
    mats = {
        "x": Matrix(2, 2, [Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(4)]),
        "y": Matrix(2, 2, [rng.randint(-5, 5) for _ in range(4)]),
        "z": Matrix(2, 2, [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]),
        # int zeros beside signed float zeros: leaving out an int 0 times a
        # float would change the sign of a zero sum
        "w": Matrix(2, 2, [0, complex(-0.0, -0.0), -0.0, 0]),
    }
    trace = product_traces(mats)
    for seq in [("x", "y"), ("x", "y", "z"), ("x", "z", "y"), ("z", "x", "y", "x"),
                ("x", "y", "x", "z"), ("y", "y", "z", "x"), ("w", "w"), ("w", "z"),
                ("z", "w", "w"), ("w", "x", "w", "z")]:
        want = _left_to_right_trace(mats, seq)
        got = trace(seq)
        assert type(got) is type(want)
        assert repr(got) == repr(want), seq
    assert type(trace(("x", "y"))) is Fraction


def _coefficient_types(x):
    return {e: type(c) for e, c in x.terms.items()} if isinstance(x, Poly) else None


def test_product_traces_mixed_exact_and_poly_keep_the_dense_types():
    # int and Fraction factors beside a Poly factor with GaussianRational
    # coefficients (and int entries): the Poly factor makes every product
    # a Matrix product, sequences through exact factors only included, so
    # each value, type and coefficient type is the dense product's
    rng = random.Random(59)
    syms = Symbols(("x", "y"))
    x, y = (Poly.variable(syms, n) for n in syms.names)
    mats = {
        "i": Matrix(2, 2, [rng.randint(-4, 4) for _ in range(4)]),
        "j": Matrix(2, 2, [3, 0, rng.randint(-4, 4), 1]),
        # a Fraction column and an int one
        "f": Matrix(2, 2, [Fraction(rng.randint(-4, 4), 3), rng.randint(-4, 4),
                           Fraction(rng.randint(-4, 4), 2), rng.randint(-4, 4)]),
        "p": Matrix(2, 2, [gauss_rat(rng) * x + gauss_rat(rng) * y, 0,
                           gauss_rat(rng) * x * y, -3]),
        "q": Matrix(2, 2, [0, gauss_rat(rng) * y, 2, -1]),
    }
    trace = product_traces(mats)
    seqs = [seq for n in range(1, 5) for seq in itertools.product(sorted(mats), repeat=n)]
    rng.shuffle(seqs)
    for seq in seqs:
        want = _left_to_right_trace(mats, seq)
        got = trace(seq)
        assert got == want, seq
        assert type(got) is type(want), seq
        assert _coefficient_types(got) == _coefficient_types(want), seq
    assert {type(trace(seq)) for seq in seqs} == {int, Fraction, Poly}


def test_poly_product_traces_match_dense_products_with_float_coefficients():
    # Poly factors with complex coefficients beside int zeros: leaving out
    # each int 0 times a Poly keeps every coefficient's bits and order
    rng = random.Random(67)
    syms = Symbols(("x", "y"))
    x, y = (Poly.variable(syms, n) for n in syms.names)

    def entry():
        if rng.random() < 0.4:
            return 0
        return complex(rng.gauss(0, 1), rng.gauss(0, 1)) * rng.choice((x, y, x * y))

    mats = {k: Matrix(2, 2, [entry() for _ in range(4)]) for k in "abc"}
    trace = product_traces(mats)
    seqs = [seq for n in range(1, 5) for seq in itertools.product("abc", repeat=n)]
    for seq in seqs:
        want = _left_to_right_trace(mats, seq)
        got = trace(seq)
        assert got == want, seq
        if isinstance(got, Poly) and isinstance(want, Poly):
            assert repr(got) == repr(want), seq


def _symbolic_laplacians():
    rng = random.Random(61)
    return [build_laplacian(*random_symbolic_instance(rng, total_rank_max=5))
            for _ in range(12)]


def _zero_times_poly(monkeypatch):
    """Record, for each Poly product from now on, whether its other factor
    is an int 0 and it still forms a Poly: a zero Poly, which adds nothing
    to a sum."""
    seen = []
    real = Poly.__mul__

    def counted(self, other):
        got = real(self, other)
        seen.append(type(other) is int and not other and isinstance(got, Poly))
        return got

    monkeypatch.setattr(Poly, "__mul__", counted)
    monkeypatch.setattr(Poly, "__rmul__", counted)
    return seen


def test_symbolic_routes_form_no_zero_times_poly(monkeypatch):
    # a symbolic Laplacian holds int 0 where no edge is; in the permutation
    # routes' products and traces each int 0 times a Poly is the int 0
    laps = _symbolic_laplacians()
    wants = [det_oracle(lap.matrix) for lap in laps]
    seen = _zero_times_poly(monkeypatch)
    for lap, want in zip(laps, wants):
        assert det_perm_traces(lap.matrix) == want
        assert det_block_perm(lap.block) == want
        assert det_trace_formal(lap.block) == want
    assert len(seen) > 1000 and not any(seen)


def test_cofactor_oracle_forms_no_zero_times_poly(monkeypatch):
    # the memoized cofactor expansion skips an entry whose minor came out 0
    laps = _symbolic_laplacians()
    wants = [det_perm_traces(lap.matrix) for lap in laps]
    seen = _zero_times_poly(monkeypatch)
    for lap, want in zip(laps, wants):
        assert det_oracle(lap.matrix) == want
    assert len(seen) > 50 and not any(seen)


def test_cycle_and_euler_routes_form_no_zero_times_poly(monkeypatch):
    # a zero G_v times a Poly power of z in the visit sum, a Poly G_v times
    # a sink's int 0 power, and the finite Euler product's int 0 sink
    # factors times the Poly ones are each the int 0
    laps = _symbolic_laplacians()
    wants = [det_oracle(lap.matrix) for lap in laps]
    charpolys = [charpoly_oracle(lap.matrix) for lap in laps]
    seen = _zero_times_poly(monkeypatch)
    finite = 0
    for lap, want, charpoly in zip(laps, wants, charpolys):
        assert det_laplacian_cycles(lap) == want
        got = charpoly_laplacian(lap, ("t",) * lap.quiver.p).coefficients("t", len(charpoly) - 1)
        assert all(a == b for a, b in zip(got, charpoly))
        try:
            assert det_euler_finite(lap) == want
            finite += 1
        except MethodRefusal:
            pass
    assert finite >= 6 and len(seen) > 500 and not any(seen)


def test_det_perm_traces_takes_no_dense_product_when_exact(monkeypatch):
    rng = random.Random(47)
    m = Matrix(5, 5, [gauss_rat(rng) for _ in range(25)])
    want = det_oracle(m)

    def no_dense_product(self, other):
        raise AssertionError("exact powers fell back to Matrix.__mul__")

    monkeypatch.setattr(Matrix, "__mul__", no_dense_product)
    assert det_perm_traces(m) == want


def test_float_factor_sets_take_no_exact_conversion(monkeypatch):
    # a float Laplacian's zero blocks hold int 0 beside float blocks: the
    # factor set is not exact as a whole, so no factor becomes a
    # GaussianMatrix
    rng = random.Random(53)
    laps = []
    for _ in range(12):
        q, rep, w = random_exact_instance(rng, p_max=3, rank_max=2, edge_max=5,
                                          total_rank_max=5, vf_cost_max=20000)
        repf = Representation(rep.ranks, {k: m.to_complex() for k, m in rep.matrices.items()})
        laps.append(build_laplacian(q, repf, {k: complex(to_complex(v)) for k, v in w.items()}))
    wants = [det_oracle(lap.matrix) for lap in laps]

    def no_conversion(*_):
        raise AssertionError("a float factor set was converted to exact form")

    monkeypatch.setattr(linalg, "exact_form", no_conversion)
    monkeypatch.setattr(linalg, "gaussian_ints", no_conversion)
    for lap, want in zip(laps, wants):
        assert scalars_close(det_block_perm(lap.block), want, rel=1e-9)
        assert scalars_close(det_vector_fields(lap), want, rel=1e-9)


def test_symbolic_routes_take_no_fraction_arithmetic(monkeypatch):
    # a 4x4 Laplacian with rational edge maps and one symbol per edge: its
    # Poly entries multiply and add as int numerators over one denominator
    rng = random.Random(53)
    q = random_quiver(rng, 2, 3)
    mats = {
        e.id: Matrix(2, 2, [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                            for _ in range(4)])
        for e in q.edges
    }
    syms = Symbols(tuple(e.id for e in q.edges))
    weights = {e.id: Poly.variable(syms, e.id) for e in q.edges}
    lap = build_laplacian(q, Representation((2, 2), mats), weights)
    want = det_oracle(lap.matrix)
    assert any(type(c) is Fraction for c in want.terms.values())

    def no_fraction_arithmetic(self, other):
        raise AssertionError("a Poly coefficient took Fraction arithmetic")

    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Fraction, name, no_fraction_arithmetic)
    assert det_perm_traces(lap.matrix) == want
    assert det_oracle(lap.matrix) == want


def test_block_matrix_partition_checks():
    with pytest.raises(HolodetError):
        BlockMatrix(Matrix.identity(3), (2, 2))
    bm = BlockMatrix(Matrix.identity(3), (2, 1))
    assert [bm.bl(i) for i in range(3)] == [0, 0, 1]
    assert bm.block(0, 0) == Matrix.identity(2)


def test_inv_exact_roundtrip():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(1, 3)
        while True:
            m = Matrix(n, n, [gauss_rat(rng) for _ in range(n * n)])
            if det_oracle(m) != 0:
                break
        prod = m * m.inv_exact()
        assert prod == Matrix.identity(n).map(lambda x: GaussianRational(x))
