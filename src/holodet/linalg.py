"""Dense matrices over any scalar ring, and the determinant /
characteristic-polynomial routines that serve as independent ground truth
for every identity in the package.

Dispatch: LU with partial pivoting for floats, fraction-free Bareiss
elimination for exact scalars, and memoized cofactor expansion for
polynomial entries (capped at size 8).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import add, mul

from .errors import HolodetError, MethodRefusal
from .ring import GaussianRational, Poly, gaussian_ints, gaussian_scalar, int_div

POLY_DET_CAP = 8


class Matrix:
    """Immutable row-major dense matrix."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        data = tuple(data)
        if len(data) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(data)}")
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        if not rows:
            raise ValueError("empty matrix")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, [x for r in rows for x in r])

    @classmethod
    def identity(cls, n):
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, [0] * (rows * cols))

    def at(self, i, j):
        return self.data[i * self.cols + j]

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i * self.cols + j]

    def to_rows(self):
        c = self.cols
        return [list(self.data[i * c : (i + 1) * c]) for i in range(self.rows)]

    @property
    def is_square(self):
        return self.rows == self.cols

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols, [a + b for a, b in zip(self.data, other.data)])

    def __sub__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols, [a - b for a, b in zip(self.data, other.data)])

    def __neg__(self):
        return Matrix(self.rows, self.cols, [-a for a in self.data])

    def scale(self, s):
        return Matrix(self.rows, self.cols, [s * a for a in self.data])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        n, m, k = self.rows, other.cols, self.cols
        out = []
        for i in range(n):
            base = i * k
            for j in range(m):
                acc = 0
                for t in range(k):
                    acc = acc + self.data[base + t] * other.data[t * m + j]
                out.append(acc)
        return Matrix(n, m, out)

    def trace(self):
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        acc = 0
        for i in range(self.rows):
            acc = acc + self.at(i, i)
        return acc

    def conj_transpose(self):
        def conj(x):
            if isinstance(x, GaussianRational):
                return x.conjugate()
            if isinstance(x, complex):
                return x.conjugate()
            return x
        return Matrix(
            self.cols, self.rows,
            [conj(self.at(i, j)) for j in range(self.cols) for i in range(self.rows)],
        )

    def to_complex(self):
        from .ring import to_complex
        return Matrix(self.rows, self.cols, [to_complex(x) for x in self.data])

    def map(self, fn):
        return Matrix(self.rows, self.cols, [fn(x) for x in self.data])

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and all(a == b for a, b in zip(self.data, other.data))
        )

    __hash__ = None

    def __repr__(self):
        return f"Matrix({self.to_rows()!r})"

    def inv_exact(self):
        """Inverse over an exact field, by adjugate over determinant."""
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        d = det_oracle(self)
        if d == 0:
            raise HolodetError("matrix is singular")
        rows = self.to_rows()
        out = Matrix.zeros(n, n).to_rows()
        for i in range(n):
            for j in range(n):
                minor = [
                    [rows[r][c] for c in range(n) if c != j]
                    for r in range(n) if r != i
                ]
                cof = det_oracle(Matrix.from_rows(minor)) if n > 1 else 1
                if (i + j) % 2:
                    cof = -cof
                out[j][i] = _field_div(cof, d)
        return Matrix.from_rows(out)


def _field_div(a, b):
    if isinstance(b, GaussianRational) or isinstance(a, GaussianRational):
        a = a if isinstance(a, GaussianRational) else GaussianRational(a)
        return a / b
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


def _classify(entries):
    has_poly = any(isinstance(x, Poly) for x in entries)
    has_float = any(isinstance(x, (float, complex)) for x in entries)
    if has_poly:
        return "poly"
    if has_float:
        return "float"
    return "exact"


def det_oracle(m):
    """Determinant of a square matrix, by a method fit for its scalars."""
    if not m.is_square:
        raise HolodetError("determinant of a non-square matrix")
    kind = _classify(m.data)
    if kind == "poly":
        if m.rows > POLY_DET_CAP:
            raise MethodRefusal(
                f"polynomial determinant capped at n<={POLY_DET_CAP}, got {m.rows}"
            )
        return _det_cofactor(m)
    if kind == "float":
        return _det_lu(m)
    return _det_bareiss(m)


def _det_lu(m):
    n = m.rows
    a = [[complex(x) for x in row] for row in m.to_rows()]
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


def _det_bareiss(m):
    n = m.rows
    if any(isinstance(x, GaussianRational) for x in m.data):
        a = [[x if isinstance(x, GaussianRational) else GaussianRational(x) for x in row]
             for row in m.to_rows()]
        zero = GaussianRational(0)
    else:
        a = [[Fraction(x) for x in row] for row in m.to_rows()]
        zero = Fraction(0)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == zero:
            for i in range(k + 1, n):
                if a[i][k] != zero:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return zero
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = pivot * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = num / prev if prev != 1 else num
        prev = pivot
    d = a[n - 1][n - 1]
    return -d if sign < 0 else d


def _det_cofactor(m):
    n = m.rows
    cols = list(range(n))
    memo = {}

    def rec(row, mask):
        if row == n:
            return 1
        key = mask
        if key in memo:
            return memo[key]
        acc = 0
        sign = 1
        for j in cols:
            bit = 1 << j
            if not (mask & bit):
                continue
            x = m.at(row, j)
            if not (x == 0):
                acc = acc + (x * rec(row + 1, mask & ~bit) if sign > 0
                             else -(x * rec(row + 1, mask & ~bit)))
            sign = -sign
        memo[key] = acc
        return acc

    return rec(0, (1 << n) - 1)


def charpoly_oracle(m):
    """Coefficients of det(tI + M), ascending in t, by the
    Faddeev-LeVerrier recursion (exact division by integers only)."""
    if not m.is_square:
        raise HolodetError("characteristic polynomial of a non-square matrix")
    n = m.rows
    a = -m
    ident = Matrix.identity(n)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    mk = Matrix.zeros(n, n)
    for k in range(1, n + 1):
        mk = a * mk + ident.scale(coeffs[n - k + 1])
        coeffs[n - k] = int_div(-( (a * mk).trace() ), k)
    return coeffs


class BlockMatrix:
    """A square matrix together with a partition of its index range."""

    __slots__ = ("base", "part", "offsets", "_blocks", "_bl")

    def __init__(self, base, part):
        if not base.is_square:
            raise HolodetError("block matrix must be square")
        part = tuple(part)
        if any(p < 1 for p in part):
            raise HolodetError("block sizes must be positive")
        if sum(part) != base.rows:
            raise HolodetError(
                f"partition {part} does not sum to matrix size {base.rows}"
            )
        self.base = base
        self.part = part
        offsets = [0]
        for p in part:
            offsets.append(offsets[-1] + p)
        self.offsets = tuple(offsets)
        self._blocks = {}
        bl = []
        for a, p in enumerate(part):
            bl.extend([a] * p)
        self._bl = tuple(bl)

    @property
    def n(self):
        return self.base.rows

    @property
    def p(self):
        return len(self.part)

    def bl(self, i):
        return self._bl[i]

    def block(self, a, b):
        key = (a, b)
        got = self._blocks.get(key)
        if got is None:
            r0, r1 = self.offsets[a], self.offsets[a + 1]
            c0, c1 = self.offsets[b], self.offsets[b + 1]
            got = Matrix(
                r1 - r0, c1 - c0,
                [self.base.at(i, j) for i in range(r0, r1) for j in range(c0, c1)],
            )
            self._blocks[key] = got
        return got

    def is_zero_block(self, a, b):
        return all(x == 0 for x in self.block(a, b).data)


# A matrix (A + iB)/d over Gaussian integers, in the form product_traces
# multiplies.  complex tells whether B is nonzero.  rows are A's rows, or
# [A | B] when B is nonzero.  cols[c] are the columns that multiply rows of
# that form from the right, c telling whether those rows are complex: A's
# columns then B's (none when B is zero) for real rows X, giving [XA | XB];
# (A; -B) then (B; A) for complex rows [X | Y], giving
# [XA - YB | XB + YA].  Either way the product's rows come out in the
# same form.  kind is ring.gaussian_ints' kind.
_Exact = namedtuple("_Exact", "d kind complex rows cols shape")


def _exact_form(m):
    """m as an _Exact, or None when an entry is not exact.  A matrix with no
    rows or columns stays on the Matrix path, whose empty sums are int 0
    whatever the entry type."""
    got = gaussian_ints(m.data) if m.rows and m.cols else None
    if got is None:
        return None
    d, re, im, kind = got
    c = m.cols
    row_starts, col_starts = range(0, len(re), c), range(c)
    if im is None:
        zero = [0] * m.rows
        re_cols = [re[j::c] for j in col_starts]
        rows = [re[i:i + c] for i in row_starts]
        cols = (re_cols, [x + zero for x in re_cols] + [zero + x for x in re_cols])
    else:
        neg = [-x for x in im]
        rows = [re[i:i + c] + im[i:i + c] for i in row_starts]
        cols = ([re[j::c] for j in col_starts] + [im[j::c] for j in col_starts],
                [re[j::c] + neg[j::c] for j in col_starts]
                + [im[j::c] + re[j::c] for j in col_starts])
    return _Exact(d, kind, im is not None, rows, cols, (m.rows, c))


def _int_product(rows, cols):
    """The rows of rows x cols, for rows and columns in _Exact's form."""
    return [[sum(map(mul, row, col)) for col in cols] for row in rows]


def _int_trace(rows, cols):
    """(real, imaginary) int parts of Tr(rows x cols), for rows and columns
    in _Exact's form: row i times column i of the real part, then of the
    imaginary part (none when both sides are real)."""
    n = len(rows)
    flat = list(chain.from_iterable(rows))
    return (sum(map(mul, flat, chain.from_iterable(cols[:n]))),
            sum(map(mul, flat, chain.from_iterable(cols[n:]))))


def _dense_trace(head, last):
    """Tr(head x last) without forming the product, each diagonal entry
    summed in Matrix.__mul__'s order and the entries in trace()'s, so it
    equals (head * last).trace() exactly, floats included."""
    n, k = head.rows, head.cols
    if k != last.rows or n != last.cols:
        raise ValueError(f"{n}x{k} times {last.rows}x{last.cols} has no trace")
    a, b = head.data, last.data
    got = 0
    for i in range(n):
        acc = 0
        for t in range(k):
            acc = acc + a[i * k + t] * b[t * n + i]
        got = got + acc
    return got


def product_traces(factor):
    """trace(seq): the trace of factor(seq[0]) * ... * factor(seq[-1]) for
    a closed key sequence, multiplied left to right.

    Every proper-prefix product is kept, keyed by its prefix, so sequences
    that share a prefix share its products; every trace is kept by its
    sequence.  The last factor is never multiplied in: the trace is the sum
    over i of row i of the prefix times column i of the last factor.

    Each key's factor is classified once, when first fetched: exact when
    every entry is an int, a Fraction or a GaussianRational.  A sequence of
    exact factors is multiplied as Gaussian-integer matrices over one
    denominator (ring.gaussian_ints), and only its trace becomes a scalar
    again: a GaussianRational if a factor holds one, else a Fraction if a
    factor holds one, else an int, as the dense product gives.  Any other
    sequence (a float or Poly entry in some factor) is multiplied as Matrix
    products, each diagonal entry of prefix x last summed in
    Matrix.__mul__'s order and the entries in trace()'s, so its value
    equals the full product's trace() exactly, floats included."""
    exact = {}
    prods = {}
    exact_prods = {}
    traces = {}

    def exact_factor(key):
        """key's factor as an _Exact, or None when it is not exact;
        classified once, when first fetched."""
        got = exact.get(key, exact)
        if got is exact:
            got = exact[key] = _exact_form(factor(key))
        return got

    def prefix(head):
        got = prods.get(head)
        if got is None:
            got = factor(head[-1])
            if len(head) > 1:
                got = prefix(head[:-1]) * got
            prods[head] = got
        return got

    def exact_prefix(head):
        """(d, kind, complex, rows, column count) of head's product, its rows
        in _Exact's form, or None when a factor in head is not exact."""
        if head in exact_prods:
            return exact_prods[head]
        f = exact_factor(head[-1])
        got = None
        if f is not None and len(head) == 1:
            got = f.d, f.kind, f.complex, f.rows, f.shape[1]
        elif f is not None:
            pre = exact_prefix(head[:-1])
            if pre is not None:
                d, kind, cplx, rows, k = pre
                if k != f.shape[0]:
                    raise ValueError(
                        f"cannot multiply {len(rows)}x{k} by {f.shape[0]}x{f.shape[1]}"
                    )
                got = (d * f.d, max(kind, f.kind), cplx or f.complex,
                       _int_product(rows, f.cols[cplx]), f.shape[1])
        exact_prods[head] = got
        return got

    def trace(seq):
        got = traces.get(seq)
        if got is None:
            if len(seq) == 1:
                got = factor(seq[0]).trace()
            elif ((last := exact_factor(seq[-1])) is not None
                  and (pre := exact_prefix(seq[:-1])) is not None):
                d, kind, cplx, rows, k = pre
                n = len(rows)
                if (k, n) != last.shape:
                    raise ValueError(
                        f"{n}x{k} times {last.shape[0]}x{last.shape[1]} has no trace"
                    )
                a, b = _int_trace(rows, last.cols[cplx])
                got = gaussian_scalar(a, b, d * last.d, max(kind, last.kind))
            else:
                got = _dense_trace(prefix(seq[:-1]), factor(seq[-1]))
            traces[seq] = got
        return got

    return trace


# Sums of products of keyed factors, for a transfer over walks: first(key)
# the factor of key; step(m, key) the product m x factor; plus(m, m2) the
# sum; close(m, key) Tr(m x factor), without forming that product, in a
# form that total(closes) sums.  d is None for Matrix values, whose totals
# are scalars; otherwise every factor is exact and a total of closes of k
# factors is the int pair (re, im) of a Gaussian integer over d^k, whose
# scalar has ring.gaussian_ints' kind.
WalkAlgebra = namedtuple("WalkAlgebra", "first step plus close total d kind")


def walk_algebra(factors):
    """The WalkAlgebra of the Matrix values of factors (a dict).  When
    every entry is exact, factors are scaled to one common denominator d
    and a product of k factors is a Gaussian-integer matrix over d^k in
    _Exact's row form (complex when some factor is), so sums and products
    are int arithmetic; its kind is at least 1, as an int sum divided by a
    count is a Fraction.  Otherwise (a float or Poly entry) the values are
    Matrix sums and products, each trace summed in the order of
    Matrix.__mul__ then trace()."""
    forms = {key: _exact_form(m) for key, m in factors.items()}
    if None in forms.values():
        return WalkAlgebra(factors.__getitem__, lambda m, key: m * factors[key], add,
                           lambda m, key: _dense_trace(m, factors[key]), sum, None, None)
    d = lcm(*(f.d for f in forms.values()))
    kind = max([1] + [f.kind for f in forms.values()])
    cplx = any(f.complex for f in forms.values())
    rows, cols = {}, {}
    for key, f in forms.items():
        s = d // f.d
        # a real factor's rows gain a zero imaginary half when some factor
        # is complex
        pad = cplx and not f.complex
        rows[key] = [[s * x for x in (r + [0] * len(r) if pad else r)] for r in f.rows]
        cols[key] = [[s * x for x in col] for col in f.cols[cplx]]

    def plus(m, m2):
        return [list(map(add, r, r2)) for r, r2 in zip(m, m2)]

    def total(closes):
        return sum(a for a, _ in closes), sum(b for _, b in closes)

    return WalkAlgebra(rows.__getitem__, lambda m, key: _int_product(m, cols[key]),
                       plus, lambda m, key: _int_trace(m, cols[key]), total, d, kind)


def block_walk_traces(bm):
    """trace(seq): the trace of the block product along a closed sequence
    of block indices, (s0, s1) (s1, s2) ... (s_last, s0); base-point free."""
    trace = product_traces(lambda ab: bm.block(*ab))
    return lambda seq: trace(tuple(zip(seq, seq[1:] + seq[:1])))
