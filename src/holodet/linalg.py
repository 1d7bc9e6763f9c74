"""Dense matrices over any scalar ring, and the determinant /
characteristic-polynomial routines that serve as independent ground truth
for every identity in the package.

Dispatch: LU with partial pivoting for floats, fraction-free Bareiss
elimination for exact scalars, and memoized cofactor expansion for
polynomial entries (capped at size 8).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain
from math import lcm
from operator import add, mul

from .errors import HolodetError, MethodRefusal
from .ring import EXACT_TYPES, GaussianRational, Poly, gaussian_ints, gaussian_scalar, int_div

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
        # entry first: a GaussianRational entry's own product takes a
        # Fraction s at once, where Fraction's would first decline it
        return Matrix(self.rows, self.cols, [a * s for a in self.data])

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

    def close(self, last):
        """Tr(self x last) without forming the product, each diagonal
        entry summed in __mul__'s order and the entries in trace()'s, so it
        equals (self * last).trace() exactly, floats included."""
        n, k = self.rows, self.cols
        if k != last.rows or n != last.cols:
            raise ValueError(f"{n}x{k} times {last.rows}x{last.cols} has no trace")
        a, b = self.data, last.data
        got = 0
        for i in range(n):
            acc = 0
            for t in range(k):
                acc = acc + a[i * k + t] * b[t * n + i]
            got = got + acc
        return got

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


def block_offsets(part):
    """Where each block of the partition part starts, then its total:
    (0, part[0], part[0] + part[1], ..., sum(part))."""
    return tuple(accumulate(part, initial=0))


class BlockMatrix:
    """A square matrix together with a partition of its index range."""

    __slots__ = ("base", "part", "offsets", "slots", "_blocks")

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
        self.offsets = block_offsets(part)
        # the block of each index
        self.slots = tuple(a for a, p in enumerate(part) for _ in range(p))
        self._blocks = {}

    @property
    def n(self):
        return self.base.rows

    @property
    def p(self):
        return len(self.part)

    def bl(self, i):
        return self.slots[i]

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

    def blocks(self):
        """{(a, b): block(a, b)} over every pair of blocks."""
        p = self.p
        return {(a, b): self.block(a, b) for a in range(p) for b in range(p)}

    def is_zero_block(self, a, b):
        return not any(self.block(a, b).data)


class GaussianMatrix:
    """A matrix (A + iB)/d of exact scalars, A and B integer matrices and
    d > 0: the exact case beside Matrix, multiplied in int arithmetic.

    rows are A's rows, or [A | B] when complex.  A factor, as exact_form
    makes it, also holds cols: cols[c] are the columns that multiply rows
    of form c from the right, c telling whether those rows are complex:
    A's columns then B's (none when B is zero) for real rows X, giving
    [XA | XB]; (A; -B) then (B; A) for complex rows [X | Y], giving
    [XA - YB | XB + YA].  Either way the product's rows come out in the
    same form.  A product or a sum holds no cols, so it stands only on the
    left.  kind is ring.gaussian_ints' kind of the entries, and so of any
    sum of products of them: the widest type among them.  Values are made
    without __init__, its call being a measurable share of a product of
    small matrices, and the transfer over walks makes one per step."""

    __slots__ = ("rows", "cols", "d", "kind", "complex")

    def __mul__(self, other):
        """self x other, for a factor other."""
        rows, cols = self.rows, other.cols[self.complex]
        # a column for self's rows is as long as a row when the shapes chain
        if len(cols[0]) != len(rows[0]):
            raise ValueError(f"cannot multiply {self._shape()} by {other._shape()}")
        got = _new(GaussianMatrix)
        # a loop over rows: on Python 3.11 an outer comprehension is one
        # more function call per product
        got.rows = out = []
        for row in rows:
            out.append([sum(map(mul, row, col)) for col in cols])
        got.cols = None
        got.d = self.d * other.d
        got.kind = self.kind if self.kind >= other.kind else other.kind
        got.complex = self.complex or other.complex
        return got

    def __add__(self, other):
        """self + other, for other over the same denominator and with rows
        of the same form."""
        if self.d != other.d or self.complex != other.complex:
            raise ValueError("sum of Gaussian matrices in different forms")
        return _gaussian([list(map(add, r, r2)) for r, r2 in zip(self.rows, other.rows)],
                         self.d, self.kind if self.kind >= other.kind else other.kind,
                         self.complex)

    def _shape(self):
        return f"{len(self.rows)}x{len(self.rows[0]) >> self.complex}"

    def close(self, last):
        """Tr(self x last), for a factor last, without forming the
        product: the int parts (re, im) of a Gaussian integer over
        self.d * last.d, which ring.gaussian_scalar makes a canonical
        scalar of kind max(self.kind, last.kind).  Row i times column i of
        the real part, then of the imaginary part (none when both sides are
        real)."""
        rows, cols = self.rows, last.cols[self.complex]
        n = len(rows)
        if len(cols[0]) != len(rows[0]) or len(last.rows[0]) >> last.complex != n:
            raise ValueError(f"{self._shape()} times {last._shape()} has no trace")
        flat = list(chain.from_iterable(rows))
        return (sum(map(mul, flat, chain.from_iterable(cols[:n]))),
                sum(map(mul, flat, chain.from_iterable(cols[n:]))))


_new = object.__new__


def _gaussian(rows, d, kind, complex, cols=None):
    got = _new(GaussianMatrix)
    got.rows, got.cols, got.d, got.kind, got.complex = rows, cols, d, kind, complex
    return got


def _gaussian_factor(n, c, d, re, im, kind):
    """The GaussianMatrix factor (re + i im)/d of an n x c matrix, re and
    im its row-major int entries, im None when it is real."""
    starts = range(0, n * c, c)
    re_cols = [re[j::c] for j in range(c)]
    if im is None:
        zero = [0] * n
        return _gaussian([re[i:i + c] for i in starts], d, kind, False, (
            re_cols, [x + zero for x in re_cols] + [zero + x for x in re_cols]))
    im_cols = [im[j::c] for j in range(c)]
    return _gaussian([re[i:i + c] + im[i:i + c] for i in starts], d, kind, True, (
        re_cols + im_cols,
        [a + [-x for x in b] for a, b in zip(re_cols, im_cols)]
        + [b + a for a, b in zip(re_cols, im_cols)]))


def exact_factors(matrices):
    """Whether every matrix has rows and columns and only exact entries
    (ring.EXACT_TYPES): the one test of whether a factor set is multiplied
    as GaussianMatrix factors.  A matrix with no rows or columns counts as
    not exact, as a Matrix's empty sums are int 0 whatever the entry type."""
    return (all(m.rows and m.cols for m in matrices)
            and set(map(type, chain.from_iterable(m.data for m in matrices))) <= EXACT_TYPES)


def exact_form(m):
    """m, a matrix exact_factors admits, as a GaussianMatrix factor."""
    return _gaussian_factor(m.rows, m.cols, *gaussian_ints(m.data))


def exact_forms(factors):
    """The values of factors (a dict of Matrix values) as GaussianMatrix
    factors over one common denominator, all complex when one is, so that
    products along walks of one length add; factors itself when
    exact_factors does not admit its values."""
    if not exact_factors(factors.values()):
        return factors
    parts = {key: gaussian_ints(m.data) for key, m in factors.items()}
    d = lcm(*(fd for fd, _, _, _ in parts.values()))
    cplx = any(im is not None for _, _, im, _ in parts.values())
    forms = {}
    for key, (fd, re, im, kind) in parts.items():
        s = d // fd
        if cplx and im is None:
            im = [0] * len(re)
        forms[key] = _gaussian_factor(factors[key].rows, factors[key].cols, d,
                                      [s * x for x in re], im and [s * x for x in im], kind)
    return forms


def product_traces(factors):
    """trace(seq): the trace of factors[seq[0]] * ... * factors[seq[-1]]
    for a closed key sequence over the dict factors of Matrix values,
    multiplied left to right.

    Every proper-prefix product is kept, keyed by its prefix, so sequences
    that share a prefix share its products; every trace is kept by its
    sequence.  The last factor is never multiplied in: the trace closes
    the prefix with it (close).

    One decision covers every factor.  When exact_factors admits them,
    each key's factor is kept, once a product first needs it, as its
    GaussianMatrix (exact_form, over its own denominator), and only traces
    become scalars again: a GaussianRational if a factor holds one, else a
    Fraction if a factor holds one, else an int, as the dense product
    gives.  Otherwise every product is a Matrix product, each diagonal
    entry of prefix x last summed in Matrix.__mul__'s order and the
    entries in trace()'s, so its value equals the full product's trace()
    exactly, floats included."""
    exact = exact_factors(factors.values())
    prods = {}
    traces = {}
    if exact:
        forms = {}

        def form(key):
            got = forms.get(key)
            if got is None:
                got = forms[key] = exact_form(factors[key])
            return got
    else:
        form = factors.__getitem__

    def prefix(head):
        got = prods.get(head)
        if got is None:
            got = form(head[-1])
            if len(head) > 1:
                got = prefix(head[:-1]) * got
            prods[head] = got
        return got

    def trace(seq):
        got = traces.get(seq)
        if got is None:
            if len(seq) == 1:
                got = factors[seq[0]].trace()
            else:
                pre, last = prefix(seq[:-1]), form(seq[-1])
                got = pre.close(last)
                if exact:
                    got = gaussian_scalar(*got, pre.d * last.d, max(pre.kind, last.kind))
            traces[seq] = got
        return got

    return trace


def block_walk_traces(bm):
    """trace(seq): the trace of the block product along a closed sequence
    of block indices, (s0, s1) (s1, s2) ... (s_last, s0); base-point free."""
    trace = product_traces(bm.blocks())
    return lambda seq: trace(tuple(zip(seq, seq[1:] + seq[:1])))
