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
# the largest blocks that products and closes run as generated kernels:
# SMALL rows, columns and inner length, and twice that for the row length
# and column count of linalg's int forms, as their complex [A | B] doubles
# both; a kernel's first use builds it (a 6x12x12 one took 6 ms), so
# larger shapes, such as perm's n x n powers, keep their loops
SMALL = 3

# the straight-line function of each (source, shape) used so far
_KERNELS = {}


def _kernel(source, shape):
    """The function source(*shape) writes out, built on first use.  Its
    entries are written in the order of the loop it replaces, so every
    scalar type, floats and their signed zeros included, gives the same
    value bit for bit."""
    key = source, shape
    got = _KERNELS.get(key)
    if got is None:
        params, result = source(*shape)
        lines = [f"def kernel({', '.join(name for name, _ in params)}):"]
        lines += [f"    {_target(names)} = {name}" for name, names in params if names is not None]
        lines.append(f"    return {result}")
        scope = {}
        exec("\n".join(lines), scope)
        got = _KERNELS[key] = scope["kernel"]
    return got


def _target(names):
    """A nested list of names as an assignment target that unpacks it."""
    return names if isinstance(names, str) else f"[{', '.join(map(_target, names))}]"


def _names(prefix, *shape):
    """prefix{i}, or prefix{i}_{j} for a two-part shape, as nested lists."""
    if len(shape) == 1:
        return [f"{prefix}{i}" for i in range(shape[0])]
    return [[f"{prefix}{i}_{j}" for j in range(shape[1])] for i in range(shape[0])]


def _sum(start, terms):
    # left to right, from start, as acc = acc + term adds them
    return " + ".join([start, *terms])


def _matrix_product(n, k, m):
    """Matrix.__mul__ on row-major entries a (n x k) and b (k x m)."""
    a, b = _names("a", n * k), _names("b", k * m)
    entries = (_sum("0", [f"{a[i * k + t]} * {b[t * m + j]}" for t in range(k)])
               for i in range(n) for j in range(m))
    return (("a", a), ("b", b)), f"({', '.join(entries)},)" if n * m else "()"


def _matrix_close(n, k):
    """Matrix.close on row-major entries a (n x k) and b (k x n)."""
    a, b = _names("a", n * k), _names("b", k * n)
    diagonal = (_sum("0", [f"{a[i * k + t]} * {b[t * n + i]}" for t in range(k)])
                for i in range(n))
    return (("a", a), ("b", b)), _sum("0", (f"({x})" for x in diagonal))


def _int_product(n, k, m):
    """int_product on n int rows and m int columns, each of length k."""
    rows, cols = _names("r", n, k), _names("c", m, k)
    entries = [[" + ".join(map("{} * {}".format, row, col)) or "0" for col in cols]
               for row in rows]
    return (("rows", rows), ("cols", cols)), _target(entries)


def _int_close(n, k, m):
    """int_close on n int rows of length k and m int columns: row i times
    column i for re, and times column n + i, when there is one, for im."""
    rows, cols = _names("r", n, k), _names("c", m, k)
    dots = lambda part: [f"{x} * {y}" for row, col in zip(rows, part) for x, y in zip(row, col)]
    return ((("rows", rows), ("cols", cols), ("re", None), ("im", None)),
            f"({_sum('re', dots(cols[:n]))}, {_sum('im', dots(cols[n:]))})")


def _int_sum(n, k):
    """int_sum on two lists of n int rows of length k."""
    a, b = _names("a", n, k), _names("b", n, k)
    return (("a", a), ("b", b)), _target([[f"{x} + {y}" for x, y in zip(r, s)]
                                          for r, s in zip(a, b)])


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
        if n <= SMALL and m <= SMALL and k <= SMALL:
            return _matrix(n, m, _kernel(_matrix_product, (n, k, m))(self.data, other.data))
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
        if n <= SMALL and k <= SMALL:
            return _kernel(_matrix_close, (n, k))(a, b)
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


def _matrix(rows, cols, data):
    # a kernel's tuple of entries, made a Matrix without __init__, whose
    # call is a measurable share of a product of small matrices
    got = object.__new__(Matrix)
    got.rows, got.cols, got.data = rows, cols, data
    return got


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
    return _det_lu_rows([[complex(x) for x in row] for row in m.to_rows()])


def _det_lu_rows(a):
    """Determinant of the square matrix of complex row lists a, by LU with
    partial pivoting; the caller's rows may be overwritten.  Orders 1 and
    2 are written out: the loop's operations in the loop's order, so the
    same bits and exceptions, less the last pivot's unread inverse, which
    cannot raise once its absolute value is not 0."""
    n = len(a)
    if n == 1:
        (a00,), = a
        if abs(a00) == 0.0:
            return 0.0 + 0.0j
        return (1.0 + 0.0j) * a00
    if n == 2:
        (a00, a01), (a10, a11) = a
        det = 1.0 + 0.0j
        pmax = abs(a00)
        p10 = abs(a10)
        swap = p10 > pmax
        if swap:
            pmax = p10
        if pmax == 0.0:
            return 0.0 + 0.0j
        if swap:
            a00, a01, a10, a11 = a10, a11, a00, a01
            det = -det
        det *= a00
        f = a10 * (1.0 / a00)
        if f != 0:
            a11 -= f * a01
        if abs(a11) == 0.0:
            return 0.0 + 0.0j
        return det * a11
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
                # a zero minor adds nothing, so x never multiplies it
                minor = rec(row + 1, mask & ~bit)
                if minor:
                    acc = acc + (x * minor if sign > 0 else -(x * minor))
            sign = -sign
        memo[key] = acc
        return acc

    return rec(0, (1 << n) - 1)


def charpoly_oracle(m):
    """Coefficients of det(tI + M), ascending in t, by the
    Faddeev-LeVerrier recursion (exact division by integers only); each
    step's A M_k, formed for its trace, starts the next step."""
    if not m.is_square:
        raise HolodetError("characteristic polynomial of a non-square matrix")
    n = m.rows
    a = -m
    ident = Matrix.identity(n)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    # formed, not assumed zero, for the signed zeros of its float entries
    amk = a * Matrix.zeros(n, n)
    for k in range(1, n + 1):
        amk = a * (amk + ident.scale(coeffs[n - k + 1]))
        coeffs[n - k] = int_div(-amk.trace(), k)
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


def int_product(rows, cols):
    """The int rows of rows x cols: each row of rows times each column of
    cols, all int lists of one length."""
    n, k, m = len(rows), len(rows[0]), len(cols)
    if n <= SMALL and k <= 2 * SMALL and m <= 2 * SMALL:
        return _kernel(_int_product, (n, k, m))(rows, cols)
    # a loop over rows: on Python 3.11 an outer comprehension is one more
    # function call per product
    out = []
    for row in rows:
        out.append([sum(map(mul, row, col)) for col in cols])
    return out


def int_close(rows, cols, re=0, im=0):
    """(re, im) plus the int parts of Tr(rows x cols), not forming it: row i
    of the n rows times column i, then n + i (none when both are real)."""
    n, k, m = len(rows), len(rows[0]), len(cols)
    if n <= SMALL and k <= 2 * SMALL and m <= 2 * SMALL:
        return _kernel(_int_close, (n, k, m))(rows, cols, re, im)
    flat = list(chain.from_iterable(rows))
    return (sum(map(mul, flat, chain.from_iterable(cols[:n])), re),
            sum(map(mul, flat, chain.from_iterable(cols[n:])), im))


def int_sum(a, b):
    """The int rows of a + b, two lists of int rows of one shape."""
    n, k = len(a), len(a[0])
    if n <= SMALL and k <= 2 * SMALL:
        return _kernel(_int_sum, (n, k))(a, b)
    return [list(map(add, r, s)) for r, s in zip(a, b)]


class GaussianMatrix:
    """A matrix (A + iB)/d of exact scalars, A and B integer matrices and
    d > 0: product_traces' exact case beside Matrix, multiplied by
    int_product and closed by int_close.

    rows are A's rows, or [A | B] when complex.  A factor, as exact_form
    makes it, also holds cols: cols[c] are the columns that multiply rows
    of form c from the right (_int_form).  A product holds no cols, so it
    stands only on the left.  kind is ring.gaussian_ints' kind of the
    entries, and so of any sum of products of them: the widest type among
    them.  Values are made without __init__, its call being a measurable
    share of a product of small matrices."""

    __slots__ = ("rows", "cols", "d", "kind", "complex")

    def __mul__(self, other):
        """self x other, for a factor other."""
        rows, cols = self.rows, other.cols[self.complex]
        # a column for self's rows is as long as a row when the shapes chain
        if len(cols[0]) != len(rows[0]):
            raise ValueError(f"cannot multiply {self._shape()} by {other._shape()}")
        return _gaussian(int_product(rows, cols), self.d * other.d,
                         self.kind if self.kind >= other.kind else other.kind,
                         self.complex or other.complex)

    def _shape(self):
        return f"{len(self.rows)}x{len(self.rows[0]) >> self.complex}"

    def close(self, last):
        """Tr(self x last), for a factor last, without forming the
        product: the int parts (re, im) of a Gaussian integer over
        self.d * last.d, which ring.gaussian_scalar makes a canonical
        scalar of kind max(self.kind, last.kind)."""
        rows, cols = self.rows, last.cols[self.complex]
        if len(cols[0]) != len(rows[0]) or len(last.rows[0]) >> last.complex != len(rows):
            raise ValueError(f"{self._shape()} times {last._shape()} has no trace")
        return int_close(rows, cols)

    def trace(self):
        """The int parts (re, im) of the trace, over self.d."""
        rows, c = self.rows, len(self.rows[0]) >> self.complex
        return (sum([row[i] for i, row in enumerate(rows)]),
                sum([row[c + i] for i, row in enumerate(rows)]) if self.complex else 0)

    def factor(self):
        """self with its cols, so that it can stand on the right; a
        product holds none until asked."""
        if self.cols is not None:
            return self
        c = len(self.rows[0]) >> self.complex
        re = [x for row in self.rows for x in row[:c]]
        im = [x for row in self.rows for x in row[c:]] if self.complex else None
        return _gaussian(self.rows, self.d, self.kind, self.complex,
                         _int_form(c, re, im, (False, True))[1])


def _gaussian(rows, d, kind, complex, cols=None):
    got = object.__new__(GaussianMatrix)
    got.rows, got.cols, got.d, got.kind, got.complex = rows, cols, d, kind, complex
    return got


def _int_form(c, re, im, forms):
    """(rows, [cols for each form in forms]) of A + iB with c columns, re
    and im its row-major int entries, im None when it is real: its rows,
    [A | B] when complex, and the columns by which it multiplies rows of a
    form from the right: A's then B's (none when B is zero) for real rows
    X, giving [XA | XB]; (A; -B) then (B; A) for complex rows [X | Y],
    giving [XA - YB | XB + YA]."""
    starts, re_cols = range(0, len(re), c), [re[j::c] for j in range(c)]
    if im is None:
        zero = [0] * (len(re) // c)
        return [re[i:i + c] for i in starts], [
            [x + zero for x in re_cols] + [zero + x for x in re_cols] if cplx else re_cols
            for cplx in forms]
    im_cols = [im[j::c] for j in range(c)]
    return [re[i:i + c] + im[i:i + c] for i in starts], [
        [a + [-x for x in b] for a, b in zip(re_cols, im_cols)]
        + [b + a for a, b in zip(re_cols, im_cols)] if cplx else re_cols + im_cols
        for cplx in forms]


def exact_factors(matrices):
    """Whether every matrix has rows and columns and only exact entries
    (ring.EXACT_TYPES): the one test of whether factors are multiplied as
    Gaussian integers, by product_traces and exact_forms.  An empty matrix
    is not exact, as its empty sums are int 0 whatever its entry type."""
    return (all(m.rows and m.cols for m in matrices)
            and set(map(type, chain.from_iterable(m.data for m in matrices))) <= EXACT_TYPES)


def exact_form(m):
    """m, a matrix exact_factors admits, as a GaussianMatrix factor."""
    d, re, im, kind = gaussian_ints(m.data)
    rows, cols = _int_form(m.cols, re, im, (False, True))
    return _gaussian(rows, d, kind, im is not None, cols)


def exact_forms(factors, weights=None):
    """(d, kind, {key: _int_form}) of the dict factors of matrices times
    their weights, if given, over one denominator d, all complex when one
    is, so that products along walks of one length add, and of
    gaussian_ints' kind; None, before any map is scaled or converted, when
    exact_factors rejects them or a weight is not in ring.EXACT_TYPES.
    Each goes through gaussian_ints once: an int or Fraction weight's
    numerator scales its ints and its denominator joins d; another weight
    scales the map once."""
    if not exact_factors(factors.values()) or (
            weights is not None and not {type(weights[key]) for key in factors} <= EXACT_TYPES):
        return None
    parts, kind = {}, 0
    for key, m in factors.items():
        w = 1 if weights is None else weights[key]
        if type(w) not in (int, Fraction):
            m, w = m.scale(w), 1
        got = gaussian_ints(m.data)
        kind = max(kind, got[3], 1 if type(w) is Fraction else 0)
        parts[key] = got[0] * w.denominator, w.numerator, got[1], got[2]
    d = lcm(*(fd for fd, *_ in parts.values()))
    cplx = any(im is not None for *_, im in parts.values())
    forms = {}
    for key, (fd, n, re, im) in parts.items():
        s = n * (d // fd)
        im = [s * x for x in im or [0] * len(re)] if cplx else None
        rows, (cols,) = _int_form(factors[key].cols, [s * x for x in re], im, (cplx,))
        forms[key] = rows, cols
    return d, kind, forms


def _least_rotation(seq):
    """Start of the first lexicographically least rotation of seq.  It
    starts at an occurrence of the least entry, so only those compete."""
    m = min(seq)
    best = seq.index(m)
    if seq.count(m) > 1:
        for r in range(best + 1, len(seq)):
            if seq[r] == m and seq[r:] + seq[:r] < seq[best:] + seq[:best]:
                best = r
    return best


def min_rotation(seq):
    r = _least_rotation(seq)
    return seq[r:] + seq[:r] if r else seq


def product_traces(factors, pairs=False):
    """trace(seq): the trace of factors[seq[0]] * ... * factors[seq[-1]]
    for a closed key sequence over the dict factors of Matrix values, read
    at its least rotation (min_rotation) and multiplied left to right.

    Every proper-prefix product is kept, keyed by its prefix, so sequences
    that share a prefix share its products, and all rotations of a
    sequence share one chain; every trace is kept by its least rotation.
    The last factor is never multiplied in: the trace closes the prefix
    with it (close).

    One decision covers every factor.  When exact_factors admits them,
    each key's factor is kept, once a product first needs it, as its
    GaussianMatrix (exact_form, over its own denominator), and only traces
    become scalars again: a GaussianRational if a factor holds one, else a
    Fraction if a factor holds one, else an int, as the dense product
    gives.  Otherwise every product is a Matrix product, each diagonal
    entry of prefix x last summed in Matrix.__mul__'s order and the
    entries in trace()'s, so its value equals the full product's trace()
    exactly, floats included; an int 0 entry times a Poly one is the int 0
    (ring.Poly), so no zero Poly is formed.

    With pairs it returns (d, trace) instead.  For factors exact_factors
    admits, d is the lcm of their entries' denominators, and trace(seq)
    is left as a Gaussian integer over d^len(seq): (re, im, kind), the
    trace being (re + im i)/d^len(seq) and kind the one its scalar would
    have (ring.gaussian_ints' kinds).  Otherwise d is None and trace gives
    scalars, as without pairs."""
    exact = exact_factors(factors.values())
    prods = {}
    traces = {}
    d = None
    if exact:
        forms = {}
        if pairs:
            d = lcm(*{x.d if type(x) is GaussianRational else x.denominator
                      for m in factors.values() for x in m.data})

        def form(key):
            got = forms.get(key)
            if got is None:
                got = forms[key] = exact_form(factors[key])
            return got
        close = GaussianMatrix.close
    else:
        form, close = factors.__getitem__, Matrix.close

    def prefix(head):
        got = prods.get(head)
        if got is None:
            got = form(head[-1])
            if len(head) > 1:
                got = prefix(head[:-1]) * got
            prods[head] = got
        return got

    def trace(seq):
        seq = min_rotation(seq)
        got = traces.get(seq)
        if got is None:
            if len(seq) == 1:
                got = factors[seq[0]].trace()
                if d is not None:
                    td, (re,), im, kind = gaussian_ints((got,))
                    got = re * (d // td), im[0] * (d // td) if im else 0, kind
            else:
                pre, last = prefix(seq[:-1]), form(seq[-1])
                got = close(pre, last)
                if exact:
                    kind = max(pre.kind, last.kind)
                    if d is None:
                        got = gaussian_scalar(*got, pre.d * last.d, kind)
                    else:
                        s = d ** len(seq) // (pre.d * last.d)
                        got = got[0] * s, got[1] * s, kind
            traces[seq] = got
        return got

    return (d, trace) if pairs else trace

