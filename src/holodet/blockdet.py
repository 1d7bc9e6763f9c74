"""Determinant identities for abstract block matrices: permutation-trace
sums, the trace-determinant reduction, the cycle-multiset expansion for
scalar-diagonal blocks, its integer-coefficient variant and the blockwise
characteristic polynomial.  The expansions fold the cycles of the block
quiver, which has one edge (a, b) per nonzero off-diagonal block, with
that block as its matrix.
"""

from __future__ import annotations

from math import factorial, prod

from .errors import HolodetError, InvariantViolation
from .linalg import (
    GaussianMatrix,
    block_walk_traces,
    exact_factors,
    exact_form,
    product_traces,
)
from .ring import gaussian_scalar, int_div, is_exact, to_complex, z_power
from .walks import (
    check_perm_sum_slots,
    cycle_cover_sum,
    cycle_series,
    cycle_types,
    enumerate_gcycle_multisets,
    min_rotation,
    shifted_visit_sum,
    walk_quiver,
)
from . import taudet

SCALAR_DIAG_FLOAT_TOL = 1e-12


class ScalarDiagBlockMatrix:
    """Block matrix whose diagonal blocks are scalar multiples of the
    identity; carries the extracted scalars."""

    __slots__ = ("block", "z")

    def __init__(self, block, z):
        self.block = block
        self.z = tuple(z)

    @classmethod
    def from_block(cls, block):
        zs = []
        for a in range(block.p):
            d = block.block(a, a)
            z = d.at(0, 0)
            exact = all(is_exact(x) for x in d.data)
            for i in range(d.rows):
                for j in range(d.cols):
                    want = z if i == j else 0
                    got = d.at(i, j)
                    if exact:
                        ok = got == want
                    else:
                        tol = SCALAR_DIAG_FLOAT_TOL * abs(to_complex(z))
                        ok = abs(to_complex(got) - to_complex(want)) <= tol
                    if not ok:
                        raise HolodetError(
                            f"diagonal block {a} is not a scalar multiple of "
                            f"the identity (entry ({i},{j}))"
                        )
            zs.append(z)
        return cls(block, zs)

    @property
    def part(self):
        return self.block.part

    @property
    def p(self):
        return self.block.p

    @property
    def n(self):
        return self.block.n


def det_perm_traces(m):
    """Average over permutations of sign times the product of Tr(M^len)
    over the permutation's cycles, summed by cycle type.  Only the powers
    up to M^h, h = ceil(n/2), are formed: each Tr(M^k) with k > h closes
    M^h with M^(k-h), not forming their product.  When exact_factors
    admits M, the powers are Gaussian integers over d^k (exact_form) and
    so is the sum over d^n, made a scalar once; otherwise they are Matrix
    powers, each trace summed as (M^a * M^(k-a)).trace() sums it."""
    if not m.is_square:
        raise HolodetError("square matrix required")
    n = m.rows
    check_perm_sum_slots(n)
    h = (n + 1) // 2
    exact = exact_factors([m])
    base = exact_form(m) if exact else m
    powers = [base]
    for _ in range(1, h):
        powers.append(powers[-1] * base)
    right = GaussianMatrix.factor if exact else (lambda power: power)
    traces = [None, *(p.trace() for p in powers)]
    traces += [powers[-1].close(right(powers[k - h - 1])) for k in range(h + 1, n + 1)]
    if exact:
        re = im = 0
        for lengths, count in cycle_types(n):
            a, b = count, 0
            for k in lengths:
                c, e = traces[k]
                a, b = a * c - b * e, a * e + b * c
            re += a
            im += b
        return gaussian_scalar(re, im, base.d ** n * factorial(n), max(1, base.kind))
    total = 0
    for lengths, count in cycle_types(n):
        term = 1
        for k in lengths:
            term = term * traces[k]
        total = total + count * term
    return int_div(total, factorial(n))


def det_block_perm(bm):
    """Signed sum over permutations through nonzero blocks, each cycle
    contributing the trace of the block product it traverses, normalized
    by the block-size factorials; folded over cycle covers of the slots
    (cycle_cover_sum), each block word's trace kept by the word as read.
    Past PERM_SUM_CAP slots it refuses before forming any trace."""
    n = bm.n
    check_perm_sum_slots(n)
    trace = block_walk_traces(bm)
    bl = bm.slots
    allowed = [[j for j in range(n) if not bm.is_zero_block(bl[i], bl[j])]
               for i in range(n)]
    read = {}

    def weight(cyc):
        word = tuple(bl[i] for i in cyc)
        got = read.get(word)
        if got is None:
            got = read[word] = trace(min_rotation(word))
        return got

    return int_div(cycle_cover_sum(allowed, weight), prod(map(factorial, bm.part)))


def det_trace_formal(bm):
    """Trace-determinant of the block-symbol word matrix divided by the
    block-size factorials; past PERM_SUM_CAP slots it refuses before
    forming the matrix."""
    check_perm_sum_slots(bm.n)
    ctx = taudet.block_tau_context(bm)
    entries = taudet.block_word_matrix(bm)
    value = taudet.det_tau(entries, ctx)
    return int_div(value, prod(map(factorial, bm.part)))


def _block_quiver(bm):
    """walk_quiver(p) with only the edges (a, b) whose block is nonzero;
    a walk through a zero block has trace 0 and is never listed."""
    return walk_quiver(bm.p, lambda a, b: not bm.is_zero_block(a, b))


def _walk_series(sd):
    """The truncated exponential of the walk factors (-1)^(len-1) Tr W / val,
    W the product of the nonzero blocks along the walk: the closed-walk
    transfer of those blocks on the block quiver."""
    quiver = _block_quiver(sd.block)
    maps = {e.id: sd.block.block(*e.id) for e in quiver.edges}
    return cycle_series(quiver, sd.part, maps)


def det_scalar_diag(sd):
    """Cycle-multiset expansion for a block matrix with scalar diagonal:
    sum over multisets of z^(n-v)/C! times the product of walk factors,
    folded as the truncated exponential of the walk factors."""
    return _walk_series(sd).visit_sum(sd.z)


def det_scalar_diag_integral(sd):
    """Same expansion rescaled so every coefficient is an integer, then
    divided back down; raises if a coefficient fails to be integral."""
    part = sd.part
    p = sd.p
    nfact = prod(map(factorial, part))
    quiver = _block_quiver(sd.block)
    trace = product_traces({e.id: sd.block.block(*e.id) for e in quiver.edges})
    total = 0
    for ms in enumerate_gcycle_multisets(quiver, part):
        denom = ms.multiplicity_factorial() * ms.valuation_product()
        coeff, rem = divmod(nfact, denom)
        if rem:
            raise InvariantViolation(
                f"coefficient {nfact}/{denom} is not an integer for {ms!r}"
            )
        visits = ms.visits(p)
        term = z_power(sd.z, tuple(n - v for n, v in zip(part, visits)))
        for walk, mult in ms:
            f = (1 if len(walk) % 2 else -1) * trace(walk.edges)
            for _ in range(mult):
                term = term * f
        total = total + coeff * term
    return int_div(total, nfact)


def charpoly_block(sd, t_names=None):
    """det(T + A) as a polynomial in per-block shift symbols: the walk
    expansion with every z_a replaced by z_a + t_a."""
    series = _walk_series(sd).coefficients()
    return shifted_visit_sum(series, sd.z, sd.part, sd.block.base.data, t_names)
