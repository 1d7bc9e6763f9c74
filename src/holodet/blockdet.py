"""Determinant identities for abstract block matrices: permutation-trace
sums, the trace-determinant reduction, the cycle-multiset expansion for
scalar-diagonal blocks, its integer-coefficient variant and the blockwise
characteristic polynomial.  The expansions fold the cycles of the block
quiver, which has one edge (a, b) per nonzero off-diagonal block, with
that block as its matrix.
"""

from __future__ import annotations

from math import factorial, prod

from .errors import HolodetError, InvariantViolation, MethodRefusal
from .linalg import block_walk_traces, product_traces
from .ring import int_div, is_exact, to_complex, z_power
from .walks import (
    cycle_series,
    cycle_types,
    enumerate_gcycle_multisets,
    min_rotation,
    permutations_within,
    shifted_visit_sum,
    walk_quiver,
)
from . import taudet

PERM_SUM_CAP = 8
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
    over the permutation's cycles, summed by cycle type."""
    if not m.is_square:
        raise HolodetError("square matrix required")
    n = m.rows
    if n > PERM_SUM_CAP:
        raise MethodRefusal(f"permutation sum capped at n<={PERM_SUM_CAP}, got {n}")
    # Tr(M^k) for k = 1..n, with M^n closed as a trace and never formed
    power_trace = product_traces({0: m})
    powers = {k: power_trace((0,) * k) for k in range(1, n + 1)}
    total = 0
    for lengths, count in cycle_types(n):
        term = 1
        for k in lengths:
            term = term * powers[k]
        total = total + count * term
    return int_div(total, factorial(n))


def det_block_perm(bm):
    """Permutation sum with each cycle contributing the trace of the block
    product it traverses, normalized by the block-size factorials; only
    permutations through nonzero blocks are visited."""
    n = bm.n
    if n > PERM_SUM_CAP:
        raise MethodRefusal(f"permutation sum capped at n<={PERM_SUM_CAP}, got {n}")
    trace = block_walk_traces(bm)
    allowed = [
        [j for j in range(n) if not bm.is_zero_block(bm.bl(i), bm.bl(j))]
        for i in range(n)
    ]
    total = 0
    for _, cycles, sign in permutations_within(allowed):
        term = 1
        for cyc in cycles:
            term = term * trace(min_rotation(tuple(bm.bl(i) for i in cyc)))
            if term == 0:
                break
        total = total + (term if sign > 0 else -term)
    return int_div(total, prod(map(factorial, bm.part)))


def det_trace_formal(bm):
    """Trace-determinant of the block-symbol word matrix divided by the
    block-size factorials."""
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
