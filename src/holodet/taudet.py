"""Generic tau-determinant: a Leibniz-style determinant over matrices whose
entries live in a monoid of words, evaluated through a central map tau.

Words are tuples of block-index pairs; the zero element is None.  tau of a
word multiplies the concrete blocks it names and takes the trace, returning
0 whenever dimensions fail to chain or the final product is not square.
Values are memoized by rotation class, since tau is central.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial, prod

from .errors import MethodRefusal
from .linalg import product_traces
from .vectorfields import vertex_field_sum
from .walks import min_rotation, permutations_within

TAU_DET_CAP = 7


@dataclass
class TauContext:
    """Evaluation hooks for words over ordered block pairs."""

    blocks: dict            # (a, b) -> Matrix
    tau_one: object = None  # declared value of tau on the empty word
    _memo: dict = field(default_factory=dict)

    def __post_init__(self):
        self._trace = product_traces(self.blocks)

    def tau(self, word):
        if word is None:
            return 0
        if not word:
            if self.tau_one is None:
                raise MethodRefusal("tau of the empty word is not declared")
            return self.tau_one
        key = min_rotation(word)
        got = self._memo.get(key)
        if got is None:
            mats = [self.blocks.get(pair) for pair in key]
            chained = all(m is not None for m in mats) and all(
                a.cols == b.rows for a, b in zip(mats, mats[1:] + mats[:1])
            )
            got = self._memo[key] = self._trace(key) if chained else 0
        return got


def word_concat(*words):
    if any(w is None for w in words):
        return None
    out = ()
    for w in words:
        out = out + tuple(w)
    return out


def det_tau(entries, ctx):
    """Sum over permutations of sign times tau of the entry word
    multiplied along each cycle; only permutations through non-None
    entries are visited, since None is the zero word."""
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise MethodRefusal("tau-determinant needs a square array")
    if n > TAU_DET_CAP:
        raise MethodRefusal(f"tau-determinant capped at n<={TAU_DET_CAP}, got {n}")
    allowed = [[j for j in range(n) if entries[i][j] is not None] for i in range(n)]
    total = 0
    for _, cycles, sign in permutations_within(allowed):
        term = 1
        for cyc in cycles:
            word = ()
            for pos, i in enumerate(cyc):
                word = word_concat(word, entries[i][cyc[(pos + 1) % len(cyc)]])
            term = term * ctx.tau(word)
            if term == 0:
                break
        else:
            total = total + (term if sign > 0 else -term)
    return total


def block_word_matrix(block_matrix):
    """The size-n array whose (i, j) entry is the single-symbol word naming
    the block containing position (i, j), or None when that block is zero."""
    n = block_matrix.n
    bl = block_matrix.bl
    return [
        [None if block_matrix.is_zero_block(bl(i), bl(j)) else ((bl(i), bl(j)),)
         for j in range(n)]
        for i in range(n)
    ]


def block_tau_context(block_matrix, tau_one=None):
    return TauContext(block_matrix.blocks(), tau_one=tau_one)


@dataclass(frozen=True)
class VectorFieldTauReport:
    """Side-by-side evaluation of tau-determinant identities on a graph
    with constant rank N, with the index set read as the assignments of one
    outgoing edge per vertex."""

    rank: int
    det_tau_blocks: object      # tau-det of the vertex-level block matrix
    corrected_rhs: object       # N^m sum over fields of prod(1 - N^-len tau(hol))
    scaled_det: object          # prod of rank factorials times the plain det
    field_sum: object           # sum over fields of prod(1 - tau(hol))
    corrected_agrees: bool
    corollary_agrees: bool


def appendixA_special_check(quiver, rep, weights, N):
    """Evaluate both candidate sides of the trace-map identities with
    tau = matrix trace (so tau of the empty word is N) and report, rather
    than assert, their agreement."""
    from .laplacian import build_laplacian
    from .linalg import det_oracle
    from .ring import int_div, scalars_close, is_exact

    if any(r != N for r in rep.ranks):
        raise MethodRefusal("constant rank N is required for this check")
    lap = build_laplacian(quiver, rep, weights)
    m = quiver.p

    ctx = block_tau_context(lap.block, tau_one=N)
    entries = [[((a, b),) for b in range(m)] for a in range(m)]
    det_tau_blocks = det_tau(entries, ctx)

    trace = product_traces(rep.matrices)

    def hol_trace(cyc):
        return trace(tuple(e.id for e in cyc))

    corrected_rhs = (N ** m) * vertex_field_sum(
        quiver, weights, lambda cyc: 1 - int_div(hol_trace(cyc), N ** len(cyc))
    )
    field_sum = vertex_field_sum(quiver, weights, lambda cyc: 1 - hol_trace(cyc))

    scaled_det = prod(map(factorial, rep.ranks)) * det_oracle(lap.matrix)

    def same(a, b):
        if is_exact(a) and is_exact(b):
            return a == b
        return scalars_close(a, b)

    return VectorFieldTauReport(
        rank=N,
        det_tau_blocks=det_tau_blocks,
        corrected_rhs=corrected_rhs,
        scaled_det=scaled_det,
        field_sum=field_sum,
        corrected_agrees=same(det_tau_blocks, corrected_rhs),
        corollary_agrees=same(scaled_det, field_sum),
    )
