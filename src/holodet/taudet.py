"""Generic tau-determinant: a Leibniz-style determinant over matrices whose
entries live in a monoid of words, evaluated through a central map tau.

Words are tuples of block-index pairs; the zero element is None.  tau of a
word multiplies the concrete blocks it names and takes the trace, returning
0 when a pair names no block or the blocks do not chain into a square
product.  tau is central, so a word is read as its least rotation, whose
trace linalg.product_traces keeps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MethodRefusal
from .linalg import product_traces
from .walks import cycle_cover_sum, min_rotation


@dataclass
class TauContext:
    """Evaluation hooks for words over ordered block pairs."""

    blocks: dict            # (a, b) -> Matrix
    tau_one: object = None  # declared value of tau on the empty word

    def __post_init__(self):
        self._trace = product_traces(self.blocks)

    def tau(self, word):
        if word is None:
            return 0
        if not word:
            if self.tau_one is None:
                raise MethodRefusal("tau of the empty word is not declared")
            return self.tau_one
        try:
            return self._trace(min_rotation(word))
        except (KeyError, ValueError):  # a pair with no block, or no chain
            return 0


def word_concat(*words):
    if any(w is None for w in words):
        return None
    return tuple(x for w in words for x in w)


def det_tau(entries, ctx):
    """Sum over permutations through non-None entries (None is the zero
    word) of sign times tau of the entry word multiplied along each cycle,
    folded over cycle covers of the slots (cycle_cover_sum)."""
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise MethodRefusal("tau-determinant needs a square array")
    allowed = [[j for j in range(n) if entries[i][j] is not None] for i in range(n)]

    def weight(cyc):
        steps = zip(cyc, cyc[1:] + cyc[:1])
        return ctx.tau(word_concat(*(entries[i][j] for i, j in steps)))

    return cycle_cover_sum(allowed, weight)


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

