"""Generic tau-determinant: a Leibniz-style determinant over matrices whose
entries live in a monoid of words, evaluated through a central map tau.

Words are tuples of block-index pairs; the zero element is None.  tau of a
word multiplies the concrete blocks it names and takes the trace, returning
0 when a pair names no block or the blocks do not chain into a square
product.  tau is central, and linalg.product_traces reads each word at
its least rotation, so all rotations of a word share one trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MethodRefusal
from .linalg import product_traces
from .walks import check_perm_sum_slots, cycle_cover_sum


@dataclass
class TauContext:
    """Evaluation hooks for words over ordered block pairs.  d is the
    blocks' common denominator when exact_factors admits them, else None
    (product_traces with pairs)."""

    blocks: dict            # (a, b) -> Matrix
    tau_one: object = None  # declared value of tau on the empty word

    def __post_init__(self):
        self.d, self._trace = product_traces(self.blocks, pairs=True)
        # tau's kernel: for exact blocks a scalar one, built on first read
        self._scalar = self._trace if self.d is None else None

    def pair(self, word):
        """tau of a nonempty word, for exact blocks: the Gaussian integer
        (re, im, kind) over d^len(word) that product_traces gives."""
        try:
            return self._trace(word)
        except (KeyError, ValueError):  # a pair with no block, or no chain
            return 0, 0, 0

    def tau(self, word):
        if word is None:
            return 0
        if not word:
            if self.tau_one is None:
                raise MethodRefusal("tau of the empty word is not declared")
            return self.tau_one
        if self._scalar is None:
            self._scalar = product_traces(self.blocks)
        try:
            return self._scalar(word)
        except (KeyError, ValueError):
            return 0


def word_concat(*words):
    if any(w is None for w in words):
        return None
    return tuple(x for w in words for x in w)


def det_tau(entries, ctx):
    """Sum over permutations through non-None entries (None is the zero
    word) of sign times tau of the entry word multiplied along each cycle.

    Slots whose entry rows and entry columns are equal are alike, and a
    run of consecutive alike slots is one class (a block of
    block_word_matrix): a cycle's word depends only on the classes it
    passes, so the sum is folded over the slots each class has left
    (cycle_cover_sum), and each class word's tau is read once.  When ctx's
    blocks are exact and every entry names one block, each tau is read as
    a Gaussian integer over d^len (TauContext.pair), which the fold makes
    a scalar once.  Past PERM_SUM_CAP slots it refuses before reading any
    tau."""
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise MethodRefusal("tau-determinant needs a square array")
    check_perm_sum_slots(n)
    sizes, reps = [], []
    for i, row in enumerate(entries):
        if i and row == entries[i - 1] and all(r[i] == r[i - 1] for r in entries):
            sizes[-1] += 1
        else:
            sizes.append(1)
            reps.append(i)
    # the entry between two classes, which every slot pair of theirs has:
    # the entries themselves when no class has two slots
    words = entries if len(reps) == n else [[entries[i][j] for j in reps] for i in reps]
    allowed = [[b for b, w in enumerate(row) if w is not None] for row in words]
    pairs = ctx.d is not None and all(w is None or len(w) == 1 for row in words for w in row)
    read = ctx.pair if pairs else ctx.tau

    def weight(word):
        return read(word_concat(*(words[c][b] for c, b in zip(word, word[1:] + word[:1]))))

    return cycle_cover_sum(sizes, allowed, weight, ctx.d if pairs else None)


def block_word_matrix(block_matrix):
    """The size-n array whose (i, j) entry is the single-symbol word naming
    the block containing position (i, j), or None when that block is zero."""
    p = range(block_matrix.p)
    words = [[None if block_matrix.is_zero_block(a, b) else ((a, b),) for b in p] for a in p]
    return [[words[a][b] for b in block_matrix.slots] for a in block_matrix.slots]


def block_tau_context(block_matrix):
    return TauContext(block_matrix.blocks())

