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
from .ring import gaussian_scalar
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

    def pair(self, word):
        """tau of a nonempty word, for exact blocks: the Gaussian integer
        (re, im, kind) over d^len(word) that product_traces gives."""
        try:
            return self._trace(word)
        except (KeyError, ValueError):  # a pair with no block, or no chain
            return 0, 0, 0

    def tau(self, word):
        """tau of a word as a scalar; for exact blocks, that of its pair."""
        if word is None:
            return 0
        if not word:
            if self.tau_one is None:
                raise MethodRefusal("tau of the empty word is not declared")
            return self.tau_one
        try:
            value = self._trace(word)
        except (KeyError, ValueError):
            return 0
        if self.d is None:
            return value
        re, im, kind = value
        return gaussian_scalar(re, im, self.d ** len(word), kind)


def word_concat(*words):
    if any(w is None for w in words):
        return None
    return tuple(x for w in words for x in w)


def det_tau(word_matrix, ctx):
    """Sum over permutations of the slots of word_matrix through non-None
    entries of sign times tau of the entry word multiplied along each cycle.

    word_matrix is (sizes, words): class c holds sizes[c] alike slots, and
    words[c][b] is the entry between any slot of class c and any slot of
    class b, None the zero word; a plain n x n array of entries is
    ([1] * n, entries).  A cycle's word depends only on the classes it
    passes, so the sum is folded over the slots each class has left
    (cycle_cover_sum), and each class word's tau is read once.  When
    ctx's blocks are exact and every entry names one block, each tau is
    read as a Gaussian integer over d^len (TauContext.pair), which the
    fold makes a scalar once.  Past PERM_SUM_CAP slots it refuses before
    reading any tau."""
    sizes, words = word_matrix
    if len(words) != len(sizes) or any(len(row) != len(sizes) for row in words):
        raise MethodRefusal("tau-determinant needs a square array")
    check_perm_sum_slots(sum(sizes))
    allowed = [[b for b, w in enumerate(row) if w is not None] for row in words]
    pairs = ctx.d is not None and all(w is None or len(w) == 1 for row in words for w in row)
    read = ctx.pair if pairs else ctx.tau

    def weight(word):
        return read(word_concat(*(words[c][b] for c, b in zip(word, word[1:] + word[:1]))))

    return cycle_cover_sum(sizes, allowed, weight, ctx.d if pairs else None)


def block_word_matrix(block_matrix):
    """The word matrix with the blocks as its classes: words[a][b] is the
    single-symbol word naming block (a, b), or None when that block is
    zero."""
    p = range(block_matrix.p)
    words = [[None if block_matrix.is_zero_block(a, b) else ((a, b),) for b in p] for a in p]
    return block_matrix.part, words


def block_tau_context(block_matrix):
    return TauContext(block_matrix.blocks())
