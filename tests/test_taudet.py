import itertools
import random
from fractions import Fraction
from math import factorial, prod

import pytest

from _helpers import gauss_rat
from _references import vertex_field_sum
from holodet.errors import MethodRefusal
from holodet.blockdet import det_trace_formal
from holodet.laplacian import build_laplacian
from holodet.linalg import BlockMatrix, Matrix, det_oracle, product_traces
from holodet.quiver import Representation, bidirected
from holodet.ring import Poly, Symbols, int_div, scalars_close
from holodet.taudet import (
    TauContext,
    block_tau_context,
    block_word_matrix,
    det_tau,
    word_concat,
)


def scalar_context(values):
    """tau over 1x1 blocks: the product of the named scalars."""
    blocks = {k: Matrix(1, 1, [v]) for k, v in values.items()}
    return TauContext(blocks, tau_one=1)


def test_det_tau_single_entry():
    ctx = scalar_context({(0, 0): Fraction(7)})
    assert det_tau(([1], [[((0, 0),)]]), ctx) == 7


def test_det_tau_zero_words():
    ctx = scalar_context({(0, 0): Fraction(1)})
    assert det_tau(([1, 1], [[None, None], [None, None]]), ctx) == 0


def test_det_tau_scalar_entries_is_leibniz():
    rng = random.Random(151)
    n = 3
    vals = {(i, j): gauss_rat(rng) for i in range(n) for j in range(n)}
    ctx = scalar_context(vals)
    entries = [[((i, j),) for j in range(n)] for i in range(n)]
    plain = Matrix.from_rows([[vals[(i, j)] for j in range(n)] for i in range(n)])
    assert det_tau(([1] * n, entries), ctx) == det_oracle(plain)


def test_det_tau_refuses_an_undeclared_empty_word():
    # a fixed point on an empty entry, and a 2-cycle whose entries are empty
    blocks = {(0, 0): Matrix(1, 1, [Fraction(1)])}
    for entries in ([[()]], [[None, ()], [(), None]]):
        with pytest.raises(MethodRefusal, match="empty word is not declared"):
            det_tau(([1] * len(entries), entries), TauContext(blocks))
    assert det_tau(([1, 1], [[None, ()], [(), None]]), TauContext(blocks, tau_one=3)) == -3


def test_det_tau_size_refusal():
    ctx = scalar_context({(0, 0): Fraction(1)})
    # the cycle-cover fold's cap, shared with block-perm, admits 8 slots
    entries = [[((0, 0),)] * 9 for _ in range(9)]
    with pytest.raises(MethodRefusal, match="capped at n<=8, got 9"):
        det_tau(([1] * 9, entries), ctx)


def test_det_tau_block_word_equals_scaled_det():
    rng = random.Random(157)
    for part in ((2, 1), (2, 2), (1, 1, 2)):
        n = sum(part)
        bm = BlockMatrix(Matrix(n, n, [gauss_rat(rng) for _ in range(n * n)]), part)
        ctx = block_tau_context(bm)
        value = det_tau(block_word_matrix(bm), ctx)
        scale = 1
        for na in part:
            scale *= factorial(na)
        assert value == scale * det_oracle(bm.base)
        assert det_trace_formal(bm) == det_oracle(bm.base)


def _slot_entries(sizes, words):
    """The slot-level array of a word matrix given by its classes."""
    cls = [c for c, size in enumerate(sizes) for _ in range(size)]
    return [[words[a][b] for b in cls] for a in cls]


def _slot_sum(entries, ctx):
    """Sign times tau along the cycles, summed over every permutation of
    the slots through non-None entries."""
    n = len(entries)
    total = 0
    for perm in itertools.permutations(range(n)):
        if any(entries[i][perm[i]] is None for i in range(n)):
            continue
        seen, term, sign = set(), 1, 1
        for i in range(n):
            if i not in seen:
                cyc = [i]
                while perm[cyc[-1]] != i:
                    cyc.append(perm[cyc[-1]])
                seen.update(cyc)
                sign *= -1 if len(cyc) % 2 == 0 else 1
                term = term * ctx.tau(word_concat(
                    *(entries[a][b] for a, b in zip(cyc, cyc[1:] + cyc[:1]))))
        total = total + sign * term
    return total


@pytest.mark.parametrize("family", ["fraction", "poly"])
def test_det_tau_on_alike_slots_is_the_permutation_sum(family):
    # class sizes and a class table over 2x2 blocks, its words one symbol
    # or, in every other trial, sometimes two.  Exact blocks with
    # one-symbol words are read as pairs, otherwise as scalars; either way
    # det_tau is the signed sum over every permutation of the expanded
    # slots of tau along its cycles
    rng = random.Random(f"alike-slots:{family}")
    x = Poly.variable(Symbols(("x",)), "x")

    def entry():
        if family == "fraction":
            return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        return rng.randint(-1, 1) * x + rng.randint(-2, 2)

    blocks = {(a, b): Matrix(2, 2, [entry() for _ in range(4)]) for a in range(2) for b in range(2)}
    symbols = list(blocks)
    ctx = TauContext(blocks)
    assert (ctx.d is None) == (family == "poly")
    for trial in range(40):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        while sum(sizes) > 6:
            sizes.pop()
        longest = 1 + trial % 2
        table = [[None if rng.random() < 0.2 else
                  tuple(rng.choice(symbols) for _ in range(rng.randint(1, longest)))
                  for _ in sizes] for _ in sizes]
        want = _slot_sum(_slot_entries(sizes, table), ctx)
        assert det_tau((sizes, table), ctx) == want, (sizes, table)


def test_det_tau_reads_zero_for_a_word_with_no_block_or_no_chain():
    # exact blocks of part (2, 1), one-symbol words, so each tau is read as
    # a pair: a cycle through class 2 names the pair (0, 2), which has no
    # block, and the cycle 1 -> 2 -> 1 steps from a 2x2 block into a 1x1
    # one; both read 0, and det_tau is still the permutation sum
    rng = random.Random(167)
    bm = BlockMatrix(Matrix(3, 3, [gauss_rat(rng) for _ in range(9)]), (2, 1))
    ctx = block_tau_context(bm)
    assert ctx.d is not None
    sizes = [2, 1, 1]
    table = [[((0, 0),), ((0, 1),), ((0, 2),)],
             [((1, 0),), ((1, 1),), ((0, 0),)],
             [((1, 0),), ((1, 1),), ((1, 1),)]]
    assert ctx.pair(((0, 2), (1, 0))) == ctx.pair(((0, 0), (1, 1))) == (0, 0, 0)
    want = _slot_sum(_slot_entries(sizes, table), ctx)
    assert want != 0
    assert det_tau((sizes, table), ctx) == want


def test_det_tau_refuses_a_word_matrix_that_is_not_square():
    ctx = scalar_context({(0, 0): Fraction(1)})
    w = ((0, 0),)
    for word_matrix in (([1, 1], [[w, w]]), ([1, 1], [[w], [w]]), ([2], [[w, w]])):
        with pytest.raises(MethodRefusal, match="tau-determinant needs a square array"):
            det_tau(word_matrix, ctx)


def test_tau_centrality_spot_checks():
    rng = random.Random(163)
    part = (2, 1, 2)
    n = sum(part)
    bm = BlockMatrix(Matrix(n, n, [gauss_rat(rng) for _ in range(n * n)]), part)
    ctx = block_tau_context(bm)
    pairs = [(a, b) for a in range(3) for b in range(3)]
    for _ in range(100):
        w1 = tuple(rng.choice(pairs) for _ in range(rng.randint(1, 3)))
        w2 = tuple(rng.choice(pairs) for _ in range(rng.randint(1, 3)))
        assert ctx.tau(word_concat(w1, w2)) == ctx.tau(word_concat(w2, w1))


def test_tau_dimension_mismatch_is_zero():
    bm = BlockMatrix(Matrix.identity(3).map(Fraction), (2, 1))
    ctx = block_tau_context(bm)
    # (0,0) then (1,0): 2x2 times 1x2 does not chain
    assert ctx.tau(((0, 0), (1, 0))) == 0
    # non-square final product: a single (0,1) block is 2x1
    assert ctx.tau(((0, 1),)) == 0
    # a pair that names no block: the partition has blocks 0 and 1 only
    assert ctx.tau(((0, 2), (2, 0))) == 0


def appendixA_special_check(quiver, rep, weights, N):
    """Both candidate sides of the trace-map identities with tau = matrix
    trace (so tau of the empty word is N), on a graph with constant rank N
    and the index set read as the assignments of one outgoing edge per
    vertex: the tau-det of the vertex-level block matrix, N^m times the sum
    over fields of prod(1 - N^-len tau(hol)), the product of the rank
    factorials times the plain det, and the sum over fields of
    prod(1 - tau(hol)), returned for the tests to compare."""
    if any(r != N for r in rep.ranks):
        raise MethodRefusal("constant rank N is required for this check")
    lap = build_laplacian(quiver, rep, weights)
    m = quiver.p

    ctx = TauContext(lap.block.blocks(), tau_one=N)
    entries = [[((a, b),) for b in range(m)] for a in range(m)]
    det_tau_blocks = det_tau(([1] * m, entries), ctx)

    trace = product_traces(rep.matrices)

    def hol_trace(cyc):
        return trace(tuple(e.id for e in cyc))

    corrected_rhs = (N ** m) * vertex_field_sum(
        quiver, weights, lambda cyc: 1 - int_div(hol_trace(cyc), N ** len(cyc))
    )
    field_sum = vertex_field_sum(quiver, weights, lambda cyc: 1 - hol_trace(cyc))
    scaled_det = prod(map(factorial, rep.ranks)) * det_oracle(lap.matrix)
    return det_tau_blocks, corrected_rhs, scaled_det, field_sum


def test_appendix_check_rank_one_is_classical_identity():
    rng = random.Random(5)
    q, rep, w = bidirected(2, [(0, 1)], rng=rng, rank=1)
    wq = {k: Fraction(2) for k in w}
    rep1 = Representation((1, 1), {eid: Matrix(1, 1, [Fraction(1)]) for eid in rep.matrices})
    det_tau_blocks, corrected_rhs, scaled_det, field_sum = appendixA_special_check(q, rep1, wq, 1)
    assert det_tau_blocks == corrected_rhs
    assert scaled_det == field_sum
    assert det_tau_blocks == field_sum == 0  # unit holonomy kernel


def test_appendix_check_identity_representation_rank_two():
    rng = random.Random(6)
    q, rep, w = bidirected(2, [(0, 1)], rng=rng, rank=2)
    wq = {k: Fraction(2) for k in w}
    rep2 = Representation(
        (2, 2), {eid: Matrix.identity(2).map(Fraction) for eid in rep.matrices}
    )
    det_tau_blocks, corrected_rhs, scaled_det, field_sum = appendixA_special_check(q, rep2, wq, 2)
    # the true determinant vanishes (constant vectors in the kernel)
    assert scaled_det == 0
    # the corrected trace-map identity holds on this instance
    assert det_tau_blocks == corrected_rhs
    assert det_tau_blocks == 8  # N(N-1) x_e x_f with x = 2
    # the naive vector-field reading does not reproduce it
    assert field_sum == -4
    assert scaled_det != field_sum


def test_appendix_check_random_unitary_two_cycle():
    rng = random.Random(8)
    q, rep, w = bidirected(2, [(0, 1)], rng=rng, rank=2)
    det_tau_blocks, corrected_rhs, scaled_det, _ = appendixA_special_check(q, rep, w, 2)
    # det_tau over the vertex-level blocks agrees with the corrected form
    assert scalars_close(det_tau_blocks, corrected_rhs)
    # the oracle-scaled determinant is formed for comparison
    assert scaled_det is not None
