import random
from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest

from _helpers import (
    gauss_rat,
    random_exact_instance,
    random_invertible_exact,
    random_symbolic_instance,
)
from _references import block_walk_traces, slot_cover_sum
from test_acceptance import _random_submarkov
from holodet.errors import HolodetError, MethodRefusal
from holodet.blockdet import (
    ScalarDiagBlockMatrix,
    _block_quiver,
    charpoly_block,
    det_block_perm,
    det_perm_traces,
    det_scalar_diag,
    det_scalar_diag_integral,
    det_trace_formal,
)
from holodet.cli import _hadamard_bound
from holodet.laplacian import build_laplacian
from holodet.linalg import (
    BlockMatrix,
    Matrix,
    charpoly_oracle,
    det_oracle,
    min_rotation,
    product_traces,
)
from holodet.ring import (
    FLOAT_ABS_TOL,
    GaussianRational,
    Poly,
    Symbols,
    int_div,
    scalars_close,
    to_complex,
)
from holodet.taudet import (
    TauContext,
    block_tau_context,
    block_word_matrix,
    det_tau,
    word_concat,
)
from holodet.walks import PERM_SUM_CAP, candidate_gcycles, cycle_cover_sum
from holodet.walks import permutations_within, walk_quiver


def random_block_matrix(rng, part):
    n = sum(part)
    return BlockMatrix(Matrix(n, n, [gauss_rat(rng) for _ in range(n * n)]), part)


def random_scalar_diag(rng, part, zero=()):
    """Random scalar-diagonal block matrix; the blocks (a, b) in zero are 0."""
    n = sum(part)
    bl = [a for a, p_ in enumerate(part) for _ in range(p_)]
    rows = [
        [Fraction(0) if (bl[i], bl[j]) in zero else gauss_rat(rng) for j in range(n)]
        for i in range(n)
    ]
    offsets = [0]
    for p_ in part:
        offsets.append(offsets[-1] + p_)
    for a, p_ in enumerate(part):
        z = gauss_rat(rng)
        for i in range(offsets[a], offsets[a + 1]):
            for j in range(offsets[a], offsets[a + 1]):
                rows[i][j] = z if i == j else Fraction(0)
    return ScalarDiagBlockMatrix.from_block(BlockMatrix(Matrix.from_rows(rows), part))


def test_det_perm_traces_small_cases():
    assert det_perm_traces(Matrix.from_rows([[Fraction(7)]])) == 7
    nilpotent = Matrix.from_rows(
        [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    ).map(Fraction)
    assert det_perm_traces(nilpotent) == 0
    # float power traces that are all 0 sum to Fraction(0), as in block-perm
    got = det_perm_traces(nilpotent.map(float))
    assert got == 0 and type(got) is Fraction


def test_det_perm_traces_matches_oracle():
    rng = random.Random(101)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = Matrix(n, n, [gauss_rat(rng) for _ in range(n * n)])
        assert det_perm_traces(m) == det_oracle(m)
    for n in (7, 8):
        m = Matrix(n, n, [gauss_rat(rng) for _ in range(n * n)])
        assert det_perm_traces(m) == det_oracle(m)


def test_det_perm_traces_float_bit_identical_to_repeated_products():
    # only the powers up to h = ceil(n/2) are formed: Tr(M^k) is
    # (P_(k-1) * P_1).trace() up to h and (P_h * P_(k-h)).trace() past it,
    # P_a the repeated product M * ... * M, each bit for bit, summed by the
    # one-class cycle_cover_sum over those traces
    rng = random.Random(7)
    for n in range(1, PERM_SUM_CAP + 1):
        m = Matrix(n, n, [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                          for _ in range(n * n)])
        h = (n + 1) // 2
        powers = {1: m}
        for k in range(2, h + 1):
            powers[k] = powers[k - 1] * m
        traces = {1: m.trace()}
        for k in range(2, n + 1):
            a = k - 1 if k <= h else h
            traces[k] = (powers[a] * powers[k - a]).trace()
        total = cycle_cover_sum((n,), [[0]], lambda word: traces[len(word)])
        assert det_perm_traces(m) == total / factorial(n)


@pytest.mark.parametrize("entry", [
    lambda rng: rng.randint(-3, 3),
    lambda rng: Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
    gauss_rat,
])
def test_exact_det_perm_traces_match_the_matrix_powers(monkeypatch, entry):
    # the Gaussian-integer powers give the value and type of the Matrix
    # powers, which run when exact_factors turns the matrix away
    from holodet import blockdet
    rng = random.Random(41)
    mats = [Matrix(n, n, [entry(rng) for _ in range(n * n)])
            for n in range(1, PERM_SUM_CAP + 1)]
    # strictly upper triangular, so every power trace is 0: the determinant
    # is Fraction(0) whatever the entry type
    nilpotent = [Matrix(n, n, [entry(rng) if j > i else 0 for i in range(n) for j in range(n)])
                 for n in range(2, 5)]
    for m in nilpotent:
        got = det_perm_traces(m)
        assert got == 0 and type(got) is Fraction
    mats += nilpotent
    got = [det_perm_traces(m) for m in mats]
    monkeypatch.setattr(blockdet, "exact_factors", lambda _: False)
    for m, g in zip(mats, got):
        want = det_perm_traces(m)
        assert g == want == det_oracle(m)
        assert type(g) is type(want)


def test_det_perm_traces_refuses_a_matrix_that_is_not_square():
    with pytest.raises(HolodetError, match="square matrix required"):
        det_perm_traces(Matrix(2, 3, [Fraction(1)] * 6))


def test_det_perm_traces_size_refusal(monkeypatch):
    # past 8 slots perm refuses before it looks at an entry or forms a power
    from holodet import blockdet

    def unreachable(_):
        raise AssertionError("a power was formed")

    monkeypatch.setattr(blockdet, "exact_factors", unreachable)
    with pytest.raises(MethodRefusal, match="permutation sum capped at n<=8, got 9"):
        det_perm_traces(Matrix.identity(9))


def test_block_perm_sums_refuse_past_their_cap_before_any_trace(monkeypatch):
    # the fold holds no cap: block-perm, trace-formal and the
    # tau-determinant each refuse 9 slots, in 9 classes or in 2, before
    # they ask for a trace
    from holodet import blockdet, taudet

    def unreachable(*_, **__):
        raise AssertionError("a trace was formed")

    contexts = {}
    for part in ((1,) * 9, (4, 5)):
        bm = BlockMatrix(Matrix.identity(9), part)
        contexts[part] = bm, block_word_matrix(bm), block_tau_context(bm)
    for module in (blockdet, taudet):
        monkeypatch.setattr(module, "product_traces", unreachable)
    monkeypatch.setattr(TauContext, "pair", unreachable)
    monkeypatch.setattr(TauContext, "tau", unreachable)
    for bm, word_matrix, ctx in contexts.values():
        for run in (lambda: det_block_perm(bm), lambda: det_trace_formal(bm),
                    lambda: det_tau(word_matrix, ctx)):
            with pytest.raises(MethodRefusal, match="permutation sum capped at n<=8, got 9"):
                run()


def test_det_block_perm_extreme_partitions():
    rng = random.Random(103)
    m = Matrix(4, 4, [gauss_rat(rng) for _ in range(16)])
    d = det_oracle(m)
    assert det_block_perm(BlockMatrix(m, (4,))) == d       # one block
    assert det_block_perm(BlockMatrix(m, (1, 1, 1, 1))) == d  # all scalar
    assert det_block_perm(BlockMatrix(m, (2, 2))) == d
    # zero blocks (0, 2) and (1, 1): permutations through them are skipped
    part = (1, 2, 1)
    sparse = BlockMatrix(m, part)
    rows = m.to_rows()
    for i in range(4):
        for j in range(4):
            if (sparse.bl(i), sparse.bl(j)) in ((0, 2), (1, 1)):
                rows[i][j] = Fraction(0)
    sparse = BlockMatrix(Matrix.from_rows(rows), part)
    d = det_oracle(sparse.base)
    assert d != 0
    assert det_block_perm(sparse) == d
    assert det_trace_formal(sparse) == d


def _permutation_sum(allowed, weight):
    """Sign times the product of weight over the cycles, summed over the
    permutations listed by permutations_within."""
    total = 0
    for _, cycles, sign in permutations_within(allowed):
        term = 1
        for cyc in cycles:
            term = term * weight(cyc)
        total = total + (term if sign > 0 else -term)
    return total


def test_cycle_cover_routes_match_a_permutation_sum():
    # block-perm and the tau-determinant, each against its own weight
    # summed permutation by permutation, on exact and symbolic Laplacians
    rng = random.Random(113)
    instances = [random_exact_instance(rng) for _ in range(10)]
    instances += [random_symbolic_instance(rng, total_rank_max=5) for _ in range(10)]
    for inst in instances:
        bm = build_laplacian(*inst).block
        bl = bm.slots
        trace = block_walk_traces(bm)
        _, words = block_word_matrix(bm)
        entries = [[words[a][b] for b in bl] for a in bl]
        ctx = block_tau_context(bm)
        allowed = [[j for j, w in enumerate(row) if w is not None] for row in entries]
        want = _permutation_sum(allowed, lambda cyc: trace(tuple(bl[i] for i in cyc)))
        assert det_block_perm(bm) == int_div(want, prod(map(factorial, bm.part)))
        want = _permutation_sum(allowed, lambda cyc: ctx.tau(word_concat(
            *(entries[i][j] for i, j in zip(cyc, cyc[1:] + cyc[:1])))))
        assert det_tau(([1] * bm.n, entries), ctx) == want
        assert det_tau(block_word_matrix(bm), ctx) == want


def _typed_entry(rng, family, x):
    """One entry of a block matrix of the given family; mixed draws an
    int, a Fraction or a GaussianRational per entry."""
    if family == "mixed":
        family = rng.choice(("int", "fraction", "gaussian"))
    if family == "int":
        return rng.randint(-3, 3)
    if family == "fraction":
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    if family == "gaussian":
        return gauss_rat(rng)
    return rng.randint(-1, 1) * x + rng.randint(-2, 2)


@pytest.mark.parametrize("family", ["int", "fraction", "gaussian", "mixed", "poly"])
def test_block_routes_equal_the_slot_fold_in_value_and_type(family):
    # block-perm and trace-formal against the slot fold they replaced, with
    # block-perm's old weight, on blocks of 1 to 4 slots, some of them zero
    rng = random.Random(f"block-routes:{family}")
    x = Poly.variable(Symbols(("x",)), "x")
    parts = [(4, 4), (2, 2, 2, 2), (1, 3), (3, 1, 2), (2, 1, 1, 2), (1, 1, 1), (4,)]
    if family == "poly":
        parts = [part for part in parts if sum(part) <= 5]
    for part in parts:
        n = sum(part)
        bm = BlockMatrix(Matrix(n, n, [_typed_entry(rng, family, x) for _ in range(n * n)]), part)
        zero = {(a, b) for a in range(len(part)) for b in range(len(part)) if rng.random() < 0.3}
        rows = bm.base.to_rows()
        for i in range(n):
            for j in range(n):
                if (bm.bl(i), bm.bl(j)) in zero:
                    rows[i][j] = 0
        bm = BlockMatrix(Matrix.from_rows(rows), part)
        bl = bm.slots
        trace = block_walk_traces(bm)
        allowed = [[j for j in range(n) if not bm.is_zero_block(bl[i], bl[j])] for i in range(n)]
        want = int_div(slot_cover_sum(allowed, lambda cyc: trace(min_rotation(
            tuple(bl[i] for i in cyc)))), prod(map(factorial, part)))
        for route in (det_block_perm, det_trace_formal):
            got = route(bm)
            assert got == want and type(got) is type(want), (route.__name__, part, zero)


class _CountingTau(TauContext):
    """A TauContext that counts each word whose tau det_tau reads."""

    def __post_init__(self):
        super().__post_init__()
        self.reads = Counter()

    def pair(self, word):
        self.reads[word] += 1
        return super().pair(word)

    def tau(self, word):
        self.reads[word] += 1
        return super().tau(word)


@pytest.mark.parametrize("family", ["gaussian", "poly"])
def test_det_tau_reads_each_class_word_once(family):
    # exact blocks are read as pairs, Poly ones as scalars; either way
    # each class word's tau is read once, where the slot fold read the
    # same word once per slot cycle it stood for
    rng = random.Random(f"tau-reads:{family}")
    x = Poly.variable(Symbols(("x",)), "x")
    part = (2, 2) if family == "poly" else (4, 4)
    n = sum(part)
    bm = BlockMatrix(Matrix(n, n, [_typed_entry(rng, family, x) for _ in range(n * n)]), part)
    ctx = _CountingTau(bm.blocks())
    word_matrix = block_word_matrix(bm)
    got = det_tau(word_matrix, ctx)
    assert ctx.reads and max(ctx.reads.values()) == 1
    assert (ctx.d is None) == (family == "poly")
    assert got == prod(map(factorial, part)) * det_oracle(bm.base)
    _, words = word_matrix
    entries = [[words[a][b] for b in bm.slots] for a in bm.slots]
    slot_reads = Counter()
    plain = block_tau_context(bm)

    def slot_weight(cyc):
        word = word_concat(*(entries[i][j] for i, j in zip(cyc, cyc[1:] + cyc[:1])))
        slot_reads[word] += 1
        return plain.tau(word)

    slot_cover_sum([range(n)] * n, slot_weight)
    assert set(slot_reads) >= set(ctx.reads) and max(slot_reads.values()) > 1


def test_det_tau_reads_each_multi_symbol_class_word_once():
    # two-symbol entries on exact blocks are read through tau, not as
    # pairs; tau reads the one kernel itself, so each class word is still
    # read once, and the value is the slot-level array's
    rng = random.Random("tau-reads:words")
    part = (2, 2)
    bm = random_block_matrix(rng, part)
    ctx = _CountingTau(bm.blocks())
    words = [[((a, b), (b, b)) for b in range(2)] for a in range(2)]
    got = det_tau((part, words), ctx)
    assert ctx.d is not None and ctx.reads and max(ctx.reads.values()) == 1
    entries = [[words[a][b] for b in bm.slots] for a in bm.slots]
    assert got == det_tau(([1] * bm.n, entries), block_tau_context(bm))


@pytest.mark.parametrize("family", ["int", "fraction", "gaussian", "mixed"])
def test_tau_on_exact_blocks_is_the_scalar_trace_in_value_and_type(family):
    # tau makes the scalar of its pair, which is the scalar trace kernel's
    # value and type; a pair with no block or no chain reads the int 0
    rng = random.Random(f"tau-scalar:{family}")
    part = (2, 1, 2)
    n = sum(part)
    bm = BlockMatrix(Matrix(n, n, [_typed_entry(rng, family, None) for _ in range(n * n)]), part)
    ctx = block_tau_context(bm)
    assert ctx.d is not None
    scalar = product_traces(bm.blocks())
    names = [(a, b) for a in range(4) for b in range(3)]
    for _ in range(200):
        word = tuple(rng.choice(names) for _ in range(rng.randint(1, 3)))
        try:
            want = scalar(word)
        except (KeyError, ValueError):
            want = 0
        got = ctx.tau(word)
        assert got == want and type(got) is type(want), (word, got, want)


def test_float_cycle_cover_routes_hold_compare_tolerance():
    # 30 sink-free criterion-6 shapes: block-perm, trace-formal and perm on
    # the float Laplacian against Bareiss on the exact rationals of its entries
    rng = random.Random(20240606)
    for _ in range(30):
        q, rep, w, _kappa = _random_submarkov(rng)
        while not all(q.outdeg(v) for v in range(q.p)):
            q, rep, w, _kappa = _random_submarkov(rng)
        lap = build_laplacian(q, rep, w)
        exact = lap.matrix.map(lambda x: GaussianRational(to_complex(x).real,
                                                          to_complex(x).imag))
        want = to_complex(det_oracle(exact))
        tol = FLOAT_ABS_TOL * max(1.0, _hadamard_bound(lap.matrix))
        for got in (det_block_perm(lap.block), det_trace_formal(lap.block),
                    det_perm_traces(lap.matrix)):
            assert scalars_close(got, want, abs_=tol), (got, want)


def test_det_trace_formal_matches_oracle():
    rng = random.Random(107)
    for part in ((1, 1, 1), (2, 1), (2, 2), (3, 2)):
        bm = random_block_matrix(rng, part)
        assert det_trace_formal(bm) == det_oracle(bm.base)


def test_det_trace_formal_block_diagonal():
    rng = random.Random(109)
    a = Matrix(2, 2, [gauss_rat(rng) for _ in range(4)])
    b = Matrix(1, 1, [gauss_rat(rng)])
    rows = [[0] * 3 for _ in range(3)]
    for i in range(2):
        for j in range(2):
            rows[i][j] = a.at(i, j)
    rows[2][2] = b.at(0, 0)
    bm = BlockMatrix(Matrix.from_rows(rows), (2, 1))
    assert det_trace_formal(bm) == det_oracle(a) * det_oracle(b)


def test_scalar_diag_hypothesis_check():
    m = Matrix.from_rows(
        [[Fraction(2), Fraction(1)], [Fraction(0), Fraction(2)]]
    )
    with pytest.raises(HolodetError, match="diagonal block 0"):
        ScalarDiagBlockMatrix.from_block(BlockMatrix(m, (2,)))


def test_det_scalar_diag_single_block():
    z = Fraction(5)
    sd = ScalarDiagBlockMatrix.from_block(
        BlockMatrix(Matrix.identity(3).map(lambda x: z * x), (3,))
    )
    assert det_scalar_diag(sd) == z ** 3


def test_det_scalar_diag_two_by_two():
    rows = [[Fraction(4), Fraction(2)], [Fraction(3), Fraction(5)]]
    sd = ScalarDiagBlockMatrix.from_block(
        BlockMatrix(Matrix.from_rows(rows), (1, 1))
    )
    assert det_scalar_diag(sd) == Fraction(4) * 5 - 2 * 3


def test_det_scalar_diag_matches_oracle():
    rng = random.Random(113)
    for part in ((1, 1), (2, 1), (2, 2), (1, 1, 2), (3, 1)):
        for _ in range(8):
            sd = random_scalar_diag(rng, part)
            assert det_scalar_diag(sd) == det_oracle(sd.block.base)


def test_det_scalar_diag_integral_matches():
    rng = random.Random(127)
    for part in ((1, 1), (2, 1), (2, 2), (2, 2, 1)):
        for _ in range(6):
            sd = random_scalar_diag(rng, part)
            assert det_scalar_diag_integral(sd) == det_oracle(sd.block.base)


def test_integral_coefficients_are_integers():
    from holodet.walks import enumerate_walk_multisets
    from math import factorial

    for part in ((1, 1), (2, 2), (3, 2), (2, 2, 2)):
        nfact = 1
        for na in part:
            nfact *= factorial(na)
        for ms in enumerate_walk_multisets(len(part), part):
            denom = ms.multiplicity_factorial() * ms.valuation_product()
            assert nfact % denom == 0


def test_fold_order_independence():
    # summing the expansion terms in shuffled order changes nothing (exact)
    from holodet.walks import enumerate_walk_multisets
    from holodet.ring import int_div

    rng = random.Random(131)
    sd = random_scalar_diag(rng, (2, 2))
    p = sd.p
    trace = block_walk_traces(sd.block)
    terms = []
    for ms in enumerate_walk_multisets(p, sd.part):
        visits = ms.visits(p)
        term = 1
        for z, n_, v in zip(sd.z, sd.part, visits):
            term = term * z ** (n_ - v)
        for walk, mult in ms:
            w = trace(walk.seq)
            f = int_div((1 if len(walk.seq) % 2 else -1) * w, walk.valuation)
            for _ in range(mult):
                term = term * f
        terms.append(int_div(term, ms.multiplicity_factorial()))
    expected = det_oracle(sd.block.base)
    for _ in range(5):
        rng.shuffle(terms)
        acc = 0
        for t in terms:
            acc = acc + t
        assert acc == expected


def test_gauge_invariance_block_conjugation():
    rng = random.Random(137)
    for _ in range(10):
        part = (2, 1)
        sd = random_scalar_diag(rng, part)
        js = [random_invertible_exact(rng, na) for na in part]
        inv = [j.inv_exact() for j in js]
        n = sum(part)
        offsets = [0, 2, 3]
        rows = [[0] * n for _ in range(n)]
        for a in range(2):
            for b in range(2):
                blk = js[a] * sd.block.block(a, b) * inv[b]
                for i in range(blk.rows):
                    for j_ in range(blk.cols):
                        rows[offsets[a] + i][offsets[b] + j_] = blk.at(i, j_)
        conj = ScalarDiagBlockMatrix.from_block(
            BlockMatrix(Matrix.from_rows(rows), part)
        )
        assert det_scalar_diag(conj) == det_scalar_diag(sd)


def test_charpoly_block_leading_and_constant_terms():
    rng = random.Random(139)
    sd = random_scalar_diag(rng, (2, 1))
    poly = charpoly_block(sd)
    n = sd.n
    # t1^2 t2^1 leading coefficient is 1
    lead = {name: 0 for name in poly.syms.names}
    exps = [0] * len(poly.syms.names)
    exps[poly.syms.index("t1")] = 2
    exps[poly.syms.index("t2")] = 1
    assert poly.terms.get(tuple(exps)) == 1
    # setting every shift to zero recovers the determinant
    at_zero = poly.eval({"t1": 0, "t2": 0})
    assert at_zero == det_scalar_diag(sd)


def _charpoly_block_coefficients(sd):
    """charpoly_block with every shift set to one symbol t, as t^0 .. t^n."""
    t = Poly.variable(Symbols(("t",)), "t")
    spec = charpoly_block(sd).eval({f"t{a + 1}": t for a in range(sd.p)})
    return [spec.terms.get((j,), 0) for j in range(sd.n + 1)]


def test_charpoly_block_matches_oracle_after_specialization():
    rng = random.Random(149)
    for part in ((1, 1), (2, 1), (2, 2)):
        sd = random_scalar_diag(rng, part)
        assert _charpoly_block_coefficients(sd) == charpoly_oracle(sd.block.base)


@pytest.mark.parametrize("part,zero", [
    ((2, 1, 1), {(1, 0), (2, 0), (2, 1)}),  # block upper triangular
    ((2, 2), {(0, 1), (1, 0)}),             # block diagonal
    ((1, 2, 1), {(0, 2), (1, 0), (2, 1)}),  # only the cycle 0 -> 1 -> 2 -> 0
])
def test_block_routes_walk_only_nonzero_blocks(part, zero):
    rng = random.Random(151)
    for _ in range(4):
        sd = random_scalar_diag(rng, part, zero)
        d = det_oracle(sd.block.base)
        assert det_scalar_diag(sd) == d
        assert det_scalar_diag_integral(sd) == d
        assert _charpoly_block_coefficients(sd) == charpoly_oracle(sd.block.base)
        cands = candidate_gcycles(_block_quiver(sd.block), part)
        assert not any(e in zero for c in cands for e in c.edges)
        nonzero = [
            c for c in candidate_gcycles(walk_quiver(sd.p), part)
            if not any(sd.block.is_zero_block(*e) for e in c.edges)
        ]
        assert cands == nonzero


def test_scalar_diag_float_tolerance():
    # deviations within 1e-12 |z| are accepted, larger ones are not
    z = 2.0
    rows = [[z, 0.0, 0.5], [z * 1e-13, z, 0.25], [0.125, 0.0, 3.0]]
    sd = ScalarDiagBlockMatrix.from_block(
        BlockMatrix(Matrix.from_rows(rows), (2, 1))
    )
    assert abs(sd.z[0] - 2.0) == 0
    rows_bad = [[z, 1e-6, 0.5], [0.0, z, 0.25], [0.125, 0.0, 3.0]]
    with pytest.raises(HolodetError):
        ScalarDiagBlockMatrix.from_block(
            BlockMatrix(Matrix.from_rows(rows_bad), (2, 1))
        )
