import itertools
import random
from fractions import Fraction

import pytest

from _helpers import gauss_rat, random_exact_instance, random_quiver
from holodet import linalg
from holodet.blockdet import det_block_perm, det_perm_traces
from holodet.errors import HolodetError, MethodRefusal
from holodet.laplacian import build_laplacian
from holodet.linalg import (
    BlockMatrix,
    GaussianMatrix,
    Matrix,
    charpoly_oracle,
    block_walk_traces,
    det_oracle,
    product_traces,
)
from holodet.quiver import Representation
from holodet.ring import GaussianRational, Poly, Symbols, scalars_close, to_complex
from holodet.vectorfields import det_vector_fields
from holodet.walks import CyclicWalk


def test_det_identity_and_permutation():
    assert det_oracle(Matrix.identity(3)) == 1
    assert det_oracle(Matrix.from_rows([[0, 1], [1, 0]])) == -1


def test_det_rejects_non_square():
    with pytest.raises(HolodetError):
        det_oracle(Matrix.zeros(2, 3))


def test_det_symbolic_two_cycle():
    syms = Symbols(("x1", "x2", "u", "v"))
    x1, x2, u, v = (Poly.variable(syms, n) for n in syms.names)
    m = Matrix.from_rows([[x1, -(x1 * u)], [-(x2 * v), x2]])
    assert det_oracle(m) == x1 * x2 - x1 * x2 * u * v


def test_det_poly_cap():
    syms = Symbols(("x",))
    x = Poly.variable(syms, "x")
    big = Matrix.from_rows(
        [[x if i == j else 0 for j in range(9)] for i in range(9)]
    )
    with pytest.raises(MethodRefusal):
        det_oracle(big)


def test_det_exact_matches_float_embedding():
    rng = random.Random(23)
    for _ in range(100):
        m = Matrix(6, 6, [gauss_rat(rng) for _ in range(36)])
        exact = det_oracle(m)
        approx = det_oracle(m.to_complex())
        assert scalars_close(exact, approx)


def test_det_bareiss_singular():
    m = Matrix.from_rows(
        [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    )
    assert det_oracle(m) == 0


def test_charpoly_trivial_cases():
    assert charpoly_oracle(Matrix.zeros(2, 2)) == [0, 0, 1]
    assert charpoly_oracle(Matrix.identity(2)) == [1, 2, 1]
    assert charpoly_oracle(Matrix.from_rows([[2, 0], [0, 3]])) == [6, 5, 1]


def test_charpoly_constant_term_is_det():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = Matrix(n, n, [gauss_rat(rng) for _ in range(n * n)])
        coeffs = charpoly_oracle(m)
        assert coeffs[0] == det_oracle(m)
        assert coeffs[n] == 1


def test_walk_trace_zero_block():
    m = Matrix.from_rows([[3, 0], [5, 7]])
    bm = BlockMatrix(m, (1, 1))
    assert block_walk_traces(bm)((0, 1)) == 0


def test_walk_trace_scalar_blocks():
    m = Matrix.from_rows([[0, 4], [9, 0]])
    bm = BlockMatrix(m, (1, 1))
    assert block_walk_traces(bm)((0, 1)) == 36


def test_walk_trace_rotation_invariance():
    rng = random.Random(31)
    for _ in range(40):
        part = tuple(rng.randint(1, 2) for _ in range(3))
        n = sum(part)
        bm = BlockMatrix(Matrix(n, n, [gauss_rat(rng) for _ in range(n * n)]), part)
        length = rng.randint(2, 6)
        seq = [rng.randrange(3)]
        while len(seq) < length:
            nxt = rng.randrange(3)
            if nxt != seq[-1] and not (len(seq) == length - 1 and nxt == seq[0]):
                seq.append(nxt)
        seq = tuple(seq)
        trace = block_walk_traces(bm)
        for r in range(len(seq)):
            rotated = seq[r:] + seq[:r]
            assert trace(rotated) == trace(seq)
        assert trace(CyclicWalk(seq).seq) == trace(seq)


def _left_to_right_trace(mats, seq):
    prod = mats[seq[0]]
    for key in seq[1:]:
        prod = prod * mats[key]
    return prod.trace()


def test_product_traces_equal_full_products_exactly():
    # chained shapes 1 -> 2 -> 3 -> 2 -> 1 and back, so most factors are
    # rectangular; the sequences share prefixes of every length
    rng = random.Random(41)
    shapes = {"a": (1, 2), "b": (2, 3), "c": (3, 2), "d": (2, 1), "e": (2, 2),
              "f": (1, 1), "g": (2, 1)}
    seqs = [("f",), ("a", "d"), ("a", "e", "d"), ("a", "b", "c", "d"),
            ("a", "b", "c", "e", "d"), ("a", "b", "c", "e", "e", "d"),
            ("a", "b", "c", "g"), ("e",), ("e", "e")]
    for entry in (lambda: gauss_rat(rng),
                  lambda: complex(rng.gauss(0, 1), rng.gauss(0, 1)),
                  lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4))):
        mats = {k: Matrix(r, c, [entry() for _ in range(r * c)])
                for k, (r, c) in shapes.items()}
        trace = product_traces(mats)
        for seq in seqs:
            assert trace(seq) == _left_to_right_trace(mats, seq)
            assert type(trace(seq)) is type(_left_to_right_trace(mats, seq))


def test_product_traces_share_prefix_products(monkeypatch):
    # each proper prefix is multiplied once and each sequence closed once,
    # over exact factors (GaussianMatrix) and float ones (Matrix) alike
    seqs = [((0, 1, 2, 3), ["__mul__", "__mul__", "close"]),
            ((0, 1, 2, 4), ["close"]),
            ((0, 1, 5), ["close"]),
            ((0, 1, 5), []),
            ((0, 1, 2, 3, 4), ["__mul__", "close"])]
    for entry, kind in ((int, GaussianMatrix), (float, Matrix)):
        mats = {k: Matrix(2, 2, [entry(x) for x in (k, 1, 0, k)]) for k in range(6)}
        wants = [_left_to_right_trace(mats, seq) for seq, _ in seqs]
        calls = []
        with monkeypatch.context() as patch:
            for name in ("__mul__", "close"):
                def counted(self, other, name=name, real=getattr(kind, name)):
                    calls.append(name)
                    return real(self, other)
                patch.setattr(kind, name, counted)
            trace = product_traces(mats)
            for (seq, products), want in zip(seqs, wants):
                calls.clear()
                assert trace(seq) == want
                assert calls == products, (entry, seq)


def test_product_traces_refuse_a_product_without_trace():
    mats = {"a": Matrix(1, 2, [1, 2]), "b": Matrix(2, 2, [1, 0, 0, 1])}
    trace = product_traces(mats)
    with pytest.raises(ValueError):
        trace(("a", "b"))
    with pytest.raises(ValueError):
        trace(("b", "b", "a"))


def _exact_entry(rng, family):
    """A random exact scalar: an int, a Fraction or a GaussianRational for
    "mixed", the same with no imaginary parts for "real", an int for "int"."""
    if family == "int":
        return rng.randint(-4, 4)
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-4, 4)
    if kind == 1:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 6))
    re = Fraction(rng.randint(-4, 4), rng.randint(1, 6))
    im = 0 if family == "real" else Fraction(rng.randint(-3, 3), rng.randint(1, 6))
    return GaussianRational(re, im)


def _closed_sequences(rng, shapes, count):
    """count closed key sequences over factors of the given shapes, each
    one a walk from the rows of its first factor back to them; most extend
    a prefix of an earlier one."""
    by_rows = {}
    for key, (r, _) in shapes.items():
        by_rows.setdefault(r, []).append(key)
    seqs = []
    while len(seqs) < count:
        if seqs and rng.random() < 0.7:
            base = rng.choice(seqs)
            seq = list(base[:rng.randint(1, len(base))])
        else:
            seq = [rng.choice(sorted(shapes))]
        while len(seq) < 7 and (shapes[seq[-1]][1] != shapes[seq[0]][0]
                                or rng.random() < 0.6):
            seq.append(rng.choice(by_rows[shapes[seq[-1]][1]]))
        if shapes[seq[-1]][1] == shapes[seq[0]][0]:
            seqs.append(tuple(seq))
    return seqs


@pytest.mark.parametrize("family", ["mixed", "real", "int"])
def test_product_traces_exact_chains_match_left_to_right(family):
    # rectangular factors of every shape up to 3x3, two per shape, one of
    # them zero; sequences chain them and share prefixes
    rng = random.Random(f"exact-traces:{family}")
    for _ in range(6):
        shapes = {(r, c, j): (r, c) for r in (1, 2, 3) for c in (1, 2, 3) for j in (0, 1)}
        mats = {key: Matrix(r, c, [_exact_entry(rng, family) for _ in range(r * c)])
                for key, (r, c) in shapes.items()}
        mats[(2, 3, 1)] = Matrix(2, 3, [0] * 6)
        trace = product_traces(mats)
        for seq in _closed_sequences(rng, shapes, 60):
            want = _left_to_right_trace(mats, seq)
            got = trace(seq)
            assert got == want, seq
            assert type(got) is type(want), seq


def test_product_traces_mixed_exact_and_complex_stay_bit_identical():
    rng = random.Random(43)
    mats = {
        "x": Matrix(2, 2, [Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(4)]),
        "y": Matrix(2, 2, [rng.randint(-5, 5) for _ in range(4)]),
        "z": Matrix(2, 2, [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]),
    }
    trace = product_traces(mats)
    for seq in [("x", "y"), ("x", "y", "z"), ("x", "z", "y"), ("z", "x", "y", "x"),
                ("x", "y", "x", "z"), ("y", "y", "z", "x")]:
        want = _left_to_right_trace(mats, seq)
        got = trace(seq)
        assert type(got) is type(want)
        assert repr(got) == repr(want), seq
    assert type(trace(("x", "y"))) is Fraction


def _coefficient_types(x):
    return {e: type(c) for e, c in x.terms.items()} if isinstance(x, Poly) else None


def test_product_traces_mixed_exact_and_poly_keep_the_dense_types():
    # int and Fraction factors beside a Poly factor with GaussianRational
    # coefficients (and int entries): the Poly factor makes every product
    # a Matrix product, sequences through exact factors only included, so
    # each value, type and coefficient type is the dense product's
    rng = random.Random(59)
    syms = Symbols(("x", "y"))
    x, y = (Poly.variable(syms, n) for n in syms.names)
    mats = {
        "i": Matrix(2, 2, [rng.randint(-4, 4) for _ in range(4)]),
        "j": Matrix(2, 2, [3, 0, rng.randint(-4, 4), 1]),
        # a Fraction column and an int one
        "f": Matrix(2, 2, [Fraction(rng.randint(-4, 4), 3), rng.randint(-4, 4),
                           Fraction(rng.randint(-4, 4), 2), rng.randint(-4, 4)]),
        "p": Matrix(2, 2, [gauss_rat(rng) * x + gauss_rat(rng) * y, 0,
                           gauss_rat(rng) * x * y, -3]),
        "q": Matrix(2, 2, [0, gauss_rat(rng) * y, 2, -1]),
    }
    trace = product_traces(mats)
    seqs = [seq for n in range(1, 5) for seq in itertools.product(sorted(mats), repeat=n)]
    rng.shuffle(seqs)
    for seq in seqs:
        want = _left_to_right_trace(mats, seq)
        got = trace(seq)
        assert got == want, seq
        assert type(got) is type(want), seq
        assert _coefficient_types(got) == _coefficient_types(want), seq
    assert {type(trace(seq)) for seq in seqs} == {int, Fraction, Poly}


def test_det_perm_traces_takes_no_dense_product_when_exact(monkeypatch):
    rng = random.Random(47)
    m = Matrix(5, 5, [gauss_rat(rng) for _ in range(25)])
    want = det_oracle(m)

    def no_dense_product(self, other):
        raise AssertionError("exact powers fell back to Matrix.__mul__")

    monkeypatch.setattr(Matrix, "__mul__", no_dense_product)
    assert det_perm_traces(m) == want


def test_float_factor_sets_take_no_exact_conversion(monkeypatch):
    # a float Laplacian's zero blocks hold int 0 beside float blocks: the
    # factor set is not exact as a whole, so no factor becomes a
    # GaussianMatrix
    rng = random.Random(53)
    laps = []
    for _ in range(12):
        q, rep, w = random_exact_instance(rng, p_max=3, rank_max=2, edge_max=5,
                                          total_rank_max=5, vf_cost_max=20000)
        repf = Representation(rep.ranks, {k: m.to_complex() for k, m in rep.matrices.items()})
        laps.append(build_laplacian(q, repf, {k: complex(to_complex(v)) for k, v in w.items()}))
    wants = [det_oracle(lap.matrix) for lap in laps]

    def no_conversion(*_):
        raise AssertionError("a float factor set was converted to exact form")

    monkeypatch.setattr(linalg, "exact_form", no_conversion)
    monkeypatch.setattr(linalg, "gaussian_ints", no_conversion)
    for lap, want in zip(laps, wants):
        assert scalars_close(det_block_perm(lap.block), want, rel=1e-9)
        assert scalars_close(det_vector_fields(lap), want, rel=1e-9)


def test_symbolic_routes_take_no_fraction_arithmetic(monkeypatch):
    # a 4x4 Laplacian with rational edge maps and one symbol per edge: its
    # Poly entries multiply and add as int numerators over one denominator
    rng = random.Random(53)
    q = random_quiver(rng, 2, 3)
    mats = {
        e.id: Matrix(2, 2, [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                            for _ in range(4)])
        for e in q.edges
    }
    syms = Symbols(tuple(e.id for e in q.edges))
    weights = {e.id: Poly.variable(syms, e.id) for e in q.edges}
    lap = build_laplacian(q, Representation((2, 2), mats), weights)
    want = det_oracle(lap.matrix)
    assert any(type(c) is Fraction for c in want.terms.values())

    def no_fraction_arithmetic(self, other):
        raise AssertionError("a Poly coefficient took Fraction arithmetic")

    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Fraction, name, no_fraction_arithmetic)
    assert det_perm_traces(lap.matrix) == want
    assert det_oracle(lap.matrix) == want


def test_block_matrix_partition_checks():
    with pytest.raises(HolodetError):
        BlockMatrix(Matrix.identity(3), (2, 2))
    bm = BlockMatrix(Matrix.identity(3), (2, 1))
    assert [bm.bl(i) for i in range(3)] == [0, 0, 1]
    assert bm.block(0, 0) == Matrix.identity(2)


def test_inv_exact_roundtrip():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(1, 3)
        while True:
            m = Matrix(n, n, [gauss_rat(rng) for _ in range(n * n)])
            if det_oracle(m) != 0:
                break
        prod = m * m.inv_exact()
        assert prod == Matrix.identity(n).map(lambda x: GaussianRational(x))
