import random
from fractions import Fraction

import pytest

from _helpers import (
    gauge_transform,
    gauss_rat,
    random_exact_instance,
    random_invertible_exact,
    random_symbolic_instance,
)
from _references import block_walk_traces
from test_acceptance import _random_submarkov
from holodet.blockdet import ScalarDiagBlockMatrix, det_scalar_diag
from holodet.cli import _hadamard_bound
from holodet.errors import ValidationError
from holodet.laplacian import (
    build_laplacian,
    charpoly_laplacian,
    det_laplacian_cycles,
    hol_trace,
    holonomy,
    moment_samples,
    monomial_bound,
    wilson_moment,
)
from holodet import linalg
from holodet.vectorfields import stacks
from holodet.linalg import (
    Matrix,
    charpoly_oracle,
    det_oracle,
    product_traces,
)
from holodet.quiver import Edge, Quiver, Representation, bidirected, gen_example, vertex_z
from holodet.ring import (
    FLOAT_ABS_TOL,
    GaussianRational,
    Poly,
    Symbols,
    int_div,
    scalar_str,
    scalars_close,
    to_complex,
    z_power,
)
from holodet.walks import candidate_gcycles, closed_edge_walks, enumerate_gcycle_multisets


def test_build_two_cycle_matrix():
    q, rep, w = gen_example("two_cycle")
    lap = build_laplacian(q, rep, w)
    syms = w["e1"].syms
    x1, x2, u, v = (Poly.variable(syms, n) for n in syms.names)
    assert lap.matrix == Matrix.from_rows([[x1, -(x1 * u)], [-(x2 * v), x2]])
    assert lap.z == (x1, x2)


def test_build_classical_laplacian_all_units():
    q = Quiver(3, [Edge("a", 0, 1), Edge("b", 1, 2), Edge("c", 2, 0)])
    rep = Representation((1, 1, 1), {k: Matrix(1, 1, [Fraction(1)]) for k in "abc"})
    w = {"a": Fraction(2), "b": Fraction(3), "c": Fraction(5)}
    lap = build_laplacian(q, rep, w)
    assert lap.matrix == Matrix.from_rows(
        [
            [Fraction(2), Fraction(-2), Fraction(0)],
            [Fraction(0), Fraction(3), Fraction(-3)],
            [Fraction(-5), Fraction(0), Fraction(5)],
        ]
    )
    # constant vectors sit in the kernel
    assert det_oracle(lap.matrix) == 0


def test_build_isolated_vertex_gives_zero_det():
    q = Quiver(2, [Edge("e", 0, 1)])
    rep = Representation((1, 2), {"e": Matrix(1, 2, [Fraction(1), Fraction(0)])})
    lap = build_laplacian(q, rep, {"e": Fraction(1)})
    assert lap.z[1] == 0
    assert det_oracle(lap.matrix) == 0
    assert det_laplacian_cycles(lap) == 0


def test_build_propagates_validation():
    q = Quiver(2, [Edge("e", 0, 0)])
    rep = Representation((1, 1), {"e": Matrix(1, 1, [Fraction(1)])})
    with pytest.raises(ValidationError):
        build_laplacian(q, rep, {"e": Fraction(1)})


def test_defining_action_on_basis_vectors():
    # (L f)(v) = sum over edges out of v of x_e (f(v) - U_e f(tgt))
    rng = random.Random(171)
    q, rep, w = random_exact_instance(rng, p_max=3, rank_max=2, edge_max=4)
    lap = build_laplacian(q, rep, w)
    n = sum(rep.ranks)
    offsets = [0]
    for r in rep.ranks:
        offsets.append(offsets[-1] + r)
    for v in range(q.p):
        for i in range(rep.ranks[v]):
            col = offsets[v] + i
            expected = [0] * n
            for e in q.out_edges(v):
                for r_ in range(rep.ranks[v]):
                    expected[offsets[v] + r_] = (
                        expected[offsets[v] + r_]
                        + (w[e.id] if r_ == i else 0)
                    )
            for e in q.in_edges(v):
                u_mat = rep.matrices[e.id]
                for r_ in range(rep.ranks[e.src]):
                    expected[offsets[e.src] + r_] = (
                        expected[offsets[e.src] + r_] - w[e.id] * u_mat.at(r_, i)
                    )
            got = [lap.matrix.at(r_, col) for r_ in range(n)]
            assert all(a == b for a, b in zip(got, expected))


def test_two_cycle_unit_holonomy_determinant_vanishes():
    q = Quiver(2, [Edge("e", 0, 1), Edge("f", 1, 0)])
    rep = Representation((1, 1), {k: Matrix(1, 1, [Fraction(1)]) for k in ("e", "f")})
    w = {"e": Fraction(3), "f": Fraction(4)}
    lap = build_laplacian(q, rep, w)
    assert det_laplacian_cycles(lap) == 0


def test_symbolic_master_two_cycle():
    q, rep, w = gen_example("two_cycle")
    lap = build_laplacian(q, rep, w)
    oracle = det_oracle(lap.matrix)
    assert det_laplacian_cycles(lap) == oracle
    assert scalar_str(oracle) == "x1*x2 - x1*x2*u*v"


def test_cycles_match_oracle_on_random_exact_instances():
    rng = random.Random(173)
    for _ in range(30):
        q, rep, w = random_exact_instance(rng, p_max=4, rank_max=3, edge_max=6,
                                          total_rank_max=6)
        lap = build_laplacian(q, rep, w)
        assert det_laplacian_cycles(lap) == det_oracle(lap.matrix)


@pytest.mark.parametrize("values", ["int", "gaussian-weights", "zero-weights"])
def test_cycles_match_oracle_value_and_type_on_every_weight_kind(values):
    # int and Fraction weights join the int rows of their edge maps; any
    # other exact weight scales the map first.  Int maps with int weights
    # give kind 0, Gaussian-rational weights set from Python kind 2, and
    # zero weights (int 0 and Fraction 0) zero whole maps
    rng = random.Random(f"weight-kinds:{values}")
    for trial in range(25):
        q, rep, w = random_exact_instance(rng, p_max=4, rank_max=2, edge_max=7,
                                          total_rank_max=6)
        if values == "int":
            rep = Representation(rep.ranks, {k: m.map(lambda _: rng.randint(-3, 3))
                                             for k, m in rep.matrices.items()})
            w = {k: rng.randint(-2, 3) for k in w}
        elif values == "gaussian-weights":
            w = {k: gauss_rat(rng) if rng.random() < 0.7 else x for k, x in w.items()}
        else:
            w = {k: rng.choice([0, Fraction(0), x]) if trial else 0 for k, x in w.items()}
        lap = build_laplacian(q, rep, w)
        got, want = det_laplacian_cycles(lap), det_oracle(lap.matrix)
        assert got == want and type(got) is type(want), (values, trial)


def test_exact_cycles_route_converts_each_edge_map_once(monkeypatch):
    # with exact maps and Fraction weights, each edge map goes through
    # gaussian_ints once and the weight joins its ints: no Matrix.scale
    rng = random.Random(191)
    laps = [build_laplacian(*random_exact_instance(rng, p_max=4, rank_max=3, edge_max=6,
                                                   total_rank_max=6)) for _ in range(12)]
    wants = [det_oracle(lap.matrix) for lap in laps]
    calls = []
    real = linalg.gaussian_ints

    def counted(entries):
        calls.append(1)
        return real(entries)

    def no_scale(self, s):
        raise AssertionError("an exact edge map was scaled entry by entry")

    monkeypatch.setattr(linalg, "gaussian_ints", counted)
    monkeypatch.setattr(Matrix, "scale", no_scale)
    for lap, want in zip(laps, wants):
        calls.clear()
        assert det_laplacian_cycles(lap) == want
        assert len(calls) == len(lap.quiver.edges)


def test_cycles_route_scales_each_non_exact_weighted_map_once(monkeypatch):
    # exact_forms turns Poly weights away before it scales or converts any
    # map, so the transfer's own scaling is the only one: one call per edge
    lap = build_laplacian(*random_symbolic_instance(random.Random(3)))
    want = det_oracle(lap.matrix)
    calls = []
    real = Matrix.scale

    def counted(self, s):
        calls.append(s)
        return real(self, s)

    monkeypatch.setattr(Matrix, "scale", counted)
    assert det_laplacian_cycles(lap) == want
    assert len(calls) == len(lap.quiver.edges) == 2


def test_exact_forms_refuse_before_any_scaling_or_conversion(monkeypatch):
    # a Poly or float weight, or a float entry, is turned away by the one
    # exactness test; a Gaussian-rational weight scales its map once
    x = Poly.variable(Symbols(("x",)), "x")
    exact = {"a": Matrix(1, 2, [Fraction(1, 2), 3]), "b": Matrix(2, 1, [1, Fraction(2, 3)])}
    real_scale, real_ints = Matrix.scale, linalg.gaussian_ints
    calls = []

    def scale(self, s):
        calls.append("scale")
        return real_scale(self, s)

    def ints(entries):
        calls.append("ints")
        return real_ints(entries)

    monkeypatch.setattr(Matrix, "scale", scale)
    monkeypatch.setattr(linalg, "gaussian_ints", ints)
    for factors, weights in ((exact, {"a": 2, "b": x}), (exact, {"a": 0.5, "b": 1}),
                             ({"a": Matrix(1, 1, [0.5]), "b": exact["b"]}, None)):
        assert linalg.exact_forms(factors, weights) is None
    assert calls == []
    d, kind, forms = linalg.exact_forms(exact, {"a": GaussianRational(1, 1), "b": Fraction(1, 2)})
    assert calls == ["scale", "ints", "ints"] and kind == 2 and set(forms) == {"a", "b"}


def _complete_digraph(rng, ranks, entry=None):
    entry = entry or (lambda: gauss_rat(rng))
    p = len(ranks)
    q = Quiver(p, [Edge(f"e{a}{b}", a, b) for a in range(p) for b in range(p)
                   if a != b])
    rep = Representation(ranks, {
        e.id: Matrix(ranks[e.src], ranks[e.tgt],
                     [entry() for _ in range(ranks[e.src] * ranks[e.tgt])])
        for e in q.edges
    })
    w = {e.id: Fraction(rng.randint(1, 4), rng.randint(1, 3)) for e in q.edges}
    return q, rep, w


def test_cycles_match_oracle_on_complete_digraph_p7():
    # 5040 multisets of 2365 cycles, folded without listing one
    lap = build_laplacian(*_complete_digraph(random.Random(71), (1,) * 7))
    assert det_laplacian_cycles(lap) == det_oracle(lap.matrix)


def test_cycles_match_oracle_on_complete_digraph_rank2():
    # the (4,2) grid point: 394 cycles with 2x2 Gaussian-rational holonomies
    lap = build_laplacian(*_complete_digraph(random.Random(72), (2, 2, 2, 2)))
    assert det_laplacian_cycles(lap) == det_oracle(lap.matrix)


@pytest.mark.parametrize("ranks", [(2,) * 6, (3,) * 4])
def test_cycles_and_scalar_diag_match_oracle_on_complete_digraph_grid(ranks):
    # 696,992 and 12,106 candidate cycles, which the closed-walk transfer
    # never lists; the enumerative fold took 91 s and 2.8 s here
    lap = build_laplacian(*_complete_digraph(random.Random(7), ranks))
    want = det_oracle(lap.matrix)
    assert det_laplacian_cycles(lap) == want
    assert det_scalar_diag(ScalarDiagBlockMatrix.from_block(lap.block)) == want


def test_charpoly_laplacian_matches_oracle_on_complete_digraph():
    lap = build_laplacian(*_complete_digraph(random.Random(73), (2, 1, 1)))
    poly = charpoly_laplacian(lap)
    t = Poly.variable(Symbols(("t",)), "t")
    spec = poly.eval({f"t{a + 1}": t for a in range(3)})
    got = [spec.terms.get((j,), 0) for j in range(5)]
    assert got == charpoly_oracle(lap.matrix)


def test_product_traces_equal_holonomy_traces():
    # unequal ranks make the edge maps rectangular; candidate cycles run
    # from length 2 up to 6 and share long prefixes
    from holodet.linalg import product_traces
    from holodet.walks import candidate_gcycles

    rng = random.Random(74)
    syms = Symbols(("u", "v"))
    u, v = (Poly.variable(syms, n) for n in syms.names)
    entries = (
        lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        lambda: gauss_rat(rng),
        lambda: rng.randint(-2, 2) * u + rng.randint(-1, 1) * v + rng.randint(-1, 1),
        lambda: complex(rng.gauss(0, 1), rng.gauss(0, 1)),
    )
    for entry in entries:
        q, rep, _ = _complete_digraph(rng, (1, 2, 3), entry)
        cycles = candidate_gcycles(q, rep.ranks)
        assert min(map(len, cycles)) == 2 and max(map(len, cycles)) == 6
        assert any(c.edges[:4] == d.edges[:4] for c in cycles for d in cycles
                   if c != d and len(c) > 4)
        trace = product_traces(rep.matrices)
        for c in cycles:
            want = holonomy(rep, c).trace()
            assert trace(c.edges) == want
            assert type(trace(c.edges)) is type(want)


def test_cycles_match_oracle_float_mode():
    rng = random.Random(303)
    for _ in range(100):
        q, rep, w = random_exact_instance(rng, p_max=4, rank_max=3, edge_max=6,
                                          total_rank_max=6)
        repf = Representation(
            rep.ranks, {k: m.to_complex() for k, m in rep.matrices.items()}
        )
        wf = {k: complex(to_complex(v)) for k, v in w.items()}
        lap = build_laplacian(q, repf, wf)
        got = det_laplacian_cycles(lap)
        want = det_oracle(lap.matrix)
        assert scalars_close(got, want, rel=1e-9)


def test_float_cycles_holds_compare_tolerance_against_exact_targets():
    # 30 sink-free criterion-6 shapes, ranks 1 and 2: the float cycles
    # route against Bareiss on the exact rationals of its float Laplacian,
    # within compare's tolerances; the worst error is 3.9e-16 relative
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
        got = det_laplacian_cycles(lap)
        assert scalars_close(got, want, abs_=tol), (got, want)


def test_json_roundtrip_preserves_determinant():
    from holodet.quiver import instance_from_json, instance_to_json

    rng = random.Random(307)
    for _ in range(10):
        q, rep, w = random_exact_instance(rng, p_max=3, rank_max=2, edge_max=4,
                                          total_rank_max=5)
        lap = build_laplacian(q, rep, w)
        doc = instance_to_json(q, rep, w)
        q2, rep2, w2 = instance_from_json(doc, mode="exact")
        lap2 = build_laplacian(q2, rep2, w2)
        assert det_oracle(lap2.matrix) == det_oracle(lap.matrix)


def test_cycles_match_oracle_symbolically():
    rng = random.Random(179)
    for _ in range(8):
        q, rep, w = random_symbolic_instance(rng, total_rank_max=5)
        lap = build_laplacian(q, rep, w)
        assert det_laplacian_cycles(lap) == det_oracle(lap.matrix)


def test_monomial_bound_bounds_the_symbolic_determinant():
    # det L is homogeneous of degree r_v in v's out-weights, so it has at
    # most monomial_bound terms, and on bidirected rings with these maps
    # exactly that many
    rng = random.Random(181)
    for _ in range(20):
        q, rep, w = random_symbolic_instance(rng, total_rank_max=5)
        det = det_laplacian_cycles(build_laplacian(q, rep, w))
        terms = len(det.terms) if isinstance(det, Poly) else 0
        assert terms <= monomial_bound(q, rep.ranks)
    for n, r, bound in ((6, 1, 2 ** 6), (4, 2, 3 ** 4), (3, 3, 4 ** 3)):
        q = Quiver(n, [Edge(f"e{a}{d}", a if d == "f" else (a + 1) % n,
                            (a + 1) % n if d == "f" else a)
                       for a in range(n) for d in "fr"])
        syms = Symbols(tuple(e.id for e in q.edges))
        rep = Representation((r,) * n, {
            e.id: Matrix(r, r, [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                for _ in range(r * r)])
            for e in q.edges})
        lap = build_laplacian(q, rep, {e.id: Poly.variable(syms, e.id) for e in q.edges})
        assert monomial_bound(q, rep.ranks) == bound
        assert len(det_laplacian_cycles(lap).terms) == bound


def test_edge_level_refinement_of_walk_traces():
    # summing x^e(c) tr hol(c) over cycles projecting to a walk reproduces
    # the blockwise walk trace of the negated Laplacian
    q = Quiver(2, [Edge("e", 0, 1), Edge("f", 0, 1), Edge("g", 1, 0)])
    rng = random.Random(181)
    rep = Representation(
        (2, 2),
        {
            "e": Matrix(2, 2, [Fraction(rng.randint(-2, 2)) for _ in range(4)]),
            "f": Matrix(2, 2, [Fraction(rng.randint(-2, 2)) for _ in range(4)]),
            "g": Matrix(2, 2, [Fraction(rng.randint(-2, 2)) for _ in range(4)]),
        },
    )
    w = {"e": Fraction(2), "f": Fraction(3), "g": Fraction(5)}
    lap = build_laplacian(q, rep, w)
    neg = lap.matrix.map(lambda x: -x)
    from holodet.linalg import BlockMatrix

    neg_block = BlockMatrix(neg, lap.ranks)
    walk = (0, 1)
    lhs = block_walk_traces(neg_block)(walk)
    rhs = 0
    for cyc in closed_edge_walks(q, 2):
        if tuple(cyc.srcs) == walk:
            xprod = 1
            for eid in cyc.edges:
                xprod = xprod * w[eid]
            rhs = rhs + xprod * hol_trace(rep, cyc)
    assert lhs == rhs


def test_charpoly_laplacian_leading_term_and_zero_shift():
    q, rep, w = gen_example("two_cycle")
    lap = build_laplacian(q, rep, w)
    poly = charpoly_laplacian(lap)
    exps = [0] * len(poly.syms.names)
    exps[poly.syms.index("t1")] = 1
    exps[poly.syms.index("t2")] = 1
    assert poly.terms.get(tuple(exps)) == 1
    syms = w["e1"].syms
    assign = {name: Poly.variable(syms, name) for name in syms.names}
    assign["t1"] = Poly.const(syms, 0)
    assign["t2"] = Poly.const(syms, 0)
    assert poly.eval(assign) == det_laplacian_cycles(lap)


def test_parallel_edges_cycle_expansion():
    # two parallel edges with distinct matrices and weights refine the
    # walk-level sum into separate cycles
    q = Quiver(2, [Edge("e", 0, 1), Edge("f", 0, 1), Edge("g", 1, 0)])
    rep = Representation(
        (2, 1),
        {
            "e": Matrix(2, 1, [Fraction(1), Fraction(2)]),
            "f": Matrix(2, 1, [Fraction(-1), Fraction(1, 2)]),
            "g": Matrix(1, 2, [Fraction(3), Fraction(1)]),
        },
    )
    w = {"e": Fraction(2), "f": Fraction(5, 2), "g": Fraction(1, 3)}
    lap = build_laplacian(q, rep, w)
    assert det_laplacian_cycles(lap) == det_oracle(lap.matrix)
    from holodet.vectorfields import det_vector_fields

    assert det_vector_fields(lap) == det_oracle(lap.matrix)


def test_charpoly_shift_symbol_collision_guard():
    q, rep, w = gen_example("two_cycle")
    lap = build_laplacian(q, rep, w)
    from holodet.errors import HolodetError

    with pytest.raises(HolodetError, match="already names"):
        charpoly_laplacian(lap, t_names=("x1", "t2"))


def test_charpoly_laplacian_matches_oracle():
    rng = random.Random(191)
    for _ in range(10):
        q, rep, w = random_exact_instance(rng, p_max=3, rank_max=2, edge_max=4,
                                          total_rank_max=5)
        lap = build_laplacian(q, rep, w)
        poly = charpoly_laplacian(lap)
        single = Symbols(("t",))
        t = Poly.variable(single, "t")
        spec = poly.eval({f"t{a + 1}": t for a in range(q.p)})
        oracle = charpoly_oracle(lap.matrix)
        got = [spec.terms.get((j,), 0) for j in range(sum(rep.ranks) + 1)]
        assert all(a == b for a, b in zip(got, oracle))


def test_gauge_invariance_of_cycle_expansion():
    rng = random.Random(193)
    for _ in range(10):
        q, rep, w = random_exact_instance(rng, p_max=3, rank_max=3, edge_max=5,
                                          total_rank_max=6)
        lap = build_laplacian(q, rep, w)
        base = det_laplacian_cycles(lap)
        js = [random_invertible_exact(rng, r) for r in rep.ranks]
        rep2 = gauge_transform(q, rep, js)
        lap2 = build_laplacian(q, rep2, w)
        assert det_laplacian_cycles(lap2) == base
        assert det_oracle(lap2.matrix) == det_oracle(lap.matrix)


def test_unitary_positivity_of_symbolic_coefficients():
    # symmetric weights: one symbol per bidirected pair
    rng = random.Random(197)
    q, rep, w = bidirected(3, [(0, 1), (1, 2), (0, 2)], rng=rng, rank=1)
    syms = Symbols(tuple(a for a, _ in q.involution))
    wsym = {}
    for a, b in q.involution:
        wsym[a] = Poly.variable(syms, a)
        wsym[b] = Poly.variable(syms, a)
    lap = build_laplacian(q, rep, wsym)
    det = det_oracle(lap.matrix)
    assert isinstance(det, Poly)
    assert not det.is_zero
    for coeff in det.terms.values():
        z = complex(coeff)
        assert z.real >= -1e-10
        assert abs(z.imag) <= 1e-10


def test_wilson_moment_deterministic_distribution():
    q = Quiver(2, [Edge("e", 0, 1), Edge("f", 1, 0)])
    w = {"e": Fraction(2), "f": Fraction(3)}
    dists = {
        "e": [(Fraction(1), Matrix(1, 1, [Fraction(2)]))],
        "f": [(Fraction(1), Matrix(1, 1, [Fraction(1, 2)]))],
    }
    report = wilson_moment(q, w, (1, 1), dists, 1)
    rep = Representation(
        (1, 1),
        {"e": Matrix(1, 1, [Fraction(2)]), "f": Matrix(1, 1, [Fraction(1, 2)])},
    )
    lap = build_laplacian(q, rep, w)
    assert report.lhs == report.rhs == det_laplacian_cycles(lap)


def _multiset_expansion(q, rep, w, multisets):
    """The cycle expansion of det L listed multiset by multiset: z^(n-v)/C!
    times the product of -x^e(c) Tr hol(c) / val(c) over the cycles."""
    z = vertex_z(q, w)
    trace = product_traces(rep.matrices)
    total = 0
    for ms in multisets:
        term = z_power(z, [n - v for n, v in zip(rep.ranks, ms.visits(q.p))])
        for cyc, mult in ms:
            weight = 1
            for eid in cyc.edges:
                weight = weight * w[eid]
            f = int_div(-weight * trace(cyc.edges), cyc.valuation)
            for _ in range(mult):
                term = term * f
        total = total + int_div(term, ms.multiplicity_factorial())
    return total


@pytest.mark.parametrize("k", [1, 2, 3])
def test_moment_samples_sides_are_equal_at_each_representation(k):
    # k = 3 reuses k = 2's draws, which reach 36 multisets
    rng = random.Random(410 if k == 1 else 411)
    sizes = []
    for _ in range(5):
        q, rep, w = random_exact_instance(rng, p_max=3, rank_max=2, edge_max=6,
                                          total_rank_max=4)
        multisets = list(enumerate_gcycle_multisets(q, rep.ranks))
        sizes.append(len(multisets))
        reps = [rep] + [
            Representation(rep.ranks, {
                eid: Matrix(m.rows, m.cols, [gauss_rat(rng) for _ in m.data])
                for eid, m in rep.matrices.items()
            })
            for _ in range(2)
        ]
        stats = {}
        sides = list(moment_samples(q, w, reps, k, stats))
        assert len(sides) == len(reps)
        for (det_k, expansion), r in zip(sides, reps):
            assert det_k == expansion == _multiset_expansion(q, r, w, multisets) ** k
        # the expansion folds one key per visit vector of a cycle
        keys = len({c.visits(q.p) for c in candidate_gcycles(q, rep.ranks)})
        assert stats["keys"] == keys
        dists = {eid: [(Fraction(1), m)] for eid, m in rep.matrices.items()}
        report = wilson_moment(q, w, rep.ranks, dists, k)
        assert report.lhs == report.rhs == sides[0][0]
        assert report.terms == keys ** k
    assert max(sizes) >= 10  # the seeds reach instances with many cycles


def test_wilson_moment_sign_distribution():
    q = Quiver(2, [Edge("e", 0, 1), Edge("f", 1, 0)])
    w = {"e": Fraction(2), "f": Fraction(3)}
    half = Fraction(1, 2)
    dists = {
        "e": [(half, Matrix(1, 1, [Fraction(1)])), (half, Matrix(1, 1, [Fraction(-1)]))],
        "f": [(half, Matrix(1, 1, [Fraction(1)])), (half, Matrix(1, 1, [Fraction(-1)]))],
    }
    r1 = wilson_moment(q, w, (1, 1), dists, 1)
    # E[det] = x1 x2 (1 - E[uv]) = x1 x2
    assert r1.lhs == r1.rhs == Fraction(6)
    r2 = wilson_moment(q, w, (1, 1), dists, 2)
    assert r2.lhs == r2.rhs
    # E[(det)^2] = E[(x1x2)^2 (1-uv)^2] = (x1x2)^2 E[1 - 2uv + 1] = 2 (x1x2)^2
    assert r2.lhs == 2 * Fraction(6) ** 2


def test_wilson_moment_refuses_bad_distributions():
    from holodet.errors import MethodRefusal

    q = Quiver(2, [Edge("e", 0, 1), Edge("f", 1, 0)])
    w = {"e": Fraction(1), "f": Fraction(1)}
    with pytest.raises(MethodRefusal, match="no finite-support"):
        wilson_moment(q, w, (1, 1), {"e": [(Fraction(1), Matrix(1, 1, [Fraction(1)]))]}, 1)
    bad = {
        "e": [(Fraction(1, 3), Matrix(1, 1, [Fraction(1)]))],
        "f": [(Fraction(1), Matrix(1, 1, [Fraction(1)]))],
    }
    with pytest.raises(MethodRefusal, match="sum to 1"):
        wilson_moment(q, w, (1, 1), bad, 1)


def cauchy_binet_decompose(lap):
    """Split det L over stacks (vectorfields.stacks): row r of a stack's
    term is x_e e_r - x_e U_e[i, :] at the target's columns, for the stack's
    edge e at r, r being row i of its block.  Row r of L sums those rows
    over r's out-edges, so the terms, each (stack, det), sum to det L."""
    n = sum(lap.ranks)
    offsets = lap.block.offsets
    terms = []
    for xi in stacks(lap):
        rows = [[0] * n for _ in range(n)]
        for r, eid in enumerate(xi):
            e, w = lap.quiver.edge(eid), lap.weights[eid]
            u_row = lap.rep.matrices[eid].to_rows()[r - offsets[e.src]]
            rows[r][r] = w
            rows[r][offsets[e.tgt]:offsets[e.tgt + 1]] = [-w * u for u in u_row]
        terms.append((xi, det_oracle(Matrix.from_rows(rows))))
    return terms


def test_cauchy_binet_single_selection():
    q = Quiver(2, [Edge("e", 0, 1), Edge("f", 1, 0)])
    rep = Representation(
        (1, 1), {"e": Matrix(1, 1, [Fraction(2)]), "f": Matrix(1, 1, [Fraction(3)])}
    )
    w = {"e": Fraction(1), "f": Fraction(5)}
    lap = build_laplacian(q, rep, w)
    terms = cauchy_binet_decompose(lap)
    assert len(terms) == 1
    assert terms[0][1] == det_oracle(lap.matrix)


def test_cauchy_binet_sums_to_det():
    rng = random.Random(199)
    for _ in range(8):
        q, rep, w = random_exact_instance(rng, p_max=3, rank_max=2, edge_max=4,
                                          total_rank_max=5)
        lap = build_laplacian(q, rep, w)
        total = 0
        for _, term in cauchy_binet_decompose(lap):
            total = total + term
        assert total == det_oracle(lap.matrix)


def test_cauchy_binet_terms_are_keyed_by_stacks():
    # a vertex of rank 3 with three out-edges gives 3^3 stacks, and its
    # partner of rank 1 with one out-edge 1^1: one term per stack, where
    # the overlapping per-edge row subsets gave C(9, 3) = 84 terms
    q = Quiver(2, [Edge("a", 0, 1), Edge("b", 0, 1), Edge("c", 0, 1), Edge("d", 1, 0)])
    rng = random.Random(227)
    ranks = (3, 1)
    rep = Representation(ranks, {
        e.id: Matrix(ranks[e.src], ranks[e.tgt],
                     [gauss_rat(rng) for _ in range(ranks[e.src] * ranks[e.tgt])])
        for e in q.edges})
    lap = build_laplacian(q, rep, {e.id: gauss_rat(rng) for e in q.edges})
    terms = cauchy_binet_decompose(lap)
    assert [xi for xi, _ in terms] == list(stacks(lap))
    assert len(terms) == 3 ** 3 * 1 ** 1
    total = 0
    for _, term in terms:
        total = total + term
    assert total == det_oracle(lap.matrix)


def test_cauchy_binet_unicyclic_term_is_closed_form():
    # outdegree-1 quiver: the unique (full) selection reproduces the
    # weight-power times det(I - holonomy) closed form
    q = Quiver(4, [
        Edge("c0", 0, 1), Edge("c1", 1, 2), Edge("c2", 2, 0), Edge("t3", 3, 0),
    ])
    rng = random.Random(211)
    ranks = (2, 1, 2, 1)
    rep = Representation(ranks, {
        "c0": Matrix(2, 1, [Fraction(1), Fraction(2)]),
        "c1": Matrix(1, 2, [Fraction(-1), Fraction(3)]),
        "c2": Matrix(2, 2, [Fraction(1), Fraction(0), Fraction(1), Fraction(2)]),
        "t3": Matrix(1, 2, [Fraction(1), Fraction(1)]),
    })
    wq = {e.id: Fraction(rng.randint(1, 5)) for e in q.edges}
    lap = build_laplacian(q, rep, wq)
    terms = cauchy_binet_decompose(lap)
    assert len(terms) == 1
    from holodet.walks import prime_finiteness

    cyc = prime_finiteness(q).cycles[0]
    hol = holonomy(rep, cyc)
    closed = det_oracle(Matrix.identity(hol.rows) - hol)
    for e in q.edges:
        closed = closed * wq[e.id] ** ranks[e.src]
    assert terms[0][1] == closed == det_oracle(lap.matrix)
