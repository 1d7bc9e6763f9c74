import itertools
import random
from fractions import Fraction
from math import factorial, prod

import pytest

from _helpers import random_exact_instance, random_symbolic_instance
from _references import vertex_field_sum
from holodet.errors import MethodRefusal
from holodet.laplacian import build_laplacian, det_laplacian_cycles
from holodet.linalg import Matrix, det_oracle
from holodet.quiver import Edge, Quiver, Representation, gen_example
from holodet.ring import GaussianRational, scalar_str
from holodet import vectorfields
from holodet.vectorfields import (
    _chained_terms,
    _sigma_prime_terms,
    det_vector_fields,
    det_vector_fields_variant,
    stacks,
)
from holodet.walks import min_rotation, permutations_within


def det_forman_classic(lap):
    """Rank-one vector-field sum: over assignments of one outgoing edge per
    vertex, the weight monomial times the product of (1 - holonomy) over
    the limit cycles of the assignment."""
    if any(r != 1 for r in lap.ranks):
        raise MethodRefusal("classical vector-field sum requires all ranks 1")
    matrices = lap.rep.matrices
    return vertex_field_sum(lap.quiver, lap.weights,
                            lambda cyc: 1 - prod(matrices[e.id].at(0, 0) for e in cyc))


def _assert_sigma_counts_agree(lap):
    """At every stack xi, |Sigma'(xi)| equals the sum over well-chained
    sigma of the product of factorials of unmoved slots per block."""
    bl = lap.block.slots
    for xi in stacks(lap):
        targets = tuple(lap.quiver.edge(eid).tgt for eid in xi)
        assert (sum(stat for stat, _ in _sigma_prime_terms(bl, targets))
                == sum(stat for stat, _ in _chained_terms(bl, lap.ranks, targets)))


def test_two_cycle_vector_fields():
    q, rep, w = gen_example("two_cycle")
    lap = build_laplacian(q, rep, w)
    oracle = det_oracle(lap.matrix)
    assert det_vector_fields(lap) == oracle
    assert det_forman_classic(lap) == oracle


def test_rank_one_reduces_to_forman():
    rng = random.Random(217)
    for _ in range(10):
        while True:
            q, rep, w = random_exact_instance(rng, p_max=4, rank_max=1,
                                              edge_max=5, total_rank_max=4)
            if all(r == 1 for r in rep.ranks):
                break
        lap = build_laplacian(q, rep, w)
        assert det_forman_classic(lap) == det_vector_fields(lap) == det_oracle(lap.matrix)


def test_vector_fields_matches_oracle_random():
    rng = random.Random(223)
    for _ in range(15):
        q, rep, w = random_exact_instance(rng, p_max=3, rank_max=2, edge_max=4,
                                          total_rank_max=5, vf_cost_max=50_000)
        lap = build_laplacian(q, rep, w)
        assert det_vector_fields(lap) == det_oracle(lap.matrix)


def test_vector_fields_symbolic():
    rng = random.Random(227)
    for _ in range(5):
        q, rep, w = random_symbolic_instance(rng, p_max=3, rank_max=2,
                                             total_rank_max=4, vf_cost_max=20_000)
        lap = build_laplacian(q, rep, w)
        oracle = det_oracle(lap.matrix)
        assert det_vector_fields(lap) == oracle
        assert det_laplacian_cycles(lap) == oracle


def test_variants_agree_with_base_sum():
    rng = random.Random(229)
    for _ in range(10):
        q, rep, w = random_exact_instance(rng, p_max=3, rank_max=2, edge_max=4,
                                          total_rank_max=4, vf_cost_max=20_000)
        lap = build_laplacian(q, rep, w)
        oracle = det_oracle(lap.matrix)
        assert det_vector_fields(lap) == oracle
        assert det_vector_fields_variant(lap, "sigma_prime") == oracle
        assert det_vector_fields_variant(lap, "beta") == oracle


_ENTRIES = {
    "int": lambda rng: rng.randint(-3, 3),
    "fraction": lambda rng: Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
    "gaussian": lambda rng: GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                                             Fraction(rng.randint(-3, 3), rng.randint(1, 4))),
}
_WEIGHTS = {
    "int": lambda rng: rng.randint(1, 4),
    "fraction": lambda rng: Fraction(rng.randint(1, 4), rng.randint(1, 3)),
    # complex weights, which only the Python API takes
    "gaussian": lambda rng: GaussianRational(Fraction(rng.randint(1, 4), rng.randint(1, 3)),
                                             rng.choice([-2, -1, 1, 2])),
}
# (quiver, ranks): a rank-3 block; a vertex with no out-edge, so no
# stack; and two cycles joined by one edge 1 -> 2 that lies on none
_VF_SHAPES = {
    "rank3": (Quiver(3, [Edge("a", 0, 1), Edge("b", 0, 2), Edge("c", 1, 2),
                         Edge("d", 2, 0), Edge("e", 2, 1)]), (1, 2, 3)),
    "sink": (Quiver(3, [Edge("a", 0, 1), Edge("b", 1, 0), Edge("c", 1, 2)]), (2, 1, 1)),
    "bridge": (Quiver(4, [Edge("a", 0, 1), Edge("b", 1, 0), Edge("c", 1, 2),
                          Edge("d", 2, 3), Edge("e", 3, 2)]), (1, 2, 1, 1)),
}


def _vf_instance(rng, shape, entry, weight, bridge=None):
    """A Laplacian of the shape with every map entry drawn by entry and
    every weight by weight; the bridge edge's map, if given, by bridge."""
    q, ranks = _VF_SHAPES[shape]
    draw = lambda e: _ENTRIES[bridge if e.id == "c" and bridge else entry]
    mats = {e.id: Matrix(ranks[e.src], ranks[e.tgt],
                         [draw(e)(rng) for _ in range(ranks[e.src] * ranks[e.tgt])])
            for e in q.edges}
    return build_laplacian(q, Representation(ranks, mats),
                           {e.id: _WEIGHTS[weight](rng) for e in q.edges})


_SUMS = (det_vector_fields,
         lambda lap: det_vector_fields_variant(lap, "sigma_prime"),
         lambda lap: det_vector_fields_variant(lap, "beta"))


@pytest.mark.parametrize("shape, entry, weight, bridge", [
    *(("rank3", e, w, None) for e in _ENTRIES for w in _WEIGHTS),
    ("sink", "gaussian", "gaussian", None),
    ("bridge", "int", "int", "gaussian"),
    ("bridge", "fraction", "int", "gaussian"),
    ("bridge", "int", "gaussian", "fraction"),
])
def test_exact_stack_sums_match_the_scalar_sum(monkeypatch, shape, entry, weight, bridge):
    # the Gaussian-integer sum gives the value, type and text of the
    # scalar loop, which runs when exact_factors turns the maps away; a
    # map on no cycle is never read, so it widens no type
    rng = random.Random(f"{shape}{entry}{weight}{bridge}")
    lap = _vf_instance(rng, shape, entry, weight, bridge)
    want = det_oracle(lap.matrix)
    ran = []
    exact = vectorfields._exact_stack_sum
    monkeypatch.setattr(vectorfields, "_exact_stack_sum", lambda *a: ran.append(a) or exact(*a))
    got = [f(lap) for f in _SUMS]
    assert len(ran) == (0 if shape == "sink" else 3)
    monkeypatch.setattr(vectorfields, "exact_factors", lambda _: False)
    scalar = [f(lap) for f in _SUMS]
    for g, s in zip(got, scalar):
        assert g == s == want
        assert type(g) is type(s)
        assert scalar_str(g) == scalar_str(s)
    if shape == "sink":
        assert got == [0, 0, 0]
    elif bridge == "gaussian":
        assert type(got[0]) is Fraction


def test_rank_one_sigma_prime_equals_sigma():
    # with all ranks 1 no stationary cycle beyond fixed points is possible
    rng = random.Random(233)
    while True:
        q, rep, w = random_exact_instance(rng, p_max=3, rank_max=1, edge_max=4,
                                          total_rank_max=3)
        if all(r == 1 for r in rep.ranks) and all(q.outdeg(v) for v in range(q.p)):
            break
    _assert_sigma_counts_agree(build_laplacian(q, rep, w))


def test_sigma_prime_counting_identity():
    rng = random.Random(239)
    for _ in range(6):
        q, rep, w = random_exact_instance(rng, p_max=3, rank_max=2, edge_max=3,
                                          total_rank_max=4, vf_cost_max=10_000)
        if not all(q.outdeg(v) for v in range(q.p)):
            continue
        _assert_sigma_counts_agree(build_laplacian(q, rep, w))


def test_fiber_grouping_of_stack_pairs():
    # grouping (stack, permutation) pairs by their edge-multiset and cycle
    # image reproduces the counted coefficient
    q = Quiver(2, [Edge("e", 0, 1), Edge("f", 1, 0)])
    rep = Representation(
        (2, 1),
        {"e": Matrix(2, 1, [Fraction(1), Fraction(2)]),
         "f": Matrix(1, 2, [Fraction(3), Fraction(-1)])},
    )
    w = {"e": Fraction(1), "f": Fraction(1)}
    lap = build_laplacian(q, rep, w)
    bl = (0, 0, 1)
    n = 3
    tgt = {"e": 1, "f": 0}
    fibers = {}
    out_ids = [("e",), ("e",), ("f",)]
    for xi in itertools.product(*out_ids):
        # well-chained: slot i stays or moves into the block xi[i] points to
        allowed = [[j for j in range(n) if j == i or bl[j] == tgt[xi[i]]]
                   for i in range(n)]
        for perm, cycles, _sign in permutations_within(allowed):
            edge_multiset = tuple(sorted(xi))
            moved_cycles = []
            for cyc in cycles:
                if len(cyc) > 1:
                    # cycles project to the multiset of their edge sequences
                    # up to rotation
                    moved_cycles.append(min_rotation(tuple(xi[i] for i in cyc)))
            key = (edge_multiset, tuple(sorted(moved_cycles)))
            fibers[key] = fibers.get(key, 0) + 1
    # every fiber size equals prod(n_a!) / ((X minus cycle edges)! C! prod val)
    for (edges_used, cycles_img), size in fibers.items():
        cyc_edge_count = {}
        cms_fact = 1
        seen = {}
        val_prod = 1
        for cimg in cycles_img:
            seen[cimg] = seen.get(cimg, 0) + 1
            k = len(cimg)
            rot = sum(
                1 for r in range(k) if cimg[r:] + cimg[:r] == cimg
            )
            val_prod *= rot
            for eid in cimg:
                cyc_edge_count[eid] = cyc_edge_count.get(eid, 0) + 1
        for m in seen.values():
            cms_fact *= factorial(m)
        leftover = {}
        for eid in edges_used:
            leftover[eid] = leftover.get(eid, 0) + 1
        for eid, c in cyc_edge_count.items():
            leftover[eid] -= c
        leftover_fact = 1
        for c in leftover.values():
            leftover_fact *= factorial(c)
        expect = (factorial(2) * factorial(1)) // (leftover_fact * cms_fact * val_prod)
        assert size == expect


def test_budget_refusal():
    q, rep, w = gen_example("two_cycle")
    lap = build_laplacian(q, rep, w)
    with pytest.raises(MethodRefusal, match="budget"):
        det_vector_fields(lap, budget=1)
    with pytest.raises(MethodRefusal):
        det_vector_fields_variant(lap, "beta", budget=1)


def test_forman_requires_rank_one():
    q = Quiver(2, [Edge("e", 0, 1), Edge("f", 1, 0)])
    rep = Representation(
        (2, 2),
        {"e": Matrix.identity(2).map(Fraction), "f": Matrix.identity(2).map(Fraction)},
    )
    lap = build_laplacian(q, rep, {"e": Fraction(1), "f": Fraction(1)})
    with pytest.raises(MethodRefusal):
        det_forman_classic(lap)


def test_forman_isolated_vertex_is_zero():
    q = Quiver(2, [Edge("e", 0, 1)])
    rep = Representation((1, 1), {"e": Matrix(1, 1, [Fraction(1)])})
    lap = build_laplacian(q, rep, {"e": Fraction(2)})
    assert det_forman_classic(lap) == 0
    assert det_vector_fields(lap) == 0
    assert det_oracle(lap.matrix) == 0


def test_forman_unit_holonomy_bidirected_triangle():
    # unit holonomies on a strongly connected graph leave constants in the
    # kernel, so every route returns zero
    edges = []
    k = 0
    for u, v in ((0, 1), (1, 2), (2, 0)):
        edges.append(Edge(f"a{k}", u, v))
        edges.append(Edge(f"b{k}", v, u))
        k += 1
    q = Quiver(3, edges)
    rep = Representation(
        (1, 1, 1), {e.id: Matrix(1, 1, [Fraction(1)]) for e in edges}
    )
    w = {e.id: Fraction(i + 1) for i, e in enumerate(edges)}
    lap = build_laplacian(q, rep, w)
    assert det_forman_classic(lap) == 0
    assert det_oracle(lap.matrix) == 0
