import itertools
import random
from fractions import Fraction
from math import factorial, prod

import pytest
from _helpers import gauss_rat
from _references import closed_walk_factors, slot_cover_sum, vertex_fields

from holodet.errors import HolodetError
from holodet.linalg import Matrix, det_oracle, min_rotation, product_traces
from holodet.quiver import Edge, Quiver, gen_example
from holodet.ring import (
    GaussianRational,
    Poly,
    Symbols,
    gaussian_ints,
    gaussian_scalar,
    int_div,
    scalars_close,
)
from holodet import walks
from holodet.walks import (
    PERM_SUM_CAP,
    CycleMultiset,
    CyclicWalk,
    GCycle,
    candidate_gcycles,
    closed_edge_walks,
    cycle_cover_sum,
    cycle_series,
    enumerate_gcycle_multisets,
    enumerate_walk_multisets,
    fold_refusal,
    fold_work,
    permutations_within,
    prime_cycles,
    prime_finiteness,
    walk_quiver,
)


def test_valuation_examples():
    assert CyclicWalk((1, 2, 1, 2)).valuation == 2
    assert CyclicWalk((1, 2, 1, 3)).valuation == 1


def test_walk_rejects_bad_sequences():
    with pytest.raises(HolodetError):
        CyclicWalk((1,))
    with pytest.raises(HolodetError):
        CyclicWalk((1, 1, 2))
    with pytest.raises(HolodetError):
        CyclicWalk((1, 2, 3, 1))  # wrap pair equal
    for p, bound in ((2, (1,)), (3, (1, 1)), (2, (2, -1))):
        with pytest.raises(HolodetError, match="bad visit bound"):
            enumerate_walk_multisets(p, bound)


def test_canonicalization_idempotent_under_rotation():
    rng = random.Random(3)
    for _ in range(60):
        k = rng.randint(2, 7)
        seq = [rng.randrange(4)]
        while len(seq) < k:
            nxt = rng.randrange(4)
            if nxt != seq[-1] and not (len(seq) == k - 1 and nxt == seq[0]):
                seq.append(nxt)
        w = CyclicWalk(tuple(seq))
        for r in range(k):
            assert CyclicWalk(tuple(seq[r:] + seq[:r])) == w


def _power(c, m):
    """The cycle c run m times."""
    return GCycle(c.edges * m, c.srcs * m)


def _prime_root(c):
    """The cycle of valuation 1 whose valuation(c)-th power is c."""
    period = len(c) // c.valuation
    return GCycle(c.edges[:period], c.srcs[:period])


def test_power_and_prime_root():
    w = CyclicWalk((1, 2))
    assert _power(w, 2) == CyclicWalk((1, 2, 1, 2))
    assert _power(w, 1) == w
    for m in range(1, 5):
        assert _power(w, m).valuation == m


def test_unique_prime_factorization():
    rng = random.Random(5)
    seen = 0
    for _ in range(300):
        k = rng.randint(2, 8)
        seq = [rng.randrange(3)]
        while len(seq) < k:
            nxt = rng.randrange(3)
            if nxt != seq[-1] and not (len(seq) == k - 1 and nxt == seq[0]):
                seq.append(nxt)
        w = CyclicWalk(tuple(seq))
        root = _prime_root(w)
        assert root.valuation == 1
        assert _power(root, w.valuation) == w
        assert len(w) % len(root) == 0
        seen += 1
    assert seen == 300


def test_walk_multisets_small_bounds():
    got = list(enumerate_walk_multisets(2, (1, 1)))
    assert len(got) == 2
    assert CycleMultiset() in got
    assert CycleMultiset(((CyclicWalk((0, 1)), 1),)) in got

    assert list(enumerate_walk_multisets(1, (5,))) == [CycleMultiset()]

    got = list(enumerate_walk_multisets(2, (2, 2)))
    repeated = CycleMultiset(((CyclicWalk((0, 1)), 2),))
    doubled = CycleMultiset(((CyclicWalk((0, 1, 0, 1)), 1),))
    assert repeated in got and doubled in got
    assert len(set(got)) == len(got) == 4


def _brute_force_walks(p, bound):
    """Every vertex sequence with distinct adjacent entries, the wrap
    included, in minimal rotation and within the visit bound."""
    out = []
    for k in range(2, sum(bound) + 1):
        for seq in itertools.product(range(p), repeat=k):
            if any(seq[i] == seq[(i + 1) % k] for i in range(k)):
                continue
            if seq == min_rotation(seq) and all(
                seq.count(a) <= b for a, b in enumerate(bound)
            ):
                out.append(seq)
    return sorted(out, key=lambda seq: (len(seq), seq))


@pytest.mark.parametrize("p,bound", [(1, (4,)), (2, (3, 3)), (3, (2, 2, 2)),
                                     (3, (3, 2, 1)), (3, (0, 2, 2)),
                                     (4, (2, 1, 2, 1)), (4, (1, 1, 1, 1))])
def test_walk_quiver_cycles_match_brute_force(p, bound):
    want = _brute_force_walks(p, bound)
    got = candidate_gcycles(walk_quiver(p), bound)
    assert [c.seq for c in got] == want
    assert got == [CyclicWalk(seq) for seq in want]


def test_cycle_search_builds_each_cycle_once(monkeypatch):
    q = walk_quiver(3)
    builds = []
    canonical = GCycle._canonical

    def counting_canonical(edges, srcs):
        builds.append(edges)
        return canonical(edges, srcs)

    def no_init(self, edge_ids, src_vertices):
        raise AssertionError("the search rotated a cycle it found")

    monkeypatch.setattr(GCycle, "_canonical", counting_canonical)
    monkeypatch.setattr(GCycle, "__init__", no_init)
    got = candidate_gcycles(q, (2, 2, 2))
    assert len(builds) == len(set(got)) == len(got)
    # rotations of one cycle through its least vertex more than once, as
    # (0 1 0 2) and (0 2 0 1), are built once, from the least of them
    assert any(c.srcs.count(0) == 2 for c in got)


def _closed_walks_reference(q, max_len, budget=None, primes=False):
    """(edges, srcs, valuation) of every closed edge walk of length 2 to
    max_len, from every edge, rotated by min_rotation and deduplicated,
    within the visit budget and of valuation 1 when primes is set."""
    by_id = {e.id: e for e in q.edges}
    found = {}
    walks = [[e.id] for e in q.edges]
    while walks:
        walk = walks.pop()
        if len(walk) >= 2 and by_id[walk[-1]].tgt == by_id[walk[0]].src:
            edges = min_rotation(tuple(walk))
            found[edges] = sum(edges[r:] + edges[:r] == edges for r in range(len(edges)))
        if len(walk) < max_len:
            walks.extend(walk + [e.id] for e in q.out_edges(by_id[walk[-1]].tgt))
    out = []
    for edges, val in sorted(found.items(), key=lambda kv: (len(kv[0]), kv[0])):
        srcs = tuple(by_id[i].src for i in edges)
        if budget is not None and any(srcs.count(a) > b for a, b in enumerate(budget)):
            continue
        if val == 1 or not primes:
            out.append((edges, srcs, val))
    return out


def test_cycle_search_matches_closed_walk_reference():
    rng = random.Random(4242)
    for case in range(100):
        p = rng.randint(2, 4)
        edges = []
        for i in range(rng.randint(p, 2 * p + 2)):
            src = rng.randrange(p)
            tgt = rng.choice([t for t in range(p) if t != src])
            edges.append(Edge(f"{rng.choice('abcdefgh')}{i}", src, tgt))
        # a parallel copy of an edge under another id
        twin = rng.choice(edges)
        edges.append(Edge(f"{twin.id}'", twin.src, twin.tgt))
        q = Quiver(p, edges)
        max_len = rng.randint(2, 6)
        kwargs = [{}, {"primes": True},
                  {"vertex_budget": tuple(rng.randint(0, 3) for _ in range(p))}][case % 3]
        got = closed_edge_walks(q, max_len, **kwargs)
        want = _closed_walks_reference(q, max_len, kwargs.get("vertex_budget"),
                                       kwargs.get("primes", False))
        assert [(c.edges, c.srcs, c.valuation) for c in got] == want, (case, kwargs)


def test_searched_cycles_are_their_least_rotations():
    # the search builds its cycles without rotating them: each, periodic
    # ones included, is what __init__ makes of its edges and sources
    rng = random.Random(2207)
    periodic = 0
    for case in range(60):
        p = rng.randint(2, 4)
        edges = []
        for i in range(rng.randint(p, 2 * p + 2)):
            src = rng.randrange(p)
            tgt = rng.choice([t for t in range(p) if t != src])
            edges.append(Edge(f"{rng.choice('abcdefgh')}{i}", src, tgt))
        q = Quiver(p, edges)
        for primes in (False, True):
            for c in closed_edge_walks(q, rng.randint(2, 7), primes=primes):
                rotated = GCycle(c.edges, c.srcs)
                assert (c.edges, c.srcs) == (rotated.edges, rotated.srcs), case
                assert type(c.edges) is type(c.srcs) is tuple
                periodic += c.valuation > 1
    assert periodic


def test_prime_search_keeps_valuation_one():
    q = Quiver(3, [Edge("a", 0, 1), Edge("b", 0, 1), Edge("c", 1, 0),
                   Edge("d", 1, 2), Edge("e", 2, 0)])
    every = closed_edge_walks(q, 9)
    for c in every:
        rotations = sum(1 for r in range(len(c))
                        if c.edges[r:] + c.edges[:r] == c.edges)
        assert c.valuation == rotations
    primes = closed_edge_walks(q, 9, primes=True)
    assert primes == prime_cycles(q, 9) == [c for c in every if c.valuation == 1]
    assert len(primes) < len(every)


def test_prime_count_matches_the_prime_search():
    # no self-loops, so every prime has length >= 2, as the search yields
    # them; parallel edges count as distinct letters
    rng = random.Random(3511)
    for case in range(40):
        p = rng.randint(2, 4)
        edges = []
        for i in range(rng.randint(p, 2 * p + 2)):
            src = rng.randrange(p)
            tgt = rng.choice([t for t in range(p) if t != src])
            edges.append(Edge(f"e{i}", src, tgt))
        twin = rng.choice(edges)
        edges.append(Edge(f"{twin.id}'", twin.src, twin.tgt))
        q = Quiver(p, edges)
        max_len = rng.randint(2, 7)
        counts = [0] * (max_len + 1)
        for c in closed_edge_walks(q, max_len, primes=True):
            counts[len(c)] += 1
        total = 0
        for k in range(2, max_len + 1):
            # below the count at length k, the count reaches past it there
            if counts[k]:
                assert walks.prime_count_past(q, max_len, total + counts[k] - 1) == (k, total + counts[k]), case
            total += counts[k]
        assert walks.prime_count_past(q, max_len, total) is None, case


def test_prime_search_refuses_once_the_primes_pass_its_budget(monkeypatch, capsys):
    # a random instance whose primes of length <= 50 pass 2,000,000: with
    # the budget at 6,400 the search counts them after 100 states and
    # refuses then, with one count, not after pushing all 6,400
    import json
    from holodet import cli
    monkeypatch.setattr(walks, "PRIME_SEARCH_NODES", 6400)
    counted = []
    count = walks.prime_count_past
    monkeypatch.setattr(walks, "prime_count_past", lambda *a: counted.append(a) or count(*a))
    yielded = []
    search = walks.cycle_words

    def cycle_words(*args, **kwargs):
        for word, shared in search(*args, **kwargs):
            yielded.append(len(word))
            yield word, shared
    monkeypatch.setattr("holodet.euler.cycle_words", cycle_words)
    argv = ["det", "--method", "euler-truncated", "--mode", "float", "--kappa", "4",
            "--example", "random", "--seed", "1"]
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    error = json.loads(err)["error"]
    assert out == "" and error["type"] == "refusal"
    assert error["message"].startswith("cycle search would exceed its node budget of 6400: ")
    assert len(counted) == 1 and len(yielded) < 100
    # a search that pushes past 100 states but has one prime counts it
    # and goes on to answer
    q = Quiver(2, [Edge("a", 0, 1), Edge("b", 1, 0)])
    assert [c.edges for c in prime_cycles(q, 300)] == [("a", "b")]
    assert len(counted) == 2


def test_prime_count_costs_no_more_than_the_search_left(monkeypatch, capsys):
    # two_cycle has one prime: its search pushes about max_len states, and
    # its count, at 31,250 of them, forms no power at all
    from holodet import cli
    products = []
    product = walks.int_product
    monkeypatch.setattr(walks, "int_product", lambda *a: products.append(1) or product(*a))
    counted = []
    count = walks.prime_count_past
    monkeypatch.setattr(walks, "prime_count_past", lambda *a: counted.append(a) or count(*a))
    argv = ["primes", "--example", "two_cycle", "--mode", "symbolic", "--max-len", "100000"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "e1,e2\n"
    assert len(counted) == 1 and products == []
    # a doubled 2-cycle has 2^(k/2)/k or so primes of length k: counted in
    # full it passes 2,000,000 at length 50; held to work 100 it forms a
    # few powers and gives up, the p^3 = 8 a length costs it counted
    q = Quiver(2, [Edge("a", 0, 1), Edge("a'", 0, 1), Edge("b", 1, 0)])
    assert count(q, 10 ** 6, 2_000_000) == (50, 2_807_196)
    del products[:]
    assert count(q, 10 ** 6, 2_000_000, 100) is None
    assert 0 < len(products) <= 100 // 8


def test_walk_quiver_filter_and_edges():
    q = walk_quiver(3, lambda a, b: b == (a + 1) % 3)
    assert [(e.id, e.src, e.tgt) for e in q.edges] == [
        ((0, 1), 0, 1), ((1, 2), 1, 2), ((2, 0), 2, 0),
    ]
    assert candidate_gcycles(q, (2, 2, 2)) == [
        CyclicWalk((0, 1, 2)), CyclicWalk((0, 1, 2) * 2),
    ]
    w = CyclicWalk((2, 0, 1))
    assert w.seq == (0, 1, 2) and w.edges == ((0, 1), (1, 2), (2, 0))


def _brute_force_multiset_count(p, bound):
    """Multisets via combinations-with-replacement over candidates, with a
    final bound filter; mechanically different from the streaming path."""
    cands = candidate_gcycles(walk_quiver(p), bound)
    total = sum(bound)
    count = 0
    max_size = total // 2
    for size in range(0, max_size + 1):
        for combo in itertools.combinations_with_replacement(cands, size):
            visits = [0] * p
            for w in combo:
                for a, v in enumerate(w.visits(p)):
                    visits[a] += v
            if all(v <= b for v, b in zip(visits, bound)):
                count += 1
    return count


@pytest.mark.parametrize("p,bound", [(2, (1, 1)), (2, (2, 2)), (2, (3, 3)),
                                     (3, (1, 1, 1)), (3, (2, 2, 2)),
                                     (3, (3, 2, 1)), (3, (2, 2, 1))])
def test_walk_multisets_match_brute_force(p, bound):
    stream = list(enumerate_walk_multisets(p, bound))
    assert len(set(stream)) == len(stream)
    assert len(stream) == _brute_force_multiset_count(p, bound)


def test_gcycle_stream_partitions_compatible_walk_stream():
    # projecting each cycle multiset to vertex walks groups the cycle
    # stream into fibers indexed exactly by the compatible walk multisets
    q = two_parallel_quiver()
    bound = (2, 2)
    fibers = {}
    for ms in enumerate_gcycle_multisets(q, bound):
        projected = []
        for cyc, mult in ms:
            projected.extend([min_rotation(cyc.srcs)] * mult)
        fibers.setdefault(tuple(sorted(projected)), []).append(ms)
    compatible = set()
    for ms in enumerate_walk_multisets(2, bound):
        seqs = []
        ok = True
        for walk, mult in ms:
            k = len(walk.seq)
            for i in range(k):
                u, v = walk.seq[i], walk.seq[(i + 1) % k]
                if not any(e.tgt == v for e in q.out_edges(u)):
                    ok = False
            seqs.extend([walk.seq] * mult)
        if ok:
            compatible.add(tuple(sorted(seqs)))
    assert set(fibers) == compatible
    total = sum(len(v) for v in fibers.values())
    assert total == len(list(enumerate_gcycle_multisets(q, bound)))


def two_parallel_quiver():
    return Quiver(2, [Edge("e", 0, 1), Edge("f", 0, 1), Edge("g", 1, 0)])


def test_gcycle_multisets_hand_counts():
    q, _, _ = gen_example("acyclic")
    assert list(enumerate_gcycle_multisets(q, (2, 1, 2))) == [CycleMultiset()]

    q = two_parallel_quiver()
    got = set(enumerate_gcycle_multisets(q, (1, 1)))
    eg = GCycle(("e", "g"), (0, 1))
    fg = GCycle(("f", "g"), (0, 1))
    assert got == {
        CycleMultiset(),
        CycleMultiset(((eg, 1),)),
        CycleMultiset(((fg, 1),)),
    }


def _fold_quiver():
    """Two parallel edges 0 -> 2, the way back, a detour 2 -> 3 -> 0 and a
    2-cycle through vertex 1."""
    return Quiver(4, [Edge("a1", 0, 2), Edge("a2", 0, 2), Edge("b", 2, 0),
                      Edge("c", 2, 3), Edge("d", 3, 0),
                      Edge("e", 0, 1), Edge("f", 1, 0)])


def _multiset_sums(quiver, bound, factor):
    """sum over the multisets within bound of prod f_c^m / m!, by visit
    vector, listed one multiset at a time."""
    want = {}
    for ms in enumerate_gcycle_multisets(quiver, bound):
        term = 1
        for c, mult in ms:
            for _ in range(mult):
                term = term * factor(c)
        v = ms.visits(quiver.p)
        want[v] = want.get(v, 0) + int_div(term, ms.multiplicity_factorial())
    return want


def _factor_sums(cycles, p, factor):
    """{u: sum of factor(c)} over the cycles c visiting u."""
    out = {}
    for c in cycles:
        u = c.visits(p)
        out[u] = out.get(u, 0) + factor(c)
    return out


# a bound of 7 fills a 3-bit field under its guard; 8 needs a 4-bit field
@pytest.mark.parametrize("bound", [(7, 0, 8, 0), (8, 2, 2, 1), (7, 1, 4, 0),
                                   (4, 0, 7, 1), (0, 0, 0, 0)])
def test_visit_exponential_matches_multiset_sums(bound):
    q = _fold_quiver()
    rng = random.Random(f"fold:{bound}")
    cycles = candidate_gcycles(q, bound)
    values = {c: gauss_rat(rng) for c in cycles}
    got = visit_series(_factor_sums(cycles, q.p, values.__getitem__), bound).coefficients()
    want = _multiset_sums(q, bound, values.__getitem__)
    assert set(got) == set(want)
    assert all(got[v] == want[v] for v in want)


def test_visit_exponential_matches_multiset_sums_over_poly():
    q = _fold_quiver()
    bound = (3, 1, 7, 1)
    syms = Symbols(("x", "y"))
    x, y = Poly.variable(syms, "x"), Poly.variable(syms, "y")
    rng = random.Random(13)
    cycles = candidate_gcycles(q, bound)
    values = {c: rng.randint(-3, 3) * x ** len(c) + rng.randint(-2, 2) * y
              for c in cycles}
    got = visit_series(_factor_sums(cycles, q.p, values.__getitem__), bound).coefficients()
    want = _multiset_sums(q, bound, values.__getitem__)
    assert set(got) == set(want)
    assert all(got[v] == want[v] for v in want)


def _complete_quiver(p):
    return Quiver(p, [Edge(f"e{a}{b}", a, b) for a in range(p) for b in range(p)
                      if a != b])


_ENTRIES = {
    "int": lambda rng, syms: rng.randint(-3, 3),
    "gaussian": lambda rng, syms: gauss_rat(rng),
    "fraction": lambda rng, syms: Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
    "poly": lambda rng, syms: (rng.randint(-2, 2) * Poly.variable(syms, "s")
                               + Fraction(rng.randint(-2, 2), rng.randint(1, 2))),
    "float": lambda rng, syms: complex(rng.gauss(0, 1), rng.gauss(0, 1)),
}


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
@pytest.mark.parametrize("quiver,ranks,bound,zero", [
    # parallel edges, cycles of valuation 2 and 3, and every cycle through
    # vertex 3 with trace 0
    (_fold_quiver(), (2, 1, 2, 1), (3, 2, 3, 1), "d"),
    (_fold_quiver(), (1, 2, 1, 2), (2, 3, 2, 2), None),
    (_complete_quiver(3), (2, 1, 1), (2, 2, 1), None),
    (_complete_quiver(4), (1, 1, 1, 1), (2, 2, 1, 1), "e30"),
])
def test_closed_walk_factors_match_cycle_sums(quiver, ranks, bound, zero, entry):
    """The transfer's {u: F_u} against -Tr(x_e1 U_e1 ... x_ek U_ek) / val(c)
    summed over candidate_gcycles by visit vector, each holonomy formed in
    full: equal key sets, zero sums included, and equal values (floats
    within tolerance)."""
    rng = random.Random(f"walks:{ranks}:{bound}:{entry}")
    syms = Symbols(("s", "t"))
    mats = {e.id: Matrix(ranks[e.src], ranks[e.tgt],
                         [0 if e.id == zero else _ENTRIES[entry](rng, syms)
                          for _ in range(ranks[e.src] * ranks[e.tgt])])
            for e in quiver.edges}
    weights = {e.id: (Poly.variable(syms, "t") + rng.randint(1, 3) if entry == "poly"
                      else rng.randint(1, 3) if entry == "int"
                      else Fraction(rng.randint(1, 4), rng.randint(1, 3)))
               for e in quiver.edges}

    def factor(c):
        hol = mats[c.edges[0]].scale(weights[c.edges[0]])
        for eid in c.edges[1:]:
            hol = hol * mats[eid].scale(weights[eid])
        return int_div(-hol.trace(), c.valuation)

    cycles = candidate_gcycles(quiver, bound)
    want = _factor_sums(cycles, quiver.p, factor)
    got = closed_walk_factors(
        quiver, bound, {eid: m.scale(-weights[eid]) for eid, m in mats.items()})
    assert set(got) == set(want)
    assert any(c.valuation > 1 for c in cycles)
    if zero is not None:
        assert any(f == 0 for f in want.values())
    if entry == "float":
        assert all(scalars_close(got[u], want[u]) for u in want)
    else:
        assert all(got[u] == want[u] for u in want)


def visit_series(factors, bound):
    """exp(sum_u F_u y^u) over the visit box prod_a [0, bound_a], for
    factors = {u: F_u}, as a VisitSeries.  Exact factors all of one ring
    (GaussianRational, or int and Fraction) fold as Gaussian integers over
    the lcm lam of their denominators, s_u = |u| lam^|u| F_u; any other
    mix folds as scalars, since a cell's type then depends on which
    factors reach it."""
    bound = tuple(bound)
    values = list(factors.values())
    got = (gaussian_ints(values)
           if len({type(f) is GaussianRational for f in values}) < 2 else None)
    if got is None:
        return walks._dense_series({u: sum(u) * f for u, f in factors.items()}, bound)
    lam, re, im, kind = got
    scaled = {}
    for u, a, b in zip(factors, re, im or [0] * len(re)):
        c = sum(u) * (lam ** sum(u) // lam)
        scaled[u] = c * a, c * b
    return walks._exact_series(scaled, bound, lam, max(1, kind))


def _visit_exponential_reference(factors, bound):
    """G_v of exp(sum_u F_u y^u) as the fold once formed it: the whole box
    walked in index order, and every key pulled at every cell, each term
    f * g a scalar product, so that each G_v is int_div(sum, |v|)."""
    p = len(bound)
    cells = itertools.product(*(range(b + 1) for b in bound))
    zero = next(cells)
    out = {zero: int_div(1, 1)}
    if not factors:
        return out
    width = max(bound).bit_length() + 1
    shifts = [width * (p - 1 - a) for a in range(p)]
    top = 1 << (width - 1)
    scaled = sorted(((sum(x << s for x, s in zip(u, shifts)), sum(u) * f)
                     for u, f in factors.items()), key=lambda uf: uf[0], reverse=True)
    keys = map(sum, itertools.product(
        *([(top | x) << s for x in range(b + 1)] for b, s in zip(bound, shifts))))
    reached = {next(keys): out[zero]}
    for v, key in zip(cells, keys):
        terms = [f * g for u, f in scaled if (g := reached.get(key - u)) is not None]
        if terms:
            reached[key] = out[v] = int_div(sum(terms), sum(v))
    return out


def _visit_sum_reference(series, zs, bound):
    """sum_v G_v prod_a z_a^(bound_a - v_a), one scalar product at a time."""
    powers = [[1] for _ in zs]
    for pw, z, n in zip(powers, zs, bound):
        while len(pw) <= n:
            pw.append(pw[-1] * z)
    total = 0
    for v, g in series.items():
        for pw, n, a in zip(powers, bound, v):
            if n > a:
                g = g * pw[n - a]
        total = total + g
    return total


def _same(got, want):
    """Equal key sets in equal order, and equal values of equal types."""
    assert list(got) == list(want)
    for v in want:
        assert type(got[v]) is type(want[v]), v
        assert got[v] == want[v], v


_SCALARS = {
    "int": lambda rng, syms: rng.randint(-3, 3),
    "fraction": lambda rng, syms: Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
    "gaussian": lambda rng, syms: gauss_rat(rng),
    "float": lambda rng, syms: complex(rng.gauss(0, 1), rng.gauss(0, 1)),
    "poly": lambda rng, syms: (rng.randint(-2, 2) * Poly.variable(syms, "s")
                               + Fraction(rng.randint(-2, 2), rng.randint(1, 2))),
    # a cell's type then depends on the factors that reach it
    "mixed": lambda rng, syms: rng.choice([gauss_rat(rng), Fraction(rng.randint(1, 3), 2)]),
}


def _vertex_zs(rng, entry, bound, syms):
    """One z per vertex, of the entry's family; beside rational factors an
    int 0 stands for a sink, an int for an integral weight sum, and a
    GaussianRational widens the sum's type."""
    if entry in ("int", "fraction", "mixed"):
        return tuple(rng.choice([0, rng.randint(1, 3), Fraction(rng.randint(1, 5), 3),
                                 gauss_rat(rng)])
                     for _ in bound)
    return tuple(_SCALARS[entry](rng, syms) for _ in bound)


# a bound of 7 fills a 3-bit field under its guard; rank-1 boxes of 2^10
# and 2^12 cells with a few keys are walked as closures
_FOLD_BOUNDS = [(7, 0, 3, 1), (3, 3), (1,) * 6, (2, 5, 1), (4, 1, 1, 2, 0),
                (1,) * 10, (7,), (2, 1) * 4]


@pytest.mark.parametrize("pulls", ["measured", "sub-box, closure", "keys, box"])
@pytest.mark.parametrize("entry", sorted(_SCALARS))
def test_visit_series_matches_reference_fold(monkeypatch, entry, pulls):
    """Seeded factor sets, sparse and dense, against the whole-box fold:
    equal key sets, values and value types, floats bit for bit, and the
    visit sum likewise, whichever pull and walk the fold takes."""
    if pulls != "measured":
        cost = 0 if pulls.startswith("sub-box") else float("inf")
        monkeypatch.setattr(walks, "SUBBOX_COST", cost)
        monkeypatch.setattr(walks, "BOX_WALK_RATIO", cost)
    rng = random.Random(f"fold:{entry}")
    syms = Symbols(("s",))
    for bound in _FOLD_BOUNDS:
        box = [v for v in itertools.product(*(range(b + 1) for b in bound)) if any(v)]
        for dense in (True, False):
            keys = ([v for v in box if rng.random() < 0.7] if dense and len(box) < 400
                    else rng.sample(box, min(len(box), rng.randint(1, 4))))
            factors = {u: _SCALARS[entry](rng, syms) for u in keys}
            series = visit_series(factors, bound)
            want = _visit_exponential_reference(factors, bound)
            got = series.coefficients()
            _same(got, want)
            assert series.keys == len(factors)
            zs = _vertex_zs(rng, entry, bound, syms)
            total = series.visit_sum(zs)
            ref = _visit_sum_reference(want, zs, bound)
            assert type(total) is type(ref) and total == ref


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
@pytest.mark.parametrize("quiver,ranks,bound", [
    (_fold_quiver(), (2, 1, 2, 1), (3, 2, 3, 1)),
    (_complete_quiver(3), (2, 1, 1), (2, 2, 1)),
    (_complete_quiver(4), (1, 1, 1, 1), (2, 2, 1, 1)),
    (_complete_quiver(5), (1,) * 5, (1,) * 5),
])
def test_cycle_series_matches_reference_fold(quiver, ranks, bound, entry):
    """The transfer's totals, folded without forming F_u, against the
    whole-box fold of closed_walk_factors: equal cells, values and types,
    and an equal visit sum."""
    rng = random.Random(f"series:{bound}:{entry}")
    syms = Symbols(("s",))
    maps = {e.id: Matrix(ranks[e.src], ranks[e.tgt],
                         [_ENTRIES[entry](rng, syms)
                          for _ in range(ranks[e.src] * ranks[e.tgt])])
            for e in quiver.edges}
    factors = closed_walk_factors(quiver, bound, maps)
    want = _visit_exponential_reference(factors, bound)
    series = cycle_series(quiver, bound, maps)
    _same(series.coefficients(), want)
    assert series.keys == len(factors)
    family = {"gaussian": "gaussian", "float": "float", "poly": "poly"}.get(entry, "fraction")
    zs = _vertex_zs(rng, family, bound, syms)
    total = series.visit_sum(zs)
    ref = _visit_sum_reference(want, zs, bound)
    assert type(total) is type(ref) and total == ref


def _relabelled(quiver, perm):
    """The quiver with vertex a renamed perm[a], edge ids and order kept."""
    return Quiver(quiver.p, [Edge(e.id, perm[e.src], perm[e.tgt]) for e in quiver.edges])


@pytest.mark.parametrize("entry", ["gaussian", "fraction", "poly"])
def test_transfer_is_invariant_under_vertex_relabelling(entry):
    """Seeded quivers with parallel edges, zero bounds and tied or distinct
    bounds: relabelling the vertices moves which vertex roots each visit
    vector, but with the keys mapped back the factors and the folded
    series are equal."""
    rng = random.Random(f"relabel:{entry}")
    syms = Symbols(("s",))
    shapes = 0
    while shapes < 12:
        p = rng.randint(2, 4)
        edges = []
        for i in range(rng.randint(p, 2 * p + 2)):
            src = rng.randrange(p)
            tgt = rng.choice([b for b in range(p) if b != src])
            edges.append(Edge(f"e{i}", src, tgt))
            if rng.random() < 0.3:
                edges.append(Edge(f"e{i}'", src, tgt))
        quiver = Quiver(p, edges)
        ranks = tuple(rng.randint(1, 3) for _ in range(p))
        bound = tuple(rng.choice([0, r, r, 3 - r]) if shapes % 3 else 2 for r in ranks)
        maps = {e.id: Matrix(ranks[e.src], ranks[e.tgt],
                             [_ENTRIES[entry](rng, syms)
                              for _ in range(ranks[e.src] * ranks[e.tgt])])
                for e in quiver.edges}
        want = closed_walk_factors(quiver, bound, maps)
        if not want:
            continue
        shapes += 1
        want_series = cycle_series(quiver, bound, maps).coefficients()
        for perm in rng.sample(list(itertools.permutations(range(p))), min(4, factorial(p))):
            moved = _relabelled(quiver, perm)
            moved_bound = tuple(bound[perm.index(b)] for b in range(p))

            def back(v):
                return tuple(v[perm[a]] for a in range(p))

            got = closed_walk_factors(moved, moved_bound, maps)
            assert {back(u): f for u, f in got.items()} == want
            series = cycle_series(moved, moved_bound, maps).coefficients()
            assert {back(v): g for v, g in series.items()} == want_series


def test_transfer_products_do_not_depend_on_vertex_labels(monkeypatch):
    # on a complete digraph of ranks (3, 2, 1) every labelling roots each
    # visit vector at its lowest-rank vertex, so each takes the same 9
    # int products (linalg.int_product); rooting at the least index took
    # 9 to 22, depending on the labelling
    rng = random.Random(71)
    ranks = (3, 2, 1)
    calls = []
    real = walks.int_product

    def counted(rows, cols):
        calls.append(1)
        return real(rows, cols)

    monkeypatch.setattr(walks, "int_product", counted)
    counts = set()
    for perm in itertools.permutations(range(3)):
        moved = tuple(ranks[perm.index(b)] for b in range(3))
        quiver = _complete_quiver(3)
        maps = {e.id: Matrix(moved[e.src], moved[e.tgt],
                             [gauss_rat(rng) for _ in range(moved[e.src] * moved[e.tgt])])
                for e in quiver.edges}
        calls.clear()
        closed_walk_factors(quiver, moved, maps)
        counts.add(len(calls))
    assert counts == {9}


def test_fold_work_counts_cells_and_the_smaller_pull():
    # three keys on a box of 3 x 2 x 2 cells: walked whole, each cell
    # pulling the smaller of 3 keys and its sub-box below it
    keys = [(1, 1, 0), (0, 1, 1), (2, 0, 1)]
    want = sum(1 + min(3, (a + 1) * (b + 1) * (c + 1) - 1)
               for a in range(3) for b in range(2) for c in range(2))
    assert fold_work(keys, (2, 1, 1)) == want
    # a rank-1 ring's one key reaches one cell past 0, whatever the box
    assert fold_work([(1,) * 40], (1,) * 40) == 1 + 2
    assert fold_work([(1,) * 40], (1,) * 40, cap=2) == 3


def test_fold_refusal_admits_by_closed_form_and_counts_the_rest():
    # complete (2,)*8: every cell pulling its whole sub-box is 6^8 steps,
    # within the cap, so nothing is counted; (2,)*9 counts and refuses
    assert walks._pull_bound((2,) * 8) <= walks.FOLD_WORK_CAP
    assert fold_refusal(_complete_quiver(8), (2,) * 8) is None
    assert fold_refusal(_complete_quiver(9), (2,) * 9).endswith(
        f"counting them passed {walks.COUNT_STATE_CAP} transfer states")
    ring = Quiver(40, [Edge(f"e{a}", a, (a + 1) % 40) for a in range(40)])
    assert walks._pull_bound((1,) * 40) > walks.FOLD_WORK_CAP
    assert fold_refusal(ring, (1,) * 40) is None


def test_gcycle_multisets_figure5_all_ones():
    q, _, _ = gen_example("figure5")
    got = list(enumerate_gcycle_multisets(q, (1,) * 8))
    assert len(got) == 4
    sizes = sorted(sum(m for _, m in ms) for ms in got)
    assert sizes == [0, 1, 1, 2]


def test_gcycle_projection_refines_walks():
    q = two_parallel_quiver()
    eg = GCycle(("e", "g"), (0, 1))
    assert CyclicWalk(eg.srcs) == CyclicWalk((0, 1))
    assert eg.visits(2) == (1, 1)


def test_prime_cycles_two_cycle_quiver():
    q = Quiver(2, [Edge("e", 0, 1), Edge("g", 1, 0)])
    got = prime_cycles(q, 6)
    assert got == [GCycle(("e", "g"), (0, 1))]
    # powers are excluded by valuation
    all_cycles = closed_edge_walks(q, 6)
    assert len(all_cycles) == 3  # lengths 2, 4, 6


def test_prime_cycles_figure5():
    q, _, _ = gen_example("figure5")
    got = prime_cycles(q, 20)
    assert len(got) == 2
    assert {tuple(c.srcs) for c in got} == {(0, 1, 2, 3), (4, 5, 6, 7)}


def test_prime_cycles_acyclic_empty():
    q, _, _ = gen_example("acyclic")
    assert prime_cycles(q, 10) == []


def test_prime_finiteness_families():
    q, _, _ = gen_example("figure5")
    fin = prime_finiteness(q)
    assert fin.finite and len(fin.cycles) == 2

    q, _, _ = gen_example("unicyclic")
    fin = prime_finiteness(q)
    assert fin.finite and len(fin.cycles) == 1

    q, _, _ = gen_example("acyclic")
    fin = prime_finiteness(q)
    assert fin.finite and fin.cycles == ()

    # two simple cycles sharing a vertex: infinitely many primes
    q = Quiver(3, [
        Edge("a", 0, 1), Edge("b", 1, 0), Edge("c", 1, 2), Edge("d", 2, 1),
    ])
    fin = prime_finiteness(q)
    assert not fin.finite
    # witness: a non-simple prime cycle exists
    assert any(
        c.valuation == 1 and len(set(c.srcs)) < len(c.srcs)
        for c in prime_cycles(q, 8)
    )


def test_prime_finiteness_matches_brute_force_enumeration():
    rng = random.Random(41)
    for _ in range(40):
        p = rng.randint(2, 4)
        edges = []
        for i in range(rng.randint(1, 5)):
            src = rng.randrange(p)
            tgt = rng.randrange(p)
            while tgt == src:
                tgt = rng.randrange(p)
            edges.append(Edge(f"e{i}", src, tgt))
        q = Quiver(p, edges)
        fin = prime_finiteness(q)
        primes12 = prime_cycles(q, 12)
        if fin.finite:
            assert sorted(fin.cycles, key=lambda c: c.sort_key) == primes12
        else:
            simple_count = len([c for c in primes12 if len(set(c.srcs)) == len(c.srcs)])
            assert len(primes12) > simple_count


def test_prime_finiteness_components_and_parallel_edges():
    # two 2-cycles joined by a one-way edge: two components, each one cycle
    q = Quiver(4, [
        Edge("a", 0, 1), Edge("b", 1, 0), Edge("c", 1, 2),
        Edge("d", 2, 3), Edge("e", 3, 2),
    ])
    fin = prime_finiteness(q)
    assert fin.finite
    assert [c.edges for c in fin.cycles] == [("a", "b"), ("d", "e")]

    # a doubled edge next to its reverse: two 2-cycles through one pair
    q = Quiver(2, [Edge("a", 0, 1), Edge("a2", 0, 1), Edge("b", 1, 0)])
    assert not prime_finiteness(q).finite


def test_prime_finiteness_deep_cycle_and_path():
    # deeper than Python's recursion limit, so the component pass must
    # not recurse
    p = 20_000
    ring = Quiver(p, [Edge(f"e{v}", v, (v + 1) % p) for v in range(p)])
    fin = prime_finiteness(ring)
    assert fin.finite and len(fin.cycles) == 1
    assert fin.cycles[0].srcs == tuple(range(p))

    path = Quiver(p, [Edge(f"e{v}", v, v + 1) for v in range(p - 1)])
    fin = prime_finiteness(path)
    assert fin.finite and fin.cycles == ()


def test_multiset_bookkeeping():
    w = CyclicWalk((0, 1))
    ms = CycleMultiset(((w, 2), (CyclicWalk((0, 1, 0, 1)), 1)))
    assert ms.visits(2) == (4, 4)
    assert ms.multiplicity_factorial() == 2
    assert ms.valuation_product() == 1 * 1 * 2


def test_min_rotation():
    assert min_rotation((2, 1, 3)) == (1, 3, 2)
    assert min_rotation(("b", "a")) == ("a", "b")


def test_gcycle_valuation_and_power():
    w = CyclicWalk((0, 1))
    assert w.valuation == 1
    assert _power(w, 3) == CyclicWalk((0, 1) * 3)
    c = GCycle(("e", "g"), (0, 1))
    assert _power(c, 2).valuation == 2
    assert _prime_root(_power(c, 2)) == c


def test_least_rotation_matches_brute_force_over_all_rotations():
    rng = random.Random(12)
    for _ in range(200):
        k = rng.randint(2, 5)
        seq = [rng.randrange(3)]
        while len(seq) < k:
            nxt = rng.randrange(3)
            if nxt != seq[-1] and not (len(seq) == k - 1 and nxt == seq[0]):
                seq.append(nxt)
        c = _power(CyclicWalk(tuple(seq)), rng.randint(1, 3))
        for r in range(len(c)):
            walk = c.srcs[r:] + c.srcs[:r]
            edges = c.edges[r:] + c.edges[:r]
            assert min_rotation(walk) == min(walk[i:] + walk[:i] for i in range(len(walk)))
            want = min(edges[i:] + edges[:i] for i in range(len(edges)))
            assert GCycle(edges, walk).edges == want == c.edges


def _cycles_and_sign(perm):
    cycles, seen = [], set()
    for i in range(len(perm)):
        if i not in seen:
            cyc = [i]
            while perm[cyc[-1]] != i:
                cyc.append(perm[cyc[-1]])
            seen.update(cyc)
            cycles.append(tuple(cyc))
    inversions = sum(1 for i, j in itertools.combinations(range(len(perm)), 2)
                     if perm[i] > perm[j])
    return tuple(cycles), (-1) ** inversions


def test_permutations_within_matches_filtered_brute_force():
    rng = random.Random(401)
    for _ in range(60):
        n = rng.randint(0, 6)
        density = rng.random()
        allowed = [[j for j in range(n) if rng.random() < density] for _ in range(n)]
        want = [
            (perm,) + _cycles_and_sign(perm)
            for perm in itertools.permutations(range(n))
            if all(perm[i] in allowed[i] for i in range(n))
        ]
        assert list(permutations_within(allowed)) == want


def _class_partition(rng, n, scattered):
    """Class sizes of 1 to 4 slots summing to n, and each slot's class:
    consecutive slots per class, or the slots shuffled among the classes."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(rng.randint(1, min(4, n - sum(sizes))))
    cls = [c for c, r in enumerate(sizes) for _ in range(r)]
    if scattered:
        rng.shuffle(cls)
    return sizes, cls


def test_cycle_cover_sum_matches_signed_permutation_sum():
    # random class partitions, contiguous and scattered, with int weights
    # drawn per word up to rotation (a central weight), a third of them 0:
    # the class fold equals the slot fold it replaced and, up to 7 slots,
    # the signed sum over every permutation; each class word is weighed once
    rng = random.Random(409)
    for trial in range(120):
        n = trial % 9
        sizes, cls = _class_partition(rng, n, scattered=trial % 2)
        density = rng.random()
        allowed = [[b for b in range(len(sizes)) if rng.random() < density] for _ in sizes]
        slot_allowed = [[j for j in range(n) if cls[j] in allowed[cls[i]]] for i in range(n)]

        def weight(word):
            return random.Random(f"{trial}:{min_rotation(word)}").choice((0, 0, 1, -1, 2, -3))

        def slot_weight(cyc):
            return weight(tuple(cls[i] for i in cyc))

        weighed = []

        def counted(word):
            weighed.append(word)
            return weight(word)

        got = cycle_cover_sum(sizes, allowed, counted)
        assert len(weighed) == len(set(weighed)), (sizes, allowed)
        assert got == slot_cover_sum(slot_allowed, slot_weight), (sizes, cls, allowed)
        if n <= 7:
            want = 0
            for perm in itertools.permutations(range(n)):
                if all(perm[i] in slot_allowed[i] for i in range(n)):
                    cycles, sign = _cycles_and_sign(perm)
                    want += sign * prod(map(slot_weight, cycles))
            assert got == want, (sizes, cls, allowed)
    # one class of n slots, larger than _class_partition draws, weighed by
    # the word's length alone, as det_perm_traces reads its power traces:
    # the signed sum over every permutation of its cycle lengths
    traces = (-2, 3, 0, 1, -1, 5, 4)

    def by_length(word):
        return traces[len(word) - 1]

    for n in range(8):
        want = 0
        for perm in itertools.permutations(range(n)):
            cycles, sign = _cycles_and_sign(perm)
            want += sign * prod(map(by_length, cycles))
        assert cycle_cover_sum((n,), [[0]], by_length) == want, n


def test_cycle_cover_sum_on_pairs_is_its_scalar_sum():
    # Gaussian-integer weights over d^len(word) of kinds 0-2: with d, the
    # fold's scalar is the scalar fold's sum, in value and in type
    rng = random.Random(419)
    for trial in range(80):
        n = trial % 9
        sizes, _ = _class_partition(rng, n, scattered=False)
        allowed = [[b for b in range(len(sizes)) if rng.random() < 0.7] for _ in sizes]
        d = rng.choice((1, 3))

        def pair(word):
            draw = random.Random(f"{trial}:{min_rotation(word)}")
            kind = draw.choice((0, 1, 2) if d == 1 else (1, 2))
            re = draw.choice((0, 1, -2, 5))
            return re, draw.choice((0, 1, -4)) if kind == 2 else 0, kind

        def scalar(word):
            return gaussian_scalar(*pair(word)[:2], d ** len(word), pair(word)[2])

        want = cycle_cover_sum(sizes, allowed, scalar)
        got = cycle_cover_sum(sizes, allowed, pair, d)
        assert got == want and type(got) is type(want), (sizes, allowed, d)


def test_one_class_fold_holds_no_cap():
    # the fold checks no slot count: one class of n = 9..16 slots weighed
    # by Tr(M^len), as scalars and as pairs over d^len, is n! det M
    assert PERM_SUM_CAP == 8
    rng = random.Random(421)
    for n in range(PERM_SUM_CAP + 1, 17):
        m = Matrix(n, n, [gauss_rat(rng) for _ in range(n * n)])
        want = factorial(n) * det_oracle(m)
        trace = product_traces({0: m})
        d, pair = product_traces({0: m}, pairs=True)
        assert cycle_cover_sum((n,), [[0]], lambda word: trace((0,) * len(word))) == want, n
        assert cycle_cover_sum((n,), [[0]], lambda word: pair((0,) * len(word)), d) == want, n


def test_vertex_fields_limit_cycles():
    # 0 -> 1 <-> 2, with a second choice 0 -> 2; a limit cycle is listed
    # from the vertex where the walk from the least unvisited vertex enters it
    q = Quiver(3, [Edge("a", 0, 1), Edge("b", 0, 2), Edge("c", 1, 2), Edge("d", 2, 1)])
    got = [([e.id for e in choice], [[e.id for e in cyc] for cyc in cycles])
           for choice, cycles in vertex_fields(q)]
    assert got == [(["a", "c", "d"], [["c", "d"]]), (["b", "c", "d"], [["d", "c"]])]
    assert list(vertex_fields(Quiver(2, [Edge("e", 0, 1)]))) == []
