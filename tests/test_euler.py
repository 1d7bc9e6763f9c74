import math
import random
from fractions import Fraction

import pytest

from holodet import euler
from holodet.errors import HolodetError, MethodRefusal
from holodet.euler import (
    build_submarkov,
    det_euler_finite,
    det_euler_truncated,
    unitary_comparison_check,
)
from holodet.laplacian import build_laplacian, det_laplacian_cycles, holonomy
from holodet.linalg import Matrix, det_oracle
from holodet.quiver import (
    Edge,
    Quiver,
    Representation,
    bidirected,
    gen_example,
    haar_like_unitary,
    instance_from_json,
    instance_to_json,
)
from holodet.ring import GaussianRational, Poly, Symbols, scalars_close, to_complex
from holodet.walks import prime_cycles, prime_finiteness
from test_acceptance import _random_submarkov


def test_unicyclic_closed_form():
    q, rep, w = gen_example("unicyclic")
    lap = build_laplacian(q, rep, w)
    oracle = det_oracle(lap.matrix)
    value = det_euler_finite(lap)
    assert value == oracle
    # explicit closed form: prod x_e^(rank of source) times det(I - hol)
    from holodet.walks import prime_finiteness

    cyc = prime_finiteness(q).cycles[0]
    hol = holonomy(rep, cyc)
    closed = det_oracle(Matrix.identity(hol.rows) - hol.map(lambda c: Poly.const(w["c0"].syms, c)) )
    for e in q.edges:
        closed = closed * w[e.id] ** rep.ranks[e.src]
    assert value == closed


def test_figure5_product_formula():
    q, rep, w = gen_example("figure5")
    lap = build_laplacian(q, rep, w)
    oracle = det_oracle(lap.matrix)
    assert det_euler_finite(lap) == oracle
    assert det_laplacian_cycles(lap) == oracle

    # hand-built product: z^n det(I - p(c1) hol(c1)) det(I - hol(c2)) with
    # p(c1) = x23 x34 / ((x23 + x25)(x34 + x36)); cleared of denominators
    syms = w["x12"].syms
    var = {n: Poly.variable(syms, n) for n in syms.names}
    h = {e.id: rep.matrices[e.id].at(0, 0) for e in q.edges}
    h1 = h["x12"] * h["x23"] * h["x34"] * h["x41"]
    h2 = h["x56"] * h["x67"] * h["x78"] * h["x85"]
    z2 = var["x23"] + var["x25"]
    z3 = var["x34"] + var["x36"]
    expected = (
        var["x12"] * var["x41"]
        * (z2 * z3 - var["x23"] * var["x34"] * h1)
        * (var["x56"] * var["x67"] * var["x78"] * var["x85"]) * (1 - h2)
    )
    assert oracle == expected


def test_acyclic_empty_product():
    q, rep, w = gen_example("acyclic")
    lap = build_laplacian(q, rep, w)
    assert det_euler_finite(lap) == 0  # some z vanishes
    # with a nonzero weight on every vertex the empty product is z^n:
    q2 = Quiver(2, [Edge("e", 0, 1)])
    rep2 = Representation((1, 2), {"e": Matrix(1, 2, [Fraction(1), Fraction(2)])})
    lap2 = build_laplacian(q2, rep2, {"e": Fraction(3)})
    assert det_euler_finite(lap2) == 0  # sink vertex: z = 0
    q3 = Quiver(2, [Edge("e", 0, 1), Edge("f", 1, 0)])
    rep3 = Representation(
        (1, 1), {"e": Matrix(1, 1, [Fraction(0)]), "f": Matrix(1, 1, [Fraction(0)])}
    )
    lap3 = build_laplacian(q3, rep3, {"e": Fraction(3), "f": Fraction(5)})
    # zero representation: the one cycle contributes det(I - 0) = 1
    assert det_euler_finite(lap3) == Fraction(15) == det_oracle(lap3.matrix)


def test_finite_euler_refuses_infinite_primes():
    q = Quiver(3, [
        Edge("a", 0, 1), Edge("b", 1, 0), Edge("c", 1, 2), Edge("d", 2, 1),
    ])
    rep = Representation(
        (1, 1, 1), {k: Matrix(1, 1, [Fraction(1, 2)]) for k in "abcd"}
    )
    w = {k: Fraction(1) for k in "abcd"}
    lap = build_laplacian(q, rep, w)
    with pytest.raises(MethodRefusal, match="truncated"):
        det_euler_finite(lap)


_X = Symbols(("x",))


@pytest.mark.parametrize("zero, nonzero", [
    (0, 2),
    (Fraction(0), Fraction(1, 2)),
    (GaussianRational(0), GaussianRational(1, 1)),
    (0.0, 0.5),
    (0j, 0.5j),
    (Poly(_X), Poly.variable(_X, "x")),
])
def test_finite_euler_answers_zero_weight_sum_on_a_prime(zero, nonzero):
    # a 2-cycle whose vertex 1 has one out-edge, of weight zero: the
    # cleared product divides by no z, so z_1 = 0 is answered like any
    # other value, in every scalar type
    q = Quiver(2, [Edge("e", 0, 1), Edge("f", 1, 0)])
    rep = Representation((1, 1), {k: Matrix(1, 1, [Fraction(1, 2)]) for k in "ef"})
    for weight in (zero, nonzero):
        lap = build_laplacian(q, rep, {"e": Fraction(3), "f": weight})
        got, want = det_euler_finite(lap), det_oracle(lap.matrix)
        if isinstance(zero, (float, complex)):
            assert scalars_close(got, want)
        else:
            assert got == want


def test_finite_euler_float_mixed_ranks():
    # rank-deficient holonomy: the trailing charpoly coefficients vanish
    # only up to roundoff in float mode, and the product never reads them
    rng = random.Random(1)
    q = Quiver(3, [Edge("a", 0, 1), Edge("b", 1, 2), Edge("c", 2, 0)])
    big = haar_like_unitary(2, rng)
    rep = Representation((2, 1, 2), {
        "a": Matrix(2, 1, [big.at(0, 0), big.at(1, 0)]),
        "b": Matrix(1, 2, [0.3 + 0.1j, -0.2j]),
        "c": haar_like_unitary(2, rng),
    })
    w = {"a": 1.25, "b": 0.75, "c": 2.0}
    lap = build_laplacian(q, rep, w)
    got = det_euler_finite(lap)
    want = det_oracle(lap.matrix.to_complex())
    assert scalars_close(got, want, rel=1e-9)


def rank_two_one_cycle(seed, s):
    """A 2-cycle at ranks (2, 1): a 2x1 map on 0 -> 1 with weight 0.7 and a
    1x2 map back with weight 0.9, entries uniform in (-s, s), first map
    first; read back in float mode, as the command line reads it."""
    rng = random.Random(seed)
    a, b = ([rng.uniform(-1, 1) * s for _ in range(2)] for _ in range(2))
    q = Quiver(2, [Edge("e1", 0, 1), Edge("e2", 1, 0)])
    rep = Representation((2, 1), {"e1": Matrix(2, 1, a), "e2": Matrix(1, 2, b)})
    return instance_from_json(instance_to_json(q, rep, {"e1": 0.7, "e2": 0.9}),
                              mode="float")


@pytest.mark.parametrize("s", [1, 100])
def test_finite_euler_float_sums_coefficients_only_to_the_least_rank(s):
    # the 2x2 holonomy has rank 1, so det(I - tH)'s t^2 coefficient is zero
    # exactly but roundoff in float mode; read, it once tripped a rank
    # check (seed 145 at s = 1, 13, 27, 36, 46, 78, ... at s = 100)
    for seed in range(300):
        lap = build_laplacian(*rank_two_one_cycle(seed, s))
        want = to_complex(_exact_target(lap, (0.0, 0.0)))
        assert abs(det_euler_finite(lap) - want) <= 1e-9 * abs(want), seed


def test_factor_rotation_independence():
    # det(I - p hol) must not depend on the base point of the cycle
    rng = random.Random(241)
    q, rep, w = gen_example("unicyclic")
    wq = {e.id: Fraction(rng.randint(1, 4)) for e in q.edges}
    from holodet.walks import prime_finiteness

    cyc = prime_finiteness(q).cycles[0]
    k = len(cyc.edges)
    vals = []
    for r in range(k):
        ids = cyc.edges[r:] + cyc.edges[:r]
        prod = rep.matrices[ids[0]]
        for eid in ids[1:]:
            prod = prod * rep.matrices[eid]
        vals.append(det_oracle(Matrix.identity(prod.rows) - prod))
    assert all(v == vals[0] for v in vals)


def _random_submarkov_instance(rng, p_max=4, edge_max=5):
    while True:
        p = rng.randint(2, p_max)
        edges = []
        for i in range(rng.randint(1, edge_max)):
            src = rng.randrange(p)
            tgt = rng.randrange(p)
            while tgt == src:
                tgt = rng.randrange(p)
            edges.append(Edge(f"e{i}", src, tgt))
        q = Quiver(p, edges)
        if any(q.outdeg(v) > 2 for v in range(p)):
            continue
        ranks = tuple(rng.randint(1, 2) for _ in range(p))
        mats = {}
        for e in q.edges:
            nu, nv = ranks[e.src], ranks[e.tgt]
            if nu == nv:
                mats[e.id] = haar_like_unitary(nu, rng)
            else:
                # truncated unitary keeps the operator norm at most one
                big = haar_like_unitary(max(nu, nv), rng)
                mats[e.id] = Matrix(
                    nu, nv, [big.at(i, j) for i in range(nu) for j in range(nv)]
                )
        weights = {e.id: rng.uniform(0.2, 1.5) for e in q.edges}
        kappa = tuple(5.0 * max(1.0, sum(weights[e.id] for e in q.out_edges(v)))
                      for v in range(p))
        return q, Representation(ranks, mats), weights, kappa


def test_truncated_euler_two_cycle():
    q = Quiver(2, [Edge("e", 0, 1), Edge("f", 1, 0)])
    rep = Representation(
        (1, 1),
        {"e": Matrix(1, 1, [complex(math.cos(0.4), math.sin(0.4))]),
         "f": Matrix(1, 1, [complex(math.cos(1.1), math.sin(1.1))])},
    )
    w = {"e": 1.0, "f": 1.0}
    lap = build_laplacian(q, rep, w)
    res = det_euler_truncated(lap, (1.0, 1.0), tol=1e-10)
    target = det_oracle(
        (Matrix.identity(2).scale(1.0 + 0j) + lap.matrix.to_complex())
    )
    assert abs(res.value - target) <= res.certified_bound
    assert abs(res.value - target) <= 1e-8


def test_truncated_euler_zero_kappa_substochastic():
    # no killing mass, but a sink vertex drains the chain
    q = Quiver(3, [Edge("e", 0, 1), Edge("f", 1, 0), Edge("g", 0, 2)])
    rep = Representation(
        (1, 1, 1), {k: Matrix(1, 1, [1.0 + 0j]) for k in ("e", "f", "g")}
    )
    w = {"e": 1.0, "f": 2.0, "g": 1.0}
    lap = build_laplacian(q, rep, w)
    res = det_euler_truncated(lap, (0.0, 0.0, 0.0), tol=1e-10)
    target = det_oracle(lap.matrix.to_complex())
    assert abs(res.value - target) <= max(res.certified_bound, 1e-9)


def test_truncated_euler_agrees_with_finite_product():
    q = Quiver(2, [Edge("e", 0, 1), Edge("f", 1, 0)])
    rep = Representation(
        (1, 1),
        {"e": Matrix(1, 1, [0.6 + 0.2j]), "f": Matrix(1, 1, [0.3 - 0.4j])},
    )
    w = {"e": 1.0, "f": 1.0}
    lap = build_laplacian(q, rep, w)
    finite = det_euler_finite(lap)
    res = det_euler_truncated(lap, (0.0, 0.0), tol=1e-12)
    assert scalars_close(finite, res.value, rel=1e-9)


def test_truncated_euler_certified_bound_honest():
    rng = random.Random(251)
    for _ in range(12):
        q, rep, w, kappa = _random_submarkov_instance(rng)
        lap = build_laplacian(q, rep, w)
        res = det_euler_truncated(lap, kappa, tol=1e-9)
        # exact, so a float target's own roundoff cannot hide a bound
        # that undershoots
        target = to_complex(_exact_target(lap, kappa))
        assert abs(res.value - target) <= res.certified_bound
        assert abs(res.value - target) <= 1e-8 * max(1.0, abs(target))


def test_float_allowance_grows_with_prime_count():
    # criterion 6's instances: the answer stays within its bound, and the
    # bound holds the per-factor rounding allowance once per prime
    rng = random.Random(20240506)
    grew = 0
    for _ in range(50):
        q, rep, w, kappa = _random_submarkov(rng)
        lap = build_laplacian(q, rep, w)
        res = det_euler_truncated(lap, kappa, tol=1e-9)
        rows = lap.matrix.to_complex().to_rows()
        for j in range(len(rows)):
            rows[j][j] += kappa[lap.block.bl(j)]
        assert abs(res.value - det_oracle(Matrix.from_rows(rows))) <= res.certified_bound
        if res.rho is not None:
            delta = euler._factor_rounding(max(rep.ranks), res.rho)
            assert res.certified_bound >= abs(res.value) * res.prime_count * delta
            grew += res.prime_count * delta > 1e-12
    assert grew


def test_prefix_shared_holonomies_are_bit_identical():
    # the product over sorted primes of det(I - w hol(c)), each holonomy
    # and weight folded afresh along its prime, gives the route's value
    # exactly: sharing prefixes repeats the same left folds
    rng = random.Random(1601)
    checked = 0
    while checked < 6:
        q, rep, w, kappa = _random_submarkov_instance(rng, p_max=4, edge_max=7)
        if prime_finiteness(q).finite:
            continue
        lap = build_laplacian(q, rep, w)
        res = det_euler_truncated(lap, kappa, tol=1e-9)
        if res.prime_count < 20:
            continue
        p_edges = build_submarkov(lap, kappa).p_edges
        want = 1.0 + 0.0j
        for a, r in enumerate(lap.ranks):
            want *= (lap.z[a].real + kappa[a]) ** r
        for cyc in prime_cycles(q, res.max_len):
            hol = holonomy(rep, cyc).to_complex()
            weight = 1.0
            for eid in cyc.edges:
                weight *= p_edges[eid]
            want *= det_oracle(Matrix.identity(hol.rows) - hol.scale(weight))
        assert res.value == want
        checked += 1


def test_truncated_euler_forms_each_prefix_once(monkeypatch):
    # the primes are walked in edge order, so a prefix shared by primes of
    # different lengths, which the (length, edges) order keeps apart, is
    # multiplied out once: one product per distinct prefix of 2 or more
    # edges, besides those of the chain's edge-map norms
    calls = []
    real = Matrix.__mul__

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(Matrix, "__mul__", counted)
    rng = random.Random(1601)
    checked = 0
    while checked < 6:
        q, rep, w, kappa = _random_submarkov_instance(rng, p_max=4, edge_max=7)
        if prime_finiteness(q).finite:
            continue
        lap = build_laplacian(q, rep, w)
        calls.clear()
        build_submarkov(lap, kappa).chain
        own = len(calls)
        calls.clear()
        res = det_euler_truncated(lap, kappa, tol=1e-9)
        if res.prime_count < 20:
            continue
        primes = prime_cycles(q, res.max_len)
        prefixes = {c.edges[:j] for c in primes for j in range(2, len(c.edges) + 1)}
        assert len(calls) - own == len(prefixes)
        checked += 1


def test_truncated_euler_multiplies_on_the_search_words(monkeypatch):
    # the factors are formed on the words the prime search yields, in one
    # pass: no prime list is made, and no cycle object is built
    def listed(*args, **kwargs):
        raise AssertionError("the route built its primes as cycles")

    rng = random.Random(1601)
    cases, want = [], []
    while len(cases) < 6:
        q, rep, w, kappa = _random_submarkov_instance(rng, p_max=4, edge_max=7)
        if prime_finiteness(q).finite:
            continue
        lap = build_laplacian(q, rep, w)
        res = det_euler_truncated(lap, kappa, tol=1e-9)
        if res.prime_count >= 20:
            cases.append((lap, kappa))
            want.append(res)
    monkeypatch.setattr("holodet.walks.prime_cycles", listed)
    monkeypatch.setattr(euler, "prime_cycles", listed, raising=False)
    monkeypatch.setattr("holodet.walks.GCycle._canonical", listed)
    assert [det_euler_truncated(lap, kappa, tol=1e-9) for lap, kappa in cases] == want


def test_factor_rows_are_identity_minus_the_scaled_holonomy():
    # bit for bit, signed zeros included, at ranks 1 to 3
    rng = random.Random(1602)
    parts = (0.0, -0.0, 0.25, -1.5)
    for r in (1, 2, 3):
        for _ in range(200):
            hol = Matrix(r, r, [complex(rng.choice(parts), rng.choice(parts))
                                for _ in range(r * r)])
            w = rng.choice((0.0, 0.5, 2.0))
            want = (Matrix.identity(r) - hol.scale(w)).to_rows()
            got = euler._factor_rows(hol, w)
            assert [[(x.real.hex(), x.imag.hex()) for x in row] for row in got] == \
                [[(x.real.hex(), x.imag.hex()) for x in row] for row in want]


def test_finite_primes_zero_kappa_is_exact():
    # conservative two-cycle: not sub-Markovian, but the prime set is
    # finite so the product needs no tail and stays exact
    q = Quiver(2, [Edge("e", 0, 1), Edge("f", 1, 0)])
    rep = Representation(
        (1, 1), {"e": Matrix(1, 1, [0.5 + 0.5j]), "f": Matrix(1, 1, [0.25 - 0.1j])}
    )
    w = {"e": 1.0, "f": 1.0}
    lap = build_laplacian(q, rep, w)
    res = det_euler_truncated(lap, (0.0, 0.0))
    target = det_oracle(lap.matrix.to_complex())
    assert abs(res.value - target) <= max(res.certified_bound, 1e-12)


def test_submarkov_refusal_when_not_substochastic():
    # two cycles sharing a vertex (infinitely many primes) with a
    # conservative chain: spectral radius 1, so the tail cannot be bounded
    q = Quiver(3, [
        Edge("a", 0, 1), Edge("b", 1, 0), Edge("c", 1, 2), Edge("d", 2, 1),
    ])
    rep = Representation(
        (1, 1, 1), {k: Matrix(1, 1, [1.0 + 0j]) for k in "abcd"}
    )
    w = {k: 1.0 for k in "abcd"}
    lap = build_laplacian(q, rep, w)
    with pytest.raises(MethodRefusal, match="sub-Markov"):
        det_euler_truncated(lap, (0.0, 0.0, 0.0))


def _finite_prime_cases():
    # an acyclic quiver (no primes, one sink) and the conservative
    # two-cycle above: both products are finite and need no tail bound
    acyclic = Quiver(3, [Edge("e", 0, 1), Edge("f", 1, 2), Edge("g", 0, 2)])
    acyclic_rep = Representation((1, 2, 1), {
        "e": Matrix(1, 2, [0.5 + 0.1j, -0.3j]),
        "f": Matrix(2, 1, [0.2 + 0j, 0.7 - 0.2j]),
        "g": Matrix(1, 1, [0.9 + 0j]),
    })
    two_cycle = Quiver(2, [Edge("e", 0, 1), Edge("f", 1, 0)])
    two_cycle_rep = Representation(
        (1, 1), {"e": Matrix(1, 1, [0.5 + 0.5j]), "f": Matrix(1, 1, [0.25 - 0.1j])}
    )
    return [
        (build_laplacian(acyclic, acyclic_rep, {"e": 1.0, "f": 2.0, "g": 0.5}),
         (1.0, 0.5, 2.0)),
        (build_laplacian(two_cycle, two_cycle_rep, {"e": 1.0, "f": 1.0}), (0.0, 0.0)),
    ]


def test_finite_primes_never_compute_the_tail_bound(monkeypatch):
    cases = _finite_prime_cases()
    unpatched = [det_euler_truncated(lap, kappa) for lap, kappa in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("a finite product computed the tail bound")

    monkeypatch.setattr(euler, "_perron_upper_bound", refuse)
    monkeypatch.setattr(euler, "_spectral_norm_complex", refuse)
    for (lap, kappa), want in zip(cases, unpatched):
        res = det_euler_truncated(lap, kappa)
        assert res.value == want.value
        assert res.rho is None and want.rho is None
        assert res.prime_count == want.prime_count
        shifted = lap.matrix.to_complex().to_rows()
        for j in range(len(shifted)):
            shifted[j][j] += kappa[lap.block.bl(j)]
        assert scalars_close(res.value, det_oracle(Matrix.from_rows(shifted)), rel=1e-12)


def test_infinite_primes_compute_the_tail_bound_once(monkeypatch):
    calls = []
    bound = euler._perron_upper_bound

    def counted(rows, *args, **kwargs):
        calls.append(rows)
        return bound(rows, *args, **kwargs)

    monkeypatch.setattr(euler, "_perron_upper_bound", counted)
    # two cycles sharing a vertex: infinitely many primes
    q = Quiver(3, [
        Edge("a", 0, 1), Edge("b", 1, 0), Edge("c", 1, 2), Edge("d", 2, 1),
    ])
    rep = Representation((1, 1, 1), {k: Matrix(1, 1, [1.0 + 0j]) for k in "abcd"})
    lap = build_laplacian(q, rep, {k: 1.0 for k in "abcd"})
    with pytest.raises(MethodRefusal, match="sub-Markov"):
        det_euler_truncated(lap, (0.0, 0.0, 0.0))
    assert len(calls) == 1
    res = det_euler_truncated(lap, (5.0, 5.0, 5.0))
    assert len(calls) == 2
    # the call stops once its length is settled: its bound may be above
    # the full run's, never below, and gives the same length
    full = bound(calls[-1])
    assert full <= res.rho < 1.0
    assert euler._tail_length(3, 3, res.rho, 1e-9) == res.max_len
    assert euler._tail_length(3, 3, full, 1e-9) == res.max_len
    target = det_oracle(Matrix.identity(3).scale(5.0 + 0j) + lap.matrix.to_complex())
    assert abs(res.value - target) <= res.certified_bound


def test_submarkov_data_checks():
    q = Quiver(2, [Edge("e", 0, 1), Edge("f", 1, 0)])
    rep = Representation(
        (1, 1), {"e": Matrix(1, 1, [1.0 + 0j]), "f": Matrix(1, 1, [1.0 + 0j])}
    )
    w = {"e": 1.0, "f": 1.0}
    lap = build_laplacian(q, rep, w)
    data = build_submarkov(lap, (1.0, 0.0))
    assert data.reachable
    assert data.rho < 1.0
    # unit edge maps leave the chain as it is: p_e = 1/2 and 1
    assert abs(data.rho - math.sqrt(0.5)) < 1e-6
    data0 = build_submarkov(lap, (0.0, 0.0))
    assert not data0.reachable
    with pytest.raises(HolodetError):
        build_submarkov(lap, (-1.0, 0.0))


def test_submarkov_refuses_a_weight_with_an_imaginary_part():
    # the chain reads each weight's real part, so a weight 1+0.5j would
    # give 5.45-0.15j where det(diag kappa + L) is 5.525+1.075j; a weight
    # 2+0j is real and still answers
    q = Quiver(2, [Edge("e", 0, 1), Edge("f", 1, 0)])
    rep = Representation((1, 1), {"e": Matrix(1, 1, [0.5 + 0.25j]),
                                   "f": Matrix(1, 1, [0.5 - 0.1j])})
    lap = build_laplacian(q, rep, {"e": 1 + 0.5j, "f": 2.0})
    with pytest.raises(HolodetError, match="edge weights must be nonnegative reals"):
        det_euler_truncated(lap, (1.0, 1.0))
    lap = build_laplacian(q, rep, {"e": 2 + 0j, "f": 2.0})
    res = det_euler_truncated(lap, (1.0, 1.0))
    want = complex(_exact_target(lap, (1.0, 1.0)))
    assert abs(res.value - want) <= min(res.certified_bound, 1e-12 * abs(want))


def test_truncated_euler_refuses_non_contraction_edges():
    # U_e = 2 on every edge: the plain chain has rho = 1/sqrt(3), but the
    # product does not converge (det(kappa + L) = -2); weighting the chain
    # by the edge norms gives rho = sqrt(4/3) and a refusal
    q = Quiver(2, [Edge("a", 0, 1), Edge("b", 0, 1), Edge("c", 1, 0)])
    rep = Representation((1, 1), {k: Matrix(1, 1, [2.0 + 0j]) for k in "abc"})
    w = {k: 1.0 for k in "abc"}
    lap = build_laplacian(q, rep, w)
    data = build_submarkov(lap, (1.0, 1.0))
    assert abs(data.rho - math.sqrt(4.0 / 3.0)) < 1e-6
    with pytest.raises(MethodRefusal, match="sub-Markov"):
        det_euler_truncated(lap, (1.0, 1.0))


def _stretch_along_start_vector(s):
    """U = P_v + s P_perp for the unit v along (1 + 0.017i, 1.01 + 0.034i):
    ||U|| = s, while v, an eigenvector of U^H U for the eigenvalue 1, is
    where a power iteration started at it stays."""
    v = [1 + 0.017j, 1.01 + 0.034j]
    norm = math.sqrt(sum(abs(x) ** 2 for x in v))
    v = [x / norm for x in v]
    return Matrix.from_rows([
        [v[i] * v[j].conjugate() + s * ((i == j) - v[i] * v[j].conjugate())
         for j in range(2)]
        for i in range(2)
    ])


@pytest.mark.parametrize("s", [3.0, 2.0, 1.5, 1.05])
def test_spectral_norm_bound_never_undershoots(s):
    bound = euler._spectral_norm_complex(_stretch_along_start_vector(s))
    assert s <= bound <= s * 2 ** (1 / 512) * (1 + 1e-8)


@pytest.mark.parametrize("tol", [1e-6, 1e-4])
def test_truncated_euler_refuses_or_answers_within_bound(tol):
    # a: 1 -> 2 carries a norm-3 map whose Gram matrix has the norm
    # estimate's old start vector as an eigenvector; b, c and d carry
    # identities.  The norm-weighted chain has rho > 1, so the product
    # does not converge to det(0.5 I + L) = -5.859375.
    q = Quiver(3, [Edge("a", 0, 1), Edge("b", 1, 0), Edge("c", 1, 2),
                   Edge("d", 2, 0)])
    one = Matrix.identity(2).scale(1.0 + 0j)
    rep = Representation((2, 2, 2), {"a": _stretch_along_start_vector(3.0),
                                     "b": one, "c": one, "d": one})
    lap = build_laplacian(q, rep, {k: 1.0 for k in "abcd"})
    target = det_oracle(Matrix.identity(6).scale(0.5 + 0j) + lap.matrix.to_complex())
    assert abs(target + 5.859375) < 1e-12
    try:
        res = det_euler_truncated(lap, (0.5, 0.5, 0.5), tol=tol)
    except MethodRefusal:
        return
    assert abs(res.value - target) <= res.certified_bound


def test_unitary_comparison_identity_representation():
    rng = random.Random(257)
    q, rep, w = bidirected(3, [(0, 1), (1, 2), (0, 2)], rng=rng, rank=2)
    ident_rep = Representation(
        (2,) * 3, {e.id: Matrix.identity(2).map(complex) for e in q.edges}
    )
    report = unitary_comparison_check(
        q, w, lambda i: ident_rep, 2, (0.0, 0.1, 1.0, 10.0), 1
    )
    assert report.ok
    # with the identity representation the two sides coincide
    assert abs(report.min_margin) < 1e-9


def test_unitary_comparison_random_unitaries():
    rng = random.Random(263)
    q, rep, w = bidirected(3, [(0, 1), (1, 2), (0, 2)], rng=rng, rank=2)

    def factory(i):
        local = random.Random(1000 + i)
        mats = {}
        for a, b in q.involution:
            u = haar_like_unitary(2, local)
            mats[a] = u
            mats[b] = u.conj_transpose()
        return Representation((2,) * q.p, mats)

    report = unitary_comparison_check(q, w, factory, 2, (0.0, 0.1, 1.0, 10.0), 10)
    assert report.ok
    assert report.min_margin >= -1e-9


def test_unitary_comparison_requires_involution():
    q = Quiver(2, [Edge("e", 0, 1), Edge("f", 1, 0)])
    w = {"e": 1.0, "f": 1.0}
    with pytest.raises(MethodRefusal):
        unitary_comparison_check(q, w, lambda i: None, 1, (0.0,), 1)


def _truncated_reference(lap, kappa, tol):
    """(value, certified_bound, prime_count) of det_euler_truncated on an
    infinite prime set as it was formed when each prime's holonomy went
    through to_complex() and each factor through det_oracle, with the full
    Perron run's bound; instances it refuses are not asked."""
    data = build_submarkov(lap, kappa)
    n, p = sum(lap.ranks), lap.quiver.p
    length = 2
    while euler._tail_bound(n, p, data.rho, length) >= tol:
        length += 1
    primes = prime_cycles(lap.quiver, length)
    log_tail = euler._tail_bound(n, p, data.rho, length)
    value = 1.0 + 0.0j
    for a, r in enumerate(lap.ranks):
        value *= (lap.z[a].real + data.kappa[a]) ** r
    prefix = []
    for cyc in primes:
        k = 0
        while k < len(prefix) and prefix[k][0] == cyc.edges[k]:
            k += 1
        del prefix[k:]
        for eid in cyc.edges[k:]:
            _, hol, w = prefix[-1] if prefix else (None, None, 1.0)
            hol = lap.rep.matrices[eid] if hol is None else hol * lap.rep.matrices[eid]
            prefix.append((eid, hol, w * data.p_edges[eid]))
        hol = prefix[-1][1].to_complex()
        value *= det_oracle(Matrix.identity(hol.rows) - hol.scale(prefix[-1][2]))
    spread = len(primes) * math.log1p(euler._factor_rounding(max(lap.ranks), data.rho))
    certified = (abs(value) * math.expm1(log_tail + 2 * spread)
                 if spread < 0.4 else math.inf)
    return value, certified, len(primes)


def _matches_reference(res, want):
    # the value and prime count bit for bit; the bound may only grow, as
    # the route's Perron bound may stop above the full run's
    value, certified, count = want
    return (res.value, res.prime_count) == (value, count) and res.certified_bound >= certified


def test_truncated_euler_factors_skip_conversions_bit_for_bit():
    # criterion 6's instances: the factors' LU, called on rows built
    # without classifying or converting complex holonomies, leaves every
    # value bit for bit; finite prime sets are formed exactly instead
    rng = random.Random(20240506)
    infinite = 0
    for _ in range(50):
        q, rep, w, kappa = _random_submarkov(rng)
        lap = build_laplacian(q, rep, w)
        res = det_euler_truncated(lap, kappa, tol=1e-9)
        if prime_finiteness(q).finite:
            assert res.value == to_complex(_exact_target(lap, kappa))
            continue
        infinite += 1
        assert _matches_reference(res, _truncated_reference(lap, kappa, 1e-9))
    assert infinite
    # exact edge maps still have their holonomies converted
    q, rep, w, kappa = _random_submarkov(random.Random(8))  # 23 primes
    exact = Representation(rep.ranks, {
        eid: m.map(lambda x: GaussianRational(Fraction(x.real), Fraction(x.imag)))
        for eid, m in rep.matrices.items()})
    lap = build_laplacian(q, exact, {eid: Fraction(x) for eid, x in w.items()})
    res = det_euler_truncated(lap, kappa, tol=1e-9)
    assert res.prime_count > 1
    assert _matches_reference(res, _truncated_reference(lap, kappa, 1e-9))


def _exact_target(lap, kappa):
    """det(diag(z + kappa) - [x_e U_e]) formed exactly from the inputs as
    det_euler_truncated reads them: each float weight, map entry and
    kappa as the rational it holds, and z as the Laplacian holds it."""
    def exact(x):
        x = complex(x)
        return GaussianRational(Fraction(x.real), Fraction(x.imag))

    rep = Representation(lap.ranks, {k: m.map(exact) for k, m in lap.rep.matrices.items()})
    weights = {k: Fraction(complex(x).real) for k, x in lap.weights.items()}
    exact_lap = build_laplacian(lap.quiver, rep, weights)
    rows = exact_lap.matrix.to_rows()
    for j in range(len(rows)):
        a = lap.block.bl(j)
        rows[j][j] += Fraction(complex(lap.z[a]).real) + Fraction(kappa[a]) - exact_lap.z[a]
    return det_oracle(Matrix.from_rows(rows))


@pytest.mark.parametrize("k", [10, 26, 27, 30, 40, 52])
def test_finite_primes_hold_their_bound_on_cancelling_holonomies(k):
    # U_a = I - A, U_b = I on a 2-cycle with det A = -1: det L = det A,
    # the difference of two products near 2^(2k), which a float product
    # loses for k >= 27; formed exactly, the route returns -1
    big = 2 ** k
    a = [[big + 1, big], [big, big - 1]]
    q = Quiver(2, [Edge("a", 0, 1), Edge("b", 1, 0)])
    rep = Representation((2, 2), {
        "a": Matrix.from_rows([[complex((i == j) - a[i][j]) for j in range(2)]
                               for i in range(2)]),
        "b": Matrix.identity(2).scale(1.0 + 0j),
    })
    lap = build_laplacian(q, rep, {"a": 1.0, "b": 1.0})
    exact = _exact_target(lap, (0.0, 0.0))
    assert exact == -1
    res = det_euler_truncated(lap, (0.0, 0.0))
    assert res.rho is None and res.prime_count == 1
    assert res.value == -1
    assert abs(res.value - to_complex(exact)) <= res.certified_bound


def test_finite_primes_round_the_exact_product_once():
    # criterion 6's finite prime sets, with and without a kappa shift: the
    # value is the exact product of the inputs, correctly rounded
    rng = random.Random(6060)
    checked = 0
    while checked < 25:
        q, rep, w, kappa = _random_submarkov(rng)
        if not prime_finiteness(q).finite:
            continue
        lap = build_laplacian(q, rep, w)
        for shift in (kappa, (0.0,) * q.p):
            res = det_euler_truncated(lap, shift)
            exact = to_complex(_exact_target(lap, shift))
            assert res.value == exact
            assert abs(res.value - exact) <= res.certified_bound
        checked += 1


def test_tail_length_is_the_least_length_from_any_start():
    rng = random.Random(77)
    for _ in range(300):
        n, p = rng.randint(1, 12), rng.randint(1, 6)
        rho = rng.choice([rng.random(), 1 - 10 ** -rng.uniform(1, 13)])
        tol = 10 ** -rng.uniform(1, 14)
        want = 2
        while euler._tail_bound(n, p, rho, want) >= tol and want <= euler.MAX_LEN_CAP:
            want += 1
        if rho >= 1 - 1e-12 or want > euler.MAX_LEN_CAP:
            want = None
        for start in (2, 3, rng.randint(2, euler.MAX_LEN_CAP), euler.MAX_LEN_CAP):
            assert euler._tail_length(n, p, rho, tol, start) == want


def _slow_chain():
    # two 2-cycles joined by weak edges, whose kappas differ a little: the
    # chain's two largest roots nearly meet, so the power iteration is slow
    q = Quiver(4, [Edge("a", 0, 1), Edge("b", 1, 0), Edge("c", 2, 3),
                   Edge("d", 3, 2), Edge("e", 1, 2), Edge("f", 3, 0)])
    rep = Representation((1, 1, 1, 1), {k: Matrix(1, 1, [1.0 + 0j]) for k in "abcdef"})
    w = {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0, "e": 1e-3, "f": 1e-3}
    return build_laplacian(q, rep, w), (2.0, 2.0, 2.05, 2.05)


def test_perron_stop_keeps_length_primes_and_value(monkeypatch):
    # the route's Perron bound stops once its bounds agree on the length:
    # on criterion 6's infinite prime sets and on a slowly mixing chain it
    # is at least the full run's, with the same length, primes and value
    rng = random.Random(20240506)
    cases = []
    while len(cases) < 12:
        q, rep, w, kappa = _random_submarkov(rng)
        if not prime_finiteness(q).finite:
            cases.append((build_laplacian(q, rep, w), kappa))
    cases.append(_slow_chain())

    steps = {True: 0, False: 0}
    stops = [True]
    settled = euler._length_settled

    def counted(n, p, tol):
        inner = settled(n, p, tol)

        def test(lower, upper):
            steps[stops[0]] += 1
            return inner(lower, upper) and stops[0]

        return test

    monkeypatch.setattr(euler, "_length_settled", counted)
    stopped = [det_euler_truncated(lap, kappa) for lap, kappa in cases]
    stops[0] = False
    full = [det_euler_truncated(lap, kappa) for lap, kappa in cases]
    for (lap, kappa), s, f in zip(cases, stopped, full):
        assert f.rho == build_submarkov(lap, kappa).rho
        assert f.rho <= s.rho < 1.0
        assert (s.max_len, s.prime_count, s.value) == (f.max_len, f.prime_count, f.value)
        assert s.certified_bound >= f.certified_bound
    assert steps[True] < steps[False] / 2


def test_perron_lower_bound_never_passes_the_full_bound():
    # every stop test sees a Collatz-Wielandt lower bound at or below the
    # root and an upper bound at or above the full run's
    lap, kappa = _slow_chain()
    rows = build_submarkov(lap, kappa).chain
    seen = []
    full = euler._perron_upper_bound(rows, lambda lower, upper: seen.append((lower, upper)))
    assert len(seen) > 1000
    assert all(lower <= full * (1 + 1e-12) and full <= upper for lower, upper in seen)
    assert seen[-1][1] - seen[-1][0] < 1e-6 < seen[0][1] - seen[0][0]


def test_refusals_quote_the_full_perron_bound():
    # a refusing bound never stops early, so each refusal prints the full
    # run's rho: a conservative chain, and one too slow for MAX_LEN_CAP
    q = Quiver(3, [
        Edge("a", 0, 1), Edge("b", 1, 0), Edge("c", 1, 2), Edge("d", 2, 1),
    ])
    rep = Representation((1, 1, 1), {k: Matrix(1, 1, [1.0 + 0j]) for k in "abcd"})
    lap = build_laplacian(q, rep, {k: 1.0 for k in "abcd"})
    data = build_submarkov(lap, (0.0, 0.0, 0.0))
    with pytest.raises(MethodRefusal) as exc:
        det_euler_truncated(lap, (0.0, 0.0, 0.0))
    assert str(exc.value) == (
        "spectral-radius bound is not below 1; the sub-Markov assumptions "
        f"fail (reachability=False, rho={data.rho:.6f})"
    )
    slow = (1e-3, 1e-3, 1e-3)
    data = build_submarkov(lap, slow)
    assert data.rho < 1.0 - 1e-12
    with pytest.raises(MethodRefusal) as exc:
        det_euler_truncated(lap, slow)
    assert str(exc.value) == (
        f"tail bound does not reach 1e-09 within length {euler.MAX_LEN_CAP} "
        f"(rho={data.rho:.6f})"
    )
