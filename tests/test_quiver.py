import itertools
import json
import random
from fractions import Fraction

import pytest

from holodet import quiver
from holodet.errors import HolodetError, ValidationError
from holodet.linalg import Matrix
from holodet.quiver import (
    Edge,
    Quiver,
    Representation,
    gen_example,
    haar_like_unitary,
    instance_from_json,
    instance_to_json,
    validate,
    vertex_z,
)
from holodet.ring import GaussianRational, Poly, Symbols
from holodet.walks import prime_cycles


def test_validate_well_formed():
    q, rep, w = gen_example("two_cycle")
    assert validate(q, rep, w) == []


def test_validate_self_loop():
    q = Quiver(2, [Edge("e", 0, 0)])
    rep = Representation((1, 1), {"e": Matrix(1, 1, [Fraction(1)])})
    bad = validate(q, rep, {"e": Fraction(1)})
    assert any("self-loop" in b for b in bad)


def test_validate_shape_mismatch():
    q = Quiver(2, [Edge("e", 0, 1)])
    rep = Representation((2, 2), {"e": Matrix(2, 3, [Fraction(0)] * 6)})
    bad = validate(q, rep, {"e": Fraction(1)})
    assert any("shape mismatch" in b for b in bad)


def test_validate_endpoint_out_of_range_is_reported():
    q = Quiver(2, [Edge("e", 0, 5)])
    rep = Representation((1, 1), {"e": Matrix(1, 1, [1])})
    assert validate(q, rep, {"e": 1}) == ["edge 'e' endpoint out of range"]


def test_validate_missing_weight_and_matrix():
    q = Quiver(2, [Edge("e", 0, 1)])
    rep = Representation((1, 1), {})
    bad = validate(q, rep, {})
    assert any("no matrix" in b for b in bad)
    assert any("no weight" in b for b in bad)


def test_vertex_z_cases():
    q = Quiver(3, [Edge("a", 0, 1), Edge("b", 0, 2)])
    z = vertex_z(q, {"a": 2, "b": 5})
    assert z == (7, 0, 0)

    syms = Symbols(("x1", "x2"))
    zz = vertex_z(q, {"a": Poly.variable(syms, "x1"), "b": Poly.variable(syms, "x2")})
    assert zz[0] == Poly.variable(syms, "x1") + Poly.variable(syms, "x2")
    assert zz[1] == 0


def test_vertex_z_linear_in_weights():
    q, rep, w = gen_example("random", seed=4)
    w2 = {k: 2 * v for k, v in w.items()}
    z1 = vertex_z(q, w)
    z2 = vertex_z(q, w2)
    assert all(b == 2 * a for a, b in zip(z1, z2))


def test_gen_acyclic_topological_order():
    q, rep, w = gen_example("acyclic")
    assert validate(q, rep, w) == []
    assert prime_cycles(q, 10) == []
    order = []
    remaining = {e.id: e for e in q.edges}
    indeg = [0] * q.p
    for e in q.edges:
        indeg[e.tgt] += 1
    ready = [v for v in range(q.p) if indeg[v] == 0]
    while ready:
        v = ready.pop()
        order.append(v)
        for e in q.out_edges(v):
            indeg[e.tgt] -= 1
            if indeg[e.tgt] == 0:
                ready.append(e.tgt)
    assert len(order) == q.p


def test_gen_figure5_prime_cycles():
    q, rep, w = gen_example("figure5")
    assert validate(q, rep, w) == []
    got = prime_cycles(q, 20)
    assert {tuple(c.srcs) for c in got} == {(0, 1, 2, 3), (4, 5, 6, 7)}


def test_gen_random_deterministic():
    a = gen_example("random", seed=1)
    b = gen_example("random", seed=1)
    assert a[0].p == b[0].p
    assert [e.id for e in a[0].edges] == [e.id for e in b[0].edges]
    assert a[1].ranks == b[1].ranks
    assert all(a[1].matrices[k] == b[1].matrices[k] for k in a[1].matrices)
    assert a[2] == b[2]
    c = gen_example("random", seed=2)
    assert (a[0].p, a[1].ranks, [e.id for e in a[0].edges]) != (
        c[0].p, c[1].ranks, [e.id for e in c[0].edges]
    ) or a[2] != c[2]


def test_gen_unknown_name():
    with pytest.raises(HolodetError):
        gen_example("nope")


def test_every_family_validates():
    for name in ("two_cycle", "acyclic", "unicyclic", "figure5"):
        q, rep, w = gen_example(name)
        assert validate(q, rep, w) == []
    for seed in range(5):
        q, rep, w = gen_example("random", seed=seed)
        assert validate(q, rep, w) == []


def test_haar_like_unitary_properties():
    rng = random.Random(9)
    u1 = haar_like_unitary(1, rng)
    assert abs(abs(u1.at(0, 0)) - 1.0) < 1e-12

    for n in (2, 3, 4):
        u = haar_like_unitary(n, random.Random(n))
        gram = u.conj_transpose() * u
        dev = max(
            abs(gram.at(i, j) - (1 if i == j else 0))
            for i in range(n) for j in range(n)
        )
        assert dev < 1e-10

    a = haar_like_unitary(3, random.Random(77))
    b = haar_like_unitary(3, random.Random(77))
    assert a == b


def test_json_roundtrip_exact():
    q, rep, w = gen_example("random", seed=6)
    doc = instance_to_json(q, rep, w)
    text = json.dumps(doc)
    q2, rep2, w2 = instance_from_json(json.loads(text), mode="exact")
    assert q2.p == q.p
    assert [e.id for e in q2.edges] == [e.id for e in q.edges]
    assert rep2.ranks == rep.ranks
    for eid in rep.matrices:
        assert rep2.matrices[eid] == rep.matrices[eid]
    assert w2 == w


def test_json_symbolic_weights():
    doc = {
        "p": 2,
        "ranks": [1, 1],
        "edges": [
            {"id": "e", "src": 1, "tgt": 2, "weight": {"sym": "x1"},
             "matrix": [[["1/2", "0"]]]},
            {"id": "f", "src": 2, "tgt": 1, "weight": {"sym": "x2"},
             "matrix": [[[2, 0]]]},
        ],
    }
    q, rep, w = instance_from_json(doc, mode="symbolic")
    assert isinstance(w["e"], Poly)
    assert rep.matrices["e"].at(0, 0) == Fraction(1, 2)
    with pytest.raises(HolodetError):
        instance_from_json(doc, mode="exact")


def test_json_involution_roundtrip():
    import random as _random

    from holodet.quiver import bidirected

    q, rep, w = bidirected(2, [(0, 1)], rng=_random.Random(3), rank=1,
                           weight_fn=lambda k: Fraction(2))
    doc = instance_to_json(q, rep, w)
    assert doc["involution"] == [["e1", "e1r"]]
    q2, rep2, w2 = instance_from_json(
        json.loads(json.dumps(doc)), mode="float"
    )
    assert q2.involution == (("e1", "e1r"),)


def test_json_gaussian_entries():
    q = Quiver(2, [Edge("e", 0, 1)])
    rep = Representation(
        (1, 1), {"e": Matrix(1, 1, [GaussianRational(Fraction(1, 2), Fraction(-2, 3))])}
    )
    w = {"e": Fraction(3, 4)}
    doc = instance_to_json(q, rep, w)
    assert doc["edges"][0]["matrix"][0][0] == ["1/2", "-2/3"]
    q2, rep2, w2 = instance_from_json(doc, mode="exact")
    assert rep2.matrices["e"].at(0, 0) == GaussianRational(Fraction(1, 2), Fraction(-2, 3))
    assert w2["e"] == Fraction(3, 4)


def _json_roundtrip(q, rep, w, mode):
    doc = json.loads(json.dumps(instance_to_json(q, rep, w)))
    q2, rep2, w2 = instance_from_json(doc, mode=mode)
    assert q2.edges == q.edges
    assert rep2.ranks == rep.ranks
    assert rep2.matrices == rep.matrices
    assert w2 == w


def _triangle():
    return Quiver(3, [Edge("e", 0, 1), Edge("f", 1, 2), Edge("g", 2, 0)])


def test_json_roundtrip_symbolic():
    syms = Symbols(("xe", "xf", "xg"))
    w = {eid: Poly.variable(syms, name) for eid, name in zip("efg", syms.names)}
    rep = Representation((1, 2, 1), {
        "e": Matrix(1, 2, [Fraction(1, 3), 2]),
        "f": Matrix(2, 1, [Fraction(-5, 7), 0]),
        "g": Matrix(1, 1, [-4]),
    })
    _json_roundtrip(_triangle(), rep, w, "symbolic")


def test_json_roundtrip_float():
    w = {"e": 0.1, "f": 2.5, "g": 1.25 + 0j}
    rep = Representation((1, 2, 1), {
        "e": Matrix(1, 2, [0.3, -1.5e-7]),
        "f": Matrix(2, 1, [0.2 - 0.7j, 1j]),
        "g": Matrix(1, 1, [-0.6 + 0.8j]),
    })
    _json_roundtrip(_triangle(), rep, w, "float")


_XY = Symbols(("x", "y"))


@pytest.mark.parametrize("weight, message", [
    (2 * Poly.variable(_XY, "x"), "single-symbol"),
    (Poly.variable(_XY, "x") * Poly.variable(_XY, "y"), "single-symbol"),
    (Poly.variable(_XY, "x") + 1, "single-symbol"),
    (1.0 + 0.5j, "nonzero imaginary part"),
])
def test_json_refuses_unencodable_weights(weight, message):
    q = Quiver(2, [Edge("e", 0, 1)])
    rep = Representation((1, 1), {"e": Matrix(1, 1, [Fraction(1)])})
    with pytest.raises(HolodetError, match=message):
        instance_to_json(q, rep, {"e": weight})


def _parse_number_reference(x, mode):
    """A number string as every one was parsed before integers were read
    with int: through Fraction."""
    try:
        val = Fraction(x)
    except (ValueError, ZeroDivisionError):
        raise ValidationError([f"cannot parse number {x!r}"]) from None
    return float(val) if mode == "float" else val


def _parse_entry_reference(x, mode):
    re, im = _parse_number_reference(x[0], mode), _parse_number_reference(x[1], mode)
    if mode == "float":
        return complex(re, im)
    return re if im == 0 else GaussianRational(re, im)


def _outcome(parse, *args):
    """The parsed value's type and repr (a GaussianRational's triple too),
    or the error's type and message."""
    try:
        got = parse(*args)
    except Exception as exc:  # the comparison covers every outcome
        return "error", type(exc).__name__, str(exc)
    triple = (got.a, got.b, got.d) if isinstance(got, GaussianRational) else None
    return type(got).__name__, repr(got), triple


_NUMBER_STRINGS = [
    "0", "-0", "+0", "7", "-7", "+12", "007", "3/4", "-3/4", "+3/4", "6/4", "-10/15",
    "0/5", "3/0", "0/00", "3/-4", "-3/-4", " 3", "3 ", "1_000", "1/2_0", "1.5", "-2.50",
    "1e3", "2E-2", "٣", "3/٤", "３", "", "/", "3/", "/4", "--3", "+-3",
    "inf", "nan", "0x10", "3 / 4", "-", "12345678901234567890/98765432109876543210",
    "1" * 5000, "1/" + "2" * 5000,
]


@pytest.mark.parametrize("mode", ["exact", "float", "symbolic"])
def test_number_parsing_matches_fraction_parsing(mode):
    # strings of ASCII digits are read with int; every other string takes
    # Fraction's path, so values, types and messages are unchanged
    for x in _NUMBER_STRINGS:
        assert (_outcome(quiver._parse_number, x, mode)
                == _outcome(_parse_number_reference, x, mode)), x
    for re, im in itertools.product(_NUMBER_STRINGS[:24] + ["1.5", "٣"], repeat=2):
        assert (_outcome(quiver._parse_entry, [re, im], mode)
                == _outcome(_parse_entry_reference, [re, im], mode)), (re, im)
