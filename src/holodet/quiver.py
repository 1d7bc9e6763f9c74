"""Quiver data model: directed multigraphs with per-vertex ranks, per-edge
matrices and edge weights.  Includes validation, JSON I/O, and generators
for the test families used throughout the suite.

Vertices are 0-based in memory and 1-based in the JSON exchange format.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import HolodetError, ValidationError
from .linalg import Matrix
from .ring import GaussianRational, Poly, Symbols, gaussian_scalar


@dataclass(frozen=True)
class Edge:
    id: str
    src: int
    tgt: int


class Quiver:
    """Finite directed multigraph without self-loops."""

    __slots__ = ("p", "edges", "involution", "_out", "_in", "_by_id")

    def __init__(self, p, edges, involution=None):
        self.p = p
        self.edges = tuple(edges)
        self.involution = tuple(tuple(pair) for pair in involution) if involution else None
        self._by_id = {e.id: e for e in self.edges}
        out = [[] for _ in range(p)]
        inc = [[] for _ in range(p)]
        for e in self.edges:
            if 0 <= e.src < p:
                out[e.src].append(e)
            if 0 <= e.tgt < p:
                inc[e.tgt].append(e)
        self._out = tuple(tuple(sorted(es, key=lambda e: e.id)) for es in out)
        self._in = tuple(tuple(sorted(es, key=lambda e: e.id)) for es in inc)

    def out_edges(self, v):
        return self._out[v]

    def in_edges(self, v):
        return self._in[v]

    def outdeg(self, v):
        return len(self._out[v])

    def edge(self, edge_id):
        try:
            return self._by_id[edge_id]
        except KeyError:
            raise HolodetError(f"unknown edge id '{edge_id}'") from None

    def edges_between(self, u, v):
        return tuple(e for e in self._out[u] if e.tgt == v)

    def __repr__(self):
        return f"Quiver(p={self.p}, edges={[e.id for e in self.edges]})"


@dataclass
class Representation:
    ranks: tuple
    matrices: dict  # edge id -> Matrix of shape ranks[src] x ranks[tgt]


def validate(quiver, rep, weights):
    """Collect every structural violation; an empty list means ok."""
    bad = []
    if quiver.p < 1:
        bad.append("quiver has no vertices")
    seen = set()
    in_range = lambda e: 0 <= e.src < quiver.p and 0 <= e.tgt < quiver.p
    for e in quiver.edges:
        if e.id in seen:
            bad.append(f"duplicate edge id '{e.id}'")
        seen.add(e.id)
        if not in_range(e):
            bad.append(f"edge '{e.id}' endpoint out of range")
        elif e.src == e.tgt:
            bad.append(f"edge '{e.id}' is a self-loop")
    if len(rep.ranks) != quiver.p:
        bad.append(f"expected {quiver.p} ranks, got {len(rep.ranks)}")
        return bad
    for v, n in enumerate(rep.ranks):
        if n < 1:
            bad.append(f"rank of vertex {v} must be >= 1, got {n}")
    for e in quiver.edges:
        m = rep.matrices.get(e.id)
        if m is None:
            bad.append(f"edge '{e.id}' has no matrix")
        elif in_range(e) and (m.rows, m.cols) != (rep.ranks[e.src], rep.ranks[e.tgt]):
            bad.append(
                f"edge '{e.id}' shape mismatch: matrix is {m.rows}x{m.cols}, "
                f"ranks demand {rep.ranks[e.src]}x{rep.ranks[e.tgt]}"
            )
        if e.id not in weights:
            bad.append(f"edge '{e.id}' has no weight")
    return bad


def vertex_z(quiver, weights):
    """Per-vertex sum of outgoing edge weights; 0 for sinks."""
    zs = []
    for v in range(quiver.p):
        acc = 0
        for e in quiver.out_edges(v):
            acc = acc + weights[e.id]
        zs.append(acc)
    return tuple(zs)


def haar_like_unitary(n, rng):
    """Random n x n complex unitary: orthonormalized Gaussian matrix with
    phase-fixed diagonal.  Deterministic given the rng state."""
    cols = [
        [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(n)]
        for _ in range(n)
    ]
    q = []
    for j in range(n):
        v = list(cols[j])
        for _ in range(2):  # two Gram-Schmidt passes for numerical stability
            for u in q:
                coef = sum(x.conjugate() * y for x, y in zip(u, v))
                v = [y - coef * x for x, y in zip(u, v)]
        norm = math.sqrt(sum(abs(x) ** 2 for x in v))
        if norm < 1e-12:
            raise HolodetError("degenerate Gaussian sample; reseed the rng")
        v = [x / norm for x in v]
        proj = sum(x.conjugate() * y for x, y in zip(v, cols[j]))
        phase = proj / abs(proj) if abs(proj) > 0 else complex(1.0)
        q.append([x * phase for x in v])
    return Matrix.from_rows([[q[j][i] for j in range(n)] for i in range(n)])


def _gauss_rat(rng):
    re = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
    im = Fraction(rng.randint(-1, 1), rng.randint(1, 2))
    return GaussianRational(re, im)


def random_instance(seed, p=None, max_edges=None, max_rank=None):
    """Deterministic random quiver with Gaussian-rational edge matrices
    and positive rational weights.  An edge joins two distinct vertices, so
    p < 2 is refused, as are max_edges and max_rank < 1, before any draw."""
    import random as _random

    bad = [f"a random instance needs {name} >= {low}, got {value}"
           for name, value, low in (("p", p, 2), ("max_edges", max_edges, 1),
                                    ("max_rank", max_rank, 1))
           if value is not None and value < low]
    if bad:
        raise ValidationError(bad)
    rng = _random.Random(seed)
    p = p if p is not None else rng.randint(2, 4)
    max_edges = max_edges if max_edges is not None else 6
    max_rank = max_rank if max_rank is not None else 3
    ranks = tuple(rng.randint(1, max_rank) for _ in range(p))
    m = rng.randint(1, max_edges)
    edges = []
    for i in range(m):
        src = rng.randrange(p)
        tgt = rng.randrange(p)
        while tgt == src:
            tgt = rng.randrange(p)
        edges.append(Edge(f"e{i + 1}", src, tgt))
    q = Quiver(p, edges)
    mats = {
        e.id: Matrix(
            ranks[e.src], ranks[e.tgt],
            [_gauss_rat(rng) for _ in range(ranks[e.src] * ranks[e.tgt])],
        )
        for e in edges
    }
    weights = {e.id: Fraction(rng.randint(1, 5), rng.randint(1, 3)) for e in edges}
    return q, Representation(ranks, mats), weights


def _symbolic_two_cycle():
    syms = Symbols(("x1", "x2", "u", "v"))
    var = lambda n: Poly.variable(syms, n)
    q = Quiver(2, [Edge("e1", 0, 1), Edge("e2", 1, 0)])
    rep = Representation(
        (1, 1),
        {"e1": Matrix(1, 1, [var("u")]), "e2": Matrix(1, 1, [var("v")])},
    )
    weights = {"e1": var("x1"), "e2": var("x2")}
    return q, rep, weights


def _symbolic_acyclic():
    syms = Symbols(("xa", "xb", "xc"))
    var = lambda n: Poly.variable(syms, n)
    q = Quiver(3, [Edge("a", 0, 1), Edge("b", 0, 2), Edge("c", 1, 2)])
    ranks = (2, 1, 2)
    mats = {
        "a": Matrix(2, 1, [Fraction(1), Fraction(2)]),
        "b": Matrix(2, 2, [Fraction(1), Fraction(0), Fraction(1, 2), Fraction(3)]),
        "c": Matrix(1, 2, [Fraction(2), Fraction(-1)]),
    }
    weights = {"a": var("xa"), "b": var("xb"), "c": var("xc")}
    return q, Representation(ranks, mats), weights


def _symbolic_unicyclic():
    # one directed 3-cycle plus two tree edges feeding it; outdegree 1 everywhere
    names = ("x0", "x1", "x2", "x3", "x4")
    syms = Symbols(names)
    var = lambda n: Poly.variable(syms, n)
    edges = [
        Edge("c0", 0, 1), Edge("c1", 1, 2), Edge("c2", 2, 0),
        Edge("t3", 3, 1), Edge("t4", 4, 3),
    ]
    q = Quiver(5, edges)
    ranks = (2, 1, 2, 1, 2)
    mats = {
        "c0": Matrix(2, 1, [Fraction(1), Fraction(-1)]),
        "c1": Matrix(1, 2, [Fraction(2), Fraction(1, 2)]),
        "c2": Matrix(2, 2, [Fraction(1), Fraction(1), Fraction(0), Fraction(3)]),
        "t3": Matrix(1, 1, [Fraction(2)]),
        "t4": Matrix(2, 1, [Fraction(1), Fraction(1, 3)]),
    }
    weights = {e.id: var(names[i]) for i, e in enumerate(edges)}
    return q, Representation(ranks, mats), weights


FIGURE5_EDGES = [
    ("x12", 0, 1), ("x23", 1, 2), ("x34", 2, 3), ("x41", 3, 0),
    ("x56", 4, 5), ("x67", 5, 6), ("x78", 6, 7), ("x85", 7, 4),
    ("x25", 1, 4), ("x36", 2, 5),
]


def _symbolic_figure5():
    # two disjoint directed 4-cycles joined by two chords; ranks all 1
    names = tuple(n for n, _, _ in FIGURE5_EDGES)
    syms = Symbols(names)
    var = lambda n: Poly.variable(syms, n)
    edges = [Edge(n, s, t) for n, s, t in FIGURE5_EDGES]
    q = Quiver(8, edges)
    holvals = {
        "x12": Fraction(2), "x23": Fraction(1, 2), "x34": Fraction(3),
        "x41": Fraction(-1), "x56": Fraction(1, 3), "x67": Fraction(2),
        "x78": Fraction(-2), "x85": Fraction(1, 2),
        "x25": Fraction(1), "x36": Fraction(1),
    }
    mats = {n: Matrix(1, 1, [holvals[n]]) for n in names}
    weights = {n: var(n) for n in names}
    return q, Representation((1,) * 8, mats), weights


def gen_example(name, seed=0, p=None, max_edges=None, max_rank=None):
    """Named instance families used across the tests and the CLI."""
    if name == "two_cycle":
        return _symbolic_two_cycle()
    if name == "acyclic":
        return _symbolic_acyclic()
    if name == "unicyclic":
        return _symbolic_unicyclic()
    if name == "figure5":
        return _symbolic_figure5()
    if name == "random":
        return random_instance(seed, p=p, max_edges=max_edges, max_rank=max_rank)
    raise HolodetError(f"unknown example '{name}'")


def bidirected(p, pairs, rng=None, rank=1, weight_fn=None):
    """Build a bidirected graph from undirected vertex pairs, with unitary
    edge matrices (inverse on the reversed edge) and symmetric weights."""
    import random as _random

    rng = rng or _random.Random(0)
    edges = []
    involution = []
    mats = {}
    weights = {}
    for k, (u, v) in enumerate(pairs):
        eid, rid = f"e{k + 1}", f"e{k + 1}r"
        edges.append(Edge(eid, u, v))
        edges.append(Edge(rid, v, u))
        involution.append((eid, rid))
        if rank == 1:
            theta = rng.uniform(0.0, 2.0 * math.pi)
            u_mat = Matrix(1, 1, [complex(math.cos(theta), math.sin(theta))])
            mats[eid] = u_mat
            mats[rid] = Matrix(1, 1, [u_mat.at(0, 0).conjugate()])
        else:
            u_mat = haar_like_unitary(rank, rng)
            mats[eid] = u_mat
            mats[rid] = u_mat.conj_transpose()
        w = weight_fn(k) if weight_fn else 1.0 + rng.random()
        weights[eid] = w
        weights[rid] = w
    q = Quiver(p, edges, involution=involution)
    return q, Representation((rank,) * p, mats), weights


# ---------------------------------------------------------------------------
# JSON exchange format.  Vertices 1-based, matrices row-major [re, im] pairs,
# exact rationals encoded as "num/den" strings, symbolic weights {"sym": name}.

def _encode_number(x):
    if isinstance(x, int):
        return str(Fraction(x))
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float):
        return x
    raise HolodetError(f"cannot encode {type(x).__name__} in JSON")


def _encode_entry(x):
    if isinstance(x, GaussianRational):
        return [str(x.re), str(x.im)]
    if isinstance(x, (int, Fraction)):
        return [_encode_number(x), "0"]
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, float):
        return [x, 0.0]
    raise HolodetError(f"cannot encode matrix entry {type(x).__name__}")


def _encode_weight(x):
    if isinstance(x, Poly):
        mono = [(e, c) for e, c in x.terms.items()]
        if len(mono) == 1 and sum(mono[0][0]) == 1 and mono[0][1] == 1:
            idx = mono[0][0].index(1)
            return {"sym": x.syms.names[idx]}
        raise HolodetError("only single-symbol polynomial weights serialize")
    if isinstance(x, (int, Fraction)):
        return _encode_number(x)
    if isinstance(x, float):
        return x
    if isinstance(x, complex):
        if x.imag == 0:
            return x.real
        raise HolodetError("complex weights with nonzero imaginary part do not serialize")
    raise HolodetError(f"cannot encode weight {type(x).__name__}")


def instance_to_json(quiver, rep, weights):
    doc = {
        "p": quiver.p,
        "ranks": list(rep.ranks),
        "edges": [
            {
                "id": e.id,
                "src": e.src + 1,
                "tgt": e.tgt + 1,
                "weight": _encode_weight(weights[e.id]),
                "matrix": [
                    [_encode_entry(rep.matrices[e.id].at(i, j))
                     for j in range(rep.matrices[e.id].cols)]
                    for i in range(rep.matrices[e.id].rows)
                ],
            }
            for e in quiver.edges
        ],
    }
    if quiver.involution:
        doc["involution"] = [list(pair) for pair in quiver.involution]
    return doc


def _need(ok, message):
    if not ok:
        raise ValidationError([message])


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


# a signed ASCII integer with an optional ASCII denominator
_RATIO = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _ratio_ints(x):
    """(numerator, denominator) of a string that _RATIO matches whole, read
    with int; None for any other string, for a zero denominator and for
    digits past int's limit, all of which Fraction parses or refuses."""
    m = _RATIO.fullmatch(x)
    if m is None:
        return None
    try:
        num, den = int(m[1]), 1 if m[2] is None else int(m[2])
    except ValueError:
        return None
    return (num, den) if den else None


def _parse_number(x, mode):
    if isinstance(x, str):
        ints = _ratio_ints(x)
        if ints is not None:
            val = Fraction(*ints)
        else:
            try:
                val = Fraction(x)
            except (ValueError, ZeroDivisionError):
                raise ValidationError([f"cannot parse number {x!r}"]) from None
    elif _is_int(x):
        val = Fraction(x)
    elif isinstance(x, float):
        _need(math.isfinite(x), f"number {x!r} is not finite")
        if mode == "float":
            return x
        val = Fraction(str(x))
    else:
        raise ValidationError([f"cannot parse number {x!r}"])
    if mode != "float":
        return val
    try:
        return float(val)
    except OverflowError:
        raise ValidationError([f"number {x!r} is beyond float range"]) from None


def _parse_entry(x, mode):
    if (mode != "float" and isinstance(x, list) and len(x) == 2
            and isinstance(x[0], str) and isinstance(x[1], str)):
        re_ints, im_ints = _ratio_ints(x[0]), _ratio_ints(x[1])
        if re_ints is not None and im_ints is not None:
            (a, b), (c, d) = re_ints, im_ints
            return gaussian_scalar(a * d, c * b, b * d, 2) if c else Fraction(a, b)
    if isinstance(x, list) and len(x) == 2:
        re = _parse_number(x[0], mode)
        im = _parse_number(x[1], mode)
    else:
        re, im = _parse_number(x, mode), _parse_number(0, mode)
    if mode == "float":
        return complex(re, im)
    if im == 0:
        return re
    return GaussianRational(re, im)


def _parse_edge(rec, p, mode):
    _need(
        isinstance(rec, dict)
        and all(k in rec for k in ("id", "src", "tgt", "weight", "matrix")),
        "every edge needs 'id', 'src', 'tgt', 'weight' and 'matrix'",
    )
    eid, rows = rec["id"], rec["matrix"]
    if not isinstance(eid, str):
        raise ValidationError([f"edge id {eid!r} is not a string"])
    for end in ("src", "tgt"):
        v = rec[end]
        if not (_is_int(v) and 1 <= v <= p):
            raise ValidationError([f"edge '{eid}' {end} {v!r} is not in 1..{p}"])
    if not (isinstance(rows, list) and rows and all(
        isinstance(r, list) and r and len(r) == len(rows[0]) for r in rows
    )):
        raise ValidationError(
            [f"edge '{eid}' matrix is not a nonempty list of equal-length rows"]
        )
    mat = Matrix.from_rows([[_parse_entry(x, mode) for x in row] for row in rows])
    w = rec["weight"]
    if isinstance(w, dict) and "sym" in w:
        _need(isinstance(w["sym"], str), f"edge '{eid}' symbol is not a string")
        _need(
            mode == "symbolic",
            f"edge '{eid}' has a symbolic weight; use symbolic mode",
        )
        weight = ("sym", w["sym"])
    else:
        weight = ("num", _parse_number(w, mode))
    return Edge(eid, rec["src"] - 1, rec["tgt"] - 1), mat, weight


def instance_from_json(doc, mode="exact"):
    """Parse an instance document; malformed documents raise
    ValidationError, so no parsing failure escapes as another error."""
    if mode not in ("float", "exact", "symbolic"):
        raise HolodetError(f"unknown scalar mode '{mode}'")
    _need(isinstance(doc, dict), "instance is not a JSON object")
    for key in ("p", "ranks", "edges"):
        _need(key in doc, f"instance has no '{key}'")
    p, ranks = doc["p"], doc["ranks"]
    _need(_is_int(p), f"p {p!r} is not an integer")
    _need(
        isinstance(ranks, list) and all(_is_int(r) for r in ranks),
        "ranks is not a list of integers",
    )
    _need(len(ranks) == p, f"expected {p} ranks, got {len(ranks)}")
    _need(isinstance(doc["edges"], list), "edges is not a list")
    involution = doc.get("involution")
    _need(
        involution is None or isinstance(involution, list) and all(
            isinstance(pair, list) and len(pair) == 2
            and all(isinstance(x, str) for x in pair)
            for pair in involution
        ),
        "involution is not a list of edge id pairs",
    )
    edges = []
    mats = {}
    raw_weights = {}
    for rec in doc["edges"]:
        e, mat, weight = _parse_edge(rec, p, mode)
        edges.append(e)
        mats[e.id] = mat
        raw_weights[e.id] = weight
    weights = {}
    if mode == "symbolic":
        sym_names = [val for kind, val in raw_weights.values() if kind == "sym"]
        syms = Symbols(tuple(dict.fromkeys(sym_names)))
        for eid, (kind, val) in raw_weights.items():
            weights[eid] = (
                Poly.variable(syms, val) if kind == "sym" else Poly.const(syms, val)
            )
    else:
        for eid, (_, val) in raw_weights.items():
            weights[eid] = val
    q = Quiver(p, edges, involution=involution)
    return q, Representation(tuple(ranks), mats), weights


def load_instance(path, mode="exact"):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError([f"cannot read '{path}': {exc.strerror}"]) from None
    except ValueError as exc:
        raise ValidationError([f"'{path}' is not valid JSON: {exc}"]) from None
    return instance_from_json(doc, mode=mode)
