"""Seeded instance generators and op lists for the benchmark workloads.

The generators copy the acceptance suite's distributions (criteria 1, 2, 4
and 6) instead of importing them from ``tests/``, so an edit to the tests
cannot silently change what the benchmark measures.  ``build`` turns a
workload name and a seed into one pass of ops: for each op the ``holodet``
argv, the instance document it reads, and the reference its output must
match.  References come from the dense oracles on the instance exactly as
the CLI parses it back from JSON.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

from holodet.laplacian import build_laplacian
from holodet.linalg import Matrix, charpoly_oracle, det_oracle
from holodet.quiver import (
    Edge,
    Quiver,
    Representation,
    haar_like_unitary,
    instance_from_json,
    instance_to_json,
)
from holodet.ring import GaussianRational, Poly, Symbols, scalar_str

WORKLOADS = ("crosscheck", "cycles", "symbolic", "euler-float")

# Route cost is set almost entirely by the instance's shape: the quiver,
# its ranks and so n!, the stack count and the cycle set.  Shapes drawn
# from the seed made a pass cost up to 40% more on one seed than another,
# which no bound could absorb.  So each workload draws its shapes once
# from its acceptance distribution at that criterion's own seed, and
# --seed draws the edge matrices and weights: every seed runs the same
# mix of sizes on fresh values.
CROSSCHECK_SHAPES = (20240501, 120)    # criterion 1: shape seed, count
SYMBOLIC_COMPARE_SHAPES = (20240502, 60)  # criterion 2
SYMBOLIC_CHARPOLY_SHAPES = (20240504, 60)  # criterion 4
EULER_SHAPES = (20240506, 100)         # criterion 6
# criterion 6 without sinks, for compare --mode float: a vertex with no
# out-edge makes the unshifted Laplacian exactly singular, and there
# compare flags the perm route's roundoff as a disagreement (see README)
EULER_COMPARE_SHAPES = (20240516, 100)

# Complete digraphs at fixed rank vectors, with op counts per pass.  A
# pass holds 120 distinct ops, so at least ten lie beyond the 90th
# percentile, and lasts under ten seconds, so a run makes two passes.
# Counts are set so the median op falls in the (3,2,2) group and the
# 90th percentile in the (2,2,2,1) group, away from the cost gaps between
# groups; the ROADMAP grid points (3,3,3), (1,)*6 and (2,2,2,2) stay in
# the pass once each.
CYCLES_MIX = (
    ((1, 1, 1, 1, 1), 26),
    ((2, 2, 1, 1), 26),
    ((3, 2, 2), 26),
    ((3, 3, 2), 17),
    ((2, 1, 1, 1, 1), 10),
    ((2, 2, 2, 1), 12),
    ((3, 3, 3), 1),
    ((1, 1, 1, 1, 1, 1), 1),
    ((2, 2, 2, 2), 1),
)


@dataclass
class Op:
    """One user-facing command and the reference its output must match."""

    argv: list           # holodet arguments, --input and --format included
    kind: str            # "exact", "charpoly" or "float"
    ref: object          # scalar_str, list of scalar_str, or complex
    lap: object          # the instance as the CLI builds it, for probes
    coeff_bits: int      # largest numerator/denominator bit length of ref


# --- generators copied from the acceptance distributions -------------------

def _gauss_rat(rng):
    re = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
    im = Fraction(rng.randint(-1, 1), rng.randint(1, 2))
    return GaussianRational(re, im)


def _random_edges(rng, p, n_edges):
    edges = []
    for i in range(n_edges):
        src = rng.randrange(p)
        tgt = rng.randrange(p)
        while tgt == src:
            tgt = rng.randrange(p)
        edges.append(Edge(f"e{i + 1}", src, tgt))
    return Quiver(p, edges)


def _stack_cost(q, ranks):
    stacks = 1
    for a in range(q.p):
        stacks *= max(1, q.outdeg(a)) ** ranks[a]
    return stacks * math.factorial(sum(ranks))


def _shape(rng, p_max, rank_max, edge_max, total_rank_max, vf_cost_max=None):
    """Quiver and ranks of the exact and symbolic acceptance generators,
    resampled until the size filters hold."""
    while True:
        p = rng.randint(2, p_max)
        ranks = tuple(rng.randint(1, rank_max) for _ in range(p))
        if sum(ranks) > total_rank_max:
            continue
        q = _random_edges(rng, p, rng.randint(1, edge_max))
        if vf_cost_max is not None and _stack_cost(q, ranks) > vf_cost_max:
            continue
        return q, ranks


def _submarkov_shape(rng, min_outdeg=0):
    """Criterion 6's shapes: out-degree at most 2, ranks 1 or 2."""
    while True:
        p = rng.randint(2, 4)
        q = _random_edges(rng, p, rng.randint(1, 5))
        if all(min_outdeg <= q.outdeg(v) <= 2 for v in range(p)):
            return q, tuple(rng.randint(1, 2) for _ in range(p))


def _shapes(seed_count, draw):
    seed, count = seed_count
    rng = random.Random(seed)
    return [draw(rng) for _ in range(count)]


def _exact_values(rng, q, ranks):
    """Gaussian-rational edge matrices and positive rational weights."""
    mats = {
        e.id: Matrix(
            ranks[e.src], ranks[e.tgt],
            [_gauss_rat(rng) for _ in range(ranks[e.src] * ranks[e.tgt])],
        )
        for e in q.edges
    }
    weights = {e.id: Fraction(rng.randint(1, 4), rng.randint(1, 3)) for e in q.edges}
    return Representation(ranks, mats), weights


def _symbolic_values(rng, q, ranks):
    """Rational edge matrices and one indeterminate weight per edge."""
    syms = Symbols(tuple(e.id for e in q.edges))
    mats = {
        e.id: Matrix(
            ranks[e.src], ranks[e.tgt],
            [Fraction(rng.randint(-2, 2), rng.randint(1, 2))
             for _ in range(ranks[e.src] * ranks[e.tgt])],
        )
        for e in q.edges
    }
    weights = {e.id: Poly.variable(syms, e.id) for e in q.edges}
    return Representation(ranks, mats), weights


def _submarkov_values(rng, q, ranks):
    """Contraction edge maps (blocks of Haar-like unitaries), weights in
    [0.2, 1.5] and kappa four times the outgoing weight, so the chain is
    sub-Markov and the truncated product's certified bound applies."""
    mats = {}
    for e in q.edges:
        nu, nv = ranks[e.src], ranks[e.tgt]
        big = haar_like_unitary(max(nu, nv), rng)
        mats[e.id] = Matrix(
            nu, nv, [big.at(i, j) for i in range(nu) for j in range(nv)]
        )
    weights = {e.id: rng.uniform(0.2, 1.5) for e in q.edges}
    kappa = tuple(
        4.0 * max(1.0, sum(weights[e.id] for e in q.out_edges(v)))
        for v in range(q.p)
    )
    return Representation(ranks, mats), weights, kappa


# --- references ------------------------------------------------------------

def _bits(x):
    if isinstance(x, Poly):
        return max((_bits(c) for c in x.terms.values()), default=0)
    if isinstance(x, GaussianRational):
        return max(_bits(x.re), _bits(x.im))
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return 0


class _Writer:
    """Writes instance documents and parses each back as the CLI will.
    ``tick`` is called before each instance, so a caller can time set-up
    in stretches of one instance each."""

    def __init__(self, workdir, tick):
        self.workdir = workdir
        self.tick = tick
        self.count = 0

    def instance(self, q, rep, weights, mode):
        self.tick()
        doc = instance_to_json(q, rep, weights)
        path = os.path.join(self.workdir, f"inst{self.count:04d}.json")
        self.count += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        lq, lrep, lw = instance_from_json(doc, mode=mode)
        return path, build_laplacian(lq, lrep, lw)


def _exact_op(path, lap, argv):
    ref = det_oracle(lap.matrix)
    return Op(argv + ["--input", path, "--format", "json"], "exact",
              scalar_str(ref), lap, _bits(ref))


def _charpoly_op(path, lap):
    ref = charpoly_oracle(lap.matrix)
    return Op(["charpoly", "--mode", "exact", "--input", path, "--format", "json"],
              "charpoly", [scalar_str(c) for c in ref], lap,
              max(_bits(c) for c in ref))


def _float_op(path, lap, argv, ref):
    return Op(argv + ["--input", path, "--format", "json"], "float",
              complex(ref), lap, 0)


# --- workloads -------------------------------------------------------------

def _crosscheck(rng, out):
    ops = []
    for q, ranks in _shapes(CROSSCHECK_SHAPES, lambda r: _shape(r, 4, 3, 6, 6, 80_000)):
        rep, w = _exact_values(rng, q, ranks)
        path, lap = out.instance(q, rep, w, "exact")
        ops.append(_exact_op(path, lap, ["compare", "--mode", "exact"]))
    return ops


def _cycles(rng, out):
    queue = [ranks for ranks, count in CYCLES_MIX for _ in range(count)]
    # interleave the rank vectors so a pass never runs one size in a block
    order = sorted(range(len(queue)), key=lambda i: (i % 20, i))
    ops = []
    for i in order:
        ranks = queue[i]
        p = len(ranks)
        q = Quiver(p, [Edge(f"e{a + 1}{b + 1}", a, b)
                       for a in range(p) for b in range(p) if a != b])
        rep, w = _exact_values(rng, q, ranks)
        path, lap = out.instance(q, rep, w, "exact")
        ops.append(_exact_op(path, lap, ["det", "--mode", "exact"]))
    return ops


def _symbolic(rng, out):
    ops = []
    compare = _shapes(SYMBOLIC_COMPARE_SHAPES, lambda r: _shape(r, 3, 3, 5, 5, 30_000))
    charpoly = _shapes(SYMBOLIC_CHARPOLY_SHAPES, lambda r: _shape(r, 3, 3, 5, 5))
    for (q1, ranks1), (q2, ranks2) in zip(compare, charpoly):
        rep, w = _symbolic_values(rng, q1, ranks1)
        path, lap = out.instance(q1, rep, w, "symbolic")
        ops.append(_exact_op(path, lap, ["compare", "--mode", "symbolic"]))
        rep, w = _exact_values(rng, q2, ranks2)
        path, lap = out.instance(q2, rep, w, "exact")
        ops.append(_charpoly_op(path, lap))
    return ops


def _euler_float(rng, out):
    ops = []
    truncated = _shapes(EULER_SHAPES, _submarkov_shape)
    compare = _shapes(EULER_COMPARE_SHAPES, lambda r: _submarkov_shape(r, 1))
    for (q1, ranks1), (q2, ranks2) in zip(truncated, compare):
        rep, w, kappa = _submarkov_values(rng, q1, ranks1)
        path, lap = out.instance(q1, rep, w, "float")
        rows = lap.matrix.to_complex().to_rows()
        for j in range(len(rows)):
            rows[j][j] += kappa[lap.block.bl(j)]
        kappa_arg = ",".join(repr(k) for k in kappa)
        ops.append(_float_op(
            path, lap,
            ["det", "--mode", "float", "--method", "euler-truncated",
             "--kappa", kappa_arg],
            det_oracle(Matrix.from_rows(rows)),
        ))
        rep, w, _kappa = _submarkov_values(rng, q2, ranks2)
        path, lap = out.instance(q2, rep, w, "float")
        ops.append(_float_op(path, lap, ["compare", "--mode", "float"],
                             det_oracle(lap.matrix.to_complex())))
    return ops


_BUILDERS = {
    "crosscheck": _crosscheck,
    "cycles": _cycles,
    "symbolic": _symbolic,
    "euler-float": _euler_float,
}


def build(workload, seed, workdir, tick=lambda: None):
    """One pass of ops for the workload; the same seed gives the same
    instances, documents and references."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, _Writer(workdir, tick))
