"""The twisted Laplacian of a quiver representation, and identities for its
determinant: the cycle-multiset expansion, the characteristic polynomial,
moment identities for random representations, and a Cauchy-Binet splitting
into edge-subset terms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import HolodetError, MethodRefusal, ValidationError
from .linalg import BlockMatrix, Matrix, block_offsets, det_oracle
from .quiver import Representation, validate, vertex_z
from .walks import cycle_series, shifted_visit_sum

CAUCHY_BINET_CAP = 6
# exact moments run one oracle determinant per joint outcome, the product
# of the edges' support sizes (2^|E| for the CLI's sign distribution); at
# 2^12 outcomes a run already takes seconds
MOMENT_OUTCOME_CAP = 2 ** 12
# the dense Laplacian has n^2 entries and the oracle's elimination costs
# n^3 ring operations, which at n = 512 is already far beyond any route's
# reach in pure Python; larger documents are refused before allocating
LAPLACIAN_SIZE_CAP = 512


@dataclass
class TwistedLaplacian:
    quiver: object
    rep: object
    weights: dict
    z: tuple
    block: BlockMatrix

    @property
    def matrix(self):
        return self.block.base

    @property
    def ranks(self):
        return self.rep.ranks


def build_laplacian(quiver, rep, weights):
    """Assemble the block operator with diagonal z_a I and off-diagonal
    minus the weight-scaled sum of edge matrices."""
    bad = validate(quiver, rep, weights)
    if bad:
        raise ValidationError(bad)
    ranks = tuple(rep.ranks)
    if sum(ranks) > LAPLACIAN_SIZE_CAP:
        raise MethodRefusal(
            f"Laplacian size capped at n<={LAPLACIAN_SIZE_CAP}, got {sum(ranks)}"
        )
    z = vertex_z(quiver, weights)
    offsets = block_offsets(ranks)
    n = offsets[-1]
    rows = [[0] * n for _ in range(n)]
    for a in range(quiver.p):
        for i in range(ranks[a]):
            rows[offsets[a] + i][offsets[a] + i] = z[a]
    for e in quiver.edges:
        u_mat = rep.matrices[e.id]
        w = weights[e.id]
        r0, c0 = offsets[e.src], offsets[e.tgt]
        for i in range(u_mat.rows):
            for j in range(u_mat.cols):
                rows[r0 + i][c0 + j] = rows[r0 + i][c0 + j] - w * u_mat.at(i, j)
    block = BlockMatrix(Matrix.from_rows(rows), ranks)
    return TwistedLaplacian(quiver, rep, weights, z, block)


def holonomy(rep, gcycle):
    """Edge-matrix product along a cycle, based at its canonical rotation."""
    prod = rep.matrices[gcycle.edges[0]]
    for eid in gcycle.edges[1:]:
        prod = prod * rep.matrices[eid]
    return prod


def hol_trace(rep, gcycle):
    return holonomy(rep, gcycle).trace()


def _cycle_series(lap):
    """The truncated exponential of the cycle factors F_u, each the sum of
    -(x^e(c) Tr hol(c)) / val(c) over the cycles visiting u: the
    closed-walk transfer of the weighted edge maps -x_e U_e, whose product
    along a cycle of length k is (-1)^k x^e(c) hol(c)."""
    maps = {e.id: lap.rep.matrices[e.id].scale(-lap.weights[e.id])
            for e in lap.quiver.edges}
    return cycle_series(lap.quiver, lap.ranks, maps)


def det_laplacian_cycles(lap, stats=None):
    """Cycle-multiset expansion of the Laplacian determinant: the sum over
    multisets of z^(n-v)/C! times the product of their cycle factors, folded
    as the truncated exponential of the cycle factors by visit vector.
    stats, when a dict, receives "keys": the number of visit vectors whose
    cycle factor was folded."""
    series = _cycle_series(lap)
    if stats is not None:
        stats["keys"] = series.keys
    return series.visit_sum(lap.z)


def charpoly_laplacian(lap, t_names=None):
    """det(T + Laplacian) as a polynomial in per-vertex shift symbols;
    t_names = (t,) * p gives det(tI + Laplacian)."""
    series = _cycle_series(lap).coefficients()
    return shifted_visit_sum(series, lap.z, lap.ranks, lap.matrix.data, t_names)


def moment_samples(quiver, weights, reps, k, stats=None):
    """The two sides of the k-th moment identity at each representation, in
    order: (det L)^k by det_oracle, and the sum over k-tuples of cycle
    multisets of the tuple's weight times the product of the holonomy traces
    along its cycles.  A tuple's weight and trace product are the products of
    its members', so that sum is the k-th power of the one-multiset sum, the
    cycle expansion det_laplacian_cycles folds, which is what is formed.
    stats, when a dict, receives "keys" as det_laplacian_cycles gives it."""
    for rep in reps:
        lap = build_laplacian(quiver, rep, weights)
        yield det_oracle(lap.matrix) ** k, det_laplacian_cycles(lap, stats) ** k


@dataclass(frozen=True)
class WilsonMomentReport:
    lhs: object
    rhs: object
    terms: int  # visit vectors the cycle expansion folds, to the k

    @property
    def agree(self):
        return self.lhs == self.rhs


def wilson_moment(quiver, weights, ranks, edge_dists, k):
    """Compare E[(det L)^k] computed by brute-force enumeration of the
    joint representation distribution against the multiset expansion where
    only the holonomy traces sit inside the expectation.

    edge_dists maps each edge id to a list of (probability, Matrix) pairs
    with exact probabilities summing to 1; edges are independent.
    """
    if k < 1:
        raise HolodetError("moment order k must be >= 1")
    edge_ids = [e.id for e in quiver.edges]
    for eid in edge_ids:
        dist = edge_dists.get(eid)
        if not dist:
            raise MethodRefusal(f"edge '{eid}' has no finite-support distribution")
        if sum(pr for pr, _ in dist) != 1:
            raise MethodRefusal(f"probabilities for edge '{eid}' do not sum to 1")
    count = math.prod(len(edge_dists[eid]) for eid in edge_ids)
    if count > MOMENT_OUTCOME_CAP:
        raise MethodRefusal(
            f"exact moments capped at {MOMENT_OUTCOME_CAP} joint outcomes, got {count}"
        )

    outcomes = []
    for combo in itertools.product(*(edge_dists[eid] for eid in edge_ids)):
        prob = 1
        mats = {}
        for eid, (pr, mat) in zip(edge_ids, combo):
            prob = prob * pr
            mats[eid] = mat
        outcomes.append((prob, Representation(tuple(ranks), mats)))

    stats = {}
    lhs = rhs = 0
    for (prob, _), (det_k, expansion) in zip(
        outcomes, moment_samples(quiver, weights, [rep for _, rep in outcomes], k, stats)
    ):
        lhs = lhs + prob * det_k
        rhs = rhs + prob * expansion
    return WilsonMomentReport(lhs=lhs, rhs=rhs, terms=stats["keys"] ** k)


def _subset_selections(quiver, ranks):
    """All collections of per-edge row subsets with per-vertex sizes
    summing to the vertex rank."""
    per_vertex = []
    for a in range(quiver.p):
        es = quiver.out_edges(a)
        choices = []

        def rec(i, remaining, acc):
            if i == len(es):
                if remaining == 0:
                    choices.append(tuple(acc))
                return
            for size in range(remaining + 1):
                for comb in itertools.combinations(range(ranks[a]), size):
                    acc.append((es[i].id, comb))
                    rec(i + 1, remaining - size, acc)
                    acc.pop()

        rec(0, ranks[a], [])
        if not choices:
            return []
        per_vertex.append(choices)
    out = []
    for combo in itertools.product(*per_vertex):
        sel = {}
        for group in combo:
            for eid, comb in group:
                sel[eid] = comb
        out.append(sel)
    return out


def cauchy_binet_decompose(lap):
    """Split det L over collections of per-edge coordinate subsets: each
    term is the determinant of the Laplacian-like composite built from the
    projected edge maps; the terms sum to det L."""
    quiver = lap.quiver
    ranks = lap.ranks
    n = sum(ranks)
    if n > CAUCHY_BINET_CAP:
        raise MethodRefusal(
            f"subset decomposition capped at total rank {CAUCHY_BINET_CAP}, got {n}"
        )
    offsets = lap.block.offsets
    terms = []
    for sel in _subset_selections(quiver, ranks):
        rows = [[0] * n for _ in range(n)]
        for e in quiver.edges:
            chosen = sel.get(e.id, ())
            if not chosen:
                continue
            w = lap.weights[e.id]
            u_mat = lap.rep.matrices[e.id]
            r0 = offsets[e.src]
            c0 = offsets[e.tgt]
            for i in chosen:
                rows[r0 + i][r0 + i] = rows[r0 + i][r0 + i] + w
                for j in range(u_mat.cols):
                    rows[r0 + i][c0 + j] = rows[r0 + i][c0 + j] - w * u_mat.at(i, j)
        terms.append((sel, det_oracle(Matrix.from_rows(rows))))
    return terms
