"""The twisted Laplacian of a quiver representation, and identities for its
determinant: the cycle-multiset expansion, the characteristic polynomial
and moment identities for random representations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .errors import HolodetError, MethodRefusal, ValidationError
from .linalg import BlockMatrix, Matrix, block_offsets, det_oracle
from .quiver import Representation, validate, vertex_z
from .walks import cycle_series, shifted_visit_sum

# exact moments run one oracle determinant per joint outcome, the product
# of the edges' support sizes (2^|E| for the CLI's sign distribution); at
# 2^12 outcomes a run already takes seconds
MOMENT_OUTCOME_CAP = 2 ** 12
# the dense Laplacian has n^2 entries and the oracle's elimination costs
# n^3 ring operations, which at n = 512 is already far beyond any route's
# reach in pure Python; larger documents are refused before allocating
LAPLACIAN_SIZE_CAP = 512
# symbolic oracle and cycles run only while det L may have at most this many
# monomials (monomial_bound): on complete digraphs with one symbol per edge
# they took 0.03-0.08 s at about 1,000, 0.4-1.3 s at 10,000-15,625 and
# 9-21 s at 100,000-279,936
SYMBOLIC_TERM_CAP = 2 ** 14
# symbolic perm runs only while its power traces may have at most this many
# monomials (trace_monomial_bound): with one symbol per edge it took 0.5 s
# at 42,504, 1.3-5.8 s at 75,582-77,520 and 15-32 s past 490,000
PERM_TERM_CAP = 2 ** 16
# slots of a symbolic perm, block-perm or trace-formal run: no monomial
# bound caps folds of polynomial traces times polynomial partial sums
# (on two vertices with parallel symbolic edges each way, block-perm took
# 1.2 s at M = 1,225 and n = 8, and 3.0 s at M = 28,392 and n = 5)
SYMBOLIC_SLOT_CAP = 5
# symbolic charpoly runs only while det(tI + L) may have at most this many
# monomials (monomial_bound, shifted): with one symbol per edge it took
# 0.07 s at 3,125, 1.3 s at 46,656 and 52 s at 823,543
CHARPOLY_TERM_CAP = 2 ** 16


@dataclass
class TwistedLaplacian:
    """A validated instance and its vertex z, with the dense block operator
    formed on first read: the cycles and Euler routes never read it."""
    quiver: object
    rep: object
    weights: dict
    z: tuple

    @cached_property
    def block(self):
        """The block operator with diagonal z_a I and off-diagonal minus the
        weight-scaled sum of edge matrices."""
        quiver, rep, weights, ranks = self.quiver, self.rep, self.weights, self.ranks
        offsets = block_offsets(ranks)
        n = offsets[-1]
        rows = [[0] * n for _ in range(n)]
        for a in range(quiver.p):
            for i in range(ranks[a]):
                rows[offsets[a] + i][offsets[a] + i] = self.z[a]
        for e in quiver.edges:
            u_mat = rep.matrices[e.id]
            w = weights[e.id]
            r0, c0 = offsets[e.src], offsets[e.tgt]
            for i in range(u_mat.rows):
                for j in range(u_mat.cols):
                    rows[r0 + i][c0 + j] = rows[r0 + i][c0 + j] - w * u_mat.at(i, j)
        return BlockMatrix(Matrix.from_rows(rows), ranks)

    @property
    def matrix(self):
        return self.block.base

    @property
    def scalars(self):
        """The weights and edge-map entries, which hold L's symbol table."""
        return itertools.chain(self.weights.values(),
                               *(m.data for m in self.rep.matrices.values()))

    @property
    def ranks(self):
        return self.rep.ranks


def build_laplacian(quiver, rep, weights):
    """The TwistedLaplacian of a valid instance: validated, refused past
    LAPLACIAN_SIZE_CAP and given its vertex z here, before any route runs;
    its dense block is formed when a route first reads it."""
    bad = validate(quiver, rep, weights)
    if bad:
        raise ValidationError(bad)
    return _sized_laplacian(quiver, rep, weights)


def _sized_laplacian(quiver, rep, weights):
    """build_laplacian past validation, for an instance known to be valid:
    refused past LAPLACIAN_SIZE_CAP all the same."""
    if sum(rep.ranks) > LAPLACIAN_SIZE_CAP:
        raise MethodRefusal(
            f"Laplacian size capped at n<={LAPLACIAN_SIZE_CAP}, got {sum(rep.ranks)}"
        )
    return TwistedLaplacian(quiver, rep, weights, vertex_z(quiver, weights))


def monomial_bound(quiver, ranks, shift=0):
    """M = prod_v C(d_v + r_v - 1, r_v), d_v the out-degree of v: a bound on
    the monomials of det L in the edge weights.  Block row v of L is linear
    in v's out-weights, so det L is homogeneous of degree r_v in them, and
    there are C(d_v + r_v - 1, r_v) such monomials in d_v weights; shift=1
    counts t as one more, for det(tI + L).  Edge-map symbols are not counted."""
    return math.prod(math.comb(len(quiver.out_edges(v)) + r - 1 + shift, r)
                     for v, r in enumerate(ranks))


def trace_monomial_bound(quiver, ranks):
    """C(|E| + n - 1, n), n = sum(ranks): a bound on the monomials of a
    product of traces Tr(L^k) of total degree at most n, as L's entries are
    linear in the |E| weights.  Edge-map indeterminates are not counted."""
    n = sum(ranks)
    return math.comb(len(quiver.edges) + n - 1, n)


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
    edges = lap.quiver.edges
    return cycle_series(lap.quiver, lap.ranks, {e.id: lap.rep.matrices[e.id] for e in edges},
                        {e.id: -lap.weights[e.id] for e in edges})


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
    return shifted_visit_sum(series, lap.z, lap.ranks, lap.scalars, t_names)


def moment_samples(quiver, weights, reps, k, stats=None):
    """The two sides of the k-th moment identity at each representation, in
    order: (det L)^k by det_oracle, and the sum over k-tuples of cycle
    multisets of the tuple's weight times the product of the holonomy traces
    along its cycles.  A tuple's weight and trace product are the products of
    its members', so that sum is the k-th power of the one-multiset sum, the
    cycle expansion det_laplacian_cycles folds, which is what is formed.
    stats, when a dict, receives "keys" as det_laplacian_cycles gives it.
    The caller has validated the quiver and weights, and each rep has the
    ranks and map shapes of a valid instance, so none is validated again."""
    for rep in reps:
        lap = _sized_laplacian(quiver, rep, weights)
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
    with exact probabilities summing to 1; edges are independent.  The
    quiver and weights are a validated instance's, and each matrix has its
    edge's shape under ranks, as moment_samples takes them.
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

