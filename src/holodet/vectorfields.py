"""Determinant expansions over stacks of outgoing edges and well-chained
permutations of slots, the two reinterpretations of their combinatorial
factor, and the classical rank-one vector-field sum.
"""

from __future__ import annotations

import itertools
from math import factorial, prod

from .errors import HolodetError, MethodRefusal
from .linalg import product_traces
from .ring import int_div
from .walks import min_rotation, permutations_within, vertex_fields

DEFAULT_TERM_BUDGET = 10_000_000


def stack_cost(lap):
    """Stacks of outgoing edges times n!, the elementary terms of the stack
    sum; 0 when some vertex has no outgoing edge, since then there is no
    stack and the sum is 0."""
    stacks = 1
    for a in range(lap.quiver.p):
        stacks *= lap.quiver.outdeg(a) ** lap.ranks[a]
    return stacks * factorial(sum(lap.ranks))


def _chained_images(bl, targets):
    """Slot i stays or moves into the block its stack edge points to."""
    return [[i] + [j for j, b in enumerate(bl) if b == t]
            for i, t in enumerate(targets)]


def _sigma_prime_images(bl, targets):
    """Slot i moves within its own block or into its edge's target block."""
    return [
        [j for j, b in enumerate(bl) if b == bl[i] or b == t]
        for i, t in enumerate(targets)
    ]


def _stack_sum(lap, cost, budget, images, inner):
    """Sum over stacks xi of outgoing edges of the weight monomial times
    inner(xi, targets, perms), divided by the block-size factorials; perms
    are the permutations within images(bl, targets), where targets[i] is
    the block that xi[i] points to, listed once per target vector."""
    budget = DEFAULT_TERM_BUDGET if budget is None else budget
    if cost > budget:
        raise MethodRefusal(
            f"stack sum needs about {cost} elementary terms, budget is {budget}"
        )
    if cost == 0:
        return 0
    bl = lap.block.slots
    tgt = {e.id: e.tgt for e in lap.quiver.edges}
    out_ids = [[e.id for e in lap.quiver.out_edges(a)] for a in range(lap.quiver.p)]
    perms_by_targets = {}
    total = 0
    for xi in itertools.product(*(out_ids[b] for b in bl)):
        xw = 1
        for eid in xi:
            xw = xw * lap.weights[eid]
        targets = tuple(tgt[eid] for eid in xi)
        perms = perms_by_targets.get(targets)
        if perms is None:
            perms = list(permutations_within(images(bl, targets)))
            perms_by_targets[targets] = perms
        total = total + xw * inner(xi, targets, perms)
    return int_div(total, prod(map(factorial, lap.ranks)))


def _cycle_weight(xi, trace):
    """-Tr of the holonomy along the stack edges of a moved slot cycle."""
    return lambda cyc: -trace(min_rotation(tuple(xi[i] for i in cyc)))


def _chained_inner(perms, bl, ranks, weight):
    """Sum over well-chained sigma of the factorials of unmoved slots per
    block times the product of weight over the moved cycles."""
    inner = 0
    for _perm, cycles, _sign in perms:
        moved = [0] * len(ranks)
        term = 1
        for cyc in cycles:
            if len(cyc) == 1:
                continue
            for i in cyc:
                moved[bl[i]] += 1
            term = term * weight(cyc)
        stat = 1
        for a, r in enumerate(ranks):
            stat *= factorial(r - moved[a])
        inner = inner + stat * term
    return inner


def _sigma_prime_inner(perms, bl, targets, weight):
    """Permutations whose cycles are each either stationary within one
    block or step into the target block at every move; moving cycles
    contribute their weight, stationary cycles contribute nothing."""
    inner = 0
    for perm, cycles, _sign in perms:
        moving = [cyc for cyc in cycles if len({bl[i] for i in cyc}) > 1]
        if any(targets[i] != bl[perm[i]] for cyc in moving for i in cyc):
            continue
        term = 1
        for cyc in moving:
            term = term * weight(cyc)
        inner = inner + term
    return inner


def _beta_inner(perms, weight, blocks_slots):
    """Sum over block-preserving permutations beta and well-chained sigma
    whose support beta fixes pointwise."""
    sigmas = []
    for perm, cycles, _sign in perms:
        support = frozenset(i for i, j in enumerate(perm) if i != j)
        term = 1
        for cyc in cycles:
            if len(cyc) > 1:
                term = term * weight(cyc)
        sigmas.append((support, term))

    inner = 0
    for beta in itertools.product(*map(itertools.permutations, blocks_slots)):
        fixed = set()
        for slots, image in zip(blocks_slots, beta):
            for s, t in zip(slots, image):
                if s == t:
                    fixed.add(s)
        for support, term in sigmas:
            if support <= fixed:
                inner = inner + term
    return inner


def det_vector_fields(lap, budget=None):
    """Sum over stacks of outgoing edges and well-chained permutations,
    with stationary freedom counted by factorials of unmoved slots."""
    bl = lap.block.slots
    trace = product_traces(lap.rep.matrices.__getitem__)

    def inner(xi, _targets, perms):
        return _chained_inner(perms, bl, lap.ranks, _cycle_weight(xi, trace))

    return _stack_sum(lap, stack_cost(lap), budget, _chained_images, inner)


def det_vector_fields_variant(lap, variant, budget=None):
    """Evaluate one of the two reinterpretations of the stack sum; both
    agree exactly with det_vector_fields."""
    if variant not in ("sigma_prime", "beta"):
        raise HolodetError(f"unknown variant '{variant}'")
    bl = lap.block.slots
    trace = product_traces(lap.rep.matrices.__getitem__)
    if variant == "sigma_prime":
        cost, images = stack_cost(lap), _sigma_prime_images

        def inner(xi, targets, perms):
            return _sigma_prime_inner(perms, bl, targets, _cycle_weight(xi, trace))
    else:
        cost = stack_cost(lap) * prod(map(factorial, lap.ranks))
        images = _chained_images
        offsets = lap.block.offsets
        blocks_slots = [range(a, b) for a, b in zip(offsets, offsets[1:])]

        def inner(xi, _targets, perms):
            return _beta_inner(perms, _cycle_weight(xi, trace), blocks_slots)

    return _stack_sum(lap, cost, budget, images, inner)


def _stack_targets(lap, xi):
    return lap.block.slots, tuple(lap.quiver.edge(eid).tgt for eid in xi)


def count_sigma_prime(lap, xi):
    """|Sigma'(xi)|: the sigma_prime inner sum with unit cycle weight."""
    bl, targets = _stack_targets(lap, xi)
    perms = permutations_within(_sigma_prime_images(bl, targets))
    return _sigma_prime_inner(perms, bl, targets, lambda cyc: 1)


def count_sigma_weighted(lap, xi):
    """Sum over well-chained sigma of the product of factorials of unmoved
    slots per block; equals |Sigma'(xi)|."""
    bl, targets = _stack_targets(lap, xi)
    perms = permutations_within(_chained_images(bl, targets))
    return _chained_inner(perms, bl, lap.ranks, lambda cyc: 1)


def vertex_field_sum(quiver, weights, cycle_factor):
    """Sum over assignments of one outgoing edge per vertex of the weight
    monomial times the product of cycle_factor over the limit cycles of the
    assignment, each an edge list."""
    total = 0
    for choice, cycles in vertex_fields(quiver):
        xw = 1
        for e in choice:
            xw = xw * weights[e.id]
        factor = 1
        for cyc in cycles:
            factor = factor * cycle_factor(cyc)
        total = total + xw * factor
    return total


def det_forman_classic(lap):
    """Rank-one vector-field sum: over assignments of one outgoing edge per
    vertex, the weight monomial times the product of (1 - holonomy) over
    the limit cycles of the assignment."""
    if any(r != 1 for r in lap.ranks):
        raise MethodRefusal("classical vector-field sum requires all ranks 1")
    matrices = lap.rep.matrices

    def one_minus_hol(cyc):
        hol = 1
        for e in cyc:
            hol = hol * matrices[e.id].at(0, 0)
        return 1 - hol

    return vertex_field_sum(lap.quiver, lap.weights, one_minus_hol)
