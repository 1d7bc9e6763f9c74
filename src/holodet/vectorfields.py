"""Determinant expansions over stacks of outgoing edges and well-chained
permutations of slots, and the two reinterpretations of their
combinatorial factor.
"""

from __future__ import annotations

import itertools
from functools import partial
from math import factorial, prod

from .errors import HolodetError, MethodRefusal
from .linalg import exact_factors, product_traces
from .ring import gaussian_ints, gaussian_scalar, int_div
from .walks import permutations_within

DEFAULT_TERM_BUDGET = 10_000_000


def stack_cost(lap):
    """Stacks of outgoing edges times n!, the elementary terms of the stack
    sum; 0 when some vertex has no outgoing edge, since then there is no
    stack and the sum is 0."""
    count = prod(lap.quiver.outdeg(a) ** r for a, r in enumerate(lap.ranks))
    return count * factorial(sum(lap.ranks))


def stacks(lap):
    """Every stack: one id per slot of an edge leaving the slot's vertex."""
    out_ids = [[e.id for e in lap.quiver.out_edges(a)] for a in range(lap.quiver.p)]
    return itertools.product(*(out_ids[b] for b in lap.block.slots))


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


def _stack_sum(lap, cost, budget, terms):
    """Sum over stacks xi of outgoing edges of the weight monomial times
    inner, divided by the block-size factorials.  terms(targets), where
    targets[i] is the block that xi[i] points to, lists pairs (stat,
    cycles) once per target vector; inner sums stat times the product
    over cycles of -Tr of the holonomy along xi's edges on the cycle, each
    distinct cycle weighed once per stack and each word read once.

    When linalg.exact_factors admits the edge maps and ring.gaussian_ints
    the weights, the sum runs on Gaussian integers (_exact_stack_sum);
    otherwise, for Poly and float values, on scalars."""
    budget = DEFAULT_TERM_BUDGET if budget is None else budget
    if cost > budget:
        raise MethodRefusal(
            f"stack sum needs about {cost} elementary terms, budget is {budget}"
        )
    if cost == 0:
        return 0
    maps = lap.rep.matrices
    ints = gaussian_ints(list(lap.weights.values())) if exact_factors(maps.values()) else None
    if ints is not None:
        return _exact_stack_sum(lap, terms, ints)
    trace = product_traces(maps)
    read = {}
    total = 0
    for xi, words, stats in _stack_plans(lap, terms, 1):
        xw = 1
        for eid in xi:
            xw = xw * lap.weights[eid]
        weights = []
        for word in words:
            got = read.get(word)
            if got is None:
                got = read[word] = -trace(word)
            weights.append(got)
        inner = 0
        for stat, idx in stats:
            term = 1
            for k in idx:
                term = term * weights[k]
            inner = inner + stat * term
        total = total + xw * inner
    return int_div(total, prod(map(factorial, lap.ranks)))


def _exact_stack_sum(lap, terms, ints):
    """_stack_sum on Gaussian integers: with every weight over wd
    (gaussian_ints' common denominator) and every edge map over md
    (product_traces' with pairs), a stack's weight monomial is a Gaussian
    integer over wd^n, a cycle's trace along k edges one over md^k and a
    stat, scaled by md^(n - moved slots), makes each term one over md^n,
    so the sum needs no reduction until it becomes a scalar, of the kind
    that the scalar sum would have: the widest among the weights and the
    traces read, and at least a Fraction, as int_div makes one."""
    md, trace = product_traces(lap.rep.matrices, pairs=True)
    wd, re, im, kind = ints
    pair = dict(zip(lap.weights, zip(re, im or [0] * len(re))))
    read = {}
    total_re = total_im = 0
    for xi, words, stats in _stack_plans(lap, terms, md):
        a, b = 1, 0
        for eid in xi:
            c, e = pair[eid]
            a, b = a * c - b * e, a * e + b * c
        weights = []
        for word in words:
            got = read.get(word)
            if got is None:
                tr, ti, tkind = trace(word)
                got = read[word] = -tr, -ti, tkind
            weights.append(got)
        inner_re = inner_im = 0
        for stat, idx in stats:
            term_re, term_im = stat, 0
            for k in idx:
                c, e, _ = weights[k]
                term_re, term_im = term_re * c - term_im * e, term_re * e + term_im * c
            inner_re += term_re
            inner_im += term_im
        total_re += a * inner_re - b * inner_im
        total_im += a * inner_im + b * inner_re
    kind = max(1, kind, *(tkind for *_, tkind in read.values()))
    d = (wd * md) ** len(lap.block.slots) * prod(map(factorial, lap.ranks))
    return gaussian_scalar(total_re, total_im, d, kind)


def _stack_plans(lap, terms, md):
    """Per stack xi: xi, the words its edges read along the distinct
    cycles of its target vector's terms, and the terms' stats, each with
    the indices of its cycles and scaled by md^(n - moved slots); each
    target vector is planned once."""
    tgt = {e.id: e.tgt for e in lap.quiver.edges}
    n = len(lap.block.slots)
    plans = {}
    for xi in stacks(lap):
        targets = tuple(tgt[eid] for eid in xi)
        plan = plans.get(targets)
        if plan is None:
            plan = plans[targets] = _plan(terms(targets), n, md)
        cycles, stats = plan
        yield xi, [tuple(map(xi.__getitem__, cyc)) for cyc in cycles], stats


def _plan(terms, n, md):
    """The distinct cycles of terms, pairs (stat, cycles), and each pair's
    stat times md^(n - its moved slots) with its cycles as indices into
    them."""
    index = {}
    stats = []
    for stat, cycles in terms:
        moved = sum(map(len, cycles))
        stats.append((stat * md ** (n - moved), [index.setdefault(c, len(index)) for c in cycles]))
    return list(index), stats


def _chained_terms(bl, ranks, targets):
    """Per well-chained sigma, the factorials of its unmoved slots per
    block and its moved cycles."""
    for _perm, cycles, _sign in permutations_within(_chained_images(bl, targets)):
        moved = [cyc for cyc in cycles if len(cyc) > 1]
        unmoved = list(ranks)
        for cyc in moved:
            for i in cyc:
                unmoved[bl[i]] -= 1
        yield prod(map(factorial, unmoved)), moved


def _sigma_prime_terms(bl, targets):
    """Permutations whose cycles are each either stationary within one
    block or step into the target block at every move, with their moving
    cycles; stationary cycles contribute nothing."""
    for perm, cycles, _sign in permutations_within(_sigma_prime_images(bl, targets)):
        moving = [cyc for cyc in cycles if len({bl[i] for i in cyc}) > 1]
        if all(targets[i] == bl[perm[i]] for cyc in moving for i in cyc):
            yield 1, moving


def _beta_terms(bl, fixed_sets, targets):
    """Per well-chained sigma, the number of block-preserving permutations
    beta, given by their sets of fixed slots, that fix sigma's support
    pointwise, and its moved cycles."""
    for perm, cycles, _sign in permutations_within(_chained_images(bl, targets)):
        support = {i for i, j in enumerate(perm) if i != j}
        moved = [cyc for cyc in cycles if len(cyc) > 1]
        yield sum(support <= fixed for fixed in fixed_sets), moved


def det_vector_fields(lap, budget=None):
    """Sum over stacks of outgoing edges and well-chained permutations,
    with stationary freedom counted by factorials of unmoved slots; each
    target vector's permutations are planned once, and each stack weighs
    each of their distinct moved cycles once."""
    terms = partial(_chained_terms, lap.block.slots, lap.ranks)
    return _stack_sum(lap, stack_cost(lap), budget, terms)


def det_vector_fields_variant(lap, variant, budget=None):
    """Evaluate one of the two reinterpretations of the stack sum; both
    agree exactly with det_vector_fields."""
    if variant not in ("sigma_prime", "beta"):
        raise HolodetError(f"unknown variant '{variant}'")
    bl = lap.block.slots
    if variant == "sigma_prime":
        return _stack_sum(lap, stack_cost(lap), budget, partial(_sigma_prime_terms, bl))
    offsets = lap.block.offsets
    blocks_slots = [range(a, b) for a, b in zip(offsets, offsets[1:])]
    fixed_sets = [{s for slots, image in zip(blocks_slots, beta)
                   for s, t in zip(slots, image) if s == t}
                  for beta in itertools.product(*map(itertools.permutations, blocks_slots))]
    cost = stack_cost(lap) * prod(map(factorial, lap.ranks))
    return _stack_sum(lap, cost, budget, partial(_beta_terms, bl, fixed_sets))

