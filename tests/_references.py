"""Reference sums that more than one test module checks the package
against, and that no route runs."""

import itertools
from math import prod

from holodet.linalg import product_traces
from holodet.ring import gaussian_scalar, int_div
from holodet.walks import _walk_totals, check_perm_sum_slots


def closed_walk_factors(quiver, bound, maps):
    """{u: F_u} over the visit vectors u within bound on which a closed
    walk closes, the cycle factors whose truncated exponential
    walks.cycle_series folds: F_u = (-1)^(|u|-1) Tr(sum_w W(w)) / u_s over
    the walks w that the transfer closes on u from its root s, W(w) the
    product of maps[e.id] along w.  Exact totals are made canonical
    scalars over the transfer's common denominator.  Refused, before any
    product, when walks.fold_refusal refuses the bound."""
    bound, d, kind, totals = _walk_totals(quiver, bound, maps)
    out = {}
    for u, (total, q) in totals.items():
        k = sum(u)
        if d is None:
            out[u] = int_div(total if k % 2 else -total, q)
        else:
            sign = 1 if k % 2 else -1
            out[u] = gaussian_scalar(sign * total[0], sign * total[1], d ** k * q, kind)
    return out


def vertex_fields(quiver):
    """Every choice of one outgoing edge per vertex (a tuple indexed by
    vertex), with the limit cycles of its functional graph as edge lists;
    nothing when some vertex has no outgoing edge."""
    for choice in itertools.product(*(quiver.out_edges(v) for v in range(quiver.p))):
        done = set()
        cycles = []
        for start in range(quiver.p):
            path = []
            on_path = {}
            v = start
            while v not in done and v not in on_path:
                on_path[v] = len(path)
                path.append(choice[v])
                v = choice[v].tgt
            if v in on_path:
                cycles.append(path[on_path[v]:])
            done.update(on_path)
        yield choice, cycles


def vertex_field_sum(quiver, weights, cycle_factor):
    """Sum over assignments of one outgoing edge per vertex of the weight
    monomial times the product of cycle_factor over the limit cycles of the
    assignment, each an edge list."""
    total = 0
    for choice, cycles in vertex_fields(quiver):
        total = total + prod(weights[e.id] for e in choice) * prod(map(cycle_factor, cycles))
    return total


def block_walk_traces(bm):
    """trace(seq): the trace of the block product along a closed sequence
    of block indices, (s0, s1) (s1, s2) ... (s_last, s0); base-point free."""
    trace = product_traces(bm.blocks())
    return lambda seq: trace(tuple(zip(seq, seq[1:] + seq[:1])))


def slot_cover_sum(allowed, weight):
    """Sum over the permutations perm with perm[i] in allowed[i] of sign
    times the product of weight(cyc) over their cycles (i, perm[i], ...),
    each from its least slot, fixed points included.  On the set S of
    slots not yet covered, f(S) sums (-1)^(|C|-1) weight(C) f(S - C) over
    the cycles C through min S inside S; it is memoized on S, and a zero
    f(S - C) or weight(C) cuts off every permutation below it.  Past
    PERM_SUM_CAP slots it refuses before reading any weight.  The slot
    fold that walks.cycle_cover_sum folds by class, kept as its
    reference."""
    check_perm_sum_slots(len(allowed))
    options = [sorted(set(a)) for a in allowed]
    memo = {0: 1}

    def cover(left):
        if left in memo:
            return memo[left]
        start = (left & -left).bit_length() - 1
        path = [start]
        total = 0

        def extend(v, free):
            nonlocal total
            for j in options[v]:
                if j == start:
                    rest = cover(free)
                    w = rest and weight(tuple(path))
                    if w:
                        total = total + w * rest if len(path) % 2 else total - w * rest
                elif free >> j & 1:
                    path.append(j)
                    extend(j, free & ~(1 << j))
                    path.pop()

        extend(start, left & ~(1 << start))
        memo[left] = total
        return total

    return cover((1 << len(options)) - 1)
