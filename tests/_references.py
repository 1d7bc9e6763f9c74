"""Reference sums that more than one test module checks the package
against, and that no route runs."""

import itertools
from math import prod

from holodet.ring import gaussian_scalar, int_div
from holodet.walks import _walk_totals


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
