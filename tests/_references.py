"""Reference sums that more than one test module checks the package
against, and that no route runs."""

import itertools
from fractions import Fraction
from math import prod
from operator import add, mul

from holodet.errors import MethodRefusal
from holodet.linalg import exact_forms, int_close, int_product, int_sum, product_traces
from holodet.ring import GaussianRational, gaussian_scalar, int_div
from holodet.walks import _visit_bound, check_perm_sum_slots, fold_refusal


def closed_walk_factors(quiver, bound, maps):
    """{u: F_u} over the visit vectors u within bound on which a closed
    walk closes, the cycle factors whose truncated exponential
    walks.cycle_series folds: F_u = (-1)^(|u|-1) Tr(sum_w W(w)) / u_s over
    the walks w that the transfer closes on u from its root s, W(w) the
    product of maps[e.id] along w.  Exact totals are made canonical
    scalars over the maps' common denominator (linalg.exact_forms).
    Refused, before any product, when walks.fold_refusal refuses the
    bound.  The sums come from tuple_transfer, not from walks._transfer."""
    bound = _visit_bound(quiver, bound)
    why = fold_refusal(quiver, bound)
    if why is not None:
        raise MethodRefusal(why)
    forms = exact_forms(maps)
    d = kind = None
    if forms is not None:
        d, kind, maps = forms
        kind = max(1, kind)
    out = {}
    for u, (closes, q) in tuple_transfer(quiver, bound, maps).items():
        k = sum(u)
        if d is None:
            total = sum(closes)
            out[u] = int_div(total if k % 2 else -total, q)
        else:
            sign = 1 if k % 2 else -1
            out[u] = gaussian_scalar(sign * closes[0], sign * closes[1], d ** k * q, kind)
    return out


def tuple_transfer(quiver, bound, maps):
    """{u: (closes, u_s)} over the visit vectors u, as tuples, on which a
    closed walk closes from its root s, the first vertex of u in the order
    of (bound, index), staying on vertices at or after s: closes lists
    m.close(f) over those walks, m the product of the maps along the walk
    but its last edge and f the last edge's map, or, on bare int forms,
    sums them to an int pair.  Frontiers are keyed by (current vertex,
    visits so far), the visits a tuple: the transfer walks._transfer ran
    before its states were packed into one int, kept as its reference."""
    p = quiver.p
    exact = type(next(iter(maps.values()), None)) is tuple
    times, plus = (int_product, int_sum) if exact else (mul, add)
    if not exact:
        maps = {key: (m, m) for key, m in maps.items()}
    outs = [[(e.tgt, *maps[e.id]) for e in quiver.out_edges(v)] for v in range(p)]
    order = sorted(range(p), key=lambda a: (bound[a], a))
    pos = [order.index(a) for a in range(p)]
    out = {}
    for s in order:
        if not bound[s]:
            continue
        closes = {}
        level = {(s, (0,) * p): None}
        while level:
            nxt = {}
            for (cur, v), m in level.items():
                w = v[:cur] + (v[cur] + 1,) + v[cur + 1:]
                for t, rows, cols in outs[cur]:
                    if t == s:
                        if exact:
                            closes[w] = int_close(m, cols, *closes.get(w, (0, 0)))
                        else:
                            closes.setdefault(w, []).append(m and m.close(cols))
                        if w[s] == bound[s]:
                            continue
                    elif pos[t] < pos[s] or w[t] == bound[t]:
                        continue
                    got = rows if m is None else times(m, cols)
                    key = (t, w)
                    prev = nxt.get(key)
                    nxt[key] = got if prev is None else plus(prev, got)
            level = nxt
        for u, total in closes.items():
            out[u] = total, u[s]
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


def bareiss_on_scalars(m):
    """Determinant of a square exact matrix of order at least 1 by
    fraction-free Bareiss elimination on GaussianRational objects when an
    entry is one, else on Fractions, each product and quotient a reduced
    scalar: the elimination linalg.det_oracle ran before it moved to
    Gaussian-integer pairs, kept as its reference."""
    n = m.rows
    if any(isinstance(x, GaussianRational) for x in m.data):
        a = [[x if isinstance(x, GaussianRational) else GaussianRational(x) for x in row]
             for row in m.to_rows()]
        zero = GaussianRational(0)
    else:
        a = [[Fraction(x) for x in row] for row in m.to_rows()]
        zero = Fraction(0)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == zero:
            for i in range(k + 1, n):
                if a[i][k] != zero:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return zero
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = pivot * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = num / prev if prev != 1 else num
        prev = pivot
    d = a[n - 1][n - 1]
    return -d if sign < 0 else d
