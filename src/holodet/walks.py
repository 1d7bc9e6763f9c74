"""Cycles on a quiver, their multisets, powers and primes, and the
permutations that the determinant routes sum over.

``cycle_words`` is the one cycle search and ``GCycle`` the one
rotation-class type, which ``closed_edge_walks`` builds from its words.
The search extends only walks whose edge word is a prenecklace, as the
Fredricksen-Kessler-Maiorana necklace generator does, so it reaches each
cycle once, in its least rotation.  A cyclic walk on range(p) is a cycle
on ``walk_quiver(p)``, whose edge (a, b) steps from a to b; the block
routes walk its subquiver of nonzero off-diagonal blocks.
Canonical form everywhere is the lexicographically minimal rotation; the
valuation of a cycle is the order of its rotation stabiliser.

Multiset streams are lazy and deterministic: candidates are fixed in
sorted order and multiplicities are chosen in nondecreasing candidate
order, so every multiset within the visit bound appears exactly once.  The
generating series of those multisets, graded by visit vector, is the
truncated exponential that ``cycle_series`` folds without listing them,
from the cycle factors summed by visit vector, which a closed-walk
transfer takes without listing a cycle.  The fold walks only the cells of
the visit box that sums of those visit vectors reach, in Gaussian
integers when the factors are exact, and is refused before any product
when ``fold_refusal`` counts more steps than ``FOLD_WORK_CAP``.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, inf, isqrt, lcm, prod
from operator import add, mul

from .errors import HolodetError, MethodRefusal
from .linalg import exact_forms, int_close, int_product, int_sum
from .quiver import Edge, Quiver
from .ring import (
    Poly,
    Symbols,
    gaussian_ints,
    gaussian_scalar,
    int_div,
    lift,
)

# search states a prime-cycle search visits before it refuses
PRIME_SEARCH_NODES = 2_000_000
# a search with no visit bound that has pushed 1/PRIME_COUNT_SHARE of its
# node budget counts the primes it must reach, and refuses at once when
# they pass the budget; the answered euler-truncated ops of the benchmark
# push fewer than 7,812 states (seeds 1-30), a quarter of 31,250
PRIME_COUNT_SHARE = 64
# steps, cells walked plus pulls, a cycle expansion's fold may take
# before it refuses; complete (2,)*8 takes 1.68M steps, folded in 1.4 to
# 2.0 s on a shared 2-CPU Xeon under Python 3.11
FOLD_WORK_CAP = 2 ** 21
# frontier states the boolean transfer that counts a fold's steps may
# hold: complete (2,)*8, the largest complete digraph of rank 2 that the
# closed-form bound admits, holds 31,508
COUNT_STATE_CAP = 2 ** 15
# what a sub-box pull costs per cell it looks at, in key pulls: 2.3 to
# 3.4 in fits over the cells of complete digraphs of total rank 5 to 12
SUBBOX_COST = 2.5
# a fold walks its whole box, not the closure of its keys, when the box
# has at most this many cells per key
BOX_WALK_RATIO = 8
# slots of a permutation sum: block-perm's and trace-formal's cycle-cover
# folds take about 0.35 s on exact complete (1,)*8 (shared 2-CPU Xeon)
PERM_SUM_CAP = 8


def check_perm_sum_slots(n):
    """Refuse a sum over the permutations of n slots past PERM_SUM_CAP."""
    if n > PERM_SUM_CAP:
        raise MethodRefusal(f"permutation sum capped at n<={PERM_SUM_CAP}, got {n}")


def _least_rotation(seq):
    """Start of the first lexicographically least rotation of seq.  It
    starts at an occurrence of the least entry, so only those compete."""
    m = min(seq)
    best = seq.index(m)
    if seq.count(m) > 1:
        for r in range(best + 1, len(seq)):
            if seq[r] == m and seq[r:] + seq[:r] < seq[best:] + seq[:best]:
                best = r
    return best


def min_rotation(seq):
    r = _least_rotation(seq)
    return seq[r:] + seq[:r] if r else seq


class GCycle:
    """Rotation class of a well-chained edge sequence on a quiver."""

    __slots__ = ("edges", "srcs")

    def __init__(self, edge_ids, src_vertices):
        edges = tuple(edge_ids)
        srcs = tuple(src_vertices)
        if len(edges) < 2:
            raise HolodetError(f"cycle needs length >= 2, got {edges!r}")
        if len(edges) != len(srcs):
            raise HolodetError("edge/source sequences disagree in length")
        best = _least_rotation(edges)
        self.edges = edges[best:] + edges[:best]
        self.srcs = srcs[best:] + srcs[:best]

    @classmethod
    def _canonical(cls, edges, srcs):
        """The cycle of edge and source tuples already in least rotation,
        as the necklace search yields them, built without rotating."""
        out = object.__new__(cls)
        out.edges = edges
        out.srcs = srcs
        return out

    @classmethod
    def of_walk(cls, seq):
        """The cycle of a closed vertex sequence on walk_quiver: one edge
        (a, b) per step a -> b, the wrap from the last entry included."""
        seq = tuple(seq)
        edges = tuple(zip(seq, seq[1:] + seq[:1]))
        if any(a == b for a, b in edges):
            raise HolodetError(f"equal adjacent entries in {seq!r}")
        return cls(edges, seq)

    def __len__(self):
        return len(self.edges)

    @property
    def seq(self):
        return self.srcs

    def visits(self, p):
        counts = [0] * p
        for v in self.srcs:
            counts[v] += 1
        return tuple(counts)

    @property
    def valuation(self):
        """len / period, the first r > 0 whose rotation gives edges back."""
        edges = self.edges
        for r in range(1, len(edges)):
            if edges[r] == edges[0] and edges[r:] + edges[:r] == edges:
                return len(edges) // r
        return 1

    @property
    def sort_key(self):
        return (len(self.edges), self.edges)

    def __eq__(self, other):
        return isinstance(other, GCycle) and self.edges == other.edges

    def __hash__(self):
        return hash(("gcycle", self.edges))

    def __repr__(self):
        return f"GCycle({self.edges!r})"


class CycleMultiset:
    """Multiset of canonical walks or cycles with multiplicity bookkeeping."""

    __slots__ = ("items",)

    def __init__(self, items=()):
        items = tuple(sorted(items, key=lambda wm: wm[0].sort_key))
        for _, mult in items:
            if mult < 1:
                raise HolodetError("multiplicities must be >= 1")
        self.items = items

    @property
    def is_empty(self):
        return not self.items

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)

    def visits(self, p):
        total = [0] * p
        for c, m in self.items:
            for a, v in enumerate(c.visits(p)):
                total[a] += m * v
        return tuple(total)

    def multiplicity_factorial(self):
        out = 1
        for _, m in self.items:
            out *= factorial(m)
        return out

    def valuation_product(self):
        out = 1
        for c, m in self.items:
            out *= c.valuation ** m
        return out

    def __eq__(self, other):
        return isinstance(other, CycleMultiset) and self.items == other.items

    def __hash__(self):
        return hash(self.items)

    def __repr__(self):
        return f"CycleMultiset({list(self.items)!r})"


def _multiset_stream(candidates, p, bound):
    visits = [c.visits(p) for c in candidates]
    fits = lambda v, remaining: all(x <= r for x, r in zip(v, remaining))

    def rec(start, remaining):
        yield ()
        for j in range(start, len(candidates)):
            v = visits[j]
            if not fits(v, remaining):
                continue
            rem = list(remaining)
            m = 0
            while fits(v, rem):
                for a in range(p):
                    rem[a] -= v[a]
                m += 1
                for rest in rec(j + 1, tuple(rem)):
                    yield ((candidates[j], m),) + rest

    for items in rec(0, tuple(bound)):
        yield CycleMultiset(items)


def _visit_bound(quiver, bound):
    bound = tuple(bound)
    if len(bound) != quiver.p or any(b < 0 for b in bound):
        raise HolodetError(f"bad visit bound {bound!r}")
    return bound


def _transfer(quiver, bound, maps, state_cap=None):
    """{u: (closes, u_s)} over the visit vectors u on which a closed walk
    closes: closes lists m.close(f) for the walks with visit vector u that
    start at s, the root of u, and stay on vertices at or after s, m the
    product of maps along the walk but its last edge and f the last edge's
    map; None once the frontiers have held more than state_cap states in
    all.  On bare int forms (linalg.exact_forms) closes is their sum, an
    int pair (re, im).  With every map None, no state holds a product and
    every close is None: the run finds the keys alone.

    The root of u is the first vertex u visits in the order of (bound,
    index): a frontier product costs r_s r_cur r_next at a root of rank
    r_s, and walks come back to s up to bound_s times.  Visits are counted
    at each edge's source, as candidate_gcycles counts them, and the
    quiver has no self-loops.  No cycle is listed: for each root s, a
    frontier keyed by (current vertex, visits so far) holds the sum of the
    products over the walks that reach that state.  A step is taken only
    while its source is under its bound, so a state whose vertex has no
    visit left is not kept.  Each step back to s adds Tr(state x map) to
    the sum of the visit vector it closes on, without forming that
    product."""
    p = quiver.p
    exact = type(next(iter(maps.values()), None)) is tuple
    times, plus = mul, add
    if exact:
        times, plus = int_product, int_sum
    else:
        # a Matrix map is its own rows and its own columns
        maps = {key: (m, m) for key, m in maps.items()}
    outs = [[(e.tgt, *maps[e.id]) for e in quiver.out_edges(v)] for v in range(p)]
    order = sorted(range(p), key=lambda a: (bound[a], a))
    pos = [order.index(a) for a in range(p)]
    out = {}
    states = 0
    for s in order:
        if not bound[s]:
            continue
        closes = {}
        # the state before the first step holds no product
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
            states += len(level)
            if state_cap is not None and states > state_cap:
                return None
        for u, total in closes.items():
            out[u] = total, u[s]
    return out


def _walk_totals(quiver, bound, maps, weights=None):
    """The checked bound, d, kind and {u: (total, u_s)}: total the sum of
    the transfer's closes on u, over the maps times their weights (none
    when weights is None).  When linalg.exact_forms admits them, d is
    their common denominator, kind at least 1, as an int sum divided by a
    count is a Fraction, and total the int pair (re, im) of a Gaussian
    integer over d^|u|; otherwise d and kind are None and total a scalar.
    Refused, before any product, past the fold's work cap."""
    bound = _visit_bound(quiver, bound)
    why = fold_refusal(quiver, bound)
    if why is not None:
        raise MethodRefusal(why)
    forms = exact_forms(maps, weights)
    if forms is None:
        if weights is not None:
            maps = {key: m.scale(weights[key]) for key, m in maps.items()}
        totals = _transfer(quiver, bound, maps)
        return bound, None, None, {u: (sum(c), q) for u, (c, q) in totals.items()}
    d, kind, forms = forms
    return bound, d, max(1, kind), _transfer(quiver, bound, forms)


def cycle_series(quiver, bound, maps, weights=None):
    """The truncated exponential of the cycle factors F_u over the visit
    vectors u within bound on which a closed walk closes, the maps times
    their weights when weights are given, as a VisitSeries.  F_u is
    (-1)^(|u|-1) Tr(sum_w W(w)) / u_s, W(w) the product of the maps along
    w, over the walks w that _transfer closes on u from its root s.  A
    cycle of valuation m that visits s u_s times has u_s/m rotations that
    start at s, so F_u is the sum of (-1)^(len-1) Tr W(c) / val(c) over
    the cycles c that candidate_gcycles lists with visit vector u,
    whichever vertex roots u; a u whose sum is 0 keeps its key.

    Exact factors are never made scalars: with D the transfer's common
    denominator and L = lcm(1 .. max bound), each
    s_u = |u| (DL)^|u| F_u = (-1)^(|u|-1) |u| (L^|u| / u_s) x total is a
    Gaussian integer, since u_s <= max bound divides L."""
    bound, d, kind, totals = _walk_totals(quiver, bound, maps, weights)
    if d is None:
        return _dense_series({u: sum(u) * int_div(t if sum(u) % 2 else -t, q)
                              for u, (t, q) in totals.items()}, bound)
    ell = lcm(*range(1, max(bound, default=0) + 1))
    scaled = {}
    for u, ((a, b), q) in totals.items():
        k = sum(u)
        c = k * ell ** k // q
        if not k % 2:
            c = -c
        scaled[u] = c * a, c * b
    return _exact_series(scaled, bound, d * ell, kind)


def _exact_series(scaled, bound, lam, kind):
    """The VisitSeries of Gaussian-integer s_u = |u| lam^|u| F_u.  It holds
    H_v = N! lam^|v| G_v for N = |bound|: H_0 = N!, and the Euler operator
    |v| G_v = sum_u |u| F_u G_(v-u) becomes |v| H_v = sum_u s_u H_(v-u),
    whose sum |v| divides exactly, since H_v is a Gaussian integer: it is
    N! / |v|! times the sum, over the multisets of keys with total v, of
    |v|! / prod_u m_u! times prod_u (lam^|u| F_u)^m_u, and sum_u m_u <= |v|.
    The s_u and H_v are (re, im) pairs."""
    values = _fold(scaled, bound, (factorial(sum(bound)), 0), _gaussian_pull)
    return VisitSeries(bound, len(scaled), values, lam, kind)


def _dense_series(scaled, bound):
    return VisitSeries(bound, len(scaled),
                       _fold(scaled, bound, int_div(1, 1), _scalar_pull))


def _gaussian_pull(terms, size):
    return (sum([a * c - b * d for (a, b), (c, d) in terms]) // size,
            sum([a * d + b * c for (a, b), (c, d) in terms]) // size)


def _scalar_pull(terms, size):
    return int_div(sum([f * g for f, g in terms]), size)


class VisitSeries:
    """The coefficients G_v of exp(sum_u F_u y^u) over the cells v of a
    visit box that sums of factor keys u reach, in increasing order of v.

    values[v] is G_v itself when lam is None; otherwise it is the Gaussian
    integer H_v = N! lam^|v| G_v as an (re, im) pair, and kind,
    ring.gaussian_ints' kind, is the type every G_v but G_0 takes.  keys
    is the number of factor keys folded."""

    __slots__ = ("bound", "keys", "values", "lam", "kind")

    def __init__(self, bound, keys, values, lam=None, kind=None):
        self.bound = bound
        self.keys = keys
        self.values = values
        self.lam = lam
        self.kind = kind

    def coefficients(self):
        """{v: G_v}, each a canonical scalar; G_0 is int_div(1, 1)."""
        if self.lam is None:
            return self.values
        dens = [factorial(sum(self.bound))]
        for _ in range(sum(self.bound)):
            dens.append(dens[-1] * self.lam)
        return {v: gaussian_scalar(re, im, dens[sum(v)], self.kind) if any(v)
                else int_div(1, 1) for v, (re, im) in self.values.items()}

    def visit_sum(self, zs):
        """sum_v G_v prod_a z_a^(bound_a - v_a), as walks.visit_sum gives it
        from coefficients().  When the H_v are exact and so is every z_a
        with bound_a > 0, the sum is formed over the common denominator
        N! lam^N prod_a d_a^bound_a, z_a = Z_a / d_a, and made a scalar once:
        of the widest type among kind, G_0 included, and those z_a, as the
        dense determinant of the same entries gives it."""
        bound = self.bound
        parts = (None,) if self.lam is None else [
            gaussian_ints((z if n else 1,)) for z, n in zip(zs, bound)]
        if None in parts:
            return visit_sum(self.coefficients(), zs, bound)
        total = sum(bound)
        lam = self.lam
        den = factorial(total) * lam ** total
        # tables[a][x] = Z_a^(n_a - x) d_a^x as an (re, im) pair
        tables = []
        for (zd, (za,), zbs, _), n in zip(parts, bound):
            zb = zbs[0] if zbs else 0
            den *= zd ** n
            col = [(1, 0)]
            for _ in range(n):
                re, im = col[-1]
                col.append((re * za - im * zb, re * zb + im * za))
            tables.append([(re * zd ** x, im * zd ** x)
                           for x, (re, im) in enumerate(reversed(col))])
        lams = [lam ** (total - k) for k in range(total + 1)]
        acc_re = acc_im = 0
        for v, (re, im) in self.values.items():
            cr, ci = lams[sum(v)], 0
            for col, x in zip(tables, v):
                tr, ti = col[x]
                cr, ci = cr * tr - ci * ti, cr * ti + ci * tr
            acc_re += re * cr - im * ci
            acc_im += re * ci + im * cr
        kind = max([self.kind] + [z_kind for _, _, _, z_kind in parts])
        return gaussian_scalar(acc_re, acc_im, den, kind)


def visit_box_cells(bound):
    """Cells of the visit box prod_a [0, bound_a]."""
    return prod(b + 1 for b in bound)


def _pull_bound(bound):
    """sum over the visit box of prod_a (v_a + 1): the steps of a fold in
    which every cell pulls over its whole sub-box, itself left out."""
    return prod((b + 1) * (b + 2) // 2 for b in bound)


class _Packing:
    """Visit vectors packed into one int, a bit field per vertex with
    vertex 0 highest, each field one bit wider than the largest bound so
    that its top bit is a guard.  With every guard set on v, a field of
    v - u borrows its guard exactly when u_a > v_a, and no borrow crosses a
    field; so keying cells with their guards set, v - u is a cell's key
    only when u <= v, and then it is the key of v - u.  Packed order is
    lexicographic order on visit vectors."""

    def __init__(self, bound):
        self.bound = bound
        p = len(bound)
        width = max(bound, default=0).bit_length() + 1
        self.shifts = [width * (p - 1 - a) for a in range(p)]
        self.top = 1 << (width - 1)
        self.guards = sum(self.top << s for s in self.shifts)

    def pack(self, v):
        return sum(x << s for x, s in zip(v, self.shifts))

    def unpack(self, key):
        mask = self.top - 1
        return tuple((key >> s) & mask for s in self.shifts)

    def cells(self, keys, budget=None):
        """(guarded key, v) of each cell a fold over the packed factor keys
        walks, increasing: the cells that sums of keys reach, taken as a
        closure from 0, unless the box has at most BOX_WALK_RATIO cells per
        key and one more, or the closure pushes more often than walking the
        box would pull, and then the whole box.  With a budget, None when
        the closure passes it and the box has more cells than it."""
        bound, shifts, top, guards = self.bound, self.shifts, self.top, self.guards
        box = visit_box_cells(bound)
        if box > BOX_WALK_RATIO * (len(keys) + 1):
            limit = min(box * (len(keys) + 1), _pull_bound(bound))
            if budget is not None:
                limit = min(limit, budget)
            # each reached cell's slack bound_a - v_a, guarded: u fits on v
            # when taking it from v's slack borrows no guard
            seen = {guards: sum((top | b) << s for b, s in zip(bound, shifts))}
            todo = [guards]
            pushes = 0
            while todo and pushes <= limit:
                key = todo.pop()
                slack = seen[key]
                pushes += len(keys)
                for u in [u for u in keys if (slack - u) & guards == guards]:
                    if key + u not in seen:
                        seen[key + u] = slack - u
                        todo.append(key + u)
            if not todo:
                return [(key, self.unpack(key)) for key in sorted(seen)]
        if budget is not None and box > budget:
            return None
        return list(zip(
            map(sum, itertools.product(*([(top | x) << s for x in range(b + 1)]
                                         for b, s in zip(bound, shifts)))),
            itertools.product(*(range(b + 1) for b in bound))))


def _span(v, shifts):
    """The packed keys of the cells w <= v, increasing, for v's fields at
    shifts."""
    got = [0]
    for x, s in zip(v, shifts):
        if x:
            steps = [j << s for j in range(x + 1)]
            got = [w + d for w in got for d in steps]
    return got


def _fold(scaled, bound, one, pull):
    """{v: value} over the cells v that sums of the keys of scaled = {u:
    s_u} reach, increasing: one at 0, and at any other such v, pull(terms,
    |v|), where terms holds (s_u, value at v - u) for each key u <= v whose
    v - u is reached, in decreasing u.

    The cells are walked in packed order, so each v - u is done before v.
    Each cell pulls over the factor keys or over the cells w of its
    sub-box, whichever costs less: a sub-box pull looks up both w and
    v - w, and costs about SUBBOX_COST key pulls per cell.  Both give the
    same terms in the same order, so a float sum is the same either way.
    A sub-box is the sum of the spans of its first half of fields and of
    the rest, each kept for the fold."""
    if not scaled:
        return {(0,) * len(bound): one}
    pack = _Packing(bound)
    keyed = sorted(((pack.pack(u), f) for u, f in scaled.items()), reverse=True)
    by_key = dict(keyed)
    n_keys = len(keyed)
    cells = pack.cells(list(by_key))
    half = len(bound) // 2
    heads, tails = {}, {}
    reached = {cells[0][0]: one}
    out = {cells[0][1]: one}
    for key, v in cells[1:]:
        # a sub-box below v holds at least one cell
        if n_keys > SUBBOX_COST and SUBBOX_COST * (prod(x + 1 for x in v) - 1) < n_keys:
            head = heads.get(v[:half])
            if head is None:
                head = heads[v[:half]] = [pack.guards + w for w in _span(v[:half], pack.shifts)]
            tail = tails.get(v[half:])
            if tail is None:
                tail = tails[v[half:]] = _span(v[half:], pack.shifts[half:])
            terms = [(f, g) for w in [h + t for h in head for t in tail]
                     if (f := by_key.get(key - w)) is not None
                     and (g := reached.get(w)) is not None]
        else:
            terms = [(f, g) for u, f in keyed if (g := reached.get(key - u)) is not None]
        if terms:
            reached[key] = out[v] = pull(terms, sum(v))
    return out


def fold_work(keys, bound, cap=None):
    """The steps a fold over the visit vectors keys within bound takes:
    the cells it walks, and at each the smaller of its key count and its
    sub-box; past cap, any count above cap."""
    pack = _Packing(bound)
    cells = pack.cells([pack.pack(u) for u in keys], cap)
    if cells is None:
        return cap + 1
    n_keys = len(keys)
    work = 0
    for _, v in cells:
        work += 1 + min(n_keys, prod(x + 1 for x in v) - 1)
        if cap is not None and work > cap:
            break
    return work


def fold_refusal(quiver, bound):
    """Why a cycle expansion on the quiver within bound is refused, or None
    when its fold fits FOLD_WORK_CAP steps.  A bound on which even a fold
    whose every cell pulls its whole sub-box fits is admitted at once;
    past it, fold_work is counted on the key set of a run of the transfer
    with no maps, which forms no product and stops past COUNT_STATE_CAP
    states."""
    bound = _visit_bound(quiver, bound)
    if _pull_bound(bound) <= FOLD_WORK_CAP:
        return None
    return _counted_refusal(quiver, bound, FOLD_WORK_CAP, COUNT_STATE_CAP)


@lru_cache(maxsize=1)
def _counted_refusal(quiver, bound, work_cap, state_cap):
    """fold_refusal past the closed-form bound, kept for the last quiver
    (by identity), bound and caps: compare asks it once, in the cycles
    route's kernel, but moment_samples asks it once per representation,
    each of one quiver and bound."""
    totals = _transfer(quiver, bound, {e.id: None for e in quiver.edges}, state_cap)
    if totals is None:
        return (f"cycle expansion capped at {work_cap} fold steps; counting "
                f"them passed {state_cap} transfer states")
    if fold_work(list(totals), bound, work_cap) > work_cap:
        return f"cycle expansion capped at {work_cap} fold steps; its fold takes more"
    return None


def visit_sum(series, zs, bound):
    """sum_v G_v prod_a z_a^(bound_a - v_a) over {v: G_v}."""
    powers = [[1] for _ in zs]
    for pw, z, n in zip(powers, zs, bound):
        while len(pw) <= n:
            pw.append(pw[-1] * z)
    total = 0
    for v, g in series.items():
        for pw, n, a in zip(powers, bound, v):
            if n > a:
                g = g * pw[n - a]
        total = total + g
    return total


def shifted_visit_sum(series, zs, bound, entries, t_names=None):
    """visit_sum with every z_a replaced by z_a + t_a, as a polynomial in
    fresh per-vertex shift symbols over the indeterminates of entries; a
    name repeated in t_names is one symbol shared by those vertices."""
    p = len(zs)
    if t_names is None:
        t_names = tuple(f"t{a + 1}" for a in range(p))
    t_names = tuple(t_names)
    if len(t_names) != p:
        raise HolodetError(f"need {p} shift symbols, got {len(t_names)}")
    base_syms = next((x.syms for x in entries if isinstance(x, Poly)), None)
    if base_syms is not None:
        clash = [t for t in t_names if t in base_syms]
        if clash:
            raise HolodetError(
                f"shift symbol '{clash[0]}' already names an indeterminate"
            )
    syms = (base_syms or Symbols(())).extended(t_names)
    shifted = [lift(z, syms) + Poly.variable(syms, t) for z, t in zip(zs, t_names)]
    lifted = {v: lift(g, syms) for v, g in series.items()}
    return visit_sum(lifted, shifted, bound)


def ranked_edges(quiver):
    """The quiver's edges sorted by id: a cycle word's edge ranks index
    this list, so lex order on rank words is lex order on id words."""
    return sorted(quiver.edges, key=lambda e: e.id)


def cycle_words(quiver, max_len, vertex_budget=None, node_budget=None,
                primes=False):
    """The canonical cycles on the quiver, length-capped, optionally
    visit-bounded per vertex (budget consumed at the source of each edge),
    and only those of valuation 1 when primes is set, each as the word of
    its edges' ranks in ranked_edges(quiver), with the length of the prefix
    it shares with the word before it.  node_budget caps the number of
    edges pushed.  The words come in search order, which is lex order, so
    among words of one length it is sort_key's order.  Each word yielded is
    the search's own list, valid until the next is asked for.

    A canonical cycle is a necklace over the edges ranked by id, and every
    prefix of a necklace is a prenecklace (Ruskey, Savage and Wang,
    "Generating necklaces", J. Algorithms 13, 1992): a prenecklace
    a_1 ... a_t of period p extends by an edge b >= a_(t+1-p), keeping p
    when b = a_(t+1-p), else taking t + 1.  A chained one that returns to
    the source of a_1 is a cycle when p divides its length n, of valuation
    n / p.  The stack is explicit, so a long walk needs no deep recursion.

    Every prime up to max_len is a state the search pushes, so without a
    visit bound a search that pushes 1/PRIME_COUNT_SHARE of its node
    budget also counts the primes (prime_count_past), at no more work than
    the nodes it has left, and refuses at once when they pass the budget,
    as it would after pushing it all."""
    edges = ranked_edges(quiver)
    srcs = [e.src for e in edges]
    tgts = [e.tgt for e in edges]
    # the ranks of each vertex's out-edges, increasing
    outs = [[] for _ in range(quiver.p)]
    for r, e in enumerate(edges):
        outs[e.src].append(r)
    # a walk within max_len visits no vertex more than max_len times
    budget = list(vertex_budget or [max_len] * quiver.p)
    nodes = 0
    count_at = (node_budget // PRIME_COUNT_SHARE
                if node_budget is not None and vertex_budget is None else inf)
    # the word's edge ranks, the period of each of its prefixes, the
    # untried next edges after each prefix (the first: any edge), and the
    # least length the word has had since the last yield: the prefix the
    # next word shares with that one, as a word that pops to a length and
    # grows again has a new entry there
    word, periods = [], []
    stack = [iter(range(len(edges)))]
    shared = 0
    while stack:
        b = next(stack[-1], None)
        if b is None:
            stack.pop()
            if word:
                periods.pop()
                budget[srcs[word.pop()]] += 1
                if len(word) < shared:
                    shared = len(word)
            continue
        if not budget[srcs[b]]:
            continue
        nodes += 1
        if nodes > count_at:
            count_at = inf
            past = prime_count_past(quiver, max_len, node_budget, node_budget - nodes)
            if past is not None:
                raise MethodRefusal(
                    f"cycle search would exceed its node budget of {node_budget}: "
                    f"the quiver has {past[1]} primes of length at most {past[0]}"
                )
        if node_budget is not None and nodes > node_budget:
            raise MethodRefusal(
                f"cycle search exceeded its node budget of {node_budget}"
            )
        t = len(word)
        per = periods[-1] if t and b == word[t - periods[-1]] else t + 1
        budget[srcs[b]] -= 1
        word.append(b)
        periods.append(per)
        n = t + 1
        cur = tgts[b]
        if (cur == srcs[word[0]] and n >= 2 and not n % per
                and (per == n or not primes)):
            yield word, shared
            shared = n
        nxt = outs[cur] if n < max_len and budget[cur] else []
        stack.append(iter(nxt[bisect_left(nxt, word[n - per]):]))


def prime_count_past(quiver, max_len, budget, work=None):
    """(L, N) for the least length L <= max_len at which the quiver has
    N > budget primes of length at most L, else None.  With A the vertex
    adjacency matrix counting parallel edges, Tr(A^k) counts the closed
    edge walks of length k, each a rotation of a prime of length d | k
    repeated, d rotations per prime: Tr(A^k) = sum_(d | k) d N_d, so N_k
    follows from the N_d before it.  A quiver with a finite prime set
    (prime_finiteness) has at most p of them, vertex-disjoint and of length
    at most p, and is counted no further.  A length costs its p^3 product
    and its divisor scan up to sqrt(k); work, when given, caps their sum,
    and the count gives None before a length that would pass it."""
    p = quiver.p
    if prime_finiteness(quiver).finite:
        if p <= budget:
            return None
        max_len = min(max_len, p)
    adj = [[0] * p for _ in range(p)]
    for e in quiver.edges:
        adj[e.src][e.tgt] += 1
    cols = [list(col) for col in zip(*adj)]
    power, primes, total, spent = adj, [0], 0, 0
    for k in range(1, max_len + 1):
        spent += p ** 3 + isqrt(k)
        if work is not None and spent > work:
            return None
        if k > 1:
            power = int_product(power, cols)
        closed = sum(power[i][i] for i in range(p))
        for d in range(1, isqrt(k) + 1):
            if not k % d:
                # the divisors d <= sqrt(k) <= k / d, but k itself
                f = k // d
                if d < k:
                    closed -= d * primes[d]
                if d < f < k:
                    closed -= f * primes[f]
        primes.append(closed // k)
        total += primes[k]
        if total > budget:
            return k, total
    return None


def closed_edge_walks(quiver, max_len, vertex_budget=None, node_budget=None,
                      primes=False):
    """The cycles of cycle_words as GCycles, sorted by sort_key."""
    edges = ranked_edges(quiver)
    ids = [e.id for e in edges]
    srcs = [e.src for e in edges]
    # a necklace is already its least rotation
    canonical = GCycle._canonical
    found = [canonical(tuple([ids[a] for a in word]), tuple([srcs[a] for a in word]))
             for word, _ in cycle_words(quiver, max_len, vertex_budget, node_budget, primes)]
    found.sort(key=lambda c: c.sort_key)
    return found


def candidate_gcycles(quiver, bound):
    bound = _visit_bound(quiver, bound)
    return closed_edge_walks(quiver, sum(bound), vertex_budget=bound)


def enumerate_gcycle_multisets(quiver, bound):
    """Every multiset of cycles on the quiver within the visit bound."""
    bound = tuple(bound)
    return _multiset_stream(candidate_gcycles(quiver, bound), quiver.p, bound)


def walk_quiver(p, edge=None):
    """The quiver on range(p) with one edge, id (a, b), from a to b for each
    a != b that edge(a, b) admits, every pair by default.  Its cycles are
    the cyclic walks on range(p), and lex order on edge ids is lex order on
    vertex sequences, so canonical forms and sort keys agree."""
    return Quiver(p, [
        Edge((a, b), a, b)
        for a in range(p) for b in range(p)
        if a != b and (edge is None or edge(a, b))
    ])


CyclicWalk = GCycle.of_walk


def enumerate_walk_multisets(p, bound):
    """Every multiset of cyclic walks on range(p) whose visit totals fit
    the bound."""
    return enumerate_gcycle_multisets(walk_quiver(p), bound)


def prime_cycles(quiver, max_len):
    """All cycles of valuation 1 up to the length cap, canonical, sorted;
    refused past PRIME_SEARCH_NODES search states."""
    if max_len < 2:
        raise HolodetError("max_len must be >= 2")
    return closed_edge_walks(quiver, max_len, node_budget=PRIME_SEARCH_NODES,
                             primes=True)


@dataclass(frozen=True)
class PrimeFiniteness:
    finite: bool
    cycles: tuple


def prime_finiteness(quiver):
    """Finite prime-cycle set iff every strongly connected component is a
    single vertex or a single simple directed cycle; returns the cycles."""
    p = quiver.p
    # Kosaraju, iteratively: finishing order of a search along out-edges,
    # then components swept along in-edges in reverse finishing order
    order = []
    seen = [False] * p
    for root in range(p):
        if seen[root]:
            continue
        seen[root] = True
        work = [(root, iter(quiver.out_edges(root)))]
        while work:
            v, it = work[-1]
            for e in it:
                if not seen[e.tgt]:
                    seen[e.tgt] = True
                    work.append((e.tgt, iter(quiver.out_edges(e.tgt))))
                    break
            else:
                work.pop()
                order.append(v)
    label = [None] * p
    for root in reversed(order):
        if label[root] is None:
            label[root] = root
            todo = [root]
            while todo:
                for e in quiver.in_edges(todo.pop()):
                    if label[e.src] is None:
                        label[e.src] = root
                        todo.append(e.src)
    # an edge lies on a cycle iff its ends share a component; a component
    # is one simple cycle iff each of its vertices has one such out-edge
    step = [None] * p
    for v in range(p):
        for e in quiver.out_edges(v):
            if label[e.tgt] == label[v]:
                if step[v] is not None:
                    return PrimeFiniteness(False, ())
                step[v] = e
    # such edges form disjoint simple cycles: following them permutes vertices
    _, orbits, _ = _cycles_of(tuple(v if e is None else e.tgt for v, e in enumerate(step)))
    cycles = (GCycle([step[v].id for v in orbit], orbit) for orbit in orbits if len(orbit) > 1)
    return PrimeFiniteness(True, tuple(sorted(cycles, key=lambda c: c.sort_key)))


def _cycles_of(perm):
    """perm, its cycles and its sign; fixed points count as cycles, and
    each cycle starts at its least slot, in increasing order of that slot."""
    n = len(perm)
    seen = [False] * n
    cycles = []
    for i in range(n):
        if seen[i]:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = perm[j]
        cycles.append(tuple(cyc))
    return perm, tuple(cycles), (-1) ** (n - len(cycles))


def permutations_within(allowed):
    """Every permutation perm of range(n) with perm[i] in allowed[i] for
    each slot i, in lexicographic order, as (perm, cycles, sign); fixed
    points count as cycles, and each cycle starts at its least slot, in
    increasing order of that slot.  Slots are filled in order by
    backtracking over their unused allowed images, so no other permutation
    is visited."""
    n = len(allowed)
    if n == 0:
        yield _cycles_of(())
        return
    options = [sorted(set(a)) for a in allowed]
    perm = [0] * n
    free = [True] * n
    stack = [iter(options[0])]
    while stack:
        i = len(stack) - 1
        for j in stack[-1]:
            if free[j]:
                break
        else:
            stack.pop()
            if i:
                free[perm[i - 1]] = True
            continue
        perm[i] = j
        if i + 1 == n:
            yield _cycles_of(tuple(perm))
        else:
            free[j] = False
            stack.append(iter(options[i + 1]))


def cycle_cover_sum(allowed, weight):
    """Sum over the permutations perm with perm[i] in allowed[i] of sign
    times the product of weight(cyc) over their cycles (i, perm[i], ...),
    each from its least slot, fixed points included.  On the set S of
    slots not yet covered, f(S) sums (-1)^(|C|-1) weight(C) f(S - C) over
    the cycles C through min S inside S; it is memoized on S, and a zero
    f(S - C) or weight(C) cuts off every permutation below it.  Past
    PERM_SUM_CAP slots it refuses before reading any weight."""
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


@lru_cache(maxsize=None)
def cycle_types(n):
    """Each cycle type of the permutations of range(n), as a nonincreasing
    tuple of cycle lengths, with its sign times its class size n!/z; a
    tuple, made once per n."""

    def parts(rest, largest):
        if not rest:
            yield ()
        for k in range(min(rest, largest), 0, -1):
            for tail in parts(rest - k, k):
                yield (k,) + tail

    def counted(lam):
        z = 1
        for k in set(lam):
            m = lam.count(k)
            z *= k ** m * factorial(m)
        return lam, (-1) ** (n - len(lam)) * (factorial(n) // z)

    return tuple(map(counted, parts(n, n)))
