"""Cycles on a quiver, their multisets, powers and primes, and the
permutations and vertex fields that the determinant routes sum over.

``closed_edge_walks`` is the one cycle search and ``GCycle`` the one
rotation-class type.  The search extends only walks whose edge word is a
prenecklace, as the Fredricksen-Kessler-Maiorana necklace generator does,
so it reaches each cycle once, in its least rotation.  A cyclic walk on
range(p) is a cycle on ``walk_quiver(p)``, whose edge (a, b) steps from a
to b; the block routes walk its subquiver of nonzero off-diagonal blocks.
Canonical form everywhere is the lexicographically minimal rotation; the
valuation of a cycle is the order of its rotation stabiliser.

Multiset streams are lazy and deterministic: candidates are fixed in
sorted order and multiplicities are chosen in nondecreasing candidate
order, so every multiset within the visit bound appears exactly once.  The
generating series of those multisets, graded by visit vector, is the
truncated exponential computed by ``visit_exponential`` without listing
them, from the cycle factors summed by visit vector, which
``closed_walk_factors`` takes from a closed-walk transfer without listing
a cycle.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from math import factorial, prod

from .errors import HolodetError, MethodRefusal
from .linalg import walk_algebra
from .quiver import Edge, Quiver
from .ring import Poly, Symbols, int_div, lift

# search states a prime-cycle search visits before it refuses
PRIME_SEARCH_NODES = 2_000_000
# cells of the visit box prod_a [0, bound_a] a cycle expansion may fold
# before it refuses: visit_exponential walks every cell
VISIT_BOX_CAP = 2 ** 22


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
    def of_walk(cls, seq):
        """The cycle of a closed vertex sequence on walk_quiver: one edge
        (a, b) per step a -> b, the wrap from the last entry included."""
        seq = tuple(seq)
        edges = tuple(zip(seq, seq[1:] + seq[:1]))
        if any(a == b for a, b in edges):
            raise HolodetError(f"equal adjacent entries in {seq!r}")
        return cls(edges, seq)

    @classmethod
    def from_quiver(cls, quiver, edge_ids):
        ids = list(edge_ids)
        es = [quiver.edge(i) for i in ids]
        k = len(es)
        for i in range(k):
            if es[i].tgt != es[(i + 1) % k].src:
                raise HolodetError(
                    f"edges {es[i].id} -> {es[(i + 1) % k].id} are not chained"
                )
        return cls(ids, [e.src for e in es])

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

    def power(self, m):
        if m < 1:
            raise ValueError("power exponent must be >= 1")
        return GCycle(self.edges * m, self.srcs * m)

    def prime_root(self):
        period = len(self.edges) // self.valuation
        return GCycle(self.edges[:period], self.srcs[:period])

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


def closed_walk_factors(quiver, bound, maps):
    """{u: F_u} over the visit vectors u within bound on which a closed
    walk closes, with F_u = (-1)^(|u|-1) Tr(sum_w W(w)) / u_s: w runs over
    the closed walks with visit vector u that start at s, the least vertex
    u visits, and stay on vertices >= s, and W(w) is the product of
    maps[e.id] along w.  Visits are counted at each edge's source, as
    candidate_gcycles counts them, and the quiver has no self-loops.

    A cycle of valuation m that visits s u_s times has u_s/m rotations
    that start at s, so F_u is the sum of (-1)^(len-1) Tr W(c) / val(c)
    over the cycles c that candidate_gcycles lists with visit vector u;
    a u whose sum is 0 keeps its key.  No cycle is listed: for each root
    s, a frontier keyed by (current vertex, visits so far) holds the sum of
    W over the walks that reach that state.  A step is taken only while its
    source is under its bound, so a state whose vertex has no visit left
    is not kept.  Each step back to s adds Tr(state x map) to the sum of
    the visit vector it closes on, without forming that product.

    The sums and products are linalg.walk_algebra's: Gaussian-integer
    matrices over one common denominator when every entry is exact, Matrix
    values otherwise.  Refused past VISIT_BOX_CAP cells of the visit box,
    which visit_exponential walks whole."""
    bound = tuple(bound)
    if len(bound) != quiver.p or any(b < 0 for b in bound):
        raise HolodetError(f"bad visit bound {bound!r}")
    cells = visit_box_cells(bound)
    if cells > VISIT_BOX_CAP:
        raise MethodRefusal(
            f"cycle expansion capped at {VISIT_BOX_CAP} visit-box cells, got {cells}"
        )
    p = quiver.p
    out_edges = [quiver.out_edges(v) for v in range(p)]
    ops = walk_algebra(maps)
    out = {}
    for s in range(p):
        if not bound[s]:
            continue
        closes = {}
        # the state before the first step holds no product
        level = {(s, (0,) * p): None}
        while level:
            nxt = {}
            for (cur, v), m in level.items():
                w = v[:cur] + (v[cur] + 1,) + v[cur + 1:]
                for e in out_edges[cur]:
                    t = e.tgt
                    if t == s:
                        closes.setdefault(w, []).append(ops.close(m, e.id))
                        if w[s] == bound[s]:
                            continue
                    elif t < s or w[t] == bound[t]:
                        continue
                    got = ops.first(e.id) if m is None else ops.step(m, e.id)
                    key = (t, w)
                    nxt[key] = ops.plus(nxt[key], got) if key in nxt else got
            level = nxt
        for u, traces in closes.items():
            out[u] = ops.scalar(traces, sum(u), u[s])
    return out


def visit_box_cells(bound):
    """Cells of the visit box prod_a [0, bound_a]."""
    return prod(b + 1 for b in bound)


def visit_exponential(factors, bound):
    """Coefficients G_v of exp(sum_u F_u y^u) over the visit box
    prod_a [0, bound_a], for factors = {u: F_u}, keyed by visit vector v;
    a v that no sum of factor keys reaches has no key.

    With the F_u the factor sums of cycles by visit vector, G_v is the
    sum, over the cycle multisets with visit total v, of the product of
    their factors divided by the multiplicity factorials.  The Euler
    operator gives |v| G_v = sum_{0 < u <= v} |u| F_u G_(v-u), so no
    multiset is listed.

    Visit vectors are packed into one int, a bit field per vertex with
    vertex 0 highest, each field one bit wider than the largest bound so
    that its top bit is a guard.  With every guard set on v, a field of
    v - u borrows its guard exactly when u_a > v_a, and no borrow crosses a
    field; so keying the reached cells with their guards set, v - u is a
    key only when u <= v, and then it is the key of v - u."""
    p = len(bound)
    cells = itertools.product(*(range(b + 1) for b in bound))
    zero = next(cells)
    out = {zero: int_div(1, 1)}
    if not factors:
        return out
    width = max(bound).bit_length() + 1
    shifts = [width * (p - 1 - a) for a in range(p)]
    top = 1 << (width - 1)
    # pulled in decreasing u, hence increasing v - u: the order in which a
    # push over the box in index order would add the terms
    scaled = sorted(((sum(x << s for x, s in zip(u, shifts)), sum(u) * f)
                     for u, f in factors.items()), key=lambda uf: uf[0], reverse=True)
    # each cell's key with its guards set, in the cells' order: the box is
    # walked in lexicographic order, which is index order, so every v - u
    # is reached (or not) before v
    keys = map(sum, itertools.product(
        *([(top | x) << s for x in range(b + 1)] for b, s in zip(bound, shifts))))
    reached = {next(keys): out[zero]}
    for v, key in zip(cells, keys):
        terms = [f * g for u, f in scaled if (g := reached.get(key - u)) is not None]
        if terms:
            reached[key] = out[v] = int_div(sum(terms), sum(v))
    return out


def visit_sum(series, zs, bound):
    """sum_v G_v prod_a z_a^(bound_a - v_a) over a visit_exponential."""
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


def closed_edge_walks(quiver, max_len, vertex_budget=None, node_budget=None,
                      primes=False):
    """Canonical cycles on the quiver, length-capped, optionally
    visit-bounded per vertex (budget consumed at the source of each edge),
    and only those of valuation 1 when primes is set.  node_budget caps
    the number of edges pushed.

    A canonical cycle is a necklace over the edges ranked by id, and every
    prefix of a necklace is a prenecklace (Ruskey, Savage and Wang,
    "Generating necklaces", J. Algorithms 13, 1992): a prenecklace
    a_1 ... a_t of period p extends by an edge b >= a_(t+1-p), keeping p
    when b = a_(t+1-p), else taking t + 1.  A chained one that returns to
    the source of a_1 is a cycle when p divides its length n, of valuation
    n / p.  The stack is explicit, so a long walk needs no deep recursion."""
    edges = sorted(quiver.edges, key=lambda e: e.id)
    ids = [e.id for e in edges]
    srcs = [e.src for e in edges]
    tgts = [e.tgt for e in edges]
    # the ranks of each vertex's out-edges, increasing
    outs = [[] for _ in range(quiver.p)]
    for r, e in enumerate(edges):
        outs[e.src].append(r)
    # a walk within max_len visits no vertex more than max_len times
    budget = list(vertex_budget or [max_len] * quiver.p)
    found = []
    nodes = 0
    # the word's edge ranks, the period of each of its prefixes, and the
    # untried next edges after each prefix (the first: any edge)
    word, periods = [], []
    stack = [iter(range(len(edges)))]
    while stack:
        b = next(stack[-1], None)
        if b is None:
            stack.pop()
            if word:
                periods.pop()
                budget[srcs[word.pop()]] += 1
            continue
        if not budget[srcs[b]]:
            continue
        nodes += 1
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
            found.append(GCycle([ids[a] for a in word], [srcs[a] for a in word]))
        nxt = outs[cur] if n < max_len and budget[cur] else []
        stack.append(iter(nxt[bisect_left(nxt, word[n - per]):]))
    found.sort(key=lambda c: c.sort_key)
    return found


def candidate_gcycles(quiver, bound):
    bound = tuple(bound)
    if len(bound) != quiver.p or any(b < 0 for b in bound):
        raise HolodetError(f"bad visit bound {bound!r}")
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
    cycles = []
    for start in range(p):
        ids, srcs, v = [], [], start
        while step[v] is not None:
            e, step[v] = step[v], None
            ids.append(e.id)
            srcs.append(v)
            v = e.tgt
        if ids:
            cycles.append(GCycle(ids, srcs))
    cycles.sort(key=lambda c: c.sort_key)
    return PrimeFiniteness(True, tuple(cycles))


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


def cycle_types(n):
    """Each cycle type of the permutations of range(n), as a nonincreasing
    tuple of cycle lengths, with its sign times its class size n!/z."""

    def parts(rest, largest):
        if not rest:
            yield ()
        for k in range(min(rest, largest), 0, -1):
            for tail in parts(rest - k, k):
                yield (k,) + tail

    for lam in parts(n, n):
        z = 1
        for k in set(lam):
            m = lam.count(k)
            z *= k ** m * factorial(m)
        yield lam, (-1) ** (n - len(lam)) * (factorial(n) // z)
