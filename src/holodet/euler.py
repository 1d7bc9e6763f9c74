"""Euler-product factorizations of the twisted Laplacian determinant: the
exact finite-prime product, a truncated infinite product with a certified
tail bound driven by a Perron-root estimate of the underlying chain, and
the unitary comparison inequality against the plain graph Laplacian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import mul

from .errors import HolodetError, MethodRefusal
from .laplacian import build_laplacian
from .linalg import Matrix, _det_lu_rows, charpoly_oracle, det_oracle
from .ring import EXACT_TYPES, GaussianRational, to_complex
from . import walks
from .walks import cycle_words, prime_finiteness, ranked_edges


# the longest truncation length det_euler_truncated tries before refusing
MAX_LEN_CAP = 150
# power-iteration steps of _perron_upper_bound
PERRON_ITERS = 5000


def det_euler_finite(lap):
    """Finite Euler product z^n prod_c det(I - p^e(c) hol(c)) with
    p_e = x_e / z_source, evaluated in the cleared polynomial form so it
    stays exact for symbolic and for vanishing-z inputs alike."""
    fin = prime_finiteness(lap.quiver)
    if not fin.finite:
        raise MethodRefusal(
            "infinitely many prime cycles; use the truncated product instead"
        )
    return _cleared_product(lap.ranks, lap.z, fin.cycles, lap.rep.matrices, lap.weights)


def _cleared_product(ranks, z, cycles, maps, weights):
    """prod_a z_a^r_a prod_c det(I - w_c hol(c)), w_c = prod_(e in c) x_e /
    z_src(e), over finitely many (so vertex-disjoint) primes, cleared: a
    prime's vertices give sum_j alpha_j x_c^j prod_(v in c) z_v^(r_v - j),
    alpha_j from det(I - tH).  rank H is at most the least rank m on the
    cycle, so alpha_j for j > m is zero, or roundoff in floating point, and
    is never read.  maps and weights need hold only the cycle edges."""
    on_cycle = {v for cyc in cycles for v in cyc.srcs}
    value = 1
    for a, r in enumerate(ranks):
        if a not in on_cycle:
            value = value * z[a] ** r
    for cyc in cycles:
        hol = reduce(mul, (maps[eid] for eid in cyc.edges))
        xprod = math.prod(weights[eid] for eid in cyc.edges)
        # det(I - tH) = t^n det(t^-1 I - H), so det(tI - H)'s coefficients
        # in reverse
        alphas = charpoly_oracle(-hol)[::-1][:min(ranks[v] for v in cyc.srcs) + 1]
        factor = 0
        for j, alpha in enumerate(alphas):
            if not alpha:
                continue
            term = alpha * xprod ** j
            for v in cyc.srcs:
                if ranks[v] > j:
                    term = term * z[v] ** (ranks[v] - j)
            factor = factor + term
        value = value * factor
    return value


@dataclass(frozen=True)
class SubMarkovData:
    lap: object            # the Laplacian whose edge maps weight the chain
    kappa: tuple
    p_edges: dict          # edge id -> float transition weight
    reachable: bool        # every vertex reaches killing mass or a sink

    @cached_property
    def chain(self):
        """Rows of the vertex-level chain with edge weights p_e ||U_e||_2,
        whose Perron root dominates the tail; formed on first read, as a
        finite prime set has no tail.  A closed length-k walk has
        |Tr hol| <= n prod ||U_e||, so the p-weighted |Tr hol| over such
        walks sum to at most n Tr(chain^k) <= n p rho^k."""
        quiver = self.lap.quiver
        vrows = [[0.0] * quiver.p for _ in range(quiver.p)]
        for e in quiver.edges:
            norm = _spectral_norm_complex(self.lap.rep.matrices[e.id].to_complex())
            vrows[e.src][e.tgt] += self.p_edges[e.id] * norm
        return vrows

    @cached_property
    def rho(self):
        """Certified upper bound on the chain's Perron root, from the full
        power iteration."""
        return _perron_upper_bound(self.chain)


def _spectral_norm_complex(m):
    """Upper bound on the largest singular value of a complex matrix: its
    Gram matrix G has lambda_max(G) <= Tr(G^(2^j))^(1/2^j), n^(1/2^j) high
    at most.  G is rescaled by its trace before each squaring, whose logs
    over 2^j sum to the bound's; eight squarings, inflated for rounding."""
    gram = m.conj_transpose() * m
    log_lam = 0.0
    for j in range(9):
        tr = gram.trace().real
        if tr <= 0.0:
            return 0.0
        log_lam += math.log(tr) / 2 ** j
        if j < 8:
            gram = gram.scale(1.0 / tr)
            gram = gram * gram
    return math.sqrt(math.exp(log_lam) * (1.0 + 1e-9))


def _perron_upper_bound(rows, settled=None):
    """Upper bound on the spectral radius of a nonnegative matrix: for any
    positive vector v, min_i (Av)_i / v_i <= rho(A) <= max_i (Av)_i / v_i
    (Collatz-Wielandt).  The matrix is shifted by eps I first (which moves
    the Perron root by exactly eps and makes the iteration aperiodic),
    bounded, and shifted back.  Every intermediate v certifies the bound,
    so the minimum over iterations is itself certified.  When settled is
    given, the iteration also stops once settled(lower, upper) holds for
    the current bounds on the unshifted root."""
    p = len(rows)
    eps = 0.5
    shifted = [
        [rows[i][j] + (eps if i == j else 0.0) for j in range(p)]
        for i in range(p)
    ]
    floor = 1e-30
    v = [1.0] * p
    best = math.inf
    stale = 0
    for _ in range(PERRON_ITERS):
        w = [sum(shifted[i][j] * v[j] for j in range(p)) for i in range(p)]
        ratios = [w[i] / v[i] for i in range(p)]
        bound = max(ratios)
        if not math.isfinite(best) or bound < best - 1e-15 * max(1.0, best):
            best = min(best, bound)
            stale = 0
        else:
            stale += 1
            if stale > 64:
                break
        if settled is not None and settled(max(min(ratios) - eps, 0.0),
                                           max(best - eps, 0.0)):
            break
        scale = max(w)
        if scale == 0.0:
            break
        v = [max(x / scale, floor) for x in w]
    return max(best - eps, 0.0)


def build_submarkov(lap, kappa):
    """Normalize edge weights into transition weights and check the
    structural assumptions."""
    quiver = lap.quiver
    kappa = tuple(float(k) for k in kappa)
    if len(kappa) != quiver.p:
        raise HolodetError(f"need {quiver.p} kappa values, got {len(kappa)}")
    if any(k < 0 for k in kappa):
        raise HolodetError("kappa values must be nonnegative")
    xs = {e.id: to_complex(lap.weights[e.id]).real for e in quiver.edges}
    # outside the route's hypothesis, so a refusal, which compare skips
    if any(x < 0 or to_complex(lap.weights[eid]).imag for eid, x in xs.items()):
        raise MethodRefusal("edge weights must be nonnegative reals")
    zs = [to_complex(z).real for z in lap.z]

    p_edges = {}
    for e in quiver.edges:
        denom = zs[e.src] + kappa[e.src]
        p_edges[e.id] = 0.0 if xs[e.id] == 0 else xs[e.id] / denom

    leaky = {
        v for v in range(quiver.p)
        if kappa[v] > 0 or not quiver.out_edges(v)
        or sum(p_edges[e.id] for e in quiver.out_edges(v)) < 1.0 - 1e-12
    }
    reach = set(leaky)
    changed = True
    while changed:
        changed = False
        for e in quiver.edges:
            if e.tgt in reach and e.src not in reach:
                reach.add(e.src)
                changed = True
    reachable = len(reach) == quiver.p

    return SubMarkovData(lap=lap, kappa=kappa, p_edges=p_edges, reachable=reachable)


@dataclass(frozen=True)
class TruncatedEuler:
    value: complex
    certified_bound: float
    max_len: int
    rho: float | None      # the tail's Perron bound; None when the prime
                           # set is finite, so the product is exact
    prime_count: int


def _tail_bound(n, p, rho, length):
    # dropped log terms of total length k are bounded by n/k times the
    # trace of the k-th power of the norm-weighted vertex-level chain,
    # hence by (n p / k) rho^k; summing k > length gives the closed form
    return n * p * rho ** (length + 1) / ((length + 1) * (1.0 - rho))


def _tail_length(n, p, rho, tol, start=2):
    """The least length >= 2 whose tail bound is below tol, or None when
    the route must refuse: rho not below 1, or no such length up to
    MAX_LEN_CAP.  The bound falls as the length grows, so the search may
    start anywhere; a start near the answer takes few steps."""
    if rho >= 1.0 - 1e-12:
        return None
    length = start
    while length > 2 and _tail_bound(n, p, rho, length - 1) < tol:
        length -= 1
    while _tail_bound(n, p, rho, length) >= tol:
        if length >= MAX_LEN_CAP:
            return None
        length += 1
    return length


def _length_settled(n, p, tol):
    """A stop test for _perron_upper_bound: whether every root between a
    lower and an upper bound gets the same tail length, and not None.  The
    length grows with rho, so it then equals the full run's length, whose
    bound lies between the two.  Each search starts at the last length, as
    the upper bound only falls."""
    last = 2

    def settled(lower, upper):
        nonlocal last
        length = _tail_length(n, p, upper, tol, last)
        if length is None:
            return False
        last = length
        # lower's length is at most upper's; it is the same unless the
        # bound one step shorter is already below tol at lower
        return length == 2 or _tail_bound(n, p, lower, length - 1) >= tol

    return settled


def _factor_rounding(r, rho):
    """Relative rounding bound on one factor det(I - wH), H at most r x r.
    With e = 8u (u = 2^-53) above any complex operation's relative error
    and g = re / (1 - re), and ||wH|| <= rho^k for a prime of length k:
    - each product in the fold of H is off by at most g |P||U|, so by r g
      ||P|| ||U|| in norm, and w by e a step; so forming A = I - wH is off
      by ||dA|| <= 2k (r g + e) rho^k + (r + 2) e, where k rho^k <= 1 / (1 - rho);
    - partial-pivoting LU gives L'U' = PA + E with |E| <= g |L'||U'|
      (Higham, Accuracy and Stability of Numerical Algorithms, Thm 9.3),
      |L'| <= 1 and |U'| <= 2^(r-1) max|a_ij| <= 2^r, so ||E|| <= g r^2 2^r;
    - det(A + F) / det(A) = det(I + A^-1 F) is within (1 + eta)^r - 1 of 1
      for eta = ||A^-1|| ||F|| and ||A^-1|| <= 1 / (1 - rho), and the r
      products of U's pivots and into the value add r more e."""
    e = 8 * 2.0 ** -53
    g = r * e / (1 - r * e)
    eta = (2 * (r * g + e) / (1 - rho) + (r + 2) * e + g * r * r * 2 ** r) / (1 - rho)
    return math.expm1(r * (math.log1p(eta) + math.log1p(e)))


def _factor_rows(hol, w):
    """The rows of I - w hol, each entry the expression that
    Matrix.identity(r) - hol.scale(w) forms, written out for r <= 2."""
    r, h = hol.rows, hol.data
    if r == 1:
        return [[1 - h[0] * w]]
    if r == 2:
        return [[1 - h[0] * w, 0 - h[1] * w], [0 - h[2] * w, 1 - h[3] * w]]
    return [[(1 if i == j else 0) - h[i * r + j] * w for j in range(r)] for i in range(r)]


def _exact(s):
    """A scalar as the exact number it holds: a float or complex is a
    binary rational, read as a Fraction or a GaussianRational."""
    if type(s) in EXACT_TYPES:
        return s
    z = to_complex(s)
    return GaussianRational(z.real, z.imag) if z.imag else Fraction(z.real)


def det_euler_truncated(lap, kappa, tol=1e-9):
    """Truncated Euler product for det(diag(kappa) + Laplacian), with a
    certified error bound from the spectral-radius tail estimate.  When the
    quiver has only finitely many prime cycles the product is finite and
    the tail vanishes, so any kappa (including zero) is admissible; it is
    then formed exactly and rounded once."""
    data = build_submarkov(lap, kappa)
    n = sum(lap.ranks)
    p = lap.quiver.p

    fin = prime_finiteness(lap.quiver)
    if fin.finite:
        # z and the weights as build_submarkov reads them, real parts, and
        # these, kappa and the maps as the rationals they hold
        edges = [eid for cyc in fin.cycles for eid in cyc.edges]
        value = to_complex(_cleared_product(
            lap.ranks,
            [Fraction(to_complex(z).real) + Fraction(k) for z, k in zip(lap.z, data.kappa)],
            fin.cycles,
            {eid: lap.rep.matrices[eid].map(_exact) for eid in edges},
            {eid: Fraction(to_complex(lap.weights[eid]).real) for eid in edges},
        ))
        # rounding each part once moves the value by at most 2^-53 of the
        # exact one, plus half the least subnormal, far inside this
        # allowance, which also leaves room for a float LU's own error
        return TruncatedEuler(
            value=value,
            certified_bound=1e-12 * (1.0 + abs(value)),
            max_len=max((len(c) for c in fin.cycles), default=2),
            rho=None,
            prime_count=len(fin.cycles),
        )

    # the length grows with rho, so the power iteration stops once its
    # bounds agree on it; a refusing bound never stops early, so a refusal
    # quotes the full run's rho
    rho = _perron_upper_bound(data.chain, _length_settled(n, p, tol))
    length = _tail_length(n, p, rho, tol)
    if length is None:
        if rho >= 1.0 - 1e-12:
            raise MethodRefusal(
                "spectral-radius bound is not below 1; the sub-Markov "
                f"assumptions fail (reachability={data.reachable}, "
                f"rho={rho:.6f})"
            )
        raise MethodRefusal(
            f"tail bound does not reach {tol} within length {MAX_LEN_CAP} "
            f"(rho={rho:.6f})"
        )
    log_tail = _tail_bound(n, p, rho, length)

    # the maps and transition weights by edge rank, the search's alphabet
    edges = ranked_edges(lap.quiver)
    mats = [lap.rep.matrices[e.id] for e in edges]
    weights = [data.p_edges[e.id] for e in edges]
    # float-mode edge maps are complex already, and so is every product of
    # them; det_oracle sends a complex I - wH to its LU, called here directly
    convert = not all(type(x) is complex for m in mats for x in m.data)
    # (holonomy, weight) of each prefix of the last prime: the left folds
    # holonomy() and a product of p_edges take, extended by the edges past
    # the prefix the next prime shares.  The search yields the primes in
    # lex order of their words, so each prefix is formed once for every
    # prime that extends it, whatever its length; within one length that
    # order is the primes' sort_key order, and the factors are multiplied
    # length by length in it
    prefix = []
    factors = [[] for _ in range(length + 1)]
    # the budget is read when the route runs, as prime_cycles reads it
    for word, shared in cycle_words(lap.quiver, length, primes=True,
                                    node_budget=walks.PRIME_SEARCH_NODES):
        del prefix[shared:]
        for a in word[shared:]:
            hol, w = prefix[-1] if prefix else (None, 1.0)
            prefix.append((mats[a] if hol is None else hol * mats[a], w * weights[a]))
        hol, w = prefix[-1]
        factors[len(word)].append(_det_lu_rows(_factor_rows(
            hol.to_complex() if convert else hol, w)))
    value = 1.0 + 0.0j
    for z, k, r in zip(lap.z, data.kappa, lap.ranks):
        value *= (to_complex(z).real + k) ** r
    for same_length in factors:
        for factor in same_length:
            value *= factor
    count = sum(map(len, factors))

    # each factor is off by at most delta, so with a = (1 + delta)^N - 1
    # |value - det| <= |value| (expm1(tail) + a) / (1 - a), at most
    # |value| expm1(tail + 2 N log1p(delta)) while a <= 0.6
    spread = count * math.log1p(_factor_rounding(max(lap.ranks), rho))
    certified = (abs(value) * math.expm1(log_tail + 2 * spread)
                 if spread < 0.4 else math.inf)
    return TruncatedEuler(
        value=value,
        certified_bound=certified,
        max_len=length,
        rho=rho,
        prime_count=count,
    )


@dataclass(frozen=True)
class UnitaryComparisonReport:
    ok: bool
    trials: int
    min_margin: float     # smallest (lhs - rhs) / max(1, |rhs|) observed
    worst_t: float
    worst_trial: int


def unitary_comparison_check(quiver, weights, rep_factory, N, ts, trials,
                             slack=1e-9):
    """Check det(t + L) >= det(t + L0)^N over random unitary
    representations; L0 is the rank-one representation with unit edges.

    rep_factory(trial_index) must return a Representation of constant rank
    N whose reversed edges carry the inverse (adjoint) matrices.
    """
    if quiver.involution is None:
        raise MethodRefusal("a bidirected graph (with involution) is required")
    inv = dict(quiver.involution)
    inv.update({b: a for a, b in quiver.involution})
    for e in quiver.edges:
        if e.id not in inv:
            raise MethodRefusal(f"edge '{e.id}' has no inverse edge")
        if to_complex(weights[e.id]) != to_complex(weights[inv[e.id]]):
            raise MethodRefusal("weights must be symmetric under inversion")

    from .quiver import Representation

    base_rep = Representation(
        (1,) * quiver.p,
        {e.id: Matrix(1, 1, [1.0 + 0.0j]) for e in quiver.edges},
    )
    l0 = build_laplacian(quiver, base_rep, weights).matrix.to_complex()

    def shifted_det(m, t):
        return det_oracle(Matrix.identity(m.rows).scale(complex(t)) + m).real

    ok = True
    min_margin = math.inf
    worst_t = float("nan")
    worst_trial = -1
    for trial in range(trials):
        lt = build_laplacian(quiver, rep_factory(trial), weights).matrix.to_complex()
        for t in ts:
            lhs = shifted_det(lt, t)
            rhs = shifted_det(l0, t) ** N
            margin = (lhs - rhs) / max(1.0, abs(rhs))
            if margin < min_margin:
                min_margin = margin
                worst_t = t
                worst_trial = trial
            if lhs < rhs - slack * abs(rhs) - slack:
                ok = False
    return UnitaryComparisonReport(
        ok=ok,
        trials=trials,
        min_margin=min_margin,
        worst_t=worst_t,
        worst_trial=worst_trial,
    )
