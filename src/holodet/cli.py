"""Command-line front end: determinants by any method, characteristic
polynomials, cross-method comparison, prime cycles, moment checks, and
random instance generation.

Exit codes: 0 success, 1 internal invariant violation or disagreement,
2 input validation failure, 3 method or size refusal.
"""

from __future__ import annotations

import argparse
import cmath
import itertools
import json
import math
import sys
import time
from collections import namedtuple
from fractions import Fraction

from .errors import HolodetError, InvariantViolation, MethodRefusal, ValidationError
from .linalg import POLY_DET_CAP, Matrix, charpoly_oracle, det_oracle
from .ring import FLOAT_ABS_TOL, Poly, Symbols, scalar_str, scalars_close, to_complex
from .quiver import (
    Representation,
    gen_example,
    haar_like_unitary,
    instance_to_json,
    load_instance,
    validate,
)
from .laplacian import (
    build_laplacian,
    charpoly_laplacian,
    det_laplacian_cycles,
    moment_samples,
    wilson_moment,
)
from .blockdet import PERM_SUM_CAP, det_block_perm, det_perm_traces, det_trace_formal
from .taudet import TAU_DET_CAP
from .vectorfields import DEFAULT_TERM_BUDGET, det_vector_fields, stack_cost
from .euler import det_euler_finite, det_euler_truncated
from .walks import fold_refusal, prime_cycles, prime_finiteness
# bound for the benchmark's tracer (perfbench/spans.py), which wraps this
# name and refuses to run when it is missing; no command calls it
from .walks import enumerate_gcycle_multisets  # noqa: F401


def _value_json(value, mode):
    if mode == "float":
        z = to_complex(value)
        return {"re": z.real, "im": z.imag}
    return scalar_str(value)


def _value_text(value, mode):
    if mode == "float":
        z = to_complex(value)
        return scalar_str(z)
    return scalar_str(value)


def _load(args):
    """The validated (quiver, representation, weights) of --example or --input."""
    if args.example:
        q, rep, w = gen_example(
            args.example,
            seed=args.seed,
            p=args.p,
            max_edges=args.max_edges,
            max_rank=args.max_rank,
        )
        if args.example in ("two_cycle", "acyclic", "unicyclic", "figure5"):
            if args.mode != "symbolic":
                raise MethodRefusal(
                    f"example '{args.example}' is symbolic; use --mode symbolic"
                )
        if args.example == "random" and args.mode == "float":
            rep = Representation(
                rep.ranks,
                {eid: m.to_complex() for eid, m in rep.matrices.items()},
            )
            w = {eid: complex(to_complex(x)) for eid, x in w.items()}
    elif args.input:
        q, rep, w = load_instance(args.input, mode=args.mode)
    else:
        raise ValidationError(["no input: pass --input FILE or --example NAME"])
    bad = validate(q, rep, w)
    if bad:
        raise ValidationError(bad)
    return q, rep, w


def _cycles(lap, args):
    stats = {"keys": 0}
    return det_laplacian_cycles(lap, stats), stats["keys"]


def _euler_truncated(lap, args):
    if args.mode != "float":
        raise MethodRefusal("euler-truncated requires --mode float")
    kappa = _parse_kappa(args, lap.quiver.p)
    tol = {} if args.tol is None else {"tol": args.tol}
    res = det_euler_truncated(lap, kappa, **tol)
    return res.value, res.prime_count


def _size_within(cap):
    """fits while the Laplacian's size is within cap; permutation sums over
    polynomial entries blow up well before the numeric caps, so symbolic
    mode gates them at 5."""
    return lambda lap, args: sum(lap.ranks) <= (5 if args.mode == "symbolic" else cap)


# run(lap, args) -> (value, terms or None); fits(lap, args): whether compare
# runs the route unasked; reads: the route options only it reads.  A run
# looks its kernel up in this module when called, so a wrapper set on that
# name, as a tracer sets, sees every call.
Route = namedtuple("Route", "run fits reads", defaults=((),))

ROUTES = {
    "oracle": Route(
        lambda lap, args: (det_oracle(lap.matrix), None),
        lambda lap, args: args.mode != "symbolic" or sum(lap.ranks) <= POLY_DET_CAP,
    ),
    "cycles": Route(_cycles,
                    lambda lap, args: fold_refusal(lap.quiver, lap.ranks) is None),
    "perm": Route(lambda lap, args: (det_perm_traces(lap.matrix), None),
                  _size_within(PERM_SUM_CAP)),
    "block-perm": Route(lambda lap, args: (det_block_perm(lap.block), None),
                        _size_within(PERM_SUM_CAP)),
    "trace-formal": Route(lambda lap, args: (det_trace_formal(lap.block), None),
                          _size_within(TAU_DET_CAP)),
    "vector-fields": Route(
        lambda lap, args: (det_vector_fields(lap, budget=args.budget), None),
        lambda lap, args: stack_cost(lap) <= (
            DEFAULT_TERM_BUDGET if args.budget is None else args.budget),
        reads=("budget",),
    ),
    "euler-finite": Route(lambda lap, args: (det_euler_finite(lap), None),
                          lambda lap, args: prime_finiteness(lap.quiver).finite),
    "euler-truncated": Route(_euler_truncated, lambda lap, args: False,
                             reads=("kappa", "tol")),
}


def _run_route(method, lap, args):
    """The route's report row and value, refusing a float value that
    overflows or is not finite."""
    start = time.perf_counter()
    try:
        value, terms = ROUTES[method].run(lap, args)
    except OverflowError:
        raise MethodRefusal(f"{method} overflows floating point") from None
    if args.mode == "float" and not cmath.isfinite(to_complex(value)):
        raise MethodRefusal(f"{method} gives a non-finite value in floating point")
    elapsed = time.perf_counter() - start
    row = {"method": method, "value": _value_json(value, args.mode)}
    if terms is not None:
        row["terms"] = terms
    if args.timing:
        row["timing_s"] = elapsed
    return row, value


def _check_route_options(args, methods, chose=()):
    """Refuse a route option that no route in methods reads, a --tol not
    finite and > 0, and a negative --budget.  The options in chose picked
    methods, so they count as read."""
    read = {opt for method in methods for opt in ROUTES[method].reads}
    read.update(chose)
    bad = [f"--{opt} is read only by {name}" for name, route in ROUTES.items()
           for opt in route.reads if getattr(args, opt) is not None and opt not in read]
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
        bad.append(f"--tol must be finite and > 0, got {args.tol!r}")
    if args.budget is not None and args.budget < 0:
        bad.append(f"--budget must be >= 0, got {args.budget}")
    if bad:
        raise ValidationError(bad)


def _parse_kappa(args, p):
    if not args.kappa:
        return (0.0,) * p
    try:
        parts = [float(x) for x in args.kappa.split(",")]
    except ValueError:
        msg = f"--kappa {args.kappa!r} is not a list of numbers"
        raise ValidationError([msg]) from None
    if not all(math.isfinite(x) and x >= 0 for x in parts):
        raise ValidationError(["--kappa values must be finite and nonnegative"])
    if len(parts) == 1:
        return (parts[0],) * p
    if len(parts) != p:
        raise ValidationError([f"--kappa needs 1 or {p} values, got {len(parts)}"])
    return tuple(parts)


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=False))
    else:
        for line in text_lines:
            print(line)


def cmd_det(args):
    _check_route_options(args, [args.method])
    lap = build_laplacian(*_load(args))
    row, value = _run_route(args.method, lap, args)
    payload = {"command": "det", "method": args.method, "mode": args.mode, **row}
    _emit(args, payload, [_value_text(value, args.mode)])
    return 0


def _t_coefficients(poly, t, n):
    """The coefficients of t^0 .. t^n in poly, as polynomials over its other
    symbols, or as scalars when t is its only one."""
    i = poly.syms.index(t)
    rest = Symbols(poly.syms.names[:i] + poly.syms.names[i + 1:])
    coeffs = []
    for j in range(n + 1):
        terms = {e[:i] + e[i + 1:]: c for e, c in poly.terms.items() if e[i] == j}
        cj = Poly(rest, terms)
        coeffs.append(cj if rest else cj.constant_value())
    return coeffs


def cmd_charpoly(args):
    lap = build_laplacian(*_load(args))
    if args.mode == "float":
        coeffs = charpoly_oracle(lap.matrix.to_complex())
        if not all(cmath.isfinite(to_complex(c)) for c in coeffs):
            raise MethodRefusal("charpoly gives non-finite coefficients in floating point")
    else:
        # det(tI + L): one shift symbol at every vertex, named apart from
        # the instance's indeterminates; it is never printed
        taken = next((x.syms for x in lap.matrix.data if isinstance(x, Poly)), ())
        t = "t"
        while t in taken:
            t += "'"
        poly = charpoly_laplacian(lap, (t,) * lap.quiver.p)
        coeffs = _t_coefficients(poly, t, sum(lap.ranks))
    payload = {
        "command": "charpoly",
        "mode": args.mode,
        "coefficients": [_value_json(c, args.mode) for c in coeffs],
    }
    _emit(
        args,
        payload,
        [f"t^{j}: {_value_text(c, args.mode)}" for j, c in enumerate(coeffs)],
    )
    return 0


def _hadamard_bound(m):
    """Hadamard's bound on |det m| in its mean form, (|m|_F^2 / n)^(n/2): at
    least the product of the row 2-norms, and nonzero unless m is zero."""
    rms = math.sqrt(sum(abs(z) * abs(z) for z in map(to_complex, m.data)) / m.rows)
    bound = 1.0
    for _ in range(m.rows):
        bound *= rms
    return bound


def _requested_methods(spec):
    """--methods as distinct route names: compare never prints one computation
    twice, and an unknown or empty name is refused before any route runs."""
    names = spec.split(",")
    bad = [n for n in names if n not in ROUTES or names.count(n) > 1]
    if bad:
        raise ValidationError([
            f"--methods takes distinct names of {', '.join(ROUTES)}, "
            f"not {', '.join(map(repr, dict.fromkeys(bad)))}"
        ])
    return names


def cmd_compare(args):
    wanted = None if args.methods is None else _requested_methods(args.methods)
    lap = build_laplacian(*_load(args))
    # without --methods, --budget picks the default set, as vector-fields'
    # fits reads it, even when that leaves vector-fields out
    chose = ("budget",) if wanted is None else ()
    wanted = wanted or [m for m, route in ROUTES.items() if route.fits(lap, args)]
    _check_route_options(args, wanted, chose)
    exact_mode = args.mode != "float"
    # perm's roundoff grows with the size of its terms, which the Hadamard
    # bound measures; on an exactly singular L that roundoff is all there
    # is, and a sink's zero row would make the plain row product 0
    abs_tol = FLOAT_ABS_TOL
    if not exact_mode:
        abs_tol *= max(1.0, _hadamard_bound(lap.matrix))
        if not math.isfinite(abs_tol):
            raise MethodRefusal("the Hadamard floor overflows, so any two values would agree")
    rows = []
    values = []
    for method in wanted:
        try:
            row, value = _run_route(method, lap, args)
        except MethodRefusal as exc:
            rows.append({"method": method, "skipped": str(exc)})
            continue
        rows.append(row)
        values.append(value)

    agree = True
    max_disc = 0.0
    for a, b in itertools.combinations(values, 2):
        if exact_mode:
            if not (a == b):
                agree = False
                max_disc = "nonzero"
        else:
            d = abs(to_complex(a) - to_complex(b))
            max_disc = max(max_disc, d)
            if not scalars_close(a, b, abs_=abs_tol):
                agree = False
    payload = {
        "command": "compare",
        "mode": args.mode,
        "methods": rows,
        "max_discrepancy": 0 if (exact_mode and agree) else max_disc,
        "agree": agree,
    }
    lines = []
    for row in rows:
        if "skipped" in row:
            lines.append(f"{row['method']}: skipped ({row['skipped']})")
        else:
            lines.append(f"{row['method']}: {row['value']}")
    lines.append(f"agree: {agree}")
    _emit(args, payload, lines)
    if not agree:
        raise InvariantViolation("determinant methods disagree")
    return 0


def cmd_primes(args):
    if args.max_len is not None and args.max_len < 2:
        raise ValidationError([f"--max-len must be >= 2, got {args.max_len}"])
    q, rep, w = _load(args)
    if args.max_len is not None:
        cycles = prime_cycles(q, args.max_len)
        finite = None
    else:
        fin = prime_finiteness(q)
        finite = fin.finite
        if fin.finite:
            cycles = list(fin.cycles)
        else:
            payload = {"command": "primes", "finite": False}
            _emit(args, payload, ["infinite prime set; rerun with --max-len"])
            return 0
    payload = {
        "command": "primes",
        "cycles": [
            {"edges": list(c.edges), "vertices": [v + 1 for v in c.srcs]}
            for c in cycles
        ],
    }
    if finite is not None:
        payload["finite"] = finite
    lines = [",".join(c.edges) for c in cycles]
    _emit(args, payload, lines or ["(none)"])
    return 0


def _sign_distribution(quiver, ranks):
    dists = {}
    for e in quiver.edges:
        r_src, r_tgt = ranks[e.src], ranks[e.tgt]
        if r_src != r_tgt:
            raise MethodRefusal(
                "built-in moment distribution needs equal ranks per edge"
            )
        ident = Matrix.identity(r_src).map(Fraction)
        flip = Matrix.from_rows(
            [
                [Fraction(-1 if (i == j == r_src - 1) else (1 if i == j else 0))
                 for j in range(r_src)]
                for i in range(r_src)
            ]
        )
        dists[e.id] = [(Fraction(1, 2), ident), (Fraction(1, 2), flip)]
    return dists


def cmd_moments(args):
    # a standard error needs two samples
    if args.k < 1 or (args.mc_samples is not None and args.mc_samples < 2):
        raise ValidationError(["--k must be >= 1 and --mc-samples, if given, >= 2"])
    q, rep, w = _load(args)
    if args.mc_samples is not None:
        return _moments_monte_carlo(args, q, rep, w)
    if args.mode == "float":
        raise MethodRefusal("exact moments need --mode exact; use --mc-samples for float")
    dists = _sign_distribution(q, rep.ranks)
    report = wilson_moment(q, w, rep.ranks, dists, args.k)
    payload = {
        "command": "moments",
        "k": args.k,
        "lhs": _value_json(report.lhs, args.mode),
        "rhs": _value_json(report.rhs, args.mode),
        "agree": bool(report.agree),
        "terms": report.terms,
    }
    _emit(
        args,
        payload,
        [
            f"lhs: {_value_text(report.lhs, args.mode)}",
            f"rhs: {_value_text(report.rhs, args.mode)}",
            f"agree: {report.agree}",
        ],
    )
    if not report.agree:
        raise InvariantViolation("moment identity failed")
    return 0


def _mean_stderr(samples):
    n = len(samples)
    mean = sum(samples) / n
    var = sum(abs(s - mean) ** 2 for s in samples) / (n - 1)
    return mean, math.sqrt(var / n)


def _moments_monte_carlo(args, q, rep, w):
    import random

    if args.mode != "float":
        raise MethodRefusal("--mc-samples requires --mode float")
    rng = random.Random(args.seed)
    ranks = tuple(rep.ranks)
    for e in q.edges:
        if ranks[e.src] != ranks[e.tgt]:
            raise MethodRefusal("Monte Carlo sampling needs equal ranks per edge")
    # drawn lazily, sample by sample and edge by edge, as the kernel reads them
    reps = (
        Representation(ranks, {e.id: haar_like_unitary(ranks[e.src], rng)
                               for e in q.edges})
        for _ in range(args.mc_samples)
    )
    try:
        sides = list(moment_samples(q, w, reps, args.k))
        lhs_mean, lhs_se = _mean_stderr([to_complex(lhs) for lhs, _ in sides])
        rhs_mean, rhs_se = _mean_stderr([to_complex(rhs) for _, rhs in sides])
    except OverflowError:
        raise MethodRefusal("Monte Carlo moments overflow floating point") from None
    if not all(map(cmath.isfinite, (lhs_mean, rhs_mean, lhs_se, rhs_se))):
        raise MethodRefusal("Monte Carlo moments are not finite in floating point")
    payload = {
        "command": "moments",
        "k": args.k,
        "mc_samples": args.mc_samples,
        "seed": args.seed,
        "lhs_mean": {"re": lhs_mean.real, "im": lhs_mean.imag},
        "lhs_stderr": lhs_se,
        "rhs_mean": {"re": rhs_mean.real, "im": rhs_mean.imag},
        "rhs_stderr": rhs_se,
    }
    _emit(
        args,
        payload,
        [
            f"lhs mean: {scalar_str(lhs_mean)} (stderr {lhs_se:.3e})",
            f"rhs mean: {scalar_str(rhs_mean)} (stderr {rhs_se:.3e})",
        ],
    )
    return 0


def cmd_random(args):
    q, rep, w = gen_example(
        "random", seed=args.seed, p=args.p, max_edges=args.max_edges,
        max_rank=args.max_rank,
    )
    print(json.dumps(instance_to_json(q, rep, w), indent=2))
    return 0


def _instance_options(sp):
    """The instance, read by _load, and the report's mode and format."""
    sp.add_argument("--input", help="quiver instance JSON file")
    sp.add_argument(
        "--example",
        choices=("two_cycle", "acyclic", "unicyclic", "figure5", "random"),
        help="use a built-in instance family instead of --input",
    )
    sp.add_argument("--mode", choices=("float", "exact", "symbolic"), default="exact")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    _generator_options(sp)


def _generator_options(sp):
    """The random instance family's parameters."""
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--max-edges", type=int, default=None)
    sp.add_argument("--max-rank", type=int, default=None)


def _route_options(sp):
    """Route settings, read by det and compare."""
    sp.add_argument("--budget", type=int, default=None,
                    help=f"term budget of the stack sums (default {DEFAULT_TERM_BUDGET})")
    sp.add_argument("--tol", type=float, default=None,
                    help="euler-truncated's error bound (default: the route's own)")
    sp.add_argument("--timing", action="store_true",
                    help="include wall-clock timings in reports")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="holodet",
        description="determinants of twisted quiver Laplacians via cycle identities",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *groups):
        sp = sub.add_parser(name, help=summary)
        for group in groups:
            group(sp)
        sp.set_defaults(func=func)
        return sp

    sp = command("det", cmd_det, "one determinant by the chosen method",
                 _instance_options, _route_options)
    sp.add_argument("--method", choices=ROUTES, default="cycles")
    sp.add_argument("--kappa", help="euler-truncated's per-vertex shift list, "
                    "e.g. 1.0 or 1,0.5,2")

    command("charpoly", cmd_charpoly, "characteristic polynomial coefficients",
            _instance_options)

    sp = command("compare", cmd_compare, "run all applicable methods and compare",
                 _instance_options, _route_options)
    sp.add_argument("--methods", help="comma-separated subset to run")
    # every other route computes det(L), so euler-truncated runs unshifted
    sp.set_defaults(kappa=None)

    sp = command("primes", cmd_primes, "prime cycles of the quiver", _instance_options)
    sp.add_argument("--max-len", type=int, default=None)

    sp = command("moments", cmd_moments, "moment identity for random representations",
                 _instance_options)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--mc-samples", type=int, default=None)

    command("random", cmd_random, "emit a random instance as JSON", _generator_options)
    return ap


# built once: main only parses, and every call gets a fresh namespace
PARSER = build_parser()


def _error_json(kind, exc):
    return json.dumps({"error": {"type": kind, "message": str(exc)}})


def main(argv=None):
    args = PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(_error_json("validation", exc), file=sys.stderr)
        return 2
    except MethodRefusal as exc:
        print(_error_json("refusal", exc), file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(_error_json("invariant", exc), file=sys.stderr)
        return 1
    except HolodetError as exc:
        print(_error_json("error", exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
