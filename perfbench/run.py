"""Closed-loop benchmark of the holodet command line.

Run from the repository root:

    python3 perfbench/run.py --workload crosscheck --seed 1 --seconds 20 --trace 0

One op is a user-facing ``holodet`` command run in-process through
``holodet.cli.main(argv)`` on an instance document made during set-up; its
exit code and JSON output are checked against a reference computed during
set-up.  One client in one process runs the ops of a pass in order, the
next starting when the previous returns, and repeats whole passes, at
least two, until ``--seconds`` have passed.  Times are scaled to a
reference host speed, measured by a fixed pure-Python loop timed around
each op (see ``speed_scales``).  ``--trace 1`` then runs one
more pass with spans recorded at the CLI boundary and probes after each
op, and reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3
MIN_OPS = 100
MIN_PASSES = 2
REF_LOOP = 250       # Fraction additions in one reference loop
REF_S = 0.001        # the reference loop's time at the reference speed
REF_NEAR = 3         # reference loops on each side of a timed step


# The shared host's speed swings by tens of percent within a second, and
# CPU time swings with wall time.  So every timed step is bracketed by a
# fixed pure-Python loop of the program's kind (Fraction arithmetic), and
# its time is multiplied by REF_S over the mean time of the loops nearest
# it: it then reads as it would at the reference speed, where one loop
# takes REF_S.  A slower program still reads slower; a slower host not.

def _reference_loop():
    total = Fraction(0)
    for i in range(1, REF_LOOP + 1):
        total += Fraction(1, i)
    return total


def reference_s():
    """One reference loop's wall time, with the cyclic collector off so
    that the program's garbage is not charged to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_scales(loops):
    """Factors for steps timed back to back, where loops[k] is the
    reference loop just before step k and loops[-1] the one after the
    last step; each uses the REF_NEAR loops on either side of its step."""
    return [REF_S / statistics.fmean(loops[max(0, k - REF_NEAR + 1):k + REF_NEAR + 1])
            for k in range(len(loops) - 1)]


def scaled_steps(fn):
    """fn(tick) and its wall time, where fn calls tick() between its steps:
    each stretch between ticks is scaled like an op in a pass."""
    loops = [reference_s()]
    raw = []
    start = time.perf_counter()

    def tick():
        nonlocal start
        raw.append(time.perf_counter() - start)
        loops.append(reference_s())
        start = time.perf_counter()

    out = fn(tick)
    tick()
    return out, sum(dt * scale for dt, scale in zip(raw, speed_scales(loops)))


def _import_program():
    """Import holodet from this checkout's sources, and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "holodet", "cli.py")):
        raise SystemExit(f"perfbench: no holodet sources under {src}")
    sys.path.insert(0, src)
    import spans
    import workloads
    from holodet import cli

    return spans, workloads, cli


def run_op(cli, op):
    """Run one op; returns (exit code or None if it raised, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except (Exception, SystemExit):
        rc = None
        traceback.print_exc()
    return rc, out.getvalue(), time.perf_counter() - start


def _matches(op, value):
    if op.kind == "float":
        z = complex(value["re"], value["im"])
        return abs(z - op.ref) <= 1e-8 * max(1.0, abs(op.ref))
    return value == op.ref


def verify(op, rc, text):
    """Classify one op as verified, refused or failed.

    Returns (status, payload, route evaluations, refused evaluations).  A
    crash, exit 1 or 2, unreadable output or any value off its reference
    fails the op; exit 3 or a compare whose every row was skipped refuses
    it."""
    if rc == 3:
        return "refused", None, 1, 1
    if rc != 0:
        return "failed", None, 1, 0
    try:
        payload = json.loads(text)
        if payload["command"] == "compare":
            rows = payload["methods"]
            values = [r["value"] for r in rows if "skipped" not in r]
            routes = len(rows)
        else:
            values = [payload["coefficients"] if op.kind == "charpoly" else payload["value"]]
            routes = 1
        if not values:
            return "refused", payload, routes, routes
        ok = all(_matches(op, v) for v in values)
    except (ValueError, KeyError, TypeError):
        return "failed", None, 1, 0
    return ("verified" if ok else "failed"), payload, routes, routes - len(values)


class Tally:
    """Op outcomes and route evaluations over the whole run."""

    def __init__(self):
        self.ops = self.failed = 0
        self.routes = self.refused_routes = 0

    def add(self, status, routes, refused):
        self.ops += 1
        self.failed += status == "failed"
        self.routes += routes
        self.refused_routes += refused


def warm_up(cli, ops, tally):
    """Run the first op of each command and matrix size once, so one-off
    costs (the permutation table built once per size, first calls into
    each route) stay out of the timed passes.  Its time counts as set-up,
    so work moved into first calls still shows; its ops are checked and
    counted like any other.  Returns (ops run, scaled seconds)."""
    firsts = {}
    for op in ops:
        method = op.argv[op.argv.index("--method") + 1] if "--method" in op.argv else None
        firsts.setdefault((op.argv[0], op.kind, method, op.lap.matrix.rows), op)

    def run_firsts(tick):
        for op in firsts.values():
            tick()
            rc, text, _dt = run_op(cli, op)
            status, _payload, routes, refused = verify(op, rc, text)
            tally.add(status, routes, refused)
            if status == "failed":
                print(f"perfbench: failed op {' '.join(op.argv)}", file=sys.stderr)
        return len(firsts)

    return scaled_steps(run_firsts)


def timed_passes(cli, ops, seconds, tally):
    """Whole passes, at least MIN_PASSES, and more while one more pass as
    long as the longest so far still ends within the run length.  Returns
    each op's scaled latencies (s) and each pass's rate of verified ops
    per scaled second of op time."""
    latencies = [[] for _ in ops]
    rates = []
    run_start = time.perf_counter()
    longest = 0.0
    while (len(rates) < MIN_PASSES
           or time.perf_counter() - run_start + longest <= seconds):
        pass_start = time.perf_counter()
        loops = [reference_s()]
        raw = []
        verified = 0
        for op in ops:
            rc, text, dt = run_op(cli, op)
            loops.append(reference_s())
            raw.append(dt)
            status, _payload, routes, refused = verify(op, rc, text)
            tally.add(status, routes, refused)
            verified += status == "verified"
            if status == "failed":
                print(f"perfbench: failed op {' '.join(op.argv)}", file=sys.stderr)
        op_s = 0.0
        for samples, dt, scale in zip(latencies, raw, speed_scales(loops)):
            samples.append(dt * scale)
            op_s += dt * scale
        rates.append(verified / op_s)
        longest = max(longest, time.perf_counter() - pass_start)
    return latencies, rates


def traced_pass(cli, spans, ops, tally):
    tracer = spans.Tracer()
    with tracer.installed():
        before = reference_s()
        for i, op in enumerate(ops):
            first = len(tracer.spans)
            tracer.op = i
            start = time.perf_counter()
            rc, text, dt = run_op(cli, op)
            tracer.op = None
            after = reference_s()
            tracer.scale = 2.0 * REF_S / (before + after)
            tracer.scale_spans(first)
            tracer.op_spans.append((i, start, dt * tracer.scale))
            status, payload, routes, refused = verify(op, rc, text)
            tally.add(status, routes, refused)
            if payload is not None:
                tracer.probe(op, payload)
            before = reference_s()
    return tracer


def layer_metrics(spans, tracer, ops, untraced_op_s):
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    busy = tracer.busy_ms()
    for name in spans.SPANS.values():
        put(f"{name}.ms", busy.get(name, 0.0), "ms")
        put(f"{name}.calls", tracer.calls[name], "count")
        put(f"{name}.refused", tracer.refused[name], "count")
    op_ms = sum(dt for _i, _start, dt in tracer.op_spans) * 1000.0
    put("cli.self_ms", op_ms - sum(busy.values()), "ms")
    put("trace.op_ms", op_ms, "ms")
    put("trace.overhead_pct",
        100.0 * (op_ms / 1000.0 - untraced_op_s) / untraced_op_s, "%")
    for name in ("taudet.det_tau", "walks.candidate_gcycles",
                 "walks.multiset_stream", "laplacian.hol_trace"):
        put(f"{name}.ms", tracer.probe_s[name] * 1000.0, "ms")
    for name in ("blockdet.perms", "vectorfields.stacks", "walks.cycles",
                 "walks.multisets", "laplacian.hol_matmuls", "euler.primes"):
        put(name, tracer.counts[name], "count")
    put("ring.mul_ns", tracer.ring_s["mul"] * 1e9 / tracer.ring_ops, "ns")
    put("ring.add_ns", tracer.ring_s["add"] * 1e9 / tracer.ring_ops, "ns")
    put("ring.coeff_bits", max(op.coeff_bits for op in ops), "bits")
    return metrics


def harrell_davis(values, p, steps=32):
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density over the n
    equal slices of [0, 1].  Where op costs climb steeply or leave a gap,
    the interpolated percentile jumps as one op's time crosses another's;
    this estimate moves smoothly and varies about half as much between
    seeds."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    mode = (a - 1) / (a + b - 2)
    top = (a - 1) * math.log(mode) + (b - 1) * math.log1p(-mode)
    weights = []
    for i in range(n):
        w = 0.0
        for k in range(steps):
            t = (i * steps + k + 0.5) / (n * steps)
            w += math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - top)
        weights.append(w)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end_metrics(setup_s, latencies, rates, tally):
    # An op's latency is its median over the passes, so a pass that a busy
    # neighbour on the machine slowed moves it less; percentiles are then
    # taken over the ops, at least 100 of them.
    ms = [statistics.median(samples) * 1000.0 for samples in latencies]
    p50 = harrell_davis(ms, 0.5)
    p90 = harrell_davis(ms, 0.9)
    print(f"perfbench: {len(ms)} ops x {len(rates)} passes, "
          f"{sum(1 for x in ms if x > p90)} ops beyond p90", file=sys.stderr)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": statistics.median(rates), "unit": "ops/s"},
        "op_ms.p50": {"value": p50, "unit": "ms"},
        "op_ms.p90": {"value": p90, "unit": "ms"},
        "verified_ratio": {"value": 1.0 - tally.failed / tally.ops, "unit": "1"},
        "answered_ratio": {
            "value": 1.0 - tally.refused_routes / tally.routes, "unit": "1"},
        "peak_rss_mb": {"value": rss_mib, "unit": "MiB"},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    (spans, workloads, cli), import_s = scaled_steps(lambda tick: _import_program())
    spans.require_all()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            ops, setup_time = scaled_steps(
                lambda tick: workloads.build(args.workload, args.seed, workdir, tick))
            setup_times.append(setup_time)
        if len(ops) < MIN_OPS:
            raise SystemExit(f"perfbench: {args.workload} has {len(ops)} ops a pass, "
                             f"fewer than {MIN_OPS}")
        tally = Tally()
        warm_ops, warm_s = warm_up(cli, ops, tally)
        setup_s = import_s + statistics.median(setup_times) + warm_s
        print(f"perfbench: import {import_s:.3f} s, set-up "
              + "/".join(f"{t:.3f}" for t in setup_times)
              + f" s, {warm_ops} warm-up ops {warm_s:.3f} s (scaled)", file=sys.stderr)

        latencies, rates = timed_passes(cli, ops, args.seconds, tally)
        if args.trace:
            tracer = traced_pass(cli, spans, ops, tally)
            op_s = statistics.median([sum(p) for p in zip(*latencies)])
            metrics = layer_metrics(spans, tracer, ops, op_s)
        else:
            metrics = end_to_end_metrics(setup_s, latencies, rates, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.ops,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
