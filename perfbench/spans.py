"""Spans and counts at the ``holodet.cli`` boundary, and untimed layer probes.

The tracer replaces the layer functions that ``holodet.cli`` imported with
wrappers that record a span (name, start, duration, op) and a call count,
so the program itself carries no instrumentation.  All wrapped calls are
made by the CLI itself, so their spans are children of the op span and
``cli.self_ms`` is the op time they leave uncovered.  After each op, the
probes call layer functions directly on the same instance, outside any op
span, to time the stages that run inside a route.
"""

from __future__ import annotations

import contextlib
import math
import time
from collections import Counter, defaultdict

from holodet import cli, laplacian, taudet, walks
from holodet.errors import MethodRefusal

# holodet.cli binding -> span name (defining module and function)
SPANS = {
    "load_instance": "quiver.load_instance",
    "validate": "quiver.validate",
    "build_laplacian": "laplacian.build_laplacian",
    "det_oracle": "linalg.det_oracle",
    "det_perm_traces": "blockdet.det_perm_traces",
    "det_block_perm": "blockdet.det_block_perm",
    "det_trace_formal": "blockdet.det_trace_formal",
    "det_laplacian_cycles": "laplacian.det_laplacian_cycles",
    "charpoly_laplacian": "laplacian.charpoly_laplacian",
    "det_vector_fields": "vectorfields.det_vector_fields",
    "det_euler_finite": "euler.det_euler_finite",
    "det_euler_truncated": "euler.det_euler_truncated",
    "prime_finiteness": "walks.prime_finiteness",
    "enumerate_gcycle_multisets": "walks.enumerate_gcycle_multisets",
}
# spans whose result is an iterator the CLI consumes afterwards
LAZY = {"enumerate_gcycle_multisets"}

PROBED = {
    taudet: ("det_tau", "block_tau_context", "block_word_matrix"),
    walks: ("candidate_gcycles", "_multiset_stream"),
    laplacian: ("hol_trace",),
}

RING_PROBE_OPS = 256


def require(module, names):
    """Fail loudly when a wrapped binding or probed function is gone, so a
    rename forces a benchmark update instead of a silent zero."""
    missing = [n for n in names if not callable(getattr(module, n, None))]
    if missing:
        raise LookupError(
            f"{module.__name__} has no {', '.join(missing)}; update perfbench"
        )


def require_all():
    require(cli, SPANS)
    for module, names in PROBED.items():
        require(module, names)


def _stack_count(lap):
    stacks = 1
    for a in range(lap.quiver.p):
        stacks *= lap.quiver.outdeg(a) ** lap.ranks[a]
    return stacks


# holodet.cli binding -> (count name, work done by one successful call)
COUNTS = {
    "det_perm_traces": ("blockdet.perms", lambda args, out: math.factorial(args[0].rows)),
    "det_block_perm": ("blockdet.perms", lambda args, out: math.factorial(args[0].n)),
    "det_trace_formal": ("blockdet.perms", lambda args, out: math.factorial(args[0].n)),
    "det_vector_fields": ("vectorfields.stacks", lambda args, out: _stack_count(args[0])),
    "det_euler_truncated": ("euler.primes", lambda args, out: out.prime_count),
}


class Tracer:
    """In-memory spans, call counts and work counts of one traced pass.

    The caller scales an op's spans by its host-speed factor once the op
    is done, and sets ``scale`` to that factor for the probes after it, so
    that every duration reads as at the reference speed."""

    def __init__(self):
        self.spans = []               # (name, start, duration, op index)
        self.op_spans = []            # (op index, start, duration)
        self.calls = Counter()
        self.refused = Counter()
        self.counts = Counter()
        self.probe_s = defaultdict(float)
        self.ring_s = defaultdict(float)
        self.ring_ops = 0
        self.op = None
        self.scale = 1.0              # host-speed factor of the last op

    @contextlib.contextmanager
    def installed(self):
        require_all()
        saved = {name: getattr(cli, name) for name in SPANS}
        for name, fn in saved.items():
            setattr(cli, name, self._wrap(name, fn))
        try:
            yield self
        finally:
            for name, fn in saved.items():
                setattr(cli, name, fn)

    def _wrap(self, binding, fn):
        name = SPANS[binding]
        count = COUNTS.get(binding)

        def traced(*args, **kwargs):
            self.calls[name] += 1
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except MethodRefusal:
                self.refused[name] += 1
                raise
            finally:
                self.spans.append((name, start, time.perf_counter() - start, self.op))
            if count is not None:
                self.counts[count[0]] += count[1](args, out)
            if binding in LAZY:
                return self._timed_iter(name, out)
            return out

        return traced

    def _timed_iter(self, name, it):
        it = iter(it)
        start = time.perf_counter()
        busy = 0.0
        try:
            while True:
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    busy += time.perf_counter() - t0
                    return
                busy += time.perf_counter() - t0
                yield item
        finally:
            self.spans.append((name, start, busy, self.op))

    def scale_spans(self, first):
        """Scale the spans recorded since index ``first`` by ``scale``."""
        self.spans[first:] = [(name, start, dur * self.scale, op)
                              for name, start, dur, op in self.spans[first:]]

    def busy_ms(self):
        out = defaultdict(float)
        for name, _start, dur, _op in self.spans:
            out[name] += dur * 1000.0
        return out

    def probe(self, op, payload):
        """Untimed probes of the stages inside the routes the op ran."""
        lap = op.lap
        command = op.argv[0]
        if command == "compare":
            ran = {r["method"] for r in payload["methods"] if "skipped" not in r}
        elif command == "det":
            ran = {payload["method"]}
        else:
            ran = {"cycles"}  # the shifted charpoly folds the cycle expansion
        if "cycles" in ran:
            self._probe_cycles(lap)
        if "trace-formal" in ran:
            ctx = taudet.block_tau_context(lap.block)
            entries = taudet.block_word_matrix(lap.block)
            with self._timed("taudet.det_tau"):
                taudet.det_tau(entries, ctx)
        self._probe_ring(lap)

    def _probe_cycles(self, lap):
        q, ranks = lap.quiver, tuple(lap.ranks)
        with self._timed("walks.candidate_gcycles"):
            cands = walks.candidate_gcycles(q, ranks)
        with self._timed("walks.multiset_stream"):
            multisets = sum(1 for _ in walks._multiset_stream(cands, q.p, ranks))
        with self._timed("laplacian.hol_trace"):
            for c in cands:
                laplacian.hol_trace(lap.rep, c)
        self.counts["walks.cycles"] += len(cands)
        self.counts["walks.multisets"] += multisets
        self.counts["laplacian.hol_matmuls"] += sum(len(c) - 1 for c in cands)

    def _probe_ring(self, lap):
        """Multiply and add the instance's own nonzero Laplacian entries."""
        xs = [x for x in lap.matrix.data if not x == 0]
        pairs = [(xs[i % len(xs)], xs[(7 * i + 3) % len(xs)])
                 for i in range(RING_PROBE_OPS)]
        t0 = time.perf_counter()
        for a, b in pairs:
            a * b
        t1 = time.perf_counter()
        for a, b in pairs:
            a + b
        t2 = time.perf_counter()
        self.ring_s["mul"] += (t1 - t0) * self.scale
        self.ring_s["add"] += (t2 - t1) * self.scale
        self.ring_ops += RING_PROBE_OPS

    @contextlib.contextmanager
    def _timed(self, name):
        t0 = time.perf_counter()
        yield
        self.probe_s[name] += (time.perf_counter() - t0) * self.scale
