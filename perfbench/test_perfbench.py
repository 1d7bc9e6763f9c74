"""Checks of the benchmark itself: seeded inputs, op verdicts, loud failure
on a renamed layer, and work counts that repeat exactly.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from holodet import cli, walks  # noqa: E402

COUNTS = ("blockdet.perms", "vectorfields.stacks", "walks.cycles",
          "walks.multisets", "laplacian.hol_matmuls", "euler.primes")


def _build(workload, seed, workdir):
    workdir.mkdir()
    return workloads.build(workload, seed, str(workdir))


def _small_ops(workload, seed, workdir, count=8, max_n=6):
    ops = _build(workload, seed, workdir)
    return [op for op in ops if op.lap.matrix.rows <= max_n][:count]


def _traced(ops):
    tally = run.Tally()
    tracer = run.traced_pass(cli, spans, ops, tally)
    assert tally.failed == 0
    return tracer


def test_same_seed_same_inputs(tmp_path):
    a = _build("euler-float", 7, tmp_path / "a")
    b = _build("euler-float", 7, tmp_path / "b")
    c = _build("euler-float", 8, tmp_path / "c")
    docs = lambda ops: [Path(op.argv[op.argv.index("--input") + 1]).read_text() for op in ops]
    assert docs(a) == docs(b)
    assert [op.ref for op in a] == [op.ref for op in b]
    assert docs(a) != docs(c)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_work_counts_repeat(workload, tmp_path):
    """Two traced passes at one seed give the same counts, so later
    changes can cite them as counts."""
    first = _traced(_small_ops(workload, 3, tmp_path / "a"))
    second = _traced(_small_ops(workload, 3, tmp_path / "b"))
    assert any(first.counts[name] for name in COUNTS)
    for name in COUNTS:
        assert first.counts[name] == second.counts[name], name
    assert first.calls == second.calls
    assert first.refused == second.refused


def test_spans_account_for_op_time(tmp_path):
    tracer = _traced(_small_ops("crosscheck", 3, tmp_path / "a"))
    op_s = {i: dt for i, _start, dt in tracer.op_spans}
    child_s = {}
    for _name, _start, dur, op in tracer.spans:
        assert op in op_s, "every span belongs to an op"
        child_s[op] = child_s.get(op, 0.0) + dur
    for i, dt in op_s.items():
        assert 0.0 <= child_s.get(i, 0.0) <= dt


def test_missing_binding_fails_loudly(monkeypatch):
    monkeypatch.delattr(cli, "det_block_perm")
    with pytest.raises(LookupError, match="det_block_perm"):
        with spans.Tracer().installed():
            pass


def test_missing_probe_fails_loudly(monkeypatch):
    monkeypatch.delattr(walks, "_multiset_stream")
    with pytest.raises(LookupError, match="_multiset_stream"):
        spans.require_all()


def test_verdicts(tmp_path):
    op = _build("cycles", 1, tmp_path / "a")[0]
    rc, text, _dt = run.run_op(cli, op)
    assert run.verify(op, rc, text)[0] == "verified"
    assert run.verify(op, 3, "")[0] == "refused"
    assert run.verify(op, 1, text)[0] == "failed"
    assert run.verify(op, 0, "not json")[0] == "failed"
    op.ref = op.ref + "1"
    assert run.verify(op, rc, text)[0] == "failed"


def test_harrell_davis():
    xs = list(range(1, 102))
    assert run.harrell_davis(xs, 0.5) == pytest.approx(51.0)
    assert 88.0 < run.harrell_davis(xs, 0.9) < 93.0
    # one op crossing its neighbour moves the estimate smoothly
    gap = [1.0] * 50 + [2.0] * 51
    moved = [1.0] * 51 + [2.0] * 50
    assert abs(run.harrell_davis(gap, 0.5) - run.harrell_davis(moved, 0.5)) < 0.1


def test_scaled_steps_counts_every_stretch():
    ticks = []

    def steps(tick):
        for i in range(4):
            tick()
            ticks.append(i)
        return "done"

    out, seconds = run.scaled_steps(steps)
    assert out == "done" and ticks == [0, 1, 2, 3]
    assert seconds > 0.0


def test_warm_up_runs_each_command_and_size_once(tmp_path):
    ops = _small_ops("euler-float", 3, tmp_path / "a", count=12)
    tally = run.Tally()
    count, seconds = run.warm_up(cli, ops, tally)
    kinds = {(op.argv[0], op.lap.matrix.rows) for op in ops}
    assert count == len(kinds) == tally.ops
    assert tally.failed == 0 and seconds > 0.0
