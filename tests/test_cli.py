import copy
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from _helpers import gauss_rat, random_exact_instance
from holodet.cli import ROUTES, main
from holodet.errors import MethodRefusal
from holodet.laplacian import build_laplacian, det_laplacian_cycles
from holodet.linalg import Matrix, det_oracle
from holodet import walks
from holodet.quiver import (
    Edge,
    Quiver,
    Representation,
    gen_example,
    instance_to_json,
    load_instance,
    vertex_z,
)
from holodet.ring import scalar_str
from holodet.walks import candidate_gcycles, closed_walk_factors, fold_work


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_det_cycles_two_cycle_symbolic(capsys):
    code, out, err = run_cli(
        ["det", "--example", "two_cycle", "--mode", "symbolic",
         "--method", "cycles"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "x1*x2 - x1*x2*u*v"


def test_det_cycles_terms_count_visit_vectors(capsys):
    code, out, _ = run_cli(
        ["det", "--example", "two_cycle", "--mode", "symbolic",
         "--method", "cycles", "--format", "json"],
        capsys,
    )
    assert code == 0
    q, rep, _ = gen_example("two_cycle")
    visits = {c.visits(q.p) for c in candidate_gcycles(q, rep.ranks)}
    assert json.loads(out)["terms"] == len(visits) == 1


def _directed_ring(n):
    q = Quiver(n, [Edge(f"e{a}", a, (a + 1) % n) for a in range(n)])
    rng = random.Random(n)
    rep = Representation((1,) * n, {e.id: Matrix(1, 1, [gauss_rat(rng)])
                                    for e in q.edges})
    w = {e.id: Fraction(rng.randint(1, 4), rng.randint(1, 3)) for e in q.edges}
    return q, rep, w


def _exact_values(q, ranks, rng):
    rep = Representation(ranks, {e.id: Matrix(ranks[e.src], ranks[e.tgt],
                                              [gauss_rat(rng)
                                               for _ in range(ranks[e.src] * ranks[e.tgt])])
                                 for e in q.edges})
    w = {e.id: Fraction(rng.randint(1, 4), rng.randint(1, 3)) for e in q.edges}
    return q, rep, w


def _complete_digraph(p, rank):
    q = Quiver(p, [Edge(f"e{a}_{b}", a, b) for a in range(p) for b in range(p) if a != b])
    return _exact_values(q, (rank,) * p, random.Random(p))


def _bidirected_ring(n):
    q = Quiver(n, [Edge(f"e{a}{d}", a if d == "f" else (a + 1) % n,
                        (a + 1) % n if d == "f" else a)
                   for a in range(n) for d in "fr"])
    return _exact_values(q, (1,) * n, random.Random(n))


def test_cycles_refuses_past_its_work_cap_up_front(tmp_path, capsys):
    # complete (2,)*9 has only 3^9 visit-box cells, but a fold over them
    # pulls about 6^9 times; counting that refuses before any product
    lap = build_laplacian(*_complete_digraph(9, 2))
    args = SimpleNamespace(mode="exact")
    assert not ROUTES["cycles"].fits(lap, args)
    start = time.perf_counter()
    with pytest.raises(MethodRefusal):
        det_laplacian_cycles(lap)
    assert time.perf_counter() - start < 1
    path = tmp_path / "complete9.json"
    path.write_text(json.dumps(instance_to_json(*_complete_digraph(9, 2))))
    start = time.perf_counter()
    code, _, err = run_cli(["det", "--input", str(path), "--method", "cycles"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 3
    assert json.loads(err)["error"]["type"] == "refusal"

    # a rank-1 ring of n vertices has a visit box of 2^n cells but one
    # cycle, so its fold reaches two cells
    for n in (12, 26):
        lap = build_laplacian(*_directed_ring(n))
        assert ROUTES["cycles"].fits(lap, args)
        assert det_laplacian_cycles(lap) == det_oracle(lap.matrix)


def test_monte_carlo_moments_refuse_past_the_fold_cap(tmp_path, capsys):
    # each sample's right side is its cycle expansion, so the fold's cap
    # refuses complete (2,)*9 while counting, with no cycle multiset listed
    path = tmp_path / "complete9.json"
    path.write_text(json.dumps(instance_to_json(*_complete_digraph(9, 2))))
    start = time.perf_counter()
    code, out, err = run_cli(["moments", "--input", str(path), "--mode", "float",
                              "--mc-samples", "2", "--k", "1"], capsys)
    assert time.perf_counter() - start < 2
    assert code == 3 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "refusal"
    assert "fold steps" in error["message"]


def test_det_cycles_answers_on_a_forty_vertex_ring(tmp_path, capsys):
    path = tmp_path / "ring40.json"
    path.write_text(json.dumps(instance_to_json(*_directed_ring(40))))
    code, out, err = run_cli(["det", "--input", str(path), "--method", "cycles",
                              "--format", "json"], capsys)
    assert code == 0, err
    lap = build_laplacian(*load_instance(str(path)))
    assert json.loads(out)["value"] == scalar_str(det_oracle(lap.matrix))
    assert json.loads(out)["terms"] == 1


@pytest.mark.parametrize("build,fits", [
    (lambda: _complete_digraph(5, 1), True),   # admitted by the closed form
    (lambda: _bidirected_ring(14), True),      # counted and admitted
    (lambda: _bidirected_ring(24), False),     # counted and refused
    (lambda: _complete_digraph(9, 2), False),  # refused while counting
])
def test_cycles_fits_exactly_when_its_kernel_answers(build, fits):
    lap = build_laplacian(*build())
    assert ROUTES["cycles"].fits(lap, SimpleNamespace(mode="exact")) is fits
    if fits:
        assert det_laplacian_cycles(lap) == det_oracle(lap.matrix)
    else:
        with pytest.raises(MethodRefusal, match="fold steps"):
            det_laplacian_cycles(lap)


def test_cycles_fits_and_refuses_on_either_side_of_the_cap(monkeypatch):
    # a bidirected ring's closed-form bound is far past the cap, so its
    # fold is counted; with the cap at that count it answers, one below
    # it refuses, and fits agrees both times
    lap = build_laplacian(*_bidirected_ring(12))
    maps = {e.id: lap.rep.matrices[e.id].scale(-lap.weights[e.id]) for e in lap.quiver.edges}
    work = fold_work(list(closed_walk_factors(lap.quiver, lap.ranks, maps)), lap.ranks)
    args = SimpleNamespace(mode="exact")
    for cap, answers in ((work, True), (work - 1, False)):
        monkeypatch.setattr(walks, "FOLD_WORK_CAP", cap)
        assert walks._pull_bound(lap.ranks) > cap
        assert ROUTES["cycles"].fits(lap, args) is answers
        if answers:
            assert det_laplacian_cycles(lap) == det_oracle(lap.matrix)
        else:
            with pytest.raises(MethodRefusal, match=f"capped at {cap} "):
                det_laplacian_cycles(lap)


def test_fold_refusal_is_counted_once_per_quiver_and_bound(tmp_path, capsys, monkeypatch):
    # a bidirected ring's fold is counted by a transfer with no maps: once
    # for compare, which asks in the cycles route's fits and its kernel,
    # and once for moments, which runs the kernel per sample
    path = tmp_path / "ring14.json"
    path.write_text(json.dumps(instance_to_json(*_bidirected_ring(14))))
    counts = []
    real = walks._transfer

    def counted(quiver, bound, maps, state_cap=None):
        if all(m is None for m in maps.values()):
            counts.append(bound)
        return real(quiver, bound, maps, state_cap)

    monkeypatch.setattr(walks, "_transfer", counted)
    for args in (["compare"], ["moments", "--mode", "float", "--mc-samples", "3"]):
        counts.clear()
        code, _, _ = run_cli([*args, "--input", str(path)], capsys)
        assert code == 0
        assert counts == [(1,) * 14], args


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_compare_agrees_on_zero_and_cancelling_weights(tmp_path, capsys, mode):
    # weights drawn with zeros and opposite signs, so some vertices have
    # z = 0, on prime cycles or not; every route answers or refuses
    rng = random.Random(f"degenerate-weights:{mode}")
    path = tmp_path / "instance.json"
    vanishing = 0
    for _ in range(60):
        q, rep, _ = random_exact_instance(rng, p_max=4, rank_max=2, edge_max=6,
                                          total_rank_max=6)
        w = {e.id: rng.choice((0, 0, 1, 2, -1)) for e in q.edges}
        vanishing += not all(vertex_z(q, w))
        path.write_text(json.dumps(instance_to_json(q, rep, w)))
        code, out, err = run_cli(["compare", "--input", str(path), "--mode", mode,
                                  "--format", "json"], capsys)
        assert code == 0, err
        assert json.loads(out)["agree"] is True
    assert vanishing >= 30


def test_compare_answers_a_two_cycle_with_a_zero_weight(tmp_path, capsys):
    q = Quiver(2, [Edge("e", 0, 1), Edge("f", 1, 0)])
    rep = Representation((1, 1), {"e": Matrix(1, 1, [2]), "f": Matrix(1, 1, [3])})
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(instance_to_json(q, rep, {"e": 0, "f": 1})))
    for mode in ("exact", "float"):
        code, out, _ = run_cli(["compare", "--input", str(path), "--mode", mode,
                                "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)["methods"]
        assert "euler-finite" in [row["method"] for row in rows]
        zero = "0" if mode == "exact" else {"re": 0.0, "im": 0.0}
        assert all(row["value"] == zero for row in rows), rows


def test_det_all_methods_agree_two_cycle(capsys):
    values = set()
    for method in ("oracle", "perm", "block-perm", "trace-formal", "cycles",
                   "vector-fields", "euler-finite"):
        code, out, _ = run_cli(
            ["det", "--example", "two_cycle", "--mode", "symbolic",
             "--method", method],
            capsys,
        )
        assert code == 0
        values.add(out.strip())
    assert values == {"x1*x2 - x1*x2*u*v"}


def test_compare_figure5_discrepancy_zero(capsys):
    code, out, err = run_cli(
        ["compare", "--example", "figure5", "--mode", "symbolic",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["agree"] is True
    assert doc["max_discrepancy"] == 0
    ran = {row["method"] for row in doc["methods"] if "value" in row}
    assert {"oracle", "cycles", "vector-fields", "euler-finite"} <= ran


def test_primes_acyclic_empty(capsys):
    code, out, err = run_cli(
        ["primes", "--example", "acyclic", "--mode", "symbolic",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["cycles"] == []
    assert doc["finite"] is True


def test_primes_figure5(capsys):
    code, out, err = run_cli(
        ["primes", "--example", "figure5", "--mode", "symbolic"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["x12,x23,x34,x41", "x56,x67,x78,x85"]


def test_primes_max_len_refuses_past_search_budget(capsys, monkeypatch):
    argv = ["primes", "--example", "figure5", "--mode", "symbolic", "--max-len", "8"]
    assert run_cli(argv, capsys)[0] == 0
    monkeypatch.setattr("holodet.walks.PRIME_SEARCH_NODES", 10)
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "refusal"
    assert "node budget of 10" in error["message"]


def test_primes_long_max_len_answers_without_deep_recursion(capsys):
    # a walk around one 2-cycle branches nowhere, so it reaches length
    # 20000 well inside the search budget, far past the recursion limit
    code, out, err = run_cli(
        ["primes", "--example", "two_cycle", "--mode", "symbolic",
         "--max-len", "20000"],
        capsys,
    )
    assert (code, out, err) == (0, "e1,e2\n", "")


def test_charpoly_two_cycle(capsys):
    code, out, err = run_cli(
        ["charpoly", "--example", "two_cycle", "--mode", "symbolic"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("t^0:")
    assert "x1*x2 - x1*x2*u*v" in lines[0]
    assert lines[2] == "t^2: 1"


def test_validation_failure_exit_2(tmp_path, capsys):
    bad = {
        "p": 2,
        "ranks": [1, 1],
        "edges": [
            {"id": "e", "src": 1, "tgt": 1, "weight": 1, "matrix": [[[1, 0]]]}
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, err = run_cli(["det", "--input", str(path)], capsys)
    assert code == 2
    doc = json.loads(err)
    assert doc["error"]["type"] == "validation"
    assert "self-loop" in doc["error"]["message"]


def test_refusal_exit_3(capsys):
    code, out, err = run_cli(
        ["det", "--example", "two_cycle", "--mode", "symbolic",
         "--method", "euler-truncated"],
        capsys,
    )
    assert code == 3
    doc = json.loads(err)
    assert doc["error"]["type"] == "refusal"


def test_missing_input_exit_2(capsys):
    code, out, err = run_cli(["det"], capsys)
    assert code == 2


TWO_CYCLE_DOC = {
    "p": 2,
    "ranks": [1, 1],
    "edges": [
        {"id": "e", "src": 1, "tgt": 2, "weight": "2", "matrix": [[["1/2", "1"]]]},
        {"id": "f", "src": 2, "tgt": 1, "weight": 3, "matrix": [[[1, 0]]]},
    ],
}


def _without_ranks(doc):
    del doc["ranks"]


def _bad_weight(doc):
    doc["edges"][0]["weight"] = "abc"


def _src_out_of_range(doc):
    doc["edges"][1]["src"] = 7


@pytest.mark.parametrize("break_doc", [_without_ranks, _bad_weight, _src_out_of_range])
def test_malformed_instance_exit_2(tmp_path, capsys, break_doc):
    doc = copy.deepcopy(TWO_CYCLE_DOC)
    break_doc(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["det", "--input", str(path)], capsys)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "validation"


def test_oversized_instance_refused_before_building(tmp_path, capsys):
    # a dense Laplacian of this size would need 10^10 entries
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"p": 1, "ranks": [100000], "edges": []}))
    code, _, err = run_cli(["det", "--input", str(path)], capsys)
    assert code == 3
    assert json.loads(err)["error"]["type"] == "refusal"


def test_unreadable_input_and_bad_kappa_exit_2(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(TWO_CYCLE_DOC)[:-5])
    good = tmp_path / "good.json"
    good.write_text(json.dumps(TWO_CYCLE_DOC))
    for argv in (
        ["det", "--input", str(broken)],
        ["det", "--input", str(tmp_path / "absent.json")],
        ["det", "--input", str(good), "--mode", "float",
         "--method", "euler-truncated", "--kappa", "abc"],
    ):
        code, _, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert json.loads(err)["error"]["type"] == "validation"


@pytest.mark.parametrize("number", ["1e400", "-1e400", "9" * 400, 10 ** 400],
                         ids=["1e400", "-1e400", "digits", "int"])
@pytest.mark.parametrize("where", ["weight", "entry", "pair"])
def test_float_mode_number_beyond_float_range_exit_2(tmp_path, capsys, number, where):
    # exact in exact mode, but with no float value: a validation error in
    # float mode, as the JSON number 1e400 (read as inf) already is
    doc = copy.deepcopy(TWO_CYCLE_DOC)
    edge = doc["edges"][1]
    if where == "weight":
        edge["weight"] = number
    elif where == "entry":
        edge["matrix"] = [[number]]
    else:
        edge["matrix"] = [[["1", number]]]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["det", "--input", str(path), "--mode", "float"], capsys)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "validation"
    assert "beyond float range" in error["message"]
    code, _, err = run_cli(["det", "--input", str(path)], capsys)
    assert code == 0, err


@pytest.mark.parametrize("argv", [
    ["det", "--example", "two_cycle", "--mode", "symbolic", "--kappa", "zzz",
     "--tol", "-5"],
    ["compare", "--example", "two_cycle", "--mode", "symbolic", "--tol", "1"],
    ["det", "--example", "random", "--mode", "float", "--method", "euler-truncated",
     "--tol", "-5"],
    ["det", "--example", "random", "--mode", "float", "--method", "euler-truncated",
     "--tol", "nan"],
])
def test_euler_options_refused_exit_2(capsys, argv):
    # --kappa and --tol only with euler-truncated, and --tol finite and > 0
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "validation"


@pytest.mark.parametrize("argv", [
    ["primes", "--example", "figure5", "--mode", "symbolic", "--max-len", "1"],
    ["primes", "--example", "figure5", "--mode", "symbolic", "--max-len", "0"],
    ["primes", "--example", "figure5", "--mode", "symbolic", "--max-len", "-3"],
    ["det", "--example", "random", "--method", "vector-fields", "--budget", "-1"],
    ["compare", "--example", "random", "--budget", "-1"],
    # p = 1 used to redraw an edge's target forever, and the other random
    # family bounds raised ValueError from the draws
    ["random", "--p", "1"],
    ["random", "--p", "0"],
    ["random", "--p", "-2"],
    ["random", "--max-edges", "0"],
    ["random", "--max-edges", "-1"],
    ["random", "--max-rank", "0"],
    ["random", "--max-rank", "-1"],
    ["det", "--example", "random", "--p", "1"],
    ["compare", "--example", "random", "--max-rank", "0"],
])
def test_out_of_range_bounds_exit_2(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "validation"


def test_compare_runs_euler_truncated_unshifted(capsys):
    # compare checks every route against det(L), and a shift would make
    # euler-truncated compute det(diag(kappa) + L), so compare takes no --kappa
    argv = ["compare", "--example", "random", "--seed", "0", "--mode", "float",
            "--methods", "oracle,euler-truncated"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--kappa", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --kappa" in capsys.readouterr().err
    code, out, _ = run_cli(argv + ["--tol", "1e-6", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)["methods"]
    assert [row["method"] for row in rows] == ["oracle", "euler-truncated"]


FUZZ_VALUES = ("abc", "1/0", "", -1, 0, 2, 3, 1.5, True, None, [], {}, [1, 2, 3],
               {"sym": 3}, {"sym": "x"}, float("nan"))


def _mutate(doc, rng):
    """Replace or delete one randomly chosen node of a JSON document."""
    parents = []

    def walk(node):
        keys = (range(len(node)) if isinstance(node, list)
                else node.keys() if isinstance(node, dict) else ())
        for k in keys:
            parents.append((node, k))
            walk(node[k])

    walk(doc)
    node, key = rng.choice(parents)
    if rng.random() < 0.25:
        del node[key]
    else:
        node[key] = copy.deepcopy(rng.choice(FUZZ_VALUES))


def test_fuzzed_instances_never_traceback(tmp_path, capsys):
    rng = random.Random(2024)
    path = tmp_path / "fuzz.json"
    seen = set()
    for trial in range(300):
        doc = copy.deepcopy(TWO_CYCLE_DOC)
        for _ in range(rng.randint(1, 3)):
            _mutate(doc, rng)
        text = json.dumps(doc)
        if rng.random() < 0.1:
            text = text[:rng.randrange(len(text))]
        path.write_text(text)
        mode = rng.choice(("exact", "float", "symbolic"))
        code, _, err = run_cli(["det", "--input", str(path), "--mode", mode,
                                "--method", "oracle", "--format", "json"], capsys)
        assert code in (0, 2, 3), (trial, text, err)
        if code:
            assert "error" in json.loads(err), (trial, text)
        seen.add(code)
    assert {0, 2} <= seen


def test_random_roundtrip_and_determinism(tmp_path, capsys):
    code, out1, _ = run_cli(["random", "--seed", "5"], capsys)
    assert code == 0
    code, out2, _ = run_cli(["random", "--seed", "5"], capsys)
    assert out1 == out2
    doc = json.loads(out1)
    path = tmp_path / "inst.json"
    path.write_text(out1)
    code, out, err = run_cli(
        ["compare", "--input", str(path), "--mode", "exact", "--format", "json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["agree"] is True


def test_reports_byte_stable(capsys):
    args = ["compare", "--example", "two_cycle", "--mode", "symbolic",
            "--format", "json"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2
    assert "timing" not in out1


def test_timing_flag_adds_timings(capsys):
    code, out, _ = run_cli(
        ["det", "--example", "two_cycle", "--mode", "symbolic",
         "--method", "cycles", "--format", "json", "--timing"],
        capsys,
    )
    assert code == 0
    assert "timing_s" in json.loads(out)


def test_moments_exact_random_seed_2(capsys):
    code, out, err = run_cli(
        ["moments", "--example", "random", "--seed", "2", "--k", "2",
         "--format", "json"],
        capsys,
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["agree"] is True
    assert doc["lhs"] == doc["rhs"] == "608/81"
    # the one visit vector the cycle expansion folds, to the k = 2
    assert doc["terms"] == 1


def test_moments_exact_json_instance(tmp_path, capsys):
    doc = {
        "p": 2,
        "ranks": [1, 1],
        "edges": [
            {"id": "e", "src": 1, "tgt": 2, "weight": "2", "matrix": [[[1, 0]]]},
            {"id": "f", "src": 2, "tgt": 1, "weight": "3", "matrix": [[[1, 0]]]},
        ],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(
        ["moments", "--input", str(path), "--k", "1", "--format", "json"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["agree"] is True
    assert rep["lhs"] == "6"


def test_moments_monte_carlo(tmp_path, capsys):
    doc = {
        "p": 2,
        "ranks": [1, 1],
        "edges": [
            {"id": "e", "src": 1, "tgt": 2, "weight": 1.0, "matrix": [[[1, 0]]]},
            {"id": "f", "src": 2, "tgt": 1, "weight": 1.0, "matrix": [[[1, 0]]]},
        ],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(
        ["moments", "--input", str(path), "--mode", "float", "--k", "1",
         "--mc-samples", "64", "--seed", "11", "--format", "json"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    # the expansion identity holds pointwise, so the two means coincide
    assert abs(rep["lhs_mean"]["re"] - rep["rhs_mean"]["re"]) < 1e-9
    assert rep["lhs_stderr"] >= 0.0


def test_det_float_mode(tmp_path, capsys):
    doc = {
        "p": 2,
        "ranks": [1, 1],
        "edges": [
            {"id": "e", "src": 1, "tgt": 2, "weight": 2.0,
             "matrix": [[[0.6, 0.2]]]},
            {"id": "f", "src": 2, "tgt": 1, "weight": 3.0,
             "matrix": [[[0.1, -0.4]]]},
        ],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(
        ["det", "--input", str(path), "--mode", "float", "--method", "cycles",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    # det = 6 - 6 (0.6 + 0.2i)(0.1 - 0.4i)
    expected = 6 - 6 * complex(0.6, 0.2) * complex(0.1, -0.4)
    assert abs(complex(rep["value"]["re"], rep["value"]["im"]) - expected) < 1e-12


def test_euler_truncated_cli(tmp_path, capsys):
    doc = {
        "p": 2,
        "ranks": [1, 1],
        "edges": [
            {"id": "e", "src": 1, "tgt": 2, "weight": 1.0,
             "matrix": [[[0.9238795325112867, 0.3826834323650898]]]},
            {"id": "f", "src": 2, "tgt": 1, "weight": 1.0,
             "matrix": [[[0.9238795325112867, -0.3826834323650898]]]},
        ],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(
        ["det", "--input", str(path), "--mode", "float",
         "--method", "euler-truncated", "--kappa", "1.0", "--format", "json"],
        capsys,
    )
    assert code == 0


def test_console_entry_point():
    for module in ("holodet.cli", "holodet"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "det", "--example", "two_cycle",
             "--mode", "symbolic"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, module
        assert proc.stdout.strip() == "x1*x2 - x1*x2*u*v"


def test_budget_flag_refusal(capsys):
    code, out, err = run_cli(
        ["det", "--example", "two_cycle", "--mode", "symbolic",
         "--method", "vector-fields", "--budget", "1"],
        capsys,
    )
    assert code == 3


def test_budget_zero_leaves_vector_fields_out(capsys):
    code, out, _ = run_cli(
        ["compare", "--example", "two_cycle", "--mode", "symbolic",
         "--budget", "0", "--format", "json"],
        capsys,
    )
    assert code == 0
    methods = [row["method"] for row in json.loads(out)["methods"]]
    assert "vector-fields" not in methods
    assert "cycles" in methods


@pytest.mark.parametrize("argv, code", [
    # no route in the run set reads --budget
    (["det", "--example", "random", "--method", "oracle", "--budget", "5"], 2),
    (["compare", "--example", "random", "--methods", "oracle,cycles", "--budget", "5"], 2),
    # vector-fields reads it (without --methods it picks the default set,
    # see test_budget_zero_leaves_vector_fields_out)
    (["compare", "--example", "random", "--methods", "oracle,vector-fields",
      "--budget", "5"], 0),
])
def test_budget_refused_where_no_route_reads_it(capsys, argv, code):
    got, out, err = run_cli(argv, capsys)
    assert got == code, err
    if code == 2:
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "validation"
        assert "--budget is read only by vector-fields" in error["message"]


def test_moments_exact_refuses_past_outcome_cap(tmp_path, capsys, monkeypatch):
    # 13 edges of sign flips are 2^13 joint outcomes, over the 2^12 cap
    doc = {
        "p": 2,
        "ranks": [1, 1],
        "edges": [
            {"id": f"e{j}", "src": 1 + j % 2, "tgt": 2 - j % 2, "weight": "1",
             "matrix": [[[1, 0]]]}
            for j in range(13)
        ],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))

    def no_outcome(*args, **kwargs):
        raise AssertionError("an outcome was built")

    monkeypatch.setattr("holodet.laplacian.Representation", no_outcome)
    code, out, err = run_cli(["moments", "--input", str(path), "--k", "1"], capsys)
    assert code == 3 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "refusal"
    assert "4096 joint outcomes, got 8192" in error["message"]


# a sink vertex makes this Laplacian exactly singular; perm's roundoff there
# (3.7e-10) is far above 1e-12 but far below the floor scaled by its size
SINGULAR_FLOAT = ["compare", "--example", "random", "--mode", "float", "--seed", "13",
                  "--p", "4", "--max-edges", "6", "--max-rank", "2", "--format", "json"]


def _scaled_float_floor():
    from holodet.laplacian import build_laplacian
    from holodet.ring import FLOAT_ABS_TOL, to_complex

    q, rep, w = gen_example("random", seed=13, p=4, max_edges=6, max_rank=2)
    m = build_laplacian(q, rep, w).matrix
    mean_sq = sum(abs(to_complex(x)) ** 2 for x in m.data) / m.rows
    return FLOAT_ABS_TOL * max(1.0, mean_sq ** (m.rows / 2))


def test_compare_float_singular_laplacian_agrees(capsys):
    code, out, _ = run_cli(SINGULAR_FLOAT, capsys)
    assert code == 0
    payload = json.loads(out)
    values = {row["method"]: row["value"] for row in payload["methods"]}
    assert values["oracle"] == {"re": 0.0, "im": 0.0}
    assert 1e-12 < payload["max_discrepancy"] < _scaled_float_floor()
    assert payload["agree"] is True


def test_compare_float_flags_route_past_scaled_floor(capsys, monkeypatch):
    from holodet import cli

    delta = 100 * _scaled_float_floor()
    perm = cli.det_perm_traces
    monkeypatch.setattr(cli, "det_perm_traces", lambda m: perm(m) + delta)
    code, out, err = run_cli(SINGULAR_FLOAT, capsys)
    assert code == 1
    assert json.loads(out)["agree"] is False
    assert json.loads(err)["error"]["type"] == "invariant"


@pytest.fixture
def huge_weights_doc(tmp_path):
    """The random seed-3 instance with every weight 1e200, so float routes
    overflow."""
    from holodet.quiver import instance_to_json

    doc = instance_to_json(*gen_example("random", seed=3))
    for edge in doc["edges"]:
        edge["weight"] = "1e200"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["det", "--method", "oracle", "--mode", "float", "--input"],
    ["det", "--method", "euler-truncated", "--mode", "float", "--input"],
    ["det", "--method", "euler-finite", "--mode", "float", "--input"],
    ["charpoly", "--mode", "float", "--input"],
    ["compare", "--mode", "float", "--input"],
    ["det", "--example", "random", "--seed", "3", "--mode", "float",
     "--method", "euler-truncated", "--kappa", "1e308"],
    ["moments", "--mode", "float", "--mc-samples", "3", "--k", "1", "--input"],
])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_float_overflow_is_refused(capsys, huge_weights_doc, argv, fmt):
    if argv[-1] == "--input":
        argv = argv + [huge_weights_doc]
    code, out, err = run_cli(argv + ["--format", fmt], capsys)
    assert code == 3
    assert json.loads(err)["error"]["type"] == "refusal"
    assert not any(word in out.lower() for word in ("nan", "inf"))


@pytest.mark.parametrize("argv", [
    ["--mode", "float", "--mc-samples", "-1"],
    ["--mode", "float", "--mc-samples", "0"],
    ["--mode", "float", "--mc-samples", "1"],
    ["--mc-samples", "0"],
    ["--k", "0"],
    ["--k", "-2"],
    ["--mode", "float", "--mc-samples", "3", "--k", "0"],
])
def test_moments_out_of_range_options_are_refused(capsys, argv):
    code, out, err = run_cli(
        ["moments", "--example", "random", "--max-rank", "1", "--format", "json"] + argv,
        capsys,
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "validation"


@pytest.mark.parametrize("methods", [
    "oracle,bogus",
    ",",
    "",
    "oracle,",
    "oracle,oracle",
    "cycles,oracle,cycles",
])
def test_compare_refuses_unknown_empty_or_repeated_methods(capsys, methods):
    code, out, err = run_cli(
        ["compare", "--example", "random", "--seed", "1", "--methods", methods],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "validation"


@pytest.mark.parametrize("broken", [
    lambda m: complex("inf"),
    lambda m: complex("nan"),
    lambda m: 10.0 ** 400,
])
def test_compare_skips_a_non_finite_float_row(capsys, monkeypatch, broken):
    from holodet import cli

    monkeypatch.setattr(cli, "det_perm_traces", broken)
    code, out, _ = run_cli(SINGULAR_FLOAT, capsys)
    assert code == 0
    rows = {row["method"]: row for row in json.loads(out)["methods"]}
    assert "floating point" in rows["perm"]["skipped"]
    assert "value" in rows["oracle"]


# the holodet.cli name whose kernel each route runs; perfbench/spans.py
# times a route by wrapping that name
ROUTE_KERNELS = {
    "oracle": "det_oracle",
    "cycles": "det_laplacian_cycles",
    "perm": "det_perm_traces",
    "block-perm": "det_block_perm",
    "trace-formal": "det_trace_formal",
    "vector-fields": "det_vector_fields",
    "euler-finite": "det_euler_finite",
    "euler-truncated": "det_euler_truncated",
}


@pytest.mark.parametrize("method", list(ROUTES))
def test_each_route_looks_its_kernel_up_when_it_runs(capsys, monkeypatch, method):
    from holodet import cli

    value = complex(12.5, -3)
    out = SimpleNamespace(value=value, prime_count=7) if method == "euler-truncated" else value
    monkeypatch.setattr(cli, ROUTE_KERNELS[method], lambda *args, **kwargs: out)
    code, text, err = run_cli(["det", "--example", "random", "--mode", "float",
                               "--method", method, "--format", "json"], capsys)
    assert code == 0, err
    doc = json.loads(text)
    assert doc["value"] == {"re": 12.5, "im": -3.0}
    assert list(doc)[:4] == ["command", "method", "mode", "value"]


@pytest.mark.parametrize("name", ["t", "t1"])
def test_charpoly_symbolic_weight_named_like_the_shift(tmp_path, capsys, name):
    from holodet.laplacian import build_laplacian
    from holodet.linalg import charpoly_oracle
    from holodet.quiver import load_instance
    from holodet.ring import scalar_str

    doc = {
        "p": 2,
        "ranks": [1, 1],
        "edges": [
            {"id": "e", "src": 1, "tgt": 2, "weight": {"sym": name},
             "matrix": [["2"]]},
            {"id": "f", "src": 2, "tgt": 1, "weight": {"sym": "x"},
             "matrix": [["1/3"]]},
        ],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(
        ["charpoly", "--input", str(path), "--mode", "symbolic", "--format", "json"],
        capsys,
    )
    assert code == 0, err
    lap = build_laplacian(*load_instance(str(path), mode="symbolic"))
    want = [scalar_str(c) for c in charpoly_oracle(lap.matrix)]
    assert json.loads(out)["coefficients"] == want


def _option_strings():
    import argparse

    from holodet.cli import PARSER

    sub = next(a for a in PARSER._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {
            opt for action in sp._actions for opt in action.option_strings
            if opt not in ("-h", "--help")
        }
        for name, sp in sub.choices.items()
    }


INSTANCE_OPTIONS = {"--input", "--example", "--mode", "--format",
                    "--seed", "--p", "--max-edges", "--max-rank"}
ROUTE_OPTIONS = {"--budget", "--tol", "--timing"}


def test_each_command_takes_only_the_options_it_reads():
    surface = _option_strings()
    assert surface == {
        "det": INSTANCE_OPTIONS | ROUTE_OPTIONS | {"--method", "--kappa"},
        "charpoly": INSTANCE_OPTIONS,
        "compare": INSTANCE_OPTIONS | ROUTE_OPTIONS | {"--methods"},
        "primes": INSTANCE_OPTIONS | {"--max-len"},
        "moments": INSTANCE_OPTIONS | {"--k", "--mc-samples"},
        "random": {"--seed", "--p", "--max-edges", "--max-rank"},
    }
    assert sum(map(len, surface.values())) == 56


@pytest.mark.parametrize("argv", [
    ["random", "--mode", "float"],
    ["charpoly", "--example", "two_cycle", "--mode", "symbolic", "--budget", "5"],
    ["primes", "--example", "figure5", "--mode", "symbolic", "--timing"],
])
def test_dropped_option_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_main_keeps_no_state_between_commands(capsys):
    det = ["det", "--example", "random", "--seed", "5", "--format", "json"]
    runs = [
        det,
        ["charpoly", "--example", "two_cycle", "--mode", "symbolic",
         "--format", "json"],
        ["compare", "--example", "random", "--seed", "3", "--mode", "float",
         "--budget", "0"],
        det,
    ]
    for argv in runs:
        alone = subprocess.run(
            [sys.executable, "-m", "holodet.cli", *argv],
            capture_output=True, text=True, timeout=120,
        )
        assert run_cli(argv, capsys)[:2] == (alone.returncode, alone.stdout)
