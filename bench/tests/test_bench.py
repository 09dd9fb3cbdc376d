"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest bench/tests -q
"""
import copy
import io
import json
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
@pytest.mark.parametrize("seed", [0, 1])
def test_generated_scenarios_validate(name, seed):
    workload = workloads.build(name, seed)
    assert workload.cells
    for cfg in workload.cells:
        cfg.validate()
    seeds = [s for _, s in workload.next_pass()]
    assert seeds == [s for _, s in workloads.build(name, seed).next_pass()]


def test_matrix_cells():
    cells = workloads.build("matrix", 0).cells
    assert len(cells) == 4 * 8 - 1
    assert "matrix-n13-ready_poison" not in {c.name for c in cells}


def test_fault_free_wide_writes_cost_exactly_the_bounds():
    from byzreg.cli import run_one
    workload = workloads.build("wide-writes", 0)
    (cfg, seed), = workload.next_pass()
    trace, report = run_one(cfg, seed)
    n = cfg.n
    exact = {"READ": 4 * n, "WRITE": 2 * n * n + 2 * n}
    assert exact == {"READ": 64, "WRITE": 544}
    assert all(op.completed() for op in report.history.ops)
    for op in report.history.ops:
        assert report.cost.per_op[op.op_id].total == exact[op.kind]
    assert run.judge(workload, trace, report) == ("ok", "")


def test_self_times_on_a_synthetic_tree():
    #  run [0, 10]
    #  +- a [1, 4]
    #  |  +- b [2, 3]
    #  +- a [5, 9]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert self_times(parent, start, end) == [3.0, 2.0, 1.0, 4.0]

    tracer = Tracer()
    for name, p, s, e in zip(["run", "a", "b", "a"], parent, start, end):
        tracer.name.append(tracer.name_id(name))
        tracer.parent.append(p)
        tracer.run.append(0)
        tracer.start.append(s)
        tracer.end.append(e)
    assert tracer.summary() == {"run": (10.0, 3.0, 1), "a": (7.0, 6.0, 2),
                                "b": (1.0, 1.0, 1)}


def _verdict(prop, status):
    return SimpleNamespace(prop=prop, status=status)


def _report(*verdicts):
    fails = [v for v in verdicts if v.status == "FAIL"]
    nonterm = any(v.status == "NONTERMINATING" for v in verdicts)
    return SimpleNamespace(
        verdicts=list(verdicts), failures=lambda: fails,
        nonterminating=lambda: nonterm, ok=lambda: not fails and not nonterm)


def test_judge_accepts_only_the_declared_known_failure():
    history = workloads.build("long-history", 0)
    flood = workloads.build("flood", 0)
    budget = SimpleNamespace(outcome="BUDGET_EXCEEDED")
    stuck = SimpleNamespace(outcome="STUCK")
    safety = _report(_verdict("no-read-inversion", "FAIL"))
    unfinished = _report(_verdict("termination", "NONTERMINATING"))
    assert run.judge(history, budget, safety)[0] == "unexpected"
    assert run.judge(flood, budget, unfinished)[0] == "known"
    assert run.judge(flood, stuck, unfinished)[0] == "unexpected"
    assert run.judge(flood, budget, safety)[0] == "unexpected"
    assert run.judge(history, budget, unfinished)[0] == "unexpected"


def test_late_catch_up_reply_is_known_only_while_it_explains_the_excess():
    # p2's first read of register 0 ends before p3 answers its CATCH_UP;
    # count_messages charges that reply to p2's next read, r2 (17 > 16).
    from byzreg.cli import run_one
    from byzreg.scenario import matrix_scenario
    matrix = workloads.build("matrix", 0)
    trace, report = run_one(matrix_scenario(4, None), 489173023)
    status, detail = run.judge(matrix, trace, report)
    assert (status, detail) == ("known", "message-cost: FAIL (read r2 cost "
                                "17 sends among correct processes, bound 16)")
    extra = copy.deepcopy(report)
    extra.cost.per_op["r2"].counts["STATE"] += 1
    assert run.judge(matrix, trace, extra)[0] == "unexpected"
    write = copy.deepcopy(report)
    w = next(op for op in write.history.ops if op.kind == "WRITE")
    write.cost.per_op[w.op_id].counts["ECHO"] += 100
    assert run.judge(matrix, trace, write)[0] == "unexpected"


def test_percentile_needs_ten_samples_beyond_the_tail():
    assert run.percentile(list(range(99)), 0.9) is None
    assert run.percentile(list(range(1, 101)), 0.9) == 90
    assert run.percentile([3.0], 0.5) == 3.0


def test_benchmark_json_names_and_limits():
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    assert len(raw) <= 64 * 1024
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= len(SPEC["command"]) <= 32
    assert all(len(arg) <= 200 for arg in SPEC["command"])
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_.\-/]{1,200}", path)
        assert not path.startswith("/") and ".." not in path.split("/")
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower")
        names.append(m["name"])
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.GENERATORS)


@pytest.mark.parametrize("trace, section",
                         [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_match_the_spec(trace, section):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "matrix", "--seed", "0",
                         "--seconds", "0.2", "--trace", str(trace)])
    assert code == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
