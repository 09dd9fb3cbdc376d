"""End-to-end tests of the command-line front door."""
import json
import re

import pytest

from byzreg.cli import bundled_scenario_names, main, resolve_scenario
from byzreg.errors import ScenarioError
from byzreg.scenario import ScenarioConfig, matrix_scenario


def test_list_shows_bundled_scenarios(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert "abd-style-fault-free" in out
    assert "read-inversion-window" in out


def test_bundled_names_resolve():
    for name in bundled_scenario_names():
        cfg = resolve_scenario(name)
        assert cfg.name == name
        cfg.validate()


def test_run_fault_free_scenario_exits_zero(tmp_path, capsys):
    code = main(["run", "abd-style-fault-free", "--seeds", "0:3",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "3/3 seeds passed" in out
    assert (tmp_path / "abd-style-fault-free-seed0.trace.jsonl").exists()
    report = json.loads(
        (tmp_path / "abd-style-fault-free-seed0.report.json").read_text())
    assert report["outcome"] == "QUIESCENT"
    assert all(v["status"] in ("PASS", "VACUOUS")
               for v in report["verdicts"])


def test_malformed_config_gives_diagnostic(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "t": 1}')
    assert main(["run", str(bad)]) == 2
    assert "missing required field 'n'" in capsys.readouterr().err


def test_invalid_json_names_the_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x",\n  "n": }')
    assert main(["run", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("seeds", ["5:3", "5:5"])
def test_empty_seed_range_is_rejected(capsys, command, seeds):
    assert main([command, "abd-style-fault-free", "--seeds", seeds]) == 2
    assert f"--seeds {seeds} is empty" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["replay", "abd-style-fault-free", "--seeds", "3:5"],
    ["replay", "abd-style-fault-free", "-v"],
    ["sweep", "abd-style-fault-free", "-v"],
], ids=["replay-seeds", "replay-verbose", "sweep-verbose"])
def test_flags_a_command_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[2:])}" in (
        capsys.readouterr().err)


def test_unknown_scenario_lists_bundled(capsys):
    assert main(["run", "no-such-scenario"]) == 2
    assert "bundled" in capsys.readouterr().err


def test_replay_is_reproducible(capsys):
    assert main(["replay", "rb-uniformity-equivocate", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["replay", "rb-uniformity-equivocate", "--seed", "5"]) == 0
    second = capsys.readouterr().out
    hash_lines = [l for l in first.splitlines() if l.startswith("trace_hash=")]
    assert hash_lines
    assert first == second


def test_mutation_flag_turns_run_red(capsys):
    code = main(["run", "read-inversion-window", "--seed", "0",
                 "--mutate", "NO_CATCH_UP"])
    assert code == 1
    assert "no-read-inversion: FAIL" in capsys.readouterr().out


def test_sweep_reports_first_failure_and_replay_command(capsys):
    code = main(["sweep", "read-inversion-window", "--seeds", "0:5",
                 "--mutate", "NO_CATCH_UP"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FIRST FAILURE" in out
    assert "byzreg replay read-inversion-window --seed" in out


def test_sweep_prints_cost_table(capsys):
    # FIFO baseline: every process sees the APP before the echo cascade
    # completes, so the nominal costs are met exactly on every seed
    assert main(["sweep", "cost-fifo-baseline", "--seeds", "0:5"]) == 0
    out = capsys.readouterr().out
    assert "READ sends/op: min=16 median=16 max=16 bound=16" in out
    assert "WRITE sends/op: min=40 median=40 max=40 bound=40" in out


def test_sweep_prints_the_exact_median(tmp_path, capsys):
    # the six writes of seeds 3 and 4 cost 105, 105, 105, 112, 112 and 112
    path = tmp_path / "n7.json"
    path.write_text(json.dumps(matrix_scenario(7, None).to_dict()))
    assert main(["sweep", str(path), "--seeds", "3:5",
                 "--out", str(tmp_path)]) == 0
    assert "WRITE sends/op: min=105 median=108.5 max=112" in (
        capsys.readouterr().out)
    doc = json.loads((tmp_path / "matrix-n7-fault-free-sweep.json").read_text())
    assert doc["costs"]["WRITE"]["median"] == 108.5


def test_sweep_tallies_run_outcomes(tmp_path, capsys):
    # seed 0 ends with messages to the crashed p3 set aside
    assert main(["sweep", "write-termination", "--seeds", "0:5",
                 "--out", str(tmp_path)]) == 0
    assert "  outcomes: QUIESCENT=4, SETTLED=1\n" in capsys.readouterr().out
    doc = json.loads((tmp_path / "write-termination-sweep.json").read_text())
    assert doc["outcomes"] == {"QUIESCENT": 4, "SETTLED": 1}


def test_random_schedules_respect_cost_bounds(capsys):
    assert main(["sweep", "abd-style-fault-free", "--seeds", "0:10"]) == 0
    out = capsys.readouterr().out
    assert "READ sends/op: min=16 median=16 max=16 bound=16" in out
    # a process that delivers before receiving the APP skips its echo, so
    # random schedules may come in under the nominal 2n^2+2n
    write_line = [l for l in out.splitlines() if "WRITE sends/op" in l][0]
    assert "max=40 bound=40" in write_line


def test_allow_t_violation_flag(tmp_path):
    doc = {
        "name": "tight", "n": 3, "t": 1,
        "workload": [
            {"id": "w1", "process": 0, "op": "write", "value": "x", "at": 0}],
    }
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 2  # rejected without the flag
    code = main(["run", str(path), "--allow-t-violation"])
    assert code in (0, 1)  # runs; properties may or may not survive


def test_expect_nonterminating_downgrades_budget_exhaustion(tmp_path, capsys):
    doc = {
        "name": "short-budget", "n": 4, "t": 1, "step_budget": 5,
        "workload": [
            {"id": "w1", "process": 0, "op": "write", "value": "x", "at": 0}],
    }
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 1
    assert main(["run", str(path), "--expect-nonterminating"]) == 0


def small_doc(**fields):
    doc = {
        "name": "small", "n": 4, "t": 1,
        "workload": [
            {"id": "w1", "process": 0, "op": "write", "value": "x", "at": 0},
            {"id": "r1", "process": 1, "op": "read", "target": 0,
             "after": "w1"}],
    }
    doc.update(fields)
    return doc


def with_params(strategy, **params):
    return small_doc(adversary={"name": strategy, "nodes": [3],
                                "params": params})


def run_doc(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return main(["run", str(path)])


def test_misspelled_mutate_flag_is_rejected(capsys):
    code = main(["run", "read-inversion-window", "--mutate", "NO_CATCHUP"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown mutations ['NO_CATCHUP']" in err
    assert "NO_CATCH_UP" in err


@pytest.mark.parametrize("mutations, message", [
    (["BOGUS"], "unknown mutations ['BOGUS']"),
    ("NO_CATCH_UP", "mutations must be a JSON array"),
], ids=["unknown-name", "bare-string"])
def test_scenario_mutations_must_be_known_names(tmp_path, capsys, mutations,
                                                message):
    assert run_doc(tmp_path, small_doc(mutations=mutations)) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("make, message", [
    (lambda path: path.mkdir(), "Is a directory"),
    (lambda path: path.write_bytes(b'{"name": "\xff"}'),
     "not UTF-8 text (invalid start byte at byte 10)"),
], ids=["directory", "not-utf8"])
def test_unreadable_scenario_paths_are_scenario_errors(tmp_path, capsys, make,
                                                       message):
    path = tmp_path / "scenario.json"
    make(path)
    with pytest.raises(ScenarioError, match=re.escape(message)):
        ScenarioConfig.load(path)
    assert main(["run", str(path)]) == 2
    assert f"{path}: {message}" in capsys.readouterr().err


def test_scenario_name_cannot_leave_the_output_directory(tmp_path, capsys):
    path = tmp_path / "evil.json"
    path.write_text(json.dumps(small_doc(name="../escaped")))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "name '../escaped' must be a file name" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def test_known_mutation_in_scenario_is_accepted(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(small_doc(mutations=["NO_CATCH_UP"])))
    assert resolve_scenario(str(path)).mutations == {"NO_CATCH_UP"}


def with_entry_field(i, field, value):
    doc = small_doc()
    doc["workload"][i][field] = value
    return doc


@pytest.mark.parametrize("doc, message", [
    (small_doc(n="four"), "n must be an integer, got 'four'"),
    (with_entry_field(1, "target", "1"),
     "workload entry #1 target must be an integer, got '1'"),
    (with_entry_field(0, "at", "5"),
     "workload entry #0 at must be an integer, got '5'"),
    (small_doc(workload=[small_doc()["workload"][0], 5]),
     "workload entry #1 must be a JSON object, got 5"),
    (small_doc(adversary={"name": "CRASH_SILENT", "nodes": 3}),
     "adversary 'nodes' must be a JSON array, got 3"),
    (small_doc(allow_t_violation="false"),
     "allow_t_violation must be a JSON boolean, got 'false'"),
    (with_entry_field(0, "value", [1, 2]),
     "workload entry #0 value must be a JSON string, number, boolean or "
     "null, got [1, 2]"),
    (small_doc(init_values=["a", "b", "c", "d"]),
     "unknown scenario fields: ['init_values']"),
    (small_doc(name=["a"]), "name must be a JSON string, got ['a']"),
    *[(small_doc(name=name), f"name {name!r} must be a file name")
      for name in ("", ".", "..", "../escaped", "a/b", "a\\b", "a\0b")],
    (with_entry_field(0, "id", 1),
     "workload entry #0 id must be a JSON string, got 1"),
    (with_entry_field(1, "after", 1),
     "workload entry #1 after must be a JSON string, got 1"),
    (with_entry_field(0, "value", float("nan")),
     "workload entry #0 value must be a finite number, got nan"),
    (with_params("STALE_STATE", report="abc"),
     "adversary STALE_STATE param 'report' must be an integer, got 'abc'"),
    (with_params("COLLUDE_DELAY", favored="zz"),
     "adversary COLLUDE_DELAY param 'favored' must be a process in [0, 4), "
     "got 'zz'"),
    (with_params("EQUIVOCATE_WRITE", victim=7),
     "adversary EQUIVOCATE_WRITE param 'victim' must be a process in "
     "[0, 4), got 7"),
    (with_params("EQUIVOCATE_WRITE", selective="yes"),
     "adversary EQUIVOCATE_WRITE param 'selective' must be a JSON boolean, "
     "got 'yes'"),
    (with_params("READY_POISON", orign=1),
     "adversary READY_POISON has no param 'orign' (params: ['origin'])"),
    (with_params("CRASH_SILENT", victim=1),
     "adversary CRASH_SILENT has no param 'victim' (params: none)"),
    (with_params("STALE_STATE", mode="inflate"),
     "adversary STALE_STATE param 'mode' must be one of ['deflate'], "
     "got 'inflate'"),
], ids=["n", "target", "at", "entry", "nodes", "flag", "value", "init-values",
        "name-type", "name-empty", "name-dot", "name-dotdot", "name-parent",
        "name-slash", "name-backslash", "name-null",
        "id", "after", "nan-value", "param-type",
        "param-process-type", "param-process-range", "param-flag",
        "param-key", "param-none-expected", "param-mode"])
def test_malformed_field_types_are_scenario_errors(tmp_path, capsys, doc,
                                                   message):
    with pytest.raises(ScenarioError, match=re.escape(message)):
        ScenarioConfig.from_dict(doc).validate()
    assert run_doc(tmp_path, doc) == 2
    assert message in capsys.readouterr().err
