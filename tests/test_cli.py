"""End-to-end tests of the command-line front door."""
import contextlib
import hashlib
import io
import json
import re

import pytest

from byzreg.cli import bundled_scenario_names, main, resolve_scenario
from byzreg.errors import ScenarioError
from byzreg.netsim import Trace
from byzreg.scenario import (AdversarySpec, ScenarioConfig, matrix_scenario,
                             standard_workload)


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


@pytest.mark.parametrize("seeds", ["3", "a:b"])
def test_malformed_seed_range_is_rejected(capsys, seeds):
    assert main(["run", "abd-style-fault-free", "--seeds", seeds]) == 2
    assert f"--seeds expects A:B, got {seeds!r}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["replay", "abd-style-fault-free", "--seeds", "3:5"],
    ["replay", "abd-style-fault-free", "-v"],
    ["sweep", "abd-style-fault-free", "-v"],
], ids=["replay-seeds", "replay-verbose", "sweep-verbose"])
def test_flags_a_command_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # the usage shown is the subcommand's, which lists the flags it takes
    assert err.startswith(f"usage: byzreg {argv[0]} ")
    assert (f"byzreg {argv[0]}: error: unrecognized arguments: "
            f"{' '.join(argv[2:])}") in err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_seed_and_seed_range_are_exclusive(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "abd-style-fault-free", "--seed", "1",
              "--seeds", "0:2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: byzreg {command} ")
    assert "argument --seeds: not allowed with argument --seed" in err


class ClosedStdout(io.StringIO):
    """A stdout whose reader has gone, as at the end of `| head -1`.

    An unbuffered stdout fails at the first write, a buffered one only
    when it is flushed.
    """

    def __init__(self, fails_at):
        super().__init__()
        self.fails_at = fails_at

    def write(self, text):
        if self.fails_at == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        if self.fails_at == "flush":
            raise BrokenPipeError(32, "Broken pipe")


# argparse itself ignores a failed write of --help, so that case has no test
@pytest.mark.parametrize("argv,fails_at", [
    (["list"], "write"), (["list"], "flush"), (["--help"], "flush")])
def test_closed_stdout_ends_the_command_quietly(capsys, argv, fails_at):
    with contextlib.redirect_stdout(ClosedStdout(fails_at)):
        assert main(argv) == 1
    assert capsys.readouterr() == ("", "")


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


def test_replay_writes_artifacts(tmp_path, capsys):
    assert main(["replay", "abd-style-fault-free", "--seed", "2",
                 "--out", str(tmp_path)]) == 0
    trace_hash = capsys.readouterr().out.split("trace_hash=")[1].split()[0]
    report = json.loads(
        (tmp_path / "abd-style-fault-free-seed2.report.json").read_text())
    assert report["trace_hash"] == trace_hash
    assert (tmp_path / "abd-style-fault-free-seed2.trace.jsonl").exists()


@pytest.mark.parametrize("argv, encodes", [
    (["replay", "abd-style-fault-free", "--seed", "0"], 1),
    (["run", "abd-style-fault-free", "--seeds", "0:2", "-v"], 2),
    (["sweep", "read-inversion-window", "--seeds", "0:5",
      "--mutate", "NO_CATCH_UP"], 1),
], ids=["replay", "run-verbose", "sweep-first-failure"])
def test_each_trace_is_encoded_once(tmp_path, capsys, monkeypatch, argv,
                                    encodes):
    calls = []
    jsonl = Trace.jsonl
    monkeypatch.setattr(Trace, "jsonl",
                        lambda trace: calls.append(1) or jsonl(trace))
    main([*argv, "--out", str(tmp_path)])
    assert len(calls) == encodes
    printed = re.findall(r"^trace_hash=(\w+)$", capsys.readouterr().out,
                         re.MULTILINE)
    # each written trace hashes to its report's trace_hash, and to the
    # printed one where the command prints it
    written = []
    for path in sorted(tmp_path.glob("*.trace.jsonl")):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        report = path.with_name(path.name.replace(".trace.jsonl",
                                                  ".report.json"))
        assert json.loads(report.read_text())["trace_hash"] == digest
        written.append(digest)
    assert len(written) == encodes
    assert printed == ([] if argv[0] == "sweep" else written)


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
    # the printed command keeps the --mutate flags, so it fails the same way
    command = out.split("replay with:\n")[1].split()
    assert command[-2:] == ["--mutate", "NO_CATCH_UP"]
    assert main(command[1:]) == 1
    assert "no-read-inversion: FAIL" in capsys.readouterr().out


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


def test_sweep_costs_count_only_completed_operations(tmp_path, capsys):
    # n=3 cannot tolerate t=1: with p2 silent, w1 never gathers its acks, so
    # every run is stuck and no operation has a cost to report
    cfg = ScenarioConfig(name="n3-crash", n=3, t=1,
                         workload=standard_workload(3, frozenset({2}), False),
                         adversary=AdversarySpec("CRASH_SILENT", (2,)),
                         allow_t_violation=True)
    path = tmp_path / "n3.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert main(["sweep", str(path), "--seeds", "0:3",
                 "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "outcomes: STUCK=3" in out
    assert "message-cost: VACUOUS=3" in out
    assert "sends/op" not in out
    doc = json.loads((tmp_path / "n3-crash-sweep.json").read_text())
    assert doc["costs"] == {}


def test_random_schedules_respect_cost_bounds(capsys):
    assert main(["sweep", "abd-style-fault-free", "--seeds", "0:10"]) == 0
    out = capsys.readouterr().out
    assert "READ sends/op: min=16 median=16 max=16 bound=16" in out
    # a process that delivers before receiving the APP skips its echo, so
    # random schedules may come in under the nominal 2n^2+2n
    write_line = [l for l in out.splitlines() if "WRITE sends/op" in l][0]
    assert "max=40 bound=40" in write_line


def test_t_violation_is_a_document_field(tmp_path, capsys):
    doc = {
        "name": "tight", "n": 3, "t": 1,
        "workload": [
            {"id": "w1", "process": 0, "op": "write", "value": "x", "at": 0}],
        "adversary": {"name": "CRASH_SILENT", "nodes": [2]},
    }
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 2
    assert "n > 3t required" in capsys.readouterr().err
    path.write_text(json.dumps({**doc, "allow_t_violation": True}))
    # with p2 silent the write never completes: the run ends STUCK, and a
    # run that does not finish fails
    assert main(["run", str(path)]) == 1
    out = capsys.readouterr().out
    assert "NONTERMINATING" in out
    assert ": FAIL" not in out
    path.write_text(json.dumps({**doc, "allow_t_violation": True,
                                "expect_nonterminating": True}))
    assert main(["run", str(path)]) == 2
    assert ("unknown scenario fields: ['expect_nonterminating']"
            in capsys.readouterr().err)


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


def assert_scenario_error(tmp_path, capsys, doc, message):
    """doc fails validation with message, and `byzreg run` exits 2 on it."""
    with pytest.raises(ScenarioError, match=re.escape(message)):
        ScenarioConfig.from_dict(doc).validate()
    assert run_doc(tmp_path, doc) == 2
    assert message in capsys.readouterr().err


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
    (with_params("EQUIVOCATE_WRITE", selective=True),
     "adversary EQUIVOCATE_WRITE has no param 'selective' "
     "(params: ['victim'])"),
    (with_params("READY_POISON", orign=1),
     "adversary READY_POISON has no param 'orign' (params: ['origin'])"),
    (with_params("CRASH_SILENT", victim=1),
     "adversary CRASH_SILENT has no param 'victim' (params: none)"),
    (with_params("STALE_STATE", mode="deflate"),
     "adversary STALE_STATE has no param 'mode' (params: ['report'])"),
    (with_entry_field(0, "op", 1),
     "workload entry #0 op must be a JSON string, got 1"),
    (small_doc(scheduler=None), "scheduler must be a JSON string, got None"),
    (small_doc(adversary={"name": 7, "nodes": [3]}),
     "adversary 'name' must be a JSON string, got 7"),
    (small_doc(workload=[{"id": "w1", "process": 0, "op": "write",
                          "vlaue": "x", "at": 0}]),
     "unknown workload entry #0 fields: ['vlaue']"),
    (small_doc(workload=[small_doc()["workload"][0],
                         {"id": "r1", "process": 1, "op": "read",
                          "target": 0, "at": 0, "afer": "w1"}]),
     "unknown workload entry #1 fields: ['afer']"),
    (small_doc(adversary={"name": "COLLUDE_DELAY", "nodes": [3],
                          "parms": {"victim": 1}}),
     "unknown adversary fields: ['parms']"),
], ids=["n", "target", "at", "entry", "nodes", "flag", "value", "init-values",
        "name-type", "name-empty", "name-dot", "name-dotdot", "name-parent",
        "name-slash", "name-backslash", "name-null",
        "id", "after", "nan-value", "param-type",
        "param-process-type", "param-process-range", "param-flag",
        "param-key", "param-none-expected", "param-mode", "op-type",
        "scheduler-type", "adversary-name-type", "entry-key",
        "entry-after-key", "adversary-key"])
def test_malformed_field_types_are_scenario_errors(tmp_path, capsys, doc,
                                                   message):
    assert_scenario_error(tmp_path, capsys, doc, message)


def without_entry_field(i, field):
    doc = small_doc()
    del doc["workload"][i][field]
    return doc


def with_adversary(*nodes, **fields):
    return small_doc(adversary={"name": "CRASH_SILENT", "nodes": list(nodes),
                                **fields})


@pytest.mark.parametrize("doc, message", [
    (small_doc(n=0), "n must be positive"),
    (small_doc(t=-1), "t must be non-negative"),
    *[(small_doc(n=3, t=t, allow_t_violation=True,
                 adversary={"name": "READY_POISON", "nodes": [2]}),
       f"t must be less than n (got n=3, t={t})") for t in (4, 3)],
    (small_doc(scheduler="LIFO"), "unknown scheduler 'LIFO'"),
    (small_doc(fairness_bound=0), "fairness_bound must be at least 1"),
    (small_doc(step_budget=0), "step_budget must be at least 1"),
    (with_adversary(), "adversary requires a non-empty node list"),
    (with_adversary(4), "adversary nodes out of range"),
    (with_adversary(2, 3), "adversary controls 2 nodes but t=1"),
    (small_doc(workload=small_doc()["workload"] * 2),
     "duplicate workload id 'w1'"),
    (with_entry_field(0, "process", 4), "workload w1: process out of range"),
    (with_entry_field(0, "op", "cas"),
     "workload w1: op must be 'write' or 'read'"),
    (with_entry_field(1, "target", 4),
     "workload r1: read needs a target in [0, n)"),
    (without_entry_field(1, "after"),
     "workload r1: needs an 'at' time or an 'after' ref"),
    (with_entry_field(0, "at", -1), "workload w1: 'at' must be >= 0"),
    ([small_doc()], "scenario must be a JSON object"),
    (without_entry_field(0, "op"),
     "workload entry #0 is missing required field 'op'"),
    (small_doc(adversary={"nodes": [3]}),
     "adversary is missing required field 'name'"),
], ids=["n", "t", "t-above-n", "t-equals-n", "scheduler", "fairness-bound",
        "step-budget", "no-adversary-nodes", "adversary-node-range",
        "adversary-over-t", "duplicate-id", "process-range", "op",
        "target-range", "no-trigger", "negative-at", "document",
        "entry-missing-op", "adversary-missing-name"])
def test_out_of_range_scenario_values_are_scenario_errors(tmp_path, capsys,
                                                          doc, message):
    assert_scenario_error(tmp_path, capsys, doc, message)
