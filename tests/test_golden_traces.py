"""Golden trace and report hashes: the simulator's and checker's oracle.

Each case below is a (scenario, seed) pair whose ``trace_hash()`` is pinned
in ``golden_trace_hashes.json``. Any change to scheduling, trigger order,
protocol output or trace encoding shows up here as a hash mismatch.

``golden_report_hashes.json`` pins what the checker concludes from the same
trace: every verdict's property, status and detail in order, each
operation's sends by tag, the unattributed send count and the linearization
labels per register. Event sequence numbers are left out, so a trace-format
change that only renumbers events keeps these hashes.

A deliberate change re-baselines both files in the same change:

    PYTHONPATH=src python tests/test_golden_traces.py --regenerate
"""
import hashlib
import json
import sys
from pathlib import Path

import pytest

from byzreg.checker import CheckReport, run_all_checks
from byzreg.cli import bundled_scenario_names, resolve_scenario
from byzreg.messages import Message
from byzreg.mutations import ALL_MUTATIONS
from byzreg.netsim import EVENT_FIELDS, Simulation
from byzreg.scenario import (AdversarySpec, ScenarioConfig, WorkloadOp,
                             matrix_scenario)

GOLDEN = Path(__file__).with_name("golden_trace_hashes.json")
GOLDEN_REPORTS = Path(__file__).with_name("golden_report_hashes.json")
BUNDLED_SEEDS = range(5)
MATRIX_SIZES = (4, 7)
MATRIX_STRATEGIES = (None, "CRASH_SILENT", "EQUIVOCATE_WRITE", "SEQ_SKIP",
                     "STALE_STATE", "ACK_FORGE", "READY_POISON",
                     "COLLUDE_DELAY")
MATRIX_SEEDS = range(3)
# n=10 poison keeps up to ~300 messages in flight; n=13 poison floods to the
# step budget with ~23k in flight, so it runs unresized to cover that backlog
LARGE_MATRIX_SEEDS = range(2)


def chained_reads(length: int = 20) -> ScenarioConfig:
    """n=7: p0 chains writes, p1..p6 each chain reads of register 0."""
    ops = [WorkloadOp(f"w{k}", 0, "write", value=f"v{k}",
                      **({"at": 0} if k == 1 else {"after": f"w{k - 1}"}))
           for k in range(1, length + 1)]
    for p in range(1, 7):
        ops += [WorkloadOp(f"r{p}.{k}", p, "read", target=0,
                           **({"at": p} if k == 1
                              else {"after": f"r{p}.{k - 1}"}))
                for k in range(1, length + 1)]
    return ScenarioConfig(name="golden-chained-reads", n=7, t=2,
                          scheduler="RANDOM", workload=ops)


def wide_writes() -> ScenarioConfig:
    """n=16: every process writes its own register once, all at time 0."""
    ops = [WorkloadOp(f"w{p}", p, "write", value=f"x{p}", at=0)
           for p in range(16)]
    return ScenarioConfig(name="golden-wide-writes", n=16, t=5,
                          scheduler="RANDOM", workload=ops)


def byzantine_chain() -> ScenarioConfig:
    """n=4 with an equivocating p3 whose entries gate and follow others.

    Covers forward ``after`` references, entries a Byzantine entry makes
    ready in the same sweep and in the next one, a time trigger that finds
    its process busy, and an idle-time jump.
    """
    ops = [
        WorkloadOp("a", 0, "write", value="a", at=0),
        WorkloadOp("b", 1, "read", target=3, after="z"),
        WorkloadOp("c", 3, "write", value="c", after="a"),
        WorkloadOp("z", 3, "write", value="z", at=0),
        WorkloadOp("d", 2, "read", target=0, after="c"),
        WorkloadOp("e", 3, "write", value="e", after="z"),
        WorkloadOp("f", 2, "write", value="f", after="e"),
        WorkloadOp("g", 0, "read", target=3, at=5),
        WorkloadOp("h", 1, "write", value="h", at=2000),
    ]
    return ScenarioConfig(name="golden-byzantine-chain", n=4, t=1,
                          scheduler="RANDOM", workload=ops,
                          adversary=AdversarySpec("EQUIVOCATE_WRITE", (3,)))


def cases() -> dict[str, ScenarioConfig]:
    out = {}
    for name in bundled_scenario_names():
        cfg = resolve_scenario(name)
        for seed in BUNDLED_SEEDS:
            out[f"{name}/{seed}"] = cfg.with_seed(seed)
    for n in MATRIX_SIZES:
        for strategy in MATRIX_STRATEGIES:
            for seed in MATRIX_SEEDS:
                cfg = matrix_scenario(n, strategy, seed)
                out[f"{cfg.name}/{seed}"] = cfg
    for strategy in MATRIX_STRATEGIES:
        for seed in LARGE_MATRIX_SEEDS:
            cfg = matrix_scenario(10, strategy, seed)
            out[f"{cfg.name}/{seed}"] = cfg
    for n in MATRIX_SIZES:
        for strategy in MATRIX_STRATEGIES:
            for m in ALL_MUTATIONS:
                cfg = matrix_scenario(n, strategy, 0, mutations=frozenset({m}))
                out[f"{cfg.name}+{m.lower()}/0"] = cfg
    flood = matrix_scenario(13, "READY_POISON", 0)
    out[f"{flood.name}/0"] = flood
    for cfg in (chained_reads(), wide_writes(), byzantine_chain()):
        out[f"{cfg.name}/0"] = cfg
    return out


def report_hash(report: CheckReport) -> str:
    doc = {
        "verdicts": [[v.prop, v.status, v.detail] for v in report.verdicts],
        "sends": {op_id: cost.counts
                  for op_id, cost in report.cost.per_op.items()},
        "unattributed": report.cost.unattributed,
        "linearizations": {str(target): [item.label for item in items]
                           for target, items in report.linearizations.items()},
    }
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def reference_jsonl(trace) -> str:
    """The trace encoded one json.dumps per record, as Trace.jsonl must.

    A Message payload is encoded as its to_wire() dict.
    """
    records = [trace.meta_record()]
    for e in trace.events:
        record = dict(zip(EVENT_FIELDS, e))
        if isinstance(record["payload"], Message):
            record["payload"] = record["payload"].to_wire()
        records.append(record)
    return "".join(json.dumps(record, separators=(",", ":")) + "\n"
                   for record in records)


def compute() -> tuple[dict[str, str], dict[str, str], dict[str, str]]:
    """Trace hashes, report hashes and reference-encoded trace hashes per
    case, one simulation each."""
    traces, reports, references = {}, {}, {}
    for key, cfg in cases().items():
        trace = Simulation(cfg).run()
        traces[key] = trace.trace_hash()
        reports[key] = report_hash(run_all_checks(trace))
        references[key] = hashlib.sha256(
            reference_jsonl(trace).encode()).hexdigest()
    return traces, reports, references


@pytest.fixture(scope="module")
def computed():
    return compute()


def assert_matches(golden_file: Path, got: dict[str, str]) -> None:
    golden = json.loads(golden_file.read_text())
    assert sorted(got) == sorted(golden), "case list differs from golden file"
    wrong = [key for key in golden if got[key] != golden[key]]
    assert not wrong, f"{len(wrong)} hashes changed: {wrong[:10]}"


def test_trace_hashes_match_golden_file(computed):
    assert_matches(GOLDEN, computed[0])


def test_report_hashes_match_golden_file(computed):
    assert_matches(GOLDEN_REPORTS, computed[1])


def test_jsonl_matches_per_record_json_dumps(computed):
    traces, _, references = computed
    wrong = [key for key in traces if traces[key] != references[key]]
    assert not wrong, f"{len(wrong)} encodings differ: {wrong[:10]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_traces.py "
                 "--regenerate")
    for path, hashes in zip((GOLDEN, GOLDEN_REPORTS), compute()[:2]):
        path.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
