"""Behavioral checks for each Byzantine strategy under the full checker."""
import pytest

from byzreg.adversary import STRATEGIES, ReadyPoison
from byzreg.checker import run_all_checks
from byzreg.netsim import Simulation
from byzreg.scenario import (AdversarySpec, ScenarioConfig, WorkloadOp,
                             matrix_scenario, standard_workload)

SEEDS = range(8)


def run_checked(cfg, seed):
    trace = Simulation(cfg.with_seed(seed)).run()
    return trace, run_all_checks(trace)


def test_catalog_is_complete():
    assert sorted(STRATEGIES) == [
        "ACK_FORGE", "COLLUDE_DELAY", "CRASH_SILENT", "EQUIVOCATE_WRITE",
        "READY_POISON", "SEQ_SKIP", "STALE_STATE"]


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_safety_holds_under_every_strategy(strategy):
    cfg = matrix_scenario(4, strategy)
    for seed in SEEDS:
        trace, report = run_checked(cfg, seed)
        assert report.ok(), (strategy, seed, report.failures())
        assert trace.quiescent(), (strategy, seed, trace.outcome)


@pytest.mark.parametrize("n,t", [(3, 1), (6, 2)])
def test_at_n_equal_3t_safety_holds_and_only_liveness_is_lost(n, t):
    """The safe side of the t < n/3 bound.

    With n = 3t, the standard workload with the last t processes faulty,
    each strategy at its default params, never FAILs. Fault-free runs stay
    live, COLLUDE_DELAY's honest nodes keep them live too, and every other
    strategy leaves an operation waiting for a quorum that only the faulty
    processes could complete.
    """
    byz = frozenset(range(n - t, n))
    for strategy in (None, *sorted(STRATEGIES)):
        collude = strategy == "COLLUDE_DELAY"
        cfg = ScenarioConfig(
            name=f"n{n}-t{t}-{strategy}", n=n, t=t,
            scheduler="ADVERSARIAL_REORDER" if collude else "RANDOM",
            workload=standard_workload(
                n, byz if strategy else frozenset(),
                byz_writes=strategy in ("EQUIVOCATE_WRITE", "SEQ_SKIP")),
            adversary=strategy and AdversarySpec(strategy,
                                                 tuple(sorted(byz))),
            fairness_bound=200, step_budget=100_000, allow_t_violation=True)
        expected = ("QUIESCENT" if strategy is None
                    else "SETTLED" if collude else "STUCK")
        for seed in range(10):
            trace, report = run_checked(cfg, seed)
            assert not report.failures(), (strategy, seed, report.failures())
            assert trace.outcome == expected, (strategy, seed, trace.outcome)


class TestEquivocate:
    def test_never_split_brain(self):
        cfg = matrix_scenario(4, "EQUIVOCATE_WRITE")
        for seed in range(30):
            trace, report = run_checked(cfg, seed)
            per_instance = {}
            for e in trace.events:
                if e["kind"] == "RDELIVER" and e["node"] not in trace.byzantine:
                    p = e["payload"]
                    per_instance.setdefault((p["origin"], p["sn"]), set()) \
                        .add(p["value"])
            assert all(len(v) == 1 for v in per_instance.values()), seed
            assert report.ok(), (seed, report.failures())


class TestCrashSilent:
    def test_readers_of_crashed_register_get_initial_value(self):
        cfg = ScenarioConfig(
            name="crash-read", n=4, t=1, seed=0,
            adversary=AdversarySpec("CRASH_SILENT", (3,), {}),
            workload=[WorkloadOp("r1", 1, "read", target=3, at=0)])
        cfg.validate()
        trace, report = run_checked(cfg, 0)
        assert report.ok()
        end = [e for e in trace.events if e["kind"] == "OP_END"]
        assert end[0]["payload"]["sn"] == 0
        assert end[0]["payload"]["value"] is None


class TestStaleState:
    @pytest.mark.parametrize("params", [{"report": 10 ** 6},
                                        {"report": 0}])
    def test_reads_terminate_despite_forged_reports(self, params):
        cfg = ScenarioConfig(
            name="stale", n=4, t=1, seed=0,
            adversary=AdversarySpec("STALE_STATE", (3,), params),
            workload=[
                WorkloadOp("w1", 0, "write", value="x", at=0),
                WorkloadOp("r1", 1, "read", target=0, after="w1"),
                WorkloadOp("r2", 2, "read", target=0, after="r1"),
            ])
        cfg.validate()
        for seed in SEEDS:
            trace, report = run_checked(cfg, seed)
            assert trace.quiescent(), (trace.outcome, trace.diagnostics)
            assert report.ok(), report.failures()


class TestReadyPoison:
    def test_poison_is_never_delivered(self):
        cfg = matrix_scenario(4, "READY_POISON")
        for seed in range(30):
            trace, report = run_checked(cfg, seed)
            poisoned = [e for e in trace.events
                        if e["kind"] == "RDELIVER"
                        and e["payload"]["value"] == ReadyPoison.poison_value]
            assert poisoned == [], seed
            assert report.ok(), (seed, report.failures())


    @pytest.mark.parametrize("origin", [-1, 4, 9])
    def test_votes_for_unknown_origins_are_dropped(self, origin):
        cfg = ScenarioConfig(
            name="poison-unknown-origin", n=4, t=1, seed=0,
            adversary=AdversarySpec("READY_POISON", (3,), {"origin": origin}),
            workload=[WorkloadOp("w1", 0, "write", value="x", at=0)])
        cfg.validate()
        for seed in SEEDS:
            trace, report = run_checked(cfg, seed)
            assert trace.quiescent(), (trace.outcome, trace.diagnostics)
            assert report.ok(), report.failures()


class TestSeqSkip:
    def test_skipped_writes_never_apply(self):
        cfg = matrix_scenario(4, "SEQ_SKIP")
        byz = 3
        for seed in SEEDS:
            trace, report = run_checked(cfg, seed)
            assert report.ok(), report.failures()
            applied = [e for e in trace.events
                       if e["kind"] == "RDELIVER"
                       and e["payload"]["origin"] == byz]
            assert applied == []


class TestDeterminism:
    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_strategies_replay_byte_identically(self, strategy):
        cfg = matrix_scenario(4, strategy, seed=5)
        assert (Simulation(cfg).run().trace_hash()
                == Simulation(cfg).run().trace_hash())
