"""Acceptance suite: one test per release criterion, one printed line each.

The heavy artillery is the evaluation matrix: n in {4, 7, 10} with the
largest tolerated t, every adversary strategy plus the fault-free case,
200 seeds per cell, full checker on every run. It is computed once and
shared by the criteria that quantify over it.

Run with ``pytest tests/test_acceptance.py -s`` to see the criterion lines.
"""
import random

import pytest

from byzreg.adversary import STRATEGIES
from byzreg.checker import (FAIL, PASS, VACUOUS, brute_force_linearizable,
                            count_messages, derive_histories,
                            min_quorum_intersection,
                            min_quorum_intersection_enumerated,
                            run_all_checks, validate_linearization)
from byzreg.cli import bundled_scenario_names, resolve_scenario
from byzreg.mutations import (ALL_MUTATIONS, ECHO_THRESHOLD_NONSTRICT,
                              NO_CATCH_UP, NO_FRESHNESS,
                              READ_QUORUM_MINUS_ONE, READY_DELIVER_AT_2T)
from byzreg.netsim import Simulation
from byzreg.scenario import (ScenarioConfig, WorkloadOp, matrix_scenario,
                             max_tolerated)

SIZES = (4, 7, 10)
SEEDS_PER_CELL = 200
MUTATION_SEED_BUDGET = 500

CONSISTENCY_PROPS = ("read-followed-by-write", "write-followed-by-read",
                     "no-read-inversion")


def criterion(number: int, text: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{extra}]" if extra else ""
    print(f"criterion {number}: {text}: {status}{suffix}")
    assert ok, f"criterion {number} failed: {text}{suffix}"


class RunRecord:
    __slots__ = ("n", "strategy", "seed", "outcome", "quiescent", "statuses",
                 "ok", "byz_origin_delivered")

    def __init__(self, n, strategy, seed, trace, report):
        self.n = n
        self.strategy = strategy
        self.seed = seed
        self.outcome = trace.outcome
        self.quiescent = trace.quiescent()
        self.statuses = {v.prop: v.status for v in report.verdicts}
        self.ok = report.ok()
        byz = set(trace.byzantine)
        self.byz_origin_delivered = any(
            e["kind"] == "RDELIVER" and e["payload"]["origin"] in byz
            for e in trace.events)


@pytest.fixture(scope="module")
def matrix():
    records = []
    cells = [(n, strategy) for n in SIZES
             for strategy in [None, *sorted(STRATEGIES)]]
    for n, strategy in cells:
        cfg = matrix_scenario(n, strategy)
        for seed in range(SEEDS_PER_CELL):
            trace = Simulation(cfg.with_seed(seed)).run()
            report = run_all_checks(trace)
            records.append(RunRecord(n, strategy, seed, trace, report))
    return records


def test_criterion_1_safety_suite(matrix):
    bad = []
    for rec in matrix:
        wanted = {"per-writer-agreement": (PASS,)}
        for prop in CONSISTENCY_PROPS:
            wanted[prop] = (PASS, VACUOUS)
        for prop, allowed in wanted.items():
            if rec.statuses.get(prop) not in allowed:
                bad.append((rec.n, rec.strategy, rec.seed, prop,
                            rec.statuses.get(prop)))
        if not rec.ok:
            bad.append((rec.n, rec.strategy, rec.seed, "overall", "FAIL"))
    # the chained workload makes every consistency property bite somewhere
    for prop in CONSISTENCY_PROPS:
        exercised = sum(1 for r in matrix if r.statuses.get(prop) == PASS)
        if exercised == 0:
            bad.append(("-", "-", "-", prop, "never exercised"))
    criterion(1, f"safety over {len(matrix)} runs "
                 f"({len(SIZES)} sizes x {1 + len(STRATEGIES)} behaviors x "
                 f"{SEEDS_PER_CELL} seeds)",
              not bad, f"violations: {bad[:3]}" if bad else "")


def test_criterion_2_liveness_suite(matrix):
    non_quiescent = [(r.n, r.strategy, r.seed, r.outcome)
                     for r in matrix if not r.quiescent]
    stuck = [(r.n, r.strategy, r.seed) for r in matrix
             if r.statuses.get("termination") != PASS]
    criterion(2, "liveness: every run quiesces or settles and every "
                 "operation returns",
              not non_quiescent and not stuck,
              f"bad: {(non_quiescent + stuck)[:3]}"
              if non_quiescent or stuck else "")


def test_criterion_3_rb_suite(matrix):
    rb_cells = [r for r in matrix
                if r.strategy in ("EQUIVOCATE_WRITE", "READY_POISON")]
    bad = [(r.n, r.strategy, r.seed, prop, r.statuses.get(prop))
           for r in rb_cells for prop in ("rb-integrity", "rb-uniformity")
           if r.statuses.get(prop) not in (PASS, VACUOUS)]
    rates = {}
    for n in SIZES:
        cell = [r for r in rb_cells
                if r.strategy == "EQUIVOCATE_WRITE" and r.n == n]
        rates[n] = sum(1 for r in cell if r.byz_origin_delivered) / len(cell)
    criterion(3, "broadcast integrity/uniformity under equivocation and poison",
              not bad and all(rate >= 0.10 for rate in rates.values()),
              "uniformity exercised on "
              + ", ".join(f"{rates[n]:.0%} (n={n})" for n in SIZES)
              + " of equivocation seeds")


def fifo_cost_scenario(n: int) -> ScenarioConfig:
    cfg = ScenarioConfig(
        name=f"cost-n{n}", n=n, t=max_tolerated(n), seed=0, scheduler="FIFO",
        workload=[
            WorkloadOp("w1", 0, "write", value="a", at=0),
            WorkloadOp("r1", 1, "read", target=0, after="w1"),
        ])
    cfg.validate()
    return cfg


@pytest.fixture(scope="module")
def fifo_costs():
    out = {}
    for n in SIZES:
        trace = Simulation(fifo_cost_scenario(n)).run()
        report = count_messages(derive_histories(trace), trace)
        assert trace.outcome == "QUIESCENT"
        out[n] = report.per_op
    return out


def test_criterion_4_exact_read_cost(fifo_costs):
    bad = []
    for n in SIZES:
        counts = fifo_costs[n]["r1"].counts
        expected = {"READ": n, "STATE": n, "CATCH_UP": n, "CATCH_UP_DONE": n}
        if counts != expected:
            bad.append((n, counts))
    n4_total = fifo_costs[4]["r1"].total
    criterion(4, "read costs exactly 4n messages (16 at n=4)",
              not bad and n4_total == 16,
              f"n=4 read total {n4_total}")


def test_criterion_5_write_cost(fifo_costs):
    bad = []
    totals = {}
    for n in SIZES:
        counts = fifo_costs[n]["w1"].counts
        expected = {"APP": n, "ECHO": n * n, "READY": n * n, "WRITE_DONE": n}
        totals[n] = sum(counts.values())
        if counts != expected or totals[n] != 2 * n * n + 2 * n:
            bad.append((n, counts))
    # n-values are equally spaced, so a quadratic has a constant, positive
    # second difference: f(10) - 2 f(7) + f(4) = 4 * 9 = 36 here
    second_diff = totals[10] - 2 * totals[7] + totals[4]
    criterion(5, "write costs exactly 2n^2+2n messages, growing quadratically",
              not bad and second_diff == 36,
              f"totals {totals}")


def test_criterion_6_quorum_intersection():
    pairs = [(n, t) for n in range(2, 51) for t in range(n) if 3 * t < n]
    ok = all(min_quorum_intersection(n, t) >= t + 1 for n, t in pairs)
    # independent oracle: exhaustive subset enumeration where feasible
    small = [(n, t) for n, t in pairs if n <= 9]
    oracle_ok = all(min_quorum_intersection(n, t)
                    == min_quorum_intersection_enumerated(n, t)
                    for n, t in small)
    criterion(6, f"any two (n-t)-quorums share >= t+1 processes "
                 f"for all {len(pairs)} pairs with 3t < n <= 50",
              ok and oracle_ok,
              f"enumeration cross-checked on {len(small)} small pairs")


MUTATION_SCENARIOS = ("read-inversion-window", "mut-equivocate-even",
                      "mut-equivocate-selective")


def find_kill(mutation: str):
    for name in MUTATION_SCENARIOS:
        cfg = resolve_scenario(name)
        cfg.mutations = frozenset({mutation})
        for seed in range(MUTATION_SEED_BUDGET):
            report = run_all_checks(Simulation(cfg.with_seed(seed)).run())
            fails = report.failures()
            if fails:
                return name, seed, fails
    return None


def test_criterion_7_mutation_kills():
    assert set(ALL_MUTATIONS) == {
        ECHO_THRESHOLD_NONSTRICT, READY_DELIVER_AT_2T, READ_QUORUM_MINUS_ONE,
        NO_CATCH_UP, NO_FRESHNESS}
    kills = {}
    for mutation in ALL_MUTATIONS:
        kills[mutation] = find_kill(mutation)
    missing = [m for m, k in kills.items() if k is None]
    catch_up_kill = kills.get(NO_CATCH_UP)
    inversion_shown = (
        catch_up_kill is not None
        and any(v.prop == "no-read-inversion" for v in catch_up_kill[2])
        and resolve_scenario(catch_up_kill[0]).scheduler
        == "ADVERSARIAL_REORDER")
    summary = {m: (k[0], k[1], k[2][0].prop) for m, k in kills.items() if k}
    criterion(7, f"all {len(ALL_MUTATIONS)} threshold mutations are killed "
                 f"within {MUTATION_SEED_BUDGET} seeds",
              not missing and inversion_shown,
              f"kills: {summary}")


def test_criterion_8_determinism():
    rng = random.Random(20260809)
    names = bundled_scenario_names()
    mismatches = []
    for _ in range(100):
        name = rng.choice(names)
        seed = rng.randrange(10 ** 6)
        cfg = resolve_scenario(name)
        first = Simulation(cfg.with_seed(seed)).run()
        second = Simulation(cfg.with_seed(seed)).run()
        if first.trace_hash() != second.trace_hash():
            mismatches.append((name, seed))
        if first.jsonl() != second.jsonl():
            mismatches.append((name, seed, "bytes"))
    criterion(8, "100 random (scenario, seed) pairs replay byte-identically",
              not mismatches, f"mismatches: {mismatches[:3]}")


def test_criterion_9_linearization_witness(matrix):
    # the checker attempts a witness whenever nothing else failed, and the
    # attempt must then succeed; runs without the verdict had other
    # failures and are criterion 1's business
    missing = [(r.n, r.strategy, r.seed) for r in matrix
               if "linearization" in r.statuses
               and r.statuses["linearization"] != PASS]
    attempted = sum(1 for r in matrix if "linearization" in r.statuses)
    assert attempted == len(matrix) - sum(1 for r in matrix if not r.ok)

    # brute-force cross-check against all interleavings on small traces
    cfg = ScenarioConfig(
        name="tiny", n=4, t=1, seed=0,
        workload=[
            WorkloadOp("w1", 0, "write", value="a", at=0),
            WorkloadOp("r1", 1, "read", target=0, after="w1"),
            WorkloadOp("w2", 0, "write", value="b", after="w1"),
            WorkloadOp("r2", 2, "read", target=0, after="r1"),
            WorkloadOp("r3", 3, "read", target=0, at=2),
        ])
    cfg.validate()
    brute_checked = 0
    disagreements = []
    for seed in range(20):
        report = run_all_checks(Simulation(cfg.with_seed(seed)).run())
        assert report.ok(), report.failures()
        for target, sequence in report.linearizations.items():
            ok, reason = validate_linearization(sequence)
            if not ok or not brute_force_linearizable(sequence):
                disagreements.append((seed, target, reason))
            brute_checked += 1
    criterion(9, "linearization witness validated; brute force agrees on "
                 "small traces",
              not missing and not disagreements and brute_checked > 0,
              f"{brute_checked} small traces brute-force checked")
