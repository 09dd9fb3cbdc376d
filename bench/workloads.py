"""Scenario generators for the benchmark workloads.

A workload turns the benchmark seed into a fixed list of scenarios (its
cells) and an endless stream of simulation seeds. One *pass* runs every
cell once, each with a fresh seed; the benchmark runs whole passes, so the
mix of cells is the same however long it measures. byzreg only ever sees
the generated ``ScenarioConfig`` objects.

Why each workload exists (the layer it stresses, and what it bypasses) is
recorded in ``bench/NOTES.md`` and in the ``why`` lines of BENCHMARK.json.
"""
from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

MATRIX_SIZES = (4, 7, 10, 13)
# Measured in `flood` instead: it floods for ~2 s per run and would swamp
# the other 31 cells (see KNOWN_FAILURES["flood"]).
MATRIX_EXCLUDED = {(13, "READY_POISON")}
FAIRNESS_BOUND = 200  # the bound matrix_scenario() uses

LONG_HISTORY_LENGTH = 100  # writes by p0, and reads by each of p1..p6


def late_catch_up_replies_explain(trace, report) -> bool:
    """Whether late catch-up replies explain every op over its cost bound.

    ``count_messages`` charges a CATCH_UP_DONE to the read of that register
    the reader has open when the reply is sent. A reply to a CATCH_UP the
    reader sent during an earlier read, sent after that read ended, is
    charged to the next read. Per (peer, sn), the replies charged to a read
    beyond the requests the read itself sent are such late replies, up to
    the number of earlier requests still unanswered when it started. True
    when each op over its bound is a read within ``4n`` without them.
    """
    n = trace.n
    correct = set(trace.correct_nodes())
    ops = report.history.ops
    over = [op for op in ops if op.completed()
            and report.cost.per_op[op.op_id].total
            > (4 * n if op.kind == "READ" else 2 * n * n + 2 * n)]
    if not over or any(op.kind != "READ" for op in over):
        return False
    starts: dict[tuple[int, int], list[int]] = {}  # (reader, target) -> seqs
    for op in ops:
        if op.kind == "READ":
            starts.setdefault((op.invoker, op.target), []).append(op.start_seq)
    for seqs in starts.values():
        seqs.sort()
    # (reader, target, index of the read open at send time) -> (peer, sn)
    asked: dict[tuple, Counter] = defaultdict(Counter)
    replied: dict[tuple, Counter] = defaultdict(Counter)
    for e in trace.events:
        if e["kind"] != "SEND":
            continue
        p = e["payload"]
        if p["tag"] == "CATCH_UP":
            reader, peer, tally = e["sender"], e["receiver"], asked
        elif p["tag"] == "CATCH_UP_DONE" and e["sender"] in correct:
            reader, peer, tally = e["receiver"], e["sender"], replied
        else:
            continue
        seqs = starts.get((reader, p["target"]), [])
        read = (reader, p["target"], bisect_right(seqs, e["seq"]) - 1)
        tally[read][(peer, p["sn"])] += 1
    for op in over:
        reader, target = op.invoker, op.target
        i = starts[(reader, target)].index(op.start_seq)
        late = 0
        for key, count in replied[(reader, target, i)].items():
            extra = count - asked[(reader, target, i)][key]
            if extra > 0:
                unanswered = sum(asked[(reader, target, j)][key]
                                 - replied[(reader, target, j)][key]
                                 for j in range(-1, i))
                late += min(max(0, unanswered), extra)
        if report.cost.per_op[op.op_id].total - late > 4 * n:
            return False
    return True


@dataclass(frozen=True)
class KnownFailure:
    """A defect present at the seed commit that the benchmark keeps visible.

    A run that fails exactly this way is counted and listed with its
    replay command, but is not an unexpected output. Fixing the defect
    belongs to the program, not to the benchmark.
    """

    note: str
    props: frozenset[str] = frozenset()  # verdicts allowed to FAIL
    budget_stop: bool = False  # may end BUDGET_EXCEEDED
    # When set, the props may FAIL only on runs where this holds.
    explains: Callable[[object, object], bool] | None = None


# Shows on every run of `long-history` and, rarely, on `matrix` cells with
# repeated reads of one register (e.g. matrix-n4-fault-free, seed 489173023).
LATE_CATCH_UP = KnownFailure(
    "count_messages attributes a late CATCH_UP_DONE to the reader's next "
    "read, which then exceeds the 4n bound",
    props=frozenset({"message-cost"}),
    explains=late_catch_up_replies_explain)

KNOWN_FAILURES = {
    "flood": KnownFailure(
        "READY_POISON at n=13 is supercritical (t^2/n = 1.23): every run ends "
        "BUDGET_EXCEEDED, and on some seeds a correct read is still waiting "
        "for catch-up acks when the budget runs out (ROADMAP item 3)",
        budget_stop=True),
}


@dataclass
class Workload:
    name: str
    cells: list  # list[ScenarioConfig], each validated
    rng: random.Random
    exact_costs: bool = False  # fault-free: every op costs exactly its bound

    @property
    def known(self) -> tuple[KnownFailure, ...]:
        extra = KNOWN_FAILURES.get(self.name)
        return (LATE_CATCH_UP,) if extra is None else (LATE_CATCH_UP, extra)

    def next_pass(self) -> list[tuple[object, int]]:
        return [(cfg, self.rng.getrandbits(31)) for cfg in self.cells]


def _matrix(rng: random.Random) -> list:
    from byzreg.adversary import STRATEGIES
    from byzreg.scenario import matrix_scenario
    return [matrix_scenario(n, strategy)
            for n in MATRIX_SIZES
            for strategy in (None, *STRATEGIES)
            if (n, strategy) not in MATRIX_EXCLUDED]


def _long_history(rng: random.Random) -> list:
    from byzreg.scenario import ScenarioConfig, WorkloadOp
    ops = []
    for k in range(1, LONG_HISTORY_LENGTH + 1):
        value = f"v{k}-{rng.getrandbits(32):08x}"
        if k == 1:
            ops.append(WorkloadOp("w1", 0, "write", value=value, at=0))
        else:
            ops.append(WorkloadOp(f"w{k}", 0, "write", value=value,
                                  after=f"w{k - 1}"))
    for p in range(1, 7):
        ops.append(WorkloadOp(f"r{p}.1", p, "read", target=0, at=0))
        ops.extend(WorkloadOp(f"r{p}.{k}", p, "read", target=0,
                              after=f"r{p}.{k - 1}")
                   for k in range(2, LONG_HISTORY_LENGTH + 1))
    return [ScenarioConfig(name="bench-long-history", n=7, t=2,
                           scheduler="RANDOM", workload=ops,
                           fairness_bound=FAIRNESS_BOUND)]


def _wide_writes(rng: random.Random) -> list:
    from byzreg.scenario import ScenarioConfig, WorkloadOp
    n = 16
    ops = []
    for p in range(n):
        tag = f"{rng.getrandbits(32):08x}"
        ops.append(WorkloadOp(f"w{p}.1", p, "write", value=f"a{p}-{tag}", at=0))
        ops.append(WorkloadOp(f"w{p}.2", p, "write", value=f"b{p}-{tag}",
                              after=f"w{p}.1"))
        ops.append(WorkloadOp(f"r{p}", p, "read", target=(p + 1) % n,
                              after=f"w{p}.2"))
    return [ScenarioConfig(name="bench-wide-writes", n=n, t=5,
                           scheduler="RANDOM", workload=ops,
                           fairness_bound=FAIRNESS_BOUND)]


def _flood(rng: random.Random) -> list:
    from byzreg.scenario import matrix_scenario
    return [matrix_scenario(13, "READY_POISON")]


GENERATORS = {
    "matrix": _matrix,
    "long-history": _long_history,
    "wide-writes": _wide_writes,
    "flood": _flood,
}


def build(name: str, seed: int) -> Workload:
    """Generate and validate a workload's scenarios from the benchmark seed."""
    rng = random.Random(f"byzreg-bench:{name}:{seed}")
    cells = GENERATORS[name](rng)
    for cfg in cells:
        cfg.validate()
    return Workload(name, cells, rng, exact_costs=name == "wide-writes")
