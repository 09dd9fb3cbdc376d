"""Workload trigger order: the indexed triggers against a full rescan.

``ReferenceSimulation`` keeps the original trigger logic: on every step it
rescans the whole workload in sweeps until nothing more fires, and on an
idle network it rescans for the next time trigger. The simulator must
produce byte-identical traces for any acyclic workload.
"""
from hypothesis import example, given, settings, strategies as st

from byzreg.netsim import Simulation
from byzreg.scenario import AdversarySpec, ScenarioConfig, WorkloadOp

N, T, BYZ = 4, 1, 3


class ReferenceSimulation(Simulation):
    """Simulation with the workload rescanned from the top on every step."""

    def _fireable(self, entry: WorkloadOp) -> bool:
        if self._op_state[entry.id] != "waiting":
            return False
        if entry.at is not None and self.time < entry.at:
            return False
        if entry.after is not None and self._op_state[entry.after] != "done":
            return False
        if entry.process not in self.byzantine and entry.process in self._running:
            return False
        return True

    def _fire_workload(self) -> None:
        fired = True
        while fired:
            fired = False
            for entry in self.scenario.workload:
                if not self._fireable(entry):
                    continue
                fired = True
                if entry.process in self.byzantine:
                    # also counts the entry done for the settle trigger
                    self._mark_done(entry)
                    if self.strategy is not None:
                        self._byz_sends(entry.process,
                                        self.strategy.on_workload(
                                            entry.process, entry))
                    continue
                node = self.nodes[entry.process]
                self._op_state[entry.id] = "running"
                self._running[entry.process] = entry
                self._record("OP_START", entry.process, entry.process, None,
                             {"op": entry.op.upper(), "id": entry.id,
                              "target": entry.target if entry.op == "read"
                              else entry.process,
                              "value": entry.value})
                if entry.op == "write":
                    self._process_effects(entry.process,
                                          node.begin_write(entry.value))
                else:
                    self._process_effects(entry.process,
                                          node.begin_read(entry.target))

    def _advance_idle_time(self) -> bool:
        candidates = []
        for entry in self.scenario.workload:
            if self._op_state[entry.id] != "waiting" or entry.at is None:
                continue
            if entry.after is not None and self._op_state[entry.after] != "done":
                continue
            if (entry.process not in self.byzantine
                    and entry.process in self._running):
                continue
            if entry.at > self.time:
                candidates.append(entry.at)
        if not candidates:
            return False
        self.time = min(candidates)
        return True


@st.composite
def workloads(draw):
    """Random acyclic workloads with mixed at/after triggers.

    A random rank orders the entries for the purpose of 'after' only, so
    references may point at entries listed later. The crashed Byzantine
    process gets half of the entries: its entries complete as they
    fire, which is what makes other entries ready in mid-sweep.
    """
    size = draw(st.integers(min_value=1, max_value=9))
    rank = draw(st.permutations(range(size)))
    ops = []
    for i in range(size):
        process = draw(st.sampled_from((0, 1, 2, BYZ, BYZ, BYZ)))
        earlier = [j for j in range(size) if rank[j] < rank[i]]
        after = draw(st.sampled_from([None, *earlier, *earlier]))
        at = draw(st.one_of(st.none(), st.just(0),
                            st.integers(min_value=0, max_value=60),
                            st.integers(min_value=200, max_value=400)))
        if at is None and after is None:
            at = 0
        if draw(st.booleans()):
            op = dict(op="write", value=f"v{i}")
        else:
            op = dict(op="read",
                      target=draw(st.integers(min_value=0, max_value=N - 1)))
        ops.append(WorkloadOp(f"e{i}", process, at=at,
                              after=None if after is None else f"e{after}",
                              **op))
    return ops


# Two Byzantine entries ready in one sweep, each with a dependent listed
# before it; the later one's dependent (e0) is listed before the earlier
# one's (e1), so both are passed and must still start as e0, e1.
PASSED_OUT_OF_ORDER = [
    WorkloadOp("e0", 0, op="read", target=1, after="e3"),
    WorkloadOp("e1", 1, op="read", target=2, after="e2"),
    WorkloadOp("e2", BYZ, op="write", value="a", at=0),
    WorkloadOp("e3", BYZ, op="write", value="b", at=0),
]
# The same, with both dependents on one process: the wrong order runs a
# different op first.
PASSED_OUT_OF_ORDER_ONE_PROCESS = [
    WorkloadOp("e0", 0, op="read", target=1, after="e3"),
    WorkloadOp("e1", 0, op="write", value="w", after="e2"),
    WorkloadOp("e2", BYZ, op="write", value="a", at=0),
    WorkloadOp("e3", BYZ, op="write", value="b", at=0),
]


def config(workload, seed):
    cfg = ScenarioConfig(name="order", n=N, t=T, seed=seed, workload=workload,
                         adversary=AdversarySpec("CRASH_SILENT", (BYZ,)))
    cfg.validate()
    return cfg


@settings(max_examples=300, deadline=None)
@given(workloads(), st.integers(min_value=0, max_value=2 ** 16))
@example(PASSED_OUT_OF_ORDER, 0)
@example(PASSED_OUT_OF_ORDER_ONE_PROCESS, 0)
def test_trigger_order_matches_reference_rescan(workload, seed):
    cfg = config(workload, seed)
    ref = ReferenceSimulation(cfg).run()
    got = Simulation(cfg).run()
    assert got.jsonl() == ref.jsonl()


def test_entries_passed_in_one_sweep_start_in_workload_order():
    for workload in (PASSED_OUT_OF_ORDER, PASSED_OUT_OF_ORDER_ONE_PROCESS):
        trace = Simulation(config(workload, 0)).run()
        starts = [e["payload"]["id"] for e in trace.events
                  if e["kind"] == "OP_START"]
        assert starts == ["e0", "e1"]
