"""Simulator behavior: determinism, fairness, lifecycle, channel semantics."""
import collections
import dataclasses
import gc
import json

import pytest

from byzreg.adversary import STRATEGIES, AckForge, ReadyPoison
from byzreg.checker import run_all_checks
from byzreg.cli import bundled_scenario_names, resolve_scenario, run_one
from byzreg.errors import ScenarioError, SimulationClosedError, TraceError
from byzreg.messages import Echo, Message, Ready, WriteDone
from byzreg.netsim import EVENT_FIELDS, Event, Simulation, Trace
from byzreg.rbcast import Broadcast, Send
from byzreg.scenario import (AdversarySpec, ScenarioConfig, WorkloadOp,
                             matrix_scenario)
from helpers import enqueue
from test_golden_traces import cases as golden_cases, reference_jsonl

# fields of an in-flight message, Simulation's tuple
ID, SENDER, RECEIVER, _, SENT, CORRECT = range(6)


def event(**fields) -> Event:
    """A trace record from its fields by name, laid out as Simulation's."""
    assert fields.keys() == set(EVENT_FIELDS)
    return tuple.__new__(Event, (fields[name] for name in EVENT_FIELDS))


def small_scenario(**kw):
    defaults = dict(
        name="small", n=4, t=1, seed=7, scheduler="RANDOM",
        workload=[
            WorkloadOp("w1", 0, "write", value="x", at=0),
            WorkloadOp("r1", 1, "read", target=0, after="w1"),
        ])
    defaults.update(kw)
    cfg = ScenarioConfig(**defaults)
    cfg.validate()
    return cfg


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        a = Simulation(small_scenario()).run()
        b = Simulation(small_scenario()).run()
        assert a.jsonl() == b.jsonl()
        assert a.trace_hash() == b.trace_hash()

    def test_different_seeds_usually_differ(self):
        a = Simulation(small_scenario(seed=1)).run()
        b = Simulation(small_scenario(seed=2)).run()
        assert a.trace_hash() != b.trace_hash()

    def test_adversarial_run_replays_identically(self):
        cfg = small_scenario(
            scheduler="ADVERSARIAL_REORDER",
            adversary=AdversarySpec("COLLUDE_DELAY", (3,), {"favored": 1}))
        assert Simulation(cfg).run().jsonl() == Simulation(cfg).run().jsonl()


class TestEnqueue:
    def test_self_send_is_delivered(self):
        cfg = small_scenario(workload=[])
        sim = Simulation(cfg)
        enqueue(sim, 2, 2, WriteDone(9))
        event = sim.step()
        assert event["kind"] == "DELIVER"
        assert event["sender"] == 2 and event["receiver"] == 2

    def test_identical_payloads_get_distinct_ids(self):
        sim = Simulation(small_scenario(workload=[]))
        a = enqueue(sim, 0, 1, WriteDone(1))
        b = enqueue(sim, 0, 1, WriteDone(1))
        assert a != b

    def test_out_of_range_receiver_rejected_before_recording(self):
        sim = Simulation(small_scenario(workload=[]))
        with pytest.raises(ValueError):
            enqueue(sim, 0, 4, WriteDone(1))
        assert sim.events == [] and len(sim.pool) == 0
        assert enqueue(sim, 0, 1, WriteDone(1)) == 0

    def test_broadcast_sends_to_every_process_in_pid_order(self):
        sim = Simulation(small_scenario(workload=[]))
        enqueue(sim, 0, 1, WriteDone(1))
        echo = Echo(1, "x", 1)
        sim._process_effects(2, [Broadcast(echo)])
        sends = sim.events[1:]
        assert [e["receiver"] for e in sends] == [0, 1, 2, 3]
        assert [e["seq"] for e in sends] == [1, 2, 3, 4]
        assert {e["kind"] for e in sends} == {"SEND"}
        assert {e["sender"] for e in sends} == {2}
        assert all(e["payload"] is echo for e in sends)
        assert echo.to_wire() == {"tag": "ECHO", "origin": 1, "value": "x",
                                  "sn": 1}
        in_flight = [sim.pool[sim._by_id[mid]] for mid in range(1, 5)]
        assert [msg[RECEIVER] for msg in in_flight] == [0, 1, 2, 3]

    @pytest.mark.parametrize("settling", [False, True])
    @pytest.mark.parametrize("sender", [0, 3], ids=["correct", "faulty"])
    def test_sends_go_in_flight_as_a_broadcast_does(self, sender, settling):
        # a Send takes its own path in _process_effects; n of them to pids
        # 0..n-1 must leave what one Broadcast leaves: the records, the
        # correct flags, the set-aside count and the ranks
        def after(effects):
            sim = Simulation(small_scenario(
                workload=[], scheduler="ADVERSARIAL_REORDER",
                adversary=AdversarySpec("COLLUDE_DELAY", (3,),
                                        {"favored": 1, "victim": 2})))
            enqueue(sim, 1, 2, WriteDone(1))
            sim.time = 5
            if settling:
                sim._aside = 0
            sim._process_effects(sender, effects)
            return sim

        ready = Ready(1, "x", 1)
        one = after([Broadcast(ready)])
        each = after([Send(dest, ready) for dest in range(4)])
        assert each.events == one.events
        assert (each.pool, each._by_id) == (one.pool, one._by_id)
        assert each._ranked == one._ranked
        assert each._aside == one._aside == (1 if settling else None)
        assert len(set(rank for rank, _ in one._ranked)) > 1
        assert [m[CORRECT] for m in one.pool] == [
            True, *(sender != 3 and receiver != 3
                    for receiver in range(4 - settling))]


class TestLifecycle:
    def test_empty_workload_is_immediately_quiescent(self):
        trace = Simulation(small_scenario(workload=[])).run()
        assert trace.outcome == "QUIESCENT"
        assert [e["kind"] for e in trace.events] == ["FINAL"] * 4

    def test_budget_exhaustion_marks_nonterminating(self):
        trace = Simulation(small_scenario(step_budget=5)).run()
        assert trace.outcome == "BUDGET_EXCEEDED"
        assert trace.diagnostics

    def test_halted_run_rejects_steps_and_keeps_its_trace(self):
        sim = Simulation(small_scenario(
            workload=[WorkloadOp("w1", 0, "write", value="x", at=0)],
            step_budget=5))
        trace = sim.run()
        assert trace.outcome == "BUDGET_EXCEEDED"
        assert len(trace.events) == 26
        digest = trace.trace_hash()
        with pytest.raises(SimulationClosedError):
            sim.step()
        with pytest.raises(SimulationClosedError):
            sim.run()
        assert len(trace.events) == 26
        assert trace.trace_hash() == digest

    def test_time_triggered_op_fires_on_idle_network(self):
        cfg = small_scenario(workload=[
            WorkloadOp("w1", 0, "write", value="x", at=500)])
        trace = Simulation(cfg).run()
        assert trace.outcome == "QUIESCENT"
        assert any(e["kind"] == "OP_END" for e in trace.events)

    def test_stepping_jumps_idle_time_like_run(self):
        cfg = small_scenario(workload=[
            WorkloadOp("w1", 0, "write", value="x", at=500)])
        whole = Simulation(cfg).run()
        sim = Simulation(cfg)
        first = sim.step()  # nothing is in flight at time 0
        assert first is not None and first["time"] == 501
        while sim.step() is not None:
            pass
        assert sim._timed == [] and sim.pool == []
        finals = sum(e["kind"] == "FINAL" for e in whole.events)
        assert sim.events == whole.events[:-finals]
        assert sim.run().trace_hash() == whole.trace_hash()

    def test_wedged_run_reports_stuck_guards(self):
        # the freshness guard can never pass: nobody ever writes register 3
        # and the crashed node never answers, so three reports <= 0 exist,
        # but we also mutate the quorum up impossibly via t violation: use
        # a scenario whose read targets a register that can reach quorum,
        # then cut the only writer by making every other process Byzantine.
        cfg = ScenarioConfig(
            name="stuck", n=4, t=1, seed=0,
            adversary=AdversarySpec("CRASH_SILENT", (1, 2, 3), {}),
            workload=[WorkloadOp("r1", 0, "read", target=0, at=0)],
            allow_t_violation=True)
        cfg.validate()
        trace = Simulation(cfg).run()
        assert trace.outcome == "STUCK"
        assert any("freshness" in d for d in trace.diagnostics)

    def test_scenario_validation_errors(self):
        with pytest.raises(ScenarioError, match="n > 3t"):
            small_scenario(n=3, t=1).validate()
        with pytest.raises(ScenarioError, match="unknown adversary"):
            small_scenario(
                adversary=AdversarySpec("NO_SUCH", (3,), {})).validate()
        with pytest.raises(ScenarioError, match="after"):
            small_scenario(workload=[
                WorkloadOp("r1", 1, "read", target=0, after="ghost")
            ]).validate()

    def test_self_referencing_after_rejected(self):
        with pytest.raises(ScenarioError, match="cycle.*: w1 -> w1"):
            small_scenario(workload=[
                WorkloadOp("w1", 0, "write", value="x", after="w1")
            ]).validate()

    def test_after_cycle_rejected_and_named(self):
        with pytest.raises(ScenarioError, match="cycle.*: r1 -> w2 -> r1"):
            small_scenario(workload=[
                WorkloadOp("w1", 0, "write", value="x", at=0),
                WorkloadOp("r0", 2, "read", target=0, after="r1"),
                WorkloadOp("r1", 1, "read", target=0, after="w2"),
                WorkloadOp("w2", 0, "write", value="y", at=3, after="r1"),
            ]).validate()


class TestInFlightPool:
    """The simulator's in-flight pool, driven through Simulation itself."""

    @staticmethod
    def sim_with(receivers, **kw):
        """A FIFO run with one message from p0 in flight per receiver."""
        sim = Simulation(small_scenario(workload=[], scheduler="FIFO", **kw))
        for mid, receiver in enumerate(receivers):
            assert enqueue(sim, 0, receiver, WriteDone(mid)) == mid
        return sim

    @staticmethod
    def take(sim, mid):
        msg = sim.pool[sim._by_id[mid]]
        sim._take(msg)
        return msg

    @staticmethod
    def assert_consistent(sim):
        """_by_id gives each message in the pool its index there."""
        pool, by_id = sim.pool, sim._by_id
        assert all(pool[by_id[m[ID]]] is m for m in pool)
        assert sorted(m[ID] for m in pool) == [
            mid for mid, at in enumerate(by_id) if at is not None]
        assert all(m[CORRECT] is (m[SENDER] not in sim.byzantine
                                  and m[RECEIVER] not in sim.byzantine)
                   for m in pool)
        assert all(at is None for at in by_id[:sim._low])

    def test_oldest_after_out_of_order_removals(self):
        sim = self.sim_with([1] * 6)
        for mid in (2, 0, 4):
            self.take(sim, mid)
        assert sim._choose()[ID] == 1
        self.take(sim, 1)
        assert sim._choose()[ID] == 3
        assert enqueue(sim, 0, 1, WriteDone(6)) == 6
        self.take(sim, 3)
        assert sim._choose()[ID] == 5
        self.take(sim, 5)
        assert sim._choose()[ID] == 6
        assert len(sim.pool) == 1

    def test_oldest_correct_skips_delivered_and_byzantine_messages(self):
        sim = self.sim_with(
            [3, 1, 3, 1, 3],
            adversary=AdversarySpec("CRASH_SILENT", (3,), {}))
        assert sim._choose()[ID] == 0
        # once the oldest (to faulty p3) is overdue, _choose walks the
        # correct-message cursor to the oldest message between correct pids
        sim.time = sim._fairness
        assert sim._choose()[ID] == 1
        self.take(sim, 1)
        assert sim._choose()[ID] == 3
        self.take(sim, 3)
        assert sim._choose()[ID] == 0  # no correct message left
        assert enqueue(sim, 0, 1, WriteDone(5)) == 5
        assert sim._choose()[ID] == 0  # id 5 is not overdue yet
        sim.time += sim._fairness
        assert sim._choose()[ID] == 5
        assert sim._low_correct == 5

    def test_drop_to_removes_only_messages_to_the_receivers(self):
        sim = self.sim_with([(mid + 1) % 3 for mid in range(6)])
        assert sim._drop_to(frozenset({1, 2})) == 4
        assert sorted(m[ID] for m in sim.pool) == [2, 5]
        self.assert_consistent(sim)
        assert sim._choose()[ID] == 2
        self.take(sim, 2)
        assert sim._choose()[ID] == 5

    def test_positions_stay_consistent_through_removes_and_id_gaps(self):
        sim = self.sim_with([], adversary=AdversarySpec("CRASH_SILENT", (3,),
                                                        {}))
        sim._aside = 0  # settling: messages to p3 are set aside at send
        live = set()
        # ids 3, 4, 7 and 8 go to p3, so they are never in flight
        for step in "+0 +1 +2 -0 +5 -1 +6 +9 -6 -2 +10 +11 -11 -5 -10".split():
            mid = int(step[1:])
            if step[0] == "+":
                while len(sim._by_id) < mid:
                    enqueue(sim, 0, 3, WriteDone(len(sim._by_id)))
                assert enqueue(sim, 0, 1, WriteDone(mid)) == mid
                live.add(mid)
            else:
                assert self.take(sim, mid)[ID] == mid
                live.remove(mid)
            assert {m[ID] for m in sim.pool} == live
            self.assert_consistent(sim)
        assert sim._choose()[ID] == 9
        assert sim._aside == 4

    def test_drop_to_removes_in_id_order(self):
        sim = self.sim_with([mid % 2 for mid in range(8)])
        self.take(sim, 3)
        removed = []
        take = sim._take
        sim._take = lambda msg: removed.append(msg[ID]) or take(msg)
        assert sim._drop_to(frozenset({1})) == 3
        assert removed == [1, 5, 7]
        assert sorted(m[ID] for m in sim.pool) == [0, 2, 4, 6]

    def test_oldest_of_empty_pool_raises(self):
        sim = self.sim_with([1, 1])
        assert sim.step()["receiver"] == 1
        assert sim.step()["receiver"] == 1
        assert sim.step() is None
        with pytest.raises(IndexError):
            sim._choose()

    def test_pool_stays_consistent_through_a_settled_run(self):
        # the only entry is the Byzantine node's write, done when it fires
        # at time 0, so the run settles at once: every later send to that
        # node is set aside and never put in flight
        sim = Simulation(resolve_scenario("mut-equivocate-even").with_seed(0))
        while sim.step() is not None:
            self.assert_consistent(sim)
        assert sim.pool == []
        # every message sent was delivered or set aside
        assert sim._aside > 0
        assert len(sim._by_id) == sim.time + sim._aside


class TestDeliveryLoop:
    """step() is run()'s delivery loop with a limit of one."""

    @pytest.mark.parametrize("cfg", [
        matrix_scenario(4, None, 1),
        small_scenario(scheduler="FIFO", seed=3),
        matrix_scenario(4, "COLLUDE_DELAY", 2),
        small_scenario(step_budget=40),
        # the read is over after 16 deliveries; the write waits for time 100
        small_scenario(workload=[
            WorkloadOp("r1", 1, "read", target=0, at=0),
            WorkloadOp("w1", 0, "write", value="x", at=100)]),
    ], ids=["random", "fifo", "adversarial-reorder", "budget-stop",
            "idle-gap"])
    @pytest.mark.parametrize("k", [1, 7, 30])
    def test_steps_then_run_match_run_alone(self, cfg, k):
        whole = Simulation(cfg).run()
        sim = Simulation(cfg)
        for _ in range(k):
            sim.step()
        trace = sim.run()
        assert trace.outcome == whole.outcome
        assert trace.trace_hash() == whole.trace_hash()

    def test_budget_stop_case_spends_its_budget(self):
        trace = Simulation(small_scenario(step_budget=40)).run()
        assert trace.outcome == "BUDGET_EXCEEDED"
        assert sum(e["kind"] == "DELIVER" for e in trace.events) == 40


class TestStepBudget:
    """BUDGET_EXCEEDED means the budget stopped a run that was not at rest."""

    @staticmethod
    def with_budget(budget):
        cfg = dataclasses.replace(matrix_scenario(4, None, seed=3),
                                  step_budget=budget)
        return run_one(cfg, cfg.seed)

    def test_run_ending_at_exactly_its_budget_is_not_cut(self):
        whole, _ = self.with_budget(100_000)
        assert whole.outcome == "QUIESCENT"
        deliveries = sum(e["kind"] == "DELIVER" for e in whole.events)
        trace, report = self.with_budget(deliveries)
        assert trace.outcome == "QUIESCENT" and report.ok()
        assert trace.events == whole.events
        trace, report = self.with_budget(deliveries - 1)
        assert trace.outcome == "BUDGET_EXCEEDED" and not report.ok()
        statuses = {v.prop: v.status for v in report.verdicts}
        assert statuses["termination"] == "NONTERMINATING"

    def test_stuck_run_at_its_budget_is_stuck(self):
        # the read can never finish and nothing else can happen, so the
        # outcome does not depend on whether the budget ran out there
        cfg = ScenarioConfig(
            name="stuck", n=4, t=1, seed=0,
            adversary=AdversarySpec("CRASH_SILENT", (1, 2, 3), {}),
            workload=[WorkloadOp("r1", 0, "read", target=0, at=0),
                      WorkloadOp("r2", 0, "read", target=0, at=500)],
            allow_t_violation=True)
        cfg.validate()
        whole = Simulation(cfg).run()
        assert whole.outcome == "STUCK"
        deliveries = sum(e["kind"] == "DELIVER" for e in whole.events)
        cut = Simulation(dataclasses.replace(cfg, step_budget=deliveries))
        assert cut.run().outcome == "STUCK"


@pytest.fixture
def gc_state():
    """Restores the cyclic collector's state after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


class TestGcPause:
    """The cyclic collector is paused during a run and a check only."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_and_checks_restore_the_collector_state(self, gc_state,
                                                       enabled):
        (gc.enable if enabled else gc.disable)()
        trace = Simulation(small_scenario()).run()
        assert gc.isenabled() is enabled
        run_all_checks(trace)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored_when_a_run_raises(self, gc_state,
                                                 monkeypatch, enabled):
        monkeypatch.setattr(AckForge, "on_deliver",
                            lambda self, pid, sender, payload: ["bogus"])
        cfg = small_scenario(adversary=AdversarySpec("ACK_FORGE", (3,), {}))
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(TypeError, match="unknown effect"):
            Simulation(cfg).run()
        assert gc.isenabled() is enabled
        orphan_end = event(seq=0, time=0, kind="OP_END", node=0, sender=0,
                           receiver=None,
                           payload={"op": "WRITE", "id": "w1", "target": 0,
                                    "value": "x", "sn": 1})
        trace = Trace(scenario_name="orphan", n=4, t=1, seed=0,
                      scheduler="RANDOM", adversary=None, byzantine=(),
                      step_budget=10, outcome="QUIESCENT",
                      log=[orphan_end])
        with pytest.raises(TraceError):
            run_all_checks(trace)
        assert gc.isenabled() is enabled

    def test_runs_and_checks_leave_no_cyclic_garbage(self, gc_state):
        """What the pause rests on: reference counting frees a whole run."""
        cfgs = [resolve_scenario(name).with_seed(0)
                for name in bundled_scenario_names()]
        cfgs.append(matrix_scenario(13, "READY_POISON"))
        gc.collect()
        gc.disable()  # or a collection between runs could hide a cycle
        for cfg in cfgs:
            trace, report = run_one(cfg, cfg.seed)
            del trace, report
        assert gc.collect() == 0


class TestFairness:
    def test_starved_message_forced_at_bound(self):
        bound = 50
        cfg = small_scenario(
            scheduler="ADVERSARIAL_REORDER", fairness_bound=bound,
            adversary=AdversarySpec("COLLUDE_DELAY", (3,), {"favored": 1}))
        sim = Simulation(cfg)
        # adversary that always starves the oldest message
        sim.strategy.delivery_rank = lambda m: -m[ID]
        victim_id = None
        while True:
            event = sim.step()
            if event is None:
                break
            if victim_id is None and len(sim.pool) > 1:
                oldest = min(sim.pool, key=lambda m: m[ID])
                victim_id, enqueue_time = oldest[ID], oldest[SENT]
            if victim_id is not None and sim._by_id[victim_id] is None:
                # delivered exactly when its age reached the bound
                assert sim.time - enqueue_time <= bound + 1
                return
        pytest.fail("starved message was never delivered")

    @pytest.mark.parametrize("n", [13, 16])
    def test_flood_cannot_starve_correct_channels(self, n):
        """Byzantine volume cannot hold a correct-to-correct message.

        The ranking delivers every message to or from a poisoner first,
        newest first, which without the correct-channel cursor keeps
        correct messages waiting for thousands of deliveries. Overdue
        correct messages leave one per delivery, oldest first, so one sent
        in a burst may wait for the rest of the burst past the bound.
        """
        cfg = dataclasses.replace(matrix_scenario(n, "READY_POISON"),
                                  scheduler="ADVERSARIAL_REORDER")
        sim = Simulation(cfg)
        byz = sim.byzantine

        def is_correct(msg):
            return msg[SENDER] not in byz and msg[RECEIVER] not in byz

        sim.strategy.delivery_rank = lambda m: (is_correct(m), -m[ID])
        choose, waits = sim._choose, []

        def timed_choose():
            msg = choose()
            if is_correct(msg):
                waits.append(sim.time - msg[SENT])
            return msg

        sim._choose = timed_choose
        assert sim.run().outcome == "SETTLED"
        assert max(waits) <= 2 * cfg.fairness_bound


class TestAdversarySendCap:
    @staticmethod
    def sends_after_one_delivery(monkeypatch, effects):
        """The SENDs of faulty p3 when one delivery to it returns effects.

        The simulator binds each faulty pid's handler when it is built, so
        the hook is replaced on the strategy class before that.
        """
        monkeypatch.setattr(AckForge, "on_deliver",
                            lambda self, pid, sender, payload: effects)
        cfg = small_scenario(
            workload=[], scheduler="FIFO",
            adversary=AdversarySpec("ACK_FORGE", (3,), {}))
        assert cfg.send_cap() == 16
        sim = Simulation(cfg)
        enqueue(sim, 0, 3, WriteDone(1))
        sim.step()  # one delivery to the flooding node
        return [(e["receiver"], e["payload"]["sn"]) for e in sim.events
                if e["kind"] == "SEND" and e["sender"] == 3]

    def test_flooding_strategy_is_truncated_to_cap(self, monkeypatch):
        sends = self.sends_after_one_delivery(
            monkeypatch, [Send(dest % 4, WriteDone(dest))
                          for dest in range(100)])
        assert sends == [(dest % 4, dest) for dest in range(16)]

    def test_broadcast_counts_n_and_is_cut_short_at_the_cap(self,
                                                            monkeypatch):
        # n = 4: three Broadcasts and two Sends leave room for 2 of the 16,
        # so the fourth Broadcast reaches p0 and p1 only, and nothing after
        sends = self.sends_after_one_delivery(monkeypatch, [
            Broadcast(WriteDone(1)), Send(3, WriteDone(2)),
            Broadcast(WriteDone(3)), Send(1, WriteDone(4)),
            Broadcast(WriteDone(5)), Broadcast(WriteDone(6)),
            Send(0, WriteDone(7)), Broadcast(WriteDone(8))])
        assert sends == [
            (0, 1), (1, 1), (2, 1), (3, 1), (3, 2),
            (0, 3), (1, 3), (2, 3), (3, 3), (1, 4),
            (0, 5), (1, 5), (2, 5), (3, 5), (0, 6), (1, 6)]


class TestScenarioRoundTrip:
    @pytest.mark.parametrize("fields", [
        dict(scheduler="ADVERSARIAL_REORDER",
             adversary=AdversarySpec("COLLUDE_DELAY", (3,),
                                     {"favored": 1, "victim": 2}),
             mutations=frozenset({"NO_CATCH_UP"})),
        dict(n=3, allow_t_violation=True, fairness_bound=5, step_budget=50),
    ], ids=["adversary", "flags"])
    def test_to_dict_from_dict_is_identity(self, fields):
        cfg = small_scenario(**fields)
        clone = ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert clone == cfg


class TestChannelSemantics:
    def test_every_send_delivered_exactly_once_uncorrupted(self):
        trace = Simulation(small_scenario(seed=3)).run()
        assert trace.outcome == "QUIESCENT"
        sent = collections.Counter()
        delivered = collections.Counter()
        for e in trace.events:
            if e["kind"] not in ("SEND", "DELIVER"):
                continue
            key = (e["sender"], e["receiver"],
                   json.dumps(e["payload"].to_wire()))
            if e["kind"] == "SEND":
                sent[key] += 1
            else:
                delivered[key] += 1
        assert sent == delivered

    @pytest.mark.parametrize("cfg", [
        small_scenario(seed=3), matrix_scenario(4, "EQUIVOCATE_WRITE", 1)],
        ids=["fault-free", "equivocate"])
    def test_records_hold_the_object_the_handler_was_given(self, cfg):
        sim = Simulation(cfg)
        handed = []

        def recording(handler):
            def handle(sender, payload):
                handed.append(payload)
                return handler(sender, payload)
            return handle

        sim._handlers = [recording(h) for h in sim._handlers]
        sent = collections.defaultdict(list)  # (sender, receiver) -> ids
        seen = 0
        while (deliver := sim.step()) is not None:
            for e in sim.events[seen:]:
                if e["kind"] == "SEND":
                    sent[e["sender"], e["receiver"]].append(id(e["payload"]))
            seen = len(sim.events)
            payload = deliver["payload"]
            assert isinstance(payload, Message)
            assert payload is handed[-1]
            assert id(payload) in sent[deliver["sender"], deliver["receiver"]]
        assert len(handed) == sum(e["kind"] == "DELIVER"
                                  for e in sim.events) > 0

    def test_jsonl_matches_per_record_json_dumps(self):
        shared = Echo(0, "caf\u00e9 \u2603", 1)
        events = [
            event(seq=0, time=0, kind="OP_START", node=0,
                  sender=0, receiver=None,
                  payload={"op": "WRITE", "id": "w\u00fc", "target": 0,
                           "value": "\u00e9\"\\\n"}),
            event(seq=1, time=0, kind="SEND", node=0, sender=0,
                  receiver=1, payload=shared),
            event(seq=2, time=1, kind="DELIVER", node=1, sender=0,
                  receiver=1, payload=shared),
            event(seq=3, time=1, kind="FINAL", node=1, sender=None,
                  receiver=None,
                  payload={"registers": [[None, 0], ["\U0001f600", 2]],
                           "write_sn": 0, "read_sn": [0, 1]}),
        ]
        trace = Trace(scenario_name="caf\u00e9", n=2, t=0, seed=0,
                      scheduler="RANDOM", adversary=None, byzantine=(),
                      step_budget=10, outcome="QUIESCENT", log=events,
                      diagnostics=["\u00fcber"])
        assert trace.jsonl() == reference_jsonl(trace)

    def test_trace_field_order_is_stable(self):
        trace = Simulation(small_scenario()).run()
        line = trace.jsonl().splitlines()[1]
        keys = list(json.loads(line).keys())
        assert keys == ["seq", "time", "kind", "node", "sender", "receiver",
                        "payload"]
        assert tuple(keys) == EVENT_FIELDS

    def test_every_record_has_the_event_field_layout(self):
        # SENDs are built apart from the other records, and jsonl and the
        # checker unpack records by position, so every kind must match
        # EVENT_FIELDS, and lookup by name must give the same values
        cfg = small_scenario(
            adversary=AdversarySpec("EQUIVOCATE_WRITE", (3,), {}),
            workload=[WorkloadOp("w1", 0, "write", value="x", at=0),
                      WorkloadOp("w3", 3, "write", value="b", at=0),
                      WorkloadOp("r1", 1, "read", target=3, after="w1")])
        trace = Simulation(cfg).run()
        kinds = {e["kind"] for e in trace.events}
        assert kinds == {"OP_START", "SEND", "DELIVER", "RDELIVER", "OP_END",
                         "FINAL"}
        for e in trace.events:
            assert type(e) is Event
            assert len(e) == len(EVENT_FIELDS)
            assert all(e[name] is e[i] for i, name in enumerate(EVENT_FIELDS))
        lines = trace.jsonl().splitlines()[1:]
        assert all(tuple(json.loads(line)) == EVENT_FIELDS for line in lines)


def final_state_cases():
    for name in bundled_scenario_names():
        cfg = resolve_scenario(name)
        for seed in range(5):
            yield cfg.with_seed(seed)
    for n in (4, 7):
        for strategy in (None, *sorted(STRATEGIES)):
            yield matrix_scenario(n, strategy, 0)


@pytest.fixture(scope="module")
def final_state_runs():
    return [(cfg, Simulation(cfg).run()) for cfg in final_state_cases()]


def rebuilt_state(trace, pid):
    """A correct node's end state, rebuilt from its own trace records."""
    registers = [[None, 0] for _ in range(trace.n)]
    write_sn, read_sn = 0, [0] * trace.n
    for e in trace.events:
        if e["node"] != pid:
            continue
        p = e["payload"]
        if e["kind"] == "RDELIVER":
            registers[p["origin"]] = [p["value"], p["sn"]]
        elif e["kind"] == "OP_START" and p["op"] == "WRITE":
            write_sn += 1
        elif e["kind"] == "OP_START":
            read_sn[p["target"]] += 1
    return {"registers": registers, "write_sn": write_sn, "read_sn": read_sn}


class TestFinalRecords:
    def test_final_state_matches_the_nodes_own_records(self, final_state_runs):
        """A node whose state drifts from what it recorded is caught.

        For example, an apply that advances the wrong register copy still
        records the right RDELIVER, so only the end state shows it.
        """
        for cfg, trace in final_state_runs:
            finals = {e["node"]: e["payload"] for e in trace.events
                      if e["kind"] == "FINAL"}
            for pid in trace.correct_nodes():
                want = rebuilt_state(trace, pid)
                assert finals[pid] == want, (cfg.name, cfg.seed, pid)

    def test_final_records_close_the_trace_in_pid_order(self,
                                                        final_state_runs):
        for cfg, trace in final_state_runs:
            correct = trace.correct_nodes()
            finals = [e for e in trace.events if e["kind"] == "FINAL"]
            assert finals == trace.events[len(trace.events) - len(correct):]
            assert [e["node"] for e in finals] == correct
            assert all(e["sender"] is None and e["receiver"] is None
                       for e in finals)


POISON_SEEDS = range(10)
# the prototype of the correct-channel cursor finished every correct op
# within ~4.5k deliveries at n=13 and n=16
POISON_OP_DEADLINE = 6000


@pytest.fixture(scope="module")
def poison_runs():
    """READY_POISON floods, supercritical from n=13, run to the end."""
    return [Simulation(matrix_scenario(n, "READY_POISON", seed)).run()
            for n in (13, 16) for seed in POISON_SEEDS]


def last_entry_done(trace):
    """seq of the last OP_END; matrix Byzantine entries all fire at time 0."""
    return max(e["seq"] for e in trace.events if e["kind"] == "OP_END")


class TestSettle:
    def test_poison_floods_settle_and_pass(self, poison_runs):
        for trace in poison_runs:
            assert trace.outcome == "SETTLED", (trace.n, trace.seed)
            assert trace.diagnostics[0].endswith(
                "messages to Byzantine processes set aside")
            report = run_all_checks(trace)
            assert report.ok(), (trace.n, trace.seed, report.failures())
            statuses = {v.prop: v.status for v in report.verdicts}
            assert statuses["termination"] == "PASS"
            assert statuses["rb-termination"] == "PASS"

    def test_poison_is_never_delivered(self, poison_runs):
        for trace in poison_runs:
            poison = ReadyPoison.poison_value
            assert not any(e["kind"] == "RDELIVER"
                           and e["payload"]["value"] == poison
                           for e in trace.events), (trace.n, trace.seed)

    def test_correct_ops_end_despite_the_flood(self, poison_runs):
        for trace in poison_runs:
            ends = [e["time"] for e in trace.events if e["kind"] == "OP_END"]
            starts = [e for e in trace.events if e["kind"] == "OP_START"]
            assert len(ends) == len(starts) == 7
            assert max(ends) <= POISON_OP_DEADLINE, (trace.n, trace.seed)

    def test_every_send_to_a_correct_process_is_delivered(self, poison_runs):
        for trace in poison_runs:
            byz = set(trace.byzantine)
            sent = collections.Counter()
            delivered = collections.Counter()
            pairs = collections.Counter()
            for e in trace.events:
                if e["kind"] not in ("SEND", "DELIVER"):
                    continue
                key = (e["sender"], e["receiver"],
                       json.dumps(e["payload"].to_wire()))
                if e["kind"] == "SEND":
                    sent[key] += 1
                    if not byz & {e["sender"], e["receiver"]}:
                        pairs[e["sender"], e["receiver"]] += 1
                else:
                    delivered[key] += 1
                    if not byz & {e["sender"], e["receiver"]}:
                        pairs[e["sender"], e["receiver"]] -= 1
            assert set(pairs.values()) == {0}, (trace.n, trace.seed)
            assert not delivered - sent
            undelivered = sent - delivered
            assert undelivered
            assert all(receiver in byz for _, receiver, _ in undelivered)

    def test_byzantine_nodes_get_nothing_after_the_last_entry(self,
                                                              poison_runs):
        for trace in poison_runs:
            byz = set(trace.byzantine)
            done = last_entry_done(trace)
            late = [e for e in trace.events[done:]
                    if e["kind"] == "DELIVER" and e["receiver"] in byz]
            assert late == [], (trace.n, trace.seed)
            assert any(e["kind"] == "DELIVER" and e["receiver"] in byz
                       for e in trace.events[:done])


def log_layout_cases():
    """Bundled scenarios x seeds 0-4, the unmutated n=4 and n=7 matrix
    cells, the n=13 poison flood and the golden Byzantine workloads, which
    jump idle time."""
    bundled = set(bundled_scenario_names())
    return {key: cfg for key, cfg in golden_cases().items()
            if "+" not in key and (
                key.split("/")[0] in bundled
                or key.startswith(("matrix-n4-", "matrix-n7-",
                                   "matrix-n13-", "golden-byzantine-")))}


class TestLogLayout:
    """The log's three entry shapes expand to the records a run made.

    Checked through Trace.events, against the run's log: seq runs
    0..N-1; time moves only at a DELIVER, by one, or while nothing is in
    flight (an idle jump); a batch stands for SENDs to pids 0..k-1 of
    its one payload object; every DELIVER matches an earlier SEND by
    (payload object, receiver), and every SEND to a correct process is
    delivered by the end.
    """

    @pytest.mark.parametrize("key", sorted(log_layout_cases()))
    def test_records_follow_the_log(self, key):
        cfg = log_layout_cases()[key]
        trace = Simulation(cfg).run()
        records = list(trace.events)
        assert [e["seq"] for e in records] == list(range(len(records)))
        assert len(trace.events) == len(records)

        at = 0  # the position of the entry's first record
        for entry in trace.log:
            if len(entry) == 4:  # a batch
                time, sender, k, payload = entry
                assert 1 <= k <= trace.n
                batch = records[at:at + k]
                assert [e["receiver"] for e in batch] == list(range(k))
                assert all(e["kind"] == "SEND" and e["sender"] == sender
                           and e["time"] == time and e["payload"] is payload
                           for e in batch)
                at += k
                continue
            if len(entry) == 6:  # a DELIVER
                _, sender, receiver, payload, _, _ = entry
                e = records[at]
                assert (e["kind"], e["sender"], e["receiver"]) == (
                    "DELIVER", sender, receiver)
                assert e["payload"] is payload
            else:
                assert records[at] is entry
            at += 1
        assert at == len(records)

        byz = set(trace.byzantine)
        in_flight = collections.Counter()  # (id(payload), receiver) -> sends
        previous = records[0]["time"]
        for e in records:
            kind, time = e["kind"], e["time"]
            key = (id(e["payload"]), e["receiver"])
            if kind == "DELIVER":
                assert time == previous + 1, e
                assert in_flight[key] > 0, e
                in_flight[key] -= 1
            else:
                assert time == previous or (
                    time > previous and not +in_flight), e
                if kind == "SEND":
                    in_flight[key] += 1
            previous = time
        assert all(receiver in byz for _, receiver in +in_flight)

    @pytest.mark.parametrize("cfg", [
        golden_cases()["golden-byzantine-after-idle/0"],
        golden_cases()["golden-byzantine-chain/1"],
        matrix_scenario(7, "READY_POISON", 0)],
        ids=["after-idle", "chain", "poison"])
    def test_step_returns_the_record_its_delivery_expands_to(self, cfg):
        # step() rebuilds the DELIVER it returns from the log, past the
        # batches and Events its effects appended
        sim = Simulation(cfg)
        stepped = []
        while (e := sim.step()) is not None:
            stepped.append(e)
        assert stepped == [e for e in sim.events if e["kind"] == "DELIVER"]
        assert all(type(e) is Event for e in stepped)
