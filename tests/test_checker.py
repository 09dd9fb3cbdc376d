"""Checker tests over synthetic traces and hand-built histories.

Synthetic traces let each verifier be pointed at a violation directly,
so the failure detectors are exercised without needing a broken protocol.
"""
import collections
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from byzreg.checker import (FAIL, PASS, VACUOUS, History, LinItem,
                            OperationRecord, Verdict, build_linearization,
                            check_rb, check_safety, check_termination,
                            count_messages, derive_histories, run_all_checks,
                            validate_linearization)
from byzreg.cli import resolve_scenario
from byzreg.errors import TraceError
from byzreg.messages import App, CatchUp, WriteDone
from byzreg.netsim import Simulation, Trace
from byzreg.scenario import ScenarioConfig, WorkloadOp, matrix_scenario
from helpers import (brute_force_linearizable, min_quorum_intersection,
                     min_quorum_intersection_enumerated,
                     quorum_intersection_holds)
from test_golden_traces import cases as golden_cases
from test_netsim import event


def make_trace(events, n=4, t=1, byz=(), outcome="QUIESCENT"):
    return Trace(scenario_name="synthetic", n=n, t=t, seed=0,
                 scheduler="RANDOM", adversary=None, byzantine=tuple(byz),
                 step_budget=1000, outcome=outcome, events=list(events))


_seq = itertools.count()


def ev(kind, node, payload, sender=None, receiver=None, seq=None):
    seq = next(_seq) if seq is None else seq
    return event(seq=seq, time=seq, kind=kind, node=node,
                 sender=node if sender is None else sender,
                 receiver=receiver, payload=payload)


def rdeliver(node, origin, value, sn, seq=None):
    """An r-delivery, which at a correct node is also its register apply."""
    return ev("RDELIVER", node, {"origin": origin, "value": value, "sn": sn},
              sender=origin, receiver=node, seq=seq)


def op_start(node, kind, op_id, target, seq=None, value=None):
    return ev("OP_START", node, {"op": kind, "id": op_id, "target": target,
                                 "value": value}, seq=seq)


def op_end(node, kind, op_id, target, value, sn, seq=None):
    return ev("OP_END", node, {"op": kind, "id": op_id, "target": target,
                               "value": value, "sn": sn}, seq=seq)


class TestDeriveHistories:
    def test_single_write_by_correct_process(self):
        events = [rdeliver(node, 1, "x", 1) for node in (0, 1, 2)]
        hist = derive_histories(make_trace(events, byz=(3,)))
        assert hist.values[1] == ["x"]
        assert all(v.status == PASS for v in hist.derivation_verdicts)

    def test_byzantine_gap_excluded(self):
        # sn 1 applied everywhere; sn 3 follows a gap and is never
        # r-delivered, so it does not appear as an RDELIVER
        events = [rdeliver(node, 3, "a", 1) for node in (0, 1, 2)]
        hist = derive_histories(make_trace(events, byz=(3,)))
        assert hist.values[3] == ["a"]

    def test_zero_writes_and_initial_read(self):
        events = [op_start(1, "READ", "r1", 0),
                  op_end(1, "READ", "r1", 0, None, 0)]
        hist = derive_histories(make_trace(events))
        assert hist.values == {}
        verdicts = {v.prop: v.status for v in hist.derivation_verdicts}
        assert verdicts["read-resolution"] == PASS

    def test_unfinished_write_keeps_its_position(self):
        events = [op_start(0, "WRITE", "w1", 0, value="a"),
                  op_end(0, "WRITE", "w1", 0, "a", 1),
                  op_start(0, "WRITE", "w2", 0, value="b")]
        hist = derive_histories(make_trace(events, outcome="STUCK"))
        assert [op.index for op in hist.ops] == [1, 2]

    def test_byzantine_node_records_are_ignored(self):
        events = [rdeliver(0, 1, "x", 1), rdeliver(3, 1, "forged", 1)]
        hist = derive_histories(make_trace(events, byz=(3,)))
        assert hist.values[1] == ["x"]
        assert all(v.status == PASS for v in hist.derivation_verdicts)

    def test_conflicting_applies_fail_agreement(self):
        events = [rdeliver(0, 3, "a", 1), rdeliver(1, 3, "b", 1)]
        hist = derive_histories(make_trace(events, byz=(3,)))
        fails = [v for v in hist.derivation_verdicts if v.status == FAIL]
        assert fails and fails[0].prop == "per-writer-agreement"
        assert len(fails[0].counterexample) == 2

    def test_read_of_unknown_value_fails_resolution(self):
        events = [op_start(1, "READ", "r1", 0),
                  op_end(1, "READ", "r1", 0, "ghost", 4)]
        hist = derive_histories(make_trace(events))
        fails = [v for v in hist.derivation_verdicts if v.status == FAIL]
        assert fails and fails[0].prop == "read-resolution"

    @pytest.mark.parametrize("applied", [(), ("ghost",)],
                             ids=["no-writes", "after-a-write"])
    def test_initial_read_of_a_value_other_than_null_fails(self, applied):
        # every register starts at (None, 0), so a read of index 0 must
        # return None whatever was written later
        events = [rdeliver(node, 0, value, sn)
                  for sn, value in enumerate(applied, 1) for node in (0, 1, 2)]
        events += [op_start(1, "READ", "r1", 0),
                   op_end(1, "READ", "r1", 0, "ghost", 0)]
        report = run_all_checks(make_trace(events))
        fails = {v.prop: v for v in report.verdicts if v.status == FAIL}
        assert "returned ('ghost', 0)" in fails["read-resolution"].detail

    def test_gap_in_applies_ends_the_history(self):
        # a stored trace may skip a position the simulator never would
        events = [rdeliver(0, 3, "v2", 2), rdeliver(0, 3, "v3", 3),
                  op_start(1, "READ", "r1", 3),
                  op_end(1, "READ", "r1", 3, "v2", 2)]
        trace = make_trace(events, byz=(3,))
        assert derive_histories(trace).values[3] == []
        report = run_all_checks(trace)  # no KeyError from the missing sn 1
        fails = {v.prop: v for v in report.verdicts if v.status == FAIL}
        assert "out of order" in fails["per-writer-agreement"].detail
        assert "read-resolution" in fails

    def test_read_ending_with_a_null_sn_is_a_trace_error(self):
        events = [op_start(0, "WRITE", "w1", 0, value="a", seq=0),
                  *(rdeliver(node, 0, "a", 1, seq=node + 1)
                    for node in (0, 1, 2)),
                  op_end(0, "WRITE", "w1", 0, "a", 1, seq=4),
                  op_start(1, "READ", "r1", 0, seq=5),
                  op_end(1, "READ", "r1", 0, "a", None, seq=6)]
        with pytest.raises(TraceError,
                           match=r"record 6: OP_END of 'r1' has sn None"):
            run_all_checks(make_trace(events))

    def test_op_end_without_op_start_is_a_trace_error(self):
        events = [*(rdeliver(node, 0, "a", 1, seq=node) for node in (0, 1, 2)),
                  op_end(0, "WRITE", "w1", 0, "a", 1, seq=3)]
        with pytest.raises(TraceError,
                           match=r"record 3: OP_END of 'w1', which has no "
                                 r"OP_START"):
            run_all_checks(make_trace(events))


class TestCheckSafety:
    def _history(self, events, byz=()):
        trace = make_trace(events, byz=byz)
        return derive_histories(trace), trace

    def test_sequential_write_then_read_passes(self):
        events = [
            op_start(0, "WRITE", "w1", 0, seq=0),
            rdeliver(0, 0, "a", 1, seq=1),
            rdeliver(1, 0, "a", 1, seq=2),
            op_end(0, "WRITE", "w1", 0, "a", 1, seq=3),
            op_start(1, "READ", "r1", 0, seq=4),
            op_end(1, "READ", "r1", 0, "a", 1, seq=5),
        ]
        hist, trace = self._history(events)
        verdicts = {v.prop: v for v in check_safety(hist, trace)}
        assert verdicts["write-followed-by-read"].status == PASS
        assert verdicts["read-followed-by-write"].status == VACUOUS

    def test_read_inversion_detected_with_counterexample(self):
        events = [
            op_start(0, "WRITE", "w1", 0, seq=0),
            rdeliver(0, 0, "a", 1, seq=1),
            rdeliver(1, 0, "a", 1, seq=2),
            rdeliver(0, 0, "b", 2, seq=3),
            rdeliver(1, 0, "b", 2, seq=4),
            op_end(0, "WRITE", "w1", 0, "a", 1, seq=5),
            op_start(1, "READ", "r1", 0, seq=6),
            op_end(1, "READ", "r1", 0, "b", 2, seq=7),
            op_start(2, "READ", "r2", 0, seq=8),
            op_end(2, "READ", "r2", 0, "a", 1, seq=9),
        ]
        hist, trace = self._history(events)
        verdicts = {v.prop: v for v in check_safety(hist, trace)}
        inv = verdicts["no-read-inversion"]
        assert inv.status == FAIL
        assert inv.counterexample == (6, 7, 8, 9)

    def test_fully_concurrent_ops_are_vacuous(self):
        events = [
            op_start(1, "READ", "r1", 0, seq=0),
            op_start(2, "READ", "r2", 0, seq=1),
            op_end(1, "READ", "r1", 0, None, 0, seq=2),
            op_end(2, "READ", "r2", 0, None, 0, seq=3),
        ]
        hist, trace = self._history(events)
        verdicts = {v.prop: v for v in check_safety(hist, trace)}
        assert verdicts["no-read-inversion"].status == VACUOUS

    def test_read_from_the_future_detected(self):
        # the read finishes before any correct node applies write 1, yet
        # returns index 1
        events = [
            op_start(1, "READ", "r1", 0, seq=0),
            op_end(1, "READ", "r1", 0, "a", 1, seq=1),
            op_start(0, "WRITE", "w1", 0, seq=2),
            rdeliver(0, 0, "a", 1, seq=3),
            rdeliver(1, 0, "a", 1, seq=4),
            op_end(0, "WRITE", "w1", 0, "a", 1, seq=5),
        ]
        hist, trace = self._history(events)
        verdicts = {v.prop: v for v in check_safety(hist, trace)}
        assert verdicts["read-followed-by-write"].status == FAIL

    def test_byzantine_write_start_is_first_apply(self):
        # read ends at seq 1; the faulty writer's value first applies later,
        # so returning it is a read from the future
        events = [
            op_start(1, "READ", "r1", 3, seq=0),
            op_end(1, "READ", "r1", 3, "evil", 1, seq=1),
            rdeliver(0, 3, "evil", 1, seq=2),
            rdeliver(1, 3, "evil", 1, seq=3),
        ]
        hist, trace = self._history(events, byz=(3,))
        verdicts = {v.prop: v for v in check_safety(hist, trace)}
        assert verdicts["read-followed-by-write"].status == FAIL


# ---------------------------------------------------------------------------
# the sorted sweep against a scan of every ordered pair
# ---------------------------------------------------------------------------

def pairwise_safety(history, trace):
    """check_safety by a scan of every ordered pair, kept as a reference."""
    return [_pairwise_read_then_write(history),
            _pairwise_write_then_read(history),
            _pairwise_no_read_inversion(history)]


def _pairwise_read_then_write(history):
    checked = 0
    for target in sorted(set(history.values)
                         | {op.target for op in history.ops}):
        writes = [(w.index, w.start_seq)
                  for w in history.writes.get(target, [])]
        for read in history.reads.get(target, []):
            for (y, w_start) in writes:
                if read.end_seq < w_start:
                    checked += 1
                    if not read.index < y:
                        return Verdict(
                            "read-followed-by-write", FAIL,
                            f"read {read.op_id} of reg[{target}] returned "
                            f"index {read.index} but finished before write "
                            f"{y} started",
                            (read.start_seq, read.end_seq, w_start))
    if checked == 0:
        return Verdict("read-followed-by-write", VACUOUS,
                       "no read strictly precedes a write")
    return Verdict("read-followed-by-write", PASS, f"{checked} pairs")


def _pairwise_write_then_read(history):
    checked = 0
    for target in sorted(history.values):
        writes = [w for w in history.writes.get(target, []) if w.completed()]
        for read in history.reads.get(target, []):
            for w in writes:
                if w.end_seq < read.start_seq:
                    checked += 1
                    if not w.index <= read.index:
                        return Verdict(
                            "write-followed-by-read", FAIL,
                            f"write {w.op_id} (index {w.index}) finished "
                            f"before read {read.op_id} started, which "
                            f"returned index {read.index}",
                            (w.start_seq, w.end_seq,
                             read.start_seq, read.end_seq))
    if checked == 0:
        return Verdict("write-followed-by-read", VACUOUS,
                       "no completed write strictly precedes a read")
    return Verdict("write-followed-by-read", PASS, f"{checked} pairs")


def _pairwise_no_read_inversion(history):
    checked = 0
    for target in sorted({op.target for op in history.ops
                          if op.kind == "READ"}):
        reads = history.reads.get(target, [])
        for r1, r2 in itertools.permutations(reads, 2):
            if r1.end_seq < r2.start_seq:
                checked += 1
                if not r1.index <= r2.index:
                    return Verdict(
                        "no-read-inversion", FAIL,
                        f"read {r1.op_id} returned index {r1.index}, then "
                        f"read {r2.op_id} (started after {r1.op_id} ended) "
                        f"returned older index {r2.index}",
                        (r1.start_seq, r1.end_seq,
                         r2.start_seq, r2.end_seq))
    if checked == 0:
        return Verdict("no-read-inversion", VACUOUS,
                       "no two reads of one register are strictly ordered")
    return Verdict("no-read-inversion", PASS, f"{checked} pairs")


def nested_loop_linearization(history, trace):
    """build_linearization placing reads by a scan per write, kept as a
    reference for the witness order."""
    orders = {}
    targets = sorted(set(history.values)
                     | {op.target for op in history.ops if op.kind == "READ"})
    for target in targets:
        writes = [LinItem("write", 0, None, -1, "init")]
        writes += [LinItem("write", w.index, w.start_seq, w.end_seq,
                           f"write[{w.index}]")
                   for w in history.writes.get(target, [])]
        writes.sort(key=lambda i: i.index)
        reads = sorted([LinItem("read", r.index, r.start_seq, r.end_seq,
                                r.op_id)
                        for r in history.reads.get(target, [])],
                       key=lambda i: (i.index, i.start))
        sequence = []
        for w in writes:
            sequence.append(w)
            sequence.extend(r for r in reads if r.index == w.index)
        orders[target] = sequence
        if len(sequence) != len(writes) + len(reads):
            placed = {id(i) for i in sequence}
            lost = [r.label for r in reads if id(r) not in placed]
            return orders, Verdict(
                "linearization", FAIL,
                f"reg[{target}]: reads {lost} returned indices outside the "
                "history", ())
        ok, reason = validate_linearization(sequence)
        if not ok:
            return orders, Verdict(
                "linearization", FAIL, f"reg[{target}]: {reason}",
                tuple(i.start for i in sequence if i.start is not None))
    return orders, Verdict("linearization", PASS,
                           f"{len(targets)} registers" if targets else "empty")


@st.composite
def register_traces(draw):
    """One sequential writer of a register and sequential readers of it.

    The writer is correct p0, or Byzantine p3, whose writes show only as
    applies at the correct processes, each in sn order. Every step of
    every process is interleaved at random, each read returns a random
    index, and the trace may stop early, leaving operations open.
    """
    byzantine = draw(st.booleans())
    writer = 3 if byzantine else 0
    others = [p for p in range(4) if p != writer]
    writes = draw(st.integers(0, 4))
    # each process's steps in program order: ("apply", node, x) or
    # ("start"/"end", process, kind, op_id)
    if byzantine:
        queues = [[("apply", node, x) for x in range(1, writes + 1)]
                  for node in others]
    else:
        queues = [[step for x in range(1, writes + 1)
                   for step in (("start", 0, "WRITE", f"w{x}"), ("apply", 0, x),
                                ("end", 0, "WRITE", f"w{x}"))]]
    for reader in others:
        ids = [f"r{reader}.{k}" for k in range(draw(st.integers(0, 4)))]
        queues.append([step for op_id in ids
                       for step in (("start", reader, "READ", op_id),
                                    ("end", reader, "READ", op_id))])
    events = []
    written = 0
    while any(queues):
        queue = draw(st.sampled_from([q for q in queues if q]))
        step, seq = queue.pop(0), len(events)
        if step[0] == "apply":
            _, node, x = step
            events.append(rdeliver(node, writer, f"v{x}", x, seq=seq))
        elif step[0] == "start":
            _, p, kind, op_id = step
            value = f"v{written + 1}" if kind == "WRITE" else None
            events.append(op_start(p, kind, op_id, writer, seq=seq,
                                   value=value))
        else:
            _, p, kind, op_id = step
            if kind == "WRITE":
                written += 1
                x = written
            else:
                x = draw(st.integers(0, writes))
            events.append(op_end(p, kind, op_id, writer,
                                 f"v{x}" if x else None, x, seq=seq))
    cut = len(events)
    if draw(st.booleans()):
        cut = draw(st.integers(0, cut))
    return make_trace(events[:cut], byz=(3,) if byzantine else (),
                      outcome="QUIESCENT" if cut == len(events) else "STUCK")


class TestSweepMatchesPairwiseScan:
    def test_every_golden_case(self):
        failures = 0
        for key, cfg in golden_cases().items():
            trace = Simulation(cfg).run()
            history = derive_histories(trace)
            sweep = check_safety(history, trace)
            assert sweep == pairwise_safety(history, trace), key
            failures += sum(v.status == FAIL for v in sweep)
        assert failures  # the mutation cases give counterexamples to compare

    @settings(max_examples=300, deadline=None)
    @given(register_traces())
    def test_synthetic_histories(self, trace):
        history = derive_histories(trace)
        assert check_safety(history, trace) == pairwise_safety(history, trace)

    @staticmethod
    def chained(ops):
        """Back-to-back operations on register 0: (kind, op_id, index)."""
        events = []
        for kind, op_id, index in ops:
            node = 0 if kind == "WRITE" else 1
            events.append(op_start(node, kind, op_id, 0, seq=len(events)))
            if kind == "WRITE":
                events.append(rdeliver(0, 0, f"v{index}", index,
                                       seq=len(events)))
            events.append(op_end(node, kind, op_id, 0, f"v{index}", index,
                                 seq=len(events)))
        trace = make_trace(events)
        return {v.prop: v.detail
                for v in check_safety(derive_histories(trace), trace)}

    @pytest.mark.parametrize("m", [2, 3, 10, 40])
    def test_sequential_reads_give_m_choose_2_inversion_pairs(self, m):
        details = self.chained([("READ", f"r{k}", 0) for k in range(m)])
        assert details["no-read-inversion"] == f"{m * (m - 1) // 2} pairs"

    @pytest.mark.parametrize("w,m", [(1, 2), (3, 4), (7, 2)])
    def test_writes_then_reads_pair_every_write_with_every_read(self, w, m):
        ops = [("WRITE", f"w{x}", x) for x in range(1, w + 1)]
        ops += [("READ", f"r{k}", w) for k in range(m)]
        details = self.chained(ops)
        assert details["write-followed-by-read"] == f"{w * m} pairs"
        assert (details["read-followed-by-write"]
                == "no read strictly precedes a write")
        assert details["no-read-inversion"] == f"{m * (m - 1) // 2} pairs"

    @pytest.mark.parametrize("m,w", [(1, 1), (4, 3), (2, 7)])
    def test_reads_then_writes_pair_every_read_with_every_write(self, m, w):
        ops = [("READ", f"r{k}", 0) for k in range(m)]
        ops += [("WRITE", f"w{x}", x) for x in range(1, w + 1)]
        details = self.chained(ops)
        assert details["read-followed-by-write"] == f"{m * w} pairs"


class TestWitnessMatchesNestedLoop:
    def test_every_golden_case(self):
        reads = 0
        for key, cfg in golden_cases().items():
            trace = Simulation(cfg).run()
            history = derive_histories(trace)
            witness = build_linearization(history, trace)
            assert witness == nested_loop_linearization(history, trace), key
            reads += sum(i.kind == "read" for order in witness[0].values()
                         for i in order)
        assert reads  # the orders place reads, not only writes

    @settings(max_examples=300, deadline=None)
    @given(register_traces())
    def test_synthetic_histories(self, trace):
        history = derive_histories(trace)
        assert (build_linearization(history, trace)
                == nested_loop_linearization(history, trace))


class TestCheckRb:
    def _app_send(self, origin, value, sn):
        return ev("SEND", origin, App(value, sn), receiver=0)

    @staticmethod
    def statuses(trace):
        return {v.prop: v.status
                for v in check_rb(derive_histories(trace), trace)}

    def test_clean_run_all_pass(self):
        events = [self._app_send(0, "x", 1)]
        events += [rdeliver(node, 0, "x", 1) for node in (0, 1, 2)]
        verdicts = self.statuses(make_trace(events, byz=(3,)))
        assert verdicts == {"rb-validity": PASS, "rb-integrity": PASS,
                            "rb-uniformity": PASS, "rb-termination": PASS}

    def test_double_delivery_fails_integrity(self):
        events = [self._app_send(0, "x", 1),
                  rdeliver(1, 0, "x", 1),
                  rdeliver(1, 0, "x", 1)]
        verdicts = self.statuses(make_trace(events))
        assert verdicts["rb-integrity"] == FAIL

    def test_split_values_fail_uniformity(self):
        events = [rdeliver(0, 3, "a", 1), rdeliver(1, 3, "b", 1)]
        verdicts = self.statuses(make_trace(events, byz=(3,)))
        assert verdicts["rb-uniformity"] == FAIL

    def test_partial_delivery_fails_uniformity_only_when_quiescent(self):
        events = [rdeliver(0, 3, "a", 1)]
        quiescent = make_trace(events, byz=(3,))
        cut_short = make_trace(events, byz=(3,), outcome="BUDGET_EXCEEDED")
        # settled: only messages to Byzantine processes went undelivered
        settled = make_trace(events, byz=(3,), outcome="SETTLED")
        assert self.statuses(quiescent)["rb-uniformity"] == FAIL
        assert self.statuses(cut_short)["rb-uniformity"] == PASS
        assert self.statuses(settled)["rb-uniformity"] == FAIL

    def test_spurious_delivery_fails_validity(self):
        events = [rdeliver(1, 0, "forged", 1)]
        verdicts = self.statuses(make_trace(events))
        assert verdicts["rb-validity"] == FAIL

    def test_missing_delivery_fails_termination(self):
        events = [self._app_send(0, "x", 1), rdeliver(0, 0, "x", 1)]
        verdicts = self.statuses(make_trace(events))
        assert verdicts["rb-termination"] == FAIL


class TestCheckTermination:
    def test_budget_run_is_nonterminating(self):
        trace = make_trace([], outcome="BUDGET_EXCEEDED")
        trace.diagnostics = ["r1: running"]
        verdict = check_termination(derive_histories(trace), trace)
        assert verdict.status == "NONTERMINATING"
        assert "r1" in verdict.detail

    def test_zero_operations_pass(self):
        trace = make_trace([])
        assert check_termination(derive_histories(trace), trace).status == PASS

    def test_open_operations_fail_in_start_order(self):
        events = [op_start(1, "READ", "r9", 0, seq=0),
                  op_start(0, "WRITE", "w1", 0, seq=1, value="a"),
                  op_start(2, "READ", "r2", 0, seq=2),
                  op_end(0, "WRITE", "w1", 0, "a", 1, seq=3)]
        trace = make_trace(events)
        verdict = check_termination(derive_histories(trace), trace)
        assert verdict.status == FAIL
        assert verdict.detail == "operations never completed: ['r9', 'r2']"
        assert verdict.counterexample == (0, 2)

    def test_settled_run_with_an_open_operation_fails(self):
        events = [op_start(1, "READ", "r1", 0, seq=0)]
        trace = make_trace(events, byz=(3,), outcome="SETTLED")
        verdict = check_termination(derive_histories(trace), trace)
        assert verdict.status == FAIL
        assert verdict.counterexample == (0,)


class TestLinearization:
    def _read(self, op_id, invoker, index, start, end):
        return OperationRecord("READ", op_id, invoker, 0, start, end,
                               value=f"v{index}", index=index)

    def _write(self, op_id, index, start, end):
        return OperationRecord("WRITE", op_id, 0, 0, start, end,
                               value=f"v{index}", index=index)

    def _history(self, ops, n_writes):
        values = {0: [f"v{x}" for x in range(1, n_writes + 1)]}
        return History(
            values=values, ops=ops,
            writes={0: [op for op in ops if op.kind == "WRITE"]},
            reads={0: [op for op in ops
                       if op.kind == "READ" and op.completed()]})

    def test_concurrent_reads_of_same_write_sit_together(self):
        ops = [self._write("w1", 1, 0, 5),
               self._read("r1", 1, 1, 1, 6),
               self._read("r2", 2, 1, 2, 7)]
        hist = self._history(ops, 1)
        orders, verdict = build_linearization(hist, make_trace([]))
        assert verdict.status == PASS
        assert [i.label for i in orders[0]] == ["init", "write[1]", "r1", "r2"]

    def test_read_concurrent_with_writes_lands_after_its_write(self):
        # writes 1..5 back to back; a read overlapping writes 3..5 returns 4
        ops = [self._write(f"w{x}", x, 10 * x, 10 * x + 5)
               for x in range(1, 6)]
        ops.append(self._read("r1", 1, 4, 31, 55))
        hist = self._history(ops, 5)
        orders, verdict = build_linearization(hist, make_trace([]))
        assert verdict.status == PASS
        labels = [i.label for i in orders[0]]
        assert labels.index("r1") == labels.index("write[4]") + 1

    def test_read_of_an_index_past_the_history_is_reported_lost(self):
        ops = [self._write("w1", 1, 0, 5),
               self._read("r1", 1, 1, 6, 8),
               self._write("w2", 2, 10, 15),
               self._read("r2", 2, 3, 16, 20)]
        hist = self._history(ops, 2)
        orders, verdict = build_linearization(hist, make_trace([]))
        assert verdict == Verdict(
            "linearization", FAIL,
            "reg[0]: reads ['r2'] returned indices outside the history", ())
        assert [i.label for i in orders[0]] == [
            "init", "write[1]", "r1", "write[2]"]

    def test_empty_history_is_trivially_linearizable(self):
        orders, verdict = build_linearization(
            self._history([], 0), make_trace([]))
        assert verdict.status == PASS

    def test_real_time_violation_rejected_by_validator(self):
        items = [LinItem("write", 0, None, -1, "init"),
                 LinItem("read", 0, 10, 12, "late"),
                 LinItem("read", 0, 0, 2, "early")]
        ok, reason = validate_linearization(items)
        assert not ok and "early" in reason

    def test_brute_force_agrees_on_impossible_history(self):
        # both writes finish, then two sequential reads return 2 then 1:
        # no order can satisfy both reads
        items = [
            LinItem("write", 0, None, -1, "init"),
            LinItem("write", 1, 0, 1, "write[1]"),
            LinItem("write", 2, 2, 3, "write[2]"),
            LinItem("read", 2, 4, 5, "r1"),
            LinItem("read", 1, 6, 7, "r2"),
        ]
        assert not brute_force_linearizable(items)

    def test_brute_force_agrees_with_witness_on_real_runs(self):
        cfg = ScenarioConfig(
            name="tiny", n=4, t=1, seed=0,
            workload=[
                WorkloadOp("w1", 0, "write", value="a", at=0),
                WorkloadOp("r1", 1, "read", target=0, after="w1"),
                WorkloadOp("w2", 0, "write", value="b", after="w1"),
                WorkloadOp("r2", 2, "read", target=0, after="r1"),
            ])
        cfg.validate()
        for seed in range(10):
            trace = Simulation(cfg.with_seed(seed)).run()
            report = run_all_checks(trace)
            assert report.ok(), report.failures()
            for target, sequence in report.linearizations.items():
                ok, reason = validate_linearization(sequence)
                assert ok, reason
                assert brute_force_linearizable(sequence)


class TestCostAccounting:
    def test_fault_free_run_has_exact_costs(self):
        cfg = ScenarioConfig(
            name="golden", n=4, t=1, seed=0,
            workload=[
                WorkloadOp("w1", 0, "write", value="a", at=0),
                WorkloadOp("r1", 1, "read", target=0, after="w1"),
            ])
        cfg.validate()
        trace = Simulation(cfg).run()
        report = count_messages(derive_histories(trace), trace)
        assert report.per_op["w1"].counts == {
            "APP": 4, "ECHO": 16, "READY": 16, "WRITE_DONE": 4}
        assert report.per_op["r1"].counts == {
            "READ": 4, "STATE": 4, "CATCH_UP": 4, "CATCH_UP_DONE": 4}
        assert report.verdict.status == PASS
        assert report.unattributed == 0

    def test_repeated_payload_is_charged_as_a_lookup_would(self):
        """A payload object sent again after an OP_START, or a reply whose
        op depends on its receiver, is not charged as one batch."""
        catch_up, ack = CatchUp(0, 1), WriteDone(1)

        def send(payload, receiver):
            return ev("SEND", 1, payload, receiver=receiver)

        history = derive_histories(make_trace([
            op_start(0, "WRITE", "w0", 0), op_start(2, "WRITE", "w2", 2),
            op_start(1, "READ", "r1", 0),
            send(ack, 0), send(ack, 2),
            send(catch_up, 0), send(catch_up, 1),
            op_start(1, "READ", "r2", 0),
            send(catch_up, 2)]))
        assert {op.op_id: op.counts for op in history.ops} == {
            "w0": {"WRITE_DONE": 1}, "w2": {"WRITE_DONE": 1},
            "r1": {"CATCH_UP": 2}, "r2": {"CATCH_UP": 1}}
        assert history.unattributed == 0

    def test_catch_up_attribution_matches_linear_walk(self):
        """Catch-up sends go to the requester's latest read of that register
        started at or before the send, as a walk over all its reads finds."""
        length = 12
        ops = []
        for writer in (0, 1):
            ops += [WorkloadOp(f"w{writer}.{k}", writer, "write", value=k,
                               **({"at": 0} if k == 1
                                  else {"after": f"w{writer}.{k - 1}"}))
                    for k in range(1, length + 1)]
        for p in range(2, 7):
            ops += [WorkloadOp(f"r{p}.{k}", p, "read", target=k % 2,
                               **({"at": p} if k == 1
                                  else {"after": f"r{p}.{k - 1}"}))
                    for k in range(1, length + 1)]
        cfg = ScenarioConfig(name="chained", n=7, t=2, seed=3, workload=ops)
        cfg.validate()
        trace = Simulation(cfg).run()
        history = derive_histories(trace)
        reads = sorted((op for op in history.ops if op.kind == "READ"),
                       key=lambda o: o.start_seq)
        correct = set(trace.correct_nodes())
        expected = collections.Counter()
        for event in trace.events:
            if event["kind"] != "SEND" or event["sender"] not in correct:
                continue
            tag = event["payload"]["tag"]
            if tag not in ("CATCH_UP", "CATCH_UP_DONE"):
                continue
            reader = event["sender"] if tag == "CATCH_UP" else event["receiver"]
            owner = None
            for op in reads:
                if (op.invoker == reader
                        and op.target == event["payload"]["target"]
                        and op.start_seq <= event["seq"]):
                    owner = op.op_id
            if owner is not None:
                expected[(owner, tag)] += 1
        report = count_messages(history, trace)
        got = collections.Counter({
            (op_id, tag): count for op_id, cost in report.per_op.items()
            for tag, count in cost.counts.items()
            if tag in ("CATCH_UP", "CATCH_UP_DONE")})
        assert len(reads) == 5 * length
        assert got == expected


class TestPayloadsReadOnly:
    @pytest.mark.parametrize("strategy", [None, "EQUIVOCATE_WRITE",
                                          "READY_POISON", "COLLUDE_DELAY"])
    def test_checks_leave_the_trace_unchanged(self, strategy):
        trace = Simulation(matrix_scenario(7, strategy, seed=1)).run()
        before = trace.trace_hash()
        run_all_checks(trace)
        assert trace.trace_hash() == before


def mutated(name, mutation):
    cfg = resolve_scenario(name)
    cfg.mutations = frozenset({mutation})
    return cfg


class TestSinglePass:
    @pytest.mark.parametrize("cfg", [
        matrix_scenario(7, None, seed=1),
        matrix_scenario(4, "EQUIVOCATE_WRITE", seed=1),
        matrix_scenario(4, "READY_POISON", seed=1),
        mutated("mut-equivocate-selective", "READY_DELIVER_AT_2T"),
        mutated("read-inversion-window", "NO_FRESHNESS"),
    ], ids=lambda cfg: f"{cfg.name}+{','.join(cfg.mutations)}")
    def test_checks_need_no_events_after_derive_histories(self, cfg):
        trace = Simulation(cfg).run()
        intact = run_all_checks(trace)
        history = derive_histories(trace)
        trace.events.clear()
        verdicts = [*history.derivation_verdicts,
                    *check_safety(history, trace),
                    *check_rb(history, trace),
                    check_termination(history, trace)]
        cost = count_messages(history, trace)
        verdicts.append(cost.verdict)
        orders, lin_verdict = build_linearization(history, trace)
        if not intact.failures():
            verdicts.append(lin_verdict)
            assert orders == intact.linearizations
        assert verdicts == intact.verdicts
        assert ({k: c.counts for k, c in cost.per_op.items()}
                == {k: c.counts for k, c in intact.cost.per_op.items()})
        assert cost.unattributed == intact.cost.unattributed


class TestQuorumArithmetic:
    @pytest.mark.parametrize("n,t", [(4, 1), (5, 1), (7, 2), (8, 2), (10, 3)])
    def test_formula_matches_enumeration(self, n, t):
        assert (min_quorum_intersection(n, t)
                == min_quorum_intersection_enumerated(n, t))

    def test_intersection_bound_holds_up_to_fifty(self):
        pairs = [(n, t) for n in range(2, 51) for t in range(0, n)
                 if 3 * t < n]
        assert pairs
        for n, t in pairs:
            assert min_quorum_intersection(n, t) == n - 2 * t
            assert quorum_intersection_holds(n, t), (n, t)

    def test_bound_fails_when_t_exceeds_a_third(self):
        assert not quorum_intersection_holds(6, 2)
        assert not quorum_intersection_holds(9, 3)
