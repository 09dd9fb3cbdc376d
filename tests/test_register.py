"""Unit tests for the register protocol handlers, n=4, t=1 throughout.

Quorum sizes worked out from the rules: write and read quorums are
n-t = 3 acknowledgers; the freshness check needs 3 reports at or below the
local sequence number.
"""
import pytest

from byzreg.errors import ProtocolMisuseError
from byzreg.messages import (App, CatchUp, CatchUpDone, ReadReq, Ready,
                             StateReply, WriteDone)
from byzreg.mutations import (ECHO_THRESHOLD_NONSTRICT, READ_QUORUM_MINUS_ONE,
                              READY_DELIVER_AT_2T)
from byzreg.register import Complete, RegEntry, RegisterNode
from byzreg.rbcast import Broadcast, RDeliver, Send


def make_node(node_id=0, n=4, t=1, **kw):
    return RegisterNode(node_id, n, t, **kw)


def sends(effects):
    """The Sends in effects, each Broadcast expanded to processes 0..3."""
    out = []
    for e in effects:
        if isinstance(e, Broadcast):
            out.extend(Send(dest, e.payload) for dest in range(4))
        elif isinstance(e, Send):
            out.append(e)
    return out


def payloads(effects):
    return [e.payload for e in sends(effects)]


def completions(effects):
    return [e for e in effects if isinstance(e, Complete)]


def rdeliver(node, writer, value, sn):
    """Feed node a READY quorum for (writer, value, sn) through handle."""
    out = []
    for sender in (1, 2, 3):
        out.extend(node.handle(sender, Ready(writer, value, sn)))
    return out


class TestBeginWrite:
    def test_first_write_broadcasts_sn_one(self):
        node = make_node()
        out = node.begin_write("x")
        assert payloads(out) == [App("x", 1)] * 4

    def test_third_write_uses_sn_three(self):
        node = make_node()
        for sn in (1, 2):
            node.begin_write(f"v{sn}")
            node.pending_write = None  # pretend the write completed
        out = node.begin_write("v3")
        assert payloads(out)[0].sn == 3

    def test_write_while_pending_rejected(self):
        node = make_node()
        node.begin_write("x")
        with pytest.raises(ProtocolMisuseError):
            node.begin_write("y")


class TestQuorums:
    @staticmethod
    def thresholds(node):
        return {"echo": node.rb.echo_quorum, "deliver": node.rb.deliver_quorum,
                "read": node.read_quorum}

    def test_unmutated_thresholds(self):
        # n+t = 6: strictly more than 3 ECHOs, 2t+1 READYs, n-t replies
        assert self.thresholds(make_node(n=5)) == {
            "echo": 4, "deliver": 3, "read": 4}

    @pytest.mark.parametrize("mutation,moved", [
        (ECHO_THRESHOLD_NONSTRICT, "echo"),
        (READY_DELIVER_AT_2T, "deliver"),
        (READ_QUORUM_MINUS_ONE, "read"),
    ])
    def test_each_mutation_lowers_only_its_threshold_by_one(self, mutation,
                                                            moved):
        # n+t must be even: when it is odd, "more than (n+t)/2" and "at
        # least (n+t)/2" are the same integer threshold
        expected = self.thresholds(make_node(n=5))
        expected[moved] -= 1
        node = make_node(n=5, mutations=frozenset({mutation}))
        assert self.thresholds(node) == expected


class TestWriteDelivery:
    def test_in_sequence_write_applies_and_acks(self):
        node = make_node()
        out = rdeliver(node, 2, "a", 1)
        assert node.registers[2] == RegEntry("a", 1)
        assert RDeliver(2, "a", 1) in out
        assert Send(2, WriteDone(1)) in out

    def test_gap_buffers_without_state_change(self):
        node = make_node()
        out = rdeliver(node, 2, "c", 3)
        assert not any(isinstance(e, RDeliver) for e in out)
        assert not any(isinstance(p, WriteDone) for p in payloads(out))
        assert node.registers[2].sn == 0

    def test_buffered_writes_drain_in_order(self):
        node = make_node()
        rdeliver(node, 2, "c", 3)
        rdeliver(node, 2, "a", 1)
        out = rdeliver(node, 2, "b", 2)
        assert node.registers[2] == RegEntry("c", 3)
        acks = [p.sn for p in payloads(out) if isinstance(p, WriteDone)]
        assert acks == [2, 3]


class TestWriteCompletion:
    def test_completes_at_n_minus_t_acks(self):
        node = make_node()
        node.begin_write("x")
        assert node.handle(1, WriteDone(1)) == []
        assert node.handle(2, WriteDone(1)) == []
        done = completions(node.handle(3, WriteDone(1)))
        assert done == [Complete("write", 0, "x", 1)]
        assert node.pending_write is None

    def test_duplicate_ack_not_counted(self):
        node = make_node()
        node.begin_write("x")
        node.handle(1, WriteDone(1))
        node.handle(1, WriteDone(1))
        assert len(node.pending_write.acks) == 1

    def test_mismatched_sn_ignored(self):
        node = make_node()
        node.begin_write("x")  # pending sn is 1
        assert node.handle(1, WriteDone(2)) == []
        assert node.pending_write.acks == set()


class TestBeginRead:
    def test_first_read_broadcasts_rsn_one(self):
        node = make_node()
        out = node.begin_read(2)
        assert payloads(out) == [ReadReq(2, 1)] * 4

    def test_second_read_increments_rsn(self):
        node = make_node()
        node.begin_read(2)
        node.pending_read = None
        out = node.begin_read(2)
        assert payloads(out)[0].rsn == 2

    def test_read_while_pending_rejected(self):
        node = make_node()
        node.begin_read(2)
        with pytest.raises(ProtocolMisuseError):
            node.begin_read(1)


class TestServeRead:
    def test_state_reflects_current_sn(self):
        node = make_node()
        for sn in range(1, 6):
            rdeliver(node, 2, f"v{sn}", sn)
        out = node.handle(3, ReadReq(2, 7))
        assert payloads(out) == [StateReply(2, 7, 5)]

    def test_initial_register_reports_zero(self):
        node = make_node()
        out = node.handle(3, ReadReq(2, 1))
        assert payloads(out) == [StateReply(2, 1, 0)]

    def test_each_request_echoes_its_rsn(self):
        node = make_node()
        first = node.handle(3, ReadReq(2, 1))
        second = node.handle(3, ReadReq(2, 2))
        assert payloads(first)[0].rsn == 1
        assert payloads(second)[0].rsn == 2


class TestFreshness:
    def test_three_stale_enough_reports_fire_catch_up(self):
        node = make_node()
        rdeliver(node, 2, "a", 1)
        rdeliver(node, 2, "b", 2)
        node.begin_read(2)
        node.handle(0, StateReply(2, 1, 1))
        node.handle(1, StateReply(2, 1, 2))
        out = node.handle(3, StateReply(2, 1, 2))
        assert payloads(out) == [CatchUp(2, 2)] * 4
        assert node.pending_read.chosen == RegEntry("b", 2)

    def test_inflated_reports_do_not_satisfy_guard(self):
        node = make_node()
        rdeliver(node, 2, "a", 1)
        rdeliver(node, 2, "b", 2)
        node.begin_read(2)
        for sender in (0, 1, 3):
            assert node.handle(sender, StateReply(2, 1, 5)) == []
        # a fourth, small report still leaves only one value <= 2
        assert node.handle(2, StateReply(2, 1, 0)) == []
        assert node.pending_read.chosen is None

    def test_guard_reevaluated_when_register_catches_up(self):
        node = make_node()
        node.begin_read(2)
        for sender, rep in ((0, 1), (1, 1), (3, 0)):
            node.handle(sender, StateReply(2, 1, rep))
        # two reports <= 0; applying sn 1 makes it three
        out = rdeliver(node, 2, "a", 1)
        assert any(isinstance(p, CatchUp) and p.sn == 1 for p in payloads(out))

    def test_catch_up_ack_during_freshness_ignored(self):
        node = make_node()
        node.begin_read(2)
        assert node.handle(0, CatchUpDone(2, 0)) == []
        assert node.pending_read.acks == set()

    def test_stale_rsn_ignored(self):
        node = make_node()
        node.begin_read(2)
        assert node.handle(0, StateReply(2, 99, 0)) == []
        assert node.pending_read.reports == {}

    def test_first_report_per_sender_kept(self):
        node = make_node()
        node.begin_read(2)
        node.handle(0, StateReply(2, 1, 7))
        node.handle(0, StateReply(2, 1, 0))
        assert node.pending_read.reports == {0: 7}


class TestCatchUp:
    def test_satisfied_guard_acks_immediately(self):
        node = make_node()
        for sn in (1, 2, 3):
            rdeliver(node, 2, f"v{sn}", sn)
        out = node.handle(1, CatchUp(2, 2))
        assert payloads(out) == [CatchUpDone(2, 2)]

    def test_deferred_until_register_reaches_sn(self):
        node = make_node()
        rdeliver(node, 2, "a", 1)
        assert node.handle(1, CatchUp(2, 4)) == []
        for sn in (2, 3):
            rdeliver(node, 2, f"v{sn}", sn)
        out = rdeliver(node, 2, "v4", 4)
        assert Send(1, CatchUpDone(2, 4)) in out

    def test_absurd_sn_waits_forever_harmlessly(self):
        node = make_node()
        assert node.handle(1, CatchUp(2, 10 ** 9)) == []
        assert node.catchup_waiting == [(2, 10 ** 9, 1)]
        # unrelated traffic still served
        assert node.handle(3, ReadReq(2, 1)) != []

    def test_waiting_request_is_diagnosed(self):
        node = make_node()
        rdeliver(node, 2, "a", 1)
        node.handle(1, CatchUp(2, 4))
        assert node.guard_diagnostics() == [
            "p0: catch-up to sn 4 of reg[2] for p1 waiting (local sn 1)"]


class TestReadCompletion:
    def _reading_node(self):
        node = make_node()
        rdeliver(node, 2, "a", 1)
        node.begin_read(2)
        for sender in (0, 1, 3):
            node.handle(sender, StateReply(2, 1, 1))
        assert node.pending_read.chosen is not None
        return node

    def test_returns_at_n_minus_t_acks(self):
        node = self._reading_node()
        node.handle(0, CatchUpDone(2, 1))
        node.handle(1, CatchUpDone(2, 1))
        done = completions(node.handle(3, CatchUpDone(2, 1)))
        assert done == [Complete("read", 2, "a", 1)]
        assert node.pending_read is None

    def test_wrong_sn_ignored(self):
        node = self._reading_node()
        assert node.handle(0, CatchUpDone(2, 9)) == []
        assert node.pending_read.acks == set()

    def test_freshness_round_ends_once(self):
        node = self._reading_node()
        # a late report, or a newer write applied, starts no second round
        assert node.handle(2, StateReply(2, 1, 1)) == []
        out = rdeliver(node, 2, "b", 2)
        assert not any(isinstance(p, CatchUp) for p in payloads(out))
        assert node.pending_read.chosen == RegEntry("a", 1)

    def test_duplicate_ack_not_double_counted(self):
        node = self._reading_node()
        node.handle(0, CatchUpDone(2, 1))
        node.handle(0, CatchUpDone(2, 1))
        assert len(node.pending_read.acks) == 1

    def test_missing_catch_up_acks_are_diagnosed(self):
        node = self._reading_node()
        node.handle(3, CatchUpDone(2, 1))
        assert node.guard_diagnostics() == [
            "p0: read of reg[2] has 1/3 catch-up acks"]


class TestMonotonicity:
    def test_register_sn_never_decreases(self):
        node = make_node()
        seen = [0]
        for sn in (3, 1, 5, 2, 4):
            rdeliver(node, 2, f"v{sn}", sn)
            seen.append(node.registers[2].sn)
        assert seen == sorted(seen)
        assert node.registers[2].sn == 5

    def test_sequential_process_cannot_mix_ops(self):
        node = make_node()
        node.begin_write("x")
        with pytest.raises(ProtocolMisuseError):
            node.begin_read(1)
