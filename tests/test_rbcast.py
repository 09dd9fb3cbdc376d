"""Unit tests for the reliable broadcast state machine.

Thresholds for the n=4, t=1 fixture, worked out from the rules:
echo quorum is "strictly more than (n+t)/2 = 2.5", i.e. 3 distinct senders;
ready amplification at t+1 = 2; delivery at 2t+1 = 3.
"""
import pytest

from byzreg.errors import ProtocolMisuseError
from byzreg.messages import App, Echo, Ready
from byzreg.rbcast import (PENDING_CAP, Broadcast, RDeliver, ReliableBroadcast,
                           Send)


def make_node(node_id=0, n=4, t=1, **kw):
    return ReliableBroadcast(node_id, n, t, **kw)


def sends(effects):
    """The Sends in effects, each Broadcast expanded to processes 0..3."""
    out = []
    for e in effects:
        if isinstance(e, Broadcast):
            out.extend(Send(dest, e.payload) for dest in range(4))
        elif isinstance(e, Send):
            out.append(e)
    return out


def deliveries(effects):
    return [e for e in effects if isinstance(e, RDeliver)]


def feed_ready(node, origin, value, sn, senders):
    out = []
    for s in senders:
        out.extend(node.on_ready(origin, value, sn, s))
    return out


class TestBroadcast:
    def test_first_broadcast_expands_to_all(self):
        node = make_node()
        out = sends(node.broadcast("a", 1))
        assert [s.dest for s in out] == [0, 1, 2, 3]
        assert all(s.payload == App("a", 1) for s in out)

    def test_consecutive_numbering(self):
        node = make_node()
        node.broadcast("a", 1)
        out = node.broadcast("b", 2)
        assert all(s.payload.sn == 2 for s in out)

    def test_non_consecutive_sn_rejected(self):
        node = make_node()
        node.broadcast("a", 1)
        with pytest.raises(ProtocolMisuseError):
            node.broadcast("b", 5)


class TestOnApp:
    def test_first_app_with_guard_true_echoes(self):
        node = make_node()
        out = node.on_app(2, "a", 1)
        assert [s.payload for s in sends(out)] == [Echo(2, "a", 1)] * 4

    def test_second_app_same_instance_discarded(self):
        node = make_node()
        node.on_app(2, "a", 1)
        assert node.on_app(2, "b", 1) == []
        # an identical retransmission does not re-trigger either
        assert node.on_app(2, "a", 1) == []

    def test_future_sn_buffered_until_guard(self):
        node = make_node()
        assert node.on_app(2, "c", 3) == []
        out = self._deliver(node, 2, "a", 1)
        assert Echo(2, "c", 3) not in [s.payload for s in sends(out)]
        out = self._deliver(node, 2, "b", 2)
        # delivering sn 2 moves next to 3, releasing the buffered echo
        assert node.next_sn[2] == 3
        echoes = [s for s in sends(out) if isinstance(s.payload, Echo)]
        assert echoes == [Send(d, Echo(2, "c", 3)) for d in range(4)]
        # once released, a retransmitted APP does not echo again
        assert node.on_app(2, "c", 3) == []

    def _deliver(self, node, origin, value, sn):
        out = feed_ready(node, origin, value, sn, [0, 1, 2])
        assert deliveries(out) == [RDeliver(origin, value, sn)]
        return out


class TestOnEcho:
    def test_three_distinct_echoes_trigger_ready(self):
        node = make_node()
        assert sends(node.on_echo(2, "a", 1, 0)) == []
        assert sends(node.on_echo(2, "a", 1, 1)) == []
        out = sends(node.on_echo(2, "a", 1, 3))
        assert [s.payload for s in out] == [Ready(2, "a", 1)] * 4

    def test_repeated_sender_not_counted(self):
        node = make_node()
        node.on_echo(2, "a", 1, 0)
        node.on_echo(2, "a", 1, 1)
        assert node.on_echo(2, "a", 1, 1) == []
        assert len(node.echo_senders[(2, 1)]["a"]) == 2

    def test_no_second_ready(self):
        node = make_node()
        for sender in (0, 1, 3):
            node.on_echo(2, "a", 1, sender)
        assert node.on_echo(2, "a", 1, 2) == []

    def test_equivocation_splits_counts_per_value(self):
        node = make_node()
        node.on_echo(2, "a", 1, 0)
        node.on_echo(2, "b", 1, 1)
        node.on_echo(2, "a", 1, 1)
        assert len(node.echo_senders[(2, 1)]["a"]) == 2
        assert len(node.echo_senders[(2, 1)]["b"]) == 1


class TestOnReady:
    def test_amplification_at_t_plus_one(self):
        node = make_node()
        assert node.on_ready(2, "a", 1, 0) == []
        out = sends(node.on_ready(2, "a", 1, 1))
        assert [s.payload for s in out] == [Ready(2, "a", 1)] * 4

    def test_delivery_at_2t_plus_one_exactly_once(self):
        node = make_node()
        out = feed_ready(node, 2, "a", 1, [0, 1, 3])
        assert deliveries(out) == [RDeliver(2, "a", 1)]
        assert node.next_sn[2] == 2
        # a fourth distinct READY must not deliver again
        assert deliveries(node.on_ready(2, "a", 1, 2)) == []

    def test_no_amplification_after_own_ready(self):
        node = make_node()
        for sender in (0, 1, 3):
            node.on_echo(2, "a", 1, sender)  # node already sent READY
        assert sends(node.on_ready(2, "a", 1, 0)) == []
        assert sends(node.on_ready(2, "a", 1, 1)) == []


class TestFifoDelivery:
    def test_out_of_order_quorums_deliver_in_sequence_order(self):
        node = make_node()
        # the quorum for sn 2 completes first; delivery still waits for sn 1
        assert deliveries(feed_ready(node, 2, "b", 2, [0, 1, 3])) == []
        out = feed_ready(node, 2, "a", 1, [0, 1, 3])
        assert deliveries(out) == [RDeliver(2, "a", 1), RDeliver(2, "b", 2)]
        assert node.next_sn[2] == 3

    def test_first_value_to_complete_a_quorum_wins(self):
        node = make_node()
        # a waiting instance with two full READY quorums (only possible
        # beyond t faults) delivers the value whose votes came first
        feed_ready(node, 2, "b", 2, [0, 1, 3])
        feed_ready(node, 2, "a", 2, [0, 1, 3])
        out = feed_ready(node, 2, "x", 1, [0, 1, 3])
        assert deliveries(out) == [RDeliver(2, "x", 1), RDeliver(2, "b", 2)]

    def test_gap_blocks_forever(self):
        node = make_node()
        assert deliveries(feed_ready(node, 2, "c", 3, [0, 1, 3])) == []
        assert node.next_sn[2] == 1


class TestBookkeeping:
    def test_retired_instance_ignores_stragglers(self):
        node = make_node()
        node.on_app(2, "a", 1)
        for sender in (0, 1, 3):
            node.on_echo(2, "a", 1, sender)
        feed_ready(node, 2, "a", 1, [0, 1, 3])
        assert node.on_echo(2, "a", 1, 2) == []
        assert (2, 1) not in node.echo_senders
        assert (2, 1) not in node.ready_senders
        assert (2, 1) not in node.readied
        assert 1 not in node.first_app[2]

    def test_pending_cap_drops_oldest_waiter(self):
        node = make_node()
        node.on_app(2, "h", 1)  # the echoed head does not count
        future = range(10, 10 + PENDING_CAP)
        for sn in future:
            node.on_app(2, f"v{sn}", sn)
        assert list(node.first_app[2]) == [1, *future]
        node.on_app(2, "late", 10 + PENDING_CAP)
        assert list(node.first_app[2]) == [1, *future[1:], 10 + PENDING_CAP]

    def test_self_loopback_counts_self(self):
        node = make_node(node_id=0)
        node.broadcast("a", 1)
        out = node.on_app(0, "a", 1)  # own APP comes back via the network
        assert [s.payload for s in sends(out)] == [Echo(0, "a", 1)] * 4
