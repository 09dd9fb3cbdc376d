"""Randomized invariant tests for the protocol state machines.

These throw arbitrary (including Byzantine-shaped) message sequences at a
single node and check the structural invariants that the proofs lean on.
"""
from hypothesis import given, settings, strategies as st

from byzreg.messages import (CatchUp, CatchUpDone, Echo, ReadReq, Ready,
                             StateReply)
from byzreg.rbcast import RDeliver, ReliableBroadcast
from byzreg.register import RegisterNode

N, T = 4, 1

values = st.sampled_from(["a", "b", "c"])
# a Byzantine message may name any process or register, even one that
# does not exist
outside = st.sampled_from([-1, N, N + 3])
origins = st.one_of(st.integers(min_value=0, max_value=N - 1), outside)
targets = st.one_of(st.integers(min_value=0, max_value=N - 1), outside)
senders = st.integers(min_value=0, max_value=N - 1)
sns = st.integers(min_value=1, max_value=4)


rb_events = st.lists(
    st.one_of(
        # an APP's origin is its sender, which the network authenticates
        st.tuples(st.just("app"), senders, values, sns),
        st.tuples(st.just("echo"), origins, values, sns, senders),
        st.tuples(st.just("ready"), origins, values, sns, senders),
    ),
    max_size=120)


def drive_rb(node, events):
    delivered = []
    for event in events:
        if event[0] == "app":
            out = node.on_app(*event[1:])
        elif event[0] == "echo":
            out = node.on_echo(*event[1:])
        else:
            out = node.on_ready(*event[1:])
        delivered.extend(e for e in out if isinstance(e, RDeliver))
    return delivered


@settings(max_examples=200, deadline=None)
@given(rb_events)
def test_rb_integrity_and_fifo_under_arbitrary_input(events):
    node = ReliableBroadcast(0, N, T)
    delivered = drive_rb(node, events)
    per_origin = {}
    for d in delivered:
        per_origin.setdefault(d.origin, []).append(d.sn)
    for origin, seq in per_origin.items():
        # in order, gap-free, no duplicates
        assert seq == list(range(1, len(seq) + 1)), (origin, seq)
        assert node.next_sn[origin] == len(seq) + 1


@settings(max_examples=200, deadline=None)
@given(rb_events)
def test_rb_delivery_requires_a_ready_quorum(events):
    node = ReliableBroadcast(0, N, T)
    ready_votes = {}
    for event in events:
        if event[0] == "ready":
            _, origin, value, sn, sender = event
            ready_votes.setdefault((origin, value, sn), set()).add(sender)
    delivered = drive_rb(node, events)
    for d in delivered:
        votes = ready_votes.get((d.origin, d.value, d.sn), set())
        assert len(votes) >= 2 * T + 1


reg_events = st.lists(
    st.tuples(origins, values, sns, st.sets(senders, min_size=1)),
    max_size=60)


@settings(max_examples=200, deadline=None)
@given(reg_events)
def test_register_sn_is_monotone_and_contiguous(events):
    node = RegisterNode(0, N, T)
    applied = {j: [] for j in range(N)}
    for writer, value, sn, voters in events:
        for sender in sorted(voters):
            for eff in node.handle(sender, Ready(writer, value, sn)):
                if isinstance(eff, RDeliver):
                    applied[eff.origin].append(eff.sn)
        for j in range(N):
            assert node.registers[j].sn == node.rb.next_sn[j] - 1
    for j in range(N):
        # each sn applied once, in order, with no holes
        assert applied[j] == list(range(1, node.registers[j].sn + 1))


requests = st.lists(
    st.tuples(senders, st.one_of(
        st.builds(ReadReq, targets, sns),
        st.builds(StateReply, targets, sns, sns),
        st.builds(CatchUp, targets, sns),
        st.builds(CatchUpDone, targets, sns),
        st.builds(Echo, origins, values, sns),
        st.builds(Ready, origins, values, sns),
    )),
    max_size=60)


@settings(max_examples=200, deadline=None)
@given(targets, requests)
def test_messages_naming_unknown_registers_are_dropped(read_target, events):
    node = RegisterNode(0, N, T)
    out = node.begin_read(read_target) if 0 <= read_target < N else []
    for sender, msg in events:
        out += node.handle(sender, msg)
    for eff in out:
        msg = getattr(eff, "payload", eff)  # a Send's message, or eff itself
        named = getattr(msg, "target", getattr(msg, "origin", 0))
        assert 0 <= named < N, eff
    assert len(node.registers) == N
    assert all(0 <= target < N for target, _, _ in node.catchup_waiting)
