"""Differential tests for the short paths of votes and reports.

``ReliableBroadcast.on_ready`` looks for a deliverable instance only when a
vote can complete the head instance, and calls ``_emit_ready`` only for a
value not yet readied; ``RegisterNode`` counts fresh reports as they arrive
and recounts only when the local copy of the read's target moves. Each
reference below keeps the plain rule instead: scan the head after every
READY, emit after every vote past a threshold, recount every report on
every check. Arbitrary vote and report streams must give both the same
output after every call and leave both in the same state.
"""
import pytest
from hypothesis import given, settings, strategies as st

from byzreg.messages import (CatchUp, CatchUpDone, Echo, Ready, StateReply,
                             WriteDone)
from byzreg.mutations import (ECHO_THRESHOLD_NONSTRICT, NO_CATCH_UP,
                              NO_FRESHNESS, READY_DELIVER_AT_2T)
from byzreg.rbcast import (_NOTHING, Broadcast, RDeliver, ReliableBroadcast,
                           Send)
from byzreg.register import RegEntry, RegisterNode


class ReferenceBroadcast(ReliableBroadcast):
    """Scans the head after every READY; emits on every vote past t or quorum."""

    def on_echo(self, origin, value, sn, sender):
        if not 0 <= origin < self.n or sn < self.next_sn[origin]:
            return []
        senders = self.echo_senders.setdefault(
            (origin, sn), {}).setdefault(value, set())
        senders.add(sender)
        if len(senders) >= self.echo_quorum:
            return self._ref_emit_ready(origin, value, sn)
        return []

    def on_ready(self, origin, value, sn, sender):
        if not 0 <= origin < self.n or sn < self.next_sn[origin]:
            return []
        senders = self.ready_senders.setdefault(
            (origin, sn), {}).setdefault(value, set())
        senders.add(sender)
        out = []
        if len(senders) >= self.t + 1:
            out.extend(self._ref_emit_ready(origin, value, sn))
        out.extend(self._ref_deliver(origin))
        return out

    def _ref_emit_ready(self, origin, value, sn):
        sent = self.readied.setdefault((origin, sn), set())
        if value in sent:
            return []
        sent.add(value)
        return [Broadcast(Ready(origin, value, sn))]

    def _ref_deliver(self, origin):
        out = []
        apps = self.first_app[origin]
        while True:
            sn = self.next_sn[origin]
            value = _NOTHING
            for v, senders in self.ready_senders.get((origin, sn), {}).items():
                if len(senders) >= self.deliver_quorum:
                    value = v
                    break
            if value is _NOTHING:
                return out
            self.next_sn[origin] = sn + 1
            key = (origin, sn)
            apps.pop(sn, None)
            self.echo_senders.pop(key, None)
            self.ready_senders.pop(key, None)
            self.readied.pop(key, None)
            out.append(RDeliver(origin, value, sn))
            if sn + 1 in apps:
                out.append(Broadcast(Echo(origin, apps[sn + 1], sn + 1)))


def rb_state(node):
    return (node.next_sn, node.first_app, node.echo_senders,
            node.ready_senders, node.readied)


CELLS = [(4, 1), (5, 1), (7, 2)]
RB_MUTATIONS = [frozenset(), frozenset({READY_DELIVER_AT_2T}),
                frozenset({ECHO_THRESHOLD_NONSTRICT})]


def vote_bursts(n):
    """Bursts of one kind of message for one (origin, value, sn).

    Origins 0 and 1 and two out of range; sns 1..5 go stale as instances
    deliver and run ahead of the head before; three values let an origin
    equivocate; a burst's senders may repeat.
    """
    senders = st.lists(st.integers(0, n - 1), min_size=1, max_size=n + 2)
    return st.lists(st.tuples(
        st.sampled_from(["app", "echo", "ready", "ready"]),
        st.sampled_from([0, 1, -1, n]), st.sampled_from("abc"),
        st.integers(1, 5), senders), max_size=40)


def spy_on(node, scans, emits):
    """Record each head scan's output and each READY emitted as new."""
    deliver, emit = node._deliver_ready_instances, node._emit_ready

    def scanning(origin):
        out = deliver(origin)
        scans.append(out)
        return out

    def emitting(origin, value, sn, sent):
        emits.append(value not in node.readied.get((origin, sn), ()))
        return emit(origin, value, sn, sent)

    node._deliver_ready_instances = scanning
    node._emit_ready = emitting


@pytest.mark.parametrize("mutations", RB_MUTATIONS,
                         ids=["plain", "deliver-at-2t", "echo-nonstrict"])
@pytest.mark.parametrize("n, t", CELLS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_vote_paths_match_the_reference(n, t, mutations, data):
    bursts = data.draw(vote_bursts(n))
    node = ReliableBroadcast(0, n, t, mutations=mutations)
    ref = ReferenceBroadcast(0, n, t, mutations=mutations)
    scans, emits = [], []
    spy_on(node, scans, emits)
    ref_scans_that_deliver = 0
    for kind, origin, value, sn, senders in bursts:
        for sender in senders:
            if kind == "app":  # an APP's origin is its authenticated sender
                args = (sender, value, sn)
            else:
                args = (origin, value, sn, sender)
            got = getattr(node, f"on_{kind}")(*args)
            want = getattr(ref, f"on_{kind}")(*args)
            assert got == want, (kind, args)
            assert rb_state(node) == rb_state(ref)
            if any(type(e) is RDeliver for e in want):
                ref_scans_that_deliver += 1
    # every scan the short path runs delivers, and it misses none
    assert all(any(type(e) is RDeliver for e in out) for out in scans)
    assert len(scans) == ref_scans_that_deliver
    assert all(emits)


def test_only_the_completing_vote_scans():
    # the reference scans the head on all three votes, the short path only
    # on the third, which brings the value to the quorum of 3
    node, ref = ReliableBroadcast(0, 4, 1), ReferenceBroadcast(0, 4, 1)
    scans, emits = [], []
    spy_on(node, scans, emits)
    ref_scans = []
    ref_deliver = ref._ref_deliver
    ref._ref_deliver = lambda origin: ref_scans.append(1) or ref_deliver(origin)
    for sender in (1, 2, 3):
        assert node.on_ready(0, "v", 1, sender) == ref.on_ready(0, "v", 1,
                                                                sender)
    assert len(ref_scans) == 3 and len(scans) == 1
    assert emits == [True]


# -- freshness count ---------------------------------------------------------


class ReferenceRegister(RegisterNode):
    """Recounts every report against the local copy on every check."""

    def _on_state(self, sender, msg):
        pr = self.pending_read
        if (pr is None or pr.chosen is not None
                or msg.target != pr.target or msg.rsn != pr.rsn):
            return []
        pr.reports.setdefault(sender, msg.sn)
        return self._ref_check(pr.target)

    def _apply(self, writer, value, sn):
        self.registers[writer] = RegEntry(value, sn)
        out = [Send(writer, WriteDone(sn))]
        out.extend(self._release_catchups(writer))
        out.extend(self._ref_check(writer))
        return out

    def _ref_check(self, changed):
        pr = self.pending_read
        if pr is None or pr.chosen is not None or changed != pr.target:
            return []
        local = self.registers[pr.target]
        if NO_FRESHNESS in self.mutations:
            counted = len(pr.reports)
        else:
            counted = sum(1 for rep in pr.reports.values() if rep <= local.sn)
        if counted < self.read_quorum:
            return []
        pr.chosen = local
        if NO_CATCH_UP in self.mutations:
            return self._finish_read()
        return [Broadcast(CatchUp(pr.target, local.sn))]


def reg_state(node):
    pr = node.pending_read
    read = None
    if pr is not None:
        read = (pr.target, pr.rsn, pr.reports, pr.chosen, pr.acks)
    return (node.registers, node.read_sn, read, node.catchup_waiting,
            rb_state(node.rb))


REG_MUTATIONS = [frozenset(), frozenset({NO_FRESHNESS}),
                 frozenset({NO_CATCH_UP}),
                 frozenset({NO_FRESHNESS, NO_CATCH_UP})]


def register_steps(n, t):
    """Reads of register 0 or 1, their reports, and writes that move them.

    A report may be a repeat, name the wrong register or read, or quote an
    inflated sn; a write is a READY quorum for the writer's next sn.
    """
    senders = st.integers(0, n - 1)
    return st.lists(st.one_of(
        st.tuples(st.just("read"), st.sampled_from([0, 1])),
        # most reports answer the read in progress; the rest name a
        # register (maybe out of range) and read number at random
        st.tuples(st.just("state"), senders, st.integers(0, 6),
                  st.one_of(st.none(), st.none(), st.none(), st.tuples(
                      st.sampled_from([0, 1, n]), st.integers(0, 3)))),
        st.tuples(st.just("write"), st.sampled_from([0, 1]),
                  st.sampled_from("xy")),
        st.tuples(st.just("confirm"), senders),
    ), max_size=60)


@pytest.mark.parametrize("mutations", REG_MUTATIONS,
                         ids=["plain", "no-freshness", "no-catch-up",
                              "no-freshness-no-catch-up"])
@pytest.mark.parametrize("n, t", [(4, 1), (7, 2)])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_fresh_count_matches_a_recount(n, t, mutations, data):
    node = RegisterNode(0, n, t, mutations=mutations)
    ref = ReferenceRegister(0, n, t, mutations=mutations)
    for step in data.draw(register_steps(n, t)):
        if step[0] == "read":
            if node.pending_read is not None or node.pending_write is not None:
                continue
            calls = [("begin_read", (step[1],))]
        elif step[0] == "state":
            _, sender, sn, addressed = step
            pr = node.pending_read
            if addressed is None:
                if pr is None:
                    continue
                addressed = (pr.target, pr.rsn)
            calls = [("_on_state", (sender, StateReply(*addressed, sn)))]
        elif step[0] == "write":
            writer, value = step[1], step[2]
            sn = node.rb.next_sn[writer]
            calls = [("_on_ready", (s, Ready(writer, value, sn)))
                     for s in range(2 * t + 1)]
        else:
            pr = node.pending_read
            if pr is None or pr.chosen is None:
                continue
            calls = [("_on_catch_up_done",
                      (step[1], CatchUpDone(pr.target, pr.chosen.sn)))]
        for name, args in calls:
            # the node through its one entry, the reference through the
            # handler itself, which handle() would not reach in a subclass
            if name == "begin_read":
                got = node.begin_read(*args)
            else:
                got = node.handle(*args)
            assert got == getattr(ref, name)(*args), (name, args)
            assert reg_state(node) == reg_state(ref)
            pr = node.pending_read
            if pr is not None and pr.chosen is None:
                local = node.registers[pr.target].sn
                assert pr.fresh == sum(1 for rep in pr.reports.values()
                                       if rep <= local)
