"""Sequence-numbered Bracha reliable broadcast, as a reactive state machine.

One instance runs inside every process. Each handler consumes a single
network event and returns, in order, the messages to send and any
deliveries that became possible. Nothing blocks: the figure-style
"wait until" conditions are kept as guards that are re-evaluated whenever
the state they watch changes. A send to everyone is one ``Broadcast``
effect, which the simulator expands to receivers 0..n-1 in pid order; a
reply to one process is a ``Send``.

Per broadcast instance (origin, sn) the machine goes through three rounds:

* the origin sends APP(value, sn) to everyone;
* a process that accepts the first APP for (origin, sn), once sn is the
  next expected number from that origin, endorses it by sending
  ECHO(origin, value, sn) to everyone;
* matching ECHO messages from strictly more than (n+t)/2 distinct senders
  trigger READY(origin, value, sn) to everyone; READY from t+1 distinct
  senders triggers the same READY if not already sent (amplification);
* READY from 2t+1 distinct senders delivers (origin, value, sn), at most
  once per (origin, sn).

Deliveries from one origin happen in sequence-number order with no gaps:
an instance whose READY quorum is complete waits until all lower numbers
from that origin have been delivered. This is the only layer that orders
deliveries; the register applies each one as it arrives. A node's own
broadcast loops back through the normal delivery path, so a node votes for
itself the same way it votes for anyone else.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ProtocolMisuseError
from .messages import App, Echo, Message, Ready, Value
from .mutations import ECHO_THRESHOLD_NONSTRICT, READY_DELIVER_AT_2T

# future APPs buffered per origin, besides the head instance
PENDING_CAP = 1024

_NOTHING = object()


@dataclass(slots=True)
class Send:
    """Instruction to transmit payload to process dest."""

    dest: int
    payload: Message


@dataclass(slots=True)
class Broadcast:
    """Instruction to transmit payload to every process, self included."""

    payload: Message


@dataclass(slots=True)
class RDeliver:
    """A broadcast instance that completed at this node."""

    origin: int
    value: Value
    sn: int


class ReliableBroadcast:
    """Broadcast endpoint for one process.

    State kept per origin: the next deliverable sequence number (the head)
    and the first APP value seen per instance; later APPs for the same
    instance are dropped, whatever they carry. The head instance has been
    echoed exactly when its APP is recorded, and no recorded APP is below
    the head.

    State kept per instance (origin, sn): distinct-sender ECHO and READY
    sets and the values this node sent READY for, each keyed by value so
    an equivocating origin splits its own votes. An instance's entries are
    retired as soon as it delivers.

    Votes naming an origin outside [0, n) are dropped. APP messages
    arriving ahead of the head are buffered; at most PENDING_CAP instances
    are held per origin besides the head, oldest dropped first, so a
    flooding origin cannot exhaust memory.

    Invariant: whenever no handler is running, no origin's head instance
    holds a value with a delivery quorum of READY senders. A quorum that
    forms at the head is delivered by the call that forms it, and the
    delivery loop then checks each new head in turn. So a READY vote can
    complete an instance only when it is for the head and brings its value
    to the quorum; only then does on_ready look for a deliverable
    instance. A vote that changes nothing (a stale or repeated vote, one
    below t+1 senders, one for a value already readied and not at the
    head's quorum) returns after constant work.
    """

    def __init__(self, node_id: int, n: int, t: int, *,
                 mutations: frozenset[str] = frozenset()):
        self.node_id = node_id
        self.n = n
        self.t = t
        # ECHOs from strictly more than (n+t)/2 distinct senders
        self.echo_quorum = (n + t) // 2 + 1
        if ECHO_THRESHOLD_NONSTRICT in mutations:
            self.echo_quorum = (n + t + 1) // 2
        self.deliver_quorum = 2 * t + 1
        if READY_DELIVER_AT_2T in mutations:
            self.deliver_quorum = 2 * t
        self.next_sn = [1] * n
        self.last_broadcast_sn = 0
        self.first_app: dict[int, dict[int, Value]] = {i: {} for i in range(n)}
        self.echo_senders: dict[tuple[int, int], dict[Value, set[int]]] = {}
        self.ready_senders: dict[tuple[int, int], dict[Value, set[int]]] = {}
        self.readied: dict[tuple[int, int], set[Value]] = {}

    # -- client side ------------------------------------------------------

    def broadcast(self, value: Value, sn: int) -> list[Broadcast]:
        """Start broadcast number sn; sn must be the previous one plus 1."""
        if sn != self.last_broadcast_sn + 1:
            raise ProtocolMisuseError(
                f"broadcast sn {sn} is not consecutive "
                f"(last used {self.last_broadcast_sn})")
        self.last_broadcast_sn = sn
        return [Broadcast(App(value, sn))]

    # -- server side ------------------------------------------------------

    def on_app(self, origin: int, value: Value,
               sn: int) -> list[Broadcast]:
        """First APP for (origin, sn) is recorded; duplicates are dropped."""
        apps = self.first_app[origin]
        head = self.next_sn[origin]
        if sn in apps or sn < head:
            return []
        apps[sn] = value
        if sn == head:
            return [Broadcast(Echo(origin, value, sn))]
        if len(apps) - (head in apps) > PENDING_CAP:
            # arrival order == dict insertion order; drop the oldest waiter
            del apps[next(s for s in apps if s != head)]
        return []

    def on_echo(self, origin: int, value: Value, sn: int,
                sender: int) -> list[Broadcast]:
        if not 0 <= origin < self.n or sn < self.next_sn[origin]:
            return []
        key = (origin, sn)
        votes = self.echo_senders.get(key)
        if votes is None:  # no throwaway dict and set per vote
            votes = self.echo_senders[key] = {}
        senders = votes.get(value)
        if senders is None:
            senders = votes[value] = set()
        senders.add(sender)
        if len(senders) < self.echo_quorum:
            return []
        sent = self.readied.get(key)
        if sent is not None and value in sent:
            return []
        return [self._emit_ready(origin, value, sn, sent)]

    def on_ready(self, origin: int, value: Value, sn: int,
                 sender: int) -> list[Broadcast | RDeliver]:
        if not 0 <= origin < self.n or sn < self.next_sn[origin]:
            return []
        key = (origin, sn)
        votes = self.ready_senders.get(key)
        if votes is None:  # no throwaway dict and set per vote
            votes = self.ready_senders[key] = {}
        senders = votes.get(value)
        if senders is None:
            senders = votes[value] = set()
        senders.add(sender)
        count = len(senders)
        if count <= self.t:
            return []
        out: list[Broadcast | RDeliver] = []
        sent = self.readied.get(key)
        if sent is None or value not in sent:
            out.append(self._emit_ready(origin, value, sn, sent))
        if count >= self.deliver_quorum and sn == self.next_sn[origin]:
            # the head's first quorum: see the invariant above
            out.extend(self._deliver_ready_instances(origin))
        return out

    # -- internals --------------------------------------------------------

    def _emit_ready(self, origin: int, value: Value, sn: int,
                    sent: set[Value] | None) -> Broadcast:
        """READY for (origin, value, sn), which this node has not sent.

        sent is the instance's set of readied values, None if it has none.
        """
        if sent is None:
            self.readied[(origin, sn)] = {value}
        else:
            sent.add(value)
        return Broadcast(Ready(origin, value, sn))

    def _deliver_ready_instances(self, origin: int) -> list[Broadcast | RDeliver]:
        """Deliver everything at the head of origin's sequence, in order."""
        out: list[Broadcast | RDeliver] = []
        apps = self.first_app[origin]
        while True:
            sn = self.next_sn[origin]
            value = self._ready_complete_value(origin, sn)
            if value is _NOTHING:
                break
            self.next_sn[origin] = sn + 1
            key = (origin, sn)
            apps.pop(sn, None)
            self.echo_senders.pop(key, None)
            self.ready_senders.pop(key, None)
            self.readied.pop(key, None)
            out.append(RDeliver(origin, value, sn))
            if sn + 1 in apps:  # the new head's APP arrived early: echo it now
                out.append(Broadcast(Echo(origin, apps[sn + 1], sn + 1)))
        return out

    def _ready_complete_value(self, origin: int, sn: int):
        """First value, in vote arrival order, with a delivery quorum."""
        votes = self.ready_senders.get((origin, sn))
        if votes is not None:
            for value, senders in votes.items():
                if len(senders) >= self.deliver_quorum:
                    return value
        return _NOTHING
