"""Sequence-numbered Bracha reliable broadcast, as a reactive state machine.

One instance runs inside every process. Each handler consumes a single
network event and returns, in order, the messages to send and any
deliveries that became possible. Nothing blocks: the figure-style
"wait until" conditions are kept as guards that are re-evaluated whenever
the state they watch changes.

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
from that origin have been delivered. A node's own broadcast loops back
through the normal delivery path, so a node votes for itself the same way
it votes for anyone else.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ProtocolMisuseError
from .messages import App, Echo, Message, Ready, Value
from .mutations import ECHO_THRESHOLD_NONSTRICT, READY_DELIVER_AT_2T

DEFAULT_PENDING_CAP = 1024

_NOTHING = object()


@dataclass(frozen=True)
class Send:
    """Instruction to transmit payload to process dest."""

    dest: int
    payload: Message


def to_all(n: int, payload: Message) -> list[Send]:
    """One Send of payload to each of the n processes, self included."""
    return [Send(dest, payload) for dest in range(n)]


@dataclass(frozen=True)
class RDeliver:
    """A broadcast instance that completed at this node."""

    origin: int
    value: Value
    sn: int


class ReliableBroadcast:
    """Broadcast endpoint for one process.

    State kept per origin: the next deliverable sequence number, the first
    APP value seen per instance (later APPs for the same instance are
    dropped, whatever they carry), and distinct-sender vote sets keyed by
    (origin, value, sn) so an equivocating origin splits its own votes.
    Bookkeeping for an instance is retired as soon as it delivers.

    APP messages arriving ahead of the expected sequence number are
    buffered; at most pending_cap instances are held per origin, oldest
    dropped first, so a flooding origin cannot exhaust memory.
    """

    def __init__(self, node_id: int, n: int, t: int, *,
                 mutations: frozenset[str] = frozenset(),
                 pending_cap: int = DEFAULT_PENDING_CAP):
        self.node_id = node_id
        self.n = n
        self.t = t
        self.mutations = frozenset(mutations)
        self.pending_cap = pending_cap
        self.next_sn = [1] * n
        self.last_broadcast_sn = 0
        self.first_app: dict[int, dict[int, Value]] = {i: {} for i in range(n)}
        self.echoed: set[tuple[int, int]] = set()
        self.readied: set[tuple[int, Value, int]] = set()
        self.echo_senders: dict[tuple[int, Value, int], set[int]] = {}
        self.ready_senders: dict[tuple[int, Value, int], set[int]] = {}

    # -- thresholds -------------------------------------------------------

    def _echo_quorum(self, count: int) -> bool:
        # strictly more than (n+t)/2, computed in integers
        if ECHO_THRESHOLD_NONSTRICT in self.mutations:
            return 2 * count >= self.n + self.t
        return 2 * count > self.n + self.t

    def _deliver_quorum(self) -> int:
        if READY_DELIVER_AT_2T in self.mutations:
            return 2 * self.t
        return 2 * self.t + 1

    # -- client side ------------------------------------------------------

    def broadcast(self, value: Value, sn: int) -> list[Send]:
        """Start broadcast number sn; sn must be the previous one plus 1."""
        if sn != self.last_broadcast_sn + 1:
            raise ProtocolMisuseError(
                f"broadcast sn {sn} is not consecutive "
                f"(last used {self.last_broadcast_sn})")
        self.last_broadcast_sn = sn
        return to_all(self.n, App(value, sn))

    # -- server side ------------------------------------------------------

    def on_app(self, origin: int, value: Value, sn: int) -> list[Send | RDeliver]:
        """First APP for (origin, sn) is recorded; duplicates are dropped."""
        if sn in self.first_app[origin] or sn < self.next_sn[origin]:
            return []
        self.first_app[origin][sn] = value
        if self.next_sn[origin] == sn:
            return self._emit_echo(origin, value, sn)
        self._enforce_pending_cap(origin)
        return []

    def on_echo(self, origin: int, value: Value, sn: int,
                sender: int) -> list[Send | RDeliver]:
        if sn < self.next_sn[origin]:
            return []
        senders = self.echo_senders.setdefault((origin, value, sn), set())
        senders.add(sender)
        if self._echo_quorum(len(senders)) and (origin, value, sn) not in self.readied:
            return self._emit_ready(origin, value, sn)
        return []

    def on_ready(self, origin: int, value: Value, sn: int,
                 sender: int) -> list[Send | RDeliver]:
        if sn < self.next_sn[origin]:
            return []
        senders = self.ready_senders.setdefault((origin, value, sn), set())
        senders.add(sender)
        out: list[Send | RDeliver] = []
        if len(senders) >= self.t + 1 and (origin, value, sn) not in self.readied:
            out.extend(self._emit_ready(origin, value, sn))
        out.extend(self._deliver_ready_instances(origin))
        return out

    def has_delivered(self, origin: int, sn: int) -> bool:
        return sn < self.next_sn[origin]

    def digest(self) -> tuple:
        return (tuple(self.next_sn), self.last_broadcast_sn)

    # -- internals --------------------------------------------------------

    def _emit_echo(self, origin: int, value: Value, sn: int) -> list[Send]:
        self.echoed.add((origin, sn))
        return to_all(self.n, Echo(origin, value, sn))

    def _emit_ready(self, origin: int, value: Value, sn: int) -> list[Send]:
        self.readied.add((origin, value, sn))
        return to_all(self.n, Ready(origin, value, sn))

    def _deliver_ready_instances(self, origin: int) -> list[Send | RDeliver]:
        """Deliver everything at the head of origin's sequence, in order."""
        out: list[Send | RDeliver] = []
        while True:
            sn = self.next_sn[origin]
            value = self._ready_complete_value(origin, sn)
            if value is _NOTHING:
                break
            self.next_sn[origin] = sn + 1
            self._retire(origin, sn)
            out.append(RDeliver(origin, value, sn))
            head = self.next_sn[origin]
            if head in self.first_app[origin] and (origin, head) not in self.echoed:
                out.extend(self._emit_echo(origin, self.first_app[origin][head], head))
        return out

    def _ready_complete_value(self, origin: int, sn: int):
        quorum = self._deliver_quorum()
        for (o, value, s), senders in self.ready_senders.items():
            if o == origin and s == sn and len(senders) >= quorum:
                return value
        return _NOTHING

    def _retire(self, origin: int, sn: int) -> None:
        self.first_app[origin].pop(sn, None)
        self.echoed.discard((origin, sn))
        for table in (self.echo_senders, self.ready_senders):
            stale = [k for k in table if k[0] == origin and k[2] == sn]
            for k in stale:
                del table[k]
        self.readied = {k for k in self.readied
                        if not (k[0] == origin and k[2] == sn)}

    def _enforce_pending_cap(self, origin: int) -> None:
        buffered = [s for s in self.first_app[origin]
                    if (origin, s) not in self.echoed]
        if len(buffered) <= self.pending_cap:
            return
        # arrival order == dict insertion order; drop the oldest waiter
        del self.first_app[origin][buffered[0]]
