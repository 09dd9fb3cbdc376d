"""Single-writer/multi-reader register protocol over reliable broadcast.

Every process holds a local copy of all n registers, one per process, each
a (value, sequence-number) pair. Only register i's owner can advance it,
and the only path that modifies a local copy is delivery of the owner's
broadcast WRITE; everything else is request/reply traffic. A correct
process applies a write at the moment it r-delivers it, so the RDeliver
effect is also the record of the register apply.

A write increments the owner's write counter, reliably broadcasts the
(value, counter) pair, and returns once n-t distinct processes have
acknowledged applying it.

A read runs two rounds. First the reader asks everyone for the sequence
number they currently hold for the target register and waits until its own
copy is at least as new as n-t of the reported numbers (the freshness
check); the value it will return is its local copy at the instant that
check first passes. Then it broadcasts a catch-up request for that
sequence number and returns once n-t distinct processes confirm their copy
has caught up. The second round is what rules out a later read returning
an older value than an earlier, non-overlapping read.

Writes are applied in each writer's sequence order without a buffer here:
the broadcast layer r-delivers every writer's instances exactly once, in
order, with no gaps. The two protocol waits (freshness, catch-up) are
deferred guards: the triggering input is kept and the guard re-checked
whenever the watched state changes, so the node keeps serving messages
while "blocked".
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ProtocolMisuseError
from .messages import (App, CatchUp, CatchUpDone, Echo, Message, ReadReq,
                       Ready, StateReply, Value, WriteDone)
from .mutations import NO_CATCH_UP, NO_FRESHNESS, READ_QUORUM_MINUS_ONE
from .rbcast import Broadcast, RDeliver, ReliableBroadcast, Send


@dataclass(frozen=True)
class RegEntry:
    value: Value
    sn: int


@dataclass(frozen=True)
class Complete:
    """An operation started at this node finished."""

    kind: str  # "write" | "read"
    target: int
    value: Value
    sn: int


Effect = Send | Broadcast | RDeliver | Complete


@dataclass
class PendingWrite:
    sn: int
    value: Value
    acks: set[int] = field(default_factory=set)


@dataclass
class PendingRead:
    target: int
    rsn: int
    reports: dict[int, int] = field(default_factory=dict)
    chosen: RegEntry | None = None  # set when the freshness round ends
    acks: set[int] = field(default_factory=set)


class RegisterNode:
    """Protocol endpoint for one correct process.

    Reactive and single-threaded: begin_write/begin_read and handle() each
    process one input to completion and return the resulting effect stream
    (sends, deliveries, operation completions) in the order things
    happened; each delivery is applied to the local copy as it happens.
    Processes are sequential, so at most one operation may be in flight at
    a time; violating that raises. Network input never raises: a message
    naming a register outside [0, n) is dropped.
    """

    def __init__(self, node_id: int, n: int, t: int, *,
                 mutations: frozenset[str] = frozenset()):
        self.node_id = node_id
        self.n = n
        self.t = t
        self.mutations = frozenset(mutations)
        self.rb = ReliableBroadcast(node_id, n, t, mutations=self.mutations)
        # freshness reports and catch-up acks a read waits for
        self.read_quorum = n - t
        if READ_QUORUM_MINUS_ONE in self.mutations:
            self.read_quorum -= 1
        self.registers = [RegEntry(None, 0) for _ in range(n)]
        self.write_sn = 0
        self.read_sn = [0] * n
        self.pending_write: PendingWrite | None = None
        self.pending_read: PendingRead | None = None
        # catch-up requests waiting for the local copy to reach their sn
        self.catchup_waiting: list[tuple[int, int, int]] = []

    # -- client operations --------------------------------------------------

    def begin_write(self, value: Value) -> list[Effect]:
        self._require_idle("write")
        self.write_sn += 1
        self.pending_write = PendingWrite(self.write_sn, value)
        return self.rb.broadcast(value, self.write_sn)

    def begin_read(self, target: int) -> list[Effect]:
        self._require_idle("read")
        self.read_sn[target] += 1
        self.pending_read = PendingRead(target, self.read_sn[target])
        return [Broadcast(ReadReq(target, self.read_sn[target]))]

    def _require_idle(self, kind: str) -> None:
        if self.pending_write is not None or self.pending_read is not None:
            busy = "write" if self.pending_write is not None else "read"
            raise ProtocolMisuseError(
                f"begin_{kind} while a {busy} is in progress "
                f"(process {self.node_id} is sequential)")

    # -- message dispatch ----------------------------------------------------

    def handle(self, sender: int, msg: Message) -> list[Effect]:
        handler = _HANDLERS.get(type(msg))
        if handler is None:
            raise TypeError(f"unknown message type {type(msg).__name__}")
        return handler(self, sender, msg)

    def _on_app(self, sender: int, msg: App) -> list[Effect]:
        return self._lift(self.rb.on_app(sender, msg.value, msg.sn))

    def _on_echo(self, sender: int, msg: Echo) -> list[Effect]:
        return self._lift(self.rb.on_echo(msg.origin, msg.value, msg.sn,
                                          sender))

    def _on_ready(self, sender: int, msg: Ready) -> list[Effect]:
        return self._lift(self.rb.on_ready(msg.origin, msg.value, msg.sn,
                                           sender))

    def _lift(self, rb_effects) -> list[Effect]:
        """Forward broadcast-layer output, applying each delivery after it."""
        if not rb_effects:
            return rb_effects
        out: list[Effect] = []
        for eff in rb_effects:
            out.append(eff)
            if type(eff) is RDeliver:
                out.extend(self._apply(eff.origin, eff.value, eff.sn))
        return out

    # -- write path ----------------------------------------------------------

    def _apply(self, writer: int, value: Value, sn: int) -> list[Effect]:
        """Advance the local copy of writer's register to its next write.

        The broadcast layer delivers each writer's sn exactly once, in order
        and without gaps, so sn is always one past the local copy.
        """
        self.registers[writer] = RegEntry(value, sn)
        out: list[Effect] = [Send(writer, WriteDone(sn))]
        out.extend(self._release_catchups(writer))
        out.extend(self._check_freshness(changed=writer))
        return out

    def _on_write_done(self, sender: int, msg: WriteDone) -> list[Effect]:
        pw = self.pending_write
        if pw is None or msg.sn != pw.sn:
            return []
        pw.acks.add(sender)
        if len(pw.acks) >= self.n - self.t:
            self.pending_write = None
            return [Complete("write", self.node_id, pw.value, pw.sn)]
        return []

    # -- read path -----------------------------------------------------------

    def _on_read_req(self, sender: int, msg: ReadReq) -> list[Effect]:
        if not 0 <= msg.target < self.n:
            return []
        return [Send(sender, StateReply(msg.target, msg.rsn,
                                        self.registers[msg.target].sn))]

    def _on_state(self, sender: int, msg: StateReply) -> list[Effect]:
        pr = self.pending_read
        if (pr is None or pr.chosen is not None
                or msg.target != pr.target or msg.rsn != pr.rsn):
            return []
        pr.reports.setdefault(sender, msg.sn)  # first report per sender wins
        return self._check_freshness(changed=pr.target)

    def _check_freshness(self, changed: int) -> list[Effect]:
        """Fire the freshness guard if some n-t reports are all stale enough.

        The guard asks for the existence of n-t distinct reporters whose
        numbers are at most our own, not for the first n-t replies: a
        Byzantine reporter quoting an inflated number must not be able to
        wedge the read.
        """
        pr = self.pending_read
        if pr is None or pr.chosen is not None or changed != pr.target:
            return []
        local = self.registers[pr.target]
        if NO_FRESHNESS in self.mutations:
            satisfied = len(pr.reports) >= self.read_quorum
        else:
            fresh = sum(1 for rep in pr.reports.values() if rep <= local.sn)
            satisfied = fresh >= self.read_quorum
        if not satisfied:
            return []
        pr.chosen = local
        if NO_CATCH_UP in self.mutations:
            return self._finish_read()
        return [Broadcast(CatchUp(pr.target, local.sn))]

    def _on_catch_up(self, sender: int, msg: CatchUp) -> list[Effect]:
        if not 0 <= msg.target < self.n:
            return []
        if self.registers[msg.target].sn >= msg.sn:
            return [Send(sender, CatchUpDone(msg.target, msg.sn))]
        self.catchup_waiting.append((msg.target, msg.sn, sender))
        return []

    def _release_catchups(self, writer: int) -> list[Effect]:
        out: list[Effect] = []
        still_waiting = []
        for target, sn, requester in self.catchup_waiting:
            if target == writer and self.registers[target].sn >= sn:
                out.append(Send(requester, CatchUpDone(target, sn)))
            else:
                still_waiting.append((target, sn, requester))
        self.catchup_waiting = still_waiting
        return out

    def _on_catch_up_done(self, sender: int, msg: CatchUpDone) -> list[Effect]:
        pr = self.pending_read
        if (pr is None or pr.chosen is None
                or msg.target != pr.target or msg.sn != pr.chosen.sn):
            return []
        pr.acks.add(sender)
        if len(pr.acks) >= self.read_quorum:
            return self._finish_read()
        return []

    def _finish_read(self) -> list[Effect]:
        pr = self.pending_read
        assert pr is not None and pr.chosen is not None
        self.pending_read = None
        return [Complete("read", pr.target, pr.chosen.value, pr.chosen.sn)]

    # -- misc ----------------------------------------------------------------

    def digest(self) -> dict:
        """Register copies and operation counters, as plain JSON."""
        return {"registers": [[r.value, r.sn] for r in self.registers],
                "write_sn": self.write_sn, "read_sn": list(self.read_sn)}

    def guard_diagnostics(self) -> list[str]:
        """Human-readable summary of every unsatisfied guard, for stuck runs."""
        notes = []
        if self.pending_write is not None:
            pw = self.pending_write
            notes.append(f"p{self.node_id}: write #{pw.sn} has "
                         f"{len(pw.acks)}/{self.n - self.t} acks")
        if self.pending_read is not None:
            pr = self.pending_read
            if pr.chosen is None:
                notes.append(f"p{self.node_id}: read of reg[{pr.target}] waiting on "
                             f"freshness ({len(pr.reports)} reports, local sn "
                             f"{self.registers[pr.target].sn})")
            else:
                notes.append(f"p{self.node_id}: read of reg[{pr.target}] has "
                             f"{len(pr.acks)}/{self.read_quorum} catch-up acks")
        for target, sn, requester in self.catchup_waiting:
            notes.append(f"p{self.node_id}: catch-up to sn {sn} of reg[{target}] "
                         f"for p{requester} waiting "
                         f"(local sn {self.registers[target].sn})")
        return notes


# handle() dispatch: message class -> handler
_HANDLERS = {
    App: RegisterNode._on_app,
    Echo: RegisterNode._on_echo,
    Ready: RegisterNode._on_ready,
    WriteDone: RegisterNode._on_write_done,
    ReadReq: RegisterNode._on_read_req,
    StateReply: RegisterNode._on_state,
    CatchUp: RegisterNode._on_catch_up,
    CatchUpDone: RegisterNode._on_catch_up_done,
}
