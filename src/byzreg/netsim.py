"""Deterministic discrete-event network simulator.

The network is a complete graph of reliable, authenticated, non-FIFO
asynchronous channels. Nothing is ever lost or corrupted; asynchrony is
modeled by letting a scheduler pick any in-flight message to deliver next.
A fairness bound keeps transit times finite: once a message has been
passed over that many times it is delivered before any fresher one, oldest
first. Messages between two correct processes come first among those:
when the oldest of them is overdue it goes next, however many older
messages to or from Byzantine processes are waiting. So Byzantine volume
cannot stretch the delay between correct processes much past the bound.
Under ADVERSARIAL_REORDER a strategy may rank each message once, when it
is sent; the lowest-ranked message in flight goes next.

Once the last workload entry is done, the run settles: messages addressed
to Byzantine processes, those in flight and those sent later, are set
aside and never delivered (their SEND records stay). Withholding input
from a Byzantine process cannot be told apart from that process ignoring
it, so this is still a valid execution. Delivery goes on, with the same
scheduler, until nothing is in flight to a correct process, so every
message sent to a correct process is delivered. The outcome is QUIESCENT
if nothing was set aside, and SETTLED otherwise, with the set-aside count
in the diagnostics. Without the settle phase, a Byzantine node that
answers every delivery with more traffic would keep a finished run going
until the step budget. A run ends BUDGET_EXCEEDED only when it has
spent its step budget while not at rest: a message is still in flight, or
a workload entry could still start.

Logical time is the number of deliveries so far. Before each delivery
the simulator starts every workload entry that has become ready: its
"at" time has come, its "after" entry is done, and its process is idle.
Entries that are ready together start in workload order. An entry on a
Byzantine process counts as done the moment it starts, so it can make
another entry ready in the same sweep: that entry starts in this sweep if
it is listed after the current one, and in the next sweep otherwise. With
the network empty, time jumps to the next "at" trigger. Triggers are kept
in indexes (dependents by "after" id, a heap on "at", and per-process
lists of entries that found their process busy), so a delivery at which
no entry is due costs a constant-time check, however long the workload.

Each run produces a trace: one record per event, an ``Event`` tuple of
the ``EVENT_FIELDS`` values in that order, so a (scenario, seed) pair
reproduces the identical byte stream. The simulator and the checker
unpack records by position; other readers may index one by field name,
``e["kind"]``. The run ends with one FINAL record per correct node, in
pid order, holding that node's registers and operation counters as plain
JSON. The trace is the only input the checker ever looks at.

A SEND or DELIVER record's payload is the ``Message`` object itself: a
message's SEND and DELIVER records, the SENDs of one message object to
many receivers and the receiver's handler all share that one object.
Other records hold plain dicts. JSON is built only when a trace is
written (``Trace.jsonl``). Treat payloads as read-only.

A delivery is one call of the receiver's handler: a correct node's
``handle``, or the strategy's ``on_deliver`` for a faulty pid. One loop
applies the effects every hook returns. Strategies return only ``Send``
and ``Broadcast``, so a faulty node's r-deliveries and completions never
reach the trace, and one faulty hook call sends at most ``send_cap()``
messages: a ``Broadcast`` counts n, and one that crosses the cap goes to
processes 0..k-1 only, k being the room left.

Sends are batched: a node's ``Broadcast`` effect becomes one call that
puts the message in flight to processes 0..n-1 in pid order, appending
one SEND record per receiver, each holding the one message object. A
``Send`` effect, one message to one process, is put in flight inline in
the effect loop, by the same rule, so it pays for no call and no batch
set-up. An in-flight message is a plain tuple, ``(id, sender, receiver,
payload, enqueue_time, correct)``, correct meaning that sender and
receiver are both correct. The in-flight pool is two lists: one of the
in-flight messages in any order, for the uniform draw and swap-removal,
and one indexed by message id, giving each message's index in the first
(None once it is delivered or set aside).
Two forward cursors walk the second list inside the draw (``_choose``):
one to the oldest message in flight, one to the oldest message between
correct processes, the latter only once the oldest message is overdue
and not between correct processes. A delivery costs no dict operation
and builds no object besides its DELIVER record. Records are built as
``Event((...))``; the SEND and DELIVER records, nearly all of a trace,
are built inline where they happen, every other kind through
``_record``.

One loop delivers: ``run()`` drives it to the end or to the step budget,
and ``step()`` is the same loop with a limit of one delivery. Before each
delivery it asks ``_workload_due`` whether a workload trigger may hold,
and starts the workload only then. A run builds no reference cycles, so
the cyclic garbage collector is paused while it lasts (``_gc_paused``):
its passes would only re-walk the growing trace. Reference counting
frees a run's records and messages as before.
"""
from __future__ import annotations

import gc
import hashlib
import heapq
import json
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

from .adversary import AdversaryStrategy, build_strategy
from .errors import SimulationClosedError
from .messages import Message
from .rbcast import Broadcast, RDeliver, Send
from .register import Complete, RegisterNode
from .scenario import ScenarioConfig, WorkloadOp

OUTCOME_QUIESCENT = "QUIESCENT"
OUTCOME_SETTLED = "SETTLED"
OUTCOME_BUDGET = "BUDGET_EXCEEDED"
OUTCOME_STUCK = "STUCK"

# The fields of an event record, in order. _record builds every record
# except SENDs and DELIVERs, which _send, _process_effects and _deliver
# build inline; Trace.jsonl and checker.derive_histories unpack records by
# position, and Trace.jsonl formats them through _RECORD, which writes
# exactly these fields in this order. A field changes here and in all of
# these places at once.
EVENT_FIELDS = ("seq", "time", "kind", "node", "sender", "receiver",
                "payload")
_FIELD_INDEX = {name: i for i, name in enumerate(EVENT_FIELDS)}
# one event record as a compact JSON line; see Trace.jsonl
_RECORD = ('{"seq":%d,"time":%d,"kind":"%s","node":%s,"sender":%s,'
           '"receiver":%s,"payload":%s}')


class Event(tuple):
    """One trace record: the values of EVENT_FIELDS, in that order.

    A tuple, so a record costs no dict. Indexing also takes a field name,
    ``e["kind"]``, for readers that prefer names to positions.
    """

    __slots__ = ()

    def __getitem__(self, key, _get=tuple.__getitem__, _index=_FIELD_INDEX):
        return _get(self, _index[key] if type(key) is str else key)


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector; restore its state on exit.

    For the span of a run or of a check, which build no reference cycles:
    reference counting frees everything they drop.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@dataclass
class Trace:
    """Complete record of one run plus the metadata the checker needs."""

    scenario_name: str
    n: int
    t: int
    seed: int
    scheduler: str
    adversary: str | None  # strategy name
    byzantine: tuple[int, ...]
    step_budget: int
    outcome: str
    # one Event per record, in seq order; SEND and DELIVER payloads are
    # the Message objects themselves, shared between records (see the
    # module docstring), and every payload must be treated as read-only
    events: list[Event] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)

    def correct_nodes(self) -> list[int]:
        return [p for p in range(self.n) if p not in self.byzantine]

    def quiescent(self) -> bool:
        """Every message sent to a correct process was delivered."""
        return self.outcome in (OUTCOME_QUIESCENT, OUTCOME_SETTLED)

    def meta_record(self) -> dict:
        return {
            "kind": "META",
            "scenario": self.scenario_name,
            "n": self.n,
            "t": self.t,
            "seed": self.seed,
            "scheduler": self.scheduler,
            "byzantine": list(self.byzantine),
            "outcome": self.outcome,
            "adversary": self.adversary,
            "step_budget": self.step_budget,
            "diagnostics": self.diagnostics,
        }

    def jsonl(self) -> str:
        """META, then one compact JSON line per event record.

        Each line is what json.dumps with separators (",", ":") gives for
        the record, built from the fixed field layout: seq, time, kind,
        then node, sender and receiver (an int or null), then the payload:
        a Message through its to_wire(), any other payload as it is. A
        payload object shared by several records is encoded once.
        """
        encode = json.JSONEncoder(separators=(",", ":")).encode
        lines = [encode(self.meta_record())]
        encoded: dict[int, str] = {}  # id(payload) -> JSON
        for seq, time, kind, node, sender, receiver, p in self.events:
            text = encoded.get(id(p))
            if text is None:
                text = encoded[id(p)] = encode(
                    p.to_wire() if isinstance(p, Message) else p)
            lines.append(_RECORD % (
                seq, time, kind,
                "null" if node is None else node,
                "null" if sender is None else sender,
                "null" if receiver is None else receiver, text))
        return "\n".join(lines) + "\n"

    def trace_hash(self) -> str:
        return jsonl_hash(self.jsonl())


def jsonl_hash(text: str) -> str:
    """The trace hash of a trace's jsonl() text: its sha256, in hex."""
    return hashlib.sha256(text.encode()).hexdigest()


class Simulation:
    """One run of a scenario. Drive with step() or run() to completion."""

    def __init__(self, scenario: ScenarioConfig):
        scenario.validate()
        self.scenario = scenario
        self.n = scenario.n
        self.t = scenario.t
        self.rng = random.Random(scenario.seed)
        self.byzantine = scenario.byzantine_nodes()
        self.strategy: AdversaryStrategy | None = None
        if scenario.adversary is not None:
            self.strategy = build_strategy(scenario.adversary, self.n, self.t,
                                           scenario.seed)
        self.nodes: dict[int, RegisterNode] = {
            pid: RegisterNode(pid, self.n, self.t, mutations=scenario.mutations)
            for pid in range(self.n) if pid not in self.byzantine
        }
        # per pid, the delivery handler and the sends one hook call may make
        self._handlers = [self.nodes[pid].handle if pid in self.nodes
                          else partial(self.strategy.on_deliver, pid)
                          for pid in range(self.n)]
        self._room = [sys.maxsize if pid in self.nodes
                      else scenario.send_cap() for pid in range(self.n)]
        # in flight, each message a tuple (id, sender, receiver, payload,
        # enqueue_time, correct): self.pool holds them in no particular
        # order, so a uniform draw is one index and a delivery swaps the
        # last entry into the hole; _by_id[mid] is message mid's index in
        # the pool while it is in flight and None once it is delivered or
        # set aside, and two forward cursors over it find the oldest
        # message and the oldest message between correct processes
        self.pool: list[tuple] = []
        self._by_id: list[int | None] = []
        self._low = 0  # no id below this is still in flight
        self._low_correct = 0  # likewise, between correct processes
        # ADVERSARIAL_REORDER: heap of (strategy rank, id), ranked at send
        self._ranked: list[tuple] = []
        self._reorder = (scenario.scheduler == "ADVERSARIAL_REORDER"
                         and self.strategy is not None)
        self._fairness = scenario.fairness_bound
        self._fifo = scenario.scheduler == "FIFO"
        self.time = 0
        self._delivered = 0  # deliveries so far, step()'s included
        self._seq = 0
        self.events: list[Event] = []
        self.halted = False
        self._op_state = {op.id: "waiting" for op in scenario.workload}
        self._open = len(scenario.workload)  # entries not yet done
        # messages to Byzantine processes set aside; None until settling
        self._aside: int | None = None
        self._running: dict[int, WorkloadOp] = {}  # process -> live entry
        # trigger indexes over workload positions; see _fire_workload
        self._ready: list[int] = []  # heap: triggers met, not yet started
        self._timed: list[tuple[int, int]] = []  # heap: (at, index)
        self._dependents: dict[str, list[int]] = {}  # after id -> indexes
        self._parked: dict[int, list[int]] = {}  # busy process -> indexes
        for index, entry in enumerate(scenario.workload):
            if entry.after is None:
                self._arm(index)
            else:
                self._dependents.setdefault(entry.after, []).append(index)

    # -- trace plumbing ------------------------------------------------------

    def _record(self, kind: str, node: int, sender, receiver,
                payload) -> Event:
        # fields in EVENT_FIELDS order; SENDs and DELIVERs are built inline
        event = Event((self._seq, self.time, kind, node, sender, receiver,
                       payload))
        self._seq += 1
        self.events.append(event)
        return event

    # -- network interface ----------------------------------------------------

    def _send(self, sender: int, receivers, payload: Message) -> None:
        """Put payload in flight from sender to each receiver, in order.

        One SEND record per receiver, all holding the payload object, and
        one message id each, issued in order: a message's id is its index
        in _by_id, which holds its index in the pool. Receivers must be
        pids in [0, n): a Broadcast's are by construction. A Send does not
        come here: _process_effects puts its one message in flight by the
        same rule, inline.
        """
        events, time = self.events, self.time
        pool, by_id = self.pool, self._by_id
        byzantine = self.byzantine
        sender_byz = sender in byzantine
        rank = self.strategy.delivery_rank if self._reorder else None
        seq, mid = self._seq, len(by_id)
        for receiver in receivers:
            # fields in EVENT_FIELDS order, as in _record
            events.append(Event((seq, time, "SEND", sender, sender, receiver,
                                 payload)))
            seq += 1
            if sender_byz or receiver in byzantine:
                if receiver in byzantine and self._aside is not None:
                    self._aside += 1
                    by_id.append(None)
                    mid += 1
                    continue
                msg = (mid, sender, receiver, payload, time, False)
            else:
                msg = (mid, sender, receiver, payload, time, True)
            by_id.append(len(pool))
            pool.append(msg)
            if rank is not None:
                heapq.heappush(self._ranked, (rank(msg), mid))
            mid += 1
        self._seq = seq

    def _take(self, msg: tuple) -> None:
        """Take an in-flight message out of flight, as _deliver does."""
        pool, by_id = self.pool, self._by_id
        mid = msg[0]
        last = pool.pop()
        if last is not msg:
            at = by_id[mid]
            pool[at] = last
            by_id[last[0]] = at
        by_id[mid] = None

    def _drop_to(self, receivers: frozenset[int]) -> int:
        """Take every message to receivers out of flight, in id order."""
        pool = self.pool
        doomed = [pool[at] for at in self._by_id[self._low:]
                  if at is not None and pool[at][2] in receivers]
        for msg in doomed:
            self._take(msg)
        return len(doomed)

    def _choose(self) -> tuple:
        """The scheduler's draw: the in-flight message to deliver next."""
        pool, by_id, low = self.pool, self._by_id, self._low
        while by_id[low] is None:
            low += 1
        self._low = low
        oldest = pool[by_id[low]]
        if self.time - oldest[4] >= self._fairness:
            if not oldest[5]:
                # an overdue message between correct processes goes first;
                # the second cursor walks forward to the oldest of those
                low, top = self._low_correct, len(by_id)
                while low < top:
                    at = by_id[low]
                    if at is not None and pool[at][5]:
                        break
                    low += 1
                self._low_correct = low
                if low < top:
                    first = pool[at]
                    if self.time - first[4] >= self._fairness:
                        return first
            return oldest
        if self._fifo:
            return oldest
        # only ADVERSARIAL_REORDER with a ranking strategy fills the heap:
        # lowest rank first, skipping ids the fairness rule already delivered
        ranked = self._ranked
        while ranked:
            at = by_id[heapq.heappop(ranked)[1]]
            if at is not None:
                return pool[at]
        # uniform over the pool: rng.randrange(len(pool)) inlined, drawing
        # the same bits, without its two Python frames
        size = len(pool)
        getrandbits = self.rng.getrandbits
        bits = size.bit_length()
        r = getrandbits(bits)
        while r >= size:
            r = getrandbits(bits)
        return pool[r]

    # -- node effects -----------------------------------------------------------

    def _process_effects(self, pid: int, effects) -> None:
        room = self._room[pid]  # see the send cap in the module docstring
        for eff in effects:
            kind = type(eff)
            if kind is Broadcast:
                k = self.n if room >= self.n else room
                room -= k
                self._send(pid, range(k), eff.payload)
            elif kind is Send:
                if not room:
                    continue
                room -= 1
                receiver, payload = eff.dest, eff.payload
                if not 0 <= receiver < self.n:
                    raise ValueError(f"receiver {receiver} out of range")
                # one message in flight, by _send's rule for each receiver
                seq, time = self._seq, self.time
                self._seq = seq + 1
                self.events.append(Event((seq, time, "SEND", pid, pid,
                                          receiver, payload)))
                by_id, byzantine = self._by_id, self.byzantine
                mid = len(by_id)
                if pid in byzantine or receiver in byzantine:
                    if receiver in byzantine and self._aside is not None:
                        self._aside += 1
                        by_id.append(None)
                        continue
                    msg = (mid, pid, receiver, payload, time, False)
                else:
                    msg = (mid, pid, receiver, payload, time, True)
                by_id.append(len(self.pool))
                self.pool.append(msg)
                if self._reorder:
                    heapq.heappush(self._ranked,
                                   (self.strategy.delivery_rank(msg), mid))
            elif kind is RDeliver:
                self._record("RDELIVER", pid, eff.origin, pid,
                             {"origin": eff.origin, "value": eff.value,
                              "sn": eff.sn})
            elif kind is Complete:
                self._complete_op(pid, eff)
            else:
                raise TypeError(f"unknown effect {eff!r}")

    def _complete_op(self, pid: int, eff: Complete) -> None:
        entry = self._running.pop(pid, None)
        if entry is None:
            raise RuntimeError(f"completion with no running op at p{pid}")
        self._mark_done(entry)
        for index in self._parked.pop(pid, ()):
            heapq.heappush(self._ready, index)
        self._record("OP_END", pid, pid, None,
                     {"op": eff.kind.upper(), "id": entry.id,
                      "target": eff.target, "value": eff.value, "sn": eff.sn})

    # -- workload -----------------------------------------------------------------

    def _arm(self, index: int) -> None:
        """An entry's after-trigger is met; queue it by its at-trigger."""
        at = self.scenario.workload[index].at
        if at is None or at <= self.time:
            heapq.heappush(self._ready, index)
        else:
            heapq.heappush(self._timed, (at, index))

    def _mark_done(self, entry: WorkloadOp) -> None:
        self._op_state[entry.id] = "done"
        self._open -= 1
        if self._open == 0:  # the last entry: settle
            self._aside = self._drop_to(self.byzantine)
        for index in self._dependents.pop(entry.id, ()):
            self._arm(index)

    def _fire_workload(self) -> None:
        """Start every entry whose triggers hold and whose process is idle.

        Entries start in sweeps over the ready set in workload order. A
        Byzantine entry counts as done the moment it fires, so it can make
        others ready mid-sweep: those listed after it start in the same
        sweep, those listed before it in the next.
        """
        timed, ready = self._timed, self._ready
        while timed and timed[0][0] <= self.time:
            heapq.heappush(ready, heapq.heappop(timed)[1])
        workload = self.scenario.workload
        while ready:
            passed: list[int] = []
            cursor = -1
            while ready:
                index = heapq.heappop(ready)
                if index < cursor:
                    passed.append(index)  # the sweep has gone by it
                    continue
                cursor = index
                entry = workload[index]
                pid = entry.process
                if pid in self.byzantine:
                    # handed to the strategy; completion is not observable
                    self._mark_done(entry)
                    self._process_effects(
                        pid, self.strategy.on_workload(pid, entry))
                    continue
                if pid in self._running:
                    # retried once the running op completes
                    self._parked.setdefault(pid, []).append(index)
                    continue
                node = self.nodes[pid]
                self._op_state[entry.id] = "running"
                self._running[pid] = entry
                self._record("OP_START", pid, pid, None,
                             {"op": entry.op.upper(), "id": entry.id,
                              "target": entry.target if entry.op == "read"
                              else pid,
                              "value": entry.value})
                if entry.op == "write":
                    self._process_effects(pid, node.begin_write(entry.value))
                else:
                    self._process_effects(pid, node.begin_read(entry.target))
            # a later Byzantine entry may have passed a lower index, so
            # restore workload order before the next sweep
            passed.sort()
            ready.extend(passed)  # ready is empty here

    # -- main loop ------------------------------------------------------------------

    def _workload_due(self) -> bool:
        """Whether a workload entry may be ready to start, before a delivery.

        True when an entry's triggers are met or its "at" time has come;
        _fire_workload then starts what it can.
        """
        timed = self._timed
        if self._ready or timed and timed[0][0] <= self.time:
            return True
        return False

    def _deliver(self, limit: int) -> Event | None:
        """The delivery loop: deliver up to limit messages.

        Before each delivery, starts the workload if an entry is due. Stops
        early when nothing is in flight. Returns the last DELIVER record,
        or None if there was none.
        """
        pool, by_id = self.pool, self._by_id
        events, handlers = self.events, self._handlers
        due, choose = self._workload_due, self._choose
        event = None
        count = 0
        while count < limit:
            if due():
                self._fire_workload()
            if not pool:
                break
            msg = choose()
            mid, sender, receiver, payload, _, _ = msg
            # out of flight, as _take: the last pool entry fills the hole
            last = pool.pop()
            if last is not msg:
                at = by_id[mid]
                pool[at] = last
                by_id[last[0]] = at
            by_id[mid] = None
            self.time = time = self.time + 1
            seq = self._seq
            self._seq = seq + 1
            # fields in EVENT_FIELDS order, as in _record
            event = Event((seq, time, "DELIVER", receiver, sender, receiver,
                           payload))
            events.append(event)
            effects = handlers[receiver](sender, payload)
            if effects:  # most deliveries change nothing visible
                self._process_effects(receiver, effects)
            count += 1
        self._delivered += count
        return event

    def step(self) -> Event | None:
        """Deliver one message; returns its DELIVER event, or None at rest.

        On an idle network, time jumps to the next time-triggered entry as
        in run(), so None means nothing is in flight and no entry is timed.
        Once the run has halted its trace is final: stepping raises.
        """
        if self.halted:
            raise SimulationClosedError("cannot step after the run halted")
        event = self._deliver(1)
        while event is None and self._advance_idle_time():
            event = self._deliver(1)
        return event

    def run(self) -> Trace:
        """Deliver until the run is at rest or has spent its step budget.

        The budget counts every delivery of the run, step()'s included.
        """
        if self.halted:
            raise SimulationClosedError("cannot run after the run halted")
        with _gc_paused():
            budget = self.scenario.step_budget
            while True:
                self._deliver(budget - self._delivered)
                spent = self._delivered >= budget
                if spent or not self._advance_idle_time():
                    break
        if spent and not self._at_rest():
            outcome = OUTCOME_BUDGET
        elif self._open:
            outcome = OUTCOME_STUCK
        elif self._aside:
            outcome = OUTCOME_SETTLED
        else:
            outcome = OUTCOME_QUIESCENT
        for pid in sorted(self.nodes):
            self._record("FINAL", pid, None, None, self.nodes[pid].digest())
        self.halted = True
        adversary = self.scenario.adversary
        return Trace(
            scenario_name=self.scenario.name,
            n=self.n, t=self.t, seed=self.scenario.seed,
            scheduler=self.scenario.scheduler,
            adversary=adversary.name if adversary is not None else None,
            byzantine=tuple(sorted(self.byzantine)),
            step_budget=self.scenario.step_budget,
            outcome=outcome,
            events=self.events,
            diagnostics=self._diagnostics(outcome))

    def _at_rest(self) -> bool:
        """Nothing is in flight and no workload entry can start.

        An entry that is ready, or waits only for its "at" time, can start
        unless its process is busy with an operation that, with nothing in
        flight, never ends.
        """
        if self.pool:
            return False
        workload, running = self.scenario.workload, self._running
        waiting = [*self._ready, *(index for _, index in self._timed)]
        return all(workload[index].process in running for index in waiting)

    def _advance_idle_time(self) -> bool:
        """On an idle network, jump to the next time-triggered entry."""
        if not self._timed:
            return False
        self.time = self._timed[0][0]
        return True

    def _diagnostics(self, outcome: str) -> list[str]:
        if outcome == OUTCOME_QUIESCENT:
            return []
        if outcome == OUTCOME_SETTLED:
            return [f"{self._aside} messages to Byzantine processes set aside"]
        notes = [f"{opid}: {state}" for opid, state in self._op_state.items()
                 if state != "done"]
        for pid in sorted(self.nodes):
            notes.extend(self.nodes[pid].guard_diagnostics())
        if len(self.pool):
            notes.append(f"{len(self.pool)} messages still in flight")
        return notes
