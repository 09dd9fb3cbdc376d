"""Pluggable Byzantine behaviors.

A strategy instance controls every faulty node of a run (at most t of
them). It sees exactly what the model allows: messages delivered to its
nodes, its own workload triggers, and, under the ADVERSARIAL_REORDER
scheduling policy, every message as it is sent. A strategy with a
``delivery_rank`` method ranks each message once, at its send; the
simulator then delivers the lowest-ranked message in flight next, unless
the fairness bound forces an older one. A rank may reorder messages but
never alter them. A strategy cannot forge another process's sender
identity; the simulator stamps senders itself.

The hooks ``on_workload`` and ``on_deliver`` return the send effects of a
correct node, ``Send`` and ``Broadcast`` (to processes 0..n-1 in pid
order); a faulty node's r-deliveries and completions never reach the
trace. One hook call sends at most ``ScenarioConfig.send_cap()`` messages,
a ``Broadcast`` counting n; one that crosses the cap reaches processes
0..k-1 only, k being the room left, and the simulator drops the rest.

Every strategy is a deterministic function of (scenario seed, inputs), so
runs containing Byzantine nodes replay byte-identically. Each declares the
params it reads in ``PARAMS``, with their kinds and defaults;
``ScenarioConfig.validate`` rejects any other key and any value of the wrong
kind before a run starts.
"""
from __future__ import annotations

import random

from .messages import (App, CatchUp, CatchUpDone, Echo, Message, ReadReq,
                       Ready, StateReply, WriteDone)
from .register import RegisterNode
from .rbcast import Broadcast, Send
from .scenario import PROCESS, AdversarySpec, WorkloadOp


class AdversaryStrategy:
    """Base: a silent node that never sends and ignores everything."""

    name = "CRASH_SILENT"
    # param name -> (int or PROCESS, default); each param becomes an
    # attribute of the same name
    PARAMS: dict[str, tuple[object, int | None]] = {}

    def __init__(self, nodes: tuple[int, ...], n: int, t: int, seed: int,
                 params: dict):
        self.nodes = tuple(nodes)
        self.n = n
        self.t = t
        for key, (_kind, default) in self.PARAMS.items():
            setattr(self, key, params.get(key, default))
        self.rng = random.Random(f"{seed}:{self.name}")

    # Under ADVERSARIAL_REORDER, a method mapping an in-flight message, the
    # simulator's tuple (id, sender, receiver, payload, enqueue_time,
    # correct), to a rank (lowest delivered first), called once per send.
    # None keeps delivery uniformly random.
    delivery_rank = None

    def on_workload(self, pid: int,
                    entry: WorkloadOp) -> list[Send | Broadcast]:
        return []

    def on_deliver(self, pid: int, sender: int,
                   payload: Message) -> list[Send | Broadcast]:
        return []


class CrashSilent(AdversaryStrategy):
    name = "CRASH_SILENT"


class EquivocateWrite(AdversaryStrategy):
    """Send conflicting APP values for the same sequence number.

    Each write trigger broadcasts value "<v>/a" to a random subset of the
    processes and "<v>/b" to the rest, then votes for both values itself.
    With params {"victim": k} the supporting votes go only to process k,
    which maximizes the chance that a single process crosses a threshold
    no one else crosses; without it they go to every process.
    """

    name = "EQUIVOCATE_WRITE"
    PARAMS = {"victim": (PROCESS, None)}

    def __init__(self, nodes, n, t, seed, params):
        super().__init__(nodes, n, t, seed, params)
        self.sn = {pid: 0 for pid in nodes}

    def on_workload(self, pid, entry):
        if entry.op != "write":
            return []
        self.sn[pid] += 1
        sn = self.sn[pid]
        base = entry.value if entry.value is not None else "e"
        va, vb = f"{base}/a", f"{base}/b"
        sends = [Send(dest, App(va if self.rng.random() < 0.5 else vb, sn))
                 for dest in range(self.n)]
        for dest in self._support_targets():
            for v in (va, vb):
                sends.append(Send(dest, Echo(pid, v, sn)))
                sends.append(Send(dest, Ready(pid, v, sn)))
        return sends

    def on_deliver(self, pid, sender, payload):
        # colluders vote for whichever branch of a fellow's equivocation
        # they were handed
        if isinstance(payload, App) and sender in self.nodes and sender != pid:
            return [Send(dest, msg)
                    for dest in self._support_targets()
                    for msg in (Echo(sender, payload.value, payload.sn),
                                Ready(sender, payload.value, payload.sn))]
        return []

    def _support_targets(self) -> list[int]:
        return list(range(self.n)) if self.victim is None else [self.victim]


class SeqSkip(AdversaryStrategy):
    """Broadcast writes with non-consecutive sequence numbers.

    Correct receivers hold the out-of-sequence instances forever, so this
    writer wedges only its own register.
    """

    name = "SEQ_SKIP"

    def __init__(self, nodes, n, t, seed, params):
        super().__init__(nodes, n, t, seed, params)
        self.sn = {pid: 0 for pid in nodes}

    def on_workload(self, pid, entry):
        if entry.op != "write":
            return []
        self.sn[pid] += 2  # always leaves a gap
        return [Broadcast(App(entry.value, self.sn[pid]))]


class StaleState(AdversaryStrategy):
    """Answer read requests with a forged sequence number.

    params: {"report": int} fixes the forged number (default an absurdly
    inflated one; 0 deflates instead).
    """

    name = "STALE_STATE"
    PARAMS = {"report": (int, 10 ** 6)}

    def on_deliver(self, pid, sender, payload):
        if isinstance(payload, ReadReq):
            return [Send(sender, StateReply(payload.target, payload.rsn,
                                            self.report))]
        return []


class AckForge(AdversaryStrategy):
    """Acknowledge without doing the work, and volunteer stray acks."""

    name = "ACK_FORGE"

    def on_deliver(self, pid, sender, payload):
        sends = []
        if isinstance(payload, App):
            # premature: nothing was applied
            sends.append(Send(sender, WriteDone(payload.sn)))
        elif isinstance(payload, CatchUp):
            # premature: local copy never caught up
            sends.append(Send(sender, CatchUpDone(payload.target, payload.sn)))
        elif isinstance(payload, Echo):
            target = self.rng.randrange(self.n)
            sends.append(Send(target, WriteDone(self.rng.randint(1, 4))))
            sends.append(Send(target, CatchUpDone(self.rng.randrange(self.n),
                                                  self.rng.randint(1, 4))))
        return sends


class ReadyPoison(AdversaryStrategy):
    """Vote READY for instances nobody broadcast.

    Votes go to fewer than t+1 targets at a time, and with at most t
    poisoners no correct process can ever amplify or deliver the fake
    instance; the suite asserts the poison value is never delivered.

    params: {"origin": pid} selects whose register is framed (default 0).
    Any integer is allowed: votes for an origin outside [0, n) frame no
    register, and correct processes must drop them.
    """

    name = "READY_POISON"
    PARAMS = {"origin": (int, 0)}
    poison_value = "POISON"

    def __init__(self, nodes, n, t, seed, params):
        super().__init__(nodes, n, t, seed, params)
        self.counter = 0
        # votes cycle through sn 1..4; poison[i] carries sn i+1
        self.poison = [Ready(self.origin, self.poison_value, sn)
                       for sn in range(1, 5)]

    def on_deliver(self, pid, sender, payload):
        self.counter += 1
        vote = self.poison[self.counter % 4]
        k = max(1, self.t)  # strictly fewer than t+1 targets
        targets = self.rng.sample(range(self.n), k)
        return [Send(dest, vote) for dest in targets]


class ColludeDelay(AdversaryStrategy):
    """Run the correct protocol but skew delivery order to starve readers.

    The nodes themselves are protocol-honest; the damage is done through
    the ADVERSARIAL_REORDER scheduling hook. Broadcast-layer traffic is
    rushed toward one favored process and withheld from everyone else for
    as long as the fairness bound allows, opening the widest possible gap
    between the favored process's register copy and the rest. An optional
    victim is starved hardest of all, so it answers and issues reads with
    the stalest copy the fairness bound permits.

    params: {"favored": pid} (default 0), {"victim": pid} (optional).
    """

    name = "COLLUDE_DELAY"
    PARAMS = {"favored": (PROCESS, 0), "victim": (PROCESS, None)}

    def __init__(self, nodes, n, t, seed, params):
        super().__init__(nodes, n, t, seed, params)
        self.inner = {pid: RegisterNode(pid, n, t) for pid in nodes}

    # only the inner node's sends leave it: its r-deliveries and
    # completions stay invisible

    def on_workload(self, pid, entry):
        node = self.inner[pid]
        effects = (node.begin_write(entry.value) if entry.op == "write"
                   else node.begin_read(entry.target))
        return [e for e in effects if isinstance(e, (Send, Broadcast))]

    def on_deliver(self, pid, sender, payload):
        return [e for e in self.inner[pid].handle(sender, payload)
                if isinstance(e, (Send, Broadcast))]

    def delivery_rank(self, msg: tuple) -> int:
        receiver, payload = msg[2], msg[3]
        tag = payload.tag
        if tag in ("APP", "ECHO"):
            return 0
        if tag == "READY":
            if receiver == self.favored:
                return 0
            return 3 if receiver == self.victim else 2
        return 1


STRATEGIES: dict[str, type[AdversaryStrategy]] = {
    cls.name: cls
    for cls in (CrashSilent, EquivocateWrite, SeqSkip, StaleState, AckForge,
                ReadyPoison, ColludeDelay)
}


def build_strategy(spec: AdversarySpec, n: int, t: int,
                   seed: int) -> AdversaryStrategy:
    return STRATEGIES[spec.name](spec.nodes, n, t, seed, spec.params)
