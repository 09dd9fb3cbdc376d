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

Every strategy is a deterministic function of (scenario seed, inputs), so
runs containing Byzantine nodes replay byte-identically.
"""
from __future__ import annotations

import random

from .messages import (App, CatchUp, CatchUpDone, Echo, Message, ReadReq,
                       Ready, StateReply, WriteDone)
from .register import RegisterNode
from .rbcast import Send
from .scenario import AdversarySpec, WorkloadOp


class AdversaryStrategy:
    """Base: a silent node that never sends and ignores everything."""

    name = "CRASH_SILENT"

    def __init__(self, nodes: tuple[int, ...], n: int, t: int, seed: int,
                 params: dict):
        self.nodes = tuple(nodes)
        self.n = n
        self.t = t
        self.params = dict(params)
        self.rng = random.Random(f"{seed}:{self.name}")
        # one object per node, so the simulator's snapshot cache hits
        self._digests = {pid: (self.name, pid) for pid in self.nodes}

    # Under ADVERSARIAL_REORDER, a method mapping a netsim.PendingMessage to
    # a rank (lowest delivered first), called once per send. None keeps
    # delivery uniformly random.
    delivery_rank = None

    def on_workload(self, pid: int, entry: WorkloadOp) -> list[Send]:
        return []

    def on_deliver(self, pid: int, sender: int, payload: Message) -> list[Send]:
        return []

    def digest(self, pid: int) -> tuple:
        return self._digests[pid]


class CrashSilent(AdversaryStrategy):
    name = "CRASH_SILENT"


class EquivocateWrite(AdversaryStrategy):
    """Send conflicting APP values for the same sequence number.

    Each write trigger broadcasts value "<v>/a" to a random subset of the
    processes and "<v>/b" to the rest, then votes for both values itself.
    With params {"selective": true, "victim": k} the supporting votes go
    only to process k, which maximizes the chance that a single process
    crosses a threshold no one else crosses.
    """

    name = "EQUIVOCATE_WRITE"

    def __init__(self, nodes, n, t, seed, params):
        super().__init__(nodes, n, t, seed, params)
        self.sn = {pid: 0 for pid in nodes}
        self.selective = bool(params.get("selective", False))
        self.victim = int(params.get("victim", 0))

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
        return [self.victim] if self.selective else list(range(self.n))


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
        return [Send(dest, App(entry.value, self.sn[pid]))
                for dest in range(self.n)]


class StaleState(AdversaryStrategy):
    """Answer read requests with a forged sequence number.

    params: {"report": int} fixes the forged number (default an absurdly
    inflated one); {"mode": "deflate"} reports 0 instead.
    """

    name = "STALE_STATE"

    def __init__(self, nodes, n, t, seed, params):
        super().__init__(nodes, n, t, seed, params)
        if params.get("mode") == "deflate":
            self.report = 0
        else:
            self.report = int(params.get("report", 10 ** 6))

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
    """

    name = "READY_POISON"
    poison_value = "POISON"

    def __init__(self, nodes, n, t, seed, params):
        super().__init__(nodes, n, t, seed, params)
        self.origin = int(params.get("origin", 0))
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

    def __init__(self, nodes, n, t, seed, params):
        super().__init__(nodes, n, t, seed, params)
        self.favored = int(params.get("favored", 0))
        self.victim = params.get("victim")
        self.inner = {pid: RegisterNode(pid, n, t) for pid in nodes}
        self._digests = {pid: (self.name, pid, node.digest())
                         for pid, node in self.inner.items()}

    def _sends_only(self, effects) -> list[Send]:
        return [e for e in effects if isinstance(e, Send)]

    def on_workload(self, pid, entry):
        node = self.inner[pid]
        if entry.op == "write":
            return self._sends_only(node.begin_write(entry.value))
        return self._sends_only(node.begin_read(entry.target))

    def on_deliver(self, pid, sender, payload):
        # deliveries and completions inside a faulty node stay invisible;
        # only its sends reach the network
        effects = self.inner[pid].handle(sender, payload)
        return self._sends_only(effects)

    def delivery_rank(self, msg) -> int:
        tag = msg.payload.tag
        if tag in ("APP", "ECHO"):
            return 0
        if tag == "READY":
            if msg.receiver == self.favored:
                return 0
            return 3 if msg.receiver == self.victim else 2
        return 1

    def digest(self, pid):
        inner = self.inner[pid].digest()
        wrapped = self._digests[pid]
        if wrapped[2] is not inner:
            wrapped = self._digests[pid] = (self.name, pid, inner)
        return wrapped


STRATEGIES: dict[str, type[AdversaryStrategy]] = {
    cls.name: cls
    for cls in (CrashSilent, EquivocateWrite, SeqSkip, StaleState, AckForge,
                ReadyPoison, ColludeDelay)
}


def build_strategy(spec: AdversarySpec, n: int, t: int,
                   seed: int) -> AdversaryStrategy:
    return STRATEGIES[spec.name](spec.nodes, n, t, seed, spec.params)
