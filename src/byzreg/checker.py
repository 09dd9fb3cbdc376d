"""Post-hoc trace verifier.

Everything here is a pure function over a recorded trace.
``derive_histories`` is the only function that reads the trace's event
records, and the only one that groups operations by register; it fills
a ``History`` in one pass, and every other check works from that History
and the trace's metadata (n, the Byzantine set, the outcome). The checker
derives, per register, the sequence of values the correct processes
applied when they r-delivered them (the register's history), its writes
and its completed reads, resolves every completed read to a position in
that history (position 0 is every register's initial value, None), and
then decides:

* per-writer agreement: all correct processes apply the same value at each
  position of each register;
* the three consistency properties over non-overlapping operations of
  correct processes: a read never returns a value at or past a write that
  started strictly after it finished, never returns a value older than a
  write that finished before it started, and a later read never returns an
  older value than an earlier one. Each is one sweep over a register's
  reads with a bisect per read, so O(ops log ops) (see ``check_safety``);
* the broadcast-layer properties (validity, integrity, uniformity,
  termination) over the recorded deliveries; termination and the
  all-or-none part of uniformity on quiescent runs only;
* liveness: on quiescent runs, every started operation finished. A run
  is quiescent when every message sent to a correct process was
  delivered: it ended QUIESCENT, or SETTLED with only messages to
  Byzantine processes set aside (see ``netsim``);
* message cost: every completed read costs at most 4n sends among correct
  processes and every write at most 2n^2 + 2n. The cost is exact only on
  the fault-free FIFO baseline: under RANDOM a process that r-delivers
  from READYs before the APP reaches it never echoes, so a fault-free
  write can cost less;
* a linearization witness: a total order of the operations that an
  independent validator accepts (each operation at a single point inside
  its interval, reads returning the closest preceding write), built with
  one sort per register.

So the whole checker, witness included, is O(ops log ops).

Every FAIL verdict carries the sequence numbers of the events that exhibit
the violation, so it can be replayed against the stored trace.
"""
from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field

from .errors import TraceError
from .messages import Value
from .netsim import Trace, _gc_paused

PASS = "PASS"
FAIL = "FAIL"
VACUOUS = "VACUOUS"
NONTERMINATING = "NONTERMINATING"


@dataclass(frozen=True)
class Verdict:
    prop: str
    status: str
    detail: str = ""
    counterexample: tuple[int, ...] = ()

    def __str__(self):
        note = f" ({self.detail})" if self.detail else ""
        return f"{self.prop}: {self.status}{note}"


@dataclass
class OperationRecord:
    kind: str  # "WRITE" | "READ"
    op_id: str
    invoker: int
    target: int
    start_seq: int
    end_seq: int | None
    value: Value = None
    index: int | None = None  # position in the target register's history
    # 1-based count of the invoker's operations of this kind on target, so
    # a write's sn or a read's rsn
    number: int = 0
    counts: dict[str, int] = field(default_factory=dict)  # sends, by tag

    def completed(self) -> bool:
        return self.end_seq is not None

    @property
    def total(self) -> int:
        return sum(self.counts.values())


@dataclass
class History:
    """What the checks need from a trace's event records, gathered once.

    Per-register write sequences, the operations in start order with the
    sends charged to each, each register's writes and completed reads
    (``derive_histories`` is the only code that groups operations by
    register), the r-deliveries at correct processes and the broadcasts
    correct origins started.
    """

    values: dict[int, list[Value]]  # writer -> [H[1], H[2], ...]
    ops: list[OperationRecord]  # in start order
    # register -> its writes in index order. A faulty writer has no
    # observable invocation, so its position x is a record that starts at
    # the first correct apply of x and has no end; none of these is in ops
    writes: dict[int, list[OperationRecord]] = field(default_factory=dict)
    # register -> its completed reads in start order; every register with
    # a read, open or not, has an entry
    reads: dict[int, list[OperationRecord]] = field(default_factory=dict)
    derivation_verdicts: list[Verdict] = field(default_factory=list)
    # (node, origin, value, sn, seq) of each r-delivery at a correct node
    deliveries: list[tuple[int, int, Value, int, int]] = field(
        default_factory=list)
    # (origin, sn) of a correct origin -> values its APPs carried
    broadcasts: dict[tuple[int, int], set[Value]] = field(default_factory=dict)
    first_app_seq: dict[tuple[int, int], int] = field(default_factory=dict)
    unattributed: int = 0  # sends by correct processes no operation owns


# ---------------------------------------------------------------------------
# history derivation
# ---------------------------------------------------------------------------

# tags of the sends charged by their receiver: acks and replies
_BY_RECEIVER = frozenset({"WRITE_DONE", "STATE", "CATCH_UP_DONE"})


def derive_histories(trace: Trace) -> History:
    """Gather what the checks need from the trace's event records.

    This is the only function that reads them. One pass collects the
    operations, the r-deliveries at correct processes (each is also that
    process's register apply) and the APPs correct origins sent, and
    charges every send by a correct process to the operation it serves:

    * broadcast-layer messages and write acks to the write instance they
      carry;
    * read requests and state replies to the read they quote;
    * catch-up traffic to the requester's latest read of that register
      started before the send.

    The tables these lookups read change only at an OP_START, so each
    further SEND of one broadcast batch (the same payload object from the
    same correct sender) is charged where the first one was, without a
    second lookup, unless its op depends on the receiver (WRITE_DONE,
    STATE, CATCH_UP_DONE).

    Per-writer histories and agreement then come from the deliveries, and
    one pass over the operations groups them by register and resolves
    each completed read.

    Raises TraceError, naming the record's seq, for an OP_END whose id
    has no OP_START or whose sn is not a non-negative integer.
    """
    correct = set(trace.correct_nodes())
    byzantine = set(trace.byzantine)
    ops: dict[str, OperationRecord] = {}
    writes: dict[tuple[int, int], OperationRecord] = {}  # (writer, sn)
    # (reader, target, rsn) -> op
    reads: dict[tuple[int, int, int], OperationRecord] = {}
    # (kind, invoker, target) -> the invoker's latest such operation
    latest: dict[tuple[str, int, int], OperationRecord] = {}
    deliveries: list[tuple[int, int, Value, int, int]] = []
    broadcasts: dict[tuple[int, int], set[Value]] = {}
    first_app_seq: dict[tuple[int, int], int] = {}
    unattributed = 0
    # the current broadcast batch: its payload, sender and tag, and the
    # sends per tag of the op it is charged to (None: unattributed)
    batch = batch_sender = tag = batch_counts = None
    for seq, _, kind, node, sender, receiver, p in trace.events:
        if kind == "DELIVER":  # about half the records; none is needed
            continue
        if kind == "SEND":
            if p is batch and sender == batch_sender:
                if batch_counts is None:
                    unattributed += 1
                else:
                    batch_counts[tag] += 1
                continue
            if sender not in correct:
                continue
            tag = p.tag
            op = None
            if tag == "APP":
                key = (sender, p.sn)
                broadcasts.setdefault(key, set()).add(p.value)
                first_app_seq.setdefault(key, seq)
                op = writes.get(key)
            elif tag in ("ECHO", "READY"):
                op = writes.get((p.origin, p.sn))
            elif tag == "WRITE_DONE":
                op = writes.get((receiver, p.sn))
            elif tag == "READ":
                op = reads.get((sender, p.target, p.rsn))
            elif tag == "STATE":
                op = reads.get((receiver, p.target, p.rsn))
            elif tag == "CATCH_UP":
                op = latest.get(("READ", sender, p.target))
            elif tag == "CATCH_UP_DONE":
                op = latest.get(("READ", receiver, p.target))
            if op is None:
                unattributed += 1  # e.g. replies to a Byzantine requester
                batch_counts = None
            else:
                batch_counts = op.counts
                batch_counts[tag] = batch_counts.get(tag, 0) + 1
            if tag in _BY_RECEIVER:
                batch = None
            else:
                batch, batch_sender = p, sender
        elif kind == "RDELIVER":
            if node in correct:
                deliveries.append((node, p["origin"], p["value"], p["sn"],
                                   seq))
        elif kind == "OP_START":
            batch = None  # the lookup tables change
            op = OperationRecord(
                kind=p["op"], op_id=p["id"], invoker=node,
                target=p["target"], start_seq=seq, end_seq=None,
                value=p.get("value"))
            key = (op.kind, op.invoker, op.target)
            previous = latest.get(key)
            op.number = 1 if previous is None else previous.number + 1
            latest[key] = ops[op.op_id] = op
            if op.kind == "WRITE":
                # a correct writer numbers its writes consecutively, so a
                # write that never completed still has a known position
                op.index = op.number
                writes[(op.invoker, op.number)] = op
            else:
                reads[(op.invoker, op.target, op.number)] = op
        elif kind == "OP_END":
            op = ops.get(p["id"])
            if op is None:
                raise TraceError(f"record {seq}: OP_END of {p['id']!r}, "
                                 "which has no OP_START")
            index = p["sn"]
            if type(index) is not int or index < 0:
                raise TraceError(f"record {seq}: OP_END of {p['id']!r} has "
                                 f"sn {index!r}, not a non-negative integer")
            op.end_seq = seq
            op.value = p["value"]
            op.index = index

    applies: dict[int, dict[int, list[tuple[int, Value, int]]]] = {}
    for node, origin, value, sn, seq in deliveries:
        applies.setdefault(origin, {}).setdefault(node, []).append(
            (sn, value, seq))

    verdicts: list[Verdict] = []
    values: dict[int, list[Value]] = {}
    register_writes: dict[int, list[OperationRecord]] = {}
    agreement_ok = True
    for writer, per_node in sorted(applies.items()):
        by_pos: dict[int, tuple[Value, int]] = {}
        first_seq: dict[int, int] = {}  # position -> its first apply
        for node, seq_applies in sorted(per_node.items()):
            expected = 1
            for sn, value, seq in seq_applies:
                if sn != expected:
                    agreement_ok = False
                    verdicts.append(Verdict(
                        "per-writer-agreement", FAIL,
                        f"p{node} applied sn {sn} of reg[{writer}] out of order "
                        f"(expected {expected})", (seq,)))
                expected = sn + 1
                if sn not in by_pos:
                    by_pos[sn] = (value, seq)
                else:
                    seen_value, seen_seq = by_pos[sn]
                    if seen_value != value:
                        agreement_ok = False
                        verdicts.append(Verdict(
                            "per-writer-agreement", FAIL,
                            f"reg[{writer}] position {sn}: {seen_value!r} vs "
                            f"{value!r} at different correct nodes",
                            (seen_seq, seq)))
                first_seq[sn] = min(first_seq.get(sn, seq), seq)
        # the history ends at the first position no correct node applied
        hist = values[writer] = []
        while len(hist) + 1 in by_pos:
            hist.append(by_pos[len(hist) + 1][0])
        if writer in byzantine:
            register_writes[writer] = [
                OperationRecord("WRITE", f"write[{x}]", writer, writer,
                                first_seq[x], None, value, index=x)
                for x, value in enumerate(hist, 1)]
    if agreement_ok:
        verdicts.append(Verdict("per-writer-agreement", PASS))

    register_reads: dict[int, list[OperationRecord]] = {}
    resolution = Verdict("read-resolution", PASS)
    for op in ops.values():
        if op.kind == "WRITE":
            # a correct writer numbers its writes in start order
            if op.target not in byzantine and op.index is not None:
                register_writes.setdefault(op.target, []).append(op)
            continue
        completed = register_reads.setdefault(op.target, [])
        if not op.completed():
            continue
        completed.append(op)
        if resolution.status == FAIL:
            continue  # one FAIL is enough
        hist = values.get(op.target, [])
        # index 0 is the initial value, None, at every register
        if op.index > len(hist) or (
                hist[op.index - 1] if op.index else None) != op.value:
            resolution = Verdict(
                "read-resolution", FAIL,
                f"read {op.op_id} returned ({op.value!r}, {op.index}) which "
                f"is not an entry of reg[{op.target}]'s history",
                (op.start_seq, op.end_seq))
    verdicts.append(resolution)

    return History(values=values, ops=list(ops.values()),
                   writes=register_writes, reads=register_reads,
                   derivation_verdicts=verdicts, deliveries=deliveries,
                   broadcasts=broadcasts, first_app_seq=first_app_seq,
                   unattributed=unattributed)


# ---------------------------------------------------------------------------
# consistency properties
# ---------------------------------------------------------------------------

def check_safety(history: History, trace: Trace) -> list[Verdict]:
    """The three ordered-pair properties over correct processes' operations.

    Each is one sweep over a register's completed reads, which come in
    start order, with a bisect per read. A write's start ascends with its
    index (for a faulty writer too: position x+1 is first applied after
    x), and a sequential writer's completed writes end in index order. So
    the writes that start after a read ends, those that end before it
    starts, and the reads that start after it ends are each a suffix or a
    prefix, found in O(log ops), and the first violating pair is the one a
    scan of every pair in order would find.
    """
    return [_check_read_then_write(history),
            _check_write_then_read(history),
            _check_no_read_inversion(history)]


def _check_read_then_write(history: History) -> Verdict:
    checked = 0
    for target, reads in sorted(history.reads.items()):
        writes = history.writes.get(target, [])
        starts = [w.start_seq for w in writes]
        for read in reads:
            later = bisect.bisect_right(starts, read.end_seq)
            checked += len(writes) - later
            if later < len(writes) and writes[later].index <= read.index:
                w = writes[later]
                return Verdict(
                    "read-followed-by-write", FAIL,
                    f"read {read.op_id} of reg[{target}] returned index "
                    f"{read.index} but finished before write {w.index} "
                    "started", (read.start_seq, read.end_seq, w.start_seq))
    if checked == 0:
        return Verdict("read-followed-by-write", VACUOUS,
                       "no read strictly precedes a write")
    return Verdict("read-followed-by-write", PASS, f"{checked} pairs")


def _check_write_then_read(history: History) -> Verdict:
    checked = 0
    for target, reads in sorted(history.reads.items()):
        if target not in history.values:
            continue
        writes = [w for w in history.writes.get(target, []) if w.completed()]
        ends = [w.end_seq for w in writes]
        indices = [w.index for w in writes]
        for read in reads:
            before = bisect.bisect_left(ends, read.start_seq)
            checked += before
            newer = bisect.bisect_right(indices, read.index, 0, before)
            if newer < before:
                w = writes[newer]
                return Verdict(
                    "write-followed-by-read", FAIL,
                    f"write {w.op_id} (index {w.index}) finished before "
                    f"read {read.op_id} started, which returned index "
                    f"{read.index}",
                    (w.start_seq, w.end_seq, read.start_seq, read.end_seq))
    if checked == 0:
        return Verdict("write-followed-by-read", VACUOUS,
                       "no completed write strictly precedes a read")
    return Verdict("write-followed-by-read", PASS, f"{checked} pairs")


def _check_no_read_inversion(history: History) -> Verdict:
    checked = 0
    for _target, reads in sorted(history.reads.items()):
        starts = [r.start_seq for r in reads]
        # least[i]: the least index among reads[i:]
        least = list(itertools.accumulate(
            (r.index for r in reversed(reads)), min))[::-1]
        for r1 in reads:
            later = bisect.bisect_right(starts, r1.end_seq)
            checked += len(reads) - later
            if later < len(reads) and least[later] < r1.index:
                r2 = next(r for r in reads[later:] if r.index < r1.index)
                return Verdict(
                    "no-read-inversion", FAIL,
                    f"read {r1.op_id} returned index {r1.index}, then read "
                    f"{r2.op_id} (started after {r1.op_id} ended) returned "
                    f"older index {r2.index}",
                    (r1.start_seq, r1.end_seq, r2.start_seq, r2.end_seq))
    if checked == 0:
        return Verdict("no-read-inversion", VACUOUS,
                       "no two reads of one register are strictly ordered")
    return Verdict("no-read-inversion", PASS, f"{checked} pairs")


# ---------------------------------------------------------------------------
# reliable broadcast properties
# ---------------------------------------------------------------------------

def check_rb(history: History, trace: Trace) -> list[Verdict]:
    correct = set(trace.correct_nodes())
    deliveries = history.deliveries
    # (origin, sn) -> node -> (value, seq) of its delivery
    per_instance: dict[tuple[int, int], dict[int, tuple[Value, int]]] = {}
    for node, origin, value, sn, seq in deliveries:
        per_instance.setdefault((origin, sn), {})[node] = (value, seq)
    return [
        _rb_validity(deliveries, history.broadcasts, correct),
        _rb_integrity(deliveries),
        _rb_uniformity(per_instance, correct, trace.quiescent()),
        _rb_termination(per_instance, history.broadcasts,
                        history.first_app_seq, correct, trace.quiescent()),
    ]


def _rb_validity(deliveries, broadcast_values, correct) -> Verdict:
    checked = 0
    for node, origin, value, sn, seq in deliveries:
        if origin not in correct:
            continue
        checked += 1
        if value not in broadcast_values.get((origin, sn), set()):
            return Verdict(
                "rb-validity", FAIL,
                f"p{node} delivered ({value!r}, {sn}) from correct p{origin}, "
                "which never broadcast it", (seq,))
    if checked == 0:
        return Verdict("rb-validity", VACUOUS, "no deliveries from correct origins")
    return Verdict("rb-validity", PASS, f"{checked} deliveries")


def _rb_integrity(deliveries) -> Verdict:
    if not deliveries:
        return Verdict("rb-integrity", VACUOUS, "no deliveries")
    seen: dict[tuple[int, int, int], int] = {}
    for node, origin, _value, sn, seq in deliveries:
        key = (node, origin, sn)
        if key in seen:
            return Verdict(
                "rb-integrity", FAIL,
                f"p{node} delivered sn {sn} from p{origin} twice",
                (seen[key], seq))
        seen[key] = seq
    return Verdict("rb-integrity", PASS, f"{len(deliveries)} deliveries")


def _rb_uniformity(per_instance, correct, quiescent) -> Verdict:
    if not per_instance:
        return Verdict("rb-uniformity", VACUOUS, "no deliveries")
    for (origin, sn), per_node in sorted(per_instance.items()):
        entries = sorted(per_node.items())
        (n0, (v0, s0)) = entries[0]
        for node, (value, seq) in entries[1:]:
            if value != v0:
                return Verdict(
                    "rb-uniformity", FAIL,
                    f"({origin}, {sn}): p{n0} delivered {v0!r} but p{node} "
                    f"delivered {value!r}", (s0, seq))
        if quiescent and set(per_node) != correct:
            missing = sorted(correct - set(per_node))
            return Verdict(
                "rb-uniformity", FAIL,
                f"({origin}, {sn}) was delivered by p{n0} but never by "
                f"{['p%d' % m for m in missing]} (run is quiescent)", (s0,))
    note = f"{len(per_instance)} instances"
    if not quiescent:
        note += "; all-or-none part skipped (run not quiescent)"
    return Verdict("rb-uniformity", PASS, note)


def _rb_termination(per_instance, broadcast_values, first_app_seq, correct,
                    quiescent) -> Verdict:
    """broadcast_values holds only correct origins' broadcasts."""
    if not quiescent:
        return Verdict("rb-termination", VACUOUS, "run not quiescent")
    if not broadcast_values:
        return Verdict("rb-termination", VACUOUS, "no broadcasts by correct origins")
    for key in sorted(broadcast_values):
        nodes = set(per_instance.get(key, ()))
        if nodes != correct:
            missing = sorted(correct - nodes)
            return Verdict(
                "rb-termination", FAIL,
                f"broadcast {key} from a correct origin never delivered at "
                f"{['p%d' % m for m in missing]}", (first_app_seq[key],))
    return Verdict("rb-termination", PASS,
                   f"{len(broadcast_values)} broadcasts")


# ---------------------------------------------------------------------------
# liveness
# ---------------------------------------------------------------------------

def check_termination(history: History, trace: Trace) -> Verdict:
    if not trace.quiescent():
        detail = f"run ended {trace.outcome}"
        if trace.diagnostics:
            detail += ": " + "; ".join(trace.diagnostics)
        return Verdict("termination", NONTERMINATING, detail)
    open_ops = [op for op in history.ops if not op.completed()]
    if open_ops:
        return Verdict("termination", FAIL,
                       f"operations never completed: "
                       f"{[op.op_id for op in open_ops]}",
                       tuple(op.start_seq for op in open_ops))
    return Verdict("termination", PASS)


# ---------------------------------------------------------------------------
# linearization witness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinItem:
    kind: str  # "write" | "read"
    index: int
    start: int | None  # None: unconstrained below
    end: int | None  # None: unconstrained above
    label: str


def build_linearization(history: History, trace: Trace
                        ) -> tuple[dict[int, list[LinItem]], Verdict]:
    """Construct a witness order per register and validate it independently.

    Writes appear in history order; each read is placed right after the
    write whose value it returned, reads of the same position ordered by
    their start. That is one sort by (index, read after write), stable
    over reads in start order. The validator re-checks the order from
    scratch.
    """
    orders: dict[int, list[LinItem]] = {}
    targets = sorted(set(history.values) | set(history.reads))
    for target in targets:
        items = [LinItem("write", 0, None, -1, "init")]
        items += [LinItem("write", w.index, w.start_seq, w.end_seq,
                          f"write[{w.index}]")
                  for w in history.writes.get(target, [])]
        written = {i.index for i in items}
        items += [LinItem("read", r.index, r.start_seq, r.end_seq, r.op_id)
                  for r in history.reads.get(target, [])]
        items.sort(key=lambda i: (i.index, i.kind == "read"))
        sequence = orders[target] = [i for i in items if i.index in written]
        if len(sequence) < len(items):
            lost = [i.label for i in items if i.index not in written]
            return orders, Verdict(
                "linearization", FAIL,
                f"reg[{target}]: reads {lost} returned indices outside the "
                "history", ())
        ok, reason = validate_linearization(sequence)
        if not ok:
            return orders, Verdict(
                "linearization", FAIL,
                f"reg[{target}]: {reason}",
                tuple(i.start for i in sequence if i.start is not None))
    return orders, Verdict("linearization", PASS,
                           f"{len(targets)} registers" if targets else "empty")


def validate_linearization(sequence: list[LinItem]) -> tuple[bool, str]:
    """Independent check of the three linearizability conditions.

    Distinct in-interval points exist for the proposed order exactly when
    the running maximum of interval starts stays strictly below every
    operation's end: points can then be placed at that maximum plus
    arbitrarily small increasing offsets. Event sequence numbers are
    unique, so the comparison is exact integer arithmetic. On top of the
    placement check, every read must return the value of the closest
    preceding write.
    """
    floor = None  # running max of starts; None means unconstrained so far
    last_write_index = None
    for item in sequence:
        if item.start is not None and (floor is None or item.start > floor):
            floor = item.start
        if item.end is not None and floor is not None and floor >= item.end:
            return False, (f"{item.label} cannot be placed inside its "
                           f"interval after its predecessors")
        if item.kind == "write":
            if last_write_index is not None and item.index != last_write_index + 1:
                return False, f"writes out of history order at {item.label}"
            last_write_index = item.index
        else:
            if item.index != last_write_index:
                return False, (f"{item.label} returns index {item.index} but "
                               f"follows write {last_write_index}")
    return True, ""


# ---------------------------------------------------------------------------
# message-cost accounting
# ---------------------------------------------------------------------------

@dataclass
class CostReport:
    per_op: dict[str, OperationRecord]
    unattributed: int
    verdict: Verdict


def cost_bounds(n: int) -> dict[str, int]:
    """Most sends among correct processes one completed op may cost, by kind."""
    return {"READ": 4 * n, "WRITE": 2 * n * n + 2 * n}


def count_messages(history: History, trace: Trace) -> CostReport:
    """Check each completed operation's sends against its bound.

    derive_histories charges every send by a correct process to the
    operation it serves; this reports those counts per operation.
    """
    bounds = cost_bounds(trace.n)
    completed = [op for op in history.ops if op.completed()]
    verdict = Verdict("message-cost", VACUOUS, "no completed operations")
    for op in completed:
        bound = bounds[op.kind]
        if op.total > bound:
            verdict = Verdict(
                "message-cost", FAIL,
                f"{op.kind.lower()} {op.op_id} cost {op.total} sends among "
                f"correct processes, bound {bound}",
                (op.start_seq, op.end_seq))
            break
    else:
        if completed:
            verdict = Verdict("message-cost", PASS,
                              f"{len(completed)} operations within bounds")
    return CostReport(per_op={op.op_id: op for op in history.ops},
                      unattributed=history.unattributed,
                      verdict=verdict)


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    trace: Trace
    history: History
    verdicts: list[Verdict]
    cost: CostReport
    linearizations: dict[int, list[LinItem]]

    def failures(self) -> list[Verdict]:
        return [v for v in self.verdicts if v.status == FAIL]

    def nonterminating(self) -> bool:
        return any(v.status == NONTERMINATING for v in self.verdicts)

    def ok(self) -> bool:
        """No FAIL and no NONTERMINATING verdict."""
        return not self.failures() and not self.nonterminating()

    def summary_lines(self) -> list[str]:
        return [str(v) for v in self.verdicts]


def run_all_checks(trace: Trace) -> CheckReport:
    with _gc_paused():
        history = derive_histories(trace)
        verdicts = list(history.derivation_verdicts)
        verdicts.extend(check_safety(history, trace))
        verdicts.extend(check_rb(history, trace))
        verdicts.append(check_termination(history, trace))
        cost = count_messages(history, trace)
        verdicts.append(cost.verdict)
        linearizations: dict[int, list[LinItem]] = {}
        if not any(v.status == FAIL for v in verdicts):
            linearizations, lin_verdict = build_linearization(history, trace)
            verdicts.append(lin_verdict)
        return CheckReport(trace=trace, history=history, verdicts=verdicts,
                           cost=cost, linearizations=linearizations)
