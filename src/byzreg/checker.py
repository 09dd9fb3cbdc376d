"""Post-hoc trace verifier.

Everything here is a pure function over a recorded trace.
``derive_histories`` is the only function that reads the trace's event
records; it fills a ``History`` in one pass, and every other check works
from that History and the trace's metadata (n, the Byzantine set, the
outcome). The checker derives, per register, the sequence of values the
correct processes applied when they r-delivered them (the register's
history), resolves every completed read to a position in that history,
and then decides:

* per-writer agreement: all correct processes apply the same value at each
  position of each register;
* the three consistency properties over non-overlapping operations of
  correct processes: a read never returns a value at or past a write that
  started strictly after it finished, never returns a value older than a
  write that finished before it started, and a later read never returns an
  older value than an earlier one;
* the broadcast-layer properties (validity, integrity, uniformity,
  termination) over the recorded deliveries; termination and the
  all-or-none part of uniformity on quiescent runs only;
* liveness: on quiescent runs, every started operation finished. A run
  is quiescent when every message sent to a correct process was
  delivered: it ended QUIESCENT, or SETTLED with only messages to
  Byzantine processes set aside (see ``netsim``);
* message cost: every completed read costs at most 4n sends among correct
  processes and every write at most 2n^2 + 2n, with exact equality in
  fault-free runs;
* a linearization witness: a total order of the operations that an
  independent validator accepts (each operation at a single point inside
  its interval, reads returning the closest preceding write).

Every FAIL verdict carries the sequence numbers of the events that exhibit
the violation, so it can be replayed against the stored trace.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .messages import Value
from .netsim import Trace

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
    sends: dict[str, int] = field(default_factory=dict)  # charged, by tag

    def completed(self) -> bool:
        return self.end_seq is not None


@dataclass
class History:
    """What the checks need from a trace's event records, gathered once.

    Per-register write sequences, the operations in start order with the
    sends charged to each, the r-deliveries at correct processes and the
    broadcasts correct origins started.
    """

    values: dict[int, list[Value]]  # writer -> [H[1], H[2], ...]
    first_apply_seq: dict[tuple[int, int], int]  # (writer, x) -> event seq
    ops: list[OperationRecord]  # in start order
    derivation_verdicts: list[Verdict] = field(default_factory=list)
    # (node, origin, value, sn, seq) of each r-delivery at a correct node
    deliveries: list[tuple[int, int, Value, int, int]] = field(
        default_factory=list)
    # (origin, sn) of a correct origin -> values its APPs carried
    broadcasts: dict[tuple[int, int], set[Value]] = field(default_factory=dict)
    first_app_seq: dict[tuple[int, int], int] = field(default_factory=dict)
    unattributed: int = 0  # sends by correct processes no operation owns

    def reads_of(self, target: int) -> list[OperationRecord]:
        return [op for op in self.ops
                if op.kind == "READ" and op.target == target and op.completed()]

    def writes_of(self, target: int) -> list[OperationRecord]:
        return [op for op in self.ops
                if op.kind == "WRITE" and op.target == target]


# ---------------------------------------------------------------------------
# history derivation
# ---------------------------------------------------------------------------

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

    Per-writer histories and agreement then come from the deliveries.
    """
    correct = set(trace.correct_nodes())
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
    for event in trace.events:
        kind = event["kind"]
        p = event["payload"]
        if kind == "SEND":
            sender = event["sender"]
            if sender not in correct:
                continue
            tag = p["tag"]
            op = None
            if tag == "APP":
                key = (sender, p["sn"])
                broadcasts.setdefault(key, set()).add(p["value"])
                first_app_seq.setdefault(key, event["seq"])
                op = writes.get(key)
            elif tag in ("ECHO", "READY"):
                op = writes.get((p["origin"], p["sn"]))
            elif tag == "WRITE_DONE":
                op = writes.get((event["receiver"], p["sn"]))
            elif tag == "READ":
                op = reads.get((sender, p["target"], p["rsn"]))
            elif tag == "STATE":
                op = reads.get((event["receiver"], p["target"], p["rsn"]))
            elif tag == "CATCH_UP":
                op = latest.get(("READ", sender, p["target"]))
            elif tag == "CATCH_UP_DONE":
                op = latest.get(("READ", event["receiver"], p["target"]))
            if op is None:
                unattributed += 1  # e.g. replies to a Byzantine requester
            else:
                op.sends[tag] = op.sends.get(tag, 0) + 1
        elif kind == "RDELIVER":
            if event["node"] in correct:
                deliveries.append((event["node"], p["origin"], p["value"],
                                   p["sn"], event["seq"]))
        elif kind == "OP_START":
            op = OperationRecord(
                kind=p["op"], op_id=p["id"], invoker=event["node"],
                target=p["target"], start_seq=event["seq"], end_seq=None,
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
            op = ops[p["id"]]
            op.end_seq = event["seq"]
            op.value = p["value"]
            op.index = p["sn"]

    applies: dict[int, dict[int, list[tuple[int, Value, int]]]] = {}
    for node, origin, value, sn, seq in deliveries:
        applies.setdefault(origin, {}).setdefault(node, []).append(
            (sn, value, seq))

    verdicts: list[Verdict] = []
    values: dict[int, list[Value]] = {}
    first_seq: dict[tuple[int, int], int] = {}
    agreement_ok = True
    for writer, per_node in sorted(applies.items()):
        by_pos: dict[int, tuple[Value, int]] = {}
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
                first_seq[(writer, sn)] = min(
                    first_seq.get((writer, sn), seq), seq)
        values[writer] = [by_pos[x][0] for x in range(1, len(by_pos) + 1)
                          if x in by_pos]
    if agreement_ok:
        verdicts.append(Verdict("per-writer-agreement", PASS))

    resolution_failures = []
    for op in ops.values():
        if op.kind == "WRITE" or not op.completed():
            continue
        hist = values.get(op.target, [])
        x = op.index or 0
        if x == 0:
            continue  # initial value
        if x > len(hist) or hist[x - 1] != op.value:
            resolution_failures.append(op)
    if resolution_failures:
        bad = resolution_failures[0]
        verdicts.append(Verdict(
            "read-resolution", FAIL,
            f"read {bad.op_id} returned ({bad.value!r}, {bad.index}) which is "
            f"not an entry of reg[{bad.target}]'s history",
            (bad.start_seq, bad.end_seq)))
    else:
        verdicts.append(Verdict("read-resolution", PASS))

    return History(values=values, first_apply_seq=first_seq,
                   ops=list(ops.values()), derivation_verdicts=verdicts,
                   deliveries=deliveries, broadcasts=broadcasts,
                   first_app_seq=first_app_seq, unattributed=unattributed)


# ---------------------------------------------------------------------------
# consistency properties
# ---------------------------------------------------------------------------

def check_safety(history: History, trace: Trace) -> list[Verdict]:
    """The three ordered-pair properties over correct processes' operations."""
    byz = set(trace.byzantine)
    verdicts = []
    verdicts.append(_check_read_then_write(history, byz))
    verdicts.append(_check_write_then_read(history))
    verdicts.append(_check_no_read_inversion(history))
    return verdicts


def _write_starts(history: History, target: int,
                  byz: set[int]) -> list[tuple[int, int, int | None]]:
    """(index, start_seq, end_seq) for every write of target's register.

    For a correct writer these are the operation's own events. A faulty
    writer has no observable invocation, so position x "starts" when the
    first correct process applies it; it has no end.
    """
    if target not in byz:
        return [(op.index, op.start_seq, op.end_seq)
                for op in history.writes_of(target) if op.index is not None]
    out = []
    for x in range(1, len(history.values.get(target, [])) + 1):
        out.append((x, history.first_apply_seq[(target, x)], None))
    return out


def _check_read_then_write(history: History, byz: set[int]) -> Verdict:
    checked = 0
    for target in sorted(set(history.values) | {op.target for op in history.ops}):
        writes = _write_starts(history, target, byz)
        for read in history.reads_of(target):
            for (y, w_start, _w_end) in writes:
                if read.end_seq < w_start:
                    checked += 1
                    if not read.index < y:
                        return Verdict(
                            "read-followed-by-write", FAIL,
                            f"read {read.op_id} of reg[{target}] returned index "
                            f"{read.index} but finished before write {y} started",
                            (read.start_seq, read.end_seq, w_start))
    if checked == 0:
        return Verdict("read-followed-by-write", VACUOUS,
                       "no read strictly precedes a write")
    return Verdict("read-followed-by-write", PASS, f"{checked} pairs")


def _check_write_then_read(history: History) -> Verdict:
    checked = 0
    for target in sorted(history.values):
        writes = [op for op in history.writes_of(target)
                  if op.completed() and op.index is not None]
        for read in history.reads_of(target):
            for w in writes:
                if w.end_seq < read.start_seq:
                    checked += 1
                    if not w.index <= read.index:
                        return Verdict(
                            "write-followed-by-read", FAIL,
                            f"write {w.op_id} (index {w.index}) finished before "
                            f"read {read.op_id} started, which returned index "
                            f"{read.index}",
                            (w.start_seq, w.end_seq,
                             read.start_seq, read.end_seq))
    if checked == 0:
        return Verdict("write-followed-by-read", VACUOUS,
                       "no completed write strictly precedes a read")
    return Verdict("write-followed-by-read", PASS, f"{checked} pairs")


def _check_no_read_inversion(history: History) -> Verdict:
    checked = 0
    targets = {op.target for op in history.ops if op.kind == "READ"}
    for target in sorted(targets):
        reads = history.reads_of(target)
        for r1, r2 in itertools.permutations(reads, 2):
            if r1.end_seq < r2.start_seq:
                checked += 1
                if not r1.index <= r2.index:
                    return Verdict(
                        "no-read-inversion", FAIL,
                        f"read {r1.op_id} returned index {r1.index}, then read "
                        f"{r2.op_id} (started after {r1.op_id} ended) returned "
                        f"older index {r2.index}",
                        (r1.start_seq, r1.end_seq,
                         r2.start_seq, r2.end_seq))
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
    return [
        _rb_validity(deliveries, history.broadcasts, correct),
        _rb_integrity(deliveries),
        _rb_uniformity(deliveries, correct, trace.quiescent()),
        _rb_termination(deliveries, history.broadcasts, history.first_app_seq,
                        correct, trace.quiescent()),
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


def _rb_uniformity(deliveries, correct, quiescent) -> Verdict:
    if not deliveries:
        return Verdict("rb-uniformity", VACUOUS, "no deliveries")
    per_instance: dict[tuple[int, int], dict[int, tuple[Value, int]]] = {}
    for node, origin, value, sn, seq in deliveries:
        per_instance.setdefault((origin, sn), {})[node] = (value, seq)
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


def _rb_termination(deliveries, broadcast_values, first_app_seq, correct,
                    quiescent) -> Verdict:
    """broadcast_values holds only correct origins' broadcasts."""
    if not quiescent:
        return Verdict("rb-termination", VACUOUS, "run not quiescent")
    if not broadcast_values:
        return Verdict("rb-termination", VACUOUS, "no broadcasts by correct origins")
    delivered_by: dict[tuple[int, int], set[int]] = {}
    for node, origin, _value, sn, _seq in deliveries:
        delivered_by.setdefault((origin, sn), set()).add(node)
    for key in sorted(broadcast_values):
        nodes = delivered_by.get(key, set())
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


def _register_items(history: History, target: int,
                    byz: set[int]) -> list[LinItem]:
    items = [LinItem("write", 0, None, -1, "init")]
    for (x, start, end) in _write_starts(history, target, byz):
        items.append(LinItem("write", x, start, end, f"write[{x}]"))
    for read in history.reads_of(target):
        items.append(LinItem("read", read.index, read.start_seq, read.end_seq,
                             read.op_id))
    return items


def build_linearization(history: History, trace: Trace
                        ) -> tuple[dict[int, list[LinItem]], Verdict]:
    """Construct a witness order per register and validate it independently.

    Writes appear in history order; each read is placed right after the
    write whose value it returned, reads of the same position ordered by
    their start. The validator re-checks the order from scratch.
    """
    byz = set(trace.byzantine)
    orders: dict[int, list[LinItem]] = {}
    targets = sorted(set(history.values)
                     | {op.target for op in history.ops if op.kind == "READ"})
    for target in targets:
        items = _register_items(history, target, byz)
        writes = sorted([i for i in items if i.kind == "write"],
                        key=lambda i: i.index)
        reads = sorted([i for i in items if i.kind == "read"],
                       key=lambda i: (i.index, i.start))
        sequence: list[LinItem] = []
        for w in writes:
            sequence.append(w)
            sequence.extend(r for r in reads if r.index == w.index)
        orders[target] = sequence
        if len(sequence) != len(writes) + len(reads):
            placed = {id(i) for i in sequence}
            lost = [r.label for r in reads if id(r) not in placed]
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


def brute_force_linearizable(items: list[LinItem]) -> bool:
    """Try every total order; for cross-checking small traces only."""
    init = [i for i in items if i.label == "init"]
    rest = [i for i in items if i.label != "init"]
    for perm in itertools.permutations(rest):
        ok, _ = validate_linearization(init + list(perm))
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# message-cost accounting
# ---------------------------------------------------------------------------

@dataclass
class OpCost:
    op_id: str
    kind: str
    invoker: int
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.counts.values())


@dataclass
class CostReport:
    per_op: dict[str, OpCost]
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
    per_op = {op.op_id: OpCost(op.op_id, op.kind, op.invoker, op.sends)
              for op in history.ops}
    bounds = cost_bounds(trace.n)
    completed = [op for op in history.ops if op.completed()]
    verdict = Verdict("message-cost", VACUOUS, "no completed operations")
    for op in completed:
        total = per_op[op.op_id].total
        bound = bounds[op.kind]
        if total > bound:
            verdict = Verdict(
                "message-cost", FAIL,
                f"{op.kind.lower()} {op.op_id} cost {total} sends among "
                f"correct processes, bound {bound}",
                (op.start_seq, op.end_seq))
            break
    else:
        if completed:
            verdict = Verdict("message-cost", PASS,
                              f"{len(completed)} operations within bounds")
    return CostReport(per_op=per_op, unattributed=history.unattributed,
                      verdict=verdict)


# ---------------------------------------------------------------------------
# quorum arithmetic
# ---------------------------------------------------------------------------

def min_quorum_intersection(n: int, t: int) -> int:
    """Smallest possible overlap of two (n-t)-subsets of n processes."""
    return max(0, 2 * (n - t) - n)


def min_quorum_intersection_enumerated(n: int, t: int) -> int:
    """Brute-force oracle for the formula above; usable for small n only."""
    universe = range(n)
    best = n
    for q1 in itertools.combinations(universe, n - t):
        s1 = set(q1)
        for q2 in itertools.combinations(universe, n - t):
            best = min(best, len(s1.intersection(q2)))
    return best


def quorum_intersection_holds(n: int, t: int) -> bool:
    """Any two (n-t)-quorums share at least t+1 processes."""
    return min_quorum_intersection(n, t) >= t + 1


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
        """No FAIL, and no NONTERMINATING unless the run expected one."""
        if self.failures():
            return False
        if self.nonterminating() and not self.trace.expect_nonterminating:
            return False
        return True

    def summary_lines(self) -> list[str]:
        return [str(v) for v in self.verdicts]


def run_all_checks(trace: Trace) -> CheckReport:
    history = derive_histories(trace)
    verdicts = list(history.derivation_verdicts)
    safety = check_safety(history, trace)
    verdicts.extend(safety)
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
