"""Scenario configuration: model parameters, adversary assignment, workload.

A scenario is a single JSON document. The workload is an ordered script of
operations; each entry fires once its trigger is satisfied ("at" a logical
time, or "after" another entry has completed) and its process is idle.
Entries on adversary-controlled processes are handed to the strategy and
count as completed immediately.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import MISSING, dataclass, field
from pathlib import Path

from .errors import ScenarioError
from .mutations import ALL_MUTATIONS

SCHEDULERS = ("FIFO", "RANDOM", "ADVERSARIAL_REORDER")

# value kinds for expect(), besides the JSON types
SCALAR = "scalar"  # a finite JSON string, number or boolean, or null
PROCESS = "process"  # an integer in [0, n)


@dataclass(frozen=True)
class WorkloadOp:
    id: str
    process: int
    op: str  # "write" | "read"
    value: object = None  # writes
    target: int | None = None  # reads
    at: int | None = None
    after: str | None = None


@dataclass(frozen=True)
class AdversarySpec:
    name: str
    nodes: tuple[int, ...]
    params: dict = field(default_factory=dict)


@dataclass
class ScenarioConfig:
    name: str
    n: int
    t: int
    seed: int = 0
    scheduler: str = "RANDOM"
    workload: list[WorkloadOp] = field(default_factory=list)
    adversary: AdversarySpec | None = None
    fairness_bound: int = 1000
    step_budget: int = 200_000
    mutations: frozenset[str] = frozenset()
    allow_t_violation: bool = False

    def byzantine_nodes(self) -> frozenset[int]:
        return frozenset(self.adversary.nodes) if self.adversary else frozenset()

    def send_cap(self) -> int:
        """Most sends a Byzantine node may make per event."""
        return 4 * self.n

    def validate(self) -> None:
        # the name is the stem of the artifact files the CLI writes
        name = self.name
        if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
            raise ScenarioError(
                f"name {name!r} must be a file name: not empty, "
                "'.' or '..', and without '/', '\\' or a null character")
        if self.seed < 0:
            # random.Random(-s) draws what random.Random(s) draws
            raise ScenarioError(
                f"seed must be non-negative (got {self.seed})")
        if self.n < 1:
            raise ScenarioError("n must be positive")
        if self.t < 0:
            raise ScenarioError("t must be non-negative")
        if self.t >= self.n:
            # whatever allow_t_violation says: a quorum of n - t processes
            # must not be empty
            raise ScenarioError(
                f"t must be less than n (got n={self.n}, t={self.t})")
        if self.n <= 3 * self.t and not self.allow_t_violation:
            raise ScenarioError(
                f"n > 3t required (got n={self.n}, t={self.t}); "
                "set allow_t_violation to run anyway")
        if self.scheduler not in SCHEDULERS:
            raise ScenarioError(f"unknown scheduler {self.scheduler!r}; "
                                f"expected one of {SCHEDULERS}")
        if self.fairness_bound < 1:
            raise ScenarioError("fairness_bound must be at least 1")
        if self.step_budget < 1:
            raise ScenarioError("step_budget must be at least 1")
        unknown = sorted(set(self.mutations) - set(ALL_MUTATIONS))
        if unknown:
            raise ScenarioError(f"unknown mutations {unknown}; "
                                f"expected names from {ALL_MUTATIONS}")
        byz = self.byzantine_nodes()
        if self.adversary is not None:
            # late import to avoid a cycle
            from .adversary import STRATEGIES
            name = self.adversary.name
            if name not in STRATEGIES:
                raise ScenarioError(f"unknown adversary {name!r}; "
                                    f"expected one of {sorted(STRATEGIES)}")
            declared = STRATEGIES[name].PARAMS
            for key, value in self.adversary.params.items():
                if key not in declared:
                    raise ScenarioError(
                        f"adversary {name} has no param {key!r} "
                        f"(params: {sorted(declared) or 'none'})")
                expect(value, declared[key][0],
                       f"adversary {name} param {key!r}", self.n)
            if not byz:
                raise ScenarioError("adversary requires a non-empty node list")
            if any(p < 0 or p >= self.n for p in byz):
                raise ScenarioError("adversary nodes out of range")
            if len(byz) > self.t and not self.allow_t_violation:
                raise ScenarioError(
                    f"adversary controls {len(byz)} nodes but t={self.t}")
        ids = set()
        for entry in self.workload:
            if entry.id in ids:
                raise ScenarioError(f"duplicate workload id {entry.id!r}")
            ids.add(entry.id)
            if entry.process < 0 or entry.process >= self.n:
                raise ScenarioError(f"workload {entry.id}: process out of range")
            if entry.op == "write":
                pass
            elif entry.op == "read":
                if entry.target is None or not (0 <= entry.target < self.n):
                    raise ScenarioError(
                        f"workload {entry.id}: read needs a target in [0, n)")
            else:
                raise ScenarioError(
                    f"workload {entry.id}: op must be 'write' or 'read'")
            if entry.at is None and entry.after is None:
                raise ScenarioError(
                    f"workload {entry.id}: needs an 'at' time or an 'after' ref")
            if entry.at is not None and entry.at < 0:
                raise ScenarioError(f"workload {entry.id}: 'at' must be >= 0")
        after = {entry.id: entry.after for entry in self.workload}
        for entry in self.workload:
            if entry.after is not None and entry.after not in ids:
                raise ScenarioError(
                    f"workload {entry.id}: 'after' references unknown id "
                    f"{entry.after!r}")
        # each entry has at most one 'after', so following the references
        # from any entry either ends or runs into a cycle
        acyclic: set[str] = set()
        for entry in self.workload:
            path: dict[str, int] = {}  # id -> position on the walk
            op_id = entry.id
            while op_id is not None and op_id not in acyclic:
                if op_id in path:
                    cycle = list(path)[path[op_id]:] + [op_id]
                    raise ScenarioError(
                        "workload 'after' references form a cycle, so these "
                        f"entries can never fire: {' -> '.join(cycle)}")
                path[op_id] = len(path)
                op_id = after[op_id]
            acyclic.update(path)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """The scenario document from_dict reads back into this config."""
        doc = _non_none_fields(self)
        doc["workload"] = [_non_none_fields(op) for op in self.workload]
        if self.adversary is not None:
            doc["adversary"] = {**_non_none_fields(self.adversary),
                                "nodes": list(self.adversary.nodes),
                                "params": dict(self.adversary.params)}
        doc["mutations"] = sorted(self.mutations)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioConfig":
        """Parse a scenario document; validate() checks the values."""
        fields = _read(doc, cls, _SCENARIO_KINDS, "scenario", "{}")
        workload = []
        for i, raw in enumerate(fields.get("workload", [])):
            where = f"workload entry #{i}"
            workload.append(WorkloadOp(**_read(raw, WorkloadOp, _ENTRY_KINDS,
                                               where, where + " {}")))
        fields["workload"] = workload
        if fields.get("adversary") is not None:
            spec = _read(fields["adversary"], AdversarySpec, _ADVERSARY_KINDS,
                         "adversary", "adversary {!r}")
            spec["nodes"] = tuple(expect(p, int, "adversary node")
                                  for p in spec["nodes"])
            fields["adversary"] = AdversarySpec(**spec)
        fields["mutations"] = frozenset(expect(m, str, "mutation name")
                                        for m in fields.get("mutations", []))
        return cls(**fields)

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioConfig":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ScenarioError(f"{path}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"{path}: not UTF-8 text ({exc.reason} at "
                                f"byte {exc.start})") from exc
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}, "
                                f"column {exc.colno}: {exc.msg}") from exc
        try:
            return cls.from_dict(doc)
        except ScenarioError as exc:
            raise ScenarioError(f"{path}: {exc}") from exc

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return dataclasses.replace(self, seed=seed)


# The JSON kind of each key at each level of a scenario document. A key the
# document leaves out takes its dataclass default; a field without one is
# required, and null stands for a default of None.
_SCENARIO_KINDS = {
    "name": str, "n": int, "t": int, "seed": int, "scheduler": str,
    "workload": list, "adversary": dict, "fairness_bound": int,
    "step_budget": int, "mutations": list, "allow_t_violation": bool}
_ENTRY_KINDS = {"id": str, "process": int, "op": str, "value": SCALAR,
                "target": int, "at": int, "after": str}
_ADVERSARY_KINDS = {"name": str, "nodes": list, "params": dict}

_JSON_NAMES = {str: "a JSON string", bool: "a JSON boolean",
               list: "a JSON array", dict: "a JSON object"}


def expect(value, kind, what: str, n: int = 0, optional: bool = False):
    """value itself if it is of the given kind, else raise ScenarioError.

    kind is str, int (not bool), bool, list, dict, SCALAR or PROCESS (an
    integer in [0, n)); an optional value may also be None.
    """
    if value is None and optional:
        return value
    if kind is SCALAR:
        if isinstance(value, float) and not math.isfinite(value):
            # NaN never equals itself: processes that all applied it would
            # seem to disagree
            raise ScenarioError(f"{what} must be a finite number, got {value!r}")
        ok = value is None or isinstance(value, (str, int, float))
        want = "a JSON string, number, boolean or null"
    elif kind is int or kind is PROCESS:
        ok = isinstance(value, int) and not isinstance(value, bool)
        want = "an integer"
        if kind is PROCESS:
            ok = ok and 0 <= value < n
            want = f"a process in [0, {n})"
    else:
        ok, want = isinstance(value, kind), _JSON_NAMES[kind]
    if not ok:
        raise ScenarioError(f"{what} must be {want}, got {value!r}")
    return value


def _read(doc, cls, kinds: dict, level: str, what: str) -> dict:
    """The keys of one level of a scenario document, each checked against
    its kind; what.format(key) names a key in errors."""
    expect(doc, dict, level)
    unknown = set(doc) - set(kinds)
    if unknown:
        raise ScenarioError(f"unknown {level} fields: {sorted(unknown)}")
    defaults = {}
    for f in dataclasses.fields(cls):
        if f.default is MISSING and f.default_factory is MISSING:
            if f.name not in doc:
                raise ScenarioError(
                    f"{level} is missing required field {f.name!r}")
        defaults[f.name] = f.default
    return {key: expect(value, kinds[key], what.format(key),
                        optional=defaults[key] is None)
            for key, value in doc.items()}


def _non_none_fields(obj) -> dict:
    """A dataclass's fields in declaration order, leaving out None ones."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
            if getattr(obj, f.name) is not None}


def max_tolerated(n: int) -> int:
    """Largest t with n > 3t."""
    return (n - 1) // 3


def standard_workload(n: int, byz: frozenset[int],
                      byz_writes: bool) -> list[WorkloadOp]:
    """Mixed write/read script used by the safety/liveness matrix.

    Chains enough operations sequentially that every consistency property
    has at least one non-vacuous pair, then adds a couple of concurrent
    operations so the scheduler has real freedom.
    """
    byz_target = max(byz) if byz else 0
    ops = [
        WorkloadOp("w1", 0, "write", value="x1", at=0),
        WorkloadOp("r1", 1, "read", target=0, after="w1"),
        WorkloadOp("w2", 0, "write", value="x2", after="r1"),
        WorkloadOp("r2", 2, "read", target=0, after="w2"),
        WorkloadOp("w3", 0, "write", value="x3", after="w2"),
        WorkloadOp("r3", 1, "read", target=0, after="r2"),
        WorkloadOp("r4", 2, "read", target=byz_target, at=1),
    ]
    if byz_writes and byz:
        ops.append(WorkloadOp("bw1", byz_target, "write", value="e", at=0))
    return ops


def matrix_scenario(n: int, strategy: str | None, seed: int = 0, *,
                    mutations: frozenset[str] = frozenset()) -> ScenarioConfig:
    """One cell of the (n, adversary) evaluation matrix."""
    t = max_tolerated(n)
    byz = frozenset(range(n - t, n)) if strategy else frozenset()
    adversary = None
    scheduler = "RANDOM"
    params: dict = {}
    if strategy:
        if strategy == "COLLUDE_DELAY":
            scheduler = "ADVERSARIAL_REORDER"
            params = {"favored": 1, "victim": 2}
        adversary = AdversarySpec(strategy, tuple(sorted(byz)), params)
    name = f"matrix-n{n}-{strategy.lower() if strategy else 'fault-free'}"
    cfg = ScenarioConfig(
        name=name, n=n, t=t, seed=seed, scheduler=scheduler,
        workload=standard_workload(
            n, byz, byz_writes=strategy in ("EQUIVOCATE_WRITE", "SEQ_SKIP")),
        adversary=adversary, fairness_bound=200, step_budget=100_000,
        mutations=mutations)
    cfg.validate()
    return cfg
