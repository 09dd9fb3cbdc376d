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
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ScenarioError
from .mutations import ALL_MUTATIONS

SCHEDULERS = ("FIFO", "RANDOM", "ADVERSARIAL_REORDER")

DEFAULT_FAIRNESS_BOUND = 1000
DEFAULT_STEP_BUDGET = 200_000


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
    fairness_bound: int = DEFAULT_FAIRNESS_BOUND
    step_budget: int = DEFAULT_STEP_BUDGET
    init_values: list | None = None
    mutations: frozenset[str] = frozenset()
    allow_t_violation: bool = False
    expect_nonterminating: bool = False

    def byzantine_nodes(self) -> frozenset[int]:
        return frozenset(self.adversary.nodes) if self.adversary else frozenset()

    def send_cap(self) -> int:
        """Most sends a Byzantine node may make per event."""
        return 4 * self.n

    def validate(self) -> None:
        if self.n < 1:
            raise ScenarioError("n must be positive")
        if self.t < 0:
            raise ScenarioError("t must be non-negative")
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
        if self.init_values is not None and len(self.init_values) != self.n:
            raise ScenarioError("init_values must list one value per process")
        unknown = sorted(set(self.mutations) - set(ALL_MUTATIONS))
        if unknown:
            raise ScenarioError(f"unknown mutations {unknown}; "
                                f"expected names from {ALL_MUTATIONS}")
        byz = self.byzantine_nodes()
        if self.adversary is not None:
            # late import to avoid a cycle
            from .adversary import STRATEGIES, check_params
            if self.adversary.name not in STRATEGIES:
                raise ScenarioError(
                    f"unknown adversary {self.adversary.name!r}; "
                    f"expected one of {sorted(STRATEGIES)}")
            check_params(self.adversary, self.n)
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
        doc = {
            "name": self.name,
            "n": self.n,
            "t": self.t,
            "seed": self.seed,
            "scheduler": self.scheduler,
            "fairness_bound": self.fairness_bound,
            "step_budget": self.step_budget,
            "workload": [
                {k: v for k, v in (
                    ("id", op.id), ("process", op.process), ("op", op.op),
                    ("value", op.value), ("target", op.target),
                    ("at", op.at), ("after", op.after)) if v is not None}
                for op in self.workload
            ],
        }
        if self.adversary is not None:
            doc["adversary"] = {"name": self.adversary.name,
                                "nodes": list(self.adversary.nodes),
                                "params": dict(self.adversary.params)}
        if self.init_values is not None:
            doc["init_values"] = self.init_values
        if self.mutations:
            doc["mutations"] = sorted(self.mutations)
        if self.allow_t_violation:
            doc["allow_t_violation"] = True
        if self.expect_nonterminating:
            doc["expect_nonterminating"] = True
        return doc

    @classmethod
    def from_dict(cls, doc: dict, validate: bool = True) -> "ScenarioConfig":
        if not isinstance(doc, dict):
            raise ScenarioError("scenario document must be a JSON object")
        for req in ("name", "n", "t"):
            if req not in doc:
                raise ScenarioError(f"scenario is missing required field {req!r}")
        known = {"name", "n", "t", "seed", "scheduler", "workload", "adversary",
                 "fairness_bound", "step_budget", "init_values", "mutations",
                 "allow_t_violation", "expect_nonterminating"}
        unknown = set(doc) - known
        if unknown:
            raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")
        workload = []
        for i, raw in enumerate(_typed(doc.get("workload", []), list,
                                       "workload")):
            where = f"workload entry #{i}"
            _typed(raw, dict, where)
            if "id" not in raw or "process" not in raw or "op" not in raw:
                raise ScenarioError(f"{where} needs 'id', 'process' and 'op'")
            after = raw.get("after")
            if after is not None:
                _typed(after, str, f"{where} after")
            workload.append(WorkloadOp(
                id=_typed(raw["id"], str, f"{where} id"),
                process=_int(raw["process"], f"{where} process"),
                op=str(raw["op"]),
                value=_scalar(raw.get("value"), f"{where} value"),
                target=_int(raw.get("target"), f"{where} target", optional=True),
                at=_int(raw.get("at"), f"{where} at", optional=True),
                after=after))
        adversary = None
        if doc.get("adversary") is not None:
            raw = _typed(doc["adversary"], dict, "adversary")
            if "name" not in raw or "nodes" not in raw:
                raise ScenarioError("adversary needs 'name' and 'nodes'")
            nodes = _typed(raw["nodes"], list, "adversary 'nodes'")
            adversary = AdversarySpec(
                name=str(raw["name"]),
                nodes=tuple(_int(p, "adversary node") for p in nodes),
                params=dict(_typed(raw.get("params", {}), dict,
                                   "adversary 'params'")))
        init_values = doc.get("init_values")
        if init_values is not None:
            for value in _typed(init_values, list, "init_values"):
                _scalar(value, "init_values entry")
        mutations = [_typed(m, str, "mutation name")
                     for m in _typed(doc.get("mutations", []), list, "mutations")]
        cfg = cls(
            name=str(doc["name"]), n=_int(doc["n"], "n"), t=_int(doc["t"], "t"),
            seed=_int(doc.get("seed", 0), "seed"),
            scheduler=str(doc.get("scheduler", "RANDOM")),
            workload=workload, adversary=adversary,
            fairness_bound=_int(doc.get("fairness_bound", DEFAULT_FAIRNESS_BOUND),
                                "fairness_bound"),
            step_budget=_int(doc.get("step_budget", DEFAULT_STEP_BUDGET),
                             "step_budget"),
            init_values=init_values,
            mutations=frozenset(mutations),
            allow_t_violation=_typed(doc.get("allow_t_violation", False), bool,
                                     "allow_t_violation"),
            expect_nonterminating=_typed(doc.get("expect_nonterminating", False),
                                         bool, "expect_nonterminating"))
        if validate:
            cfg.validate()
        return cfg

    @classmethod
    def load(cls, path: str | Path, validate: bool = True) -> "ScenarioConfig":
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
            return cls.from_dict(doc, validate=validate)
        except ScenarioError as exc:
            raise ScenarioError(f"{path}: {exc}") from exc

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return dataclasses.replace(self, seed=seed)


_JSON_KINDS = {list: "array", dict: "object", str: "string", bool: "boolean"}


def _typed(value, kind: type, what: str):
    """value itself if it has the JSON type kind stands for, else raise."""
    if not isinstance(value, kind):
        raise ScenarioError(
            f"{what} must be a JSON {_JSON_KINDS[kind]}, got {value!r}")
    return value


def _scalar(value, what: str):
    """value itself if it is a JSON string, number, boolean or null."""
    if value is not None and not isinstance(value, (str, int, float)):
        raise ScenarioError(f"{what} must be a JSON string, number, boolean "
                            f"or null, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        # NaN never equals itself: processes that all applied it would
        # seem to disagree
        raise ScenarioError(f"{what} must be a finite number, got {value!r}")
    return value


def _int(value, what: str, optional: bool = False):
    """value itself if it is a JSON integer (or None, when optional)."""
    if value is None and optional:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{what} must be an integer, got {value!r}")
    return value


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
