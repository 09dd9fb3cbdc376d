"""Span tracing for the benchmark's traced pass.

The tracer wraps public functions of each byzreg layer from the outside
(the program itself carries no timers) and records one span per call:
name, start, end, parent span and run id. Spans are kept in flat arrays in
memory and written out when the benchmark ends. A layer's self time is its
spans' duration minus the part covered by their child spans.

Layers and the calls that stand for them:

* ``netsim``: ``Simulation.__init__``, ``Simulation.run``, ``Simulation.step``
* ``messages``: ``Message.to_wire``
* ``register``: ``RegisterNode.handle``, ``begin_write``/``begin_read``,
  ``digest``
* ``rbcast``: ``ReliableBroadcast.on_app``/``on_echo``/``on_ready``
* ``adversary``: every strategy hook (``on_workload``, ``on_deliver``,
  ``digest``, ``pick_delivery``). Protocol code a strategy runs inside
  (``ColludeDelay``'s honest ``RegisterNode``) counts as adversary time.
* ``checker``: ``run_all_checks`` and each pass it calls.

The wrappers return what the wrapped call returns, so a traced run must
give the same trace hash as an untraced one; the benchmark checks that.
"""
from __future__ import annotations

import gzip
from array import array
from time import perf_counter

CHECKER_PASSES = ("derive_histories", "check_safety", "check_rb",
                  "check_termination", "count_messages",
                  "build_linearization")
ADVERSARY_HOOKS = ("on_workload", "on_deliver", "digest")


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    ``parent[i]`` is the index of span i's parent, or -1 for a root.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.run_id = -1
        self.adversary_depth = 0
        self.send_cap = 0
        self.counts: dict[str, int] = {}
        self.peaks: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        i = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def summary(self) -> dict[str, tuple[float, float, int]]:
        """Span name -> (total seconds, self seconds, calls)."""
        own = self_times(self.parent, self.start, self.end)
        total = [0.0] * len(self.names)
        selfs = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for i, nid in enumerate(self.name):
            total[nid] += self.end[i] - self.start[i]
            selfs[nid] += own[i]
            calls[nid] += 1
        return {name: (total[k], selfs[k], calls[k])
                for k, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Write every span as gzipped tab-separated text, one line each."""
        base = self.start[0] if len(self.start) else 0.0
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tname\tstart_s\tend_s\tparent\trun\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{names[self.name[i]]}\t"
                          f"{self.start[i] - base:.9f}\t"
                          f"{self.end[i] - base:.9f}\t"
                          f"{self.parent[i]}\t{self.run[i]}\n")

    # -- counters -------------------------------------------------------------

    def count(self, key: str, k: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def peak(self, key: str, value: int) -> None:
        if value > self.peaks.get(key, 0):
            self.peaks[key] = value

    # -- wrapping -------------------------------------------------------------

    def _patch(self, owner, attr: str, span: str, *, fold: bool = False,
               adversary: bool = False, before=None, after=None) -> None:
        """Replace owner.attr by a wrapper that records a span per call.

        fold: inside an adversary span, call through unrecorded, so the
        time stays with the adversary. adversary: this span is one.
        """
        fn = vars(owner)[attr]
        nid = self.name_id(span)
        depth = 1 if adversary else 0
        tracer = self

        def wrapper(*args, **kwargs):
            if fold and tracer.adversary_depth:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            i = tracer.begin(nid)
            tracer.adversary_depth += depth
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.adversary_depth -= depth
                tracer.finish(i)
            if after is not None:
                after(args, result)
            return result

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from byzreg import adversary, checker, cli, messages, netsim
        from byzreg.rbcast import RDeliver, ReliableBroadcast
        from byzreg.register import RegisterNode

        def note_cap(args):
            self.send_cap = args[1].send_cap()

        def after_step(args, _result):
            self.peak("netsim.inflight_peak", len(args[0].pool))

        def vote(args):
            rb, origin, _value, sn = args[:4]
            self.count("rbcast.votes")
            if sn < rb.next_sn[origin]:
                self.count("rbcast.stale_votes")

        def after_rb(args, result):
            rb = args[0]
            self.peak("rbcast.vote_table_peak",
                      len(rb.echo_senders) + len(rb.ready_senders))
            self.count("rbcast.rdeliver",
                       sum(1 for e in result if isinstance(e, RDeliver)))

        def after_byz(_args, sends):
            self.count("adversary.sends", len(sends))
            self.count("adversary.sends_dropped",
                       max(0, len(sends) - self.send_cap))

        patch = self._patch
        patch(netsim.Simulation, "__init__", "netsim.init", before=note_cap)
        patch(netsim.Simulation, "run", "netsim.run")
        patch(netsim.Simulation, "step", "netsim.step", after=after_step)
        patch(messages.Message, "to_wire", "messages.to_wire")
        patch(RegisterNode, "handle", "register.handle", fold=True)
        patch(RegisterNode, "begin_write", "register.begin", fold=True)
        patch(RegisterNode, "begin_read", "register.begin", fold=True)
        patch(RegisterNode, "digest", "register.digest", fold=True)
        patch(ReliableBroadcast, "on_app", "rbcast", fold=True, after=after_rb)
        for attr in ("on_echo", "on_ready"):
            patch(ReliableBroadcast, attr, "rbcast", fold=True, before=vote,
                  after=after_rb)
        for cls in (adversary.AdversaryStrategy, *adversary.STRATEGIES.values()):
            own = vars(cls)
            for attr in ADVERSARY_HOOKS:
                if attr in own:
                    patch(cls, attr, "adversary", adversary=True,
                          after=after_byz if attr != "digest" else None)
            if "pick_delivery" in own:
                patch(cls, "pick_delivery", "adversary.pick_delivery",
                      adversary=True)
        # run_one calls run_all_checks through cli's namespace, and
        # run_all_checks calls each pass through checker's
        patch(cli, "run_all_checks", "checker")
        for name in CHECKER_PASSES:
            patch(checker, name, f"checker.{name}")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)
