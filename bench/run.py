"""byzreg benchmark: how fast seeds get checked, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload matrix --seed 1 --seconds 15 --trace 0

Each run is ``byzreg.cli.run_one(cfg, seed)``, i.e. ``Simulation.run`` and
then ``run_all_checks``. Runs form a closed loop in one process and one
thread: the next run starts only after the previous one returns. No
wall-clock delay is injected; message delay is the scheduler's logical
reordering, bounded by each scenario's ``fairness_bound``. The loop runs
whole passes over the workload's scenarios until the runs have taken
``--seconds``.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs an untraced pass for a quarter of ``--seconds``,
replays the same (scenario, seed) pairs with span tracing, checks that
every replay has the untraced run's trace hash, and reports the per-layer
metrics. Spans go to ``.bench_out/spans-<workload>.tsv.gz``.

Every run's verdicts are counted. A run whose output is not what byzreg
should produce (a failing verdict other than a declared known failure,
a fault-free op not costing exactly 4n / 2n^2+2n sends, or a
trace-hash mismatch) counts as failed; each failing run, known or not, is
listed with a replay command. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import workloads
from tracing import CHECKER_PASSES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 11
UNTRACED_SHARE = 0.25  # of --seconds, for the untraced pass of --trace 1
MIN_TAIL = 10  # samples that must lie beyond a reported high percentile


def percentile(values, q: float):
    """Nearest-rank percentile; None when fewer than MIN_TAIL lie beyond.

    The median is always reported.
    """
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    if q > 0.5 and len(ordered) - rank < MIN_TAIL:
        return None
    return ordered[rank - 1]


class Tally:
    """Per-run measurements and verdicts, accumulated over a pass."""

    def __init__(self, workload):
        self.workload = workload
        self.run_s: list[float] = []
        self.passes: list[tuple[int, float, int]] = []  # runs, s, deliveries
        self.hashes: list[str] = []
        self.deliveries = 0
        self.byz_deliveries = 0
        self.events = 0
        self.budget_runs = 0
        self.op_starts = 0
        self.op_open = 0
        self.op_deliveries: list[int] = []
        self.sends = {"READ": [], "WRITE": []}
        self.verdicts: Counter = Counter()
        self.not_ok = 0
        self.failing: list[tuple[str, object, int, str]] = []
        self.unexpected: set[int] = set()  # indices of runs

    @property
    def runs(self) -> int:
        return len(self.run_s)

    def add(self, cfg, seed: int, seconds: float, trace, report) -> None:
        from byzreg.netsim import OUTCOME_BUDGET
        self.run_s.append(seconds)
        self.events += len(trace.events)
        self.budget_runs += trace.outcome == OUTCOME_BUDGET
        byz = set(trace.byzantine)
        started = {}
        n_started = 0
        for e in trace.events:
            kind = e["kind"]
            if kind == "DELIVER":
                self.deliveries += 1
                self.byz_deliveries += e["node"] in byz
            elif kind == "OP_START":
                started[e["payload"]["id"]] = e["time"]
                n_started += 1
            elif kind == "OP_END":
                self.op_deliveries.append(
                    e["time"] - started.pop(e["payload"]["id"]))
        self.op_starts += n_started
        self.op_open += len(started)
        for op in report.history.ops:
            if op.completed():
                self.sends[op.kind].append(report.cost.per_op[op.op_id].total)
        for v in report.verdicts:
            self.verdicts[(v.prop, v.status)] += 1
        self.not_ok += not report.ok()
        status, detail = judge(self.workload, trace, report)
        if status != "ok":
            self.flag(status, cfg, seed, detail)

    def flag(self, status: str, cfg, seed: int, detail: str,
             run: int | None = None) -> None:
        self.failing.append((status, cfg, seed, detail))
        if status == "unexpected":
            self.unexpected.add(self.runs - 1 if run is None else run)


def judge(workload, trace, report) -> tuple[str, str]:
    """"ok", "known" (a declared defect) or "unexpected"."""
    from byzreg.netsim import OUTCOME_BUDGET
    if workload.exact_costs:
        n = trace.n
        exact = {"READ": 4 * n, "WRITE": 2 * n * n + 2 * n}
        for op in report.history.ops:
            total = report.cost.per_op[op.op_id].total
            if op.completed() and total != exact[op.kind]:
                return "unexpected", (f"{op.op_id} cost {total} sends, "
                                      f"expected exactly {exact[op.kind]}")
    if report.ok():
        return "ok", ""
    bad = [v for v in report.verdicts if v.status in ("FAIL", "NONTERMINATING")]
    detail = "; ".join(str(v) for v in bad)[:200]
    failed = {v.prop for v in report.failures()}
    known = [k for k in workload.known if k.explains is None
             or (k.props & failed and k.explains(trace, report))]
    if not failed <= set().union(*(k.props for k in known)):
        return "unexpected", detail
    if report.nonterminating() and not (
            any(k.budget_stop for k in known)
            and trace.outcome == OUTCOME_BUDGET):
        return "unexpected", detail
    return "known", detail


def set_up(name: str, seed: int):
    """Import byzreg afresh and generate the workload; returns the time."""
    for mod in [m for m in sys.modules
                if m == "byzreg" or m.startswith("byzreg.")]:
        del sys.modules[mod]
    start = time.perf_counter()
    cli = importlib.import_module("byzreg.cli")
    workload = workloads.build(name, seed)
    return time.perf_counter() - start, cli, workload


def run_pass(cli, pairs, tally: Tally, keep_hashes: bool,
             tracer: Tracer | None = None) -> None:
    """Run each pair; only run_one itself is timed (and traced)."""
    runs, deliveries = tally.runs, tally.deliveries
    for cfg, seed in pairs:
        if tracer is not None:
            tracer.run_id = tally.runs
            span = tracer.begin(tracer.name_id("run"))
        start = time.perf_counter()
        trace, report = cli.run_one(cfg, seed)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.finish(span)
        tally.add(cfg, seed, elapsed, trace, report)
        if keep_hashes:
            tally.hashes.append(trace.trace_hash())
    tally.passes.append((tally.runs - runs, sum(tally.run_s[runs:]),
                         tally.deliveries - deliveries))


def end_to_end(tally: Tally, setup_times: list[float]) -> dict:
    """name -> (value or None, unit, samples).

    Rates are medians over passes, so one slow stretch of the host moves
    them less than a total would.
    """
    passes = tally.passes
    reads, writes = tally.sends["READ"], tally.sends["WRITE"]
    ops = tally.op_deliveries
    p90 = percentile(tally.run_s, 0.9)
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "runs_per_s": (statistics.median(r / s for r, s, _ in passes),
                       "1/s", tally.runs),
        "us_per_delivery": (statistics.median(s / d * 1e6 for _, s, d in passes),
                            "us", tally.deliveries),
        "run_ms_p50": (percentile(tally.run_s, 0.5) * 1e3, "ms", tally.runs),
        "run_ms_p90": (None if p90 is None else p90 * 1e3, "ms", tally.runs),
        "failed_run_share": (tally.not_ok / tally.runs, "ratio", tally.runs),
        "incomplete_op_share": (tally.op_open / tally.op_starts, "ratio",
                                tally.op_starts),
        "op_deliveries_p50": (percentile(ops, 0.5), "deliveries", len(ops)),
        "op_deliveries_p90": (percentile(ops, 0.9), "deliveries", len(ops)),
        "sends_per_read": (statistics.fmean(reads), "sends", len(reads)),
        "sends_per_write": (statistics.fmean(writes), "sends", len(writes)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB", 1),
    }


def per_layer(tracer: Tracer, traced: Tally, untraced_s: float) -> dict:
    """name -> (value, unit, samples); counts and times are per run."""
    spans = tracer.summary()
    runs = traced.runs

    def total(name):
        return spans.get(name, (0.0, 0.0, 0))[0]

    def own(name):
        return spans.get(name, (0.0, 0.0, 0))[1]

    def calls(name):
        return spans.get(name, (0.0, 0.0, 0))[2]

    counts = tracer.counts
    votes = counts.get("rbcast.votes", 0)
    adversary = ("adversary", "adversary.pick_delivery")
    metrics = {
        "netsim.init_ms": total("netsim.init") / runs * 1e3,
        "netsim.step_calls": calls("netsim.step") / runs,
        "netsim.self_s": (own("netsim.run") + own("netsim.step")) / runs,
        "netsim.events": traced.events / runs,
        "netsim.events_per_delivery": traced.events / traced.deliveries,
        "netsim.inflight_peak": tracer.peaks.get("netsim.inflight_peak", 0),
        "netsim.budget_runs": traced.budget_runs,
        "messages.to_wire_calls": calls("messages.to_wire") / runs,
        "messages.to_wire_s": total("messages.to_wire") / runs,
        "register.handle_calls": calls("register.handle") / runs,
        "register.handle_self_s": own("register.handle") / runs,
        "register.begin_calls": calls("register.begin") / runs,
        "register.begin_s": total("register.begin") / runs,
        "register.digest_calls": calls("register.digest") / runs,
        "register.digest_s": total("register.digest") / runs,
        "rbcast.calls": calls("rbcast") / runs,
        "rbcast.s": total("rbcast") / runs,
        "rbcast.rdeliver": counts.get("rbcast.rdeliver", 0) / runs,
        "rbcast.stale_vote_share": (counts.get("rbcast.stale_votes", 0)
                                    / votes if votes else 0.0),
        "rbcast.vote_table_peak": tracer.peaks.get("rbcast.vote_table_peak", 0),
        "adversary.calls": sum(calls(a) for a in adversary) / runs,
        "adversary.s": sum(total(a) for a in adversary) / runs,
        "adversary.pick_delivery_calls": calls("adversary.pick_delivery") / runs,
        "adversary.pick_delivery_s": total("adversary.pick_delivery") / runs,
        "adversary.sends": counts.get("adversary.sends", 0) / runs,
        "adversary.sends_dropped": counts.get("adversary.sends_dropped", 0) / runs,
        "adversary.delivery_share": traced.byz_deliveries / traced.deliveries,
        "checker.s": total("checker") / runs,
        "checker.share": total("checker") / total("run"),
        **{f"checker.{name}_s": total(f"checker.{name}") / runs
           for name in CHECKER_PASSES},
        "bench.trace_overhead": untraced_s / total("run"),
        "bench.traced_runs": runs,
    }
    return {name: (value, None, runs) for name, value in metrics.items()}


def replay_command(workload_name: str, bench_seed: int, cfg, seed: int) -> str:
    """Write the generated scenario next to the spans; return its replay."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload_name}-seed{bench_seed}-{cfg.name}.json"
    if not path.exists():
        path.write_text(json.dumps(cfg.to_dict(), indent=1) + "\n")
    return (f"PYTHONPATH=src python3 -m byzreg.cli replay "
            f"{path.relative_to(ROOT)} --seed {seed}")


def print_report(args, tally: Tally, metrics: dict, spec: list[dict]) -> None:
    units = {m["name"]: m["unit"] for m in spec}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(tally.workload.cells)} scenarios, {tally.runs} runs "
          f"in {sum(tally.run_s):.2f} s")
    for name, (value, unit, samples) in metrics.items():
        unit = units.get(name, unit) or ""
        shown = ("n/a (fewer than 10 samples beyond it)" if value is None
                 else f"{value:.6g} {unit}")
        print(f"  {name:<32} {shown:<40} samples={samples}")
    print("verdicts over all runs:")
    props = sorted({prop for prop, _ in tally.verdicts})
    for prop in props:
        line = ", ".join(f"{status}={count}" for (p, status), count
                         in sorted(tally.verdicts.items()) if p == prop)
        print(f"  {prop}: {line}")
    for known in tally.workload.known:
        print(f"known failure: {known.note}")
    for status, cfg, seed, detail in tally.failing:
        print(f"  {status} failure: ({args.workload}, {cfg.name}, {seed}): "
              f"{detail}")
        print(f"    replay: {replay_command(args.workload, args.seed, cfg, seed)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "byzreg" / "__init__.py").is_file():
        print(f"error: no byzreg sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_times = []
    for _ in range(SETUP_REPS):
        elapsed, cli, workload = set_up(args.workload, args.seed)
        setup_times.append(elapsed)
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported byzreg from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    untraced = Tally(workload)
    budget = args.seconds * (UNTRACED_SHARE if args.trace else 1.0)
    pairs = []
    while not untraced.passes or sum(untraced.run_s) < budget:
        batch = workload.next_pass()
        pairs.extend(batch)
        run_pass(cli, batch, untraced, keep_hashes=bool(args.trace))

    if not args.trace:
        tally = untraced
        metrics = end_to_end(untraced, setup_times)
        wanted = spec["end_to_end"]
    else:
        tally = Tally(workload)
        tracer = Tracer()
        tracer.install()
        try:
            run_pass(cli, pairs, tally, keep_hashes=True, tracer=tracer)
        finally:
            tracer.uninstall()
        matches = 0
        for k, (cfg, seed) in enumerate(pairs):
            if untraced.hashes[k] == tally.hashes[k]:
                matches += 1
            else:
                tally.flag("unexpected", cfg, seed, "traced run's trace hash "
                           "differs from the untraced run's", run=k)
        print(f"trace hashes: {matches}/{len(pairs)} traced runs match the "
              "untraced pass")
        metrics = per_layer(tracer, tally, sum(untraced.run_s))
        wanted = spec["per_layer"]
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.tsv.gz")

    print_report(args, tally, metrics, wanted)
    missing = [m["name"] for m in wanted if metrics[m["name"]][0] is None]
    failed = len(tally.unexpected)
    result = {
        "correct": failed == 0 and not missing,
        "attempted": tally.runs,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": m["unit"]}
                    for m in wanted if metrics[m["name"]][0] is not None},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
