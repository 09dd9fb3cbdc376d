"""Command-line runner: execute scenarios, sweep seeds, report verdicts.

Subcommands:

* ``run``     one scenario, one or more seeds; writes traces and verdict
              reports, exits non-zero on any failure.
* ``sweep``   seed range with aggregate statistics (run outcomes, verdicts)
              and a message-cost table over completed operations;
              reports the first failing seed with a replay command.
* ``replay``  ``run`` for one seed, always printing its trace hash and
              verdicts.
* ``list``    bundled scenario names.

A scenario argument is a path to a JSON file, or the name of a bundled
scenario (see ``byzreg list``).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
from importlib import resources
from pathlib import Path

from .checker import CheckReport, cost_bounds, run_all_checks
from .errors import ScenarioError
from .netsim import Simulation, Trace, jsonl_hash
from .scenario import ScenarioConfig


def bundled_scenario_names() -> list[str]:
    root = resources.files("byzreg").joinpath("scenarios")
    return sorted(p.name.removesuffix(".json")
                  for p in root.iterdir() if p.name.endswith(".json"))


def resolve_scenario(ref: str) -> ScenarioConfig:
    """Parse a scenario file or bundled scenario; validation is separate."""
    path = Path(ref)
    if path.exists():
        return ScenarioConfig.load(path)
    bundle = resources.files("byzreg").joinpath("scenarios", f"{ref}.json")
    if bundle.is_file():
        return ScenarioConfig.from_dict(json.loads(bundle.read_text()))
    raise ScenarioError(
        f"{ref!r} is neither a file nor a bundled scenario "
        f"(bundled: {', '.join(bundled_scenario_names())})")


def parse_seeds(args, default: int) -> list[int]:
    if args.seeds:
        lo, _, hi = args.seeds.partition(":")
        try:
            seeds = list(range(int(lo), int(hi)))
        except ValueError:
            raise ScenarioError(f"--seeds expects A:B, got {args.seeds!r}")
        if not seeds:
            raise ScenarioError(f"--seeds {args.seeds} is empty (B must be "
                                f"greater than A)")
        return seeds
    if args.seed is not None:
        return [args.seed]
    return [default]


def load_with_overrides(args) -> ScenarioConfig:
    """Resolve the scenario, add the --mutate mutations, then validate.

    --out is checked here too, so that no seed runs before it is refused.
    """
    cfg = resolve_scenario(args.scenario)
    cfg.mutations |= frozenset(args.mutate or ())
    cfg.validate()
    if args.out:
        check_out_dir(Path(args.out))
    return cfg


def check_out_dir(path: Path) -> None:
    """Refuse an --out path that names a file or lies under one."""
    for part in (path, *path.parents):
        if part.exists():
            if not part.is_dir():
                raise ScenarioError(f"--out {path}: {part} is not a directory")
            return


def run_one(cfg: ScenarioConfig, seed: int) -> tuple[Trace, CheckReport]:
    trace = Simulation(cfg.with_seed(seed)).run()
    return trace, run_all_checks(trace)


def report_doc(trace: Trace, report: CheckReport, trace_hash: str) -> dict:
    return {
        "scenario": trace.scenario_name,
        "seed": trace.seed,
        "outcome": trace.outcome,
        "trace_hash": trace_hash,
        "verdicts": [
            {"prop": v.prop, "status": v.status, "detail": v.detail,
             "counterexample": list(v.counterexample)}
            for v in report.verdicts
        ],
        "costs": {
            op_id: {"kind": c.kind, "invoker": c.invoker, "total": c.total,
                    "by_tag": dict(sorted(c.counts.items()))}
            for op_id, c in sorted(report.cost.per_op.items())
        },
        "diagnostics": trace.diagnostics,
    }


def write_artifacts(out_dir: Path, trace: Trace, text: str,
                    doc: dict) -> None:
    """Write the trace's JSONL text and its report_doc()."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{trace.scenario_name}-seed{trace.seed}"
    (out_dir / f"{stem}.trace.jsonl").write_text(text)
    (out_dir / f"{stem}.report.json").write_text(
        json.dumps(doc, indent=2, default=str) + "\n")


def cmd_run(args) -> int:
    cfg = load_with_overrides(args)
    seeds = parse_seeds(args, cfg.seed)
    failures = 0
    for seed in seeds:
        trace, report = run_one(cfg, seed)
        ok = report.ok()
        failures += 0 if ok else 1
        if args.out or args.verbose:  # encoded once, to write and to hash
            text = trace.jsonl()
            digest = jsonl_hash(text)
        if args.out:
            write_artifacts(Path(args.out), trace, text,
                            report_doc(trace, report, digest))
        status = "ok" if ok else "FAILED"
        print(f"{cfg.name} seed={seed} outcome={trace.outcome} {status}")
        if args.verbose:
            print(f"trace_hash={digest}")
        if args.verbose or not ok:
            for line in report.summary_lines():
                print(f"  {line}")
    print(f"{len(seeds) - failures}/{len(seeds)} seeds passed")
    return 0 if failures == 0 else 1


def cmd_sweep(args) -> int:
    cfg = load_with_overrides(args)
    seeds = parse_seeds(args, cfg.seed)
    first_failure = None
    outcomes: dict[str, int] = {}
    verdict_totals: dict[str, dict[str, int]] = {}
    costs: dict[str, list[int]] = {"READ": [], "WRITE": []}
    for seed in seeds:
        trace, report = run_one(cfg, seed)
        outcomes[trace.outcome] = outcomes.get(trace.outcome, 0) + 1
        for v in report.verdicts:
            verdict_totals.setdefault(v.prop, {}).setdefault(v.status, 0)
            verdict_totals[v.prop][v.status] += 1
        for op in report.cost.per_op.values():
            if op.completed():  # bounds hold for completed operations only
                costs[op.kind].append(op.total)
        if not report.ok() and first_failure is None:
            first_failure = (seed, trace, report)
    bounds = cost_bounds(cfg.n)
    print(f"sweep {cfg.name}: {len(seeds)} seeds")
    print("  outcomes: " + ", ".join(f"{outcome}={count}" for outcome, count
                                     in sorted(outcomes.items())))
    for prop in sorted(verdict_totals):
        line = ", ".join(f"{status}={count}" for status, count
                         in sorted(verdict_totals[prop].items()))
        print(f"  {prop}: {line}")
    for kind, totals in costs.items():
        if not totals:
            continue
        median = statistics.median(totals)  # a float for an even count
        print(f"  {kind} sends/op: min={min(totals)} "
              f"median={int(median) if median % 1 == 0 else median} "
              f"max={max(totals)} bound={bounds[kind]}")
    doc = {
        "scenario": cfg.name,
        "seeds": [seeds[0], seeds[-1]],
        "outcomes": dict(sorted(outcomes.items())),
        "verdicts": verdict_totals,
        "costs": {k: {"min": min(v), "max": max(v),
                      "median": statistics.median(v)}
                  for k, v in costs.items() if v},
    }
    if first_failure is not None:
        seed, trace, report = first_failure
        text = trace.jsonl()
        doc["first_failure"] = report_doc(trace, report, jsonl_hash(text))
        print(f"  FIRST FAILURE at seed {seed}; replay with:")
        mutate = "".join(f" --mutate {m}" for m in args.mutate or ())
        print(f"    byzreg replay {args.scenario} --seed {seed}{mutate}")
        if args.out:
            write_artifacts(Path(args.out), trace, text,
                            doc["first_failure"])
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{cfg.name}-sweep.json").write_text(
            json.dumps(doc, indent=2, default=str) + "\n")
    return 0 if first_failure is None else 1


def cmd_list(_args) -> int:
    for name in bundled_scenario_names():
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="byzreg",
        description="Byzantine-tolerant register emulation: scenario runner "
                    "and trace checker")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(name, summary, func, seed_range=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func, parser=p)
        p.add_argument("scenario", help="scenario file or bundled name")
        seeds = p.add_mutually_exclusive_group() if seed_range else p
        seeds.add_argument("--seed", type=int, default=None)
        if seed_range:
            seeds.add_argument("--seeds", help="seed range A:B (B exclusive)")
        p.add_argument("--out", help="directory for traces and reports")
        p.add_argument("--mutate", action="append",
                       help="enable a protocol mutation (repeatable)")
        return p

    p_run = common("run", "run a scenario and check every property", cmd_run)
    p_run.add_argument("-v", "--verbose", action="store_true",
                       help="print each seed's trace hash and verdicts")
    common("sweep", "run a seed range, aggregate verdicts", cmd_sweep)
    common("replay", "re-run one seed, print trace hash and verdicts",
           cmd_run, seed_range=False).set_defaults(seeds=None, verbose=True)

    p_list = sub.add_parser("list", help="list bundled scenarios")
    p_list.set_defaults(func=cmd_list, parser=p_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args, extra = build_parser().parse_known_args(argv)
            if extra:  # exits 2, with the subcommand's usage
                args.parser.error(
                    f"unrecognized arguments: {' '.join(extra)}")
            return args.func(args)
        finally:  # also after --help: a closed pipe shows here, not at exit
            sys.stdout.flush()
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (byzreg list | head -1): stop quietly,
        # with stdout on devnull so the flush at shutdown cannot fail
        with contextlib.suppress(OSError, ValueError):  # no descriptor
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 1


if __name__ == "__main__":
    sys.exit(main())
