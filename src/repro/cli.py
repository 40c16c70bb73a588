"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``        one simulation on a generated trace, printed as a table
``sweep``      figure sweeps through the parallel execution kernel (alias
               ``figures``; same engine as the benchmarks)
``trace``      generate a trace, print its statistics, optionally save it
``stats``      statistics of a saved trace file
``capacity``   the §V broadcast-vs-pair-wise capacity table
``lint``       detlint: AST determinism & invariant linter
``validate``   the paper-claims table, one PASS/FAIL line per claim

Examples
--------
::

    python -m repro run --trace dieselnet --access 0.3 --files-per-day 40
    python -m repro run --trace nus --counters        # instrumentation dump
    python -m repro run --detcheck --protocol mbt     # sanitized double-run
    python -m repro lint src/repro --format github    # CI line annotations
    python -m repro lint --list-rules
    python -m repro sweep fig3a --jobs 4              # 4 worker processes
    python -m repro sweep --all --jobs 4 --format csv
    python -m repro validate --seeds 0 1          # paper-claims table
    python -m repro trace --kind nus --seed 7 --out campus.trace
    python -m repro stats campus.trace
    python -m repro capacity --max-n 16
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.capacity import capacity_gain, capacity_table
from repro.core.credits import CREDIT_POLICIES
from repro.core.mbt import ProtocolVariant
from repro.core.strategies import AdversaryPlan, parse_mix
from repro.exec import TraceSpec, build_trace
from repro.experiments import FIGURES
from repro.faults import FaultPlan
from repro.experiments.workloads import dieselnet_trace, nus_trace
from repro.sim.runner import Simulation, SimulationConfig
from repro.traces.base import ContactTrace, TraceError
from repro.traces.io import read_trace, write_trace
from repro.traces.mobility import (
    CommunityConfig,
    RandomWaypointConfig,
    generate_community_trace,
    generate_random_waypoint_trace,
)

TRACE_KINDS = ("dieselnet", "nus", "rwp", "community")


class UsageError(Exception):
    """Bad outside input, reported as one ``repro <cmd>: error:`` line (exit 2)."""


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _trace_spec(kind: str, seed: int, scale: str = "fast") -> TraceSpec:
    if kind == "dieselnet":
        return TraceSpec.of(dieselnet_trace, scale, seed)
    if kind == "nus":
        return TraceSpec.of(nus_trace, scale, seed)
    if kind == "rwp":
        return TraceSpec.of(
            generate_random_waypoint_trace, RandomWaypointConfig(), seed
        )
    if kind == "community":
        return TraceSpec.of(generate_community_trace, CommunityConfig(), seed)
    raise ValueError(f"unknown trace kind {kind!r}")


def _build_trace(kind: str, seed: int, scale: str = "fast") -> ContactTrace:
    return build_trace(_trace_spec(kind, seed, scale))


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.detlint import sanitizer

    detcheck = args.detcheck or sanitizer.detcheck_enabled()
    try:
        config = SimulationConfig(
            internet_access_fraction=args.access,
            files_per_day=args.files_per_day,
            ttl_days=args.ttl,
            metadata_per_contact=args.metadata_per_contact,
            files_per_contact=args.files_per_contact,
            tit_for_tat=args.tit_for_tat,
            broadcast=not args.pairwise,
            frequent_contact_max_gap_days=1.0 if args.trace == "nus" else 3.0,
            faults=FaultPlan(
                loss_rate=args.loss_rate,
                corruption_rate=args.corruption_rate,
                contact_drop_rate=args.contact_drop_rate,
                churn_rate=args.churn_rate,
                seed=args.fault_seed,
            ),
            adversaries=AdversaryPlan(
                fraction=args.adversary_fraction,
                mix=parse_mix(args.strategy_mix),
                seed=args.adversary_seed,
            ),
            credit_policy=args.credit_policy,
            profile=args.profile,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(exc) from None
    trace = _build_trace(args.trace, args.seed, args.scale)
    if not args.json:
        print(f"trace: {trace.stats().describe()}")
        if detcheck:
            print("detcheck: sanitized double-run (fingerprint cross-check on)")
    variants = (
        list(ProtocolVariant)
        if args.protocol == "all"
        else [ProtocolVariant(args.protocol)]
    )
    def run_one(cfg: SimulationConfig):
        if detcheck:
            return sanitizer.checked_run(trace, cfg)
        return Simulation(trace, cfg).run()

    if args.json:
        import json

        payload = {
            variant.value: run_one(config.with_variant(variant)).to_dict()
            for variant in variants
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{'protocol':>8}{'metadata':>10}{'file':>8}{'queries':>9}")
    results = {}
    for variant in variants:
        result = run_one(config.with_variant(variant))
        results[variant.value] = result
        print(
            f"{variant.value:>8}{result.metadata_delivery_ratio:>10.3f}"
            f"{result.file_delivery_ratio:>8.3f}{result.queries_generated:>9}"
        )
    if args.adversary_fraction > 0.0:
        for name, result in results.items():
            print(f"\n-- {name} adversary report --")
            print(_format_adversary_report(result))
    if args.counters or args.profile:
        from repro.sim.metrics import format_counters

        for name, result in results.items():
            print(f"\n-- {name} instrumentation counters --")
            print(format_counters(result.counters))
    return 0


def _format_adversary_report(result) -> str:
    """Adversary section of ``repro run``: census, damage, honest view."""
    counters = result.counters
    extra = result.extra
    census = {
        key[len("adversary.nodes_"):]: int(value)
        for key, value in counters.items()
        if key.startswith("adversary.nodes_")
    }
    lines = [
        "adversarial nodes: "
        + (
            ", ".join(f"{name}={count}" for name, count in sorted(census.items()))
            or "none"
        )
    ]
    for key in (
        "adversary.holdings_hidden",
        "adversary.turns_skipped",
        "adversary.rewards_inflated",
        "adversary.fakes_seeded",
        "adversary.fake_metadata_transmissions",
        "adversary.fake_piece_transmissions",
    ):
        if key in counters:
            lines.append(f"{key[len('adversary.'):]:>28}: {int(counters[key])}")
    if "adversary.honest_file_ratio" in extra:
        lines.append(
            "honest-node delivery: "
            f"metadata={extra['adversary.honest_metadata_ratio']:.3f} "
            f"file={extra['adversary.honest_file_ratio']:.3f} "
            f"(over {int(extra['adversary.honest_queries'])} queries)"
        )
    return "\n".join(lines)


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Figure sweeps through the kernel, with report-format output."""
    from repro.experiments.report import sweep_to_csv, sweep_to_json, sweep_to_markdown

    names = sorted(FIGURES) if args.all else args.panels
    if not names:
        print("name at least one panel or pass --all", file=sys.stderr)
        return 2
    from repro.experiments.asciiplot import render_panel

    renderers = {
        "table": lambda r: r.format_table(),
        "plot": lambda r: render_panel(r, metric="file"),
        "csv": sweep_to_csv,
        "markdown": sweep_to_markdown,
        "json": sweep_to_json,
    }
    render = renderers[args.format]
    for name in names:
        result = FIGURES[name](
            scale=args.scale, seeds=tuple(args.seeds), jobs=args.jobs
        )
        print(render(result))
        print()
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    trace = _build_trace(args.kind, args.seed, args.scale)
    print(trace.stats().describe())
    if args.out:
        try:
            write_trace(trace, args.out)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc.strerror}") from None
        print(f"written to {args.out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.frequent_gap_days <= 0:
        raise UsageError(f"--frequent-gap-days must be > 0, got {args.frequent_gap_days:g}")
    try:
        trace = read_trace(args.path)
    except OSError as exc:
        raise UsageError(f"cannot read {args.path}: {exc.strerror}") from None
    except TraceError as exc:
        raise UsageError(f"{args.path}: {exc}") from None
    stats = trace.stats()
    print(stats.describe())
    frequent = trace.frequent_pairs_by_rate(1.0 / args.frequent_gap_days)
    print(f"frequent pairs (>=1 contact / {args.frequent_gap_days:g} days): "
          f"{len(frequent)}")
    return 0


def _cmd_capacity(args: argparse.Namespace) -> int:
    if args.max_n < 2:
        raise UsageError(f"--max-n must be >= 2 (a clique has two nodes), got {args.max_n}")
    print(f"{'n':>4}{'broadcast':>12}{'pairwise':>12}{'gain':>8}")
    for point in capacity_table(range(2, args.max_n + 1)):
        print(
            f"{point.clique_size:>4}{point.broadcast:>12.4f}"
            f"{point.pairwise:>12.4f}{capacity_gain(point.clique_size):>8.1f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cooperative file sharing in hybrid DTNs (ICDCS'11 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one simulation")
    run.add_argument("--trace", choices=TRACE_KINDS, default="dieselnet")
    run.add_argument("--scale", choices=("fast", "paper"), default="fast")
    run.add_argument("--protocol", default="all",
                     choices=("all", *(v.value for v in ProtocolVariant)))
    run.add_argument("--access", type=float, default=0.3)
    run.add_argument("--files-per-day", type=int, default=40)
    run.add_argument("--ttl", type=float, default=3.0)
    run.add_argument("--metadata-per-contact", type=int, default=3)
    run.add_argument("--files-per-contact", type=int, default=3)
    run.add_argument("--tit-for-tat", action="store_true")
    run.add_argument("--pairwise", action="store_true",
                     help="use the pair-wise baseline medium")
    run.add_argument("--loss-rate", type=float, default=0.0,
                     help="per-receiver transmission loss probability")
    run.add_argument("--corruption-rate", type=float, default=0.0,
                     help="per-transmission piece corruption probability")
    run.add_argument("--contact-drop-rate", type=float, default=0.0,
                     help="probability a trace contact never happens")
    run.add_argument("--churn-rate", type=float, default=0.0,
                     help="per-node-per-day crash probability")
    run.add_argument("--fault-seed", type=int, default=0,
                     help="seed of the fault-injection streams")
    run.add_argument("--adversary-fraction", type=float, default=0.0,
                     help="fraction of nodes assigned an adversarial "
                          "strategy (0 = all honest)")
    run.add_argument("--strategy-mix",
                     default="exploiter,free_rider,polluter,under_reporter",
                     help="comma-separated strategy mix, each entry NAME or "
                          "NAME=WEIGHT (e.g. 'polluter=3,exploiter')")
    run.add_argument("--adversary-seed", type=int, default=0,
                     help="seed of the strategy-assignment stream")
    run.add_argument("--credit-policy", choices=CREDIT_POLICIES,
                     default="plain",
                     help="tit-for-tat credit scheme: the paper's plain "
                          "ledger or the reputation-hardened variant")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--json", action="store_true",
                     help="emit results as JSON instead of a table")
    run.add_argument("--counters", action="store_true",
                     help="also print the instrumentation counters")
    run.add_argument("--profile", action="store_true",
                     help="enable wall-clock phase timers (perf.time_us.* "
                          "counters; implies --counters)")
    run.add_argument("--detcheck", action="store_true",
                     help="runtime determinism sanitizer: pin PYTHONHASHSEED,"
                          " guard the global RNG per event, and cross-check "
                          "result fingerprints across two inline runs (same "
                          "as REPRO_DETCHECK=1)")
    run.set_defaults(handler=_cmd_run)

    sweep = sub.add_parser(
        "sweep",
        aliases=["figures"],
        help="figure sweeps through the parallel execution kernel",
    )
    sweep.add_argument("panels", nargs="*", choices=[*sorted(FIGURES), []])
    sweep.add_argument("--all", action="store_true")
    sweep.add_argument("--scale", choices=("fast", "paper"), default="fast")
    sweep.add_argument("--seeds", type=int, nargs="+", default=[0])
    sweep.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes (1 = serial, same results)")
    sweep.add_argument("--format",
                       choices=("table", "plot", "csv", "markdown", "json"),
                       default="table",
                       help="output format (plot: ASCII chart of file delivery)")
    sweep.set_defaults(handler=_cmd_sweep)

    trace = sub.add_parser("trace", help="generate a synthetic trace")
    trace.add_argument("--kind", choices=TRACE_KINDS, default="dieselnet")
    trace.add_argument("--scale", choices=("fast", "paper"), default="fast")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--out", help="write the trace to this path")
    trace.set_defaults(handler=_cmd_trace)

    stats = sub.add_parser("stats", help="statistics of a saved trace")
    stats.add_argument("path")
    stats.add_argument("--frequent-gap-days", type=float, default=3.0)
    stats.set_defaults(handler=_cmd_stats)

    capacity = sub.add_parser("capacity", help="§V capacity table")
    capacity.add_argument("--max-n", type=int, default=16)
    capacity.set_defaults(handler=_cmd_capacity)

    lint = sub.add_parser(
        "lint",
        help=(
            "detlint: AST determinism & contract linter "
            "(DET001-DET005, CON001-CON006 with --contracts)"
        ),
    )
    lint.add_argument("paths", nargs="*",
                      help="files or directories (default: src/repro)")
    lint.add_argument("--format", choices=("text", "github", "json"),
                      default="text",
                      help="finding output format (github = PR annotations)")
    lint.add_argument("--no-scope", action="store_true",
                      help="apply every rule everywhere, ignoring path scopes")
    lint.add_argument("--contracts", action="store_true",
                      help="also enforce the cross-layer contract rules "
                           "(counter/knob registries, import layering, "
                           "seam parity, wire schema)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule reference table and exit")
    lint.add_argument("--quiet", action="store_true",
                      help="suppress the summary line")
    lint.set_defaults(handler=_cmd_lint)

    validate = sub.add_parser(
        "validate", help="run the paper-claims validation checklist"
    )
    validate.add_argument("--scale", choices=("fast", "paper"), default="fast")
    validate.add_argument("--seeds", type=int, nargs="+", default=[0])
    validate.set_defaults(handler=_cmd_validate)

    return parser


def _cmd_lint(args: argparse.Namespace) -> int:
    """Delegate to the detlint driver (kept import-light until used)."""
    from repro.detlint.runner import main as detlint_main

    argv = list(args.paths)
    argv += ["--format", args.format]
    if args.no_scope:
        argv.append("--no-scope")
    if args.contracts:
        argv.append("--contracts")
    if args.list_rules:
        argv.append("--list-rules")
    if args.quiet:
        argv.append("--quiet")
    return detlint_main(argv, prog="repro lint")


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.experiments.validation import format_report, validate_reproduction

    claims = validate_reproduction(scale=args.scale, seeds=tuple(args.seeds))
    print(format_report(claims))
    return 0 if all(c.passed for c in claims) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
