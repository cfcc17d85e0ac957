"""Command-line interface for the MemPool-3D reproduction.

Usage::

    python -m repro implement MemPool-3D-4MiB
    python -m repro simulate --kernel matmul --n 16 --cores 16
    python -m repro run --scenario scenario.json
    python -m repro run --capacity 4 --flow 3D --objective edp
    python -m repro list [flows|workloads|objectives|experiments|lints]
    python -m repro check [--json] [--rule REP003] [paths ...]
    python -m repro explore --bandwidth 16
    python -m repro sweep --workers 4 --backend thread --progress
    python -m repro search --strategy evolutionary --budget 28
    python -m repro cache stats [--json]
    python -m repro cache gc --keep-version
    python -m repro cache merge worker-cache --cache-dir .sweep-cache
    python -m repro report results.jsonl --objective edp --pareto
    python -m repro report results.jsonl --html report.html --trace trace.jsonl
    python -m repro metrics --url http://127.0.0.1:8787 [--prometheus]
    python -m repro experiments [table1 table2 fig6 fig789]
    python -m repro serve --port 8787 --cache-dir .sweep-cache
"""

from __future__ import annotations

import argparse
import json
import sys


def _cmd_implement(args: argparse.Namespace) -> int:
    from .core.config import config_by_name
    from .physical.cluster_level import implement_cluster
    from .physical.flow3d import implement_group

    try:
        config = config_by_name(args.config)
    except ValueError as exc:  # rejected input: one line, no traceback
        print(f"repro implement: {exc}", file=sys.stderr)
        return 2
    impl = implement_group(config)
    result = impl.to_group_result()
    print(f"{config.name} group implementation ({impl.stack.name} BEOL):")
    print(f"  footprint:       {result.footprint_um2 / 1e6:9.2f} mm^2")
    print(f"  combined dies:   {result.combined_area_um2 / 1e6:9.2f} mm^2")
    print(f"  frequency:       {result.frequency_mhz:9.0f} MHz")
    print(f"  power:           {result.power_mw:9.0f} mW")
    print(f"  PDP:             {result.power_delay_product / 1e3:9.1f} nW*s/cycle")
    print(f"  wire length:     {result.wire_length_um / 1e6:9.2f} m")
    print(f"  buffers:         {result.num_buffers:9d}")
    print(f"  F2F bumps:       {result.num_f2f_bumps:9d}")
    print(f"  TNS:             {result.total_negative_slack_ps / 1e3:9.2f} ns")
    print(f"  failing paths:   {result.failing_paths:9d}")
    if config.is_3d:
        p = impl.tile.partition
        print(f"  partition:       {p.spm_banks_on_memory_die} banks + "
              f"{'I$' if p.icache_on_memory_die else 'no I$'} on memory die")
    if args.cluster:
        cluster = implement_cluster(impl)
        print("cluster level (2x2 groups):")
        print(f"  footprint:       {cluster.footprint_um2 / 1e6:9.2f} mm^2")
        print(f"  power:           {cluster.power_mw:9.0f} mW")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .core.config import config_by_name
    from .kernels.matmul import run_matmul
    from .kernels.workloads import run_axpy, run_conv2d, run_dotp

    try:
        config = config_by_name(args.config)
    except ValueError as exc:  # rejected input: one line, no traceback
        print(f"repro simulate: {exc}", file=sys.stderr)
        return 2
    if args.kernel == "matmul":
        run = run_matmul(config, n=args.n, num_cores=args.cores,
                         scoreboard=args.scoreboard,
                         sim_engine=args.sim_engine)
        print(f"matmul {args.n}x{args.n} on {args.cores} cores: "
              f"{run.cycles} cycles, CPI/MAC {run.cpi_mac:.2f}, "
              f"verified: {run.correct}")
        return 0 if run.correct else 1
    runner, dims = {
        "dotp": (run_dotp, (args.n,)),
        "axpy": (run_axpy, (args.n,)),
        "conv2d": (run_conv2d, (args.n, args.n)),
    }[args.kernel]
    run = runner(config, *dims, args.cores, sim_engine=args.sim_engine)
    print(f"{run.name}: {run.cycles} cycles, {run.instructions} instructions, "
          f"verified: {run.correct}")
    return 0 if run.correct else 1


def _print_run_result(result) -> None:
    scenario = result.scenario
    print(f"{result.name}  workload={scenario.workload}  "
          f"bandwidth={scenario.bandwidth:g} B/cycle  flow={scenario.flow}")
    print(f"  footprint:       {result.footprint_um2 / 1e6:10.2f} mm^2")
    print(f"  combined dies:   {result.combined_area_um2 / 1e6:10.2f} mm^2")
    print(f"  frequency:       {result.frequency_mhz:10.0f} MHz")
    print(f"  power:           {result.power_mw:10.0f} mW")
    print(f"  cycles:          {result.cycles:10.3e}")
    print(f"  runtime:         {result.runtime_s:10.3e} s")
    print(f"  energy:          {result.energy_j:10.3e} J")
    print(f"  EDP:             {result.edp:10.3e} J*s")
    print(f"  objective ({scenario.objective}): {result.objective_value():.4e}")


def _cmd_run(args: argparse.Namespace) -> int:
    from .api import Pipeline, Scenario

    if not args.scenario and args.capacity is None:
        print("repro run: need --scenario FILE or --capacity MIB",
              file=sys.stderr)
        return 2
    try:
        if args.scenario:
            if args.scenario == "-":
                data = json.load(sys.stdin)
            else:
                with open(args.scenario, encoding="utf-8") as fh:
                    data = json.load(fh)
            if isinstance(data, dict):
                data = [data]
            scenarios = [Scenario.from_dict(entry) for entry in data]
        else:
            scenarios = [
                Scenario(
                    capacity_mib=args.capacity,
                    flow=args.flow,
                    bandwidth=args.bandwidth,
                    matrix_dim=args.matrix_dim,
                    workload=args.workload,
                    objective=args.objective,
                )
            ]
    except ValueError as exc:  # rejected input: one line, no traceback
        print(f"repro run: {exc}", file=sys.stderr)
        return 2
    pipeline = Pipeline(engine=args.sim_engine)
    results = []
    for scenario in scenarios:
        result, profile = pipeline.run_profiled(scenario)
        results.append(result)
        _print_run_result(result)
        if args.profile:
            total = profile["implement_s"] + profile["cycles_s"]
            print(f"  profile:         implement {1e3 * profile['implement_s']:.1f} ms"
                  f" + cycles {1e3 * profile['cycles_s']:.1f} ms"
                  f" = {1e3 * total:.1f} ms")
        print()
    if len(results) > 1:
        objective = results[0].scenario.objective
        best = pipeline.rank(results, objective)[0]
        print(f"best {objective}: {best.name} "
              f"({best.objective_value(objective):.4e})")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    from .analysis.framework import LINTS
    from .api.registry import FLOWS, OBJECTIVES, PREDICTORS, WORKLOADS
    from .engine.backends import BACKENDS
    from .experiments.runner import EXPERIMENTS
    from .search.strategies import STRATEGIES

    registries = {
        "flows": FLOWS,
        "workloads": WORKLOADS,
        "objectives": OBJECTIVES,
        "predictors": PREDICTORS,
        "backends": BACKENDS,
        "strategies": STRATEGIES,
        "experiments": EXPERIMENTS,
        "lints": LINTS,
    }
    kinds = [args.kind] if args.kind else list(registries)
    for kind in kinds:
        print(f"{kind}:")
        for name in registries[kind]:
            print(f"  {name}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    """Run the REP analyzers; exit 0 clean, 1 findings, 2 usage error."""
    from .analysis.framework import analyze_paths

    try:
        report = analyze_paths(args.paths, rules=args.rules)
    except (ValueError, FileNotFoundError) as exc:
        print(f"repro check: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return report.exit_code
    for finding in report.findings:
        print(finding.format())
    counts = report.counts
    print(f"checked {report.files_checked} file(s) against "
          f"{len(report.rules)} rule(s): {counts['error']} error(s), "
          f"{counts['warning']} warning(s)")
    return report.exit_code


def _cmd_explore(args: argparse.Namespace) -> int:
    from .core.explorer import Explorer, OBJECTIVES

    explorer = Explorer(bandwidth=args.bandwidth)
    points = explorer.explore()
    print(f"{'config':>18} {'freq MHz':>9} {'power mW':>9} {'fp mm2':>8} {'EDP rel':>8}")
    base_edp = next(
        p.edp for p in points if p.config.name == "MemPool-2D-1MiB"
    )
    for p in sorted(points, key=lambda p: p.config.name):
        print(f"{p.config.name:>18} {p.frequency_mhz:9.0f} {p.power_mw:9.0f} "
              f"{p.footprint_um2 / 1e6:8.2f} {p.edp / base_edp:8.3f}")
    for objective in OBJECTIVES:
        print(f"best {objective}: {explorer.rank(objective, points)[0].config.name}")
    return 0


def _csv(cast):
    """argparse type: comma-separated list of ``cast`` values."""

    def parse(text: str):
        return tuple(cast(item) for item in text.split(",") if item.strip())

    return parse


def _progress_printer(progress: bool):
    """A ``(done, total, record)`` callback printing progress lines.

    Lines go to stderr so the default (quiet) stdout report stays
    machine-parseable; without ``--progress`` this returns ``None`` and
    the engine stays silent.
    """
    if not progress:
        return None

    def on_result(done: int, total: int, record: dict) -> None:
        from .sweep import Job

        try:
            label = Job.from_params(record["job"]).label
        except Exception:  # e.g. a cache record from an old encoding
            label = str(record.get("key", "?"))[:12]
        cached = " [cached]" if record.get("source") == "cache" else ""
        failed = " FAILED" if record.get("status") != "ok" else ""
        print(f"{done}/{total} {label}{cached}{failed}", file=sys.stderr)

    return on_result


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .engine import Engine, resolve_backend
    from .sweep import ResultCache, ResultStore, SweepSpec, summarize

    # Resolve once so the status line reports what will actually run
    # (backend default policy and auto-sized worker pools live in
    # resolve_backend, not here); the instance is handed to the engine.
    # Everything is checked before the cache directory is created.
    try:
        spec = SweepSpec(
            capacities_mib=args.capacities,
            flows=args.flows,
            bandwidths=args.bandwidths,
            matrix_dims=args.matrix_dims,
            core_counts=args.core_counts,
            kernels=args.kernels,
        )
        backend = resolve_backend(args.backend, workers=args.workers)
        jobs = list(spec.jobs())
    except ValueError as exc:  # rejected input: one line, no traceback
        print(f"repro sweep: {exc}", file=sys.stderr)
        return 2
    engine = Engine(
        backend=backend,
        workers=args.workers,
        cache=None if args.no_cache else ResultCache(args.cache_dir),
        on_result=_progress_printer(args.progress),
        sim_engine=args.sim_engine,
    )
    # Keyed for the engine's tier once: a point listed twice
    # (``--bandwidths 16,16.0``) is one evaluation, one count, one line.
    jobs = [engine.job_of(job) for job in jobs]
    points = len({job.key for job in jobs})
    name = getattr(backend, "name", type(backend).__name__)
    workers = getattr(backend, "workers", 1)
    print(f"sweeping {points} design points "
          f"({name} backend, {workers} worker{'s' if workers != 1 else ''})...")
    try:
        outcome = engine.run(jobs)
    except KeyboardInterrupt:
        return _interrupted("sweep", cached=not args.no_cache)
    if args.store:
        store = ResultStore(args.store)
        for record in outcome.records:  # spec order
            store.append(record)
    stats = outcome.stats
    print(f"{stats.total} jobs: {stats.cached} cached, "
          f"{stats.evaluated} evaluated, {stats.failed} failed "
          f"in {stats.duration_s:.2f}s")
    print()
    print(summarize(outcome.records, top=args.top))
    return 1 if stats.failed else 0


def _interrupted(command: str, cached: bool) -> int:
    """Report a Ctrl-C cleanly: what survived, how to pick it back up."""
    if cached:
        print(f"\nrepro {command}: interrupted — completed evaluations are "
              f"in the cache; resume with the same command.", file=sys.stderr)
    else:
        print(f"\nrepro {command}: interrupted (--no-cache: completed "
              f"evaluations were not preserved).", file=sys.stderr)
    return 130  # the conventional 128 + SIGINT exit status


#: The `repro search` archive artifact a fresh (non-`--resume`) search
#: owns and resets.  User-supplied paths are never deleted.
DEFAULT_SEARCH_ARCHIVE = ".search-archive.jsonl"


def _cmd_search(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .engine import resolve_backend
    from .search import STRATEGIES, Choice, ParetoArchive, Searcher, SearchSpace, resolve_objectives
    from .sweep import ResultCache, ResultStore

    axes, base = [], {}
    for name, values in (
        ("capacity_mib", args.capacities),
        ("flow", args.flows),
        ("bandwidth", args.bandwidths),
        ("matrix_dim", args.matrix_dims),
        ("num_cores", args.core_counts),
        ("workload", args.kernels),
    ):
        if len(values) > 1:
            axes.append(Choice(name, values))
        else:
            base[name] = values[0]
    if not axes:
        print("repro search: need at least one axis with several values",
              file=sys.stderr)
        return 2
    try:
        # Every name and count is checked before the archive is reset or
        # a cache directory created: a rejected one leaves the
        # filesystem as it was.
        space = SearchSpace(axes, **base)
        resolve_objectives(args.objectives)
        STRATEGIES.get(args.strategy)
        backend = resolve_backend(args.backend, workers=args.workers)
        for flag, count in (("--budget", args.budget),
                            ("--generation", args.generation)):
            if count is not None and count <= 0:
                raise ValueError(f"{flag} must be positive, got {count}")

        archive = None
        if args.archive:
            # A fresh search resets only its own default artifact;
            # --resume keeps it, and user-supplied paths always
            # accumulate (entries are deduplicated by content address
            # on load).
            if not args.resume and args.archive == DEFAULT_SEARCH_ARCHIVE:
                Path(args.archive).unlink(missing_ok=True)
            archive = ParetoArchive(args.archive)

        searcher = Searcher(
            space,
            objectives=args.objectives,
            strategy=args.strategy,
            budget=args.budget,
            generation_size=args.generation,
            seed=args.seed,
            cache=None if args.no_cache else ResultCache(args.cache_dir),
            workers=args.workers,
            store=ResultStore(args.store) if args.store else None,
            archive=archive,
            backend=backend,
            on_result=_progress_printer(args.progress),
            sim_engine=args.sim_engine,
        )
    except ValueError as exc:  # rejected input: one line, no traceback
        print(f"repro search: {exc}", file=sys.stderr)
        return 2
    size = space.cardinality
    print(f"searching a {size if size is not None else 'continuous'}-point "
          f"space: strategy={args.strategy} budget={args.budget} "
          f"objectives={','.join(searcher.objective_names)} seed={args.seed}")
    try:
        outcome = searcher.run()
    except KeyboardInterrupt:
        return _interrupted("search", cached=not args.no_cache)
    print(outcome.report(top=args.top))
    if archive is not None:
        print(f"archive: {archive.path} "
              f"({len(archive)} candidates, {len(archive.front())} on front)")
    return 0 if outcome.ok_candidates else 1


def _report_html(args: argparse.Namespace) -> int:
    """The ``repro report --html`` path: render the observability report."""
    from pathlib import Path

    from .obs import report as obs_report
    from .obs.profile import StageProfiler
    from .sweep import ResultStore

    records = []
    if args.results:
        if not Path(args.results).is_file():
            print(f"repro report: no records in {args.results}",
                  file=sys.stderr)
            return 1
        records = list(ResultStore(args.results).latest().values())
    stage_profile = None
    if args.trace:
        stage_profile = StageProfiler.from_trace(args.trace).breakdown() or None
    if not records and stage_profile is None:
        print("repro report --html: nothing to render (give a results "
              "JSONL or --trace)", file=sys.stderr)
        return 2
    out = obs_report.write_html(
        args.html,
        records=records,
        stage_profile=stage_profile,
        title=args.title,
    )
    sections = bool(records) + (stage_profile is not None)
    print(f"wrote {out} ({sections} data section(s), self-contained)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .sweep import ResultStore, pareto_pairs, rank, summarize
    from .sweep.report import format_table

    if args.html:
        return _report_html(args)
    if not args.results:
        print("repro report: need a results JSONL (or --html OUT)",
              file=sys.stderr)
        return 2
    # Reporting is read-only: never let ResultStore create directories
    # for a mistyped path.
    if not Path(args.results).is_file():
        print(f"repro report: no records in {args.results}", file=sys.stderr)
        return 1
    # A store that several runs appended to holds a design once per
    # run; report each design once, by its last record.
    records = list(ResultStore(args.results).latest().values())
    if not records:
        print(f"repro report: no records in {args.results}", file=sys.stderr)
        return 1
    if args.objective is None and not args.pareto:
        print(summarize(records, top=args.top))
        return 0
    ok_count = sum(1 for r in records if r.get("status") == "ok")
    if args.objective is not None:
        try:
            ranked = rank(records, args.objective)
        except ValueError as exc:  # rejected input: one line, no traceback
            print(f"repro report: {exc}", file=sys.stderr)
            return 2
        print(f"top {args.objective} of {len(ranked)} points:")
        print(format_table(ranked[: args.top]))
    if args.pareto:
        front = pareto_pairs(records)
        print(f"performance / energy-efficiency Pareto front "
              f"({len(front)} of {ok_count} points):")
        print(format_table(front))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .api.scenario import CODE_MODEL_VERSION
    from .engine.cache import (
        cache_clear,
        cache_gc,
        cache_stats,
        merge_cache_dirs,
    )

    if args.action == "merge":
        try:
            merged = merge_cache_dirs(args.source, args.cache_dir)
        except FileNotFoundError as exc:
            print(f"repro cache merge: {exc}", file=sys.stderr)
            return 1
        print(f"merged {merged['records']} records and {merged['stages']} "
              f"stage memos from {args.source} into {args.cache_dir}")
        return 0
    if args.action == "stats":
        # One code path for every consumer: this dict is exactly what
        # the service serves on GET /v1/cache.
        stats = cache_stats(args.cache_dir)
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
            return 0
        print(f"cache {stats['path']}:")
        print(f"  entries:   {stats['entries']}")
        print(f"  bytes:     {stats['bytes']}")
        for version, count in sorted(stats["versions"].items()):
            marker = " (current)" if version == CODE_MODEL_VERSION else ""
            print(f"  version {version}: {count} entries{marker}")
        hit_rate = stats["hit_rate"]
        print(f"  lookups:   {stats['memory_hits']} memory hits, "
              f"{stats['disk_hits']} disk hits, {stats['misses']} misses")
        print("  hit rate:  "
              + (f"{hit_rate:.1%}" if hit_rate is not None else "n/a"))
        print(f"  stages:    {stats['stage_entries']} memoized")
        print(f"    physical: {stats['physical_hits']} hits, "
              f"{stats['physical_evals']} evaluations")
        print(f"    cycles:   {stats['cycles_hits']} hits, "
              f"{stats['cycles_evals']} evaluations")
        print(f"  analytic:  {stats['analytic_predictions']} predictions, "
              f"{stats['analytic_calibrations']} calibrations, "
              f"{stats['analytic_fallbacks']} fallbacks")
        print(f"    fitted:  {stats['calibration_entries']} "
              f"calibration records")
        return 0
    if args.action == "clear":
        removed = cache_clear(args.cache_dir)
        print(f"cleared {removed} entries from {args.cache_dir}")
        return 0
    # gc
    keep = args.keep_version or CODE_MODEL_VERSION
    kept, pruned = cache_gc(args.cache_dir, keep_version=keep)
    print(f"kept {kept} entries under version {keep}, pruned {pruned}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Fetch a running service's metrics (``GET /v1/metrics``)."""
    from .client import ServiceClient, ServiceError

    try:
        with ServiceClient(args.url) as client:
            if args.prometheus:
                sys.stdout.write(client.metrics_text())
            else:
                print(json.dumps(client.metrics(), indent=2, sort_keys=True))
    except (ServiceError, ConnectionError) as exc:
        print(f"repro metrics: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments.runner import run_experiments

    return run_experiments(args.names)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import ReproService

    try:
        service = ReproService(
            host=args.host,
            port=args.port,
            cache_dir=None if args.no_cache else args.cache_dir,
            backend=args.backend,
            workers=args.workers,
            queue_limit=args.queue_limit,
            max_active=args.max_active,
            sim_engine=args.sim_engine,
        )
    except ValueError as exc:  # rejected input: one line, no traceback
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2

    async def _serve() -> None:
        url = await service.start()
        cache = service.cache_dir or "memory-only"
        print(f"serving on {url} (cache: {cache}; "
              f"SIGTERM drains, Ctrl-C stops)", flush=True)
        await service.serve_until_stopped()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\nrepro serve: interrupted — active jobs cancelled; every "
              "completed evaluation is in the cache.", file=sys.stderr)
        return 130
    return 0


#: Help of the evaluation-level ``--sim-engine`` (run/sweep/search/serve).
_SIM_ENGINE_HELP = (
    "evaluation engine: fast simulates; analytic serves calibrated tier-0 "
    "predictions, under their own cache keys, where a predictor covers the "
    "workload (default: fast)"
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="MemPool-3D reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_impl = sub.add_parser("implement", help="implement a group (and cluster)")
    p_impl.add_argument("config", help="instance name, e.g. MemPool-3D-4MiB")
    p_impl.add_argument("--cluster", action="store_true", help="add cluster level")
    p_impl.set_defaults(func=_cmd_implement)

    p_sim = sub.add_parser("simulate", help="run a verified kernel simulation")
    p_sim.add_argument("--config", default="MemPool-2D-1MiB")
    p_sim.add_argument("--kernel", default="matmul",
                       choices=("matmul", "dotp", "axpy", "conv2d"))
    p_sim.add_argument("--n", type=int, default=16, help="problem size")
    p_sim.add_argument("--cores", type=int, default=16)
    p_sim.add_argument("--scoreboard", action="store_true",
                       help="non-blocking-load core model")
    p_sim.add_argument("--sim-engine", choices=("fast", "reference"),
                       default="fast", dest="sim_engine",
                       help="cycle-simulator implementation (bit-identical; "
                            "default: fast)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_run = sub.add_parser(
        "run", help="evaluate a scenario through the unified pipeline"
    )
    p_run.add_argument("--scenario", default=None, metavar="FILE",
                       help="JSON file holding a scenario (or a list of "
                            "scenarios); '-' reads stdin")
    p_run.add_argument("--capacity", type=int, default=None,
                       help="SPM capacity in MiB (inline scenario)")
    p_run.add_argument("--flow", default="2D", help="implementation flow")
    p_run.add_argument("--bandwidth", type=float, default=16.0,
                       help="off-chip B/cycle")
    p_run.add_argument("--matrix-dim", type=int, default=326400,
                       dest="matrix_dim", help="workload problem dimension")
    p_run.add_argument("--workload", default="matmul",
                       help="registered workload name")
    p_run.add_argument("--objective", default="edp",
                       help="registered objective name")
    p_run.add_argument("--profile", action="store_true",
                       help="print per-stage (implement/cycles) wall times")
    p_run.add_argument("--sim-engine", choices=("fast", "analytic"),
                       default="fast", dest="sim_engine",
                       help=_SIM_ENGINE_HELP)
    p_run.set_defaults(func=_cmd_run)

    p_list = sub.add_parser("list", help="list registered plugins")
    p_list.add_argument("kind", nargs="?", default=None,
                        choices=("flows", "workloads", "objectives",
                                 "predictors", "backends", "strategies",
                                 "experiments", "lints"),
                        help="plugin kind (default: all)")
    p_list.set_defaults(func=_cmd_list)

    p_chk = sub.add_parser(
        "check",
        help="run the repo-aware static analyzers (REP001-REP009)",
    )
    p_chk.add_argument("paths", nargs="*", default=["src"], metavar="PATH",
                       help="files or directories to analyze (default: src)")
    p_chk.add_argument("--rule", action="append", dest="rules", default=None,
                       metavar="ID",
                       help="run only this rule id (repeatable)")
    p_chk.add_argument("--json", action="store_true",
                       help="emit the machine-readable findings document")
    p_chk.set_defaults(func=_cmd_check)

    p_exp = sub.add_parser("explore", help="sweep the design space")
    p_exp.add_argument("--bandwidth", type=float, default=16.0,
                       help="off-chip B/cycle")
    p_exp.set_defaults(func=_cmd_explore)

    p_sw = sub.add_parser(
        "sweep", help="parallel, cached sweep over the design space"
    )
    p_sw.add_argument("--capacities", type=_csv(int), default=(1, 2, 4, 8),
                      help="comma-separated SPM capacities in MiB")
    p_sw.add_argument("--flows", type=_csv(str), default=("2D", "3D"),
                      help="comma-separated flows (2D,3D)")
    p_sw.add_argument("--bandwidths", type=_csv(float),
                      default=(2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
                      help="comma-separated off-chip bandwidths in B/cycle")
    p_sw.add_argument("--matrix-dims", type=_csv(int), default=(326400,),
                      dest="matrix_dims",
                      help="comma-separated matrix dimensions")
    p_sw.add_argument("--core-counts", type=_csv(int), default=(256,),
                      dest="core_counts",
                      help="comma-separated compute-core counts")
    p_sw.add_argument("--kernels", type=_csv(str), default=("matmul",),
                      help="comma-separated registered workload names")
    p_sw.add_argument("--workers", type=int, default=0,
                      help="workers (0 = serial, unless --backend is given)")
    p_sw.add_argument("--backend", default=None,
                      help="execution backend (see `repro list backends`; "
                           "default: process when --workers > 1, else serial)")
    p_sw.add_argument("--progress", action="store_true",
                      help="print done/total progress lines to stderr")
    p_sw.add_argument("--cache-dir", default=".sweep-cache",
                      help="content-addressed result cache directory")
    p_sw.add_argument("--no-cache", action="store_true",
                      help="disable the result cache")
    p_sw.add_argument("--store", default=None,
                      help="append-only JSONL log of every result")
    p_sw.add_argument("--top", type=int, default=3,
                      help="winners listed per objective")
    p_sw.add_argument("--sim-engine", choices=("fast", "analytic"),
                      default="fast", dest="sim_engine",
                      help=_SIM_ENGINE_HELP)
    p_sw.set_defaults(func=_cmd_sweep)

    p_se = sub.add_parser(
        "search", help="guided multi-objective design-space optimization"
    )
    p_se.add_argument("--strategy", default="evolutionary",
                      help="registered strategy (see `repro list strategies`)")
    p_se.add_argument("--budget", type=int, default=32,
                      help="maximum evaluations (cache hits included)")
    p_se.add_argument("--objectives", type=_csv(str),
                      default=("edp", "energy_efficiency"),
                      help="comma-separated registered objective names")
    p_se.add_argument("--generation", type=int, default=None,
                      help="candidates per generation (default: auto)")
    p_se.add_argument("--seed", type=int, default=0,
                      help="strategy RNG seed (fixes the trajectory)")
    p_se.add_argument("--capacities", type=_csv(int), default=(1, 2, 4, 8),
                      help="capacity axis values in MiB")
    p_se.add_argument("--flows", type=_csv(str), default=("2D", "3D"),
                      help="flow axis values")
    p_se.add_argument("--bandwidths", type=_csv(float),
                      default=(2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
                      help="off-chip bandwidth axis values in B/cycle")
    p_se.add_argument("--matrix-dims", type=_csv(int), default=(326400,),
                      dest="matrix_dims", help="matrix-dimension axis values")
    p_se.add_argument("--core-counts", type=_csv(int), default=(256,),
                      dest="core_counts", help="compute-core-count axis values")
    p_se.add_argument("--kernels", type=_csv(str), default=("matmul",),
                      help="workload axis values (any registered workload)")
    p_se.add_argument("--workers", type=int, default=0,
                      help="workers per generation (0 = serial, unless "
                           "--backend is given)")
    p_se.add_argument("--backend", default=None,
                      help="execution backend (see `repro list backends`; "
                           "default: process when --workers > 1, else serial)")
    p_se.add_argument("--progress", action="store_true",
                      help="print done/budget progress lines to stderr")
    p_se.add_argument("--cache-dir", default=".sweep-cache",
                      help="content-addressed result cache (shared with sweep)")
    p_se.add_argument("--no-cache", action="store_true",
                      help="disable the result cache")
    p_se.add_argument("--store", default=None,
                      help="append-only JSONL log of every record")
    p_se.add_argument("--archive", default=DEFAULT_SEARCH_ARCHIVE,
                      help="persistent Pareto archive JSONL ('' disables; "
                           "the default file is reset unless --resume, "
                           "custom paths accumulate)")
    p_se.add_argument("--resume", action="store_true",
                      help="keep the existing archive and replay the "
                           "trajectory (cached candidates are free)")
    p_se.add_argument("--top", type=int, default=3,
                      help="winners listed per objective")
    p_se.add_argument("--sim-engine", choices=("fast", "analytic"),
                      default="fast", dest="sim_engine",
                      help=_SIM_ENGINE_HELP)
    p_se.set_defaults(func=_cmd_search)

    p_cache = sub.add_parser(
        "cache", help="inspect and maintain the result cache"
    )
    cache_sub = p_cache.add_subparsers(dest="action", required=True)
    for action, help_text in (
        ("stats", "entries, bytes, per-version counts, and hit rate"),
        ("clear", "delete every cache entry"),
        ("gc", "prune entries written under old code-model versions"),
        ("merge", "fold another cache directory into this one"),
    ):
        p_action = cache_sub.add_parser(action, help=help_text)
        p_action.add_argument("--cache-dir", default=".sweep-cache",
                              help="cache directory (shared with sweep/search)")
        if action == "stats":
            p_action.add_argument("--json", action="store_true",
                                  help="machine-readable output (the same "
                                       "document the service serves on "
                                       "GET /v1/cache)")
        if action == "gc":
            p_action.add_argument("--keep-version", nargs="?", default=None,
                                  const=None, metavar="VERSION",
                                  help="code-model version whose entries "
                                       "survive (default: the current one)")
        if action == "merge":
            p_action.add_argument("source", metavar="SRC_DIR",
                                  help="cache directory to merge from "
                                       "(e.g. a worker's private cache)")
        p_action.set_defaults(func=_cmd_cache)

    p_rep = sub.add_parser(
        "report", help="rank / summarize a results JSONL after the fact"
    )
    p_rep.add_argument("results", nargs="?", default=None,
                       help="JSONL from sweep/search --store or the cache")
    p_rep.add_argument("--objective", default=None,
                       help="rank by this registered objective")
    p_rep.add_argument("--pareto", action="store_true",
                       help="print the performance/efficiency Pareto front")
    p_rep.add_argument("--top", type=int, default=10,
                       help="rows shown in ranked tables")
    p_rep.add_argument("--html", default=None, metavar="OUT",
                       help="write a self-contained HTML report (Pareto "
                            "front, sweep heatmap, stage breakdown) instead "
                            "of text output")
    p_rep.add_argument("--trace", default=None, metavar="FILE",
                       help="trace JSONL whose stage.* spans become the "
                            "per-stage breakdown in --html")
    p_rep.add_argument("--title", default="repro report",
                       help="HTML report title")
    p_rep.set_defaults(func=_cmd_report)

    p_met = sub.add_parser(
        "metrics", help="fetch a running service's metrics snapshot"
    )
    p_met.add_argument("--url", default="http://127.0.0.1:8787",
                       help="service base URL")
    p_met.add_argument("--prometheus", action="store_true",
                       help="Prometheus text exposition instead of JSON")
    p_met.set_defaults(func=_cmd_metrics)

    p_x = sub.add_parser("experiments", help="regenerate tables/figures")
    p_x.add_argument("names", nargs="*", help="subset of experiments")
    p_x.set_defaults(func=_cmd_experiments)

    p_srv = sub.add_parser(
        "serve", help="run the async job API over the shared cache"
    )
    p_srv.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: loopback)")
    p_srv.add_argument("--port", type=int, default=8787,
                       help="bind port (0 picks a free one)")
    p_srv.add_argument("--cache-dir", default=".sweep-cache",
                       help="shared result cache (multi-writer safe; other "
                            "sweeps and services may use it concurrently)")
    p_srv.add_argument("--no-cache", action="store_true",
                       help="serve from memory only (no disk cache)")
    p_srv.add_argument("--backend", default=None,
                       help="execution backend for evaluations "
                            "(see `repro list backends`)")
    p_srv.add_argument("--workers", type=int, default=0,
                       help="workers for pool backends (0 = one per core)")
    p_srv.add_argument("--queue-limit", type=int, default=64,
                       dest="queue_limit",
                       help="queued jobs before submissions get 429")
    p_srv.add_argument("--max-active", type=int, default=2,
                       dest="max_active",
                       help="jobs executing concurrently")
    p_srv.add_argument("--sim-engine", choices=("fast", "analytic"),
                       default="fast", dest="sim_engine",
                       help=_SIM_ENGINE_HELP)
    p_srv.set_defaults(func=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
