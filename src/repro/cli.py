"""Command-line interface for the Longnail reproduction.

Usage (``python -m repro ...`` or the ``repro-longnail`` entry point):

    repro-longnail compile my_isax.core_desc --core VexRiscv -o build/
    repro-longnail batch --workers 4 -o build/grid
    repro-longnail serve --port 8080 --workers 4
    repro-longnail datasheet ORCA
    repro-longnail isaxes [name]
    repro-longnail table1 | table3 | table4
    repro-longnail simulate prog.s --isax zol --isax autoinc --core VexRiscv

``compile`` runs the full flow — CoreDSL in, SystemVerilog and the SCAIE-V
configuration file out — exactly like the paper's Figure 9 tool invocation.
``batch`` fans a whole (ISAX x core) grid out over the
:mod:`repro.service` orchestrator with artifact caching and per-phase
timing metrics.  ``serve`` runs the same pipeline as a long-lived HTTP
service (:mod:`repro.server`) with request coalescing, priority queues
and streaming observability; it drains gracefully on SIGTERM/SIGINT.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
from typing import List, Optional, Union

from repro.frontend.elaboration import elaborate
from repro.fuzz.oracles import ALL_ORACLES, DEFAULT_ORACLES, ORACLE_ALIASES
from repro.hls.longnail import compile_isax
from repro.isaxes import ALL_ISAXES
from repro.opt.pipeline import PASS_ORDER, OptOptions
from repro.scaiev.cores import CORES, EXPERIMENTAL_CORES, core_datasheet
from repro.scheduling.problem import ScheduleError
from repro.sim.compile import SIM_ENGINES
from repro.utils.diagnostics import CoreDSLError

#: Every targetable host core: the four Table 4 MCUs plus the Section 7
#: application-class outlook core.
ALL_CORES = CORES + EXPERIMENTAL_CORES

#: Oracle kinds `fuzz --oracle` accepts ("all" expands to every kind).
ORACLE_CHOICES = ALL_ORACLES + tuple(ORACLE_ALIASES) + ("all",)


def _add_opt_arguments(parser: argparse.ArgumentParser) -> None:
    """The optimizer-pipeline flags shared by compile/batch/lint."""
    parser.add_argument("-O", "--opt-level", type=int, choices=(0, 1, 2),
                        default=0, dest="opt_level", metavar="N",
                        help="optimizer level: 0 off, 1 clean-up "
                             "(canonicalize/propagate/CSE/DCE), 2 adds "
                             "strength reduction and resource sharing")
    parser.add_argument("--opt-pass", action="append", default=[],
                        choices=PASS_ORDER, metavar="PASS",
                        dest="opt_pass",
                        help="enable an optimizer pass on top of -ON "
                             "(repeatable; passes: "
                             + ", ".join(PASS_ORDER) + ")")
    parser.add_argument("--no-opt-pass", action="append", default=[],
                        choices=PASS_ORDER, metavar="PASS",
                        dest="no_opt_pass",
                        help="disable an optimizer pass (repeatable)")


def _opt_flags(args: argparse.Namespace) -> tuple:
    """CLI pass overrides -> the '+name'/'-name' flag tuple."""
    return tuple(list(args.opt_pass)
                 + ["-" + name for name in args.no_opt_pass])


def _print_optimizer_summary(report) -> None:
    if report is None:
        return
    print(f"optimizer: -O{report.level} over {report.graphs} graph(s), "
          f"{report.nodes_before} -> {report.nodes_after} ops "
          f"(-{report.node_reduction_pct:.1f}%), "
          f"{report.ops_removed} removed / {report.ops_rewritten} rewritten "
          f"in {report.seconds:.3f}s")


def _read_source(path_str: str) -> str:
    path = pathlib.Path(path_str)
    if not path.is_file():
        raise CoreDSLError(f"input file not found: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except OSError as err:
        raise CoreDSLError(f"cannot read {path}: {err}") from err


def _cmd_compile(args: argparse.Namespace) -> int:
    source = _read_source(args.file)
    try:
        datasheet = core_datasheet(args.core)
    except KeyError as err:
        raise CoreDSLError(str(err.args[0]) if err.args else str(err)) from err
    isa = elaborate(source, top=args.top, filename=args.file)
    artifact = compile_isax(
        isa, core=datasheet, engine=args.engine,
        cycle_time_ns=args.cycle_time,
        opt=OptOptions.from_flags(args.opt_level, _opt_flags(args)),
    )
    out_dir = pathlib.Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    sv_path = out_dir / f"{artifact.name}.sv"
    cfg_path = out_dir / f"{artifact.name}.scaiev.yaml"
    sv_path.write_text(artifact.verilog, encoding="utf-8")
    cfg_path.write_text(artifact.config_yaml, encoding="utf-8")

    for diag in artifact.diagnostics:
        print(diag.render(), file=sys.stderr)
    print(f"ISAX '{artifact.name}' compiled for {artifact.core_name} "
          f"({artifact.datasheet.cycle_time_ns:.2f} ns cycle)")
    _print_optimizer_summary(artifact.optimizer)
    for name, functionality in artifact.functionalities.items():
        print(f"  {functionality.kind:<12} {name:<16} "
              f"mode={functionality.mode.value:<16} "
              f"span={functionality.schedule.makespan}")
    print(f"wrote {sv_path}")
    print(f"wrote {cfg_path}")
    return 0


def _default_cache_dir() -> pathlib.Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro-longnail"


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.service import (
        ArtifactCache,
        BatchExecutor,
        job_grid,
        load_manifest,
    )

    if args.manifest:
        jobs = load_manifest(_read_source(args.manifest))
    else:
        isaxes = args.isax or sorted(ALL_ISAXES)
        cores = args.core or list(ALL_CORES)
        scales = args.cycle_scale or [None]
        jobs = job_grid(isaxes, cores, cycle_scales=scales,
                        engine=args.engine, opt_level=args.opt_level,
                        opt_passes=_opt_flags(args))

    cache = None
    if not args.no_cache:
        cache = ArtifactCache(pathlib.Path(args.cache_dir).expanduser())
    executor = BatchExecutor(
        workers=args.workers, cache=cache, timeout_s=args.timeout,
        retries=args.retries, backoff_base_s=args.backoff,
    )
    outcomes, metrics = executor.run_compile_jobs(jobs)

    out_dir = pathlib.Path(args.output) if args.output else None
    for job, outcome in zip(jobs, outcomes):
        if outcome.ok:
            origin = "cache" if outcome.cached else "compiled"
            spans = ",".join(str(f["makespan"])
                             for f in outcome.result["functionalities"])
            print(f"  ok     {job.job_id:<28} {origin:<9} "
                  f"{outcome.seconds:>8.3f}s  spans={spans}")
            if out_dir is not None:
                core_dir = out_dir / outcome.result["core"]
                core_dir.mkdir(parents=True, exist_ok=True)
                (core_dir / f"{job.isax}.sv").write_text(
                    outcome.result["verilog"], encoding="utf-8")
                (core_dir / f"{job.isax}.scaiev.yaml").write_text(
                    outcome.result["config_yaml"], encoding="utf-8")
        else:
            reason = (outcome.error or "unknown error").splitlines()[0]
            print(f"  FAILED {job.job_id:<28} "
                  f"attempts={outcome.attempts}  {reason}")

    if args.metrics:
        metrics_path = pathlib.Path(args.metrics)
    elif out_dir is not None:
        metrics_path = out_dir / "batch_metrics.json"
    else:
        metrics_path = pathlib.Path("batch_metrics.json")
    metrics.dump(metrics_path)

    totals = metrics.phase_totals()
    print(f"{metrics.ok}/{len(jobs)} jobs ok, {metrics.cached} from cache, "
          f"{metrics.failed} failed ({args.workers} workers)")
    print("phase totals: " + "  ".join(f"{k}={v:.3f}s"
                                       for k, v in totals.items()))
    sched = metrics.scheduler_totals()
    if sched["graphs"]:
        engines = "+".join(sorted(sched["engines"]))
        print(f"scheduler: {sched['graphs']} graphs via {engines}, "
              f"{sched['components']} components, "
              f"schedule cache {sched['schedule_cache_hits']} hits / "
              f"{sched['schedule_cache_misses']} misses "
              f"({sched['schedule_cache_hit_rate']:.0%}), "
              f"solve {sched['solve_seconds']:.3f}s")
    opt_totals = metrics.optimizer_totals()
    if opt_totals["jobs"]:
        print(f"optimizer: {opt_totals['graphs']} graphs, "
              f"{opt_totals['nodes_before']} -> {opt_totals['nodes_after']} "
              f"ops (-{opt_totals['node_reduction_pct']:.1f}%), "
              f"{opt_totals['ops_removed']} removed / "
              f"{opt_totals['ops_rewritten']} rewritten "
              f"in {opt_totals['seconds']:.3f}s")
    lint_totals = metrics.lint_totals()
    if any(lint_totals.values()):
        print("lint: " + "  ".join(f"{sev}={n}"
                                   for sev, n in lint_totals.items() if n))
    if cache is not None:
        stats = cache.stats
        print(f"cache: {stats.hits} hits / {stats.misses} misses "
              f"({stats.hit_rate:.0%}), dir {cache.root}")
    print(f"wrote {metrics_path}")
    return 0 if metrics.failed == 0 else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.server import CompileServer, CompileServerApp
    from repro.service import ShardedArtifactCache

    cache = None
    if not args.no_cache:
        cache = ShardedArtifactCache(
            pathlib.Path(args.cache_dir).expanduser(),
            shards=args.cache_shards,
            per_shard_entries=args.cache_shard_entries,
        )
    core = CompileServer(
        workers=args.workers,
        backend=args.backend,
        max_queue_depth=args.queue_depth,
        retries=args.retries,
        backoff_base_s=args.backoff,
        timeout_s=args.timeout,
        disk_cache=cache,
        memory_entries=args.memory_entries,
    )
    app = CompileServerApp(core)

    async def _serve() -> None:
        host, port = await app.start(args.host, args.port)
        print(f"compile server listening on http://{host}:{port} "
              f"({args.workers} {core.backend} workers, "
              f"queue depth {args.queue_depth})")
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:     # non-UNIX event loops
                pass
        await stop.wait()
        print("draining: no new jobs accepted, waiting for "
              f"{core.open_jobs} open job(s) ...")
        await app.close(drain=True)
        counters = core.counters
        print(f"drained after {core.uptime_s:.1f}s: "
              f"{counters.completed} ok, {counters.failed} failed, "
              f"{counters.coalesced} coalesced, "
              f"{counters.cache_hits_memory + counters.cache_hits_disk} "
              f"cache hits")

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        IRVerifyError,
        lint_cross_isa,
        run_lints,
        verify_artifact_ir,
    )
    from repro.utils.diagnostics import (
        RENDERERS,
        count_by_severity,
        sort_diagnostics,
    )

    names = list(args.isax)
    if args.all_isaxes:
        names = sorted(set(names) | set(ALL_ISAXES))

    targets: List[tuple] = []           # (label, source)
    for path in args.targets:
        targets.append((path, _read_source(path)))
    for name in names:
        targets.append((f"{name}.core_desc", ALL_ISAXES[name]))
    if not targets:
        print("error: nothing to lint; pass files, --isax or --all-isaxes",
              file=sys.stderr)
        return 2

    enable = args.enable or None
    disable = args.disable or None
    diagnostics = []
    isas = []
    for label, source in targets:
        isa = elaborate(source, top=args.top, filename=label)
        isas.append(isa)
        try:
            diagnostics.extend(
                run_lints(isa, enable=enable, disable=disable))
        except ValueError as err:       # unknown rule code
            print(f"error: {err}", file=sys.stderr)
            return 2
    diagnostics.extend(lint_cross_isa(isas))

    # Optional Tier B: compile for the requested cores and run the IR
    # verifier over every produced graph, schedule and module.
    opt_options = OptOptions.from_flags(args.opt_level, _opt_flags(args))
    for core in args.core:
        datasheet = core_datasheet(core)
        for (label, _source), isa in zip(targets, isas):
            try:
                artifact = compile_isax(isa, datasheet, lint=False,
                                        verify_ir=False, opt=opt_options)
            except (CoreDSLError, ScheduleError) as err:
                from repro.utils.diagnostics import Diagnostic, Severity
                diagnostics.append(Diagnostic(
                    "IV000", Severity.ERROR,
                    f"{label} does not compile for {core}: {err}",
                    rule="compile"))
                continue
            try:
                for diag in verify_artifact_ir(artifact):
                    diagnostics.append(diag.with_note(
                        f"while verifying '{isa.name}' for {core}"))
            except IRVerifyError as err:
                diagnostics.extend(err.diagnostics)

    diagnostics = sort_diagnostics(diagnostics)
    print(RENDERERS[args.format](diagnostics))
    counts = count_by_severity(diagnostics)
    if counts["error"]:
        return 1
    if args.werror and counts["warning"]:
        return 1
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import (
        FuzzBudget,
        FuzzConfig,
        run_campaign,
        run_oracles,
    )

    if args.replay:
        source = _read_source(args.replay)
        cores = tuple(args.core) if args.core else None
        report = run_oracles(source, cores=cores, trials=args.trials,
                             cosim_seed=args.cosim_seed,
                             vcd_dir=args.out,
                             sim_engine=args.sim_engine,
                             oracles=tuple(args.oracle))
        print(report)
        for failure in report.failures:
            print(f"  {failure}")
        return 0 if report.ok else 1

    config = FuzzConfig(
        seeds=args.seeds,
        seed_start=args.seed_start,
        budget=FuzzBudget.scaled(args.budget) if args.budget else None,
        cores=tuple(args.core),
        trials=args.trials,
        cosim_seed=args.cosim_seed,
        sim_engine=args.sim_engine,
        workers=args.workers,
        out_dir=args.out,
        reduce=not args.no_reduce,
        oracles=tuple(args.oracle),
    )
    result = run_campaign(config, log=print)
    print(result)
    for outcome in result.outcomes:
        if outcome.status in ("invalid", "error"):
            print(f"  seed {outcome.seed} {outcome.status}: "
                  f"{outcome.detail.splitlines()[0]}")
    print(f"wrote {result.stats_path}")
    return 0 if result.ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.sim.cosim import verify_artifact

    if args.target in ALL_ISAXES:
        isa = elaborate(ALL_ISAXES[args.target])
    else:
        isa = elaborate(_read_source(args.target), filename=args.target)
    artifact = compile_isax(isa, core=args.core)
    report = verify_artifact(artifact, trials=args.trials,
                             seed=args.cosim_seed, vcd_dir=args.vcd_dir,
                             sim_engine=args.sim_engine)
    print(report)
    for result in report.failures:
        print(f"  {result}")
    for path in report.vcd_paths:
        print(f"wrote {path}")
    return 0 if report.passed else 1


def _cmd_datasheet(args: argparse.Namespace) -> int:
    print(core_datasheet(args.core).to_yaml(), end="")
    return 0


def _cmd_isaxes(args: argparse.Namespace) -> int:
    if args.name:
        print(ALL_ISAXES[args.name])
        return 0
    for name in ALL_ISAXES:
        print(name)
    return 0


def _cmd_table1(_args: argparse.Namespace) -> int:
    from repro.eval.tables import render_table1

    print(render_table1())
    return 0


def _cmd_table3(_args: argparse.Namespace) -> int:
    from repro.eval.tables import render_table3

    print(render_table3())
    return 0


def _cmd_table4(args: argparse.Namespace) -> int:
    from repro.eval.asic import run_table4
    from repro.eval.tables import render_table4

    table = run_table4(cores=args.cores)
    print(render_table4(table, include_paper=not args.no_paper,
                        cores=args.cores))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.sim.riscv.assembler import assemble
    from repro.sim.riscv.core_model import CoreTimingModel

    artifacts = [compile_isax(ALL_ISAXES[name], args.core)
                 for name in args.isax]
    program = pathlib.Path(args.file).read_text(encoding="utf-8")
    model = CoreTimingModel(core_datasheet(args.core), artifacts=artifacts)
    model.load_program(assemble(program, isaxes=[a.isa for a in artifacts]))
    report = model.run(max_instructions=args.max_instructions)
    print(f"core:        {args.core}"
          + (f" + {'+'.join(args.isax)}" if args.isax else ""))
    print(f"cycles:      {report.cycles}")
    print(f"instret:     {report.instret}")
    print(f"CPI:         {report.cpi:.2f}")
    print(f"stalls:      {report.stall_cycles}")
    for index in range(1, 32):
        value = report.state.read_x(index)
        if value:
            print(f"  x{index:<3} = {value:#010x}")
    for name, values in report.state.custom.items():
        shown = values[0] if len(values) == 1 else values
        print(f"  {name} = {shown if isinstance(shown, int) else shown}")
    return 0


def _cmd_discover(args: argparse.Namespace) -> int:
    from repro.discover import (DiscoveryConfig, discover, render_report,
                                write_report)
    from repro.discover.kernel import kernel_names
    from repro.service import ArtifactCache, BatchExecutor

    if args.list_kernels:
        for name in kernel_names():
            print(name)
        return 0

    params = {}
    for item in args.param:
        name, separator, value = item.partition("=")
        if not separator:
            print(f"error: --param needs NAME=VALUE, got {item!r}",
                  file=sys.stderr)
            return 2
        params[name.strip()] = int(value, 0)

    config = DiscoveryConfig(
        kernel=args.kernel,
        params=params,
        core=args.core,
        trials=args.trials,
        seed=args.cosim_seed,
        max_mem=args.max_mem,
        promote_state=not args.no_state,
        try_fold=not args.no_fold,
        budget=args.budget,
    )
    if args.server is not None:
        from repro.server.client import RemoteExecutor

        executor: Union[BatchExecutor, RemoteExecutor] = RemoteExecutor(
            args.server, priority=args.priority)
    else:
        cache = (ArtifactCache(pathlib.Path(args.cache_dir))
                 if args.cache_dir else None)
        executor = BatchExecutor(workers=args.workers, cache=cache)
    report = discover(config, executor=executor)
    print(render_report(report))
    paths = write_report(report, pathlib.Path(args.out))
    print(f"# report: {paths['report']}")
    if "winner" in paths:
        print(f"# winner: {paths['winner']}")
    return 0 if report.winner is not None else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-longnail",
        description="Longnail/CoreDSL/SCAIE-V reproduction toolchain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compile_p = sub.add_parser(
        "compile", help="compile a CoreDSL file to SystemVerilog + config"
    )
    compile_p.add_argument("file", help="CoreDSL source file (.core_desc)")
    compile_p.add_argument("--core", default="VexRiscv", metavar="CORE",
                           help="host core: " + ", ".join(ALL_CORES))
    compile_p.add_argument("--top", default=None,
                           help="InstructionSet/Core to elaborate")
    compile_p.add_argument("--engine", default="auto",
                           choices=("auto", "fastpath", "milp", "asap"),
                           help="scheduler engine (auto = fastpath)")
    compile_p.add_argument("--cycle-time", type=float, default=None,
                           help="target cycle time in ns (default: the "
                                "core's f_max)")
    compile_p.add_argument("-o", "--output", default=".",
                           help="output directory")
    _add_opt_arguments(compile_p)
    compile_p.set_defaults(func=_cmd_compile)

    batch_p = sub.add_parser(
        "batch", help="compile an (ISAX x core) grid through the batch "
                      "service with caching and per-phase metrics"
    )
    batch_p.add_argument("--isax", action="append", default=[],
                         choices=sorted(ALL_ISAXES), metavar="ISAX",
                         help="ISAX to include (repeatable; default: all "
                              + str(len(ALL_ISAXES)) + ")")
    batch_p.add_argument("--core", action="append", default=[],
                         choices=ALL_CORES, metavar="CORE",
                         help="host core to include (repeatable; default: "
                              "all " + str(len(ALL_CORES)) + ")")
    batch_p.add_argument("--manifest", default=None,
                         help="YAML manifest describing the grid/job list "
                              "(overrides --isax/--core)")
    batch_p.add_argument("--cycle-scale", action="append", type=float,
                         default=[], metavar="S",
                         help="scale each core's cycle time by S "
                              "(repeatable; default: native f_max)")
    batch_p.add_argument("--engine", default="auto",
                         choices=("auto", "fastpath", "milp", "asap"))
    batch_p.add_argument("--workers", type=int, default=2,
                         help="worker processes (<=1: in-process serial)")
    batch_p.add_argument("--timeout", type=float, default=None,
                         help="per-job timeout in seconds (pooled runs, "
                              "--workers > 1)")
    batch_p.add_argument("--retries", type=int, default=1,
                         help="retries per failed job (default 1)")
    batch_p.add_argument("--backoff", type=float, default=0.05,
                         metavar="S",
                         help="base retry backoff in seconds, doubled per "
                              "round with deterministic jitter (default "
                              "0.05; 0 disables)")
    batch_p.add_argument("--cache-dir", default=str(_default_cache_dir()),
                         help="artifact cache directory")
    batch_p.add_argument("--no-cache", action="store_true",
                         help="disable the artifact cache")
    batch_p.add_argument("-o", "--output", default=None,
                         help="write <core>/<isax>.sv + .scaiev.yaml here")
    batch_p.add_argument("--metrics", default=None,
                         help="per-phase timing JSON path (default: "
                              "<output>/batch_metrics.json)")
    _add_opt_arguments(batch_p)
    batch_p.set_defaults(func=_cmd_batch)

    serve_p = sub.add_parser(
        "serve", help="run the long-lived compile server (HTTP/JSON API "
                      "with request coalescing, priority queues, "
                      "back-pressure and streaming job events)"
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8080,
                         help="TCP port (0 picks a free one; default 8080)")
    serve_p.add_argument("--workers", type=int, default=2,
                         help="concurrent executions (default 2)")
    serve_p.add_argument("--backend", default="auto",
                         choices=("auto", "thread", "process"),
                         help="execution pool (auto: process when "
                              "--workers > 1)")
    serve_p.add_argument("--queue-depth", type=int, default=256,
                         help="bounded queue depth; beyond it submissions "
                              "are rejected with HTTP 429 (default 256)")
    serve_p.add_argument("--retries", type=int, default=1,
                         help="retries per failed job (default 1)")
    serve_p.add_argument("--backoff", type=float, default=0.05,
                         metavar="S",
                         help="base retry backoff seconds (default 0.05)")
    serve_p.add_argument("--timeout", type=float, default=None,
                         help="per-job execution timeout in seconds")
    serve_p.add_argument("--cache-dir", default=str(_default_cache_dir()),
                         help="sharded artifact cache directory")
    serve_p.add_argument("--no-cache", action="store_true",
                         help="disable the on-disk artifact cache")
    serve_p.add_argument("--cache-shards", type=int, default=8,
                         help="number of disk cache shards (default 8)")
    serve_p.add_argument("--cache-shard-entries", type=int, default=None,
                         metavar="N",
                         help="eviction budget per shard (default "
                              "unbounded)")
    serve_p.add_argument("--memory-entries", type=int, default=2048,
                         help="in-memory warm-tier entries (default 2048; "
                              "0 disables)")
    serve_p.set_defaults(func=_cmd_serve)

    lint_p = sub.add_parser(
        "lint", help="run the CoreDSL lint rules (and, with --core, the "
                     "IR verifier) over sources or benchmark ISAXes"
    )
    lint_p.add_argument("targets", nargs="*", metavar="FILE",
                        help="CoreDSL source files (.core_desc)")
    lint_p.add_argument("--isax", action="append", default=[],
                        choices=sorted(ALL_ISAXES), metavar="ISAX",
                        help="lint a benchmark ISAX (repeatable)")
    lint_p.add_argument("--all-isaxes", action="store_true",
                        help="lint all " + str(len(ALL_ISAXES))
                             + " benchmark ISAXes")
    lint_p.add_argument("--core", action="append", default=[],
                        choices=ALL_CORES, metavar="CORE",
                        help="also compile for CORE and run the IR "
                             "verifier (repeatable)")
    lint_p.add_argument("--top", default=None,
                        help="InstructionSet/Core to elaborate")
    lint_p.add_argument("--format", default="text",
                        choices=("text", "json", "sarif"),
                        help="output format (default: text)")
    lint_p.add_argument("--werror", action="store_true",
                        help="exit non-zero on warnings, not just errors")
    lint_p.add_argument("--enable", action="append", default=[],
                        metavar="CODE",
                        help="run only these rule codes (repeatable)")
    lint_p.add_argument("--disable", action="append", default=[],
                        metavar="CODE",
                        help="skip these rule codes (repeatable)")
    _add_opt_arguments(lint_p)
    lint_p.set_defaults(func=_cmd_lint)

    fuzz_p = sub.add_parser(
        "fuzz", help="generative differential verification: random "
                     "well-typed CoreDSL programs through the oracle stack"
    )
    fuzz_p.add_argument("--seeds", type=int, default=50,
                        help="number of random programs (default 50)")
    fuzz_p.add_argument("--seed-start", type=int, default=0,
                        help="first seed (campaigns are reproducible by "
                             "seed range)")
    fuzz_p.add_argument("--budget", type=int, default=0, metavar="N",
                        help="program size budget: statements per behavior "
                             "(0 = the default budget)")
    fuzz_p.add_argument("--core", action="append", default=[],
                        choices=ALL_CORES, metavar="CORE",
                        help="core to differentially test (repeatable; "
                             "default: the four Table 4 cores)")
    fuzz_p.add_argument("--workers", type=int, default=1,
                        help="worker processes (<=1: in-process serial)")
    fuzz_p.add_argument("--trials", type=int, default=8,
                        help="cosim trials per program and core (default 8)")
    fuzz_p.add_argument("--cosim-seed", type=int, default=0,
                        help="RNG seed for co-simulation stimulus")
    fuzz_p.add_argument("--sim-engine", default="auto",
                        choices=SIM_ENGINES,
                        help="RTL simulation engine for the cosim oracle "
                             "(auto = compiled with interpreter fallback; "
                             "batched = retired name of compiled)")
    fuzz_p.add_argument("-o", "--out", default="fuzz-out",
                        help="corpus/stats directory (default fuzz-out)")
    fuzz_p.add_argument("--no-reduce", action="store_true",
                        help="skip delta-debugging of failing programs")
    fuzz_p.add_argument("--replay", default=None, metavar="FILE",
                        help="re-run the oracle stack on a saved "
                             "reproducer instead of fuzzing")
    fuzz_p.add_argument("--oracle", action="append", default=[],
                        choices=ORACLE_CHOICES, metavar="KIND",
                        help="oracle to run (repeatable; default: "
                             + ", ".join(DEFAULT_ORACLES)
                             + "; 'milp' adds the HiGHS re-solve of every "
                             "schedule; 'optequiv' adds -O2 "
                             "optimized-vs-unoptimized trace equivalence; "
                             "'all' enables everything)")
    fuzz_p.set_defaults(func=_cmd_fuzz)

    verify_p = sub.add_parser(
        "verify", help="co-simulate one ISAX: CoreDSL interpreter vs "
                       "generated RTL on random stimulus"
    )
    verify_p.add_argument("target",
                          help="benchmark ISAX name or .core_desc file")
    verify_p.add_argument("--core", default="VexRiscv", metavar="CORE",
                          help="host core: " + ", ".join(ALL_CORES))
    verify_p.add_argument("--trials", type=int, default=25)
    verify_p.add_argument("--cosim-seed", type=int, default=0,
                          help="RNG seed for the stimulus (printed in the "
                               "report line for reproducibility)")
    verify_p.add_argument("--vcd-dir", default=None,
                          help="dump a VCD waveform per failing trial here")
    verify_p.add_argument("--sim-engine", default="auto",
                          choices=SIM_ENGINES,
                          help="RTL simulation engine (auto = compiled "
                               "with interpreter fallback; batched = "
                               "retired name of compiled)")
    verify_p.set_defaults(func=_cmd_verify)

    datasheet_p = sub.add_parser(
        "datasheet", help="print a core's virtual datasheet (YAML)"
    )
    datasheet_p.add_argument("core", choices=CORES)
    datasheet_p.set_defaults(func=_cmd_datasheet)

    isaxes_p = sub.add_parser(
        "isaxes", help="list the Table 3 benchmark ISAXes / print a source"
    )
    isaxes_p.add_argument("name", nargs="?", choices=sorted(ALL_ISAXES))
    isaxes_p.set_defaults(func=_cmd_isaxes)

    sub.add_parser("table1", help="print Table 1").set_defaults(
        func=_cmd_table1)
    sub.add_parser("table3", help="print Table 3").set_defaults(
        func=_cmd_table3)
    table4_p = sub.add_parser("table4", help="regenerate Table 4")
    table4_p.add_argument("--cores", nargs="+", default=list(CORES),
                          choices=CORES)
    table4_p.add_argument("--no-paper", action="store_true",
                          help="omit the paper's reference numbers")
    table4_p.set_defaults(func=_cmd_table4)

    simulate_p = sub.add_parser(
        "simulate", help="assemble and run a program on a core timing model"
    )
    simulate_p.add_argument("file", help="assembly source file")
    simulate_p.add_argument("--core", default="VexRiscv", choices=CORES)
    simulate_p.add_argument("--isax", action="append", default=[],
                            choices=sorted(ALL_ISAXES),
                            help="integrate a benchmark ISAX (repeatable)")
    simulate_p.add_argument("--max-instructions", type=int,
                            default=1_000_000)
    simulate_p.set_defaults(func=_cmd_simulate)

    discover_p = sub.add_parser(
        "discover", help="mine candidate custom instructions from a loop "
                         "kernel and price them with the real toolchain"
    )
    discover_p.add_argument("--kernel", default="array_sum",
                            help="registered kernel fixture (see "
                                 "--list-kernels; default array_sum)")
    discover_p.add_argument("--list-kernels", action="store_true",
                            help="list registered kernels and exit")
    discover_p.add_argument("--param", action="append", default=[],
                            metavar="NAME=VALUE",
                            help="kernel parameter, e.g. n=64 "
                                 "(repeatable)")
    discover_p.add_argument("--core", default="VexRiscv",
                            choices=ALL_CORES, metavar="CORE",
                            help="host core (default VexRiscv)")
    discover_p.add_argument("--budget", type=int, default=24,
                            help="max candidate variants to price "
                                 "(default 24)")
    discover_p.add_argument("--trials", type=int, default=5,
                            help="cosim trials per candidate (default 5)")
    discover_p.add_argument("--cosim-seed", type=int, default=0,
                            help="RNG seed for the cosim gate")
    discover_p.add_argument("--max-mem", type=int, default=1,
                            help="memory ops per candidate (SCAIE-V "
                                 "allows one RdMem; default 1)")
    discover_p.add_argument("--no-fold", action="store_true",
                            help="skip the zero-overhead-loop variants")
    discover_p.add_argument("--no-state", action="store_true",
                            help="disable custom-state promotion of "
                                 "loop carries")
    discover_p.add_argument("--workers", type=int, default=1,
                            help="pricing worker processes (<=1: "
                                 "in-process serial)")
    discover_p.add_argument("--cache-dir",
                            default=str(_default_cache_dir()),
                            help="artifact cache for priced candidates")
    discover_p.add_argument("--server", default=None, metavar="URL",
                            help="price candidates through a running "
                                 "compile server instead")
    discover_p.add_argument("--priority", default="batch",
                            choices=("interactive", "batch", "background"),
                            help="server queue priority (with --server)")
    discover_p.add_argument("-o", "--out", default="build/discover",
                            help="report + winning .core_desc directory "
                                 "(default build/discover)")
    discover_p.set_defaults(func=_cmd_discover)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CoreDSLError, ScheduleError, FileNotFoundError, KeyError) as err:
        message = err.args[0] if isinstance(err, KeyError) and err.args \
            else err
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
