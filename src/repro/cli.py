"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    Simulate one 3-D FFT (any variant/platform/size) and print the time
    and per-step breakdown.
``app``
    Run a traffic-shaped application workload (spectral Poisson solve,
    3-D convolution, turbulence-style time-stepper) for N steps with
    plan/wisdom reuse, reporting steady-state transforms/sec (warmup
    excluded), per-step p50/p95, and a numerics check vs a serial
    oracle; tuned params come from ``--params``, ``--plan-server``, a
    local ``--budget`` tuning session, or the variant baseline.
``tune``
    Auto-tune a variant for a setting; prints the winning configuration,
    objective, and tuning cost.
``sweep``
    One-parameter ablation sweep (tile size, window, test frequency...).
``random``
    Figure-5-style random-configuration CDF.
``grid``
    Evaluate a Table-2 style benchmark grid, optionally sharded over
    worker processes (``--jobs``) with an on-disk result store — or
    distributed: ``--serve [HOST:PORT]`` starts a coordinator and
    ``--workers local,local`` (or ssh hosts) launches a fleet against
    it; stores come out byte-identical to a local run.
``worker``
    Join a ``grid --serve`` coordinator as a worker: lease cells,
    evaluate them on a local pool, ship results back.
``top``
    Live terminal dashboard for a running ``grid --serve`` coordinator:
    queue depth, lease ages, per-worker heartbeat lag, throughput and
    fleet-wide metric totals, polled from ``/status`` + ``/metrics``.
``trace``
    Replay a saved trace (JSONL or Chrome JSON) as an ASCII gantt;
    ``--out FILE`` re-exports it (JSONL <-> Chrome conversion).
``calibrate``
    Machine-model calibration against the paper's published numbers.
``platforms``
    List available platform models.

``tune``, ``sweep`` and ``grid`` accept ``--eval-store PATH``: a shared
JSONL pool of every timed configuration (see
:mod:`repro.tuning.evalstore`) is loaded before the command and
atomically merge-saved after it, so repeated or cross-strategy
invocations answer known configurations for free.

``run``, ``sweep`` and ``grid`` accept ``--trace FILE``: the run is
executed under a :mod:`repro.obs` tracer and the result written as a
Chrome trace-event JSON (``.json``, Perfetto-viewable) or a JSONL event
log (``.jsonl``, replayable with ``repro trace``).  ``grid``/``sweep``
render a live per-cell progress line with ETA on stderr.

``run`` and ``grid`` accept ``--profile [FILE]``: the command body runs
under cProfile and the top-25 cumulative functions are printed to
stderr (host time, complementing ``--trace``'s virtual time); with a
``FILE`` the full pstats dump is written there too.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time
from contextlib import contextmanager

from .core.api import BREAKDOWN_LABELS, run_case
from .core.params import ProblemShape, TuningParams
from .core.variants import VARIANTS, get_variant
from .machine.platforms import PLATFORMS, get_platform
from .report.ascii import format_table
from .report.cdf import format_cdf, summarize_cdf


def _variant_name(text: str) -> str:
    """``-v/--variant`` type: the name of a known variant, so an unknown
    one is an argparse error (exit 2), not a traceback."""
    try:
        return get_variant(text).name
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None


def _platform_name(text: str) -> str:
    """``-m/--machine`` type: the name of a known platform, so an unknown
    one is an argparse error (exit 2), not a traceback."""
    try:
        return get_platform(text).name
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None


def _add_setting_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("-n", "--size", type=int, default=256,
                   help="array extent N (N^3 elements)")
    p.add_argument("-p", "--procs", type=int, default=16,
                   help="number of simulated ranks")
    p.add_argument("-m", "--machine", type=_platform_name,
                   default="UMD-Cluster",
                   help="platform model (see `platforms`)")
    p.add_argument("-v", "--variant", type=_variant_name, default="NEW",
                   help=f"method: {', '.join(sorted(VARIANTS))}")


def _add_jobs_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "-j", "--jobs", type=int, default=None,
        help="worker processes (0 = all cores; default: $REPRO_JOBS or 1)",
    )
    p.add_argument(
        "--no-progress", action="store_true",
        help="suppress the live progress line on stderr",
    )


def _add_trace_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a trace: .jsonl = event log (replayable with "
             "`repro trace`), anything else = Chrome trace-event JSON "
             "(open in Perfetto)",
    )


def _add_faults_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="inject deterministic faults into the simulated machine, "
             "e.g. 'straggler:rank=3,slow=2.0;jitter:amp=2e-6;seed:42' "
             "(kinds: straggler, degrade, jitter, spike, poll, seed)",
    )


@contextmanager
def _maybe_faults(args):
    """Install the ``--faults`` spec ambiently for the command body, so
    every simulation it runs — including in pool workers — sees the
    same degraded machine."""
    text = getattr(args, "faults", None)
    if not text:
        yield None
        return
    from .errors import FaultSpecError
    from .faults import injected_faults, parse_faults

    try:
        spec = parse_faults(text)
    except FaultSpecError as exc:
        raise SystemExit(f"error: {exc}")
    with injected_faults(spec):
        yield spec


@contextmanager
def _maybe_trace(args, rank_spans: bool):
    """Install a tracer and a fresh metrics registry for the command body
    when ``--trace`` was given, and export both on the way out (the
    registry's snapshot rides in the trace's metadata)."""
    path = getattr(args, "trace", None)
    if not path:
        yield None
        return
    from .obs import Tracer, scoped_registry, tracing, write_trace

    meta = {"command": args.command, "argv": " ".join(sys.argv[1:])}
    with scoped_registry() as registry, \
            tracing(Tracer(rank_spans=rank_spans, meta=meta)) as tracer:
        yield tracer
    n = write_trace(tracer, path, registry)
    print(f"trace: {n} records -> {path}")


def _add_profile_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--profile", metavar="FILE", nargs="?", const="-", default=None,
        help="profile the command under cProfile and print the top 25 "
             "functions by cumulative host time to stderr; with FILE, "
             "also write the full pstats dump there (parent process "
             "only — pool workers are not profiled)",
    )


@contextmanager
def _maybe_profile(args):
    """Run the command body under cProfile when ``--profile`` was given.

    Prints the top-25 cumulative functions to stderr — the host-time
    view of where a simulation spends itself (the virtual-time view is
    ``--trace``).  Never wraps the report printing, so profiling cannot
    change command output.
    """
    target = getattr(args, "profile", None)
    if target is None:
        yield None
        return
    import cProfile
    import io
    import pstats

    prof = cProfile.Profile()
    prof.enable()
    try:
        yield prof
    finally:
        prof.disable()
        if target != "-":
            prof.dump_stats(target)
            print(f"profile: full pstats dump -> {target}", file=sys.stderr)
        buf = io.StringIO()
        pstats.Stats(prof, stream=buf).sort_stats("cumulative").print_stats(25)
        print(buf.getvalue(), file=sys.stderr, end="")


def _progress(args):
    """The live per-cell progress renderer (None when suppressed)."""
    if getattr(args, "no_progress", False):
        return None
    from .obs import ProgressLine

    return ProgressLine()


def _add_eval_store_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--eval-store", metavar="PATH", default=None,
        help="shared evaluation store (JSONL): answer already-timed "
             "configurations for free and record new ones (atomic "
             "merge-save, shared across strategies/commands/runs)",
    )


def _load_eval_store(args):
    """The shared evaluation store named by ``--eval-store`` (or None)."""
    if getattr(args, "eval_store", None) is None:
        return None
    from .tuning.evalstore import EvalStore

    return EvalStore.load(args.eval_store)


@contextmanager
def _counting_hits():
    """Count the command body's eval-store hits: yields a callable that
    returns the summary's hit phrase, from the ``tune_store_hits_total``
    counted since entry into the installed registry (``--trace``'s), or
    into a fresh one for the block when none is installed.  With the
    metrics gate off (``REPRO_METRICS=0``) nothing is counted, so the
    phrase says so instead of reporting 0 hits."""
    from .obs.registry import metrics_enabled, run_registry

    def phrase() -> str:
        if not metrics_enabled():
            return "hits not counted (REPRO_METRICS=0)"
        return f"{int(reg.total('tune_store_hits_total') - before)} hits"

    with run_registry() as reg:
        before = reg.total("tune_store_hits_total")
        yield phrase


def _save_eval_store(args, store, hits: str) -> None:
    """Merge-save the store back and print its hit/record summary."""
    if store is None:
        return
    n = store.save(args.eval_store)
    print(f"eval store: {hits}, {store.new_records} new "
          f"evaluations, {n} records -> {args.eval_store}")


def _add_token_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--token", metavar="SECRET", default=None,
        help="bearer token for the coordinator/plan server (default: "
             "$REPRO_DIST_TOKEN; omit entirely to disable auth)",
    )


def _resolve_token(args) -> str | None:
    """``--token``, falling back to ``$REPRO_DIST_TOKEN`` (how spawned
    local fleet workers inherit the coordinator's token)."""
    return getattr(args, "token", None) or os.environ.get(
        "REPRO_DIST_TOKEN") or None


def _shape(args) -> ProblemShape:
    return ProblemShape(args.size, args.size, args.size, args.procs)


def _parse_params(text: str | None) -> TuningParams | None:
    """Parse 'T=32,W=2,...' into a TuningParams (missing keys error)."""
    if not text:
        return None
    fields = {}
    for item in text.split(","):
        key, _, value = item.partition("=")
        fields[key.strip()] = int(value)
    return TuningParams(**fields)


def _print_overlap(sim) -> None:
    """One-line overlap summary under a run's breakdown table."""
    from .obs import run_metrics

    m = run_metrics(sim)
    print(f"overlap: {m['overlap_efficiency_pct']:.1f}% of the exchange "
          f"window covered by compute; exposed comm "
          f"{m['exposed_comm_s']:.4f} s")
    if m.get("faults"):
        print(f"faults: {m['faults']}")


def cmd_run(args) -> int:
    """``repro run``: simulate one FFT and print the breakdown."""
    if args.decomposition == "pencil":
        given = [flag for flag, used in (
            ("--real", args.real),
            ("--params", args.params is not None),
            ("-v/--variant", args.variant is not None),
        ) if used]
        if given:
            print(f"error: --decomposition pencil does not take "
                  f"{', '.join(given)} (pencil runs are c2c, with one "
                  f"fixed schedule)", file=sys.stderr)
            return 2
    variant = args.variant or "NEW"
    platform = get_platform(args.machine)
    shape = _shape(args)
    with _maybe_faults(args), _maybe_trace(args, rank_spans=True), \
            _maybe_profile(args):
        if args.decomposition == "pencil":
            from .core.pencil import PencilFFT3D
            from .simmpi.spmd import run_spmd

            def prog(ctx):
                plan = PencilFFT3D(ctx, (args.size, args.size, args.size))
                yield from plan.steps(None)

            sim = run_spmd(args.procs, prog, platform)
            print(f"pencil FFT on {platform.name}: N={args.size}^3, p={args.procs}")
            print(f"simulated time: {sim.elapsed:.4f} s")
            rows = [[k, v] for k, v in sorted(sim.breakdown().items())]
            print(format_table(["step", "seconds"], rows))
            return 0
        if args.real:
            from .core.realfft3d import ParallelRFFT3D
            from .simmpi.spmd import run_spmd

            spec = get_variant(variant)

            def prog(ctx):
                yield from ParallelRFFT3D(
                    ctx, shape, _parse_params(args.params), spec
                ).steps(None)

            sim = run_spmd(args.procs, prog, platform)
            print(f"r2c FFT on {platform.name}: N={args.size}^3, p={args.procs}")
            print(f"simulated time: {sim.elapsed:.4f} s")
            return 0
        result, _ = run_case(
            variant, platform, shape, _parse_params(args.params)
        )
        print(f"{result.variant} on {result.platform}: "
              f"N={args.size}^3, p={args.procs}")
        print(f"simulated time: {result.elapsed:.4f} s")
        rows = [
            [label, secs, 100.0 * secs / result.elapsed]
            for label, secs in result.breakdown.items()
            if label in BREAKDOWN_LABELS
        ]
        print(format_table(["step", "seconds", "% of total"], rows))
        if result.sim is not None:
            _print_overlap(result.sim)
        return 0


def cmd_multi(args) -> int:
    """``repro multi``: compare the four multi-array overlap modes."""
    from .core.multiarray import MODES, run_multi_array

    platform = get_platform(args.machine)
    shape = _shape(args)
    rows = []
    for mode in MODES:
        sim, _ = run_multi_array(platform, shape, args.arrays, mode)
        rows.append([mode, sim.elapsed, sim.elapsed / args.arrays])
    print(format_table(
        ["mode", "total (s)", "per array (s)"],
        rows,
        title=f"{args.arrays} successive FFTs on {platform.name}"
              f" (N={args.size}^3, p={args.procs})",
    ))
    return 0


def cmd_app(args) -> int:
    """``repro app``: run a traffic-shaped application workload."""
    from .apps import APPS, AppConfig
    from .errors import (
        DistProtocolError,
        DistUnreachableError,
        ItemTimeoutError,
        ParameterError,
    )

    platform = get_platform(args.machine)
    if args.shape:
        try:
            nx, ny, nz = (int(v) for v in args.shape.split(","))
        except ValueError:
            raise SystemExit("error: --shape expects NX,NY,NZ")
        shape = ProblemShape(nx, ny, nz, args.procs)
    else:
        shape = _shape(args)
    evals = _load_eval_store(args)
    try:
        cfg = AppConfig(
            shape=shape, platform=platform, variant=args.variant,
            steps=args.steps, warmup=args.warmup, seed=args.seed,
            params=_parse_params(args.params),
            plan_server=args.plan_server, tenant=args.tenant,
            token=_resolve_token(args), budget=args.budget,
            eval_store=evals, plan_effort=args.plan_effort,
        )
    except ParameterError as exc:  # an odd Nz, a bad step count
        raise SystemExit(f"error: {exc}")
    with _maybe_faults(args), _maybe_trace(args, rank_spans=False), \
            _counting_hits() as hits:
        try:
            result = APPS[args.app](cfg).run()
        except (DistUnreachableError, DistProtocolError,
                ItemTimeoutError) as exc:
            raise SystemExit(f"error: {exc}")
    _save_eval_store(args, evals, hits())

    if args.json:
        import json

        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
        return 0 if result.numerics_ok else 1

    plan = result.plan
    print(f"{result.app} on {platform.name}: "
          f"{shape.nx}x{shape.ny}x{shape.nz}, p={shape.p}, {result.variant}")
    if plan.source == "server":
        print(f"plan: {plan.source} ({args.plan_server}), "
              f"{plan.sim_runs} local simulations, "
              f"{plan.wall_s:.3f} s fetch, "
              f"provenance {plan.provenance.get('source', '?')}")
    elif plan.source == "tuned":
        print(f"plan: locally tuned, {plan.sim_runs} simulations, "
              f"{plan.wall_s:.2f} s")
    else:
        print(f"plan: {plan.source}")
    print(f"steps: {result.steps} measured + {result.warmup} warmup, "
          f"{result.transforms_per_step} transforms/step")
    print(f"steady-state: {result.transforms_per_sec:.1f} transforms/s "
          f"(warmup excluded); per-step p50 {result.step_p50_s * 1e3:.2f} ms, "
          f"p95 {result.step_p95_s * 1e3:.2f} ms")
    print(f"plan-reuse speedup: {result.plan_reuse_speedup:.2f}x "
          f"(first step {result.first_step_s * 1e3:.2f} ms)")
    print(f"virtual time: {result.virtual_step_s * 1e3:.2f} ms/step")
    status = "ok" if result.numerics_ok else "FAIL"
    print(f"numerics: max rel error {result.numerics_error:.2e} vs serial "
          f"oracle (tol {result.numerics_tol:g}) -- {status}")
    return 0 if result.numerics_ok else 1


def cmd_tune(args) -> int:
    """``repro tune``: auto-tune a variant and print the winner."""
    from .tuning.tuner import autotune

    platform = get_platform(args.machine)
    evals = _load_eval_store(args)
    with _counting_hits() as hits:
        result = autotune(
            args.variant, platform, _shape(args), max_evaluations=args.budget,
            strategy=args.strategy, eval_store=evals,
        )
    print(f"tuned {result.variant} on {result.platform}: "
          f"N={args.size}^3, p={args.procs}")
    print(f"  FFT time       : {result.fft_time:.4f} s")
    print(f"  objective      : {result.best_objective:.4f} s "
          f"(FFTz/Transpose excluded)")
    print(f"  evaluations    : {result.evaluations} "
          f"({result.session.executed_evaluations} executed)")
    print(f"  tuning time    : {result.tuning_time:.1f} simulated s")
    print(f"  configuration  : {result.best_params.as_dict()}")
    _save_eval_store(args, evals, hits())
    return 0


def cmd_sweep(args) -> int:
    """``repro sweep``: one-parameter ablation table."""
    from .tuning.gridsearch import sweep_parameter

    platform = get_platform(args.machine)
    evals = _load_eval_store(args)
    with _maybe_faults(args), _maybe_trace(args, rank_spans=False), \
            _counting_hits() as hits:
        pts = sweep_parameter(
            args.variant, platform, _shape(args), args.name, jobs=args.jobs,
            progress=_progress(args), eval_store=evals,
        )
    _save_eval_store(args, evals, hits())
    print(format_table(
        [args.name, "time (s)"],
        [[p.value, p.objective] for p in pts],
        title=f"sweep of {args.name} ({args.variant}, {platform.name}, "
              f"N={args.size}^3, p={args.procs})",
    ))
    return 0


def cmd_random(args) -> int:
    """``repro random``: Figure-5-style random-configuration CDF."""
    from .tuning.random_search import random_search

    platform = get_platform(args.machine)
    rs = random_search(
        args.variant, platform, _shape(args),
        n_samples=args.samples, seed=args.seed, jobs=args.jobs,
    )
    print(format_cdf(rs.times))
    stats = summarize_cdf(rs.times)
    print(format_table(
        ["min", "median", "max", "max/min"],
        [[stats["min"], stats["median"], stats["max"], stats["spread"]]],
    ))
    return 0


def cmd_grid(args) -> int:
    """``repro grid``: evaluate a benchmark grid of (p, N) cells."""
    from .bench.workloads import VARIANT_ORDER
    from .exec import run_grid

    cells = []
    try:
        for spec_str in args.cells.split(";"):
            p_str, _, n_str = spec_str.partition(":")
            for n in n_str.split(","):
                cells.append((int(p_str), int(n)))
    except ValueError:
        print(f"error: bad --cells {args.cells!r}; expected 'p:N,N,...;p:N,...'"
              " (e.g. '16:256,384;32:256')", file=sys.stderr)
        return 2
    from .errors import GridInterrupted

    dispatch, dist_cfg = "local", None
    if args.serve is not None or args.workers:
        from .dist import DistConfig

        dispatch = "dist"
        addr = args.serve if args.serve is not None else "127.0.0.1:0"
        host, _, port_str = addr.partition(":")
        try:
            port = int(port_str) if port_str else 0
        except ValueError:
            print(f"error: bad --serve address {addr!r}; expected HOST[:PORT]",
                  file=sys.stderr)
            return 2
        dist_cfg = DistConfig(
            host=host or "127.0.0.1", port=port,
            workers=args.workers or "", worker_jobs=args.worker_jobs,
            lease_ttl=args.lease_ttl, trace_dir=args.trace_dir,
            token=_resolve_token(args),
            announce=lambda url: print(f"coordinator serving at {url}",
                                       file=sys.stderr, flush=True),
        )
    line = _progress(args)
    try:
        with _maybe_faults(args) as spec, \
                _maybe_trace(args, rank_spans=False), _maybe_profile(args), \
                _counting_hits() as hits:
            results, evals = run_grid(
                args.machine, cells,
                jobs=args.jobs, max_evaluations=args.budget,
                store_dir=args.store,
                progress=line, eval_store_path=args.eval_store,
                dispatch=dispatch, dist=dist_cfg,
                note=None if line is None else line.set_note,
            )
    except GridInterrupted as exc:
        if line is not None:
            line.close()
        print(f"error: {exc}", file=sys.stderr)
        for (p, n), err in sorted(exc.failures.items()):
            print(f"  p{p} N{n}: {err}", file=sys.stderr)
        if args.store:
            already = len(exc.completed) - len(exc.salvaged)
            resumed = f" ({already} were already stored)" if already else ""
            print(f"{len(exc.salvaged)} newly completed cell(s) saved to "
                  f"{args.store}{resumed}; re-run the same command to resume",
                  file=sys.stderr)
        return 3
    if spec is not None:
        print(f"faults: {spec.key()}")
    if evals is not None:
        print(f"eval store: {hits()}, {evals.new_records} new "
              f"evaluations, {len(evals)} records -> {args.eval_store}")
    rows = []
    for cell in results:
        rows.append(
            [cell.p, cell.n]
            + [cell.times[v] for v in VARIANT_ORDER]
            + [cell.speedup("NEW")]
        )
    print(format_table(
        ["p", "N"] + list(VARIANT_ORDER) + ["NEW speedup"],
        rows,
        title=f"grid on {args.machine} (budget={args.budget}, "
              f"jobs={args.jobs if args.jobs is not None else 'auto'})",
    ))
    overlap_rows = [
        [cell.p, cell.n, variant,
         cell.metrics[variant]["overlap_efficiency_pct"],
         cell.metrics[variant]["exposed_comm_s"],
         cell.metrics[variant].get("test_calls_per_rank", 0)]
        for cell in results
        for variant in VARIANT_ORDER
        if variant in cell.metrics
    ]
    if overlap_rows:
        print()
        print(format_table(
            ["p", "N", "variant", "overlap eff %", "exposed comm (s)",
             "tests/rank"],
            overlap_rows,
            title="overlap summary (tuned full runs)",
        ))
    return 0


def cmd_worker(args) -> int:
    """``repro worker``: serve a ``grid --serve`` coordinator."""
    from .dist import run_worker
    from .errors import DistError

    try:
        stats = run_worker(
            args.coordinator,
            jobs=args.jobs,
            max_cells=args.max_cells,
            poll_s=args.poll,
            progress=_progress(args),
            token=_resolve_token(args),
        )
    except DistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        print("worker interrupted; leased cells will expire and requeue",
              file=sys.stderr)
        return 130
    print(f"worker {stats.worker}: {stats.cells_done} cell(s) evaluated, "
          f"{stats.cells_failed} failed, over {stats.leases} lease(s)")
    return 0


def cmd_serve(args) -> int:
    """``repro serve``: long-lived tuned-plan server (DESIGN.md §5.13)."""
    import signal

    from .serve import PlanServer, ServeConfig

    host, _, port_text = args.bind.partition(":")
    try:
        port = int(port_text) if port_text else 0
    except ValueError:
        print(f"error: bad --bind port {port_text!r}", file=sys.stderr)
        return 2
    config = ServeConfig(
        host=host or "127.0.0.1",
        port=port,
        root=args.root,
        token=_resolve_token(args),
        workers=args.workers or "",
        worker_jobs=args.worker_jobs,
        lease_ttl=args.lease_ttl,
        job_threads=args.job_threads,
        default_budget=args.budget,
        journal=not args.no_journal,
        drain_timeout=args.drain_timeout,
        job_timeout=args.job_timeout,
    )
    # SIGTERM (supervisors) and SIGINT (ctrl-C) both take the graceful
    # path: flip readiness, let active jobs finish up to --drain-timeout,
    # journal survivors as interrupted for the next incarnation to
    # replay.  Installed before the server binds so a signal racing
    # startup still drains instead of dying on the default disposition.
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())

    server = PlanServer(config)
    url = server.start()
    mode = (f"fleet: {config.workers}" if config.workers
            else "in-process tuning")
    auth = "bearer-token auth" if config.token else "auth disabled"
    # flush=True throughout: subprocess harnesses (chaos tests, the
    # recovery benchmark) parse the URL from a pipe before any newline
    # pressure would flush it naturally
    print(f"plan server listening on {url} ({mode}, {auth})", flush=True)
    print(f"  stores under {args.root}/<tenant>/ ; "
          f"POST {url}/plan , GET {url}/status , GET {url}/metrics , "
          f"GET {url}/healthz", flush=True)
    if server.recovered_jobs:
        print(f"  recovered {server.recovered_jobs} interrupted job(s) "
              f"from the journal", flush=True)

    while not stop.is_set():
        stop.wait(1.0)
    print(f"\nplan server draining (up to {config.drain_timeout:g}s)...",
          file=sys.stderr, flush=True)
    outcome = server.drain()
    if outcome["drained"]:
        print("plan server drained cleanly; all jobs journaled final",
              file=sys.stderr, flush=True)
    else:
        ids = ", ".join(outcome["interrupted"])
        print(f"drain timeout expired; journaled as interrupted: {ids}",
              file=sys.stderr, flush=True)
    return 0


def cmd_top(args) -> int:
    """``repro top``: live dashboard for a running coordinator."""
    from .obs import TopDashboard

    dash = TopDashboard(
        args.coordinator, interval=args.interval, max_polls=args.polls,
        token=_resolve_token(args),
    )
    try:
        return dash.run()
    except KeyboardInterrupt:
        print(file=sys.stderr)
        return 130


def cmd_trace(args) -> int:
    """``repro trace``: replay a saved trace as an ASCII gantt."""
    from .obs import load_trace, rank_timelines
    from .report.gantt import render_traces
    from .simmpi.engine import RankTrace

    try:
        tracer = load_trace(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {args.file!r}: {exc}", file=sys.stderr)
        return 2
    if args.out:
        from .obs import write_trace

        try:
            n = write_trace(tracer, args.out)
        except OSError as exc:
            print(f"error: cannot write trace {args.out!r}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"trace: {n} records -> {args.out}")
        return 0
    timelines, total = rank_timelines(tracer)
    if timelines and total > 0:
        traces = [RankTrace(events=events) for events in timelines]
        print(render_traces(traces, total, width=args.width,
                            max_ranks=args.max_ranks))
        print(f"({len(timelines)} ranks, makespan {total:.4f} virtual s)")
    else:
        print("no per-rank spans in this trace (recorded without rank "
              "timelines, e.g. from `sweep`/`grid`)")
    if tracer.spans and not timelines:
        by_track: dict[str, int] = {}
        for sp in tracer.spans:
            by_track[sp.track] = by_track.get(sp.track, 0) + 1
        print(format_table(
            ["track", "spans"], sorted(by_track.items()),
        ))
    from .report.markdown import tile_heatmap, tile_step_durations

    if tile_step_durations(tracer):
        print()
        print("per-tile step durations (mean across ranks):")
        print(tile_heatmap(tracer))
    if tracer.dropped:
        print(f"({tracer.dropped} spans dropped past the tracer's cap)")
    counters = {name: fam for name, fam in
                (tracer.meta.get("metrics") or {}).items()
                if fam.get("kind") == "counter"}
    if counters:
        from .obs import MetricsRegistry, parse_prometheus

        registry = MetricsRegistry()
        registry.merge(counters)
        samples = parse_prometheus(registry.render_prometheus())
        print(format_table(["counter", "value"], [
            [name, int(v) if v.is_integer() else v]
            for name, v in sorted(samples.items())
        ]))
    return 0


def cmd_calibrate(_args) -> int:
    """``repro calibrate``: machine-model vs paper numbers."""
    from .bench.calibrate import main as calibrate_main

    calibrate_main()
    return 0


def cmd_platforms(_args) -> int:
    """``repro platforms``: list the machine models."""
    rows = []
    for name, plat in sorted(PLATFORMS.items()):
        rows.append([
            name,
            f"{plat.cpu.flops / 1e9:.2f} GF/s",
            f"{plat.net.node_bw / 1e6:.0f} MB/s",
            plat.net.ranks_per_node,
            plat.net.contention_model,
        ])
    print(format_table(
        ["platform", "core", "node NIC", "ranks/node", "contention"], rows
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Auto-tuned overlapped parallel 3-D FFT (PPoPP'14 repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one 3-D FFT")
    _add_setting_args(p_run)
    p_run.add_argument("--params", help="config as 'T=32,W=2,Px=8,...'")
    p_run.add_argument(
        "--decomposition", choices=("slab", "pencil"), default="slab",
        help="slab (the paper's 1-D method) or pencil (2-D extension)",
    )
    p_run.add_argument(
        "--real", action="store_true",
        help="real-to-complex transform (half spectrum, Section 2.3)",
    )
    _add_trace_arg(p_run)
    _add_faults_arg(p_run)
    _add_profile_arg(p_run)
    # variant None = not given (NEW), so pencil runs can reject the flag
    p_run.set_defaults(func=cmd_run, variant=None)

    p_multi = sub.add_parser(
        "multi", help="compare inter/intra/combined multi-array overlap"
    )
    _add_setting_args(p_multi)
    p_multi.add_argument("--arrays", type=int, default=4,
                         help="number of successive transforms")
    p_multi.set_defaults(func=cmd_multi)

    p_app = sub.add_parser(
        "app", help="run a traffic-shaped application workload"
    )
    p_app.add_argument("app", choices=("poisson", "convolution", "turbulence"),
                       help="application driver (see repro.apps)")
    _add_setting_args(p_app)
    p_app.add_argument("--shape", metavar="NX,NY,NZ", default=None,
                       help="anisotropic grid (overrides -n)")
    p_app.add_argument("--steps", type=int, default=10,
                       help="measured application steps")
    p_app.add_argument("--warmup", type=int, default=2,
                       help="untimed warmup steps excluded from throughput")
    p_app.add_argument("--seed", type=int, default=0,
                       help="seed for the synthetic input fields")
    p_app.add_argument("--params", help="config as 'T=32,W=2,Px=8,...'")
    p_app.add_argument("--plan-server", metavar="URL", default=None,
                       help="resolve tuned params from a running "
                            "`repro serve` (warm hit = zero simulations)")
    p_app.add_argument("--tenant", default=None,
                       help="plan-server tenant namespace")
    p_app.add_argument("--budget", type=int, default=None,
                       help="tune locally with this evaluation budget "
                            "(ignored when --params/--plan-server resolve)")
    p_app.add_argument("--plan-effort", default=None,
                       choices=("estimate", "measure", "patient", "exhaustive"),
                       help="FFTW-style planner effort for the app's plans "
                            "(default: estimate; the paper tunes with patient)")
    p_app.add_argument("--json", action="store_true",
                       help="emit the result record as JSON")
    _add_eval_store_arg(p_app)
    _add_token_arg(p_app)
    _add_trace_arg(p_app)
    _add_faults_arg(p_app)
    p_app.set_defaults(func=cmd_app)

    p_tune = sub.add_parser("tune", help="auto-tune a variant")
    _add_setting_args(p_tune)
    p_tune.add_argument("--budget", type=int, default=300,
                        help="max Nelder-Mead suggestions")
    p_tune.add_argument("--strategy", default="nelder-mead",
                        choices=("nelder-mead", "coordinate"),
                        help="search strategy (share an --eval-store to "
                             "compare them without re-simulating)")
    _add_eval_store_arg(p_tune)
    p_tune.set_defaults(func=cmd_tune)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter")
    _add_setting_args(p_sweep)
    _add_jobs_arg(p_sweep)
    _add_trace_arg(p_sweep)
    _add_eval_store_arg(p_sweep)
    _add_faults_arg(p_sweep)
    p_sweep.add_argument("name", help="parameter to sweep (T, W, Fy, ...)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_rand = sub.add_parser("random", help="random-config CDF (Figure 5)")
    _add_setting_args(p_rand)
    _add_jobs_arg(p_rand)
    p_rand.add_argument("--samples", type=int, default=200)
    p_rand.add_argument("--seed", type=int, default=0)
    p_rand.set_defaults(func=cmd_random)

    p_grid = sub.add_parser(
        "grid", help="evaluate a (p, N) benchmark grid, optionally in parallel"
    )
    p_grid.add_argument("-m", "--machine", type=_platform_name,
                        default="UMD-Cluster",
                        help="platform model (see `platforms`)")
    p_grid.add_argument(
        "--cells", default="16:256,384,512,640;32:256,384,512,640",
        help="grid as 'p:N,N,...;p:N,...' (default: the Table-2a cells)",
    )
    p_grid.add_argument("--budget", type=int, default=None,
                        help="tuning budget per cell (default: paper scale)")
    p_grid.add_argument("--store", default=None,
                        help="directory for the on-disk result store")
    _add_eval_store_arg(p_grid)
    _add_jobs_arg(p_grid)
    _add_trace_arg(p_grid)
    _add_faults_arg(p_grid)
    _add_profile_arg(p_grid)
    p_grid.add_argument(
        "--serve", metavar="HOST[:PORT]", nargs="?", const="127.0.0.1:0",
        default=None,
        help="distributed dispatch: start a coordinator on HOST:PORT "
             "(default 127.0.0.1 with an ephemeral port; bind 0.0.0.0 "
             "for remote workers) and serve cells to `repro worker`s",
    )
    p_grid.add_argument(
        "--workers", metavar="LIST", default=None,
        help="comma-separated worker launch spec for --serve: 'local' "
             "spawns a worker subprocess here, anything else is an ssh "
             "host (e.g. 'local,local' or 'node1,node2'); implies --serve",
    )
    p_grid.add_argument(
        "--worker-jobs", type=int, default=1, metavar="N",
        help="--jobs forwarded to each spawned worker (default 1)",
    )
    p_grid.add_argument(
        "--lease-ttl", type=float, default=15.0, metavar="SECS",
        help="seconds an unrenewed worker lease survives before its "
             "cells requeue (default 15)",
    )
    _add_token_arg(p_grid)
    p_grid.add_argument(
        "--trace-dir", metavar="DIR", default=None,
        help="with --serve: write the merged fleet telemetry here when "
             "the grid ends (fleet_trace.json, one Chrome trace with a "
             "process group per worker host, renderable with `repro "
             "trace`; fleet_metrics.prom, the final /metrics snapshot)",
    )
    p_grid.set_defaults(func=cmd_grid)

    p_worker = sub.add_parser(
        "worker", help="join a `grid --serve` coordinator as a worker"
    )
    p_worker.add_argument(
        "--coordinator", metavar="URL", required=True,
        help="coordinator base URL (printed by `grid --serve`)",
    )
    _add_jobs_arg(p_worker)
    p_worker.add_argument(
        "--max-cells", type=int, default=None, metavar="K",
        help="cells per lease (default: max(coordinator batch, --jobs))",
    )
    p_worker.add_argument(
        "--poll", type=float, default=0.5, metavar="SECS",
        help="idle poll interval while waiting for pending cells",
    )
    _add_token_arg(p_worker)
    p_worker.set_defaults(func=cmd_worker)

    p_serve = sub.add_parser(
        "serve", help="long-lived tuned-plan server (tuning-as-a-service)"
    )
    p_serve.add_argument(
        "--bind", metavar="HOST[:PORT]", default="127.0.0.1:0",
        help="address to listen on (default 127.0.0.1 with an ephemeral "
             "port; bind 0.0.0.0 for remote clients)",
    )
    p_serve.add_argument(
        "--root", metavar="DIR", default="plan_store",
        help="base directory for per-tenant stores "
             "(<root>/<tenant>/results/ + <root>/<tenant>/evals.jsonl)",
    )
    p_serve.add_argument(
        "--workers", metavar="LIST", default=None,
        help="worker launch spec for cold-miss tuning jobs, as in `grid "
             "--workers` ('local,local' or ssh hosts); default: tune "
             "in-process on the job thread",
    )
    p_serve.add_argument(
        "--worker-jobs", type=int, default=1, metavar="N",
        help="--jobs forwarded to each spawned fleet worker (default 1)",
    )
    p_serve.add_argument(
        "--lease-ttl", type=float, default=15.0, metavar="SECS",
        help="lease TTL for the tuning jobs' coordinator (default 15)",
    )
    p_serve.add_argument(
        "--job-threads", type=int, default=1, metavar="N",
        help="concurrent background tuning jobs (default 1; requests "
             "never block on this — a cold miss always returns 202)",
    )
    p_serve.add_argument(
        "--budget", type=int, default=None,
        help="tuning budget when a request omits one (default: paper "
             "scale for the requested p)",
    )
    p_serve.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECS",
        help="on SIGTERM/SIGINT, wait this long for active tuning jobs "
             "before journaling them interrupted and exiting (default 30)",
    )
    p_serve.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECS",
        help="fail a tuning job stuck RUNNING past this wall time and "
             "free its single-flight key (default: no watchdog)",
    )
    p_serve.add_argument(
        "--no-journal", action="store_true",
        help="disable the job journal (<root>/jobs.journal.jsonl): no "
             "crash recovery, interrupted jobs are lost on restart",
    )
    _add_token_arg(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_top = sub.add_parser(
        "top", help="live dashboard for a `grid --serve` coordinator"
    )
    p_top.add_argument(
        "--coordinator", metavar="URL", required=True,
        help="coordinator base URL (printed by `grid --serve`)",
    )
    p_top.add_argument(
        "--interval", type=float, default=1.0, metavar="SECS",
        help="poll interval (default 1s)",
    )
    p_top.add_argument(
        "--polls", type=int, default=None, metavar="N",
        help="stop after N successful polls (default: run until the "
             "coordinator vanishes, which is a clean exit)",
    )
    _add_token_arg(p_top)
    p_top.set_defaults(func=cmd_top)

    p_trace = sub.add_parser(
        "trace", help="replay a saved trace file as an ASCII gantt"
    )
    p_trace.add_argument("file", help="trace file (.jsonl event log or "
                                      "Chrome trace-event .json)")
    p_trace.add_argument("--width", type=int, default=100,
                         help="gantt width in characters")
    p_trace.add_argument("--max-ranks", type=int, default=8,
                         help="rank strips to show before eliding")
    p_trace.add_argument(
        "--out", metavar="FILE", default=None,
        help="re-export the loaded trace instead of rendering it "
             "(.jsonl = event log, anything else = Chrome JSON; missing "
             "parent directories are created)",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_cal = sub.add_parser("calibrate", help="model-vs-paper calibration")
    p_cal.set_defaults(func=cmd_calibrate)

    p_plat = sub.add_parser("platforms", help="list platform models")
    p_plat.set_defaults(func=cmd_platforms)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. `repro-fft ... | head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
