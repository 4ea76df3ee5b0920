"""Command-line model repository: ``python -m repro.cli``.

The operational face of the deployment API (:mod:`repro.api.deployment`):
everything a serving fleet's build and ops steps need, over the manifests of
a :class:`~repro.api.ModelRepository` cache directory.

Subcommands::

    build MODEL --targets skylake,epyc,arm   compile one multi-target bundle
    list                                     inventory of the repository
    inspect ARTIFACT                         manifest of one artifact
    verify [ARTIFACT] [--deep]               integrity-check artifacts
    gc --max-bytes N [--dry-run]             LRU-evict down to a byte budget
    check ARTIFACT [--host TARGET]           load on a host, serve a probe
                                             request, print the output digest
    serve ARTIFACT --workers N [--port P]    multi-process serving daemon on
                                             a TCP socket (see repro.api.daemon);
                                             --trace DIR records per-request
                                             traces, --stats-interval N logs a
                                             periodic serving summary
    trace record ARTIFACT --out DIR          drive a traced daemon with a
                                             synthetic mixed-priority stream
    trace replay TRACE [--check PCT]         re-run a recorded trace through
                                             the deterministic simulator
    trace whatif TRACE [--workers 1,2,4]     sweep serving knobs over one
                                             trace; print the predicted frontier
    analyze [PATHS...] [--format json]       lint source trees against the
                                             stack's conventions (REP001..)

``check`` exists so a deployment pipeline can diff served numbers across
hosts and builds with nothing but shell: it loads the artifact exactly the
way :func:`repro.api.load_engine` would on that host, runs one deterministic
probe request, and prints a SHA-256 over the output bytes — two artifacts
that print the same digest serve byte-identical outputs for that probe.

The repository directory comes from ``--cache-dir``, the ``REPRO_CACHE_DIR``
environment variable, or ``~/.cache/neocpu``, in that order.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import signal
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

__all__ = ["main"]

#: Environment variable overriding the default repository directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = "~/.cache/neocpu"

_SIZE_SUFFIXES = {"k": 1024, "m": 1024**2, "g": 1024**3}


def _parse_bytes(text: str) -> int:
    """``"1500"``, ``"64K"``, ``"10M"``, ``"2G"`` -> byte counts."""
    text = text.strip().lower()
    if text and text[-1] in _SIZE_SUFFIXES:
        return int(float(text[:-1]) * _SIZE_SUFFIXES[text[-1]])
    return int(text)


def _cache_dir(args) -> Path:
    explicit = getattr(args, "cache_dir", None)
    if explicit:
        return Path(explicit).expanduser()
    return Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR).expanduser()


def _repository(args):
    from .api import ModelRepository

    return ModelRepository(_cache_dir(args))


# --------------------------------------------------------------------------- #
# subcommands
# --------------------------------------------------------------------------- #
def _cmd_build(args) -> int:
    from .api import CompileConfig, build

    config = CompileConfig(opt_level=args.opt_level)
    targets = [t for t in (s.strip() for s in args.targets.split(",")) if t]
    # The repository's tuning database is shared even for --output builds,
    # so building a bundle and then per-target singles re-searches nothing.
    bundle = build(
        args.model,
        targets,
        config=config,
        cache_dir=_cache_dir(args),
        output=args.output,
        force=args.force,
    )
    print(bundle.describe())
    return 0


def _cmd_list(args) -> int:
    print(_repository(args).describe())
    return 0


def _cmd_inspect(args) -> int:
    bundle = _repository(args).open(args.artifact)
    print(bundle.describe())
    return 0


def _cmd_verify(args) -> int:
    repository = _repository(args)
    if args.artifact:
        problems = {repository.resolve(args.artifact): repository.verify(
            args.artifact, deep=args.deep
        )}
        problems = {path: issues for path, issues in problems.items() if issues}
        checked = 1
    else:
        problems = repository.verify_all(deep=args.deep)
        checked = len(repository.artifact_paths())
    if not problems:
        print(f"verify: {checked} artifact(s) intact")
        return 0
    for path, issues in sorted(problems.items()):
        for issue in issues:
            print(f"CORRUPT {path.name}: {issue}", file=sys.stderr)
    print(
        f"verify: {len(problems)} of {checked} artifact(s) corrupt",
        file=sys.stderr,
    )
    return 1


def _cmd_gc(args) -> int:
    report = _repository(args).gc(
        _parse_bytes(args.max_bytes), dry_run=args.dry_run
    )
    print(report.describe())
    # Failing to fit the budget is an operational condition worth a non-zero
    # exit (every survivor is pinned by a live engine), not an error message.
    return 2 if report.over_budget else 0


def _probe_inputs(engine, seed: int, batch: int) -> dict:
    """A deterministic request matching the engine's input signature."""
    rng = np.random.default_rng(seed)
    request = {}
    for name, (shape, dtype) in sorted(engine.input_signature.items()):
        extents = tuple(batch if d is None else int(d) for d in shape)
        request[name] = rng.standard_normal(extents).astype(dtype)
    return request


def _cmd_check(args) -> int:
    from .api import load_engine

    repository = _repository(args)
    path = repository.resolve(args.artifact)
    with load_engine(path, host=args.host, seed=args.seed) as engine:
        request = _probe_inputs(engine, args.seed, args.batch)
        outputs = engine.run(request)
        digest = hashlib.sha256()
        for output in outputs:
            digest.update(np.ascontiguousarray(output).tobytes())
    print(
        f"artifact={path.name} host={args.host or 'auto'} "
        f"target={engine.served_target} match={engine.host_match} "
        f"outputs={len(outputs)} digest={digest.hexdigest()}"
    )
    return 0


def _parse_timeout_ms(text: str) -> "float | str":
    """``--batch-timeout-ms`` accepts a float or the literal ``auto``."""
    text = text.strip()
    if text == "auto":
        return "auto"
    return float(text)


def _serve_engine_kwargs(args) -> dict:
    engine_kwargs = {}
    if getattr(args, "host", None):
        engine_kwargs["host"] = args.host
    if getattr(args, "max_batch_size", None) is not None:
        engine_kwargs["max_batch_size"] = args.max_batch_size
    if getattr(args, "batch_timeout_ms", None) is not None:
        engine_kwargs["batch_timeout_ms"] = args.batch_timeout_ms
    return engine_kwargs


def _cmd_serve(args) -> int:
    from .api.daemon import ServingDaemon

    repository = _repository(args)
    path = repository.resolve(args.artifact)
    daemon = ServingDaemon(
        path,
        num_workers=args.workers,
        host=args.bind,
        port=args.port,
        engine_kwargs=_serve_engine_kwargs(args),
        trace_dir=args.trace,
        stats_interval_s=args.stats_interval,
    )
    host, port = daemon.address
    # One parseable line, flushed before serving: scripts (and the CI daemon
    # job) read the bound port from here.
    print(f"serving {path.name} on {host}:{port} with {args.workers} worker(s)", flush=True)
    if args.trace:
        print(f"tracing to {args.trace}", flush=True)
    # A shell starts a background job with SIGINT ignored, and Python then
    # installs no handler for it: stop on SIGINT however serve was started.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        pass  # SIGINT is the intended foreground shutdown
    finally:
        daemon.close()
    return 0


# --------------------------------------------------------------------------- #
# trace: record / replay / what-if
# --------------------------------------------------------------------------- #
def _cmd_trace_record(args) -> int:
    import time

    from .api import load_engine
    from .api.daemon import DaemonClient, ServingDaemon
    from .trace import measured_metrics, read_trace

    repository = _repository(args)
    path = repository.resolve(args.artifact)
    priorities = [p.strip() for p in args.priorities.split(",") if p.strip()]
    if not priorities:
        raise ValueError("--priorities must name at least one class")
    # The client needs inputs matching the artifact's signature; load once
    # in-process just to shape the probe request, then serve from workers.
    with load_engine(path, host=args.host) as probe:
        request = _probe_inputs(probe, args.seed, args.batch)
    daemon = ServingDaemon(
        path,
        num_workers=args.workers,
        engine_kwargs=_serve_engine_kwargs(args),
        trace_dir=args.out,
    )
    try:
        daemon.start()
        host, port = daemon.address
        client = DaemonClient(host, port)
        try:
            futures = []
            for index in range(args.requests):
                futures.append(
                    client.submit(request, priority=priorities[index % len(priorities)])
                )
                if args.gap_ms > 0:
                    time.sleep(args.gap_ms / 1e3)
            for future in futures:
                future.result(timeout=300.0)
        finally:
            client.close()
    finally:
        daemon.close()
    trace = read_trace(args.out)
    measured = measured_metrics(trace)
    print(
        f"recorded {measured.requests} request(s) over {len(trace.events)} "
        f"event(s) to {args.out}"
    )
    print(
        f"measured: {measured.throughput_rps:.1f} req/s | latency ms "
        f"p50/p95/p99 {measured.latency_ms['p50']:.2f}/"
        f"{measured.latency_ms['p95']:.2f}/{measured.latency_ms['p99']:.2f}"
    )
    return 0


def _replay_overrides(args) -> dict:
    overrides = {}
    if args.max_batch_size is not None:
        overrides["max_batch_size"] = args.max_batch_size
    if args.batch_timeout_ms is not None:
        overrides["batch_timeout_ms"] = args.batch_timeout_ms
    if args.workers is not None:
        overrides["processes"] = args.workers
    if args.queue_depth is not None:
        overrides["queue_depth"] = args.queue_depth
    return overrides


def _cmd_trace_replay(args) -> int:
    from .trace import knobs_from_trace, measured_metrics, read_trace, replay
    from .trace.replayer import ReplayReport

    trace = read_trace(args.trace)
    overrides = _replay_overrides(args)
    report = replay(trace, **overrides)
    measured = measured_metrics(trace)
    if args.json:
        print(report.to_json())
    else:
        print(report.describe())
        print()
        print(
            ReplayReport(
                source="measured", knobs=knobs_from_trace(trace), metrics=measured
            ).describe()
        )
    if args.check is None:
        return 0
    # The fidelity gate compares the simulator at the *recorded* knobs, even
    # when the printed replay above carried what-if overrides.
    base = report if not overrides else replay(trace)
    error = abs(base.metrics.throughput_rps - measured.throughput_rps) / max(
        measured.throughput_rps, 1e-9
    )
    print(
        f"fidelity: predicted {base.metrics.throughput_rps:.1f} req/s vs "
        f"measured {measured.throughput_rps:.1f} req/s | error "
        f"{error * 100:.1f}% (tolerance {args.check:.0f}%)"
    )
    return 0 if error * 100.0 <= args.check else 1


def _cmd_trace_whatif(args) -> int:
    from .trace import read_trace, sweep

    def axis(text, parse):
        return [parse(part) for part in text.split(",") if part.strip()]

    trace = read_trace(args.trace)
    axes = {}
    if args.max_batch_size:
        axes["max_batch_size"] = axis(args.max_batch_size, int)
    if args.batch_timeout_ms:
        axes["batch_timeout_ms"] = axis(args.batch_timeout_ms, _parse_timeout_ms)
    if args.workers:
        axes["processes"] = axis(args.workers, int)
    if args.queue_depth:
        axes["queue_depth"] = axis(args.queue_depth, int)
    if not axes:
        raise ValueError(
            "nothing to sweep: pass at least one of --max-batch-size, "
            "--batch-timeout-ms, --workers, --queue-depth"
        )
    result = sweep(trace, **axes)
    if args.json:
        print(result.to_json())
        return 0
    print(result.table())
    best = result.best(args.best)
    print(f"best ({args.best}): {best.knobs.describe()}")
    return 0


# --------------------------------------------------------------------------- #
# argument parsing
# --------------------------------------------------------------------------- #
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="NeoCPU model repository: build, inspect and garbage-"
        "collect compiled-model artifacts.",
    )
    parser.add_argument(
        "--cache-dir",
        help=f"repository directory (default: ${CACHE_DIR_ENV} or "
        f"{DEFAULT_CACHE_DIR})",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build_cmd = commands.add_parser(
        "build", help="compile a model into a multi-target bundle"
    )
    build_cmd.add_argument("model", help="model-zoo name, e.g. resnet-18")
    build_cmd.add_argument(
        "--targets",
        required=True,
        help="comma-separated CPU targets, e.g. skylake,epyc,arm",
    )
    build_cmd.add_argument(
        "--opt-level",
        default="global",
        choices=("baseline", "layout", "transform_elim", "global"),
        help="compilation pipeline level (default: global)",
    )
    build_cmd.add_argument(
        "--output", help="bundle file path (default: inside the repository)"
    )
    build_cmd.add_argument(
        "--force", action="store_true", help="rebuild even on a warm cache"
    )
    build_cmd.set_defaults(run=_cmd_build)

    list_cmd = commands.add_parser("list", help="repository inventory")
    list_cmd.set_defaults(run=_cmd_list)

    inspect_cmd = commands.add_parser(
        "inspect", help="print one artifact's manifest"
    )
    inspect_cmd.add_argument("artifact", help="artifact name or path")
    inspect_cmd.set_defaults(run=_cmd_inspect)

    verify_cmd = commands.add_parser(
        "verify", help="integrity-check artifacts (exit 1 on corruption)"
    )
    verify_cmd.add_argument(
        "artifact", nargs="?", help="one artifact (default: the whole repository)"
    )
    verify_cmd.add_argument(
        "--deep",
        action="store_true",
        help="also unpickle every payload (trusted files only)",
    )
    verify_cmd.set_defaults(run=_cmd_verify)

    gc_cmd = commands.add_parser(
        "gc", help="evict least-recently-used artifacts down to a byte budget"
    )
    gc_cmd.add_argument(
        "--max-bytes",
        required=True,
        help="byte budget for the artifact store (suffixes K/M/G accepted)",
    )
    gc_cmd.add_argument(
        "--dry-run", action="store_true", help="report without deleting"
    )
    gc_cmd.set_defaults(run=_cmd_gc)

    check_cmd = commands.add_parser(
        "check", help="serve one probe request and print the output digest"
    )
    check_cmd.add_argument("artifact", help="artifact name or path")
    check_cmd.add_argument(
        "--host",
        help="CPU target to serve on (default: auto-detect / $REPRO_HOST_TARGET)",
    )
    check_cmd.add_argument(
        "--seed", type=int, default=0, help="probe input RNG seed (default 0)"
    )
    check_cmd.add_argument(
        "--batch", type=int, default=1, help="probe batch extent (default 1)"
    )
    check_cmd.set_defaults(run=_cmd_check)

    serve_cmd = commands.add_parser(
        "serve",
        help="serve an artifact from N worker processes over a TCP socket",
    )
    serve_cmd.add_argument("artifact", help="artifact name or path")
    serve_cmd.add_argument(
        "--workers", type=int, default=2, help="worker-process count (default 2)"
    )
    serve_cmd.add_argument(
        "--bind", default="127.0.0.1",
        help="bind address (default 127.0.0.1; the protocol is pickle — "
        "keep it loopback unless the network is trusted)",
    )
    serve_cmd.add_argument(
        "--port", type=int, default=0,
        help="bind port (default 0: pick a free port, printed on stdout)",
    )
    serve_cmd.add_argument(
        "--host",
        help="CPU target the workers serve on (default: auto-detect)",
    )
    serve_cmd.add_argument(
        "--max-batch-size", type=int, default=None,
        help="per-worker dynamic-batching cap (default: engine default)",
    )
    serve_cmd.add_argument(
        "--batch-timeout-ms", type=_parse_timeout_ms, default=None,
        help="batch-gather window in ms, or 'auto' for the adaptive "
        "controller (default: engine default)",
    )
    serve_cmd.add_argument(
        "--trace", metavar="DIR", default=None,
        help="record per-request trace events (scheduler, dispatcher and "
        "daemon roles) into this directory for later replay",
    )
    serve_cmd.add_argument(
        "--stats-interval", type=float, metavar="SECONDS", default=None,
        help="print a one-line serving summary every N seconds",
    )
    serve_cmd.set_defaults(run=_cmd_serve)

    trace_cmd = commands.add_parser(
        "trace",
        help="record, replay and what-if-sweep per-request serving traces",
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)

    record_cmd = trace_sub.add_parser(
        "record",
        help="serve a synthetic mixed-priority stream and record its trace",
    )
    record_cmd.add_argument("artifact", help="artifact name or path")
    record_cmd.add_argument(
        "--out", required=True, metavar="DIR", help="trace output directory"
    )
    record_cmd.add_argument(
        "--workers", type=int, default=2, help="worker-process count (default 2)"
    )
    record_cmd.add_argument(
        "--requests", type=int, default=64,
        help="number of requests to drive (default 64)",
    )
    record_cmd.add_argument(
        "--gap-ms", type=float, default=1.0,
        help="pause between submissions in ms; 0 sends a burst (default 1.0)",
    )
    record_cmd.add_argument(
        "--priorities", default="interactive,normal,bulk",
        help="comma-separated priority classes cycled round-robin over the "
        "stream (default interactive,normal,bulk)",
    )
    record_cmd.add_argument(
        "--host", help="CPU target the workers serve on (default: auto-detect)"
    )
    record_cmd.add_argument(
        "--max-batch-size", type=int, default=None,
        help="per-worker dynamic-batching cap (default: engine default)",
    )
    record_cmd.add_argument(
        "--batch-timeout-ms", type=_parse_timeout_ms, default=None,
        help="batch-gather window in ms or 'auto' (default: engine default)",
    )
    record_cmd.add_argument(
        "--seed", type=int, default=0, help="probe input RNG seed (default 0)"
    )
    record_cmd.add_argument(
        "--batch", type=int, default=1, help="probe batch extent (default 1)"
    )
    record_cmd.set_defaults(run=_cmd_trace_record)

    replay_cmd = trace_sub.add_parser(
        "replay",
        help="deterministically re-run a recorded trace through the simulator",
    )
    replay_cmd.add_argument("trace", help="trace directory (from --trace/record)")
    replay_cmd.add_argument(
        "--max-batch-size", type=int, default=None,
        help="override the recorded dynamic-batching cap",
    )
    replay_cmd.add_argument(
        "--batch-timeout-ms", type=_parse_timeout_ms, default=None,
        help="override the recorded gather window (float ms or 'auto')",
    )
    replay_cmd.add_argument(
        "--workers", type=int, default=None,
        help="override the recorded worker-process count",
    )
    replay_cmd.add_argument(
        "--queue-depth", type=int, default=None,
        help="override the recorded queue bound",
    )
    replay_cmd.add_argument(
        "--check", type=float, metavar="PCT", default=None,
        help="fidelity gate: exit 1 unless predicted throughput at the "
        "recorded knobs is within PCT%% of the measured trace",
    )
    replay_cmd.add_argument(
        "--json", action="store_true",
        help="print the canonical JSON report instead of text",
    )
    replay_cmd.set_defaults(run=_cmd_trace_replay)

    whatif_cmd = trace_sub.add_parser(
        "whatif",
        help="sweep serving knobs over one trace; print the predicted frontier",
    )
    whatif_cmd.add_argument("trace", help="trace directory (from --trace/record)")
    whatif_cmd.add_argument(
        "--max-batch-size", metavar="N,N,...",
        help="comma-separated batching caps to sweep",
    )
    whatif_cmd.add_argument(
        "--batch-timeout-ms", metavar="MS,MS,...",
        help="comma-separated gather windows to sweep ('auto' allowed)",
    )
    whatif_cmd.add_argument(
        "--workers", metavar="N,N,...",
        help="comma-separated worker-process counts to sweep",
    )
    whatif_cmd.add_argument(
        "--queue-depth", metavar="N,N,...",
        help="comma-separated queue bounds to sweep",
    )
    whatif_cmd.add_argument(
        "--best", default="throughput_rps",
        choices=("throughput_rps", "p50", "p95", "p99"),
        help="metric the 'best' line optimizes (default throughput_rps)",
    )
    whatif_cmd.add_argument(
        "--json", action="store_true",
        help="print the canonical JSON sweep instead of the table",
    )
    whatif_cmd.set_defaults(run=_cmd_trace_whatif)

    # The flags and the run are python -m repro.analysis's own, so both entry
    # points accept the same flags and exit codes.
    from .analysis.__main__ import build_parser as analysis_parser, run as analyze

    analyze_cmd = commands.add_parser(
        "analyze",
        parents=[analysis_parser()],
        add_help=False,
        help="lint source against the stack's conventions (exit 1 on findings)",
    )
    analyze_cmd.set_defaults(run=analyze)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except Exception as error:  # ArtifactError and friends
        from .runtime.artifact import ArtifactError

        if isinstance(error, ArtifactError):
            print(f"error: {error}", file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
