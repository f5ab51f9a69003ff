"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``info``
    Package overview and modeled devices.
``apps``
    List the registered benchmark applications.
``map <app> [k=v ...] [--explain]``
    Compile an app and show, per kernel, its constraints and mapping (or
    with ``--explain`` its provenance record and the baselines' scores)
    and the simulated cost breakdown.
``cuda <app> [k=v ...] [--strategy S] [--host] [-o FILE]``
    Dump the generated CUDA for an app (optionally with the host driver).
``figures [ids ...]``
    Print experiment tables (all by default).
``experiments [-o FILE]``
    Regenerate EXPERIMENTS.md.
``difftest [--seed N] [--budget N] [--out DIR] [--corpus FILE ...]``
    Differential-execution fuzzing: generate random pattern programs and
    check every strategy/optimization combination against the interpreter.
``chaos [app] [--stage S] [--kind K] [--out DIR]``
    Run the fault-injection matrix through the pipeline and verify every
    cell degrades gracefully or fails typed-with-report.
``replay-failure FILE [FILE ...]``
    Re-execute the pipeline failures recorded in report artifacts.
``trace <app> [k=v ...] [-o FILE] [--provenance FILE]``
    Compile, cost-estimate, and run an app with tracing on; write a
    Chrome trace-event JSON (loadable in Perfetto / chrome://tracing)
    and optionally the mapping-provenance artifact.
``stats [app] [k=v ...] [--json] [--url URL]``
    Compile an app with metrics on and print the registry snapshot:
    cache hit rates, search counters, per-stage wall time, cost sums.
    With ``--url``, query a running compile server's ``/v1/stats``
    instead (queue depth, hit/miss counters, latency percentiles).
``explain FILE``
    Render a saved mapping-provenance artifact: ranked candidates with
    per-constraint verdicts — why each kernel's mapping won.
``serve [--port P] [--workers N] [--cache-dir DIR] [--trace FILE]``
    Run the compile service: JSON-over-HTTP, worker pool with bounded
    admission, single-flight dedup, persistent artifact cache.
``submit <app|--program FILE> [k=v ...] [--url URL] [--deadline-s S]``
    Send one compile request to a running server.  Server-side pipeline
    failures download the replayable failure report and print the local
    ``repro replay-failure`` invocation.  ``--deadline-s`` propagates a
    request budget; work shed on an expired deadline exits 75.
``cache <stats|list|clear> [--cache-dir DIR] [--json]``
    Inspect or clear a compile server's on-disk artifact store.
``recipe <show|diff|replay|tune>``
    Transformation recipes — the content-hashed record of the
    optimization passes behind every compile: render one (from a file,
    a store digest, or a fresh compile), diff two, replay one
    pass-by-pass asserting byte-identical plans and CUDA, or autotune
    the pass ordering against the cost model.
``fleet <serve|submit|stats|top|trace|events|chaos>``
    The digest-sharded compile fleet: run a router over N backends,
    submit to it (``--deadline-s`` as above), query its stats, or run
    the fleet chaos campaigns (kill/hang/slow/partition a backend and
    assert zero lost tickets plus prober readmission).

Exit codes: 0 success, 1 check failed, 2 configuration error, 3
analysis/search error, 4 codegen error, 5 execution/simulation error,
70 internal error, 75 service unavailable (admission queue full /
server unreachable / deadline shed).
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional

from .errors import ReproError, RuntimeConfigError, exit_code_for


def _parse_sizes(pairs: List[str]) -> Dict[str, int]:
    sizes: Dict[str, int] = {}
    for pair in pairs:
        if "=" not in pair:
            raise RuntimeConfigError(
                f"expected k=v size binding, got {pair!r}"
            )
        key, _, value = pair.partition("=")
        try:
            sizes[key] = int(value)
        except ValueError:
            raise RuntimeConfigError(
                f"size binding {pair!r} needs an integer value"
            )
    return sizes


def cmd_info(_args: argparse.Namespace) -> int:
    import repro
    from repro.gpusim.device import DEVICES

    print(f"repro {repro.__version__} — Locality-Aware Mapping of Nested "
          "Parallel Patterns on GPUs (MICRO 2014 reproduction)")
    print()
    print("modeled devices:")
    for name, device in DEVICES.items():
        print(
            f"  {name}: {device.num_sms} SMs, "
            f"{device.max_threads_per_sm} threads/SM, "
            f"DOP window [{device.min_dop}, {device.max_dop}]"
        )
    print()
    print("see also: python -m repro apps | map | cuda | figures")
    return 0


def cmd_apps(_args: argparse.Namespace) -> int:
    from repro.apps import ALL_APPS

    width = max(len(name) for name in ALL_APPS)
    for name, app in sorted(ALL_APPS.items()):
        params = ", ".join(f"{k}={v}" for k, v in app.default_params.items())
        print(f"{name:<{width}}  levels={app.levels}  defaults: {params}")
    return 0


def _resolve_app(name: str):
    from repro.apps import resolve_app

    return resolve_app(name)


def cmd_map(args: argparse.Namespace) -> int:
    from repro.analysis.strategies import render_baseline_scores
    from repro.apps import merge_params
    from repro.optim.pipeline import OptimizationFlags
    from repro.runtime import GpuSession

    app = _resolve_app(args.app)
    sizes = merge_params(app, _parse_sizes(args.sizes))
    flags = OptimizationFlags.from_names(getattr(args, "disable_opt", None))
    compiled = GpuSession(strategy=args.strategy, flags=flags).compile(
        app.build(), **sizes
    )
    cost = compiled.estimate_cost()
    for index, decision in enumerate(compiled.decisions):
        ka = decision.analysis
        if args.explain:
            print(compiled.provenance().kernels[index].render())
            print(render_baseline_scores(ka.constraints, ka.level_sizes()))
        else:
            print(f"=== kernel {index} (depth {ka.depth}, "
                  f"sizes {ka.level_sizes()}) ===")
            print(ka.constraints.describe())
            print(f"mapping: {decision.mapping}")
        print(cost.kernels[index].describe())
        print()
    return 0


def cmd_cuda(args: argparse.Namespace) -> int:
    from repro.apps import merge_params
    from repro.codegen import generate_host_driver
    from repro.runtime import GpuSession

    app = _resolve_app(args.app)
    sizes = merge_params(app, _parse_sizes(args.sizes))
    module = GpuSession(strategy=args.strategy).compile(
        app.build(), **sizes
    ).module
    source = (
        generate_host_driver(module, sizes) if args.host else module.source
    )
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(source)
        print(f"wrote {args.output}")
    else:
        print(source)
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.figures import EXPERIMENTS, run_experiment

    ids = args.ids or list(EXPERIMENTS)
    for eid in ids:
        result = run_experiment(eid)
        if args.plot:
            from repro.figures.plots import render_experiment_bars

            print(render_experiment_bars(result))
        else:
            print(result.render())
        print()
        if args.csv_dir:
            import os

            os.makedirs(args.csv_dir, exist_ok=True)
            path = os.path.join(args.csv_dir, f"{eid}.csv")
            result.write_csv(path)
            print(f"[wrote {path}]")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.runtime import GpuSession

    from repro.apps import merge_params

    app = _resolve_app(args.app)
    sizes = merge_params(app, _parse_sizes(args.sizes))
    compiled = GpuSession(strategy=args.strategy).compile(
        app.build(), **sizes
    )
    text = compiled.report()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.figures.runner import write_experiments_md

    write_experiments_md(
        args.output, progress=print if args.verbose else None
    )
    print(f"wrote {args.output}")
    return 0


def cmd_difftest(args: argparse.Namespace) -> int:
    from repro.difftest import (
        load_corpus,
        run_campaign,
        save_corpus,
    )
    from repro.difftest.runner import load_reproducer

    if args.replay:
        from repro.difftest import check_spec

        code = 0
        for path in args.replay:
            original, shrunk = load_reproducer(path)
            report = check_spec(shrunk, seed=args.seed)
            print(f"replay {path}: {shrunk.describe()}")
            print(f"  {report.describe()}")
            if not report.ok:
                code = 1
        return code

    corpus = []
    for path in args.corpus or []:
        corpus.extend(load_corpus(path))

    def run():
        return run_campaign(
            seed=args.seed,
            budget=args.budget,
            corpus=corpus or None,
            out_dir=args.out,
            progress=print if args.verbose else None,
            checkpoint_path=args.checkpoint,
            retries=args.retries,
        )

    if args.trace:
        from repro.observability import capture

        with capture() as obs:
            result = run()
        _write_trace(obs.tracer, args.trace)
    else:
        result = run()
    if args.save_corpus:
        from repro.difftest import ProgramGenerator, canonical_specs

        generator = ProgramGenerator(seed=args.seed)
        specs = canonical_specs() + [
            generator.random_spec() for _ in range(args.budget)
        ]
        save_corpus(specs, args.save_corpus)
        print(f"wrote corpus of {len(specs)} specs to {args.save_corpus}")
    print(result.describe())
    return 0 if result.ok else 1


def _clamped_sizes(app, overrides: Dict[str, int]) -> Dict[str, int]:
    """App sizes with unspecified defaults clamped to 64.

    The chaos and trace commands run the scalar-loop interpreter, which
    is about coverage, not scale — explicit ``k=v`` bindings still win.
    """
    from repro.apps import merge_params

    sizes = merge_params(app, overrides)
    for key, value in sizes.items():
        if key not in overrides:
            sizes[key] = min(int(value), 64)
    return sizes


def _write_trace(tracer, path: str) -> None:
    """Write and structurally validate a Chrome trace artifact."""
    from repro.observability import validate_chrome_trace

    tracer.write(path)
    problems = validate_chrome_trace(tracer.to_chrome())
    if problems:
        raise ReproError(
            f"trace artifact {path} failed validation: "
            + "; ".join(problems)
        )
    print(f"wrote {path} ({len(tracer.events())} events; load it in "
          "Perfetto or chrome://tracing)")


def cmd_trace(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.difftest.oracle import make_inputs
    from repro.observability import capture
    from repro.runtime import GpuSession

    app = _resolve_app(args.app)
    sizes = _clamped_sizes(app, _parse_sizes(args.sizes))
    with capture() as obs:
        program = app.build()
        program = dataclasses.replace(
            program, size_hints={**(program.size_hints or {}), **sizes}
        )
        compiled = GpuSession(strategy=args.strategy).compile(
            program, **sizes
        )
        compiled.estimate_cost()
        if not args.no_run:
            inputs = make_inputs(program, seed=args.seed)
            compiled.run(seed=args.seed, **inputs)
    stages = sorted(obs.tracer.span_names())
    print(f"traced {len(stages)} pipeline stage(s): {', '.join(stages)}")
    _write_trace(obs.tracer, args.output)
    if args.provenance:
        compiled.provenance().write(args.provenance)
        print(f"wrote {args.provenance} (render it with "
              f"`python -m repro explain {args.provenance}`)")
    if args.stats:
        print()
        print(obs.metrics.render())
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.observability import capture
    from repro.runtime import GpuSession

    if args.url:
        import json

        from repro.service import ServiceClient

        payload = ServiceClient(args.url, timeout=args.timeout).stats()
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            service = payload.get("service", {})
            print(f"compile service at {args.url}:")
            for key in sorted(service):
                print(f"  {key}: {service[key]}")
        return 0
    if not args.app:
        raise RuntimeConfigError(
            "stats needs an app to compile locally, or --url to query a "
            "running compile server"
        )
    app = _resolve_app(args.app)
    sizes = _clamped_sizes(app, _parse_sizes(args.sizes))
    with capture() as obs:
        compiled = GpuSession(strategy=args.strategy).compile(
            app.build(), **sizes
        )
        compiled.estimate_cost()
    if args.json:
        import json

        print(json.dumps(obs.metrics.to_dict(), indent=2))
    else:
        print(obs.metrics.render())
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from repro.observability.provenance import load_provenance

    try:
        provenance = load_provenance(args.artifact)
    except (OSError, ValueError, KeyError) as exc:
        raise RuntimeConfigError(
            f"cannot load provenance artifact {args.artifact!r}: {exc}"
        )
    print(provenance.render())
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.resilience import FAULT_MATRIX, run_chaos_matrix

    app = _resolve_app(args.app)
    program = app.build()
    sizes = _clamped_sizes(app, _parse_sizes(args.sizes))
    pairs = [
        (stage, kind)
        for stage, kind in FAULT_MATRIX
        if (not args.stage or stage in args.stage)
        and (not args.kind or kind in args.kind)
    ]
    if not pairs:
        raise RuntimeConfigError(
            "no (stage, kind) pairs match the --stage/--kind filters"
        )

    def run() -> int:
        result = run_chaos_matrix(
            program,
            pairs=pairs,
            seed=args.seed,
            strategy=args.strategy,
            out_dir=args.out,
            progress=print if args.verbose else None,
            sizes=sizes,
        )
        print(result.describe())
        return 0 if result.ok else 1

    if args.trace:
        from repro.observability import capture

        with capture() as obs:
            code = run()
        _write_trace(obs.tracer, args.trace)
        return code
    return run()


def cmd_replay_failure(args: argparse.Namespace) -> int:
    from repro.resilience import load_failure_report, replay_failure_report

    code = 0
    for path in args.reports:
        try:
            report = load_failure_report(path)
        except (OSError, ValueError, KeyError) as exc:
            raise RuntimeConfigError(
                f"cannot load failure report {path!r}: {exc}"
            )
        print(f"replaying {path}:")
        print(report.describe())
        outcome = replay_failure_report(report)
        print(outcome.describe())
        if not outcome.reproduced:
            code = 1
        print()
    return code


def cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.observability import capture
    from repro.service import CompileService, ServiceConfig
    from repro.service.http import make_server, serve_forever

    cache_dir = (
        None if args.cache_dir.lower() in ("", "none") else args.cache_dir
    )
    config = ServiceConfig(
        workers=args.workers,
        queue_limit=args.queue_limit,
        cache_dir=cache_dir,
        deadline_s=args.deadline_s if args.deadline_s > 0 else None,
        max_nodes=args.max_nodes,
    )
    import repro.apps  # noqa: F401 - load the app registry before serving

    with capture() as obs:
        service = CompileService(config)
        server = make_server(service, args.host, args.port)
        # SIGTERM must unwind the same path as Ctrl-C so the trace
        # artifact survives `kill` (CI does this).
        # Raising is mandatory here: server.shutdown() blocks on the
        # serve loop, which the handler itself is preempting — deadlock.
        def _terminate(*_args: object) -> None:
            raise KeyboardInterrupt

        signal.signal(signal.SIGTERM, _terminate)
        print(
            f"repro compile service listening on {server.url} "
            f"(workers={config.workers}, queue_limit={config.queue_limit}, "
            f"cache={config.cache_dir or 'disabled'})",
            flush=True,
        )
        try:
            serve_forever(server)
        except KeyboardInterrupt:
            pass
        finally:
            service.close()
    if args.trace:
        _write_trace(obs.tracer, args.trace)
    stats = service.stats()
    print(
        f"served {stats['requests']} request(s): "
        f"{stats['cache_hits']} hit(s), {stats['cache_misses']} miss(es), "
        f"{stats['coalesced']} coalesced, {stats['errors']} error(s)"
    )
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    import json
    import sys

    from repro.service import ServiceClient

    request = _submit_request(args)
    outcome = ServiceClient(args.url, timeout=args.timeout).compile(request)
    if args.json:
        print(json.dumps(outcome.to_dict(), indent=2))
    if outcome.ok:
        if not args.json:
            artifact = outcome.artifact or {}
            cost = (artifact.get("cost") or {}).get("total_us")
            print(f"{outcome.status}  digest={outcome.digest[:16]}…  "
                  f"latency={outcome.latency_ms:.2f}ms"
                  + (f"  cost={cost:.1f}us" if cost is not None else ""))
            if outcome.trace_id:
                print(f"  trace_id={outcome.trace_id}  "
                      f"(fetch: repro fleet trace {outcome.trace_id})")
            for line in artifact.get("mappings", []):
                print(f"  {line}")
        return 0
    error = outcome.error
    print(
        f"error: {error.error_type}: {error.message}", file=sys.stderr
    )
    if error.failure_report is not None:
        from repro.resilience import FailureReport
        from repro.resilience.reports import write_failure_report

        path = write_failure_report(
            FailureReport.from_dict(error.failure_report), args.report_dir
        )
        print(
            f"failure report written to {path}; replay locally with "
            f"`python -m repro replay-failure {path}`",
            file=sys.stderr,
        )
    return error.exit_code


def _submit_request(args: argparse.Namespace):
    """Build the CompileRequest shared by ``submit`` and ``fleet submit``."""
    import json

    from repro.service import CompileRequest

    app = args.app
    sizes_args = list(args.sizes)
    # With --program the app positional is unused, so argparse puts the
    # first k=v binding there; reclaim it as a size.
    if args.program is not None and app is not None and "=" in app:
        sizes_args.insert(0, app)
        app = None
    if (app is None) == (args.program is None):
        raise RuntimeConfigError(
            "submit needs an app name or --program FILE (not both)"
        )
    program_ir = None
    if args.program:
        try:
            with open(args.program) as fh:
                program_ir = json.load(fh)
        except (OSError, ValueError) as exc:
            raise RuntimeConfigError(
                f"cannot load serialized program {args.program!r}: {exc}"
            )
    deadline_s = getattr(args, "deadline_s", None)
    from repro.optim.pipeline import OptimizationFlags

    return CompileRequest(
        app=app,
        program_ir=program_ir,
        sizes=_parse_sizes(sizes_args),
        strategy=args.strategy,
        device=args.device,
        flags=OptimizationFlags.from_names(
            getattr(args, "disable_opt", None)
        ),
        deadline_s=deadline_s if deadline_s and deadline_s > 0 else None,
    )


def cmd_fleet_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.observability import capture
    from repro.service import FleetConfig, local_fleet
    from repro.service.http import make_server, serve_forever

    cache_dir = (
        None if args.cache_dir.lower() in ("", "none") else args.cache_dir
    )
    fleet_config = FleetConfig(
        lru_capacity=args.lru_capacity,
        retries=args.retries,
        dispatchers=args.dispatchers,
        cache_dir=cache_dir,
        probe_interval_s=args.probe_interval_s,
    )
    import repro.apps  # noqa: F401 - load the app registry before serving

    with capture() as obs:
        if args.subprocess:
            # Deployment shape: each backend is a separate `repro serve`
            # process, so traces stitch across real process boundaries.
            from repro.service import spawn_http_fleet

            if cache_dir is None:
                raise RuntimeConfigError(
                    "--subprocess requires a shared --cache-dir"
                )
            extra = ["--queue-limit", str(args.queue_limit)]
            if args.deadline_s > 0:
                extra += ["--deadline-s", str(args.deadline_s)]
            router = spawn_http_fleet(
                args.backends,
                cache_dir,
                args.log_dir,
                fleet_config=fleet_config,
                workers=args.workers,
                extra_args=extra,
            )
        else:
            router = local_fleet(
                args.backends,
                cache_dir,
                fleet_config=fleet_config,
                workers=args.workers,
                queue_limit=args.queue_limit,
                deadline_s=args.deadline_s if args.deadline_s > 0 else None,
            )
        server = make_server(router, args.host, args.port)

        def _terminate(*_args: object) -> None:
            raise KeyboardInterrupt

        signal.signal(signal.SIGTERM, _terminate)
        print(
            f"repro compile fleet listening on {server.url} "
            f"(backends={args.backends}, workers/backend={args.workers}, "
            f"lru={fleet_config.lru_capacity}, "
            f"cache={cache_dir or 'disabled'})",
            flush=True,
        )
        try:
            serve_forever(server)
        except KeyboardInterrupt:
            pass
        finally:
            router.close()
    if args.trace:
        _write_trace(obs.tracer, args.trace)
    stats = router.stats()
    print(
        f"routed {stats['requests']} request(s): "
        f"{stats['lru_hits']} LRU hit(s), {stats['store_hits']} store "
        f"hit(s), {stats['misses']} dispatched, "
        f"{stats['coalesced']} coalesced, {stats['reroutes']} "
        f"rerouted, {stats['errors']} error(s)"
    )
    return 0


def cmd_fleet_submit(args: argparse.Namespace) -> int:
    import json
    import threading

    from repro.service import ServiceClient
    from repro.service.admission import latency_summary

    request = _submit_request(args)
    payload = request.to_dict()
    count = max(1, args.count)
    outcomes = [None] * count
    failures = [None] * count

    def one(index: int) -> None:
        client = ServiceClient(
            args.url, timeout=args.timeout, retries=args.retries
        )
        try:
            outcomes[index] = client.compile(payload)
        except ReproError as exc:
            failures[index] = exc

    threads = [
        threading.Thread(target=one, args=(i,)) for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if count == 1:
        if failures[0] is not None:
            raise failures[0]
        outcome = outcomes[0]
        if args.json:
            print(json.dumps(outcome.to_dict(), indent=2))
        else:
            print(
                f"{outcome.status}  digest={outcome.digest[:16]}…  "
                f"latency={outcome.latency_ms:.2f}ms"
                + (
                    f"  served_by={outcome.served_by}"
                    if outcome.served_by
                    else ""
                )
            )
            if outcome.trace_id:
                print(f"  trace_id={outcome.trace_id}  "
                      f"(fetch: repro fleet trace {outcome.trace_id} "
                      f"--url {args.url})")
        return 0 if outcome.ok else outcome.error.exit_code
    done = [o for o in outcomes if o is not None]
    statuses: dict = {}
    served: dict = {}
    for outcome in done:
        statuses[outcome.status] = statuses.get(outcome.status, 0) + 1
        if outcome.served_by:
            served[outcome.served_by] = served.get(outcome.served_by, 0) + 1
    latencies = sorted(o.latency_ms for o in done)
    summary = {
        "submitted": count,
        "completed": len(done),
        "transport_failures": sum(1 for f in failures if f is not None),
        "statuses": statuses,
        "served_by": served,
        "digests": len({o.digest for o in done}),
        "latency_ms": latency_summary(latencies),
    }
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(
            f"{summary['completed']}/{count} completed "
            f"({summary['transport_failures']} transport failure(s)); "
            f"statuses={statuses}; served_by={served}; "
            f"p50={summary['latency_ms']['p50']:.2f}ms "
            f"p99={summary['latency_ms']['p99']:.2f}ms"
        )
    failed = [o for o in done if not o.ok]
    if failures != [None] * count or failed:
        return 1
    return 0


def cmd_fleet_stats(args: argparse.Namespace) -> int:
    import json

    from repro.service import ServiceClient

    payload = ServiceClient(args.url, timeout=args.timeout).stats()
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        service = payload.get("service", {})
        print(f"compile fleet at {args.url}:")
        for key in sorted(service):
            if key in ("backends", "reroutes_saturation",
                       "reroutes_transport"):
                continue
            value = service[key]
            if key == "reroutes":
                # The split tells an operator which knob to turn: a
                # saturated fleet needs capacity, a broken one repair.
                value = (
                    f"{value} (saturation "
                    f"{service.get('reroutes_saturation', 0)}, transport "
                    f"{service.get('reroutes_transport', 0)})"
                )
            print(f"  {key}: {value}")
        for name in sorted(service.get("backends") or {}):
            entry = service["backends"][name]
            breaker = entry.get("breaker") or {}
            state = (
                breaker.get("state") if isinstance(breaker, dict)
                else breaker
            )
            print(
                f"  backend {name}: alive={entry.get('alive')} "
                f"breaker={state} served={entry.get('served', 0)} "
                f"failures={entry.get('failures', 0)} "
                f"(saturation {entry.get('failures_saturation', 0)}, "
                f"transport {entry.get('failures_transport', 0)}) "
                f"rerouted_from={entry.get('reroutes_from', 0)}"
            )
    return 0


def cmd_fleet_trace(args: argparse.Namespace) -> int:
    import json
    import sys

    from repro.observability import validate_chrome_trace
    from repro.service import ServiceClient

    client = ServiceClient(args.url, timeout=args.timeout)
    document = client.trace(args.trace_id, raw=args.raw)
    if document is None:
        print(
            f"error: no events for trace {args.trace_id!r} at {args.url}",
            file=sys.stderr,
        )
        return 1
    if not args.raw:
        problems = validate_chrome_trace(document)
        if problems:
            print(
                f"error: stitched trace failed validation: "
                f"{'; '.join(problems)}",
                file=sys.stderr,
            )
            return 1
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(document, fh, indent=2)
            fh.write("\n")
        events = document.get("events" if args.raw else "traceEvents", [])
        kind = "fragment" if args.raw else "stitched trace"
        print(
            f"wrote {args.output} ({kind}, {len(events)} events; "
            "load it in https://ui.perfetto.dev)"
        )
    else:
        print(json.dumps(document, indent=2))
    return 0


def cmd_fleet_top(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient
    from repro.service.dashboard import run_fleet_top

    client = ServiceClient(args.url, timeout=args.timeout)
    try:
        return run_fleet_top(
            client,
            interval_s=args.interval_s,
            iterations=1 if args.once else None,
            clear=not args.once,
        )
    except KeyboardInterrupt:
        return 0


def cmd_fleet_events(args: argparse.Namespace) -> int:
    import json
    import time as _time

    from repro.service import ServiceClient

    client = ServiceClient(args.url, timeout=args.timeout)

    def emit(events: list) -> None:
        for event in events:
            if args.json:
                print(json.dumps(event))
            else:
                seq = event.get("seq")
                kind = event.get("kind", "?")
                rest = " ".join(
                    f"{k}={v}"
                    for k, v in sorted(event.items())
                    if k not in ("seq", "kind", "ts") and v is not None
                )
                print(f"#{seq} {kind}  {rest}")

    snapshot = client.events(since=args.since)
    emit(snapshot.get("events", []))
    dropped = snapshot.get("dropped", 0)
    if dropped and not args.json:
        print(f"({dropped} earlier event(s) dropped by the bounded log)")
    if not args.follow:
        return 0
    cursor = snapshot.get("next_seq", 0)
    try:
        while True:
            _time.sleep(args.interval_s)
            snapshot = client.events(since=cursor - 1)
            emit(snapshot.get("events", []))
            cursor = max(cursor, snapshot.get("next_seq", cursor))
    except KeyboardInterrupt:
        return 0


def cmd_fleet_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.resilience.faults import FLEET_FAULT_KINDS
    from repro.resilience.fleet_chaos import run_fleet_chaos_matrix

    kinds = args.kind or list(FLEET_FAULT_KINDS)
    unknown = [k for k in kinds if k not in FLEET_FAULT_KINDS]
    if unknown:
        raise RuntimeConfigError(
            f"unknown fleet fault kind(s) {', '.join(unknown)}; "
            f"known: {', '.join(FLEET_FAULT_KINDS)}"
        )
    result = run_fleet_chaos_matrix(
        kinds=kinds,
        seed=args.seed,
        wave=args.wave,
        progress=print if args.verbose else None,
        out_dir=args.out,
    )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.describe())
    return 0 if result.ok else 1


def cmd_cache(args: argparse.Namespace) -> int:
    import json

    from repro.service import ArtifactStore

    store = ArtifactStore(args.cache_dir)
    if args.action == "clear":
        cleared = store.clear()
        print(f"cleared {cleared} artifact(s) from {args.cache_dir}")
        return 0
    if args.action == "list":
        digests = sorted(store.digests())
        if args.json:
            print(json.dumps(digests, indent=2))
        else:
            for digest in digests:
                print(digest)
            print(f"{len(digests)} artifact(s) in {args.cache_dir}")
        return 0
    stats = store.stats()
    if args.json:
        print(json.dumps(stats, indent=2))
    else:
        print(f"artifact store at {args.cache_dir}:")
        for key in sorted(stats):
            print(f"  {key}: {stats[key]}")
    return 0


def _load_recipe_ref(ref: str, cache_dir: Optional[str]):
    """Resolve a recipe reference: a JSON file, or a content digest in an
    artifact store (the recipe subtree, or embedded in an artifact)."""
    import os

    from repro.optim.passes import Recipe, load_recipe
    from repro.service.store import is_valid_digest

    if os.path.isfile(ref):
        return load_recipe(ref)
    if is_valid_digest(ref):
        from repro.service import ArtifactStore

        if not cache_dir or not os.path.isdir(cache_dir):
            raise RuntimeConfigError(
                f"{ref!r} looks like a content digest but there is no "
                f"artifact store at {cache_dir!r} (pass --cache-dir)"
            )
        store = ArtifactStore(cache_dir)
        data = store.get_recipe(ref)
        if data is not None:
            return Recipe.from_json(data)
        artifact = store.get(ref)
        if artifact is not None and artifact.get("recipe") is not None:
            return Recipe.from_json(artifact["recipe"])
        raise RuntimeConfigError(
            f"no recipe for digest {ref} in {cache_dir}"
        )
    raise RuntimeConfigError(
        f"recipe reference {ref!r} is neither a readable file nor a "
        "64-hex content digest"
    )


def _recipe_program(recipe, program_file: Optional[str]):
    """The source program a recipe replays against.

    ``--program FILE`` supplies serialized IR; otherwise the recipe's
    program name is resolved as a registered app.  Either way the IR is
    canonicalized, matching what the service compiled (binder names are
    part of the plan-state digests).
    """
    from repro.ir.serialize import canonicalize_program

    if program_file is not None:
        import json

        from repro.ir.serialize import program_from_dict

        try:
            with open(program_file) as fh:
                program = program_from_dict(json.load(fh))
        except (OSError, ValueError) as exc:
            raise RuntimeConfigError(
                f"cannot load serialized program {program_file!r}: {exc}"
            )
        return canonicalize_program(program)
    from repro.apps import resolve_app

    return canonicalize_program(resolve_app(recipe.program).build())


def _compile_app_recipe(
    app_name: str,
    sizes_args: List[str],
    strategy: str,
    disable: Optional[List[str]],
):
    """Compile an app locally and return its emitted recipe."""
    from repro.apps import merge_params, resolve_app
    from repro.ir.serialize import canonicalize_program
    from repro.optim.pipeline import OptimizationFlags
    from repro.runtime import GpuSession

    app = resolve_app(app_name)
    sizes = merge_params(app, _parse_sizes(sizes_args))
    session = GpuSession(
        strategy=strategy, flags=OptimizationFlags.from_names(disable)
    )
    compiled = session.compile(canonicalize_program(app.build()), **sizes)
    return compiled.recipe()


def _render_recipe(recipe) -> str:
    lines = [
        f"recipe {recipe.content_digest()}",
        f"  program: {recipe.program}   device: {recipe.device}   "
        f"strategy: {recipe.strategy}",
        f"  pipeline_version: {recipe.pipeline_version}",
    ]
    if recipe.sizes:
        lines.append(
            "  sizes: "
            + ", ".join(f"{k}={v}" for k, v in sorted(recipe.sizes.items()))
        )
    if recipe.flags:
        lines.append(
            "  flags: "
            + ", ".join(
                f"{k}={'on' if v else 'off'}"
                for k, v in sorted(recipe.flags.items())
            )
        )
    for kernel in recipe.kernels:
        if kernel.degraded:
            lines.append(
                f"  kernel {kernel.index}: DEGRADED "
                "(plan substituted; not replayable)"
            )
            continue
        lines.append(
            f"  kernel {kernel.index}: plan {kernel.plan_digest[:12]}…"
        )
        for record in kernel.passes:
            status = (
                "applied" if record.applied
                else f"skipped ({record.skip_reason})"
            )
            params = f"  params={record.params}" if record.params else ""
            lines.append(
                f"    {record.name:<14} {status:<26} "
                f"{record.pre_digest[:8]} -> {record.post_digest[:8]}"
                f"{params}"
            )
    return "\n".join(lines)


def cmd_recipe_show(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.service.store import is_valid_digest

    ref = args.ref
    if os.path.isfile(ref) or is_valid_digest(ref):
        if args.sizes or args.disable_opt:
            raise RuntimeConfigError(
                "size bindings and --disable-opt only apply when REF is "
                "an app name (stored recipes are immutable records)"
            )
        recipe = _load_recipe_ref(ref, args.cache_dir)
    else:
        recipe = _compile_app_recipe(
            ref, list(args.sizes), args.strategy, args.disable_opt
        )
    if args.output:
        recipe.write(args.output)
        print(f"wrote {args.output}")
    if args.json:
        print(json.dumps(recipe.to_json(), indent=2, sort_keys=True))
    else:
        print(_render_recipe(recipe))
    return 0


def cmd_recipe_diff(args: argparse.Namespace) -> int:
    from repro.optim.passes import recipe_diff

    recipe_a = _load_recipe_ref(args.a, args.cache_dir)
    recipe_b = _load_recipe_ref(args.b, args.cache_dir)
    lines = recipe_diff(recipe_a, recipe_b)
    if not lines:
        print(
            f"recipes are identical (content digest "
            f"{recipe_a.content_digest()[:16]}…)"
        )
        return 0
    print(
        f"recipes differ ({recipe_a.content_digest()[:12]}… vs "
        f"{recipe_b.content_digest()[:12]}…):"
    )
    for line in lines:
        print(f"  {line}")
    return 1


def cmd_recipe_replay(args: argparse.Namespace) -> int:
    import json

    from repro.optim.passes import verify_recipe

    recipe = _load_recipe_ref(args.ref, args.cache_dir)
    program = _recipe_program(recipe, args.program)
    summary = verify_recipe(program, recipe)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(
            f"replayed {summary['replayed']}/{summary['kernels']} "
            f"kernel(s) byte-identically"
            + (
                f" ({summary['skipped_degraded']} degraded skipped)"
                if summary["skipped_degraded"]
                else ""
            )
        )
        print(f"  recipe digest: {summary['recipe_digest']}")
        print(f"  cuda bytes:    {summary['cuda_bytes']}")
        if summary["fresh_recipe_digest"] != summary["recipe_digest"]:
            print(
                "  note: a fresh compile emits a different recipe digest "
                f"({summary['fresh_recipe_digest'][:12]}…) — flags or "
                "pipeline version drifted since this recipe was recorded"
            )
    return 0


def cmd_recipe_tune(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import analyze_program
    from repro.apps import merge_params
    from repro.gpusim import decide_mapping, default_device
    from repro.optim.passes import autotune_pass_order
    from repro.resilience.budget import Budget

    app = _resolve_app(args.app)
    sizes = merge_params(app, _parse_sizes(args.sizes))
    device = default_device()
    pa = analyze_program(app.build(), **sizes)
    payload = []
    for index, ka in enumerate(pa.kernels):
        decision = decide_mapping(ka, args.strategy, device)
        budget = (
            Budget(max_nodes=args.budget) if args.budget else None
        )
        result = autotune_pass_order(
            ka,
            decision.mapping,
            device,
            env=pa.env,
            keep_top=args.top,
            budget=budget,
        )
        if args.json:
            payload.append({
                "kernel": index,
                "mapping": str(decision.mapping),
                "enumerated": result.enumerated,
                "distinct": result.distinct,
                "rejected_nonfinite": result.rejected_nonfinite,
                "degraded": result.degraded,
                "default": {
                    "passes": list(result.default.passes),
                    "time_us": result.default.time_us,
                },
                "best": {
                    "passes": list(result.best.passes),
                    "time_us": result.best.time_us,
                    "delta_us": result.best.delta_us,
                },
                "frontier": [
                    {
                        "passes": list(r.passes),
                        "time_us": r.time_us,
                        "delta_us": r.delta_us,
                        "equivalent_orderings": r.equivalent_orderings,
                        "mapping": r.mapping,
                    }
                    for r in result.frontier
                ],
            })
            continue
        print(
            f"=== kernel {index} (mapping {decision.mapping}) ==="
        )
        print(
            f"{result.enumerated} feasible ordering(s), "
            f"{result.distinct} distinct outcome(s) priced"
            + (
                f" [{result.degraded_reason}]" if result.degraded else ""
            )
        )
        for entry in result.frontier:
            print("  " + entry.describe())
        if result.improvement_us > 0:
            print(
                f"  best ordering beats the default by "
                f"{result.improvement_us:.3f} us"
            )
        else:
            print("  the default production ordering is already optimal")
        print()
    if args.json:
        print(json.dumps(payload, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="package overview").set_defaults(fn=cmd_info)
    sub.add_parser("apps", help="list benchmark apps").set_defaults(
        fn=cmd_apps
    )

    def add_disable_opt_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--disable-opt", action="append", default=None, metavar="PASS",
            help="disable this optimization pass (repeatable; one of "
                 "prealloc, layout, shared_memory)",
        )

    p_map = sub.add_parser("map", help="show analysis for an app")
    p_map.add_argument("app")
    p_map.add_argument("sizes", nargs="*", help="size bindings k=v")
    p_map.add_argument("--strategy", default="multidim")
    p_map.add_argument(
        "--explain", action="store_true",
        help="print each kernel's provenance record (verdicts, top "
        "candidates, search telemetry) and the baselines' scores",
    )
    add_disable_opt_flag(p_map)
    p_map.set_defaults(fn=cmd_map)

    p_cuda = sub.add_parser("cuda", help="dump generated CUDA for an app")
    p_cuda.add_argument("app")
    p_cuda.add_argument("sizes", nargs="*", help="size bindings k=v")
    p_cuda.add_argument("--strategy", default="multidim")
    p_cuda.add_argument("--host", action="store_true",
                        help="include the host driver (complete .cu)")
    p_cuda.add_argument("-o", "--output", default=None)
    p_cuda.set_defaults(fn=cmd_cuda)

    p_fig = sub.add_parser("figures", help="print experiment tables")
    p_fig.add_argument("ids", nargs="*")
    p_fig.add_argument(
        "--csv-dir", default=None,
        help="also write each experiment's rows as CSV into this directory",
    )
    p_fig.add_argument(
        "--plot", action="store_true",
        help="render bar charts instead of tables",
    )
    p_fig.set_defaults(fn=cmd_figures)

    p_rep = sub.add_parser(
        "report", help="markdown compilation report for an app"
    )
    p_rep.add_argument("app")
    p_rep.add_argument("sizes", nargs="*", help="size bindings k=v")
    p_rep.add_argument("--strategy", default="multidim")
    p_rep.add_argument("-o", "--output", default=None)
    p_rep.set_defaults(fn=cmd_report)

    p_exp = sub.add_parser("experiments", help="regenerate EXPERIMENTS.md")
    p_exp.add_argument("-o", "--output", default="EXPERIMENTS.md")
    p_exp.add_argument("-v", "--verbose", action="store_true",
                       help="print a line per finished experiment")
    p_exp.set_defaults(fn=cmd_experiments)

    p_dt = sub.add_parser(
        "difftest", help="differential-execution fuzzing campaign"
    )
    p_dt.add_argument("--seed", type=int, default=0,
                      help="campaign seed (default 0)")
    p_dt.add_argument("--budget", type=int, default=50,
                      help="number of random programs (default 50); "
                      "coverage templates run in addition")
    p_dt.add_argument("--out", default=None,
                      help="directory for failing-reproducer artifacts")
    p_dt.add_argument("--corpus", action="append", default=None,
                      metavar="FILE",
                      help="also replay specs from a corpus file "
                      "(repeatable)")
    p_dt.add_argument("--save-corpus", default=None, metavar="FILE",
                      help="write this campaign's spec stream to a "
                      "corpus file")
    p_dt.add_argument("--replay", action="append", default=None,
                      metavar="FILE",
                      help="re-check the shrunk spec from a reproducer "
                      "artifact instead of running a campaign")
    p_dt.add_argument("-v", "--verbose", action="store_true",
                      help="print a line per checked program")
    p_dt.add_argument("--checkpoint", default=None, metavar="FILE",
                      help="resume/record campaign progress in this file")
    p_dt.add_argument("--retries", type=int, default=0,
                      help="retry a crashed check this many times with "
                      "jittered backoff (default 0)")
    p_dt.add_argument("--trace", default=None, metavar="FILE",
                      help="record the campaign as a Chrome trace "
                      "artifact")
    p_dt.set_defaults(fn=cmd_difftest)

    p_ch = sub.add_parser(
        "chaos", help="run the fault-injection matrix through the pipeline"
    )
    p_ch.add_argument("app", nargs="?", default="sumRows")
    p_ch.add_argument("sizes", nargs="*", help="size bindings k=v "
                      "(unspecified sizes are clamped to 64)")
    p_ch.add_argument("--strategy", default="multidim")
    p_ch.add_argument("--seed", type=int, default=0)
    p_ch.add_argument("--stage", action="append", default=None,
                      help="only these stages (repeatable)")
    p_ch.add_argument("--kind", action="append", default=None,
                      help="only these fault kinds (repeatable)")
    p_ch.add_argument("--out", default=None,
                      help="directory for failure-report artifacts")
    p_ch.add_argument("--trace", default=None, metavar="FILE",
                      help="record the whole matrix run as a Chrome "
                      "trace artifact")
    p_ch.add_argument("-v", "--verbose", action="store_true",
                      help="print a line per matrix cell")
    p_ch.set_defaults(fn=cmd_chaos)

    p_rf = sub.add_parser(
        "replay-failure",
        help="re-execute pipeline failures from report artifacts",
    )
    p_rf.add_argument("reports", nargs="+", metavar="FILE",
                      help="failure-report JSON artifacts")
    p_rf.set_defaults(fn=cmd_replay_failure)

    p_tr = sub.add_parser(
        "trace", help="trace an app's compile/estimate/run pipeline"
    )
    p_tr.add_argument("app")
    p_tr.add_argument("sizes", nargs="*", help="size bindings k=v "
                      "(unspecified sizes are clamped to 64)")
    p_tr.add_argument("--strategy", default="multidim")
    p_tr.add_argument("--seed", type=int, default=0)
    p_tr.add_argument("--no-run", action="store_true",
                      help="skip the functional interpreter run")
    p_tr.add_argument("-o", "--output", default="trace.json",
                      help="trace artifact path (default trace.json)")
    p_tr.add_argument("--provenance", default=None, metavar="FILE",
                      help="also write the mapping-provenance JSON")
    p_tr.add_argument("--stats", action="store_true",
                      help="also print the metrics-registry snapshot")
    p_tr.set_defaults(fn=cmd_trace)

    p_st = sub.add_parser(
        "stats", help="metrics-registry snapshot for one compile"
    )
    p_st.add_argument("app", nargs="?", default=None)
    p_st.add_argument("sizes", nargs="*", help="size bindings k=v "
                      "(unspecified sizes are clamped to 64)")
    p_st.add_argument("--strategy", default="multidim")
    p_st.add_argument("--json", action="store_true",
                      help="machine-readable snapshot")
    p_st.add_argument("--url", default=None, metavar="URL",
                      help="query a running compile server's /v1/stats "
                      "instead of compiling locally")
    p_st.add_argument("--timeout", type=float, default=30.0,
                      help="HTTP timeout for --url queries (seconds)")
    p_st.set_defaults(fn=cmd_stats)

    p_ex = sub.add_parser(
        "explain", help="render a saved mapping-provenance artifact"
    )
    p_ex.add_argument("artifact", metavar="FILE",
                      help="provenance JSON written by `repro trace "
                      "--provenance`")
    p_ex.set_defaults(fn=cmd_explain)

    from repro import config as _config

    p_sv = sub.add_parser(
        "serve", help="run the JSON-over-HTTP compile service"
    )
    p_sv.add_argument("--host", default=_config.DEFAULT_SERVICE_HOST)
    p_sv.add_argument("--port", type=int,
                      default=_config.DEFAULT_SERVICE_PORT,
                      help=f"TCP port; 0 picks an ephemeral one "
                      f"(default {_config.DEFAULT_SERVICE_PORT})")
    p_sv.add_argument("--workers", type=int,
                      default=_config.DEFAULT_SERVICE_WORKERS,
                      help="compile worker threads "
                      f"(default {_config.DEFAULT_SERVICE_WORKERS})")
    p_sv.add_argument("--queue-limit", type=int,
                      default=_config.DEFAULT_SERVICE_QUEUE_LIMIT,
                      help="bounded admission: in-flight + queued cap "
                      f"(default {_config.DEFAULT_SERVICE_QUEUE_LIMIT})")
    p_sv.add_argument("--cache-dir",
                      default=_config.DEFAULT_SERVICE_CACHE_DIR,
                      help="persistent artifact store root; 'none' "
                      "disables persistence "
                      f"(default {_config.DEFAULT_SERVICE_CACHE_DIR})")
    p_sv.add_argument("--deadline-s", type=float,
                      default=_config.DEFAULT_REQUEST_DEADLINE_S,
                      help="per-request search deadline with conservative "
                      "fallback; <=0 disables "
                      f"(default {_config.DEFAULT_REQUEST_DEADLINE_S})")
    p_sv.add_argument("--max-nodes", type=int, default=None,
                      help="per-request search node budget")
    p_sv.add_argument("--trace", default=None, metavar="FILE",
                      help="write a Chrome trace of every request on "
                      "shutdown")
    p_sv.set_defaults(fn=cmd_serve)

    p_sub = sub.add_parser(
        "submit", help="send one compile request to a running server"
    )
    p_sub.add_argument("app", nargs="?", default=None)
    p_sub.add_argument("sizes", nargs="*", help="size bindings k=v")
    p_sub.add_argument("--program", default=None, metavar="FILE",
                       help="serialized program JSON instead of an app "
                       "name")
    p_sub.add_argument("--strategy", default="multidim")
    p_sub.add_argument("--device", default=None,
                       help="modeled device name (default: server's "
                       "default device)")
    p_sub.add_argument("--url", metavar="URL",
                       default=f"http://{_config.DEFAULT_SERVICE_HOST}:"
                       f"{_config.DEFAULT_SERVICE_PORT}")
    p_sub.add_argument("--timeout", type=float, default=120.0)
    p_sub.add_argument("--deadline-s", type=float, default=None,
                       help="request budget propagated to the server; "
                       "expired work is shed with a typed 504 outcome "
                       "and exit code 75 (<=0 or unset: no deadline)")
    p_sub.add_argument("--json", action="store_true",
                       help="print the full outcome JSON")
    p_sub.add_argument("--report-dir", default="failure-reports",
                       help="where server-side failure reports are saved "
                       "for replay (default failure-reports/)")
    add_disable_opt_flag(p_sub)
    p_sub.set_defaults(fn=cmd_submit)

    p_ca = sub.add_parser(
        "cache", help="inspect or clear the on-disk artifact store"
    )
    p_ca.add_argument("action", choices=("stats", "list", "clear"))
    p_ca.add_argument("--cache-dir",
                      default=_config.DEFAULT_SERVICE_CACHE_DIR)
    p_ca.add_argument("--json", action="store_true")
    p_ca.set_defaults(fn=cmd_cache)

    p_rc = sub.add_parser(
        "recipe",
        help="transformation recipes: show, diff, replay, tune pass order",
    )
    rc_sub = p_rc.add_subparsers(dest="recipe_command", required=True)

    rc_show = rc_sub.add_parser(
        "show",
        help="render a recipe from a JSON file, a store digest, or a "
        "fresh compile of an app",
    )
    rc_show.add_argument("ref", help="recipe JSON file, 64-hex content "
                         "digest, or registered app name")
    rc_show.add_argument("sizes", nargs="*",
                         help="size bindings k=v (app refs only)")
    rc_show.add_argument("--strategy", default="multidim")
    add_disable_opt_flag(rc_show)
    rc_show.add_argument("--cache-dir",
                         default=_config.DEFAULT_SERVICE_CACHE_DIR,
                         help="artifact store to resolve digest refs in")
    rc_show.add_argument("-o", "--output", default=None, metavar="FILE",
                         help="also write the recipe JSON here")
    rc_show.add_argument("--json", action="store_true")
    rc_show.set_defaults(fn=cmd_recipe_show)

    rc_diff = rc_sub.add_parser(
        "diff", help="compare two recipes (exit 1 when they differ)"
    )
    rc_diff.add_argument("a", help="recipe JSON file or store digest")
    rc_diff.add_argument("b", help="recipe JSON file or store digest")
    rc_diff.add_argument("--cache-dir",
                         default=_config.DEFAULT_SERVICE_CACHE_DIR)
    rc_diff.set_defaults(fn=cmd_recipe_diff)

    rc_rep = rc_sub.add_parser(
        "replay",
        help="re-execute a recipe pass-by-pass, checking every recorded "
        "state digest and asserting byte-identical plans and CUDA",
    )
    rc_rep.add_argument("ref", help="recipe JSON file or store digest")
    rc_rep.add_argument("--program", default=None, metavar="FILE",
                        help="serialized program JSON (default: resolve "
                        "the recipe's program name as a registered app)")
    rc_rep.add_argument("--cache-dir",
                        default=_config.DEFAULT_SERVICE_CACHE_DIR)
    rc_rep.add_argument("--json", action="store_true")
    rc_rep.set_defaults(fn=cmd_recipe_replay)

    rc_tn = rc_sub.add_parser(
        "tune",
        help="price every feasible pass ordering/subset per kernel and "
        "report modeled-cost deltas vs the production pipeline",
    )
    rc_tn.add_argument("app")
    rc_tn.add_argument("sizes", nargs="*", help="size bindings k=v")
    rc_tn.add_argument("--strategy", default="multidim")
    rc_tn.add_argument("--top", type=int, default=10,
                       help="frontier entries to report per kernel "
                       "(default 10)")
    rc_tn.add_argument("--budget", type=int, default=None,
                       help="max orderings executed per kernel; "
                       "exhaustion returns best-so-far (degraded)")
    rc_tn.add_argument("--json", action="store_true")
    rc_tn.set_defaults(fn=cmd_recipe_tune)

    p_fl = sub.add_parser(
        "fleet",
        help="digest-sharded compile fleet: router over N backends",
    )
    fl_sub = p_fl.add_subparsers(dest="fleet_command", required=True)

    fl_sv = fl_sub.add_parser(
        "serve", help="run a fleet of compile backends behind one router"
    )
    fl_sv.add_argument("--backends", type=int,
                       default=_config.DEFAULT_FLEET_BACKENDS,
                       help="in-process backend services "
                       f"(default {_config.DEFAULT_FLEET_BACKENDS})")
    fl_sv.add_argument("--host", default=_config.DEFAULT_SERVICE_HOST)
    fl_sv.add_argument("--port", type=int,
                       default=_config.DEFAULT_SERVICE_PORT,
                       help="router TCP port; 0 picks an ephemeral one")
    fl_sv.add_argument("--workers", type=int, default=2,
                       help="compile worker threads per backend "
                       "(default 2)")
    fl_sv.add_argument("--queue-limit", type=int,
                       default=_config.DEFAULT_SERVICE_QUEUE_LIMIT,
                       help="per-backend admission bound")
    fl_sv.add_argument("--lru-capacity", type=int,
                       default=_config.DEFAULT_FLEET_LRU_CAPACITY,
                       help="hot in-memory artifact entries; 0 disables "
                       f"(default {_config.DEFAULT_FLEET_LRU_CAPACITY})")
    fl_sv.add_argument("--retries", type=int,
                       default=_config.DEFAULT_FLEET_RETRIES,
                       help="reroute attempts on backend death/503 "
                       f"(default {_config.DEFAULT_FLEET_RETRIES})")
    fl_sv.add_argument("--dispatchers", type=int,
                       default=_config.DEFAULT_FLEET_DISPATCHERS,
                       help="router dispatch threads "
                       f"(default {_config.DEFAULT_FLEET_DISPATCHERS})")
    fl_sv.add_argument("--cache-dir",
                       default=_config.DEFAULT_SERVICE_CACHE_DIR,
                       help="shared artifact store root; 'none' disables")
    fl_sv.add_argument("--deadline-s", type=float,
                       default=_config.DEFAULT_REQUEST_DEADLINE_S,
                       help="per-request search deadline; <=0 disables")
    fl_sv.add_argument("--probe-interval-s", type=float,
                       default=_config.DEFAULT_FLEET_PROBE_INTERVAL_S,
                       help="background health-probe cadence driving "
                       "the per-backend circuit breakers; <=0 disables "
                       f"(default {_config.DEFAULT_FLEET_PROBE_INTERVAL_S})")
    fl_sv.add_argument("--subprocess", action="store_true",
                       help="run each backend as its own `repro serve` "
                       "process (deployment shape: real sockets, "
                       "cross-process trace stitching)")
    fl_sv.add_argument("--log-dir", default="fleet-logs",
                       help="per-backend server logs for --subprocess "
                       "(default fleet-logs)")
    fl_sv.add_argument("--trace", default=None, metavar="FILE",
                       help="write a Chrome trace on shutdown")
    fl_sv.set_defaults(fn=cmd_fleet_serve)

    fl_sub_p = fl_sub.add_parser(
        "submit",
        help="send one request (or --count N concurrent copies) to a "
        "running fleet",
    )
    fl_sub_p.add_argument("app", nargs="?", default=None)
    fl_sub_p.add_argument("sizes", nargs="*", help="size bindings k=v")
    fl_sub_p.add_argument("--program", default=None, metavar="FILE")
    fl_sub_p.add_argument("--strategy", default="multidim")
    fl_sub_p.add_argument("--device", default=None)
    fl_sub_p.add_argument("--url", metavar="URL",
                          default=f"http://{_config.DEFAULT_SERVICE_HOST}:"
                          f"{_config.DEFAULT_SERVICE_PORT}")
    fl_sub_p.add_argument("--count", type=int, default=1,
                          help="concurrent identical submissions "
                          "(default 1)")
    fl_sub_p.add_argument("--retries", type=int, default=0,
                          help="client transport retries with jittered "
                          "backoff (default 0)")
    fl_sub_p.add_argument("--timeout", type=float, default=120.0)
    fl_sub_p.add_argument("--deadline-s", type=float, default=None,
                          help="request budget propagated through the "
                          "router to the backends; expired work is shed "
                          "with a typed 504 outcome and exit code 75")
    fl_sub_p.add_argument("--json", action="store_true")
    add_disable_opt_flag(fl_sub_p)
    fl_sub_p.set_defaults(fn=cmd_fleet_submit)

    fl_ch = fl_sub.add_parser(
        "chaos",
        help="run fleet fault campaigns: kill/hang/slow/partition a "
        "backend, assert zero lost tickets and prober readmission",
    )
    fl_ch.add_argument("--kind", action="append", default=None,
                       help="fault kind(s) to run (default: all of "
                       "kill, hang, slow, partition)")
    fl_ch.add_argument("--seed", type=int, default=0,
                       help="deterministic seed: picks the victim and "
                       "the request set (default 0)")
    fl_ch.add_argument("--wave", type=int, default=6,
                       help="requests per campaign wave (default 6)")
    fl_ch.add_argument("--out", default=None, metavar="DIR",
                       help="write a JSON report per failing campaign")
    fl_ch.add_argument("--json", action="store_true",
                       help="print the full result JSON")
    fl_ch.add_argument("-v", "--verbose", action="store_true",
                       help="print each campaign as it completes")
    fl_ch.set_defaults(fn=cmd_fleet_chaos)

    fl_st = fl_sub.add_parser(
        "stats", help="query a running fleet router's /v1/stats"
    )
    fl_st.add_argument("--url", metavar="URL",
                       default=f"http://{_config.DEFAULT_SERVICE_HOST}:"
                       f"{_config.DEFAULT_SERVICE_PORT}")
    fl_st.add_argument("--timeout", type=float, default=30.0)
    fl_st.add_argument("--json", action="store_true")
    fl_st.set_defaults(fn=cmd_fleet_stats)

    fl_tr = fl_sub.add_parser(
        "trace",
        help="fetch one request's stitched distributed trace by "
        "trace_id (Perfetto-loadable, with cross-process parent links)",
    )
    fl_tr.add_argument("trace_id", help="32-hex trace id printed by "
                       "submit / found in exemplars and events")
    fl_tr.add_argument("--url", metavar="URL",
                       default=f"http://{_config.DEFAULT_SERVICE_HOST}:"
                       f"{_config.DEFAULT_SERVICE_PORT}")
    fl_tr.add_argument("--timeout", type=float, default=30.0)
    fl_tr.add_argument("-o", "--output", default=None, metavar="FILE",
                       help="write the trace JSON here instead of stdout")
    fl_tr.add_argument("--raw", action="store_true",
                       help="fetch the server's unstitched fragment "
                       "instead of the stitched document")
    fl_tr.set_defaults(fn=cmd_fleet_trace)

    fl_top = fl_sub.add_parser(
        "top",
        help="live terminal dashboard: per-backend load, breaker "
        "state, hit/reroute/shed rates, latency quantiles + exemplars",
    )
    fl_top.add_argument("--url", metavar="URL",
                        default=f"http://{_config.DEFAULT_SERVICE_HOST}:"
                        f"{_config.DEFAULT_SERVICE_PORT}")
    fl_top.add_argument("--timeout", type=float, default=10.0)
    fl_top.add_argument("--interval-s", type=float,
                        default=_config.DEFAULT_FLEET_TOP_INTERVAL_S,
                        help="refresh cadence "
                        f"(default {_config.DEFAULT_FLEET_TOP_INTERVAL_S})")
    fl_top.add_argument("--once", action="store_true",
                        help="render one frame and exit (no screen "
                        "clearing; scripts/CI)")
    fl_top.set_defaults(fn=cmd_fleet_top)

    fl_ev = fl_sub.add_parser(
        "events",
        help="dump the fleet's structured control-plane event log "
        "(breaker trips, reroutes, sheds, queue rejections, quarantines)",
    )
    fl_ev.add_argument("--url", metavar="URL",
                       default=f"http://{_config.DEFAULT_SERVICE_HOST}:"
                       f"{_config.DEFAULT_SERVICE_PORT}")
    fl_ev.add_argument("--timeout", type=float, default=10.0)
    fl_ev.add_argument("--since", type=int, default=None,
                       help="only events with seq > SINCE")
    fl_ev.add_argument("--follow", action="store_true",
                       help="poll for new events until interrupted")
    fl_ev.add_argument("--interval-s", type=float,
                       default=_config.DEFAULT_EVENT_FOLLOW_INTERVAL_S,
                       help="poll cadence with --follow "
                       f"(default {_config.DEFAULT_EVENT_FOLLOW_INTERVAL_S})")
    fl_ev.add_argument("--json", action="store_true",
                       help="one JSON object per line")
    fl_ev.set_defaults(fn=cmd_fleet_events)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    import sys

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # stdout piped into a pager/head that exited early; not an error.
        return 0
    except ReproError as exc:
        # Typed pipeline errors map onto distinct exit codes; a failure
        # report, when attached, tells the user how to replay the error.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        report_path = getattr(exc, "failure_report_path", None)
        if report_path:
            print(
                f"failure report written to {report_path}; re-run with "
                f"`python -m repro replay-failure {report_path}`",
                file=sys.stderr,
            )
        elif getattr(exc, "failure_report", None) is not None:
            print(exc.failure_report.describe(), file=sys.stderr)
        return exit_code_for(exc)
