"""Command-line front end: the source-to-source tool as a tool.

``python -m repro --help`` lists the subcommands and ``python -m repro
CMD --help`` their flags.  One table, :data:`COMMANDS`, declares every
subcommand; a flag two subcommands share is declared once, in
:data:`SHARED`.  The analyzing subcommands walk their targets through one
loop, :func:`_each_target`.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

from .core import compile_pipeline, compile_variant
from .engines import TRACE_ENGINES, engine_spec
from .core.pm import PASSES, PIPELINES, describe_pipeline, resolve_pipeline
from .harness import (
    NORMALIZED_HEADERS,
    TIMING_HEADERS,
    RunRequest,
    TraceCache,
    format_table,
    machine_for,
    merge_json_artifact,
    normalized_rows,
    run,
    timing_rows,
    variant_chunks,
)
from .lang import (
    AnalysisError,
    Program,
    ReproError,
    SimulationError,
    parse,
    to_source,
    validate,
)
from .memsim import ENGINES
from .memsim.geometry import CacheGeometry
from .obs import (
    REGISTRY,
    SCHEMA_VERSION,
    MetricsRegistry,
    SpanCollector,
    TraceConfig,
    format_metric_delta,
    format_span_tree,
    list_runs,
    summarize_run,
    validate_event,
)
from .programs import fft, registry
from .programs.registry import MachineSpec
from .tune import ENABLERS as TUNE_ENABLERS
from .verify import PassLegalityError, PassVerifier, Severity, lint_program, verify_pass


class _Unreadable(Exception):
    """An input file that is missing, unreadable or malformed (exit 2)."""


def _read(path: str, decode: Callable[[str], object] = str):
    """The one reader of text inputs (sources, JSON baselines): a file
    that cannot be read or decoded is ``error: cannot read PATH: …``."""
    try:
        return decode(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise _Unreadable(f"cannot read {path}: {exc}") from None


def _load_program(path: str) -> Program:
    return validate(parse(_read(path)))


def _read_stream(path: str):
    """A stream file (``.ast`` or CSV), under :func:`_read`'s convention."""
    from .stream import read_stream

    try:
        return read_stream(path)
    except (OSError, ValueError) as exc:
        raise _Unreadable(f"cannot read {path}: {exc}") from None


def _bindings(text: str) -> dict[str, int]:
    """argparse type: ``NAME=INT[,NAME=INT...]`` size bindings."""
    out: dict[str, int] = {}
    for piece in text.split(","):
        name, _, value = piece.partition("=")
        try:
            if not name.strip():
                raise ValueError("empty name")
            out[name.strip()] = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad binding {piece!r}; expected NAME=INT"
            ) from None
    return out


def _int_list(text: str) -> tuple[int, ...]:
    """argparse type: comma-separated integers."""
    out = []
    for piece in text.split(","):
        try:
            out.append(int(piece))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad integer {piece!r}; expected INT[,INT...]"
            ) from None
    return tuple(out)


def _schedule_spec(spec: str) -> str:
    """argparse type: validate an OpenMP schedule spec up front."""
    from .static import parse_schedule

    try:
        parse_schedule(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return spec


def _thread_count(text: str) -> int:
    """argparse type: a thread count the MSI automaton can model."""
    from .memsim.coherence import check_threads

    try:
        return check_threads(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _MergeBindings(argparse.Action):
    """Repeated ``-p`` flags accumulate into one binding dict."""

    def __call__(self, parser, namespace, values, option_string=None):
        merged = dict(getattr(namespace, self.dest) or {})
        merged.update(values)
        setattr(namespace, self.dest, merged)


def _target(
    args: argparse.Namespace, spec: Optional[str] = None, sized: bool = False
) -> registry.Target:
    """The one CLI target resolution: a bundled name (registry app,
    study program, ``fft``) or a source file, parsed here, both through
    :func:`repro.programs.registry.resolve_target`.  ``sized`` commands
    trace the program, so a file must come with ``-p`` sizes."""
    spec = spec or args.target
    program = spec if registry.is_bundled(spec) else _load_program(spec)
    if sized and args.param is None and not isinstance(program, str):
        raise SystemExit(f"{args.command} on a source file requires -p NAME=INT")
    return registry.resolve_target(program, args.param, args.steps)


def _each_target(args: argparse.Namespace, analyze, gap: bool = True) -> list:
    """The one target loop of the analyzing subcommands.

    The targets are the positional one(s), after every registry program
    under ``--all-apps``.  ``analyze(spec)`` returns ``(payload, text)``;
    unless ``--json`` the text prints as it comes (a blank line between
    targets when ``gap``).  A target its analysis cannot handle
    (:class:`AnalysisError`) is skipped with a note on stderr, so
    ``--json`` stdout stays JSON.  Returns the payloads in target order.
    """
    given = [args.target] if isinstance(args.target, str) else args.target or []
    specs = given
    if args.all_apps:
        specs = registry.names() + [s for s in given if s not in registry.names()]
    if not specs:
        raise SystemExit(
            f"{args.command} needs one or more programs (files or app names) "
            f"or --all-apps"
        )
    payloads = []
    for spec in specs:
        try:
            payload, text = analyze(spec)
        except AnalysisError as exc:
            print(f"{args.command} {spec}: skipped ({exc})", file=sys.stderr)
            continue
        if text is not None and not args.json:
            if gap and payloads:
                print()
            print(text)
        payloads.append(payload)
    return payloads


def _print_json(payloads: list) -> None:
    """One target's payload as an object, several as a list."""
    print(json.dumps(payloads[0] if len(payloads) == 1 else payloads, indent=2))


def _at_level(program: Program, level: Optional[str]) -> Program:
    """``program`` compiled to ``level`` (as written when None)."""
    return compile_variant(program, level).program if level else program


def _sizes(params: Mapping[str, int]) -> str:
    return ", ".join(f"{k}={v}" for k, v in params.items())


def _parse_passes(args: argparse.Namespace):
    """The ``--passes a,b,c`` override as a pipeline spec (or None)."""
    if not args.passes:
        return None
    return resolve_pipeline([n.strip() for n in args.passes.split(",")])


def _baseline(args: argparse.Namespace):
    """The committed ``--baseline`` JSON a ``--check`` gates (None without
    ``--check``), read before anything is measured."""
    if not args.check:
        return None
    if not args.baseline:
        raise SystemExit(f"{args.command} --check requires --baseline FILE")
    return _read(args.baseline, json.loads)


def cmd_fuse(args: argparse.Namespace) -> int:
    variant = compile_variant(_load_program(args.file), args.level)
    print(to_source(variant.program), end="")
    if not args.verbose:
        return 0
    notes = []
    if variant.fusion_report is not None:
        notes.append(variant.fusion_report.summary())
    if variant.regroup is not None:
        notes.append(variant.regroup.describe())
        if args.param:
            placements = variant.layout(args.param).placements
            notes.append(
                f"placements at {args.param} (element offsets / strides):\n"
                + "\n".join(
                    f"  {name}: offset {p.offset}, strides {p.strides}"
                    for name, p in sorted(placements.items())
                )
            )
    for note in notes:
        print("\n# " + note.replace("\n", "\n# "), file=sys.stderr)
    return 0


def _run(args: argparse.Namespace, levels, **options):
    """``run()`` on the (sized) target under the shared measuring flags."""
    target = _target(args, sized=True)
    return target, run(
        RunRequest(
            program=target.program,
            levels=levels,
            pipeline=_parse_passes(args),
            params=target.params,
            machine=target.machine_spec,
            steps=target.steps,
            name=target.name,
            engine=args.engine,
            cache=args.cache_dir or args.cache,
            verify=args.verify,
            **options,
        )
    ).results


def cmd_report(args: argparse.Namespace) -> int:
    target, results = _run(args, args.levels.split(","))
    if registry.is_bundled(args.target):
        title = f"{target.name} (registry application, scaled machine)"
    else:
        title = f"{target.name} ({args.target})"
    print(format_table(NORMALIZED_HEADERS, normalized_rows(results), title=title))
    if args.bandwidth:
        from .memsim import BANDWIDTH_HEADERS, bandwidth_rows

        print()
        print(
            format_table(
                BANDWIDTH_HEADERS,
                bandwidth_rows(results),
                title="effective bandwidth (memory traffic, DRAM row "
                "buffer, energy)",
            )
        )
    if args.parallelism:
        print()
        print(_parallelism_table(target, results, args.threads))
    if args.coherence:
        print()
        print(_coherence_table(target, results, args.threads))
    if args.timings:
        print()
        print(
            format_table(
                TIMING_HEADERS,
                timing_rows(results),
                title="per-stage seconds ('-' = served from cache)",
            )
        )
    return 0


def _parallelism_table(target, results, threads: int) -> str:
    """Per-level axis verdicts + predicted multicore misses for a report."""
    from .static import analyze_parallelism, analyze_program, predict_multicore

    geometry = CacheGeometry.from_spec(target.machine_spec)
    l1, l2 = geometry.l1_elems, geometry.l2_elems
    headers = (
        "level", "doall", "reduction", "serial", "par nests",
        f"L1p misses ({l1})", f"L2s misses ({l2})",
    )
    rows: list[list[object]] = []
    for r in results:
        if r.variant is None:
            continue
        prof = analyze_parallelism(r.variant.program, r.params)
        pred = predict_multicore(
            analyze_program(r.variant.program, steps=target.steps), prof,
            dict(prof.params), threads=threads,
        )
        counts = prof.counts()
        outer = sum(1 for v in prof.verdicts if v.depth == 0)
        rows.append([
            r.level,
            counts["doall"],
            counts["reduction"],
            counts["serial"],
            f"{len(prof.parallel_nests())}/{outer}",
            f"{pred.private_miss_count(l1):.0f}",
            f"{pred.shared_miss_count(l2):.0f}",
        ])
    return format_table(
        headers, rows,
        title=f"parallelism & multicore prediction "
        f"({threads} threads, static schedule)",
    )


def _coherence_table(target, results, threads: int) -> str:
    """Per-level predicted coherence behaviour for a report."""
    from .static import analyze_coherence

    headers = (
        "level", "invalidations", "true", "false",
        "shared lines", "upgrades",
    )
    rows: list[list[object]] = []
    for r in results:
        if r.variant is None:
            continue
        try:
            prof = analyze_coherence(
                r.variant.program, dict(r.params), threads=threads,
                steps=target.steps, witnesses=False,
            )
        except AnalysisError:
            rows.append([r.level, "-", "-", "-", "-", "-"])
            continue
        rows.append([
            r.level,
            prof.total_invalidations,
            prof.true_invalidations,
            prof.false_invalidations,
            sum(a.shared_lines for a in prof.arrays),
            prof.upgrades,
        ])
    return format_table(
        headers, rows,
        title=f"coherence prediction ({threads} threads, static schedule, "
        f"line granularity)",
    )


def cmd_trace_export(args: argparse.Namespace) -> int:
    """Trace one (program, level) and write the address stream to disk
    (binary: each chunk as it is traced, its segments at their periods)."""
    from .stream import AddressStream, write_stream_csv
    from .stream.io import StreamWriter

    target = _target(args, sized=True)
    name = f"{target.program.name}/{args.level}"
    out = Path(args.output)
    as_csv = args.format == "csv" or (args.format == "auto" and out.suffix == ".csv")
    with nullcontext() if as_csv else StreamWriter(out) as writer:
        chunks = list(variant_chunks(
            compile_variant(target.program, args.level),
            target.params, target.steps, args.engine, name=name, sink=writer,
        ))
    stream = AddressStream.concat(chunks, name)
    if as_csv:
        write_stream_csv(out, stream)
    print(
        f"wrote {out} ({'csv' if as_csv else 'binary'}): {len(stream):,} "
        f"accesses, {int(stream.writes.sum()):,} writes, "
        f"fingerprint {stream.fingerprint()}"
    )
    return 0


def cmd_trace_import(args: argparse.Namespace) -> int:
    """Load a stream from disk (ours or foreign CSV) and simulate it."""
    from .engines import resolve_engines
    from .memsim import (
        BANDWIDTH_HEADERS,
        MACHINES,
        bandwidth_row,
        simulate_stream,
    )

    stream = _read_stream(args.file)
    if args.machine:
        machine = MACHINES[args.machine]()
    elif args.app:
        machine = machine_for(registry.get(args.app).machine_spec)
    else:
        machine = machine_for(MachineSpec())
    engine = resolve_engines(args.engine).sim
    try:
        stats = simulate_stream(stream, machine, engine=engine)
    except SimulationError as exc:  # e.g. element keys, not byte addresses
        raise _Unreadable(f"cannot read {args.file}: {exc}") from None
    if not stream.meta.has_geometry:
        print(
            "S501 trace imported without geometry metadata: simulating "
            "under the shared machine geometry (32 B L1 / 128 B L2 lines, "
            "8 B elements); see 'repro lint --explain S501'",
            file=sys.stderr,
        )
    print(f"{args.file}: {stream!r}")
    print(
        f"{machine.name}: L1 misses {stats.l1_misses:,}, "
        f"L2 misses {stats.l2_misses:,}, TLB misses {stats.tlb_misses:,}, "
        f"writebacks {stats.l2_writebacks:,}"
    )
    print(
        format_table(
            BANDWIDTH_HEADERS,
            [bandwidth_row(stream.meta.name, stats)],
            title="effective bandwidth",
        )
    )
    if args.reuse:
        from .locality import COLD, ReuseHistogram, miss_count, reuse_distances

        elem = stream.meta.elem_bytes or 8
        ids = (
            stream.addresses // elem
            if stream.meta.unit == "bytes"
            else stream.addresses
        )
        started = time.perf_counter()
        try:
            distances = reuse_distances(ids)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
        seconds = time.perf_counter() - started
        reuse = distances[distances != COLD]
        mean = float(reuse.mean()) if len(reuse) else 0.0
        print(
            f"exact reuse (element granularity): {len(reuse):,} reuses, "
            f"{len(distances) - len(reuse):,} cold, mean distance {mean:,.1f}"
        )
        print(ReuseHistogram.from_distances(distances).format_ascii())
        capacities = {
            "L1": machine.l1.size_bytes // elem,
            "L2": machine.l2.size_bytes // elem,
        }
        print(
            f"fully-associative misses at {machine.name} capacities: "
            + ", ".join(
                f"{name} ({capacity:,} elements) {miss_count(distances, capacity):,}"
                for name, capacity in capacities.items()
            )
        )
        # the profile's cost beside what it buys (Fauzia et al.'s overhead column)
        print(
            f"reuse analysis: {seconds:.3f} s, "
            f"{len(distances) / max(seconds, 1e-9):,.0f} accesses/s"
        )
    return 0


def cmd_trace_info(args: argparse.Namespace) -> int:
    """Print a stream file's metadata without simulating it."""
    stream = _read_stream(args.file)
    meta = stream.meta
    print(f"{args.file}: {stream!r}")
    print(f"  fingerprint: {stream.fingerprint()}")
    print(f"  meta: {json.dumps(meta.to_json(), sort_keys=True)}")
    if meta.unit != "bytes":
        print(f"  unit: {meta.unit} - no byte addresses, 'trace import' refuses it")
    elif not meta.has_geometry:
        print("  geometry: MISSING (S501) - simulation will assume defaults")
    return 0


#: the §6 program set ``bench-membw`` reports by default
MEMBW_APPS = "swim,tomcatv,adi,sp,sweep3d,fft"

#: sizes that differ from the resolver's defaults: fft at the §2.2 study size
MEMBW_PARAMS = {"fft": {"n": fft.DEFAULT_N}}


def _membw_roundtrip(args: argparse.Namespace) -> list[str]:
    """Export -> import -> re-simulate must reproduce the direct stats."""
    from .engines import resolve_engines
    from .memsim import simulate_stream
    from .stream import AddressStream, read_stream, write_stream, write_stream_csv

    failures: list[str] = []
    target = registry.resolve_target("adi")
    selection = resolve_engines(args.engine)
    stream = AddressStream.concat(list(variant_chunks(
        compile_variant(target.program, "new"),
        target.params,
        target.steps,
        selection,
        name="adi/new",
    )), "adi/new")
    machine = machine_for(target.machine_spec)
    direct = simulate_stream(stream, machine, engine=selection.sim)
    with tempfile.TemporaryDirectory(prefix="repro-membw-") as tmp:
        for fmt, writer in (("binary", write_stream), ("csv", write_stream_csv)):
            path = Path(tmp) / ("t.ast" if fmt == "binary" else "t.csv")
            writer(path, stream)
            loaded = read_stream(path)
            if loaded.fingerprint() != stream.fingerprint():
                failures.append(f"round-trip ({fmt}): stream fingerprint changed")
                continue
            replayed = simulate_stream(loaded, machine, engine=selection.sim)
            if replayed != direct:
                failures.append(
                    f"round-trip ({fmt}): simulation diverged after "
                    f"export/import ({replayed} != {direct})"
                )
    return failures


def cmd_bench_membw(args: argparse.Namespace) -> int:
    """Effective-bandwidth report across the §6 program set.

    Per program and level: memory traffic in bytes (the paper's "data
    transferred", as actual quantities), the effective bandwidth over
    the synthesized run time, and the DRAM row-buffer/energy behaviour.
    ``--json-out`` merges the machine-readable rows into
    ``BENCH_membw.json``; ``--check --baseline FILE`` re-derives every
    committed row and verifies the export/import round trip instead.
    """
    from .memsim import BANDWIDTH_HEADERS, bandwidth_record, bandwidth_rows

    baseline = _baseline(args)
    apps = args.apps.split(",")
    levels = args.levels.split(",")
    records: dict[str, dict] = {}
    for app in apps:
        results = run(
            RunRequest(
                program=app,
                levels=levels,
                params=MEMBW_PARAMS.get(app),
                engine=args.engine,
            )
        ).results
        print(
            format_table(
                BANDWIDTH_HEADERS,
                bandwidth_rows(results),
                title=f"{app} effective bandwidth",
            )
        )
        if app != apps[-1]:
            print()
        for r in results:
            records[f"{app}/{r.level}"] = bandwidth_record(app, r.level, r.stats)

    exit_code = 0
    if baseline is not None:
        baseline = baseline.get("results", {})
        failures: list[str] = []
        for key, expected in sorted(baseline.items()):
            got = records.get(key)
            if got is None:
                failures.append(f"{key}: committed row was not re-measured")
            elif got != expected:
                diffs = [
                    f"{f}: {expected[f]} -> {got[f]}"
                    for f in expected
                    if got.get(f) != expected[f]
                ]
                failures.append(f"{key}: {'; '.join(diffs)}")
        failures.extend(_membw_roundtrip(args))
        print()
        if failures:
            print("bench-membw --check: bandwidth regressions detected:")
            for line in failures:
                print(f"  {line}")
            exit_code = 1
        else:
            print(
                f"bench-membw --check ok: {len(baseline)} committed row(s) "
                f"reproduce exactly; trace export/import round-trips to "
                f"identical simulation"
            )
    if args.json_out:
        merged = merge_json_artifact(
            args.json_out,
            records,
            {"benchmark": "effective memory bandwidth and DRAM behaviour"},
            key="results",
        )
        print(f"\nwrote {args.json_out} ({len(merged)} row(s))")
    return exit_code


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile one (program, level) run: span tree, metrics, peak memory."""
    target, (result,) = _run(
        args, (args.level,), trace=TraceConfig(memory=not args.no_memory)
    )
    _profile_analyses(result, target.steps, args.static)
    if args.json:
        events = [sp.to_event() for sp in result.spans]
        for event in events:
            validate_event(event)
        print(
            json.dumps(
                {
                    "v": SCHEMA_VERSION,
                    "program": result.program,
                    "level": result.level,
                    "params": dict(result.params),
                    "seconds": round(result.seconds, 9),
                    "spans": events,
                    "metrics": result.metrics,
                },
                indent=2,
            )
        )
        return 0
    title = (
        f"{result.program}/{result.level} "
        f"(params {dict(result.params)}; seconds{' / peak MB' if not args.no_memory else ''})"
    )
    print(format_span_tree(result.spans, title=title))
    print()
    print(format_metric_delta(result.metrics))
    summary = _analysis_cache_summary(result.metrics)
    if summary:
        print()
        print(summary)
    print(
        f"\ntotal {result.seconds:.3f}s | trace {result.trace_length:,} accesses"
    )
    return 0


def _profile_analyses(result, steps: int, static: bool) -> None:
    """Fold the trace-free analyses into a profile result.

    Runs the static parallelism analyzer over the compiled variant in
    its own span/metrics window — and with ``--static`` the symbolic
    reuse profile and the coherence analyzer too (opt-in: the reuse
    ladder takes about 2.2 s on sp's fused levels) — and merges their spans
    and ``analysis.*`` work counters into the run's profile, so ``repro
    profile`` shows the analyzers next to compile/trace/simulate.
    """
    from .static import analyze_coherence, analyze_parallelism, analyze_program

    if result.variant is None:
        return
    program, params = result.variant.program, dict(result.params)
    before = REGISTRY.snapshot()
    collector = SpanCollector()
    with collector:
        parallelism = analyze_parallelism(program, params)
        if static:
            analyze_program(program, steps=steps)
            analyze_coherence(
                program, params, steps=steps, parallelism=parallelism
            )
    delta = MetricsRegistry.delta(before, REGISTRY.snapshot())
    counters = result.metrics.setdefault("counters", {})
    for key, value in delta.get("counters", {}).items():
        counters[key] = counters.get(key, 0) + value
    result.metrics.setdefault("gauges", {}).update(delta.get("gauges", {}))
    result.spans = list(result.spans) + collector.events


def _analysis_cache_summary(delta) -> str:
    """One-look effectiveness of fusion's access memo from a metrics delta."""
    counters = delta.get("counters", {}) if delta else {}
    hits = int(counters.get("analysis.cache.hits", 0))
    misses = int(counters.get("analysis.cache.misses", 0))
    if not hits + misses:
        return ""
    return (
        f"analysis cache: {hits} hits, {misses} misses "
        f"({100.0 * hits / (hits + misses):.0f}% hit rate)"
    )


def cmd_runs(args: argparse.Namespace) -> int:
    """List past run logs (``runs/<id>/events.jsonl``) with summaries."""
    run_dirs = list_runs(args.runs_root)
    summaries = [summarize_run(d) for d in run_dirs]
    if args.json:
        print(json.dumps({"v": SCHEMA_VERSION, "runs": summaries}, indent=2))
        return 0
    if not summaries:
        root = args.runs_root or "runs"
        print(f"no run logs under {root}/ (enable with TraceConfig(events=True))")
        return 0
    headers = ("run", "started", "specs", "seconds", "events", "slowest")
    rows: list[list[object]] = []
    for s in summaries:
        slowest = s.get("slowest")
        started = s.get("started")
        rows.append(
            [
                s["run_id"],
                (
                    time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(started))
                    if started
                    else "-"
                ),
                f"{s.get('completed', 0)}/{s.get('total', 0)}",
                s.get("seconds", 0.0),
                s["events"],
                (
                    f"{slowest['program']}/{slowest['level']} "
                    f"{slowest['seconds']:.2f}s"
                    if slowest
                    else "-"
                ),
            ]
        )
    print(format_table(headers, rows, title="recorded runs (schema v1 event logs)"))
    return 0


def _diag_counts(bag) -> dict[str, int]:
    """Per-code diagnostic counts, the unit of the lint baseline."""
    counts: dict[str, int] = {}
    for d in bag:
        counts[d.code] = counts.get(d.code, 0) + 1
    return counts


def cmd_lint(args: argparse.Namespace) -> int:
    from .verify.codes import explain_code, format_code_table

    if args.explain:
        print(explain_code(args.explain))
        return 0
    if args.codes:
        print(format_code_table())
        return 0
    accepted = _read(args.baseline, json.loads) if args.baseline else None

    def analyze(spec):
        target = _target(args, spec)
        program = target.program
        bag = lint_program(program, assume=args.assume)
        if args.static:
            from .static import lint_static
            from .verify import lint_coherence, lint_races

            bag.extend(
                lint_static(program, steps=target.steps, assume=args.assume)
            )
            bag.extend(lint_races(program))
            bag.extend(lint_coherence(program, steps=target.steps))
        text = None if args.write_baseline else f"lint {program.name}:\n{bag.render()}"
        return (program.name, bag), text

    bags = dict(_each_target(args, analyze, gap=False))

    if args.write_baseline:
        baseline = {name: _diag_counts(bag) for name, bag in bags.items()}
        Path(args.write_baseline).write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n"
        )
        total = sum(sum(c.values()) for c in baseline.values())
        print(
            f"wrote {args.write_baseline}: {total} accepted diagnostic(s) "
            f"across {len(baseline)} program(s)"
        )
        return 0

    regressions: list[str] = []
    if accepted is not None:
        for name, bag in bags.items():
            known = accepted.get(name, {})
            for code, count in sorted(_diag_counts(bag).items()):
                if count > int(known.get(code, 0)):
                    regressions.append(
                        f"{name}: {code} x{count} "
                        f"(baseline {int(known.get(code, 0))})"
                    )

    if args.json:
        if len(bags) == 1 and not args.baseline:
            # single program, no baseline: the original flat payload
            ((name, bag),) = bags.items()
            print(bag.to_json(program=name))
        else:
            payload = {
                "programs": {
                    name: json.loads(bag.to_json())
                    for name, bag in bags.items()
                },
                "regressions": regressions,
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
    elif regressions:
        print("\nnew diagnostics not in baseline:")
        for line in regressions:
            print(f"  {line}")

    if regressions:
        return 1
    if any(bag.has_errors() for bag in bags.values()):
        return 1
    # with a baseline the baseline is the contract; without one, warnings
    # fail only under --strict
    if args.strict and not args.baseline:
        if any(bag.warnings for bag in bags.values()):
            return 1
    return 0


def cmd_static_reuse(args: argparse.Namespace) -> int:
    """Print the symbolic reuse profile — computed without any trace."""
    from .static import analyze_program

    target = _target(args)
    program = _at_level(target.program, args.level)
    before = REGISTRY.snapshot()
    profile = analyze_program(program, steps=target.steps, assume=args.assume)
    counters = MetricsRegistry.delta(before, REGISTRY.snapshot())["counters"]
    traced = sum(v for k, v in counters.items() if k.startswith("trace."))
    static_runs = float(counters.get("analysis.static.runs", 0))

    if args.json:
        payload = profile.to_json(args.param)
        payload["metrics"] = {
            "analysis.static.runs": static_runs,
            "trace.accesses": traced,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(profile.render(args.param))
        print(
            f"# analysis.static.runs +{static_runs:g}; "
            f"trace events generated: {traced:g}"
        )
    return 0 if traced == 0 else 1


def cmd_parallelism(args: argparse.Namespace) -> int:
    """Classify every loop axis; optionally predict multicore misses."""
    from .static import analyze_parallelism, analyze_program, predict_multicore

    def analyze(spec):
        target = _target(args, spec)
        program = _at_level(target.program, args.level)
        profile = analyze_parallelism(program, args.param)
        entry: dict[str, object] = {"parallelism": profile.as_dict()}
        summary = ", ".join(f"{v} {k}" for k, v in profile.counts().items() if v)
        lines = [
            f"parallelism {profile.program_name} at "
            f"{_sizes(dict(profile.params))}: {summary or 'no loops'}"
        ]
        lines += [f"  {v.describe()}" for v in profile.verdicts]
        if args.threads:
            pred = predict_multicore(
                analyze_program(program, steps=target.steps),
                profile,
                dict(profile.params),
                threads=args.threads,
                schedule=args.schedule,
            )
            entry["multicore"] = pred.as_dict()
            geometry = CacheGeometry.from_spec(target.machine_spec)
            lines.append(pred.render(geometry.l1_elems, geometry.l2_elems))
        return entry, "\n".join(lines)

    entries = _each_target(args, analyze)
    if args.json:
        _print_json(entries)
    axes = [a for e in entries for a in e["parallelism"]["axes"]]
    unknown = sum(a["verdict"] == "unknown" for a in axes)
    inexact = sum(not a["exact"] and a["verdict"] != "unknown" for a in axes)
    if args.check:
        print(
            f"parallelism --check: {unknown} unknown, {inexact} inexact "
            f"of {len(axes)} axis verdict(s)",
            file=sys.stderr,
        )
        return 1 if unknown or inexact else 0
    return 0


def cmd_coherence(args: argparse.Namespace) -> int:
    """Static coherence prediction: invalidation misses, sharing, witnesses."""
    from .static import analyze_coherence

    def analyze(spec):
        target = _target(args, spec)
        profile = analyze_coherence(
            _at_level(target.program, args.level),
            args.param,
            threads=args.threads,
            schedule=args.schedule,
            steps=target.steps,
        )
        return profile.as_dict(), profile.render()

    payloads = _each_target(args, analyze)
    if args.json:
        _print_json(payloads)
    return 0


def cmd_verify_pass(args: argparse.Namespace) -> int:
    if args.before or args.after:
        if not (args.before and args.after):
            raise SystemExit("--before and --after must be given together")
        before = _load_program(args.before)
        after = _load_program(args.after)
        entry = PASSES.get(args.pass_name)  # any other name certifies strictly
        bag = verify_pass(
            before, after, pass_name=args.pass_name, params=args.param,
            strict=entry is None or entry.strict, steps=args.steps,
        )
        if args.json:
            print(bag.to_json(before=before.name, after=after.name,
                              certified=not bag.has_errors()))
        elif bag.has_errors():
            print(f"ILLEGAL: {args.pass_name} broke the dependence structure")
            print(bag.render(min_severity=Severity.ERROR))
        else:
            print(
                f"certified: {args.pass_name} preserves all dependences "
                f"({before.name} -> {after.name})"
            )
        return 1 if bag.has_errors() else 0

    args.all_apps = not args.target  # bare verify-pass certifies every program
    pipeline = _parse_passes(args)
    levels = [pipeline.name] if pipeline is not None else args.levels.split(",")

    def analyze(spec):
        program = _target(args, spec).program
        results, lines = [], []
        for level in levels:
            verifier = PassVerifier(args.param, steps=args.steps)
            try:
                if pipeline is not None:
                    compile_pipeline(program, pipeline, verify=verifier)
                else:
                    compile_variant(program, level, verify=verifier)
                error = None
            except PassLegalityError as exc:
                error = exc
            passes = [name for name, _ in verifier.history]
            results.append({
                "program": program.name,
                "level": level,
                "passes": passes,
                "certified": error is None,
                "diagnostics": (
                    [d.to_json() for d in error.bag] if error else []
                ),
            })
            if error is None:
                lines.append(
                    f"ok {program.name}/{level}: "
                    f"{len(passes)} pass(es) certified "
                    f"({', '.join(passes) or 'none'})"
                )
            else:
                broken = passes[-1] if passes else level
                lines.append(f"ILLEGAL {program.name}/{level}: pass {broken!r}")
                lines.append(error.bag.render(min_severity=Severity.ERROR))
        return results, "\n".join(lines)

    results = [r for rs in _each_target(args, analyze, gap=False) for r in rs]
    failures = sum(not r["certified"] for r in results)
    if args.json:
        print(json.dumps({"results": results, "failures": failures}, indent=2))
    return 1 if failures else 0


def cmd_cache(args: argparse.Namespace) -> int:
    cache = TraceCache(args.cache_dir)
    if args.clear:
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.root}/")
    info = cache.info()
    print(
        f"{cache.root}/: {info['traces']} traces, {info['results']} results, "
        f"{info['tune']} tune scores, {info['bytes'] / 1e6:.1f} MB"
    )
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    """Introspect the pass and pipeline tables."""
    if args.json:
        from .core.pm import registry_to_json, spec_to_json

        if args.describe:
            print(json.dumps(spec_to_json(resolve_pipeline(args.describe)), indent=2))
        else:
            print(json.dumps(registry_to_json(), indent=2))
        return 0
    if args.describe:
        spec = resolve_pipeline(args.describe)
        print(describe_pipeline(spec))
        return 0
    for name, spec in PIPELINES.items():
        passes = " -> ".join(s.describe() for s in spec.steps)
        print(f"  {name:16s} {spec.description}")
        print(f"  {'':16s}   {passes}")
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    """Autotune pass pipelines per program by statically predicted misses."""
    from .tune import TuneRequest, check_baseline, tune

    cache = args.cache_dir or not args.no_cache
    baseline = _baseline(args)
    if baseline is not None:
        failures = check_baseline(baseline)
        if failures:
            print("tune --check: predicted-miss regressions detected:")
            for line in failures:
                print(f"  {line}")
            return 1
        n = len(baseline.get("programs", {}))
        print(
            f"tune --check ok: {n} program(s), tuned pipelines predict no "
            "more misses than any named level"
        )
        return 0

    sizes = ([args.param] if args.param else []) + (args.at or []) or None

    def analyze(spec):
        result = tune(TuneRequest(
            program=spec if registry.is_bundled(spec) else _load_program(spec),
            sizes=sizes,
            steps=args.steps,
            objective=args.objective,
            threads=args.threads,
            schedule=args.schedule,
            enablers=tuple(args.enablers.split(",")) if args.enablers else (),
            fusion_levels=args.fusion_levels,
            regroup=not args.no_regroup,
            max_candidates=args.max_candidates,
            top_k=args.top_k,
            validate_top=not args.no_validate,
            engine=args.engine,
            cache=cache,
            verify=not args.no_verify,
            trace=TraceConfig(events=True, runs_root=args.runs_root)
            if args.events
            else None,
        ))
        best = result.best
        verdict = (
            "STRICT WIN over every named level"
            if result.strict_win
            else "a grid candidate ties the best named level"
            if best.kind == "candidate"
            else "a named level is already optimal in this grid"
        )
        lines = [
            result.table(),
            f"best: {best.signature} -> {best.score:.0f} predicted misses "
            f"({verdict}; {len(result.candidates)} candidates, "
            f"{result.seconds:.1f}s)",
        ]
        if result.rank_agreement is not None:
            lines.append(
                f"dynamic validation (top {len(result.validated)}): "
                f"static ranking "
                f"{'confirmed' if result.rank_agreement else 'NOT confirmed'}"
            )
        return (spec, result), "\n".join(lines)

    results = _each_target(args, analyze)
    payload = {r.program: {**r.to_json(), "target": spec} for spec, r in results}
    if args.json:
        print(json.dumps({"programs": payload}, indent=2))
    if args.json_out:
        merged = merge_json_artifact(
            args.json_out,
            payload,
            {
                "benchmark": "static-profile pipeline autotuning",
                "objective": args.objective,
            },
        )
        print(f"wrote {args.json_out} ({len(merged)} program(s))")
    return 1 if any(r.rank_agreement is False for _, r in results) else 0


def _arg(*flags: str, **options) -> tuple:
    """One ``add_argument`` call, as data."""
    return flags, options


#: every bundled program with its default sizes, for the ``target`` help
_BUNDLED = ", ".join(
    f"{name} ({_sizes(registry.get(name).default_params)})"
    for name in registry.names()
) + f", fft ({_sizes(registry.FFT_DEFAULT_PARAMS)})"

#: every argument two subcommands share, declared once
SHARED = {
    "target": _arg("target", help="a source file or a bundled program "
                   f"(default sizes): {_BUNDLED}"),
    "all-apps": _arg("--all-apps", action="store_true",
                     help="every bundled program, plus any target given"),
    "level": _arg("--level", help="optimization level (default: %(default)s)"),
    "levels": _arg("--levels", help="comma-separated optimization levels "
                   "(default: %(default)s)"),
    "param": _arg("-p", "--param", "--params", dest="param", type=_bindings,
                  action=_MergeBindings, metavar="NAME=INT",
                  help="program-parameter bindings (repeat the flag or join "
                  "with commas, e.g. -p N=161 -p M=5)"),
    "steps": _arg("--steps", type=int, help="body repetitions (default: the "
                  "app's registry value, 1 for files)"),
    "engine": _arg("--engine", type=engine_spec, metavar="SPEC",
                   help=f"engine spec: a simulation engine ({'|'.join(ENGINES)}), "
                   f"a tracer ({'|'.join(TRACE_ENGINES)}), or both joined by "
                   "'+' (e.g. fast+interp)"),
    "verify": _arg("--verify", action="store_true",
                   help="certify pass legality during compilation"),
    "cache": _arg("--cache", action="store_true",
                  help="use the on-disk trace/result cache"),
    "cache-dir": _arg("--cache-dir", metavar="DIR", help="on-disk cache "
                      "directory (default .cache or $REPRO_CACHE_DIR); giving "
                      "it turns the cache on"),
    "passes": _arg("--passes", metavar="P1,P2,...", help="compile through this "
                   "comma-separated pass list (each a pass name or fusion:K) "
                   "instead of a level ('repro pipeline --json' lists every pass)"),
    "json": _arg("--json", action="store_true", help="JSON output"),
    "threads": _arg("--threads", type=_thread_count, metavar="T",
                    help="thread count the multicore model assumes, 1..63 "
                    "(default: %(default)s)"),
    "schedule": _arg("--schedule", type=_schedule_spec, default="static",
                     help="OpenMP schedule the multicore model assumes "
                     "(static, static,k, guided, dynamic)"),
    "runs-root": _arg("--runs-root", help="directory run logs live under "
                      "(default runs/ or $REPRO_RUNS_DIR)"),
    "assume": _arg("--assume", type=int, metavar="MIN", help="assumed parameter "
                   "lower bound for symbolic checks (default 8)"),
    "check": _arg("--check", action="store_true", help="CI gate: exit 1 if a "
                  "committed --baseline row regresses (parallelism: if any axis "
                  "verdict is 'unknown' or inexact)"),
    "baseline": _arg("--baseline", metavar="FILE", help="committed baseline: "
                     "lint's accepted diagnostics, or the BENCH_*.json a "
                     "--check gates"),
    "json-out": _arg("--json-out", metavar="FILE", help="merge the machine-"
                     "readable rows into FILE (a BENCH_*.json); rows of other "
                     "programs are kept"),
    "stream": _arg("file", help="address-stream file (binary .ast or CSV)"),
}


def _command(name, summary, fn=None, shared="", *own, exclusive=(), **defaults):
    """One row of :data:`COMMANDS`: a subcommand, the :data:`SHARED`
    arguments it takes (space-separated; ``target?`` / ``target*`` make the
    positional optional / repeatable), its own :func:`_arg` rows, a group
    of which at most one may be given, and its defaults for shared
    arguments.  ``"trace export"`` nests under the ``"trace"`` row, which
    has no ``fn``."""
    return name, summary, fn, shared.split(), own, exclusive, defaults


#: every subcommand, in ``repro --help`` order
COMMANDS = (
    _command(
        "fuse", "transform a mini-language source file, print the new source",
        cmd_fuse, "level param",
        _arg("file", help="mini-language source file"),
        _arg("-v", "--verbose", action="store_true", help="report fusion and the "
             "regrouping decision (placements at the -p sizes) on stderr as '#' "
             "lines"),
        level="fusion",
    ),
    _command(
        "report", "measure optimization levels", cmd_report,
        "target levels param steps engine verify cache cache-dir passes threads",
        _arg("--timings", action="store_true",
             help="print per-stage wall-clock table"),
        _arg("--bandwidth", action="store_true", help="append the effective-"
             "bandwidth table (memory traffic in MB, GB/s over the synthesized "
             "run time, DRAM row-buffer hit rate, energy)"),
        _arg("--parallelism", action="store_true", help="append per-level axis "
             "verdicts and the predicted multicore miss table (private L1 per "
             "thread, shared L2)"),
        _arg("--coherence", action="store_true", help="append the per-level "
             "coherence table (predicted invalidation misses, true/false "
             "sharing lines)"),
        levels="noopt,fusion,new", threads=4,
    ),
    _command(
        "profile", "span-tree profile of one (program, level) run (--json: "
        "schema-v1 span events)", cmd_profile,
        "target level param steps engine verify cache cache-dir passes json",
        _arg("--no-memory", action="store_true",
             help="skip tracemalloc peak-memory tracking (faster)"),
        _arg("--static", action="store_true", help="also profile the trace-free "
             "analyses: the symbolic reuse profile (attribute span: per memo "
             "its computations and hits — hulls, hull_hits, compare_hits, ...) "
             "and the 4-thread coherence analysis (accesses, partitioned_nests)"),
        level="new",
    ),
    _command("runs", "list recorded run logs", cmd_runs, "runs-root json"),
    _command(
        "bench-membw", "effective-bandwidth and DRAM report across the paper's "
        "programs", cmd_bench_membw, "levels engine check baseline json-out",
        _arg("--apps", default=MEMBW_APPS,
             help=f"comma-separated programs (default {MEMBW_APPS})"),
        levels="noopt,new",
    ),
    _command("trace", "export, import, or inspect address-stream files"),
    _command(
        "trace export", "trace a program and write the address stream to disk",
        cmd_trace_export, "target level param steps engine",
        _arg("-o", "--output", required=True, metavar="FILE"),
        _arg("--format", choices=("auto", "binary", "csv"), default="auto",
             help="on-disk format (auto: csv for .csv paths, binary otherwise)"),
        level="new",
    ),
    _command(
        "trace import", "load a stream (.ast binary or CSV) and simulate it",
        cmd_trace_import, "stream engine",
        _arg("--reuse", action="store_true",
             help="also run the exact reuse-distance analyzer on the stream"),
        exclusive=(
            _arg("--machine", choices=("octane", "origin2000"), help="simulate "
                 "on this base machine (default: the default scaled spec)"),
            _arg("--app", help="simulate on this registry app's scaled machine"),
        ),
    ),
    _command("trace info", "print a stream file's metadata", cmd_trace_info,
             "stream"),
    _command(
        "cache", "inspect or clear the on-disk cache (traces, results, tune "
        "scores)", cmd_cache, "cache-dir",
        _arg("--clear", action="store_true"),
    ),
    _command(
        "lint", "static IR verification of a program", cmd_lint,
        "target? all-apps assume json baseline",
        _arg("--strict", action="store_true", help="warnings also fail (exit 1)"),
        _arg("--static", action="store_true", help="also run the predictive "
             "S3xx locality lints (symbolic reuse profile; no trace is "
             "generated)"),
        _arg("--explain", metavar="CODE",
             help="document one diagnostic code (e.g. S301) and exit"),
        _arg("--codes", action="store_true",
             help="print the full diagnostic-code registry table and exit"),
        _arg("--write-baseline", metavar="FILE",
             help="record the current diagnostics as the accepted baseline"),
        # symbolic only: lint takes no sizes, so targets resolve at defaults
        param=None, steps=None,
    ),
    _command(
        "static-reuse", "symbolic (trace-free) reuse profile of a program",
        cmd_static_reuse, "target level param steps assume json",
    ),
    _command(
        "parallelism", "dependence-based DOALL/reduction/serial verdict per "
        "loop axis (--threads T adds the multicore miss prediction)",
        cmd_parallelism,
        "target? all-apps level param steps threads schedule json check",
    ),
    _command(
        "coherence", "static coherence prediction: invalidation misses, "
        "true/false sharing at cache-line granularity, concrete witnesses",
        cmd_coherence, "target? all-apps level param steps threads schedule json",
        threads=4,
    ),
    _command(
        "verify-pass", "certify that optimization passes preserve all "
        "dependences (no target: every bundled program)", cmd_verify_pass,
        "target? levels param steps passes json",
        _arg("--before", help="original source file"),
        _arg("--after", help="transformed source file"),
        _arg("--pass-name", default="transform",
             help="pass the --before/--after pair is certified as: a pass of "
             "the table in its own mode, any other name strictly"),
        # the verifier snapshots a tiny execution; one repetition suffices
        levels="new", steps=1,
    ),
    _command(
        "pipeline", "introspect the pass and pipeline tables (--json: the shared "
        "pipeline-description schema)", cmd_pipeline, "json",
        _arg("--list", action="store_true", help="list every level with its "
             "description and pass sequence (default)"),
        _arg("--describe", metavar="NAME",
             help="per-pass detail for one pipeline (options, description)"),
    ),
    _command(
        "tune", "autotune pass pipelines by statically predicted misses",
        cmd_tune, "target* all-apps param steps engine threads schedule "
        "cache-dir runs-root json json-out check baseline",
        _arg("--at", action="append", type=_bindings,
             metavar="NAME=INT[,NAME=INT...]", help="extra target size to "
             "score at (repeatable; -p sizes come first)"),
        _arg("--objective", choices=("misses", "parallel-misses", "bytes"),
             default="misses", help="ranking objective: single-core L1+L2 "
             "predicted misses, the multicore prediction (private L1 per "
             "thread + shared L2), or predicted bytes moved (misses weighted "
             "by line size)"),
        _arg("--enablers", default=",".join(TUNE_ENABLERS), metavar="P1,P2,...",
             help="enabler passes the search may toggle (default: "
             f"{','.join(TUNE_ENABLERS)}; pass '' to disable all)"),
        _arg("--fusion-levels", type=_int_list, default=(0, 1, 2, 4, 8),
             metavar="K1,K2,...",
             help="fusion max_levels values to try; 0 means no fusion"),
        _arg("--no-regroup", action="store_true",
             help="do not try the terminal regroup pass"),
        _arg("--max-candidates", type=int, metavar="N",
             help="cap the candidate grid (cheapest pipelines first)"),
        _arg("--top-k", type=int, default=3, help="dynamically validate this "
             "many best candidates (default 3)"),
        _arg("--no-validate", action="store_true",
             help="skip dynamic validation of the top-k frontier"),
        _arg("--no-verify", action="store_true",
             help="skip legality certification of candidate pipelines"),
        _arg("--no-cache", action="store_true", help="disable the content-"
             "addressed tune/trace cache (on by default)"),
        _arg("--events", action="store_true",
             help="record schema-v1 tune.* events under the runs root"),
        threads=4,
    ),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Global cache-reuse compiler (Ding & Kennedy, IPPS 2001) reproduction",
    )
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for name, summary, fn, shared, own, exclusive, defaults in COMMANDS:
        group, _, leaf = name.rpartition(" ")
        sub = subparsers[group].add_parser(leaf, help=summary, description=summary)
        if fn is None:
            subparsers[name] = sub.add_subparsers(dest="action", required=True)
            continue
        for key in shared:
            flags, options = SHARED[key.rstrip("?*")]
            if key[-1] in "?*":
                options = {**options, "nargs": key[-1]}
            sub.add_argument(*flags, **options)
        for flags, options in own:
            sub.add_argument(*flags, **options)
        if exclusive:
            one_of = sub.add_mutually_exclusive_group()
            for flags, options in exclusive:
                one_of.add_argument(*flags, **options)
        sub.set_defaults(fn=fn, **defaults)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FileNotFoundError, _Unreadable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
