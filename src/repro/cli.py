"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

- ``verify <file.v> --bench <name>`` — run the UVLLM pipeline on a DUT
  file against a registered benchmark harness;
- ``lint <file.v>`` — Verilator-style lint report;
- ``bench-list`` — list the registered benchmark designs;
- ``inject <name>`` — print a mutated (buggy) copy of a benchmark;
- ``simulate <file.v> --vcd out.vcd`` — elaborate, run the benchmark
  stimulus, dump a VCD;
- ``campaign`` — run a (dataset x methods) sweep through the parallel
  campaign runner: ``--jobs N`` fans units out over worker processes,
  ``--cache-dir`` memoizes finished units on disk, ``--shard i/n``
  runs one round-robin partition of the grid (for multi-host sweeps
  sharing a cache directory); every record carries its coverage
  fragment, merged into a coverage DB (``--coverage-db``; sharded
  runs also drop their partition into a per-grid slot under
  ``<cache-dir>/coverage/`` for cross-host merging);
- ``coverage <db.json ...>`` — union-merge coverage databases and
  report totals, per-module bins and (``--holes``) uncovered bins;
- ``profile --bench <name>`` — run a bench workload under ``cProfile``
  on either backend and print the top cumulative hotspots, so perf
  work starts from data;
- ``report <telemetry-dir>`` — summarize the span/metrics shards a
  ``--telemetry`` campaign or fuzz run wrote: per-phase wall-time
  breakdown, cache hit rates, per-module cycles/sec, slowest units,
  fault-tolerance counters; ``--trace-out`` exports a Chrome
  trace-event JSON loadable in Perfetto;
- ``fuzz`` — differential fuzzing: generate seeded random designs
  and run each through the xcheck lockstep + printer round-trip +
  coverage-parity oracle; failures are delta-debugged to minimal
  reproducers (written to ``--artifact-dir`` and promotable into
  ``tests/corpus/``).  Units are content-hashed like campaign units,
  so ``--cache-dir`` makes fuzz runs resumable and ``--shard i/n``
  splits them across hosts.
"""

import argparse
import sys

from repro.bench.registry import all_modules, get_module, make_hr_sequence
from repro.core.config import UVLLMConfig
from repro.core.framework import UVLLM
from repro.lint.linter import Linter
from repro.llm.mock import MockLLM


def _cmd_lint(args):
    with open(args.file) as handle:
        source = handle.read()
    report = Linter().lint(source)
    print(report.format(filename=args.file))
    return 1 if report.errors else 0


def _cmd_bench_list(args):
    print(f"{'name':<18}{'category':<12}{'type':<12}{'ports'}")
    for bench in all_modules():
        ports = ", ".join(bench.compare_signals)
        print(f"{bench.name:<18}{bench.category:<12}"
              f"{bench.type_tag:<12}{ports}")
    return 0


def _cmd_verify(args):
    bench = get_module(args.bench)
    if args.file == "-":
        source = sys.stdin.read()
    else:
        with open(args.file) as handle:
            source = handle.read()
    llm = MockLLM(seed=args.seed)
    config = UVLLMConfig(
        max_iterations=args.max_iterations,
        ms_iterations=args.ms_iterations,
        patch_form=args.patch_form,
    )
    outcome = UVLLM(llm, config).verify_and_repair(source, bench)
    print(f"hit        : {outcome.hit}")
    print(f"stage      : {outcome.stage}")
    print(f"iterations : {outcome.iterations}")
    print(f"time (mod.): {outcome.seconds:.2f}s")
    print(f"llm calls  : {outcome.llm_calls} (${outcome.cost_usd:.4f})")
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(outcome.final_source)
        print(f"repaired source written to {args.output}")
    elif args.show:
        print("---")
        print(outcome.final_source)
    return 0 if outcome.hit else 1


def _cmd_inject(args):
    from repro.errgen.generator import generate_for_module

    bench = get_module(args.name)
    instances = generate_for_module(
        bench, per_operator=1, seed=args.seed
    )
    wanted = [
        inst for inst in instances
        if args.operator is None or inst.operator == args.operator
    ]
    if not wanted:
        print(f"no applicable mutation (operator={args.operator})",
              file=sys.stderr)
        return 1
    instance = wanted[0]
    print(f"// {instance.instance_id}: {instance.description}",
          file=sys.stderr)
    print(instance.buggy_source)
    return 0


def _cmd_simulate(args):
    from repro.sim.vcd import dump_simulator
    from repro.uvm.test import run_uvm_test

    bench = get_module(args.bench)
    if args.file:
        with open(args.file) as handle:
            source = handle.read()
    else:
        source = bench.source
    result = run_uvm_test(
        source, make_hr_sequence(bench), bench.protocol, bench.model(),
        bench.compare_signals, top=bench.top, backend=args.backend,
    )
    print(f"ok={result.ok} pass_rate={result.pass_rate:.2%} "
          f"checked={result.checked} coverage={result.coverage:.2%}")
    for entry in result.log.mismatches()[:5]:
        print(entry.format())
    if args.vcd and result.simulator is not None:
        # An aborted simulation (combinational loop, runaway deltas)
        # still flushes the waveform up to the abort point, with the
        # abort recorded in a trailing VCD comment.
        abort_note = None
        if result.error:
            abort_note = (
                "aborted at t=%d: %s"
                % (int(getattr(result.simulator, "time", 0)), result.error)
            )
        dump_simulator(result.simulator, path=args.vcd,
                       abort_note=abort_note)
        if abort_note:
            print(f"partial waveform written to {args.vcd} ({abort_note})")
        else:
            print(f"waveform written to {args.vcd}")
    elif args.vcd:
        print(f"no simulator state to dump ({result.error or 'no run'})",
              file=sys.stderr)
    return 0 if result.all_passed else 1


def _cmd_campaign(args):
    import json

    from repro.errgen.generator import generate_dataset
    from repro.experiments.runner import METHODS, group_records, rates
    from repro.runner import (
        expand_grid,
        parse_shard,
        run_units,
        shard_units,
    )
    from repro.runner.cache import record_to_dict
    from repro.runner.scheduler import default_jobs

    methods = (
        tuple(args.methods.split(",")) if args.methods else METHODS
    )
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        print(f"unknown methods: {', '.join(unknown)} "
              f"(known: {', '.join(METHODS)})", file=sys.stderr)
        return 2
    modules = args.modules.split(",") if args.modules else None
    if modules:
        known = {bench.name for bench in all_modules()}
        missing = [name for name in modules if name not in known]
        if missing:
            print(f"unknown modules: {', '.join(missing)} "
                  f"(see 'bench-list')", file=sys.stderr)
            return 2
    jobs = args.jobs if args.jobs > 0 else default_jobs()
    shard = None
    if args.shard:
        try:
            shard = parse_shard(args.shard)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2

    instances = generate_dataset(
        seed=args.seed, per_operator=args.per_operator, target=None,
        modules=modules, cache_dir=args.cache_dir,
    )
    units = expand_grid(instances, methods, attempts=args.attempts,
                        backend=args.backend)
    total = len(units)
    grid_key = _grid_key(units)
    if not units:
        print("campaign grid is empty", file=sys.stderr)
        return 1
    if shard is not None:
        units = shard_units(units, *shard)
        print(f"shard {args.shard}: {len(units)}/{total} units",
              file=sys.stderr)
        if not units:
            # A small grid can legitimately leave a shard empty; the
            # other shards still cover it, so this host succeeded.
            print(f"shard {args.shard} has no units (grid has {total}); "
                  f"nothing to do", file=sys.stderr)
            return 0

    if args.telemetry and not args.cache_dir:
        print("--telemetry needs --cache-dir (shards live under "
              "<cache-dir>/telemetry/)", file=sys.stderr)
        return 2
    if args.forensics and not args.cache_dir:
        print("--forensics needs --cache-dir (bundles live under "
              "<cache-dir>/forensics/)", file=sys.stderr)
        return 2
    from repro.runner import CampaignInterrupted

    try:
        records = run_units(units, jobs=jobs, cache_dir=args.cache_dir,
                            show_progress=True,
                            telemetry=args.telemetry,
                            forensics_capture=args.forensics,
                            unit_timeout=args.unit_timeout,
                            fail_fast=args.fail_fast)
    except CampaignInterrupted as exc:
        print(f"{exc}; re-run the same command to resume",
              file=sys.stderr)
        return 130
    if args.telemetry:
        import os

        telemetry_dir = os.path.join(args.cache_dir, "telemetry")
        print(f"telemetry shards written under {telemetry_dir}; "
              f"summarize with: repro.cli report {telemetry_dir}",
              file=sys.stderr)
    if args.forensics:
        import os

        forensics_dir = os.path.join(args.cache_dir, "forensics")
        bundles = [
            name for name in sorted(os.listdir(forensics_dir))
            if os.path.isdir(os.path.join(forensics_dir, name))
        ] if os.path.isdir(forensics_dir) else []
        print(f"{len(bundles)} forensic bundle(s) under {forensics_dir}; "
              f"inspect with: repro.cli triage {forensics_dir}",
              file=sys.stderr)

    print(f"{'method':<14}{'n':>5}{'HR %':>8}{'FR %':>8}{'t (s)':>9}")
    by_method = group_records(records, lambda r: r.method)
    for method in methods:
        subset = by_method.get(method, [])
        hr, fr, seconds = rates(subset)
        print(f"{method:<14}{len(subset):>5}{hr:>8.1f}{fr:>8.1f}"
              f"{seconds:>9.2f}")
    if args.records:
        with open(args.records, "w") as handle:
            for record in records:
                handle.write(json.dumps(record_to_dict(record)) + "\n")
        print(f"records written to {args.records}", file=sys.stderr)

    import os

    from repro.cover.db import CoverageDB

    db = CoverageDB.from_records(records)
    print(f"functional coverage (merged over this run): "
          f"{100.0 * db.functional_coverage():.1f}%")
    if args.coverage_db:
        db.write(args.coverage_db)
        print(f"coverage DB written to {args.coverage_db} "
              f"(key {db.content_key()[:12]})", file=sys.stderr)
    if args.cache_dir and shard is not None:
        # Shard slot under the shared cache dir, keyed by the full
        # grid's identity: each host overwrites *its own* partition on
        # re-runs (no stale accumulation), and merging one campaign's
        # `<grid-key>.shard-*` set reproduces the --jobs 1 database
        # bit-for-bit.
        index, count = shard
        path = os.path.join(
            args.cache_dir, "coverage",
            f"{grid_key}.shard-{index + 1}-of-{count}.json",
        )
        db.write(path)
        print(f"shard coverage DB saved to {path}; merge with: "
              f"repro.cli coverage "
              f"'{os.path.join(args.cache_dir, 'coverage', grid_key)}"
              f".shard-*.json'", file=sys.stderr)
    poisoned = [r for r in records
                if getattr(r, "failure_kind", None)]
    if poisoned:
        print(f"{len(poisoned)} unit(s) QUARANTINED (campaign ran to "
              f"completion; poisoned records carry the failure "
              f"detail):", file=sys.stderr)
        for record in poisoned:
            detail = record.failure_detail or {}
            print(f"  {record.instance_id}::{record.method} "
                  f"[{record.failure_kind}] "
                  f"{detail.get('error', '')}", file=sys.stderr)
        return 3
    return 0


def _grid_key(units):
    """Stable identity of a campaign grid: the hash of its units'
    cache keys (content-hashed inputs), independent of sharding."""
    import hashlib

    digest = hashlib.sha256()
    for unit in units:
        digest.update(unit.cache_key().encode("ascii"))
    return digest.hexdigest()[:16]


def _cmd_coverage(args):
    import glob as globmod

    from repro.cover.db import CoverageDB, CoverageMergeError
    from repro.cover.holes import format_holes

    paths = []
    for pattern in args.databases:
        matched = sorted(globmod.glob(pattern))
        paths.extend(matched if matched else [pattern])
    try:
        db = CoverageDB.merge_paths(paths)
    except FileNotFoundError as exc:
        print(f"cannot read coverage DB: {exc}", file=sys.stderr)
        return 2
    except (ValueError, CoverageMergeError) as exc:
        print(f"cannot merge coverage DBs: {exc}", file=sys.stderr)
        return 2
    print(db.report())
    if args.holes:
        for group in sorted(db.functional):
            model = _model_from_dict(group, db.functional[group])
            holes = _holes_from_model(model)
            if not holes:
                continue
            print(f"holes in {group}:")
            for line in format_holes(holes, limit=args.hole_limit
                                     ).splitlines():
                print(f"  {line}")
    if args.out:
        db.write(args.out)
        print(f"merged coverage DB written to {args.out} "
              f"(key {db.content_key()[:12]})", file=sys.stderr)
    if args.fail_under is not None and \
            100.0 * db.functional_coverage() < args.fail_under:
        print(f"functional coverage "
              f"{100.0 * db.functional_coverage():.2f}% is below "
              f"--fail-under {args.fail_under}", file=sys.stderr)
        return 1
    return 0


def _model_from_dict(group, data):
    """Rebuild a CoverModel skeleton (bins + hits) from DB counters so
    the hole report can run over a merged database (shared with the
    forensics bundle writer's coverage-hole section)."""
    from repro.cover.model import model_from_counters

    return model_from_counters(group, data)


def _holes_from_model(model):
    from repro.cover.holes import holes_of

    return holes_of(model)


def _cmd_fuzz(args):
    import contextlib
    import os

    from repro.fuzz.campaign import run_fuzz
    from repro.fuzz.corpus import make_entry, save_reproducer
    from repro.fuzz.shrink import shrink
    from repro.obs import sink, trace
    from repro.runner import parse_shard
    from repro.runner.scheduler import default_jobs

    shard = None
    if args.shard:
        try:
            shard = parse_shard(args.shard)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
    jobs = args.jobs if args.jobs > 0 else default_jobs()
    if args.telemetry and not args.cache_dir:
        print("--telemetry needs --cache-dir (shards live under "
              "<cache-dir>/telemetry/)", file=sys.stderr)
        return 2
    if args.forensics and not args.cache_dir:
        print("--forensics needs --cache-dir (bundles live under "
              "<cache-dir>/forensics/)", file=sys.stderr)
        return 2
    # The telemetry scope wraps the whole command (not just run_fuzz)
    # so parent-side shrinking shows up in the same shard set.
    telemetry_dir = (
        os.path.join(args.cache_dir, "telemetry")
        if args.telemetry else None
    )
    with contextlib.ExitStack() as scope:
        scope.enter_context(sink.telemetry_scope(telemetry_dir))
        return _run_fuzz_command(args, shard, jobs, run_fuzz, shrink,
                                 make_entry, save_reproducer, trace)


def _run_fuzz_command(args, shard, jobs, run_fuzz, shrink, make_entry,
                      save_reproducer, trace):
    from repro.forensics import bundle as forensics
    from repro.runner import CampaignInterrupted

    try:
        summary = run_fuzz(
            args.count, seed=args.seed, cycles=args.cycles, jobs=jobs,
            cache_dir=args.cache_dir, shard=shard,
            time_budget=args.time_budget, show_progress=True,
            forensics_capture=args.forensics,
            unit_timeout=args.unit_timeout, fail_fast=args.fail_fast,
        )
    except CampaignInterrupted as exc:
        print(f"{exc}; re-run the same command to resume",
              file=sys.stderr)
        return 130
    print(f"fuzz: {summary['run']}/{summary['count']} designs "
          f"({summary['cached']} cached, "
          f"{summary['skipped_by_budget']} skipped by budget) in "
          f"{summary['elapsed']:.1f}s")
    if summary.get("poisoned"):
        print(f"{summary['poisoned']} unit(s) QUARANTINED (worker "
              f"crash/hang/exception — not divergences; cached as "
              f"poisoned verdicts)", file=sys.stderr)
    features = summary["features"]
    if features:
        top = ", ".join(f"{k}:{v}" for k, v in sorted(features.items()))
        print(f"feature coverage: {top}")

    failures = summary["failures"]
    if not failures:
        print("no divergences found")
        return 3 if summary.get("poisoned") else 0
    print(f"{len(failures)} failing design(s):", file=sys.stderr)
    bundles = summary.get("forensics") or [None] * len(failures)
    for verdict, bundle_dir in zip(failures, bundles):
        kind = verdict["failure"]["kind"]
        source = verdict["source"]
        ops = [tuple(op) for op in verdict["ops"]]
        print(f"  seed {verdict['design_seed']}: {kind} — "
              f"{verdict['failure']['detail'][:200]}", file=sys.stderr)
        if bundle_dir:
            print(f"    debug bundle: {bundle_dir}", file=sys.stderr)
        if args.shrink:
            # The shrinker re-runs the oracle hundreds of times; each
            # intermediate failure must not spawn its own bundle.
            with forensics.suppress(), \
                    trace.span("shrink", cat="fuzz",
                               seed=verdict["design_seed"]):
                result = shrink(source, ops, kind)
            print(f"    shrunk {len(source)} -> {len(result.source)} "
                  f"chars, {len(ops)} -> {len(result.ops)} ops "
                  f"({result.checks} oracle checks)", file=sys.stderr)
            source, ops = result.source, result.ops
            if bundle_dir:
                forensics.attach_shrunk(bundle_dir, source, ops)
        # A freshly-found failure still reproduces, so the entry is
        # written with expect="fail"; after fixing the bug, flip it
        # to "pass" when promoting into tests/corpus (the content
        # address hashes kind/source/ops only, so the filename
        # stays valid).
        entry = make_entry(
            kind, source, ops,
            description=verdict["failure"]["detail"][:500],
            origin={
                "design_seed": verdict["design_seed"],
                "stim_seed": verdict["stim_seed"],
                "cycles": verdict["cycles"],
                "generator_version": _generator_version(),
            },
            expect="fail",
        )
        for directory in filter(None, (args.artifact_dir,
                                       args.corpus_dir)):
            path = save_reproducer(entry, directory)
            print(f"    reproducer saved to {path}", file=sys.stderr)
    return 1


def _cmd_profile(args):
    from repro.sim.benchmark import profile_bench

    bench = get_module(args.bench)
    print(f"profiling {bench.name} on the {args.backend} backend "
          f"({args.repeat} passes, trace={'on' if args.trace else 'off'})",
          file=sys.stderr)
    profile_bench(
        bench, backend=args.backend, trace=args.trace,
        repeat=args.repeat, top_n=args.top, sort=args.sort,
        spans=args.spans,
    )
    return 0


def _cmd_report(args):
    import json

    from repro.obs import export, sink

    spans, metrics = sink.read_shards(args.telemetry_dir)
    opens = sink.read_opens(args.telemetry_dir)
    if not spans and not opens and not metrics.counters \
            and not metrics.histograms:
        print(f"no telemetry shards found under {args.telemetry_dir}",
              file=sys.stderr)
        return 1
    report = export.summarize(spans, metrics, top=args.top, opens=opens)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(export.render_summary(report, markdown=args.markdown),
              end="")
    if args.trace_out:
        export.write_chrome_trace(spans, args.trace_out)
        print(f"chrome trace written to {args.trace_out} "
              f"(load at ui.perfetto.dev or chrome://tracing)",
              file=sys.stderr)
    if args.merged_out:
        sink.write_merged(args.telemetry_dir, args.merged_out)
        print(f"merged telemetry JSONL written to {args.merged_out}",
              file=sys.stderr)
    return 0


def _cmd_triage(args):
    from repro.forensics import triage

    bundles = triage.list_bundles(args.forensics_dir)
    if args.show:
        try:
            manifest = triage.resolve_bundle(args.forensics_dir,
                                             args.show)
        except KeyError as exc:
            print(exc, file=sys.stderr)
            return 2
        print(triage.describe(manifest), end="")
        return 0
    if args.diff:
        try:
            left = triage.resolve_bundle(args.forensics_dir,
                                         args.diff[0])
            right = triage.resolve_bundle(args.forensics_dir,
                                          args.diff[1])
        except KeyError as exc:
            print(exc, file=sys.stderr)
            return 2
        print(triage.diff_bundles(left, right), end="")
        return 0
    if args.replay is not None:
        targets = bundles
        if args.replay:  # explicit ids; empty list means "all"
            try:
                targets = [
                    triage.resolve_bundle(args.forensics_dir, ref)
                    for ref in args.replay
                ]
            except KeyError as exc:
                print(exc, file=sys.stderr)
                return 2
        if not targets:
            print(f"no bundles under {args.forensics_dir}",
                  file=sys.stderr)
            return 1
        stale = 0
        for manifest in targets:
            name = _bundle_name(manifest)
            try:
                reproduced, detail = triage.replay(manifest)
            except Exception as exc:
                reproduced = False
                detail = f"replay crashed: {type(exc).__name__}: {exc}"
            status = "REPRODUCED" if reproduced else "NOT REPRODUCED"
            stale += 0 if reproduced else 1
            print(f"{status:<16} {name}  {detail}")
        if stale:
            print(f"{stale}/{len(targets)} bundle(s) no longer "
                  f"reproduce as recorded — a fix landed or the "
                  f"replay contract broke", file=sys.stderr)
            return 1
        return 0
    # Default: list bundles.
    if not bundles:
        print(f"no bundles under {args.forensics_dir}", file=sys.stderr)
        return 1
    print(f"{'bundle':<28}{'kind':<12}{'sections':>9}  label")
    for manifest in bundles:
        print(f"{_bundle_name(manifest):<28}"
              f"{manifest.get('kind', '?'):<12}"
              f"{len(manifest.get('sections', {})):>9}  "
              f"{manifest.get('label', '?')}")
    return 0


def _bundle_name(manifest):
    import os

    return os.path.basename(manifest["_dir"])


def _generator_version():
    from repro.fuzz.generate import GENERATOR_VERSION

    return GENERATOR_VERSION


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro", description="UVLLM reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="lint a Verilog file")
    lint.add_argument("file")
    lint.set_defaults(func=_cmd_lint)

    bench_list = sub.add_parser("bench-list", help="list benchmarks")
    bench_list.set_defaults(func=_cmd_bench_list)

    verify = sub.add_parser("verify", help="run UVLLM on a DUT")
    verify.add_argument("file", help="Verilog file ('-' for stdin)")
    verify.add_argument("--bench", required=True,
                        help="benchmark harness name")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--max-iterations", type=int, default=5)
    verify.add_argument("--ms-iterations", type=int, default=2)
    verify.add_argument("--patch-form", choices=("pair", "complete"),
                        default="pair")
    verify.add_argument("--output", help="write repaired source here")
    verify.add_argument("--show", action="store_true",
                        help="print repaired source")
    verify.set_defaults(func=_cmd_verify)

    inject = sub.add_parser("inject", help="print a mutated benchmark")
    inject.add_argument("name")
    inject.add_argument("--operator", default=None)
    inject.add_argument("--seed", type=int, default=0)
    inject.set_defaults(func=_cmd_inject)

    simulate = sub.add_parser("simulate", help="run the UVM testbench")
    simulate.add_argument("--bench", required=True)
    simulate.add_argument("--file", default=None,
                          help="DUT file (defaults to the golden source)")
    simulate.add_argument("--vcd", default=None, help="VCD output path")
    simulate.add_argument("--backend", default=None,
                          choices=("interp", "compiled", "xcheck"),
                          help="simulation backend (default: interp, or "
                               "REPRO_SIM_BACKEND)")
    simulate.set_defaults(func=_cmd_simulate)

    campaign = sub.add_parser(
        "campaign",
        help="run a method sweep through the parallel campaign runner",
    )
    campaign.add_argument("--modules", default=None,
                          help="comma-separated benchmark names "
                               "(default: all)")
    campaign.add_argument("--methods", default=None,
                          help="comma-separated methods (default: all)")
    campaign.add_argument("--per-operator", type=int, default=1,
                          help="error instances per mutation operator")
    campaign.add_argument("--attempts", type=int, default=3,
                          help="LLM attempts per unit (pass@k)")
    campaign.add_argument("--seed", type=int, default=0,
                          help="dataset generation seed")
    campaign.add_argument("--jobs", type=int, default=1,
                          help="worker processes (0 = auto)")
    campaign.add_argument("--cache-dir", default=None,
                          help="memoize finished units/datasets here")
    campaign.add_argument("--shard", default=None, metavar="i/n",
                          help="run the i-th of n round-robin shards")
    campaign.add_argument("--backend", default=None,
                          choices=("interp", "compiled", "xcheck"),
                          help="simulation backend for every UVM run "
                               "(default: interp, or REPRO_SIM_BACKEND); "
                               "cache records are keyed per backend")
    campaign.add_argument("--records", default=None,
                          help="write per-unit records as JSONL here")
    campaign.add_argument("--coverage-db", default=None,
                          help="write this run's merged coverage DB "
                               "(deterministic JSON) here")
    campaign.add_argument("--telemetry", action="store_true",
                          help="record span/metrics shards under "
                               "<cache-dir>/telemetry/ (records and "
                               "coverage stay bit-identical)")
    campaign.add_argument("--forensics", action="store_true",
                          help="archive every failing unit as a debug "
                               "bundle under <cache-dir>/forensics/ "
                               "(stimulus, waveforms, divergence "
                               "report; records stay bit-identical)")
    campaign.add_argument("--unit-timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="wall-clock budget per unit; a unit "
                               "that exceeds it is retried and, on a "
                               "second strike, quarantined as a "
                               "poisoned record (default: no limit)")
    campaign.add_argument("--fail-fast", action="store_true",
                          help="abort on the first unit failure "
                               "instead of retrying/quarantining "
                               "(restores pre-fault-tolerance "
                               "semantics)")
    campaign.set_defaults(func=_cmd_campaign)

    coverage = sub.add_parser(
        "coverage",
        help="merge and report coverage databases",
    )
    coverage.add_argument("databases", nargs="+",
                          help="coverage DB files (globs allowed), e.g. "
                               ".campaign-cache/coverage/*.json")
    coverage.add_argument("--out", default=None,
                          help="write the merged DB here")
    coverage.add_argument("--holes", action="store_true",
                          help="list uncovered bins per module")
    coverage.add_argument("--hole-limit", type=int, default=20,
                          help="max holes listed per module")
    coverage.add_argument("--fail-under", type=float, default=None,
                          metavar="PCT",
                          help="exit 1 if merged functional coverage "
                               "falls below PCT")
    coverage.set_defaults(func=_cmd_coverage)

    profile = sub.add_parser(
        "profile",
        help="run a bench workload under cProfile and print hotspots",
    )
    profile.add_argument("--bench", required=True,
                         help="benchmark module to drive (see "
                              "'bench-list')")
    profile.add_argument("--backend", default="compiled",
                         choices=("interp", "compiled", "xcheck"),
                         help="simulation backend to profile "
                              "(default: compiled)")
    profile.add_argument("--repeat", type=int, default=3,
                         help="full drive passes inside the profile")
    profile.add_argument("--top", type=int, default=25,
                         help="hotspots to print")
    profile.add_argument("--sort", default="cumulative",
                         choices=("cumulative", "tottime", "calls"),
                         help="pstats sort key")
    profile.add_argument("--trace", action="store_true",
                         help="profile with value-change tracing on")
    profile.add_argument("--spans", action="store_true",
                         help="also print a span timeline and "
                              "settle/tick phase split from one extra "
                              "instrumented pass")
    profile.set_defaults(func=_cmd_profile)

    report = sub.add_parser(
        "report",
        help="summarize telemetry shards from a --telemetry run",
    )
    report.add_argument("telemetry_dir",
                        help="telemetry directory, e.g. "
                             "<cache-dir>/telemetry/")
    report.add_argument("--top", type=int, default=10,
                        help="slowest units to list")
    report.add_argument("--json", action="store_true",
                        help="print the summary as JSON")
    report.add_argument("--markdown", action="store_true",
                        help="render tables as GitHub-flavoured "
                             "markdown")
    report.add_argument("--trace-out", default=None, metavar="FILE",
                        help="export a Chrome trace-event JSON "
                             "(Perfetto-loadable) here")
    report.add_argument("--merged-out", default=None, metavar="FILE",
                        help="write the merged telemetry JSONL "
                             "(deterministic bytes) here")
    report.set_defaults(func=_cmd_report)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing of the simulation stack",
    )
    fuzz.add_argument("--count", type=int, default=100,
                      help="number of random designs")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="first design seed (designs use seed..seed+N)")
    fuzz.add_argument("--cycles", type=int, default=24,
                      help="stimulus cycles per design")
    fuzz.add_argument("--jobs", type=int, default=1,
                      help="worker processes (0 = auto)")
    fuzz.add_argument("--cache-dir", default=None,
                      help="memoize verdicts here (resumable runs)")
    fuzz.add_argument("--shard", default=None, metavar="i/n",
                      help="run the i-th of n round-robin shards")
    fuzz.add_argument("--time-budget", type=float, default=None,
                      metavar="SECONDS",
                      help="stop dispatching new designs after this "
                           "long (finished units stay cached)")
    fuzz.add_argument("--no-shrink", dest="shrink",
                      action="store_false",
                      help="skip delta-debugging of failures")
    fuzz.add_argument("--artifact-dir", default=None,
                      help="write minimized failing reproducers here "
                           "(CI uploads them as artifacts)")
    fuzz.add_argument("--corpus-dir", default=None,
                      help="also save reproducers into this corpus "
                           "directory (e.g. tests/corpus)")
    fuzz.add_argument("--telemetry", action="store_true",
                      help="record span/metrics shards under "
                           "<cache-dir>/telemetry/ (verdicts are "
                           "unaffected)")
    fuzz.add_argument("--forensics", action="store_true",
                      help="archive every failing design as a debug "
                           "bundle under <cache-dir>/forensics/ "
                           "(verdicts are unaffected)")
    fuzz.add_argument("--unit-timeout", type=float, default=None,
                      metavar="SECONDS",
                      help="wall-clock budget per fuzz unit; a unit "
                           "that exceeds it is retried and, on a "
                           "second strike, quarantined as a poisoned "
                           "verdict (default: no limit)")
    fuzz.add_argument("--fail-fast", action="store_true",
                      help="abort on the first unit failure instead "
                           "of retrying/quarantining")
    fuzz.set_defaults(func=_cmd_fuzz)

    triage = sub.add_parser(
        "triage",
        help="inspect, replay and diff forensic debug bundles",
    )
    triage.add_argument("forensics_dir",
                        help="bundle directory, e.g. "
                             "<cache-dir>/forensics/")
    triage.add_argument("--show", default=None, metavar="BUNDLE",
                        help="render one bundle's failure and "
                             "divergence report (id or unique prefix)")
    triage.add_argument("--replay", nargs="*", default=None,
                        metavar="BUNDLE",
                        help="re-run bundles' archived stimulus "
                             "against current code; no argument "
                             "replays all. Exits 1 if any failure no "
                             "longer reproduces as recorded")
    triage.add_argument("--diff", nargs=2, default=None,
                        metavar=("A", "B"),
                        help="compare two bundles section by section")
    triage.set_defaults(func=_cmd_triage)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
