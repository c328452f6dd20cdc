#!/usr/bin/env python3
"""Microbenchmark: interpreter vs compiled simulation backend.

For every registered benchmark module, materializes its HR stimulus
once, then drives the DUT pin-level (poke inputs, settle, toggle the
clock) on each backend and reports cycles/second plus the per-module
and geomean speedup.  Results land in ``BENCH_sim.json`` so the perf
trajectory has data points CI can archive.

Methodology: this times the *simulator* — stimulus generation happens
before the clock starts, value-change tracing is disabled (the way
commercial simulators are benchmarked; run with ``--trace`` to include
it), and each measurement is best-of-``--repeat`` samples to shed
scheduler noise.  One drive lasts 0.3-12 ms, too short to time alone
on a shared host, so a sample runs drives back to back until they add
up to at least :data:`MIN_SAMPLE_SECONDS` and reports the mean per
drive.  The two backends swap order on every repeat, so neither one
always runs first after the other has warmed or cooled the host.
The drive loop itself lives in :mod:`repro.sim.benchmark`,
shared with ``repro.cli profile`` so profiles measure exactly this
workload.  Bit-level equivalence between the backends is *not* this
script's job: the xcheck differential suite
(``tests/test_backend_equiv.py``) owns that.

``--baseline PREV.json`` additionally prints a per-module and geomean
delta table against a previous run and exits non-zero when the
geomean regresses by more than ``--regression-threshold`` (default
20%) — CI runs this as a soft gate against the checked-in
``BENCH_sim.json``.  The gate compares each module's compiled/interp
``speedup``, not absolute cycles/sec: both backends are timed in the
same run, so a slower or faster host cancels out and what is left is
the compiled backend's own change.  The absolute columns stay in the
table as information.

Usage: python scripts/bench_sim.py [--out BENCH_sim.json] [--repeat 3]
                                   [--modules a,b,c] [--trace] [--quick]
                                   [--baseline BENCH_sim.json]
                                   [--delta-out BENCH_delta.md]
"""

import argparse
import json
import math
import sys

from repro.bench.registry import all_modules
from repro.sim.benchmark import drive, materialize

BACKENDS = ("interp", "compiled")

#: Exit code for a geomean regression beyond the threshold (distinct
#: from argparse/usage failures).
REGRESSION_EXIT = 3

#: Shortest timed sample, in seconds of back-to-back drives.
MIN_SAMPLE_SECONDS = 0.05


def sample(bench, backend, vectors, trace):
    """Mean seconds per drive over back-to-back drives lasting at least
    :data:`MIN_SAMPLE_SECONDS`; returns ``(seconds, cycles_per_drive)``."""
    total = 0.0
    drives = 0
    while total < MIN_SAMPLE_SECONDS:
        elapsed, cycles = drive(bench, backend, vectors, trace)
        total += elapsed
        drives += 1
    return total / drives, cycles


def bench_module(bench, repeat, trace):
    vectors = materialize(bench)
    row = {"category": bench.category, "type": bench.type_tag}
    best = {}
    for index in range(repeat):
        for backend in BACKENDS[::-1] if index % 2 else BACKENDS:
            seconds, cycles = sample(bench, backend, vectors, trace)
            best[backend] = min(best.get(backend, seconds), seconds)
    row["cycles"] = cycles
    for backend in BACKENDS:
        row[f"{backend}_seconds"] = best[backend]
        row[f"{backend}_cps"] = (
            cycles / best[backend] if best[backend] > 0 else 0.0
        )
        # One extra pass with per-phase accounting, outside the timed
        # best-of region so the wrapper overhead never touches the
        # headline cycles/sec (keys are additive: baseline comparison
        # reads only speedup and compiled_cps and ignores them).
        phases = {}
        drive(bench, backend, vectors, trace, phase_totals=phases)
        row[f"{backend}_settle_seconds"] = phases.get("settle", 0.0)
        row[f"{backend}_tick_seconds"] = phases.get("tick", 0.0)
    row["speedup"] = (
        row["interp_seconds"] / row["compiled_seconds"]
        if row["compiled_seconds"] > 0 else 0.0
    )
    return row


def geomean(values):
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def compare_to_baseline(modules, baseline_path, threshold):
    """Delta table vs a previous ``BENCH_sim.json``.

    Returns ``(lines, geomean_ratio)``; ratios compare each module's
    compiled/interp speedup (higher is better), so 1.00 means unchanged
    and 0.80 a 20% regression.  Modules missing on either side are
    reported but excluded from the geomean.
    """
    with open(baseline_path) as handle:
        baseline = json.load(handle).get("modules", {})
    lines = [
        f"| {'module':<18} | {'base c/s':>10} | {'new c/s':>10} "
        f"| {'base x':>7} | {'new x':>7} | {'delta':>7} |",
        f"| {'-' * 18} | {'-' * 10}: | {'-' * 10}: | {'-' * 7}: "
        f"| {'-' * 7}: | {'-' * 7}: |",
    ]
    ratios = []
    for name in sorted(set(modules) | set(baseline)):
        new = modules.get(name)
        old = baseline.get(name)
        if new is None or old is None:
            status = "added" if old is None else "not run"
            lines.append(f"| {name:<18} | {'-':>10} | {'-':>10} "
                         f"| {'-':>7} | {'-':>7} | {status:>7} |")
            continue
        old_speedup = old.get("speedup", 0.0)
        new_speedup = new.get("speedup", 0.0)
        if old_speedup > 0 and new_speedup > 0:
            ratio = new_speedup / old_speedup
            ratios.append(ratio)
            delta = f"{100.0 * (ratio - 1):+.0f}%"
        else:
            delta = "n/a"
        lines.append(
            f"| {name:<18} | {old.get('compiled_cps', 0.0):>10.0f} "
            f"| {new.get('compiled_cps', 0.0):>10.0f} "
            f"| {old_speedup:>6.2f}x | {new_speedup:>6.2f}x | {delta:>7} |"
        )
    overall = geomean(ratios)
    verdict = "OK"
    if overall and overall < 1.0 - threshold:
        verdict = f"REGRESSION (>{100 * threshold:.0f}% geomean drop)"
    elif overall and overall < 1.0:
        verdict = "warn: slower than baseline"
    lines.append("")
    lines.append(f"geomean speedup ratio vs baseline: "
                 f"{overall:.2f}x — {verdict}")
    return lines, overall


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="BENCH_sim.json")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed samples per module/backend (best-of)")
    parser.add_argument("--modules", default=None,
                        help="comma-separated subset (default: all 27)")
    parser.add_argument("--trace", action="store_true",
                        help="keep value-change tracing on while timing")
    parser.add_argument("--quick", action="store_true",
                        help="one category representative each, repeat=2")
    parser.add_argument("--baseline", default=None, metavar="PREV.json",
                        help="print a delta table against a previous "
                             "BENCH_sim.json; exit non-zero on a "
                             "geomean regression beyond the threshold")
    parser.add_argument("--delta-out", default=None, metavar="FILE.md",
                        help="also write the baseline delta table here "
                             "(markdown; CI appends it to the job "
                             "summary)")
    parser.add_argument("--regression-threshold", type=float, default=0.2,
                        help="baseline geomean drop that fails the run "
                             "(fraction, default 0.2 = 20%%)")
    args = parser.parse_args()

    benches = all_modules()
    if args.modules:
        wanted = set(args.modules.split(","))
        unknown = wanted - {b.name for b in benches}
        if unknown:
            print(f"unknown modules: {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2
        benches = [b for b in benches if b.name in wanted]
    elif args.quick:
        seen = set()
        picked = []
        for bench in benches:
            if bench.category not in seen:
                seen.add(bench.category)
                picked.append(bench)
        benches = picked
        args.repeat = min(args.repeat, 2)

    modules = {}
    print(f"{'module':<18}{'cycles':>8}{'interp c/s':>12}"
          f"{'compiled c/s':>14}{'speedup':>9}")
    for bench in benches:
        row = bench_module(bench, max(1, args.repeat), args.trace)
        modules[bench.name] = row
        print(f"{bench.name:<18}{row['cycles']:>8}"
              f"{row['interp_cps']:>12.0f}{row['compiled_cps']:>14.0f}"
              f"{row['speedup']:>8.2f}x", flush=True)

    summary = {
        "trace": bool(args.trace),
        "repeat": args.repeat,
        "module_count": len(modules),
        "geomean_speedup": geomean([m["speedup"] for m in modules.values()]),
        "total_interp_seconds": sum(
            m["interp_seconds"] for m in modules.values()
        ),
        "total_compiled_seconds": sum(
            m["compiled_seconds"] for m in modules.values()
        ),
        "modules": modules,
    }
    with open(args.out, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
    print(f"\ngeomean speedup: {summary['geomean_speedup']:.2f}x "
          f"over {len(modules)} modules; wrote {args.out}")

    if args.baseline:
        try:
            lines, ratio = compare_to_baseline(
                modules, args.baseline, args.regression_threshold
            )
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot read baseline {args.baseline}: {exc}",
                  file=sys.stderr)
            return 2
        table = "\n".join(lines)
        print(f"\ndelta vs baseline {args.baseline}:")
        print(table)
        if args.delta_out:
            with open(args.delta_out, "w") as handle:
                handle.write(f"## bench_sim delta vs checked-in "
                             f"baseline\n\n{table}\n")
        if ratio and ratio < 1.0 - args.regression_threshold:
            print(f"FAIL: compiled/interp speedup geomean regressed "
                  f"{100.0 * (1.0 - ratio):.0f}% against "
                  f"{args.baseline}", file=sys.stderr)
            return REGRESSION_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
