#!/usr/bin/env python3
"""CI smoke gate for the campaign runner.

Runs a small (instances x methods) campaign through the parallel
runner and fails loudly if the sweep silently produced empty or
degenerate results — the failure mode a green-but-meaningless CI run
would otherwise hide:

- the grid must be non-empty;
- UVLLM must post non-zero HR *and* FR (a reproduction where the
  headline method fixes nothing is broken, whatever pytest says);
- a second, warm-cache pass must resolve entirely from disk and
  return records identical to the cold pass;
- the merged coverage database of the smoke campaign must post
  functional coverage at or above a pinned floor (a campaign whose
  stimulus stops exercising its own bins is silently meaningless,
  whatever HR/FR say) — write it out with ``--coverage-out`` for the
  CI artifact;
- the same campaign re-run on the *other* simulation backend must
  post an identical HR/FR rate table — the compiled backend is only
  allowed to change wall-clock time, never verification verdicts
  (modelled seconds may shift: the levelized scheduler evaluates
  glitch cones fewer times, so event counts differ) — and
  bit-identical per-record coverage fragments: functional counters
  because settled values are backend-invariant, code-coverage maps
  because collection is schedule-invariant by construction
  (seq/initial live hooks + stable-point comb replay + trace-derived
  toggles).

- the cold pass runs inside a telemetry scope and its span tree must
  contain every expected campaign phase (parse, elaborate, simulate,
  attempt, cache traffic, ...) — a missing phase means the
  instrumentation silently fell off a layer while the report pipeline
  kept rendering plausible output; write the merged JSONL and a
  markdown summary with ``--telemetry-out`` for the CI artifact.
  Its merged metrics must also count UVM-run memo hits and misses:
  a sequence class without a ``key()`` would otherwise switch the
  memo off without failing anything (deterministic counts, never
  timings).

- a deliberately-failing mini campaign (repair iterations forced to
  zero) run with ``--forensics`` must produce at least one debug
  bundle carrying *every* expected section — archived stimulus,
  golden and candidate waveforms, first-divergence report, span
  slice, coverage holes — and that bundle must replay: a missing
  section or a non-reproducing replay means the capture pipeline
  regressed while failures kept getting reported; point
  ``--forensics-out`` at a directory for the CI artifact.

- with ``--chaos``, the same mini campaign re-runs under an injected
  fault plan — a worker crash, a hang past the unit timeout, a torn
  cache write, and one unit that kills its worker every time — and
  must run to completion, quarantine *exactly* the always-crashing
  unit as a poisoned record, leave every surviving record
  bit-identical to a fault-free ``--jobs 1`` run, and resolve a warm
  re-run (fault plan off) entirely from cache except the torn entry,
  which must be quarantined under ``corrupt/`` and recomputed to the
  identical record.

Usage: python scripts/ci_smoke.py [--jobs N] [--cache-dir DIR]
                                  [--backend interp|compiled|xcheck]
                                  [--coverage-out DB.json]
                                  [--telemetry-out DIR]
                                  [--forensics-out DIR]
                                  [--chaos]
"""

import argparse
import os
import sys
import tempfile

from repro.cover.db import CoverageDB
from repro.errgen.generator import generate_dataset
from repro.experiments.runner import group_records, rates
from repro.obs import export, sink, trace
from repro.runner import ResultCache, expand_grid
from repro.runner.scheduler import CampaignRunner

MODULES = ["adder_8bit", "counter_12", "edge_detect"]
METHODS = ("uvllm", "meic")
ATTEMPTS = 2
#: Minimum merged functional coverage (%) for the smoke campaign.
#: Measured ~97.5 on the seed suite; the floor leaves headroom for
#: dataset drift but still catches a stimulus regression outright.
COVERAGE_FLOOR = 95.0
#: Span names the cold smoke campaign must emit.  Each one anchors a
#: different instrumentation layer (scheduler, repair loop, UVM run,
#: HDL front-end, result cache, simulated LLM); losing any of them
#: means a refactor silently detached that layer from the telemetry
#: pipeline while reports kept rendering plausible output.
REQUIRED_SPANS = ("campaign", "unit", "attempt", "simulate", "parse",
                  "elaborate", "cache-read", "cache-write", "repair-llm")


def fail(message):
    print(f"SMOKE FAIL: {message}", file=sys.stderr)
    return 1


def rate_table(records, methods=METHODS):
    """HR/FR per method — the backend-invariant slice of the results
    (modelled seconds are excluded: they track event counts, which are
    scheduler-dependent)."""
    by_method = group_records(records, lambda r: r.method)
    table = {}
    for method in methods:
        hr, fr, _ = rates(by_method.get(method, []))
        table[method] = (round(hr, 6), round(fr, 6))
    return table


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--cache-dir", default=None,
                        help="reused for the dataset cache only; unit "
                             "results always go to a fresh directory so "
                             "the cold pass genuinely executes")
    parser.add_argument("--backend", default=None,
                        choices=("interp", "compiled", "xcheck"),
                        help="simulation backend for the main smoke "
                             "campaign (default: interp, or "
                             "REPRO_SIM_BACKEND)")
    parser.add_argument("--coverage-out", default=None,
                        help="write the smoke campaign's merged "
                             "coverage DB here (CI uploads it)")
    parser.add_argument("--telemetry-out", default=None,
                        help="write the cold campaign's merged "
                             "telemetry JSONL and markdown summary "
                             "under this directory (CI uploads both)")
    parser.add_argument("--forensics-out", default=None,
                        help="cache directory for the forced-failure "
                             "forensics gate; bundles land under "
                             "<dir>/forensics/ (CI uploads them)")
    parser.add_argument("--chaos", action="store_true",
                        help="also run the fault-injection gate: "
                             "worker crash + hang + torn cache write "
                             "+ a poison unit, demanding completion, "
                             "a single quarantine and bit-identical "
                             "survivors")
    args = parser.parse_args()
    if args.backend is None:
        from repro.sim.backend import get_default_backend

        args.backend = get_default_backend()
    dataset_cache_dir = args.cache_dir or tempfile.mkdtemp(
        prefix="ci-smoke-data-"
    )
    # The unit-result cache must start empty: a preceding
    # run_experiments step sharing --cache-dir would otherwise have
    # pre-cached every unit, turning the cold/warm comparison into two
    # cache reads that can't catch a parallel-vs-serial divergence.
    unit_cache_dir = tempfile.mkdtemp(prefix="ci-smoke-units-")

    instances = generate_dataset(
        seed=0, per_operator=1, target=None, modules=MODULES,
        cache_dir=dataset_cache_dir,
    )
    units = expand_grid(instances, METHODS, attempts=ATTEMPTS,
                        backend=args.backend)
    if not units:
        return fail("campaign grid is empty")

    # The cold pass is the telemetry gate: it is the only pass where
    # every unit genuinely executes, so every instrumentation layer
    # must light up (warm/parity passes legitimately skip phases).
    telemetry_dir = (os.path.join(args.telemetry_out, "shards")
                     if args.telemetry_out
                     else tempfile.mkdtemp(prefix="ci-smoke-tele-"))
    cold_cache = ResultCache(unit_cache_dir)
    with sink.telemetry_scope(telemetry_dir):
        with trace.span("campaign", cat="scheduler", units=len(units),
                        jobs=args.jobs):
            cold = CampaignRunner(jobs=args.jobs,
                                  cache=cold_cache).run(units)
    if len(cold) != len(units) or any(r is None for r in cold):
        return fail("campaign dropped work units")
    if cold_cache.writes != len(units):
        return fail("cold pass resolved from a pre-warmed cache — "
                    "nothing was actually executed")

    spans, span_metrics = sink.read_shards(telemetry_dir)
    span_names = {item.get("name") for item in spans}
    missing = [name for name in REQUIRED_SPANS if name not in span_names]
    if missing:
        return fail(f"campaign span tree is missing expected phases "
                    f"{missing} — telemetry instrumentation regressed")
    memo_hits = span_metrics.counter("uvm.memo_hits")
    memo_misses = span_metrics.counter("uvm.memo_misses")
    if not (memo_hits > 0 and memo_misses > 0):
        return fail(f"UVM-run memo saw {memo_hits} hits and "
                    f"{memo_misses} misses — it has switched itself off")
    print(f"telemetry ok: {len(spans)} spans across "
          f"{len(span_names)} phases; UVM memo {memo_hits} hits, "
          f"{memo_misses} misses")
    if args.telemetry_out:
        merged = sink.write_merged(
            telemetry_dir, os.path.join(args.telemetry_out,
                                        "merged.jsonl"))
        report = export.summarize(spans, span_metrics)
        summary_path = os.path.join(args.telemetry_out, "summary.md")
        with open(summary_path, "w") as handle:
            handle.write(export.render_summary(report, markdown=True)
                         + "\n")
        print(f"telemetry artifacts: {merged} and {summary_path}")

    by_method = group_records(cold, lambda r: r.method)
    for method in METHODS:
        n = len(by_method.get(method, []))
        if n == 0:
            return fail(f"no records for method '{method}'")
    hr, fr, _ = rates(by_method["uvllm"])
    print(f"uvllm over {len(by_method['uvllm'])} instances: "
          f"HR {hr:.1f}%, FR {fr:.1f}%")
    if hr <= 0.0:
        return fail("UVLLM hit rate is zero — repairs never accepted")
    if fr <= 0.0:
        return fail("UVLLM fix rate is zero — no repair survives the "
                    "held-out suite")

    warm_cache = ResultCache(unit_cache_dir)
    warm = CampaignRunner(jobs=1, cache=warm_cache).run(units)
    if warm_cache.misses:
        return fail(f"warm pass missed cache {warm_cache.misses} times")
    if warm != cold:
        return fail("warm-cache records differ from cold-run records")

    coverage_db = CoverageDB.from_records(cold)
    functional = 100.0 * coverage_db.functional_coverage()
    print(f"merged functional coverage: {functional:.2f}% "
          f"({len(coverage_db.functional)} modules, "
          f"{len(coverage_db.code)} code groups)")
    if functional < COVERAGE_FLOOR:
        return fail(
            f"smoke-campaign functional coverage {functional:.2f}% is "
            f"below the pinned floor {COVERAGE_FLOOR}%"
        )
    if not coverage_db.code:
        return fail("no code-coverage groups in the merged DB")
    if args.coverage_out:
        coverage_db.write(args.coverage_out)
        print(f"coverage DB written to {args.coverage_out} "
              f"(key {coverage_db.content_key()[:12]})")

    # Re-run the identical grid on the other backend (fresh unit
    # cache: backend-keyed entries would all miss anyway) and
    # demand an identical HR/FR table.
    other = "compiled" if args.backend != "compiled" else "interp"
    other_units = expand_grid(instances, METHODS, attempts=ATTEMPTS,
                              backend=other)
    other_cache = ResultCache(tempfile.mkdtemp(prefix="ci-smoke-alt-"))
    other_records = CampaignRunner(
        jobs=args.jobs, cache=other_cache
    ).run(other_units)
    main_table = rate_table(cold)
    other_table = rate_table(other_records)
    if main_table != other_table:
        return fail(
            f"HR/FR rate tables diverge between backends: "
            f"{args.backend}={main_table} vs {other}={other_table}"
        )
    main_cov = [r.coverage for r in cold]
    other_cov = [r.coverage for r in other_records]
    if main_cov != other_cov:
        diverged = [
            cold[i].instance_id
            for i in range(len(cold)) if main_cov[i] != other_cov[i]
        ]
        return fail(
            f"coverage fragments diverge between backends "
            f"(functional counters and code-coverage maps must be "
            f"schedule-invariant); first offenders: {diverged[:5]}"
        )
    print(f"backend parity ok: {args.backend} and {other} post "
          f"identical HR/FR and bit-identical coverage over "
          f"{len(units)} units")

    code = forensics_gate(args)
    if code:
        return code

    if args.chaos:
        code = chaos_gate(args)
        if code:
            return code

    print(f"smoke ok: {len(units)} units, warm pass fully cached "
          f"({warm_cache.hits} hits)")
    return 0


def forensics_gate(args):
    """Forced-failure capture gate.

    Zeroing the repair-iteration knobs turns every *detected* mutant
    into a failing unit; at least one resulting bundle must carry
    every expected section and replay from the bundle alone.  A
    passing campaign with an empty or hollow forensics directory is
    exactly the regression this gate exists to catch.
    """
    from repro.forensics.bundle import COMPLETE_SECTIONS
    from repro.forensics import triage
    from repro.runner.scheduler import run_units

    cache_dir = args.forensics_out or tempfile.mkdtemp(
        prefix="ci-smoke-forensics-")
    # counter_12 at per_operator=2 is enough: that slice contains
    # mutants the HR suite actually detects (the per_operator=1 smoke
    # slice happens to be all-undetected), they simulate (so waveform
    # sections exist), and the grid stays small.
    subset = generate_dataset(seed=0, per_operator=2, target=None,
                              modules=["counter_12"], cache_dir=None)
    units = expand_grid(subset, ("uvllm",), attempts=1,
                        config_overrides={"max_iterations": 0,
                                          "ms_iterations": 0},
                        backend=args.backend)
    records = run_units(units, jobs=1, cache_dir=cache_dir,
                        telemetry=True, forensics_capture=True)
    failing = sum(1 for r in records if not r.hit)
    if failing == 0:
        return fail("forensics gate: forced-failure campaign produced "
                    "no failing units — the forcing knob regressed")
    forensics_dir = os.path.join(cache_dir, "forensics")
    bundles = triage.list_bundles(forensics_dir)
    if not bundles:
        return fail(f"forensics gate: {failing} failing unit(s) but no "
                    f"debug bundles under {forensics_dir}")
    complete = [
        manifest for manifest in bundles
        if all(section in manifest.get("sections", {})
               for section in COMPLETE_SECTIONS)
    ]
    if not complete:
        missing = {
            os.path.basename(m["_dir"]): sorted(
                set(COMPLETE_SECTIONS) - set(m.get("sections", {}))
            )
            for m in bundles
        }
        return fail(f"forensics gate: no bundle carries every expected "
                    f"section; missing per bundle: {missing}")
    reproduced, detail = triage.replay(complete[0])
    if not reproduced:
        return fail(f"forensics gate: bundle "
                    f"{os.path.basename(complete[0]['_dir'])} does not "
                    f"replay: {detail}")
    print(f"forensics ok: {failing} failing unit(s), {len(bundles)} "
          f"bundle(s), {len(complete)} complete; replay reproduced "
          f"({detail})")
    return 0


def chaos_gate(args):
    """Fault-injection gate.

    The mini campaign runs under a deterministic fault plan: one unit
    crashes its worker once (must recover via retry), one hangs past
    the unit timeout once (must be reclaimed by the alarm and retried),
    one has its cache write torn mid-file (must be quarantined to
    ``corrupt/`` and recomputed on the warm pass), and one kills its
    worker on every attempt (must be quarantined as a poisoned record
    while the campaign runs to completion).  Every surviving record
    must be bit-identical to a fault-free ``--jobs 1`` reference run.
    """
    from repro.runner import faultinject
    from repro.runner.faults import FaultPolicy

    subset = generate_dataset(seed=0, per_operator=2, target=None,
                              modules=["counter_12"], cache_dir=None)
    units = expand_grid(subset, ("uvllm",), attempts=1,
                        backend=args.backend)
    if len(units) < 4:
        return fail(f"chaos gate: grid has only {len(units)} units; "
                    f"the fault plan needs 4 distinct targets")

    # Fault-free serial reference, fresh cache: the ground truth every
    # chaos survivor must match bit-for-bit.
    ref = CampaignRunner(
        jobs=1,
        cache=ResultCache(tempfile.mkdtemp(prefix="ci-smoke-cref-")),
    ).run(units)

    crash_once, hang_once, torn, poison = units[:4]

    # Leg 1 — crash + torn write + poison unit, parallel.  The hang
    # runs as its own leg: concurrent pool breakage would otherwise
    # consume the hang's fault budget as collateral damage and skip
    # the timeout path nondeterministically.
    plan = faultinject.make_plan([
        {"site": "unit", "match": crash_once.cache_key(),
         "kind": "crash", "times": 1},
        {"site": "cache-write", "match": torn.cache_key(),
         "kind": "tear", "times": 1},
        {"site": "unit", "match": poison.cache_key(),
         "kind": "crash", "times": 99},
    ])
    chaos_dir = tempfile.mkdtemp(prefix="ci-smoke-chaos-")
    with faultinject.plan_scope(plan):
        runner = CampaignRunner(
            jobs=max(2, args.jobs), cache=ResultCache(chaos_dir),
            policy=FaultPolicy(unit_timeout=10.0, backoff=0.05),
        )
        chaos = runner.run(units)
    stats = runner.fault_stats
    if len(chaos) != len(units):
        return fail("chaos gate: campaign dropped work units")
    poisoned = [r for r in chaos if getattr(r, "failure_kind", None)]
    if len(poisoned) != 1:
        return fail(f"chaos gate: expected exactly 1 quarantined unit, "
                    f"got {len(poisoned)} "
                    f"({[r.instance_id for r in poisoned]})")
    if poisoned[0].instance_id != poison.instance.instance_id:
        return fail(f"chaos gate: wrong unit quarantined "
                    f"({poisoned[0].instance_id}, expected "
                    f"{poison.instance.instance_id})")
    diverged = [
        units[i].unit_id for i in range(len(units))
        if units[i] is not poison and chaos[i] != ref[i]
    ]
    if diverged:
        return fail(f"chaos gate: surviving records diverge from the "
                    f"fault-free reference: {diverged[:5]}")
    if stats["pool_respawns"] < 1 or stats["worker_deaths"] < 1 \
            or stats["quarantined"] != 1:
        return fail(f"chaos gate: fault counters look wrong (injected "
                    f"crashes did not exercise the recovery paths): "
                    f"{stats}")

    # Leg 2 — one unit hangs past the timeout once; the worker-side
    # alarm must reclaim it and the retry must land the real record.
    hang_plan = faultinject.make_plan([
        {"site": "unit", "match": hang_once.cache_key(),
         "kind": "hang", "seconds": 60, "times": 1},
    ])
    with faultinject.plan_scope(hang_plan):
        hang_runner = CampaignRunner(
            jobs=max(2, args.jobs),
            cache=ResultCache(tempfile.mkdtemp(prefix="ci-smoke-hang-")),
            policy=FaultPolicy(unit_timeout=8.0, backoff=0.05),
        )
        hang_records = hang_runner.run(units)
    hstats = hang_runner.fault_stats
    if hang_records != ref:
        return fail("chaos gate: records after a hang+timeout+retry "
                    "differ from the fault-free reference")
    if hstats["timeouts"] < 1 or hstats["quarantined"]:
        return fail(f"chaos gate: hang leg never hit the timeout path "
                    f"(or quarantined spuriously): {hstats}")

    # Warm pass, fault plan off: everything resolves from cache except
    # the torn entry, which must surface as a corrupt-quarantine.
    warm_cache = ResultCache(chaos_dir)
    warm = CampaignRunner(jobs=1, cache=warm_cache).run(units)
    if warm != chaos:
        return fail("chaos gate: warm re-run records differ from the "
                    "chaos run (poisoned record did not round-trip "
                    "the cache, or a survivor changed)")
    if warm_cache.misses != 1:
        return fail(f"chaos gate: warm re-run should miss exactly the "
                    f"torn cache entry, missed {warm_cache.misses}")
    corrupt_dir = os.path.join(chaos_dir, "corrupt")
    if not (os.path.isdir(corrupt_dir) and os.listdir(corrupt_dir)):
        return fail("chaos gate: torn cache write was never "
                    "quarantined under corrupt/")
    print(f"chaos ok: {len(units)} units under crash+hang+tear+poison; "
          f"1 unit quarantined, survivors bit-identical, warm pass "
          f"recovered the torn entry "
          f"({stats['pool_respawns']} pool respawn(s), "
          f"{stats['worker_deaths']} worker death(s), "
          f"{hstats['timeouts']} timeout(s) in the hang leg)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
