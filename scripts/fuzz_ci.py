#!/usr/bin/env python3
"""CI gate for the differential fuzzing campaign.

Runs a fixed-seed fuzz campaign twice through ``repro.fuzz`` and
fails loudly on anything a green-but-meaningless run would hide:

- the cold pass must execute (or budget-skip) every unit and find
  **zero unshrunk failures** — any divergence is delta-debugged and
  written to ``--artifact-dir`` for the workflow to upload before
  this script exits non-zero;
- a second, warm pass over the same seed block must resolve entirely
  from the on-disk verdict cache and reproduce the cold pass's
  feature histogram bit-for-bit (determinism + resumability);
- the feature histogram must cover the generator's special
  constructs (FSMs, memories, comb cycles, demoted processes,
  hierarchy) — a generator regression that quietly stops
  emitting a construct would otherwise shrink the tested grammar.

To reproduce a CI failure locally, download the fuzz-failures
artifact and replay it:

    PYTHONPATH=src python - <<'PY'
    import json
    from repro.fuzz.corpus import replay_entry
    entry = json.load(open("<artifact>.json"))
    print(replay_entry(entry))
    PY

Usage: python scripts/fuzz_ci.py [--count N] [--seed S] [--jobs N]
                                 [--cycles N] [--cache-dir DIR]
                                 [--time-budget SECONDS]
                                 [--artifact-dir DIR] [--forensics]
"""

import argparse
import sys

from repro.fuzz.campaign import run_fuzz
from repro.fuzz.corpus import make_entry, save_reproducer
from repro.fuzz.generate import GENERATOR_VERSION
from repro.fuzz.shrink import shrink

#: Constructs the campaign must have exercised at least once.
REQUIRED_FEATURES = (
    "seq", "comb-always", "fsm", "memory", "comb-cycle",
    "demoted-process", "instance", "case", "x-literal",
)


def fail(message):
    print(f"FUZZ FAIL: {message}", file=sys.stderr)
    return 1


def archive_failures(failures, artifact_dir):
    """Shrink every failing verdict and write reproducer artifacts."""
    for verdict in failures:
        kind = verdict["failure"]["kind"]
        source = verdict["source"]
        ops = [tuple(op) for op in verdict["ops"]]
        result = shrink(source, ops, kind)
        entry = make_entry(
            kind, result.source, result.ops,
            description=verdict["failure"]["detail"][:500],
            origin={
                "design_seed": verdict["design_seed"],
                "stim_seed": verdict["stim_seed"],
                "cycles": verdict["cycles"],
                "generator_version": GENERATOR_VERSION,
            },
            expect="fail",
        )
        path = save_reproducer(entry, artifact_dir)
        print(f"  minimized reproducer: {path} "
              f"({len(source)} -> {len(result.source)} chars)",
              file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cycles", type=int, default=24)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--cache-dir", default=".fuzz-cache")
    parser.add_argument("--time-budget", type=float, default=480.0)
    parser.add_argument("--artifact-dir", default="fuzz-failures")
    parser.add_argument("--forensics", action="store_true",
                        help="capture a debug bundle per failing design "
                             "under <cache-dir>/forensics/ (inspect "
                             "with `repro.cli triage`)")
    args = parser.parse_args(argv)

    cold = run_fuzz(args.count, seed=args.seed, cycles=args.cycles,
                    jobs=args.jobs, cache_dir=args.cache_dir,
                    time_budget=args.time_budget, show_progress=True,
                    forensics_capture=args.forensics)
    print(f"cold: {cold['run']}/{cold['count']} designs, "
          f"{cold['skipped_by_budget']} budget-skipped, "
          f"{len(cold['failures'])} failures in "
          f"{cold['elapsed']:.1f}s")

    if cold["failures"]:
        archive_failures(cold["failures"], args.artifact_dir)
        for bundle_dir in cold.get("forensics") or []:
            if bundle_dir:
                print(f"  debug bundle: {bundle_dir}", file=sys.stderr)
        return fail(f"{len(cold['failures'])} design(s) diverged; "
                    f"minimized reproducers are in "
                    f"{args.artifact_dir}/")

    # Warm pass: cache resolution + identical summary.  If the cold
    # pass hit its time budget, the warm pass legitimately *resumes*
    # (executes the skipped tail), so the strict checks only apply to
    # the budget-free case.
    warm = run_fuzz(args.count, seed=args.seed, cycles=args.cycles,
                    jobs=args.jobs, cache_dir=args.cache_dir,
                    time_budget=args.time_budget, show_progress=True,
                    forensics_capture=args.forensics)
    if warm["failures"]:
        # A budget-truncated cold pass makes the warm pass resume the
        # unexecuted tail, so these can be genuine new divergences —
        # shrink and archive them exactly like cold-pass failures.
        archive_failures(warm["failures"], args.artifact_dir)
        for bundle_dir in warm.get("forensics") or []:
            if bundle_dir:
                print(f"  debug bundle: {bundle_dir}", file=sys.stderr)
        return fail(
            f"{len(warm['failures'])} design(s) diverged on the warm "
            f"pass (resumed tail or nondeterminism); minimized "
            f"reproducers are in {args.artifact_dir}/"
        )
    if warm["cached"] < cold["run"]:
        return fail(
            f"warm pass resolved only {warm['cached']} unit(s) from "
            f"cache; the cold pass finished {cold['run']}"
        )
    if cold["skipped_by_budget"] == 0 and \
            warm["features"] != cold["features"]:
        return fail("warm-pass feature histogram differs from cold "
                    "pass (verdicts are not deterministic)")

    # The feature floor only applies to a full campaign: a
    # budget-truncated histogram can legitimately miss rare tags.
    if cold["skipped_by_budget"] == 0:
        missing = [f for f in REQUIRED_FEATURES
                   if not cold["features"].get(f)]
        if missing:
            return fail(
                f"campaign never exercised: {', '.join(missing)}"
            )

    top = ", ".join(f"{k}:{v}" for k, v in
                    sorted(cold["features"].items()))
    print(f"fuzz ok: {cold['run']} designs clean; features: {top}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
