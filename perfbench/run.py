#!/usr/bin/env python3
"""Campaign benchmark: paper-sweep throughput, set-up time and memory,
with a traced run that attributes campaign time to layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # pins at dataset seeds 0, 1
    python3 perfbench/run.py --workload all --update-pins

Workloads (settings in ``campaign.py``), all closed-loop batch
campaigns in which each of ``jobs`` workers takes the next unit when
it finishes one:

- ``paper-quick``: the five paper drivers on the six ``--quick``
  modules, compiled backend, jobs 1, one cache dir shared by the
  drivers (400 grid units, about 230 executed).  The ROADMAP figure of
  merit; front end and kernel compile do most of their work here.
- ``paper-quick-pool``: the same sweep at jobs 2, the only workload on
  the scheduler's process-pool path.
- ``functional-interp``: functional errors only, method ``uvllm``, on
  eight simulation-heavy modules, interpreter backend, jobs 1.  Kernel
  and UVM harness dominate; nothing compiles and no baseline runs.

Timed campaigns run the dataset of dataset seed 0 in the drivers' own
order, the order ``scripts/run_experiments.py`` dispatches.  ``--seed``
only labels the run: every run measures the same work, and runs differ
by host noise alone.  (Dataset seeds 0-9 moved ``units_per_s`` by up
to 30% and ``peak_rss_mb`` between 26 and 66 MiB, which would swamp
any change to the program.)  ``--workload all`` also checks the
held-out dataset seed 1.

Each timed campaign runs cold: a fresh interpreter (``campaign.py``),
a fresh work directory and an environment without the ``REPRO_*``
knobs that would change a workload.  A run repeats campaigns for about
``--seconds`` (at least two) and reports medians, over at least three
cold set-ups for ``setup_s``.  With ``--trace 1`` it times untraced
campaigns for half the budget, then runs one traced campaign and
reports the per-layer metrics of ``layers.py``;
``trace.overhead_frac`` is the traced campaign's loss of
``units_per_s`` against the untraced median.

Everything a run writes goes under ``.perfbench-tmp/`` in the
checkout: the campaigns' work directories (removed when each campaign
ends; they are also the campaigns' ``TMPDIR``), the bytecode cache
(``pycache/``, kept between runs) and the spans of the last traced run
of each workload (``spans-<workload>.jsonl``, kept).

End-to-end metrics (``--trace 0``):

- ``units_per_s``: grid units resolved (executed or from the
  campaign's own cache) per host second, set-up excluded;
- ``setup_s``: host seconds from interpreter start to the first unit
  dispatch (imports, dataset generation and validation, grid
  expansion);
- ``peak_rss_mb``: peak resident memory of the campaign process or
  any of its pool workers;
- ``unit_ok_frac``: share of attempted grid units that produced a
  verdict and passed the output checks (``1 - unit_fail_frac``).

Output checks: every campaign of a run must give the same verdict
digest, no record may be fixed without a hit, and the HR/FR table of
each driver and method, the total modelled seconds and the verdict
digest must equal the values pinned in ``pins.json`` for the dataset
seed.  A poisoned record is one failed unit; a campaign that fails a
check counts all of its units as failed.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--workload all`` exits 1 when a check fails.
"""

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CAMPAIGN = os.path.join(HERE, "campaign.py")
PINS = os.path.join(HERE, "pins.json")
WORK_ROOT = os.path.join(ROOT, ".perfbench-tmp")
PYCACHE = os.path.join(WORK_ROOT, "pycache")

WORKLOADS = ("paper-quick", "paper-quick-pool", "functional-interp")

#: Dataset seed of every timed campaign, and the held-out seed that
#: ``--workload all`` checks as well.
DATASET_SEED = 0
PINNED_SEEDS = (DATASET_SEED, 1)

#: Environment knobs that would silently change a workload: backend
#: and lane overrides, in-program telemetry and forensics, injected
#: faults, and a shared kernel store.
SCRUBBED_ENV = ("REPRO_SIM_BACKEND", "REPRO_SIM_LANES", "REPRO_TELEMETRY",
                "REPRO_FORENSICS", "REPRO_FAULT_PLAN", "REPRO_COMPILE_CACHE")

#: A campaign that has not finished by then is killed and fails the run.
CAMPAIGN_TIMEOUT_S = 170

#: Cold set-ups behind each reported ``setup_s`` median.
SETUP_SAMPLES = 3

#: Timed campaigns per run, however long they take: a run reports the
#: median of at least two, even on a host too slow to fit two in
#: ``--seconds``.
MIN_CAMPAIGNS = 2

END_TO_END = (("units_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB"), ("unit_ok_frac", "frac"))


def per_layer_unit(name):
    """The unit of one per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if ".unit_ms." in name:
        return "ms"
    return "count"


class CampaignError(Exception):
    """A campaign process failed or timed out."""


def child_env(work):
    env = {key: value for key, value in os.environ.items()
           if key not in SCRUBBED_ENV}
    env["PYTHONPATH"] = SRC
    env["PYTHONPYCACHEPREFIX"] = PYCACHE
    env["TMPDIR"] = work
    return env


def run_campaign(workload, dataset_seed=DATASET_SEED, trace=False,
                 spans_out=None, setup_only=False):
    """One cold campaign in a fresh interpreter; returns its result.
    ``setup_only`` stops it at the first unit dispatch."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = os.path.join(WORK_ROOT, "%s-%d-%d" % (
        workload, os.getpid(), time.monotonic_ns()))
    os.makedirs(work)
    label = "%s dataset seed %d" % (workload, dataset_seed)
    command = [sys.executable, CAMPAIGN, "--workload", workload,
               "--dataset-seed", str(dataset_seed), "--work-dir", work]
    if setup_only:
        command.append("--setup-only")
    if trace:
        command.append("--trace")
        if spans_out:
            command += ["--spans-out", spans_out]
    try:
        spawned = time.monotonic()
        process = subprocess.Popen(
            command + ["--spawned-at", repr(spawned)], cwd=ROOT,
            env=child_env(work), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = process.communicate(timeout=CAMPAIGN_TIMEOUT_S)
        except BaseException as exc:
            # Timed out or interrupted: take the campaign's pool
            # workers down with it, and wait for them.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise CampaignError("%s: timed out after %ds"
                                    % (label, CAMPAIGN_TIMEOUT_S)) from None
            raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if process.returncode != 0:
        raise CampaignError("%s: exit %d\n%s" % (
            label, process.returncode, err[-4000:]))
    return json.loads(out.strip().splitlines()[-1])


def load_pins():
    with open(PINS) as handle:
        return json.load(handle)


def pinned_view(result):
    """The fields of a campaign result that ``pins.json`` pins."""
    return {key: result[key]
            for key in ("units", "tables", "modelled_s", "digest")}


def check(result, reference_digest, pins):
    """Output-check failures of one campaign result (empty when
    correct)."""
    problems = []
    if result["poisoned"]:
        problems.append("%d poisoned units" % result["poisoned"])
    if result["fixed_without_hit"]:
        problems.append("%d records fixed without a hit"
                        % result["fixed_without_hit"])
    if result["digest"] != reference_digest:
        problems.append("verdict digest differs between campaigns of "
                        "one run")
    pinned = pins.get(result["workload"], {}).get(
        str(result["dataset_seed"]))
    if pinned is None:
        problems.append("no pinned values for dataset seed %d"
                        % result["dataset_seed"])
    else:
        for key, value in pinned_view(result).items():
            if value != pinned[key]:
                problems.append("%s differs from the pinned value" % key)
    return problems


def failed_units(result, problems):
    return result["units"] if problems else result["poisoned"]


def units_per_s(result):
    """Grid units per host second of campaign time."""
    return result["units"] / result["campaign_s"]


def measure(workload, budget_s, min_campaigns=MIN_CAMPAIGNS):
    """Untraced cold campaigns while the next one is expected to end
    within ``budget_s`` (at least ``min_campaigns``); returns their
    results."""
    results = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        result = run_campaign(workload)
        results.append(result)
        last = time.monotonic() - began
        print("  campaign %d: %d units, set-up %.3fs, campaign %.3fs, "
              "%.2f units/s, peak %.1f MiB" % (
                  len(results), result["units"], result["setup_s"],
                  result["campaign_s"], units_per_s(result),
                  result["peak_rss_mb"]),
              flush=True)
        if len(results) >= min_campaigns and \
                time.monotonic() - start + last > budget_s:
            return results


def setup_samples(workload, results):
    """Set-up times of ``results`` plus set-up-only runs, so that every
    run reports a median over :data:`SETUP_SAMPLES` cold set-ups."""
    samples = [result["setup_s"] for result in results]
    while len(samples) < SETUP_SAMPLES:
        samples.append(run_campaign(workload, setup_only=True)["setup_s"])
    print("  set-up times: "
          + ", ".join("%.3fs" % sample for sample in samples))
    return samples


def account(results, pins):
    """``(correct, attempted, failed, problems)`` over campaign
    results that must all agree with the first one."""
    attempted = failed = 0
    problems = []
    for result in results:
        found = check(result, results[0]["digest"], pins)
        problems.extend(found)
        attempted += result["units"]
        failed += failed_units(result, found)
    return not problems, max(1, attempted), failed, problems


def end_to_end(results, setups, attempted, failed):
    values = {
        "units_per_s": statistics.median(units_per_s(r) for r in results),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "unit_ok_frac": 1.0 - failed / attempted,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def run_timed(args, pins):
    results = measure(args.workload, args.seconds)
    setups = setup_samples(args.workload, results)
    correct, attempted, failed, problems = account(results, pins)
    metrics = end_to_end(results, setups, attempted, failed)
    for name, metric in metrics.items():
        print("%-14s %14.4f %s" % (name, metric["value"], metric["unit"]))
    print("unit_fail_frac %14.4f frac (%d of %d units)"
          % (failed / attempted, failed, attempted))
    return correct, attempted, failed, problems, metrics


def run_traced(args, pins):
    untraced = measure(args.workload, args.seconds / 2.0, min_campaigns=1)
    spans_out = os.path.join(WORK_ROOT, "spans-%s.jsonl" % args.workload)
    traced = run_campaign(args.workload, trace=True, spans_out=spans_out)
    correct, attempted, failed, problems = account(untraced + [traced],
                                                   pins)
    layers = dict(traced["layers"])
    baseline = statistics.median(units_per_s(r) for r in untraced)
    layers["trace.overhead_frac"] = 1.0 - units_per_s(traced) / baseline
    notes = traced["trace_notes"]
    print("traced campaign: %.3fs; spans in %s"
          % (traced["campaign_s"], os.path.relpath(spans_out, ROOT)))
    print("runner.unit_ms.tail is p%g of %d executed units"
          % (notes["unit_ms_tail_pct"], notes["unit_ms_samples"]))
    for name, value in layers.items():
        print("%-32s %16.4f %s" % (name, value, per_layer_unit(name)))
    metrics = {name: {"value": value, "unit": per_layer_unit(name)}
               for name, value in layers.items()}
    return correct, attempted, failed, problems, metrics


def paper_reference():
    """``PAPER`` from ``scripts/run_experiments.py``."""
    import importlib.util

    sys.path.insert(0, SRC)
    spec = importlib.util.spec_from_file_location(
        "run_experiments", os.path.join(ROOT, "scripts",
                                        "run_experiments.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PAPER


def print_reference(result, paper):
    """Paper figures next to the campaign's own (modelled) values."""
    tables = result["tables"]
    rows = []
    for driver in ("fig5", "fig6"):
        for method in ("uvllm", "meic"):
            if method in tables.get(driver, {}):
                rows.append(("%s %s FR %%" % (driver, method),
                             tables[driver][method][1],
                             paper[driver]["%s_fr" % method]))
    if result.get("modelled_speedup") is not None:
        rows.append(("table2 speedup x", result["modelled_speedup"],
                     paper["table2"]["speedup"]))
    for label, ours, theirs in rows:
        print("    %-20s modelled %8.2f   paper %8.2f" % (label, ours, theirs))


def run_all(args, pins):
    """Every workload once at each pinned dataset seed: checks the pins
    and prints the paper's figures next to the modelled ones."""
    paper = paper_reference()
    attempted = failed = 0
    problems = []
    metrics = {}
    for workload in WORKLOADS:
        results = []
        workload_failed = 0
        for seed in PINNED_SEEDS:
            result = run_campaign(workload, dataset_seed=seed)
            found = check(result, result["digest"], pins)
            print("%s dataset seed %d: %s"
                  % (workload, seed, "; ".join(found) or "pins ok"))
            print_reference(result, paper)
            problems.extend("%s dataset seed %d: %s" % (workload, seed, p)
                            for p in found)
            workload_failed += failed_units(result, found)
            results.append(result)
        units = sum(r["units"] for r in results)
        attempted += units
        failed += workload_failed
        setups = [r["setup_s"] for r in results]
        for name, metric in end_to_end(results, setups, units,
                                       workload_failed).items():
            metrics["%s.%s" % (workload, name)] = metric
            print("  %-14s %14.4f %s" % (name, metric["value"],
                                         metric["unit"]))
        print("  unit_fail_frac %14.4f frac" % (workload_failed / units))
    print("FR and speedup above are modelled: the LLM is mocked, time is "
          "modelled and the model is unvalidated; they are reference "
          "values, not gated metrics.")
    return not problems, max(1, attempted), failed, problems, metrics


def update_pins(pins):
    for workload in WORKLOADS:
        for seed in PINNED_SEEDS:
            result = run_campaign(workload, dataset_seed=seed)
            if result["poisoned"] or result["fixed_without_hit"]:
                raise CampaignError("refusing to pin a failing campaign: "
                                    "%s seed %d" % (workload, seed))
            pins.setdefault(workload, {})[str(seed)] = pinned_view(result)
            print("pinned %s seed %d" % (workload, seed), flush=True)
    with open(PINS, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="labels the run; every run measures the "
                             "same work")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-pins", action="store_true",
                        help="rerun every workload at the pinned seeds "
                             "and rewrite pins.json")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no program to measure: %s/repro is missing"
              % SRC, file=sys.stderr)
        return 2

    import compileall

    # Bytecode is warm for users; compiling it is not campaign work.
    # It goes under WORK_ROOT, where the campaigns' PYTHONPYCACHEPREFIX
    # finds it.
    sys.pycache_prefix = PYCACHE
    compileall.compile_dir(os.path.join(SRC, "repro"), quiet=2)
    pins = load_pins() if os.path.exists(PINS) else {}
    try:
        if args.update_pins:
            update_pins(pins)
            return 0
        if args.workload == "all":
            outcome = run_all(args, pins)
        elif args.trace:
            outcome = run_traced(args, pins)
        else:
            outcome = run_timed(args, pins)
    except CampaignError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    correct, attempted, failed, problems, metrics = outcome
    for problem in problems:
        print("CHECK FAILED: %s" % problem)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
