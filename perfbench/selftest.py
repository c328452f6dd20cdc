#!/usr/bin/env python3
"""The campaign benchmark's own tests.

    python3 perfbench/selftest.py [--workload NAME ...]

Runs each workload untraced once and traced (twice on the serial
workloads) and checks that

- the wrappers are pure observers: every traced campaign gives the
  untraced, pinned verdict digest;
- deterministic per-layer counts (calls, cycles, events, repeat and
  hit fractions, units executed and cached) repeat exactly across two
  traced campaigns of a serial workload;
- each traced process's self times add up to its wall time: summed
  self time plus ``other.self_s`` equals ``trace.wall_s`` (on the pool
  path, the parent's own spans), and ``other.self_s`` stays under 10%
  of it;
- a traced run reports exactly the ``per_layer`` metrics that
  ``BENCHMARK.json`` declares.

Exits 1 on the first failed check.  Takes a few minutes.
"""

import argparse
import json
import os
import sys

sys.dont_write_bytecode = True  # write nothing into the checkout
import run  # noqa: E402

#: Per-layer metrics that are timings, or ratios of timings; every
#: other metric is a count of work and must repeat exactly.
TIMED_SUFFIXES = ("_s", ".p50", ".tail", "busy_frac", "overhead_frac")

#: Float tolerance of the self-time identity, in seconds.
IDENTITY_EPS_S = 1e-6


def declared_per_layer():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        return [metric["name"] for metric in json.load(handle)["per_layer"]]


def deterministic(layers):
    return {name: value for name, value in layers.items()
            if not name.endswith(TIMED_SUFFIXES)}


def expect(condition, message):
    if not condition:
        raise AssertionError(message)
    print("ok: " + message, flush=True)


def check_workload(workload, pins):
    serial = workload != "paper-quick-pool"
    untraced = run.run_campaign(workload)
    expect(not run.check(untraced, untraced["digest"], pins),
           "%s: untraced campaign matches its pins" % workload)
    traced = [run.run_campaign(workload, trace=True)
              for _ in range(2 if serial else 1)]
    for result in traced:
        expect(result["digest"] == untraced["digest"],
               "%s: traced verdict digest equals the untraced one"
               % workload)
        layers = result["layers"]
        wall = layers["trace.wall_s"]
        parent_self = result["trace_notes"]["parent_self_s"]
        expect(abs(parent_self + layers["other.self_s"] - wall)
               < IDENTITY_EPS_S,
               "%s: self times plus other.self_s equal the traced wall "
               "(%.6fs + %.6fs = %.6fs)"
               % (workload, parent_self, layers["other.self_s"], wall))
        if serial:
            layer_self = sum(value for name, value in layers.items()
                             if name.endswith(".self_s")
                             and name != "other.self_s")
            expect(abs(layer_self - parent_self) < IDENTITY_EPS_S,
                   "%s: reported layer self times sum to the process's"
                   % workload)
        expect(layers["other.self_s"] < 0.1 * wall,
               "%s: other.self_s is %.1f%% of the traced wall"
               % (workload, 100.0 * layers["other.self_s"] / wall))
    if serial:
        first, second = (deterministic(r["layers"]) for r in traced)
        differing = sorted(name for name in first
                           if first[name] != second[name])
        expect(not differing,
               "%s: %d deterministic counts repeat across traced runs%s"
               % (workload, len(first),
                  " (differ: %s)" % differing if differing else ""))
    return traced[0]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=run.WORKLOADS)
    args = parser.parse_args(argv)
    pins = run.load_pins()
    declared = declared_per_layer()
    try:
        for workload in args.workload or run.WORKLOADS:
            traced = check_workload(workload, pins)
            emitted = list(traced["layers"]) + ["trace.overhead_frac"]
            expect(emitted == declared,
                   "%s: the traced run reports exactly the declared "
                   "per_layer metrics" % workload)
    except (AssertionError, run.CampaignError) as exc:
        print("FAILED: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
