"""Pin-level benchmark harness shared by perf tooling.

``scripts/bench_sim.py`` (the interp-vs-compiled microbenchmark) and
``repro.cli profile`` (the cProfile hotspot view) drive DUTs the same
way: the registered benchmark's HR stimulus is flattened into plain
pin vectors *before* the clock starts, then each vector is poked,
settled and ticked — how commercial simulators are benchmarked, with
stimulus generation off the clock.  Keeping the loop here guarantees
both tools measure the identical workload.
"""

import time

from repro.bench.registry import make_hr_sequence
from repro.sim.backend import make_simulator


def materialize(bench, seed=0):
    """Flatten the HR sequence into plain pin vectors (pre-stimulus)."""
    vectors = []
    for txn in make_hr_sequence(bench, seed=seed).items():
        vectors.append((dict(txn.fields), txn.hold_cycles, dict(txn.meta)))
    return vectors


def _timed(func, totals, key):
    """Wrap ``func`` to accumulate its wall time into ``totals[key]``."""
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        result = func(*args, **kwargs)
        totals[key] = totals.get(key, 0.0) + (time.perf_counter() - t0)
        return result
    return wrapper


def drive(bench, backend, vectors, trace=False, phase_totals=None):
    """One timed run; returns ``(elapsed_seconds, cycles_driven)``.

    ``phase_totals``, if given a dict, accumulates per-phase wall
    seconds (``settle`` / ``tick``) into it.  Timed benchmark passes
    leave it ``None`` — the instrumentation wrappers would perturb the
    very numbers being measured — and run one *extra* instrumented
    pass when a phase breakdown is wanted.
    """
    protocol = bench.protocol
    simulator = make_simulator(
        bench.source, backend=backend, top=bench.top, trace=trace
    )
    settle = simulator.settle
    tick = simulator.tick
    step_time = simulator.step_time
    if phase_totals is not None:
        settle = _timed(simulator.settle, phase_totals, "settle")
        tick = _timed(simulator.tick, phase_totals, "tick")
        step_time = _timed(simulator.step_time, phase_totals, "tick")
    started = time.perf_counter()
    if protocol.reset is not None:
        for name, value in protocol.default_inputs.items():
            simulator.poke(name, value)
        if protocol.is_clocked:
            simulator.poke(protocol.clock, 0)
        simulator.set(protocol.reset, protocol.reset_assert_value())
        if protocol.is_clocked:
            tick(protocol.clock, cycles=2)
        simulator.set(protocol.reset, protocol.reset_release_value())
    cycles = 0
    for fields, hold_cycles, meta in vectors:
        if protocol.reset is not None:
            asserted = bool(meta.get("reset") or meta.get("reset_glitch"))
            simulator.poke(
                protocol.reset,
                protocol.reset_assert_value() if asserted
                else protocol.reset_release_value(),
            )
        for name, value in fields.items():
            simulator.poke(name, value)
        settle()
        if protocol.is_clocked:
            tick(protocol.clock, cycles=hold_cycles)
            cycles += hold_cycles
        else:
            step_time(10)
            cycles += 1
        if meta.get("reset_glitch") and protocol.reset is not None:
            simulator.set(protocol.reset, protocol.reset_release_value())
    return time.perf_counter() - started, cycles


def profile_bench(bench, backend="compiled", trace=False, repeat=3,
                  top_n=25, sort="cumulative", stream=None, spans=False):
    """Run the bench workload under ``cProfile``; print top hotspots.

    Returns the :class:`pstats.Stats` object so callers (tests) can
    inspect it.  ``repeat`` full drive passes amortize construction
    against steady-state simulation in the profile.  ``spans`` adds
    one extra instrumented pass (outside the profile) and prints the
    span timeline plus the settle/tick phase split next to the
    cProfile view.
    """
    import cProfile
    import pstats
    import sys

    vectors = materialize(bench)
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(max(1, repeat)):
        drive(bench, backend, vectors, trace)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=stream or sys.stdout)
    stats.sort_stats(sort)
    stats.print_stats(top_n)
    if spans:
        from repro.obs import trace as tracer

        out = stream or sys.stdout
        was_enabled = tracer.enabled()
        tracer.enable(True)
        phase_totals = {}
        try:
            with tracer.span("drive", cat="bench", module=bench.name,
                             backend=backend):
                elapsed, cycles = drive(bench, backend, vectors, trace,
                                        phase_totals=phase_totals)
        finally:
            recorded = tracer.drain()
            tracer.enable(was_enabled)
        print("-- span timeline (one instrumented pass) --", file=out)
        for item in recorded:
            attrs = item.get("attrs") or {}
            detail = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            print(f"  {item['name']:<12} {item['dur'] * 1e3:9.2f} ms  "
                  f"{detail}", file=out)
        settle_s = phase_totals.get("settle", 0.0)
        tick_s = phase_totals.get("tick", 0.0)
        print(f"  phase split: settle {settle_s * 1e3:.2f} ms, "
              f"tick {tick_s * 1e3:.2f} ms over {cycles} cycles "
              f"({elapsed * 1e3:.2f} ms total)", file=out)
    return stats
