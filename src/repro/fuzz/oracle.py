"""The fuzzing oracle: one generated design, four independent checks.

Given a design's source and a pin-level stimulus (an explicit op
list, so corpus entries replay without the generator), the oracle:

1. **printer round-trip** — ``print(parse(src))`` must hit a print
   fixpoint and re-elaborate to an identical design signature
   (signals, widths, signedness, memories, ports, process shapes);
2. **xcheck lockstep** — the design runs under the ``xcheck`` backend
   (interpreter + compiled engine comparing all architectural state
   after every settle), with code coverage collected on both sides;
3. **coverage parity** — the two sides' statement/branch/toggle maps
   must be bit-identical (the backend-invariance contract of
   :mod:`repro.cover.code`);
4. **round-trip behaviour** — the *printed* source, simulated on the
   interpreter under the same stimulus, must produce the exact
   value-change trace of the original (a printer bug that flips
   precedence or drops a statement shows up here even when the
   design signature survives).

A verdict is ``None`` (all checks passed) or a :class:`FuzzFailure`
with a stable ``kind`` — the signature the shrinker preserves while
minimizing.
"""

from dataclasses import dataclass

from repro.hdl.errors import HdlSyntaxError
from repro.hdl.parser import parse_source
from repro.hdl.printer import print_module
from repro.sim.compile.xcheck import XCheckDivergence, XCheckSimulator
from repro.sim.elaborate import elaborate
from repro.sim.engine import Simulator
from repro.sim.values import Value

#: Stimulus ops: ("poke", name, bits, xmask) | ("tick",) | ("settle",)
#: — a flat, JSON-serializable driving script.


@dataclass
class FuzzFailure:
    """A reproducible oracle failure."""

    kind: str
    detail: str

    def to_dict(self):
        return {"kind": self.kind, "detail": self.detail}


def design_signature(design):
    """A structural fingerprint of an elaborated design.

    Two elaborations of semantically identical source must agree on
    it: every signal's (name, width, signedness, kind), every
    memory's shape, the port map, and the multiset of process
    (kind, body-length) pairs.
    """
    processes = {}
    for process in design.processes:
        key = (process.kind, len(process.body))
        processes[key] = processes.get(key, 0) + 1
    return {
        "top": design.top_name,
        "signals": sorted(
            (s.name, s.width, bool(s.signed), s.kind)
            for s in design.signals.values()
        ),
        "memories": sorted(
            (m.name, m.width, m.lo, m.hi, bool(m.signed))
            for m in design.memories.values()
        ),
        "ports": sorted(
            (name, direction, signal.width)
            for name, (direction, signal) in design.ports.items()
        ),
        "processes": sorted(
            (kind, length, count)
            for (kind, length), count in processes.items()
        ),
    }


def gen_stimulus(inputs, stim_seed, cycles, has_clock, has_reset):
    """A deterministic random pin-level op list for a design.

    ``inputs`` is the generator's (name, width) list (clock and reset
    excluded).  The script opens with a reset pulse when the design
    has one, then per cycle re-drives a random subset of inputs —
    occasionally with all-x values, exercising x-propagation through
    every layer — and advances via ``tick`` (clocked) or ``settle``.
    """
    import random

    rng = random.Random(f"repro-fuzz-stim:{stim_seed}")
    ops = []
    step = ("tick",) if has_clock else ("settle",)
    if has_reset:
        ops.append(("poke", "rst_n", 0, 0))
        for name, width in inputs:
            ops.append(("poke", name, rng.getrandbits(width), 0))
        ops.extend([step, step])
        ops.append(("poke", "rst_n", 1, 0))
    for _ in range(cycles):
        for name, width in inputs:
            roll = rng.random()
            if roll < 0.6:
                ops.append(("poke", name, rng.getrandbits(width), 0))
            elif roll < 0.67:
                ops.append(("poke", name, 0, (1 << width) - 1))  # all-x
        ops.append(step)
    return ops


def apply_stimulus(sim, ops, on_sample=None):
    """Drive ``sim`` through an op list; ``on_sample`` (if given) is
    called after every tick/settle — the stable points where code
    coverage replays comb bodies."""
    for op in ops:
        if op[0] == "poke":
            _, name, bits, xmask = op
            width = sim.signal_width(name)
            sim.poke(name, Value(bits, width, xmask))
        elif op[0] == "tick":
            sim.tick()
            if on_sample is not None:
                on_sample()
        elif op[0] == "settle":
            sim.settle()
            sim.step_time(10)
            if on_sample is not None:
                on_sample()
        else:
            raise ValueError(f"unknown stimulus op {op[0]!r}")


def _diff_dict(a, b, label):
    """First differing key between two flat-ish dicts, for diagnostics."""
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            return (f"{label}[{key!r}]: "
                    f"{_clip(a.get(key))} != {_clip(b.get(key))}")
    return f"{label}: equal"


def _clip(value, limit=200):
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


def run_oracle(source, ops):
    """Run every differential check; ``None`` means all passed."""
    # 1. parse + printer fixpoint + elaboration-signature stability.
    try:
        first = parse_source(source)
    except HdlSyntaxError as exc:
        return FuzzFailure("parse-error", str(exc))
    printed = "\n".join(print_module(m) for m in first.modules)
    try:
        second = parse_source(printed)
    except HdlSyntaxError as exc:
        return FuzzFailure("reparse-error",
                           f"printed source does not parse: {exc}")
    reprinted = "\n".join(print_module(m) for m in second.modules)
    if printed != reprinted:
        return FuzzFailure("print-fixpoint",
                           "print(parse(print(ast))) != print(ast)")
    try:
        original_design = elaborate(first)
        printed_design = elaborate(second)
    except Exception as exc:  # any engine failure is a finding
        return FuzzFailure("elab-error",
                           f"{type(exc).__name__}: {exc}")
    sig_a = design_signature(original_design)
    sig_b = design_signature(printed_design)
    if sig_a != sig_b:
        return FuzzFailure("elab-signature", _diff_dict(sig_a, sig_b,
                                                        "signature"))

    # 2+3. interp/compiled lockstep with code-coverage parity.
    try:
        sim = XCheckSimulator(source, trace=True, code_coverage=True)

        def sample():
            sim.ref.code_coverage.sample_stable()
            sim.dut.code_coverage.sample_stable()

        apply_stimulus(sim, ops, on_sample=sample)
    except XCheckDivergence as exc:
        return FuzzFailure("xcheck-divergence", str(exc))
    except Exception as exc:
        # Catch-all on purpose: any crash on a generated design is a
        # finding to shrink and archive (MemoryError, RecursionError,
        # a TypeError in codegen...), never a campaign abort.
        return FuzzFailure(f"run-error:{type(exc).__name__}", str(exc))
    ref_cov = sim.ref.code_coverage.finalize(sim.ref).to_dict()
    dut_cov = sim.dut.code_coverage.finalize(sim.dut).to_dict()
    if ref_cov != dut_cov:
        return FuzzFailure("coverage-parity",
                           _diff_dict(ref_cov, dut_cov, "coverage"))

    # 4. the printed source must behave identically on the reference
    # backend: bit-identical value-change traces.
    try:
        printed_sim = Simulator(printed_design, trace=True)
        apply_stimulus(printed_sim, ops)
    except Exception as exc:
        return FuzzFailure("roundtrip-run-error",
                           f"{type(exc).__name__}: {exc}")
    if printed_sim.trace != sim.ref.trace:
        return FuzzFailure(
            "roundtrip-trace",
            _diff_dict(sim.ref.trace, printed_sim.trace, "trace"),
        )
    return None


def check_design(design, cycles=24, stim_seed=None):
    """Oracle over a :class:`~repro.fuzz.generate.GeneratedDesign`.

    Returns ``(ops, failure_or_none)`` so callers (campaign,
    shrinker, corpus) share the exact stimulus."""
    seed = design.seed if stim_seed is None else stim_seed
    ops = gen_stimulus(design.inputs, seed, cycles,
                       design.has_clock, design.has_reset)
    return ops, run_oracle(design.source, ops)
