"""Benchmark registry: design metadata and harness configuration.

Categories follow Table II's grouping (Arithmetic, Control, Memory,
Miscellaneous); ``type_tag`` is the finer ten-type taxonomy of Fig. 7.
"""

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.uvm.driver import DriveProtocol
from repro.uvm.sequence import (
    ConcatSequence,
    DirectedSequence,
    RandomSequence,
    ResetSequence,
)
from repro.uvm.transaction import Transaction

#: Table II module groups.
CATEGORIES = ("arithmetic", "control", "memory", "misc")


@dataclass
class BenchmarkModule:
    """One benchmark design plus everything needed to verify it."""

    name: str
    category: str
    type_tag: str
    source: str
    spec: str
    make_model: Callable
    protocol: DriveProtocol
    field_ranges: Dict[str, tuple]
    compare_signals: List[str]
    hold_cycles: int = 1
    hr_count: int = 40
    fr_count: int = 160
    directed: Optional[List[dict]] = None
    top: Optional[str] = None
    #: Relative structural complexity (drives the mock LLM difficulty
    #: model; FSMs and dividers are harder to repair than adders).
    complexity: float = 1.0
    #: DUT-internal FSM state register (functional transition
    #: coverage probes it through the monitor), plus the legal state
    #: arcs — the transition bins of the module's coverage model.
    state_signal: Optional[str] = None
    state_arcs: tuple = ()

    def model(self):
        instance = self.make_model()
        instance.reset()
        return instance


_REGISTRY: Dict[str, BenchmarkModule] = {}

#: name -> model factory; consumed by the reference-model generator.
MODEL_FACTORIES: Dict[str, Callable] = {}


def register(module):
    """Add a benchmark to the global registry (used by category files)."""
    if module.name in _REGISTRY:
        raise ValueError(f"duplicate benchmark '{module.name}'")
    _REGISTRY[module.name] = module
    MODEL_FACTORIES[module.name] = module.make_model
    return module


def _ensure_loaded():
    # Import side effect: category modules register their benchmarks.
    from repro.bench import arithmetic, control, memory, misc  # noqa: F401


def all_modules():
    """All benchmarks, in registration (category) order."""
    _ensure_loaded()
    return list(_REGISTRY.values())


def module_names():
    _ensure_loaded()
    return list(_REGISTRY)


def get_module(name):
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark '{name}'; known: {sorted(_REGISTRY)}"
        ) from None


def modules_by_category():
    _ensure_loaded()
    grouped = {category: [] for category in CATEGORIES}
    for module in _REGISTRY.values():
        grouped[module.category].append(module)
    return grouped


def _directed_sequence(bench):
    if not bench.directed:
        return None
    return DirectedSequence(
        [
            Transaction(fields, hold_cycles=bench.hold_cycles)
            for fields in bench.directed
        ]
    )


def make_coverage_model(bench, bin_count=4):
    """The per-module functional coverage model.

    Points over every stimulus field, crosses over all field pairs,
    and — for modules that declare an FSM state register — transition
    bins over the legal state arcs, probed from inside the DUT.
    """
    from repro.cover.model import input_space_model

    model = input_space_model(bench.field_ranges, bin_count=bin_count,
                              name=bench.name)
    if bench.state_signal and bench.state_arcs:
        model.add_transitions(
            bench.state_signal,
            [tuple(arc) for arc in bench.state_arcs],
            name=f"{bench.state_signal}_arcs",
        )
        model.probes.append(bench.state_signal)
    return model


def make_coverage_evaluator(bench, backend=None):
    """A simulator-backed closure-loop evaluator over the golden DUT.

    Drives candidate transactions through a live golden simulation so
    probe signals (FSM state) feed the coverage model; DUT state (and
    transition history) persists across epochs, exactly like one
    continuous testbench run.  Settled values are backend-invariant,
    so the generated stimulus stream does not depend on ``backend``.
    """
    from repro.sim.backend import make_simulator
    from repro.uvm.driver import Driver

    simulator = make_simulator(bench.source, backend=backend,
                               trace=False, top=bench.top)
    driver = Driver(simulator, bench.protocol)
    driver.apply_reset()

    def evaluate(model, transactions):
        new_hits = []

        def hook(txn, cycle):
            values = dict(txn.fields)
            for probe in model.probes:
                values[probe] = simulator.get(probe)
            new_hits[-1] += model.sample(values)

        for txn in transactions:
            new_hits.append(0)
            driver.drive(txn, hook)
        return new_hits

    return evaluate


def _main_stimulus(bench, count, seed, stimulus):
    """The bulk constrained-random block of a suite, in the selected
    stimulus mode (``random`` or ``coverage``)."""
    if stimulus == "coverage":
        from repro.cover.closure import CoverageDrivenSequence

        return CoverageDrivenSequence(
            bench.field_ranges, count=count, seed=seed,
            model_factory=lambda: make_coverage_model(bench),
            evaluator=make_coverage_evaluator(bench),
            hold_cycles=bench.hold_cycles,
        )
    if stimulus != "random":
        raise ValueError(
            f"unknown stimulus mode {stimulus!r} "
            "(known: random, coverage)"
        )
    return RandomSequence(
        bench.field_ranges, count=count, seed=seed,
        hold_cycles=bench.hold_cycles,
    )


def make_hr_sequence(bench, seed=0, stimulus="random"):
    """The testbench stimulus used during repair (Hit Rate suite).

    ``stimulus`` selects how the bulk constrained-random block is
    generated: ``"random"`` (fixed-random, the default) or
    ``"coverage"`` (the closed-loop coverage-driven engine at the
    same transaction budget).  Reset bursts, directed vectors and the
    async-glitch tail are identical in both modes.
    """
    parts = []
    if bench.protocol.is_clocked and bench.protocol.reset is not None:
        parts.append(ResetSequence(cycles=2, fields=_idle_fields(bench)))
    directed = _directed_sequence(bench)
    if directed is not None:
        parts.append(directed)
    parts.append(
        _main_stimulus(bench, bench.hr_count, seed, stimulus)
    )
    if bench.protocol.is_clocked and bench.protocol.reset is not None:
        # Async-reset glitch (no clock edge) + a short tail: catches
        # wrong-sensitivity defects that plain cycles cannot trigger.
        parts.append(ResetSequence(cycles=1, fields=_idle_fields(bench),
                                   glitch=True))
        parts.append(
            RandomSequence(
                bench.field_ranges, count=max(4, bench.hr_count // 8),
                seed=seed + 3, hold_cycles=bench.hold_cycles,
            )
        )
    return ConcatSequence(*parts)


def make_fr_sequence(bench, seed=1000):
    """The held-out expert-validation stimulus (Fix Rate suite).

    Larger, differently seeded, and with an extra corner-biased batch —
    the mechanized stand-in for the paper's independent expert review.
    A repair that merely overfits the HR suite fails here, reproducing
    the HR > FR gap.
    """
    parts = []
    if bench.protocol.is_clocked and bench.protocol.reset is not None:
        parts.append(ResetSequence(cycles=2, fields=_idle_fields(bench)))
    directed = _directed_sequence(bench)
    if directed is not None:
        parts.append(directed)
    parts.append(
        RandomSequence(
            bench.field_ranges, count=bench.fr_count, seed=seed,
            hold_cycles=bench.hold_cycles,
        )
    )
    parts.append(
        RandomSequence(
            bench.field_ranges, count=bench.fr_count // 4, seed=seed + 7,
            corner_weight=0.6, hold_cycles=bench.hold_cycles,
        )
    )
    if bench.protocol.is_clocked and bench.protocol.reset is not None:
        # Mid-stream reset burst: catches repairs that break reset logic.
        parts.append(ResetSequence(cycles=2, fields=_idle_fields(bench)))
        parts.append(
            RandomSequence(
                bench.field_ranges, count=bench.fr_count // 4,
                seed=seed + 13, hold_cycles=bench.hold_cycles,
            )
        )
        parts.append(ResetSequence(cycles=1, fields=_idle_fields(bench),
                                   glitch=True))
        parts.append(
            RandomSequence(
                bench.field_ranges, count=max(4, bench.fr_count // 8),
                seed=seed + 17, hold_cycles=bench.hold_cycles,
            )
        )
    return ConcatSequence(*parts)


def _idle_fields(bench):
    """All-zero input fields for reset bursts."""
    return {name: 0 for name in bench.field_ranges}
