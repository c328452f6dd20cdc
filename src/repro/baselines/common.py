"""Shared baseline infrastructure: the finite testbench and outcomes."""

from dataclasses import dataclass, field

from repro.uvm.sequence import ConcatSequence, RandomSequence, ResetSequence
from repro.uvm.test import run_uvm_test


@dataclass
class BaselineOutcome:
    """Result of one baseline run on one instance."""

    final_source: str
    hit: bool                      # passed the method's own testbench
    iterations: int = 0
    seconds: float = 0.0
    llm_calls: int = 0
    stage_seconds: dict = field(default_factory=dict)

    @property
    def succeeded(self):
        return self.hit


class SimpleTestbench:
    """The fixed finite testbench MEIC-style methods verify against.

    A handful of random vectors with a single seed and no coverage
    goals — the paper's critique: ~10% of errors escape it entirely and
    repairs overfit to it.
    """

    def __init__(self, bench, vectors=8, seed=42):
        self.bench = bench
        self.vectors = vectors
        self.seed = seed

    def sequence(self):
        parts = []
        if self.bench.protocol.is_clocked and \
                self.bench.protocol.reset is not None:
            parts.append(
                ResetSequence(
                    cycles=1,
                    fields={name: 0 for name in self.bench.field_ranges},
                )
            )
        parts.append(
            RandomSequence(
                self.bench.field_ranges, count=self.vectors, seed=self.seed,
                hold_cycles=self.bench.hold_cycles,
            )
        )
        return ConcatSequence(*parts)

    def run(self, source, timing=None, stage="sim"):
        """Run the DUT against the finite suite; returns the TestResult."""
        result = run_uvm_test(
            source, self.sequence(), self.bench.protocol, self.bench.model(),
            self.bench.compare_signals, top=self.bench.top,
        )
        if timing is not None:
            events = (
                result.simulator.event_count
                if result.simulator is not None else 100
            )
            timing.simulation(events, stage=stage)
        return result

    def failure_log(self, result, max_lines=20):
        """The raw, minimally-processed log text these methods prompt
        with (low information density — the paper's point)."""
        lines = result.log.format().splitlines()
        error_lines = [l for l in lines if "UVM_ERROR" in l]
        shown = error_lines[:max_lines] or lines[:max_lines]
        return "\n".join(shown)
