"""Strider reimplementation (paper [8]).

Strider repairs HDL programming defects with *signal value transition*
analysis: it compares expected and actual output transitions from the
provided tests, traces the failing output's cone, and applies a fixed
template set (operator swaps and constant increments/decrements) to
candidate statements — no LLM anywhere.

Because the templates are fixed, anything outside them (sensitivity
lists, declarations, structural damage) is out of reach; and because it
can only rank by the given tests, it overfits the finite suite exactly
like the paper's Fig. 6 shows.  Syntax errors are out of scope entirely.
"""

from repro.baselines.common import BaselineOutcome, SimpleTestbench
from repro.lint.linter import Linter
from repro.llm.repair_knowledge import FunctionalRepairEngine
from repro.metrics.timing import TimingModel

_TEMPLATE_SECONDS = 0.01  # one template instantiation


class Strider:
    """Transition-guided template repair."""

    name = "strider"

    def __init__(self, max_candidates=60, vectors=8):
        self.max_candidates = max_candidates
        self.vectors = vectors
        self.linter = Linter()
        self.engine = FunctionalRepairEngine(max_candidates=max_candidates)

    def repair(self, source, bench):
        timing = TimingModel()
        testbench = SimpleTestbench(bench, vectors=self.vectors)

        if self.linter.lint(source).errors:
            timing.lint("strider")
            # Template repair cannot synthesize missing syntax.
            return BaselineOutcome(
                final_source=source, hit=False, seconds=timing.seconds,
                stage_seconds=dict(timing.clock.by_stage),
            )

        result = testbench.run(source, timing, stage="strider")
        if result.all_passed:
            return BaselineOutcome(
                final_source=source, hit=True, seconds=timing.seconds,
                stage_seconds=dict(timing.clock.by_stage),
            )

        # Transition analysis: failing outputs -> their assignment cone.
        signals = result.mismatch_signals
        focus = self.engine.focus_lines_for(source, signals, None)
        candidates = [
            c for c in self.engine.candidates(source, focus)
            if c.kind.startswith(("op:", "const:"))
        ]

        tried = 0
        for candidate in candidates:
            if tried >= self.max_candidates:
                break
            tried += 1
            timing.clock.charge("strider", _TEMPLATE_SECONDS)
            patched = self._apply(source, candidate)
            if patched is None:
                continue
            if self.linter.lint(patched).errors:
                continue
            candidate_result = testbench.run(patched, timing,
                                             stage="strider")
            if candidate_result.all_passed:
                return BaselineOutcome(
                    final_source=patched, hit=True, iterations=tried,
                    seconds=timing.seconds,
                    stage_seconds=dict(timing.clock.by_stage),
                )
        return BaselineOutcome(
            final_source=source, hit=False, iterations=tried,
            seconds=timing.seconds,
            stage_seconds=dict(timing.clock.by_stage),
        )

    @staticmethod
    def _apply(source, candidate):
        lines = source.splitlines()
        index = candidate.line_no - 1
        if not (0 <= index < len(lines)) or lines[index] != candidate.original:
            return None
        lines[index] = candidate.patched
        return "\n".join(lines) + "\n"
