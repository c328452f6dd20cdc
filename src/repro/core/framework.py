"""The UVLLM orchestrator (Fig. 2).

``verify_and_repair`` runs the full pipeline on one DUT:

1. **Pre-processing** — Algorithm 1 (LLM for syntax errors, scripts for
   focused warnings);
2. **UVM processing** — run the UVM testbench, collect pass rate and
   mismatch log;
3. **Post-processing** — localization engine distills error info (MS
   mode first, SL mode after ``ms_iterations`` failures);
4. **Repair** — the agent proposes a patch; new syntax errors it may
   introduce are swept up by re-running the pre-processor; the rollback
   register reverts score-decreasing iterations and accumulates damage
   repairs.

Termination: all tests pass (*success*) or the iteration budget is
exhausted (*failure*); all code versions stay archived in the register.
"""

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.config import UVLLMConfig
from repro.core.preprocess import Preprocessor
from repro.core.repair import RepairAgent
from repro.core.rollback import ScoreRegister
from repro.lint.linter import Linter
from repro.locate.engine import LocalizationEngine
from repro.metrics.timing import TimingModel
from repro.uvm.test import run_uvm_test


@dataclass
class VerificationOutcome:
    """Result of one UVLLM run on one DUT instance."""

    final_source: str
    hit: bool                      # internal acceptance: UVM suite passed
    iterations: int = 0
    stage: Optional[str] = None    # "preprocess" | "ms" | "sl" | None
    seconds: float = 0.0
    stage_seconds: dict = field(default_factory=dict)
    pass_rate_history: List[float] = field(default_factory=list)
    rollbacks: int = 0
    llm_calls: int = 0
    cost_usd: float = 0.0
    preprocess_changed: bool = False

    @property
    def succeeded(self):
        return self.hit


class UVLLM:
    """The end-to-end framework."""

    def __init__(self, llm, config=None):
        self.llm = llm
        self.config = config or UVLLMConfig()
        self.linter = Linter()

    def verify_and_repair(self, source, bench):
        """Run the pipeline on ``source`` against benchmark ``bench``.

        ``bench`` supplies the spec, drive protocol, reference model,
        compare signals and the HR stimulus (``config.hr_seed`` and
        ``config.stimulus`` pick the sequence).
        """
        from repro.bench.registry import make_hr_sequence

        config = self.config
        timing = TimingModel()
        calls_before = self.llm.budget.calls
        cost_before = self.llm.budget.cost_usd
        register = ScoreRegister()
        locator = LocalizationEngine(ms_iterations=config.ms_iterations)
        agent = RepairAgent(self.llm, timing, patch_form=config.patch_form)
        preprocessor = Preprocessor(
            self.llm, timing, config.preprocess_iterations, spec=bench.spec
        )

        sequence = make_hr_sequence(bench, seed=config.hr_seed,
                                    stimulus=config.stimulus)

        current, prep_report = preprocessor.run(source)
        preprocess_changed = current != source

        outcome = VerificationOutcome(
            final_source=current, hit=False,
            preprocess_changed=preprocess_changed,
        )

        result = self._run_uvm(current, bench, sequence, timing,
                               stage="preprocess")
        outcome.pass_rate_history.append(result.pass_rate if result.ok else 0.0)
        if result.all_passed:
            outcome.hit = True
            outcome.stage = "preprocess"
            return self._finalize(outcome, current, timing, register,
                                  calls_before, cost_before)

        register.record(0, result.pass_rate if result.ok else -1.0, current)
        baseline_result = result
        tried_pairs = []

        for iteration in range(config.max_iterations):
            stage = "ms" if iteration < config.ms_iterations else "sl"
            info = locator.analyze(current, result, iteration=iteration)
            summary = info.summary(source_lines=current.splitlines())
            exclusions = list(register.damage_repairs) + tried_pairs
            proposal = agent.propose(
                current, bench.spec, summary,
                damage_repairs=exclusions, stage=stage,
            )
            outcome.iterations = iteration + 1
            if not proposal.valid or proposal.applied == 0:
                continue
            candidate = proposal.source

            # Repairs can introduce fresh syntax errors; the
            # pre-processor compensates (paper Result 4).
            lint = self.linter.lint(candidate)
            timing.lint("preprocess")
            if lint.errors:
                candidate, _ = preprocessor.run(candidate)

            candidate_result = self._run_uvm(candidate, bench, sequence,
                                             timing, stage=stage)
            score = candidate_result.pass_rate if candidate_result.ok \
                else -1.0
            outcome.pass_rate_history.append(max(score, 0.0))
            if candidate_result.all_passed:
                outcome.hit = True
                outcome.stage = stage
                current = candidate
                return self._finalize(outcome, current, timing, register,
                                      calls_before, cost_before)
            best_before = register.best
            if config.enable_rollback and best_before is not None and \
                    score < best_before.score:
                # Score regression: roll back and log damage repairs.
                register.consider(
                    iteration + 1, score, candidate, proposal.pairs
                )
                # `current`/`result` stay at the archived best version.
            elif config.enable_rollback and best_before is not None and \
                    score == best_before.score:
                # No improvement: revert to avoid drift, remember the
                # failed patch so the agent proposes something new.
                register.record(iteration + 1, score, candidate)
                for pair in proposal.pairs:
                    if len(pair) >= 2 and (pair[0], pair[1]) not in \
                            tried_pairs:
                        tried_pairs.append((pair[0], pair[1]))
            else:
                # Improvement (or rollback disabled): adopt the candidate.
                register.record(iteration + 1, score, candidate)
                current = candidate
                result = candidate_result

        best = register.best
        if best is not None and best.score >= 0 and (
            not result.ok or best.score > result.pass_rate
        ):
            current = best.source
        return self._finalize(outcome, current, timing, register,
                              calls_before, cost_before)

    # -- helpers -------------------------------------------------------------

    def _run_uvm(self, source, bench, sequence, timing, stage):
        result = run_uvm_test(
            source, sequence, bench.protocol, bench.model(),
            bench.compare_signals, top=bench.top,
        )
        events = (
            result.simulator.event_count if result.simulator is not None
            else 200
        )
        timing.simulation(events, stage=stage)
        return result

    def _finalize(self, outcome, source, timing, register, calls_before,
                  cost_before):
        outcome.final_source = source
        outcome.seconds = timing.seconds
        outcome.stage_seconds = dict(timing.clock.by_stage)
        outcome.rollbacks = register.rollbacks
        outcome.llm_calls = self.llm.budget.calls - calls_before
        outcome.cost_usd = self.llm.budget.cost_usd - cost_before
        return outcome
