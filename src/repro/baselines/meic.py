"""MEIC reimplementation (paper [17]).

MEIC iterates an LLM fixer over the DUT with:

- a *fixed finite testbench* (8 vectors) as the acceptance oracle;
- *raw simulator logs* as the error information (no localization);
- *whole-module regeneration* each round (no original/patch pairs);
- an *LLM judge* (not a quantitative score) deciding whether the new
  version is better — occasionally wrong, so bad versions survive.

Every one of those choices costs it either fix rate or tokens relative
to UVLLM; Table II's ~10x execution-time gap comes straight from the
regeneration token volume times the larger iteration count.
"""

from repro.baselines.common import BaselineOutcome, SimpleTestbench
from repro.lint.linter import Linter
from repro.llm.prompts import build_repair_prompt, build_syntax_prompt
from repro.llm.schema import (
    COMPLETE_SCHEMA,
    SchemaValidationError,
    parse_structured_response,
)
from repro.metrics.timing import TimingModel


class MEIC:
    """The MEIC dual-agent iterative debugger."""

    name = "meic"

    def __init__(self, llm, max_iterations=10, vectors=8):
        self.llm = llm
        self.max_iterations = max_iterations
        self.vectors = vectors
        self.linter = Linter()

    def repair(self, source, bench):
        timing = TimingModel()
        calls_before = self.llm.budget.calls
        testbench = SimpleTestbench(bench, vectors=self.vectors)
        current = source

        # Syntax stage: LLM-only (no script templates), complete regen.
        for _ in range(4):
            lint = self.linter.lint(current)
            timing.lint("meic")
            if not lint.errors:
                break
            prompt = build_syntax_prompt(current, lint.format(),
                                         spec=bench.spec,
                                         patch_form="complete")
            response = self.llm.complete(prompt, task="syntax")
            timing.llm_call("meic", response)
            try:
                data = parse_structured_response(response.text,
                                                 COMPLETE_SCHEMA)
            except SchemaValidationError:
                continue
            code = data.get("code", "")
            if code.strip():
                current = code if code.endswith("\n") else code + "\n"

        if self.linter.lint(current).errors:
            return BaselineOutcome(
                final_source=current, hit=False,
                seconds=timing.seconds,
                llm_calls=self.llm.budget.calls - calls_before,
                stage_seconds=dict(timing.clock.by_stage),
            )

        result = testbench.run(current, timing, stage="meic")
        iterations = 0
        previous = current
        while not result.all_passed and iterations < self.max_iterations:
            iterations += 1
            raw_log = testbench.failure_log(result)
            prompt = build_repair_prompt(
                current, bench.spec, raw_log, patch_form="complete"
            )
            response = self.llm.complete(prompt, task="repair")
            timing.llm_call("meic", response)
            try:
                data = parse_structured_response(
                    response.text, COMPLETE_SCHEMA
                )
            except SchemaValidationError:
                continue
            candidate = data.get("code", "")
            if not candidate.strip():
                continue
            if not candidate.endswith("\n"):
                candidate += "\n"
            if self.linter.lint(candidate).errors:
                timing.lint("meic")
                continue  # regeneration broke the syntax; discard
            candidate_result = testbench.run(candidate, timing, stage="meic")
            if candidate_result.all_passed:
                return BaselineOutcome(
                    final_source=candidate, hit=True,
                    iterations=iterations, seconds=timing.seconds,
                    llm_calls=self.llm.budget.calls - calls_before,
                    stage_seconds=dict(timing.clock.by_stage),
                )
            # LLM-as-judge: keep whichever version the judge prefers.
            judge_prompt = (
                "You are a Verilog review expert. Two candidate repairs "
                "follow; answer with JSON {\"verdict\": \"better\"|"
                "\"worse\"} for the NEW version.\n## OLD\n"
                + previous + "\n## NEW\n" + candidate
            )
            verdict = self.llm.complete(judge_prompt, task="judge")
            timing.llm_call("meic", verdict)
            if '"better"' in verdict.text:
                previous = current
                current = candidate
                result = candidate_result
            # else: discard the candidate, keep iterating on `current`.

        return BaselineOutcome(
            final_source=current,
            hit=result.all_passed,
            iterations=iterations,
            seconds=timing.seconds,
            llm_calls=self.llm.budget.calls - calls_before,
            stage_seconds=dict(timing.clock.by_stage),
        )
