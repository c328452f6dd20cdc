"""Bare GPT-4-turbo repair (the paper's "GPT-4-turbo" baseline).

No framework: the model sees the code plus the raw failure log once per
sample and regenerates the module; ``k`` samples are drawn (pass@k) and
the first one that passes the finite testbench is accepted.
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


class DirectLLM:
    """One-shot (pass@k) LLM repair without a verification framework."""

    name = "gpt-4-turbo"

    def __init__(self, llm, samples=5, vectors=8):
        self.llm = llm
        self.samples = samples
        self.vectors = vectors
        self.linter = Linter()

    def repair(self, source, bench):
        timing = TimingModel()
        calls_before = self.llm.budget.calls
        testbench = SimpleTestbench(bench, vectors=self.vectors)

        lint = self.linter.lint(source)
        timing.lint("direct")
        if lint.errors:
            error_text = lint.format()
        else:
            result = testbench.run(source, timing, stage="direct")
            if result.all_passed:
                return BaselineOutcome(
                    final_source=source, hit=True, seconds=timing.seconds,
                    stage_seconds=dict(timing.clock.by_stage),
                )
            error_text = testbench.failure_log(result)

        for sample in range(self.samples):
            if lint.errors:
                prompt = build_syntax_prompt(source, error_text,
                                             spec=bench.spec,
                                             patch_form="complete")
                response = self.llm.complete(prompt, task="syntax")
                timing.llm_call("direct", response)
                candidate = self._parse_complete(response.text)
            else:
                prompt = build_repair_prompt(
                    source, bench.spec, error_text, patch_form="complete"
                )
                response = self.llm.complete(prompt, task="repair")
                timing.llm_call("direct", response)
                candidate = self._parse_complete(response.text)
            if candidate is None:
                continue
            if self.linter.lint(candidate).errors:
                timing.lint("direct")
                continue
            result = testbench.run(candidate, timing, stage="direct")
            if result.all_passed:
                return BaselineOutcome(
                    final_source=candidate, hit=True,
                    iterations=sample + 1, seconds=timing.seconds,
                    llm_calls=self.llm.budget.calls - calls_before,
                    stage_seconds=dict(timing.clock.by_stage),
                )
        return BaselineOutcome(
            final_source=source, hit=False, iterations=self.samples,
            seconds=timing.seconds,
            llm_calls=self.llm.budget.calls - calls_before,
            stage_seconds=dict(timing.clock.by_stage),
        )

    def _parse_complete(self, text):
        try:
            data = parse_structured_response(text, COMPLETE_SCHEMA)
        except SchemaValidationError:
            return None
        code = data.get("code", "")
        if not code.strip():
            return None
        return code if code.endswith("\n") else code + "\n"
