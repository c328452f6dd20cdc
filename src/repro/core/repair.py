"""The repair agent (paper Section III-D, Fig. 4)."""

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.core.patches import apply_pairs
from repro.llm.prompts import build_repair_prompt
from repro.llm.schema import (
    COMPLETE_SCHEMA,
    REPAIR_SCHEMA,
    SchemaValidationError,
    parse_structured_response,
)


@dataclass
class RepairProposal:
    """One candidate repair from the agent."""

    source: str
    pairs: List[Tuple[str, str]] = field(default_factory=list)
    analysis: str = ""
    applied: int = 0
    valid: bool = True


class RepairAgent:
    """Wraps the LLM into the structured-prompt / structured-output
    repair exchange.

    ``patch_form`` selects original/patched pairs vs complete-module
    regeneration (the Table III ablation); both paths validate the JSON
    against the appropriate schema before touching the code.
    """

    def __init__(self, llm, timing=None, patch_form="pair"):
        self.llm = llm
        self.timing = timing
        self.patch_form = patch_form

    def propose(self, source, spec, error_summary, damage_repairs=None,
                stage="ms"):
        """Ask for one candidate repair; returns a RepairProposal."""
        prompt = build_repair_prompt(
            source, spec, error_summary,
            damage_repairs=damage_repairs, patch_form=self.patch_form,
        )
        from repro.obs import trace

        with trace.span("repair-llm", cat="llm", stage=stage):
            response = self.llm.complete(prompt, task="repair")
        if self.timing is not None:
            self.timing.llm_call(stage, response)
        if self.patch_form == "complete":
            return self._parse_complete(source, response.text)
        return self._parse_pairs(source, response.text)

    def _parse_pairs(self, source, text):
        try:
            data = parse_structured_response(text, REPAIR_SCHEMA)
        except SchemaValidationError:
            return RepairProposal(source=source, valid=False)
        pairs = [tuple(pair[:2]) for pair in data.get("correct", [])]
        updated, applied = apply_pairs(source, pairs)
        return RepairProposal(
            source=updated if applied else source,
            pairs=pairs,
            analysis=data.get("analysis", ""),
            applied=applied,
            valid=True,
        )

    def _parse_complete(self, source, text):
        try:
            data = parse_structured_response(text, COMPLETE_SCHEMA)
        except SchemaValidationError:
            return RepairProposal(source=source, valid=False)
        code = data.get("code", "")
        if not code.strip():
            return RepairProposal(source=source, valid=False)
        return RepairProposal(
            source=code if code.endswith("\n") else code + "\n",
            pairs=[("<complete>", "<complete>")],
            analysis=data.get("analysis", ""),
            applied=1,
            valid=True,
        )
