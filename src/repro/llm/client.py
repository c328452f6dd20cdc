"""Abstract LLM client and token accounting.

Token counts drive two things: the simulated cost model (GPT-4-turbo
pricing, as quoted in the paper: $0.01 / 1K input, $0.03 / 1K output
tokens) and the deterministic execution-time model (tokens / throughput
= seconds of API latency).
"""

from dataclasses import dataclass

#: GPT-4-turbo pricing per 1K tokens (paper Section II).
INPUT_COST_PER_1K = 0.01
OUTPUT_COST_PER_1K = 0.03


def estimate_tokens(text):
    """Crude GPT-style token estimate (~4 characters per token)."""
    return max(1, len(text) // 4)


@dataclass
class LLMResponse:
    """One completion."""

    text: str
    prompt_tokens: int
    completion_tokens: int
    model: str = ""


@dataclass
class TokenBudget:
    """Cumulative token/cost accounting across a verification run."""

    prompt_tokens: int = 0
    completion_tokens: int = 0
    calls: int = 0

    def add(self, response):
        self.prompt_tokens += response.prompt_tokens
        self.completion_tokens += response.completion_tokens
        self.calls += 1

    @property
    def cost_usd(self):
        return (
            self.prompt_tokens / 1000.0 * INPUT_COST_PER_1K
            + self.completion_tokens / 1000.0 * OUTPUT_COST_PER_1K
        )


class LLMClient:
    """Interface every model backend implements.

    ``complete(prompt, task=..., temperature=...)`` returns an
    :class:`LLMResponse`.  ``task`` is a routing hint ("syntax",
    "repair", "refmodel", "judge") that real deployments would encode in
    the system prompt; the mock uses it to select its internal engine.
    """

    model_name = "abstract"

    def __init__(self):
        self.budget = TokenBudget()

    def complete(self, prompt, task="repair", temperature=0.0):
        raise NotImplementedError

    def _record(self, prompt, text):
        response = LLMResponse(
            text=text,
            prompt_tokens=estimate_tokens(prompt),
            completion_tokens=estimate_tokens(text),
            model=self.model_name,
        )
        self.budget.add(response)
        return response
