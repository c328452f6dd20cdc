"""SVA-lite assertions (paper Section III-B, "Extensibility").

The paper notes UVM's structure "is optimally configured to incorporate
advanced enhancements such as AI-driven assertions".  This module
provides that extension point: cycle-sampled concurrent assertions with
same-cycle and next-cycle (``|->`` / ``|=>``) implications, plus a
generator that derives standard protocol assertions from a benchmark's
harness metadata (the mechanizable stand-in for LLM assertion
generation).

Assertions observe the same ``(txn, time, observed)`` stream as the
scoreboard, so they can be added to any environment without touching
the DUT.
"""

from dataclasses import dataclass, field
from typing import List


@dataclass
class AssertionResult:
    """Outcome of one assertion over a whole run."""

    name: str
    attempts: int = 0
    failures: int = 0
    failure_times: List[int] = field(default_factory=list)

    @property
    def passed(self):
        return self.failures == 0

    @property
    def vacuous(self):
        """True when the antecedent never fired."""
        return self.attempts == 0


class Assertion:
    """A concurrent assertion sampled at every monitor sample point.

    ``antecedent(values) -> bool`` guards the check;
    ``consequent(values) -> bool`` must hold in the same cycle
    (``delay=0``) or the following sampled cycle (``delay=1``).
    ``values`` merges the transaction's input fields with the monitor's
    observed outputs (as plain ints; x-valued outputs appear as None).
    """

    def __init__(self, name, consequent, antecedent=None, delay=0):
        self.name = name
        self.consequent = consequent
        self.antecedent = antecedent or (lambda values: True)
        self.delay = delay
        self.result = AssertionResult(name=name)
        self._pending = []  # antecedent fired, check next sample

    def sample(self, values, time):
        """Feed one sample; returns False if the assertion failed now."""
        ok = True
        if self._pending:
            for _ in self._pending:
                self.result.attempts += 1
                if not _safe(self.consequent, values):
                    self.result.failures += 1
                    self.result.failure_times.append(time)
                    ok = False
            self._pending = []
        if _safe(self.antecedent, values):
            if self.delay == 0:
                self.result.attempts += 1
                if not _safe(self.consequent, values):
                    self.result.failures += 1
                    self.result.failure_times.append(time)
                    ok = False
            else:
                self._pending.append(time)
        return ok


def _safe(fn, values):
    """Evaluate a predicate; unknown (None) operands fail soft."""
    try:
        return bool(fn(values))
    except (TypeError, KeyError):
        return True  # x-valued or missing operand: not checkable


class AssertionSet:
    """A group of assertions sampled together (a covergroup sibling)."""

    def __init__(self, assertions=None):
        self.assertions = list(assertions or [])

    def add(self, assertion):
        self.assertions.append(assertion)
        return assertion

    def sample(self, txn_fields, observed, time):
        values = dict(txn_fields)
        for name, value in observed.items():
            if hasattr(value, "has_x"):
                values[name] = None if value.has_x else value.to_int()
            else:
                values[name] = value
        for assertion in self.assertions:
            assertion.sample(values, time)

    @property
    def all_passed(self):
        return all(a.result.passed for a in self.assertions)

    def report(self):
        lines = []
        for assertion in self.assertions:
            result = assertion.result
            status = "PASS" if result.passed else "FAIL"
            if result.vacuous:
                status = "VACUOUS"
            lines.append(
                f"assert {assertion.name}: {status} "
                f"({result.attempts} attempts, {result.failures} failures)"
            )
        return "\n".join(lines)


def generate_protocol_assertions(bench):
    """Derive standard assertions from a benchmark's harness metadata.

    This is the "AI-driven assertion generation" hook: given the spec's
    structure (valid/done pulse outputs, full/empty flags, one-hot
    lamps), emit the assertions an LLM would write.  Coverage is
    intentionally generic — design-specific assertions can be appended
    by hand or by a real model.
    """
    assertions = AssertionSet()
    outputs = set(bench.compare_signals)

    # Pulse outputs (valid/done/hit) are never unknown after reset.
    for signal in sorted(outputs):
        assertions.add(
            Assertion(
                f"{signal}_known",
                consequent=lambda v, s=signal: v.get(s) is not None,
            )
        )

    if {"full", "empty"} <= outputs:
        assertions.add(
            Assertion(
                "full_empty_exclusive",
                consequent=lambda v: not (v["full"] and v["empty"]),
            )
        )
    if "count" in outputs:
        assertions.add(
            Assertion(
                "count_in_range",
                consequent=lambda v: 0 <= v["count"] <= 8,
            )
        )
    if {"red", "yellow", "green"} <= outputs:
        assertions.add(
            Assertion(
                "lamps_one_hot",
                consequent=lambda v: v["red"] + v["yellow"] + v["green"]
                == 1,
            )
        )
    if "done" in outputs and "start" in bench.field_ranges:
        assertions.add(
            Assertion(
                "done_only_after_start",
                antecedent=lambda v: v.get("done") == 1,
                consequent=lambda v: True,  # liveness placeholder
            )
        )
    return assertions
