"""The localization engine: UVM log + waveform -> ErrorInfo.

This is UVLLM's post-processing stage (Fig. 2, step 3).  The engine runs
in two escalating modes, matching the paper's segmented information
extraction strategy:

- **MS mode** (early iterations): only mismatch signals and the input
  values at the first mismatch timestamps go into the prompt — cheap in
  tokens, enough for most shallow errors.
- **SL mode** (after ``ms_iterations`` failed repairs): the dynamic
  slicer adds actual-execution-path suspicious lines, giving the LLM
  precise candidate locations at higher token cost.
"""

from dataclasses import dataclass, field
from typing import List

from repro.hdl.parser import parse_source
from repro.locate.dfg import build_dfg
from repro.locate.slicing import dynamic_slice, related_signals


@dataclass
class ErrorInfo:
    """Distilled error information handed to the repair agent."""

    mode: str = "MS"                      # "MS" or "SL"
    pass_rate: float = 0.0
    mismatch_signals: List[str] = field(default_factory=list)
    mismatch_times: List[int] = field(default_factory=list)
    input_values: List[dict] = field(default_factory=list)
    expected_actual: List[tuple] = field(default_factory=list)
    suspicious_lines: List = field(default_factory=list)
    lint_notes: List[str] = field(default_factory=list)
    sim_error: str = ""

    def summary(self, source_lines=None, max_cases=3):
        """Human/LLM-readable rendering used inside prompts."""
        parts = []
        if self.sim_error:
            parts.append(f"Simulation failed: {self.sim_error}")
        if self.mismatch_signals:
            parts.append(
                "Mismatch signals: " + ", ".join(self.mismatch_signals)
            )
        parts.append(f"Test pass rate: {self.pass_rate:.2%}")
        for index, (signal, expected, actual) in enumerate(
            self.expected_actual[:max_cases]
        ):
            time = (
                self.mismatch_times[index]
                if index < len(self.mismatch_times) else "?"
            )
            inputs = (
                self.input_values[index]
                if index < len(self.input_values) else {}
            )
            rendered_inputs = ", ".join(
                f"{k}={v}" for k, v in sorted(inputs.items())
            )
            parts.append(
                f"@t={time}: signal '{signal}' expected {expected} got "
                f"{actual} (inputs: {rendered_inputs})"
            )
        if self.lint_notes:
            parts.append("Static analysis notes:")
            parts.extend(f"  {note}" for note in self.lint_notes)
        if self.mode == "SL" and self.suspicious_lines:
            parts.append("Suspicious lines (most likely first):")
            for item in self.suspicious_lines:
                text = ""
                if source_lines and 1 <= item.line <= len(source_lines):
                    text = source_lines[item.line - 1].strip()
                marker = "*" if item.active else " "
                parts.append(
                    f"  {marker} line {item.line} (drives '{item.signal}'): "
                    f"{text}"
                )
        return "\n".join(parts)


class LocalizationEngine:
    """Builds :class:`ErrorInfo` from a UVM test result."""

    def __init__(self, ms_iterations=2, max_lines=12, max_depth=4):
        self.ms_iterations = ms_iterations
        self.max_lines = max_lines
        self.max_depth = max_depth

    def analyze(self, source, result, iteration=0):
        """Produce error info for one failed UVM run.

        ``iteration`` selects MS vs SL mode (Algorithm 2, line 21:
        ``ErrInfo = (Iter < TH) ? MS : SL``).
        """
        mode = "MS" if iteration < self.ms_iterations else "SL"
        info = ErrorInfo(mode=mode, pass_rate=result.pass_rate)
        if not result.ok:
            info.sim_error = result.error
            return info

        # Static width diagnostics sharpen bitwidth-class repairs.
        try:
            from repro.lint.linter import Linter

            lint = Linter(enabled_rules=["WIDTH"]).lint(source)
            for diag in lint.warnings_with_code("WIDTHTRUNC", "WIDTHEXPAND"):
                info.lint_notes.append(
                    f"Lint line {diag.location.line}: {diag.message}"
                )
        except Exception:
            pass

        # ErrChk: mismatch timestamps, signals, and the input values at
        # those timestamps (from the recorded waveform / transactions).
        seen_signals = []
        for record in result.mismatches:
            if record.signal not in seen_signals:
                seen_signals.append(record.signal)
                info.mismatch_times.append(record.time)
                info.input_values.append(dict(record.inputs))
                info.expected_actual.append(
                    (
                        record.signal,
                        record.expected.to_display(),
                        record.actual.to_display(),
                    )
                )
        info.mismatch_signals = list(seen_signals)

        if mode == "SL" and info.mismatch_signals:
            try:
                source_file = parse_source(source)
                module = source_file.modules[-1]
            except Exception:
                return info
            dfg = build_dfg(module)
            promoted = list(info.mismatch_signals)
            for signal in info.mismatch_signals:
                for extra in related_signals(dfg, signal, max_depth=2):
                    if extra not in promoted:
                        promoted.append(extra)
            collected = []
            seen_lines = set()
            for index, signal in enumerate(info.mismatch_signals):
                time = (
                    info.mismatch_times[index]
                    if index < len(info.mismatch_times) else None
                )
                for item in dynamic_slice(
                    dfg, signal, trace=result.trace, time=time,
                    max_depth=self.max_depth, max_lines=self.max_lines,
                ):
                    if item.line not in seen_lines:
                        seen_lines.add(item.line)
                        collected.append(item)
            collected.sort(key=lambda s: s.sort_key())
            info.suspicious_lines = collected[: self.max_lines]
        return info
