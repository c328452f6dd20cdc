"""UVLLM configuration."""

from dataclasses import dataclass


@dataclass
class UVLLMConfig:
    """Pipeline parameters (paper defaults in Section IV, Setup).

    - ``max_iterations`` — repair-loop bound (paper: 5; "improvement is
      hardly observed after that");
    - ``ms_iterations`` — iterations using mismatch-signal-only error
      info before escalating to suspicious-line mode (Algorithm 2's TH);
    - ``patch_form`` — ``"pair"`` (original/patched pairs, the default)
      or ``"complete"`` (whole-module regeneration, Table III ablation);
    - ``preprocess_iterations`` — Algorithm 1 loop bound;
    - ``stimulus`` — HR-suite stimulus mode: ``"random"``
      (fixed-random) or ``"coverage"`` (closed-loop coverage-driven,
      same transaction budget; the stimulus ablation's switch).
    """

    max_iterations: int = 5
    ms_iterations: int = 2
    patch_form: str = "pair"
    preprocess_iterations: int = 6
    hr_seed: int = 0
    enable_rollback: bool = True
    stimulus: str = "random"
