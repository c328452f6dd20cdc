"""The simulated LLM (GPT-4-turbo stand-in).

``MockLLM`` implements :class:`~repro.llm.client.LLMClient` with a
deterministic, seeded model of an expert-but-imperfect Verilog debugger:

- **Syntax task** — runs the heuristic syntax-repair engine over the
  code in the prompt (keyword typos, missing ``;``/``end``/`endmodule``,
  missing declarations, wire/reg kinds).
- **Repair task** — mines the ERROR INFORMATION section for mismatch
  signals / suspicious lines / expected-vs-actual hints, asks the
  functional repair engine for ranked candidate patches, honours the
  DAMAGE REPAIRS exclusion list, and returns the best untried candidate
  as structured JSON.
- **Imperfection model** — with seeded probabilities the model
  *derails* (returns a lower-ranked candidate — the LLM "reasoning
  slip") or *hallucinates* (patches an unrelated line, or emits a patch
  that breaks the syntax).  Both rates grow with code size, mirroring
  the paper's observation that complex modules repair worse.

Everything is a pure function of (seed, prompt), so experiment runs are
exactly reproducible — the property the paper approximates by querying
GPT-4-turbo five times per instance.

Host time: the engines' analyses (focus lines, candidate patches,
syntax repairs) are pure functions of the code and the mined error
information, so each is memoized per process and a repeated question
costs a lookup.  Whole responses are not memoized: the response's rng
hashes the call counter, so the same prompt asked again draws anew.
"""

import hashlib
import json
import random
import re
from dataclasses import dataclass

from repro.llm.client import LLMClient
from repro.llm.prompts import (
    SECTION_CODE,
    SECTION_DAMAGE,
    SECTION_ERROR,
    SECTION_INSTRUCTIONS,
    extract_section,
)
from repro.llm.repair_knowledge import FunctionalRepairEngine
from repro.llm.syntax_knowledge import SyntaxRepairEngine


@dataclass
class MockLLMProfile:
    """Competence/imperfection knobs (calibrated against the paper)."""

    name: str = "gpt-4-turbo-sim"
    #: Probability a correct syntax-engine result is returned intact.
    syntax_skill: float = 0.96
    #: Base probability of skipping the top-ranked functional candidate.
    derail_rate: float = 0.12
    #: Base probability of an off-target / syntax-breaking patch.
    hallucination_rate: float = 0.05
    #: Extra derail/hallucination per 100 lines of DUT code.
    complexity_penalty: float = 0.45
    #: Complete-code regeneration: chance of corrupting an unrelated line.
    regen_corruption_rate: float = 0.35

    def scaled(self, rate, line_count):
        return min(0.9, rate * (1.0 + self.complexity_penalty *
                                (line_count / 100.0)))


class MockLLM(LLMClient):
    """Deterministic simulated LLM behind the standard client API."""

    def __init__(self, profile=None, seed=0):
        super().__init__()
        self.profile = profile or MockLLMProfile()
        self.seed = seed
        self.model_name = self.profile.name
        self._syntax_engine = SyntaxRepairEngine()
        self._repair_engine = FunctionalRepairEngine()

    # -- public API --------------------------------------------------------------

    def complete(self, prompt, task="repair", temperature=0.0):
        rng = self._rng_for(prompt, task)
        if task == "syntax":
            text = self._complete_syntax(prompt, rng)
        elif task == "repair":
            text = self._complete_repair(prompt, rng)
        elif task == "judge":
            text = self._complete_judge(prompt, rng)
        elif task == "refmodel":
            text = (
                "// cycle-accurate reference model\n"
                "// (generated from the specification)\n"
            )
        else:
            text = json.dumps({"module_name": "", "analysis": "", "correct": []})
        return self._record(prompt, text)

    # -- internals ----------------------------------------------------------------

    def _rng_for(self, prompt, task):
        # The call counter plays the role of sampling temperature:
        # repeating the same prompt can give a different completion,
        # while the whole sequence stays reproducible per seed.
        digest = hashlib.sha256(
            f"{self.seed}|{task}|{self.budget.calls}|{prompt}".encode()
        ).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    @staticmethod
    def _module_name(code):
        match = re.search(r"\bmodule\s+(\w+)", code)
        return match.group(1) if match else "unknown"

    def _complete_syntax(self, prompt, rng):
        code = extract_section(prompt, SECTION_CODE)
        instructions = extract_section(prompt, SECTION_INSTRUCTIONS)
        complete_form = "complete corrected module" in instructions
        fixed, pairs, fixed_all = self._syntax_engine.repair(code)
        line_count = code.count("\n") + 1
        skill = self.profile.syntax_skill - self.profile.complexity_penalty \
            * 0.1 * (line_count / 100.0)
        if pairs and rng.random() > max(0.3, skill):
            # Imperfect day: return only a prefix of the needed edits.
            keep = rng.randint(0, max(0, len(pairs) - 1))
            pairs = pairs[:keep]
            from repro.core.patches import apply_pairs

            fixed, _ = apply_pairs(code, pairs)
        if complete_form:
            # Whole-module regeneration: the fix is embedded in a full
            # rewrite, which risks corrupting unrelated lines.
            out_lines = fixed.splitlines()
            if rng.random() < self.profile.regen_corruption_rate and \
                    len(out_lines) > 4:
                victim = rng.randrange(len(out_lines))
                text = out_lines[victim]
                if "<=" in text:
                    out_lines[victim] = text.replace("<=", "=", 1)
                elif text.strip() == "end":
                    del out_lines[victim]
                elif "+" in text:
                    out_lines[victim] = text.replace("+", "-", 1)
            return json.dumps(
                {
                    "module_name": self._module_name(code),
                    "analysis": "Regenerated the module with syntax fixed.",
                    "code": "\n".join(out_lines) + "\n",
                },
                indent=1,
            )
        analysis = (
            "Identified lexical/structural problems and corrected them."
            if pairs else "No fixable syntax problem identified."
        )
        return json.dumps(
            {
                "module_name": self._module_name(code),
                "analysis": analysis,
                "correct": [list(pair) for pair in pairs],
            },
            indent=1,
        )

    def _parse_error_info(self, error_text):
        signals = []
        match = re.search(r"Mismatch signals:\s*(.+)", error_text)
        if match:
            signals = [s.strip() for s in match.group(1).split(",") if s.strip()]
        lines = [
            int(m.group(1))
            for m in re.finditer(r"line (\d+) \(drives", error_text)
        ]
        hints = {}
        for index, value_match in enumerate(
            re.finditer(r"expected (\S+) got (\S+)", error_text)
        ):
            if index == 0:
                hints["expected"] = _display_to_int(value_match.group(1))
                hints["actual"] = _display_to_int(value_match.group(2))
            # Display widths differing is direct truncation evidence:
            # the DUT's port is narrower than the spec's value.
            exp_width = re.match(r"(\d+)'", value_match.group(1))
            act_width = re.match(r"(\d+)'", value_match.group(2))
            if exp_width and act_width and \
                    int(exp_width.group(1)) != int(act_width.group(1)):
                hints["truncation"] = True
                hints["truncation_strong"] = True
        if "truncates" in error_text or "expands" in error_text:
            hints["truncation"] = True
            hints["truncation_strong"] = True
        return signals, lines, hints

    def _parse_damage(self, damage_text):
        """Tried-patch exclusion keys: full contextualized quote text."""
        tried = set()
        for match in re.finditer(r"- BAD: `(.*?)` -> `(.*?)`",
                                 damage_text, re.S):
            tried.add((match.group(1).strip(), match.group(2).strip()))
        return tried

    def _complete_repair(self, prompt, rng):
        code = extract_section(prompt, SECTION_CODE)
        error_text = extract_section(prompt, SECTION_ERROR)
        damage_text = extract_section(prompt, SECTION_DAMAGE)
        instructions = extract_section(prompt, SECTION_INSTRUCTIONS)
        complete_form = "complete corrected module" in instructions

        signals, suspicious, hints = self._parse_error_info(error_text)
        tried = self._parse_damage(damage_text)
        lines = code.splitlines()
        line_count = len(lines)

        from repro.llm.repair_knowledge import _derive_hints

        _derive_hints(hints)
        focus = self._repair_engine.focus_lines_for(
            code, signals, suspicious, hints=hints
        )
        candidates = self._repair_engine.candidates(code, focus, hints)
        # Exclusion works on the contextualized quotes (what the prompt
        # actually showed as damage repairs), so identical-text lines at
        # different locations stay distinguishable.
        untried = []
        for candidate in candidates:
            original, patched = self._contextualize(lines, candidate)
            if (original.strip(), patched.strip()) not in tried:
                untried.append((candidate, original, patched))

        chosen = None
        chosen_pair = None
        if untried:
            derail = self.profile.scaled(self.profile.derail_rate, line_count)
            if rng.random() < derail and len(untried) > 1:
                window = untried[1: min(6, len(untried))]
                chosen, *chosen_pair = rng.choice(window)
            else:
                chosen, *chosen_pair = untried[0]

        halluc = self.profile.scaled(
            self.profile.hallucination_rate, line_count
        )
        if rng.random() < halluc:
            chosen = self._hallucinate(lines, rng, chosen)
            if chosen is not None:
                chosen_pair = list(self._contextualize(lines, chosen))

        analysis = self._analysis_text(signals, suspicious, chosen)
        if complete_form:
            return self._render_complete(code, chosen, rng)
        pairs = [chosen_pair] if chosen_pair else []
        return json.dumps(
            {
                "module_name": self._module_name(code),
                "analysis": analysis,
                "correct": pairs,
            },
            indent=1,
        )

    @staticmethod
    def _contextualize(lines, chosen):
        """Quote enough leading context to make the pair unambiguous.

        Structured-output pairs are pure text; when the quoted line
        occurs several times (e.g. repeated reset assignments), a good
        model quotes the preceding line(s) too so the patch lands on the
        intended occurrence.
        """
        original = chosen.original
        matches = sum(1 for line in lines if line == original)
        if matches <= 1:
            return original, chosen.patched
        index = chosen.line_no - 1
        if not (0 <= index < len(lines)):
            return original, chosen.patched
        joined = "\n".join(lines)
        for back in range(1, 5):
            start = index - back
            if start < 0:
                break
            block = "\n".join(lines[start:index + 1])
            if joined.count(block) == 1:
                patched_block = "\n".join(
                    lines[start:index] + [chosen.patched]
                )
                return block, patched_block
        return original, chosen.patched

    def _hallucinate(self, lines, rng, fallback):
        """Produce an off-target or syntax-breaking patch."""
        from repro.llm.repair_knowledge import CandidatePatch

        code_lines = [
            (no, text) for no, text in enumerate(lines, 1)
            if text.strip() and not text.strip().startswith("//")
        ]
        if not code_lines:
            return fallback
        line_no, text = rng.choice(code_lines)
        mode = rng.random()
        if mode < 0.4 and text.rstrip().endswith(";"):
            patched = text.rstrip()[:-1]  # drop the semicolon
        elif mode < 0.7 and "+" in text:
            patched = text.replace("+", "*", 1)
        else:
            patched = text + " "
            patched = patched.replace("1'b1", "1'b0") if "1'b1" in text \
                else text.rstrip() + " // reviewed"
        return CandidatePatch(line_no, text, patched, "hallucination", -1.0)

    def _render_complete(self, code, chosen, rng):
        """Whole-module regeneration (UVLLM_comp ablation)."""
        lines = code.splitlines()
        if chosen is not None and 1 <= chosen.line_no <= len(lines):
            lines[chosen.line_no - 1] = chosen.patched
        if rng.random() < self.profile.regen_corruption_rate:
            lines = self._corrupt_regeneration(lines, rng)
        new_code = "\n".join(lines) + "\n"
        return json.dumps(
            {
                "module_name": self._module_name(code),
                "analysis": "Regenerated the complete corrected module.",
                "code": new_code,
            },
            indent=1,
        )

    @staticmethod
    def _corrupt_regeneration(lines, rng):
        """Damage an unrelated detail while rewriting a whole module.

        Regenerated code plausibly "simplifies" things the model deems
        redundant.  The menu deliberately includes a *test-invisible*
        corruption (dropping the async-reset edge) — the error class
        finite testbenches miss, which is what opens the HR-FR gap for
        regeneration-based baselines.
        """
        if len(lines) <= 4:
            return lines
        menu = []
        for index, text in enumerate(lines):
            if re.search(r"\s+or\s+negedge\s+\w+", text):
                menu.append(("drop_reset_edge", index))
            if "1'b1" in text and "<=" in text:
                menu.append(("flip_bit", index))
            if "+" in text and "=" in text and "//" not in text:
                menu.append(("flip_op", index))
            if text.rstrip().endswith(";") and "<=" in text:
                menu.append(("drop_semi", index))
        if not menu:
            return lines
        kind, index = rng.choice(menu)
        text = lines[index]
        if kind == "drop_reset_edge":
            lines[index] = re.sub(r"\s+or\s+negedge\s+\w+", "", text,
                                  count=1)
        elif kind == "flip_bit":
            lines[index] = text.replace("1'b1", "1'b0", 1)
        elif kind == "flip_op":
            lines[index] = text.replace("+", "-", 1)
        else:
            lines[index] = text.rstrip()[:-1]
        return lines

    def _analysis_text(self, signals, suspicious, chosen):
        parts = []
        if signals:
            parts.append(
                f"The mismatching signal(s) {', '.join(signals)} point to"
            )
        if chosen is not None:
            parts.append(
                f"a defect on line {chosen.line_no} ({chosen.kind})."
            )
        else:
            parts.append("no further untried repair candidates.")
        return " ".join(parts) if parts else "No analysis available."

    def _complete_judge(self, prompt, rng):
        """MEIC-style LLM-as-reward-model: noisy better/worse verdict."""
        verdict = "better" if rng.random() < 0.7 else "worse"
        return json.dumps({"verdict": verdict})


def _display_to_int(text):
    """Parse a scoreboard display value like 8'h2d or 16'b0011."""
    match = re.match(r"(\d+)'([bdh])([0-9a-fA-F_xXzZ]+)", text)
    if not match:
        try:
            return int(text, 0)
        except ValueError:
            return None
    radix = {"b": 2, "d": 10, "h": 16}[match.group(2)]
    digits = match.group(3).replace("_", "")
    if any(c in "xXzZ" for c in digits):
        return None
    return int(digits, radix)
