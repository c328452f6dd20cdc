"""Heuristic functional-repair engine.

Encodes the "common Verilog error" patterns of Table I the way a
code-trained LLM would have absorbed them: operator misuses, wrong
constants/judgment values, polarity flips, bitwidth declaration slips,
sensitivity-list omissions, and near-name variable confusion.

Given the DUT text and *focus lines* (whose quality depends on the
caller's localization — this is the paper's whole point), the engine
enumerates candidate single-line patches, ranked by error-pattern
priors plus hints mined from the expected/actual value pairs.  The
better the focus, the shorter the candidate list, the more likely the
correct patch is reached within the iteration budget.

Both analyses are pure functions of their arguments, and the repair
loop asks the same questions on every iteration and attempt, so each
distinct question is answered once per process (up to
:data:`MEMO_LIMIT` recent ones).  Every caller gets a new list of the
shared, frozen answers.
"""

import re
from dataclasses import dataclass
from typing import List

from repro.memo import LRUMemo

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Per-process bound of each analysis memo.  On the campaign benchmark
#: 64 entries answer 335 of ``paper-quick``'s 519 calls to each
#: analysis (unbounded: 362) and every repeat on ``functional-interp``.
#: With the syntax-repair and FR memos they add 0.9 MiB to
#: ``paper-quick``'s 36.2 MiB peak RSS; 4096 entries add 1.9 MiB.
MEMO_LIMIT = 64

#: (max_candidates, source, focus lines, hint items) -> candidate tuple.
_candidates_memo = LRUMemo(MEMO_LIMIT)

#: (source, mismatch signals, suspicious line numbers, hint items) ->
#: focus line tuple.
_focus_memo = LRUMemo(MEMO_LIMIT)


@dataclass(frozen=True)
class CandidatePatch:
    """One single-line repair candidate."""

    line_no: int
    original: str
    patched: str
    kind: str
    score: float = 0.0


# Operator confusion pairs, ordered by real-world frequency
# (Sudakrishnan et al., "Understanding bug fix patterns in Verilog"),
# each with its compiled pattern.
_OP_SWAPS = [
    (old, new, re.compile(re.escape(old))) for old, new in (
        ("+", "-"), ("-", "+"),
        ("&", "|"), ("|", "&"),
        ("^", "&"), ("^", "|"),
        ("<<", ">>"), (">>", "<<"),
        ("<", "<="), ("<=", "<"), (">", ">="), (">=", ">"),
        ("<", ">"), (">", "<"),
        ("==", "!="), ("!=", "=="),
        ("&&", "||"), ("||", "&&"),
    )
]

#: A line's assignment operator: ``<=`` or a lone ``=``.
_ASSIGN_OP = re.compile(r"<=|(?<![<>=!])=(?!=)")

#: A declaration statement, whose words name declared identifiers.
_DECLARATION = re.compile(
    r"\b(?:input|output|inout|wire|reg|integer)\b[^;]*;"
)
_DECLARATION_KEYWORDS = frozenset({
    "input", "output", "inout", "wire", "reg", "integer", "signed",
})

_SIZED_LITERAL = re.compile(r"(\d+)'([bdh])([0-9a-fA-F_xXzZ?]+)")
_RANGE = re.compile(r"\[(\d+)\s*:\s*(\d+)\]")
_RESET_ZERO_LINE = re.compile(r"^\s*\w+\s*<?=\s*\d+'[bdh]_?0+\s*;\s*$")
_RESET_NAME = re.compile(r"(rst|reset)", re.IGNORECASE)


def _derive_hints(hints):
    """Classify the expected/actual discrepancy into repair priors.

    - *truncation*: actual equals expected with high bits dropped →
      bitwidth-class defect;
    - *arith*: small even difference → +/- confusion on an arithmetic
      line;
    - *inverted*: actual is the bitwise complement of expected →
      polarity defect;
    - *offby*: |expected-actual| == 1 → constant off-by-one.
    """
    expected = hints.get("expected")
    actual = hints.get("actual")
    if expected is None or actual is None:
        return
    if expected != actual and actual >= 0 and expected >= 0:
        for bits in range(1, 64):
            mask_value = (1 << bits) - 1
            if mask_value >= expected:
                break
            if actual == (expected & mask_value):
                hints["truncation"] = True
                break
        diff = abs(expected - actual)
        if diff in (1,):
            hints["offby"] = True
        if 0 < diff <= 64 and diff % 2 == 0:
            hints["arith"] = True
        if diff >= 2 and (diff & (diff - 1)) == 0:
            # A single dropped/flipped bit: width or indexing defect.
            hints["truncation"] = True
            if diff >= 16:
                # A high dropped bit is near-certain declaration
                # truncation (operator slips rarely produce exact
                # high powers of two).
                hints.setdefault("truncation_strong", True)
        for bits in (1, 2, 3, 4, 5, 8, 16, 17, 32):
            if expected ^ actual == (1 << bits) - 1:
                hints["inverted"] = True
                break


def _literal_value(base, digits):
    radix = {"b": 2, "d": 10, "h": 16}[base]
    try:
        return int(digits.replace("_", ""), radix)
    except ValueError:
        return None


def _render_literal(width, base, value):
    if base == "b":
        return f"{width}'b{value:b}"
    if base == "h":
        return f"{width}'h{value:x}"
    return f"{width}'d{value}"


def _find_assign_lines(lines, signal):
    """Lines that assign ``signal`` (textual scan, MS-mode focus)."""
    found = []
    pattern = re.compile(
        rf"^\s*(?:assign\s+)?{re.escape(signal)}\s*(?:\[[^\]]*\]\s*)?<?=[^=]"
    )
    brace_pattern = re.compile(
        rf"^\s*(?:assign\s+)?\{{[^}}]*\b{re.escape(signal)}\b[^}}]*\}}\s*<?="
    )
    for index, line in enumerate(lines, 1):
        if pattern.match(line) or brace_pattern.match(line):
            found.append(index)
    return found


def _driver_names(lines, focus_lines):
    """Identifiers read on the focus lines (one-hop back slice)."""
    names = set()
    for line_no in focus_lines:
        if 1 <= line_no <= len(lines):
            text = lines[line_no - 1]
            rhs = text.split("=", 1)[-1]
            names.update(_WORD.findall(rhs))
    return names


def _enclosing_condition_lines(lines, line_no):
    """Control-flow lines above ``line_no`` in the same always block."""
    found = []
    for index in range(line_no - 1, 0, -1):
        text = lines[index - 1]
        if "always" in text or re.match(r"\s*module\b", text):
            break
        if re.search(r"\b(if|case|casez|casex|while|for)\s*\(", text):
            found.append(index)
    return found


def _condition_names(lines, focus_lines):
    """Identifiers inside if/case/while conditions on focus lines."""
    names = set()
    for line_no in focus_lines:
        if 1 <= line_no <= len(lines):
            text = lines[line_no - 1]
            for match in re.finditer(r"\b(?:if|case|while)\s*\(([^)]*)\)",
                                     text):
                names.update(_WORD.findall(match.group(1)))
    return names


class FunctionalRepairEngine:
    """Candidate patch enumeration over focus lines."""

    def __init__(self, max_candidates=40):
        self.max_candidates = max_candidates

    def focus_lines_for(self, source, mismatch_signals, suspicious_lines,
                        hints=None):
        """Choose the lines to mutate.

        Suspicious lines (SL mode) take priority; otherwise MS mode
        derives focus from textual assignments to mismatch signals plus
        one hop of their drivers; with no information at all (raw-log
        baselines) every code line is in scope.  With truncation
        evidence in ``hints`` the declarations come first.

        A suspicious line is its item's ``.line``, or ``int(item)``.
        """
        signals = tuple(mismatch_signals or ())
        suspicious = tuple(
            item.line if hasattr(item, "line") else int(item)
            for item in suspicious_lines or ()
        )
        hints = hints or {}
        key = (source, signals, suspicious, tuple(sorted(hints.items())))
        return list(_focus_memo.recall(
            key,
            lambda: tuple(self._focus_lines(source, signals, suspicious,
                                            hints)),
            "llm",
        ))

    def _focus_lines(self, source, mismatch_signals, suspicious_lines,
                     hints):
        """Uncached :meth:`focus_lines_for` over suspicious line
        numbers."""
        lines = source.splitlines()
        if hints.get("truncation_strong") and mismatch_signals:
            # Truncation evidence: inspect declarations first — the
            # narrow range is almost certainly the defect.
            decls = []
            for index, line in enumerate(lines, 1):
                if re.match(r"\s*(?:input|output|inout|reg|wire)\b", line) \
                        and _RANGE.search(line):
                    decls.append(index)
            rest = self._focus_lines(
                source, mismatch_signals, suspicious_lines, {}
            )
            return decls + [l for l in rest if l not in decls]
        if suspicious_lines:
            ordered = []
            for line_no in suspicious_lines:
                if 1 <= line_no <= len(lines) and line_no not in ordered:
                    ordered.append(line_no)
            # Declarations of the mismatching signals are never DFG
            # sites but hold the bitwidth-class defects.
            for signal in mismatch_signals or ():
                for index, line in enumerate(lines, 1):
                    if re.match(
                        rf"\s*(?:input|output|inout|reg|wire)"
                        rf"(?:\s+(?:reg|wire|signed))*\s*"
                        rf"\[[^\]]*\]\s*{re.escape(signal)}\s*[;,)]",
                        line,
                    ) and index not in ordered:
                        ordered.append(index)
            return ordered
        if mismatch_signals:
            ordered = []
            for signal in mismatch_signals:
                for line_no in _find_assign_lines(lines, signal):
                    if line_no not in ordered:
                        ordered.append(line_no)
            # Any other line mentioning the signal (conditions, case
            # subjects) — wrong-judgment-value bugs live there.
            for signal in mismatch_signals:
                mention = re.compile(rf"\b{re.escape(signal)}\b")
                for index, line in enumerate(lines, 1):
                    if index not in ordered and mention.search(line) and \
                            line.strip() and "module" not in line:
                        ordered.append(index)
            # Control context: if/case/while lines above each focus
            # assignment inside the same always block (guards live on
            # separate lines in block style).
            for line_no in list(ordered):
                for guard_line in _enclosing_condition_lines(lines, line_no):
                    if guard_line not in ordered:
                        ordered.append(guard_line)
            # One hop back: everything read on those lines (including
            # guard signals), then their assignment/condition lines.
            drivers = _driver_names(lines, ordered) | _condition_names(
                lines, ordered
            )
            for name in sorted(drivers):
                for line_no in _find_assign_lines(lines, name):
                    if line_no not in ordered:
                        ordered.append(line_no)
            for name in sorted(drivers):
                mention = re.compile(
                    rf"\b(if|case|while)\b.*\b{re.escape(name)}\b"
                )
                for index, line in enumerate(lines, 1):
                    if index not in ordered and mention.search(line):
                        ordered.append(index)
            # Declarations of the involved signals (bitwidth bugs).
            for signal in list(mismatch_signals) + sorted(drivers):
                for index, line in enumerate(lines, 1):
                    if re.match(
                        rf"\s*(?:input|output|inout|reg|wire)"
                        rf"(?:\s+(?:reg|wire|signed))*\s*"
                        rf"\[[^\]]*\]\s*{re.escape(signal)}\s*[;,)]",
                        line,
                    ) and index not in ordered:
                        ordered.append(index)
            # Parameter definitions feeding the cone (state encodings,
            # wrong-constant bugs inside localparams).
            for name in sorted(drivers):
                for index, line in enumerate(lines, 1):
                    if index not in ordered and re.match(
                        r"\s*(?:parameter|localparam)\b", line
                    ) and re.search(rf"\b{re.escape(name)}\b", line):
                        ordered.append(index)
            if ordered:
                return ordered
        return [
            index for index, line in enumerate(lines, 1)
            if line.strip() and not line.strip().startswith("//")
        ]

    def candidates(self, source, focus_lines, hints=None):
        """Enumerate ranked :class:`CandidatePatch` objects."""
        hints = dict(hints or {})
        focus = tuple(focus_lines)
        key = (self.max_candidates, source, focus,
               tuple(sorted(hints.items())))
        return list(_candidates_memo.recall(
            key, lambda: self._candidates(source, focus, hints), "llm"))

    def _candidates(self, source, focus_lines, hints):
        """Uncached :meth:`candidates`, as a tuple; derives ``hints``
        in place."""
        lines = source.splitlines()
        _derive_hints(hints)
        declared = set()
        for match in _DECLARATION.finditer(source):
            declared.update(_WORD.findall(match.group(0)))
        declared -= _DECLARATION_KEYWORDS
        declared_order = sorted(declared)
        out: List[CandidatePatch] = []
        for rank, line_no in enumerate(focus_lines):
            if not (1 <= line_no <= len(lines)):
                continue
            text = lines[line_no - 1]
            base_score = 10.0 / (1.0 + rank)
            # Reset-style constant-zero assignments are rarely the bug.
            if _RESET_ZERO_LINE.match(text):
                base_score *= 0.3
            out.extend(
                self._operator_candidates(line_no, text, base_score, hints)
            )
            out.extend(
                self._constant_candidates(line_no, text, base_score, hints)
            )
            out.extend(
                self._polarity_candidates(line_no, text, base_score, hints)
            )
            out.extend(
                self._width_candidates(line_no, text, base_score, hints)
            )
            out.extend(
                self._sensitivity_candidates(line_no, text, base_score, source)
            )
            out.extend(
                self._identifier_candidates(line_no, text, base_score,
                                            declared, declared_order)
            )
        # Deduplicate on (line, patched) keeping the best score.
        best = {}
        for candidate in out:
            key = (candidate.line_no, candidate.patched)
            if key not in best or best[key].score < candidate.score:
                best[key] = candidate
        ranked = sorted(best.values(), key=lambda c: -c.score)
        return tuple(ranked[: self.max_candidates])

    # -- candidate families ----------------------------------------------------

    def _operator_candidates(self, line_no, text, base, hints=None):
        hints = hints or {}
        results = []
        arith_boost = 1.8 if hints.get("arith") else 1.0
        # Never touch the assignment operator itself; split around it.
        assign_match = _ASSIGN_OP.search(text)
        rhs_start = assign_match.end() if assign_match else 0
        for priority, (old, new, pattern) in enumerate(_OP_SWAPS):
            if old not in text:
                continue
            for match in pattern.finditer(text):
                position = match.start()
                if position < rhs_start and old not in ("<", ">", "<=", ">="):
                    continue
                # Skip when part of a longer operator.
                before = text[position - 1] if position else ""
                after_index = position + len(old)
                after = text[after_index] if after_index < len(text) else ""
                window = before + old + after
                if old in ("<", ">") and ("<<" in window or ">>" in window
                                          or "=" in window):
                    continue
                if old in ("+", "-") and (before == old or after == old):
                    continue
                if old == "<=" and position < rhs_start:
                    continue  # non-blocking assignment operator
                patched = text[:position] + new + text[after_index:]
                score = base * (1.0 - 0.02 * priority) * 1.2
                if old in ("+", "-") and new in ("+", "-"):
                    score *= arith_boost
                results.append(
                    CandidatePatch(
                        line_no, text, patched, f"op:{old}->{new}", score
                    )
                )
        return results

    def _constant_candidates(self, line_no, text, base, hints):
        results = []
        expected = hints.get("expected")
        actual = hints.get("actual")
        for match in _SIZED_LITERAL.finditer(text):
            width = int(match.group(1))
            base_char = match.group(2)
            value = _literal_value(base_char, match.group(3))
            if value is None:
                continue
            top = (1 << width) - 1
            replacements = {value + 1, max(0, value - 1), 0, 1, top}
            if value:
                replacements.add(value // 2)
                replacements.add(min(top, value * 2 + 1))
            replacements.discard(value)
            in_comparison = bool(
                re.search(r"(==|!=|<=?|>=?)\s*" + re.escape(match.group(0)),
                          text)
                or re.search(re.escape(match.group(0)) + r"\s*(==|!=|<=?|>=?)",
                             text)
            )
            for replacement in sorted(replacements):
                if replacement > top:
                    continue
                new_literal = _render_literal(width, base_char, replacement)
                patched = (
                    text[: match.start()] + new_literal + text[match.end():]
                )
                score = base * (1.1 if in_comparison else 0.9)
                if expected is not None and actual is not None:
                    delta = abs(expected - actual)
                    if delta in (replacement, abs(replacement - value)):
                        score *= 1.5
                    if expected in (replacement,):
                        score *= 1.4
                if replacement in (0, 1):
                    score *= 1.05
                if hints.get("offby") and abs(replacement - value) == 1:
                    score *= 1.4
                results.append(
                    CandidatePatch(
                        line_no, text, patched,
                        f"const:{value}->{replacement}", score,
                    )
                )
        return results

    def _polarity_candidates(self, line_no, text, base, hints=None):
        hints = hints or {}
        inv_boost = 1.8 if hints.get("inverted") else 1.0
        results = []
        for match in re.finditer(r"\(\s*!\s*(\w+)\s*\)", text):
            weight = 0.8 * inv_boost
            # Flipping reset polarity is almost never the right repair.
            if _RESET_NAME.search(match.group(1)):
                weight *= 0.3
            patched = (
                text[: match.start()] + f"({match.group(1)})"
                + text[match.end():]
            )
            results.append(
                CandidatePatch(line_no, text, patched, "polarity:drop!",
                               base * weight)
            )
        for match in re.finditer(r"\(\s*(\w+)\s*\)", text):
            name = match.group(1)
            if name in ("begin", "end") or name.isdigit():
                continue
            if re.search(r"(if|while)\s*$", text[: match.start()]):
                patched = (
                    text[: match.start()] + f"(!{name})" + text[match.end():]
                )
                results.append(
                    CandidatePatch(line_no, text, patched, "polarity:add!",
                                   base * 0.7)
                )
        for match in re.finditer(r"~\s*(\w+)", text):
            patched = text[: match.start()] + match.group(1) + text[match.end():]
            results.append(
                CandidatePatch(line_no, text, patched, "polarity:drop~",
                               base * 0.6)
            )
        return results

    def _width_candidates(self, line_no, text, base, hints=None):
        hints = hints or {}
        results = []
        if not re.match(r"\s*(input|output|inout|wire|reg)\b", text):
            return results
        trunc_boost = 3.0 if hints.get("truncation") else 1.0
        for match in _RANGE.finditer(text):
            msb = int(match.group(1))
            lsb = int(match.group(2))
            for new_msb in (msb + 1, msb - 1):
                if new_msb < lsb:
                    continue
                if new_msb < msb and hints.get("truncation_strong"):
                    continue  # evidence says the range is too NARROW
                weight = 0.85
                if new_msb > msb:
                    weight *= trunc_boost  # widen when output truncated
                patched = (
                    text[: match.start()] + f"[{new_msb}:{lsb}]"
                    + text[match.end():]
                )
                results.append(
                    CandidatePatch(
                        line_no, text, patched,
                        f"width:{msb}->{new_msb}", base * weight,
                    )
                )
        return results

    def _sensitivity_candidates(self, line_no, text, base, source):
        results = []
        match = re.search(r"always\s*@\s*\(([^)]*)\)", text)
        if not match:
            return results
        sens = match.group(1)
        if "posedge" in sens and "negedge" not in sens:
            reset = None
            for name in re.findall(r"\bif\s*\(\s*!\s*(\w+)\s*\)", source):
                reset = name
                break
            if reset and reset not in sens:
                patched = text.replace(
                    match.group(0),
                    f"always @({sens.strip()} or negedge {reset})",
                )
                results.append(
                    CandidatePatch(
                        line_no, text, patched, "sens:add-reset", base * 1.3
                    )
                )
        if "negedge" in sens and "posedge" not in sens:
            patched = text.replace("negedge", "posedge", 1)
            results.append(
                CandidatePatch(line_no, text, patched, "sens:neg->pos",
                               base * 0.6)
            )
        if "*" not in sens and "edge" not in sens:
            patched = text.replace(match.group(0), "always @(*)")
            results.append(
                CandidatePatch(line_no, text, patched, "sens:star",
                               base * 0.9)
            )
        return results

    def _identifier_candidates(self, line_no, text, base, declared,
                               declared_order):
        """Swap an identifier for a similarly named declared one
        (variable-name misuse: r1_temp vs r2_temp); ``declared_order``
        is the ``declared`` set sorted."""
        results = []
        assign_match = _ASSIGN_OP.search(text)
        rhs_start = assign_match.end() if assign_match else 0
        for match in _WORD.finditer(text, rhs_start):
            name = match.group(0)
            if name not in declared:
                continue
            for other in declared_order:
                if other == name:
                    continue
                similarity = _name_similarity(name, other)
                if similarity < 0.25 and len(declared) > 8:
                    continue  # keep the search space sane on big modules
                patched = (
                    text[: match.start()] + other + text[match.end():]
                )
                results.append(
                    CandidatePatch(
                        line_no, text, patched, f"ident:{name}->{other}",
                        base * 0.45 * (0.5 + similarity),
                    )
                )
        return results


def _name_similarity(a, b):
    """Cheap similarity: shared prefix/suffix fraction."""
    if not a or not b:
        return 0.0
    prefix = 0
    for ca, cb in zip(a, b):
        if ca != cb:
            break
        prefix += 1
    suffix = 0
    for ca, cb in zip(reversed(a), reversed(b)):
        if ca != cb:
            break
        suffix += 1
    return (prefix + suffix) / max(len(a), len(b))
