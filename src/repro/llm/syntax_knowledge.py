"""Heuristic syntax-repair engine (the mock LLM's "training" on Verilog).

Given source text that fails to parse or lint, propose textual fixes the
way a code-trained LLM does: keyword-typo correction, inserting missing
semicolons / ``end`` / ``endmodule``, re-declaring missing variables
with widths guessed from usage, and wire/reg kind corrections.

The engine is honest: it sees only the broken code plus the linter
message, never the golden source.  Width guesses can be wrong, balance
insertions can land in the wrong scope — those imperfect fixes then
surface as functional errors for the main repair loop, reproducing the
cross-stage compensation the paper reports (Result 4).

A repair is a pure function of the text and the linter's rules, so
each distinct pair is repaired once per process (up to
:data:`MEMO_LIMIT` recent ones).
"""

import re

from repro.hdl.lexer import KEYWORDS
from repro.lint.linter import Linter
from repro.memo import LRUMemo

_MAX_EDITS = 12

#: Per-process syntax-repair memo bound, sized with the functional
#: analysis memos (:data:`repro.llm.repair_knowledge.MEMO_LIMIT`): 64
#: entries answer 243 of ``paper-quick``'s 298 repairs, as many as an
#: unbounded memo.
MEMO_LIMIT = 64

#: (source, linter rule codes) -> (fixed source, pair tuple, fixed_all).
_memo = LRUMemo(MEMO_LIMIT)


def edit_distance(a, b, limit=3):
    """Levenshtein distance with early cutoff."""
    if abs(len(a) - len(b)) > limit:
        return limit + 1
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        current = [i]
        best = i
        for j, cb in enumerate(b, 1):
            cost = 0 if ca == cb else 1
            value = min(
                previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost
            )
            current.append(value)
            best = min(best, value)
        if best > limit:
            return limit + 1
        previous = current
    return previous[-1]


_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Keywords commonly corrupted in real codebases; short identifiers are
#: excluded to avoid clobbering legitimate names (e.g. ``i``, ``en``).
_FIXABLE_KEYWORDS = [
    kw for kw in sorted(KEYWORDS) if len(kw) >= 4
]


def fix_keyword_typos(source, declared_names=frozenset()):
    """Replace near-miss keywords (edit distance 1) that are not
    declared identifiers.  Returns (new_source, pairs)."""
    pairs = []

    def replace(match):
        word = match.group(0)
        if word in KEYWORDS or word in declared_names:
            return word
        for keyword in _FIXABLE_KEYWORDS:
            if edit_distance(word, keyword, 1) == 1:
                pairs.append((word, keyword))
                return keyword
        return word

    new_source = _WORD.sub(replace, source)
    return new_source, pairs


def _declared_names(source):
    names = set()
    for match in re.finditer(
        r"\b(?:input|output|inout|wire|reg|integer|parameter|localparam)\b"
        r"[^;]*;",
        source,
    ):
        for word in _WORD.findall(match.group(0)):
            names.add(word)
    # Module and instance names.
    for match in re.finditer(r"\bmodule\s+(\w+)", source):
        names.add(match.group(1))
    return names


def _guess_width(source, name):
    """Guess a missing signal's width from its usage context.

    Sized literals and bit selects on lines using the signal give a
    lower bound; parameters assigned to it (``state <= S0`` with
    ``localparam S0 = 2'd0``) contribute their declared widths.
    """
    best = 1
    param_widths = {
        match.group(1): int(match.group(2))
        for match in re.finditer(
            r"(?:parameter|localparam)\s+(\w+)\s*=\s*(\d+)\s*'", source
        )
    }
    # Multi-declaration lines: localparam A = 2'd0, B = 2'd1;
    for match in re.finditer(
        r"(?:parameter|localparam)\b([^;]*);", source
    ):
        for inner in re.finditer(r"(\w+)\s*=\s*(\d+)\s*'", match.group(1)):
            param_widths[inner.group(1)] = int(inner.group(2))
    for match in re.finditer(
        rf"[^\n]*\b{re.escape(name)}\b[^\n]*", source
    ):
        line = match.group(0)
        if re.match(r"\s*(?:parameter|localparam)\b", line):
            continue
        for literal in re.finditer(r"(\d+)\s*'", line):
            best = max(best, int(literal.group(1)))
        for select in re.finditer(rf"{re.escape(name)}\s*\[(\d+)(?::|\])",
                                  line):
            best = max(best, int(select.group(1)) + 1)
        for word in _WORD.findall(line):
            if word in param_widths:
                best = max(best, param_widths[word])
    return best


class SyntaxRepairEngine:
    """Iteratively repairs syntax/lint errors in Verilog text."""

    def __init__(self, linter=None):
        self.linter = linter or Linter()

    def repair(self, source):
        """Attempt a full repair; returns (new_source, pairs, fixed_all).

        ``pairs`` is the original→patched pair list for the structured
        JSON response.  ``fixed_all`` is True when the result parses and
        has no lint *errors* (warnings are the script templates' job).
        """
        key = (source, tuple(rule.code for rule in self.linter.rules))
        fixed, pairs, fixed_all = _memo.recall(
            key, lambda: self._repair(source), "llm")
        return fixed, list(pairs), fixed_all

    def _repair(self, source):
        """Uncached :meth:`repair`, with the pairs as a tuple."""
        pairs = []
        current = source
        declared = _declared_names(source)
        current, typo_pairs = fix_keyword_typos(current, declared)
        pairs.extend(typo_pairs)

        for _ in range(_MAX_EDITS):
            report = self.linter.lint(current)
            errors = report.errors
            if not errors:
                return current, tuple(pairs), True
            updated = self._fix_one(current, errors[0])
            if updated is None or updated == current:
                return current, tuple(pairs), False
            pairs.append(self._diff_pair(current, updated))
            current = updated
        report = self.linter.lint(current)
        return current, tuple(pairs), not report.errors

    # -- single-error fixers --------------------------------------------------

    def _fix_one(self, source, diagnostic):
        message = diagnostic.message
        line_index = diagnostic.location.line - 1
        lines = source.splitlines()

        if "missing 'endmodule'" in message:
            return source.rstrip("\n") + "\nendmodule\n"
        if "missing 'end'" in message or "missing 'endcase'" in message:
            token = "endcase" if "endcase" in message else "end"
            return self._insert_before_closer(source, token)
        match = re.search(r"expected '(.+?)' but found", message)
        if match:
            expected = match.group(1)
            if expected in (";", ")", "]", "}", ":"):
                return self._insert_token(lines, diagnostic.location, expected)
            if expected == "keyword 'end'":
                return self._insert_before_closer(source, "end")
        if "unexpected keyword 'end'" in message and \
                0 <= line_index < len(lines) and \
                lines[line_index].strip() == "end":
            # Orphaned 'end' at module level: its 'begin' was lost.
            # Re-balance by opening a block at the nearest unopened
            # control line above; if none, drop the orphan (begin/end
            # is optional around a single statement).
            opened = self._open_missing_begin(lines, line_index)
            if opened is not None:
                return opened
            del lines[line_index]
            return "\n".join(lines) + "\n"
        if "unexpected keyword" in message and 0 <= line_index < len(lines):
            # Often a missing ';' on the previous non-empty line.
            for back in range(line_index - 1, -1, -1):
                stripped = lines[back].rstrip()
                if stripped:
                    if not stripped.endswith((";", "begin", "end", ")")):
                        lines[back] = lines[back].rstrip() + ";"
                        return "\n".join(lines) + "\n"
                    break
        if "expected assignment target" in message or (
            "expected identifier but found" in message and
            ("'<='" in message or "'='" in message)
        ):
            # A statement leaked to module level: a 'begin' is missing
            # above it.
            opened = self._open_missing_begin(lines, line_index)
            if opened is not None:
                return opened
        if "unexpected character" in message or "unexpected token" in \
                message and 0 <= line_index < len(lines):
            fixed = self._fix_operator_garbage(lines, line_index)
            if fixed is not None:
                return fixed
        if "procedural assignment to undeclared" in message:
            match = re.search(r"variable '(\w+)'", message)
            if match:
                return self._declare_variable(source, match.group(1))
        if "procedural assignment to wire" in message:
            match = re.search(r"wire '(\w+)'", message)
            if match:
                return self._rekind(source, match.group(1), to_reg=True)
        if "continuous assignment to reg" in message:
            match = re.search(r"reg '(\w+)'", message)
            if match:
                return self._rekind(source, match.group(1), to_reg=False)
        if "has no port" in message:
            return self._fix_port_name(source, message, diagnostic)
        return None

    def _open_missing_begin(self, lines, from_index):
        """Append ``begin`` to the nearest control line above
        ``from_index`` that should open a block but doesn't."""
        for back in range(min(from_index, len(lines)) - 1, -1, -1):
            stripped = lines[back].rstrip()
            bare = stripped.strip()
            if not bare:
                continue
            if bare.endswith("begin"):
                return None  # block structure looks intact above
            is_control = (
                bare == "else"
                or bare.endswith("else")
                or re.search(r"\b(if|else|for|while)\s*\(.*\)\s*$", bare)
                or re.search(r"always\s*@.*\)\s*$", bare)
            )
            if is_control:
                lines[back] = stripped + " begin"
                return "\n".join(lines) + "\n"
            if bare.endswith(";"):
                continue  # plain statement; keep walking up
            return None
        return None

    def _insert_token(self, lines, location, token):
        index = location.line - 1
        if index < 0 or index >= len(lines):
            return None
        column = max(0, location.column - 1)
        line = lines[index]
        if token == ";":
            # Attach to the end of the previous statement-ish line when
            # the error points at the start of a fresh construct.
            if column == 0 or line[:column].strip() == "":
                for back in range(index - 1, -1, -1):
                    if lines[back].strip():
                        lines[back] = lines[back].rstrip() + ";"
                        return "\n".join(lines) + "\n"
                return None
        column = min(column, len(line))
        lines[index] = line[:column] + token + line[column:]
        return "\n".join(lines) + "\n"

    def _insert_before_closer(self, source, token):
        lines = source.splitlines()
        closer = "endcase" if token == "endcase" else None
        for index in range(len(lines) - 1, -1, -1):
            stripped = lines[index].strip()
            if stripped.startswith("endmodule") or (
                closer is None and stripped == "endcase"
            ):
                indent = " " * 4
                lines.insert(index, indent + token)
                return "\n".join(lines) + "\n"
        return source.rstrip("\n") + "\n" + token + "\n"

    _GARBAGE_OPS = [
        ("<=+", "<="), ("=+", "="), ("==+", "=="), ("&&&", "&&"),
        ("|||", "||"), ("++", "+"), ("--", "-"), ("<<<<", "<<"),
        (">>>>", ">>"), ("=<", "<="), ("=>", ">="),
    ]

    def _fix_operator_garbage(self, lines, line_index):
        if not (0 <= line_index < len(lines)):
            return None
        line = lines[line_index]
        for bad, good in self._GARBAGE_OPS:
            if bad in line:
                lines[line_index] = line.replace(bad, good, 1)
                return "\n".join(lines) + "\n"
        return None

    def _declare_variable(self, source, name):
        width = _guess_width(source, name)
        range_text = f"[{width - 1}:0] " if width > 1 else ""
        declaration = f"    reg {range_text}{name};"
        lines = source.splitlines()
        # The insertion point must be INSIDE the module body: after the
        # header's ``);`` and after any body declarations, but never
        # inside an ANSI port list.
        header_end = 0
        for index, line in enumerate(lines):
            if ");" in line:
                header_end = index + 1
                break
        insert_at = header_end
        for index in range(header_end, len(lines)):
            if re.match(r"\s*(input|output|inout|wire|reg|integer|parameter|"
                        r"localparam)\b", lines[index]):
                insert_at = index + 1
        lines.insert(max(insert_at, 1), declaration)
        return "\n".join(lines) + "\n"

    def _rekind(self, source, name, to_reg):
        if to_reg:
            # output X -> output reg X; wire X -> reg X.
            pattern = rf"\b(output\s+)(\[[^\]]*\]\s*)?({re.escape(name)}\b)"
            replaced = re.sub(
                pattern, lambda m: m.group(1) + "reg " + (m.group(2) or "")
                + m.group(3), source, count=1,
            )
            if replaced != source:
                return replaced
            pattern = rf"\bwire(\s+(?:\[[^\]]*\]\s*)?{re.escape(name)}\b)"
            replaced = re.sub(pattern, r"reg\1", source, count=1)
            return replaced if replaced != source else None
        pattern = rf"\breg(\s+(?:\[[^\]]*\]\s*)?{re.escape(name)}\b)"
        replaced = re.sub(pattern, r"wire\1", source, count=1)
        if replaced != source:
            return replaced
        pattern = rf"\b(output\s+)reg\s+((?:\[[^\]]*\]\s*)?{re.escape(name)}\b)"
        replaced = re.sub(pattern, r"\1\2", source, count=1)
        return replaced if replaced != source else None

    def _fix_port_name(self, source, message, diagnostic):
        match = re.search(r"has no port '(\w+)'", message)
        module_match = re.search(r"module '(\w+)'", message)
        if not match or not module_match:
            return None
        bad_port = match.group(1)
        module_name = module_match.group(1)
        decl = re.search(
            rf"module\s+{re.escape(module_name)}\s*\(([^;]*?)\)\s*;",
            source, re.S,
        )
        if not decl:
            return None
        candidates = _WORD.findall(decl.group(1))
        best = None
        best_distance = 3
        for candidate in candidates:
            distance = edit_distance(bad_port, candidate, 2)
            if distance < best_distance:
                best_distance = distance
                best = candidate
        if best is None:
            return None
        return re.sub(
            rf"\.{re.escape(bad_port)}\s*\(", f".{best}(", source, count=1
        )

    @staticmethod
    def _diff_pair(old, new):
        """First divergence as an (original, patched) pair.

        Handles in-place edits, insertions (the pair re-quotes the
        context line so application inserts rather than replaces) and
        deletions.
        """
        old_lines = old.splitlines()
        new_lines = new.splitlines()
        index = 0
        while index < min(len(old_lines), len(new_lines)) and \
                old_lines[index] == new_lines[index]:
            index += 1
        if index >= len(old_lines) and index < len(new_lines):
            return ("", new_lines[index])  # pure append
        if index >= len(new_lines) and index < len(old_lines):
            return (old_lines[index], "")  # trailing deletion
        if index >= len(old_lines):
            return ("", "")
        old_line = old_lines[index]
        new_line = new_lines[index]
        if len(new_lines) > len(old_lines) and \
                index + 1 < len(new_lines) and new_lines[index + 1] == old_line:
            # Insertion before old_line: keep the context line.
            return (old_line, new_line + "\n" + old_line)
        if len(old_lines) > len(new_lines) and \
                index < len(new_lines) and (
                    index + 1 >= len(old_lines)
                    or old_lines[index + 1] == new_line
                ):
            return (old_line, "")  # deletion of old_line
        return (old_line, new_line)
