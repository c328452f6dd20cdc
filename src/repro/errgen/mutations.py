"""Mutation operators implementing Table I's error symptoms.

Each operator scans the golden source for applicable *sites* and
produces concrete mutations.  Operators carry their paper
classification: the Fig. 5 syntax class or Fig. 6 functional class.
"""

import re
from dataclasses import dataclass
from typing import List


@dataclass
class MutationSite:
    """One concrete applicable mutation."""

    operator: str
    kind: str              # "syntax" | "functional"
    paper_class: str       # Fig. 5 / Fig. 6 category
    description: str
    mutated_source: str


class MutationOperator:
    """Base class: subclasses implement :meth:`sites`."""

    name = ""
    kind = "functional"
    paper_class = ""

    def sites(self, source) -> List[MutationSite]:
        raise NotImplementedError

    def _site(self, mutated, description):
        return MutationSite(
            operator=self.name,
            kind=self.kind,
            paper_class=self.paper_class,
            description=description,
            mutated_source=mutated,
        )


def _splice_lines(source, index, replacement):
    """Replace (or delete when None) line ``index`` (0-based)."""
    lines = source.splitlines()
    if replacement is None:
        del lines[index]
    else:
        lines[index] = replacement
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Syntax operators (Fig. 5 classes)
# ---------------------------------------------------------------------------

class PrematureTermination(MutationOperator):
    """Delete ``endmodule`` (or the file tail) — truncated copy/paste."""

    name = "premature_termination"
    kind = "syntax"
    paper_class = "premature_termination"

    def sites(self, source):
        results = []
        lines = source.splitlines()
        for index in range(len(lines) - 1, -1, -1):
            if lines[index].strip() == "endmodule":
                results.append(
                    self._site(
                        _splice_lines(source, index, None),
                        f"deleted 'endmodule' at line {index + 1}",
                    )
                )
                # Harsher variant: drop the last statement too.
                if index >= 2 and lines[index - 1].strip():
                    truncated = "\n".join(lines[: index - 1]) + "\n"
                    results.append(
                        self._site(
                            truncated,
                            f"truncated file at line {index - 1}",
                        )
                    )
                break
        return results


class ScopeIssue(MutationOperator):
    """Delete a standalone ``begin`` or ``end`` — broken block scope."""

    name = "scope_issue"
    kind = "syntax"
    paper_class = "scope_issues"

    def sites(self, source):
        results = []
        lines = source.splitlines()
        for index, line in enumerate(lines):
            stripped = line.strip()
            if stripped == "end":
                results.append(
                    self._site(
                        _splice_lines(source, index, None),
                        f"deleted 'end' at line {index + 1}",
                    )
                )
            elif stripped.endswith("begin") and "if" not in stripped and \
                    "else" not in stripped:
                without = line[: line.rfind("begin")].rstrip()
                replacement = without if without.strip() else None
                results.append(
                    self._site(
                        _splice_lines(source, index, replacement),
                        f"deleted 'begin' at line {index + 1}",
                    )
                )
        return results


class OperatorSyntax(MutationOperator):
    """Corrupt an operator into an illegal token sequence (``=+`` etc.)."""

    name = "operator_syntax"
    kind = "syntax"
    paper_class = "operator_misuses"

    _CORRUPTIONS = [
        (re.compile(r"<="), "=<"),
        (re.compile(r"&&"), "&&&"),
        (re.compile(r"(?<![<>=!+\-*/&|^])=(?!=)"), "=+"),
        (re.compile(r"\|\|"), "|||"),
    ]

    def sites(self, source):
        results = []
        lines = source.splitlines()
        for index, line in enumerate(lines):
            if line.strip().startswith("//"):
                continue
            for pattern, bad in self._CORRUPTIONS:
                match = pattern.search(line)
                if match:
                    corrupted = line[: match.start()] + bad + line[match.end():]
                    results.append(
                        self._site(
                            _splice_lines(source, index, corrupted),
                            f"corrupted operator on line {index + 1}: "
                            f"{match.group(0)!r} -> {bad!r}",
                        )
                    )
                    break
        return results


class KeywordTypo(MutationOperator):
    """Misspell a structural keyword — classic incorrect coding."""

    name = "keyword_typo"
    kind = "syntax"
    paper_class = "incorrect_coding"

    _TYPOS = [
        ("always", "alway"),
        ("assign", "asign"),
        ("endcase", "endcas"),
        ("begin", "begi"),
        ("posedge", "posege"),
        ("module", "modul"),
    ]

    def sites(self, source):
        results = []
        lines = source.splitlines()
        for keyword, typo in self._TYPOS:
            pattern = re.compile(rf"\b{keyword}\b")
            for index, line in enumerate(lines):
                match = pattern.search(line)
                if match:
                    corrupted = (
                        line[: match.start()] + typo + line[match.end():]
                    )
                    results.append(
                        self._site(
                            _splice_lines(source, index, corrupted),
                            f"misspelled '{keyword}' on line {index + 1}",
                        )
                    )
                    break  # one site per keyword
        return results


class UndeclaredUse(MutationOperator):
    """Delete an internal declaration (data-handling error)."""

    name = "undeclared_use"
    kind = "syntax"
    paper_class = "data_handling"

    def sites(self, source):
        results = []
        lines = source.splitlines()
        for index, line in enumerate(lines):
            if re.match(r"\s*(reg|integer)\s+(\[[^\]]*\]\s*)?\w+\s*;",
                        line):
                results.append(
                    self._site(
                        _splice_lines(source, index, None),
                        f"deleted declaration at line {index + 1}: "
                        f"{line.strip()}",
                    )
                )
        return results


# ---------------------------------------------------------------------------
# Functional operators (Fig. 6 classes)
# ---------------------------------------------------------------------------

class OperatorMisuse(MutationOperator):
    """Swap an arithmetic/bitwise operator (a+b -> a-b)."""

    name = "operator_misuse"
    kind = "functional"
    paper_class = "logic_errors"

    _SWAPS = [("+", "-"), ("-", "+"), ("&", "|"), ("|", "&"),
              ("^", "&"), ("<<", ">>"), (">>", "<<")]

    def sites(self, source):
        results = []
        lines = source.splitlines()
        for index, line in enumerate(lines):
            if line.strip().startswith("//"):
                continue
            assign = re.search(r"(<=|(?<![<>=!])=(?!=))", line)
            if not assign:
                continue
            rhs_at = assign.end()
            for old, new in self._SWAPS:
                position = line.find(old, rhs_at)
                while position >= 0:
                    before = line[position - 1] if position else ""
                    after_at = position + len(old)
                    after = line[after_at] if after_at < len(line) else ""
                    ok = True
                    if old in ("+", "-") and (before == old or after == old):
                        ok = False
                    if old in ("<<", ">>") and (before in "<>" or
                                                after in "<>"):
                        ok = False
                    if old in ("&", "|") and (before == old or after == old):
                        ok = False
                    if ok:
                        mutated = line[:position] + new + line[after_at:]
                        results.append(
                            self._site(
                                _splice_lines(source, index, mutated),
                                f"swapped '{old}'->'{new}' on line "
                                f"{index + 1}",
                            )
                        )
                        break
                    position = line.find(old, position + 1)
        return results


class ValueMisuse(MutationOperator):
    """Change an assigned constant (32'b0 -> 32'b1 style)."""

    name = "value_misuse"
    kind = "functional"
    paper_class = "logic_errors"

    def sites(self, source):
        results = []
        lines = source.splitlines()
        pattern = re.compile(r"(\d+)'([bdh])([0-9a-fA-F_]+)")
        for index, line in enumerate(lines):
            assign = re.search(r"(<=|(?<![<>=!])=(?!=))", line)
            if not assign or "==" in line[assign.start():assign.start() + 2]:
                continue
            if re.search(r"\b(if|while|case)\b", line):
                continue  # condition literals belong to ConditionValue
            for match in pattern.finditer(line, assign.end()):
                width = int(match.group(1))
                base = match.group(2)
                digits = match.group(3).replace("_", "")
                radix = {"b": 2, "d": 10, "h": 16}[base]
                try:
                    value = int(digits, radix)
                except ValueError:
                    continue
                new_value = 1 if value == 0 else 0
                if width == 1 and value > 1:
                    continue
                rendered = {
                    "b": f"{width}'b{new_value:b}",
                    "d": f"{width}'d{new_value}",
                    "h": f"{width}'h{new_value:x}",
                }[base]
                mutated = (
                    line[: match.start()] + rendered + line[match.end():]
                )
                results.append(
                    self._site(
                        _splice_lines(source, index, mutated),
                        f"changed constant {match.group(0)} -> {rendered} "
                        f"on line {index + 1}",
                    )
                )
        return results


class ConditionValue(MutationOperator):
    """Wrong judgment value in a comparison (i < 7 -> i < 15)."""

    name = "condition_value"
    kind = "functional"
    paper_class = "flawed_conditions"

    def sites(self, source):
        results = []
        lines = source.splitlines()
        pattern = re.compile(
            r"(==|!=|<=|>=|<|>)\s*((\d+)'([bdh]))?([0-9a-fA-F_]+)\b"
        )
        for index, line in enumerate(lines):
            if not re.search(r"\b(if|while|for|case)\b", line) and \
                    "?" not in line:
                continue
            for match in pattern.finditer(line):
                digits = match.group(5).replace("_", "")
                radix = {"b": 2, "d": 10, "h": 16}.get(match.group(4), 10)
                try:
                    value = int(digits, radix)
                except ValueError:
                    continue
                width = int(match.group(3)) if match.group(3) else None
                for new_value in (value * 2 + 1, max(0, value - 1),
                                  value + 1):
                    if new_value == value:
                        continue
                    if width is not None and new_value >= (1 << width):
                        continue
                    if width:
                        base = match.group(4)
                        rendered = {
                            "b": f"{width}'b{new_value:b}",
                            "d": f"{width}'d{new_value}",
                            "h": f"{width}'h{new_value:x}",
                        }[base]
                        literal = match.group(1) + " " + rendered
                    else:
                        literal = f"{match.group(1)} {new_value}"
                    mutated = (
                        line[: match.start()] + literal + line[match.end():]
                    )
                    results.append(
                        self._site(
                            _splice_lines(source, index, mutated),
                            f"changed judgment value {value} -> {new_value} "
                            f"on line {index + 1}",
                        )
                    )
                    break
        return results


class BitwidthMisuse(MutationOperator):
    """Narrow a declaration's packed range (reg[8:0] -> reg[7:0])."""

    name = "bitwidth_misuse"
    kind = "functional"
    paper_class = "incorrect_bitwidth"

    def sites(self, source):
        results = []
        lines = source.splitlines()
        for index, line in enumerate(lines):
            if not re.match(r"\s*(input|output|inout|wire|reg)\b", line):
                continue
            match = re.search(r"\[(\d+)\s*:\s*(\d+)\]", line)
            if not match:
                continue
            msb = int(match.group(1))
            lsb = int(match.group(2))
            if msb <= lsb:
                continue
            mutated = (
                line[: match.start()] + f"[{msb - 1}:{lsb}]"
                + line[match.end():]
            )
            results.append(
                self._site(
                    _splice_lines(source, index, mutated),
                    f"narrowed range [{msb}:{lsb}] -> [{msb - 1}:{lsb}] "
                    f"on line {index + 1}",
                )
            )
        return results


class SensitivityMisuse(MutationOperator):
    """Drop the reset edge from a sensitivity list (Table I: wrong
    sensitivity)."""

    name = "sensitivity_misuse"
    kind = "functional"
    paper_class = "flawed_conditions"

    def sites(self, source):
        results = []
        lines = source.splitlines()
        pattern = re.compile(r"\s*or\s+negedge\s+\w+")
        for index, line in enumerate(lines):
            if "always" not in line:
                continue
            match = pattern.search(line)
            if match:
                mutated = line[: match.start()] + line[match.end():]
                results.append(
                    self._site(
                        _splice_lines(source, index, mutated),
                        f"dropped reset edge from sensitivity on line "
                        f"{index + 1}",
                    )
                )
        return results


class VariableMisuse(MutationOperator):
    """Replace an identifier read with a similarly named signal."""

    name = "variable_misuse"
    kind = "functional"
    paper_class = "logic_errors"

    def sites(self, source):
        declared = {}
        for match in re.finditer(
            r"\b(?:input|output|inout)?\s*(?:wire|reg|integer)\s*"
            r"(?:signed\s*)?(\[[^\]]*\])?\s*(\w+)\s*[;,\[]", source,
        ):
            declared[match.group(2)] = match.group(1) or ""
        results = []
        lines = source.splitlines()
        names = sorted(declared)
        for index, line in enumerate(lines):
            assign = re.search(r"(<=|(?<![<>=!])=(?!=))", line)
            if not assign:
                continue
            for match in re.finditer(r"[A-Za-z_][A-Za-z0-9_]*", line):
                if match.start() < assign.end():
                    continue
                name = match.group(0)
                if name not in declared:
                    continue
                for other in names:
                    if other == name or declared[other] != declared[name]:
                        continue
                    mutated = (
                        line[: match.start()] + other + line[match.end():]
                    )
                    results.append(
                        self._site(
                            _splice_lines(source, index, mutated),
                            f"replaced '{name}' with '{other}' on line "
                            f"{index + 1}",
                        )
                    )
                    break
                else:
                    continue
                break  # one site per line
        return results


class AssignmentTiming(MutationOperator):
    """Blocking/non-blocking assignment misuse (Table I: operator
    misuse in the Assignment group; the "timing-related" class the
    paper's pre-processing templates target)."""

    name = "assignment_timing"
    kind = "functional"
    paper_class = "flawed_conditions"

    def sites(self, source):
        results = []
        lines = source.splitlines()
        in_clocked = False
        for index, line in enumerate(lines):
            if "always" in line:
                in_clocked = "posedge" in line or "negedge" in line
                continue
            if not in_clocked:
                continue
            match = re.search(r"<=", line)
            if match and not re.search(r"\b(if|while|for)\b", line):
                mutated = line[: match.start()] + "=" + line[match.end():]
                results.append(
                    self._site(
                        _splice_lines(source, index, mutated),
                        f"non-blocking -> blocking on line {index + 1}",
                    )
                )
        return results


class PortMismatch(MutationOperator):
    """Corrupt an instance connection (Table I: port mismatch)."""

    name = "port_mismatch"
    kind = "functional"
    paper_class = "logic_errors"

    def sites(self, source):
        results = []
        lines = source.splitlines()
        pattern = re.compile(r"\.(\w+)\(([^)]*)\)")
        for index, line in enumerate(lines):
            if not pattern.search(line) or "module" in line:
                continue
            connections = list(pattern.finditer(line))
            if len(connections) >= 2:
                a, b = connections[0], connections[1]
                swapped = (
                    line[: a.start()]
                    + f".{a.group(1)}({b.group(2)})"
                    + line[a.end(): b.start()]
                    + f".{b.group(1)}({a.group(2)})"
                    + line[b.end():]
                )
                results.append(
                    self._site(
                        _splice_lines(source, index, swapped),
                        f"swapped connections on line {index + 1}",
                    )
                )
            conn = connections[0]
            if conn.group(2).strip() not in ("1'b0", ""):
                tied = (
                    line[: conn.start()] + f".{conn.group(1)}(1'b0)"
                    + line[conn.end():]
                )
                results.append(
                    self._site(
                        _splice_lines(source, index, tied),
                        f"tied port '{conn.group(1)}' to 1'b0 on line "
                        f"{index + 1}",
                    )
                )
        return results


#: The operator sets (9 core operators of Fig. 7 plus extensions).
SYNTAX_OPERATORS = [
    PrematureTermination(),
    ScopeIssue(),
    OperatorSyntax(),
    KeywordTypo(),
    UndeclaredUse(),
]

FUNCTIONAL_OPERATORS = [
    OperatorMisuse(),
    ValueMisuse(),
    ConditionValue(),
    BitwidthMisuse(),
    SensitivityMisuse(),
    AssignmentTiming(),
    VariableMisuse(),
    PortMismatch(),
]

ALL_OPERATORS = SYNTAX_OPERATORS + FUNCTIONAL_OPERATORS
