"""The linter: syntax checking plus a rule engine for semantic warnings.

Diagnostics mimic Verilator's log format::

    %Error: dut.v:12:9: expected ';' but found 'endmodule'
    %Warning-COMBDLY: dut.v:8:14: non-blocking assignment in combinational block

so that prompt-construction code (and tests) can pattern-match the same
way UVLLM's scripts match real Verilator output.
"""

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List

from repro.hdl.errors import HdlSyntaxError, SourceLocation
from repro.hdl.parser import parse_source
from repro.lint import rules
from repro.obs.metrics import GLOBAL as _metrics

#: Per-process lint memo bound, sized like the parse memo
#: (:data:`repro.hdl.parser.MEMO_LIMIT`).
MEMO_LIMIT = 64

#: (text, enabled rule codes) -> (diagnostics tuple, parse_ok); least
#: recently used first.
_memo = OrderedDict()


@dataclass(frozen=True)
class Diagnostic:
    """One linter finding."""

    severity: str  # "error" | "warning"
    code: str
    message: str
    location: SourceLocation = field(default_factory=SourceLocation)
    hint: str = ""

    def format(self, filename="dut.v"):
        place = f"{filename}:{self.location.line}:{self.location.column}"
        if self.severity == "error":
            return f"%Error: {place}: {self.message}"
        return f"%Warning-{self.code}: {place}: {self.message}"


@dataclass
class LintReport:
    """All findings for one source text."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    parse_ok: bool = True

    @property
    def errors(self):
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self):
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def clean(self):
        return not self.diagnostics

    def format(self, filename="dut.v"):
        if not self.diagnostics:
            return "%Lint: clean"
        return "\n".join(d.format(filename) for d in self.diagnostics)

    def warnings_with_code(self, *codes):
        return [d for d in self.warnings if d.code in codes]


class Linter:
    """Runs the syntax check and all semantic rules.

    ``enabled_rules`` restricts which semantic rules run (by code); the
    default is everything in :data:`repro.lint.rules.ALL_RULES`.
    """

    def __init__(self, enabled_rules=None):
        self.rules = [
            rule for rule in rules.ALL_RULES
            if enabled_rules is None or rule.code in enabled_rules
        ]

    def lint(self, source):
        """Lint Verilog text and return a :class:`LintReport`.

        Each distinct (text, rule set) is linted once per process (up
        to :data:`MEMO_LIMIT` recent pairs); every call gets a new
        report over the shared, immutable diagnostics.
        """
        key = (source, tuple(rule.code for rule in self.rules))
        entry = _memo.get(key)
        if entry is None:
            _metrics.inc("lint.memo_misses")
            entry = self._lint(source)
            _memo[key] = entry
            if len(_memo) > MEMO_LIMIT:
                _memo.popitem(last=False)
        else:
            _metrics.inc("lint.memo_hits")
            _memo.move_to_end(key)
        return LintReport(diagnostics=list(entry[0]), parse_ok=entry[1])

    def _lint(self, source):
        """Uncached lint: ``(diagnostics tuple in source order, parse_ok)``."""
        try:
            source_file = parse_source(source)
        except HdlSyntaxError as exc:
            syntax = Diagnostic(severity="error", code="SYNTAX",
                                message=exc.message, location=exc.location)
            return (syntax,), False

        diagnostics = []
        for module in source_file.modules:
            context = rules.RuleContext(module, source_file)
            for rule in self.rules:
                diagnostics.extend(rule.check(context))
        diagnostics.sort(key=lambda d: (d.location.line, d.location.column))
        return tuple(diagnostics), True


def lint_source(source, enabled_rules=None):
    """Convenience wrapper: lint text, return the report."""
    return Linter(enabled_rules).lint(source)
