"""Semantic lint rules.

Each rule reads one module's facts and yields diagnostics.  Rules are
deliberately aligned with the Verilator warnings the paper's scripts
target (COMBDLY, BLKSEQ, incomplete sensitivity) plus the broader checks
a real lint pass performs (undeclared nets, wire/reg misuse, width
mismatches, latch inference, multiple drivers, incomplete case).

:class:`RuleContext` collects the facts in one pass over the module:

- the declarations, with each name's declared width;
- one :class:`_ProcessFacts` per ``always`` block, ``initial`` block and
  continuous assign, in module order.  One walk of an ``always`` or
  ``initial`` body gives its ``Assign`` nodes in walk order (``for``
  init and step included), each with the root names it writes, and the
  block's written set, read set, ``Case`` nodes, ``for``-loop variables,
  every identifier with its location, and the names assigned on every
  path;
- the instances.

The read set follows one rule.  A statement reads every identifier of
its conditions, case subjects and labels, loop conditions, task
arguments and right-hand sides.  An assignment target reads the index
and bound expressions along its ``Index``/``PartSelect`` chain and
nothing inside the node where that chain ends, so nothing inside a
concatenation target.  A continuous assign reads its right-hand side
only.  Sensitivity entries are not in the read set.

No rule walks an ``always`` or ``initial`` body again; the one walk left
inside a rule is :class:`SyncAsyncRule` looking at its reset branch.
"""

from dataclasses import dataclass

from repro.hdl import ast


class _ProcessFacts:
    """What one walk of an ``always``/``initial`` body, or one
    continuous assign, finds.

    ``assigns`` holds ``(assign, root names written)`` in walk order (a
    continuous assign is its own single entry); ``identifiers`` holds
    ``(name, location)`` for every identifier, sensitivity entries and
    target bases included; ``listed`` is the set of sensitivity entries
    that are plain identifiers; ``complete`` is the set of names
    assigned on every path through the body.
    """

    def __init__(self, item):
        self.item = item
        self.assigns = []
        self.written = set()
        self.reads = set()
        self.identifiers = []
        self.cases = []
        self.loop_vars = set()
        self.listed = set()
        self.complete = set()
        if isinstance(item, ast.ContinuousAssign):
            self._record(item)
            self._expr(item.target, read=False)
            self._expr(item.value)
            return
        if isinstance(item, ast.Always):
            self._expr(item.sensitivity, read=False)
            self.listed = {
                expr.name for _, expr in item.sensitivity.events
                if isinstance(expr, ast.Identifier)
            }
        self.complete = self._stmt(item.body)

    def _record(self, assign):
        names = _lhs_base_names(assign.target)
        self.assigns.append((assign, names))
        self.written.update(names)
        return names

    def _expr(self, expr, read=True):
        for node in expr.walk():
            if isinstance(node, ast.Identifier):
                self.identifiers.append((node.name, node.location))
                if read:
                    self.reads.add(node.name)

    def _stmt(self, stmt):
        """Record ``stmt``; return the names it assigns on every path."""
        if isinstance(stmt, ast.Block):
            complete = set()
            for inner in stmt.statements:
                complete |= self._stmt(inner)
            return complete
        if isinstance(stmt, ast.Assign):
            names = self._record(stmt)
            node = stmt.target
            while isinstance(node, (ast.Index, ast.PartSelect)):
                if isinstance(node, ast.Index):
                    self._expr(node.index)
                else:
                    self._expr(node.msb)
                    self._expr(node.lsb)
                node = node.base
            self._expr(node, read=False)
            self._expr(stmt.value)
            return set(names)
        if isinstance(stmt, ast.If):
            self._expr(stmt.cond)
            complete = self._stmt(stmt.then_stmt)
            if stmt.else_stmt is None:
                return set()
            return complete & self._stmt(stmt.else_stmt)
        if isinstance(stmt, ast.Case):
            self.cases.append(stmt)
            self._expr(stmt.subject)
            branches = []
            for item in stmt.items:
                for label in item.labels:
                    self._expr(label)
                branches.append(self._stmt(item.body))
            if not any(item.is_default for item in stmt.items):
                return set()
            return set.intersection(*branches)
        if isinstance(stmt, ast.For):
            for assign in (stmt.init, stmt.step):
                name = _lhs_base_name(assign.target)
                if name:
                    self.loop_vars.add(name)
            self._stmt(stmt.init)
            self._expr(stmt.cond)
            self._stmt(stmt.step)
            return self._stmt(stmt.body)
        if isinstance(stmt, ast.While):
            self._expr(stmt.cond)
            self._stmt(stmt.body)
        elif isinstance(stmt, ast.SystemTaskCall):
            for arg in stmt.args:
                self._expr(arg)
        return set()


@dataclass
class RuleContext:
    """What a rule sees: one module's facts plus the file for
    cross-module checks."""

    module: ast.Module
    source_file: ast.SourceFile

    def __post_init__(self):
        self.declared = {}
        self.memories = set()
        self.params = set()
        self.param_decls = {}
        self.processes = []
        self.instances = []
        for item in self.module.items:
            if isinstance(item, ast.NetDecl):
                for name in item.names:
                    entry = self.declared.setdefault(
                        name, {"kind": None, "direction": None, "decl": item}
                    )
                    if item.kind:
                        entry["kind"] = item.kind
                    if item.direction:
                        entry["direction"] = item.direction
                    if item.array is not None:
                        self.memories.add(name)
            elif isinstance(item, ast.ParamDecl):
                self.params.add(item.name)
                self.param_decls[item.name] = item
            elif isinstance(item, (ast.Always, ast.Initial,
                                   ast.ContinuousAssign)):
                self.processes.append(_ProcessFacts(item))
            elif isinstance(item, ast.Instance):
                self.instances.append(item)
        self.always = [
            p for p in self.processes if isinstance(p.item, ast.Always)
        ]
        self.widths = self._declared_widths()

    def _declared_widths(self):
        """Name -> declared width, where the declaration fixes one."""
        widths = {}
        for name, entry in self.declared.items():
            decl = entry["decl"]
            if decl.range is None:
                widths[name] = 1
            else:
                msb = _const_value(decl.range.msb)
                lsb = _const_value(decl.range.lsb)
                if msb is not None and lsb is not None:
                    widths[name] = abs(msb - lsb) + 1
            if entry["kind"] == "integer":
                widths[name] = 32
        # Sized parameters participate in width checking (a 2-bit state
        # encoding assigned to a 1-bit reg is a truncation).
        for name, decl in self.param_decls.items():
            if isinstance(decl.value, ast.Number) and decl.value.width:
                widths[name] = decl.value.width
        return widths

    def kind_of(self, name):
        entry = self.declared.get(name)
        if entry is None:
            return None
        return entry["kind"] or "wire"

    def is_declared(self, name):
        return name in self.declared or name in self.params


def _diagnostic(severity, code, message, location, hint=""):
    from repro.lint.linter import Diagnostic

    return Diagnostic(severity, code, message, location, hint)


def _lhs_base_name(target):
    """The root identifier written by an assignment target, if simple."""
    node = target
    while isinstance(node, (ast.Index, ast.PartSelect)):
        node = node.base
    if isinstance(node, ast.Identifier):
        return node.name
    return None


def _lhs_base_names(target):
    """All root identifiers written (handles concat targets)."""
    if isinstance(target, ast.Concat):
        names = []
        for part in target.parts:
            names.extend(_lhs_base_names(part))
        return names
    name = _lhs_base_name(target)
    return [name] if name else []


class Rule:
    """Base class; subclasses define ``code`` and ``check``."""

    code = ""

    def check(self, context):
        raise NotImplementedError


class UndeclaredRule(Rule):
    """Identifiers used without declaration.

    Writing an undeclared name procedurally is an error (Verilog requires
    a variable); reading one merely creates an implicit 1-bit wire, which
    Verilator flags as IMPLICIT.
    """

    code = "IMPLICIT"

    def check(self, context):
        for block in context.always:
            for assign, names in block.assigns:
                for name in names:
                    if not context.is_declared(name):
                        yield _diagnostic(
                            "error", "UNDECLARED",
                            f"procedural assignment to undeclared "
                            f"variable '{name}'",
                            assign.location,
                        )
        uses = [
            (name, location) for process in context.processes
            for name, location in process.identifiers
            if not context.is_declared(name)
        ]
        reported = set()
        for name, location in sorted(
            uses, key=lambda u: (u[1].line, u[1].column, u[0])
        ):
            if name not in reported:
                reported.add(name)
                yield _diagnostic(
                    "warning", "IMPLICIT",
                    f"signal '{name}' is used but never declared "
                    f"(implicit 1-bit wire)",
                    location,
                )


class ProceduralWireRule(Rule):
    """Procedural assignment to a wire is illegal."""

    code = "PROCASSWIRE"

    def check(self, context):
        for block in context.always:
            for assign, names in block.assigns:
                for name in names:
                    if context.kind_of(name) == "wire" and \
                            name not in context.memories:
                        yield _diagnostic(
                            "error", "PROCASSWIRE",
                            f"procedural assignment to wire '{name}' "
                            f"(declare it as reg)",
                            assign.location,
                        )


class ContinuousRegRule(Rule):
    """Continuous assignment to a reg is illegal."""

    code = "CONTASSREG"

    def check(self, context):
        for process in context.processes:
            if not isinstance(process.item, ast.ContinuousAssign):
                continue
            for assign, names in process.assigns:
                for name in names:
                    if context.kind_of(name) in ("reg", "integer"):
                        yield _diagnostic(
                            "error", "CONTASSREG",
                            f"continuous assignment to reg '{name}' "
                            f"(use a wire or assign inside always)",
                            assign.location,
                        )


class CombDelayRule(Rule):
    """Non-blocking assignment inside combinational logic (COMBDLY).

    This is the flagship "timing-related warning" the paper's script
    templates fix by rewriting ``<=`` to ``=``.
    """

    code = "COMBDLY"

    def check(self, context):
        for block in context.always:
            if block.item.sensitivity.is_clocked:
                continue
            for assign, _ in block.assigns:
                if not assign.blocking:
                    yield _diagnostic(
                        "warning", "COMBDLY",
                        "non-blocking assignment in combinational block "
                        "(use '=')",
                        assign.location,
                        hint="replace '<=' with '='",
                    )


class BlockingSeqRule(Rule):
    """Blocking assignment inside clocked logic (BLKSEQ)."""

    code = "BLKSEQ"

    def check(self, context):
        for block in context.always:
            if not block.item.sensitivity.is_clocked:
                continue
            for assign, _ in block.assigns:
                name = _lhs_base_name(assign.target)
                if name in block.loop_vars or \
                        context.kind_of(name) == "integer":
                    continue
                if assign.blocking:
                    yield _diagnostic(
                        "warning", "BLKSEQ",
                        "blocking assignment in sequential block "
                        "(use '<=')",
                        assign.location,
                        hint="replace '=' with '<='",
                    )


class SensitivityRule(Rule):
    """Level-sensitive always block with an incomplete sensitivity list."""

    code = "SENSMISS"

    def check(self, context):
        for block in context.always:
            control = block.item.sensitivity
            if control.star or control.is_clocked:
                continue
            missing = sorted(
                (block.reads - block.listed - block.written - context.params)
                & set(context.declared)
            )
            if missing:
                yield _diagnostic(
                    "warning", "SENSMISS",
                    f"sensitivity list is missing signal(s): "
                    f"{', '.join(missing)}",
                    block.item.location,
                    hint="use always @(*)",
                )


class SyncAsyncRule(Rule):
    """Clocked block with a reset-style conditional whose reset signal
    is missing from the sensitivity list (Verilator SYNCASYNCNET).

    Pattern: ``always @(posedge clk)`` whose body starts with
    ``if (!sig) <only constant assignments>`` — the design intends an
    asynchronous reset but the edge is missing.  The scripted template
    repairs it by adding ``or negedge sig``.
    """

    code = "SYNCASYNC"

    def check(self, context):
        for block in context.always:
            item = block.item
            if not item.sensitivity.is_clocked:
                continue
            body = item.body
            if isinstance(body, ast.Block) and body.statements:
                body = body.statements[0]
            if not isinstance(body, ast.If):
                continue
            cond = body.cond
            if not (isinstance(cond, ast.Unary) and cond.op == "!" and
                    isinstance(cond.operand, ast.Identifier)):
                continue
            reset_name = cond.operand.name
            if reset_name in block.listed:
                continue
            if not self._constant_branch(body.then_stmt, context):
                continue
            yield _diagnostic(
                "warning", "SYNCASYNC",
                f"reset signal '{reset_name}' is tested asynchronously "
                f"but missing from the sensitivity list",
                item.location,
                hint=f"add 'or negedge {reset_name}'",
            )

    def _constant_branch(self, stmt, context):
        """All assignments write literal constants or parameters."""
        assigns = [n for n in stmt.walk() if isinstance(n, ast.Assign)]
        if not assigns:
            return False
        return all(
            isinstance(a.value, ast.Number)
            or (isinstance(a.value, ast.Identifier)
                and a.value.name in context.params)
            for a in assigns
        )


class WidthRule(Rule):
    """Assignment width mismatches (WIDTHTRUNC / WIDTHEXPAND)."""

    code = "WIDTH"

    def check(self, context):
        widths = context.widths

        def expr_width(expr):
            if isinstance(expr, ast.Number):
                return expr.width  # None for unsized
            if isinstance(expr, ast.Identifier):
                return widths.get(expr.name)
            if isinstance(expr, ast.Concat):
                parts = [expr_width(p) for p in expr.parts]
                if any(p is None for p in parts):
                    return None
                return sum(parts)
            if isinstance(expr, ast.Index):
                base = expr.base
                if isinstance(base, ast.Identifier) and \
                        base.name in context.memories:
                    return widths.get(base.name)
                return 1
            if isinstance(expr, ast.PartSelect) and expr.mode == ":":
                msb = _const_value(expr.msb)
                lsb = _const_value(expr.lsb)
                if msb is None or lsb is None:
                    return None
                return abs(msb - lsb) + 1
            return None  # operators: context-determined, skip

        for process in context.processes:
            if isinstance(process.item, ast.Initial):
                continue
            for assign, _ in process.assigns:
                target_width = expr_width(assign.target)
                value_width = expr_width(assign.value)
                if target_width is None or value_width is None:
                    continue
                if value_width > target_width:
                    yield _diagnostic(
                        "warning", "WIDTHTRUNC",
                        f"assignment truncates {value_width} bits to "
                        f"{target_width}",
                        assign.location,
                    )
                elif value_width < target_width and not isinstance(
                    assign.value, ast.Number
                ):
                    yield _diagnostic(
                        "warning", "WIDTHEXPAND",
                        f"assignment expands {value_width} bits to "
                        f"{target_width}",
                        assign.location,
                    )


class LatchRule(Rule):
    """Combinational block where a signal is not assigned on all paths."""

    code = "LATCH"

    def check(self, context):
        for block in context.always:
            if block.item.sensitivity.is_clocked:
                continue
            for name in sorted(block.written - block.complete):
                if context.kind_of(name) in ("reg", None):
                    yield _diagnostic(
                        "warning", "LATCH",
                        f"'{name}' is not assigned on all paths of a "
                        f"combinational block (latch inferred)",
                        block.item.location,
                    )


class MultiDrivenRule(Rule):
    """A signal driven from more than one always block / assign."""

    code = "MULTIDRIVEN"

    def check(self, context):
        drivers = {}
        for process in context.processes:
            if isinstance(process.item, ast.Initial):
                continue
            for name in process.written:
                drivers.setdefault(name, []).append(process.item)
        for name, items in sorted(drivers.items()):
            if len(items) > 1 and name not in context.memories:
                yield _diagnostic(
                    "warning", "MULTIDRIVEN",
                    f"signal '{name}' has {len(items)} drivers",
                    items[1].location,
                )


class CaseIncompleteRule(Rule):
    """Case statement without default that doesn't cover all values."""

    code = "CASEINCOMPLETE"

    def check(self, context):
        for block in context.always:
            for node in block.cases:
                if any(ci.is_default for ci in node.items):
                    continue
                label_count = sum(len(ci.labels) for ci in node.items)
                subject_width = None
                if isinstance(node.subject, ast.Identifier):
                    subject_width = context.widths.get(node.subject.name)
                if subject_width is None or label_count < (1 << subject_width):
                    yield _diagnostic(
                        "warning", "CASEINCOMPLETE",
                        "case statement has no default and does not cover "
                        "all values",
                        node.location,
                    )


class UnusedRule(Rule):
    """Declared but never read signals (excluding outputs)."""

    code = "UNUSED"

    def check(self, context):
        read = set()
        written = set()
        for process in context.processes:
            if isinstance(process.item, ast.Initial):
                read.update(name for name, _ in process.identifiers)
            else:
                read |= process.reads | process.listed
            written |= process.written
        for item in context.instances:
            for conn in item.connections:
                if conn.expr is not None:
                    for node in conn.expr.walk():
                        if isinstance(node, ast.Identifier):
                            read.add(node.name)
                            written.add(node.name)
        outputs = {
            name for name, entry in context.declared.items()
            if entry["direction"] in ("output", "inout")
        }
        for name, entry in sorted(context.declared.items()):
            if entry["direction"] == "input":
                if name not in read:
                    yield _diagnostic(
                        "warning", "UNUSEDSIGNAL",
                        f"input '{name}' is never used",
                        entry["decl"].location,
                    )
            elif name not in outputs and name not in read and \
                    name in written:
                yield _diagnostic(
                    "warning", "UNUSEDSIGNAL",
                    f"signal '{name}' is written but never read",
                    entry["decl"].location,
                )


class UndrivenRule(Rule):
    """Outputs that are never assigned."""

    code = "UNDRIVEN"

    def check(self, context):
        written = set()
        for process in context.processes:
            written |= process.written
        for item in context.instances:
            for conn in item.connections:
                if conn.expr is not None:
                    written.update(_lhs_base_names(conn.expr))
        for name, entry in sorted(context.declared.items()):
            if entry["direction"] == "output" and name not in written:
                yield _diagnostic(
                    "warning", "UNDRIVEN",
                    f"output '{name}' is never driven",
                    entry["decl"].location,
                )


class PortConnectRule(Rule):
    """Instance connections must match the instantiated module's ports."""

    code = "PORTCONNECT"

    def check(self, context):
        for item in context.instances:
            target = context.source_file.find_module(item.module_name)
            if target is None:
                yield _diagnostic(
                    "error", "MODNOTFOUND",
                    f"module '{item.module_name}' is not defined",
                    item.location,
                )
                continue
            port_names = set(target.port_names())
            seen = set()
            for conn in item.connections:
                if not conn.name:
                    continue
                if conn.name not in port_names:
                    yield _diagnostic(
                        "error", "PORTCONNECT",
                        f"module '{item.module_name}' has no port "
                        f"'{conn.name}'",
                        conn.location,
                    )
                elif conn.name in seen:
                    yield _diagnostic(
                        "error", "PORTCONNECT",
                        f"port '{conn.name}' connected twice",
                        conn.location,
                    )
                seen.add(conn.name)
            positional = [c for c in item.connections if not c.name]
            if positional and len(item.connections) != len(target.ports):
                yield _diagnostic(
                    "error", "PORTCONNECT",
                    f"instance '{item.name}' has "
                    f"{len(item.connections)} connections but "
                    f"'{item.module_name}' has {len(target.ports)} ports",
                    item.location,
                )


def _const_value(expr):
    """Fold a simple constant expression; None if not constant."""
    if isinstance(expr, ast.Number):
        return expr.value
    if isinstance(expr, ast.Binary):
        left = _const_value(expr.left)
        right = _const_value(expr.right)
        if left is None or right is None:
            return None
        try:
            return {
                "+": left + right, "-": left - right, "*": left * right,
                "/": left // right if right else None,
            }.get(expr.op)
        except TypeError:
            return None
    return None


ALL_RULES = [
    UndeclaredRule(),
    ProceduralWireRule(),
    ContinuousRegRule(),
    CombDelayRule(),
    BlockingSeqRule(),
    SensitivityRule(),
    SyncAsyncRule(),
    WidthRule(),
    LatchRule(),
    MultiDrivenRule(),
    CaseIncompleteRule(),
    UnusedRule(),
    UndrivenRule(),
    PortConnectRule(),
]
