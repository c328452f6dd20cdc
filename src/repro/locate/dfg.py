"""Static data-flow graph construction from the module AST.

Each *definition site* (an assignment, continuous or procedural) becomes
an edge set: the defined signal depends on every signal read by the RHS,
by any index expressions on the LHS, and by every enclosing control
condition (control dependence).  Edges remember their source line and
the guard expressions that dominate them, which the dynamic slicer
re-evaluates against the waveform.
"""

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.hdl import ast


@dataclass
class DefSite:
    """One assignment defining ``target`` at ``line``."""

    target: str
    line: int
    reads: Tuple[str, ...]
    guards: Tuple[Tuple[object, bool], ...]  # (cond expr, required truth)
    kind: str  # "assign" | "seq" | "comb"

    @property
    def guard_lines(self):
        """Source lines of the dominating condition expressions."""
        lines = []
        for cond, _ in self.guards:
            location = getattr(cond, "location", None)
            if location is not None and location.line:
                lines.append(location.line)
        return tuple(dict.fromkeys(lines))


@dataclass
class DataFlowGraph:
    """Definition sites indexed by target signal."""

    module: ast.Module
    sites: List[DefSite] = field(default_factory=list)

    def defs_of(self, signal):
        return [site for site in self.sites if site.target == signal]

    def dependencies(self, signal):
        """All signals ``signal`` transitively depends on."""
        seen = set()
        frontier = [signal]
        while frontier:
            current = frontier.pop()
            for site in self.defs_of(current):
                for read in site.reads:
                    if read not in seen:
                        seen.add(read)
                        frontier.append(read)
        return seen


def _expr_reads(expr):
    if expr is None:
        return []
    return [
        node.name for node in expr.walk() if isinstance(node, ast.Identifier)
    ]


def _target_name(target):
    node = target
    while isinstance(node, (ast.Index, ast.PartSelect)):
        node = node.base
    if isinstance(node, ast.Identifier):
        return node.name
    return None


def _target_index_reads(target):
    reads = []
    node = target
    while isinstance(node, (ast.Index, ast.PartSelect)):
        if isinstance(node, ast.Index):
            reads.extend(_expr_reads(node.index))
        else:
            reads.extend(_expr_reads(node.msb))
            reads.extend(_expr_reads(node.lsb))
        node = node.base
    return reads


class _DfgBuilder:
    def __init__(self, module):
        self.module = module
        self.sites = []

    def build(self):
        for item in self.module.items:
            if isinstance(item, ast.ContinuousAssign):
                self._add_assign(
                    item.target, item.value, item.location.line, (), "assign"
                )
            elif isinstance(item, ast.Always):
                kind = "seq" if item.sensitivity.is_clocked else "comb"
                self._visit_stmt(item.body, (), kind)
            elif isinstance(item, ast.Instance):
                self._add_instance(item)
        return DataFlowGraph(self.module, self.sites)

    def _add_assign(self, target, value, line, guards, kind):
        targets = []
        if isinstance(target, ast.Concat):
            for part in target.parts:
                name = _target_name(part)
                if name:
                    targets.append((name, part))
        else:
            name = _target_name(target)
            if name:
                targets.append((name, target))
        reads = tuple(_expr_reads(value))
        for name, target_node in targets:
            index_reads = tuple(_target_index_reads(target_node))
            guard_reads = tuple(
                read for cond, _ in guards for read in _expr_reads(cond)
            )
            self.sites.append(
                DefSite(
                    target=name,
                    line=line,
                    reads=tuple(dict.fromkeys(
                        reads + index_reads + guard_reads
                    )),
                    guards=guards,
                    kind=kind,
                )
            )

    def _visit_stmt(self, stmt, guards, kind):
        if isinstance(stmt, ast.Block):
            for inner in stmt.statements:
                self._visit_stmt(inner, guards, kind)
        elif isinstance(stmt, ast.Assign):
            self._add_assign(
                stmt.target, stmt.value, stmt.location.line, guards, kind
            )
        elif isinstance(stmt, ast.If):
            self._visit_stmt(
                stmt.then_stmt, guards + ((stmt.cond, True),), kind
            )
            if stmt.else_stmt is not None:
                self._visit_stmt(
                    stmt.else_stmt, guards + ((stmt.cond, False),), kind
                )
        elif isinstance(stmt, ast.Case):
            for item in stmt.items:
                if item.is_default:
                    # Default arm: guard on the subject only (weak guard).
                    self._visit_stmt(
                        item.body, guards + ((stmt.subject, None),), kind
                    )
                else:
                    for label in item.labels:
                        cond = ast.Binary(
                            op="==", left=stmt.subject, right=label,
                            location=stmt.location,
                        )
                        self._visit_stmt(
                            item.body, guards + ((cond, True),), kind
                        )
        elif isinstance(stmt, ast.For):
            inner_guards = guards + ((stmt.cond, True),)
            self._visit_stmt(stmt.init, guards, kind)
            self._visit_stmt(stmt.body, inner_guards, kind)
            self._visit_stmt(stmt.step, inner_guards, kind)
        elif isinstance(stmt, ast.While):
            self._visit_stmt(stmt.body, guards + ((stmt.cond, True),), kind)

    def _add_instance(self, item):
        """Treat an instance as: every output conn depends on all inputs."""
        input_reads = []
        output_targets = []
        for conn in item.connections:
            if conn.expr is None:
                continue
            name = _target_name(conn.expr)
            # Without child module info here, classify by usage: a plain
            # identifier/select could be either; record both directions.
            reads = _expr_reads(conn.expr)
            input_reads.extend(reads)
            if name:
                output_targets.append(name)
        for target in output_targets:
            self.sites.append(
                DefSite(
                    target=target,
                    line=item.location.line,
                    reads=tuple(
                        r for r in dict.fromkeys(input_reads) if r != target
                    ),
                    guards=(),
                    kind="assign",
                )
            )


def build_dfg(module):
    """Build the :class:`DataFlowGraph` for a module AST."""
    return _DfgBuilder(module).build()
