"""Abstract syntax tree for the supported Verilog subset.

Every node carries a :class:`~repro.hdl.errors.SourceLocation` so the
localization engine can map data-flow facts back to source lines, and so
repair agents can quote exact line numbers in their prompts.

Nodes are plain dataclasses.  :meth:`Node.children` yields nested nodes
generically, and :meth:`Node.walk` builds on it; the lint rules, the
elaborator, the levelizer, the DFG builder and code coverage traverse
trees with them.
"""

from dataclasses import dataclass, field, fields
from typing import List, Optional, Tuple

from repro.hdl.errors import SourceLocation


#: Node class -> its dataclass field names, in declaration order.
_FIELD_NAMES = {}


@dataclass
class Node:
    """Base class for all AST nodes."""

    def children(self):
        """Yield all child :class:`Node` instances (recursing into lists)."""
        names = _FIELD_NAMES.get(type(self))
        if names is None:
            names = _FIELD_NAMES[type(self)] = tuple(
                f.name for f in fields(self))
        for name in names:
            value = getattr(self, name)
            if isinstance(value, Node):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Node):
                        yield item
                    elif isinstance(item, (list, tuple)):
                        for sub in item:
                            if isinstance(sub, Node):
                                yield sub

    def walk(self):
        """Yield this node and every descendant, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

@dataclass
class Expr(Node):
    """Base class for expression nodes."""


@dataclass
class Number(Expr):
    """A literal.  ``xmask`` marks bits whose value is x/z (4-state)."""

    value: int
    width: Optional[int] = None
    xmask: int = 0
    signed: bool = False
    text: str = ""
    location: SourceLocation = field(default_factory=SourceLocation)

    def __str__(self):
        return self.text or str(self.value)


@dataclass
class Identifier(Expr):
    """A reference to a net, variable, parameter, or genvar."""

    name: str
    location: SourceLocation = field(default_factory=SourceLocation)

    def __str__(self):
        return self.name


@dataclass
class Unary(Expr):
    """Unary operator: ``~ ! - + & | ^ ~& ~| ~^``."""

    op: str
    operand: Expr
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class Binary(Expr):
    """Binary operator expression."""

    op: str
    left: Expr
    right: Expr
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class Ternary(Expr):
    """Conditional operator ``cond ? then : otherwise``."""

    cond: Expr
    then: Expr
    otherwise: Expr
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class Concat(Expr):
    """Concatenation ``{a, b, c}``."""

    parts: List[Expr] = field(default_factory=list)
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class Repeat(Expr):
    """Replication ``{n{expr}}``."""

    count: Expr = None
    value: Expr = None
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class Index(Expr):
    """Bit- or word-select ``base[index]``."""

    base: Expr = None
    index: Expr = None
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class PartSelect(Expr):
    """Part select ``base[msb:lsb]`` / indexed ``base[i +: w]``."""

    base: Expr = None
    msb: Expr = None
    lsb: Expr = None
    mode: str = ":"  # ":", "+:", "-:"
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class FunctionCall(Expr):
    """System or user function call, e.g. ``$signed(a)``."""

    name: str = ""
    args: List[Expr] = field(default_factory=list)
    location: SourceLocation = field(default_factory=SourceLocation)


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------

@dataclass
class Stmt(Node):
    """Base class for statement nodes."""


@dataclass
class Block(Stmt):
    """A ``begin ... end`` block, possibly named."""

    statements: List[Stmt] = field(default_factory=list)
    name: Optional[str] = None
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class Assign(Stmt):
    """A procedural assignment; ``blocking`` selects ``=`` vs ``<=``."""

    target: Expr = None
    value: Expr = None
    blocking: bool = True
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class If(Stmt):
    """``if (cond) then_stmt [else else_stmt]``."""

    cond: Expr = None
    then_stmt: Stmt = None
    else_stmt: Optional[Stmt] = None
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class CaseItem(Node):
    """One arm of a case statement; ``labels`` empty means ``default``."""

    labels: List[Expr] = field(default_factory=list)
    body: Stmt = None
    location: SourceLocation = field(default_factory=SourceLocation)

    @property
    def is_default(self):
        return not self.labels


@dataclass
class Case(Stmt):
    """``case``/``casez``/``casex`` statement."""

    kind: str = "case"
    subject: Expr = None
    items: List[CaseItem] = field(default_factory=list)
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class For(Stmt):
    """``for (init; cond; step) body`` — interpreted, not unrolled."""

    init: Assign = None
    cond: Expr = None
    step: Assign = None
    body: Stmt = None
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class While(Stmt):
    """``while (cond) body``."""

    cond: Expr = None
    body: Stmt = None
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class NullStmt(Stmt):
    """An empty statement (bare ``;``)."""

    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class SystemTaskCall(Stmt):
    """A system task statement such as ``$display(...)`` — a no-op in sim."""

    name: str = ""
    args: List[Expr] = field(default_factory=list)
    location: SourceLocation = field(default_factory=SourceLocation)


# --------------------------------------------------------------------------
# Module items
# --------------------------------------------------------------------------

@dataclass
class Range(Node):
    """A packed range ``[msb:lsb]``; bounds are constant expressions."""

    msb: Expr = None
    lsb: Expr = None
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class ModuleItem(Node):
    """Base class for items appearing in a module body."""


@dataclass
class NetDecl(ModuleItem):
    """Declaration of wires/regs/integers.

    ``direction`` is ``input``/``output``/``inout`` or ``None`` for
    internal nets.  ``kind`` is ``wire``/``reg``/``integer`` (or ``None``
    for a bare port declaration, which defaults to wire).  ``array`` is
    the unpacked dimension for memories.
    """

    names: List[str] = field(default_factory=list)
    kind: Optional[str] = None
    direction: Optional[str] = None
    range: Optional[Range] = None
    array: Optional[Range] = None
    signed: bool = False
    init: Optional[Expr] = None
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class ParamDecl(ModuleItem):
    """``parameter``/``localparam`` declaration."""

    name: str = ""
    value: Expr = None
    local: bool = False
    range: Optional[Range] = None
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class ContinuousAssign(ModuleItem):
    """``assign lhs = rhs;``."""

    target: Expr = None
    value: Expr = None
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class EventControl(Node):
    """Sensitivity specification of an ``always`` block.

    ``star`` means ``@(*)``; otherwise ``events`` is a list of
    ``(edge, expr)`` pairs where edge is ``posedge``/``negedge``/``level``.
    """

    star: bool = False
    events: List[Tuple[str, Expr]] = field(default_factory=list)
    location: SourceLocation = field(default_factory=SourceLocation)

    def children(self):
        for _, expr in self.events:
            yield expr

    @property
    def is_clocked(self):
        return any(edge in ("posedge", "negedge") for edge, _ in self.events)


@dataclass
class Always(ModuleItem):
    """``always @(...) body``."""

    sensitivity: EventControl = None
    body: Stmt = None
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class Initial(ModuleItem):
    """``initial body`` — executed once at time zero."""

    body: Stmt = None
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class PortConnection(Node):
    """One connection in an instantiation; ``name`` empty = positional."""

    name: str = ""
    expr: Optional[Expr] = None
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class Instance(ModuleItem):
    """A module instantiation."""

    module_name: str = ""
    name: str = ""
    connections: List[PortConnection] = field(default_factory=list)
    param_overrides: List[PortConnection] = field(default_factory=list)
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class Port(Node):
    """An entry in the module header port list."""

    name: str = ""
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class Module(Node):
    """A Verilog module definition."""

    name: str = ""
    ports: List[Port] = field(default_factory=list)
    items: List[ModuleItem] = field(default_factory=list)
    location: SourceLocation = field(default_factory=SourceLocation)

    def port_names(self):
        return [port.name for port in self.ports]

    def find_decl(self, name):
        """Return the :class:`NetDecl` declaring ``name``, if any."""
        for item in self.items:
            if isinstance(item, NetDecl) and name in item.names:
                return item
        return None

    def port_decls(self):
        """Yield ``(name, decl)`` for every declared port, in port order."""
        for port in self.ports:
            decl = self.find_decl(port.name)
            if decl is not None and decl.direction:
                yield port.name, decl


@dataclass
class SourceFile(Node):
    """A parsed source file: one or more modules."""

    modules: List[Module] = field(default_factory=list)
    location: SourceLocation = field(default_factory=SourceLocation)

    def find_module(self, name):
        for module in self.modules:
            if module.name == name:
                return module
        return None
