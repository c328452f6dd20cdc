"""Design elaboration: AST -> flat signals, memories, and processes.

Parameters are resolved per instance, packed ranges are folded to
constants, hierarchy is flattened (child signals get dotted names), and
port connections become connection processes so the event engine treats
them like any other combinational driver.
"""

from repro.hdl import ast
from repro.hdl.errors import HdlElaborationError
from repro.sim.eval import Memory, const_eval
from repro.sim.values import Value


class Signal:
    """A scalar or vector net/variable in the elaborated design."""

    __slots__ = (
        "name", "width", "signed", "kind", "value", "comb_listeners",
        "edge_listeners", "traced",
    )

    def __init__(self, name, width=1, signed=False, kind="wire"):
        self.name = name
        self.width = width
        self.signed = signed
        self.kind = kind
        self.value = Value.all_x(width)
        self.comb_listeners = []
        self.edge_listeners = []  # (edge, process)
        self.traced = True

    def __repr__(self):
        return f"Signal({self.name}[{self.width}])"


class Scope:
    """Per-instance name environment; implements the Evaluator resolver."""

    def __init__(self, path, design):
        self.path = path  # "" for top, "u_sub" / "u_sub.u_leaf" below
        self.design = design
        self.signals = {}
        self.memories = {}
        self.params = {}
        self.time = 0

    def full_name(self, name):
        return f"{self.path}.{name}" if self.path else name

    def lookup(self, name):
        if name in self.signals:
            return self.signals[name]
        if name in self.memories:
            return self.memories[name]
        if name in self.params:
            return self.params[name]
        return None

    # Assignment targets resolve where reads do (cf. _BindScope).
    lookup_target = lookup

    def declare_implicit(self, name):
        """Create an implicit 1-bit wire (Verilog default-nettype wire)."""
        signal = Signal(self.full_name(name), width=1, kind="wire")
        self.signals[name] = signal
        self.design.register_signal(signal)
        self.design.elab_warnings.append(
            f"implicit 1-bit wire for undeclared identifier '{name}'"
        )
        return signal

    # -- Evaluator resolver interface ---------------------------------------

    def read(self, name):
        entry = self.lookup(name)
        if entry is None:
            entry = self.declare_implicit(name)
        if isinstance(entry, Signal):
            return entry.value
        if isinstance(entry, Value):
            return entry
        raise HdlElaborationError(f"'{name}' is a memory, not a value")

    def read_memory(self, name):
        return self.memories.get(name)

    def width_of(self, name):
        entry = self.lookup(name)
        if entry is None:
            entry = self.declare_implicit(name)
        if isinstance(entry, (Signal, Value)):
            return entry.width
        return entry.width  # Memory word width

    def signed_of(self, name):
        entry = self.lookup(name)
        if isinstance(entry, (Signal, Value)):
            return entry.signed
        return False


class Process:
    """A unit of executable behaviour.

    ``kind`` is ``comb`` (continuous assigns, ``always @(*)``/level),
    ``seq`` (edge-triggered always), or ``initial``.  ``body`` is a list
    of statements executed in ``scope``.
    """

    __slots__ = ("kind", "body", "scope", "sensitivity", "location", "name")

    def __init__(self, kind, body, scope, location=None, name=""):
        self.kind = kind
        self.body = body
        self.scope = scope
        self.sensitivity = []  # for seq: (edge, Signal)
        self.location = location
        self.name = name

    def __repr__(self):
        return f"Process({self.kind}, {self.name or self.location})"


class Design:
    """A fully elaborated, flattened design."""

    def __init__(self, top_name):
        self.top_name = top_name
        self.signals = {}
        self.memories = {}
        self.processes = []
        self.ports = {}  # top-level: name -> (direction, Signal)
        self.elab_warnings = []
        self.top_scope = None

    def register_signal(self, signal):
        self.signals[signal.name] = signal

    def register_memory(self, memory):
        self.memories[memory.name] = memory

    def port_names(self, direction=None):
        return [
            name for name, (d, _) in self.ports.items()
            if direction is None or d == direction
        ]


def _scope_descriptor(scope):
    """Stable description of a process scope for fingerprinting.

    Captures the instance path(s) and every resolved parameter value —
    the inputs the codegen constant-folder reads — so two elaborations
    may share a compiled kernel only when the generated code would be
    identical."""
    def params_of(plain_scope):
        return sorted(
            (name, value.bits, value.width, value.xmask, bool(value.signed))
            for name, value in plain_scope.params.items()
        )

    if isinstance(scope, _BindScope):
        return (
            "bind",
            scope.write_scope.path, params_of(scope.write_scope),
            scope.read_scope.path, params_of(scope.read_scope),
        )
    return ("scope", scope.path, params_of(scope))


def design_fingerprint(design):
    """Content hash of everything that shapes compiled code.

    Two designs with equal fingerprints elaborate to structurally and
    behaviourally identical simulations: same signals (name, width,
    signedness, kind), same memory shapes, same ports, and the same
    process list — kind, scope path, resolved parameters, sensitivity
    and the full statement AST (``repr`` of plain dataclasses, so any
    body difference changes the hash).  Used as the compiled-kernel
    cache key (:mod:`repro.sim.compile.cache`)."""
    import hashlib

    digest = hashlib.sha256()

    def feed(part):
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x00")

    feed(design.top_name)
    feed(sorted(
        (s.name, s.width, bool(s.signed), s.kind)
        for s in design.signals.values()
    ))
    feed(sorted(
        (m.name, m.width, m.lo, m.hi, bool(m.signed))
        for m in design.memories.values()
    ))
    feed(sorted(
        (name, direction, signal.name)
        for name, (direction, signal) in design.ports.items()
    ))
    for process in design.processes:
        feed(process.kind)
        feed(_scope_descriptor(process.scope))
        feed([(edge, signal.name) for edge, signal in process.sensitivity])
        feed(process.body)
    return digest.hexdigest()


def _range_width(rng, params):
    """Width of a packed range under parameter bindings."""
    if rng is None:
        return 1
    msb = const_eval(rng.msb, params).to_int()
    lsb = const_eval(rng.lsb, params).to_int()
    return abs(msb - lsb) + 1


def _range_bounds(rng, params):
    msb = const_eval(rng.msb, params).to_int()
    lsb = const_eval(rng.lsb, params).to_int()
    return msb, lsb


def _collect_identifiers(node):
    """All identifier names appearing anywhere under ``node``."""
    names = set()
    for sub in node.walk():
        if isinstance(sub, ast.Identifier):
            names.add(sub.name)
    return names


class _ModuleElaborator:
    """Elaborates one module instance into the shared design."""

    def __init__(self, design, source_file, module, scope, param_overrides):
        self.design = design
        self.source_file = source_file
        self.module = module
        self.scope = scope
        self.param_overrides = param_overrides or {}

    def run(self):
        self._resolve_parameters()
        self._declare_nets()
        self._build_processes()

    # -- parameters -----------------------------------------------------------

    def _resolve_parameters(self):
        for item in self.module.items:
            if not isinstance(item, ast.ParamDecl):
                continue
            if not item.local and item.name in self.param_overrides:
                value = self.param_overrides[item.name]
            else:
                value = const_eval(item.value, self.scope.params)
            if item.range is not None:
                width = _range_width(item.range, self.scope.params)
                value = value.resize(width)
            self.scope.params[item.name] = value

    # -- declarations ----------------------------------------------------------

    def _declare_nets(self):
        # First pass: merge declarations by name (direction decl + reg decl).
        merged = {}
        order = []
        for item in self.module.items:
            if not isinstance(item, ast.NetDecl):
                continue
            for name in item.names:
                if name not in merged:
                    merged[name] = {
                        "kind": None, "direction": None, "range": None,
                        "array": None, "signed": False, "init": None,
                    }
                    order.append(name)
                entry = merged[name]
                if item.kind:
                    entry["kind"] = item.kind
                if item.direction:
                    entry["direction"] = item.direction
                if item.range is not None:
                    entry["range"] = item.range
                if item.array is not None:
                    entry["array"] = item.array
                if item.signed:
                    entry["signed"] = True
                if item.init is not None:
                    entry["init"] = item.init

        for name in order:
            entry = merged[name]
            if entry["array"] is not None:
                width = _range_width(entry["range"], self.scope.params)
                lo, hi = _range_bounds(entry["array"], self.scope.params)
                memory = Memory(
                    self.scope.full_name(name), width,
                    min(lo, hi), max(lo, hi), entry["signed"],
                )
                self.scope.memories[name] = memory
                self.design.register_memory(memory)
                continue
            kind = entry["kind"] or "wire"
            if kind == "integer":
                width, signed = 32, True
            else:
                width = _range_width(entry["range"], self.scope.params)
                signed = entry["signed"]
            signal = Signal(self.scope.full_name(name), width, signed, kind)
            self.scope.signals[name] = signal
            self.design.register_signal(signal)
            if entry["init"] is not None:
                init_stmt = ast.Assign(
                    target=ast.Identifier(name=name),
                    value=entry["init"],
                    blocking=True,
                )
                self.design.processes.append(
                    Process("initial", [init_stmt], self.scope)
                )

        # Top-level port map.
        if self.scope.path == "":
            for port_name, decl in self.module.port_decls():
                signal = self.scope.signals.get(port_name)
                if signal is not None:
                    self.design.ports[port_name] = (decl.direction, signal)

    # -- processes ---------------------------------------------------------------

    def _declare_identifiers(self, *nodes):
        """Implicit-wire every undeclared identifier under ``nodes``.

        Declaration must happen at elaboration time, not lazily at
        first execution: the codegen backend resolves every name when
        it compiles a process body, so a lazily-declared implicit
        wire would exist from t=0 on the compiled backend but only
        from its first read on the interpreter — skewing the seeded
        trace key set (and with it toggle coverage) between backends.
        """
        names = set()
        for node in nodes:
            if node is not None:
                names |= _collect_identifiers(node)
        for name in sorted(names):
            if self.scope.lookup(name) is None:
                self.scope.declare_implicit(name)

    def _build_processes(self):
        for item in self.module.items:
            if isinstance(item, (ast.ContinuousAssign, ast.Initial)):
                self._declare_identifiers(
                    getattr(item, "target", None),
                    getattr(item, "value", None),
                    getattr(item, "body", None),
                )
            elif isinstance(item, ast.Always):
                self._declare_identifiers(item.body)
            elif isinstance(item, ast.Instance):
                self._declare_identifiers(
                    *[conn.expr for conn in item.connections]
                )
        for item in self.module.items:
            if isinstance(item, ast.ContinuousAssign):
                stmt = ast.Assign(
                    target=item.target, value=item.value, blocking=True,
                    location=item.location,
                )
                process = Process(
                    "comb", [stmt], self.scope, item.location,
                    name=f"assign@{item.location.line}",
                )
                self.design.processes.append(process)
                self._attach_comb_sensitivity(process, item.value, item.target)
            elif isinstance(item, ast.Always):
                self._build_always(item)
            elif isinstance(item, ast.Initial):
                self.design.processes.append(
                    Process("initial", [item.body], self.scope, item.location)
                )
            elif isinstance(item, ast.Instance):
                self._build_instance(item)

    def _attach_comb_sensitivity(self, process, *nodes):
        names = set()
        for node in nodes:
            if node is not None:
                names |= _collect_identifiers(node)
        for name in sorted(names):
            entry = self.scope.lookup(name)
            if entry is None:
                entry = self.scope.declare_implicit(name)
            if isinstance(entry, Signal):
                entry.comb_listeners.append(process)
            # Memory reads: the engine re-triggers these on any write to
            # the memory (asynchronous-read RAM behaviour).
            elif isinstance(entry, Memory):
                entry.comb_listeners.append(process)

    def _build_always(self, item):
        control = item.sensitivity
        if control.star or not control.is_clocked:
            process = Process(
                "comb", [item.body], self.scope, item.location,
                name=f"always@{item.location.line}",
            )
            self.design.processes.append(process)
            if control.star:
                self._attach_comb_sensitivity(process, item.body)
            else:
                for _, expr in control.events:
                    self._attach_comb_sensitivity(process, expr)
                # A level-sensitive list may be incomplete — that is a
                # *bug we must faithfully simulate* (wrong-sensitivity
                # mutations rely on it), so only listed signals trigger.
            return
        process = Process(
            "seq", [item.body], self.scope, item.location,
            name=f"always@{item.location.line}",
        )
        self.design.processes.append(process)
        for edge, expr in control.events:
            if not isinstance(expr, ast.Identifier):
                raise HdlElaborationError(
                    "edge expression must be a simple signal", item.location
                )
            entry = self.scope.lookup(expr.name)
            if entry is None:
                entry = self.scope.declare_implicit(expr.name)
            if isinstance(entry, Signal):
                if edge == "level":
                    # Mixed list like @(posedge clk or rst): treat the
                    # level entry as an any-change trigger.
                    entry.edge_listeners.append(("anyedge", process))
                    process.sensitivity.append(("anyedge", entry))
                else:
                    entry.edge_listeners.append((edge, process))
                    process.sensitivity.append((edge, entry))

    def _build_instance(self, item):
        child_module = self.source_file.find_module(item.module_name)
        if child_module is None:
            raise HdlElaborationError(
                f"unknown module '{item.module_name}'", item.location
            )
        child_path = self.scope.full_name(item.name)
        child_scope = Scope(child_path, self.design)

        overrides = {}
        if item.param_overrides:
            param_names = [
                it.name for it in child_module.items
                if isinstance(it, ast.ParamDecl) and not it.local
            ]
            for position, conn in enumerate(item.param_overrides):
                value = const_eval(conn.expr, self.scope.params)
                if conn.name:
                    overrides[conn.name] = value
                elif position < len(param_names):
                    overrides[param_names[position]] = value

        _ModuleElaborator(
            self.design, self.source_file, child_module, child_scope, overrides
        ).run()

        # Bind ports.
        port_order = child_module.port_names()
        directions = {}
        for port_name, decl in child_module.port_decls():
            directions[port_name] = decl.direction

        bindings = []
        for position, conn in enumerate(item.connections):
            if conn.name:
                port_name = conn.name
            elif position < len(port_order):
                port_name = port_order[position]
            else:
                raise HdlElaborationError(
                    f"too many connections on instance '{item.name}'",
                    item.location,
                )
            if port_name not in port_order:
                raise HdlElaborationError(
                    f"module '{item.module_name}' has no port '{port_name}'",
                    conn.location,
                )
            bindings.append((port_name, conn.expr))

        for port_name, expr in bindings:
            if expr is None:
                continue  # unconnected port
            direction = directions.get(port_name, "input")
            inner_ref = ast.Identifier(name=port_name)
            if direction == "input":
                stmt = ast.Assign(target=inner_ref, value=expr, blocking=True)
                process = Process(
                    "comb", [stmt], _BindScope(child_scope, self.scope),
                    item.location, name=f"bind_in:{child_path}.{port_name}",
                )
                self.design.processes.append(process)
                self._attach_comb_sensitivity(process, expr)
            else:
                stmt = ast.Assign(target=expr, value=inner_ref, blocking=True)
                process = Process(
                    "comb", [stmt], _BindScope(self.scope, child_scope),
                    item.location, name=f"bind_out:{child_path}.{port_name}",
                )
                self.design.processes.append(process)
                # Sensitive to the inner port signal.
                entry = child_scope.lookup(port_name)
                if entry is None:
                    entry = child_scope.declare_implicit(port_name)
                if isinstance(entry, Signal):
                    entry.comb_listeners.append(process)


class _BindScope:
    """A two-sided scope for port-binding processes.

    Assignment targets (``lookup_target``, ``declare_implicit``)
    resolve in ``write_scope``; everything read resolves in
    ``read_scope``.
    """

    def __init__(self, write_scope, read_scope):
        self.write_scope = write_scope
        self.read_scope = read_scope
        self.design = write_scope.design

    def lookup(self, name):
        return self.read_scope.lookup(name)

    def lookup_target(self, name):
        return self.write_scope.lookup(name)

    def declare_implicit(self, name):
        return self.write_scope.declare_implicit(name)

    def read(self, name):
        return self.read_scope.read(name)

    def read_memory(self, name):
        return self.read_scope.read_memory(name)

    def width_of(self, name):
        return self.read_scope.width_of(name)

    def signed_of(self, name):
        return self.read_scope.signed_of(name)


def elaborate(source_file, top=None, params=None):
    """Elaborate ``source_file`` (AST or Verilog text) into a Design.

    ``top`` selects the root module (defaults to the last module in the
    file, matching common single-file benchmark layout).  ``params`` maps
    top-level parameter names to integer overrides.
    """
    from repro.obs import trace

    if isinstance(source_file, str):
        from repro.hdl.parser import parse_source

        source_file = parse_source(source_file)
    if isinstance(source_file, ast.Module):
        wrapper = ast.SourceFile(modules=[source_file])
        source_file = wrapper

    if top is None:
        module = source_file.modules[-1]
    else:
        module = source_file.find_module(top)
        if module is None:
            raise HdlElaborationError(f"top module '{top}' not found")

    with trace.span("elaborate", cat="hdl", module=module.name):
        return _elaborate_module(source_file, module, params)


def _elaborate_module(source_file, module, params):
    design = Design(module.name)
    scope = Scope("", design)
    design.top_scope = scope
    overrides = {}
    for name, value in (params or {}).items():
        overrides[name] = (
            value if isinstance(value, Value) else Value(int(value), 32)
        )
    _ModuleElaborator(design, source_file, module, scope, overrides).run()
    return design
