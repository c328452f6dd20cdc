"""Whole-design kernel fusion: one generated settle() per design.

Verilator-style, the levelized combinational processes are *inlined,
in topological order, into one generated ``_settle`` function*, and
the sequential processes become sibling functions.  Each body is
lowered by :class:`~repro.sim.compile.codegen.ProcessCompiler`; this
module assembles the bodies into one module.  Generated source holds
only what differs between designs — module constants, the
``bind(design)`` prologue, ``_settle`` and the seq/initial bodies.
The design-independent parts (pokes, ticks, committers, the trace
append and ``_settle``'s clocked and NBA regions) are ordinary Python
in :mod:`repro.sim.compile.runtime`, which ``bind()`` specializes with
one factory call per port, clocked signal and committer.

What the fused kernel specializes:

- **signal slots hoisted to locals** — within a comb wave every signal
  read/written by inlined processes lives in a local variable, loaded
  once per wave instead of one attribute read per access;
- **dead stores / unread intermediate writebacks eliminated** — a comb
  body's blocking stores rebind the local; the signal slot, the trace
  and the dirty marks are committed *once* per activation with the
  final value.  This is observably identical to the interpreter
  because (a) the canonical trace already collapses same-time
  glitches, and (b) elision is only applied to signals whose comb
  listeners are all *sensitivity-complete* and that have no edge
  listeners — the two cases where an intermediate glitch is
  observable (incomplete ``always @(a or b)`` lists are bugs the
  engine must faithfully simulate; see
  :func:`repro.sim.compile.levelize.sensitivity_complete`);
- **static wake-up** — a committed store marks its statically known
  listener levels directly in the dirty bytearray: no listener-list
  walk, no scheduler call;
- **leaf instance flattening** — elaboration already flattens
  hierarchy into one process list, so pure-comb leaf instances and
  their port binds inline into the parent kernel like any other comb
  process;
- **specialized NBA commit** — non-blocking whole-signal and memory
  assignments append cheap ``(committer, value)`` tuples instead of
  allocating ``functools.partial`` objects; the NBA region
  fast-paths them (callables from demoted interpreter processes
  still work);
- **bound tick()** — one per clocked signal, fusing the edge commit
  (static posedge/negedge/anyedge listener sets), the settle sweep,
  and the statically-decided falling-edge settle elision.

Faithfulness: processes the codegen must demote (runtime-width
selects, whatever else raises :class:`NotCompilable`) stay on the
interpreter, called from *inside* the fused kernel at their
topological level.  Designs that cannot be levelized at all (comb
cycles, unresolvable write targets) get no kernel: they run entirely
on the interpreter's event-driven scheduler (see
:mod:`repro.sim.compile.engine`).  Settled values, x-propagation and
traces stay bit-identical to the interpreter — enforced by xcheck,
the fuzz oracle and ``ci_smoke.py``.  ``event_count`` remains
scheduler-dependent, as documented.

The generated module is **instance-independent**: signals, memories,
scopes and processes are rebound by name/index in a ``bind(design)``
prologue, and constants are materialized at module level — so one
generated source is compiled and ``exec``'d once per design per
worker process and shared by every simulator instance of that design
(see :mod:`repro.sim.compile.cache`); each ``bind()`` builds that
instance's runtime closures.
"""

from repro.sim.compile.codegen import NotCompilable, ProcessCompiler
from repro.sim.compile.levelize import sensitivity_complete, write_set
from repro.sim.elaborate import Signal
from repro.sim.eval import Memory


class KernelCompiler:
    """Generates the fused-kernel module source for one design.

    The output of :meth:`build` is a Python module defining
    ``bind(design)``; binding a (fresh elaboration of the same) design
    returns the kernel entry points.  See the module
    docstring for the structure and the faithfulness argument.
    """

    def __init__(self, design, order, trace=True, coverage=None):
        self.design = design
        self.order = list(order)
        self.trace = bool(trace)
        self.cov = coverage
        self.proc_index = {id(p): i for i, p in enumerate(design.processes)}
        self.level_of = {id(p): i for i, p in enumerate(self.order)}
        self.module_lines = []   # K/D constants, built once per exec
        self.bind_lines = []     # S/M/P/scope rebinding per instance
        self._bound = {}         # id(obj) -> emitted name (obj kept alive
        #                          by the design, so ids are stable)
        self._consts = {}        # (bits, width, xmask, signed) -> K name
        self._counts = {}        # prefix -> running count
        self._hoisted = {}       # id(Signal) -> (local, slot name)
        self._complete = {}      # id(process) -> sensitivity_complete
        self._defer = {}         # id(Signal) -> bool
        self.uses = set()        # helpers _settle itself needs
        self.fn_names = {}       # process index -> generated fn name
        self.fn_defs = []        # rendered seq/initial function blocks
        self._commit_fns = {}    # id(Signal | Memory) -> committer name
        self.commit_lines = []   # committer factory calls, in bind()
        self.demoted = {}        # process index -> reason
        self.compiled = []       # process indices compiled into kernel
        self.any_running = False

    # -- naming / binding ----------------------------------------------------

    def _name(self, prefix):
        n = self._counts.get(prefix, 0)
        self._counts[prefix] = n + 1
        return f"{prefix}{n}"

    def bind_object(self, obj):
        name = self._bound.get(id(obj))
        if name is not None:
            return name
        if isinstance(obj, Signal):
            name = self._name("S")
            self.bind_lines.append(f"{name} = _signals[{obj.name!r}]")
        elif isinstance(obj, Memory):
            name = self._name("M")
            self.bind_lines.append(f"{name} = _memories[{obj.name!r}]")
        else:
            raise NotCompilable(
                f"cannot rebind {type(obj).__name__} in a fused kernel"
            )
        self._bound[id(obj)] = name
        return name

    def bind_process(self, process):
        name = self._bound.get(id(process))
        if name is None:
            name = self._name("P")
            self._bound[id(process)] = name
            self.bind_lines.append(
                f"{name} = _procs[{self.proc_index[id(process)]}]"
            )
        return name

    def bind_scope(self, process):
        scope = process.scope
        name = self._bound.get(id(scope))
        if name is None:
            name = self._name("_sc")
            self._bound[id(scope)] = name
            self.bind_lines.append(
                f"{name} = _procs[{self.proc_index[id(process)]}].scope"
            )
        return name

    def bind_const(self, value):
        # Keyed by content, not identity: codegen constants are often
        # transient objects (id() reuse would alias them), and content
        # keying deduplicates equal literals across processes.
        key = (value.bits, value.width, value.xmask, value.signed)
        name = self._consts.get(key)
        if name is None:
            name = self._name("K")
            self._consts[key] = name
            self.module_lines.append(
                f"{name} = Value({value.bits!r}, {value.width!r}, "
                f"{value.xmask!r}, {value.signed!r})"
            )
        return name

    def bind_dispatch(self, dispatch):
        name = self._name("D")
        items = ", ".join(
            f"({bits!r}, {xmask!r}): {arm!r}"
            for (bits, xmask), arm in sorted(dispatch.items())
        )
        self.module_lines.append(f"{name} = {{{items}}}")
        return name

    def local_for(self, signal):
        entry = self._hoisted.get(id(signal))
        if entry is None:
            local = f"v{len(self._hoisted)}"
            entry = self._hoisted[id(signal)] = (
                local, self.bind_object(signal)
            )
        return entry[0]

    # -- store-elision policy ------------------------------------------------

    def _listener_complete(self, process):
        flag = self._complete.get(id(process))
        if flag is None:
            flag = self._complete[id(process)] = \
                sensitivity_complete(process)
        return flag

    def defer_ok(self, signal):
        """May stores to ``signal`` collapse to one commit per comb
        activation?  Only when no observer could tell: no edge
        listeners (a same-delta glitch fires edges on the reference
        engine) and every comb listener is sensitivity-complete (an
        incomplete listener is woken by glitches it cannot otherwise
        see)."""
        flag = self._defer.get(id(signal))
        if flag is None:
            flag = (
                not signal.edge_listeners
                and all(self._listener_complete(p)
                        for p in signal.comb_listeners)
            )
            self._defer[id(signal)] = flag
        return flag

    # -- comb commit ---------------------------------------------------------

    def _emit_commit(self, pc, process, signal, local):
        slot = self.bind_object(signal)
        old = pc.tmp()
        pc.emit(f"{old} = {slot}.value")
        pc.emit(f"if {local}.bits != {old}.bits or "
                f"{local}.xmask != {old}.xmask:")
        pc.indent += 1
        pc.emit(f"{slot}.value = {local}")
        pc.emit("ec += 1")
        if self.trace:
            pc.emit(f"_ta(_tr, {signal.name!r}, _t, {local})")
            pc.uses.add("_ta")
        levels = sorted({
            self.level_of[id(listener)]
            for listener in signal.comb_listeners
            if listener is not process
        })
        for level in levels:
            pc.emit(f"d[{level}] = 1")
        pc.indent -= 1

    # -- per-process compilation ---------------------------------------------

    def _compile_comb(self, process):
        pc = ProcessCompiler(self, process, "comb")
        pc.compile_body()
        for signal, local in pc.deferred.values():
            self._emit_commit(pc, process, signal, local)
        self.uses |= pc.uses
        if pc.needs_running:
            self.any_running = True
        return pc.lines, pc.needs_running

    def _compile_fn(self, process):
        pc = ProcessCompiler(self, process, "fn")
        body = pc.compile_body()
        index = self.proc_index[id(process)]
        name = f"_fn{index}"
        preamble = []
        if "_nba" in pc.uses:
            preamble.append("_nba = sim._nba")
        for helper, attr in (("_W", "_write_signal"),
                             ("_SB", "_store_bit"),
                             ("_SS", "_store_slice"),
                             ("_MW", "_mem_write")):
            if helper in pc.uses:
                preamble.append(f"{helper} = sim.{attr}")
        if "_cov" in pc.uses:
            preamble.append("_cov = sim.code_coverage")
            preamble.append("_CS = _cov.hit_stmt")
            preamble.append("_CB = _cov.hit_branch")
        lines = [f"def {name}(sim):  # {process.kind} "
                 f"{process.name or index}"]
        lines.extend("    " + text for text in preamble)
        lines.extend(body)
        if not preamble and not body:
            lines.append("    pass")
        self.fn_defs.append(lines)
        self.fn_names[index] = name
        return name

    # -- assembly ------------------------------------------------------------

    def build(self, key="", codegen_version=0):
        """Generate the kernel module source for this design."""
        blocks = []  # (process, lines-at-indent-1, needs_running) | demoted
        for process in self.order:
            try:
                lines, needs_running = self._compile_comb(process)
                blocks.append((process, lines, needs_running))
                self.compiled.append(self.proc_index[id(process)])
            except NotCompilable as exc:
                index = self.proc_index[id(process)]
                self.demoted[index] = str(exc)
                blocks.append((process, None, False))
        for process in self.design.processes:
            if process.kind == "comb":
                continue
            try:
                self._compile_fn(process)
                self.compiled.append(self.proc_index[id(process)])
            except NotCompilable as exc:
                self.demoted[self.proc_index[id(process)]] = str(exc)

        settle = self._render_settle(blocks)
        ticks = self._tick_calls()
        pokes = self._poke_calls()

        out = [
            '"""Generated fused simulation kernel '
            "(repro.sim.compile.kernel).",
            "",
            f"design {key or self.design.top_name}",
            f"codegen v{codegen_version} trace={self.trace} "
            f"coverage={self.cov is not None}",
            '"""',
            "from functools import partial as _pt",
            "",
            "from repro.sim.compile import runtime as _rt",
            "from repro.sim.engine import SimulationError, _MAX_DELTAS",
            "from repro.sim.values import Value",
            "",
        ]
        out.extend(self.module_lines)
        out.append("")
        out.append("")
        out.append("def bind(design):")
        out.append("    _signals = design.signals")
        out.append("    _memories = design.memories")
        out.append("    _procs = design.processes")
        out.extend("    " + line for line in self.bind_lines)
        out.extend("    " + line for line in self.commit_lines)
        out.append("")
        for fn_lines in self.fn_defs:
            out.extend("    " + line for line in fn_lines)
            out.append("")
        fid = ", ".join(
            f"id(_procs[{index}]): {name}"
            for index, name in sorted(self.fn_names.items())
        )
        out.append(f"    _fid = {{{fid}}}")
        out.append("")
        out.extend("    " + line for line in settle)
        out.append("")
        out.append("    return {")
        out.append("        'settle': _settle,")
        for kind, calls in (("ticks", ticks), ("pokes", pokes)):
            out.append(f"        {kind!r}: {{")
            out.extend(f"            {name!r}: {call},"
                       for name, call in calls.items())
            out.append("        },")
        out.append("        'fns': {" + ", ".join(
            f"{index}: {name}"
            for index, name in sorted(self.fn_names.items())
        ) + "},")
        out.append(f"        'order': {[self.proc_index[id(p)] for p in self.order]!r},")
        out.append(f"        'compiled': {sorted(self.compiled)!r},")
        out.append(f"        'demoted': {self.demoted!r},")
        out.append("    }")
        return "\n".join(out) + "\n"

    def _render_settle(self, blocks):
        lines = []

        def emit(indent, text):
            lines.append("    " * indent + text)

        emit(0, "def _settle(sim):")
        emit(1, "d = sim._dirty")
        emit(1, "if 1 not in d and not sim._clocked and not sim._nba:")
        emit(2, "return")
        for helper, attr in (("_W", "_write_signal"),
                             ("_SB", "_store_bit"),
                             ("_SS", "_store_slice"),
                             ("_MW", "_mem_write")):
            if helper in self.uses:
                emit(1, f"{helper} = sim.{attr}")
        if "_ta" in self.uses:
            emit(1, "_tr = sim.trace")
            emit(1, "_t = sim.time")
            emit(1, "_ta = _rt.trace_append")
        emit(1, "ec = 0")
        emit(1, "deltas = 0")
        emit(1, "try:")
        emit(2, "while True:")
        emit(3, "while 1 in d:")
        hoist = ["{0} = {1}.value".format(local, slot)
                 for local, slot in self._hoisted.values()]
        for line in hoist:
            emit(4, line)
        if not blocks and not hoist:
            emit(4, "pass")
        for process, body, needs_running in blocks:
            level = self.level_of[id(process)]
            emit(4, f"if d[{level}]:")
            emit(5, f"d[{level}] = 0")
            emit(5, "deltas += 1")
            emit(5, "if deltas > _MAX_DELTAS:")
            emit(6, "raise SimulationError('design did not settle "
                    "(combinational loop?)')")
            if body is None:
                # Demoted: interpreted at its level, then the hoisted
                # locals it may have written are refreshed.
                pname = self.bind_process(process)
                emit(5, f"sim._run_process({pname})")
                sets = write_set(process)
                for signal in (sets[0] if sets else ()):
                    entry = self._hoisted.get(id(signal))
                    if entry is not None:
                        emit(5, f"{entry[0]} = {entry[1]}.value")
            else:
                if needs_running:
                    emit(5, f"sim._running = "
                            f"{self.bind_process(process)}")
                for line in body:
                    emit(4, line)  # body lines carry one indent level
                if needs_running:
                    emit(5, "sim._running = None")
        emit(3, "if sim._clocked or sim._nba:")
        emit(4, "_rt.run_regions(sim, _fid)")
        emit(3, "if 1 not in d and not sim._clocked and not sim._nba:")
        emit(4, "return")
        emit(1, "finally:")
        if self.any_running:
            emit(2, "sim._running = None")
        emit(2, "sim.event_count += ec")
        return lines

    # -- runtime factory calls ---------------------------------------------

    def _levels(self, obj):
        """The sorted levels of ``obj``'s comb listeners, as a literal."""
        return repr(tuple(sorted({
            self.level_of[id(p)] for p in obj.comb_listeners
        })))

    def _edges(self, signal):
        """``signal``'s edge listeners in list order, as the runtime's
        ``((fires_at, process), ...)`` literal."""
        fires_at = {"posedge": "1", "negedge": "0", "anyedge": "None"}
        items = [f"({fires_at[edge]}, {self.bind_process(process)})"
                 for edge, process in signal.edge_listeners]
        return f"({', '.join(items)}{',' if len(items) == 1 else ''})"

    def _signal_args(self, signal):
        """A write's or tick's leading factory arguments: slot, width,
        signedness, listener levels, edges and the trace flag."""
        return (f"{self.bind_object(signal)}, {signal.width}, "
                f"{bool(signal.signed)}, {self._levels(signal)}, "
                f"{self._edges(signal)}, {self.trace}")

    def commit_fn_for(self, signal):
        """Name of the per-signal committer ``_nc{i}(sim, v)`` that
        seq/initial whole-signal stores (blocking and NBA) call: the
        engine's listener walk and scheduler call collapse to static
        dirty marks and edge scans (:func:`runtime.make_write`).
        Never used from comb bodies (their self-wake suppression needs
        ``sim._running``, which this path skips by construction)."""
        name = self._commit_fns.get(id(signal))
        if name is None:
            name = self._commit_fns[id(signal)] = self._name("_nc")
            self.commit_lines.append(
                f"{name} = _rt.make_write({self._signal_args(signal)})"
            )
        return name

    def mem_commit_fn_for(self, memory):
        """Name of the memory committer ``_nm{i}(sim, (i, v))``: a
        tuple append per seq memory write instead of a partial, and
        static dirty marks instead of the listener walk.  Like the
        signal committers, never used from comb bodies."""
        name = self._commit_fns.get(id(memory))
        if name is None:
            name = self._commit_fns[id(memory)] = self._name("_nm")
            self.commit_lines.append(
                f"{name} = _rt.make_mem_commit("
                f"{self.bind_object(memory)}, {memory.lo}, {memory.hi}, "
                f"{memory.width}, {self._levels(memory)})"
            )
        return name

    def _poke_calls(self):
        """One fused ``poke`` per top-level port signal: the testbench
        driver's hot path, with a private int -> Value memo.  A port a
        seq/initial body also stores shares that committer."""
        return {
            name: self._commit_fns.get(id(signal))
            or f"_rt.make_write({self._signal_args(signal)})"
            for name, (_direction, signal) in self.design.ports.items()
            if signal.name == name  # defensive: only top-level flat names
        }

    def _tick_calls(self):
        """One fused ``tick`` per signal with edge listeners."""
        return {
            name: f"_rt.make_tick({self._signal_args(signal)}, _settle)"
            for name, signal in self.design.signals.items()
            if signal.edge_listeners and all(
                id(p) in self.proc_index  # defensive: unknown listener
                for _, p in signal.edge_listeners)
        }


def build_kernel_source(design, order, trace=True, coverage=None,
                        key="", codegen_version=0):
    """Generate the fused-kernel module source for ``design``."""
    compiler = KernelCompiler(design, order, trace=trace,
                              coverage=coverage)
    return compiler.build(key=key, codegen_version=codegen_version)
