"""Whole-design kernel fusion: one generated settle()/tick() per design.

Verilator-style, the levelized combinational processes are *inlined,
in topological order, into one generated ``_settle`` function*, and
the sequential processes become sibling functions fused with a
specialized NBA commit loop.  Each body is lowered by
:class:`~repro.sim.compile.codegen.ProcessCompiler`; this module
assembles the bodies, the per-signal committers, the pokes and the
ticks into one module.

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
- **specialized NBA commit** — non-blocking whole-signal assignments
  append cheap ``(signal, value)`` tuples instead of allocating
  ``functools.partial`` objects; the generated commit loop
  fast-paths them (callables from demoted interpreter processes
  still work);
- **generated tick()** — one function per clocked signal fusing the
  edge commit (static posedge/negedge/anyedge listener sets), the
  settle sweep, and the statically-decided falling-edge settle
  elision.

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
(see :mod:`repro.sim.compile.cache`).
"""

from repro.sim.compile.codegen import NotCompilable, ProcessCompiler
from repro.sim.compile.levelize import sensitivity_complete, write_set
from repro.sim.elaborate import Signal
from repro.sim.eval import Memory
from repro.sim.values import Value


class KernelCompiler:
    """Generates the fused-kernel module source for one design.

    The output of :meth:`build` is a self-contained Python module
    defining ``bind(design)``; binding a (fresh elaboration of the
    same) design returns the kernel entry points.  See the module
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
        self._commit_fns = {}    # id(Signal) -> committer fn name
        self._mem_commit_fns = {}  # id(Memory) -> committer fn name
        self.commit_defs = []    # rendered per-signal/memory committers
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

    # -- commit / trace emission ---------------------------------------------

    def _emit_trace(self, pc, name, value_ref, time_ref="_t"):
        """Canonical value-change trace append, mirroring
        ``Simulator._write_signal`` exactly (same-time collapse and
        no-change glitch drop included)."""
        h = pc.tmp()
        pc.emit(f"{h} = _tr.get({name!r})")
        pc.emit(f"if {h} is None:")
        pc.indent += 1
        pc.emit(f"{h} = _tr[{name!r}] = []")
        pc.indent -= 1
        pc.emit(f"if {h} and {h}[-1][0] == {time_ref}:")
        pc.indent += 1
        pc.emit(f"if len({h}) > 1 and {h}[-2][1] == {value_ref}:")
        pc.indent += 1
        pc.emit(f"{h}.pop()")
        pc.indent -= 1
        pc.emit("else:")
        pc.indent += 1
        pc.emit(f"{h}[-1] = ({time_ref}, {value_ref})")
        pc.indent -= 1
        pc.indent -= 1
        pc.emit("else:")
        pc.indent += 1
        pc.emit(f"{h}.append(({time_ref}, {value_ref}))")
        pc.indent -= 1

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
            self._emit_trace(pc, signal.name, local)
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
        ticks = self._render_ticks()
        pokes = self._render_pokes()

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
        out.append("")
        for commit_lines in self.commit_defs:
            out.extend("    " + line for line in commit_lines)
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
        for tick_lines in ticks.values():
            out.extend("    " + line for line in tick_lines)
            out.append("")
        for poke_lines in pokes.values():
            out.extend("    " + line for line in poke_lines)
            out.append("")
        tick_map = ", ".join(
            f"{name!r}: _tick_{i}" for i, name in enumerate(ticks)
        )
        poke_map = ", ".join(
            f"{name!r}: _poke_{i}" for i, name in enumerate(pokes)
        )
        out.append("    return {")
        out.append("        'settle': _settle,")
        out.append(f"        'ticks': {{{tick_map}}},")
        out.append(f"        'pokes': {{{poke_map}}},")
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
        if self.trace:
            emit(1, "_tr = sim.trace")
            emit(1, "_t = sim.time")
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
        emit(3, "if sim._clocked:")
        emit(4, "_cl = sim._clocked")
        emit(4, "sim._clocked = []")
        emit(4, "sim._clocked_set.clear()")
        emit(4, "for _p in _cl:")
        emit(5, "_f = _fid.get(id(_p))")
        emit(5, "if _f is not None:")
        emit(6, "_f(sim)")
        emit(5, "else:")
        emit(6, "sim._run_process(_p)")
        emit(3, "if 1 not in d and sim._nba:")
        emit(4, "_u = sim._nba")
        emit(4, "sim._nba = []")
        emit(4, "for _e in _u:")
        emit(5, "if type(_e) is tuple:")
        emit(6, "_e[0](sim, _e[1])")
        emit(5, "else:")
        emit(6, "_e()")
        emit(3, "if 1 not in d and not sim._clocked and not sim._nba:")
        emit(4, "return")
        emit(1, "finally:")
        if self.any_running:
            emit(2, "sim._running = None")
        emit(2, "sim.event_count += ec")
        return lines

    # -- per-signal write committers -----------------------------------------

    def commit_fn_for(self, signal):
        """Name of the generated per-signal committer ``_nc{i}(sim, v)``.

        Seq/initial whole-signal stores (blocking and NBA) route
        through it: the engine's generic write — listener walk,
        scheduler call, per-listener level lookup — collapses to a
        change check plus statically-known dirty marks and edge scans.
        Never used from comb bodies (their self-wake suppression needs
        ``sim._running``, which this path skips by construction).
        """
        name = self._commit_fns.get(id(signal))
        if name is None:
            name = f"_nc{len(self._commit_fns)}"
            self._commit_fns[id(signal)] = name
            self.commit_defs.append(self._render_commit_fn(name, signal))
        return name

    def _render_commit_fn(self, name, signal):
        lines = []

        def emit(indent, text):
            lines.append("    " * indent + text)

        slot = self.bind_object(signal)
        width = signal.width
        signed = bool(signal.signed)
        emit(0, f"def {name}(sim, _v):")
        emit(1, f"if _v.width != {width} or _v.signed != {signed}:")
        emit(2, f"_v = _v.resize({width}, {signed})")
        emit(1, f"_old = {slot}.value")
        emit(1, "if _old.bits == _v.bits and _old.xmask == _v.xmask:")
        emit(2, "return")
        self._emit_store_tail(lines, slot, signal)
        return lines

    def _emit_store_tail(self, lines, slot, signal):
        """The changed-value tail that committers and pokes share,
        mirroring ``_write_signal`` for the new value ``_v`` replacing
        ``_old``: slot store, event count, trace append, static comb
        wake-ups, then the edge scan in listener-list order."""

        def emit(indent, text):
            lines.append("    " * indent + text)

        emit(1, f"{slot}.value = _v")
        emit(1, "sim.event_count += 1")
        if self.trace:
            emit(1, "_tr = sim.trace")
            emit(1, "_t = sim.time")
            self._emit_trace(_TickEmitter(lines, 1), signal.name, "_v")
        for level in sorted({
            self.level_of[id(p)] for p in signal.comb_listeners
        }):
            emit(1, f"sim._dirty[{level}] = 1")
        if signal.edge_listeners:
            emit(1, "_ob = None if _old.xmask & 1 else _old.bits & 1")
            emit(1, "_nb = None if _v.xmask & 1 else _v.bits & 1")
            emit(1, "_cs = sim._clocked_set")
            for edge, process in signal.edge_listeners:
                pname = self.bind_process(process)
                if edge == "posedge":
                    emit(1, "if _nb == 1 and _ob != 1:")
                elif edge == "negedge":
                    emit(1, "if _nb == 0 and _ob != 0:")
                else:
                    emit(1, "if True:")
                emit(2, f"if id({pname}) not in _cs:")
                emit(3, f"_cs.add(id({pname}))")
                emit(3, f"sim._clocked.append({pname})")

    def mem_commit_fn_for(self, memory):
        """Name of the generated memory committer ``_nm{i}(sim, (i, v))``.

        Replaces the ``functools.partial(_MW, ...)`` allocation per
        seq memory write with a tuple append, and the listener walk
        with static dirty marks.  Like the signal committers, never
        used from comb bodies (self-wake suppression)."""
        name = self._mem_commit_fns.get(id(memory))
        if name is None:
            name = f"_nm{len(self._mem_commit_fns)}"
            self._mem_commit_fns[id(memory)] = name
            self.commit_defs.append(
                self._render_mem_commit_fn(name, memory)
            )
        return name

    def _render_mem_commit_fn(self, name, memory):
        lines = []

        def emit(indent, text):
            lines.append("    " * indent + text)

        slot = self.bind_object(memory)
        lo, hi, width = memory.lo, memory.hi, memory.width
        offset = f" - {lo}" if lo else ""
        emit(0, f"def {name}(sim, _a):")
        emit(1, "_i = _a[0]")
        emit(1, f"if _i is not None and {lo} <= _i <= {hi}:")
        emit(2, "_v = _a[1]")
        emit(2, f"if _v.width != {width}:")
        emit(3, f"_v = _v.resize({width})")
        emit(2, f"{slot}.words[_i{offset}] = _v")
        # _notify_memory_write counts and wakes unconditionally, even
        # for out-of-range writes — mirror that exactly.
        emit(1, "sim.event_count += 1")
        for level in sorted({
            self.level_of[id(p)] for p in memory.comb_listeners
        }):
            emit(1, f"sim._dirty[{level}] = 1")
        return lines

    # -- poke ----------------------------------------------------------------

    def _render_pokes(self):
        """One fused ``poke`` per top-level port signal.

        The generic path pays a signal lookup, an int-wrap memo, and a
        fully generic ``_write_signal`` per drive; the fused one is a
        per-signal closure with a private int->Value memo, the change
        check inlined, and statically-known listener marks — the
        testbench driver's hot path."""
        pokes = {}
        for name, (_direction, signal) in self.design.ports.items():
            if signal.name != name:
                continue  # defensive: only top-level flat names
            pokes[name] = self._render_poke(len(pokes), signal)
        return pokes

    def _render_poke(self, index, signal):
        lines = []

        def emit(indent, text):
            lines.append("    " * indent + text)

        slot = self.bind_object(signal)
        width = signal.width
        signed = bool(signal.signed)
        emit(0, f"_pc{index} = {{}}")
        emit(0, f"def _poke_{index}(sim, value):")
        emit(1, f"_old = {slot}.value")
        emit(1, "if type(value) is int:")
        emit(2, f"_v = _pc{index}.get(value)")
        emit(2, "if _v is None:")
        emit(3, f"_v = _pc{index}[value] = "
                f"Value(value, {width}, 0, {signed})")
        emit(2, "if _old.bits == _v.bits and _old.xmask == _v.xmask:")
        emit(3, "return")
        emit(1, "else:")
        emit(2, f"_v = value")
        emit(2, f"if _v.width != {width} or _v.signed != {signed}:")
        emit(3, f"_v = _v.resize({width}, {signed})")
        emit(2, "if _old.bits == _v.bits and _old.xmask == _v.xmask:")
        emit(3, "return")
        self._emit_store_tail(lines, slot, signal)
        return lines

    # -- tick ----------------------------------------------------------------

    def _render_ticks(self):
        """One fused ``tick`` per signal with edge listeners."""
        ticks = {}
        for name, signal in self.design.signals.items():
            if not signal.edge_listeners:
                continue
            if any(id(p) not in self.proc_index
                   for _, p in signal.edge_listeners):
                continue  # defensive: unknown listener process
            ticks[name] = self._render_tick(len(ticks), signal)
        return ticks

    def _render_tick(self, index, signal):
        lines = []

        def emit(indent, text):
            lines.append("    " * indent + text)

        one = self.bind_const(
            Value(1, signal.width, 0, bool(signal.signed))
        )
        zero = self.bind_const(
            Value(0, signal.width, 0, bool(signal.signed))
        )
        slot = self.bind_object(signal)
        comb_levels = sorted({
            self.level_of[id(p)] for p in signal.comb_listeners
        })
        wake_on_fall = bool(signal.comb_listeners) or any(
            edge != "posedge" for edge, _ in signal.edge_listeners
        )

        def commit(value_name, new_bit):
            # Mirrors _write_signal for this one statically-known
            # drive: change check, slot store, trace, comb wake-ups,
            # then the edge scan — in listener-list order, exactly the
            # order the engine's scan appends in.
            emit(2, f"_old = {slot}.value")
            if new_bit:
                emit(2, "if _old.bits != 1 or _old.xmask:")
            else:
                emit(2, "if _old.bits or _old.xmask:")
            emit(3, f"{slot}.value = {value_name}")
            emit(3, "sim.event_count += 1")
            if self.trace:
                pc = _TickEmitter(lines, 3)
                pc.emit("_t = sim.time")
                self._emit_trace(pc, signal.name, value_name)
            for level in comb_levels:
                emit(3, f"d[{level}] = 1")
            emit(3, "_ob = None if _old.xmask & 1 else _old.bits & 1")
            for edge, process in signal.edge_listeners:
                fires_at = {"posedge": 1, "negedge": 0}.get(edge)
                if fires_at is not None and fires_at != new_bit:
                    continue  # this edge cannot fire on this drive
                pname = self.bind_process(process)
                indent = 3
                if fires_at is not None:
                    emit(3, f"if _ob != {new_bit}:")
                    indent = 4
                emit(indent, f"if id({pname}) not in _cs:")
                emit(indent + 1, f"_cs.add(id({pname}))")
                emit(indent + 1, f"sim._clocked.append({pname})")

        emit(0, f"def _tick_{index}(sim, cycles, half_period):")
        emit(1, "_cs = sim._clocked_set")
        if comb_levels:
            emit(1, "d = sim._dirty")
        if self.trace:
            emit(1, "_tr = sim.trace")
        emit(1, "for _ in range(cycles):")
        commit(one, 1)
        emit(2, "_settle(sim)")
        emit(2, "sim.time += half_period")
        commit(zero, 0)
        if wake_on_fall:
            emit(2, "_settle(sim)")
        emit(2, "sim.time += half_period")
        return lines


class _TickEmitter:
    """Minimal emit/indent adapter so :meth:`KernelCompiler._emit_trace`
    can write into a tick function's line buffer."""

    def __init__(self, lines, indent):
        self.lines = lines
        self.indent = indent
        self.counter = 0

    def emit(self, text):
        self.lines.append("    " * self.indent + text)

    def tmp(self):
        self.counter += 1
        return f"_tk{self.counter}"


def build_kernel_source(design, order, trace=True, coverage=None,
                        key="", codegen_version=0):
    """Generate the fused-kernel module source for ``design``."""
    compiler = KernelCompiler(design, order, trace=trace,
                              coverage=coverage)
    return compiler.build(key=key, codegen_version=codegen_version)
