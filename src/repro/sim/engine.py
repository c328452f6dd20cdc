"""Event-driven simulation engine with delta cycles and an NBA region.

Scheduling model (a faithful miniature of the IEEE 1364 stratified event
queue):

- *active*: combinational processes whose inputs changed;
- *clocked*: edge-triggered processes whose clock edge fired this delta;
- *NBA*: non-blocking assignment updates, applied once the active and
  clocked sets drain, which may wake further processes.

The engine also records a per-signal value-change *trace* — the waveform
the localization engine slices over — and counts events for the
deterministic execution-time model.
"""

from bisect import bisect_right
from operator import itemgetter

from repro.hdl import ast
from repro.sim.eval import Evaluator, EvalError, Memory
from repro.sim.elaborate import Design, Signal, elaborate
from repro.sim.values import Value

_MAX_DELTAS = 10000
_MAX_LOOP_ITERATIONS = 1 << 16


class SimulationError(Exception):
    """Raised on runaway delta cycles or unexecutable statements."""


class _BreakLoop(Exception):
    """Internal: loop guard exceeded."""


class Simulator:
    """Simulates an elaborated :class:`Design`.

    The testbench drives the DUT through :meth:`set` / :meth:`get` /
    :meth:`settle` / :meth:`tick`, exactly how the UVM driver and monitor
    interact with a commercial simulator through the pin interface.
    """

    def __init__(self, design, trace=True, code_coverage=False):
        if isinstance(design, str):
            design = elaborate(design)
        self.design = design
        # Subclasses may pre-attach a collector (the compiled backend
        # must instrument at codegen time, before this runs).
        if getattr(self, "code_coverage", None) is None:
            if code_coverage and not hasattr(code_coverage, "hit_stmt"):
                from repro.cover.code import CodeCoverage

                code_coverage = CodeCoverage(design)
            self.code_coverage = code_coverage or None
        self.time = 0
        self.trace_enabled = trace
        if not trace:
            # Opt-out must be cheap: swap in a write path with no
            # canonical-trace bookkeeping at all (no per-write flag
            # tests), instead of recording-and-discarding.
            self._write_signal = self._write_signal_untraced
        self.trace = {}
        self.event_count = 0
        self._active = []
        self._active_set = set()
        self._clocked = []
        self._clocked_set = set()
        self._nba = []
        self._running = None
        self._initialized = False
        # Hot-path memoization (immutable Values are safe to share):
        # clock-edge constants per tick()'d signal, and int -> Value
        # wrapping for repeated poke()/set() drives.
        self._tick_cache = {}
        self._poke_cache = {}
        try:
            self._run_initial()
        except SimulationError as exc:
            # The abort still leaves a partial value-change trace (the
            # t=0 seeding plus everything initial/comb execution wrote
            # before failing) — carry the half-constructed simulator on
            # the exception so callers can flush that waveform.
            exc.partial_simulator = self
            raise

    # -- public API ------------------------------------------------------------

    def set(self, name, value):
        """Drive a top-level input (or any hierarchical signal) and settle."""
        signal = self._find_signal(name)
        if isinstance(value, int):
            old = signal.value
            if not old.xmask and \
                    old.bits == value & ((1 << signal.width) - 1):
                # Re-driving the current value: _write_signal would
                # early-return; still settle anything already pending.
                self.settle()
                return
            value = self._wrap_int(value, signal.width)
        # _write_signal resizes to (width, signedness) itself; a
        # pre-resize here would be redundant work on the hot path.
        self._write_signal(signal, value)
        self.settle()

    def poke(self, name, value):
        """Drive a signal without settling (for simultaneous changes)."""
        signal = self._find_signal(name)
        if isinstance(value, int):
            old = signal.value
            if not old.xmask and \
                    old.bits == value & ((1 << signal.width) - 1):
                return  # no-op write: skip the Value construction
            value = self._wrap_int(value, signal.width)
        self._write_signal(signal, value)

    def _wrap_int(self, value, width):
        """Memoized int -> Value wrap for testbench drives."""
        key = (value, width)
        wrapped = self._poke_cache.get(key)
        if wrapped is None:
            wrapped = self._poke_cache[key] = Value(value, width)
        return wrapped

    def get(self, name):
        """Read a signal's current value."""
        return self._find_signal(name).value

    def get_int(self, name):
        """Read a signal as an unsigned int (x bits read as 0)."""
        return self._find_signal(name).value.to_int()

    def peek_memory(self, name, address):
        memory = self.design.memories.get(name)
        if memory is None:
            raise SimulationError(f"no memory named '{name}'")
        return memory.read(address)

    def settle(self):
        """Run delta cycles until the design is quiescent."""
        deltas = 0
        while self._active or self._clocked or self._nba:
            while self._active:
                deltas += 1
                if deltas > _MAX_DELTAS:
                    raise SimulationError(
                        "design did not settle (combinational loop?)"
                    )
                process = self._active.pop()
                self._active_set.discard(id(process))
                self._run_process(process)
            if self._clocked:
                clocked, self._clocked = self._clocked, []
                self._clocked_set.clear()
                for process in clocked:
                    self._run_process(process)
            if not self._active and self._nba:
                updates, self._nba = self._nba, []
                for apply_update in updates:
                    apply_update()

    def step_time(self, amount=1):
        """Advance simulation time (no evaluation; time is test-driven)."""
        self.time += amount

    def tick(self, clock="clk", cycles=1, half_period=5):
        """Toggle ``clock`` through full cycles (rise then fall)."""
        cached = self._tick_cache.get(clock)
        if cached is None:
            signal = self._find_signal(clock)
            # The falling edge can only wake negedge/anyedge listeners
            # or combinational readers of the clock (e.g. hierarchy
            # binds); with neither present the post-fall settle is a
            # guaranteed no-op, so write the 0 without settling.
            # Listener lists are fixed after elaboration+compilation,
            # so the decision and the edge values are cacheable.
            wake_on_fall = bool(signal.comb_listeners) or any(
                edge != "posedge" for edge, _ in signal.edge_listeners
            )
            cached = self._tick_cache[clock] = (
                signal, wake_on_fall,
                Value(1, signal.width), Value(0, signal.width),
            )
        signal, wake_on_fall, one, zero = cached
        for _ in range(cycles):
            self._write_signal(signal, one)
            self.settle()
            self.time += half_period
            self._write_signal(signal, zero)
            if wake_on_fall:
                self.settle()
            self.time += half_period

    def input_names(self):
        return self.design.port_names("input")

    def output_names(self):
        return self.design.port_names("output")

    def signal_width(self, name):
        return self._find_signal(name).width

    def trace_at(self, name, time):
        """Value of ``name`` at ``time`` according to the recorded trace.

        Histories are append-only and time-sorted, so the lookup is a
        binary search — localization slicing over long traces stays
        O(log n) per probe.
        """
        history = self.trace.get(name)
        if not history:
            return None
        index = bisect_right(history, time, key=itemgetter(0))
        if index == 0:
            return None
        return history[index - 1][1]

    # -- internals ----------------------------------------------------------------

    def _find_signal(self, name):
        signal = self.design.signals.get(name)
        if signal is None:
            raise SimulationError(f"no signal named '{name}'")
        return signal

    def _run_initial(self):
        if self._initialized:
            return
        self._initialized = True
        if self.trace_enabled:
            for name, signal in self.design.signals.items():
                self.trace[name] = [(0, signal.value)]
        for process in self.design.processes:
            if process.kind == "initial":
                self._run_process(process)
        # Evaluate all combinational logic once so wires get values.
        for process in self.design.processes:
            if process.kind == "comb":
                self._schedule_comb(process)
        self.settle()

    def _schedule_comb(self, process):
        # A process never re-triggers itself from its own writes: in real
        # event semantics, @(*) only observes changes while the process
        # is blocked at its event control.
        if process is self._running:
            return
        if id(process) not in self._active_set:
            self._active_set.add(id(process))
            self._active.append(process)

    def _write_signal(self, signal, value):
        if value.width != signal.width or value.signed != signal.signed:
            value = value.resize(signal.width, signal.signed)
        old = signal.value
        # Both sides are resized to the signal's width, so bits+xmask
        # equality is full structural equality (cheaper than __eq__).
        if old.bits == value.bits and old.xmask == value.xmask:
            return
        signal.value = value
        self.event_count += 1
        if self.trace_enabled and signal.traced:
            history = self.trace.get(signal.name)
            if history is None:
                history = self.trace[signal.name] = []
            if history and history[-1][0] == self.time:
                # Same-time writes collapse to the final value; if the
                # wave settles back to the previous entry's value the
                # whole entry is a no-change glitch — drop it so the
                # trace is a canonical value-change dump regardless of
                # how many delta cycles the scheduler took.
                if len(history) > 1 and history[-2][1] == value:
                    history.pop()
                else:
                    history[-1] = (self.time, value)
            else:
                history.append((self.time, value))
        for process in signal.comb_listeners:
            self._schedule_comb(process)
        if signal.edge_listeners:
            old_bit = None if (old.xmask & 1) else (old.bits & 1)
            new_bit = None if (value.xmask & 1) else (value.bits & 1)
            for edge, process in signal.edge_listeners:
                if (
                    (edge == "posedge" and new_bit == 1 and old_bit != 1)
                    or (edge == "negedge" and new_bit == 0
                        and old_bit != 0)
                    or edge == "anyedge"
                ):
                    # _schedule_clocked, inlined for the clock path.
                    if id(process) not in self._clocked_set:
                        self._clocked_set.add(id(process))
                        self._clocked.append(process)

    def _write_signal_untraced(self, signal, value):
        """``_write_signal`` minus all trace bookkeeping; installed as
        the instance's write path when ``trace=False``."""
        if value.width != signal.width or value.signed != signal.signed:
            value = value.resize(signal.width, signal.signed)
        old = signal.value
        if old.bits == value.bits and old.xmask == value.xmask:
            return
        signal.value = value
        self.event_count += 1
        for process in signal.comb_listeners:
            self._schedule_comb(process)
        if signal.edge_listeners:
            old_bit = None if (old.xmask & 1) else (old.bits & 1)
            new_bit = None if (value.xmask & 1) else (value.bits & 1)
            for edge, process in signal.edge_listeners:
                if (
                    (edge == "posedge" and new_bit == 1 and old_bit != 1)
                    or (edge == "negedge" and new_bit == 0
                        and old_bit != 0)
                    or edge == "anyedge"
                ):
                    if id(process) not in self._clocked_set:
                        self._clocked_set.add(id(process))
                        self._clocked.append(process)

    def _notify_memory_write(self, memory):
        self.event_count += 1
        for process in memory.comb_listeners:
            self._schedule_comb(process)

    def _run_process(self, process):
        executor = _Executor(self, process)
        previous, self._running = self._running, process
        try:
            for stmt in process.body:
                executor.execute(stmt)
        finally:
            self._running = previous


class _Executor:
    """Interprets statements for one process activation."""

    def __init__(self, simulator, process):
        self.sim = simulator
        self.process = process
        self.scope = process.scope
        self.nonblocking = process.kind == "seq"
        self.evaluator = Evaluator(self.scope)
        # Live code-coverage recording covers seq/initial bodies only:
        # their activations are schedule-invariant.  Comb bodies are
        # covered by stable-point replay (repro.cover.code), because
        # live comb counts depend on the backend's scheduler.
        cov = getattr(simulator, "code_coverage", None)
        self.cov = cov if (
            cov is not None and process.kind != "comb"
        ) else None

    # -- statement dispatch -------------------------------------------------------

    def execute(self, stmt):
        if self.cov is not None:
            self.cov.hit_stmt_node(stmt)
        if isinstance(stmt, ast.Block):
            for inner in stmt.statements:
                self.execute(inner)
        elif isinstance(stmt, ast.Assign):
            self._execute_assign(stmt)
        elif isinstance(stmt, ast.If):
            cond = self.evaluator.eval(stmt.cond)
            taken = bool(cond.is_truthy())
            if self.cov is not None:
                self.cov.hit_branch_node(stmt, "T" if taken else "F")
            if taken:
                self.execute(stmt.then_stmt)
            elif stmt.else_stmt is not None:
                self.execute(stmt.else_stmt)
        elif isinstance(stmt, ast.Case):
            self._execute_case(stmt)
        elif isinstance(stmt, ast.For):
            self._execute_for(stmt)
        elif isinstance(stmt, ast.While):
            self._execute_while(stmt)
        elif isinstance(stmt, (ast.NullStmt, ast.SystemTaskCall)):
            pass
        else:
            raise SimulationError(
                f"cannot execute statement {type(stmt).__name__}"
            )

    def _execute_case(self, stmt):
        subject = self.evaluator.eval(stmt.subject)
        default_item = None
        for item in stmt.items:
            if item.is_default:
                default_item = item
                continue
            for label in item.labels:
                if self._case_match(stmt.kind, subject, label):
                    if self.cov is not None:
                        self.cov.hit_case_item(item)
                    self.execute(item.body)
                    return
        # No label matched: one "default" outcome, recorded whether or
        # not a default body exists (branch coverage sees the miss).
        if self.cov is not None:
            self.cov.hit_branch_node(stmt, "default")
        if default_item is not None:
            self.execute(default_item.body)

    def _case_match(self, kind, subject, label_expr):
        label = self.evaluator.eval(label_expr, subject.width)
        subject = subject.resize(max(subject.width, label.width))
        label = label.resize(subject.width)
        if kind == "case":
            return (
                subject.xmask == label.xmask and subject.bits == label.bits
            )
        # casez/casex: x/z bits in the label (and for casex, the subject)
        # are wildcards.
        wildcard = label.xmask
        if kind == "casex":
            wildcard |= subject.xmask
        return (subject.bits & ~wildcard) == (label.bits & ~wildcard) and (
            kind == "casex" or subject.xmask & ~wildcard == 0
        )

    def _execute_for(self, stmt):
        self._execute_assign(stmt.init)
        iterations = 0
        while True:
            cond = self.evaluator.eval(stmt.cond)
            if not cond.is_truthy():
                break
            self.execute(stmt.body)
            self._execute_assign(stmt.step)
            iterations += 1
            if iterations > _MAX_LOOP_ITERATIONS:
                raise SimulationError("for-loop iteration limit exceeded")

    def _execute_while(self, stmt):
        iterations = 0
        while True:
            cond = self.evaluator.eval(stmt.cond)
            if not cond.is_truthy():
                break
            self.execute(stmt.body)
            iterations += 1
            if iterations > _MAX_LOOP_ITERATIONS:
                raise SimulationError("while-loop iteration limit exceeded")

    # -- assignment ---------------------------------------------------------------

    def _execute_assign(self, stmt):
        target_width = self._lvalue_width(stmt.target)
        value = self.evaluator.eval(stmt.value, target_width)
        value = value.resize(target_width)
        # Resolve index/part-select offsets NOW (Verilog evaluates the
        # address of a non-blocking assignment at schedule time).
        store = self._resolve_store(stmt.target)
        if stmt.blocking or not self.nonblocking:
            store(value)
        else:
            self.sim._nba.append(lambda s=store, v=value: s(v))

    def _lookup_target(self, name):
        scope = self.scope
        lookup = getattr(scope, "lookup_target", None)
        entry = lookup(name) if lookup else scope.lookup(name)
        if entry is None:
            if hasattr(scope, "declare_implicit"):
                entry = scope.declare_implicit(name)
            else:
                entry = scope.write_scope.declare_implicit(name)
        return entry

    def _lvalue_width(self, target):
        if isinstance(target, ast.Identifier):
            entry = self._lookup_target(target.name)
            if isinstance(entry, Memory):
                return entry.width
            if isinstance(entry, Signal):
                return entry.width
            return entry.width  # parameter (illegal target, best effort)
        if isinstance(target, ast.Index):
            if isinstance(target.base, ast.Identifier):
                entry = self._lookup_target(target.base.name)
                if isinstance(entry, Memory):
                    return entry.width
            return 1
        if isinstance(target, ast.PartSelect):
            if target.mode == ":":
                msb = self.evaluator.const_or_runtime_int(target.msb)
                lsb = self.evaluator.const_or_runtime_int(target.lsb)
                if msb is None or lsb is None:
                    return 1
                return abs(msb - lsb) + 1
            width = self.evaluator.const_or_runtime_int(target.lsb)
            return width or 1
        if isinstance(target, ast.Concat):
            return sum(self._lvalue_width(p) for p in target.parts)
        raise SimulationError(
            f"invalid assignment target {type(target).__name__}"
        )

    def _resolve_store(self, target):
        """Build a closure that writes a value to ``target``.

        All addressing (memory indices, bit offsets) is evaluated at
        resolve time; the returned closure only performs the write, so
        it is safe to defer to the NBA region.
        """
        if isinstance(target, ast.Identifier):
            entry = self._lookup_target(target.name)
            if isinstance(entry, Signal):
                return lambda v, e=entry: self.sim._write_signal(e, v)
            if isinstance(entry, Memory):
                raise SimulationError(
                    f"cannot assign whole memory '{target.name}'"
                )
            return lambda v: None  # parameter target: lint catches it
        if isinstance(target, ast.Index):
            return self._resolve_index_store(target)
        if isinstance(target, ast.PartSelect):
            return self._resolve_part_select_store(target)
        if isinstance(target, ast.Concat):
            parts = [
                (self._resolve_store(p), self._lvalue_width(p))
                for p in target.parts
            ]

            def store_concat(value):
                offset = value.width
                for part_store, width in parts:
                    offset -= width
                    part_store(value.select_range(offset + width - 1, offset))

            return store_concat
        raise SimulationError(
            f"invalid assignment target {type(target).__name__}"
        )

    def _resolve_index_store(self, target):
        index = self.evaluator.const_or_runtime_int(target.index)
        if isinstance(target.base, ast.Identifier):
            entry = self._lookup_target(target.base.name)
            if isinstance(entry, Memory):
                def store_word(value, m=entry, i=index):
                    m.write(i, value)
                    self.sim._notify_memory_write(m)

                return store_word
            if isinstance(entry, Signal):
                def store_bit(value, e=entry, i=index):
                    if i is None:
                        return
                    updated = e.value.replace_bits(i, value.resize(1))
                    self.sim._write_signal(e, updated)

                return store_bit
        raise SimulationError("unsupported indexed assignment target")

    def _resolve_part_select_store(self, target):
        if not isinstance(target.base, ast.Identifier):
            raise SimulationError("unsupported part-select target")
        entry = self._lookup_target(target.base.name)
        if target.mode == ":":
            msb = self.evaluator.const_or_runtime_int(target.msb)
            lsb = self.evaluator.const_or_runtime_int(target.lsb)
        elif target.mode == "+:":
            lsb = self.evaluator.const_or_runtime_int(target.msb)
            width = self.evaluator.const_or_runtime_int(target.lsb) or 1
            msb = None if lsb is None else lsb + width - 1
        else:
            msb = self.evaluator.const_or_runtime_int(target.msb)
            width = self.evaluator.const_or_runtime_int(target.lsb) or 1
            lsb = None if msb is None else msb - width + 1
        if not isinstance(entry, Signal):
            raise SimulationError("part-select on non-signal target")

        def store_slice(value, e=entry, hi=msb, lo=lsb):
            if hi is None or lo is None:
                return
            updated = e.value.replace_bits(
                min(hi, lo), value.resize(abs(hi - lo) + 1)
            )
            self.sim._write_signal(e, updated)

        return store_slice
