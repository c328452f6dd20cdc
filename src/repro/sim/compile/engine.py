"""The compiled simulation backend.

:class:`CompiledSimulator` is a drop-in :class:`~repro.sim.engine.Simulator`:
same construction signature, same public API (``set``/``poke``/``get``/
``settle``/``tick``/``trace_at``), same trace and event-count
machinery — it inherits all of that.  What changes is *how* processes
execute and how combinational logic settles:

- when the design levelizes (:mod:`repro.sim.compile.levelize`), the
  whole design is fused into one generated ``settle()`` kernel — comb
  processes inlined in topological order over hoisted signal slots —
  plus sibling seq/initial functions (:mod:`repro.sim.compile.kernel`);
  its ``bind()`` builds the per-port pokes, per-clock ticks and
  per-signal committers from :mod:`repro.sim.compile.runtime`.
  The generated module is shared across simulator instances through
  the per-process kernel memo (:mod:`repro.sim.compile.cache`): each
  distinct design is compiled once per worker process, not once per
  work unit;
- process bodies the codegen cannot prove faithful (runtime-width
  part selects, whole-memory stores, ...) are *demoted*: they stay on
  the inherited interpreter, called from inside the fused kernel at
  their topological level;
- designs with combinational cycles (or unresolvable write targets)
  do not levelize and get no kernel: every process runs on the
  inherited interpreter under its event-driven scheduler, and
  ``fallback_reasons`` lists each one as ``"design does not
  levelize"``.

Correctness contract: settled signal values, x-propagation, traces and
raised errors are bit-identical to the interpreter.  The *number* of
intermediate glitch evaluations can differ (the fused kernel commits
one final value per activation where the worklist re-evaluates
glitchy cones), so ``event_count`` — which feeds the modelled-seconds
clock — is scheduler-dependent; HR/FR outcomes are backend-invariant.
The ``xcheck`` backend enforces the value contract at every settle.
"""

from repro.sim.compile.cache import get_kernel
from repro.sim.compile.levelize import levelize
from repro.sim.elaborate import elaborate
from repro.sim.engine import Simulator


class CompiledSimulator(Simulator):
    """Simulates an elaborated design through its generated kernel, or
    on the inherited interpreter when the design does not levelize."""

    backend_name = "compiled"

    def __init__(self, design, trace=True, code_coverage=False):
        if isinstance(design, str):
            design = elaborate(design)
        # The collector must exist before codegen runs: recording
        # calls are baked into the generated code.
        if code_coverage and not hasattr(code_coverage, "hit_stmt"):
            from repro.cover.code import CodeCoverage

            code_coverage = CodeCoverage(design)
        self.code_coverage = code_coverage or None
        self._kernel_fns = {}      # id(process) -> kernel fn(sim)
        self._kernel_ticks = {}    # clock name -> tick fn
        self._kernel_pokes = {}    # port name -> poke fn
        self.kernel_source = None

        order = levelize(design)
        self.levelized = order is not None
        if self.levelized:
            self._level_of = {id(p): i for i, p in enumerate(order)}
            self._dirty = bytearray(len(order))
            bind, source = get_kernel(
                design, order, trace=trace, coverage=self.code_coverage,
            )
            kernel = bind(design)
            self.kernel_source = source
            processes = design.processes
            for index, fn in kernel["fns"].items():
                self._kernel_fns[id(processes[index])] = fn
            self._kernel_ticks = kernel["ticks"]
            self._kernel_pokes = kernel["pokes"]
            self.fallback_reasons = {
                processes[index]: reason
                for index, reason in kernel["demoted"].items()
            }
            # Instance attribute wins over the class method: settle()
            # dispatches straight into the generated kernel.
            self.settle = kernel["settle"].__get__(self)
        else:
            # No kernel: the inherited interpreter runs every process.
            self.fallback_reasons = dict.fromkeys(
                design.processes, "design does not levelize"
            )
        super().__init__(design, trace=trace)

    # -- compile stats -------------------------------------------------------

    @property
    def compiled_process_count(self):
        return len(self.design.processes) - len(self.fallback_reasons)

    @property
    def interpreted_process_count(self):
        return len(self.design.processes) - self.compiled_process_count

    # -- scheduling overrides ------------------------------------------------

    def _schedule_comb(self, process):
        if not self.levelized:
            return super()._schedule_comb(process)
        if process is self._running:
            return
        self._dirty[self._level_of[id(process)]] = 1

    def tick(self, clock="clk", cycles=1, half_period=5):
        fn = self._kernel_ticks.get(clock)
        if fn is None:
            return super().tick(clock, cycles, half_period)
        fn(self, cycles, half_period)

    def poke(self, name, value):
        fn = self._kernel_pokes.get(name)
        if fn is None:
            return super().poke(name, value)
        fn(self, value)

    def set(self, name, value):
        fn = self._kernel_pokes.get(name)
        if fn is None:
            return super().set(name, value)
        fn(self, value)
        self.settle()

    def _run_process(self, process):
        fn = self._kernel_fns.get(id(process))
        if fn is None:
            return super()._run_process(process)
        previous, self._running = self._running, process
        try:
            fn(self)
        finally:
            self._running = previous

    # -- compiled store helpers (bound into generated code) ------------------

    def _store_bit(self, signal, index, value):
        if index is None:
            return
        self._write_signal(signal, signal.value.replace_bits(index, value))

    def _store_slice(self, signal, hi, lo, value):
        if hi is None or lo is None:
            return
        self._write_signal(
            signal,
            signal.value.replace_bits(
                min(hi, lo), value.resize(abs(hi - lo) + 1)
            ),
        )

    def _mem_write(self, memory, index, value):
        memory.write(index, value)
        self._notify_memory_write(memory)
