"""Lockstep cross-checking backend.

:class:`XCheckSimulator` drives the tree-walking interpreter and the
compiled backend side by side through the same pin-level API and
compares *all* architectural state (every signal, every memory word,
simulation time) after construction and after every settle.  The first
mismatch raises :class:`XCheckDivergence` naming the signal, the time
and both values — the deterministic-replay acceptance bar: the
compiled backend is only correct if it is bit-identical, x-bits
included.

Reads (``get``/``trace``/``event_count``) are served from the
interpreter side, so any consumer sees exactly what the reference
backend would have produced.
"""

from repro.sim.compile.engine import CompiledSimulator
from repro.sim.elaborate import elaborate
from repro.sim.engine import SimulationError, Simulator
from repro.sim.values import Value


def _forensics_enabled():
    """Whether failure capture is live (lazy import: the sim layer must
    not depend on the forensics package at import time)."""
    try:
        from repro.forensics import bundle

        return bundle.enabled()
    except Exception:
        return False


class XCheckDivergence(SimulationError):
    """The compiled backend diverged from the interpreter.

    When raised by :class:`XCheckSimulator` the exception carries
    structured fields for triage replays: ``signal`` (or None for
    time/signal-set divergences), ``time``, ``context``, and
    ``bundle`` — the forensic bundle directory when capture was on.
    """

    signal = None
    time = None
    context = None
    bundle = None


class XCheckSimulator:
    """Runs ``interp`` and ``compiled`` in lockstep; raises on the
    first divergence.  API-compatible with :class:`Simulator`."""

    backend_name = "xcheck"

    def __init__(self, design, trace=True, top=None, code_coverage=False):
        if not isinstance(design, str):
            raise SimulationError(
                "the xcheck backend needs Verilog source text (it "
                "elaborates one design per side); got an elaborated "
                "object"
            )
        # Each side gets its own collector; consumers read the ref
        # side's map (``self.code_coverage``) while the dut side's is
        # available for invariance checks (``dut.code_coverage``).
        self.ref = Simulator(elaborate(design, top=top), trace=trace,
                             code_coverage=code_coverage)
        self.dut = CompiledSimulator(elaborate(design, top=top),
                                     trace=trace,
                                     code_coverage=code_coverage)
        self.compare_count = 0
        # Forensics: keep the source and (capture-enabled runs only)
        # the pin-op script, so a divergence bundles a standalone
        # reproducer.  ``None`` ops == recording off, zero overhead.
        self._source = design
        self._forensic_ops = [] if _forensics_enabled() else None
        self._compare("construction")

    # -- state mirrored from the reference side ------------------------------

    @property
    def design(self):
        return self.ref.design

    @property
    def time(self):
        return self.ref.time

    @property
    def trace(self):
        return self.ref.trace

    @property
    def trace_enabled(self):
        return self.ref.trace_enabled

    @property
    def code_coverage(self):
        return self.ref.code_coverage

    @property
    def event_count(self):
        return self.ref.event_count

    # -- pin-level API -------------------------------------------------------
    # ``tick`` decomposes through set/step_time, so recording only in
    # the four primitive mutators captures the full script exactly
    # once.

    def _record(self, *op):
        if self._forensic_ops is not None:
            self._forensic_ops.append(op)

    @staticmethod
    def _op_bits(value):
        if isinstance(value, Value):
            return int(value.bits), int(value.xmask)
        return int(value), 0

    def set(self, name, value):
        if self._forensic_ops is not None:
            self._record("set", name, *self._op_bits(value))
        self.ref.set(name, value)
        self.dut.set(name, value)
        self._compare(f"set({name!r})")

    def poke(self, name, value):
        if self._forensic_ops is not None:
            self._record("poke", name, *self._op_bits(value))
        self.ref.poke(name, value)
        self.dut.poke(name, value)

    def settle(self):
        self._record("settle")
        self.ref.settle()
        self.dut.settle()
        self._compare("settle()")

    def step_time(self, amount=1):
        self._record("step", int(amount))
        self.ref.step_time(amount)
        self.dut.step_time(amount)

    def tick(self, clock="clk", cycles=1, half_period=5):
        for _ in range(cycles):
            self.set(clock, 1)
            self.step_time(half_period)
            self.set(clock, 0)
            self.step_time(half_period)

    def get(self, name):
        ref_value = self.ref.get(name)
        dut_value = self.dut.get(name)
        if ref_value != dut_value or ref_value.xmask != dut_value.xmask:
            self._diverge(f"get({name!r})", name, ref_value, dut_value)
        return ref_value

    def get_int(self, name):
        return self.get(name).to_int()

    def peek_memory(self, name, address):
        return self.ref.peek_memory(name, address)

    def input_names(self):
        return self.ref.input_names()

    def output_names(self):
        return self.ref.output_names()

    def signal_width(self, name):
        return self.ref.signal_width(name)

    def trace_at(self, name, time):
        return self.ref.trace_at(name, time)

    # -- comparison ----------------------------------------------------------

    def _compare(self, context):
        self.compare_count += 1
        if self.ref.time != self.dut.time:
            self._raise_divergence(
                context, None, self.ref.time, self.dut.time,
                f"xcheck: time diverged after {context}: "
                f"interp={self.ref.time} compiled={self.dut.time}"
            )
        dut_signals = self.dut.design.signals
        if len(dut_signals) != len(self.ref.design.signals):
            extra = sorted(
                set(dut_signals) ^ set(self.ref.design.signals)
            )
            self._raise_divergence(
                context, None, None, None,
                f"xcheck: signal sets diverged after {context}: "
                f"only on one side: {extra[:8]}"
            )
        for name, ref_signal in self.ref.design.signals.items():
            dut_signal = dut_signals.get(name)
            if dut_signal is None:
                self._diverge(context, name, ref_signal.value, None)
            a, b = ref_signal.value, dut_signal.value
            if a != b or a.xmask != b.xmask:
                self._diverge(context, name, a, b)
        dut_memories = self.dut.design.memories
        for name, ref_memory in self.ref.design.memories.items():
            dut_memory = dut_memories.get(name)
            if dut_memory is None:
                self._diverge(context, name, "<memory>", None)
            for offset, (a, b) in enumerate(
                zip(ref_memory.words, dut_memory.words)
            ):
                if a != b or a.xmask != b.xmask:
                    self._diverge(
                        context, f"{name}[{offset + ref_memory.lo}]", a, b
                    )

    def _diverge(self, context, name, ref_value, dut_value):
        self._raise_divergence(
            context, name, ref_value, dut_value,
            f"xcheck: backends diverged after {context} at "
            f"t={self.ref.time}: signal '{name}' "
            f"interp={ref_value!r} compiled={dut_value!r}"
        )

    def _raise_divergence(self, context, name, ref_value, dut_value,
                          message):
        """Single exit for every divergence: bundle it (when forensic
        capture is on), then raise with structured fields attached."""
        exc = XCheckDivergence(message)
        exc.signal = name
        exc.time = int(self.ref.time)
        exc.context = context
        try:
            from repro.forensics import bundle as _forensics

            if _forensics.enabled():
                exc.bundle = _forensics.capture_xcheck(
                    self, context, name, ref_value, dut_value, message)
        except Exception:
            pass  # capture is best-effort; the divergence must surface
        raise exc

