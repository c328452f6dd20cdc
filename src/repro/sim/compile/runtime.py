"""The design-independent half of every fused kernel.

A generated kernel (:mod:`repro.sim.compile.kernel`) keeps only what
differs between designs: its constants, the ``bind(design)`` prologue,
the fused ``_settle`` and the seq/initial bodies.  Everything else is
ordinary Python here, specialized at bind time by closing over one
signal's slot, shape and statically known listeners:

- :func:`make_write` — a signal's write: a port's testbench drive
  (with a per-port int -> ``Value`` memo) and the whole-signal
  committer that seq/initial stores and their NBA entries call;
- :func:`make_mem_commit` — the memory-word committer;
- :func:`make_tick` — a clocked signal's ``tick(cycles, half_period)``
  with falling-edge settle elision;
- :func:`trace_append` and :func:`run_regions` — the canonical trace
  append and ``_settle``'s clocked and NBA regions.

Each mirrors ``Simulator._write_signal`` / ``_notify_memory_write``
step for step: change check, slot store, ``event_count``, canonical
trace, dirty marks for the comb listeners' levels, then the edge scan
in listener-list order.  ``levels`` is the sorted tuple of those
levels; ``edges`` is ``((fires_at, process), ...)`` in listener order,
``fires_at`` 1 for posedge, 0 for negedge and ``None`` for anyedge.
"""

from repro.sim.values import Value


def trace_append(trace, name, time, value):
    """Canonical value-change trace append, exactly as
    ``Simulator._write_signal`` records it: same-time writes collapse
    to the final value, and one that returns to the previous entry's
    value drops the entry as a no-change glitch."""
    history = trace.get(name)
    if history is None:
        history = trace[name] = []
    if history and history[-1][0] == time:
        if len(history) > 1 and history[-2][1] == value:
            history.pop()
        else:
            history[-1] = (time, value)
    else:
        history.append((time, value))


def run_regions(sim, fns):
    """``_settle``'s scheduling regions, once no comb level is dirty:
    run the processes clock edges queued, in queue order (``fns`` maps
    ``id(process)`` to its kernel function; demoted processes run on
    the interpreter), then, unless they dirtied a comb level, apply
    the NBA region: ``(committer, value)`` tuples from kernel
    functions, callables from interpreted processes."""
    clocked = sim._clocked
    if clocked:
        sim._clocked = []
        sim._clocked_set.clear()
        for process in clocked:
            fn = fns.get(id(process))
            if fn is not None:
                fn(sim)
            else:
                sim._run_process(process)
    if sim._nba and 1 not in sim._dirty:
        updates = sim._nba
        sim._nba = []
        for update in updates:
            if type(update) is tuple:
                update[0](sim, update[1])
            else:
                update()


def make_write(signal, width, signed, levels, edges, trace):
    """``write(sim, value)``: a port's poke, and the committer that
    seq/initial whole-signal stores and their NBA entries call.  Ints
    (testbench drives) go through a private int -> ``Value`` memo.
    Never used from comb bodies, whose self-wake suppression needs
    ``sim._running``."""
    name = signal.name
    table = tuple((fires_at, id(p), p) for fires_at, p in edges)
    memo = {}

    def write(sim, value):
        if type(value) is int:
            wrapped = memo.get(value)
            if wrapped is None:
                wrapped = memo[value] = Value(value, width, 0, signed)
            value = wrapped
        elif value.width != width or value.signed != signed:
            value = value.resize(width, signed)
        old = signal.value
        if old.bits == value.bits and old.xmask == value.xmask:
            return
        signal.value = value
        sim.event_count += 1
        if trace:
            trace_append(sim.trace, name, sim.time, value)
        if levels:
            dirty = sim._dirty
            for level in levels:
                dirty[level] = 1
        if table:
            old_bit = None if old.xmask & 1 else old.bits & 1
            new_bit = None if value.xmask & 1 else value.bits & 1
            queued = sim._clocked_set
            for fires_at, pid, process in table:
                if fires_at is None or (
                    new_bit == fires_at and old_bit != fires_at
                ):
                    if pid not in queued:
                        queued.add(pid)
                        sim._clocked.append(process)

    return write


def make_mem_commit(memory, lo, hi, width, levels):
    """``commit(sim, (index, value))``: one memory-word store.  As in
    ``_notify_memory_write``, an x or out-of-range index still counts
    one event and wakes the memory's comb listeners."""

    def commit(sim, write):
        index = write[0]
        if index is not None and lo <= index <= hi:
            value = write[1]
            if value.width != width:
                value = value.resize(width)
            memory.words[index - lo] = value
        sim.event_count += 1
        dirty = sim._dirty
        for level in levels:
            dirty[level] = 1

    return commit


def make_tick(signal, width, signed, levels, edges, trace, settle):
    """``tick(sim, cycles, half_period)`` for one clocked signal: each
    cycle drives 1, settles, advances half a period, drives 0 and
    settles only if the fall can wake anything (a negedge or anyedge
    listener, or a comb reader of the clock)."""
    one = Value(1, width, 0, signed)
    zero = Value(0, width, 0, signed)
    name = signal.name
    # The listeners a rise queues, in list order: posedge and anyedge
    # ones when the old bit was not 1, else only the anyedge ones (the
    # fall likewise with negedge and 0).  A changed one-bit drive
    # always starts from the other bit or x.
    rise = tuple((id(p), p) for fires_at, p in edges if fires_at != 0)
    fall = tuple((id(p), p) for fires_at, p in edges if fires_at != 1)
    either = tuple((id(p), p) for fires_at, p in edges if fires_at is None)
    one_bit = width == 1
    wake_on_fall = bool(levels or fall)

    def tick(sim, cycles, half_period):
        queued = sim._clocked_set
        dirty = sim._dirty
        for _ in range(cycles):
            old = signal.value
            if old.bits != 1 or old.xmask:
                signal.value = one
                sim.event_count += 1
                if trace:
                    trace_append(sim.trace, name, sim.time, one)
                if levels:
                    for level in levels:
                        dirty[level] = 1
                for pid, process in (
                    rise if one_bit or old.xmask & 1 or not old.bits & 1
                    else either
                ):
                    if pid not in queued:
                        queued.add(pid)
                        sim._clocked.append(process)
            settle(sim)
            sim.time += half_period
            old = signal.value
            if old.bits or old.xmask:
                signal.value = zero
                sim.event_count += 1
                if trace:
                    trace_append(sim.trace, name, sim.time, zero)
                if wake_on_fall:
                    for level in levels:
                        dirty[level] = 1
                    for pid, process in (
                        fall if one_bit or old.xmask & 1 or old.bits & 1
                        else either
                    ):
                        if pid not in queued:
                            queued.add(pid)
                            sim._clocked.append(process)
            if wake_on_fall:
                settle(sim)
            sim.time += half_period

    return tick
