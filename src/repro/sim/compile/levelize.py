"""Levelization: topologically order combinational processes.

The event-driven engine settles combinational logic with a worklist
fixpoint — every write re-schedules listeners until quiescence, which
re-evaluates glitchy fan-in cones many times per delta.  When the comb
process dependency graph is acyclic (true for every synthesizable
design without combinational loops), a topological order lets
``settle()`` run one linear sweep instead: each process executes at
most once per wave, after everything it reads has been produced.

The graph has an edge ``P -> Q`` when ``P`` may write a signal (or
memory) that ``Q`` is combinationally sensitive to.  Write sets are
extracted statically from assignment targets; sensitivity comes from
the elaborated ``comb_listeners`` lists (the exact wake-up paths the
event engine uses, so levelized execution can never under-trigger).
Self-edges are excluded: a process never re-triggers from its own
writes (matching ``@(*)`` event-control semantics in the engine).

If any write target cannot be resolved statically, or the graph is
cyclic, :func:`levelize` returns ``None`` and the compiled engine
falls back to event-driven scheduling for the whole comb set — the
conservative choice that keeps scheduling bit-compatible with the
interpreter on combinational loops.
"""

from collections import deque

from repro.hdl import ast
from repro.sim.elaborate import Signal
from repro.sim.eval import Memory, resolve_target


def write_set(process):
    """Statically enumerate the signals/memories ``process`` may write.

    Returns ``(signals, memories)`` or ``None`` when a target cannot be
    resolved (the caller must then treat the process as writing
    anything, i.e. give up on levelization)."""
    signals, memories = [], []
    seen = set()

    def note(entry):
        if id(entry) in seen:
            return True
        seen.add(id(entry))
        if isinstance(entry, Signal):
            signals.append(entry)
        elif isinstance(entry, Memory):
            memories.append(entry)
        return True

    def collect(target):
        if isinstance(target, ast.Identifier):
            return note(resolve_target(process.scope, target.name))
        if isinstance(target, (ast.Index, ast.PartSelect)):
            if isinstance(target.base, ast.Identifier):
                return note(resolve_target(process.scope, target.base.name))
            return False
        if isinstance(target, ast.Concat):
            return all(collect(part) for part in target.parts)
        return False

    for stmt in process.body:
        for node in stmt.walk():
            if isinstance(node, ast.Assign) and node.target is not None:
                if not collect(node.target):
                    return None
    return signals, memories


def _expr_names(node, names):
    if node is None:
        return
    for sub in node.walk():
        if isinstance(sub, ast.Identifier):
            names.add(sub.name)


def _target_read_names(target, names):
    """Names a store *reads*: indices/bounds, and — for bit/slice
    stores — the base itself (``replace_bits`` reads the current
    value).  A whole-identifier store reads nothing."""
    if isinstance(target, ast.Identifier):
        return
    if isinstance(target, ast.Index):
        _expr_names(target.index, names)
        if isinstance(target.base, ast.Identifier):
            names.add(target.base.name)
        else:
            _expr_names(target.base, names)
        return
    if isinstance(target, ast.PartSelect):
        _expr_names(target.msb, names)
        _expr_names(target.lsb, names)
        if isinstance(target.base, ast.Identifier):
            names.add(target.base.name)
        else:
            _expr_names(target.base, names)
        return
    if isinstance(target, ast.Concat):
        for part in target.parts:
            _target_read_names(part, names)
        return
    _expr_names(target, names)


def read_set_names(process):
    """Every identifier ``process`` may *read* (not just write).

    Walks assignments precisely — an assignment target contributes
    only its index/bound expressions (plus the base for bit/slice
    stores) — and everything else conservatively."""
    names = set()
    in_target = set()

    for stmt in process.body:
        for node in stmt.walk():
            if isinstance(node, ast.Assign) and node.target is not None:
                _target_read_names(node.target, names)
                for sub in node.target.walk():
                    in_target.add(id(sub))
    for stmt in process.body:
        for node in stmt.walk():
            if isinstance(node, ast.Identifier) and id(node) not in in_target:
                names.add(node.name)
    return names


def sensitivity_complete(process):
    """True when every signal/memory ``process`` reads also wakes it.

    ``always @(*)`` bodies and continuous assigns are complete by
    construction; explicit level-sensitive lists may be incomplete —
    a *bug the engine must faithfully simulate*, which constrains the
    fused kernel: stores whose glitches such a process could observe
    cannot be elided."""
    for name in read_set_names(process):
        entry = process.scope.lookup(name)
        if isinstance(entry, (Signal, Memory)):
            listeners = entry.comb_listeners
            if not any(listener is process for listener in listeners):
                return False
    return True


def levelize(design):
    """Topological order of the design's comb processes, or ``None``.

    ``None`` means levelization is unsafe (unresolvable write target)
    or impossible (a combinational cycle); the caller falls back to
    event-driven scheduling."""
    comb = [p for p in design.processes if p.kind == "comb"]
    if not comb:
        return []
    index_of = {id(p): i for i, p in enumerate(comb)}
    successors = [set() for _ in comb]
    indegree = [0] * len(comb)

    comb_written = set()
    write_sets = []
    for process in comb:
        sets = write_set(process)
        if sets is None:
            return None
        write_sets.append(sets)
        signals, memories = sets
        comb_written.update(id(entry) for entry in signals)
        comb_written.update(id(entry) for entry in memories)

    # Order sensitivity check: a process that *reads* a comb-written
    # signal it does not listen to sees whatever value the scheduler
    # happened to produce by the time it ran — the worklist's LIFO
    # order and a topological sweep can legitimately disagree there
    # (an incomplete `always @(a or b)` list is a bug the engine must
    # simulate faithfully).  Reads of seq-/port-driven signals are
    # stable within a comb wave, so only comb-written ones force the
    # event-driven fallback.
    for process in comb:
        for name in read_set_names(process):
            entry = process.scope.lookup(name)
            if not isinstance(entry, (Signal, Memory)):
                continue
            if id(entry) not in comb_written:
                continue
            if not any(listener is process
                       for listener in entry.comb_listeners):
                return None

    for i, process in enumerate(comb):
        signals, memories = write_sets[i]
        for entry in signals + memories:
            for listener in entry.comb_listeners:
                j = index_of.get(id(listener))
                if j is None or j == i:
                    continue  # seq/initial listener or self-edge
                if j not in successors[i]:
                    successors[i].add(j)
                    indegree[j] += 1

    queue = deque(i for i in range(len(comb)) if indegree[i] == 0)
    order = []
    while queue:
        i = queue.popleft()
        order.append(comb[i])
        for j in sorted(successors[i]):
            indegree[j] -= 1
            if indegree[j] == 0:
                queue.append(j)
    if len(order) != len(comb):
        return None  # combinational cycle
    return order
