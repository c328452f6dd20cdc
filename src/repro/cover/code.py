"""Structural code coverage: statement, branch, and toggle.

One :class:`CodeCoverage` collector attaches to one simulator (any
backend).  Collection is *backend-invariant by construction* — the
maps produced by the interpreter and the compiled backend for the
same DUT and stimulus are identical, which `scripts/ci_smoke.py`
enforces.  That invariance dictates where each metric is collected:

- **seq/initial processes** are instrumented live (interpreter hooks
  in :class:`repro.sim.engine._Executor`, emitted ``_CS``/``_CB``
  calls in :mod:`repro.sim.compile.codegen`): clocked activations
  and their branch decisions are schedule-independent because both
  backends run them only at comb quiescence, over bit-identical
  state;
- **comb processes** are NOT instrumented live — the event-driven
  worklist re-evaluates glitchy cones mid-wave while the levelized
  sweep evaluates each cone once, so live counts (and even hit sets)
  would diverge.  Instead :meth:`CodeCoverage.sample_stable` replays
  every comb body against *settled* state at each monitor sample
  point, through a shadow executor whose writes never touch the
  design.  "Settled-evaluation coverage at sample points" is the
  defined semantic, identical across schedulers;
- **toggle coverage** is derived post-run from the canonical
  value-change trace (same-time glitch entries are already dropped
  by the engine), which is bit-identical across backends.

Statement/branch identities are stable strings (``p<idx>.s<n>`` from
a pre-order walk of each process body), so maps from two separate
elaborations of the same source line up key-for-key.
"""

import copy

from repro.hdl import ast
from repro.sim.elaborate import Signal
from repro.sim.engine import SimulationError, _Executor
from repro.sim.eval import Evaluator


class CodeCoverage:
    """Statement/branch/toggle counters over one elaborated design."""

    def __init__(self, design):
        self.design = design
        #: id(ast stmt node) -> stable statement id "p<i>.s<n>".
        self.stmt_id = {}
        #: id(case item node) -> arm outcome key "a<i>".
        self.case_arm = {}
        #: stable statement id -> list of branch outcome keys.
        self.branch_domain = {}
        self.stmt_domain = []
        self.stmt_hits = {}
        self.branch_hits = {}
        self.toggle = {}
        for index, process in enumerate(design.processes):
            counter = iter(range(1 << 30))
            for stmt in process.body:
                self._walk(stmt, index, counter)

    # -- stable id assignment ------------------------------------------------

    def _walk(self, stmt, pidx, counter):
        sid = f"p{pidx}.s{next(counter)}"
        self.stmt_id[id(stmt)] = sid
        self.stmt_domain.append(sid)
        if isinstance(stmt, ast.Block):
            for inner in stmt.statements:
                self._walk(inner, pidx, counter)
        elif isinstance(stmt, ast.If):
            self.branch_domain[sid] = ["T", "F"]
            self._walk(stmt.then_stmt, pidx, counter)
            if stmt.else_stmt is not None:
                self._walk(stmt.else_stmt, pidx, counter)
        elif isinstance(stmt, ast.Case):
            outcomes = []
            for index, item in enumerate(stmt.items):
                if not item.is_default:
                    key = f"a{index}"
                    self.case_arm[id(item)] = (sid, key)
                    outcomes.append(key)
                self._walk(item.body, pidx, counter)
            outcomes.append("default")
            self.branch_domain[sid] = outcomes
        elif isinstance(stmt, (ast.For, ast.While)):
            self._walk(stmt.body, pidx, counter)

    # -- recording (hot paths: called from both backends) --------------------

    def hit_stmt(self, sid):
        self.stmt_hits[sid] = self.stmt_hits.get(sid, 0) + 1

    def hit_stmt_node(self, stmt):
        sid = self.stmt_id.get(id(stmt))
        if sid is not None:
            self.stmt_hits[sid] = self.stmt_hits.get(sid, 0) + 1

    def hit_branch(self, sid, outcome):
        key = f"{sid}:{outcome}"
        self.branch_hits[key] = self.branch_hits.get(key, 0) + 1

    def hit_branch_node(self, stmt, outcome):
        sid = self.stmt_id.get(id(stmt))
        if sid is not None:
            self.hit_branch(sid, outcome)

    def hit_case_item(self, item):
        entry = self.case_arm.get(id(item))
        if entry is not None:
            self.hit_branch(*entry)

    # -- stable-point comb replay --------------------------------------------

    def sample_stable(self):
        """Replay every comb process against settled state (see module
        docstring); call once per monitor sample point.  Reads the
        settled values directly off this collector's own design — the
        simulator that owns it — so it takes no argument.
        """
        for process in self.design.processes:
            if process.kind == "comb":
                self._replay(process)

    def _replay(self, process):
        executor = _ReplayExecutor(process, self)
        try:
            for stmt in process.body:
                executor.execute(stmt)
        except SimulationError:
            # A body the real engine also cannot execute (the real
            # run surfaces the error); replay must not re-raise.
            # Partial hits up to the error stand (deterministic).
            pass

    # -- toggle (post-run, from the canonical trace) -------------------------

    def finalize(self, simulator):
        """Derive toggle coverage from the value-change trace."""
        if not getattr(simulator, "trace_enabled", False):
            return self
        self.toggle = {}
        for name in sorted(simulator.trace):
            signal = self.design.signals.get(name)
            if signal is None:
                continue
            history = simulator.trace[name]
            mask = (1 << signal.width) - 1
            rise = fall = 0
            for (_, prev), (_, curr) in zip(history, history[1:]):
                known = ~prev.xmask & ~curr.xmask
                rise |= ~prev.bits & curr.bits & known
                fall |= prev.bits & ~curr.bits & known
            self.toggle[name] = {
                "rise": rise & mask,
                "fall": fall & mask,
                "width": signal.width,
            }
        return self

    # -- aggregation ---------------------------------------------------------

    @property
    def stmt_total(self):
        return len(self.stmt_domain)

    @property
    def branch_total(self):
        return sum(len(v) for v in self.branch_domain.values())

    @property
    def stmt_coverage(self):
        total = self.stmt_total
        return len(self.stmt_hits) / total if total else 1.0

    @property
    def branch_coverage(self):
        total = self.branch_total
        return len(self.branch_hits) / total if total else 1.0

    @property
    def toggle_coverage(self):
        total = covered = 0
        for entry in self.toggle.values():
            total += 2 * entry["width"]
            covered += _popcount(entry["rise"]) + _popcount(entry["fall"])
        return covered / total if total else 1.0

    def to_dict(self):
        """JSON-pure serialization for the coverage database."""
        return {
            "stmts": {k: self.stmt_hits[k] for k in sorted(self.stmt_hits)},
            "branches": {
                k: self.branch_hits[k] for k in sorted(self.branch_hits)
            },
            "totals": {
                "stmt": self.stmt_total,
                "branch": self.branch_total,
            },
            "toggle": {
                name: dict(entry)
                for name, entry in sorted(self.toggle.items())
            },
        }

    def report(self):
        return (
            f"code coverage: stmt {len(self.stmt_hits)}/{self.stmt_total} "
            f"({100.0 * self.stmt_coverage:.1f}%), "
            f"branch {len(self.branch_hits)}/{self.branch_total} "
            f"({100.0 * self.branch_coverage:.1f}%), "
            f"toggle {100.0 * self.toggle_coverage:.1f}%"
        )


def _popcount(value):
    return bin(value).count("1")


# -- shadow replay machinery -------------------------------------------------


class _ShadowSim:
    """Write sink for replay: all stores land in overlays, never the
    design.  Implements the simulator's whole-signal write and its
    three select stores (``_store_bit``, ``_store_slice``,
    ``_mem_write``), which are all the executor's store closures call.
    """

    def __init__(self):
        self.shadow = {}      # id(Signal) -> Value
        self.memories = {}    # id(Memory) -> copy of the Memory

    def read_signal(self, signal):
        return self.shadow.get(id(signal), signal.value)

    def _write_signal(self, signal, value):
        if value.width != signal.width or value.signed != signal.signed:
            value = value.resize(signal.width, signal.signed)
        self.shadow[id(signal)] = value

    def _store_bit(self, signal, index, value):
        if index is None:
            return
        self._write_signal(
            signal, self.read_signal(signal).replace_bits(index, value)
        )

    def _store_slice(self, signal, hi, lo, value):
        if hi is None or lo is None:
            return
        self._write_signal(
            signal,
            self.read_signal(signal).replace_bits(
                min(hi, lo), value.resize(abs(hi - lo) + 1)
            ),
        )

    def _mem_write(self, memory, index, value):
        shadow = self.memories.get(id(memory))
        if shadow is None:
            shadow = self.memories[id(memory)] = copy.copy(memory)
            shadow.words = list(memory.words)
        shadow.write(index, value)


class _ShadowResolver:
    """Evaluator resolver: shadow values first, real state second."""

    def __init__(self, scope, shadow_sim):
        self.scope = scope
        self.shadow_sim = shadow_sim
        # Widths, signedness and target resolution are the scope's own.
        self.width_of = scope.width_of
        self.signed_of = scope.signed_of
        self.lookup_target = scope.lookup_target
        self.declare_implicit = scope.declare_implicit

    def read(self, name):
        entry = self.scope.lookup(name)
        if isinstance(entry, Signal):
            return self.shadow_sim.read_signal(entry)
        return self.scope.read(name)

    def read_memory(self, name):
        memory = self.scope.read_memory(name)
        if memory is None:
            return None
        return self.shadow_sim.memories.get(id(memory), memory)


class _ReplayExecutor(_Executor):
    """Side-effect-free re-execution of one comb process body.

    Reads see settled design state overlaid with the replay's own
    blocking writes (so intermediate temporaries behave exactly as in
    the real evaluation); all stores go to shadows.  Because a comb
    body is a deterministic function of its inputs and the design is
    quiescent, the branches taken here are precisely those of the
    settled evaluation — the backend-invariant semantic we record.
    """

    def __init__(self, process, coverage):
        super().__init__(_ShadowSim(), process)
        self.evaluator = Evaluator(_ShadowResolver(self.scope, self.sim))
        self.cov = coverage
