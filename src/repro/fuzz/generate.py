"""Seeded random RTL generator.

Emits well-formed designs over the full supported grammar — nested
always blocks, case/casez/casex statements, NBA/BA mixes, part
selects, x-literals, FSMs, signed inputs/registers, memories
(multiple per design, with sync read ports, constant and
out-of-range stores, $signed-cast writes), hierarchy, gated-latch
combinational cycles (which defeat the levelizer, so the compiled
backend runs the whole design on the interpreter), and run-time
part-select bounds (which the codegen cannot prove faithful, forcing
per-process demotion to the interpreter).

Every design is a pure function of its seed.  Two structural rules
keep generated designs *deterministically simulatable* so that any
cross-backend divergence the oracle sees is a real engine bug, never
an artifact of the design itself:

- **single driver** — every signal is written by exactly one process
  (multi-driver nets would make settled values depend on scheduler
  order, which differs between the worklist and levelized engines by
  design);
- **idempotent comb** — a combinational process never reads a signal
  it writes (a self-reading comb body like ``r = r + 1`` executes a
  different number of times under the two schedulers).  The two
  sanctioned exceptions are themselves idempotent: ``for``-loop
  induction variables (re-initialized on entry, so a re-evaluation
  converges) and the gated-latch cycle pair
  ``assign q = en ? d : shadow; assign shadow = q;`` (a monotone
  fixpoint from any state).

The generator does not bound itself to constructs the compiled
backend supports — demotion paths are part of the grammar on purpose
— but it never emits constructs the *interpreter* rejects (e.g.
whole-memory assignment), because those fail identically everywhere
and would only add noise.
"""

import random
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.hdl import ast
from repro.hdl.parser import parse_based_number
from repro.hdl.printer import print_module

#: Bump whenever generated output changes for a given seed; folded
#: into fuzz-unit cache keys so stale verdicts never alias.
#: v2: signed-heavy signals (inputs/regs), multi-memory designs with
#: sync read ports, constant/out-of-range stores and signed-cast
#: writes.
GENERATOR_VERSION = 2

_BINARY_OPS = (
    "+", "-", "*", "/", "%", "&", "|", "^", "~^",
    "<<", ">>", "<<<", ">>>",
    "==", "!=", "<", "<=", ">", ">=", "===", "!==",
    "&&", "||", "**",
)
_UNARY_OPS = ("~", "-", "+", "!", "&", "|", "^", "~&", "~|", "~^")


@dataclass
class GeneratedDesign:
    """One random design: canonical source plus driving metadata."""

    seed: int
    source: str
    #: (name, width) for every non-clock input port, in port order.
    inputs: List[Tuple[str, int]]
    has_clock: bool
    has_reset: bool
    #: Sorted grammar-feature tags this design exercises.
    features: List[str] = field(default_factory=list)


def _number(value, width, xmask=0):
    """A sized literal with consistent text (hex, or binary with x)."""
    mask = (1 << width) - 1
    value &= mask
    xmask &= mask
    if xmask:
        chars = []
        for i in reversed(range(width)):
            if (xmask >> i) & 1:
                chars.append("x")
            else:
                chars.append(str((value >> i) & 1))
        text = f"{width}'b{''.join(chars)}"
    else:
        text = f"{width}'h{value:x}"
    return parse_based_number(text)


def _ident(name):
    return ast.Identifier(name=name)


def _decimal(value):
    """An unsized decimal literal (declaration ranges read better)."""
    return ast.Number(value=value, width=None, text=str(value))


class _Builder:
    """Builds one random module set; all state is derived from rng."""

    def __init__(self, rng):
        self.rng = rng
        self.features = set()
        self.items = []
        self.ports = []
        #: name -> width of every readable signal (inputs + driven).
        self.readable = {}
        self.signals = {}   # name -> width (all declared)
        self.counter = 0

    def fresh(self, prefix):
        self.counter += 1
        return f"{prefix}{self.counter}"

    # -- declarations -------------------------------------------------------

    def declare_port(self, name, direction, width, kind=None, signed=False):
        self.ports.append(ast.Port(name=name))
        self.items.append(ast.NetDecl(
            names=[name], kind=kind, direction=direction,
            range=_range(width), signed=signed,
        ))
        self.signals[name] = width

    def declare_net(self, name, width, kind="wire", signed=False):
        self.items.append(ast.NetDecl(
            names=[name], kind=kind, range=_range(width), signed=signed,
        ))
        self.signals[name] = width

    # -- expressions --------------------------------------------------------

    def read_pool(self, forbidden=()):
        pool = [
            (name, width) for name, width in sorted(self.readable.items())
            if name not in forbidden
        ]
        return pool

    def expr(self, depth, forbidden=(), want_width=None):
        """A random expression reading only allowed signals."""
        rng = self.rng
        pool = self.read_pool(forbidden)
        if depth <= 0 or not pool or rng.random() < 0.3:
            return self._leaf(pool, want_width)
        choice = rng.random()
        if choice < 0.45:
            op = rng.choice(_BINARY_OPS)
            left = self.expr(depth - 1, forbidden)
            right = self.expr(depth - 1, forbidden)
            if op == "**":
                # Bounded exponent: a small constant keeps pow cheap.
                right = _number(rng.randrange(0, 4), 3)
            return ast.Binary(op=op, left=left, right=right)
        if choice < 0.6:
            return ast.Unary(op=rng.choice(_UNARY_OPS),
                             operand=self.expr(depth - 1, forbidden))
        if choice < 0.72:
            return ast.Ternary(
                cond=self.expr(depth - 1, forbidden),
                then=self.expr(depth - 1, forbidden),
                otherwise=self.expr(depth - 1, forbidden),
            )
        if choice < 0.8:
            parts = [
                self.expr(depth - 1, forbidden)
                for _ in range(rng.randrange(2, 4))
            ]
            self.features.add("concat")
            return ast.Concat(parts=parts)
        if choice < 0.85:
            self.features.add("repeat")
            return ast.Repeat(
                count=_number(rng.randrange(1, 4), 3),
                value=self.expr(depth - 1, forbidden),
            )
        if choice < 0.95:
            return self._select(pool, forbidden)
        name = rng.choice(("$signed", "$unsigned", "$clog2"))
        self.features.add("syscall")
        return ast.FunctionCall(
            name=name, args=[self.expr(depth - 1, forbidden)]
        )

    def _leaf(self, pool, want_width=None):
        rng = self.rng
        if not pool or rng.random() < 0.35:
            width = want_width or rng.choice((1, 2, 4, 8, 12, 16))
            xmask = 0
            if rng.random() < 0.12:
                xmask = rng.getrandbits(width)
                self.features.add("x-literal")
            return _number(rng.getrandbits(width), width, xmask)
        name, _ = rng.choice(pool)
        return _ident(name)

    def _select(self, pool, forbidden):
        """An index or part select over a declared vector."""
        rng = self.rng
        vectors = [(n, w) for n, w in pool if w >= 2]
        if not vectors:
            return self._leaf(pool)
        name, width = rng.choice(vectors)
        base = _ident(name)
        kind = rng.random()
        if kind < 0.4:
            if rng.random() < 0.5:
                index = _number(rng.randrange(0, width), max(1, width - 1)
                                .bit_length())
            else:
                index = self.expr(0, forbidden)
            self.features.add("bit-select")
            return ast.Index(base=base, index=index)
        if kind < 0.75:
            msb = rng.randrange(0, width)
            lsb = rng.randrange(0, msb + 1)
            self.features.add("part-select")
            return ast.PartSelect(base=base, msb=_number(msb, 5),
                                  lsb=_number(lsb, 5), mode=":")
        mode = rng.choice(("+:", "-:"))
        sel_width = rng.randrange(1, min(4, width) + 1)
        if rng.random() < 0.5:
            start = self.expr(0, forbidden)
        else:
            start = _number(rng.randrange(0, width), 5)
        self.features.add("indexed-part-select")
        return ast.PartSelect(base=base, msb=start,
                              lsb=_number(sel_width, 3), mode=mode)

    # -- statements ---------------------------------------------------------

    def target_for(self, name, blocking_pool=()):
        """A random lvalue over an owned reg ``name``."""
        rng = self.rng
        width = self.signals[name]
        base = _ident(name)
        if width < 2 or rng.random() < 0.55:
            return base, width
        kind = rng.random()
        if kind < 0.35:
            bit = rng.randrange(0, width)
            return ast.Index(base=base, index=_number(bit, 5)), 1
        if kind < 0.7:
            msb = rng.randrange(0, width)
            lsb = rng.randrange(0, msb + 1)
            return (
                ast.PartSelect(base=base, msb=_number(msb, 5),
                               lsb=_number(lsb, 5), mode=":"),
                msb - lsb + 1,
            )
        mode = rng.choice(("+:", "-:"))
        sel_width = rng.randrange(1, min(4, width) + 1)
        if blocking_pool and rng.random() < 0.6:
            start = _ident(rng.choice(blocking_pool))
            self.features.add("runtime-part-select-store")
        else:
            start = _number(rng.randrange(0, width), 5)
        return (
            ast.PartSelect(base=base, msb=start,
                           lsb=_number(sel_width, 3), mode=mode),
            sel_width,
        )

    def assign_stmt(self, owned, blocking, forbidden, depth=2,
                    index_pool=()):
        name = self.rng.choice(owned)
        target, width = self.target_for(name, blocking_pool=index_pool)
        return ast.Assign(
            target=target,
            value=self.expr(depth, forbidden, want_width=width),
            blocking=blocking,
        )

    def stmt(self, owned, blocking, forbidden, depth, index_pool=()):
        """A random statement writing only ``owned`` regs."""
        rng = self.rng
        if depth <= 0 or rng.random() < 0.45:
            return self.assign_stmt(owned, blocking, forbidden,
                                    index_pool=index_pool)
        choice = rng.random()
        if choice < 0.35:
            self.features.add("if")
            then = self.block(owned, blocking, forbidden, depth - 1,
                              index_pool)
            else_stmt = None
            if rng.random() < 0.6:
                else_stmt = self.block(owned, blocking, forbidden,
                                       depth - 1, index_pool)
            return ast.If(cond=self.expr(2, forbidden), then_stmt=then,
                          else_stmt=else_stmt)
        if choice < 0.6:
            return self.case_stmt(owned, blocking, forbidden, depth,
                                  index_pool)
        if choice < 0.7:
            self.features.add("display")
            return ast.SystemTaskCall(
                name="$display", args=[self.expr(1, forbidden)]
            )
        if choice < 0.78:
            return ast.NullStmt()
        return self.block(owned, blocking, forbidden, depth - 1,
                          index_pool, min_stmts=2)

    def case_stmt(self, owned, blocking, forbidden, depth, index_pool=()):
        rng = self.rng
        kind = rng.choice(("case", "case", "casez", "casex"))
        self.features.add(kind)
        subject = self.expr(1, forbidden)
        subject_width = rng.choice((2, 3, 4))
        if rng.random() < 0.6:
            pool = self.read_pool(forbidden)
            vectors = [(n, w) for n, w in pool if 2 <= w <= 4]
            if vectors:
                name, subject_width = rng.choice(vectors)
                subject = _ident(name)
        items = []
        used = set()
        for _ in range(rng.randrange(1, 4)):
            labels = []
            for _ in range(rng.randrange(1, 3)):
                bits = rng.getrandbits(subject_width)
                xmask = 0
                if kind in ("casez", "casex") and rng.random() < 0.5:
                    xmask = rng.getrandbits(subject_width)
                    self.features.add("wildcard-label")
                if (bits, xmask) in used:
                    continue
                used.add((bits, xmask))
                labels.append(_number(bits, subject_width, xmask))
            if not labels:
                continue
            items.append(ast.CaseItem(
                labels=labels,
                body=self.block(owned, blocking, forbidden, depth - 1,
                                index_pool),
            ))
        if rng.random() < 0.7 or not items:
            items.append(ast.CaseItem(
                labels=[],
                body=self.block(owned, blocking, forbidden, depth - 1,
                                index_pool),
            ))
        return ast.Case(kind=kind, subject=subject, items=items)

    def block(self, owned, blocking, forbidden, depth, index_pool=(),
              min_stmts=1):
        count = self.rng.randrange(min_stmts, min_stmts + 2)
        return ast.Block(statements=[
            self.stmt(owned, blocking, forbidden, depth, index_pool)
            for _ in range(count)
        ])


def _range(width):
    if width == 1:
        return None
    return ast.Range(msb=_decimal(width - 1), lsb=_decimal(0))


def generate_design(seed, profile=None):
    """Generate one random design; a pure function of ``seed``."""
    # String seeding hashes with sha512 (stable across processes and
    # PYTHONHASHSEED values, unlike tuple seeding).
    rng = random.Random(f"repro-fuzz:{GENERATOR_VERSION}:{seed}")
    b = _Builder(rng)

    # -- ports --------------------------------------------------------------
    has_clock = rng.random() < 0.85
    has_reset = has_clock and rng.random() < 0.6
    if has_clock:
        b.declare_port("clk", "input", 1)
    if has_reset:
        b.declare_port("rst_n", "input", 1)
    inputs = []
    for _ in range(rng.randrange(2, 5)):
        name = b.fresh("in")
        width = rng.choice((1, 2, 4, 8, 8, 12, 16))
        signed = rng.random() < 0.25
        b.declare_port(name, "input", width, signed=signed)
        b.readable[name] = width
        inputs.append((name, width))
        if signed:
            b.features.add("signed-input")

    # -- internal state regs (seq-owned) ------------------------------------
    seq_regs = []
    for _ in range(rng.randrange(1, 4)):
        name = b.fresh("r")
        width = rng.choice((1, 2, 4, 8, 8, 16))
        signed = rng.random() < 0.25
        b.declare_net(name, width, kind="reg", signed=signed)
        seq_regs.append(name)
        b.readable[name] = width
        if signed:
            b.features.add("signed-reg")

    # -- optional FSM -------------------------------------------------------
    fsm = None
    if has_clock and rng.random() < 0.5:
        b.features.add("fsm")
        width = rng.choice((2, 3))
        states = list(range(min(2 ** width, rng.randrange(2, 5))))
        name = b.fresh("state")
        b.declare_net(name, width, kind="reg")
        b.readable[name] = width
        fsm = (name, width, states)

    # -- optional memories --------------------------------------------------
    memories = []
    if has_clock:
        count = 0
        if rng.random() < 0.55:
            count = 1
            if rng.random() < 0.35:
                count = 2
        for _ in range(count):
            b.features.add("memory")
            name = b.fresh("mem")
            width = rng.choice((4, 8, 16))
            depth = rng.choice((4, 6, 8))
            b.items.append(ast.NetDecl(
                names=[name], kind="reg", range=_range(width),
                array=ast.Range(msb=_decimal(0),
                                lsb=_decimal(depth - 1)),
            ))
            memories.append((name, width, depth))

    # -- sequential processes ----------------------------------------------
    if has_clock:
        _emit_seq(b, seq_regs, fsm, memories, has_reset)
    else:
        # No clock: turn the "seq" regs into comb-owned targets below.
        pass

    # -- comb always blocks -------------------------------------------------
    comb_regs = []
    for _ in range(rng.randrange(1, 3)):
        name = b.fresh("c")
        width = rng.choice((1, 2, 4, 8, 8, 16))
        signed = rng.random() < 0.2
        b.declare_net(name, width, kind="reg", signed=signed)
        comb_regs.append(name)
        if signed:
            b.features.add("signed-reg")
    if not has_clock:
        # The "seq" regs become comb-owned.  They must leave the read
        # pool for the whole comb emission: group A reading group B's
        # comb reg (and vice versa) is a comb-comb cycle that can
        # oscillate, unlike clocked regs which are stable mid-settle.
        comb_regs.extend(seq_regs)
        for name in seq_regs:
            b.readable.pop(name, None)
    _emit_comb_always(b, comb_regs)
    for name in comb_regs:
        b.readable[name] = b.signals[name]

    # -- continuous assigns -------------------------------------------------
    wires = []
    for _ in range(rng.randrange(1, 4)):
        name = b.fresh("w")
        width = rng.choice((1, 2, 4, 8, 12))
        b.declare_net(name, width, kind="wire")
        b.items.append(ast.ContinuousAssign(
            target=_ident(name), value=b.expr(rng.randrange(1, 4)),
        ))
        wires.append(name)
        b.readable[name] = width

    # -- memory async reads -------------------------------------------------
    for mem_name, mem_width, depth in memories:
        name = b.fresh("rd")
        b.declare_net(name, mem_width, kind="wire")
        addr = b.expr(1)
        b.items.append(ast.ContinuousAssign(
            target=_ident(name),
            value=ast.Index(base=_ident(mem_name), index=addr),
        ))
        b.readable[name] = mem_width
        b.features.add("memory-read")

    # -- gated-latch comb cycle (defeats the levelizer) ---------------------
    if rng.random() < 0.3:
        b.features.add("comb-cycle")
        width = rng.choice((1, 4, 8))
        q, shadow = b.fresh("lq"), b.fresh("lqs")
        b.declare_net(q, width, kind="wire")
        b.declare_net(shadow, width, kind="wire")
        pool = b.read_pool()
        en = _ident(rng.choice(pool)[0]) if pool else _number(1, 1)
        data = b.expr(1)
        b.items.append(ast.ContinuousAssign(
            target=_ident(q),
            value=ast.Ternary(cond=en, then=data,
                              otherwise=_ident(shadow)),
        ))
        b.items.append(ast.ContinuousAssign(
            target=_ident(shadow), value=_ident(q),
        ))
        b.readable[q] = width

    # -- hierarchy: a pure-comb leaf instance -------------------------------
    leaf_modules = []
    if rng.random() < 0.35:
        leaf, out_widths = _make_leaf(b, rng)
        leaf_modules.append(leaf)
        conns = []
        for port in leaf.ports:
            decl = leaf.find_decl(port.name)
            if decl.direction == "input":
                conns.append(ast.PortConnection(
                    name=port.name, expr=b.expr(1)))
            else:
                out_name = b.fresh("iy")
                width = out_widths[port.name]
                b.declare_net(out_name, width, kind="wire")
                conns.append(ast.PortConnection(
                    name=port.name, expr=_ident(out_name)))
                b.readable[out_name] = width
        b.items.append(ast.Instance(
            module_name=leaf.name, name=b.fresh("u"), connections=conns,
        ))
        b.features.add("instance")

    # -- outputs ------------------------------------------------------------
    out_sources = wires + comb_regs + seq_regs
    for _ in range(rng.randrange(1, 3)):
        name = b.fresh("out")
        src = rng.choice(out_sources)
        width = b.signals[src]
        b.declare_port(name, "output", width)
        b.items.append(ast.ContinuousAssign(
            target=_ident(name), value=_ident(src),
        ))

    # -- optional initial block ---------------------------------------------
    if rng.random() < 0.35:
        b.features.add("initial")
        stmts = []
        for name in seq_regs[:1] + comb_regs[:0]:
            width = b.signals[name]
            stmts.append(ast.Assign(
                target=_ident(name),
                value=_number(rng.getrandbits(width), width),
                blocking=True,
            ))
        if rng.random() < 0.4:
            stmts.append(ast.SystemTaskCall(name="$display", args=[]))
        if stmts:
            b.items.append(ast.Initial(body=ast.Block(statements=stmts)))

    top = ast.Module(name=f"fuzz_top_{seed}", ports=b.ports, items=b.items)
    parts = [print_module(m) for m in leaf_modules] + [print_module(top)]
    return GeneratedDesign(
        seed=seed,
        source="\n".join(parts),
        inputs=inputs,
        has_clock=has_clock,
        has_reset=has_reset,
        features=sorted(b.features),
    )


def _emit_seq(b, seq_regs, fsm, memories, has_reset):
    """Sequential always blocks: counters, NBA/BA mixes, FSM, memory."""
    rng = b.rng
    b.features.add("seq")
    events = [("posedge", _ident("clk"))]
    if has_reset:
        events.append(("negedge", _ident("rst_n")))
    groups = _partition(rng, seq_regs)
    for group in groups:
        temps = []
        if rng.random() < 0.4:
            # A blocking temporary computed then consumed via NBA.
            t = b.fresh("t")
            width = rng.choice((2, 4, 8))
            b.declare_net(t, width, kind="reg")
            temps.append(t)
            b.features.add("ba-nba-mix")
        body_stmts = []
        for t in temps:
            body_stmts.append(ast.Assign(
                target=_ident(t), value=b.expr(2), blocking=True,
            ))
            b.readable[t] = b.signals[t]
        update = b.block(group, blocking=False, forbidden=(),
                         depth=rng.randrange(1, 3), min_stmts=1)
        if has_reset:
            reset = ast.Block(statements=[
                ast.Assign(target=_ident(name),
                           value=_number(0, b.signals[name]),
                           blocking=False)
                for name in group
            ])
            body_stmts.append(ast.If(
                cond=ast.Unary(op="!", operand=_ident("rst_n")),
                then_stmt=reset, else_stmt=update,
            ))
        else:
            body_stmts.append(update)
        b.items.append(ast.Always(
            sensitivity=ast.EventControl(events=list(events)),
            body=ast.Block(statements=body_stmts),
        ))
        for t in temps:
            b.readable.pop(t, None)
    for t in [n for n in b.signals if n.startswith("t")]:
        # Temps become readable once their driver exists.
        b.readable.setdefault(t, b.signals[t])

    if fsm is not None:
        name, width, states = fsm
        items = []
        for s in states:
            nxt = rng.choice(states)
            items.append(ast.CaseItem(
                labels=[_number(s, width)],
                body=ast.Block(statements=[ast.Assign(
                    target=_ident(name),
                    value=ast.Ternary(
                        cond=b.expr(1),
                        then=_number(nxt, width),
                        otherwise=_number(rng.choice(states), width),
                    ),
                    blocking=False,
                )]),
            ))
        items.append(ast.CaseItem(labels=[], body=ast.Block(statements=[
            ast.Assign(target=_ident(name), value=_number(states[0], width),
                       blocking=False)
        ])))
        transition = ast.Case(kind="case", subject=_ident(name),
                              items=items)
        if has_reset:
            body = ast.If(
                cond=ast.Unary(op="!", operand=_ident("rst_n")),
                then_stmt=ast.Block(statements=[ast.Assign(
                    target=_ident(name), value=_number(states[0], width),
                    blocking=False)]),
                else_stmt=ast.Block(statements=[transition]),
            )
        else:
            body = transition
        b.items.append(ast.Always(
            sensitivity=ast.EventControl(events=list(events)), body=body,
        ))

    for mem_name, mem_width, depth in memories:
        # One owning process per memory: every store (and the sync
        # read register) lives here, so the single-driver rule holds.
        addr_width = max(1, (depth - 1).bit_length())
        stmts = []
        for _ in range(rng.randrange(1, 3)):
            value = b.expr(1, want_width=mem_width)
            if rng.random() < 0.3:
                # A $signed cast makes the stored word carry the
                # signed flag — per-word signedness is architectural
                # state both engines must reproduce.
                value = ast.FunctionCall(name="$signed", args=[value])
                b.features.add("signed-memory-write")
            if rng.random() < 0.3:
                # Constant address, sometimes one past the end: a
                # dropped out-of-range store still counts an event
                # and wakes combinational readers.
                address = rng.randrange(0, depth + 1)
                index = _number(address, addr_width + 1)
                if address >= depth:
                    b.features.add("memory-oob-store")
                else:
                    b.features.add("memory-const-store")
            else:
                index = b.expr(1, want_width=addr_width)
            stmts.append(ast.Assign(
                target=ast.Index(base=_ident(mem_name), index=index),
                value=value,
                blocking=False,
            ))
        if rng.random() < 0.6:
            # Synchronous read port: NBA from a (possibly runtime)
            # address into a dedicated register.
            read_reg = b.fresh("mr")
            b.declare_net(read_reg, mem_width, kind="reg")
            stmts.append(ast.Assign(
                target=_ident(read_reg),
                value=ast.Index(base=_ident(mem_name),
                                index=b.expr(1, want_width=addr_width)),
                blocking=False,
            ))
            b.readable[read_reg] = mem_width
            b.features.add("memory-sync-read")
        b.items.append(ast.Always(
            sensitivity=ast.EventControl(events=list(events)),
            body=ast.Block(statements=stmts),
        ))
        b.features.add("memory-write")


def _emit_comb_always(b, comb_regs):
    """``always @(*)`` blocks over disjoint reg groups (idempotent:
    the body never reads what it writes, except for-loop vars)."""
    rng = b.rng
    if not comb_regs:
        return
    for group in _partition(rng, comb_regs):
        forbidden = frozenset(group)
        stmts = []
        if rng.random() < 0.3 and any(b.signals[n] >= 4 for n in group):
            stmts.append(_for_loop(b, group, forbidden))
        index_pool = ()
        if rng.random() < 0.3:
            pool = [n for n, w in b.read_pool(forbidden) if w <= 4]
            if pool:
                index_pool = (rng.choice(pool),)
        depth = rng.randrange(1, 3)
        for _ in range(rng.randrange(1, 3)):
            stmts.append(b.stmt(group, blocking=True,
                                forbidden=forbidden, depth=depth,
                                index_pool=index_pool))
        if rng.random() < 0.15:
            # Run-time ":" part-select bounds: legal for the
            # interpreter, NotCompilable for the codegen -> this
            # process demotes to the interpreter.
            wide = [n for n in group if b.signals[n] >= 4]
            pool = [n for n, w in b.read_pool(forbidden) if w <= 3]
            if wide and pool:
                name = rng.choice(wide)
                ix = _ident(rng.choice(pool))
                stmts.append(ast.Assign(
                    target=ast.PartSelect(
                        base=_ident(name),
                        msb=ast.Binary(op="+", left=ix,
                                       right=_number(1, 2)),
                        lsb=ix, mode=":",
                    ),
                    value=b.expr(1, forbidden),
                    blocking=True,
                ))
                b.features.add("demoted-process")
        b.items.append(ast.Always(
            sensitivity=ast.EventControl(star=True),
            body=ast.Block(statements=stmts),
        ))
        b.features.add("comb-always")


def _for_loop(b, group, forbidden):
    """A bounded for loop writing successive bits of an owned reg."""
    rng = b.rng
    wide = [n for n in group if b.signals[n] >= 4]
    name = rng.choice(wide)
    width = b.signals[name]
    ivar = b.fresh("i")
    b.declare_net(ivar, 32, kind="integer", signed=True)
    bound = rng.randrange(2, min(width, 6) + 1)
    body = ast.Block(statements=[ast.Assign(
        target=ast.Index(base=_ident(name), index=_ident(ivar)),
        value=b.expr(1, forbidden),
        blocking=True,
    )])
    b.features.add("for")
    return ast.For(
        init=ast.Assign(target=_ident(ivar), value=_number(0, 4),
                        blocking=True),
        cond=ast.Binary(op="<", left=_ident(ivar),
                        right=_number(bound, 4)),
        step=ast.Assign(target=_ident(ivar),
                        value=ast.Binary(op="+", left=_ident(ivar),
                                         right=_number(1, 2)),
                        blocking=True),
        body=body,
    )


def _make_leaf(b, rng):
    """A small pure-comb leaf module (its own namespace)."""
    index = b.counter
    name = f"fuzz_leaf_{index}"
    ports = []
    items = []
    in_names = []
    for k in range(rng.randrange(1, 3)):
        pname = f"a{k}"
        width = rng.choice((1, 4, 8))
        ports.append(ast.Port(name=pname))
        items.append(ast.NetDecl(names=[pname], direction="input",
                                 range=_range(width)))
        in_names.append((pname, width))
    out_widths = {}
    leaf_rng_pool = [(n, w) for n, w in in_names]
    for k in range(rng.randrange(1, 3)):
        pname = f"y{k}"
        width = rng.choice((1, 4, 8))
        ports.append(ast.Port(name=pname))
        items.append(ast.NetDecl(names=[pname], direction="output",
                                 range=_range(width)))
        out_widths[pname] = width
        # Simple expression over the leaf inputs only.
        left = _ident(rng.choice(leaf_rng_pool)[0])
        right = _ident(rng.choice(leaf_rng_pool)[0])
        op = rng.choice(("+", "^", "&", "|", "-"))
        items.append(ast.ContinuousAssign(
            target=_ident(pname),
            value=ast.Binary(op=op, left=left, right=right),
        ))
    module = ast.Module(name=name, ports=ports, items=items)
    return module, out_widths


def _partition(rng, names):
    """Split ``names`` into 1..N non-empty driver groups."""
    names = list(names)
    if not names:
        return []
    rng.shuffle(names)
    groups = []
    while names:
        take = rng.randrange(1, len(names) + 1)
        groups.append(names[:take])
        names = names[take:]
    return groups
