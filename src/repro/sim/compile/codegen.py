"""Process-body lowering for the fused kernel.

:class:`ProcessCompiler` turns one elaborated
:class:`~repro.sim.elaborate.Process` body into Python source lines
that :class:`~repro.sim.compile.kernel.KernelCompiler` assembles into
the design's generated kernel module.  There is one lowering, in two
placements (``mode``):

- ``"comb"`` — the body is inlined into the kernel's ``_settle`` at
  its topological level.  Signal reads are locals hoisted once per
  comb wave, and blocking stores rebind the local and commit once at
  the end of the body wherever no observer could see the intermediate
  value (see :meth:`KernelCompiler.defer_ok`);
- ``"fn"`` — a seq/initial body becomes a sibling function
  ``_fn{i}(sim)``.  Reads are slot attributes, whole-signal and memory
  stores go through the kernel's per-signal and per-memory committers,
  and non-blocking stores append ``(committer, value)`` tuples to the
  NBA region.

The generated code operates directly on the shared
:class:`~repro.sim.values.Value` machinery (so four-state semantics —
including x-propagation — are bit-identical to the tree-walking
interpreter by construction) but with every per-delta cost removed:

- node-type dispatch happens here, at compile time, not per activation;
- context widths (IEEE 1364's self-determined-width rules) are folded
  to integer literals wherever they are static — which is everywhere
  widths depend only on declarations, literals and parameters;
- signals, memories and scopes are rebound by name in the kernel's
  ``bind(design)`` prologue, and literal ``Value``\\ s are
  module-level constants (no per-read scope lookups);
- ``case`` statements with constant same-width labels lower to one
  dict probe over ``(bits, xmask)`` keys selecting an inlined arm.

Anything the compiler cannot prove it can reproduce exactly —
run-time-width part selects in contexts the interpreter sizes
dynamically, whole-memory assignments, unsupported system calls,
identifiers the interpreter would declare lazily — raises
:class:`NotCompilable`, and the kernel calls the interpreter for that
one process at its level.  Errors the interpreter raises at *run* time
(e.g. loop guards, unexecutable statements) must keep raising at run
time, which that demotion guarantees.
"""

from repro.hdl import ast
from repro.sim.elaborate import Signal
from repro.sim.engine import _MAX_LOOP_ITERATIONS
from repro.sim.eval import Evaluator, EvalError, Memory
from repro.sim.values import Value

_CONTEXT_METHODS = {
    "+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod",
    "&": "bit_and", "|": "bit_or", "^": "bit_xor",
}
_COMPARE_METHODS = {
    "==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge",
}
_LOGICAL_OPS = ("&&", "||")
_SHIFT_OPS = ("<<", ">>", "<<<", ">>>")

#: Unroll small replications; loop beyond this.
_REPEAT_UNROLL_LIMIT = 8


class NotCompilable(Exception):
    """This construct must stay on the interpreter to preserve exact
    semantics (including *when* run-time errors are raised)."""


class _ParamResolver:
    """Evaluator resolver over a scope's parameters only.

    Used for compile-time constant folding: any reference to a signal
    or memory raises, which the compiler treats as "not a compile-time
    constant" (the interpreter would read run-time state there)."""

    def __init__(self, scope):
        self.scope = scope

    def read(self, name):
        entry = self.scope.lookup(name)
        if isinstance(entry, Value):
            return entry
        raise EvalError(f"'{name}' is not a parameter")

    def read_memory(self, name):
        return None

    def width_of(self, name):
        entry = self.scope.lookup(name)
        if isinstance(entry, (Signal, Value)):
            return entry.width
        if isinstance(entry, Memory):
            return entry.width
        raise EvalError(f"unknown identifier '{name}'")

    def signed_of(self, name):
        entry = self.scope.lookup(name)
        if isinstance(entry, (Signal, Value)):
            return entry.signed
        return False


class ProcessCompiler:
    """Lowers one process body for a :class:`KernelCompiler`.

    ``mode`` is ``"comb"`` (inlined into ``_settle``) or ``"fn"`` (a
    seq/initial sibling function); see the module docstring.  Code
    generation is simulator-free: every object reference is emitted
    as a ``bind(design)`` or module-level assignment through
    ``kernel``, so one generated module serves every simulator of the
    design.
    """

    def __init__(self, kernel, process, mode):
        self.kernel = kernel
        self.process = process
        self.scope = process.scope
        self.nonblocking = process.kind == "seq"
        self.mode = mode
        self.pidx = kernel.proc_index[id(process)]
        self.lines = []
        self.indent = 1
        self.counter = 0
        self._const_folder = Evaluator(_ParamResolver(self.scope))
        # Code-coverage instrumentation mirrors the interpreter's:
        # live recording for seq/initial bodies only (comb bodies are
        # covered by schedule-invariant stable-point replay instead —
        # see repro.cover.code).  Recording calls are baked into the
        # generated source, so they cost nothing when coverage is off.
        cov = kernel.cov
        self.cov = cov if (cov is not None and process.kind != "comb") \
            else None
        #: id(Signal) -> (Signal, local name), insertion-ordered: the
        #: signals this body stores via deferred locals, committed once
        #: at the end of the inlined body.
        self.deferred = {}
        #: Helper bindings the emitted code needs ("_W", "_nba", ...).
        self.uses = set()
        if self.cov is not None:
            self.uses.add("_cov")
        #: True when the body makes engine-mediated writes, which
        #: consult ``sim._running`` for self-wake suppression.
        self.needs_running = False
        self._rhs_signed = None

    # -- plumbing -----------------------------------------------------------

    def emit(self, line):
        self.lines.append("    " * self.indent + line)

    def tmp(self):
        self.counter += 1
        return f"_t{self.pidx}_{self.counter}"

    def bind(self, obj):
        """Bind-time name of a signal or memory slot."""
        return self.kernel.bind_object(obj)

    def bind_value(self, value):
        """Module-level name of a constant ``Value``."""
        return self.kernel.bind_const(value)

    def signal_value_ref(self, entry):
        """Expression reading ``entry``'s current value: the hoisted
        local in a comb body, the slot attribute in a function."""
        if self.mode == "comb":
            return self.kernel.local_for(entry)
        return f"{self.bind(entry)}.value"

    # -- name resolution (mirrors Scope / _BindScope / _Executor) -----------

    # Elaboration declares every identifier eagerly; a miss here means
    # the interpreter would declare lazily at run time, so the process
    # must stay interpreted to match.

    def resolve_read(self, name):
        entry = self.scope.lookup(name)
        if entry is None:
            raise NotCompilable(f"undeclared identifier '{name}'")
        return entry

    def resolve_target(self, name):
        lookup = getattr(self.scope, "lookup_target", None)
        entry = lookup(name) if lookup else self.scope.lookup(name)
        if entry is None:
            raise NotCompilable(f"undeclared target '{name}'")
        return entry

    # -- compile-time widths (mirrors Evaluator.self_width) -----------------

    def const_int(self, expr):
        """Fold a constant expression using parameters only.

        Returns an int, or ``None`` for a constant x — exactly what the
        interpreter's ``const_int`` yields for the same expression.
        Raises :class:`NotCompilable` if the expression isn't a
        parameters-and-literals constant (the interpreter would read
        run-time state, so the fold would not be faithful)."""
        try:
            value = self._const_folder.eval(expr)
        except EvalError:
            raise NotCompilable("non-constant expression") from None
        if value.has_x:
            return None
        return value.to_int()

    def static_signed(self, expr):
        """Statically known signedness of ``expr``'s run-time value.

        Returns ``False``/``True`` when provable, ``None`` when the
        signedness can vary at run time.  Used only to gate the inline
        integer fast paths (``None`` keeps the faithful ``Value``
        method call), so being conservative is always safe.

        Note a *signed signal* is ``None``, not ``True``: its reset
        value ``Value.all_x`` is constructed unsigned, so the stored
        signedness flips on the first write."""
        if isinstance(expr, ast.Number):
            return expr.signed
        if isinstance(expr, ast.Identifier):
            entry = self.resolve_read(expr.name)
            if isinstance(entry, Signal):
                return False if not entry.signed else None
            if isinstance(entry, Value):
                return entry.signed
            return None
        if isinstance(expr, ast.Unary):
            if expr.op == "+":
                return self.static_signed(expr.operand)
            # Reductions, !, ~ and unary minus all construct fresh
            # (unsigned) Values.
            return False
        if isinstance(expr, ast.Binary):
            if expr.op in ("+", "-", "*", "/", "%"):
                a = self.static_signed(expr.left)
                b = self.static_signed(expr.right)
                if a is False or b is False:
                    return False
                if a is True and b is True:
                    return True
                return None
            if expr.op == ">>>":
                # shr propagates the left operand's signedness.
                return self.static_signed(expr.left)
            # Bitwise, logical, compares, shl, power: unsigned results.
            return False
        if isinstance(expr, ast.Ternary):
            a = self.static_signed(expr.then)
            b = self.static_signed(expr.otherwise)
            # The x-merge branch builds an unsigned Value, so only a
            # uniformly unsigned ternary is statically unsigned.
            if a is False and b is False:
                return False
            return None
        if isinstance(expr, (ast.Concat, ast.Repeat)):
            return False
        if isinstance(expr, ast.Index):
            if isinstance(expr.base, ast.Identifier):
                entry = self.resolve_read(expr.base.name)
                if isinstance(entry, Memory):
                    return None  # words keep the signedness written
            return False  # select_bit constructs unsigned
        if isinstance(expr, ast.PartSelect):
            return False
        if isinstance(expr, ast.FunctionCall):
            if expr.name == "$signed":
                return True
            return False
        return None

    def self_width(self, expr):
        if isinstance(expr, ast.Number):
            return expr.width or 32
        if isinstance(expr, ast.Identifier):
            entry = self.resolve_read(expr.name)
            return entry.width
        if isinstance(expr, ast.Unary):
            if expr.op in ("&", "|", "^", "~&", "~|", "~^", "^~", "!"):
                return 1
            return self.self_width(expr.operand)
        if isinstance(expr, ast.Binary):
            if expr.op in _COMPARE_METHODS or expr.op in ("===", "!==") \
                    or expr.op in _LOGICAL_OPS:
                return 1
            if expr.op in _SHIFT_OPS or expr.op == "**":
                return self.self_width(expr.left)
            return max(self.self_width(expr.left), self.self_width(expr.right))
        if isinstance(expr, ast.Ternary):
            return max(self.self_width(expr.then),
                       self.self_width(expr.otherwise))
        if isinstance(expr, ast.Concat):
            return sum(self.self_width(p) for p in expr.parts)
        if isinstance(expr, ast.Repeat):
            count = self.const_int(expr.count)
            return (count or 1) * self.self_width(expr.value)
        if isinstance(expr, ast.Index):
            if isinstance(expr.base, ast.Identifier):
                entry = self.resolve_read(expr.base.name)
                if isinstance(entry, Memory):
                    return entry.width
            return 1
        if isinstance(expr, ast.PartSelect):
            if expr.mode == ":":
                msb = self.const_int(expr.msb)
                lsb = self.const_int(expr.lsb)
                if msb is None or lsb is None:
                    return 1
                return abs(msb - lsb) + 1
            width = self.const_int(expr.lsb)
            return width or 1
        if isinstance(expr, ast.FunctionCall):
            if expr.name in ("$signed", "$unsigned") and expr.args:
                return self.self_width(expr.args[0])
            return 32
        raise NotCompilable(f"cannot size {type(expr).__name__}")

    # -- expressions ---------------------------------------------------------

    def compile_expr(self, expr, ctx_width=None):
        """Emit code computing ``expr``; returns ``(py_expr, width)``.

        ``py_expr`` is a Python expression (a temp name or an inline
        attribute read) holding the resulting ``Value``; ``width`` is
        its statically known bit width, or ``None`` when the width is
        only known at run time (a run-time ``ctx`` resize guard is then
        emitted by the caller's node, mirroring the interpreter)."""
        if isinstance(expr, ast.Number):
            width = expr.width or 32
            if ctx_width:
                width = max(width, ctx_width)
            value = Value(expr.value, width, expr.xmask, expr.signed)
            return self.bind_value(value), width

        if isinstance(expr, ast.Identifier):
            entry = self.resolve_read(expr.name)
            if isinstance(entry, Signal):
                var = self.signal_value_ref(entry)
                if ctx_width and ctx_width > entry.width:
                    out = self.tmp()
                    self.emit(f"{out} = {var}.resize({ctx_width})")
                    return out, ctx_width
                return var, entry.width
            if isinstance(entry, Value):
                value = entry
                if ctx_width and ctx_width > value.width:
                    value = value.resize(ctx_width)
                return self.bind_value(value), value.width
            # Memory read without an index: interpreter raises at run
            # time (HdlElaborationError) — keep that path interpreted.
            raise NotCompilable(f"'{expr.name}' is a memory, not a value")

        if isinstance(expr, ast.Unary):
            return self._compile_unary(expr, ctx_width)

        if isinstance(expr, ast.Binary):
            return self._compile_binary(expr, ctx_width)

        if isinstance(expr, ast.Ternary):
            return self._compile_ternary(expr, ctx_width)

        if isinstance(expr, ast.Concat):
            if not expr.parts:
                raise NotCompilable("empty concatenation")
            compiled = []
            total = 0
            static = True
            for part in expr.parts:
                width = self.self_width(part)
                var, vw = self.compile_expr(part)
                compiled.append((var, vw, width))
                total += width
                if vw != width:
                    static = False
            out = self.tmp()
            if static:
                # Every part is at its exact static width: one fused
                # shift-or construction replaces the per-part
                # resize().concat() allocation chain (concat reads
                # bits/xmask raw, so part signedness is irrelevant).
                offset = total
                bits_terms = []
                xmask_terms = []
                for var, _vw, width in compiled:
                    offset -= width
                    if offset:
                        bits_terms.append(f"({var}.bits << {offset})")
                        xmask_terms.append(f"({var}.xmask << {offset})")
                    else:
                        bits_terms.append(f"{var}.bits")
                        xmask_terms.append(f"{var}.xmask")
                self.emit(f"{out} = Value({' | '.join(bits_terms)}, "
                          f"{total}, {' | '.join(xmask_terms)})")
            else:
                code = None
                for var, _vw, width in compiled:
                    piece = f"{var}.resize({width})"
                    code = piece if code is None else \
                        f"{code}.concat({piece})"
                self.emit(f"{out} = {code}")
            if ctx_width and ctx_width > total:
                self.emit(f"{out} = {out}.resize({ctx_width})")
                return out, ctx_width
            return out, total

        if isinstance(expr, ast.Repeat):
            return self._compile_repeat(expr, ctx_width)

        if isinstance(expr, ast.Index):
            return self._compile_index(expr, ctx_width)

        if isinstance(expr, ast.PartSelect):
            return self._compile_part_select(expr, ctx_width)

        if isinstance(expr, ast.FunctionCall):
            return self._compile_call(expr, ctx_width)

        raise NotCompilable(f"cannot compile {type(expr).__name__}")

    def _raw_operand(self, expr, width):
        """Reference reading ``expr`` raw for an unsigned fast path,
        or ``None`` when raw reading is not provably safe.

        Zero-extension is the identity on the ``(bits, xmask)``
        integer pair, so a statically unsigned identifier or literal
        narrower than ``width`` can be read without the ``resize``
        allocation — as long as the consumer only reads those two
        fields and constructs its result at ``width`` itself."""
        if isinstance(expr, ast.Identifier):
            entry = self.resolve_read(expr.name)
            if isinstance(entry, Signal) and not entry.signed \
                    and entry.width <= width:
                return self.signal_value_ref(entry)
            if isinstance(entry, Value) and not entry.signed \
                    and entry.width <= width:
                return self.bind_value(entry)
        if isinstance(expr, ast.Number) and not expr.signed:
            literal_width = expr.width or 32
            if literal_width <= width:
                return self.bind_value(
                    Value(expr.value, literal_width, expr.xmask)
                )
        return None

    def compile_operand_raw(self, expr, width):
        """Raw-read ``expr`` when safe, else the context-resized
        compile.  Only for consumers whose result construction at
        ``width`` makes any narrower (sub-context) operand width
        unobservable — true for the binary bits/xmask fast paths,
        NOT for ``~``, whose result width follows the operand (see
        ``_compile_unary``)."""
        raw = self._raw_operand(expr, width)
        if raw is not None:
            return raw
        var, _ = self.compile_expr(expr, width)
        return var

    def _runtime_int(self, expr):
        """Compile ``expr`` and reduce it to a plain int (None if x)."""
        var, _ = self.compile_expr(expr)
        out = self.tmp()
        self.emit(f"{out} = None if {var}.xmask else {var}.bits")
        return out

    def _ctx_guard(self, var, width, ctx_width):
        """Apply the interpreter's ``ctx_width > result.width`` resize."""
        if not ctx_width:
            return var, width
        if width is not None:
            if ctx_width > width:
                out = self.tmp()
                self.emit(f"{out} = {var}.resize({ctx_width})")
                return out, ctx_width
            return var, width
        self.emit(f"if {ctx_width} > {var}.width:")
        self.indent += 1
        self.emit(f"{var} = {var}.resize({ctx_width})")
        self.indent -= 1
        return var, None

    def _compile_unary(self, expr, ctx_width):
        op = expr.op
        if op in ("&", "~&", "|", "~|", "^", "~^", "^~"):
            var, _ = self.compile_expr(expr.operand)
            reduce = {"&": "reduce_and", "~&": "reduce_and",
                      "|": "reduce_or", "~|": "reduce_or",
                      "^": "reduce_xor", "~^": "reduce_xor",
                      "^~": "reduce_xor"}[op]
            out = self.tmp()
            if op in ("~&", "~|", "~^", "^~"):
                self.emit(f"{out} = {var}.{reduce}().bit_not().resize(1)")
            else:
                self.emit(f"{out} = {var}.{reduce}()")
            return out, 1
        if op == "!":
            # Inline truthiness over the bits/xmask pair: a definite 1
            # bit -> 0, all-known-0 -> 1, otherwise x.
            var, _ = self.compile_expr(expr.operand)
            out = self.tmp()
            x1 = self.bind_value(Value.all_x(1))
            zero = self.bind_value(Value(0, 1))
            one = self.bind_value(Value(1, 1))
            self.emit(f"{out} = {zero} if {var}.bits else "
                      f"({x1} if {var}.xmask else {one})")
            return out, 1
        width = max(self.self_width(expr.operand), ctx_width or 0)
        if op == "~":
            # The interpreter complements at the *operand's* width —
            # which for identifiers/literals is the context width
            # (their eval widens), but for self-determined 1-bit
            # operands like compares stays 1.  So the fused
            # at-context-width construction is only valid for operand
            # forms the evaluator widens: exactly the raw-readable
            # ones.
            raw = self._raw_operand(expr.operand, width)
            if raw is not None:
                out = self.tmp()
                self.emit(f"{out} = Value(~{raw}.bits, {width}, "
                          f"{raw}.xmask)")
                return out, width
        var, vw = self.compile_expr(expr.operand, width)
        if op == "~":
            out = self.tmp()
            if vw is not None:
                # bit_not keeps the operand's width/xmask and drops
                # signedness; with the width static this is one masked
                # constructor call.
                self.emit(f"{out} = Value(~{var}.bits, {vw}, {var}.xmask)")
            else:
                self.emit(f"{out} = {var}.bit_not()")
            return out, vw
        if op == "-":
            zero = self.bind_value(Value(0, width))
            out = self.tmp()
            self.emit(f"{out} = {zero}.sub({var}, {width})")
            return out, width
        if op == "+":
            return var, vw
        raise NotCompilable(f"unknown unary operator {op!r}")

    def _compile_binary(self, expr, ctx_width):
        op = expr.op
        if op in _LOGICAL_OPS:
            # Inline three-valued truth over bits/xmask: truthy iff a
            # definite 1 bit (bits != 0), definitely false iff fully
            # known zero (bits == xmask == 0), x otherwise.  Note no
            # short-circuit: the interpreter evaluates both sides.
            lvar, _ = self.compile_expr(expr.left)
            rvar, _ = self.compile_expr(expr.right)
            out = self.tmp()
            x1 = self.bind_value(Value.all_x(1))
            zero = self.bind_value(Value(0, 1))
            one = self.bind_value(Value(1, 1))
            if op == "&&":
                self.emit(
                    f"if not ({lvar}.bits | {lvar}.xmask) "
                    f"or not ({rvar}.bits | {rvar}.xmask):"
                )
                self.indent += 1
                self.emit(f"{out} = {zero}")
                self.indent -= 1
                self.emit(f"elif not {lvar}.bits or not {rvar}.bits:")
                self.indent += 1
                self.emit(f"{out} = {x1}")
                self.indent -= 1
                self.emit("else:")
                self.indent += 1
                self.emit(f"{out} = {one}")
                self.indent -= 1
            else:
                self.emit(f"if {lvar}.bits or {rvar}.bits:")
                self.indent += 1
                self.emit(f"{out} = {one}")
                self.indent -= 1
                self.emit(f"elif {lvar}.xmask or {rvar}.xmask:")
                self.indent += 1
                self.emit(f"{out} = {x1}")
                self.indent -= 1
                self.emit("else:")
                self.indent += 1
                self.emit(f"{out} = {zero}")
                self.indent -= 1
            return out, 1

        if op in _COMPARE_METHODS or op in ("===", "!=="):
            width = max(self.self_width(expr.left),
                        self.self_width(expr.right))
            unsigned = (
                self.static_signed(expr.left) is False
                and self.static_signed(expr.right) is False
            )
            lw = rw = None
            if unsigned:
                # All unsigned comparisons below read bits/xmask only,
                # which zero-extension cannot change.
                lvar = self.compile_operand_raw(expr.left, width)
                rvar = self.compile_operand_raw(expr.right, width)
            else:
                lvar, lw = self.compile_expr(expr.left, width)
                rvar, rw = self.compile_expr(expr.right, width)
            out = self.tmp()
            if op == "===":
                if unsigned:
                    # Zero-extension never changes an unsigned value's
                    # bits/xmask integers, so === is width-independent.
                    self.emit(
                        f"{out} = {self.bind_value(Value(1, 1))} if "
                        f"({lvar}.bits == {rvar}.bits and "
                        f"{lvar}.xmask == {rvar}.xmask) "
                        f"else {self.bind_value(Value(0, 1))}"
                    )
                else:
                    self.emit(f"{out} = {lvar}.case_eq({rvar})")
            elif op == "!==":
                if unsigned:
                    self.emit(
                        f"{out} = {self.bind_value(Value(0, 1))} if "
                        f"({lvar}.bits == {rvar}.bits and "
                        f"{lvar}.xmask == {rvar}.xmask) "
                        f"else {self.bind_value(Value(1, 1))}"
                    )
                else:
                    self.emit(f"{out} = {lvar}.case_eq({rvar})"
                              ".bit_not().resize(1)")
            elif unsigned:
                # Any x operand -> x result; otherwise both operands
                # compare as their (width-independent) unsigned ints.
                py_op = {"==": "==", "!=": "!=", "<": "<", "<=": "<=",
                         ">": ">", ">=": ">="}[op]
                x1 = self.bind_value(Value.all_x(1))
                one = self.bind_value(Value(1, 1))
                zero = self.bind_value(Value(0, 1))
                self.emit(f"if {lvar}.xmask or {rvar}.xmask:")
                self.indent += 1
                self.emit(f"{out} = {x1}")
                self.indent -= 1
                self.emit("else:")
                self.indent += 1
                self.emit(f"{out} = {one} if {lvar}.bits {py_op} "
                          f"{rvar}.bits else {zero}")
                self.indent -= 1
            elif lw == width and rw == width and \
                    self._inline_compare(out, op, lvar, rvar, width):
                pass  # emitted the equal-width inline compare
            else:
                method = _COMPARE_METHODS[op]
                self.emit(f"{out} = {lvar}.{method}({rvar})")
            return out, 1

        if op in _SHIFT_OPS:
            width = max(self.self_width(expr.left), ctx_width or 0)
            amount = None
            have_const = True
            try:
                amount = self.const_int(expr.right)
            except NotCompilable:
                have_const = False
            if have_const and self.static_signed(expr.left) is False:
                # Constant shift of an unsigned operand: fold the
                # x-amount and clamp checks, inline the construction
                # (>>> on an unsigned value is the logical shift).
                if amount is None:
                    return self.bind_value(Value.all_x(width)), width
                out = self.tmp()
                if op in ("<<", "<<<"):
                    if amount >= width:
                        return self.bind_value(Value(0, width)), width
                    raw = self.compile_operand_raw(expr.left, width)
                    self.emit(f"{out} = Value({raw}.bits << {amount}, "
                              f"{width}, {raw}.xmask << {amount})")
                else:
                    clamped = min(amount, width)
                    raw = self.compile_operand_raw(expr.left, width)
                    self.emit(f"{out} = Value({raw}.bits >> {clamped}, "
                              f"{width}, {raw}.xmask >> {clamped})")
                return out, width
            lvar, _ = self.compile_expr(expr.left, width)
            avar, _ = self.compile_expr(expr.right)
            out = self.tmp()
            if op in ("<<", "<<<"):
                self.emit(f"{out} = {lvar}.shl({avar}, {width})")
            else:
                arith = "True" if op == ">>>" else "False"
                self.emit(f"{out} = {lvar}.shr({avar}, {width}, "
                          f"arithmetic={arith})")
            return out, width

        if op == "**":
            width = max(self.self_width(expr.left), ctx_width or 0)
            lvar, _ = self.compile_expr(expr.left, width)
            rvar, _ = self.compile_expr(expr.right)
            out = self.tmp()
            self.emit(f"{out} = {lvar}.power({rvar}, {width})")
            return out, width

        if op in _CONTEXT_METHODS or op in ("^~", "~^"):
            width = max(
                self.self_width(expr.left),
                self.self_width(expr.right),
                ctx_width or 0,
            )
            unsigned = (
                self.static_signed(expr.left) is False
                and self.static_signed(expr.right) is False
            )
            fast = unsigned and (
                op in ("+", "-", "*", "&", "|", "^", "^~", "~^")
            )
            if fast:
                # These branches construct the result at ``width``
                # from bits/xmask directly; raw (unresized) unsigned
                # operands are exact.
                lvar = self.compile_operand_raw(expr.left, width)
                rvar = self.compile_operand_raw(expr.right, width)
            else:
                lvar, _ = self.compile_expr(expr.left, width)
                rvar, _ = self.compile_expr(expr.right, width)
            out = self.tmp()
            if unsigned and op in ("+", "-", "*"):
                # Unsigned modular arithmetic commutes with masking, so
                # the raw-int op followed by the constructor's width
                # mask is exact at any operand width; x operands are
                # pessimistic all-x, as in Value.add/sub/mul.
                py_op = op
                xw = self.bind_value(Value.all_x(width))
                self.emit(f"if {lvar}.xmask or {rvar}.xmask:")
                self.indent += 1
                self.emit(f"{out} = {xw}")
                self.indent -= 1
                self.emit("else:")
                self.indent += 1
                self.emit(f"{out} = Value({lvar}.bits {py_op} "
                          f"{rvar}.bits, {width})")
                self.indent -= 1
            elif unsigned and op == "&":
                # 0 & x == 0 stays known; mirror of Value.bit_and with
                # zero-extension elided (a no-op on unsigned ints).
                kz = self.tmp()
                self.emit(f"{kz} = (~{lvar}.bits & ~{lvar}.xmask) | "
                          f"(~{rvar}.bits & ~{rvar}.xmask)")
                self.emit(f"{out} = Value({lvar}.bits & {rvar}.bits, "
                          f"{width}, ({lvar}.xmask | {rvar}.xmask) "
                          f"& ~{kz})")
            elif unsigned and op == "|":
                ko = self.tmp()
                xm = self.tmp()
                self.emit(f"{ko} = ({lvar}.bits & ~{lvar}.xmask) | "
                          f"({rvar}.bits & ~{rvar}.xmask)")
                self.emit(f"{xm} = ({lvar}.xmask | {rvar}.xmask) & ~{ko}")
                self.emit(f"{out} = Value(({lvar}.bits | {rvar}.bits) "
                          f"& ~{xm}, {width}, {xm})")
            elif unsigned and op == "^":
                self.emit(f"{out} = Value({lvar}.bits ^ {rvar}.bits, "
                          f"{width}, {lvar}.xmask | {rvar}.xmask)")
            elif unsigned and op in ("^~", "~^"):
                # xnor: xor then complement at the same static width.
                xm = self.tmp()
                self.emit(f"{xm} = {lvar}.xmask | {rvar}.xmask")
                self.emit(f"{out} = Value(~({lvar}.bits ^ {rvar}.bits), "
                          f"{width}, {xm})")
            elif op in ("^~", "~^"):
                self.emit(f"{out} = {lvar}.bit_xor({rvar}, {width})"
                          ".bit_not()")
            else:
                method = _CONTEXT_METHODS[op]
                self.emit(f"{out} = {lvar}.{method}({rvar}, {width})")
            return out, width

        raise NotCompilable(f"unknown binary operator {op!r}")

    def _inline_compare(self, out, op, lvar, rvar, width):
        """Equal-width relational compare without the method call.

        Mirrors ``Value._compare`` for operands already at ``width``:
        any x operand -> x; the signedness of the comparison is the
        conjunction of the *runtime* signed flags (resize at equal
        width only rewrites the flag), and two's-complement conversion
        at a static width is a conditional subtract.  Equality needs
        no sign conversion at all (two's complement is bijective).
        Returns True when it emitted code."""
        if op not in ("==", "!=", "<", "<=", ">", ">="):
            return False
        x1 = self.bind_value(Value.all_x(1))
        one = self.bind_value(Value(1, 1))
        zero = self.bind_value(Value(0, 1))
        self.emit(f"if {lvar}.xmask or {rvar}.xmask:")
        self.indent += 1
        self.emit(f"{out} = {x1}")
        self.indent -= 1
        self.emit("else:")
        self.indent += 1
        if op in ("==", "!="):
            self.emit(f"{out} = {one} if {lvar}.bits {op} {rvar}.bits "
                      f"else {zero}")
            self.indent -= 1
            return True
        half = 1 << (width - 1)
        full = 1 << width
        a = self.tmp()
        b = self.tmp()
        self.emit(f"{a} = {lvar}.bits")
        self.emit(f"{b} = {rvar}.bits")
        self.emit(f"if {lvar}.signed and {rvar}.signed:")
        self.indent += 1
        self.emit(f"if {a} >= {half}:")
        self.indent += 1
        self.emit(f"{a} -= {full}")
        self.indent -= 1
        self.emit(f"if {b} >= {half}:")
        self.indent += 1
        self.emit(f"{b} -= {full}")
        self.indent -= 1
        self.indent -= 1
        self.emit(f"{out} = {one} if {a} {op} {b} else {zero}")
        self.indent -= 1
        return True

    def _compile_ternary(self, expr, ctx_width):
        cvar, _ = self.compile_expr(expr.cond)
        width = max(
            self.self_width(expr.then),
            self.self_width(expr.otherwise),
            ctx_width or 0,
        )
        out = self.tmp()
        # Truthiness inlined: a definite 1 bit selects `then`, a fully
        # known zero selects `otherwise`, x merges bitwise agreement.
        self.emit(f"if {cvar}.bits:")
        self.indent += 1
        avar2, aw = self.compile_expr(expr.then, width)
        self.emit(f"{out} = {avar2}")
        self.indent -= 1
        self.emit(f"elif {cvar}.xmask:")
        self.indent += 1
        avar, _ = self.compile_expr(expr.then, width)
        bvar, _ = self.compile_expr(expr.otherwise, width)
        agree = self.tmp()
        self.emit(f"{agree} = ~({avar}.bits ^ {bvar}.bits) & "
                  f"~({avar}.xmask | {bvar}.xmask)")
        self.emit(f"{out} = Value({avar}.bits, {width}, ~{agree})")
        self.indent -= 1
        self.emit("else:")
        self.indent += 1
        bvar2, bw = self.compile_expr(expr.otherwise, width)
        self.emit(f"{out} = {bvar2}")
        self.indent -= 1
        static = width if (aw == width and bw == width) else None
        return out, static

    def _compile_repeat(self, expr, ctx_width):
        count = self.const_int(expr.count)
        if count is None or count < 0:
            raise NotCompilable("replication count is unknown")
        unit_width = self.self_width(expr.value)
        out = self.tmp()
        if count == 0:
            self.emit(f"{out} = {self.bind_value(Value(0, 1))}")
            total = 1
        else:
            uvar, _ = self.compile_expr(expr.value)
            unit = self.tmp()
            self.emit(f"{unit} = {uvar}.resize({unit_width})")
            total = count * unit_width
            if count <= _REPEAT_UNROLL_LIMIT:
                code = unit
                for _ in range(count - 1):
                    code = f"{code}.concat({unit})"
                self.emit(f"{out} = {code}")
            else:
                self.emit(f"{out} = {unit}")
                self.emit(f"for _ in range({count - 1}):")
                self.indent += 1
                self.emit(f"{out} = {out}.concat({unit})")
                self.indent -= 1
        if ctx_width and ctx_width > total:
            self.emit(f"{out} = {out}.resize({ctx_width})")
            return out, ctx_width
        return out, total

    def _compile_index(self, expr, ctx_width):
        const_index = None
        have_const = True
        try:
            const_index = self.const_int(expr.index)
        except NotCompilable:
            have_const = False
        if isinstance(expr.base, ast.Identifier):
            entry = self.resolve_read(expr.base.name)
            if isinstance(entry, Memory):
                ivar = (repr(const_index) if have_const
                        else self._runtime_int(expr.index))
                out = self.tmp()
                self.emit(f"{out} = {self.bind(entry)}.read({ivar})")
                return self._ctx_guard(out, entry.width, ctx_width)
        bvar, bw = self.compile_expr(expr.base)
        out = self.tmp()
        if have_const and bw is not None:
            # Constant index on a statically sized base: fold the
            # bound checks and inline select_bit's construction.
            if const_index is None or const_index < 0 \
                    or const_index >= bw:
                return self._ctx_guard(
                    self.bind_value(Value.all_x(1)), 1, ctx_width
                )
            self.emit(f"{out} = Value(({bvar}.bits >> {const_index}) "
                      f"& 1, 1, ({bvar}.xmask >> {const_index}) & 1)")
            return self._ctx_guard(out, 1, ctx_width)
        ivar = (repr(const_index) if have_const
                else self._runtime_int(expr.index))
        self.emit(f"{out} = {bvar}.select_bit({ivar})")
        return self._ctx_guard(out, 1, ctx_width)

    def _compile_part_select(self, expr, ctx_width):
        bvar, bw = self.compile_expr(expr.base)
        out = self.tmp()
        if expr.mode == ":":
            try:
                msb = self.const_int(expr.msb)
                lsb = self.const_int(expr.lsb)
            except NotCompilable:
                msb = lsb = None
                mvar = self._runtime_int(expr.msb)
                lvar = self._runtime_int(expr.lsb)
                self.emit(f"{out} = {bvar}.select_range({mvar}, {lvar})")
                return self._ctx_guard(out, None, ctx_width)
            if msb is not None and lsb is not None and \
                    0 <= lsb <= msb and bw is not None and msb < bw:
                # Fully in-range static slice: inline select_range's
                # shift (the constructor masks to the slice width).
                width = msb - lsb + 1
                shift = f".bits >> {lsb}" if lsb else ".bits"
                xshift = f".xmask >> {lsb}" if lsb else ".xmask"
                self.emit(f"{out} = Value({bvar}{shift}, {width}, "
                          f"{bvar}{xshift})")
                return self._ctx_guard(out, width, ctx_width)
            self.emit(f"{out} = {bvar}.select_range({msb!r}, {lsb!r})")
            if msb is None or lsb is None or msb < lsb:
                width = 1 if (msb is None or lsb is None) \
                    else max(1, msb - lsb + 1)
            else:
                width = msb - lsb + 1
            return self._ctx_guard(out, width, ctx_width)
        # Indexed part select: the base offset may be a run-time value
        # (the interpreter evaluates it per activation); the width is
        # constant in the supported subset.
        try:
            width = self.const_int(expr.lsb) or 1
        except NotCompilable:
            raise NotCompilable("non-constant indexed part-select width")
        svar = self._runtime_int(expr.msb)
        xw = self.bind_value(Value.all_x(width))
        self.emit(f"if {svar} is None:")
        self.indent += 1
        self.emit(f"{out} = {xw}")
        self.indent -= 1
        self.emit("else:")
        self.indent += 1
        if expr.mode == "+:":
            self.emit(f"{out} = {bvar}.select_range("
                      f"{svar} + {width - 1}, {svar})")
        else:  # "-:"
            self.emit(f"{out} = {bvar}.select_range("
                      f"{svar}, {svar} - {width - 1})")
        self.indent -= 1
        return self._ctx_guard(out, width, ctx_width)

    def _compile_call(self, expr, ctx_width):
        if expr.name in ("$signed", "$unsigned") and expr.args:
            var, width = self.compile_expr(expr.args[0])
            signed = "True" if expr.name == "$signed" else "False"
            out = self.tmp()
            self.emit(f"{out} = Value({var}.bits, {var}.width, "
                      f"{var}.xmask, signed={signed})")
            return self._ctx_guard(out, width, ctx_width)
        if expr.name == "$clog2" and expr.args:
            var, _ = self.compile_expr(expr.args[0])
            out = self.tmp()
            count = self.tmp()
            self.emit(f"if {var}.xmask:")
            self.indent += 1
            self.emit(f"{out} = {self.bind_value(Value.all_x(32))}")
            self.indent -= 1
            self.emit("else:")
            self.indent += 1
            self.emit(f"{count} = 0")
            self.emit(f"while (1 << {count}) < {var}.bits:")
            self.indent += 1
            self.emit(f"{count} += 1")
            self.indent -= 1
            self.emit(f"{out} = Value({count}, 32)")
            self.indent -= 1
            # NB: the interpreter applies no ctx resize to $clog2.
            return out, 32
        if expr.name in ("$time", "$stime"):
            out = self.tmp()
            scope = self.kernel.bind_scope(self.process)
            self.emit(f"{out} = Value(getattr({scope}, 'time', 0), 64)")
            return out, 64
        if expr.name == "$random":
            out = self.tmp()
            scope = self.kernel.bind_scope(self.process)
            self.emit(f"{out} = Value(getattr({scope}, "
                      "'random_value', 0), 32)")
            return out, 32
        raise NotCompilable(f"unsupported function {expr.name}")

    # -- statements ----------------------------------------------------------

    def compile_stmt(self, stmt):
        if self.cov is not None:
            sid = self.cov.stmt_id.get(id(stmt))
            if sid is not None:
                self.emit(f"_CS({sid!r})")
        if isinstance(stmt, ast.Block):
            for inner in stmt.statements:
                self.compile_stmt(inner)
            return
        if isinstance(stmt, ast.Assign):
            self._compile_assign(stmt)
            return
        if isinstance(stmt, ast.If):
            # `if cond.is_truthy():` in the interpreter treats both
            # False and None (x) as the else path, so the inline test
            # is just "any definite 1 bit".
            cvar, _ = self.compile_expr(stmt.cond)
            sid = (
                self.cov.stmt_id.get(id(stmt))
                if self.cov is not None else None
            )
            self.emit(f"if {cvar}.bits:")
            self.indent += 1
            if sid is not None:
                self.emit(f"_CB({sid!r}, 'T')")
            self._compile_branch(stmt.then_stmt)
            self.indent -= 1
            if stmt.else_stmt is not None or sid is not None:
                # With no else body the _CB call alone keeps the
                # generated else-block non-empty.
                self.emit("else:")
                self.indent += 1
                if sid is not None:
                    self.emit(f"_CB({sid!r}, 'F')")
                if stmt.else_stmt is not None:
                    self._compile_branch(stmt.else_stmt)
                self.indent -= 1
            return
        if isinstance(stmt, ast.Case):
            self._compile_case(stmt)
            return
        if isinstance(stmt, ast.For):
            self._compile_for(stmt)
            return
        if isinstance(stmt, ast.While):
            self._compile_while(stmt)
            return
        if isinstance(stmt, (ast.NullStmt, ast.SystemTaskCall)):
            return
        raise NotCompilable(f"cannot execute {type(stmt).__name__}")

    def _compile_branch(self, stmt):
        mark = len(self.lines)
        self.compile_stmt(stmt)
        if len(self.lines) == mark:
            self.emit("pass")

    # -- case ----------------------------------------------------------------

    def _const_label(self, label_expr, subject_width):
        """Fold one case label; returns the label :class:`Value` or
        ``None`` when the label is not a parameters-and-literals
        constant (the chain fallback then evaluates it at run time)."""
        try:
            value = self._const_folder.eval(label_expr, subject_width)
        except EvalError:
            return None
        return value

    def _compile_case(self, stmt):
        svar, swidth = self.compile_expr(stmt.subject)
        items = []  # (labels, body, is_default)
        default_item = None
        for item in stmt.items:
            if item.is_default:
                # Last default wins, matching the interpreter's scan.
                default_item = item
                continue
            items.append(item)

        folded = None
        if swidth is not None:
            folded = []
            for item in items:
                for label_expr in item.labels:
                    value = self._const_label(label_expr, swidth)
                    if value is None:
                        folded = None
                        break
                    folded.append((value, item))
                if folded is None:
                    break

        if (
            stmt.kind == "case"
            and folded is not None
            and folded
            and len({max(swidth, v.width) for v, _ in folded}) == 1
        ):
            self._compile_case_dict(stmt, svar, swidth, folded,
                                    default_item)
            return
        self._compile_case_chain(stmt, svar, swidth, items, default_item)

    def _compile_case_dict(self, stmt, svar, swidth, folded, default_item):
        """Constant same-width ``case``: one dict probe mapping
        ``(bits, xmask)`` to a small arm index, arms inlined as an
        integer if/elif chain (arms must stay inline so they can read
        and write the kernel's hoisted locals)."""
        sid = (
            self.cov.stmt_id.get(id(stmt))
            if self.cov is not None else None
        )
        width = max(swidth, folded[0][0].width)
        dispatch = {}
        arm_of = {}
        for value, item in folded:
            key = (value.resize(width).bits, value.resize(width).xmask)
            if id(item) not in arm_of:
                arm_of[id(item)] = (len(arm_of), item)
            # First matching label wins, like the interpreter's scan.
            dispatch.setdefault(key, arm_of[id(item)][0])
        table = self.kernel.bind_dispatch(dispatch)
        sub = svar
        if width != swidth:
            sub = self.tmp()
            self.emit(f"{sub} = {svar}.resize({width})")
        sel = self.tmp()
        self.emit(f"{sel} = {table}.get(({sub}.bits, {sub}.xmask), -1)")
        first = True
        for index, item in sorted(arm_of.values()):
            self.emit(f"{'if' if first else 'elif'} {sel} == {index}:")
            first = False
            self.indent += 1
            if sid is not None:
                entry = self.cov.case_arm.get(id(item))
                if entry is not None:
                    self.emit(f"_CB({entry[0]!r}, {entry[1]!r})")
            self._compile_branch(item.body)
            self.indent -= 1
        if default_item is not None or sid is not None:
            # With no default body the _CB call alone keeps the
            # generated else-block non-empty.
            self.emit("else:")
            self.indent += 1
            if sid is not None:
                self.emit(f"_CB({sid!r}, 'default')")
            if default_item is not None:
                self._compile_branch(default_item.body)
            self.indent -= 1

    def _compile_case_chain(self, stmt, svar, swidth, items, default_item):
        """General case/casez/casex: a guarded match chain mirroring
        the interpreter's per-label scan (wildcards precomputed where
        the labels are constant).

        Uses a matched flag rather than ``elif`` so each label's setup
        lines (subject resizes, run-time label evaluation) can precede
        its condition.  Label setup is pure — evaluating it eagerly for
        labels the interpreter would never reach is unobservable."""
        sid = (
            self.cov.stmt_id.get(id(stmt))
            if self.cov is not None else None
        )
        matched = self.tmp()
        self.emit(f"{matched} = False")
        any_labels = False
        for item in items:
            arm = (
                self.cov.case_arm.get(id(item))
                if sid is not None else None
            )
            for label_expr in item.labels:
                any_labels = True
                cond = self._case_match_code(stmt.kind, svar, swidth,
                                             label_expr)
                self.emit(f"if not {matched} and {cond}:")
                self.indent += 1
                self.emit(f"{matched} = True")
                if arm is not None:
                    self.emit(f"_CB({arm[0]!r}, {arm[1]!r})")
                self._compile_branch(item.body)
                self.indent -= 1
        if default_item is not None or sid is not None:
            if not any_labels:
                if sid is not None:
                    self.emit(f"_CB({sid!r}, 'default')")
                if default_item is not None:
                    self._compile_branch(default_item.body)
            else:
                # With no default body the _CB call alone keeps the
                # generated if-block non-empty.
                self.emit(f"if not {matched}:")
                self.indent += 1
                if sid is not None:
                    self.emit(f"_CB({sid!r}, 'default')")
                if default_item is not None:
                    self._compile_branch(default_item.body)
                self.indent -= 1

    def _case_match_code(self, kind, svar, swidth, label_expr):
        """Python condition string for one label match.

        Emits setup lines as needed and returns the condition — exact
        mirror of ``_Executor._case_match``."""
        const = None
        if swidth is not None:
            const = self._const_label(label_expr, swidth)
        if const is not None:
            width = max(swidth, const.width)
            label = const.resize(width)
            sub = svar
            if width != swidth:
                sub = self.tmp()
                self.emit(f"{sub} = {svar}.resize({width})")
            if kind == "case":
                return (f"({sub}.xmask == {label.xmask} and "
                        f"{sub}.bits == {label.bits})")
            if kind == "casez":
                wildcard = label.xmask
                keep = ((1 << width) - 1) & ~wildcard
                return (f"({sub}.bits & {keep}) == {label.bits & keep} "
                        f"and {sub}.xmask & {keep} == 0")
            # casex: the subject's own x bits widen the wildcard.
            wc = self.tmp()
            self.emit(f"{wc} = {label.xmask} | {sub}.xmask")
            return (f"({sub}.bits & ~{wc}) == ({label.bits} & ~{wc})")
        # Run-time label: evaluate per activation like the interpreter.
        lvar, _ = self.compile_expr(label_expr, swidth)
        sub = self.tmp()
        lab = self.tmp()
        if swidth is not None:
            self.emit(f"{sub} = {svar}.resize(max({swidth}, {lvar}.width))")
        else:
            self.emit(f"{sub} = {svar}.resize(max({svar}.width, "
                      f"{lvar}.width))")
        self.emit(f"{lab} = {lvar}.resize({sub}.width)")
        if kind == "case":
            return (f"({sub}.xmask == {lab}.xmask and "
                    f"{sub}.bits == {lab}.bits)")
        wc = self.tmp()
        if kind == "casex":
            self.emit(f"{wc} = {lab}.xmask | {sub}.xmask")
            return f"({sub}.bits & ~{wc}) == ({lab}.bits & ~{wc})"
        self.emit(f"{wc} = {lab}.xmask")
        return (f"({sub}.bits & ~{wc}) == ({lab}.bits & ~{wc}) "
                f"and {sub}.xmask & ~{wc} == 0")

    # -- loops ---------------------------------------------------------------

    def _compile_for(self, stmt):
        self._compile_assign(stmt.init)
        iters = self.tmp()
        self.emit(f"{iters} = 0")
        self.emit("while True:")
        self.indent += 1
        cvar, _ = self.compile_expr(stmt.cond)
        self.emit(f"if not {cvar}.bits:")
        self.indent += 1
        self.emit("break")
        self.indent -= 1
        self.compile_stmt(stmt.body)
        self._compile_assign(stmt.step)
        self.emit(f"{iters} += 1")
        self.emit(f"if {iters} > {_MAX_LOOP_ITERATIONS}:")
        self.indent += 1
        self.emit("raise SimulationError("
                  "'for-loop iteration limit exceeded')")
        self.indent -= 1
        self.indent -= 1

    def _compile_while(self, stmt):
        iters = self.tmp()
        self.emit(f"{iters} = 0")
        self.emit("while True:")
        self.indent += 1
        cvar, _ = self.compile_expr(stmt.cond)
        self.emit(f"if not {cvar}.bits:")
        self.indent += 1
        self.emit("break")
        self.indent -= 1
        self.compile_stmt(stmt.body)
        self.emit(f"{iters} += 1")
        self.emit(f"if {iters} > {_MAX_LOOP_ITERATIONS}:")
        self.indent += 1
        self.emit("raise SimulationError("
                  "'while-loop iteration limit exceeded')")
        self.indent -= 1
        self.indent -= 1

    # -- assignment ----------------------------------------------------------

    def _lvalue_width(self, target):
        if isinstance(target, ast.Identifier):
            entry = self.resolve_target(target.name)
            return entry.width
        if isinstance(target, ast.Index):
            if isinstance(target.base, ast.Identifier):
                entry = self.resolve_target(target.base.name)
                if isinstance(entry, Memory):
                    return entry.width
            return 1
        if isinstance(target, ast.PartSelect):
            if target.mode == ":":
                msb = self.const_int(target.msb)
                lsb = self.const_int(target.lsb)
                if msb is None or lsb is None:
                    return 1
                return abs(msb - lsb) + 1
            width = self.const_int(target.lsb)
            return width or 1
        if isinstance(target, ast.Concat):
            return sum(self._lvalue_width(p) for p in target.parts)
        raise NotCompilable(
            f"invalid assignment target {type(target).__name__}"
        )

    def _compile_assign(self, stmt):
        # Statically-known RHS signedness lets the deferred store skip
        # its per-store normalization guard (the engine's
        # ``_write_signal`` normalizes signedness; deferred locals
        # must match because later reads see them).
        try:
            self._rhs_signed = self.static_signed(stmt.value)
        except NotCompilable:
            self._rhs_signed = None
        target_width = self._lvalue_width(stmt.target)
        var, vw = self.compile_expr(stmt.value, target_width)
        if vw != target_width:
            out = self.tmp()
            self.emit(f"{out} = {var}.resize({target_width})")
            var = out
        deferred = self.nonblocking and not stmt.blocking
        self._compile_store(stmt.target, var, deferred)

    def _compile_store(self, target, var, deferred):
        if isinstance(target, ast.Identifier):
            entry = self.resolve_target(target.name)
            if isinstance(entry, Signal):
                if deferred:
                    self.uses.add("_nba")
                    self.emit(f"_nba.append(("
                              f"{self.kernel.commit_fn_for(entry)}, "
                              f"{var}))")
                    return
                if self.mode == "comb":
                    if self.kernel.defer_ok(entry):
                        self._emit_local_store(entry, var)
                        return
                    self.uses.add("_W")
                    self.emit(f"_W({self.bind(entry)}, {var})")
                    self._after_engine_write(entry)
                    return
                # Seq/initial blocking store: the per-signal committer
                # is exact (seq processes are never comb listeners, so
                # no self-wake suppression is needed).
                self.emit(f"{self.kernel.commit_fn_for(entry)}"
                          f"(sim, {var})")
                return
            if isinstance(entry, Memory):
                raise NotCompilable(
                    f"cannot assign whole memory '{target.name}'"
                )
            return  # parameter target: a lint-caught no-op
        if isinstance(target, ast.Index):
            self._compile_index_store(target, var, deferred)
            return
        if isinstance(target, ast.PartSelect):
            self._compile_part_select_store(target, var, deferred)
            return
        if isinstance(target, ast.Concat):
            # The split pieces are constructed unsigned regardless of
            # the whole RHS's signedness — the deferred-store
            # normalization guard must see that, not the outer RHS.
            self._rhs_signed = False
            self._compile_concat_store(target, var, deferred)
            return
        raise NotCompilable(
            f"invalid assignment target {type(target).__name__}"
        )

    def _defer_local(self, entry):
        local = self.kernel.local_for(entry)
        self.deferred.setdefault(id(entry), (entry, local))
        return local

    def _emit_local_store(self, entry, var):
        local = self._defer_local(entry)
        signed = bool(entry.signed)
        if signed:
            # Mirror ``_write_signal`` exactly: a no-change
            # (bits, xmask) store keeps the old value object — and
            # its dynamic signedness (unsigned until the first
            # changed write) — while a changed store adopts the
            # declared signed flag.  Later reads in the same comb
            # wave observe whichever survived.
            if self._rhs_signed is True:
                new = var
            else:
                new = (f"({var} if {var}.signed else "
                       f"Value({var}.bits, {entry.width}, "
                       f"{var}.xmask, True))")
            self.emit(
                f"{local} = {local} if ({local}.bits == {var}.bits "
                f"and {local}.xmask == {var}.xmask) else {new}"
            )
        elif self._rhs_signed is False:
            self.emit(f"{local} = {var}")
        else:
            self.emit(
                f"{local} = {var} if not {var}.signed else "
                f"Value({var}.bits, {entry.width}, {var}.xmask)"
            )

    def _emit_local_rmw(self, entry, local, rmw_expr):
        """Structural (bit/part-select) store to a hoisted local.

        ``replace_bits`` keeps the *old* value's signed flag, but the
        engine routes these through ``_write_signal``, which adopts
        the declared flag on a changed write and keeps the old object
        on a no-change one — so a declared-signed target needs the
        same change check here."""
        if not entry.signed:
            self.emit(f"{local} = {rmw_expr}")
            return
        new = self.tmp()
        self.emit(f"{new} = {rmw_expr}")
        self.emit(
            f"{local} = {local} if ({local}.bits == {new}.bits and "
            f"{local}.xmask == {new}.xmask) else "
            f"Value({new}.bits, {entry.width}, {new}.xmask, True)"
        )

    def _after_engine_write(self, entry):
        """Refresh the hoisted local after a generic engine write."""
        if self.mode == "comb":
            self.needs_running = True
            local = self.kernel.local_for(entry)
            self.emit(f"{local} = {self.bind(entry)}.value")

    def _compile_index_store(self, target, var, deferred):
        if not isinstance(target.base, ast.Identifier):
            raise NotCompilable("unsupported indexed assignment target")
        ivar = self._runtime_int(target.index)
        entry = self.resolve_target(target.base.name)
        if isinstance(entry, Memory):
            if self.mode == "fn":
                # Seq/initial memory store: the per-memory committer
                # replaces the partial allocation and listener walk.
                fn = self.kernel.mem_commit_fn_for(entry)
                if deferred:
                    self.uses.add("_nba")
                    self.emit(f"_nba.append(({fn}, ({ivar}, {var})))")
                else:
                    self.emit(f"{fn}(sim, ({ivar}, {var}))")
                return
            mem = self.bind(entry)
            self.uses.add("_MW")
            self.needs_running = True
            self.emit(f"_MW({mem}, {ivar}, {var})")
            return
        if isinstance(entry, Signal):
            sig = self.bind(entry)
            if deferred:
                self.uses.update(("_nba", "_pt", "_SB"))
                self.emit(f"_nba.append(_pt(_SB, {sig}, {ivar}, {var}))")
                return
            if self.mode == "comb" and self.kernel.defer_ok(entry):
                local = self._defer_local(entry)
                self.emit(f"if {ivar} is not None:")
                self.indent += 1
                self._emit_local_rmw(
                    entry, local, f"{local}.replace_bits({ivar}, {var})"
                )
                self.indent -= 1
                return
            self.uses.add("_SB")
            self.emit(f"_SB({sig}, {ivar}, {var})")
            self._after_engine_write(entry)
            return
        raise NotCompilable("unsupported indexed assignment target")

    def _compile_concat_store(self, target, var, deferred):
        """Split a ``{a, b} = value`` store into per-part stores.

        The RHS is already resized to the total target width, so each
        part's slice is statically in range and select_range inlines
        to a shift-and-construct."""
        widths = [self._lvalue_width(p) for p in target.parts]
        offset = sum(widths)
        for part, width in zip(target.parts, widths):
            offset -= width
            piece = self.tmp()
            shift = f".bits >> {offset}" if offset else ".bits"
            xshift = f".xmask >> {offset}" if offset else ".xmask"
            self.emit(f"{piece} = Value({var}{shift}, {width}, "
                      f"{var}{xshift})")
            self._compile_store(part, piece, deferred)

    def _compile_part_select_store(self, target, var, deferred):
        if not isinstance(target.base, ast.Identifier):
            raise NotCompilable("unsupported part-select target")
        entry = self.resolve_target(target.base.name)
        if not isinstance(entry, Signal):
            raise NotCompilable("part-select on non-signal target")
        sig = self.bind(entry)
        static = None
        if target.mode == ":":
            try:
                msb = self.const_int(target.msb)
                lsb = self.const_int(target.lsb)
            except NotCompilable:
                # Run-time bounds also make the *target width* (and so
                # the RHS context) run-time — keep it interpreted.
                raise NotCompilable("non-constant part-select bounds")
            static = (msb, lsb)
            hi, lo = repr(msb), repr(lsb)
        elif target.mode == "+:":
            width = self.const_int(target.lsb) or 1
            start = self._runtime_int(target.msb)
            hi = self.tmp()
            self.emit(f"{hi} = None if {start} is None else "
                      f"{start} + {width - 1}")
            lo = start
        else:  # "-:"
            width = self.const_int(target.lsb) or 1
            start = self._runtime_int(target.msb)
            lo = self.tmp()
            self.emit(f"{lo} = None if {start} is None else "
                      f"{start} - {width - 1}")
            hi = start
        if deferred:
            self.uses.update(("_nba", "_pt", "_SS"))
            self.emit(f"_nba.append(_pt(_SS, {sig}, {hi}, {lo}, {var}))")
            return
        if self.mode == "comb" and self.kernel.defer_ok(entry):
            local = self._defer_local(entry)
            if static is not None:
                msb, lsb = static
                if msb is None or lsb is None:
                    return  # x bound: _store_slice would no-op
                # var is already resized to the slice width by
                # _compile_assign, so _store_slice's resize is the
                # identity and min() folds statically.
                self._emit_local_rmw(
                    entry, local,
                    f"{local}.replace_bits({min(msb, lsb)}, {var})",
                )
                return
            # Runtime +:/-: offset: hi is None iff lo is None, and
            # min(hi, lo) is always the computed lo bound.
            self.emit(f"if {lo} is not None:")
            self.indent += 1
            self._emit_local_rmw(
                entry, local, f"{local}.replace_bits({lo}, {var})"
            )
            self.indent -= 1
            return
        self.uses.add("_SS")
        self.emit(f"_SS({sig}, {hi}, {lo}, {var})")
        self._after_engine_write(entry)

    # -- entry point ---------------------------------------------------------

    def compile_body(self):
        """Compile the statement list; returns the emitted lines (at
        one indent level) for the kernel compiler to place."""
        for stmt in self.process.body:
            self.compile_stmt(stmt)
        return self.lines
