"""Expression evaluation over four-state values.

Implements Verilog's context-determined width rules: the width of an
arithmetic/bitwise expression is the maximum of its operands' self-
determined widths and the assignment context, and that width is pushed
down into the operands before evaluation (so ``{co, sum} = a + b`` keeps
the carry).  Comparisons, reductions and logical operators are self-
determined one-bit results.
"""

from repro.hdl import ast
from repro.sim.values import Value

_CONTEXT_OPS = frozenset(["+", "-", "*", "/", "%", "&", "|", "^", "^~", "~^"])
_COMPARE_OPS = frozenset(["==", "!=", "<", "<=", ">", ">=", "===", "!=="])
_LOGICAL_OPS = frozenset(["&&", "||"])
_SHIFT_OPS = frozenset(["<<", ">>", "<<<", ">>>"])


class EvalError(Exception):
    """Raised when an expression cannot be evaluated."""

    def __init__(self, message, location=None):
        self.location = location
        super().__init__(message)


class Memory(object):
    """An unpacked array (``reg [W-1:0] mem [LO:HI]``)."""

    __slots__ = ("name", "width", "lo", "hi", "words", "signed",
                 "comb_listeners")

    def __init__(self, name, width, lo, hi, signed=False):
        self.name = name
        self.width = width
        self.lo = min(lo, hi)
        self.hi = max(lo, hi)
        self.signed = signed
        self.words = [Value.all_x(width) for _ in range(self.hi - self.lo + 1)]
        self.comb_listeners = []

    @property
    def depth(self):
        return self.hi - self.lo + 1

    def read(self, address):
        if address is None or address < self.lo or address > self.hi:
            return Value.all_x(self.width)
        return self.words[address - self.lo]

    def write(self, address, value):
        if address is None or address < self.lo or address > self.hi:
            return
        if value.width != self.width:
            value = value.resize(self.width)
        self.words[address - self.lo] = value


def resolve_target(scope, name):
    """The entry an assignment to ``name`` stores into: the scope's
    target lookup, or an implicit 1-bit wire when it is undeclared."""
    entry = scope.lookup_target(name)
    if entry is None:
        entry = scope.declare_implicit(name)
    return entry


class Evaluator:
    """Evaluates expressions against a resolver.

    ``resolver`` must provide:

    - ``read(name) -> Value`` — current value of a signal or parameter;
    - ``read_memory(name) -> Memory or None``;
    - ``width_of(name) -> int`` — declared width (1 for implicit nets);
    - ``signed_of(name) -> bool``;
    - ``lookup_target(name)`` and ``declare_implicit(name)`` — only for
      :meth:`target_width`, through :func:`resolve_target`.

    ``on_read`` (optional) is called with every signal name the
    evaluation touches — the dynamic slicer uses this to find the input
    values feeding a mismatch.
    """

    def __init__(self, resolver, on_read=None):
        self.resolver = resolver
        self.on_read = on_read

    # -- widths ---------------------------------------------------------------

    def self_width(self, expr):
        """Self-determined bit width of ``expr`` (IEEE 1364 table 5-22)."""
        if isinstance(expr, ast.Number):
            return expr.width or 32
        if isinstance(expr, ast.Identifier):
            return self.resolver.width_of(expr.name)
        if isinstance(expr, ast.Unary):
            if expr.op in ("&", "|", "^", "~&", "~|", "~^", "^~", "!"):
                return 1
            return self.self_width(expr.operand)
        if isinstance(expr, ast.Binary):
            if expr.op in _COMPARE_OPS or expr.op in _LOGICAL_OPS:
                return 1
            if expr.op in _SHIFT_OPS or expr.op == "**":
                return self.self_width(expr.left)
            return max(self.self_width(expr.left), self.self_width(expr.right))
        if isinstance(expr, ast.Ternary):
            return max(self.self_width(expr.then), self.self_width(expr.otherwise))
        if isinstance(expr, ast.Concat):
            return sum(self.self_width(p) for p in expr.parts)
        if isinstance(expr, ast.Repeat):
            count = self.const_int(expr.count)
            return (count or 1) * self.self_width(expr.value)
        if isinstance(expr, ast.Index):
            base = expr.base
            if isinstance(base, ast.Identifier):
                memory = self.resolver.read_memory(base.name)
                if memory is not None:
                    return memory.width
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
        raise EvalError(
            f"cannot size expression {type(expr).__name__}",
            getattr(expr, "location", None),
        )

    def target_width(self, target):
        """Width of assignment target ``target``: the context its
        right-hand side is evaluated in."""
        if isinstance(target, ast.Identifier):
            return resolve_target(self.resolver, target.name).width
        if isinstance(target, ast.Index):
            if isinstance(target.base, ast.Identifier):
                entry = resolve_target(self.resolver, target.base.name)
                if isinstance(entry, Memory):
                    return entry.width
            return 1
        if isinstance(target, ast.PartSelect):
            return self.self_width(target)
        if isinstance(target, ast.Concat):
            return sum(self.target_width(p) for p in target.parts)
        # The executor's error type (the engine imports this module).
        from repro.sim.engine import SimulationError

        raise SimulationError(
            f"invalid assignment target {type(target).__name__}"
        )

    def const_int(self, expr):
        """Evaluate an expression to an int (None if x)."""
        value = self.eval(expr)
        if value.has_x:
            return None
        return value.to_int()

    # -- evaluation -------------------------------------------------------------

    def eval(self, expr, ctx_width=None):
        """Evaluate ``expr``; ``ctx_width`` is the assignment context."""
        if isinstance(expr, ast.Number):
            width = expr.width or 32
            if ctx_width:
                width = max(width, ctx_width)
            return Value(expr.value, width, expr.xmask, expr.signed)

        if isinstance(expr, ast.Identifier):
            if self.on_read is not None:
                self.on_read(expr.name)
            value = self.resolver.read(expr.name)
            if ctx_width and ctx_width > value.width:
                return value.resize(ctx_width)
            return value

        if isinstance(expr, ast.Unary):
            return self._eval_unary(expr, ctx_width)

        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr, ctx_width)

        if isinstance(expr, ast.Ternary):
            cond = self.eval(expr.cond)
            truth = cond.is_truthy()
            width = max(
                self.self_width(expr.then),
                self.self_width(expr.otherwise),
                ctx_width or 0,
            )
            if truth is None:
                # Unknown select: evaluate both, merge agreement bit-wise.
                a = self.eval(expr.then, width)
                b = self.eval(expr.otherwise, width)
                agree = ~(a.bits ^ b.bits) & ~(a.xmask | b.xmask)
                return Value(a.bits, width, ~agree)
            branch = expr.then if truth else expr.otherwise
            return self.eval(branch, width)

        if isinstance(expr, ast.Concat):
            result = None
            for part in expr.parts:
                value = self.eval(part)
                value = value.resize(self.self_width(part))
                result = value if result is None else result.concat(value)
            if result is None:
                raise EvalError("empty concatenation", expr.location)
            if ctx_width and ctx_width > result.width:
                return result.resize(ctx_width)
            return result

        if isinstance(expr, ast.Repeat):
            count = self.const_int(expr.count)
            if count is None or count < 0:
                raise EvalError("replication count is unknown", expr.location)
            unit = self.eval(expr.value).resize(self.self_width(expr.value))
            result = Value(0, max(1, count * unit.width))
            out = None
            for _ in range(count):
                out = unit if out is None else out.concat(unit)
            result = out if out is not None else Value(0, 1)
            if ctx_width and ctx_width > result.width:
                return result.resize(ctx_width)
            return result

        if isinstance(expr, ast.Index):
            return self._eval_index(expr, ctx_width)

        if isinstance(expr, ast.PartSelect):
            return self._eval_part_select(expr, ctx_width)

        if isinstance(expr, ast.FunctionCall):
            return self._eval_call(expr, ctx_width)

        raise EvalError(
            f"cannot evaluate {type(expr).__name__}",
            getattr(expr, "location", None),
        )

    def _eval_unary(self, expr, ctx_width):
        op = expr.op
        if op in ("&", "~&"):
            value = self.eval(expr.operand).reduce_and()
            return value.bit_not().resize(1) if op == "~&" else value
        if op in ("|", "~|"):
            value = self.eval(expr.operand).reduce_or()
            return value.bit_not().resize(1) if op == "~|" else value
        if op in ("^", "~^", "^~"):
            value = self.eval(expr.operand).reduce_xor()
            return value.bit_not().resize(1) if op != "^" else value
        if op == "!":
            truth = self.eval(expr.operand).is_truthy()
            if truth is None:
                return Value.all_x(1)
            return Value(0 if truth else 1, 1)
        width = max(self.self_width(expr.operand), ctx_width or 0)
        operand = self.eval(expr.operand, width)
        if op == "~":
            return operand.bit_not()
        if op == "-":
            return Value(0, width).sub(operand, width)
        if op == "+":
            return operand
        raise EvalError(f"unknown unary operator {op!r}", expr.location)

    def _eval_binary(self, expr, ctx_width):
        op = expr.op
        if op in _LOGICAL_OPS:
            left = self.eval(expr.left).is_truthy()
            right = self.eval(expr.right).is_truthy()
            if op == "&&":
                if left is False or right is False:
                    return Value(0, 1)
                if left is None or right is None:
                    return Value.all_x(1)
                return Value(1, 1)
            if left is True or right is True:
                return Value(1, 1)
            if left is None or right is None:
                return Value.all_x(1)
            return Value(0, 1)

        if op in _COMPARE_OPS:
            width = max(self.self_width(expr.left), self.self_width(expr.right))
            left = self.eval(expr.left, width)
            right = self.eval(expr.right, width)
            if op == "===":
                return left.case_eq(right)
            if op == "!==":
                return left.case_eq(right).bit_not().resize(1)
            return {
                "==": left.eq, "!=": left.ne, "<": left.lt,
                "<=": left.le, ">": left.gt, ">=": left.ge,
            }[op](right)

        if op in _SHIFT_OPS:
            width = max(self.self_width(expr.left), ctx_width or 0)
            left = self.eval(expr.left, width)
            amount = self.eval(expr.right)
            if op == "<<" or op == "<<<":
                return left.shl(amount, width)
            return left.shr(amount, width, arithmetic=(op == ">>>"))

        if op == "**":
            width = max(self.self_width(expr.left), ctx_width or 0)
            left = self.eval(expr.left, width)
            right = self.eval(expr.right)
            return left.power(right, width)

        if op in _CONTEXT_OPS:
            width = max(
                self.self_width(expr.left),
                self.self_width(expr.right),
                ctx_width or 0,
            )
            left = self.eval(expr.left, width)
            right = self.eval(expr.right, width)
            method = {
                "+": left.add, "-": left.sub, "*": left.mul,
                "/": left.div, "%": left.mod, "&": left.bit_and,
                "|": left.bit_or, "^": left.bit_xor,
                "^~": None, "~^": None,
            }[op]
            if method is None:
                return left.bit_xor(right, width).bit_not()
            return method(right, width)

        raise EvalError(f"unknown binary operator {op!r}", expr.location)

    def _eval_index(self, expr, ctx_width):
        base = expr.base
        index = self.const_int(expr.index)
        if isinstance(base, ast.Identifier):
            memory = self.resolver.read_memory(base.name)
            if memory is not None:
                if self.on_read is not None:
                    self.on_read(base.name)
                word = memory.read(index)
                if ctx_width and ctx_width > word.width:
                    return word.resize(ctx_width)
                return word
        value = self.eval(base)
        result = value.select_bit(index)
        if ctx_width and ctx_width > result.width:
            return result.resize(ctx_width)
        return result

    def _eval_part_select(self, expr, ctx_width):
        base_value = self.eval(expr.base)
        result = None
        if expr.mode == ":":
            msb = self.const_int(expr.msb)
            lsb = self.const_int(expr.lsb)
        elif expr.mode == "+:":
            start = self.const_int(expr.msb)
            width = self.const_int(expr.lsb) or 1
            if start is None:
                # An x base index reads as all-x at the select's own
                # width; the context extension below must still apply
                # (the compiled backend extends uniformly).
                result = Value.all_x(width)
            else:
                lsb, msb = start, start + width - 1
        else:  # "-:"
            start = self.const_int(expr.msb)
            width = self.const_int(expr.lsb) or 1
            if start is None:
                result = Value.all_x(width)
            else:
                msb, lsb = start, start - width + 1
        if result is None:
            result = base_value.select_range(msb, lsb)
        if ctx_width and ctx_width > result.width:
            return result.resize(ctx_width)
        return result

    def _eval_call(self, expr, ctx_width):
        if expr.name == "$signed" and expr.args:
            # Apply signedness at the operand's self-determined width,
            # THEN extend to context (so the sign bit is the operand's).
            value = self.eval(expr.args[0])
            value = Value(value.bits, value.width, value.xmask, signed=True)
            if ctx_width and ctx_width > value.width:
                value = value.resize(ctx_width)
            return value
        if expr.name == "$unsigned" and expr.args:
            value = self.eval(expr.args[0])
            value = Value(value.bits, value.width, value.xmask, signed=False)
            if ctx_width and ctx_width > value.width:
                value = value.resize(ctx_width)
            return value
        if expr.name == "$clog2" and expr.args:
            operand = self.const_int(expr.args[0])
            if operand is None:
                return Value.all_x(32)
            result = 0
            while (1 << result) < operand:
                result += 1
            return Value(result, 32)
        if expr.name in ("$time", "$stime"):
            return Value(getattr(self.resolver, "time", 0), 64)
        if expr.name == "$random":
            return Value(getattr(self.resolver, "random_value", 0), 32)
        raise EvalError(f"unsupported function {expr.name}", expr.location)


class ConstResolver:
    """Resolver over a plain dict of parameter name → :class:`Value`."""

    def __init__(self, params=None):
        self.params = dict(params or {})

    def read(self, name):
        if name in self.params:
            return self.params[name]
        raise EvalError(f"identifier '{name}' is not a constant")

    def read_memory(self, name):
        return None

    def width_of(self, name):
        if name in self.params:
            return self.params[name].width
        raise EvalError(f"identifier '{name}' is not a constant")

    def signed_of(self, name):
        if name in self.params:
            return self.params[name].signed
        return False


def const_eval(expr, params=None):
    """Evaluate a constant expression with optional parameter bindings."""
    return Evaluator(ConstResolver(params)).eval(expr)
