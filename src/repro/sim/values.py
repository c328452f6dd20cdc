"""Four-state bit-vector values.

A :class:`Value` is an immutable ``(bits, xmask, width, signed)`` tuple.
Bits whose ``xmask`` bit is set are unknown (x/z); the corresponding
``bits`` bit is ignored.  Unknown-bit propagation follows Verilog
semantics where cheap (bitwise AND/OR can mask unknowns) and is
pessimistic (all-x result) for arithmetic with any unknown operand.
"""


def _mask(width):
    return (1 << width) - 1


class Value:
    """An immutable four-state bit vector."""

    __slots__ = ("bits", "xmask", "width", "signed")

    def __init__(self, bits=0, width=1, xmask=0, signed=False):
        if width < 1:
            width = 1
        m = _mask(width)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "xmask", xmask & m)
        object.__setattr__(self, "bits", bits & m & ~(xmask & m))
        object.__setattr__(self, "signed", signed)

    def __setattr__(self, name, value):
        raise AttributeError("Value is immutable")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def all_x(width):
        return Value(bits=0, width=width, xmask=_mask(width))

    # -- predicates ----------------------------------------------------------

    @property
    def has_x(self):
        return self.xmask != 0

    @property
    def is_all_x(self):
        return self.xmask == _mask(self.width)

    def is_truthy(self):
        """Verilog truthiness: any definite 1 bit → True; all-0 known →
        False; otherwise unknown (returns None)."""
        if self.bits != 0:
            return True
        if self.xmask == 0:
            return False
        return None

    # -- conversions ---------------------------------------------------------

    def to_int(self):
        """Unsigned integer interpretation; x bits read as 0."""
        return self.bits

    def to_signed_int(self):
        """Two's-complement interpretation of the stored bits."""
        if self.bits & (1 << (self.width - 1)):
            return self.bits - (1 << self.width)
        return self.bits

    def as_arith(self):
        """Integer used in arithmetic: signed iff the value is signed."""
        return self.to_signed_int() if self.signed else self.bits

    def resize(self, width, signed=None):
        """Zero/sign-extend or truncate to ``width``."""
        if signed is None:
            signed = self.signed
        if width == self.width:
            if signed == self.signed:
                return self
            return Value(self.bits, width, self.xmask, signed)
        if width < self.width:
            return Value(self.bits, width, self.xmask, signed)
        # extension
        bits = self.bits
        xmask = self.xmask
        if self.width > 0:
            sign_bit = 1 << (self.width - 1)
            if self.signed and (self.xmask & sign_bit):
                xmask |= _mask(width) ^ _mask(self.width)
            elif self.signed and (self.bits & sign_bit):
                bits |= _mask(width) ^ _mask(self.width)
        return Value(bits, width, xmask, signed)

    # -- structural operations -----------------------------------------------

    def select_bit(self, index):
        """Single-bit select; out-of-range or x index → x."""
        if index is None or index < 0 or index >= self.width:
            return Value.all_x(1)
        return Value((self.bits >> index) & 1, 1, (self.xmask >> index) & 1)

    def select_range(self, msb, lsb):
        """Part select [msb:lsb]; out-of-range bits read as x."""
        if msb is None or lsb is None or msb < lsb:
            return Value.all_x(1 if msb is None or lsb is None else msb - lsb + 1)
        width = msb - lsb + 1
        if lsb >= self.width:
            return Value.all_x(width)
        bits = (self.bits >> max(lsb, 0)) if lsb >= 0 else (self.bits << -lsb)
        xm = (self.xmask >> max(lsb, 0)) if lsb >= 0 else (self.xmask << -lsb)
        result = Value(bits, width, xm)
        if msb >= self.width:
            extra = msb - self.width + 1
            hi_mask = _mask(width) ^ _mask(width - extra)
            result = Value(result.bits, width, result.xmask | hi_mask)
        return result

    def concat(self, other):
        """``{self, other}`` — self occupies the high bits."""
        width = self.width + other.width
        bits = (self.bits << other.width) | other.bits
        xmask = (self.xmask << other.width) | other.xmask
        return Value(bits, width, xmask)

    def replace_bits(self, lsb, replacement):
        """Return a copy with ``replacement`` written at offset ``lsb``."""
        if lsb >= self.width or lsb + replacement.width <= 0:
            return self
        field_mask = _mask(replacement.width) << lsb if lsb >= 0 else (
            _mask(replacement.width) >> -lsb
        )
        field_mask &= _mask(self.width)
        rep_bits = (replacement.bits << lsb) if lsb >= 0 else (
            replacement.bits >> -lsb
        )
        rep_x = (replacement.xmask << lsb) if lsb >= 0 else (
            replacement.xmask >> -lsb
        )
        bits = (self.bits & ~field_mask) | (rep_bits & field_mask)
        xmask = (self.xmask & ~field_mask) | (rep_x & field_mask)
        return Value(bits, self.width, xmask, self.signed)

    # -- arithmetic / logic ---------------------------------------------------

    def _binary_widths(self, other):
        return max(self.width, other.width)

    def _pessimistic(self, other, width):
        if self.has_x or other.has_x:
            return Value.all_x(width)
        return None

    def add(self, other, width=None):
        width = width or self._binary_widths(other)
        bad = self._pessimistic(other, width)
        if bad is not None:
            return bad
        a = self.resize(width)
        b = other.resize(width)
        return Value(a.as_arith() + b.as_arith(), width,
                     signed=self.signed and other.signed)

    def sub(self, other, width=None):
        width = width or self._binary_widths(other)
        bad = self._pessimistic(other, width)
        if bad is not None:
            return bad
        a = self.resize(width)
        b = other.resize(width)
        return Value(a.as_arith() - b.as_arith(), width,
                     signed=self.signed and other.signed)

    def mul(self, other, width=None):
        width = width or self._binary_widths(other)
        bad = self._pessimistic(other, width)
        if bad is not None:
            return bad
        a = self.resize(width)
        b = other.resize(width)
        return Value(a.as_arith() * b.as_arith(), width,
                     signed=self.signed and other.signed)

    def div(self, other, width=None):
        width = width or self._binary_widths(other)
        bad = self._pessimistic(other, width)
        if bad is not None:
            return bad
        if other.bits == 0:
            return Value.all_x(width)
        a = self.resize(width)
        b = other.resize(width)
        if self.signed and other.signed:
            quotient = abs(a.as_arith()) // abs(b.as_arith())
            if (a.as_arith() < 0) != (b.as_arith() < 0):
                quotient = -quotient
            return Value(quotient, width, signed=True)
        return Value(a.bits // b.bits, width)

    def mod(self, other, width=None):
        width = width or self._binary_widths(other)
        bad = self._pessimistic(other, width)
        if bad is not None:
            return bad
        if other.bits == 0:
            return Value.all_x(width)
        a = self.resize(width)
        b = other.resize(width)
        if self.signed and other.signed:
            remainder = abs(a.as_arith()) % abs(b.as_arith())
            if a.as_arith() < 0:
                remainder = -remainder
            return Value(remainder, width, signed=True)
        return Value(a.bits % b.bits, width)

    def power(self, other, width=None):
        width = width or self.width
        bad = self._pessimistic(other, width)
        if bad is not None:
            return bad
        exponent = other.bits
        if exponent > 64:  # avoid pathological blowup; result is modular
            exponent = exponent % 64 + 64
        return Value(pow(self.bits, exponent, 1 << width), width)

    def bit_and(self, other, width=None):
        width = width or self._binary_widths(other)
        a = self.resize(width)
        b = other.resize(width)
        # 0 & x == 0 is known; only x & 1 / x & x stays unknown.
        known_zero = (~a.bits & ~a.xmask) | (~b.bits & ~b.xmask)
        xmask = (a.xmask | b.xmask) & ~known_zero
        return Value(a.bits & b.bits, width, xmask & _mask(width))

    def bit_or(self, other, width=None):
        width = width or self._binary_widths(other)
        a = self.resize(width)
        b = other.resize(width)
        known_one = (a.bits & ~a.xmask) | (b.bits & ~b.xmask)
        xmask = (a.xmask | b.xmask) & ~known_one
        return Value((a.bits | b.bits) & ~xmask, width, xmask & _mask(width))

    def bit_xor(self, other, width=None):
        width = width or self._binary_widths(other)
        a = self.resize(width)
        b = other.resize(width)
        xmask = a.xmask | b.xmask
        return Value(a.bits ^ b.bits, width, xmask)

    def bit_not(self):
        return Value(~self.bits, self.width, self.xmask)

    def shl(self, amount, width=None):
        width = width or self.width
        if amount.has_x:
            return Value.all_x(width)
        a = self.resize(width)
        n = amount.bits
        if n >= width:
            # Every bit is shifted out; clamping also stops a huge
            # runtime amount (e.g. a 32-bit operand) from allocating
            # a multi-gigabit intermediate integer.
            return Value(0, width)
        return Value(a.bits << n, width, (a.xmask << n) & _mask(width))

    def shr(self, amount, width=None, arithmetic=False):
        width = width or self.width
        if amount.has_x:
            return Value.all_x(width)
        a = self.resize(width)
        # Python right-shifts by huge amounts cheaply, but clamping
        # keeps the two shift directions symmetric.
        n = min(amount.bits, width)
        if arithmetic and self.signed:
            return Value(a.to_signed_int() >> n, width, a.xmask >> n,
                         signed=True)
        return Value(a.bits >> n, width, a.xmask >> n)

    # -- comparisons (return 1-bit values) ------------------------------------

    def _compare(self, other, op):
        if self.has_x or other.has_x:
            return Value.all_x(1)
        width = self._binary_widths(other)
        signed = self.signed and other.signed
        a = self.resize(width, signed).as_arith()
        b = other.resize(width, signed).as_arith()
        result = {
            "==": a == b, "!=": a != b,
            "<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b,
        }[op]
        return Value(1 if result else 0, 1)

    def eq(self, other):
        return self._compare(other, "==")

    def ne(self, other):
        return self._compare(other, "!=")

    def lt(self, other):
        return self._compare(other, "<")

    def le(self, other):
        return self._compare(other, "<=")

    def gt(self, other):
        return self._compare(other, ">")

    def ge(self, other):
        return self._compare(other, ">=")

    def case_eq(self, other):
        """``===``: x bits must match exactly."""
        width = self._binary_widths(other)
        a = self.resize(width)
        b = other.resize(width)
        same = a.bits == b.bits and a.xmask == b.xmask
        return Value(1 if same else 0, 1)

    # -- reductions ------------------------------------------------------------

    def reduce_and(self):
        if (self.bits | self.xmask) != _mask(self.width):
            return Value(0, 1)  # a known 0 bit exists
        if self.xmask:
            return Value.all_x(1)
        return Value(1, 1)

    def reduce_or(self):
        if self.bits & ~self.xmask:
            return Value(1, 1)
        if self.xmask:
            return Value.all_x(1)
        return Value(0, 1)

    def reduce_xor(self):
        if self.xmask:
            return Value.all_x(1)
        return Value(bin(self.bits).count("1") & 1, 1)

    # -- dunder / misc -----------------------------------------------------------

    def __eq__(self, other):
        """Structural equality (same bits, xmask, width)."""
        if isinstance(other, int):
            return self.xmask == 0 and self.bits == other
        if not isinstance(other, Value):
            return NotImplemented
        return (
            self.bits == other.bits
            and self.xmask == other.xmask
            and self.width == other.width
        )

    def __hash__(self):
        return hash((self.bits, self.xmask, self.width))

    def __repr__(self):
        if self.xmask == 0:
            return f"Value({self.width}'d{self.bits})"
        return f"Value({self.width}'b{self.to_verilog_bits()})"

    def to_verilog_bits(self):
        """Binary string with x for unknown bits, MSB first."""
        chars = []
        for i in reversed(range(self.width)):
            if (self.xmask >> i) & 1:
                chars.append("x")
            else:
                chars.append(str((self.bits >> i) & 1))
        return "".join(chars)

    def to_display(self):
        """Hex-ish rendering used in UVM logs."""
        if self.xmask == 0:
            digits = (self.width + 3) // 4
            return f"{self.width}'h{self.bits:0{digits}x}"
        return f"{self.width}'b{self.to_verilog_bits()}"


def X(width=1):
    """Shorthand for an all-unknown value."""
    return Value.all_x(width)
