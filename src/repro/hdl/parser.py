"""Recursive-descent parser for the supported Verilog subset.

The parser produces the AST in :mod:`repro.hdl.ast`.  Diagnostics are
raised as :class:`~repro.hdl.errors.HdlSyntaxError` with precise source
locations; the linter converts these into Verilator-style ``%Error``
lines that the UVLLM pre-processing stage feeds to the repair LLM.
"""

from repro.hdl import ast
from repro.hdl.errors import HdlSyntaxError
from repro.hdl.lexer import Lexer, TokenKind
from repro.memo import LRUMemo
from repro.obs import trace
from repro.obs.metrics import GLOBAL as _metrics

# Binary operator precedence, higher binds tighter.  Mirrors IEEE 1364.
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4, "^~": 4, "~^": 4,
    "&": 5,
    "==": 6, "!=": 6, "===": 6, "!==": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8, "<<<": 8, ">>>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
    "**": 11,
}

_UNARY_OPS = {"+", "-", "!", "~", "&", "|", "^", "~&", "~|", "~^", "^~"}

_BASE_RADIX = {"b": 2, "o": 8, "d": 10, "h": 16}


def parse_based_number(text, location=None):
    """Parse a based literal like ``8'hFF`` into a :class:`ast.Number`.

    Handles x/z/? digits by setting the corresponding bits of ``xmask``.
    """
    size_text, _, rest = text.partition("'")
    signed = False
    if rest and rest[0] in "sS":
        signed = True
        rest = rest[1:]
    base_char = rest[0].lower()
    digits = rest[1:].replace("_", "")
    radix = _BASE_RADIX.get(base_char)
    if radix is None:
        raise HdlSyntaxError(f"invalid number base {base_char!r}", location)

    width = int(size_text) if size_text else 32
    value = 0
    xmask = 0
    if radix == 10:
        if any(c in "xXzZ?" for c in digits):
            # An all-x/z decimal literal.
            value, xmask = 0, (1 << width) - 1
        else:
            value = int(digits, 10)
    else:
        bits_per_digit = {2: 1, 8: 3, 16: 4}[radix]
        for ch in digits:
            value <<= bits_per_digit
            xmask <<= bits_per_digit
            if ch in "xXzZ?":
                xmask |= (1 << bits_per_digit) - 1
            else:
                try:
                    value |= int(ch, radix)
                except ValueError:
                    raise HdlSyntaxError(
                        f"invalid digit {ch!r} for base {radix}", location
                    )
    mask = (1 << width) - 1
    return ast.Number(
        value=value & mask,
        width=width,
        xmask=xmask & mask,
        signed=signed,
        text=text,
        location=location or ast.SourceLocation(),
    )


class Parser:
    """Parses a token stream into modules."""

    def __init__(self, source):
        self.tokens = list(Lexer(source).tokens())
        self.pos = 0

    # -- token helpers ------------------------------------------------------

    @property
    def current(self):
        return self.tokens[self.pos]

    def _peek(self, offset=0):
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self):
        token = self.current
        if token.kind != TokenKind.EOF:
            self.pos += 1
        return token

    def _expect_punct(self, text):
        token = self.current
        if not token.is_punct(text):
            raise HdlSyntaxError(
                f"expected {text!r} but found {token.text!r}", token.location
            )
        return self._advance()

    def _expect_keyword(self, text):
        token = self.current
        if not token.is_keyword(text):
            raise HdlSyntaxError(
                f"expected keyword {text!r} but found {token.text!r}",
                token.location,
            )
        return self._advance()

    def _expect_ident(self):
        token = self.current
        if token.kind != TokenKind.IDENT:
            raise HdlSyntaxError(
                f"expected identifier but found {token.text!r}", token.location
            )
        return self._advance()

    def _accept_punct(self, text):
        if self.current.is_punct(text):
            return self._advance()
        return None

    def _accept_keyword(self, text):
        if self.current.is_keyword(text):
            return self._advance()
        return None

    # -- top level ----------------------------------------------------------

    def parse_source(self):
        """Parse the whole input as a :class:`ast.SourceFile`."""
        source_file = ast.SourceFile()
        while self.current.kind != TokenKind.EOF:
            source_file.modules.append(self.parse_module())
        if not source_file.modules:
            raise HdlSyntaxError("no module found in source", self.current.location)
        return source_file

    def parse_module(self):
        start = self._expect_keyword("module")
        name = self._expect_ident().text
        module = ast.Module(name=name, location=start.location)

        if self._accept_punct("#"):
            self._parse_module_parameters(module)

        if self._accept_punct("("):
            self._parse_port_list(module)

        self._expect_punct(";")

        while not self.current.is_keyword("endmodule"):
            if self.current.kind == TokenKind.EOF:
                raise HdlSyntaxError(
                    f"missing 'endmodule' for module '{name}'",
                    self.current.location,
                )
            item = self.parse_module_item()
            if isinstance(item, list):
                module.items.extend(item)
            elif item is not None:
                module.items.append(item)
        self._expect_keyword("endmodule")
        return module

    def _parse_module_parameters(self, module):
        """Parse ``#(parameter WIDTH = 8, ...)`` in the module header."""
        self._expect_punct("(")
        while not self.current.is_punct(")"):
            self._accept_keyword("parameter")
            prange = self._parse_optional_range()
            pname = self._expect_ident().text
            self._expect_punct("=")
            value = self.parse_expression()
            module.items.append(
                ast.ParamDecl(name=pname, value=value, range=prange)
            )
            if not self._accept_punct(","):
                break
        self._expect_punct(")")

    def _parse_port_list(self, module):
        if self.current.is_punct(")"):
            self._advance()
            return
        is_ansi = self.current.is_keyword("input") or self.current.is_keyword(
            "output"
        ) or self.current.is_keyword("inout")
        if is_ansi:
            self._parse_ansi_ports(module)
        else:
            while True:
                token = self._expect_ident()
                module.ports.append(
                    ast.Port(name=token.text, location=token.location)
                )
                if not self._accept_punct(","):
                    break
            self._expect_punct(")")

    def _parse_ansi_ports(self, module):
        direction = None
        kind = None
        signed = False
        prange = None
        while True:
            token = self.current
            if token.is_keyword("input") or token.is_keyword("output") or \
                    token.is_keyword("inout"):
                direction = self._advance().text
                kind = None
                signed = False
                prange = None
                if self.current.is_keyword("wire") or self.current.is_keyword(
                    "reg"
                ):
                    kind = self._advance().text
                if self._accept_keyword("signed"):
                    signed = True
                prange = self._parse_optional_range()
            name_token = self._expect_ident()
            if direction is None:
                raise HdlSyntaxError(
                    "port is missing a direction", name_token.location
                )
            module.ports.append(
                ast.Port(name=name_token.text, location=name_token.location)
            )
            module.items.append(
                ast.NetDecl(
                    names=[name_token.text],
                    kind=kind,
                    direction=direction,
                    range=prange,
                    signed=signed,
                    location=name_token.location,
                )
            )
            if not self._accept_punct(","):
                break
        self._expect_punct(")")

    # -- module items -------------------------------------------------------

    def parse_module_item(self):
        token = self.current
        if token.kind == TokenKind.KEYWORD:
            if token.text in ("input", "output", "inout"):
                return self._parse_port_decl()
            if token.text in ("wire", "reg", "integer", "genvar", "real"):
                return self._parse_net_decl()
            if token.text in ("parameter", "localparam"):
                return self._parse_param_decl()
            if token.text == "assign":
                return self._parse_continuous_assign()
            if token.text == "always":
                return self._parse_always()
            if token.text == "initial":
                return self._parse_initial()
            if token.text in ("generate", "endgenerate"):
                self._advance()  # generate regions are transparent here
                return None
            raise HdlSyntaxError(
                f"unexpected keyword {token.text!r} in module body",
                token.location,
            )
        if token.kind == TokenKind.IDENT:
            return self._parse_instance()
        if token.is_punct(";"):
            self._advance()
            return None
        raise HdlSyntaxError(
            f"unexpected token {token.text!r} in module body", token.location
        )

    def _parse_optional_range(self):
        if not self.current.is_punct("["):
            return None
        start = self._advance()
        msb = self.parse_expression()
        self._expect_punct(":")
        lsb = self.parse_expression()
        self._expect_punct("]")
        return ast.Range(msb=msb, lsb=lsb, location=start.location)

    def _parse_port_decl(self):
        start = self._advance()  # input/output/inout
        direction = start.text
        kind = None
        if self.current.is_keyword("wire") or self.current.is_keyword("reg") \
                or self.current.is_keyword("integer"):
            kind = self._advance().text
        signed = bool(self._accept_keyword("signed"))
        prange = self._parse_optional_range()
        names = [self._expect_ident().text]
        while self._accept_punct(","):
            names.append(self._expect_ident().text)
        self._expect_punct(";")
        return ast.NetDecl(
            names=names,
            kind=kind,
            direction=direction,
            range=prange,
            signed=signed,
            location=start.location,
        )

    def _parse_net_decl(self):
        start = self._advance()  # wire/reg/integer/genvar/real
        kind = "integer" if start.text == "genvar" else start.text
        signed = bool(self._accept_keyword("signed"))
        prange = self._parse_optional_range()
        decls = []
        while True:
            name_token = self._expect_ident()
            array = self._parse_optional_range()
            init = None
            if self._accept_punct("="):
                init = self.parse_expression()
            decls.append(
                ast.NetDecl(
                    names=[name_token.text],
                    kind=kind,
                    range=prange,
                    array=array,
                    signed=signed,
                    init=init,
                    location=name_token.location,
                )
            )
            if not self._accept_punct(","):
                break
        self._expect_punct(";")
        # Merge simple same-shaped decls so `wire a, b;` is one item.
        if all(d.array is None and d.init is None for d in decls) and decls:
            merged = decls[0]
            for extra in decls[1:]:
                merged.names.extend(extra.names)
            return merged
        return decls

    def _parse_param_decl(self):
        start = self._advance()
        local = start.text == "localparam"
        prange = self._parse_optional_range()
        decls = []
        while True:
            name = self._expect_ident().text
            self._expect_punct("=")
            value = self.parse_expression()
            decls.append(
                ast.ParamDecl(
                    name=name,
                    value=value,
                    local=local,
                    range=prange,
                    location=start.location,
                )
            )
            if not self._accept_punct(","):
                break
        self._expect_punct(";")
        return decls

    def _parse_continuous_assign(self):
        start = self._advance()  # assign
        assigns = []
        while True:
            target = self.parse_lvalue()
            self._expect_punct("=")
            value = self.parse_expression()
            assigns.append(
                ast.ContinuousAssign(
                    target=target, value=value, location=start.location
                )
            )
            if not self._accept_punct(","):
                break
        self._expect_punct(";")
        return assigns

    def _parse_always(self):
        start = self._advance()  # always
        self._expect_punct("@")
        sensitivity = self._parse_event_control()
        body = self.parse_statement()
        return ast.Always(
            sensitivity=sensitivity, body=body, location=start.location
        )

    def _parse_event_control(self):
        control = ast.EventControl(location=self.current.location)
        if self._accept_punct("*"):
            control.star = True
            return control
        self._expect_punct("(")
        if self._accept_punct("*"):
            control.star = True
            self._expect_punct(")")
            return control
        while True:
            edge = "level"
            if self._accept_keyword("posedge"):
                edge = "posedge"
            elif self._accept_keyword("negedge"):
                edge = "negedge"
            expr = self.parse_expression()
            control.events.append((edge, expr))
            if self._accept_punct(","):
                continue
            if self._accept_keyword("or"):
                continue
            break
        self._expect_punct(")")
        return control

    def _parse_initial(self):
        start = self._advance()
        body = self.parse_statement()
        return ast.Initial(body=body, location=start.location)

    def _parse_instance(self):
        module_token = self._expect_ident()
        instance = ast.Instance(
            module_name=module_token.text, location=module_token.location
        )
        if self._accept_punct("#"):
            self._expect_punct("(")
            instance.param_overrides = self._parse_connection_list()
            self._expect_punct(")")
        name_token = self._expect_ident()
        instance.name = name_token.text
        self._expect_punct("(")
        instance.connections = self._parse_connection_list()
        self._expect_punct(")")
        self._expect_punct(";")
        return instance

    def _parse_connection_list(self):
        connections = []
        if self.current.is_punct(")"):
            return connections
        while True:
            if self.current.is_punct("."):
                dot = self._advance()
                name = self._expect_ident().text
                self._expect_punct("(")
                expr = None
                if not self.current.is_punct(")"):
                    expr = self.parse_expression()
                self._expect_punct(")")
                connections.append(
                    ast.PortConnection(
                        name=name, expr=expr, location=dot.location
                    )
                )
            else:
                expr = self.parse_expression()
                connections.append(
                    ast.PortConnection(expr=expr, location=expr.location)
                )
            if not self._accept_punct(","):
                break
        return connections

    # -- statements ---------------------------------------------------------

    def parse_statement(self):
        token = self.current
        if token.is_keyword("begin"):
            return self._parse_block()
        if token.is_keyword("if"):
            return self._parse_if()
        if token.is_keyword("case") or token.is_keyword("casez") or \
                token.is_keyword("casex"):
            return self._parse_case()
        if token.is_keyword("for"):
            return self._parse_for()
        if token.is_keyword("while"):
            return self._parse_while()
        if token.kind == TokenKind.SYSTEM_IDENT:
            return self._parse_system_task()
        if token.is_punct(";"):
            self._advance()
            return ast.NullStmt(location=token.location)
        return self._parse_assignment_statement()

    def _parse_block(self):
        start = self._expect_keyword("begin")
        block = ast.Block(location=start.location)
        if self._accept_punct(":"):
            block.name = self._expect_ident().text
        while not self.current.is_keyword("end"):
            if self.current.kind == TokenKind.EOF:
                raise HdlSyntaxError(
                    "missing 'end' for 'begin' block", start.location
                )
            # Local declarations inside named blocks are not supported;
            # reject them with a clear message rather than mis-parsing.
            if self.current.is_keyword("endmodule"):
                raise HdlSyntaxError(
                    "missing 'end' for 'begin' block", start.location
                )
            block.statements.append(self.parse_statement())
        self._expect_keyword("end")
        return block

    def _parse_if(self):
        start = self._expect_keyword("if")
        self._expect_punct("(")
        cond = self.parse_expression()
        self._expect_punct(")")
        then_stmt = self.parse_statement()
        else_stmt = None
        if self._accept_keyword("else"):
            else_stmt = self.parse_statement()
        return ast.If(
            cond=cond,
            then_stmt=then_stmt,
            else_stmt=else_stmt,
            location=start.location,
        )

    def _parse_case(self):
        start = self._advance()
        kind = start.text
        self._expect_punct("(")
        subject = self.parse_expression()
        self._expect_punct(")")
        items = []
        while not self.current.is_keyword("endcase"):
            if self.current.kind == TokenKind.EOF:
                raise HdlSyntaxError(
                    "missing 'endcase' for case statement", start.location
                )
            item = ast.CaseItem(location=self.current.location)
            if self._accept_keyword("default"):
                self._accept_punct(":")
            else:
                item.labels.append(self.parse_expression())
                while self._accept_punct(","):
                    item.labels.append(self.parse_expression())
                self._expect_punct(":")
            item.body = self.parse_statement()
            items.append(item)
        self._expect_keyword("endcase")
        return ast.Case(
            kind=kind, subject=subject, items=items, location=start.location
        )

    def _parse_for(self):
        start = self._expect_keyword("for")
        self._expect_punct("(")
        init = self._parse_bare_assignment()
        self._expect_punct(";")
        cond = self.parse_expression()
        self._expect_punct(";")
        step = self._parse_bare_assignment()
        self._expect_punct(")")
        body = self.parse_statement()
        return ast.For(
            init=init, cond=cond, step=step, body=body, location=start.location
        )

    def _parse_while(self):
        start = self._expect_keyword("while")
        self._expect_punct("(")
        cond = self.parse_expression()
        self._expect_punct(")")
        body = self.parse_statement()
        return ast.While(cond=cond, body=body, location=start.location)

    def _parse_system_task(self):
        token = self._advance()
        args = []
        if self._accept_punct("("):
            if not self.current.is_punct(")"):
                while True:
                    if self.current.kind == TokenKind.STRING:
                        str_token = self._advance()
                        args.append(
                            ast.Number(
                                value=0,
                                text=f'"{str_token.text}"',
                                location=str_token.location,
                            )
                        )
                    else:
                        args.append(self.parse_expression())
                    if not self._accept_punct(","):
                        break
            self._expect_punct(")")
        self._expect_punct(";")
        return ast.SystemTaskCall(
            name=token.text, args=args, location=token.location
        )

    def _parse_bare_assignment(self):
        target = self.parse_lvalue()
        loc = self.current.location
        if self._accept_punct("="):
            blocking = True
        elif self._accept_punct("<="):
            blocking = False
        else:
            raise HdlSyntaxError(
                f"expected '=' or '<=' but found {self.current.text!r}", loc
            )
        value = self.parse_expression()
        return ast.Assign(
            target=target, value=value, blocking=blocking, location=loc
        )

    def _parse_assignment_statement(self):
        assign = self._parse_bare_assignment()
        self._expect_punct(";")
        return assign

    # -- expressions --------------------------------------------------------

    def parse_lvalue(self):
        """Parse an assignment target: identifier/select/concat."""
        token = self.current
        if token.is_punct("{"):
            return self._parse_concat()
        if token.kind != TokenKind.IDENT:
            raise HdlSyntaxError(
                f"expected assignment target but found {token.text!r}",
                token.location,
            )
        return self._parse_identifier_with_selects()

    def parse_expression(self):
        return self._parse_ternary()

    def _parse_ternary(self):
        cond = self._parse_binary(0)
        if self._accept_punct("?"):
            then = self._parse_ternary()
            self._expect_punct(":")
            otherwise = self._parse_ternary()
            return ast.Ternary(
                cond=cond, then=then, otherwise=otherwise, location=cond.location
            )
        return cond

    def _parse_binary(self, min_precedence):
        left = self._parse_unary()
        while True:
            token = self.current
            if token.kind != TokenKind.PUNCT:
                return left
            precedence = _BINARY_PRECEDENCE.get(token.text)
            if precedence is None or precedence < min_precedence:
                return left
            op = self._advance().text
            right = self._parse_binary(precedence + 1)
            left = ast.Binary(
                op=op, left=left, right=right, location=token.location
            )

    def _parse_unary(self):
        token = self.current
        if token.kind == TokenKind.PUNCT and token.text in _UNARY_OPS:
            self._advance()
            operand = self._parse_unary()
            return ast.Unary(
                op=token.text, operand=operand, location=token.location
            )
        return self._parse_primary()

    def _parse_primary(self):
        token = self.current
        if token.kind == TokenKind.NUMBER:
            self._advance()
            return ast.Number(
                value=int(token.text.replace("_", "")),
                width=None,
                text=token.text,
                location=token.location,
            )
        if token.kind == TokenKind.BASED_NUMBER:
            self._advance()
            return parse_based_number(token.text, token.location)
        if token.kind == TokenKind.SYSTEM_IDENT:
            self._advance()
            args = []
            if self._accept_punct("("):
                if not self.current.is_punct(")"):
                    while True:
                        args.append(self.parse_expression())
                        if not self._accept_punct(","):
                            break
                self._expect_punct(")")
            return ast.FunctionCall(
                name=token.text, args=args, location=token.location
            )
        if token.is_punct("("):
            self._advance()
            expr = self.parse_expression()
            self._expect_punct(")")
            return expr
        if token.is_punct("{"):
            return self._parse_concat()
        if token.kind == TokenKind.IDENT:
            return self._parse_identifier_with_selects()
        raise HdlSyntaxError(
            f"unexpected token {token.text!r} in expression", token.location
        )

    def _parse_concat(self):
        start = self._expect_punct("{")
        first = self.parse_expression()
        if self.current.is_punct("{"):
            # Replication: {count{value}}
            self._advance()
            inner = ast.Concat(location=start.location)
            inner.parts.append(self.parse_expression())
            while self._accept_punct(","):
                inner.parts.append(self.parse_expression())
            self._expect_punct("}")
            self._expect_punct("}")
            value = inner.parts[0] if len(inner.parts) == 1 else inner
            return ast.Repeat(count=first, value=value, location=start.location)
        concat = ast.Concat(parts=[first], location=start.location)
        while self._accept_punct(","):
            concat.parts.append(self.parse_expression())
        self._expect_punct("}")
        return concat

    def _parse_identifier_with_selects(self):
        token = self._expect_ident()
        expr = ast.Identifier(name=token.text, location=token.location)
        while self.current.is_punct("["):
            bracket = self._advance()
            first = self.parse_expression()
            if self._accept_punct(":"):
                second = self.parse_expression()
                self._expect_punct("]")
                expr = ast.PartSelect(
                    base=expr, msb=first, lsb=second, mode=":",
                    location=bracket.location,
                )
            elif self._accept_punct("+:"):
                second = self.parse_expression()
                self._expect_punct("]")
                expr = ast.PartSelect(
                    base=expr, msb=first, lsb=second, mode="+:",
                    location=bracket.location,
                )
            elif self._accept_punct("-:"):
                second = self.parse_expression()
                self._expect_punct("]")
                expr = ast.PartSelect(
                    base=expr, msb=first, lsb=second, mode="-:",
                    location=bracket.location,
                )
            else:
                self._expect_punct("]")
                expr = ast.Index(
                    base=expr, index=first, location=bracket.location
                )
        return expr


#: Per-process parse memo bound (texts retained at once).  One tree
#: retains 7-53 KiB.  On the campaign benchmark an unbounded memo grew
#: ``functional-interp``'s peak RSS by 23%; 64 entries cost 6.5% there
#: and still answer 0.67 of ``paper-quick``'s parse requests, against
#: the 0.76 that repeat a text the process has parsed before.
MEMO_LIMIT = 64

#: text -> its ``SourceFile``, or the ``(message, location)`` of its
#: syntax error.
_memo = LRUMemo(MEMO_LIMIT)


def parse_source(source):
    """Parse Verilog text into a :class:`ast.SourceFile`.

    Each distinct text is parsed once per process (up to
    :data:`MEMO_LIMIT` recent texts) and every caller gets the same
    tree, so no pass may write to a node the parser returned.  A
    syntax error is remembered and raised afresh on every call.
    """
    with trace.span("parse", cat="hdl", chars=len(source)) as span:
        entry = _memo.lookup(source)
        if entry is None:
            span.set(memo="miss")
            _metrics.inc("parse.memo_misses")
            try:
                entry = Parser(source).parse_source()
            except HdlSyntaxError as exc:
                entry = (exc.message, exc.location)
            _memo.store(source, entry)
        else:
            span.set(memo="hit")
            _metrics.inc("parse.memo_hits")
        if isinstance(entry, tuple):
            raise HdlSyntaxError(*entry)
        return entry


def parse_module(source):
    """Parse Verilog text and return its first module."""
    return parse_source(source).modules[0]
