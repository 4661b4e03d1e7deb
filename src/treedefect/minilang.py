"""Parser for the mini language used to exercise the pipeline end to end.

Grammar (EBNF)::

    program  := stmt+
    stmt     := decl | assign | if | while | for | block | exprstmt
    decl     := type IDENT ["=" expr] ";"
    assign   := IDENT "=" expr ";"
    if       := "if" "(" expr ")" stmt ["else" stmt]
    while    := "while" "(" expr ")" stmt
    for      := "for" "(" [decl | assign] expr ";" [assign-no-semi] ")" stmt
    block    := "{" stmt* "}"
    exprstmt := expr ";"
    expr     := binary over + - * / < > <= >= == != && || and unary !,
                calls IDENT "(" [expr {"," expr}] ")", IDENT, INT, STRING

Types are int, float, string, bool. Line comments (//) and block comments
(/* */) are skipped. The AST keeps no punctuation or delimiter nodes: labels
are production names (CompilationUnit, VariableDeclaration, AssignStmt,
IfStmt, WhileStmt, ForStmt, BlockStmt, ExprStmt, MethodCallExpr), operator
symbols for unary/binary nodes, identifier and type-keyword text for names,
and raw literal text for literals (collapse values with
corpus.normalize_labels afterwards).
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import AstTree
from .errors import MiniSyntaxError

TYPE_KEYWORDS = ("int", "float", "string", "bool")
_KEYWORDS = frozenset(TYPE_KEYWORDS) | {"if", "else", "while", "for"}
_TWO_CHAR_OPS = ("<=", ">=", "==", "!=", "&&", "||")
_ONE_CHAR = "+-*/<>!=(){};,"

# Statements, expressions and "!" operands that may be open at once. One level
# costs at most ten interpreter frames (an expression, the binary precedence
# levels, unary and primary before the next parenthesis), so the deepest input
# stays far inside Python's default recursion limit of 1000.
MAX_NESTING = 64


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "keyword", "int", "string", "op"
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(source)

    def advance(k: int):
        nonlocal i, line, col
        for _ in range(k):
            if source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                advance(1)
            continue
        if source.startswith("/*", i):
            start_line, start_col = line, col
            advance(2)
            while i < n and not source.startswith("*/", i):
                advance(1)
            if i >= n:
                raise MiniSyntaxError("unterminated block comment", start_line, start_col)
            advance(2)
            continue
        if ch.isalpha() or ch == "_":
            start, start_line, start_col = i, line, col
            while i < n and (source[i].isalnum() or source[i] == "_"):
                advance(1)
            text = source[start:i]
            kind = "keyword" if text in _KEYWORDS else "ident"
            tokens.append(Token(kind, text, start_line, start_col))
            continue
        if ch.isdigit():
            start, start_line, start_col = i, line, col
            while i < n and source[i].isdigit():
                advance(1)
            tokens.append(Token("int", source[start:i], start_line, start_col))
            continue
        if ch == '"':
            start, start_line, start_col = i, line, col
            advance(1)
            while i < n and source[i] not in '"\n':
                advance(1)
            if i >= n or source[i] == "\n":
                raise MiniSyntaxError("unterminated string literal", start_line, start_col)
            advance(1)
            tokens.append(Token("string", source[start:i], start_line, start_col))
            continue
        two = source[i:i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(Token("op", two, line, col))
            advance(2)
            continue
        if ch in _ONE_CHAR:
            tokens.append(Token("op", ch, line, col))
            advance(1)
            continue
        raise MiniSyntaxError(f"unexpected character {ch!r}", line, col)
    return tokens


# Binary operators from loosest to tightest binding.
_BINARY_LEVELS = (("||",), ("&&",), ("==", "!="), ("<", ">", "<=", ">="), ("+", "-"), ("*", "/"))


class _Parser:
    def __init__(self, tokens: list[Token], end_line: int, end_col: int):
        self.tokens = tokens
        self.pos = 0
        self.end_line = end_line
        self.end_col = end_col
        self.nesting = 0

    def peek(self, ahead: int = 0) -> Token | None:
        idx = self.pos + ahead
        return self.tokens[idx] if idx < len(self.tokens) else None

    def fail(self, message: str):
        tok = self.peek()
        if tok is None:
            raise MiniSyntaxError(f"{message}, found end of input", self.end_line, self.end_col)
        raise MiniSyntaxError(f"{message}, found {tok.text!r}", tok.line, tok.col)

    def take(self) -> Token:
        tok = self.peek()
        if tok is None:
            self.fail("unexpected end of input")
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.text == text

    def expect(self, text: str) -> Token:
        if not self.at(text):
            self.fail(f"expected {text!r}")
        return self.take()

    def too_deep(self):
        self.fail(f"nesting deeper than {MAX_NESTING} levels")

    # --- statements ---

    def program(self) -> AstTree:
        stmts = [self.statement()]
        while self.peek() is not None:
            stmts.append(self.statement())
        return AstTree("CompilationUnit", tuple(stmts))

    # statement, expression and "!" each open one nesting level and close it
    # on success; a failure abandons the whole parse
    def statement(self) -> AstTree:
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            self.too_deep()
        node = self._statement()
        self.nesting -= 1
        return node

    def _statement(self) -> AstTree:
        tok = self.peek()
        if tok is None:
            self.fail("expected statement")
        if tok.kind == "keyword":
            if tok.text in TYPE_KEYWORDS:
                return self.declaration()
            if tok.text == "if":
                return self.if_stmt()
            if tok.text == "while":
                return self.while_stmt()
            if tok.text == "for":
                return self.for_stmt()
            self.fail("expected statement")
        if tok.text == "{":
            return self.block()
        if tok.kind == "ident" and self._at_assign():
            return self.assignment()
        expr = self.expression()
        self.expect(";")
        return AstTree("ExprStmt", (expr,))

    def _at_assign(self) -> bool:
        nxt = self.peek(1)
        return nxt is not None and nxt.text == "="

    def declaration(self, consume_semi: bool = True) -> AstTree:
        type_tok = self.take()
        name = self.peek()
        if name is None or name.kind != "ident":
            self.fail("expected identifier after type")
        self.take()
        children = [AstTree(type_tok.text), AstTree(name.text)]
        if self.at("="):
            self.take()
            children.append(self.expression())
        if consume_semi:
            self.expect(";")
        return AstTree("VariableDeclaration", tuple(children))

    def assignment(self, consume_semi: bool = True) -> AstTree:
        name = self.take()
        self.expect("=")
        value = self.expression()
        if consume_semi:
            self.expect(";")
        return AstTree("AssignStmt", (AstTree(name.text), value))

    def if_stmt(self) -> AstTree:
        self.take()
        self.expect("(")
        cond = self.expression()
        self.expect(")")
        children = [cond, self.statement()]
        if self.at("else"):
            self.take()
            children.append(self.statement())
        return AstTree("IfStmt", tuple(children))

    def while_stmt(self) -> AstTree:
        self.take()
        self.expect("(")
        cond = self.expression()
        self.expect(")")
        return AstTree("WhileStmt", (cond, self.statement()))

    def for_stmt(self) -> AstTree:
        self.take()
        self.expect("(")
        children: list[AstTree] = []
        tok = self.peek()
        if tok is not None and tok.kind == "keyword" and tok.text in TYPE_KEYWORDS:
            children.append(self.declaration())
        elif tok is not None and tok.kind == "ident" and self._at_assign():
            children.append(self.assignment())
        children.append(self.expression())
        self.expect(";")
        if not self.at(")"):
            tok = self.peek()
            if tok is None or tok.kind != "ident" or not self._at_assign():
                self.fail("expected assignment or ')' in for header")
            children.append(self.assignment(consume_semi=False))
        self.expect(")")
        children.append(self.statement())
        return AstTree("ForStmt", tuple(children))

    def block(self) -> AstTree:
        self.take()
        stmts = []
        while not self.at("}"):
            if self.peek() is None:
                self.fail("expected '}'")
            stmts.append(self.statement())
        self.take()
        return AstTree("BlockStmt", tuple(stmts))

    # --- expressions ---

    def expression(self) -> AstTree:
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            self.too_deep()
        node = self._binary(0)
        self.nesting -= 1
        return node

    def _binary(self, level: int) -> AstTree:
        if level == len(_BINARY_LEVELS):
            return self.unary()
        node = self._binary(level + 1)
        ops = _BINARY_LEVELS[level]
        while (tok := self.peek()) is not None and tok.kind == "op" and tok.text in ops:
            self.take()
            rhs = self._binary(level + 1)
            node = AstTree(tok.text, (node, rhs))
        return node

    def unary(self) -> AstTree:
        if self.at("!"):
            tok = self.take()
            self.nesting += 1
            if self.nesting > MAX_NESTING:
                self.too_deep()
            node = AstTree(tok.text, (self.unary(),))
            self.nesting -= 1
            return node
        return self.primary()

    def primary(self) -> AstTree:
        tok = self.peek()
        if tok is None:
            self.fail("expected expression")
        if tok.text == "(":
            self.take()
            inner = self.expression()
            self.expect(")")
            return inner
        if tok.kind in ("int", "string"):
            self.take()
            return AstTree(tok.text)
        if tok.kind == "ident":
            self.take()
            if self.at("("):
                self.take()
                args = []
                if not self.at(")"):
                    args.append(self.expression())
                    while self.at(","):
                        self.take()
                        args.append(self.expression())
                self.expect(")")
                return AstTree("MethodCallExpr", (AstTree(tok.text), *args))
            return AstTree(tok.text)
        self.fail("expected expression")
        raise AssertionError("unreachable")


def parse_mini(source: str) -> AstTree:
    """Parse mini-language source into an AST rooted at CompilationUnit.

    Literal nodes keep their raw text (digits, quoted strings); apply
    corpus.normalize_labels to collapse them. Raises MiniSyntaxError with a
    1-based line/column on any lexical or syntax error, including empty input
    and nesting deeper than MAX_NESTING statements, expressions and "!"
    operands.
    """
    lines = source.split("\n")
    end_line, end_col = len(lines), len(lines[-1]) + 1
    tokens = tokenize(source)
    if not tokens:
        raise MiniSyntaxError("empty input: expected at least one statement", 1, 1)
    parser = _Parser(tokens, end_line, end_col)
    return parser.program()
