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
(/* */) are skipped. The lexer makes one regular-expression match per token,
the blanks and comments before it included, and cuts each run of word
characters into integers (str.isdigit runs) and one identifier or keyword
(str.isalpha or "_" first), so Unicode text lexes as Python classifies it.
parse_mini ends the tokens with an "end" token placed just past the last
character, which is where errors at end of input point. Binary operators are parsed by precedence climbing over
_BINARY_LEVELS. The AST keeps no punctuation or delimiter nodes: labels are
production names (CompilationUnit, VariableDeclaration, AssignStmt, IfStmt,
WhileStmt, ForStmt, BlockStmt, ExprStmt, MethodCallExpr), operator symbols for
unary/binary nodes, identifier and type-keyword text for names, and raw literal
text for literals (collapse values with corpus.normalize_labels afterwards).
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .corpus import AstTree
from .errors import MiniSyntaxError

TYPE_KEYWORDS = ("int", "float", "string", "bool")
_KEYWORDS = frozenset(TYPE_KEYWORDS) | {"if", "else", "while", "for"}
# One match per token: the blanks and comments before it, then a word run, a
# string or an operator. The blank run is atomic (a lookahead, which Python
# never backtracks into, plus a backreference; 3.10 has no possessive "*+"), so
# a failing token cannot give back part of a comment. The token is optional:
# a match that ends after the blanks is the end of input or a lexical error.
# "/*" is no operator, so an unclosed comment, like a lone '"', matches nothing.
_TOKEN = re.compile(
    r'(?=(?P<blank>(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*))(?P=blank)'
    r'(?:(?P<word>\w+)'
    r'|(?P<string>"[^"\n]*")'
    r'|(?P<op><=|>=|==|!=|&&|\|\||/(?!\*)|[-+*<>!=(){};,]))?',
    re.DOTALL)

# Statements, expressions and "!" operands that may be open at once. One level
# costs at most eleven interpreter frames (expression, nested, seven _binary
# when each parenthesis is the right operand of all six operator levels, unary,
# primary), five for plain parentheses. Called from one function at this limit,
# the two shapes need recursion limits of 698 and 326 (Python 3.11), under 1000.
MAX_NESTING = 64


class Token(NamedTuple):
    kind: str  # "ident", "keyword", "int", "string", "op"; parse_mini adds "end"
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start, newline = 1, 0, source.find("\n")  # line_start: offset of the line
    for m in _TOKEN.finditer(source):
        kind, start = m.lastgroup, m.end("blank")
        while 0 <= newline < start:
            line, line_start, newline = line + 1, newline + 1, source.find("\n", newline + 1)
        col = start - line_start + 1
        if kind == "blank":  # no token after the blanks
            if start == len(source):
                break
            if source.startswith("/*", start):
                raise MiniSyntaxError("unterminated block comment", line, col)
            if source[start] == '"':
                raise MiniSyntaxError("unterminated string literal", line, col)
            raise MiniSyntaxError(f"unexpected character {source[start]!r}", line, col)
        text = m[kind]
        if kind == "word":  # integers (str.isdigit), then an identifier (str.isalpha or "_")
            digits = (len(text) - len(text.lstrip("0123456789")) if text.isascii() else
                      next((i for i, ch in enumerate(text) if not ch.isdigit()), len(text)))
            if digits:
                tokens.append(Token("int", text[:digits], line, col))
                text, col = text[digits:], col + digits
                if not text:
                    continue
            if not (text[0].isalpha() or text[0] == "_"):
                raise MiniSyntaxError(f"unexpected character {text[0]!r}", line, col)
            kind = "keyword" if text in _KEYWORDS else "ident"
        tokens.append(Token(kind, text, line, col))
    return tokens


# Binary operators from loosest to tightest binding.
_BINARY_LEVELS = (("||",), ("&&",), ("==", "!="), ("<", ">", "<=", ">="), ("+", "-"), ("*", "/"))
_LEVEL = {op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops}


class _Parser:
    """Recursive descent over a token list that ends in two "end" tokens.

    The end token has kind "end", empty text and the position just past the
    last character, so every test on a token reads its kind or text, and
    peek(1) stays in the list even on the first end token.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def fail(self, message: str):
        tok = self.peek()
        found = "end of input" if tok.kind == "end" else repr(tok.text)
        raise MiniSyntaxError(f"{message}, found {found}", tok.line, tok.col)

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.tokens[self.pos].text == text

    def expect(self, text: str) -> Token:
        if not self.at(text):
            self.fail(f"expected {text!r}")
        return self.take()

    def nested(self, parse, *args) -> AstTree:
        """Run parse(*args) one nesting level deeper. Statements, expressions
        and "!" operands open a level; a failure abandons the whole parse."""
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels")
        node = parse(*args)
        self.nesting -= 1
        return node

    # --- statements ---

    def program(self) -> AstTree:
        stmts = [self.statement()]
        while self.peek().kind != "end":
            stmts.append(self.statement())
        return AstTree("CompilationUnit", tuple(stmts))

    def statement(self) -> AstTree:
        return self.nested(self._statement)

    def _statement(self) -> AstTree:
        tok = self.peek()
        if tok.kind in ("keyword", "end"):
            if tok.text in TYPE_KEYWORDS:
                return self.declaration()
            if tok.text in ("if", "while"):
                return self.conditional()
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
        return self.peek(1).text == "="

    def declaration(self) -> AstTree:
        type_tok = self.take()
        name = self.peek()
        if name.kind != "ident":
            self.fail("expected identifier after type")
        self.take()
        children = [AstTree(type_tok.text), AstTree(name.text)]
        if self.at("="):
            self.take()
            children.append(self.expression())
        self.expect(";")
        return AstTree("VariableDeclaration", tuple(children))

    def assignment(self, consume_semi: bool = True) -> AstTree:
        name = self.take()
        self.expect("=")
        value = self.expression()
        if consume_semi:
            self.expect(";")
        return AstTree("AssignStmt", (AstTree(name.text), value))

    def conditional(self) -> AstTree:
        """if (cond) stmt [else stmt] and while (cond) stmt."""
        keyword = self.take().text
        self.expect("(")
        cond = self.expression()
        self.expect(")")
        children = [cond, self.statement()]
        if keyword == "if" and self.at("else"):
            self.take()
            children.append(self.statement())
        return AstTree("IfStmt" if keyword == "if" else "WhileStmt", tuple(children))

    def for_stmt(self) -> AstTree:
        self.take()
        self.expect("(")
        children: list[AstTree] = []
        tok = self.peek()
        if tok.kind == "keyword" and tok.text in TYPE_KEYWORDS:
            children.append(self.declaration())
        elif tok.kind == "ident" and self._at_assign():
            children.append(self.assignment())
        children.append(self.expression())
        self.expect(";")
        if not self.at(")"):
            if self.peek().kind != "ident" or not self._at_assign():
                self.fail("expected assignment or ')' in for header")
            children.append(self.assignment(consume_semi=False))
        self.expect(")")
        children.append(self.statement())
        return AstTree("ForStmt", tuple(children))

    def block(self) -> AstTree:
        self.take()
        stmts = []
        while not self.at("}"):
            if self.peek().kind == "end":
                self.fail("expected '}'")
            stmts.append(self.statement())
        self.take()
        return AstTree("BlockStmt", tuple(stmts))

    # --- expressions ---

    def expression(self) -> AstTree:
        return self.nested(self._binary, 0)

    def _binary(self, min_level: int) -> AstTree:
        """Precedence climbing over the left-associative levels >= min_level."""
        node = self.unary()
        while _LEVEL.get((tok := self.peek()).text, -1) >= min_level:
            self.take()
            node = AstTree(tok.text, (node, self._binary(_LEVEL[tok.text] + 1)))
        return node

    def unary(self) -> AstTree:
        if self.at("!"):
            tok = self.take()
            return AstTree(tok.text, (self.nested(self.unary),))
        return self.primary()

    def primary(self) -> AstTree:
        tok = self.peek()
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
    tokens = tokenize(source)
    if not tokens:
        raise MiniSyntaxError("empty input: expected at least one statement", 1, 1)
    end = Token("end", "", source.count("\n") + 1, len(source) - source.rfind("\n"))
    tokens += (end, end)
    return _Parser(tokens).program()
