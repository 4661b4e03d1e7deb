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
It returns each token's kind, text and start offset as parallel lists;
`position` turns an offset into a line and column only when an error is
raised. parse_mini ends the tokens with an "end" token at offset
len(source), just past the last character, which is where errors at end of
input point. Binary operators are parsed by precedence climbing over
_BINARY_LEVELS. The parser makes no node objects: it appends each node's
label and child count in preorder, and the tree is a root that keeps that
shape (corpus._shape, which checks nothing). The AST keeps no punctuation
or delimiter nodes: labels are production names (CompilationUnit,
VariableDeclaration, AssignStmt, IfStmt, WhileStmt, ForStmt, BlockStmt,
ExprStmt, MethodCallExpr), operator symbols for unary/binary nodes,
identifier and type-keyword text for names, and raw literal text for
literals (collapse values with corpus.normalize_labels afterwards).
"""

from __future__ import annotations

import re

from .corpus import AstTree, _shape
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
# the two shapes need recursion limits of 696 and 324 (Python 3.11), under 1000.
MAX_NESTING = 64


def position(source: str, offset: int) -> tuple[int, int]:
    """1-based line and column of the character at `offset` in `source`
    (`len(source)`: just past the last character)."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def tokenize(source: str) -> tuple[list[str], list[str], list[int]]:
    """Kind ("ident", "keyword", "int", "string" or "op"), text and start
    offset of each token of `source`, as three parallel lists."""
    kinds: list[str] = []
    texts: list[str] = []
    starts: list[int] = []
    for m in _TOKEN.finditer(source):
        kind, start = m.lastgroup, m.end("blank")
        if kind == "blank":  # no token after the blanks
            if start == len(source):
                break
            message = ("unterminated block comment" if source.startswith("/*", start) else
                       "unterminated string literal" if source[start] == '"' else
                       f"unexpected character {source[start]!r}")
            raise MiniSyntaxError(message, *position(source, start))
        text = m[kind]
        if kind == "word":  # integers (str.isdigit), then an identifier (str.isalpha or "_")
            digits = (len(text) - len(text.lstrip("0123456789")) if text.isascii() else
                      next((i for i, ch in enumerate(text) if not ch.isdigit()), len(text)))
            if digits:
                kinds.append("int")
                texts.append(text[:digits])
                starts.append(start)
                text, start = text[digits:], start + digits
                if not text:
                    continue
            if not (text[0].isalpha() or text[0] == "_"):
                raise MiniSyntaxError(f"unexpected character {text[0]!r}",
                                      *position(source, start))
            kind = "keyword" if text in _KEYWORDS else "ident"
        kinds.append(kind)
        texts.append(text)
        starts.append(start)
    return kinds, texts, starts


# Binary operators from loosest to tightest binding.
_BINARY_LEVELS = (("||",), ("&&",), ("==", "!="), ("<", ">", "<=", ">="), ("+", "-"), ("*", "/"))
_LEVEL = {op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops}


class _Parser:
    """Recursive descent over token lists that end in two "end" tokens,
    appending each node's label and child count to `labels` and `arity` in
    preorder.

    The end token has kind "end", empty text and the offset just past the
    last character, so every test on a token reads its kind or text, and the
    token after the first end token is still in the lists.
    """

    def __init__(self, source: str, kinds: list[str], texts: list[str], starts: list[int]):
        self.source, self.kinds, self.texts, self.starts = source, kinds, texts, starts
        self.pos = 0
        self.nesting = 0
        self.labels: list[str] = []
        self.arity: list[int] = []

    def fail(self, message: str):
        found = "end of input" if self.kinds[self.pos] == "end" else repr(self.texts[self.pos])
        raise MiniSyntaxError(f"{message}, found {found}",
                              *position(self.source, self.starts[self.pos]))

    def take(self) -> str:
        """The current token's text; moves past it."""
        self.pos += 1
        return self.texts[self.pos - 1]

    def at(self, text: str) -> bool:
        return self.texts[self.pos] == text

    def expect(self, text: str) -> None:
        if self.texts[self.pos] != text:
            self.fail(f"expected {text!r}")
        self.pos += 1

    def node(self, label: str, arity: int = 0) -> int:
        """Append a node; its index, for adding children to its count."""
        self.labels.append(label)
        self.arity.append(arity)
        return len(self.arity) - 1

    def nested(self, parse, *args) -> None:
        """Run parse(*args) one nesting level deeper. Statements, expressions
        and "!" operands open a level; a failure abandons the whole parse."""
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels")
        parse(*args)
        self.nesting -= 1

    # --- statements ---

    def program(self) -> None:
        unit = self.node("CompilationUnit", 1)
        self.statement()
        while self.kinds[self.pos] != "end":
            self.statement()
            self.arity[unit] += 1

    def statement(self) -> None:
        self.nested(self._statement)

    def _statement(self) -> None:
        kind, text = self.kinds[self.pos], self.texts[self.pos]
        if kind in ("keyword", "end"):
            if text in TYPE_KEYWORDS:
                return self.declaration()
            if text in ("if", "while"):
                return self.conditional()
            if text == "for":
                return self.for_stmt()
            self.fail("expected statement")
        if text == "{":
            return self.block()
        if kind == "ident" and self._at_assign():
            return self.assignment()
        self.node("ExprStmt", 1)
        self.expression()
        self.expect(";")

    def _at_assign(self) -> bool:
        return self.texts[self.pos + 1] == "="

    def declaration(self) -> None:
        decl = self.node("VariableDeclaration", 2)
        self.node(self.take())
        if self.kinds[self.pos] != "ident":
            self.fail("expected identifier after type")
        self.node(self.take())
        if self.at("="):
            self.pos += 1
            self.arity[decl] = 3
            self.expression()
        self.expect(";")

    def assignment(self, consume_semi: bool = True) -> None:
        self.node("AssignStmt", 2)
        self.node(self.take())
        self.expect("=")
        self.expression()
        if consume_semi:
            self.expect(";")

    def conditional(self) -> None:
        """if (cond) stmt [else stmt] and while (cond) stmt."""
        keyword = self.take()
        stmt = self.node("IfStmt" if keyword == "if" else "WhileStmt", 2)
        self.expect("(")
        self.expression()
        self.expect(")")
        self.statement()
        if keyword == "if" and self.at("else"):
            self.pos += 1
            self.arity[stmt] = 3
            self.statement()

    def for_stmt(self) -> None:
        self.pos += 1
        stmt = self.node("ForStmt", 2)  # the condition and the body
        self.expect("(")
        kind, text = self.kinds[self.pos], self.texts[self.pos]
        if kind == "keyword" and text in TYPE_KEYWORDS:
            self.declaration()
            self.arity[stmt] += 1
        elif kind == "ident" and self._at_assign():
            self.assignment()
            self.arity[stmt] += 1
        self.expression()
        self.expect(";")
        if not self.at(")"):
            if self.kinds[self.pos] != "ident" or not self._at_assign():
                self.fail("expected assignment or ')' in for header")
            self.assignment(consume_semi=False)
            self.arity[stmt] += 1
        self.expect(")")
        self.statement()

    def block(self) -> None:
        self.pos += 1
        block = self.node("BlockStmt")
        while not self.at("}"):
            if self.kinds[self.pos] == "end":
                self.fail("expected '}'")
            self.statement()
            self.arity[block] += 1
        self.pos += 1

    # --- expressions ---

    def expression(self) -> None:
        self.nested(self._binary, 0)

    def _binary(self, min_level: int) -> None:
        """Precedence climbing over the left-associative levels >= min_level.
        Each operator takes all before it as its left operand, so the chain's
        operators go in front of its first operand, last first, in one insert
        (an insert per operator is quadratic in the chain's length)."""
        start = len(self.labels)
        self.unary()
        ops = []
        while _LEVEL.get(op := self.texts[self.pos], -1) >= min_level:
            self.pos += 1
            ops.append(op)
            self._binary(_LEVEL[op] + 1)
        if ops:
            self.labels[start:start] = ops[::-1]
            self.arity[start:start] = [2] * len(ops)

    def unary(self) -> None:
        if self.at("!"):
            self.pos += 1
            self.node("!", 1)
            self.nested(self.unary)
        else:
            self.primary()

    def primary(self) -> None:
        kind, text = self.kinds[self.pos], self.texts[self.pos]
        if text == "(":
            self.pos += 1
            self.expression()
            self.expect(")")
        elif kind in ("int", "string"):
            self.pos += 1
            self.node(text)
        elif kind == "ident":
            self.pos += 1
            if not self.at("("):
                self.node(text)
                return
            self.pos += 1
            call = self.node("MethodCallExpr", 1)
            self.node(text)
            if not self.at(")"):
                self.expression()
                self.arity[call] += 1
                while self.at(","):
                    self.pos += 1
                    self.expression()
                    self.arity[call] += 1
            self.expect(")")
        else:
            self.fail("expected expression")


def parse_mini(source: str) -> AstTree:
    """Parse mini-language source into an AST rooted at CompilationUnit.

    Literal nodes keep their raw text (digits, quoted strings); apply
    corpus.normalize_labels to collapse them. Raises MiniSyntaxError with a
    1-based line/column on any lexical or syntax error, including empty input
    and nesting deeper than MAX_NESTING statements, expressions and "!"
    operands. The root keeps the preorder labels and child counts that the
    parser appends; the parse has no depth limit (normalize_labels has).
    """
    kinds, texts, starts = tokenize(source)
    if not kinds:
        raise MiniSyntaxError("empty input: expected at least one statement", 1, 1)
    kinds += ("end", "end")
    texts += ("", "")
    starts += (len(source), len(source))
    parser = _Parser(source, kinds, texts, starts)
    parser.program()
    return _shape(parser.labels, parser.arity)
