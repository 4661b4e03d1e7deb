import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from treedefect import (AstTree, MiniSyntaxError, normalize_label, normalize_labels,
                        parse_mini, preorder)
from treedefect.corpus import INT_LITERAL_LABEL, tree_shape
from treedefect.minilang import MAX_NESTING, position, tokenize
from treedefect.synthetic import generate_source

import oracles
from oracles import iter_nodes


def leaf(label):
    return AstTree(label)


def unit(*stmts):
    return AstTree("CompilationUnit", stmts)


def test_declaration_with_initializer():
    assert parse_mini("int i = 0;") == unit(
        AstTree("VariableDeclaration", (leaf("int"), leaf("i"), leaf("0"))))


def test_declaration_without_initializer():
    assert parse_mini("string name;") == unit(
        AstTree("VariableDeclaration", (leaf("string"), leaf("name"))))


def test_assignment_statement():
    assert parse_mini("x = y;") == unit(AstTree("AssignStmt", (leaf("x"), leaf("y"))))


def test_operator_precedence():
    tree = parse_mini("x = 1 + 2 * 3;")
    assert tree == unit(AstTree("AssignStmt", (
        leaf("x"),
        AstTree("+", (leaf("1"), AstTree("*", (leaf("2"), leaf("3"))))),
    )))
    tree = parse_mini("a || b && c;")
    assert tree == unit(AstTree("ExprStmt", (
        AstTree("||", (leaf("a"), AstTree("&&", (leaf("b"), leaf("c"))))),
    )))
    tree = parse_mini("1 < 2 == 3 >= 4;")
    assert tree == unit(AstTree("ExprStmt", (
        AstTree("==", (AstTree("<", (leaf("1"), leaf("2"))),
                       AstTree(">=", (leaf("3"), leaf("4"))))),
    )))


def test_left_associativity():
    assert parse_mini("1 - 2 - 3;") == unit(AstTree("ExprStmt", (
        AstTree("-", (AstTree("-", (leaf("1"), leaf("2"))), leaf("3"))),
    )))


def test_parentheses_override_and_vanish():
    assert parse_mini("x = (1 + 2) * 3;") == unit(AstTree("AssignStmt", (
        leaf("x"),
        AstTree("*", (AstTree("+", (leaf("1"), leaf("2"))), leaf("3"))),
    )))


def test_unary_not_nests():
    assert parse_mini("!!ok;") == unit(AstTree("ExprStmt", (
        AstTree("!", (AstTree("!", (leaf("ok"),)),)),
    )))


def test_method_call_arguments():
    assert parse_mini('log(msg, 2, "hi");') == unit(AstTree("ExprStmt", (
        AstTree("MethodCallExpr", (leaf("log"), leaf("msg"), leaf("2"), leaf('"hi"'))),
    )))
    assert parse_mini("ping();") == unit(AstTree("ExprStmt", (
        AstTree("MethodCallExpr", (leaf("ping"),)),
    )))


def test_if_else_and_while():
    source = "if (a < b) x = 1; else { }\nwhile (run()) stop();"
    assert parse_mini(source) == unit(
        AstTree("IfStmt", (
            AstTree("<", (leaf("a"), leaf("b"))),
            AstTree("AssignStmt", (leaf("x"), leaf("1"))),
            AstTree("BlockStmt", ()),
        )),
        AstTree("WhileStmt", (
            AstTree("MethodCallExpr", (leaf("run"),)),
            AstTree("ExprStmt", (AstTree("MethodCallExpr", (leaf("stop"),)),)),
        )),
    )


def test_dangling_else_binds_to_nearest_if():
    tree = parse_mini("if (a) if (b) x = 1; else x = 2;")
    outer = tree.children[0]
    assert outer.label == "IfStmt" and len(outer.children) == 2
    inner = outer.children[1]
    assert inner.label == "IfStmt" and len(inner.children) == 3


def test_for_full_header():
    tree = parse_mini("for (int i = 0; i < 10; i = i + 1) { work(i); }")
    assert tree == unit(AstTree("ForStmt", (
        AstTree("VariableDeclaration", (leaf("int"), leaf("i"), leaf("0"))),
        AstTree("<", (leaf("i"), leaf("10"))),
        AstTree("AssignStmt", (leaf("i"), AstTree("+", (leaf("i"), leaf("1"))))),
        AstTree("BlockStmt", (
            AstTree("ExprStmt", (AstTree("MethodCallExpr", (leaf("work"), leaf("i"))),)),
        )),
    )))


def test_for_optional_parts():
    no_init = parse_mini("for (i < 3; i = i + 1) step();")
    assert no_init.children[0].children[0].label == "<"
    assert len(no_init.children[0].children) == 3
    no_update = parse_mini("for (int i = 0; i < 3;) step();")
    kinds = [c.label for c in no_update.children[0].children]
    assert kinds == ["VariableDeclaration", "<", "ExprStmt"]
    assign_init = parse_mini("for (i = 0; i < 3; i = i + 1) step();")
    assert assign_init == unit(AstTree("ForStmt", (
        AstTree("AssignStmt", (leaf("i"), leaf("0"))),
        AstTree("<", (leaf("i"), leaf("3"))),
        AstTree("AssignStmt", (leaf("i"), AstTree("+", (leaf("i"), leaf("1"))))),
        AstTree("ExprStmt", (AstTree("MethodCallExpr", (leaf("step"),)),)),
    )))


def test_comments_are_skipped():
    source = "// leading\nint x = 1; /* mid\ncomment */ x = 2; // trailing"
    tree = parse_mini(source)
    assert [s.label for s in tree.children] == ["VariableDeclaration", "AssignStmt"]


def test_string_literal_keeps_quotes_no_escapes():
    tree = parse_mini('msg = "a + b // ok";')
    assert tree.children[0].children[1] == leaf('"a + b // ok"')


def lexed(source):
    """(kind, text, line, col) of each token of `source`."""
    kinds, texts, starts = tokenize(source)
    return [(k, t, *position(source, s)) for k, t, s in zip(kinds, texts, starts)]


def test_tokenize_positions():
    tokens = lexed("int x;\n  x = 2;")
    assert tokens[0][1:] == ("int", 1, 1)
    assert tokens[3][1:] == ("x", 2, 3)


@pytest.mark.parametrize("source, offset, want", [
    ("", 0, (1, 1)), ("ab", 2, (1, 3)), ("a\nb", 2, (2, 1)), ("a\n", 2, (2, 1)),
    ("a\r\nbc", 4, (2, 2)), ("\n\n", 1, (2, 1)),
])
def test_position_is_the_one_based_line_and_column(source, offset, want):
    assert position(source, offset) == want


def test_two_char_operators_tokenize_whole():
    texts = tokenize("a<=b>=c==d!=e&&f||g")[1]
    assert texts == ["a", "<=", "b", ">=", "c", "==", "d", "!=", "e", "&&", "f", "||", "g"]


@pytest.mark.parametrize("source, expected", [
    ("x = 1; /* one\ntwo\n  three */ y = 2;",
     [("ident", "x", 1, 1), ("op", "=", 1, 3), ("int", "1", 1, 5), ("op", ";", 1, 6),
      ("ident", "y", 3, 12), ("op", "=", 3, 14), ("int", "2", 3, 16), ("op", ";", 3, 17)]),
    ("int\tx = 1;\r\n\tx = x + 2;\r\n",
     [("keyword", "int", 1, 1), ("ident", "x", 1, 5), ("op", "=", 1, 7), ("int", "1", 1, 9),
      ("op", ";", 1, 10), ("ident", "x", 2, 2), ("op", "=", 2, 4), ("ident", "x", 2, 6),
      ("op", "+", 2, 8), ("int", "2", 2, 10), ("op", ";", 2, 11)]),
    ("12ab iffy format",
     [("int", "12", 1, 1), ("ident", "ab", 1, 3), ("ident", "iffy", 1, 6),
      ("ident", "format", 1, 11)]),
    ("a/b", [("ident", "a", 1, 1), ("op", "/", 1, 2), ("ident", "b", 1, 3)]),
    ("a/ /b", [("ident", "a", 1, 1), ("op", "/", 1, 2), ("op", "/", 1, 4), ("ident", "b", 1, 5)]),
    ("a//b\nc", [("ident", "a", 1, 1), ("ident", "c", 2, 1)]),
    # identifiers start with str.isalpha, integers are str.isdigit runs
    ("é = ²;", [("ident", "é", 1, 1), ("op", "=", 1, 3), ("int", "²", 1, 5), ("op", ";", 1, 6)]),
    ("x = ½;", ("unexpected character '½'", 1, 5)),
    ('x = 1;\ny = 2;\nz = "oops\n', ("unterminated string literal", 3, 5)),
    ("x = 1;\ny = 2;\n/* never\nclosed", ("unterminated block comment", 3, 1)),
])
def test_tokenize_table(source, expected):
    if isinstance(expected, list):
        assert lexed(source) == expected
        return
    message, line, col = expected
    with pytest.raises(MiniSyntaxError) as info:
        tokenize(source)
    assert str(info.value) == f"line {line}, col {col}: {message}"
    assert (info.value.line, info.value.col) == (line, col)


_LEX_PIECES = (*"abcxyzABCXYZ_0123456789", "é", "²", "½", "٣", "<=", ">=", "==", "!=", "&&",
               "||", *"-+*/<>!=(){};,", '"', "//", "/*", "*/", " ", "\t", "\n", "\r\n", "@")


def _lexed(lex, source):
    """The (kind, text, line, col) tokens of `source`, or its error's message
    and position."""
    try:
        return [tuple(token) for token in lex(source)]
    except MiniSyntaxError as exc:
        return str(exc), exc.line, exc.col


# comments that a blank prefix able to give characters back would reopen, and
# word runs that start with digits
@example("x=1;   // tail")
@example("/* a */ @ x /* b */ y")
@example("12ab")
@example("12²")
@example("x = 1; /* open")
@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_LEX_PIECES), max_size=40).map("".join))
def test_tokenize_matches_the_one_lexeme_per_match_oracle(source):
    want = _lexed(oracles.tokenize, source)
    assert _lexed(lexed, source) == want
    assert _lexed(oracles.token_lexer, source) == want


@example("y = ²; z = ٣; w = 2;")
@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_LEX_PIECES), max_size=40).map("".join))
def test_every_integer_token_folds_to_the_integer_literal(source):
    # the lexer calls every str.isdigit run an integer, Unicode digits too
    try:
        kinds, texts, _ = tokenize(source)
    except MiniSyntaxError:
        return
    ints = [text for kind, text in zip(kinds, texts) if kind == "int"]
    assert [normalize_label(text) for text in ints] == [INT_LITERAL_LABEL] * len(ints)


def test_unicode_digits_fold_like_ascii_digits():
    labels = preorder(normalize_labels(parse_mini("y = ²; z = ٣; w = 2;")))[0]
    assert labels == ["CompilationUnit", "AssignStmt", "y", INT_LITERAL_LABEL,
                      "AssignStmt", "z", INT_LITERAL_LABEL, "AssignStmt", "w", INT_LITERAL_LABEL]


def test_equality_vs_assignment_disambiguation():
    tree = parse_mini("x == y;")
    assert tree.children[0].label == "ExprStmt"
    tree = parse_mini("x = y;")
    assert tree.children[0].label == "AssignStmt"


def test_empty_input_error_position():
    with pytest.raises(MiniSyntaxError) as info:
        parse_mini("   \n  // just a comment\n")
    assert (info.value.line, info.value.col) == (1, 1)
    assert "empty input" in str(info.value)


def test_unterminated_string_error():
    with pytest.raises(MiniSyntaxError) as info:
        parse_mini('x = "oops\n;')
    assert (info.value.line, info.value.col) == (1, 5)
    assert "unterminated string" in str(info.value)


def test_unterminated_block_comment_error():
    with pytest.raises(MiniSyntaxError) as info:
        parse_mini("x = 1; /* never closed")
    assert (info.value.line, info.value.col) == (1, 8)


def test_unexpected_character_error():
    with pytest.raises(MiniSyntaxError) as info:
        parse_mini("x = 1 @ 2;")
    assert (info.value.line, info.value.col) == (1, 7)


def test_missing_semicolon_error():
    with pytest.raises(MiniSyntaxError) as info:
        parse_mini("x = 1")
    assert "expected ';'" in str(info.value)
    assert "end of input" in str(info.value)


def test_error_message_includes_position_prefix():
    with pytest.raises(MiniSyntaxError, match=r"^line 2, col 1:"):
        parse_mini("x = 1;\n)")


def test_keyword_cannot_start_expression():
    with pytest.raises(MiniSyntaxError):
        parse_mini("else;")
    with pytest.raises(MiniSyntaxError):
        parse_mini("x = if;")


def test_identifiers_with_underscores_and_digits():
    tree = parse_mini("_a1 = b_2;")
    assert tree.children[0] == AstTree("AssignStmt", (leaf("_a1"), leaf("b_2")))


# Sources whose innermost token sits under exactly k open nesting levels
# (statements, expressions and "!" operands).
NESTED = {
    "parentheses": lambda k: "x = " + "(" * (k - 2) + "1" + ")" * (k - 2) + ";",
    "blocks": lambda k: "{\n" * (k - 2) + "x;\n" + "}\n" * (k - 2),
    "negations": lambda k: "x = " + "!" * (k - 2) + "y;",
    "if statements": lambda k: "if (a) " * (k - 2) + "x;",
    "calls": lambda k: "x = " + "f(" * (k - 2) + "1" + ")" * (k - 2) + ";",
    # the deepest shape per level: each parenthesis is the right operand of
    # all six operator levels
    "operator levels": lambda k: ("x = " + "a || a && a == a < a + a * (" * (k - 2) + "1"
                                  + ")" * (k - 2) + ";"),
}


@pytest.mark.parametrize("kind", sorted(NESTED))
def test_nesting_limit(kind):
    parse_mini(NESTED[kind](MAX_NESTING))
    with pytest.raises(MiniSyntaxError, match="nesting deeper than"):
        parse_mini(NESTED[kind](MAX_NESTING + 1))


def test_nesting_error_position():
    with pytest.raises(MiniSyntaxError) as info:
        parse_mini(NESTED["parentheses"](MAX_NESTING + 1))
    # the literal after the last "(" is the first token past the limit
    assert (info.value.line, info.value.col) == (1, len("x = ") + MAX_NESTING)
    with pytest.raises(MiniSyntaxError) as info:
        parse_mini(NESTED["blocks"](MAX_NESTING + 1))
    assert (info.value.line, info.value.col) == (MAX_NESTING, 1)


def test_nesting_3000_deep_is_a_syntax_error():
    for make in NESTED.values():
        with pytest.raises(MiniSyntaxError):
            parse_mini(make(3000))


def test_nesting_limit_fits_a_small_recursion_limit():
    # MAX_NESTING's comment: every shape at the limit parses, called from one
    # function, under a recursion limit of 750 in a fresh interpreter
    script = textwrap.dedent("""
        import json, sys
        from treedefect import parse_mini
        def main(sources):
            sys.setrecursionlimit(750)
            for source in sources:
                parse_mini(source)
        main(json.load(sys.stdin))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p)
    sources = [NESTED[kind](MAX_NESTING) for kind in sorted(NESTED)]
    proc = subprocess.run([sys.executable, "-c", script], input=json.dumps(sources),
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


# One case per reachable fail() call site, mid-input and at end of input, and
# end-of-input positions after trailing newlines, comments and \r\n line ends.
# Errors at end of input point just past the last character.
@pytest.mark.parametrize("source, message, line, col", [
    ("else;", "expected statement, found 'else'", 1, 1),
    ("if (a)", "expected statement, found end of input", 1, 7),
    ("while (a)\n", "expected statement, found end of input", 2, 1),
    ("x = ;", "expected expression, found ';'", 1, 5),
    ("x = ", "expected expression, found end of input", 1, 5),
    ("x = f(1,", "expected expression, found end of input", 1, 9),
    # block() only fails at end of input: any other token starts a statement
    ("{ x;", "expected '}', found end of input", 1, 5),
    ("{\r\n  x;\r\n", "expected '}', found end of input", 3, 1),
    ("int 3;", "expected identifier after type, found '3'", 1, 5),
    ("int", "expected identifier after type, found end of input", 1, 4),
    ("for (x; 1) y;", "expected assignment or ')' in for header, found '1'", 1, 9),
    ("for (x;", "expected assignment or ')' in for header, found end of input", 1, 8),
    ("x = 1 2;", "expected ';', found '2'", 1, 7),
    ("x = 1", "expected ';', found end of input", 1, 6),
    ("x = (1;", "expected ')', found ';'", 1, 7),
    ("x = (1", "expected ')', found end of input", 1, 7),
    ("x = f(1 2);", "expected ')', found '2'", 1, 9),
    ("if x;", "expected '(', found 'x'", 1, 4),
    ("while", "expected '(', found end of input", 1, 6),
    (NESTED["parentheses"](MAX_NESTING + 1),
     f"nesting deeper than {MAX_NESTING} levels, found '1'", 1, 4 + MAX_NESTING),
    ("x = " + "!" * (MAX_NESTING - 1),
     f"nesting deeper than {MAX_NESTING} levels, found end of input", 1, 4 + MAX_NESTING),
    ("x = 1\n", "expected ';', found end of input", 2, 1),
    ("x = 1 /* a\nbb */", "expected ';', found end of input", 2, 6),
    ("x = 1;\r\ny = 2\r\n", "expected ';', found end of input", 3, 1),
    ("x = 1;\r\ny = (2", "expected ')', found end of input", 2, 7),
])
def test_syntax_error_table(source, message, line, col):
    with pytest.raises(MiniSyntaxError) as info:
        parse_mini(source)
    assert str(info.value) == f"line {line}, col {col}: {message}"
    assert (info.value.line, info.value.col) == (line, col)


_TOKENS = ("(", ")", "{", "}", "!", ";", ",", "=", "==", "+", "*", "<", "&&",
           "x", "f", "12", '"s"', "int", "if", "else", "while", "for", "/*", "*/",
           "//", "\n", "@")
_OPEN_CLOSE = (("(", ")"), ("{", "}"), ("!", ""), ("if (a) ", ""), ("f(", ")"),
               ("while (1) {", "}"), ("for (;", ";) x;"), ("", ""))


@st.composite
def nested_sources(draw):
    opener, closer = draw(st.sampled_from(_OPEN_CLOSE))
    depth = draw(st.integers(0, 3000))
    prefix = draw(st.sampled_from(("", "x = ", "int y = ", "if (")))
    body = draw(st.sampled_from(("", "1", "x;", "{}")))
    suffix = draw(st.sampled_from(("", ";", ")", ") x;")))
    return prefix + opener * depth + body + closer * depth + suffix


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(),
                 st.lists(st.sampled_from(_TOKENS), max_size=60).map(" ".join),
                 nested_sources()))
def test_any_text_parses_or_raises_syntax_error(source):
    try:
        tree = parse_mini(source)
    except MiniSyntaxError as exc:
        assert exc.line >= 1 and exc.col >= 1
    else:
        assert tree.label == "CompilationUnit"


# Statement and expression fragments: joined at random they parse often and
# fail at every fail() call site, mid-input and at end of input.
_FRAGMENTS = ("x = 1;", "int y;", "bool b = ", "f(x, 2);", "g();", "if (a < b) ", "else ",
              "while (c) ", "for (int i = 0; i < 3; i = i + 1) ", "for (x; ", "{ ", "} ",
              "x", "f(", "(", ")", ";", ",", "!", "+", "-", "*", "/", "<", ">=", "==", "!=",
              "&&", "||", "=", "1", "²", '"s"', "int", "\n", "\r\n", "// c\n", "/* c */", "@")


@st.composite
def parser_inputs(draw):
    """A generated source file, a run of fragments, or a NESTED shape at
    MAX_NESTING or one level past it; a quarter of them cut short, which
    ends them early."""
    kind = draw(st.sampled_from(("generated", "fragments", "nested")))
    if kind == "generated":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        source = generate_source(rng, draw(st.booleans()))
    elif kind == "fragments":
        source = "".join(draw(st.lists(st.sampled_from(_FRAGMENTS), min_size=1, max_size=40)))
    else:
        source = NESTED[draw(st.sampled_from(sorted(NESTED)))](
            draw(st.sampled_from((MAX_NESTING, MAX_NESTING + 1))))
    if draw(st.integers(0, 3)) == 0:
        source = source[:draw(st.integers(1, len(source)))]
    return source


def _parsed(parse, source):
    """The tree `parse` makes of `source`, or its error's message and position."""
    try:
        return parse(source)
    except MiniSyntaxError as exc:
        return str(exc), exc.line, exc.col


@example("y = ²; z = ٣;")
@example(NESTED["operator levels"](MAX_NESTING))
@example("x = " + "1 + " * 300 + "1;")
@settings(max_examples=600, deadline=None, derandomize=True)
@given(parser_inputs())
def test_parse_mini_matches_the_token_parser_oracle(source):
    got, want = _parsed(parse_mini, source), _parsed(oracles.token_parse_mini, source)
    if isinstance(want, tuple):
        assert got == want
        return
    assert preorder(got) == preorder(want) and tree_shape(got) == tree_shape(want)
    if tree_shape(got)[2][0] < 100:  # == recurses once per level
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    else:
        assert ([(n.label, len(n.children)) for n in iter_nodes(got)]
                == [(n.label, len(n.children)) for n in iter_nodes(want)])
