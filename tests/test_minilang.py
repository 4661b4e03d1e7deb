import pytest
from hypothesis import given, settings, strategies as st

from treedefect import AstTree, MiniSyntaxError, parse_mini
from treedefect.minilang import MAX_NESTING, tokenize


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


def test_comments_are_skipped():
    source = "// leading\nint x = 1; /* mid\ncomment */ x = 2; // trailing"
    tree = parse_mini(source)
    assert [s.label for s in tree.children] == ["VariableDeclaration", "AssignStmt"]


def test_string_literal_keeps_quotes_no_escapes():
    tree = parse_mini('msg = "a + b // ok";')
    assert tree.children[0].children[1] == leaf('"a + b // ok"')


def test_tokenize_positions():
    tokens = tokenize("int x;\n  x = 2;")
    assert (tokens[0].text, tokens[0].line, tokens[0].col) == ("int", 1, 1)
    assert (tokens[3].text, tokens[3].line, tokens[3].col) == ("x", 2, 3)


def test_two_char_operators_tokenize_whole():
    texts = [t.text for t in tokenize("a<=b>=c==d!=e&&f||g")]
    assert texts == ["a", "<=", "b", ">=", "c", "==", "d", "!=", "e", "&&", "f", "||", "g"]


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

