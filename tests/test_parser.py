"""Lexing/parsing, printing, and the round-trip property between them."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capslang import cli
from capslang.generator import GenConfig, gen_source
from capslang.parser import (
    ParseError,
    _Parser,
    _resolve_static,
    parse,
    parse_expr,
    pretty_print,
    tokenize,
)
from capslang.syntax import (
    Block,
    Decl,
    FieldAssign,
    IntLit,
    MethodCall,
    New,
    Plus,
    Qualifier,
    RefType,
    StaticCall,
    Var,
    map_program,
)

from conftest import CORPUS


class TestBasics:
    def test_expr_kinds(self):
        assert parse_expr("x") == Var("x")
        assert parse_expr("42") == IntLit(42)
        assert parse_expr("x.f").fname == "f"
        assert parse_expr("x.f = y") == FieldAssign(Var("x"), "f", Var("y"))
        assert parse_expr("x.m(y, 1)") == MethodCall(
            Var("x"), "m", (Var("y"), IntLit(1))
        )
        assert parse_expr("new C(x)") == New("C", (Var("x"),))
        assert parse_expr("1 + 2") == Plus(IntLit(1), IntLit(2))

    def test_plus_left_assoc(self):
        assert parse_expr("1 + 2 + 3") == Plus(Plus(IntLit(1), IntLit(2)), IntLit(3))

    def test_block(self):
        e = parse_expr("{mut C x = new C(y); x}")
        assert isinstance(e, Block)
        (d,) = e.decls
        assert d == Decl(RefType(Qualifier.MUT, "C"), "x", New("C", (Var("y"),)))
        assert e.body == Var("x")

    def test_chained_access(self):
        e = parse_expr("x.f.g")
        assert e.fname == "g"
        assert e.recv.fname == "f"

    def test_assign_right_assoc(self):
        e = parse_expr("x.f = y.g = z")
        assert isinstance(e, FieldAssign)
        assert isinstance(e.value, FieldAssign)

    def test_main_without_braces(self):
        p = parse("class C { int f; }\nmut C x = new C(0);\nx")
        assert isinstance(p.main, Block)
        assert p.main.body == Var("x")

    @pytest.mark.parametrize(
        "body",
        ["int eof = 1;\neof\n", "mut D eof = new D(0);\neof.f = 2;\neof.f\n"],
    )
    def test_main_without_braces_may_name_eof(self, body, tmp_path):
        # a statement or final expression that starts with an identifier
        # named eof does not end the main: only the end of input does
        src = "class D { int f; }\n\n" + body
        assert shown(parse, src) == shown(parse, "class D { int f; }\n{\n" + body + "}\n")
        f = tmp_path / "eof.caps"
        f.write_text(src)
        assert cli.main(["run", "--verify-meta", str(f)]) == 0

    def test_statement_sugar(self):
        # a bare `e;` statement becomes a discard declaration
        p = parse("class C { int f; }\nmut C x = new C(0);\nx.f = 1;\nx")
        assert len(p.main.decls) == 2
        assert isinstance(p.main.decls[1].init, FieldAssign)

    def test_static_call_resolution(self):
        p = parse(
            """
            class A { int v; mut A mk(static) { return new A(0); } }
            mut A x = A.mk();
            x
            """
        )
        assert isinstance(p.main.decls[0].init, StaticCall)

    def test_method_on_var_not_static(self):
        p = parse(
            """
            class A { int v; mut A me(mut) { return this; } }
            mut A a = new A(0);
            mut A b = a.me();
            b
            """
        )
        assert isinstance(p.main.decls[1].init, MethodCall)

    def test_bound_class_name_not_static(self):
        # a local binder or a method parameter named like a class shadows
        # the class: `A.me()` stays a call on the variable
        p = parse(
            """
            class A { int v;
              mut A me(mut) { return this; }
              mut A via(mut, mut A A) { return A.me(); }
            }
            mut A A = new A(0);
            mut A b = { mut A c = A.me(); c };
            b
            """
        )
        assert isinstance(p.main.decls[1].init.decls[0].init, MethodCall)
        assert isinstance(p.table.method("A", "via").body, MethodCall)

    def test_class_with_methods(self):
        p = parse(
            """
            class A {
              int v;
              int get(read) { return this.v; }
              int set(mut, int w) { return this.v = w; }
              mut A mk(static) { return new A(0); }
            }
            new A(0)
            """
        )
        a = p.table.classes["A"]
        assert [f for _, f in a.fields] == ["v"]
        assert a.methods["get"].this_qual is Qualifier.READ
        assert a.methods["set"].params[0][1] == "w"
        assert a.methods["mk"].this_qual is None


class TestErrors:
    @pytest.mark.parametrize(
        "src",
        [
            "class C {",
            "mut C x = ;",
            "x.",
            "new C(x",
            "{mut C x = new C(y) x}",
            "class class { int f; }",
        ],
    )
    def test_parse_error(self, src):
        with pytest.raises(ParseError):
            parse(src)

    def test_error_has_position(self):
        with pytest.raises(ParseError) as ei:
            parse_expr("new C(x")
        assert "1:" in str(ei.value)

    @pytest.mark.parametrize("src, message", [
        ("class D { int f; }\nclass E { int g; }\nclass D { int h; }\nnew D(1)",
         "3:7: duplicate class D"),
        ("class D { int f; int m(read) { return 1; }\n  int m(read) { return 2; } }\n1",
         "2:7: duplicate method m in D"),
        ("class D { int class; }\n1", "1:15: expected identifier, found 'class'"),
        ("class D { mut D class; }\n1", "1:17: expected identifier, found 'class'"),
    ], ids=["duplicate-class", "duplicate-method", "int-field", "mut-field"])
    def test_message(self, src, message):
        # a duplicate is reported at its name; a reserved word after a
        # field's type where the name should be
        with pytest.raises(ParseError) as ei:
            parse(src)
        assert str(ei.value) == message


# ---------------------------------------------------------------------------
# Round-trip property: pretty_print . parse_expr == id (modulo parse)
# ---------------------------------------------------------------------------

_names = st.sampled_from(["x", "y", "z", "foo", "a1"])
_cnames = st.sampled_from(["C", "D", "K"])
_quals = st.sampled_from(list(Qualifier))


def _exprs(depth):
    base = st.one_of(
        _names.map(Var),
        st.integers(min_value=0, max_value=999).map(IntLit),
    )
    if depth == 0:
        return base
    sub = _exprs(depth - 1)
    # a block is a primary expression that ends the phrase: it can fill
    # argument/initializer/body slots but not receiver or operand positions
    nonblock = st.one_of(base, st.builds(New, _cnames, st.tuples(sub)))
    return st.one_of(
        base,
        st.builds(New, _cnames, st.tuples(sub)),
        st.builds(New, _cnames, st.tuples(sub, sub)),
        st.builds(lambda r, f: FieldAssign(r, f, Var("y")), nonblock, _names),
        st.builds(MethodCall, nonblock, _names, st.tuples(sub)),
        st.builds(Plus, nonblock, nonblock),
        st.builds(
            lambda q, c, n, i, b: Block(
                (Decl(RefType(q, c), n, i),), b
            ),
            _quals,
            _cnames,
            _names,
            sub,
            sub,
        ),
    )


@given(_exprs(3))
@settings(max_examples=300, deadline=None)
def test_roundtrip(e):
    assert parse_expr(pretty_print(e)) == e


# ---------------------------------------------------------------------------
# The tokenizer against the character loop it replaced
# ---------------------------------------------------------------------------


def loop_tokenize(text):
    """The character-by-character tokenizer the compiled pattern replaced,
    as (kind, text, line, col) tuples."""
    id_start = set(string.ascii_letters + "_")
    id_cont = id_start | set(string.digits)
    toks = []
    i, line, col = 0, 1, 1
    while i < len(text):
        c = text[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
        elif c in " \t\r":
            i, col = i + 1, col + 1
        elif text.startswith("//", i):
            while i < len(text) and text[i] != "\n":
                i += 1
        elif c in id_start or c.isdigit():
            kind, more = ("id", id_cont) if c in id_start else ("int", None)
            j = i
            while j < len(text) and (text[j] in more if more else text[j].isdigit()):
                j += 1
            toks.append((kind, text[i:j], line, col))
            col += j - i
            i = j
        elif c in "{}();,=+.":
            toks.append(("punct", c, line, col))
            i, col = i + 1, col + 1
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(("eof", "", line, col))
    return toks


TOKEN_EDGES = [
    "",
    "x // comment at the end",
    "x\t\ty\r\n// c\n  z",
    "a1_b 12 3x _9",
    "{x}//",
    "class C { int f; }\n\n\tnew C(007)",
]


CORPUS_SOURCES = [path.read_text() for path in sorted(CORPUS.glob("*/*.caps"))]


@pytest.fixture(scope="module")
def generated():
    """Generated sources: N = 16 well-typed, and N = 8 and N = 64 with 15%
    ill-typed, the sizes and rate of the benchmark's fuzz and run workloads."""
    return (
        [gen_source(GenConfig(seed=seed, size=16)) for seed in range(100)]
        + [gen_source(GenConfig(seed=seed, size=8, reject_rate=0.15)) for seed in range(100)]
        + [gen_source(GenConfig(seed=seed, size=64, reject_rate=0.15)) for seed in range(20)]
    )


def test_tokens_of_ascii_programs_are_unchanged(generated):
    for src in CORPUS_SOURCES + generated + TOKEN_EDGES:
        assert [tuple(t) for t in tokenize(src)] == loop_tokenize(src)


@pytest.mark.parametrize(
    "text",
    [
        "/",
        "x # y",
        "int x = 1;\n  @",
        "x y",
        "x\r\ny\r\n$",
        "x\r$",
        "\t\tx\t~",
        "x // @ is commented out\n  ?",
        "// a comment\r\n\t!",
        "a /b",
        "//\n/",
    ],
)
def test_unexpected_characters(text):
    with pytest.raises(ParseError) as old:
        loop_tokenize(text)
    with pytest.raises(ParseError) as new:
        tokenize(text)
    assert (str(new.value), new.value.line, new.value.col) == (
        str(old.value),
        old.value.line,
        old.value.col,
    )


@pytest.mark.parametrize("digit", ["²", "٣", "１"])
def test_non_ascii_digits_are_unexpected(digit):
    # str.isdigit holds for them, but they are no integer literal: `int`
    # fails on a superscript two and reads an Arabic-Indic three as 3
    for text in (f"int x = {digit};\nx", f"int x = 1{digit};\nx", f"x{digit}"):
        with pytest.raises(ParseError, match=f"unexpected character {digit!r}"):
            tokenize(text)

# ---------------------------------------------------------------------------
# parse skips the static-call pass only where it would rewrite nothing
# ---------------------------------------------------------------------------


def full_static_pass(src):
    """The raw parse with the static-call pass run on every body."""
    p = _Parser(tokenize(src)).parse_program()
    return map_program(
        p, lambda body, gamma: _resolve_static(body, p.table, frozenset(gamma))
    )


def shown(parse_fn, src):
    """The program parse_fn makes of src, spans included, or its error."""
    try:
        p = parse_fn(src)
    except ParseError as e:
        return ("ParseError", str(e), e.line, e.col, e.expected)
    # a ClassTable has no repr of its own
    return repr((p.table.classes, p.main))


# a parameter, an earlier local and a later local named like a class shadow
# it, in main, in a nested block and in a method body; `A.mk()` elsewhere
# stays a static call
SHADOWING = [
    """
    class A { int v;
      mut A me(mut) { return this; }
      mut A mk(static) { return new A(0); }
      mut A param(mut, mut A A) { return A.me(); }
      mut A earlier(mut) { return { mut A A = this; A.me() }; }
      mut A later(mut) { return { mut A b = A.me(); mut A A = this; b }; }
      mut A unbound(mut) { return { mut A b = A.mk(); b }; }
      int none(read) { return this.v; }
    }
    mut A A = new A(0);
    A.me()
    """,
    """
    class A { int v; mut A me(mut) { return this; } mut A mk(static) { return new A(0); } }
    mut A b = A.me();
    mut A A = new A(0);
    b
    """,
    """
    class A { int v; mut A me(mut) { return this; } mut A mk(static) { return new A(0); } }
    mut A b = { mut A A = new A(0); A.me() };
    mut A c = { mut A d = A.me(); mut A A = new A(1); d };
    mut A e = { mut A f = (A).mk(); f };
    A.mk()
    """,
    """
    class B { int v; mut B me(mut) { return this; } }
    mut B b = new B(0);
    b.me()
    """,
]


def test_parse_equals_the_full_static_call_pass(generated):
    for src in CORPUS_SOURCES + generated + SHADOWING:
        assert shown(parse, src) == shown(full_static_pass, src)
    # the shadowing cases hold calls of both kinds
    first = parse(SHADOWING[0])
    methods = first.table.classes["A"].methods
    assert isinstance(methods["param"].body, MethodCall)
    assert isinstance(methods["earlier"].body.body, MethodCall)
    assert isinstance(methods["later"].body.decls[0].init, MethodCall)
    assert isinstance(methods["unbound"].body.decls[0].init, StaticCall)
    assert isinstance(first.main.body, MethodCall)
    assert isinstance(parse(SHADOWING[1]).main.decls[0].init, MethodCall)
    third = parse(SHADOWING[2]).main
    assert isinstance(third.decls[0].init.body, MethodCall)
    assert isinstance(third.decls[1].init.decls[0].init, MethodCall)
    assert isinstance(third.decls[2].init.decls[0].init, StaticCall)
    assert isinstance(third.body, StaticCall)
