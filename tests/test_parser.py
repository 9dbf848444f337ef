"""Lexing/parsing, printing, and the round-trip property between them."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capslang.parser import ParseError, parse, parse_expr, pretty_print
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
)


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
