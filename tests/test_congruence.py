"""Value normalization, right-value/store well-formedness, and the canonical
form used for comparison modulo alpha-conversion and declaration reordering."""

from capslang.congruence import (
    _sort_run,
    alpha_equiv,
    canonical,
    connected_closure,
    normalize_value,
    wf_rightvalue,
    wf_store_decl,
)
from capslang.generator import GenConfig, gen_source
from capslang.parser import parse, parse_expr, pretty_print
from capslang.syntax import Block, Decl, Var, is_evaluated, map_children
from capslang.typecheck import TypeCheckError, typecheck_program

from conftest import CORPUS, load, reduce_source


def table(src="class D { int f; }\nclass C { mut D f1; mut D f2; }\nnew D(0)"):
    return parse(src).table


class TestWfRightValue:
    def test_objstate(self):
        assert wf_rightvalue(parse_expr("new C(x, y)"))

    def test_block_rv(self):
        assert wf_rightvalue(parse_expr("{mut D x = new D(0); new C(x, x)}"))

    def test_garbage_rejected(self):
        assert not wf_rightvalue(
            parse_expr("{mut D x = new D(0); mut D g = new D(1); new C(x, x)}")
        )

    def test_connected_locals_kept(self):
        assert wf_rightvalue(
            parse_expr("{mut D y = new D(0); mut C x = new C(y, y); x}")
        )

    def test_int_literal_members(self):
        assert wf_rightvalue(parse_expr("{int n = 3; mut D x = new D(n); x}"))

    def test_unevaluated_rejected(self):
        assert not wf_rightvalue(parse_expr("{mut D x = y.f; x}"))


class TestWfStoreDecl:
    def test_objstate_ok(self):
        (d,) = parse_expr("{mut D x = new D(0); x}").decls
        assert wf_store_decl(d)

    def test_int_transient(self):
        (d,) = parse_expr("{int n = 3; n}").decls
        assert not wf_store_decl(d)

    def test_capsule_transient(self):
        (d,) = parse_expr("{capsule D x = new D(0); x}").decls
        assert not wf_store_decl(d)

    def test_alias_transient(self):
        d_alias = parse_expr("{mut D y = new D(0); mut D x = y; x}").decls[1]
        assert not wf_store_decl(d_alias)

    def test_imm_block_rv_ok(self):
        (d,) = parse_expr(
            "{imm C z = {mut D x = new D(0); new C(x, x)}; z}"
        ).decls
        assert wf_store_decl(d)

    def test_mut_block_rv_rejected(self):
        (d,) = parse_expr(
            "{mut C z = {mut D x = new D(0); new C(x, x)}; z}"
        ).decls
        assert not wf_store_decl(d)


class TestNormalizeValue:
    def test_new_hoisting(self):
        v = normalize_value(parse_expr("new C(new D(0), new D(1))"), table())
        assert isinstance(v, Block)
        assert len(v.decls) == 2
        assert pretty_print(v.body).startswith("new C(")

    def test_garbage_collection(self):
        v = normalize_value(
            parse_expr("{mut D g = new D(1); mut D x = new D(0); x}"), table()
        )
        assert [d.name for d in v.decls] == ["x"]

    def test_block_elim(self):
        v = normalize_value(parse_expr("{mut D g = new D(1); y}"), table())
        assert v == Var("y")

    def test_body_splice(self):
        v = normalize_value(
            parse_expr(
                "{mut C z = {mut D x = new D(0); new C(x, x)}; z}"
            ),
            table(),
        )
        # the inner (non-imm) local store is pulled up into the outer block
        assert len(v.decls) == 2
        assert all(not isinstance(d.init, Block) for d in v.decls)

    def test_imm_keeps_local_store(self):
        v = normalize_value(
            parse_expr(
                "{imm C z = {mut D x = new D(0); new C(x, x)}; z}"
            ),
            table(),
        )
        (d,) = v.decls
        assert isinstance(d.init, Block)


class TestCanonical:
    def test_alpha(self):
        a = parse_expr("{mut D x = new D(0); x}")
        b = parse_expr("{mut D w = new D(0); w}")
        assert alpha_equiv(a, b)

    def test_reorder_evaluated(self):
        a = parse_expr("{mut D x = new D(0); mut D y = new D(1); new C(x, y)}")
        b = parse_expr("{mut D y = new D(1); mut D x = new D(0); new C(x, y)}")
        assert alpha_equiv(a, b)

    def test_no_reorder_across_unevaluated(self):
        a = parse_expr("{mut D x = new D(0); mut D y = w.f; mut D z = new D(0); z}")
        b = parse_expr("{mut D z = new D(0); mut D y = w.f; mut D x = new D(0); z}")
        # x and z sit in different runs separated by the unevaluated decl;
        # they cannot swap, but each program is still equal to itself
        assert alpha_equiv(a, a)
        assert canonical(a) != canonical(b) or alpha_equiv(a, b)

    def test_distinguish_values(self):
        a = parse_expr("{mut D x = new D(0); x}")
        b = parse_expr("{mut D x = new D(1); x}")
        assert not alpha_equiv(a, b)

    def test_cyclic_reorder(self):
        a = parse_expr("{mut C x = new C(y, y); mut C y = new C(x, x); x}")
        b = parse_expr("{mut C y = new C(x, x); mut C x = new C(y, y); x}")
        assert alpha_equiv(a, b)

    def test_free_vars_not_renamed(self):
        a = parse_expr("new C(u, v)")
        assert canonical(a) == parse_expr("new C(u, v)")


def oracle_canonical(e):
    """`canonical` as one walk that sorts each block's evaluated runs and
    numbers its binders in the same pass."""
    counter = [0]

    def walk(e, ren):
        if isinstance(e, Var):
            name = ren.get(e.name, e.name)
            return e if name == e.name else Var(name)
        if isinstance(e, Block):
            ordered, run = [], []
            for d in e.decls:
                if is_evaluated(d):
                    run.append(d)
                else:
                    ordered.extend(_sort_run(run, e))
                    run = []
                    ordered.append(d)
            ordered.extend(_sort_run(run, e))
            ren2 = dict(ren)
            for d in ordered:
                counter[0] += 1
                ren2[d.name] = f"v{counter[0]}"
            return Block(
                tuple(
                    Decl(d.dtype, ren2[d.name], walk(d.init, ren2)) for d in ordered
                ),
                walk(e.body, ren2),
            )
        return map_children(e, walk, ren)

    return walk(e, {})


def _trace_terms():
    """Every term of the traces of the accepted corpus and of the well-typed
    generated programs at seeds 0..99, sizes 8 and 16."""
    sources = [f.read_text() for f in sorted((CORPUS / "accept").glob("*.caps"))]
    for size in (8, 16):
        for seed in range(100):
            src = gen_source(GenConfig(seed=seed, size=size))
            try:
                typecheck_program(load(src))
            except TypeCheckError:
                continue
            sources.append(src)
    for src in sources:
        _, trace = reduce_source(src)
        yield trace.initial
        for _, term in trace.steps:
            yield term


def test_canonical_equals_the_one_pass_oracle():
    n = 0
    for term in _trace_terms():
        got, want = canonical(term), oracle_canonical(term)
        assert got == want
        assert pretty_print(got) == pretty_print(want)
        n += 1
    assert n > 1000


class TestConnectedClosure:
    def test_transitive(self):
        e = parse_expr(
            "{mut D a = new D(0); mut C b = new C(a, a); mut D g = new D(1); b}"
        )
        kept = connected_closure(e.decls, frozenset({"b"}))
        assert [d.name for d in kept] == ["a", "b"]
