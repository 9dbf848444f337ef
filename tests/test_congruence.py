"""Value normalization, right-value/store well-formedness, and the canonical
form used for comparison modulo alpha-conversion and declaration reordering."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from capslang.anf import simplify_program
from capslang.congruence import (
    NameSupply,
    _sort_run,
    canonical,
    connected_closure,
    is_imm_decl,
    is_normal_value,
    normalize_value,
    wf_rightvalue,
    wf_store_decl,
)
from capslang.generator import GenConfig, gen_source
from capslang.parser import parse, parse_expr, pretty_print
from capslang.reducer import Reducer
from capslang.syntax import (
    INT,
    Block,
    ClassTable,
    Decl,
    IntLit,
    New,
    Qualifier,
    RefType,
    Var,
    free_vars,
    is_evaluated,
    is_value,
    map_children,
    rename,
)
from capslang.typecheck import TypeCheckError, typecheck_program

from conftest import CORPUS, load, reduce_source
from test_reducer import alpha_equiv
from test_syntax import LEAVES, NAMES, subterms


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


def reference_norm(v, table, supply):
    """Value normalization as it was before it shared nodes: every `New`,
    `Decl` and `Block` of the output is built afresh, and nothing is kept
    on the nodes."""
    if isinstance(v, (Var, IntLit)):
        return v
    if isinstance(v, New):
        args = tuple(reference_norm(a, table, supply) for a in v.args)
        hoisted = []
        refs = []
        fields = table.fields(v.cname) if v.cname in table else None
        for i, a in enumerate(args):
            if isinstance(a, (Var, IntLit)):
                refs.append(a)
            else:
                ftype = fields[i][0] if fields else None
                x = supply.fresh("a")
                hoisted.append(Decl(ftype, x, a))
                refs.append(Var(x))
        out = New(v.cname, tuple(refs), v.span)
        if hoisted:
            out = reference_norm(Block(tuple(hoisted), out), table, supply)
        return out
    if isinstance(v, Block):
        decls = []
        for d in v.decls:
            init = reference_norm(d.init, table, supply)
            if isinstance(init, Block) and not is_imm_decl(d):
                decls.extend(init.decls)
                init = init.body
            decls.append(Decl(d.dtype, d.name, init, d.span))
        body = reference_norm(v.body, table, supply)
        if isinstance(body, Block):
            decls.extend(body.decls)
            body = body.body
        kept = connected_closure(tuple(decls), free_vars(body))
        if not kept:
            return body
        return Block(kept, body, v.span)
    raise AssertionError(f"not a value: {v!r}")


def assert_normalizes_as_reference(v, table):
    """normalize_value(v) equals the reference's output, with the same
    names, and is v itself exactly when that output equals v, which is
    what the node fact `is_normal_value` says."""
    supply, reference_supply = NameSupply(), NameSupply()
    want = reference_norm(v, table, reference_supply)
    got = normalize_value(v, table, supply)
    assert got == want
    assert pretty_print(got) == pretty_print(want)
    assert supply.counter == reference_supply.counter
    assert (got is v) == (want == v)
    assert is_normal_value(v) == (want == v)


def normalization_corpus():
    """(class table, term) for the simplified main term and method bodies
    of every corpus program and of the programs of the acceptance sweep
    (default generator settings, seeds 0..499), and for every term of the
    traces of those that typecheck, reduced as the sweep reduces them."""
    sources = [f.read_text() for f in sorted(CORPUS.glob("*/*.caps"))]
    sources += [gen_source(GenConfig(seed=seed)) for seed in range(500)]
    for src in sources:
        try:
            p = load(src)
            sp = simplify_program(p)
        except TypeCheckError:
            continue  # a rejected program that names an unknown field
        yield sp.table, sp.main
        for c in sp.table.classes.values():
            for m in c.methods.values():
                yield sp.table, m.body
        try:
            typecheck_program(p)
        except TypeCheckError:
            continue
        trace = Reducer(sp.table, NameSupply(10_000)).run(sp.main, fuel=2000)
        for _, term in trace.steps:
            yield sp.table, term


# values of every shape normalization rewrites: constructor arguments that
# are not references, block initializers of mut and imm declarations,
# garbage, block bodies and empty blocks
REF_TYPES = st.sampled_from([RefType(q, "C") for q in (Qualifier.MUT, Qualifier.IMM)])
OBJSTATES = st.builds(New, st.just("C"), st.lists(LEAVES, max_size=2).map(tuple))


def _decls(inits):
    return st.lists(
        st.one_of(
            st.builds(Decl, REF_TYPES, NAMES, inits),
            st.builds(Decl, st.just(INT), NAMES, st.integers(0, 3).map(IntLit)),
        ),
        max_size=3,
    ).map(tuple)


RIGHTVALUES = st.recursive(
    OBJSTATES,
    lambda sub: st.builds(Block, _decls(sub), st.one_of(NAMES.map(Var), OBJSTATES)),
    max_leaves=6,
)
VALUES = st.recursive(
    st.one_of(LEAVES, RIGHTVALUES),
    lambda sub: st.one_of(
        st.builds(New, st.just("C"), st.lists(sub, max_size=2).map(tuple)),
        st.builds(Block, _decls(RIGHTVALUES), sub),
    ),
    max_leaves=8,
)


class TestNormalizationSharesNodes:
    def test_equals_the_rebuilding_reference(self):
        seen: dict = {}  # id -> node, so that no id is reused
        normal = rebuilt = 0
        for table, term in normalization_corpus():
            for sub in subterms(term):
                if id(sub) in seen or not is_value(sub):
                    continue
                seen[id(sub)] = sub
                assert_normalizes_as_reference(sub, table)
                if isinstance(sub, (New, Block)):
                    if is_normal_value(sub):
                        normal += 1
                    else:
                        rebuilt += 1
        # both kinds are exercised
        assert normal > 1000 and rebuilt > 100, (normal, rebuilt)

    # one value per rule that rewrites it, each with its other parts normal
    REWRITTEN = {
        "new": parse_expr("new C(new D(0), x)"),
        "new in a body": parse_expr("{mut D x = new D(0); new C(x, new D(1))}"),
        "body": parse_expr("{mut C z = {mut D x = new D(0); new C(x, x)}; z}"),
        "block body": parse_expr("{mut D x = new D(0); {mut C y = new C(x, x); y}}"),
        "garbage": parse_expr("{mut D g = new D(1); mut D x = new D(0); x}"),
        "block-elim": parse_expr("{mut D g = new D(1); y}"),
        "empty block": Block((), parse_expr("new D(0)")),
        "nested": parse_expr(
            "{imm C z = {mut D g = new D(1); mut D x = new D(0); new C(x, x)}; z}"
        ),
    }

    @pytest.mark.parametrize("rule", sorted(REWRITTEN))
    def test_each_rule_rebuilds(self, rule):
        v = self.REWRITTEN[rule]
        assert not is_normal_value(v)
        assert_normalizes_as_reference(v, table())

    def test_shares_the_normal_parts(self):
        v = parse_expr(
            "{mut D x = new D(0); imm C z = {mut D y = new D(1); new C(y, y)};"
            " mut C w = {mut D u = new D(2); new C(u, x)}; new C(z, w)}"
        )
        x, z, w = v.decls
        out = normalize_value(v, table())
        assert out is not v and out == reference_norm(v, table(), NameSupply())
        # only w, whose block initializer is flattened, and the block change
        assert out.decls[0] is x and out.decls[1] is z
        assert out.decls[2] is w.init.decls[0] and out.body is v.body
        assert normalize_value(out, table()) is out

    @settings(max_examples=300, deadline=None)
    @given(VALUES)
    def test_random_values(self, v):
        for sub in subterms(v):
            if is_value(sub):
                assert_normalizes_as_reference(sub, ClassTable({}))
        assert is_normal_value(normalize_value(v, ClassTable({})))


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


def reference_canonical(e):
    """`canonical` as two walks: every run of evaluated declarations sorted
    by `_sort_run` first (a block as it stands, before its children are),
    then every binder numbered v1, v2, ... in preorder (`syntax.rename`)."""
    counter = itertools.count(1)
    return rename(reordered(e), {}, lambda _: f"v{next(counter)}")


def reordered(e):
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
        e = Block(tuple(ordered), e.body, e.span)
    return map_children(e, reordered)


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


def test_canonical_equals_the_two_walk_definition():
    n = 0
    for term in _trace_terms():
        got, want = canonical(term), reference_canonical(term)
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
