"""Small-step reduction: decomposition, field projection, and golden traces
for the store-manipulation rules."""

import copy
import dataclasses
from collections import Counter

import pytest

from capslang import reducer, syntax
from capslang.anf import simplify_program
from capslang.congruence import (
    NameSupply,
    canonical,
    is_normal_term,
    is_stored,
    normalize_value,
)
from capslang.generator import GenConfig, gen_source
from capslang.parser import parse, parse_expr, pretty_print
from capslang.reducer import (
    NonWfDecl,
    OutOfFuel,
    Reducer,
    StuckTerm,
    decompose,
    field_of,
    plug,
)
from capslang.syntax import (
    Block,
    Decl,
    FieldAccess,
    FieldAssign,
    MethodCall,
    New,
    Plus,
    StaticCall,
    free_vars,
    is_value,
)
from capslang.typecheck import resolve_implicit_types

from conftest import CORPUS, load, load_file, reduce_source
from test_syntax import (
    decls_of,
    plant_fact,
    rebuild_substitute,
    subterms,
    walk_free_vars,
    walk_is_evaluated,
    walk_is_objstate,
    walk_is_stored,
    walk_is_value,
)


def alpha_equiv(e1, e2) -> bool:
    """e1 and e2 are equal up to alpha-conversion and the reordering of
    evaluated declarations: their `canonical` forms are equal."""
    return canonical(e1) == canonical(e2)


def is_simplified(e) -> bool:
    """Every compound subterm is a value, except declaration right-hand
    sides; block bodies are values."""
    if isinstance(e, Block):
        return is_value(e.body) and all(is_simplified(d.init) for d in e.decls)
    return all(is_value(c) and is_simplified(c) for c in syntax.children(e))


def rules(trace):
    return [r for r, _ in trace.steps]


class TestDecompose:
    def test_value_is_normal(self):
        assert decompose(parse_expr("{mut C x = new C(x); x}")) is None
        assert decompose(parse_expr("x")) is None

    def test_compound_is_redex(self):
        d = decompose(parse_expr("x.f"))
        assert d.frames == [] and pretty_print(d.redex) == "x.f"

    def test_hole_in_first_unevaluated(self):
        e = parse_expr("{mut C x = new C(x); mut C y = x.f; y}")
        d = decompose(e)
        assert len(d.frames) == 1
        assert d.frames[0].index == 1
        assert pretty_print(d.redex) == "x.f"

    def test_nested_frames(self):
        e = parse_expr("{mut C y = {mut C z = x.f; z}; y}")
        d = decompose(e)
        assert [fr.index for fr in d.frames] == [0, 0]

    def test_non_wf_decl(self):
        e = parse_expr("{mut C y = new C(y); mut C x = y; x}")
        d = decompose(e)
        assert isinstance(d.redex, NonWfDecl)
        assert d.redex.index == 1

    def test_plug_inverts(self):
        e = parse_expr("{mut C y = {mut C z = x.f; z}; y}")
        d = decompose(e)
        assert plug(d.frames, d.redex) == e


class TestSimplifiedForm:
    def test_predicate(self):
        assert is_simplified(parse_expr("{mut C x = y.f.g; x}")) is False
        assert is_simplified(parse_expr("{mut C x = y.f; x}"))
        assert is_simplified(parse_expr("x.f")) is True
        assert is_simplified(parse_expr("new C(x.f)")) is False

    def test_translation_produces_simplified(self):
        p = parse(
            """
            class D { int f; }
            class C { mut D f1; mut D f2; }
            mut C c = new C(new D(1 + 2), new D(0));
            int n = c.f1.f + c.f2.f;
            new D(n)
            """
        )
        p = resolve_implicit_types(p)
        sp = simplify_program(p)
        assert is_simplified(sp.main)


class TestFieldOf:
    def test_projections(self):
        v = parse_expr("{mut C x = new C(x, y, z); mut D y = new D(0); new C(x, y, z)}")
        p0 = field_of(v, 0)
        p1 = field_of(v, 1)
        p2 = field_of(v, 2)
        # each projection carries (a copy of) the local store it needs
        assert alpha_equiv(
            p0, parse_expr("{mut C x = new C(x, y, z); mut D y = new D(0); x}")
        )
        assert alpha_equiv(
            p1, parse_expr("{mut C x = new C(x, y, z); mut D y = new D(0); y}")
        )
        assert alpha_equiv(
            p2, parse_expr("{mut C x = new C(x, y, z); mut D y = new D(0); z}")
        )

    def test_objstate(self):
        assert field_of(parse_expr("new C(u, w)"), 1) == parse_expr("w")


class TestGoldenTraces:
    def test_cyclic_field_assign(self):
        _, tr = reduce_source(
            """
            class B { mut B f; }
            mut B x = new B(y);
            mut B y = new B(x);
            x.f = x
            """
        )
        assert rules(tr) == ["field-assign", "alias-elim"]
        golden = parse_expr("{mut B x = new B(x); mut B y = new B(x); x}")
        assert alpha_equiv(tr.final, golden)

    def test_capsule_consumption(self):
        _, tr = reduce_source(
            """
            class D { int f; }
            class C { mut D f1; mut D f2; }
            mut D y = new D(0);
            capsule C z = { mut D x = new D(y.f = y.f + 1); new C(x, x) };
            z
            """
        )
        assert rules(tr)[-1] == "capsule-elim"
        golden = parse_expr(
            "{mut D y = new D(1); {mut D x = new D(1); new C(x, x)}}"
        )
        assert alpha_equiv(tr.final, golden)

    def test_field_assign_move(self):
        _, tr = reduce_source(
            """
            class D { int f; }
            class C { mut D f; }
            mut C x = new C(new D(9));
            imm C z = { mut D y1 = new D(0); mut D y2 = (x.f = y1);
                        mut D y3 = new D(1); new C(y3) };
            x
            """
        )
        rs = rules(tr)
        assert "field-assign-move" in rs
        # the assigned local (and nothing else) is hoisted before the write
        assert rs.index("field-assign-move") < rs.index("field-assign")
        golden = parse_expr(
            "{mut D a = new D(9); mut D y1 = new D(0); mut C x = new C(y1);"
            " imm C z = {mut D y3 = new D(1); new C(y3)}; x}"
        )
        assert alpha_equiv(tr.final, golden)

    def test_int_arithmetic(self):
        _, tr = reduce_source(
            """
            class D { int f; }
            int a = 1 + 2;
            int b = a + a;
            new D(b)
            """
        )
        assert alpha_equiv(tr.final, parse_expr("new D(6)"))

    def test_method_call(self):
        _, tr = reduce_source(
            """
            class A { int v;
              int get(read) { return this.v; }
              int bump(mut) { return this.v = this.v + 1; }
            }
            mut A a = new A(5);
            int i = a.bump();
            int j = a.get();
            new A(i + j)
            """
        )
        # the top-level store is kept even when the result no longer needs it
        assert alpha_equiv(tr.final, parse_expr("{mut A a = new A(6); new A(12)}"))

    def test_static_call(self):
        _, tr = reduce_source(
            """
            class A { int v; mut A mk(static) { return new A(7); } }
            mut A a = A.mk();
            a
            """
        )
        assert alpha_equiv(tr.final, parse_expr("{mut A a = new A(7); a}"))

    def test_imm_store_encapsulation(self):
        _, tr = reduce_source(
            """
            class D { int f; }
            class C { mut D f1; mut D f2; }
            imm C z = new C(new D(0), new D(1));
            z
            """
        )
        # the imm object keeps its mutable sub-store in a block right-value
        (d,) = tr.final.decls
        assert str(d.dtype) == "imm C"
        assert pretty_print(d.init).startswith("{")

    def test_out_of_fuel(self):
        src = """
            class A { int v; mut A spin(mut) { return this.spin(); } }
            mut A a = new A(0);
            a.spin()
            """
        with pytest.raises(OutOfFuel):
            reduce_source(src, fuel=50)

    def test_fuel_is_a_step_count(self):
        # a program that takes s steps completes with fuel s and runs out
        # after s - 1 steps with fuel s - 1
        src = (CORPUS / "accept" / "methods.caps").read_text()
        s = len(reduce_source(src)[1].steps)
        _, tr = reduce_source(src, fuel=s)
        assert tr.done and len(tr.steps) == s
        assert len(tr.terms) == s + 1
        assert tr.terms[0] is tr.initial and tr.terms[-1] is tr.final
        with pytest.raises(OutOfFuel) as e:
            reduce_source(src, fuel=s - 1)
        assert len(e.value.trace.steps) == s - 1 and not e.value.trace.done


class TestFreshness:
    def test_repeated_calls_fresh_binders(self):
        _, tr = reduce_source(
            """
            class A { int v; mut A dup(static) { return new A(0); } }
            mut A a = A.dup();
            mut A b = A.dup();
            new A(a.v + b.v)
            """
        )
        names = [d.name for d in tr.final.decls]
        assert len(names) == len(set(names))


# ---------------------------------------------------------------------------
# Differential check: the incremental reducer against full re-normalization
# ---------------------------------------------------------------------------


class FullRenormReducer(Reducer):
    """The reference: re-normalizes the whole term after every step,
    re-checks every stored declaration from the root, and substitutes by a
    walk that rebuilds the whole scope, with no tables; storedness, free
    variables and the value predicates are decided by walks, not read from
    node facts."""

    def step(self, e):
        self._store = None  # decompose from the root, knowing nothing
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reducer, "is_stored", walk_is_stored)
            mp.setattr(reducer, "free_vars", walk_free_vars)
            mp.setattr(reducer, "is_value", walk_is_value)
            mp.setattr(reducer, "is_evaluated", walk_is_evaluated)
            mp.setattr(reducer, "is_objstate", walk_is_objstate)
            return super().step(e)

    def _subst_out(self, block, index, v):
        decls = block.decls[:index] + block.decls[index + 1 :]
        out = Block(decls, block.body, block.span) if decls else block.body
        return rebuild_substitute(out, v, block.decls[index].name)

    def normalize_term(self, e, top=True):
        if isinstance(e, Block) and (top or not walk_is_value(e)):
            decls = tuple(
                Decl(d.dtype, d.name, self.normalize_term(d.init, False), d.span)
                for d in e.decls
            )
            body = self.normalize_term(e.body, False)
            if not decls:
                return body
            return Block(decls, body, e.span)
        if walk_is_value(e):
            return normalize_value(e, self.table, self.supply)
        if isinstance(e, FieldAccess):
            return FieldAccess(self.normalize_term(e.recv, False), e.fname, e.span)
        if isinstance(e, FieldAssign):
            return FieldAssign(
                self.normalize_term(e.recv, False),
                e.fname,
                self.normalize_term(e.value, False),
                e.span,
            )
        if isinstance(e, MethodCall):
            return MethodCall(
                self.normalize_term(e.recv, False),
                e.mname,
                tuple(self.normalize_term(a, False) for a in e.args),
                e.span,
            )
        if isinstance(e, StaticCall):
            return StaticCall(
                e.cname,
                e.mname,
                tuple(self.normalize_term(a, False) for a in e.args),
                e.span,
            )
        if isinstance(e, New):
            return New(
                e.cname, tuple(self.normalize_term(a, False) for a in e.args), e.span
            )
        if isinstance(e, Plus):
            return Plus(
                self.normalize_term(e.left, False),
                self.normalize_term(e.right, False),
                e.span,
            )
        return e


def fresh_subterms(e, seen: set):
    """The subterms of e, in preorder, skipping every node in seen (by
    identity) with all it holds; each one yielded joins seen."""
    if id(e) not in seen:
        seen.add(id(e))
        yield e
        for c in syntax.children(e):
            yield from fresh_subterms(c, seen)


def test_is_normal_term_is_the_fixed_point_of_normalization():
    # the node fact against the reference's normalization below the store,
    # on every subterm of every trace term; the reference rebuilds every
    # node, so its output is compared by equality
    sources = [path.read_text() for path in sorted((CORPUS / "accept").glob("*.caps"))]
    sources += [
        gen_source(GenConfig(seed=seed, size=size, reject_rate=0))
        for size in (8, 16)
        for seed in range(100)
    ]
    outcomes = Counter()
    for src in sources:
        p, tr = reduce_source(src)
        ref = FullRenormReducer(p.table)
        seen: set = set()  # the trace keeps every term, so no id is reused
        for term in [tr.initial] + [t for _, t in tr.steps]:
            for sub in fresh_subterms(term, seen):
                fixed = ref.normalize_term(sub, False) == sub
                assert is_normal_term(sub) == fixed, pretty_print(sub)
                outcomes[fixed] += 1
    assert outcomes[True] > 0 and outcomes[False] > 0, outcomes
    # a block with no declarations, which neither the parser nor a step
    # builds, is replaced by its body
    ref = FullRenormReducer(syntax.ClassTable({}))
    empty = Block((), FieldAccess(syntax.Var("a"), "f"))
    for e in (empty, FieldAccess(empty, "g")):
        assert not is_normal_term(e) and ref.normalize_term(e, False) != e


class RefocusChecked(Reducer):
    """The production reducer, checking what it knows about the store
    before each step and each normalization of the store: the declarations
    before `first` are stored, every position outside `todo` holds a fixed
    point of normalization, and the decomposition equals the one from the
    root."""

    refocused = 0  # steps that skipped a known prefix of the store

    def check_store(self, e):
        if self._store is None or self._store[0] is not e:
            return 0
        _, first, todo = self._store
        assert all(walk_is_stored(d) for d in e.decls[:first])
        unsettled = [i for i, d in enumerate(e.decls) if not is_normal_term(d.init)]
        assert set(unsettled) <= set(todo)
        return first

    def step(self, e):
        first = self.check_store(e)
        RefocusChecked.refocused += first > 0
        assert decompose(e, first) == decompose(e)
        return super().step(e)

    def _normalize_store(self, e):
        self.check_store(e)
        return super()._normalize_store(e)


def assert_same_trace(p):
    """Equal `initial`, steps (rule and term, names included), fuel and
    completion, or the same reduction error; the production reducer checks
    what it knows about the store as it goes (`RefocusChecked`)."""
    sp = simplify_program(p)
    got, want = [], []
    for cls, out in ((RefocusChecked, got), (FullRenormReducer, want)):
        try:
            tr = cls(sp.table, NameSupply(100_000)).run(sp.main, fuel=2000)
            out.append((tr.initial, tr.steps, tr.done))
        except OutOfFuel as e:
            out.append(("out of fuel", e.trace.steps))
    assert got == want


PLANTED = """
class D { int f; }
mut D a = new D(1);
int n = a.f;
new D(n)
"""


def test_reference_reads_no_node_fact():
    # wrong storedness and free-variable facts planted on every node of a
    # term change the production reducer's step, not the reference's
    sp = simplify_program(load(PLANTED))
    tr = FullRenormReducer(sp.table, NameSupply(100_000)).run(sp.main)
    assert rules(tr) == ["field-access", "int-elim"]
    for term in [tr.initial] + [t for _, t in tr.steps]:
        wrong = copy.deepcopy(term)
        for sub in subterms(wrong):
            plant_fact(free_vars, sub, frozenset())
        for d in decls_of(wrong):
            plant_fact(is_stored, d, not walk_is_stored(d))
        want = FullRenormReducer(sp.table).step(term)
        assert FullRenormReducer(sp.table).step(wrong) == want
        with pytest.raises(StuckTerm):
            Reducer(sp.table).step(wrong)


def test_reference_reads_no_refocusing_state():
    # a store that claims every declaration is stored and normal changes the
    # production reducer's step, not the reference's
    sp = simplify_program(load(PLANTED))
    tr = FullRenormReducer(sp.table, NameSupply(100_000)).run(sp.main)
    for term in [tr.initial] + [t for _, t in tr.steps[:-1]]:
        ref, red = FullRenormReducer(sp.table), Reducer(sp.table)
        want = ref.step(term)
        assert want is not None
        ref._store = red._store = (term, len(term.decls), ())
        assert ref.step(term) == want
        assert red.step(term) is None


TWO_PASS = """
class C0 { int f; }
class C1 { mut C0 a; mut C0 b; }
mut C1 x = {mut C1 u = new C1(new C0(7), new C0(8)); u};
x
"""


# store declarations before the eliminated binder that mention it, and a
# result that normalization restructures
BEFORE_INT = "class C { int f; } mut C a = new C(n); int n = 3; a"
BEFORE_CAPSULE = """
class C { int f; }
class B { mut C c; }
mut B b = new B(z);
capsule C z = new C(1);
b
"""
RESULT_NOT_NORMAL = """
class D { int f; }
class C { mut D f; }
mut D a = new D(0);
new C(new D(1))
"""


class TestIncremental:
    @pytest.mark.parametrize(
        "path", sorted((CORPUS / "accept").glob("*.caps")), ids=lambda p: p.stem
    )
    def test_corpus(self, path):
        assert_same_trace(load_file(path))

    @pytest.mark.parametrize(
        "size, seeds", [(8, 200), (16, 50), (32, 20), (64, 10)]
    )
    def test_generated(self, size, seeds):
        RefocusChecked.refocused = 0
        for seed in range(seeds):
            assert_same_trace(
                load(gen_source(GenConfig(seed=seed, size=size, reject_rate=0)))
            )
        assert RefocusChecked.refocused > seeds

    @pytest.mark.parametrize(
        "src, first",
        [
            (BEFORE_INT, ["int-elim"]),
            (BEFORE_CAPSULE, ["capsule-elim"]),
            (RESULT_NOT_NORMAL, []),
        ],
        ids=["before-int", "before-capsule", "result"],
    )
    def test_hand_written(self, src, first):
        assert_same_trace(load(src))
        _, tr = reduce_source(src)
        assert rules(tr)[:1] == first

    def test_two_pass_block(self):
        # one pass hoists the constructor arguments and so makes the block a
        # value; only the next pass flattens it: the first output is not a
        # fixed point, and is_normal_term must not take it for one
        p = simplify_program(load(TWO_PASS))
        e = parse_expr("{mut C1 u = new C1(new C0(7), new C0(8)); u}")
        red, ref = Reducer(p.table), FullRenormReducer(p.table)
        once = red.normalize_term(e, False)
        twice = red.normalize_term(once, False)
        assert twice != once and not is_normal_term(once)
        ref_once = ref.normalize_term(e, False)
        assert (once, twice) == (ref_once, ref.normalize_term(ref_once, False))
        assert_same_trace(load(TWO_PASS))
        _, tr = reduce_source(TWO_PASS)
        assert rules(tr) == ["mut-move", "mut-move", "alias-elim"]

    def test_unchanged_parts_are_shared(self):
        _, tr = reduce_source(
            """
            class D { int f; }
            mut D a = new D(1);
            mut D b = new D(2);
            int n = a.f;
            new D(n)
            """
        )
        (_, first), (_, second) = tr.steps[:2]
        assert first.decls[:2] == tr.initial.decls[:2]
        assert all(x is y for x, y in zip(first.decls[:2], tr.initial.decls[:2]))
        assert all(x is y for x, y in zip(second.decls[:2], first.decls[:2]))


def calls_per_step(size):
    """Calls of `Reducer.normalize_term` plus calls of the substitution
    walk, per reduction step, over generator seeds 0..19 at this size."""
    calls = Counter()

    def counting(f):
        def wrapper(*args, **kwargs):
            calls[f] += 1
            return f(*args, **kwargs)

        return wrapper

    subst = counting(syntax.substitute)
    steps = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Reducer, "normalize_term", counting(Reducer.normalize_term))
        mp.setattr(syntax, "substitute", subst)
        mp.setattr(reducer, "substitute", subst)
        for seed in range(20):
            src = gen_source(GenConfig(seed=seed, size=size, reject_rate=0))
            steps += len(reduce_source(src)[1].steps)
    assert calls[syntax.substitute] > 0
    return sum(calls.values()) / steps


def test_step_cost_does_not_grow_with_the_store():
    # a step walks what it changes: substitution skips the subterms where
    # the binder is not free, and normalization skips known fixed points,
    # so the calls per step stay flat as the programs (and stores) grow
    assert calls_per_step(64) <= 1.5 * calls_per_step(8)


def probes_per_step(size):
    """Storedness probes of `decompose` plus the fixed-point facts the
    reducer asks for while normalizing, per reduction step, over generator
    seeds 0..19 at this size; a fact's own recursion into a new node is not
    counted."""
    probes = []

    def counting(fact):
        def probe(node):
            probes.append(node)
            return fact(node)

        return probe

    steps = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reducer, "is_stored", counting(is_stored))
        mp.setattr(reducer, "is_normal_term", counting(is_normal_term))
        for seed in range(20):
            src = gen_source(GenConfig(seed=seed, size=size, reject_rate=0))
            steps += len(reduce_source(src)[1].steps)
    return len(probes) / steps


def test_step_probes_do_not_grow_with_the_store():
    # decompose resumes where the step changed the store, and normalization
    # asks only about the positions the step wrote or left unsettled, so the
    # probes per step stay flat (scanning the store from declaration 0 made
    # 15.8 of them at size 8 and 81.3 at size 64)
    assert probes_per_step(64) <= 1.5 * probes_per_step(8)


def nodes(e):
    """Every expression and declaration node of e, in preorder."""
    yield e
    if isinstance(e, Block):
        for d in e.decls:
            yield d
            yield from nodes(d.init)
        yield from nodes(e.body)
    else:
        for c in syntax.children(e):
            yield from nodes(c)


def structure(e, memo: dict, intern: dict) -> int:
    """A number for e's value, spans aside: equal nodes get the same number
    (hash-consing, with memo keyed by node identity)."""
    k = memo.get(id(e))
    if k is None:
        parts = [type(e)]
        for f in dataclasses.fields(e):
            if f.name == "span":
                continue
            x = getattr(e, f.name)
            if isinstance(x, syntax._Node):
                x = structure(x, memo, intern)
            elif isinstance(x, tuple):
                x = tuple(
                    structure(y, memo, intern) if isinstance(y, syntax._Node) else y
                    for y in x
                )
            parts.append(x)
        k = memo[id(e)] = intern.setdefault(tuple(parts), len(intern))
    return k


def test_reducts_share_what_their_step_kept():
    # nodes of a reduct, leaves aside, that equal a node of the term before
    # it but are another object: every identity-keyed cache after the
    # reducer misses on them.  Over seeds 0..39 at size 16 (1,015 steps)
    # there were 1.08 per step when value normalization rebuilt every
    # constructor, declaration and block (628 `New` and 447 `Decl` nodes in
    # all), and 0.04 since it returns what is already normal
    rebuilt = steps = 0
    intern: dict = {}
    for seed in range(40):
        src = gen_source(GenConfig(seed=seed, size=16, reject_rate=0))
        _, trace = reduce_source(src)
        memo: dict = {}  # the trace keeps every term, so no id is reused
        last = trace.initial
        for _, term in trace.steps:
            had = {id(x): structure(x, memo, intern) for x in nodes(last)}
            values = set(had.values())
            for x in nodes(term):
                if isinstance(x, (syntax.Var, syntax.IntLit)) or id(x) in had:
                    continue
                rebuilt += structure(x, memo, intern) in values
            steps += 1
            last = term
    assert steps > 1000
    assert rebuilt <= 0.1 * steps, (rebuilt, steps)


def held_twice(term) -> list:
    """The names of the Decl objects term holds more than once, anywhere."""
    decls = decls_of(term)
    counts = Counter(map(id, decls))
    return sorted({d.name for d in decls if counts[id(d)] > 1})


@pytest.mark.parametrize(
    "size, seeds",
    [(8, range(300)), (16, range(300)), (32, range(60)), (64, range(60)),
     (128, (0, 6, 9))],
    ids=["8", "16", "32", "64", "128"],
)
def test_each_decl_object_once(size, seeds):
    # a field assignment copies its value into the hole; the copy gets
    # Decl objects of its own, so no term holds one twice (when the copy
    # shared its nodes, some term did at seed 98 of size 8, 9 of size 16
    # and 0 of sizes 32, 64 and 128)
    for seed in seeds:
        _, trace = reduce_source(
            gen_source(GenConfig(seed=seed, size=size, reject_rate=0))
        )
        for step, term in enumerate([trace.initial] + [t for _, t in trace.steps]):
            assert held_twice(term) == [], (seed, step)


def test_each_decl_object_once_in_the_corpus(corpus_accept):
    # a field access copies its value into the hole too, and an assignment
    # writes each declaration of a name declared twice: without a copy of
    # their own, imm_field_read_twice and assign_through_copy hold one
    # Decl object twice
    for path in corpus_accept:
        _, trace = reduce_source(path.read_text())
        for step, term in enumerate([trace.initial] + [t for _, t in trace.steps]):
            assert held_twice(term) == [], (path.name, step)
