"""Qualifier lattice, subtyping, free variables, substitution, and the
static well-formedness checks on programs and class tables."""

import copy
import dataclasses
import itertools
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from capslang import syntax
from capslang.anf import simplify_program
from capslang.congruence import NameSupply, canonical, is_stored, wf_store_decl
from capslang.generator import GenConfig, gen_source
from capslang.metatheory import verify_trace
from capslang.parser import ParseError, parse, parse_expr, pretty_print
from capslang.reducer import Reducer
from capslang.syntax import (
    INT,
    Block,
    Decl,
    FieldAccess,
    FieldAssign,
    IntLit,
    IntType,
    MethodCall,
    New,
    Plus,
    Program,
    Qualifier,
    RefType,
    StaticCall,
    Var,
    Violation,
    children,
    free_vars,
    is_evaluated,
    is_objstate,
    is_rightvalue,
    is_value,
    map_children,
    map_program,
    mentions,
    method_gamma,
    qual_leq,
    subtype,
    substitute,
    validate_classtable,
    validate_wellformedness,
)
from capslang.typecheck import typecheck_program

from conftest import CORPUS, load

Q = Qualifier


class TestQualifierLattice:
    def test_reflexive(self):
        for q in Q:
            assert qual_leq(q, q)

    def test_antisymmetric(self):
        for a, b in itertools.product(Q, repeat=2):
            if qual_leq(a, b) and qual_leq(b, a):
                assert a is b

    def test_transitive(self):
        for a, b, c in itertools.product(Q, repeat=3):
            if qual_leq(a, b) and qual_leq(b, c):
                assert qual_leq(a, c)

    def test_order(self):
        assert qual_leq(Q.CAPSULE, Q.MUT)
        assert qual_leq(Q.CAPSULE, Q.IMM)
        assert qual_leq(Q.MUT, Q.LENT)
        assert qual_leq(Q.LENT, Q.READ)
        assert qual_leq(Q.IMM, Q.READ)
        # mut and imm are incomparable
        assert not qual_leq(Q.MUT, Q.IMM)
        assert not qual_leq(Q.IMM, Q.MUT)
        assert not qual_leq(Q.IMM, Q.LENT)
        assert not qual_leq(Q.READ, Q.MUT)

    def test_capsule_bottom_read_top(self):
        for q in Q:
            assert qual_leq(Q.CAPSULE, q)
            assert qual_leq(q, Q.READ)


class TestSubtype:
    def test_int(self):
        assert subtype(INT, INT)
        assert not subtype(INT, RefType(Q.MUT, "C"))
        assert not subtype(RefType(Q.MUT, "C"), INT)

    def test_ref(self):
        assert subtype(RefType(Q.CAPSULE, "C"), RefType(Q.IMM, "C"))
        assert subtype(RefType(Q.MUT, "C"), RefType(Q.READ, "C"))
        assert not subtype(RefType(Q.MUT, "C"), RefType(Q.MUT, "D"))
        assert not subtype(RefType(Q.READ, "C"), RefType(Q.MUT, "C"))


def corpus_types():
    """Every type written in the corpus programs that parse: field types,
    method signatures and declared types."""
    out = []
    for path in sorted(CORPUS.glob("*/*.caps")):
        try:
            p = parse(path.read_text())
        except ParseError:
            continue
        terms = [p.main]
        for cd in p.table.classes.values():
            out.extend(t for t, _ in cd.fields)
            for m in cd.methods.values():
                out.append(m.ret)
                out.extend(t for t, _ in m.params)
                terms.append(m.body)
        while terms:
            e = terms.pop()
            if isinstance(e, Block):
                out.extend(d.dtype for d in e.decls if d.dtype is not None)
            terms.extend(children(e))
    return out


# the types as they were before interning, for their str and repr
RecordRefType = dataclasses.make_dataclass(
    "RefType", [("qualifier", Qualifier), ("cname", str)], frozen=True,
    namespace={"__str__": lambda t: f"{t.qualifier} {t.cname}"},
)
RecordIntType = dataclasses.make_dataclass(
    "IntType", [], frozen=True, namespace={"__str__": lambda t: "int"}
)


def record(t):
    if t is INT:
        return RecordIntType()
    return RecordRefType(t.qualifier, t.cname)


class TestInternedTypes:
    """A type is one object per value: equality and hashing are identity."""

    def test_one_object_per_value(self):
        for q, c in itertools.product(Q, ("C", "D")):
            t = RefType(q, c)
            assert RefType(q, c) is t
            assert RefType(qualifier=q, cname=c) is t
            assert (t.qualifier, t.cname) == (q, c)
        assert IntType() is INT
        assert len({RefType(q, c) for q in Q for c in ("C", "D")}) == 10

    def test_copies_and_pickles_are_the_object(self):
        for t in (INT, RefType(Q.MUT, "C"), RefType(Q.LENT, "D")):
            assert copy.copy(t) is t
            assert copy.deepcopy(t) is t
            assert copy.deepcopy([t, (t,)])[1][0] is t
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(t, protocol)) is t
        d = Decl(RefType(Q.CAPSULE, "C"), "x", Var("y"))
        assert pickle.loads(pickle.dumps(d)).dtype is d.dtype

    def test_fields_cannot_be_set(self):
        t = RefType(Q.MUT, "C")
        with pytest.raises(AttributeError):
            t.cname = "D"
        with pytest.raises(AttributeError):
            t.qualifier = Q.IMM
        with pytest.raises(AttributeError):
            del t.cname
        with pytest.raises(AttributeError):
            INT.cname = "C"
        assert t is RefType(Q.MUT, "C") and str(t) == "mut C"

    def test_hashing_calls_no_python_code(self):
        t = RefType(Q.MUT, "C")
        assert type(t).__hash__ is object.__hash__
        assert type(t).__eq__ is object.__eq__
        assert Qualifier.__hash__ is object.__hash__

    def test_str_and_repr_unchanged_on_corpus_types(self):
        types = corpus_types()
        assert {type(t) for t in types} == {IntType, RefType}
        for t in types:
            assert str(t) == str(record(t))
            assert repr(t) == repr(record(t))


class TestFreeVarsSubstitute:
    def test_block_binds(self):
        e = parse_expr("{mut C x = new C(y); x}")
        assert free_vars(e) == {"y"}

    def test_forward_scope(self):
        # declarations are mutually recursive inside a block
        e = parse_expr("{mut C x = new C(y); mut C y = new C(x); x}")
        assert free_vars(e) == frozenset()

    def test_substitute_free(self):
        e = parse_expr("new C(x, y)")
        assert substitute(e, Var("z"), "x") == parse_expr("new C(z, y)")

    def test_substitute_stops_at_binder(self):
        e = parse_expr("{mut C x = new C(x); x}")
        assert substitute(e, Var("z"), "x") == e


def rebuild_substitute(e, v, x):
    """Substitution that rebuilds every node, sharing nothing."""
    if isinstance(e, Var):
        return v if e.name == x else Var(e.name, e.span)
    if isinstance(e, IntLit):
        return IntLit(e.value, e.span)
    if isinstance(e, FieldAccess):
        return FieldAccess(rebuild_substitute(e.recv, v, x), e.fname, e.span)
    if isinstance(e, MethodCall):
        args = tuple(rebuild_substitute(a, v, x) for a in e.args)
        return MethodCall(rebuild_substitute(e.recv, v, x), e.mname, args, e.span)
    if isinstance(e, StaticCall):
        args = tuple(rebuild_substitute(a, v, x) for a in e.args)
        return StaticCall(e.cname, e.mname, args, e.span)
    if isinstance(e, FieldAssign):
        recv = rebuild_substitute(e.recv, v, x)
        return FieldAssign(recv, e.fname, rebuild_substitute(e.value, v, x), e.span)
    if isinstance(e, New):
        return New(e.cname, tuple(rebuild_substitute(a, v, x) for a in e.args), e.span)
    if isinstance(e, Plus):
        left = rebuild_substitute(e.left, v, x)
        return Plus(left, rebuild_substitute(e.right, v, x), e.span)
    if isinstance(e, Block):
        if x in (d.name for d in e.decls):
            return Block(e.decls, e.body, e.span)
        decls = tuple(
            Decl(d.dtype, d.name, rebuild_substitute(d.init, v, x), d.span)
            for d in e.decls
        )
        return Block(decls, rebuild_substitute(e.body, v, x), e.span)
    raise TypeError(e)


NAMES = st.sampled_from(["x", "y", "z"])
LEAVES = st.one_of(NAMES.map(Var), st.integers(0, 9).map(IntLit))


def _extend(sub):
    args = st.lists(sub, max_size=2).map(tuple)
    decl = st.builds(Decl, st.just(RefType(Q.MUT, "C")), NAMES, sub)
    return st.one_of(
        st.builds(FieldAccess, sub, st.just("f")),
        st.builds(MethodCall, sub, st.just("m"), args),
        st.builds(StaticCall, st.just("C"), st.just("s"), args),
        st.builds(FieldAssign, sub, st.just("f"), sub),
        st.builds(New, st.just("C"), args),
        st.builds(Plus, sub, sub),
        st.builds(Block, st.lists(decl, max_size=2).map(tuple), sub),
    )


EXPRS = st.recursive(LEAVES, _extend, max_leaves=12)


@given(EXPRS, EXPRS, NAMES)
@settings(max_examples=300, deadline=None)
def test_substitute_shares_what_it_does_not_change(e, v, x):
    out = substitute(e, v, x)
    if x not in free_vars(e):
        assert out is e
    else:
        assert out == rebuild_substitute(e, v, x)


# ---------------------------------------------------------------------------
# Node facts: the cached walks against uncached references
# ---------------------------------------------------------------------------


def walk_free_vars(e):
    """`free_vars` by a walk that keeps nothing."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    fv = frozenset()
    for c in children(e):
        fv |= walk_free_vars(c)
    if isinstance(e, Block):
        fv -= {d.name for d in e.decls}
    return fv


def walk_mentions(e):
    """`mentions` by a walk that keeps nothing: the checker's walk before
    node facts, without its table."""
    names = set()
    stack = [e]
    while stack:
        x = stack.pop()
        if isinstance(x, Var):
            names.add(x.name)
        else:
            if isinstance(x, Block):
                names.update(d.name for d in x.decls)
            stack.extend(children(x))
    return frozenset(names)


def walk_is_value(e):
    """`is_value` by a walk that keeps nothing, as are the three below."""
    if isinstance(e, (Var, IntLit)):
        return True
    if isinstance(e, New):
        return all(walk_is_value(a) for a in e.args)
    if isinstance(e, Block):
        return all(map(walk_is_evaluated, e.decls)) and walk_is_value(e.body)
    return False


def walk_is_objstate(e):
    return isinstance(e, New) and all(isinstance(a, (Var, IntLit)) for a in e.args)


def walk_is_rightvalue(e):
    if isinstance(e, Block):
        return all(map(walk_is_evaluated, e.decls)) and (
            isinstance(e.body, Var) or walk_is_objstate(e.body)
        )
    return walk_is_objstate(e)


def walk_is_evaluated(d):
    if isinstance(d.dtype, IntType):
        return isinstance(d.init, IntLit)
    return walk_is_rightvalue(d.init)


def walk_is_stored(d):
    """`is_stored` without the fact."""
    return walk_is_evaluated(d) and wf_store_decl(d)


def subterms(e):
    yield e
    for c in children(e):
        yield from subterms(c)


def decls_of(e):
    return [d for sub in subterms(e) if isinstance(sub, Block) for d in sub.decls]


def plant_fact(fn, node, value):
    """Make `value` the fact `fn` has kept on `node`, right or wrong."""
    attr = f"_{fn.__name__}_fact"
    assert hasattr(type(node), attr), f"{fn.__name__} is not a node fact"
    object.__setattr__(node, attr, value)


def assert_facts_equal_walks(e):
    for sub in subterms(e):
        assert free_vars(sub) == walk_free_vars(sub)
        assert mentions(sub) == walk_mentions(sub)
        assert is_value(sub) == walk_is_value(sub)
        assert is_objstate(sub) == walk_is_objstate(sub)
        assert is_rightvalue(sub) == walk_is_rightvalue(sub)
    for d in decls_of(e):
        assert is_stored(d) == walk_is_stored(d)
        assert is_evaluated(d) == walk_is_evaluated(d)


@given(EXPRS)
@settings(max_examples=200, deadline=None)
def test_node_facts_equal_uncached_walks(e):
    assert_facts_equal_walks(e)
    kept = [(sub, free_vars(sub), mentions(sub)) for sub in subterms(e)]
    assert_facts_equal_walks(e)  # now kept on the nodes
    for sub, fv, names in kept:
        assert free_vars(sub) is fv and mentions(sub) is names
    # shared into a new parent, e keeps its facts and the parent has its own
    parent = Block(
        (Decl(RefType(Q.MUT, "C"), "x", e), Decl(INT, "w", Plus(e, Var("w")))),
        Var("y"),
    )
    assert_facts_equal_walks(parent)
    assert free_vars(e) is kept[0][1]


def test_value_predicates_are_node_facts():
    # each predicate returns what is kept on the node, right or wrong, and a
    # new parent reads its children's facts
    e = parse_expr("{mut C x = new C(x); x}")
    d = e.decls[0]
    for fn, node in [
        (is_value, e), (is_objstate, d.init), (is_rightvalue, e), (is_evaluated, d)
    ]:
        right = fn(node)
        plant_fact(fn, node, not right)
        assert fn(node) is (not right)
    assert not is_value(Block(e.decls, e.body))


@given(EXPRS)
@settings(max_examples=100, deadline=None)
def test_node_facts_are_invisible(e):
    twin = copy.deepcopy(e)  # taken before any fact is computed
    seen = (repr(e), hash(e), pretty_print(e))
    assert_facts_equal_walks(e)
    assert e == twin and twin == e
    assert (repr(e), hash(e), pretty_print(e)) == seen
    assert canonical(e) == canonical(twin)


def test_no_pass_mutates_a_node():
    # nodes are plain dataclasses: this holds the contract a frozen one would
    # enforce, that no pass assigns a node's field, only `node_cached` facts
    sources = [path.read_text() for path in sorted((CORPUS / "accept").glob("*.caps"))]
    sources += [
        gen_source(GenConfig(seed=seed, size=16, reject_rate=0)) for seed in range(20)
    ]
    for src in sources:
        p = load(src)
        sp = simplify_program(p)
        kept = [
            (parts, repr(parts), copy.deepcopy(parts))
            for parts in ((q.main, q.table.classes) for q in (p, sp))
        ]
        typecheck_program(p)
        trace = Reducer(sp.table, NameSupply(100_000)).run(sp.main)
        verify_trace(sp.table, trace)
        pretty_print(canonical(trace.final))
        for parts, text, twin in kept:
            assert parts == twin and repr(parts) == text
        for term in trace.terms:
            assert_facts_equal_walks(term)


class TestMapProgram:
    SRC = (
        "class D { int f; "
        "int get(lent, lent D d) { return d.f; } "
        "int make(static, read D d) { return 0; } }\n"
        "new D(0)"
    )

    def test_method_gamma(self):
        p = parse(self.SRC)
        d = p.table.classes["D"]
        # a lent receiver and a lent parameter are stored mut
        assert method_gamma("D", d.methods["get"]) == {
            "this": RefType(Q.MUT, "D"),
            "d": RefType(Q.MUT, "D"),
        }
        # a static method has no receiver
        assert method_gamma("D", d.methods["make"]) == {"d": RefType(Q.READ, "D")}

    def test_map_program_passes_each_body_its_gamma(self):
        p = parse(self.SRC)
        seen = []

        def f(body, gamma):
            seen.append((body, gamma))
            return IntLit(len(seen))

        q = map_program(p, f)
        methods = p.table.classes["D"].methods
        assert seen == [
            (methods["get"].body, method_gamma("D", methods["get"])),
            (methods["make"].body, method_gamma("D", methods["make"])),
            (p.main, {}),
        ]
        assert q.main == IntLit(3)
        assert q.table.method("D", "make").body == IntLit(2)
        assert q.table.method("D", "get").params == methods["get"].params


class TestValuePredicates:
    def test_values(self):
        assert is_value(parse_expr("x"))
        assert is_value(parse_expr("7"))
        assert is_value(parse_expr("new C(x, 1)"))
        assert is_value(parse_expr("{mut C x = new C(x); x}"))
        assert not is_value(parse_expr("x.f"))
        assert not is_value(parse_expr("{mut C x = new C(x); x.f}"))
        assert not is_value(parse_expr("new C(x.f)"))

    def test_objstate(self):
        assert is_objstate(parse_expr("new C(x, 1)"))
        assert not is_objstate(parse_expr("new C(new D(0))"))
        assert not is_objstate(parse_expr("x"))

    def test_rightvalue(self):
        assert is_rightvalue(parse_expr("new C(x)"))
        assert is_rightvalue(parse_expr("{mut C x = new C(x); x}"))
        assert not is_rightvalue(parse_expr("{mut C x = new C(x); x.f}"))

    def test_evaluated_int_decl(self):
        d_lit = Decl(INT, "n", IntLit(3))
        d_var = Decl(INT, "n", Var("m"))
        assert is_evaluated(d_lit)
        assert not is_evaluated(d_var)

    def test_evaluated_ref_decl(self):
        t = RefType(Q.MUT, "C")
        assert is_evaluated(Decl(t, "x", New("C", (Var("x"),))))
        # a bare alias is not evaluated: it is eliminated by reduction
        assert not is_evaluated(Decl(t, "x", Var("y")))
        assert is_evaluated(
            Decl(t, "x", Block((Decl(t, "y", New("C", (Var("y"),))),), Var("y")))
        )


class TestProgramValidation:
    def test_capsule_linear(self):
        p = parse(
            """
            class C { int f; }
            capsule C z = new C(0);
            mut C a = z;
            mut C b = z;
            a
            """
        )
        issues = validate_wellformedness(p)
        assert any(v.kind == "capsule-reuse" for v in issues)

    def test_capsule_single_use_ok(self):
        p = parse(
            """
            class C { int f; }
            capsule C z = new C(0);
            mut C a = z;
            a
            """
        )
        assert validate_wellformedness(p) == []

    def test_forward_ref_needs_evaluated(self):
        p = parse(
            """
            class K { int n; }
            int i = b.n;
            mut K b = new K(1);
            i
            """
        )
        issues = validate_wellformedness(p)
        assert any(v.kind == "forward-ref" for v in issues)

    def test_forward_ref_between_evaluated_ok(self):
        p = parse(
            """
            class K { mut K f; }
            mut K a = new K(b);
            mut K b = new K(a);
            a
            """
        )
        assert validate_wellformedness(p) == []

    def test_classtable_field_types(self):
        # fields may only be imm C, mut C, or int; a field of any type
        # parses, and validation alone refuses the others
        for q in ("capsule", "lent", "read"):
            p = parse(f"class D {{ int n; }}\nclass C {{ {q} D f; }}\nnew D(0)")
            assert p.table.fields("C") == ((RefType(Q(q), "D"), "f"),)
            (v,) = validate_classtable(p.table)
            assert (v.kind, v.var) == ("bad-field-qualifier", "f")

    def test_classtable_unknown_class(self):
        p = parse(
            """
            class C { mut E f; }
            new C(x)
            """
        )
        assert validate_classtable(p.table)

    def test_classtable_ok(self):
        p = parse(
            """
            class D { int n; }
            class C { mut D a; imm D b; int n; }
            new D(0)
            """
        )
        assert validate_classtable(p.table) == []


# ---------------------------------------------------------------------------
# Capsule linearity: the one-pass count against a count per binder
# ---------------------------------------------------------------------------


def count_occurrences(e, x):
    """The free occurrences of x in e, by a walk of the whole term."""
    if isinstance(e, Var):
        return 1 if e.name == x else 0
    if isinstance(e, Block) and x in (d.name for d in e.decls):
        return 0
    return sum(count_occurrences(c, x) for c in children(e))


def is_capsule(t):
    return isinstance(t, RefType) and t.qualifier is Q.CAPSULE


def per_binder_wellformedness(p):
    """`validate_wellformedness` as it was before the one-pass count: one
    walk of the scope for each capsule binder."""
    out = []

    def check(e):
        if isinstance(e, Block):
            names = [d.name for d in e.decls]
            for d in e.decls:
                if is_capsule(d.dtype):
                    n = sum(count_occurrences(d2.init, d.name) for d2 in e.decls)
                    n += count_occurrences(e.body, d.name)
                    if n > 1:
                        msg = f"capsule variable {d.name} occurs {n} times in its scope"
                        out.append(Violation("capsule-reuse", d.name, d.span, msg))
            index = {n: i for i, n in enumerate(names)}
            for i, d in enumerate(e.decls):
                for y in free_vars(d.init):
                    j = index.get(y)
                    if j is None or j < i:
                        continue
                    if not (is_evaluated(d) and is_evaluated(e.decls[j])):
                        msg = (
                            f"declaration of {d.name} refers forward to {y} "
                            "but both are not evaluated"
                        )
                        out.append(Violation("forward-ref", y, d.span, msg))
        for c in children(e):
            check(c)

    for cd in p.table.classes.values():
        for m in cd.methods.values():
            for pt, pn in m.params:
                if is_capsule(pt) and count_occurrences(m.body, pn) > 1:
                    msg = (
                        f"capsule parameter {pn} of {cd.name}.{m.name} "
                        "occurs more than once"
                    )
                    out.append(Violation("capsule-reuse", pn, None, msg))
            check(m.body)
    check(p.main)
    return out


def violations(issues):
    """Violations with every field, span and message included."""
    return [(v.kind, v.var, v.span, v.message) for v in issues]


def duplications(e):
    """Each term made from e by duplicating one occurrence of one capsule
    local: the first declaration of its scope (or the body) where it occurs
    is declared once more, right after itself, under a new name."""
    if isinstance(e, Block):
        scope = [d.init for d in e.decls] + [e.body]
        for d in e.decls:
            if not is_capsule(d.dtype):
                continue
            uses = [k for k, s in enumerate(scope) if count_occurrences(s, d.name)]
            if uses:
                k = uses[0]
                copy_ = Decl(RefType(Q.MUT, d.dtype.cname), d.name + "_dup", scope[k])
                decls = e.decls[: k + 1] + (copy_,) + e.decls[k + 1 :]
                yield Block(decls, e.body, e.span)
    kids = list(children(e))
    for i, c in enumerate(kids):
        for m in duplications(c):
            at = iter(range(len(kids)))
            yield map_children(e, lambda x: m if next(at) == i else x)


def validation_programs():
    """The programs the differential check runs on: the corpus, the
    acceptance sweep's programs, larger generated ones, and the mutants of
    each that duplicate one occurrence of a capsule local."""
    srcs = [path.read_text() for path in sorted(CORPUS.glob("*/*.caps"))]
    srcs += [gen_source(GenConfig(seed=seed)) for seed in range(500)]
    srcs += [gen_source(GenConfig(seed=seed, size=64)) for seed in range(10)]
    for src in srcs:
        try:
            p = parse(src)
        except ParseError:
            continue
        yield p, False
        for main in duplications(p.main):
            yield Program(p.table, main), True


def test_one_pass_capsule_count_equals_count_per_binder():
    mutants = 0
    for p, mutant in validation_programs():
        want = violations(per_binder_wellformedness(p))
        assert violations(validate_wellformedness(p)) == want
        if mutant:
            # the generator writes no capsule reuse: the mutants supply it
            assert "capsule-reuse" in [kind for kind, *_ in want]
            mutants += 1
    assert mutants >= 200


CAPSULE_CASES = {
    # the inner z is another variable: the outer one occurs once
    "shadowing": (
        """
        class C { int f; }
        capsule C z = new C(0);
        mut C a = { mut C z = new C(1); mut C b = z; mut C c = z; b };
        mut C d = z;
        d
        """,
        [],
    ),
    "shadowing capsule": (
        """
        class C { int f; }
        capsule C z = new C(0);
        mut C a = { capsule C z = new C(1); mut C b = z; mut C c = z; b };
        mut C d = z;
        d
        """,
        [("capsule-reuse", "z", "capsule variable z occurs 2 times in its scope")],
    ),
    "later nested block": (
        """
        class C { int f; }
        capsule C z = new C(0);
        mut C a = z;
        mut C b = { mut C y = { mut C w = z; w }; y };
        b
        """,
        [("capsule-reuse", "z", "capsule variable z occurs 2 times in its scope")],
    ),
    "method parameter": (
        """
        class C { int f;
          mut C once(read, capsule C p) { return { mut C a = p; a }; }
          mut C twice(read, capsule C p, capsule C q) {
            return { mut C a = p; mut C b = { mut C c = p; c }; q };
          }
        }
        new C(0)
        """,
        [
            (
                "capsule-reuse",
                "p",
                "capsule parameter p of C.twice occurs more than once",
            )
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(CAPSULE_CASES))
def test_capsule_count_cases(name):
    src, want = CAPSULE_CASES[name]
    p = parse(src)
    got = validate_wellformedness(p)
    assert [(v.kind, v.var, v.message) for v in got] == want
    assert violations(got) == violations(per_binder_wellformedness(p))


def validation_visits(size):
    """Calls of the validation walks per node of the programs, over
    generator seeds 0..9 at this size."""
    calls = Counter()

    def counting(f):
        def wrapper(*args):
            calls[f] += 1
            return f(*args)

        return wrapper

    nodes = 0
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_count_free", "_check_expr_wf"):
            mp.setattr(syntax, name, counting(getattr(syntax, name)))
        for seed in range(10):
            p = parse(gen_source(GenConfig(seed=seed, size=size, reject_rate=0)))
            terms = [p.main] + [
                m.body for cd in p.table.classes.values() for m in cd.methods.values()
            ]
            nodes += sum(len(list(subterms(e))) for e in terms)
            validate_wellformedness(p)
    assert len(calls) == 2
    return sum(calls.values()) / nodes


def test_validation_visits_each_node_a_few_times():
    # one walk per block, whatever its number of capsule locals, and only
    # where one of them is free: counting binder by binder took 7.1 visits
    # per node at this size
    assert validation_visits(64) <= 2
