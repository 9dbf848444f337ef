"""Typechecker verdicts: recovery of capsule/imm types, group handling,
restricted references, and rejection of aliasing violations."""

import gc
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from capslang import cli
from capslang.generator import GenConfig, gen_source
from capslang.parser import parse
from capslang.syntax import INT, IntLit, Qualifier, RefType, Var, subtype
from capslang.typecheck import (
    _IN_PROGRESS,
    Checker,
    IllTyped,
    Judgment,
    SearchExhausted,
    TypeCheckError,
    TypeContext,
    _span,
    discard_type,
    method_context,
    resolve_implicit_types,
    typecheck_program,
    wf_context,
)

from conftest import CORPUS

CLS = """
class D { int f; }
class C { mut D f1; mut D f2; }
"""

CLS_A = """
class A { int f; }
class D { mut A f1; mut A f2; }
class C { mut A f1; mut A f2; }
"""

CLS_NEST = """
class A { int v;
  mut A mix(mut, mut A a) { return {this.v = a.v; a}; }
  capsule A clone(read) { return new A(this.v); }
  mut A parse(static) { return new A(0); }
}
"""

NEST = CLS_NEST + """
mut A a1 = A.parse();
capsule A outerA = {
  mut A a2 = A.parse();
  capsule A nestedA = { mut A a3 = A.parse(); mut A res = %s; res.mix(a3) };
  nestedA.mix(a2)
};
outerA
"""


def check(src):
    p = resolve_implicit_types(parse(src))
    return typecheck_program(p)


def accepts(src, *need_rules):
    out = check(src)
    path = out["main"].rule_path()
    for r in need_rules:
        assert r in path, f"expected {r} in {path}"
    return out


def rejects(src):
    with pytest.raises(TypeCheckError):
        check(src)


class TestRecovery:
    def test_capsule_of_fresh_store(self):
        accepts(
            CLS
            + """
            mut D y = new D(0);
            capsule C z = { mut D x = new D(y.f); new C(x, x) };
            z
            """,
            "t-capsule",
        )

    def test_capsule_with_swap(self):
        accepts(
            CLS
            + """
            mut D y = new D(0);
            capsule C z = { mut D x = new D(y.f = y.f + 1); new C(x, x) };
            z
            """,
            "t-capsule",
            "t-swap",
        )

    def test_imm_with_restricted(self):
        accepts(
            CLS
            + """
            mut D y = new D(0);
            imm C z = { lent D x = new D(y.f); new C(x, x) };
            z
            """,
            "t-imm",
            "t-unrst",
        )

    def test_alias_escapes_capsule(self):
        rejects(
            CLS
            + """
            mut D y = new D(0);
            capsule C z = { mut D x = y; new C(x, x) };
            z
            """
        )

    def test_restricted_cannot_alias_outer_mut(self):
        rejects(
            CLS
            + """
            mut D y = new D(0);
            imm C z = { lent D x = y; new C(x, x) };
            z
            """
        )


class TestGroups:
    def test_joined_group_stays_lent(self):
        accepts(
            CLS
            + """
            mut D z = new D(1);
            mut C x = new C(z, z);
            capsule C y = { lent D z1 = new D(1); lent D z2 = (x.f1 = z1);
                            mut D z3 = new D(2); new C(z3, z3) };
            y
            """,
            "t-capsule",
        )

    def test_joined_group_cannot_be_result(self):
        rejects(
            CLS
            + """
            mut D z = new D(1);
            mut C x = new C(z, z);
            capsule C y = { lent D z1 = new D(1); lent D z2 = (x.f1 = z1);
                            mut D z3 = new D(2); new C(z1, z1) };
            y
            """
        )

    def test_swap_result_weakened_to_lent(self):
        rejects(
            CLS_A
            + """
            mut A x1 = new A(0);
            mut A x2 = new A(1);
            mut D y = new D(x1, x2);
            capsule C z = { mut A x = (y.f1 = y.f2); new C(x, x) };
            z
            """
        )

    def test_swap_concludes_a_lent_goal(self):
        # under capsule promotion x and k form a lent group: new C(x) is mut
        # only with that group swapped in, and weakened to lent it meets the
        # lent parameter.  The checker skips the swap for mut goals alone.
        out = accepts(
            """
            class A { int f; }
            class C { mut A f1; int peek(read, lent C c) { return c.f1.f; } }
            mut A x = new A(1);
            mut C k = new C(x);
            capsule C z = { mut A a = new A(0); int n = k.peek(new C(x)); new C(a) };
            z
            """
        )
        stack, swaps = [out["main"]], []
        while stack:
            j = stack.pop()
            stack.extend(j.premises)
            if j.rule == "t-swap":
                swaps.append(j.result)
        assert RefType(Qualifier.LENT, "C") in swaps


class TestNestedRecovery:
    def test_inner_slot_local(self):
        accepts(NEST % "a3")

    def test_clone_of_outer_is_capsule(self):
        accepts(NEST % "a1.clone()")

    def test_clone_of_mixed_middle(self):
        accepts(NEST % "a2.mix(a2).clone()")

    def test_outer_alias_rejected(self):
        rejects(NEST % "a1")

    def test_mix_leaks_outer_rejected(self):
        rejects(NEST % "a2.mix(a1).clone()")


class TestFrontend:
    def test_unknown_field(self):
        rejects(CLS + "mut D y = new D(0);\ny.g")

    def test_unknown_variable(self):
        rejects(CLS + "w")

    def test_wrong_arity(self):
        rejects(CLS + "mut D y = new D(0, 1);\ny")

    def test_imm_field_mutation(self):
        rejects(
            """
            class D { int n; }
            class C { imm D f; }
            mut C x = new C(new D(0));
            mut D y = new D(1);
            x.f = y
            """
        )

    def test_int_where_object_expected(self):
        rejects(CLS + "mut D y = 5;\ny")

    CALLS = (
        "class D { int f; int g(read) { return this.f; }"
        " mut D mk(static) { return new D(0); } }\n"
    )

    @pytest.mark.parametrize("main_src, message", [
        ("mut D d = new D(0); d.mk()",
         "method D.mk is static; call it as D.mk(...) at 2:23"),
        ("D.g()", "method D.g is not static at 2:3"),
        ("mut D d = new D(0); d.g(1)", "D.g: expected 0 arguments, got 1 at 2:23"),
        ("D.mk(1)", "D.mk: expected 0 arguments, got 1 at 2:3"),
        ("mut D d = new D(0); d.h()", "no method h in class D at 2:23"),
        ("D.h()", "no method h in class D at 2:3"),
        ("mut D d = new D(0); d.q", "no field q in class D at 2:23"),
        ("mut D d = new D(0); d.q = 1", "no field q in class D at 2:23"),
        ("mut D d = new D(0); d.q; d", "no field q in class D at 2:23"),
        ("mut D d = new D(0); d.q = 1; d", "no field q in class D at 2:23"),
        ("mut D d = new D(0); d.h(); d", "no method h in class D at 2:23"),
        ("int n = 1; n.f = 2; n", "receiver is not an object at 2:12"),
        ("int n = 1; n.f = 2", "receiver is not an object at 2:12"),
        ("int n = 1; n.f", "receiver is not an object at 2:12"),
        ("int n = 1; {n.f; 1}", "receiver is not an object at 2:13"),
    ], ids=[
        "static-as-method", "method-as-static", "method-arity", "static-arity",
        "no-method", "no-static-method", "no-field", "no-field-assign",
        "no-field-discard", "no-field-assign-discard", "no-method-discard",
        "non-object-assign-discard", "non-object-assign", "non-object-access",
        "non-object-access-discard",
    ])
    def test_call_and_field_diagnostics(self, tmp_path, capsys, main_src, message):
        # the exact text `caps check` prints: golden texts of reject
        # programs hold these strings
        path = tmp_path / "prog.caps"
        path.write_text(self.CALLS + main_src + "\n")
        assert cli.main(["check", str(path)]) == cli.EXIT_TYPE
        assert capsys.readouterr() == ("", f"type error: {message}\n")


class TestContextsAndSubtyping:
    def test_discard_type(self):
        assert discard_type(INT) == INT
        assert discard_type(RefType(Qualifier.LENT, "C")) == RefType(
            Qualifier.READ, "C"
        )
        assert discard_type(RefType(Qualifier.MUT, "C")) == RefType(
            Qualifier.MUT, "C"
        )

    def test_wf_context_rejects_lent_in_gamma(self):
        ctx = TypeContext.make({"x": RefType(Qualifier.LENT, "C")})
        assert not wf_context(ctx)

    def test_wf_context_groups(self):
        mut = RefType(Qualifier.MUT, "C")
        ok = TypeContext.make({"x": mut}, groups=(frozenset({"x"}),))
        assert wf_context(ok)

    def test_subsumption_at_var(self):
        src = CLS + "mut D y = new D(0);\nread D r = y;\nr"
        out = check(src)
        assert str(out["main"].result) == "read D"

    def test_group_permutation_irrelevant(self):
        # the same program typechecks however the lent locals are written
        a = CLS + """
            mut D y = new D(0);
            imm C z = { lent D x = new D(y.f); lent D w = new D(y.f); new C(x, w) };
            z
            """
        b = CLS + """
            mut D y = new D(0);
            imm C z = { lent D w = new D(y.f); lent D x = new D(y.f); new C(x, w) };
            z
            """
        accepts(a, "t-imm")
        accepts(b, "t-imm")


class TestResolveImplicitTypes:
    SRC = """
    class D { int f; int get(read) { return this.f; } }
    mut D y = new D(1 + 2);
    mut D z = { mut D w = y; w };
    %s
    z
    """

    def test_shares_terms_without_statements(self):
        p = parse(self.SRC % "")
        q = resolve_implicit_types(p)
        assert q.main is p.main
        assert q.table.method("D", "get").body is p.table.method("D", "get").body

    def test_fills_statement_types(self):
        p = parse(self.SRC % "y.f = 4;")
        q = resolve_implicit_types(p)
        assert p.main.decls[2].dtype is None
        assert q.main.decls[2].dtype == INT
        assert q.main.decls[:2] == p.main.decls[:2]
        assert q.main.decls[1] is p.main.decls[1]


class TestBudget:
    def test_budget_exhaustion_raises(self):
        src = NEST % "a2.mix(a2).clone()"
        p = resolve_implicit_types(parse(src))
        with pytest.raises(SearchExhausted):
            typecheck_program(p, budget=5)


# ---------------------------------------------------------------------------
# The context memo key
# ---------------------------------------------------------------------------


def naive_fingerprint(ctx):
    return (
        ctx.gamma,
        tuple(sorted(tuple(sorted(g)) for g in ctx.groups)),
        tuple(sorted(ctx.restricted)),
    )


class FingerprintKeyChecker(Checker):
    """Reference checker: the memo is keyed on the fingerprint tuple rebuilt
    and hashed on every call, and failures are memoized as the exceptions
    themselves.  The production key must mean exactly the same.  A variable
    or literal whose rule meets its goal is judged at once, with no memo
    entry, as `Checker.check` judges it."""

    def check(self, ctx, e, goal):
        self._tick()
        if isinstance(e, (Var, IntLit)):
            try:
                j = self._structural(ctx, e, goal)
            except IllTyped:
                pass
            else:
                if goal is None or subtype(j.result, goal):
                    return self._sub(j, goal)
        key = (id(e), naive_fingerprint(ctx), goal)
        hit = self.memo.get(key)
        if hit is _IN_PROGRESS:
            raise IllTyped("cyclic search", _span(e))
        if hit is not None:
            if isinstance(hit, Judgment):
                return hit
            raise hit
        self.memo[key] = _IN_PROGRESS
        try:
            j = self._check(ctx, e, goal)
        except IllTyped as err:
            self.memo[key] = err
            raise
        except SearchExhausted:
            del self.memo[key]
            raise
        self.memo[key] = j
        return j


def judgments(p, checker_cls):
    """Every method body and main, each with a fresh checker: the verdict
    (result and rule path, or error kind, message and span), ticks and memo
    size."""
    goals = [
        (method_context(p.table, cname, sig), sig.body, sig.ret)
        for cname, cd in p.table.classes.items()
        for sig in cd.methods.values()
    ]
    goals.append((TypeContext.make({}), p.main, None))
    out = []
    for ctx, body, goal in goals:
        c = checker_cls(p.table)
        try:
            j = c.check(ctx, body, goal)
            verdict = ("ok", str(j.result), tuple(j.rule_path()))
        except TypeCheckError as err:
            verdict = (err.kind, str(err), err.span)
        out.append((verdict, c.ticks, len(c.memo)))
    return out


def assert_same_as_reference(sources):
    for src in sources:
        p = resolve_implicit_types(parse(src))
        assert judgments(p, Checker) == judgments(p, FingerprintKeyChecker), src


class TestContextKey:
    def test_corpus_matches_reference(self):
        assert_same_as_reference(p.read_text() for p in sorted(CORPUS.glob("*/*.caps")))

    @pytest.mark.parametrize("size", [8, 16])
    def test_generated_match_reference(self, size):
        assert_same_as_reference(
            gen_source(GenConfig(seed=s, size=size)) for s in range(200)
        )

    def test_rejecting_checker_is_freed_without_gc(self):
        p = resolve_implicit_types(
            parse((CORPUS / "reject" / "group_leak.caps").read_text())
        )
        enabled = gc.isenabled()
        debug = gc.get_debug()
        gc.disable()
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            c = Checker(p.table)
            with pytest.raises(IllTyped):
                c.infer(TypeContext.make({}), p.main)
            ref = weakref.ref(c)
            del c
            assert ref() is None
            # nor does the check leave any other reference cycle behind
            gc.collect()
            assert gc.garbage == []
        finally:
            gc.set_debug(debug)
            gc.garbage.clear()
            if enabled:
                gc.enable()

    def test_group_of_first_group_wins(self):
        mut = RefType(Qualifier.MUT, "C")
        g1, g2 = frozenset({"x", "y"}), frozenset({"y", "z"})
        ctx = TypeContext.make({"x": mut, "y": mut, "z": mut}, groups=(g1, g2))
        assert ctx.group_of("y") is g1
        assert ctx.group_of("z") is g2
        assert ctx.group_of("w") is None


NAMES = ("a", "b", "c", "d", "e")
TYPES = st.sampled_from(
    [INT]
    + [
        RefType(q, c)
        for q in Qualifier
        if q is not Qualifier.LENT
        for c in ("C", "D")
    ]
)


@st.composite
def wf_contexts(draw):
    """(gamma, groups, restricted) of a well-formed context."""
    gamma = draw(st.dictionaries(st.sampled_from(NAMES), TYPES))
    muts = sorted(
        n for n, t in gamma.items()
        if isinstance(t, RefType) and t.qualifier is Qualifier.MUT
    )
    slots = draw(st.lists(st.integers(-1, 2), min_size=len(muts), max_size=len(muts)))
    groups = tuple(
        g
        for g in (frozenset(n for n, s in zip(muts, slots) if s == i) for i in range(3))
        if g
    )
    grouped = frozenset().union(*groups)
    restrictable = sorted(
        n for n, t in gamma.items()
        if isinstance(t, RefType)
        and (t.qualifier is Qualifier.READ or n in grouped)
    )
    restricted = frozenset(draw(st.lists(st.sampled_from(restrictable), unique=True))
                           if restrictable else ())
    return gamma, groups, restricted


class TestContextViews:
    @settings(max_examples=300, deadline=None)
    @given(wf_contexts(), st.randoms(use_true_random=False))
    def test_views_agree_with_linear_definitions(self, parts, rnd):
        gamma, groups, restricted = parts
        ctx = TypeContext.make(gamma, groups, restricted)
        assert wf_context(ctx)
        grouped = frozenset().union(*groups)
        assert ctx.mutable_group() == frozenset(
            n for n, t in ctx.gamma
            if isinstance(t, RefType) and t.qualifier is Qualifier.MUT
            and n not in grouped
        )
        for x in NAMES + ("this",):
            assert ctx.env.get(x) == next((t for n, t in ctx.gamma if n == x), None)
            assert ctx.group_of(x) == next((g for g in groups if x in g), None)
        # permuted groups and gamma insertion order: the same key
        shuffled = list(groups)
        rnd.shuffle(shuffled)
        items = list(gamma.items())
        rnd.shuffle(items)
        other = TypeContext.make(dict(items), tuple(shuffled), restricted)
        assert other == ctx and hash(other) == hash(ctx)
        derived = TypeContext(ctx.gamma, tuple(shuffled), restricted)
        assert derived == ctx and hash(derived) == hash(ctx)

    @settings(max_examples=300, deadline=None)
    @given(wf_contexts(), wf_contexts())
    def test_equal_exactly_when_fingerprints_equal(self, p1, p2):
        c1, c2 = TypeContext.make(*p1), TypeContext.make(*p2)
        assert (c1 == c2) == (naive_fingerprint(c1) == naive_fingerprint(c2))
        if c1 == c2:
            assert hash(c1) == hash(c2)


# ---------------------------------------------------------------------------
# Queries of one Checker
# ---------------------------------------------------------------------------

REUSE_SOURCE = """
class D { int f; mut D d; imm D i;
  read D get(read) { return this; }
  mut D put(mut, mut D x) { return x; } }
class C { mut D x; }
"""
REUSE_TERMS = (
    "a", "a.f", "a.d", "a.i", "a.d = b", "a.f = 1", "a.get()", "a.put(b)",
    "new D(1, a, b)", "new D(a.f, b, c)", "new C(a)",
    "{ lent D z = new D(1, a, b); z.f }",
    "{ mut D z = a; new D(1, z, b) }",
    "{ capsule D z = new D(1, a, b); z }",
    "{ imm D z = new D(1, a, b); z }",
    "{ read D z = a; new D(z.f, b, b) }",
    "{ lent D z = new D(1, a, a); lent D w = (b.d = z); new D(1, w, c) }",
)
REUSE_GOALS = [None, INT] + [RefType(q, c) for q in Qualifier for c in ("C", "D")]
MUT_D, IMM_D, READ_D = (RefType(q, "D") for q in (Qualifier.MUT, Qualifier.IMM, Qualifier.READ))


def verdict(checker, ctx, e, goal):
    """The result of a query, or the error's kind and message."""
    try:
        return "ok", str(checker.query(ctx, e, goal).result)
    except TypeCheckError as err:
        return err.kind, str(err)


class TestProjectedReuse:
    """Asking one Checker the same term under one context and then under
    another, whose projection may be the same, must give the result, or
    the error, a fresh Checker gives for the second: each query starts
    with an empty memo."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        wf_contexts(), wf_contexts(),
        st.sampled_from(REUSE_TERMS), st.sampled_from(REUSE_GOALS),
    )
    # contexts whose projections differ in one part only: gamma, the
    # groups, the restricted names among the names
    @example(({"a": MUT_D}, (), frozenset()), ({"a": IMM_D}, (), frozenset()),
             "a.f = 1", INT)
    @example(({"a": MUT_D}, (frozenset("a"),), frozenset()), ({"a": MUT_D}, (), frozenset()),
             "a", MUT_D)
    @example(({"a": READ_D, "b": READ_D, "c": READ_D}, (), frozenset("ac")),
             ({"a": READ_D, "b": READ_D, "c": READ_D}, (), frozenset("bc")),
             "a", READ_D)
    def test_second_query_matches_a_fresh_checker(self, p1, p2, term, goal):
        p = resolve_implicit_types(parse(REUSE_SOURCE + term))
        c = Checker(p.table)
        verdict(c, TypeContext.make(*p1), p.main, goal)
        ctx = TypeContext.make(*p2)
        assert verdict(c, ctx, p.main, goal) == verdict(Checker(p.table), ctx, p.main, goal)
