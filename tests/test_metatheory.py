"""Trace-level verification: subject reduction, progress, canonical forms,
and the two qualifier soundness properties (capsule freshness and
immutability of imm right-values)."""

import dataclasses
import json
import random

import pytest

from capslang.congruence import all_mut, wf_rightvalue, wf_store_decl
from capslang.generator import GenConfig, gen_source
from capslang.metatheory import (
    MetaViolation,
    _StoreChecks,
    check_canonical_forms,
    check_capsule_theorem,
    check_immutable_theorem,
    check_progress,
    check_subject_reduction,
    verify_trace,
)
from capslang.parser import parse_expr, pretty_print
from capslang.reducer import ReductionTrace
from capslang.syntax import (
    INT,
    Block,
    Decl,
    IntLit,
    IntType,
    New,
    Qualifier,
    RefType,
    Var,
    children,
    free_vars,
    is_evaluated,
    is_objstate,
)
from capslang.typecheck import (
    Checker,
    IllTyped,
    SearchExhausted,
    TypeContext,
)

from conftest import CORPUS, reduce_source

CLS = """
class D { int f; }
class C { mut D f1; mut D f2; }
"""


def verified(src, fuel=5000):
    p, tr = reduce_source(src, fuel=fuel)
    return p, tr, verify_trace(p.table, tr)


def doctored(tr, term):
    """A copy of the trace with one extra (bogus) step appended."""
    return dataclasses.replace(tr, steps=tr.steps + [("bogus", term)])


class TestCleanTraces:
    def test_capsule_recovery(self):
        _, _, vs = verified(
            CLS
            + """
            mut D y = new D(0);
            capsule C z = { mut D x = new D(y.f = y.f + 1); new C(x, x) };
            z
            """
        )
        assert vs == []

    def test_imm_recovery(self):
        _, _, vs = verified(
            CLS
            + """
            mut D y = new D(0);
            imm C z = { lent D x = new D(y.f); new C(x, x) };
            new C(new D(y.f), new D(0))
            """
        )
        assert vs == []

    def test_cyclic_store(self):
        _, _, vs = verified(
            """
            class B { mut B f; }
            mut B x = new B(y);
            mut B y = new B(x);
            x.f = x
            """
        )
        assert vs == []

    def test_field_assign_into_outer_store(self):
        # assigning an inner local into an outer object's field forces the
        # local to be hoisted out of the recovery block first
        p, tr = reduce_source(
            CLS
            + """
            mut D z = new D(1);
            mut C x = new C(z, z);
            capsule C y = { lent D z1 = new D(1); lent D z2 = (x.f1 = z1);
                            mut D z3 = new D(2); new C(z3, z3) };
            y
            """
        )
        assert "field-assign-move" in [r for r, _ in tr.steps]
        assert verify_trace(p.table, tr) == []


class TestDetection:
    """The checkers must actually flag broken traces, so doctor a good trace
    with a bogus final step and watch each theorem fire."""

    def _base(self):
        return verified(CLS + "mut D y = new D(0);\ny")

    def test_progress_flags_non_value_body(self):
        p, tr, _ = self._base()
        bad = doctored(tr, parse_expr("{mut D y = new D(0); mut D w = y.f; w}"))
        vs = check_progress(p.table, bad)
        assert any(v.theorem == "progress" for v in vs)

    def test_subject_reduction_flags_type_change(self):
        p, tr, _ = self._base()
        bad = doctored(tr, parse_expr("{mut C w = new C(w, w); w}"))
        vs = check_subject_reduction(p.table, bad)
        assert any(v.theorem == "subject-reduction" for v in vs)

    def test_capsule_theorem_flags_free_mut(self):
        p, tr, _ = self._base()
        bad = doctored(
            tr, parse_expr("{mut D y = new D(0); capsule C c = new C(y, y); c}")
        )
        vs = check_capsule_theorem(p.table, bad)
        assert any(v.theorem == "capsule" for v in vs)

    def test_immutable_theorem_flags_mutation(self):
        p, _, _ = self._base()
        bad = ReductionTrace(
            initial=parse_expr("{imm D z = new D(0); z}"),
            steps=[("bogus", parse_expr("{imm D z = new D(1); z}"))],
            fuel_used=1,
            done=True,
        )
        vs = check_immutable_theorem(p.table, bad)
        assert any(v.theorem == "immutable" for v in vs)

    def test_canonical_forms_flags_class_mismatch(self):
        p, tr, _ = self._base()
        bad = doctored(tr, parse_expr("{mut D y = new C(u, u); y}"))
        vs = check_canonical_forms(p.table, bad)
        assert any(v.theorem == "canonical-forms" for v in vs)


class TestViolationReporting:
    def test_json_shape(self):
        p, tr, _ = verified(CLS + "mut D y = new D(0);\ny")
        bad = doctored(tr, parse_expr("{mut D y = new C(u, u); y}"))
        (v, *_) = check_canonical_forms(p.table, bad)
        d = json.loads(v.to_json())
        assert d["theorem"] == "canonical-forms"
        assert "step" in d and "message" in d


# ---------------------------------------------------------------------------
# verify_trace against an oracle: the checks as they were before the
# incremental metatheory (a fresh Checker per reduct, three separate store
# walks, nothing cached)
# ---------------------------------------------------------------------------


def _oracle_subject_reduction(table, trace, budget=None):
    def violation(step, message, term):
        return MetaViolation("subject-reduction", step, None, message, pretty_print(term))

    try:
        j0 = Checker(table, budget).infer(TypeContext.make({}), trace.initial)
    except SearchExhausted as e:
        return [violation(0, f"inconclusive: {e}", trace.initial)]
    except IllTyped as e:
        return [violation(0, f"initial term does not typecheck: {e}", trace.initial)]
    out = []
    for step, (_, term) in enumerate(trace.steps, 1):
        try:
            Checker(table, budget).check(TypeContext.make({}), term, j0.result)
        except IllTyped as e:
            out.append(violation(
                step, f"reduct no longer typechecks at {j0.result}: {e}", term))
        except SearchExhausted as e:
            out.append(violation(step, f"inconclusive: {e}", term))
    return out


def _oracle_stored_decls(e, env, out):
    if isinstance(e, Block):
        env2 = dict(env)
        for d in e.decls:
            env2[d.name] = d
        for d in e.decls:
            if is_evaluated(d):
                out.append((d, env2))
            _oracle_stored_decls(d.init, env2, out)
        _oracle_stored_decls(e.body, env2, out)
        return
    for c in children(e):
        _oracle_stored_decls(c, env, out)


def _oracle_stored(trace):
    """(step, term, d, env) for every evaluated declaration, one walk per
    term and call."""
    terms = [trace.initial] + [term for _, term in trace.steps]
    for step, term in enumerate(terms):
        stored = []
        _oracle_stored_decls(term, {}, stored)
        for d, env in stored:
            yield step, term, d, env


def _oracle_decl_type(env, x):
    d = env.get(x)
    return d.dtype if d is not None else None


def _oracle_rv_class(rv, env):
    if is_objstate(rv):
        return rv.cname
    if isinstance(rv, Block):
        if is_objstate(rv.body):
            return rv.body.cname
        if isinstance(rv.body, Var):
            for d in rv.decls:
                if d.name == rv.body.name:
                    return d.dtype.cname if isinstance(d.dtype, RefType) else None
            t = _oracle_decl_type(env, rv.body.name)
            return t.cname if isinstance(t, RefType) else None
    return None


def _oracle_objstates(rv):
    if is_objstate(rv):
        yield rv
    elif isinstance(rv, Block):
        if is_objstate(rv.body):
            yield rv.body
        for d in rv.decls:
            yield from _oracle_objstates(d.init)


def _oracle_shape(table, d, env):
    if isinstance(d.dtype, IntType):
        if not isinstance(d.init, IntLit):
            yield "evaluated int declaration does not hold a literal"
        return
    q = d.dtype.qualifier
    cname = _oracle_rv_class(d.init, env)
    if cname is not None and cname != d.dtype.cname:
        yield f"right-value has class {cname} but the declaration says {d.dtype.cname}"
    if not wf_store_decl(d):
        if not (wf_rightvalue(d.init) or isinstance(d.init, Var)):
            yield "evaluated declaration holds a malformed right-value"
        return
    if q in (Qualifier.MUT, Qualifier.LENT, Qualifier.READ) and not is_objstate(d.init):
        yield f"{q} declaration does not hold an object state"
    if q is Qualifier.IMM and isinstance(d.init, Block) and not all_mut(d.init.decls):
        yield "imm declaration holds a block with non-mut locals"
    for rv in _oracle_objstates(d.init):
        fields = table.fields(rv.cname) if rv.cname in table else None
        if fields is None or len(fields) != len(rv.args):
            yield f"object state new {rv.cname}(...) has wrong arity"
            continue
        local_env = dict(env)
        if isinstance(d.init, Block):
            for dd in d.init.decls:
                local_env[dd.name] = dd
        for (ft, fn), a in zip(fields, rv.args):
            if isinstance(ft, IntType):
                if isinstance(a, IntLit):
                    continue
                t = _oracle_decl_type(local_env, a.name)
                if t is not None and not isinstance(t, IntType):
                    yield f"field {fn} holds a non-int value"
            elif isinstance(a, IntLit):
                yield f"field {fn} holds an int literal"
            else:
                t = _oracle_decl_type(local_env, a.name)
                if isinstance(t, RefType) and t.cname != ft.cname:
                    yield f"field {fn} points at class {t.cname}, declared {ft.cname}"


def _oracle_imm_closed(rv, env):
    for x in sorted(free_vars(rv)):
        t = _oracle_decl_type(env, x)
        if isinstance(t, IntType):
            continue
        if not (isinstance(t, RefType) and t.qualifier is Qualifier.IMM):
            return x
    return None


def _oracle_snapshot(rv, env, stack):
    if isinstance(rv, IntLit):
        return ("int", rv.value)
    if isinstance(rv, Var):
        x = rv.name
        if x in stack:
            return ("back", len(stack) - 1 - stack.index(x))
        d = env.get(x)
        if d is None or not is_evaluated(d):
            return ("open", len(stack))
        return _oracle_snapshot(d.init, env, stack + (x,))
    if isinstance(rv, Block):
        env2 = dict(env)
        for d in rv.decls:
            env2[d.name] = d
        return _oracle_snapshot(rv.body, env2, stack)
    if isinstance(rv, New):
        return ("new", rv.cname) + tuple(_oracle_snapshot(a, env, stack) for a in rv.args)
    return ("opaque", pretty_print(rv))


def _oracle_has_open(key):
    if isinstance(key, tuple):
        return bool(key) and key[0] == "open" or any(_oracle_has_open(k) for k in key)
    return False


def _is(d, q):
    return isinstance(d.dtype, RefType) and d.dtype.qualifier is q


def oracle_verify(table, trace):
    out = _oracle_subject_reduction(table, trace) + check_progress(table, trace)
    for step, term, d, env in _oracle_stored(trace):
        for msg in _oracle_shape(table, d, env):
            out.append(MetaViolation("canonical-forms", step, d.name, msg, pretty_print(term)))
    for step, term, d, env in _oracle_stored(trace):
        if _is(d, Qualifier.CAPSULE) and not isinstance(d.init, Var):
            x = _oracle_imm_closed(d.init, env)
            if x is not None:
                out.append(MetaViolation(
                    "capsule", step, d.name,
                    f"capsule right-value refers to non-imm {x}", pretty_print(term)))
    first_seen = {}
    for step, term, d, env in _oracle_stored(trace):
        if not (_is(d, Qualifier.IMM) and wf_store_decl(d)):
            continue
        x = _oracle_imm_closed(d.init, env)
        if x is not None:
            out.append(MetaViolation(
                "immutable", step, d.name,
                f"imm right-value refers to non-imm {x}", pretty_print(term)))
        key = _oracle_snapshot(d.init, env, ())
        if _oracle_has_open(key):
            continue
        prev = first_seen.setdefault(d.name, (step, key))
        if prev[1] != key:
            out.append(MetaViolation(
                "immutable", step, d.name,
                f"imm reachable state changed since step {prev[0]}", pretty_print(term)))
    return out


def assert_same_as_oracle(table, trace):
    """verify_trace reports what the oracle reports, except at a step where
    the oracle's subject-reduction check ran out of budget: one Checker
    per trace reuses what earlier reducts computed, so its budget only ever
    goes further, and it may reach a verdict there."""
    want = oracle_verify(table, trace)
    inconclusive = {
        v.step for v in want
        if v.theorem == "subject-reduction" and v.message.startswith("inconclusive")
    }

    def conclusive(vs):
        return [
            (v.theorem, v.step, v.binder, v.message) for v in vs
            if not (v.theorem == "subject-reduction" and v.step in inconclusive)
        ]

    assert conclusive(verify_trace(table, trace)) == conclusive(want)


def doctored_traces():
    """The doctored traces of TestDetection and TestViolationReporting, and
    traces whose steps keep a declaration object while a declaration it
    reads changes, or hide a bad declaration in an unevaluated one, or keep
    a root declaration object whose context changes at the second reduct,
    where subject reduction would keep its premise's judgment."""
    p, tr = reduce_source(CLS + "mut D y = new D(0);\ny")
    for bogus in (
        "{mut D y = new D(0); mut D w = y.f; w}",
        "{mut C w = new C(w, w); w}",
        "{mut D y = new D(0); capsule C c = new C(y, y); c}",
        "{mut D y = new C(u, u); y}",
        "{mut D y = {mut D w = new C(u, u); w.f}; y}",
        "{int y = (v.f = {mut D w = new C(u, u); 1}); y}",
    ):
        yield p.table, doctored(tr, parse_expr(bogus))
    yield p.table, ReductionTrace(
        initial=parse_expr("{imm D z = new D(0); z}"),
        steps=[("bogus", parse_expr("{imm D z = new D(1); z}"))],
        fuel_used=1,
        done=True,
    )
    for before, after in (
        ("{mut D u = new D(0); mut C y = new C(u, u); y}", "mut C u = new C(v, v)"),
        ("{imm D u = new D(0); imm C y = new C(u, u); y}", "mut D u = new D(0)"),
        ("{imm D u = new D(0); imm C y = new C(u, u); y}", "imm D u = new D(1)"),
        ("{imm D u = new D(0); capsule C y = new C(u, u); y}", "mut D u = new D(0)"),
    ):
        first = parse_expr(before)
        (u,) = parse_expr(f"{{{after}; u}}").decls
        step = Block((u,) + first.decls[1:], first.body)  # shares y's Decl
        yield p.table, ReductionTrace(first, [("bogus", step)], 1, True)

    def kept(first, *steps):
        """first, a copy of it that shares its Decl objects, then steps."""
        steps = (Block(first.decls, first.body),) + steps
        return ReductionTrace(first, [("bogus", t) for t in steps], len(steps), True)

    # subject reduction keeps a root premise's judgment from one reduct to
    # the next (the second reduct on): each last term keeps a Decl object
    # while its context changes under it
    first = parse_expr(
        "{mut D u = new D(0); mut D v = new D(1); mut C y = new C(u, u); y}"
    )
    _, v, y = first.decls
    (imm_u,) = parse_expr("{imm D u = new D(0); u}").decls
    # a mentioned declaration changes type, or is removed
    yield p.table, kept(first, Block((imm_u, v, y), first.body))
    yield p.table, kept(first, Block((v, y), first.body))
    # a new mut declaration: w's premise, which mentions every mut name,
    # now has one outside its names; the body is imm, not mut
    first = parse_expr("{mut D x = new D(0); imm D w = new D(x.f); x}")
    (z,) = parse_expr("{mut D z = new D(1); z}").decls
    yield p.table, kept(first, Block(first.decls + (z,), Var("w")))
    # a second declaration of x changes the goal of the kept first one
    first = parse_expr("{mut D y = new D(1); mut D x = new D(0); y}")
    (int_x,) = parse_expr("{int x = 1; x}").decls
    yield p.table, kept(first, Block(first.decls + (int_x,), first.body))
    # a capsule alias may no longer consume m: a new unevaluated sibling
    # reads it
    first = parse_expr("{mut D m = new D(0); capsule D c = m; c}")
    (t,) = parse_expr("{int t = m.f; t}").decls
    yield p.table, kept(first, Block(first.decls + (t,), first.body))
    # a kept declaration that broke a store check breaks it again
    bad = parse_expr("{mut D y = new C(u, u); y}")
    yield p.table, kept(bad)
    # both declarations of a name declared twice go at once, and a step
    # later the name is read although nothing declares it
    first = parse_expr("{mut D u = new D(0); mut D w = new D(1); w}")
    u, w = first.decls
    (u2,) = parse_expr("{mut D u = new D(2); u}").decls
    yield p.table, kept(
        first, Block((u, u2, w), first.body), Block((w,), first.body),
        Block((w,), Var("u")),
    )
    # a block that holds one Decl object twice has no diff: it is checked
    # in full, and the next block is compared with nothing
    first = parse_expr("{mut D u = new D(0); mut D w = new C(u, u); w}")
    u, w = first.decls
    yield p.table, kept(first, Block((u, u, w), first.body), Block((u, w), first.body))


class TestAgainstOracle:
    def test_corpus_accept(self):
        for path in sorted((CORPUS / "accept").glob("*.caps")):
            p, trace = reduce_source(path.read_text())
            assert_same_as_oracle(p.table, trace)

    @pytest.mark.parametrize("size", [8, 16])
    def test_generated(self, size):
        for seed in range(200):
            p, trace = reduce_source(
                gen_source(GenConfig(seed=seed, size=size, reject_rate=0.0))
            )
            assert_same_as_oracle(p.table, trace)

    def test_generated_long(self):
        # longer traces: more reducts reuse the root state of the last one
        for seed in range(20):
            p, trace = reduce_source(
                gen_source(GenConfig(seed=seed, size=32, reject_rate=0.0))
            )
            assert_same_as_oracle(p.table, trace)

    def test_doctored(self):
        for table, trace in doctored_traces():
            assert_same_as_oracle(table, trace)
            assert oracle_verify(table, trace)  # each one is flagged

    def test_doctored_generated(self):
        # three bogus root blocks per trace, each a reduct with one
        # declaration dropped, retyped, declared twice or moved, followed by
        # the rest of the trace again: the terms share their other Decl
        # objects, as reducts do
        flagged = 0
        for seed in range(40):
            rnd = random.Random(seed)
            p, trace = reduce_source(
                gen_source(GenConfig(seed=seed, size=16, reject_rate=0.0))
            )
            steps = list(trace.steps)
            for _ in range(3):
                k = rnd.randrange(1, len(steps))
                term = steps[k][1]
                decls = list(term.decls)
                i = rnd.randrange(len(decls))
                d = decls[i]
                how = rnd.choice(["drop", "retype", "twice", "move"])
                if how == "drop":
                    del decls[i]
                elif how == "retype":
                    t = d.dtype
                    types = [INT] if t == INT else [RefType(q, t.cname) for q in Qualifier]
                    decls[i] = Decl(rnd.choice(types), d.name, d.init)
                elif how == "twice":
                    j = rnd.randrange(len(decls))
                    decls.insert(j, Decl(decls[j].dtype, d.name, decls[j].init))
                else:
                    decls.insert(rnd.randrange(len(decls) + 1), decls.pop(i))
                bogus = ("bogus", Block(tuple(decls), term.body))
                steps = steps[:k + 1] + [bogus] + steps[k + 1:]
            doctored = ReductionTrace(trace.initial, steps, len(steps), True)
            assert_same_as_oracle(p.table, doctored)
            flagged += bool(oracle_verify(p.table, doctored))
        assert flagged >= 20


class TestSubjectReductionCost:
    def test_each_reduct_has_the_whole_budget(self):
        p, trace = reduce_source(gen_source(GenConfig(seed=3, size=16, reject_rate=0.0)))
        empty = TypeContext.make({})
        c = Checker(p.table)
        goal = c.infer(empty, trace.initial).result
        need = [c.ticks]
        for _, term in trace.steps:
            c = Checker(p.table)
            c.check(empty, term, goal)
            need.append(c.ticks)
        assert sum(need) > 2 * max(need)  # one budget for all would run out
        assert check_subject_reduction(p.table, trace, budget=max(need)) == []

    def test_checks_per_term_do_not_grow_with_size(self, monkeypatch):
        # searches run per trace term (calls of Checker._check, memo and
        # projected hits excluded) over seeds 0..19: 34.6 at N = 8 and
        # 172 at N = 32 with a fresh Checker per reduct, about 6.8 at both
        # with one Checker per trace
        calls = 0
        search = Checker._check

        def counted(self, ctx, e, goal):
            nonlocal calls
            calls += 1
            return search(self, ctx, e, goal)

        monkeypatch.setattr(Checker, "_check", counted)
        per_term = {}
        for size in (8, 32):
            calls = terms = 0
            for seed in range(20):
                p, trace = reduce_source(
                    gen_source(GenConfig(seed=seed, size=size, reject_rate=0.0))
                )
                terms += len(trace.steps) + 1
                assert check_subject_reduction(p.table, trace) == []
            per_term[size] = calls / terms
        assert per_term[32] <= 1.25 * per_term[8], per_term


class TestVerifyCost:
    def test_work_per_term_does_not_grow_with_size(self, monkeypatch):
        # projections (subject reduction) plus declarations handed to the
        # store checks, per trace term, over seeds 0..9: 32.4 at N = 16 and
        # 241 at N = 128 when every reduct re-projects every root premise
        # and the store checks get every evaluated declaration of every
        # term; 8.9 and 12.2 when both spend only on the root diff
        work = 0
        project, canonical = Checker._projection, _StoreChecks.canonical_forms

        def projection(self, ctx, e):
            nonlocal work
            work += 1
            return project(self, ctx, e)

        def handed(self, step, term, d, env, out):
            nonlocal work
            work += 1
            return canonical(self, step, term, d, env, out)

        monkeypatch.setattr(Checker, "_projection", projection)
        monkeypatch.setattr(_StoreChecks, "canonical_forms", handed)
        per_term = {}
        for size in (16, 128):
            work = terms = 0
            for seed in range(10):
                p, trace = reduce_source(
                    gen_source(GenConfig(seed=seed, size=size, reject_rate=0.0))
                )
                terms += len(trace.steps) + 1
                assert verify_trace(p.table, trace) == []
            per_term[size] = work / terms
        assert per_term[128] <= 1.5 * per_term[16], per_term
