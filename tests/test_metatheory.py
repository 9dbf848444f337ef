"""Trace-level verification: subject reduction, progress, canonical forms,
and the two qualifier soundness properties (capsule freshness and
immutability of imm right-values)."""

import dataclasses
import json
import random

import pytest

from capslang import metatheory
from capslang.congruence import all_mut, wf_rightvalue, wf_store_decl
from capslang.context import RootScope, RootState
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
from capslang.reducer import ReductionError, ReductionTrace
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
    mentions,
)
from capslang.typecheck import (
    _IN_PROGRESS,
    Checker,
    IllTyped,
    Judgment,
    SearchExhausted,
    TypeCheckError,
    TypeContext,
    _Failure,
    _span,
    typecheck_program,
)

from conftest import CORPUS, reduce_source
from test_context import copy

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

    # an assignment through a receiver that is no reference names the
    # receiver first; no corpus or generated program makes one
    @pytest.mark.parametrize(
        "main",
        [
            "mut D a = new D(1); mut D b = new D(2);"
            " mut D y = (new C(a, a)).f1 = b; y.f",
            "int y = (new D(1)).f = 2; y",
        ],
        ids=["reference", "int"],
    )
    def test_field_assign_through_a_new_object(self, main):
        p, tr = reduce_source(CLS + main)
        assert "field-assign-prop" in [r for r, _ in tr.steps]
        assert verify_trace(p.table, tr) == []

    @pytest.mark.xfail(
        strict=True,
        reason="one normalization pass leaves garbage in a reduct: a "
        "field-assign that writes a constructor call into an object state "
        "leaves the named receiver in y's initializer",
    )
    def test_field_assign_of_a_new_object_through_a_new_object(self):
        # field-assign writes the non-reference `new D(2)` into the object
        # state of the named receiver; the pass that hoists it turns y's
        # initializer into a value only mid-pass, so the receiver stays as
        # garbage and canonical forms fails at step 2
        _, _, vs = verified(
            CLS
            + "mut D a = new D(1); mut D y = (new C(a, a)).f1 = new D(2); y.f"
        )
        assert vs == []


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
        # the exact line: the fields in their order, default separators
        v = MetaViolation("progress", 2, None, 'a "b"', "{mut D y = new D(0); y}")
        assert v.to_json() == (
            '{"theorem": "progress", "step": 2, "binder": null, '
            '"message": "a \\"b\\"", "term": "{mut D y = new D(0); y}"}'
        )


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


def _oracle_snapshot(rv, lookup, stack):
    """The reachable graph of rv, with an ("open", depth) marker at each
    reference that is unresolved or not yet evaluated."""
    if isinstance(rv, IntLit):
        return ("int", rv.value)
    if isinstance(rv, Var):
        x = rv.name
        if x in stack:
            return ("back", len(stack) - 1 - stack.index(x))
        d = lookup(x)
        if d is None or not is_evaluated(d):
            return ("open", len(stack))
        return _oracle_snapshot(d.init, lookup, stack + (x,))
    if isinstance(rv, Block):
        local = {d.name: d for d in rv.decls}
        return _oracle_snapshot(
            rv.body, lambda x: local[x] if x in local else lookup(x), stack
        )
    if isinstance(rv, New):
        return ("new", rv.cname) + tuple(_oracle_snapshot(a, lookup, stack) for a in rv.args)
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
        key = _oracle_snapshot(d.init, env.get, ())
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


def advance(root, term):
    """Move root, and the scope it shares, on to term, as the walk of
    `verify_trace` does."""
    diff = root.scope.advance(term.decls if isinstance(term, Block) else ())
    root.advance(term, *diff)


def doctored_traces():
    """The doctored traces of TestDetection and TestViolationReporting, and
    traces whose steps keep a declaration object while a declaration it
    reads changes, or hide a bad declaration in an unevaluated one, or keep
    a root declaration object whose context changes at the second reduct,
    where subject reduction would keep its premise's judgment (also after a
    failed step), or put a term that is not a block between two blocks, or
    retype a name that only a declaration nested in a root declaration
    reads, or keep a declaration that lacks a type, or keep the root body
    while the goal, a name it mentions or its context outside its names
    changes."""
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
        yield p.table, ReductionTrace(first, [("bogus", step)], True)

    def kept(first, *steps):
        """first, a copy of it that shares its Decl objects, then steps."""
        steps = (Block(first.decls, first.body),) + steps
        return ReductionTrace(first, [("bogus", t) for t in steps], True)

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
    # the same retyping fails y's kept premise, and a step later it stays
    # while an unrelated declaration comes: the judgment y's premise had
    # before the failed step is not kept, and both steps report it
    (z,) = parse_expr("{mut D z = new D(1); z}").decls
    yield p.table, kept(
        first, Block((imm_u, v, y), first.body), Block((imm_u, v, y, z), first.body)
    )
    # a new mut declaration: w's premise, which mentions every mut name,
    # now has one outside its names; the body is imm, not mut
    first = parse_expr("{mut D x = new D(0); imm D w = new D(x.f); x}")
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
    # a block that holds two equal declarations, as a field assignment
    # that copies a value leaves it: both are checked
    first = parse_expr("{mut D u = new D(0); mut D w = new C(u, u); w}")
    u, w = first.decls
    yield p.table, kept(
        first, Block((u, copy(u), w), first.body), Block((u, w), first.body)
    )
    # a declaration comes with an equal one, stays alone, then comes with
    # another equal one; then one that breaks subject reduction and a
    # store check does the same, and each copy reports it
    first = parse_expr("{mut D u = new D(0); mut D w = new D(1); w}")
    u, w = first.decls
    (z,) = parse_expr("{mut D z = new D(2); z}").decls
    (y,) = bad.decls
    yield p.table, kept(
        first,
        *(
            Block(decls, first.body)
            for x in (z, y)
            for decls in ((u, x, w, copy(x)), (u, w, x), (copy(x), u, x, w))
        ),
    )
    # a term that is not a block between two copies of one block: the
    # block's violation is reported at steps 0 and 2
    yield p.table, ReductionTrace(
        bad, [("bogus", parse_expr("new D(0)")), ("bogus", bad)], True
    )
    # only w, nested in the transient y, reads u: when u is retyped, both
    # of w's fields break canonical forms at step 1
    first = parse_expr(
        "{mut D u = new D(0); mut C y = {mut C w = new C(u, u); w}; y}"
    )
    (u,) = parse_expr("{mut C u = new C(v, v); u}").decls
    step = Block((u,) + first.decls[1:], first.body)  # shares y's Decl
    yield p.table, ReductionTrace(first, [("bogus", step)], True)
    # subject reduction keeps the root body's judgment from one reduct to
    # the next: at the first reduct of each trace below the body node stays
    # while the goal changes from the initial term's None, and at the second
    # it stays while a name it mentions is retyped (mut still), or a new mut
    # declaration flips both parts of its projection that look outside its
    # names, or, with a read name already outside, only the "mutable group
    # beyond" part.  The flips change the note of the block nested in the
    # body's capsule promotion, not the verdict; a last step that breaks a
    # store check and subject reduction flags those traces
    first = parse_expr("{mut D v = new D(1); mut D u = new D(0); {mut D t = u; t}}")
    (c_u,) = parse_expr("{mut C u = new C(v, v); u}").decls
    yield p.table, kept(first, Block((first.decls[0], c_u), first.body))
    (z,) = parse_expr("{mut D z = new D(1); z}").decls
    for outer in ("imm D u = new D(0)", "imm D u = new D(0); read D r = new D(2)"):
        first = parse_expr(f"{{{outer}; {{capsule D c = {{mut D t = new D(0); t}}; c}}}}")
        flipped = first.decls + (z,)
        yield p.table, kept(
            first, Block(flipped, first.body), Block(flipped + bad.decls, first.body)
        )
    # a declaration that lacks a type (unresolved statement sugar) stays for
    # two steps: subject reduction reports it at both
    first = parse_expr("{mut D u = new D(0); mut D w = new D(1); w}")
    u, w = first.decls
    v, untyped = parse_expr("{mut D v = new D(2); v.f; v}").decls
    yield p.table, kept(
        first, Block((u, untyped, w), first.body),
        Block((u, untyped, w, v), first.body), Block((u, w), first.body),
    )


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

    def test_one_object_twice_is_refused(self):
        # a root block never holds one Decl object twice (the reducer gives
        # a copied value declarations of its own); a trace from elsewhere
        # that does is refused, not checked
        p, tr = reduce_source(CLS + "mut D y = new D(0);\ny")
        (y,) = tr.final.decls
        bad = doctored(tr, Block((y, y), tr.final.body))
        with pytest.raises(ValueError, match="declaration of y twice"):
            verify_trace(p.table, bad)

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
            doctored = ReductionTrace(trace.initial, steps, True)
            assert_same_as_oracle(p.table, doctored)
            flagged += bool(oracle_verify(p.table, doctored))
        assert flagged >= 20


def recording(env, asked):
    """env.get, adding each name it is asked for to asked."""
    def lookup(x):
        asked.add(x)
        return env.get(x)
    return lookup


def assert_snapshots_agree(trace) -> tuple:
    """`metatheory._snapshot` against the marker reference on every evaluated
    imm declaration of every term: the reference's key where it has no open
    marker, None where it has one, and its lookup asked for the same names;
    the numbers of settled and unsettled keys."""
    counts = [0, 0]
    for _, _, d, env in _oracle_stored(trace):
        if not _is(d, Qualifier.IMM):
            continue
        want_asked, got_asked = set(), set()
        want = _oracle_snapshot(d.init, recording(env, want_asked), ())
        got = metatheory._snapshot(d.init, recording(env, got_asked), ())
        assert got_asked == want_asked
        assert got == (None if _oracle_has_open(want) else want)
        counts[got is None] += 1
    return tuple(counts)


class TestSnapshot:
    def test_corpus_doctored_and_sweep(self):
        sources = [path.read_text() for path in sorted((CORPUS / "accept").glob("*.caps"))]
        sources += [
            gen_source(GenConfig(seed=seed, size=size, reject_rate=0.0))
            for size, seeds in ((8, 200), (16, 200), (32, 20))
            for seed in range(seeds)
        ]
        traces = [reduce_source(src)[1] for src in sources]
        traces += [trace for _, trace in doctored_traces()]
        counts = [assert_snapshots_agree(trace) for trace in traces]
        # both outcomes are compared
        assert all(map(sum, zip(*counts)))


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
        # searches run per trace term (calls of Checker._check, memo hits
        # excluded) over seeds 0..19: 4.26 at N = 8 and 4.63 at N = 32, as
        # the root state keeps the judgments of the root block's premises,
        # its body's included, from one reduct to the next
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
        assert per_term[8] <= 4.6, per_term

    def test_move_reducts_check_what_moved(self, monkeypatch):
        # searches per reduct of the move rules over seeds 0..62 at N = 16:
        # the moved value's right-values are the objects they were, so
        # their premises keep their judgments: 6.40 searches per mut-move
        # and 16.7 per imm-move reduct
        calls = 0
        search = Checker._check

        def counted(self, ctx, e, goal):
            nonlocal calls
            calls += 1
            return search(self, ctx, e, goal)

        monkeypatch.setattr(Checker, "_check", counted)
        per_rule: dict = {"mut-move": [], "imm-move": []}
        for seed in range(63):
            p, trace = reduce_source(
                gen_source(GenConfig(seed=seed, size=16, reject_rate=0.0))
            )
            checker, empty = Checker(p.table), TypeContext.make({})
            root = RootState(empty, RootScope())
            advance(root, trace.initial)
            goal = checker.query(empty, trace.initial, None, root).result
            for rule, term in trace.steps:
                advance(root, term)
                calls = 0  # a new query, as in verify_trace
                checker.query(empty, term, goal, root)
                per_rule.get(rule, []).append(calls)
        mean = {r: sum(xs) / len(xs) for r, xs in per_rule.items()}
        assert min(map(len, per_rule.values())) >= 40, per_rule
        assert mean["mut-move"] < 7.0 and mean["imm-move"] < 18.5, mean


class TestVerifyCost:
    def test_work_per_term_does_not_grow_with_size(self, monkeypatch):
        # searches (subject reduction) plus declarations handed to the
        # store checks, per trace term, over seeds 0..9: 5.54 at N = 16
        # and 6.52 at N = 128, where both spend only on the root diff
        work = 0
        search, canonical = Checker._check, _StoreChecks.canonical_forms

        def counted(self, ctx, e, goal):
            nonlocal work
            work += 1
            return search(self, ctx, e, goal)

        def handed(self, step, term, d, env, out):
            nonlocal work
            work += 1
            return canonical(self, step, term, d, env, out)

        monkeypatch.setattr(Checker, "_check", counted)
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
        assert per_term[16] <= 6.0, per_term

    def test_one_root_diff_per_term(self, monkeypatch):
        # one walk compares each term's root block with the last one's once,
        # for subject reduction and the store checks alike (twice per term
        # when each walked the trace with a scope of its own)
        calls = 0
        advance = RootScope.advance

        def counted(self, decls):
            nonlocal calls
            calls += 1
            return advance(self, decls)

        monkeypatch.setattr(RootScope, "advance", counted)
        for size in (16, 128):
            for seed in range(10):
                p, trace = reduce_source(
                    gen_source(GenConfig(seed=seed, size=size, reject_rate=0.0))
                )
                calls = 0
                assert verify_trace(p.table, trace) == []
                assert calls == len(trace.steps) + 1, (size, seed, calls)


# ---------------------------------------------------------------------------
# Leaf premises judged without a memo probe
# ---------------------------------------------------------------------------


class ProbingChecker(Checker):
    """Reference checker: `Checker.check` without the leaf shortcut, so
    every variable and literal goes through the memo."""

    def check(self, ctx, e, goal):
        self._tick()
        key = (id(e), ctx, goal)
        memo = self.memo
        hit = memo.get(key)
        if hit is not None:
            if hit.__class__ is Judgment:
                return hit
            if hit is _IN_PROGRESS:
                raise IllTyped("cyclic search", _span(e))
            raise hit.error()
        memo[key] = _IN_PROGRESS
        try:
            j = self._check(ctx, e, goal)
        except IllTyped as err:
            memo[key] = _Failure(err)
            raise
        except BaseException:
            del memo[key]
            raise
        memo[key] = j
        return j


def queries(checker, trace):
    """Every term of the trace asked of one checker, as
    check_subject_reduction asks them: per query, the judgment or the
    error's kind, message and span, and the ticks spent."""
    empty = TypeContext.make({})
    root = RootState(empty, RootScope())
    goal = None
    out = []
    for step, term in enumerate([trace.initial] + [t for _, t in trace.steps]):
        advance(root, term)
        try:
            j = checker.query(empty, term, goal, root)
        except TypeCheckError as err:
            out.append(((err.kind, str(err), err.span), checker.ticks))
            if step == 0:
                break
            continue
        out.append((j, checker.ticks))
        if step == 0:
            goal = j.result
    return out


def agrees(j, ref):
    """j derives what ref derives: the same term, result, rule and note at
    every node."""
    if (j.expr is not ref.expr or j.result is not ref.result or j.rule != ref.rule
            or j.note != ref.note):
        return False
    return len(j.premises) == len(ref.premises) and all(
        map(agrees, j.premises, ref.premises)
    )


def assert_leaf_path_agrees(table, trace) -> int:
    """Checker and ProbingChecker answer every query of the trace alike,
    with the same ticks, and verify_trace reports the same with either;
    returns how many fewer memo entries the Checker's last query made."""
    checker, ref = Checker(table), ProbingChecker(table)
    got, want = queries(checker, trace), queries(ref, trace)
    assert len(got) == len(want)
    for step, ((j, ticks), (r, ref_ticks)) in enumerate(zip(got, want)):
        assert ticks == ref_ticks, step
        if isinstance(r, Judgment):
            assert isinstance(j, Judgment) and agrees(j, r), step
        else:
            assert j == r, step
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metatheory, "Checker", ProbingChecker)
        expected = verify_trace(table, trace)
    assert verify_trace(table, trace) == expected
    return len(ref.memo) - len(checker.memo)


class TestLeafPremises:
    """In every query, a variable or literal whose structural rule meets
    its goal is judged at once, with no memo probe; every query must end as
    with the probing reference."""

    @pytest.mark.parametrize(
        "size, seeds, reject_rate",
        [(8, 200, 0.0), (8, 200, 0.3), (16, 200, 0.0), (16, 200, 0.3), (64, 20, 0.0)],
    )
    def test_generated(self, size, seeds, reject_rate):
        saved = 0
        for seed in range(seeds):
            src = gen_source(GenConfig(seed=seed, size=size, reject_rate=reject_rate))
            try:
                p, trace = reduce_source(src)
            except ReductionError:
                continue  # an ill-typed program that gets stuck
            saved += assert_leaf_path_agrees(p.table, trace)
        assert saved > 0

    def test_doctored(self):
        for table, trace in doctored_traces():
            assert_leaf_path_agrees(table, trace)


# ---------------------------------------------------------------------------
# Whole derivations across queries
# ---------------------------------------------------------------------------


def count_fresh_mismatches(table, trace):
    """(later queries, those whose derivation, and so whose rule_path(),
    differs from the one a fresh Checker builds for the same term and
    goal) over the queries of one checker, as check_subject_reduction asks
    them.  The first query's derivation must be the fresh one too."""
    empty = TypeContext.make({})
    answers = queries(Checker(table), trace)
    terms = [trace.initial] + [t for _, t in trace.steps]
    if not isinstance(answers[0][0], Judgment):
        return 0, 0
    goal, later, differ = answers[0][0].result, 0, 0
    assert agrees(answers[0][0], Checker(table).infer(empty, trace.initial))
    for term, (j, _) in zip(terms[1:], answers[1:]):
        if not isinstance(j, Judgment):
            continue
        later += 1
        fresh = Checker(table).check(empty, term, goal)
        differ += not agrees(j, fresh)
    return later, differ


class TestWholeDerivations:
    """A success that the root state keeps is the judgment an earlier query
    built, premises included: every query's derivation (term, result, rule
    and note at every node) is the one a fresh Checker builds for its term
    and goal.  A note names only names its term mentions
    (`TestContextFreeNotes`), so it is the same in every context of one
    projection."""

    def test_corpus(self):
        later = 0
        for path in sorted((CORPUS / "accept").glob("*.caps")):
            p, trace = reduce_source(path.read_text())
            n, differ = count_fresh_mismatches(p.table, trace)
            assert differ == 0, path.name
            later += n
        assert later > 0

    @pytest.mark.parametrize("size, seeds", [(8, 150), (16, 100), (64, 10)])
    def test_generated(self, size, seeds):
        later = 0
        for seed in range(seeds):
            p, trace = reduce_source(
                gen_source(GenConfig(seed=seed, size=size, reject_rate=0.0))
            )
            n, differ = count_fresh_mismatches(p.table, trace)
            assert differ == 0, seed
            later += n
        assert later > 1000

    def test_doctored(self):
        for table, trace in doctored_traces():
            assert count_fresh_mismatches(table, trace)[1] == 0

    def test_body_judgment_is_kept_for_its_goal_only(self):
        # subject reduction asks every reduct against one goal, the type of
        # the initial term, whose body was checked against None and judged
        # at that type; a query against another goal checks the body again
        table = reduce_source(CLS + "1")[0].table
        first = parse_expr("{mut D u = new D(0); new D(1)}")
        empty = TypeContext.make({})
        root, checker = RootState(empty, RootScope()), Checker(table)
        imm_d = RefType(Qualifier.IMM, "D")
        for term, goal in ((first, None), (Block(first.decls, first.body), imm_d)):
            advance(root, term)
            j = checker.query(empty, term, goal, root)
            assert agrees(j, Checker(table).check(empty, term, goal))


def note_names(note) -> set:
    """The names a note lists, in whatever nesting of tuples."""
    out = set()
    stack = list(note[1:])
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.add(x)
        else:
            stack.extend(x)
    return out


def judgments_of(j):
    stack = [j]
    while stack:
        j = stack.pop()
        yield j
        stack.extend(j.premises)


def assert_notes_context_free(p, trace) -> int:
    """Every note of every judgment of typecheck_program and of the
    subject-reduction queries of the trace names only names its term
    mentions; returns how many notes there were."""
    roots = list(typecheck_program(p).values())
    roots += [j for j, _ in queries(Checker(p.table), trace) if isinstance(j, Judgment)]
    notes = 0
    for j in (j for root in roots for j in judgments_of(root)):
        if j.rule in ("t-capsule", "t-imm"):
            assert j.note == (), j.rule
        if j.note:
            notes += 1
            assert note_names(j.note) <= mentions(j.expr), j.note
    return notes


class TestContextFreeNotes:
    """A judgment is a function of its term, the projection of its context
    and its goal: a promotion (or a consumption) has no note, a swap's
    note lists the swapped group's members the term mentions, and a
    block's note each group of its body context cut to the names the
    block mentions.  A certifier recomputes the promotions' premise
    contexts from the conclusion's."""

    def test_corpus(self):
        notes = 0
        for path in sorted((CORPUS / "accept").glob("*.caps")):
            notes += assert_notes_context_free(*reduce_source(path.read_text()))
        assert notes > 0

    @pytest.mark.parametrize("size, seeds", [(8, 100), (16, 50), (64, 5)])
    def test_generated(self, size, seeds):
        notes = 0
        for seed in range(seeds):
            notes += assert_notes_context_free(
                *reduce_source(
                    gen_source(GenConfig(seed=seed, size=size, reject_rate=0.0))
                )
            )
        assert notes > 0
