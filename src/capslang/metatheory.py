"""Executable metatheory: checkers that validate reduction traces against the
properties the calculus is supposed to enjoy.

* subject reduction: every term in a trace still typechecks at the type of
  the initial term;
* progress: reduction never gets stuck (it either steps or has reached a
  value whose store is well-formed);
* canonical forms: the shape of every stored right-value agrees with the
  declared type of its binder;
* capsule encapsulation: when a capsule binder's initializer has become a
  right-value, it is closed except for immutable references;
* immutability: once an imm binder holds a right-value, that right-value
  never changes (up to renaming/reordering) and is closed except for
  immutable references.

Violations serialize to JSON lines for machine consumption.

The checks are incremental along a trace; each reduct shares most of its
subterms and store declarations with the term before it.  The store is the
root block, and a step rewrites a few of its declarations.  `verify_trace`
walks the trace once (`_walk`): it compares each term's root block with the
last one's once, by Decl identity (`context.RootScope`: which declarations
are new or gone, which names now find another declaration), and gives the
term with that diff to each check that reads every term, which spends only
on the diff.  Progress reads only the final term (`check_progress`), so it
takes no part in the walk.

* Subject reduction asks each term of one `Checker` as a query with a
  memo of its own.  What carries over from one term to the next is its
  root state (`context.RootState`), moved on by every diff: a root
  premise, the body included, whose Decl (the body: node and goal) and
  projected context are the last ones keeps its judgment with no search
  (see the `typecheck` module).
* Canonical forms, capsule encapsulation and immutability are checked
  together (`_StoreChecks`).  A root declaration is handed to them,
  with the declarations nested in its initializer, only when it is new,
  when a name its checks looked up finds another declaration now, or when
  it reported a violation at the previous step; a handed declaration is
  checked afresh, so the diff is all they remember of the last term.  A
  term that is not a block is a root block with no declarations.

Each `check_*` function but `check_progress` is that walk with its one
check; `verify_trace` is the walk with all four, and then progress.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass
from typing import Optional

from .congruence import all_mut, is_stored, wf_rightvalue
from .parser import pretty_print
from .reducer import ReductionTrace
from .syntax import (
    Block,
    ClassTable,
    Decl,
    Expr,
    IntLit,
    IntType,
    New,
    Qualifier,
    RefType,
    Type,
    Var,
    children,
    free_vars,
    is_evaluated,
    is_objstate,
    is_value,
    node_cached,
)
from .context import RootScope, RootState
from .typecheck import Checker, SearchExhausted, TypeCheckError, TypeContext


@dataclass
class MetaViolation:
    theorem: str  # "subject-reduction"|"progress"|"canonical-forms"|"capsule"|"immutable"
    step: int  # 0 = initial term
    binder: Optional[str]
    message: str
    term: str  # pretty-printed offending term

    @classmethod
    def at(cls, theorem: str, step: int, binder, message: str, term: Expr):
        return cls(theorem, step, binder, message, pretty_print(term))

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _decl_type(lookup, x: str) -> Optional[Type]:
    d = lookup(x)
    return d.dtype if d is not None else None


def _snapshot(rv: Expr, lookup, stack: tuple):
    """The object graph reachable from rv, resolved through the store:
    invariant under renaming, reordering, alias elimination and store
    movement.  Cycles are cut with back-references by unfolding depth.
    None while a reference in the graph is unresolved or not yet evaluated;
    all parts are built first, so lookup is asked for every name reached."""
    if isinstance(rv, IntLit):
        return ("int", rv.value)
    if isinstance(rv, Var):
        x = rv.name
        if x in stack:
            return ("back", len(stack) - 1 - stack.index(x))
        d = lookup(x)
        if d is None or not is_evaluated(d):
            return None
        return _snapshot(d.init, lookup, stack + (x,))
    if isinstance(rv, Block):
        local = {d.name: d for d in rv.decls}
        return _snapshot(rv.body, _chain(local, lookup), stack)
    if isinstance(rv, New):
        parts = tuple(_snapshot(a, lookup, stack) for a in rv.args)
        return None if None in parts else ("new", rv.cname) + parts
    return ("opaque", pretty_print(rv))


@node_cached
def _has_block(e: Expr) -> bool:
    return isinstance(e, Block) or any(map(_has_block, children(e)))


def _chain(local: dict, lookup):
    """A lookup that tries local first."""
    return lambda x: local[x] if x in local else lookup(x)


# ---------------------------------------------------------------------------
# Subject reduction
# ---------------------------------------------------------------------------


def check_subject_reduction(
    table: ClassTable, trace: ReductionTrace, budget: Optional[int] = None
) -> list:
    """Every term of the trace must typecheck at the type of the initial
    term (see `_SubjectReduction`)."""
    return _walk(trace, _SubjectReduction(table, budget))


class _SubjectReduction:
    """Subject reduction, one term at a time: each term is a query of its
    own, with the whole budget and an empty memo, of one Checker for the
    whole trace.  The root state (`context.RootState`) is built on the
    walk's scope and moved on by each diff, and every query gets it, the
    initial term's (whose goal is None) included: it keeps the judgments
    of the root block's premises, the body's included, from one term to
    the next.  A SearchExhausted outcome is reported distinctly
    (inconclusive, not a counterexample); after a failed initial term
    nothing more is checked."""

    def __init__(self, table: ClassTable, budget: Optional[int]):
        self.checker = Checker(table, budget)
        self.ctx = TypeContext.make({})
        self.root = self.goal = None
        self.outs = ([],)

    def __call__(self, step: int, term: Expr, scope: RootScope, diff) -> None:
        if step == 0:
            self.root = RootState(self.ctx, scope)
        elif self.goal is None:
            return  # the initial term did not typecheck
        self.root.advance(term, *diff)
        try:
            result = self.checker.query(self.ctx, term, self.goal, self.root).result
        except TypeCheckError as e:
            if isinstance(e, SearchExhausted):
                what = "inconclusive"
            elif step == 0:
                what = "initial term does not typecheck"
            else:
                what = f"reduct no longer typechecks at {self.goal}"
            self.outs[0].append(
                MetaViolation.at("subject-reduction", step, None, f"{what}: {e}", term)
            )
        else:
            if step == 0:
                self.goal = result


# ---------------------------------------------------------------------------
# Progress
# ---------------------------------------------------------------------------


def check_progress(table: ClassTable, trace: ReductionTrace) -> list:
    """A completed trace proves progress by construction; this validates its
    final term: it must be a value whose declarations are all well-formed
    store.  (A StuckTerm raised during reduction is reported by the caller.)"""
    if not trace.done:
        return []
    step, term, out = len(trace.steps), trace.final, []
    if isinstance(term, Block):
        for d in term.decls:
            if not is_stored(d):
                out.append(MetaViolation.at(
                    "progress", step, d.name,
                    "terminal store declaration is not well-formed", term,
                ))
        if not is_value(term.body):
            out.append(MetaViolation.at(
                "progress", step, None, "terminal block body is not a value", term
            ))
    elif not is_value(term):
        out.append(MetaViolation.at(
            "progress", step, None, "terminal term is not a value", term
        ))
    return out


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------


def _rv_class(rv: Expr, lookup) -> Optional[str]:
    if is_objstate(rv):
        return rv.cname
    if isinstance(rv, Block):
        if is_objstate(rv.body):
            return rv.body.cname
        if isinstance(rv.body, Var):
            for d in rv.decls:
                if d.name == rv.body.name:
                    t = d.dtype
                    return t.cname if isinstance(t, RefType) else None
            t = _decl_type(lookup, rv.body.name)
            return t.cname if isinstance(t, RefType) else None
    return None


def check_canonical_forms(table: ClassTable, trace: ReductionTrace) -> list:
    """The canonical-forms violations of the trace: `verify_trace` runs this
    check in one walk with the other four, and the traced run of
    `perfbench/pipeline.py` runs each of the five checks on its own to time
    it."""
    return _walk(trace, _StoreChecks(table, "canonical_forms"))


def _shape_errors(table: ClassTable, d: Decl, lookup) -> tuple:
    """The messages of the canonical-forms clauses the evaluated d breaks,
    with lookup resolving the names in scope at d."""
    out: list = []
    if isinstance(d.dtype, IntType):
        # clause: evaluated int declarations hold literals (and are transient)
        if not isinstance(d.init, IntLit):
            out.append("evaluated int declaration does not hold a literal")
        return tuple(out)
    q = d.dtype.qualifier
    # clause: the right-value's class agrees with the declared class
    cname = _rv_class(d.init, lookup)
    if cname is not None and cname != d.dtype.cname:
        out.append(
            f"right-value has class {cname} but the declaration says "
            f"{d.dtype.cname}"
        )
    if not is_stored(d):
        # transient state (capsule awaiting consumption, a block right-value
        # awaiting a move, an alias awaiting elimination): shape clauses do
        # not apply yet, but the right-value must still be well-formed
        if not (wf_rightvalue(d.init) or isinstance(d.init, Var)):
            out.append("evaluated declaration holds a malformed right-value")
        return tuple(out)
    # clause: mut/lent/read binders hold object states
    if q in (Qualifier.MUT, Qualifier.LENT, Qualifier.READ):
        if not is_objstate(d.init):
            out.append(f"{q} declaration does not hold an object state")
    # clause: imm binders hold object states or all-mut local stores
    if q is Qualifier.IMM and isinstance(d.init, Block):
        if not all_mut(d.init.decls):
            out.append("imm declaration holds a block with non-mut locals")
    # clause: constructor arguments agree with the field types
    local = lookup
    if isinstance(d.init, Block):
        local = _chain({dd.name: dd for dd in d.init.decls}, lookup)
    for rv in _objstates_of(d.init):
        fields = table.fields(rv.cname) if rv.cname in table else None
        if fields is None or len(fields) != len(rv.args):
            out.append(f"object state new {rv.cname}(...) has wrong arity")
            continue
        for (ft, fn), a in zip(fields, rv.args):
            if isinstance(ft, IntType):
                if isinstance(a, IntLit):
                    continue
                t = _decl_type(local, a.name)
                if t is not None and not isinstance(t, IntType):
                    out.append(f"field {fn} holds a non-int value")
            else:
                if isinstance(a, IntLit):
                    out.append(f"field {fn} holds an int literal")
                    continue
                t = _decl_type(local, a.name)
                if isinstance(t, RefType) and t.cname != ft.cname:
                    out.append(
                        f"field {fn} points at class {t.cname}, "
                        f"declared {ft.cname}"
                    )
    return tuple(out)


def _objstates_of(rv: Expr):
    if is_objstate(rv):
        yield rv
    elif isinstance(rv, Block):
        if is_objstate(rv.body):
            yield rv.body
        for d in rv.decls:
            yield from _objstates_of(d.init)


# ---------------------------------------------------------------------------
# Capsule encapsulation and immutability
# ---------------------------------------------------------------------------


def _imm_closed(d: Decl, lookup) -> Optional[str]:
    """None when every free variable of d's right-value is declared imm (or
    is an int reference awaiting substitution); otherwise an offending
    variable name."""
    for x in sorted(free_vars(d.init)):
        t = _decl_type(lookup, x)
        if isinstance(t, IntType):
            continue
        if not (isinstance(t, RefType) and t.qualifier is Qualifier.IMM):
            return x
    return None


def check_capsule_theorem(table: ClassTable, trace: ReductionTrace) -> list:
    """When a capsule binder's initializer has become a right-value (the step
    just before it is consumed), it must be closed except for imm references.
    Run on its own by the traced run of `perfbench/pipeline.py`, as
    `check_canonical_forms` is."""
    return _walk(trace, _StoreChecks(table, "capsule"))


def check_immutable_theorem(table: ClassTable, trace: ReductionTrace) -> list:
    """Once an imm binder holds a settled right-value, the object graph
    reachable from it never changes for the rest of the trace, and the
    right-value is closed except for imm references.  Run on its own by the
    traced run of `perfbench/pipeline.py`, as `check_canonical_forms` is."""
    return _walk(trace, _StoreChecks(table, "immutable"))


class _StoreChecks:
    """Canonical forms, capsule encapsulation and immutability (the checks
    named), declaration by declaration, one term at a time.

    Facts of a declaration alone (is it evaluated, is it well-formed store,
    does its initializer hold a block, is a right-value an object state) are
    kept on the node (`syntax.node_cached`);
    what the checks compute of a declaration in its scope is computed
    afresh each time it is handed.  The only memory across terms is the
    root diff: the reducer shares unchanged declarations between
    consecutive terms, so the checks get only the root declarations the
    diff of two terms touches, and the first settled snapshot of each imm
    binder.

    A declaration of a root block is handed to the checks together with
    the evaluated declarations nested in its initializer (they are walked
    as `_stored_decls` walks them), and all of them read only the
    declaration's object and the names they look up.  So from one root
    block to the next the checks get only the root declarations that are
    new, those with a looked-up name that finds another declaration now,
    and those that reported a violation at the previous step, which are
    reported again at every step; every other one would report nothing
    again.  A term that is not a block is a root block with no declarations
    whose body is the term.
    """

    def __init__(self, table: ClassTable, *names: str):
        self._shape_errors = functools.partial(_shape_errors, table)
        self._first_seen: dict = {}  # imm binder -> (step, snapshot)
        self.checks = tuple(getattr(self, n) for n in names)
        self.outs = tuple([] for _ in names)
        # name -> ids of the root declarations whose checks looked it up
        # (and perhaps of some that no longer do, or are gone)
        self._readers: dict = {}
        self._reported: set = set()  # ids of the root declarations that reported

    def __call__(self, step: int, term: Expr, scope: RootScope, diff) -> None:
        readers, env = self._readers, scope.env
        new, _, changed = diff
        todo = set(map(id, new)) | self._reported
        for x in changed:
            todo.update(readers.get(x, ()))
        self._reported = set()
        for d in scope.held(todo):
            stored = []
            if is_stored(d) or is_evaluated(d):
                stored.append((d, env))
            if _has_block(d.init):
                self._stored_decls(d.init, env, stored)
            read: set = set()
            if self._hand(step, term, stored, read):
                self._reported.add(id(d))
            for x in read:
                readers.setdefault(x, set()).add(id(d))
        body = term.body if isinstance(term, Block) else term
        if _has_block(body):
            stored = []
            self._stored_decls(body, env, stored)
            self._hand(step, term, stored, set())

    def _hand(self, step, term, stored: list, read: set) -> bool:
        """Give each (declaration, scope) of stored to each check, with a
        lookup that adds the names it is asked for to read; whether one
        reported a violation."""
        before = sum(map(len, self.outs))
        for d, env in stored:
            def lookup(x, env=env):
                read.add(x)
                return env.get(x)

            for check, out in zip(self.checks, self.outs):
                check(step, term, d, lookup, out)
        return sum(map(len, self.outs)) != before

    def _stored_decls(self, e: Expr, env: dict, out: list) -> None:
        """All evaluated declarations in e, each paired with the
        declarations in scope at its position (name -> Decl, innermost
        bindings win), in preorder; initializers holding no block are not
        entered."""
        if isinstance(e, Block):
            env2 = dict(env)
            for d in e.decls:
                env2[d.name] = d
            for d in e.decls:
                # most are stored, and so evaluated: their fact is kept
                if is_stored(d) or is_evaluated(d):
                    out.append((d, env2))
                if _has_block(d.init):
                    self._stored_decls(d.init, env2, out)
            self._stored_decls(e.body, env2, out)
            return
        for c in children(e):
            self._stored_decls(c, env, out)

    def canonical_forms(self, step, term, d, lookup, out) -> None:
        for msg in self._shape_errors(d, lookup):
            out.append(MetaViolation.at("canonical-forms", step, d.name, msg, term))

    def capsule(self, step, term, d, lookup, out) -> None:
        if not (
            isinstance(d.dtype, RefType) and d.dtype.qualifier is Qualifier.CAPSULE
        ):
            return
        if isinstance(d.init, Var):
            return  # alias, eliminated before the capsule is consumed
        offender = _imm_closed(d, lookup)
        if offender is not None:
            out.append(MetaViolation.at(
                "capsule", step, d.name,
                f"capsule right-value refers to non-imm {offender}", term,
            ))

    def immutable(self, step, term, d, lookup, out) -> None:
        if not (isinstance(d.dtype, RefType) and d.dtype.qualifier is Qualifier.IMM):
            return
        if not is_stored(d):
            return  # not settled yet (alias/move still pending)
        offender = _imm_closed(d, lookup)
        if offender is not None:
            out.append(MetaViolation.at(
                "immutable", step, d.name,
                f"imm right-value refers to non-imm {offender}", term,
            ))
        key = _snapshot(d.init, lookup, ())
        if key is None:
            # the graph is not settled yet: compare only from the first
            # settled step
            return
        prev = self._first_seen.get(d.name)
        if prev is None:
            self._first_seen[d.name] = (step, key)
        elif prev[1] != key:
            out.append(MetaViolation.at(
                "immutable", step, d.name,
                f"imm reachable state changed since step {prev[0]}", term,
            ))


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def _walk(trace: ReductionTrace, *parts) -> list:
    """One walk of the trace: the root block of each term is compared with
    the last one once (`RootScope.advance`), and each part (subject
    reduction, the store checks) is called with the step, the term, the
    scope and the diff in turn.  A part's `outs` holds a list of violations
    per check it runs; returns them all, check by check, in the order of
    the parts."""
    scope = RootScope()
    for step, term in enumerate(trace.terms):
        diff = scope.advance(term.decls if isinstance(term, Block) else ())
        for part in parts:
            part(step, term, scope, diff)
    return [v for part in parts for out in part.outs for v in out]


def verify_trace(
    table: ClassTable, trace: ReductionTrace, budget: Optional[int] = None
) -> list:
    """The violations of the five checks: subject reduction, progress,
    canonical forms, capsule, immutability.  Progress reads only the final
    term; the other four share one walk of the trace."""
    subject = _SubjectReduction(table, budget)
    store = _StoreChecks(table, "canonical_forms", "capsule", "immutable")
    _walk(trace, subject, store)
    progress = check_progress(table, trace)
    return subject.outs[0] + progress + [v for out in store.outs for v in out]
