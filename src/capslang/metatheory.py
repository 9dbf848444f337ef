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
root block, and a step rewrites a few of its declarations: both halves of
`verify_trace` compare each reduct's root block with the last one by Decl
identity (`context.RootScope`: which declarations are new or gone, which
names now find another declaration) and spend only on that diff.

* Subject reduction uses one `Checker` for the whole trace, so a reduct's
  subterms find the verdicts earlier terms computed, and a root premise
  whose Decl and projected context are the last ones keeps its judgment
  with no projection and no memo probe (see the `typecheck` module).
* Canonical forms, capsule encapsulation and immutability share one walk
  of each term (`_StoreChecks`).  A root declaration is handed to them,
  with the declarations nested in its initializer, only when it is new,
  when a name its checks looked up finds another declaration now, or when
  it reported a violation at the previous step; what they compute of one
  declaration is kept per Decl object with the declarations it looked up.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
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
from .context import RootScope
from .typecheck import (
    Checker,
    IllTyped,
    SearchExhausted,
    TypeContext,
)


@dataclass
class MetaViolation:
    theorem: str  # "subject-reduction"|"progress"|"canonical-forms"|"capsule"|"immutable"
    step: int  # 0 = initial term
    binder: Optional[str]
    message: str
    term: str  # pretty-printed offending term

    def to_json(self) -> str:
        return json.dumps(
            {
                "theorem": self.theorem,
                "step": self.step,
                "binder": self.binder,
                "message": self.message,
                "term": self.term,
            }
        )


def _trace_terms(trace: ReductionTrace):
    """(step number, term) for the initial term and every reduct."""
    yield 0, trace.initial
    for i, (_, term) in enumerate(trace.steps):
        yield i + 1, term


def _decl_type(lookup, x: str) -> Optional[Type]:
    d = lookup(x)
    return d.dtype if d is not None else None


def _snapshot(rv: Expr, lookup, stack: tuple):
    """The object graph reachable from rv, resolved through the store:
    invariant under renaming, reordering, alias elimination and store
    movement.  Cycles are cut with back-references by unfolding depth."""
    if isinstance(rv, IntLit):
        return ("int", rv.value)
    if isinstance(rv, Var):
        x = rv.name
        if x in stack:
            return ("back", len(stack) - 1 - stack.index(x))
        d = lookup(x)
        if d is None or not is_evaluated(d):
            return ("open", len(stack))  # unresolved reference
        return _snapshot(d.init, lookup, stack + (x,))
    if isinstance(rv, Block):
        local = {d.name: d for d in rv.decls}
        return _snapshot(rv.body, _chain(local, lookup), stack)
    if isinstance(rv, New):
        return ("new", rv.cname) + tuple(_snapshot(a, lookup, stack) for a in rv.args)
    return ("opaque", pretty_print(rv))


@node_cached
def _has_block(e: Expr) -> bool:
    return isinstance(e, Block) or any(map(_has_block, children(e)))


def _chain(local: dict, lookup):
    """A lookup that tries local first."""
    return lambda x: local[x] if x in local else lookup(x)


def _has_open(key) -> bool:
    if isinstance(key, tuple):
        if key and key[0] == "open":
            return True
        return any(_has_open(k) for k in key)
    return False


# ---------------------------------------------------------------------------
# Subject reduction
# ---------------------------------------------------------------------------


def check_subject_reduction(
    table: ClassTable, trace: ReductionTrace, budget: Optional[int] = None
) -> list:
    """Re-typecheck every term of the trace against the type of the initial
    term, with one Checker for the whole trace: each reduct is a query of
    its own, with the whole budget.  The trace keeps every term alive, as
    the Checker's id-keyed memo needs.  A SearchExhausted outcome is
    reported distinctly (inconclusive, not a counterexample)."""
    out: list = []
    checker = Checker(table, budget)
    empty = TypeContext.make({})
    try:
        j0 = checker.infer(empty, trace.initial)
    except SearchExhausted as e:
        return [
            MetaViolation(
                "subject-reduction", 0, None,
                f"inconclusive: {e}", pretty_print(trace.initial),
            )
        ]
    except IllTyped as e:
        return [
            MetaViolation(
                "subject-reduction", 0, None,
                f"initial term does not typecheck: {e}",
                pretty_print(trace.initial),
            )
        ]
    goal = j0.result
    for step, term in _trace_terms(trace):
        if step == 0:
            continue
        checker.ticks = 0  # a new query, with the whole budget
        try:
            checker.check(empty, term, goal)
        except IllTyped as e:
            out.append(
                MetaViolation(
                    "subject-reduction", step, None,
                    f"reduct no longer typechecks at {goal}: {e}",
                    pretty_print(term),
                )
            )
        except SearchExhausted as e:
            out.append(
                MetaViolation(
                    "subject-reduction", step, None,
                    f"inconclusive: {e}", pretty_print(term),
                )
            )
    return out


# ---------------------------------------------------------------------------
# Progress
# ---------------------------------------------------------------------------


def check_progress(table: ClassTable, trace: ReductionTrace) -> list:
    """A completed trace proves progress by construction; this validates the
    terminal term: it must be a value whose declarations are all well-formed
    store.  (A StuckTerm raised during reduction is reported by the caller.)"""
    out: list = []
    if not trace.done:
        return out
    term = trace.final
    step = len(trace.steps)
    if isinstance(term, Block):
        for d in term.decls:
            if not is_stored(d):
                out.append(
                    MetaViolation(
                        "progress", step, d.name,
                        "terminal store declaration is not well-formed",
                        pretty_print(term),
                    )
                )
        if not is_value(term.body):
            out.append(
                MetaViolation(
                    "progress", step, None,
                    "terminal block body is not a value", pretty_print(term),
                )
            )
    elif not is_value(term):
        out.append(
            MetaViolation(
                "progress", step, None,
                "terminal term is not a value", pretty_print(term),
            )
        )
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
    check in one walk with the other two store checks, and the traced run
    of `perfbench/pipeline.py` runs each of the five checks on its own to
    time it."""
    checks = _StoreChecks(table)
    return checks.run(trace, checks.canonical_forms)[0]


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


def _settled_snapshot(d: Decl, lookup):
    """The snapshot of d's reachable graph, or None while some referenced
    declaration is still being evaluated (for instance an int member
    awaiting substitution)."""
    key = _snapshot(d.init, lookup, ())
    return None if _has_open(key) else key


def check_capsule_theorem(table: ClassTable, trace: ReductionTrace) -> list:
    """When a capsule binder's initializer has become a right-value (the step
    just before it is consumed), it must be closed except for imm references.
    Run on its own by the traced run of `perfbench/pipeline.py`, as
    `check_canonical_forms` is."""
    checks = _StoreChecks(table)
    return checks.run(trace, checks.capsule)[0]


def check_immutable_theorem(table: ClassTable, trace: ReductionTrace) -> list:
    """Once an imm binder holds a settled right-value, the object graph
    reachable from it never changes for the rest of the trace, and the
    right-value is closed except for imm references.  Run on its own by the
    traced run of `perfbench/pipeline.py`, as `check_canonical_forms` is."""
    checks = _StoreChecks(table)
    return checks.run(trace, checks.immutable)[0]


class _StoreChecks:
    """Canonical forms, capsule encapsulation and immutability, checked
    declaration by declaration over one walk of each trace term.

    Facts of a declaration alone (is it well-formed store, does its
    initializer hold a block) are kept on the node (`syntax.node_cached`).
    What these checks compute of one evaluated declaration in its scope
    (the clauses it breaks, `_imm_closed`, its settled snapshot) depends
    only on the Decl object and on the declarations it looks up there.
    Each such result is kept per Decl object together with the
    declarations it looked up, and reused while each of those names still
    finds the same Decl.  The reducer shares unchanged declarations between
    consecutive terms, so `run` hands the checks only the root declarations
    the diff of two terms touches.  An entry holds its Decl, so no id is
    reused while the entry lives.
    """

    def __init__(self, table: ClassTable):
        self._shape_errors = functools.partial(_shape_errors, table)
        self._shapes: dict = {}  # id(d) -> (d, lookups, result), as in _kept
        self._closed: dict = {}
        self._snapshots: dict = {}
        self._first_seen: dict = {}  # imm binder -> (step, snapshot)
        self._read: Optional[set] = None  # see _kept

    def run(self, trace: ReductionTrace, *checks) -> tuple:
        """Give the evaluated declarations of every trace term, in order, to
        each check; the violations of each check.

        A declaration of a root block is handed to the checks together with
        the evaluated declarations nested in its initializer (they are
        walked as `_stored_decls` walks them), and all of them read only
        the declaration's object and the names they look up.  So from one
        root block to the next (`RootScope`) the checks get only the root
        declarations that are new, those with a looked-up name that finds
        another declaration now, and those that reported a violation at the
        previous step, which are reported again at every step; every other
        one would report nothing again.  A term that is not a block is
        walked in full."""
        outs = tuple([] for _ in checks)
        scope = RootScope()
        # name -> ids of the root declarations whose checks looked it up
        # (and perhaps of some that no longer do, or are gone)
        readers: dict = {}
        reported: set = set()  # ids of the root declarations that reported
        for step, term in _trace_terms(trace):
            diff = scope.advance(term.decls) if isinstance(term, Block) else None
            if diff is None:  # no block, or one that holds a Decl twice
                scope = RootScope()
                readers.clear()
                reported.clear()
                stored: list = []
                self._stored_decls(term, {}, stored)
                self._hand(step, term, stored, checks, outs)
                continue
            new, _, changed = diff
            todo = set(map(id, new)) | reported
            for x in changed:
                todo.update(readers.get(x, ()))
            reported = set()
            env, pos = scope.env, scope.pos
            for k in sorted(pos[i] for i in todo if i in pos):
                d = term.decls[k]
                stored = []
                if is_stored(d) or is_evaluated(d):
                    stored.append((d, env))
                if _has_block(d.init):
                    self._stored_decls(d.init, env, stored)
                self._read = set()
                if self._hand(step, term, stored, checks, outs):
                    reported.add(id(d))
                for x in self._read:
                    readers.setdefault(x, set()).add(id(d))
            self._read = None
            if _has_block(term.body):
                stored = []
                self._stored_decls(term.body, env, stored)
                self._hand(step, term, stored, checks, outs)
        return outs

    @staticmethod
    def _hand(step, term, stored: list, checks, outs) -> bool:
        """Give each (declaration, scope) of stored to each check; whether
        one reported a violation."""
        if not stored:
            return False
        before = sum(map(len, outs))
        for d, env in stored:
            for check, out in zip(checks, outs):
                check(step, term, d, env, out)
        return sum(map(len, outs)) != before

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

    def _kept(self, cache: dict, fn, d: Decl, env: dict):
        """fn(d, lookup), reused while every name it looked up finds the
        same declaration in env.  The names it looks up go to `_read` when
        that is a set."""
        read = self._read
        hit = cache.get(id(d))
        if hit is not None:
            for x, dx in hit[1]:
                if env.get(x) is not dx:
                    break
            else:
                if read is not None:
                    read.update(x for x, _ in hit[1])
                return hit[2]
        seen: dict = {}

        def lookup(x):
            dx = seen[x] = env.get(x)
            return dx

        out = fn(d, lookup)
        cache[id(d)] = (d, tuple(seen.items()), out)
        if read is not None:
            read.update(seen)
        return out

    def canonical_forms(self, step, term, d, env, out) -> None:
        for msg in self._kept(self._shapes, self._shape_errors, d, env):
            out.append(
                MetaViolation("canonical-forms", step, d.name, msg, pretty_print(term))
            )

    def capsule(self, step, term, d, env, out) -> None:
        if not (
            isinstance(d.dtype, RefType) and d.dtype.qualifier is Qualifier.CAPSULE
        ):
            return
        if isinstance(d.init, Var):
            return  # alias, eliminated before the capsule is consumed
        offender = self._kept(self._closed, _imm_closed, d, env)
        if offender is not None:
            out.append(
                MetaViolation(
                    "capsule", step, d.name,
                    f"capsule right-value refers to non-imm {offender}",
                    pretty_print(term),
                )
            )

    def immutable(self, step, term, d, env, out) -> None:
        if not (isinstance(d.dtype, RefType) and d.dtype.qualifier is Qualifier.IMM):
            return
        if not is_stored(d):
            return  # not settled yet (alias/move still pending)
        offender = self._kept(self._closed, _imm_closed, d, env)
        if offender is not None:
            out.append(
                MetaViolation(
                    "immutable", step, d.name,
                    f"imm right-value refers to non-imm {offender}",
                    pretty_print(term),
                )
            )
        key = self._kept(self._snapshots, _settled_snapshot, d, env)
        if key is None:
            # the graph is not settled yet: compare only from the first
            # settled step
            return
        prev = self._first_seen.get(d.name)
        if prev is None:
            self._first_seen[d.name] = (step, key)
        elif prev[1] != key:
            out.append(
                MetaViolation(
                    "immutable", step, d.name,
                    f"imm reachable state changed since step {prev[0]}",
                    pretty_print(term),
                )
            )


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def verify_trace(
    table: ClassTable, trace: ReductionTrace, budget: Optional[int] = None
) -> list:
    out = []
    out += check_subject_reduction(table, trace, budget)
    out += check_progress(table, trace)
    checks = _StoreChecks(table)
    for found in checks.run(
        trace, checks.canonical_forms, checks.capsule, checks.immutable
    ):
        out += found
    return out
