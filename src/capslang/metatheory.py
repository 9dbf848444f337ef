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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .congruence import all_mut, wf_rightvalue, wf_store_decl
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
)
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


def _stored_decls(e: Expr, env: dict, out: list) -> None:
    """All evaluated declarations in e, each paired with the declarations in
    scope at its position (name -> Decl, innermost bindings win)."""
    if isinstance(e, Block):
        env2 = dict(env)
        for d in e.decls:
            env2[d.name] = d
        for d in e.decls:
            if is_evaluated(d):
                out.append((d, env2))
            _stored_decls(d.init, env2, out)
        _stored_decls(e.body, env2, out)
        return
    for c in children(e):
        _stored_decls(c, env, out)


def _decl_type(env: dict, x: str) -> Optional[Type]:
    d = env.get(x)
    return d.dtype if d is not None else None


def _snapshot(rv: Expr, env: dict, stack: tuple):
    """The object graph reachable from rv, resolved through the store:
    invariant under renaming, reordering, alias elimination and store
    movement.  Cycles are cut with back-references by unfolding depth."""
    if isinstance(rv, IntLit):
        return ("int", rv.value)
    if isinstance(rv, Var):
        x = rv.name
        if x in stack:
            return ("back", len(stack) - 1 - stack.index(x))
        d = env.get(x)
        if d is None or not is_evaluated(d):
            return ("open", len(stack))  # unresolved reference
        return _snapshot(d.init, env, stack + (x,))
    if isinstance(rv, Block):
        env2 = dict(env)
        for d in rv.decls:
            env2[d.name] = d
        return _snapshot(rv.body, env2, stack)
    if isinstance(rv, New):
        return ("new", rv.cname) + tuple(_snapshot(a, env, stack) for a in rv.args)
    return ("opaque", pretty_print(rv))


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
    term.  A SearchExhausted outcome is reported distinctly (inconclusive,
    not a counterexample)."""
    out: list = []
    checker = Checker(table, budget)
    try:
        j0 = checker.infer(TypeContext.make({}), trace.initial)
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
        checker = Checker(table, budget)
        try:
            checker.check(TypeContext.make({}), term, goal)
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
            if not (is_evaluated(d) and wf_store_decl(d)):
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


def _rv_class(rv: Expr, decls_env: dict) -> Optional[str]:
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
            t = _decl_type(decls_env, rv.body.name)
            return t.cname if isinstance(t, RefType) else None
    return None


def check_canonical_forms(table: ClassTable, trace: ReductionTrace) -> list:
    out: list = []
    for step, term in _trace_terms(trace):
        stored: list = []
        _stored_decls(term, {}, stored)
        for d, env in stored:
            out.extend(_check_decl_shape(table, d, env, step, term))
    return out


def _check_decl_shape(
    table: ClassTable, d: Decl, env: dict, step: int, term: Expr
) -> list:
    def bad(msg):
        return MetaViolation(
            "canonical-forms", step, d.name, msg, pretty_print(term)
        )

    out: list = []
    if isinstance(d.dtype, IntType):
        # clause: evaluated int declarations hold literals (and are transient)
        if not isinstance(d.init, IntLit):
            out.append(bad("evaluated int declaration does not hold a literal"))
        return out
    q = d.dtype.qualifier
    # clause: the right-value's class agrees with the declared class
    cname = _rv_class(d.init, env)
    if cname is not None and cname != d.dtype.cname:
        out.append(
            bad(
                f"right-value has class {cname} but the declaration says "
                f"{d.dtype.cname}"
            )
        )
    if not wf_store_decl(d):
        # transient state (capsule awaiting consumption, a block right-value
        # awaiting a move, an alias awaiting elimination): shape clauses do
        # not apply yet, but the right-value must still be well-formed
        if not (wf_rightvalue(d.init) or isinstance(d.init, Var)):
            out.append(bad("evaluated declaration holds a malformed right-value"))
        return out
    # clause: mut/lent/read binders hold object states
    if q in (Qualifier.MUT, Qualifier.LENT, Qualifier.READ):
        if not is_objstate(d.init):
            out.append(bad(f"{q} declaration does not hold an object state"))
    # clause: imm binders hold object states or all-mut local stores
    if q is Qualifier.IMM and isinstance(d.init, Block):
        if not all_mut(d.init.decls):
            out.append(bad("imm declaration holds a block with non-mut locals"))
    # clause: constructor arguments agree with the field types
    for rv in _objstates_of(d.init):
        fields = table.fields(rv.cname) if rv.cname in table else None
        if fields is None or len(fields) != len(rv.args):
            out.append(bad(f"object state new {rv.cname}(...) has wrong arity"))
            continue
        local_env = dict(env)
        if isinstance(d.init, Block):
            for dd in d.init.decls:
                local_env[dd.name] = dd
        for (ft, fn), a in zip(fields, rv.args):
            if isinstance(ft, IntType):
                if isinstance(a, IntLit):
                    continue
                t = _decl_type(local_env, a.name)
                if t is not None and not isinstance(t, IntType):
                    out.append(bad(f"field {fn} holds a non-int value"))
            else:
                if isinstance(a, IntLit):
                    out.append(bad(f"field {fn} holds an int literal"))
                    continue
                t = _decl_type(local_env, a.name)
                if isinstance(t, RefType) and t.cname != ft.cname:
                    out.append(
                        bad(
                            f"field {fn} points at class {t.cname}, "
                            f"declared {ft.cname}"
                        )
                    )
    return out


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


def _imm_closed(rv: Expr, env: dict) -> Optional[str]:
    """None when every free variable of rv is declared imm (or is an int
    reference awaiting substitution); otherwise an offending variable name."""
    for x in sorted(free_vars(rv)):
        t = _decl_type(env, x)
        if isinstance(t, IntType):
            continue
        if not (isinstance(t, RefType) and t.qualifier is Qualifier.IMM):
            return x
    return None


def check_capsule_theorem(table: ClassTable, trace: ReductionTrace) -> list:
    """When a capsule binder's initializer has become a right-value (the step
    just before it is consumed), it must be closed except for imm references."""
    out: list = []
    for step, term in _trace_terms(trace):
        stored: list = []
        _stored_decls(term, {}, stored)
        for d, env in stored:
            if not (
                isinstance(d.dtype, RefType)
                and d.dtype.qualifier is Qualifier.CAPSULE
            ):
                continue
            if isinstance(d.init, Var):
                continue  # alias, eliminated before the capsule is consumed
            offender = _imm_closed(d.init, env)
            if offender is not None:
                out.append(
                    MetaViolation(
                        "capsule", step, d.name,
                        f"capsule right-value refers to non-imm {offender}",
                        pretty_print(term),
                    )
                )
    return out


def check_immutable_theorem(table: ClassTable, trace: ReductionTrace) -> list:
    """Once an imm binder holds a settled right-value, the object graph
    reachable from it never changes for the rest of the trace, and the
    right-value is closed except for imm references."""
    out: list = []
    first_seen: dict = {}  # binder -> (step, reachable-graph snapshot)
    for step, term in _trace_terms(trace):
        stored: list = []
        _stored_decls(term, {}, stored)
        for d, env in stored:
            if not (
                isinstance(d.dtype, RefType)
                and d.dtype.qualifier is Qualifier.IMM
            ):
                continue
            if not wf_store_decl(d):
                continue  # not settled yet (alias/move still pending)
            offender = _imm_closed(d.init, env)
            if offender is not None:
                out.append(
                    MetaViolation(
                        "immutable", step, d.name,
                        f"imm right-value refers to non-imm {offender}",
                        pretty_print(term),
                    )
                )
            key = _snapshot(d.init, env, ())
            if _has_open(key):
                # some referenced declaration is still being evaluated (for
                # instance an int member awaiting substitution): the graph is
                # not settled yet, compare only from the first settled step
                continue
            prev = first_seen.get(d.name)
            if prev is None:
                first_seen[d.name] = (step, key)
            elif prev[1] != key:
                out.append(
                    MetaViolation(
                        "immutable", step, d.name,
                        f"imm reachable state changed since step {prev[0]}",
                        pretty_print(term),
                    )
                )
    return out


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def verify_trace(
    table: ClassTable, trace: ReductionTrace, budget: Optional[int] = None
) -> list:
    out = []
    out += check_subject_reduction(table, trace, budget)
    out += check_progress(table, trace)
    out += check_canonical_forms(table, trace)
    out += check_capsule_theorem(table, trace)
    out += check_immutable_theorem(table, trace)
    return out
