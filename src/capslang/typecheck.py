"""Algorithmic typechecker.

The qualifier system is declarative: besides the syntax-directed rules there
are five rules (subsumption, capsule promotion, immutability promotion, group
swap, unrestriction) that can apply anywhere.  This module realizes it as a
goal-directed backtracking search:

* structural rules are applied first, directed by the syntax of the term;
* subsumption only at comparison points (initializer vs declared type,
  argument vs parameter, assignment RHS vs field type, body vs return type);
* capsule promotion is attempted when the goal qualifier is capsule (or imm,
  since capsule <= imm), immutability promotion when the goal is imm;
* a group swap is attempted at the smallest enclosing subterm whose check
  failed structurally, for each lent group disjoint from the restricted set;
* unrestriction is attempted when the goal is capsule/imm/int.

Results are memoized per judgment, keyed by subterm identity, the context
and the goal.  A TypeContext (module `context`) hashes a canonical
fingerprint of itself (gamma, sorted groups, sorted restricted set) computed
once when it is built, and compares by that fingerprint, so a memo probe
costs the same however large gamma is; the recovery rules re-ask a subterm
under many derived contexts, which makes this probe the checker's hot path.
A block's gamma is its context's gamma updated with its declarations
(`Gamma.updated`), so its hash costs what the block declares.  Derived
contexts (a group swapped with the mutable group, the promotions' premise
contexts) reuse the sorted forms of their groups, and each context keeps the
swapped contexts it has built.  Failures are memoized as message and span
and re-raised fresh.
A configurable budget bounds the search (exhausting it raises
SearchExhausted, which is distinct from a typing failure).

A Checker may answer several top-level queries, each with a budget of its
own (subject reduction asks one per reduct of a trace, see
`metatheory.check_subject_reduction`).  A
failure is tainted when its search met a check still in progress ("cyclic
search") or a tainted failure: it holds for the stack of the query that
computed it, not for its key alone, like an incomplete answer in tabled
resolution (Chen & Warren, JACM 1996).  Within its query a tainted failure
is used as any other, so a query's search, ticks and memo do not depend on
whether more queries follow.  Each query starts with an empty memo, which
evicts the tainted failures.  Every other entry lives on under its key's
projection (`Checker._projection`: the context cut down to what a check of
the term can read of it), and from the second query on a miss of the full
key is looked up there.  A reduct shares most subterms with the term before
it, but its store, and so every context beneath it, is new: the projection
lets those subterms find their verdicts again.  Projections are computed
only once a second query starts, and an entry of the first query only once
its term is asked about again, so a one-query Checker (`typecheck_program`)
never pays for them.  Reuse keeps verdicts and results, not derivations: a
judgment found under a projected key has its term, result and rule, but no
context and no premises.

The root block of a reduct (the store) differs from the last one in a few
declarations.  From the second query on, `check_block` keeps a root state
for the block the query asks about (`context.RootState`): the block's
scope, compared with the next query's block by Decl identity
(`context.RootScope`), its gamma, updated from that diff alone, and the
judgment of each premise of its derivation.  A premise is checked again
only when its Decl is new, a name it mentions (its own included) changed
type, the candidate's groups or restricted set differ from the last, or
its projection's "mut or read names outside" or "mutable group beyond"
part flipped; otherwise its projection, and so its verdict, is the last
one, and it keeps its judgment with no projection and no memo probe.
Grouped declarations, declarations that may consume a sibling and the body
are checked every time.

A block's lent locals are grouped by search: `check_block` tries candidate
group assignments in a fixed order, each set partition of the locals once,
until one types every declaration and the body.  The search is pruned by
conflict (Prosser, 1993): when a premise fails, its context projected onto
the names the premise mentions is kept as a nogood for the rest of the
`check_block` call, and a later candidate with a premise of the same
projection fails at once.  The projection keeps everything the rules read
(see `Checker._projection`), so the same candidate succeeds first and the
same first failure is reported as without pruning.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .syntax import (
    INT,
    Block,
    ClassTable,
    Decl,
    Expr,
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
    Type,
    Var,
    children,
    free_vars,
    is_evaluated,
    map_children,
    map_program,
    mentions,
    method_gamma,
    qual_leq,
    stored_type,
    subtype,
)
from .congruence import connected_closure
from .context import (
    RootState,
    TypeContext,
    _may_consume,
    _premise_context,
    _qualifier,
    wf_context,
)

DEFAULT_BUDGET = 100_000
MAX_LENT_LOCALS = 6


class TypeCheckError(Exception):
    kind = "IllTyped"

    def __init__(self, message: str, span=None):
        super().__init__(message)
        self.span = span


class IllTyped(TypeCheckError):
    kind = "IllTyped"


class SearchExhausted(TypeCheckError):
    kind = "SearchExhausted"


class _Failure:
    """A memoized IllTyped: message and span only.  Keeping the exception
    itself would keep its traceback, and through it the search frames and
    the Checker, alive in a reference cycle.  A memo entry also keeps the
    term that failed, whose id keys the entry until it is filed under its
    projection, and whether the failure is tainted (see `Checker.check`)."""

    __slots__ = ("message", "span", "expr", "tainted")

    def __init__(self, err: IllTyped, expr=None, tainted=False):
        self.message = str(err)
        self.span = err.span
        self.expr = expr
        self.tainted = tainted

    def error(self) -> IllTyped:
        return IllTyped(self.message, self.span)


@dataclass(frozen=True)
class Judgment:
    context: TypeContext
    expr: Expr
    result: Type
    rule: str
    premises: tuple = ()
    note: tuple = field(default=(), compare=False)  # rule-specific extras

    def rule_path(self) -> list:
        out = [self.rule]
        for p in self.premises:
            out.extend(p.rule_path())
        return out


def _kept(entry):
    """What a later query may use of a completed memo entry: a judgment's
    term, result and rule (dropping its context and premises lets the
    contexts of earlier queries go), an untainted failure, and nothing of a
    tainted one."""
    if entry.__class__ is Judgment:
        return Judgment(None, entry.expr, entry.result, entry.rule)
    return None if entry.tainted else entry


def _weaken(t: Type) -> Type:
    """mut is weakened to lent (result adjustment of the swap and var rules)."""
    if isinstance(t, RefType) and t.qualifier is Qualifier.MUT:
        return RefType(Qualifier.LENT, t.cname)
    return t


def _growth_strings(n: int, k: int):
    """Every assignment of n locals to k base groups (0..k-1) or to new
    groups numbered k, k+1, ... in order of first use, in lexicographic
    order: each set partition once, as a restricted growth string (Knuth,
    TAOCP 7.2.1.5).  It is the order in which each partition first appears
    among the tuples of itertools.product(range(k + n), repeat=n)."""
    a = [0] * n
    while True:
        yield tuple(a)
        # a[i] may reach one past the largest label before it (k - 1 at least)
        top, bound = k - 1, []
        for x in a:
            bound.append(top + 1)
            top = max(top, x)
        i = n - 1
        while i >= 0 and a[i] == bound[i]:
            i -= 1
        if i < 0:
            return
        a[i] += 1
        a[i + 1:] = [0] * (n - 1 - i)


class _InProgress:
    pass


_IN_PROGRESS = _InProgress()


class Checker:
    def __init__(self, table: ClassTable, budget: Optional[int] = None):
        self.table = table
        self.budget = DEFAULT_BUDGET if budget is None else budget
        self.ticks = 0
        self._cyclic = 0  # in-progress and tainted-failure hits so far
        # the memo and the tables below key a term in a context or a query;
        # what a term is on its own (the names it mentions, its free
        # variables) is kept on the term (`syntax.node_cached`)
        self.memo: dict = {}
        self._gamma_parts: dict = {}  # id(e) -> (gamma, parts), see _projection
        # (id(e), projection, goal) -> what _kept keeps of a completed memo
        # entry, from the second top-level query on
        self._reuse = None
        self._pending: dict = {}  # id(e) -> the first query's entries for e
        # from the second query on: (context, term) of the current query,
        # and the root state the last query kept (see check_block)
        self._query = None
        self._root: Optional[RootState] = None

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------

    def check(self, ctx: TypeContext, e: Expr, goal: Optional[Type]) -> Judgment:
        """Derive a judgment for e whose result is <= goal (or the structural
        minimum when goal is None).

        A call made while `ticks` is 0, as in a fresh Checker, starts a
        top-level query: the caller resets `ticks` to give the next query
        a budget of its own.  A failure is tainted when its search met an
        in-progress entry ("cyclic search") or a tainted failure: it is a
        verdict about this query's stack, not about its key.  Within the
        query it is memoized as any failure is; the next query starts with
        an empty memo.  Every other entry is a verdict about its key alone,
        so from the second query on each completed untainted entry is
        filed under its key's projection (`_projection`) too, and a miss
        of the full key is looked up there.  Every term asked about must
        stay alive while the Checker is in use: entries are keyed by
        id(e)."""
        top = not self.ticks
        if top:
            self._start_query(ctx, e)
        self._tick()
        key = (id(e), ctx, goal)
        memo = self.memo
        hit = memo.get(key)
        # a query's own term is one not asked about before (a reduct), so
        # it is neither looked up nor filed under its projection
        reuse = None if top else self._reuse
        if hit is None and reuse is not None:
            for c, g, entry in self._pending.pop(key[0], ()):
                reuse[(key[0], self._projection(c, e), g)] = _kept(entry)
            pkey = (key[0], self._projection(ctx, e), goal)
            hit = reuse.get(pkey)
            if hit is not None:
                memo[key] = hit
        if hit is not None:
            if hit.__class__ is Judgment:
                return hit
            if hit is _IN_PROGRESS:
                self._cyclic += 1
                raise IllTyped("cyclic search", _span(e))
            if hit.tainted:
                self._cyclic += 1
            raise hit.error()
        memo[key] = _IN_PROGRESS
        cyclic = self._cyclic
        try:
            j = self._check(ctx, e, goal)
        except IllTyped as err:
            memo[key] = failure = _Failure(err, e, self._cyclic != cyclic)
            if reuse is not None:
                reuse[pkey] = _kept(failure)
            raise
        except BaseException:
            del memo[key]  # a search cut short (SearchExhausted) leaves nothing
            raise
        # a success stands whatever its search met: what made it taint
        # nothing reaches the caller
        self._cyclic = cyclic
        memo[key] = j
        if reuse is not None:
            reuse[pkey] = _kept(j)
        return j

    def _start_query(self, ctx: TypeContext, e: Expr) -> None:
        """Empty the memo, which evicts the last query's tainted failures;
        its other entries live on under their projected keys, filed as they
        completed or, for the first query's memo, once their term is asked
        about again."""
        memo = self.memo
        if memo and self._reuse is None:
            self._reuse = {}
            for (i, c, g), entry in memo.items():
                self._pending.setdefault(i, []).append((c, g, entry))
        memo.clear()
        self._gamma_parts.clear()  # its gammas are the last query's
        if self._reuse is not None:
            self._query = (ctx, e)

    def infer(self, ctx: TypeContext, e: Expr) -> Judgment:
        return self.check(ctx, e, None)

    # ------------------------------------------------------------------
    # goal-directed search
    # ------------------------------------------------------------------

    def _check(self, ctx: TypeContext, e: Expr, goal: Optional[Type]) -> Judgment:
        # the first failure is kept as a record, not as the exception: a
        # local holding the exception would tie this frame into a cycle
        first: Optional[_Failure] = None
        try:
            j = self._structural(ctx, e, goal)
            if goal is None or subtype(j.result, goal):
                return self._sub(j, goal)
        except IllTyped as err:
            first = _Failure(err)
        if goal is None:
            raise first.error() if first else IllTyped(
                f"has type that does not fit here", _span(e)
            )
        if isinstance(goal, RefType):
            # capsule promotion: applicable when the goal admits capsule
            if goal.qualifier in (Qualifier.CAPSULE, Qualifier.IMM):
                try:
                    return self._sub(self._try_capsule(ctx, e, goal.cname), goal)
                except IllTyped as err:
                    first = first or _Failure(err)
            if goal.qualifier is Qualifier.IMM:
                try:
                    return self._try_imm(ctx, e, goal.cname)
                except IllTyped as err:
                    first = first or _Failure(err)
        # group swap
        for g, g_sorted in zip(ctx.groups, ctx.sorted_groups):
            if g & ctx.restricted:
                continue
            swapped = ctx.swap(g)
            for inner_goal in self._swap_goals(goal):
                try:
                    j = self.check(swapped, e, inner_goal)
                except IllTyped:
                    continue
                weakened = _weaken(j.result)
                if subtype(weakened, goal):
                    return Judgment(
                        ctx, e, weakened, "t-swap", (j,), note=("swap", g_sorted)
                    )
        # unrestriction
        if ctx.restricted and (
            isinstance(goal, IntType)
            or goal.qualifier in (Qualifier.CAPSULE, Qualifier.IMM)
        ):
            try:
                j = self.check(ctx.unrestricted(), e, goal)
                if isinstance(j.result, IntType) or qual_leq(
                    j.result.qualifier, Qualifier.IMM
                ):
                    return Judgment(ctx, e, j.result, "t-unrst", (j,))
            except IllTyped as err:
                first = first or _Failure(err)
        raise first.error() if first else IllTyped(
            f"no derivation for goal {goal}", _span(e)
        )

    def _swap_goals(self, goal: Type):
        yield goal
        if isinstance(goal, RefType) and goal.qualifier in (
            Qualifier.LENT,
            Qualifier.READ,
        ):
            yield RefType(Qualifier.MUT, goal.cname)

    def _sub(self, j: Judgment, goal: Optional[Type]) -> Judgment:
        if goal is None or j.result == goal:
            return j
        return Judgment(j.context, j.expr, goal, "t-sub", (j,))

    def _try_capsule(self, ctx: TypeContext, e: Expr, cname: str) -> Judgment:
        ctx2 = ctx.grouped(ctx.restricted)
        j = self.check(ctx2, e, RefType(Qualifier.MUT, cname))
        return Judgment(
            ctx, e, RefType(Qualifier.CAPSULE, cname), "t-capsule", (j,),
            note=("grouped", ctx.sorted_mutable_group()),
        )

    def _try_imm(self, ctx: TypeContext, e: Expr, cname: str) -> Judgment:
        restricted = ctx.mut_or_read_names()
        j = self.check(ctx.grouped(restricted), e, RefType(Qualifier.READ, cname))
        return Judgment(
            ctx, e, RefType(Qualifier.IMM, cname), "t-imm", (j,),
            note=("restricted", tuple(sorted(restricted))),
        )

    # ------------------------------------------------------------------
    # structural rules
    # ------------------------------------------------------------------

    def _structural(self, ctx: TypeContext, e: Expr, goal: Optional[Type]) -> Judgment:
        if isinstance(e, Var):
            return self._var(ctx, e)
        if isinstance(e, IntLit):
            return Judgment(ctx, e, INT, "t-int")
        if isinstance(e, Plus):
            jl = self.check(ctx, e.left, INT)
            jr = self.check(ctx, e.right, INT)
            return Judgment(ctx, e, INT, "t-plus", (jl, jr))
        if isinstance(e, New):
            return self._new(ctx, e)
        if isinstance(e, FieldAccess):
            return self._field_access(ctx, e)
        if isinstance(e, FieldAssign):
            return self._field_assign(ctx, e)
        if isinstance(e, MethodCall):
            return self._meth_call(ctx, e)
        if isinstance(e, StaticCall):
            return self._static_call(ctx, e)
        if isinstance(e, Block):
            return self.check_block(ctx, e, goal)
        raise TypeError(f"not an expression: {e!r}")

    def _var(self, ctx: TypeContext, e: Var) -> Judgment:
        t = ctx.lookup(e.name)
        if t is None:
            raise IllTyped(f"unknown variable {e.name}", _span(e))
        if e.name in ctx.restricted:
            raise IllTyped(f"variable {e.name} is restricted here", _span(e))
        if (
            isinstance(t, RefType)
            and t.qualifier is Qualifier.MUT
            and ctx.group_of(e.name) is not None
        ):
            t = RefType(Qualifier.LENT, t.cname)
        return Judgment(ctx, e, t, "t-var")

    def _new(self, ctx: TypeContext, e: New) -> Judgment:
        if e.cname not in self.table:
            raise IllTyped(f"unknown class {e.cname}", _span(e))
        fields = self.table.fields(e.cname)
        if len(fields) != len(e.args):
            raise IllTyped(
                f"new {e.cname}: expected {len(fields)} arguments, got {len(e.args)}",
                _span(e),
            )
        premises = tuple(
            self.check(ctx, a, ft) for a, (ft, _) in zip(e.args, fields)
        )
        return Judgment(ctx, e, RefType(Qualifier.MUT, e.cname), "t-new", premises)

    def _field_access(self, ctx: TypeContext, e: FieldAccess) -> Judgment:
        jr = self.infer(ctx, e.recv)
        if not isinstance(jr.result, RefType):
            raise IllTyped("field access on a non-object", _span(e))
        cname = jr.result.cname
        try:
            ft = self.table.field_type(cname, e.fname)
        except KeyError:
            raise IllTyped(f"no field {e.fname} in class {cname}", _span(e))
        if isinstance(ft, RefType) and ft.qualifier is Qualifier.MUT:
            result: Type = RefType(jr.result.qualifier, ft.cname)
        else:
            result = ft  # imm and int fields keep their declared type
        return Judgment(ctx, e, result, "t-field-access", (jr,))

    def _field_assign(self, ctx: TypeContext, e: FieldAssign) -> Judgment:
        cname = self._receiver_class(ctx, e.recv)
        jr = self.check(ctx, e.recv, RefType(Qualifier.MUT, cname))
        try:
            ft = self.table.field_type(cname, e.fname)
        except KeyError:
            raise IllTyped(f"no field {e.fname} in class {cname}", _span(e))
        jv = self.check(ctx, e.value, ft)
        return Judgment(ctx, e, ft, "t-field-assign", (jr, jv))

    def _meth_call(self, ctx: TypeContext, e: MethodCall) -> Judgment:
        cname = self._receiver_class(ctx, e.recv)
        if not self.table.has_method(cname, e.mname):
            raise IllTyped(f"no method {e.mname} in class {cname}", _span(e))
        sig = self.table.method(cname, e.mname)
        if sig.this_qual is None:
            raise IllTyped(
                f"method {cname}.{e.mname} is static; call it as {cname}.{e.mname}(...)",
                _span(e),
            )
        if len(sig.params) != len(e.args):
            raise IllTyped(
                f"{cname}.{e.mname}: expected {len(sig.params)} arguments, got {len(e.args)}",
                _span(e),
            )
        jr = self.check(ctx, e.recv, RefType(sig.this_qual, cname))
        premises = (jr,) + tuple(
            self.check(ctx, a, pt) for a, (pt, _) in zip(e.args, sig.params)
        )
        return Judgment(ctx, e, sig.ret, "t-meth-call", premises)

    def _static_call(self, ctx: TypeContext, e: StaticCall) -> Judgment:
        if not self.table.has_method(e.cname, e.mname):
            raise IllTyped(f"no method {e.mname} in class {e.cname}", _span(e))
        sig = self.table.method(e.cname, e.mname)
        if sig.this_qual is not None:
            raise IllTyped(f"method {e.cname}.{e.mname} is not static", _span(e))
        if len(sig.params) != len(e.args):
            raise IllTyped(
                f"{e.cname}.{e.mname}: expected {len(sig.params)} arguments, got {len(e.args)}",
                _span(e),
            )
        premises = tuple(
            self.check(ctx, a, pt) for a, (pt, _) in zip(e.args, sig.params)
        )
        return Judgment(ctx, e, sig.ret, "t-static-call", premises)

    def _receiver_class(self, ctx: TypeContext, recv: Expr) -> str:
        t = shape_type(self.table, ctx.env, recv)
        if not isinstance(t, RefType):
            raise IllTyped("receiver is not an object", _span(recv))
        if t.cname not in self.table:
            raise IllTyped(f"unknown class {t.cname}", _span(recv))
        return t.cname

    # ------------------------------------------------------------------
    # blocks
    # ------------------------------------------------------------------

    def check_block(
        self, ctx: TypeContext, block: Block, goal: Optional[Type]
    ) -> Judgment:
        """A block's premises (its initializers, then its body) under the
        first candidate group assignment that types them all.  The block a
        query asks about keeps premise judgments from the last query's
        block (`RootState`, see the module docstring)."""
        decls = block.decls
        if not decls:
            j = self.check(ctx, block.body, goal)
            return Judgment(ctx, block, j.result, "t-block", (j,))
        root = self._root_state(ctx, block)
        if root is None:
            dom: dict = {}  # name -> its declared type
            for d in decls:
                if d.dtype is None:
                    raise _untyped(d)
                dom[d.name] = stored_type(d.dtype)
            gamma = ctx.gamma.updated(dom)
            lent_locals = [
                d.name for d in decls if _qualifier(d.dtype) is Qualifier.LENT
            ]
        else:
            dom, gamma = root.scope.env, root.gamma
            lent_locals = [d.name for d in root.lent_decls()]
        env = gamma.env
        base_groups = tuple(h for h in (g.difference(dom) for g in ctx.groups) if h)
        restricted = ctx.restricted.difference(dom)
        # mut locals may join base groups only (see _group_candidates)
        mut_locals = base_groups and [
            d.name for d in decls if _qualifier(d.dtype) is Qualifier.MUT
        ]
        if len(lent_locals) > MAX_LENT_LOCALS:
            raise SearchExhausted(
                f"block has {len(lent_locals)} lent locals (cap {MAX_LENT_LOCALS})",
                block.span,
            )
        # premise i < len(decls) checks declaration i, premise len(decls)
        # the body, each against the same goal for every candidate; a failed
        # premise is kept as a nogood, its context's projection (see
        # _projection), computed only once a further candidate comes
        nogoods: dict = {}  # premise index -> projections of its failed checks
        failed = None  # (premise index, its context) of the last failure
        first: Optional[_Failure] = None
        ctx_body = None
        for groups in self._group_candidates(
            block, lent_locals, base_groups, mut_locals
        ):
            # every candidate shares the block's gamma
            ctx_body = TypeContext(gamma, groups, restricted, base=ctx_body)
            if not wf_context(ctx_body):
                continue
            if failed is not None:
                i, ctx_i = failed
                nogoods.setdefault(i, set()).add(
                    self._projection(ctx_i, _premise_term(block, i))
                )
                failed = None
            if nogoods and any(
                self._projection(
                    _premise_context(ctx_body, decls, i), _premise_term(block, i)
                ) in known
                for i, known in nogoods.items()
            ):
                continue  # a premise repeats a failed check
            todo = None if root is None else root.to_check(ctx_body)
            if todo is None:
                todo, premises = range(len(decls)), [None] * len(decls)
            else:  # the judgments the root state keeps, the others to come
                premises = list(map(root.judgments.get, map(id, decls)))
            fresh = {}  # index -> judgment of the premises checked here
            try:
                for i in todo:
                    d = decls[i]
                    ctx_d = _premise_context(ctx_body, decls, i)
                    j = self._try_consume(block, d, env, ctx_d)
                    if j is None:
                        j = self.check(ctx_d, d.init, env[d.name])
                    premises[i] = fresh[i] = j
                i = len(decls)
                premises.append(self.check(ctx_body, block.body, goal))
            except IllTyped as err:
                first = first or _Failure(err)
                failed = (i, _premise_context(ctx_body, decls, i))
                continue
            if root is not None:
                root.keep(ctx_body, decls, {i: _kept(j) for i, j in fresh.items()})
                self._root = root
            return Judgment(
                ctx,
                block,
                premises[-1].result,
                "t-block",
                tuple(premises),
                note=("groups", ctx_body.sorted_groups),
            )
        raise first.error() if first else IllTyped(
            "no lent-group assignment typechecks", block.span
        )

    def _root_state(self, ctx: TypeContext, block: Block) -> Optional[RootState]:
        """The root state for block, moved on to it, when block is the term
        of the current query asked in the query's context, from the second
        query on; None otherwise.  The state leaves the Checker until the
        block checks: a query whose block fails starts the next one afresh."""
        query = self._query
        if query is None or query[1] is not block or query[0] is not ctx:
            return None
        root, self._root = self._root, None
        if root is None or root.ctx != ctx:
            root = RootState(ctx)
        untyped = root.advance(block)
        if untyped:
            raise _untyped(untyped[0])
        return None if untyped is None else root

    def _projection(self, ctx: TypeContext, e: Expr) -> tuple:
        """What a check of e can read of ctx, for the names e mentions (free
        or bound):

        * gamma restricted to the names;
        * whether gamma has mut or read names outside them;
        * for each group in order, its members among the names, whether it
          has others, and whether those include restricted names;
        * whether the mutable group has members beyond the names;
        * when the restricted set is not empty: the restricted names among
          the names, whether there are restricted names outside them, and
          whether one of those is in the mutable group (a mut name in no
          group).

        Every rule reads no more of a context than this.  `_var` reads the
        gamma entry, restriction and grouping of its name; `_receiver_class`
        and `_try_consume` read gamma at names of e.  Unrestriction applies
        when the restricted set is not empty.  Capsule promotion makes the
        mutable group one more group; its members among the names are the
        mut names there that no group holds.  Immutability promotion
        restricts every mut and read name: among the names gamma tells
        which, outside them the second part tells whether any exist, and
        the other members of the groups and of the mutable group are mut,
        so restricted there exactly when they exist.  The swap loop takes
        the groups in order and skips those with restricted members; a swap
        keeps every other group's parts and makes the swapped group the
        mutable one.  A nested block has its binders among the names; it
        drops emptied groups (`g - dom`) and seeds and extends its
        candidates by the names alone.  `wf_context` of its candidates
        asks whether a restricted name outside the names is a mut name in
        no group (the last part); its other conditions hold outside the
        names in every context derived from a well-formed one.  So two
        contexts with the same projection give e the same search step for
        step, and a verdict reached without a cyclic hit (see `check`)
        holds for both.  Every premise context of one
        `check_block` call has the same gamma and restricted set, so there
        the group parts alone decide.
        """
        names = mentions(e)
        # the parts read from gamma alone, kept for the last gamma e was
        # projected under (the candidates of one block share their gamma)
        last = self._gamma_parts.get(id(e))
        if last is None or last[0] is not ctx.gamma:
            env = ctx.env
            last = self._gamma_parts[id(e)] = (
                ctx.gamma,
                # a frozenset keeps its hash: each probe of a key hashes
                # the types in it only once
                frozenset([(n, env[n]) for n in names if n in env]),
                not ctx.mut_or_read_names() <= names,
            )
        restricted = ctx.restricted
        mg = ctx.mutable_group()
        outside = restricted - names
        return (
            last[1],
            last[2],
            tuple([
                (g & names, not g <= names, not restricted.isdisjoint(g - names))
                for g in ctx.groups
            ]),
            not mg <= names,
            restricted
            and (restricted & names, bool(outside), not outside.isdisjoint(mg)),
        )

    def _try_consume(self, block: Block, d: Decl, gamma: dict, ctx: TypeContext):
        """A capsule (or imm) declaration may consume a sibling local together
        with the part of the local store only it refers to.  This is the
        transient shape left behind when a call returning capsule unfolds:
        the alias is about to be eliminated, and the consumed store is
        unreachable from anywhere else in the block."""
        if not _may_consume(d):
            return None
        y = d.init.name
        siblings = {dd.name: dd for dd in block.decls}
        if y not in siblings or y == d.name:
            return None
        t_y = gamma.get(y)
        if not (
            isinstance(t_y, RefType)
            and t_y.qualifier is Qualifier.MUT
            and t_y.cname == d.dtype.cname
        ):
            return None
        owned = connected_closure(block.decls, frozenset({y}))
        owned_names = {dd.name for dd in owned}
        if d.name in owned_names:
            return None
        # nothing live may reach the consumed store: siblings that refer to
        # it but are themselves unreachable from the body are dead and
        # irrelevant
        live = connected_closure(
            tuple(dd for dd in block.decls if dd.name != d.name),
            free_vars(block.body) - frozenset({d.name}),
        )
        if owned_names & {dd.name for dd in live}:
            return None
        # no still-unevaluated sibling may touch it either: its pending
        # effects would run against the consumed store
        for dd in block.decls:
            if dd.name in owned_names or dd.name == d.name:
                continue
            if not is_evaluated(dd) and free_vars(dd.init) & owned_names:
                return None
        # the consumed store may only refer outwards to immutable data
        ext = frozenset().union(
            *(free_vars(dd.init) for dd in owned)
        ) - frozenset(owned_names)
        for x in ext:
            t = gamma.get(x) or ctx.lookup(x)
            if isinstance(t, IntType):
                continue
            if isinstance(t, RefType) and t.qualifier in (
                Qualifier.IMM,
                Qualifier.CAPSULE,
            ):
                continue
            return None
        rule = "t-capsule" if d.dtype.qualifier is Qualifier.CAPSULE else "t-imm"
        premise = Judgment(ctx, d.init, t_y, "t-var")
        return Judgment(
            ctx,
            d.init,
            d.dtype,
            rule,
            (premise,),
            note=("consumes", tuple(sorted(owned_names))),
        )

    def _group_candidates(self, block: Block, lent_locals, base_groups, mut_locals):
        """Group assignments for the block's locals.

        A seeded candidate (must-share constraints from field assignments,
        singletons otherwise) is tried first, then every other assignment of
        lent locals to existing groups or new groups among themselves, each
        set partition once (`_growth_strings`).  As a last resort mut locals
        may join groups too: that is a pure weakening (a grouped variable is
        usable as lent) which some store shapes produced by reduction need.
        Base groups are disjoint and non-empty, so no candidate repeats.
        `check_block` skips a candidate when one of its premises repeats a
        check that failed for an earlier candidate (see `_projection`).
        """
        if not lent_locals and not mut_locals:
            yield base_groups
            return
        lent = []  # the lent-local candidates, again for every fallback choice
        if lent_locals:
            seeded = self._seed_assignment(block, lent_locals, base_groups)
            for a in itertools.chain(
                (seeded,),
                (a for a in _growth_strings(len(lent_locals), len(base_groups))
                 if a != seeded),
            ):
                groups = [set(g) for g in base_groups]
                for x, c in zip(lent_locals, a):
                    if c == len(groups):
                        groups.append(set())
                    groups[c].add(x)
                lent.append(tuple(map(frozenset, groups)))
                yield lent[-1]
        else:
            lent.append(base_groups)
            yield base_groups
        # fallback: a mut local whose initializer refers into an existing
        # group may join one of those groups (pure weakening; some store
        # shapes produced by reduction need it)
        inits = {d.name: d.init for d in block.decls}
        eligible = []  # (name, tuple of touched base-group indices)
        for x in mut_locals:
            touched = tuple(
                i
                for i, g in enumerate(base_groups)
                if free_vars(inits[x]) & g
            )
            if touched:
                eligible.append((x, touched))
        if eligible and len(eligible) <= MAX_LENT_LOCALS:
            for choice in itertools.product(
                *[(None,) + touched for _, touched in eligible]
            ):
                if all(c is None for c in choice):
                    continue
                extra: dict = {}
                for (x, _), c in zip(eligible, choice):
                    if c is not None:
                        extra.setdefault(c, set()).add(x)
                for lent_groups in lent:
                    yield tuple(
                        g | extra.get(i, set()) if i < len(base_groups) else g
                        for i, g in enumerate(lent_groups)
                    )

    def _seed_assignment(self, block: Block, lent_locals, base_groups) -> tuple:
        """Must-share pre-pass: variables appearing together as receiver and
        RHS of a field assignment must end up in the same group (both need to
        be mut under the same swap).  Remaining lent locals get singleton
        groups.  The result is an assignment as `_growth_strings` gives
        them: base group indices, new groups numbered in order of first
        use."""
        parent = {x: x for x in lent_locals}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        pairs = []
        stack = [block]  # preorder, as a recursive walk would visit
        while stack:
            e = stack.pop()
            if isinstance(e, FieldAssign) and isinstance(e.recv, Var) and isinstance(
                e.value, Var
            ):
                pairs.append((e.recv.name, e.value.name))
            stack.extend(reversed(tuple(children(e))))
        join: dict = {}  # union-find root -> group index
        for (a, b) in pairs:
            if a in parent and b in parent:
                parent[find(a)] = find(b)
        for (a, b) in pairs:
            for local, other in ((a, b), (b, a)):
                if local in parent:
                    for i, g in enumerate(base_groups):
                        if other in g:
                            join[find(local)] = i
        fresh = len(base_groups)
        out = []
        for x in lent_locals:
            root = find(x)
            if root not in join:
                join[root], fresh = fresh, fresh + 1
            out.append(join[root])
        return tuple(out)

    def _tick(self):
        self.ticks += 1
        if self.ticks > self.budget:
            raise SearchExhausted(f"search budget of {self.budget} nodes exhausted")


def _span(e: Expr):
    return getattr(e, "span", None)


def _untyped(d: Decl) -> IllTyped:
    return IllTyped(f"declaration {d.name} lacks a type (unresolved sugar)", d.span)


def _premise_term(block: Block, i: int) -> Expr:
    return block.decls[i].init if i < len(block.decls) else block.body


# ---------------------------------------------------------------------------
# Shape inference: class/type skeleton of an expression, ignoring groups and
# restrictions.  Used to find receiver classes, to fill in the declared types
# of statement-sugar discards, and by the simplified-form translation.
# ---------------------------------------------------------------------------


def shape_type(table: ClassTable, gamma: dict, e: Expr) -> Type:
    if isinstance(e, Var):
        t = gamma.get(e.name)
        if t is None:
            raise IllTyped(f"unknown variable {e.name}", _span(e))
        return t
    if isinstance(e, IntLit) or isinstance(e, Plus):
        return INT
    if isinstance(e, New):
        return RefType(Qualifier.MUT, e.cname)
    if isinstance(e, FieldAccess):
        rt = shape_type(table, gamma, e.recv)
        if not isinstance(rt, RefType) or rt.cname not in table:
            raise IllTyped("field access on a non-object", _span(e))
        try:
            ft = table.field_type(rt.cname, e.fname)
        except KeyError:
            raise IllTyped(f"no field {e.fname} in class {rt.cname}", _span(e))
        if isinstance(ft, RefType) and ft.qualifier is Qualifier.MUT:
            q = rt.qualifier
            if q is Qualifier.CAPSULE:
                q = Qualifier.MUT
            return RefType(q, ft.cname)
        return ft
    if isinstance(e, FieldAssign):
        rt = shape_type(table, gamma, e.recv)
        if not isinstance(rt, RefType) or rt.cname not in table:
            raise IllTyped("assignment on a non-object", _span(e))
        try:
            return table.field_type(rt.cname, e.fname)
        except KeyError:
            raise IllTyped(f"no field {e.fname} in class {rt.cname}", _span(e))
    if isinstance(e, MethodCall):
        rt = shape_type(table, gamma, e.recv)
        if not isinstance(rt, RefType) or not table.has_method(rt.cname, e.mname):
            raise IllTyped(f"no method {e.mname} here", _span(e))
        return table.method(rt.cname, e.mname).ret
    if isinstance(e, StaticCall):
        if not table.has_method(e.cname, e.mname):
            raise IllTyped(f"no method {e.mname} in class {e.cname}", _span(e))
        return table.method(e.cname, e.mname).ret
    if isinstance(e, Block):
        g2 = dict(gamma)
        pending = list(e.decls)
        # declared types first (forward references), then infer the sugared ones
        for d in pending:
            if d.dtype is not None:
                g2[d.name] = stored_type(d.dtype)
        for d in pending:
            if d.dtype is None:
                g2[d.name] = discard_type(shape_type(table, g2, d.init))
        return shape_type(table, g2, e.body)
    raise TypeError(f"not an expression: {e!r}")


def discard_type(t: Type) -> Type:
    """Declared type for a statement-sugar discard variable.

    A lent shape is recorded read: a read local accepts the initializer by
    subsumption without joining any lent group.
    """
    if isinstance(t, RefType) and t.qualifier is Qualifier.LENT:
        return RefType(Qualifier.READ, t.cname)
    return t


def resolve_implicit_types(p: Program) -> Program:
    """Fill in the declared types of statement-sugar discard declarations."""

    def walk(e: Expr, gamma: dict) -> Expr:
        if not isinstance(e, Block):
            return map_children(e, walk, gamma)
        g2 = dict(gamma)
        for d in e.decls:
            if d.dtype is not None:
                g2[d.name] = stored_type(d.dtype)
        decls = []
        for d in e.decls:
            init = walk(d.init, g2)
            if d.dtype is None:
                dtype = discard_type(shape_type(p.table, g2, init))
                g2[d.name] = stored_type(dtype)
                d = Decl(dtype, d.name, init, d.span)
            elif init is not d.init:
                d = Decl(d.dtype, d.name, init, d.span)
            decls.append(d)
        body = walk(e.body, g2)
        if body is e.body and all(d is d0 for d, d0 in zip(decls, e.decls)):
            return e
        return Block(tuple(decls), body, e.span)

    return map_program(p, walk)


# ---------------------------------------------------------------------------
# Method and program typing
# ---------------------------------------------------------------------------


def method_context(table: ClassTable, cname: str, sig) -> TypeContext:
    """The body's context: `method_gamma`, with a lent receiver and each
    lent parameter alone in a group."""
    groups = []
    if sig.this_qual is Qualifier.LENT:
        groups.append(frozenset(("this",)))
    for (pt, pn) in sig.params:
        if isinstance(pt, RefType) and pt.qualifier is Qualifier.LENT:
            groups.append(frozenset((pn,)))
    return TypeContext.make(method_gamma(cname, sig), groups)


def typecheck_method(table: ClassTable, cname: str, mname: str, budget=None) -> Judgment:
    sig = table.method(cname, mname)
    ctx = method_context(table, cname, sig)
    checker = Checker(table, budget)
    return checker.check(ctx, sig.body, sig.ret)


def typecheck_program(p: Program, budget=None) -> dict:
    """Judgments for every method body and the main expression.

    Raises the first TypeCheckError encountered; callers wanting all errors
    can iterate classes themselves.
    """
    out = {}
    for cname, cd in p.table.classes.items():
        for mname in cd.methods:
            out[f"{cname}.{mname}"] = typecheck_method(p.table, cname, mname, budget)
    checker = Checker(p.table, budget)
    out["main"] = checker.infer(TypeContext.make({}), p.main)
    return out
