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
  failed structurally, for each lent group disjoint from the restricted set,
  unless the goal is mut: the swap weakens its premise's mut result to
  lent, and by induction a premise with a mut goal ends at mut, so a swap
  never concludes a mut goal (see `Checker._check`);
* unrestriction is attempted when the goal is capsule/imm/int.

Results are memoized per judgment, keyed by subterm identity, the context
and the goal.  A TypeContext (module `context`) hashes its gamma, the set
of its groups and its restricted set once when it is built, and no part
depends on order, so a memo probe costs the same however large gamma is
and sorts nothing; the recovery rules re-ask a subterm under many derived
contexts, which makes this probe the checker's hot path.  A block's gamma
is its context's gamma updated with its declarations (`Gamma.updated`), so
its hash costs what the block declares.  Each context keeps the swapped
contexts it has built.  Failures are memoized as message and span and
re-raised fresh.  A configurable budget bounds the search (exhausting it
raises SearchExhausted, which is distinct from a typing failure).

A judgment is a function of its term, the projection of its context and
its goal, notes included.  The projection of a context onto a term is
what a check of the term can read of it, for the names the term mentions
(free or bound):

* gamma restricted to the names;
* whether gamma has mut or read names outside them;
* for each group in order, its members among the names, whether it has
  others, and whether those include restricted names;
* whether the mutable group has members beyond the names;
* when the restricted set is not empty: the restricted names among the
  names, whether there are restricted names outside them, and whether one
  of those is in the mutable group (a mut name in no group).

Every rule reads no more of a context than this.  `_var` reads the gamma
entry, restriction and grouping of its name; `_receiver_type` and
`_try_consume` read gamma at names of the term.  Unrestriction applies
when the restricted set is not empty.  Capsule promotion makes the mutable
group one more group; its members among the names are the mut names there
that no group holds.  Immutability promotion restricts every mut and read
name: among the names gamma tells which, outside them the second part
tells whether any exist, and the other members of the groups and of the
mutable group are mut, so restricted there exactly when they exist.  The
swap loop takes the groups in order and skips those with restricted
members; a swap keeps every other group's parts and makes the swapped
group the mutable one.  A nested block has its binders among the names;
it drops emptied groups (`g - dom`) and builds its candidates from the
names alone.  `wf_context` of its candidates asks whether a restricted
name outside the names is a mut name in no group (the last part); its
other conditions hold outside the names in every context derived from a
well-formed one.  So two contexts with the same projection give the term
the same search step for step.  The tests keep the projection as code,
the reference for `_group_part`.

The promotions, and a consumption (`Checker._try_consume`), have no note:
a certifier recomputes a promotion's premise context from the
conclusion's (`TypeContext.grouped`).  A swap's note lists the swapped
group's members that its term mentions, sorted.  Groups are disjoint, so
only an empty note leaves the group open; every group the swap may take
has no restricted member, so the premise contexts of two groups the term
mentions nothing of differ only in which of the two is a lent group and
which the mutable group, and the projection reads each of them alike:
members beyond the term's names, none of them restricted.  A block's note
lists each group of its body context cut to the names the block mentions,
in order.

A Checker may answer several top-level queries (`Checker.query`), each
with a budget and a memo of its own (subject reduction asks one per reduct
of a trace, see `metatheory._SubjectReduction`).  The root block of a
reduct (the store) differs from the last one in a few declarations, and
the root state of a query's block (`context.RootState`) is all a query
carries over from the last: the caller moves it on from one query's block
to the next by the diff of their declarations by Decl identity
(`context.RootScope`).  It holds the block's gamma, updated from that diff
alone, and the judgment of each premise of its last derivation, the
body's included, which `check_block` keeps there.  A premise is checked
again only when its Decl is new, a name it mentions (its own included)
changed type, the candidate's groups or restricted set differ from the
last, or its projection's "mut or read names outside" or "mutable group
beyond" part flipped; the body also when it is another node or the goal
another object.  Otherwise its projection, and so its judgment, is the
last one, and it keeps it with no search.  Grouped declarations and
declarations that may consume a sibling are checked every time.  A
judgment holds no context (a premise's follows from the root context and
the rules and notes above it), so a kept judgment is the one a fresh
Checker builds, with the same terms, results and rules.

A block's lent locals are grouped by search: `check_block` tries candidate
group assignments until one types every declaration and the body.  They
come in one fixed order (`_group_candidates`), with no guessed candidate
first: each set partition of the locals once, in the order in which it
first appears among the tuples of itertools.product (`_partitions`), then
the same again with mut locals joining base groups.  The search is pruned
by conflict (Prosser, 1993): when a premise fails, the group part of its
context's projection onto the names the premise mentions is kept as a
nogood for the rest of the `check_block` call, and a later candidate with a
premise of the same group part fails at once.  Within the call gamma and
the restricted set are fixed, so the group part is equal exactly when the
projection is, and the projection keeps everything the rules read (see
above): the same candidate succeeds first and the same first failure is
reported as without pruning.  Candidates are integer masks, and a context
is built only for one that is checked (`_GroupSearch`).
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
    MethodSig,
    New,
    Plus,
    Program,
    Qualifier,
    RefType,
    StaticCall,
    Type,
    Var,
    block_gamma,
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
    the Checker, alive in a reference cycle."""

    __slots__ = ("message", "span")

    def __init__(self, err: IllTyped):
        self.message = str(err)
        self.span = err.span

    def error(self) -> IllTyped:
        return IllTyped(self.message, self.span)


@dataclass(slots=True)
class Judgment:
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


def _weaken(t: Type) -> Type:
    """mut is weakened to lent (result adjustment of the swap and var rules)."""
    if isinstance(t, RefType) and t.qualifier is Qualifier.MUT:
        return RefType(Qualifier.LENT, t.cname)
    return t


def _partitions(groups: tuple, bits: list):
    """The groups (masks) with each of bits, in order, joining one of them
    or a new group after them: the first bit each group in turn, then a new
    one, and so on for the rest.  Each set partition comes once, in the
    order in which it first appears among the tuples of
    itertools.product(range(len(groups) + len(bits)), repeat=len(bits)),
    tuple position i naming the group of bits[i] and new groups numbered in
    order of first use."""
    if not bits:
        yield groups
        return
    x, rest = bits[0], bits[1:]
    for j in range(len(groups)):
        yield from _partitions(groups[:j] + (groups[j] | x,) + groups[j + 1:], rest)
    yield from _partitions(groups + (x,), rest)


def _group_candidates(lent_locals, base_groups, eligible, bits):
    """Group assignments for a block's locals, each a tuple of groups as
    masks over bits (`_Bits`): the base groups in order, perhaps extended,
    then new groups in order of first use.

    First every assignment of the lent locals to base groups or to new
    groups among themselves, each set partition once (`_partitions`); with
    no lent locals, the base groups alone.  As a last resort the eligible
    mut locals (`_fallback_locals`) may join base groups too: a pure
    weakening (a grouped variable is usable as lent) which some store
    shapes produced by reduction need; one with no bit is not mut in gamma
    (a later declaration retyped it) and joins none.  Base groups are
    disjoint and non-empty, so no candidate repeats.  A candidate whose
    groups overlap (a name declared twice, placed in two groups) is not
    yielded: masks are disjoint exactly when their sum is their union,
    which is known before the candidate is built.
    """
    base = tuple(map(bits.mask, base_groups))
    union = bits.mask(lent_locals) | sum(base)
    lent = []  # the lent-local candidates, again for every fallback choice
    for groups in _partitions(base, [bits.bit[x] for x in lent_locals]):
        if sum(groups) == union:
            lent.append(groups)
            yield groups
    k = len(base)
    for choice in itertools.product(*[
        (None,) + touched if x in bits.bit else (None,) for x, touched in eligible
    ]):
        if all(c is None for c in choice):
            continue
        extra, whole = [0] * k, union
        for (x, _), c in zip(eligible, choice):
            if c is not None:
                extra[c] |= bits.bit[x]
                whole |= bits.bit[x]
        for lent_groups in lent:
            groups = tuple(map(int.__or__, lent_groups, extra)) + lent_groups[k:]
            if sum(groups) == whole:
                yield groups


class _Bits:
    """A bit index of names: each name one bit, a set of them one int (a
    mask).  The frozenset of a mask is built on first use and kept; sets
    given at the start are kept as they are."""

    __slots__ = ("names", "bit", "_sets")

    def __init__(self, names, sets=()):
        self.names = tuple(names)
        self.bit = {x: 1 << i for i, x in enumerate(self.names)}
        self._sets = {self.mask(g): g for g in sets}

    def mask(self, names) -> int:
        """The mask of names; a name with no bit is left out."""
        bit, m = self.bit, 0
        for x in names:
            m |= bit.get(x, 0)
        return m

    def set(self, m: int) -> frozenset:
        s = self._sets.get(m)
        if s is None:
            s = self._sets[m] = frozenset(
                [x for i, x in enumerate(self.names) if m >> i & 1]
            )
        return s


_LEAVES = (Var, IntLit)


class _InProgress:
    pass


_IN_PROGRESS = _InProgress()


class Checker:
    def __init__(self, table: ClassTable, budget: Optional[int] = None):
        self.table = table
        self.budget = DEFAULT_BUDGET if budget is None else budget
        self.ticks = 0
        # the memo keys a term in a context; what a term is on its own (the
        # names it mentions, its free variables) is kept on the term
        # (`syntax.node_cached`)
        self.memo: dict = {}
        # the root state the current query was asked with (see check_block)
        self._query: Optional[RootState] = None

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------

    def query(
        self, ctx: TypeContext, e: Expr, goal: Optional[Type],
        root: Optional[RootState] = None,
    ) -> Judgment:
        """Start a top-level query, with the whole budget and an empty memo,
        and answer it: check e in ctx against goal.  root, when given, is
        the root state of the block e in ctx (`RootState`, moved on to e by
        its caller): `check_block` keeps premise judgments in it for the
        next query, and it is all a query carries over from the last one.
        A `check` on a fresh Checker answers its first query as this
        does."""
        self.ticks = 0
        self.memo.clear()
        self._query = root
        return self.check(ctx, e, goal)

    def check(self, ctx: TypeContext, e: Expr, goal: Optional[Type]) -> Judgment:
        """Derive a judgment for e whose result is <= goal (or the structural
        minimum when goal is None), within the current query (see `query`).

        Every term asked about must stay alive for the rest of the query:
        memo entries are keyed by id(e).  A hit on a check still in
        progress fails as "cyclic search"; a failure that met one is
        memoized like any other, for the rest of its query only.

        A variable or literal whose structural rule meets the goal is
        judged at once, with no memo probe: t-var reads only the variable's
        gamma entry, group and restriction, so the judgment is the one
        `_check` would return, for the one tick a memo hit costs.  It gets
        no memo entry; no search can meet it in progress, since its rule
        asks nothing further.  A leaf whose rule fails, or misses the goal,
        is checked as any term."""
        self._tick()
        if e.__class__ in _LEAVES:
            # a leaf whose structural rule meets the goal has the judgment
            # _check would find, whatever the memo holds: judge it at once
            try:
                j = self._structural(ctx, e, goal)
            except IllTyped:
                pass
            else:
                if goal is None or subtype(j.result, goal):
                    return self._sub(j, goal)
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
            del memo[key]  # a search cut short (SearchExhausted) leaves nothing
            raise
        memo[key] = j
        return j

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
            raise first.error()  # with no goal, only a failure leads here
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
        # group swap.  It never concludes a mut goal, so it is not tried for
        # one.  By induction on the derivation, a check against mut ends at
        # mut: the structural rules (t-block among them) end in _sub, which
        # ends at the goal; the promotions and t-unrst are not tried for
        # mut; and a t-swap conclusion is _weaken(r), with r the result of
        # a check against the goal or mut (_swap_goals), here against mut,
        # so r is mut and _weaken(mut) = lent is not <= mut.
        mut_goal = isinstance(goal, RefType) and goal.qualifier is Qualifier.MUT
        for g in () if mut_goal else ctx.groups:
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
                    # the swapped group's members the term mentions (see
                    # the module docstring)
                    note = ("swap", tuple(sorted(g & mentions(e))))
                    return Judgment(e, weakened, "t-swap", (j,), note=note)
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
                    return Judgment(e, j.result, "t-unrst", (j,))
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
        return Judgment(j.expr, goal, "t-sub", (j,))

    def _try_capsule(self, ctx: TypeContext, e: Expr, cname: str) -> Judgment:
        ctx2 = ctx.grouped(ctx.restricted)
        j = self.check(ctx2, e, RefType(Qualifier.MUT, cname))
        return Judgment(e, RefType(Qualifier.CAPSULE, cname), "t-capsule", (j,))

    def _try_imm(self, ctx: TypeContext, e: Expr, cname: str) -> Judgment:
        restricted = ctx.mut_or_read_names()
        j = self.check(ctx.grouped(restricted), e, RefType(Qualifier.READ, cname))
        return Judgment(e, RefType(Qualifier.IMM, cname), "t-imm", (j,))

    # ------------------------------------------------------------------
    # structural rules
    # ------------------------------------------------------------------

    def _structural(self, ctx: TypeContext, e: Expr, goal: Optional[Type]) -> Judgment:
        if isinstance(e, Var):
            return self._var(ctx, e)
        if isinstance(e, IntLit):
            return Judgment(e, INT, "t-int")
        if isinstance(e, Plus):
            jl = self.check(ctx, e.left, INT)
            jr = self.check(ctx, e.right, INT)
            return Judgment(e, INT, "t-plus", (jl, jr))
        if isinstance(e, New):
            return self._new(ctx, e)
        if isinstance(e, FieldAccess):
            return self._field_access(ctx, e)
        if isinstance(e, FieldAssign):
            return self._field_assign(ctx, e)
        if isinstance(e, (MethodCall, StaticCall)):
            return self._call(ctx, e)
        if isinstance(e, Block):
            return self.check_block(ctx, e, goal)
        raise TypeError(f"not an expression: {e!r}")

    def _var(self, ctx: TypeContext, e: Var) -> Judgment:
        t = ctx.env.get(e.name)
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
        return Judgment(e, t, "t-var")

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
        return Judgment(e, RefType(Qualifier.MUT, e.cname), "t-new", premises)

    def _field_access(self, ctx: TypeContext, e: FieldAccess) -> Judgment:
        cname = _receiver_type(self.table, ctx.env, e.recv).cname
        jr = self.infer(ctx, e.recv)
        ft = _field_type(self.table, cname, e)
        if isinstance(ft, RefType) and ft.qualifier is Qualifier.MUT:
            result: Type = RefType(jr.result.qualifier, ft.cname)
        else:
            result = ft  # imm and int fields keep their declared type
        return Judgment(e, result, "t-field-access", (jr,))

    def _field_assign(self, ctx: TypeContext, e: FieldAssign) -> Judgment:
        cname = _receiver_type(self.table, ctx.env, e.recv).cname
        jr = self.check(ctx, e.recv, RefType(Qualifier.MUT, cname))
        ft = _field_type(self.table, cname, e)
        jv = self.check(ctx, e.value, ft)
        return Judgment(e, ft, "t-field-assign", (jr, jv))

    def _call(self, ctx: TypeContext, e: MethodCall | StaticCall) -> Judgment:
        """t-meth-call (e a MethodCall) and t-static-call (a StaticCall)."""
        static = e.__class__ is StaticCall
        cname = e.cname if static else _receiver_type(self.table, ctx.env, e.recv).cname
        sig = _method(self.table, cname, e)
        m = f"{cname}.{e.mname}"
        if (sig.this_qual is None) is not static:
            raise IllTyped(
                f"method {m} is not static" if static
                else f"method {m} is static; call it as {m}(...)",
                _span(e),
            )
        if len(sig.params) != len(e.args):
            raise IllTyped(
                f"{m}: expected {len(sig.params)} arguments, got {len(e.args)}",
                _span(e),
            )
        premises = () if static else (
            self.check(ctx, e.recv, RefType(sig.this_qual, cname)),
        )
        premises += tuple(
            self.check(ctx, a, pt) for a, (pt, _) in zip(e.args, sig.params)
        )
        return Judgment(
            e, sig.ret, "t-static-call" if static else "t-meth-call", premises
        )

    # ------------------------------------------------------------------
    # blocks
    # ------------------------------------------------------------------

    def check_block(
        self, ctx: TypeContext, block: Block, goal: Optional[Type]
    ) -> Judgment:
        """A block's premises (its initializers, then its body) under the
        first candidate group assignment that types them all, in the order
        `_GroupSearch` gives them, told of each failed premise.  The block
        of the query's root state, in the state's context, keeps the
        judgments of its premises, the body's included, from the last
        query's block (`RootState`, see the module docstring)."""
        decls = block.decls
        if not decls:
            j = self.check(ctx, block.body, goal)
            return Judgment(block, j.result, "t-block", (j,))
        root = self._query
        if root is not None and (root.block is not block or root.ctx is not ctx):
            root = None
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
            if root.untyped:
                raise _untyped(root.scope.held(root.untyped)[0])
            dom, gamma = root.scope.env, root.gamma
            lent_locals = [d.name for d in root.scope.held(root.lent)]
        env = gamma.env
        base_groups = tuple(h for h in (g.difference(dom) for g in ctx.groups) if h)
        restricted = ctx.restricted.difference(dom)
        if len(lent_locals) > MAX_LENT_LOCALS:
            raise SearchExhausted(
                f"block has {len(lent_locals)} lent locals (cap {MAX_LENT_LOCALS})",
                block.span,
            )
        # premise i < len(decls) checks declaration i, premise len(decls)
        # the body, each against the same goal for every candidate
        search = _GroupSearch(block, gamma, restricted, lent_locals, base_groups)
        n = len(decls)
        first: Optional[_Failure] = None
        for ctx_body in search:
            todo = None if root is None else root.to_check(ctx_body, goal)
            if todo is None:
                todo, premises = range(n + 1), [None] * (n + 1)
            else:  # the judgments the root state keeps, the others to come
                premises = root.premises()
            fresh = {}  # index -> judgment of the premises checked here
            try:
                for i in todo:
                    if i == n:
                        j = self.check(ctx_body, block.body, goal)
                    else:
                        d = decls[i]
                        ctx_d = _premise_context(ctx_body, decls, i)
                        j = self._try_consume(block, d, env)
                        if j is None:
                            j = self.check(ctx_d, d.init, env[d.name])
                    premises[i] = fresh[i] = j
            except IllTyped as err:
                first = first or _Failure(err)
                search.failed(i)
                continue
            if root is not None:
                root.keep(ctx_body, goal, fresh)
            # each group cut to the names the block mentions, in order;
            # mentions(block) is asked only when there is a group to cut (a
            # reduct's root block is a new node, and most have no group)
            note = ("groups", tuple(
                tuple(sorted(g & mentions(block))) for g in ctx_body.groups
            ))
            return Judgment(
                block, premises[-1].result, "t-block", tuple(premises), note=note
            )
        raise first.error() if first else IllTyped(
            "no lent-group assignment typechecks", block.span
        )

    def _try_consume(self, block: Block, d: Decl, gamma: dict):
        """A capsule (or imm) declaration may consume a sibling local together
        with the part of the local store only it refers to.  This is the
        transient shape left behind when a call returning capsule unfolds:
        the alias is about to be eliminated, and the consumed store is
        unreachable from anywhere else in the block.  Like a promotion's,
        the judgment has no note: the consumed store is the block's
        declarations connected to the local (`connected_closure`), which the
        block fixes."""
        if not _may_consume(d):
            return None
        y = d.init.name
        if y == d.name:
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
        if not owned or d.name in owned_names:
            return None  # y is no sibling, or its store holds d
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
            t = gamma.get(x)
            if isinstance(t, IntType):
                continue
            if isinstance(t, RefType) and t.qualifier in (
                Qualifier.IMM,
                Qualifier.CAPSULE,
            ):
                continue
            return None
        rule = "t-capsule" if d.dtype.qualifier is Qualifier.CAPSULE else "t-imm"
        return Judgment(d.init, d.dtype, rule, (Judgment(d.init, t_y, "t-var"),))

    def _tick(self):
        self.ticks += 1
        if self.ticks > self.budget:
            raise SearchExhausted(f"search budget of {self.budget} nodes exhausted")


def _span(e: Expr):
    return getattr(e, "span", None)


def _field_type(table: ClassTable, cname: str, e) -> Type:
    """The declared type of field e.fname of class cname (e a FieldAccess or
    a FieldAssign)."""
    try:
        return table.field_type(cname, e.fname)
    except KeyError:
        raise IllTyped(f"no field {e.fname} in class {cname}", _span(e))


def _receiver_type(table: ClassTable, gamma: dict, recv: Expr) -> RefType:
    """The shape of a call's, a field access's or a field assignment's
    receiver: a reference to a class of the table."""
    t = shape_type(table, gamma, recv)
    if not isinstance(t, RefType):
        raise IllTyped("receiver is not an object", _span(recv))
    if t.cname not in table:
        raise IllTyped(f"unknown class {t.cname}", _span(recv))
    return t


def _method(table: ClassTable, cname: str, e) -> MethodSig:
    """The signature of method e.mname of class cname (e a MethodCall or a
    StaticCall)."""
    try:
        return table.method(cname, e.mname)
    except KeyError:
        raise IllTyped(f"no method {e.mname} in class {cname}", _span(e))


def _untyped(d: Decl) -> IllTyped:
    return IllTyped(f"declaration {d.name} lacks a type (unresolved sugar)", d.span)


def _premise_term(block: Block, i: int) -> Expr:
    return block.decls[i].init if i < len(block.decls) else block.body


def _fallback_locals(block: Block, base_groups) -> list:
    """The mut locals that may join base groups as a last resort
    (`_group_candidates`): each whose initializer refers into a
    base group, with the indices of those groups; none when there are more
    than MAX_LENT_LOCALS of them."""
    inits = {d.name: d.init for d in block.decls}
    eligible = []  # (name, tuple of touched base-group indices)
    for d in block.decls:
        if _qualifier(d.dtype) is Qualifier.MUT:
            touched = tuple(
                i for i, g in enumerate(base_groups) if free_vars(inits[d.name]) & g
            )
            if touched:
                eligible.append((d.name, touched))
    return eligible if len(eligible) <= MAX_LENT_LOCALS else []


def _group_part(
    groups: tuple, own: int, names: int, muts: int, restricted: int
) -> tuple:
    """The group part of a premise's projection (see the module docstring) on
    masks, under a candidate's groups.  own is the bit of the premise's
    local, whose group its premise context swaps with the mutable group
    (`_premise_context`; 0 for the body); names is the mask of the names
    the premise mentions, muts that of gamma's mut names and restricted
    that of the restricted names outside names.  Each group, and the
    mutable group last, is packed into one int: its members among the
    names, whether it has others, and whether those include restricted
    names.  The mutable group's members among the names follow from gamma
    and the groups'."""
    mg = muts & ~sum(groups)  # the groups are disjoint: their sum is their union
    if own:
        for j, g in enumerate(groups):
            if g & own:
                groups = groups[:j] + groups[j + 1:] + ((mg,) if mg else ())
                mg = g
                break
    others = ~names
    return tuple([
        (g & names) << 2 | (g & others != 0) << 1 | (g & restricted != 0)
        for g in groups + (mg,)
    ])


class _GroupSearch:
    """The candidate contexts of one `Checker.check_block` call, in the
    order of `_group_candidates`, skipping each with a premise whose
    group part (`_group_part`) is that of a failed one (see the module
    docstring); check_block reports each failed premise (`failed`).  A
    block with no lent locals has one candidate, its base groups, made a
    context at once; masks (`_Bits`) come only when it fails and mut locals
    may join groups (`_fallback_locals`).

    Well-formedness is decided once per call.  Within one call gamma, its
    lent count, the restricted set and the base groups are fixed, and
    neither the base groups nor the restricted set hold a name the block
    declares.  Each base-group member and each lent local is in a group of
    every candidate, and a restricted name is in a group exactly when it
    is in a base group.  So `wf_context` of a candidate is that of the base
    groups plus one group of all lent locals, but for two cases of a name
    declared twice: placed in two groups, which `_group_candidates` tests
    on masks; or a fallback mut local that a later declaration retyped,
    which has no bit and joins no group there."""

    __slots__ = ("block", "gamma", "restricted", "lent_locals", "base_groups",
                 "_failed")

    def __init__(self, block, gamma, restricted, lent_locals, base_groups):
        self.block = block
        self.gamma = gamma
        self.restricted = restricted
        self.lent_locals = lent_locals
        self.base_groups = base_groups
        self._failed = None

    def failed(self, i: int) -> None:
        """Premise i failed under the last candidate."""
        self._failed = i

    def __iter__(self):
        gamma, restricted = self.gamma, self.restricted
        block, lent_locals, base_groups = self.block, self.lent_locals, self.base_groups
        ctx_body = TypeContext(
            gamma,
            base_groups + (frozenset(lent_locals),) if lent_locals else base_groups,
            restricted,
        )
        if not wf_context(ctx_body):
            return
        if not lent_locals:
            yield ctx_body  # the base groups
        eligible = base_groups and _fallback_locals(block, base_groups)
        if not lent_locals and not eligible:
            return
        bits = _Bits(gamma.muts(), base_groups)
        muts, rst = (1 << len(bits.names)) - 1, bits.mask(restricted)
        decls = block.decls
        premises: dict = {}  # premise index -> its arguments of _group_part
        nogoods: dict = {}  # premise index -> group parts of its failed checks

        def part(groups, i):
            p = premises.get(i)
            if p is None:
                own = bits.bit.get(decls[i].name, 0) if i < len(decls) else 0
                names = bits.mask(mentions(_premise_term(block, i)))
                p = premises[i] = (own, names, muts, rst & ~names)
            return _group_part(groups, *p)

        candidates = _group_candidates(lent_locals, base_groups, eligible, bits)
        if not lent_locals:
            last = next(candidates)  # the base groups, checked above
        for groups in candidates:
            i, self._failed = self._failed, None
            if i is not None:
                nogoods.setdefault(i, set()).add(part(last, i))
            for i, known in nogoods.items():
                if part(groups, i) in known:
                    break  # a premise repeats a failed check
            else:
                last = groups
                yield TypeContext(gamma, tuple(map(bits.set, groups)), restricted)


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
        rt = _receiver_type(table, gamma, e.recv)
        ft = _field_type(table, rt.cname, e)
        if isinstance(ft, RefType) and ft.qualifier is Qualifier.MUT:
            q = rt.qualifier
            if q is Qualifier.CAPSULE:
                q = Qualifier.MUT
            return RefType(q, ft.cname)
        return ft
    if isinstance(e, FieldAssign):
        return _field_type(table, _receiver_type(table, gamma, e.recv).cname, e)
    if isinstance(e, MethodCall):
        return _method(table, _receiver_type(table, gamma, e.recv).cname, e).ret
    if isinstance(e, StaticCall):
        return _method(table, e.cname, e).ret
    if isinstance(e, Block):
        # a discard's type is inferred once, by `resolve_implicit_types`
        return shape_type(table, block_gamma(gamma, e.decls), e.body)
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
        g2 = block_gamma(gamma, e.decls)
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


def typecheck_program(p: Program, budget=None) -> dict:
    """Judgments for every method body and the main expression.

    Raises the first TypeCheckError encountered; callers wanting all errors
    can iterate classes themselves.
    """
    out = {}
    for cname, cd in p.table.classes.items():
        for mname, sig in cd.methods.items():
            ctx = method_context(p.table, cname, sig)
            checker = Checker(p.table, budget)
            out[f"{cname}.{mname}"] = checker.check(ctx, sig.body, sig.ret)
    checker = Checker(p.table, budget)
    out["main"] = checker.infer(TypeContext.make({}), p.main)
    return out
