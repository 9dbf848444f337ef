"""Typing contexts, and the root block of a sequence of terms.

A `Gamma` maps names to types.  It hashes as the sum of the hashes of its
entries, an incremental hash (Bellare & Micciancio, 1997): a gamma that
differs from another in a few entries gets its hash, and its sets of mut
and of mut-or-read names, from the other's in proportion to the difference
(`Gamma.updated`), with no re-sort and no re-hash of the rest.

A `TypeContext` is a gamma plus the lent groups and the restricted set, and
is its own memo key (see `typecheck`).

A `RootScope` follows the root block of consecutive terms (the reducts of a
trace) by Decl identity: a reduct keeps the Decl objects of the store its
step did not rewrite, so from one block to the next the scope names the
declarations that are new, those that are gone, and the names whose
declaration in scope is another object now.  A block holds each Decl object
at one position, as the reducer leaves it.  `metatheory.verify_trace`
moves one scope on once per trace term, and both subject reduction and the
store checks spend only on that diff.  A `RootState` is what subject
reduction (`Checker.check_block`) keeps of the root block on that shared
scope, and all it carries from one term to the next: the block's gamma,
moved on by every diff, and the judgments of its premises, its body's
included.
"""

from __future__ import annotations

from typing import Optional

from .syntax import Decl, Qualifier, RefType, Var, mentions, stored_type

_MASK = (1 << 64) - 1


def _qualifier(t) -> Optional[Qualifier]:
    return t.qualifier if isinstance(t, RefType) else None


class Gamma:
    """A gamma, name -> Type, never changed once built.  It iterates as its
    (name, Type) entries; gammas are equal when their entries are, in any
    order.  Its hash is the sum of the entries' hashes, computed once; the
    names typed mut, those typed mut or read, and the number of lent
    entries are computed on first use and kept."""

    __slots__ = ("env", "_hash", "_muts", "_mutreads", "_lents")

    def __init__(self, env: dict, hash_: Optional[int] = None):
        self.env = env
        if hash_ is None:
            hash_ = sum(map(hash, env.items())) & _MASK
        self._hash = hash_
        self._muts = self._mutreads = self._lents = None

    def __iter__(self):
        return iter(self.env.items())

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Gamma):
            return NotImplemented
        return self._hash == other._hash and self.env == other.env

    def __repr__(self) -> str:
        return f"Gamma({self.env!r})"

    def muts(self) -> frozenset:
        if self._muts is None:
            self._muts = frozenset(
                n for n, t in self.env.items() if _qualifier(t) is Qualifier.MUT
            )
        return self._muts

    def mut_or_read(self) -> frozenset:
        if self._mutreads is None:
            self._mutreads = frozenset(
                n for n, t in self.env.items()
                if _qualifier(t) in (Qualifier.MUT, Qualifier.READ)
            )
        return self._mutreads

    def lents(self) -> int:
        if self._lents is None:
            self._lents = sum(
                _qualifier(t) is Qualifier.LENT for t in self.env.values()
            )
        return self._lents

    def updated(self, changes: dict) -> "Gamma":
        """This gamma with each name of changes typed as changes says, or
        dropped where changes says None."""
        env = dict(self.env)
        h, lents = self._hash, self.lents()
        muts, mutreads = [], []
        for x, t in changes.items():
            old = env.pop(x, None)
            if old is not None:
                h -= hash((x, old))
                lents -= _qualifier(old) is Qualifier.LENT
            if t is not None:
                env[x] = t
                h += hash((x, t))
                q = _qualifier(t)
                lents += q is Qualifier.LENT
                if q is Qualifier.MUT:
                    muts.append(x)
                if q is Qualifier.MUT or q is Qualifier.READ:
                    mutreads.append(x)
        out = Gamma(env, h & _MASK)
        out._muts = self.muts().difference(changes).union(muts)
        out._mutreads = self.mut_or_read().difference(changes).union(mutreads)
        out._lents = lents
        return out


class TypeContext:
    """Gamma plus the lent groups (xss) and restricted variables (ys).

    Lent-ness of a variable is encoded by membership in a lent group while its
    gamma entry stays mut; the mutable group is derived (mut variables not in
    any lent group).

    A context is its own memo key: (gamma, the set of its groups, the
    restricted set), hashed once when it is built.  Each part hashes
    without regard to order, so no group is sorted; for well-formed
    contexts, whose groups are disjoint and non-empty, two contexts are
    equal exactly when their gammas, restricted sets and groups in any
    order are.  The mutable group is built on first use and kept, and so
    are the contexts `swap` builds; what depends on gamma alone is kept on
    the `Gamma`, which derived contexts share.
    """

    __slots__ = (
        "gamma", "groups", "restricted", "_fp", "_hash", "_mutable", "_swapped",
    )

    def __init__(
        self,
        gamma: Gamma,
        groups: tuple = (),  # of frozenset
        restricted: frozenset = frozenset(),
    ):
        self.gamma = gamma
        self.groups = groups
        self.restricted = restricted
        self._fp = (gamma, frozenset(groups), restricted)
        self._hash = hash(self._fp)
        self._mutable = None
        self._swapped = None

    @staticmethod
    def make(gamma: dict, groups=(), restricted=frozenset()) -> "TypeContext":
        return TypeContext(
            Gamma(dict(gamma)),
            tuple(g for g in groups if g),
            frozenset(restricted),
        )

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, TypeContext):
            return NotImplemented
        return self._hash == other._hash and self._fp == other._fp

    def __repr__(self) -> str:
        return (
            f"TypeContext(gamma={self.gamma!r}, groups={self.groups!r}, "
            f"restricted={self.restricted!r})"
        )

    @property
    def env(self) -> dict:
        """Gamma as a dict; shared, so callers copy before extending it."""
        return self.gamma.env

    def mutable_group(self) -> frozenset:
        mg = self._mutable
        if mg is None:
            mg = self._mutable = self.gamma.muts().difference(*self.groups)
        return mg

    def mut_or_read_names(self) -> frozenset:
        """The names gamma types mut or read (immutability promotion
        restricts them)."""
        return self.gamma.mut_or_read()

    def group_of(self, x: str) -> Optional[frozenset]:
        """The first group holding x, or None."""
        return next((g for g in self.groups if x in g), None)

    def swap(self, g: frozenset) -> "TypeContext":
        """Lent group g exchanged with the mutable group; built once per
        context and group."""
        table = self._swapped
        if table is None:
            table = self._swapped = {}
        out = table.get(g)
        if out is None:
            out = table[g] = self._with_mutable_group(
                tuple(h for h in self.groups if h != g), self.restricted
            )
        return out

    def grouped(self, restricted: frozenset) -> "TypeContext":
        """The mutable group made one more lent group (the premise context of
        capsule and immutability promotion), with the given restricted set."""
        return self._with_mutable_group(self.groups, restricted)

    def _with_mutable_group(self, groups, restricted) -> "TypeContext":
        if self.mutable_group():
            groups += (self._mutable,)
        return TypeContext(self.gamma, groups, restricted)

    def unrestricted(self) -> "TypeContext":
        return TypeContext(self.gamma, self.groups, frozenset())


def wf_context(ctx: TypeContext) -> bool:
    """The four context well-formedness conditions."""
    gamma = ctx.env
    seen = set()
    for g in ctx.groups:
        if seen & g:
            return False  # groups must be disjoint
        seen |= g
        for x in g:
            if _qualifier(gamma.get(x)) is not Qualifier.MUT:
                return False  # group members are mut in gamma
    if ctx.gamma.lents():
        return False  # no variable is lent in gamma
    for y in ctx.restricted:
        q = _qualifier(gamma.get(y))
        if q not in (Qualifier.MUT, Qualifier.READ):
            return False  # restricted variables are mut or read
        if q is Qualifier.MUT and ctx.group_of(y) is None:
            return False  # restricted mut variables belong to a lent group
    return True


def _premise_context(ctx_body: TypeContext, decls: tuple, i: int) -> TypeContext:
    """The context of premise i of a block: the initializer of a grouped
    local is typed with its own group made mutable; the body (i ==
    len(decls)) and other initializers in the block's context."""
    if i < len(decls):
        own = ctx_body.group_of(decls[i].name)
        if own:
            return ctx_body.swap(own)
    return ctx_body


class RootScope:
    """The declarations of the root block of consecutive terms, compared by
    Decl identity.

    `env` maps each name the block declares to the Decl in scope under it:
    the last declaration of the name, as a walk that binds the block's
    declarations in order leaves it.  `pos` maps id(d) to the index of d in
    `decls`, the block's tuple, which holds each Decl object once.  The
    scope holds the block's Decl objects, so no id it keeps is reused while
    it lives."""

    __slots__ = ("decls", "pos", "env")

    def __init__(self):
        self.decls: tuple = ()
        self.pos: dict = {}
        self.env: dict = {}

    def at(self, ids) -> list:
        """The positions of the Decls with these ids that the block holds,
        in block order."""
        pos = self.pos
        return sorted(pos[i] for i in ids if i in pos)

    def held(self, ids) -> list:
        """The Decls with these ids that the block holds, in block order."""
        return [self.decls[k] for k in self.at(ids)]

    def advance(self, decls: tuple):
        """Move on to a block with these declarations.  Returns (new, gone,
        changed): the Decl objects that the last block did not hold, those
        that this one does not hold, and the names whose Decl in env is
        another one now.  Raises ValueError when the block holds one Decl
        object twice."""
        pos = dict(zip(map(id, decls), range(len(decls))))
        if len(pos) != len(decls):
            d = next(d for k, d in enumerate(decls) if pos[id(d)] != k)
            raise ValueError(f"the root block holds the declaration of {d.name} twice")
        env = {d.name: d for d in decls}
        old_pos, old_env = self.pos, self.env
        new = [decls[k] for i, k in pos.items() if i not in old_pos]
        gone = [self.decls[k] for i, k in old_pos.items() if i not in pos]
        changed = {x for x, d in env.items() if old_env.get(x) is not d}
        changed.update(old_env.keys() - env.keys())
        self.decls, self.pos, self.env = decls, pos, env
        return new, gone, changed


def _may_consume(d: Decl) -> bool:
    """d has the shape `typecheck.Checker._try_consume` may type by
    consuming a sibling declaration."""
    return _qualifier(d.dtype) in (Qualifier.CAPSULE, Qualifier.IMM) and isinstance(
        d.init, Var
    )


_BODY = None  # the key of the body's record; a premise's is id(d) of its Decl


class RootState:
    """What `typecheck.Checker.check_block` keeps of the root block of
    consecutive queries: the queries' context, the root scope they share
    with their caller, the block, its gamma, lent and untyped declarations,
    and the groups, restricted set and name totals of its last derivation
    with the judgments of its premises, the body's included, and the goal
    the body was checked against.

    A premise's record keeps its judgment with the names its term mentions
    (for a declaration, its initializer's and its own name), and how many
    of those are mut or read in gamma and how many are in the mutable
    group.  Its projection has "mut or read names outside the names" and
    "mutable group members beyond the names" exactly when a count is below
    its total; a kept record's count is at most the total before and after
    a move, so a part flips exactly when the total moves and the lower one
    is the count.  Records are indexed by name and by count, so a move
    finds the premises to check again from its diff alone.  The body's
    record holds only while the body is the same node and the goal the
    same object; a block body that is reduced last is so checked once, not
    at every reduct.  Grouped declarations and those that may consume a
    sibling get no record: they are checked every time.  The records are
    dropped when a move follows a block whose derivation they do not hold
    (its query failed, or none was asked with this state): a premise may
    read a name that moved before.

    Records and judgments are kept per Decl object, which the block holds
    at one position, and the body's under `_BODY`."""

    __slots__ = ("ctx", "scope", "block", "gamma", "changed", "lent", "untyped",
                 "groups", "restricted", "totals", "goal", "judgments", "_records",
                 "_readers", "_counted", "_unrecorded", "_kept")

    def __init__(self, ctx: TypeContext, scope: RootScope):
        self.ctx = ctx
        self.scope = scope
        self.block = None
        self.gamma = ctx.gamma
        self.changed: dict = {}  # name -> its new type, or None, in the last move
        self.lent: dict = {}  # id(d) -> d, the block's lent declarations
        self.untyped: dict = {}  # id(d) -> d, those that lack a type
        self.groups = self.restricted = self.totals = self.goal = None
        self.judgments: dict = {}  # id(d), or _BODY -> the judgment of the premise
        self._records: dict = {}  # id(d), or _BODY -> (its names, its two counts)
        self._readers: dict = {}  # name -> keys of the records naming it
        self._counted: dict = {}  # (0 or 1, count) -> keys of the records
        self._unrecorded: set = set()  # ids of the block's other declarations
        self._kept = False  # the records hold the block's derivation

    def advance(self, block, new, gone, names) -> None:
        """Move on to block, whose root the scope has just moved on to with
        the diff (new, gone, names) of `RootScope.advance`: its gamma is the
        last one updated from the diff."""
        if not self._kept:
            self._drop()
        self._kept = False
        self.block = block
        for d in gone:
            k = id(d)
            self._forget(k)
            self._unrecorded.discard(k)
            self.lent.pop(k, None)
            self.untyped.pop(k, None)
        for d in new:
            self._unrecorded.add(id(d))
            if d.dtype is None:
                self.untyped[id(d)] = d
            elif _qualifier(d.dtype) is Qualifier.LENT:
                self.lent[id(d)] = d
        env, outer, last = self.scope.env, self.ctx.env, self.gamma.env
        changes = {}
        for x in names:
            d = env.get(x)
            t = stored_type(d.dtype) if d is not None else outer.get(x)
            if last.get(x) != t:
                changes[x] = t
        if changes:
            self.gamma = self.gamma.updated(changes)
        self.changed = changes

    def _totals(self, ctx_body: TypeContext) -> tuple:
        return len(self.gamma.mut_or_read()), len(ctx_body.mutable_group())

    def to_check(self, ctx_body: TypeContext, goal) -> Optional[list]:
        """The indices of the premises that must be checked under candidate
        context ctx_body against goal, in block order, the body's last
        (index len(decls)); every other one keeps its judgment.  None when
        ctx_body's groups or restricted set are not those of the records."""
        if self.groups != ctx_body.groups or self.restricted != ctx_body.restricted:
            return None
        out = set(self._unrecorded)
        for x in self.changed:
            out.update(self._readers.get(x, ()))
        for k, (t0, t1) in enumerate(zip(self.totals, self._totals(ctx_body))):
            if t0 != t1:
                out.update(self._counted.get((k, min(t0, t1)), ()))
        todo = self.scope.at(out)
        if (_BODY in out or self.goal is not goal
                or self.judgments[_BODY].expr is not self.block.body):
            todo.append(len(self.scope.decls))
        return todo

    def premises(self) -> list:
        """The kept judgments of the block's premises, its declarations' in
        order and then its body's, None for each that has none."""
        return list(map(self.judgments.get, [*map(id, self.scope.decls), _BODY]))

    def keep(self, ctx_body: TypeContext, goal, fresh: dict) -> None:
        """Record the judgments of the premises checked afresh (index ->
        judgment, the body's at len(decls)) under ctx_body, the context of
        the block's derivation, and goal; the other records were kept under
        them."""
        if self.groups != ctx_body.groups or self.restricted != ctx_body.restricted:
            self._drop()
            self.groups, self.restricted = ctx_body.groups, ctx_body.restricted
        self._kept = True
        self.totals = self._totals(ctx_body)
        mutreads, mg = self.gamma.mut_or_read(), ctx_body.mutable_group()
        decls = self.scope.decls
        for i, j in fresh.items():
            if i < len(decls):
                d = decls[i]
                k, names = id(d), mentions(d.init)
                self._forget(k)
                if ctx_body.group_of(d.name) is not None or _may_consume(d):
                    self._unrecorded.add(k)
                    continue
                self._unrecorded.discard(k)
                readers = names | {d.name}
            else:
                k, names = _BODY, mentions(self.block.body)
                self._forget(k)
                readers, self.goal = names, goal
            counts = (len(names & mutreads), len(names & mg))
            self.judgments[k] = j
            self._records[k] = (readers, counts)
            for x in readers:
                self._readers.setdefault(x, set()).add(k)
            for key in enumerate(counts):
                self._counted.setdefault(key, set()).add(k)

    def _drop(self) -> None:
        for k in list(self._records):
            self._forget(k)
        self.groups = self.restricted = None

    def _forget(self, k: int) -> None:
        record = self._records.pop(k, None)
        if record is not None:
            del self.judgments[k]
            for x in record[0]:
                self._readers[x].discard(k)
            for key in enumerate(record[1]):
                self._counted[key].discard(k)
