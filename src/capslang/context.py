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
declaration in scope is another object now.  Subject reduction
(`Checker.check_block`) and the store checks of `metatheory` spend only on
that diff.
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

    A context is its own memo key.  Its canonical fingerprint (gamma, the
    groups as sorted tuples in sorted order, the sorted restricted set) and
    the fingerprint's hash are computed once, when it is built; contexts are
    equal exactly when their fingerprints are, so the order of the groups
    does not matter.  The views behind `group_of` and `mutable_group` are
    built on first use and kept, and so are the contexts `swap` builds;
    what depends on gamma alone is kept on the `Gamma`, which derived
    contexts share.  A context derived from `base` reuses base's sorted
    restricted set when the set is the same; `sorted_groups`, the groups as
    sorted tuples, is passed on by derived contexts so that no group is
    sorted twice.
    """

    __slots__ = (
        "gamma", "groups", "restricted", "sorted_groups",
        "_fp", "_hash", "_group_index", "_mutable", "_mutable_sorted", "_swapped",
    )

    def __init__(
        self,
        gamma,  # a Gamma, or a tuple of (name, Type)
        groups: tuple = (),  # of frozenset
        restricted: frozenset = frozenset(),
        base: Optional["TypeContext"] = None,
        sorted_groups: Optional[tuple] = None,  # groups as sorted tuples
    ):
        if not isinstance(gamma, Gamma):
            gamma = Gamma(dict(gamma))
        self.gamma = gamma
        self.groups = groups
        self.restricted = restricted
        if sorted_groups is None:
            sorted_groups = tuple(tuple(sorted(g)) for g in groups)
        self.sorted_groups = sorted_groups
        groups_fp = tuple(sorted(sorted_groups))
        if base is not None and base.restricted is restricted:
            restricted_fp = base._fp[2]
        else:
            restricted_fp = tuple(sorted(restricted))
        self._fp = (gamma, groups_fp, restricted_fp)
        self._hash = hash(self._fp)
        self._group_index = None
        self._mutable = None
        self._mutable_sorted = None
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

    def lookup(self, x: str):
        return self.gamma.env.get(x)

    def mutable_group(self) -> frozenset:
        mg = self._mutable
        if mg is None:
            mg = self._mutable = self.gamma.muts().difference(*self.groups)
        return mg

    def mut_or_read_names(self) -> frozenset:
        """The names gamma types mut or read (immutability promotion
        restricts them)."""
        return self.gamma.mut_or_read()

    def sorted_mutable_group(self) -> tuple:
        key = self._mutable_sorted
        if key is None:
            key = self._mutable_sorted = tuple(sorted(self.mutable_group()))
        return key

    def group_of(self, x: str) -> Optional[frozenset]:
        index = self._group_index
        if index is None:
            index = self._group_index = {}
            for g in self.groups:
                for n in g:
                    index.setdefault(n, g)  # the first group holding n wins
        return index.get(x)

    def fingerprint(self) -> tuple:
        return self._fp

    def swap(self, g: frozenset) -> "TypeContext":
        """Lent group g exchanged with the mutable group; built once per
        context and group."""
        table = self._swapped
        if table is None:
            table = self._swapped = {}
        out = table.get(g)
        if out is None:
            kept = [i for i, h in enumerate(self.groups) if h != g]
            out = table[g] = self._with_mutable_group(
                tuple(self.groups[i] for i in kept),
                tuple(self.sorted_groups[i] for i in kept),
                self.restricted,
            )
        return out

    def grouped(self, restricted: frozenset) -> "TypeContext":
        """The mutable group made one more lent group (the premise context of
        capsule and immutability promotion), with the given restricted set."""
        return self._with_mutable_group(self.groups, self.sorted_groups, restricted)

    def _with_mutable_group(self, groups, sorted_groups, restricted) -> "TypeContext":
        if self.mutable_group():
            groups += (self._mutable,)
            sorted_groups += (self.sorted_mutable_group(),)
        return TypeContext(
            self.gamma, groups, restricted, base=self, sorted_groups=sorted_groups
        )

    def unrestricted(self) -> "TypeContext":
        return TypeContext(
            self.gamma, self.groups, frozenset(), base=self,
            sorted_groups=self.sorted_groups,
        )


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
    `decls`, the block's tuple.  The scope holds the block's Decl objects,
    so no id it keeps is reused while it lives."""

    __slots__ = ("decls", "pos", "env", "_named", "_shared")

    def __init__(self):
        self.decls: tuple = ()
        self.pos: dict = {}
        self.env: dict = {}
        self._named: dict = {}  # name -> the block's Decls of that name
        self._shared: set = set()  # names declared more than once

    def advance(self, decls: tuple):
        """Move on to a block with these declarations.  Returns (new, gone,
        changed): the Decl objects that the last block did not hold, those
        that this one does not hold, and the names whose Decl in env is
        another one now, or none.  Returns None when the block holds one
        Decl object twice; the scope then starts again from an empty
        block."""
        pos = dict(zip(map(id, decls), range(len(decls))))
        if len(pos) != len(decls):
            self.__init__()
            return None
        old, named = self.pos, self._named
        new = [decls[k] for i, k in pos.items() if i not in old]
        gone = [self.decls[k] for i, k in old.items() if i not in pos]
        touched = set(self._shared)  # the last of a shared name may move
        for d in gone:
            rest = [o for o in named[d.name] if o is not d]
            if rest:
                named[d.name] = rest
            else:
                del named[d.name]
            touched.add(d.name)
        for d in new:
            named.setdefault(d.name, []).append(d)
            touched.add(d.name)
        env, changed = self.env, set()
        for x in touched:
            held = named.get(x, ())
            if len(held) > 1:
                self._shared.add(x)
                last = max(held, key=lambda o: pos[id(o)])
            else:
                self._shared.discard(x)
                last = held[0] if held else None
            if env.get(x) is not last:
                changed.add(x)
                if last is None:
                    del env[x]
                else:
                    env[x] = last
        self.decls, self.pos = decls, pos
        return new, gone, changed


def _may_consume(d: Decl) -> bool:
    """d has the shape `typecheck.Checker._try_consume` may type by
    consuming a sibling declaration."""
    return _qualifier(d.dtype) in (Qualifier.CAPSULE, Qualifier.IMM) and isinstance(
        d.init, Var
    )


class RootState:
    """What `typecheck.Checker.check_block` keeps of the block a query asks
    about for the next query: the query's context, the block's scope, gamma
    and lent declarations, and the groups, restricted set and name totals of
    its last derivation with the judgments of its premises.

    A premise's record keeps its judgment with the names its initializer
    mentions and its own name, and how many of those are mut or read in
    gamma and how many are in the mutable group.  Its projection has "mut
    or read names outside the names" and "mutable group members beyond the
    names" exactly when a count is below its total; a kept record's count
    is at most the total before and after a move, so a part flips exactly
    when the total moves and the lower one is the count.  Records are
    indexed by name and by count, so a move finds the premises to check
    again from its diff alone.  Grouped declarations and those that may
    consume a sibling get no record: they are checked every time."""

    __slots__ = ("ctx", "scope", "gamma", "changed", "lent", "groups", "restricted",
                 "totals", "judgments", "_records", "_readers", "_counted",
                 "_unrecorded")

    def __init__(self, ctx: TypeContext):
        self.ctx = ctx
        self.scope = RootScope()
        self.gamma = ctx.gamma
        self.changed: dict = {}  # name -> its new type, or None, in the last move
        self.lent: dict = {}  # id(d) -> d, the block's lent declarations
        self.groups = self.restricted = self.totals = None
        self.judgments: dict = {}  # id(d) -> the judgment of d's premise
        self._records: dict = {}  # id(d) -> (its names, its two counts)
        self._readers: dict = {}  # name -> ids of the records naming it
        self._counted: dict = {}  # (0 or 1, count) -> ids of the records
        self._unrecorded: set = set()  # ids of the block's other declarations

    def advance(self, block) -> Optional[list]:
        """Move on to block: its gamma is the last one updated from the diff
        of the two blocks.  Returns the new declarations that lack a type,
        in block order, or None when the diff is not known (see
        `RootScope.advance`)."""
        scope = self.scope
        diff = scope.advance(block.decls)
        if diff is None:
            return None
        new, gone, names = diff
        for d in gone:
            self._forget(id(d))
            self._unrecorded.discard(id(d))
            self.lent.pop(id(d), None)
        untyped = [d for d in new if d.dtype is None]
        if untyped:
            return sorted(untyped, key=lambda d: scope.pos[id(d)])
        for d in new:
            self._unrecorded.add(id(d))
            if _qualifier(d.dtype) is Qualifier.LENT:
                self.lent[id(d)] = d
        env, outer, last = scope.env, self.ctx.env, self.gamma.env
        changes = {}
        for x in names:
            d = env.get(x)
            t = stored_type(d.dtype) if d is not None else outer.get(x)
            if last.get(x) != t:
                changes[x] = t
        if changes:
            self.gamma = self.gamma.updated(changes)
        self.changed = changes
        return []

    def lent_decls(self) -> list:
        pos = self.scope.pos
        return sorted(self.lent.values(), key=lambda d: pos[id(d)])

    def _totals(self, ctx_body: TypeContext) -> tuple:
        return len(self.gamma.mut_or_read()), len(ctx_body.mutable_group())

    def to_check(self, ctx_body: TypeContext) -> Optional[list]:
        """The indices of the declarations whose premises must be checked
        under candidate context ctx_body, in block order; every other one
        keeps its judgment.  None when ctx_body's groups or restricted set
        are not those of the records."""
        if self.groups != ctx_body.groups or self.restricted != ctx_body.restricted:
            return None
        out = set(self._unrecorded)
        for x in self.changed:
            out.update(self._readers.get(x, ()))
        for k, (t0, t1) in enumerate(zip(self.totals, self._totals(ctx_body))):
            if t0 != t1:
                out.update(self._counted.get((k, min(t0, t1)), ()))
        return sorted(map(self.scope.pos.__getitem__, out))

    def keep(self, ctx_body: TypeContext, decls: tuple, fresh: dict) -> None:
        """Record the judgments of the premises checked afresh (index ->
        judgment) under ctx_body, the context of the block's derivation;
        the other records were kept under it."""
        if self.groups != ctx_body.groups or self.restricted != ctx_body.restricted:
            for k in list(self._records):
                self._forget(k)
            self.groups, self.restricted = ctx_body.groups, ctx_body.restricted
        self.totals = self._totals(ctx_body)
        mutreads, mg = self.gamma.mut_or_read(), ctx_body.mutable_group()
        for i, j in fresh.items():
            d = decls[i]
            k = id(d)
            self._forget(k)
            if ctx_body.group_of(d.name) is not None or _may_consume(d):
                self._unrecorded.add(k)
                continue
            self._unrecorded.discard(k)
            names = mentions(d.init)
            counts = (len(names & mutreads), len(names & mg))
            names = names | {d.name}
            self.judgments[k] = j
            self._records[k] = (names, counts)
            for x in names:
                self._readers.setdefault(x, set()).add(k)
            for key in enumerate(counts):
                self._counted.setdefault(key, set()).add(k)

    def _forget(self, k: int) -> None:
        record = self._records.pop(k, None)
        if record is not None:
            del self.judgments[k]
            for x in record[0]:
                self._readers[x].discard(k)
            for key in enumerate(record[1]):
                self._counted[key].discard(k)
