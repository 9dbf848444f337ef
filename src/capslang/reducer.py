"""Small-step reduction over the store-as-blocks representation.

A term in simplified form is decomposed into an evaluation context (a spine of
block frames, the hole always sitting in a declaration's right-hand side) and
a pre-redex: a field access/method call/field assignment on values, an int
operation, or a block whose next declaration is evaluated but not well-formed
store (alias, int literal, capsule, or a block right-value that must be moved
out).  Exactly one rule applies at the unique decomposition.

Each term of a trace is a reduct after one pass of normalization
(`Reducer.normalize_term`), which applies value congruence to every value
position.  One pass need not reach a fixed point: the trace terms of
`corpus/accept` all are (205 of 205), but 75 of the 1,668 of the verify-n16
benchmark pool are not, 89 of 4,995 of run-n64 and 143 of 2,337 of fuzz-n8.
A step rebuilds only the path from the root to what it changed and shares
every other node with the previous term.  Value normalization returns a
value that is already normal as it is, and otherwise rebuilds only the nodes
whose children changed (`congruence.normalize_value`), so a value a step
moves or copies keeps its nodes, and with them their facts and the
identity-keyed caches of `metatheory`.  A field access or a field assignment
leaves a value in the store and a copy of it in the hole, and the copy gets
declarations of its own (`copy_value`), so a term holds each `Decl` object
once.  What a node is on its own is kept on the node (`syntax.node_cached`):
decomposition steps over the declarations known to be evaluated well-formed
store (`congruence.is_stored`) and asks the value predicates (`is_value`,
`is_evaluated`, ...) once per node, normalization returns its fixed points as
they are (`congruence.is_normal_term`), and substitution (int-elim,
alias-elim, capsule-elim) descends only where the eliminated name is free
(`syntax.free_vars`), as the scope-extrusion and imm-move checks ask too.
So normalizing the next term visits only the rebuilt path and the new
subterms.

The reducer also keeps the decomposition of the store (the root block)
between steps (refocusing, Danvy & Nielsen 2004): `_store` says up to which
position the store's declarations are known to be stored, and which
positions may not hold a fixed point.  A step rebuilds the blocks on its
path and reports what it changed in the store (`_rebuilt`), so the next
`decompose` resumes where the step changed the store and normalization
asks only about the positions the step wrote or left unsettled.  The inner
blocks of a path are scanned from their first declaration: in generated
programs they hold 1.4 declarations on average, at size 8 as at size 64.

So a step calls `normalize_term` and the substitution walk a number of times
set by what it changes (about three and a half at every program size), and
asks about five to six storedness and fixed-point facts, not a number set
by the width of the store.  What still grows with the store is the scan of
`_subst_out`, one free-variable fact per declaration of the block an
eliminated binder leaves, the lookup of a receiver's declaration by name,
and the rebuilt tuples.  The terms are the ones a full re-normalization and
a full substitution walk would give, name for name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .congruence import (
    NameSupply,
    connected_closure,
    is_imm_decl,
    is_normal_term,
    is_stored,
    normalize_value,
)
from .parser import pretty_print
from .syntax import (
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
    Qualifier,
    RefType,
    StaticCall,
    Var,
    free_vars,
    is_evaluated,
    is_objstate,
    is_value,
    map_children,
    rename,
    stored_type,
    substitute,
)


class ReductionError(Exception):
    pass


class StuckTerm(ReductionError):
    pass


class UnboundReference(ReductionError):
    pass


class OutOfFuel(ReductionError):
    def __init__(self, trace):
        super().__init__("fuel exhausted")
        self.trace = trace


@dataclass(unsafe_hash=True)
class Frame:
    """One block frame of an evaluation context: the hole is inside the
    initializer of `block.decls[index]`."""

    block: Block
    index: int

    @property
    def dvs(self) -> tuple:
        return self.block.decls[: self.index]

    @property
    def active(self) -> Decl:
        return self.block.decls[self.index]

    @property
    def rest(self) -> tuple:
        return self.block.decls[self.index + 1 :]


@dataclass(unsafe_hash=True)
class NonWfDecl:
    """Pre-redex: a block whose next declaration is evaluated but not
    well-formed store (alias, int literal, capsule, or block right-value)."""

    block: Block
    index: int


@dataclass
class Decomposition:
    frames: list  # outermost first; hole in frames[-1].active.init
    redex: object  # FieldAccess|MethodCall|StaticCall|FieldAssign|Plus|NonWfDecl


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------


def decompose(e: Expr, first: int = 0) -> Optional[Decomposition]:
    """Unique decomposition into (context frames, pre-redex); None when e is
    fully reduced (a value whose every declaration is well-formed store).

    The declarations of e before position `first` are known to be stored,
    and are not asked again (see `Reducer._rebuilt`)."""
    if isinstance(e, Block):
        for i in range(first, len(e.decls)):
            d = e.decls[i]
            if is_stored(d):
                continue
            if isinstance(d.init, Block):
                inner = decompose(d.init)
            elif is_value(d.init):
                inner = None
            else:
                inner = _decompose_compound(d.init)
            if inner is not None:
                inner.frames.insert(0, Frame(e, i))
                return inner
            # the initializer is internally normal; the declaration itself
            # is the offender
            return Decomposition([], NonWfDecl(e, i))
        if is_value(e.body):
            return None
        raise StuckTerm(f"block body is not a value: {pretty_print(e.body)}")
    if is_value(e):
        return None
    return _decompose_compound(e)


def _decompose_compound(e: Expr) -> Decomposition:
    if isinstance(e, (FieldAccess, MethodCall, StaticCall, FieldAssign, Plus)):
        return Decomposition([], e)
    raise StuckTerm(f"not in simplified form: {pretty_print(e)}")


def plug(frames: list, e: Expr) -> Expr:
    for fr in reversed(frames):
        d = fr.active
        decls = fr.dvs + (Decl(d.dtype, d.name, e, d.span),) + fr.rest
        e = Block(decls, fr.block.body, fr.block.span)
    return e


# ---------------------------------------------------------------------------
# Auxiliary lookup: declarations, runtime types, field projection
# ---------------------------------------------------------------------------


def dec_lookup(frames: list, x: str) -> tuple:
    """(i, d): d is the innermost enclosing evaluated declaration of x and
    frames[i] the frame holding it; (None, None) when x is not bound."""
    for i in range(len(frames) - 1, -1, -1):
        for d in frames[i].block.decls:
            if d.name == x and is_evaluated(d):
                return i, d
    return None, None


def typeof_rv(rv: Expr, frames: list) -> RefType:
    """Runtime types of right-values: object states and blocks ending in a
    constructor call are mut; a block ending in a reference has the declared
    type of that reference."""
    if isinstance(rv, New):
        return RefType(Qualifier.MUT, rv.cname)
    if isinstance(rv, Block):
        if isinstance(rv.body, New):
            return RefType(Qualifier.MUT, rv.body.cname)
        if isinstance(rv.body, Var):
            for d in rv.decls:
                if d.name == rv.body.name:
                    return d.dtype
            _, d = dec_lookup(frames, rv.body.name)
            if d is not None:
                return d.dtype
    raise UnboundReference(f"cannot type value {pretty_print(rv)}")


def field_of(rv: Expr, i: int) -> Expr:
    """Project field i out of a right-value; block right-values carry a copy
    of their local store along with the projection."""
    if isinstance(rv, New):
        return rv.args[i]
    if isinstance(rv, Block):
        if isinstance(rv.body, New):
            return Block(rv.decls, rv.body.args[i], rv.span)
        if isinstance(rv.body, Var):
            for d in rv.decls:
                if d.name == rv.body.name:
                    return Block(rv.decls, field_of(d.init, i), rv.span)
    raise UnboundReference(f"no field projection on {pretty_print(rv)}")


def receiver(frames: list, v: Expr) -> tuple:
    """(class name, right-value) of the receiver value v: a reference is
    looked up once, to its declared class and its right-value."""
    if isinstance(v, Var):
        _, d = dec_lookup(frames, v.name)
        if d is None:
            raise UnboundReference(f"unbound reference {v.name}")
        t, rv = d.dtype, d.init
    else:
        t, rv = typeof_rv(v, frames), v
    if not isinstance(t, RefType):
        raise StuckTerm("receiver is not an object")
    return t.cname, rv


def copy_value(v: Expr) -> Expr:
    """A copy of v with new Decl and Block objects at every depth, under the
    same names; the nodes that hold no block are shared.  A step that leaves
    a value where it was and puts it in the hole too puts a copy there, so a
    term holds each Decl object once."""
    return rename(v, {}, lambda x: x)


# ---------------------------------------------------------------------------
# Global binder freshness
# ---------------------------------------------------------------------------


def freshen(e: Expr, supply: NameSupply) -> Expr:
    """Rename block binders so every binder in the term is globally unique;
    binders whose name is still unused keep it."""
    taken: set = set()

    def namer(name: str) -> str:
        if name in taken:
            name = supply.fresh(name)
        taken.add(name)
        return name

    return rename(e, {}, namer)


# ---------------------------------------------------------------------------
# The reducer
# ---------------------------------------------------------------------------


@dataclass
class ReductionTrace:
    initial: Optional[Expr] = None
    steps: list = field(default_factory=list)  # of (rule name, term)
    done: bool = False

    @property
    def terms(self) -> list:
        """The initial term, then the term after each step."""
        return [self.initial, *(t for _, t in self.steps)]

    @property
    def final(self) -> Expr:
        return self.steps[-1][1] if self.steps else self.initial


class Reducer:
    def __init__(self, table: ClassTable, supply: Optional[NameSupply] = None):
        self.table = table
        self.supply = supply or NameSupply()
        # the store of the current term, (block, first, todo) (see `_rebuilt`)
        self._store: Optional[tuple] = None

    # -- normalization -----------------------------------------------------

    def normalize_term(self, e: Expr, top: bool = True) -> Expr:
        """Apply value congruence to every value position.  The outermost
        block is the program store: its structure (including unreferenced
        declarations) is preserved, only its components are normalized
        (`_normalize_store`).

        Unchanged subterms are shared with e, and a fixed point below the
        store (`congruence.is_normal_term`) is returned at once.  One pass
        need not reach a fixed point: a block that becomes a value in one
        pass is flattened by the next."""
        if not top and is_normal_term(e):
            return e
        if top and isinstance(e, Block):
            out = self._normalize_store(e)
        elif is_value(e):
            return normalize_value(e, self.table, self.supply)
        else:
            out = map_children(e, self.normalize_term, False)
        if isinstance(out, Block) and not out.decls:
            return out.body
        return out

    def _normalize_store(self, e: Block) -> Block:
        """The store e with `normalize_term(., False)` applied to its body
        and to the initializers at the positions `_store` has to do that are
        not fixed points; every other initializer is one.  The result
        becomes the store, and the positions whose new initializer is still
        no fixed point are left to do."""
        decls = list(e.decls)
        if self._store is not None and self._store[0] is e:
            _, first, todo = self._store
        else:
            first, todo = 0, range(len(decls))
        probe = [i for i in todo if not is_normal_term(decls[i].init)]
        for i in probe:
            d = decls[i]
            decls[i] = Decl(d.dtype, d.name, self.normalize_term(d.init, False), d.span)
        body = self.normalize_term(e.body, False)
        out = e
        if probe or body is not e.body:
            out = Block(tuple(decls), body, e.span)
        todo = tuple(i for i in probe if not is_normal_term(decls[i].init))
        self._store = (out, min([first, *probe]), todo)
        return out

    # -- stepping ------------------------------------------------------------

    def step(self, e: Expr):
        """One reduction step: (rule name, new term), or None when e is
        fully reduced."""
        store = self._store
        known = store is not None and store[0] is e
        d = decompose(e, store[1] if known else 0)
        if d is None:
            return None
        redex, frames = d.redex, d.frames
        if known:
            # every declaration of the store before the hole is stored
            self._store = (e, frames[0].index if frames else redex.index, store[2])
        if isinstance(redex, FieldAccess):
            return self._field_access(frames, redex)
        if isinstance(redex, (MethodCall, StaticCall)):
            return self._invoke(frames, redex)
        if isinstance(redex, FieldAssign):
            return self._field_assign(frames, redex)
        if isinstance(redex, Plus):
            return self._plus(frames, redex)
        return self._non_wf_decl(frames, redex)

    def _rebuilt(
        self, old: Block, new: Expr, at: int, n: int = 1, rewritten=()
    ) -> Expr:
        """new, which is old with its declaration `at` replaced by n
        declarations and the declarations at the positions `rewritten` of
        new replaced one for one.  When old is the store, what is known
        about it moves over to new, which becomes the store.

        What the reducer knows about the store is a pair (first, todo): every
        declaration before position first is stored, and every position not
        in todo holds an initializer that is a known fixed point of
        normalization.  A step reports here what it rewrote, inserted or
        removed: first drops to the lowest such position, the positions
        written join todo and the others move with the insertion or removal.
        So neither `decompose` nor normalization looks at the rest of the
        store."""
        store = self._store
        if store is not None and store[0] is old:
            _, first, todo = store
            moved = {p + n - 1 if p > at else p for p in todo if p != at}
            moved.update(range(at, at + n), rewritten)
            self._store = (new, min(first, at, *rewritten), tuple(sorted(moved)))
        return new

    def _plug(self, frames: list, e: Expr) -> Expr:
        """`plug`, which rewrites the store's declaration that holds the
        outermost hole (see `_rebuilt`)."""
        out = plug(frames, e)
        return self._rebuilt(frames[0].block, out, frames[0].index) if frames else out

    def _field_access(self, frames, redex: FieldAccess):
        cname, rv = receiver(frames, redex.recv)
        if not self.table.has_field(cname, redex.fname):
            raise StuckTerm(f"no field {redex.fname} in {cname}")
        i = self.table.field_index(cname, redex.fname)
        # the store keeps the field's value, the hole gets a copy
        v = normalize_value(copy_value(field_of(rv, i)), self.table, self.supply)
        return ("field-access", self._plug(frames, v))

    def _invoke(self, frames, redex):
        if isinstance(redex, StaticCall):
            cname = redex.cname
        else:
            cname, _ = receiver(frames, redex.recv)
        if not self.table.has_method(cname, redex.mname):
            raise StuckTerm(f"no method {redex.mname} in {cname}")
        sig = self.table.method(cname, redex.mname)
        if len(sig.params) != len(redex.args):
            raise StuckTerm(f"arity mismatch calling {cname}.{sig.name}")
        # the call unfolds to a block binding the receiver (at the declared
        # receiver qualifier), the parameters, and the renamed body
        ren = {}
        decls = []
        if isinstance(redex, MethodCall):
            ren["this"] = self.supply.fresh("this")
            decls.append(
                Decl(RefType(sig.this_qual, cname), ren["this"], redex.recv)
            )
        for (pt, pn), a in zip(sig.params, redex.args):
            ren[pn] = self.supply.fresh(pn)
            decls.append(Decl(pt, ren[pn], a))
        body = rename(sig.body, ren, self.supply.fresh)
        z = self.supply.fresh("z")
        decls.append(Decl(sig.ret, z, body))
        return ("invk", self._plug(frames, Block(tuple(decls), Var(z))))

    def _plus(self, frames, redex: Plus):
        if isinstance(redex.left, IntLit) and isinstance(redex.right, IntLit):
            return (
                "plus",
                self._plug(frames, IntLit(redex.left.value + redex.right.value)),
            )
        raise StuckTerm("non-literal int operands")

    # -- field assignment ----------------------------------------------------

    def _field_assign(self, frames, redex: FieldAssign):
        if not isinstance(redex.recv, Var):
            # receiver is not a reference: name it, then assign through it
            t = typeof_rv(redex.recv, frames)
            x = self.supply.fresh("r")
            ft = self.table.field_type(t.cname, redex.fname)
            z = self.supply.fresh("z")
            block = Block(
                (
                    Decl(t, x, redex.recv),
                    Decl(ft, z, FieldAssign(Var(x), redex.fname, redex.value)),
                ),
                Var(z),
            )
            return ("field-assign-prop", self._plug(frames, block))
        x = redex.recv.name
        u = redex.value
        j, xd = dec_lookup(frames, x)
        if xd is None:
            raise UnboundReference(f"unbound reference {x}")
        # scope extrusion: u must not capture declarations from frames deeper
        # than the one declaring x; move the offending store out first,
        # innermost frame first, one move per step
        for k in range(len(frames) - 1, j, -1):
            xs = free_vars(u) & frozenset(d.name for d in frames[k].dvs)
            if xs:
                return self._field_assign_move(frames, k, xs, redex)
        if not isinstance(xd.dtype, RefType):
            raise StuckTerm(f"assignment through non-object reference {x}")
        cname = xd.dtype.cname
        if not self.table.has_field(cname, redex.fname):
            raise StuckTerm(f"no field {redex.fname} in {cname}")
        i = self.table.field_index(cname, redex.fname)
        if not is_objstate(xd.init):
            raise StuckTerm(f"right-value of {x} is not an object state")
        args = list(xd.init.args)
        args[i] = u
        new_rv = New(xd.init.cname, tuple(args), xd.init.span)
        fr = frames[j]
        at = [p for p, d in enumerate(fr.block.decls) if d.name == x]
        decls = list(fr.block.decls)
        for p in at:
            # a name declared twice: each declaration gets its own copy
            rv = new_rv if p == at[0] else copy_value(new_rv)
            decls[p] = Decl(decls[p].dtype, x, rv, decls[p].span)
        block = Block(tuple(decls), fr.block.body, fr.block.span)
        frames2 = list(frames)
        frames2[j] = Frame(self._rebuilt(fr.block, block, at[0], 1, at), fr.index)
        # the object state keeps u, the hole gets a copy
        return ("field-assign", self._plug(frames2, copy_value(u)))

    def _field_assign_move(self, frames, k: int, xs: frozenset, redex):
        """Hoist the store connected to xs from frame k into frame k-1; fails
        when k is outermost (genuine scope extrusion)."""
        if k == 0:
            raise StuckTerm("cannot move store out of the outermost block")
        fr = frames[k]
        moved = connected_closure(fr.block.decls, xs)
        if any(d not in fr.dvs for d in moved):
            raise StuckTerm("store to move is not fully evaluated")
        keep = tuple(d for d in fr.block.decls if d not in moved)
        moved = tuple(_as_stored(d) for d in moved)
        inner_frame = Frame(
            Block(keep, fr.block.body, fr.block.span), fr.index - len(moved)
        )
        outer = frames[k - 1]
        outer_decls = outer.dvs + moved + (outer.active,) + outer.rest
        outer_frame = Frame(
            Block(outer_decls, outer.block.body, outer.block.span),
            outer.index + len(moved),
        )
        frames2 = frames[: k - 1] + [outer_frame, inner_frame] + frames[k + 1 :]
        return ("field-assign-move", self._plug(frames2, redex))

    # -- store-shape rules on evaluated declarations --------------------------

    def _non_wf_decl(self, frames, redex: NonWfDecl):
        block, i = redex.block, redex.index
        d = block.decls[i]
        if isinstance(d.dtype, IntType) and isinstance(d.init, IntLit):
            rule = "int-elim"
        elif isinstance(d.init, Var):
            rule = "alias-elim"
        elif isinstance(d.dtype, RefType) and d.dtype.qualifier is Qualifier.CAPSULE:
            rule = "capsule-elim"
        else:
            rule = None
        if rule is not None:  # substitute the value, drop the declaration
            return (rule, self._plug(frames, self._subst_out(block, i, d.init)))
        if isinstance(d.init, Block):
            q = d.dtype.qualifier
            if q in (Qualifier.MUT, Qualifier.LENT, Qualifier.READ):
                moved = tuple(_as_stored(dd) for dd in d.init.decls)
                kept, rule = (), "mut-move"
            else:  # imm: only the imm part of the local store may escape
                moved = tuple(dd for dd in d.init.decls if is_imm_decl(dd))
                kept = tuple(dd for dd in d.init.decls if not is_imm_decl(dd))
                rule = "imm-move"
                if not moved:
                    raise StuckTerm(
                        f"imm declaration {d.name} has a non-flattenable store"
                    )
                moved_fv = frozenset().union(
                    *(free_vars(m.init) for m in moved)
                )
                if moved_fv & frozenset(kk.name for kk in kept):
                    raise StuckTerm(
                        f"imm store of {d.name} depends on its mutable locals"
                    )
            init = (
                d.init.body if not kept else Block(kept, d.init.body, d.init.span)
            )
            decls = (
                block.decls[:i]
                + moved
                + (Decl(d.dtype, d.name, init, d.span),)
                + block.decls[i + 1 :]
            )
            out = Block(decls, block.body, block.span)
            out = self._rebuilt(block, out, i, len(moved) + 1)
            return (rule, self._plug(frames, out))
        raise StuckTerm(f"declaration {d.name} is evaluated but no rule applies")

    def _subst_out(self, block: Block, index: int, v: Expr) -> Expr:
        """`block` without its declaration `index`, whose value v is
        substituted for the name it declared; only the initializers that
        mention the name are walked."""
        x = block.decls[index].name
        decls = list(block.decls)
        del decls[index]
        at = [i for i, d in enumerate(decls) if x in free_vars(d.init)]
        for i in at:
            d = decls[i]
            decls[i] = Decl(d.dtype, d.name, substitute(d.init, v, x), d.span)
        body = substitute(block.body, v, x)
        if not decls:
            return body
        return self._rebuilt(block, Block(tuple(decls), body, block.span), index, 0, at)

    # -- driver ----------------------------------------------------------------

    def run(self, e: Expr, fuel: int = 10_000) -> ReductionTrace:
        trace = ReductionTrace()
        term = self.normalize_term(freshen(e, self.supply))
        trace.initial = term
        while True:
            r = self.step(term)
            if r is None:
                trace.done = True
                return trace
            if len(trace.steps) >= fuel:
                raise OutOfFuel(trace)
            rule, term = r
            term = self.normalize_term(term)
            trace.steps.append((rule, term))


def _as_stored(d: Decl) -> Decl:
    """A declaration hoisted into an enclosing store, at its stored type."""
    t = stored_type(d.dtype)
    return d if t is d.dtype else Decl(t, d.name, d.init, d.span)
