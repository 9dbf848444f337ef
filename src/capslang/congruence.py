"""Congruence on terms: alpha-conversion and reordering of evaluated
declarations (used for comparison), plus normalization of values to
well-formed right-values with the node facts of its fixed points, and the
well-formedness predicates for right-values and stores."""

from __future__ import annotations

import itertools
from typing import Optional

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
    children,
    free_vars,
    is_evaluated,
    is_objstate,
    is_rightvalue,
    is_value,
    node_cached,
    rename,
    stored_type,
)


class NameSupply:
    """Fresh names: base + '#' + counter.  '#' is not lexable in source, so
    generated names never collide with user-written ones."""

    def __init__(self, start: int = 0):
        self.counter = start

    def fresh(self, hint: str = "v") -> str:
        self.counter += 1
        base = hint.split("#", 1)[0] or "v"
        return f"{base}#{self.counter}"


# ---------------------------------------------------------------------------
# Well-formedness of right-values and stores
# ---------------------------------------------------------------------------


def connected_closure(decls: tuple, names: frozenset) -> tuple:
    """ds|X: the declarations (transitively) connected to the names in X."""
    index = {d.name: d for d in decls}
    keep = {x for x in names if x in index}
    changed = True
    while changed:
        changed = False
        for x in list(keep):
            for y in free_vars(index[x].init):
                if y in index and y not in keep:
                    keep.add(y)
                    changed = True
    return tuple(d for d in decls if d.name in keep)


def wf_rightvalue(rv: Expr) -> bool:
    if is_objstate(rv):
        return True
    if isinstance(rv, Block) and rv.decls and is_rightvalue(rv):
        # no garbage: every local is (transitively) connected to the body
        if connected_closure(rv.decls, free_vars(rv.body)) != rv.decls:
            return False
        # int members hold literals (transient, substituted away); object
        # members are recursively well-formed
        return all(
            isinstance(d.init, IntLit) or wf_rightvalue(d.init)
            for d in rv.decls
        )
    return False


def all_mut(decls: tuple) -> bool:
    # lent declarations count as mut (see `stored_type`)
    return all(
        isinstance(d.dtype, RefType)
        and stored_type(d.dtype).qualifier is Qualifier.MUT
        for d in decls
    )


def wf_store_decl(d: Decl) -> bool:
    """A single evaluated declaration as part of a well-formed store."""
    if isinstance(d.dtype, IntType):
        return False  # int declarations are transient (substituted away)
    q = d.dtype.qualifier
    if q is Qualifier.CAPSULE:
        return False  # capsule declarations are consumed, never stored
    if is_objstate(d.init):
        return True
    if isinstance(d.init, Block) and is_rightvalue(d.init):
        # a block right-value can only be associated to an imm reference,
        # and its local store must be all-mut and itself well-formed
        return (
            q is Qualifier.IMM
            and wf_rightvalue(d.init)
            and all_mut(d.init.decls)
            and all(map(wf_store_decl, d.init.decls))
        )
    return False


@node_cached
def is_stored(d: Decl) -> bool:
    """d is an evaluated declaration of a well-formed store: decomposition
    steps over it."""
    return is_evaluated(d) and wf_store_decl(d)


# ---------------------------------------------------------------------------
# Value normalization (rules: new, body, garbage, block-elim, to fixpoint)
# ---------------------------------------------------------------------------


def is_imm_decl(d: Decl) -> bool:
    """imm declarations hold their mutable sub-store encapsulated in a block
    right-value: their block initializers are not flattened, and only their
    imm members may move out into the enclosing store."""
    return isinstance(d.dtype, RefType) and d.dtype.qualifier is Qualifier.IMM


def normalize_value(
    v: Expr, table: ClassTable, supply: Optional[NameSupply] = None
) -> Expr:
    """Normalize a value to a bare reference/literal or a well-formed
    right-value (modulo the store constraints enforced by reduction).

    The output shares every node of v that normalization leaves as it is:
    v itself when it is already normal (`is_normal_value`), and otherwise
    each known-normal subvalue and each declaration whose initializer did
    not change.  Only the `New`, `Decl` and `Block` nodes with a changed
    child are rebuilt."""
    if supply is None:
        supply = NameSupply()
    assert is_value(v), f"not a value: {v!r}"
    return _norm(v, table, supply)


@node_cached
def is_normal_value(v: Expr) -> bool:
    """v is a fixed point of value normalization: `normalize_value(v)` is
    v.  The rules hoist non-reference constructor arguments, flatten block
    initializers of non-imm declarations and block bodies, collect garbage
    and eliminate empty blocks, and each depends on the node alone."""
    if isinstance(v, (Var, IntLit)):
        return True
    if isinstance(v, New):
        return is_objstate(v)
    return (
        isinstance(v, Block)
        and bool(v.decls)
        and not isinstance(v.body, Block)
        and is_normal_value(v.body)
        and all(
            is_normal_value(d.init)
            and (is_imm_decl(d) or not isinstance(d.init, Block))
            for d in v.decls
        )
        and connected_closure(v.decls, free_vars(v.body)) == v.decls
    )


@node_cached
def is_normal_term(e: Expr) -> bool:
    """`Reducer.normalize_term(e, top=False)` is e: e is a normal value, or
    no value and no block without declarations (normalization replaces one
    by its body) and all its children are fixed points."""
    if is_value(e):
        return is_normal_value(e)
    if isinstance(e, Block) and not e.decls:
        return False
    return all(map(is_normal_term, children(e)))


def _norm(v: Expr, table: ClassTable, supply: NameSupply) -> Expr:
    if is_normal_value(v):
        return v
    if isinstance(v, New):
        args = tuple(_norm(a, table, supply) for a in v.args)
        hoisted = []
        refs = []
        fields = table.fields(v.cname) if v.cname in table else None
        for i, a in enumerate(args):
            if isinstance(a, (Var, IntLit)):
                refs.append(a)
            else:
                # rule new: a constructor argument must be a reference;
                # hoist it into a local of the field's declared type
                ftype = fields[i][0] if fields else None
                x = supply.fresh("a")
                hoisted.append(Decl(ftype, x, a))
                refs.append(Var(x))
        out: Expr = New(v.cname, tuple(refs), v.span)
        if hoisted:
            out = _norm(Block(tuple(hoisted), out), table, supply)
        return out
    if isinstance(v, Block):
        decls: list = []
        for d in v.decls:
            init = _norm(d.init, table, supply)
            if isinstance(init, Block) and not is_imm_decl(d):
                # rule body: pull the inner local store into this block
                decls.extend(init.decls)
                init = init.body
            if init is not d.init:
                d = Decl(d.dtype, d.name, init, d.span)
            decls.append(d)
        body = _norm(v.body, table, supply)
        if isinstance(body, Block):
            decls.extend(body.decls)
            body = body.body
        # rule garbage: drop locals not connected to the body
        kept = connected_closure(tuple(decls), free_vars(body))
        if not kept:
            return body  # rule block-elim
        return Block(kept, body, v.span)
    raise AssertionError(f"not a value: {v!r}")


# ---------------------------------------------------------------------------
# Alpha/reorder canonical form
# ---------------------------------------------------------------------------


def _shape(e: Expr) -> tuple:
    """Name-insensitive structural key."""
    if isinstance(e, Var):
        return ("var",)
    if isinstance(e, IntLit):
        return ("int", e.value)
    if isinstance(e, FieldAccess):
        return ("get", e.fname, _shape(e.recv))
    if isinstance(e, FieldAssign):
        return ("set", e.fname, _shape(e.recv), _shape(e.value))
    if isinstance(e, MethodCall):
        return ("call", e.mname, _shape(e.recv)) + tuple(_shape(a) for a in e.args)
    if isinstance(e, StaticCall):
        return ("scall", e.cname, e.mname) + tuple(_shape(a) for a in e.args)
    if isinstance(e, New):
        return ("new", e.cname) + tuple(_shape(a) for a in e.args)
    if isinstance(e, Plus):
        return ("plus", _shape(e.left), _shape(e.right))
    if isinstance(e, Block):
        return (
            ("block",)
            + tuple(("decl", str(d.dtype), _shape(d.init)) for d in e.decls)
            + (_shape(e.body),)
        )
    raise TypeError(f"not an expression: {e!r}")


def _sort_run(run: list, block: Block) -> list:
    """Order a contiguous run of evaluated declarations canonically.

    Keys start from the name-insensitive shape and are refined twice with the
    keys of referenced sibling declarations and a referenced-by-body flag, so
    that structurally distinguishable declarations sort deterministically in
    both operands of a comparison.  Ties keep their original relative order,
    except that equal declarations (a copied local store can repeat one) all
    take the position of the first of them.
    """
    names = {d.name for d in run}
    body_fv = free_vars(block.body)
    keys = {d.name: (str(d.dtype), _shape(d.init), d.name in body_fv) for d in run}
    for _ in range(2):
        keys = {
            d.name: (
                keys[d.name],
                tuple(sorted(str(keys[y]) for y in free_vars(d.init) if y in names)),
            )
            for d in run
        }
    pos = []  # of each declaration, or of the first one equal to it
    named: dict = {}
    for i, d in enumerate(run):
        same = named.setdefault(d.name, [])
        pos.append(next((j for j in same if run[j] == d), i))
        same.append(i)
    order = sorted(range(len(run)), key=lambda i: (str(keys[run[i].name]), pos[i]))
    return [run[i] for i in order]


def canonical(e: Expr) -> Expr:
    """Canonical representative modulo alpha-conversion and reordering of
    contiguous evaluated-declaration runs, in one walk: each block's runs
    are sorted (`_sorted_runs`), and its binders numbered v1, v2, ... in
    preorder."""
    counter = itertools.count(1)
    return rename(e, {}, lambda _: f"v{next(counter)}", _sorted_runs)


def _sorted_runs(block: Block) -> list:
    """The block's declarations with every run of evaluated ones sorted by
    `_sort_run`; the block is sorted as it stands, before its children
    are."""
    ordered, run = [], []
    for d in block.decls:
        if is_evaluated(d):
            run.append(d)
        else:
            ordered.extend(_sort_run(run, block))
            run = []
            ordered.append(d)
    ordered.extend(_sort_run(run, block))
    return ordered
