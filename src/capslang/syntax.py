"""Core syntax: qualifiers, types (interned, one object per type), AST,
class table, and term-level helpers: the generic child walk
(`map_children`), substitution and binder renaming, and the whole-program
rewriter (`map_program`) with the method parameter environments it passes,
and a block's environment (`block_gamma`).

Expressions are immutable by contract: no code assigns a node's field after
construction, and `node_cached` writes only fact attributes
(`tests/test_syntax.py::test_no_pass_mutates_a_node` holds it).  The nodes
are plain dataclasses, not frozen ones: a frozen `__init__` pays one
`object.__setattr__` per field (a `Decl` cost 780 ns against 240 ns, Python
3.11), and every reduction step rebuilds the blocks and declarations on its
path.  Every node carries an optional source span that is ignored by
equality so that alpha-comparison and golden tests are unaffected by
formatting.  Facts that depend on a node alone (its free variables, the
names it mentions, the value predicates `is_value`, `is_objstate`,
`is_rightvalue` and `is_evaluated`, ...) are computed once and kept on the
node (`node_cached`), so terms that share a subterm share its facts.
"""

from __future__ import annotations

import functools
from dataclasses import FrozenInstanceError, dataclass, field
from enum import Enum
from typing import Iterator, Optional, Union


class Qualifier(Enum):
    MUT = "mut"
    IMM = "imm"
    CAPSULE = "capsule"
    LENT = "lent"
    READ = "read"

    # members are singletons: hash by identity, in C, as equality already is
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


# Reflexive-transitive closure of capsule<=mut<=lent<=read, capsule<=imm<=read.
_QUAL_LEQ = {
    (Qualifier.CAPSULE, Qualifier.MUT),
    (Qualifier.CAPSULE, Qualifier.IMM),
    (Qualifier.CAPSULE, Qualifier.LENT),
    (Qualifier.CAPSULE, Qualifier.READ),
    (Qualifier.MUT, Qualifier.LENT),
    (Qualifier.MUT, Qualifier.READ),
    (Qualifier.LENT, Qualifier.READ),
    (Qualifier.IMM, Qualifier.READ),
} | {(q, q) for q in Qualifier}


def qual_leq(a: Qualifier, b: Qualifier) -> bool:
    return (a, b) in _QUAL_LEQ


Span = Optional[tuple]  # (line, col), diagnostics only


class _Interned:
    """Base of the types.  A program has few types (a qualifier and a class
    name each, or int), and each is one object: its class's constructor
    returns the object already built for the same fields.  So equality and
    hashing are those of `object`, by identity and in C, where the checker
    compares and hashes types in every memo key and gamma entry.  A type's
    fields cannot be set, and copying or unpickling one returns the interned
    object (`__reduce__` calls the constructor)."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class IntType(_Interned):
    __slots__ = ()

    def __new__(cls):
        return INT

    def __reduce__(self):
        return IntType, ()

    def __repr__(self) -> str:
        return "IntType()"

    def __str__(self) -> str:
        return "int"


INT = object.__new__(IntType)

_REF_TYPES: dict = {}  # (qualifier, cname) -> the one RefType for them


class RefType(_Interned):
    __slots__ = ("qualifier", "cname")

    def __new__(cls, qualifier: Qualifier, cname: str):
        t = _REF_TYPES.get((qualifier, cname))
        if t is None:
            t = _REF_TYPES[qualifier, cname] = object.__new__(cls)
            object.__setattr__(t, "qualifier", qualifier)
            object.__setattr__(t, "cname", cname)
        return t

    def __reduce__(self):
        return RefType, (self.qualifier, self.cname)

    def __repr__(self) -> str:
        return f"RefType(qualifier={self.qualifier!r}, cname={self.cname!r})"

    def __str__(self) -> str:
        return f"{self.qualifier} {self.cname}"


Type = Union[IntType, RefType]


def stored_type(t: Type) -> Type:
    """The type a declaration or parameter of type t is recorded with, in
    gamma and in the store: lent-ness only restricts how a reference may be
    used while typing, the stored reference is mut."""
    if isinstance(t, RefType) and t.qualifier is Qualifier.LENT:
        return RefType(Qualifier.MUT, t.cname)
    return t


def subtype(t1: Type, t2: Type) -> bool:
    """t1 <= t2: int<=int only; qualified types compare by qualifier, same class."""
    if isinstance(t1, IntType) or isinstance(t2, IntType):
        return t1 == t2
    return t1.cname == t2.cname and qual_leq(t1.qualifier, t2.qualifier)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class _Node:
    """Base of the expression classes and `Decl`.  It has no fields: it only
    holds the class-level default (None) of each `node_cached` fact."""


def node_cached(fn):
    """fn(node), computed once per node and kept on the node itself.

    fn must compute an intrinsic fact, one that depends only on the node's
    fields, and never None.  The fact is an attribute outside the dataclass
    fields, so equality, hashing and repr do not see it; a node shared by
    several terms computes it once for all of them, and it lives exactly as
    long as its node."""
    attr = f"_{fn.__name__}_fact"
    assert not hasattr(_Node, attr), f"two node facts named {fn.__name__}"
    setattr(_Node, attr, None)

    @functools.wraps(fn)
    def cached(node):
        fact = getattr(node, attr)
        if fact is None:
            fact = fn(node)
            setattr(node, attr, fact)
        return fact

    return cached


@dataclass(unsafe_hash=True)
class Var(_Node):
    name: str
    span: Span = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class FieldAccess(_Node):
    recv: "Expr"
    fname: str
    span: Span = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class MethodCall(_Node):
    recv: "Expr"
    mname: str
    args: tuple
    span: Span = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class StaticCall(_Node):
    cname: str
    mname: str
    args: tuple
    span: Span = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class FieldAssign(_Node):
    recv: "Expr"
    fname: str
    value: "Expr"
    span: Span = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class New(_Node):
    cname: str
    args: tuple
    span: Span = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class IntLit(_Node):
    value: int
    span: Span = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class Plus(_Node):
    left: "Expr"
    right: "Expr"
    span: Span = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class Decl(_Node):
    dtype: Type
    name: str
    init: "Expr"
    span: Span = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class Block(_Node):
    decls: tuple  # of Decl, pairwise distinct names
    body: "Expr"
    span: Span = field(default=None, compare=False)


Expr = Union[
    Var, FieldAccess, MethodCall, StaticCall, FieldAssign, New, IntLit, Plus, Block
]


def children(e: Expr) -> Iterator[Expr]:
    if isinstance(e, (Var, IntLit)):
        return
    elif isinstance(e, FieldAccess):
        yield e.recv
    elif isinstance(e, MethodCall):
        yield e.recv
        yield from e.args
    elif isinstance(e, StaticCall):
        yield from e.args
    elif isinstance(e, FieldAssign):
        yield e.recv
        yield e.value
    elif isinstance(e, New):
        yield from e.args
    elif isinstance(e, Plus):
        yield e.left
        yield e.right
    elif isinstance(e, Block):
        for d in e.decls:
            yield d.init
        yield e.body
    else:
        raise TypeError(f"not an expression: {e!r}")


def map_children(e: Expr, f, *extra) -> Expr:
    """e with each child expression c replaced by f(c, *extra), in the order
    of `children`.  Unchanged parts are shared: e itself is returned when f
    returns every child unchanged (`is`), and a declaration keeps its object
    when its initializer is unchanged."""
    if isinstance(e, (Var, IntLit)):
        return e
    if isinstance(e, FieldAccess):
        recv = f(e.recv, *extra)
        return e if recv is e.recv else FieldAccess(recv, e.fname, e.span)
    if isinstance(e, MethodCall):
        recv = f(e.recv, *extra)
        args = _map_tuple(e.args, f, extra)
        if recv is e.recv and args is e.args:
            return e
        return MethodCall(recv, e.mname, args, e.span)
    if isinstance(e, StaticCall):
        args = _map_tuple(e.args, f, extra)
        return e if args is e.args else StaticCall(e.cname, e.mname, args, e.span)
    if isinstance(e, FieldAssign):
        recv = f(e.recv, *extra)
        value = f(e.value, *extra)
        if recv is e.recv and value is e.value:
            return e
        return FieldAssign(recv, e.fname, value, e.span)
    if isinstance(e, New):
        args = _map_tuple(e.args, f, extra)
        return e if args is e.args else New(e.cname, args, e.span)
    if isinstance(e, Plus):
        left = f(e.left, *extra)
        right = f(e.right, *extra)
        if left is e.left and right is e.right:
            return e
        return Plus(left, right, e.span)
    if isinstance(e, Block):
        decls = []
        changed = False
        for d in e.decls:
            init = f(d.init, *extra)
            if init is not d.init:
                d = Decl(d.dtype, d.name, init, d.span)
                changed = True
            decls.append(d)
        body = f(e.body, *extra)
        if not changed and body is e.body:
            return e
        return Block(tuple(decls), body, e.span)
    raise TypeError(f"not an expression: {e!r}")


def _map_tuple(xs: tuple, f, extra: tuple) -> tuple:
    ys = []
    changed = False
    for x in xs:
        y = f(x, *extra)
        changed = changed or y is not x
        ys.append(y)
    return tuple(ys) if changed else xs


# ---------------------------------------------------------------------------
# Class table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MethodSig:
    name: str
    ret: Type
    this_qual: Optional[Qualifier]  # None for static methods
    params: tuple  # of (Type, name)
    body: Expr


@dataclass(frozen=True)
class ClassDef:
    name: str
    fields: tuple  # of (Type, name), ordered
    methods: dict  # name -> MethodSig


class ClassTable:
    def __init__(self, classes: dict):
        self.classes = classes

    def __contains__(self, cname: str) -> bool:
        return cname in self.classes

    def fields(self, cname: str) -> tuple:
        return self.classes[cname].fields

    def has_field(self, cname: str, fname: str) -> bool:
        return cname in self.classes and any(
            f == fname for _, f in self.classes[cname].fields
        )

    def field_index(self, cname: str, fname: str) -> int:
        for i, (_, f) in enumerate(self.classes[cname].fields):
            if f == fname:
                return i
        raise KeyError(f"no field {fname} in class {cname}")

    def field_type(self, cname: str, fname: str) -> Type:
        return self.classes[cname].fields[self.field_index(cname, fname)][0]

    def method(self, cname: str, mname: str) -> MethodSig:
        return self.classes[cname].methods[mname]

    def has_method(self, cname: str, mname: str) -> bool:
        return cname in self.classes and mname in self.classes[cname].methods


@dataclass(frozen=True)
class Program:
    table: ClassTable
    main: Expr


def method_gamma(cname: str, sig: MethodSig) -> dict:
    """The environment a method body is checked and translated in: the
    receiver `this` (absent for static methods) and the parameters, at their
    stored types."""
    gamma = {}
    if sig.this_qual is not None:
        gamma["this"] = stored_type(RefType(sig.this_qual, cname))
    for pt, pn in sig.params:
        gamma[pn] = stored_type(pt)
    return gamma


def block_gamma(gamma: dict, decls) -> dict:
    """The environment of a block's initializers and body: gamma with each
    typed declaration at its stored type (a discard's type is not yet
    inferred)."""
    g2 = dict(gamma)
    for d in decls:
        if d.dtype is not None:
            g2[d.name] = stored_type(d.dtype)
    return g2


def map_program(p: Program, f) -> Program:
    """p with each method body b replaced by f(b, method_gamma(cname, sig))
    and the main expression by f(main, {}), in that order."""
    classes = {}
    for cname, cd in p.table.classes.items():
        methods = {
            mname: MethodSig(
                m.name, m.ret, m.this_qual, m.params, f(m.body, method_gamma(cname, m))
            )
            for mname, m in cd.methods.items()
        }
        classes[cname] = ClassDef(cd.name, cd.fields, methods)
    return Program(ClassTable(classes), f(p.main, {}))


# ---------------------------------------------------------------------------
# Free variables, substitution and renaming
# ---------------------------------------------------------------------------


@node_cached
def free_vars(e: Expr) -> frozenset:
    if isinstance(e, Var):
        return frozenset((e.name,))
    fv = frozenset().union(*map(free_vars, children(e)))
    if isinstance(e, Block):
        fv = fv.difference([d.name for d in e.decls])
    return fv


@node_cached
def mentions(e: Expr) -> frozenset:
    """The variable names e mentions, free or bound."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    names = frozenset().union(*map(mentions, children(e)))
    if isinstance(e, Block):
        names = names.union([d.name for d in e.decls])
    return names


def substitute(e: Expr, v: Expr, x: str) -> Expr:
    """Replace free occurrences of x in e by v.

    The walk descends only into subterms where x is free, so blocks
    declaring x are left untouched; the caller is responsible for avoiding
    capture (alpha-renaming), as all binders here are kept globally fresh by
    the front end.  Subterms where x is not free are shared with e: when x
    is not free in e the result is e itself.
    """
    if isinstance(e, Var):
        return v if e.name == x else e
    if x not in free_vars(e):
        return e
    return map_children(e, substitute, v, x)


def rename(e: Expr, ren: dict, namer, order=None) -> Expr:
    """e with its free variables renamed by `ren` and every block binder x
    renamed to namer(x).  Binders are named in preorder: a block names all
    its binders, in declaration order or the order order(block) gives, and
    holds them so, before its initializers and body are walked.  Unchanged
    subterms without binders are shared with e."""
    if isinstance(e, Var):
        name = ren.get(e.name, e.name)
        return e if name == e.name else Var(name, e.span)
    if isinstance(e, Block):
        decls = e.decls if order is None else order(e)
        ren = dict(ren)
        for d in decls:
            ren[d.name] = namer(d.name)
        return Block(
            tuple(
                Decl(d.dtype, ren[d.name], rename(d.init, ren, namer, order), d.span)
                for d in decls
            ),
            rename(e.body, ren, namer, order),
            e.span,
        )
    return map_children(e, rename, ren, namer, order)


# ---------------------------------------------------------------------------
# Values, right-values, evaluated declarations
# ---------------------------------------------------------------------------


@node_cached
def is_value(e: Expr) -> bool:
    if isinstance(e, (Var, IntLit)):
        return True
    if isinstance(e, New):
        return all(is_value(a) for a in e.args)
    if isinstance(e, Block):
        return all(is_evaluated(d) for d in e.decls) and is_value(e.body)
    return False


@node_cached
def is_objstate(e: Expr) -> bool:
    """Constructor invocation whose arguments are references (or int literals)."""
    return isinstance(e, New) and all(isinstance(a, (Var, IntLit)) for a in e.args)


@node_cached
def is_rightvalue(e: Expr) -> bool:
    if is_objstate(e):
        return True
    if isinstance(e, Block):
        return (
            all(is_evaluated(d) for d in e.decls)
            and (isinstance(e.body, Var) or is_objstate(e.body))
        )
    return False


@node_cached
def is_evaluated(d: Decl) -> bool:
    """Int declarations are evaluated once their right side is a literal."""
    if isinstance(d.dtype, IntType):
        return isinstance(d.init, IntLit)
    return is_rightvalue(d.init)


# ---------------------------------------------------------------------------
# Well-formedness of programs (syntactic constraints on expressions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str  # "capsule-reuse" | "forward-ref" | ...
    var: str
    span: Span = field(default=None, compare=False)
    message: str = field(default="", compare=False)

    def __str__(self) -> str:
        return f"{self.kind}: {self.var}: {self.message}"


def _is_capsule(t: Type) -> bool:
    return isinstance(t, RefType) and t.qualifier is Qualifier.CAPSULE


def _count_free(e: Expr, names: frozenset, counts: dict) -> None:
    """Add to counts[x] the free occurrences in e of each name x in names.

    Only subterms where one of the names is free are walked (`free_vars` is
    a node fact), and a block that declares a name drops it."""
    if isinstance(e, Var):
        if e.name in names:
            counts[e.name] += 1
        return
    names = names & free_vars(e)
    if names:
        for c in children(e):
            _count_free(c, names, counts)


def _capsule_counts(scope, names: list) -> dict:
    """name -> its free occurrences in the terms of scope, for every name."""
    counts = dict.fromkeys(names, 0)
    if counts:
        live = frozenset(counts)
        for e in scope:
            _count_free(e, live, counts)
    return counts


def _check_expr_wf(e: Expr, table: ClassTable, out: list) -> None:
    if isinstance(e, Block):
        names = [d.name for d in e.decls]
        for d in e.decls:
            if isinstance(d.dtype, RefType) and d.dtype.cname not in table:
                out.append(
                    Violation("unknown-class", d.name, d.span, f"local type {d.dtype}")
                )
        # capsule-typed locals: at most one occurrence in their scope
        caps = [d for d in e.decls if _is_capsule(d.dtype)]
        counts = _capsule_counts(children(e), [d.name for d in caps])
        for d in caps:
            n = counts[d.name]
            if n > 1:
                out.append(
                    Violation(
                        "capsule-reuse",
                        d.name,
                        d.span,
                        f"capsule variable {d.name} occurs {n} times in its scope",
                    )
                )
        # forward (or self) references only between evaluated declarations
        index = {n: i for i, n in enumerate(names)}
        for i, d in enumerate(e.decls):
            for y in free_vars(d.init):
                j = index.get(y)
                if j is None or j < i:
                    continue
                if not (is_evaluated(d) and is_evaluated(e.decls[j])):
                    out.append(
                        Violation(
                            "forward-ref",
                            y,
                            d.span,
                            f"declaration of {d.name} refers forward to {y} "
                            "but both are not evaluated",
                        )
                    )
    for c in children(e):
        _check_expr_wf(c, table, out)


def validate_wellformedness(p: Program) -> list:
    """All violations of the syntactic constraints (capsule linearity, the
    forward-reference restriction and a local's type naming a class of the
    table), over method bodies and the main expression.

    Each block counts the occurrences of all its capsule locals in one walk
    of its scope, and each method those of its capsule parameters in one
    walk of its body; a walk enters only the subterms where one of the names
    is free, so it costs about the size of the scope it counts in, however
    many capsule binders there are."""
    out: list = []
    for cd in p.table.classes.values():
        for m in cd.methods.values():
            caps = [pn for pt, pn in m.params if _is_capsule(pt)]
            counts = _capsule_counts((m.body,), caps)
            for pn in caps:
                if counts[pn] > 1:
                    out.append(
                        Violation(
                            "capsule-reuse",
                            pn,
                            None,
                            f"capsule parameter {pn} of {cd.name}.{m.name} "
                            "occurs more than once",
                        )
                    )
            _check_expr_wf(m.body, p.table, out)
    _check_expr_wf(p.main, p.table, out)
    return out


def validate_classtable(ct: ClassTable) -> list:
    """Field declarations may only be `imm C`, `mut C`, or `int`; the parser
    takes a field of any type, so this is the one judge.  Every class a
    field, parameter or return type names must be in the table.  A class
    declares each field once, and a method each parameter once."""
    out: list = []
    for cd in ct.classes.values():
        for m in cd.methods.values():
            seen = set()
            for _, pn in m.params:
                if pn in seen:
                    out.append(Violation(
                        "dup-param", pn, None,
                        f"duplicate parameter in {cd.name}.{m.name}",
                    ))
                seen.add(pn)
            typed = [(pt, pn, "parameter") for pt, pn in m.params]
            for t, x, what in typed + [(m.ret, m.name, "return")]:
                if isinstance(t, RefType) and t.cname not in ct:
                    out.append(Violation(
                        "unknown-class", x, None, f"{what} type {t} in {cd.name}.{m.name}"
                    ))
        seen = set()
        for (ft, fn) in cd.fields:
            if fn in seen:
                out.append(Violation("dup-field", fn, None, f"duplicate field in {cd.name}"))
            seen.add(fn)
            if isinstance(ft, RefType):
                if ft.qualifier not in (Qualifier.MUT, Qualifier.IMM):
                    out.append(
                        Violation(
                            "bad-field-qualifier",
                            fn,
                            None,
                            f"field {cd.name}.{fn} has qualifier {ft.qualifier}; "
                            "only mut/imm/int fields are allowed",
                        )
                    )
                if ft.cname not in ct:
                    out.append(Violation("unknown-class", fn, None, f"field type {ft}"))
    return out
