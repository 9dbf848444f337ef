"""Translation to simplified form.

In simplified form every compound subterm is a value, except the right-hand
sides of declarations, and block bodies are values.  Compound subterms in
other positions are hoisted into fresh local declarations whose declared type
is obtained by shape inference; statement-sugar discards are resolved before
this pass.
"""

from __future__ import annotations

from .congruence import NameSupply
from .syntax import (
    Block,
    ClassDef,
    ClassTable,
    Decl,
    Expr,
    FieldAccess,
    FieldAssign,
    IntLit,
    MethodCall,
    MethodSig,
    New,
    Plus,
    Program,
    RefType,
    StaticCall,
    Var,
    is_value,
)
from .typecheck import _method_this_qual, _stored_type, shape_type


class _Translator:
    def __init__(self, table: ClassTable):
        self.table = table
        self.supply = NameSupply()

    # returns (bindings, value)
    def value(self, e: Expr, gamma: dict):
        if isinstance(e, (Var, IntLit)):
            return [], e
        if isinstance(e, New):
            bs, args = [], []
            for a in e.args:
                b, v = self.value(a, gamma)
                bs.extend(b)
                args.append(v)
            return bs, New(e.cname, tuple(args), e.span)
        # blocks and other compounds are named
        bs, rhs = self.rhs(e, gamma)
        if is_value(rhs):
            return bs, rhs
        t = shape_type(self.table, gamma, rhs)
        x = self.supply.fresh("t")
        gamma[x] = _stored_type(t)
        bs.append(Decl(t, x, rhs, e.span))
        return bs, Var(x, e.span)

    # returns (bindings, simplified right-hand side)
    def rhs(self, e: Expr, gamma: dict):
        if isinstance(e, Block):
            return [], self.block(e, gamma)
        if isinstance(e, (Var, IntLit, New)):
            return self.value(e, gamma)
        if isinstance(e, FieldAccess):
            bs, r = self.value(e.recv, gamma)
            return bs, FieldAccess(r, e.fname, e.span)
        if isinstance(e, FieldAssign):
            bs, r = self.value(e.recv, gamma)
            b2, v = self.value(e.value, gamma)
            return bs + b2, FieldAssign(r, e.fname, v, e.span)
        if isinstance(e, MethodCall):
            bs, r = self.value(e.recv, gamma)
            args = []
            for a in e.args:
                b, v = self.value(a, gamma)
                bs.extend(b)
                args.append(v)
            return bs, MethodCall(r, e.mname, tuple(args), e.span)
        if isinstance(e, StaticCall):
            bs, args = [], []
            for a in e.args:
                b, v = self.value(a, gamma)
                bs.extend(b)
                args.append(v)
            return bs, StaticCall(e.cname, e.mname, tuple(args), e.span)
        if isinstance(e, Plus):
            bs, l = self.value(e.left, gamma)
            b2, r = self.value(e.right, gamma)
            return bs + b2, Plus(l, r, e.span)
        raise TypeError(f"not an expression: {e!r}")

    def block(self, e: Block, gamma: dict) -> Expr:
        g2 = dict(gamma)
        for d in e.decls:
            g2[d.name] = _stored_type(d.dtype)
        decls = []
        for d in e.decls:
            bs, rhs = self.rhs(d.init, g2)
            decls.extend(bs)
            decls.append(Decl(d.dtype, d.name, rhs, d.span))
        bs, body = self.value(e.body, g2)
        decls.extend(bs)
        if not decls:
            return body
        return Block(tuple(decls), body, e.span)

    def expr(self, e: Expr, gamma: dict) -> Expr:
        """Whole-term translation: the result is a simplified right-hand
        side wrapped in a block when hoisting was needed."""
        g2 = dict(gamma)
        bs, rhs = self.rhs(e, g2)
        if not bs and (is_value(rhs) or isinstance(rhs, Block)):
            return rhs
        t = shape_type(self.table, g2, rhs)
        z = self.supply.fresh("z")
        return Block(tuple(bs) + (Decl(t, z, rhs, e.span),), Var(z), e.span)


def simplify_program(p: Program) -> Program:
    """Translate the main expression and every method body to simplified
    form."""
    tr = _Translator(p.table)
    classes = {}
    for cname, cd in p.table.classes.items():
        methods = {}
        for mname, m in cd.methods.items():
            gamma = {pn: _stored_type(pt) for pt, pn in m.params}
            if m.this_qual is not None:
                gamma["this"] = RefType(_method_this_qual(m.this_qual), cname)
            methods[mname] = MethodSig(
                m.name, m.ret, m.this_qual, m.params, tr.expr(m.body, gamma)
            )
        classes[cname] = ClassDef(cd.name, cd.fields, methods)
    table = ClassTable(classes)
    tr.table = table
    return Program(table, tr.expr(p.main, {}))
