"""Translation to simplified form.

In simplified form every compound subterm is a value, except the right-hand
sides of declarations, and block bodies are values.  The translation is one
walk on `map_children`: a block keeps its declarations as right-hand sides,
and every other node has each child turned into a value, a compound child
being hoisted into a fresh local declaration, in child order, whose declared
type is obtained by shape inference.  Statement-sugar discards are resolved
before this pass.
"""

from __future__ import annotations

from .congruence import NameSupply
from .syntax import (
    Block,
    ClassTable,
    Decl,
    Expr,
    IntLit,
    Program,
    Var,
    is_value,
    map_children,
    map_program,
    stored_type,
)
from .typecheck import shape_type


class _Translator:
    def __init__(self, table: ClassTable):
        self.table = table
        self.supply = NameSupply()

    # returns (bindings, value)
    def value(self, e: Expr, gamma: dict):
        if isinstance(e, (Var, IntLit)):
            return [], e
        # a compound is named unless it translates to a value (a
        # constructor call of values, or a block right-value)
        bs, rhs = self.rhs(e, gamma)
        if is_value(rhs):
            return bs, rhs
        t = shape_type(self.table, gamma, rhs)
        x = self.supply.fresh("t")
        gamma[x] = stored_type(t)
        bs.append(Decl(t, x, rhs, e.span))
        return bs, Var(x, e.span)

    # returns (bindings, simplified right-hand side)
    def rhs(self, e: Expr, gamma: dict):
        if isinstance(e, Block):
            return [], self.block(e, gamma)
        bs: list = []
        out = map_children(e, self._hoist, gamma, bs)
        return bs, out

    def _hoist(self, e: Expr, gamma: dict, bs: list) -> Expr:
        """e as a value, its bindings appended to bs."""
        b, v = self.value(e, gamma)
        bs.extend(b)
        return v

    def block(self, e: Block, gamma: dict) -> Expr:
        g2 = dict(gamma)
        for d in e.decls:
            g2[d.name] = stored_type(d.dtype)
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
    return map_program(p, _Translator(p.table).expr)
