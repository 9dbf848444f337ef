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
    block_gamma,
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

    def value(self, e: Expr, gamma: dict, bs: list) -> Expr:
        """e as a value, the bindings it needs appended to bs.  Children
        are mapped with `value` itself: a nesting level costs two frames."""
        if isinstance(e, (Var, IntLit)):
            return e
        if isinstance(e, Block):
            rhs = self.block(e, gamma)
        else:
            rhs = map_children(e, self.value, gamma, bs)
        # a compound is named unless it translates to a value (a
        # constructor call of values, or a block right-value)
        if is_value(rhs):
            return rhs
        t = shape_type(self.table, gamma, rhs)
        x = self.supply.fresh("t")
        gamma[x] = stored_type(t)
        bs.append(Decl(t, x, rhs, e.span))
        return Var(x, e.span)

    def rhs(self, e: Expr, gamma: dict, bs: list) -> Expr:
        """e as a simplified right-hand side, the bindings it needs appended
        to bs."""
        if isinstance(e, Block):
            return self.block(e, gamma)
        return map_children(e, self.value, gamma, bs)

    def block(self, e: Block, gamma: dict) -> Expr:
        g2 = block_gamma(gamma, e.decls)
        decls: list = []
        for d in e.decls:
            rhs = self.rhs(d.init, g2, decls)
            decls.append(Decl(d.dtype, d.name, rhs, d.span))
        body = self.value(e.body, g2, decls)
        if not decls:
            return body
        return Block(tuple(decls), body, e.span)

    def expr(self, e: Expr, gamma: dict) -> Expr:
        """Whole-term translation: the result is a simplified right-hand
        side wrapped in a block when hoisting was needed."""
        g2 = dict(gamma)
        bs: list = []
        rhs = self.rhs(e, g2, bs)
        if not bs and (is_value(rhs) or isinstance(rhs, Block)):
            return rhs
        t = shape_type(self.table, g2, rhs)
        z = self.supply.fresh("z")
        return Block(tuple(bs) + (Decl(t, z, rhs, e.span),), Var(z), e.span)


def simplify_program(p: Program) -> Program:
    """Translate the main expression and every method body to simplified
    form."""
    return map_program(p, _Translator(p.table).expr)
