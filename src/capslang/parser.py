"""Concrete syntax front end.

Surface grammar:

    program  := classdecl* block
    classdecl:= "class" ID "{" fielddecl* methoddecl* "}"
    fielddecl:= ("mut"|"imm") ID ID ";" | "int" ID ";"
    methoddecl:= type ID "(" thisqual ("," param)* ")" "{" "return" expr ";" "}"
    thisqual := "mut"|"imm"|"capsule"|"lent"|"read"|"static"
    param    := type ID
    type     := qual ID | "int"
    qual     := "mut"|"imm"|"capsule"|"lent"|"read"
    expr     := block | assign
    assign   := postfix ("." ID "=" expr)? | postfix "+" postfix
    primary  := ID | INT | "new" ID "(" exprlist ")" | "(" expr ")" | block

Inside a block, `e; e'` is sugar for a declaration of a fresh discarded
variable (its declared type is filled in by a later inference pass,
`typecheck.resolve_implicit_types`).  Comments run from `//` to end of line.
The outermost braces of the main block are optional.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from .syntax import (
    INT,
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
    Qualifier,
    RefType,
    StaticCall,
    Type,
    Var,
    map_children,
    map_program,
)

RESERVED = {
    "class", "mut", "imm", "capsule", "lent", "read", "int", "new", "this",
    "static", "return",
}

QUAL_WORDS = {q.value: q for q in Qualifier}


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected=()):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.expected = tuple(expected)


class Token(NamedTuple):
    kind: str  # "id", "int", "punct", "eof"
    text: str
    line: int
    col: int


# every character is matched by one alternative, so finditer skips none
_TOKEN = re.compile(
    r"(?P<nl>\n)|(?P<space>[ \t\r]+)|(?P<comment>//[^\n]*)"
    r"|(?P<id>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>[0-9]+)|(?P<punct>[{}();,=+.])"
    r"|(?P<other>.)"
)


def tokenize(text: str) -> list:
    """The tokens of text.  Identifiers and integers are ASCII; any other
    character outside a comment raises a ParseError."""
    toks = []
    line, col = 1, 1
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            col = 1
            continue
        if kind == "comment":
            continue  # col stays: the newline ending the comment resets it
        if kind == "other":
            raise ParseError(f"unexpected character {m.group()!r}", line, col)
        if kind != "space":
            toks.append(Token(kind, m.group(), line, col))
        col += m.end() - m.start()
    toks.append(Token("eof", "", line, col))
    return toks


# the furthest look-ahead of the parser: peek(k) takes k <= _LOOKAHEAD
_LOOKAHEAD = 3


class _Parser:
    def __init__(self, toks: list):
        # padded with copies of the EOF token: a look-ahead past the end
        # finds EOF without a bounds check
        self.toks = toks + toks[-1:] * _LOOKAHEAD
        self.pos = 0
        self.discards = 0

    def fresh_discard(self) -> str:
        self.discards += 1
        return f"_#{self.discards}"

    # -- token plumbing ----------------------------------------------------

    def peek(self, k: int = 0) -> Token:
        return self.toks[self.pos + k]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, text: str, k: int = 0) -> bool:
        return self.peek(k).text == text and self.peek(k).kind in ("punct", "id")

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text:
            raise ParseError(
                f"expected {text!r}, found {t.text!r}", t.line, t.col, (text,)
            )
        return self.next()

    def ident(self) -> Token:
        t = self.peek()
        if t.kind != "id" or t.text in RESERVED:
            raise ParseError(
                f"expected identifier, found {t.text!r}", t.line, t.col, ("ID",)
            )
        return self.next()

    # -- types --------------------------------------------------------------

    def parse_type(self) -> Type:
        t = self.peek()
        if t.text == "int":
            self.next()
            return INT
        if t.text in QUAL_WORDS:
            self.next()
            cname = self.ident().text
            return RefType(QUAL_WORDS[t.text], cname)
        raise ParseError(f"expected a type, found {t.text!r}", t.line, t.col)

    # -- program ------------------------------------------------------------

    def parse_program(self) -> Program:
        classes = {}
        while self.at("class"):
            cd = self.parse_class()
            if cd.name in classes:
                t = self.peek()
                raise ParseError(f"duplicate class {cd.name}", t.line, t.col)
            classes[cd.name] = cd
        main = self.parse_main()
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"trailing input: {t.text!r}", t.line, t.col)
        return Program(ClassTable(classes), main)

    def parse_main(self) -> Expr:
        t = self.peek()
        if t.kind == "eof":
            raise ParseError("empty main expression", t.line, t.col)
        if self.at("{"):
            return self.parse_block()
        # outermost braces omitted: parse a declaration/expression sequence
        return self.parse_block_items(terminator="eof")

    def parse_class(self) -> ClassDef:
        self.expect("class")
        name = self.ident().text
        self.expect("{")
        fields = []
        # field declarations: (mut|imm) ID ID ; | int ID ;
        while True:
            t = self.peek()
            if t.text == "int" and self.peek(1).kind == "id" and self.at(";", 2):
                self.next()
                fname = self.ident().text
                self.expect(";")
                fields.append((INT, fname))
            elif (
                t.text in ("mut", "imm")
                and self.peek(1).kind == "id"
                and self.peek(2).kind == "id"
                and self.at(";", 3)
            ):
                self.next()
                cname = self.ident().text
                fname = self.ident().text
                self.expect(";")
                fields.append((RefType(QUAL_WORDS[t.text], cname), fname))
            else:
                break
        methods = {}
        while not self.at("}"):
            m = self.parse_method()
            if m.name in methods:
                t = self.peek()
                raise ParseError(f"duplicate method {m.name} in {name}", t.line, t.col)
            methods[m.name] = m
        self.expect("}")
        return ClassDef(name, tuple(fields), methods)

    def parse_method(self) -> MethodSig:
        ret = self.parse_type()
        name = self.ident().text
        self.expect("(")
        t = self.peek()
        if t.text == "static":
            this_qual: Optional[Qualifier] = None
            self.next()
        elif t.text in QUAL_WORDS:
            this_qual = QUAL_WORDS[t.text]
            self.next()
        else:
            raise ParseError(
                f"expected this-qualifier or 'static', found {t.text!r}", t.line, t.col
            )
        params = []
        while self.at(","):
            self.next()
            ptype = self.parse_type()
            pname = self.ident().text
            params.append((ptype, pname))
        self.expect(")")
        self.expect("{")
        self.expect("return")
        body = self.parse_expr()
        self.expect(";")
        self.expect("}")
        return MethodSig(name, ret, this_qual, tuple(params), body)

    # -- expressions ----------------------------------------------------------

    def parse_block(self) -> Expr:
        self.expect("{")
        e = self.parse_block_items(terminator="}")
        self.expect("}")
        return e

    def parse_block_items(self, terminator: str) -> Expr:
        """Declarations and `e;` statements followed by a final body expression."""
        decls = []
        span = (self.peek().line, self.peek().col)
        while True:
            t = self.peek()
            # a type is one token ("int") or two ("mut C"); a declaration is
            # type ID "="
            if t.text == "int":
                is_decl = (
                    self.peek(1).kind == "id"
                    and self.peek(1).text not in RESERVED
                    and self.at("=", 2)
                )
            elif t.text in QUAL_WORDS:
                is_decl = (
                    self.peek(1).kind == "id"
                    and self.peek(2).kind == "id"
                    and self.peek(2).text not in RESERVED
                    and self.at("=", 3)
                )
            else:
                is_decl = False
            if is_decl:
                dtype = self.parse_type()
                nt = self.ident()
                self.expect("=")
                if self.at(";"):
                    raise ParseError("missing initializer", self.peek().line, self.peek().col)
                init = self.parse_expr()
                self.expect(";")
                decls.append(Decl(dtype, nt.text, init, (nt.line, nt.col)))
                continue
            if t.kind == "eof" or t.text == terminator:
                raise ParseError("expected an expression", t.line, t.col)
            e = self.parse_expr()
            if self.at(";"):
                # statement sugar: {T x = e; e'} with x fresh and unused;
                # the declared type is inferred later (dtype None placeholder)
                self.next()
                decls.append(Decl(None, self.fresh_discard(), e, (t.line, t.col)))
                continue
            body = e
            break
        if not decls:
            return body
        names = set()
        for d in decls:
            if d.name in names:
                raise ParseError(f"duplicate declaration of {d.name}", *(d.span or (0, 0)))
            names.add(d.name)
        return Block(tuple(decls), body, span)

    def parse_expr(self) -> Expr:
        if self.at("{"):
            return self.parse_block()
        left = self.parse_postfix()
        if self.at("="):
            if not isinstance(left, FieldAccess):
                t = self.peek()
                raise ParseError("assignment target must be a field access", t.line, t.col)
            self.next()
            rhs = self.parse_expr()
            return FieldAssign(left.recv, left.fname, rhs, left.span)
        while self.at("+"):
            self.next()
            right = self.parse_postfix()
            left = Plus(left, right)
        return left

    def parse_postfix(self) -> Expr:
        e = self.parse_primary()
        while self.at("."):
            self.next()
            name = self.ident()
            if self.at("("):
                self.next()
                args = self.parse_exprlist()
                self.expect(")")
                e = MethodCall(e, name.text, tuple(args), (name.line, name.col))
            else:
                e = FieldAccess(e, name.text, (name.line, name.col))
        return e

    def parse_exprlist(self) -> list:
        args = []
        if not self.at(")"):
            args.append(self.parse_expr())
            while self.at(","):
                self.next()
                args.append(self.parse_expr())
        return args

    def parse_primary(self) -> Expr:
        t = self.peek()
        if t.text == "new":
            self.next()
            cname = self.ident().text
            self.expect("(")
            args = self.parse_exprlist()
            self.expect(")")
            return New(cname, tuple(args), (t.line, t.col))
        if t.text == "(":
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        if t.text == "{":
            return self.parse_block()
        if t.kind == "int":
            self.next()
            return IntLit(int(t.text), (t.line, t.col))
        if t.kind == "id" and (t.text == "this" or t.text not in RESERVED):
            self.next()
            return Var(t.text, (t.line, t.col))
        raise ParseError(f"expected an expression, found {t.text!r}", t.line, t.col)


def parse(text: str) -> Program:
    p = _Parser(tokenize(text)).parse_program()
    # names bound in a method body: its parameters and receiver
    return map_program(
        p, lambda body, gamma: _resolve_static(body, p.table, frozenset(gamma))
    )


def parse_expr(text: str) -> Expr:
    """Parse a bare expression (no class table); test convenience."""
    p = _Parser(tokenize(text))
    e = p.parse_main()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input: {t.text!r}", t.line, t.col)
    return e


# ---------------------------------------------------------------------------
# Static-call resolution: `C.m(args)` parses as a call on Var(C); rewrite to a
# StaticCall when C names a class and is not locally bound.
# ---------------------------------------------------------------------------


def _resolve_static(e: Expr, table: ClassTable, bound: frozenset) -> Expr:
    if isinstance(e, MethodCall):
        recv = e.recv
        if (
            isinstance(recv, Var)
            and recv.name in table
            and recv.name not in bound
        ):
            e = StaticCall(recv.name, e.mname, e.args, e.span)
    elif isinstance(e, Block):
        bound = bound | frozenset(d.name for d in e.decls)
    return map_children(e, _resolve_static, table, bound)


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------


def _ident_out(name: str) -> str:
    # fresh internal names contain '#', which is not lexable; rewrite to a
    # source-legal spelling for round-tripping
    return name.replace("#", "_")


def pretty_print(e: Expr) -> str:
    if isinstance(e, Var):
        return _ident_out(e.name)
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, FieldAccess):
        return f"{_atom(e.recv)}.{e.fname}"
    if isinstance(e, MethodCall):
        args = ", ".join(pretty_print(a) for a in e.args)
        return f"{_atom(e.recv)}.{e.mname}({args})"
    if isinstance(e, StaticCall):
        args = ", ".join(pretty_print(a) for a in e.args)
        return f"{e.cname}.{e.mname}({args})"
    if isinstance(e, FieldAssign):
        return f"{_atom(e.recv)}.{e.fname}={pretty_print(e.value)}"
    if isinstance(e, New):
        args = ", ".join(pretty_print(a) for a in e.args)
        return f"new {e.cname}({args})"
    if isinstance(e, Plus):
        return f"{_atom(e.left)}+{_atom(e.right)}"
    if isinstance(e, Block):
        # an untyped declaration is statement sugar, `e;`
        parts = [
            f"{pretty_print(d.init)};"
            if d.dtype is None
            else f"{d.dtype} {_ident_out(d.name)}={pretty_print(d.init)};"
            for d in e.decls
        ]
        parts.append(pretty_print(e.body))
        return "{" + " ".join(parts) + "}"
    raise TypeError(f"not an expression: {e!r}")


def _atom(e: Expr) -> str:
    s = pretty_print(e)
    if isinstance(e, (Var, IntLit, New, Block, FieldAccess, MethodCall, StaticCall)):
        return s
    return f"({s})"


def print_program(p: Program) -> str:
    out = []
    for cd in p.table.classes.values():
        lines = [f"class {cd.name} {{"]
        for (ft, fn) in cd.fields:
            lines.append(f"  {ft} {fn};")
        for m in cd.methods.values():
            tq = "static" if m.this_qual is None else str(m.this_qual)
            ps = "".join(f", {pt} {pn}" for pt, pn in m.params)
            lines.append(f"  {m.ret} {m.name}({tq}{ps}) {{ return {pretty_print(m.body)}; }}")
        lines.append("}")
        out.append("\n".join(lines))
    out.append(pretty_print(p.main))
    return "\n".join(out) + "\n"
