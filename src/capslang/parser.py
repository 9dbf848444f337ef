"""Concrete syntax front end.

Surface grammar:

    program  := classdecl* block
    classdecl:= "class" ID "{" fielddecl* methoddecl* "}"
    fielddecl:= type ID ";"
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
The outermost braces of the main block are optional.  A field parses with
any type; `syntax.validate_classtable` decides which are allowed.

`tokenize` scans a source once: one pattern cuts it into pieces, each
character in exactly one (`.` takes what no other alternative does), and a
piece's first character gives its kind.  The parser records, per method body
and for main, the names that receive a method call as a bare variable; the
static-call pass (below) walks only a body where one of them names a class,
since it rewrites nothing else.
"""

from __future__ import annotations

import re
import string
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
    def __init__(self, message: str, line=None, col=None, expected=()):
        super().__init__(message if line is None else f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.expected = tuple(expected)


class Token(NamedTuple):
    kind: str  # "id", "int", "punct", "eof"
    text: str
    line: int
    col: int


_PIECE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|[{}();,=+.]|\n|[ \t\r]+|//[^\n]*|.", re.S
)
# a piece's kind by its first character; others, and a lone "/", are unexpected
_KIND = {
    **dict.fromkeys(string.ascii_letters + "_", "id"), **dict.fromkeys(string.digits, "int"),
    **dict.fromkeys("{}();,=+.", "punct"), **dict.fromkeys(" \t\r", "space"),
    "\n": "nl", "/": "comment",
}


def tokenize(text: str) -> list:
    """The tokens of text.  Identifiers and integers are ASCII; any other
    character outside a comment raises a ParseError."""
    toks = []
    line, col = 1, 1
    for piece in _PIECE.findall(text):
        kind = _KIND.get(piece[0])
        if kind == "space":
            col += len(piece)
        elif kind == "nl":
            line += 1
            col = 1
        elif kind is None or piece == "/":
            raise ParseError(f"unexpected character {piece!r}", line, col)
        elif kind != "comment":  # col stays: the newline ending it resets it
            toks.append(tuple.__new__(Token, (kind, piece, line, col)))
            col += len(piece)
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
        # names receiving a call as a bare Var: in this body, by id of each body
        self.called = set()
        self.receivers = {}

    def fresh_discard(self) -> str:
        self.discards += 1
        return f"_#{self.discards}"

    # -- token plumbing ----------------------------------------------------

    def peek(self, k: int = 0) -> Token:
        return self.toks[self.pos + k]

    def at(self, text: str, k: int = 0) -> bool:
        # text is a punctuation mark or "class": no int or EOF token has it
        return self.toks[self.pos + k].text == text

    def expect(self, text: str) -> Token:
        t = self.toks[self.pos]
        if t.text != text:
            raise ParseError(
                f"expected {text!r}, found {t.text!r}", t.line, t.col, (text,)
            )
        self.pos += 1
        return t

    def ident(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "id" or t.text in RESERVED:
            raise ParseError(
                f"expected identifier, found {t.text!r}", t.line, t.col, ("ID",)
            )
        self.pos += 1
        return t

    def at_typed_name(self, then: str) -> bool:
        """Whether a type, a name that is not a reserved word and the token
        `then` come next: a field (";") or a declaration ("=")."""
        t = self.toks[self.pos]
        if t.text == "int":
            k = 1
        elif t.text in QUAL_WORDS and self.toks[self.pos + 1].kind == "id":
            k = 2
        else:
            return False
        n = self.toks[self.pos + k]
        return n.kind == "id" and n.text not in RESERVED and self.at(then, k + 1)

    # -- types --------------------------------------------------------------

    def parse_type(self) -> Type:
        t = self.peek()
        if t.text == "int":
            self.pos += 1
            return INT
        if t.text in QUAL_WORDS:
            self.pos += 1
            cname = self.ident().text
            return RefType(QUAL_WORDS[t.text], cname)
        raise ParseError(f"expected a type, found {t.text!r}", t.line, t.col)

    # -- program ------------------------------------------------------------

    def parse_program(self) -> Program:
        classes = {}
        while self.at("class"):
            t = self.peek(1)  # the class's name
            cd = self.parse_class()
            if cd.name in classes:
                raise ParseError(f"duplicate class {cd.name}", t.line, t.col)
            classes[cd.name] = cd
        self.called = set()
        main = self.parse_main()
        self.receivers[id(main)] = self.called
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
        return self.parse_block_items(terminator=None)

    def parse_class(self) -> ClassDef:
        self.expect("class")
        name = self.ident().text
        self.expect("{")
        fields = []
        while self.at_typed_name(";"):
            fields.append((self.parse_type(), self.ident().text))
            self.expect(";")
        methods = {}
        while not self.at("}"):
            t, m = self.parse_method()
            if m.name in methods:
                raise ParseError(f"duplicate method {m.name} in {name}", t.line, t.col)
            methods[m.name] = m
        self.expect("}")
        return ClassDef(name, tuple(fields), methods)

    def parse_method(self) -> tuple:
        """The method's name token and its signature."""
        ret = self.parse_type()
        nt = self.ident()
        self.expect("(")
        t = self.peek()
        if t.text == "static":
            this_qual: Optional[Qualifier] = None
            self.pos += 1
        elif t.text in QUAL_WORDS:
            this_qual = QUAL_WORDS[t.text]
            self.pos += 1
        else:
            raise ParseError(
                f"expected this-qualifier or 'static', found {t.text!r}", t.line, t.col
            )
        params = []
        while self.at(","):
            self.pos += 1
            ptype = self.parse_type()
            pname = self.ident().text
            params.append((ptype, pname))
        self.expect(")")
        self.expect("{")
        self.expect("return")
        self.called = set()
        body = self.parse_expr()
        self.receivers[id(body)] = self.called
        self.expect(";")
        self.expect("}")
        return nt, MethodSig(nt.text, ret, this_qual, tuple(params), body)

    # -- expressions ----------------------------------------------------------

    def parse_block(self) -> Expr:
        self.expect("{")
        e = self.parse_block_items(terminator="}")
        self.expect("}")
        return e

    def parse_block_items(self, terminator: Optional[str]) -> Expr:
        """Declarations and `e;` statements followed by a final body
        expression, which must come before the token `terminator` (None: the
        end of input)."""
        decls = []
        span = (self.peek().line, self.peek().col)
        while True:
            t = self.peek()
            if self.at_typed_name("="):
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
                self.pos += 1
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
        toks = self.toks
        if toks[self.pos].text == "{":
            return self.parse_block()
        left = self.parse_postfix()
        t = toks[self.pos]
        if t.text == "=":
            if not isinstance(left, FieldAccess):
                raise ParseError("assignment target must be a field access", t.line, t.col)
            self.pos += 1
            rhs = self.parse_expr()
            return FieldAssign(left.recv, left.fname, rhs, left.span)
        while toks[self.pos].text == "+":
            self.pos += 1
            right = self.parse_postfix()
            left = Plus(left, right)
        return left

    def parse_postfix(self) -> Expr:
        e = self.parse_primary()
        toks = self.toks
        while toks[self.pos].text == ".":
            self.pos += 1
            name = self.ident()
            if toks[self.pos].text == "(":
                self.pos += 1
                args = self.parse_exprlist()
                self.expect(")")
                if isinstance(e, Var):
                    self.called.add(e.name)
                e = MethodCall(e, name.text, tuple(args), (name.line, name.col))
            else:
                e = FieldAccess(e, name.text, (name.line, name.col))
        return e

    def parse_exprlist(self) -> list:
        args = []
        if not self.at(")"):
            args.append(self.parse_expr())
            while self.at(","):
                self.pos += 1
                args.append(self.parse_expr())
        return args

    def parse_primary(self) -> Expr:
        t = self.toks[self.pos]
        if t.text == "new":
            self.pos += 1
            cname = self.ident().text
            self.expect("(")
            args = self.parse_exprlist()
            self.expect(")")
            return New(cname, tuple(args), (t.line, t.col))
        if t.text == "(":
            self.pos += 1
            e = self.parse_expr()
            self.expect(")")
            return e
        if t.text == "{":
            return self.parse_block()
        if t.kind == "int":
            self.pos += 1
            return IntLit(int(t.text), (t.line, t.col))
        if t.kind == "id" and (t.text == "this" or t.text not in RESERVED):
            self.pos += 1
            return Var(t.text, (t.line, t.col))
        raise ParseError(f"expected an expression, found {t.text!r}", t.line, t.col)


def parse(text: str) -> Program:
    parser = _Parser(tokenize(text))
    p = parser.parse_program()

    def resolve(body, gamma):
        # gamma binds a method's parameters and receiver; a body where no
        # class name receives a call has nothing to rewrite
        if p.table.classes.keys().isdisjoint(parser.receivers[id(body)]):
            return body
        return _resolve_static(body, p.table, frozenset(gamma))

    return map_program(p, resolve)


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
