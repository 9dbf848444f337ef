"""Seeded random program generator and shrinker.

Programs are generated mostly typed-by-construction: class tables are layered
(fields only reference lower-numbered classes), so ground object expressions
always exist, and main declarations are drawn from construction patterns the
type system accepts (ground constructions, recoveries, field reads/writes,
method calls).  A configurable fraction of deliberately ill-typed
declarations exercises the rejection path.

The shrinker greedily applies three moves while a failure predicate keeps
holding: drop a main declaration, replace an initializer by a ground value of
the declared type, replace the main body by a trivial one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from .parser import parse, parse_expr, print_program
from .syntax import (
    Block,
    Decl,
    IntLit,
    IntType,
    New,
    Program,
    RefType,
    Var,
)


N_CLASSES = 3  # classes of every generated table
MAX_FIELDS = 3  # fields per class, at most


@dataclass
class GenConfig:
    seed: int = 0
    size: int = 8  # main declarations
    reject_rate: float = 0.15  # fraction of deliberately ill-typed declarations


@dataclass
class _Field:
    type_str: str  # "int" | "mut Cj" | "imm Cj"
    name: str
    cls: Optional[int]  # referenced class index, None for int
    kind: str  # "int" | "mut" | "imm"


class _Gen:
    def __init__(self, cfg: GenConfig):
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.fields: list = []  # per class: list[_Field]
        self.methods: list = []  # per class: list[str] (rendered)
        self.has_factory: list = []
        self.counter = 0

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}{self.counter}"

    # -- class table -------------------------------------------------------

    def gen_classes(self) -> str:
        out = []
        for i in range(N_CLASSES):
            fields = []
            nf = self.rng.randint(1, MAX_FIELDS)
            for k in range(nf):
                name = f"f{k}"
                if i == 0 or self.rng.random() < 0.4:
                    fields.append(_Field("int", name, None, "int"))
                else:
                    j = self.rng.randrange(i)
                    kind = "mut" if self.rng.random() < 0.7 else "imm"
                    fields.append(_Field(f"{kind} C{j}", name, j, kind))
            self.fields.append(fields)
            methods = []
            int_fields = [f for f in fields if f.kind == "int"]
            if int_fields and self.rng.random() < 0.8:
                f = self.rng.choice(int_fields)
                methods.append(
                    f"  int get_{f.name}(read) {{ return this.{f.name}; }}"
                )
            if int_fields and self.rng.random() < 0.5:
                f = self.rng.choice(int_fields)
                methods.append(
                    f"  int set_{f.name}(mut, int v) {{ return this.{f.name} = v; }}"
                )
            factory = self.rng.random() < 0.7
            if factory:
                methods.append(
                    f"  mut C{i} mk(static) {{ return {self.ground(i)}; }}"
                )
            if self.rng.random() < 0.4:
                methods.append(f"  mut C{i} me(mut) {{ return this; }}")
            self.has_factory.append(factory)
            self.methods.append(methods)
            lines = [f"class C{i} {{"]
            lines += [f"  {f.type_str} {f.name};" for f in fields]
            lines += methods
            lines.append("}")
            out.append("\n".join(lines))
        return "\n".join(out)

    def ground(self, i: int) -> str:
        """A closed constructor expression of class Ci (layering guarantees
        termination)."""
        args = []
        for f in self.fields[i]:
            if f.kind == "int":
                args.append(str(self.rng.randint(0, 9)))
            else:
                args.append(self.ground(f.cls))
        return f"new C{i}({', '.join(args)})"

    # -- main --------------------------------------------------------------

    def gen_main(self) -> str:
        env: dict = {}  # name -> ("int",) | (qual, class index)
        consumed: set = set()  # capsule variables already used
        lines = []

        def vars_of(pred):
            return [x for x, t in env.items() if x not in consumed and pred(t)]

        def is_mut(t):
            return t[0] == "mut"

        def is_readable(t):
            return t[0] in ("mut", "imm", "read")

        def int_atom() -> str:
            opts = [str(self.rng.randint(0, 9))]
            iv = vars_of(lambda t: t[0] == "int")
            if iv:
                opts.append(self.rng.choice(iv))
            rv = vars_of(is_readable)
            self.rng.shuffle(rv)
            for x in rv:
                fs = [f for f in self.fields[env[x][1]] if f.kind == "int"]
                if fs:
                    opts.append(f"{x}.{self.rng.choice(fs).name}")
                    break
            return self.rng.choice(opts)

        for _ in range(self.cfg.size):
            if self.rng.random() < self.cfg.reject_rate:
                line = self.gen_ill_typed(env, consumed)
                if line:
                    lines.append(line)
                    continue
            choice = self.rng.randrange(8)
            i = self.rng.randrange(N_CLASSES)
            if choice == 0:  # ground mut construction
                x = self.fresh("m")
                lines.append(f"mut C{i} {x} = {self.ground(i)};")
                env[x] = ("mut", i)
            elif choice == 1:  # int declaration
                x = self.fresh("n")
                e = int_atom()
                if self.rng.random() < 0.5:
                    e = f"{e} + {int_atom()}"
                lines.append(f"int {x} = {e};")
                env[x] = ("int",)
            elif choice == 2:  # immutability recovery of a ground value
                x = self.fresh("i")
                lines.append(f"imm C{i} {x} = {self.ground(i)};")
                env[x] = ("imm", i)
            elif choice == 3:  # capsule recovery, consumed at most once
                x = self.fresh("c")
                u = self.fresh("u")
                lines.append(
                    f"capsule C{i} {x} = {{ mut C{i} {u} = {self.ground(i)}; {u} }};"
                )
                env[x] = ("capsule", i)
            elif choice == 4:  # field assignment through a mut reference
                xs = vars_of(is_mut)
                self.rng.shuffle(xs)
                done = False
                for x in xs:
                    ci = env[x][1]
                    fs = self.fields[ci]
                    f = self.rng.choice(fs)
                    if f.kind == "int":
                        lines.append(f"{x}.{f.name} = {int_atom()};")
                        done = True
                    elif f.kind == "mut":
                        ys = vars_of(lambda t: t == ("mut", f.cls))
                        rhs = (
                            self.rng.choice(ys)
                            if ys and self.rng.random() < 0.5
                            else self.ground(f.cls)
                        )
                        lines.append(f"{x}.{f.name} = {rhs};")
                        done = True
                    if done:
                        break
            elif choice == 5:  # read a mut field out of a mut reference
                xs = vars_of(is_mut)
                self.rng.shuffle(xs)
                for x in xs:
                    ci = env[x][1]
                    fs = [f for f in self.fields[ci] if f.kind == "mut"]
                    if fs:
                        f = self.rng.choice(fs)
                        y = self.fresh("r")
                        lines.append(f"mut C{f.cls} {y} = {x}.{f.name};")
                        env[y] = ("mut", f.cls)
                        break
            elif choice == 6:  # consume a capsule, or call a factory
                cs = vars_of(lambda t: t[0] == "capsule")
                if cs and self.rng.random() < 0.7:
                    x = self.rng.choice(cs)
                    y = self.fresh("m")
                    q = self.rng.choice(["mut", "imm"])
                    lines.append(f"{q} C{env[x][1]} {y} = {x};")
                    env[y] = (q, env[x][1])
                    consumed.add(x)
                elif self.has_factory[i]:
                    y = self.fresh("m")
                    lines.append(f"mut C{i} {y} = C{i}.mk();")
                    env[y] = ("mut", i)
            else:  # method call
                xs = vars_of(is_readable)
                self.rng.shuffle(xs)
                for x in xs:
                    ci = env[x][1]
                    getters = [
                        m for m in self.methods[ci] if m.lstrip().startswith("int get_")
                    ]
                    if getters:
                        mname = getters[0].split("(")[0].split()[-1]
                        y = self.fresh("n")
                        lines.append(f"int {y} = {x}.{mname}();")
                        env[y] = ("int",)
                        break
                    if env[x][0] == "mut" and any(
                        " me(" in m for m in self.methods[ci]
                    ):
                        y = self.fresh("m")
                        lines.append(f"mut C{ci} {y} = {x}.me();")
                        env[y] = ("mut", ci)
                        break
        body_vars = [x for x in env if x not in consumed]
        body = self.rng.choice(body_vars) if body_vars else "0"
        lines.append(body)
        return "\n".join(lines)

    def gen_ill_typed(self, env: dict, consumed: set) -> Optional[str]:
        """A declaration that should be rejected by the typechecker."""
        kinds = list(range(3))
        self.rng.shuffle(kinds)
        for k in kinds:
            if k == 0:  # mutate through an imm reference
                xs = [
                    x for x, t in env.items() if t[0] == "imm" and x not in consumed
                ]
                for x in xs:
                    ci = env[x][1]
                    fs = [f for f in self.fields[ci] if f.kind == "int"]
                    if fs:
                        return f"{x}.{fs[0].name} = 1;"
            elif k == 1:  # alias an imm as mut
                xs = [
                    x for x, t in env.items() if t[0] == "imm" and x not in consumed
                ]
                if xs:
                    x = self.rng.choice(xs)
                    y = self.fresh("b")
                    return f"mut C{env[x][1]} {y} = {x};"
            else:  # capsule of an aliased (shared) mutable
                xs = [x for x, t in env.items() if t[0] == "mut" and x not in consumed]
                if xs:
                    x = self.rng.choice(xs)
                    ci = env[x][1]
                    y = self.fresh("b")
                    return f"capsule C{ci} {y} = {x};"
        return None


def gen_source(cfg: GenConfig) -> str:
    g = _Gen(cfg)
    classes = g.gen_classes()
    main = g.gen_main()
    return classes + "\n" + main + "\n"


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def _ground_of(p: Program, t) -> Optional[str]:
    """A closed constructor expression of the given declared type, when the
    class table is layered enough to admit one (bounded depth)."""

    def build(cname: str, depth: int) -> Optional[str]:
        if depth > 8 or cname not in p.table:
            return None
        args = []
        for (ft, _) in p.table.fields(cname):
            if isinstance(ft, IntType):
                args.append("0")
            else:
                inner = build(ft.cname, depth + 1)
                if inner is None:
                    return None
                args.append(inner)
        return f"new {cname}({', '.join(args)})"

    if isinstance(t, IntType):
        return "0"
    if isinstance(t, RefType):
        return build(t.cname, 0)
    return None


def shrink(src: str, failing: Callable[[str], bool], max_rounds: int = 20) -> str:
    """Greedy shrinking: keep a candidate whenever `failing` still holds."""
    cur = src
    for _ in range(max_rounds):
        progressed = False
        for cand in _shrink_candidates(cur):
            if cand != cur and failing(cand):
                cur = cand
                progressed = True
                break
        if not progressed:
            break
    return cur


def _shrink_candidates(src: str):
    try:
        p = parse(src)
    except Exception:
        return
    main = p.main
    if not isinstance(main, Block):
        return

    def render(decls: tuple, body) -> str:
        return print_program(Program(p.table, Block(decls, body, main.span)))

    decls = main.decls
    # move 1: drop one declaration
    for i in range(len(decls)):
        yield render(decls[:i] + decls[i + 1 :], main.body)
    # move 2: replace an initializer by a ground value of the declared type
    for i, d in enumerate(decls):
        if d.dtype is None or isinstance(d.init, (Var, IntLit, New)):
            continue
        g = _ground_of(p, d.dtype)
        if g is None:
            continue
        nd = Decl(d.dtype, d.name, parse_expr(g), d.span)
        yield render(decls[:i] + (nd,) + decls[i + 1 :], main.body)
    # move 3: trivialize the body
    if not isinstance(main.body, (Var, IntLit)):
        for repl in ([Var(d.name) for d in decls[-1:]] + [IntLit(0)]):
            yield render(decls, repl)
