"""Command-line driver.

Subcommands: check (typecheck a program and print the derivation rules used),
run (reduce it, optionally tracing every step and verifying the metatheory),
dot (export the object store as Graphviz), fuzz (random differential testing
with shrinking).

Exit codes: 0 success; 1 type error, reduction error or metatheory
violation; 2 parse or well-formedness error, a file that cannot be read, a
negative --fuel, --budget, --count, --size or --at-step, or an --at-step
past the end of the trace; 3 resource exhaustion (search budget, fuel, or a
program nested too deeply for the recursion limit), and a --verify-meta
whose every violation is inconclusive (its search budget ran out).  The
commands raise; `main` maps each exception to its exit code and one-line
diagnostic.
"""

from __future__ import annotations

import argparse
import sys

from .anf import simplify_program
from .congruence import NameSupply, canonical
from .generator import GenConfig, gen_source, shrink
from .metatheory import verify_trace
from .parser import ParseError, _ident_out, parse, pretty_print
from .reducer import OutOfFuel, Reducer, ReductionError
from .syntax import (
    Block,
    New,
    Qualifier,
    RefType,
    Var,
    validate_classtable,
    validate_wellformedness,
)
from .typecheck import (
    SearchExhausted,
    TypeCheckError,
    resolve_implicit_types,
    typecheck_program,
)

EXIT_OK = 0
EXIT_TYPE = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3

# numeric options that may not be negative: a negative one exits
# EXIT_PARSE before any work (zero keeps its meaning)
_NON_NEGATIVE = ("fuel", "budget", "count", "size", "at-step")


def _load(text: str):
    # validated before a discard's type is inferred, which may name a
    # missing class
    p = parse(text)
    issues = validate_wellformedness(p) + validate_classtable(p.table)
    if issues:
        # at the first violation's span; class-table violations and capsule
        # parameters have none
        raise ParseError("; ".join(str(v) for v in issues), *(issues[0].span or ()))
    return resolve_implicit_types(p)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def cmd_check(args) -> int:
    p = _load(_read(args.file))
    j = typecheck_program(p, budget=args.budget)["main"]
    print(f"main : {j.result}")
    print("rules:", " ".join(j.rule_path()))
    return EXIT_OK


def _reduce(p, fuel: int):
    sp = simplify_program(p)
    red = Reducer(sp.table, NameSupply(100_000))
    return sp, red.run(sp.main, fuel=fuel)


def cmd_run(args) -> int:
    p = _load(_read(args.file))
    typecheck_program(p, budget=args.budget)
    sp, trace = _reduce(p, args.fuel)
    if args.trace:
        for i, (rule, term) in enumerate(trace.steps):
            print(f"#{i + 1} [{rule}] {pretty_print(canonical(term))}")
    print(pretty_print(canonical(trace.final)))
    if args.verify_meta:
        violations = verify_trace(sp.table, trace, budget=args.budget)
        for v in violations:
            print(v.to_json(), file=sys.stderr)
        if any(not v.message.startswith("inconclusive:") for v in violations):
            return EXIT_TYPE
        if violations:
            return EXIT_RESOURCE  # only searches that ran out of budget
    return EXIT_OK


# ---------------------------------------------------------------------------
# Graphviz export of the object store
# ---------------------------------------------------------------------------

_SHAPES = {
    Qualifier.MUT: "circle",
    Qualifier.LENT: "circle",
    Qualifier.READ: "circle",
    Qualifier.IMM: "diamond",
    Qualifier.CAPSULE: "box",
}


def store_dot(term) -> str:
    """The store of a (partially) reduced term as a Graphviz digraph: one node
    per stored reference (shape by qualifier), one edge per object field,
    clusters for nested local stores, a bold edge marking the entry point."""
    lines = ["digraph store {", "  rankdir=LR;", "  node [fontsize=10];"]
    counter = [0]
    edges: list = []

    def node_id() -> str:
        counter[0] += 1
        return f"n{counter[0]}"

    def emit_store(block: Block, scope: dict, indent: str) -> dict:
        ids = dict(scope)
        for d in block.decls:
            ids[d.name] = node_id()
        for d in block.decls:
            q = d.dtype.qualifier if isinstance(d.dtype, RefType) else None
            shape = _SHAPES.get(q, "plaintext")
            label = _ident_out(d.name)
            if isinstance(d.init, New):
                label += f"\\nnew {d.init.cname}"
            lines.append(
                f'{indent}{ids[d.name]} [label="{label}", shape={shape}];'
            )
            if isinstance(d.init, New):
                for a in d.init.args:
                    if isinstance(a, Var) and a.name in ids:
                        edges.append((ids[d.name], ids[a.name], False))
            elif isinstance(d.init, Block):
                lines.append(f"{indent}subgraph cluster_{ids[d.name]} {{")
                lines.append(f'{indent}  label="{label}";')
                inner = emit_store(d.init, ids, indent + "  ")
                body = d.init.body
                if isinstance(body, Var) and body.name in inner:
                    edges.append((ids[d.name], inner[body.name], False))
                lines.append(f"{indent}}}")
            elif isinstance(d.init, Var) and d.init.name in ids:
                edges.append((ids[d.name], ids[d.init.name], False))
        return ids

    if isinstance(term, Block):
        ids = emit_store(term, {}, "  ")
        entry = node_id()
        lines.append(f'  {entry} [label="result", shape=plaintext];')
        if isinstance(term.body, Var) and term.body.name in ids:
            edges.append((entry, ids[term.body.name], True))
    else:
        entry = node_id()
        lines.append(f'  {entry} [label="{pretty_print(term)}", shape=plaintext];')
    for src, dst, bold in edges:
        attr = ' [style=bold]' if bold else ""
        lines.append(f"  {src} -> {dst}{attr};")
    lines.append("}")
    return "\n".join(lines)


def cmd_dot(args) -> int:
    p = _load(_read(args.file))
    typecheck_program(p)
    try:
        sp, trace = _reduce(p, args.fuel)
    except OutOfFuel as e:
        trace = e.trace  # draw the store as far as reduction got
    k = len(trace.steps) if args.at_step is None else args.at_step
    if k > len(trace.steps):
        print(f"error: trace has only {len(trace.steps)} steps", file=sys.stderr)
        return EXIT_PARSE
    print(store_dot(trace.terms[k]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Fuzzing
# ---------------------------------------------------------------------------


def _fuzz_failure(src: str, fuel: int) -> tuple:
    """Classify what goes wrong for this source: (failure, accepted).
    failure is '' when everything is fine (including a clean type
    rejection); accepted tells whether the program typechecked."""
    try:
        p = _load(src)
        typecheck_program(p)
    except ParseError as e:
        return f"frontend: {e}", False
    except TypeCheckError:
        return "", False  # a clean rejection or an inconclusive search
    except Exception as e:  # noqa: BLE001 - crashes must be reported
        return f"checker-crash: {type(e).__name__}", False
    try:
        sp, trace = _reduce(p, fuel)
    except OutOfFuel:
        return "out-of-fuel", True
    except ReductionError as e:
        return f"reduction: {type(e).__name__}", True
    except Exception as e:  # noqa: BLE001
        return f"reducer-crash: {type(e).__name__}", True
    violations = verify_trace(sp.table, trace)
    if violations:
        return "meta: " + violations[0].theorem, True
    return "", True


def cmd_fuzz(args) -> int:
    failures = 0
    accepted = 0
    for i in range(args.count):
        seed = args.seed + i
        src = gen_source(GenConfig(seed=seed, size=args.size))
        failure, ok = _fuzz_failure(src, args.fuel)
        accepted += ok
        if failure:
            failures += 1
            kind = failure.split(":")[0]
            shrunk = shrink(
                src, lambda s: _fuzz_failure(s, args.fuel)[0].startswith(kind)
            )
            out = f"caps_repro_{seed}.caps"
            with open(out, "w", encoding="utf-8") as f:
                f.write(f"// repro seed={seed} failure={failure}\n")
                f.write(shrunk)
            print(f"seed {seed}: {failure} (repro written to {out})")
    print(f"{args.count} programs, {accepted} accepted, {failures} failures")
    return EXIT_TYPE if failures else EXIT_OK


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="caps",
        description="Typechecker, reducer and metatheory checks for an "
        "object calculus with aliasing/mutation qualifiers.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("check", help="typecheck a program")
    c.add_argument("file")
    c.add_argument("--budget", type=int, default=None)
    c.set_defaults(fn=cmd_check)

    r = sub.add_parser("run", help="reduce a program")
    r.add_argument("file")
    r.add_argument("--trace", action="store_true")
    r.add_argument("--fuel", type=int, default=10_000)
    r.add_argument("--budget", type=int, default=None)
    r.add_argument("--verify-meta", action="store_true")
    r.set_defaults(fn=cmd_run)

    d = sub.add_parser("dot", help="export the object store as Graphviz")
    d.add_argument("file")
    d.add_argument("--at-step", type=int, default=None)
    d.add_argument("--fuel", type=int, default=10_000)
    d.set_defaults(fn=cmd_dot)

    f = sub.add_parser("fuzz", help="random differential testing")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--count", type=int, default=100)
    f.add_argument("--size", type=int, default=8)
    f.add_argument("--fuel", type=int, default=2_000)
    f.set_defaults(fn=cmd_fuzz)

    args = ap.parse_args(argv)
    for option in _NON_NEGATIVE:
        value = getattr(args, option.replace("-", "_"), None)
        if value is not None and value < 0:
            print(f"error: --{option} {value} is negative", file=sys.stderr)
            return EXIT_PARSE
    try:
        return args.fn(args)
    except (ParseError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except TypeCheckError as e:
        at = f" at {e.span[0]}:{e.span[1]}" if e.span else ""
        if isinstance(e, SearchExhausted):
            print(f"search exhausted: {e}{at}", file=sys.stderr)
            return EXIT_RESOURCE
        print(f"type error: {e}{at}", file=sys.stderr)
        return EXIT_TYPE
    except OutOfFuel as e:
        print(f"out of fuel after {len(e.trace.steps)} steps", file=sys.stderr)
        return EXIT_RESOURCE
    except ReductionError as e:
        print(f"reduction error: {e}", file=sys.stderr)
        return EXIT_TYPE
    except RecursionError:
        print(
            "resource exhausted: program nested too deeply for the recursion limit",
            file=sys.stderr,
        )
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
