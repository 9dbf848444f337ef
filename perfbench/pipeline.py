"""One program from source text to the verdict the matching ``caps``
command gives, through capslang's public entry points, with optional
per-layer spans and counters.

Untraced, the pipeline calls what the CLI calls (``typecheck_program``,
``verify_trace``).  Traced, it builds a ``Checker`` per method and for main
itself, so that ticks and memo sizes can be read, and calls the five
metatheory checks one by one.  Counters that need an extra walk (tokens, AST
nodes, term nodes) are taken outside every span.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

MODULES = ("syntax", "parser", "typecheck", "anf", "congruence", "reducer",
           "metatheory", "generator")

TYPING_RULES = (
    "t-block", "t-capsule", "t-field-access", "t-field-assign", "t-imm",
    "t-int", "t-meth-call", "t-new", "t-plus", "t-static-call", "t-sub",
    "t-swap", "t-unrst", "t-var",
)
REDUCTION_RULES = (
    "alias-elim", "capsule-elim", "field-access", "field-assign",
    "field-assign-move", "field-assign-prop", "imm-move", "int-elim", "invk",
    "mut-move", "plus",
)
META_CHECKS = (
    ("subject_reduction", "check_subject_reduction"),
    ("progress", "check_progress"),
    ("canonical_forms", "check_canonical_forms"),
    ("capsule", "check_capsule_theorem"),
    ("immutable", "check_immutable_theorem"),
)

EXIT_OK, EXIT_TYPE, EXIT_PARSE, EXIT_RESOURCE = 0, 1, 2, 3


def import_capslang() -> SimpleNamespace:
    """Import every capslang layer afresh, dropping earlier imports, so that
    each set-up repetition pays the import cost again."""
    for name in [m for m in sys.modules if m.split(".")[0] == "capslang"]:
        del sys.modules[name]
    return SimpleNamespace(
        **{m: importlib.import_module(f"capslang.{m}") for m in MODULES}
    )


@dataclass
class Span:
    id: int
    program: int
    name: str
    start: float
    end: float
    parent: Optional[int]


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class NoTrace:
    """Tracing off: spans cost one attribute store, which keeps the name of
    the layer running so that a crash can be attributed to it."""

    enabled = False

    def __init__(self):
        self.layer = "frontend"

    def span(self, name: str):
        self.layer = name
        return _NO_SPAN


class _OpenSpan:
    __slots__ = ("tracer", "name", "start", "id")

    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        t.layer = self.name
        self.id = len(t.spans) + 1
        t.spans.append(None)  # keeps ids in start order
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t.spans[self.id - 1] = Span(
            self.id, t.program, self.name, self.start, end, t.parent
        )
        return False


class Tracer(NoTrace):
    """Spans kept in memory (one per layer call, parented to a per-program
    span) plus counters recorded at the same boundaries."""

    enabled = True

    def __init__(self):
        super().__init__()
        self.spans: list = []
        self.counts: Counter = Counter()
        self.program = 0
        self.parent: Optional[int] = None

    def span(self, name: str):
        return _OpenSpan(self, name)

    def count(self, name: str, n=1):
        self.counts[name] += n

    def run_program(self, prog_id: int, fn):
        """fn() inside a root span for program prog_id."""
        self.program, self.parent = prog_id, None
        with self.span("program") as root:
            self.parent = root.id
            try:
                return fn()
            finally:
                self.parent = None

    def layer_seconds(self) -> Counter:
        out: Counter = Counter()
        for s in self.spans:
            out[s.name] += s.end - s.start
        return out


@dataclass
class Outcome:
    exit: int
    text: str = ""  # stdout of the command, or the diagnostic
    steps: Optional[int] = None
    violations: int = 0
    final: object = None  # final term, for the golden digest of fuzz runs
    layer: str = ""  # where a failure arose
    failure: str = ""  # non-empty: the program failed (fuzz classification)


def nodes(e, children) -> int:
    n, stack = 0, [e]
    while stack:
        x = stack.pop()
        n += 1
        stack.extend(children(x))
    return n


def _program_nodes(api, p) -> int:
    ch = api.syntax.children
    n = nodes(p.main, ch)
    for cd in p.table.classes.values():
        for m in cd.methods.values():
            n += nodes(m.body, ch)
    return n


class Pipeline:
    """The stages of one ``caps`` command over capslang's public API."""

    def __init__(self, api, mode: str, fuel: int):
        self.api, self.mode, self.fuel = api, mode, fuel

    def run(self, src: str, t: NoTrace) -> Outcome:
        t.layer = "frontend"
        try:
            p = self._load(src, t)
        except self.api.parser.ParseError as e:
            if self.mode == "fuzz":
                return Outcome(EXIT_PARSE, str(e), layer=t.layer, failure="frontend")
            return Outcome(EXIT_PARSE, f"error: {e}", layer=t.layer)
        tc = self.api.typecheck
        try:
            out = self._typecheck(p, t)
        except tc.SearchExhausted as e:
            return Outcome(EXIT_RESOURCE, f"search exhausted: {e}", layer=t.layer)
        except tc.TypeCheckError as e:
            return Outcome(EXIT_TYPE, f"type error: {e}", layer=t.layer)
        if self.mode == "check":
            j = out["main"]
            return Outcome(EXIT_OK, f"main : {j.result}\nrules: {' '.join(j.rule_path())}")
        return self._reduce(p, t)

    # -- stages ---------------------------------------------------------------

    def _load(self, src: str, t: NoTrace):
        api = self.api
        if t.enabled:
            t.count("parser.tokens", len(api.parser.tokenize(src)))
        with t.span("parser.parse"):
            p = api.parser.parse(src)
        if t.enabled:
            t.count("parser.ast_nodes", _program_nodes(api, p))
        with t.span("typecheck.resolve"):
            p = api.typecheck.resolve_implicit_types(p)
        with t.span("syntax.validate"):
            issues = api.syntax.validate_wellformedness(p) + api.syntax.validate_classtable(
                p.table
            )
        if issues:
            raise api.parser.ParseError("; ".join(str(v) for v in issues), 0, 0)
        return p

    def _typecheck(self, p, t: NoTrace) -> dict:
        tc = self.api.typecheck
        if not t.enabled:
            with t.span("typecheck.check"):
                return tc.typecheck_program(p)
        # typecheck_program, with the checkers kept for their counters
        checkers: list = []

        def checker():
            checkers.append(tc.Checker(p.table))
            return checkers[-1]

        out = {}
        try:
            with t.span("typecheck.check"):
                for cname, cd in p.table.classes.items():
                    for mname in cd.methods:
                        sig = p.table.method(cname, mname)
                        ctx = tc.method_context(p.table, cname, sig)
                        out[f"{cname}.{mname}"] = checker().check(ctx, sig.body, sig.ret)
                out["main"] = checker().infer(tc.TypeContext.make({}), p.main)
        except tc.SearchExhausted:
            t.count("typecheck.exhausted")
            raise
        except tc.TypeCheckError:
            t.count("typecheck.rejected")
            raise
        finally:
            t.count("typecheck.ticks", sum(c.ticks for c in checkers))
            t.count("typecheck.memo_entries", sum(len(c.memo) for c in checkers))
        for j in out.values():
            t.counts.update(f"typecheck.rules.{r}" for r in j.rule_path())
        return out

    def _reduce(self, p, t: NoTrace) -> Outcome:
        api = self.api
        with t.span("anf.simplify"):
            sp = api.anf.simplify_program(p)
        if t.enabled:
            t.count("anf.nodes_out", _program_nodes(api, sp))
        try:
            with t.span("reducer.run"):
                red = api.reducer.Reducer(sp.table, api.congruence.NameSupply(100_000))
                trace = red.run(sp.main, fuel=self.fuel)
        except api.reducer.OutOfFuel as e:
            t.count("reducer.out_of_fuel")
            msg = f"out of fuel after {len(e.trace.steps)} steps"
            return Outcome(EXIT_RESOURCE, msg, layer=t.layer, failure="out-of-fuel")
        except api.reducer.ReductionError as e:
            return Outcome(EXIT_TYPE, f"reduction error: {e}", layer=t.layer,
                           failure=f"reduction: {type(e).__name__}")
        steps = len(trace.steps)
        if t.enabled:
            t.count("reducer.steps", steps)
            t.counts.update(f"reducer.steps.{rule}" for rule, _ in trace.steps)
            ch = api.syntax.children
            t.count("reducer.terms", steps + 1)
            t.count("reducer.term_nodes", nodes(trace.initial, ch)
                    + sum(nodes(term, ch) for _, term in trace.steps))
        text = ""
        if self.mode != "fuzz":  # caps fuzz prints no final store
            with t.span("congruence.canonical"):
                text = api.parser.pretty_print(api.congruence.canonical(trace.final))
        out = Outcome(EXIT_OK, text, steps=steps, final=trace.final)
        if self.mode == "run":
            return out
        violations = self._verify(sp.table, trace, t)
        if violations:
            out.exit, out.violations, out.layer = EXIT_TYPE, len(violations), "metatheory"
            out.failure = "meta: " + violations[0].theorem
            out.text += "\n" + "\n".join(v.to_json() for v in violations)
        return out

    def _verify(self, table, trace, t: NoTrace) -> list:
        mt = self.api.metatheory
        if not t.enabled:
            with t.span("metatheory.verify"):
                return mt.verify_trace(table, trace)
        violations = []
        for name, fn in META_CHECKS:
            with t.span(f"metatheory.{name}"):
                violations += getattr(mt, fn)(table, trace)
        t.count("metatheory.terms_checked", len(trace.steps) + 1)
        t.count("metatheory.violations", len(violations))
        return violations
