"""End-to-end acceptance checks.

1. Exact typing verdicts with the expected derivation rules.
2. Golden reduction traces for the store-manipulation rules.
3-6. A 500-program random sweep with zero violations of subject reduction,
     progress, the capsule property, and the immutable property.
7. Unique-decomposition validated against a brute-force oracle over an
   exhaustive space of small terms.
8. Canonical-forms sweep over the same random traces.
"""

import itertools
import time

import pytest

from capslang.anf import simplify_program
from capslang.congruence import NameSupply, wf_store_decl
from capslang.generator import GenConfig, gen_source
from capslang.metatheory import (
    check_canonical_forms,
    check_capsule_theorem,
    check_immutable_theorem,
    check_progress,
    check_subject_reduction,
)
from capslang.parser import parse, parse_expr
from capslang.reducer import (
    Frame,
    NonWfDecl,
    Reducer,
    decompose,
    field_of,
    plug,
)
from capslang.syntax import (
    Block,
    Decl,
    FieldAccess,
    IntLit,
    IntType,
    New,
    Plus,
    Qualifier,
    RefType,
    Var,
    is_evaluated,
    is_value,
)
from capslang.typecheck import (
    TypeCheckError,
    resolve_implicit_types,
    typecheck_program,
)

from conftest import reduce_source
from test_reducer import alpha_equiv, is_simplified

# ---------------------------------------------------------------------------
# Criterion 1: typing verdicts
# ---------------------------------------------------------------------------

CLS = """
class D { int f; }
class C { mut D f1; mut D f2; }
"""

CLS_A = """
class A { int f; }
class D { mut A f1; mut A f2; }
class C { mut A f1; mut A f2; }
"""

NEST = """
class A { int v;
  mut A mix(mut, mut A a) { return {this.v = a.v; a}; }
  capsule A clone(read) { return new A(this.v); }
  mut A parse(static) { return new A(0); }
}
mut A a1 = A.parse();
capsule A outerA = {
  mut A a2 = A.parse();
  capsule A nestedA = { mut A a3 = A.parse(); mut A res = %s; res.mix(a3) };
  nestedA.mix(a2)
};
outerA
"""

TYPING_CASES = [
    # (source, accepted, rules that must appear in the derivation)
    (
        CLS + "mut D y = new D(0);\n"
        "capsule C z = { mut D x = new D(y.f); new C(x, x) };\nz",
        True,
        ("t-capsule",),
    ),
    (
        CLS + "mut D y = new D(0);\n"
        "capsule C z = { mut D x = new D(y.f = y.f + 1); new C(x, x) };\nz",
        True,
        ("t-capsule", "t-swap"),
    ),
    (
        CLS + "mut D y = new D(0);\n"
        "imm C z = { lent D x = new D(y.f); new C(x, x) };\nz",
        True,
        ("t-imm", "t-unrst"),
    ),
    (
        CLS + "mut D y = new D(0);\n"
        "capsule C z = { mut D x = y; new C(x, x) };\nz",
        False,
        (),
    ),
    (
        CLS + "mut D y = new D(0);\n"
        "imm C z = { lent D x = y; new C(x, x) };\nz",
        False,
        (),
    ),
    (
        CLS + "mut D z = new D(1);\nmut C x = new C(z, z);\n"
        "capsule C y = { lent D z1 = new D(1); lent D z2 = (x.f1 = z1);"
        " mut D z3 = new D(2); new C(z3, z3) };\ny",
        True,
        ("t-capsule",),
    ),
    (
        CLS + "mut D z = new D(1);\nmut C x = new C(z, z);\n"
        "capsule C y = { lent D z1 = new D(1); lent D z2 = (x.f1 = z1);"
        " mut D z3 = new D(2); new C(z1, z1) };\ny",
        False,
        (),
    ),
    (
        CLS_A + "mut A x1 = new A(0);\nmut A x2 = new A(1);\n"
        "mut D y = new D(x1, x2);\n"
        "capsule C z = { mut A x = (y.f1 = y.f2); new C(x, x) };\nz",
        False,
        (),
    ),
    (NEST % "a3", True, ("t-capsule",)),
    (NEST % "a1.clone()", True, ("t-capsule",)),
    (NEST % "a2.mix(a2).clone()", True, ("t-capsule",)),
    (NEST % "a1", False, ()),
    (NEST % "a2.mix(a1).clone()", False, ()),
]


class TestCriterion1Typing:
    def test_verdicts_and_rules(self):
        t0 = time.monotonic()
        for i, (src, accepted, rules) in enumerate(TYPING_CASES):
            p = resolve_implicit_types(parse(src))
            try:
                out = typecheck_program(p)
                ok = True
                path = out["main"].rule_path()
            except TypeCheckError:
                ok = False
                path = []
            assert ok == accepted, f"case {i}: expected accepted={accepted}"
            for r in rules:
                assert r in path, f"case {i}: {r} not in {path}"
        assert time.monotonic() - t0 < 5.0


# ---------------------------------------------------------------------------
# Criterion 2: golden reduction traces
# ---------------------------------------------------------------------------


class TestCriterion2Reduction:
    def test_cyclic_field_assign(self):
        _, tr = reduce_source(
            """
            class B { mut B f; }
            mut B x = new B(y);
            mut B y = new B(x);
            x.f = x
            """
        )
        assert [r for r, _ in tr.steps] == ["field-assign", "alias-elim"]
        assert alpha_equiv(
            tr.final, parse_expr("{mut B x = new B(x); mut B y = new B(x); x}")
        )

    def test_capsule_recovery_and_consumption(self):
        _, tr = reduce_source(
            CLS
            + """
            mut D y = new D(0);
            capsule C z = { mut D x = new D(y.f = y.f + 1); new C(x, x) };
            z
            """
        )
        assert [r for r, _ in tr.steps][-1] == "capsule-elim"
        assert alpha_equiv(
            tr.final,
            parse_expr("{mut D y = new D(1); {mut D x = new D(1); new C(x, x)}}"),
        )

    def test_field_of_projections(self):
        v = parse_expr(
            "{mut C x = new C(x, y, z); mut D y = new D(0); new C(x, y, z)}"
        )
        store = "{mut C x = new C(x, y, z); mut D y = new D(0); %s}"
        for i, ref in enumerate(("x", "y", "z")):
            assert alpha_equiv(field_of(v, i), parse_expr(store % ref))

    def test_assignment_moves_assigned_store_first(self):
        _, tr = reduce_source(
            """
            class D { int f; }
            class C { mut D f; }
            mut C x = new C(new D(9));
            imm C z = { mut D y1 = new D(0); mut D y2 = (x.f = y1);
                        mut D y3 = new D(1); new C(y3) };
            x
            """
        )
        rules = [r for r, _ in tr.steps]
        assert "field-assign-move" in rules
        assert rules.index("field-assign-move") < rules.index("field-assign")
        assert alpha_equiv(
            tr.final,
            parse_expr(
                "{mut D a = new D(9); mut D y1 = new D(0); mut C x = new C(y1);"
                " imm C z = {mut D y3 = new D(1); new C(y3)}; x}"
            ),
        )


# ---------------------------------------------------------------------------
# Criteria 3-6 and 8: random sweep (one shared 500-trace corpus)
# ---------------------------------------------------------------------------

SWEEP_SEEDS = 500


@pytest.fixture(scope="module")
def sweep():
    """Generate SWEEP_SEEDS programs, reduce the accepted ones, and collect
    violations per theorem."""
    t0 = time.monotonic()
    accepted = 0
    violations = {
        "subject-reduction": [],
        "progress": [],
        "canonical-forms": [],
        "capsule": [],
        "immutable": [],
    }
    for seed in range(SWEEP_SEEDS):
        src = gen_source(GenConfig(seed=seed))
        p = resolve_implicit_types(parse(src))
        try:
            typecheck_program(p)
        except TypeCheckError:
            continue
        accepted += 1
        sp = simplify_program(p)
        red = Reducer(sp.table, NameSupply(10_000))
        tr = red.run(sp.main, fuel=2000)
        for v in itertools.chain(
            check_subject_reduction(sp.table, tr),
            check_progress(sp.table, tr),
            check_canonical_forms(sp.table, tr),
            check_capsule_theorem(sp.table, tr),
            check_immutable_theorem(sp.table, tr),
        ):
            violations[v.theorem].append((seed, v))
    return {
        "accepted": accepted,
        "violations": violations,
        "elapsed": time.monotonic() - t0,
    }


class TestCriteria3to6Sweep:
    def test_enough_programs_accepted(self, sweep):
        assert sweep["accepted"] >= 0.3 * SWEEP_SEEDS

    def test_criterion3_subject_reduction(self, sweep):
        assert sweep["violations"]["subject-reduction"] == []

    def test_criterion4_progress(self, sweep):
        assert sweep["violations"]["progress"] == []

    def test_criterion5_capsule(self, sweep):
        assert sweep["violations"]["capsule"] == []

    def test_criterion6_immutable(self, sweep):
        assert sweep["violations"]["immutable"] == []

    def test_criterion8_canonical_forms(self, sweep):
        assert sweep["violations"]["canonical-forms"] == []

    def test_sweep_within_time_budget(self, sweep):
        assert sweep["elapsed"] < 180.0


# ---------------------------------------------------------------------------
# Criterion 7: unique decomposition against a brute-force oracle
# ---------------------------------------------------------------------------

MUT_K = RefType(Qualifier.MUT, "K")
CAP_K = RefType(Qualifier.CAPSULE, "K")


def _gen_terms(depth):
    """All simplified-form terms of the given construction depth over a
    single-field class K, one declaration per block."""
    if depth == 0:
        return [Var("u"), Var("w"), IntLit(1)]
    smaller = _gen_terms(depth - 1)
    values = [e for e in smaller if is_value(e)]
    out = list(smaller)
    for v in values:
        out.append(New("K", (v,)))
        out.append(FieldAccess(v, "f"))
    for v1, v2 in itertools.product(values, repeat=2):
        out.append(Plus(v1, v2))
    for init in smaller:
        for dt in (MUT_K, CAP_K):
            out.append(Block((Decl(dt, "x", init),), Var("x")))
        out.append(Block((Decl(IntType(), "n", init),), Var("u")))
    return out


def _oracle_splits(e):
    """Every (frames, redex) split licensed by the grammar of evaluation
    contexts, found by exhaustive search."""
    splits = []
    if isinstance(e, (FieldAccess, Plus)):
        parts = (e.recv,) if isinstance(e, FieldAccess) else (e.left, e.right)
        if all(is_value(p) for p in parts):
            splits.append(([], e))
    if isinstance(e, Block):
        for i, d in enumerate(e.decls):
            if any(
                not (is_evaluated(dd) and wf_store_decl(dd))
                for dd in e.decls[:i]
            ):
                continue  # the hole must be in the first pending declaration
            if is_evaluated(d) and wf_store_decl(d):
                continue
            if isinstance(d.init, Block):
                for frames, redex in _oracle_splits(d.init):
                    splits.append(([Frame(e, i)] + frames, redex))
                if _is_internally_normal(d.init):
                    splits.append(([], NonWfDecl(e, i)))
            elif is_value(d.init):
                splits.append(([], NonWfDecl(e, i)))
            else:
                for frames, redex in _oracle_splits(d.init):
                    splits.append(([Frame(e, i)] + frames, redex))
    return splits


def _is_internally_normal(e):
    """A value block all of whose declarations are settled: no split inside."""
    return is_value(e) and not _oracle_splits(e)


class TestCriterion7Decomposition:
    def test_oracle_agreement(self):
        terms = [e for e in _gen_terms(3) if is_simplified(e)]
        assert len(terms) >= 1000, f"only {len(terms)} candidate terms"
        checked = 0
        for e in terms:
            expected = _oracle_splits(e)
            assert len(expected) <= 1, f"ambiguous split for {e}"
            got = decompose(e)
            if expected:
                frames, redex = expected[0]
                assert got is not None, f"missed split for {e}"
                assert got.frames == frames and got.redex == redex
                # and the split really reassembles the term
                if not isinstance(redex, NonWfDecl):
                    assert plug(got.frames, got.redex) == e
            else:
                assert got is None, f"spurious split for {e}"
            checked += 1
        assert checked >= 1000
