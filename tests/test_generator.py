"""Random program generator: determinism, acceptance rate, the ill-typed
injections, and shrinking of failing inputs."""

from capslang.generator import GenConfig, gen_source, shrink
from capslang.parser import ParseError, parse
from capslang.syntax import validate_classtable, validate_wellformedness
from capslang.typecheck import (
    SearchExhausted,
    TypeCheckError,
    resolve_implicit_types,
    typecheck_program,
)


def classify(src):
    p = resolve_implicit_types(parse(src))
    assert validate_wellformedness(p) == []
    assert validate_classtable(p.table) == []
    try:
        typecheck_program(p)
        return "accept"
    except SearchExhausted:
        return "exhausted"
    except TypeCheckError:
        return "reject"


def parses(src):
    try:
        parse(src)
        return True
    except ParseError:
        return False


class TestGeneration:
    def test_deterministic(self):
        a = gen_source(GenConfig(seed=42))
        b = gen_source(GenConfig(seed=42))
        assert a == b

    def test_seeds_differ(self):
        assert gen_source(GenConfig(seed=1)) != gen_source(GenConfig(seed=2))

    def test_always_parses_and_wf(self):
        for seed in range(60):
            classify(gen_source(GenConfig(seed=seed)))

    def test_acceptance_rate(self):
        n = 120
        accepted = sum(
            classify(gen_source(GenConfig(seed=s))) == "accept" for s in range(n)
        )
        assert accepted >= 0.3 * n

    def test_produces_rejections_too(self):
        n = 120
        rejected = sum(
            classify(gen_source(GenConfig(seed=s))) == "reject" for s in range(n)
        )
        assert rejected > 0


class TestShrink:
    def test_shrink_preserves_failure(self):
        # use a synthetic failure predicate: "mentions f0 assignment"
        for seed in range(40):
            src = gen_source(GenConfig(seed=seed))
            if ".f0 =" not in src:
                continue
            failing = lambda s: ".f0 =" in s
            small = shrink(src, failing)
            assert failing(small)
            assert len(small) <= len(src)
            return
        raise AssertionError("no seed produced a field assignment")

    def test_shrink_reduces_size(self):
        for seed in range(40):
            src = gen_source(GenConfig(seed=seed, size=12))
            if src.count("\n") < 10:
                continue
            small = shrink(src, lambda s: True)
            assert len(small) < len(src)
            return
        raise AssertionError("no sizable program generated")

    def test_shrink_keeps_statement_sugar_parsable(self):
        # `x.f = 1;` is a declaration without a type: every candidate must
        # print it back as a statement
        src = (
            "class D { int f; } mut D x = new D(0); x.f = 1; "
            "mut D y = new D(2); y.f = 3; y"
        )
        for failing in (parses, lambda s: True):
            out = shrink(src, failing)
            assert parses(out)
            assert len(out) < len(src)
