"""Lemmas of the soundness proof as executable properties, each stated in
the form the proof uses it and checked with the checker alone on the terms
of reduction traces: the accepted corpus and well-typed generated programs.

Congruence: congruent terms get the same verdict and result.  A block's
store is a set, so reordering a run of evaluated declarations gives a
congruent term (`congruence.canonical` sorts the same runs)."""

import random

import pytest

from capslang.generator import GenConfig, gen_source
from capslang.syntax import Block, is_evaluated, map_children
from capslang.typecheck import Checker, TypeCheckError, TypeContext

from conftest import CORPUS, reduce_source

SOURCES = {
    "corpus": lambda: [f.read_text() for f in sorted((CORPUS / "accept").glob("*.caps"))],
    "n8": lambda: [
        gen_source(GenConfig(seed=s, size=8, reject_rate=0.0)) for s in range(100)
    ],
    "n16": lambda: [
        gen_source(GenConfig(seed=s, size=16, reject_rate=0.0)) for s in range(40)
    ],
}


def shuffled(run: list, rng: random.Random) -> list:
    """The declarations of run in an order drawn from rng, another one than
    run's when it has two or more."""
    order = run[:]
    rng.shuffle(order)
    return order if order != run else order[::-1]


def shuffled_runs(e, rng: random.Random):
    """e with each run of evaluated declarations in every block reordered
    (`shuffled`).  A block that declares a name twice (a reduct may) keeps
    its order: which declaration is the last of the name depends on it."""
    if isinstance(e, Block) and len({d.name for d in e.decls}) == len(e.decls):
        decls, run = [], []
        for d in e.decls:
            if is_evaluated(d):
                run.append(d)
            else:
                decls += shuffled(run, rng) + [d]
                run = []
        e = Block(tuple(decls + shuffled(run, rng)), e.body, e.span)
    return map_children(e, shuffled_runs, rng)


def verdict(table, term, goal):
    """What a fresh Checker says of term against goal: its result, or the
    kind of its failure."""
    try:
        return "ok", Checker(table).check(TypeContext.make({}), term, goal).result
    except TypeCheckError as err:
        return err.kind, None


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_typing_is_invariant_under_congruence(name):
    """Every term of every trace, with the runs of evaluated declarations
    of each block reordered, checks against the goal of subject reduction
    (the initial term's result) as the term itself does."""
    rng = random.Random(0)
    terms = moved = 0
    for src in SOURCES[name]():
        p, trace = reduce_source(src)
        goal = Checker(p.table).check(TypeContext.make({}), trace.initial, None).result
        for term in trace.terms:
            other = shuffled_runs(term, rng)
            assert verdict(p.table, other, goal) == verdict(p.table, term, goal)
            terms += 1
            moved += other != term
    # a quarter of the terms or more have a run of two to reorder (2,154 of
    # 2,455 over the three sets), so the property is not met vacuously
    assert moved > terms / 4
