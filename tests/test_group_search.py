"""The lent-group search against an unpruned oracle.

`Checker.check_block` enumerates each set partition of a block's lent
locals once (`typecheck._partitions`), and skips a candidate when one of
its premises repeats a check that already failed under the same projection
of its context.  `Checker._check` does not try the group swap for a mut goal,
which it can never conclude.  `UnprunedChecker` is the search as it was
before: every tuple of `itertools.product` with duplicates dropped after
sorting, every candidate checked in full, and the swap tried for every
goal.  Both must reach the same verdict, message, span, derivation (rules
and notes included), and the pruned search may not spend more ticks.  The
oracle cuts its notes from its own groups as the checker does: a swap's to
the swapped group's members the term mentions, a block's to each group's
members the block mentions.
"""

import itertools
import random
from typing import Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from capslang import typecheck
from capslang.context import Gamma
from capslang.generator import GenConfig, gen_source
from capslang.syntax import (
    INT, Block, Decl, FieldAccess, IntLit, New, Plus, Qualifier, RefType, Var,
    children, free_vars, mentions, stored_type, subtype,
)
from capslang.typecheck import (
    MAX_LENT_LOCALS,
    Checker,
    IllTyped,
    Judgment,
    TypeCheckError,
    TypeContext,
    _Bits,
    _Failure,
    _IN_PROGRESS,
    _group_candidates,
    _group_part,
    _partitions,
    _weaken,
    method_context,
    wf_context,
)

from conftest import CORPUS, load


def _norm(groups):
    return tuple(sorted(tuple(sorted(g)) for g in groups))


def place(base_groups, names, assignment):
    """The groups of an assignment: names[i] joins base group a[i] or new
    group a[i] (numbered on from the base groups in order of first use)."""
    groups = [set(g) for g in base_groups]
    slots: dict = {}
    for x, c in zip(names, assignment):
        if c < len(base_groups):
            groups[c].add(x)
        else:
            slots.setdefault(c, set()).add(x)
    return tuple(frozenset(g) for g in groups) + tuple(
        frozenset(s) for s in slots.values()
    )


def product_candidates(names, base_groups):
    """Every assignment of names to base groups or new slots in
    itertools.product order, dropping a candidate whose sorted form was seen
    before: the reference order of the checker's candidates."""
    emitted = set()
    k, n = len(base_groups), len(names)
    for choice in itertools.product(range(k + n), repeat=n):
        out = place(base_groups, names, choice)
        key = _norm(out)
        if key not in emitted:
            emitted.add(key)
            yield out


class UnprunedChecker(Checker):
    """The oracle: product-plus-dedup enumeration, every candidate's
    premises checked in full until one candidate succeeds, and the group
    swap tried for a mut goal too.  It records the goal of every judgment
    the swap concludes in `swap_goals`, and how many swaps it tried for a
    mut goal in `mut_swaps`."""

    def __init__(self, table, budget=None):
        super().__init__(table, budget)
        self.swap_goals: list = []
        self.mut_swaps = 0

    def _check(self, ctx, e, goal):
        try:
            j = super()._check(ctx, e, goal)
        except IllTyped:
            if not (isinstance(goal, RefType) and goal.qualifier is Qualifier.MUT):
                raise
            # Checker skips the swap for a mut goal.  For mut it came last,
            # right before the first failure was raised, and left that
            # failure as it was: trying it here is the search as before.
            j = self._swap(ctx, e, goal)
            if j is None:
                raise
        if j.rule == "t-swap":
            self.swap_goals.append(goal)
        return j

    def _swap(self, ctx, e, goal):
        """The swap loop of `Checker._check` for a mut goal (whose only
        inner goal is mut itself)."""
        for g in ctx.groups:
            if g & ctx.restricted:
                continue
            self.mut_swaps += 1
            try:
                j = self.check(ctx.swap(g), e, goal)
            except IllTyped:
                continue
            weakened = _weaken(j.result)
            if subtype(weakened, goal):
                note = ("swap", tuple(sorted(g & mentions(e))))
                return Judgment(e, weakened, "t-swap", (j,), note=note)
        return None

    def check_block(self, ctx, block, goal: Optional[RefType]):
        decls = block.decls
        if not decls:
            j = self.check(ctx, block.body, goal)
            return Judgment(block, j.result, "t-block", (j,))
        dom = frozenset(d.name for d in decls)
        names = mentions(block)
        gamma = dict(ctx.env)
        for d in decls:
            if d.dtype is None:
                raise IllTyped(
                    f"declaration {d.name} lacks a type (unresolved sugar)", d.span
                )
            gamma[d.name] = stored_type(d.dtype)
        gamma_items = tuple(sorted(gamma.items()))
        base_groups = tuple(g - dom for g in ctx.groups if g - dom)
        restricted = ctx.restricted - dom
        quals = {d.name: getattr(d.dtype, "qualifier", None) for d in decls}
        lent_locals = [x for x, q in quals.items() if q is Qualifier.LENT]
        mut_locals = [x for x, q in quals.items() if q is Qualifier.MUT]
        if len(lent_locals) > MAX_LENT_LOCALS:
            return super().check_block(ctx, block, goal)  # raises SearchExhausted
        first = None
        candidates = self._group_candidates(block, lent_locals, base_groups, mut_locals)
        for groups in candidates:
            ctx_body = TypeContext(Gamma(dict(gamma_items)), groups, restricted)
            if not wf_context(ctx_body):
                continue
            try:
                premises = []
                for d in decls:
                    own = ctx_body.group_of(d.name)
                    ctx_d = ctx_body.swap(own) if own else ctx_body
                    j_own = self._try_consume(block, d, gamma)
                    premises.append(
                        j_own if j_own is not None
                        else self.check(ctx_d, d.init, gamma[d.name])
                    )
                jb = self.check(ctx_body, block.body, goal)
                return Judgment(
                    block, jb.result, "t-block", tuple(premises) + (jb,),
                    note=("groups", tuple(tuple(sorted(g & names)) for g in groups)),
                )
            except IllTyped as err:
                first = first or _Failure(err)
        raise first.error() if first else IllTyped(
            "no lent-group assignment typechecks", block.span
        )

    def _group_candidates(self, block, lent_locals, base_groups, mut_locals=()):
        lent = list(product_candidates(lent_locals, base_groups))
        yield from lent
        emitted = {_norm(g) for g in lent}
        inits = {d.name: d.init for d in block.decls}
        eligible = []
        for x in mut_locals:
            touched = tuple(
                i for i, g in enumerate(base_groups) if free_vars(inits[x]) & g
            )
            if touched:
                eligible.append((x, touched))
        if not eligible or len(eligible) > MAX_LENT_LOCALS:
            return
        for choice in itertools.product(*[(None,) + t for _, t in eligible]):
            if all(c is None for c in choice):
                continue
            extra: dict = {}
            for (x, _), c in zip(eligible, choice):
                if c is not None:
                    extra.setdefault(c, set()).add(x)
            for lent_groups in lent:
                out = tuple(
                    g | extra.get(i, set()) if i < len(base_groups) else g
                    for i, g in enumerate(lent_groups)
                )
                if _norm(out) not in emitted:
                    emitted.add(_norm(out))
                    yield out


def derivation(j):
    """Everything a judgment shows: rule, result and note of every node, in
    preorder.  A premise's context follows from the root context and the
    rules and notes above it."""
    out = [(j.rule, str(j.result), j.note)]
    for p in j.premises:
        out.extend(derivation(p))
    return out


def checked_bodies(p):
    """(context, body, goal) of every method body and of main."""
    goals = [
        (method_context(p.table, cname, sig), sig.body, sig.ret)
        for cname, cd in p.table.classes.items()
        for sig in cd.methods.values()
    ]
    goals.append((TypeContext.make({}), p.main, None))
    return goals


def outcomes(p, checker_cls):
    """(verdict, ticks) for every method body and main, each with a fresh
    checker."""
    out = []
    for ctx, body, goal in checked_bodies(p):
        c = checker_cls(p.table)
        try:
            j = c.check(ctx, body, goal)
            verdict = ("ok", tuple(j.rule_path()), derivation(j))
        except TypeCheckError as err:
            verdict = (err.kind, str(err), err.span)
        out.append((verdict, c.ticks))
    return out


def assert_same_as_oracle(sources):
    """Same outcome and no more ticks, except where the oracle runs out of
    budget: the pruned search may then still reach a verdict."""
    for src in sources:
        p = load(src)
        pruned, oracle = outcomes(p, Checker), outcomes(p, UnprunedChecker)
        for (verdict, ticks), (want, oracle_ticks) in zip(pruned, oracle):
            if want[0] != "SearchExhausted":
                assert verdict == want, src
                assert ticks <= oracle_ticks, src


def lent_source(k: int, leak: bool, seed: int) -> str:
    """A capsule initializer block with k lent locals, the last of which
    stores the first into a field of the outer mut object x.  The block
    ends in a fresh object (accepted) or in one built from the grouped z1,
    which would leak x's group into the capsule (rejected).  The seed varies
    class names, literals and a prefix shared by every variable."""
    rng = random.Random(seed)
    d, c = rng.choice(("D", "Node", "Leaf")), rng.choice(("C", "Pair", "Box"))
    pre = rng.choice(("", "v", "t_"))
    lit = lambda: rng.randrange(100)  # noqa: E731
    locals_ = [f"lent {d} {pre}z{i} = new {d}({lit()});" for i in range(1, k)]
    locals_.append(f"lent {d} {pre}u = ({pre}x.f1 = {pre}z1);")
    body = f"{pre}z1" if leak else f"{pre}w"
    return (
        f"class {d} {{ int f; }}\n"
        f"class {c} {{ mut {d} f1; mut {d} f2; }}\n"
        f"mut {d} {pre}z = new {d}({lit()});\n"
        f"mut {c} {pre}x = new {c}({pre}z, {pre}z);\n"
        f"capsule {c} {pre}y = {{ {' '.join(locals_)} "
        f"mut {d} {pre}w = new {d}({lit()}); new {c}({body}, {body}) }};\n"
        f"{pre}y\n"
    )


def lent_block_source(seed: int) -> str:
    """A random initializer block (capsule, imm, mut or read) over lent,
    mut, read, capsule and imm locals whose initializers copy, alias, store
    into the outer x, call methods with lent and mut receivers, and nest
    further blocks; extra statements store into fields or call x.put."""
    rng = random.Random(seed)
    meth = rng.random() < 0.5
    lines = [
        "class D { int f; }",
        "class C { mut D f1; mut D f2; imm D i; "
        + ("mut D get(lent) { return this.f1; } "
           "int put(mut, lent D a) { "
           "return {mut D t = (this.f1 = new D(a.f)); 0}; } "
           "capsule D fresh(read) { return new D(this.f1.f); } " if meth else "")
        + "}",
        "mut D z = new D(1);",
        "mut C x = new C(z, z, new D(2));",
    ]
    if rng.random() < 0.5:
        lines.append("read C r = x;")
    counter = iter(range(1, 1000))

    def name(prefix):
        return f"{prefix}{next(counter)}"

    def init(avail, depth):
        c = rng.random()
        if c < 0.25 or not avail:
            return f"new D({rng.randint(0, 9)})"
        a = rng.choice(avail)
        if c < 0.4:
            return a
        if c < 0.5:
            return f"new D({a}.f)"
        if c < 0.6:
            return f"new D({a}.f + {rng.choice(avail)}.f)"
        if c < 0.7:
            return f"(x.f{rng.randint(1, 2)} = {a})"
        if c < 0.75 and meth:
            return "x.fresh()"
        if c < 0.8 and meth:
            return "x.get()"
        if depth < 2:
            return block(avail, depth + 1, "D")
        return f"x.f{rng.randint(1, 2)}"

    def block(avail, depth, ty):
        kinds = rng.choices(
            ["lent", "mut", "read", "capsule", "imm"], [5, 3, 1, 1, 1],
            k=rng.randint(1, 3 if depth else 4),
        )
        decls, local = [], []
        for kind in kinds:
            x = name("a")
            decls.append(f"{kind} D {x} = {init(avail + local, depth)};")
            local.append(x)
        pool = avail + local
        if rng.random() < 0.3 and meth:
            decls.append(f"int {name('s')} = x.put({rng.choice(pool)});")
        if rng.random() < 0.3 and len(pool) >= 2:
            lhs, rhs = rng.choice(pool), rng.choice(pool)
            decls.append(f"int {name('s')} = ({lhs}.f = {rhs}.f);")
        if ty == "D":
            body = rng.choice(
                pool + [f"new D({rng.choice(pool)}.f)", f"new D({rng.randint(0, 9)})"]
            )
        else:
            pick = lambda: rng.choice(pool + [f"new D({rng.randint(0, 9)})"])  # noqa: E731
            body = f"new C({pick()}, {pick()}, new D(3))"
        return f"{{ {' '.join(decls)} {body} }}"

    q = rng.choice(["capsule", "imm", "mut", "capsule", "read"])
    lines.append(f"{q} C y = {block(['z'], 0, 'C')};")
    lines.append("y")
    return "\n".join(lines) + "\n"


# lent_block_source seeds (of 0..1499) whose first failure depends on the
# candidate order: tried after a must-share guess, the same candidates fail
# first at another goal.  The oracle must report the plain order's failure.
MOVED_FIRST_FAILURES = (
    90, 161, 194, 195, 203, 220, 237, 260, 280, 302, 314, 359, 406, 430, 471,
    493, 857, 863, 892, 971, 1103, 1143, 1152, 1158, 1162, 1181, 1260, 1285,
    1460,
)


def main_ticks(src: str) -> tuple:
    p = load(src)
    c = Checker(p.table)
    try:
        c.infer(TypeContext.make({}), p.main)
        return "ok", c.ticks
    except IllTyped:
        return "rejected", c.ticks


class TestAgainstOracle:
    def test_corpus(self):
        assert_same_as_oracle(p.read_text() for p in sorted(CORPUS.glob("*/*.caps")))

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("leak", [False, True])
    def test_lent_family(self, k, leak):
        assert_same_as_oracle(lent_source(k, leak, seed) for seed in range(3))

    @pytest.mark.parametrize("leak", [False, True])
    def test_lent_family_k6(self, leak):
        # the oracle needs about 3 s for the rejected program
        assert_same_as_oracle([lent_source(6, leak, seed=0)])

    @pytest.mark.parametrize("size", [8, 16])
    @pytest.mark.parametrize("reject_rate", [0.0, 0.3])
    def test_generated(self, size, reject_rate):
        assert_same_as_oracle(
            gen_source(GenConfig(seed=s, size=size, reject_rate=reject_rate))
            for s in range(200)
        )

    def test_random_lent_blocks(self):
        assert_same_as_oracle(
            lent_block_source(seed) for seed in [*range(60), *MOVED_FIRST_FAILURES]
        )


def oracle_swaps(sources):
    """The goals of the oracle's swap conclusions over every method body
    and main, and how many swaps it tried for a mut goal."""
    goals, mut_swaps = [], 0
    for src in sources:
        p = load(src)
        for ctx, body, goal in checked_bodies(p):
            c = UnprunedChecker(p.table)
            try:
                c.check(ctx, body, goal)
            except TypeCheckError:
                pass
            goals += c.swap_goals
            mut_swaps += c.mut_swaps
    return goals, mut_swaps


class TestNameDeclaredTwice:
    """No source declares a name twice in one block, but a reduct may.  A
    candidate of the search on masks is well-formed without a check of
    its own, so a name declared twice must come out as it did when each
    candidate was checked (`wf_context`), and as the oracle has it."""

    def test_retyped_mut_local_joins_no_group(self):
        # m is declared mut and its (last) initializer reads the lent x, so
        # m may join x's group once the base groups fail; its second
        # declaration types it int, so no candidate may put it there
        d = RefType(Qualifier.MUT, "D")
        block = Block(
            (
                Decl(d, "m", New("D", (IntLit(1),))),
                Decl(INT, "m", FieldAccess(Var("x"), "f")),
            ),
            Var("m"),
        )
        ctx = TypeContext.make({"x": d}, groups=(frozenset({"x"}),))
        table = load("class D { int f; }\n0\n").table
        got, want = [], []
        for cls, out in ((Checker, got), (UnprunedChecker, want)):
            c = cls(table)
            try:
                c.check(ctx, block, INT)
                out.append("ok")
            except IllTyped as err:
                out.append((str(err), err.span))
        assert got == want == [("no derivation for goal int", None)]


class TestSwapNeverConcludesMut:
    """The lemma behind skipping the swap for a mut goal, in the oracle,
    which still tries it: no judgment the swap concludes answers a mut
    goal.  Each case asserts that the oracle did try to swap for a mut
    goal, so the lemma is not met vacuously."""

    def assert_lemma(self, sources):
        goals, mut_swaps = oracle_swaps(sources)
        assert mut_swaps > 0
        assert not [
            g for g in goals
            if isinstance(g, RefType) and g.qualifier is Qualifier.MUT
        ]

    def test_corpus(self):
        self.assert_lemma(p.read_text() for p in sorted(CORPUS.glob("*/*.caps")))

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_lent_family(self, k):
        self.assert_lemma(
            lent_source(k, leak, seed)
            for leak in (False, True)
            for seed in range(3 if k < 6 else 1)
        )

    @pytest.mark.parametrize("size", [8, 16])
    @pytest.mark.parametrize("reject_rate", [0.0, 0.3])
    def test_generated(self, size, reject_rate):
        self.assert_lemma(
            gen_source(GenConfig(seed=s, size=size, reject_rate=reject_rate))
            for s in range(200)
        )


class TestTicks:
    """Ticks are deterministic, so the pruning is gated on them."""

    @pytest.mark.parametrize("k, bound", [(5, 500), (6, 800)])
    def test_lent_reject(self, k, bound):
        verdict, ticks = main_ticks(lent_source(k, True, seed=0))
        assert verdict == "rejected"
        assert ticks < bound

    # k -> (ticks, memo entries) of main, accepted and rejected: the search
    # on masks visits the candidates of the search on frozensets, in order,
    # and checks the same premises
    LENT_FAMILY = {
        2: ((27, 15), (42, 28)),
        3: ((51, 30), (123, 77)),
        4: ((87, 51), (244, 146)),
        5: ((135, 78), (405, 235)),
        6: ((195, 111), (606, 344)),
    }

    @pytest.mark.parametrize("k", sorted(LENT_FAMILY))
    @pytest.mark.parametrize("leak", [False, True])
    def test_lent_family_exact(self, k, leak):
        p = load(lent_source(k, leak, seed=0))
        c = Checker(p.table)
        try:
            c.infer(TypeContext.make({}), p.main)
            verdict = "rejected" if leak else "ok"
        except IllTyped:
            verdict = "rejected"
        assert verdict == ("rejected" if leak else "ok")
        assert (c.ticks, len(c.memo)) == self.LENT_FAMILY[k][leak]


class TestSearchCost:
    """What a candidate costs besides its checks."""

    def test_one_well_formedness_check_per_block(self, monkeypatch):
        # the k = 5 reject has three blocks and 256 candidates; every
        # candidate's well-formedness follows from one context's
        calls = {"wf_context": 0, "check_block": 0}

        def counted(name, f):
            def g(*args):
                calls[name] += 1
                return f(*args)
            return g

        monkeypatch.setattr(typecheck, "wf_context", counted("wf_context", wf_context))
        monkeypatch.setattr(
            Checker, "check_block", counted("check_block", Checker.check_block)
        )
        assert main_ticks(lent_source(5, True, seed=0))[0] == "rejected"
        assert calls == {"wf_context": 3, "check_block": 3}

    def test_no_masks_for_one_candidate(self, monkeypatch):
        # a block with no lent local whose base groups type it has one
        # candidate: its context is built at once, with no bit index
        def refused(*args):
            raise AssertionError("bit index built")

        monkeypatch.setattr(typecheck, "_Bits", refused)
        for s in range(40):
            p = load(gen_source(GenConfig(seed=s, size=8, reject_rate=0.0)))
            for ctx, body, goal in checked_bodies(p):
                Checker(p.table).check(ctx, body, goal)


@st.composite
def enumeration_cases(draw):
    """Disjoint non-empty base groups (0-3) and lent locals (0-5)."""
    n_base = draw(st.integers(0, 3))
    outer = [f"o{i}" for i in range(6)]
    owner = draw(st.lists(st.integers(0, n_base), min_size=6, max_size=6))
    base = tuple(
        frozenset(x for x, o in zip(outer, owner) if o == i) for i in range(n_base)
    )
    base = tuple(g for g in base if g)
    return base, [f"l{i}" for i in range(draw(st.integers(0, 5)))]


class TestEnumeration:
    @settings(max_examples=120, deadline=None)
    @given(enumeration_cases())
    def test_same_sequence_as_product_with_dedup(self, case):
        base, names = case
        bits = _Bits([x for g in base for x in sorted(g)] + names, base)
        got = [
            tuple(map(bits.set, groups))
            for groups in _group_candidates(names, base, [], bits)
        ]
        assert got == list(product_candidates(names, base))

    @pytest.mark.parametrize(
        "names", [["l0", "l0"], ["l0", "l1", "l0"], ["l1", "l0", "l0", "l2"]]
    )
    @pytest.mark.parametrize("base", [(), (frozenset({"o0"}), frozenset({"o1"}))])
    def test_a_name_placed_twice_keeps_one_group(self, base, names):
        """A name declared twice has one bit: a candidate that puts it into
        two groups (all singletons among them) is not yielded, and the
        others come in the order of the search on sets."""
        bits = _Bits(sorted(frozenset().union(*base, names)), base)
        got = [
            tuple(map(bits.set, groups))
            for groups in _group_candidates(names, base, [], bits)
        ]
        want = [
            groups
            for groups in product_candidates(names, base)
            if sum(map(len, groups)) == len(frozenset().union(*groups))
        ]
        assert got == want
        masks = tuple(map(bits.mask, base))
        assert len(got) < len(list(_partitions(masks, [bits.bit[x] for x in names])))

    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("k", range(4))
    def test_growth_strings_are_first_labellings(self, n, k):
        """`_partitions` gives each set partition of n bits over k base
        groups once, as the first product tuple that labels it (a
        restricted growth string, Knuth, TAOCP 7.2.1.5), in product order;
        and in the same order when the last bit repeats the first (a name
        declared twice has one bit, placed twice)."""
        base, bits = tuple(1 << i for i in range(k)), [1 << (k + i) for i in range(n)]
        got = list(_partitions(base, bits))
        assert got == first_labellings(base, bits)
        assert len(set(got)) == len(got)
        if n >= 2:
            bits[-1] = bits[0]
            assert list(_partitions(base, bits)) == first_labellings(base, bits)


def first_labellings(base, bits):
    """The groups (masks) of each assignment of bits to base groups or new
    ones that first labels its set partition among the tuples of
    itertools.product, in product order."""
    k, seen, out = len(base), set(), []
    for choice in itertools.product(range(k + len(bits)), repeat=len(bits)):
        relabel: dict = {}
        rgs = tuple(
            c if c < k else relabel.setdefault(c, k + len(relabel)) for c in choice
        )
        if rgs not in seen:
            seen.add(rgs)
            groups = list(base)
            for x, c in zip(bits, rgs):
                if c == len(groups):
                    groups.append(x)
                else:
                    groups[c] |= x
            out.append(tuple(groups))
    return out


@st.composite
def premise_pairs(draw):
    """Two well-formed candidates of one block (one gamma, restricted set
    and list of base groups) and a premise of it: the names its term
    mentions and its own local, perhaps none.  Outer names o0..o3 are
    mut, read or imm; lent locals l0..l2 join base groups or new ones; the
    mut local m0 joins none."""
    quals = draw(st.lists(
        st.sampled_from([Qualifier.MUT, Qualifier.READ, Qualifier.IMM]),
        min_size=4, max_size=4,
    ))
    outer = {f"o{i}": RefType(q, "C") for i, q in enumerate(quals)}
    muts = [x for x, t in outer.items() if t.qualifier is Qualifier.MUT]
    owner = draw(st.lists(st.integers(-1, 1), min_size=len(muts), max_size=len(muts)))
    base = tuple(
        g for g in (
            frozenset(x for x, o in zip(muts, owner) if o == i) for i in range(2)
        ) if g
    )
    names = [f"l{i}" for i in range(draw(st.integers(0, 3)))]
    env = dict(outer, m0=RefType(Qualifier.MUT, "C"))
    env.update((x, RefType(Qualifier.MUT, "C")) for x in names)
    may_restrict = sorted(frozenset().union(*base) | {
        x for x, t in outer.items() if t.qualifier is Qualifier.READ
    })
    restricted = frozenset(
        draw(st.sets(st.sampled_from(may_restrict))) if may_restrict else ()
    )
    k = len(base) + len(names)
    assignment = st.lists(st.integers(0, max(k - 1, 0)), min_size=len(names),
                          max_size=len(names))
    candidates = [place(base, names, draw(assignment)) for _ in range(2)]
    mentioned = draw(st.sets(st.sampled_from(sorted(env) + ["q"])))
    own = draw(st.sampled_from([None, "m0"] + names))
    return Gamma(env), base, restricted, candidates, mentioned, own


def _mut_c(*xs):
    return {x: RefType(Qualifier.MUT, "C") for x in xs}


def projection(ctx: TypeContext, e) -> tuple:
    """The projection of ctx onto e, part by part as the `typecheck` module
    docstring defines it: the reference `_group_part` is held to."""
    names = mentions(e)
    env, restricted, mg = ctx.env, ctx.restricted, ctx.mutable_group()
    outside = restricted - names
    return (
        frozenset((n, env[n]) for n in names if n in env),
        not ctx.mut_or_read_names() <= names,
        tuple(
            (g & names, not g <= names, not restricted.isdisjoint(g - names))
            for g in ctx.groups
        ),
        not mg <= names,
        restricted
        and (restricted & names, bool(outside), not outside.isdisjoint(mg)),
    )


class TestGroupPart:
    @settings(max_examples=400, deadline=None)
    @given(premise_pairs())
    # the swapped group has others beyond the names in one candidate only,
    # and the other groups' parts are equal
    @example((
        Gamma(_mut_c("m0", "l0", "l1", "l2")), (), frozenset(),
        [
            (frozenset({"l0", "l1"}), frozenset({"l2"})),
            (frozenset({"l0"}), frozenset({"l1", "l2"})),
        ],
        {"l0"}, "l0",
    ))
    def test_equal_exactly_when_the_projection_is(self, case):
        """Within one block the group part of a premise's projection, on
        masks, tells two candidates apart exactly when the projection of
        the premise's context does."""
        gamma, base, restricted, candidates, mentioned, own = case
        term = IntLit(0)
        for x in sorted(mentioned):
            term = Plus(term, Var(x))
        bits = _Bits(gamma.muts(), base)
        names = bits.mask(mentioned)
        args = (
            bits.bit.get(own, 0), names, (1 << len(bits.names)) - 1,
            bits.mask(restricted) & ~names,
        )
        projections, parts = [], []
        for groups in candidates:
            ctx = TypeContext(gamma, groups, restricted)
            assert wf_context(ctx)
            g = ctx.group_of(own) if own else None
            premise_ctx = ctx.swap(g) if g else ctx
            projections.append(projection(premise_ctx, term))
            parts.append(_group_part(tuple(map(bits.mask, groups)), *args))
        assert (projections[0] == projections[1]) == (parts[0] == parts[1])


def verdict(checker, ctx, e, goal):
    try:
        return "ok", str(checker.query(ctx, e, goal).result)
    except TypeCheckError as err:
        return err.kind, str(err)


# a block whose check of main meets checks still in progress ("cyclic
# search")
CYCLIC_SEED = 6


class ProbedMemo(dict):
    """A memo that counts the hits on checks still in progress."""

    cyclic = 0

    def get(self, key, default=None):
        hit = super().get(key, default)
        self.cyclic += hit is _IN_PROGRESS
        return hit


class TestMemoAcrossQueries:
    """A failure whose search met a check still in progress ("cyclic
    search") is a verdict about that query's stack, not about its key.
    Each query starts with an empty memo, so re-asking any key the first
    query memoized gives what a fresh Checker gives."""

    @pytest.mark.parametrize(
        "src",
        [pytest.param(lent_block_source(CYCLIC_SEED), id=f"block-{CYCLIC_SEED}")]
        + [
            pytest.param(
                lent_source(k, leak, seed=0),
                id=f"k{k}-{'reject' if leak else 'accept'}",
            )
            for k in (2, 3, 4, 5)
            for leak in (False, True)
        ],
    )
    def test_reasked_keys_match_a_fresh_checker(self, src):
        p = load(src)
        c = Checker(p.table)
        c.memo = ProbedMemo()
        try:
            c.infer(TypeContext.make({}), p.main)
        except IllTyped:
            pass
        if src == lent_block_source(CYCLIC_SEED):
            assert c.memo.cyclic  # the case this test is about
        terms, stack = {}, [p.main]
        while stack:
            e = stack.pop()
            terms[id(e)] = e
            stack.extend(children(e))
        for eid, ctx, goal in dict(c.memo):
            got = verdict(c, ctx, terms[eid], goal)
            assert got == verdict(Checker(p.table), ctx, terms[eid], goal)
