"""Gamma's incremental hash, RootScope's diff by Decl identity and the
premises RootState keeps, against definitions that recompute everything."""

import pytest
from hypothesis import given, settings, strategies as st

from capslang.context import Gamma, RootScope, RootState
from capslang.parser import parse, parse_expr
from capslang.syntax import INT, Block, Decl, IntLit, Qualifier, RefType
from capslang.typecheck import Checker, TypeContext

NAMES = ("a", "b", "c", "d")
TYPES = [INT] + [RefType(q, c) for q in Qualifier for c in ("C", "D")]


class TestGamma:
    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(st.sampled_from(NAMES), st.sampled_from(TYPES)),
        st.dictionaries(st.sampled_from(NAMES), st.sampled_from(TYPES + [None])),
    )
    def test_updated_equals_built(self, env, changes):
        want = dict(env)
        for x, t in changes.items():
            want.pop(x, None)
            if t is not None:
                want[x] = t
        got, built = Gamma(env).updated(changes), Gamma(want)
        assert got == built and hash(got) == hash(built)
        assert got.env == want
        assert got.muts() == built.muts()
        assert got.mut_or_read() == built.mut_or_read()
        assert got.lents() == built.lents()


def copy(d: Decl) -> Decl:
    """A Decl equal to d but another object."""
    return Decl(d.dtype, d.name, d.init, d.span)


# a pool of declarations: several objects per name, each in two equal copies
POOL = [Decl(INT, x, IntLit(i)) for i in range(3) for x in NAMES for _ in range(2)]


class TestRootScope:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(POOL), max_size=8, unique_by=id), max_size=8))
    def test_diff_against_recomputed_scopes(self, blocks):
        # a block may hold equal Decls and declare a name twice
        scope = RootScope()
        last_env: dict = {}
        last_ids: set = set()
        for decls in map(tuple, blocks):
            new, gone, changed = scope.advance(decls)
            env = {}
            for d in decls:
                env[d.name] = d  # the last declaration of a name is in scope
            ids = set(map(id, decls))
            assert {x: id(d) for x, d in scope.env.items()} == {
                x: id(d) for x, d in env.items()
            }
            assert sorted(map(id, new)) == sorted(ids - last_ids)
            assert sorted(map(id, gone)) == sorted(last_ids - ids)
            assert changed == {
                x for x in env.keys() | last_env.keys()
                if env.get(x) is not last_env.get(x)
            }
            assert scope.pos == {id(d): k for k, d in enumerate(decls)}
            last_env, last_ids = env, ids

    def test_one_object_twice_is_refused(self):
        d, e = POOL[0], POOL[2]
        scope = RootScope()
        scope.advance((d,))
        with pytest.raises(ValueError, match=f"declaration of {d.name} twice"):
            scope.advance((d, e, d))
        assert scope.decls == (d,)


class TestRootState:
    TABLE = parse("class D { int f; }\nclass C { mut D f; }\nnew D(0)").table

    def premises(self, checker, ctx, term, goal, root=None):
        j = checker.query(ctx, term, goal, root)
        return [(id(p.expr), p.result, p.rule) for p in j.premises]

    def test_every_position_has_its_premise(self):
        # equal declarations at several positions, lent ones among them: the
        # root state gives each position the premise a fresh Checker gives
        first = parse_expr(
            "{mut D u = new D(0); lent D l = new D(1); mut C w = new C(u); w}"
        )
        u, l, w = first.decls
        (z,) = parse_expr("{mut D z = new D(2); z}").decls
        (k,) = parse_expr("{lent D k = new D(3); k}").decls
        z2, k2 = copy(z), copy(k)
        blocks = [
            (u, z, l, w, z2), (z2, u, l, w), (u, k, z, l, w, k2, z2), (k2, u, l, w, k)
        ]
        checker, ctx, scope = Checker(self.TABLE), TypeContext.make({}), RootScope()
        root = RootState(ctx, scope)
        goal = checker.infer(ctx, first).result
        root.advance(first, *scope.advance(first.decls))
        for decls in blocks:
            term = Block(decls, first.body)
            root.advance(term, *scope.advance(decls))  # as in verify_trace
            got = self.premises(checker, ctx, term, goal, root)
            assert None not in got
            assert got == self.premises(Checker(self.TABLE), ctx, term, goal)
        # seven lent declarations, four lent names, which the root state
        # finds by position as a fresh Checker finds them by name
        m, n = (parse_expr(f"{{lent D {x} = new D(4); {x}}}").decls[0] for x in "mn")
        term = Block((l, k, m, n, copy(l), k2, copy(m), u, w), first.body)
        root.advance(term, *scope.advance(term.decls))
        got = self.premises(checker, ctx, term, goal, root)
        assert len(got) == 10
        assert got == self.premises(Checker(self.TABLE), ctx, term, goal)
