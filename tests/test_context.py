"""Gamma's incremental hash and RootScope's diff by Decl identity, against
definitions that recompute everything."""

from hypothesis import given, settings, strategies as st

from capslang.context import Gamma, RootScope
from capslang.syntax import INT, Decl, IntLit, Qualifier, RefType

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


# a pool of declarations: several objects per name
POOL = [Decl(INT, x, IntLit(i)) for i in range(3) for x in NAMES]


class TestRootScope:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(POOL), unique_by=id), max_size=8))
    def test_diff_against_recomputed_scopes(self, blocks):
        scope = RootScope()
        last_env: dict = {}
        last_ids: set = set()
        for decls in map(tuple, blocks):
            new, gone, changed = scope.advance(decls)
            env = {}
            for d in decls:
                env[d.name] = d  # the last declaration of a name is in scope
            ids = {id(d) for d in decls}
            assert {x: id(d) for x, d in scope.env.items()} == {
                x: id(d) for x, d in env.items()
            }
            assert {id(d) for d in new} == ids - last_ids
            assert {id(d) for d in gone} == last_ids - ids
            assert changed == {
                x for x in env.keys() | last_env.keys()
                if env.get(x) is not last_env.get(x)
            }
            assert scope.pos == {id(d): k for k, d in enumerate(decls)}
            last_env, last_ids = env, ids

    def test_one_object_twice_starts_again(self):
        d = POOL[0]
        scope = RootScope()
        scope.advance((d,))
        assert scope.advance((d, d)) is None
        new, gone, changed = scope.advance((d,))
        assert new == [d] and gone == [] and changed == {d.name}
