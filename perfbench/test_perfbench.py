"""The benchmark's own tests.

    python3 -m pytest perfbench -q
"""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

from pipeline import NoTrace, Pipeline, Tracer, import_capslang  # noqa: E402
from run import Judge, load_golden, percentile  # noqa: E402
from workloads import WORKLOADS, lent_source, make_pool, tail_rank  # noqa: E402

# Traced prefix per workload: small enough to run in seconds, long enough to
# reach the group search, the reducer and every metatheory check.
PREFIX = {"verify-n16": 4, "run-n64": 3, "check-lent": 6, "fuzz-n8": 40}

COUNTERS_SCRIPT = f"""
import json, sys
sys.path[:0] = [{str(HERE)!r}, {str(SRC)!r}]
from pipeline import Pipeline, Tracer, import_capslang
from workloads import WORKLOADS, make_pool
api = import_capslang()
out = {{}}
for name, n in {PREFIX!r}.items():
    w = WORKLOADS[name]
    pipe, t = Pipeline(api, w.mode, w.fuel), Tracer()
    for prog in make_pool(api, w, 3)[:n]:
        t.run_program(prog.id, lambda: pipe.run(prog.source, t))
    out[name] = dict(t.counts)
print(json.dumps(out, sort_keys=True))
"""


def _counters(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, "-c", COUNTERS_SCRIPT],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout)


def test_counters_repeat_across_runs_and_hash_seeds():
    first = _counters("0")
    assert first["check-lent"]["typecheck.ticks"] > 0
    assert first["verify-n16"]["metatheory.terms_checked"] > 0
    assert first["run-n64"]["reducer.steps"] > 0
    assert _counters("0") == first
    assert _counters("1") == first
    assert _counters("3") == first


def test_lent_family_ticks_do_not_depend_on_the_seed():
    api = import_capslang()
    tc = api.typecheck

    def ticks(src):
        p = api.typecheck.resolve_implicit_types(api.parser.parse(src))
        c = tc.Checker(p.table)
        try:
            c.infer(tc.TypeContext.make({}), p.main)
        except tc.IllTyped:
            pass
        return c.ticks

    for k, accept, reject in ((2, 65, 152), (3, 170, 599), (4, 574, 2647)):
        for seed in range(4):
            rng = random.Random(seed)
            assert ticks(lent_source(k, False, rng)) == accept
            assert ticks(lent_source(k, True, rng)) == reject


def test_pools_are_reproducible_and_seed_dependent():
    api = import_capslang()
    w = WORKLOADS["verify-n16"]
    a, b = make_pool(api, w, 5), make_pool(api, w, 5)
    assert [p.source for p in a] == [p.source for p in b]
    assert len(a) == w.pool_size
    c = make_pool(api, w, 6)
    assert all(x.source != y.source for x, y in zip(a, c))
    assert [p.gen_seed for p in a] == [p.gen_seed for p in c]
    held_out = make_pool(api, w, 5, base=1)
    assert {p.gen_seed for p in a}.isdisjoint(p.gen_seed for p in held_out)


def test_renaming_keeps_counters_and_matches_the_golden_table():
    """A seed renames identifiers only: every counter is the same as with
    seed 0, and every outcome passes the golden check."""
    api = import_capslang()
    for name, n in PREFIX.items():
        w = WORKLOADS[name]
        pipe, judge = Pipeline(api, w.mode, w.fuel), Judge(api, load_golden(name))
        counts = []
        for seed in (0, 29):
            t = Tracer()
            for prog in make_pool(api, w, seed)[:n]:
                judge(prog, t.run_program(prog.id, lambda: pipe.run(prog.source, t)))
            counts.append(t.counts)
        assert counts[0] == counts[1]
        assert judge.attempted == 2 * n and not judge.failures


def test_traced_pipeline_gives_the_untraced_verdict():
    api = import_capslang()
    for name, n in PREFIX.items():
        w = WORKLOADS[name]
        pipe = Pipeline(api, w.mode, w.fuel)
        for prog in make_pool(api, w, 0)[: min(n, 4)]:
            plain = pipe.run(prog.source, NoTrace())
            traced = pipe.run(prog.source, Tracer())
            assert (plain.exit, plain.steps, plain.text) == (traced.exit, traced.steps, traced.text)


def test_percentile_is_nearest_rank():
    xs = list(range(1, 101))
    assert percentile(xs, 50) == 50
    assert percentile(xs, 90) == 90
    assert percentile([3.0], 99) == 3.0
    for w in WORKLOADS.values():
        if w.mode == "check":
            continue
        # the highest percentile with ten programs of the pool beyond it
        n = w.pool_size
        assert n - tail_rank(n, w.tail_pct) >= 10 > n - tail_rank(n, w.tail_pct + 1)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero without
    printing a result."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check-lent", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert r.returncode != 0
    assert '"metrics"' not in r.stdout
