"""The benchmark's workloads: which programs each one runs and what their
verdicts must be.

Every workload turns the benchmark seed into a pool of source texts; the
capslang program only ever sees those texts.  A pool has a fixed make-up, so
that runs with different seeds do the same work and their timings can be
compared: a generated pool holds the programs of ``pool_size`` consecutive
generator seeds starting at ``base * pool_size``, and the benchmark seed
renames every identifier in them (``rename``), which changes neither a
verdict, a step count nor a checker tick.  ``base`` 0 is the measured pool;
other bases give held-out programs of the same kind (see README.md).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Optional

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Program:
    id: int
    source: str
    gen_seed: Optional[int]  # generator seed, None for handwritten programs
    expect: str  # "accept", "reject" or "fuzz" (no failure, either verdict)
    label: str
    infix: str = ""  # inserted into every identifier by rename()
    key: str = ""  # the source before renaming, for the golden table
    may_exhaust: bool = False  # past a search cap, so exit 3 is a right answer


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # pipeline: "verify", "run", "check" or "fuzz"
    why: str
    pool_size: int  # programs in one round; a run repeats whole rounds
    traced: int  # programs in the traced run (a fixed prefix of the pool)
    # percentile of the per-program latencies reported as latency_tail_ms:
    # the highest with ten programs beyond it (check-lent, with six programs,
    # reports its slowest)
    tail_pct: int
    size: int = 8  # generator: main declarations
    reject_rate: float = 0.0
    fuel: int = 10_000


def tail_rank(n: int, pct: int) -> int:
    """1-based nearest rank of the pct-th percentile of n samples."""
    return max(1, -(-pct * n // 100))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-n16", "verify",
            "caps run --verify-meta at size 16: subject reduction re-typechecks "
            "every reduct, ~75% of the time (memo key, incremental subject "
            "reduction)",
            pool_size=63, traced=32, tail_pct=84, size=16,
        ),
        Workload(
            "run-n64", "run",
            "caps run at size 64 without metatheory: the quadratic reducer is "
            "~80% and typecheck ~12% of the time (refocusing reducer)",
            pool_size=41, traced=32, tail_pct=75, size=64,
        ),
        Workload(
            "check-lent", "check",
            "caps check on capsule blocks with k=3..5 lent locals, accepted "
            "and rejected: the group search is ~100% (group-search pruning)",
            pool_size=6, traced=6, tail_pct=100,
        ),
        Workload(
            "fuzz-n8", "fuzz",
            "caps fuzz classification at size 8, 15% ill-typed: many short "
            "programs, per-program fixed costs dominate (parser, set-up)",
            pool_size=401, traced=384, tail_pct=97, size=8,
            reject_rate=0.15, fuel=2_000,
        ),
    )
}


def infix(seed: int) -> str:
    """The text rename() inserts for a benchmark seed: '' for seed 0, else
    'X' and the seed in base-26 capitals ('XA', 'XB', ... 'XAA', ...)."""
    out = ""
    while seed:
        seed, r = divmod(seed - 1, 26)
        out = chr(65 + r) + out
    return "X" + out if out else ""


def rename(src: str, inf: str, reserved) -> str:
    """Insert inf after the first letter of every identifier but the
    reserved words.  This keeps identifiers distinct and in the same sorted
    order, so the checker searches in the same order and every counter
    stays the same."""
    if not inf:
        return src
    return _IDENT.sub(lambda m: m[0] if m[0] in reserved else m[0][0] + inf + m[0][1:], src)


def unrename(text: str, inf: str) -> str:
    """The inverse of rename() on a command's output."""
    if not inf:
        return text
    n = 1 + len(inf)
    return _IDENT.sub(lambda m: m[0][0] + m[0][n:] if m[0][1:n] == inf else m[0], text)


def generated_pool(api, w: Workload, seed: int, base: int = 0) -> list:
    """The pool of generator programs for a benchmark seed."""
    GenConfig, gen_source = api.generator.GenConfig, api.generator.gen_source
    expect = "fuzz" if w.mode == "fuzz" else "accept"
    first, inf = base * w.pool_size, infix(seed)
    out = []
    for i in range(w.pool_size):
        src = gen_source(GenConfig(seed=first + i, size=w.size, reject_rate=w.reject_rate))
        out.append(Program(i, rename(src, inf, api.parser.RESERVED), first + i, expect,
                           f"gen seed {first + i}", inf, src))
    return out


# -- check-lent -------------------------------------------------------------

# Timed: k = 3..5.  k = 2 (3-5 ms) is left out, as programs that measure
# little but per-program overhead.  k = 6 (0.5 s and 3 s) is traced only:
# the host-speed probes between programs cannot follow the shared host
# through a 3 s program, and with k = 6 timed the spread of check-lent's
# metrics across runs was up to 0.12 of their median (see README.md).
LENT_KS = (3, 4, 5)
# Traced only: k = 6, and k = 7, one past MAX_LENT_LOCALS, which the checker
# refuses (exit 3) without searching.
LENT_TRACED_KS = (6, 7)
LENT_CAP_K = 7


def lent_source(k: int, leak: bool, rng: random.Random) -> str:
    """A capsule initializer block with k lent locals, the last of which
    stores the first into a field of the outer mut object x.  The block ends
    in a fresh object (accepted) or in one built from the grouped z1, which
    would leak x's group into the capsule (rejected).  The seed varies class
    names, integer literals and a prefix shared by every variable, which
    keeps the variables' relative order and hence the search order."""
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


def lent_pool(seed: int, ks=LENT_KS, first_id: int = 0) -> list:
    rng = random.Random(seed)
    out = []
    for k in ks:
        for leak in (False, True):
            expect = "reject" if leak else "accept"
            src = lent_source(k, leak, rng)
            out.append(Program(first_id + len(out), src, None, expect, f"k={k} {expect}",
                               key=src, may_exhaust=k >= LENT_CAP_K))
    return out


def make_pool(api, w: Workload, seed: int, base: int = 0) -> list:
    """The workload's pool; base selects held-out generated programs and
    leaves the handwritten check-lent family as it is."""
    if w.mode == "check":
        return lent_pool(seed)
    return generated_pool(api, w, seed, base)


def warmup_program(api, w: Workload) -> Program:
    """A small program of the workload's kind, run once during set-up."""
    if w.mode == "check":
        return lent_pool(0, ks=LENT_KS[:1])[0]
    cfg = api.generator.GenConfig(seed=0, size=4, reject_rate=0.0)
    expect = "fuzz" if w.mode == "fuzz" else "accept"
    return Program(-1, api.generator.gen_source(cfg), 0, expect, "warm-up")
