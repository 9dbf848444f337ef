"""capslang benchmark: a single-process, closed-loop batch runner.

    python3 perfbench/run.py --workload verify-n16 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all    # every workload, fresh process each

Builds the workload's pool of source texts from --seed, checks the corpus,
then feeds one program at a time to capslang's public entry points, in
rounds over the whole pool until --seconds have passed, and checks every
verdict.  The last line of stdout is one JSON object: end-to-end metrics
with --trace 0, timed at a reference host speed (see probe()), per-layer
metrics from a traced run over a fixed prefix of the pool with --trace 1.  Exits 2 when
capslang's sources are missing and 1 when the corpus gate fails, without
printing a result.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from pipeline import (  # noqa: E402
    META_CHECKS,
    REDUCTION_RULES,
    TYPING_RULES,
    NoTrace,
    Outcome,
    Pipeline,
    Tracer,
    import_capslang,
)
from workloads import (  # noqa: E402
    LENT_TRACED_KS,
    WORKLOADS,
    lent_pool,
    make_pool,
    tail_rank,
    unrename,
    warmup_program,
)

SETUP_REPEATS = 7
MIN_ROUNDS = 3
GOLDEN = HERE / "golden.json"
# A fixed reference time for the probe, near its slowest usual time on the
# 2-vCPU VM the benchmark was written on (it ranged over 1.0-1.9 ms there);
# timings are reported as if the host always ran the probe in this time.
PROBE_REF_S = 1.85e-3


class GateError(Exception):
    pass


# -- running and judging programs -------------------------------------------


def run_one(pipe: Pipeline, src: str, t: NoTrace) -> Outcome:
    try:
        return pipe.run(src, t)
    except Exception as e:  # noqa: BLE001 - a crash is a failed program
        return Outcome(-1, f"{type(e).__name__}: {e}", layer=t.layer, failure="crash")


def shown(api, o: Outcome) -> str:
    """What the command shows: its output, or the final store for caps fuzz,
    which prints none."""
    if o.text or o.final is None:
        return o.text
    return api.parser.pretty_print(api.congruence.canonical(o.final))


def digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()[:12]


def golden_entry(api, prog, o: Outcome) -> list:
    """Exit, steps and a digest of what the command shows, with the seed's
    renaming undone, so that every seed is checked against one table."""
    return [o.exit, o.steps, digest(unrename(shown(api, o), prog.infix))]


def judge(api, prog, o: Outcome, golden: dict) -> str:
    """Why the outcome is wrong, prefixed by the layer it is attributed to;
    '' when it is right."""
    if o.exit == -1:
        return f"{o.layer}: crash: {o.text}"
    if prog.expect == "fuzz":
        if o.failure:
            return f"{o.layer}: {o.failure}"
    elif o.exit == 3:
        if prog.may_exhaust:
            return ""
        return f"{o.layer}: resource exhausted: {o.text}"
    elif o.violations:
        return f"metatheory: {o.failure}"
    elif prog.expect == "accept" and o.exit != 0:
        return f"{o.layer}: expected accept, got exit {o.exit}: {o.text}"
    elif prog.expect == "reject" and not (o.exit == 1 and o.text.startswith("type error")):
        return f"typecheck.check: expected a type error, got exit {o.exit}"
    want = golden.get(digest(prog.key))
    if want is not None:
        got = golden_entry(api, prog, o)
        if got[0] != want[0]:
            return f"typecheck.check: verdict {got[0]} differs from recorded {want[0]}"
        if got[1:] != want[1:]:
            return f"reducer.run: steps/final {got[1:]} differ from recorded {want[1:]}"
    return ""


class Judge:
    """Checks each outcome as it arrives and keeps only the failures, so that
    no final term outlives its program."""

    def __init__(self, api, golden: dict):
        self.api, self.golden, self.attempted, self.failures = api, golden, 0, []

    def __call__(self, prog, o: Outcome, why=None) -> None:
        self.attempted += 1
        why = judge(self.api, prog, o, self.golden) if why is None else why
        if why:
            self.failures.append(why)
            print(f"FAILED program {prog.id} ({prog.label}): {why}", file=sys.stderr)


def corpus_gate(api) -> None:
    """Every corpus/accept program checks and verifies cleanly; every
    corpus/reject program is refused with its `// expect-error:` text."""
    corpus = ROOT / "corpus"
    accept = sorted((corpus / "accept").glob("*.caps"))
    reject = sorted((corpus / "reject").glob("*.caps"))
    if not accept or not reject:
        raise GateError(f"no corpus under {corpus}")
    verify = Pipeline(api, "verify", 10_000)
    check = Pipeline(api, "check", 10_000)
    for path in accept:
        o = run_one(verify, path.read_text(), NoTrace())
        if o.exit != 0:
            raise GateError(f"{path.name}: expected clean verify, got exit {o.exit}: {o.text}")
    for path in reject:
        src = path.read_text()
        expected = src.splitlines()[0].partition("expect-error:")[2].strip()
        o = run_one(check, src, NoTrace())
        if not expected or o.exit not in (1, 2) or expected not in o.text:
            raise GateError(f"{path.name}: expected {expected!r}, got exit {o.exit}: {o.text}")


# -- host speed ---------------------------------------------------------------


class _Cell:
    __slots__ = ("key", "val", "kids")

    def __init__(self, key, val):
        self.key, self.val, self.kids = key, val, []


def _probe_task() -> int:
    cells = {}
    for i in range(800):
        c = _Cell(i % 97, (i, str(i)))
        cells[(c.key, i & 7)] = c
        if i % 3:
            c.kids.append(c.val)
    ordered = sorted(cells.items(), key=lambda kv: (kv[0][1], -kv[0][0]))
    return sum(len(c.kids) for _, c in ordered)


def probe() -> tuple:
    """Wall and CPU seconds of a fixed pure-Python task (objects, dicts,
    sorting) that runs no capslang code.  The shared host's speed changes by
    up to 1.7x from one minute to the next but little within a second, so a
    time divided by the probes run just before and after it measures the
    program and not the host."""
    gc.disable()  # a collection inside the probe made it less steady
    try:
        c, s = time.process_time(), time.perf_counter()
        _probe_task()
        return time.perf_counter() - s, time.process_time() - c
    finally:
        gc.enable()


def adjusted(seconds: float, before: tuple, after: tuple, i: int = 0) -> float:
    """seconds (a wall time for i=0, a CPU time for i=1) at the reference
    speed, judged by the probes before and after it."""
    return seconds * 2 * PROBE_REF_S / (before[i] + after[i])


# -- set-up -------------------------------------------------------------------


def set_up(w, seed: int, base: int):
    """Import capslang, generate the pool and warm up, SETUP_REPEATS times.
    Returns the last repetition's (api, pool) with the median set-up time,
    adjusted to the reference speed, and the median generation time."""
    setups, gens = [], []
    for _ in range(SETUP_REPEATS):
        before = probe()
        t0 = time.perf_counter()
        api = import_capslang()
        g0 = time.perf_counter()
        pool = make_pool(api, w, seed, base)
        gens.append(time.perf_counter() - g0)
        warm = warmup_program(api, w)
        o = run_one(Pipeline(api, w.mode, w.fuel), warm.source, NoTrace())
        why = judge(api, warm, o, {})
        if why:
            raise GateError(f"warm-up program failed: {why}")
        setups.append(adjusted(time.perf_counter() - t0, before, probe()))
    return api, pool, statistics.median(setups), statistics.median(gens)


# -- untraced run: end-to-end metrics ---------------------------------------


def percentile(xs: list, pct: int) -> float:
    """Nearest-rank percentile."""
    return sorted(xs)[tail_rank(len(xs), pct) - 1]


def settle() -> None:
    """Start from a clean, frozen heap, so that the gc.collect() after each
    program walks only that program's objects.  Its cyclic garbage (checker
    memo tables hold exceptions with their tracebacks) is collected with the
    clocks paused: a `caps` process exits instead, and garbage left in place
    made a later program pay a collection of up to ~450 ms."""
    gc.collect()
    gc.freeze()


def measure(api, w, pool: list, seconds: float, check: Judge) -> dict:
    """Closed loop over whole rounds of the pool: the next program starts
    when the previous verdict is in.  At least MIN_ROUNDS rounds; then stops
    when one more round would end further from `seconds` than stopping now.
    The clocks pause while a verdict is checked and garbage is collected.
    A probe runs between programs, and every time is adjusted to the
    reference speed by the probes around it.  Each program's latency is the
    median of its runs; throughput and CPU time are the median round's."""
    pipe, notrace = Pipeline(api, w.mode, w.fuel), NoTrace()
    lat: list = [[] for _ in pool]
    walls, cpus, raw_walls, probes = [], [], [], []
    settle()
    t0 = time.perf_counter()
    while len(walls) < MIN_ROUNDS or time.perf_counter() - t0 + raw_walls[-1] / 2 < seconds:
        wall = cpu = raw = 0.0
        before = probe()
        for i, prog in enumerate(pool):
            c, s = time.process_time(), time.perf_counter()
            o = run_one(pipe, prog.source, notrace)
            e, ce = time.perf_counter(), time.process_time()
            check(prog, o)
            del o
            gc.collect()
            after = probe()
            lat[i].append(adjusted(e - s, before, after))
            wall += lat[i][-1]
            cpu += adjusted(ce - c, before, after, 1)
            raw += e - s
            probes.append(after[0])
            before = after
        walls.append(wall)
        cpus.append(cpu)
        raw_walls.append(raw)
    n, per_program = len(pool), [statistics.median(xs) for xs in lat]
    print(f"{len(walls)} rounds of {n} programs in {time.perf_counter() - t0:.2f} s; "
          f"unadjusted round times {' '.join(f'{x:.2f}' for x in raw_walls)} s; "
          f"median probe {statistics.median(probes) * 1e3:.3f} ms "
          f"(reference {PROBE_REF_S * 1e3:.3f} ms)")
    print(f"latency_tail_ms is p{w.tail_pct} of the {n} per-program medians, with "
          f"{n - tail_rank(n, w.tail_pct)} programs beyond it")
    return {
        "programs_per_s": (n / statistics.median(walls), "1/s"),
        "latency_p50_ms": (percentile(per_program, 50) * 1e3, "ms"),
        "latency_tail_ms": (percentile(per_program, w.tail_pct) * 1e3, "ms"),
        "cpu_ms_per_program": (statistics.median(cpus) / n * 1e3, "ms"),
    }


# -- traced run: per-layer metrics -------------------------------------------


def traced_programs(w, pool: list, seed: int) -> list:
    progs = pool[: w.traced]
    if w.mode == "check":  # the larger lent blocks, traced only
        progs = progs + lent_pool(seed, ks=LENT_TRACED_KS, first_id=len(pool))
    return progs


def trace_run(api, w, pool: list, seed: int, check: Judge):
    """Each program of a fixed prefix of the pool runs untraced and traced,
    alternating which goes first; the difference is the tracing overhead.
    Programs traced only run once, traced."""
    pipe, notrace, tracer = Pipeline(api, w.mode, w.fuel), NoTrace(), Tracer()
    plain_s = traced_s = 0.0
    settle()
    for i, prog in enumerate(traced_programs(w, pool, seed)):
        if prog.id >= len(pool):
            o = tracer.run_program(prog.id, lambda: run_one(pipe, prog.source, tracer))
            check(prog, o)
            del o
            gc.collect()
            continue
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            s = time.perf_counter()
            if traced:
                o = tracer.run_program(prog.id, lambda: run_one(pipe, prog.source, tracer))
                traced_s += time.perf_counter() - s
            else:
                o = run_one(pipe, prog.source, notrace)
                plain_s += time.perf_counter() - s
            check(prog, o)
            del o
            gc.collect()
    return tracer, plain_s, traced_s


def layer_metrics(tracer: Tracer, gen_s: float, plain_s: float, traced_s: float) -> dict:
    sec, c = tracer.layer_seconds(), tracer.counts
    m = {
        "parser.parse_s": (sec["parser.parse"], "s"),
        "parser.tokens": (c["parser.tokens"], "count"),
        "parser.ast_nodes": (c["parser.ast_nodes"], "count"),
        "syntax.validate_s": (sec["syntax.validate"], "s"),
        "typecheck.resolve_s": (sec["typecheck.resolve"], "s"),
        "typecheck.check_s": (sec["typecheck.check"], "s"),
        "typecheck.ticks": (c["typecheck.ticks"], "count"),
        "typecheck.memo_entries": (c["typecheck.memo_entries"], "count"),
        "typecheck.memo_hit_ratio": (
            1 - c["typecheck.memo_entries"] / c["typecheck.ticks"] if c["typecheck.ticks"] else 0.0,
            "ratio",
        ),
        "typecheck.rejected": (c["typecheck.rejected"], "count"),
        "typecheck.exhausted": (c["typecheck.exhausted"], "count"),
    }
    for r in TYPING_RULES:
        m[f"typecheck.rules.{r}"] = (c[f"typecheck.rules.{r}"], "count")
    steps = c["reducer.steps"]
    m.update({
        "anf.simplify_s": (sec["anf.simplify"], "s"),
        "anf.nodes_out": (c["anf.nodes_out"], "count"),
        "reducer.run_s": (sec["reducer.run"], "s"),
        "reducer.steps": (steps, "count"),
        "reducer.us_per_step": (sec["reducer.run"] / steps * 1e6 if steps else 0.0, "us"),
        "reducer.term_nodes_mean": (
            c["reducer.term_nodes"] / c["reducer.terms"] if c["reducer.terms"] else 0.0,
            "count",
        ),
        "reducer.out_of_fuel": (c["reducer.out_of_fuel"], "count"),
    })
    for r in REDUCTION_RULES:
        m[f"reducer.steps.{r}"] = (c[f"reducer.steps.{r}"], "count")
    m["congruence.canonical_s"] = (sec["congruence.canonical"], "s")
    for name, _ in META_CHECKS:
        m[f"metatheory.{name}_s"] = (sec[f"metatheory.{name}"], "s")
    m["metatheory.terms_checked"] = (c["metatheory.terms_checked"], "count")
    m["metatheory.violations"] = (c["metatheory.violations"], "count")
    m["generator.gen_s"] = (gen_s, "s")
    m["trace.overhead_s"] = (traced_s - plain_s, "s")
    m["trace.overhead_share"] = ((traced_s - plain_s) / plain_s if plain_s else 0.0, "ratio")
    return m


def print_layer_shares(tracer: Tracer) -> None:
    """Each layer's share of traced program time; the rest is the
    benchmark's own counting."""
    sec = tracer.layer_seconds()
    total = sec.pop("program", 0.0) or 1.0
    print("layer shares of traced program time:")
    for name, s in sorted(sec.items(), key=lambda kv: -kv[1]):
        print(f"  {name:32s} {s:9.4f} s  {100 * s / total:5.1f}%")
    print(f"  {'(unattributed)':32s} {total - sum(sec.values()):9.4f} s")


def write_spans(tracer: Tracer, name: str, seed: int) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as f:
        for s in tracer.spans:
            f.write(json.dumps(s.__dict__) + "\n")
    return path


# -- main ---------------------------------------------------------------------


def load_golden(name: str) -> dict:
    return json.loads(GOLDEN.read_text())[name]


def run_all(args) -> int:
    """Every workload, each in a fresh process (peak_rss_mb is per process),
    one after the other; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--base", str(args.base)]
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = r.stdout.splitlines()
        print(f"== {name}", *lines[:-1], sep="\n", flush=True)
        if r.returncode != 0 or not lines:
            return r.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update(
            {f"{name}.{k}": v for k, v in result["metrics"].items()}
        )
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--base", type=int, default=0,
                    help="pool base: 0 is the measured pool, others are held out")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    w = WORKLOADS[args.workload]

    if not (SRC / "capslang" / "__init__.py").is_file():
        print(f"error: capslang sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        api, pool, setup_s, gen_s = set_up(w, args.seed, args.base)
        corpus_gate(api)
    except GateError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    check = Judge(api, load_golden(w.name))

    if args.trace:
        tracer, plain_s, traced_s = trace_run(api, w, pool, args.seed, check)
        metrics = layer_metrics(tracer, gen_s, plain_s, traced_s)
        print_layer_shares(tracer)
        print(f"spans written to {write_spans(tracer, w.name, args.seed)}")
    else:
        metrics = measure(api, w, pool, args.seconds, check)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": not check.failures,
        "attempted": check.attempted,
        "failed": len(check.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
