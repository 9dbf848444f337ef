"""Record perfbench/golden.json: for every program in the measured pool
(base 0) of each workload, its exit code, step count and a digest of what
the command shows (for reducing commands, pretty_print(canonical(final))).
run.py compares each outcome whose source before renaming is recorded here,
with every seed, as a differential guard for optimisations against the
behaviour at the time of recording.

    python3 perfbench/record_golden.py
"""

from __future__ import annotations

import json
import sys

from pipeline import NoTrace, Pipeline, import_capslang
from run import GOLDEN, SRC, digest, golden_entry, judge, run_one
from workloads import WORKLOADS, make_pool

SEED = 0


def main() -> int:
    sys.path.insert(0, str(SRC))
    api = import_capslang()
    out = {}
    for w in WORKLOADS.values():
        pipe = Pipeline(api, w.mode, w.fuel)
        table = {}
        for prog in make_pool(api, w, SEED):
            o = run_one(pipe, prog.source, NoTrace())
            why = judge(api, prog, o, {})
            if why:
                print(f"{w.name} program {prog.id}: {why}", file=sys.stderr)
                return 1
            table[digest(prog.key)] = golden_entry(api, prog, o)
        out[w.name] = table
        print(f"{w.name}: {len(table)} programs")
    with open(GOLDEN, "w", encoding="utf-8") as f:
        f.write("{\n")
        for i, (name, table) in enumerate(out.items()):
            f.write(f"{json.dumps(name)}: {{\n")
            rows = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in table.items()]
            f.write(",\n".join(rows))
            f.write("\n}" + ("," if i + 1 < len(out) else "") + "\n")
        f.write("}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
