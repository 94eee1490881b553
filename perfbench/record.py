"""Record the benchmark's input pools and their expected outputs.

    python3 perfbench/record.py            # rewrites perfbench/expected.json

Each pool entry names its input by a seeded walk (length, steps, walk seed),
with a digest of the code the walk reaches, and stores what the library's
CLI answered for it.  Run it on the commit whose answers are the reference;
the benchmark then counts any op that answers differently as failed.
Every entry also keeps the seconds its op took here at the reference speed
(`record_s`, the faster of TIMINGS calls; see harness.ScaledClock).  The
benchmark uses them to stratify the pool by cost, so that runs with
different seeds draw the same mix of cheap and dear ops, and to fix how
many passes a run makes.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

from harness import HERE, OUT, ScaledClock, call_cli, import_library
from workloads import WORKLOADS, bits, digest, permute, write_matrix

SIZES = {
    "full": {
        "search-n40": {"n": 40, "steps": 8, "count": 40, "strata": 8},
        "walk-n512": {"n": 512, "steps": 30, "count": 40, "strata": 16},
        "neighborhood-n32": {"n": 32, "per_distance": {2: 12, 4: 12, 6: 12}, "strata": 4},
        "equivalence-n32": {"n": 32, "positives": 96, "negatives": 12, "strata": 20},
    },
    "quick": {
        "search-n40": {"n": 16, "steps": 4, "count": 4, "strata": 2},
        "walk-n512": {"n": 64, "steps": 8, "count": 4, "strata": 2},
        "neighborhood-n32": {"n": 16, "per_distance": {2: 2, 4: 2}, "strata": 2},
        "equivalence-n32": {"n": 16, "positives": 8, "negatives": 2, "strata": 4},
    },
}


TIMINGS = 2


def observed(lib, workload: str, argv: list[str]) -> tuple[dict, float]:
    """The op's answer, and the least of TIMINGS op times; the answer must repeat."""
    answers, times, clock = [], [], ScaledClock()
    for _ in range(TIMINGS):
        seconds, status, stdout = call_cli(lib.cli.main, argv, clock)
        answers.append(WORKLOADS[workload].observe(status, stdout))
        times.append(seconds)
    if any(a != answers[0] for a in answers):
        raise SystemExit(f"{' '.join(argv)} answered differently when repeated: {answers}")
    return answers[0], min(times)


def walk_entry(lib, n: int, steps: int, walk_seed: int) -> tuple[dict, list[int], object]:
    code = lib.random_self_dual(n, steps, walk_seed)
    rows = [r.to01() for r in code.generator]
    return {"walk_seed": walk_seed, "steps": steps, "digest": digest(rows)}, [bits(r) for r in rows], code


def record_walks(lib, name: str, size: dict) -> dict:
    w = WORKLOADS[name]
    pool = {"n": size["n"], "steps": size["steps"], "strata": size["strata"], "entries": []}
    for walk_seed in range(1, size["count"] + 1):
        expect, seconds = observed(lib, name, w.argv(pool, walk_seed))
        pool["entries"].append({"walk_seed": walk_seed, "expect": expect, "record_s": round(seconds, 4)})
    return pool


def record_neighborhood(lib, size: dict, tmp: Path) -> dict:
    n, quota = size["n"], dict(size["per_distance"])
    pool = {"n": n, "strata": size["strata"], "entries": []}
    walk_seed = 0
    while any(quota.values()):
        walk_seed += 1
        steps = random.Random(walk_seed).randint(8, 20)
        entry, rows, code = walk_entry(lib, n, steps, walk_seed)
        if str(code.classify()) != "TypeI":
            continue
        d = code.minimum_distance()
        if not quota.get(d):
            continue
        quota[d] -= 1
        path = write_matrix(tmp / "nb.txt", rows, n)
        expect, seconds = observed(lib, "neighborhood-n32", ["neighborhood", path, "--json"])
        entry.update(distance=d, expect=expect, record_s=round(seconds, 4))
        pool["entries"].append(entry)
    return pool


def record_equivalence(lib, size: dict, tmp: Path) -> dict:
    n = size["n"]
    pool = {"n": n, "strata": size["strata"], "positives": [], "negatives": []}

    def run_pair(a: list[int], b: list[int]) -> tuple[dict, float]:
        argv = ["equivalent", write_matrix(tmp / "a.txt", a, n), write_matrix(tmp / "b.txt", b, n), "--json"]
        return observed(lib, "equivalence-n32", argv)

    walk_seed = 1000
    while len(pool["positives"]) < size["positives"]:
        walk_seed += 1
        rng = random.Random(walk_seed)
        entry, rows, _ = walk_entry(lib, n, rng.randint(8, 20), walk_seed)
        perm = rng.sample(range(n), n)
        expect, seconds = run_pair(rows, [permute(x, perm) for x in rows])
        if not expect["equivalent"]:
            raise SystemExit(f"a permuted copy was judged inequivalent: {entry}")
        entry.update(perm=perm, expect=expect, record_s=round(seconds, 4))
        pool["positives"].append(entry)
    walk_seed = 2000
    while len(pool["negatives"]) < size["negatives"]:
        walk_seed += 1
        rng = random.Random(walk_seed)
        i = rng.randint(8, 16)
        a, rows_a, _ = walk_entry(lib, n, i, walk_seed)
        b, rows_b, _ = walk_entry(lib, n, i + rng.randint(2, 6), walk_seed)
        perm = rng.sample(range(n), n)
        expect, seconds = run_pair(rows_a, [permute(x, perm) for x in rows_b])
        if expect["equivalent"]:
            continue  # a negative pair must be inequivalent
        pool["negatives"].append({"a": a, "b": b, "perm": perm, "expect": expect, "record_s": round(seconds, 4)})
    return pool


def main() -> int:
    lib = import_library()
    OUT.mkdir(exist_ok=True)
    result = {}
    with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
        tmp = Path(tmpdir)
        for mode, sizes in SIZES.items():
            result[mode] = {
                "search-n40": record_walks(lib, "search-n40", sizes["search-n40"]),
                "walk-n512": record_walks(lib, "walk-n512", sizes["walk-n512"]),
                "neighborhood-n32": record_neighborhood(lib, sizes["neighborhood-n32"], tmp),
                "equivalence-n32": record_equivalence(lib, sizes["equivalence-n32"], tmp),
            }
            print(f"recorded {mode} pools", file=sys.stderr)
    with open(HERE / "expected.json", "w") as fh:
        json.dump(result, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
