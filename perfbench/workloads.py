"""The four workloads: seeded inputs, the ops that use them, and their checks.

Every op is one `sdcodes` command line.  A workload turns its recorded pool
(expected.json) and the run's seeded generator into one pass of ops.  The
pass takes one entry from each of the pool's cost strata (equal slices of
the pool sorted by the op time recorded for each entry), so that runs with
different seeds do the same mix of cheap and dear work; a run times whole
passes.
Each pool entry carries the output the seed commit gave for it; `observe`
reduces an op's output to the same shape, and `check` compares the two.
"""

from __future__ import annotations

import hashlib
import random
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from harness import SetupError, last_record, row_space


@dataclass
class Op:
    argv: list[str]
    expect: dict
    # row ints of the two inputs of an `equivalent` op, for the witness check
    pair: tuple = field(default=())


# -- GF(2) helpers of the benchmark's own, independent of the library -------


def bits(row: str) -> int:
    """Row text to int; the leftmost symbol is coordinate 0, as in the library."""
    return int(row[::-1], 2)


def row_text(value: int, n: int) -> str:
    return format(value, f"0{n}b")[::-1]


def permute(value: int, images: list[int]) -> int:
    """Send coordinate i to images[i]."""
    out = 0
    for i, img in enumerate(images):
        out |= ((value >> i) & 1) << img
    return out


def mix_rows(rows: list[int], rng: random.Random) -> list[int]:
    """Another basis of the same row space: random row additions, then a shuffle."""
    rows = list(rows)
    k = len(rows)
    for i in range(k):
        j = rng.randrange(k - 1)
        j += j >= i
        if rng.random() < 0.5:
            rows[i] ^= rows[j]
    rng.shuffle(rows)
    return rows


def write_matrix(path: Path, rows: list[int], n: int) -> str:
    path.write_text(f"{n} {len(rows)}\n" + "".join(row_text(r, n) + "\n" for r in rows))
    return str(path)


def digest(rows: list[str]) -> str:
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


def walk_code(lib, n: int, entry: dict) -> list[int]:
    """Replay the seeded walk that names a pool code; refuse if it drifted."""
    code = lib.random_self_dual(n, entry["steps"], entry["walk_seed"])
    rows = [r.to01() for r in code.generator]
    if digest(rows) != entry["digest"]:
        raise SetupError(
            f"walk (n={n}, steps={entry['steps']}, seed={entry['walk_seed']}) no longer "
            "gives the recorded code"
        )
    return [bits(r) for r in rows]


def cost_strata(entries: list[dict], strata: int) -> list[list[dict]]:
    """`strata` equal slices of entries sorted by recorded op time."""
    ranked = sorted(entries, key=lambda e: (e["record_s"], e["walk_seed"]))
    bounds = [len(ranked) * s // strata for s in range(strata + 1)]
    return [ranked[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def stratified(entries: list[dict], strata: int, rng: random.Random) -> list[dict]:
    """One entry from each cost stratum."""
    return [rng.choice(s) for s in cost_strata(entries, strata)]


def stratified_s(entries: list[dict], strata: int) -> float:
    """The recorded op time of `stratified` entries, summed, as a mean over seeds."""
    return sum(statistics.fmean(e["record_s"] for e in s) for s in cost_strata(entries, strata))


# -- workloads ---------------------------------------------------------------


class Workload:
    name = ""

    def build(self, lib, pool: dict, rng: random.Random, workdir: Path) -> list[Op]:
        """One pass of ops, in seeded order."""
        raise NotImplementedError

    def pass_s(self, pool: dict) -> float:
        """Recorded op time of a pass at the reference speed, as a mean over seeds."""
        return stratified_s(pool["entries"], pool["strata"])

    def observe(self, status, stdout: str) -> dict:
        raise NotImplementedError

    def check(self, op: Op, status, stdout: str) -> str | None:
        """None when the op's output is right, else what was wrong."""
        try:
            seen = self.observe(status, stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output ({exc!r}), status {status!r}"
        if seen != op.expect:
            return f"expected {op.expect}, got {seen}"
        return None


class Search(Workload):
    """`search --n 40`: each step is a full Gray-code sweep over 2^20 words."""

    name = "search-n40"

    def build(self, lib, pool, rng, workdir):
        entries = stratified(pool["entries"], pool["strata"], rng)
        rng.shuffle(entries)
        return [Op(self.argv(pool, e["walk_seed"]), e["expect"]) for e in entries]

    def argv(self, pool, walk_seed):
        return ["search", "--n", str(pool["n"]), "--steps", str(pool["steps"]),
                "--seed", str(walk_seed), "--json"]

    def observe(self, status, stdout):
        rec = last_record(stdout)
        return {
            "exit_status": status,
            "steps_completed": rec["steps_completed"],
            "best_d": {t: e["d"] for t, e in rec["best"].items()},
        }


class Walk(Search):
    """`search --n 512 --no-distance`: neighbor steps and RREF, no sweeps."""

    name = "walk-n512"

    def argv(self, pool, walk_seed):
        return super().argv(pool, walk_seed)[:-1] + ["--no-distance", "--json"]

    def observe(self, status, stdout):
        rec = last_record(stdout)
        return {
            "exit_status": status,
            "steps_completed": rec["steps_completed"],
            "best": rec["best"],
            "final_type": rec["final_type"],
        }


class Neighborhood(Workload):
    """`neighborhood FILE` on Type I codes: per distance, one code from each cost stratum."""

    name = "neighborhood-n32"

    @staticmethod
    def by_distance(pool) -> list[list[dict]]:
        groups = defaultdict(list)
        for e in pool["entries"]:
            groups[e["distance"]].append(e)
        return [groups[d] for d in sorted(groups)]

    def pass_s(self, pool):
        return sum(stratified_s(group, pool["strata"]) for group in self.by_distance(pool))

    def build(self, lib, pool, rng, workdir):
        entries = [e for group in self.by_distance(pool) for e in stratified(group, pool["strata"], rng)]
        rng.shuffle(entries)
        ops = []
        for e in entries:
            rows = mix_rows(walk_code(lib, pool["n"], e), rng)
            path = write_matrix(workdir / f"nb{len(ops)}.txt", rows, pool["n"])
            ops.append(Op(["neighborhood", path, "--json"], e["expect"]))
        return ops

    def observe(self, status, stdout):
        rec = last_record(stdout)
        return {
            "exit_status": status,
            "members": [[m["type"], m["distance"], m["representative"]] for m in rec["members"]],
        }


class Equivalence(Workload):
    """`equivalent A B`: mostly a code against a permuted copy, some inequivalent pairs.

    A positive pair costs 0.75 s to 5 s, depending on the code and on the
    permutation, which sets the order of the basis DFS; so permutations are
    part of the recorded pool, and a pass takes one positive pair from each
    cost stratum, in seeded order, with an inequivalent pair after every
    fourth.
    """

    name = "equivalence-n32"

    def pass_s(self, pool):
        negatives = statistics.fmean(e["record_s"] for e in pool["negatives"])
        return stratified_s(pool["positives"], pool["strata"]) + pool["strata"] // 4 * negatives

    def build(self, lib, pool, rng, workdir):
        n = pool["n"]
        picked = stratified(pool["positives"], pool["strata"], rng)
        rng.shuffle(picked)
        negatives = list(pool["negatives"])
        rng.shuffle(negatives)
        pairs = []
        for s, e in enumerate(picked):
            a = walk_code(lib, n, e)
            pairs.append((a, [permute(x, e["perm"]) for x in a], e["expect"]))
            if s % 4 == 3:
                neg = negatives[(s // 4) % len(negatives)]
                b = walk_code(lib, n, neg["b"])
                pairs.append((walk_code(lib, n, neg["a"]), [permute(x, neg["perm"]) for x in b], neg["expect"]))
        ops = []
        for j, (a, b, expect) in enumerate(pairs):
            a_path = write_matrix(workdir / f"eq{j}a.txt", mix_rows(a, rng), n)
            b_path = write_matrix(workdir / f"eq{j}b.txt", mix_rows(b, rng), n)
            ops.append(Op(["equivalent", a_path, b_path, "--json"], expect, (a, b)))
        return ops

    def observe(self, status, stdout):
        rec = last_record(stdout)
        return {"exit_status": status, "equivalent": rec["equivalent"]}

    def check(self, op, status, stdout):
        wrong = super().check(op, status, stdout)
        if wrong or not op.expect["equivalent"]:
            return wrong
        images = last_record(stdout)["witness"]
        a, b = op.pair
        if not isinstance(images, list) or sorted(images) != list(range(len(images))):
            return f"witness is not a permutation: {images}"
        if row_space([permute(x, images) for x in a]) != row_space(b):
            return "witness does not map A onto B"
        return None


WORKLOADS = {w.name: w for w in (Search(), Neighborhood(), Walk(), Equivalence())}
