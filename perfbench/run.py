"""The sdcodes benchmark: whole CLI commands, timed, checked and traced.

    python3 perfbench/run.py --workload search-n40 --seed 1 --seconds 22 --trace 0

One closed-loop client in this process runs one workload.  Each op is an
in-process call of `sdcodes.cli.main(argv)` with stdout captured; the
program gets only argv and the matrix files written during set-up.  Inputs
come from the recorded pools in expected.json, chosen and laid out by
`--seed`.  Ops run one after another, in whole passes over the run's
inputs: as many passes as come nearest to `--seconds` by the op times
recorded for the pool at the reference speed (below), so that every run of
a workload times the same number of ops.  Their outputs are checked against
the recorded answers after the timed phase.
ops_per_s is correct ops over the summed op time, which leaves out the
collection of garbage between ops (see harness.call_cli).  Every
end-to-end time is scaled to a reference speed of the host (see
harness.ScaledClock); the unscaled wall times are printed beside them.

Set-up (a fresh import of the library, input generation, a warm-up pass
over tiny inputs) is done once before the timed phase and four more times
between its passes, outside op time; setup_s is the median of the five.

--trace 0 prints the end-to-end metrics.  --trace 1 runs a fixed number of
ops, each once untraced and once with every public function of the six
layers wrapped (tracing.py), and prints per-op layer metrics; the spans are
written to perfbench/_out/.  --quick uses tiny inputs, for the benchmark's
own tests.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Exit status: 0 when every op was right, 1 when some op failed, 2 when the
benchmark cannot run here (no library, or inputs that no longer replay).
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

from harness import (
    HERE,
    OUT,
    REFERENCE_S,
    ScaledClock,
    SetupError,
    call_cli,
    import_library,
    machine_info,
    peak_rss_mb,
    tail,
)
from tracing import SWEEPS, Tracer
from workloads import WORKLOADS

SETUP_REPS = 5

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "gf2.bitvector_new": "count",
    "gf2.bitmatrix_new": "count",
    "gf2.self_ms": "ms",
    "code.canonicalize_calls": "count",
    "code.canonicalize_ms": "ms",
    "code.self_orthogonal_calls": "count",
    "code.self_orthogonal_ms": "ms",
    "code.sweep_calls": "count",
    "code.sweep_ms": "ms",
    "code.sweep_words_full": "words",
    "code.sweep_words_per_s": "words/s",
    "code.codewords_listed": "words",
    "code.contains_calls": "count",
    "neighborhood.build_ms": "ms",
    "neighborhood.verdict_ms": "ms",
    "neighborhood.subcode_ms": "ms",
    "neighborhood.step_calls": "count",
    "neighborhood.step_ms": "ms",
    "equivalence.decide_ms": "ms",
    "equivalence.apply_calls": "count",
    "equivalence.apply_ms": "ms",
    "fixtures_io.parse_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

VERDICTS = (
    "neighborhood.verify_no_better_type1",
    "neighborhood.verify_distance2_coincidence",
    "neighborhood.verify_singly_even_range",
)


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="tiny inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def load_pools() -> dict:
    try:
        with open(HERE / "expected.json") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SetupError(f"cannot read the recorded pools: {exc}") from None


def set_up(workload, pools: dict, mode: str, seed: int):
    """Import the library, write this run's inputs, and warm up on tiny inputs.

    Returns (library, one pass of ops, directory holding the inputs).
    """
    lib = import_library()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        ops = workload.build(lib, pools[mode][workload.name], random.Random(seed), workdir)
        warm_dir = workdir / "warm-up"
        warm_dir.mkdir()
        warm = workload.build(lib, pools["quick"][workload.name], random.Random(seed), warm_dir)
        for op in warm:
            _, status, stdout = call_cli(lib.cli.main, op.argv)
            wrong = workload.check(op, status, stdout)
            if wrong:
                raise SetupError(f"warm-up op {' '.join(op.argv)}: {wrong}")
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    return lib, ops, workdir


def run_timed(main, ops, passes: int, clock: ScaledClock, set_up_again):
    """`passes` whole passes over the ops.

    Set-up is repeated SETUP_REPS - 1 more times, after the first passes
    (and after the last for any left), outside the ops' time, so that the
    median set-up time spans about the same stretch of the machine's speed
    as the ops do.  Returns (results with op times at the reference speed,
    the ops' wall times, set-up times at the reference speed).
    """
    results, wall, setup_times = [], [], []
    for _ in range(passes):
        for op in ops:
            results.append((op, *call_cli(main, op.argv, clock)))
            wall.append(clock.wall[-1])
        if len(setup_times) < SETUP_REPS - 1:
            setup_times.append(clock.time(set_up_again)[0])
    while len(setup_times) < SETUP_REPS - 1:
        setup_times.append(clock.time(set_up_again)[0])
    return results, wall, setup_times


def failures(workload, results) -> list[str]:
    out = []
    for op, _, status, stdout in results:
        wrong = workload.check(op, status, stdout)
        if wrong:
            out.append(f"{' '.join(op.argv)}: {wrong}")
    return out


def layer_metrics(t: Tracer, n_ops: int, overhead: float) -> dict:
    def per_op(x):
        return x / n_ops

    def calls(*names):
        return per_op(sum(t.calls[n] for n in names))

    def ms(*names):
        return per_op(1000 * sum(t.total[n] for n in names))

    sweeps = [f"code.LinearCode.{s}" for s in SWEEPS]
    sweep_s = sum(t.total[n] for n in sweeps)
    return {
        "gf2.bitvector_new": calls("gf2.BitVector.__init__"),
        "gf2.bitmatrix_new": calls("gf2.BitMatrix.__init__"),
        "gf2.self_ms": per_op(t.layer_self_ms("gf2")),
        "code.canonicalize_calls": calls("code.LinearCode.__init__"),
        "code.canonicalize_ms": ms("code.LinearCode.__init__"),
        "code.self_orthogonal_calls": calls("code.LinearCode.is_self_orthogonal"),
        "code.self_orthogonal_ms": ms("code.LinearCode.is_self_orthogonal"),
        "code.sweep_calls": calls(*sweeps),
        "code.sweep_ms": ms(*sweeps),
        "code.sweep_words_full": per_op(t.words["sweep"]),
        "code.sweep_words_per_s": t.words["sweep"] / sweep_s if sweep_s else 0.0,
        "code.codewords_listed": per_op(t.words["listed"]),
        "code.contains_calls": calls("code.LinearCode.contains"),
        "neighborhood.build_ms": per_op(1000 * t.self_time["neighborhood.neighborhood_containing"]),
        "neighborhood.verdict_ms": ms(*VERDICTS),
        "neighborhood.subcode_ms": ms("neighborhood.max_doubly_even_subcode"),
        "neighborhood.step_calls": calls("neighborhood.neighbor_step"),
        "neighborhood.step_ms": ms("neighborhood.neighbor_step"),
        "equivalence.decide_ms": per_op(1000 * t.self_time["equivalence.are_permutation_equivalent"]),
        "equivalence.apply_calls": calls("equivalence.apply_permutation"),
        "equivalence.apply_ms": ms("equivalence.apply_permutation"),
        "fixtures_io.parse_ms": ms("fixtures_io.parse_matrix"),
        "cli.self_ms": per_op(1000 * t.self_time["cli.main"]),
        "trace.overhead_ratio": overhead,
    }


def say(text: str) -> None:
    print(f"perfbench {text}")


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    mode = "quick" if args.quick else "full"
    clock = ScaledClock()
    try:
        pools = load_pools()
        setup_s, (lib, ops, workdir) = clock.time(lambda: set_up(workload, pools, mode, args.seed))
    except SetupError as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2

    def set_up_again() -> None:
        _, _, again = set_up(workload, pools, mode, args.seed)
        shutil.rmtree(again, ignore_errors=True)

    say("machine " + json.dumps(machine_info(), sort_keys=True))
    pool = pools[mode][workload.name]
    try:
        if args.trace:
            results, metrics = traced_run(workload, pool, lib, ops, args)
        else:
            passes = max(1, round(args.seconds / workload.pass_s(pool)))
            results, wall, setup_times = run_timed(lib.cli.main, ops, passes, clock, set_up_again)
            setup_times.insert(0, setup_s)
            metrics = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wrong = failures(workload, results)
    for line in wrong[:10]:
        print(f"perfbench: failed op: {line}", file=sys.stderr)
    attempted, failed = len(results), len(wrong)
    say(f"workload={workload.name} mode={mode} seed={args.seed} trace={args.trace} "
        f"ops={attempted} failed={failed}")
    if metrics is None:
        latencies = [seconds for _, seconds, _, _ in results]
        tail_s, tail_pct, beyond = tail(latencies)
        metrics = {
            "ops_per_s": (attempted - failed) / sum(latencies),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_tail_ms": 1000 * tail_s,
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": statistics.median(setup_times),
        }
        say(f"passes={attempted // len(ops)} of {len(ops)} ops; op_tail at p{tail_pct:.1f} "
            f"with {beyond} ops beyond it of {attempted}; setup reps {[round(s, 4) for s in setup_times]}")
        say(f"unscaled wall times: op_p50_ms {1000 * statistics.median(wall):.1f} "
            f"op_tail_ms {1000 * tail(wall)[0]:.1f} ops_per_s {(attempted - failed) / sum(wall):.4f}; "
            f"reference loop {1000 * statistics.median(clock.loops):.3f} ms median, "
            f"{1000 * min(clock.loops):.3f}-{1000 * max(clock.loops):.3f} ms over {len(clock.loops)} runs, "
            f"against {1000 * REFERENCE_S:.3f} ms at the reference speed")
        # 0 on every correct run, so it is printed here but kept out of the
        # result line's metrics; the result line carries failed and attempted
        say(f"error_rate {failed / attempted} ratio")
        units = END_TO_END
    else:
        units = PER_LAYER
    for name, value in metrics.items():
        say(f"{name} {value} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def traced_run(workload, pool, lib, ops, args):
    """Each op untraced, then at once traced; layer metrics per traced op.

    Pairing the two calls of an op keeps changes in the machine's speed out
    of the overhead ratio.  The run takes whole passes, as many as depend
    only on the workload and --seconds, so that the counts of two traced
    runs with one seed repeat exactly.
    """
    n_ops = len(ops) * max(1, round(args.seconds / (3 * workload.pass_s(pool))))
    tracer = Tracer()
    base, traced = [], []
    for i, op in enumerate(ops * (n_ops // len(ops))):
        base.append((op, *call_cli(lib.cli.main, op.argv)))
        tracer.op = i
        tracer.install()
        try:
            traced.append((op, *call_cli(lib.cli.main, op.argv)))
        finally:
            tracer.restore()
    tracer.write_spans(OUT / f"trace-{workload.name}-seed{args.seed}.json")
    overhead = statistics.median(r[1] for r in traced) / statistics.median(r[1] for r in base)
    say(f"traced ops={n_ops} spans={len(tracer.spans)}")
    return base + traced, layer_metrics(tracer, n_ops, overhead)


if __name__ == "__main__":
    sys.exit(main())
