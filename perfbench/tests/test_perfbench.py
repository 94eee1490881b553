"""The benchmark's own tests, on tiny inputs.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, Op, mix_rows, permute, row_space  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def quick(workload: str, trace: int, seed: int = 3) -> tuple[dict, list[str]]:
    code, lines = run("--workload", workload, "--seed", str(seed), "--seconds", "1",
                      "--trace", str(trace), "--quick")
    assert code == 0, lines
    return json.loads(lines[-1]), lines


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics_are_printed_and_no_op_fails(workload):
    result, lines = quick(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in expected.items():
        assert any(line.startswith(f"perfbench {name} ") and line.endswith(f" {unit}") for line in lines)
    assert "perfbench error_rate 0.0 ratio" in lines


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first, _ = quick(workload, trace=1)
    second, _ = quick(workload, trace=1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    assert first["correct"] and second["correct"]
    counts = [n for n, unit in expected.items() if unit in ("count", "words")]
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts
    }


def test_seeds_change_inputs_but_not_the_number_of_ops():
    first, _ = quick("walk-n512", trace=0, seed=3)
    second, _ = quick("walk-n512", trace=0, seed=4)
    assert first["attempted"] == second["attempted"]


def test_scaled_clock_subtracts_and_divides_by_the_reference_loop(monkeypatch):
    import harness

    loops = iter([0.001, 0.001, 0.003])  # warm-up, before the call, after it
    monkeypatch.setattr(harness, "reference_loop_s", lambda: next(loops))
    monkeypatch.setattr(harness, "SAMPLE_EVERY_S", 10.0)
    monkeypatch.setattr(harness, "wall_time", lambda fn: (0.5, fn()))
    clock = harness.ScaledClock()
    seconds, result = clock.time(lambda: "done")
    assert result == "done"
    assert seconds == pytest.approx(0.5 * harness.REFERENCE_S / 0.002)
    assert clock.wall == [0.5] and clock.loops == [0.001, 0.003]


def test_refuses_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    code, lines = run("--workload", "search-n40", "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_gates_reject_wrong_answers():
    search = WORKLOADS["search-n40"]
    op = Op([], {"exit_status": 0, "steps_completed": 4, "best_d": {"TypeI": 4}})
    good = '{"best":{"TypeI":{"d":4,"step":2}},"event":"result","steps_completed":4}\n'
    assert search.check(op, 0, good) is None
    assert search.check(op, 0, good.replace('"d":4', '"d":2')) is not None
    assert search.check(op, 1, good) is not None
    assert search.check(op, "raised ValueError()", "") is not None


def test_witness_check_rejects_a_wrong_witness():
    rng = random.Random(0)
    a = [0b0011, 0b0100]
    images = [2, 3, 0, 1]
    b = mix_rows([permute(x, images) for x in a], rng)
    assert row_space([permute(x, images) for x in a]) == row_space(b)
    op = Op([], {"exit_status": 0, "equivalent": True}, (a, b))
    eq = WORKLOADS["equivalence-n32"]
    assert eq.check(op, 0, json.dumps({"equivalent": True, "witness": images})) is None
    assert eq.check(op, 0, json.dumps({"equivalent": True, "witness": [1, 0, 2, 3]})) is not None
    assert eq.check(op, 0, json.dumps({"equivalent": True, "witness": [2, 2, 0, 1]})) is not None


def test_no_op_passes_threads():
    from harness import import_library

    lib = import_library()
    pools = json.loads((BENCH / "expected.json").read_text())
    for mode in ("quick", "full"):
        for name, workload in WORKLOADS.items():
            with tempfile.TemporaryDirectory() as tmp:
                ops = workload.build(lib, pools[mode][name], random.Random(1), Path(tmp))
            assert ops and not any("--threads" in op.argv for op in ops)


def test_self_time_excludes_child_spans():
    from tracing import Tracer

    t = Tracer()

    def child():
        time.sleep(0.02)

    def parent():
        time.sleep(0.01)
        traced_child()

    traced_child = t._wrap("toy.child", child, record=True)
    t._wrap("toy.parent", parent, record=True)()
    (name_c, start_c, end_c, parent_c, _), (name_p, start_p, end_p, parent_p, _) = t.spans[1], t.spans[0]
    assert (name_p, name_c, parent_p, parent_c) == ("toy.parent", "toy.child", -1, 0)
    assert start_p <= start_c <= end_c <= end_p
    assert t.self_time["toy.parent"] == pytest.approx(t.total["toy.parent"] - t.total["toy.child"])
    assert 0.005 < t.self_time["toy.parent"] < t.total["toy.child"]
