"""Loading the library from the checkout, calling its CLI, timing at a reference speed."""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"


class SetupError(Exception):
    """The benchmark cannot run here: no library, or its inputs do not replay."""


def import_library():
    """Import sdcodes from this checkout's src/, dropping any earlier import.

    Every set-up repetition calls this, so that the import is part of the
    measured set-up time and each repetition starts from fresh modules.
    """
    if not (SRC / "sdcodes" / "__init__.py").is_file():
        raise SetupError(f"no sdcodes package under {SRC}")
    for name in [m for m in sys.modules if m == "sdcodes" or m.startswith("sdcodes.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    lib = importlib.import_module("sdcodes")
    importlib.import_module("sdcodes.cli")
    if Path(lib.__file__).resolve().parent != SRC / "sdcodes":
        raise SetupError(f"imported sdcodes from {lib.__file__}, not from {SRC}")
    return lib


def call_cli(main, argv: list[str], clock: ScaledClock | None = None) -> tuple[float, object, str]:
    """One op: main(argv) with stdout and stderr captured.

    Returns (seconds, status, stdout): wall seconds, or with a clock seconds
    at the reference speed.  status is the return code, or a string naming
    the exception or SystemExit that ended the call.

    After the op, and outside its time, garbage is collected, as the end of
    a CLI process would free it.  An `equivalent` op leaves about 2.5 MB in
    reference cycles (its recursive search closure); without the collection
    peak memory would grow with the number of ops a run gets through.
    """
    out = io.StringIO()

    def op():
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                return main(argv)
        except SystemExit as exc:
            return f"SystemExit({exc.code!r})"
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            return f"raised {exc!r}"

    seconds, status = (clock.time if clock else wall_time)(op)
    gc.collect()
    return seconds, status, out.getvalue()


def row_space(rows: list[int]) -> frozenset:
    """The reduced echelon basis of the span of rows, as a set."""
    basis: dict[int, int] = {}
    for r in rows:
        while r:
            lead = r.bit_length() - 1
            if lead not in basis:
                basis[lead] = r
                break
            r ^= basis[lead]
    for lead in sorted(basis):
        for other in basis:
            if other != lead and (basis[other] >> lead) & 1:
                basis[other] ^= basis[lead]
    return frozenset(basis.values())


# The hosts this runs on are shared, and the speed they give one thread
# drifts by up to 2x over seconds to minutes with other tenants' load: more
# than the changes the benchmark should see.  So the end-to-end times are
# scaled to a reference speed, at which a short fixed pure-Python GF(2)
# elimination (the kind of work the library does; row_space above, so a
# change to it changes the reference) takes REFERENCE_S.  On the
# 2-vCPU Xeon host the benchmark was tuned on, the loop took 0.4 to 1.1 ms.
REFERENCE_S = 0.00065
SAMPLE_EVERY_S = 0.05
_REFERENCE_ROWS = [random.Random(i).getrandbits(320) for i in range(60)]


def reference_loop_s() -> float:
    start = time.perf_counter()
    row_space(_REFERENCE_ROWS)
    return time.perf_counter() - start


def wall_time(fn) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


class ScaledClock:
    """Times calls at the reference speed.

    The reference loop runs just before and just after the call, and, from
    a timer signal, every SAMPLE_EVERY_S while it runs, so that the speed is
    sampled across the call even when the host changes pace within it.  The
    call's wall time, less the loops run inside it, is scaled by REFERENCE_S
    over the mean loop time.
    """

    def __init__(self):
        reference_loop_s()  # warm
        self.loops: list[float] = []
        self.wall: list[float] = []

    def time(self, fn) -> tuple[float, object]:
        """(seconds at the reference speed, result) of fn()."""
        inside: list[float] = []
        before = reference_loop_s()
        previous = signal.signal(signal.SIGALRM, lambda *_: inside.append(reference_loop_s()))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            seconds, result = wall_time(fn)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        loops = [before, *inside, reference_loop_s()]
        self.loops += loops
        self.wall.append(seconds - sum(inside))
        return self.wall[-1] * REFERENCE_S / statistics.fmean(loops), result


def last_record(stdout: str) -> dict:
    """The last JSON line of an op's output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond) at the highest percentile with ten ops beyond it.

    With ten or fewer values no percentile has ten beyond it; the maximum is
    returned with percentile 100 and the shortfall shows as fewer ops beyond.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def machine_info() -> dict:
    """Python version, CPU model, cache sizes and usable CPU count."""
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next(
        (line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")),
        "unknown",
    )
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(f"{base}/{index}/level")
        kind = _read(f"{base}/{index}/type")
        size = _read(f"{base}/{index}/size")
        if level and kind and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": model,
        "caches": caches,
        "nproc": len(os.sched_getaffinity(0)),
    }
