"""Host-speed monitor: a fixed numerical kernel timed all through a run.

The benchmark runs on cores it shares with other tenants. On the 2-core
machine it was defined on, the same request takes anywhere from 1x to 1.6x
as long depending on what the host runs on the same core at that moment,
and that changes every few seconds. The probe is a fixed kernel with the
instruction mix of the program's quadrature: numpy arithmetic and scipy's
composite Simpson rule on a 4096-node grid, driven from a Python loop. It
slows down by nearly the same factor at the same moment as a transform does.

The monitor is a separate process pinned to the benchmark's CPU. Every
PERIOD_S it runs one short burst of the kernel and writes the burst's start
time and the CPU time it took. CPU time, not wall time, so a burst that
waits for the request it shares the CPU with is not counted slow. A
request's wall time is then scaled by ``REFERENCE_S`` over the mean burst
time during the request, which gives "seconds on a host where a burst takes
REFERENCE_S". The kernel never touches the program under test, so a change
to the program moves the scaled time as much as the raw one, while the
host's changes of speed cancel out. The bursts take about 2 % of the CPU
the requests run on, on every run alike. The raw wall times are kept in the
run's record next to the scaled ones.

Only numpy and scipy are used, never kklab. The monitor process is
``python3 hostspeed.py OUT_FILE``; it stops when terminated or when the
process that started it has ended.
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.integrate import simpson

# CPU time of one burst in the fast host state on the machine the benchmark
# was defined on (2 vCPUs, Python 3 with the container's numpy and scipy).
REFERENCE_S = 0.002
REPS = 15
PERIOD_S = 0.15

_X = np.geomspace(1e-2, 1e2, 4096)
_F = 1.0 / (1.0 + _X * _X)


def burst() -> float:
    """CPU seconds this thread spends on REPS steps of the kernel."""
    t0 = time.thread_time()
    acc = 0.0
    for k in range(REPS):
        j = (k * 37) % 4000 + 40
        d = _X - _X[j]
        acc += simpson((_F - _F[j]) / np.where(d == 0.0, 1.0, d), x=_X)
    elapsed = time.thread_time() - t0
    if not np.isfinite(acc):
        raise RuntimeError("host-speed burst produced a non-finite sum")
    return elapsed


def scale(samples: list[tuple[float, float]], t0: float, t1: float) -> float:
    """Factor for a wall time measured from monotonic time t0 to t1: the
    reference over the mean of the bursts that started in [t0, t1] and of
    the last one before t0, the host's speed when the request began."""
    starts = [t for t, _ in samples]
    lo = bisect.bisect_left(starts, t0)
    hi = bisect.bisect_right(starts, t1)
    if lo == 0:
        raise RuntimeError(f"no host-speed sample before {t0:.3f}")
    return REFERENCE_S / statistics.fmean(c for _, c in samples[lo - 1:hi])


def read_samples(path: Path) -> list[tuple[float, float]]:
    """(monotonic start, CPU seconds) of every complete burst the monitor
    writing ``path`` has made so far."""
    if not path.exists():
        return []
    lines = path.read_text().splitlines()
    # a line ends with ";" once written whole
    return [tuple(map(float, ln[:-1].split())) for ln in lines if ln.endswith(";")]


def scaled_since(path: Path, start: float) -> float:
    """Scaled seconds from monotonic time ``start`` until now, by the bursts
    of the monitor writing ``path``."""
    now = time.monotonic()
    return (now - start) * scale(read_samples(path), start, now)


class Monitor:
    """The monitor process, started on enter and stopped on exit."""

    def __init__(self, out: Path):
        self.out = out
        self.proc: subprocess.Popen | None = None

    def __enter__(self) -> "Monitor":
        self.out.unlink(missing_ok=True)
        self.proc = subprocess.Popen([sys.executable, __file__, str(self.out)],
                                     stdin=subprocess.DEVNULL)
        deadline = time.monotonic() + 60.0
        while not self.samples():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.__exit__()
                raise RuntimeError("host-speed monitor did not start")
            time.sleep(0.05)
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def samples(self) -> list[tuple[float, float]]:
        return read_samples(self.out)


def _run(out: Path) -> None:
    parent = os.getppid()
    burst()  # warm up: first calls pay for scipy's lazy set-up
    with out.open("w") as fh:
        while os.getppid() == parent:
            t = time.monotonic()
            fh.write(f"{t!r} {burst()!r};\n")
            fh.flush()
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    _run(Path(sys.argv[1]))
