"""Machine-speed calibration of the end-to-end timings.

The shared host this benchmark was written on changes speed by up to a
factor of two within seconds: one ``library_verify`` pass took anything from
12 to 23 ms across runs of the same code, and the whole interpreter slows and
speeds up together.  A run's raw median therefore says more about the host's
state during the run than about the program.

So every timed op is followed by :data:`PROBES_PER_OP` runs of :func:`probe`,
a fixed piece of pure-Python standard-library work of the same character as
fano4's (``Fraction`` arithmetic, small frozen dataclasses, dict updates,
f-strings).  The run is cut into windows of at least :data:`WINDOW_S`
seconds, and each op's time is scaled by ``NOMINAL_PROBE_NS / median probe
time in its window``: it is reported as the time the op would take at the
host speed where one probe takes :data:`NOMINAL_PROBE_NS`.  The probe is the
benchmark's own code, so a change to fano4 moves the scaled times exactly as
it moves the raw ones, while the host's drift cancels.  Across runs of the
same code this cut the quartile spread of a median op time from 0.25-0.33 of
it to at most 0.02.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter, perf_counter_ns

#: probe time, in ns, at the nominal host speed: about the probe's median on
#: the 2-vCPU Xeon host in its faster state (about 210 us in its slower one)
NOMINAL_PROBE_NS = 125_000
PROBES_PER_OP = 2
WINDOW_S = 0.05


@dataclass(frozen=True)
class _Point:
    a: int
    b: Fraction

    def scale(self, k: int) -> _Point:
        return _Point(self.a * k, self.b * k)


def probe() -> tuple:
    """The reference work; its result is returned so none of it is skipped."""
    total = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    for i in range(1, 20):
        total += Fraction(i % 13 - 6, i % 11 + 1)
        key = (i % 5, i % 7)
        table[key] = table.get(key, 0) + i
    rows = []
    for i in range(1, 14):
        p = _Point(i, Fraction(i, 7)).scale(3)
        rows.append((p.a, p.b + Fraction(1, i), f"{p.a}:{p.b}"))
    return total, table, {a: label for a, _, label in rows}, min(rows)


def probe_ns() -> int:
    start = perf_counter_ns()
    probe()
    return perf_counter_ns() - start


class Calibrator:
    """Collects op times with probes between them; :attr:`scaled` holds the
    op times, in ns, scaled to the nominal host speed window by window."""

    def __init__(self, window_s: float = WINDOW_S) -> None:
        self.window_s = window_s
        self.scaled: list[float] = []
        self.factors: list[float] = []
        self._ops: list[int] = []
        self._probes: list[int] = []
        self.sample()
        self._deadline = perf_counter() + window_s

    def sample(self) -> None:
        """Probe the host speed into the current window."""
        self._probes.extend(probe_ns() for _ in range(PROBES_PER_OP))

    def add(self, op_ns: int) -> None:
        """Record one op's raw time, then probe; close the window when due."""
        self._ops.append(op_ns)
        self.sample()
        if perf_counter() >= self._deadline:
            self.flush()

    def flush(self) -> None:
        """Scale the current window's ops and start a new window.  The last
        op's probes open the new window too, so every window has probes on
        both sides of its ops."""
        if self._ops:
            factor = NOMINAL_PROBE_NS / statistics.median(self._probes)
            self.scaled.extend(ns * factor for ns in self._ops)
            self.factors.append(factor)
        self._ops, self._probes = [], self._probes[-PROBES_PER_OP:]
        self._deadline = perf_counter() + self.window_s
