"""Host-speed calibration for a shared, noisy host.

A shared virtual machine, such as the two-vCPU host the baseline in
README.md was measured on, can change speed by up to about 2x over tens
of seconds as other tenants load it.  A fixed pure-Python loop and a
whole sweep slow down together.  Raw wall-clock rates measured minutes
apart then spread wider than any useful regression bound.

Every timed interval is bracketed by runs of :func:`kernel`, a fixed
pure-Python kernel shaped like the simulator's hot loop (objects with
slots, attribute updates, dict writes, list scans).  It lives here, not
in the program, so no change to the program can move it.  A time ``t``
measured while the kernel takes ``k`` seconds is reported as
``t * REFERENCE_S / k``: the time it would have taken on a host where
the kernel takes ``REFERENCE_S`` seconds.  Rates scale the other way.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

#: Normalisation target: times are reported as if the kernel took this long.
REFERENCE_S = 0.100
#: Kernel runs per calibration sample (their mean is the sample).
REPEATS = 4


class _Slot:
    __slots__ = ("op", "src", "dst", "ready", "age")

    def __init__(self, op: int, src: str, dst: str) -> None:
        self.op = op
        self.src = src
        self.dst = dst
        self.ready = False
        self.age = 0


def kernel(retire: int = 70_000) -> int:
    """A toy in-order-retire window: fill, age, complete, retire."""
    regs = {f"r{i}": i for i in range(16)}
    window: List[_Slot] = []
    done = cycle = 0
    while done < retire:
        cycle += 1
        if len(window) < 32:
            window.append(_Slot(cycle % 5, f"r{cycle % 16}", f"r{cycle * 7 % 16}"))
        for slot in window:
            slot.age += 1
            if not slot.ready and slot.age > slot.op:
                slot.ready = True
                regs[slot.dst] = (regs[slot.src] * 31 + slot.op) & 0xFFFF
        while window and window[0].ready:
            window.pop(0)
            done += 1
    return cycle


def sample() -> float:
    """Seconds the kernel takes right now (mean of ``REPEATS`` runs)."""
    runs = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        runs.append(time.perf_counter() - start)
    return statistics.fmean(runs)


def normalise_time(seconds: float, brackets: Sequence[float]) -> float:
    """``seconds`` measured between calibration ``brackets``, scaled to
    the reference host speed."""
    return seconds * REFERENCE_S / statistics.fmean(brackets)
