"""Machine-speed calibration for the end-to-end times.

On a shared host the speed of one core drifts: the same tree_depth call was
measured at 0.38 s to 0.75 s within one minute, with wall time equal to CPU
time, so the drift is not scheduling delay that CPU time could remove. A
fixed kernel that does the same kind of work as tdlab (bitmask component
search over vertex subsets, plus a dict memo) runs before and after every
timed piece of work, and each end-to-end time is scaled to the speed at which
the kernel takes ``REFERENCE_S``, using the median of the kernel times
nearest to it. The kernel does not touch tdlab, so
a change to tdlab moves the scaled times exactly as it moves the raw ones.
Raw times are kept in the run record next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.010

# A fixed table of neighbour masks on 14 vertices.
_ADJ = (
    0x0A26, 0x1401, 0x2C10, 0x0290, 0x3048, 0x0441, 0x1088,
    0x2224, 0x0152, 0x0803, 0x2010, 0x1201, 0x2046, 0x0A2C,
)


def _kernel() -> int:
    memo = {}
    for mask in range(1, 1 << len(_ADJ), 3):
        rem, count = mask, 0
        while rem:
            comp = rem & -rem
            frontier = comp
            while frontier:
                grown = 0
                m = frontier
                while m:
                    low = m & -m
                    grown |= _ADJ[low.bit_length() - 1]
                    m ^= low
                frontier = grown & rem & ~comp
                comp |= frontier
            rem &= ~comp
            count += 1
        memo[mask] = count
    return len(memo)


def calibrate() -> float:
    """Seconds the calibration kernel takes right now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def local_calibrations(calibs: list[float]) -> list[float]:
    """Given kernel times taken before the first piece of work and after
    each piece, the calibration for each piece: the median of the four
    nearest kernel times (one calibration alone jitters by about 2x)."""
    return [statistics.median(calibs[max(0, i - 1):i + 3]) for i in range(len(calibs) - 1)]


def scaled(seconds: float, calib_s: float) -> float:
    """``seconds`` as it would read at reference speed."""
    return seconds * REFERENCE_S / calib_s
