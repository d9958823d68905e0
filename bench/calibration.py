"""Machine-speed calibration: timed item seconds scaled to a nominal machine.

On a shared machine the same pass takes up to 40% longer at some moments
than at others (seen on a 2-core Xeon VM: 1 s chunks of identical work took
0.68 s to 1.04 s, and the quartile spread of raw items per second over five
to ten runs was 11% to 26%, against 2% to 6% calibrated).  A run times a fixed
reference slice between items, about every ``SLICE_EVERY_S`` of item time,
and divides each item's seconds by the speed factor measured around it:
the median reference slice within ``WINDOW_S`` of item time, over
``NOMINAL_S``.  The reference is bench code that never calls kronkit, so it
is the same on both sides of a comparison; each workload names the kernel
that resembles its work.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

SLICE_EVERY_S = 0.02
WINDOW_S = 0.5
MIN_SLICES = 5
NOMINAL_S = 1e-3  # a reference slice's time on the nominal machine

# A fixed 6-regular circulant graph on 30 vertices as neighbour bitmasks.
_N = 30
_ADJ = tuple(sum(1 << ((v + d) % _N) | 1 << ((v - d) % _N) for d in (1, 2, 5))
             for v in range(_N))


def _bitmask() -> None:
    """The bitmask reachability loop of kronkit's scans and flows."""
    full = (1 << _N) - 1
    for k in range(120):
        alive = full ^ (0b1011 << (k % 26))
        seen = frontier = alive & -alive
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = _ADJ[low.bit_length() - 1] & alive & ~seen
            seen |= new
            frontier |= new


def _sampler() -> None:
    """Seeded numpy draws of a removal set, as in the residue sampler."""
    for k in range(28):
        picked = np.random.default_rng([k, 7]).choice(_N, size=6, replace=False)
        mask = 0
        for v in picked:
            mask |= 1 << int(v)


# Each kernel takes about NOMINAL_S on a 2-core Xeon VM.  A workload uses
# the one closest to its own work: slowdowns hit interpreted bitmask loops
# and numpy calls differently (measured chunk-to-chunk spread of the
# calibrated time: 2.8% with the matching kernel, 5.5% with the other).
KERNELS = {"bitmask": _bitmask, "sampler": _sampler}


def reference_slice_s(kernel: str) -> float:
    """Seconds one fixed slice of reference work takes now."""
    start = perf_counter()
    KERNELS[kernel]()
    return perf_counter() - start


def factors(item_at: list[float], slice_at: list[float],
            slice_s: list[float]) -> list[float]:
    """Speed factor for each item: the median slice near it over NOMINAL_S.

    ``item_at`` and ``slice_at`` are positions on the pass's item-time
    clock, ascending; slices within WINDOW_S count, or the MIN_SLICES
    nearest when fewer are that close.
    """
    out = []
    for x in item_at:
        lo = bisect.bisect_left(slice_at, x - WINDOW_S)
        hi = bisect.bisect_right(slice_at, x + WINDOW_S)
        if hi - lo < MIN_SLICES:
            mid = bisect.bisect_left(slice_at, x)
            near = sorted(range(max(0, mid - MIN_SLICES), min(len(slice_at), mid + MIN_SLICES)),
                          key=lambda j: abs(slice_at[j] - x))
            window = [slice_s[j] for j in near[:MIN_SLICES]]
        else:
            window = slice_s[lo:hi]
        out.append(statistics.median(window) / NOMINAL_S)
    return out
