"""A fixed CPU probe: how fast the host is running right now.

The probe does not touch the package, so it measures the host and nothing
else. It has two parts, because the host's slow spells do not slow every
kind of work alike:

- ``small``: a loop of NumPy calls on (128, 5) arrays, like the per-step work
  of the simulation engines, which is bound by call overhead;
- ``large``: a cumulative sum down the first axis of a 5 MB array shaped
  like an ensemble batch, which is bound by memory.

The benchmark reports a time as wall time x ``scale(probe, large)``, with the
probe taken around it, so that it reads as seconds on a host whose probe
parts take ``REF_PARTS``. Work that does no large-array work is rescaled by
the small part alone.
"""

from __future__ import annotations

import time

import numpy as np

# What (small, large) take on the reference host (2 vCPU, Python 3.11, NumPy 2.4).
REF_PARTS = (0.012, 0.009)


def probe_parts() -> tuple[float, float]:
    """Seconds taken by the small-array part and by the large-array part."""
    small = np.ones((128, 5))
    small_out = np.empty_like(small)
    large = np.ones((1_000, 128, 5))
    large_out = np.ones_like(large)  # touched, so no page fault is timed
    start = time.perf_counter()
    for _ in range(5_000):
        np.multiply(small, small, out=small_out)
        np.add(small_out, small, out=small_out)
    middle = time.perf_counter()
    np.cumsum(large, axis=0, out=large_out)
    return middle - start, time.perf_counter() - middle


def scale(parts, large: bool) -> float:
    """Factor from wall time to reference-host time for work with the probe
    ``parts`` around it; ``large`` says whether the work is large-array work
    too, which makes the large part count."""
    if large:
        return sum(REF_PARTS) / sum(parts)
    return REF_PARTS[0] / parts[0]
