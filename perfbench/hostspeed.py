"""Host speed probe: a fixed piece of work that does not use ikmig.

The benchmark shares a few cores of a host whose speed drifts by a
quarter or more, on time scales from a second to minutes, with CPU time
drifting as much as wall time.  The benchmark therefore probes the host
before and after every pass and for the rest of the run, and reports
times scaled to a host on which one probe repeat takes ``REFERENCE_S``:

    scaled = wall * REFERENCE_S / (mean probe repeat time of the run)

The probe mixes, in about equal time, the two kinds of work a pass
spends its time on: interpreted Python (CSV formatting and parsing, as
in the field and image files) and vectorised complex ``exp`` (as in the
migration kernel).  The drift does not slow both kinds alike, and a
workload's own mix changes from pass to pass and from commit to commit,
so neither kind alone is used.  The probe never calls ikmig, so a change
to the program cannot change it.
"""

from __future__ import annotations

import time

import numpy as np

# Median repeat time on a 2-vCPU Intel Xeon VM, Python 3.11, NumPy 2.4.
# It fixes only the scale of the reported seconds.
REFERENCE_S = 0.14

REPEATS = 7
_PHASE = np.linspace(0.0, 400.0, 1 << 18)


def _python_part() -> float:
    acc = 0.0
    rows = []
    for i in range(20000):
        x = i * 0.001
        rows.append(f"{i},{x:.17g},{x * x:.17g}")
    for row in rows:
        acc += float(row.split(",")[2])
    return acc


def _numpy_part() -> float:
    acc = 0.0
    for k in (1.0, 1.5, 2.0, 2.5):
        acc += float(np.abs(np.exp(-1j * k * _PHASE).sum()))
    return acc


def probe(repeats: int = REPEATS) -> list[float]:
    """Seconds of each of ``repeats`` timed repeats of the probe work."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _python_part()
        _numpy_part()
        times.append(time.perf_counter() - start)
    return times
