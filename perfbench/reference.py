"""Host-speed references for the benchmark's timings.

The host this benchmark was built on runs identical work 1.4-1.9x slower
for stretches of tens of milliseconds to minutes, with CPU time equal to
wall time and no steal: other tenants slow the core down, they do not
take it away.  Timings are therefore taken between two measurements of a
fixed reference that no change to the package touches, and reported at
the reference's nominal speed, about that of a quiet host.

Two references, because the slow stretches do not slow all work alike:

* ``reference_s`` is shaped like the package's hot paths (a 15-node
  numpy panel and scalar float arithmetic) and scales job latencies.
  Each measurement is the median of a few back-to-back runs, so that it
  reads the host's speed rather than how cold the job left the caches.
* ``load_reference_s`` unmarshals the code objects of a few standard
  library modules, the bulk of what an import does, and scales set-up
  times.  It needs no numpy, so it can run before numpy is imported.
  Slow stretches slowed set-up by about 1.45x and the numpy reference by
  about 1.85x; this one slows with set-up.
"""

from __future__ import annotations

import functools
import marshal
import math
import statistics
from pathlib import Path
from time import perf_counter

# About the references' warm times on a quiet 2-core Intel Xeon host
# (Python 3.11.7, numpy 2.4.6).  Only the scale of the reported times
# depends on them.
NOMINAL_S = 200e-6
NOMINAL_LOAD_S = 1.8e-3

# Modules whose code the set-up reference unmarshals.
_LOAD_MODULES = ("argparse", "typing", "inspect", "pathlib", "statistics", "dataclasses", "enum")


def reference_s(runs: int = 1) -> float:
    """Median wall time of ``runs`` runs of the numeric reference."""
    return statistics.median(_once() for _ in range(runs))


def _once() -> float:
    import numpy as np

    nodes = _nodes()
    t0 = perf_counter()
    acc = 0.0
    for k in range(12):
        xs = 2.0 + 0.5 * nodes * (1.0 + 0.01 * k)
        fv = 4.0 * math.pi * xs * xs / np.sqrt(1.0 + xs * xs - 2.0 / xs)
        acc += float(nodes @ fv) + float(np.abs(fv).sum())
        y = 1.0
        for _ in range(6):
            f = 1.0 + y * y - 0.5 / (y + 1.0)
            y += 1e-3 * math.sqrt(f) * (y + 1.0) / (2.0 * math.sqrt(f))
        acc += y
    elapsed = perf_counter() - t0
    if not math.isfinite(acc):
        raise ArithmeticError("reference work went non-finite")
    return elapsed


@functools.cache
def _nodes():
    import numpy as np

    return np.linspace(-1.0, 1.0, 15)


def load_reference_s(runs: int = 1) -> float:
    """Median wall time of ``runs`` runs of the set-up reference."""
    blobs = _code_blobs()
    times = []
    for _ in range(runs):
        t0 = perf_counter()
        for blob in blobs:
            marshal.loads(blob)
        times.append(perf_counter() - t0)
    return statistics.median(times)


@functools.cache
def _code_blobs() -> tuple[bytes, ...]:
    import importlib.util

    blobs = []
    for name in _LOAD_MODULES:
        path = Path(importlib.util.find_spec(name).origin)
        code = compile(path.read_bytes(), str(path), "exec")
        blobs.append(marshal.dumps(code))
    return tuple(blobs)


def at_nominal_speed(seconds: float, ref_before: float, ref_after: float,
                     nominal: float = NOMINAL_S) -> float:
    """``seconds`` measured between two reference times, at nominal speed."""
    return seconds * nominal / (0.5 * (ref_before + ref_after))
