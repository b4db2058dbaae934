"""Reference computations that put the benchmark's times on a fixed speed.

The benchmark runs on shared hosts whose speed swings by up to 2x for
minutes at a time, most of all for code made of many small numpy calls.
Every timed command is therefore bracketed by a short reference
computation of the same kind as the command's hot loop, timed just before
and just after it.  A command's *reference-speed* time is

    raw wall time * NOMINAL_S[probe] / mean(probe time before, after)

that is, its wall time on a host where the probe takes its nominal time.
On the reference machine (2 vCPUs of an Intel Xeon Sapphire Rapids KVM
guest, not slowed by its neighbours) the two agree.  The probes are the
benchmark's own frozen code, so a change to the program cannot move them.
numpy is imported on first use, so that importing this module keeps the
benchmark process small until its child launcher has started.
"""

from __future__ import annotations

import time

TINY_STEPS = 15000         # tanh steps on a 9-vector, as in inner SGD at d=3
SVD_SEED = 0

# nominal probe times in seconds, measured on the reference machine
NOMINAL_S = {
    "tiny": 0.045,
    "svd625x625": 0.070,
    "svd100x2000": 0.070,
}


def _tiny() -> None:
    import numpy as np
    x = np.ones(9)
    for _ in range(TINY_STEPS):
        x = np.tanh(0.5 * x) + 1e-9 * x.sum()


def _svd(m: int, n: int, reps: int):
    matrix = []

    def probe() -> None:
        import numpy as np
        if not matrix:
            matrix.append(np.random.default_rng(SVD_SEED).normal(size=(m, n)))
        for _ in range(reps):
            np.linalg.svd(matrix[0], compute_uv=False)
    return probe


_PROBES = {
    "tiny": _tiny,
    "svd625x625": _svd(625, 625, 1),     # D of cert_overparam
    "svd100x2000": _svd(100, 2000, 3),   # D of wide_underparam
}


def probe_s(name: str) -> float:
    """Wall time of one run of probe ``name``."""
    fn = _PROBES[name]
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def speed_factor(name: str, before: float, after: float) -> float:
    """Factor from raw to reference-speed seconds for a command bracketed
    by probe times ``before`` and ``after``."""
    return NOMINAL_S[name] / (0.5 * (before + after))
