"""Reference kernel that calibrates the benchmark's clock to the machine's speed.

On a shared host the same op can take 1.3x longer in one minute than in
the next, and a fixed numpy kernel slows down by nearly the same factor.
The benchmark therefore runs ``reference_seconds()`` between ops and
reports each op's time scaled by ``REF_SECONDS`` over the mean of the
kernel times just before and just after it: time in *reference seconds*,
which equal wall seconds whenever the kernel takes exactly
``REF_SECONDS``.  The kernel uses numpy only, never the program under
test, so a change to the program cannot move it.
"""

import itertools
import time

import numpy as np

REF_SECONDS = 2.2e-3  # nominal kernel time (its median on a quiet host); fixes the unit

_SMALL = np.random.default_rng(0).standard_normal((6, 6))
_LARGE = np.random.default_rng(1).standard_normal((48, 48))
_GRAM = np.array([[2.0, -1.0, 0.3], [-1.0, 2.0, 0.1], [0.3, 0.1, 1.5]])
_DIRECTION = np.array([0.3, -0.2, 0.9])


def reference_seconds() -> float:
    """Wall time of one fixed mix of the kinds of work the ops are made of:
    small and mid-size LAPACK calls, small-array arithmetic, and a Python
    loop over integer vectors with tiny dot products."""
    t0 = time.perf_counter()
    for _ in range(16):
        np.linalg.svd(_SMALL)
        np.linalg.qr(_SMALL)
        np.linalg.eigh(_SMALL + _SMALL.T)
        np.max(np.abs(_SMALL @ _SMALL.T - np.eye(6)))
    np.linalg.qr(_LARGE)
    np.linalg.qr(_LARGE)
    for m in itertools.product(range(-3, 4), repeat=3):
        mv = np.array(m, dtype=np.float64)
        d = abs(float(_DIRECTION @ mv))
        if d > 1e-14:
            float(mv @ _GRAM @ mv) / (2.0 * d)
    return time.perf_counter() - t0


class SpeedClock:
    """Speed factors for consecutive ops: call ``factor()`` right after each op.

    The kernel run at the previous call (or at construction) brackets the
    op from before, the one run now from after.
    """

    def __init__(self):
        self._last = reference_seconds()

    def factor(self) -> float:
        before, self._last = self._last, reference_seconds()
        return 2.0 * REF_SECONDS / (before + self._last)
