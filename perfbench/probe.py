"""Host-speed probe: a fixed kernel timed between tasks.

The host this benchmark was built on changes speed by up to 1.9x within
tens of seconds, and CPU time moves with wall time, so the noise is not
scheduling.  A 200 s trial alternated a compute kernel with a fixed srblab
task (a cat pushforward plus a perturbed_cat carve).  The two times
correlated at 0.94, and dividing each task time by the mean of the
kernel times around it cut the spread (IQR over median) from 0.44 to 0.09.

The probe is plain numpy driven from Python, like srblab's hot loops, and
never touches srblab, so a change to srblab cannot move it.  Times are
reported scaled to REFERENCE_S, the probe's time in the host's fast state,
so a scaled time reads as seconds on that host when it runs fast.
"""

import time

import numpy as np

STEPS = 400
REFERENCE_S = 0.0105

_MATRIX = np.array([[2.0, 1.0], [1.0, 1.0]])
_START = np.linspace(0.0, 1.0, 802).reshape(401, 2)


def probe():
    """Seconds one run of the fixed kernel takes now."""
    x = _START
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(STEPS):
        x = np.mod(x @ _MATRIX.T, 1.0)
        acc += float(np.cos(2.0 * np.pi * x[:, 0]).sum())
    return time.perf_counter() - t0


def scale(seconds, before, after):
    """`seconds` measured between two probes, at the reference host speed."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
