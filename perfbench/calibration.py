"""Host-speed correction for timings.

On a shared VM the host's speed drifts by tens of percent over seconds to
minutes, for interpreted code and LAPACK alike, and process CPU time drifts
with it. A fixed kernel timed next to each measured call tracks that drift:
a call's time scaled by REFERENCE_S / (kernel time around the call) is the
time it would have taken with the host at its reference speed. The kernel
uses no ptbound code, so a change to the program cannot move it.
"""

import time

import numpy as np

# Median kernel time on the machine the bounds were set on (perfbench/README.md);
# it fixes the unit, so that corrected times read as seconds there.
REFERENCE_S = 0.024

_MATRIX = np.random.default_rng(0).standard_normal((150, 150))


def kernel_seconds() -> float:
    """Time of a fixed piece of interpreted work plus one small LAPACK eig."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    np.linalg.eig(_MATRIX)
    return time.perf_counter() - t0
