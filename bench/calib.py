"""Timings in calibrated seconds, steady across the speed swings of a shared host.

Other tenants of a shared machine change how fast it runs, by up to
half, for stretches of seconds to minutes, so one run can fall wholly in
a slow stretch. The benchmark therefore times a fixed calibration loop
right before each timed operation and scales the operation's time by
``REFERENCE_S / calibration time``: a calibrated second is a second on
a machine where the loop takes ``REFERENCE_S``. The loop calls nothing
of ``entdistill``, so no change to the program moves it.
"""

from time import perf_counter

import numpy as np

#: Calibrated duration of one calibration loop.
REFERENCE_S = 1e-3


_A = np.arange(16, dtype=complex).reshape(4, 4) / 16


def _loop() -> float:
    # Half interpreter work as in the CLI's record loops (dict updates,
    # float arithmetic and formatting), half small complex kron, matmul
    # and partial-trace steps as in the oracle: a host slowdown hits the
    # two kinds of work by different amounts.
    table: dict[int, float] = {}
    parts = []
    for i in range(2000):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        if i % 8 == 0:
            parts.append(f"{i * 1.000001:.12g}")
    acc = 0.0
    for _ in range(20):
        k = np.kron(_A, _A)
        acc += abs((k @ k.conj().T)[0, 0])
        acc += abs(k.reshape(2, 8, 2, 8).transpose(1, 0, 3, 2).trace(axis1=0, axis2=1)[0, 0])
    return acc + len(",".join(parts))


def calibration_s() -> float:
    """Seconds one calibration loop takes now."""
    t0 = perf_counter()
    _loop()
    return perf_counter() - t0


def scaled(seconds: float, calibration: float) -> float:
    """``seconds`` measured right after a calibration loop that took ``calibration``."""
    return seconds * REFERENCE_S / calibration
