"""Rescale wall time to the speed of a calm reference machine.

The benchmark runs on shared machines where, for tens of seconds at a
time, other tenants slow the same Python and numpy code by up to a half
(measured on the reference machine: one library-calls round took 75 ms in
calm periods and 125 ms in busy ones).  A run shorter than such a period
cannot average it away, so the benchmark times a fixed calibration kernel
every CALIBRATE_EVERY seconds and multiplies each timed interval by
REFERENCE_KERNEL_S over the median kernel time around it (a window of
kernel timings, so that one preempted timing does not distort it).

The kernel calls nothing in ``qelicit``; it repeats the library's
instruction mix (Python-level validation around small-matrix numpy calls),
so a change to the library does not move it.  On the reference machine the
work-to-kernel ratio held within 3% while raw wall time moved by 25%.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

CALIBRATE_EVERY = 0.2     # seconds of timed work between kernel timings
REFERENCE_KERNEL_S = 3.6e-3  # kernel time on the reference machine when calm
WINDOW = 5                # kernel timings on each side that rescale an interval
REPEATS = 16


def _states():
    g = np.random.default_rng(0)
    out = []
    for n in (2, 3, 4, 6):
        G = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
        M = G @ G.conj().T
        out.append(M / np.trace(M).real)
    return out


STATES = _states()


def _kernel(A) -> float:
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim != 2 or not np.isfinite(A).all():
        raise ValueError("bad kernel input")
    dev = float(np.abs(A - A.conj().T).max())
    w, V = np.linalg.eigh(A)
    V = V[:, np.argsort(-w, kind="stable")]
    p = [float(np.sum(np.conjugate(V[:, i:i + 1] @ V[:, i:i + 1].conj().T) * A).real)
         for i in range(A.shape[0])]
    q = np.clip(np.asarray(p), 0.0, None)
    q = q / q.sum()
    return float(q @ np.log(np.where(q > 1e-12, q, 1.0))) + dev


def kernel_seconds() -> float:
    t0 = perf_counter()
    for _ in range(REPEATS):
        for A in STATES:
            _kernel(A)
    return perf_counter() - t0


class Clock:
    """Records timed intervals between kernel timings and rescales them."""

    def __init__(self, every: float = CALIBRATE_EVERY):
        self.every = every
        self.marks: list[tuple[float, float]] = []  # (when, kernel seconds)
        self.intervals: list[tuple[int, float]] = []  # (mark before, wall seconds)

    def calibrate(self) -> None:
        self.marks.append((perf_counter(), kernel_seconds()))

    def before(self) -> None:
        """Call before a timed interval; times the kernel when it is due."""
        if not self.marks or perf_counter() - self.marks[-1][0] >= self.every:
            self.calibrate()

    def record(self, wall: float) -> None:
        self.intervals.append((len(self.marks) - 1, wall))

    def scaled(self) -> list:
        """The recorded intervals in reference-machine seconds."""
        self.calibrate()  # closes the last interval
        kernel = [k for _, k in self.marks]
        return [wall * REFERENCE_KERNEL_S / float(np.median(kernel[max(0, i - WINDOW + 1):i + WINDOW + 1]))
                for i, wall in self.intervals]

    def slowdown(self) -> float:
        """Median kernel time over the reference, > 1 when the machine is busy."""
        return float(np.median([k for _, k in self.marks])) / REFERENCE_KERNEL_S
