"""Speed of the machine during a run, from a fixed reference kernel.

The machine this benchmark was written on shares its cores with other
tenants, and its speed changes by up to 1.9x in steps that last minutes:
CPU time moves with wall time, so the lost time is not stolen but slower
execution.  A run therefore times a fixed kernel, which calls no dynid code,
several times in the gaps between the intervals it times, and scales a
guarded timing by ``REF_S / median(kernel times)`` over the samples taken
nearest to it: the time it would have taken at the speed the machine had
when ``REF_S`` was measured.

The kernel mixes the kinds of work dynid does: an interpreted loop, small
numpy calls driven from Python, a BLAS product and an array expression.
"""

import statistics
import time

import numpy as np

# median kernel time on the 2-vCPU VM described in README.md, BLAS on one
# thread; a constant, so that runs on different days compare
REF_S = 0.0275

_rng = np.random.default_rng(0)
# small arrays, so the kernel adds little to the run's peak memory
_A = _rng.standard_normal((500, 200))
_B = _rng.standard_normal((200, 60))
_M = _rng.standard_normal(150_000)
_S = 0.1 * _rng.standard_normal((6, 6))
_v = _rng.standard_normal(6)


def kernel() -> float:
    s = 0
    for i in range(120_000):
        s += i * i % 7
    x = _v
    for _ in range(1500):
        x = _S @ x * 0.5 + np.sin(x)
    y = sum(float((_A @ _B).sum()) for _ in range(15))
    z = sum(float(np.sum(_M * 1.0001 + _M)) for _ in range(20))
    return s + float(x.sum()) + y + z


class Pace:
    """Kernel times collected over one run."""

    SAMPLES = 8    # kernel calls per gap between operations

    def __init__(self):
        self.times = []
        self.spent = 0.0    # wall time of all sampling, to leave out of ops

    def sample(self, n=SAMPLES) -> None:
        start = time.perf_counter()
        for _ in range(n):
            t0 = time.perf_counter()
            kernel()
            self.times.append(time.perf_counter() - t0)
        self.spent += time.perf_counter() - start

    def factor(self, start=0) -> float:
        """Multiplier from wall times to reference-speed times, from the
        samples taken since the first ``start``."""
        return REF_S / statistics.median(self.times[start:])
