"""A fixed reference kernel that measures how fast the machine runs now.

On a shared host the same op can take 20% longer a few minutes later,
because other tenants load the caches and the cores.  The benchmark times
this kernel between its ops and scales each op's time by a power of how
much slower or faster the kernel ran than at the commit that defined the
benchmark (run.py).

The kernel mixes what the workloads spend their time on: explicit steps of
a 7-point Laplacian on an n^3 numpy array, a reduction per step, and a
pure-Python loop.  It works in buffers allocated once, so the program's
allocations (which set the state of the C allocator) do not change its
time.  It uses numpy only, none of rdblowup, so no change to the program
moves it.
"""

from time import perf_counter

import numpy as np

PY_LOOP = 4000


def kernel(x, lap, tmp, steps):
    """`steps` explicit heat steps on x in place; returns a checksum."""
    total = 0.0
    for _ in range(steps):
        np.multiply(x, -6.0, out=lap)
        lap[1:] += x[:-1]
        lap[:-1] += x[1:]
        lap[:, 1:] += x[:, :-1]
        lap[:, :-1] += x[:, 1:]
        lap[:, :, 1:] += x[:, :, :-1]
        lap[:, :, :-1] += x[:, :, 1:]
        np.multiply(lap, 0.01, out=tmp)
        x += tmp
        total += float(np.dot(x.ravel(), x.ravel()))
    acc = 0
    for i in range(PY_LOOP):
        acc += i * i % 7
    return total + acc


class Calibrator:
    """Times `steps` kernel steps on an n^3 array; `seconds()` runs them
    `repeats` times and returns the mean time of one run."""

    def __init__(self, n, steps, repeats):
        self.start = np.random.default_rng(0).random((n, n, n))
        self.x, self.lap, self.tmp = (np.empty_like(self.start) for _ in range(3))
        self.steps = steps
        self.repeats = repeats

    def seconds(self):
        total = 0.0
        for _ in range(self.repeats):
            self.x[...] = self.start
            t0 = perf_counter()
            kernel(self.x, self.lap, self.tmp, self.steps)
            total += perf_counter() - t0
        return total / self.repeats
