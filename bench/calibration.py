"""Machine-speed calibration for the end-to-end timings.

On the shared 2-core machine the benchmark was written on, the speed of the
same code changes by up to a third within minutes, in CPU time as much as
in wall time: identical plaplace level 1-4 solves took 27 to 47 ms per
iteration in runs minutes apart.  A fixed kernel timed between the solves
slows down with them, so the end-to-end times are scaled to the speed at
which the kernel takes REFERENCE_S.  Raw wall times are printed and
recorded next to the scaled ones.

The kernel uses no hpmin code, so a change to the library cannot move it:
sparse products and vector arithmetic like the solver's, and an
interpreted loop like the Python parts of the library.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse as sp

REFERENCE_S = 0.1
_N = 20_000
_PRODUCTS = 200
_LOOP = 100_000


class Calibration:
    """The kernel's fixed inputs; ``seconds()`` times one pass over them."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._A = (sp.random(_N, _N, density=10 / _N, random_state=rng,
                             format="csr") + sp.eye(_N, format="csr"))
        self._x = rng.standard_normal(_N)

    def seconds(self) -> float:
        t0 = perf_counter()
        y = self._x
        for _ in range(_PRODUCTS):
            y = self._A @ y
            y = y / np.linalg.norm(y)
            np.einsum("i,i->", y, self._x) + np.sum(np.sqrt(np.abs(y)))
        total = 0
        for i in range(_LOOP):
            total += i * i % 7
        return perf_counter() - t0
