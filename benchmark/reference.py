"""Reference kernel: a fixed amount of the work that dominates every
workload, timed in the worker's own process to read the machine's current
speed.

The machine the benchmark was set up on (2 vCPUs shared with other
tenants) runs the same op 4.4 s to 7.9 s depending on the minute, and CPU
time moves with wall time, so no statistic over one run's ops removes the
drift.  ``worker.py`` multiplies each op's wall time by
``NOMINAL_S / <this kernel's time just before the op>``, so times read in
seconds at the speed the kernel shows in ``NOMINAL_S``.

The kernel is benchmark code, not cdrecon: Jacobi-preconditioned conjugate
gradients, restarted every ``RESTART`` iterations, on a fixed 64x64
five-point Laplacian (plus a small shift), with numpy and scipy.sparse as
``cdrecon.elliptic.pcg_solve`` uses them.  A change to cdrecon cannot
change its time.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

NOMINAL_S = 0.2   # the kernel's typical time where the benchmark was set up
ITERATIONS = 4000
RESTART = 200


class Reference:
    def __init__(self, n: int = 64):
        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.eye(n)
        self.matrix = (sp.kron(eye, t) + sp.kron(t, eye) + 1e-2 * sp.eye(n * n)).tocsr()
        self.rhs = np.sin(np.arange(n * n, dtype=float))
        self.inv_diag = 1.0 / self.matrix.diagonal()

    def seconds(self) -> float:
        """Wall seconds of one pass of the kernel."""
        a, b, inv = self.matrix, self.rhs, self.inv_diag
        t0 = time.perf_counter()
        for _ in range(ITERATIONS // RESTART):
            x = np.zeros_like(b)
            r = b.copy()
            z = inv * r
            p = z.copy()
            rz = float(r @ z)
            for _ in range(RESTART):
                ap = a @ p
                alpha = rz / float(p @ ap)
                x += alpha * p
                r -= alpha * ap
                z = inv * r
                rz_new = float(r @ z)
                p = z + (rz_new / rz) * p
                rz = rz_new
                float(np.linalg.norm(r))
        return time.perf_counter() - t0
