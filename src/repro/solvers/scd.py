"""Sequential stochastic coordinate descent (Algorithm 1).

The baseline all speed-ups in the paper are measured against: a
single-threaded solver that visits a fresh random permutation of the
coordinates each epoch and applies the closed-form coordinate update with a
fully consistent shared vector.
"""

from __future__ import annotations

import numpy as np

from ..cpu import XEON_8C, CpuSpec, SequentialCpuTiming
from ..perf.timing import EpochWorkload
from ..sparse import CscMatrix, CsrMatrix
from .base import BoundKernel, ScdSolver
from .syscd_kernels import get_kernels, resolve_backend

__all__ = ["SequentialKernelFactory", "SequentialSCD"]


class SequentialKernelFactory:
    """Binds Algorithm 1's exact epoch kernel with single-thread timing.

    Both formulations bind the one ridge rule kernel
    (:func:`~repro.solvers.syscd_kernels.exact_epoch_numpy` or its
    compiled twin): the primal with ``target = A^T y`` over the columns,
    the dual with ``target = lam * y`` over the rows.

    ``timing_workload`` optionally overrides the workload used for *pricing*
    an epoch: the experiment drivers run scaled-down data but price epochs at
    the paper-scale dataset dimensions so the reproduced time axes keep the
    original compute/overhead proportions (see DESIGN.md).

    ``kernel_backend`` selects the kernel implementation (``"numpy"``,
    ``"numba"``, ``"c"`` or ``"auto"``, see
    :func:`~repro.solvers.syscd_kernels.resolve_backend`); the backends
    are bit-identical on float64.  Every other dtype binds the numpy
    kernel whatever the backend: the compiled loops accumulate in float64,
    so a float32 solve would otherwise change with the host.
    """

    def __init__(
        self,
        spec: CpuSpec = XEON_8C,
        *,
        dtype=np.float64,
        timing_workload: EpochWorkload | None = None,
        kernel_backend: str = "auto",
    ) -> None:
        self.spec = spec
        self.dtype = np.dtype(dtype)
        self.timing_workload = timing_workload
        self.backend = resolve_backend(kernel_backend)
        self.name = "SCD(1 thread)"

    def _bind(self, matrix, target, inv_denom, nlam, shared_len) -> BoundKernel:
        backend = self.backend if self.dtype == np.float64 else "numpy"
        exact = get_kernels(backend)["exact"]
        indptr, indices, data = matrix.indptr, matrix.indices, matrix.data

        def run_epoch(coef, shared, perm, rng):
            exact(indptr, indices, data, target, inv_denom, nlam, coef, shared, perm)
            return 0

        return BoundKernel(
            run_epoch=run_epoch,
            workload=self.timing_workload
            or EpochWorkload(
                n_coords=matrix.n_major, nnz=matrix.nnz, shared_len=shared_len
            ),
            timing=SequentialCpuTiming(self.spec),
            n_coords=matrix.n_major,
            shared_len=shared_len,
            dtype=self.dtype,
        )

    def bind_primal(
        self, csc: CscMatrix, y: np.ndarray, n_global: int, lam: float
    ) -> BoundKernel:
        csc = csc if csc.dtype == self.dtype else csc.astype(self.dtype)
        y = y.astype(self.dtype, copy=False)
        target = csc.rmatvec(y).astype(self.dtype, copy=False)
        nlam = self.dtype.type(n_global * lam)
        inv_denom = (1.0 / (csc.col_norms_sq() + n_global * lam)).astype(self.dtype)
        return self._bind(csc, target, inv_denom, nlam, csc.shape[0])

    def bind_dual(
        self, csr: CsrMatrix, y_local: np.ndarray, n_global: int, lam: float
    ) -> BoundKernel:
        csr = csr if csr.dtype == self.dtype else csr.astype(self.dtype)
        y_local = y_local.astype(self.dtype, copy=False)
        target = self.dtype.type(lam) * y_local
        nlam = self.dtype.type(n_global * lam)
        inv_denom = (1.0 / (n_global * lam + csr.row_norms_sq())).astype(self.dtype)
        return self._bind(csr, target, inv_denom, nlam, csr.shape[1])


class SequentialSCD(ScdSolver):
    """User-facing sequential SCD solver (the paper's "SCD (1 thread)")."""

    def __init__(
        self,
        formulation: str = "primal",
        *,
        spec: CpuSpec = XEON_8C,
        dtype=np.float64,
        kernel_backend: str = "auto",
        seed: int = 0,
    ) -> None:
        super().__init__(
            SequentialKernelFactory(
                spec, dtype=dtype, kernel_backend=kernel_backend
            ),
            formulation,
            seed,
        )
