"""Microbenchmarks of the substrate hot paths (multi-round timings).

Unlike the figure benches (one end-to-end run each), these use
pytest-benchmark's statistical timing on the kernels every experiment sits
on: sparse matvec/rmatvec, the exact ridge rule kernel (numpy reference and
its compiled twin) and the chunked epoch kernel, the thread-block tree
reduction, and the CSR<->CSC transpose.
"""

import numpy as np
import pytest

from repro.data import make_webspam_like
from repro.gpu import block_tree_dots
from repro.objectives import RidgeProblem
from repro.solvers.kernels import gather_chunk, primal_epoch_chunked
from repro.solvers.syscd_kernels import c_compiler, get_kernels
from repro.sparse.ops import transpose_compressed


@pytest.fixture(scope="module")
def bench_problem():
    ds = make_webspam_like(2_000, 4_000, nnz_per_example=40, seed=5)
    return RidgeProblem(ds, lam=5e-3)


def test_kernel_csr_matvec(benchmark, bench_problem):
    csr = bench_problem.dataset.csr
    x = np.random.default_rng(0).standard_normal(csr.shape[1])
    out = benchmark(csr.matvec, x)
    assert out.shape == (csr.shape[0],)


def test_kernel_csc_rmatvec(benchmark, bench_problem):
    csc = bench_problem.dataset.csc
    x = np.random.default_rng(0).standard_normal(csc.shape[0])
    out = benchmark(csc.rmatvec, x)
    assert out.shape == (csc.shape[1],)


def test_kernel_transpose(benchmark, bench_problem):
    csr = bench_problem.dataset.csr
    indptr, indices, data = benchmark(
        transpose_compressed, csr.indptr, csr.indices, csr.data, csr.shape[1]
    )
    assert indptr.shape == (csr.shape[1] + 1,)


@pytest.mark.parametrize(
    "backend",
    [
        "numpy",
        pytest.param(
            "c",
            marks=pytest.mark.skipif(c_compiler() is None, reason="no C compiler"),
        ),
    ],
)
def test_kernel_sequential_epoch(benchmark, bench_problem, backend):
    p = bench_problem
    csc = p.dataset.csc
    y_dots = csc.rmatvec(p.y)
    nlam = p.n * p.lam
    inv_denom = 1.0 / (csc.col_norms_sq() + nlam)
    perm = np.random.default_rng(0).permutation(p.m)
    exact = get_kernels(backend)["exact"]

    def run():
        beta = np.zeros(p.m)
        w = np.zeros(p.n)
        exact(
            csc.indptr, csc.indices, csc.data, y_dots, inv_denom, nlam,
            beta, w, perm,
        )
        return beta

    beta = benchmark(run)
    assert np.any(beta != 0)


def test_kernel_chunked_epoch(benchmark, bench_problem):
    p = bench_problem
    csc = p.dataset.csc
    y_dots = csc.rmatvec(p.y)
    nlam = p.n * p.lam
    inv_denom = 1.0 / (csc.col_norms_sq() + nlam)
    perm = np.random.default_rng(0).permutation(p.m)

    def run():
        beta = np.zeros(p.m)
        w = np.zeros(p.n)
        primal_epoch_chunked(
            csc.indptr, csc.indices, csc.data, y_dots, inv_denom, nlam,
            beta, w, perm, chunk_size=16,
        )
        return beta

    beta = benchmark(run)
    assert np.any(beta != 0)


def test_kernel_block_tree_dots(benchmark, bench_problem):
    csc = bench_problem.dataset.csc
    coords = np.arange(256)
    flat_idx, flat_val, seg_ptr = gather_chunk(
        csc.indptr, csc.indices, csc.data, coords
    )
    gathered = np.random.default_rng(0).standard_normal(
        flat_idx.shape[0]
    ).astype(np.float32)
    vals32 = flat_val.astype(np.float32)
    dots = benchmark(block_tree_dots, vals32, gathered, seg_ptr, 256)
    assert dots.shape == (256,)


def test_kernel_gather_chunk(benchmark, bench_problem):
    csc = bench_problem.dataset.csc
    coords = np.random.default_rng(0).permutation(csc.n_major)[:512]
    flat_idx, flat_val, seg_ptr = benchmark(
        gather_chunk, csc.indptr, csc.indices, csc.data, coords
    )
    assert seg_ptr.shape == (513,)
