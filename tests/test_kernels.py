"""Tests for the epoch kernels: exactness, staleness and write semantics."""

import multiprocessing as mp
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.objectives import RidgeProblem, solve_exact
from repro.solvers.kernels import (
    apply_chunk_updates,
    dual_epoch_chunked,
    gather_chunk,
    primal_epoch_chunked,
)
from repro.solvers import syscd_kernels
from repro.solvers.scd import SequentialKernelFactory
from repro.solvers.syscd_kernels import bucket_pass_numpy, exact_epoch_numpy


def _primal_state(problem: RidgeProblem):
    csc = problem.dataset.csc
    y = problem.y.astype(np.float64)
    y_dots = csc.rmatvec(y)
    nlam = problem.n * problem.lam
    inv_denom = 1.0 / (csc.col_norms_sq() + nlam)
    beta = np.zeros(problem.m)
    w = np.zeros(problem.n)
    return csc, y, y_dots, inv_denom, nlam, beta, w


def _dual_state(problem: RidgeProblem):
    csr = problem.dataset.csr
    y = problem.y.astype(np.float64)
    nlam = problem.n * problem.lam
    inv_denom = 1.0 / (nlam + csr.row_norms_sq())
    alpha = np.zeros(problem.n)
    wbar = np.zeros(problem.m)
    return csr, y, inv_denom, nlam, alpha, wbar


def primal_rule_epoch(indptr, indices, data, y_dots, inv_denom, nlam, beta, w, perm):
    """The primal binding of the ridge rule kernel: ``target = A^T y``."""
    exact_epoch_numpy(indptr, indices, data, y_dots, inv_denom, nlam, beta, w, perm)


def dual_rule_epoch(indptr, indices, data, y, inv_denom, lam, nlam, alpha, wbar, perm):
    """The dual binding of the ridge rule kernel: ``target = lam * y``."""
    exact_epoch_numpy(
        indptr, indices, data, lam * y, inv_denom, nlam, alpha, wbar, perm
    )


class TestSequentialKernels:
    def test_primal_epoch_decreases_objective(self, ridge_small):
        csc, y, y_dots, inv_denom, nlam, beta, w = _primal_state(ridge_small)
        f_prev = ridge_small.primal_objective(beta, w)
        rng = np.random.default_rng(0)
        for _ in range(3):
            primal_rule_epoch(
                csc.indptr, csc.indices, csc.data, y_dots, inv_denom, nlam,
                beta, w, rng.permutation(ridge_small.m),
            )
            f = ridge_small.primal_objective(beta, w)
            assert f <= f_prev + 1e-12
            f_prev = f

    def test_primal_shared_vector_invariant(self, ridge_small):
        """After an exact epoch, w must equal A beta to rounding."""
        csc, y, y_dots, inv_denom, nlam, beta, w = _primal_state(ridge_small)
        rng = np.random.default_rng(1)
        primal_rule_epoch(
            csc.indptr, csc.indices, csc.data, y_dots, inv_denom, nlam,
            beta, w, rng.permutation(ridge_small.m),
        )
        assert np.allclose(w, csc.matvec(beta), atol=1e-10)

    def test_primal_converges_to_exact(self, ridge_small):
        csc, y, y_dots, inv_denom, nlam, beta, w = _primal_state(ridge_small)
        rng = np.random.default_rng(2)
        for _ in range(100):
            primal_rule_epoch(
                csc.indptr, csc.indices, csc.data, y_dots, inv_denom, nlam,
                beta, w, rng.permutation(ridge_small.m),
            )
        sol = solve_exact(ridge_small)
        assert np.allclose(beta, sol.beta, atol=1e-8)

    def test_dual_epoch_increases_objective(self, ridge_small):
        csr, y, inv_denom, nlam, alpha, wbar = _dual_state(ridge_small)
        d_prev = ridge_small.dual_objective(alpha, wbar)
        rng = np.random.default_rng(3)
        for _ in range(3):
            dual_rule_epoch(
                csr.indptr, csr.indices, csr.data, y, inv_denom,
                ridge_small.lam, nlam, alpha, wbar,
                rng.permutation(ridge_small.n),
            )
            d = ridge_small.dual_objective(alpha, wbar)
            assert d >= d_prev - 1e-12
            d_prev = d

    def test_dual_shared_vector_invariant(self, ridge_small):
        csr, y, inv_denom, nlam, alpha, wbar = _dual_state(ridge_small)
        rng = np.random.default_rng(4)
        dual_rule_epoch(
            csr.indptr, csr.indices, csr.data, y, inv_denom,
            ridge_small.lam, nlam, alpha, wbar, rng.permutation(ridge_small.n),
        )
        assert np.allclose(wbar, csr.rmatvec(alpha), atol=1e-10)

    def test_empty_column_shrinks_weight(self, small_dense):
        # craft a matrix with an all-zero column
        from repro.data import Dataset
        from repro.sparse import from_dense_csc

        dense = small_dense.csr.to_dense().copy()
        dense[:, 0] = 0.0
        ds = Dataset(matrix=from_dense_csc(dense), y=small_dense.y)
        problem = RidgeProblem(ds, lam=1e-2)
        csc, y, y_dots, inv_denom, nlam, beta, w = _primal_state(problem)
        beta[0] = 5.0
        primal_rule_epoch(
            csc.indptr, csc.indices, csc.data, y_dots, inv_denom, nlam,
            beta, w, np.array([0]),
        )
        assert abs(beta[0]) < 5.0  # shrunk towards zero


class TestChunkedKernels:
    def test_chunk_size_one_equals_sequential(self, ridge_sparse):
        p = ridge_sparse
        csc, y, y_dots, inv_denom, nlam, b1, w1 = _primal_state(p)
        b2, w2 = b1.copy(), w1.copy()
        perm = np.random.default_rng(5).permutation(p.m)
        primal_rule_epoch(
            csc.indptr, csc.indices, csc.data, y_dots, inv_denom, nlam, b1, w1, perm
        )
        lost = primal_epoch_chunked(
            csc.indptr, csc.indices, csc.data, y_dots, inv_denom, nlam,
            b2, w2, perm, chunk_size=1,
        )
        assert lost == 0
        assert np.allclose(b1, b2, atol=1e-12)
        assert np.allclose(w1, w2, atol=1e-12)

    def test_dual_chunk_size_one_equals_sequential(self, ridge_sparse):
        p = ridge_sparse
        csr, y, inv_denom, nlam, a1, wb1 = _dual_state(p)
        a2, wb2 = a1.copy(), wb1.copy()
        perm = np.random.default_rng(6).permutation(p.n)
        dual_rule_epoch(
            csr.indptr, csr.indices, csr.data, y, inv_denom, p.lam, nlam,
            a1, wb1, perm,
        )
        lost = dual_epoch_chunked(
            csr.indptr, csr.indices, csr.data, y, inv_denom, p.lam, nlam,
            a2, wb2, perm, chunk_size=1,
        )
        assert lost == 0
        assert np.allclose(a1, a2, atol=1e-12)
        assert np.allclose(wb1, wb2, atol=1e-12)

    def test_atomic_preserves_consistency(self, ridge_sparse):
        """Atomic chunked updates keep w == A beta exactly (all applied)."""
        p = ridge_sparse
        csc, y, y_dots, inv_denom, nlam, beta, w = _primal_state(p)
        rng = np.random.default_rng(7)
        for _ in range(3):
            primal_epoch_chunked(
                csc.indptr, csc.indices, csc.data, y_dots, inv_denom, nlam,
                beta, w, rng.permutation(p.m), chunk_size=16,
            )
        assert np.allclose(w, csc.matvec(beta), atol=1e-9)

    def test_wild_loses_updates_and_breaks_consistency(self, ridge_sparse):
        p = ridge_sparse
        csc, y, y_dots, inv_denom, nlam, beta, w = _primal_state(p)
        rng = np.random.default_rng(8)
        lost = 0
        for _ in range(3):
            lost += primal_epoch_chunked(
                csc.indptr, csc.indices, csc.data, y_dots, inv_denom, nlam,
                beta, w, rng.permutation(p.m), chunk_size=16,
                write_mode="wild", loss_prob=1.0,
            )
        assert lost > 0
        assert not np.allclose(w, csc.matvec(beta), atol=1e-9)

    def test_loss_prob_zero_is_atomic(self, ridge_sparse):
        p = ridge_sparse
        csc, y, y_dots, inv_denom, nlam, b1, w1 = _primal_state(p)
        b2, w2 = b1.copy(), w1.copy()
        perm = np.random.default_rng(9).permutation(p.m)
        primal_epoch_chunked(
            csc.indptr, csc.indices, csc.data, y_dots, inv_denom, nlam,
            b1, w1, perm, chunk_size=16, write_mode="atomic",
        )
        lost = primal_epoch_chunked(
            csc.indptr, csc.indices, csc.data, y_dots, inv_denom, nlam,
            b2, w2, perm, chunk_size=16, write_mode="wild", loss_prob=0.0,
        )
        assert lost == 0
        assert np.allclose(w1, w2, atol=1e-12)

    def test_invalid_chunk_size(self, ridge_sparse):
        p = ridge_sparse
        csc, y, y_dots, inv_denom, nlam, beta, w = _primal_state(p)
        with pytest.raises(ValueError, match="chunk_size"):
            primal_epoch_chunked(
                csc.indptr, csc.indices, csc.data, y_dots, inv_denom, nlam,
                beta, w, np.arange(p.m), chunk_size=0,
            )

    def test_invalid_write_mode(self, ridge_sparse):
        p = ridge_sparse
        csc, y, y_dots, inv_denom, nlam, beta, w = _primal_state(p)
        with pytest.raises(ValueError, match="write_mode"):
            primal_epoch_chunked(
                csc.indptr, csc.indices, csc.data, y_dots, inv_denom, nlam,
                beta, w, np.arange(p.m), chunk_size=4, write_mode="chaotic",
            )


class TestGatherChunk:
    def test_concatenation_correct(self, random_csc):
        coords = np.array([3, 0, 7])
        flat_idx, flat_val, seg_ptr = gather_chunk(
            random_csc.indptr, random_csc.indices, random_csc.data, coords
        )
        for k, j in enumerate(coords):
            idx, vals = random_csc.col(j)
            lo, hi = seg_ptr[k], seg_ptr[k + 1]
            assert np.array_equal(flat_idx[lo:hi], idx)
            assert np.allclose(flat_val[lo:hi], vals)

    def test_empty_coords(self, random_csc):
        flat_idx, flat_val, seg_ptr = gather_chunk(
            random_csc.indptr, random_csc.indices, random_csc.data,
            np.zeros(0, dtype=np.int64),
        )
        assert flat_idx.size == 0 and seg_ptr.tolist() == [0]


class TestApplyChunkUpdates:
    def test_atomic_sums_everything(self):
        vec = np.zeros(4)
        idx = np.array([0, 1, 0, 2])
        contrib = np.array([1.0, 2.0, 3.0, 4.0])
        lost = apply_chunk_updates(
            vec, idx, contrib, write_mode="atomic", loss_prob=1.0, rng=None
        )
        assert lost == 0
        assert np.allclose(vec, [4.0, 2.0, 4.0, 0.0])

    def test_wild_last_writer_wins(self):
        vec = np.zeros(3)
        idx = np.array([0, 0, 0, 1])
        contrib = np.array([1.0, 2.0, 4.0, 7.0])
        lost = apply_chunk_updates(
            vec, idx, contrib, write_mode="wild", loss_prob=1.0, rng=None
        )
        assert lost == 2  # the first two writes to entry 0 are lost
        assert np.allclose(vec, [4.0, 7.0, 0.0])

    def test_wild_partial_loss_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            apply_chunk_updates(
                np.zeros(2),
                np.array([0, 0]),
                np.array([1.0, 1.0]),
                write_mode="wild",
                loss_prob=0.5,
                rng=None,
            )

    def test_empty_chunk_noop(self):
        vec = np.ones(3)
        lost = apply_chunk_updates(
            vec, np.zeros(0, np.int64), np.zeros(0),
            write_mode="wild", loss_prob=1.0, rng=None,
        )
        assert lost == 0
        assert np.allclose(vec, 1.0)


# ---------------------------------------------------------------------------
# the compiled (C) twin of the ridge rule kernel and SySCD's bucket pass
# ---------------------------------------------------------------------------

needs_cc = pytest.mark.skipif(
    syscd_kernels.c_compiler() is None, reason="no C compiler on PATH"
)

#: signed zeros, magnitudes of 1e+-150 and ordinary values
_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1e150, -1e150, 1e-150, -1e-150]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def _compressed(draw, n_major, minor_len):
    """indptr/indices/data with unique, sorted minor indices per vector;
    empty and 1-nnz vectors arise freely."""
    vectors = [
        sorted(draw(st.sets(st.integers(0, minor_len - 1), max_size=minor_len)))
        for _ in range(n_major)
    ]
    indptr = np.zeros(n_major + 1, dtype=np.int64)
    np.cumsum([len(v) for v in vectors], out=indptr[1:])
    indices = np.array([i for v in vectors for i in v], dtype=np.int64)
    nnz = int(indptr[-1])
    data = np.array(draw(st.lists(_values, min_size=nnz, max_size=nnz)), dtype=np.float64)
    return indptr, indices, data


def _vector(draw, n):
    return np.array(draw(st.lists(_values, min_size=n, max_size=n)), dtype=np.float64)


@st.composite
def _rule_problems(draw):
    n_major = draw(st.integers(0, 8))
    shared_len = draw(st.integers(1, 8))
    indptr, indices, data = draw(_compressed(n_major, shared_len))
    nlam = draw(st.sampled_from([1e-3, 0.5, 3.0]))
    norms = np.array(
        [np.sum(data[indptr[j]:indptr[j + 1]] ** 2) for j in range(n_major)]
    )
    order = np.array(
        draw(st.lists(st.integers(0, n_major - 1), max_size=24)) if n_major else [],
        dtype=np.int64,
    )
    return dict(
        indptr=indptr, indices=indices, data=data,
        target=_vector(draw, n_major), inv_denom=1.0 / (norms + nlam),
        nlam=nlam, coef=_vector(draw, n_major), shared=_vector(draw, shared_len),
        order=order,
    )


@st.composite
def _bucket_problems(draw):
    n_total = draw(st.integers(1, 10))
    coords = np.array(draw(st.permutations(range(n_total))), dtype=np.int64)
    coords = coords[: draw(st.integers(0, n_total))]
    replica_len = draw(st.integers(1, 8))
    seg_ptr, e_idx, e_val = draw(_compressed(coords.shape[0], replica_len))
    return dict(
        e_idx=e_idx, e_val=e_val, seg_ptr=seg_ptr, coords=coords,
        target=_vector(draw, n_total),
        inv_denom=1.0 / (1.0 + np.abs(_vector(draw, n_total))),
        nlam=draw(st.sampled_from([1e-3, 0.5, 3.0])),
        coef=_vector(draw, n_total), replica=_vector(draw, replica_len),
    )


def _run_both(kernel_name, numpy_kernel, args, mutated):
    ref = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in args.items()}
    got = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in args.items()}
    with np.errstate(all="ignore"):
        numpy_kernel(**ref)
        syscd_kernels.get_c_kernels()[kernel_name](**got)
    for name in mutated:
        # bitwise: signed zeros and NaN payloads included
        assert ref[name].tobytes() == got[name].tobytes(), name


@needs_cc
class TestCompiledRuleKernel:
    @given(_rule_problems())
    @settings(max_examples=300, deadline=None)
    def test_exact_epoch_bitwise_equal_to_reference(self, problem):
        _run_both("exact", exact_epoch_numpy, problem, ("coef", "shared"))

    @given(_bucket_problems())
    @settings(max_examples=300, deadline=None)
    def test_bucket_pass_bitwise_equal_to_reference(self, problem):
        _run_both("bucket", bucket_pass_numpy, problem, ("coef", "replica"))

    @pytest.mark.parametrize("formulation", ["primal", "dual"])
    def test_factory_backends_bitwise_equal(self, ridge_sparse, formulation):
        p = ridge_sparse
        finals = []
        for backend in ("numpy", "c"):
            factory = SequentialKernelFactory(kernel_backend=backend)
            if formulation == "primal":
                bound = factory.bind_primal(p.dataset.csc, p.y, p.n, p.lam)
            else:
                bound = factory.bind_dual(p.dataset.csr, p.y, p.n, p.lam)
            coef, shared = np.zeros(bound.n_coords), np.zeros(bound.shared_len)
            rng = np.random.default_rng(21)
            for _ in range(5):
                bound.run_epoch(coef, shared, rng.permutation(bound.n_coords), rng)
            finals.append((coef.tobytes(), shared.tobytes()))
        assert finals[0] == finals[1]

    def test_unsupported_inputs_fall_back_to_numpy(self, ridge_sparse):
        # float32 values and strided outputs take the reference path
        csc = ridge_sparse.dataset.csc
        kernel = syscd_kernels.get_c_kernels()["exact"]
        for dtype, stride in ((np.float32, 1), (np.float64, 2)):
            args = dict(
                indptr=csc.indptr, indices=csc.indices,
                data=csc.data.astype(dtype),
                target=np.ones(csc.n_major, dtype), inv_denom=np.ones(csc.n_major, dtype),
                nlam=0.5, coef=np.zeros(csc.n_major * stride, dtype)[::stride],
                shared=np.zeros(csc.shape[0], dtype),
                order=np.arange(csc.n_major, dtype=np.int64),
            )
            ref = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in args.items()}
            kernel(**args)
            exact_epoch_numpy(**ref)
            assert args["coef"].tobytes() == ref["coef"].tobytes()

    def test_out_of_range_order_is_rejected(self, ridge_sparse):
        csc = ridge_sparse.dataset.csc
        with pytest.raises(IndexError, match="order"):
            syscd_kernels.get_c_kernels()["exact"](
                csc.indptr, csc.indices, csc.data, np.zeros(csc.n_major),
                np.ones(csc.n_major), 0.5, np.zeros(csc.n_major),
                np.zeros(csc.shape[0]), np.array([csc.n_major], dtype=np.int64),
            )


def _library_in_child():
    path = syscd_kernels.get_c_kernels()["path"]
    return str(path), path.stat().st_ino


class TestCompiledKernelFallback:
    def test_no_compiler_auto_is_numpy_and_c_raises(self, monkeypatch):
        monkeypatch.setattr(syscd_kernels, "numba_available", lambda: False)
        monkeypatch.setattr(syscd_kernels, "c_compiler", lambda: None)
        assert syscd_kernels.resolve_backend("auto") == "numpy"
        assert SequentialKernelFactory().backend == "numpy"
        with pytest.raises(ValueError, match="no C compiler"):
            syscd_kernels.resolve_backend("c")
        with pytest.raises(ValueError, match="no C compiler"):
            SequentialKernelFactory(kernel_backend="c")

    @needs_cc
    def test_unwritable_cache_dir_falls_back(self, monkeypatch, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        monkeypatch.setattr(
            syscd_kernels, "_cache_dirs",
            lambda: [blocker / "kernels", tmp_path / "fallback"],
        )
        monkeypatch.setattr(syscd_kernels, "_C_KERNELS", None)
        kernels = syscd_kernels.get_c_kernels()
        assert kernels["path"].parent == tmp_path / "fallback"
        coef, shared = np.zeros(1), np.zeros(1)
        kernels["exact"](
            np.array([0, 1]), np.array([0]), np.array([2.0]), np.array([1.0]),
            np.array([0.2]), 1.0, coef, shared, np.array([0]),
        )
        assert coef[0] == 0.2 and shared[0] == 0.4

    @needs_cc
    @pytest.mark.parametrize("hazard", ["world-writable", "foreign", "symlink"])
    def test_cache_dir_others_can_write_is_never_used(
        self, monkeypatch, tmp_path, hazard
    ):
        # a pre-created shared cache dir may hold a planted library under
        # the (public) content key: it must be neither loaded nor built into
        planted = tmp_path / "planted"
        planted.mkdir(mode=0o700)
        name = syscd_kernels._library_name(syscd_kernels.c_compiler())
        (planted / name).write_bytes(b"not a shared library")
        cache = planted
        if hazard == "world-writable":
            planted.chmod(0o777)
        elif hazard == "foreign":
            real_uid = os.getuid()
            monkeypatch.setattr(os, "getuid", lambda: real_uid + 1)
        else:
            cache = tmp_path / "link"
            cache.symlink_to(planted, target_is_directory=True)
        monkeypatch.setattr(syscd_kernels, "_cache_dirs", lambda: [cache])
        monkeypatch.setattr(syscd_kernels, "_C_KERNELS", None)
        kernels = syscd_kernels.get_c_kernels()
        assert kernels["path"].parent not in (planted, cache)
        assert sorted(p.name for p in planted.iterdir()) == [name]
        coef, shared = np.zeros(1), np.zeros(1)
        kernels["exact"](
            np.array([0, 1]), np.array([0]), np.array([2.0]), np.array([1.0]),
            np.array([0.2]), 1.0, coef, shared, np.array([0]),
        )
        assert coef[0] == 0.2 and shared[0] == 0.4

    @needs_cc
    def test_failed_build_raises(self, monkeypatch, tmp_path):
        monkeypatch.setattr(syscd_kernels, "C_SOURCE", "not C at all")
        monkeypatch.setattr(syscd_kernels, "_cache_dirs", lambda: [tmp_path])
        monkeypatch.setattr(syscd_kernels, "_C_KERNELS", None)
        with pytest.raises(RuntimeError, match="building the C kernel"):
            syscd_kernels.get_c_kernels()
        assert not list(tmp_path.glob("*.so"))

    @needs_cc
    def test_spawn_child_loads_the_cached_library(self):
        path = syscd_kernels.get_c_kernels()["path"]
        inode = path.stat().st_ino
        with mp.get_context("spawn").Pool(1) as pool:
            child_path, child_inode = pool.apply(_library_in_child)
        # same file, not rebuilt (a rebuild renames a new inode into place)
        assert child_path == str(path) and child_inode == inode
