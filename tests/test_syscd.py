"""SySCD solver contract: determinism, merge semantics, backend bit-identity.

The discipline mirrors the PR 4/5 golden-fingerprint approach: the
single-thread numpy path is the bitwise reference (pinned by sha256 of the
weight bytes), the threaded path must agree with it on per-epoch objectives
to tolerance at every thread count, and the optional numba backend must be
bit-identical to numpy wherever it is installed.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import SolverConfig, train
from repro.experiments.config import SCALES, webspam_problem
from repro.obs import Tracer
from repro.solvers.scd import SequentialSCD
from repro.solvers.syscd import SySCD, SyscdCpuTiming, SyscdKernelFactory
from repro.solvers.syscd_kernels import (
    KERNEL_BACKENDS,
    auto_bucket_size,
    bucket_bounds,
    bucket_pass_numpy,
    c_compiler,
    get_numba_kernels,
    numba_available,
    resolve_backend,
)

#: sha256 of the float64 weight bytes after the pinned reference run below
#: (tiny webspam, 5 epochs, seed 0, single thread, numpy backend)
GOLDEN_WEIGHTS_SHA = (
    "3993e50025e7d4a146817c6316965ff604f4dd668427d7d9e443406872d29b8e"
)
GOLDEN_SHARED_SHA = (
    "9aae4db169f4a6552791e986c778173987b34bfd62ac78c0d731ad3977d70004"
)


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def tiny_problem():
    problem, _ = webspam_problem(SCALES["tiny"])
    return problem


# ---------------------------------------------------------------------------
# bucket partition
# ---------------------------------------------------------------------------


class TestBucketPartition:
    @given(
        n_coords=st.integers(min_value=0, max_value=5000),
        bucket_size=st.integers(min_value=1, max_value=600),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_coordinate_in_exactly_one_bucket(self, n_coords, bucket_size):
        edges = bucket_bounds(n_coords, bucket_size)
        # edges tile [0, n_coords] without gaps or overlaps, so the buckets
        # perm[edges[b]:edges[b+1]] partition any epoch permutation exactly
        assert edges[0] == 0
        assert edges[-1] == n_coords
        widths = np.diff(edges)
        assert (widths > 0).all()
        assert (widths <= bucket_size).all()
        assert widths.sum() == n_coords
        perm = np.random.default_rng(0).permutation(n_coords)
        covered = np.concatenate(
            [perm[edges[b]:edges[b + 1]] for b in range(edges.shape[0] - 1)]
        ) if edges.shape[0] > 1 else np.empty(0, dtype=np.int64)
        assert np.array_equal(np.sort(covered), np.arange(n_coords))

    def test_bucket_bounds_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            bucket_bounds(10, 0)
        with pytest.raises(ValueError):
            bucket_bounds(-1, 4)

    def test_auto_bucket_size_bounds(self):
        assert auto_bucket_size(100, 4) == 8  # floor
        assert auto_bucket_size(10**6, 1) == 256  # cap
        assert auto_bucket_size(2048, 4) == 32
        with pytest.raises(ValueError):
            auto_bucket_size(100, 0)


# ---------------------------------------------------------------------------
# backend resolution
# ---------------------------------------------------------------------------


class TestBackendResolution:
    def test_numpy_always_resolves(self):
        assert resolve_backend("numpy") == "numpy"

    def test_auto_degrades_gracefully(self):
        # auto prefers the C kernel when a compiler is on PATH, then numba;
        # without either it must silently fall back to the bit-identical
        # numpy kernels
        if c_compiler() is not None:
            expected = "c"
        else:
            expected = "numba" if numba_available() else "numpy"
        assert resolve_backend("auto") == expected

    def test_explicit_numba_errors_when_missing(self):
        if numba_available():
            assert resolve_backend("numba") == "numba"
        else:
            with pytest.raises(ValueError, match="numba is not importable"):
                resolve_backend("numba")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="kernel_backend"):
            resolve_backend("cython")
        assert set(KERNEL_BACKENDS) == {"numpy", "numba", "c", "auto"}

    def test_factory_name_reports_resolved_backend(self):
        factory = SyscdKernelFactory(n_threads=2, kernel_backend="numpy")
        assert factory.name == "SySCD(2 threads, numpy)"


# ---------------------------------------------------------------------------
# single-thread reference: determinism + golden fingerprint
# ---------------------------------------------------------------------------


class TestReferencePath:
    def test_golden_fingerprint(self, tiny_problem):
        res = train(
            tiny_problem, "syscd", n_epochs=5, n_threads=1,
            kernel_backend="numpy",
        )
        assert _sha(res.weights) == GOLDEN_WEIGHTS_SHA
        assert _sha(res.shared) == GOLDEN_SHARED_SHA

    def test_single_thread_matches_sequential_scd(self, tiny_problem):
        # same permutation stream, same update rule; only the inner-product
        # accumulation order differs (cumsum prefix vs BLAS dot), so the
        # trajectories agree to float64 roundoff but not necessarily bitwise
        ref = SequentialSCD(seed=3).solve(tiny_problem, 4)
        res = SySCD(
            n_threads=1, kernel_backend="numpy", seed=3
        ).solve(tiny_problem, 4)
        np.testing.assert_allclose(
            res.weights, ref.weights, rtol=1e-10, atol=1e-13
        )

    def test_bucket_size_never_changes_single_thread_results(self, tiny_problem):
        # the exact path visits perm in order regardless of bucket edges
        base = train(
            tiny_problem, "syscd", n_epochs=3, n_threads=1,
            kernel_backend="numpy",
        )
        for bucket_size in (1, 7, 4096):
            res = train(
                tiny_problem, "syscd", n_epochs=3, n_threads=1,
                bucket_size=bucket_size, kernel_backend="numpy",
            )
            assert np.array_equal(res.weights, base.weights)

    def test_dual_single_thread_matches_sequential(self, tiny_problem):
        ref = SequentialSCD("dual", seed=1).solve(tiny_problem, 3)
        res = SySCD(
            "dual", n_threads=1, kernel_backend="numpy", seed=1
        ).solve(tiny_problem, 3)
        np.testing.assert_allclose(
            res.weights, ref.weights, rtol=1e-10, atol=1e-13
        )


# ---------------------------------------------------------------------------
# threaded path: determinism + objective agreement + merge semantics
# ---------------------------------------------------------------------------


class TestThreadedPath:
    def test_threaded_runs_deterministic(self, tiny_problem):
        a = train(tiny_problem, "syscd", n_epochs=3, n_threads=4)
        b = train(tiny_problem, "syscd", n_epochs=3, n_threads=4)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.shared, b.shared)

    @pytest.mark.parametrize("n_threads", [1, 2, 4])
    @pytest.mark.parametrize("formulation", ["primal", "dual"])
    def test_per_epoch_objective_agreement(
        self, tiny_problem, n_threads, formulation
    ):
        # the acceptance contract: threaded trajectories pin per-epoch
        # objective agreement with the single-thread reference to tolerance
        ref = train(
            tiny_problem, "syscd", formulation=formulation, n_epochs=4,
            n_threads=1, kernel_backend="numpy",
        )
        res = train(
            tiny_problem, "syscd", formulation=formulation, n_epochs=4,
            n_threads=n_threads,
        )
        ref_objs = ref.history.objectives
        objs = res.history.objectives
        assert objs.shape == ref_objs.shape
        np.testing.assert_allclose(objs, ref_objs, rtol=2e-2)
        # and the endpoint is tight, not merely within the band
        assert abs(objs[-1] - ref_objs[-1]) / abs(ref_objs[-1]) < 5e-3

    def test_sum_merge_preserves_shared_invariant(self, tiny_problem):
        # sum-correction merge keeps w == A beta exactly as in the
        # sequential solver (up to float64 accumulation error): no update
        # is ever lost, unlike the wild-write baselines
        res = train(tiny_problem, "syscd", n_epochs=3, n_threads=4)
        recomputed = tiny_problem.dataset.csc.matvec(
            res.weights.astype(np.float64)
        )
        np.testing.assert_allclose(res.shared, recomputed, atol=1e-9)
        assert res.lost_updates == 0

    def test_mean_merge_damps_but_stays_stable(self, tiny_problem):
        # replica averaging is the conservative merge: slower progress per
        # epoch, but the objective must still decrease monotonically from
        # the cold start
        res = train(
            tiny_problem, "syscd", n_epochs=6, n_threads=4, merge="mean"
        )
        objs = res.history.objectives
        assert objs[-1] < objs[0]
        assert np.isfinite(objs).all()

    def test_merge_divergence_observed(self, tiny_problem):
        tracer = Tracer()
        train(tiny_problem, "syscd", n_epochs=2, n_threads=2, tracer=tracer)
        hist = tracer.metrics.histogram("syscd.merge_divergence")
        assert hist is not None and hist.count > 0

    def test_threaded_dual_formulation_converges(self, tiny_problem):
        res = train(
            tiny_problem, "syscd", formulation="dual", n_epochs=8, n_threads=4
        )
        assert res.history.final_gap() < 1e-4


# ---------------------------------------------------------------------------
# numba backend bit-identity (runs only where numba is installed)
# ---------------------------------------------------------------------------


needs_numba = pytest.mark.skipif(
    not numba_available(), reason="numba not installed"
)


@needs_numba
class TestNumbaBitIdentity:
    def test_single_thread_bitwise_equal(self, tiny_problem):
        ref = train(
            tiny_problem, "syscd", n_epochs=3, n_threads=1,
            kernel_backend="numpy",
        )
        res = train(
            tiny_problem, "syscd", n_epochs=3, n_threads=1,
            kernel_backend="numba",
        )
        assert np.array_equal(res.weights, ref.weights)
        assert np.array_equal(res.shared, ref.shared)

    @pytest.mark.parametrize("formulation", ["primal", "dual"])
    def test_threaded_bitwise_equal(self, tiny_problem, formulation):
        ref = train(
            tiny_problem, "syscd", formulation=formulation, n_epochs=3,
            n_threads=4, kernel_backend="numpy",
        )
        res = train(
            tiny_problem, "syscd", formulation=formulation, n_epochs=3,
            n_threads=4, kernel_backend="numba",
        )
        assert np.array_equal(res.weights, ref.weights)
        assert np.array_equal(res.shared, ref.shared)

    def test_bucket_kernel_bitwise_on_adversarial_values(self):
        # direct kernel-level check with denormals, huge magnitude spread,
        # and signed zeros in play
        rng = np.random.default_rng(11)
        n_coords, shared_len = 32, 64
        seg_sizes = rng.integers(0, 9, size=n_coords)
        seg_ptr = np.zeros(n_coords + 1, dtype=np.int64)
        np.cumsum(seg_sizes, out=seg_ptr[1:])
        total = int(seg_ptr[-1])
        e_idx = rng.integers(0, shared_len, size=total).astype(np.int64)
        e_val = rng.standard_normal(total) * 10.0 ** rng.integers(
            -12, 12, size=total
        )
        coords = rng.permutation(n_coords).astype(np.int64)
        target = rng.standard_normal(n_coords)
        inv_denom = 1.0 / (1.0 + rng.random(n_coords))
        coef_np = rng.standard_normal(n_coords)
        coef_nb = coef_np.copy()
        replica_np = rng.standard_normal(shared_len)
        replica_nb = replica_np.copy()
        bucket_pass_numpy(
            e_idx, e_val, seg_ptr, coords, target, inv_denom, 0.37,
            coef_np, replica_np,
        )
        get_numba_kernels()["bucket"](
            e_idx, e_val, seg_ptr, coords, target, inv_denom, 0.37,
            coef_nb, replica_nb,
        )
        assert np.array_equal(coef_np, coef_nb)
        assert np.array_equal(replica_np, replica_nb)


# ---------------------------------------------------------------------------
# C backend bit-identity (runs where a C compiler is on PATH)
# ---------------------------------------------------------------------------


@pytest.mark.skipif(c_compiler() is None, reason="no C compiler on PATH")
class TestCBitIdentity:
    @pytest.mark.parametrize("n_threads", [1, 4])
    @pytest.mark.parametrize("formulation", ["primal", "dual"])
    def test_bitwise_equal_to_numpy(self, tiny_problem, formulation, n_threads):
        runs = [
            train(
                tiny_problem, "syscd", formulation=formulation, n_epochs=3,
                n_threads=n_threads, kernel_backend=backend,
            )
            for backend in ("numpy", "c")
        ]
        assert np.array_equal(runs[1].weights, runs[0].weights)
        assert np.array_equal(runs[1].shared, runs[0].shared)
        assert ", c)" in runs[1].solver_name


@pytest.mark.parametrize("formulation", ["primal", "dual"])
def test_float32_sequential_is_the_numpy_kernel_on_every_backend(
    tiny_problem, formulation
):
    # the compiled loops accumulate in float64, so a float32 bind must run
    # the numpy kernel whatever backend is asked for (here: every backend
    # this host offers)
    backends = ["auto"] + [
        b for b, ok in (("c", c_compiler() is not None),
                        ("numba", numba_available())) if ok
    ]
    ref = SequentialSCD(
        formulation, dtype=np.float32, kernel_backend="numpy", seed=2
    ).solve(tiny_problem, 3)
    assert ref.weights.dtype == np.float32
    for backend in backends:
        res = SequentialSCD(
            formulation, dtype=np.float32, kernel_backend=backend, seed=2
        ).solve(tiny_problem, 3)
        assert res.weights.tobytes() == ref.weights.tobytes(), backend
        assert res.shared.tobytes() == ref.shared.tobytes(), backend


# ---------------------------------------------------------------------------
# facade + config validation + timing model
# ---------------------------------------------------------------------------


class TestFacadeAndConfig:
    def test_alias_registered(self):
        from repro.api import SOLVER_ALIASES

        assert SOLVER_ALIASES["syscd"] == "syscd"
        assert SOLVER_ALIASES["sy-scd"] == "syscd"

    def test_train_facade_returns_result(self, tiny_problem):
        res = train(
            tiny_problem, "syscd",
            config=SolverConfig(n_epochs=2, n_threads=2),
        )
        assert res.solver_name.startswith("SySCD(2 threads")
        assert res.ledger is not None and res.ledger.total > 0

    def test_config_knobs_validated(self):
        with pytest.raises(ValueError, match="bucket_size"):
            SyscdKernelFactory(bucket_size=0)
        with pytest.raises(ValueError, match="merge_every"):
            SyscdKernelFactory(merge_every=0)
        with pytest.raises(ValueError, match="merge"):
            SyscdKernelFactory(merge="max")
        with pytest.raises(ValueError, match="n_threads"):
            SyscdKernelFactory(n_threads=0)
        with pytest.raises(ValueError, match="at most"):
            SyscdKernelFactory(n_threads=64)
        with pytest.raises(ValueError, match="kernel_backend"):
            SyscdKernelFactory(kernel_backend="fortran")

    def test_repro_exports_solver(self):
        assert repro.SySCD is SySCD

    def test_timing_model_monotone_in_threads(self):
        from repro.perf.timing import EpochWorkload

        workload = EpochWorkload(n_coords=4096, nnz=10**6, shared_len=4096)
        seconds = [
            SyscdCpuTiming(n_threads=t).epoch_seconds(workload)
            for t in (1, 2, 4, 8)
        ]
        assert all(a > b for a, b in zip(seconds, seconds[1:]))
        # merge overhead keeps scaling sub-linear
        assert seconds[0] / seconds[3] < 8.0

    def test_timing_counts_merges(self):
        timing = SyscdCpuTiming(n_threads=4, bucket_size=64, merge_every=2)
        # 2048 coords -> 32 buckets -> 8 per thread -> 4 merge periods
        assert timing.merges_per_epoch(2048) == 4
        assert timing.component == "compute_host"


class TestObservability:
    def test_wave_detail_emits_bucket_and_merge_spans(self, tiny_problem):
        tracer = Tracer(detail="wave")
        train(tiny_problem, "syscd", n_epochs=2, n_threads=2, tracer=tracer)
        names = {span.name for span in tracer.walk()}
        assert "syscd.bucket" in names
        assert "syscd.merge" in names

    def test_epoch_detail_emits_metrics_only(self, tiny_problem):
        tracer = Tracer()  # default detail="epoch"
        train(tiny_problem, "syscd", n_epochs=2, n_threads=2, tracer=tracer)
        names = {span.name for span in tracer.walk()}
        assert "syscd.bucket" not in names
        metrics = tracer.metrics
        assert metrics.counter("syscd.buckets") > 0
        assert metrics.counter("syscd.merges") > 0
        assert metrics.gauge("syscd.threads") == 2
        assert metrics.gauge("syscd.bucket_imbalance") >= 1.0

    def test_tracing_never_perturbs_trajectory(self, tiny_problem):
        plain = train(tiny_problem, "syscd", n_epochs=2, n_threads=2)
        traced = train(
            tiny_problem, "syscd", n_epochs=2, n_threads=2,
            tracer=Tracer(detail="wave"),
        )
        assert np.array_equal(plain.weights, traced.weights)
