"""Tests for the real-multiprocessing validation backend.

These tests run actual OS worker processes; sizes are kept small so the
whole file stays in the seconds range.
"""

import numpy as np
import pytest

from repro.cluster.mp_cluster import MpDistributedSCD
from repro.core import DistributedSCD
from repro.data import make_webspam_like
from repro.objectives import RidgeProblem
from repro.solvers.scd import SequentialKernelFactory


@pytest.fixture(scope="module")
def problem():
    ds = make_webspam_like(250, 500, nnz_per_example=12, seed=3)
    return RidgeProblem(ds, lam=5e-3)


class TestMpMatchesSimulation:
    """Identical seeds/partitions -> identical trajectories: the strongest
    evidence that the simulated engine's semantics are faithful."""

    @pytest.mark.parametrize("formulation", ["primal", "dual"])
    @pytest.mark.parametrize("aggregation", ["averaging", "adaptive"])
    def test_weights_match(self, problem, formulation, aggregation):
        mp_res = MpDistributedSCD(
            formulation, n_workers=2, aggregation=aggregation, seed=7
        ).solve(problem, 4)
        sim_res = DistributedSCD(
            SequentialKernelFactory(),
            formulation,
            n_workers=2,
            aggregation=aggregation,
            seed=7,
        ).solve(problem, 4)
        assert np.allclose(mp_res.weights, sim_res.weights, atol=1e-12)
        assert np.allclose(mp_res.shared, sim_res.shared, atol=1e-12)

    def test_gammas_match(self, problem):
        mp_res = MpDistributedSCD(
            "dual", n_workers=2, aggregation="adaptive", seed=7
        ).solve(problem, 4)
        sim_res = DistributedSCD(
            SequentialKernelFactory(),
            "dual",
            n_workers=2,
            aggregation="adaptive",
            seed=7,
        ).solve(problem, 4)
        assert np.allclose(mp_res.gammas, sim_res.gammas, rtol=1e-10)

    def test_partitions_match(self, problem):
        mp_res = MpDistributedSCD("dual", n_workers=3, seed=9).solve(problem, 1)
        sim_res = DistributedSCD(
            SequentialKernelFactory(), "dual", n_workers=3, seed=9
        ).solve(problem, 1)
        for a, b in zip(mp_res.partitions, sim_res.partitions):
            assert np.array_equal(a, b)


class TestSpawnContext:
    """Children bind from a picklable per-rank slice, so start methods that
    pickle the process arguments (spawn, forkserver) run the same solve."""

    def test_closure_partitioner_matches_fork_bitwise(self, problem):
        from repro.cluster.smart_partition import make_capacity_partitioner

        partitioner = make_capacity_partitioner([3.0, 1.0])  # a local closure
        runs = {
            ctx: MpDistributedSCD(
                "dual", n_workers=2, aggregation="adaptive", seed=7,
                mp_context=ctx, partitioner=partitioner,
            ).solve(problem, 3)
            for ctx in ("fork", "spawn")
        }
        assert [p.shape[0] for p in runs["spawn"].partitions] == [
            p.shape[0] for p in runs["fork"].partitions
        ]
        assert np.array_equal(runs["spawn"].weights, runs["fork"].weights)
        assert np.array_equal(runs["spawn"].shared, runs["fork"].shared)


def _failing_factory(rank):
    raise ValueError(f"rank {rank} cannot bind")


class TestMpMechanics:
    def test_child_bind_error_reaches_the_parent(self, problem):
        import multiprocessing as mp

        from repro.cluster.runtime import PipeProcessBackend, WorkerBinder

        plan = WorkerBinder(
            formulation="dual", factory_for=_failing_factory, seed=0, rng_base=1000
        ).plan(problem, 2)
        backend = PipeProcessBackend(ctx=mp.get_context("fork"), plan=plan)
        with pytest.raises(ValueError, match="rank 0 cannot bind"):
            backend.open(problem, None)
        procs = list(backend.procs)
        backend.close()
        assert len(procs) == 2 and not any(proc.is_alive() for proc in procs)


    def test_converges(self, problem):
        res = MpDistributedSCD("dual", n_workers=2, seed=1).solve(problem, 30)
        assert res.history.final_gap() < 1e-4

    def test_three_workers(self, problem):
        res = MpDistributedSCD("dual", n_workers=3, seed=1).solve(problem, 3)
        combined = np.sort(np.concatenate(res.partitions))
        assert np.array_equal(combined, np.arange(problem.n))

    def test_wall_time_recorded(self, problem):
        res = MpDistributedSCD("dual", n_workers=2, seed=1).solve(problem, 2)
        assert res.ledger.get("compute_host") > 0
        assert res.history.records[-1].wall_time > 0

    def test_target_gap_early_stop(self, problem):
        res = MpDistributedSCD("dual", n_workers=2, seed=1).solve(
            problem, 100, monitor_every=1, target_gap=1e-3
        )
        assert res.history.records[-1].epoch < 100

    def test_processes_cleaned_up(self, problem):
        import multiprocessing as mp

        before = len(mp.active_children())
        MpDistributedSCD("dual", n_workers=2, seed=1).solve(problem, 1)
        after = len(mp.active_children())
        assert after <= before

    def test_validation(self):
        with pytest.raises(ValueError, match="formulation"):
            MpDistributedSCD("diag")
        with pytest.raises(ValueError, match="n_workers"):
            MpDistributedSCD("dual", n_workers=0)
