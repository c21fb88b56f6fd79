"""Tests for the correlation-aware partitioner (networkx-based)."""

import networkx as nx
import numpy as np
import pytest

from repro.cluster.smart_partition import (
    communities_of,
    cooccurrence_graph,
    correlation_aware_partition,
    load_proportional_partition,
    make_capacity_partitioner,
    make_correlation_partitioner,
    pack_communities,
    validate_capacities,
)
from repro.core import DistributedSCD
from repro.data import make_block_correlated
from repro.objectives import RidgeProblem
from repro.solvers.scd import SequentialKernelFactory
from repro.sparse import from_dense_csr


@pytest.fixture(scope="module")
def block_data():
    return make_block_correlated(
        600, 800, n_blocks=4, nnz_per_example=10, seed=17
    )


class TestCooccurrenceGraph:
    def test_small_rows_form_cliques(self):
        dense = np.zeros((2, 5))
        dense[0, [0, 1, 2]] = 1.0
        dense[1, [3, 4]] = 1.0
        csr = from_dense_csr(dense)
        g = cooccurrence_graph(csr.indptr, csr.indices, 5)
        assert g.has_edge(0, 1) and g.has_edge(0, 2) and g.has_edge(1, 2)
        assert g.has_edge(3, 4)
        assert not g.has_edge(2, 3)

    def test_long_rows_form_rings(self):
        dense = np.zeros((1, 20))
        dense[0, :] = 1.0
        csr = from_dense_csr(dense)
        g = cooccurrence_graph(csr.indptr, csr.indices, 20, max_clique=4)
        # a ring over all 20 features: connected, sparse
        assert nx.is_connected(g)
        assert g.number_of_edges() <= 20

    def test_edge_weights_count_cooccurrences(self):
        dense = np.zeros((3, 3))
        dense[:, [0, 1]] = 1.0  # features 0,1 co-occur in 3 rows
        csr = from_dense_csr(dense)
        g = cooccurrence_graph(csr.indptr, csr.indices, 3)
        assert g[0][1]["weight"] == 3

    def test_isolated_coordinates_are_nodes(self):
        dense = np.zeros((1, 4))
        dense[0, 0] = 1.0
        csr = from_dense_csr(dense)
        g = cooccurrence_graph(csr.indptr, csr.indices, 4)
        assert g.number_of_nodes() == 4


class TestCommunities:
    def test_block_data_splits_into_blocks(self, block_data):
        csr = block_data.csr
        g = cooccurrence_graph(csr.indptr, csr.indices, block_data.n_features)
        comms = communities_of(g)
        # with zero cross-block leakage: >= n_blocks communities (plus
        # possibly isolated never-drawn features)
        big = [c for c in comms if c.shape[0] > 10]
        assert len(big) == 4

    def test_refinement_splits_large_components(self):
        # one big clique-ish component
        g = nx.barbell_graph(10, 0)  # two cliques joined by an edge
        for u, v in g.edges:
            g[u][v]["weight"] = 1
        comms = communities_of(g, refine_above=5)
        assert len(comms) >= 2


class TestPackCommunities:
    def test_disjoint_cover(self):
        comms = [np.array([0, 1, 2]), np.array([3]), np.array([4, 5])]
        parts = pack_communities(comms, 2)
        combined = np.sort(np.concatenate(parts))
        assert np.array_equal(combined, np.arange(6))

    def test_never_splits_a_community_when_avoidable(self):
        comms = [np.arange(0, 5), np.arange(5, 10), np.arange(10, 15)]
        parts = pack_communities(comms, 3)
        sets = [set(p.tolist()) for p in parts]
        for comm in comms:
            assert any(set(comm.tolist()) <= s for s in sets)

    def test_balances_sizes(self):
        comms = [np.arange(i * 10, (i + 1) * 10) for i in range(8)]
        parts = pack_communities(comms, 4)
        sizes = [p.shape[0] for p in parts]
        assert max(sizes) == min(sizes) == 20

    def test_no_empty_parts(self):
        comms = [np.arange(10)]  # one community, 3 parts
        parts = pack_communities(comms, 3)
        assert all(p.shape[0] >= 1 for p in parts)
        assert np.array_equal(np.sort(np.concatenate(parts)), np.arange(10))

    def test_validation(self):
        with pytest.raises(ValueError, match="n_parts"):
            pack_communities([np.arange(3)], 0)
        with pytest.raises(ValueError, match="cannot fill"):
            pack_communities([np.arange(2)], 5)


class TestEndToEnd:
    def test_partition_covers_all_features(self, block_data):
        csr = block_data.csr
        parts = correlation_aware_partition(
            csr.indptr, csr.indices, block_data.n_features, 4
        )
        combined = np.sort(np.concatenate(parts))
        assert np.array_equal(combined, np.arange(block_data.n_features))

    def test_blocks_stay_together(self, block_data):
        block_size = block_data.n_features // 4
        csr = block_data.csr
        parts = correlation_aware_partition(
            csr.indptr, csr.indices, block_data.n_features, 4
        )
        # every *populated* feature of a block lands on the same worker
        populated = np.zeros(block_data.n_features, dtype=bool)
        populated[csr.indices] = True
        owner = np.full(block_data.n_features, -1)
        for k, p in enumerate(parts):
            owner[p] = k
        for b in range(4):
            blk = np.arange(b * block_size, (b + 1) * block_size)
            owners = np.unique(owner[blk[populated[blk]]])
            assert owners.shape[0] == 1

    def test_partitioner_adapter_signature(self, block_data):
        part = make_correlation_partitioner(block_data.csr)
        parts = part(block_data.n_features, 4, np.random.default_rng(0))
        assert len(parts) == 4

    def test_partitioner_adapter_validates_count(self, block_data):
        part = make_correlation_partitioner(block_data.csr)
        with pytest.raises(ValueError, match="partitioner built for"):
            part(17, 4, np.random.default_rng(0))

    def test_improves_distributed_convergence(self, block_data):
        """The [22] claim: smart partitioning + adaptive aggregation beats
        random partitioning per epoch on block-structured data."""
        problem = RidgeProblem(block_data, 5e-3)
        results = {}
        for label, part in (
            ("random", None),
            ("smart", make_correlation_partitioner(block_data.csr)),
        ):
            eng = DistributedSCD(
                SequentialKernelFactory(),
                "primal",
                n_workers=4,
                aggregation="adaptive",
                seed=3,
                partitioner=part,
            )
            results[label] = eng.solve(problem, 8).history.final_gap()
        assert results["smart"] < results["random"]


class TestLoadProportionalPartition:
    """Degenerate capacity inputs raise pointed errors, never empty shards."""

    def test_zero_capacity_rank_rejected(self):
        with pytest.raises(ValueError, match="zero or non-positive capacity"):
            load_proportional_partition(
                100, [2.0, 0.0, 1.0], np.random.default_rng(0)
            )
        with pytest.raises(ValueError, match=r"rank\(s\) \[1, 2\]"):
            validate_capacities([1.0, -3.0, 0.0], 100)

    def test_more_ranks_than_rows_rejected(self):
        with pytest.raises(ValueError, match="more ranks than rows"):
            load_proportional_partition(
                3, [1.0, 1.0, 1.0, 1.0], np.random.default_rng(0)
            )

    def test_empty_capacities_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            validate_capacities([], 10)

    def test_shares_track_capacity(self):
        parts = load_proportional_partition(
            120, [3.0, 1.0], np.random.default_rng(0)
        )
        assert len(parts[0]) == 90 and len(parts[1]) == 30
        owned = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(owned, np.arange(120))

    def test_every_rank_gets_work_under_extreme_skew(self):
        parts = load_proportional_partition(
            50, [1000.0, 1.0, 1.0], np.random.default_rng(0)
        )
        assert all(len(p) >= 1 for p in parts)

    def test_capacity_partitioner_adapter(self):
        part = make_capacity_partitioner([2.0, 1.0])
        parts = part(90, 2, np.random.default_rng(0))
        assert len(parts[0]) == 60
        with pytest.raises(ValueError, match="built for 2 ranks"):
            part(90, 3, np.random.default_rng(0))

    def test_pack_communities_capacity_weighted(self):
        comms = [np.array([i]) for i in range(30)]
        parts = pack_communities(comms, 2, capacities=[2.0, 1.0])
        assert len(parts[0]) == 20 and len(parts[1]) == 10

    def test_pack_communities_capacity_count_mismatch(self):
        comms = [np.array([i]) for i in range(10)]
        with pytest.raises(ValueError, match="2 capacities for 3 parts"):
            pack_communities(comms, 3, capacities=[1.0, 1.0])


class TestEnginePartitions:
    """Both comm modes bind through one planner: the engine's partitioner
    (including the ``capacities=`` shortcut) decides the worker shares."""

    @pytest.fixture(scope="class")
    def dual_problem(self):
        from repro.data import make_webspam_like

        return RidgeProblem(
            make_webspam_like(200, 300, nnz_per_example=8, seed=3), lam=5e-3
        )

    @pytest.mark.parametrize("comm", ["sync", "async"])
    def test_capacities_size_the_partitions(self, dual_problem, comm):
        res = DistributedSCD(
            SequentialKernelFactory(), "dual", n_workers=2, seed=7,
            comm=comm, capacities=[3.0, 1.0],
        ).solve(dual_problem, 1)
        assert [p.shape[0] for p in res.partitions] == [150, 50]

    @pytest.mark.parametrize("comm", ["sync", "async"])
    def test_custom_partitioner_is_honoured(self, dual_problem, comm):
        def skewed(n, k, rng):
            return [np.arange(10), np.arange(10, n)]

        res = DistributedSCD(
            SequentialKernelFactory(), "dual", n_workers=2, seed=7,
            comm=comm, partitioner=skewed,
        ).solve(dual_problem, 1)
        assert [p.shape[0] for p in res.partitions] == [10, 190]
