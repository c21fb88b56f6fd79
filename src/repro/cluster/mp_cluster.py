"""Distributed SCD over real OS processes (validation backend).

The simulation engine (`repro.core.distributed.DistributedSCD`) executes the
workers' epochs in-process and *models* time.  This facade runs the same
Algorithm 3/4 through the same :class:`~repro.cluster.runtime.ClusterRuntime`
epoch loop, but over a :class:`~repro.cluster.runtime.PipeProcessBackend` —
each worker in its own ``multiprocessing`` process, communicating
shared-vector deltas over pipes: true parallel execution with real
synchronization.

The parent cuts the partition with the engine's partitioner and sends
each child only its rank's slice, which the child binds through the same
:class:`~repro.cluster.runtime.WorkerBinder` as the simulated pool — the
same :class:`~repro.solvers.scd.SequentialKernelFactory` precompute, seeds
and :class:`~repro.cluster.runtime.PermutationStream` — so the two
backends' trajectories must agree *bitwise*; ``tests/test_runtime.py``
(cross-backend parity) and ``tests/test_mp_cluster.py`` assert exactly
that, which is the strongest available check that the simulated engine's
*semantics* (as opposed to its time model) are faithful.

Scope: sequential-SCD local solvers (the paper's CPU cluster), both
formulations, averaging/adaptive/adding aggregation.  The GPU solvers stay
simulation-only — their device model has no OS-process counterpart.

Shard stores: a ``shards=`` argument aligns the worker partitions to the
store's contiguous shard groups and the parent assembles each child's
group from disk (bit-identical to ``take_major`` over the same
coordinates).
Streaming stops there — child processes hold their materialized partition
for the whole run, because per-epoch re-reads only exist to *model* cache
pressure and real processes have no simulated clock to bill them against.

Fault injection: the backend honours the *functional* faults of a
:class:`~repro.cluster.faults.FaultInjector` — worker dropout (the child is
simply not asked to run the epoch) and lost updates (drop, stale-as-drop,
and retry exhaustion all exclude the child's delta and tell it to fold
gamma = 0), with the aggregation rescaled over the K' survivors.  Time-only
faults (stragglers, retry latency) have no meaning against real wall-clock
and are ignored here; ``tests/test_faults.py`` exploits the overlap to check
the simulated engine's degraded-mode *semantics* against real processes.
"""

from __future__ import annotations

import multiprocessing as mp
from functools import partial

from ..core.aggregation import make_aggregator
from ..core.distributed import DistributedTrainResult
from ..objectives.ridge import RidgeProblem
from ..shards import ShardingConfig, ShardStore
from ..solvers.scd import SequentialKernelFactory
from ..solvers.syscd_kernels import resolve_backend
from .faults import FaultInjector, FaultSpec, make_fault_injector
from .partition import random_partition
from .runtime import (
    ClusterRuntime,
    FaultPolicy,
    PipeProcessBackend,
    RuntimeProfile,
    WorkerBinder,
)

__all__ = ["MpDistributedSCD"]

_MP_PROFILE = RuntimeProfile(
    root_span="mp.train",
    bind_span=False,
    local_compute_span=False,
    aggregate_span=False,
    extras="gamma",
)


def _sequential_factory(
    rank: int, kernel_backend: str = "auto"
) -> SequentialKernelFactory:
    # module-level so spawn-context children can unpickle the binder
    return SequentialKernelFactory(kernel_backend=kernel_backend)


class MpDistributedSCD:
    """Algorithm 3/4 executed across real worker processes.

    Mirrors the simulation engine's constructor where applicable; local
    solvers are sequential SCD (the paper's CPU-cluster configuration),
    each child binding the ``kernel_backend`` kernel (children load a built
    C kernel from its disk cache instead of compiling it again).
    """

    def __init__(
        self,
        formulation: str = "dual",
        *,
        n_workers: int = 2,
        aggregation: str = "averaging",
        seed: int = 0,
        mp_context: str | None = None,
        faults: FaultInjector | FaultSpec | str | None = None,
        partitioner=None,
        shards: ShardingConfig | ShardStore | None = None,
        membership=None,
        kernel_backend: str = "auto",
    ) -> None:
        if formulation not in ("primal", "dual"):
            raise ValueError(f"unknown formulation {formulation!r}")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.formulation = formulation
        self.n_workers = int(n_workers)
        self.aggregator = make_aggregator(aggregation)
        self.seed = int(seed)
        self.faults = make_fault_injector(faults)
        # resolved here so a missing backend fails in the parent
        self.kernel_backend = resolve_backend(kernel_backend)
        self.partitioner = partitioner or random_partition
        if isinstance(shards, ShardStore):
            shards = ShardingConfig(store=shards)
        self.shards = shards
        if self.shards is not None:
            axis = "cols" if formulation == "primal" else "rows"
            if self.shards.store.axis != axis:
                raise ValueError(
                    f"{formulation} formulation needs a {axis!r}-axis shard "
                    f"set, got {self.shards.store.axis!r}"
                )
        #: elastic membership is simulation-only; a non-None schedule makes
        #: ClusterRuntime raise its pointed not-supported error at build time
        self.membership = membership
        self._ctx = mp.get_context(mp_context) if mp_context else mp.get_context()
        self.name = (
            f"MpDistributed[SCD x{self.n_workers}, "
            f"{self.aggregator.name}, {formulation}]"
        )

    # -- training ------------------------------------------------------------------
    def solve(
        self,
        problem: RidgeProblem,
        n_epochs: int,
        *,
        monitor_every: int = 1,
        target_gap: float | None = None,
        tracer=None,
        on_epoch=None,
    ) -> DistributedTrainResult:
        plan = WorkerBinder(
            formulation=self.formulation,
            factory_for=partial(
                _sequential_factory, kernel_backend=self.kernel_backend
            ),
            seed=self.seed,
            # the simulated pool's offset: both backends replay one trajectory
            rng_base=1000,
            partitioner=self.partitioner,
            shards=self.shards,
        ).plan(problem, self.n_workers)
        shared_len = problem.n if self.formulation == "primal" else problem.m
        backend = PipeProcessBackend(ctx=self._ctx, plan=plan)
        runtime = ClusterRuntime(
            backend=backend,
            aggregator=self.aggregator,
            formulation=self.formulation,
            faults=FaultPolicy(
                injector=self.faults,
                # stale updates have no next-round buffer against real
                # processes; they count as lost, like retry exhaustion
                stale_buffering=False,
                count_retry_exhausted=False,
            ),
            profile=_MP_PROFILE,
            name=lambda: self.name,
            membership=self.membership,
        )
        rt = runtime.run(
            problem,
            n_epochs,
            shared_len=shared_len,
            monitor_every=monitor_every,
            target_gap=target_gap,
            tracer=tracer,
            on_epoch=on_epoch,
        )
        return DistributedTrainResult(
            formulation=self.formulation,
            weights=backend.global_weights(problem),
            shared=rt.shared,
            history=rt.history,
            ledger=rt.ledger,
            partitions=list(plan.parts),
            solver_name=self.name,
            gammas=rt.gammas,
            fault_report=rt.report,
            trace=rt.tracer if rt.tracer.enabled else None,
            metrics=rt.tracer.metrics if rt.tracer.enabled else None,
        )
