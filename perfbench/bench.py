"""Wall-clock workloads: time to a duality gap per engine, and train->serve.

One *round* runs every phase once for one permutation seed:

* ``primal-single`` -- ridge primal to gap 1e-9 with ``seq``, ``syscd``
  (2 threads) and ``tpa-scd`` (paper-scaled wave); column-wise CSC kernels;
* ``dual-distributed`` -- the dual to gap 1e-6 with adaptive aggregation, on
  the in-process cluster (4 workers, ``seq`` local solver) and on real
  processes (``mp``, 2 workers); row-wise CSR kernels;
* ``train-serve`` -- ``seq`` primal for a fixed epoch budget, publishing a
  snapshot every ``publish_every`` epochs from ``on_epoch``, then a seeded
  bursty trace replayed through ``ModelServer`` with hot swaps.

Rounds cycle through the workload's fixed seed list until the run's time
is up.  Every number here is measured from outside the program by timing
calls into its public functions; nothing under ``src/`` is changed.
"""

from __future__ import annotations

import gc
import math
import statistics
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import repro  # noqa: E402
from repro.core.scale import WEBSPAM_PAPER  # noqa: E402
from repro.core.tpa_scd import scaled_wave_size  # noqa: E402
from repro.data import make_webspam_like  # noqa: E402
from repro.gpu.spec import GTX_TITAN_X  # noqa: E402
from repro.objectives import RidgeProblem  # noqa: E402
from repro.serve import ModelServer, ServeConfig, SnapshotHub, WeightSnapshot  # noqa: E402
from repro.serve.snapshot import serve_weights  # noqa: E402
from repro.serve.traffic import EpochNote, RequestSource, SwapEvent, bursty_arrivals  # noqa: E402

#: the figure experiments' regularization strength (``experiments.config.LAMBDA``)
LAMBDA = 5e-3
#: requests generated at a time, outside the timed replay; at most two
#: chunks are alive at once, so the load generator's memory stays small
REQUEST_CHUNK = 500

#: end-to-end metrics (untraced runs): name -> unit.  Must match BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "ttg_seq_s": "s",
    "ttg_tpa_s": "s",
    "ttg_dist_s": "s",
    "epochs_to_gap": "count",
    "serve_req_per_s": "1/s",
    "serve_submit_p50_us": "us",
    "serve_submit_p99_us": "us",
    "peak_rss_mb": "MB",
}
#: time to gap of the engines that need both cores (``syscd`` with 2 threads,
#: ``mp`` with 2 processes): printed and recorded by untraced runs but not
#: gated, because a neighbour holding one core for a whole run doubles them
#: (README.md, *Noise*); traced runs report them as per-layer metrics
UNGATED = {"ttg_syscd_s": "s", "ttg_proc_s": "s"}


@dataclass(frozen=True)
class Workload:
    """Sizes, targets and traffic of one benchmark workload."""

    name: str
    n_examples: int
    n_features: int
    nnz_per_example: int
    #: the figure experiments' dataset seed (``experiments.config.webspam_problem``)
    data_seed: int = 7
    #: the fixed permutation seed list, one round per seed, cycled
    solve_seeds: tuple = (0, 1)
    primal_gap: float = 1e-9
    dual_gap: float = 1e-6
    primal_cap: int = 100
    dual_cap: int = 400
    serve_epochs: int = 6
    publish_every: int = 2
    #: requests per round: the first this many arrivals of the seeded trace
    #: (README.md, *Serving traffic*, gives the reasons for both sizes)
    requests_per_round: int = 10_000
    rows_per_request: int = 4
    calm_hz: float = 2_000.0
    #: burst arrival rate as a multiple of the modelled full-batch capacity;
    #: at 0.9 no request was shed on seeds 1 to 30 (README.md, *Failures*),
    #: so a shed is a failure of the program, not of the load
    burst_over_capacity: float = 0.9


#: ``full`` is the figure experiments' webspam-like full scale, where the kernels
#: do most of the work; ``quick`` is their default scale, where fixed
#: per-call and per-epoch overhead (monitoring, binding, process start-up,
#: wave scheduling) is a larger share.  A kernel gain shows more on
#: ``full``; an overhead cut shows more on ``quick``.
WORKLOADS = {
    "full": Workload("full", 2_600, 6_800, 100),
    "quick": Workload("quick", 1_000, 3_000, 40),
}


@dataclass(frozen=True)
class Engine:
    """One time-to-gap solve: a ``repro.train`` solver and its settings."""

    solver: str
    metric: str
    formulation: str
    options: tuple = ()


ENGINES = (
    Engine("seq", "ttg_seq_s", "primal"),
    Engine("syscd", "ttg_syscd_s", "primal", (("n_threads", 2),)),
    # wave_size is filled in from scaled_wave_size for the problem at hand
    Engine("tpa-scd", "ttg_tpa_s", "primal"),
    Engine(
        "distributed", "ttg_dist_s", "dual",
        (("n_workers", 4), ("local_solver", "seq"), ("aggregation", "adaptive")),
    ),
    Engine("mp", "ttg_proc_s", "dual", (("n_workers", 2), ("aggregation", "adaptive"))),
)


def traffic_seeds(workload: Workload, seed: int) -> list[int]:
    """One traffic seed per entry of the seed list, from the workload seed."""
    state = np.random.SeedSequence([int(seed)]).generate_state(len(workload.solve_seeds))
    return [int(s) for s in state]


def build_problem(workload: Workload) -> RidgeProblem:
    """Generate the dataset and bind the ridge problem, both layouts built."""
    ds = make_webspam_like(
        workload.n_examples,
        workload.n_features,
        nnz_per_example=workload.nnz_per_example,
        seed=workload.data_seed,
    )
    ds.csc, ds.csr  # noqa: B018 - the layout conversion is set-up work
    return RidgeProblem(ds, LAMBDA)


def tpa_wave(problem: RidgeProblem) -> int:
    """The paper-scaled resident wave every figure experiment uses."""
    return scaled_wave_size(
        GTX_TITAN_X, problem.m, WEBSPAM_PAPER.n_coords("primal")
    )


def first_server(problem: RidgeProblem) -> ModelServer:
    """A server reading a hub that holds a v1 zero model."""
    hub = SnapshotHub()
    hub.publish(WeightSnapshot(version=1, weights=np.zeros(problem.m)))
    return ModelServer(None, hub=hub)


# -- samples and correctness -------------------------------------------------


@dataclass
class Solve:
    """One ``repro.train`` call to a gap target."""

    engine: str
    seed: int
    wall_s: float
    epochs: int
    gap: float
    target: float
    gammas: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return math.isfinite(self.gap) and self.gap <= self.target


@dataclass
class Replay:
    """One train->serve round: the replay's timings and its audit.

    Only summaries are kept, so the benchmark's memory does not grow with
    the number of rounds a run fits in, and ``peak_rss_mb`` does not move
    with the host's speed."""

    seed: int
    requests: int
    wall_s: float
    submit_p50_s: float
    submit_p99_s: float
    shed: int
    lost: int
    mismatched: int
    swaps: int
    batches: int
    model_latency_p99_s: float


@dataclass
class Tally:
    """Attempted and failed operations, by kind of failure."""

    attempted: int = 0
    failures: dict = field(default_factory=dict)

    def fail(self, kind: str, n: int = 1) -> None:
        if n:
            self.failures[kind] = self.failures.get(kind, 0) + n

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        """Every check passed: no operation failed."""
        return not self.failures

    def record_solve(self, s: Solve) -> None:
        self.attempted += 1
        if not s.ok:
            self.fail("solve_miss")

    def record_replay(self, r: Replay) -> None:
        self.attempted += r.requests
        self.fail("shed", r.shed)
        self.fail("lost_request", r.lost)
        self.fail("oracle_mismatch", r.mismatched)


def _span(tracer, name: str, **attrs):
    return tracer.span(name, category="bench", **attrs) if tracer else nullcontext()


def solve(problem, engine: Engine, *, target: float, cap: int, seed: int,
          wave: int | None = None, tracer=None) -> Solve:
    """Time one ``repro.train`` call from entry until it returns at the target."""
    options = dict(engine.options)
    if engine.solver == "tpa-scd" and wave is not None:
        options["wave_size"] = wave
    with _span(tracer, "bench.train", engine=engine.solver, seed=seed):
        t0 = time.perf_counter()
        result = repro.train(
            problem, engine.solver, formulation=engine.formulation,
            n_epochs=cap, target_gap=target, seed=seed, tracer=tracer, **options,
        )
        wall = time.perf_counter() - t0
    last = result.history.records[-1]
    return Solve(
        engine=engine.solver, seed=seed, wall_s=wall, epochs=int(last.epoch),
        gap=float(last.gap), target=target,
        gammas=[float(g) for g in getattr(result, "gammas", ())],
    )


# -- the train->serve phase ----------------------------------------------------


class Traffic:
    """Seeded bursty multi-row requests.

    Request generation is load generation: the replay builds the requests a
    chunk at a time, outside its timed wall, and drops each chunk once it is
    submitted.  Only the arrival times are kept between rounds.
    """

    def __init__(self, workload: Workload, problem: RidgeProblem) -> None:
        self.workload = workload
        self.csr = problem.dataset.csr
        self.config = ServeConfig()
        nnz_row = problem.dataset.nnz / problem.n
        rows = self.config.max_batch * workload.rows_per_request
        capacity_hz = self.config.max_batch / self.config.service_seconds(
            rows, int(rows * nnz_row)
        )
        self.burst_hz = workload.burst_over_capacity * capacity_hz
        self._arrivals: dict[int, np.ndarray] = {}

    def arrivals(self, seed: int) -> np.ndarray:
        """The first ``requests_per_round`` arrival instants of the seed's trace."""
        if seed not in self._arrivals:
            w = self.workload
            window = w.requests_per_round / w.calm_hz
            while (arrivals := bursty_arrivals(
                w.calm_hz, self.burst_hz, window, seed=seed
            )).size < w.requests_per_round:
                window *= 2
            self._arrivals[seed] = arrivals[: w.requests_per_round]
        return self._arrivals[seed]

    def chunks(self, seed: int, tracer=None):
        """The seed's requests, ``REQUEST_CHUNK`` at a time; the same seed
        gives the same requests on every call."""
        arrivals = self.arrivals(seed)
        source = RequestSource(self.csr, seed=seed,
                               rows_per_request=self.workload.rows_per_request)
        for start in range(0, arrivals.size, REQUEST_CHUNK):
            with _span(tracer, "bench.traffic"):
                chunk = source.requests(arrivals[start:start + REQUEST_CHUNK])
            yield chunk


def train_serve(problem, traffic: Traffic, seed: int, traffic_seed: int,
                tracer=None) -> Replay:
    """Train with on_epoch publishes, replay traffic with hot swaps, audit."""
    w = traffic.workload
    snapshots: list[WeightSnapshot] = []

    def publish(ev) -> None:
        if ev.epoch % w.publish_every == 0:
            with _span(tracer, "bench.publish", epoch=ev.epoch):
                snapshots.append(WeightSnapshot(
                    version=len(snapshots) + 1,
                    weights=serve_weights(problem, ev.formulation, ev.weights),
                    epoch=ev.epoch, published_at=ev.sim_time, solver=ev.solver,
                ))

    with _span(tracer, "bench.train", engine="seq-serve", seed=seed):
        repro.train(problem, "seq", n_epochs=w.serve_epochs, seed=seed,
                    on_epoch=publish, tracer=tracer)

    arrivals = traffic.arrivals(traffic_seed)
    # epoch e of E lands at e/E of 90% of the trace, as in repro.serve.demo
    window = float(arrivals[-1])
    at = lambda epoch: 0.9 * window * epoch / w.serve_epochs  # noqa: E731
    events = [EpochNote(at_s=at(e), epoch=e) for e in range(1, w.serve_epochs + 1)]
    events += [SwapEvent(at_s=at(s.epoch), snapshot=s) for s in snapshots[1:]]
    # publishes and notes win ties against arrivals, as in serve.traffic.replay
    timeline = sorted(events, key=lambda ev: ev.at_s) + [None]
    hub = SnapshotHub()
    hub.publish(snapshots[0])
    server = ModelServer(None, hub=hub, config=traffic.config, tracer=tracer)

    submit_s: list[float] = []
    nxt = 0
    clock = time.perf_counter
    wall = 0.0
    # the replay's wall time sums the submit loops and the drain; the
    # generation of each chunk between them is not part of it
    for chunk in traffic.chunks(traffic_seed, tracer):
        t0 = clock()
        for req in chunk:
            while timeline[nxt] is not None and timeline[nxt].at_s <= req.arrival_s:
                _deliver(server, timeline[nxt])
                nxt += 1
            with _span(tracer, "bench.submit"):
                a = clock()
                server.submit(req)
                submit_s.append(clock() - a)
        wall += clock() - t0
    t0 = clock()
    for ev in timeline[nxt:-1]:
        _deliver(server, ev)
    with _span(tracer, "bench.drain"):
        responses = server.drain()
    wall += clock() - t0

    with _span(tracer, "bench.audit"):
        lost, mismatched = audit(arrivals.size, responses, hub, traffic.csr)
    served = [r for r in responses if not r.shed]
    return Replay(
        seed=traffic_seed, requests=int(arrivals.size), wall_s=wall,
        submit_p50_s=percentile(submit_s, 50), submit_p99_s=percentile(submit_s, 99),
        shed=len(responses) - len(served), lost=lost, mismatched=mismatched,
        swaps=server.swaps_applied,
        batches=len({r.batch_index for r in served}),
        model_latency_p99_s=percentile([r.latency_s for r in served], 99),
    )


def _deliver(server: ModelServer, ev) -> None:
    """A publish lands on the hub and swaps the server; a note moves the frontier."""
    if isinstance(ev, SwapEvent):
        server.hub.publish(ev.snapshot)
        server.apply_swap(ev.snapshot, at=ev.at_s)
    else:
        server.note_epoch(ev.epoch, at=ev.at_s)


def audit(n_requests: int, responses, hub: SnapshotHub, csr) -> tuple[int, int]:
    """Requests lost and responses that differ from the oracle.

    Request ids run from 0 to ``n_requests - 1``.  A response must exist for
    every request exactly once (no request lost to a swap), and every
    response not shed must be bitwise equal to ``take_rows(row_ids).matvec(w)``
    for the weight version stamped on it.
    """
    seen = Counter(resp.request_id for resp in responses)
    lost = sum(1 for i in range(n_requests) if seen[i] != 1)
    mismatched = 0
    for resp in responses:
        if resp.shed:
            continue
        oracle = csr.take_rows(resp.row_ids).matvec(hub.get(resp.weight_version).weights)
        if not np.array_equal(np.asarray(resp.scores, dtype=np.float64), oracle):
            mismatched += 1
    return lost, mismatched


# -- rounds and the untraced metrics -------------------------------------------


class Bench:
    """A workload's problem and traffic, and the rounds run on them."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        #: (permutation seed, traffic seed) of each entry of the seed list
        self.seeds = list(zip(workload.solve_seeds, traffic_seeds(workload, seed)))
        self.problem = build_problem(workload)
        self.wave = tpa_wave(self.problem)
        self.traffic = Traffic(workload, self.problem)

    def round(self, seed: int, traffic_seed: int, tally: Tally,
              tracer=None) -> tuple[list[Solve], Replay]:
        gc.collect()
        with _span(tracer, "bench.round", seed=seed):
            solves, replay = self._round(seed, traffic_seed, tracer)
        for s in solves:
            tally.record_solve(s)
        tally.record_replay(replay)
        return solves, replay

    def _round(self, seed: int, traffic_seed: int, tracer) -> tuple[list[Solve], Replay]:
        w = self.workload
        solves = []
        for engine in ENGINES:
            primal = engine.formulation == "primal"
            solves.append(solve(
                self.problem, engine,
                target=w.primal_gap if primal else w.dual_gap,
                cap=w.primal_cap if primal else w.dual_cap,
                seed=seed, wave=self.wave, tracer=tracer,
            ))
        return solves, train_serve(self.problem, self.traffic, seed, traffic_seed, tracer)

    def measure(self, seconds: float, tally: Tally,
                tracer=None) -> list[tuple[list[Solve], Replay]]:
        """Rounds over the seed list, cycled, until ``seconds`` have been
        measured and every seed has run at least once."""
        out = []
        t0 = time.perf_counter()
        while len(out) < len(self.seeds) or time.perf_counter() - t0 < seconds:
            seed, traffic_seed = self.seeds[len(out) % len(self.seeds)]
            out.append(self.round(seed, traffic_seed, tally, tracer))
        check_epochs_repeat(out, tally)
        return out


def check_epochs_repeat(rounds, tally: Tally) -> None:
    """Epochs to gap for one (engine, seed) must be identical in every round."""
    first: dict[tuple, int] = {}
    for solves, _ in rounds:
        for s in solves:
            if first.setdefault((s.engine, s.seed), s.epochs) != s.epochs:
                tally.fail("epochs_drift")


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def time_to_gap(solves: list[Solve], engine: Engine) -> float:
    """The engine's mean over the rounds for each seed, then the mean over
    the seed list: seeds differ in whole epochs, so their times are not
    samples of one distribution.  A solve's time takes one of two levels,
    as the host's shared cores are free or busy for seconds at a time; the
    median of a run flips between the levels, the mean moves with the share
    of busy time (README.md, *Noise*)."""
    by_seed: dict[int, list[float]] = {}
    for s in solves:
        if s.engine == engine.solver:
            by_seed.setdefault(s.seed, []).append(s.wall_s)
    return statistics.fmean(statistics.fmean(v) for v in by_seed.values())


def end_to_end(rounds, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    """Every end-to-end metric from the untraced rounds, and the ungated ones."""
    metrics = {"setup_s": setup_s}
    solves = [s for solves, _ in rounds for s in solves]
    for engine in ENGINES:
        metrics[engine.metric] = time_to_gap(solves, engine)
    metrics["epochs_to_gap"] = float(sum({(s.engine, s.seed): s.epochs for s in solves}.values()))
    replays = [r for _, r in rounds]
    metrics["serve_req_per_s"] = sum(r.requests for r in replays) / sum(r.wall_s for r in replays)
    # each round's percentile, then the mean over rounds: a round replays in
    # a fraction of a second, within one level of the host's speed, and a
    # percentile pooled over the run flips between the levels like a median
    metrics["serve_submit_p50_us"] = statistics.fmean(r.submit_p50_s for r in replays) * 1e6
    metrics["serve_submit_p99_us"] = statistics.fmean(r.submit_p99_s for r in replays) * 1e6
    metrics["peak_rss_mb"] = peak_rss_mb
    return metrics
