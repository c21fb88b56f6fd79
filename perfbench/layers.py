"""The traced run: per-layer numbers read from the tracer's wall clock.

A ``repro.obs.Tracer`` goes through the public ``tracer=`` arguments of
``repro.train`` and ``ModelServer``; the benchmark adds its own spans
(``bench.*``) around each call it makes into a layer.  Spans roll up into
per-layer *self time* (a span's wall time minus what its children cover),
and direct probes time single calls at workload size.  Which end-to-end
metric each layer metric should move, and on which phase, is in
``perfbench/README.md``.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import numpy as np

import bench
from repro.obs import Tracer, chrome_trace, validate_chrome_trace
from repro.objectives.ridge import gap_and_objective
from repro.solvers.scd import SequentialKernelFactory
from repro.sparse import segment_sums

#: per-layer metrics (traced runs): name -> unit.  Must match BENCHMARK.json.
PER_LAYER = {
    "data.generate_s": "s",
    "sparse.csr_matvec_s": "s",
    "sparse.csc_rmatvec_s": "s",
    "sparse.segment_sums_s": "s",
    "sparse.matvec_bytes": "B",
    "objectives.gap_eval_s": "s",
    "objectives.gap_evals": "count",
    "solvers.bind_s": "s",
    "solvers.primal_epoch_s": "s",
    "solvers.dual_epoch_s": "s",
    "solvers.updates": "count",
    "solvers.nnz_per_epoch": "count",
    "solvers.bytes_per_epoch": "B",
    "syscd.ttg_s": "s",
    "syscd.epoch_s": "s",
    "syscd.merge_s": "s",
    "syscd.merges": "count",
    "syscd.buckets": "count",
    "syscd.merge_divergence": "1",
    "gpu.epoch_s": "s",
    "gpu.wave_p50_s": "s",
    "gpu.waves": "count",
    "gpu.atomic_conflicts": "count",
    "gpu.nnz_processed": "count",
    "gpu.plan_cache.hits": "count",
    "gpu.plan_cache.misses": "count",
    "pool.bytes_reused": "B",
    "cluster.round_s": "s",
    "cluster.local_compute_s": "s",
    "cluster.aggregate_s": "s",
    "cluster.rounds": "count",
    "cluster.comm_bytes_per_round": "B",
    "core.gamma_p50": "1",
    "cluster.proc.ttg_s": "s",
    "cluster.proc.round_s": "s",
    "cluster.proc.overhead_s": "s",
    "serve.admit_s": "s",
    "serve.batch_p50_s": "s",
    "serve.batch_p99_s": "s",
    "serve.batches": "count",
    "serve.batch_fill": "1",
    "serve.shed": "count",
    "serve.swaps": "count",
    "serve.publish_s": "s",
    "serve.model_latency_p99_s": "s-modelled",
    "obs.trace_overhead_ratio": "1",
    "self.api_s": "s",
    "self.solvers_s": "s",
    "self.syscd_s": "s",
    "self.gpu_s": "s",
    "self.objectives_s": "s",
    "self.cluster_s": "s",
    "self.aggregation_s": "s",
    "self.serve_s": "s",
    "self.bench_s": "s",
}

#: span name -> layer its self time belongs to; the generic engine spans
#: (``train``, ``bind``, ``epoch``) take the layer of their engine instead
_LAYER_OF_SPAN = {
    "bench.round": "bench",
    "bench.audit": "bench",
    "bench.traffic": "bench",
    "bench.train": "api",
    "gap_eval": "objectives",
    "tpa.epoch": "gpu",
    "tpa.wave": "gpu",
    "distributed.train": "cluster",
    "mp.train": "cluster",
    "local_compute": "cluster",
    "aggregate": "aggregation",
    "serve.batch": "serve",
    "bench.publish": "serve",
    "bench.submit": "serve",
    "bench.drain": "serve",
}
_LAYER_OF_ENGINE = {
    "seq": "solvers",
    "seq-serve": "solvers",
    "syscd": "syscd",
    "tpa-scd": "solvers",
    "distributed": "cluster",
    "mp": "cluster",
}


def _median_call(fn, reps: int) -> float:
    """Median wall seconds of ``reps`` calls of ``fn``."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _self_times(round_spans) -> dict[str, float]:
    """Per-layer self seconds summed over the given ``bench.round`` spans."""
    out: dict[str, float] = {}

    def visit(span, engine_layer: str) -> None:
        if span.name == "bench.train":
            engine_layer = _LAYER_OF_ENGINE[span.attrs["engine"]]
        layer = _LAYER_OF_SPAN.get(span.name, engine_layer)
        covered = sum(c.wall_seconds for c in span.children)
        out[layer] = out.get(layer, 0.0) + span.wall_seconds - covered
        for child in span.children:
            visit(child, engine_layer)

    for span in round_spans:
        visit(span, "bench")
    return out


def _engine_spans(round_spans, engine: str):
    """Every span under the ``bench.train`` spans of one engine."""
    for r in round_spans:
        for child in r.children:
            if child.name == "bench.train" and child.attrs["engine"] == engine:
                yield from child.walk()


def _walls(spans, name: str) -> list[float]:
    return [s.wall_seconds for s in spans if s.name == name]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def probes(b: bench.Bench, tracer: Tracer) -> dict[str, float]:
    """Single calls into each layer at workload size, timed directly."""
    p = b.problem
    csr, csc = p.dataset.csr, p.dataset.csc
    rng = np.random.default_rng(0)
    beta = rng.standard_normal(p.m)
    alpha = rng.standard_normal(p.n)
    out: dict[str, float] = {}
    with tracer.span("bench.probe.sparse", category="bench"):
        out["sparse.csr_matvec_s"] = _median_call(lambda: csr.matvec(beta), 21)
        out["sparse.csc_rmatvec_s"] = _median_call(lambda: csc.rmatvec(alpha), 21)
        products = csr.data * beta[csr.indices]
        out["sparse.segment_sums_s"] = _median_call(
            lambda: segment_sums(products, csr.indptr), 21
        )
    with tracer.span("bench.probe.objectives", category="bench"):
        out["objectives.gap_eval_s"] = _median_call(
            lambda: gap_and_objective(p, beta, "primal"), 11
        )
    factory = SequentialKernelFactory()
    with tracer.span("bench.probe.bind", category="bench"):
        out["solvers.bind_s"] = _median_call(
            lambda: (factory.bind_primal(csc, p.y, p.n, p.lam),
                     factory.bind_dual(csr, p.y, p.n, p.lam)),
            5,
        )
    with tracer.span("bench.probe.epoch", category="bench"):
        for form, bound, n_coords, shared_len in (
            ("primal", factory.bind_primal(csc, p.y, p.n, p.lam), p.m, p.n),
            ("dual", factory.bind_dual(csr, p.y, p.n, p.lam), p.n, p.m),
        ):
            weights = np.zeros(n_coords)
            shared = np.zeros(shared_len)
            perm = rng.permutation(n_coords)
            out[f"solvers.{form}_epoch_s"] = _median_call(
                lambda: bound.run_epoch(weights, shared, perm, rng), 5
            )

    # computed bytes moved: CSR matvec reads values, column indices and row
    # pointers, gathers one x per nonzero and writes one y per row; a primal
    # SCD epoch streams every column once, gathers w for the dot and
    # read-modify-writes w for the update, plus four per-coordinate scalars
    idx, val = csr.indices.itemsize, csr.data.itemsize
    nnz = p.dataset.nnz
    out["sparse.matvec_bytes"] = float(
        nnz * (idx + 2 * val) + (p.n + 1) * csr.indptr.itemsize + p.n * val
    )
    out["solvers.nnz_per_epoch"] = float(nnz)
    out["solvers.bytes_per_epoch"] = float(
        nnz * (idx + 4 * val) + (p.m + 1) * csc.indptr.itemsize + 4 * p.m * val
    )
    return out


def wave_probes(b: bench.Bench) -> dict[str, float]:
    """Per-wave and per-merge spans need wave detail: two short solves."""
    tracer = Tracer(detail="wave")
    for engine in bench.ENGINES[1:3]:  # syscd, tpa-scd
        bench.solve(b.problem, engine, target=0.0, cap=2, seed=b.seeds[0][0],
                    wave=b.wave, tracer=tracer)
    spans = list(tracer.walk())
    return {
        "gpu.wave_p50_s": _median(_walls(spans, "tpa.wave")),
        "syscd.merge_s": _median(_walls(spans, "syscd.merge")),
    }


def traced_run(b: bench.Bench, seconds: float, tally: bench.Tally,
               trace_path: Path) -> tuple[dict[str, float], dict]:
    """Per-layer metrics from traced rounds, probes and span rollups."""
    tracer = Tracer()
    w = b.workload
    with tracer.span("bench.generate", category="bench"):
        t0 = time.perf_counter()
        bench.build_problem(w)
        generate_s = time.perf_counter() - t0

    # the first round on a seed also fills caches (plans, arrival times);
    # the second is the untraced reference for the tracing overhead
    b.round(*b.seeds[0], tally)
    t0 = time.perf_counter()
    b.round(*b.seeds[0], tally)
    untraced_s = time.perf_counter() - t0

    measured = b.measure(seconds, tally, tracer)
    solves = [s for round_solves, _ in measured for s in round_solves]
    replays = [r for _, r in measured]
    rounds = [s for s in tracer.roots if s.name == "bench.round"]

    m = dict(probes(b, tracer))
    m.update(wave_probes(b))
    n = len(rounds)
    counters = tracer.metrics.as_dict()["counters"]
    gauges = tracer.metrics.as_dict()["gauges"]
    per_round = lambda key: counters.get(key, 0.0) / n  # noqa: E731

    spans = [s for r in rounds for s in r.walk()]
    m["data.generate_s"] = generate_s
    m["objectives.gap_evals"] = len(_walls(spans, "gap_eval")) / n
    m["solvers.updates"] = per_round("scd.updates")

    engines = {e.solver: e for e in bench.ENGINES}
    m["syscd.ttg_s"] = bench.time_to_gap(solves, engines["syscd"])
    m["cluster.proc.ttg_s"] = bench.time_to_gap(solves, engines["mp"])
    syscd = list(_engine_spans(rounds, "syscd"))
    m["syscd.epoch_s"] = _median(_walls(syscd, "epoch"))
    m["syscd.merges"] = per_round("syscd.merges")
    m["syscd.buckets"] = per_round("syscd.buckets")
    divergence = tracer.metrics.histogram("syscd.merge_divergence")
    m["syscd.merge_divergence"] = divergence.quantile(0.5) if divergence else 0.0

    m["gpu.epoch_s"] = _median(_walls(_engine_spans(rounds, "tpa-scd"), "tpa.epoch"))
    for key in ("gpu.waves", "gpu.atomic_conflicts", "gpu.nnz_processed",
                "gpu.plan_cache.hits", "gpu.plan_cache.misses"):
        m[key] = per_round(key)
    m["pool.bytes_reused"] = float(gauges.get("pool.bytes_reused", 0.0))

    dist = list(_engine_spans(rounds, "distributed"))
    m["cluster.round_s"] = _median(_walls(dist, "epoch"))
    m["cluster.local_compute_s"] = _median(_walls(dist, "local_compute"))
    m["cluster.aggregate_s"] = _median(_walls(dist, "aggregate"))
    m["cluster.rounds"] = len(_walls(dist, "epoch")) / n
    m["cluster.comm_bytes_per_round"] = (
        counters.get("comm.bytes_reduced", 0.0) + counters.get("comm.bytes_broadcast", 0.0)
    ) / max(1, len(_walls(dist, "epoch")))
    m["core.gamma_p50"] = _median(
        g for s in solves if s.engine == "distributed" for g in s.gammas
    )
    proc = [s for s in _engine_spans(rounds, "mp") if s.name == "mp.train"]
    m["cluster.proc.round_s"] = _median(
        c.wall_seconds for s in proc for c in s.children if c.name == "epoch"
    )
    m["cluster.proc.overhead_s"] = _median(
        s.wall_seconds - sum(c.wall_seconds for c in s.children) for s in proc
    )

    submits = [s for s in spans if s.name == "bench.submit"]
    m["serve.admit_s"] = _median(s.wall_seconds for s in submits if not s.children)
    batches = _walls(spans, "serve.batch")
    m["serve.batch_p50_s"] = bench.percentile(batches, 50) if batches else 0.0
    m["serve.batch_p99_s"] = bench.percentile(batches, 99) if batches else 0.0
    m["serve.batches"] = len(batches) / n
    served = sum(r.requests - r.shed for r in replays)
    m["serve.batch_fill"] = served / sum(r.batches for r in replays) / b.traffic.config.max_batch
    m["serve.shed"] = sum(r.shed for r in replays) / n
    m["serve.swaps"] = sum(r.swaps for r in replays) / n
    m["serve.publish_s"] = _median(_walls(spans, "bench.publish"))
    m["serve.model_latency_p99_s"] = statistics.fmean(r.model_latency_p99_s for r in replays)

    m["obs.trace_overhead_ratio"] = _median(
        r.wall_seconds for r in rounds if r.attrs["seed"] == b.seeds[0][0]
    ) / untraced_s
    for layer, secs in _self_times(rounds).items():
        m[f"self.{layer}_s"] = secs / n

    doc = chrome_trace(tracer, metadata={"workload": w.name, "rounds": n})
    validate_chrome_trace(doc)
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(doc))
    detail = {
        "rounds": n,
        "chrome_trace": str(trace_path),
        "round_walls_s": [r.wall_seconds for r in rounds],
        "untraced_round_s": untraced_s,
        "solves": [vars(s) for s in solves],
    }
    return {k: float(m.get(k, 0.0)) for k in PER_LAYER}, detail
