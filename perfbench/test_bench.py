"""Smoke test of the benchmark at tiny size.

    python3 -m pytest perfbench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from repro.obs import validate_chrome_trace  # noqa: E402
from repro.serve import ModelServer, SnapshotHub, WeightSnapshot  # noqa: E402
from repro.serve.traffic import RequestSource  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(workload: bench.Workload) -> bench.Workload:
    """The workload at the figure experiments' ``tiny`` size, one seed in the list."""
    return dataclasses.replace(
        workload, n_examples=400, n_features=1_200, nnz_per_example=20,
        solve_seeds=(0,), requests_per_round=1_000,
    )


def test_code_declares_what_benchmark_json_declares():
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in DECLARED["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_every_workload_reports_every_metric_with_its_unit(name, trace, tmp_path):
    record = run.run(tiny(bench.WORKLOADS[name]), 3, 0.0, trace, tmp_path)
    result = record["result"]
    declared = layers.PER_LAYER if trace else bench.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    values = [m["value"] for m in result["metrics"].values()]
    assert all(math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    else:
        validate_chrome_trace(json.loads(Path(record["traced"]["chrome_trace"]).read_text()))
    assert result["correct"], record["failures"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert record["host"]["cores"] >= 1


def test_a_forced_miss_of_the_gap_target_raises_fail_ratio(tmp_path):
    workload = tiny(bench.WORKLOADS["quick"])
    base = run.run(workload, 3, 0.0, False, tmp_path)["result"]
    capped = dataclasses.replace(workload, primal_cap=1, dual_cap=1)
    missed = run.run(capped, 3, 0.0, False, tmp_path)
    result = missed["result"]
    assert not result["correct"]
    assert missed["failures"]["solve_miss"] == len(bench.ENGINES)
    assert result["failed"] / result["attempted"] > base["failed"] / base["attempted"]


def test_the_audit_flags_a_wrong_score_and_a_lost_request():
    workload = dataclasses.replace(tiny(bench.WORKLOADS["quick"]), requests_per_round=50)
    problem = bench.build_problem(workload)
    traffic = bench.Traffic(workload, problem)
    hub = SnapshotHub()
    weights = np.random.default_rng(0).standard_normal(problem.m)
    hub.publish(WeightSnapshot(version=1, weights=weights))
    server = ModelServer(None, hub=hub)
    for chunk in traffic.chunks(5):
        for req in chunk:
            server.submit(req)
    responses = server.drain()
    assert bench.audit(50, responses, hub, problem.dataset.csr) == (0, 0)
    wrong = dataclasses.replace(responses[0], scores=responses[0].scores + 1e-12)
    tampered = [wrong] + responses[2:]
    assert bench.audit(50, tampered, hub, problem.dataset.csr) == (1, 1)


def test_chunked_traffic_is_the_seeded_trace():
    workload = dataclasses.replace(tiny(bench.WORKLOADS["quick"]), requests_per_round=1_200)
    problem = bench.build_problem(workload)
    traffic = bench.Traffic(workload, problem)
    chunks = [list(traffic.chunks(5)) for _ in range(2)]
    assert [len(c) for c in chunks[0]] == [500, 500, 200]
    first, again = ([r for c in cs for r in c] for cs in chunks)
    source = RequestSource(problem.dataset.csr, seed=5,
                           rows_per_request=workload.rows_per_request)
    whole = source.requests(traffic.arrivals(5))
    for a, b, c in zip(first, again, whole, strict=True):
        assert a.request_id == b.request_id == c.request_id
        assert np.array_equal(a.row_ids, b.row_ids) and np.array_equal(a.row_ids, c.row_ids)
        assert a.arrival_s == c.arrival_s


def test_a_divergent_solve_lands_in_fail_ratio():
    # TPA-SCD on the dual at the default resident wave: every update in a
    # wave is stale, and at this size the gap is non-finite by epoch ~20
    workload = bench.WORKLOADS["full"]
    problem = bench.build_problem(workload)
    engine = bench.Engine("tpa-scd", "ttg_tpa_s", "dual")
    with np.errstate(all="ignore"):
        s = bench.solve(problem, engine, target=workload.dual_gap, cap=30, seed=0)
    tally = bench.Tally()
    tally.record_solve(s)
    assert not math.isfinite(s.gap)
    assert tally.failures == {"solve_miss": 1}
    assert not tally.correct


def test_without_the_program_source_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quick", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
