"""Wall-clock benchmark of the reproduction: one command, one workload.

    python3 perfbench/run.py --workload full --seed 1 --seconds 50 --trace 0

Runs every phase (primal-single, dual-distributed, train-serve) of the named
workload from this process, checks the outputs, prints every metric by
name with its unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured untraced;
``--trace 1`` reports the per-layer metrics of a traced run and writes a
Chrome trace.  The full record (host fingerprint, every per-solve and
per-round sample, the failure breakdown) goes to ``.perfbench/`` under the
working directory.  Workloads, seeds and the metric map are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: the workload seed used unless --seed is given; README.md names the
#: held-out seed for confirming a later claim
DEFAULT_SEED = 1
#: fresh-interpreter set-ups per untraced run; ``setup_s`` is their median
SETUP_REPS = 5


def numba_version() -> str | None:
    """numba's version if it imports, else None.  An installed numba that
    fails to import counts as absent: SySCD's ``auto`` backend then falls
    back to numpy, and the record must name the kernel that ran."""
    try:
        import numba
    except Exception:  # noqa: BLE001 - any import failure means numpy kernels
        return None
    return numba.__version__


def host_fingerprint() -> dict:
    """Enough about the host that every number names where it ran."""
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                "",
            )
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model or platform.processor(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": numba_version(),
        "gcc": shutil.which("gcc") is not None,
    }


def measure_setup(workload, reps: int = SETUP_REPS) -> list[float]:
    """Seconds of each of ``reps`` cold set-ups, each in a fresh interpreter."""
    spec = json.dumps(dataclasses.asdict(workload))
    out = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), spec],
            capture_output=True, text=True, check=True, timeout=120,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks since boot; steal is time the hypervisor
    gave this machine's CPUs to someone else.  (0, 0) where unknown."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Measure one workload; returns the full record, ``result`` included."""
    import bench

    record = {"host": host_fingerprint(), "workload": dataclasses.asdict(workload),
              "seed": seed, "seconds": seconds, "trace": trace}
    tally = bench.Tally()
    steal0, total0 = cpu_ticks()
    if trace:
        import layers

        b = bench.Bench(workload, seed)
        trace_path = out_dir / f"{workload.name}-seed{seed}.trace.json"
        metrics, record["traced"] = layers.traced_run(b, seconds, tally, trace_path)
        units = layers.PER_LAYER
    else:
        record["setup_s_samples"] = measure_setup(workload)
        b = bench.Bench(workload, seed)
        rounds = b.measure(seconds, tally)
        metrics = bench.end_to_end(
            rounds, statistics.median(record["setup_s_samples"]), peak_rss_mb()
        )
        record["ungated"] = {k: metrics[k] for k in bench.UNGATED}
        record["samples"] = [
            {
                "solves": [vars(s) for s in solves],
                "replay": vars(r),
            }
            for solves, r in rounds
        ]
        units = bench.END_TO_END
    steal1, total1 = cpu_ticks()
    record["host"]["cpu_steal_share"] = (steal1 - steal0) / max(1, total1 - total0)
    record["seeds"] = b.seeds
    record["failures"] = dict(tally.failures)
    record["result"] = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(bench.WORKLOADS)}")
    out_dir = Path.cwd() / ".perfbench"
    record = run(bench.WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace), out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    detail = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(record, indent=1))

    result = record["result"]
    for name, m in result["metrics"].items():
        print(f"{name:<32} {m['value']:>16.6g} {m['unit']}")
    for name, value in record.get("ungated", {}).items():
        print(f"{name:<32} {value:>16.6g} {bench.UNGATED[name]}  (not gated: needs both cores)")
    ratio = result["failed"] / result["attempted"]
    print(f"{'fail_ratio':<32} {ratio:>16.6g} 1  "
          f"({result['failed']}/{result['attempted']}: {record['failures'] or 'none'})")
    print("host: " + ", ".join(f"{k}={v}" for k, v in record["host"].items()))
    print(f"record: {detail}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
