"""One cold set-up, timed in a fresh interpreter; prints the seconds.

Usage: ``python3 perfbench/setup_probe.py '<workload fields as JSON>'``.  Set-up is
everything before the first solve or submit: importing the program,
generating the dataset, building both sparse layouts and the
``RidgeProblem``, and the first snapshot with the server reading it.
"""

import json
import sys
import time

t0 = time.perf_counter()
import bench  # noqa: E402 - the import is part of what is timed

workload = bench.Workload(**json.loads(sys.argv[1]))
problem = bench.build_problem(workload)
bench.first_server(problem)
print(time.perf_counter() - t0)
