"""Time one set-up: import ``repro`` and build a workload's problems.

Run as ``python3 synthbench/probe_setup.py WORKLOAD`` in a fresh
interpreter; prints the seconds taken.  ``run.py`` runs it several times
and reports the median as ``setup_s``.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from workloads import BY_NAME  # noqa: E402  (imports no repro module)


def main() -> None:
    workload = BY_NAME[sys.argv[1]]
    start = time.perf_counter()
    import repro  # noqa: F401
    from repro.bench.runner import make_solver

    for benchmark in workload.benchmarks():
        benchmark.problem()
    make_solver(workload.solver, workload.budget_s)
    elapsed = time.perf_counter() - start
    print(repr(elapsed))


if __name__ == "__main__":
    main()
