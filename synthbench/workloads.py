"""The four benchmark workloads: which problems, which solver, which budget.

Problem names come from ``repro.bench.suite.full_suite()``.  Nothing here
imports ``repro`` at module import time, so the set-up probe can time the
import itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: The five demo-subset problems ``dryadsynth`` does not solve within 2 s.
FRONTIER = ("clamp", "array_search_2", "array_search_3", "qm-max3", "qm-min3")

#: Problems the ``eusolver`` baseline solves at 10 s per the campaign cache
#: (``bench_results.json``).  Fixed here so the workload does not follow
#: later edits of that cache.
EUSOLVER_SOLVED = (
    "abs", "abs-diff", "abs-diff-step1", "array_search_2", "array_search_3",
    "band-0", "band-2", "band-5", "cap-clip10", "clamp", "count-down-100",
    "count-down-16", "count-down-64", "count-down-8", "double-2", "double-3",
    "double-4", "drift-16", "drift-8", "hold-16", "hold-8", "linear-comb",
    "max2", "max2-commutative", "max2-plus-1", "max2-plus-3", "max3", "min2",
    "min3", "nat-abs", "nat-max2", "nat-relu", "no-const-max2", "plus-two",
    "qm-abs", "qm-clip0", "qm-diff-or-zero", "qm-floor0", "qm-id", "qm-max2",
    "qm-min2", "qm-relu", "qm-shifted-abs", "qm-sign-split", "qm-sum",
    "relu-sum", "saturating-sub", "signum", "tie-break",
)

SUITE_HARD = (
    "qm-floor0", "qm-max2", "range-init-64", "step2-64", "array_search_2",
    "clamp", "qm-min3",
)


@dataclass(frozen=True)
class Workload:
    name: str
    solver: str
    budget_s: float
    #: Suite names, or ``"demo"`` for the 85-problem demo subset.
    problems: object
    #: Traced runs add a pass of the non-frontier problems under
    #: ``obs.recording()`` plus a ``StackSampler``.
    obs_pass: bool
    why: str

    def benchmarks(self):
        """The workload's ``Benchmark`` objects, in suite order."""
        from repro.bench.quick_bench import demo_subset
        from repro.bench.suite import full_suite

        if self.problems == "demo":
            return demo_subset()
        by_name = {b.name: b for b in full_suite()}
        return [by_name[name] for name in self.problems]


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "demo-2s", "dryadsynth", 2.0, "demo", True,
        "the 85-problem demo subset at 2 s: the canonical end to end, where "
        "the frontier five show as unsolved and the work spreads over SMT, "
        "SAT, Tseitin, LIA and deduction",
    ),
    Workload(
        "suite-hard", "dryadsynth", 20.0, SUITE_HARD, False,
        "the suite's stragglers at a 20 s budget: the LIA workload "
        "(check_lia and simplex dominate), including the qm-min3 error",
    ),
    Workload(
        "eusolver-enum", "eusolver", 10.0, EUSOLVER_SOLVED, False,
        "the enumerative baseline on the 49 problems it solves: compile_term "
        "and term enumeration dominate and SMT is under 3%, so it bypasses "
        "SMT-layer changes",
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
