"""Independent answer check, run outside the timed region.

Two paths, both independent of the engine and query memo that produced the
answer:

- **SMT:** a fresh ``SmtSolver(memo=None)`` proves ``not(spec[f := body])``
  unsat;
- **concrete:** the spec is evaluated on a small integer grid through
  ``repro.lang.evaluator.evaluate``, with no SMT involved.

An answer either path rejects is a failure of the run, not a statistic.
"""

from __future__ import annotations

import itertools
import time
from typing import List, Optional

#: Values every grid variable tries first; spec constants (and their
#: neighbours) follow while the grid stays under :data:`MAX_GRID_POINTS`.
BASE_VALUES = (0, 1, -1, 2, -2, 3)
MAX_GRID_POINTS = 2048
SMT_CHECK_SECONDS = 60.0


def _grid_values(problem) -> List[int]:
    from repro.lang.ast import Kind
    from repro.lang.sorts import INT
    from repro.lang.traversal import subexpressions

    values = list(BASE_VALUES)
    constants = sorted(
        {sub.payload for sub in subexpressions(problem.spec)
         if sub.kind is Kind.CONST and sub.sort is INT},
        key=lambda c: (abs(c), c),
    )
    for constant in constants:
        for value in (constant, constant - 1, constant + 1):
            if value not in values:
                values.append(value)
    return values


def check_concrete(problem, body) -> Optional[str]:
    """Evaluate the spec with ``f := body`` on a grid; None when it holds."""
    from repro.lang.evaluator import EvaluationError, evaluate
    from repro.lang.sorts import BOOL

    names = [v.payload for v in problem.variables]
    ints = [v.payload for v in problem.variables if v.sort is not BOOL]
    per_var = max(2, int(MAX_GRID_POINTS ** (1.0 / max(1, len(ints)))))
    int_values = _grid_values(problem)[:per_var]
    axes = [
        (False, True) if v.sort is BOOL else int_values
        for v in problem.variables
    ]
    funcs = dict(problem.interpreted_defs())
    funcs[problem.fun_name] = (problem.synth_fun.params, body)
    for point in itertools.product(*axes):
        env = dict(zip(names, point))
        try:
            holds = evaluate(problem.spec, env, funcs)
        except EvaluationError as exc:
            return f"evaluation error at {env}: {exc}"
        if holds is not True:
            return f"spec false at {env}"
    return None


def check_smt(problem, body) -> Optional[str]:
    """Prove the spec valid with ``f := body``; None when it is."""
    from repro.lang.builders import not_
    from repro.smt.solver import SmtSolver, SolverBudgetExceeded

    try:
        formula = problem.instantiate(problem.inline_interpreted(body))
    except ValueError as exc:
        return f"cannot instantiate: {exc}"
    solver = SmtSolver(
        deadline=time.monotonic() + SMT_CHECK_SECONDS, memo=None
    )
    try:
        result = solver.check(not_(formula))
    except SolverBudgetExceeded as exc:
        return f"validity not decided: {exc}"
    if result.is_unsat:
        return None
    return f"counterexample {result.model}"


def check_answer(problem, body) -> Optional[str]:
    """None when both paths accept ``body``, else the first rejection."""
    return check_concrete(problem, body) or check_smt(problem, body)
