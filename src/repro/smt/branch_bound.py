"""Integer feasibility for conjunctions of linear constraints.

Layered on the rational simplex: solve the LP relaxation, then branch on a
variable with a fractional value (``x <= floor(v)`` versus ``x >= ceil(v)``).
Completeness over the integers is guaranteed by a small-model bounding box
(Papadimitriou 1981: a feasible integer system has a solution within
``n * (m * a)^(2m+1)``), which turns branch-and-bound into a finite search.

The result is either an integer model or an *unsat core*: a subset of the
input constraint tags whose conjunction is LIA-infeasible.  Cores drive the
DPLL(T) lemma generation in :mod:`repro.smt.solver`.

Every check runs on a :class:`LiaTableau`: one simplex tableau over a pool
of constraints.  A check asserts its constraints' bounds above a trail mark,
branches by pushing one bound and backtracking it, and backtracks to the
mark when done, so later checks on subsets of the same pool (the solver's
core minimisation) reuse the rows and warm-start from the last basis.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.smt.linear import LinExpr, max_abs_coefficient
from repro.smt.simplex import Bound, Conflict, Simplex


class BudgetExceeded(Exception):
    """Raised when branch-and-bound exceeds its node budget or depth limit."""


#: Deepest branch-and-bound path searched.  Branching warm-started from the
#: parent's basis can follow an unbounded ray of the LP relaxation one
#: integer step per level until the node budget runs out, holding a branch
#: point and a trail entry per level (a 20000-node dive held about 6 MB).
#: Genuine paths stay shallower: ``1000x + 999y = 1`` needs about 2000.
_MAX_DEPTH = 4096


LiaResult = Tuple[bool, Union[Dict[str, int], List[object]]]
Constraint = Tuple[LinExpr, object]


def check_lia(
    constraints: Sequence[Constraint],
    max_nodes: int = 20000,
    deadline: Optional[float] = None,
    tableau: Optional["LiaTableau"] = None,
) -> LiaResult:
    """Decide integer feasibility of ``{expr >= 0 for (expr, tag) in constraints}``.

    Returns ``(True, model)`` with an integer model, or ``(False, core)``
    where ``core`` is a list of tags of a jointly infeasible subset.

    ``tableau`` must have been built over a pool containing every
    constraint; checks on one tableau share its rows and basis.  Without
    one, a fresh tableau is built for ``constraints``.

    Raises:
        BudgetExceeded: when the node budget, the deadline or the depth
            limit runs out (should be rare; they exist to bound
            pathological branching).
    """
    real_constraints = []
    for expr, tag in constraints:
        if expr.coeffs:
            real_constraints.append((expr, tag))
        elif expr.const < 0:
            return False, [tag]
    if not real_constraints:
        return True, {}
    if tableau is None:
        tableau = LiaTableau(real_constraints)
    return tableau.check(real_constraints, max_nodes, deadline)


def _small_model_bound(constraints: Sequence[Constraint], num_vars: int) -> int:
    biggest = max_abs_coefficient(expr for expr, _ in constraints)
    m = len(constraints)
    n = max(num_vars, 1)
    # Papadimitriou's bound; cap the exponent so the integer stays tractable
    # while remaining astronomically above anything synthesis produces.
    exponent = min(2 * m + 1, 40)
    return n * (m * biggest + 1) ** exponent


def _names(constraints: Sequence[Constraint]) -> List[str]:
    return sorted({name for expr, _ in constraints for name, _ in expr.coeffs})


class _Branch:
    """An open branch point; also the tag of both of its branch bounds."""

    __slots__ = ("mark", "var", "floor", "low_core")

    def __init__(self, mark: int, var: int, floor: int) -> None:
        self.mark = mark
        self.var = var
        self.floor = floor
        self.low_core: Optional[List[object]] = None


class LiaTableau:
    """One simplex tableau over a pool of constraints.

    The tableau has a column per integer variable, boxed by the pool's small
    model bound (untagged, at the bottom of the bound trail), and one slack
    row per distinct multi-variable linear form.  Any subset of the pool can
    then be checked with :func:`check_lia` without building rows again: the
    pool's box is at least the subset's, so the search stays complete.  The
    tableau itself is built by the first check, so a round that
    :func:`check_lia` decides without one (a constant conflict) builds none.
    """

    def __init__(self, pool: Sequence[Constraint]) -> None:
        self._pool = [(expr, tag) for expr, tag in pool if expr.coeffs]
        self._simplex: Optional[Simplex] = None
        self._index: Dict[str, int] = {}
        self._slacks: Dict[Tuple[Tuple[str, int], ...], int] = {}
        self._nodes_left = 0
        self._deadline: Optional[float] = None

    def _build(self) -> Simplex:
        simplex = Simplex()
        names = _names(self._pool)
        box = _small_model_bound(self._pool, len(names))
        for name in names:
            var = self._index[name] = simplex.new_var()
            simplex.assert_bound(Bound(var, True, -box, None))
            simplex.assert_bound(Bound(var, False, box, None))
        for expr, _ in self._pool:
            if len(expr.coeffs) > 1 and expr.coeffs not in self._slacks:
                combo = {self._index[name]: c for name, c in expr.coeffs}
                self._slacks[expr.coeffs] = simplex.new_slack(combo)
        self._simplex = simplex
        return simplex

    def check(
        self,
        constraints: Sequence[Constraint],
        max_nodes: int,
        deadline: Optional[float],
    ) -> LiaResult:
        """Branch-and-bound over non-constant ``constraints`` from the pool."""
        names = _names(constraints)
        simplex = self._simplex or self._build()
        self._nodes_left = max_nodes
        self._deadline = deadline
        base = simplex.mark()
        try:
            outcome = self._search([self._bound(e, t) for e, t in constraints], names)
        finally:
            simplex.backtrack(base)
        if isinstance(outcome, dict):
            return True, outcome
        core: List[object] = []
        seen = set()
        for tag in outcome:
            if tag is not None and id(tag) not in seen:
                seen.add(id(tag))
                core.append(tag)
        return False, core

    def _bound(self, expr: LinExpr, tag: object) -> Bound:
        # expr >= 0  <=>  sum(c_i x_i) >= -const.
        if len(expr.coeffs) > 1:
            return Bound(self._slacks[expr.coeffs], True, -expr.const, tag)
        name, coeff = expr.coeffs[0]
        var = self._index[name]
        # Integer rounding: x >= ceil(-const / coeff) or x <= floor(...).
        if coeff > 0:
            return Bound(var, True, -(expr.const // coeff), tag)
        return Bound(var, False, expr.const // -coeff, tag)

    def _search(self, root: List[Bound], names: List[str]):
        """Depth-first branch-and-bound: an int model, or a list of core tags.

        Each open branch point remembers its trail mark; its low branch
        pushes ``x <= floor``, its high branch ``x >= floor + 1``, and each
        is backtracked before the next.  The cores of sibling branches are
        merged with the branch point's own tag stripped, which is sound: if
        ``A ∪ {x <= f}`` and ``B ∪ {x >= f+1}`` are both infeasible then
        ``A ∪ B`` forces ``f < x < f+1``, which no integer satisfies.
        """
        simplex = self._simplex
        stack: List[_Branch] = []
        outcome = self._node(root, names)
        while True:
            if isinstance(outcome, tuple):
                if len(stack) >= _MAX_DEPTH:
                    raise BudgetExceeded("branch-and-bound depth limit reached")
                point = _Branch(simplex.mark(), *outcome)
                stack.append(point)
                low = Bound(point.var, False, point.floor, point)
                outcome = self._node([low], names)
            elif isinstance(outcome, dict) or not stack:
                return outcome
            else:
                point = stack[-1]
                simplex.backtrack(point.mark)
                if point.low_core is None:
                    point.low_core = outcome
                    high = Bound(point.var, True, point.floor + 1, point)
                    outcome = self._node([high], names)
                else:
                    stack.pop()
                    outcome = [t for t in point.low_core if t is not point] + [
                        t for t in outcome if t is not point
                    ]

    def _node(self, bounds: List[Bound], names: List[str]):
        """Assert ``bounds`` and solve the LP relaxation.

        Returns an int model (dict), a conflict core (list of tags), or a
        branching request ``(var, floor_value)`` (tuple) when fractional.
        """
        if self._nodes_left <= 0:
            raise BudgetExceeded("branch-and-bound node budget exhausted")
        if self._deadline is not None and self._nodes_left % 32 == 0:
            if time.monotonic() > self._deadline:
                raise BudgetExceeded("branch-and-bound deadline exceeded")
        self._nodes_left -= 1
        simplex = self._simplex
        try:
            for bound in bounds:
                simplex.assert_bound(bound)
            simplex.check()
        except Conflict as conflict:
            return [bound.tag for bound in conflict.bounds]
        # Rational model found; branch on the most fractional variable.
        index = self._index
        model: Dict[str, int] = {}
        best = None
        best_score = (0, 1)  # distance to the nearest integer, num / den
        for name in names:
            num, den = simplex.raw_value(index[name])
            floor, rest = divmod(num, den)
            model[name] = floor
            if rest:
                gap = min(rest, den - rest)
                if best is None or gap * best_score[1] > best_score[0] * den:
                    best, best_score = (index[name], floor), (gap, den)
        return model if best is None else best
