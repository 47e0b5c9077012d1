"""Exact rational simplex for bound-constrained linear variables.

This is the general simplex of Dutertre and de Moura ("A fast linear-
arithmetic solver for DPLL(T)", CAV 2006): variables carry optional
lower/upper bounds, auxiliary (slack) variables are defined as linear
combinations of the originals, and a Bland-rule pivoting loop either finds
an assignment within all bounds or reports a conflicting set of bounds (the
infeasibility explanation used for DPLL(T) lemmas).

Bounds live on a trail: :meth:`Simplex.mark` names a point in it and
:meth:`Simplex.backtrack` restores the bounds in force there.  Nonbasic
variables always sit within their bounds, and backtracking only loosens
bounds, so the assignment and basis need no repair: the next :meth:`check`
starts from wherever the last one left off.  Branch-and-bound and core
minimisation use this to share one tableau per theory check.

Arithmetic uses the tuple rationals of :mod:`repro.smt.rational` rather than
``fractions.Fraction``; the public interface speaks ``numbers.Rational``
(:class:`Bound` values and slack coefficients may be ``int`` or ``Fraction``;
:meth:`value` returns a ``Fraction``).
"""

from __future__ import annotations

#: Process-wide pivot tally (index 0), read by the telemetry layer: the SMT
#: driver reports per-query deltas of :func:`pivots_total` as the
#: ``smt.simplex_pivots`` metric.  A bare list keeps the hot-path cost to a
#: single indexed increment.
_PIVOT_TALLY = [0]


def pivots_total() -> int:
    """Simplex pivots performed by this process since import."""
    return _PIVOT_TALLY[0]

from fractions import Fraction
from math import gcd
from numbers import Rational
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.smt.rational import Rat, ZERO, from_fraction, rfma, rlt, rnorm, to_fraction


class Bound(NamedTuple):
    """A bound ``var >= value`` (lower) or ``var <= value`` (upper).

    ``tag`` identifies the asserting atom for conflict explanations; ``None``
    marks artificial bounds (e.g. small-model boxes) that are dropped from
    explanations.  A named tuple, as branch-and-bound makes one per
    constraint per check.
    """

    var: int
    is_lower: bool
    value: Rational
    tag: Optional[object] = None


class Conflict(Exception):
    """Raised when the asserted bounds are jointly infeasible."""

    def __init__(self, bounds: Sequence[Bound]):
        super().__init__("infeasible bounds")
        self.bounds = list(bounds)


class Simplex:
    """Feasibility checker for a system of bounded linear variables.

    Usage: create variables with :meth:`new_var`, define slack variables with
    :meth:`new_slack`, assert bounds with :meth:`assert_bound`, then call
    :meth:`check`.  Bracket temporary bounds with :meth:`mark` and
    :meth:`backtrack`.
    """

    def __init__(self) -> None:
        self._num_vars = 0
        # Tableau: basic var -> {nonbasic var: coeff}.
        self._rows: Dict[int, Dict[int, Rat]] = {}
        self._is_basic: List[bool] = []
        self._lower: List[Optional[Bound]] = []
        self._upper: List[Optional[Bound]] = []
        self._lower_val: List[Optional[Rat]] = []
        self._upper_val: List[Optional[Rat]] = []
        self._assign: List[Rat] = []
        # Bound trail: (var, is_lower, previous bound).
        self._trail: List[Tuple[int, bool, Optional[Bound]]] = []

    def new_var(self) -> int:
        index = self._num_vars
        self._num_vars += 1
        self._is_basic.append(False)
        self._lower.append(None)
        self._upper.append(None)
        self._lower_val.append(None)
        self._upper_val.append(None)
        self._assign.append(ZERO)
        return index

    def new_slack(self, combo: Dict[int, Rational]) -> int:
        """A fresh basic variable defined as ``sum(coeff * var)``."""
        index = self.new_var()
        rows = self._rows
        is_basic = self._is_basic
        row: Dict[int, Rat] = {}
        for var, rational_coeff in combo.items():
            coeff = from_fraction(rational_coeff)
            if not coeff[0]:
                continue
            if not is_basic[var] and var not in row:
                row[var] = coeff
                continue
            terms = rows[var].items() if is_basic[var] else ((var, (1, 1)),)
            for inner_var, inner_coeff in terms:
                merged = rfma(row.get(inner_var, ZERO), coeff, inner_coeff)
                if merged[0]:
                    row[inner_var] = merged
                else:
                    row.pop(inner_var, None)
        value = ZERO
        assign = self._assign
        for var, coeff in row.items():
            value = rfma(value, coeff, assign[var])
        rows[index] = row
        is_basic[index] = True
        assign[index] = value
        return index

    def assert_bound(self, bound: Bound) -> None:
        """Assert a bound, keeping only the strongest per direction."""
        value = from_fraction(bound.value)
        store_val = self._lower_val if bound.is_lower else self._upper_val
        store = self._lower if bound.is_lower else self._upper
        current = store_val[bound.var]
        if current is not None:
            if bound.is_lower and not rlt(current, value):
                return
            if not bound.is_lower and not rlt(value, current):
                return
        opposite_val = (
            self._upper_val[bound.var] if bound.is_lower else self._lower_val[bound.var]
        )
        if opposite_val is not None:
            opposite = (
                self._upper[bound.var] if bound.is_lower else self._lower[bound.var]
            )
            if bound.is_lower and rlt(opposite_val, value):
                raise Conflict([bound, opposite])
            if not bound.is_lower and rlt(value, opposite_val):
                raise Conflict([bound, opposite])
        var = bound.var
        self._trail.append((var, bound.is_lower, store[var]))
        store[var] = bound
        store_val[var] = value
        if not self._is_basic[var]:
            if bound.is_lower and rlt(self._assign[var], value):
                self._update(var, value)
            elif not bound.is_lower and rlt(value, self._assign[var]):
                self._update(var, value)

    def mark(self) -> int:
        """A point in the bound trail to :meth:`backtrack` to."""
        return len(self._trail)

    def backtrack(self, mark: int) -> None:
        """Restore the bounds that were in force at ``mark``."""
        trail = self._trail
        while len(trail) > mark:
            var, is_lower, bound = trail.pop()
            value = None if bound is None else from_fraction(bound.value)
            if is_lower:
                self._lower[var] = bound
                self._lower_val[var] = value
            else:
                self._upper[var] = bound
                self._upper_val[var] = value

    def _update(self, nonbasic: int, value: Rat) -> None:
        old_num, old_den = self._assign[nonbasic]
        delta_num = value[0] * old_den - old_num * value[1]
        if not delta_num:
            return
        delta = rnorm(delta_num, value[1] * old_den)
        assign = self._assign
        assign[nonbasic] = value
        for basic, row in self._rows.items():
            coeff = row.get(nonbasic)
            if coeff is not None:
                assign[basic] = rfma(assign[basic], coeff, delta)

    def _pivot_and_update(self, basic: int, nonbasic: int, value: Rat) -> None:
        """Move ``basic`` to ``value`` and swap it with ``nonbasic``.

        One sweep over the other rows both updates their assignments and
        substitutes ``nonbasic`` out of them; the arithmetic is inlined, as
        this loop is where the simplex spends its time.
        """
        _PIVOT_TALLY[0] += 1
        rows = self._rows
        assign = self._assign
        row = rows.pop(basic)
        coeff_num, coeff_den = row.pop(nonbasic)
        # theta = (value - assign[basic]) / coeff moves ``nonbasic``.
        basic_num, basic_den = assign[basic]
        theta = rnorm(
            (value[0] * basic_den - basic_num * value[1]) * coeff_den,
            value[1] * basic_den * coeff_num,
        )
        assign[basic] = value
        assign[nonbasic] = rfma(assign[nonbasic], (1, 1), theta)
        # basic = coeff * nonbasic + rest  =>  nonbasic = (basic - rest)/coeff
        new_row: Dict[int, Rat] = {basic: rnorm(coeff_den, coeff_num)}
        for var, (num, den) in row.items():
            new_row[var] = rnorm(-num * coeff_den, den * coeff_num)
        self._is_basic[basic] = False
        self._is_basic[nonbasic] = True
        for other, other_row in rows.items():
            factor = other_row.pop(nonbasic, None)
            if factor is None:
                continue
            assign[other] = rfma(assign[other], factor, theta)
            factor_num, factor_den = factor
            for var, (num, den) in new_row.items():
                num *= factor_num
                den *= factor_den
                old = other_row.get(var)
                if old is not None:
                    if old[1] == den:
                        num += old[0]
                    else:
                        num = old[0] * den + num * old[1]
                        den *= old[1]
                    if not num:
                        del other_row[var]
                        continue
                if den != 1:
                    g = gcd(num, den)
                    if g != 1:
                        num //= g
                        den //= g
                other_row[var] = (num, den)
        rows[nonbasic] = new_row

    def check(self) -> bool:
        """Pivot until all bounds hold.

        Returns True and leaves a feasible assignment in place, or raises
        :class:`Conflict` carrying the explanation bounds.
        """
        while True:
            violated = self._find_violated_basic()
            if violated is None:
                return True
            basic, need_increase = violated
            row = self._rows[basic]
            target = (
                self._lower_val[basic] if need_increase else self._upper_val[basic]
            )
            assert target is not None
            pivot_var = self._find_pivot(row, need_increase)
            if pivot_var is None:
                raise Conflict(self._explain(basic, need_increase))
            self._pivot_and_update(basic, pivot_var, target)

    def _find_violated_basic(self) -> Optional[Tuple[int, bool]]:
        # Bland's rule: smallest index first, guaranteeing termination.
        lower_val = self._lower_val
        upper_val = self._upper_val
        assign = self._assign
        best = -1
        need_increase = False
        for basic in self._rows:
            if best >= 0 and basic >= best:
                continue
            num, den = assign[basic]
            lower = lower_val[basic]
            if lower is not None and num * lower[1] < lower[0] * den:
                best, need_increase = basic, True
                continue
            upper = upper_val[basic]
            if upper is not None and upper[0] * den < num * upper[1]:
                best, need_increase = basic, False
        return None if best < 0 else (best, need_increase)

    def _find_pivot(self, row: Dict[int, Rat], need_increase: bool) -> Optional[int]:
        best = None
        for nonbasic, coeff in row.items():
            if best is not None and nonbasic >= best:
                continue
            positive = coeff[0] > 0
            if need_increase:
                can_help = (positive and self._can_increase(nonbasic)) or (
                    not positive and self._can_decrease(nonbasic)
                )
            else:
                can_help = (positive and self._can_decrease(nonbasic)) or (
                    not positive and self._can_increase(nonbasic)
                )
            if can_help:
                best = nonbasic
        return best

    def _can_increase(self, var: int) -> bool:
        upper = self._upper_val[var]
        return upper is None or rlt(self._assign[var], upper)

    def _can_decrease(self, var: int) -> bool:
        lower = self._lower_val[var]
        return lower is None or rlt(lower, self._assign[var])

    def _explain(self, basic: int, need_increase: bool) -> List[Bound]:
        """Bounds responsible for the infeasibility of ``basic``'s row."""
        explanation: List[Bound] = []
        own = self._lower[basic] if need_increase else self._upper[basic]
        assert own is not None
        explanation.append(own)
        for nonbasic, coeff in self._rows[basic].items():
            positive = coeff[0] > 0
            if need_increase:
                blocking = self._upper[nonbasic] if positive else self._lower[nonbasic]
            else:
                blocking = self._lower[nonbasic] if positive else self._upper[nonbasic]
            assert blocking is not None, "pivot search said this bound blocks"
            explanation.append(blocking)
        return explanation

    def value(self, var: int) -> Fraction:
        return to_fraction(self._assign[var])

    def raw_value(self, var: int) -> Rat:
        return self._assign[var]

    @property
    def num_vars(self) -> int:
        return self._num_vars
