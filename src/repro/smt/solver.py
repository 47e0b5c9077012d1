"""Lazy DPLL(T) driver: SAT abstraction + LIA theory checks.

The solver repeatedly asks the CDCL core for a boolean model of the formula's
skeleton, checks the implied conjunction of linear constraints for integer
feasibility, and — on theory conflict — adds the unsat core as a blocking
lemma.  This is the classic lemmas-on-demand architecture, sufficient and
complete for QF_LIA.
"""

from __future__ import annotations

import enum
import logging
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.obs.log import jlog

logger = logging.getLogger(__name__)
from repro.lang.ast import Kind, Term
from repro.lang.builders import not_
from repro.lang.simplify import simplify
from repro.lang.sorts import BOOL
from repro.lang.traversal import free_vars
from repro.smt import capture as _capture
from repro.smt import memo as _memo
from repro.smt.branch_bound import BudgetExceeded, LiaTableau, check_lia
from repro.smt.implicant import extract_implicant
from repro.smt.simplex import pivots_total
from repro.smt.tseitin import CnfEncoder

Value = Union[int, bool]


class Status(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class SolverBudgetExceeded(Exception):
    """The solver ran out of its round/node/time budget."""


@dataclass
class Result:
    """Outcome of a satisfiability check."""

    status: Status
    model: Optional[Dict[str, Value]] = None
    rounds: int = 0
    #: On an UNSAT outcome of ``solve(assumptions=...)``: the subset of the
    #: passed assumption terms whose conjunction with the assertions is
    #: unsatisfiable.  Empty means the assertions alone are unsat — no
    #: choice of assumptions can ever make the query satisfiable.
    unsat_core: Tuple[Term, ...] = ()

    @property
    def is_sat(self) -> bool:
        return self.status is Status.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is Status.UNSAT


@dataclass
class SmtStats:
    """Cumulative statistics over a solver's lifetime."""

    checks: int = 0
    rounds: int = 0
    theory_conflicts: int = 0
    #: Theory lemmas asserted as permanent blocking clauses.
    lemmas: int = 0


class SmtSolver:
    """An incremental QF_LIA satisfiability checker.

    Assertions (and the clauses, atom canonicalisation and learned theory
    lemmas derived from them) accumulate across :meth:`check`/:meth:`solve`
    calls on one instance — CEGIS-style loops that strengthen a query keep
    everything already derived.  Use :meth:`reset` (or a fresh instance, as
    :func:`check_sat`/:func:`is_valid` do) for isolated one-shot checks.

    Two mechanisms scope assertions without discarding solver state:

    - :meth:`solve` accepts *assumptions* — Bool terms required for that
      call only.  An UNSAT answer then carries the unsat assumption core.
    - :meth:`push`/:meth:`pop` open and close assertion scopes, implemented
      with activation literals so popped clauses are disabled, never
      removed, and everything learned while they were active survives.
    """

    #: Sentinel: "use the process-wide default query memo".
    USE_DEFAULT_MEMO = object()

    def __init__(
        self,
        max_rounds: int = 100000,
        lia_node_budget: int = 20000,
        deadline: Optional[float] = None,
        memo: object = USE_DEFAULT_MEMO,
    ) -> None:
        self.max_rounds = max_rounds
        self.lia_node_budget = lia_node_budget
        self.deadline = deadline
        self.stats = SmtStats()
        self._encoder = CnfEncoder()
        self._trivially_false = False
        self._scopes: List[int] = []  # activation literal per open scope
        self._scope_marks: List[int] = []  # encoder.asserted length at push
        if memo is SmtSolver.USE_DEFAULT_MEMO:
            memo = _memo.default_memo()
        self.memo: Optional[_memo.QueryMemo] = memo  # type: ignore[assignment]
        self._scopes_used = False
        # Incremental fingerprint state over the asserted-formula prefix
        # (see :meth:`_memo_key`); rebuilt from scratch after a pop().
        self._fp_state = None
        self._fp_count = 0

    def add(self, formula: Term) -> None:
        """Assert a formula (incremental interface).

        Clauses, atom canonicalisation and learned theory lemmas persist
        across :meth:`solve` calls, so CEGIS-style loops that strengthen one
        query keep everything the solver already derived.  Inside an open
        scope (see :meth:`push`) the assertion is guarded by the scope's
        activation literal and dies with the scope.
        """
        if formula.sort is not BOOL:
            raise ValueError("add() expects a Bool-sorted formula")
        formula = simplify(formula)
        if formula.kind is Kind.CONST:
            if not formula.payload:
                if self._scopes:
                    # False inside a scope kills only that scope.
                    self._encoder.sat.add_clause([-self._scopes[-1]])
                else:
                    self._trivially_false = True
            return
        self._encoder.assert_formula(
            formula, guard=self._scopes[-1] if self._scopes else None
        )

    def push(self) -> None:
        """Open an assertion scope; assertions until :meth:`pop` are scoped."""
        # Scoped state (activation literals, scoped ``add(False)``) changes
        # the query without changing the assertion list, which the memo
        # fingerprint cannot see — so a solver that ever scoped is excluded
        # from memoization for its lifetime.
        self._scopes_used = True
        self._scopes.append(self._encoder.sat.new_var())
        self._scope_marks.append(len(self._encoder.asserted))

    def pop(self) -> None:
        """Close the innermost scope, retracting its assertions.

        The scope's activation literal is permanently falsified, which
        vacuously satisfies every clause asserted in the scope — learned
        clauses, atom canonicalisation and theory lemmas all survive.
        """
        if not self._scopes:
            raise ValueError("pop() without a matching push()")
        act = self._scopes.pop()
        mark = self._scope_marks.pop()
        del self._encoder.asserted[mark:]
        self._encoder.sat.add_clause([-act])

    @property
    def num_scopes(self) -> int:
        return len(self._scopes)

    @property
    def learnt_clauses_deleted(self) -> int:
        """Learnt clauses dropped by the SAT core's DB reduction (lifetime)."""
        return self._encoder.sat.num_learnts_deleted

    def reset(self) -> None:
        """Drop every asserted formula, learned lemma and atom table.

        After ``reset`` the instance behaves like a newly constructed solver
        (statistics are kept; they describe the solver's lifetime).
        """
        self._encoder = CnfEncoder()
        self._trivially_false = False
        self._scopes = []
        self._scope_marks = []
        self._scopes_used = False
        self._fp_state = None
        self._fp_count = 0

    def check(self, formula: Term) -> Result:
        """Incremental satisfiability check: ``add(formula)`` then :meth:`solve`.

        Note this is *not* one-shot on a reused instance — assertions from
        earlier ``add``/``check`` calls stay in force, so the result is the
        satisfiability of the conjunction of everything asserted so far.
        Call :meth:`reset` first (or construct a fresh :class:`SmtSolver`,
        as the module-level helpers :func:`check_sat` / :func:`is_valid` do)
        for an isolated check.

        Raises:
            SolverBudgetExceeded: on timeout or budget exhaustion.
        """
        self.add(formula)
        return self.solve()

    def solve(self, assumptions: Sequence[Term] = ()) -> Result:
        """Run the lazy DPLL(T) loop over everything asserted so far.

        ``assumptions`` are Bool terms additionally required *for this call
        only*; nothing about them is retained except what the solver learned
        while exploring them.  When the answer is UNSAT, the result's
        :attr:`~Result.unsat_core` is the subset of assumptions responsible
        (empty when the permanent assertions are unsat by themselves).

        With telemetry enabled (:func:`repro.obs.recording`) every call
        becomes an ``smt.solve`` span and updates the ``smt.*``/``sat.*``
        metrics; disabled, the check below is the entire overhead.  With
        DEBUG-level structured logging (``--log-json`` + a DEBUG threshold)
        every call additionally emits an ``smt.solve`` log event carrying
        the ambient job/problem correlation IDs — the level check is cached
        by :mod:`logging`, so the quiet path stays one lookup.

        With query capture active (:func:`repro.smt.capture.capturing`, the
        ``--smt-corpus`` flag) the call is additionally serialized — query,
        outcome, model and wall time — into the replayable corpus.  Capture
        bypasses the query memo entirely: a recorded corpus must reflect
        real solves.

        When the solver carries a :class:`~repro.smt.memo.QueryMemo` (the
        process-wide default unless constructed with ``memo=None``), a
        query whose ``repro-smtq/1`` fingerprint matches a previously
        *decided* query returns the cached status/model/core without
        running DPLL(T); see :mod:`repro.smt.memo` for the soundness
        argument.
        """
        if _capture.active() is not None:
            return self._solve_captured(assumptions)
        memo = self.memo
        if memo is None or self._scopes_used:
            return self._solve_dispatch(assumptions)
        key = self._memo_key(assumptions)
        cached = memo.lookup(key)
        if cached is not None:
            # A hit is still a check from the caller's perspective; rounds
            # report the original solve's work, stats count no new rounds.
            self.stats.checks += 1
            return cached
        result = self._solve_dispatch(assumptions)
        memo.store(key, result)
        return result

    def _memo_key(self, assumptions: Sequence[Term]) -> bytes:
        """The ``repro-smtq/1`` fingerprint of the active query.

        Folds per-term digests (:func:`repro.smt.memo.term_digest`) of the
        asserted prefix into a running hash that only advances with new
        assertions — a :meth:`pop` shrinks the assertion list and forces a
        rebuild — then mixes in the trivially-false marker and this call's
        assumptions on a copy."""
        import hashlib

        asserted = self._encoder.asserted
        if self._fp_state is None or self._fp_count > len(asserted):
            self._fp_state = hashlib.sha256(_capture.FORMAT.encode("utf-8"))
            self._fp_count = 0
        state = self._fp_state
        for term in asserted[self._fp_count:]:
            state.update(_memo.term_digest(term))
        self._fp_count = len(asserted)
        h = state.copy()
        if self._trivially_false:
            h.update(b"\x01false")
        for term in assumptions:
            h.update(b"\x02")
            h.update(_memo.term_digest(term))
        return h.digest()

    def _solve_dispatch(self, assumptions: Sequence[Term]) -> Result:
        """Route to the plain/logged/traced solve path (see :meth:`solve`)."""
        if obs.active() is None:
            if not logger.isEnabledFor(logging.DEBUG):
                return self._solve_impl(assumptions)
            return self._solve_logged(assumptions)
        return self._solve_traced(assumptions)

    def _solve_captured(self, assumptions: Sequence[Term]) -> Result:
        """One captured solve: snapshot the query, run, record the outcome.

        The snapshot happens *before* solving (the outcome must describe the
        query as issued); a budget abort is recorded as its own status so
        replay can reproduce even aborted queries.
        """
        writer = _capture.active()
        query = writer.snapshot(self, assumptions)
        start = time.monotonic()
        status = "error"
        model = None
        try:
            result = self._solve_dispatch(assumptions)
            status = result.status.value
            model = result.model
            return result
        except SolverBudgetExceeded:
            # A wall-clock abort is an artifact of this run's deadline, not a
            # property of the query; record it distinctly so replay knows the
            # outcome is not reproducible on a fresh, undeadlined solver.
            if self.deadline is not None and time.monotonic() >= self.deadline:
                status = "deadline-exceeded"
            else:
                status = "budget-exceeded"
            raise
        finally:
            writer.record(
                query,
                status,
                model,
                time.monotonic() - start,
                {
                    "max_rounds": self.max_rounds,
                    "lia_node_budget": self.lia_node_budget,
                },
            )

    def _solve_logged(self, assumptions: Sequence[Term]) -> Result:
        """One log-only solve (telemetry off, DEBUG logging on)."""
        start = time.monotonic()
        rounds_before = self.stats.rounds
        status = "error"
        try:
            result = self._solve_impl(assumptions)
            status = result.status.value
            return result
        finally:
            jlog(
                logger, "smt.solve", level=logging.DEBUG, status=status,
                rounds=self.stats.rounds - rounds_before,
                wall=round(time.monotonic() - start, 6),
            )

    def _solve_traced(self, assumptions: Sequence[Term]) -> Result:
        """One telemetered solve: an ``smt.solve`` span plus metric deltas."""
        sat = self._encoder.sat
        registry = obs.metrics()
        before = (
            self.stats.rounds,
            self.stats.lemmas,
            self.stats.theory_conflicts,
            sat.num_conflicts,
            sat.num_decisions,
            sat.num_learnts_deleted,
            pivots_total(),
        )
        start = time.monotonic()
        with obs.span("smt.solve", assumptions=len(assumptions)) as span:
            status = "error"
            result: Optional[Result] = None
            try:
                result = self._solve_impl(assumptions)
                status = result.status.value
                return result
            finally:
                wall = time.monotonic() - start
                rounds = self.stats.rounds - before[0]
                pivots = pivots_total() - before[6]
                registry.counter("smt.checks").inc()
                registry.counter("smt.rounds").inc(rounds)
                registry.counter("smt.lemmas").inc(self.stats.lemmas - before[1])
                registry.counter("smt.theory_conflicts").inc(
                    self.stats.theory_conflicts - before[2]
                )
                registry.counter("sat.conflicts").inc(sat.num_conflicts - before[3])
                registry.counter("sat.decisions").inc(sat.num_decisions - before[4])
                registry.counter("sat.learnts_deleted").inc(
                    sat.num_learnts_deleted - before[5]
                )
                registry.counter("smt.simplex_pivots").inc(pivots)
                registry.gauge("sat.learnts").set_max(sat.num_learnts)
                registry.gauge("sat.vars").set_max(sat.num_vars)
                registry.histogram("smt.solve_seconds").observe(wall)
                span.set(status=status, rounds=rounds, pivots=pivots)
                jlog(
                    logger, "smt.solve", level=logging.DEBUG, status=status,
                    rounds=rounds, wall=round(wall, 6),
                )

    def _solve_impl(self, assumptions: Sequence[Term] = ()) -> Result:
        self.stats.checks += 1
        if self._trivially_false:
            return Result(Status.UNSAT, None, 0)
        encoder = self._encoder
        assumption_lits: List[int] = []
        lit_to_term: Dict[int, Term] = {}
        prepared_assumptions: List[Term] = []
        for term in assumptions:
            if term.sort is not BOOL:
                raise ValueError("assumptions must be Bool-sorted formulas")
            simplified = simplify(term)
            if simplified.kind is Kind.CONST:
                if simplified.payload:
                    continue
                return Result(Status.UNSAT, None, 0, unsat_core=(term,))
            prepared, lit = encoder.prepare_literal(simplified)
            prepared_assumptions.append(prepared)
            assumption_lits.append(lit)
            lit_to_term.setdefault(lit, term)
        if not encoder.asserted and not prepared_assumptions:
            return Result(Status.SAT, {}, 0)
        sat_assumptions = list(self._scopes) + assumption_lits
        rounds = 0
        while True:
            rounds += 1
            self.stats.rounds += 1
            if rounds > self.max_rounds:
                raise SolverBudgetExceeded(f"exceeded {self.max_rounds} DPLL(T) rounds")
            if self.deadline is not None and time.monotonic() > self.deadline:
                raise SolverBudgetExceeded("SMT deadline exceeded")
            encoder.sat.deadline = self.deadline
            try:
                sat_model = encoder.sat.solve(assumptions=sat_assumptions)
            except encoder.sat.Interrupted as exc:
                raise SolverBudgetExceeded(str(exc)) from exc
            if sat_model is None:
                failed = set(encoder.sat.unsat_core)
                core = tuple(
                    lit_to_term[lit]
                    for lit in assumption_lits
                    if lit in failed and lit in lit_to_term
                )
                return Result(Status.UNSAT, None, rounds, unsat_core=core)
            # Only the atoms of a satisfying implicant go to the theory
            # solver; conflicts then yield small, reusable lemmas.
            needed = extract_implicant(encoder, sat_model, prepared_assumptions)
            constraints = []
            for atom, positive in needed.items():
                var = encoder.atom_vars[atom]
                expr = atom.to_linexpr() if positive else atom.negate().to_linexpr()
                lit = var if positive else -var
                constraints.append((expr, lit))
            feasible, payload = self._theory_check(constraints)
            if feasible:
                model = self._build_model(
                    payload, encoder, sat_model, prepared_assumptions
                )
                return Result(Status.SAT, model, rounds)
            self.stats.theory_conflicts += 1
            if not payload:
                return Result(Status.UNSAT, None, rounds)
            encoder.sat.add_clause([-lit for lit in payload])
            self.stats.lemmas += 1

    def _theory_check(self, constraints):
        """One round's integer check: a model, or a minimised core.

        The check and the core minimisation share one tableau, which dies
        with the round instead of staying alive through the next SAT solve.
        """
        tableau = LiaTableau(constraints)
        try:
            feasible, payload = check_lia(
                constraints, self.lia_node_budget, self.deadline, tableau
            )
        except BudgetExceeded as exc:
            raise SolverBudgetExceeded(str(exc)) from exc
        if feasible or not payload:
            return feasible, payload
        return False, self._minimize_core(constraints, payload, tableau)

    def _minimize_core(self, constraints, core, tableau):
        """Deletion-based core shrinking: smaller cores mean stronger lemmas.

        Each candidate deletion costs one LIA feasibility check on a small
        conjunction, run on the round's ``tableau``, which is far cheaper
        than the extra DPLL(T) rounds a fat lemma causes.
        """
        if len(core) <= 4 or len(core) > 24:
            return core
        by_tag = {tag: expr for expr, tag in constraints}
        current = list(core)
        checks_left = 12
        index = 0
        # Single linear deletion pass with a tiny node budget per check;
        # minimisation is strictly best-effort.
        while index < len(current) and len(current) > 1 and checks_left > 0:
            trial = current[:index] + current[index + 1 :]
            checks_left -= 1
            try:
                feasible, payload = check_lia(
                    [(by_tag[t], t) for t in trial], 60, self.deadline, tableau
                )
            except BudgetExceeded:
                # Node budget or deadline hit: stop shrinking, keep what we
                # have — minimisation must never overshoot a near-expired
                # deadline.
                return current
            if feasible:
                index += 1
            else:
                payload_set = set(payload)
                shrunk = [t for t in trial if t in payload_set]
                current = shrunk or trial
        return current

    def _build_model(
        self,
        int_model: Dict[str, int],
        encoder: CnfEncoder,
        sat_model: Dict[int, bool],
        extra: Sequence[Term] = (),
    ) -> Dict[str, Value]:
        model: Dict[str, Value] = dict(int_model)
        for name, var in encoder.bool_vars.items():
            model[name] = sat_model[var]
        for formula in list(encoder.asserted) + list(extra):
            for var_term in free_vars(formula):
                name = var_term.payload
                if name not in model:
                    model[name] = False if var_term.sort is BOOL else 0
        return model


def check_sat(
    formula: Term,
    deadline: Optional[float] = None,
) -> Result:
    """Convenience one-shot satisfiability check."""
    return SmtSolver(deadline=deadline).check(formula)


def is_valid(
    formula: Term,
    deadline: Optional[float] = None,
) -> Tuple[bool, Optional[Dict[str, Value]]]:
    """Validity check; returns ``(True, None)`` or ``(False, counterexample)``."""
    result = SmtSolver(deadline=deadline).check(not_(formula))
    if result.is_unsat:
        return True, None
    if result.is_sat:
        return False, result.model
    raise SolverBudgetExceeded("validity check returned unknown")


def get_counterexample(
    formula: Term,
    deadline: Optional[float] = None,
) -> Optional[Dict[str, Value]]:
    """A falsifying assignment for ``formula``, or None if it is valid."""
    valid, counterexample = is_valid(formula, deadline)
    return None if valid else counterexample
