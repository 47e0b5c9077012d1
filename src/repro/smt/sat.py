"""A CDCL SAT solver.

Implements the standard modern architecture: two-watched-literal propagation,
first-UIP conflict analysis with clause learning, VSIDS-style activity
decision heuristic, phase saving, Luby-sequence restarts, MiniSat-style
solving under assumptions with final-conflict analysis (unsat assumption
cores), and an activity/LBD-aware learned-clause database reduction policy.

Literals use the DIMACS convention: variable ``v`` (1-based) appears
positively as ``v`` and negatively as ``-v``.  The solver is incremental in
the sense required by lazy SMT: clauses may be added between ``solve`` calls,
and ``solve(assumptions=[...])`` decides satisfiability under a temporary
conjunction of literals without polluting the clause database.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence


class SatSolver:
    """An incremental CDCL solver over integer DIMACS literals."""

    class Interrupted(Exception):
        """Raised when solve() exceeds its deadline (see ``deadline``)."""

    def __init__(self) -> None:
        #: Optional wall-clock deadline (time.monotonic seconds); checked
        #: every few hundred conflicts *and* decisions inside solve().
        self.deadline = None
        #: After an assumption-unsat ``solve``: the subset of the passed
        #: assumption literals whose conjunction is unsatisfiable with the
        #: clause database.  Empty when the database alone is unsat.
        self.unsat_core: List[int] = []
        self._num_vars = 0
        self._clauses: List[Optional[List[int]]] = []
        self._watches: Dict[int, List[int]] = {}
        self._assign: List[int] = [0]  # indexed by var; 0 unset, 1 true, -1 false
        self._level: List[int] = [0]
        self._reason: List[Optional[int]] = [None]
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._queue_head = 0
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [False]
        self._order_heap: List[tuple] = []
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._ok = True
        self._conflicts = 0
        self._decisions = 0
        self._restarts = 0
        # Learned-clause database: clause index -> activity, plus the LBD
        # (number of distinct decision levels) recorded at learning time.
        # Clauses added through add_clause() are *permanent* (problem clauses
        # and theory lemmas); only solve()-learned clauses are reducible.
        self._learnts: Dict[int, float] = {}
        self._lbd: Dict[int, int] = {}
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._max_learnts = 4000.0
        self._learnts_deleted = 0

    # -- Problem construction -------------------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh variable; returns its (positive) index."""
        self._num_vars += 1
        self._assign.append(0)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(False)
        heapq.heappush(self._order_heap, (0.0, self._num_vars))
        return self._num_vars

    def _ensure_vars(self, lits: Iterable[int]) -> None:
        needed = max((abs(lit) for lit in lits), default=0)
        while self._num_vars < needed:
            self.new_var()

    def add_clause(self, lits: Sequence[int]) -> bool:
        """Add a clause; returns False if the formula became trivially unsat.

        Must be called with the solver at decision level 0 (which is the case
        between ``solve`` invocations, since ``solve`` backtracks fully).
        """
        if not self._ok:
            return False
        self._backtrack(0)
        self._ensure_vars(lits)
        seen: Dict[int, None] = {}
        for lit in lits:
            if -lit in seen:
                return True  # tautology
            seen[lit] = None
        # Drop literals already false at level 0; a clause true at level 0
        # is kept as-is (harmless).
        clause = [
            lit
            for lit in seen
            if not (self._value(lit) == -1 and self._level[abs(lit)] == 0)
        ]
        if any(self._value(lit) == 1 and self._level[abs(lit)] == 0 for lit in clause):
            return True
        if not clause:
            self._ok = False
            return False
        if len(clause) == 1:
            self._uncheckedEnqueue(clause[0], None)
            if self._propagate() is not None:
                self._ok = False
                return False
            return True
        index = len(self._clauses)
        self._clauses.append(clause)
        self._watch(clause[0], index)
        self._watch(clause[1], index)
        return True

    def _watch(self, lit: int, clause_index: int) -> None:
        self._watches.setdefault(-lit, []).append(clause_index)

    # -- Assignment helpers -----------------------------------------------------

    def _value(self, lit: int) -> int:
        value = self._assign[abs(lit)]
        return value if lit > 0 else -value

    def _uncheckedEnqueue(self, lit: int, reason: Optional[int]) -> None:
        var = abs(lit)
        self._assign[var] = 1 if lit > 0 else -1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)

    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause index or None.

        The hot loop of the solver: literal values are read from
        ``self._assign`` inline rather than through :meth:`_value`.
        """
        trail = self._trail
        assign = self._assign
        clauses = self._clauses
        watches = self._watches
        while self._queue_head < len(trail):
            lit = trail[self._queue_head]
            self._queue_head += 1
            watching = watches.get(lit)
            if not watching:
                continue
            false_lit = -lit
            kept: List[int] = []
            i = 0
            conflict: Optional[int] = None
            while i < len(watching):
                ci = watching[i]
                i += 1
                clause = clauses[ci]
                if clause is None:
                    # Deleted learnt clause; drop the stale watch entry.
                    continue
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                if clause[1] != false_lit:
                    # Stale watch entry (watch was moved); drop it.
                    continue
                first = clause[0]
                first_value = assign[first] if first > 0 else -assign[-first]
                if first_value == 1:
                    kept.append(ci)
                    continue
                moved = False
                for k in range(2, len(clause)):
                    other = clause[k]
                    if (assign[other] if other > 0 else -assign[-other]) != -1:
                        clause[1], clause[k] = other, clause[1]
                        self._watch(other, ci)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(ci)
                if first_value == -1:
                    conflict = ci
                    kept.extend(watching[i:])
                    break
                self._uncheckedEnqueue(first, ci)
            watches[lit] = kept
            if conflict is not None:
                return conflict
        return None

    # -- Conflict analysis --------------------------------------------------------

    def _bump(self, var: int) -> None:
        self._activity[var] += self._var_inc
        heapq.heappush(self._order_heap, (-self._activity[var], var))
        if self._activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
            # Rebuild the order heap: stale entries keep their pre-rescale
            # keys and would dominate every decision until lazily popped.
            self._order_heap = [
                (-self._activity[v], v)
                for v in range(1, self._num_vars + 1)
                if self._assign[v] == 0
            ]
            heapq.heapify(self._order_heap)

    def _bump_clause(self, clause_index: int) -> None:
        activity = self._learnts.get(clause_index)
        if activity is None:
            return  # permanent clause: no activity bookkeeping
        activity += self._cla_inc
        self._learnts[clause_index] = activity
        if activity > 1e20:
            for index in self._learnts:
                self._learnts[index] *= 1e-20
            self._cla_inc *= 1e-20

    def _analyze(self, conflict: int) -> tuple[List[int], int]:
        """First-UIP conflict analysis; returns (learnt clause, backtrack level)."""
        learnt: List[int] = [0]
        seen = [False] * (self._num_vars + 1)
        counter = 0
        lit = 0
        index = len(self._trail) - 1
        current_level = len(self._trail_lim)
        self._bump_clause(conflict)
        reason_lits: Sequence[int] = self._clauses[conflict]
        while True:
            for q in reason_lits:
                var = abs(q)
                if seen[var] or self._level[var] == 0:
                    continue
                seen[var] = True
                self._bump(var)
                if self._level[var] >= current_level:
                    counter += 1
                else:
                    learnt.append(q)
            while not seen[abs(self._trail[index])]:
                index -= 1
            lit = self._trail[index]
            index -= 1
            seen[abs(lit)] = False
            counter -= 1
            if counter == 0:
                break
            reason = self._reason[abs(lit)]
            assert reason is not None, "UIP literal must have a reason"
            self._bump_clause(reason)
            reason_lits = [q for q in self._clauses[reason] if q != lit]
        learnt[0] = -lit
        if len(learnt) == 1:
            return learnt, 0
        max_i = 1
        for i in range(2, len(learnt)):
            if self._level[abs(learnt[i])] > self._level[abs(learnt[max_i])]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, self._level[abs(learnt[1])]

    def _analyze_final(self, failed: int) -> List[int]:
        """Final-conflict analysis for a failed assumption literal.

        ``failed`` is an assumption whose complement is implied by the
        clauses together with the *earlier* assumption decisions.  Walking
        the implication graph backwards from it yields the subset of
        assumption decisions responsible — the unsat assumption core.
        """
        core = [failed]
        if not self._trail_lim:
            return core  # falsified at level 0: unsat with no help needed
        seen = [False] * (self._num_vars + 1)
        seen[abs(failed)] = True
        for i in range(len(self._trail) - 1, self._trail_lim[0] - 1, -1):
            lit = self._trail[i]
            var = abs(lit)
            if not seen[var]:
                continue
            reason = self._reason[var]
            if reason is None:
                if self._level[var] > 0:
                    core.append(lit)  # an assumption decision
            else:
                for q in self._clauses[reason]:
                    if abs(q) != var and self._level[abs(q)] > 0:
                        seen[abs(q)] = True
            seen[var] = False
        return core

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        for lit in reversed(self._trail[limit:]):
            var = abs(lit)
            self._phase[var] = lit > 0
            self._assign[var] = 0
            self._reason[var] = None
            heapq.heappush(self._order_heap, (-self._activity[var], var))
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._queue_head = len(self._trail)

    # -- Learned-clause database reduction ---------------------------------------

    def _reduce_db(self) -> None:
        """Delete the less useful half of the reducible learnt clauses.

        Called at decision level 0.  Binary clauses, glue clauses (LBD <= 3)
        and clauses locked as the reason of a level-0 implication are kept;
        the rest are ranked by activity and the lower half dropped.  Watch
        entries are removed lazily by propagation.  Deleting learnt clauses
        is always sound (they are implied by the permanent clauses) and
        keeps long-lived incremental sessions bounded in memory.
        """
        locked = {r for r in self._reason if r is not None}
        candidates = [
            ci
            for ci in self._learnts
            if ci not in locked
            and len(self._clauses[ci]) > 2
            and self._lbd.get(ci, 9) > 3
        ]
        candidates.sort(key=lambda ci: self._learnts[ci])
        for ci in candidates[: len(candidates) // 2]:
            self._clauses[ci] = None
            del self._learnts[ci]
            self._lbd.pop(ci, None)
            self._learnts_deleted += 1
        # Let the database grow a little before the next reduction so that
        # mostly-glue databases cannot trigger a reduction every restart.
        self._max_learnts *= 1.1

    # -- Search ------------------------------------------------------------------

    def _decide(self) -> int:
        while self._order_heap:
            _, var = heapq.heappop(self._order_heap)
            if self._assign[var] == 0:
                return var if self._phase[var] else -var
        for var in range(1, self._num_vars + 1):
            if self._assign[var] == 0:
                return var if self._phase[var] else -var
        return 0

    def _check_deadline(self) -> None:
        import time

        if time.monotonic() > self.deadline:
            self._backtrack(0)
            raise SatSolver.Interrupted("SAT deadline exceeded")

    def solve(self, assumptions: Sequence[int] = ()) -> Optional[Dict[int, bool]]:
        """Search for a model; returns ``{var: bool}`` or None if unsat.

        With ``assumptions``, decides satisfiability of the clause database
        under the temporary conjunction of the given literals (MiniSat-style:
        assumptions are enqueued as the first decisions).  On an
        assumption-unsat outcome, :attr:`unsat_core` names the subset of
        assumptions responsible; when it is empty the database itself is
        unsat and the solver stays unsat for every future call.
        """
        self.unsat_core = []
        if not self._ok:
            return None
        self._backtrack(0)
        if assumptions:
            self._ensure_vars(assumptions)
        restart_base = 64
        luby_index = 0
        conflicts_since_restart = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self._conflicts += 1
                conflicts_since_restart += 1
                if self.deadline is not None and self._conflicts % 256 == 0:
                    self._check_deadline()
                if not self._trail_lim:
                    self._ok = False
                    return None
                learnt, back_level = self._analyze(conflict)
                lbd = len({self._level[abs(lit)] for lit in learnt})
                self._backtrack(back_level)
                if len(learnt) == 1:
                    if self._value(learnt[0]) == -1:
                        self._ok = False
                        return None
                    if self._value(learnt[0]) == 0:
                        self._uncheckedEnqueue(learnt[0], None)
                else:
                    index = len(self._clauses)
                    self._clauses.append(learnt)
                    self._watch(learnt[0], index)
                    self._watch(learnt[1], index)
                    self._uncheckedEnqueue(learnt[0], index)
                    self._learnts[index] = self._cla_inc
                    self._lbd[index] = lbd
                self._var_inc /= self._var_decay
                self._cla_inc /= self._cla_decay
                if (
                    conflicts_since_restart >= restart_base * luby(luby_index)
                    or len(self._learnts) >= self._max_learnts + 256
                ):
                    luby_index += 1
                    self._restarts += 1
                    conflicts_since_restart = 0
                    self._backtrack(0)
                    if len(self._learnts) > self._max_learnts:
                        self._reduce_db()
                continue
            # Decision path: re-assert pending assumptions first, then pick
            # a free variable.  Deadline is checked here too — propagation-
            # heavy instances may produce few conflicts yet run for long.
            self._decisions += 1
            if self.deadline is not None and self._decisions % 256 == 0:
                self._check_deadline()
            lit = 0
            while len(self._trail_lim) < len(assumptions):
                p = assumptions[len(self._trail_lim)]
                value = self._value(p)
                if value == 1:
                    # Already satisfied: open a dummy decision level so the
                    # remaining assumptions keep their positional levels.
                    self._trail_lim.append(len(self._trail))
                elif value == -1:
                    self.unsat_core = self._analyze_final(p)
                    self._backtrack(0)
                    return None
                else:
                    lit = p
                    break
            if lit == 0:
                lit = self._decide()
                if lit == 0:
                    return {
                        var: self._assign[var] == 1
                        for var in range(1, self._num_vars + 1)
                    }
            self._trail_lim.append(len(self._trail))
            self._uncheckedEnqueue(lit, None)

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_conflicts(self) -> int:
        return self._conflicts

    @property
    def num_decisions(self) -> int:
        """Decision-level choices made over the solver's lifetime."""
        return self._decisions

    @property
    def num_restarts(self) -> int:
        """Luby/DB-pressure restarts performed over the solver's lifetime."""
        return self._restarts

    @property
    def num_learnts(self) -> int:
        """Learnt clauses currently in the database."""
        return len(self._learnts)

    @property
    def num_learnts_deleted(self) -> int:
        """Learnt clauses deleted by database reductions over the lifetime."""
        return self._learnts_deleted


def luby(x: int) -> int:
    """The x-th element (0-based) of the Luby restart sequence 1 1 2 1 1 2 4…

    Port of the classic MiniSat implementation.
    """
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x = x % size
    return 1 << seq
