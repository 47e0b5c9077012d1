"""Fixed-height synthesis (Algorithm 2) and height enumeration (Section 5).

``fixed_height`` runs one CEGIS loop whose inductive queries are discharged
symbolically: the candidate space (all programs of syntax-tree height <= h)
is encoded as unknown integer coefficients/selectors and each query becomes
one QF_LIA SMT call.  ``HeightEnumerationSynthesizer`` wraps it in the
height-increasing outer loop, guaranteeing the smallest-height solution; this
standalone form is the "plain height-based enumeration" baseline of the
paper's ablation study (Figure 14).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.obs import forensics
from repro.lang.ast import Kind, Term
from repro.lang.builders import and_, bool_var, implies, int_const
from repro.lang.evaluator import EvaluationError, Value, evaluate
from repro.lang.traversal import rewrite_bottom_up
from repro.smt.solver import SmtSolver, SolverBudgetExceeded, Status
from repro.sygus.problem import Solution, SygusProblem
from repro.synth.cegis import CegisTimeout, Example, cegis
from repro.synth.config import SynthConfig
from repro.synth.examples import ExampleSet
from repro.synth.encoding import (
    CliaTreeEncoder,
    EncodingUnsupported,
    GeneralGrammarEncoder,
    grammar_is_full_clia,
)
from repro.synth.result import SynthesisOutcome, SynthesisStats


def make_encoder(problem: SygusProblem, height: int, prefix: str = "fh"):
    """Choose the most structured encoding the grammar admits.

    CLIA grammars get the decision-tree normal form (Figure 5); affine
    operator grammars like ``G_qm`` get the paper's adapted ``interpret_h``
    with operator nodes over affine leaves; everything else falls back to the
    generic production-selector encoding.
    """
    from repro.synth.affine_encoding import AffineSpineEncoder, affine_operator_view

    if grammar_is_full_clia(problem.synth_fun.grammar):
        return CliaTreeEncoder(problem.synth_fun, height, prefix)
    if (
        problem.synth_fun.return_sort.name == "Int"
        and affine_operator_view(problem.synth_fun.grammar) is not None
    ):
        return AffineSpineEncoder(problem.synth_fun, height, prefix)
    return GeneralGrammarEncoder(problem.synth_fun, height, prefix)


def inductive_query(
    problem: SygusProblem,
    encoder,
    examples: Sequence[Example],
) -> Term:
    """The symbolic constraint “candidate satisfies the spec on every example”.

    For each example the spec's variables are fixed to concrete values and
    every invocation of the synth-fun is replaced by the encoder's symbolic
    interpretation on the (now concrete) argument vector — the
    ``interpret_h`` substitution of Section 5.2.
    """
    fun_name = problem.fun_name
    parts: List[Term] = []
    for env in examples:
        side_constraints: List[Term] = []

        def rewrite(t: Term) -> Term:
            if t.kind is Kind.VAR and t.payload in env:
                value = env[t.payload]  # type: ignore[index]
                if t.sort.name == "Int":
                    return int_const(int(value))
                from repro.lang.builders import bool_const

                return bool_const(bool(value))
            if t.kind is Kind.APP and t.payload == fun_name:
                arg_values = []
                for arg in t.args:
                    try:
                        arg_values.append(int(evaluate(arg, {})))
                    except EvaluationError as exc:
                        raise EncodingUnsupported(
                            "nested synth-fun invocations are not supported by "
                            "the symbolic encoding"
                        ) from exc
                value, side = encoder.app_instance(arg_values)
                if side.kind is not Kind.CONST or not side.payload:
                    side_constraints.append(side)
                return value
            return t

        instantiated = rewrite_bottom_up(problem.spec, rewrite)
        parts.append(instantiated)
        parts.extend(side_constraints)
    return and_(*parts)


def _seeded_bounds(problem: SygusProblem, schedule) -> tuple:
    """Drop widening rounds that cannot cover the spec's own constants.

    If the specification mentions the constant 100, a candidate with
    constants bounded by 1 almost never verifies; starting the widening at
    the smallest bound >= the largest spec constant skips provably useless
    UNSAT rounds.
    """
    from repro.lang.ast import Kind
    from repro.lang.traversal import subexpressions

    largest = 1
    for sub_term in subexpressions(problem.spec):
        if sub_term.kind is Kind.CONST and isinstance(sub_term.payload, int):
            largest = max(largest, abs(sub_term.payload))
    kept = tuple(b for b in schedule if b >= largest)
    if kept:
        return kept
    return schedule[-1:]


class FixedHeightSession:
    """A resumable Algorithm-2 run at one (problem, height).

    The session owns the symbolic encoder and **one** incremental SMT solver;
    constant-bound widening is done by solving under an assumption literal
    that activates the current bound's range constraints, so clause learning,
    atom canonicalisation and theory lemmas are shared across every bound and
    every CEGIS iteration.  Each iteration only asserts the newest
    counterexample, and solver state also persists across *preempted time
    slices* (the cooperative loop parks a session when its slice expires and
    resumes it later).  When a query is unsat without the bound guard in the
    unsat assumption core, no wider bound can help and the widening loop
    stops early.
    """

    def __init__(
        self,
        problem: SygusProblem,
        height: int,
        config: SynthConfig,
        stats: Optional[SynthesisStats] = None,
        prefix: Optional[str] = None,
    ) -> None:
        self.problem = problem
        self.height = height
        self.config = config
        self.stats = stats if stats is not None else SynthesisStats()
        self.prefix = prefix or f"fh{height}"
        self.encoder = make_encoder(problem, height, self.prefix)
        if getattr(self.encoder, "has_const_unknowns", True):
            self.bounds = _seeded_bounds(problem, config.const_bounds)
        else:
            self.bounds = config.const_bounds[:1]
        self._solver: Optional[SmtSolver] = None
        self._bound_guards: Dict[int, Term] = {}
        self._asserted_examples = 0
        # Bounds below this index are permanently unsat: their guard appeared
        # in an unsat assumption core, and example sets only ever grow.
        self._first_viable = 0
        self._lemmas_seen = 0
        self._deleted_seen = 0
        self.candidate: Optional[Term] = self.encoder.initial_candidate()
        self._candidate_from_ind = False
        self.rounds = 0
        self.exhausted = False

    @property
    def solver(self) -> Optional[SmtSolver]:
        """The session's single incremental solver (None until first query)."""
        return self._solver

    def run(
        self, examples: List[Example], deadline: Optional[float] = None
    ) -> Optional[Term]:
        """Continue the CEGIS loop; returns a solution or None.

        ``None`` with :attr:`exhausted` unset means the deadline preempted
        the session (resume later); with :attr:`exhausted` set there is no
        solution at this height (within the coefficient bounds).

        Raises:
            CegisTimeout: when the deadline expires mid-step.
        """
        if self.exhausted:
            return None
        with obs.span(
            "cegis", problem=self.problem.name, height=self.height
        ) as session_span:
            result = self._run_loop(examples, deadline)
            session_span.set(rounds=self.rounds, exhausted=self.exhausted,
                             solved=result is not None)
            if self.exhausted:
                # An exhausted session only ever answers None again, but the
                # cooperative loop keeps it parked: drop the solver's clause
                # database and atom tables now rather than at the end.
                self._solver = None
            return result

    def _run_loop(
        self, examples: List[Example], deadline: Optional[float]
    ) -> Optional[Term]:
        problem, stats = self.problem, self.stats
        examples = ExampleSet.wrap(examples)
        while self.rounds < self.config.max_cegis_rounds:
            self._check_deadline(deadline)
            self.rounds += 1
            stats.cegis_iterations += 1
            forensics.emit(
                forensics.CEGIS_ITER,
                iteration=self.rounds,
                height=self.height,
                examples=len(examples),
            )
            # Compiled screening: after preemption or a height bump the
            # shared example pool may already refute this candidate — catch
            # that with compiled evaluation instead of an SMT validity check.
            counterexample = self._screen(examples)
            if counterexample is None:
                try:
                    with obs.span("verify", problem=problem.name,
                                  height=self.height):
                        ok, counterexample = problem.verify(
                            self.candidate, deadline
                        )
                except SolverBudgetExceeded as exc:
                    self.rounds -= 1
                    raise CegisTimeout(str(exc)) from exc
                if ok:
                    return self.candidate
            assert counterexample is not None
            if examples.add(counterexample):
                forensics.emit(
                    forensics.CEGIS_CEX,
                    iteration=self.rounds,
                    height=self.height,
                    cex=forensics.render_example(counterexample),
                )
            elif self._candidate_from_ind:
                # ind-synth claimed consistency yet verification refutes on a
                # known example: the candidate space is exhausted.
                self.exhausted = True
                return None
            candidate = self._ind_synth(examples, deadline)
            if candidate is None:
                self.exhausted = True
                return None
            self.candidate = candidate
            self._candidate_from_ind = True
        self.exhausted = True
        return None

    def _check_deadline(self, deadline: Optional[float]) -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise CegisTimeout("fixed-height deadline exceeded")

    def _screen(self, examples: ExampleSet) -> Optional[Example]:
        """A known example refuting the current candidate, or None."""
        try:
            violation = self.problem.first_violation(self.candidate, examples)
        except EvaluationError:
            return None
        return dict(violation) if violation is not None else None

    def _bound_guard(self, solver: SmtSolver, const_bound: int) -> Term:
        """The assumption literal activating ``const_bound``'s constraints.

        The implication ``guard -> static_constraints(bound)`` is asserted
        permanently on first use; while the guard is not assumed, it is a
        free variable and the constraints are vacuous.
        """
        guard = self._bound_guards.get(const_bound)
        if guard is None:
            guard = bool_var(f"{self.prefix}!bound{const_bound}")
            solver.add(
                implies(
                    guard,
                    self.encoder.static_constraints(
                        self.config.coeff_bound, const_bound
                    ),
                )
            )
            self._bound_guards[const_bound] = guard
        return guard

    def _ind_synth(
        self, examples: List[Example], deadline: Optional[float]
    ) -> Optional[Term]:
        if not examples:
            return self.encoder.initial_candidate()
        with obs.span(
            "ind_synth",
            problem=self.problem.name,
            height=self.height,
            examples=len(examples),
        ):
            return self._ind_synth_query(examples, deadline)

    def _ind_synth_query(
        self, examples: List[Example], deadline: Optional[float]
    ) -> Optional[Term]:
        solver = self._solver
        if solver is None:
            solver = self._solver = SmtSolver(
                lia_node_budget=self.config.lia_node_budget
            )
        solver.deadline = deadline
        for example in examples[self._asserted_examples :]:
            solver.add(inductive_query(self.problem, self.encoder, [example]))
        self._asserted_examples = len(examples)
        stats = self.stats
        rounds_before = solver.stats.rounds
        try:
            for index in range(self._first_viable, len(self.bounds)):
                const_bound = self.bounds[index]
                self._check_deadline(deadline)
                guard = self._bound_guard(solver, const_bound)
                stats.smt_checks += 1
                with obs.span(
                    "widen",
                    problem=self.problem.name,
                    height=self.height,
                    const_bound=const_bound,
                ):
                    result = solver.solve(assumptions=[guard])
                if result.status is Status.SAT:
                    assert result.model is not None
                    return self.encoder.decode(
                        result.model, self.problem.synth_fun.params
                    )
                if guard not in result.unsat_core:
                    # The examples are inconsistent with the encoding no
                    # matter how wide the constant range: skip the rest of
                    # the widening schedule.
                    stats.assumption_core_skips += len(self.bounds) - index - 1
                    break
                # This bound is dead for the current examples, hence for
                # every future (superset) example set too.
                self._first_viable = index + 1
            return None
        except SolverBudgetExceeded as exc:
            raise CegisTimeout(str(exc)) from exc
        finally:
            stats.smt_rounds += solver.stats.rounds - rounds_before
            stats.theory_lemmas += solver.stats.lemmas - self._lemmas_seen
            self._lemmas_seen = solver.stats.lemmas
            deleted = solver.learnt_clauses_deleted
            stats.learnt_clauses_deleted += deleted - self._deleted_seen
            self._deleted_seen = deleted


def fixed_height(
    problem: SygusProblem,
    height: int,
    config: SynthConfig,
    examples: Optional[List[Example]] = None,
    deadline: Optional[float] = None,
    stats: Optional[SynthesisStats] = None,
    prefix: Optional[str] = None,
    session_store: Optional[Dict[int, FixedHeightSession]] = None,
) -> Optional[Term]:
    """Algorithm 2: CEGIS with symbolic fixed-height inductive synthesis.

    Returns a candidate body of height <= ``height`` satisfying the spec, or
    None if none exists (within the configured coefficient bounds).  Pass a
    ``session_store`` dict to make preempted runs resumable (the cooperative
    loop does this per subproblem node).

    Raises:
        CegisTimeout: when the deadline expires.
        EncodingUnsupported: when the grammar cannot be encoded.
    """
    if examples is None:
        examples = []
    session: Optional[FixedHeightSession] = None
    if session_store is not None:
        session = session_store.get(height)
    if session is None:
        session = FixedHeightSession(problem, height, config, stats, prefix)
        if session_store is not None:
            session_store[height] = session
    elif stats is not None:
        session.stats = stats
    return session.run(examples, deadline)


class HeightEnumerationSynthesizer:
    """Plain height-based enumeration: try h = 1, 2, ... (Section 5.1).

    Counterexamples are shared across heights, mirroring the paper's
    parallelised implementation which shares the counterexample set between
    per-height CEGIS loops.
    """

    name = "height-enum"

    def __init__(self, config: Optional[SynthConfig] = None):
        self.config = config or SynthConfig()

    def synthesize(self, problem: SygusProblem) -> SynthesisOutcome:
        with obs.span("synth", problem=problem.name, solver=self.name):
            outcome = self._synthesize_impl(problem)
        if obs.enabled():
            obs.publish_stats(outcome.stats)
        return outcome

    def _synthesize_impl(self, problem: SygusProblem) -> SynthesisOutcome:
        config = self.config
        stats = SynthesisStats()
        deadline = (
            time.monotonic() + config.timeout if config.timeout is not None else None
        )
        start = time.monotonic()
        examples: List[Example] = []
        for height in range(1, config.max_height + 1):
            stats.heights_tried += 1
            stats.max_height_reached = height
            try:
                body = fixed_height(
                    problem,
                    height,
                    config,
                    examples=examples,
                    deadline=deadline,
                    stats=stats,
                )
            except (CegisTimeout, SolverBudgetExceeded):
                # A budget exception is only a *global* timeout when the wall
                # clock actually expired; a per-query budget (e.g. the LIA
                # node budget) exhausted at one height must not abandon the
                # whole enumeration — the next height may still be easy.
                if deadline is not None and time.monotonic() > deadline:
                    return SynthesisOutcome(None, stats, timed_out=True)
                continue
            except EncodingUnsupported:
                return SynthesisOutcome(None, stats)
            if body is not None:
                elapsed = time.monotonic() - start
                solution = Solution(problem, body, self.name, elapsed)
                return SynthesisOutcome(solution, stats)
        return SynthesisOutcome(None, stats)
