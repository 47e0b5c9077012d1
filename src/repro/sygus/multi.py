"""Multi-function SyGuS problems.

The paper (Section 2.1, Remark) notes the SyGuS definition "can be easily
extended to synthesize multiple functions"; this module is that extension: a
specification over several uninterpreted functions, with helpers to split it
into independent single-function problems when the constraints allow, and to
project out the joint verification query otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.lang.ast import Kind, Term
from repro.lang.builders import and_, bool_const
from repro.lang.traversal import contains_app, substitute_apps
from repro.sygus.grammar import expand_interpreted
from repro.sygus.problem import Solution, SygusProblem, SynthFun


@dataclass(frozen=True)
class MultiSygusProblem:
    """A SyGuS instance with several functions to synthesize jointly."""

    synth_funs: Tuple[SynthFun, ...]
    spec: Term
    variables: Tuple[Term, ...]
    track: str = "General"
    name: str = "unnamed"

    def __post_init__(self) -> None:
        names = [fun.name for fun in self.synth_funs]
        if len(names) != len(set(names)):
            raise ValueError("duplicate synth-fun names")

    @property
    def fun_names(self) -> Tuple[str, ...]:
        return tuple(fun.name for fun in self.synth_funs)

    def instantiate(self, bodies: Mapping[str, Term]) -> Term:
        """The spec with every function replaced by its candidate body."""
        result = self.spec
        for fun in self.synth_funs:
            body = bodies.get(fun.name)
            if body is None:
                raise KeyError(f"no body provided for {fun.name}")
            result = substitute_apps(result, fun.name, fun.params, body)
        return result

    def inline_interpreted(self, fun: SynthFun, body: Term) -> Term:
        return expand_interpreted(body, fun.grammar.interpreted)

    def verify(
        self, bodies: Mapping[str, Term], deadline: Optional[float] = None
    ) -> Tuple[bool, Optional[Dict]]:
        """Joint validity check of all candidates against the spec."""
        from repro.smt import is_valid

        inlined = {
            fun.name: self.inline_interpreted(fun, bodies[fun.name])
            for fun in self.synth_funs
        }
        formula = self.instantiate(inlined)
        valid, counterexample = is_valid(formula, deadline)
        if valid:
            return True, None
        assert counterexample is not None
        for variable in self.variables:
            counterexample.setdefault(
                variable.payload, False if variable.sort.name == "Bool" else 0
            )
        return False, counterexample

    # -- Decomposition --------------------------------------------------------

    def _conjuncts(self) -> List[Term]:
        if self.spec.kind is Kind.AND:
            return list(self.spec.args)
        return [self.spec]

    def split_independent(self) -> Optional[List[SygusProblem]]:
        """Partition into single-function problems, when possible.

        Succeeds iff every top-level conjunct mentions at most one of the
        functions; conjuncts mentioning none are attached to the first
        problem (they are global side conditions).
        """
        groups: Dict[str, List[Term]] = {fun.name: [] for fun in self.synth_funs}
        neutral: List[Term] = []
        for conjunct in self._conjuncts():
            owners = [
                fun.name
                for fun in self.synth_funs
                if contains_app(conjunct, fun.name)
            ]
            if len(owners) > 1:
                return None
            if owners:
                groups[owners[0]].append(conjunct)
            else:
                neutral.append(conjunct)
        problems: List[SygusProblem] = []
        for index, fun in enumerate(self.synth_funs):
            parts = list(groups[fun.name])
            if index == 0:
                parts.extend(neutral)
            spec = and_(*parts) if parts else bool_const(True)
            problems.append(
                SygusProblem(
                    fun,
                    spec,
                    self.variables,
                    track=self.track,
                    name=f"{self.name}/{fun.name}",
                )
            )
        return problems


@dataclass(frozen=True)
class MultiSolution:
    """Solutions for every function of a multi-function problem."""

    problem: MultiSygusProblem
    bodies: Dict[str, Term]
    engine: str = "unknown"
    time_seconds: float = 0.0

    def define_funs(self) -> List[str]:
        from repro.lang.printer import define_fun_sexpr

        rendered = []
        for fun in self.problem.synth_funs:
            rendered.append(
                define_fun_sexpr(
                    fun.name, fun.params, fun.return_sort, self.bodies[fun.name]
                )
            )
        return rendered

    @property
    def total_size(self) -> int:
        return sum(body.size for body in self.bodies.values())
