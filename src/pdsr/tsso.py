"""Two-stage stochastic problem contract and its solve modes.

A concrete problem compiles scenario sets into mixed-binary models.  The
first stage ("here-and-now") is a fixed, named variable set shared by every
compilation; the second stage ("wait-and-see") is scenario-indexed recourse.
Problems must have relatively complete recourse: every first-stage decision
admits a feasible second stage for every scenario (concrete problems ensure
this with penalized shedding/curtailment slacks).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, RecourseError
from .milp import DEFAULT_GAP_TOL, GAP_LIMIT, MixedBinaryModel, OPTIMAL, solve_milp


class TssoProblem(ABC):
    """Compiles two-stage stochastic programs over a scenario subset."""

    @abstractmethod
    def build_model(self, scenarios, weights) -> MixedBinaryModel:
        """Compile the weighted program over ``scenarios``.

        The first-stage variables are model columns named by
        :meth:`first_stage_names`; evaluating a given decision fixes them
        by bounds (see :func:`evaluate_with_fixed_first_stage`)."""

    @abstractmethod
    def first_stage_names(self) -> list[str]:
        """Names of the first-stage variables, in decision-vector order."""

    @abstractmethod
    def fingerprint_payload(self) -> dict:
        """Canonical configuration dict used for cache fingerprints."""


@dataclass
class FirstStageDecision:
    """A first-stage decision vector with its provenance."""

    values: np.ndarray  # aligned with TssoProblem.first_stage_names()
    objective_at_source: float
    source_scenario: int | None = None


def _extract_first_stage(problem: TssoProblem, model: MixedBinaryModel,
                         x: np.ndarray) -> np.ndarray:
    idx = [model.index_of(name) for name in problem.first_stage_names()]
    return np.array([x[j] for j in idx])


def solve_stochastic(problem: TssoProblem, scenarios, weights,
                     gap_tol: float = DEFAULT_GAP_TOL,
                     time_limit: float | None = None,
                     source_scenario: int | None = None):
    """Solve the weighted two-stage program in one monolithic MILP.

    Used both for the full-set benchmark and for reduced sets.  Returns
    (FirstStageDecision, objective, Solution); when ``time_limit`` ends the
    solve before any incumbent the decision is None (status gap_limit).
    """
    weights = np.asarray(weights, dtype=float)
    if len(scenarios) == 0:
        raise ValueError("empty scenario set")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"weights sum to {weights.sum()!r}, expected 1")
    model = problem.build_model(scenarios, weights)
    sol = solve_milp(model, gap_tol=gap_tol, time_limit=time_limit)
    if sol.status == GAP_LIMIT and sol.x is None:
        return None, sol.objective, sol
    if sol.status not in (OPTIMAL, GAP_LIMIT) or sol.x is None:
        raise RecourseError(
            f"stochastic program ended {sol.status}; the problem violates "
            "relatively complete recourse or is misconfigured")
    z = FirstStageDecision(_extract_first_stage(problem, model, sol.x),
                           sol.objective, source_scenario)
    return z, sol.objective, sol


def solve_scenario_specific(problem: TssoProblem, scenario,
                            gap_tol: float = DEFAULT_GAP_TOL,
                            source_index: int | None = None):
    """Solve the deterministic single-scenario program F(z, xi).

    Returns (FirstStageDecision, optimal value).  Tie handling among
    multiple optima is the solver's deterministic choice.
    """
    z, obj, _ = solve_stochastic(problem, [scenario], [1.0], gap_tol=gap_tol,
                                 source_scenario=source_index)
    return z, obj


def _fixed_model(problem: TssoProblem, decision: FirstStageDecision,
                 scenario) -> MixedBinaryModel:
    """The single-scenario program with every first-stage column fixed at
    the decision (``lb = ub``); binary columns are rounded to exact 0/1 so
    the gating rows see clean commitments."""
    names = problem.first_stage_names()
    values = np.asarray(decision.values, dtype=float)
    if values.shape != (len(names),):
        raise ConfigError(f"first-stage decision has {values.size} values, "
                          f"the problem has {len(names)}")
    if not np.isfinite(values).all():
        raise ConfigError("first-stage decision has non-finite values")
    model = problem.build_model([scenario], [1.0])
    for name, value in zip(names, values):
        j = model.index_of(name)
        if model.is_binary[j]:
            value = round(value)
        model.lb[j] = model.ub[j] = float(value)
    return model


def evaluate_with_fixed_first_stage(problem: TssoProblem,
                                    decision: FirstStageDecision, scenario,
                                    gap_tol: float = DEFAULT_GAP_TOL,
                                    with_components: bool = False):
    """Evaluate F(z, xi): first-stage cost plus optimal recourse for one
    scenario, the problem-space entry of the paper.

    The scenario's program is compiled with a free first stage, whose
    columns are then fixed at ``decision`` by their bounds; one MILP solve
    gives the value.  A decision of the wrong length raises ConfigError.
    With ``with_components`` returns (value, named objective slices).
    """
    model = _fixed_model(problem, decision, scenario)
    sol = solve_milp(model, gap_tol=gap_tol)
    if sol.status != OPTIMAL or sol.x is None:
        raise RecourseError(
            f"second stage {sol.status} for fixed first stage "
            f"(source scenario {decision.source_scenario!r})")
    if not with_components:
        return sol.objective
    groups = {g: model.group_value(g, sol.x) for g in model.obj_groups}
    return sol.objective, groups
