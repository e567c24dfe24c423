"""Two-stage stochastic problem contract and its solve modes.

A concrete problem compiles scenario sets into mixed-binary models.  The
first stage ("here-and-now") is a fixed, named variable set shared by every
compilation; the second stage ("wait-and-see") is scenario-indexed recourse.
Problems must have relatively complete recourse: every first-stage decision
admits a feasible second stage for every scenario (concrete problems ensure
this with penalized shedding/curtailment slacks).

The two network problems (``adn``, ``uc``) share their config handling
(:class:`NetworkConfig`), their problem shell (:class:`NetworkProblem`) and
the compile steps that map scenario sources to buses and add those slacks.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass

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
    def first_stage_summary(self, decision) -> dict:
        """Problem-specific scalar summary of a first-stage decision."""

    @abstractmethod
    def fingerprint_payload(self) -> dict:
        """Canonical configuration dict used for cache fingerprints."""


class NetworkConfig:
    """Mixin of the network problem configs (dataclasses).

    Shared fields: ``n_buses``, ``lines``, ``t_steps``, ``dt_hours``,
    ``res_sources`` and ``load_sources`` (source name -> bus),
    ``fixed_loads`` (bus -> T MW), ``penalty_shed`` and ``penalty_curtail``
    ($/MWh).  Every bus named by a source or a fixed load must lie in
    ``[0, n_buses)``.  Subclasses normalize their own fields before calling
    ``super().__post_init__()`` and extend :meth:`validate`.
    """

    def __post_init__(self):
        self.lines = [tuple(l) for l in self.lines]
        self.fixed_loads = {int(k): list(v) for k, v in self.fixed_loads.items()}
        self.res_sources = {k: int(v) for k, v in self.res_sources.items()}
        self.load_sources = {k: int(v) for k, v in self.load_sources.items()}
        self.validate()

    def validate(self):
        for bus, series in self.fixed_loads.items():
            if not 0 <= bus < self.n_buses:
                raise ConfigError(f"fixed load at bad bus {bus}")
            if len(series) != self.t_steps:
                raise ConfigError(f"fixed load at bus {bus} has wrong length")
        for name, bus in [*self.res_sources.items(),
                          *self.load_sources.items()]:
            if not 0 <= bus < self.n_buses:
                raise ConfigError(f"source {name!r} mapped to bad bus {bus}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["fixed_loads"] = {str(k): v for k, v in sorted(d["fixed_loads"].items())}
        return d

    @classmethod
    def from_dict(cls, d: dict):
        return cls(**d)


class NetworkProblem(TssoProblem):
    """A network problem bound to its config and a fixed source ordering."""

    kind = ""  # problem tag of the cache fingerprint

    def __init__(self, config: NetworkConfig, source_names):
        self.config = config
        self.source_names = tuple(source_names)

    def fingerprint_payload(self):
        return {"problem": self.kind, "config": self.config.to_dict(),
                "sources": list(self.source_names)}


def _source_rows(cfg: NetworkConfig, source_names, scenarios,
                 extra=()) -> dict[str, int]:
    """Row of each scenario source; the sources must be exactly the
    configured renewables, loads and ``extra``, and every scenario a
    (sources, T) matrix."""
    names = list(source_names)
    configured = set(cfg.res_sources) | set(cfg.load_sources) | set(extra)
    if set(names) != configured:
        raise ConfigError(
            f"scenario sources {sorted(names)} do not match the configured "
            f"sources {sorted(configured)}")
    for s in scenarios:
        if s.values.shape != (len(names), cfg.t_steps):
            raise ConfigError(
                f"scenario {s.id!r} shape {s.values.shape} does not match "
                f"(U={len(names)}, T={cfg.t_steps})")
    return {name: names.index(name) for name in names}


def _penalized_recourse(m: MixedBinaryModel, cfg: NetworkConfig, scen, src,
                        w: float, s: int):
    """Add scenario ``s``'s shedding ``Ls[b,s,t]`` at every load bus, then
    its curtailment ``Rc[b,s,t]`` at every renewable bus, each bounded by
    what the bus holds and priced (weight ``w``) into group ``in_penalty``.

    Returns (load_mw, shed, res_mw, curt), each keyed by (bus, t): the bus
    load and renewable infeed in MW and the slack columns.
    """
    T, dt = cfg.t_steps, cfg.dt_hours
    loads_by_bus: dict[int, list[str]] = {}
    for name, bus in cfg.load_sources.items():
        loads_by_bus.setdefault(bus, []).append(name)
    res_by_bus: dict[int, list[str]] = {}
    for name, bus in cfg.res_sources.items():
        res_by_bus.setdefault(bus, []).append(name)
    load_mw, shed, res_mw, curt = {}, {}, {}, {}
    shed_cost = w * cfg.penalty_shed * dt
    curtail_cost = w * cfg.penalty_curtail * dt
    for b in sorted(set(loads_by_bus) | set(cfg.fixed_loads)):
        rows = [scen.values[src[n]].tolist() for n in loads_by_bus.get(b, ())]
        fixed = cfg.fixed_loads.get(b, [0.0] * T)
        for t in range(T):
            total = float(sum(row[t] for row in rows))
            total += float(fixed[t])
            load_mw[b, t] = total
            shed[b, t] = m.add_var(f"Ls[{b},{s},{t}]", 0.0, total)
            m.add_objective(shed[b, t], shed_cost, group="in_penalty")
    for b, names in sorted(res_by_bus.items()):
        rows = [scen.values[src[n]].tolist() for n in names]
        for t in range(T):
            avail = float(sum(row[t] for row in rows))
            res_mw[b, t] = avail
            curt[b, t] = m.add_var(f"Rc[{b},{s},{t}]", 0.0, avail)
            m.add_objective(curt[b, t], curtail_cost, group="in_penalty")
    return load_mw, shed, res_mw, curt


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
        raise ValueError(f"weights sum to {float(weights.sum())!r}, expected 1")
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


def _fixed_bounds(problem: TssoProblem, decision: FirstStageDecision,
                  model: MixedBinaryModel):
    """``(lb, ub)`` of ``model``, a program of the problem with a free first
    stage, with every first-stage column fixed at the decision
    (``lb = ub``); binary columns are rounded to exact 0/1 so the gating
    rows see clean commitments.  The model itself is left as it is."""
    names = problem.first_stage_names()
    values = np.asarray(decision.values, dtype=float)
    if values.shape != (len(names),):
        raise ConfigError(f"first-stage decision has {values.size} values, "
                          f"the problem has {len(names)}")
    if not np.isfinite(values).all():
        raise ConfigError("first-stage decision has non-finite values")
    lb, ub = np.array(model.lb), np.array(model.ub)
    for name, value in zip(names, values):
        j = model.index_of(name)
        if model.is_binary[j]:
            value = round(value)
        lb[j] = ub[j] = float(value)
    return lb, ub


def evaluate_with_fixed_first_stage(problem: TssoProblem,
                                    decision: FirstStageDecision, scenario,
                                    gap_tol: float = DEFAULT_GAP_TOL,
                                    with_components: bool = False,
                                    model: MixedBinaryModel | None = None):
    """Evaluate F(z, xi): first-stage cost plus optimal recourse for one
    scenario, the problem-space entry of the paper.

    The scenario's program, compiled with a free first stage, is solved
    once with its first-stage columns fixed at ``decision`` by bound
    overrides.  ``model`` is that program compiled before (its bounds are
    not changed), so several decisions can share one compile and re-solve
    warm on its HiGHS instance; without it the program is compiled here.
    A decision of the wrong length raises ConfigError.  With
    ``with_components`` returns (value, named objective slices).
    """
    if model is None:
        model = problem.build_model([scenario], [1.0])
    sol = solve_milp(model, gap_tol=gap_tol,
                     bounds=_fixed_bounds(problem, decision, model))
    if sol.status != OPTIMAL or sol.x is None:
        raise RecourseError(
            f"second stage {sol.status} for fixed first stage "
            f"(source scenario {decision.source_scenario!r}) on scenario "
            f"{scenario.id!r}")
    if not with_components:
        return sol.objective
    groups = {g: model.group_value(g, sol.x) for g in model.obj_groups}
    return sol.objective, groups
