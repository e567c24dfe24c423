"""Two-stage stochastic problem contract and its solve modes.

A concrete problem compiles scenario sets into mixed-binary models.  The
first stage ("here-and-now") is the same leading columns in every
compilation; the second stage ("wait-and-see") is scenario-indexed recourse.
Problems must have relatively complete recourse: every first-stage decision
admits a feasible second stage for every scenario (concrete problems ensure
this with penalized shedding/curtailment slacks).

The two network problems (``adn``, ``uc``) share their config handling
(:class:`NetworkConfig`), their problem class (:class:`TssoProblem`) and
the compile steps that map scenario sources to buses and add those slacks.
Their compilers build a program's structure, which depends only on the
config and the scenario count, and a data writer then writes each
scenario's data and weight into it (:class:`_Structure`).  A problem keeps
one structure per scenario count, so every compile, of the projection's
cells and diagonals, the verification's programs, the full set and the
reduced and drop-one sets, is a copy of a kept structure plus a data write.
"""

from __future__ import annotations

import numbers
import threading
from abc import ABC, abstractmethod
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .errors import ConfigError, RecourseError
from .milp import DEFAULT_GAP_TOL, GAP_LIMIT, MixedBinaryModel, OPTIMAL, solve_milp


# the largest float; an integer beyond it is taken as not finite
_LARGEST = float(np.finfo(float).max)
# the ranges of number fields: what an error adds to "finite", the test
_FINITE = ("", lambda v: True)
_NON_NEGATIVE = (" and >= 0", lambda v: v >= 0)
_POSITIVE = (" and > 0", lambda v: v > 0)
_AT_LEAST_ONE = (" and >= 1", lambda v: v >= 1)
_FRACTION = (" and in (0, 1]", lambda v: 0 < v <= 1)
# the type each scalar annotation names, a string as annotations are postponed
_TYPES = {"int": (numbers.Integral, "an integer"), "str": (str, "a string"),
          "float": (numbers.Real, "a real number")}


def _of(path: str, value, kind, noun: str):
    """``value``; raises ConfigError if it is a bool or not a ``kind``."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{path} must be {noun}, got {value!r}")
    return value


def _scalar(path: str, value, annotation: str, limits=_FINITE):
    """``value``, of the annotated type and, a number, finite in ``limits``."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if real and annotation != "str" and not (abs(value) <= _LARGEST
                                             and limits[1](value)):
        raise ConfigError(f"{path} must be finite{limits[0]}, got {value!r}")
    return _of(path, value, *_TYPES[annotation])


def _bus(cfg, path: str, value):
    if not 0 <= _scalar(path, value, "int") < cfg.n_buses:
        raise ConfigError(f"{path} must be in [0, {cfg.n_buses}), got bad "
                          f"bus {value!r}")
    return value


def _sources(cfg, path: str, value) -> dict:
    value = _of(path, value, dict, "an object mapping sources to buses")
    return {name: _bus(cfg, f"source {name!r} bus", bus)
            for name, bus in value.items()}


def _series(cfg, path: str, value) -> dict:
    value = _of(path, value, dict, "an object mapping buses to series")
    series = {}
    for key, loads in value.items():
        # a JSON object key spells its bus as a string
        decimal = isinstance(key, str) and key.removeprefix("-").isdecimal()
        bus = _bus(cfg, f"{path} key", int(key) if decimal else key)
        at = f"{path} at bus {bus}"
        if not isinstance(loads, (list, tuple)) or len(loads) != cfg.t_steps:
            raise ConfigError(f"{at} must be a list of {cfg.t_steps} reals, "
                              f"got {loads!r}")
        series[bus] = [_scalar(at, v, "float") for v in loads]
    return series


def _lines(cfg, path: str, value) -> list[tuple]:
    """Each line as a tuple.  A line of the wrong shape, or a field that is
    not a number, is named by the line's position, the rest by its buses."""
    names = cfg.line_fields
    for k, line in enumerate(_of(path, value, (list, tuple), "a list")):
        if not isinstance(line, (list, tuple)) or len(line) != 2 + len(names):
            shape = ", ".join(("from", "to", *names))
            raise ConfigError(f"line {k} must be [{shape}], got {line!r}")
        at = f"line ({line[0]},{line[1]}): "
        _bus(cfg, at + "start", line[0])
        _bus(cfg, at + "end", line[1])
        for name, v in zip(names, line[2:]):
            _of(f"line {k}: {name}", v, numbers.Real, "a real number")
            _scalar(at + name, v, "float", names[name])
    return [tuple(line) for line in value]


def _records(cls, label: str):
    """The kind of a list of ``cls`` records; record ``k`` is named
    ``f"{label} {k}"``."""
    def check(cfg, path, value) -> list:
        records = _of(path, value, (list, tuple), "a list")
        return [_checked(cfg, f"{label} {k}", cls, r) for k, r in enumerate(records)]
    return check


def _record(name: str, cls, d):
    """``cls(**d)``; ``d`` must be an object whose keys are fields of
    ``cls``, every field without a default among them."""
    known = {f.name: f for f in fields(cls)}
    for key in _of(name, d, dict, "an object"):
        if key not in known:
            raise ConfigError(f"{name}: unknown key {key!r}")
    for f in known.values():
        if f.name not in d and f.default is f.default_factory is MISSING:
            raise ConfigError(f"{name}: missing key {f.name!r}")
    return cls(**d)


def _checked(cfg, name: str, cls, record):
    """``record`` as a ``cls``, built from an object of its fields if need
    be, with each field checked against its kind in ``cls.field_kinds``
    and set normalised; ``name`` names the record."""
    if not isinstance(record, cls):
        record = _record(name, cls, record)
    for f in fields(cls):
        kind = cls.field_kinds.get(f.name, _FINITE)
        path = f"{name}: {f.name}" if name else f.name
        value = getattr(record, f.name)
        setattr(record, f.name, kind(cfg, path, value) if callable(kind)
                else _scalar(path, value, f.type, kind))
    return record


class NetworkConfig:
    """Mixin of the network problem configs (dataclasses).

    Shared fields: ``n_buses``, ``lines``, ``t_steps``, ``dt_hours``,
    ``res_sources`` and ``load_sources`` (source name -> bus),
    ``fixed_loads`` (bus -> T MW), ``penalty_shed`` and ``penalty_curtail``
    ($/MWh).

    Each record class's ``field_kinds`` gives the kind of its fields: a
    number field's type is its annotation, ``int`` or ``float``, and its
    entry the range it lies in (with none, it need only be finite); other
    kinds check and normalise a value (:func:`_lines`, ...).  Construction
    checks the fields in order, ``n_buses`` and ``t_steps`` before the
    kinds that read them, naming the field in the ConfigError; then
    :meth:`validate` checks the rules between fields.
    """

    field_kinds = {"n_buses": _AT_LEAST_ONE, "lines": _lines,
                   "t_steps": _AT_LEAST_ONE, "dt_hours": _POSITIVE,
                   "res_sources": _sources, "load_sources": _sources,
                   "fixed_loads": _series, "penalty_shed": _NON_NEGATIVE,
                   "penalty_curtail": _NON_NEGATIVE}
    line_fields = {}  # a line's fields after its buses -> their ranges

    def __post_init__(self):
        _checked(self, "", type(self), self).validate()

    def to_dict(self) -> dict:
        d = asdict(self)
        d["fixed_loads"] = {str(k): v for k, v in sorted(d["fixed_loads"].items())}
        return d

    @classmethod
    def from_dict(cls, d: dict):
        return _record("config", cls, d)


# guards the first build of each of a problem's kept structures;
# module-level, as problems are deep-copied and a lock is not
_STRUCTURE_LOCK = threading.Lock()


class TssoProblem(ABC):
    """A two-stage network problem bound to its config and a fixed source
    ordering; its first stage is the ``_Structure.n_first`` leading columns
    of every program it compiles.

    It keeps the structure of its programs over ``n`` scenarios after the
    first compile of one (:meth:`_kept_structure`); the config must not
    change after that."""

    kind = ""  # problem tag of the cache fingerprint

    def __init__(self, config: NetworkConfig, source_names):
        self.config = config
        self.source_names = tuple(source_names)
        self._structures: dict[int, _Structure] = {}  # scenario count -> kept

    @abstractmethod
    def build_model(self, scenarios, weights) -> MixedBinaryModel:
        """Compile the weighted program over ``scenarios``.

        The first-stage variables are the model's leading columns, named by
        :meth:`first_stage_names`; evaluating a given decision fixes them
        by bounds (see :func:`evaluate_with_fixed_first_stage`).  The
        returned model is the caller's own to change."""

    @abstractmethod
    def first_stage_summary(self, decision) -> dict:
        """Problem-specific scalar summary of a first-stage decision."""

    @abstractmethod
    def _structure(self, n: int) -> "_Structure":
        """The structure of the program over ``n`` scenarios."""

    def fingerprint_payload(self) -> dict:
        """Canonical configuration dict used for cache fingerprints."""
        return {"problem": self.kind, "config": self.config.to_dict(),
                "sources": list(self.source_names)}

    def first_stage_names(self) -> list[str]:
        """Names of the first-stage columns, in decision-vector order."""
        structure = self._kept_structure(1)
        return structure.model.var_names[:structure.n_first]

    def _kept_structure(self, n: int) -> "_Structure":
        """The kept structure of the program over ``n`` scenarios.  The
        first call for ``n`` builds it and assembles its matrix under a
        lock, so threads asking at once build one and every copy of it
        shares one matrix object, as
        :meth:`~pdsr.milp.MixedBinaryModel.take_highs` needs."""
        structure = self._structures.get(n)
        if structure is None:
            with _STRUCTURE_LOCK:
                structure = self._structures.get(n)
                if structure is None:
                    structure = self._structure(n)
                    structure.model._assembled_matrix()
                    self._structures[n] = structure
        return structure

    def _compiled(self, scenarios, weights) -> MixedBinaryModel:
        """The program over ``scenarios``, each with its weight: a copy of
        the kept structure of their count with the scenarios' data and
        weights written into it.  A weight count other than the scenario
        count raises ValueError."""
        weights = [float(w) for w in weights]
        if len(weights) != len(scenarios):
            raise ValueError(f"{len(scenarios)} scenarios but {len(weights)} "
                             "weights")
        return self._kept_structure(len(scenarios)).write(
            scenarios, weights, self.source_names)


def _source_rows(cfg: NetworkConfig, source_names, scenarios,
                 extra=()) -> dict[str, int]:
    """Row of each scenario source; the sources must be exactly the
    configured renewables, loads and ``extra``, and every scenario a
    (sources, T) matrix."""
    names = list(source_names)
    configured = set(cfg.res_sources) | set(cfg.load_sources) | set(extra)
    if set(names) != configured:
        raise ConfigError(
            f"scenario sources {sorted(names)} do not match the config's "
            f"sources {sorted(configured)} (res_sources, load_sources"
            f"{', price_source' if extra else ''})")
    for s in scenarios:
        if s.values.shape != (len(names), cfg.t_steps):
            raise ConfigError(
                f"scenario {s.id!r} shape {s.values.shape} does not match "
                f"(U={len(names)}, T={cfg.t_steps})")
    return {name: names.index(name) for name in names}


class _Structure:
    """A network program without its scenario data and weights, and the
    writer of both (:meth:`write`).

    The data are the upper bounds of the shedding and curtailment slacks,
    the right-hand sides of the balance rows that fold those bounds, and
    the scenario costs, each weighted by its scenario's weight; the rest
    depends only on the config and the scenario count.  A compiler builds
    ``model`` with zero placeholders for the data through
    :func:`_penalized_recourse`, :meth:`add_data_row` and :meth:`add_cost`,
    which record where each datum goes.  It adds the first-stage columns
    first, the same for every scenario count, and records their count in
    ``n_first``."""

    def __init__(self, cfg: NetworkConfig, price_source: str | None = None):
        self.cfg = cfg
        self.price_source = price_source
        self.model = MixedBinaryModel()
        self.n_first = 0  # leading columns that form the first-stage decision
        loads: dict[int, list[str]] = {}
        for name, bus in cfg.load_sources.items():
            loads.setdefault(bus, []).append(name)
        res: dict[int, list[str]] = {}
        for name, bus in cfg.res_sources.items():
            res.setdefault(bus, []).append(name)
        # each bus with a load (a load source or a fixed load), then each
        # bus with a renewable, with the names of its sources
        self.load_buses = [(b, loads.get(b, ())) for b in
                           sorted(set(loads) | set(cfg.fixed_loads))]
        self.res_buses = sorted(res.items())
        # per scenario, the slack columns in _slack_bounds order
        self.slacks: list[list[int]] = []
        # (scenario, column, group, a, t): cost weight * a * price[t] * dt,
        # the price 1.0 when t is None
        self.costs: list[tuple[int, int, str, float, int | None]] = []
        # (row, ((coef, slack column), ...)): rhs 0.0 - sum of coef * bound
        self.data_rows: list[tuple[int, tuple]] = []

    def add_data_row(self, cols, vals, relation: str, terms):
        """Add a row whose data terms are ``coef * bound`` of each
        ``(coef, slack column)`` in ``terms``, summed from ``0.0`` in term
        order and folded into the right-hand side as ``0.0 - data``."""
        if terms:
            self.data_rows.append((len(self.model.row_len), tuple(terms)))
        self.model.add_row(cols, vals, relation, 0.0)

    def add_cost(self, s: int, col: int, group: str, a: float,
                 t: int | None):
        """Cost ``col`` at ``weight * a * price[t] * dt`` in ``group``, with
        the weight and price of scenario ``s``; ``t`` None prices at 1.0."""
        self.costs.append((s, col, group, a, t))
        self.model.add_objective(col, 0.0, group=group)

    def write(self, scenarios, weights, source_names) -> MixedBinaryModel:
        """A copy of ``self.model`` with the data of ``scenarios``, one per
        scenario of the structure, and their ``weights`` written into it.
        The slack bounds are checked as :meth:`MixedBinaryModel.add_var`
        checks bounds, and the costs accumulate onto the placeholders in
        record order.  A negative price raises ConfigError naming its
        scenario and step: the ADN program leaves out trade-direction
        binaries, which is exact only at prices >= 0 (``pdsr.adn``)."""
        cfg, model = self.cfg, self.model.copy()
        extra = () if self.price_source is None else (self.price_source,)
        src = _source_rows(cfg, source_names, scenarios, extra)
        for scen, slacks in zip(scenarios, self.slacks):
            for j, bound in zip(slacks, self._slack_bounds(scen, src)):
                model.set_bounds(j, 0.0, bound)
        price_row = src.get(self.price_source)
        if price_row is not None:
            for scen in scenarios:
                steps = np.flatnonzero(scen.values[price_row] < 0.0)
                if steps.size:
                    t = int(steps[0])
                    raise ConfigError(
                        f"scenario {scen.id!r}: price at step {t} is "
                        f"{float(scen.values[price_row, t])!r}, must be >= 0")
        for s, j, group, a, t in self.costs:
            price = 1.0 if t is None else scenarios[s].values[price_row, t]
            model.add_objective(j, weights[s] * a * price * cfg.dt_hours,
                                group=group)
        ub = model.ub
        for row, terms in self.data_rows:
            data = 0.0
            for coef, j in terms:
                data += coef * ub[j]
            model.set_rhs(row, 0.0 - data)
        return model

    def _slack_bounds(self, scen, src) -> list[float]:
        """Each load bus's load in MW, then each renewable bus's infeed,
        per step: the upper bounds of the slacks of one scenario."""
        T = self.cfg.t_steps
        bounds = []
        for b, names in self.load_buses:
            rows = [scen.values[src[n]].tolist() for n in names]
            fixed = self.cfg.fixed_loads.get(b, [0.0] * T)
            for t in range(T):
                total = float(sum(row[t] for row in rows))
                total += float(fixed[t])
                bounds.append(total)
        for b, names in self.res_buses:
            rows = [scen.values[src[n]].tolist() for n in names]
            for t in range(T):
                bounds.append(float(sum(row[t] for row in rows)))
        return bounds


def _penalized_recourse(st: _Structure, s: int):
    """Add scenario ``s``'s shedding ``Ls[b,s,t]`` at every load bus, then
    its curtailment ``Rc[b,s,t]`` at every renewable bus, costed into group
    ``in_penalty``; their upper bounds, what the bus holds, are scenario
    data.

    Returns (shed, curt), the slack columns keyed by (bus, t).
    """
    m, cfg = st.model, st.cfg
    shed, curt = {}, {}
    for b, _ in st.load_buses:
        for t in range(cfg.t_steps):
            shed[b, t] = m.add_var(f"Ls[{b},{s},{t}]", 0.0, 0.0)
            st.add_cost(s, shed[b, t], "in_penalty", cfg.penalty_shed, None)
    for b, _ in st.res_buses:
        for t in range(cfg.t_steps):
            curt[b, t] = m.add_var(f"Rc[{b},{s},{t}]", 0.0, 0.0)
            st.add_cost(s, curt[b, t], "in_penalty", cfg.penalty_curtail,
                        None)
    st.slacks.append([*shed.values(), *curt.values()])
    return shed, curt


@dataclass
class FirstStageDecision:
    """A first-stage decision vector with its provenance."""

    values: np.ndarray  # the program's leading columns, first_stage_names()
    objective_at_source: float
    source_scenario: int | None = None


def solve_stochastic(problem: TssoProblem, scenarios, weights,
                     gap_tol: float = DEFAULT_GAP_TOL,
                     time_limit: float | None = None,
                     source_scenario: int | None = None,
                     model: MixedBinaryModel | None = None):
    """Solve the weighted two-stage program in one monolithic MILP.

    Used both for the full-set benchmark and for reduced sets.  ``model``
    is that program compiled before; without it the program is compiled
    here.  Returns (FirstStageDecision, objective, Solution), the decision
    read from the solution's leading columns; when ``time_limit`` ends the
    solve before any incumbent the decision is None (status gap_limit).
    """
    weights = np.asarray(weights, dtype=float)
    if len(scenarios) == 0:
        raise ValueError("empty scenario set")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"weights sum to {float(weights.sum())!r}, expected 1")
    if model is None:
        model = problem.build_model(scenarios, weights)
    sol = solve_milp(model, gap_tol=gap_tol, time_limit=time_limit)
    if sol.status == GAP_LIMIT and sol.x is None:
        return None, sol.objective, sol
    if sol.status not in (OPTIMAL, GAP_LIMIT) or sol.x is None:
        raise RecourseError(
            f"stochastic program ended {sol.status}; the problem violates "
            "relatively complete recourse or is misconfigured")
    n = len(problem.first_stage_names())
    z = FirstStageDecision(sol.x[:n].copy(), sol.objective, source_scenario)
    return z, sol.objective, sol


def solve_scenario_specific(problem: TssoProblem, scenario,
                            gap_tol: float = DEFAULT_GAP_TOL,
                            source_index: int | None = None,
                            model: MixedBinaryModel | None = None):
    """Solve the deterministic single-scenario program F(z, xi).

    ``model`` is that program compiled before; without it the program is
    compiled here.  Returns (FirstStageDecision, optimal value).  Tie
    handling among multiple optima is the solver's deterministic choice.
    """
    z, obj, _ = solve_stochastic(problem, [scenario], [1.0], gap_tol=gap_tol,
                                 source_scenario=source_index, model=model)
    return z, obj


def _fixed_bounds(problem: TssoProblem, decision: FirstStageDecision,
                  model: MixedBinaryModel):
    """``(lb, ub)`` of ``model``, a program of the problem with a free first
    stage, with its leading first-stage columns fixed at the decision
    (``lb = ub``); binary columns are rounded to exact 0/1 so the gating
    rows see clean commitments.  The model itself is left as it is."""
    n = len(problem.first_stage_names())
    values = np.asarray(decision.values, dtype=float)
    if values.shape != (n,):
        raise ConfigError(f"first-stage decision has {values.size} values, "
                          f"the problem has {n}")
    if not np.isfinite(values).all():
        raise ConfigError("first-stage decision has non-finite values")
    lb, ub = np.array(model.lb), np.array(model.ub)
    lb[:n] = ub[:n] = [round(v) if binary else v
                       for v, binary in zip(values, model.is_binary[:n])]
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
