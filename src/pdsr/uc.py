"""Two-stage stochastic unit commitment on a DC network.

Day-ahead stage: on/off commitment and scheduled output per generator and
hour.  Intraday stage, per scenario: up/down regulation within commitment
and ramp limits, DC power flow with curtailment and load shedding as
penalized recourse (any commitment admits a feasible second stage).

Regulation has no direction binary.  Realized output is ``P + Rp - Rm``,
so cutting ``Rp`` and ``Rm`` both by their minimum keeps every row and
lowers the cost by that minimum times ``cost_reg_up + cost_reg_down``;
:meth:`UcConfig.validate` demands that sum be >= 0, so some optimum never
regulates both ways and a binary forbidding it would not change the
optimal value.  A program carries only the commitments as binaries.

The compiler builds the program's structure (:func:`_uc_structure`) and
writes the scenario data into it: the bus loads and renewable output as
slack bounds and balance right-hand sides, the scenario weight into the
costs (``tsso._Structure``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .milp import GE, LE, EQ
from .scenarios import Scenario, ScenarioSet, _pick_bad, _smooth_noise
from .tsso import (_AT_LEAST_ONE, _FINITE, _NON_NEGATIVE, _POSITIVE,
                   NetworkConfig, TssoProblem, _bus, _penalized_recourse,
                   _records, _Structure)


@dataclass
class Generator:
    bus: int
    p_min: float
    p_max: float
    ramp_up: float          # MW per step, symmetric limit stored as magnitudes
    ramp_down: float
    cost_power: float       # $/MW per step on scheduled output
    cost_no_load: float     # $ per committed step
    cost_start: float
    cost_stop: float
    cost_reg_up: float      # $/MWh regulation premium, either sign, but
    cost_reg_down: float    # cost_reg_up + cost_reg_down >= 0 (module doc)
    min_up: int = 1
    min_down: int = 1
    u0: int = 0             # 1 when committed before the horizon, else 0
    p0: float = 0.0         # output before the horizon

    field_kinds = {"bus": _bus, "p_min": _NON_NEGATIVE,
                   "ramp_up": _NON_NEGATIVE, "ramp_down": _NON_NEGATIVE,
                   "min_up": _AT_LEAST_ONE, "min_down": _AT_LEAST_ONE,
                   "u0": (" and in [0, 1]", lambda v: 0 <= v <= 1)}


@dataclass
class UcConfig(NetworkConfig):
    n_buses: int
    lines: list                    # (from, to, susceptance pu)
    t_steps: int
    dt_hours: float
    generators: list
    res_sources: dict              # source name -> bus
    load_sources: dict
    fixed_loads: dict = field(default_factory=dict)
    penalty_shed: float = 1000.0
    penalty_curtail: float = 280.0
    angle_bound: float = math.pi / 3
    reference_bus: int = 0

    field_kinds = {**NetworkConfig.field_kinds,
                   "generators": _records(Generator, "generator"),
                   "angle_bound": _POSITIVE, "reference_bus": _bus}
    line_fields = {"susceptance": _FINITE}

    def validate(self):
        for i, j, _ in self.lines:
            if i == j:
                raise ConfigError(f"line ({i},{j}) joins a bus to itself")
        for k, g in enumerate(self.generators):
            if g.p_max < g.p_min:
                raise ConfigError(f"generator {k}: p_min must be <= p_max")
            if g.cost_reg_up + g.cost_reg_down < 0:
                raise ConfigError(f"generator {k}: cost_reg_up + cost_reg_down "
                                  "must be >= 0")
            # the first stage can stay as it was before the horizon
            if not (g.p_min <= g.p0 <= g.p_max if g.u0 else g.p0 == 0):
                within = "in [p_min, p_max]" if g.u0 else "0"
                raise ConfigError(f"generator {k}: p0 must be {within} when "
                                  f"u0 is {g.u0}, got {g.p0!r}")


def _uc_structure(cfg: UcConfig, n: int) -> _Structure:
    """The commitment program over ``n`` scenarios, without their data and
    weights: the slack bounds, the balance right-hand sides and the
    weighted regulation and penalty costs.
    Start/shut indicators stay continuous in [-1, 1]; they are integral
    once the commitments are.  Up and down regulation get no direction
    binary, as regulating both ways never pays once ``cost_reg_up +
    cost_reg_down >= 0`` (module docstring), so the commitments are the
    only binaries, ng·T of them."""
    T = cfg.t_steps
    gens = cfg.generators
    ng = len(gens)
    st = _Structure(cfg)
    m = st.model

    # -- first stage: schedule, commitment, start/shut logic ---------------
    p_fs = [[m.add_var(f"P[{g},{t}]", 0.0, gens[g].p_max) for t in range(T)]
            for g in range(ng)]
    u_fs = [[m.add_var(f"U[{g},{t}]", 0.0, 1.0, binary=True) for t in range(T)]
            for g in range(ng)]
    st.n_first = m.num_vars  # the start/shut columns below stay out

    for g, gen in enumerate(gens):
        for t in range(T):
            m.add_objective(p_fs[g][t], gen.cost_power, group="da_gen")
            m.add_objective(u_fs[g][t], gen.cost_no_load, group="da_gen")

    for g, gen in enumerate(gens):
        u = u_fs[g]
        for t in range(T):
            v = m.add_var(f"V[{g},{t}]", -1.0, 1.0)
            sc = m.add_var(f"SC[{g},{t}]", 0.0, math.inf)
            if t == 0:
                m.add_row([v, u[t]], [1.0, -1.0], EQ, 0.0 - float(gen.u0))
            else:
                m.add_row([v, u[t], u[t - 1]], [1.0, -1.0, 1.0], EQ, 0.0)
            m.add_row([sc, v], [1.0, -gen.cost_start], GE, 0.0)
            m.add_row([sc, v], [1.0, gen.cost_stop], GE, 0.0)
            m.add_objective(sc, 1.0, group="da_gen")
            # stay on (off) for the minimum run after a start (stop);
            # windows truncated at the end of the horizon
            up_end = min(t + gen.min_up, T - 1)
            if up_end > t:
                m.add_row(u[t + 1:up_end + 1] + [v],
                          [1.0] * (up_end - t) + [-float(up_end - t)], GE, 0.0)
            down_end = min(t + gen.min_down, T - 1)
            if down_end > t:
                # sum of (1 - u) over the window >= -v * window
                m.add_row(u[t + 1:down_end + 1] + [v],
                          [-1.0] * (down_end - t) + [float(down_end - t)],
                          GE, -float(down_end - t))

    for g, gen in enumerate(gens):
        p, u = p_fs[g], u_fs[g]
        for t in range(T):
            # scheduled output within committed limits and ramps
            m.add_row([p[t], u[t]], [1.0, -gen.p_max], LE, 0.0)
            m.add_row([p[t], u[t]], [1.0, -gen.p_min], GE, 0.0)
            for rel, limit in ((LE, gen.ramp_up), (GE, -gen.ramp_down)):
                if t == 0:
                    m.add_row([p[t]], [1.0], rel, limit - (0.0 - gen.p0))
                else:
                    m.add_row([p[t], p[t - 1]], [1.0, -1.0], rel, limit)

    # -- second stage: regulation, DC flow, recourse ------------------------
    ref = cfg.reference_bus
    for s in range(n):
        # the reference bus angle is the constant 0, not a variable
        theta = {(b, t): m.add_var(f"Th[{b},{s},{t}]", -cfg.angle_bound,
                                   cfg.angle_bound)
                 for b in range(cfg.n_buses) if b != ref for t in range(T)}
        flow = {(li, t): m.add_var(f"Fl[{li},{s},{t}]", -math.inf, math.inf)
                for li in range(len(cfg.lines)) for t in range(T)}
        pg = {}
        up = {}
        dn = {}
        for g, gen in enumerate(gens):
            for t in range(T):
                pg[g, t] = m.add_var(f"Pg[{g},{s},{t}]", 0.0, gen.p_max)
                up[g, t] = m.add_var(f"Rp[{g},{s},{t}]", 0.0, gen.p_max)
                dn[g, t] = m.add_var(f"Rm[{g},{s},{t}]", 0.0, gen.p_max)
                st.add_cost(s, up[g, t], "in_reg", gen.cost_reg_up, None)
                st.add_cost(s, dn[g, t], "in_reg", gen.cost_reg_down, None)
        shed, curt = _penalized_recourse(st, s)

        for g, gen in enumerate(gens):
            p, u = p_fs[g], u_fs[g]
            for t in range(T):
                # realized output = schedule + regulation, within commitment
                m.add_row([pg[g, t], p[t], up[g, t], dn[g, t]],
                          [1.0, -1.0, -1.0, 1.0], EQ, 0.0)
                for reg in (up[g, t], dn[g, t]):
                    m.add_row([reg, u[t]], [1.0, -gen.p_max], LE, 0.0)
                m.add_row([pg[g, t], u[t]], [1.0, -gen.p_max], LE, 0.0)
                m.add_row([pg[g, t], u[t]], [1.0, -gen.p_min], GE, 0.0)
                for rel, limit in ((LE, gen.ramp_up), (GE, -gen.ramp_down)):
                    if t == 0:
                        m.add_row([pg[g, t]], [1.0], rel,
                                  limit - (0.0 - gen.p0))
                    else:
                        m.add_row([pg[g, t], pg[g, t - 1]], [1.0, -1.0], rel,
                                  limit)

        for li, (i, j, bsus) in enumerate(cfg.lines):
            for t in range(T):
                # the reference angle is 0, so its term is left out
                cols, vals = [flow[li, t]], [1.0]
                if i != ref:
                    cols.append(theta[i, t])
                    vals.append(-bsus)
                if j != ref:
                    cols.append(theta[j, t])
                    vals.append(bsus)
                m.add_row(cols, vals, EQ, 0.0)

        # bus balance, the bus data (the slack bounds) folded into the
        # right-hand side
        for b in range(cfg.n_buses):
            for t in range(T):
                cols = [pg[g, t] for g, gen in enumerate(gens) if gen.bus == b]
                vals = [1.0] * len(cols)
                terms = []
                if (b, t) in curt:
                    terms.append((1.0, curt[b, t]))
                    cols.append(curt[b, t])
                    vals.append(-1.0)
                if (b, t) in shed:
                    terms.append((-1.0, shed[b, t]))
                    cols.append(shed[b, t])
                    vals.append(1.0)
                for li, (i, j, _) in enumerate(cfg.lines):
                    if i == b:
                        cols.append(flow[li, t])
                        vals.append(-1.0)
                    elif j == b:
                        cols.append(flow[li, t])
                        vals.append(1.0)
                st.add_data_row(cols, vals, EQ, terms)

    return st


class UcProblem(TssoProblem):
    """Commitment problem bound to a fixed source ordering."""

    kind = "uc"

    # stays in the class body: perfbench wraps ``__dict__["build_model"]``
    def build_model(self, scenarios, weights):
        return self._compiled(scenarios, weights)

    def _structure(self, n):
        return _uc_structure(self.config, n)

    def first_stage_summary(self, decision):
        ng = len(self.config.generators)
        T = self.config.t_steps
        u = decision.values[ng * T:]
        return {"committed_steps": float(np.round(u).sum()),
                "scheduled_mwh": float(decision.values[:ng * T].sum()
                                       * self.config.dt_hours)}


def make_uc_desk_instance(seed: int, n_scenarios: int, t_steps: int = 6,
                          buses: int = 3, bad_fraction: float = 0.1):
    """Deterministic desk-scale commitment instance.

    Two generators (one cheap base unit, one expensive peaker), a wind
    source, two stochastic loads on a three-bus ring.  Bad scenarios carry
    a late-day demand excursion beyond total generation capability, forcing
    shedding unless the peaker was committed; they are tagged with an
    ``_bad`` id suffix.
    """
    if buses != 3:
        raise ConfigError("the desk instance is defined on 3 buses")
    if t_steps < 4:
        raise ConfigError("need at least 4 time steps")
    rng = np.random.default_rng(seed)
    N, T = n_scenarios, t_steps
    tgrid = np.arange(T)

    gens = [
        Generator(bus=0, p_min=0.6, p_max=3.2, ramp_up=1.8, ramp_down=1.8,
                  cost_power=16.0, cost_no_load=6.0, cost_start=45.0,
                  cost_stop=15.0, cost_reg_up=24.0, cost_reg_down=4.0,
                  min_up=2, min_down=2, u0=1, p0=1.2),
        Generator(bus=1, p_min=0.3, p_max=2.4, ramp_up=2.4, ramp_down=2.4,
                  cost_power=44.0, cost_no_load=6.0, cost_start=35.0,
                  cost_stop=10.0, cost_reg_up=60.0, cost_reg_down=6.0,
                  min_up=1, min_down=1, u0=0, p0=0.0),
    ]
    fixed_shape = 0.7 + 0.08 * np.sin(2 * math.pi * (tgrid - 1) / T)
    config = UcConfig(
        n_buses=3,
        lines=[(0, 1, 10.0), (1, 2, 10.0), (0, 2, 10.0)],
        t_steps=T,
        dt_hours=1.0,
        generators=gens,
        res_sources={"wt1": 2},
        load_sources={"load1": 1, "load2": 2},
        fixed_loads={0: [float(v) for v in fixed_shape]},
    )

    # ordinary peaks stay within the base unit alone; the excursion needs
    # the peaker committed, else it sheds
    margin = 0.88 * gens[0].p_max
    target_net = gens[0].p_max + 2.0

    fixed = np.asarray(fixed_shape)
    drawn = []
    for i in range(N):
        wt = np.clip(rng.uniform(0.2, 1.0) + 0.15 * _smooth_noise(rng, T, 2)
                     + rng.normal(0.0, 0.04, T), 0.05, 1.3)
        level = float(rng.choice((0.78, 0.95, 1.12)) + rng.uniform(-0.05, 0.05))
        loads = []
        for base, phase in ((1.1, 1.5), (0.85, 2.5)):
            scale = level * rng.uniform(0.95, 1.05)
            ld = np.clip(scale * (1.0 + 0.08 * _smooth_noise(rng, T, 2))
                         * (base + 0.25 * np.sin(2 * math.pi * (tgrid - phase) / T))
                         + rng.normal(0.0, 0.03, T), 0.1, None)
            loads.append(ld)
        for t in range(T):
            net = fixed[t] + loads[0][t] + loads[1][t] - wt[t]
            if net > margin:
                surplus = net - margin
                total = loads[0][t] + loads[1][t]
                loads[0][t] *= max(0.0, 1.0 - surplus / total)
                loads[1][t] *= max(0.0, 1.0 - surplus / total)
        drawn.append((wt, loads))

    n_bad = int(round(bad_fraction * N))
    nets = [fixed + loads[0] + loads[1] - wt for wt, loads in drawn]
    windows = _pick_bad(rng, nets, n_bad, width=2, first=1, last=T - 3,
                        pool=max(n_bad, int(0.6 * N)))

    scenarios = []
    for i, (wt, loads) in enumerate(drawn):
        sid = f"s{i:03d}"
        if i in windows:
            sid += "_bad"
            for t in range(windows[i], windows[i] + 2):
                wt[t] = max(wt[t] - rng.uniform(0.10, 0.20), 0.05)
                base_net = fixed[t] + loads[0][t] + loads[1][t] - wt[t]
                gap = max(0.0, target_net + rng.normal(0.0, 0.02) - base_net)
                loads[0][t] += 0.5 * gap
                loads[1][t] += 0.5 * gap
        values = np.vstack([wt, loads[0], loads[1]])
        scenarios.append(Scenario(sid, values))

    scenario_set = ScenarioSet(tuple(scenarios), np.full(N, 1.0 / N),
                               ("wt1", "load1", "load2"))
    return config, scenario_set
