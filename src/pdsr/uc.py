"""Two-stage stochastic unit commitment on a DC network.

Day-ahead stage: on/off commitment and scheduled output per generator and
hour.  Intraday stage, per scenario: up/down regulation within commitment
and ramp limits, DC power flow with curtailment and load shedding as
penalized recourse (any commitment admits a feasible second stage).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ConfigError
from .milp import GE, LE, EQ, LinExpr, MixedBinaryModel
from .scenarios import Scenario, ScenarioSet
from .tsso import TssoProblem


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
    cost_reg_up: float      # $/MWh regulation premium
    cost_reg_down: float
    min_up: int = 1
    min_down: int = 1
    u0: int = 0             # committed before the horizon
    p0: float = 0.0         # output before the horizon


@dataclass
class UcConfig:
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

    def __post_init__(self):
        self.lines = [tuple(l) for l in self.lines]
        self.generators = [g if isinstance(g, Generator) else Generator(**g)
                           for g in self.generators]
        self.fixed_loads = {int(k): list(v) for k, v in self.fixed_loads.items()}
        self.res_sources = {k: int(v) for k, v in self.res_sources.items()}
        self.load_sources = {k: int(v) for k, v in self.load_sources.items()}
        self.validate()

    def validate(self):
        if not 0 <= self.reference_bus < self.n_buses:
            raise ConfigError("reference bus out of range")
        for (i, j, b) in self.lines:
            if not (0 <= i < self.n_buses and 0 <= j < self.n_buses) or i == j:
                raise ConfigError(f"bad line ({i},{j})")
        for g in self.generators:
            if g.p_min < 0 or g.p_max < g.p_min:
                raise ConfigError("generator limits must satisfy 0 <= min <= max")
            if g.min_up < 1 or g.min_down < 1:
                raise ConfigError("minimum up/down times must be >= 1 step")
            if not 0 <= g.bus < self.n_buses:
                raise ConfigError("generator bus out of range")
        for bus, series in self.fixed_loads.items():
            if len(series) != self.t_steps:
                raise ConfigError(f"fixed load at bus {bus} has wrong length")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["fixed_loads"] = {str(k): v for k, v in sorted(d["fixed_loads"].items())}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "UcConfig":
        return cls(**d)


def build_uc_model(config: UcConfig, scenarios, weights,
                   source_names) -> MixedBinaryModel:
    """Compile the weighted commitment program to a mixed-binary model.

    First-stage variables are scheduled outputs ``P[g,t]`` and commitments
    ``U[g,t]``, always model columns; a fixed decision is imposed by their
    bounds (``tsso.evaluate_with_fixed_first_stage``).  Start/shut
    indicators stay continuous in [-1, 1] (integral automatically once
    commitments are binary).
    """
    cfg = config
    T, dt = cfg.t_steps, cfg.dt_hours
    names = list(source_names)
    stochastic = set(cfg.res_sources) | set(cfg.load_sources)
    if set(names) != stochastic:
        raise ConfigError(
            f"scenario sources {sorted(names)} do not match the configured "
            f"sources {sorted(stochastic)}")
    src = {name: names.index(name) for name in names}
    for s in scenarios:
        if s.values.shape != (len(names), T):
            raise ConfigError(f"scenario {s.id!r} has wrong shape")

    gens = cfg.generators
    ng = len(gens)
    m = MixedBinaryModel()

    # -- first stage: schedule, commitment, start/shut logic ---------------
    p_fs = [[m.add_var(f"P[{g},{t}]", 0.0, gens[g].p_max) for t in range(T)]
            for g in range(ng)]
    u_fs = [[m.add_var(f"U[{g},{t}]", 0.0, 1.0, binary=True) for t in range(T)]
            for g in range(ng)]

    for g, gen in enumerate(gens):
        for t in range(T):
            m.add_objective(p_fs[g][t], gen.cost_power, group="da_gen")
            m.add_objective(u_fs[g][t], gen.cost_no_load, group="da_gen")

    for g, gen in enumerate(gens):
        for t in range(T):
            v = m.add_var(f"V[{g},{t}]", -1.0, 1.0)
            sc = m.add_var(f"SC[{g},{t}]", 0.0, math.inf)
            expr = LinExpr().add(v, 1.0).add(u_fs[g][t], -1.0)
            if t == 0:
                expr.add_const(float(gen.u0))
            else:
                expr.add(u_fs[g][t - 1], 1.0)
            m.add_expr_constraint(expr, EQ, 0.0)
            m.add_constraint({sc: 1.0, v: -gen.cost_start}, GE, 0.0)
            m.add_constraint({sc: 1.0, v: gen.cost_stop}, GE, 0.0)
            m.add_objective(sc, 1.0, group="da_gen")
            # stay on (off) for the minimum run after a start (stop);
            # windows truncated at the end of the horizon
            up_end = min(t + gen.min_up, T - 1)
            if up_end > t:
                expr = LinExpr()
                for tau in range(t + 1, up_end + 1):
                    expr.add(u_fs[g][tau], 1.0)
                expr.add(v, -float(up_end - t))
                m.add_expr_constraint(expr, GE, 0.0)
            down_end = min(t + gen.min_down, T - 1)
            if down_end > t:
                # sum of (1 - u) over the window >= -v * window
                expr = LinExpr()
                for tau in range(t + 1, down_end + 1):
                    expr.add(u_fs[g][tau], -1.0)
                expr.add(v, float(down_end - t))
                m.add_expr_constraint(expr, GE, -float(down_end - t))

    for g, gen in enumerate(gens):
        for t in range(T):
            # scheduled output within committed limits and ramps
            m.add_expr_constraint(
                LinExpr().add(p_fs[g][t], 1.0).add(u_fs[g][t], -gen.p_max),
                LE, 0.0)
            m.add_expr_constraint(
                LinExpr().add(p_fs[g][t], 1.0).add(u_fs[g][t], -gen.p_min),
                GE, 0.0)
            for rel, limit in ((LE, gen.ramp_up), (GE, -gen.ramp_down)):
                ramp = LinExpr().add(p_fs[g][t], 1.0)
                if t == 0:
                    ramp.add_const(-gen.p0)
                else:
                    ramp.add(p_fs[g][t - 1], -1.0)
                m.add_expr_constraint(ramp, rel, limit)

    # -- second stage: regulation, DC flow, recourse ------------------------
    ref = cfg.reference_bus
    loads_by_bus: dict[int, list[str]] = {}
    for name, bus in cfg.load_sources.items():
        loads_by_bus.setdefault(bus, []).append(name)
    res_by_bus: dict[int, list[str]] = {}
    for name, bus in cfg.res_sources.items():
        res_by_bus.setdefault(bus, []).append(name)
    load_buses = sorted(set(loads_by_bus) | set(cfg.fixed_loads))

    for s, (scen, w) in enumerate(zip(scenarios, weights)):
        w = float(w)
        # the reference bus angle is the constant 0, not a variable
        theta = {(b, t): m.add_var(f"Th[{b},{s},{t}]", -cfg.angle_bound,
                                   cfg.angle_bound)
                 for b in range(cfg.n_buses) if b != ref for t in range(T)}
        flow = {(li, t): m.add_var(f"Fl[{li},{s},{t}]", -math.inf, math.inf)
                for li in range(len(cfg.lines)) for t in range(T)}
        pg = {}
        up = {}
        dn = {}
        dreg = {}
        for g, gen in enumerate(gens):
            for t in range(T):
                pg[g, t] = m.add_var(f"Pg[{g},{s},{t}]", 0.0, gen.p_max)
                up[g, t] = m.add_var(f"Rp[{g},{s},{t}]", 0.0, gen.p_max)
                dn[g, t] = m.add_var(f"Rm[{g},{s},{t}]", 0.0, gen.p_max)
                dreg[g, t] = m.add_var(f"DG[{g},{s},{t}]", 0.0, 1.0, binary=True)
                m.gating.append((dreg[g, t], dn[g, t], up[g, t]))
                m.add_objective(up[g, t], w * gen.cost_reg_up, group="in_reg")
                m.add_objective(dn[g, t], w * gen.cost_reg_down, group="in_reg")
        shed = {}
        curt = {}
        load_mw = {}
        res_mw = {}
        for b in load_buses:
            for t in range(T):
                total = float(sum(scen.values[src[n], t]
                                  for n in loads_by_bus.get(b, ())))
                total += float(cfg.fixed_loads.get(b, [0.0] * T)[t])
                load_mw[b, t] = total
                shed[b, t] = m.add_var(f"Ls[{b},{s},{t}]", 0.0, total)
                m.add_objective(shed[b, t], w * cfg.penalty_shed * dt,
                                group="in_penalty")
        for b in sorted(res_by_bus):
            for t in range(T):
                avail = float(sum(scen.values[src[n], t] for n in res_by_bus[b]))
                res_mw[b, t] = avail
                curt[b, t] = m.add_var(f"Rc[{b},{s},{t}]", 0.0, avail)
                m.add_objective(curt[b, t], w * cfg.penalty_curtail * dt,
                                group="in_penalty")

        for g, gen in enumerate(gens):
            for t in range(T):
                # realized output = schedule + regulation, within commitment
                expr = (LinExpr().add(pg[g, t], 1.0).add(p_fs[g][t], -1.0)
                        .add(up[g, t], -1.0).add(dn[g, t], 1.0))
                m.add_expr_constraint(expr, EQ, 0.0)
                for reg in (up[g, t], dn[g, t]):
                    m.add_expr_constraint(
                        LinExpr().add(reg, 1.0).add(u_fs[g][t], -gen.p_max),
                        LE, 0.0)
                m.add_constraint({up[g, t]: 1.0, dreg[g, t]: -gen.p_max}, LE, 0.0)
                m.add_constraint({dn[g, t]: 1.0, dreg[g, t]: gen.p_max}, LE,
                                 gen.p_max)
                m.add_expr_constraint(
                    LinExpr().add(pg[g, t], 1.0).add(u_fs[g][t], -gen.p_max),
                    LE, 0.0)
                m.add_expr_constraint(
                    LinExpr().add(pg[g, t], 1.0).add(u_fs[g][t], -gen.p_min),
                    GE, 0.0)
                for rel, limit in ((LE, gen.ramp_up), (GE, -gen.ramp_down)):
                    ramp = LinExpr().add(pg[g, t], 1.0)
                    if t == 0:
                        ramp.add_const(-gen.p0)
                    else:
                        ramp.add(pg[g, t - 1], -1.0)
                    m.add_expr_constraint(ramp, rel, limit)

        for li, (i, j, bsus) in enumerate(cfg.lines):
            for t in range(T):
                # the reference angle is 0, so its term is left out
                expr = LinExpr().add(flow[li, t], 1.0)
                if i != ref:
                    expr.add(theta[i, t], -bsus)
                if j != ref:
                    expr.add(theta[j, t], bsus)
                m.add_expr_constraint(expr, EQ, 0.0)

        for b in range(cfg.n_buses):
            for t in range(T):
                expr = LinExpr()
                for g, gen in enumerate(gens):
                    if gen.bus == b:
                        expr.add(pg[g, t], 1.0)
                if b in res_by_bus:
                    expr.add_const(res_mw[b, t])
                    expr.add(curt[b, t], -1.0)
                if b in load_buses:
                    expr.add_const(-load_mw[b, t])
                    expr.add(shed[b, t], 1.0)
                for li, (i, j, _) in enumerate(cfg.lines):
                    if i == b:
                        expr.add(flow[li, t], -1.0)
                    elif j == b:
                        expr.add(flow[li, t], 1.0)
                m.add_expr_constraint(expr, EQ, 0.0)

    m.validate()
    return m


class UcProblem(TssoProblem):
    """Commitment problem bound to a fixed source ordering."""

    def __init__(self, config: UcConfig, source_names):
        self.config = config
        self.source_names = tuple(source_names)

    def build_model(self, scenarios, weights):
        return build_uc_model(self.config, scenarios, weights,
                              self.source_names)

    def first_stage_names(self):
        ng = len(self.config.generators)
        T = self.config.t_steps
        return ([f"P[{g},{t}]" for g in range(ng) for t in range(T)]
                + [f"U[{g},{t}]" for g in range(ng) for t in range(T)])

    def fingerprint_payload(self):
        return {"problem": "uc", "config": self.config.to_dict(),
                "sources": list(self.source_names)}

    def cost_groups(self):
        return ("da_gen", "in_reg", "in_penalty")

    def penalty_group(self):
        return "in_penalty"

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

    def smooth_noise(amp):
        out = np.zeros(T)
        for k in (1, 2):
            out += rng.normal(0.0, amp / math.sqrt(2)) * np.sin(
                2 * math.pi * (k * tgrid / T + rng.uniform(0.0, 1.0)))
        return out

    drawn = []
    for i in range(N):
        wt = np.clip(rng.uniform(0.2, 1.0) + 0.15 * smooth_noise(1.0)
                     + rng.normal(0.0, 0.04, T), 0.05, 1.3)
        level = float(rng.choice((0.78, 0.95, 1.12)) + rng.uniform(-0.05, 0.05))
        loads = []
        for base, phase in ((1.1, 1.5), (0.85, 2.5)):
            scale = level * rng.uniform(0.95, 1.05)
            ld = np.clip(scale * (1.0 + 0.08 * smooth_noise(1.0))
                         * (base + 0.25 * np.sin(2 * math.pi * (tgrid - phase) / T))
                         + rng.normal(0.0, 0.03, T), 0.1, None)
            loads.append(ld)
        fixed = np.asarray(fixed_shape)
        for t in range(T):
            net = fixed[t] + loads[0][t] + loads[1][t] - wt[t]
            if net > margin:
                surplus = net - margin
                total = loads[0][t] + loads[1][t]
                loads[0][t] *= max(0.0, 1.0 - surplus / total)
                loads[1][t] *= max(0.0, 1.0 - surplus / total)
        drawn.append((wt, loads))

    n_bad = int(round(bad_fraction * N))
    bad_idx: set[int] = set()
    windows: dict[int, int] = {}
    if n_bad:
        peak = {}
        fixed = np.asarray(fixed_shape)
        for i, (wt, loads) in enumerate(drawn):
            net = fixed + loads[0] + loads[1] - wt
            sums = [net[t:t + 2].sum() for t in range(1, T - 2)]
            w = int(np.argmax(sums)) + 1
            peak[i] = (net[w:w + 2].mean(), w)
        eligible = sorted(range(N), key=lambda i: -peak[i][0])[:max(n_bad, int(0.6 * N))]
        chosen = rng.choice(len(eligible), size=n_bad, replace=False)
        bad_idx = {int(eligible[c]) for c in chosen}
        windows = {i: peak[i][1] for i in bad_idx}

    scenarios = []
    fixed = np.asarray(fixed_shape)
    for i, (wt, loads) in enumerate(drawn):
        sid = f"s{i:03d}"
        if i in bad_idx:
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
