"""Two-stage economic dispatch of a radial active distribution network.

Day-ahead stage: hourly trading schedule with the transmission system and
storage capacity procurement.  Intraday stage, per scenario: balancing
purchases/sales, storage operation, curtailment and load shedding, all on a
LinDistFlow network model (squared voltage magnitudes, lossless lines).

The objective is day-ahead trading plus procurement cost, expected intraday
balancing cost, and expected penalty cost of shedding/curtailment; time-step
length is folded into the cost coefficients at compile time.

The compiler builds the program's structure (:func:`_adn_structure`) and
writes the scenario data into it: the bus loads and renewable output as
slack bounds and balance right-hand sides, and the price as trading and
balancing costs (``tsso._Structure``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .milp import GE, LE, EQ
from .scenarios import Scenario, ScenarioSet, _pick_bad, _smooth_noise
from .tsso import (NetworkConfig, NetworkProblem, _penalized_recourse,
                   _Structure)


@dataclass
class EsUnit:
    """Storage unit: fixed power rating, procurable energy capacity."""

    node: int
    p_max: float            # MW charge/discharge rating
    e_max: float            # MWh procurement cap
    soc0: float = 0.5
    soc_min: float = 0.1
    soc_max: float = 0.9
    eta_c: float = 0.95
    eta_d: float = 0.95
    price: float = 25.0     # $/MWh procured capacity


@dataclass
class AdnConfig(NetworkConfig):
    """Network, asset, and price data for the dispatch problem."""

    n_buses: int
    lines: list          # (from, to, r pu, x pu); must form a tree rooted at bus 0
    t_steps: int
    dt_hours: float
    p_trade_max: float   # MW interconnection limit
    price_source: str    # scenario source carrying the day-ahead price
    res_sources: dict    # source name -> bus
    load_sources: dict   # source name -> bus
    fixed_loads: dict = field(default_factory=dict)   # bus -> list of T MW
    es_units: list = field(default_factory=list)
    v_min_sq: float = 0.81
    v_max_sq: float = 1.21
    buy_mult: float = 1.3    # intraday up-regulation price multiplier
    sell_mult: float = 0.7   # intraday down-regulation price multiplier
    penalty_shed: float = 1000.0     # $/MWh
    penalty_curtail: float = 280.0   # $/MWh
    reactive_ratio: float = 0.33     # Q = ratio * P for every load

    def __post_init__(self):
        self.es_units = [e if isinstance(e, EsUnit) else EsUnit(**e)
                         for e in self.es_units]
        super().__post_init__()

    def validate(self):
        if not (0 < self.sell_mult < 1.0 < self.buy_mult):
            raise ConfigError("price multipliers must satisfy buy > 1 > sell > 0")
        if self.t_steps < 1 or self.dt_hours <= 0:
            raise ConfigError("bad horizon")
        for e in self.es_units:
            if not (0 < e.eta_c <= 1 and 0 < e.eta_d <= 1):
                raise ConfigError("ES efficiencies must be in (0, 1]")
            if not (0 <= e.soc_min <= e.soc0 <= e.soc_max <= 1):
                raise ConfigError("ES SoC bounds must satisfy "
                                  "0 <= min <= initial <= max <= 1")
            if not 0 <= e.node < self.n_buses:
                raise ConfigError("ES node out of range")
        super().validate()
        self.parents()  # raises on a non-radial network

    def parents(self) -> dict[int, tuple[int, float, float]]:
        """child bus -> (parent bus, r, x); validates the radial feeder."""
        parent: dict[int, tuple[int, float, float]] = {}
        for (i, j, r, x) in self.lines:
            if not (0 <= i < self.n_buses and 0 <= j < self.n_buses):
                raise ConfigError(f"line ({i},{j}) references unknown bus")
            if j in parent or j == 0:
                raise ConfigError("network is not a tree rooted at bus 0")
            parent[j] = (i, float(r), float(x))
        if len(parent) != self.n_buses - 1:
            raise ConfigError("network is not a tree rooted at bus 0")
        # every bus must reach the root
        for j in parent:
            seen, k = set(), j
            while k != 0:
                if k in seen:
                    raise ConfigError("network contains a cycle")
                seen.add(k)
                k = parent[k][0]
        return parent

    def children(self) -> dict[int, list[int]]:
        ch: dict[int, list[int]] = {b: [] for b in range(self.n_buses)}
        for j, (i, _, _) in self.parents().items():
            ch[i].append(j)
        return ch


def _adn_structure(cfg: AdnConfig, weights) -> _Structure:
    """The dispatch program over one scenario per weight, without its
    scenario data: the slack bounds, the balance right-hand sides and the
    price-dependent trading and balancing costs."""
    T, dt = cfg.t_steps, cfg.dt_hours
    parent = cfg.parents()
    children = cfg.children()

    st = _Structure(cfg, price_source=cfg.price_source)
    m = st.model

    # -- first stage -------------------------------------------------------
    pt = [m.add_var(f"PT[{t}]", -cfg.p_trade_max, cfg.p_trade_max)
          for t in range(T)]
    ecap = [m.add_var(f"E[{e.node}]", 0.0, e.e_max) for e in cfg.es_units]

    for k, e in enumerate(cfg.es_units):
        m.add_objective(ecap[k], e.price, group="da_storage")

    # -- second stage ------------------------------------------------------
    for s, w in enumerate(weights):
        tp = [m.add_var(f"Tp[{s},{t}]", 0.0, cfg.p_trade_max) for t in range(T)]
        tm = [m.add_var(f"Tm[{s},{t}]", 0.0, cfg.p_trade_max) for t in range(T)]
        dts = [m.add_var(f"DT[{s},{t}]", 0.0, 1.0, binary=True) for t in range(T)]
        volt = {}
        fp = {}
        fq = {}
        for b in range(1, cfg.n_buses):
            for t in range(T):
                volt[b, t] = m.add_var(f"V[{b},{s},{t}]", cfg.v_min_sq, cfg.v_max_sq)
                fp[b, t] = m.add_var(f"Fp[{b},{s},{t}]", -math.inf, math.inf)
                fq[b, t] = m.add_var(f"Fq[{b},{s},{t}]", -math.inf, math.inf)
        shed, curt = _penalized_recourse(st, w, s)
        ch = {}
        dis = {}
        stored = {}
        des = {}
        for k, e in enumerate(cfg.es_units):
            for t in range(T):
                ch[k, t] = m.add_var(f"Ec[{e.node},{s},{t}]", 0.0, e.p_max)
                dis[k, t] = m.add_var(f"Ed[{e.node},{s},{t}]", 0.0, e.p_max)
                stored[k, t] = m.add_var(f"W[{e.node},{s},{t}]", 0.0, e.e_max)
                des[k, t] = m.add_var(f"DE[{e.node},{s},{t}]", 0.0, 1.0, binary=True)
                m.gating.append((des[k, t], ch[k, t], dis[k, t]))
        for t in range(T):
            m.gating.append((dts[t], tp[t], tm[t]))

        # objective: day-ahead trading (scenario-weighted price), intraday
        # balancing (penalty costs are priced with the slacks)
        for t in range(T):
            st.add_price_cost(s, pt[t], w, t, "da_trade")
            st.add_price_cost(s, tp[t], w * cfg.buy_mult, t, "in_balance")
            st.add_price_cost(s, tm[t], w * cfg.sell_mult, t, "in_balance")

        # voltage drop along each line; the root is the reference at 1 pu
        for b in range(1, cfg.n_buses):
            pi, r, x = parent[b]
            for t in range(T):
                cols = [volt[b, t], fp[b, t], fq[b, t]]
                vals = [1.0, 2.0 * r, 2.0 * x]
                if pi == 0:
                    m.add_row(cols, vals, EQ, 1.0)
                else:
                    m.add_row(cols + [volt[pi, t]], vals + [-1.0], EQ, 0.0)

        # active balance: inflow - child outflows = net withdrawal (storage
        # + load - renewables), the bus data (the slack bounds) folded into
        # the right-hand side
        for b in range(cfg.n_buses):
            for t in range(T):
                cols, vals, terms = [], [], []
                for k, e in enumerate(cfg.es_units):
                    if e.node == b:
                        cols += (ch[k, t], dis[k, t])
                        vals += (1.0, -1.0)
                if (b, t) in shed:
                    terms.append((1.0, shed[b, t]))
                    cols.append(shed[b, t])
                    vals.append(-1.0)
                if (b, t) in curt:
                    terms.append((-1.0, curt[b, t]))
                    cols.append(curt[b, t])
                    vals.append(1.0)
                for c in children[b]:
                    cols.append(fp[c, t])
                    vals.append(1.0)
                if b == 0:
                    # transmission import plays the parent-line role
                    cols += (pt[t], tp[t], tm[t])
                    vals += (-1.0, -1.0, 1.0)
                else:
                    cols.append(fp[b, t])
                    vals.append(-1.0)
                st.add_data_row(cols, vals, EQ, terms)

        # reactive balance at non-root buses (the root imports freely)
        for b in range(1, cfg.n_buses):
            for t in range(T):
                cols, vals, terms = [], [], []
                if (b, t) in shed:
                    terms.append((cfg.reactive_ratio, shed[b, t]))
                    cols.append(shed[b, t])
                    vals.append(-cfg.reactive_ratio)
                for c in children[b]:
                    cols.append(fq[c, t])
                    vals.append(1.0)
                cols.append(fq[b, t])
                vals.append(-1.0)
                st.add_data_row(cols, vals, EQ, terms)

        # storage: gating, stored-energy dynamics, SoC window in MWh,
        # terminal energy equal to initial
        for k, e in enumerate(cfg.es_units):
            for t in range(T):
                m.add_constraint({ch[k, t]: 1.0, des[k, t]: e.p_max}, LE, e.p_max)
                m.add_constraint({dis[k, t]: 1.0, des[k, t]: -e.p_max}, LE, 0.0)
                cols = [stored[k, t], ch[k, t], dis[k, t]]
                vals = [1.0, -e.eta_c * dt, dt / e.eta_d]
                if t == 0:
                    m.add_row(cols + [ecap[k]], vals + [-e.soc0], EQ, 0.0)
                else:
                    m.add_row(cols + [stored[k, t - 1]], vals + [-1.0], EQ, 0.0)
                m.add_row([stored[k, t], ecap[k]], [1.0, -e.soc_max], LE, 0.0)
                m.add_row([stored[k, t], ecap[k]], [1.0, -e.soc_min], GE, 0.0)
            m.add_row([stored[k, T - 1], ecap[k]], [1.0, -e.soc0], EQ, 0.0)

        # trading: one balancing direction at a time, net exchange within the
        # interconnection limit
        for t in range(T):
            m.add_constraint({tp[t]: 1.0, dts[t]: cfg.p_trade_max}, LE,
                             cfg.p_trade_max)
            m.add_constraint({tm[t]: 1.0, dts[t]: -cfg.p_trade_max}, LE, 0.0)
            net = [pt[t], tp[t], tm[t]]
            m.add_row(net, [1.0, 1.0, -1.0], LE, cfg.p_trade_max)
            m.add_row(net, [1.0, 1.0, -1.0], GE, -cfg.p_trade_max)

    return st


class AdnProblem(NetworkProblem):
    """Dispatch problem bound to a fixed source ordering."""

    kind = "adn"

    # stays in the class body: perfbench wraps ``__dict__["build_model"]``
    def build_model(self, scenarios, weights):
        return self._compiled(scenarios, weights)

    def _structure(self, weights):
        return _adn_structure(self.config, weights)

    def first_stage_names(self):
        return ([f"PT[{t}]" for t in range(self.config.t_steps)]
                + [f"E[{e.node}]" for e in self.config.es_units])

    def first_stage_summary(self, decision):
        T = self.config.t_steps
        caps = decision.values[T:]
        return {"es_capacity_mwh": float(np.sum(caps)),
                "trade_peak_mw": float(np.max(np.abs(decision.values[:T])))}


def make_desk_instance(seed: int, n_scenarios: int, t_steps: int = 12,
                       buses: int = 6, bad_fraction: float = 0.1):
    """Deterministic pseudo-random desk-scale instance.

    A radial feeder with one wind source, one PV source, two stochastic
    loads, one storage unit, and a fixed background load.  Normal scenarios
    are shaped so imports stay within the interconnection limit; a
    ``bad_fraction`` share carries an evening net-demand excursion (small,
    spread over loads plus a renewable drought, so it stays unremarkable in
    distribution space) that exceeds import-plus-storage capability and
    forces shedding unless storage capacity was procured up front.  Bad
    scenarios are tagged with an ``_bad`` id suffix.
    """
    if buses < 3:
        raise ConfigError("need at least 3 buses")
    if t_steps < 8:
        raise ConfigError("need at least 8 time steps")
    rng = np.random.default_rng(seed)
    N, T = n_scenarios, t_steps

    lines = []
    for b in range(1, buses):
        parent = int(rng.integers(0, b))
        r = float(rng.uniform(0.005, 0.012))
        x = float(r * rng.uniform(1.2, 1.6))
        lines.append((parent, b, r, x))

    order = list(rng.permutation(buses - 1) + 1)
    spots = [int(order[k % len(order)]) for k in range(5)]
    wt_bus, pv_bus, load1_bus, load2_bus, es_bus = spots

    tgrid = np.arange(T)
    # bulk of the demand sits at the substation bus: it loads the
    # interconnection without stressing feeder voltages
    fixed_shape = 3.4 + 0.2 * np.sin(2 * math.pi * (tgrid - 2) / T)

    p_trade = 4.2
    es_power = 0.08
    config = AdnConfig(
        n_buses=buses,
        lines=lines,
        t_steps=T,
        dt_hours=1.0,
        p_trade_max=p_trade,
        price_source="price",
        res_sources={"wt1": wt_bus, "pv1": pv_bus},
        load_sources={"load1": load1_bus, "load2": load2_bus},
        fixed_loads={0: [float(v) for v in fixed_shape]},
        es_units=[EsUnit(node=es_bus, p_max=es_power, e_max=1.2, soc0=0.5,
                         soc_min=0.1, soc_max=0.9, eta_c=0.95, eta_d=0.95,
                         price=28.0)],
    )

    import_margin = p_trade - 0.15
    # far enough past import + storage power that the storage power rating,
    # not its energy, caps the help: every excursion then values the same
    # procured capacity, and severities are uniform across bad scenarios
    target_net = p_trade + es_power + 0.12

    fixed = np.asarray(fixed_shape)
    drawn = []
    for i in range(N):
        # one latent demand-level regime drives every source: loads scale
        # with it, wind runs against it, cloud cover and prices with it.
        # Scenarios then live on a banded one-dimensional manifold that a
        # handful of representatives can stand in for, while each source
        # still carries wide scenario-to-scenario spread.
        level = float(rng.choice((0.60, 0.87, 1.13, 1.40)) + rng.uniform(-0.02, 0.02))
        price = np.clip(22.0 + 9.0 * level
                        + 4.0 * np.sin(2 * math.pi * (tgrid - 3) / T)
                        + 1.2 * _smooth_noise(rng, T, 3) + rng.normal(0.0, 0.6, T),
                        5.0, None)
        wt = np.clip(0.55 - 0.28 * level + rng.uniform(-0.03, 0.03)
                     + 0.04 * _smooth_noise(rng, T, 3)
                     + 0.05 * np.sin(2 * math.pi * (tgrid + rng.uniform(0, T)) / T)
                     + rng.normal(0.0, 0.012, T), 0.02, 0.65)
        cloud = np.clip(1.05 - 0.5 * level + rng.uniform(-0.05, 0.05)
                        + 0.07 * _smooth_noise(rng, T, 3), 0.05, 1.1)
        bell = np.clip(np.sin(math.pi * (tgrid - 1) / (T - 4)), 0.0, None)
        bell[tgrid >= T - 3] = 0.0
        pv = np.clip(0.55 * cloud * bell + rng.normal(0.0, 0.01, T), 0.0, 0.6)
        loads = []
        for phase in (4.0, 6.0):
            scale = level * rng.uniform(0.985, 1.015)
            ld = np.clip(scale * (1.0 + 0.04 * _smooth_noise(rng, T, 3))
                         * (0.27 + 0.13 * np.sin(2 * math.pi * (tgrid - phase) / T))
                         + rng.normal(0.0, 0.008, T), 0.05, None)
            loads.append(ld)

        # keep ordinary exchanges inside the interconnection limit
        for t in range(T):
            net = fixed[t] + loads[0][t] + loads[1][t] - wt[t] - pv[t]
            if net > import_margin:
                surplus = net - import_margin
                total = loads[0][t] + loads[1][t]
                shrink = max(0.0, 1.0 - surplus / total)
                loads[0][t] *= shrink
                loads[1][t] *= shrink
            elif net < -import_margin:
                deficit = -import_margin - net
                total = wt[t] + pv[t]
                if total > 0.0:
                    shrink = max(0.0, 1.0 - deficit / total)
                    wt[t] *= shrink
                    pv[t] *= shrink
        drawn.append((wt, pv, loads, price))

    # bad scenarios: ordinary draws whose own peak window gets a small
    # multi-source excursion across the import + storage cliff.  Each bad
    # keeps its own window and base pattern (no common spike signature in
    # distribution space); bases are picked among the higher-net draws so
    # the excursion stays small.
    n_bad = int(round(bad_fraction * N))
    # windows leave recharge room on both sides of the excursion
    nets = [fixed + loads[0] + loads[1] - wt - pv for wt, pv, loads, _ in drawn]
    windows = _pick_bad(rng, nets, n_bad, width=3, first=max(1, T // 4),
                        last=T - 5, pool=max(n_bad, int(round(0.2 * N))))

    scenarios = []
    for i, (wt, pv, loads, price) in enumerate(drawn):
        sid = f"s{i:03d}"
        if i in windows:
            sid += "_bad"
            for t in range(windows[i], windows[i] + 3):
                wt[t] = max(wt[t] - rng.uniform(0.04, 0.06), 0.02)
                pv[t] *= 0.8
                base_net = fixed[t] + loads[0][t] + loads[1][t] - wt[t] - pv[t]
                gap = max(0.0, target_net + rng.normal(0.0, 0.01) - base_net)
                loads[0][t] += min(0.5 * gap, 0.30)
                loads[1][t] += min(0.5 * gap, 0.30)
        values = np.vstack([wt, pv, loads[0], loads[1], price])
        scenarios.append(Scenario(sid, values))

    scenario_set = ScenarioSet(tuple(scenarios), np.full(N, 1.0 / N),
                               ("wt1", "pv1", "load1", "load2", "price"))
    return config, scenario_set
