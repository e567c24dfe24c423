"""Distribution-network compile: structure, physics, recourse behavior."""

import numpy as np
import pytest

from oracles import bad_scenario_ids
from pdsr.adn import AdnConfig, AdnProblem, EsUnit, make_desk_instance
from pdsr.errors import ConfigError
from pdsr.milp import solve_milp
from pdsr.scenarios import Scenario, ScenarioSet, dump_values_csv
from pdsr.tsso import (FirstStageDecision, evaluate_with_fixed_first_stage,
                       solve_scenario_specific, solve_stochastic)


def small_config(**overrides):
    base = dict(
        n_buses=4,
        lines=[(0, 1, 0.01, 0.015), (1, 2, 0.008, 0.012), (1, 3, 0.01, 0.014)],
        t_steps=3,
        dt_hours=1.0,
        p_trade_max=1.0,
        price_source="price",
        res_sources={"wt1": 2},
        load_sources={"load1": 3},
        es_units=[EsUnit(node=1, p_max=0.3, e_max=0.6, price=12.0)],
    )
    base.update(overrides)
    return AdnConfig(**base)


def small_set(n=2, t=3, seed=0):
    rng = np.random.default_rng(seed)
    scens = tuple(
        Scenario(f"s{i}", np.vstack([rng.uniform(0.0, 0.4, t),
                                     rng.uniform(0.2, 0.6, t),
                                     rng.uniform(20.0, 40.0, t)]))
        for i in range(n))
    return ScenarioSet(scens, np.full(n, 1.0 / n), ("wt1", "load1", "price"))


def test_binary_count_formula():
    # binaries: one storage state per unit and one balancing state, each
    # per scenario and period
    for s_count, t_count, n_es in ((1, 3, 1), (3, 3, 1), (2, 4, 2)):
        es = [EsUnit(node=1, p_max=0.3, e_max=0.6, price=12.0)][:n_es]
        if n_es == 2:
            es = [EsUnit(node=1, p_max=0.3, e_max=0.6, price=12.0),
                  EsUnit(node=2, p_max=0.2, e_max=0.4, price=12.0)]
        cfg = small_config(t_steps=t_count, es_units=es)
        ss = small_set(n=s_count, t=t_count)
        model = AdnProblem(cfg, ss.source_names).build_model(
            ss.scenarios, ss.probabilities)
        assert len(model.binary_indices) == s_count * t_count * (n_es + 1)


def test_non_radial_network_rejected():
    with pytest.raises(ConfigError, match="tree"):
        small_config(lines=[(0, 1, 0.01, 0.01), (1, 2, 0.01, 0.01),
                            (2, 1, 0.01, 0.01)])
    with pytest.raises(ConfigError, match="tree"):
        small_config(lines=[(0, 1, 0.01, 0.01)])  # disconnected bus


def test_source_mismatch_rejected():
    cfg = small_config()
    ss = small_set()
    with pytest.raises(ConfigError, match="sources"):
        AdnProblem(cfg, ["wt1", "load9", "price"]).build_model(
            ss.scenarios, ss.probabilities)


@pytest.mark.parametrize("field, value", [
    ("res_sources", {"wt1": 4}),
    ("load_sources", {"load1": -1}),
    ("fixed_loads", {99: [0.1, 0.1, 0.1]}),
], ids=["res_source", "load_source", "fixed_load"])
def test_bus_outside_network_rejected(field, value):
    with pytest.raises(ConfigError, match="bad bus"):
        small_config(**{field: value})


def test_balanced_single_period_costs_nothing():
    # generation equals load at the same bus, price zero: do nothing
    cfg = small_config(n_buses=2, lines=[(0, 1, 0.01, 0.015)], t_steps=1,
                       res_sources={"wt1": 1}, load_sources={"load1": 1},
                       es_units=[])
    values = np.array([[0.5], [0.5], [0.0]])
    ss = ScenarioSet((Scenario("bal", values),), np.array([1.0]),
                     ("wt1", "load1", "price"))
    problem = AdnProblem(cfg, ss.source_names)
    _, obj = solve_scenario_specific(problem, ss.scenarios[0])
    assert obj == pytest.approx(0.0, abs=1e-7)


def test_overload_forces_shedding_at_penalty_price():
    # load beyond import + storage power must shed at the penalty price
    cfg = small_config(t_steps=1)
    load = 2.0      # import cap 1.0 + storage 0.3 < 2.0
    values = np.array([[0.0], [load], [30.0]])
    ss = ScenarioSet((Scenario("spike", values),), np.array([1.0]),
                     ("wt1", "load1", "price"))
    problem = AdnProblem(cfg, ss.source_names)
    model = problem.build_model(ss.scenarios, ss.probabilities)
    sol = solve_milp(model)
    shed = sum(sol.x[j] for j, n in enumerate(model.var_names)
               if n.startswith("Ls["))
    assert shed >= 2.0 - 1.0 - 0.3 - 1e-6
    penalty = model.group_value("in_penalty", sol.x)
    assert penalty == pytest.approx(shed * 1000.0, rel=1e-6)


def test_storage_and_trading_exclusive_in_optimum():
    cfg, ss = make_desk_instance(seed=3, n_scenarios=4, t_steps=12, buses=5)
    problem = AdnProblem(cfg, ss.source_names)
    model = problem.build_model(ss.scenarios, ss.probabilities)
    sol = solve_milp(model)
    x = sol.x
    names = model.var_names
    by_name = {n: x[j] for j, n in enumerate(names)}
    for j, n in enumerate(names):
        if n.startswith("Ec["):
            twin = "Ed[" + n[3:]
            assert x[j] * by_name[twin] <= 1e-6
        if n.startswith("Tp["):
            twin = "Tm[" + n[3:]
            assert x[j] * by_name[twin] <= 1e-6


def test_storage_energy_window_and_terminal():
    cfg, ss = make_desk_instance(seed=2, n_scenarios=3, t_steps=12, buses=5)
    problem = AdnProblem(cfg, ss.source_names)
    model = problem.build_model(ss.scenarios, ss.probabilities)
    sol = solve_milp(model)
    x = sol.x
    es = cfg.es_units[0]
    cap = x[model.index_of(f"E[{es.node}]")]
    for s in range(len(ss)):
        for t in range(cfg.t_steps):
            w = x[model.index_of(f"W[{es.node},{s},{t}]")]
            assert w >= es.soc_min * cap - 1e-6
            assert w <= es.soc_max * cap + 1e-6
        terminal = x[model.index_of(f"W[{es.node},{s},{cfg.t_steps - 1}]")]
        assert terminal == pytest.approx(es.soc0 * cap, abs=1e-6)


def test_curtail_and_shed_within_availability():
    cfg, ss = make_desk_instance(seed=4, n_scenarios=4, t_steps=12, buses=6,
                                 bad_fraction=0.25)
    problem = AdnProblem(cfg, ss.source_names)
    model = problem.build_model(ss.scenarios, ss.probabilities)
    sol = solve_milp(model)
    # variable upper bounds encode availability; solution must respect them
    assert model.max_violation(sol.x) <= 1e-6


def test_voltage_reference_is_constant():
    cfg = small_config()
    ss = small_set()
    model = AdnProblem(cfg, ss.source_names).build_model(ss.scenarios,
                                                         ss.probabilities)
    assert not any(n.startswith("V[0,") for n in model.var_names)


def test_desk_instance_deterministic():
    _, ss1 = make_desk_instance(seed=9, n_scenarios=6, t_steps=12, buses=5)
    _, ss2 = make_desk_instance(seed=9, n_scenarios=6, t_steps=12, buses=5)
    assert dump_values_csv(ss1) == dump_values_csv(ss2)
    _, ss3 = make_desk_instance(seed=10, n_scenarios=6, t_steps=12, buses=5)
    assert dump_values_csv(ss1) != dump_values_csv(ss3)


def test_desk_instance_bad_count():
    _, ss = make_desk_instance(seed=0, n_scenarios=8, t_steps=12, buses=5,
                               bad_fraction=0.25)
    assert len(bad_scenario_ids(ss)) == 2


def test_desk_instance_solves_quickly():
    import time
    cfg, ss = make_desk_instance(seed=1, n_scenarios=8, t_steps=12, buses=6)
    problem = AdnProblem(cfg, ss.source_names)
    t0 = time.monotonic()
    _, _, sol = solve_stochastic(problem, ss.scenarios, ss.probabilities)
    assert time.monotonic() - t0 < 60.0
    assert sol.status == "optimal"
    assert sol.mip_gap <= 1e-4 + 1e-12


def test_config_json_round_trip():
    cfg = small_config()
    back = AdnConfig.from_dict(cfg.to_dict())
    assert back.to_dict() == cfg.to_dict()


def test_wrong_length_decision_rejected():
    cfg = small_config()
    ss = small_set()
    problem = AdnProblem(cfg, ss.source_names)
    z, _ = solve_scenario_specific(problem, ss.scenarios[0])
    short = FirstStageDecision(z.values[:-1], z.objective_at_source)
    with pytest.raises(ConfigError, match="first-stage decision"):
        evaluate_with_fixed_first_stage(problem, short, ss.scenarios[1])
