"""Two-stage contract: solve modes, consistency identities, monotonicity."""

import dataclasses
import math

import numpy as np
import pytest

from pdsr.adn import AdnConfig, AdnProblem, EsUnit, make_desk_instance
from pdsr.errors import ConfigError
from pdsr.scenarios import Scenario, ScenarioSet
from pdsr.tsso import (evaluate_with_fixed_first_stage, solve_scenario_specific,
                       solve_stochastic)
from pdsr.uc import UcProblem, make_uc_desk_instance

GAP = 1e-4


@pytest.fixture(scope="module")
def desk():
    config, ss = make_desk_instance(seed=5, n_scenarios=8, t_steps=12, buses=5,
                                    bad_fraction=0.25)
    return AdnProblem(config, ss.source_names), ss


def test_singleton_set_matches_scenario_specific(desk):
    problem, ss = desk
    z1, obj1 = solve_scenario_specific(problem, ss.scenarios[0])
    z2, obj2, _ = solve_stochastic(problem, [ss.scenarios[0]], [1.0])
    assert obj2 == pytest.approx(obj1, rel=2 * GAP)
    assert z2.values == pytest.approx(z1.values, abs=1e-6)


def test_weights_off_one_named_as_a_plain_number(desk):
    problem, ss = desk
    weights = np.array([0.5, 0.75])
    with pytest.raises(ValueError, match=r"^weights sum to 1\.25, expected 1$"):
        solve_stochastic(problem, ss.scenarios[:2], weights)


@pytest.mark.parametrize("n_scenarios, weights", [
    (2, [0.5, 0.3, 0.2]), (3, [0.5, 0.5]), (2, [1.0])],
    ids=["more_weights", "fewer_weights", "one_weight"])
def test_scenario_and_weight_counts_must_match(n_scenarios, weights):
    # the weights sum to one in every case, so only the count check can
    # stop a program over the shorter list
    config, ss = make_uc_desk_instance(seed=0, n_scenarios=4, t_steps=6)
    problem = UcProblem(config, ss.source_names)
    scenarios = ss.scenarios[:n_scenarios]
    match = rf"^{n_scenarios} scenarios but {len(weights)} weights$"
    with pytest.raises(ValueError, match=match):
        problem.build_model(scenarios, weights)
    with pytest.raises(ValueError, match=match):
        solve_stochastic(problem, scenarios, weights)


def test_identity_reduction_matches_benchmark(desk):
    problem, ss = desk
    _, obj1, _ = solve_stochastic(problem, ss.scenarios, ss.probabilities)
    _, obj2, _ = solve_stochastic(problem, ss.scenarios, ss.probabilities)
    assert obj2 == pytest.approx(obj1, rel=2 * GAP)


def test_permutation_invariant_objective(desk):
    problem, ss = desk
    _, obj, _ = solve_stochastic(problem, ss.scenarios, ss.probabilities)
    perm = [3, 1, 4, 0, 7, 5, 2, 6]
    scen = [ss.scenarios[i] for i in perm]
    w = ss.probabilities[perm]
    _, obj_p, _ = solve_stochastic(problem, scen, w)
    assert obj_p == pytest.approx(obj, rel=1e-6)


def test_fixed_first_stage_consistency(desk):
    problem, ss = desk
    xi = ss.scenarios[1]
    z, f_ii = solve_scenario_specific(problem, xi)
    value = evaluate_with_fixed_first_stage(problem, z, xi)
    assert value == pytest.approx(f_ii, rel=1e-6, abs=1e-6)


def test_diagonal_optimality_against_other_decisions(desk):
    problem, ss = desk
    xi = ss.scenarios[2]
    _, f_ii = solve_scenario_specific(problem, xi)
    for j in (0, 3, 5, 6, 7):
        z_other, _ = solve_scenario_specific(problem, ss.scenarios[j])
        value = evaluate_with_fixed_first_stage(problem, z_other, xi)
        assert value >= f_ii - 2 * GAP * abs(f_ii)


def test_weighted_sum_identity(desk):
    # the weighted per-scenario evaluations reproduce the full objective
    problem, ss = desk
    z, obj, _ = solve_stochastic(problem, ss.scenarios, ss.probabilities)
    vals = [evaluate_with_fixed_first_stage(problem, z, s) for s in ss.scenarios]
    total = float(np.dot(ss.probabilities, vals))
    assert total == pytest.approx(obj, rel=1e-4)
    assert total <= obj + 2 * GAP * abs(obj)


def test_partition_decomposition_identity(desk):
    # grouping per-scenario evaluations by cluster leaves the total unchanged
    problem, ss = desk
    z, _, _ = solve_stochastic(problem, ss.scenarios, ss.probabilities)
    vals = np.array([evaluate_with_fixed_first_stage(problem, z, s)
                     for s in ss.scenarios])
    gamma = ss.probabilities
    clusters = {0: [0, 1, 2], 3: [3, 4], 5: [5, 6, 7]}
    lhs = float(np.dot(gamma, vals)) - sum(
        sum(gamma[i] for i in members) * vals[rep]
        for rep, members in clusters.items())
    rhs = sum(gamma[i] * (vals[i] - vals[rep])
              for rep, members in clusters.items() for i in members)
    assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-9)


def zero_uncertainty_problem():
    config = AdnConfig(
        n_buses=3,
        lines=[(0, 1, 0.01, 0.015), (1, 2, 0.01, 0.015)],
        t_steps=2,
        dt_hours=1.0,
        p_trade_max=1.0,
        price_source="price",
        res_sources={"wt1": 1},
        load_sources={"load1": 2},
        es_units=[EsUnit(node=1, p_max=0.2, e_max=0.5, price=10.0)],
    )
    values = np.array([[0.0, 0.0],          # wt1
                       [0.0, 0.0],          # load1
                       [25.0, 30.0]])       # price
    ss = ScenarioSet((Scenario("flat", values),), np.array([1.0]),
                     ("wt1", "load1", "price"))
    return AdnProblem(config, ss.source_names), ss


def test_zero_uncertainty_scenario_costs_nothing():
    problem, ss = zero_uncertainty_problem()
    z, obj = solve_scenario_specific(problem, ss.scenarios[0])
    assert obj == pytest.approx(0.0, abs=1e-7)
    assert z.values == pytest.approx(np.zeros_like(z.values), abs=1e-7)


def test_price_scaling_increases_cost_when_buying():
    # a pure-load instance must import at the day-ahead price, so doubling
    # the price strictly increases the optimum
    config = zero_uncertainty_problem()[0].config
    values = np.array([[0.0, 0.0], [0.5, 0.5], [25.0, 30.0]])
    ss = ScenarioSet((Scenario("load", values),), np.array([1.0]),
                     ("wt1", "load1", "price"))
    problem = AdnProblem(config, ss.source_names)
    _, obj1 = solve_scenario_specific(problem, ss.scenarios[0])
    values2 = values.copy()
    values2[2] *= 2.0
    ss2 = ScenarioSet((Scenario("load", values2),), np.array([1.0]),
                      ("wt1", "load1", "price"))
    _, obj2 = solve_scenario_specific(problem, ss2.scenarios[0])
    assert obj2 > obj1 + 1e-6
    assert obj1 > 0.0


def test_gap_bounded_negative_og(desk):
    # any reduced decision evaluated on the full set cannot beat the
    # benchmark by more than solver-gap noise
    problem, ss = desk
    zr, _, _ = solve_stochastic(problem, ss.scenarios[:3],
                                np.array([0.5, 0.3, 0.2]))
    vals = [evaluate_with_fixed_first_stage(problem, zr, s) for s in ss.scenarios]
    reduced_on_full = float(np.dot(ss.probabilities, vals))
    _, bench, _ = solve_stochastic(problem, ss.scenarios, ss.probabilities)
    assert reduced_on_full - bench >= -2 * GAP * abs(bench)


@pytest.mark.parametrize("kind", ["adn", "uc"])
def test_warm_resolves_on_one_model_match_cold_cells(kind):
    # every diagonal decision evaluated on one compiled scenario program,
    # each re-solving warm on its HiGHS instance, against a fresh compile
    # per decision
    if kind == "adn":
        config, ss = make_desk_instance(seed=0, n_scenarios=6, t_steps=12,
                                        buses=6)
        problem = AdnProblem(config, ss.source_names)
    else:
        config, ss = make_uc_desk_instance(seed=0, n_scenarios=8, t_steps=6)
        problem = UcProblem(config, ss.source_names)
    decisions = [solve_scenario_specific(problem, s)[0] for s in ss.scenarios]
    scenario = ss.scenarios[1]
    cold = [evaluate_with_fixed_first_stage(problem, z, scenario)
            for z in decisions]
    runs = []
    for _ in range(2):
        model = problem.build_model([scenario], [1.0])
        free = (list(model.lb), list(model.ub))
        runs.append([evaluate_with_fixed_first_stage(problem, z, scenario,
                                                     model=model)
                     for z in decisions])
        assert (model.lb, model.ub) == free
    assert runs[0] == runs[1]
    for warm, value in zip(runs[0], cold):
        assert abs(warm - value) <= 2 * GAP * abs(value)


@pytest.mark.parametrize("kind", ["adn", "uc"])
def test_first_stage_is_the_leading_columns(kind):
    # the decision is read and fixed by position, so every program the
    # problem compiles must lead with the first-stage columns, in order
    if kind == "adn":
        config, ss = make_desk_instance(seed=0, n_scenarios=4, t_steps=12,
                                        buses=6)
        problem = AdnProblem(config, ss.source_names)
        expected = ([f"PT[{t}]" for t in range(config.t_steps)]
                    + [f"E[{e.node}]" for e in config.es_units])
    else:
        config, ss = make_uc_desk_instance(seed=0, n_scenarios=4, t_steps=6)
        problem = UcProblem(config, ss.source_names)
        ng, T = len(config.generators), config.t_steps
        expected = ([f"P[{g},{t}]" for g in range(ng) for t in range(T)]
                    + [f"U[{g},{t}]" for g in range(ng) for t in range(T)])
    names = problem.first_stage_names()
    assert names == expected
    for scenarios, weights in (([ss.scenarios[0]], [1.0]),
                               (ss.scenarios, ss.probabilities),
                               (ss.scenarios[1:3], [0.25, 0.75])):
        model = problem.build_model(scenarios, weights)
        assert model.var_names[:len(names)] == names


def desk_config(kind):
    if kind == "adn":
        return make_desk_instance(seed=0, n_scenarios=2)[0]
    return make_uc_desk_instance(seed=0, n_scenarios=2)[0]


@pytest.mark.parametrize("kind", ["adn", "uc"])
@pytest.mark.parametrize("field, value", [
    ("t_steps", 0), ("dt_hours", math.nan), ("dt_hours", math.inf),
    ("dt_hours", -1.0), ("dt_hours", 0.0), ("penalty_shed", math.nan),
    ("penalty_shed", -1.0), ("penalty_curtail", -5.0),
    ("penalty_curtail", math.inf)])
def test_bad_network_numbers_rejected_at_load(kind, field, value):
    config = desk_config(kind)
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        dataclasses.replace(config, **{field: value})


@pytest.mark.parametrize("kind", ["adn", "uc"])
def test_non_finite_fixed_load_rejected_at_load(kind):
    config = desk_config(kind)
    loads = {bus: list(series) for bus, series in config.fixed_loads.items()}
    loads[0][1] = math.nan
    with pytest.raises(ConfigError, match="^fixed_loads at bus 0 must be finite"):
        dataclasses.replace(config, fixed_loads=loads)


@pytest.mark.parametrize("kind", ["adn", "uc"])
def test_zero_penalties_load(kind):
    config = dataclasses.replace(desk_config(kind), penalty_shed=0.0,
                                 penalty_curtail=0.0)
    assert (config.penalty_shed, config.penalty_curtail) == (0.0, 0.0)
