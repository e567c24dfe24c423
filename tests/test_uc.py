"""Unit-commitment compile: structure, commitment logic, recourse."""

import numpy as np
import pytest

from oracles import bad_scenario_ids
from pdsr.milp import solve_milp
from pdsr.scenarios import Scenario, ScenarioSet, dump_values_csv
from pdsr.tsso import solve_scenario_specific, solve_stochastic
from pdsr.uc import Generator, UcConfig, UcProblem, make_uc_desk_instance


def one_bus_config(t=4, **gen_overrides):
    gen = dict(bus=0, p_min=0.0, p_max=10.0, ramp_up=10.0, ramp_down=10.0,
               cost_power=10.0, cost_no_load=0.0, cost_start=0.0,
               cost_stop=0.0, cost_reg_up=12.0, cost_reg_down=1.0,
               min_up=1, min_down=1, u0=0, p0=0.0)
    gen.update(gen_overrides)
    return UcConfig(
        n_buses=1, lines=[], t_steps=t, dt_hours=1.0,
        generators=[Generator(**gen)],
        res_sources={}, load_sources={"load1": 0})


def flat_load_set(t=4, level=5.0):
    values = np.array([np.full(t, level)])
    return ScenarioSet((Scenario("flat", values),), np.array([1.0]), ("load1",))


def test_binary_count_formula():
    cfg, ss = make_uc_desk_instance(seed=0, n_scenarios=3, t_steps=6)
    model = UcProblem(cfg, ss.source_names).build_model(ss.scenarios,
                                                        ss.probabilities)
    ng, T, S = len(cfg.generators), cfg.t_steps, len(ss)
    assert len(model.binary_indices) == ng * T + ng * T * S


def test_hand_solved_single_generator():
    # flat 5 MW load, zero no-load/start cost: commit always, cost 10*5*T*dt
    t = 4
    cfg = one_bus_config(t=t)
    ss = flat_load_set(t=t)
    problem = UcProblem(cfg, ss.source_names)
    z, obj = solve_scenario_specific(problem, ss.scenarios[0])
    assert obj == pytest.approx(10.0 * 5.0 * t * 1.0, rel=1e-6)
    u = np.round(z.values[t:])
    assert u.tolist() == [1.0] * t


def test_min_up_time_enforced():
    # start at t=1 with min_up=2 keeps the unit on through t=3
    cfg, ss = make_uc_desk_instance(seed=1, n_scenarios=4, t_steps=6)
    problem = UcProblem(cfg, ss.source_names)
    model = problem.build_model(ss.scenarios, ss.probabilities)
    sol = solve_milp(model)
    x = sol.x
    for g, gen in enumerate(cfg.generators):
        u = [round(x[model.index_of(f"U[{g},{t}]")]) for t in range(cfg.t_steps)]
        prev = gen.u0
        for t, cur in enumerate(u):
            if cur > prev:  # a start
                for tau in range(t + 1, min(t + gen.min_up, cfg.t_steps - 1) + 1):
                    assert u[tau] == 1, f"min-up violated for gen {g} at {t}"
            if cur < prev:  # a stop
                for tau in range(t + 1, min(t + gen.min_down, cfg.t_steps - 1) + 1):
                    assert u[tau] == 0, f"min-down violated for gen {g} at {t}"
            prev = cur


def test_regulation_exclusive_in_optimum():
    cfg, ss = make_uc_desk_instance(seed=2, n_scenarios=4, t_steps=6)
    problem = UcProblem(cfg, ss.source_names)
    model = problem.build_model(ss.scenarios, ss.probabilities)
    sol = solve_milp(model)
    x = sol.x
    for j, n in enumerate(model.var_names):
        if n.startswith("Rp["):
            twin = "Rm[" + n[3:]
            assert x[j] * x[model.index_of(twin)] <= 1e-6


def test_angles_bounded_reference_absent():
    cfg, ss = make_uc_desk_instance(seed=0, n_scenarios=2, t_steps=6)
    model = UcProblem(cfg, ss.source_names).build_model(ss.scenarios,
                                                        ss.probabilities)
    assert not any(n.startswith("Th[0,") for n in model.var_names)
    sol = solve_milp(model)
    for j, n in enumerate(model.var_names):
        if n.startswith("Th["):
            assert abs(sol.x[j]) <= np.pi / 3 + 1e-9


def test_every_commitment_admits_recourse():
    # even the all-off commitment is feasible through shedding/curtailment
    cfg, ss = make_uc_desk_instance(seed=3, n_scenarios=3, t_steps=6)
    problem = UcProblem(cfg, ss.source_names)
    ng, T = len(cfg.generators), cfg.t_steps
    z_off = np.zeros(2 * ng * T)
    from pdsr.tsso import evaluate_with_fixed_first_stage, FirstStageDecision
    z = FirstStageDecision(z_off, 0.0)
    for scen in ss.scenarios:
        value = evaluate_with_fixed_first_stage(problem, z, scen)
        assert np.isfinite(value)


def test_desk_instance_deterministic_and_bad_count():
    _, ss1 = make_uc_desk_instance(seed=7, n_scenarios=8, t_steps=6)
    _, ss2 = make_uc_desk_instance(seed=7, n_scenarios=8, t_steps=6)
    assert dump_values_csv(ss1) == dump_values_csv(ss2)
    assert len(bad_scenario_ids(ss1)) == 1  # round(0.1 * 8)


def test_desk_end_to_end_projection_cluster():
    from pdsr.projection import build_problem_space_matrix
    from pdsr.clustering import compute_pdd, solve_clustering

    cfg, ss = make_uc_desk_instance(seed=0, n_scenarios=8, t_steps=6)
    problem = UcProblem(cfg, ss.source_names)
    matrix = build_problem_space_matrix(problem, ss, workers=2)
    pdd = compute_pdd(matrix)
    result = solve_clustering(pdd, ss.probabilities, fixed_k=3)
    assert result.k == 3
    assert abs(sum(result.weights.values()) - 1.0) <= 1e-9


def test_config_json_round_trip():
    cfg, _ = make_uc_desk_instance(seed=0, n_scenarios=2, t_steps=6)
    back = UcConfig.from_dict(cfg.to_dict())
    assert back.to_dict() == cfg.to_dict()


@pytest.mark.parametrize("field, value", [
    ("res_sources", {"wt1": 3}),
    ("load_sources", {"load1": 1, "load2": 7}),
    ("fixed_loads", {9: [0.5] * 6}),
], ids=["res_source", "load_source", "fixed_load"])
def test_bus_outside_network_rejected(field, value):
    # a load on a bus the network lacks would be silently dropped
    from pdsr.errors import ConfigError
    cfg, _ = make_uc_desk_instance(seed=0, n_scenarios=2, t_steps=6)
    d = cfg.to_dict()
    d[field] = value
    with pytest.raises(ConfigError, match="bad bus"):
        UcConfig.from_dict(d)


def test_fixed_mode_constant_commitment_costs():
    cfg, ss = make_uc_desk_instance(seed=1, n_scenarios=3, t_steps=6)
    problem = UcProblem(cfg, ss.source_names)
    z, obj = solve_scenario_specific(problem, ss.scenarios[0])
    from pdsr.tsso import evaluate_with_fixed_first_stage
    value = evaluate_with_fixed_first_stage(problem, z, ss.scenarios[0])
    assert value == pytest.approx(obj, rel=1e-6, abs=1e-6)


def test_near_binary_commitments_evaluate_as_exact():
    from pdsr.tsso import evaluate_with_fixed_first_stage, FirstStageDecision
    cfg, ss = make_uc_desk_instance(seed=1, n_scenarios=3, t_steps=6)
    problem = UcProblem(cfg, ss.source_names)
    z, _ = solve_scenario_specific(problem, ss.scenarios[0])
    ng, T = len(cfg.generators), cfg.t_steps
    exact = z.values.copy()
    exact[ng * T:] = np.round(exact[ng * T:])
    assert exact[ng * T:].min() == 0.0 and exact[ng * T:].max() == 1.0
    near = exact.copy()
    near[ng * T:] += np.where(exact[ng * T:] > 0.5, -1e-7, 1e-7)
    for scen in ss.scenarios:
        v_exact = evaluate_with_fixed_first_stage(
            problem, FirstStageDecision(exact, 0.0), scen)
        v_near = evaluate_with_fixed_first_stage(
            problem, FirstStageDecision(near, 0.0), scen)
        assert v_near == v_exact


def test_wrong_length_decision_rejected():
    from pdsr.errors import ConfigError
    from pdsr.tsso import evaluate_with_fixed_first_stage, FirstStageDecision
    cfg, ss = make_uc_desk_instance(seed=1, n_scenarios=2, t_steps=6)
    problem = UcProblem(cfg, ss.source_names)
    n = len(problem.first_stage_names())
    for size in (n - 1, n + 1):
        z = FirstStageDecision(np.zeros(size), 0.0)
        with pytest.raises(ConfigError, match="first-stage decision"):
            evaluate_with_fixed_first_stage(problem, z, ss.scenarios[0])
