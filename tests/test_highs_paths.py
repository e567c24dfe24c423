"""``pdsr.milp.highs_milp`` calls HiGHS through its own bindings; on the
same arrays it must find what ``scipy.optimize.milp`` finds."""

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import milp

from oracles import fixed_model, scipy_constraints
from pdsr.adn import AdnProblem, make_desk_instance
from pdsr.errors import SolverError
from pdsr.milp import (GAP_LIMIT, INFEASIBLE, LE, OPTIMAL, UNBOUNDED,
                       CscMatrix, MixedBinaryModel, highs_milp)
from pdsr.tsso import solve_scenario_specific
from pdsr.uc import UcProblem, make_uc_desk_instance

# the options solve_milp passes to the root-step LPs and to branch-and-cut
LP_OPTIONS = {"presolve": True}
MIP_OPTIONS = {"mip_rel_gap": 1e-4, "presolve": True,
               "mip_heuristic_run_feasibility_jump": False}


def _desk_models():
    """Full-set, diagonal and cross-cell models of the seed-0 ADN and UC
    desk instances, by name."""
    models = {}
    for kind, (problem, ss) in (("adn", _adn()), ("uc", _uc())):
        models[f"{kind}_full_set"] = problem.build_model(
            list(ss.scenarios), list(ss.probabilities))
        models[f"{kind}_diagonal"] = problem.build_model([ss.scenarios[0]], [1.0])
        z, _ = solve_scenario_specific(problem, ss.scenarios[0])
        models[f"{kind}_cross_cell"] = fixed_model(problem, z, ss.scenarios[2])
    return models


def _adn():
    cfg, ss = make_desk_instance(seed=0, n_scenarios=6, t_steps=12, buses=6)
    return AdnProblem(cfg, ss.source_names), ss


def _uc():
    cfg, ss = make_uc_desk_instance(seed=0, n_scenarios=8, t_steps=6)
    return UcProblem(cfg, ss.source_names), ss


@pytest.fixture(scope="module")
def desk_models():
    return _desk_models()


def _arrays(model):
    """(c, constraints, bounds) as solve_milp hands them to highs_milp."""
    c = np.zeros(model.num_vars)
    for j, a in model.obj.items():
        c[j] = a
    return (c, model._assembled().constraints,
            (np.array(model.lb), np.array(model.ub)))


def _both(c, constraints, bounds, integrality, options):
    kwargs = dict(integrality=integrality, bounds=bounds)
    return (highs_milp(c, constraints=constraints, **kwargs,
                       options=dict(options)),
            milp(c, constraints=scipy_constraints(constraints), **kwargs,
                 options=dict(options)))


def _assert_same_optimum(ours, ref, mip):
    assert ours.status == OPTIMAL and ref.status == 0
    assert np.array_equal(ours.x, ref.x)
    assert ours.objective == ref.fun
    if mip:
        assert ours.node_count == ref.mip_node_count
        assert ours.mip_gap == ref.mip_gap


@pytest.mark.parametrize("name", ["adn_full_set", "adn_diagonal",
                                  "adn_cross_cell", "uc_full_set",
                                  "uc_diagonal", "uc_cross_cell"])
def test_direct_call_matches_scipy_milp(desk_models, name):
    model = desk_models[name]
    c, constraints, bounds = _arrays(model)
    relaxed = np.zeros(model.num_vars, dtype=int)
    _assert_same_optimum(*_both(c, constraints, bounds, relaxed, LP_OPTIONS),
                         mip=False)
    binary = np.array(model.is_binary, dtype=int)
    _assert_same_optimum(*_both(c, constraints, bounds, binary, MIP_OPTIONS),
                         mip=True)


def _unbounded_lp():
    # min -x s.t. x - y <= 1 with x, y >= 0
    m = MixedBinaryModel()
    x = m.add_var("x", 0.0)
    y = m.add_var("y", 0.0)
    m.add_objective(x, -1.0)
    m.add_row([x, y], [1.0, -1.0], LE, 1.0)
    return m


def _infeasible_lp():
    m = MixedBinaryModel()
    x = m.add_var("x", 0.0, 1.0)
    m.add_objective(x, 1.0)
    m.add_row([x], [-1.0], LE, -2.0)
    return m


@pytest.mark.parametrize("model, status, code",
                         [(_infeasible_lp(), INFEASIBLE, 2),
                          (_unbounded_lp(), UNBOUNDED, 3)],
                         ids=["infeasible", "unbounded"])
def test_direct_call_matches_scipy_milp_without_optimum(model, status, code):
    c, constraints, bounds = _arrays(model)
    relaxed = np.zeros(model.num_vars, dtype=int)
    ours, ref = _both(c, constraints, bounds, relaxed, LP_OPTIONS)
    assert ours.status == status and ref.status == code
    assert ours.x is None and ref.x is None


def test_model_that_highs_rejects_raises():
    # a row index past the only row: HiGHS rejects the model, which is a
    # failure, not an infeasible program
    A = CscMatrix(np.array([0, 1], dtype=np.int32),
                  np.array([5], dtype=np.int32), np.array([1.0]), (1, 1))
    with pytest.raises(SolverError, match="Model error"):
        highs_milp(np.ones(1), constraints=(A, np.zeros(1), np.ones(1)),
                   integrality=np.zeros(1, dtype=int),
                   bounds=(np.zeros(1), np.ones(1)), options=LP_OPTIONS)


def _market_split(m=4, n=36, seed=0):
    """min |A x - d|_1 over binary x: an incumbent at once (x = 0 is
    feasible), a proof that takes far longer than the time limits below."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 100, size=(m, n)).astype(float)
    d = np.floor(a.sum(axis=1) / 2)
    A = sparse.csc_matrix(np.hstack([a, np.eye(m), -np.eye(m)]))
    c = np.concatenate([np.zeros(n), np.ones(2 * m)])
    integrality = np.concatenate([np.ones(n, int), np.zeros(2 * m, int)])
    bounds = (np.zeros(n + 2 * m),
              np.concatenate([np.ones(n), np.full(2 * m, np.inf)]))
    return c, (A, d, d), bounds, integrality


@pytest.mark.parametrize("time_limit, incumbent", [(0.0, False), (0.5, True)],
                         ids=["no_incumbent", "incumbent"])
def test_direct_call_matches_scipy_milp_at_time_limit(time_limit, incumbent):
    c, constraints, bounds, integrality = _market_split()
    ours, ref = _both(c, constraints, bounds, integrality,
                      dict(MIP_OPTIONS, time_limit=time_limit))
    assert ours.status == GAP_LIMIT and ref.status == 1
    assert (ours.x is not None) == (ref.x is not None) == incumbent


@pytest.mark.parametrize("name", ["adn_full_set", "adn_diagonal",
                                  "adn_cross_cell", "uc_full_set",
                                  "uc_diagonal", "uc_cross_cell"])
def test_start_is_only_a_hint(desk_models, name):
    # an optimal, an infeasible and a non-numeric start each leave the
    # status and the objective of branch-and-cut as without a start
    model = desk_models[name]
    c, constraints, bounds = _arrays(model)
    binary = np.array(model.is_binary, dtype=int)

    def solve(start):
        return highs_milp(c, constraints=constraints, integrality=binary,
                          bounds=bounds, options=dict(MIP_OPTIONS),
                          start=start)

    ref = solve(None)
    assert ref.status == OPTIMAL
    for start in (ref.x, np.zeros(model.num_vars),
                  np.full(model.num_vars, np.nan)):
        res = solve(start)
        assert res.status == ref.status
        assert res.objective == ref.objective
