"""Solver backend: trivial cases, oracle cross-checks, the root step, the
branch-and-cut options, the feasibility re-check."""

import inspect
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

import pdsr.milp
from pdsr.adn import AdnProblem, make_desk_instance
from pdsr.errors import ModelError
from pdsr.milp import GE, LE, EQ, MixedBinaryModel, solve_milp
from pdsr.tsso import _fixed_bounds, solve_scenario_specific
from pdsr.uc import UcProblem, make_uc_desk_instance
from oracles import (brute_force_milp, enumerate_vertices_optimum,
                     fixed_model, model_rows, random_lp, random_milp,
                     scipy_constraints, solve_lp, solve_milp_reference)


def simple_model():
    m = MixedBinaryModel()
    x = m.add_var("x", 0.0, 10.0)
    m.add_objective(x, 1.0)
    m.add_row([x], [1.0], GE, 3.0)
    return m, x


def test_lp_single_variable():
    m, _ = simple_model()
    sol = solve_lp(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(3.0, abs=1e-9)


def test_lp_symmetric_vertex():
    m = MixedBinaryModel()
    x = m.add_var("x", 0.0, math.inf)
    y = m.add_var("y", 0.0, math.inf)
    m.add_objective(x, -1.0)
    m.add_objective(y, -1.0)
    m.add_row([x, y], [1.0, 1.0], LE, 1.0)
    sol = solve_lp(m)
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)


def test_lp_statuses():
    m = MixedBinaryModel()
    x = m.add_var("x", 0.0, math.inf)
    m.add_objective(x, -1.0)
    assert solve_lp(m).status == "unbounded"
    m2 = MixedBinaryModel()
    x = m2.add_var("x", 0.0, 1.0)
    m2.add_row([x], [1.0], GE, 2.0)
    assert solve_lp(m2).status == "infeasible"


def test_model_validation():
    m = MixedBinaryModel()
    with pytest.raises(ModelError):
        m.add_var("b", -0.5, 1.0, binary=True)
    x = m.add_var("x", 0.0, 1.0)
    # an empty row raises when it is added; an undeclared column and a NaN
    # coefficient when the rows are assembled
    with pytest.raises(ModelError, match="no nonzero coefficient"):
        m.add_row([], [], LE, 0.0)
    m.add_row([x + 7], [1.0], LE, 1.0)
    with pytest.raises(ModelError, match="undeclared variable"):
        m.validate()
    m = MixedBinaryModel()
    x = m.add_var("x", 0.0, 1.0)
    m.add_row([x], [math.nan], LE, 0.0)
    with pytest.raises(ModelError, match="non-finite constraint coefficient"):
        m.validate()


def test_expression_row_with_cancelled_coefficients_rejected():
    # a compiler row (add_row) drops zero coefficients; one left with none
    # is a compiler fault
    m = MixedBinaryModel()
    x = m.add_var("x", 0.0, 1.0)
    y = m.add_var("y", 0.0, 1.0)
    with pytest.raises(ModelError, match="no nonzero coefficient"):
        m.add_row([x, y], [0.0, -0.0], LE, 5.0 - 2.0)
    assert m.row_len == []


def test_row_listing_a_column_twice_rejected(monkeypatch):
    # HiGHS must never see a duplicate entry in one row's column
    def no_solve(*args, **kwargs):
        raise AssertionError("HiGHS called on a row with a repeated column")

    monkeypatch.setattr(pdsr.milp, "highs_milp", no_solve)
    m = MixedBinaryModel()
    x = m.add_var("x", 0.0, 1.0)
    y = m.add_var("y", 0.0, 1.0)
    m.add_row([x], [1.0], LE, 1.0)
    m.add_row([x, y, y], [1.0, 2.0, -1.0], LE, 1.0)
    with pytest.raises(ModelError, match="row 1 lists 'y' twice"):
        solve_milp(m)


def test_row_with_mismatched_columns_and_coefficients_rejected():
    m = MixedBinaryModel()
    x = m.add_var("x", 0.0, 1.0)
    with pytest.raises(ModelError, match="1 columns and 2 coefficients"):
        m.add_row([x], [1.0, 0.0], LE, 1.0)
    assert m.row_len == []


@pytest.mark.parametrize("add", [
    lambda m, x: m.add_row([x], [1.0], "<", 3.0),
], ids=["expression_row"])
def test_unknown_relation_rejected(add):
    # a compiler row with "<" once solved as the equality x = 3
    m = MixedBinaryModel()
    x = m.add_var("x", 0.0, 10.0)
    m.add_objective(x, 1.0)
    with pytest.raises(ModelError, match="unknown relation '<'"):
        add(m, x)
    assert m.row_len == []


@pytest.mark.parametrize("spoil", [
    lambda m, x, y: m.add_row([x, y], [math.nan, 1.0], LE, 1.0),
    lambda m, x, y: m.add_row([x], [math.inf], GE, 0.0),
    lambda m, x, y: m.add_row([x], [1.0], EQ, 0.0 - math.nan),
    lambda m, x, y: m.add_row([y], [1.0], LE, math.inf),
    lambda m, x, y: m.ub.__setitem__(y, math.nan),
], ids=["nan_coefficient", "inf_coefficient", "nan_constant", "inf_rhs",
        "nan_upper_bound"])
def test_non_finite_model_data_rejected_before_solving(monkeypatch, spoil):
    # compiler rows are only checked when the model is validated, which
    # every solve does before HiGHS sees the arrays
    def no_solve(*args, **kwargs):
        raise AssertionError("HiGHS called on a non-finite model")

    monkeypatch.setattr(pdsr.milp, "highs_milp", no_solve)
    m, x = simple_model()
    y = m.add_var("y", 0.0, 5.0)
    spoil(m, x, y)
    with pytest.raises(ModelError, match="non-finite|bad upper bound"):
        solve_milp(m)


def test_non_finite_coefficient_names_its_variable():
    # the first row is on x and z, so z's entry is stored in row 0 of
    # column 2: a row index read as a column would name x
    m = MixedBinaryModel()
    x = m.add_var("x", 0.0, 1.0)
    y = m.add_var("y", 0.0, 1.0)
    z = m.add_var("z", 0.0, 1.0)
    m.add_row([z, x], [math.nan, 1.0], LE, 1.0)
    m.add_row([y], [1.0], LE, 1.0)
    with pytest.raises(ModelError, match=r"non-finite constraint coefficient on 'z'"):
        m.validate()


@pytest.mark.parametrize("spoil, message", [
    (lambda m, x: m.add_objective(x, math.nan),
     "non-finite objective coefficient"),
    (lambda m, x: m.add_row([x], [math.inf], GE, 0.0),
     "non-finite constraint coefficient"),
], ids=["objective_term", "expression_row"])
def test_data_added_after_a_solve_is_checked(spoil, message):
    # the objective and rows are checked once per assembly; adding a term
    # or a row clears that check
    m, x = simple_model()
    assert solve_milp(m).status == "optimal"
    spoil(m, x)
    with pytest.raises(ModelError, match=message):
        solve_milp(m)


@pytest.mark.parametrize("var", [5, -1], ids=["beyond_last", "negative"])
def test_expression_row_on_undeclared_variable_rejected(var):
    m, x = simple_model()
    m.add_row([x, var], [1.0, 1.0], LE, 1.0)
    with pytest.raises(ModelError, match="undeclared variable"):
        solve_milp(m)


@pytest.mark.parametrize("spoil, message", [
    (lambda m: m.lb.__setitem__(1, math.nan), "bad lower bound on 'y'"),
    (lambda m: m.lb.__setitem__(1, math.inf), "bad lower bound on 'y'"),
    (lambda m: m.ub.__setitem__(1, math.nan), "bad upper bound on 'y'"),
    (lambda m: m.ub.__setitem__(2, 2.0), r"binary 'b' out of \[0, 1\]"),
], ids=["nan_lower", "inf_lower", "nan_upper", "binary_above_one"])
def test_bad_bounds_name_their_variable(spoil, message):
    m = MixedBinaryModel()
    x = m.add_var("x", 0.0, 1.0)
    m.add_var("y", 0.0, 1.0)
    m.add_var("b", 0.0, 1.0, binary=True)
    m.add_row([x], [1.0], LE, 1.0)
    spoil(m)
    with pytest.raises(ModelError, match=message):
        m.validate()


@pytest.mark.parametrize("spoil, message", [
    (lambda lb, ub: (lb.__setitem__(1, 0.75), ub.__setitem__(1, 0.25)),
     r"variable 'y' has lb > ub \(0.75 > 0.25\)"),
    (lambda lb, ub: ub.__setitem__(1, -math.inf), "bad upper bound on 'y'"),
], ids=["crossed", "minus_inf_upper"])
def test_bad_bound_override_rejected_before_solving(monkeypatch, spoil,
                                                    message):
    # a crossed override used to solve as infeasible, and an upper bound of
    # -inf reached HiGHS as a model error
    m = MixedBinaryModel()
    x = m.add_var("x", 0.0, 1.0)
    y = m.add_var("y", 0.0, 1.0)
    m.add_row([x, y], [1.0, 1.0], LE, 1.5)
    lb, ub = np.array(m.lb), np.array(m.ub)
    spoil(lb, ub)

    def no_solve(*args, **kwargs):
        raise AssertionError("the solver was called")

    monkeypatch.setattr(pdsr.milp, "highs_milp", no_solve)
    with pytest.raises(ModelError, match=message):
        solve_milp(m, bounds=(lb, ub))
    m.lb[1], m.ub[1] = lb[1], ub[1]
    with pytest.raises(ModelError, match=message):
        m.validate()


def test_lp_vs_vertex_enumeration():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(40):
        model = random_lp(rng)
        sol = solve_lp(model)
        if sol.status != "optimal":
            continue
        expected = enumerate_vertices_optimum(model)
        assert expected < math.inf
        assert sol.objective == pytest.approx(expected, abs=1e-7, rel=1e-7)
        checked += 1
        if checked >= 20:
            break
    assert checked >= 20


def test_weak_duality():
    rng = np.random.default_rng(3)
    for _ in range(10):
        model = random_lp(rng)
        sol = solve_lp(model)
        if sol.status != "optimal" or sol.dual_objective is None:
            continue
        assert sol.dual_objective <= sol.objective + 1e-6
        assert sol.dual_objective == pytest.approx(sol.objective, abs=1e-6,
                                                   rel=1e-6)




@pytest.mark.parametrize("solver", [solve_milp, solve_milp_reference],
                         ids=["highs", "reference"])
def test_milp_trivial(solver):
    m = MixedBinaryModel()
    b = m.add_var("b", 0.0, 1.0, binary=True)
    m.add_objective(b, -1.0)
    sol = solver(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)
    assert sol.x[b] == pytest.approx(1.0, abs=1e-6)


def test_integral_relaxation_single_node():
    # totally unimodular: assignment-like rows keep the relaxation integral
    m = MixedBinaryModel()
    b1 = m.add_var("b1", 0.0, 1.0, binary=True)
    b2 = m.add_var("b2", 0.0, 1.0, binary=True)
    m.add_objective(b1, 1.0)
    m.add_objective(b2, 2.0)
    m.add_row([b1, b2], [1.0, 1.0], EQ, 1.0)
    lp = solve_lp(m)
    sol = solve_milp_reference(m)
    assert sol.node_count == 1
    assert sol.objective == pytest.approx(lp.objective, abs=1e-9)
    assert solve_milp(m).objective == pytest.approx(lp.objective, abs=1e-7)


@pytest.mark.parametrize("solver", [solve_milp, solve_milp_reference],
                         ids=["highs", "reference"])
def test_milp_vs_brute_force(solver):
    rng = np.random.default_rng(11)
    for _ in range(20):
        model, bs = random_milp(rng)
        sol = solver(model, gap_tol=1e-6)
        expected = brute_force_milp(model, bs)
        if expected == math.inf:
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(expected, abs=1e-6, rel=1e-6)


def test_reference_trace_monotone():
    rng = np.random.default_rng(5)
    seen_branching = 0
    for _ in range(12):
        model, _ = random_milp(rng, max_binaries=10, max_cont=4)
        sol = solve_milp_reference(model, gap_tol=1e-9)
        if sol.status != "optimal":
            continue
        incumbents = [inc for _, inc, _ in sol.trace]
        assert all(b <= a + 1e-9 for a, b in zip(incumbents, incumbents[1:]))
        bounds = [lb for _, _, lb in sol.trace if not math.isnan(lb)]
        assert all(b >= a - 1e-9 for a, b in zip(bounds, bounds[1:]))
        if sol.node_count > 2:
            seen_branching += 1
    assert seen_branching >= 3


def test_determinism():
    rng = np.random.default_rng(2)
    model, _ = random_milp(rng)
    s1 = solve_milp(model)
    s2 = solve_milp(model)
    assert np.array_equal(s1.x, s2.x)
    r1 = solve_milp_reference(model)
    r2 = solve_milp_reference(model)
    assert np.array_equal(r1.x, r2.x)


# -- root step: LP relaxation plus gating repair ----------------------------


def _record_highs_calls(monkeypatch):
    """Record the integrality vector and the options of every HiGHS call
    solve_milp makes, as two lists in call order."""
    calls, options = [], []
    highs = pdsr.milp.highs_milp

    def recorded(c, **kwargs):
        calls.append(np.asarray(kwargs["integrality"]).copy())
        options.append(dict(kwargs["options"]))
        return highs(c, **kwargs)

    monkeypatch.setattr(pdsr.milp, "highs_milp", recorded)
    return calls, options


def _record_starts(monkeypatch):
    """Record the start (None without one) and the result of every HiGHS
    call solve_milp makes, as (start, result) pairs in call order."""
    seen = []
    highs = pdsr.milp.highs_milp

    def recorded(c, **kwargs):
        start = kwargs.get("start")
        res = highs(c, **kwargs)
        seen.append((None if start is None else np.array(start), res))
        return res

    monkeypatch.setattr(pdsr.milp, "highs_milp", recorded)
    return seen


def test_root_step_closes_uc_cross_evaluation(monkeypatch):
    cfg, ss = make_uc_desk_instance(seed=0, n_scenarios=8, t_steps=6)
    problem = UcProblem(cfg, ss.source_names)
    z, _ = solve_scenario_specific(problem, ss.scenarios[0])
    model = fixed_model(problem, z, ss.scenarios[1])
    assert model.binary_indices
    calls, _ = _record_highs_calls(monkeypatch)
    gap = 1e-4
    sol = solve_milp(model, gap_tol=gap)
    assert len(calls) == 1 and not calls[0].any()
    assert sol.status == "optimal" and sol.node_count == 1
    xb = sol.x[model.binary_indices]
    assert np.array_equal(xb, np.round(xb))
    assert model.max_violation(sol.x) <= 1e-5
    expected = _branch_and_cut_objective(model, gap)
    assert abs(sol.objective - expected) <= gap * abs(expected)
    assert 0.0 <= sol.mip_gap <= gap


def _branch_and_cut_objective(model, gap):
    """Objective of an independent scipy branch-and-cut on the model's arrays."""
    c = np.zeros(model.num_vars)
    for j, a in model.obj.items():
        c[j] = a
    A, lo, hi = scipy_constraints(model._assembled().constraints)
    ref = milp(c, constraints=LinearConstraint(A, lo, hi),
               integrality=np.array(model.is_binary, dtype=int),
               bounds=Bounds(model.lb, model.ub), options={"mip_rel_gap": gap})
    assert ref.status == 0
    return ref.fun


def test_root_step_resolves_adn_full_set_with_fixed_binaries(monkeypatch):
    # the repaired LP point charges and discharges at once, so the root step
    # re-solves the LP with every binary fixed; that point proves the gap
    cfg, ss = make_desk_instance(seed=0, n_scenarios=6, t_steps=12, buses=6)
    model = AdnProblem(cfg, ss.source_names).build_model(
        list(ss.scenarios), list(ss.probabilities))
    calls, _ = _record_highs_calls(monkeypatch)
    gap = 1e-4
    sol = solve_milp(model, gap_tol=gap)
    assert len(calls) == 2 and not calls[0].any() and not calls[1].any()
    assert sol.status == "optimal" and sol.node_count == 1
    xb = sol.x[model.binary_indices]
    assert np.array_equal(xb, np.round(xb))
    assert model.max_violation(sol.x) <= 1e-5
    expected = _branch_and_cut_objective(model, gap)
    assert abs(sol.objective - expected) <= gap * abs(expected)
    assert 0.0 <= sol.mip_gap <= gap


def test_root_step_sends_fractional_commitments_to_branch_and_cut(monkeypatch):
    # rounded UC commitments break a row, so the LP is re-solved with every
    # binary fixed; that point misses the gap and starts branch-and-cut
    cfg, ss = make_uc_desk_instance(seed=0, n_scenarios=8, t_steps=6)
    model = UcProblem(cfg, ss.source_names).build_model([ss.scenarios[0]], [1.0])
    calls, _ = _record_highs_calls(monkeypatch)
    starts = _record_starts(monkeypatch)
    sol = solve_milp(model)
    assert len(calls) == 3
    assert not calls[0].any() and not calls[1].any()
    assert np.array_equal(calls[2], np.array(model.is_binary, dtype=int))
    assert [start is not None for start, _ in starts] == [False, False, True]
    assert sol.status == "optimal"


def _lp_weak_model():
    # max b + y s.t. 2b + 2y <= 3: LP bound -1.5, integral optimum -1
    m = MixedBinaryModel()
    b = m.add_var("b", 0.0, 1.0, binary=True)
    y = m.add_var("y", 0.0, 1.0, binary=True)
    m.add_objective(b, -1.0)
    m.add_objective(y, -1.0)
    m.add_row([b, y], [2.0, 2.0], LE, 3.0)
    return m


def test_root_step_falls_back_to_branch_and_cut(monkeypatch):
    calls, _ = _record_highs_calls(monkeypatch)
    sol = solve_milp(_lp_weak_model())
    assert len(calls) == 2
    assert not calls[0].any() and calls[1].all()
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)


def test_root_step_skipped_under_time_limit(monkeypatch):
    calls, _ = _record_highs_calls(monkeypatch)
    sol = solve_milp(_lp_weak_model(), time_limit=10.0)
    assert len(calls) == 1 and calls[0].all()
    assert sol.x is not None
    assert np.array_equal(sol.x, np.round(sol.x))


def test_non_finite_gap_tol_rejected_before_solving(monkeypatch):
    # a NaN gap passes every `slack > gap_tol * |obj|` test, so any repaired
    # root point would be accepted without proof
    def no_solve(*args, **kwargs):
        raise AssertionError("HiGHS called with a non-finite gap_tol")

    monkeypatch.setattr(pdsr.milp, "highs_milp", no_solve)
    with pytest.raises(ModelError, match="gap_tol"):
        solve_milp(_lp_weak_model(), gap_tol=math.nan)


# -- branch-and-cut options -------------------------------------------------

NO_JUMP = "mip_heuristic_run_feasibility_jump"


def test_branch_and_cut_runs_without_feasibility_jump(monkeypatch):
    calls, options = _record_highs_calls(monkeypatch)
    solve_milp(_lp_weak_model())
    assert [o.get(NO_JUMP) for o in options] == [None, False]
    # the UC scenario-specific program takes LP, the fixed-binary LP, then
    # branch-and-cut
    calls.clear()
    options.clear()
    cfg, ss = make_uc_desk_instance(seed=0, n_scenarios=8, t_steps=6)
    model = UcProblem(cfg, ss.source_names).build_model([ss.scenarios[0]], [1.0])
    sol = solve_milp(model)
    assert [o.get(NO_JUMP) for o in options] == [None, None, False]
    assert not calls[0].any() and not calls[1].any()
    assert np.array_equal(calls[2], np.array(model.is_binary, dtype=int))
    assert sol.status == "optimal"


def test_adn_cross_cell_branch_and_cut_matches_highs_defaults(monkeypatch):
    # cell (0, 2) of the seed-0 desk instance falls through both root-step
    # LPs; without feasibility jump it must reach HiGHS's default result
    cfg, ss = make_desk_instance(seed=0, n_scenarios=6, t_steps=12, buses=6)
    problem = AdnProblem(cfg, ss.source_names)
    z, _ = solve_scenario_specific(problem, ss.scenarios[0])
    model = fixed_model(problem, z, ss.scenarios[2])
    calls, options = _record_highs_calls(monkeypatch)
    gap = 1e-4
    sol = solve_milp(model, gap_tol=gap)
    assert [o.get(NO_JUMP) for o in options] == [None, None, False]
    assert calls[2].any()
    assert sol.status == "optimal" and sol.node_count == 1
    expected = _branch_and_cut_objective(model, gap)
    assert abs(sol.objective - expected) <= gap * abs(expected)


def _adn_cross_cell():
    # cell (0, 2) of the seed-0 desk instance: the fixed-binary LP point
    # misses the gap
    cfg, ss = make_desk_instance(seed=0, n_scenarios=6, t_steps=12, buses=6)
    problem = AdnProblem(cfg, ss.source_names)
    z, _ = solve_scenario_specific(problem, ss.scenarios[0])
    return fixed_model(problem, z, ss.scenarios[2])


def _uc_diagonal():
    cfg, ss = make_uc_desk_instance(seed=0, n_scenarios=8, t_steps=6)
    return UcProblem(cfg, ss.source_names).build_model([ss.scenarios[0]], [1.0])


@pytest.mark.parametrize("build", [_lp_weak_model, _adn_cross_cell,
                                   _uc_diagonal],
                         ids=["lp_weak", "adn_cross_cell", "uc_diagonal"])
def test_branch_and_cut_starts_from_a_feasible_point(monkeypatch, build):
    # the repaired LP point (lp_weak) or the fixed-binary LP point misses
    # the gap; branch-and-cut starts from it and never ends above it
    model = build()
    seen = _record_starts(monkeypatch)
    sol = solve_milp(model)
    start, res = seen[-1]
    assert start is not None and res.status == "optimal"
    xb = start[model.binary_indices]
    assert np.array_equal(xb, np.round(xb))
    assert model.max_violation(start) <= 1e-5
    c = np.zeros(model.num_vars)
    for j, a in model.obj.items():
        c[j] = a
    assert res.objective <= c @ start
    assert sol.status == "optimal" and sol.objective == res.objective


def test_option_warning_filtered_in_a_fresh_interpreter():
    # a solve must warn nothing in a plain interpreter that turns
    # RuntimeWarning into an error, not only under pytest's own filters
    code = "\n".join([
        "from pdsr.milp import LE, MixedBinaryModel, solve_milp",
        inspect.getsource(_lp_weak_model),
        "sol = solve_milp(_lp_weak_model())",
        "assert sol.status == 'optimal' and abs(sol.objective + 1.0) < 1e-9",
    ])
    src = str(Path(pdsr.milp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
        capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr


def test_max_violation_rows_and_bounds():
    m = MixedBinaryModel()
    x = m.add_var("x", 0.0, 2.0)
    y = m.add_var("y", -1.0, 1.0)
    m.add_row([x, y], [1.0, 1.0], LE, 2.0)
    m.add_row([x], [1.0], GE, 0.5)
    m.add_row([x, y], [1.0, -1.0], EQ, 0.0)
    assert m.max_violation(np.array([1.0, 1.0])) == 0.0
    assert m.max_violation(np.array([1.5, 1.0])) == pytest.approx(0.5)
    assert m.max_violation(np.array([0.2, 0.2])) == pytest.approx(0.3)
    assert m.max_violation(np.array([1.0, 0.25])) == pytest.approx(0.75)
    assert m.max_violation(np.array([2.5, 2.5])) == pytest.approx(3.0)
    # the cached rows follow a later mutation
    m.add_row([y], [1.0], LE, 0.0)
    assert m.max_violation(np.array([1.0, 1.0])) == pytest.approx(1.0)


def test_max_violation_matches_row_loop():
    def loop_violation(model, x):
        worst = 0.0
        for terms, rel, rhs in model_rows(model):
            lhs = sum(a * x[j] for j, a in terms)
            worst = max(worst, {LE: lhs - rhs, GE: rhs - lhs,
                                EQ: abs(lhs - rhs)}[rel])
        for j in range(model.num_vars):
            worst = max(worst, model.lb[j] - x[j], x[j] - model.ub[j])
        return worst

    rng = np.random.default_rng(4)
    for _ in range(20):
        model = random_lp(rng)
        x = rng.uniform(-4.0, 4.0, model.num_vars)
        assert model.max_violation(x) == pytest.approx(
            loop_violation(model, x), rel=1e-12, abs=1e-12)


def test_time_limit_returns_gap_limit():
    # a model large enough that 0 seconds cannot prove optimality
    rng = np.random.default_rng(9)
    model, _ = random_milp(rng, max_binaries=12, max_cont=8)
    sol = solve_milp_reference(model, gap_tol=0.0, time_limit=0.0)
    assert sol.status in ("gap_limit", "optimal", "infeasible")



# -- the kept HiGHS instance and bound overrides -----------------------------


def _gated_model():
    # min -x + b/2 s.t. x <= 10 b: the optimum is x = 10, b = 1 (-9.5)
    m = MixedBinaryModel()
    x = m.add_var("x", 0.0, 10.0)
    b = m.add_var("b", 0.0, 1.0, binary=True)
    m.add_objective(x, -1.0)
    m.add_objective(b, 0.5)
    m.add_row([x, b], [1.0, -10.0], LE, 0.0)
    return m, x, b


@pytest.mark.parametrize("override", [False, True], ids=["own", "override"])
def test_solve_uses_the_bounds_validate_checked(monkeypatch, override):
    # validate returns the bounds it checked, as float arrays, and every
    # HiGHS call of the solve reads exactly those arrays
    m = _lp_weak_model()
    bounds = ([0, 0], [1, 1]) if override else None
    checked, seen = [], []
    validate, highs_milp = MixedBinaryModel.validate, pdsr.milp.highs_milp

    def record_validate(model, bounds=None):
        checked.append(validate(model, bounds))
        return checked[-1]

    def record_highs(*args, **kwargs):
        seen.append(kwargs["bounds"])
        return highs_milp(*args, **kwargs)

    monkeypatch.setattr(MixedBinaryModel, "validate", record_validate)
    monkeypatch.setattr(pdsr.milp, "highs_milp", record_highs)
    assert solve_milp(m, bounds=bounds).objective == pytest.approx(-1.0)
    (lb, ub), = checked
    assert lb.dtype == ub.dtype == np.float64
    assert lb.tolist() == [0.0, 0.0] and ub.tolist() == [1.0, 1.0]
    assert seen and all(s[0] is lb and s[1] is ub for s in seen)


def test_bound_override_leaves_model_bounds():
    m, x, b = _gated_model()
    lb, ub = list(m.lb), list(m.ub)
    over = (np.array(lb), np.array(ub))
    over[1][x] = 4.0
    sol = solve_milp(m, bounds=over)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-3.5)
    assert m.lb == lb and m.ub == ub
    assert list(over[1]) == [4.0, 1.0]
    assert m.max_violation(np.array([10.0, 1.0])) == 0.0
    assert m.max_violation(np.array([10.0, 1.0]), over) == pytest.approx(6.0)
    # the next solve re-solves on the kept instance under the model's bounds
    assert solve_milp(m).objective == pytest.approx(-9.5)


def test_bound_override_of_wrong_length_rejected():
    m, _, _ = _gated_model()
    with pytest.raises(ModelError, match="bounds"):
        solve_milp(m, bounds=(np.zeros(1), np.ones(1)))


@pytest.mark.parametrize("change", ["row", "column", "objective", "rhs"])
def test_model_grown_after_a_solve_reaches_the_next_lp(monkeypatch, change):
    m, x, b = _gated_model()
    assert solve_milp(m).objective == pytest.approx(-9.5)
    if change == "row":        # x <= 4: LP point x = 4, b = 0.4
        m.add_row([x], [1.0], LE, 4.0)
        expected, seen = -3.5, lambda p: p[x] <= 4.0 + 1e-9
    elif change == "rhs":      # x <= 10 b - 6: LP point x = 4, b = 1
        m.set_rhs(0, -6.0)
        expected, seen = -3.5, lambda p: p[x] <= 4.0 + 1e-9
    elif change == "column":   # a free bonus y in [0, 1]
        y = m.add_var("y", 0.0, 1.0)
        m.add_objective(y, -1.0)
        expected, seen = -10.5, lambda p: p.size == 3 and p[y] == 1.0
    else:                      # x now costs: x = b = 0
        m.add_objective(x, 2.0)
        expected, seen = 0.0, lambda p: p[x] == 0.0
    points = []
    highs = pdsr.milp.highs_milp

    def recorded(c, **kwargs):
        res = highs(c, **kwargs)
        points.append(res.x)
        return res

    monkeypatch.setattr(pdsr.milp, "highs_milp", recorded)
    sol = solve_milp(m)
    # the first LP after the change already solves the grown model
    assert points[0] is not None and seen(points[0])
    assert sol.objective == pytest.approx(expected)


# -- handing a kept LP instance to the next model ----------------------------


def _desk_problem(kind, t_steps=None):
    if kind == "adn":
        cfg, ss = make_desk_instance(seed=0, n_scenarios=6,
                                     t_steps=t_steps or 12, buses=6)
        return AdnProblem(cfg, ss.source_names), ss
    cfg, ss = make_uc_desk_instance(seed=0, n_scenarios=8, t_steps=t_steps or 6)
    return UcProblem(cfg, ss.source_names), ss


def _record_lps(monkeypatch):
    """Record every root-step LP as (model, whether the model kept an
    instance when called, LP objective), in call order."""
    seen = []
    highs = pdsr.milp.highs_milp

    def recorded(c, **kwargs):
        model = kwargs.get("model")
        warm = model is not None and model._highs is not None
        res = highs(c, **kwargs)
        if model is not None:
            seen.append((model, warm, res.objective))
        return res

    monkeypatch.setattr(pdsr.milp, "highs_milp", recorded)
    return seen


def _first_lp(seen, model):
    """(warm, objective) of the first recorded LP of ``model``."""
    return next((warm, obj) for m, warm, obj in seen if m is model)


@pytest.mark.parametrize("kind", ["adn", "uc"])
def test_handed_over_instance_solves_like_a_fresh_one(monkeypatch, kind):
    # diagonal 0, then cell (0, 1): the same matrix, other row bounds (and
    # on ADN other costs, the price)
    problem, ss = _desk_problem(kind)
    donor = problem.build_model([ss.scenarios[0]], [1.0])
    z, _ = solve_scenario_specific(problem, ss.scenarios[0])
    cell = problem.build_model([ss.scenarios[1]], [1.0])
    fresh = problem.build_model([ss.scenarios[1]], [1.0])
    (_, lo0, hi0), (_, lo1, hi1) = (donor._assembled().constraints,
                                    cell._assembled().constraints)
    assert ((lo0 != lo1) | (hi0 != hi1)).any()
    if kind == "adn":
        assert (donor._assembled().c != cell._assembled().c).any()
    bounds = _fixed_bounds(problem, z, cell)
    solve_milp(donor)
    assert donor._highs is not None
    seen = _record_lps(monkeypatch)
    assert cell.take_highs(donor)
    assert donor._highs is None and cell._highs is not None
    warm = solve_milp(cell, bounds=bounds)
    cold = solve_milp(fresh, bounds=bounds)
    (was_warm, lp_warm), (was_cold, lp_cold) = (_first_lp(seen, cell),
                                                _first_lp(seen, fresh))
    assert was_warm and not was_cold
    # the first LP on the handed-over instance is the fresh model's LP
    assert lp_warm == pytest.approx(lp_cold, rel=1e-9)
    assert warm.status == cold.status == "optimal"
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
    assert cell.max_violation(warm.x, bounds) <= 1e-5


@pytest.mark.parametrize("other", ["two_scenarios", "other_t",
                                   "equal_matrix"])
def test_other_matrix_refuses_the_instance(other):
    # only a copy sharing the donor's matrix object takes its instance;
    # the same matrix built by another problem is refused too
    problem, ss = _desk_problem("adn")
    donor = problem.build_model([ss.scenarios[0]], [1.0])
    solve_milp(donor)
    kept = donor._highs
    if other == "two_scenarios":
        model = problem.build_model(ss.scenarios[:2], [0.5, 0.5])
    elif other == "other_t":
        short, ss10 = _desk_problem("adn", t_steps=10)
        model = short.build_model([ss10.scenarios[0]], [1.0])
    else:
        twin = type(problem)(problem.config, problem.source_names)
        model = twin.build_model([ss.scenarios[0]], [1.0])
        (A, _, _), (B, _, _) = (model._assembled().constraints,
                                donor._assembled().constraints)
        assert all(map(np.array_equal, A[:3], B[:3]))
    assert not model.take_highs(donor)
    assert donor._highs is kept and model._highs is None
