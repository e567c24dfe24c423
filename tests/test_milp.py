"""Solver backend: trivial cases, oracle cross-checks, the root step, the
branch-and-cut options, LP-file round trip."""

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
from pdsr.milp import (GE, LE, EQ, LinExpr, MixedBinaryModel, export_lp_file,
                       solve_milp)
from pdsr.tsso import _fixed_model, solve_scenario_specific
from pdsr.uc import UcProblem, make_uc_desk_instance
from oracles import (brute_force_milp, enumerate_vertices_optimum, random_lp,
                     random_milp, solve_lp, solve_milp_reference)


def simple_model():
    m = MixedBinaryModel()
    x = m.add_var("x", 0.0, 10.0)
    m.add_objective(x, 1.0)
    m.add_constraint({x: 1.0}, GE, 3.0)
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
    m.add_constraint({x: 1.0, y: 1.0}, LE, 1.0)
    sol = solve_lp(m)
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)


def test_lp_statuses():
    m = MixedBinaryModel()
    x = m.add_var("x", 0.0, math.inf)
    m.add_objective(x, -1.0)
    assert solve_lp(m).status == "unbounded"
    m2 = MixedBinaryModel()
    x = m2.add_var("x", 0.0, 1.0)
    m2.add_constraint({x: 1.0}, GE, 2.0)
    assert solve_lp(m2).status == "infeasible"


def test_model_validation():
    m = MixedBinaryModel()
    with pytest.raises(ModelError):
        m.add_var("b", -0.5, 1.0, binary=True)
    x = m.add_var("x", 0.0, 1.0)
    with pytest.raises(ModelError):
        m.add_constraint({x + 7: 1.0}, LE, 1.0)
    with pytest.raises(ModelError):
        m.add_constraint({}, LE, 0.0)
    with pytest.raises(ModelError):
        m.add_constraint({x: math.nan}, LE, 0.0)


def test_expression_row_with_cancelled_coefficients_rejected():
    m = MixedBinaryModel()
    x = m.add_var("x", 0.0, 1.0)
    expr = LinExpr().add(x, 1.0).add(x, -1.0).add_const(2.0)
    with pytest.raises(ModelError, match="no nonzero coefficient"):
        m.add_expr_constraint(expr, LE, 5.0)
    assert m.rows == []


@pytest.mark.parametrize("spoil", [
    lambda m, x, y: m.add_expr_constraint(LinExpr().add(x, math.nan)
                                          .add(y, 1.0), LE, 1.0),
    lambda m, x, y: m.add_expr_constraint(LinExpr().add(x, math.inf), GE, 0.0),
    lambda m, x, y: m.add_expr_constraint(LinExpr().add(x, 1.0)
                                          .add_const(math.nan), EQ, 0.0),
    lambda m, x, y: m.add_expr_constraint(LinExpr().add(y, 1.0), LE, math.inf),
    lambda m, x, y: m.ub.__setitem__(y, math.nan),
], ids=["nan_coefficient", "inf_coefficient", "nan_constant", "inf_rhs",
        "nan_upper_bound"])
def test_non_finite_model_data_rejected_before_solving(monkeypatch, spoil):
    # expression rows are only checked when the model is validated, which
    # every solve does before HiGHS sees the arrays
    def no_solve(*args, **kwargs):
        raise AssertionError("HiGHS called on a non-finite model")

    monkeypatch.setattr(pdsr.milp, "highs_milp", no_solve)
    m, x = simple_model()
    y = m.add_var("y", 0.0, 5.0)
    spoil(m, x, y)
    with pytest.raises(ModelError, match="non-finite|bad upper bound"):
        solve_milp(m)


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
    m.add_constraint({b1: 1.0, b2: 1.0}, EQ, 1.0)
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


def test_root_step_closes_uc_cross_evaluation(monkeypatch):
    cfg, ss = make_uc_desk_instance(seed=0, n_scenarios=8, t_steps=6)
    problem = UcProblem(cfg, ss.source_names)
    z, _ = solve_scenario_specific(problem, ss.scenarios[0])
    model = _fixed_model(problem, z, ss.scenarios[1])
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
    A, lo, hi = model._row_ranges()
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
    # fractional UC commitments are not gating binaries: no second LP
    cfg, ss = make_uc_desk_instance(seed=0, n_scenarios=8, t_steps=6)
    model = UcProblem(cfg, ss.source_names).build_model([ss.scenarios[0]], [1.0])
    calls, _ = _record_highs_calls(monkeypatch)
    sol = solve_milp(model)
    assert len(calls) == 2
    assert not calls[0].any()
    assert np.array_equal(calls[1], np.array(model.is_binary, dtype=int))
    assert sol.status == "optimal"


def _lp_weak_model():
    # max b + y s.t. 2b + 2y <= 3: LP bound -1.5, integral optimum -1
    m = MixedBinaryModel()
    b = m.add_var("b", 0.0, 1.0, binary=True)
    y = m.add_var("y", 0.0, 1.0, binary=True)
    m.add_objective(b, -1.0)
    m.add_objective(y, -1.0)
    m.add_constraint({b: 2.0, y: 2.0}, LE, 3.0)
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
    # the UC scenario-specific program still takes LP then branch-and-cut
    calls.clear()
    options.clear()
    cfg, ss = make_uc_desk_instance(seed=0, n_scenarios=8, t_steps=6)
    model = UcProblem(cfg, ss.source_names).build_model([ss.scenarios[0]], [1.0])
    sol = solve_milp(model)
    assert [o.get(NO_JUMP) for o in options] == [None, False]
    assert not calls[0].any()
    assert np.array_equal(calls[1], np.array(model.is_binary, dtype=int))
    assert sol.status == "optimal"


def test_adn_cross_cell_branch_and_cut_matches_highs_defaults(monkeypatch):
    # cell (0, 2) of the seed-0 desk instance falls through both root-step
    # LPs; without feasibility jump it must reach HiGHS's default result
    cfg, ss = make_desk_instance(seed=0, n_scenarios=6, t_steps=12, buses=6)
    problem = AdnProblem(cfg, ss.source_names)
    z, _ = solve_scenario_specific(problem, ss.scenarios[0])
    model = _fixed_model(problem, z, ss.scenarios[2])
    calls, options = _record_highs_calls(monkeypatch)
    gap = 1e-4
    sol = solve_milp(model, gap_tol=gap)
    assert [o.get(NO_JUMP) for o in options] == [None, None, False]
    assert calls[2].any()
    assert sol.status == "optimal" and sol.node_count == 1
    expected = _branch_and_cut_objective(model, gap)
    assert abs(sol.objective - expected) <= gap * abs(expected)


def test_option_warning_filtered_in_a_fresh_interpreter():
    # the module-level filter must hold in a plain interpreter that turns
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
    m.add_constraint({x: 1.0, y: 1.0}, LE, 2.0)
    m.add_constraint({x: 1.0}, GE, 0.5)
    m.add_constraint({x: 1.0, y: -1.0}, EQ, 0.0)
    assert m.max_violation(np.array([1.0, 1.0])) == 0.0
    assert m.max_violation(np.array([1.5, 1.0])) == pytest.approx(0.5)
    assert m.max_violation(np.array([0.2, 0.2])) == pytest.approx(0.3)
    assert m.max_violation(np.array([1.0, 0.25])) == pytest.approx(0.75)
    assert m.max_violation(np.array([2.5, 2.5])) == pytest.approx(3.0)
    # the cached rows follow a later mutation
    m.add_constraint({y: 1.0}, LE, 0.0)
    assert m.max_violation(np.array([1.0, 1.0])) == pytest.approx(1.0)


def test_max_violation_matches_row_loop():
    def loop_violation(model, x):
        worst = 0.0
        for coeffs, rel, rhs in model.rows:
            lhs = sum(a * x[j] for j, a in coeffs.items())
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


# -- LP-file export ---------------------------------------------------------


def parse_lp_file(path):
    """Independent minimal reader for the exported subset of the LP format.

    Returns (objective dict by name, constant, rows, bounds, binaries).
    """
    sections = {"minimize": [], "subject to": [], "bounds": [], "binaries": []}
    current = None
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            low = line.lower()
            if low in ("minimize", "subject to", "bounds", "binaries", "end"):
                current = None if low == "end" else low
                continue
            sections[current].append(line)

    def parse_terms(text):
        # the exported grammar always writes explicit coefficients:
        # "c name" pairs joined by +/- sign tokens, optional bare constant
        toks = text.split()
        coeffs, const, sign, i = {}, 0.0, 1.0, 0
        while i < len(toks):
            tok = toks[i]
            if tok in ("+", "-"):
                sign = 1.0 if tok == "+" else -1.0
                i += 1
                continue
            value = float(tok)
            if i + 1 < len(toks) and toks[i + 1] not in ("+", "-"):
                name = toks[i + 1]
                coeffs[name] = coeffs.get(name, 0.0) + sign * value
                i += 2
            else:
                const += sign * value
                i += 1
            sign = 1.0
        return coeffs, const

    obj_text = " ".join(sections["minimize"])
    assert obj_text.startswith("obj:")
    obj, const = parse_terms(obj_text[4:])
    rows = []
    for line in sections["subject to"]:
        _, body = line.split(":", 1)
        for op in ("<=", ">=", "="):
            if f" {op} " in body:
                lhs, rhs = body.rsplit(f" {op} ", 1)
                coeffs, _ = parse_terms(lhs)
                rows.append((coeffs, op, float(rhs)))
                break
    bounds = {}
    for line in sections["bounds"]:
        if line.endswith(" free"):
            bounds[line[:-5].strip()] = (-math.inf, math.inf)
        elif " <= " in line:
            parts = line.split(" <= ")
            if len(parts) == 3:
                bounds[parts[1].strip()] = (float(parts[0]), float(parts[2]))
            else:
                bounds[parts[0].strip()] = (-math.inf, float(parts[1]))
        elif " >= " in line:
            name, lo = line.split(" >= ")
            bounds[name.strip()] = (float(lo), math.inf)
    return obj, const, rows, bounds, set(sections["binaries"])


def test_export_single_variable(tmp_path):
    m = MixedBinaryModel()
    x = m.add_var("x", 0.0, 10.0)
    m.add_objective(x, 2.0)
    path = tmp_path / "m.lp"
    export_lp_file(m, path)
    text = path.read_text()
    assert text.count("obj:") == 1
    assert "obj: 2.0 x" in text
    bounds_lines = text.split("Bounds\n")[1].splitlines()
    assert [l for l in bounds_lines if l.strip() and l != "End"] == [" 0.0 <= x <= 10.0"]


def test_export_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    model, _ = random_milp(rng, max_binaries=4, max_cont=3)
    path = tmp_path / "model.lp"
    export_lp_file(model, path)
    obj, const, rows, bounds, binaries = parse_lp_file(path)
    names = model.var_names
    expected_obj = {names[j]: a for j, a in model.obj.items() if a != 0.0}
    assert set(obj) == set(expected_obj)
    for name, coef in expected_obj.items():
        assert obj[name] == pytest.approx(coef, abs=1e-12)
    assert const == 0.0
    assert len(rows) == len(model.rows)
    for (coeffs, op, rhs), (exp_c, exp_rel, exp_rhs) in zip(rows, model.rows):
        expected = {names[j]: a for j, a in exp_c.items() if a != 0.0}
        assert coeffs == pytest.approx(expected)
        assert rhs == pytest.approx(exp_rhs, abs=1e-12)
        assert op == exp_rel
    for j, name in enumerate(names):
        assert bounds[name][0] == pytest.approx(model.lb[j])
        assert bounds[name][1] == pytest.approx(model.ub[j])
    assert binaries == {names[j] for j in model.binary_indices}


def test_export_no_constraints(tmp_path):
    m = MixedBinaryModel()
    x = m.add_var("x", 0.0, 1.0)
    m.add_objective(x, 1.0)
    path = tmp_path / "empty.lp"
    export_lp_file(m, path)
    text = path.read_text()
    assert "Subject To\nBounds" in text  # empty section is still valid
