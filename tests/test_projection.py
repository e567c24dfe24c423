"""Projection matrix: construction, caching, worker invariance."""

import json

import numpy as np
import pytest

import pdsr.milp
from oracles import scenario_subset
from pdsr.adn import AdnProblem, make_desk_instance
from pdsr.errors import CacheError, ModelError, SolverError
from pdsr.milp import MixedBinaryModel
from pdsr.projection import (build_problem_space_matrix, fingerprint,
                             load_matrix, save_matrix)
from pdsr.scenarios import Scenario, ScenarioSet
from pdsr.tsso import evaluate_with_fixed_first_stage


@pytest.fixture(scope="module")
def desk():
    config, ss = make_desk_instance(seed=11, n_scenarios=5, t_steps=12, buses=5,
                                    bad_fraction=0.2)
    return AdnProblem(config, ss.source_names), ss


@pytest.fixture(scope="module")
def matrix(desk):
    problem, ss = desk
    return build_problem_space_matrix(problem, ss, workers=2)


def test_single_scenario_matrix(desk):
    problem, ss = desk
    single = scenario_subset(ss, [0])
    m = build_problem_space_matrix(problem, single)
    from pdsr.tsso import solve_scenario_specific
    _, obj = solve_scenario_specific(problem, single.scenarios[0])
    assert m.values.shape == (1, 1)
    assert m.values[0, 0] == pytest.approx(obj, rel=1e-9)


def test_duplicate_scenarios_give_symmetric_rows(desk):
    problem, ss = desk
    twin = Scenario("twin", ss.scenarios[0].values.copy())
    dup = ScenarioSet((ss.scenarios[0], twin, ss.scenarios[1]),
                      np.array([0.4, 0.4, 0.2]), ss.source_names,
                      ss.source_roles)
    m = build_problem_space_matrix(problem, dup)
    F = m.values
    tol = 2e-4 * max(1.0, np.abs(F).max())
    assert np.allclose(F[0], F[1], atol=tol)
    assert np.allclose(F[:, 0], F[:, 1], atol=tol)


def test_diagonal_column_minimal(matrix):
    matrix.check_diagonal_optimality()  # raises on violation


def test_worker_invariance(desk, matrix):
    """A row is a fixed sequence of solves, so the matrix is the same bytes
    on 1, 2 and 8 workers."""
    problem, ss = desk
    sequential = build_problem_space_matrix(problem, ss, workers=1)
    assert np.array_equal(matrix.values, sequential.values)
    m8 = build_problem_space_matrix(problem, ss, workers=8)
    assert np.array_equal(matrix.values, m8.values)
    for m in (sequential, m8):
        for a, b in zip(matrix.decisions, m.decisions):
            assert np.array_equal(a.values, b.values)


def test_rows_match_cold_cells(desk, matrix):
    """A cell solved on the instance its row handed over gives the value a
    cold solve of the cell gives."""
    problem, ss = desk
    for i, z in enumerate(matrix.decisions):
        for j, scen in enumerate(ss.scenarios):
            if i != j:
                cold = evaluate_with_fixed_first_stage(problem, z, scen)
                assert matrix.values[i, j] == pytest.approx(cold, rel=1e-9)


@pytest.mark.parametrize("workers", [1, 2])
def test_every_cell_takes_over_the_instance(desk, monkeypatch, workers):
    """Each of the N(N-1) cells takes over the HiGHS instance of the program
    before it in its row, and its first LP re-solves warm; only the N
    diagonals start cold."""
    problem, ss = desk
    n = len(ss)
    taken, first_lp = [], {}
    take, highs = MixedBinaryModel.take_highs, pdsr.milp.highs_milp

    def recorded_take(self, donor):
        ok = take(self, donor)
        taken.append(ok)
        return ok

    def recorded_highs(c, **kwargs):
        model = kwargs.get("model")
        if model is not None and id(model) not in first_lp:
            first_lp[id(model)] = (model, model._highs is not None)
        return highs(c, **kwargs)

    monkeypatch.setattr(MixedBinaryModel, "take_highs", recorded_take)
    monkeypatch.setattr(pdsr.milp, "highs_milp", recorded_highs)
    build_problem_space_matrix(problem, ss, workers=workers)
    assert taken == [True] * (n * (n - 1))
    warm = [was_warm for _, was_warm in first_lp.values()]
    assert sorted(warm) == [False] * n + [True] * (n * (n - 1))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("error, stage, where", [
    (SolverError, "cell", "cross evaluation failed at (i=1, j=2)"),
    (ModelError, "diagonal", "scenario-specific solve failed at i=2"),
], ids=["solver_error_in_cell", "model_error_in_diagonal"])
def test_failing_subproblem_names_its_cell(desk, monkeypatch, workers, error,
                                           stage, where):
    """Any toolkit error of a diagonal or a cell keeps its class and names
    the cell, not only a recourse failure."""
    import pdsr.projection
    problem, ss = desk
    ids = ss.ids()
    diagonal = pdsr.projection.solve_scenario_specific
    cell = pdsr.projection.evaluate_with_fixed_first_stage

    def failing_diagonal(problem, scenario, **kwargs):
        if stage == "diagonal" and scenario.id == ids[2]:
            raise error("injected")
        return diagonal(problem, scenario, **kwargs)

    def failing_cell(problem, decision, scenario, **kwargs):
        if (stage == "cell" and decision.source_scenario == 1
                and scenario.id == ids[2]):
            raise error("injected")
        return cell(problem, decision, scenario, **kwargs)

    monkeypatch.setattr(pdsr.projection, "solve_scenario_specific",
                        failing_diagonal)
    monkeypatch.setattr(pdsr.projection, "evaluate_with_fixed_first_stage",
                        failing_cell)
    with pytest.raises(error) as info:
        build_problem_space_matrix(problem, ss, workers=workers)
    assert type(info.value) is error
    assert str(info.value) == f"{where}: injected"


def test_save_load_round_trip(tmp_path, matrix):
    path = tmp_path / "F.csv"
    save_matrix(matrix, path)
    back = load_matrix(path, expected_fingerprint=matrix.fingerprint)
    assert np.array_equal(back.values, matrix.values)   # lossless floats
    assert back.scenario_ids == matrix.scenario_ids
    assert back.gap_tol == matrix.gap_tol
    for a, b in zip(back.decisions, matrix.decisions):
        assert np.array_equal(a.values, b.values)
        assert a.source_scenario == b.source_scenario


def test_fingerprint_rejects_changed_config(tmp_path, desk, matrix):
    problem, ss = desk
    path = tmp_path / "F.csv"
    save_matrix(matrix, path)
    import copy
    other = copy.deepcopy(problem)
    other.config.penalty_shed = 555.0
    stale = fingerprint(other, ss, matrix.gap_tol)
    assert stale != matrix.fingerprint
    with pytest.raises(CacheError, match="stale"):
        load_matrix(path, expected_fingerprint=stale)


def test_truncated_cache_rejected(tmp_path, matrix):
    path = tmp_path / "F.csv"
    save_matrix(matrix, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(CacheError):
        load_matrix(path, expected_fingerprint=matrix.fingerprint)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_cache_entry_rejected(tmp_path, matrix, bad):
    path = tmp_path / "F.csv"
    save_matrix(matrix, path)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = bad
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheError, match="non-finite"):
        load_matrix(path, expected_fingerprint=matrix.fingerprint)


def test_non_finite_cached_decision_rejected(tmp_path, matrix):
    path = tmp_path / "F.csv"
    save_matrix(matrix, path)
    meta_path = tmp_path / "F.meta.json"
    meta = json.loads(meta_path.read_text())
    meta["decisions"][1]["values"][0] = "nan"
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(CacheError, match="non-finite"):
        load_matrix(path, expected_fingerprint=matrix.fingerprint)


def test_short_cached_decision_list_rejected(tmp_path, matrix):
    path = tmp_path / "F.csv"
    save_matrix(matrix, path)
    meta_path = tmp_path / "F.meta.json"
    meta = json.loads(meta_path.read_text())
    meta["decisions"].pop()
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(CacheError, match="decisions for"):
        load_matrix(path, expected_fingerprint=matrix.fingerprint)


def test_extra_cache_rows_rejected(tmp_path, matrix):
    path = tmp_path / "F.csv"
    save_matrix(matrix, path)
    with open(path, "a") as fh:
        fh.write("extra" + ",9" * len(matrix.scenario_ids) + "\n")
    with pytest.raises(CacheError, match="after its last scenario"):
        load_matrix(path, expected_fingerprint=matrix.fingerprint)


def test_corrupt_meta_rejected(tmp_path, matrix):
    path = tmp_path / "F.csv"
    save_matrix(matrix, path)
    (tmp_path / "F.meta.json").write_text("{not json")
    with pytest.raises(CacheError):
        load_matrix(path, expected_fingerprint=matrix.fingerprint)
