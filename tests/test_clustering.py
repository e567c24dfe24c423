"""Distance matrix and the exact clustering MILP against enumeration."""

import numpy as np
import pytest

from oracles import enumerate_clustering, identity_reduction
from pdsr.clustering import (PddMatrix, ReductionResult, _clustering_model,
                             compute_pdd, solve_clustering, sweep_beta)
from pdsr.errors import InconsistencyError
from pdsr.projection import ProblemSpaceMatrix


def matrix_from(F, gap_tol=1e-4):
    F = np.asarray(F, dtype=float)
    n = F.shape[0]
    return ProblemSpaceMatrix(values=F, decisions=[None] * n,
                              scenario_ids=[f"s{i}" for i in range(n)],
                              fingerprint="t", gap_tol=gap_tol)


def test_pdd_formula_direct_substitution():
    pdd = compute_pdd(matrix_from([[1.0, 3.0], [4.0, 2.0]]))
    # (F[1][0] - F[0][0]) + (F[0][1] - F[1][1]) = (4-1) + (3-2) = 4
    assert pdd.values[0, 1] == pytest.approx(4.0)
    assert pdd.values[1, 0] == pytest.approx(4.0)
    assert pdd.values[0, 0] == 0.0
    assert pdd.values[1, 1] == 0.0


def test_pdd_symmetry_exact_and_diag_zero():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        base = rng.uniform(1.0, 50.0, size=n)
        F = base[None, :] + rng.uniform(0.0, 20.0, size=(n, n))
        np.fill_diagonal(F, base)   # diagonal column-minimal
        pdd = compute_pdd(matrix_from(F))
        assert np.array_equal(pdd.values, pdd.values.T)   # bitwise symmetric
        assert np.all(np.diag(pdd.values) == 0.0)
        assert np.all(pdd.values >= 0.0)


def test_pdd_clamps_gap_noise_but_rejects_large_negatives():
    # opportunity costs slightly negative within solver-gap noise: clamp
    F = np.array([[10.0, 10.0005 - 0.0007], [10.0001, 10.0005]])
    pdd = compute_pdd(matrix_from(F, gap_tol=1e-4))
    assert pdd.values[0, 1] == 0.0
    bad = np.array([[10.0, 9.0], [9.0, 10.0]])   # off-diagonal below diagonal
    with pytest.raises(InconsistencyError):
        compute_pdd(matrix_from(bad, gap_tol=1e-6))


def test_pdd_mu_regularization_separates_distinct_scenarios():
    from pdsr.scenarios import Scenario, ScenarioSet
    F = np.array([[5.0, 5.0], [5.0, 5.0]])   # identical costs
    scens = (Scenario("a", [[1.0, 2.0]]), Scenario("b", [[1.0, 3.0]]))
    ss = ScenarioSet(scens, np.array([0.5, 0.5]), ("price",))
    plain = compute_pdd(matrix_from(F))
    assert plain.values[0, 1] == 0.0
    reg = compute_pdd(matrix_from(F), mu=2.0, scenario_set=ss)
    assert reg.values[0, 1] == pytest.approx(2.0 * 1.0)
    assert reg.values[0, 0] == 0.0


def random_pdd(rng, n):
    m = rng.uniform(0.0, 10.0, size=(n, n))
    d = m + m.T
    np.fill_diagonal(d, 0.0)
    return PddMatrix(values=d)


def test_single_scenario():
    pdd = PddMatrix(values=np.zeros((1, 1)))
    result = solve_clustering(pdd, [1.0], beta=1.0)
    assert result.representatives == [0]
    assert result.weights == {0: 1.0}
    assert result.k == 1


def test_three_point_example_enumerated():
    d = np.array([[0.0, 0.0, 10.0], [0.0, 0.0, 10.0], [10.0, 10.0, 0.0]])
    gamma = np.array([1 / 3] * 3)
    result = solve_clustering(PddMatrix(values=d), gamma, beta=1.0)
    assert result.k == 2
    assert result.objective == pytest.approx(0.0 + 1.0 * 2 / 3, abs=1e-9)
    clusters = {frozenset(result.members(r)) for r in result.representatives}
    assert frozenset({2}) in clusters
    assert frozenset({0, 1}) in clusters
    assert result.spdd == pytest.approx(0.0, abs=1e-9)


def test_beta_zero_keeps_everything():
    rng = np.random.default_rng(1)
    d = random_pdd(rng, 6)
    gamma = np.full(6, 1 / 6)
    result = solve_clustering(d, gamma, beta=0.0)
    assert result.k == 6
    assert result.spdd == pytest.approx(0.0, abs=1e-12)


def test_huge_beta_single_cluster():
    rng = np.random.default_rng(2)
    n = 6
    d = random_pdd(rng, n)
    gamma = np.full(n, 1 / n)
    beta = n * d.values.max() + 1.0
    result = solve_clustering(d, gamma, beta=beta)
    assert result.k == 1
    expected = enumerate_clustering(d.values, gamma, beta=beta)
    assert result.objective == pytest.approx(expected, abs=1e-6)


@pytest.mark.parametrize("mode", ["beta", "fixed_k"])
def test_matches_enumeration(mode):
    rng = np.random.default_rng(3)
    for trial in range(20):
        n = int(rng.integers(3, 8))
        d = random_pdd(rng, n)
        gamma = rng.uniform(0.2, 1.0, n)
        gamma = gamma / gamma.sum()
        if mode == "beta":
            beta = float(rng.uniform(0.0, 5.0))
            result = solve_clustering(d, gamma, beta=beta, gap_tol=1e-9)
            expected = enumerate_clustering(d.values, gamma, beta=beta)
        else:
            k = int(rng.integers(1, n + 1))
            result = solve_clustering(d, gamma, fixed_k=k, gap_tol=1e-9)
            expected = enumerate_clustering(d.values, gamma, fixed_k=k)
            assert result.k == k
        assert result.objective == pytest.approx(expected, abs=1e-6, rel=1e-6)


def test_solution_satisfies_formulation_constraints():
    rng = np.random.default_rng(4)
    d = random_pdd(rng, 7)
    gamma = np.full(7, 1 / 7)
    result = solve_clustering(d, gamma, fixed_k=3)
    result.validate(gamma)
    # at fixed K the objective is the distance sum: the solver's value equals
    # the spdd recomputed from the assignment
    recomputed = sum(gamma[i] * d.values[r, i]
                     for i, r in result.assignment.items())
    assert result.spdd == pytest.approx(recomputed, abs=1e-9)
    assert result.objective == pytest.approx(result.spdd, abs=1e-6)


def test_clustering_model_has_only_representative_binaries():
    # the assignment v is continuous and there is no epigraph: N binaries
    # (the u) and N^2 + N variables in all
    n = 5
    d = random_pdd(np.random.default_rng(8), n).values
    model, u, _ = _clustering_model(d, np.full(n, 1 / n), None, 2)
    assert model.binary_indices == u
    assert model.num_vars == n * n + n


def test_argument_validation():
    d = PddMatrix(values=np.zeros((3, 3)))
    gamma = np.full(3, 1 / 3)
    with pytest.raises(ValueError):
        solve_clustering(d, gamma)                      # neither mode
    with pytest.raises(ValueError):
        solve_clustering(d, gamma, beta=1.0, fixed_k=2)  # both modes
    with pytest.raises(ValueError):
        solve_clustering(d, gamma, beta=-1.0)
    with pytest.raises(ValueError):
        solve_clustering(d, gamma, fixed_k=4)


def test_sweep_beta_rows_and_normalization():
    rng = np.random.default_rng(5)
    d = random_pdd(rng, 6)
    gamma = np.full(6, 1 / 6)
    betas = [0.0, 0.5, 2.0, 50.0, 1e4]
    rows = sweep_beta(d, gamma, betas)
    assert len(rows) == len(betas)
    assert rows[0]["k"] == 6 and rows[0]["spdd"] == pytest.approx(0.0)
    assert rows[-1]["k"] == 1
    ks = [r["k"] for r in rows]
    assert all(a >= b for a, b in zip(ks, ks[1:]))       # K non-increasing
    spdds = [r["spdd"] for r in rows]
    assert all(a <= b + 1e-9 for a, b in zip(spdds, spdds[1:]))
    for r in rows:
        for key in ("k_normalized", "spdd_normalized"):
            assert r[key] is None or 0.0 <= r[key] <= 1.0
        if r["k"] == 1:
            assert r["pddbi"] is None


def test_metric_triangle_bound_from_column_maxima():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        base = rng.uniform(5.0, 40.0, size=n)
        F = base[None, :] + rng.uniform(0.0, 15.0, size=(n, n))
        np.fill_diagonal(F, base)
        pdd = compute_pdd(matrix_from(F))
        lam = 2.0 * np.abs(F).max(axis=0)
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert pdd.values[i, j] < lam[i] + lam[j]


def test_identity_reduction_shape():
    red = identity_reduction(np.array([0.25, 0.25, 0.5]))
    red.validate(np.array([0.25, 0.25, 0.5]))
    assert red.k == 3
    assert red.spdd == 0.0


def test_repeated_representative_rejected():
    # listed twice, a representative's weight would count twice in the
    # reduced program
    red = identity_reduction(np.array([0.25, 0.25, 0.5]))
    red.representatives = [0, 1, 1, 2]
    with pytest.raises(ValueError, match="representative 1 listed twice"):
        red.validate(np.array([0.25, 0.25, 0.5]))


def test_reduction_json_round_trip():
    rng = np.random.default_rng(7)
    d = random_pdd(rng, 5)
    gamma = np.full(5, 0.2)
    result = solve_clustering(d, gamma, fixed_k=2)
    import json
    back = ReductionResult.from_json_dict(json.loads(result.to_json()))
    assert back.representatives == result.representatives
    assert back.assignment == result.assignment
    assert back.weights == pytest.approx(result.weights)
    assert back.spdd == pytest.approx(result.spdd)
