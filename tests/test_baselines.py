"""Distribution-driven baselines: recovery, oracles, determinism."""

import itertools

import numpy as np
import pytest

from pdsr.baselines import (hierarchical_reduce, kmeans_reduce, kmedoids_reduce,
                            severity_scores, standardize, worst_case_select)
from pdsr.milp import DEFAULT_GAP_TOL
from pdsr.scenarios import Scenario, ScenarioSet


def make_set(points, sources=("load1",), probs=None):
    """points: list of per-scenario (U, T) arrays."""
    scens = tuple(Scenario(f"s{i}", np.atleast_2d(p)) for i, p in enumerate(points))
    n = len(scens)
    probs = np.full(n, 1.0 / n) if probs is None else np.asarray(probs)
    return ScenarioSet(scens, probs, sources)


def two_groups(seed=0, n_per=5, sep=50.0):
    rng = np.random.default_rng(seed)
    pts = [np.abs(rng.normal(10.0, 1.0, (1, 3))) for _ in range(n_per)]
    pts += [np.abs(rng.normal(10.0 + sep, 1.0, (1, 3))) for _ in range(n_per)]
    return make_set(pts)


@pytest.mark.parametrize("method", [kmeans_reduce, kmedoids_reduce,
                                    lambda s, k: hierarchical_reduce(s, k)])
def test_separated_groups_recovered(method):
    ss = two_groups()
    result = method(ss, 2)
    clusters = {frozenset(result.members(r)) for r in result.representatives}
    assert clusters == {frozenset(range(5)), frozenset(range(5, 10))}
    result.validate(ss.probabilities)


@pytest.mark.parametrize("method", [kmeans_reduce, kmedoids_reduce,
                                    lambda s, k: hierarchical_reduce(s, k),
                                    lambda s, k: worst_case_select(s, k)])
def test_k_equals_n(method):
    ss = two_groups(n_per=3)
    result = method(ss, 6)
    assert sorted(result.representatives) == list(range(6))
    assert all(result.assignment[i] == i for i in range(6))


def brute_force_sse(X, k):
    """Best k-means SSE over all partitions (centroids at member means)."""
    n = len(X)
    best = np.inf
    for labels in itertools.product(range(k), repeat=n):
        if len(set(labels)) != k:
            continue
        sse = 0.0
        for c in range(k):
            members = [i for i in range(n) if labels[i] == c]
            centroid = X[members].mean(axis=0)
            sse += sum(np.linalg.norm(X[i] - centroid) ** 2 for i in members)
        best = min(best, sse)
    return best


def test_kmeans_near_optimal_sse():
    rng = np.random.default_rng(1)
    for seed in range(10):
        pts = [np.abs(rng.normal(5.0, 2.0, (1, 2))) for _ in range(8)]
        ss = make_set(pts)
        X = standardize(ss)
        result = kmeans_reduce(ss, 2, seed=seed)
        assert result.extras["sse"] <= brute_force_sse(X, 2) * 1.05 + 1e-9


@pytest.mark.filterwarnings("error")
def test_kmeans_reseeds_each_empty_cluster_from_its_own_point():
    # two groups of three identical scenarios at K=4: a Lloyd step leaves
    # two clusters empty, and each must be reseeded from a different point
    # (not both from one, which leaves a centroid the mean of nothing)
    ss = make_set([np.array([[1.0, 2.0, 3.0]])] * 3
                  + [np.array([[9.0, 7.0, 5.0]])] * 3)
    result = kmeans_reduce(ss, 4, seed=0)
    assert len(result.representatives) == 4
    assert result.extras["sse"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "weighted"])
def test_kmedoids_is_the_exact_weighted_p_median(uniform):
    # k-medoids solves the probability-weighted p-median to a proven gap:
    # its cost is the enumerated optimum over every medoid set, within the
    # gap, with every scenario on a nearest medoid
    rng = np.random.default_rng(2)
    for _ in range(6):
        pts = [np.abs(rng.normal(5.0, 2.0, (1, 2))) for _ in range(8)]
        ss = make_set(pts, probs=None if uniform else rng.dirichlet(np.ones(8)))
        gamma = ss.probabilities
        X = standardize(ss)
        D = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
        best = min(gamma @ np.min(D[:, list(meds)], axis=1)
                   for meds in itertools.combinations(range(8), 3))
        result = kmedoids_reduce(ss, 3)
        assert result.method == "kd_e" and result.k == 3
        result.validate(gamma)
        cost = sum(gamma[i] * D[i, r] for i, r in result.assignment.items())
        assert best - 1e-12 <= cost <= best + DEFAULT_GAP_TOL * cost + 1e-12
        for i, r in result.assignment.items():
            assert D[i, r] <= D[i, result.representatives].min() + 1e-12


def test_hierarchical_merges_closest_pair_first():
    # chain of three points: the near pair merges before the far point joins
    ss = make_set([np.array([[0.0]]), np.array([[1.0]]), np.array([[10.0]])])
    result = hierarchical_reduce(ss, 2)
    clusters = {frozenset(result.members(r)) for r in result.representatives}
    assert frozenset({0, 1}) in clusters
    assert frozenset({2}) in clusters


def test_hierarchical_rejects_a_cut_with_fewer_clusters():
    # four identical scenarios tie every distance, and the cut at K=3
    # gives one cluster: scoring it as K=3 would hide that
    ss = make_set([np.full((1, 3), 5.0)] * 4)
    with pytest.raises(ValueError, match="found 1 clusters, not 3"):
        hierarchical_reduce(ss, 3)


def test_linkage_heights_monotone():
    from scipy.cluster.hierarchy import linkage
    rng = np.random.default_rng(3)
    ss = make_set([np.abs(rng.normal(5, 2, (1, 4))) for _ in range(12)])
    X = standardize(ss)
    Z = linkage(X, method="average", metric="euclidean")
    heights = Z[:, 2]
    assert np.all(np.diff(heights) >= -1e-12)


def test_worst_case_identical_set_deterministic():
    pts = [np.full((1, 3), 5.0) for _ in range(6)]
    ss = make_set(pts)
    result = worst_case_select(ss, 2)
    assert result.representatives == [0, 1]   # ties resolved by index


def test_worst_case_ranks_spike_first():
    rng = np.random.default_rng(4)
    pts = [np.vstack([rng.uniform(0.4, 0.6, 4), rng.uniform(0.2, 0.4, 4)])
           for _ in range(7)]
    spike = pts[3].copy()
    spike[0] += 3.0            # load spike
    spike[1] *= 0.05           # renewable drought
    pts[3] = spike
    ss = make_set(pts, sources=("load1", "wt1"))
    scores = severity_scores(ss)
    assert int(np.argmax(scores)) == 3
    result = worst_case_select(ss, 2)
    assert 3 in result.representatives


def test_weights_are_probability_mass():
    ss = two_groups(n_per=3)
    probs = np.array([0.3, 0.1, 0.1, 0.2, 0.2, 0.1])
    ss = ScenarioSet(ss.scenarios, probs, ss.source_names, ss.source_roles)
    for result in (kmeans_reduce(ss, 2, seed=0), kmedoids_reduce(ss, 2),
                   hierarchical_reduce(ss, 2), worst_case_select(ss, 2)):
        result.validate(probs)
        assert sum(result.weights.values()) == pytest.approx(1.0, abs=1e-12)


def test_determinism_given_seed():
    rng = np.random.default_rng(5)
    pts = [np.abs(rng.normal(5, 2, (2, 3))) for _ in range(9)]
    ss = make_set(pts, sources=("wt1", "load1"))
    a = kmeans_reduce(ss, 3, seed=7)
    b = kmeans_reduce(ss, 3, seed=7)
    assert a.representatives == b.representatives
    assert a.assignment == b.assignment
    c = kmedoids_reduce(ss, 3)
    d = kmedoids_reduce(ss, 3)
    assert c.representatives == d.representatives


def test_standardize_inverse_exact():
    rng = np.random.default_rng(6)
    pts = [np.abs(rng.normal(5, 2, (2, 3))) for _ in range(4)]
    ss = make_set(pts, sources=("wt1", "load1"))
    X = standardize(ss)
    raw = np.stack([s.values for s in ss.scenarios])
    means = raw.mean(axis=(0, 2))
    stds = raw.std(axis=(0, 2))
    rebuilt = X.reshape(raw.shape) * stds[None, :, None] + means[None, :, None]
    assert np.allclose(rebuilt, raw, atol=1e-12)
