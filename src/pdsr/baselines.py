"""Distribution-driven reduction baselines for the comparison harness.

All methods operate on flattened, per-source z-scored scenario vectors and
must return member scenarios as representatives (a synthetic centroid has
no dispatch problem to evaluate), so every method yields the same
ReductionResult contract as the problem-driven path: a full partition with
probability-mass weights.
"""

from __future__ import annotations

import numpy as np

from .clustering import ReductionResult
from .scenarios import ScenarioSet

KMEANS_RESTARTS = 8


def standardize(scenario_set: ScenarioSet):
    """Flatten scenarios to (N, U*T) with per-source z-scoring.

    Returns (X, means, stds); constant sources get std 1 so the inverse
    transform stays exact.
    """
    raw = np.stack([s.values for s in scenario_set.scenarios])  # (N, U, T)
    means = raw.mean(axis=(0, 2))
    stds = raw.std(axis=(0, 2))
    stds = np.where(stds > 0.0, stds, 1.0)
    z = (raw - means[None, :, None]) / stds[None, :, None]
    return z.reshape(len(scenario_set), -1), means, stds


def _partition_result(scenario_set, labels, method) -> ReductionResult:
    """Build a ReductionResult from cluster labels + chosen representatives.

    ``labels`` maps scenario index -> representative scenario index.
    """
    gamma = scenario_set.probabilities
    reps = sorted(set(labels.values()))
    weights = {r: float(sum(gamma[i] for i, rr in labels.items() if rr == r))
               for r in reps}
    result = ReductionResult(representatives=reps, assignment=dict(labels),
                             weights=weights, method=method)
    result.validate(gamma)
    return result


def _nearest_member(X, members, centroid) -> int:
    """Member index closest to a centroid; ties by lowest index."""
    dists = np.linalg.norm(X[members] - centroid, axis=1)
    return int(members[int(np.argmin(dists))])


def kmeans_reduce(scenario_set: ScenarioSet, k: int, seed: int = 0) -> ReductionResult:
    """Lloyd's k-means on standardized vectors, best of seeded restarts,
    final centroids replaced by their nearest member scenario."""
    X, _, _ = standardize(scenario_set)
    n = len(scenario_set)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}]")
    best = None
    for r in range(KMEANS_RESTARTS):
        rng = np.random.default_rng([seed, r])
        centroids = _kmeans_pp(X, k, rng)
        labels = np.full(n, -1, dtype=int)
        for _ in range(300):
            dists = np.linalg.norm(X[:, None, :] - centroids[None, :, :], axis=2)
            new_labels = np.argmin(dists, axis=1)
            for c in range(k):
                if not np.any(new_labels == c):
                    # reseed an empty cluster from the farthest point that
                    # leaves its own cluster non-empty
                    sizes = np.bincount(new_labels, minlength=k)
                    far = int(np.argmax(np.where(sizes[new_labels] >= 2,
                                                 np.min(dists, axis=1),
                                                 -np.inf)))
                    centroids[c] = X[far]
                    new_labels[far] = c
            if np.array_equal(new_labels, labels):
                labels = new_labels
                break
            labels = new_labels
            for c in range(k):
                centroids[c] = X[labels == c].mean(axis=0)
        sse = float(sum(np.linalg.norm(X[i] - centroids[labels[i]]) ** 2
                        for i in range(n)))
        if best is None or sse < best[0] - 1e-12:
            best = (sse, labels.copy(), centroids.copy())
    sse, labels, centroids = best
    rep_of_cluster = {}
    for c in sorted(set(labels)):
        members = np.flatnonzero(labels == c)
        rep_of_cluster[c] = _nearest_member(X, members, centroids[c])
    assignment = {i: rep_of_cluster[labels[i]] for i in range(n)}
    result = _partition_result(scenario_set, assignment, "km_e")
    result.extras["sse"] = sse
    return result


def _kmeans_pp(X, k, rng) -> np.ndarray:
    """k-means++ style seeding."""
    n = X.shape[0]
    centroids = [X[int(rng.integers(n))]]
    while len(centroids) < k:
        d2 = np.min([np.sum((X - c) ** 2, axis=1) for c in centroids], axis=0)
        total = d2.sum()
        if total <= 0.0:
            centroids.append(X[int(rng.integers(n))])
            continue
        centroids.append(X[int(rng.choice(n, p=d2 / total))])
    return np.array(centroids, dtype=float)


def kmedoids_reduce(scenario_set: ScenarioSet, k: int) -> ReductionResult:
    """PAM (build + best-improvement swap) on Euclidean distances.

    Deterministic: the greedy build and the swap search break ties by
    lowest index.
    """
    X, _, _ = standardize(scenario_set)
    n = len(scenario_set)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}]")
    D = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)

    medoids = [int(np.argmin(D.sum(axis=1)))]
    while len(medoids) < k:
        current = np.min(D[:, medoids], axis=1)
        gains = [(np.maximum(current - D[:, c], 0.0).sum(), -c)
                 for c in range(n) if c not in medoids]
        best_gain, neg_c = max(gains)
        medoids.append(-neg_c)

    def total_cost(meds):
        return float(np.min(D[:, meds], axis=1).sum())

    cost = total_cost(medoids)
    while True:
        meds = sorted(medoids)
        best = (cost, None)
        for mi in range(len(meds)):
            for c in range(n):
                if c in medoids:
                    continue
                trial = meds[:mi] + [c] + meds[mi + 1:]
                tc = total_cost(trial)
                if tc < best[0] - 1e-12:
                    best = (tc, trial)
        if best[1] is None:
            break
        cost, medoids = best

    medoids = sorted(medoids)
    assignment = {i: medoids[int(np.argmin(D[i, medoids]))] for i in range(n)}
    for m in medoids:
        assignment[m] = m
    result = _partition_result(scenario_set, assignment, "kd_e")
    result.extras["cost"] = cost
    return result


def hierarchical_reduce(scenario_set: ScenarioSet, k: int) -> ReductionResult:
    """Agglomerative average-linkage clustering cut at k clusters; each
    cluster is represented by the member minimizing its summed
    within-cluster distance."""
    X, _, _ = standardize(scenario_set)
    n = len(scenario_set)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}]")
    if k == n:
        labels = np.arange(n)
    else:
        # imported here: scipy.cluster would add to every command's start-up
        from scipy.cluster.hierarchy import fcluster, linkage
        Z = linkage(X, method="average", metric="euclidean")
        labels = fcluster(Z, t=k, criterion="maxclust") - 1
        found = len(set(labels))
        if found != k:
            # tied distances can make the cut give fewer clusters
            raise ValueError(f"average-linkage cut found {found} clusters, "
                             f"not {k}")
    D = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
    assignment = {}
    for c in sorted(set(labels)):
        members = np.flatnonzero(labels == c)
        rep = int(members[int(np.argmin(D[np.ix_(members, members)].sum(axis=1)))])
        for i in members:
            assignment[int(i)] = rep
    return _partition_result(scenario_set, assignment, "hc")


def severity_scores(scenario_set: ScenarioSet) -> np.ndarray:
    """Distribution-space severity: peak over time of summed standardized
    load minus summed standardized renewable infeed."""
    X, _, _ = standardize(scenario_set)
    z = X.reshape(len(scenario_set), scenario_set.num_sources,
                  scenario_set.horizon)
    load_rows = [u for u, r in enumerate(scenario_set.source_roles) if r == "load"]
    res_rows = [u for u, r in enumerate(scenario_set.source_roles) if r in ("wt", "pv")]
    signal = z[:, load_rows, :].sum(axis=1)
    if res_rows:
        signal = signal - z[:, res_rows, :].sum(axis=1)
    return signal.max(axis=1)


def worst_case_select(scenario_set: ScenarioSet, k: int) -> ReductionResult:
    """Top-k scenarios by distribution-space severity; the rest assigned to
    the nearest representative (standardized Euclidean)."""
    n = len(scenario_set)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}]")
    scores = severity_scores(scenario_set)
    # descending score, ties by lowest index
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    reps = sorted(order[:k])
    X, _, _ = standardize(scenario_set)
    assignment = {}
    for i in range(n):
        dists = np.linalg.norm(X[reps] - X[i], axis=1)
        assignment[i] = reps[int(np.argmin(dists))]
    for r in reps:
        assignment[r] = r
    result = _partition_result(scenario_set, assignment, "ws")
    result.extras["scores"] = [float(s) for s in scores]
    return result


def run_baseline(name: str, scenario_set: ScenarioSet, k: int, seed: int = 0) -> ReductionResult:
    """Dispatch a baseline by its method key."""
    if name == "km_e":
        return kmeans_reduce(scenario_set, k, seed=seed)
    if name == "kd_e":
        return kmedoids_reduce(scenario_set, k)
    if name == "hc":
        return hierarchical_reduce(scenario_set, k)
    if name == "ws":
        return worst_case_select(scenario_set, k)
    raise ValueError(f"unknown baseline {name!r}")
