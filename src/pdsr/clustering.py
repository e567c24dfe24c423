"""Problem-driven distance matrix and the exact clustering MILP.

The pairwise distance symmetrizes opportunity costs: applying scenario j's
optimal decision to scenario i and vice versa, each measured against the
scenario's own optimum.  Clustering picks representative members and an
assignment minimizing the probability-weighted within-cluster distance sum,
optionally traded off against the number of clusters; the formulation is a
p-median-style MILP solved to a proven gap, so results are deterministic
and free of seeding heuristics.  The ex-ante indices of a reduction, its
within-cluster distance sum (:func:`spdd`) and cluster-validity index
(:func:`pddbi`), are read off the distance matrix here too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InconsistencyError
from .milp import DEFAULT_GAP_TOL, EQ, LE, MixedBinaryModel, OPTIMAL, solve_milp
from .projection import ProblemSpaceMatrix


@dataclass
class PddMatrix:
    """Symmetric non-negative scenario distance matrix in problem space."""

    values: np.ndarray
    mu: float = 0.0

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass
class ReductionResult:
    """A partition of the original set into represented clusters."""

    representatives: list[int]            # scenario indices, ascending
    assignment: dict[int, int]            # scenario index -> representative index
    weights: dict[int, float]             # representative index -> aggregated mass
    spdd: float | None = None             # within-cluster distance sum
    objective: float | None = None        # clustering objective value
    beta: float | None = None
    method: str = "pdsr"
    extras: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.representatives)

    def members(self, rep: int) -> list[int]:
        return sorted(i for i, r in self.assignment.items() if r == rep)

    def validate(self, probabilities):
        reps = set(self.representatives)
        if not reps:
            raise ValueError("no representatives")
        if len(reps) != len(self.representatives):
            twice = next(r for r in reps if self.representatives.count(r) > 1)
            raise ValueError(f"representative {twice} listed twice")
        for r in reps:
            if self.assignment.get(r) != r:
                raise ValueError(f"representative {r} not assigned to itself")
        for i, r in self.assignment.items():
            if r not in reps:
                raise ValueError(f"scenario {i} assigned to non-representative {r}")
        if set(self.weights) != reps:
            raise ValueError("weights do not cover the representatives")
        total = sum(self.weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {float(total)!r}")
        for r in reps:
            mass = float(sum(probabilities[i] for i in self.members(r)))
            if abs(mass - self.weights[r]) > 1e-9:
                raise ValueError(f"weight of representative {r} != member mass")

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "representatives": list(self.representatives),
            "assignment": {str(i): r for i, r in sorted(self.assignment.items())},
            "weights": {str(r): self.weights[r] for r in sorted(self.weights)},
            "spdd": self.spdd,
            "objective": self.objective,
            "beta": self.beta,
            "k": self.k,
            "extras": self.extras,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_dict(cls, d: dict) -> "ReductionResult":
        return cls(representatives=[int(r) for r in d["representatives"]],
                   assignment={int(i): int(r) for i, r in d["assignment"].items()},
                   weights={int(r): float(w) for r, w in d["weights"].items()},
                   spdd=d.get("spdd"), objective=d.get("objective"),
                   beta=d.get("beta"), method=d.get("method", "pdsr"),
                   extras=d.get("extras", {}))


def compute_pdd(matrix: ProblemSpaceMatrix, mu: float = 0.0,
                scenario_set=None) -> PddMatrix:
    """Symmetrized opportunity-cost distance from the cross-evaluation
    matrix; with ``mu > 0`` a scaled L2 norm term restores strict
    definiteness for scenarios whose optima coincide.

    Entries that are negative within solver-gap noise are clamped to zero;
    anything more negative means a subproblem was not solved to the claimed
    gap and raises.
    """
    F = matrix.values
    if mu < 0:
        raise ValueError("mu must be >= 0")
    if mu > 0 and scenario_set is None:
        raise ValueError("mu > 0 requires the scenario set for norms")
    diag = np.diag(F)
    # d[i, j] = (F[j, i] - F[i, i]) + (F[i, j] - F[j, j])
    d = (F.T - diag[:, None]) + (F - diag[None, :])
    tol = 4.0 * matrix.gap_tol * max(1.0, float(np.abs(F).max()))
    worst = float(d.min())
    if worst < -tol:
        i, j = np.unravel_index(int(d.argmin()), d.shape)
        raise InconsistencyError(
            f"pairwise distance d[{i},{j}] = {worst:.6g} is negative beyond "
            f"the solver-gap tolerance {tol:.3g}")
    np.clip(d, 0.0, None, out=d)
    if mu > 0:
        n = matrix.n
        norms = np.zeros((n, n))
        values = [s.values for s in scenario_set.scenarios]
        for i in range(n):
            for j in range(i + 1, n):
                v = float(np.linalg.norm(values[i] - values[j]))
                norms[i, j] = norms[j, i] = v
        d = d + mu * norms
    np.fill_diagonal(d, 0.0)
    return PddMatrix(values=d, mu=mu)


def spdd(pdd: PddMatrix, probabilities, result: ReductionResult) -> float:
    """Probability-weighted distance of every scenario to its
    representative, recomputed from the assignment."""
    gamma = np.asarray(probabilities, dtype=float)
    result.validate(gamma)
    d = pdd.values
    return float(sum(gamma[i] * d[r, i] for i, r in result.assignment.items()))


def pddbi(pdd: PddMatrix, probabilities, result: ReductionResult) -> float:
    """Davies-Bouldin-style validity index on the problem-driven distance.

    Mean over clusters of the worst (compactness_m + compactness_n) /
    separation(m, n) ratio; undefined for a single cluster.
    """
    gamma = np.asarray(probabilities, dtype=float)
    result.validate(gamma)
    reps = result.representatives
    if len(reps) < 2:
        raise ValueError("cluster-validity index requires at least 2 clusters")
    d = pdd.values
    compact = {}
    for r in reps:
        members = result.members(r)
        omega = result.weights[r]
        compact[r] = float(sum(gamma[i] / omega * d[r, i] for i in members))
    total = 0.0
    for m in reps:
        worst = -np.inf
        for nrep in reps:
            if nrep == m:
                continue
            sep = max(d[m, nrep], 1e-12)   # guard coincident representatives
            worst = max(worst, (compact[m] + compact[nrep]) / sep)
        total += worst
    return float(total / len(reps))


def _clustering_model(d: np.ndarray, gamma: np.ndarray, beta: float | None,
                      fixed_k: int | None):
    """Compile the representative-selection MILP (a p-median model).

    Binary u_j marks scenario j as a representative; continuous v_ij in
    [0, 1] is the share of scenario i assigned to representative j, and
    gamma_i d_ij v_ij enters the objective directly.  Only u needs to be
    binary: with u integral, the rows left on v split into one simplex per
    scenario, so a vertex optimum sends each scenario wholly to a nearest
    open representative (ReVelle & Swain 1970).
    """
    n = len(gamma)
    m = MixedBinaryModel()
    u = [m.add_var(f"u[{j}]", 0.0, 1.0, binary=True) for j in range(n)]
    v = {}
    for i in range(n):
        for j in range(n):
            v[i, j] = m.add_var(f"v[{i},{j}]", 0.0, 1.0)
            w = float(gamma[i] * d[i, j])
            if w != 0.0:
                m.add_objective(v[i, j], w, group="spdd")
            m.add_row([v[i, j], u[j]], [1.0, -1.0], EQ if i == j else LE, 0.0)
        m.add_row([v[i, j] for j in range(n)], [1.0] * n, EQ, 1.0)

    if fixed_k is not None:
        m.add_row(u, [1.0] * n, EQ, float(fixed_k))
    else:
        for j in range(n):
            m.add_objective(u[j], float(beta) / n, group="reduction_degree")
    return m, u, v


def solve_clustering(pdd: PddMatrix, probabilities, beta: float | None = None,
                     fixed_k: int | None = None,
                     gap_tol: float = DEFAULT_GAP_TOL) -> ReductionResult:
    """Solve the clustering MILP exactly.

    Exactly one of ``beta`` (trade-off mode: the solver also chooses the
    number of clusters) or ``fixed_k`` must be given.
    """
    gamma = np.asarray(probabilities, dtype=float)
    n = len(gamma)
    d = pdd.values
    if d.shape != (n, n):
        raise ValueError("distance matrix and probabilities disagree on N")
    if (beta is None) == (fixed_k is None):
        raise ValueError("exactly one of beta / fixed_k must be set")
    if beta is not None and beta < 0:
        raise ValueError("beta must be >= 0")
    if fixed_k is not None and not 1 <= fixed_k <= n:
        raise ValueError(f"fixed_k must be in [1, {n}]")

    model, u, v = _clustering_model(d, gamma, beta, fixed_k)
    sol = solve_milp(model, gap_tol=gap_tol)
    if sol.status != OPTIMAL:
        raise InconsistencyError(f"clustering MILP ended {sol.status}")

    x = sol.x
    reps = sorted(j for j in range(n) if x[u[j]] > 0.5)
    assignment = {}
    for i in range(n):
        row = [x[v[i, j]] for j in reps]
        assignment[i] = reps[int(np.argmax(row))]
    weights = {r: float(sum(gamma[i] for i in range(n) if assignment[i] == r))
               for r in reps}
    spdd = float(sum(gamma[i] * d[i, assignment[i]] for i in range(n)))
    result = ReductionResult(
        representatives=reps, assignment=assignment, weights=weights,
        spdd=spdd, objective=float(sol.objective),
        beta=beta, method="pdsr",
        extras={"mip_gap": sol.mip_gap, "node_count": sol.node_count})
    result.validate(gamma)
    return result


def sweep_beta(pdd: PddMatrix, probabilities, betas,
               gap_tol: float = DEFAULT_GAP_TOL) -> list[dict]:
    """One clustering solve per trade-off value.

    Returns rows of (beta, k, spdd, pddbi) plus min-max normalized columns
    across the sweep for plotting; the cluster-validity index is undefined
    for single-cluster rows and reported as None there.
    """
    betas = [float(b) for b in betas]
    if not betas:
        raise ValueError("no beta values given")
    rows = []
    for b in betas:
        result = solve_clustering(pdd, probabilities, beta=b, gap_tol=gap_tol)
        try:
            validity = pddbi(pdd, probabilities, result)
        except ValueError:
            validity = None
        rows.append({"beta": b, "k": result.k, "spdd": result.spdd,
                     "pddbi": validity, "reduction_degree": result.k / pdd.n})

    def normalized(key):
        vals = [r[key] for r in rows if r[key] is not None]
        if not vals:
            return lambda v: None
        lo, hi = min(vals), max(vals)
        span = hi - lo
        return lambda v: None if v is None else (0.0 if span == 0.0
                                                 else (v - lo) / span)
    for key in ("k", "spdd", "pddbi"):
        norm = normalized(key)
        for r in rows:
            r[f"{key}_normalized"] = norm(r[key])
    return rows
