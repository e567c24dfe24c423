"""Reduction-quality indices and the method-comparison harness.

Ex-ante indices (within-cluster distance sum, cluster-validity index) judge
a reduction before any re-optimization; ex-post indices (optimality gap,
per-representative effectiveness) measure the loss actually incurred by
dispatching on the reduced set and verifying against the full one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .clustering import PddMatrix, ReductionResult
from .errors import PdsrError
from .milp import DEFAULT_GAP_TOL, GAP_LIMIT, MixedBinaryModel
from .parallel import pmap
from .projection import ProblemSpaceMatrix, solve_benchmark
from .scenarios import ScenarioSet
from .tsso import (FirstStageDecision, TssoProblem,
                   evaluate_with_fixed_first_stage, solve_stochastic)


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


@dataclass
class GapOutcome:
    """Ex-post optimality loss of one reduction."""

    og_abs: float | None          # $; None when the benchmark was not computed
    og_pct: float | None          # percent; None without a benchmark or a ~0 denominator
    reduced_on_full: float        # full-set objective of the reduced decision
    benchmark_objective: float | None
    decision: FirstStageDecision
    per_scenario: list[float]     # reduced decision evaluated on each scenario
    mean_components: dict         # objective slices, probability-weighted


@dataclass
class VerificationStore:
    """What one command keeps between verifications on its scenario set:
    each scenario's program, compiled on first use so that later decisions
    re-solve warm on its HiGHS instance in the command's order (whatever
    the worker count), and each verified decision's result by its bytes."""

    models: dict[int, MixedBinaryModel] = field(default_factory=dict)
    verified: dict[bytes, tuple] = field(default_factory=dict)


def verification_costs(problem: TssoProblem, decision: FirstStageDecision,
                       scenario_set: ScenarioSet,
                       gap_tol: float = DEFAULT_GAP_TOL, workers: int = 1,
                       store: VerificationStore | None = None):
    """Per-scenario objective of a fixed decision, and each objective
    group's cost averaged over the scenarios with their probabilities (so
    the groups sum to the full-set objective).  Scenario programs come from
    ``store`` (compiled into it on first use); without one they are
    compiled for this call."""
    models = {} if store is None else store.models
    scenarios = scenario_set.scenarios

    def evaluate(j: int):
        model = models.get(j)
        if model is None:
            model = models[j] = problem.build_model([scenarios[j]], [1.0])
        return evaluate_with_fixed_first_stage(
            problem, decision, scenarios[j], gap_tol=gap_tol,
            with_components=True, model=model)

    pairs = pmap(evaluate, range(len(scenarios)), workers)
    values = [float(v) for v, _ in pairs]
    groups = sorted(pairs[0][1]) if pairs else []
    means = {g: float(np.dot(scenario_set.probabilities,
                             [comp[g] for _, comp in pairs])) for g in groups}
    return values, means


def _benchmark(problem: TssoProblem, scenario_set: ScenarioSet, gap_tol: float,
               time_limit: float | None):
    """Full-set (decision, objective), or None when the time limit ends the
    solve (with or without an incumbent)."""
    zb, bench_obj, sol = solve_benchmark(problem, scenario_set, gap_tol=gap_tol,
                                         time_limit=time_limit)
    return None if sol.status == GAP_LIMIT else (zb, bench_obj)


def _verified(problem: TssoProblem, decision: FirstStageDecision,
              scenario_set: ScenarioSet, gap_tol: float, workers: int,
              store: VerificationStore):
    """:func:`verification_costs` of ``decision`` on the programs of
    ``store``, computed once per distinct decision value."""
    key = decision.values.tobytes()
    if key not in store.verified:
        store.verified[key] = verification_costs(
            problem, decision, scenario_set, gap_tol=gap_tol, workers=workers,
            store=store)
    return store.verified[key]


def _reduced_gap(problem: TssoProblem, scenario_set: ScenarioSet, reps,
                 weights, bench_obj: float | None, gap_tol: float,
                 workers: int, store: VerificationStore) -> GapOutcome:
    """Solve the program on scenarios ``reps`` with ``weights``, then verify
    its decision on every scenario of the full set (see :func:`_verified`)."""
    z_red, _, _ = solve_stochastic(
        problem, [scenario_set.scenarios[r] for r in reps], weights,
        gap_tol=gap_tol)
    vals, means = _verified(problem, z_red, scenario_set, gap_tol, workers,
                            store)
    reduced_on_full = float(np.dot(scenario_set.probabilities, vals))
    og_abs = og_pct = None
    if bench_obj is not None:
        og_abs = reduced_on_full - bench_obj
        og_pct = None if abs(bench_obj) < 1e-6 else 100.0 * og_abs / bench_obj
    return GapOutcome(og_abs, og_pct, reduced_on_full, bench_obj, z_red, vals,
                      means)


def optimality_gap(problem: TssoProblem, scenario_set: ScenarioSet,
                   result: ReductionResult, gap_tol: float = DEFAULT_GAP_TOL,
                   workers: int = 1, benchmark=None,
                   store: VerificationStore | None = None) -> GapOutcome:
    """Loss from dispatching on the reduced set, verified on the full set.

    ``benchmark`` is the full-set (decision, objective) pair the loss is
    measured against.  When it is falsy (None or False, e.g. the benchmark
    solve hit its time limit) the gap is reported as not-computed (None)
    and only the full-set cost of the reduced decision is available.
    ``store``, shared across calls on one scenario set, compiles each
    scenario's program once and lets a decision verified before be reused
    instead of verified again.
    """
    reps = result.representatives
    return _reduced_gap(problem, scenario_set, reps,
                        [result.weights[r] for r in reps],
                        float(benchmark[1]) if benchmark else None,
                        gap_tol, workers,
                        VerificationStore() if store is None else store)


def scenario_effectiveness(problem: TssoProblem, scenario_set: ScenarioSet,
                           result: ReductionResult, base: GapOutcome,
                           gap_tol: float = DEFAULT_GAP_TOL,
                           workers: int = 1,
                           store: VerificationStore | None = None
                           ) -> dict[int, float]:
    """Increase in percent optimality gap when one representative is
    removed (remaining weights renormalized to sum to one), measured
    against ``base``, the gap outcome of ``result`` itself.  The drops
    share ``store`` (see :func:`optimality_gap`), or one of their own."""
    if result.k < 2:
        raise ValueError("scenario effectiveness requires at least 2 representatives")
    if base.og_pct is None:
        raise PdsrError("scenario effectiveness needs a percent gap (no "
                        "benchmark, or its objective is too close to zero)")
    store = VerificationStore() if store is None else store
    se = {}
    for drop in result.representatives:
        keep = [r for r in result.representatives if r != drop]
        mass = sum(result.weights[r] for r in keep)
        out = _reduced_gap(problem, scenario_set, keep,
                           [result.weights[r] / mass for r in keep],
                           base.benchmark_objective, gap_tol, workers, store)
        se[drop] = out.og_pct - base.og_pct
    return se


@dataclass
class WorstCaseReport:
    """Outlier scan of the problem-space column sums."""

    flags: list[bool]
    rho: list[float]           # second-difference statistic per scenario

    def flagged_indices(self) -> list[int]:
        return [i for i, f in enumerate(self.flags) if f]


def detect_worst_case(matrix, bound: float = 2.0) -> WorstCaseReport:
    """Flag scenarios whose decision-adaptability sums jump away from the
    rest.

    The column sums are sorted ascending and their second-order
    differences scaled by the median first difference, which makes the
    default bound portable across problems; a scaled difference above
    ``bound`` marks a jump, and every scenario above the largest such jump
    is flagged.
    """
    F = matrix.values if isinstance(matrix, ProblemSpaceMatrix) else np.asarray(matrix)
    n = F.shape[0]
    if n < 3:
        raise ValueError("worst-case detection needs at least 3 scenarios")
    sigma = F.sum(axis=0)
    order = np.argsort(sigma, kind="stable")
    s = sigma[order]
    d1 = np.diff(s)
    d2 = np.diff(d1)
    scale = float(np.median(d1))
    if scale <= 1e-12 * max(1.0, abs(float(s[-1]))):
        scale = 1e-12 * max(1.0, abs(float(s[-1])))
    stat = d2 / scale

    rho_sorted = np.zeros(n)
    rho_sorted[2:] = stat
    flags_sorted = np.zeros(n, dtype=bool)
    above = np.flatnonzero(stat > bound)
    if above.size:
        # flag everything above the largest super-threshold jump; ties on
        # the maximum resolve to the latest jump (fewer flags)
        cut = int(above[stat[above] >= stat[above].max()].max())
        flags_sorted[cut + 2:] = True
    flags = np.zeros(n, dtype=bool)
    rho = np.zeros(n)
    flags[order] = flags_sorted
    rho[order] = rho_sorted
    return WorstCaseReport([bool(b) for b in flags], [float(v) for v in rho])


@dataclass
class EvaluationReport:
    """Full ex-ante + ex-post evaluation of one reduction."""

    spdd: float
    pddbi: float | None
    og_abs: float | None
    og_pct: float | None
    reduced_on_full: float
    benchmark_objective: float | None
    se: dict[int, float] | None
    worst_case: WorstCaseReport
    captured_worst_case: int                  # flagged scenarios among representatives
    verification_costs: dict
    timings: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """Deterministic payload (timings are reported separately)."""
        return {
            "spdd": self.spdd,
            "pddbi": self.pddbi,
            "og_abs": self.og_abs,
            "og_pct": self.og_pct,
            "reduced_on_full": self.reduced_on_full,
            "benchmark_objective": self.benchmark_objective,
            "scenario_effectiveness":
                None if self.se is None
                else {str(k): v for k, v in sorted(self.se.items())},
            "worst_case_flags": self.worst_case.flags,
            "worst_case_rho": self.worst_case.rho,
            "captured_worst_case": self.captured_worst_case,
            "verification_costs": self.verification_costs,
        }


def evaluate_reduction(problem: TssoProblem, scenario_set: ScenarioSet,
                       result: ReductionResult, matrix: ProblemSpaceMatrix,
                       pdd: PddMatrix, gap_tol: float = DEFAULT_GAP_TOL,
                       workers: int = 1, with_se: bool = True,
                       worst_case_bound: float = 2.0,
                       benchmark_time_limit: float | None = None) -> EvaluationReport:
    """Assemble the full evaluation report for one reduction; its gap and
    every drop of its scenario effectiveness share one
    :class:`VerificationStore`."""
    timings = {}
    t0 = time.monotonic()
    bench = _benchmark(problem, scenario_set, gap_tol, benchmark_time_limit)
    timings["benchmark_seconds"] = time.monotonic() - t0

    t0 = time.monotonic()
    store = VerificationStore()
    gap = optimality_gap(problem, scenario_set, result, gap_tol=gap_tol,
                         workers=workers, benchmark=bench, store=store)
    timings["gap_seconds"] = time.monotonic() - t0

    try:
        validity = pddbi(pdd, scenario_set.probabilities, result)
    except ValueError:
        validity = None

    se = None
    if with_se and result.k >= 2 and bench is not None:
        t0 = time.monotonic()
        se = scenario_effectiveness(problem, scenario_set, result, gap,
                                    gap_tol, workers, store=store)
        timings["se_seconds"] = time.monotonic() - t0

    wc = detect_worst_case(matrix, bound=worst_case_bound)
    captured = sum(1 for r in result.representatives if wc.flags[r])
    ver = {"per_scenario_value": gap.per_scenario,
           "mean_components": gap.mean_components}

    return EvaluationReport(
        spdd=spdd(pdd, scenario_set.probabilities, result),
        pddbi=validity,
        og_abs=gap.og_abs, og_pct=gap.og_pct,
        reduced_on_full=gap.reduced_on_full,
        benchmark_objective=gap.benchmark_objective,
        se=se, worst_case=wc, captured_worst_case=captured,
        verification_costs=ver, timings=timings)


def compare_methods(problem: TssoProblem, scenario_set: ScenarioSet,
                    methods, k: int, matrix: ProblemSpaceMatrix,
                    seed: int = 0, gap_tol: float = DEFAULT_GAP_TOL,
                    workers: int = 1, mu: float = 0.0,
                    worst_case_bound: float = 2.0,
                    benchmark_time_limit: float | None = None):
    """Run every requested reduction method at the same K and score it.

    ``matrix`` is the projection of ``scenario_set``; the worst-case flags
    of every row and the pdsr distances come from it.  Returns (rows,
    timings): ``rows`` hold only deterministic fields (one per method plus
    a benchmark row); wall-clock timings are keyed by method in the second
    mapping.  A failing method yields a row marked failed instead of
    aborting the comparison.
    """
    from .baselines import run_baseline
    from .clustering import compute_pdd, solve_clustering

    timings: dict[str, dict] = {}
    rows: list[dict] = []
    gamma = scenario_set.probabilities

    wc = detect_worst_case(matrix, bound=worst_case_bound)
    flagged = wc.flagged_indices()

    t0 = time.monotonic()
    bench = _benchmark(problem, scenario_set, gap_tol, benchmark_time_limit)
    bench_seconds = time.monotonic() - t0

    bench_row = {"method": "benchmark", "status": "ok", "k": len(scenario_set),
                 "kappa": len(flagged), "og_pct": 0.0 if bench else None,
                 "og_abs": 0.0 if bench else None,
                 "objective_on_full": bench[1] if bench else None,
                 "representatives": list(range(len(scenario_set)))}
    # each scenario is compiled once, and a decision two reductions (or a
    # reduction and the benchmark) share is verified once
    store = VerificationStore()
    if bench:
        _, means = _verified(problem, bench[0], scenario_set, gap_tol, workers,
                             store)
        bench_row["mean_components"] = means
        bench_row["first_stage"] = problem.first_stage_summary(bench[0])
    rows.append(bench_row)
    timings["benchmark"] = {"solve_seconds": bench_seconds}

    # methods that pick the same reduction share one solve and verification
    gaps: dict[tuple, GapOutcome] = {}
    for name in methods:
        row = {"method": name, "k": k}
        tm: dict[str, float] = {}
        try:
            t0 = time.monotonic()
            if name == "pdsr":
                pdd = compute_pdd(matrix, mu=mu, scenario_set=scenario_set)
                result = solve_clustering(pdd, gamma, fixed_k=k, gap_tol=gap_tol)
            else:
                result = run_baseline(name, scenario_set, k, seed=seed)
            tm["clustering_seconds"] = time.monotonic() - t0

            t0 = time.monotonic()
            key = (tuple(result.representatives),
                   tuple(result.weights[r] for r in result.representatives))
            if key not in gaps:
                gaps[key] = optimality_gap(problem, scenario_set, result,
                                           gap_tol=gap_tol, workers=workers,
                                           benchmark=bench, store=store)
            gap = gaps[key]
            tm["evaluation_seconds"] = time.monotonic() - t0
            row.update({
                "status": "ok",
                "representatives": result.representatives,
                "kappa": sum(1 for r in result.representatives if wc.flags[r]),
                "og_pct": gap.og_pct, "og_abs": gap.og_abs,
                "objective_on_full": gap.reduced_on_full,
                "mean_components": gap.mean_components,
                "first_stage": problem.first_stage_summary(gap.decision),
            })
        except Exception as exc:  # per-method isolation, row marked failed
            row.update({"status": f"failed: {exc}"})
        rows.append(row)
        timings[name] = tm
    return rows, timings

