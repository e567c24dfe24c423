"""Reduction-quality indices and the method-comparison harness.

Ex-ante indices (within-cluster distance sum, cluster-validity index; they
live in :mod:`pdsr.clustering`, beside the clustering they score) judge a
reduction before any re-optimization; ex-post indices (optimality gap,
per-representative effectiveness) measure the loss actually incurred by
dispatching on the reduced set and verifying against the full one.  A
command solves all its decisions first, then verifies them together in one
scenario-by-scenario pass (:func:`verification_costs`).

The decisions come from stochastic programs: the full-set benchmark, each
reduced program and each drop-one program.  Each is solved once for a
:class:`~pdsr.projection.SolveRecord`, which names a program by its
scenario indices and weights; the CLI keeps that record beside ``F.csv``,
so ``compare`` after ``evaluate`` solves neither the benchmark nor a
reduction ``evaluate`` solved.  A benchmark solved under a time limit is
neither looked up nor recorded: it skips the root step and depends on wall
time.  Verification outcomes are not recorded either: a scenario's program
solves a command's decisions warm, one after another, so the last bits of
an outcome depend on the other decisions of the command.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .baselines import run_baseline
from .clustering import (PddMatrix, ReductionResult, compute_pdd, pddbi,
                         solve_clustering, spdd)
from .errors import PdsrError
from .milp import DEFAULT_GAP_TOL, GAP_LIMIT
from .parallel import pmap
from .projection import ProblemSpaceMatrix, SolveRecord, solve_benchmark
from .scenarios import ScenarioSet
from .tsso import (FirstStageDecision, TssoProblem,
                   evaluate_with_fixed_first_stage, solve_stochastic)


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


def verification_costs(problem: TssoProblem, decisions,
                       scenario_set: ScenarioSet,
                       bench_obj: float | None = None,
                       gap_tol: float = DEFAULT_GAP_TOL,
                       workers: int = 1) -> list:
    """Per decision, its :class:`GapOutcome` on the full set against
    ``bench_obj`` (None: not computed), or the :class:`PdsrError` it met on
    its lowest-index failing scenario; a decision repeated by value is
    solved once and shares its first appearance's outcome.  One task per
    scenario compiles its program, solves the decisions on it in list order
    (warm from the last basis) and drops it: ``workers`` programs are held
    at once, and each sees the same sequence whatever the worker count."""
    distinct = {}
    for d in decisions:
        distinct.setdefault(d.values.tobytes(), d)
    scenarios = scenario_set.scenarios

    def verify(j: int) -> list:
        model = problem.build_model([scenarios[j]], [1.0])
        out = []
        for d in distinct.values():
            try:
                out.append(evaluate_with_fixed_first_stage(
                    problem, d, scenarios[j], gap_tol=gap_tol,
                    with_components=True, model=model))
            except PdsrError as exc:   # no traceback, which would hold the program
                out.append(exc.with_traceback(None))
        return out

    columns = pmap(verify, range(len(scenarios)), workers)
    gamma = scenario_set.probabilities
    verified = {}
    for i, (key, d) in enumerate(distinct.items()):
        pairs = [col[i] for col in columns]
        failed = [p for p in pairs if isinstance(p, PdsrError)]
        if failed:
            verified[key] = failed[0]
            continue
        values = [float(v) for v, _ in pairs]
        means = {g: float(np.dot(gamma, [comp[g] for _, comp in pairs]))
                 for g in sorted(pairs[0][1])}
        on_full = float(np.dot(gamma, values))
        og_abs = None if bench_obj is None else on_full - bench_obj
        og_pct = (None if og_abs is None or abs(bench_obj) < 1e-6
                  else 100.0 * og_abs / bench_obj)
        verified[key] = GapOutcome(og_abs, og_pct, on_full, bench_obj, d,
                                   values, means)
    return [verified[d.values.tobytes()] for d in decisions]


def _raised(outcomes: list) -> list:
    """:func:`verification_costs` outcomes, the first failure raised."""
    for out in outcomes:
        if isinstance(out, PdsrError):
            raise out
    return outcomes


def _benchmark(problem: TssoProblem, scenario_set: ScenarioSet, gap_tol: float,
               time_limit: float | None, record: SolveRecord):
    """Full-set (decision, objective), or None when the time limit ends the
    solve (with or without an incumbent).  A solve without a time limit is
    looked up in, and added to, ``record``."""
    program = (range(len(scenario_set)), scenario_set.probabilities)
    zb = record.get(*program) if time_limit is None else None
    if zb is not None:
        return zb, zb.objective_at_source
    zb, bench_obj, sol = solve_benchmark(problem, scenario_set, gap_tol=gap_tol,
                                         time_limit=time_limit)
    if sol.status == GAP_LIMIT:
        return None
    if time_limit is None:
        record.put(*program, zb)
    return zb, bench_obj


def _reduced_decision(problem: TssoProblem, scenario_set: ScenarioSet,
                      result: ReductionResult, gap_tol: float,
                      record: SolveRecord,
                      drop: int | None = None) -> FirstStageDecision:
    """Decision of the program on the representatives of ``result`` with
    their weights; with ``drop``, on the others, weights renormalized.
    Looked up in ``record``, and added to it when solved here."""
    keep = [r for r in result.representatives if r != drop]
    weights = [result.weights[r] for r in keep]
    if drop is not None:
        mass = sum(weights)
        weights = [w / mass for w in weights]
    decision = record.get(keep, weights)
    if decision is None:
        decision = solve_stochastic(
            problem, [scenario_set.scenarios[r] for r in keep], weights,
            gap_tol=gap_tol)[0]
        record.put(keep, weights, decision)
    return decision


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
                       benchmark_time_limit: float | None = None,
                       record: SolveRecord | None = None) -> EvaluationReport:
    """Assemble the full evaluation report for one reduction.

    The scenario effectiveness (``se``) is None without ``with_se``, with
    one representative, or when the benchmark is not computed or its
    objective is too close to zero for a percent gap.  ``record`` holds
    programs solved before on ``scenario_set`` at ``gap_tol`` (default:
    none) and gains those solved here; it changes what is solved, never a
    result."""
    record = SolveRecord() if record is None else record
    timings = {}
    t0 = time.monotonic()
    bench = _benchmark(problem, scenario_set, gap_tol, benchmark_time_limit,
                       record)
    timings["benchmark_seconds"] = time.monotonic() - t0
    bench_obj = float(bench[1]) if bench else None

    t0 = time.monotonic()
    reps = result.representatives
    with_se = (with_se and result.k >= 2 and bench_obj is not None
               and abs(bench_obj) >= 1e-6)
    decisions = [_reduced_decision(problem, scenario_set, result, gap_tol,
                                   record, drop)
                 for drop in [None, *(reps if with_se else [])]]
    timings["reduction_seconds"] = time.monotonic() - t0

    t0 = time.monotonic()
    gap, *drops = _raised(verification_costs(problem, decisions, scenario_set,
                                             bench_obj, gap_tol, workers))
    timings["verification_seconds"] = time.monotonic() - t0
    se = ({r: out.og_pct - gap.og_pct for r, out in zip(reps, drops)}
          if with_se else None)

    try:
        validity = pddbi(pdd, scenario_set.probabilities, result)
    except ValueError:
        validity = None

    wc = detect_worst_case(matrix, bound=worst_case_bound)
    return EvaluationReport(
        spdd=spdd(pdd, scenario_set.probabilities, result),
        pddbi=validity,
        og_abs=gap.og_abs, og_pct=gap.og_pct,
        reduced_on_full=gap.reduced_on_full,
        benchmark_objective=gap.benchmark_objective,
        se=se, worst_case=wc,
        captured_worst_case=sum(1 for r in reps if wc.flags[r]),
        verification_costs={"per_scenario_value": gap.per_scenario,
                            "mean_components": gap.mean_components},
        timings=timings)


def compare_methods(problem: TssoProblem, scenario_set: ScenarioSet,
                    methods, k: int, matrix: ProblemSpaceMatrix,
                    seed: int = 0, gap_tol: float = DEFAULT_GAP_TOL,
                    workers: int = 1, mu: float = 0.0,
                    worst_case_bound: float = 2.0,
                    benchmark_time_limit: float | None = None,
                    record: SolveRecord | None = None):
    """Run every requested reduction method at the same K and score it.

    ``matrix`` is the projection of ``scenario_set``; the worst-case flags
    of every row and the pdsr distances come from it.  Returns (rows,
    timings): ``rows`` hold only deterministic fields (one per method plus
    a benchmark row); wall-clock timings are keyed by method in the second
    mapping.  A method whose reduction, solve or verification fails yields
    a row marked failed instead of aborting the comparison.  ``record`` is
    as for :func:`evaluate_reduction`; through it, methods that pick the
    same reduction share one solve.  Every decision is verified on one
    warm program per scenario after the decisions before it
    (:func:`verification_costs`), so a row's last bits depend on the
    method list, not on its own decision alone; its values agree within
    ``gap_tol``.
    """
    record = SolveRecord() if record is None else record
    gamma = scenario_set.probabilities
    wc = detect_worst_case(matrix, bound=worst_case_bound)

    t0 = time.monotonic()
    bench = _benchmark(problem, scenario_set, gap_tol, benchmark_time_limit,
                       record)
    timings = {"benchmark": {"solve_seconds": time.monotonic() - t0}}

    bench_row = {"method": "benchmark", "status": "ok", "k": len(scenario_set),
                 "kappa": len(wc.flagged_indices()),
                 "og_pct": 0.0 if bench else None,
                 "og_abs": 0.0 if bench else None,
                 "objective_on_full": bench[1] if bench else None,
                 "representatives": list(range(len(scenario_set)))}
    rows = [bench_row]

    reduced = []      # (row, representatives, decision) awaiting verification
    for name in methods:
        row, tm = {"method": name, "k": k}, {}
        rows.append(row)
        timings[name] = tm
        try:
            t0 = time.monotonic()
            if name == "pdsr":
                pdd = compute_pdd(matrix, mu=mu, scenario_set=scenario_set)
                result = solve_clustering(pdd, gamma, fixed_k=k, gap_tol=gap_tol)
            else:
                result = run_baseline(name, scenario_set, k, seed=seed)
            tm["clustering_seconds"] = time.monotonic() - t0
            t0 = time.monotonic()
            decision = _reduced_decision(problem, scenario_set, result,
                                         gap_tol, record)
            tm["reduction_seconds"] = time.monotonic() - t0
            reduced.append((row, result.representatives, decision))
        except Exception as exc:  # per-method isolation, row marked failed
            row["status"] = f"failed: {exc}"

    t0 = time.monotonic()
    checked = [bench[0]] if bench else []
    outcomes = verification_costs(
        problem, checked + [z for _, _, z in reduced], scenario_set,
        float(bench[1]) if bench else None, gap_tol, workers)
    if bench:   # a benchmark that cannot be verified fails the comparison
        bench_row["mean_components"] = _raised(outcomes[:1])[0].mean_components
        bench_row["first_stage"] = problem.first_stage_summary(bench[0])
    for (row, reps, _), gap in zip(reduced, outcomes[len(checked):]):
        if isinstance(gap, PdsrError):
            row["status"] = f"failed: {gap}"
            continue
        row.update({
            "status": "ok",
            "representatives": reps,
            "kappa": sum(1 for r in reps if wc.flags[r]),
            "og_pct": gap.og_pct, "og_abs": gap.og_abs,
            "objective_on_full": gap.reduced_on_full,
            "mean_components": gap.mean_components,
            "first_stage": problem.first_stage_summary(gap.decision),
        })
    timings["verification"] = {"seconds": time.monotonic() - t0}
    return rows, timings
