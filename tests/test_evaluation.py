"""Evaluation indices: hand-computed values, identities, detection rules."""

import numpy as np
import pytest

from oracles import (bad_scenario_ids, identity_reduction, reduced_gap,
                     scenario_index)
from pdsr.adn import AdnProblem, make_desk_instance
from pdsr.clustering import PddMatrix, ReductionResult, compute_pdd, solve_clustering
from pdsr.errors import RecourseError
from pdsr.evaluation import (compare_methods, detect_worst_case,
                             evaluate_reduction, pddbi, spdd,
                             verification_costs)
from pdsr.milp import INFEASIBLE, Solution
from pdsr.projection import (ProblemSpaceMatrix, SolveRecord,
                             build_problem_space_matrix, solve_benchmark)
from pdsr.scenarios import ScenarioSet
from pdsr.uc import UcProblem, make_uc_desk_instance

GAP = 1e-4


def reduction(reps, assignment, gamma):
    weights = {r: float(sum(gamma[i] for i, rr in assignment.items() if rr == r))
               for r in reps}
    return ReductionResult(representatives=sorted(reps), assignment=assignment,
                           weights=weights)


def test_spdd_identity_reduction_zero():
    d = PddMatrix(values=np.array([[0.0, 2.0], [2.0, 0.0]]))
    gamma = np.array([0.5, 0.5])
    assert spdd(d, gamma, identity_reduction(gamma)) == 0.0


def test_spdd_matches_solver_objective():
    rng = np.random.default_rng(0)
    m = rng.uniform(0.0, 5.0, (6, 6))
    d = PddMatrix(values=(m + m.T) * 0.5)
    np.fill_diagonal(d.values, 0.0)
    gamma = np.full(6, 1 / 6)
    result = solve_clustering(d, gamma, fixed_k=2)
    assert spdd(d, gamma, result) == pytest.approx(result.spdd, abs=1e-9)
    assert spdd(d, gamma, result) == pytest.approx(result.objective, abs=1e-6)


def test_pddbi_hand_computed():
    # clusters {0,1} rep 0 and {2,3} rep 2; d(0,1)=2, d(2,3)=4, d(0,2)=10
    d = np.zeros((4, 4))
    d[0, 1] = d[1, 0] = 2.0
    d[2, 3] = d[3, 2] = 4.0
    d[0, 2] = d[2, 0] = 10.0
    d[0, 3] = d[3, 0] = 11.0
    d[1, 2] = d[2, 1] = 11.0
    d[1, 3] = d[3, 1] = 12.0
    gamma = np.full(4, 0.25)
    red = reduction([0, 2], {0: 0, 1: 0, 2: 2, 3: 2}, gamma)
    # D0 = 0.5*2 = 1, D2 = 0.5*4 = 2, separation d(0,2)=10 -> (1+2)/10 each
    assert pddbi(PddMatrix(values=d), gamma, red) == pytest.approx(0.3)


def test_pddbi_vanishes_with_separation():
    d = np.zeros((4, 4))
    d[0, 1] = d[1, 0] = 1.0
    d[2, 3] = d[3, 2] = 1.0
    gamma = np.full(4, 0.25)
    red = reduction([0, 2], {0: 0, 1: 0, 2: 2, 3: 2}, gamma)
    values = []
    for sep in (10.0, 1e3, 1e6):
        d2 = d.copy()
        for i in (0, 1):
            for j in (2, 3):
                d2[i, j] = d2[j, i] = sep
        values.append(pddbi(PddMatrix(values=d2), gamma, red))
    assert values[0] > values[1] > values[2]
    assert values[2] == pytest.approx(0.0, abs=1e-5)


def test_pddbi_random_recomputation():
    rng = np.random.default_rng(1)
    m = rng.uniform(0.5, 5.0, (5, 5))
    d = (m + m.T) * 0.5
    np.fill_diagonal(d, 0.0)
    gamma = rng.uniform(0.1, 1.0, 5)
    gamma /= gamma.sum()
    red = reduction([0, 3], {0: 0, 1: 0, 2: 0, 3: 3, 4: 3}, gamma)
    expected_D = {}
    for r, members in ((0, [0, 1, 2]), (3, [3, 4])):
        omega = sum(gamma[i] for i in members)
        expected_D[r] = sum(gamma[i] / omega * d[r, i] for i in members)
    expected = 0.5 * ((expected_D[0] + expected_D[3]) / d[0, 3]
                      + (expected_D[3] + expected_D[0]) / d[3, 0])
    assert pddbi(PddMatrix(values=d), gamma, red) == pytest.approx(expected)


def test_pddbi_requires_two_clusters():
    d = PddMatrix(values=np.zeros((2, 2)))
    gamma = np.array([0.5, 0.5])
    red = reduction([0], {0: 0, 1: 0}, gamma)
    with pytest.raises(ValueError):
        pddbi(d, gamma, red)


def test_detect_worst_case_example():
    # column sums [1, 1.1, 1.2, 10]: first diffs [0.1, 0.1, 8.8],
    # second diffs [0, 8.7], scaled by the median first diff [0, 87] -> only
    # the last scenario is flagged
    F = np.tile(np.array([0.25, 0.275, 0.3, 2.5]), (4, 1))
    rep = detect_worst_case(F, bound=2.0)
    assert rep.flags == [False, False, False, True]


def test_detect_worst_case_no_flags_when_flat():
    F = np.full((5, 5), 1.0)
    rep = detect_worst_case(F, bound=2.0)
    assert rep.flags == [False] * 5
    with pytest.raises(ValueError):
        detect_worst_case(np.ones((2, 2)))


def test_detect_worst_case_permutation_invariant():
    rng = np.random.default_rng(2)
    F = rng.uniform(1.0, 2.0, (8, 8))
    F[:, 5] += 40.0
    F[:, 2] += 42.0
    base = detect_worst_case(F)
    perm = rng.permutation(8)
    rep = detect_worst_case(F[np.ix_(perm, perm)])
    assert [rep.flags[i] for i in np.argsort(perm)] == base.flags
    assert set(np.flatnonzero(base.flags)) == {2, 5}


@pytest.fixture(scope="module")
def desk():
    config, ss = make_desk_instance(seed=21, n_scenarios=10, t_steps=12,
                                    buses=5, bad_fraction=0.1)
    problem = AdnProblem(config, ss.source_names)
    matrix = build_problem_space_matrix(problem, ss, workers=2)
    zb, ob, _ = solve_benchmark(problem, ss)
    return problem, ss, matrix, (zb, ob)


def test_og_identity_reduction_near_zero(desk):
    problem, ss, matrix, bench = desk
    red = identity_reduction(ss.probabilities)
    out = reduced_gap(problem, ss, red, workers=2, benchmark=bench)
    assert abs(out.og_pct) <= 2 * GAP * 100.0


def test_og_nonnegative_up_to_gap(desk):
    problem, ss, matrix, bench = desk
    pdd = compute_pdd(matrix)
    red = solve_clustering(pdd, ss.probabilities, fixed_k=3)
    out = reduced_gap(problem, ss, red, workers=2, benchmark=bench)
    assert out.og_abs >= -2 * GAP * abs(bench[1])
    assert out.reduced_on_full == pytest.approx(
        float(np.dot(ss.probabilities, out.per_scenario)), abs=1e-9)


def test_og_without_benchmark_marks_not_computed(desk):
    problem, ss, matrix, _ = desk
    red = identity_reduction(ss.probabilities)
    out = reduced_gap(problem, ss, red, workers=2, benchmark=None)
    assert out.og_pct is None and out.og_abs is None
    assert np.isfinite(out.reduced_on_full)


def test_scenario_effectiveness_values(desk):
    problem, ss, matrix, bench = desk
    pdd = compute_pdd(matrix)
    red = solve_clustering(pdd, ss.probabilities, fixed_k=3)
    base = evaluate_reduction(problem, ss, red, matrix, pdd, workers=2)
    se = base.se
    assert set(se) == set(red.representatives)
    drop = red.representatives[0]
    keep = [r for r in red.representatives if r != drop]
    mass = sum(red.weights[r] for r in keep)
    from pdsr.tsso import solve_stochastic, evaluate_with_fixed_first_stage
    z, _, _ = solve_stochastic(problem, [ss.scenarios[r] for r in keep],
                               [red.weights[r] / mass for r in keep])
    vals = [evaluate_with_fixed_first_stage(problem, z, s) for s in ss.scenarios]
    og_drop = 100.0 * (float(np.dot(ss.probabilities, vals)) - bench[1]) / bench[1]
    assert se[drop] == pytest.approx(og_drop - base.og_pct, abs=1e-6)


def test_scenario_effectiveness_definition_arithmetic():
    # removal gap minus base gap: 0.42% - 0.09% = 0.33%
    og_without, og_base = 0.42, 0.09
    assert og_without - og_base == pytest.approx(0.33)


def test_bad_scenario_representative_has_largest_effectiveness():
    # constructed instance with one dominant worst-case cluster: nine
    # near-identical ordinary scenarios plus one excursion past the
    # import + storage cliff; dropping the excursion's representative
    # must degrade the gap more than dropping any interchangeable one
    from pdsr.scenarios import Scenario, ScenarioSet

    config, base_set = make_desk_instance(seed=30, n_scenarios=4, t_steps=12,
                                          buses=5, bad_fraction=0.0)
    problem = AdnProblem(config, base_set.source_names)
    base = base_set.scenarios[0].values
    rng = np.random.default_rng(1)
    scens = []
    for i in range(9):
        values = base.copy()
        values[2:4] = np.maximum(values[2:4] + rng.normal(0, 0.01, values[2:4].shape), 0.02)
        scens.append(Scenario(f"n{i}", values))
    spike = base.copy()
    for t in (7, 8, 9):
        spike[2, t] += 0.45
        spike[3, t] += 0.45
        spike[0, t] = max(spike[0, t] - 0.05, 0.02)
    scens.append(Scenario("x_bad", spike))
    ss = ScenarioSet(tuple(scens), np.full(10, 0.1), base_set.source_names)

    matrix = build_problem_space_matrix(problem, ss, workers=2)
    pdd = compute_pdd(matrix)
    red = solve_clustering(pdd, ss.probabilities, fixed_k=3)
    assert 9 in red.representatives          # the excursion is isolated
    se = evaluate_reduction(problem, ss, red, matrix, pdd, workers=2).se
    assert max(se, key=se.get) == 9, se


def test_scenario_effectiveness_requires_k2(desk):
    problem, ss, matrix, _ = desk
    red = reduction([0], {i: 0 for i in range(len(ss))}, ss.probabilities)
    report = evaluate_reduction(problem, ss, red, matrix, compute_pdd(matrix),
                                workers=2)
    assert report.se is None
    assert report.og_pct is not None


def test_scenario_effectiveness_requires_percent_gap(desk, monkeypatch):
    # a benchmark objective of zero leaves no percent gap to compare with:
    # the report says so, as it does for a benchmark cut short by its time
    # limit, instead of failing
    import pdsr.evaluation
    problem, ss, matrix, _ = desk
    red = reduction([0, 1], {i: i % 2 for i in range(len(ss))}, ss.probabilities)
    solve = pdsr.evaluation.solve_benchmark

    def zero_objective(*args, **kwargs):
        zb, _, sol = solve(*args, **kwargs)
        return zb, 0.0, sol

    monkeypatch.setattr(pdsr.evaluation, "solve_benchmark", zero_objective)
    report = evaluate_reduction(problem, ss, red, matrix, compute_pdd(matrix),
                                workers=2)
    assert report.benchmark_objective == 0.0
    assert report.og_pct is None and report.se is None
    assert report.og_abs == report.reduced_on_full


def test_evaluate_reduction_calls_module_scenario_effectiveness(desk,
                                                                 monkeypatch):
    # the reduced decision and then the drop-one decisions are verified in
    # one pass through the public module binding ``verification_costs``,
    # the one an outside tracer or profiler replaces, and the scenario
    # effectiveness comes from its outcomes
    import dataclasses
    import pdsr.evaluation
    from pdsr.tsso import solve_stochastic
    problem, ss, matrix, _ = desk
    pdd = compute_pdd(matrix)
    red = solve_clustering(pdd, ss.probabilities, fixed_k=3)
    reps = red.representatives
    calls = []
    verify = pdsr.evaluation.verification_costs

    def counted(problem, decisions, scenario_set, bench_obj, gap_tol,
                workers):
        calls.append(decisions)
        out = verify(problem, decisions, scenario_set, bench_obj, gap_tol,
                     workers)
        return [dataclasses.replace(o, og_pct=float(i))
                for i, o in enumerate(out)]

    monkeypatch.setattr(pdsr.evaluation, "verification_costs", counted)
    report = evaluate_reduction(problem, ss, red, matrix, pdd, workers=2)
    assert len(calls) == 1
    expected = [solve_stochastic(problem, [ss.scenarios[r] for r in reps],
                                 [red.weights[r] for r in reps])[0]]
    for drop in reps:
        keep = [r for r in reps if r != drop]
        mass = sum(red.weights[r] for r in keep)
        expected.append(solve_stochastic(
            problem, [ss.scenarios[r] for r in keep],
            [red.weights[r] / mass for r in keep])[0])
    assert [d.values.tobytes() for d in calls[0]] == \
        [d.values.tobytes() for d in expected]
    assert report.og_pct == 0.0
    assert report.se == {r: float(i + 1) for i, r in enumerate(reps)}


def test_mean_components_weighted_by_probability():
    # with non-uniform probabilities the objective slices must still add
    # up to the full-set objective of the reduced decision
    config, base = make_uc_desk_instance(seed=0, n_scenarios=6, t_steps=6)
    p = np.array([0.4, 0.05, 0.05, 0.2, 0.2, 0.1])
    ss = ScenarioSet(base.scenarios, p, base.source_names, base.source_roles)
    problem = UcProblem(config, ss.source_names)
    red = reduction([0, 3], {0: 0, 1: 0, 2: 0, 3: 3, 4: 3, 5: 3}, p)
    out = reduced_gap(problem, ss, red)
    total = sum(out.mean_components.values())
    assert abs(total - out.reduced_on_full) <= 1e-9 * abs(out.reduced_on_full)


def test_duplicate_representative_has_negligible_effectiveness(desk):
    # two identical scenarios as representatives: dropping one changes
    # nothing but the weights, which renormalization restores
    problem, ss, matrix, bench = desk
    from pdsr.scenarios import Scenario, ScenarioSet
    twin = Scenario("twin", ss.scenarios[0].values.copy())
    bigger = ScenarioSet(ss.scenarios + (twin,),
                         np.full(len(ss) + 1, 1.0 / (len(ss) + 1)),
                         ss.source_names, ss.source_roles)
    problem2 = AdnProblem(problem.config, bigger.source_names)
    n = len(bigger)
    gamma = bigger.probabilities
    assignment = {i: 0 for i in range(n)}
    assignment[n - 1] = n - 1
    assignment[1] = n - 1
    red = reduction([0, n - 1], assignment, gamma)
    matrix2 = build_problem_space_matrix(problem2, bigger, workers=2)
    se = evaluate_reduction(problem2, bigger, red, matrix2,
                            compute_pdd(matrix2), workers=2).se
    # scenario 0 and its twin are interchangeable representatives
    assert abs(se[0]) <= 0.3 and abs(se[n - 1]) <= 0.3


def test_eq8_style_upper_bound(desk):
    # computable optimality-gap bound from cross evaluations
    problem, ss, matrix, bench = desk
    from pdsr.tsso import evaluate_with_fixed_first_stage
    pdd = compute_pdd(matrix)
    red = solve_clustering(pdd, ss.probabilities, fixed_k=3)
    out = reduced_gap(problem, ss, red, workers=2, benchmark=bench)
    zb = bench[0]
    gamma = ss.probabilities
    vz = out.per_scenario
    vb = [evaluate_with_fixed_first_stage(problem, zb, s) for s in ss.scenarios]
    bound = 0.0
    for i, rep in red.assignment.items():
        bound += gamma[i] * (abs(vz[i] - vz[red.assignment[i]])
                             + abs(vb[i] - vb[red.assignment[i]]))
    slack = 4 * GAP * abs(bench[1])
    assert out.og_abs <= bound + slack


def test_worst_case_flags_on_desk_instance(desk):
    problem, ss, matrix, _ = desk
    rep = detect_worst_case(matrix)
    bad = [scenario_index(ss, b) for b in bad_scenario_ids(ss)]
    assert set(bad) <= set(rep.flagged_indices())


def test_verification_costs_match_independent_loop(desk):
    problem, ss, matrix, bench = desk
    from pdsr.tsso import evaluate_with_fixed_first_stage
    pdd = compute_pdd(matrix)
    red = solve_clustering(pdd, ss.probabilities, fixed_k=3)
    report = evaluate_reduction(problem, ss, red, matrix, pdd, workers=2,
                                with_se=False)
    gap = reduced_gap(problem, ss, red, workers=2, benchmark=bench)
    pairs = [evaluate_with_fixed_first_stage(problem, gap.decision, s,
                                             with_components=True)
             for s in ss.scenarios]
    groups = sorted(pairs[0][1])
    assert report.verification_costs == {
        "per_scenario_value": [float(v) for v, _ in pairs],
        "mean_components": {g: float(np.dot(ss.probabilities,
                                            [c[g] for _, c in pairs]))
                            for g in groups}}
    assert gap.mean_components == report.verification_costs["mean_components"]


def test_failed_verification_names_its_scenario(desk, monkeypatch):
    import pdsr.tsso
    problem, ss, matrix, _ = desk
    monkeypatch.setattr(pdsr.tsso, "solve_milp", lambda *args, **kwargs:
                        Solution(INFEASIBLE, np.inf, None))
    decision = matrix.decisions[2]
    [err] = verification_costs(problem, [decision], ss)
    assert isinstance(err, RecourseError)
    assert "source scenario 2" in str(err)
    assert f"on scenario {ss.scenarios[0].id!r}" in str(err)


def test_store_shared_by_more_worker_threads_than_cores(desk, monkeypatch):
    # worker threads share one verification pass; with frequent thread
    # switches each scenario is still compiled once and the report matches
    # one worker's
    import sys
    problem, ss, matrix, _ = desk
    pdd = compute_pdd(matrix)
    red = solve_clustering(pdd, ss.probabilities, fixed_k=3)
    compiles = []
    build = problem.build_model

    def compiled(*args, **kwargs):
        compiles.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(problem, "build_model", compiled)
    one = evaluate_reduction(problem, ss, red, matrix, pdd, workers=1)
    compiles.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = evaluate_reduction(problem, ss, red, matrix, pdd, workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert len(compiles) == len(ss) + red.k + 2
    assert many.to_json_dict() == one.to_json_dict()


def test_each_decision_solved_and_verified_once(monkeypatch):
    # every distinct reduced decision is solved once and verified once per
    # scenario, and the full-set benchmark is solved once per command
    import pdsr.tsso
    config, ss = make_desk_instance(seed=3, n_scenarios=6, t_steps=12,
                                    buses=5, bad_fraction=0.2)
    problem = AdnProblem(config, ss.source_names)
    matrix = build_problem_space_matrix(problem, ss)
    pdd = compute_pdd(matrix)
    red = solve_clustering(pdd, ss.probabilities, fixed_k=4)
    methods = ["pdsr", "km_e", "kd_e", "hc", "ws"]

    calls = []
    solve = pdsr.tsso.solve_milp

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(pdsr.tsso, "solve_milp", counted)
    # every program compiled: the benchmark, each reduced program and, once
    # per command, each scenario's program that decisions are verified on
    compiles = []
    build = problem.build_model

    def compiled(*args, **kwargs):
        compiles.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(problem, "build_model", compiled)
    n, k, m = len(ss), red.k, len(methods)

    evaluate_reduction(problem, ss, red, matrix, pdd)
    assert len(calls) == (k + 1) * (n + 1) + 1 == 36
    assert len(compiles) == n + k + 2 == 12
    calls.clear()
    compiles.clear()
    rows, _ = compare_methods(problem, ss, methods, k, matrix=matrix)
    assert [r["status"] for r in rows] == ["ok"] * (m + 1)
    # on this instance two methods pick the same reduction
    distinct = len({tuple(r["representatives"]) for r in rows[1:]})
    assert distinct < m
    assert len(calls) == (distinct + 1) * (n + 1)
    assert len(compiles) == 1 + distinct + n


def test_shared_record_skips_programs_solved_before(monkeypatch):
    # with the record evaluate_reduction filled, compare_methods solves
    # neither the benchmark nor pdsr's reduced program again, and its rows
    # equal those of a fresh comparison
    import pdsr.tsso
    config, ss = make_desk_instance(seed=3, n_scenarios=6, t_steps=12,
                                    buses=5, bad_fraction=0.2)
    problem = AdnProblem(config, ss.source_names)
    matrix = build_problem_space_matrix(problem, ss)
    pdd = compute_pdd(matrix)
    red = solve_clustering(pdd, ss.probabilities, fixed_k=4)
    methods = ["pdsr", "km_e", "kd_e", "hc", "ws"]
    calls, compiles = [], []
    solve, build = pdsr.tsso.solve_milp, problem.build_model
    monkeypatch.setattr(pdsr.tsso, "solve_milp",
                        lambda *a, **kw: calls.append(1) or solve(*a, **kw))
    monkeypatch.setattr(problem, "build_model",
                        lambda *a, **kw: compiles.append(1) or build(*a, **kw))

    fresh, _ = compare_methods(problem, ss, methods, red.k, matrix=matrix)
    counts = len(calls), len(compiles)
    record = SolveRecord()
    evaluate_reduction(problem, ss, red, matrix, pdd, record=record)
    assert len(record.programs) == red.k + 2
    calls.clear()
    compiles.clear()
    rows, _ = compare_methods(problem, ss, methods, red.k, matrix=matrix,
                              record=record)
    assert rows == fresh
    assert (len(calls), len(compiles)) == (counts[0] - 2, counts[1] - 2)


def test_compare_verifies_each_distinct_decision_once(monkeypatch):
    # on this instance kd_e and hc pick different representatives whose
    # reduced programs reach one decision: it is verified once
    import pdsr.evaluation
    cfg, ss = make_uc_desk_instance(seed=5, n_scenarios=8, t_steps=6)
    problem = UcProblem(cfg, ss.source_names)
    matrix = build_problem_space_matrix(problem, ss)

    evaluated = []
    evaluate = pdsr.evaluation.evaluate_with_fixed_first_stage

    def counted(problem, decision, scenario, **kwargs):
        evaluated.append((decision.values.tobytes(), scenario.id))
        return evaluate(problem, decision, scenario, **kwargs)

    monkeypatch.setattr(pdsr.evaluation, "evaluate_with_fixed_first_stage",
                        counted)
    methods = ["pdsr", "km_e", "kd_e", "hc", "ws"]
    rows, _ = compare_methods(problem, ss, methods, 4, matrix=matrix)
    assert [r["status"] for r in rows] == ["ok"] * (len(methods) + 1)
    assert len(evaluated) == len(set(evaluated))
    decisions = {d for d, _ in evaluated}
    reductions = {tuple(r["representatives"]) for r in rows}
    assert len(decisions) < len(reductions)
    assert len(evaluated) == len(decisions) * len(ss)


def test_verification_holds_at_most_workers_programs(desk, monkeypatch):
    # each scenario's program is dropped once every decision is solved on
    # it, so no more single-scenario programs are alive at once than there
    # are workers
    import threading
    import weakref
    problem, ss, matrix, _ = desk
    pdd = compute_pdd(matrix)
    red = solve_clustering(pdd, ss.probabilities, fixed_k=3)
    lock = threading.Lock()
    live, peak = [0], [0]
    build = problem.build_model

    def released():
        with lock:
            live[0] -= 1

    def counted(scenarios, weights):
        model = build(scenarios, weights)
        if len(scenarios) == 1:
            with lock:
                live[0] += 1
                peak[0] = max(peak[0], live[0])
            weakref.finalize(model, released)
        return model

    monkeypatch.setattr(problem, "build_model", counted)
    evaluate_reduction(problem, ss, red, matrix, pdd, workers=2)
    assert 0 < peak[0] <= 2
    peak[0] = 0
    rows, _ = compare_methods(problem, ss, ["pdsr", "km_e", "kd_e", "hc", "ws"],
                              3, matrix=matrix, workers=2)
    assert [r["status"] for r in rows] == ["ok"] * 6
    assert 0 < peak[0] <= 2
    assert live[0] == 0


def test_failed_verification_fails_only_rows_sharing_its_decision(monkeypatch):
    # on this instance methods with different representatives (kd_e and
    # hc) reach one reduced decision; when that decision cannot be
    # verified, exactly their rows fail, with the error met on the
    # lowest-index failing scenario, and every other row is unchanged
    import pdsr.evaluation
    cfg, ss = make_uc_desk_instance(seed=5, n_scenarios=8, t_steps=6)
    problem = UcProblem(cfg, ss.source_names)
    matrix = build_problem_space_matrix(problem, ss)
    methods = ["pdsr", "km_e", "kd_e", "hc", "ws"]
    verify = pdsr.evaluation.verification_costs
    verified = []

    def recording(problem, decisions, *args):
        verified[:] = decisions
        return verify(problem, decisions, *args)

    monkeypatch.setattr(pdsr.evaluation, "verification_costs", recording)
    clean, _ = compare_methods(problem, ss, methods, 4, matrix=matrix)
    monkeypatch.undo()
    assert [r["status"] for r in clean] == ["ok"] * (len(methods) + 1)

    # the benchmark's decision is verified first, then one per method
    assert len(verified) == len(methods) + 1
    reduced = {m: z.values.tobytes() for m, z in zip(methods, verified[1:])}
    reps = {r["method"]: tuple(r["representatives"]) for r in clean[1:]}
    # the decision most methods reach, the first method's on a tie
    z = max(reduced.values(), key=list(reduced.values()).count)
    shared = {m for m in methods if reduced[m] == z}
    assert len({reps[m] for m in shared}) >= 2
    assert verified[0].values.tobytes() != z
    evaluate = pdsr.evaluation.evaluate_with_fixed_first_stage

    def failing(problem, decision, scenario, **kwargs):
        if (decision.values.tobytes() == z
                and scenario.id != ss.scenarios[0].id
                and scenario.id != ss.scenarios[1].id):
            raise RecourseError(f"injected failure on scenario {scenario.id!r}")
        return evaluate(problem, decision, scenario, **kwargs)

    monkeypatch.setattr(pdsr.evaluation, "evaluate_with_fixed_first_stage",
                        failing)
    tables = [compare_methods(problem, ss, methods, 4, matrix=matrix,
                              workers=w)[0] for w in (1, 2)]
    assert tables[0] == tables[1]
    status = f"failed: injected failure on scenario {ss.scenarios[2].id!r}"
    for got, want in zip(tables[0], clean):
        if got["method"] in shared:
            assert got == {"method": got["method"], "k": 4, "status": status}
        else:
            assert got == want
