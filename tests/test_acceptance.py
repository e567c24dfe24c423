"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The heavy fixtures (forty-scenario instances with
their projections and benchmarks) are shared across criteria.
"""

import contextlib
import time

import numpy as np
import pytest

from oracles import (bad_scenario_ids, brute_force_milp, enumerate_clustering,
                     enumerate_vertices_optimum, identity_reduction, random_lp,
                     random_milp, reduced_gap, solve_lp, source_index)
from pdsr.adn import AdnProblem, make_desk_instance
from pdsr.baselines import run_baseline
from pdsr.clustering import PddMatrix, compute_pdd, solve_clustering, sweep_beta
from pdsr.evaluation import detect_worst_case
from pdsr.milp import solve_milp
from pdsr.projection import build_problem_space_matrix, solve_benchmark
from pdsr.scenarios import Scenario, ScenarioSet
from pdsr.tsso import evaluate_with_fixed_first_stage
from pdsr.uc import UcProblem, make_uc_desk_instance

GAP = 1e-4
WORKERS = 2


@contextlib.contextmanager
def criterion(number, name, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {number} ({name}): FAIL "
              f"({time.monotonic() - start:.0f} s)")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its runtime budget: "
        f"{elapsed:.0f} s >= {budget_seconds} s")
    print(f"[ACCEPTANCE] criterion {number} ({name}): PASS ({elapsed:.0f} s)")


# -- shared heavy fixtures ---------------------------------------------------


@pytest.fixture(scope="session")
def adn40():
    """Ten seeded desk instances (N=40, 10% bad) with projection, flags,
    benchmark, and PDSR reductions for K in {2,4,6,8}; shared by the
    comparison and trend criteria."""
    out = []
    for seed in range(10):
        config, ss = make_desk_instance(seed=seed, n_scenarios=40, t_steps=12,
                                        buses=6, bad_fraction=0.1)
        problem = AdnProblem(config, ss.source_names)
        matrix = build_problem_space_matrix(problem, ss, workers=WORKERS,
                                            gap_tol=GAP)
        flags = detect_worst_case(matrix)
        zb, ob, _ = solve_benchmark(problem, ss, gap_tol=GAP)
        pdd = compute_pdd(matrix)
        gaps = {}
        reductions = {}
        for k in (2, 4, 6, 8):
            red = solve_clustering(pdd, ss.probabilities, fixed_k=k, gap_tol=GAP)
            reductions[k] = red
            gaps[k] = reduced_gap(problem, ss, red, gap_tol=GAP,
                                  workers=WORKERS, benchmark=(zb, ob))
        out.append({"seed": seed, "problem": problem, "set": ss,
                    "matrix": matrix, "flags": flags, "benchmark": (zb, ob),
                    "pdd": pdd, "reductions": reductions, "gaps": gaps})
    return out


# -- criterion 1: metric axioms ----------------------------------------------


def test_criterion_1_metric_axioms():
    with criterion(1, "metric axioms", 300):
        rng = np.random.default_rng(100)
        for trial in range(50):
            n = int(rng.integers(4, 7))
            buses = int(rng.integers(4, 7))
            t = int(rng.integers(8, 13))
            config, ss = make_desk_instance(seed=1000 + trial, n_scenarios=n,
                                            t_steps=t, buses=buses,
                                            bad_fraction=0.2)
            problem = AdnProblem(config, ss.source_names)
            matrix = build_problem_space_matrix(problem, ss, gap_tol=GAP)
            pdd = compute_pdd(matrix)
            d, F = pdd.values, matrix.values
            # C1 consistency: zero self-distance, exactly
            assert np.all(np.diag(d) == 0.0)
            # C2 symmetry: exact by construction
            assert np.array_equal(d, d.T)
            # C4 triangle bound from observed column maxima
            lam = 2.0 * np.abs(F).max(axis=0)
            for i in range(n):
                for j in range(n):
                    if i != j:
                        assert d[i, j] < lam[i] + lam[j]

        # C3 convergence, regularized metric: shrink one perturbation
        config, ss = make_desk_instance(seed=77, n_scenarios=4, t_steps=8,
                                        buses=4, bad_fraction=0.0)
        problem = AdnProblem(config, ss.source_names)
        base = ss.scenarios[0]
        price_row = source_index(ss, "price")
        load_row = source_index(ss, "load1")
        for mu in (0.5,):
            dist = []
            noise = None
            for delta in (1e-1, 1e-2, 1e-3, 1e-4):
                pert = base.values.copy()
                pert[price_row] += delta * 10.0
                pert[load_row] = np.maximum(pert[load_row] + delta * 0.1, 0.0)
                pair = ScenarioSet((base, Scenario("pert", pert)),
                                   np.array([0.5, 0.5]), ss.source_names,
                                   ss.source_roles)
                m2 = build_problem_space_matrix(problem, pair, gap_tol=GAP)
                pdd2 = compute_pdd(m2, mu=mu, scenario_set=pair)
                noise = 4.0 * GAP * max(1.0, float(np.abs(m2.values).max()))
                dist.append(pdd2.values[0, 1])
            assert all(b <= a + noise for a, b in zip(dist, dist[1:])), dist
            assert dist[-1] <= noise


# -- criterion 2: clustering exactness ----------------------------------------


def test_criterion_2_clustering_exactness():
    with criterion(2, "clustering exactness", 120):
        rng = np.random.default_rng(200)
        for trial in range(20):
            n = int(rng.integers(4, 11))
            m = rng.uniform(0.0, 10.0, size=(n, n))
            d = m + m.T
            np.fill_diagonal(d, 0.0)
            gamma = rng.uniform(0.2, 1.0, n)
            gamma = gamma / gamma.sum()
            pdd = PddMatrix(values=d)
            beta = float(rng.uniform(0.0, 6.0))
            got = solve_clustering(pdd, gamma, beta=beta, gap_tol=1e-9)
            want = enumerate_clustering(d, gamma, beta=beta)
            assert got.objective == pytest.approx(want, abs=1e-6, rel=1e-6)
            k = int(rng.integers(1, n + 1))
            got = solve_clustering(pdd, gamma, fixed_k=k, gap_tol=1e-9)
            want = enumerate_clustering(d, gamma, fixed_k=k)
            assert got.objective == pytest.approx(want, abs=1e-6, rel=1e-6)


# -- criterion 3: solver backend exactness ------------------------------------


def test_criterion_3_milp_backend_exactness():
    with criterion(3, "solver backend exactness", 120):
        rng = np.random.default_rng(300)
        for _ in range(20):
            model, binaries = random_milp(rng, max_binaries=12)
            sol = solve_milp(model, gap_tol=1e-7)
            want = brute_force_milp(model, binaries)
            if want == np.inf:
                assert sol.status == "infeasible"
            else:
                assert sol.objective == pytest.approx(want, abs=1e-6, rel=1e-6)
        checked = 0
        while checked < 20:
            model = random_lp(rng)
            sol = solve_lp(model)
            if sol.status != "optimal":
                continue
            want = enumerate_vertices_optimum(model)
            assert sol.objective == pytest.approx(want, abs=1e-7, rel=1e-7)
            checked += 1


# -- criterion 4: gap identity and computable bound ---------------------------


def test_criterion_4_og_identity_and_bound():
    with criterion(4, "gap identity and bound", 1200):
        config, ss = make_desk_instance(seed=4, n_scenarios=20, t_steps=12,
                                        buses=6, bad_fraction=0.1)
        problem = AdnProblem(config, ss.source_names)
        matrix = build_problem_space_matrix(problem, ss, workers=WORKERS,
                                            gap_tol=GAP)
        zb, ob, _ = solve_benchmark(problem, ss, gap_tol=GAP)
        bench = (zb, ob)

        identity = identity_reduction(ss.probabilities)
        out = reduced_gap(problem, ss, identity, gap_tol=GAP,
                          workers=WORKERS, benchmark=bench)
        assert abs(out.og_pct) <= 0.02

        vb = [evaluate_with_fixed_first_stage(problem, zb, s, gap_tol=GAP)
              for s in ss.scenarios]
        pdd = compute_pdd(matrix)
        slack = 4.0 * GAP * abs(ob)
        for k in (2, 4, 6):
            for method in ("pdsr", "km_e", "ws"):
                if method == "pdsr":
                    red = solve_clustering(pdd, ss.probabilities, fixed_k=k,
                                           gap_tol=GAP)
                else:
                    red = run_baseline(method, ss, k, seed=4)
                got = reduced_gap(problem, ss, red, gap_tol=GAP,
                                  workers=WORKERS, benchmark=bench)
                vz = got.per_scenario
                bound = sum(
                    ss.probabilities[i] * (abs(vz[i] - vz[r]) + abs(vb[i] - vb[r]))
                    for i, r in red.assignment.items())
                assert got.og_abs <= bound + slack, (k, method)


# -- criteria 5 and 6: comparison study and gap-vs-K trend ---------------------


def test_criterion_5_directional_comparison(adn40):
    with criterion(5, "directional method comparison", 7200):
        methods = ("km_e", "kd_e", "hc", "ws")
        og = {m: [] for m in methods}
        og["pdsr"] = []
        captured = {m: [] for m in methods}
        pdsr_captured = []
        for inst in adn40:
            problem, ss = inst["problem"], inst["set"]
            flags = inst["flags"].flags
            red = inst["reductions"][4]
            gap = inst["gaps"][4]
            og["pdsr"].append(gap.og_pct)
            pdsr_captured.append(sum(1 for r in red.representatives if flags[r]))
            for m in methods:
                base = run_baseline(m, ss, 4, seed=inst["seed"])
                out = reduced_gap(problem, ss, base, gap_tol=GAP,
                                  workers=WORKERS,
                                  benchmark=inst["benchmark"])
                og[m].append(out.og_pct)
                captured[m].append(sum(1 for r in base.representatives
                                       if flags[r]))
        means = {m: float(np.mean(v)) for m, v in og.items()}
        print(f"    mean og%: { {m: round(v, 3) for m, v in means.items()} }")
        print(f"    pdsr captured: {pdsr_captured}")
        # (a) problem-driven reduction has the strictly lowest mean gap
        for m in methods:
            assert means["pdsr"] < means[m], (m, means)
        # (b) worst-case capture: >=1 in >=8/10 for the problem-driven
        #     method, none in >=7/10 for each distribution-driven method
        assert sum(1 for c in pdsr_captured if c >= 1) >= 8, pdsr_captured
        for m in ("km_e", "kd_e", "hc"):
            assert sum(1 for c in captured[m] if c == 0) >= 7, (m, captured[m])
        # (c) problem-driven mean gap under one percent
        assert means["pdsr"] < 1.0, means


def test_criterion_6_og_vs_k_trend(adn40):
    with criterion(6, "gap non-increasing in K", 3600):
        good = 0
        chains = []
        for inst in adn40:
            chain = [inst["gaps"][k].og_pct for k in (2, 4, 6, 8)]
            chains.append([round(c, 3) for c in chain])
            if all(b <= a + 0.05 for a, b in zip(chain, chain[1:])):
                good += 1
        print(f"    chains: {chains}")
        assert good >= 8, chains


# -- criterion 7: commitment problem end to end --------------------------------


def test_criterion_7_uc_end_to_end():
    with criterion(7, "commitment problem end to end", 1800):
        pdsr_og, kme_og = [], []
        for seed in range(5):
            config, ss = make_uc_desk_instance(seed=seed, n_scenarios=20,
                                               t_steps=6)
            problem = UcProblem(config, ss.source_names)
            matrix = build_problem_space_matrix(problem, ss, workers=WORKERS,
                                                gap_tol=GAP)
            zb, ob, _ = solve_benchmark(problem, ss, gap_tol=GAP)
            pdd = compute_pdd(matrix)
            red = solve_clustering(pdd, ss.probabilities, fixed_k=3, gap_tol=GAP)
            out = reduced_gap(problem, ss, red, gap_tol=GAP, workers=WORKERS,
                              benchmark=(zb, ob))
            pdsr_og.append(out.og_pct)
            base = run_baseline("km_e", ss, 3, seed=seed)
            out_b = reduced_gap(problem, ss, base, gap_tol=GAP,
                                workers=WORKERS, benchmark=(zb, ob))
            kme_og.append(out_b.og_pct)
        print(f"    uc og%: pdsr {np.round(pdsr_og, 3)} km_e {np.round(kme_og, 3)}")
        assert all(v < 2.0 for v in pdsr_og), pdsr_og
        assert float(np.mean(pdsr_og)) < float(np.mean(kme_og)), (pdsr_og, kme_og)


# -- criterion 8: worker-count determinism -------------------------------------


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "worker-count determinism", 600):
        from pdsr.cli import main

        desk = tmp_path / "desk"
        assert main(["make-desk", "--problem", "adn", "--N", "6", "--T", "12",
                     "--buses", "5", "--seed", "12", "--out", str(desk)]) == 0
        blobs = []
        for workers in ("1", "8"):
            out = tmp_path / f"w{workers}"
            out.mkdir()
            args = ["--problem", "adn", "--config", str(desk / "config.json"),
                    "--scenarios", str(desk / "scenarios.csv"),
                    "--probabilities", str(desk / "probabilities.csv"),
                    "--out", str(out), "--workers", workers]
            assert main(["project", *args]) == 0
            assert main(["cluster", *args, "--K", "3"]) == 0
            blobs.append(((out / "F.csv").read_bytes(),
                          (out / "reduction.json").read_bytes()))
        assert blobs[0][0] == blobs[1][0], "F.csv differs across worker counts"
        assert blobs[0][1] == blobs[1][1], "reduction.json differs across workers"


# -- criterion 9: trade-off sweep behavior --------------------------------------


def test_criterion_9_beta_sweep():
    with criterion(9, "beta sweep spans and orders", 600):
        config, ss = make_desk_instance(seed=9, n_scenarios=10, t_steps=12,
                                        buses=5, bad_fraction=0.1)
        problem = AdnProblem(config, ss.source_names)
        matrix = build_problem_space_matrix(problem, ss, workers=WORKERS,
                                            gap_tol=GAP)
        pdd = compute_pdd(matrix)
        betas = [0.0] + list(np.geomspace(1e-2, 1e5, 10))
        rows = sweep_beta(pdd, ss.probabilities, betas, gap_tol=GAP)
        ks = [r["k"] for r in rows]
        spdds = [r["spdd"] for r in rows]
        print(f"    sweep K: {ks}")
        assert ks[0] == len(ss)          # beta = 0 keeps every scenario
        assert ks[-1] == 1               # large beta collapses to one
        assert all(b <= a for a, b in zip(ks, ks[1:]))
        assert all(b >= a - 1e-9 for a, b in zip(spdds, spdds[1:]))
