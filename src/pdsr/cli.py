"""Batch front door: project, cluster, sweep-beta, evaluate, compare.

Every command is a pure function of its flags and input files: identical
inputs give byte-identical primary outputs.  Wall-clock timings therefore
go to stdout and a ``*.timings.json`` sidecar, never into the primary
artifacts.  The projection cache (``F.csv`` + ``F.meta.json``) lives in the
output directory unless ``PDSR_CACHE_DIR`` overrides it.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .adn import AdnConfig, AdnProblem, make_desk_instance
from .clustering import compute_pdd, solve_clustering, sweep_beta, ReductionResult
from .errors import CacheError, ConfigError, PdsrError
from .evaluation import compare_methods, evaluate_reduction
from .milp import DEFAULT_GAP_TOL
from .projection import (build_problem_space_matrix, fingerprint, load_matrix,
                         save_matrix)
from .scenarios import load_scenarios, save_scenarios
from .uc import UcConfig, UcProblem, make_uc_desk_instance

METHODS = ("pdsr", "km_e", "kd_e", "hc", "ws")


def _json_dump(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_problem(args):
    with open(args.config) as fh:
        cfg_dict = json.load(fh)
    scenario_set = load_scenarios(args.scenarios, args.probabilities)
    if args.problem == "adn":
        problem = AdnProblem(AdnConfig.from_dict(cfg_dict), scenario_set.source_names)
    else:
        problem = UcProblem(UcConfig.from_dict(cfg_dict), scenario_set.source_names)
    return problem, scenario_set


def _cache_dir(args) -> Path:
    env = os.environ.get("PDSR_CACHE_DIR")
    base = Path(env) if env else Path(args.out)
    base.mkdir(parents=True, exist_ok=True)
    return base


def _ensure_matrix(args, problem, scenario_set):
    """Build or reuse the cached projection; returns (matrix, seconds, reused)."""
    cache = _cache_dir(args) / "F.csv"
    fp = fingerprint(problem, scenario_set, args.gap_tol)
    if cache.exists():
        try:
            matrix = load_matrix(cache, expected_fingerprint=fp)
            return matrix, 0.0, True
        except CacheError:
            pass  # stale or corrupt: rebuild below
    t0 = time.monotonic()
    matrix = build_problem_space_matrix(problem, scenario_set,
                                        workers=args.workers,
                                        gap_tol=args.gap_tol)
    seconds = time.monotonic() - t0
    save_matrix(matrix, cache)
    return matrix, seconds, False


def cmd_project(args) -> int:
    problem, scenario_set = _load_problem(args)
    matrix, seconds, reused = _ensure_matrix(args, problem, scenario_set)
    out = _cache_dir(args) / "F.csv"
    if reused:
        print(f"projection reused from cache: {out}")
    else:
        print(f"projection built in {seconds:.2f} s: {out}")
    return 0


def _reduction_path(args) -> Path:
    return Path(args.out) / "reduction.json"


def _check_k(k, scenario_set):
    """``--K`` cannot exceed N, which only the loaded scenario set knows."""
    if k is not None and k > len(scenario_set):
        raise ConfigError(f"--K {k} exceeds the number of scenarios "
                          f"({len(scenario_set)})")


def _check_worst_case_n(scenario_set):
    """``evaluate`` and ``compare`` end with worst-case detection, which
    needs N >= 3; checked before their first solve."""
    if len(scenario_set) < 3:
        raise ConfigError("worst-case detection needs at least 3 scenarios, "
                          f"the set has {len(scenario_set)}")


def cmd_cluster(args) -> int:
    problem, scenario_set = _load_problem(args)
    _check_k(args.K, scenario_set)
    matrix, tau_p, reused = _ensure_matrix(args, problem, scenario_set)
    pdd = compute_pdd(matrix, mu=args.mu, scenario_set=scenario_set)
    t0 = time.monotonic()
    result = solve_clustering(pdd, scenario_set.probabilities,
                              beta=args.beta, fixed_k=args.K,
                              gap_tol=args.gap_tol)
    tau_c = time.monotonic() - t0
    path = _reduction_path(args)
    with open(path, "w") as fh:
        fh.write(result.to_json())
    _json_dump(Path(args.out) / "reduction.timings.json",
               {"projection_seconds": tau_p, "clustering_seconds": tau_c,
                "projection_reused": reused})
    print(f"reduction K={result.k} spdd={result.spdd:.6g} -> {path} "
          f"(tau_c {tau_c:.2f} s)")
    return 0


def cmd_sweep_beta(args) -> int:
    problem, scenario_set = _load_problem(args)
    matrix, tau_p, _ = _ensure_matrix(args, problem, scenario_set)
    pdd = compute_pdd(matrix, mu=args.mu, scenario_set=scenario_set)
    t0 = time.monotonic()
    rows = sweep_beta(pdd, scenario_set.probabilities, args.betas,
                      gap_tol=args.gap_tol)
    tau_c = time.monotonic() - t0
    path = Path(args.out) / "sweep.csv"
    cols = ["beta", "k", "spdd", "pddbi", "reduction_degree",
            "k_normalized", "spdd_normalized", "pddbi_normalized"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for r in rows:
            writer.writerow(["" if r[c] is None else repr(r[c]) for c in cols])
    _json_dump(Path(args.out) / "sweep.timings.json",
               {"projection_seconds": tau_p, "sweep_seconds": tau_c})
    print(f"swept {len(rows)} beta values -> {path}")
    return 0


def _load_reduction(path, probabilities) -> ReductionResult:
    """Read a reduction file and check that it partitions the scenario set:
    every scenario 0..N-1 assigned, and weights equal to member masses."""
    with open(path) as fh:
        payload = json.load(fh)
    n = len(probabilities)
    try:
        result = ReductionResult.from_json_dict(payload)
        if sorted(result.assignment) != list(range(n)):
            raise ValueError(f"the assignment must cover scenarios 0..{n - 1} "
                             "exactly once")
        result.validate(probabilities)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"reduction {path} does not fit the scenario set: "
                          f"{exc}") from None
    return result


def cmd_evaluate(args) -> int:
    problem, scenario_set = _load_problem(args)
    _check_worst_case_n(scenario_set)
    result = _load_reduction(args.reduction, scenario_set.probabilities)
    matrix, tau_p, _ = _ensure_matrix(args, problem, scenario_set)
    pdd = compute_pdd(matrix, mu=args.mu, scenario_set=scenario_set)
    report = evaluate_reduction(problem, scenario_set, result, matrix, pdd,
                                gap_tol=args.gap_tol, workers=args.workers,
                                with_se=not args.no_se,
                                worst_case_bound=args.worst_case_bound,
                                benchmark_time_limit=args.benchmark_time_limit)
    path = Path(args.out) / "report.json"
    _json_dump(path, report.to_json_dict())
    timings = dict(report.timings)
    timings["projection_seconds"] = tau_p
    _json_dump(Path(args.out) / "report.timings.json", timings)
    og = "n/a" if report.og_pct is None else f"{report.og_pct:.4f}%"
    print(f"evaluation: og={og} spdd={report.spdd:.6g} "
          f"captured_worst_case={report.captured_worst_case} -> {path}")
    return 0


def cmd_compare(args) -> int:
    problem, scenario_set = _load_problem(args)
    _check_worst_case_n(scenario_set)
    _check_k(args.K, scenario_set)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise PdsrError(f"--methods {args.methods!r} names no method; "
                        f"choose from {METHODS}")
    for k, m in enumerate(methods):
        if m not in METHODS:
            raise PdsrError(f"unknown method {m!r}; choose from {METHODS}")
        if m in methods[:k]:
            raise PdsrError(f"--methods names {m!r} twice")
    matrix, tau_p, _ = _ensure_matrix(args, problem, scenario_set)
    rows, timings = compare_methods(problem, scenario_set, methods, args.K,
                                    matrix, seed=args.seed,
                                    gap_tol=args.gap_tol,
                                    workers=args.workers, mu=args.mu,
                                    worst_case_bound=args.worst_case_bound,
                                    benchmark_time_limit=args.benchmark_time_limit)
    timings["projection"] = {"seconds": tau_p}
    base = Path(args.out)
    _json_dump(base / "table.json", rows)
    cols = ["method", "status", "k", "kappa", "og_pct", "og_abs",
            "objective_on_full", "first_stage", "mean_components"]
    with open(base / "table.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for r in rows:
            writer.writerow([json.dumps(r.get(c), sort_keys=True)
                             if isinstance(r.get(c), dict)
                             else ("" if r.get(c) is None else r.get(c))
                             for c in cols])
    _json_dump(base / "table.timings.json", timings)
    print(f"compared {len(rows) - 1} methods (+benchmark) -> {base / 'table.csv'}")
    return 0


def cmd_make_desk(args) -> int:
    make = make_desk_instance if args.problem == "adn" else make_uc_desk_instance
    # without --buses each generator keeps its own network size
    buses = {} if args.buses is None else {"buses": args.buses}
    config, scenario_set = make(seed=args.seed, n_scenarios=args.N,
                                t_steps=args.T, bad_fraction=args.bad_fraction,
                                **buses)
    base = Path(args.out)
    base.mkdir(parents=True, exist_ok=True)
    _json_dump(base / "config.json", config.to_dict())
    save_scenarios(scenario_set, base / "scenarios.csv",
                   base / "probabilities.csv")
    print(f"desk instance (N={len(scenario_set)}, T={scenario_set.horizon}) "
          f"-> {base}")
    return 0


# argparse types: a bad value exits 2 with a message naming the flag,
# before any input is read or any program solved


def _at_least(kind, lo):
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a valid {kind.__name__}: {text!r}") from None
        if not (math.isfinite(value) and value >= lo):
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {text}")
        return value
    return parse


_count = _at_least(int, 1)
_nonneg = _at_least(float, 0.0)
_seed = _at_least(int, 0)  # numpy seeds its generators from integers >= 0


def _fraction(text):
    value = _nonneg(text)
    if value > 1.0:
        raise argparse.ArgumentTypeError(f"must be <= 1, got {text}")
    return value


def _beta_list(text):
    return [_nonneg(b) for b in text.split(",")]


def _beta_range(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:stop:num, got {text!r}")
    start, stop, num = _nonneg(parts[0]), _nonneg(parts[1]), _count(parts[2])
    if start == 0.0 or stop == 0.0:
        raise argparse.ArgumentTypeError("a geometric grid needs start, stop > 0")
    return list(np.geomspace(start, stop, num))


def _add_common(p):
    p.add_argument("--problem", choices=("adn", "uc"), required=True)
    p.add_argument("--config", required=True, help="problem config JSON")
    p.add_argument("--scenarios", required=True, help="values CSV")
    p.add_argument("--probabilities", default=None, help="probabilities CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--workers", type=_count, default=1)
    p.add_argument("--gap-tol", dest="gap_tol", type=_nonneg,
                   default=DEFAULT_GAP_TOL)


def _add_distance(p):
    _add_common(p)
    p.add_argument("--mu", type=_nonneg, default=0.0,
                   help="norm-regularization weight of the distance metric")


def _add_benchmark(p):
    p.add_argument("--worst-case-bound", type=_nonneg, default=2.0)
    p.add_argument("--benchmark-time-limit", type=_nonneg, default=None,
                   help="seconds; when hit, the gap is reported as null")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdsr",
        description="problem-driven scenario reduction for two-stage "
                    "stochastic dispatch")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("project", help="build or reuse the projection matrix")
    _add_common(p)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("cluster", help="solve the clustering MILP")
    _add_distance(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--beta", type=_nonneg, default=None,
                       help="trade-off weight (the solver chooses K)")
    group.add_argument("--K", type=_count, default=None, help="fixed cluster count")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("sweep-beta", help="cluster across a beta grid")
    _add_distance(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--beta-range", dest="betas", type=_beta_range,
                       default=None, help="geometric grid start:stop:num")
    group.add_argument("--betas", type=_beta_list, default=None,
                       help="comma-separated values")
    p.set_defaults(func=cmd_sweep_beta)

    p = sub.add_parser("evaluate", help="score a reduction against the full set")
    _add_distance(p)
    p.add_argument("--reduction", required=True, help="reduction.json path")
    p.add_argument("--no-se", action="store_true",
                   help="skip per-representative effectiveness re-solves")
    _add_benchmark(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="run several reduction methods at one K")
    _add_distance(p)
    p.add_argument("--methods", default="pdsr,km_e,kd_e,hc,ws")
    p.add_argument("--K", type=_count, required=True)
    p.add_argument("--seed", type=_seed, default=0, help="k-means seed")
    _add_benchmark(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("make-desk", help="generate a desk-scale instance")
    p.add_argument("--problem", choices=("adn", "uc"), required=True)
    p.add_argument("--N", type=_count, default=8)
    p.add_argument("--T", type=_count, default=12)
    p.add_argument("--buses", type=int, default=None,
                   help="network size (default: ADN 6, UC its 3-bus ring)")
    p.add_argument("--bad-fraction", dest="bad_fraction", type=_fraction,
                   default=0.1)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_make_desk)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PdsrError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
