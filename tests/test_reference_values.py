"""The seed-0 desk instances still reproduce the benchmark's reference values.

``perfbench/reference/*.json`` records, per workload, the projection matrix F
and the full-set benchmark objective of the seed-0 instance.  A solver change
may move them only within the solve gap: each value must lie within
2 * gap_tol (relative, with a floor of 1) of its recorded reference.  The
reference files are only read here.
"""

import json
from pathlib import Path

import pytest

from pdsr.adn import AdnProblem, make_desk_instance
from pdsr.milp import DEFAULT_GAP_TOL
from pdsr.projection import build_problem_space_matrix, solve_benchmark
from pdsr.uc import UcProblem, make_uc_desk_instance

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"

# workload -> (desk generator, problem class, generator kwargs)
INSTANCES = {
    "adn6-pipeline": (make_desk_instance, AdnProblem,
                      dict(seed=0, n_scenarios=6, t_steps=12, buses=6)),
    "uc8-pipeline": (make_uc_desk_instance, UcProblem,
                     dict(seed=0, n_scenarios=8, t_steps=6)),
}


def within_two_gaps(value, ref) -> bool:
    return abs(value - ref) <= 2 * DEFAULT_GAP_TOL * max(1.0, abs(ref))


@pytest.mark.parametrize("workload", sorted(INSTANCES))
def test_seed0_instance_matches_reference(workload):
    make, problem_cls, kwargs = INSTANCES[workload]
    with open(REFERENCE / f"{workload}.json") as fh:
        ref = json.load(fh)["instances"][0]
    assert ref["seed"] == kwargs["seed"]
    config, ss = make(**kwargs)
    problem = problem_cls(config, ss.source_names)

    F = build_problem_space_matrix(problem, ss, gap_tol=DEFAULT_GAP_TOL).values
    assert F.shape == (len(ref["F"]), len(ref["F"]))
    off = [(i, j, float(F[i, j]), r) for i, row in enumerate(ref["F"])
           for j, r in enumerate(row) if not within_two_gaps(F[i, j], r)]
    assert not off, f"F entries beyond 2 gap_tol of the reference: {off}"

    _, bench_obj, _ = solve_benchmark(problem, ss, gap_tol=DEFAULT_GAP_TOL)
    assert within_two_gaps(bench_obj, ref["benchmark_objective"])
