"""Record the reference values that runs at the reference seed are checked
against: per instance, the projection matrix F, the full-set benchmark
objective and the optimal spdd at K=4.

    python3 perfbench/record.py [workload ...]    # default: every workload

Re-record only when a change to the program is meant to change these
values, and say so where the change is described.
"""

import json
import sys

import run


def reference_of(obs: dict, seed: int) -> dict:
    """The values a later pass on the same instance is checked against."""
    return {"seed": seed,
            "benchmark_objective": obs["evaluate"]["benchmark_objective"],
            "spdd": obs["cluster"]["spdd"], "F": obs["project"]}


def main(names) -> int:
    sys.path.insert(0, str(run.SRC))
    from pdsr import cli

    run.WORK.mkdir(exist_ok=True)
    for name in names or run.WORKLOADS:
        wl = run.WORKLOADS[name]
        instances = []
        for seed in run.instance_seeds(run.REFERENCE_SEED):
            p = run.run_pass(cli, wl, seed)
            bad = [label for label, ok, _ in p.ops if not ok]
            if bad:
                print(f"error: {name} seed {seed}: failed {bad}", file=sys.stderr)
                return 1
            instances.append(reference_of(p.observed, seed))
        path = run.reference_path(wl)
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"workload": name, "instances": instances}, fh, indent=1)
            fh.write("\n")
        print(f"{name}: reference written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
