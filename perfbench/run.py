"""End-to-end and per-layer benchmark of the pdsr command-line pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload adn6-pipeline --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Each pass generates a desk instance in a fresh directory and runs the
workload's command sequence through ``pdsr.cli.main`` in this process, one
command after the other.  A run first makes an untimed warm-up pass on its
first instance, then goes through its INSTANCES instances made from
``--seed`` in turn, at least once and then while another pass fits into
``--seconds``.  The warm-up pass is the reference the first instance's
primary outputs are compared with byte for byte.  Every figure is the mean
over instances of the median over that instance's passes.  End-to-end
times are wall seconds scaled by PROBE_NOMINAL_S over the mean time of a
fixed host probe run before every command, so that they do not follow the
shared host's speed; the wall seconds are printed too.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics of the traced
ones plus the tracing overhead, and writes the spans to
``.perfbench/trace-<workload>-seed<seed>.json``.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
An operation is a command, a ``compare`` row or an output check.
"""

from __future__ import annotations

import os
import sys

# before numpy loads: one BLAS thread, so --workers bounds the thread count
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("PDSR_CACHE_DIR", None)

import argparse
import contextlib
import csv
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

REFERENCE_SEED = 0
# the make-desk seed of the network (ADN feeder; the UC system is the same
# at every seed): a workload is one system facing seed-drawn scenario sets,
# since a feeder drawn per instance spread ADN pass times by 15 %
NETWORK_SEED = 0
# desk instances per run: their solve times differ with the scenario draw
# by 8-15 % (more for compare), so a run averages over several
INSTANCES = 5
# set-up probes per untraced run, one before each of the first passes, so
# that set-up is sampled across the run rather than in one burst
SETUP_PROBES = 3
# a traced run covers the first instances only, each with an untraced and
# a traced pass
TRACED_INSTANCES = 2
# the reduce commands take ~0.1 s together, short enough for scheduler
# jitter to spread them; an untraced pass times them this many times and
# keeps the median
REDUCE_REPEATS = 5
# host_probe() seconds that timings are scaled to.  The shared host's
# speed moved by up to 40 % within minutes; dividing by the mean of the
# probes taken between the run's commands cancels that, and the constant
# keeps the figures near wall seconds on the host the benchmark was built on
PROBE_NOMINAL_S = 0.04
# the README quick start: sweep-beta, cluster, evaluate and compare at K=4
BETA_RANGE = "1e-2:1e5:10"
K = 4
METHODS = "pdsr,km_e,kd_e,hc,ws"

# end-to-end metric -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pipeline_s": ("s", "lower"),
    "project_s": ("s", "lower"),
    "reduce_s": ("s", "lower"),
    "evaluate_s": ("s", "lower"),
    "compare_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# command -> (end-to-end group, primary output it writes)
COMMANDS = {
    "project": ("project_s", "F.csv"),
    "sweep-beta": ("reduce_s", "sweep.csv"),
    "cluster": ("reduce_s", "reduction.json"),
    "evaluate": ("evaluate_s", "report.json"),
    "compare": ("compare_s", "table.json"),
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; why each exists is in BENCHMARK.json."""

    name: str
    problem: str
    n: int
    t: int
    workers: int

    def make_desk(self, seed: int, out) -> list[str]:
        argv = ["make-desk", "--problem", self.problem, "--N", str(self.n),
                "--T", str(self.t), "--seed", str(seed), "--out", str(out)]
        if self.problem == "adn":
            argv += ["--buses", "6"]
        return argv

    def make_instance(self, cli_main, seed: int, out) -> list:
        """Scenarios drawn at ``seed`` into ``out``, the network of
        NETWORK_SEED into ``out/network``; returns the operations."""
        ops = []
        for s, where in ((seed, Path(out)), (NETWORK_SEED, Path(out) / "network")):
            rc = _quiet(cli_main, self.make_desk(s, where))
            ops.append((f"make-desk exit (seed {s})", rc == 0, f"rc={rc}"))
        return ops

    def commands(self, seed: int, out) -> list[tuple[str, list[str]]]:
        """(label, argv) of the timed sequence."""
        out = Path(out)
        common = ["--problem", self.problem,
                  "--config", str(out / "network" / "config.json"),
                  "--scenarios", str(out / "scenarios.csv"),
                  "--probabilities", str(out / "probabilities.csv"),
                  "--out", str(out), "--workers", str(self.workers)]
        return [
            ("project", ["project", *common]),
            ("sweep-beta", ["sweep-beta", *common, "--beta-range", BETA_RANGE]),
            ("cluster", ["cluster", *common, "--K", str(K)]),
            ("evaluate", ["evaluate", *common,
                          "--reduction", str(out / "reduction.json")]),
            ("compare", ["compare", *common, "--methods", METHODS,
                         "--K", str(K), "--seed", str(seed)]),
        ]


# one worker: on a shared 2-core host a second thread is slowed by any
# neighbour on the other core, which spread 2-worker runs by 19-31 %
WORKLOADS = {w.name: w for w in (
    Workload("adn6-pipeline", problem="adn", n=6, t=12, workers=1),
    Workload("uc8-pipeline", problem="uc", n=8, t=6, workers=1),
)}


# -- one pass of a workload -------------------------------------------------


@dataclass
class Pass:
    times: dict = field(default_factory=lambda: dict.fromkeys(
        ("project_s", "reduce_s", "evaluate_s", "compare_s"), 0.0))
    digests: dict = field(default_factory=dict)   # label -> sha256 of output
    observed: dict = field(default_factory=dict)  # label -> parsed output
    ops: list = field(default_factory=list)       # (label, ok, detail)
    instance: int = 0                             # index into the run's seeds
    reduce_repeats: list = field(default_factory=list)  # reduce_s re-timed
    layers: dict = field(default_factory=dict)    # per-layer metrics if traced
    probes: list = field(default_factory=list)    # host_probe() seconds

    @property
    def pipeline_s(self) -> float:
        return sum(self.times.values())


def host_probe() -> float:
    """Seconds for a fixed piece of work that uses no pdsr code, run
    between commands to follow the host's speed."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    rng = np.random.default_rng(2404)
    a = rng.uniform(0.0, 1.0, (10, 30))
    c = -rng.uniform(1.0, 2.0, 30)
    integrality = np.zeros(30)
    integrality[:4] = 1
    t0 = time.perf_counter()
    coef = {}
    for i in range(50_000):
        key = (i % 53, i % 31)
        coef[key] = coef.get(key, 0.0) + 0.5 * i
    for _ in range(2):
        milp(c, constraints=LinearConstraint(a, -np.inf, a.sum(1) * 0.5),
             integrality=integrality, bounds=Bounds(0.0, 1.0))
    return time.perf_counter() - t0


def _quiet(cli_main, argv) -> int:
    """Run one CLI command with its stdout swallowed; an escaping
    exception is reported on stderr and returned as exit code -1."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli_main(argv)
    except Exception:  # a failed operation, counted; the pass goes on
        traceback.print_exc()
        return -1


def _read_output(command: str, path: Path):
    if command == "project":
        with open(path, newline="") as fh:
            return [[float(v) for v in row[1:]] for row in list(csv.reader(fh))[1:]]
    if command == "sweep-beta":
        with open(path, newline="") as fh:
            return [int(r["k"]) for r in csv.DictReader(fh)]
    with open(path) as fh:
        return json.load(fh)


def run_pass(cli, wl: Workload, seed: int, tracer=None, tag="",
             instance=0) -> Pass:
    """Generate the instance and run the timed command sequence once,
    traced into ``tracer`` if one is given.

    ``cli`` is the ``pdsr.cli`` module; ``main`` is looked up on every call
    so that the tracing wrapper on it is used."""
    p = Pass(instance=instance)
    out = Path(tempfile.mkdtemp(prefix="pass-", dir=WORK))
    try:
        p.ops += wl.make_instance(cli.main, seed, out)
        commands = wl.commands(seed, out)
        with (spans.tracing(tracer, sys.modules["pdsr"]) if tracer is not None
              else contextlib.nullcontext()):
            for i, (label, argv) in enumerate(commands):
                command = argv[0]
                group, output = COMMANDS[command]
                if tracer is not None:
                    tracer.run_id = f"{tag}{i}:{label}"
                p.probes.append(host_probe())
                t0 = time.perf_counter()
                rc = _quiet(cli.main, argv)
                p.times[group] += time.perf_counter() - t0
                p.ops.append((f"{label} exit", rc == 0, f"rc={rc}"))
                if rc != 0:
                    continue
                path = out / output
                p.digests[label] = hashlib.sha256(path.read_bytes()).hexdigest()
                p.observed[label] = _read_output(command, path)
        p.probes.append(host_probe())
        if tracer is not None:
            p.layers = spans.layer_metrics(tracer.spans)
        else:
            reduce = [(label, argv) for label, argv in commands
                      if COMMANDS[argv[0]][0] == "reduce_s"]
            for _ in range(REDUCE_REPEATS - 1):
                p.reduce_repeats.append(_repeat(cli, reduce, out, p))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return p


def _repeat(cli, commands, out: Path, p: Pass) -> float:
    """Run warm commands again; their outputs must not change."""
    seconds = 0.0
    for label, argv in commands:
        t0 = time.perf_counter()
        rc = _quiet(cli.main, argv)
        seconds += time.perf_counter() - t0
        digest = hashlib.sha256((out / COMMANDS[argv[0]][1]).read_bytes()).hexdigest()
        p.ops.append((f"{label} repeated", rc == 0 and digest == p.digests.get(label),
                      f"rc={rc}"))
    return seconds


# -- output checks ----------------------------------------------------------


def _close(value, ref, tol) -> tuple[bool, str]:
    ok = abs(value - ref) <= tol
    return ok, f"{value!r} vs {ref!r} (tol {tol:.3g})"


def _og_check(label, og_abs, bench, gap_tol):
    """No reduced decision beats the full-set optimum by more than the gap."""
    ok = (og_abs is not None and bench is not None
          and og_abs >= -gap_tol * abs(bench))
    return f"{label} og_abs", ok, f"og_abs={og_abs!r} benchmark={bench!r}"


def output_checks(obs: dict, gap_tol: float, ref=None) -> list:
    """Checks that hold at any seed, plus, given the recorded reference of
    the instance, agreement with it within tolerances from the solver gap."""
    ops = []
    if "sweep-beta" in obs:
        ks = obs["sweep-beta"]
        ok = all(a >= b for a, b in zip(ks, ks[1:]))
        ops.append(("sweep k non-increasing in beta", ok, f"k={ks}"))
    red = obs.get("cluster")
    if red is not None:
        got = len(red["representatives"])
        ops.append(("cluster K", got == K, f"K={got}"))
    rep = obs.get("evaluate")
    if rep is not None:
        ops.append(_og_check("evaluate", rep["og_abs"],
                             rep["benchmark_objective"], gap_tol))
    table = obs.get("compare")
    if table is not None:
        bench = table[0]["objective_on_full"]
        for row in table:
            m = row["method"]
            ops.append((f"compare row {m}", row["status"] == "ok", row["status"]))
            if row["status"] != "ok" or m == "benchmark":
                continue
            ops.append((f"compare {m} K", len(row["representatives"]) == K,
                        f"K={len(row['representatives'])}"))
            ops.append(_og_check(f"compare {m}", row["og_abs"], bench, gap_tol))
    if ref is None:
        return ops

    F, F_ref = obs.get("project"), ref["F"]
    scale = max(1.0, max(abs(v) for row in F_ref for v in row))
    if F is not None:
        worst = max((abs(a - b) - 2 * gap_tol * max(1.0, abs(b)), i, j)
                    for i, (ra, rb) in enumerate(zip(F, F_ref))
                    for j, (a, b) in enumerate(zip(ra, rb)))
        ok = len(F) == len(F_ref) and worst[0] <= 0.0
        ops.append(("reference F", ok, f"worst excess {worst[0]:.3g} at "
                                       f"({worst[1]}, {worst[2]})"))
    bench_ref = ref["benchmark_objective"]
    if rep is not None:
        ok, detail = _close(rep["benchmark_objective"], bench_ref,
                            2 * gap_tol * abs(bench_ref))
        ops.append(("reference evaluate benchmark objective", ok, detail))
    if table is not None:
        ok, detail = _close(table[0]["objective_on_full"], bench_ref,
                            2 * gap_tol * abs(bench_ref))
        ops.append(("reference compare benchmark objective", ok, detail))
    if red is not None:
        # clustering gap on spdd, plus 4 F entries per distance, each
        # within 2 gap_tol of the reference
        ok, detail = _close(red["spdd"], ref["spdd"],
                            gap_tol * abs(ref["spdd"]) + 8 * gap_tol * scale)
        ops.append(("reference cluster spdd", ok, detail))
    return ops


def reference_path(wl: Workload) -> Path:
    return HERE / "reference" / f"{wl.name}.json"


def instance_seeds(seed: int) -> list[int]:
    """The make-desk seeds of a run: INSTANCES of them, disjoint across
    run seeds."""
    return [seed * INSTANCES + m for m in range(INSTANCES)]


def instance_mean(passes, value) -> float:
    """Mean over instances of the median over each instance's passes."""
    by_instance: dict[int, list] = {}
    for p in passes:
        by_instance.setdefault(p.instance, []).append(value(p))
    return statistics.fmean(statistics.median(v) for v in by_instance.values())


def determinism_ops(first: Pass, other: Pass, which: str) -> list:
    return [(f"deterministic {label} ({which})",
             other.digests.get(label) == digest, "")
            for label, digest in first.digests.items()]


# -- a run -------------------------------------------------------------------


def setup_probe(wl: Workload, seed: int, i: int) -> tuple[float, tuple]:
    """Fresh interpreter -> import pdsr -> make-desk, timed once."""
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "from pdsr.cli import main; sys.exit(main(sys.argv[2:]))")
    out = Path(tempfile.mkdtemp(prefix="setup-", dir=WORK))
    try:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", probe, str(SRC),
                               *wl.make_desk(seed, out)],
                              stdout=subprocess.DEVNULL, timeout=120)
        seconds = time.perf_counter() - t0
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return seconds, (f"setup probe {i} exit", proc.returncode == 0,
                     f"rc={proc.returncode}")


def passes_until(seconds: float, minimum: int, run_one) -> list:
    """Call ``run_one(index)`` at least ``minimum`` times, then while
    another pass fits into ``seconds``."""
    results = []
    t0 = time.perf_counter()
    while True:
        results.append(run_one(len(results)))
        n = len(results)
        if n >= minimum and (time.perf_counter() - t0) * (n + 1) / n > seconds:
            return results


def run_untraced(cli, wl, seeds, seconds):
    """Instances in turn, each at least once."""
    setup, ops = [], []

    def one(i):
        if i < SETUP_PROBES:
            t, op = setup_probe(wl, seeds[0], i)
            setup.append(t)
            ops.append(op)
        return run_pass(cli, wl, seeds[i % len(seeds)], instance=i % len(seeds))

    passes = passes_until(seconds, len(seeds), one)
    wall = {"setup_s": statistics.median(setup),
            "pipeline_s": instance_mean(passes, lambda p: p.pipeline_s)}
    for name in ("project_s", "evaluate_s", "compare_s"):
        wall[name] = instance_mean(passes, lambda p: p.times[name])
    wall["reduce_s"] = instance_mean(passes, lambda p: statistics.median(
        [p.times["reduce_s"], *p.reduce_repeats]))
    probe = statistics.fmean(t for p in passes for t in p.probes)
    print(f"  host probe {probe * 1e3:.2f} ms (nominal "
          f"{PROBE_NOMINAL_S * 1e3:.0f} ms); wall seconds: "
          + " ".join(f"{k}={v:.4f}" for k, v in wall.items()))
    metrics = {k: v * PROBE_NOMINAL_S / probe for k, v in wall.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {k: metrics[k] for k in END_TO_END}, ops, passes


def run_traced(cli, wl, seeds, seconds):
    """Each instance in turn gets an untraced and then a traced pass."""
    tracers = {}

    def one(i):
        m = (i // 2) % len(seeds)
        if i % 2 == 0:
            return run_pass(cli, wl, seeds[m], instance=m)
        tracers[i] = spans.Tracer()
        return run_pass(cli, wl, seeds[m], tracers[i], tag=f"pass{i}/", instance=m)

    passes = passes_until(seconds, 2 * len(seeds), one)
    traced = [passes[i] for i in tracers]
    ops = []
    for p in traced:
        first = next(q for q in traced if q.instance == p.instance)
        same = all(v == first.layers[k] for k, v in p.layers.items()
                   if k.endswith((".calls", ".cells")))
        ops.append((f"trace counts repeat (instance {p.instance})", same, ""))
    metrics = {k: instance_mean(traced, lambda p: p.layers[k])
               for k in spans.LAYER_METRICS}
    plain = instance_mean(passes[0::2], lambda p: p.pipeline_s)
    with_trace = instance_mean(traced, lambda p: p.pipeline_s)
    metrics["trace.overhead_s"] = with_trace - plain
    metrics["trace.spans"] = statistics.fmean(len(t.spans) for t in tracers.values())

    dump = {"workload": wl.name, "instance_seeds": seeds,
            "cell_ms_tail": spans.tail_label(tracers[1].spans),
            "untraced_pipeline_s": plain, "traced_pipeline_s": with_trace,
            "passes": [{"pass": i, "instance": passes[i].instance,
                        "spans": [s.to_dict() for s in t.spans]}
                       for i, t in tracers.items()]}
    path = WORK / f"trace-{wl.name}-seed{seeds[0] // INSTANCES}.json"
    with open(path, "w") as fh:
        json.dump(dump, fh)
    print(f"trace written to {path.relative_to(ROOT)} "
          f"(cell_ms.tail is {dump['cell_ms_tail']})")
    return metrics, ops, passes


def units_of(trace: bool) -> dict:
    if not trace:
        return END_TO_END
    return {**spans.LAYER_METRICS, "trace.overhead_s": ("s", "lower"),
            "trace.spans": ("count", "lower")}


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    from pdsr import cli
    from pdsr.milp import DEFAULT_GAP_TOL

    if Path(cli.__file__).resolve().parent != SRC / "pdsr":
        raise SystemExit(f"error: pdsr imported from {cli.__file__}, not {SRC}")
    refs = {}
    if seed == REFERENCE_SEED:
        with open(reference_path(wl)) as fh:
            refs = dict(enumerate(json.load(fh)["instances"]))
    WORK.mkdir(exist_ok=True)
    seeds = instance_seeds(seed)
    runner = run_traced if trace else run_untraced
    warmup = run_pass(cli, wl, seeds[0], instance=0)
    metrics, ops, passes = runner(
        cli, wl, seeds[:TRACED_INSTANCES] if trace else seeds, seconds)
    first = {}
    for i, p in enumerate([warmup, *passes]):
        ops += p.ops
        ops += output_checks(p.observed, DEFAULT_GAP_TOL, refs.get(p.instance))
        if p.instance in first:
            ops += determinism_ops(first[p.instance], p,
                                   f"instance {p.instance}, pass {i}")
        else:
            first[p.instance] = p

    failed = [(label, detail) for label, ok, detail in ops if not ok]
    for label, detail in failed:
        print(f"FAILED {label}: {detail}", file=sys.stderr)
    units = units_of(trace)
    print(f"{wl.name} seed={seed} instances={seeds} passes={len(passes)} "
          f"ops={len(ops)} failed={len(failed)} "
          f"ops_failed={len(failed) / len(ops):.4g}")
    print("  pipeline_s per pass (instance): "
          + " ".join(f"{p.pipeline_s:.3f}({p.instance})" for p in passes))
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name][0]}")
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k][0]}
                        for k, v in metrics.items()}}


def run_all(seed, seconds, trace) -> dict:
    """Every workload in its own interpreter (peak RSS stays per workload)."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            total["metrics"][f"{name}:{k}"] = v
    print(f"all workloads: ops={total['attempted']} failed={total['failed']} "
          f"ops_failed={total['failed'] / total['attempted']:.4g}")
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pdsr" / "cli.py").is_file():
        print(f"error: no pdsr sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
