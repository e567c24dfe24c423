"""End-to-end command tests on a tiny instance."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdsr
from pdsr.cli import main


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    base = tmp_path_factory.mktemp("desk")
    rc = main(["make-desk", "--problem", "adn", "--N", "4", "--T", "12",
               "--buses", "4", "--bad-fraction", "0.25", "--seed", "3",
               "--out", str(base)])
    assert rc == 0
    return base


def run_ok(args):
    assert main([str(a) for a in args]) == 0


def common(instance, out):
    return ["--problem", "adn", "--config", instance / "config.json",
            "--scenarios", instance / "scenarios.csv",
            "--probabilities", instance / "probabilities.csv",
            "--out", out]


def test_project_and_cache_reuse(instance, tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    run_ok(["project", *common(instance, out)])
    first = capsys.readouterr().out
    assert "built" in first
    assert (out / "F.csv").exists() and (out / "F.meta.json").exists()
    text = (out / "F.csv").read_text()
    assert len(text.splitlines()) == 5   # header + 4 rows
    run_ok(["project", *common(instance, out)])
    again = capsys.readouterr().out
    assert "reused" in again


def test_cluster_beta_zero_keeps_all(instance, tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    run_ok(["cluster", *common(instance, out), "--beta", "0"])
    red = json.loads((out / "reduction.json").read_text())
    assert red["k"] == 4
    assert (out / "reduction.timings.json").exists()


def test_cluster_fixed_k_one(instance, tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    run_ok(["cluster", *common(instance, out), "--K", "1"])
    red = json.loads((out / "reduction.json").read_text())
    assert red["k"] == 1
    assert len(red["representatives"]) == 1


def test_cluster_matches_library(instance, tmp_path):
    from pdsr.adn import AdnConfig, AdnProblem
    from pdsr.clustering import compute_pdd, solve_clustering
    from pdsr.projection import build_problem_space_matrix
    from pdsr.scenarios import load_scenarios

    out = tmp_path / "run"
    out.mkdir()
    run_ok(["cluster", *common(instance, out), "--K", "2"])
    red = json.loads((out / "reduction.json").read_text())

    ss = load_scenarios(instance / "scenarios.csv", instance / "probabilities.csv")
    cfg = AdnConfig.from_dict(json.loads((instance / "config.json").read_text()))
    problem = AdnProblem(cfg, ss.source_names)
    matrix = build_problem_space_matrix(problem, ss)
    result = solve_clustering(compute_pdd(matrix), ss.probabilities, fixed_k=2)
    assert red["representatives"] == result.representatives
    assert red["spdd"] == pytest.approx(result.spdd)


def test_sweep_beta_rows(instance, tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    run_ok(["sweep-beta", *common(instance, out), "--betas", "0,1e6"])
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3   # header + 2 rows
    header = lines[0].split(",")
    k_col = header.index("k")
    assert [row.split(",")[k_col] for row in lines[1:]] == ["4", "1"]
    for row in lines[1:]:
        for col in ("k_normalized", "spdd_normalized"):
            value = row.split(",")[header.index(col)]
            if value:
                assert 0.0 <= float(value) <= 1.0


def test_evaluate_identity_reduction(instance, tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    run_ok(["cluster", *common(instance, out), "--beta", "0"])
    run_ok(["evaluate", *common(instance, out),
            "--reduction", out / "reduction.json"])
    report = json.loads((out / "report.json").read_text())
    assert abs(report["og_pct"]) <= 0.02
    assert report["scenario_effectiveness"] is not None
    assert len(report["scenario_effectiveness"]) == 4
    assert len(report["worst_case_flags"]) == 4
    assert (out / "report.timings.json").exists()


def _misfit_rep_out_of_range(red, n):
    # the largest representative is renamed to index n, past the last scenario
    r = max(red["representatives"])
    red["representatives"] = sorted(set(red["representatives"]) - {r} | {n})
    red["assignment"] = {i: (n if a == r else a)
                         for i, a in red["assignment"].items()}
    red["assignment"][str(n)] = n
    red["weights"][str(n)] = red["weights"].pop(str(r))


def _misfit_weights_not_one(red, n):
    red["weights"] = {r: w / 2 for r, w in red["weights"].items()}


@pytest.mark.parametrize("misfit", [_misfit_rep_out_of_range,
                                    _misfit_weights_not_one],
                         ids=["rep_out_of_range", "weights_not_one"])
def test_evaluate_rejects_misfit_reduction_before_solving(
        instance, tmp_path, capsys, monkeypatch, misfit):
    out = tmp_path / "run"
    out.mkdir()
    run_ok(["cluster", *common(instance, out), "--K", "2"])
    red = json.loads((out / "reduction.json").read_text())
    misfit(red, 4)
    (out / "bad.json").write_text(json.dumps(red))

    def no_solve(*args, **kwargs):
        raise AssertionError("solver called before the reduction was checked")

    monkeypatch.setattr("pdsr.milp.highs_milp", no_solve)
    capsys.readouterr()
    assert main([str(a) for a in ["evaluate", *common(instance, out),
                                  "--reduction", out / "bad.json"]]) == 1
    assert capsys.readouterr().err.startswith("error: reduction ")
    assert not (out / "report.json").exists()


# the instance has N=4 scenarios
@pytest.mark.parametrize("argv, flag, code", [
    (["project", "--workers", "0"], "--workers", 2),
    (["cluster", "--K", "0"], "--K", 2),
    (["cluster", "--K", "5"], "--K", 1),
    (["cluster", "--beta", "-1"], "--beta", 2),
    (["sweep-beta", "--beta-range", "1:2"], "--beta-range", 2),
    (["compare", "--K", "5"], "--K", 1),
    (["compare", "--K", "2", "--benchmark-time-limit", "-1"],
     "--benchmark-time-limit", 2),
    (["compare", "--K", "2", "--methods", ","], "--methods", 1),
    (["project", "--seed", "1"], "--seed", 2),
    (["project", "--mu", "1"], "--mu", 2),
    (["cluster", "--K", "2", "--seed", "1"], "--seed", 2),
    (["project", "--gap-tol", "nan"], "--gap-tol", 2),
    (["project", "--gap-tol", "-1"], "--gap-tol", 2),
    (["evaluate", "--reduction", "reduction.json", "--worst-case-bound", "nan"],
     "--worst-case-bound", 2),
], ids=["workers_0", "cluster_k_0", "cluster_k_above_n", "beta_negative",
        "beta_range_two_fields", "compare_k_above_n",
        "benchmark_time_limit_negative", "compare_no_methods",
        "project_seed", "project_mu", "cluster_seed", "gap_tol_nan",
        "gap_tol_negative", "worst_case_bound_nan"])
def test_bad_arguments_rejected_before_solving(instance, tmp_path, capsys,
                                               monkeypatch, argv, flag, code):
    def no_solve(*args, **kwargs):
        raise AssertionError("solver called before the arguments were checked")

    monkeypatch.setattr("pdsr.milp.highs_milp", no_solve)
    out = tmp_path / "run"
    command, *rest = argv
    try:
        rc = main([str(a) for a in [command, *common(instance, out), *rest]])
    except SystemExit as exc:
        rc = exc.code
    assert rc == code
    assert flag in capsys.readouterr().err
    assert not (out / "F.csv").exists()


def test_non_finite_config_value_rejected(instance, tmp_path, capsys):
    # json.load accepts NaN; the line resistance lands in expression rows,
    # which must not reach HiGHS
    config = json.loads((instance / "config.json").read_text())
    config["lines"][0][2] = float("nan")
    (tmp_path / "bad.json").write_text(json.dumps(config))
    args = common(instance, tmp_path / "run")
    args[args.index("--config") + 1] = tmp_path / "bad.json"
    capsys.readouterr()
    assert main([str(a) for a in ["project", *args]]) == 1
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "run" / "F.csv").exists()


def test_make_desk_buses_reaches_both_generators(tmp_path, capsys):
    run_ok(["make-desk", "--problem", "adn", "--N", "3", "--out", tmp_path / "adn"])
    config = json.loads((tmp_path / "adn" / "config.json").read_text())
    assert config["n_buses"] == 6
    run_ok(["make-desk", "--problem", "uc", "--N", "3", "--T", "6",
            "--out", tmp_path / "uc"])
    config = json.loads((tmp_path / "uc" / "config.json").read_text())
    assert config["n_buses"] == 3
    capsys.readouterr()
    assert main(["make-desk", "--problem", "uc", "--N", "3", "--T", "6",
                 "--buses", "9", "--out", str(tmp_path / "uc9")]) == 1
    assert "3 buses" in capsys.readouterr().err
    assert not (tmp_path / "uc9" / "config.json").exists()


def test_compare_single_method(instance, tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    run_ok(["compare", *common(instance, out), "--methods", "pdsr", "--K", "2"])
    table = json.loads((out / "table.json").read_text())
    assert [r["method"] for r in table] == ["benchmark", "pdsr"]
    assert table[0]["og_pct"] == 0.0
    assert table[1]["status"] == "ok"
    lines = (out / "table.csv").read_text().splitlines()
    assert len(lines) == 3


def test_compare_full_method_list(instance, tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    run_ok(["compare", *common(instance, out),
            "--methods", "pdsr,km_e,kd_e,hc,ws", "--K", "2"])
    table = json.loads((out / "table.json").read_text())
    assert [r["method"] for r in table] == ["benchmark", "pdsr", "km_e",
                                            "kd_e", "hc", "ws"]
    assert all(r["status"] == "ok" for r in table)


def test_outputs_byte_identical_across_workers(instance, tmp_path):
    outs = []
    for workers in ("1", "4"):
        out = tmp_path / f"w{workers}"
        out.mkdir()
        run_ok(["project", *common(instance, out), "--workers", workers])
        run_ok(["cluster", *common(instance, out), "--workers", workers,
                "--K", "2"])
        outs.append(out)
    a, b = outs
    assert (a / "F.csv").read_bytes() == (b / "F.csv").read_bytes()
    assert (a / "reduction.json").read_bytes() == (b / "reduction.json").read_bytes()


def test_compare_rerun_byte_identical(instance, tmp_path):
    blobs = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        out.mkdir()
        run_ok(["compare", *common(instance, out), "--methods", "pdsr,km_e",
                "--K", "2", "--seed", "5"])
        blobs.append(((out / "table.csv").read_bytes(),
                      (out / "table.json").read_bytes()))
    assert blobs[0] == blobs[1]


def test_cache_env_var(instance, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    out = tmp_path / "run"
    out.mkdir()
    monkeypatch.setenv("PDSR_CACHE_DIR", str(cache))
    run_ok(["project", *common(instance, out)])
    assert (cache / "F.csv").exists()
    assert not (out / "F.csv").exists()


def test_error_exit_code(tmp_path):
    rc = main(["project", "--problem", "adn", "--config", "/nonexistent.json",
               "--scenarios", "/nonexistent.csv", "--out", str(tmp_path)])
    assert rc == 1
    # argparse-level misuse exits nonzero through SystemExit
    with pytest.raises(SystemExit):
        main(["cluster", "--out", str(tmp_path)])


def test_console_entry_point(instance, tmp_path):
    # the child imports the same pdsr as this process, installed or not
    src = str(Path(pdsr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "pdsr.cli", "make-desk", "--problem", "uc",
         "--N", "3", "--T", "6", "--out", str(tmp_path / "uc")],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert (tmp_path / "uc" / "config.json").exists()
    assert (tmp_path / "uc" / "scenarios.csv").exists()


def test_evaluate_benchmark_time_limit_reports_null_gap(instance, tmp_path):
    # a limit hit before any incumbent leaves the gap not-computed instead
    # of aborting the command
    out = tmp_path / "run"
    out.mkdir()
    run_ok(["cluster", *common(instance, out), "--K", "2"])
    run_ok(["evaluate", *common(instance, out), "--reduction",
            out / "reduction.json", "--benchmark-time-limit", "1e-9"])
    report = json.loads((out / "report.json").read_text())
    for key in ("og_pct", "og_abs", "benchmark_objective",
                "scenario_effectiveness"):
        assert report[key] is None, key


def test_compare_benchmark_time_limit_reports_null_gap(instance, tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    run_ok(["compare", *common(instance, out), "--methods", "pdsr,km_e",
            "--K", "2", "--benchmark-time-limit", "1e-9"])
    table = json.loads((out / "table.json").read_text())
    assert table[0]["method"] == "benchmark" and table[0]["og_pct"] is None
    assert [r["status"] for r in table[1:]] == ["ok", "ok"]
