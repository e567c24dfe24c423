"""End-to-end command tests on a tiny instance."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pdsr
from pdsr.cli import main
from pdsr.errors import CacheError
from pdsr.projection import load_matrix


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


@pytest.mark.parametrize("corrupt", ["nan_entry", "short_decisions"])
def test_corrupt_cache_is_rebuilt(instance, tmp_path, capsys, corrupt):
    """A cache whose matrix holds a non-finite entry or too few decisions
    is rebuilt, not used."""
    out = tmp_path / "run"
    out.mkdir()
    run_ok(["project", *common(instance, out)])
    good = (out / "F.csv").read_text()
    if corrupt == "nan_entry":
        lines = good.splitlines()
        cells = lines[1].split(",")
        cells[2] = "nan"
        lines[1] = ",".join(cells)
        (out / "F.csv").write_text("\n".join(lines) + "\n")
    else:
        meta = json.loads((out / "F.meta.json").read_text())
        meta["decisions"].pop()
        (out / "F.meta.json").write_text(json.dumps(meta))
    capsys.readouterr()
    run_ok(["cluster", *common(instance, out), "--K", "2"])
    assert (out / "F.csv").read_text() == good
    assert len(json.loads((out / "F.meta.json").read_text())["decisions"]) == 4


def _meta_empty_list(meta):
    return []


def _meta_ids_int(meta):
    meta["scenario_ids"] = 5
    return meta


def _meta_values_int(meta):
    meta["decisions"][0]["values"] = 3
    return meta


@pytest.mark.parametrize("malform", [_meta_empty_list, _meta_ids_int,
                                     _meta_values_int],
                         ids=["empty_list", "ids_int", "values_int"])
def test_malformed_meta_is_rebuilt(instance, tmp_path, capsys, malform):
    """A sidecar that is valid JSON of the wrong shape is a CacheError, so
    project rebuilds the cache instead of failing."""
    out = tmp_path / "run"
    out.mkdir()
    run_ok(["project", *common(instance, out)])
    good = (out / "F.csv").read_text()
    meta_path = out / "F.meta.json"
    fp = json.loads(meta_path.read_text())["fingerprint"]
    meta_path.write_text(json.dumps(malform(json.loads(meta_path.read_text()))))
    with pytest.raises(CacheError, match="cannot read"):
        load_matrix(out / "F.csv", expected_fingerprint=fp)
    capsys.readouterr()
    run_ok(["project", *common(instance, out)])
    assert "built" in capsys.readouterr().out
    assert (out / "F.csv").read_text() == good
    assert load_matrix(out / "F.csv", expected_fingerprint=fp).n == 4


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
        # every cell is empty or a plain number, never a numpy repr
        for value in row.split(","):
            if value:
                float(value)


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


def _misfit_rep_listed_twice(red, n):
    # every other field still fits; the representative's weight would count
    # twice in the reduced program
    red["representatives"] = sorted(red["representatives"]
                                    + red["representatives"][:1])


@pytest.mark.parametrize("misfit", [_misfit_rep_out_of_range,
                                    _misfit_weights_not_one,
                                    _misfit_rep_listed_twice],
                         ids=["rep_out_of_range", "weights_not_one",
                              "rep_listed_twice"])
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


@pytest.mark.parametrize("command", ["evaluate", "compare"])
def test_fewer_than_three_scenarios_rejected_before_solving(
        tmp_path, capsys, monkeypatch, command):
    # worst-case detection, which both commands end with, needs N >= 3
    base = tmp_path / "desk"
    run_ok(["make-desk", "--problem", "uc", "--N", "2", "--T", "6",
            "--seed", "0", "--out", base])
    (base / "reduction.json").write_text(json.dumps(
        {"representatives": [0], "assignment": {"0": 0, "1": 0},
         "weights": {"0": 1.0}}))
    rest = {"evaluate": ["--reduction", base / "reduction.json"],
            "compare": ["--K", "1"]}[command]

    def no_solve(*args, **kwargs):
        raise AssertionError("solver called before N was checked")

    monkeypatch.setattr("pdsr.milp.highs_milp", no_solve)
    capsys.readouterr()
    argv = [command, "--problem", "uc", "--config", base / "config.json",
            "--scenarios", base / "scenarios.csv",
            "--probabilities", base / "probabilities.csv", "--out", base,
            *rest]
    assert main([str(a) for a in argv]) == 1
    assert capsys.readouterr().err.startswith(
        "error: worst-case detection needs at least 3 scenarios")
    assert not (base / "F.csv").exists()


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
    (["compare", "--K", "2", "--methods", "pdsr,pdsr,km_e"], "--methods", 1),
    (["compare", "--K", "2", "--methods", "km_e", "--seed", "-1"], "--seed", 2),
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
        "compare_method_twice",
        "compare_seed_negative", "project_seed", "project_mu", "cluster_seed",
        "gap_tol_nan", "gap_tol_negative", "worst_case_bound_nan"])
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


@pytest.mark.parametrize("argv, flag", [
    (["--problem", "adn", "--N", "0"], "--N"),
    (["--problem", "adn", "--N", "-3"], "--N"),
    (["--problem", "uc", "--N", "4", "--T", "0"], "--T"),
    (["--problem", "uc", "--N", "4", "--bad-fraction", "5"], "--bad-fraction"),
    (["--problem", "adn", "--bad-fraction", "nan"], "--bad-fraction"),
    (["--problem", "adn", "--bad-fraction", "-0.1"], "--bad-fraction"),
    (["--problem", "uc", "--N", "4", "--T", "4", "--seed", "-1"], "--seed"),
], ids=["n_zero", "n_negative", "t_zero", "bad_fraction_above_one",
        "bad_fraction_nan", "bad_fraction_negative", "seed_negative"])
def test_bad_make_desk_arguments_rejected(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(["make-desk", *argv, "--out", str(tmp_path / "desk")])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "desk").exists()


def test_non_finite_config_value_rejected(instance, tmp_path, capsys):
    # json.load accepts NaN; the line resistance would land in compiler
    # rows, so the config is rejected when it loads, naming the field
    config = json.loads((instance / "config.json").read_text())
    config["lines"][0][2] = float("nan")
    (tmp_path / "bad.json").write_text(json.dumps(config))
    args = common(instance, tmp_path / "run")
    args[args.index("--config") + 1] = tmp_path / "bad.json"
    capsys.readouterr()
    assert main([str(a) for a in ["project", *args]]) == 1
    assert "line (0,1): r must be finite" in capsys.readouterr().err
    assert not (tmp_path / "run" / "F.csv").exists()


def _set(*path_value):
    """Config edit: set the entry at ``path`` (keys and list indices)."""
    *path, key, value = path_value

    def edit(config):
        for step in path:
            config = config[step]
        config[key] = value
    return edit


def _move_fixed_load(key):
    def edit(config):
        loads = config["fixed_loads"]
        loads[key] = loads.pop(next(iter(loads)))
    return edit


@pytest.fixture(scope="module")
def uc_instance(tmp_path_factory):
    base = tmp_path_factory.mktemp("uc_desk")
    rc = main(["make-desk", "--problem", "uc", "--N", "3", "--T", "6",
               "--seed", "0", "--out", str(base)])
    assert rc == 0
    return base


@pytest.mark.parametrize("problem, edit, field", [
    ("adn", _set("n_buses", 4.5), "n_buses"),
    ("adn", _set("t_steps", 12.0), "t_steps"),
    ("adn", _set("res_sources", "wt1", 1.5), "source 'wt1' bus"),
    ("adn", _set("load_sources", "load1", 2.5), "source 'load1' bus"),
    ("adn", _move_fixed_load("1.5"), "fixed_loads key"),
    ("adn", _set("lines", 0, 1, 1.5), r"line \(0,1.5\): end"),
    ("adn", _set("es_units", 0, "node", 1.5), "es unit 0: node"),
    ("uc", _set("t_steps", 6.0), "t_steps"),
    ("uc", _move_fixed_load("1.5"), "fixed_loads key"),
    ("uc", _set("lines", 0, 0, 1.5), r"line \(1.5,1\): start"),
    ("uc", _set("generators", 1, "bus", 1.5), "generator 1: bus"),
    ("uc", _set("reference_bus", 0.5), "reference_bus"),
    ("uc", _set("generators", 1, "min_up", 1.5), "generator 1: min_up"),
    ("uc", _set("generators", 0, "min_down", 2.5), "generator 0: min_down"),
], ids=["adn_n_buses", "adn_t_steps_float", "adn_res_source",
        "adn_load_source", "adn_fixed_load_key", "adn_line_end",
        "adn_es_node", "uc_t_steps_float", "uc_fixed_load_key",
        "uc_line_start", "uc_generator_bus", "uc_reference_bus",
        "uc_min_up", "uc_min_down"])
def test_fractional_index_rejected_at_load(instance, uc_instance, tmp_path,
                                           capsys, problem, edit, field):
    # each of these once loaded and solved with a bus that names no bus,
    # or escaped the command as a KeyError, ValueError or TypeError
    # traceback; the config is rejected when it loads, naming the field
    from pdsr.adn import AdnConfig
    from pdsr.errors import ConfigError
    from pdsr.uc import UcConfig
    desk = instance if problem == "adn" else uc_instance
    config = json.loads((desk / "config.json").read_text())
    edit(config)
    load = AdnConfig.from_dict if problem == "adn" else UcConfig.from_dict
    message = f"^{field} must be an integer, got "
    with pytest.raises(ConfigError, match=message):
        load(json.loads(json.dumps(config)))
    (tmp_path / "bad.json").write_text(json.dumps(config))
    args = common(desk, tmp_path / "run")
    args[1] = problem
    args[args.index("--config") + 1] = tmp_path / "bad.json"
    capsys.readouterr()
    assert main([str(a) for a in ["project", *args]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert re.search(message[1:], err)
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
        # each scenario program sees the decisions of a command in the
        # command's order, so warm re-solves match across worker counts
        run_ok(["evaluate", *common(instance, out), "--workers", workers,
                "--reduction", out / "reduction.json"])
        run_ok(["compare", *common(instance, out), "--workers", workers,
                "--methods", "pdsr,km_e,ws", "--K", "2"])
        outs.append(out)
    a, b = outs
    for name in ("F.csv", "reduction.json", "report.json", "table.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


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


def _readme_run(instance, out, *evaluate_args):
    """cluster --K 2, evaluate and compare in ``out``; returns the outputs."""
    out.mkdir(exist_ok=True)
    run_ok(["cluster", *common(instance, out), "--K", "2"])
    run_ok(["evaluate", *common(instance, out), "--reduction",
            out / "reduction.json", *evaluate_args])
    run_ok(["compare", *common(instance, out), "--methods", "pdsr,km_e,ws",
            "--K", "2"])
    return {name: (out / name).read_bytes()
            for name in ("report.json", "table.json", "table.csv")}


def test_compare_after_evaluate_reuses_its_programs(instance, tmp_path,
                                                    monkeypatch):
    # compare reads the benchmark and the pdsr reduced program that
    # evaluate recorded beside F.csv, and writes what a compare in a fresh
    # directory writes; evaluate against a full record solves nothing
    import pdsr.evaluation
    from pdsr.projection import load_solves
    solved = []
    for name in ("solve_benchmark", "solve_stochastic"):
        solve = getattr(pdsr.evaluation, name)
        monkeypatch.setattr(pdsr.evaluation, name,
                            lambda *a, _solve=solve, _name=name, **kw:
                            solved.append(_name) or _solve(*a, **kw))
    out = tmp_path / "run"
    out.mkdir()
    run_ok(["cluster", *common(instance, out), "--K", "2"])
    run_ok(["evaluate", *common(instance, out), "--reduction",
            out / "reduction.json"])
    # the benchmark, the reduced program and its two drop-one programs
    assert solved == ["solve_benchmark"] + ["solve_stochastic"] * 3
    solved.clear()
    run_ok(["compare", *common(instance, out), "--methods", "pdsr,km_e,ws",
            "--K", "2"])
    after_evaluate = solved[:]
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    run_ok(["compare", *common(instance, fresh), "--methods", "pdsr,km_e,ws",
            "--K", "2"])
    for name in ("table.json", "table.csv"):
        assert (out / name).read_bytes() == (fresh / name).read_bytes(), name
    # the fresh compare solves the benchmark and each distinct reduction;
    # after evaluate, all but the benchmark and pdsr's reduction
    assert solved[:len(after_evaluate)] == after_evaluate
    assert solved[len(after_evaluate):] == ["solve_benchmark",
                                            *after_evaluate, "solve_stochastic"]

    report, record = (out / "report.json").read_bytes(), (out / "solves.json")
    before = record.read_bytes()
    solved.clear()
    run_ok(["evaluate", *common(instance, out), "--reduction",
            out / "reduction.json"])
    assert solved == []
    assert (out / "report.json").read_bytes() == report
    assert record.read_bytes() == before   # nothing added, nothing written
    # evaluate's four programs and the reduction only km_e or ws picked,
    # read back as written
    fp = json.loads((out / "F.meta.json").read_text())["fingerprint"]
    programs = json.loads(before)["programs"]
    loaded = load_solves(record, fp, len(programs[0]["values"])).programs
    assert len(loaded) == len(programs) == 5
    for p, (values, objective) in zip(programs, loaded.values()):
        assert [repr(float(v)) for v in values] == p["values"]
        assert repr(objective) == p["objective"]


def _record_other_fingerprint(text):
    # the values are wrong too, so reading them would show in the report
    payload = json.loads(text)
    payload["fingerprint"] = "0" * 64
    for p in payload["programs"]:
        p["values"] = ["0.0"] * len(p["values"])
    return json.dumps(payload)


def _record_invalid_json(text):
    return text[:len(text) // 2]


def _record_short_decision(text):
    payload = json.loads(text)
    payload["programs"][0]["values"].pop()
    return json.dumps(payload)


def _record_nan_value(text):
    payload = json.loads(text)
    payload["programs"][0]["values"][0] = "nan"
    return json.dumps(payload)


@pytest.mark.parametrize("corrupt", [_record_other_fingerprint,
                                     _record_invalid_json,
                                     _record_short_decision,
                                     _record_nan_value],
                         ids=["other_fingerprint", "invalid_json",
                              "short_decision", "nan_value"])
def test_bad_record_is_read_as_empty_and_rewritten(instance, tmp_path,
                                                   corrupt):
    outputs = _readme_run(instance, tmp_path / "good")
    good = (tmp_path / "good" / "solves.json").read_text()
    out = tmp_path / "run"
    out.mkdir()
    (out / "solves.json").write_text(corrupt(good))
    assert _readme_run(instance, out) == outputs
    # the same programs, solved again in the same order
    assert (out / "solves.json").read_text() == good


def test_time_limited_benchmark_is_not_recorded(instance, tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    args = ["compare", *common(instance, out), "--methods", "pdsr,km_e",
            "--K", "2"]
    run_ok([*args, "--benchmark-time-limit", "1e-9"])
    payload = json.loads((out / "solves.json").read_text())
    assert payload["programs"]
    assert all(p["scenarios"] != list(range(4)) for p in payload["programs"])
    run_ok(args)
    table = json.loads((out / "table.json").read_text())
    assert table[0]["og_pct"] == 0.0
    assert table[0]["objective_on_full"] is not None
    # a recorded benchmark is not read by a time-limited solve either
    run_ok(["cluster", *common(instance, out), "--K", "2"])
    run_ok(["evaluate", *common(instance, out), "--reduction",
            out / "reduction.json", "--benchmark-time-limit", "1e-9"])
    report = json.loads((out / "report.json").read_text())
    assert report["benchmark_objective"] is None


def _uc_config_rejected(uc_instance, tmp_path, capsys, edit, message):
    """``edit`` of the UC desk config fails ``UcConfig.from_dict`` with
    ``message``, and ``pdsr project`` on it exits 1 printing ``message``."""
    from pdsr.errors import ConfigError
    from pdsr.uc import UcConfig
    config = json.loads((uc_instance / "config.json").read_text())
    edit(config)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        UcConfig.from_dict(json.loads(json.dumps(config)))
    (tmp_path / "bad.json").write_text(json.dumps(config))
    args = common(uc_instance, tmp_path / "run")
    args[1] = "uc"
    args[args.index("--config") + 1] = tmp_path / "bad.json"
    capsys.readouterr()
    assert main([str(a) for a in ["project", *args]]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "run" / "F.csv").exists()


@pytest.mark.parametrize("u0", [0.5, 2, True])
def test_initial_commitment_must_be_zero_or_one(uc_instance, tmp_path,
                                                capsys, u0):
    # u0 = 0.5 or 2 once loaded and solved to another objective
    _uc_config_rejected(uc_instance, tmp_path, capsys,
                        _set("generators", 1, "u0", u0),
                        "generator 1: u0 must be ")


@pytest.mark.parametrize("value", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
def test_line_susceptance_must_be_finite(uc_instance, tmp_path, capsys,
                                         value):
    # a non-finite susceptance lands in the flow rows and used to fail only
    # at the first solve, as a non-finite constraint coefficient
    _uc_config_rejected(uc_instance, tmp_path, capsys,
                        _set("lines", 1, 2, value),
                        "line (1,2): susceptance must be finite")


@pytest.mark.parametrize("problem", ["adn", "uc"])
@pytest.mark.parametrize("edit, message", [
    (_set("lines", 0, [0, 1]), "line 0 must be [from, to, "),
    (_set("lines", 0, 2, "0.01"), "line 0: {field} must be a real number, "
                                  "got '0.01'"),
    (_set("lines", 0, 5), "line 0 must be [from, to, "),
    (_set("lines", 0, None), "line 0 must be [from, to, "),
    (_set("lines", None), "lines must be a list, got None"),
], ids=["short", "string_field", "number", "null", "no_list"])
def test_line_of_the_wrong_shape_rejected(instance, uc_instance, tmp_path,
                                          capsys, problem, edit, message):
    # each once ended in a traceback where a compile step unpacked the
    # line; the config is rejected when it loads, naming the line
    desk = instance if problem == "adn" else uc_instance
    message = message.format(field="r" if problem == "adn" else "susceptance")
    config = json.loads((desk / "config.json").read_text())
    edit(config)
    (tmp_path / "bad.json").write_text(json.dumps(config))
    args = common(desk, tmp_path / "run")
    args[1] = problem
    args[args.index("--config") + 1] = tmp_path / "bad.json"
    capsys.readouterr()
    assert main([str(a) for a in ["project", *args]]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "run" / "F.csv").exists()


def test_negative_price_rejected(instance, tmp_path, capsys):
    # the ADN program has no trade-direction binaries, which is exact only
    # at prices >= 0; the error names the scenario and the step
    lines = (instance / "scenarios.csv").read_text().splitlines(keepends=True)
    k = next(k for k, line in enumerate(lines)
             if line.startswith("s002,price,5,"))
    lines[k] = "s002,price,5,-2.5\n"
    (tmp_path / "bad.csv").write_text("".join(lines))
    args = common(instance, tmp_path / "run")
    args[args.index("--scenarios") + 1] = tmp_path / "bad.csv"
    capsys.readouterr()
    assert main([str(a) for a in ["project", *args]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "scenario 's002': price at step 5 is -2.5, must be >= 0" in err
    assert not (tmp_path / "run" / "F.csv").exists()
