"""Scenario ingestion, validation, and round trips."""

import numpy as np
import pytest

from oracles import bad_scenario_ids, scenario_subset
from pdsr.errors import ScenarioFormatError
from pdsr.scenarios import Scenario, ScenarioSet, load_scenarios, save_scenarios


def write_values(path, rows):
    path.write_text("scenario_id,source,t,value\n"
                    + "".join(f"{r}\n" for r in rows))


def test_load_single_scenario_uniform_default(tmp_path):
    vals = tmp_path / "v.csv"
    write_values(vals, ["a,load1,0,1.5", "a,load1,1,2.5"])
    ss = load_scenarios(vals)
    assert len(ss) == 1
    assert ss.probabilities.tolist() == [1.0]
    assert ss.horizon == 2
    assert ss.scenarios[0].values.tolist() == [[1.5, 2.5]]


def test_load_with_probabilities_exact_quarter(tmp_path):
    vals = tmp_path / "v.csv"
    rows = [f"s{i},wt1,{t},0.{t+1}" for i in range(4) for t in range(2)]
    write_values(vals, rows)
    probs = tmp_path / "p.csv"
    probs.write_text("scenario_id,probability\n"
                     + "".join(f"s{i},0.25\n" for i in range(4)))
    ss = load_scenarios(vals, probs)
    assert ss.probabilities.sum() == 1.0


def test_load_rejects_bad_probability_sum(tmp_path):
    vals = tmp_path / "v.csv"
    write_values(vals, [f"s{i},load1,0,1.0" for i in range(3)])
    probs = tmp_path / "p.csv"
    probs.write_text("scenario_id,probability\ns0,0.5\ns1,0.3\ns2,0.3\n")
    with pytest.raises(ScenarioFormatError, match="sum"):
        load_scenarios(vals, probs)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_load_rejects_non_finite_probability(tmp_path, bad):
    # a NaN passes both the > 0 and the sum checks, and renormalizing then
    # makes every probability NaN
    vals = tmp_path / "v.csv"
    write_values(vals, [f"s{i},load1,0,1.0" for i in range(4)])
    probs = tmp_path / "p.csv"
    probs.write_text("scenario_id,probability\n"
                     f"s0,0.25\ns1,0.25\ns2,{bad}\ns3,0.25\n")
    with pytest.raises(ScenarioFormatError,
                       match="probabilities file line 4: non-finite"):
        load_scenarios(vals, probs)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_scenario_set_rejects_non_finite_probability(bad):
    scens = (Scenario("a", [[1.0]]), Scenario("b", [[2.0]]))
    with pytest.raises(ScenarioFormatError, match="finite"):
        ScenarioSet(scens, np.array([1.0, bad]), ("load1",))


def test_load_reports_line_numbers(tmp_path):
    vals = tmp_path / "v.csv"
    write_values(vals, ["a,load1,0,1.0", "a,load1,x,2.0"])
    with pytest.raises(ScenarioFormatError, match="line 3"):
        load_scenarios(vals)


def test_load_rejects_shape_mismatch(tmp_path):
    vals = tmp_path / "v.csv"
    write_values(vals, ["a,load1,0,1.0", "a,load1,1,1.0", "b,load1,0,1.0"])
    with pytest.raises(ScenarioFormatError, match="horizon|missing"):
        load_scenarios(vals)


def test_load_order_is_first_appearance(tmp_path):
    vals = tmp_path / "v.csv"
    write_values(vals, ["z,load1,0,1.0", "a,load1,0,2.0", "m,load1,0,3.0"])
    ss = load_scenarios(vals)
    assert ss.ids() == ["z", "a", "m"]


def test_load_order_is_first_appearance_with_interleaved_rows(tmp_path):
    # scenarios and sources come back after others; each keeps the place
    # of its first row
    vals = tmp_path / "v.csv"
    write_values(vals, ["b,wt1,1,0.5", "a,load1,0,2.0", "b,load1,0,3.0",
                        "a,wt1,1,0.25", "b,wt1,0,0.75", "a,load1,1,4.0",
                        "b,load1,1,5.0", "a,wt1,0,0.125"])
    ss = load_scenarios(vals)
    assert ss.ids() == ["b", "a"]
    assert ss.source_names == ("wt1", "load1")
    assert ss.scenarios[0].values.tolist() == [[0.75, 0.5], [3.0, 5.0]]
    assert ss.scenarios[1].values.tolist() == [[0.125, 0.25], [2.0, 4.0]]


def test_negative_power_source_rejected():
    with pytest.raises(ScenarioFormatError, match="negative"):
        ScenarioSet((Scenario("a", [[-1.0, 0.0]]),), np.array([1.0]), ("wt1",))


def test_price_source_may_be_negative():
    ss = ScenarioSet((Scenario("a", [[-5.0, 3.0]]),), np.array([1.0]), ("price",))
    assert ss.source_roles == ("price",)


def test_unknown_role_prefix_rejected():
    with pytest.raises(ScenarioFormatError, match="role"):
        ScenarioSet((Scenario("a", [[1.0]]),), np.array([1.0]), ("foo1",))


def test_duplicate_ids_rejected():
    scens = (Scenario("a", [[1.0]]), Scenario("a", [[2.0]]))
    with pytest.raises(ScenarioFormatError, match="unique"):
        ScenarioSet(scens, np.array([0.5, 0.5]), ("load1",))


@pytest.mark.parametrize("sid", [" a", "a "], ids=["leading", "trailing"])
def test_blank_edged_id_rejected(sid):
    # load_scenarios strips every field, so such an id would save and then
    # read back as another id, or clash with "a" as a duplicate
    with pytest.raises(ScenarioFormatError, match="leading or trailing blanks"):
        Scenario(sid, [[1.0]])


def test_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(42)
    scens = tuple(Scenario(f"s{i}", rng.uniform(0.0, 5.0, (3, 4)))
                  for i in range(5))
    ss = ScenarioSet(scens, np.full(5, 0.2), ("wt1", "load1", "price"))
    vpath, ppath = tmp_path / "v.csv", tmp_path / "p.csv"
    save_scenarios(ss, vpath, ppath)
    back = load_scenarios(vpath, ppath)
    for a, b in zip(ss.scenarios, back.scenarios):
        assert a.id == b.id
        assert np.array_equal(a.values, b.values)   # bit-identical
    assert np.array_equal(ss.probabilities, back.probabilities)
    # determinism: saving again is byte-identical
    v2 = tmp_path / "v2.csv"
    save_scenarios(back, v2)
    assert v2.read_bytes() == vpath.read_bytes()


def test_round_trip_quotes_ids_and_sources(tmp_path):
    # an id or source name holding a comma or a quote loads from a quoted
    # field, and must be written back quoted to load again
    rng = np.random.default_rng(43)
    ids = ["a,b", 'say "hi"', "plain"]
    scens = tuple(Scenario(sid, rng.uniform(0.0, 5.0, (2, 3))) for sid in ids)
    ss = ScenarioSet(scens, np.array([0.5, 0.25, 0.25]), ("load1,north", "wt1"))
    vpath, ppath = tmp_path / "v.csv", tmp_path / "p.csv"
    save_scenarios(ss, vpath, ppath)
    back = load_scenarios(vpath, ppath)
    assert back.ids() == ids
    assert back.source_names == ss.source_names
    for a, b in zip(ss.scenarios, back.scenarios):
        assert np.array_equal(a.values, b.values)
    assert np.array_equal(ss.probabilities, back.probabilities)
    v2 = tmp_path / "v2.csv"
    save_scenarios(back, v2)
    assert v2.read_bytes() == vpath.read_bytes()


def test_subset_renormalizes():
    scens = tuple(Scenario(f"s{i}", [[float(i)]]) for i in range(4))
    ss = ScenarioSet(scens, np.array([0.1, 0.2, 0.3, 0.4]), ("price",))
    sub = scenario_subset(ss, [1, 3])
    assert sub.ids() == ["s1", "s3"]
    assert sub.probabilities == pytest.approx([1 / 3, 2 / 3])


def test_bad_scenario_ids():
    scens = (Scenario("s0", [[1.0]]), Scenario("s1_bad", [[1.0]]))
    ss = ScenarioSet(scens, np.array([0.5, 0.5]), ("load1",))
    assert bad_scenario_ids(ss) == ["s1_bad"]
