"""The compiled programs pin their output: every assembled solver array,
the bounds, the names, the gating triples (ADN only: a UC program and the
clustering MILP have none) and the objective groups of the ADN and UC desk
programs and of the clustering MILP hash to fixed digests.  A change to how
a model emits its rows must reproduce each of them bit for bit.  Every row
goes through ``MixedBinaryModel.add_row``, which drops zero coefficients:
the zero-handling case, a UC desk whose start-up cost is 0, pins that its
start-cost row holds no ``V`` entry.  A problem keeps one structure per
scenario count, and its scenario weights are data: a program stamped from
a kept structure, whether of one scenario or of several with any weights,
must hash like the same program compiled on a fresh problem, and stay
independent of the programs stamped before it.

Running this file prints every pin for the code as it is, in the form of
``EXPECTED`` and ``EXPECTED_CLUSTERING`` below."""

import dataclasses
import hashlib
import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from pdsr.adn import AdnProblem, make_desk_instance
from pdsr.clustering import _clustering_model, compute_pdd
from pdsr.errors import ConfigError, ModelError
from pdsr.milp import DEFAULT_GAP_TOL, LE
from pdsr.projection import ProblemSpaceMatrix
from pdsr.scenarios import Scenario
from pdsr.uc import UcProblem, make_uc_desk_instance


def _digests(model):
    arrays = model._assembled()
    A, lower, upper = arrays.constraints
    parts = {
        "c": arrays.c, "integrality": arrays.integrality,
        "indptr": A.indptr, "indices": A.indices, "data": A.data,
        "lower": lower, "upper": upper, "entry_col": arrays.entry_col,
        "lb": np.array(model.lb, dtype=float),
        "ub": np.array(model.ub, dtype=float),
        "var_names": "\n".join(model.var_names).encode(),
        "gating": repr(model.gating).encode(),
        "obj_groups": repr(model.obj_groups).encode(),
    }
    return {key: hashlib.sha256(value if isinstance(value, bytes)
                                else np.ascontiguousarray(value).tobytes())
            .hexdigest()[:16] for key, value in parts.items()}


def _uc_zero_costs(seed, n):
    cfg, ss = make_uc_desk_instance(seed=seed, n_scenarios=n)
    cfg.generators = [dataclasses.replace(g, p_min=0.0, cost_start=0.0)
                      for g in cfg.generators]
    return cfg, ss


_PROBLEMS = {
    "adn": (lambda: make_desk_instance(seed=0, n_scenarios=5), AdnProblem),
    "uc": (lambda: make_uc_desk_instance(seed=0, n_scenarios=5), UcProblem),
    "uc_zero": (lambda: _uc_zero_costs(0, 5), UcProblem),
}

_SELECTIONS = {
    "one": lambda ss: ([ss.scenarios[2]], [1.0]),
    "full": lambda ss: (ss.scenarios, ss.probabilities),
    "subset": lambda ss: ([ss.scenarios[i] for i in (4, 0, 3)],
                          [0.5, 0.3, 0.2]),
}


def _model(problem, selection):
    make, cls = _PROBLEMS[problem]
    cfg, ss = make()
    scenarios, weights = _SELECTIONS[selection](ss)
    return cls(cfg, ss.source_names).build_model(scenarios, weights)


EXPECTED = {
    ('adn', 'one'): {
        'c': '4e1f7867d3af5f2f',
        'integrality': 'e0870d35e0f787b6',
        'indptr': 'e0e846f178851e5a',
        'indices': '0e1f0a7e79fdd598',
        'data': '3b4f6cbf2e345938',
        'lower': '7d0c965d45ff9fd0',
        'upper': '857fe345e6991821',
        'entry_col': '5f7e7a2b2747edb0',
        'lb': '6daf073624a49d24',
        'ub': 'c299edab323f5759',
        'var_names': 'eb6e967024de1c15',
        'gating': '2f7fda3c7f11ff59',
        'obj_groups': '67e4bb8cfdc2db85',
    },
    ('adn', 'full'): {
        'c': '3c0f4bcbc53e65d4',
        'integrality': 'e3a4a4fefaac4b20',
        'indptr': '687e1b8df95b9a0b',
        'indices': '722b642cb7cc5d6f',
        'data': 'a92ea38e1ab54523',
        'lower': '913c7151b34bd148',
        'upper': 'f8bbc7b75f1616cc',
        'entry_col': '405d139a1488c0e4',
        'lb': '34f89e477b0e286d',
        'ub': '10cc250a809c1b45',
        'var_names': 'fc51bfe54c1e27d5',
        'gating': '425b9ef199231b62',
        'obj_groups': '81e1a810c29c379a',
    },
    ('adn', 'subset'): {
        'c': '6a145c15964c7feb',
        'integrality': 'c1ececffbca03299',
        'indptr': '9a512966145ee726',
        'indices': '356af68d2580ac2a',
        'data': '8ced5fceb91bc0ac',
        'lower': 'c272d248c3e1c78a',
        'upper': '68c8e66dba4cb7e8',
        'entry_col': '9c78206ad47870ef',
        'lb': '81301faa764c0db0',
        'ub': '1ca12f5fcfe676c3',
        'var_names': '5d4556654faddb35',
        'gating': '4ef3d2defa077e32',
        'obj_groups': '4bb0d7b0594a4d5f',
    },
    ('uc', 'one'): {
        'c': '5d8e1fe29800cd70',
        'integrality': '0c190217a6b8beda',
        'indptr': '064781446db9889c',
        'indices': 'ddef1246f448a20f',
        'data': '7c1712c13f1babd1',
        'lower': '353e8bf366cc1ba4',
        'upper': '1f950ab2d734185f',
        'entry_col': '8f59a3b6e77bf712',
        'lb': '49c87821400c7630',
        'ub': '2dd4dba7104e22c2',
        'var_names': '0b07605cbd583d69',
        'gating': '4f53cda18c2baa0c',
        'obj_groups': '35bc2a8101d5d62f',
    },
    ('uc', 'full'): {
        'c': '89679122c37742c7',
        'integrality': '10a7cb39a7357750',
        'indptr': 'cabe102fe84cf0a2',
        'indices': '835d307356911a98',
        'data': '55f88dade6b7da08',
        'lower': '1e3ea6f6e3323799',
        'upper': 'b25b07c7862fc599',
        'entry_col': '8a4f192b9058f226',
        'lb': '3b5f0a70052c7825',
        'ub': 'e1028d7a268cc9ea',
        'var_names': 'cdb4fb842172bb42',
        'gating': '4f53cda18c2baa0c',
        'obj_groups': 'd01584895203efd3',
    },
    ('uc', 'subset'): {
        'c': '2132cef070a7b093',
        'integrality': 'da1bd68dd8ed176d',
        'indptr': '5c36987ce9f85bc5',
        'indices': 'a118b257ea06bd1e',
        'data': 'e1a1975850a73b3b',
        'lower': 'aaa4005f2f5176ef',
        'upper': 'a434b07c95f9f9c6',
        'entry_col': '57bbb67211ea3d9a',
        'lb': '564b5c03e1e963d1',
        'ub': 'c8e938fdb496740e',
        'var_names': 'a7812198024ae137',
        'gating': '4f53cda18c2baa0c',
        'obj_groups': '03ca104c86ce869c',
    },
    ('uc_zero', 'one'): {
        'c': '5d8e1fe29800cd70',
        'integrality': '0c190217a6b8beda',
        'indptr': 'adeb41abc3eab092',
        'indices': '3e61c382fbb41aa8',
        'data': '79a6f4f003ce6d64',
        'lower': '353e8bf366cc1ba4',
        'upper': '1f950ab2d734185f',
        'entry_col': '7fb3b98aa7d3299b',
        'lb': '49c87821400c7630',
        'ub': '2dd4dba7104e22c2',
        'var_names': '0b07605cbd583d69',
        'gating': '4f53cda18c2baa0c',
        'obj_groups': '35bc2a8101d5d62f',
    },
    ('uc_zero', 'full'): {
        'c': '89679122c37742c7',
        'integrality': '10a7cb39a7357750',
        'indptr': '478ddb083a05268a',
        'indices': '450993c72046e2e5',
        'data': '0a5aff5735b1ba18',
        'lower': '1e3ea6f6e3323799',
        'upper': 'b25b07c7862fc599',
        'entry_col': '276ab1537df26934',
        'lb': '3b5f0a70052c7825',
        'ub': 'e1028d7a268cc9ea',
        'var_names': 'cdb4fb842172bb42',
        'gating': '4f53cda18c2baa0c',
        'obj_groups': 'd01584895203efd3',
    },
    ('uc_zero', 'subset'): {
        'c': '2132cef070a7b093',
        'integrality': 'da1bd68dd8ed176d',
        'indptr': '3439e4db1dd42033',
        'indices': '615311f4bbce8a42',
        'data': '190d317bbbfb0365',
        'lower': 'aaa4005f2f5176ef',
        'upper': 'a434b07c95f9f9c6',
        'entry_col': 'd3836df33141b422',
        'lb': '564b5c03e1e963d1',
        'ub': 'c8e938fdb496740e',
        'var_names': 'a7812198024ae137',
        'gating': '4f53cda18c2baa0c',
        'obj_groups': '03ca104c86ce869c',
    },
}


@pytest.mark.parametrize("problem, selection", sorted(EXPECTED))
def test_compiled_arrays_match_their_digests(problem, selection):
    assert _digests(_model(problem, selection)) == EXPECTED[problem, selection]


# the clustering MILP on the distances of the seed-0 adn6 desk, from the
# projection matrix its benchmark reference records (no solve runs here)
_REFERENCE_F = (Path(__file__).resolve().parent.parent / "perfbench"
                / "reference" / "adn6-pipeline.json")

_CLUSTERINGS = {"fixed_k": dict(beta=None, fixed_k=4),
                "beta": dict(beta=100.0, fixed_k=None)}


def _clustering(case):
    with open(_REFERENCE_F) as fh:
        F = np.array(json.load(fh)["instances"][0]["F"])
    n = len(F)
    pdd = compute_pdd(ProblemSpaceMatrix(F, [], [f"s{i}" for i in range(n)],
                                         "", DEFAULT_GAP_TOL))
    model, _, _ = _clustering_model(pdd.values, np.full(n, 1.0 / n),
                                    **_CLUSTERINGS[case])
    return model


EXPECTED_CLUSTERING = {
    'fixed_k': {
        'c': '9ab369352af82ca8',
        'integrality': 'ad1cdb9ff68f44b5',
        'indptr': 'feab1f9493a5937d',
        'indices': '378bb295b4690c10',
        'data': 'd1525206ba61cee6',
        'lower': 'a1ed8a8e077f8019',
        'upper': 'e7a49cab2e2308cf',
        'entry_col': '1afaaf4665259dd7',
        'lb': '52a3e0804d93dc52',
        'ub': '09ac88f11d677f2e',
        'var_names': 'ee50b8f862572975',
        'gating': '4f53cda18c2baa0c',
        'obj_groups': 'cd7e32644b77a621',
    },
    'beta': {
        'c': '8df0eed779a68de8',
        'integrality': 'ad1cdb9ff68f44b5',
        'indptr': '6a7e9dfaef2ed204',
        'indices': '2d341bc47d6fdfb3',
        'data': '4cd8775c9cc27d30',
        'lower': '24611f85cea8c68f',
        'upper': '9b9e8cb8e44cfc3a',
        'entry_col': 'de2dbf352d785b9a',
        'lb': '52a3e0804d93dc52',
        'ub': '09ac88f11d677f2e',
        'var_names': 'ee50b8f862572975',
        'gating': '4f53cda18c2baa0c',
        'obj_groups': 'a75413d22179b146',
    },
}


@pytest.mark.parametrize("case", sorted(_CLUSTERINGS))
def test_clustering_arrays_match_their_digests(case):
    assert _digests(_clustering(case)) == EXPECTED_CLUSTERING[case]


def _desk(problem, seed):
    """(problem class, config, scenario set) of a ``_PROBLEMS`` desk made
    from ``seed``."""
    make = {"adn": make_desk_instance, "uc": make_uc_desk_instance,
            "uc_zero": _uc_zero_costs}[problem]
    return (_PROBLEMS[problem][1], *make(seed, 5))


def _edited(ss, scenario, source, value):
    """``scenario`` with row ``source`` scaled by ``value`` (a number) or
    replaced by zeros (``value`` None)."""
    values = scenario.values.copy()
    u = ss.source_names.index(source)
    values[u] = 0.0 if value is None else values[u] * value
    return Scenario(f"{scenario.id}-{source}", values)


def _variants(problem, ss):
    """Scenarios to stamp one after another: plain ones, a zero renewable,
    and on ADN a zero price (a negative one is rejected:
    ``test_negative_price_is_rejected_where_it_is_written``)."""
    a, b = ss.scenarios[1], ss.scenarios[3]
    out = [a, b, _edited(ss, b, "wt1", None)]
    if problem == "adn":
        out += [_edited(ss, a, "price", 0.0), _edited(ss, a, "pv1", None)]
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("problem", sorted(_PROBLEMS))
def test_stamped_program_matches_a_fresh_compile(problem, seed):
    cls, cfg, ss = _desk(problem, seed)
    kept = cls(cfg, ss.source_names)
    variants = _variants(problem, ss)
    for prev, scen in zip([None, *variants], variants):
        if prev is not None:
            kept.build_model([prev], [1.0])
        stamped = kept.build_model([scen], [1.0])
        fresh = cls(cfg, ss.source_names).build_model([scen], [1.0])
        assert _digests(stamped) == _digests(fresh), scen.id
    assert kept._structures[1].model._matrix is stamped._matrix


@pytest.mark.parametrize("problem", sorted(_PROBLEMS))
def test_multi_scenario_programs_match_a_fresh_compile(problem):
    # the full set, then two three-scenario programs with other scenarios
    # and weights, all on one problem: weights are data, so both
    # three-scenario programs are copies of one kept structure
    cls, cfg, ss = _desk(problem, 0)
    kept = cls(cfg, ss.source_names)
    programs = [(ss.scenarios, ss.probabilities),
                _SELECTIONS["subset"](ss),
                ([ss.scenarios[i] for i in (1, 2, 4)], [0.25, 0.25, 0.5])]
    models = []
    for scenarios, weights in programs:
        models.append(kept.build_model(scenarios, weights))
        fresh = cls(cfg, ss.source_names).build_model(scenarios, weights)
        assert _digests(models[-1]) == _digests(fresh)
    assert _digests(models[0]) == EXPECTED[problem, "full"]
    assert _digests(models[1]) == EXPECTED[problem, "subset"]
    assert models[1]._matrix is models[2]._matrix


@pytest.mark.parametrize("problem", sorted(_PROBLEMS))
def test_first_compiles_on_two_threads_agree(problem):
    cls, cfg, ss = _desk(problem, 0)
    shared = cls(cfg, ss.source_names)
    scen = ss.scenarios[2]
    start = threading.Barrier(2)
    models = [None, None]

    def compile_one(k):
        start.wait()
        models[k] = shared.build_model([scen], [1.0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=compile_one, args=(k,))
                   for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    fresh = _digests(cls(cfg, ss.source_names).build_model([scen], [1.0]))
    assert _digests(models[0]) == _digests(models[1]) == fresh
    # one kept structure, so the copies share one matrix and can hand a
    # HiGHS instance on (MixedBinaryModel.take_highs)
    assert models[0]._matrix is models[1]._matrix
    assert EXPECTED[problem, "one"] == fresh


@pytest.mark.parametrize("problem", sorted(_PROBLEMS))
def test_changing_a_stamped_program_leaves_the_next_one(problem):
    cls, cfg, ss = _desk(problem, 0)
    kept = cls(cfg, ss.source_names)
    scen = ss.scenarios[2]
    first = kept.build_model([scen], [1.0])
    expected = _digests(first)
    x = 0  # the first first-stage column
    first.set_bounds(x, 0.0, 0.0)
    first.ub[1] = -1.0
    first.add_objective(x, 5.0, group="extra")
    first.obj_groups["in_penalty"].clear()
    first.gating.append((x, x, x))
    first.var_names[2] = "renamed"
    first.set_rhs(0, 7.0)
    first.add_row([x], [1.0], LE, 3.0)
    first.add_var("new", 0.0, 1.0, binary=True)
    changed = _digests(first)
    assert changed != expected
    second = kept.build_model([scen], [1.0])
    assert _digests(second) == expected
    assert second._matrix is not first._matrix
    assert EXPECTED[problem, "one"] == expected
    # the shared matrix is read-only
    A = second._assembled().constraints[0]
    with pytest.raises(ValueError):
        A.data[0] = 1.0


@pytest.mark.parametrize("source, scale, message", [
    ("load1", -1.0, "has lb > ub"),
    ("price", 5e306, "non-finite objective coefficient"),
], ids=["negative_load", "overflowing_price"])
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_stamped_data_is_checked(source, scale, message):
    # the checks a compile makes on scenario data run on every stamped
    # program, not only on the one that built the structure; a price near
    # the float limit is finite, but its balancing cost overflows
    cls, cfg, ss = _desk("adn", 0)
    kept = cls(cfg, ss.source_names)
    kept.build_model([ss.scenarios[0]], [1.0])._assembled()
    bad = _edited(ss, ss.scenarios[1], source, scale)
    for problem in (kept, cls(cfg, ss.source_names)):
        with pytest.raises(ModelError, match=message):
            problem.build_model([bad], [1.0])._assembled()


def test_negative_price_is_rejected_where_it_is_written():
    # the ADN program has no trade-direction binaries, which is exact only
    # at prices >= 0: a negative price is rejected on a stamped program,
    # alone or among others, naming its scenario and step
    cls, cfg, ss = _desk("adn", 0)
    kept = cls(cfg, ss.source_names)
    kept.build_model([ss.scenarios[0]], [1.0])
    bad = _edited(ss, ss.scenarios[3], "price", -1.0)
    message = r"^scenario 's003-price': price at step 0 is -\d"
    for problem in (kept, cls(cfg, ss.source_names)):
        with pytest.raises(ConfigError, match=message):
            problem.build_model([bad], [1.0])
        with pytest.raises(ConfigError, match=message):
            problem.build_model([ss.scenarios[0], bad], [0.5, 0.5])
    zero = bad.values.copy()
    zero[ss.source_names.index("price"), 1:] = 0.0
    zero[ss.source_names.index("price"), 0] = -0.0
    kept.build_model([Scenario("zero", zero)], [1.0])


def _print_pins(name, models):
    print(f"{name} = {{")
    for key, model in models:
        print(f"    {key!r}: {{")
        for part, value in _digests(model).items():
            print(f"        {part!r}: {value!r},")
        print("    },")
    print("}")


if __name__ == "__main__":  # prints every pin for the code as it is
    _print_pins("EXPECTED", [((problem, selection), _model(problem, selection))
                             for problem in _PROBLEMS
                             for selection in _SELECTIONS])
    _print_pins("EXPECTED_CLUSTERING", [(case, _clustering(case))
                                        for case in _CLUSTERINGS])
