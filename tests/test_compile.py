"""The problem compilers pin their output: every assembled solver array,
the bounds, the names, the gating triples and the objective groups of the
ADN and UC desk programs hash to fixed digests.  A change to how a
compiler emits its rows must reproduce each of them bit for bit; the
zero-handling case pins that compiler rows drop zero coefficients while
``add_constraint`` rows keep theirs.  A one-scenario program stamped from a
problem's kept structure must hash like the same program compiled on a
fresh problem, and stay independent of the programs stamped before it."""

import dataclasses
import hashlib
import sys
import threading

import numpy as np
import pytest

from pdsr.adn import AdnProblem, make_desk_instance
from pdsr.errors import ModelError
from pdsr.milp import LE
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
        'c': '982e24462f9e72ac',
        'integrality': '5e7b8f94082f4c92',
        'indptr': 'ea31d30d5cd774dd',
        'indices': 'eb96413769509fdb',
        'data': 'b4b273a06b20cf04',
        'lower': '23adf49bebcae6a2',
        'upper': '84434d9db38ee63f',
        'entry_col': '2f5a232f561b887a',
        'lb': '1a78aab1d135da23',
        'ub': '777d622d08baf67b',
        'var_names': 'fdd356c632b95762',
        'gating': '9711558428173138',
        'obj_groups': '8a276b5b99c537d4',
    },
    ('adn', 'full'): {
        'c': 'f9d61197505a580a',
        'integrality': '96846e40b4831618',
        'indptr': '56c0bde6f87dd85d',
        'indices': 'ceed1dd0b11ec4cc',
        'data': '27d0d3eb39e63173',
        'lower': '05f62350056a36c9',
        'upper': '59783e47aebbd488',
        'entry_col': '4c047a60d89d3929',
        'lb': '860c6da4604b6443',
        'ub': '28e998604c9ddac0',
        'var_names': 'a0c864c311bbe398',
        'gating': 'bc24637c7c740338',
        'obj_groups': 'b6d2ac765a5a9b60',
    },
    ('adn', 'subset'): {
        'c': 'd3bac04cab7bc102',
        'integrality': '49cf12cb9c7832a8',
        'indptr': '69a26cdce95cceb4',
        'indices': 'ccfed5e6039d84a1',
        'data': '849267e49dfcb90f',
        'lower': 'a90e327bf0b85d01',
        'upper': '53d9a9e266fd4a98',
        'entry_col': '256466159f354cc2',
        'lb': 'cbfa9a582c340bd8',
        'ub': '784e6e5f7d48a3c4',
        'var_names': 'eba738294f1936a6',
        'gating': '31864a18112f194b',
        'obj_groups': '82dc552347d5c64f',
    },
    ('uc', 'one'): {
        'c': 'ceb1edbdb9fbafde',
        'integrality': 'ec553e3f618e04d5',
        'indptr': '5576d204d73212db',
        'indices': 'fd9519c9cf38b29a',
        'data': 'bfaf2b39d7f426f8',
        'lower': '849e34e7ed1ce78d',
        'upper': '87d946145e551c73',
        'entry_col': '3cea2e2c12aa706a',
        'lb': '9b40113a70d06445',
        'ub': '1f2b9d34c2a52c04',
        'var_names': 'fb088d8f4ce7eb9e',
        'gating': 'ba0a4bada1ed72f7',
        'obj_groups': '62b25fb7df1c1b5f',
    },
    ('uc', 'full'): {
        'c': '2456d5d2956389a5',
        'integrality': '7237c89b20c38d82',
        'indptr': '36efe30f65c16929',
        'indices': '809a53b47880a404',
        'data': '6670179b87a2160f',
        'lower': 'b8391b4c15852c3a',
        'upper': '3384ba19db194047',
        'entry_col': 'bed5e18a4934db8b',
        'lb': '2823c30c38493712',
        'ub': '9134df616c03f3cb',
        'var_names': '5a5758b2f224a30a',
        'gating': '11731145b843c97e',
        'obj_groups': '1693144a100ebab1',
    },
    ('uc', 'subset'): {
        'c': 'b6d783bf5cb2d908',
        'integrality': '63299743537f3db0',
        'indptr': '861d86889009ecac',
        'indices': '9137aa27479e32b8',
        'data': '1137edeab06d53f1',
        'lower': 'a1ae5ea7f47fbe04',
        'upper': 'f142a40c2e265ae6',
        'entry_col': '9d7a74f4cbe4923d',
        'lb': '3139ce7c01d3566a',
        'ub': '847ad6b01ce4f259',
        'var_names': 'e6340d00fc0afb87',
        'gating': 'd209d49deba3897d',
        'obj_groups': 'dccc69930b4438de',
    },
    ('uc_zero', 'one'): {
        'c': 'ceb1edbdb9fbafde',
        'integrality': 'ec553e3f618e04d5',
        'indptr': 'c298946605589ad0',
        'indices': '5bb627bd56c3dd15',
        'data': '88a94ad20847bfc8',
        'lower': '849e34e7ed1ce78d',
        'upper': '87d946145e551c73',
        'entry_col': 'c95bcba783678b07',
        'lb': '9b40113a70d06445',
        'ub': '1f2b9d34c2a52c04',
        'var_names': 'fb088d8f4ce7eb9e',
        'gating': 'ba0a4bada1ed72f7',
        'obj_groups': '62b25fb7df1c1b5f',
    },
    ('uc_zero', 'full'): {
        'c': '2456d5d2956389a5',
        'integrality': '7237c89b20c38d82',
        'indptr': '0c3693c9e54154fd',
        'indices': '1a17f3a6c9ac2ef9',
        'data': '8e3725b3915d2624',
        'lower': 'b8391b4c15852c3a',
        'upper': '3384ba19db194047',
        'entry_col': 'e9c5c3318ae12f03',
        'lb': '2823c30c38493712',
        'ub': '9134df616c03f3cb',
        'var_names': '5a5758b2f224a30a',
        'gating': '11731145b843c97e',
        'obj_groups': '1693144a100ebab1',
    },
    ('uc_zero', 'subset'): {
        'c': 'b6d783bf5cb2d908',
        'integrality': '63299743537f3db0',
        'indptr': '97dd6055b3041794',
        'indices': '50c7e0c801e25ba3',
        'data': 'bebcecab2d0caecb',
        'lower': 'a1ae5ea7f47fbe04',
        'upper': 'f142a40c2e265ae6',
        'entry_col': '33976c8dd028df2c',
        'lb': '3139ce7c01d3566a',
        'ub': '847ad6b01ce4f259',
        'var_names': 'e6340d00fc0afb87',
        'gating': 'd209d49deba3897d',
        'obj_groups': 'dccc69930b4438de',
    },
}


@pytest.mark.parametrize("problem, selection", sorted(EXPECTED))
def test_compiled_arrays_match_their_digests(problem, selection):
    assert _digests(_model(problem, selection)) == EXPECTED[problem, selection]


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
    and on ADN a zero and a negative price."""
    a, b = ss.scenarios[1], ss.scenarios[3]
    out = [a, b, _edited(ss, b, "wt1", None)]
    if problem == "adn":
        out += [_edited(ss, a, "price", 0.0), _edited(ss, b, "price", -1.0),
                _edited(ss, a, "pv1", None)]
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
    assert kept._single.model._matrix is stamped._matrix


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


if __name__ == "__main__":  # prints EXPECTED for the compilers as they are
    for problem in _PROBLEMS:
        for selection in _SELECTIONS:
            print(f"    {(problem, selection)!r}: {{")
            for key, value in _digests(_model(problem, selection)).items():
                print(f"        {key!r}: {value!r},")
            print("    },")
