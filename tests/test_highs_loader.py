"""How ``pdsr.milp`` finds HiGHS's bindings, each case in a fresh
interpreter: the bundled extension is loaded from its file, so importing
the CLI runs none of scipy's heavy subpackages, and it is registered under
its own name, so scipy and pdsr share one module in either import order."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
CORE = "scipy.optimize._highspy._core"

PRELUDE = f"""
import json, sys
sys.path.insert(0, {str(SRC)!r})

def tiny_objective():
    # max b + y s.t. 2b + 2y <= 3 over binaries: objective -1
    from pdsr.milp import LE, MixedBinaryModel, solve_milp
    m = MixedBinaryModel()
    b = m.add_var("b", 0.0, 1.0, binary=True)
    y = m.add_var("y", 0.0, 1.0, binary=True)
    m.add_objective(b, -1.0)
    m.add_objective(y, -1.0)
    m.add_row([b, y], [2.0, 2.0], LE, 3.0)
    return solve_milp(m).objective
"""


def _run(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON line last."""
    proc = subprocess.run([sys.executable, "-c", PRELUDE + code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_keeps_heavy_scipy_subpackages_out():
    # numpy installs warning filters of its own when it is imported
    out = _run("""
import warnings
import numpy
filters = list(warnings.filters)
import pdsr.cli, pdsr.milp
heavy = ("scipy.optimize", "scipy.sparse", "scipy.cluster")
print(json.dumps({"path": pdsr.milp._HIGHS_PATH,
                  "loaded": [m for m in heavy if m in sys.modules],
                  "filters_kept": warnings.filters == filters}))
""")
    assert out["filters_kept"]
    if out["path"] != "by file path":
        pytest.skip(f"HiGHS bindings loaded {out['path']}")
    assert out["loaded"] == []


def test_scipy_optimize_reuses_the_module_pdsr_loaded():
    # perfbench's order: pdsr.cli first, scipy.optimize in its host probe
    out = _run(f"""
import numpy as np
import pdsr.milp
objective = tiny_objective()
core = sys.modules[{CORE!r}]
import scipy.optimize
from scipy.optimize._highspy import _core
res = scipy.optimize.milp([-1.0, -1.0], integrality=[1, 1], bounds=(0, 1),
                          constraints=(np.array([[2.0, 2.0]]), -np.inf, 3.0))
print(json.dumps({{"path": pdsr.milp._HIGHS_PATH, "same": _core is core,
                  "status": int(res.status), "fun": float(res.fun),
                  "objective": objective}}))
""")
    if out["path"] != "by file path":
        pytest.skip(f"HiGHS bindings loaded {out['path']}")
    assert out["same"]
    assert out["status"] == 0 and out["fun"] == -1.0
    assert out["objective"] == -1.0


def test_pdsr_reuses_the_module_scipy_loaded():
    out = _run("""
import scipy.optimize
from scipy.optimize._highspy import _core
import pdsr.milp
print(json.dumps({"path": pdsr.milp._HIGHS_PATH,
                  "same": pdsr.milp._Highs is _core._Highs,
                  "objective": tiny_objective()}))
""")
    assert out == {"path": "already imported", "same": True, "objective": -1.0}


# the import system keeps its own reference to the loader class, and
# importlib.abc looks the class up by name, so only pdsr.milp sees this one
BROKEN_LOADER = """
import importlib.machinery

class ExtensionFileLoader(importlib.machinery.ExtensionFileLoader):
    def __init__(self, *args, **kwargs):
        raise ImportError("extension loader broken")

importlib.machinery.ExtensionFileLoader = ExtensionFileLoader
"""

# the normal import of the bindings fails as well, as on a scipy before 1.15
BLOCKED_IMPORT = f"""
class Block:
    def find_spec(self, name, path=None, target=None):
        if name == {CORE!r}:
            raise ImportError("no HiGHS bindings")

sys.meta_path.insert(0, Block())
"""


def test_failed_file_load_falls_back_to_the_normal_import():
    out = _run(BROKEN_LOADER + """
import pdsr.milp
print(json.dumps({"path": pdsr.milp._HIGHS_PATH,
                  "optimize": "scipy.optimize" in sys.modules,
                  "objective": tiny_objective()}))
""")
    assert out == {"path": "via scipy.optimize", "optimize": True,
                   "objective": -1.0}


def test_blocked_bindings_import_names_the_scipy_floor():
    out = _run(BROKEN_LOADER + BLOCKED_IMPORT + """
try:
    import pdsr.milp
    error = ""
except ImportError as exc:
    error = str(exc)
print(json.dumps({"error": error}))
""")
    assert "scipy>=1.15" in out["error"]
