"""The benchmark's tracing harness still binds to the program's functions."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest():
    # the tracer binds evaluate_with_fixed_first_stage(decision=, scenario=)
    # and solve_stochastic(scenarios=, weights=) by parameter name, so a
    # signature change breaks the benchmark; the self-test catches it here
    result = subprocess.run([sys.executable, "perfbench/selftest.py"],
                            cwd=ROOT, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
