"""Self-test of the tracing harness: one traced `project` on an ADN N=4
instance with 1 worker.

    python3 perfbench/selftest.py

Checks exact counts (12 cross-evaluation cells, 16 MILP solves and 16 model
compiles: 4 diagonal + 12 cross), that spans nest with non-negative self
time, and that no pdsr binding is left wrapped afterwards.
"""

import shutil
import sys
import tempfile
from pathlib import Path

import run
import spans


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import pdsr
    from pdsr import cli

    wl = run.Workload("selftest", problem="adn", n=4, t=12, workers=1)
    run.WORK.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    tracer = spans.Tracer()
    try:
        assert all(ok for _, ok, _ in wl.make_instance(cli.main, 0, out))
        label, argv = wl.commands(0, out)[0]
        assert label == "project"
        with spans.tracing(tracer, pdsr):
            rc = run._quiet(cli.main, argv)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    assert rc == 0, f"project exited {rc}"

    m = spans.layer_metrics(tracer.spans)
    expected = {"projection.cells": 12, "milp.solve_milp.calls": 16,
                "adn.build_model.calls": 16, "uc.build_model.calls": 0,
                "projection.load.calls": 0}
    for name, want in expected.items():
        assert m[name] == want, f"{name} = {m[name]}, expected {want}"

    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        parent = by_id.get(s.parent)
        if s.parent is not None:
            assert parent is not None, f"{s.name}: parent {s.parent} missing"
            assert parent.start <= s.start <= s.end <= parent.end, \
                f"{s.name} is not inside {parent.name}"
    roots = [s.name for s in tracer.spans if s.parent is None]
    assert roots == ["cli.main"], f"root spans {roots}"
    negative = {by_id[i].name: t for i, t in spans.self_times(tracer.spans).items()
                if t < 0.0}
    assert not negative, f"negative self time: {negative}"

    left = spans.wrapped_bindings(pdsr)
    assert not left, f"bindings left wrapped: {left}"
    print(f"selftest ok: {len(tracer.spans)} spans, "
          + ", ".join(f"{k}={m[k]}" for k in expected))
    return 0


if __name__ == "__main__":
    sys.exit(main())
