"""Projection of a scenario set into problem space.

The projection cross-evaluates scenario-specific optima: entry (i, j) of
the matrix is the objective of scenario j dispatched with the first-stage
decision that is optimal for scenario i.  Each row is one task: its
diagonal solve gives decision i, which its off-diagonal entries then
need, and each of its programs takes over the HiGHS instance of the one
before, so they re-solve warm one after another.  The result is
independent of worker count and scheduling.

The matrix is cached as a CSV with scenario-id headers plus a JSON sidecar
carrying the fingerprint, decisions, and timings; a cache is only reusable
when problem configuration, scenario data, and gap tolerance all match.
The stochastic programs solved on the scenario set are recorded under the
same fingerprint (:class:`SolveRecord`), so a later command reuses them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CacheError, InconsistencyError, PdsrError
from .milp import DEFAULT_GAP_TOL
from .parallel import pmap
from .scenarios import ScenarioSet, dump_values_csv, dump_probabilities_csv
from .tsso import (FirstStageDecision, TssoProblem,
                   evaluate_with_fixed_first_stage, solve_scenario_specific,
                   solve_stochastic)


@dataclass
class ProblemSpaceMatrix:
    """N x N cross-evaluation matrix with the decisions that produced it."""

    values: np.ndarray                      # [i, j] = objective of j under decision i
    decisions: list[FirstStageDecision]
    scenario_ids: list[str]
    fingerprint: str
    gap_tol: float
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def check_diagonal_optimality(self):
        """The diagonal must be column-wise minimal up to twice the solver gap."""
        F = self.values
        for i in range(self.n):
            slack = 2.0 * self.gap_tol * abs(F[i, i])
            col_min = F[:, i].min()
            if F[i, i] > col_min + slack + 1e-9:
                raise InconsistencyError(
                    f"diagonal entry {i} exceeds its column minimum by "
                    f"{F[i, i] - col_min:.3e} (> {slack:.3e}); a subproblem "
                    "was not solved to the claimed gap")


def fingerprint(problem: TssoProblem, scenario_set: ScenarioSet,
                gap_tol: float = DEFAULT_GAP_TOL) -> str:
    """Stable hash of problem config + scenario data + gap tolerance."""
    h = hashlib.sha256()
    h.update(json.dumps(problem.fingerprint_payload(), sort_keys=True,
                        separators=(",", ":")).encode())
    h.update(dump_values_csv(scenario_set).encode())
    h.update(dump_probabilities_csv(scenario_set).encode())
    h.update(repr(float(gap_tol)).encode())
    return h.hexdigest()


def build_problem_space_matrix(problem: TssoProblem, scenario_set: ScenarioSet,
                               workers: int = 1,
                               gap_tol: float = DEFAULT_GAP_TOL) -> ProblemSpaceMatrix:
    """Solve the N scenario-specific programs and the N(N-1) cross
    evaluations, one row per task.

    Each scenario-specific optimum is taken as the solver returns it (ties
    among optima are its deterministic choice).  Row i solves scenario i's
    program for decision i, then evaluates that decision on every other
    scenario j in increasing order: cell (i, j) compiles scenario j's
    program and fixes its first stage at decision i by column bounds
    (:func:`evaluate_with_fixed_first_stage`).  The row's programs are
    copies of one compiled structure and share its matrix, so each takes
    over the HiGHS LP instance of the program before it, the diagonal's
    first (:meth:`~pdsr.milp.MixedBinaryModel.take_highs`), and its first
    LP starts from that one's basis.  A row is a fixed sequence of solves,
    so the matrix does not depend on the worker count.  A toolkit error in
    a diagonal or a cell is raised again, of its class, naming the cell.
    The timings are the busy seconds of the diagonal and the cross solves,
    summed over rows.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n = len(scenario_set)
    scenarios = scenario_set.scenarios

    def row(i: int):
        values = np.empty(n)
        t0 = time.monotonic()
        try:
            last = problem.build_model([scenarios[i]], [1.0])
            z, values[i] = solve_scenario_specific(
                problem, scenarios[i], gap_tol=gap_tol, source_index=i,
                model=last)
        except PdsrError as exc:
            raise type(exc)(
                f"scenario-specific solve failed at i={i}: {exc}") from exc
        t1 = time.monotonic()
        for j in range(n):
            if j == i:
                continue
            try:
                model = problem.build_model([scenarios[j]], [1.0])
                model.take_highs(last)
                values[j] = evaluate_with_fixed_first_stage(
                    problem, decision=z, scenario=scenarios[j],
                    gap_tol=gap_tol, model=model)
            except PdsrError as exc:
                raise type(exc)(
                    f"cross evaluation failed at (i={i}, j={j}): {exc}") from exc
            last = model
        return z, values, t1 - t0, time.monotonic() - t1

    decisions, values, diag_seconds, cross_seconds = zip(
        *pmap(row, range(n), workers))
    matrix = ProblemSpaceMatrix(
        values=np.array(values),
        decisions=list(decisions),
        scenario_ids=scenario_set.ids(),
        fingerprint=fingerprint(problem, scenario_set, gap_tol),
        gap_tol=gap_tol,
        meta={"first_stage_names": problem.first_stage_names(),
              "timings": {"diagonal_seconds": sum(diag_seconds),
                          "offdiagonal_seconds": sum(cross_seconds)}},
    )
    matrix.check_diagonal_optimality()
    return matrix


# -- cache ----------------------------------------------------------------


def _meta_path(path) -> Path:
    p = Path(path)
    name = p.name[:-4] if p.name.endswith(".csv") else p.name
    return p.with_name(name + ".meta.json")


def save_matrix(matrix: ProblemSpaceMatrix, path):
    """Write F.csv (+ .meta.json sidecar); floats round-trip losslessly."""
    p = Path(path)
    with open(p, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["scenario_id"] + matrix.scenario_ids)
        for i, sid in enumerate(matrix.scenario_ids):
            writer.writerow([sid] + [repr(float(v)) for v in matrix.values[i]])
    meta = {
        "fingerprint": matrix.fingerprint,
        "gap_tol": matrix.gap_tol,
        "scenario_ids": matrix.scenario_ids,
        "decisions": [{"values": [repr(float(v)) for v in d.values],
                       "objective_at_source": repr(float(d.objective_at_source)),
                       "source_scenario": d.source_scenario}
                      for d in matrix.decisions],
        "meta": matrix.meta,
    }
    with open(_meta_path(p), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_matrix(path, expected_fingerprint: str) -> ProblemSpaceMatrix:
    """Load a cached matrix; refuses a fingerprint mismatch and a cache
    that is truncated, reordered, of the wrong shape, holds a non-finite
    value or not one decision per scenario."""
    p = Path(path)
    try:
        with open(_meta_path(p)) as fh:
            meta = json.load(fh)
        ids = meta["scenario_ids"]
        with open(p, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != ["scenario_id"] + ids:
                raise CacheError(f"cache {p} header does not match its metadata")
            values = []
            for sid, row in zip(ids, reader):
                if not row or row[0] != sid or len(row) != len(ids) + 1:
                    raise CacheError(f"cache {p} is truncated or reordered")
                values.append([float(v) for v in row[1:]])
            if len(values) != len(ids):
                raise CacheError(f"cache {p} is truncated")
            if next(reader, None) is not None:
                raise CacheError(f"cache {p} has rows after its last scenario")
        decisions = [FirstStageDecision(np.array([float(v) for v in d["values"]]),
                                        float(d["objective_at_source"]),
                                        d["source_scenario"])
                     for d in meta["decisions"]]
        fp, gap_tol, extra = (meta["fingerprint"], float(meta["gap_tol"]),
                              meta.get("meta", {}))
    except CacheError:
        raise
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        # a JSONDecodeError is a ValueError
        raise CacheError(f"cannot read cached matrix {p}: {exc}") from exc
    if fp != expected_fingerprint:
        raise CacheError(
            "cached matrix fingerprint does not match the requested problem "
            "configuration/scenario data (stale cache)")
    values = np.array(values)
    if not (np.isfinite(values).all()
            and all(np.isfinite(d.values).all() for d in decisions)):
        raise CacheError(f"cache {p} holds a non-finite value")
    if len(decisions) != len(ids):
        raise CacheError(f"cache {p} holds {len(decisions)} decisions for "
                         f"{len(ids)} scenarios")
    return ProblemSpaceMatrix(values, decisions, list(ids), fp, gap_tol,
                              extra)


@dataclass
class SolveRecord:
    """Stochastic programs solved on one scenario set, under its
    :func:`fingerprint`: each program, named by its scenario indices and
    weights, maps to its decision and objective.  A program's first solve
    depends on nothing before it (the :mod:`pdsr.milp` determinism
    contract), so :meth:`get` returns what solving it again would, for a
    program solved without a time limit (:mod:`pdsr.evaluation`)."""

    fingerprint: str | None = None
    programs: dict = field(default_factory=dict)  # key -> (values, objective)
    added: bool = False                           # an entry since loading

    @staticmethod
    def _key(indices, weights) -> tuple:
        return (tuple(int(i) for i in indices),
                tuple(repr(float(w)) for w in weights))

    def get(self, indices, weights) -> FirstStageDecision | None:
        """The recorded decision of the program, or None."""
        hit = self.programs.get(self._key(indices, weights))
        return None if hit is None else FirstStageDecision(*hit)

    def put(self, indices, weights, decision: FirstStageDecision):
        self.programs[self._key(indices, weights)] = (
            decision.values, decision.objective_at_source)
        self.added = True


def load_solves(path, expected_fingerprint: str, n_first: int) -> SolveRecord:
    """The record saved at ``path``; never raises, as it is a cache: a
    missing or unreadable file, a wrong shape, another fingerprint, a
    non-finite value or a decision of other than ``n_first`` values reads
    as an empty record."""
    record = SolveRecord(expected_fingerprint)
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if payload["fingerprint"] != expected_fingerprint:
            return record
        programs = {}
        for p in payload["programs"]:
            indices, weights = p["scenarios"], [float(w) for w in p["weights"]]
            values = np.array([float(v) for v in p["values"]])
            objective = float(p["objective"])
            if (not all(type(i) is int for i in indices)
                    or values.shape != (n_first,)
                    or not np.isfinite([*weights, *values, objective]).all()):
                return record
            programs[SolveRecord._key(indices, weights)] = (values, objective)
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return record  # a JSONDecodeError is a ValueError
    record.programs = programs
    return record


def save_solves(record: SolveRecord, path):
    """Write the record whole: into a temporary file in the same directory,
    then moved over ``path``.  Floats are written as ``repr`` strings, so
    they round-trip exactly; a write that fails leaves ``path`` as it was
    and raises nothing, as the record is a cache."""
    p = Path(path)
    payload = {"fingerprint": record.fingerprint,
               "programs": [{"scenarios": list(indices),
                             "weights": list(weights),
                             "values": [repr(float(v)) for v in values],
                             "objective": repr(float(objective))}
                            for (indices, weights), (values, objective)
                            in record.programs.items()]}
    try:
        fd, tmp = tempfile.mkstemp(dir=p.parent, prefix=p.name, suffix=".tmp")
    except OSError:
        return
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, p)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def solve_benchmark(problem: TssoProblem, scenario_set: ScenarioSet,
                    gap_tol: float = DEFAULT_GAP_TOL,
                    time_limit: float | None = None):
    """Solve the full-set program (the reference every reduction is judged
    against).  Returns (decision, objective, solution)."""
    return solve_stochastic(problem, scenario_set.scenarios,
                            scenario_set.probabilities, gap_tol=gap_tol,
                            time_limit=time_limit)
