"""Scenario-set ingestion, validation, and serialization.

A scenario is a matrix of source time series (MW for power sources, $/MWh
for price sources); a scenario set bundles N scenarios with strictly
positive probabilities summing to one.  Both are immutable after
construction and safe to share across workers.

CSV wire formats (long form, streaming-friendly):

* values:        header ``scenario_id,source,t,value``; ``t`` is a 0-based
                 integer below the horizon length.
* probabilities: header ``scenario_id,probability``.

Source roles are inferred from the source name prefix: ``wt``/``pv``
(renewable infeed), ``load``, and ``price``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ScenarioFormatError

ROLES = ("wt", "pv", "load", "price")
POWER_ROLES = ("wt", "pv", "load")


def role_of(source: str) -> str:
    for role in ("price", "load", "wt", "pv"):
        if source.startswith(role):
            return role
    raise ScenarioFormatError(
        f"source {source!r} has no recognized role prefix {ROLES}")


@dataclass(frozen=True)
class Scenario:
    """One joint realization of every uncertainty source over the horizon."""

    id: str
    values: np.ndarray  # shape (num_sources, T)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ScenarioFormatError(f"scenario {self.id!r}: values must be 2-D")
        if not np.all(np.isfinite(v)):
            raise ScenarioFormatError(f"scenario {self.id!r}: non-finite value")
        object.__setattr__(self, "values", v)

    @property
    def horizon(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ScenarioSet:
    """Ordered scenarios with probabilities and a shared source list."""

    scenarios: tuple[Scenario, ...]
    probabilities: np.ndarray
    source_names: tuple[str, ...]
    source_roles: tuple[str, ...] = field(default=())

    def __post_init__(self):
        scens = tuple(self.scenarios)
        if not scens:
            raise ScenarioFormatError("scenario set is empty")
        ids = [s.id for s in scens]
        if len(set(ids)) != len(ids):
            raise ScenarioFormatError("scenario ids are not unique")
        names = tuple(self.source_names)
        shape = (len(names), scens[0].horizon)
        for s in scens:
            if s.values.shape != shape:
                raise ScenarioFormatError(
                    f"scenario {s.id!r} has shape {s.values.shape}, expected {shape}")
        roles = tuple(self.source_roles) or tuple(role_of(n) for n in names)
        if len(roles) != len(names) or any(r not in ROLES for r in roles):
            raise ScenarioFormatError(f"bad source roles {roles}")
        for u, (name, role) in enumerate(zip(names, roles)):
            if role in POWER_ROLES:
                for s in scens:
                    if np.any(s.values[u] < 0.0):
                        raise ScenarioFormatError(
                            f"power source {name!r} negative in scenario {s.id!r}")
        probs = np.asarray(self.probabilities, dtype=float)
        if probs.shape != (len(scens),):
            raise ScenarioFormatError("probability vector has wrong length")
        if not np.isfinite(probs).all():
            raise ScenarioFormatError("scenario probabilities must be finite")
        if np.any(probs <= 0.0):
            raise ScenarioFormatError("scenario probabilities must be > 0")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ScenarioFormatError(
                f"probabilities sum to {probs.sum()!r}, expected 1 within 1e-9")
        object.__setattr__(self, "scenarios", scens)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "source_names", names)
        object.__setattr__(self, "source_roles", roles)

    def __len__(self) -> int:
        return len(self.scenarios)

    @property
    def horizon(self) -> int:
        return self.scenarios[0].horizon

    @property
    def num_sources(self) -> int:
        return len(self.source_names)

    def ids(self) -> list[str]:
        return [s.id for s in self.scenarios]


def _parse_values(fh) -> tuple[list[str], list[str], dict]:
    """Read the long-format values CSV; returns (scenario ids in first-
    appearance order, source names in first-appearance order, cell map)."""
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["scenario_id", "source", "t", "value"]:
        raise ScenarioFormatError(
            "values file line 1: expected header 'scenario_id,source,t,value'")
    # dicts as ordered sets: a repeated key keeps its first position
    scen_order: dict[str, None] = {}
    src_order: dict[str, None] = {}
    cells: dict[tuple[str, str, int], float] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 4:
            raise ScenarioFormatError(f"values file line {lineno}: expected 4 fields")
        sid, src, t_raw, v_raw = (f.strip() for f in row)
        try:
            t = int(t_raw)
            v = float(v_raw)
        except ValueError:
            raise ScenarioFormatError(
                f"values file line {lineno}: bad integer/float") from None
        if t < 0:
            raise ScenarioFormatError(f"values file line {lineno}: t must be >= 0")
        if not math.isfinite(v):
            raise ScenarioFormatError(f"values file line {lineno}: non-finite value")
        if (sid, src, t) in cells:
            raise ScenarioFormatError(
                f"values file line {lineno}: duplicate cell ({sid},{src},{t})")
        scen_order[sid] = src_order[src] = None
        cells[(sid, src, t)] = v
    if not cells:
        raise ScenarioFormatError("values file contains no data rows")
    return list(scen_order), list(src_order), cells


def load_scenarios(values_path, probabilities_path=None) -> ScenarioSet:
    """Load a scenario set from the long CSV format.

    Scenario index order is the order of first appearance in the values
    file.  When no probabilities file is given, uniform 1/N weights are
    assigned.  Probabilities must be finite, positive and sum to 1 within
    1e-6; they are then renormalized exactly.
    """
    with open(values_path, newline="") as fh:
        scen_order, src_order, cells = _parse_values(fh)

    max_t: dict[tuple[str, str], int] = {}
    for (sid, src, t) in cells:
        key = (sid, src)
        max_t[key] = max(max_t.get(key, -1), t)
    for sid in scen_order:
        for src in src_order:
            if (sid, src) not in max_t:
                raise ScenarioFormatError(
                    f"scenario {sid!r} is missing source {src!r}")
    horizons = set(max_t.values())
    if len(horizons) != 1:
        raise ScenarioFormatError(
            "inconsistent horizon lengths across scenarios/sources: "
            f"{sorted(h + 1 for h in horizons)}")
    horizon = horizons.pop() + 1

    scenarios = []
    for sid in scen_order:
        values = np.empty((len(src_order), horizon))
        for u, src in enumerate(src_order):
            for t in range(horizon):
                try:
                    values[u, t] = cells[(sid, src, t)]
                except KeyError:
                    raise ScenarioFormatError(
                        f"scenario {sid!r} source {src!r} missing t={t}") from None
        scenarios.append(Scenario(sid, values))

    n = len(scenarios)
    if probabilities_path is None:
        probs = np.full(n, 1.0 / n)
    else:
        given: dict[str, float] = {}
        with open(probabilities_path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["scenario_id", "probability"]:
                raise ScenarioFormatError(
                    "probabilities file line 1: expected header 'scenario_id,probability'")
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 2:
                    raise ScenarioFormatError(
                        f"probabilities file line {lineno}: expected 2 fields")
                sid, p_raw = row[0].strip(), row[1].strip()
                try:
                    p = float(p_raw)
                except ValueError:
                    raise ScenarioFormatError(
                        f"probabilities file line {lineno}: bad float") from None
                if not math.isfinite(p):
                    raise ScenarioFormatError(
                        f"probabilities file line {lineno}: non-finite probability")
                if sid in given:
                    raise ScenarioFormatError(
                        f"probabilities file line {lineno}: duplicate id {sid!r}")
                given[sid] = p
        missing = [sid for sid in scen_order if sid not in given]
        if missing:
            raise ScenarioFormatError(f"no probability for scenarios {missing}")
        raw = np.array([given[sid] for sid in scen_order])
        if np.any(raw <= 0.0):
            raise ScenarioFormatError("scenario probabilities must be > 0")
        if abs(raw.sum() - 1.0) > 1e-6:
            raise ScenarioFormatError(
                f"probabilities sum to {raw.sum()!r}, expected 1 within 1e-6")
        probs = raw / raw.sum()

    return ScenarioSet(tuple(scenarios), probs, tuple(src_order))


def dump_values_csv(scenario_set: ScenarioSet) -> str:
    """Serialize values to the long CSV format (lossless float repr)."""
    out = io.StringIO()
    out.write("scenario_id,source,t,value\n")
    for s in scenario_set.scenarios:
        for u, src in enumerate(scenario_set.source_names):
            for t in range(scenario_set.horizon):
                out.write(f"{s.id},{src},{t},{float(s.values[u, t])!r}\n")
    return out.getvalue()


def dump_probabilities_csv(scenario_set: ScenarioSet) -> str:
    out = io.StringIO()
    out.write("scenario_id,probability\n")
    for s, p in zip(scenario_set.scenarios, scenario_set.probabilities):
        out.write(f"{s.id},{float(p)!r}\n")
    return out.getvalue()


def save_scenarios(scenario_set: ScenarioSet, values_path,
                   probabilities_path=None):
    """Write the set back to CSV; a save/load round trip reproduces values
    bit-identically."""
    with open(values_path, "w", newline="") as fh:
        fh.write(dump_values_csv(scenario_set))
    if probabilities_path is not None:
        with open(probabilities_path, "w", newline="") as fh:
            fh.write(dump_probabilities_csv(scenario_set))


def _smooth_noise(rng: np.random.Generator, T: int,
                  harmonics: int) -> np.ndarray:
    """Slowly varying unit-scale profile perturbation for the desk
    generators: ``harmonics`` sine waves of random amplitude and phase."""
    tgrid = np.arange(T)
    out = np.zeros(T)
    for k in range(1, harmonics + 1):
        out += rng.normal(0.0, 1.0 / math.sqrt(harmonics)) * np.sin(
            2 * math.pi * (k * tgrid / T + rng.uniform(0.0, 1.0)))
    return out


def _pick_bad(rng: np.random.Generator, nets, n_bad: int, width: int,
              first: int, last: int, pool: int) -> dict[int, int]:
    """Choose the desk generators' bad scenarios.

    Each scenario's excursion window is its ``width``-step window of peak
    net demand starting in ``[first, last]``; ``n_bad`` scenarios are drawn
    among the ``pool`` with the highest mean net demand in their window.
    Returns scenario index -> window start.
    """
    if not n_bad:
        return {}
    peak = []
    for net in nets:
        sums = [net[t:t + width].sum() for t in range(first, last + 1)]
        w = int(np.argmax(sums)) + first
        peak.append((net[w:w + width].mean(), w))
    eligible = sorted(range(len(nets)), key=lambda i: -peak[i][0])[:pool]
    chosen = rng.choice(len(eligible), size=n_bad, replace=False)
    return {int(eligible[c]): peak[eligible[c]][1] for c in chosen}
