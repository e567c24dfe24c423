"""Mixed-binary linear models and an exact, deterministic solver for them.

Every stochastic program in the toolkit compiles down to a
:class:`MixedBinaryModel`: bounded variables (some binary), a sparse linear
objective to minimize, and sparse linear rows.  The rows are assembled once
into a single range-constrained matrix (``_row_ranges``), which both the
HiGHS calls and the feasibility re-check read.  :func:`solve_milp` solves
the LP relaxation with HiGHS, repairs the binaries of its point with the
model's gating triples and returns that point when it is feasible and
within the relative gap of the LP bound.  When the repaired point is
infeasible but only gating binaries were fractional, a second LP with every
binary fixed at its repaired value supplies the continuous part and is held
to the same gap test against the first LP's bound.  Otherwise HiGHS
branch-and-cut proves the gap, with its feasibility-jump primal heuristic
switched off: on the small programs that reach it the heuristic found
nothing the root node did not, yet took most of each call.  A HiGHS build
that lacks the option warns and ignores it; that warning is silenced here.

Determinism contract: two solves of the same model produce identical
variable values.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint
from scipy.optimize import milp as highs_milp

from .errors import ModelError, SolverError

LE, EQ, GE = "<=", "=", ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
GAP_LIMIT = "gap_limit"

DEFAULT_GAP_TOL = 1e-4

# scipy forwards the branch-and-cut option it does not know to HiGHS verbatim
# with a RuntimeWarning, and a HiGHS build without it warns with the same
# prefix and ignores it.  Filtered once here: catch_warnings around the call
# would swap global state under worker threads.
warnings.filterwarnings(
    "ignore",
    message=r"Unrecognized options detected: \{'mip_heuristic_run_feasibility_jump'")

# |x - round(x)| below this counts as integral.
_INT_TOL = 1e-6
# Activity above this level forces a gating binary during repair.
_ACTIVE_TOL = 1e-7


class LinExpr:
    """Sparse linear expression over variable indices with a constant term.

    The problem compilers build rows with it so that data terms (loads,
    renewable output, initial states) sit next to variable terms;
    :meth:`MixedBinaryModel.add_expr_constraint` moves the constant to the
    right-hand side.
    """

    __slots__ = ("coeffs", "constant")

    def __init__(self):
        self.coeffs: dict[int, float] = {}
        self.constant = 0.0

    def add(self, var: int, coef: float) -> "LinExpr":
        """Add ``coef * x[var]``."""
        self.coeffs[var] = self.coeffs.get(var, 0.0) + coef
        return self

    def add_const(self, value: float) -> "LinExpr":
        self.constant += value
        return self


class MixedBinaryModel:
    """A minimize-sense mixed-binary linear program.

    Models are append-only while being built, apart from variable bounds,
    which a caller may tighten before solving (a first-stage decision is
    fixed by setting ``lb = ub`` on its columns).  A model must not be
    mutated once a solve has started; solves on distinct instances may run
    concurrently.
    """

    def __init__(self):
        self.var_names: list[str] = []
        self.lb: list[float] = []
        self.ub: list[float] = []
        self.is_binary: list[bool] = []
        self.obj: dict[int, float] = {}
        # Named objective slices (e.g. penalty cost) for reporting.
        self.obj_groups: dict[str, dict[int, float]] = {}
        self.rows: list[tuple[dict[int, float], str, float]] = []
        # (binary, active-when-0 var, active-when-1 var) triples used by the
        # root step's binary repair; populated by the problem compilers.
        self.gating: list[tuple[int, int, int]] = []
        self._ranges = None

    # -- construction -----------------------------------------------------

    def add_var(self, name: str, lb: float = 0.0, ub: float = math.inf,
                binary: bool = False) -> int:
        if binary and (lb < 0.0 or ub > 1.0):
            raise ModelError(f"binary variable {name!r} must have bounds within [0, 1]")
        if lb > ub:
            raise ModelError(f"variable {name!r} has lb > ub")
        self.var_names.append(name)
        self.lb.append(float(lb))
        self.ub.append(float(ub))
        self.is_binary.append(bool(binary))
        self._ranges = None
        return len(self.var_names) - 1

    def add_constraint(self, coeffs: dict[int, float], relation: str, rhs: float):
        if relation not in (LE, EQ, GE):
            raise ModelError(f"unknown relation {relation!r}")
        if not coeffs:
            raise ModelError("constraint references no variables")
        n = len(self.var_names)
        for j, a in coeffs.items():
            if not 0 <= j < n:
                raise ModelError(f"constraint references undeclared variable {j}")
            if not math.isfinite(a):
                raise ModelError("non-finite constraint coefficient")
        if not math.isfinite(rhs):
            raise ModelError("non-finite right-hand side")
        self.rows.append((dict(coeffs), relation, float(rhs)))
        self._ranges = None

    def add_expr_constraint(self, expr: LinExpr, relation: str, rhs: float):
        """Add ``expr <relation> rhs``; the expression constant moves to the
        right-hand side.  A row whose coefficients all cancel is a
        compiler fault and raises."""
        coeffs = {j: a for j, a in expr.coeffs.items() if a != 0.0}
        if not coeffs:
            raise ModelError("expression constraint has no nonzero coefficient")
        self.rows.append((coeffs, relation, float(rhs - expr.constant)))
        self._ranges = None

    def add_objective(self, var: int, coef: float, group: str | None = None):
        """Accumulate ``coef * x[var]`` into the objective (and a group)."""
        self.obj[var] = self.obj.get(var, 0.0) + coef
        if group:
            g = self.obj_groups.setdefault(group, {})
            g[var] = g.get(var, 0.0) + coef

    # -- inspection --------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    @property
    def binary_indices(self) -> list[int]:
        return [j for j, b in enumerate(self.is_binary) if b]

    def index_of(self, name: str) -> int:
        try:
            return self.var_names.index(name)
        except ValueError:
            raise ModelError(f"no variable named {name!r}") from None

    def group_value(self, group: str, x: np.ndarray) -> float:
        total = 0.0
        for j, a in self.obj_groups.get(group, {}).items():
            total += a * x[j]
        return total

    def validate(self):
        """Reject bad bounds and non-finite objective or row data; expression
        rows skip :meth:`add_constraint`'s eager check, so all rows are
        checked here, once, on the assembled arrays."""
        for j, (lo, hi, b) in enumerate(zip(self.lb, self.ub, self.is_binary)):
            if not (math.isfinite(lo) or lo == -math.inf):
                raise ModelError(f"bad lower bound on {self.var_names[j]!r}")
            if math.isnan(hi):
                raise ModelError(f"bad upper bound on {self.var_names[j]!r}")
            if b and (lo < 0.0 or hi > 1.0):
                raise ModelError(f"binary {self.var_names[j]!r} out of [0, 1]")
        for j, a in self.obj.items():
            if not math.isfinite(a):
                raise ModelError("non-finite objective coefficient")
        A, lo, hi = self._row_ranges()
        bad = np.flatnonzero(~np.isfinite(A.data))
        if bad.size:
            raise ModelError("non-finite constraint coefficient on "
                             f"{self.var_names[A.indices[bad[0]]]!r}")
        # a row's right-hand side is on each side that is not an outward
        # infinity, so it is finite exactly when one side is
        if not (np.isfinite(lo) | np.isfinite(hi)).all():
            raise ModelError("non-finite right-hand side")

    def max_violation(self, x: np.ndarray) -> float:
        """Largest constraint or bound violation of ``x`` (equalities
        two-sided); one sparse mat-vec over the cached row ranges."""
        x = np.asarray(x, dtype=float)
        A, lo, hi = self._row_ranges()
        act = A @ x
        return max(float(np.max(lo - act, initial=0.0)),
                   float(np.max(act - hi, initial=0.0)),
                   float(np.max(np.asarray(self.lb) - x, initial=0.0)),
                   float(np.max(x - np.asarray(self.ub), initial=0.0)))

    # -- solver-facing arrays ----------------------------------------------

    def _row_ranges(self):
        """Build (and cache) the single constraint matrix with [lower,
        upper] row activities used by the MILP solve and the re-check."""
        if self._ranges is not None:
            return self._ranges
        n = self.num_vars
        rr, cc, vv, lo, hi = [], [], [], [], []
        for i, (coeffs, rel, rhs) in enumerate(self.rows):
            for j, a in coeffs.items():
                rr.append(i)
                cc.append(j)
                vv.append(a)
            if rel == LE:
                lo.append(-math.inf)
                hi.append(rhs)
            elif rel == GE:
                lo.append(rhs)
                hi.append(math.inf)
            else:
                lo.append(rhs)
                hi.append(rhs)
        A = sparse.csr_matrix((vv, (rr, cc)), shape=(len(self.rows), n))
        self._ranges = (A, np.array(lo), np.array(hi))
        return self._ranges


@dataclass
class Solution:
    """Outcome of a MILP solve."""

    status: str
    objective: float
    x: np.ndarray | None
    mip_gap: float = 0.0
    node_count: int = 0


def _gating_repair(model: MixedBinaryModel, x: np.ndarray) -> dict[int, int]:
    """Propose integral values for every binary given a relaxation point.

    Gating binaries are set from their active side (the larger activity wins
    when the relaxation violates complementarity); everything else rounds.
    """
    fix = {}
    for d, when0, when1 in model.gating:
        a0, a1 = x[when0], x[when1]
        if a1 > _ACTIVE_TOL and a1 >= a0:
            fix[d] = 1
        elif a0 > _ACTIVE_TOL:
            fix[d] = 0
        else:
            fix[d] = int(round(x[d]))
    for j in model.binary_indices:
        if j not in fix:
            fix[j] = int(round(x[j]))
    return fix


def solve_milp(model: MixedBinaryModel, gap_tol: float = DEFAULT_GAP_TOL,
               time_limit: float | None = None) -> Solution:
    """Exactly solve the mixed-binary model to a proven relative gap.

    First a root step (:func:`_root_step`): the LP relaxation is solved and
    its binaries set by :func:`_gating_repair`.  If that point is
    infeasible and every binary fractional at the LP point is a gating
    binary, the LP is solved once more with all binaries fixed at their
    repaired values.  When the resulting point is feasible and its
    objective is within ``gap_tol`` of the first LP's bound, it is returned
    as optimal with ``node_count=1`` (the same bound-plus-incumbent proof
    branch-and-cut makes, closed at the root).  Otherwise HiGHS
    branch-and-cut runs single-threaded without its feasibility-jump
    heuristic, which took most of each call on the desk programs and changed
    no result (HiGHS builds that lack the option ignore it).  Both are
    deterministic: identical input gives identical variable values.  With
    ``time_limit`` the root step is skipped and, when the limit is hit, the
    best incumbent is returned with status ``gap_limit``.  The test suite
    cross-checks this routine against brute-force enumeration and an
    independent reference branch-and-bound.
    """
    model.validate()
    if not (math.isfinite(gap_tol) and gap_tol >= 0):
        raise ModelError(f"gap_tol must be finite and >= 0, got {gap_tol}")
    n = model.num_vars
    c = np.zeros(n)
    for j, a in model.obj.items():
        c[j] = a
    integrality = np.array(model.is_binary, dtype=int)
    constraints = None
    if model.rows:
        A, lo, hi = model._row_ranges()
        constraints = LinearConstraint(A, lo, hi)
    bounds = Bounds(np.array(model.lb), np.array(model.ub))
    if time_limit is None and integrality.any():
        root = _root_step(model, c, constraints, bounds, gap_tol)
        if root is not None:
            return root
    options = {"mip_rel_gap": gap_tol, "presolve": True,
               "mip_heuristic_run_feasibility_jump": False}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    res = highs_milp(c, constraints=constraints, integrality=integrality,
                     bounds=bounds, options=options)
    nodes = max(1, int(getattr(res, "mip_node_count", 0) or 0))
    if res.status == 0:
        x = np.asarray(res.x)
        viol = model.max_violation(x)
        if viol > 1e-5:
            raise SolverError(f"solution violates constraints by {viol:.3e}")
        gap = float(getattr(res, "mip_gap", 0.0) or 0.0)
        return Solution(OPTIMAL, float(res.fun), x, mip_gap=gap,
                        node_count=nodes)
    if res.status == 2:
        return Solution(INFEASIBLE, math.inf, None, node_count=nodes)
    if res.status == 3:
        return Solution(UNBOUNDED, -math.inf, None, node_count=nodes)
    if res.status == 1:  # time/iteration limit; carry the incumbent if any
        x = np.asarray(res.x) if res.x is not None else None
        obj = float(res.fun) if x is not None else math.inf
        gap = float(getattr(res, "mip_gap", math.inf) or math.inf)
        return Solution(GAP_LIMIT, obj, x, mip_gap=gap, node_count=nodes)
    raise SolverError(f"MILP solve failed (HiGHS status {res.status}): {res.message}")


def _root_step(model: MixedBinaryModel, c: np.ndarray, constraints,
               bounds: Bounds, gap_tol: float) -> Solution | None:
    """The LP relaxation's point with its binaries repaired, as an optimal
    Solution when it is feasible and proves ``gap_tol`` against the LP
    bound; None when branch-and-cut is needed.

    A repaired point that breaks a row (typically simultaneous charge and
    discharge left by the LP under a repaired gate) gets one more LP with
    every binary fixed at its repaired value, but only when no binary
    outside the gating triples was fractional: a fractional commitment or
    clustering binary signals a weak bound a fixed-binary LP cannot close."""
    relaxed = np.zeros(model.num_vars, dtype=int)
    res = highs_milp(c, constraints=constraints, integrality=relaxed,
                     bounds=bounds, options={"presolve": True})
    if res.status != 0:
        return None
    bound = float(res.fun)
    x = np.array(res.x, dtype=float)
    fix = _gating_repair(model, x)
    binaries = np.fromiter(fix, dtype=int, count=len(fix))
    values = np.fromiter(fix.values(), dtype=float, count=len(fix))
    lp_binaries = x[binaries]
    x[binaries] = values
    if model.max_violation(x) > 1e-5:
        gates = {d for d, _, _ in model.gating}
        fractional = np.abs(lp_binaries - np.round(lp_binaries)) > _INT_TOL
        if any(int(j) not in gates for j in binaries[fractional]):
            return None
        lb, ub = bounds.lb.copy(), bounds.ub.copy()
        lb[binaries] = ub[binaries] = values
        res = highs_milp(c, constraints=constraints, integrality=relaxed,
                         bounds=Bounds(lb, ub), options={"presolve": True})
        if res.status != 0:
            return None
        x = np.array(res.x, dtype=float)
        x[binaries] = values
        if model.max_violation(x) > 1e-5:
            return None
    obj = float(c @ x)
    slack = obj - bound
    if slack > gap_tol * abs(obj):
        return None
    gap = slack / abs(obj) if slack > 0.0 else 0.0
    return Solution(OPTIMAL, obj, x, mip_gap=gap, node_count=1)


# -- LP-file export ---------------------------------------------------------

def _fmt(value: float) -> str:
    return repr(float(value))


def _term_string(coeffs: dict[int, float], names: list[str]) -> str:
    parts = []
    for j in sorted(coeffs):
        a = coeffs[j]
        if a == 0.0:
            continue
        if not parts:
            parts.append(f"{_fmt(a)} {names[j]}")
        elif a < 0:
            parts.append(f"- {_fmt(-a)} {names[j]}")
        else:
            parts.append(f"+ {_fmt(a)} {names[j]}")
    if not parts:
        parts.append(_fmt(0.0))
    return " ".join(parts)


def export_lp_file(model: MixedBinaryModel, path):
    """Write ``model`` in the textual CPLEX-LP format.

    Sections: Minimize / Subject To / Bounds / Binaries (if any) / End.
    Variable names are taken from the model and are stable across runs.
    """
    model.validate()
    lines = ["Minimize", f" obj: {_term_string(model.obj, model.var_names)}",
             "Subject To"]
    for i, (coeffs, rel, rhs) in enumerate(model.rows):
        op = {LE: "<=", EQ: "=", GE: ">="}[rel]
        lines.append(f" c{i}: {_term_string(coeffs, model.var_names)} {op} {_fmt(rhs)}")
    lines.append("Bounds")
    for j, name in enumerate(model.var_names):
        lo, hi = model.lb[j], model.ub[j]
        if lo == -math.inf and hi == math.inf:
            lines.append(f" {name} free")
        elif hi == math.inf:
            lines.append(f" {name} >= {_fmt(lo)}")
        elif lo == -math.inf:
            lines.append(f" {name} <= {_fmt(hi)}")
        else:
            lines.append(f" {_fmt(lo)} <= {name} <= {_fmt(hi)}")
    if any(model.is_binary):
        lines.append("Binaries")
        for j, name in enumerate(model.var_names):
            if model.is_binary[j]:
                lines.append(f" {name}")
    lines.append("End")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
