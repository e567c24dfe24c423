"""Mixed-binary linear models and an exact, deterministic solver for them.

Every stochastic program in the toolkit compiles down to a
:class:`MixedBinaryModel`: bounded variables (some binary), a sparse linear
objective to minimize, and sparse linear rows, which the compilers emit
one call per row into flat buffers (:meth:`MixedBinaryModel.add_row`).
Its costs, integrality and rows are assembled and checked once into one
snapshot of solver arrays, whose range-constrained matrix both the HiGHS
calls and the feasibility re-check read.  A copy of a model
(:meth:`MixedBinaryModel.copy`) shares the matrix part of that snapshot,
so a program stamped from a compiled structure assembles only its costs
and row bounds.  :func:`solve_milp` solves the
LP relaxation with HiGHS, repairs the binaries of its point with the
model's gating triples and returns that point when it is feasible and
within the relative gap of the LP bound.  When the repaired point breaks
a row, a second LP with every binary fixed at its repaired value supplies the
continuous part and is held to the same gap test against the first LP's
bound.  Otherwise HiGHS branch-and-cut proves the gap, starting from
the feasible point the root step ended with, if any, as its incumbent, and
with its feasibility-jump primal heuristic switched off: on the small
programs that reach it the heuristic found nothing the root node did not,
yet took most of each call.

Every HiGHS call goes through :func:`highs_milp`, which hands the model's
cached CSC arrays, bounds and costs straight to a HiGHS instance through
the HiGHS bindings bundled with scipy, sets only the options the call
names and reads HiGHS's model status into a :class:`Solution`.  The
root-step LPs re-solve warm on one instance the model keeps (see
:class:`MixedBinaryModel`), which a caller can hand on to the next model
that shares its matrix (:meth:`MixedBinaryModel.take_highs`);
branch-and-cut runs on a fresh one.  Those bindings are one extension
module, ``scipy.optimize._highspy._core``;
it is loaded from its file and registered under that name, so importing
this module runs none of ``scipy.optimize``, ``scipy.sparse`` or their
array-API layer, which took most of a CLI command's start-up, and a
later ``import scipy.optimize`` reuses it.  When that load fails, the same module is imported the normal
way; scipy bundles it from 1.15 on.

Determinism contract: the same sequence of solves on the same model
produces identical variable values; the first solve of a model depends on
nothing before it, unless the model took over another's instance, when
it depends on the solves of the models the instance passed through.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ModelError, SolverError

_CORE = "scipy.optimize._highspy._core"


def _register_highs_core() -> str:
    """Load HiGHS's bindings bundled with scipy from their file and register
    them under their own name (the only name the extension loads under);
    returns how the import below finds them."""
    if _CORE in sys.modules:
        return "already imported"
    try:
        # find_spec of a top-level package runs none of its subpackages
        scipy_dir = os.path.dirname(importlib.util.find_spec("scipy").origin)
        stem = os.path.join(scipy_dir, "optimize", "_highspy", "_core")
        path = next(stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES
                    if os.path.exists(stem + suffix))
        loader = importlib.machinery.ExtensionFileLoader(_CORE, path)
        spec = importlib.util.spec_from_file_location(_CORE, path, loader=loader)
        module = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
    except Exception:  # scipy's private layout moved: import it the normal way
        return "via scipy.optimize"
    sys.modules[_CORE] = module
    return "by file path"


# how the HiGHS bindings loaded; printed by CI
_HIGHS_PATH = _register_highs_core()
try:  # private HiGHS bindings bundled with scipy
    from scipy.optimize._highspy._core import (HighsModelStatus, HighsStatus,
                                               MatrixFormat, ObjSense, _Highs)
except ImportError as exc:
    raise ImportError("pdsr needs the HiGHS bindings bundled with "
                      "scipy>=1.15") from exc

LE, EQ, GE = "<=", "=", ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
GAP_LIMIT = "gap_limit"

DEFAULT_GAP_TOL = 1e-4

# Activity above this level forces a gating binary during repair.
_ACTIVE_TOL = 1e-7


class CscMatrix(NamedTuple):
    """A constraint matrix in compressed sparse column form, the layout
    HiGHS takes; the attribute names are those of a scipy CSC matrix."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]


class _Arrays(NamedTuple):
    """A model's solver-facing arrays, assembled and checked once: costs,
    integrality (1 on binaries), the ``(A, lower, upper)`` rows in the CSC
    form HiGHS takes, and the column of each stored entry of ``A``."""

    c: np.ndarray
    integrality: np.ndarray
    constraints: tuple[CscMatrix, np.ndarray, np.ndarray]
    entry_col: np.ndarray


class _Matrix(NamedTuple):
    """The part of a model's solver arrays that its columns and rows fix,
    whatever their costs and right-hand sides: the CSC matrix, the column
    of each stored entry, integrality and the rows open below (``<=``) or
    above (``>=``).  Built and checked once; read-only, so the copies of a
    model (:meth:`MixedBinaryModel.copy`) share it."""

    A: CscMatrix
    entry_col: np.ndarray
    integrality: np.ndarray
    le: np.ndarray
    ge: np.ndarray


class MixedBinaryModel:
    """A minimize-sense mixed-binary linear program.

    Models are append-only while being built, apart from variable bounds,
    which a caller may tighten before solving; :func:`solve_milp` also
    takes ``(lb, ub)`` overrides that leave the model untouched (a
    first-stage decision is fixed by ``lb = ub`` on its columns).

    The rows are kept in flat buffers: the column indices and
    coefficients of every row, stored row after row (``row_cols``,
    ``row_vals``), and one length, relation and right-hand side per row
    (``row_len``, ``row_rel``, ``row_rhs``).  Every row, of a problem
    compiler or of the clustering MILP, is added by one :meth:`add_row`
    call and checked with the assembled arrays.

    A model holds one snapshot of its solver arrays, assembled by the first
    solve, and one HiGHS instance with its LP relaxation, created by the
    first root-step LP; both are dropped whenever a column, row, objective
    term or right-hand side is added or changed.  Later root-step LPs
    re-solve warm on that instance, so never solve one model from two
    threads at once; solves on distinct models may run concurrently.  A
    copy sharing the matrix may take the instance over (:meth:`take_highs`).

    A problem compiler builds a program's structure once and stamps
    scenario programs from it: :meth:`copy` gives a model that owns its
    own lists and dicts but shares the structure's assembled, read-only
    matrix, and :meth:`set_bounds`, :meth:`set_rhs` and
    :meth:`add_objective` write the scenario's data into it.  Such a
    model assembles only its costs and row bounds.
    """

    def __init__(self):
        self.var_names: list[str] = []
        self.lb: list[float] = []
        self.ub: list[float] = []
        self.is_binary: list[bool] = []
        self.obj: dict[int, float] = {}
        # Named objective slices (e.g. penalty cost) for reporting.
        self.obj_groups: dict[str, dict[int, float]] = {}
        self.row_cols: list[int] = []
        self.row_vals: list[float] = []
        self.row_len: list[int] = []
        self.row_rel: list[str] = []
        self.row_rhs: list[float] = []
        # (binary, active-when-0 var, active-when-1 var) triples used by the
        # root step's binary repair; populated by the problem compilers.
        self.gating: list[tuple[int, int, int]] = []
        self._matrix = None  # _Matrix, set by _assembled, shared by copies
        self._arrays = None  # _Arrays snapshot, set by _assembled
        self._highs = None  # HiGHS instance of the LP relaxation (highs_milp)

    # -- construction -----------------------------------------------------

    def add_var(self, name: str, lb: float = 0.0, ub: float = math.inf,
                binary: bool = False) -> int:
        lb, ub = _checked_bounds(name, lb, ub, binary)
        self.var_names.append(name)
        self.lb.append(lb)
        self.ub.append(ub)
        self.is_binary.append(bool(binary))
        self._matrix = self._arrays = self._highs = None
        return len(self.var_names) - 1

    def set_bounds(self, j: int, lb: float, ub: float):
        """Set the bounds of column ``j``, checked as :meth:`add_var`
        checks them."""
        self.lb[j], self.ub[j] = _checked_bounds(self.var_names[j], lb, ub,
                                                 self.is_binary[j])

    def set_rhs(self, row: int, rhs: float):
        """Set the right-hand side of ``row``; it is checked with the
        assembled arrays."""
        self.row_rhs[row] = rhs
        self._arrays = self._highs = None

    def copy(self) -> "MixedBinaryModel":
        """A model with this one's columns, bounds, rows, objective and
        gating, owning every list and dict of its own and keeping no HiGHS
        instance; it shares this model's assembled matrix (assembled here
        if it is not yet), which nothing writes to."""
        new = MixedBinaryModel.__new__(MixedBinaryModel)
        new.var_names = self.var_names.copy()
        new.lb = self.lb.copy()
        new.ub = self.ub.copy()
        new.is_binary = self.is_binary.copy()
        new.obj = self.obj.copy()
        new.obj_groups = {g: terms.copy()
                          for g, terms in self.obj_groups.items()}
        new.row_cols = self.row_cols.copy()
        new.row_vals = self.row_vals.copy()
        new.row_len = self.row_len.copy()
        new.row_rel = self.row_rel.copy()
        new.row_rhs = self.row_rhs.copy()
        new.gating = self.gating.copy()
        new._matrix = self._assembled_matrix()
        new._arrays = new._highs = None
        return new

    def add_row(self, cols: list[int], vals: list[float], relation: str,
                rhs: float):
        """Add ``sum(vals[k] * x[cols[k]]) <relation> rhs``.  A problem
        compiler folds the row's data terms into ``rhs`` as ``rhs - data``,
        ``data`` summed from ``0.0`` in term order, so the same data gives
        the same bits.  Zero coefficients are dropped; a row left with none
        and an unknown relation raise here, while the columns, coefficients
        and right-hand side are checked with the assembled arrays (see
        :meth:`_assembled`)."""
        if len(cols) != len(vals):
            raise ModelError(f"row has {len(cols)} columns and "
                             f"{len(vals)} coefficients")
        if 0.0 in vals:
            cols = [j for j, a in zip(cols, vals) if a != 0.0]
            vals = [a for a in vals if a != 0.0]
        if not vals:
            raise ModelError("row has no nonzero coefficient")
        # _assembled reads any relation but <= and >= as an equality
        if relation not in (LE, EQ, GE):
            raise ModelError(f"unknown relation {relation!r}")
        self.row_cols += cols
        self.row_vals += vals
        self.row_len.append(len(vals))
        self.row_rel.append(relation)
        self.row_rhs.append(rhs)
        self._matrix = self._arrays = self._highs = None

    def add_objective(self, var: int, coef: float, group: str | None = None):
        """Accumulate ``coef * x[var]`` into the objective (and a group)."""
        self.obj[var] = self.obj.get(var, 0.0) + coef
        self._arrays = self._highs = None
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

    def group_value(self, group: str, x: np.ndarray) -> float:
        total = 0.0
        for j, a in self.obj_groups.get(group, {}).items():
            total += a * x[j]
        return total

    def validate(self, bounds=None):
        """Reject bad bounds (the model's, or the ``(lb, ub)`` override) and
        bad objective or row data; returns the checked ``(lb, ub)`` as float
        arrays.  The bounds are checked on every call: a lower bound of NaN
        or +inf, an upper bound of NaN or -inf, a binary outside [0, 1] and
        ``lb > ub`` raise, naming the column.  The rows are checked on the
        assembled arrays, together with the objective, once per assembly
        (see :meth:`_assembled`)."""
        lb, ub = self._bounds(bounds)
        if lb.shape != (self.num_vars,) or ub.shape != (self.num_vars,):
            raise ModelError(f"bounds must hold {self.num_vars} values each")
        bad_lb = np.isnan(lb) | (lb == math.inf)
        bad_ub = np.isnan(ub) | (ub == -math.inf)
        bad_bin = np.array(self.is_binary, dtype=bool) & ((lb < 0.0) | (ub > 1.0))
        crossed = lb > ub
        bad = np.flatnonzero(bad_lb | bad_ub | bad_bin | crossed)
        if bad.size:
            j = bad[0]
            name = self.var_names[j]
            if bad_lb[j]:
                raise ModelError(f"bad lower bound on {name!r}")
            if bad_ub[j]:
                raise ModelError(f"bad upper bound on {name!r}")
            if bad_bin[j]:
                raise ModelError(f"binary {name!r} out of [0, 1]")
            raise ModelError(f"variable {name!r} has lb > ub "
                             f"({float(lb[j])!r} > {float(ub[j])!r})")
        self._assembled()
        return lb, ub

    def max_violation(self, x: np.ndarray, bounds=None) -> float:
        """Largest constraint or bound violation of ``x`` (equalities
        two-sided), against the model's bounds or the ``(lb, ub)``
        override; one sparse mat-vec over the assembled rows, which sums
        each row in CSC entry order."""
        x = np.asarray(x, dtype=float)
        arrays = self._assembled()
        A, lo, hi = arrays.constraints
        lb, ub = self._bounds(bounds)
        act = np.bincount(A.indices, weights=A.data * x[arrays.entry_col],
                          minlength=A.shape[0])
        return max(float(np.max(lo - act, initial=0.0)),
                   float(np.max(act - hi, initial=0.0)),
                   float(np.max(lb - x, initial=0.0)),
                   float(np.max(x - ub, initial=0.0)))

    def _bounds(self, bounds=None):
        """``(lb, ub)`` as float arrays: the override if given, else copies
        of the model's own."""
        if bounds is None:
            return np.array(self.lb), np.array(self.ub)
        return (np.asarray(bounds[0], dtype=float),
                np.asarray(bounds[1], dtype=float))

    def take_highs(self, donor: "MixedBinaryModel") -> bool:
        """Take over the HiGHS instance ``donor`` keeps; returns whether it
        did.  Only a model that keeps no instance takes one, and only from
        a donor that shares its matrix object (both copies of one model).
        The costs are reloaded, and the row bounds that differ one row at a
        time (the bindings have no call for several); the next root-step LP
        changes every column bound as usual and starts from the donor's
        last basis.  The donor loses the instance, so an instance has one
        owner."""
        highs = donor._highs
        if highs is None or self._highs is not None \
                or self._matrix is not donor._matrix:
            return False
        ours = self._assembled()
        (A, lower, upper), (_, old_lower, old_upper) = (
            ours.constraints, donor._arrays.constraints)
        donor._highs = None
        n = A.shape[1]
        status = [highs.changeColsCost(n, np.arange(n, dtype=np.int32), ours.c)]
        for r in np.flatnonzero((lower != old_lower) | (upper != old_upper)):
            status.append(highs.changeRowBounds(int(r), lower[r], upper[r]))
        if HighsStatus.kError in status:
            return False
        self._highs = highs
        return True

    # -- solver-facing arrays ----------------------------------------------

    def _assembled(self) -> _Arrays:
        """The model's :class:`_Arrays`, built and checked on the first call
        after the model last changed; every HiGHS call and the re-check of a
        model read them.  The matrix part comes from
        :meth:`_assembled_matrix`; the costs and row bounds are the model's
        own.  Raises on non-finite objective or right-hand side data."""
        if self._arrays is not None:
            return self._arrays
        matrix = self._assembled_matrix()
        c = np.zeros(self.num_vars)
        for j, a in self.obj.items():
            c[j] = a
        if not np.isfinite(c).all():
            raise ModelError("non-finite objective coefficient")
        rhs = np.array(self.row_rhs, dtype=float)
        lower = np.where(matrix.le, -math.inf, rhs)
        upper = np.where(matrix.ge, math.inf, rhs)
        # a row's right-hand side is on each side that is not an outward
        # infinity, so it is finite exactly when one side is
        if not (np.isfinite(lower) | np.isfinite(upper)).all():
            raise ModelError("non-finite right-hand side")
        self._arrays = _Arrays(c, matrix.integrality,
                               (matrix.A, lower, upper), matrix.entry_col)
        return self._arrays

    def _assembled_matrix(self) -> _Matrix:
        """The model's :class:`_Matrix`, built and checked on the first call
        after a column or row was added, then frozen.  Raises on a
        non-finite coefficient, on a row over an undeclared variable and on
        a row that lists one variable twice, so a duplicate entry never
        reaches HiGHS."""
        if self._matrix is not None:
            return self._matrix
        m, n = len(self.row_len), self.num_vars
        cols = np.array(self.row_cols, dtype=np.intp)
        vals = np.array(self.row_vals, dtype=float)
        if cols.size and not (cols.min() >= 0 and cols.max() < n):
            raise ModelError("constraint references an undeclared variable")
        rows = np.repeat(np.arange(m, dtype=np.int32),
                         np.array(self.row_len, dtype=np.intp))
        # a stable sort by column keeps each column's rows ascending, so a
        # row's repeated column lands on adjacent entries
        order = np.argsort(cols, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
        A = CscMatrix(indptr, rows[order], vals[order], (m, n))
        entry_col = cols[order]
        twice = np.flatnonzero((entry_col[1:] == entry_col[:-1])
                               & (A.indices[1:] == A.indices[:-1]))
        if twice.size:
            k = twice[0]
            raise ModelError(f"row {A.indices[k]} lists "
                             f"{self.var_names[entry_col[k]]!r} twice")
        bad = np.flatnonzero(~np.isfinite(A.data))
        if bad.size:
            raise ModelError("non-finite constraint coefficient on "
                             f"{self.var_names[entry_col[bad[0]]]!r}")
        rels = np.array(self.row_rel, dtype="U2")
        matrix = _Matrix(A, entry_col, np.array(self.is_binary, dtype=np.int32),
                         rels == LE, rels == GE)
        for a in (*A[:3], *matrix[1:]):
            a.flags.writeable = False
        self._matrix = matrix
        return matrix


def _checked_bounds(name: str, lb: float, ub: float,
                    binary: bool) -> tuple[float, float]:
    """``(lb, ub)`` of column ``name`` as floats; raises on a binary outside
    [0, 1] and on ``lb > ub``."""
    if binary and (lb < 0.0 or ub > 1.0):
        raise ModelError(f"binary variable {name!r} must have bounds within [0, 1]")
    if lb > ub:
        raise ModelError(f"variable {name!r} has lb > ub")
    return float(lb), float(ub)


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
               time_limit: float | None = None, bounds=None) -> Solution:
    """Exactly solve the mixed-binary model to a proven relative gap.

    First a root step (:func:`_root_step`): the LP relaxation is solved and
    its binaries set by :func:`_gating_repair`.  If that point breaks a
    row, the LP is solved once more with all binaries fixed at their
    repaired values.  When the resulting point is feasible and its
    objective is within ``gap_tol`` of the first LP's bound, it is returned
    as optimal with ``node_count=1`` (the same bound-plus-incumbent proof
    branch-and-cut makes, closed at the root).  Otherwise HiGHS
    branch-and-cut runs single-threaded, handed the root step's feasible
    point, if it found one, as a starting incumbent, so it stops as soon
    as its bound is within ``gap_tol`` of that point; it runs without its
    feasibility-jump heuristic, which took most of each call on the desk
    programs and changed no result (HiGHS builds that lack the option
    ignore it).  Both are deterministic: the first solve of a model, or the
    same sequence of solves on it, gives identical variable values.  The
    start is only a hint; the result still rests on HiGHS's bound and the
    ``max_violation`` re-check below.  With ``time_limit`` the root step
    is skipped and, when the limit is hit, the best incumbent is returned
    with status ``gap_limit``.  ``bounds``, an
    ``(lb, ub)`` pair of arrays, replaces the model's variable bounds for
    this solve without changing them.

    The root-step LPs re-solve on the HiGHS instance the model keeps, so
    never solve one model from two threads at once.  The test suite
    cross-checks this routine against brute-force enumeration and an
    independent reference branch-and-bound.
    """
    bounds = model.validate(bounds)
    if not (math.isfinite(gap_tol) and gap_tol >= 0):
        raise ModelError(f"gap_tol must be finite and >= 0, got {gap_tol}")
    arrays = model._assembled()
    start = None
    if time_limit is None and arrays.integrality.any():
        root, start = _root_step(model, arrays, bounds, gap_tol)
        if root is not None:
            return root
    options = {"mip_rel_gap": gap_tol, "presolve": True,
               "mip_heuristic_run_feasibility_jump": False}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    sol = highs_milp(arrays.c, constraints=arrays.constraints,
                     integrality=arrays.integrality, bounds=bounds,
                     options=options, start=start)
    if sol.status == OPTIMAL:
        viol = model.max_violation(sol.x, bounds)
        if viol > 1e-5:
            raise SolverError(f"solution violates constraints by {viol:.3e}")
    return sol


def _root_step(model: MixedBinaryModel, arrays: _Arrays, bounds,
               gap_tol: float):
    """The LP relaxation's point with its binaries repaired, as
    ``(solution, start)``: an optimal Solution and None when the point is
    feasible and proves ``gap_tol`` against the LP bound; else None and the
    feasible point the step ended with, or None when it has none, for
    branch-and-cut to start from.

    A repaired point that breaks a row (simultaneous charge and discharge
    left by the LP under a repaired gate, or a rounded commitment that
    cannot carry the load) gets one more LP with every binary fixed at its
    repaired value; that point is held to the same gap test against the
    first LP's bound.  Both LPs run on the model's kept HiGHS instance, so
    the second starts warm from the first's basis, and the first starts
    warm when the model took an instance over before the solve."""
    c, constraints = arrays.c, arrays.constraints
    relaxed = np.zeros_like(arrays.integrality)
    res = highs_milp(c, constraints=constraints, integrality=relaxed,
                     bounds=bounds, options={"presolve": True}, model=model)
    if res.status != OPTIMAL:
        return None, None
    bound = res.objective
    x = res.x.copy()
    fix = _gating_repair(model, x)
    binaries = np.fromiter(fix, dtype=int, count=len(fix))
    values = np.fromiter(fix.values(), dtype=float, count=len(fix))
    x[binaries] = values
    if model.max_violation(x, bounds) > 1e-5:
        lb, ub = bounds[0].copy(), bounds[1].copy()
        lb[binaries] = ub[binaries] = values
        res = highs_milp(c, constraints=constraints, integrality=relaxed,
                         bounds=(lb, ub), options={"presolve": True},
                         model=model)
        if res.status != OPTIMAL:
            return None, None
        x = res.x.copy()
        x[binaries] = values
        if model.max_violation(x, bounds) > 1e-5:
            return None, None
    obj = float(c @ x)
    slack = obj - bound
    if slack > gap_tol * abs(obj):
        return None, x
    gap = slack / abs(obj) if slack > 0.0 else 0.0
    return Solution(OPTIMAL, obj, x, mip_gap=gap, node_count=1), None


# -- HiGHS -------------------------------------------------------------------

# HiGHS model status -> Solution status; highs_milp raises on any other
_STATUS = {HighsModelStatus.kOptimal: OPTIMAL,
           HighsModelStatus.kInfeasible: INFEASIBLE,
           HighsModelStatus.kUnbounded: UNBOUNDED,
           HighsModelStatus.kTimeLimit: GAP_LIMIT,
           HighsModelStatus.kIterationLimit: GAP_LIMIT}
_COLWISE = int(MatrixFormat.kColwise)
_MINIMIZE = int(ObjSense.kMinimize)


def highs_milp(c, *, constraints, integrality, bounds, options, model=None,
               start=None):
    """Minimize ``c @ x`` over ``lower <= A @ x <= upper``, ``lb <= x <= ub``
    and integral columns where ``integrality`` is 1, with one fresh HiGHS
    instance, or with the one ``model`` keeps.

    ``constraints`` is an ``(A, lower, upper)`` triple as a model
    assembles it, where ``A`` is any CSC matrix with ``indptr``,
    ``indices``, ``data`` and ``shape`` (a :class:`CscMatrix` or a scipy
    one), ``bounds`` an ``(lb, ub)`` pair and ``options`` HiGHS options by
    name, ``presolve`` as a bool; an option HiGHS rejects is ignored.
    Returns a :class:`Solution`: optimal, infeasible and unbounded as
    HiGHS reports them, a time or iteration limit as ``gap_limit`` with
    the MILP's incumbent, if any; ``x`` is None and ``objective`` infinite
    without a point.  Any other HiGHS status raises :class:`SolverError`.

    With ``model`` (an LP over that model's arrays) the instance is kept on
    the model: later calls only change every column's bounds and run again,
    so HiGHS starts the dual simplex from the basis the last call left.  So
    never call it for one model from two threads at once.

    ``start``, a value for every column, is handed to a MILP's fresh
    instance as its first incumbent before it runs.  It is only a hint:
    HiGHS drops a start it cannot use (infeasible, or not a number) and
    solves as without one.
    """
    A, lower, upper = constraints
    lb, ub = bounds
    integrality = np.asarray(integrality, dtype=np.int32)
    is_mip = bool(integrality.any())
    highs = None if model is None else model._highs
    warm = highs is not None
    if not warm:
        highs = _Highs()
        highs.setOptionValue("log_to_console", False)
    for key, value in options.items():
        if key == "presolve":
            value = "on" if value else "off"
        highs.setOptionValue(key, value)
    status = HighsModelStatus.kModelError
    solved = False
    if warm:
        # a bound change keeps the basis, which the next run starts from
        n = A.shape[1]
        loaded = highs.changeColsBounds(n, np.arange(n, dtype=np.int32),
                                        lb, ub) != HighsStatus.kError
    else:
        # the array form of passModel copies each buffer once; filling a
        # HighsLp converts the integer arrays element by element
        loaded = highs.passModel(
            A.shape[1], A.shape[0], int(A.indptr[-1]), _COLWISE, _MINIMIZE,
            0.0, c, lb, ub, lower, upper, A.indptr, A.indices, A.data,
            integrality) != HighsStatus.kError
    if loaded:
        if start is not None:
            start = np.asarray(start, dtype=float)
            highs.setSolution(start.size,
                              np.arange(start.size, dtype=np.int32), start)
        solved = highs.run() != HighsStatus.kError
        status = highs.getModelStatus()
    if model is not None:
        model._highs = highs if solved else None
    outcome = _STATUS.get(status) if solved else None
    if outcome is None:
        raise SolverError("MILP solve failed (HiGHS status "
                          f"{highs.modelStatusToString(status)!r})")
    info = highs.getInfo()
    fun = info.objective_function_value
    if outcome == OPTIMAL or (outcome == GAP_LIMIT and is_mip
                              and fun < math.inf):
        x = np.array(highs.getSolution().col_value)
        gap, nodes = (info.mip_gap, info.mip_node_count) if is_mip else (0.0, 1)
        return Solution(outcome, fun, x, mip_gap=gap, node_count=max(1, nodes))
    return Solution(outcome, -math.inf if outcome == UNBOUNDED else math.inf,
                    None, mip_gap=math.inf if outcome == GAP_LIMIT else 0.0,
                    node_count=1)
