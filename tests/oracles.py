"""Independent oracles shared by the unit and acceptance suites.

Everything here recomputes expected values from first principles
(enumeration, brute force) or through a second solver path: an LP solve by
``linprog`` on matrices assembled straight from the model's row buffers
(:func:`model_rows`), and a
best-first branch-and-bound over those LPs.  None of it calls
``solve_milp``, the routine it checks.  The last sections hold a
fixed-decision model, the regulation-direction binaries the UC compiler
leaves out, the trade-direction binaries and step-window rows the ADN
compiler leaves out and adds, the gap of one reduction and small
scenario-set helpers the tests share and no pipeline command uses.
"""

import itertools
import math
import time
from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from pdsr.clustering import ReductionResult
from pdsr.errors import ModelError, PdsrError, SolverError
from pdsr.evaluation import GapOutcome, verification_costs
from pdsr.milp import (DEFAULT_GAP_TOL, EQ, GAP_LIMIT, GE, INFEASIBLE, LE,
                       OPTIMAL, UNBOUNDED, MixedBinaryModel, Solution,
                       _gating_repair)
from pdsr.scenarios import ScenarioSet
from pdsr.tsso import _fixed_bounds, solve_stochastic

# |x - round(x)| below this counts as integral.
_INT_TOL = 1e-6


@dataclass
class OracleSolution(Solution):
    """A :class:`pdsr.milp.Solution` plus what only the oracles report."""

    dual_objective: float | None = None
    # (node index, incumbent objective, global lower bound) at each
    # improvement event; incumbents are non-increasing, bounds non-decreasing.
    trace: list = field(default_factory=list)


def model_rows(model):
    """The model's rows as ``(terms, relation, rhs)``, ``terms`` the row's
    ``(column, coefficient)`` pairs, read straight from its row buffers."""
    start = 0
    for n, rel, rhs in zip(model.row_len, model.row_rel, model.row_rhs):
        stop = start + n
        yield (list(zip(model.row_cols[start:stop],
                        model.row_vals[start:stop])), rel, rhs)
        start = stop


def _lp_arrays(model):
    """``linprog`` arrays (c, A_ub, b_ub, A_eq, b_eq) read from the model's
    rows: ``>=`` rows are negated into ``<=`` rows, equalities kept apart."""
    n = model.num_vars
    c = np.zeros(n)
    for j, a in model.obj.items():
        c[j] = a
    ub_r, ub_c, ub_v, ub_b = [], [], [], []
    eq_r, eq_c, eq_v, eq_b = [], [], [], []
    for terms, rel, rhs in model_rows(model):
        if rel == EQ:
            r, cc, vv, bb = eq_r, eq_c, eq_v, eq_b
            sign = 1.0
        else:
            r, cc, vv, bb = ub_r, ub_c, ub_v, ub_b
            sign = 1.0 if rel == LE else -1.0
        i = len(bb)
        for j, a in terms:
            r.append(i)
            cc.append(j)
            vv.append(sign * a)
        bb.append(sign * rhs)
    A_ub = (sparse.csr_matrix((ub_v, (ub_r, ub_c)), shape=(len(ub_b), n))
            if ub_b else None)
    A_eq = (sparse.csr_matrix((eq_v, (eq_r, eq_c)), shape=(len(eq_b), n))
            if eq_b else None)
    return (c, A_ub, np.array(ub_b) if ub_b else None,
            A_eq, np.array(eq_b) if eq_b else None)


def _dual_objective(res, b_ub, b_eq, lo, hi):
    """Reconstruct the dual objective from HiGHS marginals (weak-duality
    spot checks); None when any piece is unavailable."""
    try:
        total = 0.0
        if b_ub is not None:
            total += float(np.dot(b_ub, res.ineqlin.marginals))
        if b_eq is not None:
            total += float(np.dot(b_eq, res.eqlin.marginals))
        lom = np.asarray(res.lower.marginals)
        him = np.asarray(res.upper.marginals)
        finite_lo = np.where(np.isfinite(lo), lo, 0.0)
        finite_hi = np.where(np.isfinite(hi), hi, 0.0)
        total += float(np.dot(finite_lo, np.where(lom != 0.0, lom, 0.0)))
        total += float(np.dot(finite_hi, np.where(him != 0.0, him, 0.0)))
        return total
    except (AttributeError, TypeError):
        return None


def _solve_relaxation(arrays, lo, hi, want_duals=False):
    """Solve the LP relaxation of ``_lp_arrays`` output at the given bounds.

    Returns (status, objective, x, dual_objective).
    """
    c, A_ub, b_ub, A_eq, b_eq = arrays
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=np.column_stack([lo, hi]), method="highs-ds")
    if res.status == 0:
        dual = _dual_objective(res, b_ub, b_eq, lo, hi) if want_duals else None
        return OPTIMAL, float(res.fun), np.asarray(res.x), dual
    if res.status == 2:
        return INFEASIBLE, math.inf, None, None
    if res.status == 3:
        return UNBOUNDED, -math.inf, None, None
    raise SolverError(f"LP solve failed (HiGHS status {res.status}): {res.message}")


def solve_lp(model):
    """Solve the LP relaxation of ``model`` (binaries relaxed to [0, 1]).

    Returns a vertex-optimal solution with its dual objective, or a
    solution carrying an infeasible/unbounded status.
    """
    model.validate()
    lo = np.array(model.lb)
    hi = np.array(model.ub)
    status, fun, x, dual = _solve_relaxation(_lp_arrays(model), lo, hi,
                                             want_duals=True)
    if status != OPTIMAL:
        return OracleSolution(status,
                              math.inf if status == INFEASIBLE else -math.inf,
                              None, node_count=1)
    return OracleSolution(OPTIMAL, fun, x, node_count=1, dual_objective=dual)


def solve_milp_reference(model, gap_tol=DEFAULT_GAP_TOL, time_limit=None):
    """Best-first branch-and-bound over LP relaxations.

    Returns the incumbent once its relative gap to the best open bound is
    proven <= ``gap_tol``; on ``time_limit`` the best incumbent is returned
    with status ``gap_limit``.  Branching picks the most-fractional binary,
    ties broken by lowest variable index; the node queue is ordered by
    (parent bound, creation order), so two solves of one model agree.  At
    the root a full binary fixing from the model's gating repair is tried
    as a first incumbent.
    """
    model.validate()
    if gap_tol < 0:
        raise ModelError("gap_tol must be >= 0")
    t0 = time.monotonic()
    arrays = _lp_arrays(model)
    binaries = np.array(model.binary_indices, dtype=int)
    lo0 = np.array(model.lb)
    hi0 = np.array(model.ub)

    status, fun, x, _ = _solve_relaxation(arrays, lo0, hi0)
    nodes = 1
    if status != OPTIMAL:
        return OracleSolution(status,
                              math.inf if status == INFEASIBLE else -math.inf,
                              None, node_count=nodes)
    if binaries.size == 0:
        return OracleSolution(OPTIMAL, fun, x, node_count=nodes)

    inc_x = None
    inc_obj = math.inf
    trace = []

    def relative_gap(bound):
        if inc_x is None:
            return math.inf
        return (inc_obj - bound) / max(abs(inc_obj), 1e-10)

    def fractional(xr):
        f = np.abs(xr[binaries] - np.round(xr[binaries]))
        k = int(np.argmax(f))
        return (int(binaries[k]), float(f[k]))

    def bounds_for(fixings):
        lo, hi = lo0.copy(), hi0.copy()
        for j, v in fixings.items():
            lo[j] = hi[j] = v
        return lo, hi

    def try_incumbent(xr, obj, lower):
        nonlocal inc_x, inc_obj
        if obj < inc_obj - 1e-12:
            inc_x, inc_obj = xr, obj
            trace.append((nodes, obj, lower))

    frac_j, frac = fractional(x)
    if frac <= _INT_TOL:
        return OracleSolution(OPTIMAL, fun, x, node_count=nodes)
    fixing = _gating_repair(model, x)
    hlo, hhi = bounds_for({j: float(v) for j, v in fixing.items()})
    st, f, hx, _ = _solve_relaxation(arrays, hlo, hhi)
    nodes += 1
    if st == OPTIMAL:
        try_incumbent(hx, f, fun)

    # heap entries: (bound, insertion counter, binary fixings, branch var);
    # only the small fixings dict is retained per open node.
    counter = 0
    heap = [(fun, counter, {}, frac_j)]

    while heap:
        lower = heap[0][0]
        if relative_gap(lower) <= gap_tol:
            break
        if time_limit is not None and time.monotonic() - t0 > time_limit:
            return OracleSolution(GAP_LIMIT,
                                  inc_obj if inc_x is not None else math.inf,
                                  inc_x, mip_gap=relative_gap(lower),
                                  node_count=nodes, trace=trace)
        bound, _, fixings, branch_j = heappop(heap)
        if inc_x is not None and bound >= inc_obj - 1e-12:
            continue
        for value in (0.0, 1.0):
            child = dict(fixings)
            child[branch_j] = value
            clo, chi = bounds_for(child)
            st, f, cx, _ = _solve_relaxation(arrays, clo, chi)
            nodes += 1
            if st != OPTIMAL:
                continue
            if inc_x is not None and f >= inc_obj - 1e-12:
                continue
            cj, cf = fractional(cx)
            if cf <= _INT_TOL:
                try_incumbent(cx, f, lower)
            else:
                counter += 1
                heappush(heap, (f, counter, child, cj))

    if inc_x is None:
        return OracleSolution(INFEASIBLE, math.inf, None, node_count=nodes,
                              trace=trace)
    final_lower = heap[0][0] if heap else inc_obj
    viol = model.max_violation(inc_x)
    if viol > 1e-5:
        raise SolverError(f"incumbent violates constraints by {viol:.3e}")
    return OracleSolution(OPTIMAL, inc_obj, inc_x,
                          mip_gap=max(0.0, relative_gap(final_lower)),
                          node_count=nodes, trace=trace)


def random_lp(rng, n_vars=None, n_rows=None):
    """Random bounded LP, feasible by construction (interior point trick)."""
    n = n_vars or int(rng.integers(2, 7))
    rows = n_rows if n_rows is not None else int(rng.integers(1, 7))
    m = MixedBinaryModel()
    lo = rng.uniform(-3.0, 0.0, n)
    hi = lo + rng.uniform(0.5, 4.0, n)
    xs = [m.add_var(f"x{j}", lo[j], hi[j]) for j in range(n)]
    x0 = rng.uniform(lo, hi)
    for j, c in enumerate(rng.normal(size=n)):
        m.add_objective(xs[j], float(c))
    for _ in range(rows):
        nz = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        coeffs = {xs[j]: float(rng.normal()) for j in nz}
        act = sum(a * x0[j] for j, a in zip(nz, coeffs.values()))
        kind = rng.integers(0, 3)
        if kind == 0:
            m.add_row(list(coeffs), list(coeffs.values()), LE,
                      act + float(rng.uniform(0.05, 1.0)))
        elif kind == 1:
            m.add_row(list(coeffs), list(coeffs.values()), GE,
                      act - float(rng.uniform(0.05, 1.0)))
        else:
            m.add_row(list(coeffs), list(coeffs.values()), EQ, act)
    return m


def scipy_constraints(constraints):
    """The ``(A, lower, upper)`` rows of ``MixedBinaryModel._assembled()``
    with ``A`` as a ``scipy.sparse.csc_array``, the form
    ``scipy.optimize.milp`` takes."""
    A, lower, upper = constraints
    return (sparse.csc_array((A.data, A.indices, A.indptr), shape=A.shape),
            lower, upper)


def enumerate_vertices_optimum(model):
    """Best objective over all basic feasible points: every n-subset of
    hyperplanes (rows as equalities plus bound faces) solved and checked."""
    n = model.num_vars
    planes = []
    for terms, rel, rhs in model_rows(model):
        row = np.zeros(n)
        for j, a in terms:
            row[j] = a
        planes.append((row, rhs))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        if math.isfinite(model.lb[j]):
            planes.append((e.copy(), model.lb[j]))
        if math.isfinite(model.ub[j]):
            planes.append((e.copy(), model.ub[j]))
    c = np.zeros(n)
    for j, a in model.obj.items():
        c[j] = a
    best = math.inf
    for subset in itertools.combinations(range(len(planes)), n):
        A = np.array([planes[k][0] for k in subset])
        b = np.array([planes[k][1] for k in subset])
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if model.max_violation(x) > 1e-8:
            continue
        best = min(best, float(c @ x))
    return best


def random_milp(rng, max_binaries=12, max_cont=8):
    """Random mixed-binary model with a guaranteed feasible assignment."""
    nb = int(rng.integers(1, max_binaries + 1))
    nc = int(rng.integers(0, max_cont + 1))
    m = MixedBinaryModel()
    bs = [m.add_var(f"b{j}", 0.0, 1.0, binary=True) for j in range(nb)]
    lo = rng.uniform(-2.0, 0.0, nc)
    hi = lo + rng.uniform(0.5, 3.0, nc)
    xs = [m.add_var(f"x{j}", lo[j], hi[j]) for j in range(nc)]
    for v in bs + xs:
        m.add_objective(v, float(rng.normal()))
    b0 = rng.integers(0, 2, nb).astype(float)
    x0 = rng.uniform(lo, hi) if nc else np.zeros(0)
    point = np.concatenate([b0, x0])
    handles = bs + xs
    for _ in range(int(rng.integers(1, 9))):
        nz = rng.choice(len(handles), size=int(rng.integers(1, len(handles) + 1)),
                        replace=False)
        coeffs = {handles[k]: float(rng.normal()) for k in nz}
        act = sum(a * point[k] for k, a in zip(nz, coeffs.values()))
        if rng.integers(0, 2):
            m.add_row(list(coeffs), list(coeffs.values()), LE,
                      act + float(rng.uniform(0.05, 1.0)))
        else:
            m.add_row(list(coeffs), list(coeffs.values()), GE,
                      act - float(rng.uniform(0.05, 1.0)))
    return m, bs


def brute_force_milp(model, binaries):
    """Enumerate all binary assignments; LP per fixing; keep the best."""
    best = math.inf
    arrays = _lp_arrays(model)
    for assignment in itertools.product((0.0, 1.0), repeat=len(binaries)):
        lo = np.array(model.lb)
        hi = np.array(model.ub)
        lo[binaries] = hi[binaries] = assignment
        status, fun, _, _ = _solve_relaxation(arrays, lo, hi)
        if status == OPTIMAL:
            best = min(best, fun)
    return best


def enumerate_clustering(d, gamma, beta=None, fixed_k=None):
    """Exhaustive clustering optimum: every representative set, members
    assigned to their cheapest representative."""
    n = len(gamma)
    best = np.inf
    for r in range(1, n + 1):
        if fixed_k is not None and r != fixed_k:
            continue
        for reps in itertools.combinations(range(n), r):
            cost = sum(gamma[i] * min(d[i, j] for j in reps) for i in range(n))
            if beta is not None:
                cost += beta * r / n
            best = min(best, cost)
    return best


# -- fixed-decision models ---------------------------------------------------


def fixed_model(problem, decision, scenario) -> MixedBinaryModel:
    """Scenario ``scenario``'s program with its first-stage columns fixed at
    ``decision`` in the model's own bounds (binaries rounded), the model
    ``evaluate_with_fixed_first_stage`` solves through bound overrides."""
    model = problem.build_model([scenario], [1.0])
    model.lb, model.ub = (b.tolist() for b in _fixed_bounds(problem, decision,
                                                             model))
    return model


# -- UC regulation direction -------------------------------------------------


def with_direction_binaries(model) -> MixedBinaryModel:
    """``model``, a compiled UC program, with a regulation-direction binary
    ``DG`` per up/down pair, found by the ``Rp[``/``Rm[`` names: ``Rp <=
    cap·DG`` and ``Rm + cap·DG <= cap``, ``cap`` the pair's ``Rp`` upper
    bound (the generator's ``p_max``), and its gating triple: the
    formulation that forbids regulating both ways, which ``pdsr.uc``
    shows redundant.  ``model`` is changed in place and returned."""
    names = model.var_names
    down = {name[3:]: j for j, name in enumerate(names)
            if name.startswith("Rm[")}
    for up, name in [(j, name) for j, name in enumerate(names)
                     if name.startswith("Rp[")]:
        dn = down[name[3:]]
        cap = model.ub[up]
        d = model.add_var("DG[" + name[3:], 0.0, 1.0, binary=True)
        model.add_row([up, d], [1.0, -cap], LE, 0.0)
        model.add_row([dn, d], [1.0, cap], LE, cap)
        model.gating.append((d, dn, up))
    return model


# -- ADN trade direction and step windows ------------------------------------


def with_trade_direction_binaries(model) -> MixedBinaryModel:
    """``model``, a compiled ADN program, with a trade-direction binary
    ``DT`` per balancing pair, found by the ``Tp[``/``Tm[`` names: ``Tp +
    cap·DT <= cap`` and ``Tm <= cap·DT``, ``cap`` the pair's ``Tp`` upper
    bound (the interconnection limit), and its gating triple: the
    formulation that forbids trading both ways, which ``pdsr.adn`` shows
    redundant at prices >= 0.  ``model`` is changed in place and
    returned."""
    names = model.var_names
    sell = {name[3:]: j for j, name in enumerate(names)
            if name.startswith("Tm[")}
    for buy, name in [(j, name) for j, name in enumerate(names)
                      if name.startswith("Tp[")]:
        tm = sell[name[3:]]
        cap = model.ub[buy]
        d = model.add_var("DT[" + name[3:], 0.0, 1.0, binary=True)
        model.add_row([buy, d], [1.0, cap], LE, cap)
        model.add_row([tm, d], [1.0, -cap], LE, 0.0)
        model.gating.append((d, buy, tm))
    return model


def without_step_window_rows(model) -> MixedBinaryModel:
    """A new model holding ``model``, a compiled ADN program, without its
    step-window rows, found as the rows over an ``Ec[`` and an ``Ed[``
    column and at most an ``E[`` one besides: the formulation before those
    rows, which ``pdsr.adn`` shows valid.  ``model`` is left as it is."""
    names = model.var_names
    new = MixedBinaryModel()
    for j, name in enumerate(names):
        new.add_var(name, model.lb[j], model.ub[j], binary=model.is_binary[j])
    new.obj = dict(model.obj)
    new.obj_groups = {g: dict(terms) for g, terms in model.obj_groups.items()}
    new.gating = list(model.gating)
    for terms, rel, rhs in model_rows(model):
        kinds = {names[j].split("[")[0] for j, _ in terms}
        if len(kinds) == len(terms) and kinds - {"E"} == {"Ec", "Ed"}:
            continue
        new.add_row([j for j, _ in terms], [a for _, a in terms], rel, rhs)
    return new


# -- reduction gaps ----------------------------------------------------------


def reduced_gap(problem, scenario_set: ScenarioSet, result: ReductionResult,
                gap_tol=DEFAULT_GAP_TOL, workers=1, benchmark=None) -> GapOutcome:
    """Gap of the program on ``result``'s representatives with their
    weights, verified on the full set by ``verification_costs`` as
    ``evaluate`` verifies it; ``benchmark`` is the full-set (decision,
    objective) pair, or None for a gap not computed."""
    reps = result.representatives
    z = solve_stochastic(problem, [scenario_set.scenarios[r] for r in reps],
                         [result.weights[r] for r in reps], gap_tol=gap_tol)[0]
    [out] = verification_costs(problem, [z], scenario_set,
                               None if benchmark is None else float(benchmark[1]),
                               gap_tol, workers)
    if isinstance(out, PdsrError):
        raise out
    return out


# -- scenario-set helpers ----------------------------------------------------


def identity_reduction(probabilities) -> ReductionResult:
    """Every scenario its own representative (no reduction)."""
    n = len(probabilities)
    return ReductionResult(representatives=list(range(n)),
                           assignment={i: i for i in range(n)},
                           weights={i: float(probabilities[i]) for i in range(n)},
                           spdd=0.0, objective=0.0, method="identity")


def bad_scenario_ids(scenario_set: ScenarioSet) -> list[str]:
    """Ids the desk-instance generators flagged as injected bad scenarios."""
    return [s.id for s in scenario_set.scenarios if s.id.endswith("_bad")]


def scenario_subset(scenario_set: ScenarioSet, indices) -> ScenarioSet:
    """Set restricted to ``indices``, probabilities renormalized."""
    indices = list(indices)
    w = scenario_set.probabilities[indices]
    w = w / w.sum()
    return ScenarioSet(tuple(scenario_set.scenarios[i] for i in indices), w,
                       scenario_set.source_names, scenario_set.source_roles)


def scenario_index(scenario_set: ScenarioSet, scenario_id: str) -> int:
    """Position of the scenario with ``scenario_id``."""
    return scenario_set.ids().index(scenario_id)


def source_index(scenario_set: ScenarioSet, name: str) -> int:
    """Row of source ``name`` in every scenario's values."""
    return scenario_set.source_names.index(name)
