"""Problem-driven scenario reduction for two-stage stochastic dispatch.

Pipeline: project a scenario set into problem space by cross-evaluating
scenario-specific optima, cluster with an exact MILP on the symmetrized
opportunity-cost distance, then evaluate the reduction against the full
program and distribution-driven baselines.
"""

from .errors import (CacheError, ConfigError, InconsistencyError, ModelError,
                     PdsrError, RecourseError, ScenarioFormatError, SolverError)
from .milp import DEFAULT_GAP_TOL, MixedBinaryModel, Solution, solve_milp
from .scenarios import Scenario, ScenarioSet, load_scenarios, save_scenarios
from .tsso import (FirstStageDecision, TssoProblem,
                   evaluate_with_fixed_first_stage, solve_scenario_specific,
                   solve_stochastic)
from .adn import AdnConfig, AdnProblem, EsUnit, make_desk_instance
from .uc import Generator, UcConfig, UcProblem, make_uc_desk_instance
from .projection import (ProblemSpaceMatrix, build_problem_space_matrix,
                         fingerprint, load_matrix, save_matrix, solve_benchmark)
from .clustering import (PddMatrix, ReductionResult, compute_pdd,
                         solve_clustering, sweep_beta)
from .baselines import (hierarchical_reduce, kmeans_reduce, kmedoids_reduce,
                        run_baseline, worst_case_select)
from .evaluation import (EvaluationReport, GapOutcome, WorstCaseReport,
                         compare_methods, detect_worst_case, evaluate_reduction,
                         pddbi, spdd)

__version__ = "0.1.0"
