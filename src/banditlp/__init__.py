"""Budgeted Bayesian bandit exploration by LP relaxation and greedy rounding.

Build an instance (`statespace`), solve its relaxation and split it into
single-arm randomized policies (`relaxations`), round them into sequential
exploration plans and evaluate those exactly or by simulation (`policies`;
large Monte-Carlo calls run batched in `batched`), verify against exact
dynamic-programming optima (`oracle`), and drive the canonical instance
families and guarantee suites (`bench`).
"""

from .statespace import (
    ArmStateSpace,
    BanditInstance,
    BeliefState,
    ConcaveProblem,
    Diagnostic,
    Objective,
    build_beta_bernoulli_arm,
    build_two_level_arm,
    instance_from_json,
    instance_to_json,
    linear_value_tables,
    load_instance,
    make_concave_problem,
    save_instance,
    validate_instance,
)
from .lp import (
    LinearConstraint,
    LinearProgram,
    LPSolutionRaw,
    LPSolverError,
    check_feasibility,
    format_lp,
    solve_lp,
)
from .relaxations import (
    RelaxationSolution,
    SingleArmPolicy,
    build_budgeted_lp,
    build_concave_lp,
    build_lagrangean_lp,
    extract_single_arm_policies,
    solve_relaxation,
)
from .policies import (
    ExecutionTrace,
    GreedyOrderProcess,
    GreedyPlan,
    MonteCarloReport,
    NonadaptiveResult,
    RankedArm,
    TraceEvent,
    evaluate_plan_exact,
    execute_concave_greedy,
    execute_greedy_order,
    execute_greedy_violate,
    execute_lagrangean_greedy,
    make_greedy_plan,
    monte_carlo_evaluate,
    nonadaptive_two_level,
    prior_best_value,
    trace_to_jsonl,
    verify_trace,
)
from .oracle import (
    DecisionTable,
    JointState,
    OracleGuardError,
    PolicyStatistics,
    dp_optimal,
    enumerate_policy_statistics,
)
from .bench import (
    EvaluationReport,
    GeneratorSpec,
    SuiteOptions,
    adaptivity_gap_demo,
    as_concave,
    as_lagrangean,
    corrupt_instance,
    gen_adaptivity_gap,
    gen_integrality_gap,
    gen_random_suite,
    run_guarantee_suite,
)

__version__ = "0.1.0"
