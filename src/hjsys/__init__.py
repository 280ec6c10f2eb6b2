"""Numerical laboratory for weakly coupled first-order Hamilton-Jacobi
systems on the flat torus: monotone evolution schemes, discounted cell
problems, large-time diagnostics, and the switching-process simulator."""
from .coupling import (
    CouplingMatrix,
    CouplingReport,
    PerronVector,
    analyze,
    constant_solution,
    delta_rate,
    ergodic_constant_formula,
    irreducible_bruteforce,
    is_irreducible,
    pairwise_nonzero,
    perron_vector,
    validate_monotone,
)
from .diagnostics import (
    ConvergenceReport,
    GapDecay,
    SetEvaluation,
    build_report,
    component_gap_decay,
    evaluate_on_set,
    exp_transform,
    monotone_tail,
    p_eta,
    p_eta_table,
    profile_distances,
    shift_trajectory,
    undo_exp_transform,
)
from .ergodic import (
    DiscountInfo,
    DiscountSchedule,
    ErgodicResult,
    estimate_ergodic_constant,
    long_time_constant,
    solve_discounted,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DivergenceError,
    HJSysError,
    StructureError,
)
from .evolution import (
    ComparisonReport,
    EvolutionConfig,
    HJSystem,
    LipschitzReport,
    SystemState,
    Trajectory,
    cfl_dt,
    comparison_check,
    lipschitz_check,
    solve,
    solve_batch,
    step,
)
from .grid import (
    Grid,
    GridFunction,
    diff_arrays,
    interp_periodic,
    linf_distance,
    load_binary,
    load_csv,
    one_sided_diffs,
    osc,
    sample,
    save_binary,
    save_csv,
    sup_norm,
)
from .hamiltonians import (
    AssumptionReport,
    Hamiltonian,
    SamplerConfig,
    check_assumption,
    grad_p,
    lax_friedrichs_flux,
    make_linear_eikonal,
    make_nonconvex_example,
    make_quadratic_eikonal,
    numerical_flux,
    sampled_grad_sup,
)
from .suites import CheckResult, SuiteResult, run_suite
from .switching import (
    ConstantPolicy,
    GreedyGradientPolicy,
    Path,
    SwitchingProcessSpec,
    ValueEstimate,
    coupling_from_spec,
    estimate_value,
    estimate_values,
    hamiltonian_from_spec,
    simulate_trajectory,
)
from . import catalog

__version__ = "0.1.0"
