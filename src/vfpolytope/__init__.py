"""Exact value-function geometry and learning dynamics for finite MDPs."""

__version__ = "0.7.0"

from .mdp import (  # noqa: F401
    FIXTURE_NAMES,
    Mdp,
    Policy,
    builtin_fixture,
    deterministic_policies,
    dump_mdp,
    example1_mdp,
    load_mdp,
    random_mdp,
    random_policy,
)
from .evaluation import (  # noqa: F401
    InducedChain,
    bellman_apply,
    induce,
    optimal_value,
    optimality_bellman_apply,
    q_values,
    value_function,
    value_function_batch,
)
from .geometry import (  # noqa: F401
    AffineSlice,
    AgreementSet,
    InterpolationCurve,
    LineSegment,
    affine_slice,
    hull_2d,
    interpolation_curve,
    line_segment,
    membership_gap,
    mix_policies,
    path_between,
    point_in_hull,
    polytope_vertices_det,
    sample_values,
    slice_rank,
)
from .dynamics import (  # noqa: F401
    CemConfig,
    Trajectory,
    discounted_distribution,
    fisher_information,
    natural_policy_gradient,
    policy_gradient,
    resolve_init,
    run_cem,
    run_npg,
    run_policy_gradient,
    run_policy_iteration,
    run_value_iteration,
    softmax_policy,
)
from .verification import (  # noqa: F401
    CheckReport,
    McEstimate,
    OracleConfig,
    SUITE_NAMES,
    compare_oracles,
    mc_value_oracle,
    neumann_value_oracle,
    run_suite,
)
