"""Exact value-function geometry and learning dynamics for finite MDPs."""

__version__ = "0.22.0"

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
    interpolation_curve,
    line_segment,
    membership_gap,
    polytope_vertices_det,
    sample_values,
    slice_rank,
)
from .dynamics import (  # noqa: F401
    CemConfig,
    Trajectory,
    resolve_init,
    run_cem,
    run_npg,
    run_policy_gradient,
    run_policy_iteration,
    run_value_iteration,
)
from .verification import (  # noqa: F401
    CheckReport,
    SUITE_NAMES,
    run_suite,
)
