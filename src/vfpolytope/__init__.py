"""Exact value-function geometry and learning dynamics for finite MDPs.

Importing the package runs none of its modules. Each module of _EXPORTS is
registered as a lazy module: it is in sys.modules and is an attribute of the
package, but its code runs on its first attribute access. A public name is
resolved from its module on first access (PEP 562), so a program, `vfp`
included, runs only the modules it uses.
"""

__version__ = "0.22.3"

# Module -> the public names it defines; errors defines the exception types.
_EXPORTS = {
    "errors": (),
    "mdp": (
        "FIXTURE_NAMES",
        "Mdp",
        "Policy",
        "builtin_fixture",
        "deterministic_policies",
        "dump_mdp",
        "example1_mdp",
        "load_mdp",
        "random_mdp",
        "random_policy",
    ),
    "evaluation": (
        "optimal_value",
        "optimality_bellman_apply",
        "q_values",
        "value_function",
        "value_function_batch",
    ),
    "geometry": (
        "AffineSlice",
        "AgreementSet",
        "InterpolationCurve",
        "LineSegment",
        "affine_slice",
        "interpolation_curve",
        "line_segment",
        "membership_gap",
        "polytope_vertices_det",
        "sample_values",
        "slice_rank",
    ),
    "dynamics": (
        "CemConfig",
        "Trajectory",
        "resolve_init",
        "run_cem",
        "run_npg",
        "run_policy_gradient",
        "run_policy_iteration",
        "run_value_iteration",
    ),
    "verification": ("CheckReport", "SUITE_NAMES", "run_suite"),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_OWNER])


def _register_lazy(module: str):
    """Put the submodule in sys.modules, to run on its first attribute access."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = lazy
    spec.loader.exec_module(lazy)
    return lazy


for _module in _EXPORTS:
    globals()[_module] = _register_lazy(_module)
del _module


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_OWNER[name]], name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
