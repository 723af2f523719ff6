"""Inventory of the package's public options.

Each callable `vfpolytope` exports maps to its parameter names; each exported
dataclass maps to its fields, and each of its public methods (as
"Class.method") to its parameter names. Adding, renaming or removing a
public option is an edit to this list.
"""
import dataclasses
import inspect

import vfpolytope

API = {
    "AffineSlice": ("anchor", "basis"),
    "AffineSlice.projection_residual": ("point",),
    "AgreementSet": ("base", "fixed_states"),
    "CemConfig": ("noise_scale", "iterations", "seed"),
    "CheckReport": ("check_name", "instances_run", "failures", "max_deviation"),
    "CheckReport.record": ("descriptor", "deviation", "tolerance"),
    "CheckReport.to_dict": (),
    "InterpolationCurve": ("mus", "rhos", "omega", "constant"),
    "LineSegment": ("pi_low", "pi_high", "v_low", "v_high", "state"),
    "Mdp": ("n_states", "n_actions", "rewards", "transitions", "gamma"),
    "Mdp.value_bound": (),
    "Policy": ("probs",),
    "Policy.uniform": ("n_states", "n_actions"),
    "Policy.deterministic": ("actions", "n_actions"),
    "Policy.with_row": ("state", "row"),
    "Policy.is_deterministic_at": ("state",),
    "Trajectory": ("points", "columns"),
    "affine_slice": ("mdp", "agreement"),
    "builtin_fixture": ("name",),
    "deterministic_policies": ("mdp",),
    "dump_mdp": ("mdp",),
    "example1_mdp": ("gamma",),
    "interpolation_curve": ("mdp", "p0", "p1", "state", "grid_size"),
    "line_segment": ("mdp", "policy", "state"),
    "load_mdp": ("text",),
    "membership_gap": ("mdp", "values"),
    "optimal_value": ("mdp",),
    "optimality_bellman_apply": ("mdp", "v"),
    "polytope_vertices_det": ("mdp",),
    "q_values": ("mdp", "v"),
    "random_mdp": ("n_states", "n_actions", "gamma", "seed"),
    "random_policy": ("mdp", "seed"),
    "resolve_init": ("mdp", "kind"),
    "run_cem": ("mdp", "init", "config"),
    "run_npg": ("mdp", "init", "eta", "iterations"),
    "run_policy_gradient": ("mdp", "init", "eta", "iterations", "entropy_coeff"),
    "run_policy_iteration": ("mdp", "v0"),
    "run_suite": ("suite_name", "trials", "seed", "mdp"),
    "run_value_iteration": ("mdp", "v0", "iterations"),
    "sample_values": ("mdp", "n", "seed", "agreement"),
    "slice_rank": ("values",),
    "softmax_policy": ("theta",),
    "value_function": ("mdp", "policy"),
    "value_function_batch": ("mdp", "probs"),
}


def _parameters(func) -> tuple[str, ...]:
    names = inspect.signature(func).parameters
    return tuple(name for name in names if name not in ("self", "cls"))


def _inventory() -> dict[str, tuple[str, ...]]:
    found = {}
    for name, value in vars(vfpolytope).items():
        if name.startswith("_") or inspect.ismodule(value) or not callable(value):
            continue
        if not dataclasses.is_dataclass(value):
            found[name] = _parameters(value)
            continue
        found[name] = tuple(field.name for field in dataclasses.fields(value))
        for attr, member in vars(value).items():
            if isinstance(member, (classmethod, staticmethod)):
                member = member.__func__
            if not attr.startswith("_") and inspect.isfunction(member):
                found[f"{name}.{attr}"] = _parameters(member)
    return found


def test_public_options_match_the_inventory():
    assert _inventory() == API
