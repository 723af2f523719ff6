"""Inventory of the package's public options, and a check that each is used.

Each callable `vfpolytope` exports maps to its parameter names; each exported
dataclass maps to its fields, and each of its public methods (as
"Class.method") to its parameter names. Adding, renaming or removing a
public option is an edit to this list.
"""
import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import vfpolytope

ROOT = Path(__file__).resolve().parents[1]

API = {
    "AffineSlice": ("anchor", "basis"),
    "AffineSlice.projection_residual": ("point",),
    "AgreementSet": ("base", "fixed_states"),
    "CemConfig": ("noise_scale", "iterations", "seed"),
    "CheckReport": ("check_name", "instances_run", "failures", "max_deviation"),
    "CheckReport.record": ("descriptor", "deviation", "tolerance"),
    "CheckReport.to_dict": (),
    "InterpolationCurve": ("mus", "rhos", "omega", "constant"),
    "LineSegment": ("pi_low", "pi_high", "v_low", "v_high"),
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
    "value_function": ("mdp", "policy"),
    "value_function_batch": ("mdp", "probs"),
}


def _parameters(func) -> tuple[str, ...]:
    names = inspect.signature(func).parameters
    return tuple(name for name in names if name not in ("self", "cls"))


def _exports() -> dict[str, object]:
    """The package's exported names, resolved through its lazy attributes."""
    return {name: getattr(vfpolytope, name) for name in vfpolytope.__all__}


def _inventory() -> dict[str, tuple[str, ...]]:
    found = {}
    for name, value in _exports().items():
        if inspect.ismodule(value) or not callable(value):
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


# Exported names that nothing in src/ or scripts/ uses, each kept for a reason.
UNUSED_EXPORTS = {
    "example1_mdp": "acceptance criterion 01 checks the paper's Example 1 with it",
    "membership_gap": "ROADMAP items 4 and 5 decide membership with it",
}


def _referenced_names() -> set[str]:
    """Names and attributes that src/ (but __init__.py) and scripts/ read.

    A use inside a top-level function or class does not count for that
    function or class itself, so recursion is no use.
    """
    paths = [
        p for p in (ROOT / "src" / "vfpolytope").glob("*.py") if p.name != "__init__.py"
    ] + sorted((ROOT / "scripts").glob("*.py"))
    found = set()
    for path in paths:
        for statement in ast.parse(path.read_text()).body:
            names = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(statement)
                if isinstance(node, (ast.Name, ast.Attribute))
            }
            found |= names - {getattr(statement, "name", None)}
    return found


def test_every_export_is_used_by_the_package_or_scripts():
    exported = {name for name, value in _exports().items() if not inspect.ismodule(value)}
    assert exported - _referenced_names() == set(UNUSED_EXPORTS)


def test_no_function_imports():
    # Every deferred module is a lazy module that __init__ registers, and a
    # module binds what it uses at its top. _register_lazy imports sys and
    # importlib locally so they stay out of dir(vfpolytope).
    found = [
        (path.name, node.name)
        for path in sorted((ROOT / "src" / "vfpolytope").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(inner, (ast.Import, ast.ImportFrom)) for inner in ast.walk(node))
    ]
    assert found == [("__init__.py", "_register_lazy")]


def test_no_function_defaults_to_a_function():
    # A function the package holds as a default argument escapes a patch of
    # its module attribute, so binding by module attribute alone would not
    # reach every caller (test_mutations.apply_fault and the benchmark's
    # tracer patch nothing else).
    found = []
    for path in sorted((ROOT / "src" / "vfpolytope").glob("*.py")):
        name = "vfpolytope" if path.stem == "__init__" else f"vfpolytope.{path.stem}"
        module = importlib.import_module(name)
        owners = [module, *(v for v in vars(module).values() if inspect.isclass(v))]
        for owner in owners:
            for attr, func in vars(owner).items():
                func = getattr(func, "__func__", func)
                if not inspect.isfunction(func) or func.__module__ != name:
                    continue
                defaults = (*(func.__defaults__ or ()), *(func.__kwdefaults__ or {}).values())
                if any(inspect.isroutine(d) for d in defaults):
                    found.append(f"{name}.{attr}")
    assert found == []


def test_version_matches_pyproject():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert vfpolytope.__version__ == project["version"]


# The names `from vfpolytope import *` bound, and the public names
# dir(vfpolytope) listed, in a fresh interpreter when __init__ imported every
# module: the exports above, their five modules and errors.
PUBLIC_NAMES = sorted([
    *(name for name in API if "." not in name),
    "FIXTURE_NAMES", "SUITE_NAMES",
    "dynamics", "errors", "evaluation", "geometry", "mdp", "verification",
])


def test_star_import_and_dir_give_the_public_names():
    code = (
        "import vfpolytope; namespace = {}; "
        "exec('from vfpolytope import *', namespace); "
        "print(sorted(set(namespace) - {'__builtins__'})); "
        "print([name for name in dir(vfpolytope) if not name.startswith('_')])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(vfpolytope.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [str(PUBLIC_NAMES)] * 2
