"""Per-layer tracing from outside the package.

The tracer replaces the public functions of each module of `vfpolytope`
(a layer) with wrappers that record a span per call, and counts
`numpy.linalg.solve` calls and `numpy.random.default_rng` constructions.
Spans stay in memory; a layer's self time is its spans' durations minus
the part covered by their child spans. Nothing inside the package changes,
so tracing never touches an output or a digest.
"""
from __future__ import annotations

import inspect
import sys
import time
import tokenize
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("mdp", "evaluation", "geometry", "dynamics", "verification", "output")
MODULES = ("cli", "errors") + LAYERS
ALGOS = ("vi", "pi", "pg", "entpg", "npg", "cem", "cemcn")

# Public function -> metric bucket; every other public function of a layer
# goes to the bucket "other". A callable picks the bucket from the call's
# arguments.
BUCKETS = {
    "mdp": {"load_mdp": "load", "deterministic_policies": "enumerate"},
    "evaluation": {
        "value_function_batch": "batch",
        "value_function": "single",
        "induce": "single",
        "optimal_value": "optimal_value",
        "optimality_bellman_apply": "bellman",
        "q_values": "bellman",
        "bellman_apply": "bellman",
    },
    "geometry": {
        "sample_policy_probs": "sample",
        "sample_values": "sample",
        "boundary_semidet_sample": "sample",
        "line_segment": "line",
        "interpolation_curve": "line",
        "mix_policies": "line",
        "hull_2d": "hull",
        "point_in_hull": "hull",
        "points_in_hull": "hull",
    },
    "dynamics": {
        "run_value_iteration": "vi",
        "run_policy_iteration": "pi",
        "run_policy_gradient": lambda a: "entpg" if a.get("entropy_coeff") else "pg",
        "run_npg": "npg",
        "run_cem": lambda a: "cemcn" if a["config"].noise_scale > 0 else "cem",
        "policy_gradient": "gradient",
        "natural_policy_gradient": "natural",
        "fisher_information": "natural",
    },
    "verification": {
        "run_suite": lambda a: a["suite_name"],
        "dense_value_cloud": "cloud",
        "cloud_boundary_points": "sweep",
    },
    "output": {
        "write_csv": "csv",
        "svg_scatter": "svg",
        "write_svg": "svg",
        "write_manifest": "manifest",
        "sha256_file": "manifest",
    },
}

# Called once per CSV cell: a span each would cost more than the cell, so its
# time stays in the self time of write_csv.
UNWRAPPED = ("format_cell",)

# Hooks below that read the call's arguments rather than only its result.
ARGUMENT_HOOKS = ("load_mdp", "write_csv", "write_svg")

# Counters that must repeat exactly between two traced runs of one commit.
EXACT = (
    "geometry.rng_streams",
    "evaluation.lapack_solves",
    "evaluation.batch_policies",
    "output.bytes_written",
    "verification.instances",
) + tuple(f"dynamics.{algo}_iters" for algo in ALGOS)


def _solve_flops(a: np.ndarray, b: np.ndarray) -> int:
    """LU factorization plus substitutions: 2/3 n^3 + 2 n^2 k per system."""
    n = a.shape[-1]
    k = 1 if b.ndim == a.ndim - 1 else b.shape[-1]
    systems = int(np.prod(a.shape[:-2], dtype=np.int64))
    return systems * (2 * n**3 // 3 + 2 * n * n * k)


class Tracer:
    """Spans and counters of one in-process run; install, run, uninstall."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counters: Counter = Counter()
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([name, len(self.spans), time.perf_counter(), 0.0])
        self.spans.append(None)  # slot keeps spans in start order

    def _exit(self) -> None:
        end = time.perf_counter()
        name, slot, start, child_s = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child_s
        parent = -1
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][1]
        self.spans[slot] = (slot, parent, name, start, end)

    def run(self, main, argv: list[str]) -> int:
        """Call the CLI's main(argv) as the root span `cli.self`."""
        self._enter("cli.self")
        try:
            return main(argv)
        finally:
            self._exit()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, layer: str, name: str, func):
        bucket = BUCKETS[layer].get(name, "other")
        signature = inspect.signature(func)
        counters = self.counters
        after = getattr(self, f"_after_{name}", None)
        needs_args = callable(bucket) or name in ARGUMENT_HOOKS

        def wrapper(*args, **kwargs):
            arguments = None
            if needs_args:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            label = bucket(arguments) if callable(bucket) else bucket
            solves_before = counters["evaluation.lapack_solves"]
            self._enter(f"{layer}.{label}")
            try:
                result = func(*args, **kwargs)
            finally:
                self._exit()
            if layer == "dynamics" and label in ALGOS:
                counters[f"dynamics.{label}_iters"] += len(result) - 1
                counters[f"dynamics.{label}_solves"] += (
                    counters["evaluation.lapack_solves"] - solves_before
                )
            if after is not None:
                after(arguments, result)
            return result

        return wrapper

    def _after_load_mdp(self, args, result) -> None:
        self.counters["mdp.load_bytes"] += len(args["text"].encode())

    def _after_deterministic_policies(self, args, result) -> None:
        self.counters["mdp.det_policies"] += len(result)

    def _after_value_function_batch(self, args, result) -> None:
        n, n_states = result.shape
        self.counters["evaluation.batch_calls"] += 1
        self.counters["evaluation.batch_policies"] += n
        self.counters["evaluation.batch_bytes_computed"] += n * n_states * n_states * 8

    def _after_value_function(self, args, result) -> None:
        self.counters["evaluation.single_calls"] += 1

    _after_induce = _after_value_function

    def _after_optimality_bellman_apply(self, args, result) -> None:
        self.counters["evaluation.bellman_sweeps"] += 1

    def _after_interpolation_curve(self, args, result) -> None:
        self.counters["geometry.line_points"] += len(result.mus)

    def _after_run_suite(self, args, result) -> None:
        self.counters["verification.instances"] += result.instances_run
        self.counters["verification.failures"] += len(result.failures)

    def _written(self, path) -> None:
        self.counters["output.bytes_written"] += Path(path).stat().st_size

    def _after_write_csv(self, args, result) -> None:
        self._written(args["path"])

    _after_write_svg = _after_write_csv

    def _after_write_manifest(self, args, result) -> None:
        self._written(result)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer's public functions wherever the package binds them."""
        modules = [sys.modules["vfpolytope"]] + [
            sys.modules[f"vfpolytope.{m}"] for m in MODULES
        ]
        for layer in LAYERS:
            module = sys.modules[f"vfpolytope.{layer}"]
            for name, func in list(vars(module).items()):
                if (
                    name.startswith("_")
                    or name in UNWRAPPED
                    or not inspect.isfunction(func)
                    or func.__module__ != module.__name__
                ):
                    continue
                wrapper = self._wrap(layer, name, func)
                for owner in modules:
                    for attr, value in list(vars(owner).items()):
                        if value is func:
                            self._patch(owner, attr, wrapper)

        solve, default_rng, counters = np.linalg.solve, np.random.default_rng, self.counters

        def counted_solve(a, b):
            counters["evaluation.lapack_solves"] += 1
            counters["evaluation.solve_flops_computed"] += _solve_flops(
                np.asarray(a), np.asarray(b)
            )
            return solve(a, b)

        def counted_rng(*args, **kwargs):
            counters["geometry.rng_streams"] += 1
            return default_rng(*args, **kwargs)

        self._patch(np.linalg, "solve", counted_solve)
        self._patch(np.random, "default_rng", counted_rng)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Self time per `<layer>.<bucket>_s`, counters, and derived ratios."""
        out: dict[str, float] = {f"{name}_s": s for name, s in self.self_s.items()}
        out.update(self.counters)
        policies = self.counters["evaluation.batch_policies"] + self.counters[
            "evaluation.single_calls"
        ]
        out["evaluation.policies_evaluated"] = policies
        out["evaluation.solves_per_policy"] = _ratio(
            self.counters["evaluation.lapack_solves"], policies
        )
        out["geometry.rng_streams_per_policy"] = _ratio(
            self.counters["geometry.rng_streams"], policies
        )
        for algo in ALGOS:
            out[f"dynamics.{algo}_solves_per_iter"] = _ratio(
                self.counters[f"dynamics.{algo}_solves"],
                self.counters[f"dynamics.{algo}_iters"],
            )
        return out

    def exact_counters(self) -> dict[str, int]:
        return {name: self.counters[name] for name in EXACT}


def _ratio(count: float, base: float) -> float:
    return count / base if base else 0.0


def source_loc(path: Path) -> int:
    """Lines holding code or docstrings: not blank and not only a comment."""
    lines: set[int] = set()
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    with open(path, "rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in skip:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)
