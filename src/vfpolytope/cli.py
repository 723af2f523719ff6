"""Command-line front door: fixtures, sampling, line probes, dynamics, verify.

Exit codes: 0 success, 1 verification failure, 2 usage or file error (an
unreadable input, an output path that cannot be written), 3 capability
error (any errors.CapabilityError; `verify --suite all` skips a suite that
raises one). A handler does all its fallible work before its first write.
Every file-writing command also emits a `<out>.manifest.json` recording
argv, config, seed, input digests, and output digests; re-running the
recorded argv reproduces the outputs byte for byte.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (
    INIT_KINDS,
    CemConfig,
    resolve_init,
    run_cem,
    run_npg,
    run_policy_gradient,
    run_policy_iteration,
    run_value_iteration,
)
from .errors import CapabilityError, VfpError
from .evaluation import value_function
from .geometry import (
    AgreementSet,
    interpolation_curve,
    line_segment,
    polytope_vertices_det,
    sample_values,
)
from .mdp import (
    FIXTURE_NAMES,
    Mdp,
    Policy,
    builtin_fixture,
    dump_mdp,
    load_mdp,
    random_policy,
)
from .output import write_csv, write_manifest, write_svg
from .verification import SUITE_NAMES, run_suite

USAGE_ERROR = 2
CAPABILITY_ERROR = 3

ALGORITHMS = ("vi", "pi", "pg", "entpg", "npg", "cem", "cemcn")

# Policy iteration runs until it settles and takes no --iters.
DEFAULT_ITERS = {"vi": 100, "pg": 2000, "entpg": 2000, "npg": 500,
                 "cem": 100, "cemcn": 100}

# verify's time grows linearly in --trials: for all 8 suites, about 25 ms per
# trial on the random family (the hull certificate is 23 ms of it) and about
# 8 ms on dyn2, on a 2-vCPU Xeon, so the cap allows a run of a few minutes.
MAX_TRIALS = 10_000

# Cap, in float64 cells (32 MiB), on --n*|S|*|A| for `sample`, --grid*|S|
# for `line` and --iters*|S| for `dynamics`, checked before any work. Sampled
# policies are drawn and evaluated one evaluation block at a time and every
# output is written as it is formatted, so a command's peak memory is set by
# its (--n, |S|) values, line values or trajectory values, each within the
# cap, not by the text it writes.
MAX_CELLS = 1 << 22


class CliError(VfpError):
    """A usage error: a flag value or input file the commands cannot use."""


def _resolve_mdp(spec: str) -> tuple[Mdp, dict[str, str]]:
    """Interpret --mdp as a fixture name or a JSON document path."""
    if spec in FIXTURE_NAMES:
        return builtin_fixture(spec), {"mdp": f"fixture:{spec}"}
    path = Path(spec)
    if not path.is_file():
        raise CliError(f"--mdp {spec!r} is neither a fixture name nor a file")
    text, digest = _read_input("--mdp", spec)
    return load_mdp(text), {str(path): digest}


def _read_input(flag: str, spec: str) -> tuple[str, str]:
    """The UTF-8 text of an input file and the SHA-256 of those bytes, in one read."""
    data = Path(spec).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CliError(f"{flag} {spec!r} is not UTF-8 text: {exc.reason}") from None
    return text, hashlib.sha256(data).hexdigest()


def _load_policy_file(path: Path, text: str, mdp: Mdp) -> Policy:
    try:
        doc = json.loads(text)
        policy = Policy(np.asarray(doc["probs"], dtype=float))
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad policy file {path}: {exc}") from exc
    if policy.probs.shape != (mdp.n_states, mdp.n_actions):
        raise CliError(f"policy in {path} does not match the MDP shape")
    return policy


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_fixtures(args):
    if args.action == "list":
        for name in FIXTURE_NAMES:
            fx = builtin_fixture(name)
            print(f"{name}\t|S|={fx.n_states}\t|A|={fx.n_actions}\tgamma={fx.gamma}")
        return None
    mdp = builtin_fixture(args.name)  # UnknownFixture -> exit 2 via main()
    Path(args.out).write_text(dump_mdp(mdp) + "\n")
    return 0, {"name": args.name}, {"mdp": f"fixture:{args.name}"}


def cmd_sample(args):
    mdp, inputs = _resolve_mdp(args.mdp)
    _check_count("--n", args.n, 1, mdp.n_states * mdp.n_actions)
    fixed_states = _parse_fix(args.fix, mdp)
    vertices = _svg_vertices(args, mdp)
    agreement = None
    if fixed_states:
        agreement = AgreementSet(
            base=random_policy(mdp, args.seed), fixed_states=tuple(fixed_states)
        )
    values = sample_values(mdp, args.n, args.seed, agreement)
    write_csv(args.out, [f"v_s{i}" for i in range(mdp.n_states)], values)
    if vertices is not None:
        write_svg(args.svg, values, vertices=vertices)
    return 0, {"n": args.n, "fix": sorted(fixed_states)}, inputs


def _svg_vertices(args, mdp: Mdp) -> np.ndarray | None:
    """The deterministic-policy values an --svg plot draws; None without --svg."""
    if args.svg is None:
        return None
    if mdp.n_states != 2:
        raise CapabilityError("SVG output needs a 2-state MDP")
    return polytope_vertices_det(mdp)


def _check_count(flag: str, count: int, low: int, cells_each: int) -> None:
    """Keep count >= low and its count*cells_each float64 array within MAX_CELLS."""
    high = MAX_CELLS // cells_each
    if not low <= count <= high:
        raise CliError(f"{flag} must be between {low} and {high} for this MDP")


def _parse_fix(fix_args: list[str], mdp: Mdp) -> set[int]:
    fixed: set[int] = set()
    for item in fix_args or []:
        state_str, _, rhs = item.partition("=")
        if rhs != "copy-of-base":
            raise CliError(f"--fix expects '<state>=copy-of-base', got {item!r}")
        try:
            state = int(state_str)
        except ValueError:
            raise CliError(f"--fix state must be an integer, got {state_str!r}") from None
        if not 0 <= state < mdp.n_states:
            raise CliError(f"--fix state {state} out of range")
        fixed.add(state)
    return fixed


def cmd_line(args):
    mdp, inputs = _resolve_mdp(args.mdp)
    _check_count("--grid", args.grid, 2, mdp.n_states)
    segment = line_segment(mdp, random_policy(mdp, args.seed), args.state)
    curve = interpolation_curve(
        mdp, segment.pi_low, segment.pi_high, args.state, grid_size=args.grid
    )
    # Line theorem: the value at mu is v_low + rho(mu) * (v_high - v_low),
    # summed in place so only one (grid, |S|) array is held.
    values = curve.rhos[:, None] * (segment.v_high - segment.v_low)
    values += segment.v_low
    values[0], values[-1] = segment.v_low, segment.v_high
    header = ["mu", "rho"] + [f"v_s{i}" for i in range(mdp.n_states)] + ["endpoint_flag"]
    flags = np.zeros(args.grid, dtype=int)
    flags[[0, -1]] = 1
    write_csv(args.out, header, curve.mus, curve.rhos, values, flags)
    return 0, {"state": args.state, "grid": args.grid}, inputs


def _resolve_dynamics_init(args, mdp: Mdp) -> tuple[Policy, dict[str, str]]:
    if args.init in INIT_KINDS:
        return resolve_init(mdp, args.init), {}
    path = Path(args.init)
    if not path.is_file():
        raise CliError(
            f"--init must be vertex|boundary|interior or a policy file, got {args.init!r}"
        )
    text, digest = _read_input("--init", args.init)
    return _load_policy_file(path, text, mdp), {str(path): digest}


def cmd_dynamics(args):
    # A flag the algorithm does not use is recorded as null in the manifest.
    eta = None
    if args.algo in ("pg", "entpg", "npg"):
        eta = 0.05 if args.eta is None else args.eta
        if not 0 < eta < math.inf:
            raise CliError("--eta must be positive and finite")
    coeff = None
    if args.algo == "entpg":
        coeff = 0.1 if args.entropy_coeff is None else args.entropy_coeff
        if not math.isfinite(coeff):
            raise CliError("--entropy-coeff must be finite")
    elif args.entropy_coeff is not None:
        raise CliError(f"--entropy-coeff applies only to --algo entpg, not {args.algo}")
    mdp, inputs = _resolve_mdp(args.mdp)
    start, init_inputs = _resolve_dynamics_init(args, mdp)
    iters = None
    if args.algo != "pi":
        iters = DEFAULT_ITERS[args.algo] if args.iters is None else args.iters
        _check_count("--iters", iters, 1, mdp.n_states)
    vertices = _svg_vertices(args, mdp)
    if args.algo == "vi":
        trajectory = run_value_iteration(mdp, value_function(mdp, start), iters)
    elif args.algo == "pi":
        trajectory = run_policy_iteration(mdp, value_function(mdp, start))
    elif args.algo in ("pg", "entpg"):
        trajectory = run_policy_gradient(
            mdp, start, eta, iters, entropy_coeff=coeff or 0.0
        )
    elif args.algo == "npg":
        trajectory = run_npg(mdp, start, eta, iters)
    else:
        cem_config = CemConfig(
            noise_scale=0.0 if args.algo == "cem" else 0.05,
            iterations=iters,
            seed=args.seed,
        )
        trajectory = run_cem(mdp, start, cem_config)

    names = sorted(trajectory.columns)
    header = (
        ["iter"]
        + [f"v_s{i}" for i in range(mdp.n_states)]
        + [f"meta_{k}" for k in names]
    )
    columns = [trajectory.columns[k] for k in names]
    cloud = None if vertices is None else sample_values(mdp, 4000, args.seed)
    write_csv(args.out, header, np.arange(len(trajectory)), trajectory.points, *columns)
    if vertices is not None:
        write_svg(args.svg, cloud, vertices, trajectory.points)
    config = {"algo": args.algo, "init": args.init, "iters": iters, "eta": eta,
              "entropy_coeff": coeff}
    return 0, config, {**inputs, **init_inputs}


def cmd_verify(args):
    if args.trials < 1:
        raise CliError("--trials must be at least 1")
    if args.trials > MAX_TRIALS:
        raise CliError(f"--trials must be at most {MAX_TRIALS}")
    mdp = None
    inputs: dict[str, str] = {}
    if args.mdp is not None:
        mdp, inputs = _resolve_mdp(args.mdp)
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    reports, skipped = [], []
    for name in names:
        try:
            reports.append(run_suite(name, trials=args.trials, seed=args.seed, mdp=mdp))
        except CapabilityError as exc:
            if args.suite != "all":
                raise
            skipped.append((name, exc))
    payload = {
        "reports": [r.to_dict() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }
    Path(args.report).write_bytes(
        (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("ascii")
    )
    for name, exc in skipped:
        print(f"skip {name}: {exc}")
    for report in reports:
        status = "pass" if report.passed else "FAIL"
        print(
            f"{status} {report.check_name}: {report.instances_run} instances, "
            f"max deviation {report.max_deviation:.3e}"
        )
    config = {"suite": args.suite, "trials": args.trials}
    return (0 if payload["all_passed"] else 1), config, inputs


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vfp",
        description="Exact value-function geometry and learning dynamics for finite MDPs.",
    )
    parser.add_argument("--version", action="version", version=f"vfp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fixtures = sub.add_parser("fixtures", help="list or dump built-in MDPs")
    fixtures_sub = fixtures.add_subparsers(dest="action", required=True)
    fixtures_sub.add_parser("list", help="print the catalog")
    dump = fixtures_sub.add_parser("dump", help="write one fixture as JSON")
    dump.add_argument("name")
    dump.add_argument("--out", required=True)

    sample = sub.add_parser("sample", help="sample policy values into a CSV")
    sample.add_argument("--mdp", required=True, help="fixture name or JSON path")
    sample.add_argument("--n", type=int, required=True)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument(
        "--fix",
        action="append",
        metavar="S=copy-of-base",
        help="pin state S to the seed-derived base policy (repeatable)",
    )
    sample.add_argument("--out", required=True)
    sample.add_argument("--svg")

    line = sub.add_parser("line", help="bracket segment and mixture curve at one state")
    line.add_argument("--mdp", required=True)
    line.add_argument("--state", type=int, required=True)
    line.add_argument("--seed", type=int, default=0)
    line.add_argument("--grid", type=int, default=21)
    line.add_argument("--out", required=True)

    dynamics = sub.add_parser("dynamics", help="run a learning algorithm, record values")
    dynamics.add_argument("--mdp", required=True)
    dynamics.add_argument("--algo", required=True, choices=ALGORITHMS)
    dynamics.add_argument(
        "--init", default="interior", help="vertex|boundary|interior or a policy JSON path"
    )
    dynamics.add_argument("--iters", type=int)
    dynamics.add_argument("--eta", type=float)
    dynamics.add_argument("--entropy-coeff", dest="entropy_coeff", type=float)
    dynamics.add_argument("--seed", type=int, default=0)
    dynamics.add_argument("--out", required=True)
    dynamics.add_argument("--svg")

    verify = sub.add_parser("verify", help="run property suites, write a JSON report")
    verify.add_argument("--suite", required=True, help=f"all or one of {', '.join(SUITE_NAMES)}")
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--mdp", help="optional fixture name or JSON path")
    verify.add_argument("--report", required=True)

    return parser


# Each handler writes its files and returns (exit code, config, inputs) for
# the manifest main() writes, or None when it writes no file.
_HANDLERS = {
    "fixtures": cmd_fixtures,
    "sample": cmd_sample,
    "line": cmd_line,
    "dynamics": cmd_dynamics,
    "verify": cmd_verify,
}


def _output_paths(args) -> list[Path]:
    """The paths a command writes, primary first; each must be creatable as a file."""
    paths = []
    for flag in ("out", "report", "svg"):
        value = getattr(args, flag, None)
        if value is None:
            continue
        path = Path(value)
        if path.is_dir():
            raise CliError(f"--{flag} {value!r} is a directory")
        if not path.parent.is_dir():
            raise CliError(f"--{flag} {value!r}: no directory {str(path.parent)!r}")
        paths.append(path)
    return paths


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        if getattr(args, "seed", 0) < 0:
            raise CliError("--seed must be non-negative")
        # Checked before the handler runs, so a bad path costs no work and
        # leaves no file behind.
        outputs = _output_paths(args)
        result = _HANDLERS[args.command](args)
        if result is None:
            return 0
        code, config, inputs = result
        write_manifest(
            outputs[0], argv, args.command, config, getattr(args, "seed", None),
            inputs, outputs, __version__,
        )
        return code
    except (VfpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CAPABILITY_ERROR if isinstance(exc, CapabilityError) else USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
