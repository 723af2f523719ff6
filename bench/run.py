"""Benchmark of the `vfp` command on four workloads.

Run from the repository root, for example:

    python3 bench/run.py --workload planar-cloud --seed 1 --seconds 20 --trace 0

Workloads: planar-cloud, wide-mdp, learning-paths, verify-suites (see
workloads.py). With --trace 0 the workload's `vfp` invocations run as child
processes, one at a time, repeated until --seconds have passed; the end-to-end
metrics are the median over repeats of their summed wall time (wall_s), their
summed user+sys time (cpu_s) and their largest resident set (peak_rss_mb),
plus the median wall time of a fresh `vfp --version` (setup_s). With --trace 1
the workload instead repeats in-process through `vfpolytope.cli.main`,
alternating untraced and traced runs, and the metrics are the per-layer self
times and counters of layers.py, the tracing overhead and each module's
source lines. Every output is checked (checks.py); a failed check or a
nonzero exit counts as a failed invocation, reported as `failed` out of
`attempted`.

Core speed. On a shared machine a core's speed drifts by 20-45% for minutes
at a time as neighbours load it, which no run of a few seconds averages
away. Each invocation therefore runs on the core where a fixed pure-Python
probe loop runs fastest just before it, and the reported times are the
measured medians scaled by PROBE_REFERENCE_S / (median probe time of the
run). The unscaled medians and the scale are printed above the result.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; metric names and units come from
BENCHMARK.json. The line before it records the environment. The spans of the
last traced run are written to .bench_work/ at the end.
"""
from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads it, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# What the installed `vfp` console script runs.
ENTRY = "import sys; from vfpolytope.cli import main; sys.exit(main())"
SETUP_RUNS = 7
# The probe loop's length, and its time on the reference core speed: an
# uncontended core of the Intel Xeon 2-vCPU machine the bounds were set on.
PROBE_LOOPS = 200_000
PROBE_REFERENCE_S = 0.015
# The cores this process may use, taken before it pins itself to one.
CORES = sorted(os.sched_getaffinity(0))


class Outcomes:
    """Attempted and failed invocations, checked against the first run's digests."""

    def __init__(self, workload: workloads.Workload, workdir: Path) -> None:
        self.workload = workload
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.reference: dict[tuple[str, ...], dict[str, str]] = {}

    def record(self, invocation: workloads.Invocation, code: int) -> None:
        self.attempted += 1
        problems = [f"exit code {code}"] if code != 0 else []
        if not problems:
            try:
                digests, problems = checks.manifest_digests(self.workdir, invocation.out)
                problems += checks.check_outputs(
                    self.workdir, invocation.check, invocation.out, self.workload.mdp
                )
            except (OSError, ValueError, KeyError, IndexError) as exc:
                digests, problems = {}, [f"unreadable output: {exc!r}"]
            if digests != self.reference.setdefault(invocation.argv, digests):
                problems.append("outputs differ from the first run of the same argv")
        if problems:
            self.failed += 1
            print(f"FAILED vfp {' '.join(invocation.argv)}: {'; '.join(problems)}",
                  file=sys.stderr)


def _reset(workdir: Path, inputs: dict[str, bytes]) -> None:
    """Empty the work directory and write the workload's input files."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for name, content in inputs.items():
        (workdir / name).write_bytes(content)


def run_child(argv, workdir: Path, env: dict) -> tuple[int, float, float, float]:
    """Run `vfp argv` to completion: exit code, wall s, user+sys s, max RSS MB."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", ENTRY, *argv],
        cwd=workdir, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
    )
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def _probe_s() -> float:
    """Time of a fixed pure-Python loop: how fast the current core runs now."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - start


def pin_fastest_core(cores: list[int]) -> float:
    """Pin this process, and so the next child, to the core that probes fastest.

    Returns that core's probe time. The cores drift independently, so this
    keeps most invocations off a loaded core.
    """
    speeds = {}
    for core in cores:
        os.sched_setaffinity(0, {core})
        speeds[core] = _probe_s()
    best = min(speeds, key=speeds.get)
    os.sched_setaffinity(0, {best})
    return speeds[best]


def end_to_end(workload, workdir: Path, seconds: float, outcomes: Outcomes):
    """Closed loop over child processes.

    Returns samples of each end-to-end metric and the median time of the
    probes run right before each invocation on its core.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cores = CORES
    _reset(workdir, workload.inputs)
    setup, probes = [], []
    for i in range(SETUP_RUNS + 1):  # the first start fills the bytecode cache
        probes.append(pin_fastest_core(cores))
        code, wall, _, _ = run_child(["--version"], workdir, env)
        if code != 0:
            print(f"FAILED vfp --version: exit code {code}", file=sys.stderr)
            outcomes.failed += 1
        outcomes.attempted += 1
        if i:
            setup.append(wall)
    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": [], "setup_s": setup}
    deadline = time.perf_counter() + seconds
    while len(samples["wall_s"]) < 2 or time.perf_counter() < deadline:
        _reset(workdir, workload.inputs)
        wall = cpu = rss = 0.0
        for invocation in workload.invocations:
            probes.append(pin_fastest_core(cores))
            code, w, c, r = run_child(invocation.argv, workdir, env)
            wall, cpu, rss = wall + w, cpu + c, max(rss, r)
            outcomes.record(invocation, code)
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(cpu)
        samples["peak_rss_mb"].append(rss)
    return samples, statistics.median(probes)


def _in_process(main, workload, workdir: Path, outcomes: Outcomes, cores, tracer) -> float:
    """One run of the workload through main(argv); its summed wall time."""
    _reset(workdir, workload.inputs)
    total = 0.0
    for invocation in workload.invocations:
        argv = list(invocation.argv)
        pin_fastest_core(cores)
        if tracer is not None:
            tracer.install()
        cwd = os.getcwd()
        os.chdir(workdir)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = tracer.run(main, argv) if tracer is not None else main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
        finally:
            total += time.perf_counter() - start
            os.chdir(cwd)
            if tracer is not None:
                tracer.uninstall()
        outcomes.record(invocation, code)
    return total


def traced(workload, workdir: Path, seconds: float, outcomes: Outcomes, spans_path: Path):
    """Alternate untraced and traced in-process runs; per-layer metrics."""
    sys.path.insert(0, str(SRC))
    from vfpolytope import cli

    cores = CORES
    untraced, traced_walls, tracers = [], [], []
    deadline = time.perf_counter() + seconds
    while len(tracers) < 2 or time.perf_counter() < deadline:
        untraced.append(_in_process(cli.main, workload, workdir, outcomes, cores, None))
        tracer = layers.Tracer()
        traced_walls.append(_in_process(cli.main, workload, workdir, outcomes, cores, tracer))
        tracers.append(tracer)

    with gzip.open(spans_path, "wt") as handle:
        for slot, parent, name, start, end in tracers[-1].spans:
            handle.write(json.dumps({"id": slot, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")

    # Times are medians over the traced runs; counts repeat, so the first run's.
    per_run = [tracer.metrics() for tracer in tracers]
    metrics = {
        name: statistics.median(m.get(name, 0.0) for m in per_run) if name.endswith("_s")
        else value
        for name, value in per_run[0].items()
    }
    metrics["trace.inprocess_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced)
    for module in layers.MODULES:
        metrics[f"{module}.loc"] = layers.source_loc(SRC / "vfpolytope" / f"{module}.py")
    exact = [tracer.exact_counters() for tracer in tracers]
    repeat = all(counts == exact[0] for counts in exact)
    if not repeat:
        print(f"FAILED exact counters differ between traced runs: {exact}", file=sys.stderr)
    return metrics, repeat


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment(args, workload) -> dict:
    """What the numbers depend on, recorded next to them."""
    cpu = [line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
           if line.startswith("model name")]
    caches = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        level = _read(str(index / "level")).strip()
        if level.isdigit():
            caches[int(level)] = _read(str(index / "size")).strip()
    head = _read(str(ROOT / ".git" / "HEAD")).strip()
    if head.startswith("ref: "):
        head = _read(str(ROOT / ".git" / head[5:])).strip() or head
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_head": head or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu": cpu[0] if cpu else "unknown",
        "nproc": len(CORES),
        "llc": caches[max(caches)] if caches else "unknown",
        "inputs": {name: hashlib.sha256(data).hexdigest()
                   for name, data in workload.inputs.items()},
    }


def _describe(name: str, values: list[float], unit: str) -> str:
    line = f"{name} {statistics.median(values):.6g} {unit} (median of n={len(values)}"
    beyond = 10  # report a tail percentile only with ten samples beyond it
    if len(values) >= 2 * beyond:
        pct = int(100 * (1 - beyond / len(values)))
        tail = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
        line += f", p{pct} {tail:.6g}"
    return line + ")"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vfpolytope" / "cli.py").is_file():
        print(f"error: no vfpolytope sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.build(args.workload, args.seed)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    outcomes = Outcomes(workload, workdir)
    try:
        if args.trace:
            spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl.gz"
            measured, repeat = traced(workload, workdir, args.seconds, outcomes, spans_path)
            wanted = spec["per_layer"]
            print(f"spans written to {spans_path.relative_to(ROOT)}")
        else:
            samples, probe_s = end_to_end(workload, workdir, args.seconds, outcomes)
            repeat = True
            wanted = spec["end_to_end"]
            for metric in wanted:
                print(_describe(metric["name"], samples[metric["name"]], metric["unit"]))
            print(f"failed_ops {outcomes.failed}/{outcomes.attempted} invocations")
            speed = PROBE_REFERENCE_S / probe_s
            print(f"core speed {speed:.4f} of reference (median probe {probe_s:.6f} s); "
                  "times above are as measured, reported times are scaled by it")
            measured = {
                name: statistics.median(values) * (1.0 if name == "peak_rss_mb" else speed)
                for name, values in samples.items()
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"environment": environment(args, workload)}))
    result = {
        "correct": repeat and outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {
            m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
