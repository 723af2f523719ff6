"""In-process fuzzing of `vfp`: every input ends in a documented exit code.

Each example writes an MDP document, well formed or broken, builds one
command whose size flags are each either small or one past their cap, and
runs `cli.main` in a fresh directory. A `dynamics` command may start from a
written policy file, well formed or not. The run must return 0, 1, 2 or 3,
print at most one line to stderr (a warning counts as a line), raise
nothing and finish within a time bound. No example asks for a large array
or starts a process: a flag past its cap is refused before anything is
allocated.
"""
import contextlib
import io
import json
import os
import tempfile
import time
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from vfpolytope.cli import ALGORITHMS, MAX_CELLS, MAX_TRIALS, main
from vfpolytope.mdp import dump_mdp, random_mdp
from vfpolytope.verification import SUITE_NAMES

# Far above the slowest example (well under a second on a 2-vCPU Xeon), so
# only a hang or a runaway loop trips it.
WALL_BOUND_S = 20.0

ODD_NUMBERS = (0.0, -1.0, 1e-300, 1e300, float("nan"), float("inf"), 10**30)
ODD_VALUES = (None, True, "x", [], {}, [[1.0]], *ODD_NUMBERS)


@st.composite
def documents(draw):
    """(text, |S|, |A|) for an MDP document that may be broken on purpose."""
    n_states = draw(st.sampled_from((1, 2, 3)))
    # Many actions only on few states, where |A|^|S| vertices stay cheap.
    n_actions = draw(st.sampled_from((1, 2, 200) if n_states <= 2 else (1, 2)))
    # 1 - 2^-53 is the largest double below 1: some systems are singular there.
    gamma = draw(st.sampled_from((0.0, 0.9, 1 - 1e-12, 1 - 2**-53)))
    doc = json.loads(dump_mdp(random_mdp(n_states, n_actions, gamma, 0)))
    # Half the documents are well formed, so that the commands get past loading.
    breakage = draw(st.sampled_from(("none",) * 3 + ("drop", "replace", "truncate")))
    key = draw(st.sampled_from(sorted(doc)))
    if breakage == "drop":
        del doc[key]
    elif breakage == "replace":
        doc[key] = draw(st.sampled_from(ODD_VALUES))
    text = json.dumps(doc)
    if breakage == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text, n_states, n_actions


def _policy_text(kind: str, n_states: int, n_actions: int) -> str:
    """A --init policy file: uniform, or broken by one zero, a row sum or its shape."""
    probs = [[1.0 / n_actions] * n_actions for _ in range(n_states)]
    if kind == "zero":
        probs[0] = [1.0] + [0.0] * (n_actions - 1)
    elif kind == "off":
        probs[0][0] += 0.1
    elif kind == "shape":
        probs.append(probs[0])
    return json.dumps({"probs": probs})


def _small_or_past(cap: int) -> st.SearchStrategy:
    return st.sampled_from(("1", "3", "5", str(cap + 1)))


@st.composite
def commands(draw, n_states: int, n_actions: int) -> tuple[list[str], dict[str, str]]:
    """argv and the files besides mdp.json that it reads."""
    files = {}
    command = draw(st.sampled_from(("sample", "line", "dynamics", "verify")))
    seed = ["--seed", str(draw(st.integers(0, 3)))]
    if command == "sample":
        argv = ["sample", "--mdp", "mdp.json", "--out", "out.csv",
                "--n", draw(_small_or_past(MAX_CELLS // (n_states * n_actions)))]
        if draw(st.booleans()):
            argv += ["--fix", draw(st.sampled_from(("0=copy-of-base", "9=copy-of-base", "0")))]
        if draw(st.booleans()):
            argv += ["--svg", "out.svg"]
    elif command == "line":
        argv = ["line", "--mdp", "mdp.json", "--out", "out.csv",
                "--state", str(draw(st.sampled_from((0, n_states - 1, n_states)))),
                "--grid", draw(_small_or_past(MAX_CELLS // n_states))]
    elif command == "dynamics":
        algo = draw(st.sampled_from(ALGORITHMS))
        init = draw(st.sampled_from(("vertex", "boundary", "interior", "nope", "policy.json")))
        if init == "policy.json":
            kind = draw(st.sampled_from(("uniform", "zero", "off", "shape")))
            files[init] = _policy_text(kind, n_states, n_actions)
        argv = ["dynamics", "--mdp", "mdp.json", "--out", "out.csv", "--algo", algo,
                "--init", init, "--iters", draw(_small_or_past(MAX_CELLS // n_states))]
        if draw(st.booleans()):
            argv.append(f"--eta={draw(st.sampled_from((0.05, 10.0) + ODD_NUMBERS))}")
        if algo == "entpg" and draw(st.booleans()):
            argv.append(f"--entropy-coeff={draw(st.sampled_from((0.1,) + ODD_NUMBERS))}")
        if draw(st.booleans()):
            argv += ["--svg", "out.svg"]
    else:
        argv = ["verify", "--report", "r.json",
                "--suite", draw(st.sampled_from(("all", *SUITE_NAMES, "nope"))),
                "--trials", draw(st.sampled_from(("1", str(MAX_TRIALS + 1))))]
        if draw(st.booleans()):
            argv += ["--mdp", "mdp.json"]
    return argv + seed, files


@st.composite
def invocations(draw):
    text, n_states, n_actions = draw(documents())
    argv, files = draw(commands(n_states, n_actions))
    return {"mdp.json": text, **files}, argv


def _run(files: dict[str, str], argv: list[str]) -> tuple[int, str, float]:
    """Exit code, stderr plus one line per warning, and wall seconds of main(argv)."""
    err = io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        os.chdir(tmp)
        try:
            for name, text in files.items():
                with open(name, "w", encoding="utf-8") as handle:
                    handle.write(text)
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            wall = time.perf_counter() - start
        finally:
            os.chdir(home)
    lines = err.getvalue() + "".join(f"warning: {w.message}\n" for w in caught)
    return code, lines, wall


@settings(max_examples=400)
@given(invocations())
def test_every_input_ends_in_a_documented_exit(invocation):
    files, argv = invocation
    code, err, wall = _run(files, argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert err.count("\n") <= 1, (argv, err)
    assert "Traceback" not in err
    assert wall < WALL_BOUND_S, (argv, wall)
