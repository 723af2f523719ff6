"""Byte-identity guard over a fixed set of `vfp` invocations.

Each case runs the CLI in-process and compares the SHA-256 of every primary
output (CSV, SVG, verification report) with a pinned digest. A refactor that
must not move any output passes this file unchanged; a change that moves
outputs on purpose updates the digests and declares the change in
CHANGES.md. Manifests are not pinned because they embed the output paths.
"""
import hashlib

import pytest

from vfpolytope.cli import main
from vfpolytope.mdp import dump_mdp, random_mdp

ALGOS = ("vi", "pi", "pg", "entpg", "npg", "cem", "cemcn")

# name -> argv; {d} is the output directory, {mdp3}, {mdp64} and {mdp128} are
# 3-, 64- and 128-state MDP documents, {mdp2x40} has 2 states and 40
# actions, and {underflow} is a dyn2 policy document with a 1e-320 entry.
# The 64-state cases evaluate more
# policies than one block of value_function_batch holds, so they pin values
# across blocks; at 128 states a block holds 32 policies, so --n 70 ends on a
# partial block of 6. sample-mdp3-blocks draws three policy-sampling blocks
# of 4096, the last one partial. The dyn2 --init boundary ascent cases pin
# the start the learning-paths benchmark uses. dynamics-dyn2-vi-converged
# stops on value iteration's 1e-10 stop rule after 205 rows, short of its
# 400 iterations. In dynamics-dyn2-underflow-entpg the softmax rounds one
# probability to exactly 0 from step 5 on, so its entropy column pins the
# 0 * log 0 = 0 branch.
CASES = {
    "sample-dyn2": "sample --mdp dyn2 --n 3000 --seed 7 --out {d}/out.csv --svg {d}/out.svg",
    "sample-mdp3-fix": "sample --mdp {mdp3} --n 500 --seed 3 --fix 0=copy-of-base --out {d}/out.csv",
    "sample-mdp3-blocks": "sample --mdp {mdp3} --n 10000 --seed 21 --fix 1=copy-of-base --out {d}/out.csv",
    "line-dyn2": "line --mdp dyn2 --state 0 --seed 3 --grid 21 --out {d}/out.csv",
    "line-mdp3": "line --mdp {mdp3} --state 2 --seed 5 --grid 11 --out {d}/out.csv",
    "sample-mdp64": "sample --mdp {mdp64} --n 300 --seed 11 --out {d}/out.csv",
    "line-mdp64": "line --mdp {mdp64} --state 37 --seed 6 --grid 201 --out {d}/out.csv",
    "sample-mdp128": "sample --mdp {mdp128} --n 70 --seed 13 --out {d}/out.csv",
    "line-mdp2x40": "line --mdp {mdp2x40} --state 1 --seed 4 --grid 31 --out {d}/out.csv",
    "sample-mdp2x40-svg": "sample --mdp {mdp2x40} --n 500 --seed 8 --out {d}/out.csv --svg {d}/out.svg",
    **{
        f"dynamics-dyn2-{algo}": f"dynamics --mdp dyn2 --algo {algo} --init interior --seed 1 --out {{d}}/out.csv"
        for algo in ALGOS
    },
    **{
        f"dynamics-mdp3-{algo}": f"dynamics --mdp {{mdp3}} --algo {algo} --init vertex --iters 60 --seed 2 --out {{d}}/out.csv"
        for algo in ALGOS
    },
    **{
        f"dynamics-dyn2-boundary-{algo}": f"dynamics --mdp dyn2 --algo {algo} --init boundary --iters 300 --seed 9 --out {{d}}/out.csv"
        for algo in ("pg", "entpg", "npg")
    },
    "dynamics-dyn2-underflow-entpg": "dynamics --mdp dyn2 --algo entpg --init {underflow} --eta 1300 --iters 200 --out {d}/out.csv",
    "dynamics-dyn2-vi-converged": "dynamics --mdp dyn2 --algo vi --init interior --iters 400 --seed 1 --out {d}/out.csv",
    "dynamics-dyn2-svg": "dynamics --mdp dyn2 --algo npg --init boundary --iters 50 --seed 4 --out {d}/out.csv --svg {d}/out.svg",
    "verify-random": "verify --suite all --trials 2 --seed 1 --report {d}/out.json",
    "verify-dyn2": "verify --suite all --trials 2 --seed 1 --mdp dyn2 --report {d}/out.json",
}

# name -> (exit code, {output file: sha256}), recorded on 0.2.0; the line-*
# cases were re-pinned on 0.2.1, which computes line values in closed form,
# and again on 0.3.0 with the verify-* cases: 0.3.0 computes rho from omega
# alone and checks the boundary suite by exact value-set membership. The
# verify-* cases were re-pinned on 0.3.1, which keys every verification
# stream by (suite, instance) spawn keys. sample-mdp128 was recorded on 0.3.1.
# The npg cases (dynamics-*-npg and dynamics-dyn2-svg) were re-pinned on
# 0.4.0, which takes natural policy gradient steps in closed form.
# sample-mdp128 was re-pinned when conftest.py began pinning BLAS to one
# thread: its LU at |S| = 128 gives other bits on two threads.
# dynamics-dyn2-vi-converged was recorded on 0.4.0. line-mdp2x40 and
# sample-mdp2x40-svg were recorded on 0.7.0, before line segments and vertex
# values came from the single-state switch kernel and the action-array
# enumeration, and pass unchanged on 0.8.0. sample-mdp3-blocks was recorded
# on 0.8.0, before sample_values drew and evaluated one block at a time.
# verify-random was re-pinned on 0.12.0, whose slice suite projects a whole
# sample with one least-squares solve: its slice deviation moved in the last
# bit. Both verify-* cases were re-pinned on 0.13.0, whose hull suite
# certifies line-theorem weights in every dimension: its deviation moved off
# 0.0, and on dyn2 it runs once per trial instead of once. Both verify-*
# cases were re-pinned on 0.14.0, whose boundary suite takes each ray's first
# exit from the value set in closed form instead of bisecting: its deviation
# moved in the last bits. Both verify-* cases were re-pinned on 0.16.0, which
# drops the order, zeros, rank, path and bounded suites; every other suite
# keeps its stream tag and its entry, except dominance on dyn2, which now
# runs one instance per trial instead of one in all. Both verify-* cases were
# re-pinned on 0.17.0, whose dominance suite also records v*'s Bellman
# optimality residual (its deviation moved off 0.0), whose affine slice takes
# its anchor and basis from one solve against [r_pi, e_free] instead of a
# whole inverse, and whose boundary suite forms Q with q_values' matmul
# instead of an einsum: those deviations moved in the last bits. Both
# verify-* cases were re-pinned on 0.19.0, which drops the rho and span
# suites and has the line suite also check the interpolation ratio: only
# the line entries moved, in the last bits. Both verify-* cases were
# re-pinned on 0.20.0, which retires the smooth suite: its entry is gone and
# every other entry is unchanged. Both verify-* cases were re-pinned on
# 0.22.0, whose line, slice and dominance deviations are relative to
# max(1, |v|_inf): the line and slice entries moved in the last bits, and
# dominance's did not. dynamics-dyn2-underflow-entpg was recorded on 0.22.0,
# before _log_entropy took the log of every probability.
GOLDEN = {
    "dynamics-dyn2-boundary-entpg": (0, {
        "out.csv": "212f3eb1468bc4658579135aa1816a8f84117fcf406db514b2dac042835a39df",
    }),
    "dynamics-dyn2-boundary-npg": (0, {
        "out.csv": "a14d76194f10ecab02382478b7f98409c37684698fa7f405214345c573a6148c",
    }),
    "dynamics-dyn2-boundary-pg": (0, {
        "out.csv": "76f5025636b8da356814b0bdfdd467dbd29fe7d56a3c4995683dd53514b01dc1",
    }),
    "dynamics-dyn2-cem": (0, {
        "out.csv": "3238349a063840f834695e838d9d0a3b04c9422200d3ac999cca1e026a403794",
    }),
    "dynamics-dyn2-cemcn": (0, {
        "out.csv": "d609dcb4e458b948cc745daf9df2c87b534565286e36ae835ca7b2d006802ca6",
    }),
    "dynamics-dyn2-entpg": (0, {
        "out.csv": "4599208807bc3c817a47962d7f179c55c7de2ab6278cd4bf565d3498bce5b416",
    }),
    "dynamics-dyn2-npg": (0, {
        "out.csv": "b4a3258af6c31f332ce8df1aeb053ade26addddeed209235117c9fb256de792e",
    }),
    "dynamics-dyn2-pg": (0, {
        "out.csv": "1a113319d029e120ec6906732c824fe2e2e5985321dd8b658cf494bc0d87d64b",
    }),
    "dynamics-dyn2-pi": (0, {
        "out.csv": "85f99dc1c35392de7286d9cd4773758b246a6002aef41667eeecf94a08df7187",
    }),
    "dynamics-dyn2-svg": (0, {
        "out.csv": "ac4d97d881bb5746d92d7f0a0b73bd50e9b7ad3b7048d939e1f39be74f6ddfd2",
        "out.svg": "81b50b371690eed88f28f83713a65e61cc98f961bd78daf44629dd71cf614791",
    }),
    "dynamics-dyn2-underflow-entpg": (0, {
        "out.csv": "5cb3f06004f60968d2ffb3a6e5d365a0492fb4de590db7174bf6645e918a5675",
    }),
    "dynamics-dyn2-vi": (0, {
        "out.csv": "c7e951f937fe8b868debb182361ceaa7ab99cd6b1638712d1f636ddbffd98ff5",
    }),
    "dynamics-dyn2-vi-converged": (0, {
        "out.csv": "6b9026ebb4bfbb56bdaeca229e37ce86eb1f3a68475a89bd4305b7d8464f12b4",
    }),
    "dynamics-mdp3-cem": (0, {
        "out.csv": "2c12739d53ebc07c2e2213cee5e9bd15d710ba312e756b50f06d97d0499c8a5b",
    }),
    "dynamics-mdp3-cemcn": (0, {
        "out.csv": "6c0c1b875935770299b3986d3179f806fd82886a5283a18d4c7acc43359fbdc9",
    }),
    "dynamics-mdp3-entpg": (0, {
        "out.csv": "4b007c2b8de9dc9a49c89f712a30a9fdb72d6acd5b53ba81d4d68fd0faffd3e4",
    }),
    "dynamics-mdp3-npg": (0, {
        "out.csv": "ca3cad5cc4a65f63e240b9289a2c6874446ea95e169fbf97778d51dee3bd845c",
    }),
    "dynamics-mdp3-pg": (0, {
        "out.csv": "03332120f4ee01ca1650c1f8f3ca75eb51b0a38cbfd2f010d1994a08db5ba59f",
    }),
    "dynamics-mdp3-pi": (0, {
        "out.csv": "bf103209ee98ec736742978f587d9edac15bb920eb980a2af1fa8aa64d238a3f",
    }),
    "dynamics-mdp3-vi": (0, {
        "out.csv": "86bca34c39af73dc30392ba29631dc9746f73c980e49a47bf6e933cd33a01895",
    }),
    "line-dyn2": (0, {
        "out.csv": "b6faaef29a6a7e3b49d02a81885b1d97d9074ceaafb5ff25a85c503cabd6da61",
    }),
    "line-mdp2x40": (0, {
        "out.csv": "02b2f2114b57c366b3c47a59dafa1cb79b9ed9a2de5f8842f441e5f80f42aaae",
    }),
    "line-mdp3": (0, {
        "out.csv": "b9daba60cecb2835899755537de44b60f966d026cd974b05198d4ff130adb115",
    }),
    "line-mdp64": (0, {
        "out.csv": "7cbd25063680ca4080a69f46d157f25a6ee942c6b93098e9b3945d37c9cd39ea",
    }),
    "sample-dyn2": (0, {
        "out.csv": "62c36a5bee2e1eb75bf5ff001a9b06031eb6683846117bea32af783d8ea66346",
        "out.svg": "069680d6485f95fe8353d285ea5cc0b91ff606b85f5514cf6cde748d2fe076f2",
    }),
    "sample-mdp2x40-svg": (0, {
        "out.csv": "588ba7e8db14d456ddae2c0858e0f4b1f7fdefa3dd0c581adc7f8467c2906cf4",
        "out.svg": "9b2f8869af7ad52352fb7f8e83e7f36a65376e90a39f22383dca7ea5dbb73b97",
    }),
    "sample-mdp3-blocks": (0, {
        "out.csv": "441265661abeaf5cb05294d9d8927e68d5c0eca2b61397f707ebd5450c5d5363",
    }),
    "sample-mdp3-fix": (0, {
        "out.csv": "ed8ef212be2bb212558cd42185a0577c333c1138dcf8744baf39b01eaf235890",
    }),
    "sample-mdp128": (0, {
        "out.csv": "149a4b993c0301494763d8825072ab44c2dfa18bd974116278b0db7490f55feb",
    }),
    "sample-mdp64": (0, {
        "out.csv": "3a562c1badc2a798aa39d34d9499b17784d7b158195e162b9995ca8fd79b209f",
    }),
    "verify-dyn2": (0, {
        "out.json": "be52bc99ea12a2c5f327b2389bf32b3897f0db776422b3665b757ecbf23631fd",
    }),
    "verify-random": (0, {
        "out.json": "ac7161d1970c25d5cb50b32a4ed1793b5d39505dd9570227ca2969f2a4ade096",
    }),
}


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, mdp in (
        ("mdp3", random_mdp(3, 2, 0.9, 0)),
        ("mdp64", random_mdp(64, 3, 0.9, 1)),
        ("mdp128", random_mdp(128, 4, 0.95, 5)),
        ("mdp2x40", random_mdp(2, 40, 0.9, 2)),
    ):
        paths[name] = root / f"{name}.json"
        paths[name].write_text(dump_mdp(mdp) + "\n")
    paths["underflow"] = root / "underflow.json"
    paths["underflow"].write_text('{"probs": [[0.9999, 0.0001], [1e-320, 1.0]]}\n')
    return paths


def run_case(name: str, outdir, documents) -> tuple[int, dict[str, str]]:
    argv = CASES[name].format(d=outdir, **documents).split()
    code = main(argv)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(outdir.iterdir())
        if not path.name.endswith(".manifest.json")
    }
    return code, digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_pinned_digests(name, tmp_path, documents):
    assert run_case(name, tmp_path, documents) == GOLDEN[name]
