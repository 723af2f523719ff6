import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vfpolytope.errors import (
    CapabilityError,
    EnumerationTooLarge,
    InvalidGamma,
    InvalidStochasticRow,
    MalformedDocument,
    UnknownFixture,
)
from vfpolytope.mdp import (
    FIXTURE_NAMES,
    ROW_SUM_ACCEPT,
    ROW_SUM_KEEP,
    Mdp,
    Policy,
    _stochastic_rows,
    builtin_fixture,
    deterministic_policies,
    dump_mdp,
    example1_mdp,
    load_mdp,
    random_mdp,
    random_policy,
)


def doc_for(mdp: Mdp) -> dict:
    return json.loads(dump_mdp(mdp))


class TestFixtures:
    def test_catalog_has_six_entries(self):
        assert len(FIXTURE_NAMES) == 6
        assert set(FIXTURE_NAMES) == {
            "fig2a", "fig2b", "fig2c", "fig2d", "threeaction", "dyn2",
        }

    def test_fig2a_numbers(self):
        m = builtin_fixture("fig2a")
        assert m.gamma == 0.9
        assert m.reward_matrix[0, 1] == 0.38
        assert m.transitions[0, 1] == 0.99
        np.testing.assert_array_equal(m.rewards, [0.06, 0.38, -0.13, 0.64])

    def test_fig2c_numbers(self):
        m = builtin_fixture("fig2c")
        assert (m.n_states, m.n_actions, m.gamma) == (2, 3, 0.9)
        np.testing.assert_array_equal(
            m.rewards, [-0.93, -0.49, 0.63, 0.78, 0.14, 0.41]
        )

    def test_threeaction_shape(self):
        m = builtin_fixture("threeaction")
        assert (m.n_actions, m.gamma) == (3, 0.8)

    def test_dyn2_numbers(self):
        m = builtin_fixture("dyn2")
        assert m.gamma == 0.9
        assert m.reward_matrix[0, 0] == -0.45
        np.testing.assert_array_equal(m.transitions[0], [0.7, 0.3])

    def test_unknown_fixture(self):
        with pytest.raises(UnknownFixture):
            builtin_fixture("bogus")

    def test_all_fixtures_validate(self):
        for name in FIXTURE_NAMES:
            m = builtin_fixture(name)
            sums = m.transitions.sum(axis=1)
            assert np.all(np.abs(sums - 1.0) < 1e-12)


class TestExample1:
    def test_reward_layout(self):
        m = example1_mdp()
        np.testing.assert_array_equal(m.rewards, [0.0, 1.0, 0.0, 0.0])
        assert m.gamma == 0.9

    def test_structure(self):
        m = example1_mdp()
        np.testing.assert_array_equal(m.transitions[0], [1.0, 0.0])
        np.testing.assert_array_equal(m.transitions[1], [0.0, 1.0])
        # absorbing second state, both actions
        np.testing.assert_array_equal(m.transitions[2], [0.0, 1.0])
        np.testing.assert_array_equal(m.transitions[3], [0.0, 1.0])

    def test_gamma_passthrough(self):
        assert example1_mdp(gamma=0.5).gamma == 0.5

    def test_round_trip(self):
        m = example1_mdp()
        assert load_mdp(dump_mdp(m)) == m


class TestLoadMdp:
    def test_fixture_documents_round_trip(self):
        for name in FIXTURE_NAMES:
            m = builtin_fixture(name)
            again = load_mdp(dump_mdp(m))
            assert again == m
            # and a second round trip is bit-identical too
            assert load_mdp(dump_mdp(again)) == again

    def test_bad_stochastic_row(self):
        doc = doc_for(example1_mdp())
        doc["transitions"][0] = [0.5, 0.6]
        with pytest.raises(InvalidStochasticRow):
            load_mdp(json.dumps(doc))

    def test_row_within_accept_tolerance_is_renormalized(self):
        doc = doc_for(example1_mdp())
        doc["transitions"][0] = [0.5 + 4e-10, 0.5]
        m = load_mdp(json.dumps(doc))
        assert abs(m.transitions[0].sum() - 1.0) < 1e-12
        # once normalized, the document round-trips bit for bit
        assert load_mdp(dump_mdp(m)) == m

    def test_negative_entry_rejected(self):
        doc = doc_for(example1_mdp())
        doc["transitions"][0] = [1.1, -0.1]
        with pytest.raises(InvalidStochasticRow):
            load_mdp(json.dumps(doc))

    def test_gamma_one_rejected(self):
        doc = doc_for(example1_mdp())
        doc["gamma"] = 1.0
        with pytest.raises(InvalidGamma):
            load_mdp(json.dumps(doc))

    def test_missing_and_extra_keys(self):
        doc = doc_for(example1_mdp())
        del doc["rewards"]
        with pytest.raises(MalformedDocument):
            load_mdp(json.dumps(doc))
        doc = doc_for(example1_mdp())
        doc["surprise"] = 1
        with pytest.raises(MalformedDocument):
            load_mdp(json.dumps(doc))

    def test_wrong_lengths(self):
        doc = doc_for(example1_mdp())
        doc["rewards"] = doc["rewards"][:-1]
        with pytest.raises(MalformedDocument):
            load_mdp(json.dumps(doc))

    def test_value_bound_must_be_a_float(self):
        # Twice the bound must be a float, so that differences of values are.
        # At gamma 0.99 that is 200 max|r|, which overflows from about 9e305
        # on; at gamma 0 it is 2 max|r|, and at gamma 0.5 4 max|r|.
        transitions = [[0.5, 0.5], [0.1, 0.9], [1.0, 0.0], [0.0, 1.0]]
        rewards = np.array([1e306, -1e306, 1e306, 1e305])
        assert np.isfinite(Mdp(2, 2, 0.5 * rewards, transitions, 0.99).value_bound())
        assert Mdp(2, 2, 10.0 * rewards, transitions, 0.0).value_bound() == 1e307
        assert Mdp(2, 2, 40.0 * rewards, transitions, 0.5).value_bound() == 8e307
        for scale, gamma in ((1.0, 0.99), (10.0, 0.99), (80.0, 0.5), (100.0, 0.0)):
            with pytest.raises(
                CapabilityError, match=r"^value bound max\|r\| / \(1 - gamma\) overflows "
                rf"a float when doubled, at max\|r\| = {scale * 1e306!r} and "
                rf"gamma = {gamma}$".replace("+", r"\+"),
            ):
                Mdp(2, 2, scale * rewards, transitions, gamma)

    def test_not_json(self):
        with pytest.raises(MalformedDocument):
            load_mdp("{nope")
        with pytest.raises(MalformedDocument):
            load_mdp('{"n_states": ' + "1" * 5000 + "}")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("rewards", [0.0, 1.0, 2.0]),
            ("transitions", [[1.0, 0.0]] * 3),
            ("transitions", [[1.0, 0.0], [1.0], [0.0, 1.0], [0.5, 0.5]]),
            ("n_states", 0),
            ("n_states", True),
            ("n_states", 2.5),
            ("gamma", "0.9"),
            ("gamma", 10**400),
            ("rewards", None),
            ("rewards", [[0.0, 1.0], [2.0, 3.0]]),
        ],
        ids=[
            "short-rewards", "wrong-row-count", "ragged-rows", "zero-states",
            "boolean-states", "fractional-states", "string-gamma", "huge-gamma",
            "null-rewards", "nested-rewards",
        ],
    )
    def test_malformed_document_is_one_error_line(self, key, value, tmp_path, capsys):
        from vfpolytope.cli import main
        from vfpolytope.errors import VfpError

        doc = doc_for(example1_mdp())
        doc[key] = value
        text = json.dumps(doc)
        with pytest.raises(VfpError):
            load_mdp(text)
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = main(["sample", "--mdp", str(path), "--n", "5", "--out",
                     str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out.csv").exists()


class TestRandomGeneration:
    def test_random_mdp_deterministic(self):
        a = random_mdp(2, 2, 0.9, seed=7)
        b = random_mdp(2, 2, 0.9, seed=7)
        assert a == b

    def test_random_mdp_rows_stochastic(self):
        m = random_mdp(4, 3, 0.9, seed=2)
        sums = m.transitions.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) < 1e-12)
        assert np.all(m.transitions >= 0.0)

    def test_single_action(self):
        m = random_mdp(3, 1, 0.5, seed=1)
        actions = deterministic_policies(m)
        np.testing.assert_array_equal(actions, [[0, 0, 0]])
        assert random_policy(m, 0) == Policy.deterministic(actions[0], 1)

    def test_invalid_gamma(self):
        with pytest.raises(InvalidGamma):
            random_mdp(2, 2, 1.0, seed=0)

    def test_random_policy_deterministic(self):
        m = builtin_fixture("dyn2")
        assert random_policy(m, 3) == random_policy(m, 3)

    def test_random_policy_rowwise_flat_mean(self):
        # flat Dirichlet over two actions has mean (1/2, 1/2)
        m = builtin_fixture("dyn2")
        rows = np.stack([random_policy(m, s).probs for s in range(10_000)])
        mean = rows.mean(axis=0)
        assert np.max(np.abs(mean - 0.5)) < 0.02

    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_policy_on_simplex(self, seed):
        m = builtin_fixture("fig2c")
        p = random_policy(m, seed)
        assert np.min(p.probs) >= 0.0
        assert np.all(np.abs(p.probs.sum(axis=1) - 1.0) <= 1e-12)


class TestDeterministicPolicies:
    def test_counts(self):
        assert len(deterministic_policies(builtin_fixture("dyn2"))) == 4
        assert len(deterministic_policies(builtin_fixture("threeaction"))) == 9

    def test_one_hot_rows_and_no_duplicates(self):
        actions = deterministic_policies(builtin_fixture("threeaction"))
        assert actions.dtype.kind == "i" and actions.min() == 0 and actions.max() == 2
        assert len({tuple(row) for row in actions.tolist()}) == 9

    def test_lexicographic_order(self):
        for n_states, n_actions in ((2, 3), (3, 2), (4, 3), (1, 5)):
            m = random_mdp(n_states, n_actions, 0.9, seed=0)
            expected = list(itertools.product(range(n_actions), repeat=n_states))
            actions = deterministic_policies(m)
            assert actions.shape == (n_actions**n_states, n_states)
            assert [tuple(row) for row in actions.tolist()] == expected

    def test_many_states_one_action(self):
        # An enumeration with one array axis per state would pass numpy's 64 axes.
        actions = deterministic_policies(random_mdp(64, 1, 0.9, seed=0))
        np.testing.assert_array_equal(actions, np.zeros((1, 64), dtype=int))

    def test_cap(self):
        m = random_mdp(8, 6, 0.9, seed=0)
        with pytest.raises(EnumerationTooLarge):
            deterministic_policies(m)


class TestImmutability:
    def test_arrays_are_read_only(self):
        m = builtin_fixture("dyn2")
        with pytest.raises(ValueError):
            m.rewards[0] = 99.0
        p = Policy.uniform(2, 2)
        with pytest.raises(ValueError):
            p.probs[0, 0] = 0.7


def reference_stochastic_rows(raw, what):
    """_stochastic_rows as written before its checks became single reductions."""
    rows = np.asarray(raw, dtype=float)
    if not np.all(np.isfinite(rows)):
        raise InvalidStochasticRow(f"{what} contains non-finite entries")
    if np.any(rows < 0.0):
        bad = int(np.argwhere(rows < 0.0)[0][0])
        raise InvalidStochasticRow(f"{what} row {bad} has a negative entry")
    sums = rows.sum(axis=1)
    off = np.abs(sums - 1.0)
    if np.any(off > ROW_SUM_ACCEPT):
        bad = int(np.argmax(off))
        raise InvalidStochasticRow(
            f"{what} row {bad} sums to {float(sums[bad])!r}, off by more than {ROW_SUM_ACCEPT}"
        )
    if np.any(off > ROW_SUM_KEEP):
        rows = rows.copy()
        fix = off > ROW_SUM_KEEP
        rows[fix] = rows[fix] / sums[fix, None]
    return rows


def row_outcome(validate, raw):
    """The exception type and message, or the result's shape and bytes."""
    try:
        rows = validate(raw, "policy")
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return rows.shape, rows.dtype, rows.tobytes()


@st.composite
def probability_rows(draw):
    """Rows off by 0, < 1e-12, 1e-12 to 1e-9 or > 1e-9, maybe with a bad entry."""
    n_rows, n_cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    weights = st.floats(0.0, 1.0)
    row = st.lists(weights, min_size=n_cols, max_size=n_cols)
    rows = np.array(draw(st.lists(row, min_size=n_rows, max_size=n_rows)), dtype=float)
    rows = rows.reshape(n_rows, n_cols)
    sums = rows.sum(axis=1, keepdims=True)
    rows = np.divide(rows, sums, out=rows, where=sums > 0.0)
    offsets = st.one_of(
        st.just(0.0),
        st.floats(1e-16, ROW_SUM_KEEP),
        st.floats(ROW_SUM_KEEP, ROW_SUM_ACCEPT),
        st.floats(ROW_SUM_ACCEPT, 1.0),
    )
    for i in range(n_rows):
        rows[i] *= 1.0 + draw(st.sampled_from([1.0, -1.0])) * draw(offsets)
    if rows.size and draw(st.booleans()):
        bad = st.sampled_from([np.nan, np.inf, -np.inf, -1e-300, -0.5, -0.0])
        rows[draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_cols - 1))] = draw(bad)
    return rows


class TestStochasticRows:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=500)
    @given(probability_rows())
    @example(np.empty((0, 0)))
    @example(np.empty((0, 3)))
    @example(np.empty((3, 0)))
    @example(np.array([[1e308, 1e308]]))
    @example(np.array([[-1.0, np.nan], [0.5, 0.5]]))
    @example(np.array([[0.5, 0.5 + 5e-10], [0.5, 0.5 - 5e-11]]))
    def test_matches_reference(self, rows):
        assert row_outcome(_stochastic_rows, rows) == row_outcome(
            reference_stochastic_rows, rows
        )
