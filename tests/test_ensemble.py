"""Power-weighted ensembling: frozen blend oracle, variant lattice, tuner."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from factfusion.ensemble import (
    POWER_GRID,
    PROB_FLOOR,
    VARIANTS,
    WEIGHT_GRID,
    EnsembleSpec,
    ProbMatrix,
    _blend_scores,
    _grid,
    blend,
    predict,
    tune,
)
from factfusion.metrics import weighted_f1


def mat(probs, model_id="m", ids=None):
    probs = np.asarray(probs, dtype=np.float64)
    if ids is None:
        ids = [f"s{i}" for i in range(probs.shape[0])]
    return ProbMatrix(model_id=model_id, sample_ids=ids, probs=probs)


P1 = [[0.5, 0.2, 0.1, 0.1, 0.1], [0.1, 0.1, 0.6, 0.1, 0.1]]
P2 = [[0.4, 0.3, 0.1, 0.1, 0.1], [0.2, 0.2, 0.2, 0.2, 0.2]]
P3 = [[0.6, 0.1, 0.1, 0.1, 0.1], [0.1, 0.2, 0.3, 0.2, 0.2]]

# Hand-computed w1*P1^n1 + w2*P2^n2 + w3*P3^n3 for w=(0.2,0.7,0.6) and
# N=(0.125,0.125,0.25); frozen to keep the arithmetic honest.
HAND_BLEND = np.array(
    [
        [
            1.3357135211832178,
            1.1031543400498323,
            1.0123095835134197,
            1.0123095835134197,
            1.0123095835134197,
        ],
        [
            1.0598194407512604,
            1.1236588286229041,
            1.204114027662988,
            1.1236588286229041,
            1.1236588286229041,
        ],
    ]
)


class TestProbMatrix:
    def test_row_sum_validation_names_model_and_row(self):
        rows = [[0.2] * 5, [0.5, 0.5, 0.5, 0.0, 0.0]]
        with pytest.raises(ValueError, match=r"badmodel: row 1"):
            mat(rows, model_id="badmodel")

    def test_row_sum_tolerance(self):
        mat([[0.2, 0.2, 0.2, 0.2, 0.2 + 5e-5]])  # inside 1e-4
        with pytest.raises(ValueError):
            mat([[0.2, 0.2, 0.2, 0.2, 0.2 + 5e-4]])

    @pytest.mark.parametrize(
        "row", [[np.nan] * 5, [-0.5, 1.5, 0.0, 0.0, 0.0]]
    )
    def test_rejects_non_probability_entries(self, row):
        with pytest.raises(ValueError, match="not probabilities"):
            mat([row])

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError, match="n x 5"):
            ProbMatrix("m", ["a"], np.array([[0.5, 0.5]]))

    def test_id_count_mismatch(self):
        with pytest.raises(ValueError, match="sample ids"):
            ProbMatrix("m", ["a", "b"], np.full((1, 5), 0.2))

    @pytest.mark.parametrize("sid", ["a,b", "a\nb", "a\r", "\u2028"])
    def test_rejects_sample_id_that_breaks_the_file(self, sid):
        with pytest.raises(ValueError, match=r"probe: row 1 sample id"):
            mat(P1, model_id="probe", ids=["s0", sid])

    def test_rejects_model_id_with_line_break(self):
        with pytest.raises(ValueError, match="line break"):
            mat(P1, model_id="seed\n42")

    def test_save_load_round_trip(self, tmp_path):
        m = mat(P1, model_id="seed42")
        path = tmp_path / "probs.csv"
        m.save(path)
        back = ProbMatrix.load(path)
        assert back.model_id == "seed42"
        assert back.sample_ids == m.sample_ids
        np.testing.assert_allclose(back.probs, m.probs, atol=1e-9)

    def test_file_header_format(self, tmp_path):
        path = tmp_path / "probs.csv"
        mat(P1, model_id="seed42").save(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "seed42,2"
        assert lines[1].startswith("s0,")
        assert len(lines[1].split(",")) == 6

    def test_load_rejects_declared_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("m,3\ns0,0.2,0.2,0.2,0.2,0.2\n")
        with pytest.raises(ValueError, match="declares 3"):
            ProbMatrix.load(path)

    def test_load_rejects_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("m,1\ns0,0.2,0.8\n")
        with pytest.raises(ValueError, match="malformed row"):
            ProbMatrix.load(path)

    def test_load_names_line_of_unparsable_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("m,2\ns0,0.2,0.2,0.2,0.2,0.2\n\ns1,0.2,0.2,x,0.2,0.2\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:4: .*'x'"):
            ProbMatrix.load(path)

    def test_load_names_line_of_unparsable_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("m,two\ns0,0.2,0.2,0.2,0.2,0.2\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:1: .*'two'"):
            ProbMatrix.load(path)


class TestEnsembleSpec:
    def test_variant_constraints(self):
        EnsembleSpec("unified", (0.2, 0.7), (0.125, 2.0))
        with pytest.raises(ValueError, match="powers = 1"):
            EnsembleSpec("weighted", (0.2, 0.7), (1.0, 2.0))
        with pytest.raises(ValueError, match="equal weights"):
            EnsembleSpec("average", (0.2, 0.7), (1.0, 1.0))
        with pytest.raises(ValueError, match="shared power"):
            EnsembleSpec("power", (0.2, 0.7), (0.5, 2.0))

    def test_positivity(self):
        with pytest.raises(ValueError, match="positive"):
            EnsembleSpec("unified", (0.0, 1.0), (1.0, 1.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["weights", "powers"])
    def test_rejects_non_finite(self, field, bad):
        values = {"weights": (0.5, 0.5), "powers": (1.0, 1.0)}
        values[field] = (bad, 0.5)
        with pytest.raises(ValueError, match="finite"):
            EnsembleSpec("unified", **values)

    def test_average_factory(self):
        spec = EnsembleSpec.average(4)
        assert spec.weights == (0.25,) * 4
        assert spec.powers == (1.0,) * 4

    def test_save_load_round_trip(self, tmp_path):
        spec = EnsembleSpec("unified", (0.2, 0.7, 0.6), (0.125, 0.125, 0.25))
        path = tmp_path / "spec.cfg"
        spec.save(path, achieved_f1=0.9123)
        back = EnsembleSpec.load(path)
        assert back == spec
        text = path.read_text()
        assert "variant = unified" in text
        assert "w2 = 0.7" in text
        assert "n3 = 0.25" in text
        assert "achieved_f1 = 0.9123" in text

    @pytest.mark.parametrize(
        "extra, key",
        [
            ("varient = power\n", "varient"),
            ("w1 = 0.9\n", "w1"),
            ("w3 = 0.5\nn3 = 1\n", "n3"),
            ("w3 = 0.5\n", "w3"),
            ("w01 = 0.5\n", "w01"),
        ],
    )
    def test_load_rejects_unknown_repeated_and_surplus_keys(
        self, tmp_path, extra, key
    ):
        path = tmp_path / "spec.cfg"
        path.write_text(
            "variant = unified\nmodels = 2\nw1 = 0.5\nw2 = 0.5\n"
            "n1 = 1\nn2 = 1\n# comment\n\nachieved_f1 = 0.5\n" + extra
        )
        with pytest.raises(ValueError, match=f"'{key}'"):
            EnsembleSpec.load(path)

    @pytest.mark.parametrize("key", ["w1", "n2"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_load_rejects_non_finite(self, tmp_path, key, value):
        path = tmp_path / "spec.cfg"
        values = {"w1": "0.5", "w2": "0.5", "n1": "1", "n2": "1", key: value}
        path.write_text(
            "variant = unified\nmodels = 2\n"
            + "".join(f"{k} = {v}\n" for k, v in values.items())
        )
        with pytest.raises(ValueError, match="finite"):
            EnsembleSpec.load(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("variant = weighted\nmodels = 1\nw1 = 0.5\nn1 = 2\n", "requires all powers = 1"),
            ("variant = unified\nmodels = 1\nw1 = nan\nn1 = 1\n", "finite"),
            ("variant = unified\nmodels = 0\n", "non-empty"),
        ],
    )
    def test_load_names_file_of_rejected_spec(self, tmp_path, text, message):
        path = tmp_path / "spec.cfg"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: .*{message}"):
            EnsembleSpec.load(path)

    def test_load_names_line_of_unparsable_count(self, tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text("variant = unified\n# two models\nmodels = 1.5\nw1 = 1\nn1 = 1\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: .*'1.5'"):
            EnsembleSpec.load(path)

    def test_load_missing_key(self, tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text("variant = unified\nmodels = 2\nw1 = 0.5\nw2 = 0.5\nn1 = 1\n")
        with pytest.raises(ValueError, match="missing key"):
            EnsembleSpec.load(path)


probability_rows = st.lists(
    st.floats(min_value=1e-300, max_value=1.0), min_size=5, max_size=5
).map(lambda row: np.array(row) / np.sum(row))


class TestFileRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.lists(probability_rows, min_size=1, max_size=4),
        weights=st.lists(
            st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=4
        ),
        powers=st.lists(
            st.floats(min_value=1e-6, max_value=8.0), min_size=4, max_size=4
        ),
        f1=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_save_load_is_bit_exact(self, tmp_path_factory, rows, weights, powers, f1):
        path = tmp_path_factory.mktemp("files")
        probs = mat(rows, model_id="seed42")
        probs.save(path / "probs.csv")
        back = ProbMatrix.load(path / "probs.csv")
        assert back.sample_ids == probs.sample_ids
        np.testing.assert_array_equal(back.probs, probs.probs)

        spec = EnsembleSpec("unified", weights, powers[: len(weights)])
        spec.save(path / "spec.cfg", achieved_f1=np.float64(f1))
        assert EnsembleSpec.load(path / "spec.cfg") == spec
        assert f"achieved_f1 = {f1!r}" in (path / "spec.cfg").read_text()


class TestBlend:
    def test_hand_computed_power_weighted_sum(self):
        mats = [mat(P1, "a"), mat(P2, "b"), mat(P3, "c")]
        spec = EnsembleSpec("unified", (0.2, 0.7, 0.6), (0.125, 0.125, 0.25))
        scores = blend(mats, spec)
        np.testing.assert_allclose(scores, HAND_BLEND, rtol=0, atol=1e-12)

    def test_average_variant_is_exact_mean(self):
        mats = [mat(P1, "a"), mat(P2, "b"), mat(P3, "c")]
        scores = blend(mats, EnsembleSpec.average(3))
        expected = (np.array(P1) + np.array(P2) + np.array(P3)) / 3.0
        np.testing.assert_allclose(scores, expected, atol=1e-15)

    def test_identical_matrices_preserve_argmax(self):
        rng = np.random.default_rng(0)
        raw = rng.dirichlet(np.ones(5), size=7)
        mats = [mat(raw, f"m{i}") for i in range(3)]
        spec = EnsembleSpec("unified", (0.3, 1.7, 0.2), (0.125, 2.0, 0.5))
        assert np.array_equal(
            predict(blend(mats, spec)), raw.argmax(axis=1)
        )

    def test_variant_lattice_bitwise(self):
        rng = np.random.default_rng(1)
        mats = [mat(rng.dirichlet(np.ones(5), size=6), f"m{i}") for i in range(3)]
        # average == weighted(equal w) == power(N=1) == unified(N=1).
        avg = blend(mats, EnsembleSpec.average(3))
        w = blend(mats, EnsembleSpec("weighted", (1 / 3,) * 3, (1.0,) * 3))
        p = blend(mats, EnsembleSpec("power", (1 / 3,) * 3, (1.0,) * 3))
        u = blend(mats, EnsembleSpec("unified", (1 / 3,) * 3, (1.0,) * 3))
        np.testing.assert_array_equal(avg, w)
        np.testing.assert_array_equal(w, p)
        np.testing.assert_array_equal(p, u)
        # weighted == unified with the same free weights.
        wfree = blend(mats, EnsembleSpec("weighted", (0.2, 0.5, 0.9), (1.0,) * 3))
        ufree = blend(mats, EnsembleSpec("unified", (0.2, 0.5, 0.9), (1.0,) * 3))
        np.testing.assert_array_equal(wfree, ufree)
        # power == unified with the shared power.
        pshared = blend(mats, EnsembleSpec("power", (0.2, 0.5, 0.9), (0.5,) * 3))
        ushared = blend(mats, EnsembleSpec("unified", (0.2, 0.5, 0.9), (0.5,) * 3))
        np.testing.assert_array_equal(pshared, ushared)

    def test_weight_monotonicity(self):
        mats = [mat(P1, "a"), mat(P2, "b")]
        lo = blend(mats, EnsembleSpec("weighted", (0.5, 0.5), (1.0, 1.0)))
        hi = blend(mats, EnsembleSpec("weighted", (0.9, 0.5), (1.0, 1.0)))
        assert np.all(hi >= lo)
        assert np.all(hi[:, 0] > lo[:, 0])

    def test_sample_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        raw = rng.dirichlet(np.ones(5), size=8)
        perm = rng.permutation(8)
        ids = [f"s{i}" for i in range(8)]
        spec = EnsembleSpec("unified", (0.4, 0.8), (0.25, 2.0))
        plain = blend([mat(raw, "a", ids), mat(raw[::-1].copy(), "b", ids)], spec)
        permuted = blend(
            [
                mat(raw[perm], "a", [ids[i] for i in perm]),
                mat(raw[::-1][perm].copy(), "b", [ids[i] for i in perm]),
            ],
            spec,
        )
        np.testing.assert_allclose(permuted, plain[perm], atol=1e-15)

    def test_probability_floor_applies_before_power(self):
        rows = [[1.0, 0.0, 0.0, 0.0, 0.0]]
        scores = blend([mat(rows)], EnsembleSpec("unified", (1.0,), (0.125,)))
        assert np.all(np.isfinite(scores))
        assert scores[0, 1] == pytest.approx(1e-12 ** 0.125)

    def test_misaligned_matrices_error(self):
        a = mat(P1, "a")
        b = mat([[0.2] * 5], "b")
        with pytest.raises(ValueError, match="row counts"):
            blend([a, b], EnsembleSpec.average(2))

    def test_order_mismatch_names_row(self):
        a = mat(P1, "a", ids=["x", "y"])
        b = mat(P1, "b", ids=["x", "z"])
        with pytest.raises(ValueError, match="row 1"):
            blend([a, b], EnsembleSpec.average(2))

    def test_model_count_mismatch(self):
        with pytest.raises(ValueError, match="2 models"):
            blend([mat(P1)], EnsembleSpec.average(2))

    def test_empty_input(self):
        with pytest.raises(ValueError, match="at least one"):
            blend([], EnsembleSpec.average(1))


class TestTune:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_grid_rows_are_the_full_grids_prefix(self, m):
        full = np.stack(
            [g.ravel() for g in np.meshgrid(*[np.array(WEIGHT_GRID)] * m, indexing="ij")],
            axis=1,
        )
        for rows in (1, 7, 10**m, 10**m + 5):
            assert np.array_equal(_grid(WEIGHT_GRID, m, rows), full[:rows])

    def test_ten_members_build_only_the_rows_the_budget_reaches(self):
        # The full grids would hold 10^10 weight rows and 5^10 power rows.
        rng = np.random.default_rng(8)
        labels = rng.integers(0, 5, size=20)
        mats = [mat(rng.dirichlet(np.ones(5), size=20), f"m{i}") for i in range(10)]
        tracemalloc.start()
        try:
            for variant in ("weighted", "power", "unified"):
                result = tune(mats, labels, variant=variant, budget=2000, seed=0)
                # The budget's 2000 grid rows, then one corner per member.
                assert result.evaluations == 2010, variant
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20

    def test_single_model_average_identity(self):
        labels = np.array([0, 2])
        result = tune([mat(P1)], labels, variant="average", budget=10)
        assert result.spec == EnsembleSpec.average(1)
        assert result.evaluations == 1
        expected, _ = weighted_f1(labels, np.array(P1).argmax(axis=1), 5)
        assert result.f1 == pytest.approx(expected)

    def test_adversarial_recovery(self):
        # Model 2 is always right, model 1 always wrong: the tuner must
        # reach at least model 2's solo score.
        rng = np.random.default_rng(3)
        n = 40
        labels = rng.integers(0, 5, size=n)
        correct = np.full((n, 5), 0.05)
        correct[np.arange(n), labels] = 0.8
        wrong_cls = (labels + 1) % 5
        wrong = np.full((n, 5), 0.05)
        wrong[np.arange(n), wrong_cls] = 0.8
        mats = [mat(wrong, "adversary"), mat(correct, "oracle")]
        for variant in ("weighted", "power", "unified"):
            result = tune(mats, labels, variant=variant, budget=2000, seed=0)
            assert result.f1 == pytest.approx(1.0), variant
            w1, w2 = result.spec.weights
            assert w2 > w1

    def test_unified_never_below_reduced_variants(self):
        rng = np.random.default_rng(4)
        n = 60
        labels = rng.integers(0, 5, size=n)
        mats = [mat(rng.dirichlet(np.ones(5) * 0.7, size=n), f"m{i}") for i in range(3)]
        scores = {
            v: tune(mats, labels, variant=v, budget=20_000, seed=0).f1
            for v in VARIANTS
        }
        assert scores["unified"] >= scores["power"] >= 0.0
        assert scores["unified"] >= scores["weighted"] >= scores["average"]

    def test_never_below_best_single_member(self):
        rng = np.random.default_rng(5)
        n = 50
        labels = rng.integers(0, 5, size=n)
        mats = [mat(rng.dirichlet(np.ones(5) * 0.5, size=n), f"m{i}") for i in range(3)]
        singles = [
            weighted_f1(labels, m.probs.argmax(axis=1), 5)[0] for m in mats
        ]
        result = tune(mats, labels, variant="unified", budget=5000, seed=0)
        assert result.f1 >= max(singles)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        n = 30
        labels = rng.integers(0, 5, size=n)
        mats = [mat(rng.dirichlet(np.ones(5), size=n), f"m{i}") for i in range(2)]
        a = tune(mats, labels, variant="unified", budget=3000, seed=11)
        b = tune(mats, labels, variant="unified", budget=3000, seed=11)
        assert a.spec == b.spec and a.f1 == b.f1
        c = tune(mats, labels, variant="unified", budget=3000, seed=12)
        assert c.f1 >= a.f1 - 1e-12 or c.spec != a.spec  # seed may change spec

    def test_budget_validation(self):
        labels = np.array([0, 2])
        with pytest.raises(ValueError, match="budget"):
            tune([mat(P1)], labels, variant="unified", budget=0)

    def test_label_count_validation(self):
        with pytest.raises(ValueError, match="labels"):
            tune([mat(P1)], np.array([0, 1, 2]), variant="unified", budget=10)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            tune([mat(P1)], np.array([0, 2]), variant="stacked", budget=10)

    def test_respects_variant_constraints_in_result(self):
        rng = np.random.default_rng(8)
        n = 30
        labels = rng.integers(0, 5, size=n)
        mats = [mat(rng.dirichlet(np.ones(5), size=n), f"m{i}") for i in range(2)]
        w = tune(mats, labels, variant="weighted", budget=500, seed=0).spec
        assert w.powers == (1.0, 1.0)
        p = tune(mats, labels, variant="power", budget=500, seed=0).spec
        assert len(set(p.powers)) == 1


# Count rows normalized by their sums: small integer counts make exact ties
# between class scores common.
REPRO_LABELS = [3, 1, 0, 1, 1, 1, 0, 0, 3, 4, 0]
REPRO_COUNTS = {
    "a": [[1, 3, 3, 3, 1], [0, 1, 1, 2, 3], [1, 2, 1, 1, 0], [3, 1, 2, 0, 3],
          [2, 3, 2, 0, 0], [3, 2, 2, 2, 2], [1, 2, 3, 0, 0], [3, 0, 2, 3, 0],
          [2, 3, 3, 0, 2], [0, 3, 1, 2, 0], [0, 2, 0, 3, 1]],
    "b": [[2, 0, 3, 0, 1], [1, 2, 2, 3, 3], [0, 0, 2, 2, 2], [0, 1, 3, 2, 0],
          [2, 3, 3, 0, 0], [2, 3, 0, 1, 0], [3, 3, 1, 2, 3], [2, 2, 3, 3, 3],
          [0, 1, 2, 3, 1], [2, 2, 0, 0, 3], [1, 2, 3, 3, 1]],
}


def counts_mat(counts, model_id):
    counts = np.asarray(counts, dtype=np.float64)
    return mat(counts / counts.sum(axis=1, keepdims=True), model_id)


def blend_f1(mats, labels, spec):
    return weighted_f1(labels, predict(blend(mats, spec)), 5)[0]


def grid_size(variant, m):
    powers = {"average": 1, "weighted": 1, "power": len(POWER_GRID)}
    return len(WEIGHT_GRID) ** m * powers.get(variant, len(POWER_GRID) ** m)


class TestTuneBlendContract:
    def test_exact_tie_resolves_as_blend_does(self):
        # Sample 6 ties classes 1 and 2 exactly under w = (0.2, 0.5),
        # n = (2, 2); every candidate must break it the way blend() does.
        mats = [counts_mat(c, name) for name, c in REPRO_COUNTS.items()]
        labels = np.array(REPRO_LABELS)
        result = tune(mats, labels, "power", budget=500, seed=0)
        assert result.f1 == blend_f1(mats, labels, result.spec)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_tuned_f1_is_blend_f1_and_blocks_are_blends(self, data, tmp_path_factory):
        m = data.draw(st.integers(1, 3), label="models")
        n = data.draw(st.integers(2, 12), label="samples")
        count_row = st.lists(st.integers(0, 3), min_size=5, max_size=5).filter(any)
        count_rows = st.lists(count_row, min_size=n, max_size=n)
        mats = [counts_mat(data.draw(count_rows), f"m{j}") for j in range(m)]
        labels = np.array(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))

        # Budgets that end in the grid, in the corners and in the refinement.
        variant = data.draw(st.sampled_from(VARIANTS), label="variant")
        grid = grid_size(variant, m)
        low, high = data.draw(
            st.sampled_from([(1, grid - 1), (grid, grid + m), (grid + m + 1, 3000)])
        )
        assume(low <= min(high, 3000))
        budget = data.draw(st.integers(low, min(high, 3000)), label="budget")
        seed = data.draw(st.integers(0, 9), label="seed")
        result = tune(mats, labels, variant, budget=budget, seed=seed)
        assert result.f1 == blend_f1(mats, labels, result.spec)
        path = tmp_path_factory.mktemp("spec") / "spec.cfg"
        result.spec.save(path, achieved_f1=result.f1)
        reloaded = EnsembleSpec.load(path)
        assert reloaded == result.spec
        assert result.f1 == blend_f1(mats, labels, reloaded)

        # Grid values include 0.5, 1 and 2, which numpy may power by a
        # special case; every row must still match blend() bit for bit.
        k = data.draw(st.integers(1, 5), label="rows")
        weight = st.one_of(st.sampled_from(WEIGHT_GRID), st.floats(0.01, 10.0))
        power = st.one_of(st.sampled_from(POWER_GRID), st.floats(0.01, 8.0))

        def block(values):
            rows = st.lists(values, min_size=m, max_size=m)
            return np.array(data.draw(st.lists(rows, min_size=k, max_size=k)))

        weights, powers = block(weight), block(power)
        clamped = np.stack([np.clip(x.probs, PROB_FLOOR, 1.0) for x in mats])
        for block_powers in (powers, powers[:1]):
            scores = _blend_scores(clamped, weights, block_powers)
            for i in range(k):
                row_powers = block_powers[min(i, len(block_powers) - 1)]
                spec = EnsembleSpec("unified", weights[i], row_powers)
                assert np.array_equal(scores[i], blend(mats, spec))


class TestGrids:
    def test_weight_grid(self):
        assert WEIGHT_GRID == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

    def test_power_grid(self):
        assert POWER_GRID == (0.125, 0.25, 0.5, 1.0, 2.0)
