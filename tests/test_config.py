"""Run configuration: reference defaults, validation, override precedence."""

import dataclasses
import json

import pytest

from factfusion.config import RunConfig


class TestDefaults:
    def test_reference_values(self):
        cfg = RunConfig()
        assert cfg.d == 256
        assert cfg.ff_inner == 512
        assert cfg.heads == 12
        assert cfg.d_m == 128
        assert cfg.dropout == 0.1
        assert cfg.max_seq_len == 512
        assert cfg.batch_size == 24
        assert cfg.learning_rate == 5e-5
        assert cfg.tail_learning_rate == 1e-5
        assert cfg.epochs == 15
        assert cfg.seed == 42
        assert cfg.alpha == 1.0
        assert cfg.tau == 0.3
        assert cfg.aggregation == "mean"
        assert cfg.adapter_scope == "adapter_only"
        assert cfg.text_only is False

    def test_stock_pairing_constructs_despite_indivisibility(self):
        # 256 % 12 != 0; the pairing is printable, model assembly rejects it.
        cfg = RunConfig()
        assert cfg.d % cfg.heads != 0


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("d", 0),
            ("heads", -1),
            ("d_m", 0),
            ("ff_inner", 0),
            ("dropout", 1.0),
            ("dropout", -0.1),
            ("batch_size", 0),
            ("epochs", 0),
            ("max_seq_len", 0),
            ("alpha", 1.5),
            ("alpha", -0.1),
            ("tau", 0.0),
            ("tau", float("inf")),
            ("tau", float("nan")),
            ("learning_rate", float("nan")),
            ("learning_rate", 0.0),
            ("learning_rate", -1e-3),
            ("tail_learning_rate", -1.0),
            ("tail_learning_rate", float("inf")),
            ("aggregation", "median"),
            ("adapter_scope", "everything"),
            # Wrong types: int fields take int but not bool, float fields
            # int or float but not bool, bool fields bool only, str fields
            # str, and the manifest fields str or None.
            ("epochs", 2.5),
            ("seed", 1.5),
            ("d", True),
            ("batch_size", "24"),
            ("dropout", False),
            ("learning_rate", "5e-5"),
            ("text_only", "false"),
            ("full_width_scaling", 1),
            ("tail_text_streams", None),
            ("aggregation", None),
            ("out_dir", 3),
            ("train_manifest", 1),
            ("val_manifest", True),
        ],
    )
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunConfig(**{field: value})

    def test_alpha_bounds_inclusive(self):
        RunConfig(alpha=0.0)
        RunConfig(alpha=1.0)

    def test_float_fields_take_ints_and_manifests_take_none(self):
        cfg = RunConfig(alpha=1, tau=2, learning_rate=1, train_manifest=None)
        assert cfg.alpha == 1 and cfg.train_manifest is None


class TestOverrides:
    def test_updated_skips_none(self):
        cfg = RunConfig().updated(d=64, heads=None)
        assert cfg.d == 64 and cfg.heads == 12

    def test_updated_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            RunConfig().updated(dee=64)

    def test_updated_revalidates(self):
        with pytest.raises(ValueError):
            RunConfig().updated(dropout=2.0)

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"d": 64, "heads": 4, "epochs": 2}))
        cfg = RunConfig.from_file(path)
        assert (cfg.d, cfg.heads, cfg.epochs) == (64, 4, 2)
        assert cfg.batch_size == 24

    def test_from_file_rejects_non_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            RunConfig.from_file(path)

    def test_from_file_rejects_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            RunConfig.from_file(path)


class TestSerialization:
    def test_json_round_trip(self):
        cfg = RunConfig(d=64, heads=4, alpha=0.7)
        back = RunConfig(**json.loads(cfg.to_json()))
        assert back == cfg

    def test_field_names_cover_dataclass(self):
        assert RunConfig.field_names() == tuple(
            f.name for f in dataclasses.fields(RunConfig)
        )
