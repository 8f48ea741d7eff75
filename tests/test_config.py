"""Configuration loading and validation tests."""

import json

import pytest

from zklab import ConfigurationError
from zklab.config import RunConfig, load_config


class TestDefaults:
    def test_plain_load(self):
        cfg = load_config()
        assert cfg.nx == 64
        assert cfg.resolved_ny() == 64
        assert cfg.resolved_ly() == cfg.lx

    def test_num_steps_zero_means_derived(self):
        assert load_config().num_steps == 0
        with pytest.raises(ConfigurationError) as err:
            load_config(overrides={"num_steps": -1})
        assert "num_steps" in str(err.value)

    def test_resolution_fallbacks(self):
        cfg = load_config(overrides={"nx": 32, "ny": 16, "ly": 1.0})
        assert cfg.resolved_ny() == 16
        assert cfg.resolved_ly() == 1.0


class TestMergeOrder:
    def test_file_then_overrides(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"dt": 0.01, "seed": 5}))
        cfg = load_config(str(path), overrides={"dt": 0.002})
        assert cfg.dt == 0.002
        assert cfg.seed == 5

    def test_none_overrides_ignored(self):
        cfg = load_config(overrides={"dt": None, "seed": 3})
        assert cfg.dt == RunConfig().dt
        assert cfg.seed == 3


class TestCoercion:
    def test_string_values(self):
        cfg = load_config(overrides={"nx": "128", "dt": "1e-4",
                                     "dump_frames": "true",
                                     "n_list": "4,8,16"})
        assert cfg.nx == 128 and cfg.dt == 1e-4
        assert cfg.dump_frames is True
        assert cfg.n_list == (4.0, 8.0, 16.0)

    def test_bad_number(self):
        with pytest.raises(ConfigurationError) as err:
            load_config(overrides={"dt": "fast"})
        assert "dt" in str(err.value)

    def test_bad_bool(self):
        with pytest.raises(ConfigurationError):
            load_config(overrides={"dump_frames": "maybe"})

    def test_bad_list(self):
        with pytest.raises(ConfigurationError):
            load_config(overrides={"n_list": "4,eight"})

    @pytest.mark.parametrize("key, value", [
        ("sample_every", 2.5), ("nx", 16.7), ("sample_every", True), ("seed", False),
        ("dt", True), ("amplitude", False)])
    def test_no_truncated_or_boolean_number(self, key, value):
        """An int key takes no fraction and no key a boolean: int(2.5) is 2, int(True) 1."""
        with pytest.raises(ConfigurationError, match=key):
            load_config(overrides={key: value})

    def test_whole_float_is_an_int(self):
        cfg = load_config(overrides={"sample_every": 2.0, "nx": 32.0})
        assert (cfg.sample_every, cfg.nx) == (2, 32) and type(cfg.sample_every) is int


class TestValidation:
    def test_unknown_key_named(self):
        with pytest.raises(ConfigurationError) as err:
            load_config(overrides={"gridsize": 64})
        assert "gridsize" in str(err.value)

    def test_unknown_file_key(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"dtt": 0.01}))
        with pytest.raises(ConfigurationError) as err:
            load_config(str(path))
        assert "dtt" in str(err.value)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{dt: 0.01}")
        with pytest.raises(ConfigurationError):
            load_config(str(path))

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError):
            load_config(str(path))

    def test_range_checks(self):
        with pytest.raises(ConfigurationError):
            load_config(overrides={"nx": 4})
        with pytest.raises(ConfigurationError):
            load_config(overrides={"dt": -1.0})
        with pytest.raises(ConfigurationError):
            load_config(overrides={"form": "tilted"})
        with pytest.raises(ConfigurationError):
            load_config(overrides={"sample_every": 0})
        with pytest.raises(ConfigurationError):
            load_config(overrides={"n_list": ""})
        for key, value in (("t_final", "nan"), ("t_final", "inf"),
                           ("amplitude", "nan"), ("dt", "-inf"),
                           ("t_grid", "nan,1"), ("n_list", "4,inf"), ("q", "nan"),
                           ("samples", float("inf"))):
            with pytest.raises(ConfigurationError, match=key):
                load_config(overrides={key: value})
        # inf is the documented endpoint of the Lebesgue exponents
        assert load_config(overrides={"q": "inf", "r": "inf", "p": "inf"}).p == float("inf")

    @pytest.mark.parametrize("key", ["n_list", "t_grid", "l_grid"])
    def test_every_list_key_must_be_non_empty(self, key):
        with pytest.raises(ConfigurationError, match=key):
            load_config(overrides={key: ","})

    def test_to_dict_round_trip(self, tmp_path):
        cfg = load_config(overrides={"nx": 32, "n_list": "4,8"})
        path = tmp_path / "echo.json"
        path.write_text(json.dumps(cfg.to_dict()))
        again = load_config(str(path))
        assert again == cfg
