"""Run-configuration loading and validation."""
from pathlib import Path

import pytest

from fbhardy.config import RunConfig, load_config
from fbhardy.errors import ConfigError

DEFAULT_CFG = Path(__file__).resolve().parent.parent / "configs" / "default.cfg"


def test_default_config_file_loads():
    cfg = load_config(DEFAULT_CFG)
    assert cfg == RunConfig()


@pytest.mark.parametrize("key, value", [
    ("cancel_tol", 0.0), ("cancel_tol", -1e-10),
    ("reconstruct_tol", 0.0), ("reconstruct_tol", -1e-6),
    # max_atoms_materialized is no longer a knob: an override naming it is
    # rejected as an unknown key, still naming the key.
    ("max_atoms_materialized", 0), ("max_atoms_materialized", -3),
])
def test_nonpositive_knob_rejected(key, value):
    with pytest.raises(ConfigError, match=key):
        load_config(overrides={key: value})


@pytest.mark.parametrize("key", ["zero_iter_cap", "series_term_cap",
                                 "gaussian_decay_c", "cover_j_max",
                                 "max_atoms_materialized"])
def test_removed_knob_in_file_is_unknown_key(tmp_path, key):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"nu = 0.5\n{key} = 16\n")
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        load_config(cfg)
