"""Serialization helpers on SimulationResult and CoreConfig."""

import re

import pytest

from repro.core.smb import SmbConfig
from repro.pipeline.config import CoreConfig
from repro.pipeline.result import SimulationResult


def test_result_to_from_dict_roundtrip():
    result = SimulationResult(workload="w", config_label="ME+isrb:32",
                              cycles=1_234, instructions=2_000,
                              stats={"committed_loads": 17.0})
    data = result.to_dict()
    assert data["ipc"] == pytest.approx(2_000 / 1_234)
    rebuilt = SimulationResult.from_dict(data)
    assert rebuilt == result
    assert rebuilt.ipc == pytest.approx(result.ipc)


def test_variant_name_is_filesystem_safe_and_distinct():
    base = CoreConfig()
    names = {
        base.variant_name(),
        base.with_move_elimination().variant_name(),
        base.with_smb().variant_name(),
        base.with_move_elimination().with_smb().variant_name(),
        base.with_tracker("refcount_checkpoint", entries=None).variant_name(),
        base.with_tracker("isrb", entries=16).variant_name(),
    }
    assert len(names) == 6
    for name in names:
        assert re.fullmatch(r"[a-z0-9._-]+", name), name


def test_config_to_dict_records_sweep_knobs():
    config = CoreConfig().with_tracker("isrb", entries=16, counter_bits=4)
    config = config.with_move_elimination().with_smb()
    data = config.to_dict()
    assert data["tracker"] == {"scheme": "isrb", "entries": 16,
                               "counter_bits": 4, "checkpoints": 8}
    assert data["move_elimination"]["enabled"] is True
    assert data["smb"]["predictor"] == "tage"
    assert data["variant"] == config.variant_name()


def test_smb_config_rejects_any_predictor_but_tage():
    with pytest.raises(ValueError, match="nosq"):
        SmbConfig(predictor="nosq")


def test_speedup_over_guards():
    a = SimulationResult("w", "a", cycles=100, instructions=500)
    b = SimulationResult("w", "b", cycles=50, instructions=500)
    assert b.speedup_over(a) == pytest.approx(2.0)
    other = SimulationResult("x", "a", cycles=100, instructions=500)
    with pytest.raises(ValueError):
        other.speedup_over(a)
