"""``BlbConfig`` checks itself when it is made and cannot change after."""

import dataclasses

import numpy as np
import pytest

from causalboot.config import BlbConfig
from causalboot.errors import ConfigError

# One row per rule: the fields that break it and the message it raises.
REJECTIONS = {
    "gamma_and_subset_size": ({"subset_size": 100}, r"^exactly one of gamma and subset_size"),
    "gamma_range": ({"gamma": 1.5}, r"^gamma must be in \(0, 1\], got 1\.5$"),
    "subset_size_below_2": ({"gamma": None, "subset_size": 1}, r"^subset_size must be at least 2"),
    "subsets": ({"subsets": 0}, r"^subsets must be at least 1"),
    "replicates": ({"replicates": 1}, r"^replicates must be at least 2"),
    "truncation": ({"truncation": (0.9, 0.1)}, r"^truncation must satisfy"),
    "alpha": ({"alpha": 1.0}, r"^alpha must be in \(0, 1\)"),
    "ci_kind": ({"ci_kind": "bca"}, r"^ci_kind must be one of"),
    "estimator": ({"estimator": "probit"}, r"^estimator must be one of"),
    "external_without_path": ({"estimator": "external"}, r"requires an external_scores path$"),
    "path_without_external": ({"external_scores": "/nonexistent/scores.txt"},
                              r"^estimator 'logistic' ignores external_scores$"),
    "max_redraws": ({"max_redraws": -1}, r"^max_redraws must be nonnegative$"),
    "weight_cap": ({"weight_cap": 0.0}, r"^weight_cap must be positive$"),
    "balance_threshold": ({"balance_threshold": -0.1}, r"^balance_threshold must be positive$"),
    "threads": ({"threads": 0}, r"^threads must be at least 1$"),
    "seed": ({"seed": "abc"}, r"^seed must be an integer"),
    "subsets_not_integer": ({"subsets": 2.5}, r"^subsets must be an integer, got 2\.5$"),
    "replicates_not_integer": ({"replicates": 20.5}, r"^replicates must be an integer, got 20\.5$"),
    "subset_size_not_integer": ({"gamma": None, "subset_size": 300.0},
                                r"^subset_size must be an integer, got 300\.0$"),
    "seed_not_integer": ({"seed": 1.5}, r"^seed must be an integer, got 1\.5$"),
    "alpha_not_real": ({"alpha": "0.05"}, r"^alpha must be a real number, got '0\.05'$"),
    "truncation_not_real": ({"truncation": ("0.1", 0.9)},
                            r"^truncation lo must be a real number, got '0\.1'$"),
    "subsets_bool": ({"subsets": True}, r"^subsets must be an integer, got True$"),
}


@pytest.mark.parametrize("fields, message", REJECTIONS.values(), ids=REJECTIONS.keys())
def test_invalid_config_raises_when_made(fields, message):
    with pytest.raises(ConfigError, match=message):
        BlbConfig(**fields)


@pytest.mark.parametrize("fields, message", REJECTIONS.values(), ids=REJECTIONS.keys())
def test_replace_checks_the_new_config(fields, message):
    with pytest.raises(ConfigError, match=message):
        dataclasses.replace(BlbConfig(), **fields)


def test_numpy_numbers_are_accepted():
    config = BlbConfig(
        gamma=np.float32(0.6), subsets=np.int64(3), replicates=np.int32(20), seed=np.uint64(7),
        alpha=np.float64(0.1), truncation=(np.float64(0.05), 0.95), max_redraws=np.int8(2),
    )
    assert config.subsets == 3 and config.seed == 7


def test_every_field_is_frozen():
    config = BlbConfig()
    for field in dataclasses.fields(BlbConfig):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, field.name, getattr(config, field.name))
