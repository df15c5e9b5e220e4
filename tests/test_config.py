"""``BlbConfig`` checks itself when it is made and cannot change after."""

import dataclasses
import math
import re

import numpy as np
import pytest

from causalboot import rng
from causalboot.config import BlbConfig
from causalboot.engine import run_blb
from causalboot.errors import ConfigError
from causalboot.simulation import generate_dgm

# One row per rule: the fields that break it and the message it raises.
REJECTIONS = {
    "gamma_and_subset_size": ({"subset_size": 100},
                              r"^subset_size must be None when gamma is set, got 100$"),
    "neither_gamma_nor_subset_size": ({"gamma": None},
                                      r"^subset_size must be set when gamma is None, got None$"),
    "gamma_range": ({"gamma": 1.5}, r"^gamma must be in \(0, 1\], got 1\.5$"),
    "subset_size_below_2": ({"gamma": None, "subset_size": 1}, r"^subset_size must be at least 2"),
    "subsets": ({"subsets": 0}, r"^subsets must be at least 1"),
    "replicates": ({"replicates": 1}, r"^replicates must be at least 2"),
    "truncation": ({"truncation": (0.9, 0.1)}, r"^truncation must be \(lo, hi\) with "
                   r"0 <= lo < hi <= 1, got \(0\.9, 0\.1\)$"),
    "alpha": ({"alpha": 1.0}, r"^alpha must be in \(0, 1\)"),
    "ci_kind": ({"ci_kind": "bca"}, r"^ci_kind must be one of"),
    "estimator": ({"estimator": "probit"}, r"^estimator must be one of"),
    "external_without_path": ({"estimator": "external"}, r"^external_scores must be a path "
                              r"for estimator 'external', got None$"),
    "path_without_external": ({"external_scores": "/nonexistent/scores.txt"},
                              r"^external_scores must be None for estimator 'logistic', "
                              r"got '/nonexistent/scores\.txt'$"),
    "max_redraws": ({"max_redraws": -1}, r"^max_redraws must be at least 0, got -1$"),
    "weight_cap": ({"weight_cap": 0.0}, r"^weight_cap must be positive, got 0\.0$"),
    "balance_threshold": ({"balance_threshold": -0.1},
                          r"^balance_threshold must be positive, got -0\.1$"),
    "threads": ({"threads": 0}, r"^threads must be at least 1, got 0$"),
    "seed": ({"seed": "abc"}, r"^seed must be an integer"),
    "subsets_not_integer": ({"subsets": 2.5}, r"^subsets must be an integer, got 2\.5$"),
    "replicates_not_integer": ({"replicates": 20.5}, r"^replicates must be an integer, got 20\.5$"),
    "subset_size_not_integer": ({"gamma": None, "subset_size": 300.0},
                                r"^subset_size must be an integer, got 300\.0$"),
    "seed_not_integer": ({"seed": 1.5}, r"^seed must be an integer, got 1\.5$"),
    "alpha_not_real": ({"alpha": "0.05"}, r"^alpha must be a real number, got '0\.05'$"),
    "truncation_not_real": ({"truncation": ("0.1", 0.9)},
                            r"^truncation must be a tuple of two reals, got \('0\.1', 0\.9\)$"),
    "subsets_bool": ({"subsets": True}, r"^subsets must be an integer, got True$"),
    # Reals are finite, switches are bools, the truncation is a pair, a
    # path is a path and a seed is never negative.
    "weight_cap_nan": ({"weight_cap": math.nan}, r"^weight_cap must be a real number, got nan$"),
    "weight_cap_inf": ({"weight_cap": math.inf}, r"^weight_cap must be a real number, got inf$"),
    "balance_threshold_nan": ({"balance_threshold": math.nan},
                              r"^balance_threshold must be a real number, got nan$"),
    "balance_threshold_overflow": ({"balance_threshold": float("1e400")},
                                   r"^balance_threshold must be a real number, got inf$"),
    "redraw_on_imbalance_string": ({"redraw_on_imbalance": "no"},
                                   r"^redraw_on_imbalance must be a bool, got 'no'$"),
    "redraw_on_imbalance_none": ({"redraw_on_imbalance": None},
                                 r"^redraw_on_imbalance must be a bool, got None$"),
    "redraw_on_imbalance_int": ({"redraw_on_imbalance": 1},
                                r"^redraw_on_imbalance must be a bool, got 1$"),
    "truncation_scalar": ({"truncation": 0.5},
                          r"^truncation must be a tuple of two reals, got 0\.5$"),
    "truncation_single": ({"truncation": (0.1,)},
                          r"^truncation must be a tuple of two reals, got \(0\.1,\)$"),
    "truncation_triple": ({"truncation": (0.1, 0.5, 0.9)},
                          r"^truncation must be a tuple of two reals, got \(0\.1, 0\.5, 0\.9\)$"),
    "external_scores_descriptor": ({"estimator": "external", "external_scores": 3},
                                   r"^external_scores must be a path, got 3$"),
    "seed_negative": ({"seed": -1}, r"^seed must be at least 0, got -1$"),
}


@pytest.mark.parametrize("fields, message", REJECTIONS.values(), ids=REJECTIONS.keys())
def test_invalid_config_raises_when_made(fields, message):
    with pytest.raises(ConfigError, match=message) as exc:
        BlbConfig(**fields)
    # every refusal has one shape and names a field
    name = re.fullmatch(r"(\w+) must be .+, got .+", str(exc.value)).group(1)
    assert name in {field.name for field in dataclasses.fields(BlbConfig)}


@pytest.mark.parametrize("fields, message", REJECTIONS.values(), ids=REJECTIONS.keys())
def test_replace_checks_the_new_config(fields, message):
    with pytest.raises(ConfigError, match=message):
        dataclasses.replace(BlbConfig(), **fields)


def test_numpy_numbers_are_accepted():
    config = BlbConfig(
        gamma=np.float32(0.6), subsets=np.int64(3), replicates=np.int32(20), seed=np.uint64(7),
        alpha=np.float64(0.1), truncation=(np.float64(0.05), 0.95), max_redraws=np.int8(2),
        redraw_on_imbalance=np.True_,
    )
    assert config.subsets == 3 and config.seed == 7


def test_seeds_are_taken_whole():
    """No seed reruns another: 2**64 is not seed 0, and a negative seed,
    which once reran 2**64 - 1, is refused wherever a stream is made."""
    table = generate_dgm(2000, rng.substream(1, rng.DOMAIN_DATASET, 0))

    def tau_hat(seed):
        return run_blb(table, BlbConfig(subsets=2, replicates=20, seed=seed)).tau_hat

    assert tau_hat(2**64) != tau_hat(0)
    assert tau_hat(2**64 + 5) != tau_hat(5)
    with pytest.raises(ConfigError, match=r"^seed must be at least 0, got -1$"):
        rng.substream(-1, rng.DOMAIN_DATASET, 0)


def test_every_field_is_frozen():
    config = BlbConfig()
    for field in dataclasses.fields(BlbConfig):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, field.name, getattr(config, field.name))
