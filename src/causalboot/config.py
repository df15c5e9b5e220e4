"""Run configuration: every setting with its default and its rule.

Each ``BlbConfig`` field states, beside its default, the kind of value
it takes (an integer, a finite real number, a bool, a string, a path or
a tuple of two reals; a bool is no number) and the values of that kind
it admits, each as a (requirement, test) pair.  Every refusal is a
``ConfigError`` that reads ``<field> must be <requirement>, got <value>``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from numbers import Integral, Real

import numpy as np

from .errors import ConfigError

ESTIMATORS = ("logistic", "cbps", "marginal", "external")
CI_KINDS = ("percentile", "asymptotic")

# Solver defaults: (tolerance on the fit's max-norm criterion, iteration cap).
IRLS_TOL, IRLS_MAX_ITER = 1e-8, 100
CBPS_TOL, CBPS_MAX_ITER = 1e-6, 200

_INTEGER = ("an integer", lambda v: isinstance(v, Integral) and not isinstance(v, bool))
# Every integer is finite, however large; math.isfinite would overflow on some.
_REAL = ("a real number", lambda v: isinstance(v, Real) and not isinstance(v, bool)
         and (isinstance(v, Integral) or math.isfinite(v)))
_BOOL = ("a bool", lambda v: isinstance(v, (bool, np.bool_)))
_STRING = ("a string", lambda v: isinstance(v, str))
# A path passes both rules: open() reads an int as a file descriptor, and
# refuses a NUL byte with a raw ValueError.
PATH = ("a str or os.PathLike", lambda v: isinstance(v, (str, os.PathLike)))
NUL_FREE = ("free of NUL bytes", lambda v: "\0" not in os.fsdecode(v))
_PAIR = ("a tuple of two reals",
         lambda v: isinstance(v, tuple) and len(v) == 2 and all(map(_REAL[1], v)))


def check(name: str, value, *rules) -> None:
    """Refuse ``value`` at the first rule, a (requirement, test) pair, it fails."""
    for requirement, holds in rules:
        if not holds(value):
            raise ConfigError(f"{name} must be {requirement}, got {value!r}")


def _setting(default, kind, *admits, optional=False):
    """A field with its rules; an ``optional`` field also takes None."""
    return field(default=default, metadata={"rules": (kind, *admits), "optional": optional})


@dataclass(frozen=True)
class BlbConfig:
    """Parameters of one subset-bootstrap run, checked when made
    (``dataclasses.replace`` included) and frozen.  Exactly one of
    ``gamma`` (b = n**gamma) or ``subset_size`` (b fixed, the b = n/s
    benchmarking convention) sets the subset size."""

    gamma: float | None = _setting(0.7, _REAL, ("in (0, 1]", lambda v: 0 < v <= 1), optional=True)
    subset_size: int | None = _setting(None, _INTEGER, ("at least 2", lambda v: v >= 2),
                                       optional=True)
    subsets: int = _setting(10, _INTEGER, ("at least 1", lambda v: v >= 1))
    replicates: int = _setting(100, _INTEGER, ("at least 2", lambda v: v >= 2))
    seed: int = _setting(0, _INTEGER, ("at least 0", lambda v: v >= 0))
    truncation: tuple[float, float] = _setting(
        (0.01, 0.99), _PAIR, ("(lo, hi) with 0 <= lo < hi <= 1", lambda v: 0 <= v[0] < v[1] <= 1))
    alpha: float = _setting(0.05, _REAL, ("in (0, 1)", lambda v: 0 < v < 1))
    ci_kind: str = _setting("percentile", _STRING, (f"one of {CI_KINDS}", CI_KINDS.__contains__))
    estimator: str = _setting("logistic", _STRING,
                              (f"one of {ESTIMATORS}", ESTIMATORS.__contains__))
    external_scores: str | os.PathLike | None = _setting(
        None, PATH, ("a nonempty path", lambda v: v != ""), NUL_FREE, optional=True)
    max_redraws: int = _setting(10, _INTEGER, ("at least 0", lambda v: v >= 0))
    weight_cap: float = _setting(0.1, _REAL, ("positive", lambda v: v > 0))
    balance_threshold: float = _setting(0.1, _REAL, ("positive", lambda v: v > 0))
    redraw_on_imbalance: bool = _setting(False, _BOOL)
    threads: int = _setting(1, _INTEGER, ("at least 1", lambda v: v >= 1))

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.metadata["optional"]:
                continue
            check(f.name, value, *f.metadata["rules"])
        if (self.gamma is None) == (self.subset_size is None):
            need = "set when gamma is None" if self.gamma is None else "None when gamma is set"
            raise ConfigError(f"subset_size must be {need}, got {self.subset_size!r}")
        external = self.estimator == "external"
        if external == (self.external_scores is None):
            raise ConfigError(f"external_scores must be {'a path' if external else 'None'} for "
                              f"estimator {self.estimator!r}, got {self.external_scores!r}")
