import math

import numpy as np
import pytest

from spherewf.types import (
    ModelParams,
    SimplexPoint,
    SpherePoint,
    Truncation,
)


def test_simplex_accepts_and_renormalizes_near_misses():
    x = SimplexPoint([0.5, 0.3, 0.2 + 5e-10])
    assert abs(x.coords.sum() - 1.0) < 1e-15
    tiny_neg = SimplexPoint([1.0 + 5e-10, -5e-10, 0.0])
    assert tiny_neg.coords.min() == 0.0


def test_simplex_rejects_bad_inputs():
    with pytest.raises(ValueError):
        SimplexPoint([0.5, 0.4])  # sums to 0.9
    with pytest.raises(ValueError):
        SimplexPoint([1.1, -0.1, 0.0])
    with pytest.raises(ValueError):
        SimplexPoint([1.0])
    with pytest.raises(ValueError):
        SimplexPoint([np.nan, 1.0])


def test_points_are_immutable():
    x = SimplexPoint([0.5, 0.5])
    with pytest.raises(ValueError):
        x.coords[0] = 0.3
    y = SpherePoint([0.6, 0.8])
    with pytest.raises(ValueError):
        y.coords[0] = 0.0


def test_sphere_norm_validation():
    SpherePoint([0.6, -0.64, 0.48])
    with pytest.raises(ValueError):
        SpherePoint([1.0, 1.0])


def test_model_params():
    p = ModelParams(3, 2.0, [0.1, 0.2, 0.3])
    mu = p.epsilon.sum()
    assert mu == pytest.approx(0.6)
    assert p.epsilon.tolist() == [0.1, 0.2, 0.3]
    drift = p.epsilon - mu * np.array([0.2, 0.3, 0.5])  # M(x) = eps - mu*x
    assert abs(drift.sum()) < 1e-15
    common = ModelParams(4, 1.0, 0.5)
    assert common.epsilon.tolist() == [0.5] * 4 and common.epsilon.sum() == 2.0


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(1, 1.0)
    with pytest.raises(ValueError):
        ModelParams(3, 0.0)
    with pytest.raises(ValueError):
        ModelParams(3, 1.0, [-0.1, 0.1, 0.1])
    with pytest.raises(ValueError):
        ModelParams(3, 1.0, [0.1, 0.1])


def test_truncation_validation():
    Truncation(10, 1e-8)
    with pytest.raises(ValueError):
        Truncation(0, 1e-8)
    with pytest.raises(ValueError):
        Truncation(10, 0.0)
    with pytest.raises(ValueError, match="finite"):
        Truncation(10, math.inf)


@pytest.mark.parametrize("bad", [2.5, np.float64(3.5), math.nan, math.inf, "3", None])
def test_counts_must_be_whole_numbers(bad):
    # k and max_terms count loop passes: 2.5 was truncated to k = 2, and a
    # max_terms of 2.5 failed inside the series with a TypeError
    with pytest.raises(ValueError, match="ModelParams: k must be a whole number"):
        ModelParams(bad, 1.0)
    with pytest.raises(ValueError, match="Truncation: max_terms must be a whole number"):
        Truncation(max_terms=bad)
    for whole in (3, np.int64(3), np.int32(3), 3.0):
        assert ModelParams(whole, 1.0).k == 3 and type(ModelParams(whole, 1.0).k) is int
        assert Truncation(max_terms=whole).max_terms == 3
        assert type(Truncation(max_terms=whole).max_terms) is int
