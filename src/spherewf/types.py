"""Shared domain types.

Two state spaces related by the componentwise square map x_i = y_i**2:
relative abundances x on the probability simplex (sum x_i = 1, x_i >= 0)
and unit vectors y on the sphere S^{k-1} (sum y_i**2 = 1).  Constructors
validate their constraint and renormalize inputs that are within
RENORMALIZE_TOL of it, so downstream evaluators can assume validity.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RENORMALIZE_TOL",
    "SimplexPoint",
    "SpherePoint",
    "ModelParams",
    "Truncation",
]

# Inputs within this distance of the constraint are renormalized and
# accepted; anything further off is rejected.  Tolerates floating-point
# accumulation from the simulators without masking real bugs.
RENORMALIZE_TOL = 1e-9


def _as_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"{name}: expected a flat vector of length >= 2, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: coordinates must be finite")
    return arr


def _whole(value, name: str) -> int:
    """`value`, an integer or a float with no fractional part, as an int
    (ValueError naming it otherwise)."""
    if isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")


@dataclass(frozen=True, eq=False)
class SimplexPoint:
    """Relative abundances x with x_i >= 0 and sum(x) = 1."""

    coords: np.ndarray

    def __init__(self, coords):
        arr = _as_vector(coords, "SimplexPoint")
        if arr.min() < -RENORMALIZE_TOL:
            raise ValueError(f"SimplexPoint: negative coordinate {arr.min():.3e}")
        arr = np.clip(arr, 0.0, None)
        total = arr.sum()
        if abs(total - 1.0) > RENORMALIZE_TOL:
            raise ValueError(f"SimplexPoint: coordinates sum to {total:.17g}, not 1")
        arr = arr / total
        arr.flags.writeable = False
        object.__setattr__(self, "coords", arr)

    @property
    def k(self) -> int:
        return self.coords.size

    def is_interior(self) -> bool:
        return bool(self.coords.min() > 0.0)


@dataclass(frozen=True, eq=False)
class SpherePoint:
    """Unit vector y on S^{k-1}, i.e. sum(y_i**2) = 1."""

    coords: np.ndarray

    def __init__(self, coords):
        arr = _as_vector(coords, "SpherePoint")
        sq = float(arr @ arr)
        if abs(sq - 1.0) > RENORMALIZE_TOL:
            raise ValueError(f"SpherePoint: squared norm is {sq:.17g}, not 1")
        arr = arr / math.sqrt(sq)
        arr.flags.writeable = False
        object.__setattr__(self, "coords", arr)

    @property
    def k(self) -> int:
        return self.coords.size

    def dot(self, other: "SpherePoint") -> float:
        return float(self.coords @ other.coords)


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Model parameters: dimension k (a whole number >= 2), noise scale c,
    mutation vector epsilon.

    The diffusion constant of the associated sphere process is D = c**2/8.
    The mutation drift is M_i(x) = epsilon_i - mu*x_i with mu = sum(epsilon)
    (`simulate.advance` writes it); `simulate.moran_event_rate` states the
    Moran model's c.
    """

    k: int
    c: float
    epsilon: np.ndarray

    def __init__(self, k: int, c: float, epsilon=None):
        k = _whole(k, "ModelParams: k")
        if k < 2:
            raise ValueError("ModelParams: k must be >= 2")
        c = float(c)
        if not (c > 0.0 and math.isfinite(c)):
            raise ValueError("ModelParams: c must be positive and finite")
        eps = np.zeros(k) if epsilon is None else np.array(epsilon, dtype=float)
        if np.isscalar(epsilon) or (eps.ndim == 0):
            eps = np.full(k, float(epsilon))
        if eps.shape != (k,):
            raise ValueError(f"ModelParams: epsilon must have length k={k}")
        if eps.min() < 0.0 or not np.all(np.isfinite(eps)):
            raise ValueError("ModelParams: epsilon entries must be finite and >= 0")
        eps.flags.writeable = False
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "epsilon", eps)


@dataclass(frozen=True)
class Truncation:
    """Series truncation policy.

    max_terms, a whole number >= 1, bounds any series loop; tol is the
    per-term / tail target.  Evaluators report whether tol was met.
    """

    max_terms: int = 200
    tol: float = 1e-10

    def __post_init__(self):
        # the series loops count with max_terms, so it must be an int
        object.__setattr__(self, "max_terms", _whole(self.max_terms, "Truncation: max_terms"))
        if self.max_terms < 1:
            raise ValueError("Truncation: max_terms must be >= 1")
        if not (self.tol > 0.0):
            raise ValueError("Truncation: tol must be > 0")
        if self.tol == math.inf:
            raise ValueError("Truncation: tol must be finite")
