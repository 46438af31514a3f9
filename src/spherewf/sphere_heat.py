"""Exact transition density of isotropic diffusion on the unit sphere.

The kernel is the spectral (Gegenbauer) series

    rho(y, t | y', 0) = sum_{L>=0} (2L+k-2)/(k-2) * C_L^{k/2-1}(y.y')
                        * exp(-D*L*(L+k-2)*t)

expressed here as a density with respect to the NORMALIZED uniform
measure on S^{k-1} (total mass 1), so the stationary value is exactly 1.
Divide by the surface area A_{k-1} (see `heat_kernel_unnormalized`) for
the density with respect to the raw surface measure.

k = 2 is served by a dedicated Fourier cosine kernel: the weight
(2L+k-2)/(k-2) is singular there, and the standard limit
(L+p)/p * C_L^p(cos a) -> 2 cos(L a) as p -> 0 replaces the
Gegenbauer terms.

Series are summed with compensated (Kahan) accumulation and truncated
via the rigorous tail bound |C_L^p(z)| <= C_L^p(1) = poch(2p, L)/L!.
Times below T_MIN are refused: the series would need thousands of terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import gegenbauer_terms, sphere_surface_area
from .types import SpherePoint, Truncation

__all__ = [
    "T_MIN",
    "SPHERE_TRUNCATION",
    "SphereKernelQuery",
    "KernelValue",
    "heat_kernel",
    "heat_kernel_unnormalized",
    "heat_kernel_circle",
    "zonal_kernel",
    "truncation_cutoff",
]

#: Evaluators refuse t below this (at the D = 1/8 scale the series would
#: need thousands of terms; no small-time asymptotics are provided).
T_MIN = 1e-3

#: Default truncation for the spectral series.
SPHERE_TRUNCATION = Truncation(max_terms=5000, tol=1e-12)


@dataclass(frozen=True)
class SphereKernelQuery:
    """Kernel evaluation request: from y_prime at time 0 to y at time t > 0."""

    y: SpherePoint
    y_prime: SpherePoint
    t: float
    D: float
    trunc: Truncation = SPHERE_TRUNCATION

    def __post_init__(self):
        if self.y.k != self.y_prime.k:
            raise ValueError("SphereKernelQuery: y and y_prime dimensions differ")
        if not (self.t > 0.0):
            raise ValueError("SphereKernelQuery: t must be > 0")
        if not (self.D > 0.0):
            raise ValueError("SphereKernelQuery: D must be > 0")


@dataclass(frozen=True)
class KernelValue:
    """Series evaluation result with truncation diagnostics.

    even_part/odd_part split the sum by the parity of the series index.
    tail_bound is a rigorous bound on the discarded tail; converged is
    False when max_terms was hit before the tail bound met tol.
    """

    value: float
    terms_used: int
    tail_bound: float
    converged: bool
    even_part: float
    odd_part: float

    def __float__(self) -> float:
        return self.value


def _require_time(t: float) -> None:
    if not (t >= T_MIN):  # NaN too
        raise ValueError(f"t = {t:.3e} below the supported floor {T_MIN:.0e}")


def _term_bound(L: int, r: float, t: float, D: float, k: int) -> float:
    # r = poch(k-2, L)/L!; uses |C_L^p(z)| <= C_L^p(1) = poch(2p, L)/L!
    return (2.0 * L + k - 2.0) / (k - 2.0) * r * math.exp(-D * L * (L + k - 2.0) * t)


def _tail_bound_after(L0: int, t: float, D: float, k: int) -> float:
    """Geometric majorant for the tail beyond L0 (inf if the ratio is >= 1).

    The term-bound ratio decreases in L for k >= 3, so once it is below 1
    the tail is bounded by bound_{L0+1} / (1 - ratio_{L0+2}).
    """
    r = 1.0
    for L in range(1, L0 + 2):
        r *= (k - 3.0 + L) / L
    b1 = _term_bound(L0 + 1, r, t, D, k)
    if b1 == 0.0:
        return 0.0
    r2 = r * (k - 2.0 + L0 + 1.0) / (L0 + 2.0)
    ratio = _term_bound(L0 + 2, r2, t, D, k) / b1
    if ratio >= 1.0:
        return math.inf
    return b1 / (1.0 - ratio)


@lru_cache(maxsize=256)
def _cutoff_scan(t: float, D: float, k: int, tol: float, hard_cap: int = 200_000):
    """Smallest L with tail bound below tol; returns (L, tail_bound, achieved).

    Depends only on its arguments, so it is memoised: every query at the
    same (t, D, k, tol) shares one O(L^2) scan.
    """
    r = 1.0  # poch(k-2, L)/L! at the running L
    b_cur = _term_bound(0, r, t, D, k)
    for L in range(hard_cap):
        r_next = r * (k - 3.0 + L + 1.0) / (L + 1.0)
        b_next = _term_bound(L + 1, r_next, t, D, k)
        if b_cur > 0.0 and b_next / b_cur < 1.0:
            tail = _tail_bound_after(L, t, D, k)
            if tail < tol:
                return L, tail, True
        elif b_next == 0.0:
            return L, 0.0, True
        r, b_cur = r_next, b_next
    return hard_cap, math.inf, False


def truncation_cutoff(t: float, D: float, k: int, tol: float) -> tuple[int, bool]:
    """Series length needed for the spectral kernel's tail bound to meet tol.

    Returns (L_max, achieved); achieved is False if the internal hard cap
    was reached first (only possible for extremely small t).
    """
    if not (t > 0.0 and tol > 0.0):
        raise ValueError("truncation_cutoff: need t > 0 and tol > 0")
    if k < 3:
        raise ValueError("truncation_cutoff: k must be >= 3 (k = 2 is the circle kernel)")
    L, _, achieved = _cutoff_scan(t, D, k, tol)
    return L, achieved


def _kahan_add(total: np.ndarray, comp: np.ndarray, term: np.ndarray) -> None:
    y = term - comp
    t = total + y
    comp[...] = (t - total) - y
    total[...] = t


def zonal_series(dots: np.ndarray, t: float, D: float, k: int, trunc: Truncation):
    """Spectral series at an array of dot products (normalized-measure density).

    Returns (even, odd, terms_used, tail_bound, converged) where even/odd
    are arrays holding the even-L and odd-L partial sums.
    """
    if k < 3:
        raise ValueError("zonal_series: k must be >= 3")
    _require_time(t)
    dots = np.clip(np.asarray(dots, dtype=float), -1.0, 1.0)
    p = 0.5 * k - 1.0
    L_needed, tail, achieved = _cutoff_scan(t, D, k, trunc.tol)
    L_cap = min(L_needed, trunc.max_terms)
    converged = achieved and (L_needed <= trunc.max_terms)
    if not converged:
        tail = _tail_bound_after(L_cap, t, D, k)

    even = np.ones_like(dots)  # L = 0 term: weight (k-2)/(k-2) = 1, C_0 = 1
    odd = np.zeros_like(dots)
    even_c = np.zeros_like(dots)
    odd_c = np.zeros_like(dots)
    polys = gegenbauer_terms(p, dots)
    next(polys)  # C_0, already in `even`
    for L, C in zip(range(1, L_cap + 1), polys):
        w = (2.0 * L + k - 2.0) / (k - 2.0) * math.exp(-D * L * (L + k - 2.0) * t)
        if L % 2 == 0:
            _kahan_add(even, even_c, w * C)
        else:
            _kahan_add(odd, odd_c, w * C)
    return even, odd, L_cap + 1, tail, converged


def zonal_kernel(dot: float, t: float, D: float, k: int,
                 trunc: Truncation = SPHERE_TRUNCATION) -> KernelValue:
    """Kernel as a function of the dot product y.y' (k >= 3)."""
    even, odd, terms, tail, converged = zonal_series(np.asarray(dot, dtype=float), t, D, k, trunc)
    e, o = float(even), float(odd)
    return KernelValue(e + o, terms, tail, converged, e, o)


def heat_kernel(q: SphereKernelQuery) -> KernelValue:
    """Transition density w.r.t. the normalized measure (stationary value 1).

    Depends on (y, y') only through their dot product, so it is exactly
    symmetric under exchanging the two points.
    """
    k = q.y.k
    if k == 2:
        angle = math.acos(max(-1.0, min(1.0, q.y.dot(q.y_prime))))
        return heat_kernel_circle(angle, q.t, q.D, q.trunc)
    return zonal_kernel(q.y.dot(q.y_prime), q.t, q.D, k, q.trunc)


def heat_kernel_unnormalized(q: SphereKernelQuery) -> KernelValue:
    """Same kernel with respect to the raw surface measure (divide by A_{k-1})."""
    res = heat_kernel(q)
    a = sphere_surface_area(q.y.k)
    return KernelValue(res.value / a, res.terms_used, res.tail_bound / a,
                       res.converged, res.even_part / a, res.odd_part / a)


def heat_kernel_circle(angle_diff: float, t: float, D: float,
                       trunc: Truncation = SPHERE_TRUNCATION) -> KernelValue:
    """Circle (k = 2) kernel: 1 + 2*sum_{L>=1} cos(L*da) exp(-D*L^2*t).

    Density with respect to the normalized arc measure d(da)/(2*pi).
    """
    if not (D > 0.0):
        raise ValueError("heat_kernel_circle: D must be > 0")
    even, odd, terms, tail, converged = circle_series(angle_diff, t, D, trunc)
    e, o = float(even), float(odd)
    return KernelValue(e + o, terms, tail, converged, e, o)


def circle_series(angles: np.ndarray, t: float, D: float, trunc: Truncation):
    """Array version of the circle kernel; returns (even, odd, terms, tail, converged)."""
    _require_time(t)
    angles = np.asarray(angles, dtype=float)
    even = np.ones_like(angles)
    odd = np.zeros_like(angles)
    even_c = np.zeros_like(angles)
    odd_c = np.zeros_like(angles)
    terms = 1
    tail = math.inf
    converged = False
    L = 0
    while L < trunc.max_terms:
        L += 1
        term = 2.0 * np.cos(L * angles) * math.exp(-D * L * L * t)
        if L % 2 == 0:
            _kahan_add(even, even_c, term)
        else:
            _kahan_add(odd, odd_c, term)
        terms += 1
        b_next = 2.0 * math.exp(-D * (L + 1.0) * (L + 1.0) * t)
        ratio = math.exp(-D * (2.0 * L + 3.0) * t)
        tail = b_next / (1.0 - ratio)
        if tail < trunc.tol:
            converged = True
            break
    return even, odd, terms, tail, converged
