"""Exact transition density of isotropic diffusion on the unit sphere.

The kernel is the spectral (Gegenbauer) series

    rho(y, t | y', 0) = sum_{L>=0} (2L+k-2)/(k-2) * C_L^{k/2-1}(y.y')
                        * exp(-D*L*(L+k-2)*t)

expressed here as a density with respect to the NORMALIZED uniform
measure on S^{k-1} (total mass 1), so the stationary value is exactly 1.
Divide by the surface area A_{k-1} (`specfun.sphere_surface_area`) for
the density with respect to the raw surface measure.

k = 2 is served by a dedicated Fourier cosine kernel: the weight
(2L+k-2)/(k-2) is singular there, and the standard limit
(L+p)/p * C_L^p(cos a) -> 2 cos(L a) as p -> 0 replaces the
Gegenbauer terms.

Both series are truncated at one memoised cutoff, the smallest L whose
rigorous tail bound is below tol: from |C_L^p(z)| <= C_L^p(1) =
poch(2p, L)/L! for k >= 3 and from |cos| <= 1 for k = 2.  Times below
T_MIN are refused: the series would need thousands of terms.

One loop sums both.  By the quadratic transformations (DLMF 18.7.15-16)

    C_2n^lam(z)   = (lam)_n/(1/2)_n           P_n^(lam-1/2, -1/2)(2z^2 - 1),
    C_2n+1^lam(z) = (lam)_{n+1}/(1/2)_{n+1} z P_n^(lam-1/2, +1/2)(2z^2 - 1),

and at k = 2 by 2 cos(2n a) = 2 T_n(cos 2a) and 2 cos((2n+1) a) =
2 cos a V_n(cos 2a) (V_n the Chebyshev polynomial of the third kind),
each parity is one three-term recurrence in
u = 2z^2 - 1, one step per degree of that parity.  `_table` builds its
coefficients and weights once per (t, D, k, L, parity), and `_sums` steps
it with a compensated (Kahan) sum; the odd part is z times its sum.  The
loop takes each point as a Python float for at most `_FLOAT_MAX_POINTS`
points, and the whole array as one point otherwise, whose cost per term is
call overhead up to about 128 points.  The same code runs the same IEEE
operations either way, so both give the same bits.  The Gegenbauer
recurrence (`specfun.gegenbauer_terms`) evaluates no kernel: it is the
independent oracle of the harness's checks.

For the pushforward's sign sum, `zonal_series` and `circle_series` take
even=True: they sum only the even degrees, (rho(z) + rho(-z))/2, at the
same cutoff, and average over the first axis of the points, so a single
pushforward query runs on floats up to k = 6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .specfun import _clamp_z
from .types import SpherePoint, Truncation

__all__ = [
    "T_MIN",
    "SPHERE_TRUNCATION",
    "SphereKernelQuery",
    "KernelValue",
    "heat_kernel",
    "heat_kernel_circle",
    "zonal_kernel",
    "truncation_cutoff",
]

#: Evaluators refuse t below this (at the D = 1/8 scale the series would
#: need thousands of terms; no small-time asymptotics are provided).
T_MIN = 1e-3

#: Default truncation for the spectral series.
SPHERE_TRUNCATION = Truncation(max_terms=5000, tol=1e-12)


def _check_diffusion(who: str, D: float) -> None:
    """The series' rule of D, for `who`: D > 0 (ValueError naming D; NaN fails)."""
    if not (D > 0.0):
        raise ValueError(f"{who}: D = {D!r} is not > 0")


def _check_series(who: str, t: float, D: float) -> None:
    """The series' floor, for `who`: t >= T_MIN and D > 0 (ValueError naming
    the argument; NaN fails both)."""
    if not (t >= T_MIN):
        raise ValueError(f"{who}: t = {t:.3e} below the supported floor {T_MIN:.0e}")
    _check_diffusion(who, D)


@dataclass(frozen=True)
class SphereKernelQuery:
    """Kernel evaluation request: from y_prime at time 0 to y at time t >= T_MIN."""

    y: SpherePoint
    y_prime: SpherePoint
    t: float
    D: float
    trunc: Truncation = SPHERE_TRUNCATION

    def __post_init__(self):
        if self.y.k != self.y_prime.k:
            raise ValueError("SphereKernelQuery: y and y_prime dimensions differ")
        _check_series("SphereKernelQuery", self.t, self.D)


class KernelValue(NamedTuple):
    """The sphere series' result with its truncation diagnostics.

    even_part/odd_part split the sum by the parity of the degree L, each
    summed by its own Jacobi recurrence in u = 2z^2 - 1 (the odd one times
    z), and `value` is their sum.  terms_used counts the degrees 0 ..
    terms_used - 1 that the cutoff admits, tail_bound is a rigorous bound
    on the discarded tail, and converged is False when max_terms was hit
    before the tail bound met tol.  The two parts are arrays shaped like the
    points from `zonal_series` and `circle_series` (shaped like their first
    row, the odd part zero, with even=True and from
    `pushforward_series_batch`), and Python floats from `zonal_kernel`,
    `heat_kernel` and `heat_kernel_circle`.  terms_used stays at index 2,
    where a tracer of the series calls reads it.
    """

    even_part: float | np.ndarray
    odd_part: float | np.ndarray
    terms_used: int
    tail_bound: float
    converged: bool

    @property
    def value(self):
        """The series sum, even_part + odd_part."""
        return self.even_part + self.odd_part

    def __float__(self) -> float:
        return float(self.value)


def _term_bound(L: int, r: float, t: float, D: float, k: int) -> float:
    # r = poch(k-2, L)/L!; uses |C_L^p(z)| <= C_L^p(1) = poch(2p, L)/L!
    return (2.0 * L + k - 2.0) / (k - 2.0) * r * math.exp(-D * L * (L + k - 2.0) * t)


def _tail_bound_after(L0: int, t: float, D: float, k: int) -> float:
    """Geometric majorant for the tail beyond L0 (inf if the ratio is >= 1).

    The term-bound ratio decreases in L, so once it is below 1 the tail is
    bounded by bound_{L0+1} / (1 - ratio_{L0+2}).  For k = 2 the bound of
    term L is 2 exp(-D L^2 t), with ratio exp(-D (2L-1) t).
    """
    if k == 2:
        ratio = math.exp(-D * (2.0 * L0 + 3.0) * t)
        if ratio >= 1.0:
            return math.inf
        return 2.0 * math.exp(-D * (L0 + 1.0) * (L0 + 1.0) * t) / (1.0 - ratio)
    r = 1.0
    for L in range(1, L0 + 2):
        r *= (k - 3.0 + L) / L
    return _tail_from(L0, r, t, D, k)


def _tail_from(L0: int, r: float, t: float, D: float, k: int) -> float:
    """The k >= 3 tail bound beyond L0, given r = poch(k-2, L0+1)/(L0+1)! as
    `_tail_bound_after` forms it (r *= (k-3+L)/L for L = 1 .. L0+1)."""
    b1 = _term_bound(L0 + 1, r, t, D, k)
    if b1 == 0.0:
        return 0.0
    r2 = r * (k - 2.0 + L0 + 1.0) / (L0 + 2.0)
    ratio = _term_bound(L0 + 2, r2, t, D, k) / b1
    if ratio >= 1.0:
        return math.inf
    return b1 / (1.0 - ratio)


#: the largest cutoff any scan looks for
_HARD_CAP = 200_000


@lru_cache(maxsize=256)
def _cutoff_scan(t: float, D: float, k: int, tol: float, cap: int = _HARD_CAP):
    """Smallest L <= cap (and below _HARD_CAP) with tail bound below tol;
    returns (L, tail_bound, True), or (min(cap + 1, _HARD_CAP), inf, False)
    when there is none.

    Depends only on its arguments, so it is memoised: every query at the
    same (t, D, k, tol, cap) shares one O(L) scan, which for k >= 3 carries
    the tail bound's running product along.  The k = 2 scan starts at L = 1.
    """
    stop = min(cap + 1, _HARD_CAP)
    r = 1.0  # poch(k-2, L+1)/(L+1)! for k >= 3, rounded as _tail_bound_after rounds it
    for L in range(1 if k == 2 else 0, stop):
        r *= (k - 3.0 + (L + 1)) / (L + 1)
        tail = _tail_bound_after(L, t, D, k) if k == 2 else _tail_from(L, r, t, D, k)
        if tail < tol:
            return L, tail, True
    return stop, math.inf, False


def truncation_cutoff(t: float, D: float, k: int, tol: float) -> tuple[int, bool]:
    """Series length needed for the spectral kernel's tail bound to meet tol.

    Returns (L_max, achieved); achieved is False if the internal hard cap
    was reached first (only possible for extremely small t).  D must be > 0
    (ValueError naming D).
    """
    if not (t > 0.0 and tol > 0.0):
        raise ValueError("truncation_cutoff: need t > 0 and tol > 0")
    _check_diffusion("truncation_cutoff", D)
    if k < 3:
        raise ValueError("truncation_cutoff: k must be >= 3 (k = 2 is the circle kernel)")
    L, _, achieved = _cutoff_scan(t, D, k, tol)
    return L, achieved


#: At most this many points go through the series one Python float at a
#: time; more go through it as one array, whose cost per term barely grows
#: with the width.  Measured crossover on a 2-core VM: the float loop stays
#: faster up to 40-48 points in the even mode (2-38 steps, k = 6, t = 5,
#: 0.5, 0.05), so a single pushforward query runs on floats up to k = 6 (32
#: sign vectors), and breaks even at 32-40 points with both parities (k = 3
#: and 6, same times).
_FLOAT_MAX_POINTS = 40


def _cutoff(t: float, D: float, k: int, trunc: Truncation) -> tuple[int, float, bool]:
    """The series' cutoff L_cap, its tail bound and whether it converged: the
    memoised scan's L, capped at trunc.max_terms."""
    _check_series("the sphere series", t, D)
    # the scan stops past max_terms: a longer cutoff is not converged anyway
    L_needed, tail, achieved = _cutoff_scan(t, D, k, trunc.tol, trunc.max_terms)
    L_cap = min(L_needed, trunc.max_terms)
    converged = achieved and (L_needed <= trunc.max_terms)
    if not converged:
        tail = _tail_bound_after(L_cap, t, D, k)
    return L_cap, tail, converged


@lru_cache(maxsize=256)
def _table(t: float, D: float, k: int, L_cap: int, parity: int) -> tuple[float, tuple]:
    """The degrees L <= L_cap of one parity (0 even, 1 odd) as one three-term
    recurrence in u = 2z^2 - 1: (head, rows), where head is the weight on
    P_0 = 1 and, per n = 1, 2, ..., the row (a, b, c, w) steps P_n = (a u + b)
    P_{n-1} - c P_{n-2} and puts the weight w on P_n.  The table's series is
    the even degrees' sum, or the odd degrees' sum over z.

    k >= 3: P_n is the Jacobi P_n^(lam-1/2, parity-1/2) (DLMF 18.9.2), lam =
    k/2 - 1, and C_2n+parity^lam(z) = s_n z^parity P_n(u) (module docstring)
    with s_n = (lam)_{n+parity}/(1/2)_{n+parity}, built as a running product
    from 1 (even) or 2 lam (odd); w is the sphere weight of degree 2n +
    parity times s_n, and the odd head is 2 lam times the weight of degree 1.
    k = 2: P_n is T_n (even) or V_n (odd), and w = 2 exp(-D L^2 t) at degree
    L.  The table does not depend on the points, so it is memoised.
    """
    def weight(L):
        if k == 2:
            return 2.0 * math.exp(-D * L * L * t)
        return (2.0 * L + k - 2.0) / (k - 2.0) * math.exp(-D * L * (L + k - 2.0) * t)

    lam = 0.5 * k - 1.0
    al, be = lam - 0.5, parity - 0.5
    scale = 2.0 * lam if parity and k > 2 else 1.0
    head = (weight(1.0) * scale if L_cap >= 1 else 0.0) if parity else 1.0
    rows = []
    for n in range(1, (L_cap - parity) // 2 + 1):
        if k == 2:
            a, b, c = (2.0, 0.0, 1.0) if n > 1 else (2.0, -1.0, 0.0) if parity else (1.0, 0.0, 0.0)
        elif n == 1:
            a, b, c = 0.5 * (2.0 + al + be), 0.5 * (al - be), 0.0
        else:
            sig = 2.0 * n + al + be
            den = 2.0 * n * (n + al + be) * (sig - 2.0)
            a = (sig - 1.0) * sig * (sig - 2.0) / den
            b = (sig - 1.0) * (al * al - be * be) / den
            c = 2.0 * (n + al - 1.0) * (n + be - 1.0) * sig / den
        if k > 2:
            scale *= (lam + n - 1.0 + parity) / (n - 0.5 + parity)
        rows.append((a, b, c, weight(2.0 * n + parity) * scale))
    return head, tuple(rows)


def _sums(to_u, points: list, head: float, rows: tuple) -> list:
    """head plus the terms of the table rows at each of points, mapped to u by
    to_u, summed by a compensated (Kahan) step: Python floats, or one numpy
    array taken as a single point, whose operators run the same IEEE
    operations elementwise in the same order.  A sum that took no term is the
    float head."""
    out = []
    for z in points:
        u = to_u(z)
        tot, comp, prev, cur = head, 0.0, 0.0, 1.0
        for a, b, c, w in rows:
            prev, cur = cur, (a * u + b) * cur - c * prev
            y = cur * w - comp
            s = tot + y
            comp = (s - tot) - y
            tot = s
        out.append(tot)
    return out


#: (to_z, to_u) for points that are dot products z, and for angles a, with
#: z = cos a and u = cos 2a (math.cos at one float point, np.cos on an array)
_DOTS = (lambda z: z, lambda z: 2.0 * z * z - 1.0)
_ANGLES = (lambda a: (math.cos if isinstance(a, float) else np.cos)(a),
           lambda a: (math.cos if isinstance(a, float) else np.cos)(2.0 * a))


def _series(x: np.ndarray, maps: tuple, t: float, D: float, k: int, trunc: Truncation,
            even: bool = False) -> KernelValue:
    """1 plus w_L C_L(z), L = 1 .. L_cap, at the points x, each mapped to z and
    u = 2z^2 - 1 by maps = (to_z, to_u): the two parities' tables summed in u,
    the odd one times z.  Returns KernelValue(even, odd, ...), parts shaped
    like x.  With even=True only the even part is summed, (rho(z) + rho(-z))/2,
    and averaged over the first axis of x with an exact sum (math.fsum) per
    column; the parts are then shaped like x[0], the odd one zero.
    """
    L_cap, tail, converged = _cutoff(t, D, k, trunc)
    to_z, to_u = maps
    shape = x.shape
    if even:  # column by column: the rows of one column are consecutive
        rows = len(x) if x.ndim else 1
        x = x.reshape(rows, -1).T
    on_floats = x.size <= _FLOAT_MAX_POINTS
    points = x.ravel().tolist() if on_floats else [x]
    evens = _sums(to_u, points, *_table(t, D, k, L_cap, 0))
    if even:
        flat = evens if on_floats else np.broadcast_to(evens[0], x.shape).ravel().tolist()
        value = np.array([math.fsum(flat[i:i + rows]) / rows
                          for i in range(0, len(flat), rows)]).reshape(shape[1:])
        return KernelValue(value, np.zeros(value.shape), L_cap + 1, tail, converged)
    odds = [to_z(p) * s for p, s in zip(points, _sums(to_u, points, *_table(t, D, k, L_cap, 1)))]
    # floats, or one array (or the float head, where it took no term)
    even_part, odd_part = (np.array(s).reshape(shape) if on_floats
                           else np.array(np.broadcast_to(s[0], shape)) for s in (evens, odds))
    return KernelValue(even_part, odd_part, L_cap + 1, tail, converged)


def _at_one_point(series: KernelValue) -> KernelValue:
    """A series result at a single point, its parts as Python floats."""
    return KernelValue(float(series.even_part), float(series.odd_part), series.terms_used,
                       series.tail_bound, series.converged)


def zonal_series(dots: np.ndarray, t: float, D: float, k: int, trunc: Truncation, *,
                 even: bool = False):
    """Spectral series at an array of dot products (normalized-measure density).

    Returns a KernelValue whose even_part/odd_part are arrays shaped like
    dots, holding the even-L and odd-L partial sums.  With even=True it sums
    only the even degrees, (rho(d) + rho(-d))/2, and averages them over the
    first axis of dots: the pushforward's sign sum.
    """
    if k < 3:
        raise ValueError("zonal_series: k must be >= 3")
    # min/max, not np.clip: the same bits (NaN and -0.0 too) at half the call cost
    dots = np.minimum(np.maximum(np.asarray(dots, dtype=float), -1.0), 1.0)
    return _series(dots, _DOTS, t, D, k, trunc, even)


def zonal_kernel(dot: float, t: float, D: float, k: int,
                 trunc: Truncation = SPHERE_TRUNCATION) -> KernelValue:
    """Kernel as a function of the dot product y.y' (k >= 3).

    A dot within 1e-9 of [-1, 1] is clamped into it; one further out, or
    NaN, is refused (ValueError).
    """
    return _at_one_point(zonal_series(_clamp_z(dot, "zonal_kernel: dot"), t, D, k, trunc))


def heat_kernel(q: SphereKernelQuery) -> KernelValue:
    """Transition density w.r.t. the normalized measure (stationary value 1).

    Depends on (y, y') only through their dot product, so it is exactly
    symmetric under exchanging the two points.  At k = 2 the dot goes to the
    circle kernel's series as z = cos a itself, with no angle between.
    """
    k = q.y.k
    if k == 2:
        dot = _clamp_z(q.y.dot(q.y_prime), "heat_kernel: y.y_prime")
        return _at_one_point(_series(np.asarray(dot), _DOTS, q.t, q.D, 2, q.trunc))
    return zonal_kernel(q.y.dot(q.y_prime), q.t, q.D, k, q.trunc)


def heat_kernel_circle(angle_diff: float, t: float, D: float,
                       trunc: Truncation = SPHERE_TRUNCATION) -> KernelValue:
    """Circle (k = 2) kernel: 1 + 2*sum_{L>=1} cos(L*da) exp(-D*L^2*t).

    Density with respect to the normalized arc measure d(da)/(2*pi).  A
    non-finite angle is refused (ValueError).
    """
    if not math.isfinite(angle_diff):
        raise ValueError(f"heat_kernel_circle: angle_diff = {angle_diff!r} is not finite")
    return _at_one_point(circle_series(angle_diff, t, D, trunc))


def circle_series(angles: np.ndarray, t: float, D: float, trunc: Truncation, *,
                  even: bool = False):
    """Array version of the circle kernel; returns a KernelValue whose parts are
    arrays shaped like angles.  The series runs in z = cos a and u = cos 2a;
    even=True is zonal_series' even mode."""
    return _series(np.asarray(angles, dtype=float), _ANGLES, t, D, 2, trunc, even)
