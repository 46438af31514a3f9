"""Special functions for the transition-density kernels and their checks.

Gegenbauer (ultraspherical) polynomials C_L^p(z), defined as the
coefficients of h^L in (1 - 2*z*h + h**2)**(-p); log-gamma; and the
surface area of S^{k-1}.

The Gegenbauer three-term recurrence

    C_0 = 1,  C_1 = 2*p*z,
    C_L = (2*z*(L+p-1)*C_{L-1} - (L+2*p-2)*C_{L-2}) / L,

is stable on z in [-1, 1] and is written once, in `gegenbauer_terms`.
No kernel evaluates it: the sphere series steps Jacobi recurrences in
u = 2z^2 - 1 (`sphere_heat`), so the recurrence is the independent
oracle of the harness's `gegenbauer_check` and `sign_sum_degree_check`,
which then share no recurrence with the evaluator they check.  The
explicit alternating sum

    C_L^p(z) = sum_{j=0}^{floor(L/2)} (-1)^j Gamma(L-j+p) /
               (Gamma(p) j! (L-2j)!) * (2z)^{L-2j}

is kept as an independent cross-check oracle.  In float arithmetic that
sum loses roughly 2^L worth of precision near |z| = 1, so it is carried
out in exact integer arithmetic and rounded once at the end.  It takes
half-integer p (whole 2p) only, the one case this library uses:
p = k/2 - 1.
"""

from __future__ import annotations

import math
from itertools import islice

from .types import _whole

__all__ = [
    "log_gamma",
    "gegenbauer_terms",
    "gegenbauer",
    "gegenbauer_explicit",
    "generating_function_residual",
    "sphere_surface_area",
]

#: Dot products of unit vectors may exceed 1 by rounding; clamp this much.
_Z_SLACK = 1e-9


def log_gamma(x: float) -> float:
    """Natural log of |Gamma(x)|.

    Delegates to the platform lgamma, which is accurate to a few ulp;
    the test suite pins > 1e-13 relative accuracy for x >= 0.5 against
    an arbitrary-precision reference.
    """
    return math.lgamma(x)


def _clamp_z(z: float, name: str) -> float:
    """The dot product z clamped into [-1, 1], once |z| <= 1 + _Z_SLACK
    (ValueError naming it otherwise, NaN too)."""
    if not (abs(z) <= 1.0 + _Z_SLACK):
        raise ValueError(f"{name} = {z!r} is not within {_Z_SLACK:g} of [-1, 1]")
    return max(-1.0, min(1.0, z))


def gegenbauer_terms(p: float, z):
    """C_0^p(z), C_1^p(z), C_2^p(z), ... by the three-term recurrence.

    An endless generator.  z is a float or a numpy array of values in
    [-1, 1] (not checked here); each term after C_0 = 1.0 has z's type.
    """
    prev2 = 1.0
    prev1 = 2.0 * p * z
    yield prev2
    yield prev1
    two_z = 2.0 * z
    L = 2
    while True:
        prev2, prev1 = prev1, (two_z * (L + p - 1.0) * prev1 - (L + 2.0 * p - 2.0) * prev2) / L
        yield prev1
        L += 1


def _check_degree(who: str, L: int, p: float) -> None:
    """The rule of C_L^p's parameters, for `who`: L >= 0 and p > 0 (ValueError
    naming the argument)."""
    if L < 0:
        raise ValueError(f"{who}: L = {L!r} is not >= 0")
    if not (p > 0.0):  # NaN too
        raise ValueError(f"{who}: p = {p!r} is not > 0 (p = 0 is the circle case)")


def gegenbauer(L: int, p: float, z: float) -> float:
    """C_L^p(z) by the three-term recurrence; requires L >= 0 and p > 0."""
    _check_degree("gegenbauer", L, p)
    return next(islice(gegenbauer_terms(p, _clamp_z(z, "gegenbauer: z")), L, None))


def gegenbauer_explicit(L: int, p: float, z: float) -> float:
    """C_L^p(z) by the explicit alternating sum (cross-check oracle).

    Requires a whole 2p (ValueError otherwise).  With q = 2p and z = a/b
    the exact binary rational of the float, 2^m poch(p, m) is the integer
    q (q+2) ... (q+2m-2), so every term is an integer over the common
    denominator L! 2^(L//2) b^L.  The one rounding is the final int / int
    division, which Python rounds correctly.
    """
    _check_degree("gegenbauer_explicit", L, p)
    two_p = 2.0 * p
    if not two_p.is_integer():
        raise ValueError(f"gegenbauer_explicit: 2p = {two_p!r} is not a whole number")
    q = int(two_p)
    a, b = _clamp_z(z, "gegenbauer_explicit: z").as_integer_ratio()
    J = L // 2
    L_fact = math.factorial(L)
    numerator = 0
    for j in range(J + 1):
        # (-1)^j poch(p, L-j) (2z)^(L-2j) / (j! (L-2j)!), scaled by the denominator
        term = (math.prod(range(q, q + 2 * (L - j), 2))
                * (L_fact // (math.factorial(j) * math.factorial(L - 2 * j)))
                * a ** (L - 2 * j) * b ** (2 * j)) << (J - j)
        numerator += -term if j % 2 else term
    return numerator / ((L_fact * b ** L) << J)


def generating_function_residual(p: float, z: float, h: float, L_max: int) -> float:
    """|(1 - 2*z*h + h**2)**(-p) - sum_{L<=L_max} C_L^p(z) h^L|."""
    if abs(h) >= 1.0:
        raise ValueError("generating_function_residual: need |h| < 1")
    if not (p > 0.0):
        raise ValueError("generating_function_residual: p must be > 0")
    L_max = _whole(L_max, "generating_function_residual: L_max")
    if L_max < 0:  # an empty sum would return |target|
        raise ValueError(f"generating_function_residual: L_max = {L_max!r} is not >= 0")
    z = _clamp_z(z, "generating_function_residual: z")
    target = (1.0 - 2.0 * z * h + h * h) ** (-p)
    terms = []
    hp = 1.0
    for C in islice(gegenbauer_terms(p, z), L_max + 1):
        terms.append(C * hp)
        hp *= h
    return abs(target - math.fsum(terms))


def sphere_surface_area(k: int) -> float:
    """Surface area of S^{k-1}: 2*pi**(k/2) / Gamma(k/2)."""
    if k < 1:
        raise ValueError("sphere_surface_area: k must be >= 1")
    return 2.0 * math.pi ** (k / 2.0) / math.gamma(k / 2.0)
