import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from spherewf.specfun import (
    gegenbauer,
    gegenbauer_explicit,
    generating_function_residual,
    log_gamma,
    sphere_surface_area,
)


def test_gegenbauer_low_degrees():
    assert gegenbauer(0, 0.5, 0.3) == 1.0
    assert gegenbauer(0, 2.0, -1.0) == 1.0
    assert gegenbauer(1, 0.5, 0.3) == pytest.approx(0.3, abs=1e-15)  # 2*p*z
    # C_2^{1/2} is the Legendre P_2, and P_2(1) = 1
    assert gegenbauer(2, 0.5, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_gegenbauer_explicit_examples():
    assert gegenbauer_explicit(3, 1.0, 0.0) == 0.0  # odd polynomial at 0
    assert gegenbauer_explicit(2, 1.0, 1.0) == pytest.approx(3.0, abs=1e-14)
    assert gegenbauer_explicit(0, 1.5, 0.7) == 1.0


def test_gegenbauer_input_validation():
    with pytest.raises(ValueError):
        gegenbauer(-1, 0.5, 0.0)
    with pytest.raises(ValueError):
        gegenbauer(2, 0.0, 0.0)
    with pytest.raises(ValueError):
        gegenbauer(2, 0.5, 1.5)
    with pytest.raises(ValueError):
        gegenbauer_explicit(2, -1.0, 0.5)
    with pytest.raises(ValueError, match="whole number"):
        gegenbauer_explicit(2, 0.77, 0.5)  # only half-integer p
    # NaN was clamped to z = 1: gegenbauer(3, 1.0, nan) gave C_3^1(1) = 4
    for f in (gegenbauer, gegenbauer_explicit):
        with pytest.raises(ValueError, match=f"{f.__name__}: z = nan"):
            f(3, 1.0, math.nan)
    with pytest.raises(ValueError, match="generating_function_residual: z = nan"):
        generating_function_residual(1.0, math.nan, 0.5, 10)
    # L_max = -1 returned |target| as an empty sum, and -2 failed inside islice
    for L_max in (-1, -2):
        with pytest.raises(ValueError, match=f"L_max = {L_max} is not >= 0"):
            generating_function_residual(1.0, 0.3, 0.5, L_max)
    # a fractional L_max failed inside islice without naming it; whole floats
    # and numpy ints are the sum of the int
    with pytest.raises(ValueError, match="L_max must be a whole number, got 2.5"):
        generating_function_residual(1.0, 0.3, 0.5, 2.5)
    ref = generating_function_residual(1.0, 0.3, 0.5, 3)
    assert generating_function_residual(1.0, 0.3, 0.5, 3.0) == ref
    assert generating_function_residual(1.0, 0.3, 0.5, np.int64(3)) == ref


def test_recurrence_matches_explicit_sum_on_grid():
    # the explicit sum is exact rational for half-integer 2p
    worst = 0.0
    for p in (0.5, 1.0, 1.5, 2.0):
        for L in range(0, 41):
            for z in np.arange(-1.0, 1.0 + 1e-12, 0.1):
                a = gegenbauer(L, p, float(z))
                b = gegenbauer_explicit(L, p, float(z))
                worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    assert worst < 1e-11


def _fraction_explicit(L, p, z):
    # the earlier oracle, kept as written: a Fraction sum rounded once
    def poch(two_p, m):
        value = Fraction(1)
        for i in range(m):
            value *= Fraction(two_p + 2 * i, 2)
        return value

    zf = Fraction(max(-1.0, min(1.0, z)))
    total = Fraction(0)
    for j in range(L // 2 + 1):
        coeff = (poch(int(2.0 * p), L - j) / (math.factorial(j) * math.factorial(L - 2 * j))
                 * (2 * zf) ** (L - 2 * j))
        total += -coeff if j % 2 else coeff
    return float(total)


def test_integer_explicit_sum_matches_the_fraction_sum_bits():
    # the same exact rational, so the same correctly rounded float; the
    # Fraction form costs ~L^2 per call, so the grid takes every degree to
    # 12 and three larger ones up to 60
    degrees = list(range(13)) + [25, 40, 60]
    for p in (0.5, 1.0, 1.5, 2.0, 3.0):
        for L in degrees:
            for z in list(np.arange(-1.0, 1.0 + 1e-12, 0.1)) + [-0.0, 2.0 ** -60, -3e-5]:
                assert gegenbauer_explicit(L, p, float(z)) == _fraction_explicit(L, p, float(z))
    rng = np.random.default_rng(26)
    for z in rng.uniform(-1.0, 1.0, 200):
        L, p = int(rng.integers(0, 61)), float(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0]))
        assert gegenbauer_explicit(L, p, float(z)) == _fraction_explicit(L, p, float(z))


def test_gegenbauer_parity():
    for L in range(12):
        for p in (0.5, 1.0, 2.0):
            left = gegenbauer(L, p, -0.37)
            right = (-1.0) ** L * gegenbauer(L, p, 0.37)
            assert left == pytest.approx(right, rel=1e-13, abs=1e-15)


def test_gegenbauer_bounded_by_value_at_one():
    for L in range(0, 30, 3):
        for p in (0.5, 1.0, 1.5):
            cap = math.prod(2 * p + i for i in range(L)) / math.factorial(L)
            for z in np.linspace(-1, 1, 21):
                assert abs(gegenbauer(L, p, float(z))) <= cap * (1 + 1e-12)


def test_generating_function_examples():
    assert generating_function_residual(0.5, 0.7, 0.3, 60) < 1e-10
    assert generating_function_residual(1.0, -0.2, 0.0, 5) == 0.0
    # residual is nonincreasing in L_max (up to roundoff) for z >= 0, h > 0
    for z in (0.0, 0.5, 1.0):
        for h in (0.1, 0.3, 0.5):
            prev = math.inf
            for L_max in range(0, 40, 4):
                r = generating_function_residual(0.5, z, h, L_max)
                assert r <= prev + 1e-14
                prev = r


def test_generating_function_converged_by_sixty_terms():
    for p in (0.5, 1.0, 1.5):
        for h in (-0.5, -0.2, 0.2, 0.5):
            for z in np.linspace(-1, 1, 9):
                assert generating_function_residual(p, float(z), h, 60) < 1e-8


def test_sphere_surface_area():
    assert sphere_surface_area(1) == pytest.approx(2.0, rel=1e-15)
    assert sphere_surface_area(2) == pytest.approx(2 * math.pi, rel=1e-15)
    assert sphere_surface_area(3) == pytest.approx(4 * math.pi, rel=1e-15)
    assert sphere_surface_area(4) == pytest.approx(2 * math.pi ** 2, rel=1e-15)


def test_log_gamma_accuracy_against_mpmath():
    # pinned contract: >= 1e-13 relative accuracy for arguments >= 0.5
    with mpmath.workdps(40):
        for x in np.concatenate([
            np.arange(0.5, 10.25, 0.25),
            np.array([25.0, 60.5, 101.5, 250.0, 500.0]),
        ]):
            ref = float(mpmath.loggamma(mpmath.mpf(float(x))))
            got = log_gamma(float(x))
            assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref))
