import itertools
import math
from functools import partial

import mpmath
import numpy as np
import pytest

from spherewf import sphere_heat, wf_density
from spherewf.sphere_heat import (
    SPHERE_TRUNCATION,
    T_MIN,
    KernelValue,
    SphereKernelQuery,
    circle_series,
    heat_kernel,
    heat_kernel_circle,
    truncation_cutoff,
    zonal_kernel,
    zonal_series,
)
from spherewf.types import SpherePoint, Truncation


def _legendre_sum(z: float, t: float, D: float) -> float:
    # independent Legendre route for k = 3: sum (2L+1) P_L(z) exp(-D L(L+1) t)
    total = 1.0  # L = 0 term
    p_prev, p_cur = 1.0, z  # P_0, P_1
    L = 1
    while True:
        w = (2 * L + 1) * math.exp(-D * L * (L + 1) * t)
        total += w * p_cur
        if w < 1e-18 and L > 2:
            return total
        p_prev, p_cur = p_cur, ((2 * L + 1) * z * p_cur - L * p_prev) / (L + 1)
        L += 1


def test_long_time_limit_is_one():
    rng = np.random.default_rng(21)
    for k in (3, 4, 5):
        g, gp = rng.standard_normal(k), rng.standard_normal(k)
        y, yp = SpherePoint(g / np.linalg.norm(g)), SpherePoint(gp / np.linalg.norm(gp))
        res = heat_kernel(SphereKernelQuery(y, yp, 1e3, 0.125))
        assert abs(res.value - 1.0) < 1e-12
        assert res.converged


def test_exchange_symmetry_exact():
    rng = np.random.default_rng(22)
    for _ in range(10):
        g, gp = rng.standard_normal(4), rng.standard_normal(4)
        y, yp = SpherePoint(g / np.linalg.norm(g)), SpherePoint(gp / np.linalg.norm(gp))
        a = heat_kernel(SphereKernelQuery(y, yp, 0.3, 0.125))
        b = heat_kernel(SphereKernelQuery(yp, y, 0.3, 0.125))
        assert a.value == b.value


def test_k3_kernel_matches_independent_legendre():
    rng = np.random.default_rng(23)
    for _ in range(100):
        z = float(rng.uniform(-1, 1))
        t = float(rng.uniform(0.05, 5.0))
        got = zonal_kernel(z, t, 0.125, 3).value
        ref = _legendre_sum(z, t, 0.125)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def test_k3_normalization_by_quadrature():
    # (1/2) int_{-1}^{1} rho(z) dz = 1 at several times
    z, w = np.polynomial.legendre.leggauss(256)
    for t in (0.05, 0.5, 5.0):
        even, odd, _, _, conv = zonal_series(z, t, 0.125, 3, SPHERE_TRUNCATION)
        assert conv
        integral = 0.5 * float((w * (even + odd)).sum())
        assert abs(integral - 1.0) < 1e-8


def test_positivity_of_truncated_kernel():
    rng = np.random.default_rng(24)
    for _ in range(1000):
        k = int(rng.integers(3, 6))
        z = float(rng.uniform(-1, 1))
        t = float(rng.uniform(0.05, 10.0))
        assert zonal_kernel(z, t, 0.125, k).value >= -1e-10


def test_time_floor_enforced():
    y = SpherePoint([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        zonal_kernel(0.5, 1e-4, 0.125, 3)
    with pytest.raises(ValueError):
        heat_kernel_circle(0.3, 1e-4, 0.125)
    with pytest.raises(ValueError, match="floor"):  # NaN compares False with the floor
        zonal_kernel(0.5, math.nan, 0.125, 3)
    with pytest.raises(ValueError, match="floor"):
        heat_kernel_circle(0.3, math.nan, 0.125)
    # a query below the floor is refused when it is made, not when evaluated
    with pytest.raises(ValueError, match="SphereKernelQuery: t = .* floor"):
        SphereKernelQuery(y, y, 1e-4, 0.125)


def test_non_convergence_reported_when_capped():
    tight = Truncation(max_terms=3, tol=1e-12)
    res = zonal_kernel(0.2, 0.01, 0.125, 3, tight)
    assert not res.converged
    assert res.tail_bound > 1e-12


def test_circle_kernel_long_time_and_direct_sum():
    assert abs(heat_kernel_circle(1.234, 1e3, 0.125).value - 1.0) < 1e-12
    # direct partial sum at da = 0, t = 1, D = 1/8
    direct = 1.0 + 2.0 * sum(math.exp(-(L * L) / 8.0) for L in range(1, 200))
    got = heat_kernel_circle(0.0, 1.0, 0.125)
    assert got.value == pytest.approx(direct, rel=1e-13)
    assert got.converged


def test_circle_kernel_normalization_trapezoid():
    angles = np.linspace(0.0, 2 * math.pi, 512, endpoint=False)
    vals = [heat_kernel_circle(float(a), 0.5, 0.125).value for a in angles]
    integral = float(np.mean(vals))  # uniform rule on the periodic interval
    assert abs(integral - 1.0) < 1e-10


def test_truncation_cutoff_properties():
    # monotone in t
    prev = math.inf
    for t in (0.05, 0.1, 0.5, 1.0, 10.0):
        L, ok = truncation_cutoff(t, 0.125, 3, 1e-12)
        assert ok
        assert L <= prev
        prev = L
    L1, _ = truncation_cutoff(1.0, 0.125, 3, 1e-12)
    assert L1 <= 25
    # with tol = 1 the bound still has to cover the genuine tail, which at
    # t = 1 is sum_{L>=1} (2L+1) exp(-L(L+1)/8) ~ 7.3; the cutoff is 4 there
    Lb, _ = truncation_cutoff(1.0, 0.125, 3, 1.0)
    assert Lb == 4
    tail_after = sum((2 * L + 1) * math.exp(-L * (L + 1) / 8.0) for L in range(5, 200))
    assert tail_after < 1.0
    Lc, _ = truncation_cutoff(8.0, 0.125, 3, 1.0)
    assert Lc == 0
    # k = 2 is the circle's series: the cutoff its evaluations use
    for t, tol in itertools.product((T_MIN, 0.05, 0.5, 8.0), (1e-12, 1e-6, 1.0)):
        series = circle_series(np.array([0.3]), t, 0.125, Truncation(5000, tol))
        assert truncation_cutoff(t, 0.125, 2, tol) == (series.terms_used - 1, series.converged)


@pytest.mark.parametrize("k", [1, 0])
def test_series_refuse_a_dimension_below_two(k):
    with pytest.raises(ValueError, match=f"truncation_cutoff: k = {k} "):
        truncation_cutoff(0.5, 0.125, k, 1e-8)
    with pytest.raises(ValueError, match=f"k = {k} "):
        zonal_series(np.array([0.3, -0.2]), 0.5, 0.125, k, SPHERE_TRUNCATION)
    with pytest.raises(ValueError, match=f"k = {k} "):
        zonal_kernel(0.3, 0.5, 0.125, k)


def test_kernel_value_float_conversion():
    # one record at every layer: arrays from the series and the sign sum,
    # Python floats from the kernels; a tracer reads terms_used at index 2
    def batch(k, rows):
        first = np.linspace(0.4, 0.2, rows)[:, None]
        x = np.concatenate((first, np.tile((1.0 - first) / (k - 1), k - 1)), axis=1)
        return wf_density.pushforward_series_batch(x, np.full(k, 1.0 / k), 0.3, 0.125,
                                                   SPHERE_TRUNCATION)

    arrays = [zonal_series(np.array([0.1, -0.4, 0.9]), 0.5, 0.125, 3, SPHERE_TRUNCATION),
              circle_series(np.array([0.0, 1.2]), 0.5, 0.125, SPHERE_TRUNCATION)]
    arrays += [batch(k, rows) for k in (2, 3, 5) for rows in (1, 3)]
    y2, y3 = SpherePoint([0.6, 0.8]), SpherePoint([0.6, 0.0, 0.8])
    scalars = [zonal_kernel(0.1, 0.5, 0.125, 3), heat_kernel_circle(0.7, 0.5, 0.125),
               heat_kernel(SphereKernelQuery(y2, SpherePoint([1.0, 0.0]), 0.5, 0.125)),
               heat_kernel(SphereKernelQuery(y3, SpherePoint([0.0, 1.0, 0.0]), 0.5, 0.125))]
    for res in arrays + scalars:
        assert isinstance(res, KernelValue)
        assert res[2] is res.terms_used
        assert (np.asarray(res.value).tobytes()
                == np.asarray(res.even_part + res.odd_part).tobytes())
    for res in arrays:
        assert isinstance(res.even_part, np.ndarray) and isinstance(res.odd_part, np.ndarray)
    for res in scalars:
        assert [type(f) for f in res] == [float, float, int, float, bool]
        assert type(res.value) is float
        assert float(res) == res.value


def _mp_parts(k, t, D, L_cap, points, angles=False):
    """Oracle: the series' even and odd parts to degree L_cap, in 40-digit
    mpmath by the three-term recurrence: C_L^lam(z) for k >= 3 and T_L(z)
    for k = 2, at the dots z, or at z = cos a of the angles a."""
    with mpmath.workdps(40):
        t, D = mpmath.mpf(t), mpmath.mpf(D)
        lam = mpmath.mpf(k) / 2 - 1
        if k == 2:
            w = [2 * mpmath.exp(-D * L * L * t) for L in range(L_cap + 1)]
        else:
            w = [(L + lam) / lam * mpmath.exp(-D * L * (L + 2 * lam) * t) for L in range(L_cap + 1)]
        out = []
        for p in points:
            z = mpmath.cos(p) if angles else mpmath.mpf(p)
            parts = [mpmath.mpf(1), mpmath.mpf(0)]
            prev, cur = mpmath.mpf(1), z if k == 2 else 2 * lam * z
            for L in range(1, L_cap + 1):
                if L > 1 and k == 2:
                    prev, cur = cur, 2 * z * cur - prev
                elif L > 1:
                    prev, cur = cur, (2 * z * (L + lam - 1) * cur - (L + 2 * lam - 2) * prev) / L
                parts[L % 2] += w[L] * cur
            out.append([float(part) for part in parts])
        return np.array(out)


#: per t, the bound on either part's error over max(1, |part|) at k <= 8 and
#: at k = 9, 10.  Measured on these points (2-core VM, numpy 2.4), the
#: Jacobi steps' worst errors are 4.6e-10, 1.7e-11, 5.1e-14, 4.6e-16 at k <= 8
#: and 2.6e-9, 3.1e-10, 6.7e-14 at k = 9, 10; the parity loop that summed each
#: degree by the Gegenbauer recurrence gave 5.4e-11, 1.8e-11, 5.1e-14,
#: 5.1e-16 and 2.2e-8, 1.4e-10, 1.5e-13.  Both sit at the floor that the
#: parts' cancellation sets: at t = 0.002 terms near 1e6 sum to 1e-18.
_BOUNDS = {0.002: (5e-10, 3e-9), 0.01: (2e-11, 4e-10), 0.05: (6e-14, 1e-13), 0.5: (1e-15, 1e-15)}


@pytest.mark.parametrize("k", range(2, 11))
def test_series_parts_match_a_40_digit_sum(k):
    # both parts, by the Jacobi steps in u = 2z^2 - 1 and the odd part times
    # z, against an independent recurrence at the same cutoff; the parts
    # reach 1e10 and cancel to 1e-20 at t = 0.002.  k = 2 runs at the dots
    # and at their angles
    rng = np.random.default_rng(50)
    dots = np.concatenate([[1.0, -1.0, 0.0, 0.999999, -0.9999], rng.uniform(-1.0, 1.0, 6)])
    for t, bounds in _BOUNDS.items():
        runs = [(zonal_series(dots, t, 0.125, k, SPHERE_TRUNCATION), dots, False)]
        if k == 2:
            angles = np.arccos(dots)
            runs.append((circle_series(angles, t, 0.125, SPHERE_TRUNCATION), angles, True))
        for series, points, angles in runs:
            assert series.converged
            ref = _mp_parts(k, t, 0.125, series.terms_used - 1, points.tolist(), angles)
            got = np.stack([series.even_part, series.odd_part], axis=1)
            err = (np.abs(got - ref) / np.maximum(1.0, np.abs(ref))).max()
            assert err <= bounds[k > 8], (t, angles, err)


def _full_and_even(k, dots, t, trunc):
    """The full series at dots and the even mode's partial(even=True)."""
    if k == 2:
        series = partial(circle_series, np.arccos(dots), t, 0.125, trunc)
    else:
        series = partial(zonal_series, dots, t, 0.125, k, trunc)
    return series(), partial(series, even=True)


@pytest.mark.parametrize("k", range(2, 9))
def test_even_mode_is_the_mean_of_the_even_parts(k, monkeypatch):
    # even=True: (rho(d) + rho(-d))/2 averaged over the first axis, which is
    # the exact mean of the full series' even parts, bit for bit; the float
    # and array paths give the same bits in both modes
    rng = np.random.default_rng(40 + k)
    for rows, cols in ((1, 1), (1, 7), (4, 1), (8, 5), (16, 3), (64, 1)):
        dots = rng.uniform(-1.0, 1.0, (rows, cols))
        dots[0, 0] = 1.0
        for t, max_terms in ((T_MIN, 400), (0.05, 400), (0.5, 3), (5.0, 400)):
            trunc = Truncation(max_terms=max_terms, tol=1e-12)
            full = _full_and_even(k, dots, t, trunc)[0]
            ref = np.array([math.fsum(col) / rows for col in full.even_part.T.tolist()])
            for limit in (0, 10_000):
                monkeypatch.setattr(sphere_heat, "_FLOAT_MAX_POINTS", limit)
                again, even = _full_and_even(k, dots, t, trunc)
                got = even()
                assert again.even_part.tobytes() == full.even_part.tobytes()
                assert again.odd_part.tobytes() == full.odd_part.tobytes()
                assert got.value.tobytes() == ref.tobytes(), (t, rows, cols, limit)
                assert got.value.shape == (cols,) and not got.odd_part.any()
                assert got[2:] == full[2:]  # terms, tail bound, converged
            monkeypatch.undo()
            # one row: the even mode is the full series' even part itself
            one_row = _full_and_even(k, dots[:1], t, trunc)[1]()
            assert one_row.value.tobytes() == full.even_part[0].tobytes()


def test_heat_kernel_takes_the_dot_straight_to_the_circle_series():
    # at k = 2 the dot is z = cos a, with no arccos round trip: heat_kernel is
    # zonal_kernel at the dot, as at every k
    edge = 1.0 - 1e-12
    for dot in (1.0, -1.0, 0.0, edge, -edge, 0.3, -0.77):
        y = SpherePoint([dot, math.sqrt(1.0 - dot * dot)])
        dot = y.dot(SpherePoint([1.0, 0.0]))
        for t in (T_MIN, 0.05, 0.5, 5.0):
            got = heat_kernel(SphereKernelQuery(y, SpherePoint([1.0, 0.0]), t, 0.125))
            assert tuple(got) == tuple(zonal_kernel(dot, t, 0.125, 2))
            ref = heat_kernel_circle(math.acos(dot), t, 0.125)
            assert got[2:] == ref[2:]
            assert abs(got.value - ref.value) <= 1e-13 * max(1.0, abs(ref.value)), (dot, t)


@pytest.mark.parametrize("D", [0.0, -0.1, math.nan])
def test_kernels_refuse_a_non_positive_diffusion_constant(D):
    with pytest.raises(ValueError, match="D = "):
        zonal_kernel(0.3, 0.5, D, 3)
    with pytest.raises(ValueError, match="D = "):
        zonal_series(np.array([0.3, -0.2]), 0.5, D, 4, SPHERE_TRUNCATION)
    with pytest.raises(ValueError, match="D = "):
        heat_kernel_circle(0.3, 0.5, D)
    y = SpherePoint([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="SphereKernelQuery: D = "):
        SphereKernelQuery(y, y, 0.5, D)
    # the cutoff used to scan all 200,000 degrees at D = 0 or NaN and overflow at D < 0
    with pytest.raises(ValueError, match="truncation_cutoff: D = "):
        truncation_cutoff(0.5, D, 3, 1e-8)


@pytest.mark.parametrize("dot", [1.5, -1.5, 1.0 + 1e-8, math.nan, math.inf])
def test_zonal_kernel_refuses_a_dot_product_off_the_sphere(dot):
    # 1.5 used to give the value at 1, and NaN a NaN with converged=True
    with pytest.raises(ValueError, match="zonal_kernel: dot = "):
        zonal_kernel(dot, 0.5, 0.125, 3)


def test_zonal_kernel_clamps_a_dot_product_rounded_past_one():
    for edge in (1.0, -1.0):
        ref = zonal_kernel(edge, 0.5, 0.125, 3)
        assert zonal_kernel(edge * (1.0 + 1e-12), 0.5, 0.125, 3) == ref


@pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
def test_circle_kernel_refuses_a_non_finite_angle(angle):
    # inf used to give NaN with converged=True
    with pytest.raises(ValueError, match="heat_kernel_circle: angle_diff = "):
        heat_kernel_circle(angle, 0.5, 0.125)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_cutoff_scan_stops_past_max_terms(monkeypatch, k):
    # at D t = 5e-7 the cutoff lies far beyond max_terms; the scan stops
    # once L passes max_terms instead of scanning on toward its hard cap
    seen = []
    for name in ("_term_bound", "_tail_bound_after"):
        bound = getattr(sphere_heat, name)
        monkeypatch.setattr(sphere_heat, name,
                            lambda L, *a, bound=bound: seen.append(L) or bound(L, *a))
    sphere_heat._cutoff_scan.cache_clear()
    trunc = Truncation(max_terms=400, tol=1e-12)
    series = circle_series if k == 2 else partial(zonal_series, k=k)
    *_, terms, tail, converged = series(np.array([0.0, 0.5]), 0.5, 1e-6, trunc=trunc)
    assert (terms, converged) == (trunc.max_terms + 1, False)
    assert tail > trunc.tol
    assert max(seen) <= trunc.max_terms + 2
    assert len(seen) <= 3 * (trunc.max_terms + 2)


def test_tiny_diffusion_is_reported_as_not_converged():
    # the term ratio rounds to 1, so the tail bound is inf, not a division by zero
    for even, odd, *rest in (circle_series(0.5, 0.5, 1e-20, SPHERE_TRUNCATION),
                             zonal_series(0.5, 0.5, 1e-20, 3, SPHERE_TRUNCATION)):
        assert rest == [SPHERE_TRUNCATION.max_terms + 1, math.inf, False]


def _cutoff_scan_quadratic(t, D, k, tol, cap):
    # the cutoff scan as it was: a fresh O(L) tail bound at every L
    term_bound, tail_after = sphere_heat._term_bound, sphere_heat._tail_bound_after
    stop = min(cap + 1, sphere_heat._HARD_CAP)
    if k == 2:
        for L in range(1, stop):
            tail = tail_after(L, t, D, k)
            if tail < tol:
                return L, tail, True
        return stop, math.inf, False
    r = 1.0
    b_cur = term_bound(0, r, t, D, k)
    for L in range(stop):
        r_next = r * (k - 3.0 + L + 1.0) / (L + 1.0)
        b_next = term_bound(L + 1, r_next, t, D, k)
        if b_cur > 0.0 and b_next / b_cur < 1.0:
            tail = tail_after(L, t, D, k)
            if tail < tol:
                return L, tail, True
        elif b_next == 0.0:
            return L, 0.0, True
        r, b_cur = r_next, b_next
    return stop, math.inf, False


def test_cutoff_scan_keeps_the_quadratic_scan_bytes():
    grid = itertools.product((2, 3, 4, 7, 10), (T_MIN, 0.01, 0.1, 0.5, 8.0), (0.05, 0.125, 3.0),
                             (1e-12, 1e-6, 1.0), (0, 1, 17, 400, 1300))
    # tol = 1e-300 reaches the term bounds that underflow to a zero tail
    zero_tail = itertools.product((2, 3, 10), (0.5, 8.0), (3.0,), (1e-300,), (400,))
    outcomes = set()
    for k, t, D, tol, cap in itertools.chain(grid, zero_tail):
        got = sphere_heat._cutoff_scan.__wrapped__(t, D, k, tol, cap)
        assert repr(got) == repr(_cutoff_scan_quadratic(t, D, k, tol, cap)), (k, t, D, tol, cap)
        outcomes.add((got[2], got[1] == 0.0))
    assert outcomes == {(True, False), (True, True), (False, False)}


def test_cutoff_scan_returns_the_smallest_cutoff():
    # the first L (from L = 1 at k = 2) whose tail bound is below tol, also
    # for tol > 1, where a term-ratio pre-check once passed over it
    tail_after = sphere_heat._tail_bound_after
    for k, (t, D), tol in itertools.product(
            (2, 3, 6), ((0.01, 0.125), (0.5, 0.125), (1.0, 0.5), (8.0, 0.125), (0.1, 3.0)),
            (1e-12, 1.0, 2.0, 10.0)):
        first = next(L for L in itertools.count(1 if k == 2 else 0)
                     if tail_after(L, t, D, k) < tol)
        got = sphere_heat._cutoff_scan.__wrapped__(t, D, k, tol, 5000)
        assert repr(got) == repr((first, tail_after(first, t, D, k), True)), (k, t, D, tol)
    # the degree-0 tail bound is 1.425 here
    assert truncation_cutoff(1.0, 0.5, 3, 2.0) == (0, True)


@pytest.mark.parametrize("k", [3, 6])
def test_cutoff_scan_is_linear_in_its_cutoff(monkeypatch, k):
    # steps: one per term bound, and L0 + 1 per _tail_bound_after call (its
    # product loop); at D t = 5e-5 the term ratio falls below 1 near L = 100
    # and the cutoff lies past L = 700, so a fresh tail bound per L would
    # take over 10^5 steps
    steps = [0]

    def counted(name, cost):
        bound = getattr(sphere_heat, name)

        def wrapper(L, *args):
            steps[0] += cost(L)
            return bound(L, *args)

        monkeypatch.setattr(sphere_heat, name, wrapper)

    counted("_term_bound", lambda L: 1)
    counted("_tail_bound_after", lambda L: L + 1)
    L, tail, achieved = sphere_heat._cutoff_scan.__wrapped__(0.5, 1e-4, k, 1e-12)
    assert achieved and tail < 1e-12 and L > 700
    assert steps[0] <= 3 * (L + 2), (L, steps[0])
