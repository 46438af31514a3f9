import itertools
import math
from functools import partial

import mpmath
import numpy as np
import pytest
from scipy.stats import beta as beta_dist

from spherewf import sphere_heat, wf_density
from spherewf.specfun import sphere_surface_area
from spherewf.sphere_heat import heat_kernel_circle
from spherewf.types import SimplexPoint, Truncation
from spherewf.wf_density import (
    GRIFFITHS_T_MIN,
    WF_TRUNCATION,
    GriffithsQuery,
    PushforwardQuery,
    dirichlet_stationary,
    griffiths_density,
    pushforward_density,
    q_n,
    xi_m,
)

X3 = SimplexPoint([0.5, 0.3, 0.2])
X3B = SimplexPoint([0.25, 0.35, 0.40])
X4 = SimplexPoint([0.3, 0.25, 0.25, 0.2])
X4B = SimplexPoint([0.1, 0.2, 0.3, 0.4])


# --- stationary density -------------------------------------------------------

def test_dirichlet_flat_when_eps_is_one():
    for x in ([0.3, 0.7], [0.8, 0.2]):
        assert dirichlet_stationary(SimplexPoint(x), [1.0, 1.0]) == pytest.approx(1.0, rel=1e-14)


def test_dirichlet_arcsine_value():
    val = dirichlet_stationary(SimplexPoint([0.5, 0.5]), [0.5, 0.5])
    assert val == pytest.approx(2.0 / math.pi, rel=1e-14)


def test_dirichlet_half_closed_form():
    for x in (X3, X4):
        k = x.k
        expected = math.gamma(k / 2.0) / math.pi ** (k / 2.0) * float(
            np.prod(x.coords ** -0.5)
        )
        assert dirichlet_stationary(x, 0.5) == pytest.approx(expected, rel=1e-13)


def test_dirichlet_against_scipy_beta():
    # k = 2 with unequal parameters reduces to a Beta density in x_1
    for eps in ((2.0, 5.0), (0.7, 1.3)):
        for x1 in (0.2, 0.5, 0.9):
            ours = dirichlet_stationary(SimplexPoint([x1, 1 - x1]), eps)
            ref = beta_dist(eps[0], eps[1]).pdf(x1)
            assert ours == pytest.approx(ref, rel=1e-12)


def test_dirichlet_boundary_conventions():
    assert dirichlet_stationary(SimplexPoint([0.0, 1.0]), [0.5, 0.5]) == math.inf
    assert dirichlet_stationary(SimplexPoint([0.0, 1.0]), [2.0, 2.0]) == 0.0
    assert dirichlet_stationary(SimplexPoint([0.0, 1.0]), [1.0, 1.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        dirichlet_stationary(X3, [0.5, -0.5, 1.0])
    for bad in (math.inf, math.nan, [0.5, math.inf, 0.5], [0.5, math.nan, 0.5]):
        with pytest.raises(ValueError, match="finite"):
            dirichlet_stationary(X3, bad)


# --- xi ------------------------------------------------------------------------

def _compositions(m, k):
    """Weak compositions of m into k parts by stars and bars (small m and k only)."""
    rows = []
    for bars in itertools.combinations(range(m + k - 1), k - 1):
        edges = (-1, *bars, m + k - 1)
        rows.append([b - a - 1 for a, b in zip(edges, edges[1:])])
    return np.array(rows)


def _xi_by_enumeration(m, x, xp, eps):
    """Independent oracle: the defining sum of xi_m over all compositions of m."""
    z = x.coords * xp.coords
    k = x.k
    terms = []
    for row in _compositions(m, k):
        term = math.factorial(m)
        for zj, lj in zip(z, row):
            term *= zj ** lj / (math.factorial(lj) * math.gamma(lj + eps))
        terms.append(term)
    poch = math.prod(k * eps + i for i in range(m))
    return poch * math.gamma(eps) ** k * math.fsum(terms)


def _xi_by_series_product(m, x, xp, eps):
    """Independent oracle: m! mu_(m) [h^m] prod_j f(h z_j), f(z) = sum z^l/(l! G(l+eps))."""
    z = x.coords * xp.coords
    k = x.k
    coeffs = np.zeros(m + 1)
    coeffs[0] = 1.0
    for j in range(k):
        f = np.array([z[j] ** l / (math.factorial(l) * math.gamma(l + eps)) for l in range(m + 1)])
        coeffs = np.convolve(coeffs, f)[: m + 1]
    mu = k * eps
    poch = 1.0
    for i in range(m):
        poch *= mu + i
    return poch * math.gamma(eps) ** k * math.factorial(m) * coeffs[m]


def _mp_series_product(us, eps, n):
    """Oracle: [h^m] prod_j sum_l (h u_j)^l / (l! eps_(l)), m = 0..n, in mp
    arithmetic at the working precision (each u_j taken as it is given)."""
    e = mpmath.mpf(eps)
    acc = None
    for u in us:
        c = [mpmath.mpf(1)]
        for lag in range(1, n + 1):
            c.append(c[-1] * u / (lag * (e + lag - 1)))
        acc = c if acc is None else [mpmath.fdot(acc[:m + 1], c[m::-1]) for m in range(n + 1)]
    return acc


def _mp_xi_table(xx, eps, n, dps=40):
    """Oracle: xi_m = mu_(m) m! `_mp_series_product` at u = xx (floats,
    exactly), m = 0..n, as dps-digit mp numbers."""
    with mpmath.workdps(dps):
        mu = len(xx) * mpmath.mpf(eps)
        rising, out = mpmath.mpf(1), []
        for m, a in enumerate(_mp_series_product([mpmath.mpf(float(u)) for u in xx], eps, n)):
            rising *= m * (mu + m - 1) if m else 1
            out.append(rising * a)
        return out


def test_xi_low_order_closed_forms():
    for x, xp in ((X3, X3B), (X4, X4B)):
        k = x.k
        for eps in (0.5, 1.7):
            mu = k * eps
            assert xi_m(0, x, xp, eps) == pytest.approx(1.0, rel=1e-13)
            s = float((x.coords * xp.coords).sum())
            assert xi_m(1, x, xp, eps) == pytest.approx(mu * s / eps, rel=1e-12)
            z = x.coords * xp.coords
            xi2 = mu * (mu + 1) * (
                float((z ** 2).sum()) / (eps * (eps + 1))
                + 2.0 * sum(z[i] * z[j] for i in range(k) for j in range(i + 1, k)) / eps ** 2
            )
            assert xi_m(2, x, xp, eps) == pytest.approx(xi2, rel=1e-12)


def test_xi_matches_series_product_oracle():
    for m in range(13):
        got = xi_m(m, X3, X3B, 0.5)
        assert got == pytest.approx(_xi_by_series_product(m, X3, X3B, 0.5), rel=1e-11)
        assert got == pytest.approx(_xi_by_enumeration(m, X3, X3B, 0.5), rel=1e-11)
    # k = 2..6 with one coordinate of each point at 1e-3
    for k in range(2, 7):
        rest = np.linspace(1.0, 2.0, k - 1)
        x = SimplexPoint(np.append(1e-3, (1.0 - 1e-3) * rest / rest.sum()))
        xp = SimplexPoint(np.append((1.0 - 1e-3) * rest[::-1] / rest.sum(), 1e-3))
        for eps in (0.5, 1.7):
            for m in range(11):
                ref = _xi_by_enumeration(m, x, xp, eps)
                assert xi_m(m, x, xp, eps) == pytest.approx(ref, rel=1e-11), (k, eps, m)


def test_xi_oracle_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    weights = st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6)

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(k=st.integers(2, 6), m=st.integers(0, 10), eps=st.floats(0.1, 3.0),
                      w=weights, wp=weights)
    def check(k, m, eps, w, wp):
        def point(raw):
            raw = np.asarray(raw[:k]) + 1e-12
            return SimplexPoint(1e-3 + (1.0 - k * 1e-3) * raw / raw.sum())

        x, xp = point(w), point(wp)
        got = xi_m(m, x, xp, eps)
        assert got == pytest.approx(_xi_by_enumeration(m, x, xp, eps), rel=1e-11)
        assert got == pytest.approx(_xi_by_series_product(m, x, xp, eps), rel=1e-11)

    check()


#: epsilons far below and far above the 0.05-4 of the other tests
EXTREME_EPS = (1e-15, 1e-9, 50.0, 1e6, 1e9, 1e15)


@pytest.mark.parametrize("eps", EXTREME_EPS)
def test_xi_holds_at_extreme_epsilon(eps):
    # xi_1 = k sum_j x_j x'_j: the log-domain table's lgamma(l + eps) -
    # lgamma(eps) cancelled to 0.3 of it at eps = 1e15, and eps + i - 1 in
    # place of (i - 1) + eps rounds eps away, to 0.9 of it at 1e-15.  The
    # m = 400 table is finite, as a 40-digit product's xi_m are (the largest
    # is e^615, at k = 20 and eps = 1e-15); its first n_ref + 1 entries are
    # within 2e-14 of that product's (9.5e-15 measured to m = 400), or within
    # 1e-150 of the table's largest entry where an entry left the float
    # range of the scaled convolutions: xi_0 .. xi_7 at k = 20 and
    # eps = 1e-15, e^-421 of the largest, which no mixture term moves by
    rng = np.random.default_rng(28)
    for k, n_ref in ((2, 400), (3, 120), (8, 60), (20, 60)):
        x, xp = _seeded_pair(rng, k, 1e-3)
        xx = x.coords * xp.coords
        assert xi_m(1, x, xp, eps) == pytest.approx(k * xx.sum(), rel=1e-14), k
        table = wf_density._xi_table(xx, eps, 400)
        assert np.isfinite(table).all() and xi_m(400, x, xp, eps) == table[400], k
        ref = np.array([float(v) for v in _mp_xi_table(xx, eps, n_ref)])
        err = np.abs(table[:n_ref + 1] - ref)
        assert (err <= 2e-14 * ref + 1e-150 * table.max()).all(), (k, err / ref)


def test_half_sign_xi_matches_the_series_product():
    # at eps = 1/2, xi_m = (k/2)_m/(1/2)_m mean_s d_s^2m over the half-sign dots;
    # the series product's table is its oracle, to m = 200, at pairs whose
    # smallest coordinate is 1e-3, for k to 11, past the half-sign k limit
    rng = np.random.default_rng(25)
    n = 200
    for k in range(2, 12):
        for _ in range(2):
            x, xp = (np.concatenate([[1e-3], (1.0 - 1e-3) * rng.dirichlet(np.ones(k - 1))])
                     for _ in range(2))
            xx = x * xp
            got = wf_density._half_sign_scale(k, n) * wf_density._half_sign_sums(xx, n)
            ref = wf_density._xi_table(xx, 0.5, n)
            assert got == pytest.approx(ref, rel=1e-13, abs=0.0), k


def test_half_sign_table_stops_at_its_k_limit(monkeypatch):
    # above the limit an eps = 1/2 query takes the series product, whose
    # memory grows as k (M+1)^2 and not as 2^(k-1) (M+1)
    calls = []

    def counted(xx, eps, n):
        calls.append(xx.size)
        return xi_table(xx, eps, n)

    xi_table = wf_density._xi_table
    monkeypatch.setattr(wf_density, "_xi_table", counted)
    top = wf_density._HALF_SIGN_MAX_K
    for k in (2, top, top + 1):
        x, xp = _seeded_pair(np.random.default_rng(k), k)
        assert griffiths_density(GriffithsQuery(x, xp, 5.0, 0.5)).converged
    assert calls == [top + 1]


# --- expansion coefficients -----------------------------------------------------

@pytest.mark.parametrize("entry", [xi_m, q_n])
def test_degrees_past_the_table_range_are_refused(entry):
    # past m = 500 an entry of the scaled table can leave the float range
    for m in (-1, 401):
        with pytest.raises(ValueError, match=r"degree .* is outside \[0, 400\]"):
            entry(m, X3, X3B, 0.5)
    assert math.isfinite(entry(400, X3, X3B, 0.5))
    # a degree that is not whole used to fail inside numpy with a TypeError
    for m in (2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"{entry.__name__}: degree must be a whole number"):
            entry(m, X3, X3B, 0.5)
    assert entry(3.0, X3, X3B, 0.5) == entry(3, X3, X3B, 0.5)


def test_q0_is_one():
    assert q_n(0, X3, X3B, 0.5) == 1.0


def test_q1_q2_closed_forms():
    for x, xp in ((X3, X3B), (X4, X4B)):
        k = x.k
        for eps in (0.5, 1.2):
            mu = k * eps
            xi1 = xi_m(1, x, xp, eps)
            xi2 = xi_m(2, x, xp, eps)
            q1_ref = (mu + 1.0) * (xi1 - 1.0)
            q2_ref = 0.5 * (mu + 3.0) * ((mu + 2.0) * xi2 - 2.0 * (mu + 1.0) * xi1 + mu)
            assert q_n(1, x, xp, eps) == pytest.approx(q1_ref, rel=1e-10, abs=1e-12)
            assert q_n(2, x, xp, eps) == pytest.approx(q2_ref, rel=1e-9, abs=1e-12)


def test_qn_reproducing_kernel_montecarlo():
    """E_pi[Q_n Q_m] = delta_nm Q_n(x', x') under the stationary Dirichlet law.

    Soft statistical check (4 sigma) with vectorized low-order Q built
    from the test's own composition enumeration, independent of q_n's
    internals.
    """
    rng = np.random.default_rng(31)
    eps = 0.5
    k = 3
    mu = k * eps
    xp = np.array([0.25, 0.35, 0.40])
    n_samp = 400_000
    xs = rng.dirichlet(np.full(k, eps), size=n_samp)
    xs = xs[xs.min(axis=1) > 1e-12]

    def xi_vec(m, pts):
        z = pts * xp[None, :]
        total = np.zeros(pts.shape[0])
        for row in _compositions(m, k):
            coef = math.factorial(m)
            for lj in row:
                coef /= math.factorial(lj) * math.gamma(lj + eps)
            total += coef * np.prod(z ** row[None, :], axis=1)
        poch = 1.0
        for i in range(m):
            poch *= mu + i
        return poch * math.gamma(eps) ** k * total

    def q_vec(n, pts):
        if n == 0:
            return np.ones(pts.shape[0])
        total = np.zeros(pts.shape[0])
        for m in range(n + 1):
            poch = 1.0
            for i in range(n - 1):
                poch *= mu + m + i
            total += (-1.0) ** (n - m) * math.comb(n, m) * poch * xi_vec(m, pts)
        return (mu + 2 * n - 1) / math.factorial(n) * total

    qs = {n: q_vec(n, xs) for n in range(4)}
    for n in range(4):
        for m in range(n + 1, 4):
            prod = qs[n] * qs[m]
            est = prod.mean()
            se = prod.std(ddof=1) / math.sqrt(prod.size)
            assert abs(est) < 4.0 * se, (n, m, est, se)
    # diagonal: E[Q_n^2] = Q_n(x', x')
    xp_point = SimplexPoint(xp)
    for n in range(1, 4):
        prod = qs[n] * qs[n]
        est = prod.mean()
        se = prod.std(ddof=1) / math.sqrt(prod.size)
        ref = q_n(n, xp_point, xp_point, eps)
        assert abs(est - ref) < 4.0 * se, (n, est, ref, se)


# --- expansion density -----------------------------------------------------------

def test_griffiths_long_time_limit_is_stationary():
    for x, xp in ((X3, X3B), (X4, X4B)):
        g = griffiths_density(GriffithsQuery(x, xp, 1e3, 0.5))
        ref = dirichlet_stationary(x, 0.5)
        assert abs(g.value - ref) / ref < 1e-12
        assert g.converged


def test_griffiths_series_symmetric_in_endpoints():
    a = griffiths_density(GriffithsQuery(X3, X3B, 0.3, 0.5))
    b = griffiths_density(GriffithsQuery(X3B, X3, 0.3, 0.5))
    assert a.series_sum == b.series_sum  # depends only on the products x_j x'_j
    assert a.value != b.value  # prefactor lives on the evaluation point


def test_griffiths_validation():
    with pytest.raises(ValueError):
        GriffithsQuery(X3, X3B, GRIFFITHS_T_MIN / 2, 0.5)
    with pytest.raises(ValueError, match="floor"):
        GriffithsQuery(X3, X3B, math.nan, 0.5)
    with pytest.raises(ValueError):
        GriffithsQuery(X3, X3B, 0.5, 0.0)
    with pytest.raises(ValueError, match="finite"):
        GriffithsQuery(X3, X3B, 0.5, math.inf)
    with pytest.raises(ValueError):
        GriffithsQuery(X3, X3B, 0.5, math.nan)
    with pytest.raises(ValueError):
        GriffithsQuery(SimplexPoint([0.0, 0.4, 0.6]), X3B, 0.5, 0.5)


_EXPANSION_ENTRIES = {
    "GriffithsQuery": lambda x, xp, eps: GriffithsQuery(x, xp, 0.5, eps),
    "xi_m": partial(xi_m, 3),
    "q_n": partial(q_n, 3),
    "q_n at n = 0": partial(q_n, 0),
}


@pytest.mark.parametrize("entry", list(_EXPANSION_ENTRIES))
@pytest.mark.parametrize("x, xp, eps, message", [
    (X3, X3B, -0.5, "epsilon must be finite and > 0"),
    (X3, X3B, 0.0, "epsilon must be finite and > 0"),
    (X3, X3B, math.inf, "epsilon must be finite and > 0"),
    (X3, X3B, math.nan, "epsilon must be finite and > 0"),
    (X3, X3B, 1e-20, "epsilon = .* too small"),
    (X3, X4B, 0.5, "x and x_prime differ in dimension k"),
    (SimplexPoint([0.0, 0.4, 0.6]), X3B, 0.5, "x and x_prime must be interior points"),
    (X3, SimplexPoint([0.4, 0.6, 0.0]), 0.5, "x and x_prime must be interior points"),
], ids=["eps-negative", "eps-zero", "eps-inf", "eps-nan", "eps-tiny", "k-mismatch",
        "x-boundary", "x_prime-boundary"])
def test_expansion_parameters_are_refused_alike(entry, x, xp, eps, message):
    # q_n returned -0.2351 at eps = -0.5, q_n and xi_m NaN at eps = inf, a
    # mismatched k failed in numpy broadcasting, and q_n(0, ...) was 1.0 for any pair
    who = entry.split()[0]
    with pytest.raises(ValueError, match=f"{who}: {message}"):
        _EXPANSION_ENTRIES[entry](x, xp, eps)


def test_griffiths_mixture_is_bounded_by_the_xi_degree_limit():
    # max_terms = 2000 at tol = 1e-200 summed 548 terms at t = 0.01, past the
    # degree to which the xi table holds
    limit = wf_density._XI_MAX_M + 1
    GriffithsQuery(X3, X3B, 0.5, 0.5, Truncation(limit, 1e-10))
    for bad in (limit + 1, 2000):
        with pytest.raises(ValueError, match="GriffithsQuery: trunc.max_terms"):
            GriffithsQuery(X3, X3B, 0.5, 0.5, Truncation(bad, 1e-10))
    # a law longer than the default truncation is reported, not summed past it
    res = griffiths_density(GriffithsQuery(X3, X3B, GRIFFITHS_T_MIN, 0.5,
                                           Truncation(WF_TRUNCATION.max_terms, 1e-300)))
    assert not res.converged and res.terms_used == WF_TRUNCATION.max_terms
    assert math.isfinite(res.value)


def test_griffiths_nonconvergence_flagged():
    res = griffiths_density(GriffithsQuery(X3, X3B, 0.05, 0.5,
                                           Truncation(max_terms=4, tol=1e-10)))
    assert not res.converged


@pytest.mark.parametrize("t", [GRIFFITHS_T_MIN, 0.015])
def test_griffiths_default_truncation_builds_the_whole_law(t):
    # the law's inner sums stopped at max_terms = 200 gave -7.6e57 at t =
    # 0.01 and -1.1e14 at t = 0.015; they run to the law's own n_max (about
    # 370 at t = 0.01), and max_terms caps only the mixture, whose M + 1 is
    # 199 at t = 0.015 and 279 at t = 0.01: within the default 400, so the
    # default query at the floor holds the whole mixture
    x, xp = SimplexPoint([0.2, 0.3, 0.5]), SimplexPoint([0.4, 0.4, 0.2])
    res = griffiths_density(GriffithsQuery(x, xp, t, 0.5))
    full = griffiths_density(GriffithsQuery(x, xp, t, 0.5, Truncation(400, 1e-10)))
    push = pushforward_density(PushforwardQuery(x, xp, t)).value
    assert full.converged and full.value == pytest.approx(push, rel=1e-5)
    assert res.converged and res == full


def test_griffiths_takes_any_valid_tolerance():
    # the law's cut is tol^2, which overflowed a float for tol > 1e154
    for tol in (1e-300, 1e-10, 0.5, 10.0, 1e200, 1.7e308):
        res = griffiths_density(GriffithsQuery(X3, X3B, 0.05, 0.5, Truncation(400, tol)))
        assert math.isfinite(res.value), tol
        assert res.converged


def test_griffiths_resummed_mode_kicks_in_at_small_t():
    res = griffiths_density(GriffithsQuery(X3, X3B, 0.05, 0.5))
    assert res.mode == "resummed"
    late = griffiths_density(GriffithsQuery(X3, X3B, 2.0, 0.5))
    assert late.mode == "direct"
    # the mode labels the (t, k, eps) regime: every pair of a cell shares it
    edge = SimplexPoint([1e-3, 0.499, 0.5])
    for t, mode in ((0.05, "resummed"), (2.0, "direct")):
        assert {griffiths_density(GriffithsQuery(a, b, t, 0.5)).mode
                for a, b in ((X3, X3B), (edge, X3B), (edge, edge))} == {mode}


def _mp_direct_series(x, xp, eps, times, n_terms, dps=50):
    """Oracle: sum_{n<=n_terms} e_n(t) Q_n for each t, all in mp arithmetic.

    xi_m = mu_(m) m! [h^m] prod_j sum_l (h x_j x'_j)^l / (l! eps_(l)) by the
    series product, and Q_n by its alternating m-sum, written as
    (mu+2n-1) sum_m (-1)^(n-m) mu_(m+n-1) / (mu_(m) m! (n-m)!) xi_m.
    """
    with mpmath.workdps(dps):
        mu = len(x) * mpmath.mpf(eps)
        acc = _mp_series_product([mpmath.mpf(float(a)) * mpmath.mpf(float(b))
                                  for a, b in zip(x, xp)], eps, n_terms)
        rising, inv_fact = [mpmath.mpf(1)], [mpmath.mpf(1)]  # mu_(j), 1/j!
        for j in range(1, 2 * n_terms):
            rising.append(rising[-1] * (mu + j - 1))
            inv_fact.append(inv_fact[-1] / j)
        # xi_m (-1)^m / (mu_(m) m!) = (-1)^m acc_m
        signed = [-a if m % 2 else a for m, a in enumerate(acc)]
        q = [mpmath.mpf(1)]
        for n in range(1, n_terms + 1):
            row = [r * f for r, f in zip(rising[n - 1:2 * n], inv_fact[n::-1])]
            q.append((-1) ** n * (mu + 2 * n - 1) * mpmath.fdot(row, signed[:n + 1]))
        return [mpmath.fsum(mpmath.exp(-(n * (n - 1) + mu * n) * mpmath.mpf(t) / 2) * q[n]
                            for n in range(n_terms + 1)) for t in times]


def test_griffiths_density_matches_a_50_digit_direct_sum():
    # the mixture against the expansion it resums, at pairs whose smallest
    # coordinate is 1e-3: |v - ref| <= 2e-14 max(1, |ref|) at every eps
    rng = np.random.default_rng(26)
    times = (0.02, 0.1, 1.0)
    for k in (2, 3, 5, 8):
        x, xp = (SimplexPoint(np.concatenate([[1e-3], (1.0 - 1e-3) * rng.dirichlet(np.ones(k - 1))]))
                 for _ in range(2))
        for eps in (1.0 / 3.0, 0.5, 1.7):
            with mpmath.workdps(50):
                prefactor = (mpmath.gamma(k * mpmath.mpf(eps)) / mpmath.gamma(eps) ** k
                             * mpmath.fprod(mpmath.mpf(float(c)) ** (eps - 1) for c in x.coords))
                refs = [prefactor * s for s in _mp_direct_series(x.coords, xp.coords, eps, times, 170)]
            for t, ref in zip(times, refs):
                v = griffiths_density(GriffithsQuery(x, xp, t, eps))
                assert v.converged
                assert abs(v.value - ref) <= 2e-14 * max(1, abs(ref)), (k, eps, t, v.value, ref)


# --- pushforward density ----------------------------------------------------------

def _mp_sign_sums(x, xp, L_max, dps=40):
    """Oracle: S_L = 2^{-k} sum_s b_L(s.y), L = 0..L_max, over all 2^k sign
    vectors s, with y = sqrt(x x') and b_L = C_L^{k/2-1} (k >= 3) or the
    Chebyshev T_L (k = 2), each by its three-term recurrence in mp arithmetic."""
    k = len(x)
    p = mpmath.mpf(k) / 2 - 1
    with mpmath.workdps(dps):
        y = [mpmath.sqrt(mpmath.mpf(float(a)) * mpmath.mpf(float(b))) for a, b in zip(x, xp)]
        sums = [mpmath.mpf(0)] * (L_max + 1)
        for s in itertools.product((1, -1), repeat=k):
            z = mpmath.fsum(si * yi for si, yi in zip(s, y))
            prev, cur = mpmath.mpf(1), (z if k == 2 else 2 * p * z)
            sums[0] += prev
            for L in range(1, L_max + 1):
                sums[L] += cur
                if k == 2:
                    prev, cur = cur, 2 * z * cur - prev
                else:
                    prev, cur = cur, (2 * z * (L + p) * cur - (L + 2 * p - 1) * prev) / (L + 1)
        return [v / 2 ** k for v in sums]


def test_pushforward_matches_a_40_digit_sign_sum():
    # the half-sign, even-degree evaluator against the full 2^k sign sum of
    # every degree 0..L_cap, at pairs whose smallest coordinate is 1e-3: the
    # series within 2e-14 max(1, |ref|), the prefactor within 2e-14 relative
    # (the prefactor, up to 4e4 here, scales the series' absolute rounding)
    rng = np.random.default_rng(27)
    times = (0.02, 0.05, 0.5, 5.0)
    trunc = Truncation(max_terms=400, tol=1e-15)
    D = 0.125
    for k in range(2, 9):
        x, xp = (SimplexPoint(np.concatenate([[1e-3], (1 - 1e-3) * rng.dirichlet(np.ones(k - 1))]))
                 for _ in range(2))
        values = [pushforward_density(PushforwardQuery(x, xp, t, D, trunc)) for t in times]
        sums = _mp_sign_sums(x.coords, xp.coords, max(v.terms_used for v in values) - 1)
        with mpmath.workdps(40):
            prefactor = (mpmath.gamma(mpmath.mpf(k) / 2) / mpmath.pi ** (mpmath.mpf(k) / 2)
                         / mpmath.sqrt(mpmath.fprod(mpmath.mpf(float(c)) for c in x.coords)))
            for t, v in zip(times, values):
                assert v.converged
                weights = [mpmath.exp(-D * L * (L + k - 2) * mpmath.mpf(t))
                           * ((2 if L else 1) if k == 2 else mpmath.mpf(2 * L + k - 2) / (k - 2))
                           for L in range(v.terms_used)]
                ref = mpmath.fdot(weights, sums[:v.terms_used])
                assert abs(v.series_sum - ref) <= 2e-14 * max(1, abs(ref)), (k, t, v, ref)
            got = values[0].prefactor  # the same at every t
            assert abs(got - prefactor) <= 2e-14 * prefactor, (k, got, prefactor)


class _SignMatrixCalled(RuntimeError):
    pass


def test_pushforward_refuses_more_sign_vectors_than_its_limit(monkeypatch):
    # both the query and a direct batch call check k before the 2^k sign
    # matrix is asked for, so no call here builds one
    def refuse(k):
        raise _SignMatrixCalled(k)

    monkeypatch.setattr(wf_density, "_sign_matrix", refuse)
    limit = wf_density._MAX_SIGN_K
    for k in (limit + 1, 24):
        x = np.full(k, 1.0 / k)
        with pytest.raises(ValueError, match=f"pushforward_series_batch: k > {limit} "):
            wf_density.pushforward_series_batch(x[None, :], x, 0.5, 0.125, WF_TRUNCATION)
        with pytest.raises(ValueError, match=f"PushforwardQuery: k > {limit} "):
            PushforwardQuery(SimplexPoint(x), SimplexPoint(x), 0.5)
    x = np.full(limit, 1.0 / limit)
    with pytest.raises(_SignMatrixCalled):  # the limit itself is allowed
        wf_density.pushforward_series_batch(x[None, :], x, 0.5, 0.125, WF_TRUNCATION)


def test_pushforward_long_time_limit():
    for x, xp in ((X3, X3B), (X4, X4B)):
        r = pushforward_density(PushforwardQuery(x, xp, 1e3))
        ref = dirichlet_stationary(x, 0.5)
        assert abs(r.value - ref) / ref < 1e-12


def test_pushforward_rejects_boundary_and_bad_t():
    with pytest.raises(ValueError):
        PushforwardQuery(SimplexPoint([0.0, 0.5, 0.5]), X3B, 0.5)
    with pytest.raises(ValueError):
        PushforwardQuery(X3, X3B, 1e-5)
    with pytest.raises(ValueError, match="floor"):  # NaN compares False with the floor
        PushforwardQuery(X3, X3B, math.nan)


def test_equivalence_spot_checks_k3():
    for t in (0.1, 0.5, 1.0):
        g = griffiths_density(GriffithsQuery(X3, X3B, t, 0.5))
        p = pushforward_density(PushforwardQuery(X3, X3B, t))
        assert abs(g.value - p.value) / max(1.0, abs(g.value)) < 1e-6


def test_equivalence_at_k6_and_k8():
    # beyond the reach of a composition enumeration at small t
    for k in (6, 8):
        w = np.arange(1.0, k + 1.0)
        x = SimplexPoint(w / w.sum())
        xp = SimplexPoint(w[::-1] / w.sum())
        for t in (0.05, 0.5):
            g = griffiths_density(GriffithsQuery(x, xp, t, 0.5))
            p = pushforward_density(PushforwardQuery(x, xp, t))
            assert g.converged and p.converged
            assert abs(g.value - p.value) / max(1.0, abs(g.value)) < 1e-6, (k, t)


def test_equivalence_property():
    """eps = 1/2 expansion == D = 1/8 pushforward at random (x, x', t), k 2..8.

    Where the true density is nearly zero (a 1e-3 coordinate, small t),
    either side's float series can come out slightly negative (about
    -1e-11), so the floor is the series tolerance in density units, not
    strict positivity.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    weights = st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8)

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(k=st.integers(2, 8), min_coord=st.sampled_from((1e-3, 5e-3, 0.02)),
                      log_t=st.floats(math.log(0.02), math.log(5.0)), w=weights, wp=weights)
    def check(k, min_coord, log_t, w, wp):
        def point(raw):
            # the first coordinate sits at min_coord, the others above it
            raw = np.asarray(raw[:k]) + 1e-12
            raw[0] = 0.0
            return SimplexPoint(min_coord + (1.0 - k * min_coord) * raw / raw.sum())

        x, xp = point(w), point(wp)
        t = math.exp(log_t)
        g = griffiths_density(GriffithsQuery(x, xp, t, 0.5))
        p = pushforward_density(PushforwardQuery(x, xp, t))
        assert g.converged and p.converged
        assert abs(g.value - p.value) / max(1.0, abs(g.value)) < 1e-6
        for v in (g, p):
            assert v.value >= -WF_TRUNCATION.tol * v.prefactor

    check()


def test_reversibility_property():
    """pi(x') p(t, x | x') = pi(x) p(t, x' | x) with pi the Dirichlet(eps) law.

    The Griffiths density at eps in {0.3, 0.5, 0.6, 1.7}, and the
    pushforward density with pi Dirichlet(1/2), at random (x, x', t).
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    weights = st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8)

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(k=st.integers(2, 8), min_coord=st.sampled_from((1e-3, 5e-3, 0.02)),
                      log_t=st.floats(math.log(0.02), math.log(5.0)),
                      eps=st.sampled_from((0.3, 0.5, 0.6, 1.7)), w=weights, wp=weights)
    def check(k, min_coord, log_t, eps, w, wp):
        def point(raw):
            raw = np.asarray(raw[:k]) + 1e-12
            raw[0] = 0.0
            return SimplexPoint(min_coord + (1.0 - k * min_coord) * raw / raw.sum())

        x, xp = point(w), point(wp)
        t = math.exp(log_t)
        for e, density in ((eps, lambda a, b: griffiths_density(GriffithsQuery(a, b, t, eps))),
                           (0.5, lambda a, b: pushforward_density(PushforwardQuery(a, b, t)))):
            forward = dirichlet_stationary(xp, e) * density(x, xp).value
            backward = dirichlet_stationary(x, e) * density(xp, x).value
            assert abs(forward - backward) <= 1e-12 * max(abs(forward), abs(backward))

    check()


def test_pushforward_k2_circle_route_matches_expansion():
    x = SimplexPoint([0.3, 0.7])
    xp = SimplexPoint([0.6, 0.4])
    for t in (0.1, 0.5, 2.0):
        p = pushforward_density(PushforwardQuery(x, xp, t))
        g = griffiths_density(GriffithsQuery(x, xp, t, 0.5))
        assert abs(p.value - g.value) / max(1.0, abs(g.value)) < 1e-6


def test_pushforward_k2_against_direct_circle_sum():
    # hand-rolled 4-preimage circle formula
    x = SimplexPoint([0.3, 0.7])
    xp = SimplexPoint([0.6, 0.4])
    t = 0.4
    trunc = Truncation(max_terms=400, tol=1e-13)
    y = np.sqrt(x.coords)
    yp = np.sqrt(xp.coords)
    total = 0.0
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            dot = s1 * y[0] * yp[0] + s2 * y[1] * yp[1]
            total += heat_kernel_circle(math.acos(max(-1.0, min(1.0, dot))), t, 0.125, trunc).value
    ref = (1.0 / math.pi) / math.sqrt(x.coords[0] * x.coords[1]) * total / 4.0
    got = pushforward_density(PushforwardQuery(x, xp, t, trunc=trunc)).value
    assert got == pytest.approx(ref, rel=1e-12)


# --- q_n's sum and the series-product path ---------------------------------------

def _q_n_scalar(n, mu, log_xi):
    """Oracle: the scalar Q_n loop (Q_n, largest partial term) it replaced."""
    logs = np.empty(n + 1)
    signs = np.empty(n + 1)
    for m in range(n + 1):
        logs[m] = (
            math.log(math.comb(n, m))
            + math.lgamma(mu + m + n - 1.0)
            - math.lgamma(mu + m)
            + log_xi[m]
            - math.lgamma(n + 1.0)
        )
        signs[m] = -1.0 if (n - m) % 2 else 1.0
    mx = float(logs.max())
    s = math.fsum(signs * np.exp(logs - mx))
    scale = (mu + 2.0 * n - 1.0) * math.exp(mx)
    return scale * s, scale


#: 1/3 makes mu + m + n - 1.0 round differently from mu + (m + n) - 1.0
SAME_BYTES_EPS = (0.05, 1.0 / 3.0, 0.5, 0.6, 1.7, 4.0)


def _seeded_pair(rng, k, min_coord=0.01):
    def point():
        w = rng.dirichlet(np.ones(k))
        return SimplexPoint(min_coord + (1.0 - k * min_coord) * w)

    return point(), point()


def test_q_n_matches_the_scalar_loop_bytes():
    rng = np.random.default_rng(20)
    for k in (2, 3, 5, 8):
        for eps in SAME_BYTES_EPS:
            x, xp = _seeded_pair(rng, k)
            for n in (1, 2, 7, 40, 113):
                log_xi = np.log(wf_density._xi_table(x.coords * xp.coords, eps, n))
                assert q_n(n, x, xp, eps) == _q_n_scalar(n, k * eps, log_xi)[0], (k, eps, n)


def test_series_product_mixture_matches_an_mp_xi_table(monkeypatch):
    # every query takes the series product here, eps = 1/2 too (as above
    # _HALF_SIGN_MAX_K), and builds one xi table; its mixture is the law
    # times a 40-digit product's xi_m, summed in mp, to 4e-15
    monkeypatch.setattr(wf_density, "_HALF_SIGN_MAX_K", 0)
    calls = []
    table = wf_density._xi_table

    def counted(xx, eps, n):
        calls.append((xx.size, eps))
        return table(xx, eps, n)

    monkeypatch.setattr(wf_density, "_xi_table", counted)
    rng = np.random.default_rng(21)
    queries = []
    for k in (2, 3, 5, 8):
        for eps in SAME_BYTES_EPS:
            x, xp = _seeded_pair(rng, k)
            queries += [GriffithsQuery(x, xp, t, eps) for t in (0.05, 0.3, 2.0)]
    values = [griffiths_density(q) for q in queries]
    assert calls == [(q.x.k, q.epsilon) for q in queries]
    assert {v.mode for v in values} == {"direct", "resummed"}
    for q, v in zip(queries, values):
        law = wf_density._law(q.t, q.x.k, q.epsilon, q.trunc)[0]
        xi = _mp_xi_table(q.x.coords * q.x_prime.coords, q.epsilon, len(law) - 1)
        with mpmath.workdps(40):
            ref = mpmath.fdot([mpmath.mpf(float(w)) for w in law], xi)
        assert v.value == v.prefactor * v.series_sum
        assert abs(v.series_sum - ref) <= 4e-15 * ref, (q, v.series_sum, ref)


CACHES = (wf_density._xi_scales, wf_density._law, wf_density._half_sign_law,
          wf_density._log_dirichlet_norm, sphere_heat._cutoff_scan, sphere_heat._table)


def test_density_caches_are_bounded_and_hold_no_state():
    for cache in CACHES:
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize < 10_000, cache
    x, xp = _seeded_pair(np.random.default_rng(22), 4)
    queries = [GriffithsQuery(x, xp, 0.05, 0.5), GriffithsQuery(x, xp, 0.5, 0.6),
               PushforwardQuery(x, xp, 0.05), PushforwardQuery(x, xp, 0.5)]

    def values():
        return [repr(griffiths_density(q) if isinstance(q, GriffithsQuery)
                     else pushforward_density(q)) for q in queries]

    warm = values()
    assert warm == values()
    for cache in CACHES:
        cache.cache_clear()
    assert values() == warm


def test_density_hooks_see_calls_cold_and_warm(monkeypatch):
    # the benchmark's traced density run wraps these module attributes; a
    # kernel that stopped calling through them would zero its layer metrics
    counts = dict.fromkeys(("log_gamma", "zonal_series", "circle_series"), 0)
    for name in counts:
        orig = getattr(wf_density, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(wf_density, name, counted)
    for cache in CACHES:
        cache.cache_clear()
    rng = np.random.default_rng(23)
    for k, series in ((2, "circle_series"), (3, "zonal_series")):
        x, xp = _seeded_pair(rng, k)
        for state in ("cold", "warm"):
            counts.update(dict.fromkeys(counts, 0))
            griffiths_density(GriffithsQuery(x, xp, 0.05, 0.5))
            pushforward_density(PushforwardQuery(x, xp, 0.05))
            assert counts["log_gamma"] > 0 and counts[series] > 0, (k, state, counts)


# --- high-precision weights against an mpf-object loop at 40 more digits ------------

def _row_dps(t, k, eps, n_max):
    return wf_density._weights_dps([wf_density._row_peak(n, t, k * eps) for n in range(n_max + 1)])


def _hp_weights_mpf(t, k, eps, n_max, dps):
    """Oracle: the resummation weights on mpf objects, each term as the formula reads."""
    with mpmath.workdps(dps):
        mu = mpmath.mpf(k) * mpmath.mpf(eps)
        tm = mpmath.mpf(t)
        e = [mpmath.e ** (-(mpmath.mpf(n) * (n - 1) + mu * n) * tm / 2) for n in range(n_max + 1)]
        inv_fact = [1 / mpmath.mpf(math.factorial(n)) for n in range(n_max + 1)]
        out = np.empty(n_max + 1)
        for m in range(n_max + 1):
            total = e[0] if m == 0 else mpmath.mpf(0)
            start = max(m, 1)
            rising = mpmath.rf(mu + m, start - 1)
            for n in range(start, n_max + 1):
                term = (e[n] * (mu + 2 * n - 1) * inv_fact[n] * math.comb(n, m)) * rising
                total += -term if (n - m) % 2 else term
                rising *= mu + m + n - 1
            out[m] = float(total)
    return out


def test_hp_weights_match_the_mpf_loop_at_40_more_digits(monkeypatch):
    # every k meets every eps; t and n_max rotate so each value of both occurs;
    # t = 0.01 takes the law's own n_max (about 370).  Entries below about
    # 1e-40 are rounding noise at the working precision, so they are held in
    # absolute terms; every entry the mixture can feel is held to its bits
    times, sizes = (0.02, 0.05, 0.1, 0.3), (16, 40, 72, 128, 24)
    cases = [(times[(k + i) % 4], k, eps, sizes[(3 * k + i) % 5])
             for k in range(2, 9) for i, eps in enumerate((1.0 / 3.0, 0.5, 1.7))]
    assert {c[0] for c in cases} == set(times) and {c[3] for c in cases} == set(sizes)
    built = []
    hp_weights = wf_density._hp_weights
    monkeypatch.setattr(wf_density, "_hp_weights", lambda *a: built.append(a) or hp_weights(*a))
    for k in (3, 8):  # the law's own n_max and working precision
        wf_density._law.cache_clear()
        wf_density._law(0.01, k, 0.5, WF_TRUNCATION)
        cases.append(built[-1][:4])
        assert built[-1][4] == _row_dps(*cases[-1])
    for t, k, eps, n_max in cases:
        dps = _row_dps(t, k, eps, n_max)
        got = hp_weights(t, k, eps, n_max, dps)
        ref = _hp_weights_mpf(t, k, eps, n_max, dps + 40)
        big = np.abs(ref) >= 1e-30
        assert got[big].tobytes() == ref[big].tobytes(), (t, k, eps, n_max)
        assert np.abs(got - ref).max() <= 1e-45, (t, k, eps, n_max)


def test_a_warm_pass_adds_no_cache_misses():
    # one law per (t, k, eps, trunc), one half-sign law per (t, k, trunc), one
    # pair of xi scales per (k, eps, M) and one prefactor constant per (k, eps):
    # a second pass must find all of them.
    # eps = 1/3 and eps = 1/2 above _HALF_SIGN_MAX_K take the series-product
    # path, so every cache is filled on the first pass
    rng = np.random.default_rng(24)
    queries = []
    for k in (2, 3, 4, 5):
        x, xp = _seeded_pair(rng, k)
        queries += [GriffithsQuery(x, xp, t, eps) for t in (0.05, 0.1, 0.5)
                    for eps in (0.5, 1.0 / 3.0)]
    x, xp = _seeded_pair(rng, wf_density._HALF_SIGN_MAX_K + 1)
    queries.append(GriffithsQuery(x, xp, 0.5, 0.5))
    caches = (wf_density._law, wf_density._half_sign_law, wf_density._xi_scales,
              wf_density._log_dirichlet_norm)
    for cache in caches:
        cache.cache_clear()
    first = [griffiths_density(q) for q in queries]
    assert {v.mode for v in first} == {"direct", "resummed"}
    misses = [cache.cache_info().misses for cache in caches]
    assert min(misses) >= 1, misses
    assert [griffiths_density(q) for q in queries] == first
    assert [cache.cache_info().misses for cache in caches] == misses


# --- Griffiths normalization -----------------------------------------------------------

@pytest.mark.parametrize("eps", [0.5, 1.7])
@pytest.mark.parametrize("t", [0.05, 0.5])
@pytest.mark.parametrize("x0", [0.3, 0.02])
def test_griffiths_density_integrates_to_one_k2(eps, t, x0):
    # x_1 = sin^2(theta) on (0, pi/2): dx_1 = sin(2 theta) dtheta absorbs the
    # x^(eps-1) endpoint factors, and 64 Gauss-Legendre nodes do the rest
    nodes, weights = np.polynomial.legendre.leggauss(64)
    theta = 0.25 * math.pi * (nodes + 1.0)
    xp = SimplexPoint([x0, 1.0 - x0])
    values = [griffiths_density(GriffithsQuery(SimplexPoint([s, 1.0 - s]), xp, t, eps)).value
              for s in np.sin(theta) ** 2]
    integral = 0.25 * math.pi * float(np.dot(weights, np.asarray(values) * np.sin(2.0 * theta)))
    assert abs(integral - 1.0) < 1e-8, integral


#: x' of the k = 3 normalization cases: an interior point and one near a face
_NORM_K3_XP = ((0.2, 0.3, 0.5), (0.02, 0.49, 0.49))
#: Gauss-Legendre nodes per angle and the bound on |integral - 1|, per k
_NORM_RULE = {3: (40, 1e-8), 4: (16, 2e-6)}


def _orthant_point(angles):
    """The point of S^(k-1), k = len(angles) + 1, at hyperspherical angles
    (a_1, ..., a_{k-1}) in (0, pi/2), and the density of the surface measure
    there: y = (sin a_1 * y'(a_2, ...), cos a_1) with y'(a) = (cos a, sin a)."""
    y, weight = np.array([math.cos(angles[-1]), math.sin(angles[-1])]), 1.0
    for a in reversed(angles[:-1]):
        weight *= math.sin(a) ** (len(y) - 1)
        y = np.append(math.sin(a) * y, math.cos(a))
    return y, weight


@pytest.mark.parametrize("xp, t, eps", [
    *(pytest.param(xp, t, eps, id=f"{where}-{t}-{eps}")
      for where, xp in zip(("interior", "near-face"), _NORM_K3_XP)
      for t in (0.1, 0.5) for eps in (0.5, 1.7)),
    pytest.param((0.1, 0.2, 0.3, 0.4), 0.1, 0.5, id="k4-0.1-0.5"),
    pytest.param((0.1, 0.2, 0.3, 0.4), 0.5, 1.7, id="k4-0.5-1.7"),
])
def test_griffiths_density_integrates_to_one_k3(xp, t, eps):
    # x = y^2 maps the uniform law on the positive orthant of S^(k-1) onto
    # Dirichlet(1/2, ..., 1/2), so the integral of p over the simplex is the
    # orthant mean of p / Dirichlet(1/2); in hyperspherical angles the
    # normalized orthant measure is sin(theta) dtheta dphi / (pi/2) at k = 3
    # and sin^2(a) sin(b) da db dc / (pi^2/8) at k = 4, and Gauss-Legendre
    # nodes per angle do the rest (measured |integral - 1| 1.3e-14 to 7.0e-10
    # at k = 3 on 40 nodes, 1.1e-7 and 2.0e-7 at k = 4 on 16)
    k = len(xp)
    n_nodes, bound = _NORM_RULE[k]
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    angle = 0.25 * math.pi * (nodes + 1.0)
    w = 0.25 * math.pi * weights
    query_xp = SimplexPoint(xp)
    # Dirichlet(1/2)^k density: Gamma(k/2) / pi^(k/2) / prod(y)
    dirichlet = math.gamma(0.5 * k) / math.pi ** (0.5 * k)
    integral = 0.0
    for cell in itertools.product(range(n_nodes), repeat=k - 1):
        y, density = _orthant_point(angle[list(cell)])
        p = griffiths_density(GriffithsQuery(SimplexPoint(y * y), query_xp, t, eps)).value
        integral += math.prod(w[list(cell)]) * density * p * float(np.prod(y)) / dirichlet
    integral /= sphere_surface_area(k) / 2 ** k  # the orthant's area
    assert abs(integral - 1.0) <= bound, integral


@pytest.mark.parametrize("k, eps", [(2, 1e-20), (2, 5e-17), (3, 3e-17), (8, 1e-17)])
def test_epsilon_too_small_to_form_mu_is_refused(k, eps):
    # k*eps + 1 rounds to 1: mu + m + n - 1 would round to 0 at m = 0, n = 1
    x = SimplexPoint(np.full(k, 1.0 / k))
    with pytest.raises(ValueError, match="epsilon = .* too small"):
        GriffithsQuery(x, x, 0.5, eps)
    for n in (0, 1, 3):
        with pytest.raises(ValueError, match="epsilon = .* too small"):
            q_n(n, x, x, eps)
    # an epsilon that forms mu, if only just, is still evaluated
    ok = 1.2e-16 / k
    assert k * ok + 1.0 != 1.0
    assert griffiths_density(GriffithsQuery(x, x, 0.5, ok)).value > 0.0
