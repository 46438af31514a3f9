"""Verification harness tying the exact kernels to the simulators.

Every check returns a VerificationReport (serializable to JSON lines and
a CSV summary).  Statistical checks use a fixed significance level with
a documented two-stage rule: one retry on a freshly derived seed, and
the retry is decisive.  Designed-to-fail control checks PASS only when
the monitored comparison actually fails; a "passing" control is a suite
failure.

All statistics are bit-for-bit reproducible from (seed, parameters);
wall_time_s is the only report field that varies between runs.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np
from scipy.special import kolmogorov, roots_jacobi
from scipy.stats import beta as beta_dist

from .simulate import (
    DEFAULT_SEED,
    Model,
    MoranState,
    ensemble_final,
    moran_event_rate,
    path_rng,
    simulate_moran,
)
from .specfun import gegenbauer, gegenbauer_explicit, generating_function_residual, log_gamma
from .sphere_heat import SPHERE_TRUNCATION, truncation_cutoff, zonal_kernel, zonal_series
from .types import SimplexPoint, Truncation
from .wf_density import (
    GriffithsQuery,
    PushforwardQuery,
    dirichlet_stationary,
    griffiths_density,
    pushforward_density,
    pushforward_series_batch,
)

__all__ = [
    "DEFAULT_SEED",
    "VerificationReport",
    "write_reports_jsonl",
    "write_summary_csv",
    "ks_one_sample",
    "ks_two_sample",
    "zonal_cdf",
    "jacobi_01",
    "equivalence_scan",
    "odd_cancellation_check",
    "exponent_match_check",
    "prefactor_identity_check",
    "gegenbauer_check",
    "normalization_check",
    "chapman_kolmogorov",
    "stationary_limit_check",
    "mc_vs_analytic",
    "isotropy_check",
    "conservation_check",
    "moran_limit_check",
    "stationary_law_check",
    "control_checks",
    "run_suite",
    "SUITES",
]

_X3 = (0.5, 0.3, 0.2)
_X3B = (0.25, 0.35, 0.40)


@dataclass(frozen=True)
class VerificationReport:
    """One verified claim: headline statistic vs threshold plus details."""

    name: str
    params: dict
    statistic: float
    threshold: float
    passed: bool
    stats: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


def write_reports_jsonl(reports, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in reports:
            fh.write(json.dumps(r.to_dict(), sort_keys=True) + "\n")


def write_summary_csv(reports, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "passed", "statistic", "threshold", "wall_time_s", "details"])
        for r in reports:
            w.writerow([
                r.name,
                int(r.passed),
                f"{r.statistic:.17g}",
                f"{r.threshold:.17g}",
                f"{r.wall_time_s:.3f}",
                json.dumps(r.stats, sort_keys=True),
            ])


# --- small numeric helpers --------------------------------------------------

def _legendre_table(z: np.ndarray, L_max: int) -> np.ndarray:
    """P_0..P_L_max at z via the Legendre three-term recurrence; (L_max+1, ...)."""
    z = np.asarray(z, dtype=float)
    out = np.empty((L_max + 1,) + z.shape)
    out[0] = 1.0
    if L_max >= 1:
        out[1] = z
    for L in range(2, L_max + 1):
        out[L] = ((2.0 * L - 1.0) * z * out[L - 1] - (L - 1.0) * out[L - 2]) / L
    return out


def zonal_cdf(t: float, D: float, tol: float = 1e-12):
    """CDF of the dot product y(0).y(t) under the k = 3 kernel.

    F(z) = (z+1)/2 + (1/2) sum_{L>=1} e^{-D L(L+1) t} (P_{L+1}(z) - P_{L-1}(z)).
    Returns a vectorized callable.
    """
    L_max, achieved = truncation_cutoff(t, D, 3, tol)
    if not achieved:
        raise ValueError("zonal_cdf: truncation failed; t too small")
    weights = np.array([math.exp(-D * L * (L + 1.0) * t) for L in range(L_max + 2)])

    def cdf(z):
        z = np.clip(np.asarray(z, dtype=float), -1.0, 1.0)
        P = _legendre_table(z, L_max + 1)
        total = 0.5 * (z + 1.0)
        for L in range(1, L_max + 1):
            total = total + 0.5 * weights[L] * (P[L + 1] - P[L - 1])
        return np.clip(total, 0.0, 1.0)

    return cdf


def ks_one_sample(samples: np.ndarray, cdf) -> tuple[float, float]:
    """KS statistic and asymptotic-Kolmogorov p-value against a given CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    F = np.asarray(cdf(x), dtype=float)
    grid = np.arange(1, n + 1) / n
    D = float(max(np.max(grid - F), np.max(F - (grid - 1.0 / n))))
    return D, float(kolmogorov(math.sqrt(n) * D))


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Two-sample KS with the asymptotic Kolmogorov p-value."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    everything = np.concatenate([a, b])
    ca = np.searchsorted(a, everything, side="right") / a.size
    cb = np.searchsorted(b, everything, side="right") / b.size
    D = float(np.max(np.abs(ca - cb)))
    n_eff = a.size * b.size / (a.size + b.size)
    return D, float(kolmogorov(math.sqrt(n_eff) * D))


def jacobi_01(n: int, exp0: float, exp1: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights with sum w g(u) ~ int_0^1 g(u) u^exp0 (1-u)^exp1 du."""
    x, w = roots_jacobi(n, exp1, exp0)
    return 0.5 * (x + 1.0), w * 0.5 ** (exp0 + exp1 + 1.0)


def _interior_points(rng: np.random.Generator, k: int, n: int, min_coord: float) -> np.ndarray:
    out = np.empty((n, k))
    filled = 0
    while filled < n:
        cand = rng.dirichlet(np.ones(k), size=n - filled)
        good = cand[cand.min(axis=1) >= min_coord]
        m = good.shape[0]
        out[filled:filled + m] = good
        filled += m
    return out


def _timer():
    start = time.perf_counter()
    return lambda: time.perf_counter() - start


# --- analytic equivalence ----------------------------------------------------

def equivalence_scan(k: int, t_grid=(0.05, 0.1, 0.5, 1.0, 5.0), n_points: int = 50,
                     seed: int = DEFAULT_SEED, griffiths_epsilon: float = 0.5,
                     D: float = 0.125, threshold: float = 1e-6,
                     min_coord: float = 0.02,
                     trunc: Truncation | None = None,
                     name: str = "equivalence") -> VerificationReport:
    """Max relative gap between the two exact densities over a seeded grid.

    The expansion with common epsilon and the sign-summed sphere kernel
    describe the same diffusion when epsilon = 1/2, D = 1/8; the scan
    passes iff max |a - b| / max(1, |a|) < threshold.
    """
    elapsed = _timer()
    trunc = trunc or Truncation(max_terms=200, tol=1e-10, consecutive_small=3)
    rng = path_rng(seed, 0xE0)
    xs = _interior_points(rng, k, n_points, min_coord)
    xps = _interior_points(rng, k, n_points, min_coord)
    worst = 0.0
    worst_at: dict = {}
    nonconverged = 0
    resummed = 0
    for t in t_grid:
        for i in range(n_points):
            x = SimplexPoint(xs[i])
            xp = SimplexPoint(xps[i])
            g = griffiths_density(GriffithsQuery(x, xp, t, griffiths_epsilon, trunc))
            p = pushforward_density(PushforwardQuery(x, xp, t, D, trunc))
            nonconverged += (not g.converged) + (not p.converged)
            resummed += g.mode == "resummed"
            rel = abs(g.value - p.value) / max(1.0, abs(g.value))
            if rel > worst:
                worst = rel
                worst_at = {"t": t, "point": i, "griffiths": g.value, "pushforward": p.value}
    passed = worst < threshold and nonconverged == 0
    return VerificationReport(
        name=f"{name}-k{k}",
        params={"k": k, "t_grid": list(t_grid), "n_points": n_points, "seed": seed,
                "epsilon": griffiths_epsilon, "D": D, "min_coord": min_coord},
        statistic=worst,
        threshold=threshold,
        passed=passed,
        stats={"worst_at": worst_at, "nonconverged": nonconverged, "resummed_evals": resummed},
        wall_time_s=elapsed(),
    )


def odd_cancellation_check(ks=(3, 4), t_grid=(0.1, 1.0), n_points: int = 5,
                           seed: int = DEFAULT_SEED,
                           threshold: float = 1e-12) -> VerificationReport:
    """Aggregate odd-degree contribution after the sign sum, relative to even."""
    elapsed = _timer()
    rng = path_rng(seed, 0xE1)
    worst = 0.0
    for k in ks:
        xs = _interior_points(rng, k, n_points, 0.02)
        xps = _interior_points(rng, k, n_points, 0.02)
        for t in t_grid:
            for i in range(n_points):
                r = pushforward_density(
                    PushforwardQuery(SimplexPoint(xs[i]), SimplexPoint(xps[i]), t)
                )
                worst = max(worst, abs(r.odd_part) / abs(r.even_part))
    return VerificationReport(
        name="odd-degree-cancellation",
        params={"ks": list(ks), "t_grid": list(t_grid), "n_points": n_points, "seed": seed},
        statistic=worst,
        threshold=threshold,
        passed=worst < threshold,
        wall_time_s=elapsed(),
    )


def exponent_match_check(n_max: int = 50, k_max: int = 10) -> VerificationReport:
    """Exact identity (1/8) 2n(2n+k-2) = n(n-1)/2 + (k/2)(n/2) in rationals.

    The even-degree decay rates of the sign-summed kernel at D = 1/8
    therefore coincide with the expansion's exponents at mu = k/2.
    """
    elapsed = _timer()
    mismatches = 0
    for k in range(2, k_max + 1):
        for n in range(n_max + 1):
            lhs = Fraction(2 * n * (2 * n + k - 2), 8)
            rhs = Fraction(n * (n - 1), 2) + Fraction(k, 2) * Fraction(n, 2)
            mismatches += lhs != rhs
    return VerificationReport(
        name="exponent-match",
        params={"n_max": n_max, "k_max": k_max},
        statistic=float(mismatches),
        threshold=1.0,
        passed=mismatches == 0,
        wall_time_s=elapsed(),
    )


def prefactor_identity_check(n_points: int = 1000, k_max: int = 6,
                             seed: int = DEFAULT_SEED,
                             threshold: float = 1e-13) -> VerificationReport:
    """Gamma(k/2)/pi^{k/2} prod x^{-1/2} vs the Dirichlet form at eps = 1/2."""
    elapsed = _timer()
    rng = path_rng(seed, 0xE2)
    ks = list(range(2, k_max + 1))
    per_k = max(1, n_points // len(ks))
    worst = 0.0
    for k in ks:
        pts = _interior_points(rng, k, per_k, 1e-3)
        for row in pts:
            a = math.exp(log_gamma(0.5 * k) - 0.5 * k * math.log(math.pi)
                         - 0.5 * float(np.log(row).sum()))
            b = dirichlet_stationary(SimplexPoint(row), 0.5)
            worst = max(worst, abs(a - b) / abs(b))
    return VerificationReport(
        name="prefactor-identity",
        params={"n_points": per_k * len(ks), "k_max": k_max, "seed": seed},
        statistic=worst,
        threshold=threshold,
        passed=worst < threshold,
        wall_time_s=elapsed(),
    )


def gegenbauer_check(seed: int = DEFAULT_SEED) -> VerificationReport:
    """Polynomial layer: recurrence vs explicit sum, generating function,
    and the k = 3 kernel against an independent Legendre implementation."""
    elapsed = _timer()
    worst_poly = 0.0
    for p in (0.5, 1.0, 1.5, 2.0):
        for L in range(41):
            for z in np.arange(-1.0, 1.0 + 1e-12, 0.1):
                a = gegenbauer(L, p, float(z))
                b = gegenbauer_explicit(L, p, float(z))
                worst_poly = max(worst_poly, abs(a - b) / max(1.0, abs(b)))
    worst_gen = 0.0
    for p in (0.5, 1.0, 1.5):
        for h in (-0.5, -0.25, -0.1, 0.1, 0.25, 0.5):
            for z in np.arange(-1.0, 1.0 + 1e-12, 0.25):
                worst_gen = max(worst_gen, generating_function_residual(p, float(z), h, 60))
    rng = path_rng(seed, 0xE3)
    worst_kernel = 0.0
    D = 0.125
    for _ in range(100):
        z = float(rng.uniform(-1.0, 1.0))
        t = float(rng.uniform(0.05, 5.0))
        kv = zonal_kernel(z, t, D, 3)
        L_ref = 0
        while (2 * L_ref + 1) * math.exp(-D * L_ref * (L_ref + 1) * t) > 1e-18:
            L_ref += 1
        P = _legendre_table(np.array(z), L_ref)
        ref = math.fsum((2.0 * L + 1.0) * math.exp(-D * L * (L + 1.0) * t) * float(P[L])
                        for L in range(L_ref + 1))
        worst_kernel = max(worst_kernel, abs(kv.value - ref) / max(1.0, abs(ref)))
    passed = worst_poly < 1e-11 and worst_gen < 1e-8 and worst_kernel < 1e-12
    return VerificationReport(
        name="gegenbauer",
        params={"L_max": 40, "seed": seed},
        statistic=worst_poly,
        threshold=1e-11,
        passed=passed,
        stats={"recurrence_vs_explicit": worst_poly,
               "generating_function_residual": worst_gen,
               "kernel_vs_legendre": worst_kernel},
        wall_time_s=elapsed(),
    )


# --- quadrature checks -------------------------------------------------------

def _wf_density_grid(x_eval: np.ndarray, x_cond: np.ndarray, t: float, D: float,
                     trunc: Truncation) -> np.ndarray:
    """p(x_eval_i, t | x_cond) for a batch of evaluation points (k = any)."""
    k = x_cond.size
    series, _, _, _, _, conv = pushforward_series_batch(x_eval, x_cond, t, D, trunc)
    if not conv:
        raise RuntimeError("pushforward series did not converge on the quadrature grid")
    pref = np.exp(log_gamma(0.5 * k) - 0.5 * k * math.log(math.pi)
                  - 0.5 * np.log(x_eval).sum(axis=1))
    return pref * series


def _simplex_grid_k3(quad_order: int):
    """Tensor Gauss-Jacobi grid absorbing the x^{-1/2} boundary weights (k=3).

    Substitution x_1 = u, x_2 = (1-u)v with Jacobian (1-u); returns
    (points (n,3), combined weights, deweight factors) such that
    int f dx = sum_i w_i * f(points_i) * dw_i with dw_i removing the
    singular part: dw = (1-u) sqrt(u) sqrt(v) sqrt(1-v).
    """
    u, wu = jacobi_01(quad_order, -0.5, 0.0)
    v, wv = jacobi_01(quad_order, -0.5, -0.5)
    U, V = np.meshgrid(u, v, indexing="ij")
    W = np.outer(wu, wv)
    pts = np.column_stack([
        U.ravel(),
        ((1.0 - U) * V).ravel(),
        ((1.0 - U) * (1.0 - V)).ravel(),
    ])
    deweight = ((1.0 - U) * np.sqrt(U) * np.sqrt(V) * np.sqrt(1.0 - V)).ravel()
    return pts, W.ravel(), deweight


def normalization_check(kernel: str, t: float, quad_order: int = 256,
                        threshold: float | None = None,
                        x_cond=_X3B, D: float = 0.125) -> VerificationReport:
    """|integral of the transition density - 1| for k = 3.

    kernel "sphere": Gauss-Legendre in the zonal variable.
    kernel "wf": tensor Gauss-Jacobi with the x^{-1/2} weights absorbed.
    """
    elapsed = _timer()
    if kernel == "sphere":
        threshold = 1e-8 if threshold is None else threshold
        z, w = np.polynomial.legendre.leggauss(quad_order)
        even, odd, _, _, conv = zonal_series(z, t, D, 3, SPHERE_TRUNCATION)
        total = float(0.5 * (w * (even + odd)).sum())
    elif kernel == "wf":
        threshold = 5e-3 if threshold is None else threshold
        pts, w, dw = _simplex_grid_k3(quad_order)
        dens = _wf_density_grid(pts, np.asarray(x_cond, dtype=float), t, D,
                                Truncation(max_terms=400, tol=1e-12, consecutive_small=3))
        total = float((w * dens * dw).sum())
        conv = True
    else:
        raise ValueError(f"normalization_check: unknown kernel {kernel!r}")
    residual = abs(total - 1.0)
    return VerificationReport(
        name=f"normalization-{kernel}",
        params={"t": t, "quad_order": quad_order, "k": 3, "D": D},
        statistic=residual,
        threshold=threshold,
        passed=residual < threshold and conv,
        stats={"integral": total},
        wall_time_s=elapsed(),
    )


def _ck_sphere_residual(t1: float, t2: float, quad_order: int, D: float) -> float:
    y_from = np.array([0.6, -0.64, 0.48])
    y_to_raw = np.array([0.2, 0.5, 0.9])
    y_to = y_to_raw / np.linalg.norm(y_to_raw)
    cos_g = float(y_from @ y_to)
    sin_g = math.sqrt(max(0.0, 1.0 - cos_g * cos_g))
    u, wu = np.polynomial.legendre.leggauss(quad_order)
    m_phi = 2 * quad_order
    phi = 2.0 * math.pi * np.arange(m_phi) / m_phi
    dots = sin_g * np.sqrt(1.0 - u[:, None] ** 2) * np.cos(phi)[None, :] + cos_g * u[:, None]
    e2, o2, _, _, conv2 = zonal_series(dots, t2, D, 3, SPHERE_TRUNCATION)
    e1, o1, _, _, conv1 = zonal_series(u, t1, D, 3, SPHERE_TRUNCATION)
    if not (conv1 and conv2):
        raise RuntimeError("sphere kernel did not converge in quadrature")
    inner = (e2 + o2).sum(axis=1)  # phi sum
    integral = float((wu * (e1 + o1) * inner).sum() / (2.0 * m_phi))
    direct = zonal_kernel(cos_g, t1 + t2, D, 3).value
    return abs(integral - direct)


def _ck_wf_residual(t1: float, t2: float, quad_order: int, D: float,
                    x_to=_X3, x_from=_X3B) -> float:
    x_to = np.asarray(x_to, dtype=float)
    x_from = np.asarray(x_from, dtype=float)
    trunc = Truncation(max_terms=400, tol=1e-12, consecutive_small=3)
    pts, w, dw = _simplex_grid_k3(quad_order)
    p_zx = _wf_density_grid(pts, x_from, t1, D, trunc)      # p(z, t1 | x_from)
    series_to, _, _, _, _, conv = pushforward_series_batch(pts, x_to, t2, D, trunc)
    if not conv:
        raise RuntimeError("pushforward series did not converge in quadrature")
    pref_to = math.exp(log_gamma(1.5) - 1.5 * math.log(math.pi)
                       - 0.5 * float(np.log(x_to).sum()))
    p_xz = pref_to * series_to                               # p(x_to, t2 | z)
    integral = float((w * p_xz * p_zx * dw).sum())
    direct = pushforward_density(
        PushforwardQuery(SimplexPoint(x_to), SimplexPoint(x_from), t1 + t2, D, trunc)
    ).value
    return abs(integral - direct)


def chapman_kolmogorov(kernel: str, t1: float = 0.5, t2: float = 0.5,
                       quad_order: int = 128, D: float = 0.125,
                       threshold: float | None = None) -> VerificationReport:
    """Semigroup residual |int p(.,t2|z) p(z,t1|.) dz - p(.,t1+t2|.)| (k = 3).

    The quadrature order is doubled once (Richardson-style) to flag an
    under-resolved integral.
    """
    elapsed = _timer()
    if kernel == "sphere":
        threshold = 1e-6 if threshold is None else threshold
        coarse = _ck_sphere_residual(t1, t2, quad_order, D)
        fine = _ck_sphere_residual(t1, t2, 2 * quad_order, D)
    elif kernel == "wf":
        threshold = 1e-3 if threshold is None else threshold
        coarse = _ck_wf_residual(t1, t2, quad_order, D)
        fine = _ck_wf_residual(t1, t2, 2 * quad_order, D)
    else:
        raise ValueError(f"chapman_kolmogorov: unknown kernel {kernel!r}")
    quad_unstable = abs(fine - coarse) > max(10 * threshold, 10 * abs(fine))
    return VerificationReport(
        name=f"chapman-kolmogorov-{kernel}",
        params={"t1": t1, "t2": t2, "quad_order": quad_order, "D": D, "k": 3},
        statistic=fine,
        threshold=threshold,
        passed=fine < threshold and not quad_unstable,
        stats={"residual_coarse": coarse, "residual_fine": fine,
               "quad_unstable": bool(quad_unstable)},
        wall_time_s=elapsed(),
    )


def stationary_limit_check(t: float = 1e3, threshold: float = 1e-12) -> VerificationReport:
    """At t = 10^3 every kernel equals its stationary density to ~machine."""
    elapsed = _timer()
    worst = 0.0
    for k in (3, 4):
        rng = path_rng(97, k)
        x = SimplexPoint(_interior_points(rng, k, 1, 0.05)[0])
        xp = SimplexPoint(_interior_points(rng, k, 1, 0.05)[0])
        sphere_val = zonal_kernel(float(np.sqrt(x.coords) @ np.sqrt(xp.coords)), t, 0.125, k).value
        worst = max(worst, abs(sphere_val - 1.0))
        stat = dirichlet_stationary(x, 0.5)
        g = griffiths_density(GriffithsQuery(x, xp, t, 0.5))
        p = pushforward_density(PushforwardQuery(x, xp, t))
        worst = max(worst, abs(g.value - stat) / stat, abs(p.value - stat) / stat)
    return VerificationReport(
        name="stationary-limits",
        params={"t": t, "ks": [3, 4]},
        statistic=worst,
        threshold=threshold,
        passed=worst < threshold,
        wall_time_s=elapsed(),
    )


# --- simulation vs analytics ---------------------------------------------------

def mc_vs_analytic(model: str, n_paths: int | None = None, t: float = 0.5,
                   dt: float = 1e-4, seed: int = DEFAULT_SEED, c: float = 1.0,
                   alpha: float = 0.01, workers: int = 1) -> VerificationReport:
    """KS comparison of simulated paths with the exact kernel (k = 3).

    model "sphere": one-sample KS of y(0).y(t) against the zonal CDF.
    model "wf": two-sample KS of the first coordinate between squared
    sphere paths and the isotropic simplex stepper, both from the same
    starting point.  One reseed is allowed (two-stage rule).
    """
    elapsed = _timer()
    x0 = np.array(_X3)
    y0 = np.sqrt(x0)
    D = c * c / 8.0

    def attempt_sphere(s):
        finals, diag = ensemble_final(Model.SPHERE, t=t, dt=dt, n_paths=n_paths or 100_000,
                                      seed=s, start=y0, c=c, workers=workers)
        return ks_one_sample(finals @ y0, zonal_cdf(t, D)), diag

    def attempt_wf(s):
        n = n_paths or 10_000
        finals_s, diag = ensemble_final(Model.SPHERE, t=t, dt=dt, n_paths=n, seed=s,
                                        start=y0, c=c, workers=workers)
        finals_w, _ = ensemble_final(Model.WF_ISOTROPIC, t=t, dt=dt, n_paths=n,
                                     seed=s ^ 0x5DEECE66D, start=x0, c=c, workers=workers)
        return ks_two_sample(finals_s[:, 0] ** 2, finals_w[:, 0]), diag

    attempt = attempt_sphere if model == "sphere" else attempt_wf
    if model not in ("sphere", "wf"):
        raise ValueError(f"mc_vs_analytic: unknown model {model!r}")
    (d1, p1), diag = attempt(seed)
    retried = p1 < alpha
    if retried:
        (d2, p2), diag = attempt(seed + 1)
        d_final, p_final = d2, p2
    else:
        d_final, p_final = d1, p1
    return VerificationReport(
        name=f"mc-vs-analytic-{model}",
        params={"n_paths": n_paths or (100_000 if model == "sphere" else 10_000),
                "t": t, "dt": dt, "seed": seed, "c": c, "alpha": alpha, "k": 3},
        statistic=p_final,
        threshold=alpha,
        passed=p_final >= alpha,
        stats={"D": d_final, "p_value": p_final, "first_p": p1, "retried": retried,
               "mean_defect": diag.mean_defect},
        wall_time_s=elapsed(),
    )


def isotropy_check(n_replicas: int = 100_000, n_directions: int = 20,
                   dt: float = 1e-4, c: float = 1.0, seed: int = DEFAULT_SEED,
                   tol_se: float = 5.0) -> VerificationReport:
    """One-step variance of l . dy equals (c/2)^2 dt for tangent directions l."""
    elapsed = _timer()
    y0 = np.array([0.6, -0.64, 0.48])
    rng = path_rng(seed, 0xE4)
    dirs = []
    while len(dirs) < n_directions:
        g = rng.standard_normal(3)
        g -= (g @ y0) * y0
        norm = np.linalg.norm(g)
        if norm > 1e-6:
            dirs.append(g / norm)
    dirs = np.array(dirs)
    finals, _ = ensemble_final(Model.SPHERE, t=dt, dt=dt, n_paths=n_replicas,
                               seed=seed, start=y0, c=c)
    deltas = finals - y0[None, :]
    target = (0.5 * c) ** 2 * dt
    se = target * math.sqrt(2.0 / (n_replicas - 1))
    devs = np.array([abs(np.var(deltas @ l, ddof=1) - target) for l in dirs])
    worst = float(devs.max() / se)
    return VerificationReport(
        name="isotropy",
        params={"n_replicas": n_replicas, "n_directions": n_directions, "dt": dt,
                "c": c, "seed": seed, "k": 3},
        statistic=worst,
        threshold=tol_se,
        passed=worst < tol_se,
        stats={"target_variance": target, "max_abs_dev": float(devs.max())},
        wall_time_s=elapsed(),
    )


def conservation_check(seed: int = DEFAULT_SEED, n_paths: int = 16,
                       t: float = 1.0) -> VerificationReport:
    """Invariant conservation of the steppers.

    Simplex models: |sum x - 1| pre-clamp below 1e-12 at every step.
    Sphere model: mean pre-renormalization defect below 1e-3 at
    dt = 1e-4, and halving dt halves the mean defect within +-20%.
    """
    elapsed = _timer()
    presum_worst = 0.0
    for model, eps in ((Model.WF_NEUTRAL, None), (Model.WF_MUTATION, (0.3, 0.5, 0.7))):
        _, diag = ensemble_final(model, t=t, dt=1e-4, n_paths=n_paths, seed=seed,
                                 start=np.array(_X3), c=1.0, epsilon=eps)
        presum_worst = max(presum_worst, diag.max_presum_defect)
    means = {}
    for dt in (4e-4, 2e-4, 1e-4):
        _, diag = ensemble_final(Model.SPHERE, t=t, dt=dt, n_paths=n_paths,
                                 seed=seed, start=np.array([0.6, -0.64, 0.48]), c=1.0)
        means[dt] = diag.mean_defect
    ratio_21 = means[2e-4] / means[4e-4]
    ratio_10 = means[1e-4] / means[2e-4]
    halving_ok = 0.4 <= ratio_21 <= 0.6 and 0.4 <= ratio_10 <= 0.6
    passed = presum_worst < 1e-12 and means[1e-4] < 1e-3 and halving_ok
    return VerificationReport(
        name="conservation",
        params={"seed": seed, "n_paths": n_paths, "t": t, "k": 3},
        statistic=presum_worst,
        threshold=1e-12,
        passed=passed,
        stats={"max_presum_defect": presum_worst,
               "mean_defect_by_dt": {f"{dt:g}": means[dt] for dt in means},
               "ratio_2e-4_over_4e-4": ratio_21,
               "ratio_1e-4_over_2e-4": ratio_10},
        wall_time_s=elapsed(),
    )


def _moran_tau_fit(N: int, lam: float, replicates: int, T: float,
                   n_checks: int, seed: int) -> float:
    """Fitted e-folding time of mean heterozygosity.

    Weighted least squares on the increments of ln(mean curve): scaling
    each path by the predicted decay makes it a martingale, so those
    increments are uncorrelated and inverse-variance weighting of them is
    the efficient fit of the exponential's slope.  Weights come from the
    predicted decay, not the sample means, to keep them noise-independent.
    """
    state0 = MoranState([N // 2, N - N // 2], lam)
    rate = moran_event_rate(state0)
    stride = max(1, int(round(rate * T / (n_checks - 1))))
    events = stride * (n_checks - 1)
    H = np.empty((replicates, n_checks))
    times = None
    for r in range(replicates):
        rec = simulate_moran(state0, events, path_rng(seed, r), record_stride=stride)
        H[r] = rec.heterozygosity
        times = rec.times
    m = H.mean(axis=0)
    m_pred = np.exp(-times * lam / (2.0 * N))
    scaled = H / m_pred[None, :]
    incr = np.diff(scaled, axis=1)
    level = np.maximum(scaled.mean(axis=0)[:-1], 1e-12)
    var_z = incr.var(axis=0, ddof=1) / replicates / level ** 2
    w = 1.0 / np.maximum(var_z, 1e-30)
    z = np.diff(np.log(m))
    dt = times[1] - times[0]
    slope = float((w * z).sum() / (w.sum() * dt))
    return -1.0 / slope


def moran_limit_check(N: int = 100, lam: float = 1.0, replicates: int = 200,
                      T: float = 200.0, n_checks: int = 41,
                      seed: int = DEFAULT_SEED, tol: float = 0.10) -> VerificationReport:
    """Fitted heterozygosity e-folding time vs the diffusion prediction 2N/lam.

    k = 2 pair-interaction model; one reseed allowed (two-stage rule).
    """
    elapsed = _timer()
    predicted = 2.0 * N / lam
    tau1 = _moran_tau_fit(N, lam, replicates, T, n_checks, seed)
    dev1 = abs(tau1 / predicted - 1.0)
    retried = dev1 > tol
    if retried:
        tau2 = _moran_tau_fit(N, lam, replicates, T, n_checks, seed + 1)
        tau, dev = tau2, abs(tau2 / predicted - 1.0)
    else:
        tau, dev = tau1, dev1
    return VerificationReport(
        name="moran-diffusion-limit",
        params={"N": N, "lam": lam, "replicates": replicates, "T": T,
                "n_checks": n_checks, "seed": seed, "k": 2},
        statistic=dev,
        threshold=tol,
        passed=dev <= tol,
        stats={"tau_fit": tau, "tau_predicted": predicted, "first_tau": tau1,
               "retried": retried},
        wall_time_s=elapsed(),
    )


def stationary_law_check(eps: float = 2.0, n_paths: int = 4000, T: float = 6.0,
                         dt: float = 1e-3, seed: int = DEFAULT_SEED,
                         alpha: float = 0.01) -> VerificationReport:
    """Long-run law of the k = 2 mutation model vs Beta(eps, eps) by KS.

    Uses an ensemble at time T, which covers many relaxation times (the
    slowest decay rate is mu/2 = eps per unit time), so the samples are
    independent across paths.  One reseed allowed.
    """
    elapsed = _timer()
    cdf = beta_dist(eps, eps).cdf

    def attempt(s):
        finals, _ = ensemble_final(Model.WF_MUTATION, t=T, dt=dt, n_paths=n_paths,
                                   seed=s, start=np.array([0.5, 0.5]),
                                   epsilon=(eps, eps))
        return ks_one_sample(finals[:, 0], cdf)

    d1, p1 = attempt(seed)
    retried = p1 < alpha
    if retried:
        d_final, p_final = attempt(seed + 1)
    else:
        d_final, p_final = d1, p1
    return VerificationReport(
        name="stationary-law",
        params={"eps": eps, "n_paths": n_paths, "T": T, "dt": dt, "seed": seed,
                "alpha": alpha, "k": 2},
        statistic=p_final,
        threshold=alpha,
        passed=p_final >= alpha,
        stats={"D": d_final, "p_value": p_final, "first_p": p1, "retried": retried},
        wall_time_s=elapsed(),
    )


def control_checks(seed: int = DEFAULT_SEED, threshold: float = 1e-6) -> VerificationReport:
    """Designed-to-fail perturbations; the report passes iff both FAIL.

    (a) expansion at epsilon = 0.6 vs the pushforward at D = 1/8;
    (b) pushforward with a doubled decay constant (D = 1/4) vs epsilon = 1/2.
    """
    elapsed = _timer()
    wrong_eps = equivalence_scan(3, t_grid=(0.2, 1.0), n_points=10, seed=seed,
                                 griffiths_epsilon=0.6, name="control-eps")
    wrong_d = equivalence_scan(3, t_grid=(0.2, 1.0), n_points=10, seed=seed,
                               D=0.25, name="control-D")
    both_fail = (wrong_eps.statistic > threshold) and (wrong_d.statistic > threshold)
    return VerificationReport(
        name="controls",
        params={"seed": seed, "threshold": threshold},
        statistic=min(wrong_eps.statistic, wrong_d.statistic),
        threshold=threshold,
        passed=both_fail,
        stats={"wrong_epsilon_gap": wrong_eps.statistic,
               "wrong_exponent_gap": wrong_d.statistic},
        wall_time_s=elapsed(),
    )


# --- suite registry -----------------------------------------------------------

def _suite_equivalence(seed, workers, k=None):
    if k is not None:
        return [equivalence_scan(k, seed=seed)]
    return [equivalence_scan(3, seed=seed), equivalence_scan(4, seed=seed)]


def _suite_oddcancel(seed, workers):
    return [odd_cancellation_check(seed=seed)]


def _suite_exponent(seed, workers):
    return [exponent_match_check()]


def _suite_prefactor(seed, workers):
    return [prefactor_identity_check(seed=seed)]


def _suite_gegenbauer(seed, workers):
    return [gegenbauer_check(seed=seed)]


def _suite_kernels(seed, workers):
    return [
        normalization_check("sphere", t=0.5),
        normalization_check("wf", t=1.0, quad_order=48),
        chapman_kolmogorov("sphere"),
        chapman_kolmogorov("wf", quad_order=48),
        stationary_limit_check(),
    ]


def _suite_mc(seed, workers):
    return [
        mc_vs_analytic("sphere", seed=seed, workers=workers),
        mc_vs_analytic("wf", seed=seed, workers=workers),
    ]


def _suite_isotropy(seed, workers):
    return [isotropy_check(seed=seed)]


def _suite_conservation(seed, workers):
    return [conservation_check(seed=seed)]


def _suite_moran(seed, workers):
    return [moran_limit_check(seed=seed)]


def _suite_stationary(seed, workers):
    return [stationary_law_check(seed=seed)]


def _suite_controls(seed, workers):
    return [control_checks(seed=seed)]


SUITES = {
    "equivalence": _suite_equivalence,
    "oddcancel": _suite_oddcancel,
    "exponent": _suite_exponent,
    "prefactor": _suite_prefactor,
    "gegenbauer": _suite_gegenbauer,
    "kernels": _suite_kernels,
    "mc": _suite_mc,
    "isotropy": _suite_isotropy,
    "conservation": _suite_conservation,
    "moran": _suite_moran,
    "stationary": _suite_stationary,
    "controls": _suite_controls,
}


def run_suite(name: str, seed: int = DEFAULT_SEED, workers: int = 1,
              k: int | None = None) -> list[VerificationReport]:
    """Run a named verification suite ("all" runs every suite in order).

    k restricts the equivalence suite to one dimension; other suites run
    at their pinned dimensions regardless.
    """
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(SUITES[key](seed, workers))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    if name == "equivalence":
        return _suite_equivalence(seed, workers, k=k)
    return SUITES[name](seed, workers)
