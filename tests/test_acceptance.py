"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line
per criterion.  Statistical checks follow the documented two-stage rule
(one reseed, the retry is decisive) built into the harness functions.
"""

import os

import pytest

from spherewf.harness import (
    DEFAULT_SEED,
    chapman_kolmogorov,
    control_checks,
    equivalence_scan,
    exponent_match_check,
    gegenbauer_check,
    isotropy_check,
    conservation_check,
    mc_vs_analytic,
    moran_limit_check,
    normalization_check,
    prefactor_identity_check,
    sign_sum_degree_check,
    stationary_law_check,
    stationary_limit_check,
)

SEED = DEFAULT_SEED
WORKERS = min(4, os.cpu_count() or 1)


def _emit(num: int, name: str, passed: bool, detail: str) -> str:
    line = f"[criterion {num:02d}] {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line, flush=True)
    return line


def test_criterion_01_density_equivalence():
    r3 = equivalence_scan(3, seed=SEED)
    r4 = equivalence_scan(4, seed=SEED)
    runtime = r3.wall_time_s + r4.wall_time_s
    passed = r3.passed and r4.passed and runtime < 60.0
    line = _emit(1, "density equivalence (eps=1/2 vs D=1/8)", passed,
                 f"max rel diff k3={r3.statistic:.3e}, k4={r4.statistic:.3e} < 1e-06; "
                 f"runtime {runtime:.1f}s < 60s")
    assert passed, line


def test_criterion_02_odd_degree_cancellation():
    r = sign_sum_degree_check(seed=SEED)
    line = _emit(2, "sign sum by degree: even = Q_n, odd cancels", r.passed,
                 f"max gap = {r.statistic:.3e} < 1e-09")
    assert r.passed, line


def test_criterion_03_exponent_match():
    r = exponent_match_check(n_max=50, k_max=10)
    line = _emit(3, "decay-exponent identity (exact rationals)", r.passed,
                 f"{int(r.statistic)} mismatches for n<=50, k<=10")
    assert r.passed, line


def test_criterion_04_prefactor_identity():
    r = prefactor_identity_check(n_points=1000, k_max=6, seed=SEED)
    line = _emit(4, "stationary prefactor identity", r.passed,
                 f"max rel diff = {r.statistic:.3e} < 1e-13")
    assert r.passed, line


def test_criterion_05_gegenbauer_layer():
    r = gegenbauer_check(seed=SEED)
    line = _emit(5, "Gegenbauer recurrence / explicit sum / Legendre", r.passed,
                 f"rec-vs-explicit {r.stats['recurrence_vs_explicit']:.3e} < 1e-11, "
                 f"generating-fn {r.stats['generating_function_residual']:.3e} < 1e-8, "
                 f"kernel-vs-Legendre {r.stats['kernel_vs_legendre']:.3e} < 1e-12")
    assert r.passed, line


def test_criterion_06_kernel_analytics():
    norm = normalization_check("sphere", t=0.5)
    ck_s = chapman_kolmogorov("sphere", quad_order=128)
    ck_w = chapman_kolmogorov("wf", quad_order=48)
    stat = stationary_limit_check(t=1e3)
    passed = norm.passed and ck_s.passed and ck_w.passed and stat.passed
    line = _emit(6, "kernel normalization / semigroup / stationary limits", passed,
                 f"norm {norm.statistic:.2e} < 1e-8, CK-sphere {ck_s.statistic:.2e} < 1e-6, "
                 f"CK-wf {ck_w.statistic:.2e} < 1e-3, stationary {stat.statistic:.2e} < 1e-12")
    assert passed, line


def test_criterion_07_simulation_vs_analytics():
    sphere = mc_vs_analytic("sphere", n_paths=100_000, t=0.5, dt=1e-4,
                            seed=SEED, workers=WORKERS)
    wf = mc_vs_analytic("wf", n_paths=10_000, t=0.5, dt=1e-4,
                        seed=SEED, workers=WORKERS)
    runtime = sphere.wall_time_s + wf.wall_time_s
    passed = sphere.passed and wf.passed and runtime < 300.0
    line = _emit(7, "Monte Carlo vs exact kernel (KS at alpha=0.01)", passed,
                 f"sphere p={sphere.statistic:.3f}, two-sample p={wf.statistic:.3f}, "
                 f"runtime {runtime:.0f}s < 300s")
    assert passed, line


def test_criterion_08_isotropy():
    r = isotropy_check(n_replicas=100_000, n_directions=20, dt=1e-4, c=1.0, seed=SEED)
    line = _emit(8, "tangential one-step variance is direction-free", r.passed,
                 f"max deviation = {r.statistic:.2f} SE < 5 SE")
    assert r.passed, line


def test_criterion_09_invariant_conservation():
    r = conservation_check(seed=SEED)
    s = r.stats
    line = _emit(9, "simplex sum / sphere radius conservation", r.passed,
                 f"max pre-clamp |sum-1| = {s['max_presum_defect']:.2e} < 1e-12, "
                 f"mean defect(1e-4) = {s['mean_defect_by_dt']['0.0001']:.2e} < 1e-3, "
                 f"halving ratios {s['ratio_2e-4_over_4e-4']:.2f}, "
                 f"{s['ratio_1e-4_over_2e-4']:.2f} in [0.4, 0.6]")
    assert r.passed, line


def test_criterion_10_moran_diffusion_limit():
    r = moran_limit_check(N=100, lam=1.0, replicates=200, seed=SEED)
    line = _emit(10, "Moran heterozygosity e-folding time", r.passed,
                 f"tau = {r.stats['tau_fit']:.1f} vs 2N/lam = "
                 f"{r.stats['tau_predicted']:.0f}, dev {100 * r.statistic:.1f}% <= 10%")
    assert r.passed, line


def test_criterion_11_stationary_law():
    r = stationary_law_check(eps=2.0, n_paths=4000, T=6.0, dt=1e-3, seed=SEED)
    line = _emit(11, "mutation stepper reaches Beta(2,2)", r.passed,
                 f"KS p = {r.statistic:.3f} >= 0.01")
    assert r.passed, line


def test_criterion_12_controls_must_fail():
    r = control_checks(seed=SEED)
    line = _emit(12, "perturbed comparisons fail as designed", r.passed,
                 f"eps=0.6 gap {r.stats['wrong_epsilon_gap']:.2e}, "
                 f"doubled-D gap {r.stats['wrong_exponent_gap']:.2e}, both > 1e-6")
    assert r.passed, line
