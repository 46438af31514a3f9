import json
import math

import numpy as np
import pytest

from spherewf import harness
from spherewf.harness import (
    chapman_kolmogorov,
    control_checks,
    equivalence_scan,
    exponent_match_check,
    gegenbauer_check,
    isotropy_check,
    jacobi_01,
    ks_one_sample,
    ks_two_sample,
    mc_vs_analytic,
    normalization_check,
    prefactor_identity_check,
    run_suite,
    sign_sum_degree_check,
    stationary_law_check,
    stationary_limit_check,
    write_reports_jsonl,
    write_summary_csv,
    zonal_cdf,
)


def test_jacobi_01_weights():
    u, w = jacobi_01(16, -0.5, 0.0)
    assert w.sum() == pytest.approx(2.0, rel=1e-12)  # int_0^1 u^{-1/2} du
    u2, w2 = jacobi_01(16, -0.5, -0.5)
    assert w2.sum() == pytest.approx(math.pi, rel=1e-12)
    # degree-5 polynomial integrated exactly against the weight
    val = (w * u ** 5).sum()
    assert val == pytest.approx(2.0 / 11.0, rel=1e-12)  # int u^{4.5} du


def test_ks_helpers_calibration():
    rng = np.random.default_rng(41)
    d, p = ks_one_sample(rng.uniform(size=20_000), lambda z: np.clip(z, 0, 1))
    assert p > 0.01
    # power: a shifted sample must be rejected
    d2, p2 = ks_one_sample(rng.uniform(size=20_000) ** 1.1, lambda z: np.clip(z, 0, 1))
    assert p2 < 1e-6
    a = rng.standard_normal(8000)
    b = rng.standard_normal(8000)
    _, p3 = ks_two_sample(a, b)
    assert p3 > 0.01
    _, p4 = ks_two_sample(a, b + 0.2)
    assert p4 < 1e-6


def test_zonal_cdf_properties():
    F = zonal_cdf(0.5, 0.125)
    z = np.linspace(-1, 1, 101)
    vals = F(z)
    assert vals[0] == pytest.approx(0.0, abs=1e-10)
    assert vals[-1] == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.diff(vals) >= -1e-12)
    # against direct quadrature of the kernel density
    from spherewf.sphere_heat import zonal_kernel
    zz, ww = np.polynomial.legendre.leggauss(200)
    for c in (-0.4, 0.1, 0.7):
        mask_scale = 0.5 * (c + 1.0)
        nodes = mask_scale * (zz + 1.0) - 1.0
        weights = ww * mask_scale
        direct = 0.5 * sum(w * zonal_kernel(float(n), 0.5, 0.125, 3).value
                           for n, w in zip(nodes, weights))
        assert F(c) == pytest.approx(direct, abs=1e-9)


def test_equivalence_scan_small():
    rep = equivalence_scan(3, t_grid=(0.5,), n_points=5, seed=7)
    assert rep.passed
    assert rep.statistic < 1e-6
    assert rep.stats["nonconverged"] == 0


def test_control_checks_fail_as_designed():
    rep = control_checks(seed=7)
    assert rep.passed  # i.e. both perturbed comparisons FAILED their bound
    assert rep.stats["wrong_epsilon_gap"] > 1e-3
    assert rep.stats["wrong_exponent_gap"] > 1e-3


def test_exponent_and_prefactor_checks():
    assert exponent_match_check().passed
    rep = prefactor_identity_check(n_points=200, seed=5)
    assert rep.passed
    assert rep.statistic < 1e-13


def test_sign_sum_degree_check(monkeypatch):
    rep = sign_sum_degree_check(n_points=2, seed=5)
    assert rep.passed and rep.stats["odd_vs_even"] < 1e-14
    # a weight off by 1e-6 on one degree fails it
    q_n = harness.q_n
    monkeypatch.setattr(harness, "q_n", lambda n, *a: q_n(n, *a) * (1 + 1e-6 * (n == 3)))
    assert not sign_sum_degree_check(n_points=2, seed=5).passed


def test_normalization_checks():
    sphere = normalization_check("sphere", t=0.5)
    assert sphere.passed and sphere.statistic < 1e-8
    wf = normalization_check("wf", t=1.0, quad_order=32)
    assert wf.passed and wf.statistic < 5e-3
    wf_early = normalization_check("wf", t=0.1, quad_order=48)
    assert wf_early.passed
    with pytest.raises(ValueError):
        normalization_check("nope", t=0.5)


def test_chapman_kolmogorov_sphere():
    rep = chapman_kolmogorov("sphere", quad_order=64)
    assert rep.passed
    assert rep.statistic < 1e-6
    assert not rep.stats["quad_unstable"]


def test_chapman_kolmogorov_wf():
    rep = chapman_kolmogorov("wf", quad_order=24)
    assert rep.passed
    assert rep.statistic < 1e-3


def test_chapman_kolmogorov_degenerate_long_time():
    # with t2 -> infinity both sides collapse to the stationary density
    rep = chapman_kolmogorov("sphere", t1=0.5, t2=1e3, quad_order=64)
    assert rep.statistic < 1e-8


def test_stationary_limit_check():
    rep = stationary_limit_check()
    assert rep.passed and rep.statistic < 1e-12


def test_gegenbauer_check():
    rep = gegenbauer_check(seed=3)
    assert rep.passed
    assert rep.stats["kernel_vs_legendre"] < 1e-12


def test_isotropy_check_small():
    rep = isotropy_check(n_replicas=20_000, n_directions=8, seed=11)
    assert rep.passed


def test_mc_vs_analytic_smoke():
    rep = mc_vs_analytic("sphere", n_paths=4000, t=0.3, dt=1e-3, seed=13)
    assert rep.passed
    rep2 = mc_vs_analytic("wf", n_paths=3000, t=0.3, dt=1e-3, seed=13)
    assert rep2.passed
    # identical seeds give identical statistics
    rep3 = mc_vs_analytic("sphere", n_paths=4000, t=0.3, dt=1e-3, seed=13)
    assert rep3.statistic == rep.statistic and rep3.stats["D"] == rep.stats["D"]
    with pytest.raises(ValueError, match="unknown model"):
        mc_vs_analytic("circle", n_paths=10)


def test_two_stage_rule_retries_once_on_the_next_seed():
    seen = []

    def attempt(s):
        seen.append(s)
        return s

    assert harness._two_stage(attempt, 5, lambda r: r == 5) == (5, 6, True)
    assert harness._two_stage(attempt, 7, lambda r: True) == (7, 8, True)  # the retry decides
    assert harness._two_stage(attempt, 9, lambda r: False) == (9, 9, False)
    assert seen == [5, 6, 7, 8, 9]


def test_run_suite_equivalence_k_filter():
    for k in (3, 6):
        reports = run_suite("equivalence", k=k)
        assert len(reports) == 1 and reports[0].name == f"equivalence-k{k}" and reports[0].passed


def test_stationary_law_smoke():
    rep = stationary_law_check(n_paths=1500, T=5.0, dt=2e-3, seed=17)
    assert rep.passed


@pytest.mark.parametrize("eps", [0.5, 1.7, 2.0])
def test_stationary_law_cdf_is_the_scipy_stats_beta_cdf(eps, monkeypatch):
    # the check's CDF is scipy.special.betainc, which spares the harness the
    # scipy.stats import; it gives the bits of scipy.stats' beta(eps, eps).cdf
    # on the check's own samples, uniform points and the ends of [0, 1]
    from scipy.stats import beta

    seen = []
    monkeypatch.setattr(harness, "ks_one_sample",
                        lambda x, cdf: seen.append((x, cdf)) or (0.0, 1.0))
    stationary_law_check(eps=eps, n_paths=500, T=0.5, dt=1e-2, seed=29)
    (samples, cdf), = seen
    x = np.concatenate([samples, np.random.default_rng(29).random(100_000),
                        [0.0, 1.0, 1e-300, 5e-324, 1.0 - 1e-16, 0.5]])
    assert cdf(x).tobytes() == beta(eps, eps).cdf(x).tobytes()


def test_report_serialization(tmp_path):
    reports = [exponent_match_check(), prefactor_identity_check(n_points=50, seed=5)]
    jpath = tmp_path / "reports.jsonl"
    cpath = tmp_path / "summary.csv"
    write_reports_jsonl(reports, jpath)
    write_summary_csv(reports, cpath)
    lines = jpath.read_text().strip().split("\n")
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert rec["name"] == "exponent-match" and rec["passed"] is True
    header = cpath.read_text().splitlines()[0]
    assert header.startswith("name,passed,statistic")


def test_reports_reproducible_modulo_walltime():
    a = prefactor_identity_check(n_points=100, seed=21)
    b = prefactor_identity_check(n_points=100, seed=21)
    da, db = a.to_dict(), b.to_dict()
    da.pop("wall_time_s")
    db.pop("wall_time_s")
    assert da == db


def test_run_suite_registry():
    reports = run_suite("exponent")
    assert len(reports) == 1 and reports[0].passed
    with pytest.raises(ValueError):
        run_suite("not-a-suite")
