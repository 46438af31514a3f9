import math
import multiprocessing
import os
import time
from concurrent.futures.process import BrokenProcessPool
from signal import SIGKILL

import numpy as np
import pytest

from spherewf import simulate
from spherewf.simulate import (
    ENSEMBLE_CHUNK,
    Model,
    MoranState,
    SkewIncrements,
    chunk_rng,
    draw_skew,
    ensemble_final,
    moran_event_rate,
    moran_step,
    path_rng,
    simulate_moran,
    simulate_path,
    step_sphere,
    step_wf_isotropic,
    step_wf_mutation,
    step_wf_neutral,
)
from spherewf.types import ModelParams, SimplexPoint, SpherePoint

X3 = SimplexPoint([0.5, 0.3, 0.2])
Y3 = SpherePoint([0.6, -0.64, 0.48])


class _ZeroRng:
    """Stub generator: all normal draws are zero (deterministic drift only)."""

    def standard_normal(self, size=None):
        return np.zeros(size) if size is not None else 0.0


def test_skew_increment_structure():
    rng = path_rng(1)
    inc = draw_skew(4, 0.01, rng)
    for i in range(4):
        assert inc.db(i, i) == 0.0
        for j in range(4):
            assert inc.db(i, j) == -inc.db(j, i)
    b = inc.matrix()
    assert np.array_equal(b, -b.T)
    assert b[2, 1] == inc.db(2, 1)


def test_skew_increment_variance():
    rng = path_rng(2)
    n = 100_000
    dt = 0.02
    draws = np.array([draw_skew(3, dt, rng).db(2, 1) for _ in range(n)])
    var = draws.var(ddof=1)
    # chi-square concentration: relative error ~ sqrt(2/n)
    assert abs(var - dt) < 5.0 * dt * math.sqrt(2.0 / n)


def test_sphere_step_zero_noise_shrinks_then_renormalizes():
    dt, c = 1e-3, 1.0
    y_new, defect = step_sphere(Y3, dt, c, _ZeroRng())
    shrink = 1.0 - c * c * (Y3.k - 1) * dt / 8.0
    assert defect == pytest.approx(abs(shrink ** 2 - 1.0), rel=1e-9)
    assert np.allclose(y_new.coords, Y3.coords, atol=1e-15)  # direction restored


def test_sphere_defect_small_and_mean_drift():
    # a T = 1 path at dt = 1e-4: mean pre-renormalization defect < 1e-3,
    # worst step < 1e-2
    rng = path_rng(3)
    y = Y3
    defects = []
    for _ in range(10_000):
        y, d = step_sphere(y, 1e-4, 1.0, rng)
        defects.append(d)
    assert np.mean(defects) < 1e-3
    assert np.max(defects) < 1e-2
    assert abs(float(y.coords @ y.coords) - 1.0) < 1e-12


def test_sphere_one_step_mean_matches_drift():
    dt, c, n = 1e-3, 1.0, 100_000
    finals, _ = ensemble_final(Model.SPHERE, t=dt, dt=dt, n_paths=n, seed=4,
                               start=Y3.coords, c=c)
    expected = (1.0 - c * c * (Y3.k - 1) * dt / 8.0) * Y3.coords
    se = 0.5 * c * math.sqrt(dt) / math.sqrt(n)
    assert np.all(np.abs(finals.mean(axis=0) - expected) < 5.0 * se)


def test_wf_neutral_vertex_is_absorbing():
    vertex = SimplexPoint([1.0, 0.0, 0.0])
    out, clamped = step_wf_neutral(vertex, 1e-3, 1.0, path_rng(5))
    assert np.array_equal(out.coords, vertex.coords)
    assert not clamped


def test_wf_neutral_conserves_sum_per_step():
    rng = path_rng(6)
    x = X3
    for _ in range(2000):
        x, _ = step_wf_neutral(x, 1e-4, 1.0, rng)
        assert abs(float(x.coords.sum()) - 1.0) < 1e-12


def test_wf_one_step_covariance():
    dt, c, n = 1e-4, 1.0, 100_000
    finals, _ = ensemble_final(Model.WF_NEUTRAL, t=dt, dt=dt, n_paths=n, seed=7,
                               start=X3.coords, c=c)
    deltas = finals - X3.coords[None, :]
    emp = np.cov(deltas.T, ddof=1)
    x = X3.coords
    target = c * c * dt * (np.diag(x) - np.outer(x, x))
    # sample covariance standard error ~ sqrt((C_ii C_jj + C_ij^2)/n)
    for i in range(3):
        for j in range(3):
            se = math.sqrt((target[i, i] * target[j, j] + target[i, j] ** 2) / n)
            assert abs(emp[i, j] - target[i, j]) < 5.0 * se


def test_mutation_drift_sums_to_zero_and_matches_isotropic():
    params = ModelParams(3, 1.0, 0.5)
    drift = params.drift(X3.coords)
    assert abs(drift.sum()) < 1e-15
    # identical increments: mutation at eps = 1/2 equals isotropic at c = 1
    out_m, _ = step_wf_mutation(X3, 1e-3, params, path_rng(8, 0))
    out_i, _ = step_wf_isotropic(X3, 1e-3, 1.0, path_rng(8, 0))
    assert np.allclose(out_m.coords, out_i.coords, rtol=0, atol=1e-14)


def test_isotropic_drift_vanishes_at_barycenter():
    bary = SimplexPoint([1 / 3] * 3)
    out, _ = step_wf_isotropic(bary, 1e-3, 1.0, _ZeroRng())
    assert np.allclose(out.coords, bary.coords, atol=1e-15)


def test_isotropic_interior_rarely_clamps():
    # boundary is attainable at this drift (else the x^{-1/2} stationary
    # density could not diverge), so clamps do happen; measured frequency
    # from the barycenter is a few per thousand steps at dt = 1e-4
    rng = path_rng(9)
    x = SimplexPoint([1 / 3] * 3)
    clamps = 0
    for _ in range(10_000):
        x, clamped = step_wf_isotropic(x, 1e-4, 1.0, rng)
        clamps += clamped
    assert clamps / 10_000 < 2e-2


def test_mutation_moments_near_stationary():
    # Beta(2, 2) stationary law: mean 1/2, variance 1/20
    n = 2000
    finals, diag = ensemble_final(Model.WF_MUTATION, t=4.0, dt=1e-3, n_paths=n,
                                  seed=10, start=np.array([0.5, 0.5]), epsilon=(2.0, 2.0))
    x1 = finals[:, 0]
    assert abs(x1.mean() - 0.5) < 5.0 * math.sqrt(0.05 / n)
    assert abs(x1.var(ddof=1) - 0.05) < 5.0 * 0.05 * math.sqrt(2.0 / n)
    assert diag.max_presum_defect < 1e-12


def test_simulate_path_one_step_and_determinism():
    params = ModelParams(3, 1.0, None)
    rec = simulate_path(Model.SPHERE, [0.0, 0.0, 1.0], 1e-3, 1e-3, params, path_rng(11, 0))
    assert rec.times.size == 2 and rec.times[1] == pytest.approx(1e-3)
    a = simulate_path(Model.WF_ISOTROPIC, X3, 0.02, 1e-3, params, path_rng(12, 5), 4)
    b = simulate_path(Model.WF_ISOTROPIC, X3, 0.02, 1e-3, params, path_rng(12, 5), 4)
    assert np.array_equal(a.states, b.states)
    c = simulate_path(Model.WF_ISOTROPIC, X3, 0.02, 1e-3, params, path_rng(12, 6), 4)
    assert not np.array_equal(a.states, c.states)
    with pytest.raises(ValueError):
        simulate_path(Model.SPHERE, [0.0, 0.0, 1.0], 1e-4, 1e-3, params, path_rng(13))


def test_simulate_path_records_diagnostics():
    params = ModelParams(3, 1.0, None)
    rec = simulate_path(Model.WF_NEUTRAL, X3, 0.1, 1e-3, params, path_rng(14), 10)
    assert rec.max_defect < 1e-12  # simplex sum conservation
    assert rec.clamps[-1] >= 0
    assert rec.states.shape[1] == 3
    sph = simulate_path(Model.SPHERE, [0.0, 0.0, 1.0], 0.1, 1e-3, params, path_rng(15), 10)
    assert 0.0 < sph.mean_defect < 1e-2
    assert sph.max_defect < 1e-1


def test_ensemble_matches_scalar_steps_for_single_path():
    # same Philox stream, same draw order: |difference| is pure roundoff
    seed = 16
    finals, _ = ensemble_final(Model.SPHERE, t=5e-3, dt=1e-3, n_paths=1, seed=seed,
                               start=Y3.coords, c=1.0)
    rng = chunk_rng(seed, 0)
    y = Y3
    for _ in range(5):
        y, _ = step_sphere(y, 1e-3, 1.0, rng)
    assert np.allclose(finals[0], y.coords, rtol=0, atol=1e-13)


def test_ensemble_chunking_is_invariant():
    # path count spanning multiple chunks: same results chunk by chunk
    n = ENSEMBLE_CHUNK + 7
    a, _ = ensemble_final(Model.WF_NEUTRAL, t=1e-3, dt=1e-3, n_paths=n, seed=17,
                          start=X3.coords)
    b, _ = ensemble_final(Model.WF_NEUTRAL, t=1e-3, dt=1e-3, n_paths=n, seed=17,
                          start=X3.coords)
    assert np.array_equal(a, b)


# three chunks, as in the harness's Monte-Carlo shapes
_POOLED = dict(t=2e-4, dt=1e-4, n_paths=2 * ENSEMBLE_CHUNK + 5, seed=23, start=Y3.coords)


def _pool_pids() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def test_pool_is_reused_and_finals_match_serial():
    ref, _ = ensemble_final(Model.SPHERE, workers=1, **_POOLED)
    first, _ = ensemble_final(Model.SPHERE, workers=2, **_POOLED)
    pool, pids = simulate._pool, _pool_pids()
    second, _ = ensemble_final(Model.SPHERE, workers=2, **_POOLED)
    assert simulate._pool is pool
    assert _pool_pids() == pids  # no worker spawned for the second call
    assert first.tobytes() == ref.tobytes()
    assert second.tobytes() == ref.tobytes()


def test_pool_replaced_when_worker_count_changes():
    ensemble_final(Model.SPHERE, workers=2, **_POOLED)
    pool, pids = simulate._pool, _pool_pids()
    finals, _ = ensemble_final(Model.SPHERE, workers=3, **_POOLED)
    assert simulate._pool is not pool
    assert pids.isdisjoint(_pool_pids())  # the old workers were shut down
    ref, _ = ensemble_final(Model.SPHERE, workers=1, **_POOLED)
    assert finals.tobytes() == ref.tobytes()


def test_broken_pool_is_discarded():
    ensemble_final(Model.SPHERE, workers=2, **_POOLED)
    pool = simulate._pool
    pid = pool.submit(os.getpid).result(timeout=60)
    os.kill(pid, SIGKILL)
    # the live worker serves these until the pool notices the dead one
    with pytest.raises(BrokenProcessPool):
        for _ in range(600):
            pool.submit(time.sleep, 0.1).result(timeout=60)
    with pytest.raises(BrokenProcessPool):
        ensemble_final(Model.SPHERE, workers=2, **_POOLED)
    finals, _ = ensemble_final(Model.SPHERE, workers=2, **_POOLED)
    assert simulate._pool is not pool
    ref, _ = ensemble_final(Model.SPHERE, workers=1, **_POOLED)
    assert finals.tobytes() == ref.tobytes()


def test_moran_monomorphic_fixed_point_and_conservation():
    rng = path_rng(18)
    mono = MoranState([100, 0], 1.0)
    assert np.array_equal(moran_step(mono, rng).counts, mono.counts)
    state = MoranState([30, 30, 40], 2.0)
    rec = simulate_moran(state, 5000, rng, record_stride=100)
    assert set(rec.counts.sum(axis=1).tolist()) == {100}
    assert rec.heterozygosity[0] == pytest.approx(1 - (0.3 ** 2 + 0.3 ** 2 + 0.4 ** 2))


def test_moran_event_rate_calibration():
    state = MoranState([50, 50], 1.0)
    assert moran_event_rate(state) == pytest.approx(99.0 / 4.0)


def test_moran_determinism():
    s0 = MoranState([50, 50], 1.0)
    a = simulate_moran(s0, 2000, path_rng(19, 0), 50)
    b = simulate_moran(s0, 2000, path_rng(19, 0), 50)
    assert np.array_equal(a.counts, b.counts)


def test_moran_heterozygosity_decay_smoke():
    # loose version of the diffusion-limit check: N = 50, tau = 2N/lam = 100
    N, lam, reps = 50, 1.0, 120
    s0 = MoranState([25, 25], lam)
    rate = moran_event_rate(s0)
    T = 80.0
    stride = int(round(rate * T / 8))
    events = stride * 8
    H = np.empty((reps, 9))
    times = None
    for r in range(reps):
        rec = simulate_moran(s0, events, path_rng(20, r), stride)
        H[r] = rec.heterozygosity
        times = rec.times
    slope = np.polyfit(times, np.log(H.mean(axis=0)), 1)[0]
    tau = -1.0 / slope
    assert abs(tau / (2 * N / lam) - 1.0) < 0.3


def test_invalid_inputs():
    with pytest.raises(ValueError):
        draw_skew(3, 0.0, path_rng(0))
    with pytest.raises(ValueError):
        MoranState([5], 1.0)
    with pytest.raises(ValueError):
        MoranState([5, 5], 0.0)
    with pytest.raises(ValueError):
        SkewIncrements(3, np.zeros(2))
    with pytest.raises(ValueError):
        simulate_moran(MoranState([5, 5], 1.0), -1, path_rng(0))
