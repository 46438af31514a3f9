import hashlib
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
    advance,
    chunk_rng,
    draw_skew,
    ensemble_final,
    moran_event_rate,
    path_rng,
    simulate_moran,
    simulate_path,
)
from spherewf.types import ModelParams, SimplexPoint, SpherePoint

X3 = SimplexPoint([0.5, 0.3, 0.2])
Y3 = SpherePoint([0.6, -0.64, 0.48])


class _ZeroRng:
    """Stub generator: all normal draws are zero (deterministic drift only)."""

    def standard_normal(self, size=None):
        return np.zeros(size) if size is not None else 0.0


class _IntSizeRng:
    """Generator stand-in that, like a tracing wrapper, offers only
    standard_normal(size) with an int size."""

    def __init__(self, gen: np.random.Generator):
        self._gen = gen

    def standard_normal(self, size):
        assert type(size) is int, f"size {size!r} is not an int"
        return self._gen.standard_normal(size)


def _draw(model, k, dt, c, rng, n=1):
    """One step's increments of n paths of `model`, as the simulators draw them."""
    return draw_skew(k, dt, rng, n, simulate._noise_amplitude(model, c))


def _step(model, x, dt, c, rng, eps=None):
    """One advance of a single point; returns (new point, defect, clamped)."""
    Y = np.array(x, dtype=float).reshape(-1, 1)  # a (k, 1) block
    d, clamped = advance(model, Y, dt, c, eps, _draw(model, len(Y), dt, c, rng))
    return Y[:, 0], float(d[0]), bool(clamped.size)


def _noise_forms(monkeypatch, n: int):
    """Patch the form threshold so that a block of n paths takes the matrix
    noise sum, then the pair loop; yields once per form."""
    for rows in (n, 0):
        monkeypatch.setattr(simulate, "_MATRIX_MAX_ROWS", dict.fromkeys(range(2, 7), rows))
        yield


def test_skew_increment_structure(monkeypatch):
    # one standard_normal call, pair-major: row p is pair _pairs(k)[p]
    k, n, dt = 4, 5, 0.01
    G = draw_skew(k, dt, path_rng(1), n, scale=2.0)
    z = path_rng(1).standard_normal(6 * n)
    assert simulate._pairs(k) == ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))
    assert G.tobytes() == (z.reshape(6, n) * (2.0 * math.sqrt(dt))).tobytes()
    # both noise sums read the draws as the antisymmetric matrix db_ij:
    # with y = e_j, the sphere noise of coordinate i is db_ij
    G = G[:, :1]
    forms = set()
    for _ in _noise_forms(monkeypatch, 1):
        b = np.empty((k, k))
        for j in range(k):
            work = simulate._Work(k, 1)
            work.drift.fill(0.0)
            if work.matrix:  # the matrix form reads the step's scattered draw matrix
                noise, g = simulate._noise_by_matrix, simulate._scatter(G[None], work)[0]
            else:
                noise, g = simulate._noise_by_pairs, G
            b[:, j] = noise(True, np.eye(k)[:, j:j + 1].copy(), g, work)[:, 0]
        forms.add(work.matrix)
        assert np.array_equal(b, -b.T)
        for p, (i, j) in enumerate(simulate._pairs(k)):
            assert b[i, j] == G[p, 0]
    assert forms == {True, False}


def test_skew_increment_variance():
    n = 100_000
    dt = 0.02
    draws = draw_skew(3, dt, path_rng(2), n)[2]  # pair (2, 1)
    var = draws.var(ddof=1)
    # chi-square concentration: relative error ~ sqrt(2/n)
    assert abs(var - dt) < 5.0 * dt * math.sqrt(2.0 / n)


def test_sphere_step_zero_noise_shrinks_then_renormalizes():
    dt, c = 1e-3, 1.0
    y_new, defect, _ = _step(Model.SPHERE, Y3.coords, dt, c, _ZeroRng())
    shrink = 1.0 - c * c * (Y3.k - 1) * dt / 8.0
    assert defect == pytest.approx(abs(shrink ** 2 - 1.0), rel=1e-9)
    assert np.allclose(y_new, Y3.coords, atol=1e-15)  # direction restored


def test_sphere_defect_small_and_mean_drift():
    # a T = 1 path at dt = 1e-4: mean pre-renormalization defect < 1e-3,
    # worst step < 1e-2
    rng = path_rng(3)
    y = Y3.coords
    defects = []
    for _ in range(10_000):
        y, d, _ = _step(Model.SPHERE, y, 1e-4, 1.0, rng)
        defects.append(d)
    assert np.mean(defects) < 1e-3
    assert np.max(defects) < 1e-2
    assert abs(float(y @ y) - 1.0) < 1e-12


def test_sphere_one_step_mean_matches_drift():
    dt, c, n = 1e-3, 1.0, 100_000
    finals, _ = ensemble_final(Model.SPHERE, t=dt, dt=dt, n_paths=n, seed=4,
                               start=Y3.coords, c=c)
    expected = (1.0 - c * c * (Y3.k - 1) * dt / 8.0) * Y3.coords
    se = 0.5 * c * math.sqrt(dt) / math.sqrt(n)
    assert np.all(np.abs(finals.mean(axis=0) - expected) < 5.0 * se)


def test_wf_neutral_vertex_is_absorbing():
    vertex = SimplexPoint([1.0, 0.0, 0.0])
    out, _, clamped = _step(Model.WF_NEUTRAL, vertex.coords, 1e-3, 1.0, path_rng(5))
    assert np.array_equal(out, vertex.coords)
    assert not clamped


def test_wf_neutral_conserves_sum_per_step():
    rng = path_rng(6)
    x = X3.coords
    for _ in range(2000):
        x, _, _ = _step(Model.WF_NEUTRAL, x, 1e-4, 1.0, rng)
        assert abs(float(x.sum()) - 1.0) < 1e-12


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
    drift = params.epsilon - params.epsilon.sum() * X3.coords
    assert abs(drift.sum()) < 1e-15
    # identical increments: mutation at eps = 1/2 equals isotropic at c = 1
    out_m, _, _ = _step(Model.WF_MUTATION, X3.coords, 1e-3, 1.0, path_rng(8, 0), params.epsilon)
    out_i, _, _ = _step(Model.WF_ISOTROPIC, X3.coords, 1e-3, 1.0, path_rng(8, 0))
    assert np.allclose(out_m, out_i, rtol=0, atol=1e-14)


def test_isotropic_drift_vanishes_at_barycenter():
    bary = SimplexPoint([1 / 3] * 3)
    out, _, _ = _step(Model.WF_ISOTROPIC, bary.coords, 1e-3, 1.0, _ZeroRng())
    assert np.allclose(out, bary.coords, atol=1e-15)


def test_isotropic_interior_rarely_clamps():
    # boundary is attainable at this drift (else the x^{-1/2} stationary
    # density could not diverge), so clamps do happen; measured frequency
    # from the barycenter is a few per thousand steps at dt = 1e-4
    rng = path_rng(9)
    x = SimplexPoint([1 / 3] * 3).coords
    clamps = 0
    for _ in range(10_000):
        x, _, clamped = _step(Model.WF_ISOTROPIC, x, 1e-4, 1.0, rng)
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
    for T, dt in ((math.inf, 1e-3), (1e300, 1e-300)):  # T, or T/dt, not finite
        with pytest.raises(ValueError, match="must be finite"):
            simulate_path(Model.SPHERE, [0.0, 0.0, 1.0], T, dt, params, path_rng(13))


def test_step_count_is_bounded():
    # a count above MAX_STEPS is refused before any step is taken
    assert simulate._step_count("f", simulate.MAX_STEPS * 0.5, 0.5, "T") == simulate.MAX_STEPS
    params = ModelParams(3, 1.0, None)
    for T in ((simulate.MAX_STEPS + 1) * 0.5, 1e300):
        with pytest.raises(ValueError, match="exceeds MAX_STEPS"):
            simulate_path(Model.SPHERE, [0.0, 0.0, 1.0], T, 0.5, params, path_rng(13))
    # so is a Moran run with more events, before its first draw (from no generator)
    state = MoranState([50, 50], 1.0)
    for events in (simulate.MAX_STEPS + 1, 10**12):
        with pytest.raises(ValueError, match=r"events = .* is outside \[0, MAX_STEPS"):
            simulate_moran(state, events, None)


def test_simulate_path_records_diagnostics():
    params = ModelParams(3, 1.0, None)
    rec = simulate_path(Model.WF_NEUTRAL, X3, 0.1, 1e-3, params, path_rng(14), 10)
    assert rec.max_defect < 1e-12  # simplex sum conservation
    assert rec.clamps[-1] >= 0
    assert rec.states.shape[1] == 3
    sph = simulate_path(Model.SPHERE, [0.0, 0.0, 1.0], 0.1, 1e-3, params, path_rng(15), 10)
    assert 0.0 < sph.mean_defect < 1e-2
    assert sph.max_defect < 1e-1


def test_single_path_is_an_ensemble_of_one():
    # same stream, same step: a path is a batch of one, byte for byte
    seed = 16
    for model, start, eps in (
            (Model.SPHERE, Y3, None),
            (Model.WF_NEUTRAL, X3, None),
            (Model.WF_MUTATION, SimplexPoint([0.1, 0.2, 0.3, 0.4]), (0.3, 0.5, 0.7, 0.9)),
            (Model.WF_ISOTROPIC, X3, None)):
        params = ModelParams(start.k, 1.3, eps)
        rec = simulate_path(model, start, 0.05, 1e-3, params, chunk_rng(seed, 0))
        finals, diag = ensemble_final(model, t=0.05, dt=1e-3, n_paths=1, seed=seed,
                                      start=start.coords, c=1.3, epsilon=eps)
        assert rec.states[-1].tobytes() == finals[0].tobytes(), model
        assert rec.max_defect == diag.max_defect
        assert rec.clamps[-1] == diag.clamp_fraction * rec.n_steps


def _oracle_path(model, start, n_steps, dt, params, rng):
    """Every step of one path as `advance` takes it on a (k, 1) block, one
    draw per step: (states, defects, cumulative clamps), indexed by step."""
    Y = start.coords.reshape(-1, 1).copy()
    work = simulate._Work(start.k, 1)
    states, defects, clamps = [Y[:, 0].copy()], [0.0], [0]
    for _ in range(n_steps):
        G = _draw(model, start.k, dt, params.c, rng)
        d, clamped = advance(model, Y, dt, params.c, params.epsilon, G, work)
        states.append(Y[:, 0].copy())
        defects.append(float(d[0]))
        clamps.append(clamps[-1] + clamped.size)
    return np.array(states), np.array(defects), np.array(clamps, dtype=np.int64)


def _boundary_start(model, k, rng):
    """A Dirichlet(0.1) point, or on the sphere its square root with random signs."""
    x = rng.dirichlet(np.full(k, 0.1))
    if model is Model.SPHERE:
        return SpherePoint(np.sqrt(x) * rng.choice((-1.0, 1.0), size=k))
    return SimplexPoint(x)


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
def test_single_path_keeps_the_bytes_of_a_batch_of_one(model):
    # simulate_path steps on Python floats with its normals drawn in blocks
    # of _PATH_BLOCK steps; advance on a (k, 1) block, one draw per step, is
    # the oracle.  Strides 1, 7 and 64 (which divides only the block), step
    # counts around the block, starts near the boundary (the simplex runs clamp)
    rng = np.random.default_rng(52)
    block = simulate._PATH_BLOCK
    clamps = 0
    for k in range(2, 11):
        eps = tuple(rng.uniform(0.1, 2.0, k)) if model is Model.WF_MUTATION else None
        params = ModelParams(k, 1.3, eps)
        for n_steps in (1, block - 1, block, block + 1):
            start = _boundary_start(model, k, rng)
            seed = (53, k * 1000 + n_steps)
            ref_gen = path_rng(*seed)
            states, defects, steps_clamped = _oracle_path(model, start, n_steps, 1e-3, params,
                                                          ref_gen)
            mean_defect = 0.0
            for d in defects[1:].tolist():
                mean_defect += d
            mean_defect /= n_steps
            clamps += int(steps_clamped[-1])
            for stride in (1, 7, 64):
                gen = path_rng(*seed)
                rec = simulate_path(model, start, n_steps * 1e-3, 1e-3, params, gen, stride)
                kept = [0] + [s for s in range(1, n_steps + 1)
                              if s % stride == 0 or s == n_steps]
                where = (k, n_steps, stride)
                assert rec.n_steps == n_steps, where
                assert rec.times.tobytes() == np.array([s * 1e-3 for s in kept]).tobytes(), where
                assert rec.states.tobytes() == states[kept].tobytes(), where
                assert rec.defects.tobytes() == defects[kept].tobytes(), where
                assert rec.clamps.tobytes() == steps_clamped[kept].tobytes(), where
                for stat, value in ((rec.mean_defect, mean_defect),
                                    (rec.max_defect, defects.max())):
                    assert type(stat) is float, where
                    assert np.float64(stat).tobytes() == np.float64(value).tobytes(), where
                # the caller's generator is left where one draw per step leaves it
                assert repr(gen.bit_generator.state) == repr(ref_gen.bit_generator.state), where
                probe = path_rng(*seed)
                probe.bit_generator.state = ref_gen.bit_generator.state
                assert gen.standard_normal(5).tobytes() == probe.standard_normal(5).tobytes()
    assert (clamps > 0) == (model is not Model.SPHERE)


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
def test_noise_forms_give_the_same_bytes(model, monkeypatch):
    # the matrix sum (small batches) and the pair loop (large ones) add the
    # same terms in the same order; 20 steps from points near the boundary
    # also take the clamp branch
    rng = np.random.default_rng(40)
    for k in range(2, 9):
        eps = rng.uniform(0.1, 2.0, k)
        for n in (1, 7):
            Y0 = _start_block(model, k, n, rng)
            out = []
            for _ in _noise_forms(monkeypatch, n):  # all matrix, then all pairs
                gen, Y, steps = path_rng(41, k), Y0.copy(), []
                for _ in range(20):
                    G = _draw(model, k, 1e-2, 1.3, gen, n)
                    d, clamped = advance(model, Y, 1e-2, 1.3, eps, G)
                    steps.append((Y.tobytes(), d.tobytes(), clamped.tolist()))
                out.append(steps)
            assert out[0] == out[1], (k, n)


def _start_block(model, k, n, rng):
    """A (k, n) block of random starts: on the sphere, or Dirichlet(0.3)
    points of the simplex, most of them near its boundary."""
    if model is Model.SPHERE:
        Y0 = rng.standard_normal((n, k))
        Y0 /= np.linalg.norm(Y0, axis=1)[:, None]
    else:
        Y0 = rng.dirichlet(np.full(k, 0.3), size=n)
    return np.ascontiguousarray(Y0.T)


# --- the row-major step that the (k, n) layout replaced, kept as the oracle --

def _oracle_noise_by_pairs(sphere, dY, Y, G):
    for p, (i, j) in enumerate(simulate._pairs(Y.shape[1])):
        g = G[p]
        if sphere:
            dY[:, i] += g * Y[:, j]
            dY[:, j] -= g * Y[:, i]
        else:
            amp = np.sqrt(Y[:, i] * Y[:, j])
            dY[:, i] += amp * g
            dY[:, j] -= amp * g
    return dY


def _oracle_noise_by_matrix(sphere, dY, Y, G):
    n, k = Y.shape
    i, j = simulate._pair_index(k)
    T = np.zeros((k + 1, n, k))
    T[0] = dY
    B = T[1:]
    B[j, :, i] = G
    B[i, :, j] = -G
    Yj = Y.T[:, :, None]
    B *= Yj if sphere else np.sqrt(Yj * Y)
    return np.add.reduce(T, axis=0)


def _oracle_advance(model, Y, dt, c, eps, rng):
    """One Euler step of each row of the (n, k) block Y, as a new block;
    returns (new block, defect per row, clamped rows)."""
    n, k = Y.shape
    sphere = model is Model.SPHERE
    if sphere:
        dY = (-c * c / 8.0) * (k - 1.0) * dt * Y
        amp = 0.5 * c
    elif model is Model.WF_NEUTRAL:
        dY = np.zeros_like(Y)
        amp = c
    elif model is Model.WF_MUTATION:
        dY = 0.5 * (eps - float(eps.sum()) * Y) * dt
        amp = 1.0
    else:
        dY = 0.25 * c * c * (1.0 - k * Y) * dt
        amp = c
    G = draw_skew(k, dt, rng, n, amp)
    noise = _oracle_noise_by_matrix if n <= 32 else _oracle_noise_by_pairs
    Y = Y + noise(sphere, dY, Y, G)
    if sphere:
        nrm2 = np.einsum("ij,ij->i", Y, Y)
        Y /= np.sqrt(nrm2)[:, None]
        return Y, np.abs(nrm2 - 1.0), np.empty(0, dtype=np.intp)
    sums = Y.sum(axis=1)
    defect = np.abs(sums - 1.0)
    neg = Y < 0.0
    if not neg.any():
        return Y / sums[:, None], defect, np.empty(0, dtype=np.intp)
    Y = np.clip(Y, 0.0, None)
    return Y / Y.sum(axis=1)[:, None], defect, np.flatnonzero(neg.any(axis=1))


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
def test_step_keeps_the_row_major_bytes(model):
    # k <= 7: every state, defect and clamped row of 20 steps equals the
    # oracle's, byte for byte, from starts near the boundary (the simplex
    # runs clamp); n = 4099 takes the pair loop, the others the form their
    # threshold picks
    rng = np.random.default_rng(48)
    clamps = 0
    for k in range(2, 8):
        eps = rng.uniform(0.1, 2.0, k)
        for n in (1, 7, 33, 4099):
            Y = _start_block(model, k, n, rng)
            ref = np.ascontiguousarray(Y.T)
            gen, ref_gen = path_rng(49, k), path_rng(49, k)
            work = simulate._Work(k, n)
            for step in range(20):
                ref, ref_d, ref_clamped = _oracle_advance(model, ref, 1e-2, 1.3, eps, ref_gen)
                G = _draw(model, k, 1e-2, 1.3, gen, n)
                d, clamped = advance(model, Y, 1e-2, 1.3, eps, G, work)
                assert Y.T.tobytes() == ref.tobytes(), (k, n, step)
                assert d.tobytes() == ref_d.tobytes(), (k, n, step)
                assert clamped.tolist() == ref_clamped.tolist(), (k, n, step)
                clamps += clamped.size
    assert (clamps > 0) == (model is not Model.SPHERE)


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
def test_step_moves_by_roundoff_from_k8(model):
    # k >= 8: the squared norm and the simplex sum take another order than
    # numpy's einsum and row sum did, so each step from the oracle's state
    # moves the state and the defect by at most a few units of roundoff
    rng = np.random.default_rng(50)
    for k in (8, 9, 10):
        eps = rng.uniform(0.1, 2.0, k)
        for n in (1, 7, 33, 4099):
            ref = np.ascontiguousarray(_start_block(model, k, n, rng).T)
            gen, ref_gen = path_rng(51, k), path_rng(51, k)
            for step in range(20):
                Y = np.ascontiguousarray(ref.T)
                ref, ref_d, ref_clamped = _oracle_advance(model, ref, 1e-2, 1.3, eps, ref_gen)
                G = _draw(model, k, 1e-2, 1.3, gen, n)
                d, clamped = advance(model, Y, 1e-2, 1.3, eps, G)
                assert np.abs(Y.T - ref).max() <= 4 * np.finfo(float).eps, (k, n, step)
                assert np.abs(d - ref_d).max() <= 4 * np.finfo(float).eps, (k, n, step)
                assert clamped.tolist() == ref_clamped.tolist(), (k, n, step)


#: sha256 of ensemble_final's finals (t = 0.02, dt = 1e-3, n_paths =
#: ENSEMBLE_CHUNK + 5, seed 47, c = 1.3), as the row-major step gave them
_FINALS_SHA256 = {
    Model.SPHERE: "721553e1d71b2beb119f3dff2dcaffa1407cc5fb5ae962cf330cc9a8f67d5311",
    Model.WF_NEUTRAL: "0747e0b5b9ddde6e38cf7bb7d18398ad7e4492ec83ef1de3141692e536a7741a",
    Model.WF_MUTATION: "66d9c6f7c6e1af37025962095a77397ba048169fc4163b4ff99a3a0921de81b4",
    Model.WF_ISOTROPIC: "94e38a18253c3f7271c684c95ed40a78aec83e9a2acac1ad542ba2b2f255ce72",
}


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
def test_ensemble_finals_keep_their_bytes(model):
    start = [0.6, -0.64, 0.48] if model is Model.SPHERE else [0.02, 0.3, 0.68]
    eps = (0.3, 0.5, 0.7) if model is Model.WF_MUTATION else None
    finals, _ = ensemble_final(model, t=0.02, dt=1e-3, n_paths=ENSEMBLE_CHUNK + 5, seed=47,
                               start=start, c=1.3, epsilon=eps)
    assert finals.shape == (ENSEMBLE_CHUNK + 5, 3) and finals.flags.c_contiguous
    assert hashlib.sha256(finals.tobytes()).hexdigest() == _FINALS_SHA256[model]


def _oracle_run_chunk(model, start, n_steps, dt, c, eps, rng, size):
    # the chunk loop before block draws, kept as the oracle: one draw_skew
    # call per step, one d.sum() and one d.max() per step
    k = len(start)
    Y = np.repeat(start[:, None], size, axis=1)
    work = simulate._Work(k, size)
    defect_sum = defect_max = 0.0
    clamp_events = 0
    for _ in range(n_steps):
        G = _draw(model, k, dt, c, rng, size)
        d, clamped = advance(model, Y, dt, c, eps, G, work)
        defect_sum += float(d.sum())
        defect_max = max(defect_max, float(d.max()))
        clamp_events += clamped.size
    return Y, defect_sum, defect_max, clamp_events


#: chunk size -> step count that leaves a remainder block (B = _PATH_BLOCK
#: // size steps per draw: 256, 16, 2, then 1 for a full chunk)
_CHUNK_STEPS = {1: 300, 16: 37, 100: 5, ENSEMBLE_CHUNK: 3}


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
def test_block_drawn_chunks_keep_the_one_draw_per_step_bytes(model, monkeypatch):
    # a chunk draws B steps per draw_skew call, and on the matrix form
    # scatters them at once; the loop with one draw per step is the oracle
    # of its finals, its three diagnostics and the generator's state after
    # the run.  Starts near the boundary, c = 1.3: the simplex chunks clamp.
    # A defect is a multiple of 2^-53, so a defect sum below 1 is exact in
    # any order; dt = 1e-2 takes the sphere's sums past 1, where the order
    # of the additions shows.  At k = 3 and 6 also 7 paths and either side
    # of the form threshold, from Dirichlet(0.3) starts, over a partial
    # last block
    rng = np.random.default_rng(61)
    clamps = 0
    for k in (2, 3, 6, 8):
        eps = rng.uniform(0.1, 2.0, k) if model is Model.WF_MUTATION else None
        sizes = [(size, n_steps, False) for size, n_steps in _CHUNK_STEPS.items()]
        if k in (3, 6):
            rows = simulate._MATRIX_MAX_ROWS[k]
            for size in (7, rows, rows + 1):
                block = max(1, simulate._PATH_BLOCK // size)
                sizes.append((size, block + max(1, block // 2), True))
        for size, n_steps, dirichlet in sizes:
            start = (_start_block(model, k, 1, rng)[:, 0] if dirichlet
                     else _boundary_start(model, k, rng).coords)
            seed = int(rng.integers(2**32))
            gen = chunk_rng(seed, 5)
            monkeypatch.setattr(simulate, "chunk_rng", lambda s, i: gen)
            Y, *diag = simulate._run_chunk(model, start, n_steps, 1e-2, 1.3, eps, seed, (5, size))
            monkeypatch.undo()
            ref_gen = chunk_rng(seed, 5)
            ref_Y, *ref_diag = _oracle_run_chunk(model, start, n_steps, 1e-2, 1.3, eps, ref_gen,
                                                 size)
            assert Y.tobytes() == ref_Y.tobytes(), (k, size)
            assert diag == ref_diag, (k, size)
            assert gen.standard_normal() == ref_gen.standard_normal(), (k, size)
            clamps += diag[2]
    assert (clamps > 0) == (model is not Model.SPHERE)


def test_trace_hooks_see_one_draw_per_step(monkeypatch):
    # a tracer wraps simulate.draw_skew and times standard_normal(int) calls
    # on the generators of simulate.chunk_rng; both must keep working
    calls = []
    draw = simulate.draw_skew

    def hook(*args, **kwargs):
        G = draw(*args, **kwargs)
        calls.append(G.size)
        return G

    def same_bytes(rec, ref):
        for name in ("times", "states", "defects", "clamps"):
            assert getattr(rec, name).tobytes() == getattr(ref, name).tobytes(), name
        assert (rec.mean_defect, rec.max_defect) == (ref.mean_defect, ref.max_defect)

    params = ModelParams(4, 1.0, (0.3, 0.5, 0.7, 0.9))
    for model, start in ((Model.SPHERE, [0.5, 0.5, 0.5, 0.5]),
                         (Model.WF_MUTATION, [0.1, 0.2, 0.3, 0.4])):
        ref = simulate_path(model, start, 0.3, 1e-3, params, path_rng(42))
        calls.clear()
        monkeypatch.setattr(simulate, "draw_skew", hook)
        rec = simulate_path(model, start, 0.3, 1e-3, params, _IntSizeRng(path_rng(42)))
        monkeypatch.undo()
        # a single path draws its steps' normals in blocks: the hooked calls
        # draw every step's k(k-1)/2 normals, and the record keeps its bytes
        assert rec.n_steps == 300 and len(calls) > 1
        assert sum(calls) == rec.n_steps * 6
        same_bytes(rec, ref)
        # so does each path of a batch, from its own int-size generator
        P = 3
        refs = simulate._simulate_paths(model, start, 0.3, 1e-3, params,
                                        [path_rng(42, r) for r in range(P)], 1)
        calls.clear()
        monkeypatch.setattr(simulate, "draw_skew", hook)
        recs = simulate._simulate_paths(model, start, 0.3, 1e-3, params,
                                        [_IntSizeRng(path_rng(42, r)) for r in range(P)], 1)
        monkeypatch.undo()
        assert len(recs) == P and len(calls) > 1
        assert sum(calls) == P * 300 * 6
        for rec, ref in zip(recs, refs):
            same_bytes(rec, ref)
    kw = dict(t=5e-3, dt=1e-3, n_paths=ENSEMBLE_CHUNK + 3, seed=43, start=X3.coords,
              epsilon=(0.3, 0.5, 0.7), workers=1)
    ref, _ = ensemble_final(Model.WF_MUTATION, **kw)
    monkeypatch.setattr(simulate, "chunk_rng", lambda seed, i: _IntSizeRng(chunk_rng(seed, i)))
    finals, _ = ensemble_final(Model.WF_MUTATION, **kw)
    assert finals.tobytes() == ref.tobytes()
    # a small chunk draws blocks of steps, still one int-size draw a call:
    # 16 paths take 16 steps a call, so 37 steps take 3 calls
    kw.update(t=0.037, n_paths=16)
    monkeypatch.undo()
    ref, _ = ensemble_final(Model.WF_MUTATION, **kw)
    calls.clear()
    monkeypatch.setattr(simulate, "chunk_rng", lambda seed, i: _IntSizeRng(chunk_rng(seed, i)))
    monkeypatch.setattr(simulate, "draw_skew", hook)
    finals, _ = ensemble_final(Model.WF_MUTATION, **kw)
    assert len(calls) == 3 and sum(calls) == 37 * 3 * 16
    assert finals.tobytes() == ref.tobytes()


@pytest.mark.parametrize("change, message", [
    (dict(n_paths=0), "n_paths"),
    (dict(n_paths=2.5), "n_paths must be a whole number, got 2.5"),
    (dict(model=Model.WF_MUTATION, start=X3.coords, epsilon=None), "needs epsilon"),
    (dict(start=[1.2, 1.6, 0.0]), "squared norm"),  # norm 2
    (dict(model=Model.WF_NEUTRAL, start=[0.6, 0.6]), "sum to"),
    (dict(c=0.0), "c must be"),
    (dict(model=Model.WF_MUTATION, start=X3.coords, epsilon=(0.5, 0.5)), "length k=3"),
    (dict(t=math.inf), "must be finite"),
    (dict(t=1e300, dt=1e-300), "must be finite"),  # t/dt overflows
    (dict(t=1e300, dt=1e-4), "MAX_STEPS"),
], ids=["no-paths", "fractional-paths", "mutation-without-epsilon", "start-norm-2",
        "start-off-simplex", "c-zero", "epsilon-length", "t-inf", "steps-overflow",
        "steps-above-bound"])
def test_ensemble_final_rejects_invalid_input(change, message):
    kw = dict(model=Model.SPHERE, t=1e-3, dt=1e-3, n_paths=3, seed=44, start=Y3.coords,
              c=1.0, epsilon=None)
    kw.update(change)
    with pytest.raises(ValueError, match=message):
        ensemble_final(kw.pop("model"), **kw)


def test_counts_and_strides_must_be_whole_numbers():
    # a fractional count used to end in a TypeError, and a fractional stride
    # recorded by step % 2.5 (a Moran run kept only its start record)
    state, params = MoranState([5, 5], 1.0), ModelParams(3, 1.0, None)
    with pytest.raises(ValueError, match="simulate_moran: events must be a whole number"):
        simulate_moran(state, 2.5, path_rng(0))
    with pytest.raises(ValueError, match="simulate_moran: record_stride must be a whole number"):
        simulate_moran(state, 4, path_rng(0), record_stride=2.5)
    with pytest.raises(ValueError, match="simulate_path: record_stride must be a whole number"):
        simulate_path(Model.SPHERE, Y3, 1e-3, 1e-3, params, path_rng(0), 2.5)
    # ints and numpy ints count as they did (a fractional n_paths is an
    # input of test_ensemble_final_rejects_invalid_input)
    a = simulate_moran(state, np.int64(40), path_rng(1), record_stride=np.int32(3))
    b = simulate_moran(state, 40, path_rng(1), record_stride=3)
    assert a.event_index.tolist() == b.event_index.tolist() == [*range(0, 40, 3), 40]
    assert a.counts.tobytes() == b.counts.tobytes()
    a = simulate_path(Model.SPHERE, Y3, 0.01, 1e-3, params, path_rng(2), np.int64(4))
    b = simulate_path(Model.SPHERE, Y3, 0.01, 1e-3, params, path_rng(2), 4)
    assert a.times.tolist() == b.times.tolist() and a.states.tobytes() == b.states.tobytes()
    a, _ = ensemble_final(Model.SPHERE, t=1e-3, dt=1e-3, n_paths=np.int64(3), seed=3,
                          start=Y3.coords)
    b, _ = ensemble_final(Model.SPHERE, t=1e-3, dt=1e-3, n_paths=3, seed=3, start=Y3.coords)
    assert a.tobytes() == b.tobytes()


def test_ensemble_starts_from_the_callers_bytes(monkeypatch):
    # inside RENORMALIZE_TOL the start is accepted and used as given
    start = Y3.coords * (1.0 + 1e-12)
    seen = []
    steps = simulate._steps  # one call per draw block, before its first step
    monkeypatch.setattr(simulate, "_steps",
                        lambda m, Y, *a: seen.append(Y.T.copy()) or steps(m, Y, *a))
    ensemble_final(Model.SPHERE, t=1e-3, dt=1e-3, n_paths=2, seed=45, start=start)
    assert len(seen) == 1
    assert seen[0].tobytes() == np.tile(start, (2, 1)).tobytes()


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
    mono = simulate_moran(MoranState([100, 0], 1.0), 50, rng)
    assert np.all(mono.counts == [100, 0])
    state = MoranState([30, 30, 40], 2.0)
    rec = simulate_moran(state, 5000, rng, record_stride=100)
    assert set(rec.counts.sum(axis=1).tolist()) == {100}
    assert rec.heterozygosity[0] == pytest.approx(1 - (0.3 ** 2 + 0.3 ** 2 + 0.4 ** 2))


def _oracle_moran_event(counts, N, u1, u2, u3):
    # the numpy-scalar event of the first Moran implementation, kept as the oracle
    target = u1 * N
    acc = 0.0
    for a in range(counts.size):
        acc += counts[a]
        if target < acc:
            break
    target = u2 * (N - 1)
    acc = 0.0
    for b in range(counts.size):
        acc += counts[b] - (1 if b == a else 0)
        if target < acc:
            break
    if a == b:
        return
    winner, loser = (a, b) if u3 < 0.5 else (b, a)
    counts[winner] += 1
    counts[loser] -= 1


def _oracle_simulate_moran(state, events, rng, record_stride=1):
    # the first implementation's loop: one (events, 3) draw, numpy int64 counts
    counts = state.counts.copy()
    N = state.N
    idx = [0]
    rows = [counts.copy()]
    u = rng.random((events, 3))
    for ev in range(1, events + 1):
        _oracle_moran_event(counts, N, u[ev - 1, 0], u[ev - 1, 1], u[ev - 1, 2])
        if ev % record_stride == 0 or ev == events:
            idx.append(ev)
            rows.append(counts.copy())
    counts_arr = np.array(rows, dtype=np.int64)
    x = counts_arr / N
    idx_arr = np.array(idx, dtype=np.int64)
    return (idx_arr, idx_arr / moran_event_rate(state), counts_arr,
            1.0 - (x * x).sum(axis=1))


_MORAN_CASES = [
    ([50, 50], 2000, 50),
    ([1, 1], 300, 1),  # N = 2
    ([100, 0], 400, 7),  # the monomorphic fixed point
    ([30, 0, 70], 999, 100),  # a zero count; events not a multiple of the stride
    ([5, 7, 9, 11], 500, 1),
    ([3, 0, 4, 8, 1], 600, 13),
    ([2, 9, 4, 0, 6, 3], 700, 5),  # k = 6
    ([40, 60], 0, 3),  # no events
    ([40, 60], 25, 40),  # stride larger than events
    ([250] * 4, 2 * simulate._MORAN_BLOCK + 37, 124),  # more than one draw block
    # records at block ends and inside blocks, the last at the last block's end
    ([10, 20, 0, 30, 40], 3 * simulate._MORAN_BLOCK, simulate._MORAN_BLOCK // 2),
    # two types, which step one count: both fixed points and one particle from
    # each, N = 2 and N = 3, more than one draw block, records at block ends
    # and no events
    ([0, 100], 400, 7),
    ([1, 99], 500, 3),
    ([99, 1], 500, 3),
    ([0, 2], 50, 1),
    ([1, 2], 300, 1),
    ([2, 1], 300, 4),
    ([600, 401], 2 * simulate._MORAN_BLOCK + 37, 124),
    ([30, 70], 3 * simulate._MORAN_BLOCK, simulate._MORAN_BLOCK // 2),
    ([1, 99], 0, 1),
]


@pytest.mark.parametrize("seed", [0, 7, 31])
@pytest.mark.parametrize("counts,events,stride", _MORAN_CASES)
def test_moran_matches_the_numpy_scalar_loop_bytes(counts, events, stride, seed):
    state = MoranState(counts, 1.5)
    rng, ref_rng = path_rng(seed, 3), path_rng(seed, 3)
    rec = simulate_moran(state, events, rng, stride)
    ref = _oracle_simulate_moran(state, events, ref_rng, stride)
    got = (rec.event_index, rec.times, rec.counts, rec.heterozygosity)
    for field, a, b in zip(("event_index", "times", "counts", "heterozygosity"), got, ref):
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field
    # the block draws leave the generator where the one draw did
    assert rng.random() == ref_rng.random()


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
        simulate_moran(MoranState([5, 5], 1.0), -1, path_rng(0))
    with pytest.raises(ValueError):
        simulate_moran(MoranState([5, 5], 1.0), 10, path_rng(0), record_stride=0)
    # counts are not truncated to integers
    for counts in ([50.5, 50], [np.nan, 5], [np.inf, 5], [1e30, 5]):
        with pytest.raises(ValueError, match="whole numbers"):
            MoranState(counts, 1.0)
    assert MoranState([50.0, 50], 1.0).counts.tolist() == [50, 50]
    with pytest.raises(ValueError):
        MoranState([5, 5], math.inf)
