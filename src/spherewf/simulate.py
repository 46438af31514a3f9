"""Stochastic simulators: skew Brownian driver, Euler steppers, Moran model.

All continuous models are driven by the same antisymmetric family of
Brownian increments db_ij (i > j independent, db_ji = -db_ij, variance
dt per step):

* sphere:     dy_i = -(c^2/8)(k-1) y_i dt + (c/2) sum_j y_j db_ij
* WF neutral: dx_i = sum_{j != i} c sqrt(x_i x_j) db_ij
* WF isotropic (the square-map image of the sphere model):
              dx_i = (c^2/4)(1 - k x_i) dt + sum_j c sqrt(x_i x_j) db_ij
* WF mutation: dx_i = (1/2)(eps_i - mu x_i) dt + sum_j sqrt(x_i x_j) db_ij

TIME NORMALIZATION (pinned here, used everywhere): the mutation model
carries the drift factor 1/2 and unit noise scale, so that (i) its
generator at eps_i = 1/2 coincides exactly with the isotropic model at
c = 1, (ii) its stationary law is Dirichlet(eps), and (iii) its
eigenvalues are n(n-1)/2 + mu*n/2, matching the exact expansion in
`wf_density`.

Boundary policy for the simplex steppers: negative coordinates are
clamped to zero and the vector renormalized; the clamp event is
reported.  The sphere stepper renormalizes every step (projection
Euler) and reports the pre-renormalization defect |norm(y_raw)^2 - 1|.

RNG: counter-based Philox4x64-10 (numpy.random.Philox).  Single paths
use key = (master_seed, path_index); vectorized ensembles use one
stream per fixed-size chunk of paths, key = (master_seed,
2^63 + chunk_index), so results are independent of the worker count.

The Moran model is simulated in the pair-interaction form: an event
picks an unordered pair of particles uniformly; a discordant pair
becomes monomorphic for either type with probability 1/2.  Matching the
per-unit-time covariance c^2 x_i (delta_ij - x_j) with c = sqrt(lam/(2N))
requires each unordered pair to interact at rate lam/(2N), i.e. a total
event rate of lam (N-1)/4; `moran_event_rate` exposes that mapping.
"""

from __future__ import annotations

import atexit
import enum
import math
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import lru_cache
from multiprocessing import get_context

import numpy as np

from .types import ModelParams, SimplexPoint, SpherePoint

__all__ = [
    "Model",
    "SkewIncrements",
    "PathRecord",
    "MoranState",
    "MoranRecord",
    "EnsembleDiagnostics",
    "draw_skew",
    "step_sphere",
    "step_wf_neutral",
    "step_wf_mutation",
    "step_wf_isotropic",
    "simulate_path",
    "ensemble_final",
    "pool_map",
    "path_rng",
    "chunk_rng",
    "moran_event_rate",
    "moran_step",
    "simulate_moran",
    "ENSEMBLE_CHUNK",
    "DEFAULT_SEED",
]

_MASK64 = (1 << 64) - 1
_ENSEMBLE_SALT = 1 << 63
ENSEMBLE_CHUNK = 4096
#: master seed of the CLI and the verification suites when none is given
DEFAULT_SEED = 123456789


class Model(str, enum.Enum):
    SPHERE = "sphere"
    WF_NEUTRAL = "wf-neutral"
    WF_MUTATION = "wf-mutation"
    WF_ISOTROPIC = "wf-isotropic"


def path_rng(master_seed: int, path_index: int = 0) -> np.random.Generator:
    """Philox4x64-10 stream derived from (master_seed, path_index).

    The key is produced by SeedSequence's entropy mixing rather than used
    raw: families of streams with small consecutive raw keys showed
    measurable cross-stream correlation in ensemble statistics.
    """
    ss = np.random.SeedSequence(entropy=(master_seed & _MASK64, path_index & _MASK64))
    return np.random.Generator(np.random.Philox(seed=ss))


def chunk_rng(master_seed: int, chunk_index: int) -> np.random.Generator:
    """Ensemble stream for one chunk of paths (salted keyspace)."""
    ss = np.random.SeedSequence(
        entropy=(master_seed & _MASK64, _ENSEMBLE_SALT, chunk_index & _MASK64)
    )
    return np.random.Generator(np.random.Philox(seed=ss))


@lru_cache(maxsize=None)
def _pairs(k: int) -> tuple[tuple[int, int], ...]:
    # (i, j) with i > j, in the flat storage order of SkewIncrements
    return tuple((i, j) for i in range(1, k) for j in range(i))


@dataclass(frozen=True, eq=False)
class SkewIncrements:
    """One step's antisymmetric Brownian increments.

    Only the k(k-1)/2 entries with i > j are stored; db(i, j) = -db(j, i)
    holds exactly by construction.
    """

    k: int
    upper: np.ndarray

    def __post_init__(self):
        if self.upper.shape != (self.k * (self.k - 1) // 2,):
            raise ValueError("SkewIncrements: storage length must be k(k-1)/2")

    def db(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        if i > j:
            return float(self.upper[i * (i - 1) // 2 + j])
        return -float(self.upper[j * (j - 1) // 2 + i])

    def matrix(self) -> np.ndarray:
        b = np.zeros((self.k, self.k))
        for idx, (i, j) in enumerate(_pairs(self.k)):
            b[i, j] = self.upper[idx]
            b[j, i] = -self.upper[idx]
        return b


def draw_skew(k: int, dt: float, rng: np.random.Generator) -> SkewIncrements:
    """k(k-1)/2 independent Normal(0, dt) draws, one per unordered pair."""
    if not (dt > 0.0):
        raise ValueError("draw_skew: dt must be > 0")
    upper = rng.standard_normal(k * (k - 1) // 2) * math.sqrt(dt)
    upper.flags.writeable = False
    return SkewIncrements(k, upper)


# --- single-step integrators --------------------------------------------

def _sphere_raw(y: np.ndarray, dt: float, c: float, b: np.ndarray) -> np.ndarray:
    k = y.size
    return y + (-c * c / 8.0) * (k - 1.0) * y * dt + 0.5 * c * (b @ y)


def step_sphere(y: SpherePoint, dt: float, c: float,
                rng: np.random.Generator) -> tuple[SpherePoint, float]:
    """One Euler step of the sphere diffusion, renormalized to the sphere.

    Returns (new point, defect) with defect = |norm(raw)^2 - 1| measured
    before renormalization.
    """
    b = draw_skew(y.k, dt, rng).matrix()
    raw = _sphere_raw(y.coords, dt, c, b)
    sq = float(raw @ raw)
    return SpherePoint(raw / math.sqrt(sq)), abs(sq - 1.0)


def _wf_noise(x: np.ndarray, b: np.ndarray, scale: float) -> np.ndarray:
    # row sums of scale * sqrt(x_i x_j) * b_ij; the (i,j)/(j,i) contributions
    # cancel exactly in the total because b is antisymmetric
    g = np.sqrt(np.outer(x, x))
    return scale * (g * b).sum(axis=1)


def _clamp_simplex(raw: np.ndarray) -> tuple[np.ndarray, bool, float]:
    presum = abs(float(raw.sum()) - 1.0)
    clamped = bool(raw.min() < 0.0)
    if clamped:
        raw = np.clip(raw, 0.0, None)
    return raw / raw.sum(), clamped, presum


def step_wf_neutral(x: SimplexPoint, dt: float, c: float,
                    rng: np.random.Generator) -> tuple[SimplexPoint, bool]:
    """One Euler step of the neutral model; returns (new point, clamped)."""
    b = draw_skew(x.k, dt, rng).matrix()
    raw = x.coords + _wf_noise(x.coords, b, c)
    out, clamped, _ = _clamp_simplex(raw)
    return SimplexPoint(out), clamped


def step_wf_mutation(x: SimplexPoint, dt: float, params: ModelParams,
                     rng: np.random.Generator) -> tuple[SimplexPoint, bool]:
    """One Euler step with mutation drift (1/2)(eps_i - mu x_i) and unit noise.

    The noise scale is fixed at 1 here; see the module docstring for the
    time normalization.  params.c is not used by this stepper.
    """
    b = draw_skew(x.k, dt, rng).matrix()
    raw = x.coords + 0.5 * params.drift(x.coords) * dt + _wf_noise(x.coords, b, 1.0)
    out, clamped, _ = _clamp_simplex(raw)
    return SimplexPoint(out), clamped


def step_wf_isotropic(x: SimplexPoint, dt: float, c: float,
                      rng: np.random.Generator) -> tuple[SimplexPoint, bool]:
    """One Euler step of the square-map image of the sphere diffusion."""
    b = draw_skew(x.k, dt, rng).matrix()
    k = x.k
    raw = x.coords + 0.25 * c * c * (1.0 - k * x.coords) * dt + _wf_noise(x.coords, b, c)
    out, clamped, _ = _clamp_simplex(raw)
    return SimplexPoint(out), clamped


# --- paths ----------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PathRecord:
    """Strided record of one path with per-step diagnostics.

    defects[i] is the pre-fix defect at the recorded step (radius defect
    for the sphere model, |sum x - 1| pre-clamp for simplex models);
    clamps[i] is the cumulative clamp count.  mean_defect/max_defect are
    over every integration step, recorded or not.
    """

    model: Model
    dt: float
    times: np.ndarray
    states: np.ndarray
    defects: np.ndarray
    clamps: np.ndarray
    mean_defect: float
    max_defect: float
    n_steps: int


def simulate_path(model: Model, start, T: float, dt: float, params: ModelParams,
                  rng: np.random.Generator, record_stride: int = 1) -> PathRecord:
    """Iterate the chosen stepper for round(T/dt) steps.

    Records the initial state and every record_stride-th step (the final
    step is always recorded).  Deterministic given the generator state.
    """
    if not (T > 0.0 and dt > 0.0):
        raise ValueError("simulate_path: need T > 0 and dt > 0")
    if dt > T:
        raise ValueError("simulate_path: dt exceeds T")
    if record_stride < 1:
        raise ValueError("simulate_path: record_stride must be >= 1")
    n_steps = max(1, int(round(T / dt)))
    model = Model(model)
    k = params.k

    if model is Model.SPHERE:
        state = start if isinstance(start, SpherePoint) else SpherePoint(start)
    else:
        state = start if isinstance(start, SimplexPoint) else SimplexPoint(start)
    if state.k != k:
        raise ValueError("simulate_path: start dimension does not match params.k")

    times = [0.0]
    states = [state.coords.copy()]
    defects = [0.0]
    clamps = [0]
    clamp_count = 0
    defect_sum = 0.0
    defect_max = 0.0

    for step in range(1, n_steps + 1):
        b = draw_skew(k, dt, rng).matrix()
        if model is Model.SPHERE:
            raw = _sphere_raw(state.coords, dt, params.c, b)
            sq = float(raw @ raw)
            defect = abs(sq - 1.0)
            state = SpherePoint(raw / math.sqrt(sq))
            clamped = False
        else:
            if model is Model.WF_NEUTRAL:
                raw = state.coords + _wf_noise(state.coords, b, params.c)
            elif model is Model.WF_MUTATION:
                raw = state.coords + 0.5 * params.drift(state.coords) * dt \
                    + _wf_noise(state.coords, b, 1.0)
            else:
                raw = state.coords + 0.25 * params.c ** 2 * (1.0 - k * state.coords) * dt \
                    + _wf_noise(state.coords, b, params.c)
            out, clamped, defect = _clamp_simplex(raw)
            state = SimplexPoint(out)
        clamp_count += int(clamped)
        defect_sum += defect
        defect_max = max(defect_max, defect)
        if step % record_stride == 0 or step == n_steps:
            times.append(step * dt)
            states.append(state.coords.copy())
            defects.append(defect)
            clamps.append(clamp_count)

    return PathRecord(
        model=model,
        dt=dt,
        times=np.array(times),
        states=np.array(states),
        defects=np.array(defects),
        clamps=np.array(clamps, dtype=np.int64),
        mean_defect=defect_sum / n_steps,
        max_defect=defect_max,
        n_steps=n_steps,
    )


# --- worker pool -------------------------------------------------------------
# A spawned worker starts by importing the package, which costs far more
# than a typical chunk, so one pool serves every pooled call of the process.

_pool: ProcessPoolExecutor | None = None
_pool_workers = 0
_pool_lock = threading.Lock()


def _shutdown_pool(pool: ProcessPoolExecutor | None = None) -> None:
    """Shut the shared pool down; given `pool`, only if it is still the shared one."""
    global _pool
    with _pool_lock:
        if _pool is not None and (pool is None or pool is _pool):
            _pool.shutdown()
            _pool = None


atexit.register(_shutdown_pool)


def pool_map(fn, jobs: list, workers: int) -> list:
    """[fn(job) for job in jobs], on the process's shared spawn pool when
    workers > 1 and there is more than one job.

    The pool is made on the first pooled call, reused while `workers`
    stays the same, replaced when it changes and shut down at exit.  A
    pool broken by a dead worker raises BrokenProcessPool and is
    discarded, so the next call starts on a fresh one.  `fn` must be a
    module-level function, since spawned workers import it by name.
    """
    global _pool, _pool_workers
    if workers <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with _pool_lock:
        if _pool is None or _pool_workers != workers:
            if _pool is not None:
                _pool.shutdown()
            _pool = ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn"))
            _pool_workers = workers
        pool = _pool
    try:
        return list(pool.map(fn, jobs))
    except BrokenProcessPool:
        _shutdown_pool(pool)
        raise


# --- vectorized ensembles --------------------------------------------------

@dataclass(frozen=True)
class EnsembleDiagnostics:
    mean_defect: float
    max_defect: float
    max_presum_defect: float
    clamp_fraction: float
    n_steps: int


def _run_chunk(model: Model, Y: np.ndarray, n_steps: int, dt: float, c: float,
               eps: np.ndarray | None, rng: np.random.Generator):
    """Advance a (n, k) block n_steps; returns (final, defect_sum, defect_max,
    presum_max, clamp_events)."""
    n, k = Y.shape
    sq_dt = math.sqrt(dt)
    pairs = _pairs(k)
    defect_sum = 0.0
    defect_max = 0.0
    presum_max = 0.0
    clamp_events = 0
    if model is Model.WF_MUTATION:
        mu = float(eps.sum())
    for _ in range(n_steps):
        if model is Model.SPHERE:
            dY = (-c * c / 8.0) * (k - 1.0) * dt * Y
        elif model is Model.WF_NEUTRAL:
            dY = np.zeros_like(Y)
        elif model is Model.WF_MUTATION:
            dY = 0.5 * (eps[None, :] - mu * Y) * dt
        else:
            dY = 0.25 * c * c * (1.0 - k * Y) * dt
        if model is Model.SPHERE:
            for (i, j) in pairs:
                g = rng.standard_normal(n) * (0.5 * c * sq_dt)
                dY[:, i] += g * Y[:, j]
                dY[:, j] -= g * Y[:, i]
            Y = Y + dY
            nrm2 = np.einsum("ij,ij->i", Y, Y)
            d = np.abs(nrm2 - 1.0)
            defect_sum += float(d.sum())
            defect_max = max(defect_max, float(d.max()))
            Y /= np.sqrt(nrm2)[:, None]
        else:
            scale = 1.0 if model is Model.WF_MUTATION else c
            for (i, j) in pairs:
                g = rng.standard_normal(n) * (scale * sq_dt)
                amp = np.sqrt(Y[:, i] * Y[:, j])
                dY[:, i] += amp * g
                dY[:, j] -= amp * g
            Y = Y + dY
            sums = Y.sum(axis=1)
            d = np.abs(sums - 1.0)
            presum_max = max(presum_max, float(d.max()))
            defect_sum += float(d.sum())
            defect_max = max(defect_max, float(d.max()))
            neg = Y < 0.0
            rows = neg.any(axis=1)
            if rows.any():
                clamp_events += int(rows.sum())
                Y = np.clip(Y, 0.0, None)
                sums = Y.sum(axis=1)
            Y = Y / sums[:, None]
    return Y, defect_sum, defect_max, presum_max, clamp_events


def _ensemble_worker(args):
    (model_value, start, n_chunk, n_steps, dt, c, eps, seed, chunk_index) = args
    model = Model(model_value)
    start = np.asarray(start, dtype=float)
    Y = np.tile(start, (n_chunk, 1))
    rng = chunk_rng(seed, chunk_index)
    eps_arr = None if eps is None else np.asarray(eps, dtype=float)
    return _run_chunk(model, Y, n_steps, dt, c, eps_arr, rng)


def ensemble_final(model: Model, *, t: float, dt: float, n_paths: int, seed: int,
                   start, c: float = 1.0, epsilon=None, workers: int = 1,
                   chunk: int = ENSEMBLE_CHUNK) -> tuple[np.ndarray, EnsembleDiagnostics]:
    """Final states of n_paths independent paths at time t (vectorized).

    Paths are partitioned into fixed-size chunks, each with its own
    Philox stream keyed by (seed, chunk index), so the result does not
    depend on `workers`.  With workers > 1 the chunks run on the shared
    process pool (see `pool_map`).  Returns (states (n_paths, k), diagnostics).
    """
    model = Model(model)
    if not (t > 0.0 and dt > 0.0 and dt <= t):
        raise ValueError("ensemble_final: need 0 < dt <= t")
    n_steps = max(1, int(round(t / dt)))
    start = np.asarray(start, dtype=float)
    jobs = []
    i = 0
    idx = 0
    while i < n_paths:
        n_chunk = min(chunk, n_paths - i)
        jobs.append((model.value, tuple(start), n_chunk, n_steps, dt, c,
                     None if epsilon is None else tuple(np.asarray(epsilon, dtype=float)),
                     seed, idx))
        i += n_chunk
        idx += 1
    results = pool_map(_ensemble_worker, jobs, workers)
    finals = np.concatenate([r[0] for r in results], axis=0)
    total_steps = n_paths * n_steps
    diag = EnsembleDiagnostics(
        mean_defect=sum(r[1] for r in results) / total_steps,
        max_defect=max(r[2] for r in results),
        max_presum_defect=max(r[3] for r in results),
        clamp_fraction=sum(r[4] for r in results) / total_steps,
        n_steps=n_steps,
    )
    return finals, diag


# --- Moran / interacting-particle model ------------------------------------

@dataclass(frozen=True, eq=False)
class MoranState:
    """Allele counts of an N-particle population plus the rate parameter lam."""

    counts: np.ndarray
    lam: float

    def __init__(self, counts, lam: float):
        arr = np.array(counts, dtype=np.int64)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("MoranState: counts must be a vector of length >= 2")
        if arr.min() < 0 or arr.sum() < 2:
            raise ValueError("MoranState: counts must be >= 0 and total >= 2")
        if not (lam > 0.0):
            raise ValueError("MoranState: lam must be > 0")
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)
        object.__setattr__(self, "lam", float(lam))

    @property
    def N(self) -> int:
        return int(self.counts.sum())

    @property
    def k(self) -> int:
        return self.counts.size

    def heterozygosity(self) -> float:
        x = self.counts / self.N
        return float(1.0 - (x * x).sum())


def moran_event_rate(state: MoranState) -> float:
    """Events per unit model time: lam * (N - 1) / 4.

    Each unordered pair interacts at rate lam/(2N); summing over the
    N(N-1)/2 pairs gives lam(N-1)/4.  Under this clock the diffusion
    limit is the neutral model with c = sqrt(lam/(2N)).
    """
    return state.lam * (state.N - 1) / 4.0


def _moran_event(counts: np.ndarray, N: int, u1: float, u2: float, u3: float) -> None:
    # first particle by cumulative counts, second among the rest
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


def moran_step(state: MoranState, rng: np.random.Generator) -> MoranState:
    """One interaction event; monomorphic states are fixed points."""
    counts = state.counts.copy()
    u = rng.random(3)
    _moran_event(counts, state.N, u[0], u[1], u[2])
    return MoranState(counts, state.lam)


@dataclass(frozen=True, eq=False)
class MoranRecord:
    """Event-indexed trajectory of counts and heterozygosity."""

    event_index: np.ndarray
    times: np.ndarray
    counts: np.ndarray
    heterozygosity: np.ndarray


def simulate_moran(state: MoranState, events: int, rng: np.random.Generator,
                   record_stride: int = 1) -> MoranRecord:
    """Run `events` interaction events; record every record_stride-th state.

    times = event_index / moran_event_rate(state); heterozygosity is
    1 - sum x_i^2.
    """
    if events < 0:
        raise ValueError("simulate_moran: events must be >= 0")
    if record_stride < 1:
        raise ValueError("simulate_moran: record_stride must be >= 1")
    counts = state.counts.copy()
    N = state.N
    rate = moran_event_rate(state)
    idx = [0]
    rows = [counts.copy()]
    u = rng.random((events, 3))
    for ev in range(1, events + 1):
        _moran_event(counts, N, u[ev - 1, 0], u[ev - 1, 1], u[ev - 1, 2])
        if ev % record_stride == 0 or ev == events:
            idx.append(ev)
            rows.append(counts.copy())
    counts_arr = np.array(rows, dtype=np.int64)
    x = counts_arr / N
    het = 1.0 - (x * x).sum(axis=1)
    idx_arr = np.array(idx, dtype=np.int64)
    return MoranRecord(
        event_index=idx_arr,
        times=idx_arr / rate,
        counts=counts_arr,
        heterozygosity=het,
    )
