"""Stochastic simulators: skew Brownian driver, one Euler step, Moran model.

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

Every Euler loop draws a step's increments, then steps.  One
function, `advance`, takes an Euler step, in place, of a coordinate-major
(k, n) block of paths of any of the four models (row i holds coordinate
i of every path, column r is path r) from the step's scaled increments:
a model supplies only its drift, its boundary rule and, in
`_noise_amplitude`, the scale of its increments.  An ensemble chunk is a
batch of up to ENSEMBLE_CHUNK drawing from one stream, and the CLI's
paths one batch whose columns draw from their own streams.  The callers
make the block and the step's buffers once and turn the block into (n,
k) rows only at the edges: `ensemble_final`'s states and the path
records.  A single path (`simulate_path`, `simulate --paths 1`) steps on
Python floats instead (`_step_path`): the same operations as `advance`
on a (k, 1) block, in the same order, so the same bytes, without the ~20
numpy calls per step that cost a batch of one 21-28 us a step.

Each element goes through the same IEEE operations as in the row-major
(n, k) step this layout replaced: the drift expressions; g * y_j added
to (subtracted from) dy_i in ascending order of the partner j; y + dy.
The squared norm of a sphere step is written out as (sum of the
even-index squares, in order) + (sum of the odd-index squares, in
order) and the simplex sum in ascending order, which are the orders of
numpy's einsum and row sum for k <= 7.  From k = 8 numpy regrouped both,
so there a step moves by a unit or two of roundoff.

Boundary policy on the simplex: negative coordinates are clamped to
zero and the vector renormalized; the clamp event is reported.  On the
sphere every step is renormalized (projection Euler) and the
pre-renormalization defect |norm(y_raw)^2 - 1| is reported.

RNG: counter-based Philox4x64-10 (numpy.random.Philox).  Single paths
use key = (master_seed, path_index), also as the paths of one batch;
vectorized ensembles use one stream per fixed-size chunk of paths, key
= (master_seed, 2^63 + chunk_index), so results are independent of the
worker count.  Each step of an n-path chunk takes k(k-1)/2 * n normals,
pair-major: the n draws of pair (1, 0), then of (2, 0), (2, 1), (3, 0),
... (pairs (i, j), i > j, in row-major order).  One standard_normal call
takes the normals of B = max(1, _PATH_BLOCK // n) steps, in flat order
the stream of B one-step draws; a full chunk of ENSEMBLE_CHUNK paths
still takes one step per call.  A path's own stream, alone or as one of
the CLI's batch of P paths, is read in draw_skew blocks the same way,
with B = _PATH_BLOCK alone and max(8, _PATH_BLOCK // P) in a batch.

The Moran model is simulated in the pair-interaction form: an event
picks an unordered pair of particles uniformly; a discordant pair
becomes monomorphic for either type with probability 1/2.  Matching the
per-unit-time covariance c^2 x_i (delta_ij - x_j) with c = sqrt(lam/(2N))
requires each unordered pair to interact at rate lam/(2N), i.e. a total
event rate of lam (N-1)/4; `moran_event_rate` exposes that mapping.
Each event takes 3 uniforms (first particle, second particle, winner),
drawn in blocks of _MORAN_BLOCK rows.  The event loop runs on Python
ints: the running cumulative counts, bisected at the integer thresholds
floor(u1 N) and floor(u2 (N - 1)) that numpy takes for a whole block,
which pick the same types as the float comparisons.
"""

from __future__ import annotations

import atexit
import enum
import math
import threading
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, islice
from multiprocessing import get_context

import numpy as np

from .types import ModelParams, SimplexPoint, SpherePoint, _whole

__all__ = [
    "Model",
    "PathRecord",
    "MoranState",
    "MoranRecord",
    "EnsembleDiagnostics",
    "draw_skew",
    "advance",
    "simulate_path",
    "ensemble_final",
    "pool_map",
    "path_rng",
    "chunk_rng",
    "moran_event_rate",
    "simulate_moran",
    "ENSEMBLE_CHUNK",
    "DEFAULT_SEED",
    "MAX_STEPS",
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
    # (i, j) with i > j, in the row order of draw_skew's increments
    return tuple((i, j) for i in range(1, k) for j in range(i))


@lru_cache(maxsize=None)
def _pair_index(k: int) -> tuple[np.ndarray, np.ndarray]:
    # _pairs(k) as index arrays (i of each pair, j of each pair)
    i, j = np.array(_pairs(k), dtype=np.intp).reshape(-1, 2).T
    return i.copy(), j.copy()


def draw_skew(k: int, dt: float, rng: np.random.Generator, n: int = 1,
              scale: float = 1.0) -> np.ndarray:
    """One step's increments scale * db_ij for n independent paths.

    Returns a (k(k-1)/2, n) array of independent Normal(0, scale^2 dt)
    draws laid out pair-major: row p holds the pair (i, j) = _pairs(k)[p],
    i > j, and db_ji = -db_ij.  The whole array comes, in that order, from
    one rng.standard_normal call with an int size.
    """
    if not (dt > 0.0):
        raise ValueError("draw_skew: dt must be > 0")
    m = k * (k - 1) // 2
    G = rng.standard_normal(m * n).reshape(m, n)
    G *= scale * math.sqrt(dt)  # in place: a second (m, n) array costs page faults
    return G


def _noise_amplitude(model: Model, c: float) -> float:
    """The scale of a model's increments db_ij: c/2 on the sphere, 1 for the
    mutation model (its time normalization, in the module docstring), c for
    the other two."""
    if model is Model.SPHERE:
        return 0.5 * c
    return 1.0 if model is Model.WF_MUTATION else c


# --- the Euler step ---------------------------------------------------------
# In the coordinate-major (k, n) block each term below reads and writes
# contiguous rows of n paths.  Both noise sums add coordinate i's k-1 terms
# to its drift in ascending order of the partner j, as the pair loop does
# (every pair (i, j < i) comes before every pair (i' > i, i)), so they give
# the same bytes.

#: the largest batch, per k, that takes the matrix noise sum (fewer numpy
#: calls per step); larger batches take the pair loop (less memory traffic
#: per path).  These are the measured crossovers of the two forms, sphere
#: and simplex, on the (k, n) layout; at k = 2 the pair loop is the faster
#: one at every batch size, and k above 6 takes the k = 6 value
_MATRIX_MAX_ROWS = {2: 0, 3: 64, 4: 256, 5: 512, 6: 768}


class _Work:
    """The buffers of one Euler step of a (k, n) block, made once per block
    and reused by every step (see `advance`)."""

    __slots__ = ("matrix", "draws", "neg_draws", "terms", "noise_terms", "drift", "amp", "acc",
                 "row", "squares", "square_rows", "halves", "even", "odd", "nrm2", "defect",
                 "neg")

    def __init__(self, k: int, n: int):
        self.matrix = n <= _MATRIX_MAX_ROWS[min(k, 6)]
        if self.matrix:
            # draws[j, i] is the draw of coordinate i with partner j, +-db_ij,
            # and stays 0 on the diagonal; terms[0] is the drift and
            # terms[1 + j, i] the noise term of coordinate i with partner j
            self.draws = np.zeros((k, k, n))
            self.neg_draws = np.empty((k * (k - 1) // 2, n))
            self.terms = np.empty((k + 1, k, n))
            self.noise_terms = self.terms[1:]
            self.drift = self.terms[0]
            self.amp = np.empty((k, k, n))
            self.acc = np.empty((k, n))
        else:
            self.drift = self.acc = np.empty((k, n))
        self.row = np.empty(n)
        # the squares in pairs (y_0^2, y_1^2), (y_2^2, y_3^2), ..., padded
        # with a zero row for odd k, and their even and odd sums
        self.squares = np.zeros(((k + 1) // 2, 2, n))
        self.square_rows = self.squares.reshape(-1, n)[:k]
        self.halves = np.empty((2, n))
        self.even, self.odd = self.halves
        self.nrm2 = np.empty(n)
        self.defect = np.empty(n)
        self.neg = np.empty((k, n), dtype=bool)


def _noise_by_pairs(sphere: bool, Y: np.ndarray, G: np.ndarray, work: _Work) -> np.ndarray:
    """The drift plus the noise, one pair at a time (in work.acc)."""
    dY, row = work.acc, work.row
    for p, (i, j) in enumerate(_pairs(len(Y))):
        g, dY_i, dY_j = G[p], dY[i], dY[j]
        if sphere:
            np.multiply(g, Y[j], out=row)
            dY_i += row
            np.multiply(g, Y[i], out=row)
            dY_j -= row
        else:
            np.multiply(Y[i], Y[j], out=row)
            np.sqrt(row, out=row)
            row *= g
            dY_i += row
            dY_j -= row
    return dY


def _noise_by_matrix(sphere: bool, Y: np.ndarray, G: np.ndarray, work: _Work) -> np.ndarray:
    """The drift plus the noise, as a sum over the partners j of the (k, k)
    matrix of terms (in work.acc)."""
    i, j = _pair_index(len(Y))
    D = work.draws
    D[j, i] = G
    D[i, j] = np.negative(G, out=work.neg_draws)
    if sphere:
        np.multiply(D, Y[:, None, :], out=work.noise_terms)
    else:
        amp = np.multiply(Y[:, None, :], Y, out=work.amp)
        np.multiply(D, np.sqrt(amp, out=amp), out=work.noise_terms)
    return np.add.reduce(work.terms, axis=0, out=work.acc)


def _ordered_sum(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The sum of the rows of the (m, n) block `rows`, added in ascending
    order for any n (in `out`).

    numpy adds the rows of a block in order, except when n = 1 and m >= 8,
    where it sums the one column pairwise; that case goes row by row.
    """
    if rows.shape[1] > 1 or len(rows) < 8:
        return np.add.reduce(rows, axis=0, out=out)
    np.copyto(out, rows[0])
    for r in rows[1:]:
        out += r
    return out


#: the clamped paths of a step that clamps none
_NO_ROWS = np.empty(0, dtype=np.intp)


def advance(model: Model, Y: np.ndarray, dt: float, c: float, eps: np.ndarray | None,
            G: np.ndarray, work: _Work | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One Euler step, in place, of each path of the (k, n) block Y, from
    the step's scaled increments G.

    Column r of Y is path r, so row i holds coordinate i of every path.
    `eps` is the mutation vector of Model.WF_MUTATION and is not read by
    the other models.  G holds the step's increments, column r for path
    r, laid out as `draw_skew` returns them and scaled by the model's
    amplitude (c/2 on the sphere, 1 for wf-mutation, c otherwise;
    `_noise_amplitude`); it is only read.  `work` holds the step's
    buffers (made here when None); a caller stepping the same block many
    times makes it once, as `_Work(k, n)`.  Returns (defect per path,
    clamped paths): the defect is the pre-fix |norm(y)^2 - 1| on the sphere
    and the pre-clamp |sum x - 1| on the simplex, held in `work` until its
    next step; the clamped paths are the ascending indices of the paths
    that had a negative coordinate (empty on the sphere).  The order of
    every sum is pinned in the module docstring.
    """
    # a member passes through: Model(member) would cost a tenth of a small step
    model = model if isinstance(model, Model) else Model(model)
    k, n = Y.shape
    if work is None:
        work = _Work(k, n)
    sphere = model is Model.SPHERE
    dY = work.drift
    if sphere:
        np.multiply(Y, (-c * c / 8.0) * (k - 1.0) * dt, out=dY)
    elif model is Model.WF_NEUTRAL:
        dY.fill(0.0)
    elif model is Model.WF_MUTATION:
        # 0.5 * (eps - sum(eps) * Y) * dt
        np.multiply(Y, float(eps.sum()), out=dY)
        np.subtract(eps[:, None], dY, out=dY)
        dY *= 0.5
        dY *= dt
    else:
        # 0.25 * c * c * (1 - k Y) * dt
        np.multiply(Y, k, out=dY)
        np.subtract(1.0, dY, out=dY)
        dY *= 0.25 * c * c
        dY *= dt
    noise = _noise_by_matrix if work.matrix else _noise_by_pairs
    Y += noise(sphere, Y, G, work)
    defect = work.defect
    if sphere:
        # projection Euler: back onto the sphere.  The even and the odd
        # squares are each summed in order (numpy never sums the outer axis
        # of `squares` pairwise, whatever n is); adding the pad square +0
        # leaves a sum of squares as it is
        nrm2, root = work.nrm2, work.row
        np.multiply(Y, Y, out=work.square_rows)
        np.add.reduce(work.squares, axis=0, out=work.halves)
        np.add(work.even, work.odd, out=nrm2)
        Y /= np.sqrt(nrm2, out=root)
        np.subtract(nrm2, 1.0, out=defect)
        return np.abs(defect, out=defect), _NO_ROWS
    # simplex: clip negative coordinates to zero, then renormalise
    sums = _ordered_sum(Y, work.nrm2)
    np.subtract(sums, 1.0, out=defect)
    np.abs(defect, out=defect)
    neg = np.less(Y, 0.0, out=work.neg)
    if not neg.any():  # the common case, so the per-path test waits for a clamp
        Y /= sums
        return defect, _NO_ROWS
    np.clip(Y, 0.0, None, out=Y)
    Y /= _ordered_sum(Y, sums)
    return defect, np.flatnonzero(neg.any(axis=0))


#: steps of one path whose normals one draw_skew call takes (`_step_path`):
#: k(k-1)/2 * 256 draws, 6 KiB as an array at k = 3 and 90 KiB at k = 10,
#: so memory stays bounded however long the path
_PATH_BLOCK = 256


def _step_path(model: Model, y: list[float], n_steps: int, dt: float, c: float,
               eps: np.ndarray | None, rng: np.random.Generator,
               record_stride: int) -> PathRecord:
    """The record of one path from `y`, stepped n_steps times on Python floats.

    Each step does what `advance` does to a (k, 1) block, operation for
    operation and in the same order (see the module docstring), so every
    state and defect keeps advance's bytes: numpy's + - * / and sqrt on
    float64 round as Python's do, and the numpy calls that a (k, 1) block
    makes per step are what cost the time.  The normals come from one
    draw_skew call per _PATH_BLOCK steps: the (m, B) array it draws for B
    paths holds, in flat order, the same stream as B one-step draws of m,
    step after step, and n_steps steps take m * n_steps normals in all.
    """
    k = len(y)
    sphere, neutral = model is Model.SPHERE, model is Model.WF_NEUTRAL
    mutation = model is Model.WF_MUTATION
    pairs = _pairs(k)
    sqrt = math.sqrt
    amp = _noise_amplitude(model, c)
    if sphere:
        scale = (-c * c / 8.0) * (k - 1.0) * dt
    elif mutation:
        eps_sum, eps = float(eps.sum()), eps.tolist()
    else:
        rate = 0.25 * c * c
    clamp_count = 0
    defect_sum = defect_max = 0.0
    times, states, defects, clamps = [0.0], [y], [0.0], [0]

    for first in range(0, n_steps, _PATH_BLOCK):
        size = min(_PATH_BLOCK, n_steps - first)
        draws = iter(draw_skew(k, dt, rng, size, amp).ravel().tolist())
        for step in range(first + 1, first + size + 1):
            if sphere:
                dy = [v * scale for v in y]
                for (i, j), g in zip(pairs, draws):
                    dy[i] += g * y[j]
                    dy[j] -= g * y[i]
                y = [v + d for v, d in zip(y, dy)]
                # the even and the odd squares, each summed in order
                even = odd = 0.0
                for v in y[0::2]:
                    even += v * v
                for v in y[1::2]:
                    odd += v * v
                nrm2 = even + odd
                root = sqrt(nrm2)
                y = [v / root for v in y]
                defect = abs(nrm2 - 1.0)
            else:
                if neutral:
                    dy = [0.0] * k
                elif mutation:
                    dy = [((e - v * eps_sum) * 0.5) * dt for e, v in zip(eps, y)]
                else:
                    dy = [((1.0 - v * k) * rate) * dt for v in y]
                for (i, j), g in zip(pairs, draws):
                    r = sqrt(y[i] * y[j]) * g
                    dy[i] += r
                    dy[j] -= r
                y = [v + d for v, d in zip(y, dy)]
                total = 0.0
                clamp = False
                for v in y:
                    total += v
                    if v < 0.0:
                        clamp = True
                defect = abs(total - 1.0)
                if clamp:
                    y = [0.0 if v <= 0.0 else v for v in y]  # np.clip's -0.0 -> 0.0
                    total = 0.0
                    for v in y:
                        total += v
                    clamp_count += 1
                y = [v / total for v in y]
            defect_sum += defect
            if defect > defect_max:
                defect_max = defect
            if step % record_stride == 0 or step == n_steps:
                times.append(step * dt)
                states.append(y)
                defects.append(defect)
                clamps.append(clamp_count)

    return PathRecord(model, dt, np.array(times), np.array(states), np.array(defects),
                      np.array(clamps, dtype=np.int64), defect_sum / n_steps, defect_max,
                      n_steps)


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


def _start_point(model: Model, start) -> SpherePoint | SimplexPoint:
    """The validated start point of `model` (raises ValueError)."""
    cls = SpherePoint if model is Model.SPHERE else SimplexPoint
    return start if isinstance(start, cls) else cls(start)


#: the most Euler steps, or Moran events, one run may take: at the measured
#: microseconds per step or event a single run of this length already takes
#: hours, so a larger round(T/dt) or event count is taken for a mistyped
#: input and refused before the first draw
MAX_STEPS = 10**9


def _step_count(who: str, T: float, dt: float, name: str) -> int:
    """round(T/dt), once 0 < dt <= T, T/dt is finite and the count is at
    most MAX_STEPS (ValueError otherwise)."""
    if not (T > 0.0 and dt > 0.0 and dt <= T):
        raise ValueError(f"{who}: need 0 < dt <= {name}")
    if not math.isfinite(T / dt):
        raise ValueError(f"{who}: {name} and {name}/dt must be finite, "
                         f"got {name} = {T!r}, dt = {dt!r}")
    steps = int(round(T / dt))
    if steps > MAX_STEPS:
        raise ValueError(f"{who}: {name}/dt = {steps:.3g} steps exceeds MAX_STEPS = "
                         f"{MAX_STEPS:.0e}")
    return steps


def simulate_path(model: Model, start, T: float, dt: float, params: ModelParams,
                  rng: np.random.Generator, record_stride: int = 1) -> PathRecord:
    """Advance one path round(T/dt) steps, on Python floats (`_step_path`).

    Records the initial state and every record_stride-th step (the final
    step is always recorded).  Deterministic given the generator state:
    the record is the one that `advance` stepping a (k, 1) block, one
    draw per step, gives, byte for byte, and the generator is left in the
    same state.
    """
    return _simulate_paths(model, start, T, dt, params, [rng], record_stride)[0]


def _simulate_paths(model: Model, start, T: float, dt: float, params: ModelParams,
                    rngs: list, record_stride: int) -> list[PathRecord]:
    """The records of len(rngs) paths from `start`, stepped as one batch
    (one path steps on Python floats, in `_step_path`).

    Path r reads rngs[r] as `_step_path` does, one draw_skew call per
    block of B steps, with B = max(8, _PATH_BLOCK // P) for P paths: the
    batch's draws then stay near _PATH_BLOCK path-steps, and each call
    still takes at least 8 steps.  The call's (m, B) array, m = k(k-1)/2,
    is in flat order B steps of m normals, so its record is the one
    `simulate_path(..., rngs[r], record_stride)` gives, byte for byte, and
    rngs[r] is left in the same state.
    """
    n_steps = _step_count("simulate_path", T, dt, "T")
    record_stride = _whole(record_stride, "simulate_path: record_stride")
    if record_stride < 1:
        raise ValueError("simulate_path: record_stride must be >= 1")
    model = Model(model)
    point = _start_point(model, start)
    if point.k != params.k:
        raise ValueError("simulate_path: start dimension does not match params.k")

    n = len(rngs)
    if n == 1:
        return [_step_path(model, point.coords.tolist(), n_steps, dt, params.c, params.epsilon,
                           rngs[0], record_stride)]
    k = params.k
    m = k * (k - 1) // 2
    amp = _noise_amplitude(model, params.c)
    block = max(8, _PATH_BLOCK // n)
    Y = np.repeat(point.coords[:, None], n, axis=1)  # (k, n): column r is path r
    work = _Work(k, n)
    G = np.empty((min(block, n_steps), m, n))  # G[s]: step s of a block, as advance reads it
    # per row, as Python numbers: cheaper per step than numpy arrays of n
    clamp_counts = [0] * n
    defect_sums = [0.0] * n
    defect_maxes = [0.0] * n
    times, states, defects, clamps = [0.0], [Y.T.copy()], [[0.0] * n], [clamp_counts]

    for first in range(0, n_steps, block):
        size = min(block, n_steps - first)
        for r, gen in enumerate(rngs):
            G[:size, :, r] = draw_skew(k, dt, gen, size, amp).reshape(size, m)
        for step, g in zip(range(first + 1, first + size + 1), G):
            d, clamped = advance(model, Y, dt, params.c, params.epsilon, g, work)
            if clamped.size:
                clamp_counts = clamp_counts[:]  # the recorded counts stay as they are
                for r in clamped.tolist():
                    clamp_counts[r] += 1
            d = d.tolist()
            for r, defect in enumerate(d):
                defect_sums[r] += defect
                if defect > defect_maxes[r]:
                    defect_maxes[r] = defect
            if step % record_stride == 0 or step == n_steps:
                times.append(step * dt)
                states.append(Y.T.copy())  # (n, k), as the records index it
                defects.append(d)
                clamps.append(clamp_counts)

    # indexed [record, row]
    states = np.concatenate(states).reshape(len(times), n, -1)
    defects, clamps = np.array(defects), np.array(clamps, dtype=np.int64)
    return [PathRecord(model, dt, np.array(times), states[:, r], defects[:, r], clamps[:, r],
                       defect_sums[r] / n_steps, defect_maxes[r], n_steps)
            for r in range(n)]


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
    module-level function, or a partial of one, since spawned workers import it by name.
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


def _run_chunk(model: Model, start: np.ndarray, n_steps: int, dt: float, c: float,
               eps: np.ndarray, seed: int, chunk: tuple[int, int]):
    """Advance `chunk` = (index, size) paths from `start` n_steps on chunk_rng(seed,
    index); returns (final (k, size) block, defect_sum, defect_max, clamp_events).

    One draw_skew call takes the normals of B = max(1, _PATH_BLOCK // size)
    steps, laid out (B, m, size): in flat order the stream of B one-step
    draws.  The step defects of a block go into its rows, and the sums
    and the maxima of the rows are taken in step order, so the diagnostics
    are those of one d.sum() and one d.max() per step.
    """
    index, size = chunk
    k = len(start)
    m = k * (k - 1) // 2
    Y = np.repeat(start[:, None], size, axis=1)
    work = _Work(k, size)
    rng = chunk_rng(seed, index)
    amp = _noise_amplitude(model, c)
    block = max(1, _PATH_BLOCK // size)
    defects = np.empty((min(block, n_steps), size))
    defect_sum = 0.0
    defect_max = 0.0
    clamp_events = 0
    for first in range(0, n_steps, block):
        steps = min(block, n_steps - first)
        G = draw_skew(k, dt, rng, steps * size, amp).reshape(steps, m, size)
        for g, row in zip(G, defects):
            d, clamped = advance(model, Y, dt, c, eps, g, work)
            row[:] = d
            clamp_events += clamped.size
        rows = defects[:steps]
        for s, top in zip(np.add.reduce(rows, axis=1).tolist(), rows.max(axis=1).tolist()):
            defect_sum += s
            defect_max = max(defect_max, top)
    return Y, defect_sum, defect_max, clamp_events


def ensemble_final(model: Model, *, t: float, dt: float, n_paths: int, seed: int,
                   start, c: float = 1.0, epsilon=None,
                   workers: int = 1) -> tuple[np.ndarray, EnsembleDiagnostics]:
    """Final states of n_paths independent paths at time t (vectorized).

    Paths are partitioned into chunks of ENSEMBLE_CHUNK, each with its own
    Philox stream keyed by (seed, chunk index), so the result does not
    depend on `workers`.  With workers > 1 the chunks run on the shared
    process pool (see `pool_map`).  The inputs are checked as
    `simulate_path` checks them (ValueError); every path starts from the
    caller's `start` as given.  Returns (states (n_paths, k), diagnostics).
    """
    model = Model(model)
    n_steps = _step_count("ensemble_final", t, dt, "t")
    n_paths = _whole(n_paths, "ensemble_final: n_paths")
    if n_paths < 1:
        raise ValueError("ensemble_final: n_paths must be >= 1")
    if model is Model.WF_MUTATION and epsilon is None:
        raise ValueError("ensemble_final: the wf-mutation model needs epsilon")
    start = np.asarray(start, dtype=float)
    params = ModelParams(_start_point(model, start).k, c, epsilon)
    job = partial(_run_chunk, model, start, n_steps, dt, c, params.epsilon, seed)
    firsts = range(0, n_paths, ENSEMBLE_CHUNK)
    chunks = [(index, min(ENSEMBLE_CHUNK, n_paths - first)) for index, first in enumerate(firsts)]
    results = pool_map(job, chunks, workers)
    finals = np.empty((n_paths, params.k))
    for first, r in zip(firsts, results):
        finals[first:first + ENSEMBLE_CHUNK] = r[0].T
    total_steps = n_paths * n_steps
    max_defect = max(r[2] for r in results)
    diag = EnsembleDiagnostics(
        mean_defect=sum(r[1] for r in results) / total_steps,
        max_defect=max_defect,
        # a simplex step's defect is its pre-clamp |sum x - 1|
        max_presum_defect=0.0 if model is Model.SPHERE else max_defect,
        clamp_fraction=sum(r[3] for r in results) / total_steps,
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
        try:
            arr = np.array(counts, dtype=np.int64)
            # the int64 conversion truncates 50.5 to 50; refuse it instead
            whole = np.array_equal(arr, np.asarray(counts, dtype=float))
        except (OverflowError, ValueError):  # inf, nan, beyond int64
            whole = False
        if not whole:
            raise ValueError(f"MoranState: counts must be whole numbers, got {counts!r}")
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("MoranState: counts must be a vector of length >= 2")
        if arr.min() < 0 or arr.sum() < 2:
            raise ValueError("MoranState: counts must be >= 0 and total >= 2")
        if not (0.0 < lam < math.inf):
            raise ValueError("MoranState: lam must be finite and > 0")
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)
        object.__setattr__(self, "lam", float(lam))

    @property
    def N(self) -> int:
        return int(self.counts.sum())

    @property
    def k(self) -> int:
        return self.counts.size


def moran_event_rate(state: MoranState) -> float:
    """Events per unit model time: lam * (N - 1) / 4.

    Each unordered pair interacts at rate lam/(2N); summing over the
    N(N-1)/2 pairs gives lam(N-1)/4.  Under this clock the diffusion
    limit is the neutral model with c = sqrt(lam/(2N)).
    """
    return state.lam * (state.N - 1) / 4.0


#: rows of uniforms drawn per rng.random call.  Drawing (m, 3) blocks gives
#: the same stream as one (events, 3) draw.  A block (6 KiB as an array, 18
#: KiB as Python floats) stays far below glibc's 128 KiB mmap threshold, and
#: memory stays bounded however long the run
_MORAN_BLOCK = 256


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
    1 - sum x_i^2.  Event ev uses row ev - 1 of the generator's uniforms
    in (events, 3) order: u1 picks the first particle (the first type a
    with u1 * N below the cumulative count), u2 the second among the other
    N - 1, and u3 < 0.5 lets the first one win.  The loop keeps the
    cumulative counts as Python ints and finds each type by bisection on
    the integer thresholds floor(u1 * N) and floor(u2 * (N - 1)), taken for
    a block of events at once: the same types as the float comparisons.
    It turns the cumulative counts back into counts only at a record.  A
    count of events that is not a whole number, below 0 or above
    MAX_STEPS is refused (ValueError), and so is a record_stride that is
    not a whole number >= 1.
    """
    events = _whole(events, "simulate_moran: events")
    record_stride = _whole(record_stride, "simulate_moran: record_stride")
    if not (0 <= events <= MAX_STEPS):
        raise ValueError(f"simulate_moran: events = {events:.3g} is outside [0, MAX_STEPS = "
                         f"{MAX_STEPS:.0e}]")
    if record_stride < 1:
        raise ValueError("simulate_moran: record_stride must be >= 1")
    N = state.N
    rate = moran_event_rate(state)
    cum = list(accumulate(state.counts.tolist()))  # the running cumulative counts
    idx = [0]
    rows = cum[:]  # the recorded cums, one flat list
    record = min(record_stride, events)  # the next event to record
    for first in range(0, events, _MORAN_BLOCK):
        last = min(first + _MORAN_BLOCK, events)
        u1, u2, u3 = rng.random((last - first, 3)).T
        # for an int c and a float x >= 0, x < c exactly when floor(x) < c;
        # win is +1 when the first particle wins, -1 when the second does
        draws = zip((u1 * N).astype(np.int64).tolist(), (u2 * (N - 1)).astype(np.int64).tolist(),
                    np.where(u3 < 0.5, 1, -1).tolist())
        ev = first
        while ev < last:  # the events up to the next record, or to the block's end
            stop = min(record, last)
            for t1, t2, win in islice(draws, stop - ev):
                # the first particle's type a is the first with t1 < cum[a]; the
                # second's, b, the same among the other N - 1, whose cums from a on
                # are one less
                a = bisect_right(cum, t1)
                b = bisect_right(cum, t2)
                if b >= a:
                    b = bisect_right(cum, t2 + 1, a)
                # the winner's count rises by one and the loser's falls: the cums
                # from the lower of the two types up to the higher move
                if a < b:
                    for i in range(a, b):
                        cum[i] += win
                elif b < a:
                    for i in range(b, a):
                        cum[i] -= win
            ev = stop
            if ev == record:
                idx.append(ev)
                rows.extend(cum)
                record = min(ev + record_stride, events)
    counts_arr = np.diff(np.array(rows, dtype=np.int64).reshape(-1, len(cum)), axis=1, prepend=0)
    x = counts_arr / N
    het = 1.0 - (x * x).sum(axis=1)
    idx_arr = np.array(idx, dtype=np.int64)
    return MoranRecord(
        event_index=idx_arr,
        times=idx_arr / rate,
        counts=counts_arr,
        heterozygosity=het,
    )
