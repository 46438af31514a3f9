"""The three benchmark workloads: density, ensemble and paths.

Each workload is a closed loop with one caller in one process.  It makes
all of its inputs from the seed when it is constructed, and then offers:

* `warmup_calls()` - the first call of each call shape, made while the
  package's caches are cold;
* `check_calls()` - run-level correctness checks made after the warm-up;
* `cycle()` - one pass over the call shapes; the timed phase repeats it;
* `instrument(tracer)` - the module attributes wrapped in a traced phase;
* `extra(tracer, tally)` - calls that only a traced run makes;
* `layers(tracer)` - the per-layer metrics read from the spans.

Every call is checked.  A wrong result or an exception is counted as a
failure of that call and never raised out of the run.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

import numpy as np

from spherewf import simulate as simulate_mod
from spherewf import wf_density as wf_density_mod
from spherewf.simulate import (
    ENSEMBLE_CHUNK,
    Model,
    MoranState,
    ensemble_final,
    path_rng,
    simulate_moran,
    simulate_path,
)
from spherewf.types import ModelParams, SimplexPoint
from spherewf.wf_density import (
    GriffithsQuery,
    PushforwardQuery,
    griffiths_density,
    pushforward_density,
)
from tracer import ATTRS, END, NAME, PHASE, START, Tracer, total

NPROC = len(os.sched_getaffinity(0))

# --- calls and the closed loop ----------------------------------------------


@dataclass
class Call:
    shape: str
    work: int
    run: Callable[[Tracer | None], Any]
    check: Callable[[Any], str | None]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    work: int = 0
    latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.work += other.work
        self.latencies += other.latencies
        self.failures += other.failures


def execute(calls: list[Call], tally: Tally, tracer: Tracer | None = None) -> None:
    """Make each call, time it, check its result and count it."""
    for call in calls:
        rec = None
        if tracer is not None:
            tracer.call = tally.attempted
            rec = tracer.open("call", {"shape": call.shape})
        t0 = time.perf_counter()
        try:
            out = call.run(tracer)
            dt = time.perf_counter() - t0
            reason = call.check(out)
        except Exception as exc:  # a failing call is counted, never raised
            dt = time.perf_counter() - t0
            reason = f"{type(exc).__name__}: {exc}"
        if rec is not None:
            tracer.close(rec)
        tally.attempted += 1
        tally.work += call.work
        tally.latencies.append(dt)
        if reason is not None:
            tally.failed += 1
            tally.failures.append(f"{call.shape}: {reason}")


def run_for(calls: list[Call], seconds: float, tally: Tally,
            tracer: Tracer | None = None) -> float:
    """Repeat whole cycles of calls for about `seconds`; returns the wall time.

    The loop stops at the cycle boundary nearest to `seconds`, so every
    run makes the same mix of calls.
    """
    start = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        execute(calls, tally, tracer)
        now = time.perf_counter()
        if now - start + 0.5 * (now - c0) > seconds:
            return now - start


def _span(tracer: Tracer | None, name: str, **attrs):
    return contextlib.nullcontext() if tracer is None else tracer.span(name, **attrs)


def _dur(s: list) -> float:
    return s[END] - s[START]


def _mean_dur(spans: list[list]) -> float:
    return total(spans) / len(spans)


def interior_points(rng: np.random.Generator, k: int, n: int, min_coord: float) -> np.ndarray:
    """n uniform simplex points with every coordinate >= min_coord (rejection)."""
    out: list[np.ndarray] = []
    while len(out) < n:
        cand = rng.dirichlet(np.ones(k), size=n)
        out.extend(cand[cand.min(axis=1) >= min_coord])
    return np.array(out[:n])


def interior_pairs(rng: np.random.Generator, k: int, n: int,
                   min_coord: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """n pairs of uniform simplex points with every coordinate >= min_coord.

    The pairs come from the additive recurrence u_i = shift + i * alpha
    (mod 1) with the generalized golden ratio's powers as alpha and a
    seeded shift (normalized exponentials of its coordinates), so they
    spread evenly over the simplex and the mix of query costs changes
    little from seed to seed.
    """
    dim = 2 * k
    phi = 2.0
    for _ in range(64):  # phi ** (dim + 1) = phi + 1
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alpha = phi ** -np.arange(1.0, dim + 1)
    shift = rng.random(dim)
    pairs: list = []
    for start in itertools.count(0, 32):
        if len(pairs) >= n:
            return pairs[:n]
        e = -np.log1p(-((shift + np.outer(np.arange(start, start + 32), alpha)) % 1.0))
        x = e[:, :k] / e[:, :k].sum(axis=1, keepdims=True)
        xp = e[:, k:] / e[:, k:].sum(axis=1, keepdims=True)
        keep = (x.min(axis=1) >= min_coord) & (xp.min(axis=1) >= min_coord)
        pairs.extend(zip(x[keep], xp[keep]))


def unit_vector(rng: np.random.Generator, k: int) -> np.ndarray:
    g = rng.standard_normal(k)
    return g / np.linalg.norm(g)


# --- density ------------------------------------------------------------------

#: (k, t) grid; k = 5 at t = 0.05 is left out (a cold query costs ~30 s and
#: ~1.6 GB), and so is k >= 6, which runs out of memory.
CELLS = tuple((k, t) for k in (2, 3, 4, 5) for t in (0.05, 0.1, 0.5, 1.0, 5.0)
              if (k, t) != (5, 0.05))
#: cells whose queries resum (t <= 0.1); their cold first call is reported
COLD_CELLS = tuple((k, t) for (k, t) in CELLS if t <= 0.1)
EPSILON = 0.5
D = 0.125
#: doubled decay constant: the designed-to-fail control of harness.control_checks
CONTROL_D = 0.25
MIN_COORD = 0.02
GAP_THRESHOLD = 1e-6
PAIRS_PER_CELL = 32


def check_density(out) -> str | None:
    g, p = out
    if not (math.isfinite(g.value) and math.isfinite(p.value)):
        return "non-finite density"
    if not (g.converged and p.converged):
        return "series not converged"
    gap = abs(g.value - p.value) / max(1.0, abs(g.value))
    if not gap < GAP_THRESHOLD:
        return f"griffiths/pushforward gap {gap:.3g}"
    return None


def density_call(k: int, t: float, x: np.ndarray, x_prime: np.ndarray, d: float = D) -> Call:
    """griffiths_density at eps = 1/2 and pushforward_density at D = d, compared."""
    xs, xps = SimplexPoint(x), SimplexPoint(x_prime)
    gq = GriffithsQuery(xs, xps, t, EPSILON)
    pq = PushforwardQuery(xs, xps, t, d)

    def run(tracer):
        with _span(tracer, "wf_density.griffiths_density", k=k, t=t) as rec:
            g = griffiths_density(gq)
        if rec is not None:
            rec[ATTRS].update(mode=g.mode, terms=g.terms_used)
        with _span(tracer, "wf_density.pushforward_density", k=k, t=t):
            p = pushforward_density(pq)
        return g, p

    return Call(f"k{k}-t{t:g}", 1, run, check_density)


def _series_attrs(args, out) -> dict:
    # zonal_series(dots, ...) / circle_series(angles, ...) -> (even, odd, terms, ...)
    return {"points": int(np.size(args[0])), "terms": int(out[2])}


class Density:
    name = "density"
    unit = "queries"

    def __init__(self, seed: int, tiny: bool = False):
        rng = path_rng(seed, 0xD0)
        per = 1 if tiny else PAIRS_PER_CELL
        pairs = {cell: interior_pairs(rng, cell[0], per, MIN_COORD) for cell in CELLS}
        # interleaved, so the first len(CELLS) calls are the first of each cell
        self.calls = [density_call(k, t, *pairs[(k, t)][i])
                      for i in range(per) for (k, t) in CELLS]

    def warmup_calls(self) -> list[Call]:
        # the first pass over the inputs fills every cache the timed phase uses
        return self.calls

    def check_calls(self) -> list[Call]:
        return []

    def cycle(self) -> list[Call]:
        return self.calls

    def instrument(self, tracer: Tracer) -> None:
        tracer.wrap(wf_density_mod, "zonal_series", "sphere_heat.zonal_series", _series_attrs)
        tracer.wrap(wf_density_mod, "circle_series", "sphere_heat.circle_series", _series_attrs)

    def extra(self, tracer: Tracer, tally: Tally) -> None:
        # a separate, untimed pass counts log_gamma calls, whose wrapper is
        # too costly to leave on while spans are timed
        tracer.restore()
        tracer.count_calls(wf_density_mod, "log_gamma", "specfun.log_gamma")
        execute(self.calls, tally)
        tracer.restore()

    def layers(self, tracer: Tracer) -> dict:
        g = tracer.select("wf_density.griffiths_density", "timed")
        direct = [s for s in g if s[ATTRS]["mode"] == "direct"]
        resummed = [s for s in g if s[ATTRS]["mode"] == "resummed"]
        out = {
            "wf_density.griffiths_direct_us": (_mean_dur(direct) * 1e6, "us"),
            "wf_density.griffiths_resummed_ms": (_mean_dur(resummed) * 1e3, "ms"),
            "wf_density.pushforward_us": (
                _mean_dur(tracer.select("wf_density.pushforward_density", "timed")) * 1e6, "us"),
            "wf_density.resummed_share": (len(resummed) / len(g), "ratio"),
            "wf_density.griffiths_terms_mean": (
                statistics.fmean(s[ATTRS]["terms"] for s in g), "count"),
        }
        first: dict = {}
        for s in tracer.select("wf_density.griffiths_density", "warmup"):
            first.setdefault((s[ATTRS]["k"], s[ATTRS]["t"]), s)
        for k, t in COLD_CELLS:
            out[f"wf_density.griffiths_cold_ms.k{k}-t{t:g}"] = (_dur(first[(k, t)]) * 1e3, "ms")
        for kind in ("zonal", "circle"):
            spans = tracer.select(f"sphere_heat.{kind}_series", "timed")
            work = sum(s[ATTRS]["points"] * s[ATTRS]["terms"] for s in spans)
            out[f"sphere_heat.{kind}_ns_per_term_point"] = (total(spans) / work * 1e9, "ns")
        out["specfun.log_gamma_calls_per_query"] = (
            tracer.counts["specfun.log_gamma"] / len(self.calls), "count")
        return out


# --- ensembles ------------------------------------------------------------------

@dataclass
class EnsembleShape:
    """One ensemble_final call shape; each call takes the next seed."""

    name: str
    model: Model
    start: np.ndarray
    n_paths: int
    t: float
    dt: float
    workers: int
    seeds: np.ndarray
    epsilon: tuple | None = None
    #: test the mean statistic; off for 16-path shapes, where a 6-standard-
    #: error test on a 16-sample mean would fail by chance now and then
    check_mean: bool = True
    last: tuple = ()

    @property
    def path_steps(self) -> int:
        return self.n_paths * max(1, int(round(self.t / self.dt)))

    def exact_mean(self, finals: np.ndarray) -> tuple[np.ndarray, float]:
        """A statistic of the final states and its exact mean.

        Sphere: E[y0.y(t)] = exp(-D (k-1) t) with D = 1/8.  Simplex:
        E[x_1(t)] = eps_1/mu + (x0_1 - eps_1/mu) exp(-mu t / 2), where the
        isotropic model is the mutation model at eps = 1/2 and the neutral
        model (mu = 0) keeps its mean.
        """
        k = self.start.size
        t = self.path_steps / self.n_paths * self.dt
        if self.model is Model.SPHERE:
            return finals @ self.start, math.exp(-0.125 * (k - 1) * t)
        x0 = float(self.start[0])
        if self.model is Model.WF_NEUTRAL:
            return finals[:, 0], x0
        eps = np.full(k, 0.5) if self.epsilon is None else np.asarray(self.epsilon)
        mu = float(eps.sum())
        return finals[:, 0], eps[0] / mu + (x0 - eps[0] / mu) * math.exp(-0.5 * mu * t)


def check_ensemble(shape: EnsembleShape, out) -> str | None:
    finals, diag = out
    if finals.shape != (shape.n_paths, shape.start.size):
        return f"finals shape {finals.shape}"
    if not np.all(np.isfinite(finals)):
        return "NaN in final states"
    if shape.model is Model.SPHERE:
        dev = float(np.abs(np.einsum("ij,ij->i", finals, finals) - 1.0).max())
    else:
        dev = max(float(np.abs(finals.sum(axis=1) - 1.0).max()), diag.max_presum_defect)
        if finals.min() < 0.0:
            return "negative simplex coordinate"
    if dev > 1e-12:
        return f"off the manifold by {dev:.3g}"
    if not shape.check_mean:
        return None
    stat, exact = shape.exact_mean(finals)
    se = float(stat.std(ddof=1)) / math.sqrt(stat.size)
    z = abs(float(stat.mean()) - exact) / se
    if not z < 6.0:
        return f"mean statistic {z:.2f} standard errors from its exact value"
    return None


def ensemble_call(shape: EnsembleShape, workers: int | None = None) -> Call:
    seeds = itertools.cycle(shape.seeds.tolist())

    def run(tracer):
        w = shape.workers if workers is None else workers
        seed = next(seeds)
        with _span(tracer, "simulate.ensemble_final", shape=shape.name, workers=w,
                   path_steps=shape.path_steps) as rec:
            finals, diag = ensemble_final(shape.model, t=shape.t, dt=shape.dt,
                                          n_paths=shape.n_paths, seed=seed,
                                          start=shape.start, epsilon=shape.epsilon,
                                          workers=w)
        if rec is not None:
            rec[ATTRS]["clamps"] = diag.clamp_fraction * shape.path_steps
        shape.last = (seed, finals)
        return finals, diag

    return Call(shape.name, shape.path_steps, run, partial(check_ensemble, shape))


def identity_call(shape: EnsembleShape) -> Call:
    """Re-run the shape's last call at workers=1: the finals must be byte-identical."""

    def run(tracer):
        seed, ref = shape.last
        finals, _ = ensemble_final(shape.model, t=shape.t, dt=shape.dt,
                                   n_paths=shape.n_paths, seed=seed, start=shape.start,
                                   epsilon=shape.epsilon, workers=1)
        return finals, ref

    def check(out):
        finals, ref = out
        if finals.tobytes() != ref.tobytes():
            return f"workers=1 and workers={shape.workers} finals differ"
        return None

    return Call(f"{shape.name}-identity", 0, run, check)


def best_split(n_paths: int, workers: int) -> float:
    """Largest worker's share of the paths under the best chunk placement.

    Chunks are ENSEMBLE_CHUNK paths each (the last one shorter); they are
    placed largest first on the least-loaded worker.
    """
    chunks = [ENSEMBLE_CHUNK] * (n_paths // ENSEMBLE_CHUNK)
    if n_paths % ENSEMBLE_CHUNK:
        chunks.append(n_paths % ENSEMBLE_CHUNK)
    loads = [0] * workers
    for c in sorted(chunks, reverse=True):
        loads[loads.index(min(loads))] += c
    return max(loads) / n_paths


class TimedRng:
    """Generator stand-in that records a span around each standard_normal draw."""

    def __init__(self, gen: np.random.Generator, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, size):
        rec = self._tracer.open("simulate.rng.standard_normal", {"draws": size})
        try:
            return self._gen.standard_normal(size)
        finally:
            self._tracer.close(rec)

    def __getattr__(self, name):
        # any other Generator method passes through untimed
        return getattr(self._gen, name)


def instrument_rng(tracer: Tracer) -> None:
    """Time the draws of in-process ensemble chunks (workers=1 calls)."""
    chunk_rng = simulate_mod.chunk_rng
    tracer.patch(simulate_mod, "chunk_rng",
                 lambda seed, index: TimedRng(chunk_rng(seed, index), tracer))


#: per-layer metric suffix -> shape whose workers=1 calls measure it
STEP_COST_SHAPES = (("sphere-k3", "mc-sphere"), ("wf-isotropic-k3", "mc-wf"),
                    ("sphere-k6", "sphere-k6"), ("wf-mutation-k2", "stationary-law"))
MAX_CYCLES = 64


class Ensemble:
    name = "ensemble"
    unit = "path-steps"

    def __init__(self, seed: int, tiny: bool = False):
        rng = path_rng(seed, 0xE5)
        seeds = rng.integers(0, 2**62, size=(5, MAX_CYCLES))
        t = 5e-4 if tiny else 0.05  # 500 steps of dt = 1e-4
        x2 = rng.uniform(0.3, 0.7)
        self.shapes = [
            EnsembleShape("mc-sphere", Model.SPHERE, unit_vector(rng, 3), 10_000, t, 1e-4,
                          NPROC, seeds[0]),
            EnsembleShape("mc-wf", Model.WF_ISOTROPIC, interior_points(rng, 3, 1, 0.15)[0],
                          10_000, t, 1e-4, NPROC, seeds[1]),
            EnsembleShape("sphere-k6", Model.SPHERE, unit_vector(rng, 6), 10_000, t, 1e-4,
                          NPROC, seeds[2]),
            EnsembleShape("stationary-law", Model.WF_MUTATION, np.array([x2, 1.0 - x2]), 4000,
                          0.01 if tiny else 1.0, 1e-3, 1, seeds[3], epsilon=(2.0, 2.0)),
            EnsembleShape("isotropy", Model.SPHERE, unit_vector(rng, 3), 100_000, 1e-4, 1e-4,
                          1, seeds[4]),
        ]
        self.calls = [ensemble_call(s) for s in self.shapes]

    def warmup_calls(self) -> list[Call]:
        return self.calls

    def check_calls(self) -> list[Call]:
        return [identity_call(self.shapes[0])]

    def cycle(self) -> list[Call]:
        return self.calls

    def instrument(self, tracer: Tracer) -> None:
        instrument_rng(tracer)

    def extra(self, tracer: Tracer, tally: Tally) -> None:
        # workers=1 runs of the pool shapes give the per-path cost and the
        # base for the pool overhead
        execute([ensemble_call(s, workers=1) for s in self.shapes if s.workers > 1],
                tally, tracer)

    def layers(self, tracer: Tracer) -> dict:
        spans = [s for s in tracer.select("simulate.ensemble_final") if s[PHASE] != "warmup"]
        serial: dict[str, list] = {}
        for s in spans:
            if s[ATTRS]["workers"] == 1:
                serial.setdefault(s[ATTRS]["shape"], []).append(s)
        out = {}
        for suffix, shape in STEP_COST_SHAPES:
            per_step = [_dur(s) / s[ATTRS]["path_steps"] for s in serial[shape]]
            out[f"simulate.ensemble_ns_per_path_step.{suffix}"] = (
                statistics.fmean(per_step) * 1e9, "ns")
        draws = [s for s in tracer.spans if s[NAME] == "simulate.rng.standard_normal"
                 and s[PHASE] != "warmup"]
        out["simulate.rng_ns_per_draw"] = (
            total(draws) / sum(s[ATTRS]["draws"] for s in draws) * 1e9, "ns")
        by_name = {s.name: s for s in self.shapes}
        overhead, eff = [], []
        for s in spans:
            w = s[ATTRS]["workers"]
            if w > 1 and s[PHASE] == "timed":
                shape = by_name[s[ATTRS]["shape"]]
                base = _mean_dur(serial[shape.name])
                overhead.append(_dur(s) - base * best_split(shape.n_paths, w))
                eff.append(base / (w * _dur(s)))
        pooled = [s for s in self.shapes if s.workers > 1]
        out["simulate.pool_overhead_s"] = (statistics.median(overhead) if overhead else 0.0, "s")
        out["simulate.parallel_eff"] = (statistics.median(eff) if eff else 1.0, "ratio")
        out["simulate.load_balance"] = (
            statistics.fmean(1.0 / (s.workers * best_split(s.n_paths, s.workers))
                             for s in pooled) if pooled else 1.0, "ratio")
        timed = [s for s in spans if s[PHASE] == "timed"]
        out["simulate.clamp_fraction"] = (
            sum(s[ATTRS]["clamps"] for s in timed) / sum(s[ATTRS]["path_steps"] for s in timed),
            "ratio")
        return out


# --- narrow paths ---------------------------------------------------------------

PATH_T = 0.02
PATH_DT = 1e-4
MORAN_EVENTS = 4960  # the moran suite's replicate at N = 100: 40 strides of 124
MORAN_STRIDE = 124


def check_path(model: Model, steps: int, rec) -> str | None:
    if rec.n_steps != steps:
        return f"{rec.n_steps} steps, expected {steps}"
    states = rec.states
    if not np.all(np.isfinite(states)):
        return "non-finite state"
    if model is Model.SPHERE:
        dev = float(np.abs(np.einsum("ij,ij->i", states, states) - 1.0).max())
    else:
        dev = float(np.abs(states.sum(axis=1) - 1.0).max())
        if states.min() < 0.0:
            return "negative simplex coordinate"
    if dev > 1e-12:
        return f"off the manifold by {dev:.3g}"
    return None


def path_call(label: str, model: Model, params: ModelParams, start: np.ndarray,
              seed: int, tiny: bool) -> Call:
    """simulate_path as the CLI `simulate` makes it: a fresh stream per path, every step recorded."""
    steps = 5 if tiny else int(round(PATH_T / PATH_DT))
    index = itertools.count()

    def run(tracer):
        rng = path_rng(seed, next(index))
        with _span(tracer, "simulate.simulate_path", shape=label, steps=steps):
            return simulate_path(model, start, steps * PATH_DT, PATH_DT, params, rng, 1)

    return Call(label, steps, run, partial(check_path, model, steps))


def null_event_share(counts: np.ndarray) -> float:
    """Mean over records of the chance that an event picks a concordant pair."""
    n = counts.sum(axis=1).astype(float)
    discordant = (n * n - (counts.astype(float) ** 2).sum(axis=1)) / (n * (n - 1.0))
    return float((1.0 - discordant).mean())


def check_moran(n: int, records: int, rec) -> str | None:
    if rec.counts.shape[0] != records:
        return f"{rec.counts.shape[0]} records, expected {records}"
    if rec.counts.min() < 0:
        return "negative count"
    if np.any(rec.counts.sum(axis=1) != n):
        return "counts do not sum to N"
    return None


def moran_call(label: str, counts: list[int], seed: int, tiny: bool) -> Call:
    state = MoranState(counts, 1.0)
    events = 2 * MORAN_STRIDE if tiny else MORAN_EVENTS
    index = itertools.count()

    def run(tracer):
        rng = path_rng(seed, next(index))
        with _span(tracer, "simulate.simulate_moran", shape=label, events=events) as rec:
            out = simulate_moran(state, events, rng, MORAN_STRIDE)
        if rec is not None:
            rec[ATTRS]["null_share"] = null_event_share(out.counts)
        return out

    return Call(label, events, run,
                partial(check_moran, state.N, events // MORAN_STRIDE + 1))


PATH_SHAPES = (("sphere-k3", Model.SPHERE, 3, None),
               ("wf-isotropic-k3", Model.WF_ISOTROPIC, 3, None),
               ("wf-mutation-k4", Model.WF_MUTATION, 4, (0.3, 0.5, 0.7, 0.9)),
               ("sphere-k6", Model.SPHERE, 6, None))


class Paths:
    name = "paths"
    unit = "steps+events"

    def __init__(self, seed: int, tiny: bool = False):
        rng = path_rng(seed, 0xA7)
        seeds = rng.integers(0, 2**62, size=(8, MAX_CYCLES))
        self.calls = []
        for i, (label, model, k, eps) in enumerate(PATH_SHAPES):
            start = (unit_vector(rng, k) if model is Model.SPHERE
                     else interior_points(rng, k, 1, 0.15)[0])
            self.calls.append(path_call(f"path-{label}", model, ModelParams(k, 1.0, eps),
                                        start, int(seeds[i, 0]), tiny))
        t = 5 * PATH_DT if tiny else PATH_T
        self.small = [
            EnsembleShape(f"small-{model.value}-k3", model, interior_points(rng, 3, 1, 0.15)[0],
                          16, t, PATH_DT, 1, seeds[4 + j], epsilon=eps, check_mean=False)
            for j, (model, eps) in enumerate(((Model.WF_NEUTRAL, None),
                                              (Model.WF_MUTATION, (0.3, 0.5, 0.7))))
        ]
        self.calls += [ensemble_call(s) for s in self.small]
        moran100 = moran_call("moran-n100-k2", [50, 50], int(seeds[6, 0]), tiny)
        self.calls += [moran100, moran_call("moran-n1000-k4", [250] * 4, int(seeds[7, 0]), tiny)]
        # the moran suite runs many N = 100 replicates; a second one per cycle
        # also makes the cycle 9 calls long, so the median latency lies inside
        # one shape's latencies instead of between two
        self.loop = self.calls + [moran100]

    def warmup_calls(self) -> list[Call]:
        return self.calls

    def check_calls(self) -> list[Call]:
        return []

    def cycle(self) -> list[Call]:
        return self.loop

    def instrument(self, tracer: Tracer) -> None:
        tracer.wrap(simulate_mod, "draw_skew", "simulate.draw_skew")

    def extra(self, tracer: Tracer, tally: Tally) -> None:
        pass

    def layers(self, tracer: Tracer) -> dict:
        paths = tracer.select("simulate.simulate_path", "timed")
        out = {}
        for label, *_ in PATH_SHAPES:
            mine = [s for s in paths if s[ATTRS]["shape"] == f"path-{label}"]
            out[f"simulate.path_us_per_step.{label}"] = (
                total(mine) / sum(s[ATTRS]["steps"] for s in mine) * 1e6, "us")
        out["simulate.draw_skew_share"] = (
            total(tracer.select("simulate.draw_skew", "timed")) / total(paths), "ratio")
        small = tracer.select("simulate.ensemble_final", "timed")
        out["simulate.small_ensemble_us_per_step"] = (
            total(small) / sum(s[ATTRS]["path_steps"] for s in small) * 1e6, "us")
        moran = tracer.select("simulate.simulate_moran", "timed")
        out["simulate.moran_ns_per_event"] = (
            total(moran) / sum(s[ATTRS]["events"] for s in moran) * 1e9, "ns")
        out["simulate.moran_null_event_share"] = (
            statistics.fmean(s[ATTRS]["null_share"] for s in moran), "ratio")
        return out


WORKLOADS = {"density": Density, "ensemble": Ensemble, "paths": Paths}
