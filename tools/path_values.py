"""Write a digest of each path record and ensemble of a seeded grid, one per line.

    python tools/path_values.py OUT [--seed N] [--tiny] [--src DIR]

The grid covers `simulate_path` for the four models, k = 2..10, strides
1 and 7, dt 1e-3 and 1e-4, from a seeded start in the interior and one
near the boundary (Dirichlet(0.1) on the simplex, its square root with
random signs on the sphere), 300 steps each.  A record's line gives the
sha256 of each array field of its PathRecord (times, states, defects,
clamps) and the repr of mean_defect, max_defect and n_steps.  The grid
then runs CLI `simulate` with --paths 1 and --paths 3 for the four
models at k = 2, 3, 5 and 8, strides 1 and 7, plus one run per model
with --paths 100 at k = 3 and one with --paths 800 at k = 8, stride 7
(batches large enough for the pair loop, whose draw_skew blocks are
shorter than a single path's), and gives each CSV's sha256.  Last come
`ensemble_final`'s chunks: one line per call for the four models, k = 2,
3, 5 and 8 and n_paths = 1, 16, 300 and ENSEMBLE_CHUNK + 3, 50 steps of
dt 1e-3 from a seeded start near the boundary on one worker, with the
sha256 of the finals and the repr of each EnsembleDiagnostics field.
Then `simulate_moran`: k = 2, 4 and 8 types, N = 100 and 1,000, from a
seeded interior composition and from one with a zero count, strides 1
and 124, 20,000 events each (many draw blocks), with the sha256 of the
counts and of the times and the repr of the last heterozygosity.  So
the files of two source trees agree under `cmp` only when every record,
CSV, ensemble and Moran run has the same bytes:

    python tools/path_values.py a.txt --src ../parent/src
    python tools/path_values.py b.txt
    cmp a.txt b.txt

--src picks the source tree whose `spherewf` is imported (default: the
`src` next to this tool).  --tiny writes a small grid (k 2-3, dt 1e-3,
20 steps, no --paths 100 or 800 run, no ensembles and no Moran runs) for
smoke tests.
The command line and the exit codes are those of
tools/density_values.py: 0 when the file is written, 2 on a usage error,
an unwritable OUT or a --src without spherewf; a run that raises ends
with its traceback (exit 1).
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
from density_values import dump  # the shared command line: this tool's directory is on sys.path

STRIDES = (1, 7)
STEPS = 300
DTS = (1e-3, 1e-4)
CLI_KS = (2, 3, 5, 8)
CLI_PATHS = (1, 3)
#: --paths of the one CLI run per model and k that takes the batch's pair
#: loop: simulate._MATRIX_MAX_ROWS is 64 at k = 3 and 768 from k = 6
CLI_BATCHES = {3: 100, 8: 800}
ENSEMBLE_KS = (2, 3, 5, 8)
ENSEMBLE_STEPS = 50
MORAN_KS = (2, 4, 8)
MORAN_NS = (100, 1000)
MORAN_STRIDES = (1, 124)
MORAN_EVENTS = 20_000


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _start(rng, sphere: bool, k: int, alpha: float) -> list[float]:
    """A seeded Dirichlet(alpha) point, or on the sphere its signed square root."""
    x = rng.dirichlet(np.full(k, alpha))
    if sphere:
        x = np.sqrt(x) * rng.choice((-1.0, 1.0), size=k)
    return x.tolist()


def lines(seed: int, tiny: bool):
    """Yield one line per record, then one per CLI run and one per ensemble, of the grid."""
    from spherewf.cli import main
    from spherewf.simulate import Model, path_rng, simulate_path
    from spherewf.types import ModelParams

    rng = np.random.default_rng(seed)
    ks, dts, steps, cli_ks = ((2, 3), DTS[:1], 20, (3,)) if tiny else (
        range(2, 11), DTS, STEPS, CLI_KS)
    index = 0
    for model in Model:
        sphere = model is Model.SPHERE
        for k in ks:
            eps = rng.uniform(0.2, 1.5, size=k).tolist() if model is Model.WF_MUTATION else None
            for where, alpha, c in (("interior", 1.0, 1.0), ("boundary", 0.1, 1.3)):
                start = _start(rng, sphere, k, alpha)
                params = ModelParams(k, c, eps)
                for dt in dts:
                    for stride in STRIDES:
                        index += 1
                        rec = simulate_path(model, start, steps * dt, dt, params,
                                            path_rng(seed, index), stride)
                        fields = " ".join(
                            f"{name}={_sha(getattr(rec, name).tobytes())}"
                            for name in ("times", "states", "defects", "clamps"))
                        yield (f"path {model.value} k={k} {where} c={c!r} dt={dt!r} "
                               f"stride={stride} seed={seed},{index}: {fields} "
                               f"mean_defect={rec.mean_defect!r} "
                               f"max_defect={rec.max_defect!r} n_steps={rec.n_steps!r}")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "paths.csv"
        for model in Model:
            for k in cli_ks:
                start = _start(rng, model is Model.SPHERE, k, 0.1)
                # --start=...: a value that begins with '-' would read as a flag
                argv = ["simulate", "--model", model.value, "--k", str(k),
                        "--start=" + ",".join(map(repr, start)),
                        "--T", repr(steps * dts[0]), "--dt", repr(dts[0])]
                if model is Model.WF_MUTATION:
                    eps = rng.uniform(0.2, 1.5, size=k).tolist()
                    argv += ["--epsilon", ",".join(map(repr, eps))]
                else:
                    argv += ["--c", "1.3"]
                runs = [(stride, paths) for stride in STRIDES for paths in CLI_PATHS]
                if k in CLI_BATCHES and not tiny:
                    runs.append((STRIDES[-1], CLI_BATCHES[k]))
                for stride, paths in runs:
                    run = argv + ["--record-stride", str(stride), "--paths", str(paths),
                                  "--seed", str(seed), "--output", str(out)]
                    code = main(run)
                    yield f"cli {' '.join(run[:-2])}: exit={code} csv={_sha(out.read_bytes())}"
    if not tiny:
        yield from ensemble_lines(seed)
        yield from moran_lines(seed)


def ensemble_lines(seed: int):
    """Yield one line per `ensemble_final` call of the ensemble grid: the
    sha256 of its finals and the repr of each EnsembleDiagnostics field."""
    from spherewf.simulate import ENSEMBLE_CHUNK, Model, ensemble_final

    rng = np.random.default_rng(seed)
    dt = 1e-3
    for model in Model:
        for k in ENSEMBLE_KS:
            eps = rng.uniform(0.2, 1.5, size=k).tolist() if model is Model.WF_MUTATION else None
            for n_paths in (1, 16, 300, ENSEMBLE_CHUNK + 3):
                start = _start(rng, model is Model.SPHERE, k, 0.1)
                finals, diag = ensemble_final(model, t=ENSEMBLE_STEPS * dt, dt=dt,
                                              n_paths=n_paths, seed=seed, start=start, c=1.3,
                                              epsilon=eps, workers=1)
                stats = " ".join(f"{f.name}={getattr(diag, f.name)!r}" for f in fields(diag))
                yield (f"ensemble {model.value} k={k} n_paths={n_paths} c=1.3 dt={dt!r} "
                       f"steps={ENSEMBLE_STEPS} seed={seed}: finals={_sha(finals.tobytes())} "
                       f"{stats}")


def moran_lines(seed: int):
    """Yield one line per `simulate_moran` run of the Moran grid: the
    sha256 of its counts and times and the repr of its last heterozygosity."""
    from spherewf.simulate import MoranState, path_rng, simulate_moran

    rng = np.random.default_rng(seed)
    index = 0
    for k in MORAN_KS:
        for N in MORAN_NS:
            interior = rng.multinomial(N - k, np.full(k, 1.0 / k)) + 1
            zero = interior.copy()
            zero[-1] = 0
            zero[0] += N - zero.sum()
            for where, counts in (("interior", interior), ("zero", zero)):
                state = MoranState(counts, 1.5)
                for stride in MORAN_STRIDES:
                    index += 1  # 2^32 + index: streams apart from the path grid's
                    rec = simulate_moran(state, MORAN_EVENTS, path_rng(seed, 2**32 + index),
                                         stride)
                    yield (f"moran k={k} N={N} {where} counts={counts.tolist()} "
                           f"stride={stride} events={MORAN_EVENTS} seed={seed},{2**32 + index}: "
                           f"counts={_sha(rec.counts.tobytes())} "
                           f"times={_sha(rec.times.tobytes())} "
                           f"heterozygosity={float(rec.heterozygosity[-1])!r}")


def main(argv: list[str]) -> int:
    return dump(argv, lines, "dump single-path record digests on a fixed grid", 13)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
