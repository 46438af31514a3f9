"""Command-line front end.

Subcommands: density, simulate, verify, moran.  Outputs are CSV (with a
leading '# config: {...}' metadata line echoing the fully resolved
configuration) or JSON lines for verification reports.  Reals are
written with 17 significant digits so files round-trip exactly.

Config precedence: command-line flags > --config JSON file > defaults.
The default seed comes from the SPHEREWF_SEED environment variable when
set; an explicit --seed always wins.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical non-convergence, 141 output pipe closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .simulate import (
    DEFAULT_SEED,
    Model,
    MoranState,
    moran_event_rate,
    path_rng,
    pool_map,
    simulate_moran,
    simulate_path,
)
from .sphere_heat import SphereKernelQuery, heat_kernel
from .types import ModelParams, SimplexPoint, SpherePoint, Truncation
from .wf_density import (
    GriffithsQuery,
    PushforwardQuery,
    dirichlet_stationary,
    griffiths_density,
    pushforward_density,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a reader that quit

SEED_ENV_VAR = "SPHEREWF_SEED"


class ConfigError(Exception):
    pass


class NonConvergence(Exception):
    pass


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"could not parse float list {text!r}: {exc}") from None


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _apply_config_file(args: argparse.Namespace, parser_keys: set[str]) -> None:
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config file: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config file: top level must be an object")
    unknown = set(data) - parser_keys
    if unknown:
        raise ConfigError(f"config file: unknown keys {sorted(unknown)}")
    for key, value in data.items():
        # CLI flags win: only fill values the user did not pass explicitly
        if key in args.__dict__ and key not in args._explicit:
            setattr(args, key, value)


_NON_SEMANTIC_KEYS = ("func", "output", "summary", "config")


def _config_dict(args: argparse.Namespace) -> dict:
    # file locations are excluded so identical runs give identical bytes
    return {k: v for k, v in sorted(vars(args).items())
            if not k.startswith("_") and k not in _NON_SEMANTIC_KEYS and v is not None}


def _write_csv(path: str | None, header: list[str], rows, config: dict) -> None:
    out = sys.stdout if path in (None, "-") else open(path, "w", encoding="utf-8", newline="")
    try:
        out.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(_fmt(v) for v in row) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


def _trunc_from_args(args) -> Truncation:
    return Truncation(max_terms=args.max_terms, tol=args.tol,
                      consecutive_small=args.consecutive_small)


# --- density -----------------------------------------------------------------

def _density_rows(args) -> tuple[list[str], list[list]]:
    kernel = args.kernel
    trunc = _trunc_from_args(args)
    pairs: list[tuple[list[float], list[float] | None]] = []
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                vals = _parse_floats(line)
                if kernel == "stationary":
                    pairs.append((vals, None))
                else:
                    if len(vals) % 2:
                        raise ConfigError("input: rows must hold two points (2k columns)")
                    half = len(vals) // 2
                    pairs.append((vals[:half], vals[half:]))
    else:
        if kernel == "stationary":
            if args.x is None:
                raise ConfigError("density: field 'x' is required for kernel=stationary")
            pairs.append((_parse_floats(args.x), None))
        elif kernel == "sphere":
            if args.y is None or args.y_prime is None:
                raise ConfigError("density: fields 'y' and 'y-prime' are required for kernel=sphere")
            pairs.append((_parse_floats(args.y), _parse_floats(args.y_prime)))
        else:
            if args.x is None or args.x_prime is None:
                raise ConfigError(f"density: fields 'x' and 'x-prime' are required for kernel={kernel}")
            pairs.append((_parse_floats(args.x), _parse_floats(args.x_prime)))

    def _point(cls, vals, field):
        try:
            return cls(vals)
        except ValueError as exc:
            raise ConfigError(f"density: field '{field}': {exc}") from None

    rows = []
    for a, b in pairs:
        try:
            if kernel == "stationary":
                eps = args.epsilon if args.epsilon is not None else "0.5"
                eps_vec = _parse_floats(eps) if isinstance(eps, str) else [float(eps)]
                if len(eps_vec) == 1:
                    eps_vec = eps_vec * len(a)
                value = dirichlet_stationary(_point(SimplexPoint, a, "x"), eps_vec)
                rows.append(list(a) + [value, 0, 0.0, 1])
                continue
            if args.t is None:
                raise ConfigError("density: field 't' is required")
            if kernel == "sphere":
                res = heat_kernel(SphereKernelQuery(_point(SpherePoint, a, "y"),
                                                    _point(SpherePoint, b, "y-prime"),
                                                    args.t, args.D, trunc))
            elif kernel == "griffiths":
                eps = float(args.epsilon) if args.epsilon is not None else 0.5
                res = griffiths_density(GriffithsQuery(_point(SimplexPoint, a, "x"),
                                                       _point(SimplexPoint, b, "x-prime"),
                                                       args.t, eps, trunc))
            elif kernel == "pushforward":
                res = pushforward_density(PushforwardQuery(_point(SimplexPoint, a, "x"),
                                                           _point(SimplexPoint, b, "x-prime"),
                                                           args.t, args.D, trunc))
            else:
                raise ConfigError(f"density: unknown kernel {kernel!r}")
        except ValueError as exc:
            raise ConfigError(f"density: {exc}") from None
        if not res.converged:
            raise NonConvergence(
                f"density: series not converged within max_terms={args.max_terms} "
                f"(tail bound {res.tail_bound:.3e})"
            )
        rows.append(list(a) + list(b) + [res.value, res.terms_used, res.tail_bound,
                                         int(res.converged)])
    if kernel == "stationary":
        kcols = len(pairs[0][0])
        header = [f"x{i + 1}" for i in range(kcols)] + ["value", "terms", "tail_bound", "converged"]
    else:
        ka = len(pairs[0][0])
        pref = "y" if kernel == "sphere" else "x"
        header = [f"{pref}{i + 1}" for i in range(ka)] \
            + [f"{pref}p{i + 1}" for i in range(ka)] \
            + ["value", "terms", "tail_bound", "converged"]
    return header, rows


def _cmd_density(args) -> int:
    header, rows = _density_rows(args)
    _write_csv(args.output, header, rows, _config_dict(args))
    return EXIT_OK


# --- simulate ------------------------------------------------------------------

def _simulate_one(payload):
    model, start, T, dt, k, c, eps, seed, path_index, stride = payload
    params = ModelParams(k, c, eps)
    return simulate_path(model, start, T, dt, params, path_rng(seed, path_index), stride)


def _run_paths(model, start, args, params):
    payloads = [
        (model, start, args.T, args.dt, params.k, params.c,
         tuple(params.epsilon), args.seed, i, args.record_stride)
        for i in range(args.paths)
    ]
    return pool_map(_simulate_one, payloads, args.threads)


def _cmd_simulate(args) -> int:
    try:
        model = Model(args.model)
    except ValueError:
        raise ConfigError(f"simulate: unknown model {args.model!r}") from None
    if args.paths < 1:
        raise ConfigError(f"simulate: field 'paths' must be >= 1, got {args.paths}")
    k = args.k
    eps = _parse_floats(args.epsilon) if args.epsilon else None
    if eps is not None and len(eps) == 1:
        eps = eps * k
    try:
        params = ModelParams(k, args.c, eps)
    except ValueError as exc:
        raise ConfigError(f"simulate: {exc}") from None
    if args.start:
        start = _parse_floats(args.start)
        if len(start) != k:
            raise ConfigError(f"simulate: field 'start' must have k={k} entries")
    elif model is Model.SPHERE:
        start = [0.0] * (k - 1) + [1.0]
    else:
        start = [1.0 / k] * k
    try:
        records = _run_paths(model, start, args, params)
    except ValueError as exc:
        raise ConfigError(f"simulate: {exc}") from None
    rows = []
    for path_index, rec in enumerate(records):
        for i in range(rec.times.size):
            rows.append([path_index, rec.times[i]] + list(rec.states[i])
                        + [rec.defects[i], int(rec.clamps[i])])
    header = ["path", "t"] + [f"s{i + 1}" for i in range(k)] + ["defect", "clamps"]
    _write_csv(args.output, header, rows, _config_dict(args))
    return EXIT_OK


# --- verify --------------------------------------------------------------------

def _cmd_verify(args) -> int:
    from . import harness  # scipy.stats: loaded only when verifying

    try:
        reports = harness.run_suite(args.suite, seed=args.seed, workers=args.threads,
                                    k=args.k)
    except ValueError as exc:
        raise ConfigError(f"verify: {exc}") from None
    if args.output:
        harness.write_reports_jsonl(reports, args.output)
    if args.summary:
        harness.write_summary_csv(reports, args.summary)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: statistic={r.statistic:.6g} threshold={r.threshold:.6g} "
              f"({r.wall_time_s:.2f}s)")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAIL


# --- moran ---------------------------------------------------------------------

def _cmd_moran(args) -> int:
    counts = [int(v) for v in _parse_floats(args.counts)] if args.counts else None
    if counts is None:
        base = args.N // args.k
        counts = [base] * args.k
        counts[0] += args.N - base * args.k
    try:
        state = MoranState(counts, args.lam)
    except ValueError as exc:
        raise ConfigError(f"moran: {exc}") from None
    if sum(counts) != args.N:
        raise ConfigError(f"moran: field 'counts' sums to {sum(counts)}, not N={args.N}")
    if args.events is not None:
        events = args.events
    elif args.T is not None:
        events = int(round(args.T * moran_event_rate(state)))
    else:
        raise ConfigError("moran: one of the fields 'events' or 'T' is required")
    rec = simulate_moran(state, events, path_rng(args.seed, 0), args.record_stride)
    rows = [
        [int(rec.event_index[i]), rec.times[i]] + [int(c) for c in rec.counts[i]]
        + [rec.heterozygosity[i]]
        for i in range(rec.event_index.size)
    ]
    header = ["event", "t"] + [f"n{i + 1}" for i in range(state.k)] + ["heterozygosity"]
    _write_csv(args.output, header, rows, _config_dict(args))
    return EXIT_OK


# --- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: the config file's precedence rule needs the flags
    # the user typed, and an abbreviated flag would hide its destination
    parser = argparse.ArgumentParser(
        prog="spherewf",
        allow_abbrev=False,
        description="Sphere-diffusion and Wright-Fisher transition densities, "
                    "simulators, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pd = sub.add_parser("density", help="evaluate exact transition densities", allow_abbrev=False)
    pd.add_argument("--kernel", required=True,
                    choices=["sphere", "griffiths", "pushforward", "stationary"])
    pd.add_argument("--t", type=float)
    pd.add_argument("--D", type=float, default=0.125)
    pd.add_argument("--epsilon", type=str)
    pd.add_argument("--x", type=str, help="comma-separated simplex point")
    pd.add_argument("--x-prime", dest="x_prime", type=str)
    pd.add_argument("--y", type=str, help="comma-separated unit vector")
    pd.add_argument("--y-prime", dest="y_prime", type=str)
    pd.add_argument("--input", type=str, help="CSV of point pairs, one per row")
    pd.add_argument("--tol", type=float, default=1e-10)
    pd.add_argument("--max-terms", dest="max_terms", type=int, default=400)
    pd.add_argument("--consecutive-small", dest="consecutive_small", type=int, default=3)
    pd.add_argument("--output", type=str)
    pd.add_argument("--config", type=str)
    pd.set_defaults(func=_cmd_density)

    ps = sub.add_parser("simulate", help="integrate sample paths", allow_abbrev=False)
    ps.add_argument("--model", required=True,
                    choices=[m.value for m in Model])
    ps.add_argument("--k", type=int, default=3)
    ps.add_argument("--T", type=float, required=True)
    ps.add_argument("--dt", type=float, default=1e-4)
    ps.add_argument("--c", type=float, default=1.0)
    ps.add_argument("--epsilon", type=str)
    ps.add_argument("--start", type=str)
    ps.add_argument("--paths", type=int, default=1)
    ps.add_argument("--record-stride", dest="record_stride", type=int, default=1)
    ps.add_argument("--seed", type=int)
    ps.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    ps.add_argument("--output", type=str)
    ps.add_argument("--config", type=str)
    ps.set_defaults(func=_cmd_simulate)

    pv = sub.add_parser("verify", help="run a verification suite", allow_abbrev=False)
    pv.add_argument("--suite", required=True,
                    help="suite name or 'all' (see README; an unknown name lists them)")
    pv.add_argument("--k", type=int, help="restrict the equivalence suite to one dimension")
    pv.add_argument("--seed", type=int)
    pv.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    pv.add_argument("--output", type=str, help="JSONL report path")
    pv.add_argument("--summary", type=str, help="CSV summary path")
    pv.add_argument("--config", type=str)
    pv.set_defaults(func=_cmd_verify)

    pm = sub.add_parser("moran", help="simulate the interacting-particle model",
                        allow_abbrev=False)
    pm.add_argument("--k", type=int, default=2)
    pm.add_argument("--N", type=int, default=100)
    pm.add_argument("--lam", type=float, default=1.0)
    pm.add_argument("--counts", type=str, help="initial counts (default near-even split)")
    pm.add_argument("--events", type=int)
    pm.add_argument("--T", type=float)
    pm.add_argument("--record-stride", dest="record_stride", type=int, default=1)
    pm.add_argument("--seed", type=int)
    pm.add_argument("--output", type=str)
    pm.add_argument("--config", type=str)
    pm.set_defaults(func=_cmd_moran)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._explicit = _explicit_dests(argv if argv is not None else sys.argv[1:], parser)
    try:
        keys = {a for a in vars(args) if not a.startswith("_") and a not in ("func", "command")}
        _apply_config_file(args, keys)
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _default_seed()
        code = args.func(args)
        sys.stdout.flush()  # here, so that a closed pipe is caught below
        return code
    except BrokenPipeError:
        # the reader stopped early (`| head`): end quietly, with stdout on
        # devnull so that the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED


def _explicit_dests(tokens, parser) -> set[str]:
    """Destinations the user set on the command line (for config precedence)."""
    explicit = set()
    for tok in tokens:
        if tok.startswith("--"):
            explicit.add(tok[2:].split("=", 1)[0].replace("-", "_"))
    return explicit


if __name__ == "__main__":
    sys.exit(main())
