"""Command-line front end.

Subcommands: density, simulate, verify, moran.  Outputs are CSV (with a
leading '# config: {...}' metadata line echoing the fully resolved
configuration) or JSON lines for verification reports.  Reals are
written with 17 significant digits so files round-trip exactly.

Config precedence: command-line flags > --config JSON file > defaults.
Each run reads the fields `_READS` lists for it: one still missing is an
error, and so is one that is set but never read, so '# config:' echoes
only values that took effect.  The default seed comes from the
SPHEREWF_SEED environment variable when set; an explicit --seed wins.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical non-convergence, 141 output pipe closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .simulate import (
    DEFAULT_SEED,
    Model,
    MoranState,
    _simulate_paths,
    moran_event_rate,
    path_rng,
    simulate_moran,
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


def _apply_config_file(args: argparse.Namespace) -> None:
    if not args.config:
        return
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config file: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config file: top level must be an object")
    unknown = set(data) - set(_fields(args.command))
    if unknown:
        raise ConfigError(f"config file: unknown keys {sorted(unknown)}")
    for key, value in data.items():
        if getattr(args, key) is not None:  # every flag parses to None unless typed
            continue  # and a typed flag wins; a file value is checked as if typed
        kind = _FIELDS[key][0]
        token = value if isinstance(value, str) else json.dumps(value)
        if isinstance(kind, list):
            if token not in kind:
                raise ConfigError(f"config file: field '{key}' must be one of {kind}, "
                                  f"got {value!r}")
        else:
            try:
                token = kind(token)
            except ValueError:
                raise ConfigError(f"config file: field '{key}': invalid "
                                  f"{kind.__name__} value {value!r}") from None
        setattr(args, key, token)


#: every field, in the order of the flags in `--help`: its type (for
#: `kernel` and `model`, the list of choices) and its help text, by command
#: where the commands differ
_FIELDS = {
    "kernel": (["sphere", "griffiths", "pushforward", "stationary"], None),
    "model": ([m.value for m in Model], None),
    "suite": (str, "suite name or 'all' (see README; an unknown name lists them)"),
    "k": (int, {"verify": "restrict the equivalence suite to one dimension",
                "moran": "number of types (default: from --counts, else 2)"}),
    "N": (int, None),
    "lam": (float, None),
    "counts": (str, "initial counts (default near-even split)"),
    "events": (int, None),
    "T": (float, None),
    "t": (float, None),
    "D": (float, None),
    "dt": (float, None),
    "c": (float, None),
    "epsilon": (str, None),
    "x": (str, "comma-separated simplex point"),
    "x_prime": (str, None),
    "y": (str, "comma-separated unit vector"),
    "y_prime": (str, None),
    "input": (str, "CSV of point pairs, one per row"),
    "start": (str, None),
    "paths": (int, None),
    "tol": (float, None),
    "max_terms": (int, None),
    "record_stride": (int, None),
    "seed": (int, None),
    "threads": (int, None),
    "output": (str, {"verify": "JSONL report path"}),
    "summary": (str, "CSV summary path"),
    "config": (str, None),
}

#: marks a field that has no built-in default
_NEEDED = object()

_SERIES = {"t": _NEEDED, "tol": 1e-10, "max_terms": 400}

#: the fields each run reads, each with its built-in default (a callable is
#: called for it).  Per command: the field that picks the variant (None if
#: there is none), the fields every run reads, and each variant's own fields.
_READS = {
    "density": ("kernel", {"input": None}, {
        "stationary": {"x": _NEEDED, "epsilon": "0.5"},
        "sphere": {"y": _NEEDED, "y_prime": _NEEDED, **_SERIES, "D": 0.125},
        "griffiths": {"x": _NEEDED, "x_prime": _NEEDED, **_SERIES, "epsilon": "0.5"},
        "pushforward": {"x": _NEEDED, "x_prime": _NEEDED, **_SERIES, "D": 0.125},
    }),
    "simulate": ("model", {"k": 3, "T": _NEEDED, "dt": 1e-4, "start": None, "paths": 1,
                           "record_stride": 1, "seed": _default_seed}, {
        "sphere": {"c": 1.0}, "wf-neutral": {"c": 1.0}, "wf-isotropic": {"c": 1.0},
        "wf-mutation": {"epsilon": _NEEDED},  # advance never reads c for this model
    }),
    "verify": ("suite", {"seed": _default_seed, "threads": os.cpu_count() or 1, "summary": None},
               {"equivalence": {"k": None}, "all": {"k": None}}),
    "moran": (None, {"k": None, "N": 100, "lam": 1.0, "counts": None, "events": None,
                     "T": None, "record_stride": 1, "seed": _default_seed}, {}),
}

_NON_SEMANTIC_KEYS = ("func", "output", "summary", "config")


def _fields(command: str) -> list[str]:
    """The fields a command has flags for: those its runs read, `output` and `config`."""
    pick, reads, variants = _READS[command]
    names = {pick, *reads, "output", "config"}.union(*variants.values())
    return [f for f in _FIELDS if f in names]


def _resolve(args: argparse.Namespace) -> None:
    """Check a run against `_READS` once the config file is merged, and fill its defaults."""
    pick, reads, variants = _READS[args.command]
    reader = args.command
    if pick:
        value = getattr(args, pick)
        if pick == "suite" and value is not None:  # an unknown suite is refused first
            from . import harness  # loaded only when verifying
            harness._suite_keys(value)
        reads = {pick: _NEEDED, **reads, **variants.get(value, {})}
        reader = f"{pick}={value}"
    if getattr(args, "input", None):  # the points come from the file
        reads = {f: d for f, d in reads.items() if f not in ("x", "x_prime", "y", "y_prime")}
        reader += " with --input"
    missing = [f"'{f}'" for f, d in reads.items() if d is _NEEDED and getattr(args, f) is None]
    if missing:
        raise ConfigError(f"{args.command}: field(s) {', '.join(missing)} required "
                          f"(flag or config file)")
    unread = [f"'{f}'" for f in _fields(args.command) if f not in reads
              and f not in _NON_SEMANTIC_KEYS and getattr(args, f) is not None]
    if unread:
        raise ConfigError(f"{args.command}: {reader} does not read field(s) "
                          f"{', '.join(unread)} (flag or config file); remove them")
    for f, default in reads.items():
        if getattr(args, f) is None:
            setattr(args, f, default() if callable(default) else default)


def _write_csv(args: argparse.Namespace, header: list[str], rows) -> None:
    # file locations are left out of '# config:' so identical runs give identical bytes
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in _NON_SEMANTIC_KEYS and v is not None}
    path = args.output
    out = sys.stdout if path in (None, "-") else open(path, "w", encoding="utf-8", newline="")
    try:
        out.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(_fmt(v) for v in row) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


# --- density -----------------------------------------------------------------

def _cmd_density(args) -> int:
    kernel = args.kernel
    pref = "y" if kernel == "sphere" else "x"
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
        if not pairs:
            raise ConfigError(f"density: field 'input': {args.input!r} holds no data rows")
        if any(len(a) != len(pairs[0][0]) for a, _ in pairs):
            raise ConfigError(f"density: field 'input': {args.input!r} has rows of different k")
    else:
        second = None if kernel == "stationary" else _parse_floats(getattr(args, pref + "_prime"))
        pairs.append((_parse_floats(getattr(args, pref)), second))

    def _point(cls, vals, field):
        try:
            return cls(vals)
        except ValueError as exc:
            raise ConfigError(f"density: field '{field}': {exc}") from None

    cls = SpherePoint if kernel == "sphere" else SimplexPoint
    rows = []
    if kernel == "stationary":
        eps_vec = _parse_floats(args.epsilon)
    else:
        trunc = Truncation(max_terms=args.max_terms, tol=args.tol)
    for a, b in pairs:
        point = _point(cls, a, pref)
        if kernel == "stationary":
            value = dirichlet_stationary(point,
                                         eps_vec * len(a) if len(eps_vec) == 1 else eps_vec)
            rows.append(list(a) + [value, 0, 0.0, 1])
            continue
        other = _point(cls, b, pref + "-prime")
        if kernel == "sphere":
            res = heat_kernel(SphereKernelQuery(point, other, args.t, args.D, trunc))
        elif kernel == "griffiths":
            res = griffiths_density(GriffithsQuery(point, other, args.t, float(args.epsilon),
                                                   trunc))
        else:  # pushforward
            res = pushforward_density(PushforwardQuery(point, other, args.t, args.D, trunc))
        if not res.converged:
            raise NonConvergence(
                f"density: series not converged within max_terms={args.max_terms} "
                f"(tail bound {res.tail_bound:.3e})"
            )
        rows.append(list(a) + list(b) + [res.value, res.terms_used, res.tail_bound,
                                         int(res.converged)])
    ka = len(pairs[0][0])
    header = [f"{pref}{i + 1}" for i in range(ka)]
    if kernel != "stationary":
        header += [f"{pref}p{i + 1}" for i in range(ka)]
    header += ["value", "terms", "tail_bound", "converged"]
    # rows is a list, not a stream: an error can arrive mid-evaluation, and
    # no partial file may be written
    _write_csv(args, header, rows)
    return EXIT_OK


# --- simulate ------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    model = Model(args.model)
    if args.paths < 1:
        raise ConfigError(f"simulate: field 'paths' must be >= 1, got {args.paths}")
    k = args.k
    c, eps = args.c, None
    if model is Model.WF_MUTATION:  # ModelParams needs a valid c that advance never reads
        c, eps = 1.0, _parse_floats(args.epsilon)
        if len(eps) == 1:
            eps = eps * k
    params = ModelParams(k, c, eps)
    if args.start:
        start = _parse_floats(args.start)
        if len(start) != k:
            raise ConfigError(f"simulate: field 'start' must have k={k} entries")
    elif model is Model.SPHERE:
        start = [0.0] * (k - 1) + [1.0]
    else:
        start = [1.0 / k] * k
    rngs = [path_rng(args.seed, i) for i in range(args.paths)]
    records = _simulate_paths(model, start, args.T, args.dt, params, rngs, args.record_stride)
    rows = ([path_index, rec.times[i]] + list(rec.states[i])
            + [rec.defects[i], int(rec.clamps[i])]
            for path_index, rec in enumerate(records) for i in range(rec.times.size))
    header = ["path", "t"] + [f"s{i + 1}" for i in range(k)] + ["defect", "clamps"]
    _write_csv(args, header, rows)
    return EXIT_OK


# --- verify --------------------------------------------------------------------

def _cmd_verify(args) -> int:
    from . import harness  # loaded only when verifying

    reports = harness.run_suite(args.suite, seed=args.seed, workers=args.threads, k=args.k)
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
    if args.counts:
        counts = _parse_floats(args.counts)
        if args.k not in (None, len(counts)):
            raise ConfigError(f"moran: field 'counts' has {len(counts)} entries, "
                              f"but field 'k' is {args.k}")
        args.k = len(counts)
    else:
        args.k = 2 if args.k is None else args.k
        if args.k < 2:
            raise ConfigError(f"moran: field 'k' must be >= 2, got {args.k}")
        base = args.N // args.k
        counts = [base] * args.k
        counts[0] += args.N - base * args.k
    if args.record_stride < 1:
        raise ConfigError(f"moran: field 'record_stride' must be >= 1, got {args.record_stride}")
    state = MoranState(counts, args.lam)
    if state.N != args.N:
        raise ConfigError(f"moran: field 'counts' sums to {state.N}, not N={args.N}")
    if args.events is not None and args.T is not None:
        raise ConfigError("moran: fields 'events' and 'T' cannot both be set; give one")
    if args.events is not None:
        if args.events < 0:
            raise ConfigError(f"moran: field 'events' must be >= 0, got {args.events}")
        events = args.events
    elif args.T is not None:
        events = args.T * moran_event_rate(state)  # simulate_moran bounds the count
        if not (0.0 <= events < math.inf):
            raise ConfigError(f"moran: field 'T' must give a finite count >= 0, got {args.T}")
        events = int(round(events))
    else:
        raise ConfigError("moran: one of the fields 'events' or 'T' is required")
    rec = simulate_moran(state, events, path_rng(args.seed, 0), args.record_stride)
    rows = (
        [int(rec.event_index[i]), rec.times[i]] + [int(c) for c in rec.counts[i]]
        + [rec.heterozygosity[i]]
        for i in range(rec.event_index.size)
    )
    header = ["event", "t"] + [f"n{i + 1}" for i in range(state.k)] + ["heterozygosity"]
    _write_csv(args, header, rows)
    return EXIT_OK


# --- parser ----------------------------------------------------------------------

#: each command's function and its line in `spherewf --help`
_COMMANDS = {
    "density": (_cmd_density, "evaluate exact transition densities"),
    "simulate": (_cmd_simulate, "integrate sample paths"),
    "verify": (_cmd_verify, "run a verification suite"),
    "moran": (_cmd_moran, "simulate the interacting-particle model"),
}


def build_parser() -> argparse.ArgumentParser:
    # Every flag defaults to None, so a value after parsing is one the user
    # typed; `_READS` holds the built-in defaults.  allow_abbrev=False: full
    # flags only, so a flag added later cannot change what an abbreviation meant.
    parser = argparse.ArgumentParser(
        prog="spherewf",
        allow_abbrev=False,
        description="Sphere-diffusion and Wright-Fisher transition densities, "
                    "simulators, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, about) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=about, allow_abbrev=False)
        for f in _fields(command):
            kind, text = _FIELDS[f]
            cmd.add_argument("--" + f.replace("_", "-"),
                             help=text.get(command) if isinstance(text, dict) else text,
                             **({"choices": kind} if isinstance(kind, list) else {"type": kind}))
        cmd.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args)
        _resolve(args)
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
    except ValueError as exc:  # the library refused a value of this run
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
