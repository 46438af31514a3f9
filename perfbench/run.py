"""spherewf benchmark: one command, three workloads, end-to-end or traced.

    python3 perfbench/run.py --workload density|ensemble|paths \\
        --seed N --seconds S --trace 0|1

Run it from anywhere inside a spherewf source tree: the package is
imported from the tree's ./src and never from site-packages, and the
command fails (exit code 2, no result) when ./src/spherewf is missing.

--trace 0 reports the end-to-end metrics.  The launcher starts the
workload's number n of fresh interpreters one after another.  Each one
imports spherewf, makes the workload's inputs from the seed, makes the
warm-up calls and the run-level checks, and then runs a closed loop over
whole cycles of calls for S / n seconds.  The launcher pools their
tallies.  So import and cold caches are paid in every interpreter,
warmup_s (a mean) has n samples, and the timed loop is spread over the
whole run: machine speed here flips between a fast and a slow state
every few seconds to tens of seconds.  Interpreters that stop once their
inputs are ready, placed between the others, bring setup_s (a median)
to SETUP_SAMPLES samples.  BLAS/OpenMP
threads are pinned to 1, and the pool shapes use at most nproc workers.

--trace 1 reports the per-layer metrics instead.  One interpreter runs
the timed loop for S seconds, alternating untraced and traced cycles
(their throughput ratio is the tracing overhead), then one traced cycle
of each other workload, so every layer is measured on the workload that
exercises it.  The import.* metrics come from separate
`python -X importtime -c "import spherewf"` probes.  Spans are written to
perfbench/out/<workload>-seed<N>.spans.jsonl and the full result, with
the machine and package versions, to perfbench/out/<workload>-seed<N>-trace<T>.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: fresh interpreters per end-to-end run; each pays setup and warm-up,
#: so the workloads with a long warm-up get fewer
INTERPRETERS = {"density": 2, "ensemble": 2, "paths": 6}
SETUP_SAMPLES = 5
IMPORT_PROBES = 3
RUN_DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: import.* metric -> module whose first import (with whatever it pulls in
#: for the first time) it times; spherewf is what the package adds itself
IMPORTS = {"import.numpy_s": "numpy", "import.scipy_special_s": "scipy.special",
           "import.scipy_stats_s": "scipy.stats", "import.mpmath_s": "mpmath",
           "import.spherewf_self_s": "spherewf"}


def _parse(argv):
    p = argparse.ArgumentParser(description="spherewf benchmark")
    p.add_argument("--workload", required=True, choices=tuple(INTERPRETERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest inputs and two interpreters (smoke test)")
    p.add_argument("--child", choices=("run", "setup"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


# --- child interpreter ------------------------------------------------------------

def _setup(args):
    """Import spherewf from ./src and make the inputs; returns (workload, t_ready)."""
    sys.path.insert(0, str(SRC))
    import spherewf

    if not Path(spherewf.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: spherewf imported from {spherewf.__file__}, not {SRC}")
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    return wl, time.monotonic()


def _end_to_end(args, wl, tally) -> dict:
    import resource

    import workloads as W

    t0 = time.perf_counter()
    W.execute(wl.warmup_calls(), tally)
    warmup_s = time.perf_counter() - t0
    W.execute(wl.check_calls(), tally)
    timed = W.Tally()
    timed_s = W.run_for(wl.cycle(), args.seconds, timed)
    tally.add(timed)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {"warmup_s": warmup_s, "timed_s": timed_s, "work": timed.work,
            "latencies": timed.latencies, "rss_mb": rss_kb / 1024.0}


def _traced(args, wl, tally) -> dict:
    import workloads as W
    from tracer import Tracer

    tracers = []
    with Tracer() as tr:
        wl.instrument(tr)
        W.execute(wl.warmup_calls(), tally, tr)
        tr.restore()
        W.execute(wl.check_calls(), tally)
        # untraced and traced cycles alternate, so both see the same machine states
        tr.phase = "timed"
        kinds = {False: W.Tally(), True: W.Tally()}
        elapsed = {False: 0.0, True: 0.0}
        start, traced = time.perf_counter(), False
        while True:
            if traced:
                wl.instrument(tr)
            c0 = time.perf_counter()
            W.execute(wl.cycle(), kinds[traced], tr if traced else None)
            now = time.perf_counter()
            elapsed[traced] += now - c0
            tr.restore()
            if traced and now - start + 0.5 * (now - c0) > args.seconds:
                break
            traced = not traced
        tr.phase = "extra"
        wl.extra(tr, tally)
    for kind in kinds.values():
        tally.add(kind)
    tracers.append((wl.name, tr))
    layers = wl.layers(tr)
    layers["trace.overhead_frac"] = (
        1.0 - (kinds[True].work / elapsed[True]) / (kinds[False].work / elapsed[False]),
        "ratio")
    for name, cls in W.WORKLOADS.items():
        if name == wl.name:
            continue
        other = cls(args.seed, args.tiny)
        with Tracer() as tv:
            other.instrument(tv)
            W.execute(other.warmup_calls(), tally, tv)
            W.execute(other.check_calls(), tally)
            tv.phase = "timed"
            W.execute(other.cycle(), tally, tv)
            tv.phase = "extra"
            other.extra(tv, tally)
        tracers.append((name, tv))
        layers.update(other.layers(tv))
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl", "w") as fh:
        for name, t in tracers:
            t.write_jsonl(fh, name)
    return {"metrics": layers,
            "self_time_s": {name: t.self_times() for name, t in tracers},
            "untraced_calls": kinds[False].attempted, "traced_calls": kinds[True].attempted}


def _child(args) -> int:
    wl, t_ready = _setup(args)
    import workloads as W

    tally = W.Tally()
    result = {} if args.child == "setup" else (_traced if args.trace else _end_to_end)(
        args, wl, tally)
    result.update(t_ready=t_ready, attempted=tally.attempted, failed=tally.failed,
                  failures=tally.failures[:20])
    print(json.dumps(result))
    return 0


# --- launcher -------------------------------------------------------------------

class ChildError(RuntimeError):
    pass


def _run(what: str, cmd: list[str], deadline: float,
         env: dict | None = None) -> tuple[str, str]:
    """Run cmd in its own session; returns (stdout, stderr), or raises ChildError."""
    # own session, so a timeout stops the interpreter with its pool workers
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True, env=env)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildError(f"{what} timed out") from exc
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise ChildError(f"{what} exited with code {proc.returncode}")
    return stdout, stderr


def _spawn(args, mode: str, seconds: float, deadline: float) -> dict:
    """Run one fresh benchmark interpreter in `mode`; returns its result, with setup_s."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    launched = time.monotonic()
    stdout, stderr = _run("benchmark interpreter", cmd, deadline)
    sys.stderr.write(stderr)
    if not stdout.strip():
        raise ChildError("benchmark interpreter printed no result")
    out = json.loads(stdout.strip().splitlines()[-1])
    out["setup_s"] = out["t_ready"] - launched
    return out


def import_shares(report: str) -> dict[str, float]:
    """Seconds of `-X importtime` self time charged to each IMPORTS module.

    Each imported module is charged to the nearest IMPORTS module among
    itself and the modules that imported it, so a dependency counts what
    it pulls in for the first time.  A bare parent package ("scipy") goes
    with the submodule imported right after it ("scipy.special").  Modules
    outside every IMPORTS module (interpreter start-up) are not charged.
    """
    rows = []
    for line in report.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        raw = fields[2]
        rows.append((int(fields[0]) * 1e-6, (len(raw) - len(raw.lstrip()) - 1) // 2,
                     raw.strip()))
    owner = {module: metric for metric, module in IMPORTS.items()}
    shares = dict.fromkeys(IMPORTS, 0.0)
    # reversed, the post-order report lists each module before what it imported
    stack: list[tuple[str | None, str]] = []
    for self_s, depth, name in reversed(rows):
        after = stack[depth] if len(stack) > depth else None
        del stack[depth:]
        stack += [(None, "")] * (depth - len(stack))
        metric = next((owner[m] for m in owner if name == m or name.startswith(m + ".")), None)
        if metric is None and after is not None and after[1].startswith(name + "."):
            metric = after[0]
        if metric is None and depth > 0:
            metric = stack[depth - 1][0]
        stack.append((metric, name))
        if metric is not None:
            shares[metric] += self_s
    return shares


def _import_probe(deadline: float) -> dict[str, float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import spherewf; print(spherewf.__file__)"
    stdout, stderr = _run("import probe", [sys.executable, "-X", "importtime", "-c", code],
                          deadline, env)
    if not Path(stdout.strip()).resolve().is_relative_to(SRC):
        raise ChildError(f"import probe loaded spherewf from {stdout.strip()}")
    return import_shares(stderr)


def _provenance() -> dict:
    from importlib import metadata  # here, so it stays out of the children's setup_s

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(),
            **{m: metadata.version(m) for m in ("numpy", "scipy", "mpmath")},
            "git_sha": sha or "unknown"}


def _pooled_metrics(runs: list[dict], setups: list[dict]) -> tuple[dict, dict]:
    lat = [x for r in runs for x in r["latencies"]]
    timed_s = sum(r["timed_s"] for r in runs)
    setup = [r["setup_s"] for r in runs + setups]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        # a mean, because a median of a few samples jumps between machine states
        "warmup_s": (statistics.fmean(r["warmup_s"] for r in runs), "s"),
        "work_per_s": (sum(r["work"] for r in runs) / timed_s, "units/s"),
        "call_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "call_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3, "ms"),
        "peak_rss_mb": (max(r["rss_mb"] for r in runs), "MB"),
    }
    notes = {"interpreters": len(runs), "timed_calls": len(lat), "timed_s": timed_s,
             "setup_samples_s": setup,
             "warmup_samples_s": [r["warmup_s"] for r in runs]}
    return metrics, notes


def main(argv=None) -> int:
    args = _parse(argv)
    if args.child:
        return _child(args)
    if not (SRC / "spherewf" / "__init__.py").is_file():
        print(f"perfbench: no spherewf package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({v: "1" for v in THREAD_VARS})
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        if args.trace:
            runs = [_spawn(args, "run", args.seconds, deadline)]
            probes = [_import_probe(deadline) for _ in range(1 if args.tiny else IMPORT_PROBES)]
            metrics = dict(runs[0]["metrics"])
            for name in IMPORTS:
                metrics[name] = (statistics.median(p[name] for p in probes), "s")
            notes = {k: runs[0][k] for k in ("self_time_s", "untraced_calls", "traced_calls")}
        else:
            n = 2 if args.tiny else INTERPRETERS[args.workload]
            extra = 0 if args.tiny else max(0, SETUP_SAMPLES - n)
            runs, setups = [], []
            for i in range(n + extra):
                # run and setup-only interpreters alternate while both are left
                if len(runs) < n and (len(setups) >= extra or i % 2 == 0):
                    runs.append(_spawn(args, "run", args.seconds / n, deadline))
                else:
                    setups.append(_spawn(args, "setup", 0.0, deadline))
            metrics, notes = _pooled_metrics(runs, setups)
    except (ChildError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = [f for r in runs for f in r["failures"]][:20]
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": _provenance(),
              "failed_frac": failed / attempted, "failures": failures,
              "notes": notes, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))

    print(f"# spherewf perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# provenance {json.dumps(detail['provenance'])}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} {value:.6g} {unit}")
    if args.trace:
        for workload, rows in notes["self_time_s"].items():
            for span, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
                print(f"# self time [{workload}] {span}: {row['self_s']:.4f} s of "
                      f"{row['total_s']:.4f} s in {row['count']} spans")
    else:
        print(f"# {notes['timed_calls']} timed calls in {notes['timed_s']:.2f} s over "
              f"{notes['interpreters']} fresh interpreters, one warmup_s sample from each; "
              f"setup_s from {len(notes['setup_samples_s'])} interpreters")
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} calls)")
    for reason in failures:
        print(f"# failure: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
