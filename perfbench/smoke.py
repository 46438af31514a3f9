"""Smoke test of the benchmark at tiny size.

    python3 perfbench/smoke.py

Runs every workload with --tiny in both modes and checks that each run is
correct and prints every metric BENCHMARK.json names, with its unit, both
as a `name value unit` line and in the final JSON line.  Then it feeds a
designed-to-fail control through the same call loop that counts failures
for failed_frac: the pushforward at D = 1/4 against the expansion at
eps = 1/2, as in harness.control_checks.  It also checks that tracing
leaves no module attribute wrapped, that the import.* figures charge each
module of an `-X importtime` report to the right dependency, and that
spec.json's predictions name exactly the metrics and workloads of
BENCHMARK.json.  Exit code 0 when all
hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def check_run(workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=175)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{where}: not correct ({result['failed']} of {result['attempted']} failed)")
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(wanted) - set(got))}, "
                      f"extra {sorted(set(got) - set(wanted))}, "
                      f"units {[(n, got[n], u) for n, u in wanted.items() if got.get(n, u) != u]}")
    printed = {tuple(ln.split()[::2]) for ln in lines[:-1] if len(ln.split()) == 3}
    errors += [f"{where}: no '{name} <value> {unit}' line"
               for name, unit in wanted.items() if (name, unit) not in printed]
    if not any(ln.startswith("failed_frac ") for ln in lines):
        errors.append(f"{where}: no failed_frac line")
    return errors


def _workloads():
    for p in (str(HERE), str(ROOT / "src")):
        if p not in sys.path:
            sys.path.insert(0, p)
    import workloads

    return workloads


def check_control() -> list[str]:
    W = _workloads()
    rng = W.path_rng(7, 1)
    x, x_prime = W.interior_points(rng, 3, 2, W.MIN_COORD)
    calls = W.Density(7, tiny=True).cycle()[:3] + [
        W.density_call(3, t, x, x_prime, d=W.CONTROL_D) for t in (0.2, 1.0)]
    tally = W.Tally()
    W.execute(calls, tally)
    if (tally.attempted, tally.failed) != (5, 2):
        return [f"control: {tally.failed} of {tally.attempted} calls failed, expected 2 of 5"]
    if not all("gap" in f for f in tally.failures):
        return [f"control: unexpected failure reasons {tally.failures}"]
    return []


def check_restore() -> list[str]:
    """Every attribute a workload wraps for tracing is put back afterwards."""
    W = _workloads()
    Tracer = W.Tracer

    modules = (W.simulate_mod, W.wf_density_mod)
    before = [dict(vars(m)) for m in modules]
    for cls in W.WORKLOADS.values():
        with Tracer() as tr:
            cls(7, tiny=True).instrument(tr)
            tr.count_calls(W.wf_density_mod, "log_gamma", "specfun.log_gamma")
    changed = [k for m, b in zip(modules, before) for k, v in vars(m).items()
               if b.get(k) is not v]
    return [f"restore: attributes left wrapped: {changed}"] if changed else []


def check_import_shares() -> list[str]:
    """Each module goes to the nearest named import above it; one never imported reads 0."""
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import run

    tree = [(100, 2, "numpy.core"), (10, 1, "numpy"), (5, 2, "_abc"), (20, 1, "scipy"),
            (30, 1, "scipy.special"), (7, 1, "json"), (1000, 0, "spherewf"), (3, 0, "site")]
    report = "\n".join(["import time: self [us] | cumulative | imported package"] + [
        f"import time: {us:>9} | {us:>10} | {'  ' * depth}{name}" for us, depth, name in tree])
    got = {k: round(v * 1e6) for k, v in run.import_shares(report).items()}
    want = {"import.numpy_s": 110, "import.scipy_special_s": 55, "import.scipy_stats_s": 0,
            "import.mpmath_s": 0, "import.spherewf_self_s": 1007}
    return [] if got == want else [f"import shares: got {got}, expected {want}"]


def check_spec() -> list[str]:
    """spec.json predicts something for exactly the metrics BENCHMARK.json names."""
    spec = json.loads((HERE / "spec.json").read_text())
    layers = {m["name"] for m in SPEC["per_layer"]}
    ends = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    predicted = [name for p in spec["predictions"] for name in p["layers"]]
    errors = [f"spec: {name} is not a per_layer metric" for name in set(predicted) - layers]
    errors += [f"spec: no prediction for {name}" for name in layers - set(predicted)]
    for p in spec["predictions"]:
        errors += [f"spec: {name} is not an end_to_end metric" for name in set(p["moves"]) - ends]
        errors += [f"spec: unknown workload {name}" for name in set(p["on"]) - workloads]
    if set(spec["workloads"]) != workloads:
        errors.append(f"spec: workloads {sorted(spec['workloads'])} differ from BENCHMARK.json")
    return errors


def main() -> int:
    errors = check_spec() + check_control() + check_restore() + check_import_shares()
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            errors += check_run(workload, trace)
    for e in errors:
        print(f"FAIL {e}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
