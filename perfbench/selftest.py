"""Self-test of the benchmark itself (not of capax).

    python3 perfbench/selftest.py

Checks, in about a minute:
- a tiny plain and traced run of every workload prints exactly the metrics
  BENCHMARK.json names, with their units, and reports correct, failure-free
  results (a traced run also compares its values with an untraced pass);
- a plain run's metadata holds the measured times and the speed factors, and
  the scaled ops_per_s is the measured op times times their factors;
- across the workloads, every traced binding receives calls;
- a binding that does not exist is reported as missing, and the ops and the
  per-layer metrics still run;
- in a directory holding only BENCHMARK.json and the benchmark, run.py exits
  with a non-zero code and prints no result.
Exits 1 and names the failed checks when any fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracing
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_runs(errors):
    calls = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _bench(run.ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                          "--trace", str(trace))
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                errors.append(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result, meta = json.loads(lines[-1]), json.loads(lines[-2])["meta"]
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"} or got != want:
                errors.append(f"{workload} trace={trace}: result keys or metrics differ "
                              f"from BENCHMARK.json")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{workload} trace={trace}: {result}\n{proc.stderr}")
            if trace == 0:
                check_scaling(errors, workload, result, meta)
            for label, n in meta.get("binding_calls", {}).items():
                calls[label] = calls.get(label, 0) + n
            if meta.get("missing_bindings"):
                errors.append(f"{workload}: missing bindings {meta['missing_bindings']}")
    idle = [f"{m}.{a}" for m, a, _, _ in tracing.BINDINGS if not calls.get(f"{m}.{a}")]
    if idle:
        errors.append(f"traced bindings that received no calls: {idle}")


def check_scaling(errors, workload, result, meta):
    timed = {"setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "cpu_ms_per_op"}
    if set(meta["measured"]) != timed or meta["speed"]["probes"] < 2:
        errors.append(f"{workload}: measured times or probes missing from the metadata")
        return
    scaled = [ms * f for ms, f in zip(meta["op_ms"], meta["op_factor"])]
    want = len(scaled) * 1e3 / sum(scaled)
    if abs(result["metrics"]["ops_per_s"]["value"] - want) > 1e-9 * want:
        errors.append(f"{workload}: ops_per_s is not the scaled op times")


def check_missing_binding(errors):
    from capax.families import DEFAULT_FAMILY_SEED

    fake = [("capax.solver", "no_such_function", "solver.none", None),
            ("capax.no_such_module", "f", "none.f", None)]
    tracer = tracing.Tracer(tracing.BINDINGS + fake)
    tracer.install()
    try:
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            wl = workloads.Csim1d(DEFAULT_FAMILY_SEED, tmp)
    finally:
        tracer.uninstall()
    loop = run.Loop()
    run.run_op(wl, 0, loop, tracer)
    metrics = tracing.layer_metrics(tracer)
    if tracer.missing != ["capax.solver.no_such_function", "capax.no_such_module.f"]:
        errors.append(f"missing bindings reported as {tracer.missing}")
    if loop.failures or metrics["trace.missing_bindings"] != 2 or metrics["solver.solves"] < 1:
        errors.append(f"run with a missing binding went wrong: {loop.failures} {metrics}")


def check_bare_directory(errors):
    with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(bare, "--workload", "csim1d", "--seed", "1", "--seconds", "1",
                      "--trace", "0")
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        errors.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    run._import_capax()
    run.OUT.mkdir(exist_ok=True)
    errors = []
    for check in (check_runs, check_missing_binding, check_bare_directory):
        check(errors)
        print(f"{check.__name__}: {'ok' if not errors else 'FAILED'}", flush=True)
        if errors:
            break
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
