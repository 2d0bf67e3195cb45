"""capax benchmark: one closed-loop caller runs one workload's ops for a while.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {cap2d,csim1d,norms1d} --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with no tracing installed.
Op times are scaled to the machine's uncontended speed with the probe in
``speed.py``; the measured times go into the metadata.
``--trace 1`` runs every op twice, untraced and with the layer tracer
installed, and reports the per-layer metrics, the tracing overhead, and
whether both passes returned identical values.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it is
the run's metadata. Both, and the spans of a traced run, are also written
under ``.bench_out/`` in the checkout. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
from scipy.special import betainc

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3        # fresh processes timed per run; setup_s is their median
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "1"),
]

# Agreement with the committed reference values (default seed only), per kind
# of value. Certified capacities: each side is within tol * max(v, 1) of the
# true minimum. Choquet sums and L^q(cap) norms interpolate certified
# capacities. Heuristic evaluators take the best of alternating or descent
# candidates, so a solver change within tol can flip a comparison and move
# the result further; 1% still catches a broken evaluator.
REF_TOL = {
    "certified": lambda ref, tol: 2 * tol * max(abs(ref), 1.0),
    "choquet": lambda ref, tol: 1e-4 * abs(ref),
    "exact": lambda ref, tol: 1e-9 * abs(ref),
    "heuristic": lambda ref, tol: 1e-2 * abs(ref),
}


def _import_capax():
    """Import capax from this checkout's src/, or exit 1 when it is not there."""
    src = ROOT / "src"
    if not (src / "capax" / "__init__.py").is_file():
        sys.exit(f"error: no capax sources under {src}")
    sys.path.insert(0, str(src))
    import capax
    if Path(capax.__file__).resolve().parent != src / "capax":
        sys.exit(f"error: imported capax from {capax.__file__}, not from {src}")
    return capax


@dataclass
class Loop:
    """Results of one closed loop over ops 0, 1, 2, ..."""

    latency: list = field(default_factory=list)    # seconds per op
    mid: list = field(default_factory=list)        # perf_counter at each op's midpoint
    cpu: list = field(default_factory=list)        # process CPU seconds per op
    values: list = field(default_factory=list)     # per op: tuple of floats, or None
    failures: list = field(default_factory=list)   # (op, traceback)


def _more(wl, i, start, seconds, count) -> bool:
    if count is not None:
        return i < count
    if i == 0 or i % wl.ROUND:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / (i / wl.ROUND) / 2 < seconds


def run_op(wl, i, loop, tracer=None):
    """Run op i, re-check its output, and record both in ``loop``.

    With a tracer, the tracer is installed for the op only, not for the check.
    """
    error = out = None
    if tracer is not None:
        tracer.op = i
        tracer.install()
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        if tracer is None:
            out = wl.op(i)
        else:
            with tracer.span("op"):
                out = wl.op(i)
    except Exception:           # a failing op is counted, and the run goes on
        error = traceback.format_exc()
    finally:
        t1, c1 = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.uninstall()
    loop.latency.append(t1 - t0)
    loop.mid.append((t0 + t1) / 2)
    loop.cpu.append(c1 - c0)
    values = None
    if error is None:
        try:
            values = wl.check(i, out)
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        loop.failures.append((i, error))
        if len(loop.failures) == 1:
            print(f"op {i} failed:\n{error}", file=sys.stderr)
    loop.values.append(values)


def run_loop(wl, seconds=None, count=None, meter=None) -> Loop:
    """Run ``count`` ops, or whole rounds of ops for about ``seconds``.

    A round (``wl.ROUND`` ops) visits each kind of op once, so every timed run
    holds the same mix of ops. A new round starts while its expected end is
    nearer to ``seconds`` than stopping now is. With a ``speed.Meter``, the
    machine-speed probe runs between ops, and once more after the last.
    """
    loop = Loop()
    start = time.perf_counter()
    i = 0
    while _more(wl, i, start, seconds, count):
        if meter is not None:
            meter.maybe()
        run_op(wl, i, loop)
        i += 1
    if meter is not None:
        meter.take()
    return loop


def quantile(x, p) -> float:
    """Harrell-Davis estimate of the p-quantile of x.

    A weighted mean of all order statistics, with weights from the
    Beta(p(n+1), (1-p)(n+1)) distribution. Op latencies cluster by kind of op;
    where the quantile falls between two clusters a single order statistic
    jumps from one to the other, while this estimate moves smoothly.
    """
    x = np.sort(np.asarray(x, dtype=float))
    n = len(x)
    w = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(w @ x)


def reference_mismatches(wl, values, reference) -> list:
    """Ops whose values differ from the reference by more than their tolerance."""
    bad = []
    for i, (got, ref) in enumerate(zip(values, reference)):
        if got is None:
            continue
        for g, r, kind in zip(got, ref, wl.ref_kinds(i)):
            if not abs(g - r) <= REF_TOL[kind](r, workloads.TOL):
                bad.append(f"op {i}: {g!r} vs reference {r!r} ({kind})")
    return bad


def time_setup(workload, seed) -> float:
    """Seconds from starting a fresh process until its first op is ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up process exited with code {code}")
    return elapsed


def metadata(args, seed, capax, attempted, failed, extra) -> dict:
    uname = platform.uname()
    return {
        "workload": args.workload, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed,
        "machine": {"system": uname.system, "release": uname.release,
                    "machine": uname.machine, "cpu_count": os.cpu_count(),
                    "cpus_usable": len(os.sched_getaffinity(0))},
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "capax": capax.__version__},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        **extra,
    }


def _metrics(spec, values) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in spec}


def _reference(workload, seed, default_seed):
    if seed != default_seed:
        return None
    with open(HERE / "reference.json") as fh:
        return json.load(fh)[workload]


def _timing(setup, lat_ms, cpu_ms) -> dict:
    return {
        "setup_s": float(np.median(setup)),
        "ops_per_s": len(lat_ms) * 1e3 / float(np.sum(lat_ms)),
        "op_ms_p50": quantile(lat_ms, 0.5),
        "op_ms_p90": quantile(lat_ms, 0.9),
        "cpu_ms_per_op": float(np.mean(cpu_ms)),
    }


def run_plain(args, wl, seed, ref):
    """Time set-up and the op loop; report op times scaled by ``speed``."""
    setup = [time_setup(args.workload, seed) for _ in range(SETUP_REPEATS)]
    meter = speed.Meter()
    loop = run_loop(wl, seconds=args.seconds, meter=meter)
    problems = []
    if hasattr(wl, "determinism"):
        problem = wl.determinism()
        if problem:
            problems.append(problem)
    if ref is not None:
        problems += reference_mismatches(wl, loop.values, ref)
    n = len(loop.latency)
    lat_ms = np.array(loop.latency) * 1e3
    cpu_ms = np.array(loop.cpu) * 1e3
    op_factor = meter.factor(loop.mid)
    values = _timing(setup, lat_ms * op_factor, cpu_ms * op_factor)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["ok_frac"] = (n - len(loop.failures)) / n
    extra = {"measured": _timing(setup, lat_ms, cpu_ms),
             "speed": {**meter.summary(), "op_factor_p10_p50_p90":
                       np.percentile(op_factor, [10, 50, 90]).tolist()},
             "setup_runs_s": setup,
             "ops_beyond_p90": int(np.sum(lat_ms * op_factor > values["op_ms_p90"])),
             "op_ms": lat_ms.tolist(), "op_cpu_ms": cpu_ms.tolist(),
             "op_factor": op_factor.tolist(),
             "reference_checked": 0 if ref is None else min(len(ref), n)}
    return loop, _metrics(END_TO_END, values), problems, extra


def run_traced(args, wl_cls, tmp, seed):
    """Run every op twice, untraced and traced, in alternating order.

    Pairing the two passes op by op keeps a change in machine speed during
    the run out of the overhead estimate.
    """
    tracer = tracing.Tracer()
    tracer.install()
    with tracer.span("setup"):
        wl = wl_cls(seed, tmp)
    tracer.uninstall()
    plain, traced = Loop(), Loop()
    start = time.perf_counter()
    i = 0
    while _more(wl, i, start, args.seconds, None):
        for t in ((None, tracer) if i % 2 == 0 else (tracer, None)):
            run_op(wl, i, plain if t is None else traced, t)
        i += 1
    problems = []
    if traced.values != plain.values:
        problems.append("traced and untraced runs returned different values")
    if hasattr(wl, "determinism"):
        problem = wl.determinism()
        if problem:
            problems.append(problem)
    tracer.dump(OUT / f"trace-{args.workload}-{seed}.npz")
    values = tracing.layer_metrics(tracer)
    n = len(traced.latency)
    values["cli.output_bytes"] = getattr(wl, "output_bytes", 0) / (2 * n)
    values["trace.ops_per_s_untraced"] = n / float(np.sum(plain.latency))
    values["trace.ops_per_s_traced"] = n / float(np.sum(traced.latency))
    values["trace.overhead_frac"] = float(np.sum(traced.latency) / np.sum(plain.latency)) - 1
    loop = Loop(latency=plain.latency + traced.latency, failures=plain.failures + traced.failures)
    extra = {"missing_bindings": tracer.missing,
             "binding_calls": tracer.calls,
             "untraced_ops": len(plain.latency), "traced_ops": n}
    return loop, _metrics(tracing.PER_LAYER, values), problems, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, help="input seed (default: DEFAULT_FAMILY_SEED)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready' and exit (used to time set-up)")
    args = ap.parse_args(argv)

    capax = _import_capax()
    from capax.families import DEFAULT_FAMILY_SEED as default_seed

    seed = default_seed if args.seed is None else args.seed
    wl_cls = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        wl_cls(seed, str(OUT))
        print("ready", flush=True)
        return 0

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.trace:
            loop, metrics, problems, extra = run_traced(args, wl_cls, tmp, seed)
        else:
            ref = _reference(args.workload, seed, default_seed)
            loop, metrics, problems, extra = run_plain(args, wl_cls(seed, tmp), seed, ref)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted, failed = len(loop.latency), len(loop.failures)
    meta = metadata(args, seed, capax, attempted, failed, extra)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(OUT / f"result-{args.workload}-{seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"meta": meta, "result": result, "problems": problems}, fh, indent=1)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
